"""The two-term DG category built on the PROP.

A hom object in the cell (m, n) is a pair (degree-0 part in Hom(m, n),
degree-1 part in delta1(m, n)); composition is the square-zero
extension -- the degree-0 parts compose in the PROP, a degree-0 part
acts on a degree-1 part through the delta1 bimodule structure, and the
product of two degree-1 parts is discarded.  The differential sends the
degree-1 part through mu_tilde_1 and satisfies the Leibniz rule

    d(g o f) = dg o f + (-1)^{|g|} g o df.

Homology is computed cell by cell, and each field of `HomologyCell` is
built only when something reads it, then cached per cell.

* The dimensions come from the S_n-blocks of mu_tilde_1.  S_n permutes
  the bases of Hom(m, n) and delta1(m, n) freely by post-composition
  (orbit representatives by `catlie.first_occurrence`), and mu_tilde_1
  commutes with it, so its columns on the delta1 representatives form
  a matrix M over Z[S_n], ranked per partition by `symrep.block_ranks`.
  M is built on the representatives alone (`_block_matrix`), so the
  dimensions build no basis table, index or column cache.  The blocks
  also give the multiplicity of each irreducible V_lambda in H0 and in H1.
* The boundary data defining H0 is one echelon of all the
  columns of mu_tilde_1 on the full bases: H0 classes are handled as
  canonical reduced representatives against it, so equality of classes
  is equality of representatives.
* The kernel basis spanning H1 is built by `exactla.kernel` on the same
  columns.
"""

import functools
from math import factorial
from operator import mul

from . import symrep
from .catlie import (BasisMorphism, HomElem, _check_arities, compose, compose_basis,
                     first_occurrence, hom_basis, hom_dim, identity, orbit_offsets, tree_tuples)
from .exactla import Echelon, combine, kernel
from .mudelta import (Delta1Elem, _act_right, _delta1_indices, _delta1_value_lists,
                      _left_composite, _mu_tilde_1_terms, check_dg_square, delta1_act_left,
                      delta1_act_right, delta1_dim, mu, mu_tilde_1, mu_tilde_1_column)


class DGHom:
    """Homogeneous-by-degree hom element of the DG category."""

    __slots__ = ("m", "n", "deg0", "deg1")

    def __init__(self, m, n, deg0=None, deg1=None):
        self.m = m
        self.n = n
        self.deg0 = deg0 if deg0 is not None else HomElem.zero(m, n)
        self.deg1 = deg1 if deg1 is not None else Delta1Elem.zero(m, n)
        if (self.deg0.m, self.deg0.n) != (m, n) or (self.deg1.m, self.deg1.n) != (m, n):
            raise ValueError("component cells disagree with the hom cell")

    def __add__(self, other):
        return DGHom(self.m, self.n, self.deg0 + other.deg0, self.deg1 + other.deg1)

    def __sub__(self, other):
        return DGHom(self.m, self.n, self.deg0 - other.deg0, self.deg1 - other.deg1)

    def __eq__(self, other):
        return (isinstance(other, DGHom) and self.deg0 == other.deg0
                and self.deg1 == other.deg1)

    def is_zero(self):
        return self.deg0.is_zero() and self.deg1.is_zero()

    def __repr__(self):
        return "DGHom(%d, %d, %r, %r)" % (self.m, self.n, self.deg0, self.deg1)


def dg_identity(n):
    return DGHom(n, n, identity(n))


def dg_compose(g, f):
    """Square-zero composition; the degree-2 product is dropped."""
    if f.n != g.m:
        raise ValueError("inner arities differ")
    deg0 = compose(g.deg0, f.deg0)
    deg1 = Delta1Elem.zero(f.m, g.n)
    if not f.deg1.is_zero() and not g.deg0.is_zero():
        deg1 = deg1 + delta1_act_left(g.deg0, f.deg1)
    if not g.deg1.is_zero() and not f.deg0.is_zero():
        deg1 = deg1 + delta1_act_right(g.deg1, f.deg0)
    return DGHom(f.m, g.n, deg0, deg1)


def differential(h):
    """d(h) = (mu_tilde_1 of the degree-1 part, 0); d o d = 0 on the nose."""
    return DGHom(h.m, h.n, mu_tilde_1(h.deg1))


def check_leibniz(m, n, p):
    """d(g o f) = dg o f + (-1)^{|g|} g o df over full homogeneous bases.

    Degree (0,0) is trivially 0 = 0.  Degrees (0,1) and (1,0) are the two
    bimodule-morphism identities for mu_tilde_1, mu_tilde_1(G . y) =
    G o mu_tilde_1(y) and mu_tilde_1(x . F) = mu_tilde_1(x) o F, compared on
    plain coordinates for every basis G, F of Hom and x, y of delta1.  In
    degree (0,1), G . y for y = (a, y') is the left composite G o y'
    (`mudelta._left_composite`, one per (G, y')) glued back at each a.
    Degree (1,1) is the square-zero interchange, `mudelta.check_dg_square`.
    """
    _check_arities(m, n, p)
    gb, fb, mp = hom_basis(n, p), hom_basis(m, n), functools.partial(mu_tilde_1_column, m, p)
    gs = [HomElem(n, p, {i: 1}) for i in range(len(gb))]
    fs = [HomElem(m, n, {i: 1}) for i in range(len(fb))]
    ys = [_delta1_indices(m, n, a) for a in range(1, m + 1)]   # ys[a-1][y'] = y
    ups = [_delta1_indices(m, p, a) for a in range(1, m + 1)]  # glue at a into delta1(m, p)
    for i, y in enumerate(hom_basis(m - 1, n) if m else ()):   # |g| = 0:  d(g . y) = g o dy
        lefts = [_left_composite(g, y) for g in gs]
        for ya, up in zip(ys, ups):
            my = mu_tilde_1_column(m, n, ya[i])
            if any(combine({up[j]: v for j, v in left.items()}, mp)
                   != combine(my, lambda k: compose_basis(G, fb[k]))
                   for G, left in zip(gb, lefts)):
                return False
    for s in range(delta1_dim(n, p)):           # |x| = 1, df = 0:  d(x . f) = dx o f
        x, mx = Delta1Elem(n, p, {s: 1}), mu_tilde_1_column(n, p, s)
        if any(combine(_act_right(x, f), mp) != combine(mx, lambda i: compose_basis(gb[i], F))
               for F, f in zip(fb, fs)):
            return False
    return check_dg_square(m, n, p)             # |g| = |f| = 1:  0 = dg . f - g . df


class HomologyCell:
    """Homology data of one cell.  Every field is built on first read and
    cached per cell at module level: `rank`, `h0_dim`, `h1_dim` and
    `multiplicities` from the S_n blocks on orbit representatives,
    `boundaries` from the full column echelon, `kernel` from the kernel
    basis."""

    __slots__ = ("m", "n")

    def __init__(self, m, n):
        self.m = m
        self.n = n

    @property
    def rank(self):
        """rank mu_tilde_1 = sum over lambda of d_lambda * rank rho_lambda(M)."""
        return sum(symrep.dim(shape) * r for shape, r in _block_ranks(self.m, self.n).items())

    @property
    def h0_dim(self):
        return hom_dim(self.m, self.n) - self.rank

    @property
    def h1_dim(self):
        return delta1_dim(self.m, self.n) - self.rank

    @property
    def multiplicities(self):
        """{lambda: (h0_lambda, h1_lambda)}, the multiplicities of the
        irreducible S_n-module V_lambda in H0 and in H1."""
        c = hom_dim(self.m, self.n) // factorial(self.n)        # free ranks over Q[S_n]
        r = delta1_dim(self.m, self.n) // factorial(self.n)
        return {shape: (c * symrep.dim(shape) - k, r * symrep.dim(shape) - k)
                for shape, k in _block_ranks(self.m, self.n).items()}

    @property
    def boundaries(self):
        """Echelon spanning im(mu_tilde_1), built on first access."""
        return _cell_boundaries(self.m, self.n)

    @property
    def kernel(self):
        """Tuple of Delta1Elem spanning ker(mu_tilde_1), built on first access."""
        return _cell_kernel(self.m, self.n)

    def h0_boundary_basis(self):
        """Echelonized spanning set of the boundary space, as HomElems."""
        return [HomElem(self.m, self.n, dict(row)) for _, row in self.boundaries.rows]


@functools.cache
def homology_cell(m, n):
    """The HomologyCell of (m, n); its fields are built on first read.
    Cells with n > m are zero; negative arities raise ValueError."""
    if m < 0 or n < 0:
        raise ValueError("homology_cell needs m, n >= 0, got (%d, %d)" % (m, n))
    return HomologyCell(m, n)


@functools.cache
def _block_ranks(m, n):
    """{lambda: rank rho_lambda(M)} over the partitions lambda of n, for M
    the matrix of `_block_matrix`; the cached per-cell entry of
    `HomologyCell`, ranked x -> xM on Q[S_n]^r block by block by
    `symrep.block_ranks`."""
    return symrep.block_ranks(_block_matrix(m, n), n)


def _block_matrix(m, n):
    """The rows of mu_tilde_1 as a matrix M over Z[S_n], built on the orbit
    representatives only: no basis table, index or column cache.

    Post-composition with sigma in S_n permutes the bases of Hom(m, n)
    and of delta1(m, n) (through sigma + 1) freely, and mu_tilde_1 is
    S_n-equivariant, since sigma o mu(n) = mu(n) o (sigma + 1).  So
    mu_tilde_1 on the delta1 representatives r_j (in basis order)
    determines it: mu_tilde_1(r_j) = sum_i M_ji h_i with M_ji in Z[S_n] and
    h_i the Hom representatives, numbered in basis order by
    `catlie.orbit_offsets`.  Row j is {i: {tau: coefficient}}.

    The loop runs over the representative value lists f
    (`mudelta._delta1_value_lists`) outside and their tree tuples inside.
    Per (f, j), `mudelta._mu_tilde_1_terms` gives the value list f_j of the
    terms on output j and their table of `freelie.bracket_leaf_table`, and
    `catlie.first_occurrence`, run once per f_j on a probe whose trees are
    the output positions, gives tau, the offset of the representative's
    value list and where each tree goes, so a stride per output.  For a
    tree tuple ts the terms on output j then have index base_j + p *
    stride_j, base_j from the trees other than ts[j], for (p, c) in
    table[ts[j]].  The action is free, so the terms of a row are distinct
    pairs (i, tau).
    """
    offsets, orbit, matrix = orbit_offsets(m, n), {}, []
    positions = tuple(range(n))
    for f, g, a in _delta1_value_lists(m, n):
        outputs = []
        for j, (fj, table) in enumerate(_mu_tilde_1_terms(f, a, n)):
            if fj not in orbit:
                tau, probe = first_occurrence(BasisMorphism(m, n, fj, positions), 0, n)
                offset, strides = offsets[probe.f]
                # the tree of output p+1 is at output k+1 of the rep, k = probe.trees.index(p)
                orbit[fj] = tau, offset, [strides[probe.trees.index(p)] for p in range(n)]
            outputs.append((j, table) + orbit[fj])
        for ts in tree_tuples(g, n):
            row = {}
            for j, table, tau, offset, weights in outputs:
                stride = weights[j]
                base = offset + sum(map(mul, ts, weights)) - ts[j] * stride
                for p, c in table[ts[j]]:
                    row.setdefault(base + p * stride, {})[tau] = c
            matrix.append(row)
    return matrix


def _mu_columns(m, n):
    """The columns of mu_tilde_1 on the cell, one per delta1 basis element."""
    return (mu_tilde_1_column(m, n, s) for s in range(delta1_dim(m, n)))


@functools.cache
def _cell_boundaries(m, n):
    """The echelon of all the columns of mu_tilde_1: the span of
    the boundaries, against which H0 representatives are reduced."""
    ech = Echelon()
    for col in _mu_columns(m, n):
        ech.add(col)
    return ech


@functools.cache
def _cell_kernel(m, n):
    """One kernel vector per column of mu_tilde_1 that depends on the
    columns before it, supported on it and the independent ones before it."""
    return tuple(Delta1Elem(m, n, z) for z in kernel(list(_mu_columns(m, n))))


def h0_reduce(w):
    """Canonical representative of the H0 class of w (zero iff w is a boundary)."""
    cell = homology_cell(w.m, w.n)
    return HomElem(w.m, w.n, cell.boundaries.reduce(w.coords))


def h0_compose(a, b):
    """Composition in H0 on canonical representatives."""
    return h0_reduce(compose(a, b))


def check_h1_mu_trivial(m, n):
    """Every H1 kernel element of the cell (m, n+1) is killed by mu(n) acting
    on the left -- exactly, as an element of delta1(m, n)."""
    cell = homology_cell(m, n + 1)
    g = mu(n)
    for z in cell.kernel:
        if not delta1_act_left(g, z).is_zero():
            return False
    return True


def syzygy_euler_check(m, n):
    """Alternating dimension sum of 0 -> H1 -> delta1 -> Hom -> H0 -> 0."""
    cell = homology_cell(m, n)
    return cell.h1_dim - delta1_dim(m, n) + hom_dim(m, n) - cell.h0_dim == 0
