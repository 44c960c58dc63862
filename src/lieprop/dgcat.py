"""The two-term DG category built on the PROP.

A hom object in the cell (m, n) is a pair (degree-0 part in Hom(m, n),
degree-1 part in delta1(m, n)); composition is the square-zero
extension -- the degree-0 parts compose in the PROP, a degree-0 part
acts on a degree-1 part through the delta1 bimodule structure, and the
product of two degree-1 parts is discarded.  The differential sends the
degree-1 part through mu_tilde_1 and satisfies the Leibniz rule

    d(g o f) = dg o f + (-1)^{|g|} g o df.

Homology is computed cell by cell from the matrix of mu_tilde_1 in the
fixed bases.  One untracked echelon of its columns gives the rank, so
both dimensions, and is the boundary data defining H0: H0 classes are
handled as canonical reduced representatives against it, so equality
of classes is equality of representatives.  The kernel basis spanning
H1 is built only when something reads `HomologyCell.kernel`, by
`exactla.kernel` on the same columns, and is then cached per cell.
"""

import functools

from .catlie import HomElem, compose, hom_dim, identity
from .exactla import Echelon, kernel
from .mudelta import (Delta1Elem, delta1_act_left, delta1_act_right,
                      delta1_dim, mu, mu_tilde_1)


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

    Degree (0,0) is trivially 0 = 0.  Degree (0,1) and (1,0) are the two
    bimodule-morphism identities for mu_tilde_1, and degree (1,1) is the
    square-zero interchange; all are checked by direct expansion here.
    """
    g0 = [HomElem(n, p, {i: 1}) for i in range(hom_dim(n, p))]
    f0 = [HomElem(m, n, {i: 1}) for i in range(hom_dim(m, n))]
    g1 = [Delta1Elem(n, p, {i: 1}) for i in range(delta1_dim(n, p))]
    f1 = [Delta1Elem(m, n, {i: 1}) for i in range(delta1_dim(m, n))]
    for g in g0:
        for f in f1:
            # |g| = 0:  d(g.f) = g o d(f)
            if mu_tilde_1(delta1_act_left(g, f)) != compose(g, mu_tilde_1(f)):
                return False
    for g in g1:
        mg = mu_tilde_1(g)
        for f in f0:
            # |g| = 1, df = 0:  d(g.f) = dg o f
            if mu_tilde_1(delta1_act_right(g, f)) != compose(mg, f):
                return False
    for g in g1:
        mg = mu_tilde_1(g)
        for f in f1:
            # |g| = |f| = 1:  0 = dg . f - g . df
            if delta1_act_left(mg, f) != delta1_act_right(g, mu_tilde_1(f)):
                return False
    return True


class HomologyCell:
    """Homology data of one cell: dims, boundary span and kernel basis."""

    __slots__ = ("m", "n", "h0_dim", "h1_dim", "rank", "boundaries")

    def __init__(self, m, n, h0_dim, h1_dim, rank, boundaries):
        self.m = m
        self.n = n
        self.h0_dim = h0_dim
        self.h1_dim = h1_dim
        self.rank = rank
        self.boundaries = boundaries  # Echelon spanning im(mu_tilde_1)

    @property
    def kernel(self):
        """Tuple of Delta1Elem spanning ker(mu_tilde_1), built on first access."""
        return _cell_kernel(self.m, self.n)

    def h0_boundary_basis(self):
        """Echelonized spanning set of the boundary space, as HomElems."""
        return [HomElem(self.m, self.n, dict(row)) for _, row, _ in self.boundaries.rows]


def _mu_columns(m, n):
    """The columns of mu_tilde_1 on the cell, one per delta1 basis element."""
    return (mu_tilde_1(Delta1Elem(m, n, {i: 1})).coords for i in range(delta1_dim(m, n)))


@functools.cache
def homology_cell(m, n):
    ech = Echelon()
    for col in _mu_columns(m, n):
        ech.add(col)
    rank = ech.rank
    return HomologyCell(m, n, hom_dim(m, n) - rank, delta1_dim(m, n) - rank, rank, ech)


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
