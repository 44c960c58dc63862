"""The morphisms mu(n), the generators iota_a, the sub-bimodule
delta1 of shifted hom-spaces, and the projection pi.

delta1(m, n) is the subspace of Hom(m, n+1) spanned by basis morphisms
whose fiber over the last output n+1 is a singleton; its dimension is
m * hom_dim(m-1, n).  Elements are stored in sub-basis coordinates
(inclusion into and projection from the ambient hom-space are explicit
coordinate maps).

Both actions compose in smaller hom-spaces: `_cut` deletes an output and
its fiber, relabelling the rest in order (tree indices carry over), and
`_glue` puts them back over a new last output.  So delta1(m, n) = [m] x
Hom(m-1, n), y = (a, y'): (g boxplus 1) o y is the left composite g o y'
(`_left_composite`) glued back, one for all m positions of a; x o F is the
right term of F at the lone input b of x (`_right_term`), x' o F' with F's
fiber over b glued back, F cut once per (b, F) for every x'.
The right action of tau in S_m is cut too, and read one cut block at a time: the
block of a, all y = (a, y'), goes to y' o tau' with a glued back at a' = tau^{-1}(a),
tau' = tau: [m] - {a'} -> [m] - {a} relabelled in order.  So the block is the act_in
matrix of tau' on Hom(m-1, n) with its indices moved by the glue map at a'
(`delta1_act_in_columns`), and blocks with the same tau' share its rows.  For
adjacent tau = (k, k+1), tau' is 1 for a = k, k+1, whose blocks are relabellings,
and one of at most two adjacent transpositions for every other a.

mu(n) in Hom(n+1, n) is the sum of the n basis morphisms that restrict
to the identity on the first n inputs and bracket the extra input onto
one output; mu(0) = 0.  Post-composition with mu gives the natural map
mu_tilde: Hom(m, n+1) -> Hom(m, n) -- the universal form of the n-fold
right adjoint action -- and mu_tilde_1 is its restriction to delta1.

`mu_tilde` composes with mu(n); that is the definition.  `mu_tilde_1`
uses a closed form instead, with no grafting and no normalization.  A
delta1 basis element y has the left-normed combs
T_j = [[...[h_j, s_2], ...], s_k] over the outputs j <= n, h_j the
least label of its fiber, and its input a alone over output n+1, so

    mu_tilde_1(y) = sum_j (T_1, ..., [T_j, a], ..., T_n),

with a moved into the fiber of output j.  [T, a] is the comb (h, s_2, ...,
s_k, a) if a > h, and 2^(k-1) combs +-(a, ...) if a < h (`freelie.bracket_leaf`).
The comb basis reads sorted labels, so [T, a] depends only on the fiber
size k, the tree index t of T and the rank r of a among the k+1 labels:
`freelie.bracket_leaf_table(k, r)[t]` holds it once per pattern, as comb
indices over the fiber with a, and no term calls `bracket_leaf`.

Distinct (j, comb) pairs are distinct basis morphisms of Hom(m, n), so
each column is read off with no accumulation.  One helper,
`_mu_tilde_1_terms`, reads the closed form off a delta1 value list f and
its lone input a: per output j, the new value list and the table of its
(k, r), for every tree tuple on f at once.  `mu_tilde_1_column` maps the
trees of one basis element through the table, looks the terms up in
`hom_index` and is cached per delta1 basis element; `dgcat._block_matrix`
maps all the tree tuples of each S_n-orbit representative value list
(`_delta1_value_lists`).
`cecomplex.ce_to_dgcat` certifies the closed form against the definition
(its `mu_compat`).

pi: Hom(m, n+1) ->> delta1(m, n) is computed by the recursion

    pi(Z (x) x)      = Z (x) x                 for x a single leaf,
    pi(Z (x) [X, Y]) = pi(Z.X (x) Y) - pi(Z.Y (x) X),

where Z.X brackets X onto each of the first n outputs in turn (a
Leibniz-style sum).  The recursion consumes the tree in the last slot,
always splitting off the left child first; well-definedness is not
assumed but certified by the retraction, compatibility and chain-map
tests downstream.

The module also carries executable checks of the centrality identity, the
Lie-action identity and the square-zero interchange (`check_dg_square`).
The square-zero check reads both sides through the same two helpers as the
public actions, in one exact pass per cell, with the difference of the sides
accumulated per pair in one int dict.
Centrality goes through the output cut: each term of phi o mu(n) or of
mu(t) o (phi boxplus 1) changes one output of phi and the input n+1, so both
sides are glued from composites on Hom(k+1, 1), one pair per (fiber size k, tree).
"""

import functools

from . import freelie
from .catlie import (BasisMorphism, HomElem, _act_in_basis, _check_arities, as_perm,
                     basis_trees, boxplus, compose, compose_basis, emit, hom_basis, hom_dim,
                     hom_index, identity, orbit_fold, orbit_offsets, perm_hom, tree_tuples)
from .exactla import SparseElem, axpy, combine
from .freelie import bracket_leaf_table


@functools.cache
def delta1_basis(m, n):
    """Sub-basis of Hom(m, n+1) with a singleton fiber over output n+1.

    Returns (full_indices, basis_morphisms, index_of) with the ambient
    hom-basis order preserved.
    """
    full = []
    bms = []
    for i, bm in enumerate(hom_basis(m, n + 1)):
        if bm.f.count(n + 1) == 1:
            full.append(i)
            bms.append(bm)
    index_of = {bm: s for s, bm in enumerate(bms)}
    return (tuple(full), tuple(bms), index_of)


def delta1_dim(m, n):
    if m < 1 or n < 0:
        return 0
    return m * hom_dim(m - 1, n)


class Delta1Elem(SparseElem):
    """Element of delta1(m, n), coordinates over the sub-basis."""

    __slots__ = ("m", "n")

    def __init__(self, m, n, coords=None):
        self.m = m
        self.n = n
        super().__init__(coords)

    def cell(self):
        return (self.m, self.n)

    def dim(self):
        return delta1_dim(self.m, self.n)


def _check_type(*args):
    for x, cls in zip(args[::2], args[1::2]):   # (object, class) pairs
        if not isinstance(x, cls):
            raise TypeError("expected a %s, got %s" % (cls.__name__, type(x).__name__))


def include_delta1(z):
    """Coordinate inclusion delta1(m, n) -> Hom(m, n+1)."""
    _check_type(z, Delta1Elem)
    full, _, _ = delta1_basis(z.m, z.n)
    return HomElem(z.m, z.n + 1, {full[i]: c for i, c in z.coords.items()})


@functools.cache
def _delta1_position(m, n):
    """Ambient index -> sub-basis index, over the sub-basis of delta1(m, n)."""
    full, _, _ = delta1_basis(m, n)
    return {fi: s for s, fi in enumerate(full)}


def project_delta1(w):
    """Read an ambient element known to lie in delta1 back into sub-coordinates."""
    m, n = w.m, w.n - 1
    back = _delta1_position(m, n)
    out = {}
    for i, c in w.coords.items():
        s = back.get(i)
        if s is None:
            raise ValueError("element is not supported on the delta1 sub-basis")
        out[s] = c
    return Delta1Elem(m, n, out)


@functools.cache
def mu(n):
    """The canonical element of Hom(n+1, n); mu(0) = 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return HomElem.zero(1, 0)
    index = hom_index(n + 1, n)
    coords = {}
    base = tuple(range(1, n + 1))
    for j in range(1, n + 1):
        bm = BasisMorphism(n + 1, n, base + (j,), (0,) * n)
        coords[index[bm]] = 1
    return HomElem(n + 1, n, coords)


def mu_tilde(w):
    """Post-composition with mu: Hom(m, n+1) -> Hom(m, n)."""
    if w.n < 1:
        raise ValueError("mu_tilde needs target arity >= 1")
    return compose(mu(w.n - 1), w)


def iota(a):
    """Generator of delta1(a, a-1) given by the identity of [a]; iota_0 = 0."""
    if a < 0:
        raise ValueError("a must be >= 0")
    if a == 0:
        return Delta1Elem.zero(0, 0)
    bm = BasisMorphism(a, a, tuple(range(1, a + 1)), (0,) * a)
    _, _, index_of = delta1_basis(a, a - 1)
    return Delta1Elem(a, a - 1, {index_of[bm]: 1})


def _delta1_value_lists(m, n):
    """The value lists f of the delta1(m, n) orbit representatives y = (a, y'),
    sorted, each as (f, g, a): g runs over the value lists of the Hom(m-1, n)
    representatives (`catlie.orbit_offsets`) and the lone input a over [m], and
    f is g with n+1 put in at a.  The representatives on f are (f, trees + (0,))
    for trees in `tree_tuples(g, n)`, in basis order."""
    if m < 1:
        return []
    return sorted((g[:a - 1] + (n + 1,) + g[a - 1:], g, a)
                  for g in orbit_offsets(m - 1, n) for a in range(1, m + 1))


@functools.cache
def delta1_orbit_fold(m, n):
    """(fold, reps) for the S_n-orbits of delta1(m, n): reps lists the delta1
    indices of the representatives in the order of `_delta1_value_lists`, the
    order of the rows of `dgcat._block_matrix`, and fold[s] = (sigma, j) says
    that basis element s is sigma . (representative j).  Through the cut,
    s = (a, y') is sigma . (a, rep k) for y' = sigma . rep k in Hom(m-1, n), read
    off `catlie.orbit_fold(m - 1, n)`."""
    offsets, ident = orbit_offsets(m - 1, n), tuple(range(1, n + 1))
    where = {}                  # where[a, k]: the number of the representative (a, rep k)
    for f, g, a in _delta1_value_lists(m, n):
        for k, _ in enumerate(tree_tuples(g, n), offsets[g][0]):
            where[a, k] = len(where)
    hom_fold = orbit_fold(m - 1, n)[0]
    fold = []
    for a, i in _delta1_blocks(m, n):
        sigma, k = hom_fold[i]
        fold.append((sigma, where[a, k]))
    # both list the representatives by value list, then trees: in the same order
    return tuple(fold), tuple(s for s, (sigma, _) in enumerate(fold) if sigma == ident)


def _mu_tilde_1_terms(f, a, n):
    """mu_tilde_1 in closed form (module docstring) on the delta1(m, n) value
    list f with its lone input a over n+1, for every tree tuple at once: one
    (f_j, table_j) per output j <= n.  a moves into the fiber of j, which gives
    the value list f_j, and table_j = `bracket_leaf_table(k_j, r_j)`, with k_j
    the size of that fiber before and r_j the rank of a among its k_j + 1
    labels.  A basis element (f, trees) maps to the basis morphisms (f_j,
    trees with the tree t of output j replaced by p), with coefficient c, for
    (p, c) in table_j[t].  The one reading of the closed form, for
    `mu_tilde_1_column` per element and for `dgcat._block_matrix` per value
    list."""
    before, after = f[:a - 1], f[a:]
    return [(before + (j,) + after, bracket_leaf_table(f.count(j), before.count(j) + 1))
            for j in range(1, n + 1)]


@functools.cache
def mu_tilde_1_column(m, n, s):
    """Coordinates of mu_tilde_1 of the delta1(m, n) basis element s, in
    closed form (`_mu_tilde_1_terms`).  Cached and shared between callers:
    the dict is read-only."""
    y, index, out = delta1_basis(m, n)[1][s], hom_index(m, n), {}
    ts = y.trees
    for j, (f, table) in enumerate(_mu_tilde_1_terms(y.f, y.f.index(n + 1) + 1, n)):
        front, back = ts[:j], ts[j + 1:n]
        for p, c in table[ts[j]]:
            out[index[BasisMorphism(m, n, f, front + (p,) + back)]] = c
    return out


def mu_tilde_1(z):
    """Restriction of mu_tilde to delta1: delta1(m, n) -> Hom(m, n)."""
    _check_type(z, Delta1Elem)
    return HomElem(z.m, z.n, combine(z.coords, lambda s: mu_tilde_1_column(z.m, z.n, s)))


def adjoint_append(front, x_tree):
    """All ways to bracket x_tree onto one of the given output trees.

    Returns a tuple of tree tuples; entry i replaces front[i] by
    (front[i], x_tree).  Summing over them is the place-wise right
    adjoint action.
    """
    return tuple(front[:i] + ((front[i], x_tree),) + front[i + 1:]
                 for i in range(len(front)))


@functools.cache
def _pi_rec(front, last):
    if not isinstance(last, tuple):
        # the lone input `last` over output n+1 is a one-leaf tree
        n = len(front)
        m = 1 + sum(len(freelie.leaves(t)) for t in front)
        return emit(front + (last,), delta1_basis(m, n)[2])
    x, y = last
    out = {}
    for sign, first, second in ((1, x, y), (-1, y, x)):
        for appended in adjoint_append(front, first):
            axpy(out, _pi_rec(appended, second), sign)
    return out


@functools.cache
def _pi_column(m, n, k):
    """pi of the basis element k of Hom(m, n+1); cached, so read-only."""
    trees = basis_trees(hom_basis(m, n + 1)[k])
    return _pi_rec(trees[:-1], trees[-1])


def pi(w):
    """The retraction Hom(m, n+1) ->> delta1(m, n)."""
    if w.n < 1:
        raise ValueError("pi needs target arity >= 1")
    return Delta1Elem(w.m, w.n - 1, combine(w.coords, lambda k: _pi_column(w.m, w.n - 1, k)))


@functools.cache
def _cut(bm, b):
    """(fiber, tree index, rest) of a basis morphism cut at output b (module docstring)."""
    f = tuple(v - (v > b) for v in bm.f if v != b)
    return (tuple(i for i, v in enumerate(bm.f, 1) if v == b), bm.trees[b - 1],
            BasisMorphism(len(f), bm.n - 1, f, bm.trees[:b - 1] + bm.trees[b:]))


@functools.cache
def _glue(m, p, fib, tree):
    """Hom(m, p+1) index of each basis element of Hom(m - |fib|, p) glued back; read-only."""
    index, out = hom_index(m, p + 1), []
    for bm in hom_basis(m - len(fib), p):
        f = iter(bm.f)
        f = tuple(p + 1 if i in fib else next(f) for i in range(1, m + 1))
        out.append(index[BasisMorphism(m, p + 1, f, bm.trees + (tree,))])
    return out


@functools.cache
def _delta1_indices(m, p, a):
    """The delta1(m, p) index of (a, y') for each basis y' of Hom(m-1, p), in order."""
    back = _delta1_position(m, p)
    return tuple(back[k] for k in _glue(m, p, (a,), 0))


def _left_composite(g, y):
    """Coordinates of g o y' in Hom(m-1, p), y' a basis morphism of Hom(m-1, n): the
    left composite that (g boxplus 1) o y glues back at the lone input a of y = (a, y'),
    shared by all m positions of a."""
    gb = hom_basis(g.m, g.n)
    return combine(g.coords, lambda i: compose_basis(gb[i], y))


def _right_term(F, b, t):
    """The right term of a basis F of Hom(m, n) at b: x' -> coordinates of pi(x o F)
    for x = (b, x') in delta1(n, t), x' o F' with F's fiber over b glued back.  F is
    cut at b once and the cut serves every x' with lone input b."""
    fib, tree, cut = _cut(F, b)
    up = _glue(F.m, t, fib, tree)
    return lambda x: combine(compose_basis(x, cut), lambda j: _pi_column(F.m, t, up[j]))


def _act_left(g, z):
    """Coordinates of (g boxplus 1) o y: `_left_composite` glued back at a."""
    zb, out = delta1_basis(z.m, z.n)[1], {}
    for s, c in z.coords.items():
        (a,), _, y = _cut(zb[s], z.n + 1)
        up = _delta1_indices(z.m, g.n, a)
        axpy(out, {up[j]: v for j, v in _left_composite(g, y).items()}, c)
    return out


def _act_right(z, f):
    """Coordinates of pi(x o F): the `_right_term` of F at the lone input b of x."""
    zb, fb, out = delta1_basis(z.m, z.n)[1], hom_basis(f.m, f.n), {}
    for s, c in z.coords.items():
        (b,), _, x = _cut(zb[s], z.n + 1)
        for i, fc in f.coords.items():
            axpy(out, _right_term(fb[i], b, z.n)(x), c * fc)
    return out


def delta1_act_left(g, z):
    """Left action of Hom(n, p) on delta1(m, n): compose with g boxplus 1."""
    _check_type(g, HomElem, z, Delta1Elem)
    if g.m != z.n:
        raise ValueError("arity mismatch for the left action")
    return Delta1Elem(z.m, g.n, _act_left(g, z))


def delta1_act_right(z, f):
    """Right action of Hom(m, n) on delta1(n, p): pre-compose, then project by pi."""
    _check_type(z, Delta1Elem, f, HomElem)
    if f.n != z.m:
        raise ValueError("arity mismatch for the right action")
    return Delta1Elem(f.m, z.n, _act_right(z, f))


@functools.cache
def _delta1_blocks(m, n):
    """The cut block (a, i) of each delta1(m, n) index s = (a, y'_i), y'_i the basis
    element i of Hom(m-1, n): the inverse of `_delta1_indices`; read-only."""
    out = [None] * delta1_dim(m, n)
    for a in range(1, m + 1):
        for i, s in enumerate(_delta1_indices(m, n, a)):
            out[s] = (a, i)
    return out


def delta1_act_in_columns(m, n, tau, support):
    """The right action of tau on delta1(m, n), one cut block at a time (module
    docstring): {s: coordinates of s o tau} for the indices s in support, as fresh
    dicts.  tau must permute 1..m (`catlie.as_perm`).  Per lone input a met in
    support, tau' and the glue map at a' = tau^{-1}(a) are worked out once; the
    block's columns are the act_in rows `_act_in_basis(y', tau')` with their indices
    moved by the glue map, each read once per (y', tau') and shared by the blocks
    with the same tau'.  A block with tau' = 1 is a relabelling and reads no act_in."""
    tau, blocks, acts, out = as_perm(tau, m), {}, {}, {}
    if not support:             # builds no table for a zero module
        return out
    where, ys = _delta1_blocks(m, n), hom_basis(m - 1, n)
    for s in support:
        a, i = where[s]
        blocks.setdefault(a, []).append((s, i))
    for a, members in blocks.items():
        up = _delta1_indices(m, n, tau.index(a) + 1)
        sigma = tuple(t - (t > a) for t in tau if t != a)     # tau'
        if sigma == tuple(range(1, m)):
            out.update((s, {up[i]: 1}) for s, i in members)
            continue
        rows = acts.setdefault(sigma, {})
        for s, i in members:
            row = rows.get(i)
            if row is None:
                row = rows[i] = _act_in_basis(ys[i], sigma)
            out[s] = {up[j]: c for j, c in row.items()}
    return out


def delta1_act_in(z, tau):
    """Right action of S_m on delta1(m, n): the sum of the columns of its support,
    read block by block by `delta1_act_in_columns`."""
    _check_type(z, Delta1Elem)
    columns = delta1_act_in_columns(z.m, z.n, tau, z.coords)
    return Delta1Elem(z.m, z.n, combine(z.coords, columns.__getitem__))


@functools.cache
def _centrality_pieces(k, tree):
    """psi o mu(k) and mu(1) o (psi boxplus 1) for psi = (k, 1, (1,)*k, (tree,)), each
    as {tree index over [k+1]: coefficient}; read-only."""
    psi, trees = HomElem.from_basis(BasisMorphism(k, 1, (1,) * k, (tree,))), hom_basis(k + 1, 1)
    return tuple({trees[j].trees[0]: c for j, c in side.coords.items()}
                 for side in (compose(psi, mu(k)), compose(mu(1), boxplus(psi, identity(1)))))


def _centrality_sides(phi):
    """Coordinates of phi o mu(n) and mu(t) o (phi boxplus 1), basis phi of Hom(n, t),
    glued from the pieces of its outputs: output i with its fiber and input n+1."""
    m, t, index, sides = phi.m + 1, phi.n, hom_index(phi.m + 1, phi.n), ({}, {})
    for i, tree in enumerate(phi.trees):
        f = phi.f + (i + 1,)
        for side, piece in zip(sides, _centrality_pieces(phi.f.count(i + 1), tree)):
            for u, c in piece.items():
                side[index[BasisMorphism(m, t, f, phi.trees[:i] + (u,) + phi.trees[i + 1:])]] = c
    return sides


def check_centrality(n, t):
    """phi o mu(n) = mu(t) o (phi boxplus 1) for every basis phi of Hom(n, t), each
    side glued from the pieces of its outputs (module docstring): n+1 is above every
    label, so relabelling a fiber with it in order keeps the tree indices."""
    _check_arities(n, t)
    return all(lhs == rhs for lhs, rhs in map(_centrality_sides, hom_basis(n, t)))


def check_lie_action(n):
    """Bracketing the two extra inputs equals the adjoint-action commutator.

    In Hom(n+2, n):  mu(n) o (1_n boxplus mu(1))
                   = mu(n) o mu(n+1)  -  mu(n) o (mu(n+1) o swap),
    with swap exchanging the last two inputs.
    """
    mun = mu(n)
    lhs = compose(mun, boxplus(identity(n), mu(1)))
    inner = mu(n + 1)
    swap = tuple(range(1, n + 1)) + (n + 2, n + 1)
    rhs = compose(mun, inner) - compose(mun, compose(inner, perm_hom(swap)))
    return lhs == rhs


def check_dg_square(m, n, t):
    """Square zero: x . mu_tilde_1(y) = mu_tilde_1(x) . y for all basis x = (b, x') of
    delta1(n, t) and y = (a, y') of delta1(m, n), read through the delta1 cut, in one
    exact pass per cell.  mu_tilde_1 is read from `mu_tilde_1_column`, the columns the
    homology uses, which `cecomplex.ce_to_dgcat` certifies against the composite with
    mu.  Per (b, F), F in the support of some mu_tilde_1(y), one `_right_term`; per x,
    its values R_x(F) = x . F; per (x, y'), one `_left_composite` mu_tilde_1(x) o y',
    which glued back at a is mu_tilde_1(x) . y.  For every pair
        sum_F mu_tilde_1(y)[F] R_x(F) - (mu_tilde_1(x) o y' glued at a)
    is accumulated into one int dict and must vanish."""
    _check_arities(m, n, t)
    if not delta1_dim(n, t) or not delta1_dim(m, n):
        return True
    mys = [mu_tilde_1_column(m, n, s) for s in range(delta1_dim(m, n))]
    fb, fs = hom_basis(m, n), sorted(set().union(*mys))
    ys = [_delta1_indices(m, n, a) for a in range(1, m + 1)]   # ys[a-1][y'] = y
    ups = [_delta1_indices(m, t, a) for a in range(1, m + 1)]  # glue at a into delta1(m, t)
    for b in range(1, n + 1):
        terms = [(F, _right_term(fb[F], b, t)) for F in fs]
        for s, x in zip(_delta1_indices(n, t, b), hom_basis(n - 1, t)):
            mx = mu_tilde_1(Delta1Elem(n, t, {s: 1}))
            r = {F: term(x) for F, term in terms}
            for i, y in enumerate(hom_basis(m - 1, n)):
                left = _left_composite(mx, y)
                for ya, up in zip(ys, ups):
                    diff = {}
                    for F, c in mys[ya[i]].items():
                        for k, v in r[F].items():
                            diff[k] = diff.get(k, 0) + c * v
                    for j, v in left.items():
                        diff[up[j]] = diff.get(up[j], 0) - v
                    if any(diff.values()):
                        return False
    return True
