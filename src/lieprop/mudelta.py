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
Hom(m-1, n); (g boxplus 1) o y is g o y' glued back, one g o y' for all m
positions of a; x o F is x' o F' with F's fiber over x's lone input glued back.
The right action of tau in S_m is cut too: y o tau is y' o tau' with a glued back
at a' = tau^{-1}(a), tau' = tau: [m] - {a'} -> [m] - {a} relabelled in order; for
adjacent tau, tau' is adjacent or 1, so one image in Hom(m-1, n) serves many a.

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

Distinct (j, comb) pairs are distinct basis morphisms of Hom(m, n), so
each column is read off with no accumulation.  The columns are cached
per delta1 basis element.  `cecomplex.ce_to_dgcat` certifies the closed
form against the definition (its `mu_compat`).

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
Centrality goes through the output cut: each term of phi o mu(n) or of
mu(t) o (phi boxplus 1) changes one output of phi and the input n+1, so both
sides are glued from composites on Hom(k+1, 1), one pair per (fiber size k, tree).
"""

import functools

from . import freelie
from .catlie import (BasisMorphism, HomElem, _act_in_basis, _check_arities, as_perm,
                     basis_trees, boxplus, compose, compose_basis, emit, hom_basis, hom_dim,
                     hom_index, identity, perm_hom)
from .exactla import SparseElem, axpy, combine
from .freelie import bracket_leaf


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


@functools.cache
def mu_tilde_1_column(m, n, s):
    """Coordinates of mu_tilde_1 of the delta1(m, n) basis element s, in
    closed form (module docstring).  Cached and shared between callers:
    the dict is read-only."""
    bm = delta1_basis(m, n)[1][s]
    trees = basis_trees(bm)
    a = bm.f.index(n + 1) + 1
    index = hom_index(m, n)
    out = {}
    for j in range(n):
        word = freelie.leaves(trees[j])
        positions = freelie.comb_index(sorted(word + (a,)))
        f = bm.f[:a - 1] + (j + 1,) + bm.f[a:]
        for c, w in bracket_leaf(word, a):
            ts = bm.trees[:j] + (positions[w[1:]],) + bm.trees[j + 1:n]
            out[index[BasisMorphism(m, n, f, ts)]] = c
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


def _act_left(g, z):
    """Coordinates of (g boxplus 1) o y: g o y' with a glued back (module docstring)."""
    zb, back, gb = delta1_basis(z.m, z.n)[1], _delta1_position(z.m, g.n), hom_basis(g.m, g.n)
    out = {}
    for s, c in z.coords.items():
        fib, tree, y = _cut(zb[s], z.n + 1)
        up = _glue(z.m, g.n, fib, tree)
        for i, gc in g.coords.items():
            axpy(out, {back[up[j]]: v for j, v in compose_basis(gb[i], y).items()}, c * gc)
    return out


def _act_right(z, f):
    """Coordinates of pi(x o F): x' o F' with F's fiber over the lone input b of x glued back."""
    zb, fb, t, out = delta1_basis(z.m, z.n)[1], hom_basis(f.m, f.n), z.n, {}
    for s, c in z.coords.items():
        (b,), _, x = _cut(zb[s], t + 1)
        for i, fc in f.coords.items():
            fib, tree, F = _cut(fb[i], b)
            up = _glue(f.m, t, fib, tree)
            for j, v in compose_basis(x, F).items():
                axpy(out, _pi_column(f.m, t, up[j]), c * fc * v)
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


def delta1_act_in_column(m, n, s, tau):
    """delta1_act_in of the basis element s of delta1(m, n), tau a checked tuple:
    y' o tau' in Hom(m-1, n) with the lone input glued back at tau^{-1}(a)."""
    (a,), tree, y = _cut(delta1_basis(m, n)[1][s], n + 1)
    up, back = _glue(m, n, (tau.index(a) + 1,), tree), _delta1_position(m, n)
    image = _act_in_basis(y, tuple(t - (t > a) for t in tau if t != a))
    return {back[up[j]]: c for j, c in image.items()}


def delta1_act_in(z, tau):
    """Right action of S_m on delta1(m, n): act_in on the lift, through the cut."""
    _check_type(z, Delta1Elem)
    m, n, tau = z.m, z.n, as_perm(tau, z.m)
    return Delta1Elem(m, n, combine(z.coords, lambda s: delta1_act_in_column(m, n, s, tau)))


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
    """Square zero: x . mu_tilde_1(y) = mu_tilde_1(x) . y for all basis x of
    delta1(n, t) and y of delta1(m, n), one matrix identity per cell: with
    R_x(F) = `_act_right` of x on each basis F of Hom(m, n) and L_y(G) =
    `_act_left` of each basis G of Hom(n, t) on y built once, for every pair
        sum_F mu_tilde(y)[F] R_x(F) == sum_G mu_tilde(x)[G] L_y(G)  exactly."""
    _check_arities(m, n, t)
    if not delta1_dim(n, t) or not delta1_dim(m, n):
        return True
    xs = [Delta1Elem(n, t, {s: 1}) for s in range(delta1_dim(n, t))]
    ys = [Delta1Elem(m, n, {s: 1}) for s in range(delta1_dim(m, n))]
    mxs = [mu_tilde(include_delta1(x)).coords for x in xs]
    mys = [mu_tilde(include_delta1(y)).coords for y in ys]
    fs = [(F, HomElem(m, n, {F: 1})) for F in sorted(set().union(*mys))]
    gs = [(G, HomElem(n, t, {G: 1})) for G in sorted(set().union(*mxs))]
    rs = [{F: _act_right(x, f) for F, f in fs} for x in xs]
    ls = [{G: _act_left(g, y) for G, g in gs} for y in ys]
    return all(combine(my, r.__getitem__) == combine(mx, l.__getitem__)
               for mx, r in zip(mxs, rs) for my, l in zip(mys, ls))
