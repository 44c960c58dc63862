"""The Q-linear PROP built from the Lie operad.

Hom(m, n) has basis indexed by pairs (surjection f: [m] ->> [n], one
left-normed basis monomial of Lie(f^{-1}(i)) per output i).  Its
dimension is sum_f prod_i (|f^{-1}(i)| - 1)!, which equals
n! * c(m, n) with c the unsigned Stirling number of the first kind;
Hom(m, n) = 0 for n > m and for n = 0 < m, while Hom(n, n) is the group
algebra of S_n and Hom(0, 0) is Q on the empty morphism.

The basis order is fixed once: surjections in lexicographic order of
the value list (f(1), ..., f(m)), then tree indices in product
lexicographic order.  Composition grafts trees and renormalizes through
`freelie`, so every element stays in canonical coordinates and equality
is coordinate equality; `act_in` does neither (its docstring).

Symmetric groups act on the outputs by post-composition: S_n on all of
them in the homology cells, S_t on the last t in the Chevalley-Eilenberg
terms.  `first_occurrence` is the one orbit rule, and `orbit_fold(m, n,
lo)` the one fold of a whole basis onto its representatives, for both.
`orbit_offsets` and `_orbit_position` number the S_n representatives with
no basis table, for `dgcat._block_matrix`.
"""

import functools
import itertools
from math import factorial, prod
from typing import NamedTuple

from . import freelie
from .exactla import SparseElem, axpy, combine


class BasisMorphism(NamedTuple):
    m: int
    n: int
    f: tuple    # f[i-1] = output of input i (values 1..n)
    trees: tuple  # trees[j-1] = index into lie_basis(fiber over output j)


@functools.cache
def surjections(m, n):
    """All surjective value lists [m] ->> [n], lexicographically ordered: the
    prefixes grow one value at a time, each with the mask of the outputs it
    covers, and a prefix that can no longer cover all n outputs is dropped;
    the lists whose mask covers every output are kept (none for m = 0 < n)."""
    if n < 0:
        return ()
    masks = {(): 0}
    for pos in range(m - 1, -1, -1):    # pos values left to place after this one
        masks = {f + (v,): cover for f, mask in masks.items() for v in range(1, n + 1)
                 if n - (cover := mask | 1 << (v - 1)).bit_count() <= pos}
    full = (1 << n) - 1
    return tuple(f for f, mask in masks.items() if mask == full)


def fibers(f, n):
    """Sorted fibers of a surjection value list, indexed by output."""
    out = [[] for _ in range(n)]
    for i, v in enumerate(f):
        out[v - 1].append(i + 1)
    return tuple(tuple(fib) for fib in out)


@functools.cache
def hom_dim(m, n):
    """dim Hom(m, n) = n! * c(m, n) (module docstring); 0 for n < 0."""
    if n < 0:
        return 0
    return factorial(n) * stirling_cycle(m, n)


def stirling_cycle(m, n):
    """Unsigned Stirling number of the first kind c(m, n)."""
    if n > m or n < 0:
        return 0
    row = [1] + [0] * n
    for i in range(1, m + 1):
        new = [0] * (n + 1)
        for j in range(min(i, n) + 1):
            new[j] = (row[j - 1] if j else 0) + (i - 1) * row[j]
        row = new
    return row[n]


def tree_tuples(f, n):
    """The tree indices of the basis morphisms on the value list f, in basis order."""
    return itertools.product(*[range(freelie.lie_dim(f.count(v))) for v in range(1, n + 1)])


@functools.cache
def hom_basis(m, n):
    """The basis morphisms of Hom(m, n) in basis order; the tree tuples are
    listed once per fiber-size signature and shared by its value lists."""
    make, tuples = BasisMorphism._make, {}
    out = []
    for f in surjections(m, n):
        sizes = tuple(map(f.count, range(1, n + 1)))
        if sizes not in tuples:
            tuples[sizes] = tuple(tree_tuples(f, n))
        out += [make((m, n, f, trees)) for trees in tuples[sizes]]
    return tuple(out)


@functools.cache
def orbit_offsets(m, n):
    """{f: (offset, strides)} over the value lists f of the S_n-orbit
    representatives of Hom(m, n), in lexicographic order, built with no
    basis table.  Each new output of f is the next one, so the outputs first
    occur in increasing order and `first_occurrence` fixes (f, trees) for
    every trees.  Listed in basis order, the representative (f, trees) is
    number offset + sum_k trees[k] * strides[k]."""
    lists = [()]
    for _ in range(m):
        lists = [f + (v,) for f in lists for v in range(1, min(max(f, default=0) + 1, n) + 1)]
    out, offset = {}, 0
    for f in lists:
        if max(f, default=0) == n:
            sizes = [freelie.lie_dim(f.count(v)) for v in range(1, n + 1)]
            out[f] = (offset, tuple(prod(sizes[k + 1:]) for k in range(n)))
            offset += prod(sizes)
    return out


def _orbit_position(m, n, f):
    """(sigma, offset, weights) for the value list f of Hom(m, n): every basis
    element (f, trees) is sigma . rep, rep the representative number
    offset + sum_p trees[p] * weights[p] of `orbit_offsets`.  One
    `first_occurrence` on a probe whose trees are the output positions gives
    sigma, the representative's value list and where each tree goes."""
    sigma, probe = first_occurrence(BasisMorphism(m, n, f, tuple(range(n))), 0, n)
    offset, strides = orbit_offsets(m, n)[probe.f]
    # the tree of output p+1 is at output k+1 of the rep, k = probe.trees.index(p)
    return sigma, offset, [strides[probe.trees.index(p)] for p in range(n)]


@functools.cache
def orbit_fold(m, n, lo=0):
    """(fold, reps) for the orbits of Hom(m, n) under post-composition with the
    permutations of the outputs lo+1..n: reps lists the representatives as
    basis morphisms, in basis order, and fold[i] = (order, k) says that basis
    element i is order . reps[k] (`first_occurrence`).  The one fold for S_n
    (lo = 0, whose reps are those of `orbit_offsets`, in its order) and for
    the S_t of `cecomplex` on the last t outputs (lo = n - t).  The rule runs
    once per value list, on a probe whose trees are the output positions: an
    element on the probe's value list is its own representative, and any
    other reads the number of its representative, listed before it, through
    `hom_index`."""
    index, positions = hom_index(m, n), tuple(range(n))
    fold, reps, f = [], [], None
    for bm in hom_basis(m, n):
        if bm.f != f:           # hom_basis lists each value list's elements together
            f = bm.f
            order, probe = first_occurrence(BasisMorphism(m, n, f, positions), lo, n)
        if probe.f == f:
            fold.append((order, len(reps)))
            reps.append(bm)
        else:                   # the tree at output k of the rep is bm's at probe.trees[k]
            rep = BasisMorphism(m, n, probe.f, tuple(map(bm.trees.__getitem__, probe.trees)))
            fold.append((order, fold[index[rep]][1]))
    return tuple(fold), tuple(reps)


@functools.cache
def hom_index(m, n):
    return {bm: i for i, bm in enumerate(hom_basis(m, n))}


class HomElem(SparseElem):
    """Element of Hom(m, n): sparse rational coordinates over hom_basis(m, n)."""

    __slots__ = ("m", "n")

    def __init__(self, m, n, coords=None):
        self.m = m
        self.n = n
        super().__init__(coords)

    def cell(self):
        return (self.m, self.n)

    def dim(self):
        return hom_dim(self.m, self.n)

    @classmethod
    def from_basis(cls, bm, coeff=1):
        idx = hom_index(bm.m, bm.n)[bm]
        return cls(bm.m, bm.n, {idx: coeff})

    def terms(self):
        basis = hom_basis(self.m, self.n)
        return [(c, basis[i]) for i, c in sorted(self.coords.items())]


@functools.cache
def basis_trees(bm):
    """The basis trees of a basis morphism, one per output."""
    return tuple(freelie.lie_basis(fib)[t] for fib, t in zip(fibers(bm.f, bm.n), bm.trees))


@functools.cache
def _tree_terms(tree):
    """(leaves, sorted coordinate items) of one output tree; cached here, so
    it reads the uncached `freelie.normalize_tree` and each tree is held once."""
    return freelie.leaves(tree), tuple(sorted(freelie.normalize_tree.__wrapped__(tree).items()))


def emit(trees, index):
    """Coordinates of the morphism with one (possibly non-basis) tree per output.

    Input i goes to the output whose tree holds the leaf i, so the
    source arity is the leaf count.  Each tree is normalized and the
    products of the coordinates are looked up in `index` (a dict from
    basis morphism to coordinate index: `hom_index`, or a sub-basis
    index such as `mudelta.delta1_basis(m, n)[2]`).
    """
    n = len(trees)
    per_output = []
    f = {}
    for j, tree in enumerate(trees, start=1):
        leaves, items = _tree_terms(tree)
        for leaf in leaves:
            f[leaf] = j
        per_output.append(items)
    return _product(n, tuple(f[i] for i in range(1, len(f) + 1)), per_output, index)


def _product(n, f, per_output, index):
    """Coordinates on the value list f of one (tree index, coeff) sum per output."""
    stack = [((), 1)]
    for items in per_output:
        stack = [(ts + (idx,), c * v) for ts, c in stack for idx, v in items]
    # distinct tree tuples are distinct basis morphisms: nothing to accumulate
    return {index[BasisMorphism(len(f), n, f, ts)]: c for ts, c in stack}


@functools.cache
def compose_basis(g, f):
    """Coordinates of g o f for basis morphisms (f first, then g); cached."""
    if f.n != g.m:
        raise ValueError("inner arities differ")
    sub = dict(enumerate(basis_trees(f), start=1))
    return emit(tuple(freelie.graft(t, sub) for t in basis_trees(g)), hom_index(f.m, g.n))


def compose(g, f):
    """Composite g o f in Hom(f.m, g.n); bilinear over basis morphisms."""
    if f.n != g.m:
        raise ValueError("inner arities differ: %d vs %d" % (g.m, f.n))
    g_basis = hom_basis(g.m, g.n)
    f_basis = hom_basis(f.m, f.n)
    out = {}
    for gi, gc in g.coords.items():
        G = g_basis[gi]
        for fi, fc in f.coords.items():
            axpy(out, compose_basis(G, f_basis[fi]), gc * fc)
    return HomElem(f.m, g.n, out)


def _check_arities(*arities):
    if min(arities) < 0:
        raise ValueError("arities must be >= 0")


def identity(n):
    _check_arities(n)
    bm = BasisMorphism(n, n, tuple(range(1, n + 1)), (0,) * n)
    return HomElem.from_basis(bm)


def boxplus(f, g):
    """Monoidal sum: disjoint union of surjections with offset relabeling."""
    out = {}
    f_basis = hom_basis(f.m, f.n)
    g_basis = hom_basis(g.m, g.n)
    index = hom_index(f.m + g.m, f.n + g.n)
    for fi, fc in f.coords.items():
        F = f_basis[fi]
        for gi, gc in g.coords.items():
            G = g_basis[gi]
            # shifted fibers are order-isomorphic, so tree indices carry over;
            # distinct pairs give distinct basis morphisms
            bm = BasisMorphism(f.m + g.m, f.n + g.n,
                               F.f + tuple(v + f.n for v in G.f),
                               F.trees + G.trees)
            out[index[bm]] = fc * gc
    return HomElem(f.m + g.m, f.n + g.n, out)


def perm_hom(sigma):
    """The bijection i -> sigma[i-1] as an element of Hom(n, n)."""
    n = len(sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError("not a permutation of 1..%d" % n)
    return HomElem.from_basis(BasisMorphism(n, n, tuple(sigma), (0,) * n))


def act_out(sigma, f):
    """Left action of S_n on Hom(m, n): post-compose with the bijection."""
    if len(sigma) != f.n:
        raise ValueError("permutation size differs from target arity")
    return compose(perm_hom(sigma), f)


def as_perm(tau, m):
    """tau as a tuple; ValueError unless it permutes the m inputs 1..m."""
    tau = tuple(tau)
    if len(tau) != m:
        raise ValueError("permutation size differs from source arity")
    if sorted(tau) != list(range(1, m + 1)):
        raise ValueError("not a permutation of 1..%d" % m)
    return tau


def first_occurrence(bm, lo, hi):
    """(order, rep) with bm = order . rep for the post-composition action of
    the permutations of the outputs lo+1..hi: order lists them by their first
    occurrence in f, and rep renames order[k] to lo+1+k, moving its tree along.
    rep is the orbit representative: its order is lo+1, ..., hi."""
    order = tuple(v for v in dict.fromkeys(bm.f) if lo < v <= hi)
    if order == tuple(range(lo + 1, lo + 1 + len(order))):     # bm is its own rep
        return order, bm
    relabel = {v: k for k, v in enumerate(order, start=lo + 1)}
    rep = BasisMorphism(bm.m, bm.n, tuple(map(relabel.get, bm.f, bm.f)),
                        bm.trees[:lo] + tuple(bm.trees[v - 1] for v in order) + bm.trees[hi:])
    return order, rep


def act_in(f, tau):
    """Right action of S_m on Hom(m, n): compose(f, perm_hom(tau)) in closed
    form.  The value list becomes f o tau and each comb word is relabelled
    by tau^{-1} and read in the comb basis by `freelie.comb_coords`.
    """
    tau = as_perm(tau, f.m)
    basis = hom_basis(f.m, f.n)
    return HomElem(f.m, f.n, combine(f.coords, lambda i: _act_in_basis(basis[i], tau)))


@functools.cache
def _act_in_basis(bm, tau):
    inv = {t: i for i, t in enumerate(tau, start=1)}
    per_output = [freelie.comb_coords(tuple(inv[x] for x in freelie.leaves(tree)))
                  for tree in basis_trees(bm)]
    return _product(bm.n, tuple(bm.f[t - 1] for t in tau), per_output, hom_index(bm.m, bm.n))
