"""Independent cross-check against an actual free Lie algebra.

The two-term complex underlying the DG category encodes, for every n,
the adjoint-action complex

    Lie(V)^{(x) n} (x) V  -->  Lie(V)^{(x) n}

computing Lie algebra homology of the free Lie algebra on V with
coefficients in the n-fold adjoint representation.  This module builds
that complex directly over V = Q^d, weight by weight, with a
Lyndon-word basis of each weight component (normalization again via
tensor-algebra embedding and exact solving), and compares the resulting
kernel/cokernel dimensions with the prediction obtained from the
homology cells of the DG category through the Schur correspondence:

    weight-w part of H_eps  =  H_eps(w, n) (x)_{S_w} (Q^d)^{(x) w}.

The grading convention is total weight (a V tensor factor counts 1), so
the degree-one term in weight w carries Lie-part weight w - 1; this is
the convention under which the weight-w piece corresponds to the
homology cell at source arity w.

The two computation paths share no code beyond exact linear algebra,
which is the point.
"""

import functools
import itertools
from math import comb, factorial

from . import dgcat, freelie
from .catlie import HomElem, act_in, hom_dim
from .exactla import Echelon, axpy
from .mudelta import delta1_act_in
from .symrep import _partitions


def _mobius(n):
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def necklace_dim(d, w):
    """Dimension of the weight-w part of the free Lie algebra on d letters."""
    total = 0
    for k in range(1, w + 1):
        if w % k == 0:
            total += _mobius(k) * d ** (w // k)
    return total // w


def is_lyndon(word):
    return all(word < word[i:] for i in range(1, len(word)))


def lyndon_words(d, w):
    """Lyndon words of length w over 1..d, lexicographically ordered."""
    out = []
    word = [0]
    while word:
        word[-1] += 1
        if len(word) == w:
            out.append(tuple(word))
        m = len(word)
        while len(word) < w:
            word.append(word[len(word) - m])
        while word and word[-1] == d:
            word.pop()
    return out


def lyndon_bracketing(word):
    """Standard bracketing: split at the longest proper Lyndon suffix."""
    if len(word) == 1:
        return word[0]
    for i in range(1, len(word)):
        if is_lyndon(word[i:]):
            return (lyndon_bracketing(word[:i]), lyndon_bracketing(word[i:]))
    raise AssertionError("unreachable: every word of length >= 2 has a Lyndon suffix")


def _word_col(word, d):
    i = 0
    for c in word:
        i = i * d + (c - 1)
    return i


@functools.cache
def weight_basis(d, w):
    """(trees, solver) for the weight-w component of the free Lie algebra.

    The solver is an exact echelon of the basis expansions in the
    d^w-dimensional word space; `solver.solve` converts any expansion
    back into Lyndon-basis coordinates.
    """
    trees = tuple(lyndon_bracketing(word) for word in lyndon_words(d, w))
    solver = Echelon(track=True)
    for t in trees:
        vec = {_word_col(word, d): c for word, c in freelie.expand(t).items()}
        if not solver.add(vec):
            raise AssertionError("Lyndon basis expansions must be independent")
    return trees, solver


@functools.cache
def _bracket_coords(d, w, tree, letter):
    """Coordinates of [tree, letter] in the weight-(w+1) Lyndon basis."""
    _, solver = weight_basis(d, w + 1)
    vec = {_word_col(word, d): c
           for word, c in freelie.expand((tree, letter)).items()}
    coords = solver.solve(vec)
    if coords is None:
        raise AssertionError("bracket escaped the Lyndon span")
    return coords


def compositions(total, parts):
    """Ordered compositions of `total` into `parts` strictly positive parts."""
    if parts == 0:
        return [()] if total == 0 else []
    out = []
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def weighted_complex_homology(d, n, w):
    """(dim H0, dim H1) of the weight-w part of the adjoint-action complex.

    Degree 0 is the weight-w part of Lie(V)^{(x) n}; degree 1 is the
    weight-(w-1) part tensored with V.  The differential brackets the V
    factor onto each tensor slot in turn.
    """
    if d < 1 or w < 1:
        raise ValueError("need d >= 1 and w >= 1")
    dims = {u: necklace_dim(d, u) for u in range(1, w + 1)}

    c0_index = {}
    for comp in compositions(w, n):
        for idxs in itertools.product(*(range(dims[u]) for u in comp)):
            c0_index[(comp, idxs)] = len(c0_index)

    rank_ech = Echelon()
    c1_dim = 0
    for comp in compositions(w - 1, n):
        for idxs in itertools.product(*(range(dims[u]) for u in comp)):
            for letter in range(1, d + 1):
                c1_dim += 1
                col = {}
                for slot in range(n):
                    u = comp[slot]
                    tree = weight_basis(d, u)[0][idxs[slot]]
                    target_comp = comp[:slot] + (u + 1,) + comp[slot + 1:]
                    coords = _bracket_coords(d, u, tree, letter)
                    axpy(col, {c0_index[(target_comp, idxs[:slot] + (b,) + idxs[slot + 1:])]: c
                               for b, c in coords.items()})
                rank_ech.add(col)
    rank = rank_ech.rank
    return len(c0_index) - rank, c1_dim - rank


class SwModule:
    """A right S_w-module given by its dimension and action matrices.

    `act(tau)` returns the matrix of the right action of the permutation
    tau as a list of sparse rows (row r = image of the r-th basis
    vector); results are cached per permutation.
    """

    def __init__(self, w, dim, act_fn):
        self.w = w
        self.dim = dim
        self._act_fn = act_fn
        self._cache = {}

    def act(self, tau):
        tau = tuple(tau)
        if tau not in self._cache:
            self._cache[tau] = self._act_fn(tau)
        return self._cache[tau]


@functools.cache
def h_modules(w, n):
    """The homology cells H0(w, n), H1(w, n) as right S_w-modules via act_in.

    Cached, so the action matrices each module caches are built once per
    (w, n) and shared by every d of `cross_check`.
    """
    cell = dgcat.homology_cell(w, n)

    reps = [i for i in range(hom_dim(w, n)) if i not in cell.boundaries.pivot_cols]
    rep_pos = {i: r for r, i in enumerate(reps)}

    def act0(tau):
        rows = []
        for i in reps:
            v = cell.boundaries.reduce(act_in(HomElem(w, n, {i: 1}), tau).coords)
            rows.append({rep_pos[j]: c for j, c in v.items()})
        return rows

    ker_solver = Echelon(track=True)
    for z in cell.kernel:
        if not ker_solver.add(z.coords):
            raise AssertionError("kernel basis must be independent")

    def act1(tau):
        rows = []
        for z in cell.kernel:
            coords = ker_solver.solve(delta1_act_in(z, tau).coords)
            if coords is None:
                raise AssertionError("kernel is not S_w-stable; broken equivariance")
            rows.append(coords)
        return rows

    return (SwModule(w, len(reps), act0),
            SwModule(w, len(cell.kernel), act1))


def _young_coinvariant_dim(module, parts):
    """dim M_{S_lambda}: dim M minus the rank of {m tau - m} over the
    adjacent transpositions tau inside the consecutive blocks of `parts`."""
    w, dim = module.w, module.dim
    ech = Echelon()
    start = 0
    for size in parts:
        for pos in range(start, start + size - 1):
            tau = list(range(1, w + 1))
            tau[pos], tau[pos + 1] = tau[pos + 1], tau[pos]
            mat = module.act(tau)
            for r in range(dim):
                ech.add(axpy(dict(mat[r]), {r: 1}, -1))
        start += size
    return dim - ech.rank


def schur_dim(module, d):
    """dim(M (x)_{S_w} (Q^d)^{(x) w}), the coinvariants of the diagonal action.

    The balancing relations never mix distinct S_w-orbits of the word
    basis of V^{(x) w}, and the orbit of a word with stabilizer H
    contributes dim M_H = dim M - rank{m h - m}.  The stabilizer of a
    sorted word whose letters occur alpha_1, ..., alpha_k times is the
    Young subgroup S_alpha of its consecutive blocks.  Rearranging alpha
    gives a conjugate subgroup g S_alpha g^-1, and m -> m g maps the
    relations of one onto those of the other, so dim M_H depends only on
    the partition lambda of w that sorts alpha.  Counting the sorted
    words of each content type,

        schur_dim(M, d) = sum over lambda |- w with k = l(lambda) <= d of
                          C(d, k) * k! / prod_v m_v(lambda)! * dim M_{S_lambda},

    where m_v(lambda) is the number of parts equal to v: C(d, k) picks
    the k letters and k! / prod_v m_v! the distinct ways to give them
    the parts of lambda.  Each dim M_{S_lambda} is computed exactly, as
    dim M minus the rank of {m tau - m} over the adjacent
    transpositions tau inside the blocks of lambda.  The partitions come
    from `symrep._partitions`, which also indexes the S_n blocks of the
    homology cells.
    """
    total = 0
    for parts in _partitions(module.w):
        k = len(parts)
        if k > d:
            continue
        words = comb(d, k) * factorial(k)
        for v in set(parts):
            words //= factorial(parts.count(v))
        total += words * _young_coinvariant_dim(module, parts)
    return total


def cross_check(d, n, w):
    """Both computation paths agree on (dim H0, dim H1) at (d, n, w)."""
    direct = weighted_complex_homology(d, n, w)
    m0, m1 = h_modules(w, n)
    predicted = (schur_dim(m0, d), schur_dim(m1, d))
    return direct == predicted
