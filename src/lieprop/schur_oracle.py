"""Independent cross-check against an actual free Lie algebra.

The two-term complex underlying the DG category encodes, for every n,
the adjoint-action complex

    Lie(V)^{(x) n} (x) V  -->  Lie(V)^{(x) n}

computing Lie algebra homology of the free Lie algebra on V with
coefficients in the n-fold adjoint representation.  This module builds
that complex directly over V = Q^d, weight by weight, with a
Lyndon-word basis of each weight component, and compares the resulting
kernel/cokernel dimensions with the prediction obtained from the
homology cells of the DG category through the Schur correspondence,
whose right-hand side `schur_dim` reads off the S_w-character of a cell:

    weight-w part of H_eps  =  H_eps(w, n) (x)_{S_w} (Q^d)^{(x) w}.

The grading convention is total weight (a V tensor factor counts 1), so
the degree-one term in weight w carries Lie-part weight w - 1; this is
the convention under which the weight-w piece corresponds to the
homology cell at source arity w.

A bracket is put into Lyndon coordinates in the tensor algebra, by a
triangular peel: the standard bracketing of a Lyndon word u expands to
u plus larger words, with coefficient 1 on u, so the least word of any
Lie element is Lyndon, and subtracting its coefficient times its
bracketing's expansion leaves only larger words.  The coordinates are
ints, with no elimination.

The two computation paths share no code beyond exact linear algebra,
which is the point.
"""

import functools
import itertools
from fractions import Fraction
from math import factorial, lcm, prod

from . import dgcat, freelie
from .catlie import HomElem, act_in, hom_dim
from .exactla import Echelon, axpy, combine
from .mudelta import delta1_act_in_columns
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
    if w < 1:
        raise ValueError("need w >= 1, got %r" % (w,))
    total = 0
    for k in range(1, w + 1):
        if w % k == 0:
            total += _mobius(k) * d ** (w // k)
    return total // w


def is_lyndon(word):
    return all(word < word[i:] for i in range(1, len(word)))


def lyndon_words(d, w):
    """Lyndon words of length w over 1..d, lexicographically ordered; none for d < 1."""
    out, word = [], [0] if d > 0 else []
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


@functools.cache
def weight_basis(d, w):
    """(trees, lead) for the weight-w component of the free Lie algebra.

    trees are the standard bracketings of the Lyndon words of length w,
    in lexicographic order.  lead maps each Lyndon word u, the leading
    word of its tree, to (b, expansion): the tree's position b in trees
    and its tensor expansion {word: int}.  The bracketing of u expands
    to u, with coefficient 1, plus larger words (Lothaire, Combinatorics
    on Words, ch. 5; Reutenauer, Free Lie Algebras, ch. 5); this is
    asserted, and the distinct leading words make the expansions
    independent.  Cached and shared, so both are read-only.
    """
    trees, lead = [], {}
    for b, word in enumerate(lyndon_words(d, w)):
        tree = lyndon_bracketing(word)
        expansion = freelie.expand(tree)
        if min(expansion) != word or expansion[word] != 1:
            raise AssertionError("the bracketing of %r does not lead with it" % (word,))
        trees.append(tree)
        lead[word] = (b, expansion)
    return tuple(trees), lead


@functools.cache
def _bracket_coords(d, w, tree, letter):
    """Int coordinates {b: c} of [tree, letter] in the weight-(w+1) Lyndon basis.

    tree must be one of weight_basis(d, w) (else ValueError).  [T, a] is
    expanded as T.a - a.T from T's cached expansion, with no
    `freelie.expand`, and its coordinates are peeled off by `_peel`.
    """
    trees, lead = weight_basis(d, w)
    b, expansion = lead.get(freelie.leaves(tree), (None, None))
    if b is None or trees[b] != tree:
        raise ValueError("not a Lyndon basis tree of weight %d over %d letters: %r"
                         % (w, d, tree))
    rest = {word + (letter,): c for word, c in expansion.items()}
    axpy(rest, {(letter,) + word: c for word, c in expansion.items()}, -1)
    return _peel(rest, weight_basis(d, w + 1)[1])


def _peel(rest, lead):
    """Lyndon coordinates {b: c} of the word vector `rest` (an int dict the
    caller owns; it is consumed), with `lead` from weight_basis.

    The least word left must be Lyndon; its coefficient is its
    coordinate, and subtracting that multiple of its tree's expansion
    leaves only larger words.  Repeat until nothing is left.  A least
    word that is not Lyndon means the vector is outside the Lie span,
    which raises AssertionError.
    """
    coords = {}
    while rest:
        word = min(rest)
        if word not in lead:
            raise AssertionError("bracket escaped the Lyndon span")
        b, expansion = lead[word]
        c = coords[b] = rest[word]
        axpy(rest, expansion, -c)
    return coords


def compositions(total, parts):
    """Ordered compositions of `total` into `parts` strictly positive parts."""
    if parts < 0:
        raise ValueError("need parts >= 0, got %r" % (parts,))
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
    tau of 1..w (ValueError for anything else) as sparse rows (row r =
    image of basis vector r), cached per tau.  `character` reads only the
    adjacent transpositions s_i = (i, i+1).  Built once, it maps each
    cycle type rho |- w to the int chi_M(rho), the trace of the word with
    consecutive cycles ((3, 2, 1) is s1 s2 s4), pushing each row e_r once
    through all words in ints: a word extends its prefix, again a class
    word (s1 ... s5 of (6) extends (5, 1), ..., (2, 1^4)).
    """

    def __init__(self, w, dim, act_fn):
        self.w = w
        self.dim = dim
        self._act_fn = act_fn
        self._cache = {}

    def act(self, tau):
        tau = tuple(tau)
        if tau not in self._cache:
            if sorted(tau) != list(range(1, self.w + 1)):
                raise ValueError("not a permutation of 1..%d: %r" % (self.w, tau))
            self._cache[tau] = self._act_fn(tau)
        return self._cache[tau]

    @functools.cached_property
    def character(self):
        mats = {i: self.act((*range(1, i), i + 1, i, *range(i + 2, self.w + 1)))
                for i in range(1, self.w)}
        den = lcm(*(v.denominator for mat in mats.values() for row in mat for v in row.values()))
        gens = {i: [{j: int(v * den) for j, v in row.items()} for row in mat]
                for i, mat in mats.items()}
        words = {}
        for rho in _partitions(self.w):
            starts = itertools.accumulate(rho, initial=1)
            words[tuple(i for a, size in zip(starts, rho) for i in range(a, a + size - 1))] = rho
        traces = dict.fromkeys(words, 0)
        for r in range(self.dim):
            pushed = {(): {r: 1}}
            for word in sorted(words):  # every prefix before its extensions
                if word:
                    pushed[word] = combine(pushed[word[:-1]], gens[word[-1]].__getitem__)
                traces[word] += pushed[word].get(r, 0)
        chi = {words[word]: Fraction(t, den ** len(word)) for word, t in traces.items()}
        if any(c.denominator != 1 for c in chi.values()):
            raise AssertionError("character values must be integers: %s" % chi)
        return {rho: int(c) for rho, c in chi.items()}


@functools.cache
def h_modules(w, n):
    """The homology cells H0(w, n), H1(w, n) as right S_w-modules via act_in.

    H1 acts through the delta1 cut: per tau, the columns of every index in the union
    of the kernel supports, read block by block by `mudelta.delta1_act_in_columns`
    (one act_in matrix of Hom(w-1, n) per tau' != 1, none for the relabelling blocks),
    every v_r pushed through them in one int loop.
    Its rows are read off the kernel basis: `exactla.kernel` gives each v_r
    a free column f_r = max(v_r), zero on every other v_s, so c_r =
    z[f_r] / v_r[f_r], checked as L z == sum (L c_r) v_r in ints, L = lcm v_r[f_r],
    by subtracting each (L c_r) v_r from L z in the same inline loop that formed z.
    An entry c_r is an int when it is integral.  Cached, so the action matrices and the character each module caches
    are built once per (w, n) and shared by every d of `cross_check`.
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

    kernel = [z.coords for z in cell.kernel]
    free = {max(v): r for r, v in enumerate(kernel)}
    support = set().union(*kernel)

    def act1(tau):
        rows, cols = [], delta1_act_in_columns(w, n, tau, support)
        for z in kernel:
            image = {}
            for s, c in z.items():
                for j, x in cols[s].items():
                    image[j] = image.get(j, 0) + c * x
            coords = {free[j]: (x, kernel[free[j]][j]) for j, x in image.items() if x and j in free}
            den = lcm(*(v for _, v in coords.values()))
            residue = image if den == 1 else {j: den * x for j, x in image.items()}
            for r, (x, v) in coords.items():
                c = den // v * x
                for j, y in kernel[r].items():
                    residue[j] = residue.get(j, 0) - c * y
            if any(residue.values()):
                raise AssertionError("kernel is not S_w-stable; broken equivariance")
            rows.append({r: Fraction(x, v) if x % v else x // v for r, (x, v) in coords.items()})
        return rows

    return (SwModule(w, len(reps), act0),
            SwModule(w, len(cell.kernel), act1))


def schur_dim(module, d):
    """dim(M (x)_{S_w} (Q^d)^{(x) w}): the inner product of chi_M with the
    permutation character of (Q^d)^{(x) w}, where a permutation of cycle
    type rho fixes d^{l(rho)} words and its class has w! / z_rho elements:

        schur_dim(M, d) = sum over rho |- w of chi_M(rho) d^{l(rho)} / z_rho

    (Macdonald, Symmetric Functions and Hall Polynomials, I.7; Fulton and
    Harris, Representation Theory, 4.3, Schur-Weyl duality), taken in
    Fractions; it must be a non-negative integer.  d < 0 raises ValueError.
    """
    if d < 0:
        raise ValueError("need d >= 0, got %r" % (d,))
    total = Fraction(0)
    for rho, chi in module.character.items():
        z = prod(k ** rho.count(k) * factorial(rho.count(k)) for k in set(rho))
        total += Fraction(chi * d ** len(rho), z)
    if total.denominator != 1 or total < 0:
        raise AssertionError("character inner product %s is not a dimension" % total)
    return int(total)


def cross_check(d, n, w):
    """Both computation paths agree on (dim H0, dim H1) at (d, n, w)."""
    direct = weighted_complex_homology(d, n, w)
    m0, m1 = h_modules(w, n)
    predicted = (schur_dim(m0, d), schur_dim(m1, d))
    return direct == predicted
