"""Multilinear free Lie algebra on a finite label set.

Lie(S) is spanned by bracket expressions using each label of S exactly
once, modulo antisymmetry and the Jacobi identity; its dimension is
(|S|-1)!.  The basis used everywhere is the left-normed family

    [[...[[a1, s2], s3], ...], sk]        a1 = min(S),

one monomial per ordering (s2, ..., sk) of S \\ {a1}, listed in
lexicographic order of that tuple.

Normalization is the comb rule, with no tensor word formed.  A comb
comb(u) = [[...[u_1, u_2], ...], u_r] is, in the tensor algebra, the
sum over I of {2..r} of (-1)^|I| (u_I reversed) u_1 u_{I^c}
([X, s] = Xs - sX).  The right action of the tensor algebra on Lie(S),
x_1...x_s: L -> [...[L, x_1], ..., x_s], sends a Lie element P to
[-, P] (Reutenauer, *Free Lie Algebras*, ch. 1), so [comb(w), comb(u)]
is the same signed sum of the combs comb(w (u_I reversed) u_1 u_{I^c}).
`normalize_tree` writes a tree as signed comb words bracket by bracket,
the side with fewer leaves on the right ([X, Y] = -[Y, X]), and reads
each word by `comb_coords`.  `expand`, the tensor expansion, serves only
the direct side of `schur_oracle` and the tests' reference for the rule.

`bracket_leaf` writes [T, a] for the comb T of a word: one comb if a is
above its head, else the rule for -[a, T].  `comb_coords`, its one
caller, reads the comb of any word of distinct labels in the basis.
That is the one closed form of the comb rule: `catlie.act_in` relabels
comb words and reads them through it, and `bracket_leaf_table` holds
[T, a] once per order pattern for `mudelta` and `dgcat`, read off comb
words with no tree built.

Trees are plain nested structures: a leaf is its label (any orderable,
hashable value; ints in practice) and a bracket is a pair
``(left, right)``.
"""

import functools
import itertools
from math import factorial

from .exactla import SparseElem, axpy, combine


def leaves(tree):
    """Leaf labels of a tree, left to right."""
    if not isinstance(tree, tuple):
        return (tree,)
    return leaves(tree[0]) + leaves(tree[1])


def graft(tree, mapping):
    """Replace every leaf label by mapping[label] (a label or a whole tree)."""
    if not isinstance(tree, tuple):
        return mapping[tree]
    return (graft(tree[0], mapping), graft(tree[1], mapping))


def expand(tree):
    """Tensor-algebra expansion: dict word-tuple -> integer coefficient."""
    if not isinstance(tree, tuple):
        return {(tree,): 1}
    left, right = expand(tree[0]), expand(tree[1])
    out = {}
    for wl, cl in left.items():
        axpy(out, {wl + wr: cr for wr, cr in right.items()}, cl)
        axpy(out, {wr + wl: cr for wr, cr in right.items()}, -cl)
    return out


def lie_dim(k):
    """dim Lie(S) for |S| = k: zero for k = 0, else (k-1)!."""
    if k < 0:
        raise ValueError("arity must be >= 0")
    return 0 if k == 0 else factorial(k - 1)


def lie_basis(labels):
    """The left-normed basis trees of Lie(S), S given as a sorted tuple."""
    return _lie_basis(tuple(labels))


@functools.cache
def _lie_basis(labels):
    if list(labels) != sorted(set(labels)):
        raise ValueError("labels must be a sorted tuple of distinct values")
    out = []
    if labels:
        head, rest = labels[0], labels[1:]
        for perm in itertools.permutations(rest):
            t = head
            for s in perm:
                t = (t, s)
            out.append(t)
    return tuple(out)


def comb_index(labels):
    """{(s2, ..., sk): i} with lie_basis(labels)[i] the comb [[...[a1, s2], ...], sk]."""
    return _perm_index(tuple(labels))


@functools.cache
def _perm_index(labels):
    return {perm: i for i, perm in enumerate(itertools.permutations(labels[1:]))}


@functools.cache
def _comb_expansion(r):
    """comb(u) for any word u of length r in the tensor algebra, as (sign,
    positions) pairs: the words (u_I reversed) u_1 u_{I^c} for I in {2..r},
    with sign (-1)^|I|, as positions into u.  Cached, so read-only."""
    out = []
    for mask in range(1 << (r - 1)):
        inside = tuple(p for p in range(1, r) if mask >> (p - 1) & 1)
        outside = tuple(p for p in range(1, r) if not mask >> (p - 1) & 1)
        out.append((-1 if len(inside) % 2 else 1, inside[::-1] + (0,) + outside))
    return tuple(out)


def bracket_leaf(word, a):
    """[T, a] for the comb T of word = (h, s_2, ..., s_k), as (coefficient,
    comb word) pairs: word + (a,) if h = min(word) < a.  If a is below
    every label, [T, a] = -[a, T] is the comb rule with one term
    -(-1)^|I| comb(a, s_I reversed, h, s_{I^c}) per I of {2..k}, whatever h.
    """
    if a > word[0]:
        return ((1, word + (a,)),)
    return [(-s, (a,) + tuple(map(word.__getitem__, pos))) for s, pos in _comb_expansion(len(word))]


@functools.cache
def comb_coords(word):
    """The comb of a word of distinct labels in the comb basis over its sorted
    labels, as (tree index, coefficient) pairs: the one closed form.  If the
    least label l follows the labels u, the comb is [comb(u), l], which
    `bracket_leaf` writes as +-combs headed by l, bracketed on the right by
    the rest of the word.  Cached, so read-only."""
    p = word.index(min(word))
    terms = bracket_leaf(word[:p], word[p]) if p else ((1, word[:1]),)
    positions = comb_index(sorted(word))
    return tuple((positions[w[1:] + word[p + 1:]], c) for c, w in terms)


@functools.cache
def bracket_leaf_table(k, r):
    """[T, a] for T the comb t over k labels S, at index t, and a of rank r
    (1-based) among the k+1 labels S | {a}, as `comb_coords` pairs over
    S | {a}.  The comb basis reads sorted labels, so the entry depends only
    on (k, t, r): it is read once on the word (1,) + tail, tail the t-th
    permutation of 2..k in the lex order of `lie_basis`, shifted past r and
    followed by r.  Cached, so read-only."""
    return tuple(comb_coords(tuple(x + (x >= r) for x in (1,) + tail) + (r,))
                 for tail in itertools.permutations(range(2, k + 1)))


class LieElem(SparseElem):
    """Element of Lie(S): sparse rational coordinates over the left-normed basis."""

    __slots__ = ("labels",)

    def __init__(self, labels, coords=None):
        self.labels = tuple(labels)
        super().__init__(coords)

    def cell(self):
        return (self.labels,)

    def dim(self):
        return lie_dim(len(self.labels))

    def terms(self):
        """(coefficient, basis tree) pairs."""
        basis = lie_basis(self.labels)
        return [(c, basis[i]) for i, c in sorted(self.coords.items())]


def _check_multilinear(tree, labels):
    lvs = leaves(tree)
    if len(lvs) != len(set(lvs)) or tuple(sorted(lvs)) != labels:
        raise ValueError("tree is not multilinear over %r" % (labels,))


def _comb_words(tree):
    """A multilinear tree as signed comb words {word: coefficient}, bracket
    by bracket through the comb rule (module docstring)."""
    if not isinstance(tree, tuple):
        return {(tree,): 1}
    left, right, sign = tree[0], tree[1], 1
    if len(leaves(right)) > len(leaves(left)):
        left, right, sign = right, left, -1
    left, right = _comb_words(left), _comb_words(right)
    out = {}
    for u, cu in right.items():
        for s, pos in _comb_expansion(len(u)):
            tail, c = tuple(map(u.__getitem__, pos)), sign * s * cu
            for w, cw in left.items():
                out[w + tail] = out.get(w + tail, 0) + c * cw
    return {w: c for w, c in out.items() if c}


@functools.cache
def normalize_tree(tree):
    """Coordinates of a single multilinear tree (read-only cached dict): its
    comb words, each read by `comb_coords`."""
    _check_multilinear(tree, tuple(sorted(leaves(tree))))
    return combine(_comb_words(tree), lambda word: dict(comb_coords(word)))


def normalize(tree):
    """Express a multilinear bracket tree in the left-normed basis."""
    labels = tuple(sorted(leaves(tree)))
    return LieElem(labels, normalize_tree(tree))


def normalize_terms(terms):
    """Normalize a formal sum of (coefficient, tree) pairs over one label set."""
    terms = list(terms)
    if not terms:
        raise ValueError("empty formal sum has no label set")
    labels = tuple(sorted(leaves(terms[0][1])))
    out = {}
    for c, tree in terms:
        if not c:
            continue
        _check_multilinear(tree, labels)
        axpy(out, normalize_tree(tree), c)
    return LieElem(labels, out)


def bracket(u, v):
    """[u, v] in Lie(S1 | S2); the label sets must be disjoint."""
    if set(u.labels) & set(v.labels):
        raise ValueError("label sets overlap")
    labels = tuple(sorted(u.labels + v.labels))
    if u.is_zero() or v.is_zero():
        return LieElem(labels)
    bu, bv = lie_basis(u.labels), lie_basis(v.labels)
    terms = [(cu * cv, (bu[i], bv[j]))
             for i, cu in u.coords.items() for j, cv in v.coords.items()]
    return normalize_terms(terms)


def relabel(u, mapping):
    """Push u through a bijection of label sets and renormalize."""
    if sorted(mapping) != sorted(u.labels) or len(set(mapping.values())) != len(mapping):
        raise ValueError("mapping is not a bijection from the label set")
    new_labels = tuple(sorted(mapping.values()))
    if u.is_zero():
        return LieElem(new_labels)
    basis = lie_basis(u.labels)
    terms = [(c, graft(basis[i], mapping)) for i, c in u.coords.items()]
    return normalize_terms(terms)


def generator(label):
    """The canonical generator of Lie({label})."""
    return LieElem((label,), {0: 1})
