"""Multilinear free Lie algebra on a finite label set.

Lie(S) is spanned by bracket expressions using each label of S exactly
once, modulo antisymmetry and the Jacobi identity; its dimension is
(|S|-1)!.  The basis used everywhere is the left-normed family

    [[...[[a1, s2], s3], ...], sk]        a1 = min(S),

one monomial per ordering (s2, ..., sk) of S \\ {a1}, listed in
lexicographic order of that tuple.

Normalization embeds everything in the tensor algebra: each bracket
[x, y] expands to xy - yx, so a tree with k leaves becomes an exact
integer combination of words of length k.  The expansion of the basis
monomial indexed by (s2, ..., sk) contains exactly one word starting
with a1 -- the word a1 s2 ... sk, with coefficient 1 -- so coordinates
can be read off the a1-initial words directly.  The candidate solution
is then certified by re-expanding and subtracting; a nonzero residue
would mean the input escaped the span of the basis, which cannot happen
for well-formed trees and is treated as an internal error.

Combs skip normalization: `bracket_leaf` writes [T, a] for a comb T as
signed comb words, and `comb_coords`, its one caller, reads the comb of
any word of distinct labels in the basis.  That is the one closed form
of the comb rule: `catlie.act_in` relabels comb words and reads them
through it, and `bracket_leaf_table` holds [T, a] once per order pattern
for `mudelta` and `dgcat`, read off comb words with no tree built.

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


def bracket_leaf(word, a):
    """[T, a] for the comb T of word = (h, s_2, ..., s_k), as (coefficient,
    comb word) pairs: word + (a,) if h = min(word) < a.  If a is below
    every label, only -aT of Ta - aT starts with a, and T is the sum over
    I of {2..k} of (-1)^|I| (s_I reversed) h s_{I^c} ([X, s] = Xs - sX),
    whatever h: [T, a] = -sum_I (-1)^|I| comb(a, s_I reversed, h, s_{I^c}).
    """
    h, rest = word[0], word[1:]
    if a > h:
        return ((1, word + (a,)),)
    out = []
    for mask in range(1 << len(rest)):
        inside = tuple(s for i, s in enumerate(rest) if mask >> i & 1)
        outside = tuple(s for i, s in enumerate(rest) if not mask >> i & 1)
        out.append((1 if len(inside) % 2 else -1, (a,) + inside[::-1] + (h,) + outside))
    return out


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


def basis_expansions(labels):
    """Expansions of the basis trees, cached per label set."""
    return _basis_expansions(tuple(labels))


@functools.cache
def _basis_expansions(labels):
    return tuple(expand(t) for t in _lie_basis(labels))


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


@functools.cache
def normalize_tree(tree):
    """Coordinates of a single multilinear tree (read-only cached dict)."""
    labels = tuple(sorted(leaves(tree)))
    _check_multilinear(tree, labels)
    return _solve([(1, tree)], labels)


def _solve(terms, labels):
    """Read coordinates off the a1-initial words, then certify by re-expansion."""
    words = {}
    for c, tree in terms:
        axpy(words, expand(tree), c)
    head = labels[0]
    index = _perm_index(labels)
    coords = {}
    for w, c in words.items():
        if w[0] == head:
            coords[index[w[1:]]] = c
    expansions = _basis_expansions(labels)
    if axpy(dict(words), combine(coords, expansions.__getitem__), -1):
        raise AssertionError("expansion escaped the basis span; broken input tree")
    return coords


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
