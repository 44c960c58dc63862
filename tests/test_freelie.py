import functools
import itertools
import random

import pytest

from lieprop import catlie, cecomplex, freelie, mudelta
from lieprop.exactla import Echelon, axpy, combine
from lieprop.freelie import (LieElem, bracket, comb_coords, comb_index, expand,
                             generator, graft, leaves, lie_basis, lie_dim,
                             normalize, normalize_terms, normalize_tree, relabel)


def _rank(rows):
    ech = Echelon()
    for row in rows:
        ech.add(row)
    return ech.rank


def all_trees(labels):
    """Every ordered binary tree with the leaves `labels`, in every labelling."""
    if len(labels) == 1:
        yield labels[0]
        return
    for k in range(1, len(labels)):
        for left_set in itertools.combinations(labels, k):
            right_set = tuple(x for x in labels if x not in left_set)
            for l in all_trees(left_set):
                for r in all_trees(right_set):
                    yield (l, r)


@functools.cache
def basis_expansions(labels):
    """The tensor expansions of the basis trees over a sorted label tuple."""
    return tuple(expand(t) for t in lie_basis(labels))


def tensor_coords(tree):
    """The reference reading of a multilinear tree: `tensor_reading` of its
    tensor expansion."""
    return tensor_reading(expand(tree), tuple(sorted(leaves(tree))))


def tensor_reading(words, labels):
    """Coordinates of a Lie element given by its tensor expansion `words`
    over the sorted labels: the basis comb indexed by (s2, ..., sk) expands
    to exactly one word that starts with a1 = min(S), a1 s2 ... sk with
    coefficient 1, so the coordinates are the coefficients of the a1-initial
    words; re-expanding them and subtracting must leave nothing."""
    index = comb_index(labels)
    coords = {index[w[1:]]: c for w, c in words.items() if w[0] == labels[0]}
    if axpy(dict(words), combine(coords, basis_expansions(labels).__getitem__), -1):
        raise AssertionError("the word vector escaped the basis span over %r" % (labels,))
    return coords


def comb(word):
    """The comb [[...[w1, w2], ...], wk] of a word."""
    t = word[0]
    for x in word[1:]:
        t = (t, x)
    return t


def test_lie_dim_values():
    assert lie_dim(0) == 0
    assert lie_dim(1) == 1
    assert lie_dim(2) == 1
    assert lie_dim(3) == 2
    assert lie_dim(4) == 6


def test_lie_dim_4_matches_word_space_rank():
    # independent oracle: rank of all multilinear bracketings of 1..4
    # expanded in the 4!-dimensional word space
    col = {w: i for i, w in enumerate(itertools.permutations((1, 2, 3, 4)))}
    rows = []
    for t in all_trees((1, 2, 3, 4)):
        vec = [0] * 24
        for w, c in expand(t).items():
            vec[col[w]] = c
        rows.append(vec)
    assert _rank(rows) == 6 == lie_dim(4)


def test_antisymmetry():
    assert normalize((2, 1)) == LieElem((1, 2), {0: -1})


def test_left_normed_tree_is_basis_vector():
    assert normalize(((1, 2), 3)) == LieElem((1, 2, 3), {0: 1})


def test_right_bracketing_rewrites():
    # [1,[2,3]] = [[1,2],3] - [[1,3],2], checked against a direct word
    # expansion of both sides
    lhs = normalize((1, (2, 3)))
    assert lhs == LieElem((1, 2, 3), {0: 1, 1: -1})
    direct = expand((1, (2, 3)))
    recombined = {}
    for c, t in [(1, ((1, 2), 3)), (-1, ((1, 3), 2))]:
        for w, e in expand(t).items():
            recombined[w] = recombined.get(w, 0) + c * e
    assert {w: c for w, c in recombined.items() if c} == direct


def test_basis_expansions_independent_up_to_6():
    for k in range(2, 7):
        labels = tuple(range(1, k + 1))
        cols = {w: i for i, w in enumerate(itertools.permutations(labels))}
        rows = []
        for exp in basis_expansions(labels):
            vec = [0] * len(cols)
            for w, c in exp.items():
                vec[cols[w]] = c
            rows.append(vec)
        assert _rank(rows) == lie_dim(k)


def _random_tree(rng, labels):
    if len(labels) == 1:
        return labels[0]
    k = rng.randint(1, len(labels) - 1)
    left = rng.sample(labels, k)
    right = [x for x in labels if x not in left]
    return (_random_tree(rng, left), _random_tree(rng, right))


def test_normalize_tree_is_the_tensor_reading_on_every_tree_up_to_5_leaves():
    # every ordered binary tree on 1..k, k <= 5, in every labelling, and every
    # seventh 5-leaf tree again on labels that are not 1..5
    count = 0
    for k in range(1, 6):
        for tree in all_trees(tuple(range(1, k + 1))):
            assert normalize_tree(tree) == tensor_coords(tree), tree
            count += 1
    assert count == 1815
    rename = dict(zip(range(1, 6), (3, 5, 8, 10, 11)))
    for tree in itertools.islice(all_trees(tuple(range(1, 6))), 0, None, 7):
        tree = graft(tree, rename)
        assert normalize_tree(tree) == tensor_coords(tree), tree


def test_normalize_tree_is_the_tensor_reading_on_larger_trees():
    # seeded random trees with 6 and 7 leaves, and the right-normed trees
    # [x1, [x2, [..., xk]]] up to 7 leaves, in increasing and in random order
    rng = random.Random(31)
    trees = [_random_tree(rng, list(range(1, k + 1))) for k in (6, 7) for _ in range(40)]
    for k in range(1, 8):
        for word in (tuple(range(1, k + 1)), tuple(rng.sample(range(1, k + 1), k))):
            tree = word[-1]
            for x in reversed(word[:-1]):
                tree = (x, tree)
            trees.append(tree)
    for tree in trees:
        assert normalize_tree(tree) == tensor_coords(tree), tree


def test_comb_coords_is_the_tensor_reading_on_every_word_up_to_6_labels():
    for k in range(1, 7):
        for word in itertools.permutations(range(1, k + 1)):
            got = comb_coords(word)
            assert len(dict(got)) == len(got), word
            assert dict(got) == tensor_coords(comb(word)), word


def test_tensor_reading_rejects_a_word_vector_outside_the_lie_span():
    # the reference certifies itself: the word 123 alone is not a Lie
    # element, yet its a1-initial reading is the comb [[1, 2], 3]
    assert tensor_reading(expand(((1, 2), 3)), (1, 2, 3)) == {0: 1}
    with pytest.raises(AssertionError, match="escaped the basis span"):
        tensor_reading({(1, 2, 3): 1}, (1, 2, 3))


def _clear_caches():
    for mod in (freelie, catlie, mudelta, cecomplex):
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def test_dg_side_forms_no_tensor_word(monkeypatch):
    # compose, pi, ce_diff and check_dg_square for m <= 4 normalize every
    # tree by the comb rule: none reaches freelie.expand, which serves only
    # the Schur oracle's direct side and the reference above
    def forbidden(*args):
        raise AssertionError("the DG side formed a tensor word")

    _clear_caches()
    monkeypatch.setattr(freelie, "expand", forbidden)
    for m in range(5):
        for n in range(m + 1):
            for i in range(catlie.hom_dim(m, n)):
                f = catlie.HomElem(m, n, {i: 1})
                for k in range(n + 1):
                    for j in range(catlie.hom_dim(n, k)):
                        catlie.compose(catlie.HomElem(n, k, {j: 1}), f)
                if n:
                    mudelta.pi(f)
            for t in range(1, m - n + 1):
                for x in cecomplex.ce_basis(m, n, t):
                    cecomplex.ce_diff(m, n, t, x)
            for t in range(n + 1):
                assert mudelta.check_dg_square(m, n, t)
    # 108 trees at m <= 4, each normalized once, through catlie's own cache, and
    # held nowhere else
    assert catlie._tree_terms.cache_info().misses > 100
    assert freelie.normalize_tree.cache_info().currsize == 0


def test_normalize_is_linear_on_random_trees():
    rng = random.Random(11)
    labels = [1, 2, 3, 4, 5]
    for _ in range(25):
        t1 = _random_tree(rng, labels)
        t2 = _random_tree(rng, labels)
        lhs = normalize_terms([(3, t1), (-2, t2)])
        rhs = normalize(t1).scale(3) + normalize(t2).scale(-2)
        assert lhs == rhs


def test_rebracketings_normalize_identically():
    rng = random.Random(13)
    for _ in range(20):
        labels = list(range(1, rng.randint(3, 6)))
        t = _random_tree(rng, labels)
        # rewrite by antisymmetry at the root and by Jacobi, then compare
        if isinstance(t, tuple):
            l, r = t
            assert normalize((r, l)) == normalize(t).scale(-1)
            if isinstance(l, tuple):
                a, b = l
                # [[a,b],r] = [[a,r],b] + [a,[b,r]]
                rewritten = normalize_terms([(1, ((a, r), b)), (1, (a, (b, r)))])
                assert rewritten == normalize(t)


def test_bracket_jacobi():
    a, b, c = generator(1), generator(2), generator(3)
    total = (bracket(bracket(a, b), c) + bracket(bracket(b, c), a)
             + bracket(bracket(c, a), b))
    assert total.is_zero()


def test_bracket_antisymmetry_after_relabel_alignment():
    u = normalize((1, 2))
    v = generator(3)
    assert bracket(v, u) == bracket(u, v).scale(-1)


def test_bracket_rejects_overlapping_labels():
    try:
        bracket(generator(1), generator(1))
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError")


def test_relabel_identity_and_group_action():
    rng = random.Random(17)
    labels = (1, 2, 3, 4)
    u = normalize(_random_tree(rng, list(labels)))
    ident = {x: x for x in labels}
    assert relabel(u, ident) == u
    g = {1: 2, 2: 3, 3: 4, 4: 1}
    h = {1: 3, 2: 1, 3: 4, 4: 2}
    hg = {x: h[g[x]] for x in labels}
    assert relabel(relabel(u, g), h) == relabel(u, hg)


def test_relabel_three_cycle_has_order_three():
    u = normalize(((1, 2), 3))
    g = {1: 2, 2: 3, 3: 1}
    out = u
    for _ in range(3):
        out = relabel(out, g)
    assert out == u


def test_relabel_swap_on_lie2_negates():
    u = normalize((1, 2))
    assert relabel(u, {1: 2, 2: 1}) == u.scale(-1)


def test_relabel_rejects_non_bijection():
    try:
        relabel(normalize((1, 2)), {1: 1, 2: 1})
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError")


def test_graft_and_leaves():
    t = ((1, 2), 3)
    assert leaves(t) == (1, 2, 3)
    assert graft(t, {1: 5, 2: (6, 7), 3: 8}) == ((5, (6, 7)), 8)
