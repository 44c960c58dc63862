import itertools
import random

from lieprop.exactla import Echelon
from lieprop.freelie import (LieElem, basis_expansions, bracket, expand,
                             generator, graft, leaves, lie_dim, normalize,
                             normalize_terms, relabel)


def _rank(rows):
    ech = Echelon()
    for row in rows:
        ech.add(row)
    return ech.rank


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

    def all_trees(labels):
        if len(labels) == 1:
            yield labels[0]
            return
        for k in range(1, len(labels)):
            for left_set in itertools.combinations(labels, k):
                right_set = tuple(x for x in labels if x not in left_set)
                for l in all_trees(left_set):
                    for r in all_trees(right_set):
                        yield (l, r)

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
