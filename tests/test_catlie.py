import itertools
import random
from math import factorial

import pytest

from lieprop import catlie, freelie, mudelta
from lieprop.catlie import (BasisMorphism, HomElem, act_in, act_out, basis_trees,
                            boxplus, compose, hom_basis, hom_dim, identity,
                            perm_hom, stirling_cycle, surjections)
from lieprop.mudelta import mu


def test_surjection_counts_and_order():
    assert surjections(0, 0) == ((),)
    assert surjections(2, 0) == ()
    assert surjections(1, 2) == ()
    s32 = surjections(3, 2)
    assert len(s32) == 6
    assert list(s32) == sorted(s32)


def test_hom_dim_examples():
    assert hom_dim(2, 2) == 2
    assert hom_dim(3, 1) == 2
    assert hom_dim(3, 2) == 6
    assert hom_dim(4, 2) == 22
    assert hom_dim(0, 0) == 1
    assert hom_dim(3, 0) == 0
    assert hom_dim(2, 3) == 0


def test_hom_dim_diagonal_is_factorial():
    for n in range(6):
        assert hom_dim(n, n) == factorial(n)


def test_hom_dim_closed_form_up_to_7():
    for m in range(8):
        for n in range(m + 1):
            assert hom_dim(m, n) == factorial(n) * stirling_cycle(m, n)
        for n in range(m + 1, 9):
            assert hom_dim(m, n) == 0


def test_hom_basis_matches_dim_and_is_deterministic():
    for m in range(6):
        for n in range(m + 1):
            basis = hom_basis(m, n)
            assert len(basis) == hom_dim(m, n)
    b42 = hom_basis(4, 2)
    fs = [bm.f for bm in b42]
    assert fs == sorted(fs)  # surjection-major order


def test_identity_is_unit():
    for (m, n) in [(2, 2), (3, 2), (4, 2), (3, 1)]:
        for i in range(0, hom_dim(m, n), max(1, hom_dim(m, n) // 5)):
            f = HomElem(m, n, {i: 1})
            assert compose(identity(n), f) == f
            assert compose(f, identity(m)) == f


def test_identity_zero_object():
    e = identity(0)
    assert compose(e, e) == e
    assert hom_dim(0, 0) == 1


def test_identity_rejects_negative_arity():
    with pytest.raises(ValueError, match="arities must be >= 0"):
        identity(-1)


def test_compose_associativity_random_triples():
    rng = random.Random(23)
    for _ in range(60):
        l = rng.randint(1, 5)
        m = rng.randint(1, l)
        n = rng.randint(1, m)
        p = rng.randint(1, n)
        h = HomElem(n, p, {rng.randrange(hom_dim(n, p)): 1})
        g = HomElem(m, n, {rng.randrange(hom_dim(m, n)): 1})
        f = HomElem(l, m, {rng.randrange(hom_dim(l, m)): 1})
        assert compose(h, compose(g, f)) == compose(compose(h, g), f)


def test_compose_arity_mismatch():
    with pytest.raises(ValueError):
        compose(identity(2), identity(3))


def test_boxplus_units_and_identities():
    f = HomElem(3, 2, {1: 1})
    assert boxplus(f, identity(0)) == f
    assert boxplus(identity(0), f) == f
    assert boxplus(identity(2), identity(3)) == identity(5)


def test_boxplus_interchange():
    rng = random.Random(29)
    for _ in range(30):
        a = HomElem(2, 1, {rng.randrange(hom_dim(2, 1)): 1})
        b = HomElem(3, 2, {rng.randrange(hom_dim(3, 2)): 1})
        a2 = HomElem(1, 1, {0: 1})
        b2 = HomElem(2, 1, {rng.randrange(hom_dim(2, 1)): 1})
        lhs = compose(boxplus(a2, b2), boxplus(a, b))
        rhs = boxplus(compose(a2, a), compose(b2, b))
        assert lhs == rhs


def test_perm_hom_multiplication():
    # hom(sigma) o hom(tau) = hom(sigma o tau) with tau applied first
    sigma = (2, 3, 1)
    tau = (1, 3, 2)
    st = tuple(sigma[t - 1] for t in tau)
    assert compose(perm_hom(sigma), perm_hom(tau)) == perm_hom(st)


def test_actions_are_group_actions_and_commute():
    rng = random.Random(31)
    for _ in range(20):
        f = HomElem(4, 2, {rng.randrange(hom_dim(4, 2)): 1})
        sig1 = tuple(rng.sample(range(1, 3), 2))
        sig2 = tuple(rng.sample(range(1, 3), 2))
        tau1 = tuple(rng.sample(range(1, 5), 4))
        tau2 = tuple(rng.sample(range(1, 5), 4))
        comp_out = tuple(sig1[s - 1] for s in sig2)
        comp_in = tuple(tau1[t - 1] for t in tau2)
        assert act_out(sig1, act_out(sig2, f)) == act_out(comp_out, f)
        assert act_in(act_in(f, tau1), tau2) == act_in(f, comp_in)
        assert act_in(act_out(sig1, f), tau1) == act_out(sig1, act_in(f, tau1))


def test_act_in_swap_negates_mu1():
    assert act_in(mu(1), (2, 1)) == mu(1).scale(-1)


def test_act_out_identity_no_op():
    f = HomElem(3, 2, {2: 1})
    assert act_out((1, 2), f) == f
    assert act_in(f, (1, 2, 3)) == f


def test_basis_morphism_invariants():
    for bm in hom_basis(4, 2):
        assert isinstance(bm, BasisMorphism)
        assert set(bm.f) == {1, 2}
        assert len(bm.trees) == 2


def test_action_size_mismatch_raises():
    f = HomElem(3, 2, {0: 1})
    with pytest.raises(ValueError):
        act_out((1, 2, 3), f)
    with pytest.raises(ValueError):
        act_in(f, (1, 2))
    with pytest.raises(ValueError):
        perm_hom((1, 1))


def _adjacent(m):
    for i in range(1, m):
        s = list(range(1, m + 1))
        s[i - 1], s[i] = s[i], s[i - 1]
        yield tuple(s)


def _taus(m, i, rng):
    """Every tau for m <= 4; every adjacent transposition and two seeded
    random tau at m = 5; at m = 6 one adjacent transposition, in turn by
    basis index, and one random tau."""
    if m <= 4:
        return list(itertools.permutations(range(1, m + 1)))
    random_taus = [tuple(rng.sample(range(1, m + 1), m)) for _ in range(7 - m)]
    adjacent = list(_adjacent(m))
    return (adjacent if m == 5 else [adjacent[i % (m - 1)]]) + random_taus


def test_act_in_closed_form_matches_composition():
    rng = random.Random(37)
    heads = {True: 0, False: 0}    # per output: is the least label the relabelled head?
    count = 0
    for m in range(7):
        for n in range(m + 1):
            for i, bm in enumerate(hom_basis(m, n)):
                f = HomElem.from_basis(bm)
                for tau in _taus(m, i, rng):
                    assert act_in(f, tau) == compose(f, perm_hom(tau)), (bm, tau)
                    inv = {t: k for k, t in enumerate(tau, start=1)}
                    for tree in basis_trees(bm):
                        word = [inv[x] for x in freelie.leaves(tree)]
                        heads[word[0] == min(word)] += 1
                    count += 1
    assert count == 2204 + 694 * 6 + 6578 * 2    # m <= 4, m = 5, m = 6
    assert heads[True] and heads[False]


def test_act_in_composes_nothing(monkeypatch):
    def forbidden(*args):
        raise AssertionError("act_in composed or normalized a tree")

    for mod, name in [(catlie, "compose"), (catlie, "compose_basis"), (mudelta, "compose"),
                      (freelie, "graft"), (freelie, "normalize_tree")]:
        monkeypatch.setattr(mod, name, forbidden)
    catlie._act_in_basis.cache_clear()
    catlie._comb_coords.cache_clear()
    for n in range(6):
        for i in range(hom_dim(5, n)):
            for tau in ((5, 3, 1, 2, 4), *_adjacent(5)):
                act_in(HomElem(5, n, {i: 1}), tau)
        for s in range(mudelta.delta1_dim(5, n)):
            mudelta.delta1_act_in(mudelta.Delta1Elem(5, n, {s: 1}), (2, 1, 3, 5, 4))


def test_act_in_accepts_lists_and_rejects_non_permutations():
    f = HomElem(3, 2, {4: 1})
    assert act_in(f, [2, 3, 1]) == act_in(f, (2, 3, 1)) == compose(f, perm_hom((2, 3, 1)))
    for tau in ((1, 1, 3), (1, 2, 4), [0, 1, 2]):
        with pytest.raises(ValueError, match="not a permutation"):
            act_in(f, tau)
