import itertools
import random
from math import factorial

import pytest

from lieprop import catlie, cecomplex, dgcat, freelie, mudelta, schur_oracle
from lieprop.catlie import (BasisMorphism, HomElem, boxplus, compose,
                            hom_basis, hom_dim, identity, perm_hom, tree_tuples)
from lieprop.cli import suite_mudelta
from lieprop.exactla import Echelon
from lieprop.mudelta import (Delta1Elem, _delta1_value_lists, adjoint_append, check_centrality,
                             check_dg_square, check_lie_action,
                             delta1_act_in, delta1_act_in_columns, delta1_act_left,
                             delta1_act_right, delta1_basis, delta1_dim,
                             include_delta1, iota, mu, mu_tilde, mu_tilde_1,
                             pi, project_delta1)
from test_freelie import comb, tensor_coords


def test_mu_zero_and_small():
    assert mu(0).is_zero()
    m1 = mu(1)
    assert (m1.m, m1.n) == (2, 1) and len(m1.coords) == 1
    assert len(mu(3).coords) == 3
    # each term restricts to the identity on the first n inputs
    for c, bm in mu(3).terms():
        assert c == 1
        assert bm.f[:3] == (1, 2, 3)


def test_mu_tilde_unit_law():
    for n in (1, 2, 3):
        assert mu_tilde(identity(n + 1)) == mu(n)


def test_mu_tilde_zero_domain():
    # m <= n makes Hom(m, n+1) zero
    assert mu_tilde(HomElem.zero(2, 3)).is_zero()


def test_delta1_dims():
    for m in range(7):
        for n in range(7):
            _, bms, _ = delta1_basis(m, n)
            assert len(bms) == delta1_dim(m, n)
            expected = m * hom_dim(m - 1, n) if m >= 1 else 0
            assert len(bms) == expected


def test_iota_values():
    assert iota(0).is_zero()
    i1 = iota(1)
    assert (i1.m, i1.n) == (1, 0) and delta1_dim(1, 0) == 1
    for a in (1, 2, 3, 4):
        assert mu_tilde_1(iota(a)) == mu(a - 1)


def test_mu_tilde_1_on_two_dim_cell():
    # delta1(2,1) has two basis elements mapping to mu(1) and -mu(1)
    images = [mu_tilde_1(Delta1Elem(2, 1, {s: 1})) for s in range(2)]
    assert mu(1) in images and mu(1).scale(-1) in images


def test_mu_tilde_1_zero_on_diagonal():
    assert delta1_dim(3, 3) == 0
    assert mu_tilde_1(Delta1Elem.zero(3, 3)).is_zero()


def test_include_project_roundtrip():
    for (m, n) in [(2, 1), (3, 1), (3, 2), (4, 2)]:
        for s in range(delta1_dim(m, n)):
            z = Delta1Elem(m, n, {s: 1})
            assert project_delta1(include_delta1(z)) == z


def test_project_rejects_outside_support():
    # the bracket-bearing generator of Hom(2,1) is not in the sub-basis
    w = HomElem(2, 1, {0: 1})
    with pytest.raises(ValueError):
        project_delta1(w)


def _front_word_expansion(termdict):
    """Flatten formal sums of output-tree tuples into joint word expansions."""
    from lieprop.freelie import expand
    total = {}
    for fronttrees, c in termdict.items():
        acc = {(): 1}
        for t in fronttrees:
            nxt = {}
            for w0, c0 in acc.items():
                for w1, c1 in expand(t).items():
                    key = w0 + ("|",) + w1 if w0 else w1
                    nxt[key] = nxt.get(key, 0) + c0 * c1
            acc = nxt
        for w, c0 in acc.items():
            total[w] = total.get(w, 0) + c * c0
    return {w: c for w, c in total.items() if c}


def test_adjoint_append_shapes():
    assert adjoint_append((1,), 2) == (((1, 2),),)
    assert adjoint_append((1, 2), 3) == (((1, 3), 2), (1, (2, 3)))


def test_adjoint_append_right_action_axiom():
    # append X then Y, minus Y then X, equals append [X, Y]
    front = (1, 2)
    X, Y = 3, 4
    lhs_terms = {}
    for sign, first, second in ((1, X, Y), (-1, Y, X)):
        for mid in adjoint_append(front, first):
            for final in adjoint_append(mid, second):
                lhs_terms[final] = lhs_terms.get(final, 0) + sign
    rhs_terms = {}
    for final in adjoint_append(front, (X, Y)):
        rhs_terms[final] = rhs_terms.get(final, 0) + 1
    assert _front_word_expansion(lhs_terms) == _front_word_expansion(rhs_terms)


def test_pi_fixes_sub_basis():
    for (m, n1) in [(2, 2), (3, 2), (3, 3), (4, 3)]:
        n = n1 - 1
        full, bms, _ = delta1_basis(m, n)
        for s in range(len(bms)):
            z = Delta1Elem(m, n, {s: 1})
            assert pi(include_delta1(z)) == z


def test_pi_on_bracket_over_last_output_m2():
    # Hom(2,1): the single basis morphism brackets both inputs over the
    # lone output; seen in the shifted grading the last slot holds the
    # bracket and there are no other outputs, so pi kills it
    w = HomElem(2, 1, {0: 1})
    assert pi(w).is_zero()


def test_pi_spot_value_two_terms_with_signs():
    # basis morphism of Hom(3,2) with f = (1,2,2): leaf over output 1,
    # bracket [a2, a3] over output 2; the recursion trades the bracket
    # for adjoint actions on output 1:
    #   +(f=(1,1,2), [a1,a2] over 1)  -(f=(1,2,1), [a1,a3] over 1)
    bm = BasisMorphism(3, 2, (1, 2, 2), (0, 0))
    w = HomElem.from_basis(bm)
    got = pi(w)
    _, bms, index_of = delta1_basis(3, 1)
    plus = BasisMorphism(3, 2, (1, 1, 2), (0, 0))
    minus = BasisMorphism(3, 2, (1, 2, 1), (0, 0))
    expect = Delta1Elem(3, 1, {index_of[plus]: 1, index_of[minus]: -1})
    assert got == expect


def test_act_right_spot_value_is_mu1_boxplus_one():
    got = delta1_act_right(iota(2), mu(2))
    expect = project_delta1(boxplus(mu(1), identity(1)))
    assert got == expect


def test_act_left_unit_and_structure():
    for (m, n) in [(2, 1), (3, 2), (4, 2)]:
        for s in range(0, delta1_dim(m, n), 2):
            z = Delta1Elem(m, n, {s: 1})
            assert delta1_act_left(identity(n), z) == z
    # result of a basis pair stays a valid Delta1Elem (constructor would
    # fail on stray support)
    z = Delta1Elem(3, 2, {0: 1})
    g = HomElem(2, 1, {0: 1})
    out = delta1_act_left(g, z)
    assert (out.m, out.n) == (3, 1)


def test_act_right_unit_and_associativity():
    rng = random.Random(37)
    for _ in range(25):
        m = rng.randint(2, 4)
        n = rng.randint(1, m - 1)
        d1 = delta1_dim(m, n)
        if not d1:
            continue
        z = Delta1Elem(m, n, {rng.randrange(d1): 1})
        assert delta1_act_right(z, identity(m)) == z
        l = rng.randint(m, 5)
        f = HomElem(l, m, {rng.randrange(hom_dim(l, m)): 1})
        q = rng.randint(l, 5)
        f2 = HomElem(q, l, {rng.randrange(hom_dim(q, l)): 1})
        assert (delta1_act_right(delta1_act_right(z, f), f2)
                == delta1_act_right(z, compose(f, f2)))


def test_act_in_matches_act_right_on_permutations():
    rng = random.Random(41)
    for _ in range(10):
        z = Delta1Elem(3, 1, {rng.randrange(delta1_dim(3, 1)): 1})
        tau = tuple(rng.sample(range(1, 4), 3))
        from lieprop.catlie import perm_hom
        assert delta1_act_in(z, tau) == delta1_act_right(z, perm_hom(tau))


def test_delta1_act_in_closed_form_matches_composition():
    # every tau for m <= 4; every adjacent transposition and two seeded random
    # tau at m = 5; at m = 6 one adjacent transposition, in turn by basis index
    rng = random.Random(43)
    count = 0
    for m in range(7):
        adjacent = [tuple(range(1, i)) + (i + 1, i) + tuple(range(i + 2, m + 1))
                    for i in range(1, m)]
        for n in range(m):
            for s in range(delta1_dim(m, n)):
                if m <= 4:
                    taus = itertools.permutations(range(1, m + 1))
                elif m == 5:
                    taus = adjacent + [tuple(rng.sample(range(1, 6), 5)) for _ in range(2)]
                else:
                    taus = [adjacent[s % 5]]
                z = Delta1Elem(m, n, {s: 1})
                for tau in taus:
                    want = project_delta1(compose(include_delta1(z), perm_hom(tau)))
                    assert delta1_act_in(z, tau) == want, (m, n, s, tau)
                    count += 1
    assert count == 1 + 4 + 54 + 1344 + 440 * 6 + 4164    # delta1(m, n) sizes times taus


def test_delta1_act_in_checks_tau():
    z = Delta1Elem(4, 2, {3: 1})
    with pytest.raises(ValueError, match="permutation size differs from source arity"):
        delta1_act_in(z, (2, 1))
    with pytest.raises(ValueError, match="not a permutation"):
        delta1_act_in(z, (1, 2, 2, 4))
    assert delta1_act_in(z, [2, 1, 4, 3]) == delta1_act_in(z, (2, 1, 4, 3))


def _taus(w):
    """The w - 1 adjacent transpositions of S_w and the w-cycle (2, ..., w, 1)."""
    return ([tuple(range(1, k)) + (k + 1, k) + tuple(range(k + 2, w + 1)) for k in range(1, w)]
            + [tuple(range(2, w + 1)) + (1,)])


def test_block_columns_match_the_action_of_perm_hom():
    # every delta1(w, n) column with w <= 6, n <= 3, read through the cut, against the
    # definition delta1_act_right(z, perm_hom(tau)), under the w - 1 adjacent
    # transpositions and the w-cycle (2, ..., w, 1), which is not its own inverse
    count = 0
    for w in range(1, 7):
        for n in range(min(w, 4)):
            dim = delta1_dim(w, n)
            for tau in _taus(w):
                columns = delta1_act_in_columns(w, n, tau, range(dim))
                assert sorted(columns) == list(range(dim))
                for s, column in columns.items():
                    want = delta1_act_right(Delta1Elem(w, n, {s: 1}), perm_hom(tau))
                    assert column == want.coords, (w, n, s, tau)
                    count += 1
    assert count == 13880


def test_block_columns_check_tau():
    # the as_perm errors, as delta1_act_in gives them, before any index is read
    for tau, message in (((1, 1, 3), "not a permutation of 1..3"),
                         ((3, 2, 1, 4), "permutation size differs from source arity"),
                         ((2, 1), "permutation size differs from source arity")):
        with pytest.raises(ValueError, match=message):
            delta1_act_in_columns(3, 1, tau, [0])
        with pytest.raises(ValueError, match=message):
            delta1_act_in(Delta1Elem(3, 1, {0: 1}), tau)
    assert delta1_act_in_columns(3, 1, [2, 1, 3], [0]) == delta1_act_in_columns(3, 1, (2, 1, 3), [0])


def test_block_columns_reject_indices_outside_delta1():
    # delta1(3, 1) has dimension 3: -1 is not read as its last index
    assert delta1_dim(3, 1) == 3
    for support in ([-1], [3], [99], [0, -1]):
        with pytest.raises(ValueError, match="no index"):
            delta1_act_in_columns(3, 1, (2, 1, 3), support)
    assert sorted(delta1_act_in_columns(3, 1, (2, 1, 3), [0, 2])) == [0, 2]


def test_block_columns_read_tau_through_the_shared_reader(monkeypatch):
    # the basis path reads act_in through mudelta's one reading of tau on the cut:
    # no act_in for tau' = 1 and each (y', tau') once per tau, (2w - 3) tau' != 1
    # over the adjacent transpositions and the w-cycle, each on all of Hom(w - 1, n)
    act, calls = catlie._act_in_terms, []

    def counting(bm, sigma):
        calls.append((bm, sigma))
        return act(bm, sigma)

    monkeypatch.setattr(mudelta, "_act_in_terms", counting)
    total = 0
    for w in range(2, 7):
        for n in range(3):
            for tau in _taus(w):
                calls.clear()
                delta1_act_in_columns(w, n, tau, range(delta1_dim(w, n)))
                assert tuple(range(1, w)) not in {sigma for _, sigma in calls}, (w, n, tau)
                assert len(set(calls)) == len(calls), (w, n, tau)
                total += len(calls)
    assert total == sum((2 * w - 3) * hom_dim(w - 1, n) for w in range(3, 7) for n in range(3))
    assert total == 1361


def _check_act_in_numberings(m, n):
    """The number of (representative, tau) pairs of delta1(m, n), tau in `_taus(m)`,
    on which the two numberings of `mudelta._delta1_cut_act_in` agree: each entry
    {number: {sigma: c}} of the Z[S_n] row `_delta1_orbit_rows` of (a, y'), spread to
    the basis element sigma . rep, rep the representative with that number, gives
    the `delta1_act_in_columns` column of (a, y')."""
    index = delta1_basis(m, n)[2]
    reps = [(a, BasisMorphism(m - 1, n, g, trees))
            for _, g, a in _delta1_value_lists(m, n) for trees in tree_tuples(g, n)]
    basis = [BasisMorphism(m, n + 1, y.f[:a - 1] + (n + 1,) + y.f[a - 1:], y.trees + (0,))
             for a, y in reps]
    count = 0
    for tau in _taus(m):
        columns = delta1_act_in_columns(m, n, tau, [index[bm] for bm in basis])
        rows = mudelta._delta1_orbit_rows(m, n, tau, dict(enumerate(reps)))
        for j, bm in enumerate(basis):
            spread = {}
            for number, entry in rows[j].items():
                rep = basis[number]
                for sigma, c in entry.items():
                    moved = BasisMorphism(m, n + 1, tuple(sigma[v - 1] if v <= n else v for v in rep.f),
                                          tuple(rep.trees[sigma.index(k)] for k in range(1, n + 1))
                                          + (0,))
                    spread[index[moved]] = spread.get(index[moved], 0) + c
            assert spread == columns[index[bm]], (m, n, tau, bm)
            count += 1
    return count


def test_orbit_rows_and_block_columns_agree():
    # the Z[S_n] rows of the representatives and the basis columns are two numberings
    # of one reading of tau, compared on every representative of delta1(w, n), w <= 6,
    # under its w taus, tau' != 1 included
    count = sum(_check_act_in_numberings(w, n) for w in range(1, 7) for n in range(w))
    assert count == sum(w * delta1_dim(w, n) // factorial(n) for w in range(1, 7) for n in range(w))
    assert count == 5039


def test_h1_generators_act_on_one_input_less(monkeypatch):
    # through the cut, the S_5 action on delta1(5, 2) is read off Hom(4, 2) alone
    act, seen = catlie._act_in_terms, set()

    def recording(bm, tau):
        seen.add((bm.m, len(tau)))
        return act(bm, tau)

    for mod in (catlie, mudelta, schur_oracle):
        monkeypatch.setattr(mod, "_act_in_terms", recording)
    m1 = schur_oracle.h_modules.__wrapped__(5, 2)[1]
    assert m1.dim and m1.character
    m1.act((2, 3, 4, 5, 1))
    assert seen == {(4, 4)}


def test_centrality_small_cells():
    assert check_centrality(3, 2)
    assert check_centrality(3, 3)   # S_n-equivariance case
    assert check_centrality(2, 3)   # vacuous: zero hom space
    assert check_centrality(0, 0)


def test_centrality_sides_match_both_composites():
    # the sides glued through the output cut, against the definitions, for every
    # basis phi of Hom(n, t) with n <= 5
    mudelta._centrality_pieces.cache_clear()
    count = 0
    for n in range(6):
        for t in range(n + 1):
            for bm in hom_basis(n, t):
                phi = HomElem.from_basis(bm)
                lhs, rhs = mudelta._centrality_sides(bm)
                assert HomElem(n + 1, t, lhs) == compose(phi, mu(n)), bm
                assert HomElem(n + 1, t, rhs) == compose(mu(t), boxplus(phi, identity(1))), bm
                count += 1
    assert count == 801
    assert mudelta._centrality_pieces.cache_info().currsize == 34   # (fiber size, tree) pairs


def test_centrality_fails_on_a_sign_error_in_one_piece(monkeypatch):
    pieces = mudelta._centrality_pieces

    def wrong(k, tree):
        lhs, rhs = pieces(k, tree)
        if (k, tree) != (3, 1):
            return lhs, rhs
        j = min(rhs)
        return lhs, {**rhs, j: -rhs[j]}

    monkeypatch.setattr(mudelta, "_centrality_pieces", wrong)
    assert not check_centrality(3, 1) and not check_centrality(4, 2)
    assert check_centrality(3, 2) and check_centrality(4, 3)   # no fiber of size 3


def test_centrality_composes_only_one_output_morphisms(monkeypatch):
    # through the cut, every composite lands in Hom(k+1, 1)
    compose_basis, targets = catlie.compose_basis, []

    def recording(g, f):
        targets.append(g.n)
        return compose_basis(g, f)

    monkeypatch.setattr(catlie, "compose_basis", recording)
    mudelta._centrality_pieces.cache_clear()
    compose_basis.cache_clear()
    assert all(check_centrality(5, t) for t in range(6))
    assert targets and set(targets) == {1}


def test_centrality_rejects_negative_arities():
    for cell in [(-1, 0), (2, -1), (0, -1)]:
        with pytest.raises(ValueError, match="arities must be >= 0"):
            check_centrality(*cell)


def test_centrality_generator_case():
    # phi = mu(1) boxplus (t-1): the Jacobi-derived case of the proof
    for t in (1, 2, 3):
        phi = boxplus(mu(1), identity(t - 1))
        lhs = compose(phi, mu(t + 1))
        rhs = compose(mu(t), boxplus(phi, identity(1)))
        assert lhs == rhs


def test_lie_action_small():
    assert check_lie_action(0)
    assert check_lie_action(1)
    assert check_lie_action(2)
    assert check_lie_action(3)


def test_dg_square_small_and_generator_pair():
    assert check_dg_square(3, 2, 1)
    assert check_dg_square(4, 3, 2)
    assert check_dg_square(2, 1, 0)   # includes zero-domain cells
    for n in (2, 3):
        lhs = delta1_act_right(iota(n), mu_tilde_1(iota(n + 1)))
        rhs = delta1_act_left(mu_tilde_1(iota(n)), iota(n + 1))
        expect = project_delta1(boxplus(mu(n - 1), identity(1)))
        assert lhs == rhs == expect


def test_dg_square_reads_the_certified_columns(monkeypatch):
    # mu_tilde_1 comes from mu_tilde_1_column, which ce_to_dgcat certifies; the
    # composite with mu is read nowhere else
    def no_composite(w):
        raise AssertionError("mu_tilde composed on Hom(%d, %d)" % (w.m, w.n))

    monkeypatch.setattr(mudelta, "mu_tilde", no_composite)
    assert check_dg_square(4, 3, 2) and check_dg_square(3, 2, 1)


def _negated(coords):
    return {i: -c for i, c in coords.items()}


def test_dg_square_fails_on_a_sign_error_in_the_left_action(monkeypatch):
    # check_dg_square runs the left composite behind delta1_act_left, so a bug in
    # the public action must fail the check
    composite = mudelta._left_composite
    monkeypatch.setattr(mudelta, "_left_composite", lambda g, y: _negated(composite(g, y)))
    z = iota(4)
    assert delta1_act_left(identity(3), z) == -z
    assert not check_dg_square(4, 3, 2)


def _negated_term(term):
    return lambda x: _negated(term(x))


def test_dg_square_fails_on_a_sign_error_in_the_right_action(monkeypatch):
    # the mirror of the left-action mutant: check_dg_square runs the right
    # term behind delta1_act_right
    right_term = mudelta._right_term
    monkeypatch.setattr(mudelta, "_right_term",
                        lambda F, b, t: _negated_term(right_term(F, b, t)))
    z = iota(4)
    assert delta1_act_right(z, identity(4)) == -z
    assert not check_dg_square(4, 3, 2)


def test_dg_square_fails_on_one_wrong_left_composite(monkeypatch):
    # flip g o y' for the one y' = identity of Hom(3, 3): only the delta1(4, 3)
    # elements (a, y') with that y' are acted on wrongly
    composite, ident = mudelta._left_composite, hom_basis(3, 3)[0]
    assert ident == BasisMorphism(3, 3, (1, 2, 3), (0, 0, 0))
    monkeypatch.setattr(mudelta, "_left_composite",
                        lambda g, y: _negated(composite(g, y)) if y == ident else composite(g, y))
    z = iota(4)                                    # (4, identity of Hom(3, 3))
    assert delta1_act_left(identity(3), z) == -z
    for a, k, sign in [(1, 0, -1), (2, 0, -1), (4, 1, 1), (1, 5, 1)]:   # (a, hom_basis(3, 3)[k])
        w = Delta1Elem(4, 3, {mudelta._delta1_indices(4, 3, a)[k]: 1})
        assert delta1_act_left(identity(3), w) == w.scale(sign), (a, k)
    assert not check_dg_square(4, 3, 2)


def test_dg_square_fails_on_one_wrong_right_term(monkeypatch):
    # flip the right term of the one pair (b, F) = (1, the first F of Hom(4, 3)
    # that some mu_tilde(y) reaches): x . F is wrong for the x with lone input 1
    # and right for every other x
    right_term = mudelta._right_term
    F = hom_basis(4, 3)[min(mudelta.mu_tilde_1_column(4, 3, 0))]
    monkeypatch.setattr(mudelta, "_right_term",
                        lambda G, b, t: _negated_term(right_term(G, b, t)) if (G, b) == (F, 1)
                        else right_term(G, b, t))
    f, seen = HomElem.from_basis(F), set()
    for s in range(delta1_dim(3, 2)):
        x = Delta1Elem(3, 2, {s: 1})
        (b,), _, _ = mudelta._cut(delta1_basis(3, 2)[1][s], 3)
        want = pi(compose(include_delta1(x), f))
        got = delta1_act_right(x, f)
        assert (got == want) == (b != 1 or want.is_zero()), (s, b)
        seen.add((b, got == want))
    assert (1, False) in seen and (2, True) in seen
    assert not check_dg_square(4, 3, 2)


def _pairwise_dg_square(m, n, t):
    """The square-zero check pair by pair, through the definitions of both actions."""
    one = identity(1)
    for i in delta1_basis(n, t)[0]:
        wx = HomElem(n, t + 1, {i: 1})
        mx_plus = boxplus(mu_tilde(wx), one)
        for j in delta1_basis(m, n)[0]:
            wy = HomElem(m, n + 1, {j: 1})
            if pi(compose(wx, mu_tilde(wy))) != project_delta1(compose(mx_plus, wy)):
                return False
    return True


def test_dg_square_matches_the_pairwise_loop():
    cells = [(m, n, t) for m in range(6) for n in range(m + 1) for t in range(n + 1)]
    assert len(cells) == 56
    for cell in cells:
        assert check_dg_square(*cell) == _pairwise_dg_square(*cell), cell


def test_dg_square_rejects_negative_arities():
    for cell in [(-1, 0, 0), (0, -1, 0), (2, 1, -1), (-3, -2, -1)]:
        with pytest.raises(ValueError, match="arities must be >= 0"):
            check_dg_square(*cell)
    # n > m or t > n: zero cells, nothing to check
    assert check_dg_square(1, 2, 0) and check_dg_square(2, 1, 2) and check_dg_square(0, 0, 0)


def test_cut_at_the_last_output_is_the_delta1_bijection():
    # [m] x Hom(m-1, p) -> delta1(m, p): a glued back over output p+1, and
    # cutting at p+1 gives (a, the element of Hom(m-1, p)) back
    for m in range(1, 6):
        for p in range(m):
            _, bms, _ = delta1_basis(m, p)
            back = mudelta._delta1_position(m, p)
            image = []
            for a in range(1, m + 1):
                up = mudelta._glue(m, p, (a,), 0)
                assert len(up) == hom_dim(m - 1, p)
                for rest, k in zip(hom_basis(m - 1, p), up):
                    assert mudelta._cut(bms[back[k]], p + 1) == ((a,), 0, rest)
                    image.append(back[k])
            assert sorted(image) == list(range(delta1_dim(m, p))), (m, p)


def test_act_left_matches_the_definition():
    # (g boxplus 1) o z, projected, for every basis g and basis z with m <= 4
    count = 0
    for m in range(1, 5):
        for n in range(m):
            for p in range(n + 1):
                for gi in range(hom_dim(n, p)):
                    g = HomElem(n, p, {gi: 1})
                    g_plus = boxplus(g, identity(1))
                    for s in range(delta1_dim(m, n)):
                        z = Delta1Elem(m, n, {s: 1})
                        want = project_delta1(compose(g_plus, include_delta1(z)))
                        assert mudelta._act_left(g, z) == want.coords, (m, n, p, gi, s)
                        count += 1
    assert count == 440    # sum of hom_dim(n, p) * delta1_dim(m, n)
    # and on sums, where terms of one lone input share g o y'
    g = HomElem(3, 2, {0: 2, 4: -1})
    z = Delta1Elem(4, 3, {s: s - 7 for s in range(0, delta1_dim(4, 3), 5)})
    want = project_delta1(compose(boxplus(g, identity(1)), include_delta1(z)))
    assert delta1_act_left(g, z) == want and not want.is_zero()


def test_act_right_matches_the_definition():
    # pi(z o f) for every basis z of delta1(n, t) and basis f of Hom(m, n), m <= 4,
    # and (m, n) = (5, 3), where f has a tree index > 0 beside the output it is cut at
    count = 0
    for m, n in [(m, n) for m in range(5) for n in range(1, m + 1)] + [(5, 3)]:
        for t in range(n):
            for s in range(delta1_dim(n, t)):
                z = Delta1Elem(n, t, {s: 1})
                for fi in range(hom_dim(m, n)):
                    f = HomElem(m, n, {fi: 1})
                    want = pi(compose(include_delta1(z), f))
                    assert mudelta._act_right(z, f) == want.coords, (m, n, t, s, fi)
                    count += 1
    assert count == 1792 + 1890    # sum of delta1_dim(n, t) * hom_dim(m, n)
    f = HomElem(4, 2, {i: i % 3 - 1 for i in range(hom_dim(4, 2))})
    z = Delta1Elem(2, 1, {0: 3, 1: -2})
    want = pi(compose(include_delta1(z), f))
    assert delta1_act_right(z, f) == want and not want.is_zero()


def test_delta1_actions_reject_non_hom_factors():
    z = Delta1Elem(3, 1, {0: 1})
    for call in (lambda: delta1_act_right(z, Delta1Elem(4, 3, {0: 1})),
                 lambda: delta1_act_left(Delta1Elem(1, 0, {0: 1}), z),
                 lambda: delta1_act_left(None, z)):
        with pytest.raises(TypeError, match="expected a HomElem"):
            call()


def test_iota_generates_delta1():
    # left orbit of iota_m under Hom(m-1, n), swept by the right
    # symmetric action, spans delta1(m, n)
    for (m, n) in [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3)]:
        target = delta1_dim(m, n)
        ech = Echelon()
        for bm in hom_basis(m - 1, n):
            z = delta1_act_left(HomElem.from_basis(bm), iota(m))
            for s in range(1, m + 1):
                tau = list(range(1, m + 1))
                tau[s - 1], tau[m - 1] = tau[m - 1], tau[s - 1]
                ech.add(delta1_act_in(z, tuple(tau)).coords)
        assert ech.rank == target, (m, n)


def test_bracket_leaf_matches_normalize_tree():
    # [T, a] for every comb T with <= 6 leaves, a at every position among its
    # labels, against the tensor-expansion reading (`tensor_coords`) and
    # normalize_tree, which reads [T, a] by the same comb rule
    sizes = {True: 0, False: 0}
    for k in range(1, 7):
        labels = tuple(range(1, k + 2))
        positions = freelie.comb_index(labels)
        for a in labels:
            rest = tuple(x for x in labels if x != a)
            for tail in itertools.permutations(rest[1:]):
                word = (rest[0],) + tail
                terms = freelie.bracket_leaf(word, a)
                assert len(terms) == (2 ** (k - 1) if a < word[0] else 1)
                sizes[a < word[0]] += 1
                got = {positions[w[1:]]: c for c, w in terms}
                assert len(got) == len(terms)
                tree = (comb(word), a)
                assert got == tensor_coords(tree) == freelie.normalize_tree(tree), (word, a)
    assert sizes == {True: 154, False: 873}
    # a below every label of a prefix whose head is not its least label, as in
    # catlie.act_in up to m = 6
    headless = 0
    for k in range(2, 6):
        labels = tuple(range(1, k + 2))
        positions = freelie.comb_index(labels)
        for word in itertools.permutations(labels[1:]):
            if word[0] == 2:
                continue
            terms = freelie.bracket_leaf(word, 1)
            got = {positions[w[1:]]: c for c, w in terms}
            assert len(got) == len(terms) == 2 ** (k - 1)
            tree = (comb(word), 1)
            assert got == tensor_coords(tree) == freelie.normalize_tree(tree), word
            headless += 1
    assert headless == 1 + 4 + 18 + 96


def test_bracket_leaf_table_is_bracket_leaf_on_any_label_set():
    # every (k, t, r) with k <= 6, on seeded increasing label sets besides 1..k+1
    rng = random.Random(23)
    entries = 0
    for k in range(1, 7):
        label_sets = [tuple(range(1, k + 2))]
        label_sets += [tuple(sorted(rng.sample(range(-20, 40), k + 1))) for _ in range(3)]
        for r in range(1, k + 2):
            assert len(freelie.bracket_leaf_table(k, r)) == freelie.lie_dim(k)
        for t in range(freelie.lie_dim(k)):
            for r in range(1, k + 2):
                entry = freelie.bracket_leaf_table(k, r)[t]
                for labels in label_sets:
                    a, rest = labels[r - 1], labels[:r - 1] + labels[r:]
                    positions = freelie.comb_index(labels)
                    word = freelie.leaves(freelie.lie_basis(rest)[t])
                    want = tuple((positions[w[1:]], c) for c, w in freelie.bracket_leaf(word, a))
                    assert entry == want, (k, t, r, labels)
                entries += 1
    assert entries == 187 + 840


def test_mu_tilde_1_closed_form_matches_composition_m6():
    elements = 0
    branches = {True: 0, False: 0}         # a < h_j, per (element, output j)
    for m in range(7):
        for n in range(m + 1):
            for s, bm in enumerate(delta1_basis(m, n)[1]):
                z = Delta1Elem(m, n, {s: 1})
                assert mu_tilde_1(z) == compose(mu(n), include_delta1(z)), (m, n, s)
                a = bm.f.index(n + 1) + 1
                for fiber in catlie.fibers(bm.f, n + 1)[:n]:
                    branches[a < fiber[0]] += 1
                elements += 1
    assert elements == 4672
    assert branches[True] and branches[False]


def _mu_tilde_1_column_per_term(m, n, s):
    """mu_tilde_1 of the delta1(m, n) basis element s with one `freelie.bracket_leaf`
    call per output on the fiber's own labels, each comb looked up by `comb_index`
    over the fiber and a, and each term in `hom_index`: the per-element reading
    that `freelie.bracket_leaf_table` replaces."""
    y = delta1_basis(m, n)[1][s]
    a, ts, index, out = y.f.index(n + 1) + 1, y.trees, catlie.hom_index(m, n), {}
    for j, fib in enumerate(catlie.fibers(y.f, n + 1)[:n]):
        positions = freelie.comb_index(sorted(fib + (a,)))
        f = y.f[:a - 1] + (j + 1,) + y.f[a:]
        for c, w in freelie.bracket_leaf(freelie.leaves(freelie.lie_basis(fib)[ts[j]]), a):
            out[index[BasisMorphism(m, n, f, ts[:j] + (positions[w[1:]],) + ts[j + 1:n])]] = c
    return out


def test_mu_tilde_1_columns_equal_the_per_term_reading_in_order():
    elements = 0
    for m in range(7):
        for n in range(m + 1):
            for s in range(delta1_dim(m, n)):
                got = mudelta.mu_tilde_1_column(m, n, s)
                assert list(got.items()) == list(_mu_tilde_1_column_per_term(m, n, s).items()), \
                    (m, n, s)
                elements += 1
    assert elements == 4672


def test_mu_tilde_1_columns_are_left_intact():
    # dgcat feeds the cached columns to its echelons and to kernel
    m, n = 5, 3
    dgcat._block_ranks.__wrapped__(m, n)
    dgcat._cell_boundaries.__wrapped__(m, n)
    dgcat._cell_kernel.__wrapped__(m, n)
    for s in range(delta1_dim(m, n)):
        assert mudelta.mu_tilde_1_column(m, n, s) == mudelta.mu_tilde_1_column.__wrapped__(m, n, s), s


def test_mu_tilde_1_composes_nothing(monkeypatch):
    def forbidden(*args):
        raise AssertionError("mu_tilde_1 composed or normalized a tree")

    for mod, name in [(catlie, "compose"), (catlie, "compose_basis"), (mudelta, "compose"),
                      (freelie, "graft"), (freelie, "normalize_tree")]:
        monkeypatch.setattr(mod, name, forbidden)
    mudelta.mu_tilde_1_column.cache_clear()
    for n in range(6):
        for s in range(delta1_dim(5, n)):
            mu_tilde_1(Delta1Elem(5, n, {s: 1}))


def test_delta1_maps_reject_hom_elements():
    w = HomElem(3, 1, {0: 1})
    for call in (lambda: mu_tilde_1(w), lambda: include_delta1(w),
                 lambda: delta1_act_left(identity(1), w),
                 lambda: delta1_act_right(w, identity(3)),
                 lambda: delta1_act_in(w, (2, 1, 3))):
        with pytest.raises(TypeError, match="Delta1Elem"):
            call()


@pytest.fixture
def fresh_columns():
    mudelta.mu_tilde_1_column.cache_clear()
    yield
    mudelta.mu_tilde_1_column.cache_clear()


def test_mu_compat_certifies_the_closed_form(monkeypatch, fresh_columns):
    assert suite_mudelta(5, 0, 0) == (True, 56)
    table = mudelta.bracket_leaf_table

    def wrong_sign(k, r):
        # r = 1: a is below the head of T, the 2^(k-1)-comb branch of bracket_leaf
        terms = table(k, r)
        return tuple(tuple((p, -c) for p, c in entry) for entry in terms) if r == 1 else terms

    monkeypatch.setattr(mudelta, "bracket_leaf_table", wrong_sign)
    mudelta.mu_tilde_1_column.cache_clear()
    rep = cecomplex.ce_to_dgcat(3, 1)
    assert rep["retraction"] and not rep["mu_compat"]
    ok, cases = suite_mudelta(5, 0, 0)
    assert not ok and cases < 56
