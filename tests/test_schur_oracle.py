import itertools

import pytest

from lieprop import dgcat, freelie, schur_oracle
from lieprop.catlie import HomElem, compose, hom_dim, perm_hom
from lieprop.exactla import Echelon, axpy
from lieprop.mudelta import delta1_basis, include_delta1, project_delta1
from lieprop.schur_oracle import (SwModule, _bracket_coords, _peel, compositions,
                                  cross_check, h_modules, is_lyndon, lyndon_bracketing,
                                  lyndon_words, necklace_dim, schur_dim,
                                  weight_basis, weighted_complex_homology)
from test_exactla import _gauss_jordan_kernel, _gauss_jordan_solutions


def test_necklace_values():
    assert [necklace_dim(2, w) for w in range(1, 7)] == [2, 1, 2, 3, 6, 9]
    assert necklace_dim(1, 1) == 1
    assert necklace_dim(1, 2) == 0
    assert necklace_dim(3, 2) == 3


def test_necklace_dim_rejects_weight_below_one():
    for w in (0, -1):
        with pytest.raises(ValueError, match="need w >= 1"):
            necklace_dim(2, w)


def test_lyndon_words_over_no_letters():
    for w in range(1, 5):
        assert lyndon_words(0, w) == [] and necklace_dim(0, w) == 0


def test_lyndon_words_match_necklace_counts():
    for d in (1, 2, 3):
        for w in range(1, 7):
            words = lyndon_words(d, w)
            assert len(words) == necklace_dim(d, w)
            assert all(is_lyndon(u) for u in words)
            assert words == sorted(words)


def test_lyndon_bracketing_structure():
    assert lyndon_bracketing((1,)) == 1
    assert lyndon_bracketing((1, 2)) == (1, 2)
    assert lyndon_bracketing((1, 1, 2)) == (1, (1, 2))
    assert lyndon_bracketing((1, 2, 2)) == ((1, 2), 2)


def test_weight_basis_expansions_independent():
    # distinct leading words, each with coefficient 1 and below every other
    # word of its expansion: the expansions are triangular, so independent
    for d in (2, 3):
        for w in range(1, 5):
            trees, lead = weight_basis(d, w)
            assert len(trees) == necklace_dim(d, w) == len(lead)
            assert list(lead) == lyndon_words(d, w)
            for word, (b, expansion) in lead.items():
                assert trees[b] == lyndon_bracketing(word)
                assert min(expansion) == word and expansion[word] == 1


def test_lyndon_bracketing_leads_with_its_word():
    count = 0
    for d in (1, 2, 3):
        for w in range(1, 8):
            for word, (b, expansion) in weight_basis(d, w)[1].items():
                assert expansion == freelie.expand(lyndon_bracketing(word))
                assert min(expansion) == word and expansion[word] == 1, word
                count += 1
    assert count == 550


def test_peel_matches_gauss_jordan_solve():
    count = 0
    for d in (1, 2, 3):
        for w in range(1, 7):
            # reference: the weight-(w + 1) Lyndon trees, expanded, as the basis of
            # one dense Gauss-Jordan solve of every bracket [T, a] with T of weight w
            basis = [freelie.expand(lyndon_bracketing(word)) for word in lyndon_words(d, w + 1)]
            assert _gauss_jordan_kernel(basis) == []
            cases = [(tree, letter) for tree in weight_basis(d, w)[0]
                     for letter in range(1, d + 1)]
            wants = _gauss_jordan_solutions(basis, [freelie.expand(case) for case in cases])
            for (tree, letter), want in zip(cases, wants):
                got = _bracket_coords(d, w, tree, letter)
                assert got == want, (d, w, tree, letter)
                assert all(type(c) is int for c in got.values())
                count += 1
    assert count == 635


def test_peel_raises_outside_the_lie_span():
    lead2 = weight_basis(2, 2)[1]
    with pytest.raises(AssertionError, match="escaped the Lyndon span"):
        _peel({(1, 1): 1}, lead2)
    # the symmetric tensor 12 + 21: peeling [1, 2] leaves 2 * 21
    with pytest.raises(AssertionError, match="escaped the Lyndon span"):
        _peel({(1, 2): 1, (2, 1): 1}, lead2)
    assert _peel({(1, 2): 3, (2, 1): -3}, lead2) == {0: 3}
    # trees that are not basis trees of their weight: 21 is not Lyndon, and
    # 112 is, but its basis tree is [1, [1, 2]]
    assert (1, (1, 2)) in weight_basis(2, 3)[0]
    for w, tree in ((2, (2, 1)), (3, ((1, 1), 2))):
        with pytest.raises(ValueError, match="not a Lyndon basis tree"):
            _bracket_coords(2, w, tree, 1)


def test_compositions():
    assert compositions(3, 2) == [(1, 2), (2, 1)]
    assert compositions(0, 0) == [()]
    assert compositions(2, 0) == []
    assert compositions(2, 3) == []


def test_negative_parts_raise_value_error():
    for call in (lambda: compositions(2, -1), lambda: weighted_complex_homology(2, -1, 2),
                 lambda: cross_check(2, -1, 2)):
        with pytest.raises(ValueError, match="need parts >= 0"):
            call()


def test_weighted_homology_n0():
    for d in (1, 2, 3):
        assert weighted_complex_homology(d, 0, 1) == (0, d)
        for w in (2, 3):
            assert weighted_complex_homology(d, 0, w) == (0, 0)


def test_weighted_homology_rank_one_cases():
    # d = 1: the free Lie algebra is one-dimensional in weight 1; the
    # only homology is H0 in weight 1 (trivial coefficients) and H1 in
    # weight 2 (the vanishing bracket [x, x])
    assert weighted_complex_homology(1, 1, 1) == (1, 0)
    assert weighted_complex_homology(1, 1, 2) == (0, 1)
    assert weighted_complex_homology(1, 1, 3) == (0, 0)


def test_weighted_homology_212():
    # explicit matrices: V (x) V -> Lie_2, kernel 3 (sym square), image 1
    assert weighted_complex_homology(2, 1, 2) == (0, 3)


def test_schur_dim_trivial_module():
    triv = SwModule(1, 1, lambda tau: [{0: 1}])
    for d in (1, 2, 3):
        assert schur_dim(triv, d) == d


def _regular_module(w):
    perms = list(itertools.permutations(range(1, w + 1)))
    index = {p: i for i, p in enumerate(perms)}

    def act(tau):
        rows = []
        for p in perms:
            q = tuple(p[t - 1] for t in tau)  # right multiplication
            rows.append({index[q]: 1})
        return rows

    return SwModule(w, len(perms), act)


def _act_sgn(tau):
    # adjacent transpositions act by -1
    return [{0: -1}]


def _orbit_schur_dim(module, d):
    """Reference: one relation echelon per S_w-orbit of words, with the
    orbit of each sorted word taken directly (no grouping by partition)."""
    w, dim = module.w, module.dim
    total = 0
    for rep in itertools.combinations_with_replacement(range(1, d + 1), w):
        ech = Echelon()
        for pos in range(w - 1):
            if rep[pos] == rep[pos + 1]:
                tau = list(range(1, w + 1))
                tau[pos], tau[pos + 1] = tau[pos + 1], tau[pos]
                mat = module.act(tau)
                for r in range(dim):
                    ech.add(axpy(dict(mat[r]), {r: 1}, -1))
        total += dim - ech.rank
    return total


def test_schur_dim_regular_module():
    # regular representation of S_w: M (x)_{S_w} V^{(x) w} is free of
    # rank one, so the dimension is d^w
    for w in (2, 3):
        reg = _regular_module(w)
        for d in (1, 2, 3):
            assert schur_dim(reg, d) == d ** w


def test_schur_dim_partition_formula_matches_orbit_loop():
    for w in range(1, 6):
        for n in range(0, 3):
            for module in h_modules(w, n):
                for d in (1, 2, 3):
                    assert schur_dim(module, d) == _orbit_schur_dim(module, d), (w, n, d)
    for module in (_regular_module(4), SwModule(4, 1, _act_sgn)):
        for d in (1, 2, 3, 4, 5):
            assert schur_dim(module, d) == _orbit_schur_dim(module, d)
    assert schur_dim(_regular_module(4), 3) == 3 ** 4
    assert schur_dim(SwModule(4, 1, _act_sgn), 5) == 5  # exterior fourth power of Q^5


def test_schur_dim_w6_matches_orbit_loop():
    for n in range(0, 3):
        for module in h_modules(6, n):
            for d in (0, 1, 2, 3):
                assert schur_dim(module, d) == _orbit_schur_dim(module, d), (n, d)


def test_schur_dim_rejects_negative_d():
    modules = [SwModule(2, 1, _act_sgn), _regular_module(3), *h_modules(4, 2)]
    for module in modules:
        with pytest.raises(ValueError):
            schur_dim(module, -1)
        assert schur_dim(module, 0) == 0


def _scattered(rho):
    """The consecutive-block permutation of cycle type rho conjugated by
    g = (1, 3, 5, ..., 2, 4, ...), which spreads its cycles apart: (2, 1)
    gives the transposition (1 3), not s1."""
    w = sum(rho)
    g = list(range(1, w + 1, 2)) + list(range(2, w + 1, 2))
    cycle = []
    start = 0
    for size in rho:
        cycle += [start + (k + 1) % size + 1 for k in range(size)]
        start += size
    sigma = [0] * w
    for i in range(w):
        sigma[g[i] - 1] = g[cycle[i] - 1]
    return tuple(sigma)


def test_character_certificates():
    assert _scattered((2, 1)) == (3, 2, 1)
    calls = []
    reg = _regular_module(4)
    recorded = SwModule(4, reg.dim, lambda tau: calls.append(tau) or reg.act(tau))
    assert recorded.character == reg.character
    assert sorted(calls) == [(1, 2, 4, 3), (1, 3, 2, 4), (2, 1, 3, 4)]
    modules = [reg] + [m for w in range(1, 6) for n in range(0, 3) for m in h_modules(w, n)]
    for module in modules:
        w, chi = module.w, module.character
        assert all(type(v) is int for v in chi.values())
        assert chi[(1,) * w] == module.dim
        for rho, value in chi.items():
            mat = module.act(_scattered(rho))
            assert sum(row.get(r, 0) for r, row in enumerate(mat)) == value, (w, rho)
    assert reg.character == {rho: (24 if rho == (1, 1, 1, 1) else 0) for rho in reg.character}


def test_schur_dim_sign_module():
    sgn2 = SwModule(2, 1, _act_sgn)
    assert schur_dim(sgn2, 1) == 0
    assert schur_dim(sgn2, 2) == 1  # exterior square of Q^2


def test_schur_dim_matches_literal_relation_rank():
    # dual route: global balancing-relation rank over M (x) V^{(x) w}
    def literal(module, d):
        w, dim = module.w, module.dim
        words = list(itertools.product(range(1, d + 1), repeat=w))
        windex = {u: i for i, u in enumerate(words)}
        gens = []
        for pos in range(w - 1):
            tau = list(range(1, w + 1))
            tau[pos], tau[pos + 1] = tau[pos + 1], tau[pos]
            gens.append(tuple(tau))
        ech = Echelon()
        for tau in gens:
            mat = module.act(tau)
            for r in range(dim):
                for u in words:
                    # m_r . tau (x) u  -  m_r (x) tau . u
                    row = {}
                    for c, v in mat[r].items():
                        row[c * len(words) + windex[u]] = v
                    tu = tuple(u[tau[k] - 1] for k in range(w))
                    j = r * len(words) + windex[tu]
                    row[j] = row.get(j, 0) - 1
                    ech.add(row)
        return dim * len(words) - ech.rank

    sgn3 = SwModule(3, 1, _act_sgn)
    for d in (1, 2, 3):
        assert schur_dim(sgn3, d) == literal(sgn3, d)

    m0, m1 = h_modules(3, 1)
    for d in (1, 2):
        assert schur_dim(m0, d) == literal(m0, d)
        assert schur_dim(m1, d) == literal(m1, d)


def test_cross_check_vanishing_cells():
    # w < n makes every hom cell vanish; both sides must agree on (0, 0)
    assert weighted_complex_homology(2, 3, 2) == (0, 0)
    assert cross_check(2, 3, 2)


def test_cross_check_examples():
    assert cross_check(2, 1, 2)
    assert cross_check(2, 2, 3)
    assert cross_check(1, 1, 1)
    assert cross_check(3, 2, 3)


def test_cross_check_small_grid():
    for d in (1, 2):
        for n in range(0, 3):
            for w in range(1, 4):
                assert cross_check(d, n, w), (d, n, w)


def test_cross_check_oracle_grid():
    # the whole d <= 3, n <= 2, w <= 6 grid of the oracle benchmark workload
    for d in (1, 2, 3):
        for n in range(0, 3):
            for w in range(1, 7):
                assert cross_check(d, n, w), (d, n, w)


def _reference_generators(w, n):
    """{tau: (H0 matrix, H1 matrix)} over the adjacent transpositions and, for
    w >= 3, the w-cycle (2, 3, ..., w, 1), which is not its own inverse, by
    composition with perm_hom(tau) and one dense Gauss-Jordan solve of all the
    images against the kernel basis."""
    cell = dgcat.homology_cell(w, n)
    reps = [i for i in range(hom_dim(w, n)) if i not in cell.boundaries.pivot_cols]
    rep_pos = {i: r for r, i in enumerate(reps)}
    ker = [z.coords for z in cell.kernel]
    assert _gauss_jordan_kernel(ker) == []
    taus = [tuple(range(1, pos)) + (pos + 1, pos) + tuple(range(pos + 2, w + 1))
            for pos in range(1, w)]
    taus += [tuple(range(2, w + 1)) + (1,)] if w >= 3 else []
    images = [project_delta1(compose(include_delta1(z), perm_hom(tau))).coords
              for tau in taus for z in cell.kernel]
    m1s = _gauss_jordan_solutions(ker, images)
    out = {}
    for t, tau in enumerate(taus):
        p = perm_hom(tau)
        m0 = [{rep_pos[j]: c for j, c in cell.boundaries.reduce(
            compose(HomElem(w, n, {i: 1}), p).coords).items()} for i in reps]
        out[tau] = (m0, m1s[t * len(ker):(t + 1) * len(ker)])
    return out


def test_generator_matrices_match_composition_and_gauss_jordan_solve():
    count = 0
    for w in range(1, 7):
        for n in range(3):
            m0, m1 = h_modules(w, n)
            for tau, (want0, want1) in _reference_generators(w, n).items():
                assert m0.act(tau) == want0, (w, n, tau)
                assert m1.act(tau) == want1, (w, n, tau)
                count += 2
    assert count == 114


def test_h1_read_rejects_an_image_outside_the_kernel(monkeypatch):
    # a sign error in the action on delta1, on the basis elements whose lone
    # input is 1: the image leaves the kernel span (a sign flip of every
    # column would not, since it is minus the action)
    column = schur_oracle.delta1_act_in_column

    def wrong_sign(m, n, s, tau):
        image = column(m, n, s, tau)
        if delta1_basis(m, n)[1][s].f[0] == n + 1:
            return {j: -c for j, c in image.items()}
        return image

    monkeypatch.setattr(schur_oracle, "delta1_act_in_column", wrong_sign)
    m1 = h_modules.__wrapped__(4, 2)[1]
    assert m1.dim
    with pytest.raises(AssertionError, match="not S_w-stable"):
        m1.act((2, 1, 3, 4))


def test_act_rejects_non_permutations_and_accepts_lists():
    m0, m1 = h_modules(3, 1)
    assert m0.dim == 0
    for module in (m0, m1, _regular_module(3)):
        for tau in ((2, 1), (1, 1, 3), (1, 2, 3, 4), (0, 1, 2)):
            with pytest.raises(ValueError, match="not a permutation of 1..3"):
                module.act(tau)
        assert module.act([2, 1, 3]) == module.act((2, 1, 3))
