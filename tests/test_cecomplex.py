import hashlib
import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from lieprop import cecomplex
from lieprop.catlie import BasisMorphism, HomElem, compose, hom_basis, hom_dim, hom_index
from lieprop.cli import suite_ce
from lieprop.cecomplex import (ce_basis, ce_diff, ce_dim, ce_homology_dims,
                               ce_to_dgcat, check_H_ce_QSn, coend_relations, coend_with_qsn,
                               coend_yoneda, e_t_apply, naturality_check)
from lieprop.dgcat import homology_cell
from lieprop.exactla import Echelon, axpy, combine
from lieprop.mudelta import mu_tilde


def test_ce_basis_degenerate_degrees():
    assert ce_dim(3, 1, 0) == hom_dim(3, 1)
    assert ce_dim(3, 1, 1) == hom_dim(3, 2)
    assert ce_dim(3, 1, 3) == 0  # n + t > m


def test_ce_basis_rejects_negative_arities():
    for cell in [(2, 1, -1), (-1, 0, 0), (2, -1, 1)]:
        for call in (ce_basis, ce_dim):
            with pytest.raises(ValueError, match="arities must be >= 0"):
                call(*cell)


def test_ce_diff_e_t_apply_and_homology_reject_negative_arities():
    w = HomElem(3, 2, {0: 1})
    for call in (lambda: ce_diff(3, -1, 3, w), lambda: ce_diff(-1, 0, 1, w),
                 lambda: ce_diff(3, 2, -1, w), lambda: e_t_apply(w, -1, 3),
                 lambda: e_t_apply(w, 3, -1), lambda: ce_homology_dims(-1, 0),
                 lambda: ce_homology_dims(2, -1)):
        with pytest.raises(ValueError, match="arities must be >= 0"):
            call()


def test_ce_dim_is_the_basis_size_m6():
    for m in range(7):
        for n in range(m + 1):
            for t in range(m - n + 2):
                assert ce_dim(m, n, t) == len(ce_basis(m, n, t)), (m, n, t)


def _perm_sign(sigma):
    """(-1)^(t - number of cycles) for sigma in one-line notation on 1..t."""
    cycles, seen = 0, set()
    for start in range(1, len(sigma) + 1):
        if start not in seen:
            cycles += 1
            while start not in seen:
                seen.add(start)
                start = sigma[start - 1]
    return (-1) ** (len(sigma) - cycles)


def _tail_permuted(bm, n, sigma):
    """bm with output n+k moved to n+sigma[k-1], each tree moving with its fiber."""
    full = tuple(range(1, n + 1)) + tuple(n + v for v in sigma)
    trees = [0] * bm.n
    for j, tree in zip(full, bm.trees):
        trees[j - 1] = tree
    return BasisMorphism(bm.m, bm.n, tuple(full[v - 1] for v in bm.f), tuple(trees))


def _e_t_by_definition(w, n, t):
    """Reference e_t: the explicit sum over the t! permutations of the last t outputs."""
    basis, index = hom_basis(w.m, w.n), hom_index(w.m, w.n)
    out = {}
    for sigma in itertools.permutations(range(1, t + 1)):
        for i, c in w.coords.items():
            axpy(out, {index[_tail_permuted(basis[i], n, sigma)]: c}, _perm_sign(sigma))
    return HomElem(w.m, w.n, {j: Fraction(c, factorial(t)) for j, c in out.items()})


def _ce_diff_by_definition(m, n, t, x):
    """Reference differential: e_{t-1} of the CE formula on every basis morphism of x."""
    basis = hom_basis(m, n + t)
    out = combine(x.coords, lambda i: cecomplex._diff_basis(basis[i], n, t))
    return _e_t_by_definition(HomElem(m, n + t - 1, out), n, t - 1)


def _ce_basis_by_definition(m, n, t):
    """Reference basis: t! e_t of each smallest basis index not in an earlier orbit."""
    out, covered = [], set()
    for i in range(hom_dim(m, n + t)):
        if i not in covered:
            out.append(_e_t_by_definition(HomElem(m, n + t, {i: 1}), n, t).scale(factorial(t)))
            covered.update(out[-1].coords)
    return out


def test_orbit_coordinates_match_the_definition_m5():
    rng = random.Random(16)
    for m in range(6):
        for n in range(m + 1):
            for t in range(m - n + 1):
                basis = ce_basis(m, n, t)
                assert list(basis) == _ce_basis_by_definition(m, n, t), (m, n, t)
                dim = hom_dim(m, n + t)
                # a few elements outside the image of e_t, with rational coefficients
                others = [HomElem(m, n + t, {rng.randrange(dim): Fraction(rng.randint(-4, 4), 3)
                                             for _ in range(3)}) for _ in range(3 if dim else 0)]
                for x in list(basis) + others:
                    assert e_t_apply(x, n, t) == _e_t_by_definition(x, n, t), (m, n, t, x)
                    if t >= 1:
                        assert ce_diff(m, n, t, x) == _ce_diff_by_definition(m, n, t, x), \
                            (m, n, t, x)


def test_alternation_identity_on_basis_morphisms_m4():
    # e_{t-1} D (sigma b) = sgn(sigma) e_{t-1} D (b) on every basis morphism b,
    # for every permutation sigma of the last t outputs
    for m in range(5):
        for n in range(m + 1):
            for t in range(2, m - n + 1):
                index = hom_index(m, n + t)
                for bm in hom_basis(m, n + t):
                    want = _ce_diff_by_definition(m, n, t, HomElem(m, n + t, {index[bm]: 1}))
                    for sigma in itertools.permutations(range(1, t + 1)):
                        moved = HomElem(m, n + t, {index[_tail_permuted(bm, n, sigma)]: 1})
                        assert _ce_diff_by_definition(m, n, t, moved) == want.scale(
                            _perm_sign(sigma)), (bm, sigma)


def test_antisymmetrizer_rank_2_0_2():
    assert ce_dim(2, 0, 2) == 1


def test_projector_idempotent():
    for (m, n, t) in [(2, 0, 2), (3, 0, 2), (3, 1, 2), (3, 0, 3), (4, 1, 2),
                      (4, 0, 3), (4, 2, 2)]:
        for i in range(hom_dim(m, n + t)):
            w = e_t_apply(HomElem(m, n + t, {i: 1}), n, t)
            assert e_t_apply(w, n, t) == w


def test_projector_idempotent_all_cells_m5():
    for m in range(6):
        for n in range(m + 1):
            for t in range(2, m - n + 1):
                for i in range(hom_dim(m, n + t)):
                    w = e_t_apply(HomElem(m, n + t, {i: 1}), n, t)
                    assert e_t_apply(w, n, t) == w


def _ce_basis_by_echelon(m, n, t):
    """Reference: the echelon basis of e_t applied to every basis vector."""
    ech = Echelon()
    for i in range(hom_dim(m, n + t)):
        ech.add(e_t_apply(HomElem(m, n + t, {i: 1}), n, t).coords)
    return [HomElem(m, n + t, dict(row)) for _, row in ech.rows]


def test_ce_basis_is_the_echelon_basis_of_the_image_m5():
    for m in range(6):
        for n in range(m + 1):
            for t in range(m - n + 1):
                ref = _ce_basis_by_echelon(m, n, t)
                got = list(ce_basis(m, n, t))
                assert got == ref, (m, n, t)
                assert [list(x.coords) for x in got] == [list(x.coords) for x in ref]


def test_ce_basis_digest_m6():
    digest = hashlib.sha256()
    for m in range(7):
        for n in range(m + 1):
            for t in range(m - n + 1):
                line = repr((m, n, t, [sorted(x.coords.items()) for x in ce_basis(m, n, t)]))
                digest.update((line + "\n").encode())
    assert digest.hexdigest() == \
        "4d4545d64e9e9d46b2af13726dd25fd7d82cc07b6def872a98dae2cbeccdc67d"


def test_diff_basis_cache_is_read_only(monkeypatch):
    # the differential is cached as one column per orbit representative
    cached = cecomplex._diff_columns
    seen = []

    def recording(m, n, t):
        out = cached(m, n, t)
        seen.append(((m, n, t), out))
        return out

    monkeypatch.setattr(cecomplex, "_diff_columns", recording)
    assert suite_ce(5, 0, 0) == (True, 527)
    assert len(seen) > len({key for key, _ in seen})
    first = {}
    for key, out in seen:
        assert first.setdefault(key, out) is out  # one shared tuple per key
    for key, out in first.items():
        assert out == cached.__wrapped__(*key), key


def test_ce_basis_vectors_are_invariant():
    for (m, n, t) in [(3, 0, 2), (4, 1, 2), (4, 0, 3)]:
        for x in ce_basis(m, n, t):
            assert e_t_apply(x, n, t) == x


def test_t1_differential_is_mu_tilde():
    for (m, n) in [(2, 0), (3, 1), (3, 0), (4, 2)]:
        for i in range(hom_dim(m, n + 1)):
            w = HomElem(m, n + 1, {i: 1})
            assert ce_diff(m, n, 1, w) == mu_tilde(w)


def test_t2_tail_formula_on_split_representative():
    # on Z (x) (x ^ y) with singleton exterior slots the differential is
    # Z.x (x) y - Z.y (x) x - Z (x) [x,y]; build both sides explicitly
    # for the cell (3, 1): Z = leaf over output 1, x, y single leaves
    from lieprop.catlie import BasisMorphism, hom_index

    bm = BasisMorphism(3, 3, (1, 2, 3), (0, 0, 0))
    w = e_t_apply(HomElem.from_basis(bm), 1, 2)
    got = ce_diff(3, 1, 2, w)

    index = hom_index(3, 2)

    def hom_of(f, trees):
        return HomElem(3, 2, {index[BasisMorphism(3, 2, f, trees)]: 1})

    # Z.x (x) y : bracket input 2 onto output 1, input 3 alone
    t1 = hom_of((1, 1, 2), (0, 0))
    # Z.y (x) x : bracket input 3 onto output 1, input 2 alone
    t2 = hom_of((1, 2, 1), (0, 0))
    # Z (x) [x,y] over the second output
    t3 = hom_of((1, 2, 2), (0, 0))
    expect = t1 - t2 - t3
    # w was already antisymmetrized, so d(w) = d applied to the wedge
    assert got == expect


def test_d_squared_zero_m_le_4():
    for m in range(5):
        for n in range(m + 1):
            for t in range(2, m - n + 1):
                for x in ce_basis(m, n, t):
                    assert ce_diff(m, n, t - 1, ce_diff(m, n, t, x)).is_zero()


def test_d_squared_witness_is_none_and_rejects_bad_degrees():
    for m in range(6):
        for n in range(m + 1):
            for t in range(2, m - n + 1):
                assert cecomplex.d_squared_witness(m, n, t) is None
    for cell in [(3, 0, 1), (3, 0, 0)]:
        with pytest.raises(ValueError, match="needs t >= 2"):
            cecomplex.d_squared_witness(*cell)
    with pytest.raises(ValueError, match="arities must be >= 0"):
        cecomplex.d_squared_witness(3, -1, 2)


def test_suite_ce_catches_a_sign_error_in_one_column(monkeypatch):
    # flip one entry of the first column of d_2 at (4, 1), on an index where
    # d_1 is not zero: d_1 d_2 no longer vanishes on that representative
    cached = cecomplex._diff_columns
    lower = cached(4, 1, 1)
    column = cached(4, 1, 2)[0]
    j = next(j for j in sorted(column) if lower[j])

    def wrong_sign(m, n, t):
        columns = cached(m, n, t)
        if (m, n, t) == (4, 1, 2):
            return ({**columns[0], j: -columns[0][j]},) + columns[1:]
        return columns

    ok, before = suite_ce(3, 0, 0)
    assert ok
    monkeypatch.setattr(cecomplex, "_diff_columns", wrong_sign)
    assert cecomplex.d_squared_witness(4, 1, 2) == 0
    # the public differential sees the same error on the same basis element
    x = ce_basis(4, 1, 2)[0]
    assert not ce_diff(4, 1, 1, ce_diff(4, 1, 2, x)).is_zero()
    # cases: all of m <= 3, then d^2 and homology at (4, 0), then one at (4, 1)
    at = before + sum(ce_dim(4, 0, t) for t in range(2, 5)) + 1 + 1
    assert suite_ce(4, 0, 0) == (False, at)


def test_ce_diff_rejects_t0():
    with pytest.raises(ValueError):
        ce_diff(2, 2, 0, HomElem(2, 2, {0: 1}))


def test_chain_map_conditions():
    for (m, n) in [(2, 1), (3, 1), (3, 2), (4, 2), (4, 1), (3, 0)]:
        rep = ce_to_dgcat(m, n)
        assert rep["retraction"] and rep["mu_compat"] and rep["pi_d2_zero"]


def test_ce_homology_matches_two_term_homology():
    for m in range(5):
        for n in range(m + 1):
            dims = dict(ce_homology_dims(m, n))
            cell = homology_cell(m, n)
            assert dims.get(0, 0) == cell.h0_dim
            assert dims.get(1, 0) == cell.h1_dim
            assert all(v == 0 for t, v in dims.items() if t >= 2)


def test_ce_homology_21():
    assert ce_homology_dims(2, 1) == [(0, 0), (1, 1)]


def test_ce_homology_diagonal():
    for n in (1, 2, 3):
        assert ce_homology_dims(n, n) == [(0, factorial(n))]


def test_yoneda_oracle():
    for n in (0, 1, 2, 3):
        for k in range(n + 2):
            expect = factorial(n) if k == n else 0
            assert coend_yoneda(k, n) == expect, (k, n)


def test_coend_yoneda_rejects_negative_arities():
    # both used to return 0
    for cell in [(-1, 2), (1, -2), (-1, -1)]:
        with pytest.raises(ValueError, match="arities must be >= 0"):
            coend_yoneda(*cell)


def _coend_relations_by_definition(n, m, t):
    """Reference span: x o phi for every ce_basis element x of CE_t(a, m), m + t <= a < n,
    and every basis phi of Hom(n, a), in full coordinates of Hom(n, m+t), through the
    general `compose`; stops once the rank reaches dim CE_t(n, m)."""
    ech, cap = Echelon(), ce_dim(n, m, t)
    for a in range(m + t, n):
        for x in ce_basis(a, m, t):
            for phi in hom_basis(n, a):
                ech.add(compose(x, HomElem.from_basis(phi)).coords)
                if ech.rank == cap:
                    return ech
    return ech


def test_coend_relations_match_the_definition_n5():
    cells = [(n, m, t) for n in range(6) for m in range(n + 1) for t in range(n - m + 1)]
    assert len(cells) == 56
    for n, m, t in cells:
        got, want = coend_relations(n, m, t), _coend_relations_by_definition(n, m, t)
        assert got.rank == want.rank, (n, m, t)
        # fold is injective on the image of e_t, and expand maps representative
        # coordinates back into it: each span holds the rows of the other
        where, members = cecomplex._orbits(n, m, t)
        for _, row in want.rows:
            assert not got.reduce(cecomplex._fold(row, where)), (n, m, t)
        for _, row in got.rows:
            assert not want.reduce(cecomplex._expand(row, members, 1)), (n, m, t)


def test_coend_relations_are_built_once_per_cell():
    # the 15 cells (4, m, t) with m + t <= 4, shared by the degree-t and degree-(t+1)
    # coends, the Yoneda oracle and the naturality check
    coend_relations.cache_clear()
    assert check_H_ce_QSn(4) and naturality_check(4)
    assert coend_relations.cache_info().misses == 15


def test_coend_dims_n2():
    assert coend_with_qsn(0, 2, 2)[0] == 2
    dim, residuals = coend_with_qsn(1, 2, 1)
    assert dim == 2 and not any(residuals)
    assert coend_with_qsn(2, 2, 0)[0] == 1
    # off the antidiagonal everything collapses
    assert coend_with_qsn(0, 2, 1)[0] == 0
    assert coend_with_qsn(1, 2, 0)[0] == 0


def test_coend_dims_n4_spot():
    dim, residuals = coend_with_qsn(2, 4, 2)
    assert dim == factorial(4) // factorial(2) == 12
    assert not any(residuals)


def test_check_H_ce_QSn_small():
    for n in range(4):
        assert check_H_ce_QSn(n)


def test_naturality_small():
    for n in range(4):
        assert naturality_check(n)


def test_checks_reject_negative_arities():
    for call in (lambda: ce_to_dgcat(-1, 0), lambda: ce_to_dgcat(2, -1),
                 lambda: check_H_ce_QSn(-1), lambda: naturality_check(-1),
                 lambda: coend_relations(-1, 0, 0), lambda: coend_relations(3, -1, 1),
                 lambda: coend_relations(3, 1, -1)):
        with pytest.raises(ValueError, match="arities must be >= 0"):
            call()


def test_projector_coefficients_are_exact():
    w = e_t_apply(HomElem(2, 2, {0: 1}), 0, 2)
    assert all(isinstance(c, Fraction) or isinstance(c, int) for c in w.coords.values())
    assert sum(abs(c) for c in w.coords.values()) == 1  # (id - swap)/2
