import hashlib
from fractions import Fraction
from math import factorial

import pytest

from lieprop import cecomplex
from lieprop.catlie import HomElem, hom_dim
from lieprop.cli import suite_ce
from lieprop.cecomplex import (ce_basis, ce_diff, ce_dim, ce_homology_dims,
                               ce_to_dgcat, check_H_ce_QSn, coend_with_qsn,
                               coend_yoneda, e_t_apply, naturality_check)
from lieprop.dgcat import homology_cell
from lieprop.exactla import Echelon
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
    return [HomElem(m, n + t, dict(row)) for _, row, _ in ech.rows]


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
    cached = cecomplex._diff_basis
    seen = []

    def recording(bm, n, t):
        out = cached(bm, n, t)
        seen.append(((bm, n, t), out))
        return out

    monkeypatch.setattr(cecomplex, "_diff_basis", recording)
    assert suite_ce(5, 0, 0) == (True, 527)
    assert len(seen) > len({key for key, _ in seen})
    first = {}
    for key, out in seen:
        assert first.setdefault(key, out) is out  # one shared dict per key
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
                 lambda: check_H_ce_QSn(-1), lambda: naturality_check(-1)):
        with pytest.raises(ValueError, match="arities must be >= 0"):
            call()


def test_projector_coefficients_are_exact():
    w = e_t_apply(HomElem(2, 2, {0: 1}), 0, 2)
    assert all(isinstance(c, Fraction) or isinstance(c, int) for c in w.coords.values())
    assert sum(abs(c) for c in w.coords.values()) == 1  # (id - swap)/2
