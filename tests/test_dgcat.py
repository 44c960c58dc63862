import random
from math import factorial

from lieprop.catlie import HomElem, compose, hom_dim, identity
from lieprop.dgcat import (DGHom, check_h1_mu_trivial, check_leibniz,
                           dg_compose, dg_identity, differential, h0_compose,
                           h0_reduce, homology_cell, syzygy_euler_check)
from lieprop import cli, dgcat
from lieprop.exactla import Echelon, in_span, primitive
from lieprop.mudelta import Delta1Elem, delta1_dim, iota, mu, mu_tilde_1


def _random_dghom(rng, m, n):
    d0, d1 = hom_dim(m, n), delta1_dim(m, n)
    deg0 = HomElem(m, n, {rng.randrange(d0): rng.randint(-2, 2)}) if d0 else None
    deg1 = Delta1Elem(m, n, {rng.randrange(d1): rng.randint(-2, 2)}) if d1 else None
    return DGHom(m, n, deg0, deg1)


def test_dg_identity_is_unit():
    rng = random.Random(43)
    for _ in range(15):
        m = rng.randint(1, 4)
        n = rng.randint(1, m)
        h = _random_dghom(rng, m, n)
        assert dg_compose(dg_identity(n), h) == h
        assert dg_compose(h, dg_identity(m)) == h


def test_degree_one_squares_to_zero():
    z1 = DGHom(3, 2, None, Delta1Elem(3, 2, {0: 1}))
    z2 = DGHom(4, 3, None, Delta1Elem(4, 3, {1: 1}))
    out = dg_compose(z1, z2)
    assert out.is_zero()


def test_embedded_composition_agrees_with_prop():
    rng = random.Random(47)
    for _ in range(20):
        m = rng.randint(1, 4)
        n = rng.randint(1, m)
        p = rng.randint(1, n)
        g = HomElem(n, p, {rng.randrange(hom_dim(n, p)): 1})
        f = HomElem(m, n, {rng.randrange(hom_dim(m, n)): 1})
        emb = dg_compose(DGHom(n, p, g), DGHom(m, n, f))
        assert emb.deg0 == compose(g, f) and emb.deg1.is_zero()


def test_differential_values():
    assert differential(DGHom(3, 2, HomElem(3, 2, {0: 1}))).is_zero()
    for n in (1, 2, 3):
        h = DGHom(n + 1, n, None, iota(n + 1))
        assert differential(h).deg0 == mu(n)
    rng = random.Random(53)
    for _ in range(10):
        h = _random_dghom(rng, 4, 2)
        assert differential(differential(h)).is_zero()


def test_leibniz_against_dg_compose_mixed_elements():
    # d(g o f) = dg o f + (-1)^{|g|} g o df on inhomogeneous sums,
    # degree by degree through the square-zero composition
    rng = random.Random(59)
    for _ in range(15):
        m = rng.randint(2, 4)
        n = rng.randint(1, m - 1)
        p = rng.randint(1, n)
        g1 = Delta1Elem(n, p, {rng.randrange(delta1_dim(n, p)): 1}) if delta1_dim(n, p) else None
        f1 = Delta1Elem(m, n, {rng.randrange(delta1_dim(m, n)): 1}) if delta1_dim(m, n) else None
        g = DGHom(n, p, HomElem(n, p, {rng.randrange(hom_dim(n, p)): 1}), g1)
        f = DGHom(m, n, HomElem(m, n, {rng.randrange(hom_dim(m, n)): 1}), f1)
        lhs = differential(dg_compose(g, f))
        # Koszul involution: (-1)^{|g|} g = g0 - g1 componentwise
        g_invol = DGHom(n, p, g.deg0, g.deg1.scale(-1))
        rhs = dg_compose(differential(g), f) + dg_compose(g_invol, differential(f))
        assert lhs == rhs


def test_check_leibniz_cells():
    assert check_leibniz(3, 2, 1)
    assert check_leibniz(4, 2, 1)
    assert check_leibniz(4, 3, 1)
    assert check_leibniz(2, 2, 2)  # zero degree-1 spaces, trivially fine


def test_homology_small_values():
    cell = homology_cell(2, 1)
    assert (cell.h0_dim, cell.h1_dim) == (0, 1)
    (z,) = cell.kernel
    assert z.coords == {0: 1, 1: 1}
    for n in range(5):
        cell = homology_cell(n, n)
        assert (cell.h0_dim, cell.h1_dim) == (factorial(n), 0)
    cell = homology_cell(2, 3)
    assert (cell.h0_dim, cell.h1_dim) == (0, 0)


def test_rank_nullity_bookkeeping():
    for m in range(6):
        for n in range(m + 1):
            cell = homology_cell(m, n)
            assert cell.h0_dim + cell.rank == hom_dim(m, n)
            assert cell.h1_dim + cell.rank == delta1_dim(m, n)


def test_mu_is_boundary():
    for n in (1, 2, 3):
        assert h0_reduce(mu(n)).is_zero()


def test_identity_class_nonzero():
    for n in (1, 2, 3):
        assert not h0_reduce(identity(n)).is_zero()


def test_boundary_stability_in_span():
    # boundaries compose into boundaries on both sides
    rng = random.Random(61)
    for _ in range(10):
        m = rng.randint(2, 4)
        n = rng.randint(1, m - 1)
        cell = homology_cell(m, n)
        if not cell.rank:
            continue
        boundary_basis = [tuple(b.coords.get(i, 0) for i in range(hom_dim(m, n)))
                          for b in cell.h0_boundary_basis()]
        beta = mu_tilde_1(Delta1Elem(m, n, {rng.randrange(delta1_dim(m, n)): 1}))
        phi = HomElem(n, n, {rng.randrange(hom_dim(n, n)): 1})
        post = compose(phi, beta)
        assert h0_reduce(post).is_zero()
        l = rng.randint(m, m + 1)
        psi = HomElem(l, m, {rng.randrange(hom_dim(l, m)): 1})
        # boundaries form a right ideal: beta o psi is again a boundary
        assert h0_reduce(compose(beta, psi)).is_zero()
        vec = tuple(beta.coords.get(i, 0) for i in range(hom_dim(m, n)))
        assert in_span(vec, boundary_basis)


def test_h0_compose_well_defined_and_unital():
    rng = random.Random(67)
    for _ in range(10):
        m = rng.randint(2, 4)
        n = rng.randint(1, m)
        p = rng.randint(1, n)
        a = HomElem(n, p, {rng.randrange(hom_dim(n, p)): 1})
        b = HomElem(m, n, {rng.randrange(hom_dim(m, n)): 1})
        # adding a boundary to either side does not change the class
        ab = h0_compose(a, b)
        if delta1_dim(m, n):
            beta = mu_tilde_1(Delta1Elem(m, n, {rng.randrange(delta1_dim(m, n)): 1}))
            assert h0_compose(a, b + beta) == ab
        if delta1_dim(n, p):
            beta = mu_tilde_1(Delta1Elem(n, p, {rng.randrange(delta1_dim(n, p)): 1}))
            assert h0_compose(a + beta, b) == ab
        assert h0_compose(identity(n), b) == h0_reduce(b)


def test_h0_compose_associative_on_classes():
    rng = random.Random(71)
    for _ in range(10):
        l = rng.randint(2, 4)
        m = rng.randint(1, l)
        n = rng.randint(1, m)
        p = rng.randint(1, n)
        h = HomElem(n, p, {rng.randrange(hom_dim(n, p)): 1})
        g = HomElem(m, n, {rng.randrange(hom_dim(m, n)): 1})
        f = HomElem(l, m, {rng.randrange(hom_dim(l, m)): 1})
        assert h0_compose(h, compose(g, f)) == h0_compose(compose(h, g), f)


def test_h1_mu_trivial_small():
    for (m, n) in [(2, 0), (3, 1), (4, 2), (3, 0), (4, 1), (4, 0)]:
        assert check_h1_mu_trivial(m, n)


def test_euler_small():
    for m in range(6):
        for n in range(6):
            assert syzygy_euler_check(m, n)


def test_homology_cells_pinned_to_untracked_echelon():
    for m, n in [(5, 3), (6, 2)]:
        cell = homology_cell(m, n)
        plain, tracked = Echelon(), Echelon(track=True)
        expected = []
        for j in range(delta1_dim(m, n)):
            col = mu_tilde_1(Delta1Elem(m, n, {j: 1})).coords
            plain.add(col)
            if not tracked.add(col):
                # col_j = sum_i x_i col_i over the independent columns i < j
                x = tracked.solve(col)
                expected.append(primitive({**x, j: -1}))
        assert [(p, row) for p, row, _ in cell.boundaries.rows] == \
            [(p, row) for p, row, _ in plain.rows]
        assert [z.coords for z in cell.kernel] == expected
        assert len(cell.kernel) == cell.h1_dim == delta1_dim(m, n) - plain.rank
        for z in cell.kernel:
            assert mu_tilde_1(z).is_zero()
        if (m, n) == (5, 3):
            # pivot rows whose tracked scale s is not 1 reach the solves
            assert any(s != 1 for _, _, (s, _) in tracked.rows)


def test_homology_computes_no_kernel(capsys, monkeypatch):
    monkeypatch.delenv("LIEPROP_WORKERS", raising=False)
    assert cli.main(["homology", "--max-m", "5"]) == 0
    expected = capsys.readouterr().out

    def no_kernel(m, n):
        raise AssertionError("kernel of cell (%d, %d) built" % (m, n))

    monkeypatch.setattr(dgcat, "_cell_kernel", no_kernel)
    homology_cell.cache_clear()
    assert cli.main(["homology", "--max-m", "5"]) == 0
    assert capsys.readouterr().out == expected
