import hashlib
import json
import random
from math import factorial
from pathlib import Path

import pytest

from lieprop.catlie import (BasisMorphism, HomElem, act_out, compose, first_occurrence,
                            hom_basis, hom_dim, hom_index, identity, orbit_offsets, perm_hom,
                            tree_tuples)
from lieprop.dgcat import (DGHom, check_h1_mu_trivial, check_leibniz,
                           dg_compose, dg_identity, differential, h0_compose,
                           h0_reduce, homology_cell, syzygy_euler_check)
from lieprop import catlie, cecomplex, cli, dgcat, freelie, schur_oracle, symrep
from lieprop.exactla import Echelon, axpy, in_span
from lieprop.mudelta import (Delta1Elem, _delta1_value_lists, delta1_act_left, delta1_basis,
                             delta1_dim, iota, mu, mu_tilde_1, mu_tilde_1_column)
from test_exactla import _gauss_jordan_kernel

M7 = json.loads(Path(__file__).with_name("homology_m7.json").read_text())["homology"]
M8 = json.loads(Path(__file__).with_name("homology_m8.json").read_text())["homology"]
M9 = json.loads(Path(__file__).with_name("homology_m9.json").read_text())["homology"]


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


def test_check_leibniz_rejects_negative_arities():
    for cell in [(-1, 0, 0), (2, -1, 0), (2, 1, -1)]:
        with pytest.raises(ValueError, match="arities must be >= 0"):
            check_leibniz(*cell)


def test_check_leibniz_catches_a_sign_error_in_one_column(monkeypatch):
    # flip one entry of the mu_tilde_1 column of the delta1(3, 2) basis element 0:
    # G . y and G o mu_tilde_1(y) disagree for every transposition G of Hom(2, 2)
    column = dgcat.mu_tilde_1_column
    wrong = dict(column(3, 2, 0))
    k = min(wrong)
    wrong[k] = -wrong[k]
    assert check_leibniz(3, 2, 2) and check_leibniz(4, 2, 1)
    monkeypatch.setattr(dgcat, "mu_tilde_1_column",
                        lambda m, n, s: wrong if (m, n, s) == (3, 2, 0) else column(m, n, s))
    assert not check_leibniz(3, 2, 2)
    assert check_leibniz(4, 2, 1)  # a cell that never reads the column


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
        plain = Echelon()
        cols = [mu_tilde_1(Delta1Elem(m, n, {j: 1})).coords for j in range(delta1_dim(m, n))]
        for col in cols:
            plain.add(col)
        assert cell.boundaries.rows == plain.rows
        # one vector per column that depends on the columns before it, on that
        # column and the independent ones before it: the dense Fraction reference
        assert [z.coords for z in cell.kernel] == _gauss_jordan_kernel(cols)
        assert len(cell.kernel) == cell.h1_dim == delta1_dim(m, n) - plain.rank
        for z in cell.kernel:
            assert mu_tilde_1(z).is_zero()


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


def test_homology_computes_no_boundaries(capsys, monkeypatch):
    monkeypatch.delenv("LIEPROP_WORKERS", raising=False)
    argv = ["homology", "--max-m", "6", "--format", "json"]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out
    h0, h1 = schur_oracle.h_modules(4, 2)
    dims = (h0.dim, h1.dim)

    def no_boundaries(m, n):
        raise AssertionError("boundaries of cell (%d, %d) built" % (m, n))

    monkeypatch.setattr(dgcat, "_cell_boundaries", no_boundaries)
    homology_cell.cache_clear()
    dgcat._block_ranks.cache_clear()
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected
    # h_modules still reads the boundaries, and gets the same dimensions from them
    schur_oracle.h_modules.cache_clear()
    with pytest.raises(AssertionError, match="boundaries of cell"):
        schur_oracle.h_modules(4, 2)
    monkeypatch.undo()
    h0, h1 = schur_oracle.h_modules(4, 2)
    cell = homology_cell(4, 2)
    assert (h0.dim, h1.dim) == dims == (cell.h0_dim, cell.h1_dim)


def test_block_rank_equals_full_echelon():
    cells = [(m, n) for m in range(7) for n in range(m + 1)]
    assert len(cells) == 28
    for m, n in cells:
        assert homology_cell(m, n).rank == dgcat._cell_boundaries(m, n).rank, (m, n)


def _transpositions(n):
    for i in range(1, n):
        s = list(range(1, n + 1))
        s[i - 1], s[i] = s[i], s[i - 1]
        yield tuple(s)


def _perm_sign(sigma):
    """(-1)^(k - number of cycles) for sigma a permutation of 1..k."""
    cycles, seen = 0, set()
    for start in range(1, len(sigma) + 1):
        if start not in seen:
            cycles += 1
            while start not in seen:
                seen.add(start)
                start = sigma[start - 1]
    return (-1) ** (len(sigma) - cycles)


def test_orbit_normal_form():
    # the S_n-orbits of Hom(m, n) under post-composition
    for m in range(6):
        for n in range(1, m + 1):
            ident = tuple(range(1, n + 1))
            reps = set()
            for bm in hom_basis(m, n):
                tau, rep = first_occurrence(bm, 0, n)
                assert first_occurrence(rep, 0, n) == (ident, rep)
                assert act_out(tau, HomElem.from_basis(rep)) == HomElem.from_basis(bm)
                reps.add(rep)
            # the action is free: every orbit has n! elements
            assert len(reps) * factorial(n) == hom_dim(m, n)
    # the S_t-orbits of the last t outputs of Hom(m, n+t), which the CE complex folds onto
    for m in range(6):
        for n in range(m + 1):
            for t in range(2, m - n + 1):
                ident = tuple(range(n + 1, n + t + 1))
                index = hom_index(m, n + t)
                where, members = cecomplex._orbits(m, n, t)
                orbits = {}
                for j, bm in enumerate(hom_basis(m, n + t)):
                    order, rep = first_occurrence(bm, n, n + t)
                    assert first_occurrence(rep, n, n + t) == (ident, rep)
                    sigma = tuple(range(1, n + 1)) + order
                    assert act_out(sigma, HomElem.from_basis(rep)) == HomElem.from_basis(bm)
                    sign = _perm_sign(tuple(v - n for v in order))
                    k = where[index[rep]][0]
                    assert where[j] == (k, sign) and members[k][0] == (index[rep], 1)
                    orbits.setdefault(rep, []).append(j)
                assert len(orbits) == len(members)
                assert all(len(js) == factorial(t) for js in orbits.values()), (m, n, t)


def _block_matrix_by_full_basis(m, n):
    """The Z[S_n] rows of mu_tilde_1 read on the full bases: every delta1 element
    whose outputs 1..n first occur in increasing order, in basis order, its
    `mu_tilde_1_column`, and each term k mapped by `first_occurrence` to
    (Hom index of its representative, tau).  Columns are full Hom indices."""
    ident = list(range(1, n + 1))
    basis, index = hom_basis(m, n), hom_index(m, n)
    orbit, matrix = {}, []
    for s, bm in enumerate(delta1_basis(m, n)[1]):
        if [v for v in dict.fromkeys(bm.f) if v <= n] != ident:
            continue
        row = {}
        for k, c in mu_tilde_1_column(m, n, s).items():
            if k not in orbit:
                tau, rep = first_occurrence(basis[k], 0, n)
                orbit[k] = index[rep], tau
            i, tau = orbit[k]
            axpy(row.setdefault(i, {}), {tau: c})
        matrix.append({i: entry for i, entry in row.items() if entry})
    return matrix


def _renumbered_full_basis_rows(m, n):
    """`_block_matrix_by_full_basis` with each Hom index replaced by the number of
    its representative among the representatives in basis order."""
    ident = tuple(range(1, n + 1))
    reps = [k for k, bm in enumerate(hom_basis(m, n)) if first_occurrence(bm, 0, n)[0] == ident]
    number = {k: i for i, k in enumerate(reps)}
    return [{number[k]: entry for k, entry in row.items()}
            for row in _block_matrix_by_full_basis(m, n)]


def test_orbit_representatives_are_the_basis_elements_first_occurrence_fixes():
    delta1_reps = 0
    for m in range(7):
        for n in range(m + 2):
            ident = tuple(range(1, n + 1))
            fixed = [bm for bm in hom_basis(m, n) if first_occurrence(bm, 0, n) == (ident, bm)]
            offsets = orbit_offsets(m, n)
            reps = [BasisMorphism(m, n, f, trees) for f in offsets for trees in tree_tuples(f, n)]
            assert reps == fixed, (m, n)
            assert len(reps) * factorial(n) == hom_dim(m, n)
            for i, bm in enumerate(reps):
                offset, strides = offsets[bm.f]
                assert offset + sum(t * s for t, s in zip(bm.trees, strides)) == i
            fixed = [bm for bm in delta1_basis(m, n)[1] if first_occurrence(bm, 0, n) == (ident, bm)]
            reps = [BasisMorphism(m, n + 1, f, trees + (0,))
                    for f, g, _ in _delta1_value_lists(m, n) for trees in tree_tuples(g, n)]
            assert reps == fixed, (m, n)
            delta1_reps += len(fixed)
    assert delta1_reps == 873


def test_block_rows_on_representatives_equal_the_full_basis_reading():
    cells = [(m, n) for m in range(7) for n in range(m + 2)]
    assert {(0, 0), (1, 0), (6, 0), (3, 4), (6, 7)} <= set(cells)
    rows = 0
    for m, n in cells:
        matrix = dgcat._block_matrix(m, n)
        assert matrix == _renumbered_full_basis_rows(m, n), (m, n)
        rows += len(matrix)
    assert rows == 873
    assert dgcat._block_matrix(1, 0) == [{}]    # delta1(1, 0) is iota_1, and mu_tilde_1 kills it


def test_block_rows_keep_the_order_of_the_full_basis_reading():
    # same rows as above, compared as item lists: the columns in each row and
    # the (tau, coefficient) pairs in each entry come in the same order
    for m in range(7):
        for n in range(m + 2):
            want = _renumbered_full_basis_rows(m, n)
            for row, want_row in zip(dgcat._block_matrix(m, n), want, strict=True):
                assert [(i, list(e.items())) for i, e in row.items()] == \
                    [(i, list(e.items())) for i, e in want_row.items()], (m, n)


def test_homology_reads_bracket_leaf_once_per_comb_pattern(monkeypatch, capsys):
    # [T, a] depends only on (fiber size k, tree index t, rank r of a), so
    # `homology --max-m 6` reads it once per pattern it meets, as an entry
    # of `freelie.bracket_leaf_table(k, r)`, and not once per term; the
    # entries go through `freelie.comb_coords`, which calls bracket_leaf
    # only when a is below the head of T (r = 1)
    bracket_leaf, seen = freelie.bracket_leaf, []

    def counted(word, a):
        seen.append((len(word), freelie.comb_index(sorted(word))[word[1:]],
                     sorted(word + (a,)).index(a) + 1))
        return bracket_leaf(word, a)

    monkeypatch.setattr(freelie, "bracket_leaf", counted)
    monkeypatch.setenv("LIEPROP_WORKERS", "1")
    for cache in (freelie.bracket_leaf_table, freelie.comb_coords, homology_cell,
                  dgcat._block_ranks):
        cache.cache_clear()
    assert cli.main(["homology", "--max-m", "6"]) == 0
    capsys.readouterr()
    # one table per (k, r) with k <= 5, read below from the cache
    assert freelie.bracket_leaf_table.cache_info().currsize == 2 + 3 + 4 + 5 + 6
    tables = {(k, r): freelie.bracket_leaf_table(k, r) for k in range(1, 6) for r in range(1, k + 2)}
    assert freelie.bracket_leaf_table.cache_info().misses == len(tables)
    entries = [(k, t, r) for (k, r), table in tables.items() for t in range(len(table))]
    assert len(entries) == len(set(entries)) == 187
    # every k <= 5, t < (k-1)! and r <= k+1 is met
    assert sorted(entries) == [(k, t, r) for k in range(1, 6) for t in range(factorial(k - 1))
                               for r in range(1, k + 2)]
    assert len(seen) == len(set(seen))
    assert sorted(seen) == [(k, t, 1) for k in range(1, 6) for t in range(factorial(k - 1))]


def test_homology_dims_build_no_full_basis_table():
    cells = [(m, n) for m in range(7) for n in range(m + 1)]
    want = {cell: (homology_cell(*cell).h0_dim, homology_cell(*cell).h1_dim,
                   homology_cell(*cell).multiplicities) for cell in cells}
    caches = [hom_basis, hom_index, delta1_basis, catlie.basis_trees, mu_tilde_1_column]
    for cache in caches + [homology_cell, dgcat._block_ranks]:
        cache.cache_clear()
    for cell in cells:
        hc = homology_cell(*cell)
        assert (hc.h0_dim, hc.h1_dim, hc.multiplicities) == want[cell], cell
    assert [cache.cache_info().currsize for cache in caches] == [0] * 5


def test_homology_builds_no_lie_basis_tree(monkeypatch, capsys):
    # the bracket tables are read off comb words: no cell of `homology
    # --max-m 6` builds a basis tree of Lie(S)
    monkeypatch.setenv("LIEPROP_WORKERS", "1")
    for cache in (freelie._lie_basis, freelie.bracket_leaf_table, freelie.comb_coords,
                  homology_cell, dgcat._block_ranks):
        cache.cache_clear()
    assert cli.main(["homology", "--max-m", "6"]) == 0
    capsys.readouterr()
    assert freelie.bracket_leaf_table.cache_info().currsize
    assert freelie._lie_basis.cache_info().currsize == 0


# sha256 of the kernel vectors, as sorted (index, coefficient) lists, of
# every cell (m, n) with n <= m <= 6, in that order
KERNEL_DIGEST_M6 = "db4d09ad60da038afdb61e04c33261cebcc9c4dd8438cccce3fd978f2e2d7abc"


def test_kernel_vectors_digest_m6():
    digest = hashlib.sha256()
    for m in range(7):
        for n in range(m + 1):
            kernel = [sorted(z.coords.items()) for z in homology_cell(m, n).kernel]
            digest.update(repr((m, n, kernel)).encode())
    assert digest.hexdigest() == KERNEL_DIGEST_M6


def test_mu_tilde_1_is_equivariant():
    # mu_tilde_1(s_i . z) == s_i . mu_tilde_1(z) on every delta1 orbit representative z
    for m in range(6):
        for n in range(2, m + 1):
            ident = tuple(range(1, n + 1))
            reps = [s for s, bm in enumerate(delta1_basis(m, n)[1])
                    if first_occurrence(bm, 0, n)[0] == ident]
            assert len(reps) * factorial(n) == delta1_dim(m, n)
            for s in reps:
                z = Delta1Elem(m, n, {s: 1})
                image = mu_tilde_1(z)
                for sigma in _transpositions(n):
                    assert mu_tilde_1(delta1_act_left(perm_hom(sigma), z)) == \
                        act_out(sigma, image), (m, n, s, sigma)


def test_multiplicities():
    for m in range(7):
        for n in range(m + 1):
            cell = homology_cell(m, n)
            mult = cell.multiplicities
            assert set(mult) == set(symrep._partitions(n))
            assert sum(symrep.dim(shape) * h0 for shape, (h0, _) in mult.items()) == cell.h0_dim
            assert sum(symrep.dim(shape) * h1 for shape, (_, h1) in mult.items()) == cell.h1_dim
    # H1(6, 5) is the trivial representation
    assert {shape: h1 for shape, (_, h1) in homology_cell(6, 5).multiplicities.items() if h1} \
        == {(5,): 1}
    # H0(m, 2) is (m - 2)! copies of the trivial representation
    for m in range(3, 7):
        cell = homology_cell(m, 2)
        assert cell.h0_dim == factorial(m - 2)
        assert {shape: h0 for shape, (h0, _) in cell.multiplicities.items()} == \
            {(2,): factorial(m - 2), (1, 1): 0}


def test_zero_cells_build_no_standard_tableau(monkeypatch):
    # the cell (1, 16) is zero, yet it reads d_lambda for the 231 partitions
    # of 16, which have 46,206,736 standard tableaux in all
    calls = []

    def counted(shape):
        calls.append(shape)
        return ()

    monkeypatch.setattr(symrep, "standard_tableaux", counted)
    cell = homology_cell(1, 16)
    assert (cell.h0_dim, cell.h1_dim) == (0, 0)
    mult = cell.multiplicities
    assert len(mult) == 231 and set(mult.values()) == {(0, 0)}
    assert calls == []


def test_homology_cell_rejects_negative_arities():
    for m, n in [(-2, -3), (-1, 0), (3, -1)]:
        with pytest.raises(ValueError, match="m, n >= 0"):
            homology_cell(m, n)
    cell = homology_cell(2, 3)
    assert (cell.h0_dim, cell.h1_dim, cell.rank) == (0, 0, 0)


def test_homology_m7_pinned():
    assert [(m, n) for m, n, _, _ in M7] == [(7, n) for n in range(1, 8)]
    for m, n, h0, h1 in M7:
        assert h0 - h1 == hom_dim(m, n) - delta1_dim(m, n), (m, n)
    for m, n, h0, h1 in M7[:2]:
        cell = homology_cell(m, n)
        assert (cell.h0_dim, cell.h1_dim) == (h0, h1)
    assert (homology_cell(7, 0).h0_dim, homology_cell(7, 0).h1_dim) == (0, 0)


def test_homology_m8_pinned_table_is_consistent():
    # the file only: the cells themselves take a CI step, not Tier-1
    assert [(m, n) for m, n, _, _ in M8] == [(8, n) for n in range(1, 9)]
    for m, n, h0, h1 in M8:
        assert 0 <= h0 <= hom_dim(m, n) and 0 <= h1 <= delta1_dim(m, n), (m, n)
        assert h0 - h1 == hom_dim(m, n) - delta1_dim(m, n), (m, n)


def test_homology_m9_pinned_rows_are_consistent():
    # the file only: a CI step recomputes (9, 9), (9, 8) and (9, 7)
    assert [(m, n) for m, n, _, _ in M9] == [(9, n) for n in range(9, 4, -1)]
    for m, n, h0, h1 in M9:
        assert 0 <= h0 <= hom_dim(m, n) and 0 <= h1 <= delta1_dim(m, n), (m, n)
        assert h0 - h1 == hom_dim(m, n) - delta1_dim(m, n), (m, n)
