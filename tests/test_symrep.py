import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from lieprop import symrep
from lieprop.exactla import Echelon
from lieprop.symrep import (_partitions, block_ranks, dim, reduced_word, rho, rho_cleared,
                            standard_tableaux)


def compose(sigma, tau):
    """sigma o tau: first tau, then sigma."""
    return tuple(sigma[t - 1] for t in tau)


def _perms(n):
    return list(itertools.permutations(range(1, n + 1)))


def _transposition(n, i):
    s = list(range(1, n + 1))
    s[i - 1], s[i] = s[i], s[i - 1]
    return tuple(s)


def _matrix(shape, sigma):
    den, rows = rho(shape, sigma)
    return [[Fraction(x, den) for x in row] for row in rows]


def test_partitions_and_tableaux():
    assert [len(_partitions(n)) for n in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert _partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert set(standard_tableaux((2, 1))) == {((1, 2), (3,)), ((1, 3), (2,))}
    for n in range(8):
        # Wedderburn: sum of d_lambda^2 is |S_n|
        assert sum(dim(shape) ** 2 for shape in _partitions(n)) == factorial(n)
        for shape in _partitions(n):
            for t in standard_tableaux(shape):
                assert tuple(map(len, t)) == shape
                assert sorted(x for row in t for x in row) == list(range(1, n + 1))
                assert all(list(row) == sorted(row) for row in t)
                assert all(t[r][c] < t[r + 1][c] for r in range(len(t) - 1)
                           for c in range(len(t[r + 1])))


def test_dim_is_the_number_of_standard_tableaux():
    # the hook length formula against the tableaux themselves
    shapes = [shape for n in range(10) for shape in _partitions(n)]
    assert len(shapes) == 1 + 1 + 2 + 3 + 5 + 7 + 11 + 15 + 22 + 30
    for shape in shapes:
        assert dim(shape) == len(standard_tableaux(shape)), shape


def test_reduced_words():
    for n in range(6):
        for sigma in _perms(n):
            word = reduced_word(sigma)
            inversions = sum(1 for i, j in itertools.combinations(range(n), 2)
                             if sigma[i] > sigma[j])
            assert len(word) == inversions
            product = tuple(range(1, n + 1))
            for i in word:
                product = compose(product, _transposition(n, i))
            assert product == sigma


def test_rho_is_a_homomorphism_small():
    for n in range(5):
        for shape in _partitions(n):
            d = dim(shape)
            mats = {s: _matrix(shape, s) for s in _perms(n)}
            assert mats[tuple(range(1, n + 1))] == [[int(a == b) for b in range(d)]
                                                    for a in range(d)]
            for s, x in mats.items():
                for t, y in mats.items():
                    xy = [[sum(x[a][c] * y[c][b] for c in range(d)) for b in range(d)]
                          for a in range(d)]
                    assert xy == mats[compose(s, t)], (shape, s, t)


def test_rho_is_a_homomorphism_on_generators():
    # rho(sigma) rho(s_i) == rho(sigma o s_i) for every sigma and s_i, in ints:
    # (A / a)(B / b) == C / c  iff  c * AB == a * b * C
    for n in (5, 6):
        for shape in _partitions(n):
            gens = []
            for i in range(1, n):
                den, rows = rho(shape, _transposition(n, i))
                cols = [[(c, row[b]) for c, row in enumerate(rows) if row[b]]
                        for b in range(len(rows))]
                gens.append((i, den, cols))
            for sigma in _perms(n):
                a, x = rho(shape, sigma)
                x_cols = list(zip(*x))
                for i, b, cols in gens:
                    c, z = rho(shape, compose(sigma, _transposition(n, i)))
                    lhs = []                    # the columns of c * x * rho(s_i)
                    for col in cols:
                        (k, v), *more = col
                        acc = [c * v * e for e in x_cols[k]]
                        for k, v in more:
                            acc = [p + c * v * e for p, e in zip(acc, x_cols[k])]
                        lhs.append(acc)
                    assert lhs == [[a * b * e for e in col] for col in zip(*z)], (shape, sigma, i)


def test_rho_cleared_shares_one_scale():
    shape = (2, 1)
    sigmas = _perms(3)
    cleared = rho_cleared(shape, sigmas)
    scales = set()
    for s in sigmas:
        den, rows = rho(shape, s)
        ints = cleared[s]
        assert all(isinstance(v, int) for row in ints for v in row)
        (scale,) = {Fraction(v, 1) / Fraction(w, den)
                    for row, irow in zip(rows, ints) for w, v in zip(row, irow) if w}
        scales.add(scale)
    assert len(scales) == 1


def test_rho_rejects_non_permutations():
    for shape, sigma in [((2, 1), (1, 2)), ((2, 1), (1, 1, 3)), ((2, 1), (0, 1, 2)),
                         ((2,), (1, 2, 3)), ((), (1,))]:
        with pytest.raises(ValueError, match="not a permutation"):
            rho(shape, sigma)
    assert rho((2, 1), (1, 2, 3)) == (1, ((1, 0), (0, 1)))


def _regular_rank(matrix, n):
    """Rank of x -> xM on Q[S_n]^r from the explicit matrix: row (j, sigma)
    holds the coordinates of sigma M_j, sigma M_j having the entry
    sum_tau c_tau (sigma o tau) in column i."""
    ech = Echelon()
    for row in matrix:
        for sigma in itertools.permutations(range(1, n + 1)):
            vec = {}
            for i, entry in row.items():
                for tau, c in entry.items():
                    k = (i, compose(sigma, tau))
                    vec[k] = vec.get(k, 0) + c
            ech.add({k: c for k, c in vec.items() if c})
    return ech.rank


def _times(a, b):
    """The product ab in Z[S_n], a and b as {sigma: coefficient}."""
    out = {}
    for s, x in a.items():
        for t, y in b.items():
            out[compose(s, t)] = out.get(compose(s, t), 0) + x * y
    return {p: c for p, c in out.items() if c}


def _plus(a, b):
    out = dict(a)
    for p, c in b.items():
        out[p] = out.get(p, 0) + c
    return {p: c for p, c in out.items() if c}


def test_block_ranks_match_the_regular_representation():
    # seeded random matrices over Z[S_n]: most entries carry a factor 1 +- s
    # for a transposition s, so blocks lose rank, and the last row is a
    # Z[S_n]-combination of two others
    rng = random.Random(18)
    for n in range(5):
        perms = list(itertools.permutations(range(1, n + 1)))

        def elem():
            return {p: rng.choice([-2, -1, 1, 2]) for p in rng.sample(perms, min(2, len(perms)))}

        for _ in range(10):
            factor = {perms[0]: 1}
            if n >= 2 and rng.random() < 0.7:
                factor[perms[1]] = rng.choice([-1, 1])
            cols = rng.randint(1, 3)
            rows = [{i: _times(factor, elem()) for i in rng.sample(range(cols), rng.randint(1, cols))}
                    for _ in range(rng.randint(1, 3))]
            last = {}
            for x, row in ((elem(), rows[0]), (elem(), rows[-1])):
                for i, e in row.items():
                    last[i] = _plus(last.get(i, {}), _times(x, e))
            rows = [{i: e for i, e in row.items() if e} for row in rows + [last]]
            ranks = block_ranks(rows, n)
            assert set(ranks) == set(_partitions(n))
            assert sum(dim(shape) * r for shape, r in ranks.items()) == \
                _regular_rank(rows, n), (n, rows)


def _block_rank(rows, shape, stop=None):
    """Rank of the first `stop` block rows rho_lambda(M_j), each built from
    the Fraction matrices of `rho`."""
    d = dim(shape)
    ech = Echelon()
    for row in rows[:stop]:
        for a in range(d):
            vec = {}
            for i, entry in row.items():
                for sigma, c in entry.items():
                    for b, x in enumerate(_matrix(shape, sigma)[a]):
                        vec[(i, b)] = vec.get((i, b), 0) + c * x
            ech.add({k: x for k, x in vec.items() if x})
    return ech.rank


def test_block_ranks_stop_at_full_column_rank_exactly(monkeypatch):
    # seeded matrices over Z[S_n] with more rows than columns; each entry
    # carries a factor 1 +- s with probability 1/2, so some blocks reach
    # full column rank before their last row, some only at it, some never
    echelons = []

    class CountingEchelon(Echelon):
        def __init__(self):
            super().__init__()
            self.adds = 0
            echelons.append(self)

        def add(self, vec):
            self.adds += 1
            return super().add(vec)

    monkeypatch.setattr(symrep, "Echelon", CountingEchelon)
    rng = random.Random(21)
    seen = set()
    for n in range(1, 5):
        perms = _perms(n)

        def elem():
            return {p: rng.choice([-2, -1, 1, 2]) for p in rng.sample(perms, min(3, len(perms)))}

        for _ in range(12):
            factor = {perms[0]: 1}
            if n >= 2:
                factor[_transposition(n, rng.randint(1, n - 1))] = rng.choice([-1, 1])
            cols = rng.randint(1, 2)
            rows = [{i: _times(factor, elem()) if rng.random() < 0.5 else elem()
                     for i in range(cols)} for _ in range(cols + rng.randint(1, 2))]
            rows = [{i: e for i, e in row.items() if e} for row in rows]
            cols = len({i for row in rows for i in row})
            echelons.clear()
            ranks = block_ranks(rows, n)
            assert sum(dim(shape) * r for shape, r in ranks.items()) == \
                _regular_rank(rows, n), (n, rows)
            for shape, ech in zip(_partitions(n), echelons):
                d = dim(shape)
                assert ranks[shape] == _block_rank(rows, shape), (shape, rows)
                # the rows fed: all of them unless a prefix is of full column rank
                used = next((k for k in range(1, len(rows) + 1)
                             if _block_rank(rows, shape, k) == d * cols), len(rows))
                assert ech.adds == d * used, (shape, rows)
                seen.add("before" if used < len(rows) else
                         "at last" if ranks[shape] == d * cols else "short")
    assert seen == {"before", "at last", "short"}
