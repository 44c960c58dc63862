import copy
import math
import random
from fractions import Fraction

import pytest

import lieprop.exactla as exactla
from lieprop.exactla import (Echelon, Rat, _as_frac_dict, _cleared, axpy, in_span,
                             kernel, primitive)


def _rank(rows):
    ech = Echelon()
    for row in rows:
        ech.add(row)
    return ech.rank


def _kernel(rows, cols):
    """Kernel basis of the matrix `rows` (cols columns): one dependency per
    column that is dependent on the columns before it."""
    return kernel([{i: row[j] for i, row in enumerate(rows)} for j in range(cols)])


def _apply(rows, v):
    return [sum(row[j] * x for j, x in v.items()) for row in rows]


def test_rat_lowest_terms_positive_denominator():
    assert Rat(2, 4) == Rat(1, 2)
    r = Rat(3, -6)
    assert r.denominator > 0 and (r.numerator, r.denominator) == (-1, 2)
    # arithmetic is exact
    assert Rat(1, 3) + Rat(1, 6) == Rat(1, 2)
    assert Rat(1, 10) * 10 == 1


def test_rank_identity():
    assert _rank([[1, 0], [0, 1]]) == 2


def test_rank_zero_matrix():
    assert _rank([[0] * 4 for _ in range(3)]) == 0


def test_rank_proportional_rows():
    assert _rank([[1, 2], [2, 4]]) == 1


def test_kernel_identity_empty():
    assert _kernel([[1, 0], [0, 1]], 2) == []


def test_kernel_zero_matrix_full():
    ker = _kernel([[0] * 3 for _ in range(2)], 3)
    assert len(ker) == 3


def test_kernel_one_relation():
    (v,) = _kernel([[1, 1]], 2)
    assert v[0] == -v[1] != 0


def test_in_span_zero_vector():
    assert in_span((0, 0), [(1, 2)])


def test_in_span_negative():
    assert not in_span((1, 0), [(0, 1)])


def test_in_span_scaled():
    assert in_span((2, 2), [(1, 1)])


def test_in_span_length_mismatch():
    try:
        in_span((1, 0, 0), [(0, 1)])
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError")


def test_rank_nullity_and_kernel_exactness_random():
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(cols)]
             for _ in range(rows)]
        r = _rank(m)
        ker = _kernel(m, cols)
        assert r + len(ker) == cols
        assert _rank([list(col) for col in zip(*m)]) == r
        for v in ker:
            assert not any(_apply(m, v)), "kernel vector does not map to zero"


def test_echelon_reduce_is_canonical():
    ech = Echelon()
    ech.add({0: 1, 1: 2})
    ech.add({1: 1, 2: 5})
    # reduce twice; second pass is a fixed point and pivots vanish
    r1 = ech.reduce({0: 3, 1: 1, 2: 2})
    assert 0 not in r1 and 1 not in r1
    assert ech.reduce(r1) == r1
    # shifting by a span element does not change the representative
    shifted = {0: 3 + 2, 1: 1 + 4 + 1, 2: 2 + 5}  # + 2*row0 + row1
    r2 = ech.reduce(shifted)
    assert r1 == r2


def test_echelon_solve_roundtrip():
    vecs = [{0: 2, 1: 1}, {1: 3}, {2: 1, 0: 1}]
    ech = Echelon(track=True)
    for v in vecs:
        ech.add(v)
    target = {0: 2 * 2 + 1, 1: 2 * 1 - 3, 2: 1}  # 2*v0 - v1 + v2
    sol = ech.solve(target)
    assert sol == {0: 2, 1: -1, 2: 1}
    assert ech.solve({3: 1}) is None
    with pytest.raises(ValueError, match="track=True"):
        Echelon().solve({0: 1})


def test_primitive_normalizes_sign_and_content():
    assert primitive({2: Fraction(-2, 3), 5: Fraction(4, 3)}) == {2: 1, 5: -2}


def test_sparse_and_dense_rank_three_agree():
    entries = {(0, 0): 1, (1, 1): 1, (2, 2): 1}
    sparse = [{j * 10: v for (i, j), v in entries.items() if i == k} for k in range(3)]
    dense = [[entries.get((i, j), 0) for j in range(3)] for i in range(3)]
    assert _rank(sparse) == _rank(dense) == 3


# ------------------------------------------------------------- tracking and solve

def _stream(rng, kind, count, width):
    """Random vectors in a low-rank subspace, so that some are dependent.

    kind "int" gives int entries, "frac" Fractions with denominators,
    "frac1" only Fraction(k, 1) entries.
    """
    base = [[rng.randint(-3, 3) for _ in range(width)] for _ in range(rng.randint(1, width))]
    out = []
    for _ in range(count):
        coef = [rng.randint(-2, 2) for _ in base]
        vec = [sum(c * b[j] for c, b in zip(coef, base)) for j in range(width)]
        if kind == "frac":
            vec = [Fraction(v, rng.randint(1, 6)) for v in vec]
        elif kind == "frac1":
            vec = [Fraction(v, 1) for v in vec]
        out.append({j: v for j, v in enumerate(vec) if v})
    return out


def _combine(comb, inputs):
    out = {}
    for i, c in comb.items():
        for j, v in inputs[i].items():
            out[j] = out.get(j, 0) + c * v
    return {j: v for j, v in out.items() if v}


@pytest.mark.parametrize("kind", ["int", "frac", "frac1"])
def test_tracked_combinations_are_exact_ints(kind):
    rng = random.Random({"int": 11, "frac": 12, "frac1": 13}[kind])
    for _ in range(30):
        inputs = _stream(rng, kind, rng.randint(1, 10), rng.randint(1, 6))
        tracked, plain = Echelon(track=True), Echelon()
        dependent = []
        for k, vec in enumerate(inputs):
            grew = tracked.add(vec)
            assert grew == plain.add(vec)
            if not grew:
                dependent.append(k)
        # one dependency per input that depends on those before it, in exact ints
        deps = kernel(inputs)
        assert [max(dep) for dep in deps] == dependent
        for dep in deps:
            assert all(type(c) is int for c in dep.values())
            assert primitive(dep) == dep
            assert not _combine(dep, inputs)
        assert deps == _gauss_jordan_kernel(inputs)
        # tracking eliminates as without it, and keeps each input as given
        assert tracked.rows == plain.rows and tracked.pivot_cols == plain.pivot_cols
        assert tracked.inputs == inputs and plain.inputs == []
        assert not any(kept is vec for kept, vec in zip(tracked.inputs, inputs))


@pytest.mark.parametrize("kind", ["int", "frac", "frac1"])
def test_solve_is_exact_on_the_inputs_as_given(kind):
    rng = random.Random({"int": 14, "frac": 15, "frac1": 16}[kind])
    for _ in range(30):
        inputs = _stream(rng, kind, rng.randint(1, 10), rng.randint(1, 6))
        by_free = {max(z): z for z in _gauss_jordan_kernel(inputs)}
        ech = Echelon(track=True)
        for k, vec in enumerate(inputs):
            # fed inputs[:k], solve(inputs[k]) is the reference dependency of
            # input k, and None exactly when input k grows the rank
            x = ech.solve(vec)
            assert ech.add(vec) == (x is None) == (k not in by_free)
            if x is not None:
                assert all(type(c) is Fraction for c in x.values())
                assert primitive({**x, k: -1}) == by_free[k]
        target = _combine({i: rng.randint(-3, 3) for i in range(len(inputs))}, inputs)
        x = ech.solve(target)
        assert x is not None and _combine(x, inputs) == target
        outside = {max((j for v in inputs for j in v), default=0) + 1: 1}
        assert ech.solve(outside) is None


@pytest.mark.parametrize("kind", ["frac", "frac1"])
def test_untracked_echelon_on_fractions_is_integer_only(kind, monkeypatch):
    def int_axpy(out, vec, c=1):
        assert type(c) is int
        assert all(type(v) is int for v in out.values())
        assert all(type(v) is int for v in vec.values())
        return axpy(out, vec, c)

    clear_pivots = Echelon._clear_pivots

    def int_clear_pivots(self, r):
        # the elimination step accumulates inline: ints in, ints out
        assert all(type(v) is int for v in r.values())
        out, scale = clear_pivots(self, r)
        assert type(scale) is int and all(type(v) is int for v in out.values())
        return out, scale

    # every accumulate inside add and reduce sees ints only
    monkeypatch.setattr(exactla, "axpy", int_axpy)
    monkeypatch.setattr(Echelon, "_clear_pivots", int_clear_pivots)
    rng = random.Random({"frac": 21, "frac1": 22}[kind])
    for _ in range(30):
        width = rng.randint(1, 6)
        inputs = _stream(rng, kind, rng.randint(1, 10), width)
        ech, scaled = Echelon(), Echelon()
        for vec in inputs:
            den = math.lcm(*(Fraction(v).denominator for v in vec.values()))
            k = den * rng.choice([-3, -2, -1, 1, 2, 5])
            grew = ech.add(vec)
            assert grew == scaled.add({j: int(k * v) for j, v in vec.items()})
        for _, row in ech.rows:
            assert all(type(v) is int for v in row.values())
        assert ech.rows == scaled.rows
        # vectors mostly outside the span
        diffs = []
        for _ in range(5):
            v = {j: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for j in range(width + 1)}
            v = {j: c for j, c in v.items() if c}
            red = ech.reduce(v)
            assert not any(p in red for p in ech.pivot_cols)
            diffs.append(axpy(dict(v), red, -1))
            k = rng.choice([-4, -1, 2, 3])
            assert ech.reduce({j: k * c for j, c in v.items()}) == \
                {j: k * c for j, c in red.items()}
        # v - reduce(v) lies in the span of the inputs
        for diff, x in zip(diffs, _gauss_jordan_solutions(inputs, diffs)):
            assert x is not None and _combine(x, inputs) == diff


class _InsertionOrderEchelon:
    """Reference for untracked `Echelon`: one fraction-free pass over the
    pivot rows in insertion order."""

    def __init__(self):
        self.rows = []

    def _pass(self, r):
        scale = 1
        for p, row in self.rows:
            b = r.get(p)
            if not b:
                continue
            a = row[p]
            if a != 1:
                r = {j: a * v for j, v in r.items()}
                scale *= a
            axpy(r, row, -b)
        return r, scale

    def add(self, vec):
        r, _ = self._pass(_cleared(_as_frac_dict(vec))[1])
        if not r:
            return False
        self.rows.append((min(r), primitive(r)))
        return True

    def reduce(self, vec):
        den, r = _cleared(_as_frac_dict(vec))
        r, scale = self._pass(r)
        den *= scale
        return {j: Fraction(v, den) for j, v in r.items()} if den != 1 else r


@pytest.mark.parametrize("kind", ["int", "frac"])
def test_untracked_echelon_matches_insertion_order_pass(kind):
    rng = random.Random({"int": 31, "frac": 32}[kind])

    def sparse_vec(width):
        vec = {}
        for j in rng.sample(range(width), rng.randint(1, min(6, width))):
            v = rng.randint(-4, 4)
            if kind == "frac":
                v = Fraction(v, rng.randint(1, 5))
            vec[j] = v
        return vec

    for _ in range(40):
        width = rng.randint(1, 40)
        ech, ref = Echelon(), _InsertionOrderEchelon()
        for _ in range(rng.randint(1, 40)):
            vec = sparse_vec(width)
            assert ech.add(vec) == ref.add(vec)
        assert ech.rows == ref.rows
        for _ in range(10):
            vec = sparse_vec(width)
            assert ech.reduce(vec) == ref.reduce(vec)


def test_clear_pivots_scales_by_pivot_over_gcd():
    ech = Echelon()
    ech.add({0: 4, 1: 1})
    # b = 6 against the pivot 4: g = 2, so r <- 2*r - 3*row
    assert ech._clear_pivots({0: 6, 1: 1}) == ({1: -1}, 2)
    assert ech.reduce({0: 6, 1: 1}) == {1: Fraction(-1, 2)}
    # b = 8: the pivot divides it, so r is not re-scaled at all
    assert ech._clear_pivots({0: 8, 2: 1}) == ({1: -2, 2: 1}, 1)
    assert ech.reduce({0: 8, 2: 1}) == {1: -2, 2: 1}


def test_working_entries_stay_bounded_when_every_pivot_is_two(monkeypatch):
    # rows 2 e_k + 2 e_{k+1} + e_t: clearing pivot k brings in pivot k + 1 with
    # an even entry, so a vector on column 0 meets all of them in turn
    size, t = 40, 41
    ech, ref = Echelon(), _InsertionOrderEchelon()
    for k in range(size):
        assert ech.add({k: 2, k + 1: 2, t: 1}) and ref.add({k: 2, k + 1: 2, t: 1})
    assert {row[p] for p, row in ech.rows} == {2}
    largest, met = [0], [0]

    def watched_gcd(a, b):
        # every pivot entry is 2, so each step takes one gcd of it and the
        # working entry b on the pivot column
        met[0] += 1
        largest[0] = max(largest[0], abs(a), abs(b))
        return math.gcd(a, b)

    monkeypatch.setattr(exactla, "gcd", watched_gcd)
    # b = 2 at every pivot: no re-scaling; b = 1 at pivot 0: one factor 2, then b = 2
    for vec, scale in (({0: 2}, 1), ({0: 1}, 2), ({0: 2, 5: -4, 17: 6}, 1)):
        largest[0] = met[0] = 0
        r, got = ech._clear_pivots(dict(vec))
        assert got == scale and met[0] >= 1
        assert max([largest[0]] + [abs(v) for v in r.values()]) <= 8
        assert not any(p in r for p in ech.pivot_cols)
        assert ech.reduce(vec) == ref.reduce(vec)
    # the plain step r <- a*r - b*row doubles r at each of the 40 pivots
    assert ref._pass({0: 2})[1] == 2 ** size


def test_clear_pivots_takes_no_gcd_when_every_pivot_entry_is_one(monkeypatch):
    # rows e_k + 3 e_{k+1} - 2 e_t: a vector on column 0 meets every pivot in turn
    size, t = 30, 31
    ech, ref = Echelon(), _InsertionOrderEchelon()
    for k in range(size):
        assert ech.add({k: 1, k + 1: 3, t: -2}) and ref.add({k: 1, k + 1: 3, t: -2})
    assert {row[p] for p, row in ech.rows} == {1}
    calls = []

    def counted_gcd(*args):
        calls.append(args)
        return math.gcd(*args)

    monkeypatch.setattr(exactla, "gcd", counted_gcd)
    for vec in ({0: 1}, {0: 5, 7: -2, 30: 4}, {3: -1, t: 6}, {0: 2, 1: -6, t: 4}):
        r, scale = ech._clear_pivots(dict(vec))
        assert scale == 1 and not any(p in r for p in ech.pivot_cols)
        assert ech.reduce(vec) == ref.reduce(vec)
    assert not ech.add({0: 1, 1: 3, 2: 2, 3: 6, t: -6, 32: 0})     # row 0 + 2 row 2: no new row
    assert calls == []
    # a pivot entry 2 takes one gcd at each step that meets it
    ech.add({40: 2, 41: 1})
    assert calls == [(2, 1)]                                    # the new row's content
    del calls[:]
    assert ech._clear_pivots({40: 3, 41: 1}) == ({41: -1}, 2)
    assert calls == [(2, 3)]


def test_axpy_accumulates_in_place_and_drops_cancelled_entries():
    out = {0: 2, 1: Fraction(1, 3), 3: 1}
    res = axpy(out, {0: 1, 1: Fraction(1, 6), 2: 4}, -2)
    assert res is out
    assert out == {3: 1, 2: -8}
    assert axpy({}, {5: 7}) == {5: 7}
    assert axpy({5: 7}, {5: 1}, 0) == {5: 7}


# ---------------------------------------------------------------- ints end to end

def test_primitive_drops_explicit_zeros():
    assert primitive({1: 0}) == {}
    assert primitive({0: 0, 1: -2}) == {1: 1}
    assert primitive({0: Fraction(0), 3: Fraction(-4, 6), 5: 2}) == {3: 1, 5: -3}
    assert primitive([0, 0, -3, 6]) == {2: 1, 3: -2}


def _primitive_reference(vec):
    """Coprime ints, positive leading entry, from a dict of Fractions with no zeros."""
    den = math.lcm(*(Fraction(v).denominator for v in vec.values()))
    ints = {j: int(v * den) for j, v in vec.items()}
    g = math.gcd(*ints.values())
    if ints[min(ints)] < 0:
        g = -g
    return {j: v // g for j, v in ints.items()}


def _integral(x):
    """x as an int when it is one, so that integral entries compute in ints."""
    return x.numerator if x.denominator == 1 else x


def _gauss_jordan_kernel(columns):
    """Reference: dense Gauss-Jordan over Fractions on the matrix with these
    columns, one primitive kernel vector per free (non-pivot) column f,
    e_f - sum over pivot columns p of R_p[f] e_p, in increasing f, with R_p
    the row reduced on p.

    The rows are the labels present in some column (any sortable labels,
    such as words).  Each column takes as its pivot the row with the
    fewest nonzero entries among those not yet used, and clearing the
    column subtracts only those entries."""
    cols = [_as_frac_dict(col) for col in columns]
    labels = {i: k for k, i in enumerate(sorted({i for col in cols for i in col}))}
    mat = [[0] * len(cols) for _ in labels]
    for j, col in enumerate(cols):
        for i, v in col.items():
            mat[labels[i]][j] = _integral(v)
    pivots = {}                     # pivot column -> its row
    for c in range(len(cols)):
        hits = [i for i, row in enumerate(mat) if row[c]]
        used = set(pivots.values())
        free = [i for i in hits if i not in used]
        if not free:
            continue
        r = min(free, key=lambda i: len(cols) - mat[i].count(0))
        lead = Fraction(mat[r][c])
        entries = [(j, _integral(x / lead)) for j, x in enumerate(mat[r]) if x]
        for j, x in entries:
            mat[r][j] = x
        for i in hits:
            if i != r:
                row, a = mat[i], mat[i][c]
                for j, x in entries:
                    row[j] = _integral(row[j] - a * x)
        pivots[c] = r
    out = []
    for f in range(len(cols)):
        if f not in pivots:
            vec = {p: -mat[r][f] for p, r in pivots.items() if mat[r][f]}
            vec[f] = Fraction(1)
            out.append(_primitive_reference(vec))
    return out


def _gauss_jordan_solutions(basis, targets):
    """Reference: for each target, x with target == sum_j x[j] * basis[j] as
    Fractions, supported on the basis vectors independent of those before
    them, or None outside the span of the basis.  Read off one
    `_gauss_jordan_kernel` of basis + targets: a target in the span has a
    free column f whose kernel vector z lies on f and the basis only, and
    x[j] = -z[j] / z[f]."""
    by_free = {max(z): z for z in _gauss_jordan_kernel(list(basis) + list(targets))}
    out = []
    for f in range(len(basis), len(basis) + len(targets)):
        z = by_free.get(f)
        if z is None or any(len(basis) <= j < f for j in z):
            out.append(None)
        else:
            out.append({j: Fraction(-v, z[f]) for j, v in z.items() if j != f})
    return out


@pytest.mark.parametrize("kind", ["int", "frac"])
def test_kernel_matches_dense_gauss_jordan(kind):
    rng = random.Random({"int": 41, "frac": 42}[kind])

    def entry():
        if rng.random() < 0.5:
            return 0
        v = rng.randint(-4, 4)
        return Fraction(v, rng.randint(1, 5)) if kind == "frac" else v

    assert kernel([]) == _gauss_jordan_kernel([]) == []
    assert kernel([{}, {}, {}]) == _gauss_jordan_kernel([{}, {}, {}]) == [{0: 1}, {1: 1}, {2: 1}]
    for _ in range(60):
        height, width = rng.randint(0, 7), rng.randint(0, 8)
        columns = [{i: v for i in range(height) if (v := entry())} for _ in range(width)]
        for j in rng.sample(range(width), min(width, rng.randint(0, 2))):
            columns[j] = {} if rng.random() < 0.5 else [0] * height   # zero columns
        got = kernel(columns)
        assert got == _gauss_jordan_kernel(columns)
        assert all(type(v) is int for vec in got for v in vec.values())


def test_add_and_reduce_agree_on_ints_integral_fractions_and_mixed():
    rng = random.Random(43)
    for _ in range(40):
        width = rng.randint(1, 8)
        inputs = _stream(rng, "int", rng.randint(1, 10), width)
        probes = [{j: rng.randint(-5, 5) for j in range(width + 1)} for _ in range(5)]
        forms = {
            "int": lambda vec: dict(vec),
            "frac1": lambda vec: {j: Fraction(v) for j, v in vec.items()},
            "mixed": lambda vec: {j: Fraction(v) if rng.random() < 0.5 else v
                                  for j, v in vec.items()},
        }
        results = {}
        for kind, form in forms.items():
            ech = Echelon()
            grew = [ech.add(form(vec)) for vec in inputs]
            reps = [ech.reduce(form(vec)) for vec in probes]
            for _, row in ech.rows:
                assert all(type(v) is int for v in row.values())
            results[kind] = (grew, ech.rows, reps)
        assert results["int"] == results["frac1"] == results["mixed"]
        # a representative of ints whose division at the end is exact stays in ints
        for red in results["int"][2]:
            if all(Fraction(v).denominator == 1 for v in red.values()):
                assert all(type(v) is int for v in red.values())


def test_inputs_are_neither_mutated_nor_returned():
    rng = random.Random(44)
    for _ in range(30):
        width = rng.randint(1, 6)
        inputs = _stream(rng, rng.choice(["int", "frac", "frac1"]), rng.randint(1, 8), width)
        inputs += [dict(inputs[0]), {}]
        saved = copy.deepcopy(inputs)
        ech = Echelon()
        for vec in inputs:
            ech.add(vec)
        reps = [ech.reduce(vec) for vec in inputs]
        prims = [primitive(vec) for vec in inputs]
        ker = kernel(inputs)
        assert inputs == saved
        given = {id(vec) for vec in inputs}
        kept = [row for _, row in ech.rows] + reps + prims + ker
        assert not any(id(out) in given for out in kept)
        rows = copy.deepcopy(ech.rows)
        for vec in inputs:
            vec.clear()
        assert ech.rows == rows
