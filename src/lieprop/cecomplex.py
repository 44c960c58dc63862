"""The universal Chevalley-Eilenberg complex over the PROP.

The degree-t term at bidegree (m, n) is realized inside Hom(m, n+t) as
the image of the antisymmetrizer

    e_t = (1/t!) sum_{sigma in S_t} sgn(sigma) . (sigma on outputs n+1..n+t),

an exact idempotent over Q.  S_t permutes hom_basis(m, n+t) freely, so
the term has one basis element per orbit, the signed orbit sum of its
representative (`_orbits`).  `fold` sums signed coordinates onto
representatives, `expand` spreads them back, e_t = expand o fold / t!,
and the differential is e_{t-1} o D with D the homogeneous CE formula

    D(Z (x) x_1 ^ ... ^ x_t) =
        sum_i (-1)^{i-1} (Z . x_i) (x) (... x_i-hat ...)
      + sum_{i<j} (-1)^{i+j} Z (x) [x_i, x_j] ^ (... x_i-hat ... x_j-hat ...)

and Z . x the place-wise adjoint action on the first n outputs.  As
e_{t-1} D sigma = sgn(sigma) e_{t-1} D for sigma in S_t, it is
expand(sum_r fold(x)_r fold(D(r))) / (t-1)!.  For t = 1 it is mu_tilde.

The chain map onto the two-term DG complex is the identity in degree 0,
pi in degree 1 and zero above; the module provides the executable chain
map conditions, homology dimensions, and the coend of the complex
against the symmetric-group module supported at a single object (with
its Yoneda oracle).
"""

import functools
import itertools
from fractions import Fraction
from math import factorial

from .catlie import (BasisMorphism, HomElem, _check_arities, basis_trees, compose, emit,
                     hom_basis, hom_dim, hom_index)
from .exactla import Echelon, axpy, combine
from .mudelta import (Delta1Elem, delta1_dim, include_delta1, mu_tilde,
                      mu_tilde_1, pi)


@functools.cache
def _orbits(m, n, t):
    """The S_t-orbits of hom_basis(m, n+t) under permutations of the last t outputs.

    Returns (where, members): index j is sigma(r) for the representative
    r of orbit k, where[j] = (k, sgn sigma), and members[k] lists the
    (j, sgn sigma) of orbit k, r first.  r has the last t outputs first
    occurring in f in increasing order, so it is the smallest index of
    its orbit.  For t <= 1 both are None: every index is its own orbit.
    """
    if t <= 1:
        return None, None
    index = hom_index(m, n + t)
    where, members, tail = [], [], {}
    for j, bm in enumerate(hom_basis(m, n + t)):
        if bm.f not in tail:
            order = tuple(dict.fromkeys(v for v in bm.f if v > n))
            back = tuple(range(n)) + tuple(v - 1 for v in order)  # r's output q+1 is back[q]+1
            inversions = sum(a > b for a, b in itertools.combinations(order, 2))
            tail[bm.f] = (tuple(back.index(v - 1) + 1 for v in bm.f), (-1) ** inversions, back)
        f, sign, back = tail[bm.f]
        if f == bm.f:
            k = len(members)
            members.append([])
        else:
            k = where[index[BasisMorphism(m, n + t, f, tuple(bm.trees[i] for i in back))]][0]
        where.append((k, sign))
        members[k].append((j, sign))
    return tuple(where), tuple(map(tuple, members))


def _fold(coords, where):
    """Representative coordinates y_k = sum over orbit k of sgn_j * x_j."""
    if where is None:
        return coords
    out = {}
    for j, c in coords.items():
        k, sign = where[j]
        out[k] = out.get(k, 0) + sign * c
    return {k: c for k, c in out.items() if c}


def _expand(y, members, scale):
    """The element with coordinate sgn_j * y_k / scale at each j of orbit k."""
    if members is None:
        return y
    out = {}
    for k, c in y.items():
        c = Fraction(c, scale)
        for j, sign in members[k]:
            out[j] = c if sign == 1 else -c
    return out


def e_t_apply(w, n, t):
    """Antisymmetrize the last t outputs of w in Hom(m, n+t): expand(fold(w)) / t!."""
    _check_arities(n, t)
    if w.n != n + t:
        raise ValueError("element does not live in Hom(m, n+t)")
    where, members = _orbits(w.m, n, t)
    return HomElem(w.m, w.n, _expand(_fold(w.coords, where), members, factorial(t)))


@functools.cache
def ce_basis(m, n, t):
    """Deterministic echelon basis of the degree-t term, as HomElems.

    The orbit sums {sigma(r): sgn sigma} = t! * e_t(r) of the
    representatives r.  Every orbit has t! elements (asserted; else the
    orbit sums are not the image of e_t).  Disjoint supports with +1 on
    the smallest index make this the primitive row-echelon basis of the
    image, in increasing pivot order.
    """
    _check_arities(m, n, t)
    if t <= 1:
        return tuple(HomElem(m, n + t, {i: 1}) for i in range(hom_dim(m, n + t)))
    members = _orbits(m, n, t)[1]
    if any(len(orbit) != factorial(t) for orbit in members):
        raise AssertionError("S_%d does not act freely on Hom(%d, %d)" % (t, m, n + t))
    return tuple(HomElem(m, n + t, dict(orbit)) for orbit in members)


def ce_dim(m, n, t):
    """dim CE_t(m, n) = hom_dim(m, n+t) / t!, as S_t acts freely (`ce_basis`)."""
    _check_arities(m, n, t)
    return hom_dim(m, n + t) // factorial(t)


def _diff_basis(bm, n, t):
    """The homogeneous CE formula D on one basis morphism, in Hom(m, n+t-1)."""
    trees = basis_trees(bm)
    ordinary, tail = trees[:n], trees[n:]
    index = hom_index(bm.m, n + t - 1)
    out = {}
    for i in range(t):
        sign = 1 if i % 2 == 0 else -1
        rest = tail[:i] + tail[i + 1:]
        for a in range(n):
            merged = ordinary[:a] + ((ordinary[a], tail[i]),) + ordinary[a + 1:]
            axpy(out, emit(merged + rest, index), sign)
        for j in range(i + 1, t):
            sign = 1 if (i + j) % 2 == 0 else -1  # (-1)^{(i+1)+(j+1)} = (-1)^{i+j}
            rest = tuple(tail[k] for k in range(t) if k not in (i, j))
            axpy(out, emit(ordinary + ((tail[i], tail[j]),) + rest, index), sign)
    return out


@functools.cache
def _diff_columns(m, n, t):
    """The integer columns fold(D(r)), one per representative r; read-only."""
    basis, members = hom_basis(m, n + t), _orbits(m, n, t)[1]
    reps = basis if members is None else [basis[orbit[0][0]] for orbit in members]
    return tuple(_fold(_diff_basis(bm, n, t), _orbits(m, n, t - 1)[0]) for bm in reps)


def ce_diff(m, n, t, x):
    """CE_t(m, n) -> CE_{t-1}(m, n): e_{t-1} D(x) for every x in Hom(m, n+t)."""
    _check_arities(m, n, t)
    if t < 1:
        raise ValueError("the differential starts in degree 1")
    if (x.m, x.n) != (m, n + t):
        raise ValueError("element does not live in the stated cell")
    y = combine(_fold(x.coords, _orbits(m, n, t)[0]), _diff_columns(m, n, t).__getitem__)
    return HomElem(m, n + t - 1, _expand(y, _orbits(m, n, t - 1)[1], factorial(t - 1)))


def d_squared_witness(m, n, t):
    """The first representative k of CE_t(m, n) on which d_{t-1} d_t is not
    zero, or None.  Checked in ints: the product of the columns
    `_diff_columns(m, n, t-1)` with column k of `_diff_columns(m, n, t)`.
    ce_diff is expand o C o fold, expand is injective and fold o expand at
    scale (t-1)! is the identity, so this product is zero exactly when
    ce_diff(ce_diff(x)) is, for x the basis element of k.
    """
    _check_arities(m, n, t)
    if t < 2:
        raise ValueError("d_{t-1} d_t needs t >= 2")
    lower = _diff_columns(m, n, t - 1).__getitem__
    for k, column in enumerate(_diff_columns(m, n, t)):
        if combine(column, lower):
            return k
    return None


def ce_homology_dims(m, n):
    """Homology dimensions (t, dim) of the CE complex at (m, n).  rank d_t is
    that of the columns: d(basis_k) = t * expand(column_k), expand injective."""
    _check_arities(m, n)
    tmax = m - n
    if tmax < 0:
        return []
    ranks = [0] * (tmax + 2)  # ranks[t] = rank of d_t
    for t in range(1, tmax + 1):
        ech = Echelon()
        for column in _diff_columns(m, n, t):
            ech.add(column)
        ranks[t] = ech.rank
    return [(t, ce_dim(m, n, t) - ranks[t] - ranks[t + 1]) for t in range(tmax + 1)]


def ce_to_dgcat(m, n):
    """Chain-map data and checks for CE ->> (two-term DG complex) at (m, n).

    Degree 0 is the identity, degree 1 is pi, degrees >= 2 are zero;
    returns the three certifying conditions as booleans.  `mu_compat`
    compares mu_tilde_1(pi(w)), the closed form of `mudelta`, with
    mu_tilde(w), the composite with mu(n), on every basis w of
    Hom(m, n+1).  pi fixes delta1 (`retraction`), so this certifies the
    closed form against the definition on every basis element of delta1.
    """
    _check_arities(m, n)
    retraction = all(
        pi(include_delta1(Delta1Elem(m, n, {s: 1}))) == Delta1Elem(m, n, {s: 1})
        for s in range(delta1_dim(m, n)))
    compat = all(
        mu_tilde_1(pi(HomElem(m, n + 1, {i: 1})))
        == mu_tilde(HomElem(m, n + 1, {i: 1}))
        for i in range(hom_dim(m, n + 1)))
    d2_kill = all(
        pi(ce_diff(m, n, 2, x)).is_zero() for x in ce_basis(m, n, 2))
    return {"retraction": retraction, "mu_compat": compat, "pi_d2_zero": d2_kill,
            "ok": retraction and compat and d2_kill}


def coend_relations(space_of, n, low):
    """Echelon span of { x o phi : x in space_of(a), phi in Hom(n, a), a < n }.

    space_of(a) yields HomElems with source arity a; `low` bounds the
    arities a from below (the space is zero under it).  Stops early once
    the relations fill the whole target subspace.
    """
    ech = Echelon()
    cap = len(space_of(n))
    for a in range(low, n):
        xs = space_of(a)
        if not xs:
            continue
        for x in xs:
            for bm in hom_basis(n, a):
                ech.add(compose(x, HomElem.from_basis(bm)).coords)
                if ech.rank == cap:
                    return ech
    return ech


def coend_with_qsn(t, n, m):
    """CE_t tensored over the PROP with the S_n group algebra at object n,
    evaluated at left slot m.

    Returns (dimension, residual rows of the induced differential); the
    rows are canonical representatives and are all zero exactly when the
    induced differential vanishes.
    """
    def space(a):
        return ce_basis(a, m, t)

    rel = coend_relations(space, n, m + t)
    dim = len(space(n)) - rel.rank
    residuals = []
    if t >= 1:
        def space_prev(a):
            return ce_basis(a, m, t - 1)

        rel_prev = coend_relations(space_prev, n, m + t - 1)
        for x in space(n):
            residuals.append(rel_prev.reduce(ce_diff(n, m, t, x).coords))
    return dim, residuals


def coend_yoneda(k, n):
    """Dimension of Hom(-, k) tensored with the S_n module: n! iff k = n."""
    def space(a):
        return [HomElem(a, k, {i: 1}) for i in range(hom_dim(a, k))]

    rel = coend_relations(space, n, k)
    return len(space(n)) - rel.rank


def check_H_ce_QSn(n):
    """Zero differential and dimensions n!/t! at m + t = n, 0 elsewhere.

    Validates the coend realization against the Yoneda oracle first.
    """
    _check_arities(n)
    for k in range(n + 1):
        expect = factorial(n) if k == n else 0
        if coend_yoneda(k, n) != expect:
            return False
    for m in range(n + 1):
        for t in range(n - m + 1):
            dim, residuals = coend_with_qsn(t, n, m)
            expect = factorial(n) // factorial(t) if m + t == n else 0
            if dim != expect:
                return False
            if any(residuals):
                return False
    return True


def naturality_check(n):
    """Degree-wise comparison of the two coends against the S_n module.

    The chain map is the identity in degree 0 and pi in degree 1.  pi is
    a retraction, so the induced degree-1 map is automatically onto; the
    substance is that the induced differential on the two-term side
    vanishes, which forces H0 to agree with the CE side and H1 to be a
    quotient of it.  Verified rank-level: mu_tilde_1 of every degree-1
    generator lies in the degree-0 relation span.
    """
    _check_arities(n)
    for m in range(n):
        def space0(a):
            return [HomElem(a, m, {i: 1}) for i in range(hom_dim(a, m))]

        rel0 = coend_relations(space0, n, m)
        for s in range(delta1_dim(n, m)):
            v = mu_tilde_1(Delta1Elem(n, m, {s: 1}))
            if rel0.reduce(v.coords):
                return False
    return True
