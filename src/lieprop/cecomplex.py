"""The universal Chevalley-Eilenberg complex over the PROP.

The degree-t term at bidegree (m, n) is realized inside Hom(m, n+t) as
the image of the antisymmetrizer

    e_t = (1/t!) sum_{sigma in S_t} sgn(sigma) . (sigma on outputs n+1..n+t),

an exact idempotent over Q.  S_t permutes hom_basis(m, n+t) freely, so
the term has one basis element per orbit, the signed orbit sum of its
representative (`_orbits`, one `catlie.first_occurrence` per value list,
the rest through `hom_index`).  `fold` sums signed coordinates onto
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
its Yoneda oracle), also on representatives: one cached relation span
per (n, m, t), `coend_relations`, with Hom(-, k) = CE_0(-, k).
"""

import functools
import itertools
from fractions import Fraction
from math import factorial

from .catlie import (BasisMorphism, HomElem, _check_arities, basis_trees, compose_basis, emit,
                     first_occurrence, hom_basis, hom_dim, hom_index)
from .exactla import Echelon, axpy, combine
from .mudelta import (Delta1Elem, adjoint_append, delta1_dim, include_delta1, mu_tilde,
                      mu_tilde_1, mu_tilde_1_column, pi)


@functools.cache
def _orbits(m, n, t):
    """The S_t-orbits of hom_basis(m, n+t) under permutations of the last t outputs.

    Returns (where, members): index j is sigma(r) for the representative
    r of orbit k, where[j] = (k, sgn sigma), and members[k] lists the
    (j, sgn sigma) of orbit k, r first.  `catlie.first_occurrence` runs once
    per value list, on a probe whose trees are the output positions: sigma
    is the order of first occurrence of the last t outputs, and r, the
    smallest index of its orbit, is on the probe's value list; any other j
    reads r's orbit through `hom_index`.  For t <= 1 both are None: every
    index is its own orbit.
    """
    if t <= 1:
        return None, None
    index, positions = hom_index(m, n + t), tuple(range(n + t))
    where, members, f = [], [], None
    for j, bm in enumerate(hom_basis(m, n + t)):
        if bm.f != f:           # hom_basis lists each value list's elements together
            f = bm.f
            order, probe = first_occurrence(BasisMorphism(m, n + t, f, positions), n, n + t)
            sign = (-1) ** sum(a > b for a, b in itertools.combinations(order, 2))
        if probe.f == f:
            members.append([])
            k = len(members) - 1
        else:                   # the tree at output i of r is bm's at probe.trees[i]
            r = BasisMorphism(m, n + t, probe.f, tuple(map(bm.trees.__getitem__, probe.trees)))
            k = where[index[r]][0]
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
    ordinary, wedge = trees[:n], trees[n:]
    index = hom_index(bm.m, n + t - 1)
    out = {}
    for i in range(t):
        sign = 1 if i % 2 == 0 else -1
        rest = wedge[:i] + wedge[i + 1:]
        for merged in adjoint_append(ordinary, wedge[i]):
            axpy(out, emit(merged + rest, index), sign)
        for j in range(i + 1, t):
            sign = 1 if (i + j) % 2 == 0 else -1  # (-1)^{(i+1)+(j+1)} = (-1)^{i+j}
            rest = tuple(wedge[k] for k in range(t) if k not in (i, j))
            axpy(out, emit(ordinary + ((wedge[i], wedge[j]),) + rest, index), sign)
    return out


def _reps(m, n, t):
    """The representatives of the S_t-orbits of hom_basis(m, n+t): their first members."""
    basis = hom_basis(m, n + t)
    return basis if t <= 1 else [basis[orbit[0][0]] for orbit in _orbits(m, n, t)[1]]


@functools.cache
def _diff_columns(m, n, t):
    """The integer columns fold(D(r)), one per representative r; read-only."""
    return tuple(_fold(_diff_basis(bm, n, t), _orbits(m, n, t - 1)[0]) for bm in _reps(m, n, t))


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


@functools.cache
def coend_relations(n, m, t):
    """Echelon of the relations of CE_t(-, m) tensored over the PROP with Q[S_n] at
    object n: fold(r o phi) for every representative r of CE_t(a, m), m + t <= a < n,
    and basis phi of Hom(n, a), stopping once they fill CE_t(n, m); cached, read-only.
    This is the span of the x o phi in representative coordinates: fold(x o phi) =
    t! fold(r o phi) for x the orbit sum of r, as precomposition commutes with S_t on
    the outputs, and fold is injective on the image of e_t."""
    _check_arities(n, m, t)
    ech, cap, where = Echelon(), ce_dim(n, m, t), _orbits(n, m, t)[0]
    for a in range(m + t, n):
        for r in _reps(a, m, t):
            for phi in hom_basis(n, a):
                ech.add(_fold(compose_basis(r, phi), where))
                if ech.rank == cap:
                    return ech
    return ech


def coend_with_qsn(t, n, m):
    """CE_t tensored over the PROP with the S_n group algebra at object n,
    evaluated at left slot m.

    Returns (dimension, residual rows of the induced differential): the columns
    `_diff_columns(n, m, t)` reduced modulo `coend_relations(n, m, t-1)`, in
    representative coordinates (d(basis_k) = t * expand(column_k)).  The rows are
    canonical and all zero exactly when the induced differential vanishes.
    """
    dim = ce_dim(n, m, t) - coend_relations(n, m, t).rank
    if t < 1:
        return dim, []
    return dim, list(map(coend_relations(n, m, t - 1).reduce, _diff_columns(n, m, t)))


def coend_yoneda(k, n):
    """Dimension of Hom(-, k) tensored with the S_n module: n! iff k = n."""
    _check_arities(k, n)
    return hom_dim(n, k) - coend_relations(n, k, 0).rank


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
        rel0 = coend_relations(n, m, 0)
        for s in range(delta1_dim(n, m)):
            if rel0.reduce(mu_tilde_1_column(n, m, s)):
                return False
    return True
