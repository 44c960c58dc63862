"""The universal Chevalley-Eilenberg complex over the PROP.

The degree-t term at bidegree (m, n) is realized inside Hom(m, n+t) as
the image of the antisymmetrizer

    e_t = (1/t!) sum_{sigma in S_t} sgn(sigma) . (sigma on outputs n+1..n+t),

which is an exact idempotent over Q.  Permuting the last t outputs
sends basis morphisms to basis morphisms, and S_t acts freely on
surjections onto [n+t], so the term has one basis element per S_t-orbit
of hom_basis(m, n+t), the signed orbit sum, with no elimination (the
freeness is asserted when the basis is built).  On representatives the
differential is the homogeneous Chevalley-Eilenberg formula

    d(Z (x) x_1 ^ ... ^ x_t) =
        sum_i (-1)^{i-1} (Z . x_i) (x) (... x_i-hat ...)
      + sum_{i<j} (-1)^{i+j} Z (x) [x_i, x_j] ^ (... x_i-hat ... x_j-hat ...)

with Z . x the place-wise adjoint action on the first n outputs; the
result is re-projected by e_{t-1}.  For t = 1 this is mu_tilde.

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

from .catlie import (BasisMorphism, HomElem, basis_trees, compose, emit, hom_basis,
                     hom_dim, hom_index)
from .exactla import Echelon, axpy, combine
from .mudelta import (Delta1Elem, delta1_dim, include_delta1, mu_tilde,
                      mu_tilde_1, pi)


def _sgn(sigma):
    sign = 1
    seen = [False] * len(sigma)
    for i in range(len(sigma)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = sigma[j] - 1
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@functools.cache
def _tail_perms(m, n, t):
    """Index permutation and sign of every tail permutation on Hom(m, n+t).

    Permuting the last t outputs maps basis morphisms to basis morphisms
    with coefficient one, so each sigma is returned as (sign, index map).
    """
    basis = hom_basis(m, n + t)
    index = hom_index(m, n + t)
    out = []
    for sigma in itertools.permutations(range(1, t + 1)):
        full = tuple(range(1, n + 1)) + tuple(n + v for v in sigma)
        imap = []
        for bm in basis:
            nf = tuple(full[v - 1] for v in bm.f)
            ntrees = [0] * bm.n
            for j in range(1, bm.n + 1):
                ntrees[full[j - 1] - 1] = bm.trees[j - 1]
            imap.append(index[BasisMorphism(bm.m, bm.n, nf, tuple(ntrees))])
        out.append((_sgn(sigma), tuple(imap)))
    return tuple(out)


def e_t_apply(w, n, t):
    """Antisymmetrize the last t outputs of w in Hom(m, n+t)."""
    if w.n != n + t:
        raise ValueError("element does not live in Hom(m, n+t)")
    if t <= 1:
        return w
    out = {}
    scale = Fraction(1, factorial(t))
    for sign, imap in _tail_perms(w.m, n, t):
        axpy(out, {imap[i]: c for i, c in w.coords.items()}, sign)
    return HomElem(w.m, w.n, {j: scale * c for j, c in out.items()})


@functools.cache
def ce_basis(m, n, t):
    """Deterministic echelon basis of the degree-t term, as HomElems.

    For t >= 2 there is one element per S_t-orbit of the basis of
    Hom(m, n+t): the signed orbit sum {sigma(i): sgn sigma} of the
    orbit's smallest index i, which is t! * e_t(i).  S_t permutes the
    last t outputs of a surjection, so it acts freely and every orbit
    has t! elements (asserted; a smaller orbit would mean the orbit sums
    are not the image of e_t).  Disjoint supports with +1 on the
    smallest index make this the primitive row-echelon basis of the
    image, in increasing pivot order.
    """
    dim = hom_dim(m, n + t)
    if t <= 1:
        return tuple(HomElem(m, n + t, {i: 1}) for i in range(dim))
    perms = _tail_perms(m, n, t)
    seen = [False] * dim
    out = []
    for i in range(dim):
        if seen[i]:
            continue
        row = {imap[i]: sign for sign, imap in perms}
        if len(row) != len(perms):
            raise AssertionError("S_%d does not act freely on Hom(%d, %d)" % (t, m, n + t))
        for j in row:
            seen[j] = True
        out.append(HomElem(m, n + t, row))
    return tuple(out)


def ce_dim(m, n, t):
    return len(ce_basis(m, n, t))


@functools.cache
def _diff_basis(bm, n, t):
    """The CE differential of a single basis morphism, before re-projection.

    Cached and shared between callers: the dict is read-only.
    """
    trees = basis_trees(bm)
    ordinary = trees[:n]
    tail = trees[n:]
    index = hom_index(bm.m, n + t - 1)
    out = {}

    def accumulate(sign, out_trees):
        axpy(out, emit(out_trees, index), sign)

    for i in range(t):
        sign = 1 if i % 2 == 0 else -1
        rest = tail[:i] + tail[i + 1:]
        for a in range(n):
            merged = ordinary[:a] + ((ordinary[a], tail[i]),) + ordinary[a + 1:]
            accumulate(sign, merged + rest)
    for i in range(t):
        for j in range(i + 1, t):
            sign = 1 if (i + j) % 2 == 0 else -1  # (-1)^{(i+1)+(j+1)} = (-1)^{i+j}
            rest = tuple(tail[k] for k in range(t) if k not in (i, j))
            accumulate(sign, ordinary + ((tail[i], tail[j]),) + rest)
    return out


def ce_diff(m, n, t, x):
    """The degree-t differential CE_t(m, n) -> CE_{t-1}(m, n)."""
    if t < 1:
        raise ValueError("the differential starts in degree 1")
    if (x.m, x.n) != (m, n + t):
        raise ValueError("element does not live in the stated cell")
    out = combine(x.coords, lambda idx: _diff_basis(hom_basis(m, n + t)[idx], n, t))
    return e_t_apply(HomElem(m, n + t - 1, out), n, t - 1)


def ce_homology_dims(m, n):
    """Homology dimensions (t, dim) of the CE complex at (m, n)."""
    tmax = m - n
    if tmax < 0:
        return []
    ranks = [0] * (tmax + 2)  # ranks[t] = rank of d_t
    for t in range(1, tmax + 1):
        ech = Echelon()
        for x in ce_basis(m, n, t):
            ech.add(ce_diff(m, n, t, x).coords)
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
    for m in range(n):
        def space0(a):
            return [HomElem(a, m, {i: 1}) for i in range(hom_dim(a, m))]

        rel0 = coend_relations(space0, n, m)
        for s in range(delta1_dim(n, m)):
            v = mu_tilde_1(Delta1Elem(n, m, {s: 1}))
            if rel0.reduce(v.coords):
                return False
    return True
