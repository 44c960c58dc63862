import functools
import hashlib
import itertools
import json
from fractions import Fraction
from math import factorial, lcm, prod
from pathlib import Path

import pytest

from lieprop import catlie, freelie, mudelta, schur_oracle, symrep
from lieprop.catlie import HomElem, compose, hom_dim, perm_hom
from lieprop.exactla import Echelon, axpy, combine
from lieprop.mudelta import delta1_basis, include_delta1, mu, project_delta1
from lieprop.schur_oracle import (SwModule, _bracket_table, _peel, compositions,
                                  content_basis, content_splits, cross_check, h_modules,
                                  is_lyndon, lyndon_bracketing, lyndon_words,
                                  monomial_count, necklace_dim, permutation_dim, schur_dim,
                                  weight_summand, weighted_complex_homology)
from lieprop.symrep import _partitions
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


def test_necklace_dim_rejects_negative_d():
    # the necklace formula alone gives necklace_dim(-2, 3) == -2 and
    # necklace_dim(-1, 2) == 1 for an empty word set
    for d, w in ((-2, 3), (-1, 2), (-1, 1)):
        assert lyndon_words(d, w) == []
        with pytest.raises(ValueError, match="need d >= 0"):
            necklace_dim(d, w)


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


def _contents(d, w):
    """Every content of weight w over the letters 1..d."""
    return [c for c in itertools.product(range(w + 1), repeat=d) if sum(c) == w]


def test_weight_basis_expansions_independent():
    # distinct leading words, each with coefficient 1 and below every other
    # word of its expansion, all of one content: the expansions are
    # triangular, so independent; over the contents of one weight they are
    # the Lyndon words of that weight, and as many as necklace_dim counts
    for d in (2, 3):
        for w in range(1, 5):
            words = []
            for content in _contents(d, w):
                trees, lead = content_basis(content)
                assert len(trees) == len(lead)
                assert list(lead) == sorted(lead)
                for word, (b, expansion) in lead.items():
                    assert trees[b] == lyndon_bracketing(word)
                    assert min(expansion) == word and expansion[word] == 1
                    assert all(tuple(u.count(i) for i in range(1, d + 1)) == content
                               for u in expansion)
                words += lead
            assert sorted(words) == lyndon_words(d, w)
            assert len(words) == necklace_dim(d, w)


def test_content_basis_rejects_contents_of_weight_zero():
    for content in ((), (0,), (0, 0), (1, -1), (-1, 2)):
        with pytest.raises(ValueError, match="need a content"):
            content_basis(content)


def test_lyndon_bracketing_leads_with_its_word():
    count = 0
    for d in (1, 2, 3):
        for w in range(1, 8):
            words = []
            for content in _contents(d, w):
                for word, (b, expansion) in content_basis(content)[1].items():
                    assert expansion == freelie.expand(lyndon_bracketing(word))
                    assert min(expansion) == word and expansion[word] == 1, word
                    words.append(word)
                    count += 1
            assert sorted(words) == lyndon_words(d, w)
    assert count == 550


def test_peel_matches_gauss_jordan_solve():
    count = 0
    for d in (1, 2, 3):
        for w in range(1, 7):
            for content in _contents(d, w):
                trees = content_basis(content)[0]
                for letter in range(1, d + 1):
                    # reference: the Lyndon trees of the content with one more letter,
                    # expanded, as the basis of one dense Gauss-Jordan solve of every
                    # bracket [T, letter] with T of the content
                    above = content[:letter - 1] + (content[letter - 1] + 1,) + content[letter:]
                    basis = [freelie.expand(tree) for tree in content_basis(above)[0]]
                    assert _gauss_jordan_kernel(basis) == []
                    wants = _gauss_jordan_solutions(
                        basis, [freelie.expand((tree, letter)) for tree in trees])
                    got = _bracket_table(content, letter)
                    assert len(got) == len(trees)
                    for b, want in enumerate(wants):
                        assert got[b] == want, (content, letter, trees[b])
                        assert all(type(c) is int for c in got[b].values())
                        count += 1
    assert count == 635


def test_peel_raises_outside_the_lie_span():
    lead11 = content_basis((1, 1))[1]
    with pytest.raises(AssertionError, match="escaped the Lyndon span"):
        _peel({(2, 1): 1}, lead11)
    # the symmetric tensor 12 + 21: peeling [1, 2] leaves 2 * 21
    with pytest.raises(AssertionError, match="escaped the Lyndon span"):
        _peel({(1, 2): 1, (2, 1): 1}, lead11)
    assert _peel({(1, 2): 3, (2, 1): -3}, lead11) == {0: 3}
    # a word of another content has no lead: 11 is not Lyndon
    with pytest.raises(AssertionError, match="escaped the Lyndon span"):
        _peel({(1, 1): 1}, lead11)


def test_compositions():
    assert compositions(3, 2) == [(1, 2), (2, 1)]
    assert compositions(0, 0) == [()]
    assert compositions(2, 0) == []
    assert compositions(2, 3) == []
    assert compositions(-1, 1) == [] and compositions(0, 1) == []
    for total in range(7):
        for parts in range(5):
            got = compositions(total, parts)
            assert got == sorted(c for c in itertools.product(range(1, total + 1), repeat=parts)
                                 if sum(c) == total)


def test_content_splits():
    assert content_splits((1, 1), 2) == (((0, 1), (1, 0)), ((1, 0), (0, 1)))
    assert content_splits((0, 0), 0) == ((),) and content_splits((1, 0), 0) == ()
    assert content_splits((2, 1), 1) == (((2, 1),),) and content_splits((0, 0), 1) == ()
    for content in ((2, 1), (1, 1, 1), (3, 2), (2, 2, 1)):
        for parts in range(5):
            want = [s for s in itertools.product(
                        itertools.product(*(range(c + 1) for c in content)), repeat=parts)
                    if all(any(beta) for beta in s)
                    and tuple(map(sum, zip(*s))) == content]
            assert sorted(content_splits(content, parts)) == sorted(want), (content, parts)


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


@functools.cache
def _weight_basis(d, w):
    """Reference: (trees, lead) over every Lyndon word of weight w in d letters
    as one basis, with no split by content."""
    trees, lead = [], {}
    for b, word in enumerate(lyndon_words(d, w)):
        trees.append(lyndon_bracketing(word))
        lead[word] = (b, freelie.expand(trees[-1]))
    return trees, lead


@functools.cache
def _weight_bracket(d, w, b, letter):
    """Reference: coordinates of [T_b, letter] in the weight-(w + 1) Lyndon basis."""
    expansion = freelie.expand(_weight_basis(d, w)[0][b])
    rest = {word + (letter,): c for word, c in expansion.items()}
    axpy(rest, {(letter,) + word: c for word, c in expansion.items()}, -1)
    return _peel(rest, _weight_basis(d, w + 1)[1])


def _full_weighted_complex_homology(d, n, w):
    """Reference: the whole weight-w complex over d letters, one rank per
    (d, n, w), with Lyndon bases and brackets for all d^w words."""
    dims = {u: necklace_dim(d, u) for u in range(1, w + 1)}
    c0_index = {}
    for comp in compositions(w, n):
        for idxs in itertools.product(*(range(dims[u]) for u in comp)):
            c0_index[(comp, idxs)] = len(c0_index)
    ech = Echelon()
    c1_dim = 0
    for comp in compositions(w - 1, n):
        for idxs in itertools.product(*(range(dims[u]) for u in comp)):
            for letter in range(1, d + 1):
                c1_dim += 1
                col = {}
                for slot in range(n):
                    u = comp[slot]
                    target_comp = comp[:slot] + (u + 1,) + comp[slot + 1:]
                    coords = _weight_bracket(d, u, idxs[slot], letter)
                    axpy(col, {c0_index[(target_comp, idxs[:slot] + (b,) + idxs[slot + 1:])]: c
                               for b, c in coords.items()})
                ech.add(col)
    return len(c0_index) - ech.rank, c1_dim - ech.rank


def test_weight_summands_match_the_full_enumeration():
    count = 0
    for d in range(1, 5):
        for n in range(5):
            for w in range(1, 7):
                got = weighted_complex_homology(d, n, w)
                assert got == _full_weighted_complex_homology(d, n, w), (d, n, w)
                count += 1
    assert count == 120


def test_weight_summands_match_permutation_characters():
    count = 0
    for w in range(1, 7):
        for n in range(4):
            m0, m1 = h_modules(w, n)
            for lam in _partitions(w):
                c0, c1, rank = weight_summand(n, lam)
                assert (c0 - rank, c1 - rank) == (permutation_dim(m0, lam),
                                                  permutation_dim(m1, lam)), (w, n, lam)
                count += 1
    assert count == 116


def test_monomial_count():
    assert monomial_count((2, 1), 3) == 6
    assert monomial_count((1, 1), 3) == 3 and monomial_count((2,), 3) == 3
    assert monomial_count((1, 1, 1), 2) == 0 and monomial_count((1,), 0) == 0
    for d in range(5):
        for w in range(1, 7):
            # every word of weight w has one content, and a content of shape lam
            # has w! / prod lam_i! words
            assert sum(monomial_count(lam, d) * factorial(w) // prod(map(factorial, lam))
                       for lam in _partitions(w)) == d ** w


def test_schur_dim_is_the_sum_of_permutation_dims():
    modules = [_regular_module(w) for w in range(1, 6)]
    modules += [SwModule(w, 1, _act_sgn) for w in range(1, 7)]
    modules += [m for w in range(1, 7) for n in range(w + 1) for m in h_modules(w, n)]
    for module in modules:
        for d in range(5):
            assert schur_dim(module, d) == sum(monomial_count(lam, d) * permutation_dim(module, lam)
                                               for lam in _partitions(module.w)), (module.w, d)
    assert len(modules) == 5 + 6 + 2 * 27


def test_permutation_dim_regular_and_sign_modules():
    for w in range(1, 6):
        reg, sgn = _regular_module(w), SwModule(w, 1, _act_sgn)
        for lam in _partitions(w):
            # the regular module gives every word of content lam; the sign module one
            # line for a word with distinct letters and none otherwise
            assert permutation_dim(reg, lam) == factorial(w) // prod(map(factorial, lam))
            assert permutation_dim(sgn, lam) == (1 if max(lam) == 1 else 0)
            # a content with its letters renamed, or with unused letters, is the same
            assert permutation_dim(reg, (0,) + lam[::-1]) == permutation_dim(reg, lam)
    # (1.5, 1.5) sums to w = 3 but is no content
    for lam in ((2, 2), (4,), (1, -1, 3), (), (1.5, 1.5), (1.0, 2.0)):
        with pytest.raises(ValueError, match="need a content of weight 3"):
            permutation_dim(_regular_module(3), lam)
    with pytest.raises(ValueError, match="need a content of weight 3"):
        permutation_dim(h_modules(3, 1)[1], (1.5, 1.5))


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


def _reference_blocks(w, n, taus):
    """{(shape, tau): (H0 matrix, H1 matrix)} on the S_n blocks of cell (w, n), in
    block coordinates, for every partition shape of n, with no orbit fold,
    closed form or block reader of the package.

    The representatives are the basis elements whose outputs 1..n first occur
    in order; sigma . rep is read off the composite with perm_hom(sigma) (sigma + 1
    on delta1), which gives the Z[S_n] coordinates of any element, and row a of
    rho_lambda of those coordinates is summed from the Fraction matrices of
    `symrep.rho`.  The block B = rho_lambda(M) has the rows of mu(n) o r_j for the
    delta1 representatives r_j.  H0 images of the non-pivot columns, composed
    with perm_hom(tau), are reduced against an echelon of B; H1 images of the
    dense Gauss-Jordan kernel of the rows of B are solved against it."""
    ident = tuple(range(1, n + 1))
    perms = list(itertools.permutations(ident))
    hom_reps = [bm for bm in catlie.hom_basis(w, n) if tuple(dict.fromkeys(bm.f)) == ident]
    d1_reps = [s for s, y in enumerate(delta1_basis(w, n)[1])
               if tuple(v for v in dict.fromkeys(y.f) if v <= n) == ident]
    hom_at, d1_at = {}, {}
    for k, bm in enumerate(hom_reps):
        for sigma in perms:
            ((i, c),) = compose(perm_hom(sigma), HomElem.from_basis(bm)).coords.items()
            assert c == 1
            hom_at[i] = sigma, k
    for j, s in enumerate(d1_reps):
        z = include_delta1(mudelta.Delta1Elem(w, n, {s: 1}))
        for sigma in perms:
            ((t, c),) = project_delta1(compose(perm_hom(sigma + (n + 1,)), z)).coords.items()
            assert c == 1
            d1_at[t] = sigma, j
    assert sorted(hom_at) == list(range(hom_dim(w, n)))
    assert sorted(d1_at) == list(range(mudelta.delta1_dim(w, n)))

    def block(coords, at, shape):
        d = symrep.dim(shape)
        rows = [{} for _ in range(d)]
        for i, c in coords.items():
            sigma, k = at[i]
            den, mat = symrep.rho(shape, sigma)
            for a, b in itertools.product(range(d), repeat=2):
                if mat[a][b]:
                    rows[a][k * d + b] = rows[a].get(k * d + b, 0) + Fraction(c * mat[a][b], den)
        return [{k: v for k, v in row.items() if v} for row in rows]

    hom_images = {(i, tau): compose(HomElem.from_basis(bm), perm_hom(tau)).coords
                  for i, bm in enumerate(hom_reps) for tau in taus}
    d1_images = {(j, tau): project_delta1(compose(include_delta1(mudelta.Delta1Elem(w, n, {s: 1})),
                                                  perm_hom(tau))).coords
                 for j, s in enumerate(d1_reps) for tau in taus}
    out = {}
    for shape in _partitions(n):
        d = symrep.dim(shape)
        bound = [row for s in d1_reps
                 for row in block(compose(mu(n), include_delta1(mudelta.Delta1Elem(w, n, {s: 1}))).coords,
                                  hom_at, shape)]
        ech = Echelon()
        for row in bound:
            ech.add(row)
        basis = [k for k in range(len(hom_reps) * d) if k not in ech.pivot_cols]
        position = {k: r for r, k in enumerate(basis)}
        ker = _gauss_jordan_kernel(bound)
        for tau in taus:
            m0 = [{position[j]: c for j, c in ech.reduce(
                block(hom_images[k // d, tau], hom_at, shape)[k % d]).items()} for k in basis]
            images = []
            for z in ker:
                image = {}
                for s, c in z.items():
                    axpy(image, block(d1_images[s // d, tau], d1_at, shape)[s % d], c)
                images.append(image)
            out[shape, tau] = m0, _gauss_jordan_solutions(ker, images)
    return out


def test_generator_matrices_match_composition_and_gauss_jordan_solve():
    # every S_n block of H0 and H1 under the adjacent transpositions and, for w >= 3,
    # the w-cycle (2, 3, ..., w, 1), which is not its own inverse; the cells with
    # n = 3 and 4 have blocks of dimension d_lambda = 2 and 3
    count = 0
    cells = [(w, n) for w in range(1, 7) for n in range(3)]
    cells += [(w, n) for n in (3, 4) for w in range(n, 6)]
    for w, n in cells:
        taus = [tuple(range(1, pos)) + (pos + 1, pos) + tuple(range(pos + 2, w + 1))
                for pos in range(1, w)]
        taus += [tuple(range(2, w + 1)) + (1,)] if w >= 3 else []
        m0, m1 = h_modules(w, n)
        want = _reference_blocks(w, n, taus)
        # a module lists its nonzero blocks only
        assert all(block.dim for m in (m0, m1) for block in m.blocks.values())
        for tau in taus:
            for shape in _partitions(n):
                want0, want1 = want[shape, tau]
                got0, got1 = (m.blocks[shape].act(tau) if shape in m.blocks else []
                              for m in (m0, m1))
                assert got0 == want0 and got1 == want1, (w, n, shape, tau)
            count += 2
    assert count == 114 + 42


def _full_push_character(module):
    """chi_M by pushing every basis row through every class word, the leaf words
    included: the reference for the diagonal read of `SwModule.character`."""
    mats = {i: module.act(tau) for i, tau in enumerate(schur_oracle._adjacent(module.w), 1)}
    den = lcm(*(Fraction(v).denominator for mat in mats.values() for row in mat for v in row.values()))
    gens = {i: [{j: int(v * den) for j, v in row.items()} for row in mat] for i, mat in mats.items()}
    words = {}
    for rho in _partitions(module.w):
        starts = itertools.accumulate(rho, initial=1)
        words[tuple(i for a, size in zip(starts, rho) for i in range(a, a + size - 1))] = rho
    traces = dict.fromkeys(words, 0)
    for r in range(module.dim):
        pushed = {(): {r: 1}}
        for word in sorted(words):
            if word:
                pushed[word] = combine(pushed[word[:-1]], gens[word[-1]].__getitem__)
            traces[word] += pushed[word].get(r, 0)
    return {words[word]: Fraction(t, den ** len(word)) for word, t in traces.items()}


def test_leaf_words_read_on_the_diagonal_equal_the_full_push():
    # every block and every BlockSum of every cell with w <= 6, and the regular
    # module: a class word that is no other word's prefix reads only the diagonal
    modules = [_regular_module(4)]
    for w in range(1, 7):
        for n in range(w + 1):
            for module in h_modules(w, n):
                modules += [module, *module.blocks.values()]
    for module in modules:
        assert module.character == _full_push_character(module), (module.w, module.dim)
    assert sum(1 for module in modules if module.dim) > 100


def test_block_sums_act_block_diagonally():
    # the whole module is the sum of d_lambda copies of each block, in both its
    # matrices and its character
    for w, n in [(4, 3), (5, 2), (5, 4)]:
        for module in h_modules(w, n):
            tau = (2, 3, 1) + tuple(range(4, w + 1))
            mat, offset = module.act(tau), 0
            assert len(mat) == module.dim == sum(symrep.dim(shape) * block.dim
                                                 for shape, block in module.blocks.items())
            for shape, block in module.blocks.items():
                want = block.act(tau)
                for _ in range(symrep.dim(shape)):
                    for r, row in enumerate(want):
                        assert mat[offset + r] == {offset + j: v for j, v in row.items()}
                    offset += block.dim
            assert module.character == {
                rho: sum(symrep.dim(shape) * block.character[rho]
                         for shape, block in module.blocks.items()) for rho in _partitions(w)}


def test_characters_equal_the_pinned_table():
    # chi_H0 and chi_H1 of every cell with 1 <= w <= 6, 0 <= n <= w, pinned from the
    # full-cell eliminations that preceded the S_n blocks
    with open(Path(__file__).with_name("characters_w6.json")) as fh:
        cells = json.load(fh)
    assert [(c["w"], c["n"]) for c in cells] == [(w, n) for w in range(1, 7) for n in range(w + 1)]
    for cell in cells:
        for module, key in zip(h_modules(cell["w"], cell["n"]), ("h0", "h1")):
            assert module.character == {tuple(rho): chi for rho, chi in cell[key]}, \
                (cell["w"], cell["n"], key)


# sha256 of the blocks of every cell (w, n) with 1 <= w <= 6, 0 <= n <= w, in that
# order, each partition lambda of n in `_partitions` order: the non-pivot columns of
# the H0 quotient and the H1 kernel vectors, as sorted (index, coefficient) lists,
# both empty for a zero block; pinned from the separate row echelon and
# `exactla.kernel` of each block that preceded the one-pass elimination
BLOCK_DIGEST_W6 = "08ad41c59d0364645c90a58baeffcb2fdd820fa78dc3001ef7604ebd7c063320"


def test_block_bases_digest_w6():
    digest = hashlib.sha256()
    for w in range(1, 7):
        for n in range(w + 1):
            m0, m1 = h_modules(w, n)
            for shape in _partitions(n):
                columns = list(m0.blocks[shape].basis) if shape in m0.blocks else []
                kernel = m1.blocks[shape].basis if shape in m1.blocks else []
                kernel = [sorted(z.items()) for z in kernel]
                digest.update(repr((w, n, shape, columns, kernel)).encode())
    assert digest.hexdigest() == BLOCK_DIGEST_W6


def test_h_modules_rejects_negative_arities():
    for w, n in [(-1, 0), (2, -1), (-3, -2)]:
        with pytest.raises(ValueError, match="h_modules needs w, n >= 0"):
            h_modules(w, n)
    assert [m.dim for m in h_modules(0, 0)] == [1, 0]


def test_h1_action_reads_each_act_in_row_once_per_tau(monkeypatch):
    # act1 takes the columns of the delta1 representatives block by block: no act_in
    # for tau' = 1, each row (y', tau') read at most once per tau for all the S_n
    # blocks, at most two tau' != 1 for an adjacent tau, and every y' an S_n-orbit
    # representative of Hom(w - 1, n), its outputs first occurring in order
    act, calls = catlie._act_in_basis, []

    def counting(bm, sigma):
        calls.append((bm, sigma))
        return act(bm, sigma)

    monkeypatch.setattr(mudelta, "_act_in_basis", counting)
    total = 0
    for w in range(2, 7):
        adjacent = [tuple(range(1, k)) + (k + 1, k) + tuple(range(k + 2, w + 1))
                    for k in range(1, w)]
        for n in range(3):
            m1 = h_modules.__wrapped__(w, n)[1]
            reps = hom_dim(w - 1, n) // factorial(n)
            for tau in adjacent + [tuple(range(2, w + 1)) + (1,)]:
                calls.clear()
                m1.act(tau)
                sigmas = {sigma for _, sigma in calls}
                assert len(set(calls)) == len(calls), (w, n, tau)
                assert tuple(range(1, w)) not in sigmas, (w, n, tau)
                assert len(sigmas) <= (2 if tau in adjacent else 1), (w, n, tau)
                assert all(tuple(dict.fromkeys(bm.f)) == tuple(range(1, n + 1))
                           for bm, _ in calls), (w, n, tau)
                assert len(calls) <= len(sigmas) * reps, (w, n, tau)
                total += len(calls)
    # (2w - 3) tau' != 1 over the w - 1 adjacent tau and the w-cycle, for w >= 3,
    # each read on every representative of Hom(w - 1, 1) and Hom(w - 1, 2)
    assert total == 3 * (1 + 1) + 5 * (2 + 3) + 7 * (6 + 11) + 9 * (24 + 50)


def test_h1_read_rejects_an_image_outside_the_kernel(monkeypatch):
    # a sign error in the block reading of the action on delta1, on the block of
    # lone input 1: the image leaves the kernel span (a sign flip of every column
    # would not, since it is minus the action)
    columns = schur_oracle.delta1_act_in_columns

    def wrong_sign(m, n, tau, support):
        out = columns(m, n, tau, support)
        for s in out:
            if delta1_basis(m, n)[1][s].f[0] == n + 1:
                out[s] = {j: -c for j, c in out[s].items()}
        return out

    monkeypatch.setattr(schur_oracle, "delta1_act_in_columns", wrong_sign)
    # the columns are read on the delta1 representatives only, once for all the
    # S_n blocks; at n = 3 the (2, 1) block has d_lambda = 2
    for w, n, shape in [(4, 2, (2,)), (4, 2, (1, 1)), (6, 3, (2, 1))]:
        block = h_modules.__wrapped__(w, n)[1].blocks[shape]
        assert block.dim
        with pytest.raises(AssertionError, match="not S_w-stable"):
            block.act((2, 1) + tuple(range(3, w + 1)))


def test_a_wrong_rho_entry_in_the_action_is_caught(monkeypatch):
    # one wrong entry of rho_(2,1)(s_1), read only by the S_w action, after the
    # blocks are built: the H1 image of the (2, 1) block leaves the kernel span, and
    # the H0 character is not integral
    m0, m1 = h_modules.__wrapped__(6, 3)
    assert m0.blocks[2, 1].dim and m1.blocks[2, 1].dim
    real = symrep.rho

    def wrong(shape, sigma):
        den, rows = real(shape, sigma)
        if (shape, sigma) == ((2, 1), (2, 1, 3)):
            rows = ((rows[0][0] + den,) + rows[0][1:],) + rows[1:]
        return den, rows

    monkeypatch.setattr(symrep, "rho", wrong)
    with pytest.raises(AssertionError, match="not S_w-stable"):
        m1.character
    with pytest.raises(AssertionError, match="must be integers"):
        m0.character


def test_a_wrong_sign_in_the_one_dimensional_action_is_caught(monkeypatch):
    # chi_(1,1)((2, 1)) read as +1 by the S_w action only, after the blocks are
    # built: the H1 image of the sign block leaves the kernel span
    real = symrep.linear_character

    def wrong(shape):
        chi = real(shape)
        return {(1, 2): chi[1, 2], (2, 1): -chi[2, 1]} if shape == (1, 1) else chi

    for w in (4, 6):
        m1 = h_modules.__wrapped__(w, 2)[1]
        assert m1.blocks[1, 1].dim
        with monkeypatch.context() as patch:
            patch.setattr(symrep, "linear_character", wrong)
            with pytest.raises(AssertionError, match="not S_w-stable"):
                m1.character
        assert m1.blocks[2,].character == h_modules(w, 2)[1].blocks[2,].character


def test_act_rejects_non_permutations_and_accepts_lists():
    m0, m1 = h_modules(3, 1)
    assert m0.dim == 0
    for module in (m0, m1, _regular_module(3)):
        for tau in ((2, 1), (1, 1, 3), (1, 2, 3, 4), (0, 1, 2)):
            with pytest.raises(ValueError, match="not a permutation of 1..3"):
                module.act(tau)
        assert module.act([2, 1, 3]) == module.act((2, 1, 3))
