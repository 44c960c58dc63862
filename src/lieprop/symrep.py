"""The irreducible representations of the symmetric groups, exactly.

The irreducible representations of S_n over Q are indexed by the
partitions lambda of n.  V_lambda has a basis v_T indexed by the
standard Young tableaux T of shape lambda, and Young's seminormal form
gives each adjacent transposition s_i = (i, i+1) by a rule read off T.
Let a be the content of i + 1 minus the content of i in T, where the
content of a box is its column minus its row:

* if i and i + 1 share a row, s_i v_T = v_T;
* if they share a column, s_i v_T = -v_T;
* otherwise s_i v_T = (1/a) v_T + c v_{s_i T}, where s_i T swaps i and
  i + 1 (again standard), with c = 1 when a > 0 and c = 1 - 1/a^2 when
  a < 0.

(James and Kerber, *The Representation Theory of the Symmetric Group*,
1981; Okounkov and Vershik, Selecta Math. 1996.)  `rho(shape, sigma)`
multiplies these matrices along a reduced word of sigma, so it is the
matrix of sigma on V_lambda: column T holds the coordinates of sigma v_T,
and rho(sigma o tau) = rho(sigma) rho(tau) for the composition
(sigma o tau)(i) = sigma(tau(i)).  A permutation is the tuple
(sigma(1), ..., sigma(n)).  The arithmetic is in ints: a matrix is an
int matrix over one common denominator.  `block_ranks` ranks a matrix
over Z[S_n] block by block, one block rho_lambda per partition lambda.
"""

import functools
from fractions import Fraction
from itertools import chain
from math import factorial, gcd, lcm

from .exactla import Echelon


def _partitions(w, largest=None):
    """Partitions of w as non-increasing tuples of positive parts."""
    if w == 0:
        return [()]
    out = []
    for first in range(min(w, largest or w), 0, -1):
        for rest in _partitions(w - first, first):
            out.append((first,) + rest)
    return out


@functools.cache
def standard_tableaux(shape):
    """The standard Young tableaux of a partition, each a tuple of rows.

    The tableaux of shape lambda with n boxes are those of the shapes
    lambda minus one corner, with n put into that corner.
    """
    n = sum(shape)
    if n == 0:
        return ((),)
    out = []
    for r, length in enumerate(shape):
        if r + 1 < len(shape) and shape[r + 1] == length:
            continue  # not a corner
        smaller = shape[:r] + (length - 1,) + shape[r + 1:]
        smaller = smaller if length > 1 else shape[:r]
        for t in standard_tableaux(smaller):
            rows = list(t) + [()] * (len(shape) - len(t))
            rows[r] = rows[r] + (n,)
            out.append(tuple(rows))
    return tuple(out)


@functools.cache
def dim(shape):
    """d_lambda, the dimension of V_lambda: the number of standard tableaux,
    n! over the product of the hook lengths (Frame, Robinson and Thrall,
    Canad. J. Math. 1954), with no tableau built."""
    heights = [sum(1 for part in shape if part > c) for c in range(shape[0] if shape else 0)]
    hooks = 1
    for r, part in enumerate(shape):
        for c in range(part):
            hooks *= (part - c) + (heights[c] - r) - 1
    return factorial(sum(shape)) // hooks


@functools.cache
def _generators(shape):
    """Young's seminormal matrices of s_1, ..., s_{n-1} on V_lambda.

    Entry i - 1 is (den, rows): the matrix of s_i is rows / den, and
    rows[U] lists the nonzero (T, int) entries of row U.
    """
    tabs = standard_tableaux(shape)
    index = {t: k for k, t in enumerate(tabs)}
    where = [{x: (r, c) for r, row in enumerate(t) for c, x in enumerate(row)} for t in tabs]
    gens = []
    for i in range(1, sum(shape)):
        mat = [{} for _ in tabs]          # mat[U][T]: coefficient of v_U in s_i v_T
        for k, t in enumerate(tabs):
            (r1, c1), (r2, c2) = where[k][i], where[k][i + 1]
            if r1 == r2:
                mat[k][k] = 1
            elif c1 == c2:
                mat[k][k] = -1
            else:
                a = (c2 - r2) - (c1 - r1)
                swapped = tuple(tuple({i: i + 1, i + 1: i}.get(x, x) for x in row) for row in t)
                mat[k][k] = Fraction(1, a)
                mat[index[swapped]][k] = 1 if a > 0 else 1 - Fraction(1, a * a)
        den = lcm(*(Fraction(v).denominator for row in mat for v in row.values()))
        gens.append((den, tuple(tuple((c, int(v * den)) for c, v in sorted(row.items()))
                                for row in mat)))
    return tuple(gens)


def reduced_word(sigma):
    """(i_1, ..., i_k) of least length with sigma = s_{i_1} o ... o s_{i_k}.

    Each step removes a right descent (sigma(i) > sigma(i + 1)) by
    sigma <- sigma o s_i, which lowers the number of inversions by one.
    """
    w = list(sigma)
    word = []
    i = 0
    while i + 1 < len(w):
        if w[i] > w[i + 1]:
            w[i], w[i + 1] = w[i + 1], w[i]
            word.append(i + 1)
            i = max(i - 1, 0)
        else:
            i += 1
    return tuple(reversed(word))


@functools.cache
def rho(shape, sigma):
    """The matrix of sigma on V_lambda in Young's seminormal form, as
    (den, rows): the matrix is rows / den, with rows a tuple of int
    tuples, den > 0 and the gcd of den and the entries 1.

    Built as the product of the generator matrices along
    `reduced_word(sigma)`, and cached per (shape, sigma), so only the
    permutations asked for are ever built.  ValueError unless sigma
    permutes 1..n, n the size of the shape.
    """
    if sorted(sigma) != list(range(1, sum(shape) + 1)):
        raise ValueError("not a permutation of 1..%d: %r" % (sum(shape), sigma))
    gens = _generators(shape)
    d = dim(shape)
    den = 1
    rows = [[int(a == b) for b in range(d)] for a in range(d)]
    for i in reversed(reduced_word(sigma)):
        gden, grows = gens[i - 1]
        new = []
        for (c, v), *more in grows:     # row U of G_i * rows: one or two terms
            if more:
                ((c2, v2),) = more
                new.append([v * x + v2 * y for x, y in zip(rows[c], rows[c2])])
            else:
                new.append([v * x for x in rows[c]])
        den *= gden
        rows = new
    g = gcd(den, *chain.from_iterable(rows))
    return den // g, tuple(tuple(x // g for x in row) for row in rows)


def rho_cleared(shape, sigmas):
    """{sigma: L * rho(shape, sigma)} as int matrices, for L the lcm of
    the denominators of all of them: one common scale per shape."""
    mats = {s: rho(shape, s) for s in sigmas}
    scale = lcm(*(den for den, _ in mats.values()))
    return {s: tuple(tuple(x * (scale // den) for x in row) for row in rows)
            for s, (den, rows) in mats.items()}


def block_ranks(matrix, n):
    """{lambda: rank rho_lambda(M)} over the partitions lambda of n, for M a
    matrix over Z[S_n] given by its rows {i: {sigma: coefficient}}: the block
    rho_lambda(M) has sum_sigma c_sigma rho_lambda(sigma)[a][b] in row (j, a)
    and column (i, b), c_sigma the coefficient of sigma in M_ji.  By Wedderburn,
    x -> xM on Q[S_n]^r has rank sum_lambda d_lambda * rank rho_lambda(M).
    Each block is one echelon of the nonzero entries of `rho_cleared`,
    stopped at full column rank: d_lambda times the number of indices i in M.
    """
    sigmas = {s for row in matrix for entry in row.values() for s in entry}
    cols = len({i for row in matrix for i in row})
    ranks = {}
    for shape in _partitions(n):
        d = dim(shape)
        entries = {s: [(a, b, x) for a, r in enumerate(rows) for b, x in enumerate(r) if x]
                   for s, rows in rho_cleared(shape, sigmas).items()}
        ech = Echelon()
        for row in matrix:
            block = [{} for _ in range(d)]
            for i, entry in row.items():
                for s, c in entry.items():
                    for a, b, x in entries[s]:
                        vec, k = block[a], i * d + b
                        vec[k] = vec.get(k, 0) + c * x
            for vec in block:       # `add` drops the entries that cancelled
                ech.add(vec)
            if ech.rank == d * cols:
                break
        ranks[shape] = ech.rank
    return ranks
