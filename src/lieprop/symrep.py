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
int matrix over one common denominator.  `block_row` reads a row of a
matrix over Z[S_n] on the block rho_lambda of one partition lambda, and
`linear_row` reads it on a one-dimensional block, lambda = (n) or (1^n),
where rho_lambda(sigma) is 1 or the sign of sigma (Fulton and Harris,
*Representation Theory*, Lecture 4), as one signed sum per column;
`block_rows` reads several rows with whichever fits.  `block_ranks` ranks
such a matrix block by block, and the homology modules of
`schur_oracle` build their kernels, quotients and S_w actions on the same
blocks (Serre, *Linear Representations of Finite Groups*, 2.6).
"""

import functools
from fractions import Fraction
from itertools import chain
from math import factorial, gcd, lcm

from .exactla import Echelon


@functools.cache
def _partitions(w, largest=None):
    """Partitions of w as non-increasing tuples of positive parts, in a cached tuple."""
    if w == 0:
        return ((),)
    return tuple((first,) + rest for first in range(min(w, largest or w), 0, -1)
                 for rest in _partitions(w - first, first))


def _check_shape(shape):
    """ValueError unless shape is a partition: non-increasing positive ints."""
    if (not all(isinstance(part, int) and part > 0 for part in shape)
            or any(a < b for a, b in zip(shape, shape[1:]))):
        raise ValueError("not a partition: %r" % (shape,))


@functools.cache
def standard_tableaux(shape):
    """The standard Young tableaux of a partition, each a tuple of rows.

    The tableaux of shape lambda with n boxes are those of the shapes
    lambda minus one corner, with n put into that corner.  ValueError
    unless shape is a partition.
    """
    _check_shape(shape)
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
    Canad. J. Math. 1954), with no tableau built.  ValueError unless shape
    is a partition."""
    _check_shape(shape)
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
    permutations asked for are ever built.  ValueError unless shape is a
    partition and sigma permutes 1..n, n the size of the shape.
    """
    d = dim(shape)
    if sorted(sigma) != list(range(1, sum(shape) + 1)):
        raise ValueError("not a permutation of 1..%d: %r" % (sum(shape), sigma))
    gens = _generators(shape)
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


def block_entries(shape, sigmas):
    """(L, {sigma: ((a, b, x), ...)}): the nonzero entries x, at row a and
    column b, of the int matrices L * rho(shape, sigma) of `rho_cleared`,
    L their common scale."""
    scale = lcm(*(rho(shape, s)[0] for s in sigmas))
    return scale, {s: tuple((a, b, x) for a, r in enumerate(rows) for b, x in enumerate(r) if x)
                   for s, rows in rho_cleared(shape, sigmas).items()}


def block_row(row, d, entries):
    """The d rows (j, a) of L * rho_lambda(M) for one row j of a matrix M over
    Z[S_n], given as {i: {sigma: coefficient}}: row (j, a) has
    sum_sigma c_sigma L rho_lambda(sigma)[a][b] in column i * d + b, c_sigma the
    coefficient of sigma in M_ji, with d = d_lambda and (L, entries) from
    `block_entries`.  Each row is a sparse int dict; an entry that cancelled
    stays as a 0.  The one reading of a Z[S_n] row on a block, for
    `block_ranks` and for the homology modules of `schur_oracle`."""
    block = [{} for _ in range(d)]
    for i, entry in row.items():
        for s, c in entry.items():
            for a, b, x in entries[s]:
                vec, k = block[a], i * d + b
                vec[k] = vec.get(k, 0) + c * x
    return block


class _LinearCharacter(dict):
    """chi_lambda of a one-dimensional lambda |- n, filled on the first read of
    each permutation: 1 for lambda = (n), sgn sigma = (-1)^(length of
    `reduced_word(sigma)`) for lambda = (1^n).  ValueError for a key that does
    not permute 1..n."""

    def __init__(self, n, sign):
        super().__init__()
        self.n, self.sign = n, sign

    def __missing__(self, sigma):
        if sorted(sigma) != list(range(1, self.n + 1)):
            raise ValueError("not a permutation of 1..%d: %r" % (self.n, sigma))
        value = self[sigma] = -1 if self.sign and len(reduced_word(sigma)) % 2 else 1
        return value


@functools.cache
def linear_character(shape):
    """{sigma: chi_lambda(sigma)} for a one-dimensional partition lambda, (n) or
    (1^n), as a dict filled on first read (`_LinearCharacter`); it is
    rho(lambda, sigma), a 1 x 1 matrix over den = 1.  ValueError for any other
    shape."""
    if dim(shape) != 1:
        raise ValueError("not a one-dimensional representation: %r" % (shape,))
    return _LinearCharacter(sum(shape), len(shape) > 1)


def linear_row(row, chi):
    """The one row of rho_lambda(M) for one row of a matrix M over Z[S_n] and a
    one-dimensional lambda, chi = `linear_character(lambda)`: column i holds
    sum_sigma chi_lambda(sigma) c_sigma, c_sigma the coefficient of sigma in
    M_ji, and L = 1.  It is `block_row(row, 1, entries)[0]`, an entry that
    cancelled kept as a 0, with no matrix entry built."""
    out = {}
    for i, entry in row.items():
        x = 0
        for s, c in entry.items():
            x += chi[s] * c
        out[i] = x
    return out


def block_rows(rows, shape):
    """(L, {j d + a: row (j, a) of L rho_lambda(M)}) for the rows {j: M_j} of
    a matrix M over Z[S_n], d = d_lambda, numbered as their columns i d + b:
    one `linear_row` per j, with L = 1, when d = 1, else the d rows of
    `block_row` over `block_entries` of the sigmas that occur."""
    d = dim(shape)
    if d == 1:
        chi = linear_character(shape)
        return 1, {j: linear_row(row, chi) for j, row in rows.items()}
    scale, entries = block_entries(shape, {s for row in rows.values() for entry in row.values()
                                           for s in entry})
    return scale, {j * d + a: vec for j, row in rows.items()
                   for a, vec in enumerate(block_row(row, d, entries))}


def block_ranks(matrix, n):
    """{lambda: rank rho_lambda(M)} over the partitions lambda of n, for M a
    matrix over Z[S_n] given by its rows {i: {sigma: coefficient}}: the block
    rho_lambda(M) has sum_sigma c_sigma rho_lambda(sigma)[a][b] in row (j, a)
    and column (i, b), c_sigma the coefficient of sigma in M_ji.  By Wedderburn,
    x -> xM on Q[S_n]^r has rank sum_lambda d_lambda * rank rho_lambda(M).
    Each block is one echelon of the rows of `block_row`, or of `linear_row`
    when d_lambda = 1, stopped at full column rank: d_lambda times the number
    of indices i in M.
    """
    sigmas = {s for row in matrix for entry in row.values() for s in entry}
    cols = len({i for row in matrix for i in row})
    ranks = {}
    for shape in _partitions(n):
        d = dim(shape)
        if d == 1:
            chi = linear_character(shape)
            rows = ((linear_row(row, chi),) for row in matrix)
        else:
            entries = block_entries(shape, sigmas)[1]
            rows = (block_row(row, d, entries) for row in matrix)
        ech = Echelon()
        for vecs in rows:
            for vec in vecs:    # `add` drops the entries that cancelled
                ech.add(vec)
            if ech.rank == d * cols:
                break
        ranks[shape] = ech.rank
    return ranks
