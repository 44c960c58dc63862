"""Independent cross-check against an actual free Lie algebra.

The two-term complex underlying the DG category encodes, for every n,
the adjoint-action complex

    Lie(V)^{(x) n} (x) V  -->  Lie(V)^{(x) n}

computing Lie algebra homology of the free Lie algebra on V with
coefficients in the n-fold adjoint representation.  This module builds
that complex directly over V = Q^d, with Lyndon-word bases, and compares
the resulting kernel/cokernel dimensions with the prediction obtained
from the homology cells of the DG category through the Schur
correspondence, whose right-hand side `schur_dim` reads off the
S_w-character of a cell:

    weight-w part of H_eps  =  H_eps(w, n) (x)_{S_w} (Q^d)^{(x) w}.

The grading convention is total weight (a V tensor factor counts 1), so
the degree-one term in weight w carries Lie-part weight w - 1; this is
the convention under which the weight-w piece corresponds to the
homology cell at source arity w.

The complex is GL_d-equivariant, so it splits by content: the summand
in which letter i occurs alpha_i times is H_eps(w, n) (x)_{S_w} M^alpha,
with M^alpha the permutation module of S_w on the words of content alpha
(Macdonald, Symmetric Functions, I.7).  Renaming the letters carries it
onto the summand of the partition lam = sort(alpha).  So the direct side
is one exact rank per partition lam |- w, over the letters 1..l(lam)
(`weight_summand`), cached and shared by every d >= l(lam), and the
weight-w dimensions are their sums, each summand counted N(lam, d)
times (`monomial_count`).  `cross_check` compares the sums with
`schur_dim` and every summand with `permutation_dim`, the inner product
of the cell's character with the permutation character pi_lam.

A bracket is put into Lyndon coordinates in the tensor algebra, by a
triangular peel: the standard bracketing of a Lyndon word u expands to
u plus larger words, with coefficient 1 on u, so the least word of any
Lie element is Lyndon, and subtracting its coefficient times its
bracketing's expansion leaves only larger words.  The coordinates are
ints, with no elimination.

The DG side, `h_modules`, reads the S_w-modules H0(w, n) and H1(w, n)
off the homology cells.  A cell is an S_w x S_n-bimodule and S_n acts
freely on both bases, so each cell is built on the Wedderburn blocks of
S_n, one small quotient and kernel per partition lambda of n, both read
off one elimination pass over the block, and its character is the sum
of the block characters times d_lambda.

The two computation paths share no code beyond exact linear algebra,
which is the point.  The tensor expansion `freelie.expand` serves only
the direct side (and the tests' reference for the comb rule): the DG
side normalizes its trees by the comb rule of `freelie.normalize_tree`
and forms no tensor word.
"""

import functools
import itertools
from fractions import Fraction
from math import factorial, lcm, prod

from . import dgcat, freelie, symrep
from .catlie import _act_in_basis, hom_basis, orbit_fold
from .exactla import Echelon, axpy, combine, echelon_and_kernel
from .mudelta import delta1_act_in_columns, delta1_orbit_fold
from .symrep import _partitions


def _mobius(n):
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def necklace_dim(d, w):
    """Dimension of the weight-w part of the free Lie algebra on d letters,
    the number of `lyndon_words(d, w)` (Witt's necklace formula); 0 for d = 0.
    d < 0 or w < 1 raises ValueError."""
    if d < 0:
        raise ValueError("need d >= 0, got %r" % (d,))
    if w < 1:
        raise ValueError("need w >= 1, got %r" % (w,))
    total = 0
    for k in range(1, w + 1):
        if w % k == 0:
            total += _mobius(k) * d ** (w // k)
    return total // w


def is_lyndon(word):
    return all(word < word[i:] for i in range(1, len(word)))


def lyndon_words(d, w):
    """Lyndon words of length w over 1..d, lexicographically ordered; none for d < 1."""
    out, word = [], [0] if d > 0 else []
    while word:
        word[-1] += 1
        if len(word) == w:
            out.append(tuple(word))
        m = len(word)
        while len(word) < w:
            word.append(word[len(word) - m])
        while word and word[-1] == d:
            word.pop()
    return out


def lyndon_bracketing(word):
    """Standard bracketing: split at the longest proper Lyndon suffix."""
    if len(word) == 1:
        return word[0]
    for i in range(1, len(word)):
        if is_lyndon(word[i:]):
            return (lyndon_bracketing(word[:i]), lyndon_bracketing(word[i:]))
    raise AssertionError("unreachable: every word of length >= 2 has a Lyndon suffix")


def _words(content):
    """The words in which letter i occurs content[i - 1] times, in lexicographic order."""
    if not any(content):
        return [()]
    out = []
    for letter, c in enumerate(content, 1):
        if c:
            out += [(letter,) + tail for tail in _words(_shift(content, letter, -1))]
    return out


def _shift(content, letter, step):
    """content with the multiplicity of `letter` moved by step."""
    return content[:letter - 1] + (content[letter - 1] + step,) + content[letter:]


@functools.cache
def content_basis(content):
    """(trees, lead) for the Lyndon words of one content: the words over
    1..len(content) in which letter i occurs content[i - 1] times, a tuple
    of ints >= 0 that are not all 0 (else ValueError).

    trees are the standard bracketings of those Lyndon words, in
    lexicographic order.  lead maps each Lyndon word u, the leading word
    of its tree, to (b, expansion): the tree's position b in trees and
    its tensor expansion {word: int}.  The bracketing of u expands to u,
    with coefficient 1, plus larger words of the same content (Lothaire,
    Combinatorics on Words, ch. 5; Reutenauer, Free Lie Algebras, ch. 5);
    this is asserted, and the distinct leading words make the expansions
    independent.  A Lyndon word begins with its least letter, so only
    the words that do are tested.  Cached and shared, so both are
    read-only.
    """
    if not any(content) or min(content) < 0:
        raise ValueError("need a content of ints >= 0, not all 0, got %r" % (content,))
    first = next(i for i, c in enumerate(content) if c) + 1
    trees, lead = [], {}
    for tail in _words(_shift(content, first, -1)):
        word = (first,) + tail
        if not is_lyndon(word):
            continue
        tree = lyndon_bracketing(word)
        expansion = freelie.expand(tree)
        if min(expansion) != word or expansion[word] != 1:
            raise AssertionError("the bracketing of %r does not lead with it" % (word,))
        lead[word] = (len(trees), expansion)
        trees.append(tree)
    return tuple(trees), lead


@functools.cache
def _bracket_table(content, letter):
    """Int coordinates {b: c} of [T_b, letter] in the Lyndon basis of the
    content with one more `letter`, for every tree T_b of
    content_basis(content), as a tuple over b.

    [T, a] is expanded as T.a - a.T from T's cached expansion, with no
    `freelie.expand`, and its coordinates are peeled off by `_peel`.
    """
    lead = content_basis(_shift(content, letter, 1))[1]
    out = []
    for _, expansion in content_basis(content)[1].values():
        rest = {word + (letter,): c for word, c in expansion.items()}
        axpy(rest, {(letter,) + word: c for word, c in expansion.items()}, -1)
        out.append(_peel(rest, lead))
    return tuple(out)


def _peel(rest, lead):
    """Lyndon coordinates {b: c} of the word vector `rest` (an int dict the
    caller owns; it is consumed), with `lead` from content_basis.

    The least word left must be Lyndon; its coefficient is its
    coordinate, and subtracting that multiple of its tree's expansion
    leaves only larger words.  Repeat until nothing is left.  A least
    word that is not Lyndon means the vector is outside the Lie span,
    which raises AssertionError.
    """
    coords = {}
    while rest:
        word = min(rest)
        if word not in lead:
            raise AssertionError("bracket escaped the Lyndon span")
        b, expansion = lead[word]
        c = coords[b] = rest[word]
        axpy(rest, expansion, -c)
    return coords


@functools.cache
def content_splits(content, parts):
    """Ordered tuples of `parts` contents, none of them all 0, that sum to
    `content` (a tuple of ints), as a tuple; parts < 0 raises ValueError."""
    if parts < 0:
        raise ValueError("need parts >= 0, got %r" % (parts,))
    if parts == 0:
        return () if any(content) else ((),)
    if parts == 1:
        return ((content,),) if any(content) and min(content) >= 0 else ()
    out = []
    for first in itertools.product(*(range(c + 1) for c in content)):
        if any(first):
            rest = tuple(c - f for c, f in zip(content, first))
            out += [(first,) + tail for tail in content_splits(rest, parts - 1)]
    return tuple(out)


def compositions(total, parts):
    """Ordered compositions of `total` into `parts` strictly positive parts."""
    return [tuple(u for (u,) in split) for split in content_splits((total,), parts)]


def _ranges(split):
    return [range(len(content_basis(beta)[0])) for beta in split]


@functools.cache
def weight_summand(n, lam):
    """(dim C0, dim C1, rank) of the weight-lam summand of the
    adjoint-action complex over the letters 1..len(lam): the part in which
    letter i occurs lam[i - 1] times, with rank that of its differential.

    C0 has a basis of n-tuples of Lyndon trees whose contents (none of
    them all 0) sum to lam; C1 of such tuples summing to lam minus one
    letter a, with a.  The differential brackets a onto each slot in
    turn (`_bracket_table`), so only the contents below lam are ever
    built.  One exact `Echelon` rank per (n, lam), cached and shared by
    every d >= len(lam).
    """
    c0_index = {}
    for split in content_splits(lam, n):
        for idxs in itertools.product(*_ranges(split)):
            c0_index[split, idxs] = len(c0_index)

    ech = Echelon()
    c1_dim = 0
    for letter in range(1, len(lam) + 1):
        for split in content_splits(_shift(lam, letter, -1), n):
            slots = [(s, split[:s] + (_shift(beta, letter, 1),) + split[s + 1:],
                      _bracket_table(beta, letter)) for s, beta in enumerate(split)]
            for idxs in itertools.product(*_ranges(split)):
                c1_dim += 1
                col = {}
                for s, target, table in slots:
                    for b, c in table[idxs[s]].items():
                        col[c0_index[target, idxs[:s] + (b,) + idxs[s + 1:]]] = c
                ech.add(col)
    return len(c0_index), c1_dim, ech.rank


def monomial_count(lam, d):
    """N(lam, d): the contents alpha in N^d that sort to the partition lam,
    d! / prod of the factorials of the multiplicities of lam padded with
    zeros to length d; 0 when lam has more than d parts."""
    if len(lam) > d:
        return 0
    padded = tuple(lam) + (0,) * (d - len(lam))
    return factorial(d) // prod(factorial(padded.count(k)) for k in set(padded))


def weighted_complex_homology(d, n, w):
    """(dim H0, dim H1) of the weight-w part of the adjoint-action complex.

    Degree 0 is the weight-w part of Lie(V)^{(x) n}, V = Q^d; degree 1 is
    the weight-(w-1) part tensored with V.  The differential brackets the
    V factor onto each tensor slot in turn.  The pair is the sum over the
    partitions lam |- w with at most d parts of N(lam, d) (dim C0_lam - r,
    dim C1_lam - r), (dim C0_lam, dim C1_lam, r) = `weight_summand(n, lam)`;
    the summed dimensions are asserted to equal the counts from
    `necklace_dim`.
    """
    if d < 1 or w < 1:
        raise ValueError("need d >= 1 and w >= 1")

    def necklace_count(total):
        return sum(prod(necklace_dim(d, u) for u in comp) for comp in compositions(total, n))

    want = (necklace_count(w), d * necklace_count(w - 1))
    h0 = h1 = dim0 = dim1 = 0
    for lam in _partitions(w):
        count = monomial_count(lam, d)
        if count:
            c0, c1, rank = weight_summand(n, lam)
            h0 += count * (c0 - rank)
            h1 += count * (c1 - rank)
            dim0 += count * c0
            dim1 += count * c1
    if (dim0, dim1) != want:
        raise AssertionError("weight summands of dimensions %s, necklace counts %s" % ((dim0, dim1), want))
    return h0, h1


def _adjacent(w):
    """The adjacent transpositions s_1, ..., s_{w-1} of 1..w, in order."""
    return [(*range(1, i), i + 1, i, *range(i + 2, w + 1)) for i in range(1, w)]


class SwModule:
    """A right S_w-module given by its dimension and action matrices.

    `act(tau)` returns the matrix of the right action of the permutation
    tau of 1..w (ValueError for anything else) as sparse rows (row r =
    image of basis vector r), cached per tau.  `character` reads only the
    adjacent transpositions s_i = (i, i+1).  Built once, it maps each
    cycle type rho |- w to the int chi_M(rho), the trace of the word with
    consecutive cycles ((3, 2, 1) is s1 s2 s4), in ints.  Each row e_r is
    pushed through the words, a word from its prefix, again a class word
    (s1 ... s5 of (6) extends (5, 1), ..., (2, 1^4)); a word that is no
    other word's prefix is not pushed, and only its diagonal entry
    sum_j pushed[prefix][j] G[j][r] is read.  `basis` lists what the
    module is built on, if anything: the quotient columns or the kernel
    vectors of a block of `h_modules`.
    """

    def __init__(self, w, dim, act_fn, basis=()):
        self.w = w
        self.dim = dim
        self.basis = basis
        self._act_fn = act_fn
        self._cache = {}

    def act(self, tau):
        tau = tuple(tau)
        if tau not in self._cache:
            if sorted(tau) != list(range(1, self.w + 1)):
                raise ValueError("not a permutation of 1..%d: %r" % (self.w, tau))
            self._cache[tau] = self._act_fn(tau)
        return self._cache[tau]

    @functools.cached_property
    def character(self):
        mats = {i: self.act(tau) for i, tau in enumerate(_adjacent(self.w), 1)}
        den = lcm(*(v.denominator for mat in mats.values() for row in mat for v in row.values()))
        gens = {i: [{j: int(v * den) for j, v in row.items()} for row in mat]
                for i, mat in mats.items()}
        words = {}
        for rho in _partitions(self.w):
            starts = itertools.accumulate(rho, initial=1)
            words[tuple(i for a, size in zip(starts, rho) for i in range(a, a + size - 1))] = rho
        order = sorted(words)           # every prefix before its extensions
        inner = {word[:-1] for word in order}
        traces = {word: 0 if word else self.dim for word in words}
        for r in range(self.dim):
            pushed = {(): {r: 1}}
            for word in order[1:]:
                prefix, gen = pushed[word[:-1]], gens[word[-1]]
                if word in inner:
                    pushed[word] = vec = combine(prefix, gen.__getitem__)
                    traces[word] += vec.get(r, 0)
                else:                   # a leaf: only the diagonal entry
                    traces[word] += sum(x * gen[j].get(r, 0) for j, x in prefix.items())
        chi = {words[word]: Fraction(t, den ** len(word)) for word, t in traces.items()}
        if any(c.denominator != 1 for c in chi.values()):
            raise AssertionError("character values must be integers: %s" % chi)
        return {rho: int(c) for rho, c in chi.items()}


class BlockSum(SwModule):
    """The SwModule sum over lambda of d_lambda copies of blocks[lambda], a
    SwModule: `act` is block diagonal, and the character is
    sum_lambda d_lambda chi_{blocks[lambda]}, read off the blocks."""

    def __init__(self, w, blocks):
        self.blocks = blocks
        super().__init__(w, sum(symrep.dim(shape) * m.dim for shape, m in blocks.items()),
                         self._diagonal)

    def _diagonal(self, tau):
        rows = []
        for shape, module in self.blocks.items():
            mat = module.act(tau)
            for _ in range(symrep.dim(shape)):
                offset = len(rows)
                rows += [{offset + j: v for j, v in row.items()} for row in mat]
        return rows

    @functools.cached_property
    def character(self):
        for tau in _adjacent(self.w):   # the blocks of one tau share its rows over Z[S_n]
            for module in self.blocks.values():
                module.act(tau)
        chi = dict.fromkeys(_partitions(self.w), 0)
        for shape, module in self.blocks.items():
            for rho, value in module.character.items():
                chi[rho] += symrep.dim(shape) * value
        return chi


def _over(x, den):
    """x / den, an int when that is exact."""
    if den == 1:
        return x
    q = Fraction(x, den)
    return q.numerator if q.denominator == 1 else q


@functools.cache
def h_modules(w, n):
    """The homology cells H0(w, n), H1(w, n) as right S_w-modules via act_in,
    each a `BlockSum` over the partitions lambda of n with a nonzero block.

    S_n acts freely on both bases and commutes with S_w and mu_tilde_1, so
    each cell splits on the Wedderburn blocks of S_n (Serre, Linear
    Representations of Finite Groups, 2.6).  Let M be the Z[S_n] matrix of
    `dgcat._block_matrix` and B = rho_lambda(M) (`symrep.block_rows`: one
    `linear_row` per row of M when d_lambda = 1, lambda = (n) or (1^n)).
    H0_lambda is Q^(c d_lambda), c the number of Hom representatives, modulo
    the row echelon of B, and H1_lambda is the left kernel of B, both from
    one elimination pass over B, `exactla.echelon_and_kernel`; each block
    module keeps the non-pivot columns or the kernel vectors as its `basis`.
    tau acts on the representatives by rows over Z[S_n], kept for the blocks
    of the last tau: act_in on Hom(w, n) and `mudelta.delta1_act_in_columns`
    on delta1, folded onto the representatives (`catlie.orbit_fold` at
    lo = 0, `mudelta.delta1_orbit_fold`); a block reads them as it reads M.
    H0_lambda reduces its images against the echelon.  H1_lambda pushes each
    kernel vector v_r, times L = lcm of the v_r[f_r], through them in one int
    loop: the free column f_r = max(v_r) is zero on every other v_s, so
    L c_r = (L z)[f_r] / v_r[f_r], checked as L z == sum (L c_r) v_r by
    subtracting each term from L z.  For n <= 1 the one block is M read on
    the one element of S_n, once, and the rows of tau need no fold or reading.
    Cached, so the matrices and characters are built once per (w, n) and
    shared by every d of `cross_check`.  Negative arities raise ValueError.
    """
    if w < 0 or n < 0:
        raise ValueError("h_modules needs w, n >= 0, got (%d, %d)" % (w, n))
    matrix, shapes = dgcat._block_matrix(w, n), _partitions(n)
    trivial = n <= 1
    if trivial:     # M read once, on the one element of S_n, and its Z[S_n] rows dropped
        matrix = list(symrep.block_rows(dict(enumerate(matrix)), shapes[0])[1].values())
        reps, d1_reps, hom_fold, d1_fold = hom_basis(w, n), range(len(matrix)), None, None
    else:
        hom_fold, reps = orbit_fold(w, n)
        d1_fold, d1_reps = delta1_orbit_fold(w, n)

    def fold(coords, table):
        if trivial:
            return coords
        out = {}
        for i, c in coords.items():
            sigma, k = table[i]
            out.setdefault(k, {})[sigma] = c
        return out

    def block(rows, shape):
        return (1, rows) if trivial else symrep.block_rows(rows, shape)

    quotients, kernels = {}, {}
    for shape in shapes:
        size = len(reps) * symrep.dim(shape)
        rows = block(dict(enumerate(matrix)), shape)[1]
        ech, kernels[shape] = echelon_and_kernel(list(rows.values()))
        quotients[shape] = ech, [k for k in range(size) if k not in ech.pivot_cols]
    need = {k // symrep.dim(shape) for shape, (_, basis) in quotients.items() for k in basis}
    support = {s // symrep.dim(shape) for shape, ker in kernels.items() for z in ker for s in z}

    @functools.lru_cache(maxsize=1)
    def hom_rows(tau):
        return {i: fold(_act_in_basis(reps[i], tau), hom_fold) for i in need}

    @functools.lru_cache(maxsize=1)
    def delta1_rows(tau):
        cols = delta1_act_in_columns(w, n, tau, [d1_reps[j] for j in support])
        return {j: fold(cols[d1_reps[j]], d1_fold) for j in support}

    def h0(shape):
        d, (ech, basis) = symrep.dim(shape), quotients[shape]
        position = {k: r for r, k in enumerate(basis)}
        mine = {k // d for k in basis}

        def act0(tau):
            rows = hom_rows(tau)
            scale, rows = block({i: rows[i] for i in mine}, shape)
            return [{position[j]: _over(x, scale) for j, x in ech.reduce(rows[k]).items()}
                    for k in basis]

        return SwModule(w, len(basis), act0, basis)

    def h1(shape):
        d, ker = symrep.dim(shape), kernels[shape]
        free = {max(v): (r, v[max(v)]) for r, v in enumerate(ker)}
        den = lcm(*(v for _, v in free.values()))
        scaled = ker if den == 1 else [{s: den * c for s, c in z.items()} for z in ker]
        mine = {s // d for z in ker for s in z}

        def act1(tau):
            rows = delta1_rows(tau)
            scale, rows = block({j: rows[j] for j in mine}, shape)
            out = []
            for z in scaled:
                image = {}
                get = image.get
                for s, c in z.items():
                    for j, x in rows[s].items():
                        image[j] = get(j, 0) + c * x
                coords = {hit[0]: x // hit[1] for j, x in image.items() if x and (hit := free.get(j))}
                for r, c in coords.items():
                    for j, y in ker[r].items():
                        image[j] = get(j, 0) - c * y
                if any(image.values()):
                    raise AssertionError("kernel is not S_w-stable; broken equivariance")
                out.append({r: _over(c, den * scale) for r, c in coords.items()})
            return out

        return SwModule(w, len(ker), act1, ker)

    return (BlockSum(w, {shape: h0(shape) for shape in shapes if quotients[shape][1]}),
            BlockSum(w, {shape: h1(shape) for shape in shapes if kernels[shape]}))


@functools.cache
def _class_size(rho):
    """w! / z_rho: the permutations of cycle type rho |- w."""
    z = prod(k ** rho.count(k) * factorial(rho.count(k)) for k in set(rho))
    return factorial(sum(rho)) // z


def _character_product(module, value):
    """<chi_M, f> = sum over rho |- w of chi_M(rho) f(rho) / z_rho for an int
    class function f(rho), taken in ints as sum chi f |class| / w!; it must
    be a non-negative integer."""
    total = sum(chi * value(rho) * _class_size(rho) for rho, chi in module.character.items())
    dim, rest = divmod(total, factorial(module.w))
    if rest or dim < 0:
        raise AssertionError("character inner product %s is not a dimension"
                             % Fraction(total, factorial(module.w)))
    return dim


def schur_dim(module, d):
    """dim(M (x)_{S_w} (Q^d)^{(x) w}): the inner product of chi_M with the
    permutation character of (Q^d)^{(x) w}, where a permutation of cycle
    type rho fixes d^{l(rho)} words and its class has w! / z_rho elements:

        schur_dim(M, d) = sum over rho |- w of chi_M(rho) d^{l(rho)} / z_rho

    (Macdonald, Symmetric Functions and Hall Polynomials, I.7; Fulton and
    Harris, Representation Theory, 4.3, Schur-Weyl duality), summed in
    ints; it must be a non-negative integer.  d < 0 raises ValueError.
    """
    if d < 0:
        raise ValueError("need d >= 0, got %r" % (d,))
    return _character_product(module, lambda rho: d ** len(rho))


@functools.cache
def _fixed_words(content, rho):
    """pi(rho): the words of the given content fixed by a permutation of
    cycle type rho, that is, the ways to give each cycle one letter so that
    letter i fills content[i - 1] places."""
    if not rho:
        return 0 if any(content) else 1
    k, rest = rho[0], rho[1:]
    return sum(_fixed_words(_shift(content, i, -k), rest)
               for i, c in enumerate(content, 1) if c >= k)


def permutation_dim(module, lam):
    """dim(M (x)_{S_w} M^lam) = <chi_M, pi_lam>: the weight-lam summand of
    schur_dim, with M^lam the permutation module of S_w on the words of
    content lam (a tuple of ints >= 0 summing to w, else ValueError) and
    pi_lam(rho) the words it fixes (Macdonald I.7).  Summed over the
    contents of weight w in d letters, it gives schur_dim(M, d), so

        schur_dim(M, d) = sum over lam |- w of N(lam, d) permutation_dim(M, lam).
    """
    lam = tuple(lam)
    if sum(lam) != module.w or not all(isinstance(x, int) and x >= 0 for x in lam):
        raise ValueError("need a content of weight %d, got %r" % (module.w, lam))
    return _character_product(module, functools.partial(_fixed_words, lam))


def cross_check(d, n, w):
    """Both computation paths agree at (d, n, w), in total and per weight.

    The direct (dim H0, dim H1) of `weighted_complex_homology` equals
    (schur_dim(H0(w, n), d), schur_dim(H1(w, n), d)), and for every
    partition lam |- w with at most d parts the pair of its summand,
    `weight_summand(n, lam)`, equals the permutation_dim pair.
    """
    direct = weighted_complex_homology(d, n, w)
    m0, m1 = h_modules(w, n)
    if direct != (schur_dim(m0, d), schur_dim(m1, d)):
        return False
    for lam in _partitions(w):
        if len(lam) <= d:
            c0, c1, rank = weight_summand(n, lam)
            if (c0 - rank, c1 - rank) != (permutation_dim(m0, lam), permutation_dim(m1, lam)):
                return False
    return True
