"""Exact linear algebra over the rationals.

Scalars are `fractions.Fraction` (arbitrary precision, kept in lowest
terms with a positive denominator by the stdlib itself); plain ints are
accepted everywhere and mix freely.  There is no floating point in this
module, and none anywhere downstream of it.

`Echelon` is an incremental exact row-echelon span; it gives ranks and
a quotient normal form, and `kernel` gives kernel bases.  Rows are
sparse ``{column: int}`` dicts kept primitive (coprime integer entries,
positive pivot in the row's smallest column).  The arithmetic is ints
end to end: a vector of ints goes straight into elimination, and only
a vector holding Fractions is first cleared of denominators (times the
lcm of its denominators).  The one elimination step,
`Echelon._clear_pivots`, is the gcd-reduced
``r <- (a/g)*r - (b/g)*row``, g = gcd(a, b), and a new row is divided by
its content, which keeps coefficients small without rounding.  `kernel`
back-substitutes through `Echelon.add` too, re-adding the echelon rows to
a fresh `Echelon` in decreasing pivot order, which leaves reduced row
echelon form; it reads one kernel vector off each free column, scaled by
the lcm of the pivot entries it meets, so it builds no Fraction either.
`Echelon.reduce` returns the canonical representative of a vector modulo
the span (the unique one vanishing on all pivot columns); it eliminates
in ints and divides once at the end, so it returns ints whenever that is
exact.
`in_span` is the one-shot membership test on tuples.  No function
here mutates or returns a dict it was given.

`Echelon.solve` is kept for the benchmark, which reports it and tracked
`Echelon.add` as metrics of their own; nothing in the package calls it.
A tracking echelon (`track=True`) only keeps a sparse copy of each vector
as given, and `solve` reads its exact solutions off the `kernel` of those
vectors and the target.

`axpy` is the sparse accumulate, `out += c * vec` with cancelled
entries dropped; only the elimination step inlines it, to push
the pivot columns it brings in during the same pass.  `SparseElem` is the
base of the element types of the downstream modules: sparse coordinates
over the basis of one cell.
"""

import heapq
from fractions import Fraction
from math import gcd, lcm

Rat = Fraction


def axpy(out, vec, c=1):
    """out += c * vec in place for sparse dicts, dropping entries that cancel."""
    for j, v in vec.items():
        nv = out.get(j, 0) + c * v
        if nv:
            out[j] = nv
        else:
            out.pop(j, None)
    return out


def combine(coeffs, column):
    """sum_k coeffs[k] * column(k): a matrix, given by its columns, on a vector."""
    out = {}
    for k, c in coeffs.items():
        axpy(out, column(k), c)
    return out


class SparseElem:
    """Sparse vector over the basis of one cell: ``coords`` maps a basis
    index to its nonzero coefficient.

    A subclass stores its cell in its own slots before calling
    ``super().__init__``, returns it from `cell()` in constructor order,
    so ``type(x)(*x.cell(), coords)`` rebuilds x, and returns the
    dimension of the cell from `dim()`.  A basis index outside
    ``range(dim())`` raises ValueError.  Elements of different types,
    or of different cells, never compare equal, and adding them raises
    ValueError.  ``coords`` is read-only: cached results are shared
    between callers.
    """

    __slots__ = ("coords",)

    def __init__(self, coords=None):
        self.coords = coords = {i: c for i, c in (coords or {}).items() if c}
        if coords:
            lo, hi, dim = min(coords), max(coords), self.dim()
            if lo < 0 or hi >= dim:
                raise ValueError("%s(%s): basis index %r outside range(%d)" % (
                    type(self).__name__, ", ".join(map(repr, self.cell())),
                    lo if lo < 0 else hi, dim))

    def cell(self):
        raise NotImplementedError

    def dim(self):
        raise NotImplementedError

    @classmethod
    def zero(cls, *cell):
        return cls(*cell)

    def _like(self, coords):
        return type(self)(*self.cell(), coords)

    def _check_cell(self, other):
        if type(self) is not type(other) or self.cell() != other.cell():
            raise ValueError("cell mismatch: %s%r vs %s%r" % (
                type(self).__name__, self.cell(), type(other).__name__, other.cell()))

    def is_zero(self):
        return not self.coords

    def scale(self, c):
        if not c:
            return self._like(None)
        return self._like({i: c * v for i, v in self.coords.items()})

    def __add__(self, other):
        self._check_cell(other)
        return self._like(axpy(dict(self.coords), other.coords))

    def __sub__(self, other):
        self._check_cell(other)
        return self._like(axpy(dict(self.coords), other.coords, -1))

    def __neg__(self):
        return self.scale(-1)

    def __eq__(self, other):
        return (type(self) is type(other) and self.cell() == other.cell()
                and self.coords == other.coords)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__,
                           ", ".join(map(repr, self.cell() + (self.coords,))))


def _as_frac_dict(vec):
    """Sparse copy of a vector given as dict / list / tuple, zeros dropped."""
    if isinstance(vec, dict):
        return {j: v for j, v in vec.items() if v}
    return {j: v for j, v in enumerate(vec) if v}


def _cleared(vec):
    """(den, ints) with den the lcm of the denominators and ints == den * vec."""
    den = 1
    for v in vec.values():
        if isinstance(v, Fraction):
            den = den * v.denominator // gcd(den, v.denominator)
    return den, {j: int(v * den) for j, v in vec.items()}


def _int_vector(vec):
    """(den, ints): a new sparse dict of ints, zeros dropped, equal to den * vec
    with den the lcm of the denominators; a vector of ints is only copied."""
    r = _as_frac_dict(vec)
    if {*map(type, r.values())} <= {int}:
        return 1, r
    return _cleared(r)


def _primitive(r):
    """The nonzero int dict r divided by its content, leading entry made
    positive; r itself when that changes nothing, so r must be the caller's own."""
    g = gcd(*r.values())
    if r[min(r)] < 0:
        g = -g
    return r if g == 1 else {j: v // g for j, v in r.items()}


def primitive(vec):
    """Scale a sparse rational vector to coprime ints with positive leading
    nonzero entry; zeros are dropped, so a zero vector gives {}."""
    r = _int_vector(vec)[1]
    return _primitive(r) if r else {}


class Echelon:
    """Incremental exact row-echelon span over Q.

    Each new row takes its smallest column as its pivot, which is what
    makes `reduce` canonical.  Elimination (`add` and `reduce`) visits
    only the pivots the vector meets: a min-heap holds the pivot columns
    present in it, the smallest is eliminated first and the pivot
    columns its row brings in are pushed.  A pivot row holds only
    columns >= its pivot, so a cleared pivot never comes back.  The
    result vanishes on every pivot column, which fixes it up to scale
    whatever the order.

    `rows` holds ``(pivot_col, row)`` in insertion order.  When `track`
    is true, `inputs` holds a sparse copy of each vector given to `add`,
    Fractions included, which is all that `solve` reads.
    """

    def __init__(self, track=False):
        self.rows = []          # (pivot_col, row_dict) in insertion order
        self.pivot_cols = {}    # pivot_col -> index into rows
        self.track = track
        self.inputs = []        # the vectors fed in, when tracking

    @property
    def rank(self):
        return len(self.rows)

    def _clear_pivots(self, r):
        """Fraction-free elimination of the int dict r (owned by the
        caller) against the pivots it meets, smallest first.

        Entry b meets pivot entry a as ``r <- (a/g)*r - (b/g)*row``,
        g = gcd(a, b); a pivot entry 1 takes no gcd.  One pass over the
        row subtracts it and pushes the pivot columns it brings in.
        Returns (r, P), with P the product of the a/g.
        """
        pivot_cols, rows = self.pivot_cols, self.rows
        heap = [p for p in r if p in pivot_cols]
        heapq.heapify(heap)
        scale = 1
        while heap:
            p = heapq.heappop(heap)
            b = r.get(p)
            if not b:
                continue
            row = rows[pivot_cols[p]][1]
            a = row[p]
            if a != 1:
                g = gcd(a, b)
                a, b = a // g, b // g
                if a != 1:
                    r = {j: a * v for j, v in r.items()}
                    scale *= a
            for j, v in row.items():
                old = r.get(j)
                if old is None:             # r has no zero entries
                    r[j] = -b * v
                    if j in pivot_cols:
                        heapq.heappush(heap, j)
                else:
                    old -= b * v
                    if old:
                        r[j] = old
                    else:
                        del r[j]
        return r, scale

    def add(self, vec):
        """Insert a vector.  Returns True if the rank grew.

        A vector of ints is eliminated as given; one holding Fractions is
        first cleared to ints (times the lcm of its denominators).  The
        new row is the remainder divided by its content.
        """
        if self.track:
            self.inputs.append(_as_frac_dict(vec))
        r, _ = self._clear_pivots(_int_vector(vec)[1])
        if not r:
            return False
        p = min(r)
        self.pivot_cols[p] = len(self.rows)
        self.rows.append((p, _primitive(r)))
        return True

    def reduce(self, vec):
        """Canonical representative of `vec` modulo the span.

        The result vanishes on every pivot column and is unchanged if
        already reduced.  A vector holding Fractions is cleared to ints
        (times the lcm L of its denominators; L = 1 for ints) and
        eliminated in ints, which scales it by the product P of the
        multipliers of `_clear_pivots`.  The entries are divided by L * P
        once, at the end: they stay ints when L * P divides all of them,
        and are Fractions otherwise.  Does not insert.
        """
        den, r = _int_vector(vec)
        r, scale = self._clear_pivots(r)
        den *= scale
        if den != 1:
            if gcd(den, *r.values()) == den:
                return {j: v // den for j, v in r.items()}
            return {j: Fraction(v, den) for j, v in r.items()}
        return r

    def contains(self, vec):
        return not self.reduce(vec)

    def solve(self, vec):
        """Coefficients x with vec = sum_j x[j] * inputs[j], as Fractions, or
        None when vec is outside the span.  Needs a tracking echelon.

        Read off `kernel(inputs + [vec])`: vec lies in the span exactly
        when its column f, the last, is free, and then the kernel vector z
        of f, which lies on f and the inputs that grew the rank, gives
        x[j] = -z[j] / z[f].
        """
        if not self.track:
            raise ValueError("solve needs Echelon(track=True)")
        f = len(self.inputs)
        ker = kernel(self.inputs + [vec])
        if not ker or f not in ker[-1]:
            return None
        z = ker[-1]
        c = z.pop(f)
        return {j: Fraction(-v, c) for j, v in z.items()}


def kernel(columns):
    """Kernel basis of the matrix with the given columns (sparse dicts,
    lists or tuples), as primitive int dicts over the column indices.

    There is one vector per free column f, a column that depends on the
    columns before it, in increasing f.  The rows of the matrix are
    eliminated, and the echelon rows are back-substituted to
    reduced row echelon form R by adding them to a fresh `Echelon` in
    decreasing pivot order: each one meets exactly the later pivot
    columns, whose rows already vanish on every other pivot column, and
    `add` clears them and makes the row primitive.  The pivot columns of
    R are exactly the columns that are independent of the ones before
    them; the vector of f is
    ``{f: 1} + {p: -R_p[f] / R_p[p]}``, read off in ints as
    ``{f: L} + {p: -(L / R_p[p]) R_p[f]}`` with L the lcm of the pivot
    entries R_p[p] of the rows that meet f, and then made primitive.  It
    lies on f and the independent columns before f, which fixes it up to
    scale.
    """
    rows = {}
    for j, col in enumerate(columns):
        for i, v in _as_frac_dict(col).items():
            rows.setdefault(i, {})[j] = v
    ech, reduced = Echelon(), Echelon()
    for i in sorted(rows):
        ech.add(rows[i])
    for _, row in sorted(ech.rows, key=lambda t: t[0], reverse=True):
        reduced.add(row)
    pivots = list(reversed(reduced.rows))
    out = []
    for f in range(len(columns)):
        if f not in reduced.pivot_cols:
            meets = [(p, red) for p, red in pivots if f in red]
            den = lcm(*(red[p] for p, red in meets))
            vec = {p: -(den // red[p]) * red[f] for p, red in meets}
            vec[f] = den
            out.append(_primitive(vec))
    return out


def in_span(v, basis):
    """True iff v lies in the rational span of the given tuples."""
    if basis:
        width = len(basis[0])
        if any(len(b) != width for b in basis) or len(v) != width:
            raise ValueError("all tuples must have the same length")
    ech = Echelon()
    for b in basis:
        ech.add(_as_frac_dict(b))
    return ech.contains(_as_frac_dict(v))
