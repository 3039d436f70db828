"""Exact linear algebra over the rationals and over prime fields.

Scalars are either arbitrary-precision rationals (stored in lowest terms
with positive denominator, surfaced as ``fractions.Fraction``) or residues
modulo a prime p (ints in 0..p-1), over a field that is one object per
characteristic.  A Matrix is read as one thing: per row, a dict of its
nonzero integer entries, over a single positive denominator, in one
canonical form.  Only ``Matrix.from_flat`` and ``from_rows`` take dense
entry lists, which they split into rows at once; the dense tuple
``Matrix.nums`` is only a view, computed when a report witness reads it.

The structure maps of the adjunction are block selections and block
permutations, so almost every entry is zero.  They are built as rows of
nonzeros, and products (Gustavson's row-by-row sparse product), Kronecker
products, block assembly, identity tests and comparisons work on those
rows, so they cost time per nonzero, not per entry.  Kronecker products
(``mat_kron``) and placed blocks (``assemble``, and so ``vstack`` and
``hstack``) go one step further and keep their factors: their rows are
built only when something other than ``mat_mul`` first reads them.
``mat_mul`` multiplies two Kronecker products factor by factor,
(A (x) B)(C (x) D) = AC (x) BD (Van Loan 2000), and two matrices of one
block per block row block by block.  A Kronecker product's rows are one
sequence, read off its factors: iterated to build them, and indexed by
Gustavson's product, which is the one loop that sums scaled rows for a
product.  Sums and differences are one linear combination, accumulated and
normalized once.

The column factorization, nullspace and span basis pass those rows to
the kernels of ``backend``, which eliminate on them and return the
reduced rows: fraction-free over Q, with every row kept primitive, and
plain Gauss-Jordan over GF(p).  No floating point appears
anywhere.  ``nullspace_basis`` returns a canonical basis of a kernel;
``span_basis`` returns the same canonical basis of a subspace given by
spanning columns, so a space that is known from a spanning set (the
hom spaces of permutation-form reps in ``repcat``) costs an elimination
of that set, not of the system whose kernel it is.
"""

from itertools import chain
from math import gcd, lcm

from . import backend

# Miller-Rabin with the prime bases up to 41 is a proof of primality below
# _MR_BOUND (Sorenson and Webster 2015); Field rejects characteristics at or
# above it rather than trust a probable prime.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n):
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """The rationals (char 0) or the prime field GF(p), one object per characteristic.

    ``Field(p)``, a pickle and a copy all return the instance made on first
    use, so fields are compared with ``is``.  A characteristic that is not 0
    or a proven prime raises and is never cached.
    """

    __slots__ = ("char",)
    _instances = {}

    def __new__(cls, char=0):
        field = cls._instances.get(char)
        if field is None:
            if char >= _MR_BOUND:
                raise ValueError(
                    f"field characteristic {char} is not below {_MR_BOUND}, "
                    "where primality is proven by Miller-Rabin with bases up to 41"
                )
            if char != 0 and not _is_prime(char):
                raise ValueError(f"field characteristic must be 0 or prime, got {char}")
            field = cls._instances[char] = object.__new__(cls)
            field.char = char
        return field

    def __reduce__(self):
        return Field, (self.char,)

    def __repr__(self):
        return "QQ" if self.char == 0 else f"GF({self.char})"

    def spec(self):
        return "q" if self.char == 0 else f"fp:{self.char}"


QQ = Field(0)


def GF(p):
    return Field(p)


def parse_field(spec):
    """Parse a field spec: "q" for the rationals, "fp:P" for GF(P)."""
    s = spec.strip().lower()
    if s == "q":
        return QQ
    if s.startswith("fp:"):
        try:
            p = int(s[3:])
        except ValueError:
            raise ValueError(f"bad field spec {spec!r}") from None
        if p < 2:
            raise ValueError(f"bad field spec {spec!r}: fp:P needs a prime P, got {p}")
        return Field(p)
    raise ValueError(f"bad field spec {spec!r} (expected 'q' or 'fp:P')")


class Matrix:
    """Exact matrix: rows of nonzero entries over a common denominator.

    ``nzrows`` holds one dict {column: value} per row with only the
    nonzero entries, and it is the only form a reader sees.  The values
    are integers over the positive denominator ``den``: residues 1..p-1
    with den 1 over GF(p), and over Q integers whose common content is
    coprime to den.  So the row form is canonical, and two matrices are
    equal exactly when their rows are.  A row dict is never changed once
    its matrix is built, so matrices share rows freely.

    The constructor takes rows, which go through ``_normalize_rows``
    unless ``_normalized`` says they are already canonical; dense input
    goes through ``from_flat`` or ``from_rows``.  ``nums``, the flat
    row-major tuple of all entries for report witnesses, is computed on
    each read.

    A Kronecker product or a matrix of placed blocks is built by
    ``_factored`` and stores only its factors in ``_form``, as (row
    builder, *factors): (``_KronRows``, a, b) for kron(a, b), and
    (``_placed_rows``, rows, blocks, den) for ``assemble``.  Its ``nzrows``
    slot stays unset until it is first read, when ``__getattr__`` builds
    every row at once.  ``mat_mul`` reads ``_form`` and multiplies the
    factors, or indexes the row sequence, instead, so a factored product
    that only products read never builds its rows.
    """

    __slots__ = ("field", "rows", "cols", "den", "nzrows", "_form")

    def __init__(self, field, rows, cols, nzrows, den=1, _normalized=False):
        if len(nzrows) != rows:
            raise ValueError("row count does not match shape")
        if not _normalized:
            nzrows, den = _normalize_rows(field, nzrows, den)
        self.field = field
        self.rows = rows
        self.cols = cols
        self.nzrows = nzrows
        self.den = den
        self._form = None

    @classmethod
    def _factored(cls, field, rows, cols, den, form):
        """A matrix known by ``form`` = (row builder, *factors); rows built on first read."""
        m = object.__new__(cls)
        m.field, m.rows, m.cols, m.den = field, rows, cols, den
        m._form = form
        return m

    def __getattr__(self, name):
        # reached only for an unset slot: the rows of a factored matrix
        if name != "nzrows" or self._form is None:
            raise AttributeError(name)
        build, *factors = self._form
        self.nzrows = rows = list(build(*factors))
        return rows

    @property
    def nums(self):
        """All entries as one flat row-major tuple, computed on each read."""
        c = self.cols
        flat = [0] * (self.rows * c)
        for base, row in zip(range(0, len(flat), c or 1), self.nzrows):
            for j, v in row.items():
                flat[base + j] = v
        return tuple(flat)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, field, rows_of_values):
        rows = len(rows_of_values)
        cols = len(rows_of_values[0]) if rows else 0
        from fractions import Fraction

        fracs = []
        for row in rows_of_values:
            if len(row) != cols:
                raise ValueError("ragged rows")
            for v in row:
                fracs.append(Fraction(v))
        den = 1
        for f in fracs:
            den = lcm(den, f.denominator)
        return cls.from_flat(field, rows, cols, [int(f * den) for f in fracs], den)

    @classmethod
    def from_flat(cls, field, rows, cols, nums, den=1):
        """The matrix of the row-major integer entries ``nums`` over ``den``."""
        if len(nums) != rows * cols:
            raise ValueError("entry count does not match shape")
        nzrows = [{j: v for j, v in enumerate(nums[i * cols : (i + 1) * cols]) if v}
                  for i in range(rows)]
        return cls(field, rows, cols, nzrows, den)

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls(field, rows, cols, [{} for _ in range(rows)], _normalized=True)

    @classmethod
    def identity(cls, field, n):
        return cls(field, n, n, [{i: 1} for i in range(n)], _normalized=True)

    # -- scalar access -------------------------------------------------

    def entry(self, i, j):
        v = self.nzrows[i].get(j, 0)
        if self.field.char == 0:
            from fractions import Fraction

            return Fraction(v, self.den)
        return v

    def is_identity(self):
        n = self.rows
        if n != self.cols or self.den != 1:
            return False
        return all(len(row) == 1 and row.get(i) == 1 for i, row in enumerate(self.nzrows))

    def __eq__(self, other):
        if not (
            isinstance(other, Matrix)
            and self.field is other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
        ):
            return False
        return self.nzrows == other.nzrows

    def __repr__(self):
        if self.rows * self.cols > 36:
            return f"<Matrix {self.rows}x{self.cols} over {self.field}>"
        body = "; ".join(
            " ".join(str(self.entry(i, j)) for j in range(self.cols))
            for i in range(self.rows)
        )
        return f"<Matrix {self.rows}x{self.cols} [{body}]>"

    def transpose(self):
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.nzrows):
            for j, v in row.items():
                out[j][i] = v
        return Matrix(self.field, self.cols, self.rows, out, den=self.den, _normalized=True)

    def submatrix_cols(self, col_idx):
        """The distinct columns ``col_idx``, in that order, read once per nonzero."""
        at = {j: t for t, j in enumerate(col_idx)}
        out = [{at[j]: v for j, v in row.items() if j in at} for row in self.nzrows]
        return Matrix(self.field, self.rows, len(col_idx), out, den=self.den)


def _normalize_rows(field, rows, den):
    """Rows and den in the canonical form of ``Matrix``: reduced, no zeros."""
    p = field.char
    if p:
        if den % p == 0:
            raise ZeroDivisionError("denominator vanishes in the field")
        inv = pow(den % p, p - 2, p)
        return [{j: r for j, v in row.items() if (r := v * inv % p)} for row in rows], 1
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    sign = -1 if den < 0 else 1
    rows = [{j: sign * v for j, v in row.items() if v} for row in rows]
    den *= sign
    g = gcd(den, *chain.from_iterable(row.values() for row in rows))
    if g > 1:
        rows = [{j: v // g for j, v in row.items()} for row in rows]
        den //= g
    return rows, den


def _check_same_field(a, b):
    if a.field is not b.field:
        raise ValueError(f"field mismatch: {a.field} vs {b.field}")


def mat_mul(a, b):
    """Exact matrix product, row by row (Gustavson 1978).

    Row i of the product is the sum of the rows k of b weighted by the
    nonzeros a[i, k], accumulated in one dict; entries that cancel are
    dropped.  A row of a that selects one row of b reuses that row.

    Factored operands are multiplied without building their rows: two
    Kronecker products whose factors chain (A.cols == C.rows and
    B.cols == D.rows) by the mixed-product rule (A (x) B)(C (x) D) =
    AC (x) BD, and two operands of one block per block row
    (``_block_rows``), when every column block of a is a row block of b,
    block by block: each distinct pair of blocks is multiplied once, and
    the products are placed.  Every other pair is Gustavson's product,
    with a Kronecker operand on either side passed as its row sequence:
    iterated on the left, indexed on the right.
    """
    _check_same_field(a, b)
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    fa, fb = a._form, b._form
    if fa and fb and fa[0] is fb[0] is _KronRows:
        _, x, y = fa
        _, z, w = fb
        if x.cols == z.rows and y.cols == w.rows:
            return mat_kron(mat_mul(x, z), mat_mul(y, w))
    ab = _block_rows(a)
    bb = None if ab is None else _block_rows(b)
    if bb is not None:
        row_blocks = {(r0, z.rows): (c0, z) for r0, c0, z in bb}
        if all((c0, x.cols) in row_blocks for _, c0, x in ab):
            products, placed = {}, []
            for r0, c0, x in ab:
                c1, z = row_blocks[c0, x.cols]
                key = id(x), id(z)
                if key not in products:
                    products[key] = mat_mul(x, z)
                placed.append((r0, c1, products[key]))
            return assemble(a.field, a.rows, b.cols, placed)
    out = _row_products(_product_rows(a), _product_rows(b), a.field.char)
    den = a.den * b.den
    return Matrix(a.field, a.rows, b.cols, out, den=den, _normalized=den == 1)


def _block_rows(m):
    """m's blocks as (row offset, column offset, block), if each row meets at most one.

    That is a placed matrix whose blocks have disjoint row ranges in
    increasing order, or kron(I_k, f), read as k copies of f.  Any other
    matrix gives None.
    """
    form = m._form
    if not form:
        return None
    if form[0] is _KronRows:
        _, x, f = form
        return [(i * f.rows, i * f.cols, f) for i in range(x.rows)] if x.is_identity() else None
    blocks, end = form[2], 0
    for r0, _, x in blocks:
        if r0 < end:
            return None
        end = r0 + x.rows
    return blocks


def _product_rows(m):
    """The rows of m as a product reads them: a Kronecker product's row sequence, unbuilt."""
    form = m._form
    return _KronRows(*form[1:]) if form and form[0] is _KronRows else m.nzrows


def _row_products(arows, brows, p):
    """The rows of a . b from the rows of a and b: Gustavson's product."""
    out = []
    for arow in arows:
        if len(arow) == 1:
            ((k, v),) = arow.items()
            if v == 1:
                row = brows[k]
            elif p:
                row = {j: v * w % p for j, w in brows[k].items()}
            else:
                row = {j: v * w for j, w in brows[k].items()}
        else:
            acc = {}
            for k, v in arow.items():
                for j, w in brows[k].items():
                    acc[j] = acc.get(j, 0) + v * w
            if p:
                row = {j: r for j, x in acc.items() if (r := x % p)}
            else:
                row = {j: x for j, x in acc.items() if x}
        out.append(row)
    return out


class IdentityError(ValueError):
    """A construction refused on failed identities, each kept as (name, lhs, rhs)."""

    def __init__(self, message, failures=()):
        super().__init__(message)
        self.failures = list(failures)

    @classmethod
    def refuse(cls, refusal, failures):
        """Raise cls, message ``refusal: <names>``, when ``failures`` is not empty."""
        if failures:
            raise cls(f"{refusal}: {', '.join(f[0] for f in failures)}", failures)


def _need(out, name, lhs, rhs):
    """Record the identity ``name`` in ``out`` as (name, lhs, rhs) when lhs != rhs."""
    if lhs != rhs:
        out.append((name, lhs, rhs))


def _need_identity(out, name, m):
    """Record ``name`` in ``out`` as (name, m, I) when m is not the identity."""
    if not m.is_identity():
        out.append((name, m, Matrix.identity(m.field, m.rows)))


def inverse_failures(a, b, on_ab, on_ba):
    """The failed identities of 'b inverts a': (on_ab, a . b, I), (on_ba, b . a, I).

    Over a field a square a with a . b = I has b . a = I, which is then
    not formed.  Otherwise b . a is formed: a one-sided inverse of a
    non-square map is not two-sided.
    """
    out = []
    _need_identity(out, on_ab, mat_mul(a, b))
    if out or a.rows != a.cols:
        _need_identity(out, on_ba, mat_mul(b, a))
    return out


def mat_kron(a, b):
    """Kronecker product; entry (i*b.rows+k, j*b.cols+l) is a[i,j]*b[k,l].

    With den 1 the product keeps a and b as its factors and builds its rows
    when they are first read other than by ``mat_mul``.  A den other than
    1 needs a normalization, so those rows are built at once.
    """
    _check_same_field(a, b)
    rows, cols = a.rows * b.rows, a.cols * b.cols
    if a.den == b.den == 1:
        return Matrix._factored(a.field, rows, cols, 1, (_KronRows, a, b))
    return Matrix(a.field, rows, cols, list(_KronRows(a, b)), den=a.den * b.den)


class _KronRows:
    """The rows of kron(a, b): row (i, k) is row k of b, shifted and scaled by row i of a.

    Iterating builds every row in order; ``rows[n]`` reads row n alone off
    the factors.  Where row i of a selects with value 1, ``rows[n]`` is the
    row of b shifted, and at offset 0 the row of b itself: rows are never
    changed.
    """

    __slots__ = ("arows", "brows", "bc", "p")

    def __init__(self, a, b):
        self.arows, self.brows, self.bc, self.p = a.nzrows, b.nzrows, b.cols, a.field.char

    def __iter__(self):
        return map(self.__getitem__, range(len(self.arows) * len(self.brows)))

    def __getitem__(self, n):
        i, k = divmod(n, len(self.brows))
        arow, brow, bc = self.arows[i], self.brows[k], self.bc
        if len(arow) == 1 and 1 in arow.values():  # a selection
            (j,) = arow
            off = j * bc
            return {off + l: w for l, w in brow.items()} if off else brow
        p = self.p
        if p:
            return {j * bc + l: v * w % p for j, v in arow.items() for l, w in brow.items()}
        return {j * bc + l: v * w for j, v in arow.items() for l, w in brow.items()}


def _combination(coeffs, mats):
    """The sum of c * m over integer coefficients c: one accumulation, one normalization."""
    m0 = mats[0]
    for m in mats:
        _check_same_field(m0, m)
        if (m.rows, m.cols) != (m0.rows, m0.cols):
            raise ValueError(f"shape mismatch: {m0.rows}x{m0.cols} and {m.rows}x{m.cols}")
    den = lcm(*(m.den for m in mats))
    rows = [{} for _ in range(m0.rows)]
    for c, m in zip(coeffs, mats):
        if c:
            f = c * (den // m.den)
            for acc, row in zip(rows, m.nzrows):
                for j, v in row.items():
                    acc[j] = acc.get(j, 0) + f * v
    return Matrix(m0.field, m0.rows, m0.cols, rows, den=den)


def mat_sub(a, b):
    return _combination((1, -1), (a, b))


def hstack(mats):
    mats = list(mats)
    rows = mats[0].rows
    field = mats[0].field
    blocks = []
    c0 = 0
    for m in mats:
        if m.rows != rows:
            raise ValueError("row mismatch in hstack")
        blocks.append((0, c0, m))
        c0 += m.cols
    return assemble(field, rows, c0, blocks)


def vstack(mats):
    mats = list(mats)
    cols = mats[0].cols
    field = mats[0].field
    blocks = []
    r0 = 0
    for m in mats:
        if m.cols != cols:
            raise ValueError("column mismatch in vstack")
        blocks.append((r0, 0, m))
        r0 += m.rows
    return assemble(field, r0, cols, blocks)


def assemble(field, rows, cols, blocks):
    """The rows x cols matrix of (row_offset, col_offset, block) triples, kept as its blocks.

    Unlisted regions are zero; blocks must not overlap.  The rows are
    built when they are first read other than by ``mat_mul``.  A block row
    that lands alone in its row at column 0 with the common denominator is
    reused as it is.
    """
    blocks = tuple(blocks)
    den = 1
    for r0, c0, m in blocks:
        if m.field is not field:
            raise ValueError("field mismatch in assemble")
        if r0 + m.rows > rows or c0 + m.cols > cols:
            raise ValueError("block exceeds target shape")
        den = lcm(den, m.den)
    return Matrix._factored(field, rows, cols, den, (_placed_rows, rows, blocks, den))


def _placed_rows(rows, blocks, den):
    """The rows of the placed blocks over their common denominator den."""
    out = [None] * rows
    for r0, c0, m in blocks:
        f = den // m.den
        for i, row in enumerate(m.nzrows, r0):
            if not row:
                continue
            if c0 or f != 1:
                row = {c0 + j: f * v for j, v in row.items()}
            prev = out[i]
            out[i] = row if prev is None else prev | row
    # the scaled blocks stay canonical: for each prime q of den, the block
    # with the most factors q has an entry prime to q and is not scaled by q
    return [{} if row is None else row for row in out]


def _rref(rows_list, rows, cols, field):
    """Shared elimination entry point.  Returns (pivots, reduced, den).

    ``reduced`` holds the nonzero rows of the RREF times den, as dicts.
    """
    if field.char == 0:
        den, pivots, red = backend.rrefj_int(rows_list, rows, cols)
        return pivots, red, den
    pivots, red = backend.rref_mod(rows_list, rows, cols, field.char)
    return pivots, red, 1


def column_factor(a):
    """a = basis . coeffs from one elimination: a column-row factorization.

    ``basis`` is the pivot columns of a (rows x rank, independent) and
    ``coeffs`` is the nonzero rows of the RREF of a (rank x cols), so
    coeffs restricted to the pivot columns is the identity and coeffs is
    the unique X with basis . X = a.  The rank is ``basis.cols``.
    """
    pivots, red, den = _rref(a.nzrows, a.rows, a.cols, a.field)
    coeffs = Matrix(a.field, len(pivots), a.cols, red, den=den)
    return a.submatrix_cols(pivots), coeffs


def nullspace_basis(a):
    """Right nullspace of a as an a.cols x k matrix of basis columns.

    Columns are primitive-integer normalized and ordered by free column,
    so the basis is deterministic.
    """
    n = a.cols
    p = a.field.char
    pivots, red, den = _rref(a.nzrows, a.rows, n, a.field)
    piv_set = set(pivots)
    free = [j for j in range(n) if j not in piv_set]
    # the basis column of free column f, as {row: value}
    basis = {f: {f: den} for f in free}
    for pc, row in zip(pivots, red):
        for j, v in row.items():
            if j != pc:
                basis[j][pc] = -v % p if p else -v
    out = [{} for _ in range(n)]
    for idx, f in enumerate(free):
        col = basis[f]
        g = 1 if p else gcd(*col.values())
        for i, v in col.items():
            out[i][idx] = v // g
    return Matrix(a.field, n, len(free), out, den=1, _normalized=True)


def span_basis(b):
    """The column span of b as a basis in the canonical form of ``nullspace_basis``.

    One elimination of the columns of b read from the bottom: the RREF of
    b transposed, with its columns in reverse order.  Its pivots are the
    positions where some vector of the span has its last nonzero entry,
    which for a nullspace are the free columns of ``nullspace_basis``.
    The RREF row of such a pivot f, reversed back, is the span vector with
    entry 1 at f and 0 at every other pivot, as is ``nullspace_basis``'s
    column for the free column f; made primitive over Q, the two agree.
    So span_basis(nullspace_basis(a) . r) == nullspace_basis(a) for every
    invertible r.
    """
    n = b.rows
    p = b.field.char
    rev = [{} for _ in range(b.cols)]
    for i, row in enumerate(b.nzrows):
        for k, v in row.items():
            rev[k][n - 1 - i] = v
    _, red, _ = _rref(rev, b.cols, n, b.field)
    out = [{} for _ in range(n)]
    # reversed pivots come in decreasing position, so reverse the rows
    for idx, row in enumerate(reversed(red)):
        g = 1 if p else gcd(*row.values())
        for j, v in row.items():
            out[n - 1 - j][idx] = v // g
    return Matrix(b.field, n, len(red), out, den=1, _normalized=True)
