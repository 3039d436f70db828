"""Exact linear algebra over the rationals and over prime fields.

Scalars are either arbitrary-precision rationals (stored in lowest terms
with positive denominator, surfaced as ``fractions.Fraction``) or residues
modulo a prime p (ints in 0..p-1).  A Matrix stores its entries row-major
and dense, as a flat tuple of integers together with a single positive
denominator, so matrix products reduce to integer kernel calls.

Rational elimination is fraction-free (one-step Bareiss), which bounds
intermediate growth at desk scale; prime fields use plain Gauss-Jordan.
No floating point appears anywhere.

The structure maps are mostly zero, and storage stays dense, so the
kernels, ``is_identity``, ``mat_kron`` and ``assemble`` find nonzero
entries with C-level scans and do interpreted work only per nonzero.
"""

from fractions import Fraction
from itertools import compress
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
    """The rationals (char 0) or the prime field GF(p)."""

    __slots__ = ("char",)

    def __init__(self, char=0):
        if char >= _MR_BOUND:
            raise ValueError(
                f"field characteristic {char} is not below {_MR_BOUND}, "
                "where primality is proven by Miller-Rabin with bases up to 41"
            )
        if char != 0 and not _is_prime(char):
            raise ValueError(f"field characteristic must be 0 or prime, got {char}")
        self.char = char

    def __eq__(self, other):
        return isinstance(other, Field) and self.char == other.char

    def __hash__(self):
        return hash(("Field", self.char))

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
        return Field(p)
    raise ValueError(f"bad field spec {spec!r} (expected 'q' or 'fp:P')")


class Matrix:
    """Dense exact matrix: flat integer entries over a common denominator."""

    __slots__ = ("field", "rows", "cols", "nums", "den")

    def __init__(self, field, rows, cols, nums, den=1, _normalized=False):
        if len(nums) != rows * cols:
            raise ValueError("entry count does not match shape")
        self.field = field
        self.rows = rows
        self.cols = cols
        if _normalized:
            self.nums = tuple(nums)
            self.den = den
            return
        if field.char == 0:
            if den == 0:
                raise ZeroDivisionError("zero denominator")
            if den < 0:
                den = -den
                nums = [-v for v in nums]
            g = den
            for v in nums:
                if v:
                    g = gcd(g, v)
                    if g == 1:
                        break
            if g > 1:
                nums = [v // g for v in nums]
                den //= g
            self.nums = tuple(nums)
            self.den = den
        else:
            p = field.char
            if den % p == 0:
                raise ZeroDivisionError("denominator vanishes in the field")
            if den != 1:
                inv = pow(den % p, p - 2, p)
                nums = [v * inv % p for v in nums]
            else:
                nums = [v % p for v in nums]
            self.nums = tuple(nums)
            self.den = 1

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, field, rows_of_values):
        rows = len(rows_of_values)
        cols = len(rows_of_values[0]) if rows else 0
        fracs = []
        for row in rows_of_values:
            if len(row) != cols:
                raise ValueError("ragged rows")
            for v in row:
                fracs.append(Fraction(v))
        den = 1
        for f in fracs:
            den = lcm(den, f.denominator)
        nums = [int(f * den) for f in fracs]
        return cls(field, rows, cols, nums, den)

    @classmethod
    def from_flat(cls, field, rows, cols, nums, den=1):
        return cls(field, rows, cols, list(nums), den)

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls(field, rows, cols, [0] * (rows * cols), 1, _normalized=True)

    @classmethod
    def identity(cls, field, n):
        nums = [0] * (n * n)
        for i in range(n):
            nums[i * n + i] = 1
        return cls(field, n, n, nums, 1, _normalized=True)

    # -- scalar access -------------------------------------------------

    def entry(self, i, j):
        v = self.nums[i * self.cols + j]
        if self.field.char == 0:
            return Fraction(v, self.den)
        return v

    def is_zero(self):
        return not any(self.nums)

    def is_identity(self):
        n = self.rows
        if n != self.cols or self.den != 1:
            return False
        # n diagonal ones, and n*n - n zeros, which then all lie off it
        return self.nums[:: n + 1].count(1) == n and self.nums.count(0) == n * n - n

    def nonzero_offsets(self, width):
        """Each nonzero entry (i, j) as (i * width + j, value).

        The offset is where the entry lands, relative to this matrix's top
        left corner, when it is placed into a row-major flat list whose
        rows have ``width`` entries.
        """
        c, nums = self.cols, self.nums
        return [(k // c * width + k % c, nums[k]) for k in compress(range(len(nums)), nums)]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.den, self.nums))

    def __repr__(self):
        if self.rows * self.cols > 36:
            return f"<Matrix {self.rows}x{self.cols} over {self.field}>"
        body = "; ".join(
            " ".join(str(self.entry(i, j)) for j in range(self.cols))
            for i in range(self.rows)
        )
        return f"<Matrix {self.rows}x{self.cols} [{body}]>"

    def transpose(self):
        nums = [0] * (self.rows * self.cols)
        for i in range(self.rows):
            base = i * self.cols
            for j in range(self.cols):
                nums[j * self.rows + i] = self.nums[base + j]
        return Matrix(self.field, self.cols, self.rows, nums, self.den, _normalized=True)

    def submatrix_cols(self, col_idx):
        nums = []
        for i in range(self.rows):
            base = i * self.cols
            for j in col_idx:
                nums.append(self.nums[base + j])
        return Matrix(self.field, self.rows, len(col_idx), nums, self.den)

    def trace(self):
        t = sum(self.nums[i * self.cols + i] for i in range(min(self.rows, self.cols)))
        if self.field.char == 0:
            return Fraction(t, self.den)
        return t % self.field.char


def _check_same_field(a, b):
    if a.field != b.field:
        raise ValueError(f"field mismatch: {a.field} vs {b.field}")


def mat_mul(a, b):
    """Exact matrix product."""
    _check_same_field(a, b)
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    if a.field.char == 0:
        nums = backend.mul_int(a.nums, a.rows, a.cols, b.nums, b.cols)
        return Matrix(a.field, a.rows, b.cols, nums, a.den * b.den)
    nums = backend.mul_mod(a.nums, a.rows, a.cols, b.nums, b.cols, a.field.char)
    return Matrix(a.field, a.rows, b.cols, nums, 1, _normalized=True)


def mat_kron(a, b):
    """Kronecker product; entry (i*b.rows+k, j*b.cols+l) is a[i,j]*b[k,l]."""
    _check_same_field(a, b)
    R, C = a.rows * b.rows, a.cols * b.cols
    p = a.field.char
    nums = [0] * (R * C)
    bnz = b.nonzero_offsets(C)
    for idx in compress(range(len(a.nums)), a.nums):
        i, j = divmod(idx, a.cols)
        v = a.nums[idx]
        base = i * b.rows * C + j * b.cols
        if p:
            for off, w in bnz:
                nums[base + off] = v * w % p
        else:
            for off, w in bnz:
                nums[base + off] = v * w
    if p:
        return Matrix(a.field, R, C, nums, 1, _normalized=True)
    return Matrix(a.field, R, C, nums, a.den * b.den)


def mat_add(a, b):
    _check_same_field(a, b)
    if a.rows != b.rows or a.cols != b.cols:
        raise ValueError("shape mismatch in addition")
    if a.field.char == 0:
        L = lcm(a.den, b.den)
        fa, fb = L // a.den, L // b.den
        nums = [fa * x + fb * y for x, y in zip(a.nums, b.nums)]
        return Matrix(a.field, a.rows, a.cols, nums, L)
    nums = [x + y for x, y in zip(a.nums, b.nums)]
    return Matrix(a.field, a.rows, a.cols, nums, 1)


def mat_sub(a, b):
    return mat_add(a, mat_neg(b))


def mat_neg(a):
    return Matrix(a.field, a.rows, a.cols, [-v for v in a.nums], a.den)


def mat_scale(a, num, den=1):
    """Multiply by the exact scalar num/den."""
    if isinstance(num, Fraction):
        num, den = num.numerator, den * num.denominator
    return Matrix(a.field, a.rows, a.cols, [num * v for v in a.nums], a.den * den)


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
    """Build a rows x cols matrix from (row_offset, col_offset, block) triples.

    Unlisted regions are zero; blocks must not overlap.
    """
    den = 1
    for _, _, m in blocks:
        if m.field != field:
            raise ValueError("field mismatch in assemble")
        den = lcm(den, m.den)
    nums = [0] * (rows * cols)
    for r0, c0, m in blocks:
        if r0 + m.rows > rows or c0 + m.cols > cols:
            raise ValueError("block exceeds target shape")
        f = den // m.den
        base = r0 * cols + c0
        for off, v in m.nonzero_offsets(cols):
            nums[base + off] = f * v
    return Matrix(field, rows, cols, nums, den)


def _rref(nums, rows, cols, field):
    """Shared elimination entry point.  Returns (pivots, reduced, den)."""
    if field.char == 0:
        den, pivots, red = backend.rrefj_int(list(nums), rows, cols)
        if den < 0:
            den = -den
            red = [-v for v in red]
        return pivots, red, den
    pivots, red = backend.rref_mod(list(nums), rows, cols, field.char)
    return pivots, red, 1


def rank_and_column_basis(a):
    """Rank, an independent-column basis, and a left inverse of that basis.

    Returns (rank, basis, witness) where basis is rows x rank built from
    columns of a, and witness is rank x rows with witness * basis = I.
    """
    pivots, _, _ = _rref(a.nums, a.rows, a.cols, a.field)
    basis = a.submatrix_cols(pivots)
    r = len(pivots)
    if r == 0:
        return 0, basis, Matrix.zeros(a.field, 0, a.rows)
    bt = basis.transpose()
    x = solve_linear(bt, Matrix.identity(a.field, r))
    if x is None:
        raise ArithmeticError("column basis unexpectedly dependent")
    return r, basis, x.transpose()


def solve_linear(a, b):
    """Some exact X with a*X = b, or None when the system is inconsistent.

    Deterministic: free variables are set to zero under the fixed
    left-to-right pivot order.
    """
    _check_same_field(a, b)
    if a.rows != b.rows:
        raise ValueError("dimension mismatch in solve_linear")
    n = a.cols
    if a.field.char == 0:
        L = lcm(a.den, b.den)
        fa, fb = L // a.den, L // b.den
        aug = []
        for i in range(a.rows):
            aug.extend(fa * v for v in a.nums[i * n : (i + 1) * n])
            aug.extend(fb * v for v in b.nums[i * b.cols : (i + 1) * b.cols])
    else:
        aug = []
        for i in range(a.rows):
            aug.extend(a.nums[i * n : (i + 1) * n])
            aug.extend(b.nums[i * b.cols : (i + 1) * b.cols])
    width = n + b.cols
    pivots, red, den = _rref(aug, a.rows, width, a.field)
    if any(pc >= n for pc in pivots):
        return None
    nums = [0] * (n * b.cols)
    for t, pc in enumerate(pivots):
        base = t * width + n
        for j in range(b.cols):
            nums[pc * b.cols + j] = red[base + j]
    return Matrix(a.field, n, b.cols, nums, den)


def mat_inverse(a):
    """Exact inverse, or None when a is singular."""
    if a.rows != a.cols:
        raise ValueError("inverse of a non-square matrix")
    n = a.rows
    aug = []
    for i in range(n):
        aug.extend(a.nums[i * n : (i + 1) * n])
        aug.extend(a.den if j == i else 0 for j in range(n))
    pivots, red, den = _rref(aug, n, 2 * n, a.field)
    if len(pivots) < n or any(pc >= n for pc in pivots):
        return None
    nums = []
    for i in range(n):
        nums.extend(red[i * 2 * n + n : (i + 1) * 2 * n])
    return Matrix(a.field, n, n, nums, den)


def nullspace_basis(a):
    """Right nullspace of a as an a.cols x k matrix of basis columns.

    Columns are primitive-integer normalized and ordered by free column,
    so the basis is deterministic.
    """
    n = a.cols
    pivots, red, den = _rref(a.nums, a.rows, n, a.field)
    piv_set = set(pivots)
    free = [j for j in range(n) if j not in piv_set]
    k = len(free)
    nums = [0] * (n * k)
    for idx, f in enumerate(free):
        col = [0] * n
        col[f] = den
        for t, pc in enumerate(pivots):
            col[pc] = -red[t * n + f]
        if a.field.char == 0:
            g = 0
            for v in col:
                g = gcd(g, v)
            if g > 1:
                col = [v // g for v in col]
        else:
            p = a.field.char
            col = [v % p for v in col]
        for i in range(n):
            nums[i * k + idx] = col[i]
    return Matrix(a.field, n, k, nums, 1)
