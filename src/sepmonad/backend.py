"""The exact elimination kernels: pure Python big-integer row reduction.

A matrix here is a row-major flat list of Python ints, the dense view
``Matrix.nums``.  Everything here is exact, and this is the only
implementation: there is no compiled variant and no option to select one.

The structure maps of the adjunction are block selections and block
permutations, so most entries are zero.  The kernels find pivots and
all-zero row tails with C-level scans (``compress``, ``any``, slices)
and do interpreted work only per live row, never per zero.
"""

from itertools import compress
from math import gcd

# perfbench reads these three: backend_name() names the report's
# env.backend and its work-count ledgers, and its tracer counts overflow
# fallbacks of a compiled kernel module only when the one below is set.
_speed = None


def backend_name():
    return "pure"


def has_speed():
    return False


def _pivot_row(a, r, rows, cols, c):
    """The first row at or below r with a nonzero in column c, or -1."""
    return next(compress(range(r, rows), a[r * cols + c :: cols]), -1)


def rrefj_int(m, rows, cols):
    """Reduced row echelon form over the integers, fraction-free.

    Returns (den, pivots, reduced) where reduced/den is the RREF of m, so
    every pivot entry of ``reduced`` equals ``den`` and den > 0.

    Phase one is Bareiss elimination: the division by the previous pivot
    is exact by Sylvester's determinant identity, for any row swaps and
    skipped (free) columns.  Phase two clears above the pivots without
    dividing, shrinking rows by their content to keep entries near the
    minor scale; the final per-row scale factors cancel when each row is
    normalized by its own pivot and brought to the common denominator.

    Rows at or below the current one are zero left of the current column,
    so every update works on the row tail from that column.  A tail that
    is all zero stays zero, and with f = 0 and piv = prev the update is
    the identity, so both are skipped.
    """
    a = list(m)
    pivots = []
    prev = 1
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = _pivot_row(a, r, rows, cols, c)
        if pr < 0:
            continue
        rbase = r * cols
        if pr != r:
            pb = pr * cols
            a[rbase : rbase + cols], a[pb : pb + cols] = a[pb : pb + cols], a[rbase : rbase + cols]
        ptail = a[rbase + c : rbase + cols]
        piv = ptail[0]
        for base in range((r + 1) * cols, rows * cols, cols):
            f = a[base + c]
            if f == 0 and piv == prev:
                continue
            s, e = base + c, base + cols
            tail = a[s:e]
            if not any(tail):
                continue
            a[s:e] = [(piv * x - f * y) // prev for x, y in zip(tail, ptail)]
        prev = piv
        pivots.append(c)
        r += 1
    k = len(pivots)
    for t in range(k - 1, 0, -1):
        c = pivots[t]
        tbase = t * cols
        ttail = a[tbase + c : tbase + cols]
        piv = ttail[0]
        for i in compress(range(t), a[c : tbase : cols]):
            base = i * cols
            f = a[base + c]
            start = pivots[i]
            # row t is zero left of c, so only c onward meets f
            row = [piv * x for x in a[base + start : base + c]]
            row += [piv * x - f * y for x, y in zip(a[base + c : base + cols], ttail)]
            g = gcd(*row)
            if g > 1:
                row = [v // g for v in row]
            a[base + start : base + cols] = row
    den = 1
    scaled = []
    for t in range(k):
        s, e = t * cols + pivots[t], (t + 1) * cols
        row = a[s:e]
        d = row[0]
        g = gcd(*row)
        if g > 1:
            row = [v // g for v in row]
            d //= g
        if d < 0:
            row = [-v for v in row]
            d = -d
        a[s:e] = row
        scaled.append(d)
        den = den // gcd(den, d) * d
    for t in range(k):
        f = den // scaled[t]
        if f != 1:
            s, e = t * cols + pivots[t], (t + 1) * cols
            a[s:e] = [v * f for v in a[s:e]]
    return den, pivots, a


def rref_mod(m, rows, cols, p):
    """Reduced row echelon form over GF(p).  Returns (pivots, reduced).

    Rows at or below the current one are zero left of the current column,
    and so is the pivot row, so normalization and elimination run from
    the pivot column onward, on the rows with a nonzero in it.
    """
    a = [v % p for v in m]
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = _pivot_row(a, r, rows, cols, c)
        if pr < 0:
            continue
        rbase = r * cols
        if pr != r:
            pb = pr * cols
            a[rbase : rbase + cols], a[pb : pb + cols] = a[pb : pb + cols], a[rbase : rbase + cols]
        ptail = a[rbase + c : rbase + cols]
        inv = pow(ptail[0], p - 2, p)
        if inv != 1:
            ptail = [x * inv % p for x in ptail]
            a[rbase + c : rbase + cols] = ptail
        for i in compress(range(rows), a[c::cols]):
            if i == r:
                continue
            s, e = i * cols + c, (i + 1) * cols
            f = a[s]
            a[s:e] = [(x - f * y) % p for x, y in zip(a[s:e], ptail)]
        pivots.append(c)
        r += 1
    return pivots, a
