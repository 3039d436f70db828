"""The exact elimination kernels: Gauss-Jordan on sparse rows.

A matrix here is a list of rows, each a dict {column: value} of its
nonzero entries, as ``Matrix.nzrows`` stores them.  Everything here is
exact, and this is the only implementation, with no option to select
another.

The systems solved here are stacks of Kronecker blocks, so most entries
are zero.  Columns are cleared left to right.  Of the rows whose first
nonzero is in the current column, the one with the fewest nonzeros
becomes the pivot, Markowitz's rule restricted to rows (Markowitz 1957),
and only the others, which hold that column, are reduced against it; the
pivot rows are then cleared against one another from the last one up.
Each update walks the nonzeros of the pivot row, never a zero.

The kernels never change an input row dict, because matrices share their
rows; a returned row may be one of them, so callers must not change it
either.
"""

from math import gcd, lcm

# perfbench reads these three: backend_name() names the report's
# env.backend and its work-count ledgers, and its tracer counts overflow
# fallbacks of a compiled kernel module only when the one below is set.
_speed = None


def backend_name():
    return "pure"


def has_speed():
    return False


def _gauss_jordan(lead, reduce):
    """Reduce rows grouped by leading column; returns (pivots, reduced).

    ``lead`` maps a column to the rows whose first nonzero is there, and
    ``reduce(row, piv, c)`` returns row with column c cleared by the pivot
    row piv.  After the pass down the columns every pivot row is zero left
    of its pivot, and the pass up clears each pivot column from the rows
    above it, using pivot rows that are already fully reduced.
    """
    pivots = []
    red = []
    while lead:
        c = min(lead)
        group = lead.pop(c)
        if len(group) > 1:
            group.sort(key=len)
            for row in group[1:]:
                row = reduce(row, group[0], c)
                if row:
                    lead.setdefault(min(row), []).append(row)
        pivots.append(c)
        red.append(group[0])
    for t in range(len(pivots) - 1, 0, -1):
        piv, c = red[t], pivots[t]
        for i in range(t):
            if c in red[i]:
                red[i] = reduce(red[i], piv, c)
    return pivots, red


def _reduce_int(row, piv, c):
    """a*row - b*piv, a > 0, with column c cancelled, divided by its content."""
    g = gcd(piv[c], row[c])
    if piv[c] < 0:
        g = -g
    a, b = piv[c] // g, row[c] // g
    new = {j: a * v for j, v in row.items()} if a != 1 else dict(row)
    for j, w in piv.items():
        x = new.get(j, 0) - b * w
        if x:
            new[j] = x
        else:
            del new[j]
    if new:
        g = gcd(*new.values())
        if g > 1:
            new = {j: v // g for j, v in new.items()}
    return new


def rrefj_int(m, rows, cols):
    """Reduced row echelon form over Q of the integer rows m, fraction-free.

    ``rows`` x ``cols`` is the shape of m; the elimination reads only m,
    and perfbench counts the shape per call.  Returns (den, pivots, reduced)
    where reduced[t] is the dict of nonzeros of the row with pivot column
    pivots[t], and reduced[t]/den is that row of the RREF: every pivot
    entry of ``reduced`` equals den > 0, and den is the lcm of the pivot
    entries of the primitive rows.  Zero rows of the RREF are left out.

    Every row is kept primitive by dividing out its content after each
    update, which bounds the entries by the minors of m as Bareiss's
    exact division does (Bareiss 1968) without touching the rows that do
    not hold the pivot column.
    """
    lead = {}
    for row in m:
        if row:
            g = gcd(*row.values())
            if g > 1:
                row = {j: v // g for j, v in row.items()}
            lead.setdefault(min(row), []).append(row)
    pivots, red = _gauss_jordan(lead, _reduce_int)
    den = lcm(*(abs(row[c]) for row, c in zip(red, pivots)))
    for t, c in enumerate(pivots):
        f = den // red[t][c]  # exact, and negative with the pivot
        if f != 1:
            red[t] = {j: f * v for j, v in red[t].items()}
    return den, pivots, red


def rref_mod(m, rows, cols, p):
    """Reduced row echelon form over GF(p) of the rows m, in the same form.

    Returns (pivots, reduced) where reduced[t] is the dict of nonzero
    residues of the RREF row with pivot column pivots[t]; its pivot entry
    is 1.  The rows are reduced modulo p into new dicts, which the
    elimination then updates in place.
    """

    def reduce(row, piv, c):
        f = row[c] * pow(piv[c], p - 2, p) % p
        for j, w in piv.items():
            x = (row.get(j, 0) - f * w) % p
            if x:
                row[j] = x
            else:
                del row[j]
        return row

    lead = {}
    for row in m:
        row = {j: r for j, v in row.items() if (r := v % p)}
        if row:
            lead.setdefault(min(row), []).append(row)
    pivots, red = _gauss_jordan(lead, reduce)
    for t, c in enumerate(pivots):
        inv = pow(red[t][c], p - 2, p)
        if inv != 1:
            red[t] = {j: v * inv % p for j, v in red[t].items()}
    return pivots, red
