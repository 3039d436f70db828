"""Exact linear algebra against hand-computed and Fraction-based oracles."""

import copy
import pickle
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepmonad import backend, exactlin
from sepmonad.exactlin import (
    Field,
    GF,
    Matrix,
    QQ,
    assemble,
    column_factor,
    hstack,
    inverse_failures,
    mat_kron,
    mat_mul,
    mat_sub,
    nullspace_basis,
    parse_field,
    span_basis,
    vstack,
)

Q = Field(0)
F2 = GF(2)


def M(field, rows_of_values):
    return Matrix.from_rows(field, rows_of_values)


def test_parse_field():
    assert parse_field("q") == Q
    assert parse_field("Q") == Q
    assert parse_field("fp:7") == GF(7)
    with pytest.raises(ValueError):
        parse_field("fp:6")
    with pytest.raises(ValueError):
        parse_field("real")


def test_mul_hand_case():
    a = M(Q, [[1, 2], [3, 4]])
    b = M(Q, [[0], [1]])
    assert mat_mul(a, b) == M(Q, [[2], [4]])


def test_mul_mod2_hand_case():
    a = M(F2, [[1, 1]])
    b = M(F2, [[1], [1]])
    assert mat_mul(a, b) == M(F2, [[0]])


def test_fraction_arithmetic_entries():
    a = Matrix.from_flat(Q, 2, 2, [1, 2, 3, 4], den=2)
    assert a.entry(0, 0) == Fraction(1, 2)
    assert a.entry(1, 1) == Fraction(2)
    twice = exactlin._combination((1, 1), (a, a))
    assert twice == Matrix.from_flat(Q, 2, 2, [1, 2, 3, 4], den=1)
    assert not any(mat_sub(a, a).nzrows)


def test_kron_associative_and_identity():
    a = M(Q, [[1, 2], [3, 4]])
    b = M(Q, [[0, 1], [1, 0]])
    c = M(Q, [[5]])
    assert mat_kron(mat_kron(a, b), c) == mat_kron(a, mat_kron(b, c))
    assert mat_kron(Matrix.identity(Q, 1), a) == a
    assert mat_kron(a, Matrix.identity(Q, 1)) == a


def test_rank_of_rank_deficient_matrix():
    basis, coeffs = column_factor(M(Q, [[1, 2], [2, 4]]))
    assert basis.cols == 1
    assert basis == M(Q, [[1], [2]])
    assert coeffs == M(Q, [[1, 2]])


@pytest.fixture
def products(monkeypatch):
    """The operand pairs of every product ``exactlin`` forms."""
    calls = []
    original = exactlin.mat_mul
    monkeypatch.setattr(exactlin, "mat_mul", lambda a, b: calls.append((a, b)) or original(a, b))
    return calls


def test_inverse_failures_of_a_square_pair_form_one_product(products):
    a = M(Q, [[1, 1], [0, 2]])
    b = M(Q, [[1, Fraction(-1, 2)], [0, Fraction(1, 2)]])
    assert inverse_failures(a, b, "ab", "ba") == []
    assert products == [(a, b)]
    # the identity is not a's inverse, so the second product is formed
    eye = M(Q, [[1, 0], [0, 1]])
    assert inverse_failures(a, eye, "ab", "ba") == [("ab", a, eye), ("ba", a, eye)]
    assert products[1:] == [(a, eye), (eye, a)]


def test_inverse_failures_of_a_non_square_pair_form_both_products(products):
    # a . b = I_1, but b . a is a rank-one idempotent, not I_2
    a = M(GF(3), [[1, 0]])
    b = M(GF(3), [[1], [2]])
    assert inverse_failures(a, b, "ab", "ba") == [
        ("ba", M(GF(3), [[1, 0], [2, 0]]), M(GF(3), [[1, 0], [0, 1]]))]
    assert products == [(a, b), (b, a)]


def test_nullspace_hand_case():
    ns = nullspace_basis(M(Q, [[1, 2]]))
    assert ns.cols == 1
    assert not any(mat_mul(M(Q, [[1, 2]]), ns).nzrows)


def test_stack_shapes():
    a = M(Q, [[1, 2]])
    b = M(Q, [[3, 4]])
    assert vstack([a, b]) == M(Q, [[1, 2], [3, 4]])
    assert hstack([a.transpose(), b.transpose()]) == M(Q, [[1, 3], [2, 4]])


def _frac_matmul(a, b, n, p):
    rows, inner = len(a), n
    cols = len(b[0]) if b else 0
    out = [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)] for i in range(rows)]
    if p:
        out = [[v % p for v in row] for row in out]
    return out


entries = st.integers(min_value=-30, max_value=30)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
    st.sampled_from([0, 2, 5]),
)
def test_matmul_matches_fraction_oracle(am, an, bn, data, p):
    field = Field(0) if p == 0 else GF(p)
    a = [[data.draw(entries) for _ in range(an)] for _ in range(am)]
    b = [[data.draw(entries) for _ in range(bn)] for _ in range(an)]
    if p:
        a = [[v % p for v in row] for row in a]
        b = [[v % p for v in row] for row in b]
    got = mat_mul(M(field, a), M(field, b))
    want = _frac_matmul([[Fraction(v) for v in r] for r in a], [[Fraction(v) for v in r] for r in b], an, p)
    for i in range(am):
        for j in range(bn):
            assert got.entry(i, j) == want[i][j]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data(), st.sampled_from([0, 3]))
def test_rref_properties(rows, cols, data, p):
    """Rank + nullity = cols; A * nullspace = 0.

    The column factorization gives a = basis * coeffs, with coeffs the
    identity on the pivot columns, which are the columns basis takes of a.
    """
    field = Field(0) if p == 0 else GF(p)
    vals = [[data.draw(entries) if p == 0 else data.draw(entries) % p for _ in range(cols)] for _ in range(rows)]
    a = M(field, vals)
    basis, coeffs = column_factor(a)
    assert mat_mul(basis, coeffs) == a
    pivots = [min(row) for row in coeffs.nzrows]
    assert pivots == sorted(set(pivots))
    assert coeffs.submatrix_cols(pivots).is_identity()
    assert a.submatrix_cols(pivots) == basis
    ns = nullspace_basis(a)
    assert basis.cols + ns.cols == cols
    if ns.cols:
        assert not any(mat_mul(a, ns).nzrows)


# -- sparse oracles for the kernels that visit nonzeros only -------------


dims = st.integers(0, 8)
nonzero_entries = st.integers(-9, 9).filter(bool)


@st.composite
def sparse_rows(draw, rows, cols):
    """A rows x cols list of lists, about 80% zeros, with forced zero row tails."""
    m = []
    for _ in range(rows):
        row = [draw(nonzero_entries) if draw(st.integers(0, 4)) == 0 else 0 for _ in range(cols)]
        if draw(st.booleans()):  # a zero tail, up to the whole row
            cut = draw(st.integers(0, cols))
            row[cut:] = [0] * (cols - cut)
        m.append(row)
    return m


def _flat(m):
    return [v for row in m for v in row]


def _gauss_jordan(m, cols, p=0):
    """(pivots, rref) by textbook Gauss-Jordan over Fractions or GF(p)."""
    a = [[Fraction(v) if p == 0 else v % p for v in row] for row in m]
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = 1 / a[r][c] if p == 0 else pow(a[r][c], p - 2, p)
        a[r] = [v * inv if p == 0 else v * inv % p for v in a[r]]
        for i in range(len(a)):
            f = a[i][c]
            if i != r and f:
                a[i] = [x - f * y if p == 0 else (x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return pivots, a


def _triple_loop(a, b, inner, p=0):
    out = [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(len(b[0]) if b else 0)]
           for i in range(len(a))]
    return [[v % p for v in row] for row in out] if p else out


def _from_entries(field, rows, cols, flat):
    """The Matrix with these Fraction (or GF(p) residue) entries, row-major."""
    if field.char:
        return Matrix.from_flat(field, rows, cols, flat)
    den = lcm(1, *(Fraction(v).denominator for v in flat))
    return Matrix.from_flat(field, rows, cols, [int(v * den) for v in flat], den)


def _matrix(field, m, cols, den=1):
    return Matrix.from_flat(field, len(m), cols, _flat(m), den)


def _eliminate(m, cols, p=0):
    """(den, pivots, reduced) of the row kernel for p, with den 1 over GF(p)."""
    if p == 0:
        return backend.rrefj_int(m, len(m), cols)
    return (1, *backend.rref_mod(m, len(m), cols, p))


def _assert_matches_gauss_jordan(m, cols, p=0):
    """The row kernel on the rows of m gives the textbook RREF of m."""
    rows = _row_dicts(m)
    before = [dict(row) for row in rows]
    den, pivots, red = _eliminate(rows, cols, p)
    assert rows == before  # the input row dicts are unchanged
    want_pivots, want = _gauss_jordan(m, cols, p)
    assert pivots == want_pivots
    assert len(red) == len(pivots)
    assert den > 0
    assert all(row[c] == den for row, c in zip(red, pivots))
    dense = [[0] * cols for _ in pivots]
    for out, row in zip(dense, red):
        assert all(v != 0 and (not p or 0 < v < p) for v in row.values())
        for j, v in row.items():
            out[j] = v
    assert [Fraction(v, den) for v in _flat(dense)] == _flat(want[:len(pivots)])
    assert not any(_flat(want[len(pivots):]))
    if p == 0:  # den is the lcm of the pivots of the primitive rows
        assert den == lcm(1, *(den // gcd(*row.values()) for row in red))
    return den, pivots, red


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sparse_rrefj_int_matches_fraction_gauss_jordan(data):
    rows, cols = data.draw(dims), data.draw(dims)
    m = data.draw(sparse_rows(rows, cols))
    _assert_matches_gauss_jordan(m, cols)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([2, 3, 5]))
def test_sparse_rref_mod_matches_gauss_jordan(data, p):
    rows, cols = data.draw(dims), data.draw(dims)
    m = data.draw(sparse_rows(rows, cols))
    _assert_matches_gauss_jordan(m, cols, p)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([0, 2, 3, 5]))
def test_submatrix_cols_takes_each_entry_of_its_column(data, p):
    """Entry (i, t) of a.submatrix_cols(idx) is a[i, idx[t]], for any distinct idx,
    empty rows and the empty selection (zero rank) included."""
    field = Field(0) if p == 0 else GF(p)
    rows, cols = data.draw(dims), data.draw(dims)
    a = _matrix(field, data.draw(sparse_rows(rows, cols)), cols,
                1 if p else data.draw(st.integers(1, 6)))
    idx = data.draw(st.permutations(range(cols)))[:data.draw(st.integers(0, cols))]
    sub = a.submatrix_cols(idx)
    assert (sub.rows, sub.cols) == (rows, len(idx))
    assert all(sub.entry(i, t) == a.entry(i, j)
               for i in range(rows) for t, j in enumerate(idx))


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from([0, 2, 3, 5]))
def test_row_kernels_ignore_row_order_zero_and_duplicate_rows(data, p):
    rows, cols = data.draw(st.integers(1, 8)), data.draw(dims)
    m = _row_dicts(data.draw(sparse_rows(rows, cols)))
    want = _eliminate(m, cols, p)
    # the same dict twice, an equal copy, a scaled copy and empty rows
    k = data.draw(st.integers(0, rows - 1))
    extra = [m[k], dict(m[k]), {j: 2 * v for j, v in m[k].items()}, {}, {}]
    shuffled = data.draw(st.permutations(m + extra))
    before = [dict(row) for row in shuffled]
    assert _eliminate(shuffled, cols, p) == want
    assert shuffled == before


def _kron_system(gens_a, gens_b):
    """Stacked kron(I, A^T) - kron(B, I), one block per pair (A, B).

    Its nullspace is the maps T (flattened row-major) with T A = B T.
    """
    dx, dy = len(gens_a[0]), len(gens_b[0])
    out = []
    for a, b in zip(gens_a, gens_b):
        for r in range(dy):
            for s in range(dx):
                row = [0] * (dy * dx)
                for t in range(dx):
                    row[r * dx + t] += a[t][s]
                for t in range(dy):
                    row[t * dx + s] -= b[r][t]
                out.append(row)
    return out


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([0, 2, 3, 5]))
def test_row_kernels_on_tall_kron_systems(data, p):
    dx, dy = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    gens_a = [data.draw(sparse_rows(dx, dx)) for _ in range(2)]
    if dx == dy and data.draw(st.booleans()):  # T = I and its multiples solve it
        gens_b = gens_a
    else:
        gens_b = [data.draw(sparse_rows(dy, dy)) for _ in range(2)]
    m = _kron_system(gens_a, gens_b)
    _assert_matches_gauss_jordan(m, dy * dx, p)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([0, 2, 3, 5]))
def test_sparse_products_match_triple_loop(data, p):
    field = Field(p)
    am, an, bn = (data.draw(dims) for _ in range(3))
    a = data.draw(sparse_rows(am, an))
    b = data.draw(sparse_rows(an, bn))
    got = mat_mul(_matrix(field, a, an), _matrix(field, b, bn))
    want = _triple_loop(a, b, an, p) if an else [[0] * bn for _ in range(am)]
    assert got == _matrix(field, want, bn)
    assert list(got.nums) == _flat(want)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from([0, 2, 3, 5]))
def test_sparse_kron_matches_entry_definition(data, p):
    field = Field(p)
    shape = [data.draw(st.integers(0, 4)) for _ in range(4)]
    a = _matrix(field, data.draw(sparse_rows(shape[0], shape[1])), shape[1],
                1 if p else data.draw(st.integers(1, 6)))
    b = _matrix(field, data.draw(sparse_rows(shape[2], shape[3])), shape[3],
                1 if p else data.draw(st.integers(1, 6)))
    assert mat_kron(a, b) == _kron_by_entries(a, b)


def _kron_by_entries(a, b):
    """kron(a, b) from its entry definition, as a plain row-built matrix."""
    p = a.field.char
    R, C = a.rows * b.rows, a.cols * b.cols
    want = [0] * (R * C)
    for i in range(a.rows):
        for j in range(a.cols):
            for k in range(b.rows):
                for l in range(b.cols):
                    v = a.entry(i, j) * b.entry(k, l)
                    want[(i * b.rows + k) * C + j * b.cols + l] = v % p if p else v
    return _from_entries(a.field, R, C, want)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from([0, 2, 3, 5]))
def test_sparse_assemble_matches_entry_definition(data, p):
    field = Field(p)
    blocks = []
    rows = cols = 0
    for _ in range(data.draw(st.integers(0, 3))):  # stacked down, free column offsets
        br, bc, c0 = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4)), data.draw(dims)
        den = 1 if p else data.draw(st.sampled_from([1, 2, 3, 4, 6]))
        blocks.append((rows, c0, _matrix(field, data.draw(sparse_rows(br, bc)), bc, den)))
        rows += br + data.draw(st.integers(0, 1))
        cols = max(cols, c0 + bc)
    cols += data.draw(st.integers(0, 1))
    want = [0] * (rows * cols)
    for r0, c0, m in blocks:
        for i in range(m.rows):
            for j in range(m.cols):
                want[(r0 + i) * cols + c0 + j] = m.entry(i, j)
    assert assemble(field, rows, cols, blocks) == _from_entries(field, rows, cols, want)


def test_assemble_brings_blocks_to_a_common_denominator():
    a = Matrix.from_flat(Q, 1, 2, [1, 0], den=2)
    b = Matrix.from_flat(Q, 1, 1, [1], den=3)
    got = assemble(Q, 2, 3, [(0, 0, a), (1, 2, b)])
    assert got == M(Q, [[Fraction(1, 2), 0, 0], [0, 0, Fraction(1, 3)]])


def _is_identity_loops(m):
    """The entry-by-entry definition that is_identity must agree with."""
    if m.rows != m.cols or m.den != 1:
        return False
    n = m.rows
    return all(m.nums[i * n + j] == (1 if i == j else 0) for i in range(n) for j in range(n))


def _identity_cases():
    cases = [Matrix.identity(Q, 0), Matrix.identity(Q, 1), M(Q, [[0]]), M(Q, [[2]]),
             M(F2, [[1]]), Matrix.zeros(Q, 2, 3), M(Q, [[1, 0, 0], [0, 1, 0]]),
             M(Q, [[1, 0], [0, 1], [0, 0]]), Matrix.zeros(Q, 0, 2)]
    for n in (2, 3, 4):
        eye = list(Matrix.identity(Q, n).nums)
        # den 2: one half on the diagonal
        cases.append(Matrix.from_flat(Q, n, n, eye, 2))
        for idx in range(n * n):
            flipped = list(eye)
            flipped[idx] = 1 - flipped[idx]
            cases.append(Matrix.from_flat(Q, n, n, flipped))
            cases.append(Matrix.from_flat(GF(3), n, n, flipped))
        swapped = list(eye)
        swapped[0], swapped[1] = 0, 1  # a permutation: as many ones and zeros as I
        swapped[n], swapped[n + 1] = 1, 0
        cases.append(Matrix.from_flat(Q, n, n, swapped))
    return cases


def test_is_identity_matches_entry_definition():
    for m in _identity_cases():
        assert m.is_identity() == _is_identity_loops(m), m


def _diagonal(field, blocks):
    """The (count, block) pairs placed down the diagonal by ``assemble``, each block count times."""
    placed, r0, c0 = [], 0, 0
    for n, m in blocks:
        for _ in range(n):
            placed.append((r0, c0, m))
            r0, c0 = r0 + m.rows, c0 + m.cols
    return assemble(field, r0, c0, placed)


def test_is_identity_of_a_block_diagonal_matches_its_rows():
    cases = _identity_cases()
    for a in cases:
        for b in cases:
            if a.field != b.field:
                continue
            for counts in ((1, 1), (2, 0), (0, 3)):
                d = _diagonal(a.field, zip(counts, (a, b)))
                assert d.is_identity() == _is_identity_loops(_built(d)), (a, b, counts)


def test_field_rejects_characteristic_beyond_proven_bound():
    # strong pseudoprime to every prime base up to 37 (Sorenson and Webster)
    with pytest.raises(ValueError):
        Field(318_665_857_834_031_151_167_461)
    # 2**89 - 1 is prime, but above the bound where the test is a proof
    with pytest.raises(ValueError, match="not below"):
        parse_field(f"fp:{2**89 - 1}")
    assert Field(2**61 - 1).char == 2**61 - 1


@pytest.mark.parametrize("p", [2, 3, 5, 7, 2**61 - 1])
def test_fields_are_interned(p):
    assert Field(p) is GF(p) is parse_field(f"fp:{p}")
    assert Field(0) is QQ is parse_field("q")
    assert Field(p) is not QQ
    for field in (QQ, Field(p)):
        assert pickle.loads(pickle.dumps(field)) is field
        assert copy.deepcopy(field) is field
        assert copy.copy(field) is field
    # a round trip makes no new instance and changes none
    assert (QQ.char, Field(p).char) == (0, p)
    # a matrix keeps its field's identity through a copy
    m = copy.deepcopy(Matrix.identity(Field(p), 2))
    assert m.field is Field(p) and m == Matrix.identity(GF(p), 2)
    # a composite characteristic still raises, and is never cached
    for _ in range(2):
        with pytest.raises(ValueError, match="0 or prime"):
            Field(4 * p)


# -- row form: rows and dense entries reach the one canonical form --------


def _row_dicts(m):
    return [{j: v for j, v in enumerate(row) if v} for row in m]


def _twins(field, m, cols, den=1):
    """The same matrix built from unnormalized rows and from dense entries."""
    rowwise = Matrix(field, len(m), cols, den=den, nzrows=_row_dicts(m))
    return rowwise, _matrix(field, m, cols, den)


def _assert_same(r, d):
    assert r == d and d == r
    assert r.nums == d.nums
    assert r.nzrows == d.nzrows
    assert r.den == d.den
    assert r.is_identity() == d.is_identity()


def _assert_canonical(m):
    p = m.field.char
    assert len(m.nzrows) == m.rows
    for row in m.nzrows:
        assert all(0 <= j < m.cols for j in row)
        assert all(v != 0 and (not p or 0 < v < p) for v in row.values())
    if p:
        assert m.den == 1
    else:
        assert m.den > 0
        assert gcd(m.den, *(v for row in m.nzrows for v in row.values())) == 1


fields = st.sampled_from([0, 2, 3, 5])


@settings(max_examples=150, deadline=None)
@given(st.data(), fields)
def test_row_built_equals_dense_built(data, p):
    field = Field(p)
    rows, cols = data.draw(dims), data.draw(dims)
    # a content k that may share a factor with den, and dens that are
    # negative or vanish in the field
    k = data.draw(st.sampled_from([1, 2, 3, 6]))
    m = [[k * v for v in row] for row in data.draw(sparse_rows(rows, cols))]
    den = data.draw(st.sampled_from([1, 2, 4, 6, -3, -6, 0]))
    if (den % p if p else den) == 0:
        with pytest.raises(ZeroDivisionError):
            Matrix(field, rows, cols, den=den, nzrows=_row_dicts(m))
        with pytest.raises(ZeroDivisionError):
            _matrix(field, m, cols, den)
        return
    r, d = _twins(field, m, cols, den)
    _assert_canonical(r)
    _assert_same(r, d)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(2, 12), st.integers(1, 5))
def test_row_built_divides_content_against_den(data, k, den):
    rows, cols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    m = [[k * v for v in row] for row in data.draw(sparse_rows(rows, cols))]
    r, d = _twins(Q, m, cols, k * den)
    _assert_canonical(r)
    _assert_same(r, d)
    want = [Fraction(v, k * den) for v in _flat(m)]
    assert [r.entry(i, j) for i in range(rows) for j in range(cols)] == want


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from([2, 3, 5]))
def test_row_built_reduces_mod_p(data, p):
    rows, cols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    m = [[v * p + data.draw(st.integers(-40, 40)) if v else 0 for v in row]
         for row in data.draw(sparse_rows(rows, cols))]
    den = data.draw(st.integers(1, 30).filter(lambda v: v % p))
    r, d = _twins(GF(p), m, cols, den)
    _assert_canonical(r)
    _assert_same(r, d)
    inv = pow(den, p - 2, p)
    assert list(r.nums) == [v * inv % p for v in _flat(m)]


@settings(max_examples=150, deadline=None)
@given(st.data(), fields, st.booleans(), st.booleans())
def test_row_and_dense_operands_agree(data, p, a_rows, b_rows):
    field = Field(p)
    am, an, bm, bn = (data.draw(st.integers(0, 5)) for _ in range(4))
    dens = st.sampled_from([1]) if p else st.sampled_from([1, 2, 3, 6])
    a = data.draw(sparse_rows(am, an))
    b = data.draw(sparse_rows(an, bn))
    c = data.draw(sparse_rows(bm, bn))
    da, db, dc = (data.draw(dens) for _ in range(3))
    ra, xa = _twins(field, a, an, da)
    rb, xb = _twins(field, b, bn, db)
    rc, xc = _twins(field, c, bn, dc)
    left, right = (ra if a_rows else xa), (rb if b_rows else xb)
    prod = mat_mul(left, right)
    _assert_canonical(prod)
    _assert_same(prod, mat_mul(xa, xb))
    want = _triple_loop(a, b, an, p) if an else [[0] * bn for _ in range(am)]
    _assert_same(prod, _from_entries(field, am, bn, [
        v % p if p else Fraction(v, da * db) for v in _flat(want)]))
    kron = mat_kron(left, rc if b_rows else xc)
    _assert_canonical(kron)
    _assert_same(kron, mat_kron(xa, xc))
    blocks = [(0, 0, left), (am, an, rc if b_rows else xc)]
    stacked = assemble(field, am + bm, an + bn, blocks)
    _assert_canonical(stacked)
    _assert_same(stacked, assemble(field, am + bm, an + bn, [(0, 0, xa), (am, an, xc)]))


@settings(max_examples=100, deadline=None)
@given(st.data(), fields)
def test_products_drop_entries_that_cancel(data, p):
    field = Field(p)
    am, an, bn = (data.draw(st.integers(1, 5)) for _ in range(3))
    a = data.draw(sparse_rows(am, an))
    b = data.draw(sparse_rows(an, bn))
    # [a a] [b; -b] = 0, entry by entry
    wide, _ = _twins(field, [row + row for row in a], 2 * an)
    tall, _ = _twins(field, b + [[-v for v in row] for row in b], bn)
    prod = mat_mul(wide, tall)
    assert prod.nzrows == [{} for _ in range(am)]
    _assert_same(prod, Matrix.zeros(field, am, bn))
    # and (a + (-a)) cancels in the sum as well
    ra, _ = _twins(field, a, an)
    _assert_same(mat_sub(ra, ra), Matrix.zeros(field, am, an))


@settings(max_examples=150, deadline=None)
@given(st.data(), fields)
def test_sums_match_fraction_arithmetic(data, p):
    """A linear combination and mat_sub agree entrywise with Fraction
    (or GF(p) residue) arithmetic, for zero and negative coefficients and,
    over Q, operands of different dens."""
    field = Field(p)
    rows, cols = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    dens = st.sampled_from([1]) if p else st.sampled_from([1, 2, 3, 4, 6])
    mats = [_matrix(field, data.draw(sparse_rows(rows, cols)), cols, data.draw(dens))
            for _ in range(data.draw(st.integers(1, 4)))]
    coeffs = [data.draw(st.integers(-3, 3)) for _ in mats]

    def entries(m):
        return [m.entry(i, j) for i in range(rows) for j in range(cols)]

    def want(cs, ms):
        sums = [sum(c * v for c, v in zip(cs, vs)) for vs in zip(*map(entries, ms))]
        return [v % p for v in sums] if p else sums

    got = exactlin._combination(coeffs, mats)
    _assert_canonical(got)
    assert entries(got) == want(coeffs, mats)
    a, b = mats[0], mats[-1]
    diff = mat_sub(a, b)
    _assert_canonical(diff)
    assert entries(diff) == want((1, -1), (a, b))


def test_sums_refuse_a_field_or_shape_mismatch():
    a = Matrix.identity(Q, 2)
    for other in (Matrix.identity(F2, 2), Matrix.zeros(Q, 2, 3), Matrix.zeros(Q, 3, 2)):
        for total in (mat_sub, lambda x, y: exactlin._combination((1, 0), (x, y))):  # even at 0
            with pytest.raises(ValueError, match="mismatch"):
                total(a, other)


def test_a_difference_normalizes_once(monkeypatch):
    a = Matrix(Q, 2, 2, den=2, nzrows=[{0: 1}, {1: 3}])
    b = Matrix(Q, 2, 2, den=3, nzrows=[{0: 1, 1: 1}, {}])
    calls = []
    original = exactlin._normalize_rows
    monkeypatch.setattr(exactlin, "_normalize_rows",
                        lambda *args: calls.append(args) or original(*args))
    diff = mat_sub(a, b)
    assert len(calls) == 1
    monkeypatch.undo()
    assert diff == M(Q, [[Fraction(1, 6), Fraction(-1, 3)], [0, Fraction(3, 2)]])


@settings(max_examples=60, deadline=None)
@given(st.permutations(range(6)), fields)
def test_row_permutations(perm, p):
    field = Field(p)
    n = len(perm)
    pm = Matrix(field, n, n, _normalized=True, nzrows=[{j: 1} for j in perm])
    dense = [[1 if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    _assert_same(pm, _matrix(field, dense, n))
    assert pm.is_identity() == (list(perm) == list(range(n)))
    m = M(field, [[i * n + j + 1 for j in range(n)] for i in range(n)])
    assert mat_mul(pm, m) == M(field, [[perm[i] * n + j + 1 for j in range(n)] for i in range(n)])
    assert mat_mul(pm, pm.transpose()).is_identity()


def test_empty_shapes_in_row_form():
    for p in (0, 3):
        field = Field(p)
        for rows, cols in ((0, 3), (3, 0), (0, 0)):
            r = Matrix(field, rows, cols, nzrows=[{} for _ in range(rows)])
            _assert_same(r, Matrix.zeros(field, rows, cols))
            _assert_same(r, Matrix.from_flat(field, rows, cols, []))
            assert r.transpose() == Matrix.zeros(field, cols, rows)
        z03, z30 = Matrix.zeros(field, 0, 3), Matrix.zeros(field, 3, 0)
        assert mat_mul(z03, Matrix.identity(field, 3)) == z03
        assert mat_mul(z30, Matrix.zeros(field, 0, 2)) == Matrix.zeros(field, 3, 2)
        assert mat_kron(z30, Matrix.identity(field, 2)) == Matrix.zeros(field, 6, 0)
        assert assemble(field, 3, 3, [(0, 0, z30), (0, 0, z03)]) == Matrix.zeros(field, 3, 3)
        assert vstack([z03, Matrix.identity(field, 3)]) == Matrix.identity(field, 3)


@pytest.mark.parametrize("p", [0, 2, 3, 5])
def test_eliminations_leave_the_dense_view_unbuilt(monkeypatch, p):
    field = Field(p)
    den = 3 if p == 0 else 1

    def rows(*entries):
        return Matrix(field, len(entries), 3, den=den, nzrows=[dict(e) for e in entries])

    def dense_read(m):
        raise AssertionError("an elimination read the dense view")

    a = rows({0: 1, 2: 2}, {1: 1}, {0: 1, 1: 1, 2: 2})
    b = rows({0: 1}, {2: 1}, {0: 1, 2: 1})
    monkeypatch.setattr(Matrix, "nums", property(dense_read))
    basis, (cols, coeffs), span = nullspace_basis(a), column_factor(a), span_basis(b)
    monkeypatch.undo()
    assert mat_mul(a, basis) == Matrix.zeros(field, 3, basis.cols)
    assert mat_mul(cols, coeffs) == a
    # b's columns (1, 0, 1) and (0, 1, 1) span the kernel of x0 + x1 - x2
    assert span == nullspace_basis(Matrix.from_rows(field, [[1, 1, -1]]))


@st.composite
def invertible(draw, field, k):
    """A k x k matrix that is invertible over field: a row permutation of a
    lower triangular matrix with units on its diagonal, over a den."""
    perm = draw(st.permutations(range(k)))
    lower = []
    for i in range(k):
        row = {j: draw(entries) for j in range(i)}
        row[i] = draw(st.sampled_from([1, -1, 2, -2, 4, 5]))  # units over Q and GF(3)
        lower.append(row)
    den = draw(st.sampled_from([1, 2, 4]))
    return Matrix(field, k, k, den=den, nzrows=[lower[perm[i]] for i in range(k)])


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from([0, 3]))
def test_span_basis_of_a_spanning_set_is_the_nullspace_basis(data, p):
    """span_basis(nullspace_basis(a) . r) == nullspace_basis(a) for invertible r.

    A dependent extra column, a combination of the others, changes nothing.
    """
    field = Field(p)
    rows, cols = data.draw(st.integers(0, 6)), data.draw(st.integers(1, 8))
    a = _matrix(field, data.draw(sparse_rows(rows, cols)), cols)
    ns = nullspace_basis(a)
    spanning = mat_mul(ns, data.draw(invertible(field, ns.cols)))
    assert span_basis(spanning) == ns
    if ns.cols:
        combo = Matrix(field, ns.cols, 1, nzrows=[{0: data.draw(entries)} for _ in range(ns.cols)])
        assert span_basis(hstack([spanning, mat_mul(spanning, combo)])) == ns


# -- factored products: Kronecker products and placed blocks keep their factors --


def _rows_built(m):
    """Whether m's rows exist: a factored matrix leaves its nzrows slot unset until read."""
    try:
        Matrix.nzrows.__get__(m)
    except AttributeError:
        return False
    return True


def _built(m):
    """The same matrix as a plain row-built one, with no factors to multiply."""
    return Matrix(m.field, m.rows, m.cols, den=m.den, _normalized=True, nzrows=list(m.nzrows))


@st.composite
def _split(draw, n):
    """(u, v) with u * v == n, both drawn when n is None (a free side)."""
    if n is None:
        return None, None
    if n == 0:
        other = draw(st.integers(0, 3))
        return draw(st.sampled_from([(0, other), (other, 0)]))
    u = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    return u, n // u


@st.composite
def operands(draw, field, rows=None, cols=None, depth=2):
    """(m, reference) with the given rows or cols: m is plain rows, or a
    Kronecker product of two such operands, nested up to depth; reference is
    the same matrix from the entry definition.  Over Q a leaf may have den > 1."""
    if depth and draw(st.booleans()):
        (ru, rv), (cu, cv) = draw(_split(rows)), draw(_split(cols))
        a, a_ref = draw(operands(field, ru, cu, depth - 1))
        b, b_ref = draw(operands(field, rv, cv, depth - 1))
        return mat_kron(a, b), _kron_by_entries(a_ref, b_ref)
    r = draw(st.integers(0, 2)) if rows is None else rows
    c = draw(st.integers(0, 2)) if cols is None else cols
    den = 1 if field.char else draw(st.sampled_from([1, 2, 3]))
    # dense leaves: a Kronecker product of sparse ones is mostly zero
    m = _matrix(field, [[draw(st.integers(-3, 3)) for _ in range(c)] for _ in range(r)], c, den)
    return m, m


@settings(max_examples=200, deadline=None)
@given(st.data(), fields)
def test_factored_products_equal_products_of_built_copies(data, p):
    """Every route of mat_mul gives the product of the entry-built operands,
    in == and in rows.

    The operands are plain or (nested) Kronecker products whose inner
    splits of n may or may not chain, n = 0 included.
    """
    field = Field(p)
    n = data.draw(st.integers(0, 8))
    a, a_ref = data.draw(operands(field, cols=n))
    b, b_ref = data.draw(operands(field, rows=n))
    got = mat_mul(a, b)
    _assert_same(got, mat_mul(a_ref, b_ref))
    _assert_canonical(got)
    # and the rows the operands build when read are the entry definition's
    _assert_same(a, a_ref)
    _assert_same(b, b_ref)


@st.composite
def _block(draw, field, rows, cols, den=True):
    """A sparse rows x cols block; over Q it may have den > 1 unless den is False."""
    d = draw(st.sampled_from([1, 2, 3])) if den and not field.char else 1
    return _matrix(field, draw(sparse_rows(rows, cols)), cols, d)


def _placed(field, row_sizes, col_sizes, parts, blocks):
    """blocks[i] placed at row part i and column part parts[i] of the two partitions."""
    r_at = [sum(row_sizes[:i]) for i in range(len(row_sizes))]
    c_at = [sum(col_sizes[:j]) for j in range(len(col_sizes))]
    return assemble(field, sum(row_sizes), sum(col_sizes),
                    [(r_at[i], c_at[j], m) for i, (j, m) in enumerate(zip(parts, blocks))])


@st.composite
def _block_permutation(draw, field, row_sizes, col_sizes):
    """Blocks placed at row part i and column part sigma(i), for a random permutation sigma."""
    sigma = draw(st.permutations(range(len(row_sizes))))
    blocks = [draw(_block(field, r, col_sizes[j])) for r, j in zip(row_sizes, sigma)]
    return _placed(field, row_sizes, col_sizes, sigma, blocks)


_BLOCK_LAYOUTS = ("diagonal", "permutation", "stack", "stacked_left", "kron_left",
                  "kron_right", "hstack", "misaligned")


@st.composite
def _block_layout(draw, field, layout):
    """(a, b) in the layout: a's column blocks are b's row blocks, except in
    "hstack" (two blocks in one row range) and "misaligned" (a column block
    that is half of a row block), which the block rule must pass on."""
    small, some = st.integers(0, 3), st.integers(1, 3)
    if layout == "diagonal":  # each block drawn once, placed count times
        counts = draw(st.lists(st.tuples(small, small, small, small), max_size=3))
        a = [(n, draw(_block(field, r, k))) for n, r, k, _ in counts]
        b = [(n, draw(_block(field, k, c))) for n, _, k, c in counts]
        return _diagonal(field, a), _diagonal(field, b)
    k = draw(small)
    rows, inner, cols = ([draw(small) for _ in range(k)] for _ in range(3))
    if layout == "permutation":
        return (draw(_block_permutation(field, rows, inner)),
                draw(_block_permutation(field, inner, cols)))
    if layout == "stack":  # b's blocks all at column 0, as in the unit eta
        c = draw(small)
        b = vstack([draw(_block(field, m, c)) for m in inner]) if k else assemble(field, 0, c, [])
        return draw(_block_permutation(field, rows, inner)), b
    if layout == "stacked_left":  # a's blocks all in one column block
        m, c = draw(small), draw(small)
        a = _placed(field, rows, [m], [0] * k, [draw(_block(field, r, m)) for r in rows])
        return a, draw(_block_permutation(field, [m], [c]))
    if layout == "kron_left":
        r, m = draw(small), draw(small)
        a = mat_kron(Matrix.identity(field, k), draw(_block(field, r, m, den=False)))
        return a, draw(_block_permutation(field, [m] * k, cols))
    if layout == "kron_right":
        m, c = draw(small), draw(small)
        b = mat_kron(Matrix.identity(field, k), draw(_block(field, m, c, den=False)))
        return draw(_block_permutation(field, rows, [m] * k)), b
    r, m1, m2, c = (draw(some) for _ in range(4))
    if layout == "hstack":
        a = hstack([draw(_block(field, r, m1)), draw(_block(field, r, m2))])
        return a, draw(_block_permutation(field, [m1, m2], [c, c]))
    a = draw(_block_permutation(field, [r, r], [m1, m2]))
    return a, draw(_block_permutation(field, [m1 + m2], [c]))


@settings(max_examples=300, deadline=None)
@given(st.data(), fields, st.sampled_from(_BLOCK_LAYOUTS))
def test_block_products_equal_products_of_built_copies(data, p, layout):
    """A product of placed blocks or kron(I_k, f) equals the product of the
    row-built operands, in == and in rows, and is canonical.  The block rule
    keeps the product unbuilt, and the layouts it must pass on go through
    Gustavson's product, which builds it, as does a plain operand."""
    field = Field(p)
    a, b = data.draw(_block_layout(field, layout))
    got = mat_mul(a, b)
    assert _rows_built(got) == (layout in ("hstack", "misaligned"))
    _assert_same(got, mat_mul(_built(a), _built(b)))
    _assert_canonical(got)
    plain = _matrix(field, data.draw(sparse_rows(b.rows, 2)), 2)
    _assert_same(mat_mul(a, plain), mat_mul(_built(a), plain))


def test_the_block_rule_forms_each_pair_of_blocks_once(products):
    f = _matrix(Q, [[1, 2], [0, 3]], 2)
    g = _matrix(Q, [[1, 0], [2, 1]], 2, den=2)
    a = _diagonal(Q, [(3, f), (2, g)])
    b = _diagonal(Q, [(3, g), (2, f)])
    got = mat_mul(a, b)
    assert products == [(f, g), (g, f)]
    assert not _rows_built(got)
    assert got == _diagonal(Q, [(3, mat_mul(f, g)), (2, mat_mul(g, f))])


def test_kron_products_with_chaining_factors_stay_factored():
    f = _matrix(Q, [[1, 2], [0, 3]], 2)
    g = _matrix(Q, [[1, 0, 1], [2, 1, 0], [0, 0, 5]], 3)
    chained = mat_mul(mat_kron(f, g), mat_kron(f, g))
    assert not _rows_built(chained)
    assert chained == _kron_by_entries(mat_mul(f, f), mat_mul(g, g))
    # a den other than 1 needs a normalization: those rows are built at once
    half = _matrix(Q, [[1, 2], [0, 3]], 2, den=2)
    assert _rows_built(mat_kron(half, g))
    assert (mat_mul(mat_kron(half, g), mat_kron(f, g))
            == _kron_by_entries(mat_mul(half, f), mat_mul(g, g)))
    # inner splits 2 * 3 against 3 * 2: the factors do not chain
    crossed = mat_mul(mat_kron(f, g), mat_kron(g, f))
    assert _rows_built(crossed)
    assert crossed == mat_mul(_built(mat_kron(f, g)), _built(mat_kron(g, f)))
    # an empty inner dimension split 0 * 4 against 0 * 7, and 4 * 0 against
    # 7 * 0: one pair of factors chains, the other does not
    empty = [Matrix.zeros(Q, r, c) for r, c in ((2, 0), (3, 4), (0, 3), (7, 2))]
    for x, y, z, w in (empty, [empty[1], empty[0], empty[3], empty[2]]):
        assert mat_mul(mat_kron(x, y), mat_kron(z, w)) == Matrix.zeros(Q, 6, 6)


@pytest.mark.parametrize("p", [0, 2, 3, 5])
def test_a_kron_read_only_by_products_leaves_its_rows_unbuilt(p):
    field = Field(p)
    eye = Matrix.identity(field, 3)
    f = _matrix(field, [[1, 2], [0, 1]], 2)
    g = _matrix(field, [[(i * 7 + j * 3) % 5 - 2 for j in range(6)] for i in range(6)], 6)
    k = mat_kron(eye, f)
    d = _diagonal(field, [(3, f)])
    products = [mat_mul(g, k), mat_mul(k, g), mat_mul(k, k), mat_mul(d, d)]
    assert not any(_rows_built(m) for m in (k, d, products[2], products[3]))
    assert products[0] == mat_mul(g, _built(k)) and products[1] == mat_mul(_built(k), g)
    assert products[2] == products[3] == mat_kron(eye, mat_mul(f, f))
    assert k.nzrows == d.nzrows and _rows_built(k) and _rows_built(d)


@st.composite
def _kron_factor(draw, field, selection):
    """A factor of at most 3 x 3, 0 rows or 0 columns included: each row a
    selection with value 1 or zero, or any sparse rows."""
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    if selection and cols:
        m = [[0] * cols for _ in range(rows)]
        for row in m:
            if draw(st.booleans()):
                row[draw(st.integers(0, cols - 1))] = 1
    else:
        m = draw(sparse_rows(rows, cols))
    return _matrix(field, m, cols)


@settings(max_examples=150, deadline=None)
@given(st.data(), fields, st.booleans())
def test_kron_row_sequence_iterates_and_indexes_the_entry_definition(data, p, selection):
    """Iterating the rows of kron(a, b), indexing each of them and reading
    a[i, j] * b[k, l] through ``Matrix.entry`` agree, and leave both factors'
    rows unchanged.  A row of a that selects column 0 indexes b's row itself."""
    field = Field(p)
    a = data.draw(_kron_factor(field, selection))
    b = data.draw(_kron_factor(field, data.draw(st.booleans())))
    a_before, b_before = [dict(r) for r in a.nzrows], [dict(r) for r in b.nzrows]
    rows = exactlin._KronRows(a, b)
    built = list(rows)
    assert len(built) == a.rows * b.rows
    assert [rows[n] for n in range(len(built))] == built
    assert all(v and (not p or 0 < v < p) for row in built for v in row.values())
    kron = mat_kron(a, b)
    for i in range(a.rows):
        for k in range(b.rows):
            n = i * b.rows + k
            if a.nzrows[i] == {0: 1}:
                assert rows[n] is b.nzrows[k]
            for j in range(a.cols):
                for l in range(b.cols):
                    want = a.entry(i, j) * b.entry(k, l)
                    want = want % p if p else want
                    assert kron.entry(n, j * b.cols + l) == want
                    assert built[n].get(j * b.cols + l, 0) == want
    assert a.nzrows == a_before and b.nzrows == b_before
