"""Packed-word and index-array primitives and the elimination engine of
f2la checked against dense numpy references, and the strict alist parser."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bpcodes import f2la
from bpcodes.complexes import _kron
from bpcodes.errors import (
    AlistDegreeMismatch,
    AlistDuplicateIndex,
    AlistError,
    AlistIndexOutOfRange,
    AlistListsDisagree,
    AlistTrailingTokens,
    AlistTruncated,
    ContainmentError,
    DimensionMismatch,
)
from bpcodes.f2la import (
    F2Matrix,
    F2Subspace,
    alist_dumps,
    alist_loads,
    kernel_basis,
    rank,
    rref,
    solve,
    solve_matrix,
)

COLS = [0, 1, 63, 64, 65, 130]


@st.composite
def dense_arrays(draw, rows=st.integers(0, 9), cols=st.sampled_from(COLS)):
    r, c = draw(rows), draw(cols)
    density = draw(st.sampled_from([0.0, 0.05, 0.3, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (rng.random((r, c)) < density).astype(np.uint8)


def dense_alist(d: np.ndarray, pad: bool = False) -> str:
    """Reference alist writer on a dense 0/1 array; ``pad`` zero-pads each
    list to the maximum degree, as in MacKay's files."""
    mm, n = d.shape
    col_lists = [list(np.nonzero(d[:, j])[0] + 1) for j in range(n)]
    row_lists = [list(np.nonzero(d[i, :])[0] + 1) for i in range(mm)]
    max_c = max((len(c) for c in col_lists), default=0)
    max_r = max((len(r) for r in row_lists), default=0)
    if pad:
        col_lists = [c + [0] * (max_c - len(c)) for c in col_lists]
        row_lists = [r + [0] * (max_r - len(r)) for r in row_lists]
    lines = [
        f"{n} {mm}",
        f"{max_c} {max_r}",
        " ".join(str(int(d[:, j].sum())) for j in range(n)),
        " ".join(str(int(d[i, :].sum())) for i in range(mm)),
    ]
    lines.extend(" ".join(map(str, c)) for c in col_lists)
    lines.extend(" ".join(map(str, r)) for r in row_lists)
    return "\n".join(lines) + "\n"


# -- differential tests against dense references ----------------------


@settings(max_examples=150, deadline=None)
@given(dense_arrays())
def test_nonzeros_matches_dense_order(d):
    rows, cols = F2Matrix.from_dense(d).nonzeros()
    ref_rows, ref_cols = np.nonzero(d)
    assert rows.dtype == cols.dtype == np.int64
    assert rows.tolist() == ref_rows.tolist()
    assert cols.tolist() == ref_cols.tolist()


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 9),
    st.sampled_from(COLS),
    st.integers(0, 40),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_from_entries_cancels_duplicates(rows, cols, count, seed, as_arrays):
    assume(rows and cols or not count)
    rng = np.random.default_rng(seed)
    r = rng.integers(0, max(rows, 1), count)
    c = rng.integers(0, max(cols, 1), count)
    # repeat a prefix so some entries appear two or three times
    r = np.concatenate([r, r[: count // 3], r[:2]])
    c = np.concatenate([c, c[: count // 3], c[:2]])
    ref = np.zeros((rows, cols), dtype=np.int64)
    np.add.at(ref, (r, c), 1)
    ones = (r, c) if as_arrays else list(zip(r.tolist(), c.tolist()))
    m = F2Matrix.from_entries(rows, cols, ones)
    assert np.array_equal(m.to_dense(), ref % 2)


@pytest.mark.parametrize(
    "entry", [(3, 0), (0, 5), (-1, 0), (0, -1)], ids=["row", "col", "neg-row", "neg-col"]
)
@pytest.mark.parametrize("as_arrays", [False, True])
def test_from_entries_rejects_out_of_range(entry, as_arrays):
    ones = [(0, 0), entry]
    if as_arrays:
        ones = (np.array([0, entry[0]]), np.array([0, entry[1]]))
    with pytest.raises(DimensionMismatch):
        F2Matrix.from_entries(3, 5, ones)


@settings(max_examples=150, deadline=None)
@given(dense_arrays())
def test_transpose_and_col_weights_match_dense(d):
    m = F2Matrix.from_dense(d)
    assert np.array_equal(m.transpose().to_dense(), d.T)
    assert m.col_weights().tolist() == d.sum(axis=0).tolist()


@settings(max_examples=150, deadline=None)
@given(dense_arrays(), st.integers(0, 2**32 - 1))
def test_permuted_matches_dense(d, seed):
    rng = np.random.default_rng(seed)
    rp, cp = rng.permutation(d.shape[0]), rng.permutation(d.shape[1])
    ref = np.zeros_like(d)
    ref[np.ix_(rp, cp)] = d
    assert np.array_equal(F2Matrix.from_dense(d).permuted(rp, cp).to_dense(), ref)


@settings(max_examples=150, deadline=None)
@given(
    dense_arrays(),
    st.sampled_from(COLS),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 2, 3, 7, f2la._PRODUCT_PAIRS]),
)
def test_matmul_matches_dense(a, cols, seed, product_pairs):
    b = (np.random.default_rng(seed).random((a.shape[1], cols)) < 0.4).astype(np.uint8)
    # small pair budgets split the product into many chunks of whole rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(f2la, "_PRODUCT_PAIRS", product_pairs)
        prod = F2Matrix.from_dense(a).matmul(F2Matrix.from_dense(b))
    ref = (a.astype(np.int64) @ b.astype(np.int64)) % 2
    assert (prod.rows, prod.cols) == ref.shape
    assert np.array_equal(prod.to_dense(), ref)


@settings(max_examples=150, deadline=None)
@given(dense_arrays(), st.sampled_from(COLS), st.integers(0, 2**32 - 1))
def test_hstack_matches_dense(a, cols, seed):
    b = (np.random.default_rng(seed).random((a.shape[0], cols)) < 0.4).astype(np.uint8)
    stacked = F2Matrix.from_dense(a).hstack(F2Matrix.from_dense(b))
    assert np.array_equal(stacked.to_dense(), np.hstack([a, b]))


@settings(max_examples=100, deadline=None)
@given(
    dense_arrays(rows=st.integers(0, 4), cols=st.sampled_from([0, 1, 3, 65])),
    dense_arrays(rows=st.integers(0, 4), cols=st.sampled_from([0, 1, 2, 64])),
)
def test_kron_matches_numpy(a, b):
    k = _kron(F2Matrix.from_dense(a), F2Matrix.from_dense(b))
    assert np.array_equal(k.to_dense(), np.kron(a, b))


@settings(max_examples=150, deadline=None)
@given(dense_arrays())
def test_alist_dumps_matches_dense_writer(d):
    assert alist_dumps(F2Matrix.from_dense(d)) == dense_alist(d)


def dense_rref(d: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reference Gauss-Jordan elimination on a 0/1 uint8 array, pivoting on
    the lowest-index column; returns the nonzero RREF rows and the pivots."""
    a = d.astype(np.uint8) % 2
    pivots: list[int] = []
    for j in range(a.shape[1]):
        r = len(pivots)
        hit = np.flatnonzero(a[r:, j])
        if not len(hit):
            continue
        a[[r, r + hit[0]]] = a[[r + hit[0], r]]
        others = np.flatnonzero(a[:, j])
        a[others[others != r]] ^= a[r]
        pivots.append(j)
    return a[: len(pivots)], pivots


@st.composite
def elim_arrays(draw, rows=st.integers(0, 24), cols=st.sampled_from(COLS)):
    """0/1 arrays from sparse (about four ones a row) up to density 0.5,
    plus the all-zero and all-one extremes."""
    r, c = draw(rows), draw(cols)
    density = draw(st.sampled_from([0.0, 4 / max(c, 1), 0.05, 0.2, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (rng.random((r, c)) < density).astype(np.uint8)


def loop_kernel_rows(m: F2Matrix) -> list[int]:
    """Reference kernel basis: one vector per free column, read from the
    dense reference RREF entry by entry."""
    dense, pivots = dense_rref(m.to_dense())
    rows = []
    for f in (j for j in range(m.cols) if j not in pivots):
        v = 1 << f
        for i, p in enumerate(pivots):
            if dense[i, f]:
                v |= 1 << p
        rows.append(v)
    return rows


def loop_solve(m: F2Matrix, b: int) -> int | None:
    """Reference particular solution with every free variable zero."""
    rhs = np.array([(b >> i) & 1 for i in range(m.rows)], dtype=np.uint8).reshape(-1, 1)
    dense, pivots = dense_rref(np.hstack([m.to_dense(), rhs]))
    if m.cols in pivots:
        return None
    return sum(1 << p for i, p in enumerate(pivots) if dense[i, m.cols])


@settings(max_examples=150, deadline=None)
@given(dense_arrays())
def test_from_dense_matches_padded_packbits(d):
    """from_dense writes the bytes of the row-wise packed bits zero-padded
    to whole words, as np.pad of np.packbits would."""
    rows, cols = d.shape
    width = max(1, -(-cols // 64)) * 8
    ref = np.zeros((rows, width), dtype=np.uint8)
    if rows and cols:
        packed = np.packbits(d, axis=1, bitorder="little")
        ref = np.pad(packed, ((0, 0), (0, width - packed.shape[1])))
    assert F2Matrix.from_dense(d).data.tobytes() == ref.tobytes()


@settings(max_examples=150, deadline=None)
@given(elim_arrays(), st.sampled_from([8, 16, 24, 100, f2la._STREAM_BYTES]))
def test_row_stream_matches_row_by_row_reads(d, stream_bytes):
    m = F2Matrix.from_dense(d)
    ref = [m.row_int(i) for i in range(m.rows)]
    ref_rref = rref(m)
    # small blocks split the rows into many tobytes() reads
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(f2la, "_STREAM_BYTES", stream_bytes)
        assert list(m.iter_row_ints()) == m.row_ints() == ref
        assert rref(m) == ref_rref
        assert rank(F2Matrix.from_dense(d)) == len(ref_rref[1])


@settings(max_examples=200, deadline=None)
@given(elim_arrays())
def test_rank_and_rref_match_dense_reference(d):
    m = F2Matrix.from_dense(d)
    before = m.data.copy()
    ref_rows, ref_pivots = dense_rref(d)
    r, pivots = rref(m)
    assert pivots == ref_pivots
    assert (r.rows, r.cols) == (len(ref_pivots), m.cols)
    assert np.array_equal(r.to_dense(), ref_rows)
    assert rank(m) == len(ref_pivots)
    assert np.array_equal(m.data, before)


@settings(max_examples=200, deadline=None)
@given(elim_arrays(), st.integers(0, 2**32 - 1))
def test_kernel_basis_and_solve_match_loop_reference(d, seed):
    m = F2Matrix.from_dense(d)
    before = m.data.copy()
    assert kernel_basis(m).basis.row_ints() == loop_kernel_rows(m)
    rng = np.random.default_rng(seed)
    x = int.from_bytes(rng.bytes(m.cols // 8 + 1), "little") & ((1 << m.cols) - 1)
    # 0, an image M x (always solvable) and a random right-hand side
    for b in [0, m.mul_vec_int(x), int(rng.integers(0, 1 << m.rows))]:
        assert solve(m, b) == loop_solve(m, b)
    assert np.array_equal(m.data, before)


@settings(max_examples=200, deadline=None)
@given(elim_arrays(), st.sampled_from(["rows", "rref", "kernel"]))
def test_subspace_accepts_exactly_independent_rows(d, source):
    """The end-bit certificate never accepts dependent rows: F2Subspace
    raises exactly when the dense reference rank falls short."""
    m = F2Matrix.from_dense(d)
    if source == "rref":
        m = rref(m)[0]
    elif source == "kernel":
        m = kernel_basis(m).basis
    independent = len(dense_rref(m.to_dense())[1]) == m.rows
    if source != "rows":
        assert independent and f2la._end_bits_distinct(m)
    assert not f2la._end_bits_distinct(m) or independent
    if independent:
        assert F2Subspace(m.cols, m).dim == m.rows
    else:
        with pytest.raises(ContainmentError):
            F2Subspace(m.cols, m)


def test_rank_is_computed_once_per_matrix():
    m = F2Matrix.from_dense([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    with pytest.MonkeyPatch.context() as mp:
        calls = []
        real = f2la.IncrementalSpan
        mp.setattr(f2la, "IncrementalSpan", lambda rows: calls.append(1) or real(rows))
        assert rank(m) == rank(m) == 2
        assert len(calls) == 1
        assert rank(F2Matrix.from_dense(m.to_dense())) == 2 and len(calls) == 2


@settings(max_examples=150, deadline=None)
@given(elim_arrays(), st.integers(0, 5), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_solve_matrix_matches_column_by_column_solve(d, n_image, n_random, seed):
    m = F2Matrix.from_dense(d)
    rng = np.random.default_rng(seed)
    # image columns M x are solvable; random columns may not be
    x = (rng.random((m.cols, n_image)) < 0.5).astype(np.uint8)
    cols = [(d.astype(np.int64) @ x) % 2, rng.integers(0, 2, (m.rows, n_random))]
    rhs = F2Matrix.from_dense(np.hstack(cols).reshape(m.rows, n_image + n_random))
    before = m.data.copy(), rhs.data.copy()
    expected = [solve(m, b) for b in rhs.transpose().row_ints()]
    got = solve_matrix(m, rhs)
    if None in expected:
        assert got is None
    else:
        assert (got.rows, got.cols) == (m.cols, rhs.cols)
        assert got.transpose().row_ints() == expected
    assert np.array_equal(m.data, before[0]) and np.array_equal(rhs.data, before[1])


def test_init_leaves_caller_array_writeable():
    data = np.zeros((2, 1), dtype=np.uint64)
    m = F2Matrix(2, 3, data)
    assert data.flags.writeable
    assert not m.data.flags.writeable
    data[0, 0] = 1  # the caller may still reuse its buffer


# -- strict alist parsing ----------------------------------------------


@settings(max_examples=150, deadline=None)
@given(dense_arrays(), st.booleans())
def test_alist_roundtrip_plain_and_padded(d, pad):
    m = alist_loads(dense_alist(d, pad=pad))
    assert np.array_equal(m.to_dense(), d)


def _sections(d: np.ndarray):
    """Token list of an unpadded alist text and the start of its row lists."""
    tokens = dense_alist(d).split()
    mm, n = d.shape
    return tokens, 4 + n + mm + int(d.sum())


@settings(max_examples=100, deadline=None)
@given(dense_arrays(), st.integers(1, 50))
def test_alist_truncated_row_lists(d, cut):
    assume(d.any())
    tokens, row_start = _sections(d)
    cut = min(cut, len(tokens) - row_start)
    with pytest.raises(AlistTruncated):
        alist_loads(" ".join(tokens[:-cut]))


@settings(max_examples=100, deadline=None)
@given(dense_arrays(), st.data())
def test_alist_row_lists_must_match_columns(d, data):
    assume(d.any() and d.shape[1] >= 2)
    tokens, row_start = _sections(d)
    pos = data.draw(st.integers(row_start, len(tokens) - 1))
    n = d.shape[1]
    new = data.draw(st.integers(1, n).filter(lambda j: str(j) != tokens[pos]))
    # the row holding token pos
    row = int(np.searchsorted(np.cumsum(d.sum(axis=1)), pos - row_start, side="right"))
    tokens[pos] = str(new)
    expected = AlistDuplicateIndex if d[row, new - 1] else AlistListsDisagree
    with pytest.raises(expected):
        alist_loads(" ".join(tokens))


@settings(max_examples=100, deadline=None)
@given(dense_arrays(), st.data())
def test_alist_degrees_must_match_header(d, data):
    tokens, _ = _sections(d)
    mm, n = d.shape
    pos = data.draw(st.integers(2, 3 + n + mm))
    tokens[pos] = str(int(tokens[pos]) + data.draw(st.sampled_from([-1, 1, 2])))
    with pytest.raises(AlistDegreeMismatch):
        alist_loads(" ".join(tokens))


@settings(max_examples=100, deadline=None)
@given(dense_arrays(), st.data())
def test_alist_index_out_of_range(d, data):
    assume(d.any())
    tokens, _ = _sections(d)
    mm, n = d.shape
    start = 4 + n + mm
    pos = data.draw(st.integers(start, len(tokens) - 1))
    bound = mm if pos < start + int(d.sum()) else n
    tokens[pos] = str(data.draw(st.sampled_from([-1, bound + 1, bound + 7])))
    with pytest.raises(AlistIndexOutOfRange):
        alist_loads(" ".join(tokens))


@settings(max_examples=100, deadline=None)
@given(dense_arrays(), st.lists(st.integers(1, 99), min_size=1, max_size=3))
def test_alist_trailing_tokens(d, extra):
    with pytest.raises(AlistTrailingTokens):
        alist_loads(dense_alist(d) + " ".join(map(str, extra)))


@pytest.mark.parametrize(
    "text, error",
    [
        ("", AlistTruncated),
        ("3 2 1", AlistTruncated),
        ("3 2\n1 2\n1 1", AlistTruncated),
        ("2 1\n1 x\n1 1\n2\n1\n1\n1 2\n", AlistError),
        ("-2 1\n1 2\n", AlistError),
        ("2 1\n1 2\n1 1\n2\n1\n1\n", AlistTruncated),  # row lists missing
        ("2 1\n1 2\n1 1\n2\n1\n1\n1\n", AlistTruncated),  # row list cut short
        ("2 1\n1 2\n1 1\n2\n1\n1\n1 1\n", AlistDuplicateIndex),
        ("2 1\n2 2\n1 1\n2\n1\n1\n1 2\n", AlistDegreeMismatch),
    ],
)
def test_alist_rejects_malformed(text, error):
    with pytest.raises(error):
        alist_loads(text)


def test_alist_index_error_is_a_dimension_mismatch():
    # callers that caught the out-of-range DimensionMismatch keep working
    with pytest.raises(DimensionMismatch):
        alist_loads("2 1\n1 2\n1 1\n2\n1\n3\n1 2\n")


def test_alist_accepts_mackay_padding():
    d = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=np.uint8)
    padded = dense_alist(d, pad=True)
    assert " 0" in padded
    assert np.array_equal(alist_loads(padded).to_dense(), d)


@settings(max_examples=200, deadline=None)
@given(dense_arrays(), st.booleans(), st.data())
def test_alist_corruption_raises_only_alist_errors(d, pad, data):
    tokens = dense_alist(d, pad=pad).split()
    pos = data.draw(st.integers(0, len(tokens)))
    op = data.draw(st.sampled_from(["replace", "delete", "insert"]))
    value = str(data.draw(st.integers(-2, 140)))
    if op == "insert":
        tokens.insert(pos, value)
    elif pos < len(tokens):
        if op == "delete":
            del tokens[pos]
        else:
            tokens[pos] = value
    try:
        m = alist_loads(" ".join(tokens))
    except AlistError:
        return
    assert (m.cols, m.rows) == (int(tokens[0]), int(tokens[1]))
