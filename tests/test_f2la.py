import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpcodes.errors import ContainmentError, DimensionMismatch
from bpcodes.f2la import (
    F2Matrix,
    F2Subspace,
    IncrementalSpan,
    alist_dumps,
    alist_loads,
    kernel_basis,
    quotient_dim,
    rank,
    read_alist,
    row_space,
    rref,
    solve,
    write_alist,
)

HAMMING_CHECK = [
    [0, 0, 0, 1, 1, 1, 1],
    [0, 1, 1, 0, 0, 1, 1],
    [1, 0, 1, 0, 1, 0, 1],
]


def random_matrix(rng, rows, cols):
    return F2Matrix.from_dense(rng.integers(0, 2, (rows, cols), dtype=np.uint8))


def test_rank_identity_and_zero():
    assert rank(F2Matrix.identity(3)) == 3
    assert rank(F2Matrix.zeros(4, 7)) == 0


def test_rank_hamming_check():
    # oracle: by-hand elimination of the binary-counting matrix gives 3
    assert rank(F2Matrix.from_dense(HAMMING_CHECK)) == 3


def test_kernel_dims():
    assert kernel_basis(F2Matrix.identity(5)).dim == 0
    assert kernel_basis(F2Matrix.zeros(3, 6)).dim == 6
    assert kernel_basis(F2Matrix.from_dense(HAMMING_CHECK)).dim == 4


def test_kernel_vectors_annihilate():
    m = F2Matrix.from_dense(HAMMING_CHECK)
    kb = kernel_basis(m)
    for v in kb.basis.row_ints():
        assert m.mul_vec_int(v) == 0


def test_kernel_deterministic():
    m = F2Matrix.from_dense(HAMMING_CHECK)
    assert kernel_basis(m).basis.row_ints() == kernel_basis(m).basis.row_ints()


def test_quotient_dim():
    full = row_space(F2Matrix.identity(4))
    zero = F2Subspace(4, F2Matrix.zeros(0, 4))
    assert quotient_dim(full, zero) == 4
    assert quotient_dim(full, full) == 0
    with pytest.raises(ContainmentError):
        quotient_dim(zero, full)


def test_solve_identity_and_zero():
    assert solve(F2Matrix.identity(4), 0b1010) == 0b1010
    assert solve(F2Matrix.zeros(3, 3), 0b001) is None
    assert solve(F2Matrix.zeros(3, 3), 0) == 0


def test_solve_hamming_syndrome():
    m = F2Matrix.from_dense(HAMMING_CHECK)
    # oracle: column 5 of the check matrix is the syndrome of the weight-1
    # error on bit 5
    syndrome = 0
    for i in range(3):
        if HAMMING_CHECK[i][5]:
            syndrome |= 1 << i
    x = solve(m, syndrome)
    assert x is not None and m.mul_vec_int(x) == syndrome


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 9))
def test_rank_equals_transpose_rank(seed, rows, cols):
    m = random_matrix(np.random.default_rng(seed), rows, cols)
    assert rank(m) == rank(m.transpose())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 9))
def test_rank_nullity(seed, rows, cols):
    m = random_matrix(np.random.default_rng(seed), rows, cols)
    assert rank(m) + kernel_basis(m).dim == m.cols


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 8))
def test_solve_consistency(seed, rows, cols):
    rng = np.random.default_rng(seed)
    m = random_matrix(rng, rows, cols)
    b = int(rng.integers(0, 1 << rows))
    x = solve(m, b)
    if x is None:
        # cross-check: augmenting must raise the rank
        aug = m.hstack(F2Matrix.from_rows([b], rows).transpose())
        assert rank(aug) == rank(m) + 1
    else:
        assert m.mul_vec_int(x) == b


def test_double_transpose_roundtrip():
    rng = np.random.default_rng(5)
    m = random_matrix(rng, 13, 70)
    assert m.transpose().transpose() == m


def test_matmul_associative_with_identity():
    rng = np.random.default_rng(6)
    m = random_matrix(rng, 9, 9)
    assert m.matmul(F2Matrix.identity(9)) == m
    assert F2Matrix.identity(9).matmul(m) == m


def test_alist_roundtrip(tmp_path):
    m = F2Matrix.from_dense(HAMMING_CHECK)
    path = tmp_path / "h.alist"
    write_alist(m, path)
    assert read_alist(path) == m
    assert alist_loads(alist_dumps(m)) == m


def test_rref_pivots_lowest_columns():
    m = F2Matrix.from_dense([[0, 1, 1], [0, 1, 0]])
    r, pivots = rref(m)
    assert pivots == [1, 2]


def test_incremental_span_matches_rank():
    rng = np.random.default_rng(8)
    rows = [int(rng.integers(0, 1 << 20)) for _ in range(15)]
    span = IncrementalSpan(rows)
    assert span.dim == rank(F2Matrix.from_rows(rows, 20))
    for v in rows:
        assert span.contains(v)


def test_from_rows_rejects_wide_rows():
    with pytest.raises(DimensionMismatch):
        F2Matrix.from_rows([0b1000], 3)
