"""One-word matrices (at most 64 columns) against their zero-padded twins.

A matrix of at most 64 columns runs on Python-int rows; the same matrix
with zero columns appended past 64 runs on CSR and multi-word packed
rows. Every op must give the same rows, ranks, pivots, kernels and
solutions on both sides, whatever the row bound of the one-word rule.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpcodes import f2la
from bpcodes.errors import DimensionMismatch
from bpcodes.f2la import F2Matrix, kernel_basis, rank, rref, solve_matrix


@st.composite
def padded_pairs(draw, max_rows=70):
    """(rows, cols, wide, row_idx, col_idx, seed): entries of a matrix of
    cols <= 64 columns, listed with repeats so that some cancel, and a
    width wide >= 65 to pad it to."""
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, 64))
    wide = draw(st.integers(65, 140))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    count = int(rng.integers(0, rows * cols // 2 + 2)) if rows and cols else 0
    r = rng.integers(0, max(rows, 1), count)
    c = rng.integers(0, max(cols, 1), count)
    return rows, cols, wide, np.concatenate([r, r[: count // 4]]), np.concatenate([c, c[: count // 4]]), seed


def twins(rows, cols, wide, r, c):
    """The matrix and its zero-padded twin, both from the same entries."""
    return F2Matrix.from_entries(rows, cols, (r, c)), F2Matrix.from_entries(rows, wide, (r, c))


def random_twins(rng, rows, cols, wide):
    n = int(rng.integers(0, rows * cols + 1)) if rows and cols else 0
    return twins(rows, cols, wide, rng.integers(0, max(rows, 1), n), rng.integers(0, max(cols, 1), n))


bounds = st.sampled_from([0, 5, f2la._WORD_ROWS])


@settings(max_examples=150, deadline=None)
@given(padded_pairs(), bounds)
def test_entries_and_rows_agree_across_the_word_boundary(spec, bound):
    rows, cols, wide, r, c, seed = spec
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(f2la, "_WORD_ROWS", bound)
        m, w = twins(rows, cols, wide, r, c)
        ints = m.row_ints()
        assert ints == w.row_ints() == list(m.iter_row_ints()) == list(w.iter_row_ints())
        assert all(v >> cols == 0 for v in ints)
        assert [x.tolist() for x in m.nonzeros()] == [x.tolist() for x in w.nonzeros()]
        assert m.is_zero() == w.is_zero() == (not any(ints))
        assert F2Matrix.from_rows(ints, cols) == m
        assert F2Matrix.from_rows(ints, wide) == w
        assert m.to_dense().tolist() == w.to_dense()[:, :cols].tolist()
        t, tw = m.transpose(), w.transpose()
        assert (t.rows, t.cols, tw.rows, tw.cols) == (cols, rows, wide, rows)
        assert tw.row_ints() == t.row_ints() + [0] * (wide - cols)
        assert t.transpose() == m


@settings(max_examples=150, deadline=None)
@given(padded_pairs(), st.integers(0, 64), st.integers(65, 100), bounds)
def test_products_and_stacks_agree_across_the_word_boundary(spec, k, k_wide, bound):
    rows, cols, wide, r, c, seed = spec
    rng = np.random.default_rng(seed + 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(f2la, "_WORD_ROWS", bound)
        m, w = twins(rows, cols, wide, r, c)
        # the right factor: cols x k, and padded to wide x k_wide
        n = int(rng.integers(0, cols * k + 1)) if cols and k else 0
        br, bc = rng.integers(0, max(cols, 1), n), rng.integers(0, max(k, 1), n)
        b = F2Matrix.from_entries(cols, k, (br, bc))
        bw = F2Matrix.from_entries(wide, k_wide, (br, bc))
        assert m.matmul(b).row_ints() == w.matmul(bw).row_ints()
        assert m.matmul(b).cols == k
        # stacks, selections and equality
        m2, w2 = random_twins(rng, int(rng.integers(0, 70)), cols, wide)
        assert m.vstack(m2).row_ints() == w.vstack(w2).row_ints() == m.row_ints() + m2.row_ints()
        idx = rng.integers(0, max(rows, 1), int(rng.integers(0, 2 * rows + 1)) if rows else 0)
        assert m.submatrix_rows(idx).row_ints() == w.submatrix_rows(idx).row_ints()
        assert m.submatrix_rows(idx).row_ints() == [m.row_ints()[i] for i in idx]
        same = m2.rows == rows and m2.row_ints() == m.row_ints()
        assert (m == m2) == (w == w2) == same
        if rows and cols:  # one entry apart, in the last row
            flip = (np.append(r, rows - 1), np.append(c, cols - 1))
            assert m != F2Matrix.from_entries(rows, cols, flip)
            assert w != F2Matrix.from_entries(rows, wide, flip)
        assert m == F2Matrix._csr(rows, cols, *m._sparse())


@settings(max_examples=150, deadline=None)
@given(padded_pairs(), st.integers(0, 64), st.integers(65, 100), bounds)
def test_elimination_agrees_across_the_word_boundary(spec, k, k_wide, bound):
    rows, cols, wide, r, c, seed = spec
    rng = np.random.default_rng(seed + 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(f2la, "_WORD_ROWS", bound)
        m, w = twins(rows, cols, wide, r, c)
        assert rank(m) == rank(w)
        (e, piv), (ew, piv_w) = rref(m), rref(w)
        assert piv == piv_w and e.row_ints() == ew.row_ints() and e.cols == cols
        kern, kern_w = kernel_basis(m), kernel_basis(w)
        assert kern.dim == cols - rank(m)
        assert kern_w.basis.row_ints() == kern.basis.row_ints() + [1 << j for j in range(cols, wide)]
        assert m.matmul(kern.basis.transpose()).is_zero()
        # right-hand sides: images of m (solvable) beside random columns
        y = F2Matrix.from_dense(rng.integers(0, 2, (cols, k)))
        image = m.matmul(y).row_ints()
        noise = rng.integers(0, 2, (rows, k)) * (rng.random(k) < 0.3)
        rhs_rows = [v ^ int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")
                    for v, bits in zip(image, noise)]
        rhs, rhs_w = F2Matrix.from_rows(rhs_rows, k), F2Matrix.from_rows(rhs_rows, k_wide)
        x, x_w = solve_matrix(m, rhs), solve_matrix(w, rhs_w)
        assert (x is None) == (x_w is None)
        if x is not None:
            assert x.rows == cols and x.cols == k
            assert x_w.row_ints() == x.row_ints() + [0] * (wide - cols)
            assert m.matmul(x) == rhs
        if not noise.any():
            assert x is not None


# -- index checks -------------------------------------------------------


def sample(cols: int) -> F2Matrix:
    """3 x cols with ones at (0, 1), (1, 2) and (2, 4)."""
    return F2Matrix.from_entries(3, cols, [(0, 1), (1, 2), (2, 4)])


@pytest.mark.parametrize("cols", [5, 64, 65, 130])
@pytest.mark.parametrize(
    "row_perm, col_perm",
    [
        ([0, 0, 0], None),  # a repeated target would cancel entries
        ([0, 1], None),
        ([0, 1, 3], None),
        ([0, 1, -1], None),
        (None, "repeat"),
        (None, "short"),
    ],
)
def test_permuted_rejects_maps_that_are_not_permutations(cols, row_perm, col_perm):
    m = sample(cols)
    rows = [2, 0, 1] if row_perm is None else row_perm
    cp = list(range(cols))[::-1]
    if col_perm == "repeat":
        cp[0] = cp[1]
    elif col_perm == "short":
        cp = cp[:-1]
    with pytest.raises(DimensionMismatch):
        m.permuted(rows, cp)


def test_permuted_accepts_permutations_and_moves_entries():
    m = sample(5)
    got = m.permuted([2, 0, 1], [4, 3, 2, 1, 0])
    assert got.row_ints() == [1 << 2, 1 << 0, 1 << 3]


@pytest.mark.parametrize("cols", [5, 64, 65, 130])
@pytest.mark.parametrize("idx", [[-1], [3], [0, 1, 2, 3], [2, -3]])
def test_submatrix_rows_rejects_indices_outside_the_rows(cols, idx):
    with pytest.raises(DimensionMismatch):
        sample(cols).submatrix_rows(idx)


@pytest.mark.parametrize("cols", [5, 64, 65, 130])
def test_submatrix_rows_keeps_order_and_repeats(cols):
    m = sample(cols)
    assert m.submatrix_rows([2, 2, 0]).row_ints() == [1 << 4, 1 << 4, 1 << 1]
    assert m.submatrix_rows([]).rows == 0
