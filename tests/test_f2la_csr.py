"""The CSR structural operations of f2la checked against the packed-word
operations they replaced.

The reference functions below are the packed implementations of
transpose, sums, products, stacking, row selection, permutation, Kronecker
products, weights, total complexes and alist output as they stood before
construction matrices moved to CSR. They act on (rows, n_words) uint64
arrays. Every CSR result must give the same packed words, byte for byte,
from operands in either layout.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpcodes import f2la
from bpcodes.complexes import DoubleComplex, _kron, total_complex
from bpcodes.f2la import F2Matrix, alist_dumps, alist_loads

WIDTHS = [0, 1, 2, 63, 64, 65, 130, 200]

# -- reference: the packed-word operations -----------------------------


def ref_words(cols: int) -> int:
    return max(1, (cols + 63) // 64)


def ref_from_entries(rows, cols, r, c) -> np.ndarray:
    data = np.zeros((rows, ref_words(cols)), dtype=np.uint64)
    masks = np.left_shift(np.uint64(1), (c & 63).astype(np.uint64))
    np.bitwise_xor.at(data, (r, c // 64), masks)
    return data


def ref_nonzeros(data: np.ndarray):
    wr, ww = np.nonzero(data)
    words = data[wr, ww]
    bits = np.unpackbits(words.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
    k, b = np.nonzero(bits)
    return wr[k].astype(np.int64), (ww[k] * 64 + b).astype(np.int64)


def ref_transpose(rows, cols, data):
    r, c = ref_nonzeros(data)
    return ref_from_entries(cols, rows, c, r)


def ref_matmul(a: np.ndarray, b: np.ndarray, b_cols: int) -> np.ndarray:
    """Row i of the product is the XOR of b's packed rows at row i's ones."""
    out = np.zeros((a.shape[0], ref_words(b_cols)), dtype=np.uint64)
    r, c = ref_nonzeros(a)
    if len(r):
        starts = np.flatnonzero(np.diff(r, prepend=-1))
        out[r[starts]] = np.bitwise_xor.reduceat(b[c], starts, axis=0)
    return out


def ref_hstack(rows, cols_a, a, cols_b, b):
    (r1, c1), (r2, c2) = ref_nonzeros(a), ref_nonzeros(b)
    return ref_from_entries(
        rows, cols_a + cols_b, np.concatenate([r1, r2]), np.concatenate([c1, c2 + cols_a])
    )


def ref_permuted(rows, cols, data, rp, cp):
    r, c = ref_nonzeros(data)
    return ref_from_entries(rows, cols, rp[r], cp[c])


def ref_kron(ar, ac, a, br, bc, b):
    (r1, c1), (r2, c2) = ref_nonzeros(a), ref_nonzeros(b)
    rows = (r1[:, None] * br + r2).ravel()
    cols = (c1[:, None] * bc + c2).ravel()
    return ref_from_entries(ar * br, ac * bc, rows, cols)


def ref_alist_dumps(rows, cols, data) -> str:
    r, c = ref_nonzeros(data)
    by_col = np.argsort(c, kind="stable")
    col_deg = np.bincount(c, minlength=cols)
    row_deg = np.bincount(r, minlength=rows)

    def lists(major, minor, n):
        words = (minor + 1).astype(str).tolist()
        ends = np.cumsum(np.bincount(major, minlength=n)).tolist()
        return [" ".join(words[s:e]) for s, e in zip([0] + ends[:-1], ends)]

    lines = [
        f"{cols} {rows}",
        f"{col_deg.max(initial=0)} {row_deg.max(initial=0)}",
        " ".join(col_deg.astype(str).tolist()),
        " ".join(row_deg.astype(str).tolist()),
    ]
    lines.extend(lists(c[by_col], r[by_col], cols))
    lines.extend(lists(r, c, rows))
    return "\n".join(lines) + "\n"


# -- strategies ----------------------------------------------------------


@st.composite
def specs(draw, rows=st.integers(0, 12), cols=st.sampled_from(WIDTHS)):
    """(rows, cols, row_idx, col_idx) with some entries listed two or three
    times, so that duplicates cancel."""
    r, c = draw(rows), draw(cols)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(0, 4 * (r + c))) if r and c else 0
    ri = rng.integers(0, max(r, 1), count)
    ci = rng.integers(0, max(c, 1), count)
    return r, c, np.concatenate([ri, ri[: count // 3], ri[:2]]), np.concatenate([ci, ci[: count // 3], ci[:2]])


def build(spec, packed: bool):
    """The matrix of ``spec`` in the chosen layout, and its reference words."""
    rows, cols, r, c = spec
    ref = ref_from_entries(rows, cols, r, c)
    m = F2Matrix(rows, cols, ref.copy()) if packed else F2Matrix.from_entries(rows, cols, (r, c))
    return m, ref


def same(m: F2Matrix, rows: int, cols: int, ref: np.ndarray) -> bool:
    """Shape, packed words and row-major entries all agree with the reference."""
    r, c = m.nonzeros()
    rr, rc = ref_nonzeros(ref)
    return (
        (m.rows, m.cols) == (rows, cols)
        and m.data.tobytes() == ref.tobytes()
        and m.data.shape == ref.shape
        and r.tolist() == rr.tolist()
        and c.tolist() == rc.tolist()
    )


layouts = st.booleans()

# -- CSR ops against the reference ----------------------------------------


@settings(max_examples=200, deadline=None)
@given(specs())
def test_from_entries_and_layouts_match_packed_reference(spec):
    rows, cols, _, _ = spec
    m, ref = build(spec, packed=False)
    assert same(m, rows, cols, ref)
    assert m.row_weights().tolist() == np.bitwise_count(ref).sum(axis=1).tolist()
    assert m.col_weights().tolist() == np.bincount(ref_nonzeros(ref)[1], minlength=cols).tolist()
    assert m.is_zero() == (not ref.any())
    ints = [int.from_bytes(row.tobytes(), "little") for row in ref]
    assert m.row_ints() == ints
    assert [m.row_int(i) for i in range(rows)] == ints
    assert b"".join(b.tobytes() for b in m.iter_row_blocks()) == ref.tobytes()


@settings(max_examples=200, deadline=None)
@given(specs(), layouts)
def test_transpose_matches_packed_reference(spec, packed):
    rows, cols, _, _ = spec
    m, ref = build(spec, packed)
    assert same(m.transpose(), cols, rows, ref_transpose(rows, cols, ref))


@settings(max_examples=200, deadline=None)
@given(specs(), layouts)
def test_transpose_carries_a_known_rank(spec, packed):
    """rank(m^T) = rank(m): a transpose taken once m is ranked holds the
    rank that a fresh elimination of its own rows gives."""
    m, _ = build(spec, packed)
    fresh = f2la.rank(m.transpose())  # m is not ranked yet: nothing to carry
    t = m.transpose()
    assert t._rank is None
    r = f2la.rank(m)
    carried = m.transpose()
    assert carried._rank == r == fresh
    assert carried.transpose()._rank == r


@settings(max_examples=200, deadline=None)
@given(specs(), st.integers(0, 2**32 - 1), layouts, layouts)
def test_add_and_equality_match_packed_reference(spec, seed, packed_a, packed_b):
    rows, cols, _, _ = spec
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 3 * (rows + cols) + 1)) if rows and cols else 0
    other = (rows, cols, rng.integers(0, max(rows, 1), n), rng.integers(0, max(cols, 1), n))
    (a, ra), (b, rb) = build(spec, packed_a), build(other, packed_b)
    assert same(a.add(b), rows, cols, ra ^ rb)
    assert (a == b) == bool(np.array_equal(ra, rb))
    twin = build(spec, not packed_a)[0]
    assert a == twin and hash(a) == hash(twin)
    assert a.add(twin).is_zero()


@settings(max_examples=200, deadline=None)
@given(
    specs(),
    st.sampled_from(WIDTHS),
    st.integers(0, 2**32 - 1),
    layouts,
    layouts,
    st.sampled_from([1, 2, 5, f2la._PRODUCT_PAIRS]),
)
def test_matmul_matches_packed_reference(spec, cols_b, seed, packed_a, packed_b, product_pairs):
    rows, cols, _, _ = spec
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 4 * (cols + cols_b) + 1)) if cols and cols_b else 0
    other = (cols, cols_b, rng.integers(0, max(cols, 1), n), rng.integers(0, max(cols_b, 1), n))
    (a, ra), (b, rb) = build(spec, packed_a), build(other, packed_b)
    # small pair budgets cut the product into many chunks of whole rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(f2la, "_PRODUCT_PAIRS", product_pairs)
        prod = a.matmul(b)
    assert same(prod, rows, cols_b, ref_matmul(ra, rb, cols_b))


@settings(max_examples=200, deadline=None)
@given(specs(), st.sampled_from(WIDTHS), st.integers(0, 12), st.integers(0, 2**32 - 1), layouts)
def test_stacks_match_packed_reference(spec, cols_b, rows_b, seed, packed):
    rows, cols, _, _ = spec
    rng = np.random.default_rng(seed)
    a, ra = build(spec, packed)
    n = int(rng.integers(0, 30)) if rows and cols_b else 0
    right = (rows, cols_b, rng.integers(0, max(rows, 1), n), rng.integers(0, max(cols_b, 1), n))
    b, rb = build(right, not packed)
    assert same(a.hstack(b), rows, cols + cols_b, ref_hstack(rows, cols, ra, cols_b, rb))
    n = int(rng.integers(0, 30)) if rows_b and cols else 0
    below = (rows_b, cols, rng.integers(0, max(rows_b, 1), n), rng.integers(0, max(cols, 1), n))
    b, rb = build(below, not packed)
    assert same(a.vstack(b), rows + rows_b, cols, np.vstack([ra, rb]))


@settings(max_examples=200, deadline=None)
@given(specs(), st.integers(0, 2**32 - 1), layouts)
def test_row_selection_and_permutation_match_packed_reference(spec, seed, packed):
    rows, cols, _, _ = spec
    rng = np.random.default_rng(seed)
    m, ref = build(spec, packed)
    # any row sequence: repeats, any order, or none at all
    idx = rng.integers(0, max(rows, 1), int(rng.integers(0, 2 * rows + 1)) if rows else 0)
    assert same(m.submatrix_rows(idx), len(idx), cols, ref[idx])
    rp, cp = rng.permutation(rows), rng.permutation(cols)
    assert same(m.permuted(rp, cp), rows, cols, ref_permuted(rows, cols, ref, rp, cp))


@settings(max_examples=150, deadline=None)
@given(
    specs(rows=st.integers(0, 5), cols=st.sampled_from([0, 1, 3, 65])),
    specs(rows=st.integers(0, 5), cols=st.sampled_from([0, 1, 2, 64])),
    layouts,
)
def test_kron_matches_packed_reference(spec_a, spec_b, packed):
    (a, ra), (b, rb) = build(spec_a, packed), build(spec_b, not packed)
    ar, ac, _, _ = spec_a
    br, bc, _, _ = spec_b
    assert same(_kron(a, b), ar * br, ac * bc, ref_kron(ar, ac, ra, br, bc, rb))


def ref_total_differentials(e: DoubleComplex) -> dict[int, np.ndarray]:
    """total_complex's differentials built with the packed reference: every
    block's entries shifted to its offsets, in decreasing-p block order."""
    degrees = sorted({p + q for p, q in e.grid})
    blocks = {
        n: sorted([pq for pq in e.grid if sum(pq) == n and e.dim(*pq)], key=lambda pq: -pq[0])
        for n in range(degrees[0], degrees[-1] + 1)
    }
    offs, dims = {}, {}
    for n, cells in blocks.items():
        off = 0
        for pq in cells:
            offs[pq], off = off, off + e.dim(*pq)
        dims[n] = off
    out = {}
    for n, cells in blocks.items():
        if n - 1 not in dims or not dims[n] or not dims[n - 1]:
            continue
        r_all, c_all = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        for p, q in cells:
            for m, dst in ((e.vdiff(p, q), (p, q - 1)), (e.hdiff(p, q), (p - 1, q))):
                if m.rows and dst in offs:
                    r, c = ref_nonzeros(m.data)
                    r_all.append(r + offs[dst])
                    c_all.append(c + offs[(p, q)])
        out[n] = ref_from_entries(dims[n - 1], dims[n], np.concatenate(r_all), np.concatenate(c_all))
    return out


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_total_complex_matches_packed_reference(seed):
    """A tensor square of random two-term complexes, each cell sheared by a
    random invertible matrix, so every block of the total differentials is
    a general sparse matrix."""
    from bpcodes.verify import _random_2x2

    e = _random_2x2(np.random.default_rng(seed))
    tot = total_complex(e)
    ref = ref_total_differentials(e)
    assert sorted(tot.diffs) == sorted(ref)
    for n, d in tot.diffs.items():
        assert same(d, tot.dim(n - 1), tot.dim(n), ref[n])


@settings(max_examples=200, deadline=None)
@given(specs(), layouts)
def test_alist_matches_packed_reference(spec, packed):
    rows, cols, _, _ = spec
    m, ref = build(spec, packed)
    text = alist_dumps(m)
    assert text == ref_alist_dumps(rows, cols, ref)
    assert same(alist_loads(text), rows, cols, ref)


# -- memory held by a product instance ---------------------------------


def test_product_instance_matrices_stay_sparse():
    """The matrices an lps(5,13) circle product holds (Tanner differential,
    quotient-base differential, double-complex maps, total differentials)
    take memory in proportion to their ones: under 8 MB in all, measured
    by tracemalloc as the live allocations made in f2la. Held as packed
    words they took about 34 MB."""
    from bpcodes.pipeline import Recipe, build_instance
    from bpcodes.products import circle_balanced_product

    tracemalloc.start()
    try:
        tanner, action, _ = build_instance(Recipe(p=5, q=13))
        inst = circle_balanced_product(tanner, action)
        snap = tracemalloc.take_snapshot().filter_traces([tracemalloc.Filter(True, f2la.__file__)])
    finally:
        tracemalloc.stop()
    held = sum(s.size for s in snap.statistics("filename"))
    assert inst.product.total.dim(1) == 10920
    assert held < 8 * 2**20, f"{held / 2**20:.1f} MB of matrices"
