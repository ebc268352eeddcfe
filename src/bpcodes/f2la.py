"""Exact linear algebra over GF(2) on sparse index arrays and packed words.

An ``F2Matrix`` holds its ones in one of two layouts. Structural results
(matrices built from entries, zero and identity maps, transposes,
products, sums, stacks, permutations, row selections) hold sorted CSR:
``indptr``, the int64 offsets of each row's entries, and ``indices``,
the int64 column indices of the ones, increasing within each row. Their
memory and cost follow the number of ones, never rows x cols, which is
what the differentials of LDPC complexes need. Dense matrices, the ones
elimination returns (RREF rows, kernel bases, solutions, homology
representatives) and those built by ``from_rows`` or ``from_dense``,
hold packed words ``data``: uint64, 64 entries per word, LSB-first, one
row of words per matrix row. Either layout is derived from the other on
demand and not kept, so ``data`` is valid on every matrix.

One-word matrices, whose rows fit one word (``cols <= 64``), run on
Python ints instead: their words are the column ``data[:, 0]``, read
with one ``tolist()`` and written with one ``np.array``. Row reads and
writes and the eliminations below take that path on the column count
alone. The structural ops (``zeros``, ``identity``, ``from_entries``,
``nonzeros``, ``transpose``, ``matmul``, ``vstack``, ``submatrix_rows``,
``==``) take it when the operands also have at most ``_WORD_ROWS`` rows,
and then return packed words; taller operands keep CSR and the
vectorised paths. The choice follows the operand shapes alone. In the
small verification suites about 94% of the GF(2) time was on one-word
matrices, where numpy's per-call overhead (10-140 us an op) outweighed
the work; on the lps(5,13) build about 1% was.

Elimination (``rank``, ``rref``, ``kernel_basis``, ``solve``,
``solve_matrix``) runs on rows held as Python-int bitsets, packed from
either layout one block of rows at a time (``iter_row_ints``): a forward
pass through ``IncrementalSpan`` pivots each row on its lowest set bit,
and one back-substitution pass yields the reduced echelon form. Its cost
follows the ones the rows carry, which stays low on sparse LDPC
differentials; large dense matrices are slower than a word-parallel
elimination would be. Pivots are the lowest-index nonzero columns, so
ranks, kernels and solutions are bit-reproducible across runs.

Also provides the MacKay "alist" sparse text format, in which code
bundles store their check matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
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

_WORD = 64
_ONE = np.uint64(1)
_PRODUCT_PAIRS = 1 << 19  # (row, col) pairs a matmul sorts at once (4 MB a key array)
_STREAM_BYTES = 1 << 20  # bytes of packed rows built at once by iter_row_blocks
_WORD_ROWS = 64  # rows up to which a one-word matrix runs on Python ints (see _one_word)


def _n_words(cols: int) -> int:
    return max(1, (cols + _WORD - 1) // _WORD)


def _one_word(rows: int, cols: int) -> bool:
    """Whether a rows x cols operand of a structural op runs on Python-int
    rows: each row fits one word and there are at most _WORD_ROWS rows.
    Python work grows with the ones, numpy's with its per-call overhead:
    a product of sparse one-word factors (2-4 ones a row, 14-64 columns)
    costs the same both ways at 64-128 rows, and at 512 rows the
    sorted-pair path is 2-3x faster (1.5x slower only for denser right
    factors)."""
    return cols <= _WORD and rows <= _WORD_ROWS


def _bit_masks(cols: np.ndarray) -> np.ndarray:
    """The single-bit word holding each (nonnegative int64) column index."""
    return np.left_shift(_ONE, cols.view(np.uint64) & np.uint64(_WORD - 1))


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Indices where a run of equal neighbours in the 1-d array ``a`` begins."""
    new = np.empty(len(a), dtype=bool)
    new[:1] = True
    np.not_equal(a[1:], a[:-1], out=new[1:])
    return np.flatnonzero(new)


def _odd_keys(key: np.ndarray) -> np.ndarray:
    """The values that occur an odd number of times in ``key``, sorted;
    ``key`` itself is sorted in place."""
    key.sort()
    edge = np.empty(len(key) + 1, dtype=bool)  # where a run starts, and the end
    edge[0] = edge[-1] = True
    np.not_equal(key[1:], key[:-1], out=edge[1:-1])
    if edge.all():
        return key
    edges = edge.nonzero()[0]
    odd = ((edges[1:] - edges[:-1]) & 1).astype(bool)
    return key[edges[:-1][odd]]


def _row_cuts(r: np.ndarray, first: np.ndarray, total: int) -> list[int]:
    """Offsets into the row-major ones ``r`` of a product's left factor
    that cut it into whole rows listing about _PRODUCT_PAIRS pairs each
    (more only when one row alone lists more)."""
    starts = _run_starts(r)
    before = np.append(first[starts], total)  # pairs listed before each row
    cuts, lo = [0], 0
    while lo < len(starts):
        hi = max(lo + 1, int(np.searchsorted(before, before[lo] + _PRODUCT_PAIRS, "right")) - 1)
        cuts.append(int(starts[hi]) if hi < len(starts) else len(r))
        lo = hi
    return cuts


def _packed_nonzeros(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-major (row, col) int64 index arrays of the set bits of packed
    words; only the nonzero words are unpacked."""
    wr, ww = data.nonzero()
    words = data[wr, ww]
    bits = np.unpackbits(words.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
    k, b = bits.nonzero()
    return wr[k], ww[k] * _WORD + b


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``; ``a`` itself stays writeable."""
    a = a.view()
    a.flags.writeable = False
    return a


class F2Matrix:
    """Immutable matrix over GF(2) in sorted CSR or in packed words.

    In packed words, bit j of row i is ``(data[i, j // 64] >> (j % 64)) & 1``
    and bits past ``cols`` are zero. In CSR, the ones of row i sit in the
    columns ``indices[indptr[i]:indptr[i + 1]]``, strictly increasing.
    """

    __slots__ = ("rows", "cols", "_data", "_indptr", "_indices", "_tcache", "_rank")

    def __init__(self, rows: int, cols: int, data: np.ndarray):
        """A matrix held in packed words ``data``, shape (rows, n_words)."""
        if data.shape != (rows, _n_words(cols)) or data.dtype != np.uint64:
            raise DimensionMismatch(
                f"packed data shape {data.shape} does not match {rows}x{cols}"
            )
        self.rows = rows
        self.cols = cols
        self._data = _frozen(data)
        self._indptr = self._indices = None

    @staticmethod
    def _csr(rows: int, cols: int, indptr: np.ndarray, indices: np.ndarray) -> "F2Matrix":
        """A matrix held in sorted CSR. The int64 arrays must be valid and
        new: they are made read-only in place."""
        m = object.__new__(F2Matrix)
        m.rows, m.cols, m._data, m._indptr, m._indices = rows, cols, None, indptr, indices
        indptr.flags.writeable = indices.flags.writeable = False
        return m

    @staticmethod
    def _from_keys(rows: int, cols: int, key: np.ndarray) -> "F2Matrix":
        """CSR from sorted, distinct row-major keys ``row * cols + col``."""
        r, c = np.divmod(key, max(cols, 1))
        return F2Matrix._csr(rows, cols, r.searchsorted(np.arange(rows + 1)), c)

    @staticmethod
    def _from_pairs(rows: int, cols: int, r: np.ndarray, c: np.ndarray) -> "F2Matrix":
        """CSR from in-range (row, col) index arrays; duplicates cancel."""
        return F2Matrix._from_keys(rows, cols, _odd_keys(r * max(cols, 1) + c))

    @staticmethod
    def _from_ints(int_rows: list[int], cols: int) -> "F2Matrix":
        """Packed words of bitset rows that fit ``cols`` columns, unchecked:
        one np.array call when a row fits one word."""
        if cols <= _WORD:
            m = object.__new__(F2Matrix)
            m.rows, m.cols, m._indptr, m._indices = len(int_rows), cols, None, None
            m._data = np.array(int_rows, dtype=np.uint64).reshape(-1, 1)
            m._data.flags.writeable = False
            return m
        width = _n_words(cols) * 8
        # fill one buffer row by row: no list of per-row byte strings
        raw = bytearray(len(int_rows) * width)
        for i, r in enumerate(int_rows):
            raw[i * width : (i + 1) * width] = r.to_bytes(width, "little")
        data = np.frombuffer(raw, dtype=np.uint64).reshape(len(int_rows), width // 8)
        return F2Matrix(len(int_rows), cols, data)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int) -> "F2Matrix":
        if _one_word(rows, cols):
            return F2Matrix._from_ints([0] * rows, cols)
        return F2Matrix._csr(rows, cols, np.zeros(rows + 1, dtype=np.int64), np.zeros(0, dtype=np.int64))

    @staticmethod
    def identity(n: int) -> "F2Matrix":
        if _one_word(n, n):
            return F2Matrix._from_ints([1 << i for i in range(n)], n)
        return F2Matrix._csr(n, n, np.arange(n + 1), np.arange(n))

    @staticmethod
    def from_dense(a) -> "F2Matrix":
        """Packed words of a 0/1 array."""
        a = np.asarray(a, dtype=np.uint8) % 2
        if a.ndim != 2:
            raise DimensionMismatch("expected a 2-d array")
        rows, cols = a.shape
        data = np.zeros((rows, _n_words(cols) * 8), dtype=np.uint8)
        if rows and cols:
            packed = np.packbits(a, axis=1, bitorder="little")
            data[:, : packed.shape[1]] = packed
        return F2Matrix(rows, cols, data.view(np.uint64))

    @staticmethod
    def from_rows(int_rows: list[int], cols: int) -> "F2Matrix":
        """Build packed words from Python ints used as little-endian bitsets."""
        int_rows = list(int_rows)
        if int_rows and (min(int_rows) < 0 or max(int_rows) >> cols):
            i = next(i for i, r in enumerate(int_rows) if r < 0 or r >> cols)
            raise DimensionMismatch(f"row {i} does not fit in {cols} columns")
        return F2Matrix._from_ints(int_rows, cols)

    @staticmethod
    def from_entries(rows: int, cols: int, ones) -> "F2Matrix":
        """Build from the positions holding a 1; duplicates cancel.

        ``ones`` is either a list of (row, col) pairs or a pair of integer
        index arrays ``(row_idx, col_idx)``.
        """
        if isinstance(ones, tuple) and len(ones) == 2 and isinstance(ones[0], np.ndarray):
            r = np.asarray(ones[0], dtype=np.int64)
            c = np.asarray(ones[1], dtype=np.int64)
        else:
            pairs = np.asarray(ones, dtype=np.int64).reshape(-1, 2)
            r, c = pairs[:, 0], pairs[:, 1]
        if r.shape != c.shape:
            raise DimensionMismatch("row and column index arrays differ in length")
        r, c = r.ravel(), c.ravel()
        # as uint64, a negative index is out of range too
        if len(r) and (r.view(np.uint64).max() >= rows or c.view(np.uint64).max() >= cols):
            bad = np.flatnonzero((r < 0) | (r >= rows) | (c < 0) | (c >= cols))
            i, j = int(r[bad[0]]), int(c[bad[0]])
            raise DimensionMismatch(f"entry ({i},{j}) outside {rows}x{cols}")
        if _one_word(rows, cols):
            words = np.zeros((rows, 1), dtype=np.uint64)
            np.bitwise_xor.at(words[:, 0], r, _bit_masks(c))
            return F2Matrix(rows, cols, words)
        return F2Matrix._from_pairs(rows, cols, r, c)

    # -- layouts ------------------------------------------------------

    def _sparse(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices), derived from packed words when not held."""
        if self._indices is not None:
            return self._indptr, self._indices
        r, c = _packed_nonzeros(self._data)
        return r.searchsorted(np.arange(self.rows + 1)), c

    @property
    def data(self) -> np.ndarray:
        """Packed words, shape (rows, n_words); built afresh for CSR."""
        if self._data is not None:
            return self._data
        return _frozen(self._packed(0, self.rows))

    def _packed(self, lo: int, hi: int) -> np.ndarray:
        """Packed words of rows lo..hi-1."""
        if self._data is not None:
            return self._data[lo:hi]
        nw = _n_words(self.cols)
        out = np.zeros((hi - lo, nw), dtype=np.uint64)
        ptr = self._indptr[lo : hi + 1]
        a, b = int(ptr[0]), int(ptr[-1])
        if a < b:
            # bit offset of each one in the block's row-major words
            pos = np.arange(0, (hi - lo) * nw * _WORD, nw * _WORD).repeat(ptr[1:] - ptr[:-1])
            pos += self._indices[a:b]
            np.bitwise_or.at(out.reshape(-1), pos >> 6, _bit_masks(pos))
        return out

    def iter_row_blocks(self):
        """Packed words of consecutive row blocks of about _STREAM_BYTES each."""
        per = max(1, _STREAM_BYTES // (_n_words(self.cols) * 8))
        for lo in range(0, self.rows, per):
            yield self._packed(lo, min(lo + per, self.rows))

    # -- accessors ----------------------------------------------------

    def row_int(self, i: int) -> int:
        return int.from_bytes(self._packed(i, i + 1).tobytes(), "little")

    def row_ints(self) -> list[int]:
        if self.cols <= _WORD:  # one tolist() of the words
            return (self._packed(0, self.rows) if self._data is None else self._data)[:, 0].tolist()
        return list(self.iter_row_ints())

    def iter_row_ints(self):
        """The rows as Python-int bitsets, in order, converted from one
        ``tolist()`` (one word a row) or ``tobytes()`` of each block of
        ``iter_row_blocks``."""
        width = _n_words(self.cols) * 8
        per = max(1, _STREAM_BYTES // 40)  # one-word rows a tolist() makes: 40 bytes an int in its list
        for block in self.iter_row_blocks():
            if width == 8:
                for lo in range(0, len(block), per):
                    yield from block[lo : lo + per, 0].tolist()
                continue
            buf = block.tobytes()
            for off in range(0, len(buf), width):
                yield int.from_bytes(buf[off : off + width], "little")

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols), dtype=np.uint8)
        out[self.nonzeros()] = 1
        return out

    def nonzeros(self) -> tuple[np.ndarray, np.ndarray]:
        """int64 (row, col) index arrays of the ones, in row-major order."""
        if self._indices is None:
            if _one_word(self.rows, self.cols):
                bits = np.unpackbits(self._data.view(np.uint8), axis=1, count=self.cols, bitorder="little")
                return bits.nonzero()
            return _packed_nonzeros(self._data)
        ptr = self._indptr
        return np.arange(self.rows).repeat(ptr[1:] - ptr[:-1]), self._indices

    def row_weights(self) -> np.ndarray:
        ptr = self._sparse()[0]
        return ptr[1:] - ptr[:-1]

    def col_weights(self) -> np.ndarray:
        return np.bincount(self._sparse()[1], minlength=self.cols)

    def is_zero(self) -> bool:
        if self._indices is None:
            return not self._data.any()
        return not len(self._indices)

    def __eq__(self, other) -> bool:
        if not (isinstance(other, F2Matrix) and (self.rows, self.cols) == (other.rows, other.cols)):
            return False
        if _one_word(self.rows, self.cols):
            return self.row_ints() == other.row_ints()
        (p, i), (q, j) = self._sparse(), other._sparse()
        return bool(np.array_equal(p, q) and np.array_equal(i, j))

    def __hash__(self):
        indptr, indices = self._sparse()
        return hash((self.rows, self.cols, indptr.tobytes(), indices.tobytes()))

    def __repr__(self) -> str:
        return f"F2Matrix({self.rows}x{self.cols})"

    # -- algebra ------------------------------------------------------

    def transpose(self) -> "F2Matrix":
        if _one_word(self.rows, self.cols) and _one_word(self.cols, self.rows):
            cols = [0] * self.cols
            for i, w in enumerate(self.row_ints()):
                bit = 1 << i
                while w:
                    low = w & -w
                    cols[low.bit_length() - 1] |= bit
                    w ^= low
            t = F2Matrix._from_ints(cols, self.rows)
        else:
            r, c = self.nonzeros()
            key = c * max(self.rows, 1) + r
            key.sort()
            t = F2Matrix._from_keys(self.cols, self.rows, key)
        t._rank = getattr(self, "_rank", None)  # rank(m^T) = rank(m)
        return t

    def add(self, other: "F2Matrix") -> "F2Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        (r1, c1), (r2, c2) = self.nonzeros(), other.nonzeros()
        return F2Matrix._from_pairs(self.rows, self.cols, np.concatenate([r1, r2]), np.concatenate([c1, c2]))

    def matmul(self, other: "F2Matrix") -> "F2Matrix":
        """Matrix product over GF(2): row i is the XOR of other's rows at the
        ones of row i. Every (row, col) pair of the expansion is listed and
        pairs met an even number of times cancel; at most about
        _PRODUCT_PAIRS pairs are listed at once, whole rows of self at a time."""
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        if _one_word(self.rows, self.cols) and _one_word(other.rows, other.cols):
            right = other.row_ints()
            out = []
            for w in self.row_ints():
                acc = 0
                while w:
                    low = w & -w
                    acc ^= right[low.bit_length() - 1]
                    w ^= low
                out.append(acc)
            return F2Matrix._from_ints(out, other.cols)
        ptr, idx = other._sparse()
        r, c = self.nonzeros()
        if not (len(r) and len(idx)):
            return F2Matrix.zeros(self.rows, other.cols)
        n = ptr[c + 1] - ptr[c]  # pairs listed for each one of self
        first = n.cumsum() - n  # position of each one's first pair
        total = int(first[-1] + n[-1])
        cuts = _row_cuts(r, first, total) if total > _PRODUCT_PAIRS else [0, len(r)]
        width = max(other.cols, 1)
        keys = []
        for a, b in zip(cuts[:-1], cuts[1:]):
            pos = np.arange(first[a], first[b - 1] + n[b - 1])
            cols = idx[(ptr[c[a:b]] - first[a:b]).repeat(n[a:b]) + pos]
            keys.append(_odd_keys(r[a:b].repeat(n[a:b]) * width + cols))
        key = keys[0] if len(keys) == 1 else np.concatenate(keys)
        return F2Matrix._from_keys(self.rows, other.cols, key)

    def mul_vec_int(self, x: int) -> int:
        """Apply to a column vector given as a bitset int; returns a bitset int."""
        acc = 0
        xi = x
        tdata = self._transposed_data()
        while xi:
            j = (xi & -xi).bit_length() - 1
            acc ^= tdata[j]
            xi &= xi - 1
        return acc

    def _transposed_data(self) -> list[int]:
        # lazy cache of columns-as-ints for repeated vector application
        cache = getattr(self, "_tcache", None)
        if cache is None:
            cache = self.transpose().row_ints()
            object.__setattr__(self, "_tcache", cache)
        return cache

    def hstack(self, other: "F2Matrix") -> "F2Matrix":
        if self.rows != other.rows:
            raise DimensionMismatch("hstack row mismatch")
        (r1, c1), (r2, c2) = self.nonzeros(), other.nonzeros()
        width = self.cols + other.cols
        key = np.concatenate([r1 * width + c1, r2 * width + (c2 + self.cols)])
        key.sort()
        return F2Matrix._from_keys(self.rows, width, key)

    def vstack(self, other: "F2Matrix") -> "F2Matrix":
        if self.cols != other.cols:
            raise DimensionMismatch("vstack column mismatch")
        if _one_word(self.rows, self.cols) and _one_word(other.rows, other.cols):
            return F2Matrix._from_ints(self.row_ints() + other.row_ints(), self.cols)
        (p, i), (q, j) = self._sparse(), other._sparse()
        return F2Matrix._csr(
            self.rows + other.rows, self.cols, np.concatenate([p, q[1:] + p[-1]]), np.concatenate([i, j])
        )

    def submatrix_rows(self, idx) -> "F2Matrix":
        """The rows at ``idx``, in its order, repeats allowed."""
        idx = np.asarray(idx, dtype=np.int64).reshape(-1)
        if len(idx) and not (0 <= idx.min() and idx.max() < self.rows):
            raise DimensionMismatch(f"row indices must lie in range({self.rows})")
        if _one_word(self.rows, self.cols):
            words = self.row_ints()
            return F2Matrix._from_ints([words[i] for i in idx.tolist()], self.cols)
        ptr, indices = self._sparse()
        n = ptr[idx + 1] - ptr[idx]
        out = np.zeros(len(idx) + 1, dtype=np.int64)
        np.cumsum(n, out=out[1:])
        pos = (ptr[idx] - out[:-1]).repeat(n) + np.arange(out[-1])
        return F2Matrix._csr(len(idx), self.cols, out, indices[pos])

    def permuted(self, row_perm, col_perm) -> "F2Matrix":
        """Rows and columns relocated: entry (i, j) moves to
        (row_perm[i], col_perm[j])."""
        rp = _permutation(row_perm, self.rows, "row")
        cp = _permutation(col_perm, self.cols, "column")
        r, c = self.nonzeros()
        return F2Matrix._from_pairs(self.rows, self.cols, rp[r], cp[c])


def _permutation(perm, n: int, what: str) -> np.ndarray:
    """``perm`` as an int64 array, checked to be a permutation of range(n)."""
    p = np.asarray(perm, dtype=np.int64)
    if p.shape != (n,) or (n and not (0 <= p.min() and p.max() < n)):
        raise DimensionMismatch(f"{what} map is not a permutation of range({n})")
    seen = np.zeros(n, dtype=bool)
    seen[p] = True
    if not seen.all():
        raise DimensionMismatch(f"{what} map is not a permutation of range({n})")
    return p


def _reduced_rows(rows) -> tuple[list[int], list[int]]:
    """Reduced echelon form of bitset rows: the nonzero rows by ascending
    pivot, and their pivots (each row's lowest set bit).

    A forward pass inserts every row into an ``IncrementalSpan``; one
    back-substitution pass from the highest pivot down then clears, in
    each row, the pivot bits of the rows above it.
    """
    echelon = IncrementalSpan(rows).pivots
    pivots = sorted(echelon)
    done = 0  # mask of the pivots whose rows are already reduced
    for p in reversed(pivots):
        v = echelon[p]
        hits = v & done
        while hits:
            low = hits & -hits
            v ^= echelon[low.bit_length() - 1]
            hits ^= low
        echelon[p] = v
        done |= 1 << p
    return [echelon[p] for p in pivots], pivots


def rank(m: F2Matrix) -> int:
    """Rank over GF(2), computed once per (immutable) matrix."""
    r = getattr(m, "_rank", None)
    if r is None:
        r = IncrementalSpan(m.iter_row_ints()).dim
        m._rank = r
    return r


def _end_bits_distinct(m: F2Matrix) -> bool:
    """A certificate that the rows are independent: their lowest set bits
    are pairwise distinct (as in echelon rows), or their highest set bits
    are (as in kernel vectors, each topped by its own free column). False
    when neither holds, and on any zero row."""
    rows = m.row_ints()
    if not all(rows):
        return False
    return len({v & -v for v in rows}) == len(rows) or len({v.bit_length() for v in rows}) == len(rows)


def rref(m: F2Matrix) -> tuple[F2Matrix, list[int]]:
    """Reduced row echelon form and the pivot columns (zero rows dropped)."""
    rows, pivots = _reduced_rows(m.iter_row_ints())
    return F2Matrix._from_ints(rows, m.cols), pivots


@dataclass(frozen=True)
class F2Subspace:
    """A subspace of GF(2)^ambient_dim spanned by independent row vectors."""

    ambient_dim: int
    basis: F2Matrix

    def __post_init__(self):
        if self.basis.cols != self.ambient_dim:
            raise DimensionMismatch("basis width does not match ambient dimension")
        if not _end_bits_distinct(self.basis) and rank(self.basis) != self.basis.rows:
            raise ContainmentError("basis rows are linearly dependent")

    @property
    def dim(self) -> int:
        return self.basis.rows

    def contains(self, v: int) -> bool:
        """Membership test for a vector given as a bitset int."""
        return IncrementalSpan(self.basis.iter_row_ints()).contains(v)

    def contains_space(self, other: "F2Subspace") -> bool:
        span = IncrementalSpan(self.basis.iter_row_ints())
        return all(span.contains(v) for v in other.basis.iter_row_ints())


def kernel_basis(m: F2Matrix) -> F2Subspace:
    """Basis of the right kernel {x : Mx = 0}, one vector per free column.

    The vector of free column f has bit f and, for each RREF row i, bit
    pivots[i] equal to entry (i, f). Derived from the reduced echelon
    form, so repeated runs are bit-identical; dimension is cols - rank.
    """
    if m.cols <= _WORD:
        rows, pivots = _reduced_rows(m.iter_row_ints())
        is_pivot = set(pivots)
        vectors = {f: 1 << f for f in range(m.cols) if f not in is_pivot}
        for p, v in zip(pivots, rows):
            v ^= 1 << p
            while v:  # the free columns of RREF row p
                low = v & -v
                vectors[low.bit_length() - 1] |= 1 << p
                v ^= low
        return F2Subspace(m.cols, F2Matrix._from_ints(list(vectors.values()), m.cols))
    r, pivots = rref(m)
    piv = np.asarray(pivots, dtype=np.int64)
    is_free = np.ones(m.cols, dtype=bool)
    is_free[piv] = False
    free = np.flatnonzero(is_free)
    data = np.zeros((len(free), _n_words(m.cols)), dtype=np.uint64)
    data[np.arange(len(free)), free // _WORD] = _bit_masks(free)
    # pivots are increasing, so the RREF rows whose pivots share an output
    # word are consecutive; gather their free-column bits word by word
    free_word, free_shift = free // _WORD, (free % _WORD).astype(np.uint64)
    piv_word = piv // _WORD
    starts = _run_starts(piv_word).tolist() + [len(piv)]
    for s, e in zip(starts[:-1], starts[1:]):
        bits = (r.data[s:e][:, free_word] >> free_shift) & _ONE
        placed = bits << (piv[s:e, None] % _WORD).astype(np.uint64)
        data[:, piv_word[s]] |= np.bitwise_or.reduce(placed, axis=0)
    return F2Subspace(m.cols, F2Matrix(len(free), m.cols, data))


def row_space(m: F2Matrix) -> F2Subspace:
    r, _ = rref(m)
    return F2Subspace(m.cols, r)


def quotient_dim(z: F2Subspace, b: F2Subspace) -> int:
    """dim Z - dim B for a containment B <= Z; raises if B is not inside Z."""
    if z.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("subspaces live in different ambient spaces")
    if not z.contains_space(b):
        raise ContainmentError("B is not contained in Z")
    return z.dim - b.dim


def _solve_rows(m: F2Matrix, rhs_rows: list[int]) -> dict[int, int] | None:
    """Eliminate [M | RHS] once; RHS row i is the bitset ``rhs_rows[i]``.

    Returns, for each pivot column p of M, row p of the solution X (a
    bitset over the right-hand columns; every free variable is zero), or
    None when a row with an all-zero M part keeps a right-hand bit.
    """
    shift = m.cols
    rows, pivots = _reduced_rows(v | (b << shift) for v, b in zip(m.iter_row_ints(), rhs_rows))
    if pivots and pivots[-1] >= shift:
        return None
    return {p: v >> shift for p, v in zip(pivots, rows)}


def solve(m: F2Matrix, b: int) -> int | None:
    """Any x with Mx = b (b, x as bitset ints), or None when unsolvable.

    The particular solution sets all free variables to zero, so it is
    deterministic.
    """
    if b >> m.rows:
        raise DimensionMismatch("right-hand side longer than row count")
    sol = _solve_rows(m, [(b >> i) & 1 for i in range(m.rows)])
    if sol is None:
        return None
    return sum(1 << p for p, bit in sol.items() if bit)


def solve_matrix(m: F2Matrix, rhs: F2Matrix) -> F2Matrix | None:
    """Solve M X = RHS in one elimination of [M | RHS]; None if any column
    is unsolvable. Free variables are zero, as in ``solve``."""
    if rhs.rows != m.rows:
        raise DimensionMismatch("rhs row count mismatch")
    sol = _solve_rows(m, rhs.row_ints())
    if sol is None:
        return None
    return F2Matrix._from_ints([sol.get(j, 0) for j in range(m.cols)], rhs.cols)


class IncrementalSpan:
    """Growing GF(2) row space with O(dim) membership/insert per vector.

    Vectors are bitset ints; pivots sit at each vector's lowest set bit
    after reduction.
    """

    def __init__(self, rows=()):
        self.pivots: dict[int, int] = {}
        pivots = self.pivots
        for v in rows:  # add(v) for each row, inlined
            while v:
                low = (v & -v).bit_length() - 1
                p = pivots.get(low)
                if p is None:
                    pivots[low] = v
                    break
                v ^= p

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def reduce(self, v: int) -> int:
        pivots = self.pivots
        while v:
            p = pivots.get((v & -v).bit_length() - 1)
            if p is None:
                return v
            v ^= p
        return 0

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def add(self, v: int) -> bool:
        """Insert if independent; returns True when the dimension grew."""
        v = self.reduce(v)
        if v == 0:
            return False
        self.pivots[(v & -v).bit_length() - 1] = v
        return True


# -- alist import/export ----------------------------------------------


def _index_lists(csr: tuple[np.ndarray, np.ndarray]) -> list[str]:
    """One line per row of a CSR pair: its 1-based column indices, space
    separated."""
    indptr, indices = csr
    words = (indices + 1).astype(str).tolist()
    bounds = indptr.tolist()
    return [" ".join(words[s:e]) for s, e in zip(bounds, bounds[1:])]


def alist_dumps(m: F2Matrix) -> str:
    """MacKay's alist format (first line: cols rows).

    Index lists are 1-based; shorter lists are not zero-padded.
    """
    col_deg, row_deg = m.col_weights(), m.row_weights()
    lines = [
        f"{m.cols} {m.rows}",
        f"{col_deg.max(initial=0)} {row_deg.max(initial=0)}",
        " ".join(col_deg.astype(str).tolist()),
        " ".join(row_deg.astype(str).tolist()),
    ]
    lines.extend(_index_lists(m.transpose()._sparse()))
    lines.extend(_index_lists(m._sparse()))
    return "\n".join(lines) + "\n"


def write_alist(m: F2Matrix, path) -> None:
    with open(path, "w") as f:
        f.write(alist_dumps(m))


def _alist_lists(tokens, pos, degs, max_deg, bound, what):
    """Read the block of index lists starting at ``pos``.

    Lists hold ``degs[k]`` entries each, either back to back or (MacKay's
    padded layout) each followed by zeros up to ``max_deg`` entries.
    Returns 0-based (list, index) pairs and the position after the block.
    """
    n_entries = int(degs.sum())
    padded = len(degs) * max_deg
    end = pos + n_entries
    idx = tokens[pos:end]
    if padded != n_entries and pos + padded <= len(tokens):
        grid = tokens[pos : pos + padded].reshape(len(degs), max_deg)
        in_list = np.arange(max_deg) < degs[:, None]
        if not grid[~in_list].any():
            idx, end = grid[in_list], pos + padded
    if end > len(tokens):
        raise AlistTruncated(
            f"{what} lists need {n_entries} entries, {len(tokens) - pos} remain"
        )
    bad = np.flatnonzero((idx < 1) | (idx > bound))
    if len(bad):
        raise AlistIndexOutOfRange(
            f"{what} lists hold index {int(idx[bad[0]])} outside 1..{bound}"
        )
    return np.repeat(np.arange(len(degs), dtype=np.int64), degs), idx - 1, end


def _entry_keys(rows, cols, n, what) -> np.ndarray:
    """Sorted row-major keys of the entries; an entry listed twice raises."""
    key = np.sort(rows * n + cols)
    dup = np.flatnonzero(key[1:] == key[:-1])
    if len(dup):
        i, j = divmod(int(key[dup[0]]), n)
        raise AlistDuplicateIndex(f"{what} lists hold entry ({i + 1},{j + 1}) twice")
    return key


def alist_loads(text: str) -> F2Matrix:
    """Parse an alist file strictly.

    Column and row lists must describe the same matrix, degrees must
    match the header and the lists, indices must be in range and nothing
    may follow the row lists. Lists may carry MacKay's zero padding.
    """
    try:
        tokens = np.array([int(t) for t in text.split()], dtype=np.int64)
    except (ValueError, OverflowError) as e:
        raise AlistError(f"alist tokens must be integers: {e}") from None
    if len(tokens) < 4:
        raise AlistTruncated("alist header needs four integers")
    n, mm, max_col, max_row = tokens[:4].tolist()
    if n < 0 or mm < 0:
        raise AlistError(f"negative matrix size {mm}x{n}")
    if len(tokens) < 4 + n + mm:
        raise AlistTruncated("alist degree lists are incomplete")
    col_deg = tokens[4 : 4 + n]
    row_deg = tokens[4 + n : 4 + n + mm]
    if col_deg.max(initial=0) != max_col or row_deg.max(initial=0) != max_row:
        raise AlistDegreeMismatch(
            f"header maximum degrees {max_col} {max_row} differ from the degree lists"
        )
    if (col_deg < 0).any() or (row_deg < 0).any():
        raise AlistDegreeMismatch("negative degree")
    if col_deg.sum() != row_deg.sum():
        raise AlistDegreeMismatch(
            f"column degrees sum to {col_deg.sum()}, row degrees to {row_deg.sum()}"
        )
    cols, rows, pos = _alist_lists(tokens, 4 + n + mm, col_deg, max_col, mm, "column")
    row_rows, row_cols, pos = _alist_lists(tokens, pos, row_deg, max_row, n, "row")
    if pos != len(tokens):
        raise AlistTrailingTokens(f"{len(tokens) - pos} tokens after the row lists")
    col_key = _entry_keys(rows, cols, n, "column")
    key = _entry_keys(row_rows, row_cols, n, "row")
    if not np.array_equal(col_key, key):
        raise AlistListsDisagree("row lists and column lists describe different matrices")
    return F2Matrix._from_keys(mm, n, key)


def read_alist(path) -> F2Matrix:
    with open(path, "rb") as f:
        raw = f.read()
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as e:
        raise AlistError(f"{path}: alist files are ASCII text ({e})") from None
    return alist_loads(text)
