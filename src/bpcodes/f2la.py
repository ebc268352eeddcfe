"""Exact linear algebra over GF(2) on bit-packed words and index arrays.

Matrices are stored bit-packed, 64 entries per machine word, as numpy
uint64 arrays (one row of words per matrix row, LSB-first within a word).
Structural operations (transpose, permutation, products, stacking) work
on those words and on the ``(row, col)`` int64 index arrays returned by
``F2Matrix.nonzeros``, built back with ``F2Matrix.from_entries``; their
cost follows the number of nonzero words and entries, never rows x cols.
``to_dense``/``from_dense`` convert small matrices to and from 0/1 arrays.

Elimination (``rank``, ``rref``, ``kernel_basis``, ``solve``,
``solve_matrix``) runs on rows held as Python-int bitsets: a forward pass
through ``IncrementalSpan`` pivots each row on its lowest set bit, and
one back-substitution pass yields the reduced echelon form. Its cost
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
_GATHER_WORDS = 1 << 18  # words of the temporary in one matmul gather (2 MB)
_STREAM_BYTES = 1 << 20  # bytes of packed rows read at once by iter_row_ints


def _n_words(cols: int) -> int:
    return max(1, (cols + _WORD - 1) // _WORD)


def _bit_masks(cols: np.ndarray) -> np.ndarray:
    """The single-bit word holding each column index."""
    return np.left_shift(_ONE, (cols & (_WORD - 1)).astype(np.uint64))


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Indices where a run of equal neighbours in the 1-d array ``a`` begins."""
    new = np.empty(len(a), dtype=bool)
    new[:1] = True
    np.not_equal(a[1:], a[:-1], out=new[1:])
    return np.flatnonzero(new)


class F2Matrix:
    """Immutable bit-packed matrix over GF(2).

    Entries live in ``data``, shape (rows, n_words) dtype uint64; bit j of
    row i is ``(data[i, j // 64] >> (j % 64)) & 1``. Bits past ``cols``
    are always zero.
    """

    __slots__ = ("rows", "cols", "data", "_tcache", "_rank")

    def __init__(self, rows: int, cols: int, data: np.ndarray):
        if data.shape != (rows, _n_words(cols)) or data.dtype != np.uint64:
            raise DimensionMismatch(
                f"packed data shape {data.shape} does not match {rows}x{cols}"
            )
        self.rows = rows
        self.cols = cols
        # freeze a view: the caller's own array stays writeable
        self.data = data.view()
        self.data.flags.writeable = False

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int) -> "F2Matrix":
        return F2Matrix(rows, cols, np.zeros((rows, _n_words(cols)), dtype=np.uint64))

    @staticmethod
    def identity(n: int) -> "F2Matrix":
        data = np.zeros((n, _n_words(n)), dtype=np.uint64)
        diag = np.arange(n)
        data[diag, diag // _WORD] = _bit_masks(diag)
        return F2Matrix(n, n, data)

    @staticmethod
    def from_dense(a) -> "F2Matrix":
        a = np.asarray(a, dtype=np.uint8) % 2
        if a.ndim != 2:
            raise DimensionMismatch("expected a 2-d array")
        rows, cols = a.shape
        if cols == 0 or rows == 0:
            return F2Matrix.zeros(rows, cols)
        packed = np.packbits(a, axis=1, bitorder="little")
        data = np.zeros((rows, _n_words(cols) * 8), dtype=np.uint8)
        data[:, : packed.shape[1]] = packed
        return F2Matrix(rows, cols, data.view(np.uint64))

    @staticmethod
    def from_rows(int_rows: list[int], cols: int) -> "F2Matrix":
        """Build from Python ints used as little-endian bitsets."""
        for i, r in enumerate(int_rows):
            if r < 0 or (cols < r.bit_length()):
                raise DimensionMismatch(f"row {i} does not fit in {cols} columns")
        width = _n_words(cols) * 8
        # fill one buffer row by row: no list of per-row byte strings
        raw = bytearray(len(int_rows) * width)
        for i, r in enumerate(int_rows):
            raw[i * width : (i + 1) * width] = r.to_bytes(width, "little")
        data = np.frombuffer(raw, dtype=np.uint64).reshape(len(int_rows), width // 8)
        return F2Matrix(len(int_rows), cols, data)

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
        bad = np.flatnonzero((r < 0) | (r >= rows) | (c < 0) | (c >= cols))
        if len(bad):
            i, j = int(r[bad[0]]), int(c[bad[0]])
            raise DimensionMismatch(f"entry ({i},{j}) outside {rows}x{cols}")
        data = np.zeros((rows, _n_words(cols)), dtype=np.uint64)
        np.bitwise_xor.at(data, (r, c // _WORD), _bit_masks(c))
        return F2Matrix(rows, cols, data)

    # -- accessors ----------------------------------------------------

    def get(self, i: int, j: int) -> int:
        return int(self.data[i, j // _WORD] >> np.uint64(j % _WORD)) & 1

    def row_int(self, i: int) -> int:
        return int.from_bytes(self.data[i].tobytes(), "little")

    def row_ints(self) -> list[int]:
        return list(self.iter_row_ints())

    def iter_row_ints(self):
        """The rows as Python-int bitsets, in order, converted from one
        ``tobytes()`` block of about _STREAM_BYTES at a time."""
        width = self.data.shape[1] * 8
        per = max(1, _STREAM_BYTES // width)
        for lo in range(0, self.rows, per):
            buf = self.data[lo : lo + per].tobytes()
            for off in range(0, len(buf), width):
                yield int.from_bytes(buf[off : off + width], "little")

    def to_dense(self) -> np.ndarray:
        if self.cols == 0:
            return np.zeros((self.rows, 0), dtype=np.uint8)
        bits = np.unpackbits(
            self.data.view(np.uint8), axis=1, bitorder="little", count=self.cols
        )
        return bits.astype(np.uint8)

    def nonzeros(self) -> tuple[np.ndarray, np.ndarray]:
        """int64 (row, col) index arrays of the ones, in row-major order.

        Only the nonzero words are unpacked.
        """
        wr, ww = np.nonzero(self.data)
        words = self.data[wr, ww]
        bits = np.unpackbits(words.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
        k, b = np.nonzero(bits)
        rows, cols = wr[k], ww[k] * _WORD + b
        return rows.astype(np.int64, copy=False), cols.astype(np.int64, copy=False)

    def row_weights(self) -> np.ndarray:
        return np.bitwise_count(self.data).sum(axis=1).astype(np.int64)

    def col_weights(self) -> np.ndarray:
        _, c = self.nonzeros()
        return np.bincount(c, minlength=self.cols).astype(np.int64)

    def is_zero(self) -> bool:
        return not self.data.any()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, F2Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and bool(np.array_equal(self.data, other.data))
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data.tobytes()))

    def __repr__(self) -> str:
        return f"F2Matrix({self.rows}x{self.cols})"

    # -- algebra ------------------------------------------------------

    def transpose(self) -> "F2Matrix":
        r, c = self.nonzeros()
        return F2Matrix.from_entries(self.cols, self.rows, (c, r))

    def add(self, other: "F2Matrix") -> "F2Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        return F2Matrix(self.rows, self.cols, self.data ^ other.data)

    def matmul(self, other: "F2Matrix") -> "F2Matrix":
        """Matrix product over GF(2): result[i] = XOR of other's rows selected by row i."""
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        out = np.zeros((self.rows, _n_words(other.cols)), dtype=np.uint64)
        r, c = self.nonzeros()
        if len(r):
            starts = _run_starts(r)
            # gather other's rows for whole rows of self, about _GATHER_WORDS
            # words at a time, so the temporary stays small on big products
            per = max(1, _GATHER_WORDS // other.data.shape[1])
            cuts = _run_starts(starts // per).tolist() + [len(starts)]
            bounds = starts.tolist() + [len(r)]
            for a, b in zip(cuts[:-1], cuts[1:]):
                lo, hi = bounds[a], bounds[b]
                out[r[starts[a:b]]] = np.bitwise_xor.reduceat(
                    other.data[c[lo:hi]], starts[a:b] - lo, axis=0
                )
        return F2Matrix(self.rows, other.cols, out)

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
        ones = (np.concatenate([r1, r2]), np.concatenate([c1, c2 + self.cols]))
        return F2Matrix.from_entries(self.rows, self.cols + other.cols, ones)

    def vstack(self, other: "F2Matrix") -> "F2Matrix":
        if self.cols != other.cols:
            raise DimensionMismatch("vstack column mismatch")
        return F2Matrix(
            self.rows + other.rows, self.cols, np.vstack([self.data, other.data])
        )

    def submatrix_rows(self, idx) -> "F2Matrix":
        idx = np.asarray(idx, dtype=np.int64)
        return F2Matrix(len(idx), self.cols, self.data[idx].copy())

    def permuted(self, row_perm, col_perm) -> "F2Matrix":
        """Rows and columns relocated: entry (i, j) moves to
        (row_perm[i], col_perm[j])."""
        r, c = self.nonzeros()
        rp = np.asarray(row_perm, dtype=np.int64)
        cp = np.asarray(col_perm, dtype=np.int64)
        return F2Matrix.from_entries(self.rows, self.cols, (rp[r], cp[c]))


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
    return F2Matrix.from_rows(rows, m.cols), pivots


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
        aug = F2Matrix.from_rows(self.basis.row_ints() + [v], self.ambient_dim)
        return rank(aug) == self.dim

    def contains_space(self, other: "F2Subspace") -> bool:
        stacked = self.basis.vstack(other.basis)
        return rank(stacked) == self.dim


def kernel_basis(m: F2Matrix) -> F2Subspace:
    """Basis of the right kernel {x : Mx = 0}, one vector per free column.

    The vector of free column f has bit f and, for each RREF row i, bit
    pivots[i] equal to entry (i, f). Derived from the reduced echelon
    form, so repeated runs are bit-identical; dimension is cols - rank.
    """
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
    return F2Matrix.from_rows([sol.get(j, 0) for j in range(m.cols)], rhs.cols)


class IncrementalSpan:
    """Growing GF(2) row space with O(dim) membership/insert per vector.

    Vectors are bitset ints; pivots sit at each vector's lowest set bit
    after reduction.
    """

    def __init__(self, rows=()):
        self.pivots: dict[int, int] = {}
        for v in rows:
            self.add(v)

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def reduce(self, v: int) -> int:
        while v:
            low = (v & -v).bit_length() - 1
            if low not in self.pivots:
                return v
            v ^= self.pivots[low]
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


def _index_lists(major: np.ndarray, minor: np.ndarray, n: int) -> list[str]:
    """One line per major index: its 1-based minor indices, space separated.

    ``major`` must be sorted and ``minor`` increasing within each major.
    """
    words = (minor + 1).astype(str).tolist()
    ends = np.cumsum(np.bincount(major, minlength=n)).tolist()
    starts = [0] + ends[:-1]
    return [" ".join(words[s:e]) for s, e in zip(starts, ends)]


def alist_dumps(m: F2Matrix) -> str:
    """MacKay's alist format (first line: cols rows).

    Index lists are 1-based; shorter lists are not zero-padded.
    """
    r, c = m.nonzeros()
    by_col = np.argsort(c, kind="stable")
    col_deg = np.bincount(c, minlength=m.cols)
    row_deg = np.bincount(r, minlength=m.rows)
    lines = [
        f"{m.cols} {m.rows}",
        f"{col_deg.max(initial=0)} {row_deg.max(initial=0)}",
        " ".join(col_deg.astype(str).tolist()),
        " ".join(row_deg.astype(str).tolist()),
    ]
    lines.extend(_index_lists(c[by_col], r[by_col], m.cols))
    lines.extend(_index_lists(r, c, m.rows))
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
    if not np.array_equal(
        _entry_keys(rows, cols, n, "column"), _entry_keys(row_rows, row_cols, n, "row")
    ):
        raise AlistListsDisagree("row lists and column lists describe different matrices")
    return F2Matrix.from_entries(mm, n, (rows, cols))


def read_alist(path) -> F2Matrix:
    with open(path, "rb") as f:
        raw = f.read()
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as e:
        raise AlistError(f"{path}: alist files are ASCII text ({e})") from None
    return alist_loads(text)
