"""Chain complexes over GF(2): homology, tensor products, total complexes.

Degree convention: differentials lower the degree by one. Cochain-side
quantities come from transposed differentials rather than a mirrored
type. Missing differentials at the ends of the degree range are implicit
zero maps.

Tensor-product cell bases are ordered lexicographically (left-factor
index major, right-factor index minor) and total-complex blocks by
decreasing left degree, so every product matrix is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegreeOutOfRange,
    KunnethViolation,
    NotChainComplex,
    NotDoubleComplex,
    NotTwoByTwo,
    TooSmall,
)
from .f2la import (
    F2Matrix,
    F2Subspace,
    IncrementalSpan,
    kernel_basis,
    rank,
    rref,
    solve_matrix,
)


class ChainComplex:
    """Graded GF(2) vector spaces with differentials d_i: C_i -> C_{i-1}."""

    def __init__(self, dims: dict[int, int], diffs: dict[int, F2Matrix], check: bool = True):
        self.dims = dict(dims)
        self.diffs = dict(diffs)
        self._zero_maps: dict[int, F2Matrix] = {}  # built on first use
        if not self.dims:
            raise NotChainComplex("empty complex")
        degs = sorted(self.dims)
        if degs != list(range(degs[0], degs[-1] + 1)):
            raise NotChainComplex("degree range is not contiguous")
        self.min_degree, self.max_degree = degs[0], degs[-1]
        for i, d in self.diffs.items():
            if i - 1 not in self.dims or i not in self.dims:
                raise NotChainComplex(f"differential at degree {i} leaves the range")
            if d.rows != self.dims[i - 1] or d.cols != self.dims[i]:
                raise NotChainComplex(
                    f"differential at degree {i} has shape {d.rows}x{d.cols}, "
                    f"expected {self.dims[i - 1]}x{self.dims[i]}"
                )
        if check:
            for i in self.diffs:
                if i - 1 in self.diffs:
                    if not self.diffs[i - 1].matmul(self.diffs[i]).is_zero():
                        raise NotChainComplex(f"d_{i-1} d_{i} != 0")

    def dim(self, i: int) -> int:
        return self.dims.get(i, 0)

    def differential(self, i: int) -> F2Matrix:
        """d_i; a missing one is a zero map, built once per complex."""
        d = self.diffs.get(i)
        if d is None:
            d = self._zero_maps.get(i)
            if d is None:
                d = self._zero_maps[i] = F2Matrix.zeros(self.dim(i - 1), self.dim(i))
        return d

    def degrees(self) -> range:
        return range(self.min_degree, self.max_degree + 1)

    def _require_degree(self, i: int) -> None:
        if i not in self.dims:
            raise DegreeOutOfRange(f"degree {i} outside [{self.min_degree}, {self.max_degree}]")

    def homology_dim(self, i: int) -> int:
        self._require_degree(i)
        return self.dim(i) - rank(self.differential(i)) - rank(self.differential(i + 1))

    def cohomology_dim(self, i: int) -> int:
        """Computed from transposed differentials; equals homology_dim."""
        self._require_degree(i)
        delta_out = self.differential(i + 1).transpose()  # C^i -> C^{i+1}
        delta_in = self.differential(i).transpose()  # C^{i-1} -> C^i
        return self.dim(i) - rank(delta_out) - rank(delta_in)

    def cycle_space(self, i: int) -> F2Subspace:
        self._require_degree(i)
        return kernel_basis(self.differential(i))

    def boundary_space(self, i: int) -> F2Subspace:
        self._require_degree(i)
        d = self.differential(i + 1)
        r, _ = rref(d.transpose())
        return F2Subspace(self.dim(i), r)

    def homology_basis(self, i: int) -> "HomologyBasis":
        """Cycle representatives spanning H_i, canonical given the bases.

        Boundary rows are spanned first; kernel vectors that extend the
        span become the class representatives, in kernel-basis order.
        """
        cycles = self.cycle_space(i)
        bounds = self.boundary_space(i)
        span = IncrementalSpan(bounds.basis.row_ints())
        reps = [v for v in cycles.basis.row_ints() if span.add(v)]
        rep_matrix = F2Matrix.from_rows(reps, self.dim(i))
        return HomologyBasis(i, F2Subspace(self.dim(i), rep_matrix), bounds)

    def euler_characteristic(self) -> int:
        return sum((-1) ** i * self.dim(i) for i in self.degrees())

    def shift(self, k: int) -> "ChainComplex":
        """Same complex with degrees translated by k."""
        return ChainComplex(
            {i + k: n for i, n in self.dims.items()},
            {i + k: d for i, d in self.diffs.items()},
            check=False,
        )


@dataclass(frozen=True)
class HomologyBasis:
    degree: int
    cycle_reps: F2Subspace
    boundary_space: F2Subspace

    @property
    def dim(self) -> int:
        return self.cycle_reps.dim


def one_complex(d: F2Matrix) -> ChainComplex:
    """The two-term complex C_1 --d--> C_0."""
    return ChainComplex({1: d.cols, 0: d.rows}, {1: d}, check=False)


def cycle_graph_complex(ell: int) -> ChainComplex:
    """Chain complex of the circle cellulated into ell edges and ell vertices.

    Accepts ell >= 2; the two-cell circle is a valid cell complex even
    though it is not a simple graph.
    """
    if ell < 2:
        raise TooSmall("need at least 2 cells on the circle")
    ones = []
    for i in range(ell):
        ones.append((i, i))
        ones.append(((i + 1) % ell, i))
    d = F2Matrix.from_entries(ell, ell, ones)
    return one_complex(d)


class DoubleComplex:
    """Commuting grid of spaces E_{p,q} with vertical maps (q -> q-1) and
    horizontal maps (p -> p-1)."""

    def __init__(
        self,
        grid: dict[tuple[int, int], int],
        vdiffs: dict[tuple[int, int], F2Matrix],
        hdiffs: dict[tuple[int, int], F2Matrix],
        check: bool = True,
    ):
        self.grid = dict(grid)
        self.vdiffs = dict(vdiffs)
        self.hdiffs = dict(hdiffs)
        self._zero_maps: dict[tuple[int, int], F2Matrix] = {}  # by shape, built on first use
        for (p, q), m in self.vdiffs.items():
            if m.rows != self.dim(p, q - 1) or m.cols != self.dim(p, q):
                raise NotDoubleComplex(f"vertical map at ({p},{q}) has a wrong shape")
        for (p, q), m in self.hdiffs.items():
            if m.rows != self.dim(p - 1, q) or m.cols != self.dim(p, q):
                raise NotDoubleComplex(f"horizontal map at ({p},{q}) has a wrong shape")
        if check:
            self._check_laws()

    def dim(self, p: int, q: int) -> int:
        return self.grid.get((p, q), 0)

    def vdiff(self, p: int, q: int) -> F2Matrix:
        m = self.vdiffs.get((p, q))
        return self._zero(self.dim(p, q - 1), self.dim(p, q)) if m is None else m

    def hdiff(self, p: int, q: int) -> F2Matrix:
        m = self.hdiffs.get((p, q))
        return self._zero(self.dim(p - 1, q), self.dim(p, q)) if m is None else m

    def _zero(self, rows: int, cols: int) -> F2Matrix:
        """The zero map of a shape, built once per double complex."""
        m = self._zero_maps.get((rows, cols))
        if m is None:
            m = self._zero_maps[(rows, cols)] = F2Matrix.zeros(rows, cols)
        return m

    def _check_laws(self) -> None:
        for (p, q) in self.grid:
            if self.dim(p, q) == 0:
                continue
            vv = self.vdiff(p, q - 1).matmul(self.vdiff(p, q))
            if not vv.is_zero():
                raise NotDoubleComplex(f"(d^v)^2 != 0 at ({p},{q})")
            hh = self.hdiff(p - 1, q).matmul(self.hdiff(p, q))
            if not hh.is_zero():
                raise NotDoubleComplex(f"(d^h)^2 != 0 at ({p},{q})")
            vh = self.vdiff(p - 1, q).matmul(self.hdiff(p, q))
            hv = self.hdiff(p, q - 1).matmul(self.vdiff(p, q))
            if vh != hv:
                raise NotDoubleComplex(f"square at ({p},{q}) does not commute")

    def cells(self) -> list[tuple[int, int]]:
        return sorted(self.grid)


def tensor_double_complex(c: ChainComplex, d: ChainComplex) -> DoubleComplex:
    """Tensor product grid: E_{p,q} = C_p (x) D_q.

    The horizontal map (lowering p) is d^C (x) id and the vertical map
    (lowering q) is id (x) d^D, so the left factor stretches out
    horizontally.
    """
    grid: dict[tuple[int, int], int] = {}
    for p in c.degrees():
        for q in d.degrees():
            grid[(p, q)] = c.dim(p) * d.dim(q)
    vdiffs: dict[tuple[int, int], F2Matrix] = {}
    hdiffs: dict[tuple[int, int], F2Matrix] = {}
    for p in c.degrees():
        for q in d.degrees():
            if grid[(p, q)] == 0:
                continue
            if c.dim(p - 1) and d.dim(q):
                hdiffs[(p, q)] = _kron(c.differential(p), F2Matrix.identity(d.dim(q)))
            if c.dim(p) and d.dim(q - 1):
                vdiffs[(p, q)] = _kron(F2Matrix.identity(c.dim(p)), d.differential(q))
    return DoubleComplex(grid, vdiffs, hdiffs, check=False)


def _kron(a: F2Matrix, b: F2Matrix) -> F2Matrix:
    """Kronecker product with left-factor-major index order."""
    ar, ac = a.nonzeros()
    br, bc = b.nonzeros()
    rows = (ar[:, None] * b.rows + br).ravel()
    cols = (ac[:, None] * b.cols + bc).ravel()
    return F2Matrix.from_entries(a.rows * b.rows, a.cols * b.cols, (rows, cols))


def total_complex(e: DoubleComplex) -> ChainComplex:
    """Collapse a double complex along antidiagonals; d = d^v + d^h.

    Degree-n blocks are laid out by decreasing p.
    """
    degrees = sorted({p + q for p, q in e.grid})
    full = range(min(degrees), max(degrees) + 1)
    blocks: dict[int, list[tuple[int, int]]] = {
        n: sorted(
            [(p, q) for (p, q) in e.grid if p + q == n and e.dim(p, q) > 0],
            key=lambda pq: -pq[0],
        )
        for n in full
    }
    offs: dict[tuple[int, int], int] = {}
    dims: dict[int, int] = {}
    for n in full:
        off = 0
        for pq in blocks[n]:
            offs[pq] = off
            off += e.dim(*pq)
        dims[n] = off
    diffs: dict[int, F2Matrix] = {}
    for n in full:
        if n - 1 not in dims or dims[n] == 0 or dims[n - 1] == 0:
            continue
        parts = [np.zeros((2, 0), dtype=np.int64)]
        for (p, q) in blocks[n]:
            src = offs[(p, q)]
            v = e.vdiff(p, q)
            if v.rows and (p, q - 1) in offs:
                parts.append(_shift_entries(v, offs[(p, q - 1)], src))
            h = e.hdiff(p, q)
            if h.rows and (p - 1, q) in offs:
                parts.append(_shift_entries(h, offs[(p - 1, q)], src))
        rows, cols = np.concatenate(parts, axis=1)
        diffs[n] = F2Matrix.from_entries(dims[n - 1], dims[n], (rows, cols))
    tot = ChainComplex(dims, diffs, check=True)
    return tot


def _shift_entries(m: F2Matrix, row_off: int, col_off: int) -> np.ndarray:
    """2 x nnz array of m's (row, col) entries moved to a block offset."""
    rows, cols = m.nonzeros()
    return np.stack([rows + row_off, cols + col_off])


def tensor_complex(c: ChainComplex, d: ChainComplex) -> ChainComplex:
    return total_complex(tensor_double_complex(c, d))


@dataclass(frozen=True)
class KunnethReport:
    degree: int
    total_dim: int
    sum_of_products: int
    terms: tuple[tuple[int, int, int], ...]  # (p, q, dim H_p(C) * dim H_q(D))

    @property
    def holds(self) -> bool:
        return self.total_dim == self.sum_of_products


def verify_kunneth(c: ChainComplex, d: ChainComplex) -> dict[int, KunnethReport]:
    """Check dim H_n(C (x) D) against the sum of products of factor
    homologies, for every degree n of the tensor complex.

    Both sides are computed independently; disagreement raises, since the
    identity is unconditional. Degrees outside the tensor complex's range
    hold trivially: both sides are 0 there.
    """
    tot = tensor_complex(c, d)
    hc = {p: c.homology_dim(p) for p in c.degrees()}
    hd = {q: d.homology_dim(q) for q in d.degrees()}
    reports = {}
    for n in tot.degrees():
        lhs = tot.homology_dim(n)
        terms = tuple((p, n - p, hc[p] * hd[n - p]) for p in hc if n - p in hd)
        rhs = sum(t for _, _, t in terms)
        if lhs != rhs:
            raise KunnethViolation(f"degree {n}: total {lhs} != sum {rhs}")
        reports[n] = KunnethReport(n, lhs, rhs, terms)
    return reports


def homology_2x2_via_pages(e: DoubleComplex) -> dict[int, int]:
    """Homology dimensions of Tot(E) in degrees 0..2 for a 2x2 grid,
    computed by taking vertical homology first and then the induced
    horizontal homology.

    Each degree is checked against the direct total-complex computation
    and the dimensions are returned by degree.
    """
    if any(p not in (0, 1) or q not in (0, 1) for (p, q) in e.grid):
        raise NotTwoByTwo("grid is not supported on {0,1} x {0,1}")

    vert: dict[tuple[int, int], HomologyBasis] = {}
    for p in (0, 1):
        col = ChainComplex(
            {1: e.dim(p, 1), 0: e.dim(p, 0)},
            {1: e.vdiff(p, 1)} if e.dim(p, 1) and e.dim(p, 0) else {},
            check=False,
        )
        for q in (0, 1):
            vert[(p, q)] = col.homology_basis(q)

    page: dict[tuple[int, int], int] = {}
    for q in (0, 1):
        induced = _induced_map(e, q, vert)
        page[(1, q)] = induced.cols - rank(induced)
        page[(0, q)] = induced.rows - rank(induced)

    tot = total_complex(e)
    dims = {}
    for n in (0, 1, 2):
        result = sum(page[(p, n - p)] for p in (0, 1) if n - p in (0, 1))
        direct = tot.homology_dim(n) if n in tot.dims else 0
        if result != direct:
            raise KunnethViolation(
                f"page computation {result} != total homology {direct} at degree {n}"
            )
        dims[n] = result
    return dims


def _induced_map(e: DoubleComplex, q: int, vert) -> F2Matrix:
    """Matrix of d^h on vertical homology H_q(E_{1,*}) -> H_q(E_{0,*})."""
    src: HomologyBasis = vert[(1, q)]
    dst: HomologyBasis = vert[(0, q)]
    h = e.hdiff(1, q)
    # coordinates of [h z] against (dst reps | dst boundaries), one column
    # per source representative z
    dst_matrix = dst.cycle_reps.basis.vstack(dst.boundary_space.basis).transpose()
    x = solve_matrix(dst_matrix, h.matmul(src.cycle_reps.basis.transpose()))
    if x is None:
        raise KunnethViolation("induced horizontal image is not a cycle")
    return x.submatrix_rows(np.arange(dst.dim))


def verify_euler(c: ChainComplex) -> bool:
    """Euler characteristic from chain dims equals the one from homology."""
    chain = c.euler_characteristic()
    hom = sum((-1) ** i * c.homology_dim(i) for i in c.degrees())
    return chain == hom
