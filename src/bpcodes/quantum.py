"""CSS and subsystem codes extracted from chain complexes.

Qubits sit on the chosen degree's cells; the X checks are the outgoing
differential and the Z checks the transpose of the incoming one, so
stabilizer commutation is the chain condition itself. Distances are exact
by enumeration up to ENUMERATION_CAP spanning rows (one information-set
enumerator, shared with the classical distances); dressed distances above
the cap are reported as explicit (lower, upper) bound pairs, never as
exact values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import ENUMERATION_CAP, _min_detected_weight
from .complexes import ChainComplex
from .errors import DegreeOutOfRange, DomainError, NoLogicals
from .f2la import F2Matrix, IncrementalSpan, kernel_basis, rank, rref
from .products import CircleProductInstance, HomologySplit, homology_split

SAMPLED_DRAWS = 2000  # random cycle combinations behind a sampled upper bound
SAMPLED_SEED = 0


@dataclass(frozen=True)
class CssCode:
    n: int
    hx: F2Matrix
    hz: F2Matrix
    k: int
    dx: int | None = None
    dz: int | None = None

    def __post_init__(self):
        if self.hx.cols != self.n or self.hz.cols != self.n:
            raise DomainError("check width differs from qubit count")
        if not self.hx.matmul(self.hz.transpose()).is_zero():
            raise DomainError("X and Z stabilizers do not commute")
        if self.k != self.n - rank(self.hx) - rank(self.hz):
            raise DomainError("logical count bookkeeping inconsistent")


def css_from_complex(cx: ChainComplex, i: int) -> CssCode:
    """CSS code with qubits on the degree-i cells.

    X checks are d_i, Z checks the transpose of d_{i+1}; missing
    differentials act as zero maps, so 2-term complexes give classical
    codes in quantum clothing.
    """
    if i not in cx.dims:
        raise DegreeOutOfRange(f"degree {i} not in the complex")
    hx = cx.differential(i)
    hz = cx.differential(i + 1).transpose()
    n = cx.dim(i)
    k = n - rank(hx) - rank(hz)
    return CssCode(n=n, hx=hx, hz=hz, k=k)


def exact_css_distance(code: CssCode, kind: str) -> int:
    """Exact minimum weight of a nontrivial logical operator.

    kind "z": minimum over ker H_X minus the row space of H_Z (homology
    representatives); kind "x" dually. Enumerates the span of the k
    logical representatives and a boundary basis, counting a word when its
    logical part is nonzero, so it needs k plus the boundary dimension at
    most ENUMERATION_CAP; raises TooLarge above that.
    """
    if code.k == 0:
        raise NoLogicals("code has no logical qubits")
    if kind == "z":
        cycles, bounds = kernel_basis(code.hx).basis, rref(code.hz)[0]
    elif kind == "x":
        cycles, bounds = kernel_basis(code.hz).basis, rref(code.hx)[0]
    else:
        raise DomainError("kind must be 'x' or 'z'")
    span = IncrementalSpan(bounds.row_ints())
    logical_reps = [v for v in cycles.row_ints() if span.add(v)]
    if len(logical_reps) != code.k:
        raise DomainError("logical representative extraction failed")
    images = [1 << i for i in range(code.k)] + [0] * bounds.rows
    return _min_detected_weight(logical_reps + bounds.row_ints(), images, code.n)


# -- subsystem codes ---------------------------------------------------------


@dataclass(frozen=True)
class SubsystemCssCode:
    """CSS code whose middle homology splits into logical and gauge parts.

    The logical Z classes are the horizontal ones; gauge operators (the
    vertical classes) may be added freely when minimizing dressed
    distances.
    """

    base: CssCode
    split: HomologySplit
    instance: CircleProductInstance

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def num_logical(self) -> int:
        return self.split.dim_h

    @property
    def num_gauge(self) -> int:
        return self.split.dim_v


def subsystem_from_split(
    inst: CircleProductInstance, split: HomologySplit | None = None
) -> SubsystemCssCode:
    if split is None:
        split = homology_split(inst)
    base = css_from_complex(inst.product.total, 1)
    if split.dim_h + split.dim_v != base.k:
        raise DomainError("split classes disagree with the homology dimension")
    return SubsystemCssCode(base=base, split=split, instance=inst)


@dataclass(frozen=True)
class DistanceResult:
    value: int | None  # exact distance when found
    lower: float | None = None  # formula bound when not exact
    upper: int | None = None  # best sampled representative weight

    @property
    def exact(self) -> bool:
        return self.value is not None


def dressed_distance(
    code: SubsystemCssCode,
    kind: str,
    lower_bound: float | None = None,
) -> DistanceResult:
    """Minimum weight over chains acting nontrivially on the logical part.

    Z side: cycles of the middle differential whose fiber sum is a nonzero
    base codeword. X side: cocycles pairing nontrivially with some
    horizontal representative. Exact by enumerating the cycle space when
    its dimension is at most ENUMERATION_CAP, otherwise a (lower, upper)
    bound pair from the supplied formula bound and SAMPLED_DRAWS random
    cycle combinations.
    """
    tot = code.instance.product.total
    if kind == "z":
        cycles = kernel_basis(tot.differential(1)).basis
        detect = code.split.fiber_sum
    elif kind == "x":
        cycles = kernel_basis(tot.differential(2).transpose()).basis
        detect = code.split.h_reps
    else:
        raise DomainError("kind must be 'x' or 'z'")
    if code.num_logical == 0:
        raise NoLogicals("no logical classes to protect")

    if cycles.rows <= ENUMERATION_CAP:
        return DistanceResult(value=_min_detected_weight_of(cycles, detect))

    rng = np.random.default_rng(SAMPLED_SEED)
    rows = cycles.row_ints()
    best_upper = None
    for _ in range(SAMPLED_DRAWS):
        coeffs = rng.integers(0, 2, cycles.rows)
        z = 0
        for row, c in zip(rows, coeffs):
            if c:
                z ^= row
        if z and detect.mul_vec_int(z) != 0:
            w = z.bit_count()
            if best_upper is None or w < best_upper:
                best_upper = w
    return DistanceResult(value=None, lower=lower_bound, upper=best_upper)


def bare_distance(code: SubsystemCssCode, kind: str) -> int:
    """Minimum weight over representatives of nontrivial purely-logical
    classes (no gauge additions allowed); always at least the dressed
    distance. Raises TooLarge above ENUMERATION_CAP spanning rows."""
    tot = code.instance.product.total
    split = code.split
    if kind == "z":
        span_rows = split.h_reps.vstack(tot.boundary_space(1).basis)
        detect = split.fiber_sum
    elif kind == "x":
        # logical cochain classes: base cochains spread over the whole fiber
        # (the rows of the fiber-sum map), modulo coboundaries (rows of the
        # middle differential read as cochains)
        span_rows = split.fiber_sum.vstack(tot.differential(1))
        detect = split.h_reps
    else:
        raise DomainError("kind must be 'x' or 'z'")
    return _min_detected_weight_of(span_rows, detect)


def _min_detected_weight_of(rows: F2Matrix, detect: F2Matrix) -> int:
    """min |z| over the row span with detect(z) != 0."""
    ints = rows.row_ints()
    return _min_detected_weight(ints, [detect.mul_vec_int(r) for r in ints], rows.cols)


# -- formula bounds -----------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """The closed-form parameter bounds for a circle product instance.

    Mirrors the printed four-term X-distance minimum verbatim (its first
    term never beats the second; kept anyway). ``n_formula`` assumes one
    local check per edge endpoint pair, i.e. s rows per vertex; the
    constructed middle dimension is smaller when the local checks are
    reduced, and is reported alongside.
    """

    alpha_ho: float
    beta_ho: float
    alpha_co: float
    beta_co: float
    s: int
    ell: int
    n_edges: int
    n_vertices: int
    k_local: int
    n_formula: int
    n_constructed: int
    k_lower: float
    dz_lower: float
    dx_lower: float


def pk_bounds(
    *,
    alpha_ho: float,
    beta_ho: float,
    alpha_co: float,
    beta_co: float,
    s: int,
    ell: int,
    n_edges: int,
    n_vertices: int,
    k_local: int,
    n_constructed: int | None = None,
) -> BoundReport:
    """Evaluate the subsystem-code parameter bounds from expansion data."""
    for name, v in (
        ("alpha_ho", alpha_ho),
        ("beta_ho", beta_ho),
        ("alpha_co", alpha_co),
        ("beta_co", beta_co),
    ):
        if v < 0:
            raise DomainError(f"{name} must be nonnegative")
    if s <= 0 or ell <= 0 or n_edges <= 0 or n_vertices <= 0:
        raise DomainError("sizes must be positive")
    dz = n_edges * min(alpha_ho / 2, alpha_ho * beta_ho / 4)
    dx = min(
        alpha_co * n_edges,
        alpha_co * n_edges / 2,
        ell * alpha_co / (4 * s),
        ell * alpha_co * beta_co / (4 * s),
    )
    k_low = (2 * k_local / s - 1) * n_edges / ell
    return BoundReport(
        alpha_ho=alpha_ho,
        beta_ho=beta_ho,
        alpha_co=alpha_co,
        beta_co=beta_co,
        s=s,
        ell=ell,
        n_edges=n_edges,
        n_vertices=n_vertices,
        k_local=k_local,
        n_formula=3 * n_edges,
        n_constructed=n_constructed if n_constructed is not None else 3 * n_edges,
        k_lower=k_low,
        dz_lower=dz,
        dx_lower=dx,
    )


def ldpc_check(hx: F2Matrix, hz: F2Matrix) -> tuple[int, int]:
    """(max stabilizer weight, max qubit degree) across both check types."""
    row_max = 0
    col_max = 0
    for m in (hx, hz):
        if m.rows:
            row_max = max(row_max, int(m.row_weights().max()))
    qubit_deg = np.zeros(hx.cols, dtype=np.int64)
    for m in (hx, hz):
        if m.rows:
            qubit_deg += m.col_weights()
    col_max = int(qubit_deg.max()) if len(qubit_deg) else 0
    return row_max, col_max
