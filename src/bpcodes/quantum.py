"""CSS and subsystem codes extracted from chain complexes.

Qubits sit on the chosen degree's cells; the X checks are the outgoing
differential and the Z checks the transpose of the incoming one, so
stabilizer commutation is the chain condition itself. Distances are exact
by enumeration where feasible (meet-in-the-middle over the boundary
space, or a Gray walk over the cycle space for subsystem codes) and are
otherwise reported as explicit (lower, upper) bound pairs, never as
exact values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import ChainComplex
from .errors import DegreeOutOfRange, DomainError, NoLogicals, TooLarge
from .f2la import F2Matrix, IncrementalSpan, kernel_basis, rank, rref
from .products import CircleProductInstance, HomologySplit

MITM_CAP_DIM = 30  # boundary-space dimension cap for meet-in-the-middle
GRAY_CAP_DIM = 26  # cycle-space dimension cap for the subsystem Gray walk


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


def exact_css_distance(code: CssCode, kind: str, cap_dim: int = MITM_CAP_DIM) -> int:
    """Exact minimum weight of a nontrivial logical operator.

    kind "z": minimum over ker H_X minus the row space of H_Z (homology
    representatives); kind "x" dually. Enumerates the 2^k logical
    combinations against the full boundary space via meet-in-the-middle,
    so it needs the boundary dimension at most cap_dim.
    """
    if code.k == 0:
        raise NoLogicals("code has no logical qubits")
    if kind == "z":
        cycles, bounds = kernel_basis(code.hx).basis, _row_basis(code.hz)
    elif kind == "x":
        cycles, bounds = kernel_basis(code.hz).basis, _row_basis(code.hx)
    else:
        raise DomainError("kind must be 'x' or 'z'")
    span = IncrementalSpan(bounds.row_ints())
    logical_reps = [v for v in cycles.row_ints() if span.add(v)]
    if len(logical_reps) != code.k:
        raise DomainError("logical representative extraction failed")
    if bounds.rows > cap_dim:
        raise TooLarge(f"boundary dimension {bounds.rows} exceeds cap {cap_dim}")
    if code.k > 24:
        raise TooLarge("too many logical classes to enumerate")
    return _min_weight_over_nontrivial_cosets(logical_reps, bounds, code.n)


def _row_basis(m: F2Matrix) -> F2Matrix:
    r, _ = rref(m)
    return r


def _pack_ints(vals: list[int], n_bits: int) -> np.ndarray:
    words = max(1, (n_bits + 63) // 64)
    out = np.zeros((len(vals), words), dtype=np.uint64)
    for i, v in enumerate(vals):
        out[i] = np.frombuffer(v.to_bytes(words * 8, "little"), dtype=np.uint64)
    return out


def _min_weight_over_nontrivial_cosets(
    logical_reps: list[int], bounds: F2Matrix, n: int
) -> int:
    """min over nonzero logical combos c of min over the boundary space of
    |c + b|, by meet-in-the-middle across a split of the boundary basis."""
    b_rows = bounds.row_ints()
    nb = len(b_rows)
    half = nb // 2
    left = _gray_span(b_rows[:half])
    right = _gray_span(b_rows[half:])
    left_arr = _pack_ints(left, n)
    right_arr = _pack_ints(right, n)
    best = n + 1
    k = len(logical_reps)
    for combo in range(1, 1 << k):
        base = 0
        cc = combo
        while cc:
            base ^= logical_reps[(cc & -cc).bit_length() - 1]
            cc &= cc - 1
        base_arr = _pack_ints([base], n)[0]
        shifted = left_arr ^ base_arr[None, :]
        chunk = max(1, (1 << 22) // max(1, right_arr.shape[0]))
        for start in range(0, shifted.shape[0], chunk):
            blk = shifted[start : start + chunk]
            w = np.bitwise_count(blk[:, None, :] ^ right_arr[None, :, :]).sum(axis=2)
            best = min(best, int(w.min()))
    return best


def _gray_span(rows: list[int]) -> list[int]:
    out = [0] * (1 << len(rows))
    cur = 0
    for i in range(1, 1 << len(rows)):
        cur ^= rows[(i & -i).bit_length() - 1]
        out[i] = cur
    return out


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
    from .products import homology_split

    if split is None:
        split = homology_split(inst)
    base = css_from_complex(inst.product.total, 1)
    if split.total_logical != base.k:
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
    cap_dim: int = GRAY_CAP_DIM,
    lower_bound: float | None = None,
    samples: int = 2000,
    seed: int = 0,
) -> DistanceResult:
    """Minimum weight over chains acting nontrivially on the logical part.

    Z side: cycles of the middle differential whose fiber sum is a nonzero
    base codeword. X side: cocycles pairing nontrivially with some
    horizontal representative. Exact by a Gray walk over the cycle space
    when its dimension is at most cap_dim, otherwise a (lower, upper)
    bound pair from the supplied formula bound and sampled representatives.
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

    if cycles.rows <= cap_dim:
        val = _gray_min_weight_detected(cycles, detect)
        return DistanceResult(value=val)

    rng = np.random.default_rng(seed)
    best_upper = None
    for _ in range(samples):
        coeffs = rng.integers(0, 2, cycles.rows)
        z = 0
        for i, c in enumerate(coeffs):
            if c:
                z ^= cycles.row_int(i)
        if z and detect.mul_vec_int(z) != 0:
            w = z.bit_count()
            if best_upper is None or w < best_upper:
                best_upper = w
    return DistanceResult(value=None, lower=lower_bound, upper=best_upper)


def bare_distance(code: SubsystemCssCode, kind: str, cap_dim: int = GRAY_CAP_DIM) -> int:
    """Minimum weight over representatives of nontrivial purely-logical
    classes (no gauge additions allowed); always at least the dressed
    distance."""
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
    if span_rows.rows > cap_dim:
        raise TooLarge("span too large for the Gray walk")
    return _gray_min_weight_detected(span_rows, detect)


def _gray_min_weight_detected(cycles: F2Matrix, detect: F2Matrix) -> int:
    """min |z| over the cycle span with detect(z) != 0, via a Gray walk that
    tracks the detector image incrementally."""
    k = cycles.rows
    imgs = [detect.mul_vec_int(cycles.row_int(i)) for i in range(k)]
    rows = cycles.row_ints()
    cur = 0
    cur_img = 0
    best = None
    for i in range(1, 1 << k):
        j = (i & -i).bit_length() - 1
        cur ^= rows[j]
        cur_img ^= imgs[j]
        if cur_img:
            w = cur.bit_count()
            if best is None or w < best:
                best = w
    if best is None:
        raise NoLogicals("no detected chain in the cycle space")
    return best


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
