"""Tanner code complexes on labeled regular graphs.

The complex has graph edges in degree 1 and one block of reduced local
checks per vertex in degree 0: the boundary of an edge deposits the
check-matrix column selected by the edge's label at each endpoint. The
kernel of the differential is exactly the set of edge assignments that
look like a local codeword around every vertex.

Local checks are row-reduced before use so each vertex contributes
independent constraints; this is what makes the coboundary expansion
statement (every check pattern has many incident bits) true vertexwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import LinearCode, dual_distance, exact_distance
from .complexes import ChainComplex, one_complex
from .errors import DegreeMismatch, DomainError
from .f2la import F2Matrix
from .graphs import LabeledGraph, edge_to_vertex_beta, second_eigenvalue


@dataclass(frozen=True)
class TannerComplex:
    graph: LabeledGraph
    local: LinearCode
    local_check: F2Matrix  # reduced, full row rank, shape c x s
    complex: ChainComplex
    labeling_note: str = "canonical"

    @property
    def n_edges(self) -> int:
        return self.graph.n_edges

    @property
    def checks_per_vertex(self) -> int:
        return self.local_check.rows

    def differential(self) -> F2Matrix:
        return self.complex.differential(1)

    def code_dimension(self) -> int:
        return self.complex.homology_dim(1)


def build_tanner(
    x: LabeledGraph, local: LinearCode, labeling_note: str = "canonical"
) -> TannerComplex:
    """Tanner complex of a labeled s-regular graph and an [s,k,d] local code."""
    if local.n != x.s:
        raise DegreeMismatch(
            f"graph degree {x.s} differs from local block length {local.n}"
        )
    hc = local.reduced_check()
    c = hc.rows
    # check row i at endpoint w of edge e is set where row i of hc hits the label there
    i, e, side = np.nonzero(hc.to_dense()[:, x.labels])
    d = F2Matrix.from_entries(x.n * c, x.n_edges, (x.edges[e, side] * c + i, e))
    t = TannerComplex(x, local, hc, one_complex(d), labeling_note)
    # rate floor: the k of the global code never drops below the counting bound
    k = t.code_dimension()
    if k < rate_lower_bound(x, local):
        raise DomainError("Tanner code dimension fell below the counting bound")
    return t


def rate_lower_bound(x: LabeledGraph, local: LinearCode) -> int:
    """(2 k_L / s - 1) |X^1|, the constraint-counting bound on the dimension."""
    return math.ceil((2 * local.k / x.s - 1) * x.n_edges)


def sipser_spielman_bound(
    x: LabeledGraph, local: LinearCode, lam2: float | None = None
) -> float:
    """(d_L - lam2) d_L / ((s - lam2) s) * |X^1|; meaningful when d_L > lam2."""
    if local.d is None:
        raise DomainError("local code distance unknown")
    if lam2 is None:
        lam2 = second_eigenvalue(x)
    s = x.s
    return (local.d - lam2) * local.d / ((s - lam2) * s) * x.n_edges


def local_view(t: TannerComplex, x_bits: int, v: int) -> int:
    """Restriction of an edge assignment to the labeled neighborhood of v,
    as an s-bit word ordered by label."""
    word = 0
    for lab, e in enumerate(t.graph.edge_at[v].tolist()):  # Python ints: x_bits is unbounded
        if (x_bits >> e) & 1:
            word |= 1 << lab
    return word


def kernel_is_locally_coded(t: TannerComplex, x_bits: int) -> bool:
    """Independent check: x is in the kernel iff every vertex sees a local
    codeword through its labeling."""
    return all(
        t.local.contains(local_view(t, x_bits, v)) for v in range(t.graph.n)
    )


# -- expansion checks ------------------------------------------------------


@dataclass(frozen=True)
class ExpansionReport:
    alpha: float
    beta_formula: float
    weight_cap: int
    n_enumerated: int
    n_sampled: int
    violations: int
    worst_ratio: float  # min over checked chains of |boundary| / (beta |chain|)

    @property
    def holds(self) -> bool:
        return self.violations == 0


def theorem7_beta(s: float, lam2: float, d_l: float, alpha: float) -> float:
    """Expansion factor for low-weight edge chains: beta' * beta''."""
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    beta1 = edge_to_vertex_beta(s, lam2, alpha)
    beta2 = ((d_l - lam2) - (4 * alpha / s) * (s - lam2)) / d_l
    return beta1 * beta2


def theorem8_beta(s: float, lam2: float, k_l: float, d_dual: float, alpha: float) -> float:
    """Expansion factor for low-weight check chains under the coboundary."""
    if alpha < 0:
        raise DomainError("alpha must be nonnegative")
    c = s - k_l
    return ((d_dual - lam2) - alpha * c * (s - lam2)) / (c * d_dual)


def check_expansion_theorem7(
    t: TannerComplex,
    alpha: float,
    exhaustive_cap: int = 4,
    samples: int = 0,
    seed: int = 0,
    lam2: float | None = None,
) -> ExpansionReport:
    """Verify |d x| >= beta |x| for all edge chains with |x| <= alpha |X^1|.

    Chains up to weight min(alpha |X^1|, exhaustive_cap) are enumerated
    exhaustively; heavier admissible weights are covered by `samples`
    random chains drawn from one generator seeded with `seed`.
    """
    if lam2 is None:
        lam2 = second_eigenvalue(t.graph)
    if t.local.d is None:
        raise DomainError("local code distance unknown")
    beta = theorem7_beta(t.graph.s, lam2, t.local.d, alpha)
    max_weight = int(alpha * t.n_edges)
    cols = t.differential()._transposed_data()
    return _expansion_scan(
        cols, t.n_edges, beta, max_weight, exhaustive_cap, samples, seed, alpha
    )


def check_expansion_theorem8(
    t: TannerComplex,
    alpha: float,
    exhaustive_cap: int = 3,
    samples: int = 0,
    seed: int = 0,
    lam2: float | None = None,
) -> ExpansionReport:
    """Verify |delta y| >= beta |y| for check chains with
    |y| <= alpha |X^0| (s - k_L), using the transposed differential."""
    if lam2 is None:
        lam2 = second_eigenvalue(t.graph)
    beta = theorem8_beta(t.graph.s, lam2, t.local.k, dual_distance(t.local), alpha)
    m0 = t.complex.dim(0)
    rows = t.differential().row_ints()
    max_weight = int(alpha * m0)
    return _expansion_scan(
        rows, m0, beta, max_weight, exhaustive_cap, samples, seed, alpha
    )


_SCAN_BLOCK = 1 << 15  # chains per block of the exhaustive scan
_SAMPLE_SLOTS = 1 << 15  # samples x weight cap per chunk of the sampled scan


def _pack_columns(columns, n):
    """The first n columns as rows of little-endian uint64 words, plus an
    all-zero row n for padded supports to point at."""
    n_words = max(1, -(-max((c.bit_length() for c in columns[:n]), default=0) // 64))
    raw = b"".join(c.to_bytes(8 * n_words, "little") for c in columns[:n])
    return np.frombuffer(raw + bytes(8 * n_words), dtype=np.uint64).reshape(n + 1, n_words)


def _scan_exhaustive(columns, n, beta, max_w):
    """Every chain of weight 1..max_w, scanned in blocks of packed images.

    The counts, the violations and the worst ratio equal those of one pass
    over the chains in any order: within a weight the worst ratio comes
    from the lightest image, and the division is the same per chain.
    """
    violations = 0
    worst = math.inf
    enumerated = 0
    words = _pack_columns(columns, n)[:n]
    for w, images in _chain_blocks(words, 1, words, np.arange(n), max_w):
        enumerated += len(images)
        if beta > 0 and len(images):
            out = np.bitwise_count(images).sum(axis=1, dtype=np.int64)
            violations += int(np.count_nonzero(out < beta * w - 1e-9))
            worst = min(worst, int(out.min()) / (beta * w))
    return enumerated, violations, worst


def _chain_blocks(words, w, images, last, max_w):
    """Yield (w, images) for the given block of weight-w chains
    (images XOR their columns; ``last`` holds each chain's largest index),
    then for every heavier chain grown from them. A chain extends by each
    index after its last one, about _SCAN_BLOCK chains a block."""
    yield w, images
    if w == max_w:
        return
    counts = len(words) - 1 - last
    first = np.cumsum(counts) - counts  # offset of each prefix's first child
    cuts = np.flatnonzero(np.diff(first // _SCAN_BLOCK, prepend=-1)).tolist() + [len(counts)]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        c = counts[lo:hi]
        total = int(c.sum())
        if not total:
            continue
        nxt = np.arange(total) - np.repeat(first[lo:hi] - first[lo], c) + np.repeat(last[lo:hi] + 1, c)
        grown = np.repeat(images[lo:hi], c, axis=0) ^ words[nxt]
        yield from _chain_blocks(words, w + 1, grown, nxt, max_w)


class _WordStream:
    """The 32-bit words that ``Generator.integers`` and ``Generator.choice``
    read from ``default_rng(seed)``: each 64-bit PCG64 output gives its low
    half, then its high half. ``words`` starts at the first unread word."""

    def __init__(self, seed):
        self._bitgen = np.random.default_rng(seed).bit_generator
        self.words = np.zeros(0, dtype=np.uint64)

    def extend(self, size: int) -> np.ndarray:
        """Read ahead until at least ``size`` words are buffered."""
        short = size - len(self.words)
        if short > 0:
            raw = self._bitgen.random_raw(-(-short // 2))
            new = np.empty((len(raw), 2), dtype=np.uint64)
            new[:, 0] = raw & 0xFFFFFFFF
            new[:, 1] = raw >> 32
            self.words = np.concatenate([self.words, new.ravel()])
        return self.words


def _lemire(words, bounds):
    """Lemire's bounded draws from [0, bound): the values, and whether the
    draw rejects the word (numpy then retries with the next one)."""
    m = words * bounds
    return m >> 32, (m & 0xFFFFFFFF) < (1 << 32) % bounds


def _scalar_sample(stream, p, n, lo_w, span):
    """One sample read word by word from position p, as numpy draws it,
    rejections and the tail-shuffle regime included. Returns the weight,
    the support and the position after the sample's last word."""

    def draw(bound):
        nonlocal p
        if bound == 1:  # numpy reads no word for a single-value range
            return 0
        while True:
            if p == len(stream.words):
                stream.extend(p + 1024)
            m = int(stream.words[p]) * bound
            p += 1
            if m & 0xFFFFFFFF >= (1 << 32) % bound:
                return m >> 32

    w = lo_w + draw(span)
    if n > 10000 and w > n // 50:  # a tail Fisher-Yates shuffle of arange(n)
        perm: dict[int, int] = {}
        for i in range(n - 1, max(n - w, 1) - 1, -1):
            j = draw(i + 1)
            perm[i], perm[j] = perm.get(j, j), perm.get(i, i)
        support = [perm.get(i, i) for i in range(n - w, n)]
    else:  # Floyd's sampling, then a shuffle that only reorders the picks
        chosen: set[int] = set()
        for j in range(n - w, n):
            val = draw(j + 1)
            chosen.add(j if val in chosen else val)
        for bound in range(w, 1, -1):
            draw(bound)
        support = sorted(chosen)
    return w, support, p


def _sample_supports(n, lo_w, hi_w, count, seed):
    """Yield (weights, supports) chunks of ``count`` samples, equal to
    ``w = rng.integers(lo_w, hi_w + 1)`` then
    ``rng.choice(n, size=w, replace=False)`` per sample, with
    ``rng = np.random.default_rng(seed)``. Each support row holds the w
    picks in some order, padded with n up to hi_w entries.

    A sample drawn without rejection reads at most 2w words: one for the weight
    (none when lo_w == hi_w), w for Floyd's draws (none for the bound 1 when
    w == n) and w - 1 for numpy's shuffle of the picks. A chunk tabulates
    that step at every buffered word, walks it to the sample starts and
    draws all samples at once. The samples before the first one with a
    rejected draw or in numpy's tail-shuffle regime are exact; that one is
    redone by ``_scalar_sample`` and the next chunk starts after it.
    """
    if not 1 <= lo_w <= hi_w <= n <= 1 << 32:
        raise DomainError(f"sample weights {lo_w}..{hi_w} do not fit {n} positions")
    stream = _WordStream(seed)
    span = hi_w - lo_w + 1
    head = int(span > 1)  # words the weight draw reads
    t = np.arange(hi_w)
    done = 0
    while done < count:
        c = max(1, min(count - done, _SAMPLE_SLOTS // hi_w))
        words = stream.extend(2 * hi_w * c + 1)
        w_at = np.full(len(words), lo_w, dtype=np.int64)
        if head:
            w_at += _lemire(words, span)[0].astype(np.int64)
        steps = (head + 2 * w_at - 1 - (w_at == n)).tolist()
        starts, p = [], 0
        for _ in range(c):
            starts.append(p)
            p += steps[p]
        starts = np.array(starts)
        w = w_at[starts][:, None]
        skip = w == n  # Floyd's first bound is 1 and reads no word
        pick = t < w
        bounds = np.where(pick, n - w + t + 1, 1).astype(np.uint64)
        first = starts[:, None] + head - skip  # each sample's first Floyd word
        vals, bad = _lemire(words[first + t], bounds)
        u = t[:-1]  # the shuffle's draws, bounds w down to 2
        shuffled = _lemire(words[first + w + u], np.where(u < w - 1, w - u, 1).astype(np.uint64))[1]
        bad = bad.any(axis=1) | shuffled.any(axis=1)
        if head:
            bad |= _lemire(words[starts], span)[1]
        if n > 10000:
            bad |= w[:, 0] > n // 50
        k = int(np.argmax(bad)) if bad.any() else c
        support = np.where(pick[:k], vals[:k].astype(np.int64), n)
        for i in range(1, hi_w):  # Floyd: a repeated pick takes j = n - w + i
            dup = (support[:, :i] == support[:, i : i + 1]).any(axis=1) & pick[:k, i]
            support[dup, i] = n - w[:k][dup, 0] + i
        if k:
            yield w[:k, 0], support
        if k < c:
            wk, sup, p = _scalar_sample(stream, int(starts[k]), n, lo_w, span)
            yield np.array([wk]), np.array([sup + [n] * (hi_w - wk)], dtype=np.int64)
        done += min(k + 1, c)
        stream.words = stream.words[p:]


def _scan_samples(columns, n, beta, lo_w, hi_w, count, seed):
    """Violations and worst ratio over ``count`` seeded chains of weight
    lo_w..hi_w, as one chain-by-chain pass over ``_sample_supports``."""
    violations = 0
    worst = math.inf
    if beta <= 0 or not count:
        return violations, worst
    words = _pack_columns(columns, n)
    for w, support in _sample_supports(n, lo_w, hi_w, count, seed):
        out = np.bitwise_count(np.bitwise_xor.reduce(words[support], axis=1)).sum(axis=1, dtype=np.int64)
        scale = beta * w
        violations += int(np.count_nonzero(out < scale - 1e-9))
        worst = min(worst, float((out / scale).min()))
    return violations, worst


def _expansion_scan(
    columns: list[int],
    n: int,
    beta: float,
    max_weight: int,
    exhaustive_cap: int,
    samples: int,
    seed: int,
    alpha: float,
) -> ExpansionReport:
    exh = min(max_weight, exhaustive_cap)
    enumerated, violations, worst = (
        _scan_exhaustive(columns, n, beta, exh) if exh >= 1 else (0, 0, math.inf)
    )
    sampled = samples if max_weight > exh else 0
    if sampled:
        more, low = _scan_samples(columns, n, beta, exh + 1, max_weight, sampled, seed)
        violations += more
        worst = min(worst, low)
    return ExpansionReport(
        alpha=alpha,
        beta_formula=beta,
        weight_cap=max_weight,
        n_enumerated=enumerated,
        n_sampled=sampled,
        violations=violations,
        worst_ratio=worst,
    )


# -- Klein quartic instance -------------------------------------------------


def klein_tanner_code(search: bool = False) -> TannerComplex:
    """Tanner complex on the 24-vertex {3,7} coset graph with the cyclic
    [7,4,3] Hamming local code.

    The uniform rotation-respecting labeling yields an [84,22,12] code
    (ten of the 72 vertex checks are dependent). With ``search`` the
    per-vertex rotation sense is flipped in a scan seeded with 1 until the
    [84,12,19] parameters appear; the winning reflection pattern is
    recorded in ``labeling_note``. Mixed senses are still legitimate
    labelings: each vertex keeps a rotation-compatible coordinate order.
    """
    from .classical import hamming_7_4
    from .graphs import klein_quartic_graph

    graph, _, rho, sigma = klein_quartic_graph()
    ham = hamming_7_4()
    t = build_tanner(graph, ham, labeling_note=f"rotational(rho={rho},sigma={sigma})")
    if not search:
        return t
    if t.code_dimension() == 12 and exact_distance(_as_code(t)) == 19:
        return t
    rng = np.random.default_rng(1)
    for trial in range(10_000):
        pattern = rng.integers(0, 2, graph.n)
        flipped = _reflect_labels(graph, pattern)
        cand = build_tanner(
            flipped,
            ham,
            labeling_note=(
                f"rotational(rho={rho},sigma={sigma}) with reflected sense at "
                f"{''.join(map(str, pattern))} (seed=1, trial={trial})"
            ),
        )
        if cand.code_dimension() != 12:
            continue
        if exact_distance(_as_code(cand)) == 19:
            return cand
    raise DomainError("no labeling variant attained [84,12,19]")


def _reflect_labels(graph: LabeledGraph, pattern) -> LabeledGraph:
    """Replace the label l by s-1-l at every vertex whose pattern bit is set."""
    flip = np.asarray(pattern, dtype=bool)[graph.edges]
    labels = np.where(flip, graph.s - 1 - graph.labels, graph.labels)
    return LabeledGraph(graph.n, graph.edges, labels, graph.s)


def _as_code(t: TannerComplex) -> LinearCode:
    return LinearCode.from_check(t.differential())


def tanner_code(t: TannerComplex) -> LinearCode:
    """The Tanner code itself (kernel of the differential) as a LinearCode."""
    return _as_code(t)


def tanner_report(t: TannerComplex, with_distance: bool = False) -> dict:
    """JSON-ready parameter summary of a Tanner instance."""
    lam2 = second_eigenvalue(t.graph)
    k = t.code_dimension()
    out = {
        "n": t.n_edges,
        "k": k,
        "d": None,
        "lambda2": lam2,
        "rate_lower_bound": rate_lower_bound(t.graph, t.local),
        "spectral_distance_bound": (
            sipser_spielman_bound(t.graph, t.local, lam2=lam2)
            if t.local.d is not None
            else None
        ),
        "local_code": {"n": t.local.n, "k": t.local.k, "d": t.local.d},
        "labeling": t.labeling_note,
    }
    if with_distance and 0 < k <= 28:
        out["d"] = exact_distance(_as_code(t))
    return out


def export_tanner_alist(t: TannerComplex, path) -> None:
    from .f2la import write_alist

    write_alist(t.differential(), path)
