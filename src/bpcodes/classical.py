"""Binary linear codes used as Tanner local codes.

Hamming, BCH-via-Goppa, general binary Goppa codes, duals, exact minimum
distance by enumeration, and the seeded random search for codes whose
distance and dual distance both clear a target fraction of the block
length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .algebra import GF2m
from .errors import (
    DomainError,
    DuplicateLocator,
    IncompatibleLength,
    LocatorRoot,
    NoLogicals,
    SearchExhausted,
    TooLarge,
)
from .f2la import F2Matrix, _n_words, _reduced_rows, kernel_basis, rank, rref

ENUMERATION_CAP = 28  # rows an exact distance may span: 2^28 combinations


@dataclass(frozen=True)
class LinearCode:
    """[n, k, d] binary linear code.

    ``check`` rows may be redundant (e.g. all cyclic shifts of one dual
    word); ``gen`` rows are always independent. ``d`` is present only when
    it has been computed exactly.
    """

    n: int
    check: F2Matrix
    gen: F2Matrix
    k: int
    d: int | None = None
    cyclic: bool = False
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if self.check.cols != self.n or self.gen.cols != self.n:
            raise DomainError("check/generator width differs from block length")
        if not self.gen.matmul(self.check.transpose()).is_zero():
            raise DomainError("generator rows do not satisfy the checks")
        if self.k != self.gen.rows or self.k != self.n - rank(self.check):
            raise DomainError("dimension bookkeeping is inconsistent")
        if rank(self.gen) != self.k:
            raise DomainError("generator rows are dependent")

    @staticmethod
    def from_check(check: F2Matrix, cyclic: bool = False, name: str = "") -> "LinearCode":
        gen = kernel_basis(check).basis
        return LinearCode(check.cols, check, gen, gen.rows, cyclic=cyclic, name=name)

    @staticmethod
    def from_gen(gen: F2Matrix, cyclic: bool = False, name: str = "") -> "LinearCode":
        g, _ = rref(gen)
        check = kernel_basis(g).basis
        return LinearCode(g.cols, check, g, g.rows, cyclic=cyclic, name=name)

    def reduced_check(self) -> F2Matrix:
        """Full-row-rank row echelon form of the check matrix."""
        r, _ = rref(self.check)
        return r

    def contains(self, word: int) -> bool:
        return self.check.mul_vec_int(word) == 0

    def with_distance(self, d: int) -> "LinearCode":
        return replace(self, d=d)


def exact_distance(code: LinearCode) -> int:
    """Exact minimum nonzero codeword weight by message-space enumeration.

    Raises TooLarge above 2^ENUMERATION_CAP messages and DomainError for
    the zero code.
    """
    if code.k == 0:
        raise DomainError("zero code has no nonzero codewords")
    return _min_detected_weight(code.gen.row_ints(), [1 << i for i in range(code.k)], code.n)


def dual_distance(code: LinearCode) -> int:
    """Minimum distance of the dual code, enumerated unless already known."""
    dual = dual_code(code)
    return dual.d if dual.d is not None else exact_distance(dual)


_SUBSET_BLOCK = 1 << 16  # subsets XORed at once by _min_detected_weight


def _min_detected_weight(rows: list[int], images: list[int], n: int) -> int:
    """Minimum |x| over XORs x of subsets of ``rows`` (bitsets of width
    ``n``) whose XOR of the matching ``images`` (bitsets of any width) is
    nonzero.

    Brouwer-Zimmermann enumeration over information sets. The words
    ``row | image << n`` are row-reduced once; a reduced row with a zero
    word part and a nonzero image is a detected combination of weight 0.
    Otherwise the word parts of the k reduced rows are independent, and
    greedy disjoint information sets I_j (each taking pivots only among
    columns no earlier set used) give systematic generators G_j of rank
    r_j. Level t XORs every t-subset of each generator's rows; once
    levels 1..t of G_j are scanned, a combination not yet seen has at
    least t + 1 - (k - r_j) ones on I_j, so the scan stops once the best
    detected weight is at most the sum of those bounds. A generator is
    built, and joins the scan with all its levels up to t at once, at the
    first t where its term is positive.
    Raises TooLarge above ENUMERATION_CAP rows and NoLogicals when no
    combination is detected.
    """
    if len(rows) > ENUMERATION_CAP:
        raise TooLarge(f"2^{len(rows)} combinations exceed the enumeration cap")
    if not any(images):
        raise NoLogicals("no combination of the rows is detected")
    basis, pivots = _reduced_rows(r | (v << n) for r, v in zip(rows, images))
    if pivots[-1] >= n:  # the last pivot row has a zero word part
        return 0
    k = len(basis)
    word_words = _n_words(n)
    image_words = _n_words(max(basis).bit_length() - n)
    mask = (1 << n) - 1
    gens = []  # (packed rows [word words | image words], rank r_j), built on joining
    done = []  # highest level scanned on each generator
    free = mask
    best = n + 1
    for t in range(1, k + 1):
        # ranks of the greedy sets never grow, so a set joins no earlier than
        # the one before it: build the next while the last built joins by t
        while free and (not gens or t + 1 - (k - gens[-1][1]) > 0):
            gen, used = _systematic(basis, free)
            if not used:
                free = 0
                break
            free &= ~used
            raw = b"".join(
                (v & mask).to_bytes(word_words * 8, "little") + (v >> n).to_bytes(image_words * 8, "little")
                for v in gen
            )
            gens.append((np.frombuffer(raw, dtype=np.uint64).reshape(k, -1), used.bit_count()))
            done.append(0)
        for j, (packed, r) in enumerate(gens):
            if t + 1 - (k - r) <= 0:
                continue  # no bound from this set yet; its levels wait until it adds one
            for level in range(done[j] + 1, t + 1):
                for x in _subset_xors(packed, level):
                    detected = x[:, word_words:].any(axis=1)
                    if detected.any():
                        w = np.bitwise_count(x[detected, :word_words]).sum(axis=1)
                        best = min(best, int(w.min()))
            done[j] = t
            bound = sum(max(0, d + 1 - (k - rank_j)) for d, (_, rank_j) in zip(done, gens))
            if best <= bound:
                return best
    return best


def _systematic(rows: list[int], free: int) -> tuple[list[int], int]:
    """Rows spanning the same space, reduced on pivots drawn only from the
    ``free`` columns (each pivot row the only one with its pivot bit, the
    other rows zero on every free column), and the mask of the pivots."""
    pivots: dict[int, int] = {}  # pivot bit -> its row
    used = 0
    rest = []
    for v in rows:
        hits = v & used
        while hits:
            low = hits & -hits
            v ^= pivots[low]
            hits ^= low
        low = v & free & -(v & free)
        if not low:
            rest.append(v)
            continue
        for p, u in pivots.items():
            if u & low:
                pivots[p] = u ^ v
        pivots[low] = v
        used |= low
    return list(pivots.values()) + rest, used


def _subset_xors(rows: np.ndarray, t: int):
    """The XORs of every t-subset of ``rows``, at most _SUBSET_BLOCK at a
    time: a count above the block fixes the smallest chosen row and
    recurses on the rows after it."""
    m = len(rows)
    if math.comb(m, t) <= _SUBSET_BLOCK:
        idx = _subset_table(m, t)
        x = rows[idx[:, 0]]
        for c in range(1, t):
            x ^= rows[idx[:, c]]
        yield x
        return
    for a in range(m - t + 1):
        for x in _subset_xors(rows[a + 1 :], t - 1):
            x ^= rows[a]
            yield x


@lru_cache(maxsize=None)
def _subset_table(m: int, t: int) -> np.ndarray:
    """Every t-subset of range(m), one row of indices each, in
    lexicographic order; read-only, shared between calls."""
    if t == 0:
        out = np.zeros((1, 0), dtype=np.uint8)
    else:
        out = np.vstack(
            [
                np.hstack(
                    [
                        np.full((math.comb(m - a - 1, t - 1), 1), a, dtype=np.uint8),
                        _subset_table(m - a - 1, t - 1) + np.uint8(a + 1),
                    ]
                )
                for a in range(m - t + 1)
            ]
        )
    out.flags.writeable = False
    return out


def dual_code(code: LinearCode) -> LinearCode:
    """Dual code: generators are the (row-reduced) checks of the input."""
    gen, _ = rref(code.check)
    if gen.rows == 0:
        gen = F2Matrix.zeros(0, code.n)
    check = kernel_basis(gen).basis if gen.rows else F2Matrix.identity(code.n)
    return LinearCode(code.n, check, gen, gen.rows, name=f"dual({code.name})" if code.name else "")


def repetition_code(n: int) -> LinearCode:
    ones = [(i, j) for i in range(n - 1) for j in (i, i + 1)]
    check = F2Matrix.from_entries(n - 1, n, ones)
    code = LinearCode.from_check(check, name=f"rep{n}")
    return code.with_distance(n)


def full_space_code(n: int) -> LinearCode:
    return LinearCode(
        n, F2Matrix.zeros(0, n), F2Matrix.identity(n), n, d=1, name=f"full{n}"
    )


def hamming_7_4() -> LinearCode:
    """The [7,4,3] Hamming code in cyclic form: check rows are the seven
    cyclic shifts of one dual word, generator rows shifts of 1+x+x^3."""
    gen_poly = (1, 1, 0, 1, 0, 0, 0)
    dual_word = (1, 0, 1, 1, 1, 0, 0)  # reciprocal of (x^7+1)/(x^3+x+1)
    gen = F2Matrix.from_dense([_cyclic_shift(gen_poly, i) for i in range(4)])
    check = F2Matrix.from_dense([_cyclic_shift(dual_word, i) for i in range(7)])
    code = LinearCode(7, check, gen, 4, cyclic=True, name="hamming7")
    return code.with_distance(exact_distance(code))


def _cyclic_shift(vec, i: int) -> list[int]:
    n = len(vec)
    return [vec[(j - i) % n] for j in range(n)]


# -- Goppa codes --------------------------------------------------------


def goppa_code(
    m: int, g_coeffs: list[int], locators: list[int], name: str = ""
) -> LinearCode:
    """Binary Goppa code from g in GF(2^m)[x] and locators with g != 0 there.

    Parity checks expand the mod-g congruence into deg(g) rows over
    GF(2^m), each split into m binary rows coordinate-wise; hence
    k >= n - m*deg(g).
    """
    f = GF2m(m)
    while g_coeffs and g_coeffs[-1] == 0:
        g_coeffs = g_coeffs[:-1]
    t = len(g_coeffs) - 1
    if t < 0:
        raise DomainError("zero polynomial")
    n = len(locators)
    if len(set(locators)) != n:
        raise DuplicateLocator("locators must be distinct")
    gvals = [f.poly_eval(g_coeffs, γ) for γ in locators]
    if any(v == 0 for v in gvals):
        raise LocatorRoot("a locator is a root of g")
    if t == 0:
        return full_space_code(n)

    # H[j, i] = locator_i^j / g(locator_i); row-equivalent to the canonical
    # divided-difference form since the change of basis is triangular
    rows_bin: list[list[int]] = []
    for j in range(t):
        row = [f.mul(f.pow(γ, j), f.inv(gv)) for γ, gv in zip(locators, gvals)]
        for bit in range(m):
            rows_bin.append([(x >> bit) & 1 for x in row])
    check = F2Matrix.from_dense(rows_bin)
    code = LinearCode.from_check(check, name=name or f"goppa(m={m},t={t},n={n})")
    if code.k < n - m * t:
        raise DomainError("rank exceeded m*t; construction bug")
    return code


def goppa_is_separable(m: int, g_coeffs: list[int]) -> bool:
    """Squarefree test: gcd(g, g') = 1 in GF(2^m)[x]."""
    f = GF2m(m)
    g = list(g_coeffs)
    # formal derivative in characteristic 2: odd-degree terms survive
    dg = [g[i] if i % 2 == 1 else 0 for i in range(1, len(g))]
    gcd = _poly_gcd(f, g, dg)
    return len(gcd) == 1


def _poly_trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mod(f: GF2m, a: list[int], b: list[int]) -> list[int]:
    a = _poly_trim(list(a))
    b = _poly_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial mod zero")
    inv_lead = f.inv(b[-1])
    while len(a) >= len(b) and a:
        coef = f.mul(a[-1], inv_lead)
        shift = len(a) - len(b)
        for i, bc in enumerate(b):
            a[shift + i] ^= f.mul(coef, bc)
        a = _poly_trim(a)
    return a


def _poly_gcd(f: GF2m, a: list[int], b: list[int]) -> list[int]:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a, b = b, _poly_mod(f, a, b)
    if a:
        inv_lead = f.inv(a[-1])
        a = [f.mul(x, inv_lead) for x in a]
    return a


def moreno_moreno_dual_bound(m: int, t: int) -> float:
    """Dual-distance lower bound for a separable degree-t Goppa polynomial
    with all t roots in the field and locators on every non-root."""
    return 2 ** (m - 1) - (t - 1) / 2 - (t - 1) * 2 ** (m / 2)


def bch_code(s: int, t: int) -> LinearCode:
    """BCH code of length s and design parameter t, realized as the Goppa
    code with g = x^(2t) on the powers of a primitive s-th root of unity.

    The binary moment conditions at even exponents are consequences of the
    odd ones, so k >= s - m*t while the designed distance is 2t + 1.
    """
    if s < 1 or s % 2 == 0:
        raise IncompatibleLength("length must be odd")
    if t < 0:
        raise DomainError("negative design parameter")
    if t == 0:
        code = full_space_code(s)
        return replace(code, cyclic=True, name=f"bch({s},0)")
    m = _multiplicative_order_of_two(s)
    f = GF2m(m)
    beta = f.pow(f.generator(), (f.size - 1) // s)
    if f.element_order(beta) != s:
        raise IncompatibleLength("no primitive s-th root of unity found")
    locators = [f.pow(beta, i) for i in range(s)]
    g = [0] * (2 * t) + [1]
    code = goppa_code(m, g, locators, name=f"bch({s},{t})")
    code = replace(code, cyclic=True)
    if code.k < s - m * t:
        raise DomainError("BCH dimension fell below s - m*t")
    if code.k <= ENUMERATION_CAP and code.k > 0:
        d = exact_distance(code)
        if d < 2 * t + 1:
            raise DomainError(f"designed distance violated: d={d} < {2 * t + 1}")
        code = code.with_distance(d)
    return code


def _multiplicative_order_of_two(s: int) -> int:
    if math.gcd(s, 2) != 1:
        raise IncompatibleLength("length must be odd")
    m, acc = 1, 2 % s
    while acc != 1:
        acc = (acc * 2) % s
        m += 1
        if m > 12:
            raise IncompatibleLength("2 has order > 12 modulo s; field too large")
    return m


# -- randomized search for good local codes ------------------------------


def binary_entropy(delta: float) -> float:
    if not (0 < delta < 1):
        raise DomainError("entropy argument must lie in (0,1)")
    return -delta * math.log2(delta) - (1 - delta) * math.log2(1 - delta)


@dataclass(frozen=True)
class GvSearchResult:
    code: LinearCode
    d: int
    d_dual: int
    target: int
    trials: int
    trial_log: tuple[tuple[int, int, int | None, int | None], ...]
    theorem_threshold: float
    threshold_satisfied: bool


def gv_plus_search(
    s: int,
    delta: float,
    rate_floor: float = 0.5,
    seed: int = 0,
    max_trials: int = 2000,
) -> GvSearchResult:
    """Seeded random search for a code with k > rate_floor*s and both the
    distance and the dual distance at least ceil(delta*s).

    Existence is guaranteed above the entropy threshold n > 2/(1/2 -
    H2(delta)) for delta in (0, 0.11); below the threshold the search is
    still run (such codes are abundant at small sizes) and the threshold
    is only reported. Every trial is logged as (trial, rank, d, d_dual)
    with None entries for stages not reached.
    """
    if not (0 < delta < 0.11):
        raise DomainError("delta must lie in (0, 0.11)")
    k = int(math.floor(rate_floor * s)) + 1
    if k > ENUMERATION_CAP or s - k > ENUMERATION_CAP:
        raise TooLarge("distance enumeration infeasible at this size")
    target = math.ceil(delta * s)
    h2 = binary_entropy(delta)
    threshold = 2 / (0.5 - h2)
    rng = np.random.default_rng(seed)
    log: list[tuple[int, int, int | None, int | None]] = []
    for trial in range(1, max_trials + 1):
        g = F2Matrix.from_dense(rng.integers(0, 2, (k, s), dtype=np.uint8))
        r = rank(g)
        if r < k:
            log.append((trial, r, None, None))
            continue
        code = LinearCode.from_gen(g)
        d = exact_distance(code)
        if d < target:
            log.append((trial, r, d, None))
            continue
        dual = dual_code(code)
        dd = exact_distance(dual)
        log.append((trial, r, d, dd))
        if dd < target:
            continue
        found = code.with_distance(d)
        found = replace(found, name=f"gv(s={s},delta={delta},seed={seed})")
        return GvSearchResult(
            code=found,
            d=d,
            d_dual=dd,
            target=target,
            trials=trial,
            trial_log=tuple(log),
            theorem_threshold=threshold,
            threshold_satisfied=s > threshold,
        )
    raise SearchExhausted(f"no code found in {max_trials} trials at s={s}, delta={delta}")


def singleton_ok(code: LinearCode) -> bool:
    return code.d is None or code.d <= code.n - code.k + 1


# -- registry ------------------------------------------------------------


def local_code_from_spec(spec: str) -> LinearCode:
    """Parse a construction recipe string.

    Formats: ``hamming7``, ``rep:N``, ``full:N``, ``bch:S,T``,
    ``goppa:M,T,SEED`` (random separable polynomial and all-nonroot
    locators), ``gv:S,DELTA,SEED``.
    """
    head, _, arg = spec.partition(":")
    if head == "hamming7":
        return hamming_7_4()
    if head in ("rep", "full"):
        (n,) = _spec_numbers(spec, arg, (int,), 1)
        if n < 1:
            raise _malformed(spec)
        return repetition_code(n) if head == "rep" else full_space_code(n)
    if head == "bch":
        return bch_code(*_spec_numbers(spec, arg, (int, int), 2))
    if head == "goppa":
        m, t, seed = _spec_numbers(spec, arg, (int, int, int), 2)
        if not (0 < t and t.bit_length() <= m and seed >= 0):  # t < 2^m roots leave a locator
            raise _malformed(spec)
        return random_separable_goppa(m, t, seed)
    if head == "gv":
        s, delta, seed = _spec_numbers(spec, arg, (int, float, int), 2)
        if s < 1 or seed < 0:
            raise _malformed(spec)
        return gv_plus_search(s, delta, seed=seed).code
    raise DomainError(f"unknown local code spec {spec!r}")


def _spec_numbers(spec: str, arg: str, types: tuple, required: int) -> list:
    """The comma-separated numbers of a local code spec, each converted by
    its entry of ``types``; those past the first ``required`` may be left
    out and default to 0. Raises DomainError, as an unknown spec does."""
    fields = arg.split(",")
    if required <= len(fields) <= len(types):
        try:
            values = [t(x) for t, x in zip(types, fields)]
            return values + [0] * (len(types) - len(values))
        except ValueError:
            pass
    raise _malformed(spec)


def _malformed(spec: str) -> DomainError:
    """The error of a spec with malformed or out-of-range numbers."""
    return DomainError(f"malformed local code spec {spec!r}")


def random_separable_goppa(m: int, t: int, seed: int = 0) -> LinearCode:
    """Goppa code whose polynomial has t distinct roots drawn from the
    field; locators are all remaining field elements."""
    f = GF2m(m)
    rng = np.random.default_rng(seed)
    roots = [int(r) for r in rng.choice(f.size, size=t, replace=False)]
    g = [1]
    for r in roots:  # multiply by (x + r)
        nxt = [0] * (len(g) + 1)
        for i, c in enumerate(g):
            nxt[i + 1] ^= c
            nxt[i] ^= f.mul(r, c)
        g = nxt
    locators = [x for x in range(f.size) if x not in set(roots)]
    return goppa_code(m, g, locators, name=f"goppa(m={m},t={t},seed={seed})")
