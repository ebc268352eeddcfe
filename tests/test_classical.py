import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpcodes.algebra import GF2m
from bpcodes.classical import (
    LinearCode,
    _min_detected_weight,
    bch_code,
    binary_entropy,
    dual_code,
    exact_distance,
    full_space_code,
    goppa_code,
    goppa_is_separable,
    gv_plus_search,
    hamming_7_4,
    local_code_from_spec,
    moreno_moreno_dual_bound,
    random_separable_goppa,
    repetition_code,
    singleton_ok,
)
from bpcodes.errors import (
    DomainError,
    DuplicateLocator,
    IncompatibleLength,
    LocatorRoot,
    NoLogicals,
    TooLarge,
)
from bpcodes.complexes import cycle_graph_complex, tensor_complex
from bpcodes.f2la import F2Matrix, IncrementalSpan, kernel_basis, rank, rref
from bpcodes.quantum import css_from_complex


def brute_force_distance(code: LinearCode) -> int:
    """Independent oracle: scan every codeword via its message expansion."""
    best = None
    for m in range(1, 1 << code.k):
        word = 0
        for i in range(code.k):
            if (m >> i) & 1:
                word ^= code.gen.row_int(i)
        w = word.bit_count()
        if w and (best is None or w < best):
            best = w
    return best


def test_hamming_parameters():
    h = hamming_7_4()
    assert (h.n, h.k, h.d) == (7, 4, 3)
    assert h.cyclic
    assert h.contains(0b1111111)  # all-ones word
    assert exact_distance(h) == brute_force_distance(h) == 3


def test_hamming_check_rows_are_cyclic_shifts():
    h = hamming_7_4()
    dense = h.check.to_dense()
    first = dense[0].tolist()
    for i in range(7):
        assert dense[i].tolist() == [first[(j - i) % 7] for j in range(7)]


def test_hamming_dual_is_simplex():
    d = dual_code(hamming_7_4())
    assert (d.n, d.k) == (7, 3)
    assert exact_distance(d) == brute_force_distance(d) == 4


def test_repetition_code():
    r = repetition_code(5)
    assert (r.n, r.k, r.d) == (5, 1, 5)
    assert exact_distance(r) == 5


def test_dual_of_full_space_is_zero():
    d = dual_code(full_space_code(4))
    assert d.k == 0


def test_dual_involution_and_dims():
    rng = np.random.default_rng(0)
    for _ in range(10):
        g = F2Matrix.from_dense(rng.integers(0, 2, (3, 8)))
        if rank(g) == 0:
            continue
        c = LinearCode.from_gen(g)
        d = dual_code(c)
        assert c.k + d.k == c.n
        dd = dual_code(d)
        # double dual has the same row space
        assert rank(dd.gen.vstack(c.gen)) == c.k


def test_exact_distance_cap():
    g = F2Matrix.identity(30)
    code = LinearCode.from_gen(g)
    with pytest.raises(TooLarge):
        exact_distance(code)


def test_exact_distance_zero_code():
    z = LinearCode.from_gen(F2Matrix.zeros(0, 5))
    with pytest.raises(DomainError):
        exact_distance(z)


@st.composite
def detected_spans(draw):
    n = draw(st.sampled_from([1, 63, 64, 65, 130]))
    k = draw(st.integers(0, 12))
    image_bits = draw(st.sampled_from([0, 1, 3, 70]))  # 0: no row is detected
    rows = draw(st.lists(st.integers(0, 2**n - 1), min_size=k, max_size=k))
    images = draw(st.lists(st.integers(0, 2**image_bits - 1), min_size=k, max_size=k))
    return rows, images, n


@settings(max_examples=200, deadline=None)
@given(detected_spans())
def test_min_detected_weight_matches_brute_force(span):
    rows, images, n = span
    best = None
    for subset in range(1, 1 << len(rows)):
        word = image = 0
        for i in range(len(rows)):
            if (subset >> i) & 1:
                word ^= rows[i]
                image ^= images[i]
        if image and (best is None or word.bit_count() < best):
            best = word.bit_count()
    if best is None:
        with pytest.raises(NoLogicals):
            _min_detected_weight(rows, images, n)
    else:
        assert _min_detected_weight(rows, images, n) == best


# -- BCH ----------------------------------------------------------------------


def test_bch_7_1_is_hamming_parameters():
    b = bch_code(7, 1)
    assert (b.n, b.k, b.d) == (7, 4, 3)
    assert b.cyclic


def test_bch_15_2():
    b = bch_code(15, 2)
    assert b.n == 15 and b.k >= 7 and b.d >= 5
    assert b.k == 15 - 4 * 2  # binary moment redundancy: exactly m*t checks


def test_bch_t0_full_space():
    b = bch_code(9, 0)
    assert (b.n, b.k, b.d) == (9, 9, 1)


def test_bch_cyclic_codewords():
    b = bch_code(15, 2)
    for r in range(b.k):
        w = b.gen.row_int(r)
        shifted = ((w << 1) | (w >> 14)) & ((1 << 15) - 1)
        assert b.contains(shifted)


def test_bch_even_length_rejected():
    with pytest.raises(IncompatibleLength):
        bch_code(8, 1)


# -- Goppa ----------------------------------------------------------------------


def test_goppa_m4_t1():
    f = GF2m(4)
    locators = [x for x in range(16) if x != 3]
    g = goppa_code(4, [3, 1], locators)  # g = x + 3
    assert g.n == 15 and g.k >= 15 - 4
    assert exact_distance(g) >= 3  # separable binary bound 2t+1


def test_goppa_locator_validation():
    with pytest.raises(LocatorRoot):
        goppa_code(4, [3, 1], [3, 5, 6])
    with pytest.raises(DuplicateLocator):
        goppa_code(4, [3, 1], [5, 5, 6])


def test_goppa_separability_detection():
    assert goppa_is_separable(4, [3, 1])
    assert not goppa_is_separable(4, [0, 0, 1])  # x^2 has a repeated root


def test_goppa_overconstrained_degenerate():
    # 2t+1 > n: with so few locators the code collapses to {0}
    f = GF2m(3)
    code = goppa_code(3, [0, 0, 0, 1], [1, 2])  # t=3, n=2
    assert code.k == 0


def test_separable_goppa_distance_and_dual_bound():
    code = random_separable_goppa(4, 2, seed=1)
    t = 2
    assert code.n == 14
    assert exact_distance(code) >= 2 * t + 1
    dual = dual_code(code)
    assert exact_distance(dual) >= moreno_moreno_dual_bound(4, t)


def test_moreno_moreno_t1_value():
    # degree-1 polynomial: bound is 2^(m-1) exactly
    assert moreno_moreno_dual_bound(4, 1) == 8.0
    f = GF2m(4)
    locators = [x for x in range(16) if x != 3]
    dual = dual_code(goppa_code(4, [3, 1], locators))
    assert exact_distance(dual) >= 8


# -- GV+ search -----------------------------------------------------------------


def test_entropy_values():
    assert binary_entropy(0.5) == pytest.approx(1.0)
    assert binary_entropy(0.11) == pytest.approx(0.49992, abs=1e-4)
    assert binary_entropy(0.11) < 0.5
    assert binary_entropy(0.1) == pytest.approx(0.46900, abs=1e-4)


def test_gv_search_small():
    res = gv_plus_search(20, 0.1, seed=7)
    assert res.code.k == 11 > 10
    assert res.d >= res.target and res.d_dual >= res.target
    assert res.trials == len(res.trial_log)
    # postconditions re-verified independently
    assert exact_distance(res.code) == res.d
    assert exact_distance(dual_code(res.code)) == res.d_dual


def test_gv_search_reproducible():
    a = gv_plus_search(20, 0.1, seed=3)
    b = gv_plus_search(20, 0.1, seed=3)
    assert a.code.gen == b.code.gen and a.trials == b.trials


def test_gv_threshold_reporting():
    res = gv_plus_search(24, 0.1, seed=7)
    assert res.theorem_threshold == pytest.approx(2 / (0.5 - binary_entropy(0.1)))
    assert not res.threshold_satisfied  # 24 < ~64.5


def test_gv_delta_domain():
    with pytest.raises(DomainError):
        gv_plus_search(20, 0.2, seed=0)


# -- invariants ------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_gen_check_orthogonal_and_rank(seed):
    rng = np.random.default_rng(seed)
    g = F2Matrix.from_dense(rng.integers(0, 2, (4, 9)))
    code = LinearCode.from_gen(g)
    assert code.gen.matmul(code.check.transpose()).is_zero()
    assert code.k == code.n - rank(code.check)


def test_singleton_bound():
    for code in (hamming_7_4(), repetition_code(6), bch_code(15, 2)):
        assert singleton_ok(code)


def test_local_code_registry():
    assert local_code_from_spec("hamming7").n == 7
    assert local_code_from_spec("rep:4").d == 4
    assert local_code_from_spec("bch:15,2").k == 7
    assert local_code_from_spec("gv:20,0.1,7").k == 11
    assert local_code_from_spec("goppa:4,2,1").n == 14
    with pytest.raises(DomainError):
        local_code_from_spec("nonsense:1")


@pytest.mark.parametrize("spec", ["rep:x", "gv:6", "full:", "bch:15", "goppa:4,2,1,0", "gv:6,x,0"])
def test_malformed_local_spec_is_a_domain_error(spec):
    with pytest.raises(DomainError, match="malformed local code spec"):
        local_code_from_spec(spec)


@pytest.mark.parametrize(
    "spec",
    ["rep:-1", "rep:0", "full:0", "full:-2", "goppa:4,20", "goppa:4,-1", "goppa:4,2,-1", "gv:-2,0.1,0"],
)
def test_out_of_range_local_spec_is_a_domain_error(spec):
    # each failed deep inside numpy, or gave a length-0 code, before the check
    with pytest.raises(DomainError, match="malformed local code spec"):
        local_code_from_spec(spec)


# -- the information-set enumerator against the meet-in-the-middle one ---------

_PAIR_BLOCK = 1 << 22  # word pairs scanned at once by the reference


def _span(rows: np.ndarray) -> np.ndarray:
    """All 2^len(rows) XORs of subsets of the packed rows, by doubling:
    entry i combines the rows at the set bits of i."""
    out = np.zeros((1 << len(rows), rows.shape[1]), dtype=np.uint64)
    for i, row in enumerate(rows):
        out[1 << i : 2 << i] = out[: 1 << i] ^ row
    return out


def mitm_min_detected_weight(rows: list[int], images: list[int], n: int) -> int:
    """The meet-in-the-middle enumerator that the information-set one
    replaced, kept as a reference: each half's span is built by doubling,
    and a pair of words is detected exactly when their images differ."""
    order = sorted(range(len(rows)), key=lambda i: images[i] == 0)
    words = F2Matrix.from_rows([rows[i] for i in order], n).data
    image_bits = max((v.bit_length() for v in images), default=0)
    image_words = F2Matrix.from_rows([images[i] for i in order], image_bits).data
    half = len(rows) // 2
    left, right = _span(words[:half]), _span(words[half:])
    _, ids = np.unique(
        np.vstack([_span(image_words[:half]), _span(image_words[half:])]),
        axis=0,
        return_inverse=True,
    )
    left_ids, right_ids = ids.reshape(-1)[: len(left)], ids.reshape(-1)[len(left) :]
    clashes = np.bincount(right_ids, minlength=len(ids))[left_ids]
    keep = clashes < len(right)
    left, left_ids, clashes = left[keep], left_ids[keep], clashes[keep]
    acc = np.min_scalar_type(n + 1)
    best = n + 1
    step = max(1, _PAIR_BLOCK // len(right))
    xor = np.empty((min(step, len(left)), len(right)), dtype=np.uint64)
    weight = np.empty(xor.shape, dtype=acc)
    for lo in range(0, len(left), step):
        block = left[lo : lo + step]
        x, w = xor[: len(block)], weight[: len(block)]
        w.fill(0)
        for j in range(words.shape[1]):
            np.bitwise_xor(block[:, None, j], right[None, :, j], out=x)
            w += np.bitwise_count(x)
        if clashes[lo : lo + step].any():
            w[left_ids[lo : lo + step, None] == right_ids[None, :]] = n + 1
        best = min(best, int(w.min()))
    if best > n:
        raise NoLogicals("no combination of the rows is detected")
    return best


def _both(rows, images, n):
    """Both enumerators' answers, NoLogicals read as None."""
    out = []
    for f in (_min_detected_weight, mitm_min_detected_weight):
        try:
            out.append(f(rows, images, n))
        except NoLogicals:
            out.append(None)
    return out


@st.composite
def wide_spans(draw):
    """13-26 seeded random rows, dense or thinned, with all or one of them
    detected, dependent rows (same or other image), a zero word with a
    nonzero image, and images up to 70 bits; image width 0 is the
    no-detection case."""
    k = draw(st.integers(13, 26))
    n = draw(st.sampled_from([20, 40, 64, 65, 100]))
    image_bits = draw(st.sampled_from([0, 1, 2, 5, 70]))
    thin = draw(st.integers(0, 2))  # each row ANDs this many extra random words
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(k):
        v = rng.getrandbits(n)
        for _ in range(thin):
            v &= rng.getrandbits(n)
        rows.append(v)
    images = [rng.getrandbits(image_bits) for _ in range(k)]
    if draw(st.booleans()):  # one detected row: the minimum over a coset, often deep
        lone = rng.randrange(k)
        images = [v if i == lone else 0 for i, v in enumerate(images)]
    for _ in range(draw(st.integers(0, 3))):
        a, b, c = (rng.randrange(k) for _ in range(3))
        rows[a] = rows[b] ^ rows[c]
        if draw(st.booleans()):
            images[a] = images[b] ^ images[c]
    if image_bits and draw(st.booleans()):
        a = rng.randrange(k)
        rows[a], images[a] = 0, rng.randrange(1, 2**image_bits)
    return rows, images, n


@settings(max_examples=100, deadline=None)
@given(wide_spans())
def test_information_sets_match_meet_in_the_middle(span):
    new, ref = _both(*span)
    assert new == ref


@pytest.mark.parametrize("ell", [3, 4, 5])
@pytest.mark.parametrize("kind", ["z", "x"])
def test_information_sets_match_meet_in_the_middle_on_toric(ell, kind):
    code = css_from_complex(tensor_complex(cycle_graph_complex(ell), cycle_graph_complex(ell)), 1)
    checks, other = (code.hx, code.hz) if kind == "z" else (code.hz, code.hx)
    bounds = rref(other)[0].row_ints()
    span = IncrementalSpan(bounds)
    reps = [v for v in kernel_basis(checks).basis.row_ints() if span.add(v)]
    rows = reps + bounds
    images = [1 << i for i in range(len(reps))] + [0] * len(bounds)
    assert _both(rows, images, code.n) == [ell, ell]
    # the same span with every word detected: the plain minimum weight,
    # a plaquette or star of weight 4 unless a logical is lighter
    assert _both(rows, [1 << i for i in range(len(rows))], code.n) == [min(ell, 4)] * 2


def test_enumerating_28_rows_keeps_memory_flat():
    """28 rows whose detected minimum, 9, is first certified at level 8,
    where C(28, 8) = 3.1M subsets: the scan must stream them in blocks."""
    rng = np.random.default_rng(5)
    n, k = 36, 28
    rows = [1 << i for i in range(27)] + [((1 << 9) - 1) << 27]
    images = [0] * 27 + [1]
    perm = rng.permutation(n)  # scatter the columns
    rows = [sum(1 << int(perm[b]) for b in range(n) if (v >> b) & 1) for v in rows]
    while True:  # mix the rows by a random invertible matrix
        mix = rng.integers(0, 2, (k, k))
        if rank(F2Matrix.from_dense(mix)) == k:
            break
    mixed, mixed_images = [], []
    for coeffs in mix:
        v = w = 0
        for c, r, i in zip(coeffs, rows, images):
            if c:
                v, w = v ^ r, w ^ i
        mixed.append(v)
        mixed_images.append(w)
    tracemalloc.start()
    try:
        assert _min_detected_weight(mixed, mixed_images, n) == 9
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
