import math

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
from bpcodes.f2la import F2Matrix, rank


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
