import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpcodes.classical import (
    exact_distance,
    full_space_code,
    hamming_7_4,
    repetition_code,
)
from bpcodes.errors import DegreeMismatch
from bpcodes.f2la import F2Matrix, kernel_basis
from bpcodes.graphs import LabeledGraph, complete_graph, cycle_labeled_graph, second_eigenvalue
from bpcodes import tanner
from bpcodes.tanner import (
    build_tanner,
    check_expansion_theorem7,
    check_expansion_theorem8,
    kernel_is_locally_coded,
    klein_tanner_code,
    local_view,
    rate_lower_bound,
    sipser_spielman_bound,
    tanner_code,
    theorem7_beta,
)


def test_cycle_with_repetition_is_repetition():
    t = build_tanner(cycle_labeled_graph(9), repetition_code(2))
    assert t.code_dimension() == 1
    code = tanner_code(t)
    assert exact_distance(code) == 9
    kb = kernel_basis(t.differential())
    assert kb.basis.row_int(0) == (1 << 9) - 1  # the all-ones assignment


def test_full_local_code_gives_zero_differential():
    t = build_tanner(cycle_labeled_graph(7), full_space_code(2))
    assert t.differential().is_zero()
    assert t.code_dimension() == 7


def test_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        build_tanner(cycle_labeled_graph(5), hamming_7_4())


def test_kernel_characterization():
    t = klein_tanner_code()
    kb = kernel_basis(t.differential())
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = 0
        for i in range(kb.dim):
            if rng.integers(0, 2):
                x ^= kb.basis.row_int(i)
        assert kernel_is_locally_coded(t, x)
    # corrupting one edge must break some local view
    x = kb.basis.row_int(0)
    assert not kernel_is_locally_coded(t, x ^ 1)


def test_local_view_orders_by_label():
    t = build_tanner(cycle_labeled_graph(5), repetition_code(2))
    x = 0b00011  # edges 0 and 1
    # vertex 1 touches edges 0 (label 0) and 1 (label 1): view = 0b11
    assert local_view(t, x, 1) == 0b11


def test_rate_bound_holds():
    kt = klein_tanner_code()
    assert kt.code_dimension() >= rate_lower_bound(kt.graph, kt.local) == 12


def test_klein_canonical_vs_search():
    canonical = klein_tanner_code()
    assert canonical.code_dimension() == 22  # rotational labeling
    searched = klein_tanner_code(search=True)
    assert searched.code_dimension() == 12
    assert exact_distance(tanner_code(searched)) == 19
    assert "reflected" in searched.labeling_note


def test_sipser_spielman_bound_values():
    # boundary case d_L = lambda2 gives zero
    code = hamming_7_4()
    g = klein_tanner_code().graph
    assert sipser_spielman_bound(g, code, lam2=3.0) == 0.0
    # idealized lambda2 = 0, d_L = s: the whole edge set
    assert sipser_spielman_bound(g, code.with_distance(7), lam2=0.0) == g.n_edges


def test_sipser_spielman_dominated_by_distance():
    kt = klein_tanner_code(search=True)
    bound = sipser_spielman_bound(kt.graph, kt.local)
    assert exact_distance(tanner_code(kt)) >= bound > 0


def test_single_edge_boundary_weight():
    kt = klein_tanner_code()
    hc = kt.local_check.to_dense()
    d = kt.differential()
    cols = d._transposed_data()
    for e in (0, 11, 40):
        u, v = kt.graph.edges[e]
        lu, lv = kt.graph.labels[e]
        expect = int(hc[:, lu].sum() + hc[:, lv].sum())
        assert cols[e].bit_count() == expect


def test_theorem7_no_violations_klein():
    kt = klein_tanner_code()
    rep = check_expansion_theorem7(kt, alpha=0.05, exhaustive_cap=2)
    assert rep.holds and rep.n_enumerated > 0


def test_theorem8_single_check_weight_is_dual_codeword():
    kt = klein_tanner_code()
    # a single check chain maps to a dual codeword around one vertex; the
    # reduced checks are independent so the image is nonzero
    rows = kt.differential().row_ints()
    from bpcodes.classical import dual_code

    dd = exact_distance(dual_code(kt.local))
    for i in (0, 5, 50):
        assert rows[i].bit_count() >= dd


def test_theorem8_no_violations_klein():
    kt = klein_tanner_code()
    rep = check_expansion_theorem8(kt, alpha=0.05, exhaustive_cap=2)
    assert rep.holds and rep.n_enumerated > 0


def test_beta_monotone_decreasing():
    lam2 = math.sqrt(7)
    betas = [theorem7_beta(7, lam2, 3, a) for a in np.linspace(0.01, 0.12, 8)]
    assert all(b1 >= b2 for b1, b2 in zip(betas, betas[1:]))


def test_labeling_recorded():
    t = build_tanner(cycle_labeled_graph(5), repetition_code(2), labeling_note="test-tag")
    assert t.labeling_note == "test-tag"


def test_tanner_report(tmp_path):
    from bpcodes.tanner import export_tanner_alist, tanner_report

    t = build_tanner(cycle_labeled_graph(9), repetition_code(2))
    rep = tanner_report(t, with_distance=True)
    assert rep["n"] == 9 and rep["k"] == 1 and rep["d"] == 9
    assert rep["lambda2"] == pytest.approx(2 * np.cos(2 * np.pi / 9))
    path = tmp_path / "t.alist"
    export_tanner_alist(t, path)
    from bpcodes.f2la import read_alist

    assert read_alist(path) == t.differential()


def _loop_scan_exhaustive(columns, n, beta, max_w):
    """The chain-by-chain scan that the blocked numpy scan replaced."""
    violations, worst, enumerated = 0, math.inf, 0
    for lead in range(n):
        for w in range(1, max_w + 1):
            for rest in itertools.combinations(range(lead + 1, n), w - 1):
                img = columns[lead]
                for j in rest:
                    img ^= columns[j]
                enumerated += 1
                out = img.bit_count()
                if beta > 0:
                    worst = min(worst, out / (beta * w))
                    if out < beta * w - 1e-9:
                        violations += 1
    return enumerated, violations, worst


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 14),
    st.sampled_from([1, 5, 64, 65, 150]),
    st.integers(1, 4),
    st.sampled_from([-1.0, 0.0, 0.3, 0.9, 1.7]),
    st.sampled_from([1, 2, 7, 1 << 15]),
    st.data(),
)
def test_scan_exhaustive_matches_loop(n, bits, max_w, beta, block, data):
    columns = data.draw(st.lists(st.integers(0, (1 << bits) - 1), min_size=n, max_size=n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tanner, "_SCAN_BLOCK", block)
        got = tanner._scan_exhaustive(columns, n, beta, max_w)
    assert got == _loop_scan_exhaustive(columns, n, beta, max_w)


@pytest.mark.parametrize("seed", [21, 1021])
def test_seeded_expansion_reports_are_pinned(seed):
    # theorem 7's minimum comes from the exhaustive part, theorem 8's from
    # the sampled part, so the theorem 8 value pins the sample stream
    kt = _klein_search()
    lam2 = second_eigenvalue(kt.graph)
    r7 = check_expansion_theorem7(kt, alpha=0.1, exhaustive_cap=4, samples=100_000, seed=seed, lam2=lam2)
    r8 = check_expansion_theorem8(kt, alpha=0.08, exhaustive_cap=3, samples=100_000, seed=seed, lam2=lam2)
    assert (r7.n_enumerated, r7.n_sampled, r7.violations, r7.worst_ratio) == (
        2028355, 100000, 0, 37.487418650561885)
    assert (r8.n_enumerated, r8.n_sampled, r8.violations, r8.worst_ratio) == (
        62268, 100000, 0, 46.56743006891531)


def _loop_draws(n, lo_w, hi_w, count, seed):
    """The per-sample draws that the chunked sampler replaced."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        w = int(rng.integers(lo_w, hi_w + 1))
        yield w, rng.choice(n, size=w, replace=False)


def _loop_scan_samples(columns, n, beta, lo_w, hi_w, count, seed):
    """The per-sample scan that the chunked sampler replaced."""
    violations = 0
    worst = math.inf
    for w, support in _loop_draws(n, lo_w, hi_w, count, seed):
        img = 0
        for j in support:
            img ^= columns[int(j)]
        out = img.bit_count()
        if beta > 0:
            ratio = out / (beta * w)
            worst = min(worst, ratio)
            if out < beta * w - 1e-9:
                violations += 1
    return violations, worst


def _chunked_draws(n, lo_w, hi_w, count, seed):
    for w, support in tanner._sample_supports(n, lo_w, hi_w, count, seed):
        assert support.shape == (len(w), hi_w)
        for wi, row in zip(w.tolist(), support.tolist()):
            assert row.count(n) == hi_w - wi
            yield wi, sorted(j for j in row if j != n)


def _assert_same_draws(n, lo_w, hi_w, count, seed):
    want = [(w, sorted(s.tolist())) for w, s in _loop_draws(n, lo_w, hi_w, count, seed)]
    assert list(_chunked_draws(n, lo_w, hi_w, count, seed)) == want


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([1, 5, 72, 84]),
    st.sampled_from([1, 2, 3, 7, 1 << 15]),
    st.integers(0, 40),
    st.integers(0, 2**32),
    st.data(),
)
def test_sampler_matches_per_sample_draws(n, slots, count, seed, data):
    lo_w = data.draw(st.integers(1, n))
    hi_w = data.draw(st.sampled_from([lo_w, n, min(n, lo_w + 3)]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tanner, "_SAMPLE_SLOTS", slots)
        _assert_same_draws(n, lo_w, hi_w, count, seed)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([1, 2, 3, 7, 1 << 15]), st.integers(0, 2**32))
def test_sampler_matches_through_lemire_rejections(slots, seed):
    # bounds near 3 * 2^30 reject about a quarter of the words
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tanner, "_SAMPLE_SLOTS", slots)
        _assert_same_draws(3 << 30, 1, 6, 30, seed)


@settings(max_examples=6, deadline=None)
@given(st.sampled_from([1, 7, 1 << 15]), st.integers(0, 2**32), st.sampled_from([(150, 260), (201, 205), (10001, 10001)]))
def test_sampler_matches_in_the_tail_shuffle_regime(slots, seed, weights):
    # above n = 10000 numpy shuffles the tail of arange(n) once w > n // 50
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tanner, "_SAMPLE_SLOTS", slots)
        _assert_same_draws(10001, *weights, 4, seed)


def test_sampler_rejects_weights_that_do_not_fit():
    from bpcodes.errors import DomainError

    for args in ((5, 0, 3), (5, 4, 3), (5, 3, 6), ((1 << 32) + 1, 1, 2)):
        with pytest.raises(DomainError):
            next(tanner._sample_supports(*args, 1, 0))


def test_packed_columns_end_in_a_zero_row():
    words = tanner._pack_columns([1, 1 << 70, 3, 5], 3)
    assert words.shape == (4, 2) and not words[3].any()
    assert words[1].tolist() == [0, 1 << 6]


@functools.cache
def _klein_search():
    return klein_tanner_code(search=True)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["t7", "t8", "bits"]),
    st.sampled_from([-1.0, 0.0, 0.02, 0.2 + 1e-12, 0.3, 1.7]),
    st.integers(0, 300),
    st.integers(0, 2**32),
    st.sampled_from([1, 3, 7, 1 << 15]),
    st.data(),
)
def test_scan_samples_matches_loop(which, beta, count, seed, slots, data):
    # "bits" chains have images of weight 0..2, so beta * w lands just
    # above an image weight (0.2 + 1e-12 at w = 5) and the 1e-9 slack counts
    if which == "bits":
        n = data.draw(st.integers(1, 30))
        columns = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    else:
        d = _klein_search().differential()
        columns = d._transposed_data() if which == "t7" else d.row_ints()
        n = len(columns)
        if data.draw(st.booleans()):  # zero chains, so that light images occur
            columns = [0 if i % 3 else c for i, c in enumerate(columns)]
    lo_w = data.draw(st.integers(1, min(n, 8)))
    hi_w = data.draw(st.integers(lo_w, min(n, 12)))  # lo_w < hi_w pads supports with the zero row
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tanner, "_SAMPLE_SLOTS", slots)
        got = tanner._scan_samples(columns, n, beta, lo_w, hi_w, count, seed)
    assert got == _loop_scan_samples(columns, n, beta, lo_w, hi_w, count, seed)


def _pcg64_words(seed, zero_every=0):
    """The 32-bit words of PCG64(seed), low half first; with zero_every,
    each word is replaced by 0 with probability 1/zero_every. A zero word
    is rejected by every bound that is not a power of two."""
    bits = np.random.default_rng(seed).bit_generator
    holes = np.random.default_rng([seed, 1])
    while True:
        raw = bits.random_raw(256)
        words = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel()
        if zero_every:
            words[holes.integers(0, zero_every, len(words)) == 0] = 0
        yield from words.tolist()


def _word_reference(words, n, lo_w, hi_w, count):
    """numpy's integers + choice(replace=False) algorithms, on a word iterator."""

    def draw(bound):
        if bound == 1:
            return 0
        while True:
            m = next(words) * bound
            if m % 2**32 >= 2**32 % bound:
                return m >> 32

    for _ in range(count):
        w = lo_w + draw(hi_w - lo_w + 1)
        if n > 10000 and w > n // 50:
            idx = list(range(n))
            for i in range(n - 1, max(n - w, 1) - 1, -1):
                j = draw(i + 1)
                idx[i], idx[j] = idx[j], idx[i]
            yield w, sorted(idx[n - w:])
        else:
            picks = []
            for j in range(n - w, n):
                val = draw(j + 1)
                picks.append(j if val in picks else val)
            for i in range(w - 1, 0, -1):
                draw(i + 1)
            yield w, sorted(picks)


class _HoledBits:
    """A stand-in bit generator whose raw outputs carry zero words."""

    def __init__(self, seed, zero_every):
        self._words = _pcg64_words(seed, zero_every)

    def random_raw(self, k):
        lo = np.array([next(self._words) for _ in range(2 * k)], dtype=np.uint64)
        return lo[0::2] | (lo[1::2] << np.uint64(32))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([5, 72, 84, 10001]),
    st.sampled_from([1, 2, 3, 7, 1 << 15]),
    st.sampled_from([3, 20, 200]),
    st.integers(0, 2**32),
    st.data(),
)
def test_sampler_redoes_rejected_draws_exactly(n, slots, zero_every, seed, data):
    # the word-level reference is numpy's stream on plain PCG64 words ...
    lo_w = data.draw(st.integers(1, min(n, 9)))
    hi_w = data.draw(st.sampled_from([lo_w, min(n, lo_w + 4), min(n, 300)]))
    count = 4 if hi_w > 200 else 40
    want = [(w, sorted(s.tolist())) for w, s in _loop_draws(n, lo_w, hi_w, count, seed)]
    assert list(_word_reference(_pcg64_words(seed), n, lo_w, hi_w, count)) == want

    # ... and on words with frequent rejections the sampler follows it
    class Holed(tanner._WordStream):
        def __init__(self, seed):
            super().__init__(seed)
            self._bitgen = _HoledBits(seed, zero_every)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tanner, "_SAMPLE_SLOTS", slots)
        mp.setattr(tanner, "_WordStream", Holed)
        got = list(_chunked_draws(n, lo_w, hi_w, count, seed))
    assert got == list(_word_reference(_pcg64_words(seed, zero_every), n, lo_w, hi_w, count))


def test_scan_samples_keeps_the_float_slack():
    # beta * 5 lands 5e-12 above the image weight 1, inside the 1e-9 slack
    columns, beta = [1] * 5, 0.2 + 1e-12
    got = tanner._scan_samples(columns, 5, beta, 5, 5, 50, 3)
    assert got == _loop_scan_samples(columns, 5, beta, 5, 5, 50, 3)
    assert got[0] == 0 and got[1] < 1


@pytest.mark.parametrize("bound", [3, 7, 85, (3 << 30) + 1])
def test_lemire_rejects_exactly_below_the_threshold(bound):
    # a word whose low product half equals 2^32 mod bound is accepted,
    # one below it is rejected
    thr = 2**32 % bound
    inv = pow(bound, -1, 2**32)
    words = np.array([thr * inv % 2**32, (thr - 1) * inv % 2**32], dtype=np.uint64)
    vals, rejected = tanner._lemire(words, np.uint64(bound))
    assert rejected.tolist() == [False, True]
    assert vals.tolist() == [int(u) * bound >> 32 for u in words]


# -- the index-array Tanner differential and relabeling against their loops -----


def _old_tanner_differential(x, local):
    """The per-edge list of (row, col) ones that build_tanner replaced."""
    hc = local.reduced_check()
    c = hc.rows
    ones = []
    hc_dense = hc.to_dense()
    for e, ((u, v), (lu, lv)) in enumerate(zip(x.edges.tolist(), x.labels.tolist())):
        for w, lab in ((u, lu), (v, lv)):
            for i in range(c):
                if hc_dense[i, lab]:
                    ones.append((w * c + i, e))
    return F2Matrix.from_entries(x.n * c, x.n_edges, ones)


def _old_reflect_labels(graph, pattern):
    s = graph.s
    labels = []
    for (u, v), (lu, lv) in zip(graph.edges.tolist(), graph.labels.tolist()):
        if pattern[u]:
            lu = s - 1 - lu
        if pattern[v]:
            lv = s - 1 - lv
        labels.append((lu, lv))
    return LabeledGraph(graph.n, graph.edges.tolist(), labels, s)


def _assert_reflection_and_differential_match(graph, pattern, local):
    flipped = tanner._reflect_labels(graph, pattern)
    old = _old_reflect_labels(graph, pattern)
    assert flipped.labels.tolist() == old.labels.tolist()
    assert flipped.edges.tolist() == old.edges.tolist()
    assert build_tanner(flipped, local).differential() == _old_tanner_differential(old, local)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 24), st.data())
def test_cycle_differentials_match_loop_reference(ell, data):
    # a random sense at each vertex of the cycle, with each local code on 2 bits
    pattern = data.draw(st.lists(st.integers(0, 1), min_size=ell, max_size=ell))
    local = data.draw(st.sampled_from([repetition_code(2), full_space_code(2)]))
    _assert_reflection_and_differential_match(cycle_labeled_graph(ell), pattern, local)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=24, max_size=24))
def test_klein_differentials_match_loop_reference(pattern):
    from bpcodes.graphs import klein_quartic_graph

    _assert_reflection_and_differential_match(klein_quartic_graph()[0], pattern, hamming_7_4())


# -- scan buffers ----------------------------------------------------------------
#
# tanner._SCAN_BLOCK and tanner._SAMPLE_SLOTS bound the buffers of the two
# scans; set to 1..7 they split these instances into many small blocks.


def _scan_instances():
    return {
        "klein": (_klein_search(), 0.1, 2, 0.08, 2),
        "K4": (build_tanner(complete_graph(4), repetition_code(3)), 0.5, 2, 0.5, 2),
        "C9": (build_tanner(cycle_labeled_graph(9), repetition_code(2)), 0.5, 3, 0.5, 2),
    }


def _reports(t, alpha7, cap7, alpha8, cap8, seed):
    lam2 = second_eigenvalue(t.graph)
    return (
        check_expansion_theorem7(t, alpha=alpha7, exhaustive_cap=cap7, samples=300, seed=seed, lam2=lam2),
        check_expansion_theorem8(t, alpha=alpha8, exhaustive_cap=cap8, samples=300, seed=seed, lam2=lam2),
    )


@pytest.mark.parametrize("seed", [0, 21, 1021])
@pytest.mark.parametrize("name", ["klein", "K4", "C9"])
def test_expansion_reports_do_not_depend_on_the_buffer_sizes(name, seed):
    case = _scan_instances()[name]
    want = _reports(*case, seed)
    assert all(r.n_enumerated and r.n_sampled == 300 for r in want)
    for block in range(1, 8):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tanner, "_SCAN_BLOCK", block)
            mp.setattr(tanner, "_SAMPLE_SLOTS", block)
            assert _reports(*case, seed) == want


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "scan",
    ["t7 exhaustive", "t8 exhaustive", "t7 sampled", "t8 sampled"],
)
def test_klein_scan_memory_is_bounded(scan):
    """The scans of the bounds suite, each with its own tracemalloc peak:
    at the former 2^15-entry buffers 3.6, 2.0, 4.2 and 4.3 MB, at 2^13
    about 1.1, 0.6, 1.1 and 1.1 MB."""
    d = _klein_search().differential()
    cols, rows = d._transposed_data(), d.row_ints()
    run = {
        "t7 exhaustive": lambda: tanner._scan_exhaustive(cols, 84, 1.0, 4),
        "t8 exhaustive": lambda: tanner._scan_exhaustive(rows, 72, 1.0, 3),
        "t7 sampled": lambda: tanner._scan_samples(cols, 84, 1.0, 5, 8, 20_000, 21),
        "t8 sampled": lambda: tanner._scan_samples(rows, 72, 1.0, 4, 5, 20_000, 21),
    }[scan]
    assert _traced_peak(run) < 1.8e6
