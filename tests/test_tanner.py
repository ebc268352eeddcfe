import itertools
import math

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
from bpcodes.f2la import kernel_basis
from bpcodes.graphs import cycle_labeled_graph, second_eigenvalue
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
