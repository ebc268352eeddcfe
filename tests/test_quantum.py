import itertools

import numpy as np
import pytest

from bpcodes import classical, quantum
from bpcodes.classical import LinearCode, exact_distance, repetition_code
from bpcodes.complexes import ChainComplex, cycle_graph_complex, one_complex, tensor_complex
from bpcodes.errors import DegreeOutOfRange, DomainError, NoLogicals, TooLarge
from bpcodes.f2la import F2Matrix, kernel_basis
from bpcodes.graphs import cycle_labeled_graph, cycle_rotation_action
from bpcodes.products import circle_balanced_product, homology_split
from bpcodes.quantum import (
    BoundReport,
    bare_distance,
    css_from_complex,
    dressed_distance,
    exact_css_distance,
    ldpc_check,
    pk_bounds,
    subsystem_from_split,
)
from bpcodes.tanner import build_tanner


@pytest.fixture(scope="module")
def toy_subsystem():
    graph = cycle_labeled_graph(9)
    t = build_tanner(graph, repetition_code(2))
    action = cycle_rotation_action(graph, 3)
    inst = circle_balanced_product(t, action)
    return subsystem_from_split(inst)


def brute_force_css_distance(code, kind: str) -> int:
    """Oracle: weight-ordered scan over all vectors up to the found weight."""
    if kind == "z":
        checks, other = code.hx, code.hz
    else:
        checks, other = code.hz, code.hx
    from bpcodes.f2la import IncrementalSpan

    span = IncrementalSpan(other.row_ints())
    n = code.n
    for w in range(1, n + 1):
        for support in itertools.combinations(range(n), w):
            v = 0
            for j in support:
                v |= 1 << j
            if checks.mul_vec_int(v) == 0 and not span.contains(v):
                return w
    raise AssertionError("no logical found")


@pytest.mark.parametrize("ell", [2, 3])
def test_toric_code_small_with_oracle(ell):
    cx = tensor_complex(cycle_graph_complex(ell), cycle_graph_complex(ell))
    code = css_from_complex(cx, 1)
    assert code.n == 2 * ell * ell and code.k == 2
    dz = exact_css_distance(code, "z")
    assert dz == ell == brute_force_css_distance(code, "z")
    dx = exact_css_distance(code, "x")
    assert dx == ell == brute_force_css_distance(code, "x")


def test_toric_code_larger():
    for ell in (4, 5):
        cx = tensor_complex(cycle_graph_complex(ell), cycle_graph_complex(ell))
        code = css_from_complex(cx, 1)
        assert (code.n, code.k) == (2 * ell * ell, 2)
        assert exact_css_distance(code, "z") == ell
        assert exact_css_distance(code, "x") == ell


def test_logical_count_matches_homology():
    # the rank-based count must agree with the homology machinery
    for ell in (3, 4):
        cx = tensor_complex(cycle_graph_complex(ell), cycle_graph_complex(ell))
        assert css_from_complex(cx, 1).k == cx.homology_dim(1)
        assert css_from_complex(cx, 2).k == cx.homology_dim(2)


def test_surface_code_from_transposed_product():
    h = repetition_code(3).reduced_check()
    cx = tensor_complex(one_complex(h), one_complex(h.transpose()))
    code = css_from_complex(cx, 1)
    assert (code.n, code.k) == (13, 1)
    assert exact_css_distance(code, "z") == 3
    assert exact_css_distance(code, "x") == 3


def test_zero_differential_complex_all_logical():
    cx = ChainComplex({0: 4, 1: 5, 2: 3}, {})
    code = css_from_complex(cx, 1)
    assert code.k == code.n == 5


def test_css_degree_out_of_range():
    with pytest.raises(DegreeOutOfRange):
        css_from_complex(cycle_graph_complex(3), 7)


def test_distance_of_k0_raises():
    cx = one_complex(F2Matrix.identity(4))
    code = css_from_complex(cx, 1)
    assert code.k == 0
    with pytest.raises(NoLogicals):
        exact_css_distance(code, "z")


def test_commutation_validated():
    with pytest.raises(DomainError):
        from bpcodes.quantum import CssCode

        CssCode(n=2, hx=F2Matrix.identity(2), hz=F2Matrix.identity(2), k=0)


def test_toric_ldpc_weights():
    cx = tensor_complex(cycle_graph_complex(4), cycle_graph_complex(4))
    code = css_from_complex(cx, 1)
    assert ldpc_check(code.hx, code.hz) == (4, 4)


# -- subsystem codes -----------------------------------------------------------


def test_subsystem_counts(toy_subsystem):
    assert toy_subsystem.n == 18
    assert toy_subsystem.num_logical == 1
    assert toy_subsystem.num_gauge == 1
    assert toy_subsystem.base.k == 2


def test_dressed_distances_exact_toy(toy_subsystem):
    dz = dressed_distance(toy_subsystem, "z")
    dx = dressed_distance(toy_subsystem, "x")
    assert dz.exact and dx.exact
    # oracle: enumerate all chains of weight <= found value
    assert dz.value == _oracle_dressed(toy_subsystem, "z")
    assert dx.value == _oracle_dressed(toy_subsystem, "x")


def _oracle_dressed(sub, kind: str) -> int:
    tot = sub.instance.product.total
    if kind == "z":
        checks = tot.differential(1)
        detect = sub.split.fiber_sum
    else:
        checks = tot.differential(2).transpose()
        detect = sub.split.h_reps
    n = tot.dim(1)
    for w in range(1, n + 1):
        for support in itertools.combinations(range(n), w):
            v = 0
            for j in support:
                v |= 1 << j
            if checks.mul_vec_int(v) == 0 and detect.mul_vec_int(v) != 0:
                return w
    raise AssertionError("nothing detected")


def test_dressed_at_most_bare(toy_subsystem):
    # allowing gauge additions can only shrink the minimum; the plain CSS
    # distance scans even pure-gauge classes, so it sits below both
    for kind in ("z", "x"):
        dressed = dressed_distance(toy_subsystem, kind).value
        bare = bare_distance(toy_subsystem, kind)
        assert exact_css_distance(toy_subsystem.base, kind) <= dressed <= bare


def test_no_gauge_reduces_to_plain_distance():
    # with no vertex checks at all the vertical part vanishes and the
    # subsystem machinery degenerates to a plain stabilizer code
    from bpcodes.classical import full_space_code

    graph = cycle_labeled_graph(9)
    t = build_tanner(graph, full_space_code(2))
    action = cycle_rotation_action(graph, 3)
    inst = circle_balanced_product(t, action)
    split = homology_split(inst)
    assert split.dim_v == 0
    sub = subsystem_from_split(inst, split)
    assert dressed_distance(sub, "z").value == exact_css_distance(sub.base, "z")


def _toric(ell):
    return css_from_complex(tensor_complex(cycle_graph_complex(ell), cycle_graph_complex(ell)), 1)


@pytest.mark.parametrize("case", ["classical", "css_z", "css_x", "bare_z", "bare_x"])
def test_too_large_exactly_above_the_cap(monkeypatch, toy_subsystem, case):
    """Each exact distance enumerates at most ENUMERATION_CAP spanning rows."""
    tot = toy_subsystem.instance.product.total
    split = toy_subsystem.split
    call, dim = {
        "classical": (lambda: exact_distance(LinearCode.from_gen(F2Matrix.identity(6))), 6),
        # k = 2 logical representatives plus 8 independent checks of the other type
        "css_z": (lambda: exact_css_distance(_toric(3), "z"), 10),
        "css_x": (lambda: exact_css_distance(_toric(3), "x"), 10),
        "bare_z": (
            lambda: bare_distance(toy_subsystem, "z"),
            split.h_reps.rows + tot.boundary_space(1).dim,
        ),
        "bare_x": (
            lambda: bare_distance(toy_subsystem, "x"),
            split.fiber_sum.rows + tot.differential(1).rows,
        ),
    }[case]
    monkeypatch.setattr(classical, "ENUMERATION_CAP", dim)
    assert call() >= 1
    monkeypatch.setattr(classical, "ENUMERATION_CAP", dim - 1)
    with pytest.raises(TooLarge):
        call()


@pytest.mark.parametrize("kind", ["z", "x"])
def test_dressed_distance_samples_above_the_cap(monkeypatch, toy_subsystem, kind):
    tot = toy_subsystem.instance.product.total
    checks = tot.differential(1) if kind == "z" else tot.differential(2).transpose()
    dim = kernel_basis(checks).basis.rows
    exact = dressed_distance(toy_subsystem, kind).value
    monkeypatch.setattr(quantum, "ENUMERATION_CAP", dim)
    assert dressed_distance(toy_subsystem, kind, lower_bound=0.5).value == exact
    monkeypatch.setattr(quantum, "ENUMERATION_CAP", dim - 1)
    sampled = dressed_distance(toy_subsystem, kind, lower_bound=0.5)
    assert sampled.value is None and not sampled.exact
    assert sampled.lower == 0.5 and sampled.upper >= exact


# -- formula bounds --------------------------------------------------------------


def test_pk_bounds_zero_expansion():
    rep = pk_bounds(
        alpha_ho=0, beta_ho=0, alpha_co=0, beta_co=0,
        s=6, ell=13, n_edges=6552, n_vertices=2184, k_local=4,
    )
    assert rep.dz_lower == 0 and rep.dx_lower == 0
    assert rep.n_formula == 3 * 6552
    assert rep.k_lower == pytest.approx((2 * 4 / 6 - 1) * 6552 / 13)


def test_pk_bounds_min_structure():
    # min{a/2, a b/4} switches branch at b = 2
    lo = pk_bounds(alpha_ho=0.4, beta_ho=3.0, alpha_co=0.1, beta_co=0.1,
                   s=2, ell=3, n_edges=9, n_vertices=9, k_local=1)
    assert lo.dz_lower == pytest.approx(9 * 0.4 / 2)  # beta >= 2: alpha/2 wins
    hi = pk_bounds(alpha_ho=0.4, beta_ho=1.0, alpha_co=0.1, beta_co=0.1,
                   s=2, ell=3, n_edges=9, n_vertices=9, k_local=1)
    assert hi.dz_lower == pytest.approx(9 * 0.4 * 1.0 / 4)


def test_pk_bounds_dx_first_term_redundant():
    rep = pk_bounds(alpha_ho=0.1, beta_ho=0.1, alpha_co=0.3, beta_co=0.5,
                    s=2, ell=3, n_edges=9, n_vertices=9, k_local=1)
    # the printed first term alpha_co*|X^1| never beats alpha_co*|X^1|/2
    assert rep.dx_lower <= rep.alpha_co * rep.n_edges / 2


def test_pk_bounds_rejects_negative():
    with pytest.raises(DomainError):
        pk_bounds(alpha_ho=-1, beta_ho=0, alpha_co=0, beta_co=0,
                  s=2, ell=3, n_edges=9, n_vertices=9, k_local=1)
