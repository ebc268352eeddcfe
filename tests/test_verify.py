import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpcodes import verify as V
from bpcodes.f2la import solve_matrix


def _loop_homology_with_action(cwa, d):
    """The per-group-element solve that the batched one replaced, with its
    matrices read column by column as the quotient count reads them."""
    basis = cwa.complex.homology_basis(d)
    reps = basis.cycle_reps.basis
    k = reps.rows
    if k == 0:
        return 0, []
    solver = reps.vstack(basis.boundary_space.basis).transpose()
    keep = np.arange(k)
    mats = []
    for h in range(cwa.group.order):
        images = reps.permuted(keep, cwa.perms[d][h]).transpose()
        x = solve_matrix(solver, images)
        assert x is not None
        mats.append(x.submatrix_rows(keep).transpose().row_ints())
    return k, mats


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 5, 7]), st.sampled_from(["left", "right"]), st.integers(0, 2**32 - 1))
def test_batched_action_on_homology_matches_per_element_solves(ell, side, seed):
    cwa = V._random_free_cyclic_complex(np.random.default_rng(seed), ell, side=side)
    for d in cwa.complex.degrees():
        assert V._homology_with_action(cwa, d) == _loop_homology_with_action(cwa, d)


PINNED = {
    "kunneth": (V.kunneth_suite, 11, 200, ["[ok] 200 random tensor pairs: violations=0"]),
    "pages": (V.pages_suite, 12, 100, ["[ok] 100 random 2x2 grids: page sums match totals"]),
    "balanced": (V.balanced_suite, 13, 100, ["[ok] 100 balanced pairs: violations=0"]),
}


@pytest.mark.parametrize("s", [0, 1])
@pytest.mark.parametrize("name", sorted(PINNED))
def test_randomized_suite_reports_are_pinned(name, s):
    suite, base, trials, lines = PINNED[name]
    res = suite(trials=trials, seed=base + 1000 * s)
    assert res.as_dict() == {"suite": name, "ok": True, "checks": lines}
