import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpcodes import verify as V
from bpcodes.f2la import IncrementalSpan, solve_matrix


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
@given(st.sampled_from([3, 5, 7]), st.integers(0, 2**32 - 1))
def test_batched_action_on_homology_matches_per_element_solves(ell, seed):
    """The generators' images are the per-element solves' rows at the
    generators."""
    cwa = V._random_free_cyclic_complex(np.random.default_rng(seed), ell)
    gens = cwa.group.generators
    for d in cwa.complex.degrees():
        k, images = V._homology_with_action(cwa, d)
        loop_k, loop_images = _loop_homology_with_action(cwa, d)
        assert k == loop_k
        assert images == ([loop_images[s] for s in gens] if k else [])


def _loop_quotient_tensor_dim(kl, al, kr, ar, group):
    """The bit-by-bit relation loop that the shifted-spread one replaced."""
    span = IncrementalSpan()
    rels = 0
    for h in range(group.order):
        for i, vi_img in enumerate(al[h]):
            for j, wj_img in enumerate(ar[h]):
                vec = 0
                for a in range(kl):
                    if (vi_img >> a) & 1:
                        vec ^= 1 << (a * kr + j)
                for b in range(kr):
                    if (wj_img >> b) & 1:
                        vec ^= 1 << (i * kr + b)
                if vec and span.add(vec):
                    rels += 1
    return kl * kr - rels


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 5, 7]), st.integers(0, 2**32 - 1))
def test_quotient_tensor_dim_matches_bit_loop(ell, seed):
    """The relations of the generators' images span those of every
    element: the count over generators equals the bit loop over all
    elements' images from the per-element solves."""
    rng = np.random.default_rng(seed)
    left = V._random_free_cyclic_complex(rng, ell)
    right = V._random_free_cyclic_complex(rng, ell)
    for p in left.complex.degrees():
        for q in right.complex.degrees():
            hl, hr = V._homology_with_action(left, p), V._homology_with_action(right, q)
            if hl[0] and hr[0]:
                every = (*_loop_homology_with_action(left, p), *_loop_homology_with_action(right, q))
                want = _loop_quotient_tensor_dim(*every, left.group)
                assert V._quotient_tensor_dim(*hl, *hr) == want


# Reports at trial seeds base + 1000*s; each digest covers every trial's
# homology dimension in every degree.
PINNED = {
    "kunneth": (V.kunneth_suite, 11, 200, "[ok] 200 random tensor pairs: violations=0 dims={}",
                ["02eeaf0f018a", "e034268b2e23"]),
    "pages": (V.pages_suite, 12, 100, "[ok] 100 random 2x2 grids: page sums match totals, dims={}",
              ["74b9fb8e1d61", "d0d6904a223f"]),
    "balanced": (V.balanced_suite, 13, 100, "[ok] 100 balanced pairs: violations=0 dims={}",
                 ["4fdbf8a4aa18", "e754554d2f2a"]),
}


@pytest.mark.parametrize("s", [0, 1])
@pytest.mark.parametrize("name", sorted(PINNED))
def test_randomized_suite_reports_are_pinned(name, s):
    suite, base, trials, line, digests = PINNED[name]
    res = suite(trials=trials, seed=base + 1000 * s)
    assert res.as_dict() == {"suite": name, "ok": True, "checks": [line.format(digests[s])]}
