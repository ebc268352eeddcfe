import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpcodes.complexes import (
    ChainComplex,
    DoubleComplex,
    cycle_graph_complex,
    homology_2x2_via_pages,
    one_complex,
    tensor_complex,
    tensor_double_complex,
    total_complex,
    verify_euler,
    verify_kunneth,
)
from bpcodes.errors import DegreeOutOfRange, NotChainComplex, NotDoubleComplex, TooSmall
from bpcodes.f2la import F2Matrix
from bpcodes.verify import _random_invertible


def rand_one_complex(rng, lo=1, hi=6):
    rows = int(rng.integers(lo, hi))
    cols = int(rng.integers(lo, hi))
    return one_complex(F2Matrix.from_dense(rng.integers(0, 2, (rows, cols))))


def test_cycle_complex_homology():
    for ell in (2, 3, 5, 8):
        c = cycle_graph_complex(ell)
        assert c.homology_dim(1) == 1
        assert c.homology_dim(0) == 1


def test_cycle_complex_structure():
    c = cycle_graph_complex(3)
    d = c.differential(1).to_dense()
    assert d.sum(axis=0).tolist() == [2, 2, 2]  # each edge hits two vertices
    # kernel of the 4-cycle is the all-ones vector
    c4 = cycle_graph_complex(4)
    from bpcodes.f2la import kernel_basis

    kb = kernel_basis(c4.differential(1))
    assert kb.dim == 1 and kb.basis.row_int(0) == 0b1111


def test_cycle_complex_too_small():
    with pytest.raises(TooSmall):
        cycle_graph_complex(1)


def test_rejects_nonsquaring_differentials():
    d2 = F2Matrix.from_dense([[1], [0]])
    d1 = F2Matrix.from_dense([[1, 0]])
    with pytest.raises(NotChainComplex):
        ChainComplex({0: 1, 1: 2, 2: 1}, {1: d1, 2: d2})


def test_rejects_bad_shapes():
    with pytest.raises(NotChainComplex):
        ChainComplex({0: 2, 1: 3}, {1: F2Matrix.zeros(3, 3)})
    with pytest.raises(NotChainComplex):
        ChainComplex({0: 1, 2: 1}, {})


def test_degree_out_of_range():
    c = cycle_graph_complex(3)
    with pytest.raises(DegreeOutOfRange):
        c.homology_dim(5)


def test_homology_equals_cohomology():
    rng = np.random.default_rng(0)
    for _ in range(25):
        c = rand_one_complex(rng)
        for i in (0, 1):
            assert c.homology_dim(i) == c.cohomology_dim(i)


def test_torus_parameters():
    for ell in (2, 3, 4):
        t = tensor_complex(cycle_graph_complex(ell), cycle_graph_complex(ell))
        assert t.dim(1) == 2 * ell * ell
        assert t.homology_dim(1) == 2
        assert t.homology_dim(0) == 1 and t.homology_dim(2) == 1


def test_tensor_grid_dims_are_products():
    rng = np.random.default_rng(1)
    c, d = rand_one_complex(rng), rand_one_complex(rng)
    e = tensor_double_complex(c, d)
    for p in (0, 1):
        for q in (0, 1):
            assert e.dim(p, q) == c.dim(p) * d.dim(q)


def test_tensor_with_point_is_identity():
    c = cycle_graph_complex(4)
    point = ChainComplex({0: 1}, {})
    t = tensor_complex(c, point)
    assert {i: t.dim(i) for i in t.degrees()} == {0: 4, 1: 4}
    assert t.differential(1) == c.differential(1)


def test_total_of_zero_grid():
    e = DoubleComplex({(0, 0): 2, (1, 0): 3, (0, 1): 3, (1, 1): 2}, {}, {})
    t = total_complex(e)
    assert t.homology_dim(1) == 6
    assert t.homology_dim(0) == 2 and t.homology_dim(2) == 2


def test_double_complex_rejects_noncommuting():
    grid = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    ident = F2Matrix.identity(1)
    zero = F2Matrix.zeros(1, 1)
    with pytest.raises(NotDoubleComplex):
        DoubleComplex(
            grid,
            {(0, 1): ident, (1, 1): ident},
            {(1, 0): ident, (1, 1): zero},
        )


def test_kunneth_cycle_squares():
    rep = verify_kunneth(cycle_graph_complex(3), cycle_graph_complex(3))[1]
    assert rep.total_dim == rep.sum_of_products == 2


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_kunneth_random_pairs(seed):
    rng = np.random.default_rng(seed)
    c, d = rand_one_complex(rng), rand_one_complex(rng)
    reports = verify_kunneth(c, d)
    assert sorted(reports) == [0, 1, 2]
    for n in (0, 1, 2):
        assert reports[n].holds


def test_kunneth_acyclic_factor():
    # identity differential: homology vanishes everywhere
    acyclic = one_complex(F2Matrix.identity(3))
    c = cycle_graph_complex(4)
    reports = verify_kunneth(c, acyclic)
    for n in (0, 1, 2):
        assert reports[n].total_dim == 0


def test_pages_toric():
    e = tensor_double_complex(cycle_graph_complex(3), cycle_graph_complex(3))
    dims = homology_2x2_via_pages(e)
    assert dims[1] == 2
    assert dims[0] == 1
    assert dims[2] == 1


def test_pages_zero_grid_sums_antidiagonal():
    e = DoubleComplex({(0, 0): 2, (1, 0): 3, (0, 1): 5, (1, 1): 4}, {}, {})
    dims = homology_2x2_via_pages(e)
    assert dims[1] == 8
    assert dims[2] == 4


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_pages_match_total_homology_on_sheared_grids(seed):
    # factors with 0..5 rows and columns, so some grid cells are zero
    rng = np.random.default_rng(seed)
    c, d = rand_one_complex(rng, lo=0), rand_one_complex(rng, lo=0)
    e = _sheared(rng, tensor_double_complex(c, d))
    tot = total_complex(e)
    dims = homology_2x2_via_pages(e)
    assert sorted(dims) == [0, 1, 2]
    for n in (0, 1, 2):
        assert dims[n] == (tot.homology_dim(n) if n in tot.dims else 0)


def _sheared(rng, e):
    """e with every cell's basis changed by a random invertible matrix."""
    basis = {pq: _random_invertible(rng, e.dim(*pq)) for pq in e.grid}
    vd = {
        (p, q): basis[(p, q - 1)][0].matmul(m).matmul(basis[(p, q)][1])
        for (p, q), m in e.vdiffs.items()
    }
    hd = {
        (p, q): basis[(p - 1, q)][0].matmul(m).matmul(basis[(p, q)][1])
        for (p, q), m in e.hdiffs.items()
    }
    return DoubleComplex(e.grid, vd, hd, check=True)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_euler_characteristic(seed):
    rng = np.random.default_rng(seed)
    c, d = rand_one_complex(rng), rand_one_complex(rng)
    assert verify_euler(tensor_complex(c, d))


def test_shift():
    c = cycle_graph_complex(3).shift(2)
    assert c.homology_dim(3) == 1 and c.homology_dim(2) == 1
