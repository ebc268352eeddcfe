import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpcodes.algebra import (
    FiniteGroup,
    GroupAlgebraElem,
    cyclic_group,
    lift_group_algebra_matrix,
)
from bpcodes.classical import repetition_code
from bpcodes.complexes import cycle_graph_complex, one_complex, tensor_complex
from bpcodes.errors import (
    ActionInvalid,
    DimensionMismatch,
    EvenOrder,
    IncidenceMissing,
    NotAutomorphism,
    NotFreeOnBasis,
)
from bpcodes.f2la import F2Matrix, IncrementalSpan, kernel_basis, rank
from bpcodes.graphs import cycle_labeled_graph, cycle_rotation_action
from bpcodes.pipeline import Recipe, build_instance
from bpcodes.products import (
    ComplexWithAction,
    _canonical_maps,
    balanced_product,
    circle_balanced_product,
    cycle_complex_with_action,
    fiber_bundle_complex,
    homology_split,
    horizontal_homology_dim,
    identity_automorphism,
    lifted_product,
    pi_iota_is_identity,
    rotation_automorphism,
    aligned_total,
    tanner_group_algebra_matrix,
    triple_equivalence_holds,
    trivial_connection,
    verify_bundle_kunneth,
)
from bpcodes.tanner import build_tanner
from test_graphs import _old_pair_orbits


@pytest.fixture(scope="module")
def toy():
    graph = cycle_labeled_graph(9)
    t = build_tanner(graph, repetition_code(2))
    action = cycle_rotation_action(graph, 3)
    return circle_balanced_product(t, action)


# -- fiber bundles -------------------------------------------------------------


def test_trivial_connection_is_tensor_product():
    b, f = cycle_graph_complex(3), cycle_graph_complex(4)
    fb = fiber_bundle_complex(b, f, trivial_connection(b, f))
    tens = tensor_complex(b, f)
    for i in (1, 2):
        assert fb.total.differential(i) == tens.differential(i)
    assert fb.total.homology_dim(1) == 2


def test_twisted_bundle_kunneth():
    b, f = cycle_graph_complex(2), cycle_graph_complex(5)
    conn = trivial_connection(b, f)
    conn[(0, 0)] = rotation_automorphism(5, 2)
    fb = fiber_bundle_complex(b, f, conn)
    rep = verify_bundle_kunneth(fb, 1)
    assert rep.hypothesis_ok and rep.total_dim == rep.sum_of_products == 2


def test_bundle_missing_incidence_rejected():
    b, f = cycle_graph_complex(3), cycle_graph_complex(3)
    conn = trivial_connection(b, f)
    conn.pop(next(iter(conn)))
    with pytest.raises(IncidenceMissing):
        fiber_bundle_complex(b, f, conn)


def test_bundle_non_automorphism_rejected():
    b, f = cycle_graph_complex(3), cycle_graph_complex(3)
    conn = trivial_connection(b, f)
    bad = F2Matrix.from_dense(np.triu(np.ones((3, 3), dtype=int)))
    from bpcodes.products import FiberAutomorphism

    conn[(0, 0)] = FiberAutomorphism(bad, bad)
    with pytest.raises(NotAutomorphism):
        fiber_bundle_complex(b, f, conn)


def test_bundle_projection_iso_with_full_rank_base():
    # base with independent checks: H_0(B) = 0
    rng = np.random.default_rng(4)
    while True:
        m = F2Matrix.from_dense(rng.integers(0, 2, (3, 5)))
        if rank(m) == 3:
            break
    base = one_complex(m)
    fiber = cycle_graph_complex(5)
    conn = trivial_connection(base, fiber)
    for key in list(conn)[:2]:
        conn[key] = rotation_automorphism(5, 3)
    fb = fiber_bundle_complex(base, fiber, conn)
    rep = verify_bundle_kunneth(fb, 1)
    assert rep.hypothesis_ok and rep.projection_iso is True


def test_bundle_hypothesis_failure_skips():
    # an automorphism moving degree-1 homology: swap two fiber edges of a
    # disconnected fiber (two 2-cycles), exchanging the cycles
    d = F2Matrix.from_dense([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]])
    fiber = one_complex(d)
    swap = F2Matrix.from_entries(4, 4, [(0, 2), (1, 3), (2, 0), (3, 1)])
    from bpcodes.products import FiberAutomorphism

    aut = FiberAutomorphism(swap, swap)
    base = cycle_graph_complex(3)
    conn = trivial_connection(base, fiber)
    conn[(0, 0)] = aut
    fb = fiber_bundle_complex(base, fiber, conn)
    rep = verify_bundle_kunneth(fb, 1)
    assert not rep.hypothesis_ok


# -- balanced products ----------------------------------------------------------


def test_trivial_group_balanced_is_tensor():
    triv = cyclic_group(1)
    c = cycle_graph_complex(3)
    ca = ComplexWithAction(c, triv, {d: [list(range(3))] for d in (0, 1)})
    bp = balanced_product(ca, ca)
    tens = tensor_complex(c, c)
    assert bp.total.dims == tens.dims
    for i in (1, 2):
        assert bp.total.differential(i) == tens.differential(i)


def test_balanced_cycle_dims_divide(toy):
    # cells carry dim C_p * dim D_q / |H|
    bp = toy.product
    assert bp.cell_dim(1, 1) == 9 * 3 // 3
    assert bp.cell_dim(1, 0) == 9
    assert bp.cell_dim(0, 1) == 9
    assert bp.total.dim(1) == 18


def test_coinvariants_from_trivial_right_factor():
    # W = F_2 with the trivial action: quotient dim = dim V / |H|
    ell = 3
    grp = cyclic_group(ell)
    v = one_complex(F2Matrix.zeros(3, 3))
    perms_v = {
        d: [[(j + k) % 3 for j in range(3)] for k in range(3)] for d in (0, 1)
    }
    va = ComplexWithAction(v, grp, perms_v)
    w = one_complex(F2Matrix.zeros(1, 1))
    perms_w = {d: [[0], [0], [0]] for d in (0, 1)}
    wa = ComplexWithAction(w, grp, perms_w)
    bp = balanced_product(va, wa)
    assert bp.cell_dim(1, 1) == 1 and bp.cell_dim(0, 0) == 1


def test_balanced_rejects_nonfree_left():
    grp = cyclic_group(2)
    c = one_complex(F2Matrix.zeros(2, 2))
    perms = {d: [[0, 1], [0, 1]] for d in (0, 1)}  # trivial, not free
    left = ComplexWithAction(c, grp, perms)
    with pytest.raises(NotFreeOnBasis):
        balanced_product(left, left)


def test_action_table_must_be_a_homomorphism():
    """[id, s, s] on Z_3: every permutation is fixed-point free and commutes
    with the differential, but s o s != s."""
    cx = cycle_graph_complex(3)
    s = [1, 2, 0]
    with pytest.raises(ActionInvalid):
        ComplexWithAction(cx, cyclic_group(3), {d: [[0, 1, 2], s, s] for d in (0, 1)})


def test_action_group_must_be_abelian():
    perms = list(itertools.permutations(range(3)))
    s3 = FiniteGroup(perms, lambda x, y: tuple(x[i] for i in y), name="S_3")
    regular = [[s3.mul(h, x) for x in range(6)] for h in range(6)]
    cx = one_complex(F2Matrix.identity(6))
    with pytest.raises(ActionInvalid):
        ComplexWithAction(cx, s3, {1: regular, 0: regular})


def test_balanced_rejects_group_with_other_name():
    left = cycle_complex_with_action(3)
    c3 = FiniteGroup(range(3), lambda a, b: (a + b) % 3, name="C_3")
    right = ComplexWithAction(cycle_graph_complex(3), c3, left.perms)
    with pytest.raises(DimensionMismatch):
        balanced_product(left, right)


def test_balanced_rejects_group_with_other_table():
    left = cycle_complex_with_action(4)
    klein4 = FiniteGroup(range(4), lambda a, b: a ^ b, name=left.group.name)
    regular = [[h ^ x for x in range(4)] for h in range(4)]
    right = ComplexWithAction(one_complex(F2Matrix.identity(4)), klein4, {1: regular, 0: regular})
    with pytest.raises(DimensionMismatch):
        balanced_product(left, right)


def test_balanced_accepts_equal_groups_built_twice():
    left = cycle_complex_with_action(3)
    right = ComplexWithAction(cycle_graph_complex(3), cyclic_group(3), left.perms)
    assert balanced_product(left, right).total.dims == {2: 3, 1: 6, 0: 3}


def test_balanced_rejects_non_chain_action():
    grp = cyclic_group(2)
    d = F2Matrix.from_dense([[1, 0], [0, 0]])
    c = one_complex(d)
    perms = {d_: [[0, 1], [1, 0]] for d_ in (0, 1)}
    with pytest.raises(Exception):
        ComplexWithAction(c, grp, perms)


# -- lifted products -------------------------------------------------------------


def test_lifted_1x1_one_plus_g():
    e = GroupAlgebraElem(3, 0b011)
    lp = lifted_product([[e]], [[e]])
    assert {i: lp.total.dim(i) for i in lp.total.degrees()} == {0: 3, 1: 6, 2: 3}
    assert lp.total.homology_dim(1) == 2


def test_lifted_ell_1_is_plain_hypergraph_product():
    # ell = 1 collapses the group: plain hypergraph product of binary matrices
    one = GroupAlgebraElem(1, 1)
    zero = GroupAlgebraElem(1, 0)
    a = [[one, zero], [one, one]]
    lp = lifted_product(a, [[one]])
    assert {i: lp.total.dim(i) for i in lp.total.degrees()} == {0: 2, 1: 4, 2: 2}
    d1 = lp.total.differential(1).to_dense()
    assert d1[:, :2].tolist() == [[1, 0], [1, 1]]  # the A block survives verbatim


def _kron_reference(a, b):
    """Kronecker product over GF(2)[Z_ell], left-factor-major, one
    GroupAlgebraElem per entry."""
    ra, ca, rb, cb = len(a), len(a[0]), len(b), len(b[0])
    ell = a[0][0].ell
    out = [[GroupAlgebraElem.zero(ell) for _ in range(ca * cb)] for _ in range(ra * rb)]
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k][j * cb + l] = a[i][j].mul(b[k][l])
    return out


def _identity_reference(n, ell):
    return [
        [GroupAlgebraElem.one(ell) if i == j else GroupAlgebraElem.zero(ell) for j in range(n)]
        for i in range(n)
    ]


def _lifted_reference(a, b):
    """(d2, d1, dims) of the lifted product through the four Kronecker
    products over the group algebra, each lifted as a whole matrix (the lift
    itself is checked against an entry-by-entry loop in test_algebra)."""
    ell = a[0][0].ell
    m, n, l, k = len(a), len(a[0]), len(b), len(b[0])
    lift = lift_group_algebra_matrix
    top = lift(_kron_reference(_identity_reference(n, ell), b))
    bottom = lift(_kron_reference(a, _identity_reference(k, ell)))
    left = lift(_kron_reference(a, _identity_reference(l, ell)))
    right = lift(_kron_reference(_identity_reference(m, ell), b))
    dims = {2: n * k * ell, 1: (n * l + m * k) * ell, 0: m * l * ell}
    return top.vstack(bottom), left.hstack(right), dims


@st.composite
def group_algebra_pair(draw):
    ell = draw(st.integers(1, 6))

    def matrix(rows, cols):
        masks = draw(st.lists(st.integers(0, (1 << ell) - 1), min_size=rows * cols, max_size=rows * cols))
        return [[GroupAlgebraElem(ell, masks[r * cols + c]) for c in range(cols)] for r in range(rows)]

    a = matrix(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    b = matrix(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    return a, b


@settings(max_examples=200, deadline=None)
@given(group_algebra_pair())
def test_lifted_product_matches_kronecker_reference(pair):
    a, b = pair
    d2, d1, dims = _lifted_reference(a, b)
    tot = lifted_product(a, b).total
    assert tot.dims == dims
    assert tot.differential(2) == d2
    assert tot.differential(1) == d1


def test_lifted_product_rejects_mixed_orders():
    with pytest.raises(DimensionMismatch):
        lifted_product([[GroupAlgebraElem.one(3)]], [[GroupAlgebraElem.one(5)]])


def test_circle_product_matches_lifted_tanner(toy):
    a = tanner_group_algebra_matrix(toy)
    b = [[GroupAlgebraElem(3, 0b11)]]
    lp = lifted_product(a, b)
    bal = aligned_total(toy, "balanced")
    for i in (1, 2):
        assert lp.total.differential(i) == bal.differential(i)


# -- circle specialization --------------------------------------------------------


def test_even_order_rejected():
    graph = cycle_labeled_graph(8)
    t = build_tanner(graph, repetition_code(2))
    action = cycle_rotation_action(graph, 2)
    with pytest.raises(EvenOrder):
        circle_balanced_product(t, action)


def test_action_graph_mismatch():
    g1 = cycle_labeled_graph(9)
    g2 = cycle_labeled_graph(9)
    t = build_tanner(g1, repetition_code(2))
    action = cycle_rotation_action(g2, 3)
    with pytest.raises(ActionInvalid):
        circle_balanced_product(t, action)


def test_triple_equivalence_toy(toy):
    assert triple_equivalence_holds(toy)


def test_homology_split_toy(toy):
    split = homology_split(toy)
    assert split.dim_h == 1 and split.dim_v == 1
    assert split.dim_h + split.dim_v == toy.product.total.homology_dim(1) == 2
    assert pi_iota_is_identity(split)
    assert horizontal_homology_dim(toy) == toy.base_tanner.code_dimension() == 1


def test_split_projections_are_complementary(toy):
    split = homology_split(toy)
    tot = toy.product.total
    bounds = tot.boundary_space(1).basis.row_ints()
    # h and v representatives stay independent modulo boundaries
    span = IncrementalSpan(bounds)
    for v in split.h_reps.row_ints() + split.v_reps.row_ints():
        assert span.add(v)
    # each homology basis element is an h part plus a v part plus a boundary
    for z in tot.homology_basis(1).cycle_reps.basis.row_ints():
        assert span.contains(z)


def test_split_invariant_under_adding_boundaries(toy):
    # the fiber-sum projection formula ignores boundaries
    split = homology_split(toy)
    tot = toy.product.total
    bounds = tot.boundary_space(1).basis
    rng = np.random.default_rng(0)
    z = tot.homology_basis(1).cycle_reps.basis.row_int(0)
    base_img = split.fiber_sum.mul_vec_int(z)
    for _ in range(10):
        b = 0
        for i in range(bounds.rows):
            if rng.integers(0, 2):
                b ^= bounds.row_int(i)
        assert split.fiber_sum.mul_vec_int(z ^ b) == base_img


def test_pi_iota_detects_a_flipped_lift_entry():
    tanner, action, _ = build_instance(Recipe(p=5, q=7))
    split = homology_split(circle_balanced_product(tanner, action))
    assert pi_iota_is_identity(split)
    flip = F2Matrix.from_entries(split.h_reps.rows, split.h_reps.cols, ([0], [0]))
    assert not pi_iota_is_identity(dataclasses.replace(split, h_reps=split.h_reps.add(flip)))


def _full_size_v_reps(inst):
    """The vertical selection homology_split made at full size before it
    moved to the base: a greedy pass over the constant-fiber check chains
    against a span of the rows of d_2^T and the horizontal
    representatives. Returns (v_reps, dim_h)."""
    bp = inst.product
    tot = bp.total
    qd = inst.quotient
    ell = inst.action.group.order
    n1 = tot.dim(1)
    u_dim = bp.cell_dim(1, 0)
    base_code = kernel_basis(inst.base_tanner.complex.differential(1)).basis
    maps = _canonical_maps(inst)
    u_keys = maps[(1, 0)]
    fiber_sum = F2Matrix.from_entries(
        qd.base.n_edges, n1, (u_keys // ell, np.arange(len(u_keys), dtype=np.int64))
    )
    iota = base_code.matmul(fiber_sum)

    c = inst.tanner.checks_per_vertex
    check_keys = maps.get((0, 1), np.zeros(0, dtype=np.int64))
    v_candidates = F2Matrix.from_entries(
        qd.base.n * c, n1, (check_keys // ell, u_dim + np.arange(len(check_keys)))
    ).row_ints()
    boundary_rows = tot.differential(2).transpose().iter_row_ints()
    span = IncrementalSpan(itertools.chain(boundary_rows, iota.iter_row_ints()))
    v_rows = [cand for cand in v_candidates if span.add(cand)]
    return F2Matrix.from_rows(v_rows, n1), iota.rows


def _assert_split_matches_full_size(inst):
    split = homology_split(inst)
    v_reps, dim_h = _full_size_v_reps(inst)
    assert split.v_reps == v_reps
    assert (split.dim_h, split.dim_v) == (dim_h, v_reps.rows)
    tot = inst.product.total
    d1, d2 = tot.differential(1), tot.differential(2)
    dim_h1 = tot.homology_dim(1)
    assert split.dim_h + split.dim_v == dim_h1
    # both kinds of representatives are cycles
    assert split.h_reps.matmul(d1.transpose()).is_zero()
    assert split.v_reps.matmul(d1.transpose()).is_zero()
    # every class is a horizontal plus a vertical class plus a boundary
    reps = split.h_reps.vstack(split.v_reps)
    assert rank(d2.transpose().vstack(reps)) == rank(d2) + dim_h1
    # the fiber sum ignores boundaries and carries every cycle to a base
    # codeword: base_diff . fiber_sum kills ker d1, so its rows lie in the
    # row space of d1
    assert split.fiber_sum.matmul(d2).is_zero()
    base_diff = inst.base_tanner.complex.differential(1)
    assert rank(d1.vstack(base_diff.matmul(split.fiber_sum))) == rank(d1)


def test_vertical_choice_on_base_matches_full_size_toy(toy):
    _assert_split_matches_full_size(toy)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([3, 5, 7, 9]), st.integers(3, 6), st.sampled_from(["rep:2", "full:2"]))
def test_vertical_choice_on_base_matches_full_size_cycles(ell, m, local):
    tanner, action, _ = build_instance(Recipe(graph=f"cycle:{ell * m}", ell=ell, local=local))
    _assert_split_matches_full_size(circle_balanced_product(tanner, action))


@pytest.mark.parametrize("q", [7, 13])
@pytest.mark.parametrize("seed", range(4))
def test_vertical_choice_on_base_matches_full_size_lps(q, seed):
    tanner, action, _ = build_instance(Recipe(p=5, q=q, local=f"gv:6,0.1,{seed}"))
    _assert_split_matches_full_size(circle_balanced_product(tanner, action))


def test_cycle_complex_with_action():
    cwa = cycle_complex_with_action(5)
    assert cwa.complex.homology_dim(1) == 1
    assert cwa.group.order == 5


def test_balanced_product_rejects_a_non_free_left_factor():
    """Z_3 rotates the three edges freely but fixes the single vertex; the
    all-ones differential commutes with both, so the factor is a valid
    action, and only the balanced product, which needs a free left
    factor, rejects it at the boundary."""
    cx = one_complex(F2Matrix.from_dense([[1, 1, 1]]))
    perms = {1: [[(j + k) % 3 for j in range(3)] for k in range(3)], 0: [[0]] * 3}
    left = ComplexWithAction(cx, cyclic_group(3), perms)
    message = "^left action not free: a pair orbit is not full size$"
    with pytest.raises(NotFreeOnBasis, match=message):
        balanced_product(left, cycle_complex_with_action(3))


def _loop_horizontal_homology_dim(inst):
    """The per-edge bit loop that one nonzeros() of the kernel replaced,
    with each edge's coordinate, the orbit of (e, 0), from the pair-orbit
    loop; the closed-form orbit ids must agree with it."""
    tanner_kernel = kernel_basis(inst.tanner.differential()).basis
    bp = inst.product
    n_edges = inst.tanner.graph.n_edges
    _, orbit_of = _old_pair_orbits(
        bp.left.perms[1].tolist(), bp.right.perms[0].tolist(), bp.group, n_edges, bp.right.dim(0)
    )
    coord = orbit_of[:, 0].tolist()
    assert bp.cells[(1, 0)].orbit_ids(np.arange(n_edges), 0).tolist() == coord
    d2t = inst.product.total.differential(2).transpose()
    span = IncrementalSpan(d2t.row_ints())
    dim = 0
    for w in tanner_kernel.row_ints():
        chain = 0
        for e in range(inst.tanner.graph.n_edges):
            if (w >> e) & 1:
                chain |= 1 << coord[e]
        dim += span.add(chain)
    return dim


def test_horizontal_homology_dim_matches_edge_loop(toy):
    assert horizontal_homology_dim(toy) == _loop_horizontal_homology_dim(toy) == 1
