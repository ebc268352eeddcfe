import functools
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from bpcodes import algebra, graphs
from bpcodes import verify as V
from bpcodes.algebra import FiniteGroup, build_pgl2, build_psl2, cyclic_group, unipotent_subgroup
from bpcodes.complexes import one_complex
from bpcodes.errors import (
    BpcodesError,
    Disconnected,
    DomainError,
    IncidenceDegenerate,
    NotSimpleGraph,
    NotSymmetric,
    QuotientConditionViolated,
    SelfLoop,
)
from bpcodes.f2la import F2Matrix
from bpcodes.graphs import (
    GraphAction,
    brute_force_expansion_check,
    cayley_graph,
    cayley_right_action,
    check_quotient_condition,
    cheeger_lower_bound,
    complete_graph,
    coset_graph,
    cycle_labeled_graph,
    cycle_rotation_action,
    edge_to_vertex_beta,
    find_rotation_pair,
    graphs_isomorphic_by_map,
    klein_quartic_graph,
    alon_chung_edge_fraction,
    lps_generators,
    lps_graph,
    lps_quadruples,
    quotient_graph,
    reconstruct_from_quotient,
    second_eigenvalue,
    solve_x2_y2_plus_one,
    strong_neighbor_beta,
    LabeledGraph,
    _edge_images,
)
from bpcodes.products import ComplexWithAction, balanced_product


def _pairs(table) -> list[tuple[int, int]]:
    """The rows of an (n, 2) edge or label array as tuples of ints."""
    return [tuple(r) for r in table.tolist()]


def petersen() -> LabeledGraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges = []
    for u, v in outer + spokes + inner:
        edges.append((min(u, v), max(u, v)))
    # greedy labeling: next free label at each endpoint
    used = [set() for _ in range(10)]
    labels = []
    for u, v in edges:
        lu = min(set(range(3)) - used[u])
        lv = min(set(range(3)) - used[v])
        used[u].add(lu)
        used[v].add(lv)
        labels.append((lu, lv))
    return LabeledGraph(10, edges, labels, 3)


# -- LPS ingredients ---------------------------------------------------------


def test_s5_quadruples():
    assert lps_quadruples(5) == sorted(
        [(1, -2, 0, 0), (1, 2, 0, 0), (1, 0, -2, 0), (1, 0, 2, 0), (1, 0, 0, -2), (1, 0, 0, 2)]
    )


@pytest.mark.parametrize("p", [5, 13, 17, 29])
def test_quadruple_counts(p):
    assert len(lps_quadruples(p)) == p + 1


def test_x2_y2_solution():
    x, y = solve_x2_y2_plus_one(13)
    assert (x * x + y * y + 1) % 13 == 0
    assert (5 * 5 + 0 * 0 + 1) % 13 == 0  # (5,0) is also a solution


@pytest.mark.parametrize("p,q", [(5, 13), (13, 17)])
def test_lps_generator_sets(p, q):
    gens = lps_generators(p, q)
    assert len(gens) == p + 1
    assert {m.inv() for m in gens} == set(gens)
    # no involutions for p = 1 mod 4 (labeling convention relies on it)
    assert all(m.inv() != m for m in gens)


def test_lps_graph_shape():
    graph, group, gens = lps_graph(5, 13)
    assert graph.n == 2184 and graph.s == 6
    assert graph.n_edges == 2184 * 6 // 2
    assert graph.is_connected()


def test_cayley_cycle():
    z9 = cyclic_group(9)
    g = cayley_graph(z9, [1, 8])
    assert (g.n, g.n_edges, g.s) == (9, 9, 2)
    assert g.is_connected()


def test_cayley_vertex_transitive():
    # left multiplication permutes edges (Cayley property) on a small group
    z7 = cyclic_group(7)
    g = cayley_graph(z7, [2, 5])
    edge_set = set(_pairs(g.edges))
    for shift in range(7):
        for u, v in _pairs(g.edges):
            iu, iv = (u + shift) % 7, (v + shift) % 7
            assert (min(iu, iv), max(iu, iv)) in edge_set


def test_cayley_rejects_asymmetric_and_involutions():
    z9 = cyclic_group(9)
    with pytest.raises(NotSymmetric):
        cayley_graph(z9, [1])
    z6 = cyclic_group(6)
    with pytest.raises(NotSymmetric):
        cayley_graph(z6, [3, 1, 5])  # 3 is an involution
    with pytest.raises(SelfLoop):
        cayley_graph(z9, [0, 1, 8])


# -- spectra ------------------------------------------------------------------


def test_second_eigenvalue_complete_graph():
    assert abs(second_eigenvalue(complete_graph(6)) + 1) < 1e-9


@pytest.mark.parametrize("ell", [5, 7, 12])
def test_second_eigenvalue_cycle_closed_form(ell):
    lam2 = second_eigenvalue(cycle_labeled_graph(ell))
    assert abs(lam2 - 2 * math.cos(2 * math.pi / ell)) < 1e-9



@pytest.mark.parametrize(
    "make",
    [
        lambda: lps_graph(5, 7)[0],
        lambda: klein_quartic_graph()[0],
        lambda: cycle_labeled_graph(5),
        lambda: cycle_labeled_graph(12),
        lambda: complete_graph(4),
        lambda: complete_graph(9),
    ],
)
def test_second_eigenvalue_equals_the_plain_dense_solve(make):
    # the in-place solve on the transposed adjacency gives LAPACK the same input
    g = make()
    a = g.adjacency()
    assert second_eigenvalue(g) == float(scipy.linalg.eigvalsh(a)[-2])
    u, v = np.nonzero(np.triu(a))
    assert sorted(zip(u.tolist(), v.tolist())) == sorted(_pairs(g.edges))
    assert (g.adjacency_sparse().toarray() == a).all()


def _relisted(g: LabeledGraph, seed: int, flip: str) -> LabeledGraph:
    """g with its edge rows shuffled (seed > 0) and flipped to larger end
    first ("all", "some" at random, or "none"), labels kept with their
    ends. A flipped graph is assembled past the constructor, which wants
    the smaller end first."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(g.n_edges) if seed else np.arange(g.n_edges)
    edges, labels = g.edges[order], g.labels[order]
    turn = {"all": np.ones(g.n_edges, dtype=bool), "some": rng.random(g.n_edges) < 0.5,
            "none": np.zeros(g.n_edges, dtype=bool)}[flip]
    edges[turn], labels[turn] = edges[turn, ::-1], labels[turn, ::-1]
    if not turn.any():
        return LabeledGraph(g.n, edges, labels, g.s)
    h = object.__new__(LabeledGraph)
    h.n, h.s, h.edges, h.labels = g.n, g.s, edges, labels
    h.edge_at = np.full((g.n, g.s), -1, dtype=np.int64)
    h.edge_at[edges, labels] = np.arange(g.n_edges)[:, None]
    return h


@pytest.mark.parametrize(
    "make",
    [lambda: lps_graph(5, 7)[0], lambda: cycle_labeled_graph(12), lambda: complete_graph(9)],
)
@pytest.mark.parametrize("seed, flip", [(0, "all"), (3, "none"), (5, "some"), (11, "all")])
def test_dense_spectrum_does_not_depend_on_how_edges_are_listed(make, seed, flip):
    # the lower-triangle fill puts each edge at (min, max) whichever end comes first
    g = make()
    h = _relisted(g, seed, flip)
    assert (h.adjacency() == g.adjacency()).all()
    lam2 = second_eigenvalue(h)
    assert lam2 == float(scipy.linalg.eigvalsh(h.adjacency())[-2])
    assert lam2.hex() == second_eigenvalue(g).hex()


_EIGENSOLVE_RISE = """
from bpcodes.graphs import lps_graph, second_eigenvalue

def hwm_kib():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))

g = lps_graph(5, 13)[0]
before = hwm_kib()
second_eigenvalue(g)
print(g.n, hwm_kib() - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_dense_eigensolve_touches_about_half_the_matrix():
    """The high-water mark of a fresh interpreter rises by less than
    0.8 n^2 * 8 bytes across the dense solve of lps(5,13) (n = 2184): the
    lower triangle's pages, about n^2 * 4 bytes plus a page per row, not
    the whole matrix. The mark is VmHWM, which starts afresh at exec where
    ru_maxrss keeps the mark of the process that started the child. BLAS
    runs on one thread, so that no per-thread buffers count."""
    src = os.path.dirname(os.path.dirname(graphs.__file__))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", _EIGENSOLVE_RISE], env=env, capture_output=True,
                         text=True, check=True, timeout=300).stdout.split()
    n, rise_kib = int(out[0]), int(out[1])
    assert n == 2184
    assert rise_kib * 1024 < 0.8 * n * n * 8, rise_kib / 1024


def test_disconnected_detected():
    # two disjoint triangles
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    labels = [(0, 0), (1, 1), (1, 0), (0, 0), (1, 1), (1, 0)]
    g = LabeledGraph(6, edges, labels, 2)
    assert not g.is_connected()
    with pytest.raises(Disconnected):
        second_eigenvalue(g)


def test_lps_ramanujan_small():
    graph, _, _ = lps_graph(5, 13)
    assert second_eigenvalue(graph) < 2 * math.sqrt(5)


def test_lps_ramanujan_13_17():
    # legendre(13,17) = +1, so the graph sits on the projective special group
    graph, group, _ = lps_graph(13, 17)
    assert group.name.startswith("PSL") and graph.n == 17 * (17 * 17 - 1) // 2
    assert graph.s == 14
    assert second_eigenvalue(graph) < 2 * math.sqrt(13)


# -- expansion bounds ---------------------------------------------------------


def test_formula_special_cases():
    assert cheeger_lower_bound(5, 2, 0) == 3  # alpha=0 gives s - lambda2
    assert alon_chung_edge_fraction(5, 2, 1.0) == 1.0  # whole graph
    # b = s, alpha = 0 reduces to (s - lambda2)/s
    assert strong_neighbor_beta(5, 2, 0, 5) == pytest.approx(3 / 5)


def test_formula_domains():
    with pytest.raises(DomainError):
        edge_to_vertex_beta(3, 1, 0)
    with pytest.raises(DomainError):
        strong_neighbor_beta(3, 1, 0.1, 0)


def test_brute_force_cheeger_complete_graph():
    rep = brute_force_expansion_check(complete_graph(5), "cheeger", max_subset=5)
    assert rep.holds
    assert rep.subsets_checked == 31  # all nonempty subsets of 5 vertices


def test_brute_force_edge_vertex_petersen():
    rep = brute_force_expansion_check(petersen(), "edge_vertex", max_subset=4, alpha=4 / 15)
    assert rep.holds


def test_brute_force_strong_neighbor_cycle():
    rep = brute_force_expansion_check(
        cycle_labeled_graph(5), "strong_neighbor", max_subset=2, alpha=0.4, b=2
    )
    assert rep.holds


def test_brute_force_alon_chung_complete():
    rep = brute_force_expansion_check(complete_graph(5), "alon_chung", max_subset=5)
    assert rep.holds
    assert rep.tightest_ratio >= 1.0


# -- actions and quotients ----------------------------------------------------


def test_cycle_rotation_quotient():
    c9 = cycle_labeled_graph(9)
    act = cycle_rotation_action(c9, 3)
    qd = quotient_graph(act)
    assert (qd.base.n, qd.base.n_edges, qd.base.s) == (3, 3, 2)
    # connection is trivial except on one edge
    nontrivial = [v for v in qd.connection.values if v != qd.connection.group.identity]
    assert len(nontrivial) == 1


def test_quotient_reconstruction_isomorphic():
    c9 = cycle_labeled_graph(9)
    act = cycle_rotation_action(c9, 3)
    qd = quotient_graph(act)
    rec = reconstruct_from_quotient(qd)
    inv_map = {}
    for v in range(9):
        inv_map[qd.vertex_orbit_of[v] * 3 + qd.vertex_shift[v]] = v
    vmap = [inv_map[i] for i in range(9)]
    assert graphs_isomorphic_by_map(rec, c9, vmap)


def test_lps_quotient_shape():
    graph, group, gens = lps_graph(5, 13)
    sub = unipotent_subgroup(group)
    act = cayley_right_action(graph, group, gens, sub)
    qd = quotient_graph(act)
    assert (qd.base.n, qd.base.n_edges, qd.base.s) == (168, 504, 6)
    rec = reconstruct_from_quotient(qd)
    inv_map = {}
    for v in range(graph.n):
        inv_map[qd.vertex_orbit_of[v] * 13 + qd.vertex_shift[v]] = v
    vmap = [inv_map[i] for i in range(graph.n)]
    assert graphs_isomorphic_by_map(rec, graph, vmap)


def test_parallel_quotient_rejected():
    c6 = cycle_labeled_graph(6)
    act = cycle_rotation_action(c6, 3)
    with pytest.raises(NotSimpleGraph):
        quotient_graph(act)


def test_rotation_action_requires_divisor():
    from bpcodes.errors import NotFree

    with pytest.raises(NotFree):
        cycle_rotation_action(cycle_labeled_graph(9), 4)


def test_graph_action_table_must_be_an_action():
    """Even and odd vertices form two separate 18-cycles. Z_3 rotates the
    even cycle by r^h but the odd one by [id, r, r], which breaks
    perm[1] o perm[1] == perm[2] only on odd vertices."""
    from bpcodes.errors import NotFree

    m = 18

    def vid(i, parity):
        return 2 * (i % m) + parity

    edges, labels = [], []
    for parity in (0, 1):
        for i in range(m):
            a, b = vid(i, parity), vid(i + 1, parity)
            edges.append((min(a, b), max(a, b)))
            labels.append((1, 0) if a < b else (0, 1))
    graph = LabeledGraph(2 * m, edges, labels, 2)
    edge_index = {e: k for k, e in enumerate(_pairs(graph.edges))}

    def tables(steps):
        vperms = [[vid(v // 2 + s[v % 2], v % 2) for v in range(2 * m)] for s in steps]
        eperms = [
            [edge_index[tuple(sorted((vp[u], vp[v])))] for u, v in _pairs(graph.edges)]
            for vp in vperms
        ]
        return vperms, eperms

    z3 = cyclic_group(3)
    GraphAction(graph, z3, *tables([(6 * h, 6 * h) for h in range(3)]))
    with pytest.raises(NotFree):
        GraphAction(graph, z3, *tables([(6 * h, 6 * min(h, 1)) for h in range(3)]))


# -- quotient condition -------------------------------------------------------


def test_quotient_condition_trivial_subgroup():
    z6 = cyclic_group(6)
    triv = FiniteGroup([0], lambda a, b: 0)
    assert check_quotient_condition(z6, [1, 5], triv).holds


def test_quotient_condition_violated_with_witness():
    # Z_9 with generators {3, 6} and the subgroup {0,3,6}: the generator 3
    # lies in the subgroup itself
    z9 = cyclic_group(9)
    sub = FiniteGroup([0, 3, 6], lambda a, b: (a + b) % 9)
    rep = check_quotient_condition(z9, [3, 6], sub)
    assert not rep.holds
    g, h, s = rep.witness
    assert (g + h - g) % 9 == s  # the conjugate relation in additive form


def test_quotient_condition_lps():
    graph, group, gens = lps_graph(5, 13)
    sub = unipotent_subgroup(group)
    rep = check_quotient_condition(group, gens, sub)
    assert rep.holds and rep.determinant_shortcut is True


# -- coset graphs -------------------------------------------------------------


def test_rotation_pair_exists():
    from bpcodes.algebra import build_psl2

    g = build_psl2(7)
    rho, sigma = find_rotation_pair(g, 3, 7)
    assert g.element_orders()[rho] == 3
    assert g.element_orders()[sigma] == 7
    assert g.element_orders()[g.mul(rho, sigma)] == 2


def test_klein_quartic_graph_shape():
    graph, group, rho, sigma = klein_quartic_graph()
    assert (graph.n, graph.n_edges, graph.s) == (24, 84, 7)
    assert graph.is_connected()
    # known spectrum: {7, sqrt(7)^8, -1^7, -sqrt(7)^8}
    lam2 = second_eigenvalue(graph)
    assert abs(lam2 - math.sqrt(7)) < 1e-9


def test_coset_graph_degenerate_rejected():
    from bpcodes.errors import IncidenceDegenerate

    z5 = cyclic_group(5)
    with pytest.raises(IncidenceDegenerate):
        find_rotation_pair(z5, 3, 7)


# -- one rejection per fault class of GraphAction._validate -------------------


def _fault_cycle(ell, relabel_vertex_zero=False) -> LabeledGraph:
    """The ell-cycle with rotation-invariant labels, or with the two labels
    at vertex 0 swapped."""
    c = cycle_labeled_graph(ell)
    labels = _pairs(c.labels)
    if relabel_vertex_zero:
        for e, (u, v) in enumerate(_pairs(c.edges)):
            if u == 0:
                labels[e] = (1 - labels[e][0], labels[e][1])
    return LabeledGraph(ell, c.edges, labels, 2)


def _rotation_tables(graph, steps):
    edge_index = {e: k for k, e in enumerate(_pairs(graph.edges))}
    vperms = [[(v + s) % graph.n for v in range(graph.n)] for s in steps]
    eperms = [
        [edge_index[tuple(sorted((vp[u], vp[v])))] for u, v in _pairs(graph.edges)] for vp in vperms
    ]
    return vperms, eperms


def test_graph_action_rejects_vertex_fixed_point():
    from bpcodes.errors import NotFree

    # the reflection v -> -v of the 4-cycle fixes the vertices 0 and 2
    c4 = cycle_labeled_graph(4)
    edge_index = {e: k for k, e in enumerate(_pairs(c4.edges))}
    refl = [(-v) % 4 for v in range(4)]
    eperm = [edge_index[tuple(sorted((refl[u], refl[v])))] for u, v in _pairs(c4.edges)]
    with pytest.raises(NotFree, match="vertex fixed point"):
        GraphAction(c4, cyclic_group(2), [list(range(4)), refl], [list(range(4)), eperm])


def test_graph_action_rejects_edge_fixed_point():
    from bpcodes.errors import NotFree

    # Z_2 swapping the two ends of K_2 moves both vertices but fixes the edge
    k2 = complete_graph(2)
    with pytest.raises(NotFree, match="edge fixed point"):
        GraphAction(k2, cyclic_group(2), [[0, 1], [1, 0]], [[0], [0]])


def test_graph_action_rejects_edge_table_off_the_vertex_images():
    from bpcodes.errors import NotFree

    c9 = cycle_labeled_graph(9)
    vperms, eperms = _rotation_tables(c9, [0, 3, 6])
    eperms[1] = eperms[2]  # rotation by 6 on the edges, by 3 on the vertices
    with pytest.raises(NotFree, match="does not match vertex images"):
        GraphAction(c9, cyclic_group(3), vperms, eperms)


def test_graph_action_rejects_labels_that_are_not_invariant():
    graph = _fault_cycle(9, relabel_vertex_zero=True)
    with pytest.raises(QuotientConditionViolated, match="not action-invariant"):
        GraphAction(graph, cyclic_group(3), *_rotation_tables(graph, [0, 3, 6]))


def test_graph_action_rejects_an_edge_inside_an_orbit():
    # Z_3 rotating the 3-cycle by one step joins every vertex to its image
    graph = _fault_cycle(3)
    with pytest.raises(QuotientConditionViolated, match="joins a vertex to its own orbit"):
        GraphAction(graph, cyclic_group(3), *_rotation_tables(graph, [0, 1, 2]))


# -- the array paths against the element-loop code they replaced ----------------
#
# The _old_* functions below are the loop implementations of cayley_graph,
# cayley_right_action, _orbit_tables, quotient_graph, the balanced-product
# pair orbits and check_quotient_condition that the index-array versions
# replaced, kept here as the reference. They multiply through the scalar
# FiniteGroup.mul.


def _old_cayley_edges(group, gens):
    edges, labels = {}, {}
    for g in range(group.order):
        for idx, s in enumerate(gens):
            h = group.mul(s, g)
            key = (min(g, h), max(g, h))
            if key not in edges:
                edges[key] = len(edges)
                labels[key] = [-1, -1]
            labels[key][0 if g == key[0] else 1] = idx
    ordered = sorted(edges, key=edges.get)
    return ordered, [tuple(labels[k]) for k in ordered]


def _old_right_action_tables(graph, group, sub):
    edges = _pairs(graph.edges)
    edge_index = {e: i for i, e in enumerate(edges)}
    vperms, eperms = [], []
    for h in group.indices_of(sub).tolist():
        vp = [group.mul(v, h) for v in range(group.order)]
        eperms.append([edge_index[(min(vp[u], vp[v]), max(vp[u], vp[v]))] for u, v in edges])
        vperms.append(vp)
    return vperms, eperms


def _old_orbit_tables(n, h, perms):
    orbit_of, rep, shift, members_by_orbit = [-1] * n, [], [-1] * n, []
    for v in range(n):
        if orbit_of[v] >= 0:
            continue
        members = {perms[k][v]: k for k in range(h.order)}
        assert len(members) == h.order
        r = min(members)
        o = len(rep)
        rep.append(r)
        base_k = members[r]
        for w, k in members.items():
            orbit_of[w] = o
            shift[w] = h.mul(k, h.inv(base_k))
        members_by_orbit.append(sorted(members))
    return len(rep), orbit_of, rep, shift, members_by_orbit


def _old_quotient_fields(action):
    x, h = action.graph, action.group
    edges, labels = _pairs(x.edges), _pairs(x.labels)
    vperms, eperms = action.vertex_perms.tolist(), action.edge_perms.tolist()
    _, orbit_of, rep, shift, _ = _old_orbit_tables(x.n, h, vperms)
    e_orbits, e_orbit_of_old, _, _, e_members = _old_orbit_tables(x.n_edges, h, eperms)
    info = []
    for eo in range(e_orbits):
        u, v = edges[e_members[eo][0]]
        ou, ov = orbit_of[u], orbit_of[v]
        src, dst = (ou, ov) if ou < ov else (ov, ou)
        src_rep = rep[src]
        lift = next(e for e in e_members[eo] if src_rep in edges[e])
        a, b = edges[lift]
        far = b if a == src_rep else a
        lab_src, lab_far = labels[lift] if a == src_rep else labels[lift][::-1]
        info.append(((src, dst), (lab_src, lab_far), shift[far], lift))
    order = sorted(range(e_orbits), key=lambda eo: info[eo][0])
    renum = {old: new for new, old in enumerate(order)}
    edge_rep = [info[old][3] for old in order]
    edge_shift = [-1] * x.n_edges
    for eo in range(e_orbits):
        for hidx in range(h.order):
            edge_shift[eperms[hidx][edge_rep[eo]]] = hidx
    return (
        [info[old][0] for old in order],
        [info[old][1] for old in order],
        tuple(info[old][2] for old in order),
        tuple(orbit_of),
        tuple(rep),
        tuple(shift),
        tuple(renum[eo] for eo in e_orbit_of_old),
        tuple(edge_rep),
        tuple(edge_shift),
    )


def _old_pair_orbits(perms_l, perms_r, g, nl, nr):
    orbit_of = -np.ones((nl, nr), dtype=np.int64)
    reps = []
    for x in range(nl):
        for y in range(nr):
            if orbit_of[x, y] >= 0:
                continue
            members = [(perms_l[h][x], perms_r[g.inv(h)][y]) for h in range(g.order)]
            assert len(set(members)) == g.order
            o = len(reps)
            reps.append(min(members))
            for mx, my in members:
                orbit_of[mx, my] = o
    return tuple(reps), orbit_of


def _assert_cell_matches_loop_reference(bp, p, q):
    """The closed-form numbering of cell (p, q) against the pair loop:
    the representatives in orbit order and the orbit of every pair."""
    cell = bp.cells[(p, q)]
    nl, nr = bp.left.dim(p), bp.right.dim(q)
    reps, orbit_of = _old_pair_orbits(
        bp.left.perms[p].tolist(), bp.right.perms[q].tolist(), bp.group, nl, nr
    )
    x, y = cell.representatives()
    assert cell.dim == len(reps)
    assert list(zip(x.tolist(), y.tolist())) == list(reps)
    assert np.array_equal(cell.orbit_ids(np.arange(nl)[:, None], np.arange(nr)), orbit_of)


def _old_conjugate_witness(group, gens, sub):
    gen_set = set(gens)
    for g in range(group.order):
        for h in group.indices_of(sub).tolist():
            if h == group.identity:
                continue
            c = group.mul(group.mul(g, h), group.inv(g))
            if c in gen_set:
                return (g, h, c)
    return None


def _quotient_fields(qd):
    return (
        _pairs(qd.base.edges),
        _pairs(qd.base.labels),
        qd.connection.values,
        qd.vertex_orbit_of,
        qd.vertex_rep,
        qd.vertex_shift,
        qd.edge_orbit_of,
        qd.edge_rep,
        qd.edge_shift,
    )


def _assert_orbit_tables_match(n, h, perms):
    from bpcodes.graphs import _orbit_tables

    orbit_of, rep, shift = _orbit_tables(n, h, perms)
    _, old_orbit_of, old_rep, old_shift, _ = _old_orbit_tables(n, h, np.asarray(perms).tolist())
    assert orbit_of.tolist() == old_orbit_of
    assert rep.tolist() == old_rep
    assert shift.tolist() == old_shift


def _assert_action_matches(action, graph, group, gens, sub):
    vperms, eperms = _old_right_action_tables(graph, group, sub)
    assert action.vertex_perms.tolist() == vperms
    assert action.edge_perms.tolist() == eperms
    assert not action.vertex_perms.flags.writeable


def _psl7_rotation_graph():
    """PSL(2,7) on a rho, sigma rotation pair and their inverses; the
    unipotent subgroup U(7) meets a conjugate of this generator set."""
    from bpcodes.algebra import build_psl2

    group = build_psl2(7)
    rho, sigma = find_rotation_pair(group, 3, 7)
    gens = [sigma, group.inv(sigma), rho, group.inv(rho)]
    return cayley_graph(group, gens), group, gens


def test_lps13_group_layer_matches_loop_reference():
    from bpcodes.verify import lps_instance

    inst = lps_instance(5, 13)
    graph, group, gens = lps_graph(5, 13)
    assert (_pairs(graph.edges), _pairs(graph.labels)) == _old_cayley_edges(group, gens)
    sub = inst.action.group
    _assert_action_matches(inst.action, graph, group, gens, sub)
    for perms, n in ((inst.action.vertex_perms, graph.n), (inst.action.edge_perms, graph.n_edges)):
        _assert_orbit_tables_match(n, sub, perms)
    assert _quotient_fields(inst.quotient) == tuple(_old_quotient_fields(inst.action))
    bp = inst.product
    assert bp.group is sub
    for p, q in bp.cells:
        _assert_cell_matches_loop_reference(bp, p, q)
    rep = check_quotient_condition(group, gens, sub)
    assert rep.holds and rep.witness is None is _old_conjugate_witness(group, gens, sub)


def _regular_complex(group, masks) -> ComplexWithAction:
    """One-complex over GF(2)[G] for an abelian G given by its table: block
    column j holds the group elements as basis points, entry masks[i][j]
    is a bitmask of elements s, and the differential sends (j, g) to every
    (i, s g). G acts by h: (j, g) -> (j, h g), freely on both degrees."""
    n = group.order
    every = np.arange(n)
    table = group.mul_indices(every[:, None], every)  # [h, g] = h g
    m = np.asarray(masks, dtype=np.int64)
    i, j, s = np.nonzero((m[..., None] >> every) & 1)
    rows, cols = i[:, None] * n + table[s], j[:, None] * n + every
    blocks = {1: m.shape[1], 0: m.shape[0]}
    d = F2Matrix.from_entries(blocks[0] * n, blocks[1] * n, (rows.ravel(), cols.ravel()))
    perms = {deg: np.hstack([b * n + table for b in range(k)]) for deg, k in blocks.items()}
    return ComplexWithAction(one_complex(d), group, perms)


def _trivially_acted(group, d) -> ComplexWithAction:
    """The one-complex of d with every element acting as the identity."""
    perms = {
        deg: np.tile(np.arange(n), (group.order, 1)) for deg, n in ((1, d.cols), (0, d.rows))
    }
    return ComplexWithAction(one_complex(d), group, perms)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["cyclic", "z3z3"]),
    st.integers(1, 7),
    st.sampled_from(["free", "trivial"]),
    st.integers(0, 2**32 - 1),
)
def test_balanced_cells_match_pair_loop_reference(group_kind, ell, right_kind, seed):
    """Closed-form balanced-product cells against the pair-orbit loop, for
    random free cyclic complexes (ell 1-7) and Z_3 x Z_3 group-algebra
    complexes, with a free or a trivially acted right factor."""
    rng = np.random.default_rng(seed)
    if group_kind == "cyclic":
        left = V._random_free_cyclic_complex(rng, ell)
    else:
        elems = [(a, b) for a in range(3) for b in range(3)]
        z3z3 = FiniteGroup(elems, lambda x, y: ((x[0] + y[0]) % 3, (x[1] + y[1]) % 3))
        shape = rng.integers(1, 4, 2)
        left = _regular_complex(z3z3, rng.integers(0, 1 << 9, shape).tolist())
    g = left.group
    if right_kind == "trivial":
        right = _trivially_acted(g, F2Matrix.from_dense(rng.integers(0, 2, rng.integers(1, 5, 2))))
    elif group_kind == "cyclic":
        right = V._random_free_cyclic_complex(rng, ell)
    else:
        right = _regular_complex(g, rng.integers(0, 1 << 9, rng.integers(1, 4, 2)).tolist())
    bp = balanced_product(left, right)
    assert list(bp.cells) == [
        (p, q) for p in left.complex.degrees() for q in right.complex.degrees()
    ]
    for p, q in bp.cells:
        _assert_cell_matches_loop_reference(bp, p, q)


def test_psl7_group_layer_matches_loop_reference():
    graph, group, gens = _psl7_rotation_graph()
    assert (_pairs(graph.edges), _pairs(graph.labels)) == _old_cayley_edges(group, gens)
    sub = unipotent_subgroup(group)
    rep = check_quotient_condition(group, gens, sub)
    assert not rep.holds
    assert rep.witness == _old_conjugate_witness(group, gens, sub) == (3, 63, 59)
    # the right action of U(7) has an edge inside an orbit, so compare its
    # tables through _orbit_tables, then the rejection itself
    vperms, eperms = _old_right_action_tables(graph, group, sub)
    _assert_orbit_tables_match(graph.n, sub, vperms)
    _assert_orbit_tables_match(graph.n_edges, sub, eperms)
    with pytest.raises(QuotientConditionViolated):
        cayley_right_action(graph, group, gens, sub)


def test_lps7_action_and_quotient_match_loop_reference():
    graph, group, gens = lps_graph(5, 7)
    sub = unipotent_subgroup(group)
    action = cayley_right_action(graph, group, gens, sub)
    _assert_action_matches(action, graph, group, gens, sub)
    assert _quotient_fields(quotient_graph(action)) == tuple(_old_quotient_fields(action))


@pytest.mark.parametrize("ell,m", [(9, 3), (12, 3), (15, 3), (15, 5), (21, 7), (35, 5)])
def test_rotated_cycles_match_loop_reference(ell, m):
    action = cycle_rotation_action(cycle_labeled_graph(ell), m)
    step = ell // m
    assert action.vertex_perms.tolist() == [[(v + k * step) % ell for v in range(ell)] for k in range(m)]
    _assert_orbit_tables_match(ell, action.group, action.vertex_perms)
    _assert_orbit_tables_match(ell, action.group, action.edge_perms)
    assert _quotient_fields(quotient_graph(action)) == tuple(_old_quotient_fields(action))


@pytest.mark.parametrize(
    "order,n,step",
    [(4, 4, 2), (3, 3, 0), (6, 3, 1), (9, 6, 2)],
    ids=["Z4-by-2h", "Z3-trivial", "Z6-on-3", "Z9-on-6"],
)
def test_orbit_tables_reject_a_valid_action_that_is_not_free(order, n, step):
    """Z_order rotating n points by step*h is an action (n divides
    step*order) with orbits smaller than the group; Z4 rotating 4 points
    by 2h has two orbits of two."""
    from bpcodes.errors import NotFree
    from bpcodes.graphs import _orbit_tables

    group = cyclic_group(order)
    perms = (np.arange(n) + step * np.arange(order)[:, None]) % n
    assert group.is_action_table(perms)
    with pytest.raises(NotFree, match="^orbit smaller than the group order$"):
        _orbit_tables(n, group, perms)


def test_z9_witness_matches_loop_reference():
    z9 = cyclic_group(9)
    sub = FiniteGroup([0, 3, 6], lambda a, b: (a + b) % 9)
    assert check_quotient_condition(z9, [3, 6], sub).witness == _old_conjugate_witness(z9, [3, 6], sub)
    assert check_quotient_condition(z9, [1, 8], sub).witness is None is _old_conjugate_witness(
        z9, [1, 8], sub
    )


# -- coset graphs, validation and reconstruction against their loop code --------
#
# Each _old_* function below is the loop implementation that the index-array
# version replaced, kept as the reference; group products go through the
# scalar FiniteGroup.mul and graphs are read as lists of int pairs.


def _old_element_order(group, i):
    k, acc = 1, i
    while acc != group.identity:
        acc = group.mul(acc, i)
        k += 1
    return k


def _old_subgroup_indices(group, generators):
    seen = {group.identity}
    frontier = [group.identity]
    gens = list(generators) + [group.inv(g) for g in generators]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = group.mul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen)


def _old_find_rotation_pair(group, r, s):
    r_elems = [i for i in range(group.order) if _old_element_order(group, i) == r]
    s_elems = [i for i in range(group.order) if _old_element_order(group, i) == s]
    for a in r_elems:
        for b in s_elems:
            if _old_element_order(group, group.mul(a, b)) == 2:
                return a, b
    raise IncidenceDegenerate(f"no ({r},{s},2) generator pair in {group.name}")


def _old_coset_graph(group, rho, sigma):
    s_sub = _old_subgroup_indices(group, [sigma])
    edge_inv = group.mul(rho, sigma)
    if _old_element_order(group, edge_inv) != 2:
        raise IncidenceDegenerate("rho*sigma is not an involution")
    e_sub = _old_subgroup_indices(group, [edge_inv])
    s_order = len(s_sub)

    vertex_of = {}
    vertices = []
    for g in range(group.order):
        coset = frozenset(group.mul(g, h) for h in s_sub)
        if coset not in vertex_of:
            vertex_of[coset] = len(vertices)
            vertices.append(coset)
    edge_of = {}
    edge_cosets = []
    for g in range(group.order):
        coset = frozenset(group.mul(g, h) for h in e_sub)
        if coset not in edge_of:
            edge_of[coset] = len(edge_cosets)
            edge_cosets.append(coset)

    n = len(vertices)
    edges_endpoints = [set() for _ in edge_cosets]
    for ei, coset in enumerate(edge_cosets):
        for g in coset:
            for vi, vcoset in enumerate(vertices):
                if g in vcoset:
                    edges_endpoints[ei].add(vi)
    for ends in edges_endpoints:
        if len(ends) != 2:
            raise IncidenceDegenerate("an edge coset does not meet exactly two vertex cosets")

    labels_at = [dict() for _ in range(n)]
    for vi, vcoset in enumerate(vertices):
        ghat = min(vcoset)
        cur = ghat
        for k in range(s_order):
            ecoset = frozenset(group.mul(cur, h) for h in e_sub)
            ei = edge_of[ecoset]
            if ei in labels_at[vi]:
                raise IncidenceDegenerate("rotation orbit revisits an edge")
            labels_at[vi][ei] = k
            cur = group.mul(cur, sigma)

    edges, labels = [], []
    order = sorted(range(len(edge_cosets)), key=lambda ei: tuple(sorted(edges_endpoints[ei])))
    for ei in order:
        u, v = sorted(edges_endpoints[ei])
        edges.append((u, v))
        labels.append((labels_at[u][ei], labels_at[v][ei]))
    return LabeledGraph(n, edges, labels, s_order)


def _graph_fields(g):
    return g.n, _pairs(g.edges), _pairs(g.labels), g.s


def _outcome(fn, *args):
    """fn(*args), or the class and message of what it raised."""
    try:
        return fn(*args)
    except BpcodesError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("q,r,s", [(7, 3, 7), (7, 7, 3), (5, 3, 5), (5, 5, 3)])
def test_coset_graph_matches_loop_reference(q, r, s):
    from bpcodes.algebra import build_psl2

    group = build_psl2(q)
    rho, sigma = find_rotation_pair(group, r, s)
    assert (rho, sigma) == _old_find_rotation_pair(group, r, s)
    old = _old_coset_graph(group, rho, sigma)
    assert _graph_fields(coset_graph(group, rho, sigma)) == _graph_fields(old)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 59), st.integers(0, 59))
def test_coset_graph_on_any_pair_matches_loop_reference(rho, sigma):
    # PSL(2,5) = A_5: most pairs are degenerate and must fail the same way
    from bpcodes.algebra import build_psl2

    group = build_psl2(5)
    new = _outcome(lambda: _graph_fields(coset_graph(group, rho, sigma)))
    assert new == _outcome(lambda: _graph_fields(_old_coset_graph(group, rho, sigma)))


def _old_validate(n, edges, labels, s):
    if len(labels) != len(edges):
        raise NotSimpleGraph("labels and edges differ in length")
    seen = set()
    deg = [0] * n
    per_vertex_labels = [set() for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        if u == v:
            raise SelfLoop(f"edge {e} is a self-loop at {u}")
        if not (0 <= u < v < n):
            raise NotSimpleGraph(f"edge {e} endpoints out of order or range")
        if (u, v) in seen:
            raise NotSimpleGraph(f"parallel edge {u}-{v}")
        seen.add((u, v))
        deg[u] += 1
        deg[v] += 1
        lu, lv = labels[e]
        for w, l in ((u, lu), (v, lv)):
            if not (0 <= l < s):
                raise NotSimpleGraph(f"label {l} outside [0,{s}) at vertex {w}")
            if l in per_vertex_labels[w]:
                raise NotSimpleGraph(f"label {l} repeated at vertex {w}")
            per_vertex_labels[w].add(l)
    if any(d != s for d in deg):
        raise NotSimpleGraph("graph is not regular of the declared degree")


@st.composite
def _faulty_edge_lists(draw):
    """A cycle, complete or Petersen graph with its edges shuffled, then up
    to four faults injected: endpoints moved or swapped, edges repeated or
    made loops, labels changed, edges or labels dropped."""
    graphs = [cycle_labeled_graph(5), cycle_labeled_graph(8), complete_graph(5), petersen()]
    g = draw(st.sampled_from(graphs))
    perm = draw(st.permutations(range(g.n_edges)))
    edges = [list(g.edges[e]) for e in perm]
    labels = [list(g.labels[e]) for e in perm]
    for _ in range(draw(st.integers(0, 4))):
        e = draw(st.integers(0, len(edges) - 1))
        side = draw(st.integers(0, 1))
        fault = draw(st.sampled_from(["end", "swap", "repeat", "loop", "label", "drop", "short"]))
        if fault == "end":
            edges[e][side] = draw(st.integers(-1, g.n))
        elif fault == "swap":
            edges[e].reverse()
        elif fault == "repeat":
            edges[e] = list(edges[draw(st.integers(0, len(edges) - 1))])
        elif fault == "loop":
            edges[e][1 - side] = edges[e][side]
        elif fault == "label":
            labels[e][side] = draw(st.integers(-1, g.s))
        elif fault == "drop" and len(edges) > 1:
            del edges[e], labels[e]
        elif fault == "short":
            del labels[e]
            break
    return g.n, [tuple(e) for e in edges], [tuple(l) for l in labels], g.s


@settings(max_examples=300, deadline=None)
@given(_faulty_edge_lists())
def test_validate_matches_loop_reference(case):
    n, edges, labels, s = case
    old = _outcome(_old_validate, n, edges, labels, s)
    new = _outcome(lambda: _graph_fields(LabeledGraph(n, edges, labels, s)))
    assert new == (old if old is not None else (n, edges, labels, s))


def _old_reconstruct(qd):
    base, conn = qd.base, qd.connection
    h = conn.group
    n = base.n * h.order
    edges, labels = [], []
    for e, ((u, v), (lu, lv)) in enumerate(zip(_pairs(base.edges), _pairs(base.labels))):
        phi = conn.values[e]
        for k in range(h.order):
            a = u * h.order + k
            b = v * h.order + h.mul(phi, k)
            lo, hi = (a, b) if a < b else (b, a)
            labels.append((lu, lv) if a < b else (lv, lu))
            edges.append((lo, hi))
    return LabeledGraph(n, edges, labels, base.s)


def _old_isomorphic(a, b, vmap):
    if a.n != b.n or a.n_edges != b.n_edges or a.s != b.s:
        return False
    b_edges = {e: i for i, e in enumerate(_pairs(b.edges))}
    b_labels = _pairs(b.labels)
    for (u, v), (lu, lv) in zip(_pairs(a.edges), _pairs(a.labels)):
        iu, iv = vmap[u], vmap[v]
        key = (min(iu, iv), max(iu, iv))
        if key not in b_edges:
            return False
        at_iu, at_iv = b_labels[b_edges[key]] if iu < iv else b_labels[b_edges[key]][::-1]
        if at_iu != lu or at_iv != lv:
            return False
    return True


def _covering_map(qd, n, order):
    inv_map = {qd.vertex_orbit_of[v] * order + qd.vertex_shift[v]: v for v in range(n)}
    return [inv_map[i] for i in range(n)]


def _lps7_action():
    graph, group, gens = lps_graph(5, 7)
    return cayley_right_action(graph, group, gens, unipotent_subgroup(group))


@pytest.mark.parametrize(
    "make",
    [
        lambda: cycle_rotation_action(cycle_labeled_graph(9), 3),
        lambda: cycle_rotation_action(cycle_labeled_graph(21), 7),
        _lps7_action,
    ],
    ids=["C9/Z3", "C21/Z7", "lps(5,7)/U(7)"],
)
def test_reconstruction_and_isomorphism_match_loop_reference(make):
    action = make()
    x, qd = action.graph, quotient_graph(action)
    rec = reconstruct_from_quotient(qd)
    assert _graph_fields(rec) == _graph_fields(_old_reconstruct(qd))
    vmap = _covering_map(qd, x.n, action.group.order)
    assert graphs_isomorphic_by_map(rec, x, vmap) and _old_isomorphic(rec, x, vmap)
    # maps with two images swapped, and the graph with the labels swapped at every edge
    rng = np.random.default_rng(0)
    for _ in range(5):
        wrong = list(vmap)
        i, j = rng.choice(x.n, 2, replace=False)
        wrong[i], wrong[j] = wrong[j], wrong[i]
        assert graphs_isomorphic_by_map(rec, x, wrong) == _old_isomorphic(rec, x, wrong)
        assert graphs_isomorphic_by_map(x, rec, wrong) == _old_isomorphic(x, rec, wrong)
    flipped = LabeledGraph(x.n, x.edges, x.labels[:, ::-1], x.s)
    assert graphs_isomorphic_by_map(rec, flipped, vmap) == _old_isomorphic(rec, flipped, vmap)
    # a map that is not injective: both ends of one edge sent to one vertex
    squashed = list(vmap)
    u, v = rec.edges[0].tolist()
    squashed[v] = squashed[u]
    assert not graphs_isomorphic_by_map(rec, x, squashed) and not _old_isomorphic(rec, x, squashed)
    # maps drawn at random, permutations and otherwise
    for drawn in [rng.permutation(x.n), rng.integers(0, x.n, x.n), rng.integers(0, 2, x.n)]:
        drawn = drawn.tolist()
        assert graphs_isomorphic_by_map(rec, x, drawn) == _old_isomorphic(rec, x, drawn)


# -- action checks and edge images a block at a time -----------------------------
#
# algebra._INDEX_BLOCK bounds the entries of each block; set to 1..7 it
# splits these small cases into many blocks, with one group element a
# block in the action-law checks and the edge images.


def _z3z3_orbit_edges():
    """Z_3 x Z_3 translating two copies of itself: copy 0 holds the
    triangles along (0, 1), copy 1 those along (1, 0), and each vertex has
    an edge to its twin. The first element with an edge inside an orbit,
    (0, 1), is not the inverse of the last one, (2, 0), and their edges
    differ."""
    elems = [(a, b) for a in range(3) for b in range(3)]
    z3z3 = FiniteGroup(elems, lambda x, y: ((x[0] + y[0]) % 3, (x[1] + y[1]) % 3))

    def vid(g, c):
        return 9 * c + 3 * (g[0] % 3) + g[1] % 3

    edges, labels = [], []
    for (a, b) in elems:
        for c, (da, db) in ((0, (0, 1)), (1, (1, 0))):
            u, v = vid((a, b), c), vid((a + da, b + db), c)
            edges.append((min(u, v), max(u, v)))
            labels.append((0, 1) if u < v else (1, 0))
        edges.append((vid((a, b), 0), vid((a, b), 1)))
        labels.append((2, 2))
    graph = LabeledGraph(18, edges, labels, 3)
    edge_index = {e: k for k, e in enumerate(_pairs(graph.edges))}
    vperms = [
        [vid((a + h[0], b + h[1]), c) for c in (0, 1) for (a, b) in elems] for h in elems
    ]
    eperms = [
        [edge_index[tuple(sorted((vp[u], vp[v])))] for u, v in _pairs(graph.edges)] for vp in vperms
    ]
    return graph, z3z3, vperms, eperms


def _error(make):
    try:
        make()
    except BpcodesError as exc:
        return type(exc), str(exc)
    return None


def _fault_cases():
    """The GraphAction inputs of the rejection tests above, as thunks."""
    c4 = cycle_labeled_graph(4)
    refl = [(-v) % 4 for v in range(4)]
    c4_edge = {e: k for k, e in enumerate(_pairs(c4.edges))}
    refl_edges = [c4_edge[tuple(sorted((refl[u], refl[v])))] for u, v in _pairs(c4.edges)]
    c9 = cycle_labeled_graph(9)
    vperms, eperms = _rotation_tables(c9, [0, 3, 6])
    relabeled, orbit_edge = _fault_cycle(9, relabel_vertex_zero=True), _fault_cycle(3)
    return {
        "vertex fixed point": lambda: GraphAction(
            c4, cyclic_group(2), [list(range(4)), refl], [list(range(4)), refl_edges]
        ),
        "edge fixed point": lambda: GraphAction(
            complete_graph(2), cyclic_group(2), [[0, 1], [1, 0]], [[0], [0]]
        ),
        "edges off the vertex images": lambda: GraphAction(
            c9, cyclic_group(3), vperms, [eperms[0], eperms[2], eperms[2]]
        ),
        "labels not invariant": lambda: GraphAction(
            relabeled, cyclic_group(3), *_rotation_tables(relabeled, [0, 3, 6])
        ),
        "edge inside an orbit": lambda: GraphAction(
            orbit_edge, cyclic_group(3), *_rotation_tables(orbit_edge, [0, 1, 2])
        ),
        "edge inside an orbit of Z3 x Z3": lambda: GraphAction(*_z3z3_orbit_edges()),
        "not an action": lambda: test_graph_action_table_must_be_an_action(),
    }


@pytest.mark.parametrize("block", [1, 2, 7])
@pytest.mark.parametrize("case", sorted(_fault_cases()))
def test_graph_action_faults_one_element_per_block(case, block):
    make = _fault_cases()[case]
    want = _error(make)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "_INDEX_BLOCK", block)
        assert _error(make) == want
    assert (want is None) == (case == "not an action")  # that test checks its own raise


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([(3, 3), (6, 3), (9, 3), (12, 3), (15, 5), (21, 7)]),
    st.booleans(),
    st.integers(1, 7),
    st.lists(st.tuples(st.sampled_from("vef"), st.integers(0, 6), st.integers(0, 20), st.integers(0, 20)), max_size=3),
)
def test_graph_action_first_fault_matches_one_block(cycle, relabel, block, faults):
    """Rotations of a cycle with up to three entries of the tables
    overwritten (v: a vertex image, e: an edge image, f: a whole edge row
    made the identity); every block size reports the same first fault."""
    ell, m = cycle
    graph = _fault_cycle(ell, relabel_vertex_zero=relabel)
    vperms, eperms = _rotation_tables(graph, [k * (ell // m) for k in range(m)])
    for kind, h, i, value in faults:
        h %= m
        if kind == "v":
            vperms[h][i % ell] = value % ell
        elif kind == "e":
            eperms[h][i % ell] = value % ell
        else:
            eperms[h] = list(range(ell))
    want = _error(lambda: GraphAction(graph, cyclic_group(m), vperms, eperms))
    images = _edge_images(graph, np.array(vperms))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "_INDEX_BLOCK", block)
        assert _error(lambda: GraphAction(graph, cyclic_group(m), vperms, eperms)) == want
        assert np.array_equal(_edge_images(graph, np.array(vperms)), images)


def _old_validate_action(graph, group, vperms, eperms):
    """GraphAction._validate as it was before it checked the generators
    and the orbit counts: the first faulty group element in index order,
    with the checks of each element in the order: vertex fixed point,
    edge fixed point, then per edge the image and its labels; the
    quotient condition last. The elements are checked a block at a time."""
    from bpcodes.errors import NotFree

    g, x = group, graph
    vp = algebra.index_table(vperms, (g.order, x.n))
    ep = algebra.index_table(eperms, (g.order, x.n_edges))
    if vp is None or not g.is_action_table(vp):
        raise NotFree("vertex permutations are not a group action")
    if ep is None or (ep.size and (ep.min() < 0 or ep.max() >= x.n_edges)):
        raise NotFree("edge permutations are not a table of edge indices")
    ends, labs = x.edges, x.labels
    inside_at = None  # the first element with an edge inside an orbit
    for rows in algebra.row_blocks(g.order, x.n_edges):
        vb, eb = vp[rows], ep[rows]
        others = (np.arange(g.order)[rows] != g.identity)[:, None]
        vfix = ((vb == np.arange(x.n)) & others).any(axis=1)
        efix = ((eb == np.arange(x.n_edges)) & others).any(axis=1)
        iu, iv = vb[:, ends[:, 0]], vb[:, ends[:, 1]]
        image, image_labs = ends[eb], labs[eb]
        moved = (image[..., 0] != np.minimum(iu, iv)) | (image[..., 1] != np.maximum(iu, iv))
        at_u = np.where(image[..., 0] == iu, image_labs[..., 0], image_labs[..., 1])
        at_v = np.where(image[..., 0] == iv, image_labs[..., 0], image_labs[..., 1])
        bad = moved | (at_u != labs[:, 0]) | (at_v != labs[:, 1])
        faulty = vfix | efix | bad.any(axis=1)
        if faulty.any():
            h = int(np.argmax(faulty))
            if vfix[h]:
                raise NotFree("action has a vertex fixed point")
            if efix[h]:
                raise NotFree("action has an edge fixed point")
            if moved[h, np.argmax(bad[h])]:
                raise NotFree("edge permutation does not match vertex images")
            raise QuotientConditionViolated("labels are not action-invariant")
        inside = ((iu == ends[:, 1]) | (iv == ends[:, 0])) & others
        if inside_at is None and inside.any():
            inside_at = int(np.argmax(inside)) % x.n_edges
    if inside_at is not None:
        u, v = x.edges[inside_at]
        raise QuotientConditionViolated(f"edge {u}-{v} joins a vertex to its own orbit")


def _swap_labels_at_zero(graph):
    """graph with the labels 0 and 1 swapped at vertex 0."""
    labels = graph.labels.copy()
    low = (graph.edges == 0) & (labels < 2)
    labels[low] = 1 - labels[low]
    return LabeledGraph(graph.n, graph.edges, labels, graph.s)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([(3, 3), (6, 3), (9, 3), (12, 3), (15, 5), (21, 7), "Z3 x Z3"]),
    st.booleans(),
    st.lists(st.tuples(st.sampled_from("vef"), st.integers(0, 8), st.integers(0, 26), st.integers(0, 26)), max_size=3),
)
def test_graph_action_checks_match_the_per_element_scan(case, relabel, faults):
    """Rotations of a cycle, or Z3 x Z3 on _z3z3_orbit_edges, with up to
    three entries of the tables overwritten (v: a vertex image, e: an edge
    image, f: a whole edge row made the identity) and the labels at vertex
    0 swapped or not. The checks on generators and orbit counts accept
    the tables the per-element scan accepts. With at most one fault they
    raise the same class, and the same message except where a corrupted
    edge row also fixes an edge: the scan finds the fixed point first,
    the checks find that the edge table is not an action before they
    count orbits."""
    if case == "Z3 x Z3":
        graph, group, vperms, eperms = _z3z3_orbit_edges()
    else:
        ell, m = case
        graph, group = cycle_labeled_graph(ell), cyclic_group(m)
        vperms, eperms = _rotation_tables(graph, [k * (ell // m) for k in range(m)])
    if relabel:
        graph = _swap_labels_at_zero(graph)
    for kind, h, i, value in faults:
        h %= group.order
        if kind == "v":
            vperms[h][i % graph.n] = value % graph.n
        elif kind == "e":
            eperms[h][i % graph.n_edges] = value % graph.n_edges
        else:
            eperms[h] = list(range(graph.n_edges))
    want = _error(lambda: _old_validate_action(graph, group, vperms, eperms))
    got = _error(lambda: GraphAction(graph, group, vperms, eperms))
    assert (got is None) == (want is None)
    if want is not None and len(faults) + relabel <= 1:
        assert got[0] is want[0]
        assert got[1] == want[1] or (want[1], got[1]) == (
            "action has an edge fixed point",
            "edge permutation does not match vertex images",
        )


@pytest.mark.parametrize("block", [1, 5, 64])
def test_blocked_quotient_check_keeps_the_witness(block):
    graph, group, gens = _psl7_rotation_graph()
    sub = unipotent_subgroup(group)
    want = _error(lambda: cayley_right_action(graph, group, gens, sub))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "_INDEX_BLOCK", block)
        rep = check_quotient_condition(group, gens, sub)
        got = _error(lambda: cayley_right_action(graph, group, gens, sub))
    assert rep.witness == _old_conjugate_witness(group, gens, sub) == (3, 63, 59)
    assert got == want and want[0] is QuotientConditionViolated
    assert want[1].endswith("joins a vertex to its own orbit")


def test_lps7_action_memory_is_a_small_multiple_of_its_tables():
    """With a block of at most one group element's edges, as lps(5,37) has
    at the default block, building the action holds little beyond its
    vertex and edge tables; the whole-table checks held 9.2 times them."""
    graph, group, gens = lps_graph(5, 7)
    sub = unipotent_subgroup(group)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "_INDEX_BLOCK", 1 << 10)
        tracemalloc.start()
        try:
            action = cayley_right_action(graph, group, gens, sub)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    kept = action.vertex_perms.nbytes + action.edge_perms.nbytes
    assert graph.n_edges > 1 << 9 and kept == 8 * 7 * (336 + 1008)
    assert peak < 4 * kept
    _assert_action_matches(action, graph, group, gens, sub)


# -- Cayley edges at their smaller end, and the CSR adjacency ---------------------


def _graph_digest(graph: LabeledGraph) -> str:
    h = hashlib.sha256()
    for table in (graph.edges, graph.labels, graph.edge_at):
        h.update(str(table.shape).encode() + table.tobytes())
    return h.hexdigest()


_LPS_PINS = {
    # q: (vertices, edges, digest of edges/labels/edge_at, lambda2 hex);
    # q = 7 and 13 take the dense eigensolve, q = 17 the Lanczos branch
    7: (336, 1008, "6a664f09288f39483dd52903b1f94e5208c0deebfc990781663fb8705542bba2", "0x1.000000000000ep+2"),
    13: (2184, 6552, "e81e0bd67d6599e3e407f28119dd2eac040c6dd8774a7cd6a312e4bb77102257", "0x1.0ffb6d27f61c6p+2"),
    17: (4896, 14688, "8dada37ec1e3551ad7a00c676d0ef2d63aadaea64e08e4359349de1b450a1e78", "0x1.13c552cf7d847p+2"),
}


@pytest.mark.parametrize("q", sorted(_LPS_PINS))
def test_lps_graph_tables_and_lambda2_are_pinned(q):
    graph = lps_graph(5, q)[0]
    n, n_edges, digest, lam2 = _LPS_PINS[q]
    assert (graph.n, graph.n_edges) == (n, n_edges)
    assert (graph.n <= graphs.DENSE_EIG_CAP) == (q < 17)
    assert _graph_digest(graph) == digest
    assert second_eigenvalue(graph).hex() == lam2


def _coo_adjacency(graph: LabeledGraph) -> scipy.sparse.csr_matrix:
    """The adjacency through a COO round trip, in scipy's canonical CSR."""
    u, v = graph.edges.T
    rows, cols = np.concatenate([u, v]), np.concatenate([v, u])
    return scipy.sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(graph.n, graph.n))


@pytest.mark.parametrize(
    "make",
    [
        lambda: lps_graph(5, 7)[0],
        lambda: lps_graph(5, 13)[0],
        lambda: lps_graph(5, 17)[0],
        lambda: cycle_labeled_graph(3),
        lambda: cycle_labeled_graph(10),
        lambda: complete_graph(6),
        petersen,
        lambda: klein_quartic_graph()[0],
    ],
    ids=["lps(5,7)", "lps(5,13)", "lps(5,17)", "C3", "C10", "K6", "Petersen", "Klein"],
)
def test_adjacency_sparse_equals_the_coo_built_csr(make):
    graph = make()
    got, want = graph.adjacency_sparse(), _coo_adjacency(graph)
    assert got.shape == want.shape and got.has_canonical_format
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def _unique_cayley_graph(group: FiniteGroup, gens: list[int]) -> LabeledGraph:
    """The Cayley graph with edges numbered in first-seen order through
    np.unique over every (g, generator) code, as cayley_graph built it
    before listing each edge at its smaller end."""
    gen_set = set(gens)
    if group.identity in gen_set:
        raise SelfLoop("identity in the generating set")
    for s in gens:
        if group.inv(s) not in gen_set:
            raise NotSymmetric("generating set is not closed under inverses")
        if group.inv(s) == s:
            raise NotSymmetric("involutive generator; labeling convention undefined")
    every = np.arange(group.order)
    ends = group.mul_indices(np.asarray(gens, dtype=np.int64), every[:, None])
    if (ends == every[:, None]).any():
        raise SelfLoop("a generator fixes a vertex")
    lo = np.minimum(every[:, None], ends)
    codes = (lo * group.order + np.maximum(every[:, None], ends)).ravel()
    uniq, first, edge_of = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[order] = np.arange(len(uniq))
    edge_of = rank[edge_of]
    side = (lo != every[:, None]).ravel()
    slot = edge_of * 2 + side
    if np.bincount(slot, minlength=2 * len(uniq)).max(initial=0) > 1:
        raise NotSimpleGraph("two generators produce the same edge")
    labels = np.full(2 * len(uniq), -1, dtype=np.int64)
    labels[slot] = np.tile(np.arange(len(gens)), group.order)
    ordered = uniq[order]
    edges = np.stack([ordered // group.order, ordered % group.order], axis=1)
    return LabeledGraph(group.order, edges, labels.reshape(-1, 2), len(gens))


@functools.cache
def _small_group(name: str) -> FiniteGroup:
    return build_pgl2(5) if name == "PGL(2,5)" else build_psl2(7)


@st.composite
def _generator_lists(draw):
    """Element lists of PGL(2,5) or PSL(2,7): often closed under inverses
    (possibly with involutions), sometimes not, with the identity or a
    repeated generator put in now and then."""
    group = _small_group(draw(st.sampled_from(["PGL(2,5)", "PSL(2,7)"])))
    xs = draw(st.lists(st.integers(0, group.order - 1), min_size=1, max_size=4, unique=True))
    gens = list(xs)
    if draw(st.integers(0, 3)):  # close under inverses
        gens += [group.inv(x) for x in xs if group.inv(x) not in xs]
    gens = draw(st.permutations(gens))
    extra = draw(st.sampled_from(["none", "none", "identity", "repeat"]))
    if extra == "identity":
        gens.insert(draw(st.integers(0, len(gens))), group.identity)
    elif extra == "repeat":
        gens.insert(draw(st.integers(0, len(gens))), gens[draw(st.integers(0, len(gens) - 1))])
    return group, gens


@settings(max_examples=300, deadline=None)
@given(_generator_lists())
def test_cayley_graph_matches_the_unique_construction(case):
    group, gens = case
    want = _outcome(lambda: _graph_fields(_unique_cayley_graph(group, gens)))
    got = _outcome(lambda: _graph_fields(cayley_graph(group, gens)))
    assert got == want


@pytest.mark.parametrize("name", ["PGL(2,5)", "PSL(2,7)"])
def test_cayley_graph_rejects_a_repeated_generator(name):
    group = _small_group(name)
    x = int(np.argmax(group.element_orders() > 2))
    gens = [x, group.inv(x), x]
    for build in (cayley_graph, _unique_cayley_graph):
        with pytest.raises(NotSimpleGraph, match="^two generators produce the same edge$"):
            build(group, gens)


def test_lps17_graph_memory_is_bounded():
    """Listing each edge at its smaller end needs no sort of every
    (g, generator) code: the build holds little beyond a block of the
    group's products and the graph's own tables (parent 4.3 MB, change
    1.7 MB)."""
    group = build_pgl2(17)
    gens = group.indices_of(lps_generators(5, 17)).tolist()
    tracemalloc.start()
    try:
        graph = cayley_graph(group, gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = graph.edges.nbytes + graph.labels.nbytes + graph.edge_at.nbytes
    assert kept == 3 * 8 * 14688 * 2
    assert peak < 2.5e6


# -- action tables taken in place --------------------------------------------------


def test_graph_action_takes_fresh_int64_tables_in_place():
    graph, group, gens = lps_graph(5, 7)
    sub = unipotent_subgroup(group)
    vperms = group.mul_indices(np.arange(group.order), group.indices_of(sub)[:, None])
    eperms = _edge_images(graph, vperms)
    kept = vperms.nbytes + eperms.nbytes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "_INDEX_BLOCK", 1 << 10)
        tracemalloc.start()
        try:
            action = GraphAction(graph, sub, vperms, eperms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert action.vertex_perms is vperms and action.edge_perms is eperms
    assert not vperms.flags.writeable and not eperms.flags.writeable
    # copies of both tables alone would make the peak at least twice them
    # (parent 182 KB for 75 KB of tables, change 107 KB)
    assert peak < 2 * kept
    _assert_action_matches(action, graph, group, gens, sub)


def test_graph_action_rejects_ragged_and_misshaped_tables():
    from bpcodes.errors import NotFree

    c9 = cycle_labeled_graph(9)
    vperms, eperms = _rotation_tables(c9, [0, 3, 6])
    v, e = np.array(vperms), np.array(eperms)
    GraphAction(c9, cyclic_group(3), v.copy(), e.copy())
    vertex_faults = [
        vperms[:2] + [vperms[2][:-1]],  # ragged
        v[:, :-1].copy(),  # one column short
        np.hstack([v, v[:, :1]]),  # one column long
        v[:2].copy(),  # one element short
        v.ravel().copy(),  # flat
        v.astype(np.int32),
    ]
    for bad in vertex_faults[:-1]:
        with pytest.raises(NotFree, match="^vertex permutations are not a group action$"):
            GraphAction(c9, cyclic_group(3), bad, e.copy())
    GraphAction(c9, cyclic_group(3), vertex_faults[-1], e.copy())  # converted, still an action
    for bad in (eperms[:2] + [eperms[2][:-1]], e[:, :-1].copy(), e[:2].copy()):
        with pytest.raises(NotFree, match="^edge permutations are not a table of edge indices$"):
            GraphAction(c9, cyclic_group(3), v.copy(), bad)
