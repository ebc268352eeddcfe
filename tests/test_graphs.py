import math

import numpy as np
import pytest
import scipy.linalg

from bpcodes.algebra import FiniteGroup, build_pgl2, cyclic_group, unipotent_subgroup
from bpcodes.errors import (
    Disconnected,
    DomainError,
    NotSimpleGraph,
    NotSymmetric,
    QuotientConditionViolated,
    SelfLoop,
)
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
)


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
    edge_set = set(g.edges)
    for shift in range(7):
        for u, v in g.edges:
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
    assert sorted(zip(u.tolist(), v.tolist())) == sorted(g.edges)
    assert (g.adjacency_sparse().toarray() == a).all()

def test_disconnected_detected():
    # two disjoint triangles
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    labels = [(0, 0), (1, 1), (1, 0), (0, 0), (1, 1), (1, 0)]
    g = LabeledGraph(6, edges, labels, 2)
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
    edge_index = {e: k for k, e in enumerate(graph.edges)}

    def tables(steps):
        vperms = [[vid(v // 2 + s[v % 2], v % 2) for v in range(2 * m)] for s in steps]
        eperms = [
            [edge_index[tuple(sorted((vp[u], vp[v])))] for u, v in graph.edges] for vp in vperms
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
    assert g.element_order(rho) == 3
    assert g.element_order(sigma) == 7
    assert g.element_order(g.mul(rho, sigma)) == 2


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
    labels = list(c.labels)
    if relabel_vertex_zero:
        for e, (u, v) in enumerate(c.edges):
            if u == 0:
                labels[e] = (1 - labels[e][0], labels[e][1])
    return LabeledGraph(ell, c.edges, labels, 2)


def _rotation_tables(graph, steps):
    edge_index = {e: k for k, e in enumerate(graph.edges)}
    vperms = [[(v + s) % graph.n for v in range(graph.n)] for s in steps]
    eperms = [
        [edge_index[tuple(sorted((vp[u], vp[v])))] for u, v in graph.edges] for vp in vperms
    ]
    return vperms, eperms


def test_graph_action_rejects_vertex_fixed_point():
    from bpcodes.errors import NotFree

    # the reflection v -> -v of the 4-cycle fixes the vertices 0 and 2
    c4 = cycle_labeled_graph(4)
    edge_index = {e: k for k, e in enumerate(c4.edges)}
    refl = [(-v) % 4 for v in range(4)]
    eperm = [edge_index[tuple(sorted((refl[u], refl[v])))] for u, v in c4.edges]
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
# cayley_right_action, _orbit_tables, quotient_graph, _pair_orbits and
# check_quotient_condition that the index-array versions replaced, kept
# here as the reference. They multiply through the scalar FiniteGroup.mul.


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
    edge_index = {e: i for i, e in enumerate(graph.edges)}
    vperms, eperms = [], []
    for h_elem in sub.elements:
        h = group.index[h_elem]
        vp = [group.mul(v, h) for v in range(group.order)]
        eperms.append([edge_index[(min(vp[u], vp[v]), max(vp[u], vp[v]))] for u, v in graph.edges])
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
    vperms, eperms = action.vertex_perms.tolist(), action.edge_perms.tolist()
    _, orbit_of, rep, shift, _ = _old_orbit_tables(x.n, h, vperms)
    e_orbits, e_orbit_of_old, _, _, e_members = _old_orbit_tables(x.n_edges, h, eperms)
    info = []
    for eo in range(e_orbits):
        u, v = x.edges[e_members[eo][0]]
        ou, ov = orbit_of[u], orbit_of[v]
        src, dst = (ou, ov) if ou < ov else (ov, ou)
        src_rep = rep[src]
        lift = next(e for e in e_members[eo] if src_rep in x.edges[e])
        a, b = x.edges[lift]
        far = b if a == src_rep else a
        info.append(((src, dst), (x.label_at(src_rep, lift), x.label_at(far, lift)), shift[far], lift))
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


def _old_conjugate_witness(group, gens, sub):
    gen_set = set(gens)
    for g in range(group.order):
        for e in sub.elements:
            h = group.index[e]
            if h == group.identity:
                continue
            c = group.mul(group.mul(g, h), group.inv(g))
            if c in gen_set:
                return (g, h, c)
    return None


def _quotient_fields(qd):
    return (
        qd.base.edges,
        qd.base.labels,
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
    from bpcodes.products import _pair_orbits
    from bpcodes.verify import lps_instance

    inst = lps_instance(5, 13)
    graph, group, gens = lps_graph(5, 13)
    assert (graph.edges, graph.labels) == _old_cayley_edges(group, gens)
    sub = inst.action.group
    _assert_action_matches(inst.action, graph, group, gens, sub)
    for perms, n in ((inst.action.vertex_perms, graph.n), (inst.action.edge_perms, graph.n_edges)):
        _assert_orbit_tables_match(n, sub, perms)
    assert _quotient_fields(inst.quotient) == tuple(_old_quotient_fields(inst.action))
    bp = inst.product
    for (p, q), cell in bp.cells.items():
        nl, nr = bp.left.dim(p), bp.right.dim(q)
        reps, orbit_of = _old_pair_orbits(
            bp.left.perms[p].tolist(), bp.right.perms[q].tolist(), sub, nl, nr
        )
        assert cell.reps == reps
        assert np.array_equal(cell.orbit_of, orbit_of)
        fresh = _pair_orbits(bp.left.perms[p], bp.right.perms[q], sub, nl, nr)
        assert fresh.reps == reps and np.array_equal(fresh.orbit_of, orbit_of)
    rep = check_quotient_condition(group, gens, sub)
    assert rep.holds and rep.witness is None is _old_conjugate_witness(group, gens, sub)


def test_psl7_group_layer_matches_loop_reference():
    graph, group, gens = _psl7_rotation_graph()
    assert (graph.edges, graph.labels) == _old_cayley_edges(group, gens)
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


def test_z9_witness_matches_loop_reference():
    z9 = cyclic_group(9)
    sub = FiniteGroup([0, 3, 6], lambda a, b: (a + b) % 9)
    assert check_quotient_condition(z9, [3, 6], sub).witness == _old_conjugate_witness(z9, [3, 6], sub)
    assert check_quotient_condition(z9, [1, 8], sub).witness is None is _old_conjugate_witness(
        z9, [1, 8], sub
    )
