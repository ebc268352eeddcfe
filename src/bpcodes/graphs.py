"""Regular labeled graphs: Cayley/LPS expanders, group actions, quotients
with connections, coset graphs, spectral gaps, and brute-force checks of
the expansion lemmas.

A LabeledGraph is a simple s-regular graph where every vertex carries a
bijection from its incident edges to the label set {0..s-1}; the labels
are what a Tanner local code attaches to.
"""

from __future__ import annotations

import itertools
import math
import mmap
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .algebra import (
    FiniteGroup,
    ProjMat2,
    _ProjectiveGroup,
    build_pgl2,
    build_psl2,
    cyclic_group,
    index_table,
    is_prime,
    legendre,
    row_blocks,
)
from .errors import (
    Disconnected,
    DomainError,
    IncidenceDegenerate,
    InvalidPrimes,
    NotFree,
    NotSimpleGraph,
    NotSymmetric,
    QuotientConditionViolated,
    SelfLoop,
    SizeMismatch,
)


class LabeledGraph:
    """Simple s-regular graph with an edge labeling around each vertex.

    edges[e] = (u, v) with u < v and labels[e] = (label at u, label at v),
    as read-only (n_edges, 2) int arrays; edge_at[v, l] is the edge with
    label l at v, as a read-only (n, s) int array. Edges and labels given
    as int64 arrays are held as they are, not copied, and made read-only.
    """

    def __init__(self, n_vertices: int, edges, labels, degree: int):
        self.n = n_vertices
        self.s = degree
        self.edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        self.labels = np.asarray(labels, dtype=np.int64).reshape(-1, 2)
        self._validate()
        self.edge_at = np.full((self.n, self.s), -1, dtype=np.int64)
        self.edge_at[self.edges, self.labels] = np.arange(self.n_edges)[:, None]
        for table in (self.edges, self.labels, self.edge_at):
            table.flags.writeable = False

    def _validate(self) -> None:
        """Raise on the first faulty edge in index order, with the checks of
        each edge in the order: self-loop, endpoints in order and range,
        parallel to an earlier edge, then the label at u and the label at v,
        each in range and not used before at its vertex; regularity last."""
        if len(self.labels) != len(self.edges):
            raise NotSimpleGraph("labels and edges differ in length")
        if self.s < 0:
            raise NotSimpleGraph(f"negative degree {self.s}")
        u, v = self.edges.T

        def faults():  # one column per check, built when its turn comes
            yield u == v
            yield (u < 0) | (u >= v) | (v >= self.n)
            yield _repeats(u * self.n + v)
            outside = (self.labels < 0) | (self.labels >= self.s)
            # u then v of each edge
            repeated = _repeats(self.edges.ravel() * self.s + self.labels.ravel()).reshape(-1, 2)
            for side in (0, 1):
                yield outside[:, side]
                yield repeated[:, side]

        e, check = self.n_edges, None
        for c, column in enumerate(faults()):
            if column[:e].any():  # a later check wins only at an earlier edge
                e, check = int(np.argmax(column[:e])), c
        if check is not None:
            if check == 0:
                raise SelfLoop(f"edge {e} is a self-loop at {u[e]}")
            if check == 1:
                raise NotSimpleGraph(f"edge {e} endpoints out of order or range")
            if check == 2:
                raise NotSimpleGraph(f"parallel edge {u[e]}-{v[e]}")
            w, l = self.edges[e, (check - 3) // 2], self.labels[e, (check - 3) // 2]
            if check % 2:
                raise NotSimpleGraph(f"label {l} outside [0,{self.s}) at vertex {w}")
            raise NotSimpleGraph(f"label {l} repeated at vertex {w}")
        if (np.bincount(self.edges.ravel(), minlength=self.n) != self.s).any():
            raise NotSimpleGraph("graph is not regular of the declared degree")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=np.float64)
        u, v = self.edges.T
        a[u, v] = 1.0
        a[v, u] = 1.0
        return a

    def adjacency_sparse(self) -> scipy.sparse.csr_matrix:
        """The adjacency in canonical CSR (each row's columns increasing),
        read off ``edge_at``: row v holds the s far ends of v's edges."""
        u, v = self.edges[self.edge_at, 0], self.edges[self.edge_at, 1]  # [w, l]
        far = np.where(u == np.arange(self.n)[:, None], v, u)
        del u, v
        far.sort(axis=1)
        indptr = np.arange(self.n + 1) * self.s
        return scipy.sparse.csr_matrix((np.ones(far.size), far.ravel(), indptr), shape=(self.n, self.n))

    def is_connected(self) -> bool:
        """Breadth-first from vertex 0, one frontier of vertices at a time."""
        seen = np.zeros(self.n, dtype=bool)
        frontier = np.arange(min(self.n, 1))
        while len(frontier):
            seen[frontier] = True
            reached = np.unique(self.edges[self.edge_at[frontier]])
            frontier = reached[~seen[reached]]
        return bool(self.n) and bool(seen.all())


def _repeats(keys: np.ndarray) -> np.ndarray:
    """Whether each key occurred at an earlier position: a stable sort puts
    a key's first position at the head of its run."""
    order = np.argsort(keys, kind="stable")
    run = keys[order]
    seen = np.zeros(len(keys), dtype=bool)
    seen[order[1:]] = run[1:] == run[:-1]
    return seen


# -- Cayley graphs ------------------------------------------------------


def cayley_graph(group: FiniteGroup, gens: list[int]) -> LabeledGraph:
    """Undirected Cayley graph: g joined to s*g for each generator s.

    The label of the edge {g, s*g} at g is the index of s in the given
    (symmetric, ordered) generator list. Involutive generators would give
    one undirected edge two labels at once, so they are rejected, as is a
    generator listed twice. Each edge is listed at its smaller end: the
    pairs (g, s) with s*g > g, row-major over g and the generator index,
    labeled (index of s, index of s^-1).
    """
    gen_set = set(gens)
    if group.identity in gen_set:
        raise SelfLoop("identity in the generating set")
    for s in gens:
        if group.inv(s) not in gen_set:
            raise NotSymmetric("generating set is not closed under inverses")
        if group.inv(s) == s:
            raise NotSymmetric("involutive generator; labeling convention undefined")
    every = np.arange(group.order)
    ends = group.mul_indices(np.asarray(gens, dtype=np.int64), every[:, None])  # [g, idx] = s_idx * g
    if (ends == every[:, None]).any():
        raise SelfLoop("a generator fixes a vertex")
    position = {s: idx for idx, s in enumerate(gens)}
    if len(position) < len(gens):
        raise NotSimpleGraph("two generators produce the same edge")
    g, idx = np.nonzero(ends > every[:, None])
    edges = np.stack([g, ends[g, idx]], axis=1)
    del ends, g
    inverse_label = np.array([position[group.inv(s)] for s in gens], dtype=np.int64)
    labels = np.stack([idx, inverse_label[idx]], axis=1)
    return LabeledGraph(group.order, edges, labels, len(gens))


# -- LPS generator sets ---------------------------------------------------


def _sum_of_four_squares(p: int) -> list[tuple[int, int, int, int]]:
    bound = int(math.isqrt(p))
    out = []
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            ab = a * a + b * b
            if ab > p:
                continue
            for c in range(-bound, bound + 1):
                rem = p - ab - c * c
                if rem < 0:
                    continue
                d = int(math.isqrt(rem))
                for dd in {d, -d}:
                    if dd * dd == rem:
                        out.append((a, b, c, dd))
    return out


def lps_quadruples(p: int) -> list[tuple[int, int, int, int]]:
    """The p+1 integer quadruples with a^2+b^2+c^2+d^2 = p, filtered by the
    sign/parity rule for p mod 4."""
    if not is_prime(p) or p == 2:
        raise InvalidPrimes(f"p={p} is not an odd prime")
    quads = _sum_of_four_squares(p)
    if p % 4 == 1:
        chosen = [q for q in quads if q[0] > 0 and q[0] % 2 == 1]
    else:
        def first_nonzero_positive(q):
            for x in q:
                if x != 0:
                    return x > 0
            return False

        chosen = [q for q in quads if q[0] % 2 == 0 and first_nonzero_positive(q)]
    if len(chosen) != p + 1:
        raise SizeMismatch(f"expected {p + 1} quadruples, found {len(chosen)}")
    return sorted(chosen)


def solve_x2_y2_plus_one(q: int) -> tuple[int, int]:
    """Smallest (x, y) lexicographically with x^2 + y^2 + 1 = 0 mod q."""
    for x in range(q):
        for y in range(q):
            if (x * x + y * y + 1) % q == 0:
                return x, y
    raise InvalidPrimes(f"no solution of x^2+y^2+1=0 mod {q}")  # unreachable for prime q


def lps_generators(p: int, q: int) -> list[ProjMat2]:
    """The p+1 projective matrices generating the LPS expander X_{p,q}.

    The set is symmetric; whether it generates PSL or PGL is decided by
    the Legendre symbol (p/q).
    """
    if p == q or not is_prime(p) or not is_prime(q) or p == 2 or q == 2:
        raise InvalidPrimes("p and q must be distinct odd primes")
    if q <= 2 * math.sqrt(p):
        raise InvalidPrimes(f"need q > 2*sqrt(p); got q={q}, p={p}")
    x, y = solve_x2_y2_plus_one(q)
    mats = []
    for a, b, c, d in lps_quadruples(p):
        mats.append(
            ProjMat2.make(
                q,
                a + b * x + d * y,
                -b * y + c + d * x,
                -b * y - c + d * x,
                a - b * x - d * y,
            )
        )
    if len(set(mats)) != p + 1:
        raise SizeMismatch("quadruples collapsed to fewer projective matrices")
    inv_set = {m.inv() for m in mats}
    if inv_set != set(mats):
        raise NotSymmetric("LPS generator set is not closed under inverses")
    return mats


def lps_graph(p: int, q: int) -> tuple[LabeledGraph, FiniteGroup, list[int]]:
    """Cayley graph of PGL(2,q) or PSL(2,q) on the LPS generators.

    Returns (graph, group, generator indices). The group is PSL when
    (p/q) = 1 and PGL when (p/q) = -1.
    """
    mats = lps_generators(p, q)
    group = build_psl2(q) if legendre(p, q) == 1 else build_pgl2(q)
    gens = group.indices_of(mats).tolist()
    graph = cayley_graph(group, gens)
    return graph, group, gens


# -- spectra -------------------------------------------------------------

EIG_TOL = 1e-6
DENSE_EIG_CAP = 3000


def second_eigenvalue(x: LabeledGraph, tol: float = EIG_TOL) -> float:
    """Second largest adjacency eigenvalue of a connected regular graph.

    Dense symmetric solve below DENSE_EIG_CAP vertices, Lanczos above.
    Raises Disconnected when the top eigenvalue s has multiplicity > 1
    (within tol).
    """
    if x.n <= 2:
        raise DomainError("graph too small for a second eigenvalue")
    if x.n <= DENSE_EIG_CAP:
        vals = _dense_spectrum(x)
        top, second = vals[-1], vals[-2]
    else:
        a = x.adjacency_sparse()
        rng = np.random.default_rng(12345)
        v0 = rng.standard_normal(x.n)
        vals = scipy.sparse.linalg.eigsh(
            a, k=2, which="LA", v0=v0, return_eigenvectors=False, tol=0.0
        )
        vals = np.sort(vals)
        top, second = vals[-1], vals[-2]
    if abs(top - x.s) > 1e-8:
        raise Disconnected("top eigenvalue differs from the degree")
    if abs(second - x.s) <= tol:
        raise Disconnected("degree eigenvalue has multiplicity > 1")
    return float(second)


def _dense_spectrum(x: LabeledGraph) -> np.ndarray:
    """All adjacency eigenvalues of x, ascending, from one LAPACK solve
    that reads the lower triangle only.

    Each edge's one is written at (min, max) of a C-order buffer, whose
    transpose is the Fortran-order matrix with those ones in its lower
    triangle, solved in place without a copy. The buffer is an anonymous
    mapping kept off huge pages, so the pages of the other triangle are
    never faulted in: about n^2 * 4 bytes plus a page per row, where the
    whole matrix is n^2 * 8.
    """
    n = x.n
    buf = mmap.mmap(-1, n * n * 8)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    a = np.frombuffer(buf, dtype=np.float64).reshape(n, n)
    u, v = x.edges.T
    a[np.minimum(u, v), np.maximum(u, v)] = 1.0
    vals = scipy.linalg.eigvalsh(a.T, lower=True, overwrite_a=True, check_finite=False)
    del a  # close() refuses while an array still holds the mapping
    buf.close()
    return vals


# -- expansion bound formulas ---------------------------------------------


def cheeger_lower_bound(s: float, lam2: float, alpha: float) -> float:
    """Vertex-set boundary bound: |dS|/|S| >= (1-alpha)(s-lam2) for |S| <= alpha n."""
    if not (0 <= alpha <= 1):
        raise DomainError("alpha outside [0,1]")
    return (1 - alpha) * (s - lam2)


def edge_to_vertex_beta(s: float, lam2: float, alpha: float) -> float:
    """beta with |Gamma(E)| >= beta |E| for |E| <= alpha |X^1|."""
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    return (math.sqrt(lam2 * lam2 + 4 * s * (s - lam2) * alpha) - lam2) / (
        s * (s - lam2) * alpha
    )


def strong_neighbor_beta(s: float, lam2: float, alpha: float, b: float) -> float:
    """beta with |A| >= beta |S| where A = vertices of S having at least s-b
    boundary edges, for |S| <= alpha n."""
    if b <= 0 or b > s:
        raise DomainError("need 0 < b <= s")
    if alpha < 0:
        raise DomainError("alpha must be nonnegative")
    return ((b - lam2) - alpha * (s - lam2)) / b


def alon_chung_edge_fraction(s: float, lam2: float, gamma: float) -> float:
    """Upper bound on the induced-subgraph edge fraction for |S| = gamma n."""
    if not (0 <= gamma <= 1):
        raise DomainError("gamma outside [0,1]")
    return gamma * gamma + (lam2 / s) * gamma * (1 - gamma)


@dataclass(frozen=True)
class ExpansionCheckReport:
    lemma: str
    subsets_checked: int
    violations: int
    tightest_ratio: float  # min of (observed / bound) over checked subsets

    @property
    def holds(self) -> bool:
        return self.violations == 0


def brute_force_expansion_check(
    x: LabeledGraph, lemma: str, max_subset: int, alpha: float = 1.0, b: float | None = None
) -> ExpansionCheckReport:
    """Verify one of the expansion inequalities over every subset up to
    max_subset elements (vertex subsets or edge subsets depending on the
    lemma). Ratios <= 1 would be violations.
    """
    lam2 = second_eigenvalue(x)
    s = x.s
    edges = x.edges.tolist()
    checked = violations = 0
    tightest = math.inf

    if lemma == "cheeger":
        n = x.n
        for size in range(1, min(max_subset, n) + 1):
            if size > alpha * n:
                break
            for sub in itertools.combinations(range(n), size):
                bound = cheeger_lower_bound(s, lam2, size / n)
                cut = _cut_size(edges, set(sub))
                checked += 1
                ratio = (cut / size) / bound if bound > 0 else math.inf
                tightest = min(tightest, ratio)
                if cut / size < bound - 1e-9:
                    violations += 1
    elif lemma == "edge_vertex":
        ne = x.n_edges
        for size in range(1, min(max_subset, ne) + 1):
            if size > alpha * ne:
                break
            beta = edge_to_vertex_beta(s, lam2, alpha)
            for sub in itertools.combinations(range(ne), size):
                touched = set()
                for e in sub:
                    touched.update(edges[e])
                checked += 1
                ratio = len(touched) / (beta * size) if beta > 0 else math.inf
                tightest = min(tightest, ratio)
                if len(touched) < beta * size - 1e-9:
                    violations += 1
    elif lemma == "strong_neighbor":
        if b is None:
            b = s
        n = x.n
        ends = x.edges[x.edge_at]  # [v, l]: the edge with label l at v
        nbrs = np.where(ends[..., 0] == np.arange(n)[:, None], ends[..., 1], ends[..., 0]).tolist()
        for size in range(1, min(max_subset, n) + 1):
            if size > alpha * n:
                break
            beta = strong_neighbor_beta(s, lam2, alpha, b)
            for sub in itertools.combinations(range(n), size):
                subset = set(sub)
                a_count = 0
                for v in subset:
                    boundary_here = sum(1 for w in nbrs[v] if w not in subset)
                    if boundary_here >= s - b:
                        a_count += 1
                checked += 1
                ratio = a_count / (beta * size) if beta > 0 else math.inf
                tightest = min(tightest, ratio)
                if a_count < beta * size - 1e-9:
                    violations += 1
    elif lemma == "alon_chung":
        n = x.n
        for size in range(1, min(max_subset, n) + 1):
            gamma = size / n
            cap = alon_chung_edge_fraction(s, lam2, gamma) * x.n_edges
            for sub in itertools.combinations(range(n), size):
                subset = set(sub)
                inner = sum(1 for u, v in edges if u in subset and v in subset)
                checked += 1
                ratio = cap / inner if inner > 0 else math.inf
                tightest = min(tightest, ratio)
                if inner > cap + 1e-9:
                    violations += 1
    else:
        raise DomainError(f"unknown lemma id {lemma!r}")

    return ExpansionCheckReport(lemma, checked, violations, tightest)


def _cut_size(edges: list[list[int]], subset: set[int]) -> int:
    return sum(1 for u, v in edges if (u in subset) != (v in subset))


# -- group actions on graphs ----------------------------------------------


class GraphAction:
    """A free action of a finite group on a labeled graph.

    vertex_perms[h, v] and edge_perms[h, e] give the images under the h-th
    group element, as read-only (order, n) int arrays; tables given as
    int64 arrays are held as they are, not copied. vertex_orbits and
    edge_orbits are their ``_orbit_tables`` (orbit_of, rep, shift).

    Construction checks each fact once, in this order: both tables are
    actions (the edge table also in range); vertices, then edges, are
    free by the orbit count; on the generators only, each edge goes to
    the edge between its ends' images and keeps its labels (products of
    such maps are such maps); no edge lies inside a vertex orbit (the
    lowest-index one is named). Of two faults the earlier check reports:
    an edge table that is not an action is reported as not matching the
    vertex images before any fixed point, every fault above comes before
    a label fault, and on the generators the first faulty edge of the
    first faulty generator is reported.
    """

    def __init__(self, graph: LabeledGraph, group: FiniteGroup, vertex_perms, edge_perms):
        self.graph = graph
        self.group = group
        self.vertex_perms = index_table(vertex_perms, (group.order, graph.n))
        self.edge_perms = index_table(edge_perms, (group.order, graph.n_edges))
        self._validate()

    def _validate(self) -> None:
        g, x = self.group, self.graph
        vp, ep = self.vertex_perms, self.edge_perms
        if vp is None or not g.is_action_table(vp):
            raise NotFree("vertex permutations are not a group action")
        if ep is None or (ep.size and (ep.min() < 0 or ep.max() >= x.n_edges)):
            raise NotFree("edge permutations are not a table of edge indices")
        if not g.is_action_table(ep):
            raise NotFree("edge permutation does not match vertex images")
        try:
            self.vertex_orbits = _orbit_tables(x.n, g, vp)
        except NotFree:
            raise NotFree("action has a vertex fixed point") from None
        try:
            self.edge_orbits = _orbit_tables(x.n_edges, g, ep)
        except NotFree:
            raise NotFree("action has an edge fixed point") from None
        ends, labs = x.edges, x.labels
        gens = np.asarray(g.generators, dtype=np.int64)
        vg, eg = vp[gens], ep[gens]
        iu, iv = vg[:, ends[:, 0]], vg[:, ends[:, 1]]
        image, image_labs = ends[eg], labs[eg]
        moved = (image[..., 0] != np.minimum(iu, iv)) | (image[..., 1] != np.maximum(iu, iv))
        at_u = np.where(image[..., 0] == iu, image_labs[..., 0], image_labs[..., 1])
        at_v = np.where(image[..., 0] == iv, image_labs[..., 0], image_labs[..., 1])
        bad = moved | (at_u != labs[:, 0]) | (at_v != labs[:, 1])
        if bad.any():
            if moved.flat[np.argmax(bad)]:
                raise NotFree("edge permutation does not match vertex images")
            raise QuotientConditionViolated("labels are not action-invariant")
        orbit_of = self.vertex_orbits[0]
        inside = orbit_of[ends[:, 0]] == orbit_of[ends[:, 1]]
        if inside.any():
            u, v = ends[np.argmax(inside)]
            raise QuotientConditionViolated(f"edge {u}-{v} joins a vertex to its own orbit")


def _edge_images(graph: LabeledGraph, vperms: np.ndarray) -> np.ndarray:
    """Edge permutations induced by label-preserving vertex permutations,
    a block of group elements at a time: the image of an edge is the edge
    at its first end's image with the label it has at its first end."""
    ends, labels = graph.edges, graph.labels
    out = np.empty((len(vperms), graph.n_edges), dtype=np.int64)
    for rows in row_blocks(len(vperms), graph.n_edges):
        out[rows] = graph.edge_at[vperms[rows][:, ends[:, 0]], labels[:, 0]]
    return out


def cayley_right_action(
    graph: LabeledGraph, group: FiniteGroup, gens: list[int], sub: FiniteGroup
) -> GraphAction:
    """Right-multiplication action of a subgroup on a Cayley graph.

    The Cayley graph must have been built by cayley_graph(group, gens) so
    vertex v is the group element of index v.
    """
    h = group.indices_of(sub)
    if (h < 0).any():
        raise NotFree("subgroup element missing from the ambient group")
    vperms = group.mul_indices(np.arange(group.order), h[:, None])
    return GraphAction(graph, sub, vperms, _edge_images(graph, vperms))


def cycle_labeled_graph(ell: int) -> LabeledGraph:
    """The cycle on ell >= 3 vertices; edge (i, i+1) is labeled 1 at i and
    0 at i+1, which is invariant under rotation."""
    if ell < 3:
        raise NotSimpleGraph("simple cycle needs at least 3 vertices")
    edges, labels = [], []
    for i in range(ell):
        j = (i + 1) % ell
        u, v = min(i, j), max(i, j)
        lab_i, lab_j = 1, 0
        if u == i:
            labels.append((lab_i, lab_j))
        else:
            labels.append((lab_j, lab_i))
        edges.append((u, v))
    return LabeledGraph(ell, edges, labels, 2)


def cycle_rotation_action(graph: LabeledGraph, subgroup_order: int) -> GraphAction:
    """Z_m acting on the cycle C_ell by rotation through ell/m steps."""
    ell = graph.n
    if ell % subgroup_order:
        raise NotFree("subgroup order must divide the cycle length")
    step = ell // subgroup_order
    shifts = np.arange(subgroup_order) * step
    vperms = (np.arange(ell) + shifts[:, None]) % ell
    return GraphAction(graph, cyclic_group(subgroup_order), vperms, _edge_images(graph, vperms))


@dataclass(frozen=True)
class Connection:
    """Group element attached to each oriented base edge of a quotient.

    values[e] is the element index h (in the acting group) such that the
    lift of base edge e starting at the source representative ends at
    (target representative) * h. Orientation follows the stored base edge
    (lower vertex index first); reversing the orientation inverts h.
    """

    base: LabeledGraph
    group: FiniteGroup
    values: tuple[int, ...]


@dataclass(frozen=True)
class QuotientData:
    base: LabeledGraph
    connection: Connection
    vertex_orbit_of: tuple[int, ...]  # vertex -> base vertex
    vertex_rep: tuple[int, ...]  # base vertex -> chosen representative
    vertex_shift: tuple[int, ...]  # vertex v = rep[orbit(v)] acted by group element shift[v]
    edge_orbit_of: tuple[int, ...]
    edge_rep: tuple[int, ...]  # base edge -> source-lift representative edge
    edge_shift: tuple[int, ...]  # edge e = edge_rep[orbit(e)] shifted by this element


def quotient_graph(action: GraphAction) -> QuotientData:
    """Quotient by a free action satisfying the quotient condition.

    Vertex representatives are the smallest orbit members. Each base edge
    is oriented (lower orbit index first) and its representative lift is
    the unique orbit member through the source representative; the
    connection value is the group element carrying the target
    representative to the lift's far endpoint.
    """
    x, h = action.graph, action.group
    orbit_of, rep, shift = action.vertex_orbits
    e_orbit_of_old, e_min, _ = action.edge_orbits

    # per edge orbit, numbered by smallest member: its base pair
    ends = x.edges[e_min]
    ou, ov = orbit_of[ends[:, 0]], orbit_of[ends[:, 1]]
    src, dst = np.minimum(ou, ov), np.maximum(ou, ov)
    codes = src * len(rep) + dst
    if _repeats(codes).any():
        raise NotSimpleGraph("quotient has parallel edges; not representable")
    # the lift through the source representative: move the member's
    # source-side endpoint back onto the representative
    src_end = np.where(ou == src, ends[:, 0], ends[:, 1])
    lift = action.edge_perms[h.inverses()[shift[src_end]], e_min]
    src_rep = rep[src]
    lift_ends, lift_labs = x.edges[lift], x.labels[lift]
    first = lift_ends[:, 0] == src_rep  # else lift_ends[:, 1] is: edges follow their ends
    far = np.where(first, lift_ends[:, 1], lift_ends[:, 0])
    base_labels = np.where(first[:, None], lift_labs, lift_labs[:, ::-1])

    order = np.argsort(codes)
    renum = np.empty(len(order), dtype=np.int64)
    renum[order] = np.arange(len(order))
    edge_rep = lift[order]
    base = LabeledGraph(len(rep), np.stack([src, dst], axis=1)[order], base_labels[order], x.s)
    conn = Connection(base, h, tuple(shift[far][order].tolist()))

    edge_shift = np.empty(x.n_edges, dtype=np.int64)  # free: each edge once
    edge_shift[action.edge_perms[:, edge_rep]] = np.arange(h.order)[:, None]

    return QuotientData(
        base=base,
        connection=conn,
        vertex_orbit_of=tuple(orbit_of.tolist()),
        vertex_rep=tuple(rep.tolist()),
        vertex_shift=tuple(shift.tolist()),
        edge_orbit_of=tuple(renum[e_orbit_of_old].tolist()),
        edge_rep=tuple(edge_rep.tolist()),
        edge_shift=tuple(edge_shift.tolist()),
    )


def _orbit_tables(n: int, h: FiniteGroup, perms) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orbit decomposition of a free action given as an (order, n) action
    table; no orbit is larger than the group, so it is free iff it has
    n / order orbits. Returns int arrays (orbit_of, representative, shift):
    representatives are the minimal orbit members, orbits are numbered by
    increasing representative, and shift[w] is the group element index
    carrying the representative to w (perms[shift[w]][rep] == w).
    """
    p = np.asarray(perms, dtype=np.int64).reshape(h.order, n)
    rep, orbit_of = np.unique(p.min(axis=0), return_inverse=True)
    if len(rep) * h.order != n:
        raise NotFree("orbit smaller than the group order")
    shift = np.empty(n, dtype=np.int64)
    shift[p[:, rep]] = np.arange(h.order)[:, None]
    return orbit_of.reshape(n), rep, shift


def reconstruct_from_quotient(qd: QuotientData) -> LabeledGraph:
    """Rebuild the covering graph from (base, connection); vertices are
    (base vertex, group element) pairs ordered base-major, edges base-edge
    major with the group element inner."""
    base, h = qd.base, qd.connection.group
    k = np.arange(h.order)
    a = base.edges[:, :1] * h.order + k
    b = base.edges[:, 1:] * h.order + h.mul_indices(np.asarray(qd.connection.values)[:, None], k)
    swap = (a > b)[..., None]
    labels = np.where(swap, base.labels[:, None, ::-1], base.labels[:, None, :])
    edges = np.stack([np.minimum(a, b), np.maximum(a, b)], axis=-1)
    return LabeledGraph(base.n * h.order, edges.reshape(-1, 2), labels.reshape(-1, 2), base.s)


def graphs_isomorphic_by_map(a: LabeledGraph, b: LabeledGraph, vmap) -> bool:
    """Check that the explicit vertex map vmap carries a onto b with labels."""
    if a.n != b.n or a.n_edges != b.n_edges or a.s != b.s:
        return False
    vmap = np.asarray(vmap, dtype=np.int64)
    if len(vmap) and (vmap.min() < 0 or vmap.max() >= b.n):
        return False
    # b's edge with a's label at the image of a's first end, then its far end
    iu, iv = vmap[a.edges[:, 0]], vmap[a.edges[:, 1]]
    eb = b.edge_at[iu, a.labels[:, 0]]
    first = b.edges[eb, 0] == iu
    far = np.where(first, b.edges[eb, 1], b.edges[eb, 0])
    at_iv = np.where(first, b.labels[eb, 1], b.labels[eb, 0])
    return bool((far == iv).all() and (at_iv == a.labels[:, 1]).all())


# -- quotient condition ----------------------------------------------------


@dataclass(frozen=True)
class QuotientConditionReport:
    holds: bool
    witness: tuple[int, int, int] | None  # (g, h, s) with g h g^-1 = s
    determinant_shortcut: bool | None  # None when not applicable


def check_quotient_condition(
    group: FiniteGroup, gens: list[int], sub: FiniteGroup
) -> QuotientConditionReport:
    """Exhaustively test that no conjugate of the subgroup meets the
    generator set; cross-checks the determinant-class argument when the
    elements are projective matrices."""
    sub_in_g = group.indices_of(sub)
    if (sub_in_g < 0).any():
        raise NotFree("subgroup element missing from the ambient group")
    hs = sub_in_g[sub_in_g != group.identity]
    g = np.arange(group.order)[:, None]
    conj = group.mul_indices(group.mul_indices(g, hs), group.inverses()[g])  # [g, k] = g hs[k] g^-1
    hit = np.isin(conj, gens)
    witness = None
    if hit.any():  # the first hit in g-major, subgroup order
        i, k = np.unravel_index(np.argmax(hit), hit.shape)
        witness = (int(i), int(hs[k]), int(conj[i, k]))

    shortcut = None
    if witness is None and isinstance(group, _ProjectiveGroup):
        # dets live in F_q^x / squares; conjugates of unipotents are in the
        # square class, so disjointness is forced when no generator is
        square = group.square_determinants()
        shortcut = set(square[hs].tolist()).isdisjoint(square[gens].tolist())

    return QuotientConditionReport(witness is None, witness, shortcut)


# -- coset graphs ----------------------------------------------------------


def find_rotation_pair(group: FiniteGroup, r: int, s: int) -> tuple[int, int]:
    """First pair (by index order) of elements with orders (r, s) whose
    product is an involution."""
    orders = group.element_orders()
    a, b = np.flatnonzero(orders == r), np.flatnonzero(orders == s)
    hit = orders[group.mul_indices(a[:, None], b)] == 2
    if not hit.any():
        raise IncidenceDegenerate(f"no ({r},{s},2) generator pair in {group.name}")
    i, j = np.unravel_index(np.argmax(hit), hit.shape)
    return int(a[i]), int(b[j])


def coset_graph(group: FiniteGroup, rho: int, sigma: int) -> LabeledGraph:
    """Graph of a rotation system: vertices are left cosets of <sigma>,
    edges are left cosets of <rho*sigma> (an involution), incidence by
    intersection. Both kinds of coset are numbered by their smallest
    member; edges are then sorted by their endpoints.

    Labels around each vertex follow the sigma-rotation orbit starting at
    the smallest coset member, so the labeling respects the rotational
    symmetry.
    """
    rotation = group.powers(sigma)
    edge_inv = group.mul(rho, sigma)
    if len(group.powers(edge_inv)) != 2:
        raise IncidenceDegenerate("rho*sigma is not an involution")
    every = np.arange(group.order)
    cosets = group.mul_indices(every[:, None], rotation)
    reps, vertex_of = np.unique(cosets.min(axis=1), return_inverse=True)
    partner = group.mul_indices(every, edge_inv)  # the edge coset of g is {g, partner[g]}
    if (vertex_of[partner] == vertex_of).any():
        raise IncidenceDegenerate("an edge coset does not meet exactly two vertex cosets")
    # the edge through ghat * sigma^k gets label k at the coset of ghat
    label = np.empty(group.order, dtype=np.int64)
    label[group.mul_indices(reps[:, None], rotation)] = np.arange(len(rotation))
    ends = np.stack([every, partner], axis=1)[every < partner]
    ends = np.where((vertex_of[ends[:, :1]] < vertex_of[ends[:, 1:]]), ends, ends[:, ::-1])
    order = np.lexsort((vertex_of[ends[:, 1]], vertex_of[ends[:, 0]]))
    return LabeledGraph(len(reps), vertex_of[ends[order]], label[ends[order]], len(rotation))


def klein_quartic_graph() -> tuple[LabeledGraph, FiniteGroup, int, int]:
    """The 7-regular graph on 24 vertices and 84 edges from the {3,7}
    rotation system inside PSL(2,7)."""
    group = build_psl2(7)
    rho, sigma = find_rotation_pair(group, 3, 7)
    graph = coset_graph(group, rho, sigma)
    if (graph.n, graph.n_edges, graph.s) != (24, 84, 7):
        raise IncidenceDegenerate("unexpected Klein-quartic skeleton")
    return graph, group, rho, sigma


def complete_graph(n: int) -> LabeledGraph:
    """K_n with labels given by the cyclic difference j - i mod n (minus 1)."""
    edges, labels = [], []
    for i in range(n):
        for j in range(i + 1, n):
            edges.append((i, j))
            labels.append(((j - i) % n - 1, (i - j) % n - 1))
    return LabeledGraph(n, edges, labels, n - 1)
