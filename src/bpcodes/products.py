"""Products of chain complexes sharing a cyclic symmetry.

Three equivalent constructions are provided and cross-checked bit for
bit after basis alignment:

* the balanced product (quotient of the tensor product by the
  antidiagonal action),
* the fiber bundle complex over the quotient base with a connection
  twisting the base differential, and
* the lifted product of matrices over the group algebra GF(2)[Z_ell],
  expanded through circulant lifts.

Basis conventions. Balanced-product cells are orbit representatives of
basis pairs chosen with the smallest left index, ordered lexicographically.
The left action is free, so these are the pairs (rep[k], y') of a left
orbit's smallest member and any right basis index, and they are numbered
in closed form from the left factor's orbit table (``graphs._orbit_tables``)
alone: orbit k * n_right + y' is the one through (rep[k], y'), and the
pair (x, y) lies in orbit orbit[x] * n_right + y', where y' is y moved by
the group element that carries rep[orbit[x]] to x. Fiber-bundle and
lifted-product cells are (base cell, fiber position) pairs, base-major.
The canonical alignment target keys every cell by (base cell, fiber
shift) where the left factor's representative is the source-lift (the
orbit member through the source vertex representative); ``aligned_total``
converts each construction into that shared basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    FiniteGroup,
    GroupAlgebraElem,
    cyclic_group,
    index_table,
    lift_group_algebra_matrix,
)
from .complexes import ChainComplex, DoubleComplex, _kron, cycle_graph_complex, total_complex
from .errors import (
    ActionInvalid,
    ActionNotChainMap,
    DimensionMismatch,
    EvenOrder,
    IncidenceMissing,
    KunnethViolation,
    NotAutomorphism,
    NotFree,
    NotFreeOnBasis,
)
from .f2la import F2Matrix, IncrementalSpan, kernel_basis, rank, solve, solve_matrix
from .graphs import GraphAction, QuotientData, _orbit_tables, quotient_graph
from .tanner import TannerComplex, build_tanner


# -- complexes carrying a group action -------------------------------------


class ComplexWithAction:
    """Chain complex with a permutation action of an abelian group on the
    distinguished basis of every degree.

    perms[degree][h] is the permutation for the h-th group element, stored
    as a read-only (order, dim) int array per degree; the table of every
    degree must be a group action, and every permutation must commute with
    the differentials. Only a balanced product's left factor must be free.
    """

    def __init__(self, cx: ChainComplex, group: FiniteGroup, perms):
        self.complex = cx
        self.group = group
        # balanced products need an abelian group
        if not group.is_abelian():
            raise ActionInvalid(f"group {group.name} is not abelian")
        self.perms = {d: self._table(perms, d) for d in cx.degrees()}
        self._validate()

    def _table(self, perms, d: int) -> np.ndarray:
        """The action table of degree d, checked to be a group action."""
        g, n = self.group, self.complex.dim(d)
        if n == 0:
            return np.zeros((g.order, 0), dtype=np.int64)
        if len(perms.get(d, [])) != g.order:
            raise ActionInvalid(f"missing permutations at degree {d}")
        table = index_table(perms[d], (g.order, n))
        if table is None or not g.is_action_table(table):
            raise ActionInvalid(f"permutations at degree {d} are not a group action")
        return table

    def _validate(self) -> None:
        """Raise on the first element in index order not commuting with
        d_d. Generators suffice: commuting elements form a subgroup, and
        every element before a generator lies in that of the earlier ones."""
        gens = np.array(self.group.generators, dtype=np.int64)[:, None]
        for d, m in self.complex.diffs.items():
            # each generator must carry the ones of d_d onto themselves
            r, c = m.nonzeros()
            ones = np.sort(r * m.cols + c)
            moved = np.sort(self.perms[d - 1][gens, r] * m.cols + self.perms[d][gens, c], axis=1)
            off = (moved != ones).any(axis=1)
            if off.any():
                raise ActionNotChainMap(
                    f"group element {int(gens[np.argmax(off), 0])} does not commute with d_{d}"
                )

    def dim(self, d: int) -> int:
        return self.complex.dim(d)


def _rotations(ell: int, shifts) -> np.ndarray:
    """Row i rotates 0..ell-1 by shifts[i]."""
    return (np.arange(ell) + np.asarray(shifts, dtype=np.int64)[:, None]) % ell


def cycle_complex_with_action(ell: int) -> ComplexWithAction:
    """Chain complex of the ell-cycle with Z_ell rotating both cell types;
    the group element k shifts indices by +k."""
    rotations = _rotations(ell, range(ell))
    return ComplexWithAction(cycle_graph_complex(ell), cyclic_group(ell), {0: rotations, 1: rotations})


def tanner_complex_with_action(t: TannerComplex, action: GraphAction) -> ComplexWithAction:
    """The Tanner complex acted on through the graph action: edges move by
    the edge permutations, per-vertex checks follow their vertex."""
    if action.graph is not t.graph:
        raise ActionInvalid("action was built on a different graph")
    c = t.checks_per_vertex
    idx = np.arange(t.graph.n * c)
    perms0 = action.vertex_perms[:, idx // c] * c + idx % c
    return ComplexWithAction(t.complex, action.group, {1: action.edge_perms, 0: perms0})


# -- balanced product -------------------------------------------------------


@dataclass(frozen=True)
class BalancedCell:
    """Quotient basis of one (p, q) grid cell, numbered in closed form
    from the left orbit table (see the module docstring): the orbit of
    (x, y) under h: (x, y) -> (hx, h^-1 y) has the representative
    (rep[orbit[x]], perms_r[shift[x]][y])."""

    orbit: np.ndarray  # left basis index -> left orbit
    rep: np.ndarray  # left orbit -> its smallest member, increasing
    shift: np.ndarray  # left basis index -> element carrying its rep to it
    perms_r: np.ndarray  # right action table, (order, nr)

    @property
    def dim(self) -> int:
        return len(self.rep) * self.perms_r.shape[1]

    def orbit_ids(self, x, y) -> np.ndarray:
        """Orbit index of each pair (x, y)."""
        return self.orbit[x] * self.perms_r.shape[1] + self.perms_r[self.shift[x], y]

    def representatives(self) -> tuple[np.ndarray, np.ndarray]:
        """Left and right members of every orbit's representative, in
        orbit order."""
        nr = self.perms_r.shape[1]
        return np.repeat(self.rep, nr), np.tile(np.arange(nr), len(self.rep))


class BalancedProductComplex:
    """Total complex of (C (x)_H D) together with its quotient-basis maps."""

    def __init__(
        self,
        left: ComplexWithAction,
        right: ComplexWithAction,
        double: DoubleComplex,
        total: ChainComplex,
        cells: dict[tuple[int, int], BalancedCell],
    ):
        self.left = left
        self.right = right
        self.group = left.group
        self.double = double
        self.total = total
        self.cells = cells

    def cell_dim(self, p: int, q: int) -> int:
        cell = self.cells.get((p, q))
        return cell.dim if cell else 0


def balanced_product(left: ComplexWithAction, right: ComplexWithAction) -> BalancedProductComplex:
    """Quotient of the tensor-product double complex by [xh (x) y] = [x (x) hy].

    The group must act freely on the left factor's bases; orbit
    representatives minimize the left index and cells are ordered
    lexicographically by representative.
    """
    g, gr = left.group, right.group
    if g is not gr and (g.name != gr.name or not g.same_table(gr)):
        raise DimensionMismatch("factors carry different groups")
    cl, cr = left.complex, right.complex

    cells: dict[tuple[int, int], BalancedCell] = {}
    right_degrees = [q for q in cr.degrees() if cr.dim(q)]
    for p in cl.degrees():
        if cl.dim(p) == 0 or not right_degrees:
            continue
        try:
            tables = _orbit_tables(cl.dim(p), g, left.perms[p])
        except NotFree:
            raise NotFreeOnBasis("left action not free: a pair orbit is not full size") from None
        for q in right_degrees:
            cells[(p, q)] = BalancedCell(*tables, right.perms[q])

    grid = {pq: cell.dim for pq, cell in cells.items()}
    vdiffs: dict[tuple[int, int], F2Matrix] = {}
    hdiffs: dict[tuple[int, int], F2Matrix] = {}
    for (p, q), cell in cells.items():
        if (p, q - 1) in cells:
            vdiffs[(p, q)] = _induced(cell, cells[(p, q - 1)], cr.differential(q), 1)
        if (p - 1, q) in cells:
            hdiffs[(p, q)] = _induced(cell, cells[(p - 1, q)], cl.differential(p), 0)
    double = DoubleComplex(grid, vdiffs, hdiffs, check=True)
    total = total_complex(double)
    return BalancedProductComplex(left, right, double, total, cells)


def _induced(src: BalancedCell, dst: BalancedCell, d: F2Matrix, side: int) -> F2Matrix:
    """Differential of one factor pushed to the quotient bases.

    ``side`` 0 applies d to the left member of each representative pair
    (x, y), side 1 to the right member: the column of source orbit o
    holds the orbits of (z, y) (resp. (x, z)) for every z with d[z, .] = 1.
    """
    reps = src.representatives()
    rows, cols = d.nonzeros()
    by_col = np.argsort(cols, kind="stable")
    hits = rows[by_col]
    deg = np.bincount(cols, minlength=d.cols)
    first = np.cumsum(deg) - deg
    counts = deg[reps[side]]
    orbit = np.repeat(np.arange(src.dim), counts)
    within = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    pair = [reps[0][orbit], reps[1][orbit]]
    pair[side] = hits[np.repeat(first[reps[side]], counts) + within]
    return F2Matrix.from_entries(dst.dim, src.dim, (dst.orbit_ids(*pair), orbit))


# -- fiber bundle complexes -------------------------------------------------


@dataclass(frozen=True)
class FiberAutomorphism:
    """Automorphism of a two-term complex: invertible maps in each degree
    commuting with the differential."""

    deg1: F2Matrix
    deg0: F2Matrix

    def validate(self, fiber: ChainComplex) -> None:
        d = fiber.differential(1)
        if self.deg1.rows != self.deg1.cols or self.deg0.rows != self.deg0.cols:
            raise NotAutomorphism("automorphism blocks must be square")
        if rank(self.deg1) != self.deg1.rows or rank(self.deg0) != self.deg0.rows:
            raise NotAutomorphism("automorphism blocks must be invertible")
        if self.deg0.matmul(d) != d.matmul(self.deg1):
            raise NotAutomorphism("maps do not commute with the fiber differential")


def rotation_automorphism(ell: int, shift: int) -> FiberAutomorphism:
    perm = F2Matrix.from_entries(ell, ell, [((j + shift) % ell, j) for j in range(ell)])
    return FiberAutomorphism(perm, perm)


def identity_automorphism(fiber: ChainComplex) -> FiberAutomorphism:
    return FiberAutomorphism(
        F2Matrix.identity(fiber.dim(1)), F2Matrix.identity(fiber.dim(0))
    )


class FiberBundleComplex:
    """Twist of the tensor product of two 1-complexes by a connection.

    Cells are (base cell, fiber cell) pairs, base-major. The connection
    maps each incidence (base edge, boundary vertex) to a fiber
    automorphism; the twisted differential applies it on the target side.
    """

    def __init__(self, base: ChainComplex, fiber: ChainComplex, connection: dict):
        self.base = base
        self.fiber = fiber
        self.connection = dict(connection)
        self._validate()
        self.double = self._build_double()
        self.total = total_complex(self.double)

    def _validate(self) -> None:
        db = self.base.differential(1)
        incidences = set()
        rows, cols = db.nonzeros()
        for b0, b1 in zip(rows.tolist(), cols.tolist()):
            incidences.add((b1, b0))
        for key in incidences:
            if key not in self.connection:
                raise IncidenceMissing(f"no connection value for incidence {key}")
        for key, aut in self.connection.items():
            if key not in incidences:
                raise IncidenceMissing(f"connection value at a non-incidence {key}")
            aut.validate(self.fiber)

    def _build_double(self) -> DoubleComplex:
        b, f = self.base, self.fiber
        nf1, nf0 = f.dim(1), f.dim(0)
        grid = {
            (1, 1): b.dim(1) * nf1,
            (1, 0): b.dim(1) * nf0,
            (0, 1): b.dim(0) * nf1,
            (0, 0): b.dim(0) * nf0,
        }
        df = f.differential(1)
        drows, dcols = df.nonzeros()
        vd = {}
        for p, nb in ((1, b.dim(1)), (0, b.dim(0))):
            ones = [
                (bi * nf0 + int(r), bi * nf1 + int(c))
                for bi in range(nb)
                for r, c in zip(drows, dcols)
            ]
            vd[(p, 1)] = F2Matrix.from_entries(grid[(p, 0)], grid[(p, 1)], ones)
        hd = {}
        for q, nf in ((1, nf1), (0, nf0)):
            ones = []
            for (b1, b0), aut in self.connection.items():
                block = aut.deg1 if q == 1 else aut.deg0
                arows, acols = block.nonzeros()
                for r, c in zip(arows.tolist(), acols.tolist()):
                    ones.append((b0 * nf + r, b1 * nf + c))
            hd[(1, q)] = F2Matrix.from_entries(
                grid[(0, q)], grid[(1, q)], ones
            )
        return DoubleComplex(grid, vd, hd, check=True)


def trivial_connection(base: ChainComplex, fiber: ChainComplex) -> dict:
    ident = identity_automorphism(fiber)
    rows, cols = base.differential(1).nonzeros()
    return {(int(b1), int(b0)): ident for b0, b1 in zip(rows, cols)}


def fiber_bundle_complex(
    base: ChainComplex, fiber: ChainComplex, connection: dict
) -> FiberBundleComplex:
    return FiberBundleComplex(base, fiber, connection)


@dataclass(frozen=True)
class BundleKunnethReport:
    hypothesis_ok: bool
    degree: int
    total_dim: int
    sum_of_products: int
    projection_iso: bool | None  # rank checks when the stronger hypotheses hold

    @property
    def holds(self) -> bool:
        return (not self.hypothesis_ok) or self.total_dim == self.sum_of_products


def verify_bundle_kunneth(fb: FiberBundleComplex, n: int) -> BundleKunnethReport:
    """Check the product formula for the bundle homology when every
    connection value acts as the identity on the fiber homology.

    When additionally the fiber augmentation is an isomorphism on H_0 and
    the base has H_0 = 0, the contraction of the fiber induces a bijection
    on first homology; its matrix rank is verified too.
    """
    f = fb.fiber
    if not _connection_trivial_on_homology(fb):
        return BundleKunnethReport(False, n, -1, -1, None)
    tot = fb.total
    lhs = tot.homology_dim(n) if n in tot.dims else 0
    rhs = sum(
        fb.base.homology_dim(p) * f.homology_dim(n - p)
        for p in fb.base.degrees()
        if (n - p) in f.dims
    )
    if lhs != rhs:
        raise KunnethViolation(f"bundle homology {lhs} != product sum {rhs}")

    projection_iso = None
    if fb.base.homology_dim(0) == 0 and _augmentation_iso(f):
        projection_iso = _projection_rank_full(fb)
    return BundleKunnethReport(True, n, lhs, rhs, projection_iso)


def _connection_trivial_on_homology(fb: FiberBundleComplex) -> bool:
    f = fb.fiber
    h1 = f.homology_basis(1)
    h0 = f.homology_basis(0)
    bounds0_t = h0.boundary_space.basis.transpose()
    for aut in fb.connection.values():
        for z in h1.cycle_reps.basis.row_ints():
            if aut.deg1.mul_vec_int(z) != z:
                # degree-1 boundaries vanish in a 1-complex, so identity on
                # homology means literal fixity of cycles
                return False
        for z in h0.cycle_reps.basis.row_ints():
            diff = aut.deg0.mul_vec_int(z) ^ z
            if diff and solve(bounds0_t, diff) is None:
                return False
    return True


def _augmentation_iso(f: ChainComplex) -> bool:
    # all-ones functional on degree 0, vanishing on boundaries, nonzero on H_0
    return f.homology_dim(0) == 1 and all(
        f.differential(1)._transposed_data()[j].bit_count() % 2 == 0
        for j in range(f.dim(1))
    )


def _projection_rank_full(fb: FiberBundleComplex) -> bool:
    """Rank of the fiber contraction on first homology equals dim H_1(B)."""
    tot = fb.total
    h1 = tot.homology_basis(1)
    b = fb.base
    nf0 = fb.fiber.dim(0)
    # chain map: (u, v) -> contract fiber in the u block (base edges x fiber
    # vertices); block layout at degree 1 is (1,0) first
    n10 = b.dim(1) * nf0
    base_h1 = b.homology_basis(1)
    imgs = []
    for z in h1.cycle_reps.basis.row_ints():
        u = z & ((1 << n10) - 1)
        img = 0
        for bit in range(n10):
            if (u >> bit) & 1:
                img ^= 1 << (bit // nf0)
        imgs.append(img)
    # coordinates in H_1(B): cycles in a 1-complex have no boundaries
    coords = solve_matrix(
        base_h1.cycle_reps.basis.transpose(), F2Matrix.from_rows(imgs, b.dim(1)).transpose()
    )
    if coords is None:
        return False
    return rank(coords) == base_h1.dim == tot.homology_dim(1)


# -- lifted products --------------------------------------------------------


@dataclass(frozen=True)
class LiftedProduct:
    """Lifted product of a (m x n) and a (l x k) matrix over GF(2)[Z_ell].

    Degree 1 is laid out as the (C1 x D0) block followed by the (C0 x D1)
    block, everything block-major with the circulant index innermost.
    """

    a: tuple[tuple[GroupAlgebraElem, ...], ...]
    b: tuple[tuple[GroupAlgebraElem, ...], ...]
    total: ChainComplex

    @property
    def ell(self) -> int:
        return self.a[0][0].ell


def lifted_product(
    a: list[list[GroupAlgebraElem]], b: list[list[GroupAlgebraElem]]
) -> LiftedProduct:
    """Lifted product of A (m x n) and B (l x k): the lifts of the
    Kronecker blocks I_n (x) B, A (x) I_k, A (x) I_l and I_m (x) B, built
    from lift(A) and lift(B) by index arithmetic and stacked directly
    (not through total_complex), so it stays independent of the other two
    constructions."""
    if not a or not a[0] or not b or not b[0]:
        raise DimensionMismatch("empty factor matrix")
    ell = a[0][0].ell
    if b[0][0].ell != ell:
        raise DimensionMismatch("mixed cyclic orders")
    m, n = len(a), len(a[0])
    l, k = len(b), len(b[0])
    la, lb = lift_group_algebra_matrix(a), lift_group_algebra_matrix(b)

    top = _kron(F2Matrix.identity(n), lb)  # C1 (x) D1 -> C1 (x) D0
    bottom = _lift_kron_identity(la, k, ell)  # C1 (x) D1 -> C0 (x) D1
    left = _lift_kron_identity(la, l, ell)  # C1 (x) D0 -> C0 (x) D0
    right = _kron(F2Matrix.identity(m), lb)  # C0 (x) D1 -> C0 (x) D0

    d2 = top.vstack(bottom)
    d1 = left.hstack(right)
    dims = {
        2: n * k * ell,
        1: (n * l + m * k) * ell,
        0: m * l * ell,
    }
    total = ChainComplex(dims, {2: d2, 1: d1}, check=True)
    return LiftedProduct(
        tuple(tuple(r) for r in a), tuple(tuple(r) for r in b), total
    )


def _lift_kron_identity(lifted: F2Matrix, k: int, ell: int) -> F2Matrix:
    """lift(A (x) I_k) from lift(A): entry (i*ell + s', j*ell + s) moves to
    ((i*k + t)*ell + s', (j*k + t)*ell + s) for every t < k."""
    rows, cols = lifted.nonzeros()
    t = np.arange(k)
    out_rows = ((rows // ell)[:, None] * k + t) * ell + (rows % ell)[:, None]
    out_cols = ((cols // ell)[:, None] * k + t) * ell + (cols % ell)[:, None]
    return F2Matrix.from_entries(
        lifted.rows * k, lifted.cols * k, (out_rows.ravel(), out_cols.ravel())
    )


# -- the circle specialization ----------------------------------------------


def cyclic_power_map(group: FiniteGroup, gen: int) -> list[int]:
    """powers[i] = k with group element i equal to gen^k; requires gen to
    generate."""
    cycle = group.powers(gen)
    if len(cycle) != group.order:
        raise ActionInvalid("chosen element does not generate the group")
    powers = np.empty(group.order, dtype=np.int64)
    powers[cycle] = np.arange(group.order)
    return powers.tolist()


def smallest_generator(group: FiniteGroup) -> int:
    generators = np.flatnonzero(group.element_orders() == group.order)
    if not len(generators):
        raise ActionInvalid("group is not cyclic")
    return int(generators[0])


@dataclass(frozen=True)
class CircleProductInstance:
    """A Tanner complex with a free cyclic action, its quotient data, and
    the balanced product with the matching cycle."""

    tanner: TannerComplex
    action: GraphAction
    generator: int  # index in the acting group
    powers: tuple[int, ...]  # group element index -> exponent of the generator
    quotient: QuotientData
    base_tanner: TannerComplex
    product: BalancedProductComplex


def circle_balanced_product(
    t: TannerComplex, action: GraphAction, generator: int | None = None
) -> CircleProductInstance:
    """Balanced product of a Tanner complex with the cycle sharing its
    cyclic symmetry group.

    The group must have odd order (the averaging identification of
    invariants and coinvariants needs it) and act freely; the cycle is
    rotated so the chosen generator advances the fiber by one step.
    """
    h = action.group
    if h.order % 2 == 0:
        raise EvenOrder("cyclic order must be odd")
    if generator is None:
        generator = smallest_generator(h)
    powers = cyclic_power_map(h, generator)
    ell = h.order

    left = tanner_complex_with_action(t, action)
    # cycle carrying the same group: element i rotates by powers[i]
    rotations = _rotations(ell, powers)
    right = ComplexWithAction(cycle_graph_complex(ell), h, {0: rotations, 1: rotations})

    bp = balanced_product(left, right)

    qd = quotient_graph(action)
    base_t = build_tanner(qd.base, t.local, labeling_note=f"quotient of {t.labeling_note}")

    expected_mid = t.graph.n_edges + t.checks_per_vertex * t.graph.n
    if bp.total.dim(1) != expected_mid:
        raise ActionInvalid("unexpected middle dimension")
    return CircleProductInstance(t, action, generator, tuple(powers), qd, base_t, bp)


def tanner_group_algebra_matrix(inst: CircleProductInstance) -> list[list[GroupAlgebraElem]]:
    """The Tanner differential as a matrix over GF(2)[Z_ell], rows indexed
    by (base vertex, check) pairs and columns by base edges.

    Entries follow the source-lift convention: the source vertex
    contributes at exponent 0 and the target at the connection exponent.
    """
    qd, t = inst.quotient, inst.tanner
    ell = inst.action.group.order
    base = qd.base
    c = t.checks_per_vertex
    hc = t.local_check.to_dense()
    mat = [
        [GroupAlgebraElem.zero(ell) for _ in range(base.n_edges)]
        for _ in range(base.n * c)
    ]
    for e, ((u, v), (lu, lv)) in enumerate(zip(base.edges.tolist(), base.labels.tolist())):
        phi_pow = inst.powers[qd.connection.values[e]]
        for i in range(c):
            if hc[i, lu]:
                mat[u * c + i][e] = mat[u * c + i][e].add(GroupAlgebraElem.one(ell))
            if hc[i, lv]:
                mat[v * c + i][e] = mat[v * c + i][e].add(
                    GroupAlgebraElem.monomial(ell, phi_pow)
                )
    return mat


def circle_fiber_bundle(inst: CircleProductInstance) -> FiberBundleComplex:
    """The same product built over the quotient base with the connection
    acting as fiber rotations."""
    ell = inst.action.group.order
    base_cx = inst.base_tanner.complex
    fiber = cycle_graph_complex(ell)
    conn = {}
    db = base_cx.differential(1)
    rows, cols = db.nonzeros()
    c = inst.base_tanner.checks_per_vertex
    base_edges = inst.quotient.base.edges.tolist()
    for b0, b1 in zip(rows.tolist(), cols.tolist()):
        vert = b0 // c
        u, v = base_edges[b1]
        if vert == u:
            conn[(b1, b0)] = rotation_automorphism(ell, 0)
        elif vert == v:
            phi_pow = inst.powers[inst.quotient.connection.values[b1]]
            conn[(b1, b0)] = rotation_automorphism(ell, phi_pow)
        else:
            raise IncidenceMissing("base differential hits a non-endpoint check")
    return FiberBundleComplex(base_cx, fiber, conn)


# -- canonical alignment for the triple equivalence --------------------------


def _canonical_maps(inst: CircleProductInstance):
    """Permutations taking the balanced product's cells to the shared
    (base cell, fiber shift) coordinates, base-major with the fiber inner:
    base edge * ell + shift on the (1, q) cells and
    (base vertex * c + check) * ell + shift on the (0, q) cells.

    A representative (x, y) lies over the base cell of x, shifted by y plus
    the power of the element carrying the source-lift representative to x.
    """
    qd = inst.quotient
    ell = inst.action.group.order
    c = inst.tanner.checks_per_vertex
    powers = np.asarray(inst.powers)
    check = np.arange(inst.tanner.graph.n * c)
    vertex = check // c
    # per left degree: (base cell, fiber power) of every left basis index
    lifts = {
        1: (np.asarray(qd.edge_orbit_of), powers[np.asarray(qd.edge_shift)]),
        0: (
            np.asarray(qd.vertex_orbit_of)[vertex] * c + check % c,
            powers[np.asarray(qd.vertex_shift)[vertex]],
        ),
    }
    maps = {}
    for (p, q), cell in inst.product.cells.items():
        x, y = cell.representatives()
        base, power = lifts[p]
        maps[(p, q)] = base[x] * ell + (y + power[x]) % ell
    return maps


def aligned_total(inst: CircleProductInstance, which: str) -> ChainComplex:
    """Any of the three constructions in the canonical shared basis.

    ``which`` is one of ``balanced``, ``bundle``, ``lifted``. The fiber
    bundle and the lifted product already use base-major (cell, shift)
    coordinates; only the balanced product needs its orbit representatives
    re-keyed through the trivialization tables.
    """
    if which == "balanced":
        maps = _canonical_maps(inst)
        bp = inst.product
        empty = np.zeros(0, dtype=np.int64)
        # degree blocks in total_complex order: decreasing p
        perm1 = np.concatenate(
            [maps[(1, 0)], maps.get((0, 1), empty) + bp.cell_dim(1, 0)]
        )
        perm2 = maps[(1, 1)]
        perm0 = maps.get((0, 0), empty)
        tot = bp.total
        d2 = tot.differential(2).permuted(perm1, perm2)
        d1 = tot.differential(1).permuted(perm0, perm1)
        return ChainComplex(dict(tot.dims), {2: d2, 1: d1}, check=True)
    if which == "bundle":
        return circle_fiber_bundle(inst).total
    if which == "lifted":
        a = tanner_group_algebra_matrix(inst)
        bmat = [[GroupAlgebraElem(inst.action.group.order, 0b11)]]
        return lifted_product(a, bmat).total
    raise DimensionMismatch(f"unknown construction {which!r}")


def triple_equivalence_holds(inst: CircleProductInstance) -> bool:
    """Bit-identical comparison of the three constructions after alignment."""
    bal = aligned_total(inst, "balanced")
    bun = aligned_total(inst, "bundle")
    lif = aligned_total(inst, "lifted")
    return (
        bal.dims == bun.dims == lif.dims
        and bal.differential(2) == bun.differential(2) == lif.differential(2)
        and bal.differential(1) == bun.differential(1) == lif.differential(1)
    )


# -- homology split -----------------------------------------------------------


@dataclass(frozen=True)
class HomologySplit:
    """Splitting of the middle homology into horizontal and vertical parts.

    Horizontal classes are spanned by full-fiber lifts of base Tanner
    codewords; vertical ones by constant-fiber check chains, chosen on the
    base (see ``homology_split``). The fiber sum maps chains onto base edge
    coordinates; it carries each horizontal representative back to its
    base codeword.
    """

    h_reps: F2Matrix  # rows: full-fiber lifts of the base code basis
    v_reps: F2Matrix  # rows: constant-fiber check chains of the new classes
    base_code_basis: F2Matrix  # basis of the base Tanner code (ker of base diff)
    fiber_sum: F2Matrix  # chain-level map onto base edge coordinates

    @property
    def dim_h(self) -> int:
        return self.h_reps.rows

    @property
    def dim_v(self) -> int:
        return self.v_reps.rows


def homology_split(inst: CircleProductInstance) -> HomologySplit:
    """Compute the horizontal/vertical splitting of H_1 of the product.

    The fiber-sum functional (add each edge's coefficients over its orbit)
    carries cycles onto base Tanner codewords, kills boundaries, and
    composed with the full-fiber lift is the identity on the base code
    because the cyclic order is odd.

    The vertical classes are chosen on the base. Boundaries, horizontal
    representatives and check chains are all fixed by the Z_ell rotation,
    so for odd ell the orbit sum decides which check chains are new
    classes; it maps a boundary d(e, j) to column e of the base Tanner
    differential. The full-size rank checks h + v == dim H_1.
    """
    bp = inst.product
    tot = bp.total
    qd = inst.quotient
    ell = inst.action.group.order
    n1 = tot.dim(1)
    u_dim = bp.cell_dim(1, 0)
    if u_dim != inst.tanner.graph.n_edges:
        raise ActionInvalid("unexpected horizontal block dimension")

    base_diff = inst.base_tanner.complex.differential(1)
    base_code = kernel_basis(base_diff).basis  # k_base x n_base_edges

    maps = _canonical_maps(inst)
    u_keys = maps[(1, 0)]  # balanced u-basis -> canonical (edge, shift)

    # fiber sum: n_base_edges x n1, supported on the u block
    fiber_sum = F2Matrix.from_entries(
        qd.base.n_edges, n1, (u_keys // ell, np.arange(len(u_keys), dtype=np.int64))
    )

    # lift each base codeword to every fiber shift (u block only); each
    # u-basis element lies over exactly one base edge, so this is the
    # codeword times the fiber-sum incidence
    h_reps = base_code.matmul(fiber_sum)

    # vertical classes: constant-fiber check chains (after the u block) over
    # the base checks whose unit vectors extend the base column space
    span = IncrementalSpan(base_diff.transpose().iter_row_ints())
    chosen = [b for b in range(base_diff.rows) if span.add(1 << b)]
    check_keys = maps.get((0, 1), np.zeros(0, dtype=np.int64))
    v_reps = F2Matrix.from_entries(
        base_diff.rows, n1, (check_keys // ell, u_dim + np.arange(len(check_keys)))
    ).submatrix_rows(chosen)

    if h_reps.rows + v_reps.rows != tot.homology_dim(1):
        raise KunnethViolation(
            "horizontal and vertical classes do not span the middle homology"
        )
    return HomologySplit(
        h_reps=h_reps, v_reps=v_reps, base_code_basis=base_code, fiber_sum=fiber_sum
    )


def pi_iota_is_identity(split: HomologySplit) -> bool:
    """The fiber sum undoes the full-fiber lift on the base code."""
    return split.h_reps.matmul(split.fiber_sum.transpose()) == split.base_code_basis


def horizontal_homology_dim(inst: CircleProductInstance) -> int:
    """dim of the horizontal part of H_1, computed intrinsically.

    Embeds the kernel of the full Tanner differential into the product's
    u block and counts how many basis vectors stay independent of the
    boundary space; avoids materializing a homology basis, so it scales
    to the expander instances.
    """
    bp = inst.product
    tanner_kernel = kernel_basis(inst.tanner.differential()).basis
    # edge e sits at the orbit of (e, 0); unique() ORs any coinciding
    # entries, so the chains do not rely on that map being injective
    r, e = tanner_kernel.nonzeros()
    n1 = bp.total.dim(1)
    keys = np.unique(r * n1 + bp.cells[(1, 0)].orbit_ids(e, 0))
    chains = F2Matrix.from_entries(tanner_kernel.rows, n1, (keys // n1, keys % n1))
    span = IncrementalSpan(bp.total.differential(2).transpose().row_ints())
    return sum(span.add(chain) for chain in chains.row_ints())
