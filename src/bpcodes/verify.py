"""Named verification suites behind both the CLI and the acceptance tests.

Each suite re-derives its expected values independently of the code path
it checks (exhaustive enumeration, closed forms, or cross-construction
comparison) and returns a SuiteResult with one line per check.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .algebra import (
    GroupAlgebraElem,
    cyclic_group,
    legendre,
    lift_group_algebra_matrix,
    unipotent_subgroup,
)
from .classical import binary_entropy, exact_distance, gv_plus_search, repetition_code
from .complexes import (
    ChainComplex,
    DoubleComplex,
    cycle_graph_complex,
    homology_2x2_via_pages,
    one_complex,
    tensor_complex,
    tensor_double_complex,
    verify_kunneth,
)
from .f2la import F2Matrix, IncrementalSpan, rank, solve_matrix
from .graphs import (
    cayley_right_action,
    check_quotient_condition,
    cycle_labeled_graph,
    cycle_rotation_action,
    lps_graph,
    second_eigenvalue,
)
from .products import (
    balanced_product,
    circle_balanced_product,
    homology_split,
    horizontal_homology_dim,
    pi_iota_is_identity,
    triple_equivalence_holds,
    ComplexWithAction,
    _rotations,
)
from .quantum import (
    css_from_complex,
    dressed_distance,
    exact_css_distance,
    ldpc_check,
    pk_bounds,
    subsystem_from_split,
)
from .tanner import (
    build_tanner,
    check_expansion_theorem7,
    check_expansion_theorem8,
    klein_tanner_code,
    rate_lower_bound,
    sipser_spielman_bound,
    tanner_code,
    theorem7_beta,
    theorem8_beta,
)


@dataclass
class SuiteResult:
    name: str
    ok: bool = True
    lines: list[str] = field(default_factory=list)

    def check(self, label: str, passed: bool, detail: str = "") -> bool:
        self.ok = self.ok and passed
        status = "ok" if passed else "FAIL"
        self.lines.append(f"[{status}] {label}" + (f": {detail}" if detail else ""))
        return passed

    def as_dict(self) -> dict:
        return {"suite": self.name, "ok": self.ok, "checks": self.lines}


# -- shared fixtures ---------------------------------------------------------


@lru_cache(maxsize=None)
def toy_instance():
    graph = cycle_labeled_graph(9)
    t = build_tanner(graph, repetition_code(2))
    action = cycle_rotation_action(graph, 3)
    return circle_balanced_product(t, action)


@lru_cache(maxsize=None)
def klein_instance():
    """The Klein quartic Tanner complex with the [84,12,19] labeling."""
    return klein_tanner_code(search=True)


@lru_cache(maxsize=None)
def lps_instance(p: int = 5, q: int = 13):
    """LPS(p, q) with the unipotent Z_q action and the seed-0 random
    [p+1, k] local code."""
    graph, group, gens = lps_graph(p, q)
    sub = unipotent_subgroup(group)
    action = cayley_right_action(graph, group, gens, sub)
    code = gv_plus_search(p + 1, 0.1, seed=0).code
    t = build_tanner(graph, code)
    return circle_balanced_product(t, action)


# -- suites -------------------------------------------------------------------


def toric_suite() -> SuiteResult:
    res = SuiteResult("toric")
    for ell in (2, 3, 4, 5):
        cx = tensor_complex(cycle_graph_complex(ell), cycle_graph_complex(ell))
        code = css_from_complex(cx, 1)
        dz = exact_css_distance(code, "z")
        dx = exact_css_distance(code, "x")
        got = (code.n, code.k, dz, dx)
        res.check(
            f"ell={ell} parameters",
            got == (2 * ell * ell, 2, ell, ell),
            f"[[{code.n},{code.k},{dz}|{dx}]]",
        )
    return res


def klein_suite() -> SuiteResult:
    res = SuiteResult("klein")
    t = klein_instance()
    code = tanner_code(t)
    d = exact_distance(code)
    res.check(
        "parameters",
        (t.n_edges, t.code_dimension(), d) == (84, 12, 19),
        f"[{t.n_edges},{t.code_dimension()},{d}] labeling: {t.labeling_note}",
    )
    res.check("graph shape", (t.graph.n, t.graph.n_edges, t.graph.s) == (24, 84, 7))
    return res


def lps_suite(pairs=((5, 13), (5, 17))) -> SuiteResult:
    res = SuiteResult("lps")
    for p, q in pairs:
        graph, group, gens = lps_graph(p, q)
        lam2 = second_eigenvalue(graph)
        bound = 2 * math.sqrt(p)
        res.check(
            f"X({p},{q}) shape",
            graph.n == q * (q * q - 1) and graph.s == p + 1 and graph.is_connected(),
            f"{graph.n} vertices, {graph.s}-regular",
        )
        res.check(
            f"X({p},{q}) Ramanujan",
            lam2 < bound - 1e-6,
            f"lambda2={lam2:.6f} < 2*sqrt({p})={bound:.6f}",
        )
    return res


def quotient_suite() -> SuiteResult:
    res = SuiteResult("quotient")
    graph, group, gens = lps_graph(5, 13)
    sub = unipotent_subgroup(group)
    rep = check_quotient_condition(group, gens, sub)
    res.check("exhaustive conjugate scan", rep.holds, f"witness={rep.witness}")
    res.check(
        "determinant-class shortcut agrees",
        rep.determinant_shortcut is True,
        f"legendre(5,13)={legendre(5, 13)}",
    )
    return res


def _dims_digest(dims: list) -> str:
    """Short digest of per-trial homology dimensions, so a report pins the
    dimensions themselves and not only whether each identity held."""
    return hashlib.sha256(repr(dims).encode()).hexdigest()[:12]


def kunneth_suite(trials: int = 200, seed: int = 11) -> SuiteResult:
    res = SuiteResult("kunneth")
    rng = np.random.default_rng(seed)
    bad = 0
    dims = []
    for _ in range(trials):
        a = _random_one_complex(rng)
        b = _random_one_complex(rng)
        reports = verify_kunneth(a, b)
        bad += sum(not rep.holds for rep in reports.values())
        dims.append([(n, rep.total_dim) for n, rep in reports.items()])
    res.check(
        f"{trials} random tensor pairs", bad == 0, f"violations={bad} dims={_dims_digest(dims)}"
    )
    return res


def pages_suite(trials: int = 100, seed: int = 12) -> SuiteResult:
    res = SuiteResult("pages")
    rng = np.random.default_rng(seed)
    # homology_2x2_via_pages raises on a page/total mismatch
    dims = [sorted(homology_2x2_via_pages(_random_2x2(rng)).items()) for _ in range(trials)]
    res.check(
        f"{trials} random 2x2 grids", True, f"page sums match totals, dims={_dims_digest(dims)}"
    )
    return res


def balanced_suite(trials: int = 100, seed: int = 13) -> SuiteResult:
    """Kunneth for balanced products with free odd cyclic actions.

    Both sides computed independently: the left side from the quotient
    complex, the right from factor homologies with their induced actions.
    """
    res = SuiteResult("balanced")
    rng = np.random.default_rng(seed)
    bad = 0
    dims = []
    for _ in range(trials):
        ell = int(rng.choice([3, 5, 7]))
        left = _random_free_cyclic_complex(rng, ell)
        right = _random_free_cyclic_complex(rng, ell)
        bp = balanced_product(left, right)
        hl = {p: _homology_with_action(left, p) for p in left.complex.degrees()}
        hr = {q: _homology_with_action(right, q) for q in right.complex.degrees()}
        trial = []
        for n in bp.total.degrees():
            lhs = bp.total.homology_dim(n)
            # sum over p+q=n of dim(H_p(C) (x)_H H_q(D)), from the induced
            # actions on homology
            rhs = sum(
                _quotient_tensor_dim(*hl[p], *hr[n - p])
                for p in hl
                if n - p in hr and hl[p][0] and hr[n - p][0]
            )
            trial.append((n, lhs, rhs))
            if lhs != rhs:
                bad += 1
        dims.append(trial)
    res.check(f"{trials} balanced pairs", bad == 0, f"violations={bad} dims={_dims_digest(dims)}")
    return res


def triple_suite(include_lps: bool = True) -> SuiteResult:
    res = SuiteResult("triple")
    res.check("toy instance bit-identical", triple_equivalence_holds(toy_instance()))
    if include_lps:
        res.check(
            "expander instance bit-identical",
            triple_equivalence_holds(lps_instance()),
        )
    return res


def rate_suite(include_lps: bool = True) -> SuiteResult:
    res = SuiteResult("rate")
    instances = [("toy", toy_instance())]
    if include_lps:
        instances.append(("lps(5,13)", lps_instance()))
    for name, inst in instances:
        dim_h = horizontal_homology_dim(inst)
        base_k = inst.base_tanner.code_dimension()
        bound = rate_lower_bound(inst.base_tanner.graph, inst.tanner.local)
        res.check(
            f"{name} horizontal dim = base Tanner k",
            dim_h == base_k,
            f"{dim_h} = {base_k}",
        )
        res.check(f"{name} K >= counting bound", base_k >= bound, f"{base_k} >= {bound}")
        split = homology_split(inst)
        res.check(f"{name} split spans H1", split.dim_h + split.dim_v == inst.product.total.homology_dim(1))
        res.check(f"{name} fiber sum inverts lift", pi_iota_is_identity(split))
    return res


def bounds_suite(samples: int = 100_000, seed: int = 21) -> SuiteResult:
    """Exact values against the formula bounds, and the expansion scans.

    The theorem 7 and theorem 8 scans both take ``seed``, so their sampled
    parts read one PCG64 stream from its start: the first sample of each
    draws its weight and first Floyd picks from the same raw words, and
    the two sample sets are not independent.
    """
    res = SuiteResult("bounds")

    # classical side: Klein code distance dominates the spectral bound
    kt = klein_instance()
    lam2 = second_eigenvalue(kt.graph)
    ss = sipser_spielman_bound(kt.graph, kt.local, lam2=lam2)
    d = exact_distance(tanner_code(kt))
    res.check("klein distance >= spectral bound", d >= ss, f"{d} >= {ss:.3f}")

    # expansion theorems on the Klein instance; alphas keep beta positive
    # while admitting sampled weights above the exhaustive cap
    r7 = check_expansion_theorem7(kt, alpha=0.1, exhaustive_cap=4,
                                  samples=samples, seed=seed, lam2=lam2)
    res.check(
        "edge-chain expansion, exhaustive w<=4 plus samples",
        r7.holds and r7.beta_formula > 0 and r7.n_sampled == samples,
        f"beta={r7.beta_formula:.4f} enumerated={r7.n_enumerated} sampled={r7.n_sampled}",
    )
    r8 = check_expansion_theorem8(kt, alpha=0.08, exhaustive_cap=3,
                                  samples=samples, seed=seed, lam2=lam2)
    res.check(
        "check-chain expansion, exhaustive w<=3 plus samples",
        r8.holds and r8.beta_formula > 0 and r8.n_sampled == samples,
        f"beta={r8.beta_formula:.4f} enumerated={r8.n_enumerated} sampled={r8.n_sampled}",
    )

    # beta(alpha) monotone decreasing
    betas = [theorem7_beta(7, lam2, 3, a) for a in (0.01, 0.02, 0.04, 0.08)]
    res.check("beta decreasing in alpha", all(b1 >= b2 for b1, b2 in zip(betas, betas[1:])))

    # subsystem side: exact dressed distances dominate the formula bounds
    inst = toy_instance()
    split = homology_split(inst)
    sub = subsystem_from_split(inst, split)
    lam2_toy = second_eigenvalue(inst.tanner.graph)
    alpha_ho, alpha_co = 0.2, 0.05
    beta_ho = theorem7_beta(2, lam2_toy, 2, alpha_ho)
    beta_co = theorem8_beta(2, lam2_toy, 1, 2, alpha_co)
    rep = pk_bounds(
        alpha_ho=alpha_ho,
        beta_ho=max(beta_ho, 0.0),
        alpha_co=alpha_co,
        beta_co=max(beta_co, 0.0),
        s=2,
        ell=3,
        n_edges=9,
        n_vertices=9,
        k_local=1,
        n_constructed=sub.n,
    )
    dz = dressed_distance(sub, "z")
    dx = dressed_distance(sub, "x")
    res.check("toy dressed Z exact", dz.exact, f"DZ={dz.value}")
    res.check("toy dressed X exact", dx.exact, f"DX={dx.value}")
    res.check("DZ >= formula", dz.value >= rep.dz_lower, f"{dz.value} >= {rep.dz_lower:.3f}")
    res.check("DX >= formula", dx.value >= rep.dx_lower, f"{dx.value} >= {rep.dx_lower:.3f}")
    res.check("K >= formula", sub.num_logical >= rep.k_lower, f"{sub.num_logical} >= {rep.k_lower:.3f}")
    return res


def gv_suite() -> SuiteResult:
    res = SuiteResult("gv")
    h11 = binary_entropy(0.11)
    res.check("entropy threshold at 0.11", h11 < 0.5, f"H2(0.11)={h11:.6f}")
    for s in (20, 24, 28):
        out = gv_plus_search(s, 0.1, seed=7)
        res.check(
            f"s={s} found",
            out.code.k > s / 2 and out.d >= out.target and out.d_dual >= out.target,
            f"k={out.code.k} d={out.d} d_dual={out.d_dual} trials={out.trials}",
        )
    return res


def ldpc_suite() -> SuiteResult:
    res = SuiteResult("ldpc")
    weights = {}
    for q in (13, 17):
        inst = lps_instance(5, q)
        tot = inst.product.total
        weights[q] = ldpc_check(tot.differential(1), tot.differential(2).transpose())
    res.check(
        "stabilizer weight and qubit degree constant across q",
        weights[13] == weights[17],
        f"q=13 -> {weights[13]}, q=17 -> {weights[17]}",
    )
    return res


SUITES = {
    "toric": toric_suite,
    "klein": klein_suite,
    "lps": lps_suite,
    "quotient": quotient_suite,
    "kunneth": kunneth_suite,
    "pages": pages_suite,
    "balanced": balanced_suite,
    "triple": triple_suite,
    "rate": rate_suite,
    "bounds": bounds_suite,
    "gv": gv_suite,
    "ldpc": ldpc_suite,
}


def run_suite(name: str) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
    return SUITES[name]()


# -- randomized generators ----------------------------------------------------


def _random_one_complex(rng) -> ChainComplex:
    rows = int(rng.integers(1, 6))
    cols = int(rng.integers(1, 6))
    return one_complex(F2Matrix.from_dense(rng.integers(0, 2, (rows, cols))))


def _random_2x2(rng):
    """Random commuting 2x2 grid: a tensor square sheared by random basis
    changes on every cell."""
    e = tensor_double_complex(_random_one_complex(rng), _random_one_complex(rng))
    basis = {pq: _random_invertible(rng, e.dim(*pq)) for pq in e.grid}
    vd = {}
    hd = {}
    for (p, q), m in e.vdiffs.items():
        vd[(p, q)] = basis[(p, q - 1)][0].matmul(m).matmul(basis[(p, q)][1])
    for (p, q), m in e.hdiffs.items():
        hd[(p, q)] = basis[(p - 1, q)][0].matmul(m).matmul(basis[(p, q)][1])
    return DoubleComplex(e.grid, vd, hd, check=True)


def _random_invertible(rng, n: int):
    """(M, M^-1) pair over GF(2)."""
    if n == 0:
        z = F2Matrix.zeros(0, 0)
        return z, z
    while True:
        m = F2Matrix.from_dense(rng.integers(0, 2, (n, n)))
        if rank(m) == n:
            break
    inv = solve_matrix(m, F2Matrix.identity(n))
    return m, inv


def _random_free_cyclic_complex(rng, ell: int) -> ComplexWithAction:
    """Lift of a random matrix over GF(2)[Z_ell]: the cyclic group permutes
    the circulant blocks, acting freely on every basis."""
    rows = int(rng.integers(1, 4))
    cols = int(rng.integers(1, 4))
    mat = [
        [GroupAlgebraElem(ell, int(rng.integers(0, 1 << ell))) for _ in range(cols)]
        for _ in range(rows)
    ]
    lifted = lift_group_algebra_matrix(mat)
    cx = one_complex(lifted)
    rotations = _rotations(ell, range(ell))
    perms = {
        d: np.hstack([b * ell + rotations for b in range(blocks)])
        for d, blocks in ((1, cols), (0, rows))
    }
    return ComplexWithAction(cx, cyclic_group(ell), perms)


def _homology_with_action(cwa: ComplexWithAction, d: int):
    """(dim H_d, induced action per generator of the group): entry i of
    the s-th list is the image of representative i under generator s, a
    bitset over the representatives.

    One elimination solves the images under every generator against
    (reps | boundaries); free variables are zero, so each column's
    solution is the one a solve for that generator alone would give.
    """
    basis = cwa.complex.homology_basis(d)
    reps = basis.cycle_reps.basis
    k = reps.rows
    if k == 0:
        return 0, []
    gens = np.array(cwa.group.generators, dtype=np.int64)[:, None]
    solver = reps.vstack(basis.boundary_space.basis).transpose()
    # column s*k + r: the image of rep r under generator s
    r, c = reps.nonzeros()
    images = F2Matrix.from_entries(
        reps.cols,
        len(gens) * k,
        (cwa.perms[d][gens, c].ravel(), (np.arange(len(gens))[:, None] * k + r).ravel()),
    )
    x = solve_matrix(solver, images)
    if x is None:
        raise AssertionError("action image is not a cycle class")
    cols = x.submatrix_rows(np.arange(k)).transpose().row_ints()
    return k, [cols[s * k : (s + 1) * k] for s in range(len(gens))]


def _quotient_tensor_dim(kl, al, kr, ar) -> int:
    """dim of (V (x) W) / span(v*h (x) w - v (x) h*w) over all group elements
    h, from the generators' actions al[s], ar[s]: as gs - 1 = (g - 1)s +
    (s - 1), their relations span those of every element.

    Basis vector v_a (x) w_b is bit a*kr + b, so the relation of (v_i, w_j)
    is spread(v_i*s) << j plus (s*w_j) << i*kr, where spread moves bit a
    of a V-vector to bit a*kr.
    """

    def spread(v: int) -> int:
        out = 0
        while v:
            low = v & -v
            out |= 1 << ((low.bit_length() - 1) * kr)
            v ^= low
        return out

    span = IncrementalSpan()
    rels = 0
    for al_s, ar_s in zip(al, ar):
        # entry i of al_s is the image of v_i; likewise for ar_s
        for i, vi_img in enumerate(al_s):
            vi_spread = spread(vi_img)
            for j, wj_img in enumerate(ar_s):
                vec = (vi_spread << j) ^ (wj_img << (i * kr))
                if vec and span.add(vec):
                    rels += 1
    return kl * kr - rels
