"""End-to-end construction pipeline and on-disk code bundles.

A Recipe names the expander (LPS primes or a plain cycle), the acting
cyclic subgroup and the local code; edges keep the canonical labeling of
the graph construction. Building writes
hx.alist / hz.alist, logical and gauge representatives, and a params.json
carrying every intermediate quantity; bundles re-validate on load.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .algebra import is_prime, legendre, unipotent_subgroup
from .classical import dual_distance, local_code_from_spec
from .errors import BpcodesError, BundleCorrupt, DegreeMismatch, RecipeInvalid
from .f2la import F2Matrix, IncrementalSpan, _n_words, rank, read_alist, write_alist
from .graphs import (
    GraphAction,
    LabeledGraph,
    cayley_right_action,
    check_quotient_condition,
    cycle_labeled_graph,
    cycle_rotation_action,
    lps_graph,
    second_eigenvalue,
)
from .products import (
    CircleProductInstance,
    circle_balanced_product,
    homology_split,
    pi_iota_is_identity,
)
from .quantum import css_from_complex, ldpc_check, pk_bounds
from .tanner import TannerComplex, build_tanner, rate_lower_bound, theorem7_beta, theorem8_beta

REFERENCE_NOTE = (
    "reference constants p=401, delta=0.1, alpha_ho=1e-3, alpha_co=1e-5 are "
    "documented but far beyond the desk-scale envelope (q <= 61, group order "
    "<= ~230k); builds reject them"
)


@dataclass(frozen=True)
class Recipe:
    """Ingredients for one balanced-product code build."""

    graph: str = "lps"  # "lps" or "cycle:N"
    p: int | None = None
    q: int | None = None
    ell: int | None = None  # defaults: q for lps, required for cycle
    local: str = "gv:6,0.1,0"
    alpha_ho: float = 0.1
    alpha_co: float = 0.05

    def validated(self) -> "Recipe":
        if self.graph == "lps":
            p, q = self.p, self.q
            if p is None or q is None:
                raise RecipeInvalid("lps builds need both primes")
            check_lps_primes(p, q)
            if legendre(p, q) != -1:
                raise RecipeInvalid(
                    "p must be a non-square modulo q (the projective general "
                    "linear case); otherwise the unipotent quotient argument fails"
                )
            ell = self.ell if self.ell is not None else q
            if ell != q:
                raise RecipeInvalid("the cyclic subgroup order must equal q")
            if ell % 2 == 0:
                raise RecipeInvalid("cyclic order must be odd")
            return replace(self, ell=ell)
        if self.graph.startswith("cycle:"):
            try:
                n = int(self.graph.split(":", 1)[1])
            except ValueError:
                raise RecipeInvalid(f"malformed cycle length in {self.graph!r}") from None
            if self.ell is None:
                raise RecipeInvalid("cycle builds need the subgroup order")
            if self.ell % 2 == 0:
                raise RecipeInvalid("cyclic order must be odd")
            if n % self.ell or n // self.ell < 3:
                raise RecipeInvalid("subgroup order must divide the cycle length "
                                    "with quotient at least 3")
            return self
        raise RecipeInvalid(f"unknown graph spec {self.graph!r}")


def check_lps_primes(p: int, q: int) -> None:
    """RecipeInvalid unless p and q are distinct odd primes with q > 2 sqrt(p)
    and p != 3 mod 8, as the LPS generators and their edge labels need."""
    if not (is_prime(p) and is_prime(q)) or p == q or p == 2 or q == 2:
        raise RecipeInvalid("p and q must be distinct odd primes")
    if q <= 2 * math.sqrt(p):
        raise RecipeInvalid("need q > 2*sqrt(p)")
    if p % 8 == 3:
        # p is then a sum of three squares, so some LPS quadruple has a = 0:
        # a trace-0 generator, an involution, which the labels cannot take
        raise RecipeInvalid("p = 3 mod 8 gives an involutive LPS generator")


@dataclass
class BuildResult:
    recipe: Recipe
    instance: CircleProductInstance
    params: dict
    hx: F2Matrix
    hz: F2Matrix
    logicals_z: F2Matrix
    gauge_z: F2Matrix


def load_registry(path: str) -> dict[str, str]:
    """Named local-code recipes: a JSON object mapping names to spec strings
    (e.g. {"klein-local": "hamming7", "small-random": "gv:6,0.1,0"}).
    A file that cannot be read or is not JSON raises RecipeInvalid."""
    try:
        with open(path, encoding="utf-8") as f:
            reg = json.load(f)
    except (OSError, ValueError) as exc:
        raise RecipeInvalid(f"registry {path}: {exc}") from exc
    if not isinstance(reg, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in reg.items()
    ):
        raise RecipeInvalid("registry must map names to spec strings")
    return reg


def resolve_local_spec(spec: str, registry: dict[str, str] | None = None) -> str:
    if registry and spec in registry:
        return registry[spec]
    return spec


def build_instance(recipe: Recipe) -> tuple[TannerComplex, GraphAction, dict]:
    """Construct the graph, the action, and the Tanner complex of a recipe."""
    recipe = recipe.validated()
    return _instance_on(recipe, *_recipe_graph(recipe))


def _recipe_graph(recipe: Recipe) -> tuple:
    """The graph of a validated recipe, with its group and generator
    indices (None for a cycle)."""
    if recipe.graph == "lps":
        return lps_graph(recipe.p, recipe.q)
    return cycle_labeled_graph(int(recipe.graph.split(":", 1)[1])), None, None


def _instance_on(
    recipe: Recipe, graph: LabeledGraph, group, gens
) -> tuple[TannerComplex, GraphAction, dict]:
    """The action and the Tanner complex of a validated recipe on its graph."""
    info: dict = {"graph": recipe.graph, "local": recipe.local}
    if recipe.graph == "lps":
        sub = unipotent_subgroup(group)
        qc = check_quotient_condition(group, gens, sub)
        if not qc.holds:
            raise RecipeInvalid(f"quotient condition failed: witness {qc.witness}")
        info["quotient_condition"] = {
            "holds": qc.holds,
            "determinant_shortcut": qc.determinant_shortcut,
        }
        action = cayley_right_action(graph, group, gens, sub)
    else:
        action = cycle_rotation_action(graph, recipe.ell)
    local = local_code_from_spec(recipe.local)
    if local.n != graph.s:
        raise DegreeMismatch(
            f"local code length {local.n} differs from graph degree {graph.s}"
        )
    tanner = build_tanner(graph, local, labeling_note="canonical")
    info["n_vertices"] = graph.n
    info["n_edges"] = graph.n_edges
    info["degree"] = graph.s
    info["local_code"] = {"n": local.n, "k": local.k, "d": local.d, "name": local.name}
    return tanner, action, info


def build_bundle(recipe: Recipe, out_dir: str) -> BuildResult:
    """Run the full pipeline and write the code bundle to out_dir."""
    valid = recipe.validated()
    graph, group, gens = _recipe_graph(valid)
    # solved while only the graph exists, so the dense eigensolve's matrix
    # does not stack on the action and the Tanner complex
    lam2 = second_eigenvalue(graph)
    tanner, action, info = _instance_on(valid, graph, group, gens)
    info["lambda2"] = lam2
    info["ramanujan_bound"] = 2 * math.sqrt(graph.s - 1)

    inst = circle_balanced_product(tanner, action)
    split = homology_split(inst)
    if not pi_iota_is_identity(split):
        raise BpcodesError("fiber sum does not invert the lift; construction bug")

    css = css_from_complex(inst.product.total, 1)
    row_max, col_max = ldpc_check(css.hx, css.hz)

    d_local = tanner.local.d if tanner.local.d is not None else 0
    beta_ho = _safe_beta7(graph.s, lam2, d_local, recipe.alpha_ho)
    beta_co = _safe_beta8(tanner, lam2, recipe.alpha_co)
    bounds = pk_bounds(
        alpha_ho=recipe.alpha_ho,
        beta_ho=max(beta_ho, 0.0),
        alpha_co=recipe.alpha_co,
        beta_co=max(beta_co, 0.0),
        s=graph.s,
        ell=action.group.order,
        n_edges=graph.n_edges,
        n_vertices=graph.n,
        k_local=tanner.local.k,
        n_constructed=css.n,
    )

    params = {
        **info,
        "ell": action.group.order,
        "N": css.n,
        "k_homology": css.k,
        "K_logical": split.dim_h,
        "gauge": split.dim_v,
        "base_tanner_k": inst.base_tanner.code_dimension(),
        "rate_lower_bound": rate_lower_bound(inst.base_tanner.graph, tanner.local),
        "stabilizer_weight_max": row_max,
        "qubit_degree_max": col_max,
        "bounds": {
            "alpha_ho": bounds.alpha_ho,
            "beta_ho": bounds.beta_ho,
            "alpha_co": bounds.alpha_co,
            "beta_co": bounds.beta_co,
            "K_lower": bounds.k_lower,
            "DZ_lower": bounds.dz_lower,
            "DX_lower": bounds.dx_lower,
            "N_formula_3x1": bounds.n_formula,
        },
        "labeling": tanner.labeling_note,
        "reference_note": REFERENCE_NOTE,
    }

    os.makedirs(out_dir, exist_ok=True)
    write_alist(css.hx, os.path.join(out_dir, "hx.alist"))
    write_alist(css.hz, os.path.join(out_dir, "hz.alist"))
    _write_rows(os.path.join(out_dir, "logicals_z.txt"), split.h_reps)
    _write_rows(os.path.join(out_dir, "gauge_z.txt"), split.v_reps)
    params["bundle_hash"] = _bundle_hash(css.hx, css.hz, split.h_reps, split.v_reps)
    with open(os.path.join(out_dir, "params.json"), "w") as f:
        json.dump(params, f, indent=2, sort_keys=True)

    return BuildResult(
        recipe=recipe,
        instance=inst,
        params=params,
        hx=css.hx,
        hz=css.hz,
        logicals_z=split.h_reps,
        gauge_z=split.v_reps,
    )


def _safe_beta7(s, lam2, d_local, alpha):
    try:
        return theorem7_beta(s, lam2, d_local, alpha)
    except BpcodesError:
        return 0.0


def _safe_beta8(tanner: TannerComplex, lam2, alpha):
    dd = dual_distance(tanner.local)
    return theorem8_beta(tanner.graph.s, lam2, tanner.local.k, dd, alpha)


_ROW_TEXT_BYTES = 1 << 20  # bytes of row text made or parsed at once


def _write_rows(path: str, m: F2Matrix) -> None:
    """One line of ASCII 0/1 characters per matrix row, written one block
    of about _ROW_TEXT_BYTES at a time."""
    per = max(1, _ROW_TEXT_BYTES // (m.cols + 1))
    with open(path, "wb") as f:
        for lo in range(0, m.rows, per):
            words = m._packed(lo, min(lo + per, m.rows))
            bits = np.unpackbits(words.view(np.uint8), axis=1, count=m.cols, bitorder="little")
            text = np.empty((len(bits), m.cols + 1), dtype=np.uint8)
            np.add(bits, ord("0"), out=text[:, :-1])
            text[:, -1] = ord("\n")
            f.write(text)


def _read_rows(path: str, cols: int) -> F2Matrix:
    """Inverse of _write_rows, split into lines one block of about
    _ROW_TEXT_BYTES at a time and packed into one array sized from the
    file's length; blank lines and surrounding whitespace are ignored, and
    every row must be ``cols`` characters of 0 and 1. A row of another
    length is reported before any character other than 0 and 1, wherever
    the two occur in the file."""
    rows, foreign = 0, False
    zero, one = ord("0"), ord("1")

    def pack(lines: list[bytes]) -> None:
        """Check and pack one block's lines, emptying the list."""
        nonlocal rows, foreign
        lines[:] = [line for line in map(bytes.strip, lines) if line]
        if any(len(line) != cols for line in lines):
            raise BundleCorrupt(f"{path}: rows must have {cols} characters")
        text = np.frombuffer(b"".join(lines), dtype=np.uint8).reshape(len(lines), cols)
        lines.clear()
        # two reductions, where comparisons would allocate a mask each
        foreign = foreign or text.min(initial=zero) < zero or text.max(initial=one) > one
        if not foreign:
            bits = np.packbits(text == one, axis=1, bitorder="little")
            data.view(np.uint8)[rows : rows + len(text), : bits.shape[1]] = bits
        rows += len(text)

    with open(path, "rb") as f:
        # each row is cols characters and a line break, bar the last one
        size = os.fstat(f.fileno()).st_size
        data = np.zeros(((size + 1) // (cols + 1) if cols else 0, _n_words(cols)), dtype=np.uint64)
        head = b""  # the line the last block left unfinished
        while block := f.read(_ROW_TEXT_BYTES):
            lines = block.splitlines()  # the one split of a block: \n, \r\n and \r
            lines[0] = head + lines[0]
            head = b"" if block.endswith((b"\n", b"\r")) else lines.pop()
            del block
            pack(lines)
        pack([head])
    if foreign:
        raise BundleCorrupt(f"{path}: rows may hold only 0 and 1")
    return F2Matrix(rows, cols, data[:rows])


def _bundle_hash(*mats: F2Matrix) -> str:
    """SHA-256 over each matrix's shape and packed words, the words packed
    one row block at a time."""
    h = hashlib.sha256()
    for m in mats:
        h.update(str((m.rows, m.cols)).encode())
        for block in m.iter_row_blocks():
            h.update(block.tobytes())
    return h.hexdigest()


def load_and_validate_bundle(out_dir: str) -> dict:
    """Reload a bundle and recheck its stored claims.

    Verifies commuting checks, declared dimensions, the recomputed
    homology count, that the logical and gauge representatives are cycles
    independent of each other and of the rows of hz, and the bundle hash.
    A params.json that is not a JSON object holding the checked keys
    raises BundleCorrupt.
    """
    path = os.path.join(out_dir, "params.json")
    try:
        with open(path, encoding="utf-8") as f:
            params = json.load(f)
    except ValueError as exc:  # malformed JSON or text
        raise BundleCorrupt(f"{path}: {exc}") from exc
    checked = ("N", "k_homology", "K_logical", "gauge", "bundle_hash")
    if not isinstance(params, dict) or not all(key in params for key in checked):
        raise BundleCorrupt(f"{path}: not an object holding {', '.join(checked)}")
    hx = read_alist(os.path.join(out_dir, "hx.alist"))
    hz = read_alist(os.path.join(out_dir, "hz.alist"))
    if not hx.matmul(hz.transpose()).is_zero():
        raise BpcodesError("reloaded checks do not commute")
    if hx.cols != params["N"] or hz.cols != params["N"]:
        raise BpcodesError("reloaded dimensions disagree with params.json")
    span = IncrementalSpan(hz.iter_row_ints())
    k = hx.cols - rank(hx) - span.dim
    if k != params["k_homology"]:
        raise BpcodesError("recomputed homology count disagrees with params.json")
    lm = _read_rows(os.path.join(out_dir, "logicals_z.txt"), hx.cols)
    gm = _read_rows(os.path.join(out_dir, "gauge_z.txt"), hx.cols)
    if lm.rows != params["K_logical"] or gm.rows != params["gauge"]:
        raise BpcodesError("representative counts disagree with params.json")
    for name, reps in (("logical", lm), ("gauge", gm)):
        if not hx.matmul(reps.transpose()).is_zero():
            raise BpcodesError(f"{name} representatives are not cycles")
        if not all(span.add(v) for v in reps.iter_row_ints()):
            raise BpcodesError(f"{name} representatives depend on hz and the earlier ones")
    if params["bundle_hash"] != _bundle_hash(hx, hz, lm, gm):
        raise BpcodesError("bundle hash mismatch")
    return params
