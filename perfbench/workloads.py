"""One repetition of one benchmark workload, in a fresh interpreter.

    python3 perfbench/workloads.py WORKLOAD SEED MODE

MODE is ``setup`` (import only), ``run`` (untraced) or ``trace`` (spans
recorded by tracer.py). The process prints ``ready`` once bpcodes and
every submodule the workload uses are imported, so the parent can time
set-up from interpreter start. In the other modes it then runs the
workload once, checks the outputs and prints one JSON line: the wall
time, the phase times, every check with its outcome, the peak RSS and
the library versions. run.py starts one such process per repetition, so
the lru_cache fixtures in bpcodes start cold, as they do for a user of
the command line.
"""

from __future__ import annotations

import importlib
import json
import math
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

IMPORTS = {
    "build_lps13": ["bpcodes", "bpcodes.pipeline"],
    "equiv_lps17": [
        "bpcodes", "bpcodes.algebra", "bpcodes.graphs", "bpcodes.classical",
        "bpcodes.tanner", "bpcodes.products", "bpcodes.quantum",
    ],
    "verify_small": ["bpcodes", "bpcodes.verify"],
}

# Reference outputs at seed 0, the acceptance seeds.
BUILD_REFERENCE = {
    "bundle_hash": "fb69e16bd55abf532ea19df4b25d81fa88805c6ec776d72fc2ac9e628b0908fc",
    "N": 10920,
    "K_logical": 182,
    "gauge": 14,
}
EQUIV_REFERENCE_LDPC = (4, 4)

# Trial seeds of the randomized suites at seed 0; seed n adds 1000 * n.
SUITE_SEEDS = {"kunneth": 11, "pages": 12, "balanced": 13, "bounds": 21}


def local_spec(seed: int) -> str:
    """Local-code recipe of both expander workloads."""
    return f"gv:6,0.1,{seed}"


def suite_seed(name: str, seed: int) -> int:
    return SUITE_SEEDS[name] + 1000 * seed


class Repetition:
    """Wall and phase times and correctness checks of one repetition.

    ``wall_s`` runs from the first library call to the checked result.
    """

    def __init__(self):
        self.wall_s = 0.0
        self.phases: dict[str, float] = {}
        self.checks: list[tuple[str, bool]] = []
        self.info: dict = {}

    def check(self, label: str, passed: bool) -> None:
        self.checks.append((label, bool(passed)))


def eig_branch(n_vertices: int) -> dict:
    from bpcodes import graphs

    branch = "dense" if n_vertices <= graphs.DENSE_EIG_CAP else "lanczos"
    return {"eig_branch": branch, "eig_vertices": n_vertices, "DENSE_EIG_CAP": graphs.DENSE_EIG_CAP}


def build_lps13(seed: int, rep: Repetition) -> None:
    """bpcodes build of lps(5,13) into a fresh directory, then reload it."""
    from bpcodes import errors, pipeline

    recipe = pipeline.Recipe(p=5, q=13, local=local_spec(seed))
    out_dir = tempfile.mkdtemp(prefix="bundle-", dir=OUT)
    try:
        t0 = time.perf_counter()
        params = pipeline.build_bundle(recipe, out_dir).params
        t1 = time.perf_counter()
        try:
            pipeline.load_and_validate_bundle(out_dir)
            valid = True
        except errors.BpcodesError:
            valid = False
        t2 = time.perf_counter()
        rep.check("load_and_validate_bundle passes", valid)
        rep.check("K_logical == base_tanner_k", params["K_logical"] == params["base_tanner_k"])
        if seed == 0:
            for key, want in BUILD_REFERENCE.items():
                rep.check(f"{key} == {want}", params[key] == want)
        rep.wall_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(out_dir)
    rep.phases = {"build_s": t1 - t0, "validate_s": t2 - t1}
    rep.info = {**eig_branch(params["n_vertices"]), "K_logical": params["K_logical"]}


def equiv_lps17(seed: int, rep: Repetition) -> None:
    """lps(5,17) instance from public calls, then the three-way
    bit-for-bit comparison and the LDPC weight check."""
    from bpcodes import algebra, classical, graphs, products, quantum, tanner

    t0 = time.perf_counter()
    graph, group, gens = graphs.lps_graph(5, 17)
    sub = algebra.unipotent_subgroup(group)
    action = graphs.cayley_right_action(graph, group, gens, sub)
    lam2 = graphs.second_eigenvalue(graph)
    code = classical.gv_plus_search(6, 0.1, seed=seed).code
    t = tanner.build_tanner(graph, code)
    inst = products.circle_balanced_product(t, action)
    t1 = time.perf_counter()
    same = products.triple_equivalence_holds(inst)
    tot = inst.product.total
    weights = quantum.ldpc_check(tot.differential(1), tot.differential(2).transpose())
    t2 = time.perf_counter()
    rep.check("three constructions bit-identical", same)
    rep.check("lambda2 < 2*sqrt(5)", lam2 < 2 * math.sqrt(5))
    if seed == 0:
        rep.check(f"ldpc_check == {EQUIV_REFERENCE_LDPC}", tuple(weights) == EQUIV_REFERENCE_LDPC)
    rep.wall_s = time.perf_counter() - t0
    rep.phases = {"instance_s": t1 - t0, "equiv_s": t2 - t1}
    rep.info = {**eig_branch(graph.n), "ldpc_check": list(weights)}


def verify_small(seed: int, rep: Repetition) -> None:
    """The small verification suites, at the seed's trial seeds.

    The toy triple comparison and the lps(5,17) spectrum keep the
    alignment permutations, the lifted product and the Lanczos branch
    measured without the cost of equiv_lps17.
    """
    from bpcodes import verify

    suites = [
        ("toric", verify.toric_suite, {}),
        ("klein", verify.klein_suite, {}),
        ("kunneth", verify.kunneth_suite, {"trials": 200, "seed": suite_seed("kunneth", seed)}),
        ("pages", verify.pages_suite, {"trials": 100, "seed": suite_seed("pages", seed)}),
        ("balanced", verify.balanced_suite, {"trials": 100, "seed": suite_seed("balanced", seed)}),
        ("bounds", verify.bounds_suite, {"samples": 100_000, "seed": suite_seed("bounds", seed)}),
        ("gv", verify.gv_suite, {}),
        ("triple", verify.triple_suite, {"include_lps": False}),
        ("lps", verify.lps_suite, {"pairs": ((5, 17),)}),
    ]
    t0 = time.perf_counter()
    for name, suite, kwargs in suites:
        rep.check(f"{name} suite ok", suite(**kwargs).ok)
    rep.wall_s = time.perf_counter() - t0
    rep.info = {"suite_seeds": {n: suite_seed(n, seed) for n in SUITE_SEEDS}}


WORKLOADS = {"build_lps13": build_lps13, "equiv_lps17": equiv_lps17, "verify_small": verify_small}


def versions() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[1], int(argv[2]), argv[3]
    sys.path.insert(0, str(ROOT / "src"))
    for name in IMPORTS[workload]:
        importlib.import_module(name)
    print("ready", flush=True)
    if mode == "setup":
        return 0
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    rep = Repetition()
    WORKLOADS[workload](seed, rep)
    result = {
        "wall_s": rep.wall_s,
        "phases": rep.phases,
        "checks": rep.checks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "info": {**rep.info, **versions()},
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["layers"]["trace.spans"] = len(tracer.spans)
        tracer.write_spans(OUT / f"spans-{workload}.tsv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
