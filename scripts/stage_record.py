#!/usr/bin/env python3
"""Time and size the stages of one lps(p, q) build, one stage at a time.

    python3 scripts/stage_record.py --p 5 --q 23 [--local SPEC]

Prints one JSON line per stage with its wall time (``wall_s``), the
minor page faults it took (``ru_minflt``, first touches of fresh memory:
a stage that reuses memory an earlier stage freed takes few), the
process's high-water mark after it (``ru_maxrss_mb``) and its current
resident size (``rss_mb``, from /proc/self/statm). The build's check that
the fiber sum inverts the lift (``pi_iota_is_identity``) and the bundle
hash over hx, hz and the logical and gauge rows (``bundle_hash``) are
stages of their own. Two stages write the logical and gauge row files of
the bundle to a temporary directory and read them back; their records add
the tracemalloc peak of the stage (``traced_peak_mb``), since the
high-water mark is set earlier in the build. Run one process per record,
under ``ulimit -v`` for the large q. This stands in for a traced
``bpcodes build`` until the package reports its own stage spans.
"""

import argparse
import json
import os
import resource
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bpcodes.algebra import unipotent_subgroup  # noqa: E402
from bpcodes.classical import local_code_from_spec  # noqa: E402
from bpcodes.graphs import (  # noqa: E402
    cayley_right_action,
    check_quotient_condition,
    lps_graph,
    second_eigenvalue,
)
from bpcodes.pipeline import _bundle_hash, _read_rows, _write_rows  # noqa: E402
from bpcodes.products import (  # noqa: E402
    circle_balanced_product,
    homology_split,
    pi_iota_is_identity,
)
from bpcodes.quantum import css_from_complex  # noqa: E402
from bpcodes.tanner import build_tanner  # noqa: E402

PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def rss_mb() -> float:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * PAGE_MB


def record(stage: str, fn, *args, traced: bool = False):
    if traced:
        tracemalloc.start()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    out = fn(*args)
    wall = time.perf_counter() - t0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    line = {
        "stage": stage,
        "wall_s": round(wall, 4),
        "ru_minflt": usage.ru_minflt - faults,
        "ru_maxrss_mb": round(usage.ru_maxrss / 1024, 1),
        "rss_mb": round(rss_mb(), 1),
    }
    if traced:
        line["traced_peak_mb"] = round(tracemalloc.get_traced_memory()[1] / 2**20, 1)
        tracemalloc.stop()
    print(json.dumps(line), flush=True)
    return out


def write_row_files(out_dir: str, split) -> None:
    _write_rows(os.path.join(out_dir, "logicals_z.txt"), split.h_reps)
    _write_rows(os.path.join(out_dir, "gauge_z.txt"), split.v_reps)


def read_row_files(out_dir: str, cols: int) -> None:
    _read_rows(os.path.join(out_dir, "logicals_z.txt"), cols)
    _read_rows(os.path.join(out_dir, "gauge_z.txt"), cols)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--p", type=int, required=True)
    ap.add_argument("--q", type=int, required=True)
    ap.add_argument("--local", default=None, help="local code spec (default gv:P+1,0.1,0)")
    args = ap.parse_args()
    local = args.local or f"gv:{args.p + 1},0.1,0"

    print(json.dumps({"stage": "start", "p": args.p, "q": args.q, "local": local,
                      "rss_mb": round(rss_mb(), 1)}), flush=True)
    graph, group, gens = record("lps_graph", lps_graph, args.p, args.q)
    record("second_eigenvalue", second_eigenvalue, graph)  # first, as in build_bundle
    sub = unipotent_subgroup(group)
    record("check_quotient_condition", check_quotient_condition, group, gens, sub)
    action = record("cayley_right_action", cayley_right_action, graph, group, gens, sub)
    code = record("local_code_from_spec", local_code_from_spec, local)
    tanner = record("build_tanner", build_tanner, graph, code)
    inst = record("circle_balanced_product", circle_balanced_product, tanner, action)
    split = record("homology_split", homology_split, inst)
    record("pi_iota_is_identity", pi_iota_is_identity, split)
    css = record("css_from_complex", css_from_complex, inst.product.total, 1)
    with tempfile.TemporaryDirectory() as out_dir:
        record("write_rows", write_row_files, out_dir, split, traced=True)
        record("read_rows", read_row_files, out_dir, css.n, traced=True)
    record("bundle_hash", _bundle_hash, css.hx, css.hz, split.h_reps, split.v_reps)


if __name__ == "__main__":
    main()
