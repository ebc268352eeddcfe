"""Benchmark of bpcodes: closed-loop workloads, one client and one job
at a time.

    python3 perfbench/run.py --workload build_lps13 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --compare before.jsonl after.jsonl

BENCHMARK.json lists the workloads the benchmark gates on, build_lps13
and verify_small. equiv_lps17 (the lps(5,17) instance, the three-way
comparison and the LDPC check) runs the same way but takes about a
minute a repetition, too long for the gated set.

Each repetition runs in a fresh interpreter (workloads.py) with BLAS and
OpenMP threads pinned to 1. A run makes at least two repetitions and
goes on until they have measured ``--seconds`` of wall time. Times are
those of the fastest repetition: on a shared host, other work only ever
adds time, often in bursts longer than one repetition. With
``--trace 0`` each repetition is preceded by import-only interpreters,
and the run reports the end-to-end metrics.
With ``--trace 1`` it records spans (tracer.py) and reports the
per-layer metrics plus the tracing overhead: the fastest traced wall
time minus the fastest untraced one, from untraced repetitions that
alternate with the traced ones.

The seed drives the local-code search of the expander workloads and the
trial seeds of the randomized suites; seed 0 gives the acceptance seeds,
where the outputs are also compared with recorded reference values.

Every run appends its record to perfbench/out/runs.jsonl; ``--compare``
reads two such files. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
RECORDS = OUT / "runs.jsonl"
CHILD = HERE / "workloads.py"

WORKLOADS = ("build_lps13", "verify_small", "equiv_lps17")
MIN_REPS = 2
SETUP_SAMPLES_PER_REP = 2  # import-only interpreters before each untraced repetition
RUN_LIMIT_S = 150  # a repetition as slow as the slowest so far must end by then
CHILD_TIMEOUT_S = 170
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
NO_WAIT_NOTE = (
    "no layer waits on a queue, a lock or another process: every workload is "
    "one single-threaded process, so no layer has a waiting metric"
)


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else ref[5:]


def spawn(workload: str, seed: int, mode: str) -> dict | None:
    """One fresh interpreter; None when it fails or times out."""
    env = {**os.environ, **PINNED_THREADS}
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), workload, str(seed), mode],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"{workload} {mode}: timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if first.strip() != "ready" or proc.returncode != 0:
        print(f"{workload} {mode}: exit code {proc.returncode}", file=sys.stderr)
        return None
    result = json.loads(rest.strip().splitlines()[-1]) if mode != "setup" else {}
    result["setup_s"] = setup_s
    return result


class Tally:
    """Correctness checks over every repetition of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def add(self, rep: dict | None) -> bool:
        """Count a repetition's checks; True when all passed. A repetition
        that crashed counts as one failed check."""
        if rep is None:
            self.attempted += 1
            self.failed.append("repetition completed")
            return False
        self.attempted += len(rep["checks"])
        bad = [label for label, ok in rep["checks"] if not ok]
        self.failed.extend(bad)
        return not bad


def run(workload: str, seed: int, seconds: int, trace: bool) -> int:
    if not (ROOT / "src" / "bpcodes" / "__init__.py").is_file():
        print(f"no bpcodes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    bench = load_benchmark()
    start = time.perf_counter()
    tally = Tally()
    # A traced run pairs each traced repetition with an untraced one, so
    # that both see the same load on the host.
    modes = ("run", "trace") if trace else ("run",)
    done: dict[str, list[tuple[dict, bool]]] = {mode: [] for mode in modes}
    setups: list[float] = []
    crashed = False
    while not crashed and (
        len(done[modes[-1]]) < MIN_REPS or sum(r["wall_s"] for r, _ in done[modes[-1]]) < seconds
    ):
        expected = sum(max((r["wall_s"] for r, _ in done[m]), default=0.0) for m in modes)
        if time.perf_counter() - start + expected > RUN_LIMIT_S:
            break
        if not trace:
            for _ in range(SETUP_SAMPLES_PER_REP):
                sample = spawn(workload, seed, "setup")
                if sample is None:
                    return 1
                setups.append(sample["setup_s"])
        for mode in modes:
            rep = spawn(workload, seed, mode)
            ok = tally.add(rep)
            if rep is None:
                crashed = True
                break
            done[mode].append((rep, ok))
            if mode == "run":
                setups.append(rep["setup_s"])
    reps = [r for r, _ in done[modes[-1]]]
    if not reps:
        return 1

    def fastest(mode: str) -> dict:
        # a run with no passing repetition reports correct=false with the
        # times of the failed ones
        pool = [r for r, ok in done[mode] if ok] or [r for r, _ in done[mode]]
        return min(pool, key=lambda r: r["wall_s"])

    info = {
        **reps[0]["info"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "threads": PINNED_THREADS,
    }
    print("env " + json.dumps(info, sort_keys=True))
    print(
        f"workload {workload} seed {seed}: closed loop, one client, one job at a time; "
        + "; ".join(
            f"{len(done[m])} {m} repetitions, {sum(ok for _, ok in done[m])} passed every check, "
            f"wall_s of each: {[r['wall_s'] for r, _ in done[m]]}"
            for m in modes
        )
    )
    if trace:
        traced, untraced = fastest("trace"), fastest("run")
        metrics = dict(traced["layers"])
        metrics["trace.wall_s"] = traced["wall_s"]
        metrics["trace.untraced_wall_s"] = untraced["wall_s"]
        metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        from tracer import COUNT_DEFINITIONS

        print("per-layer figures of the fastest traced repetition")
        for name, text in COUNT_DEFINITIONS.items():
            print(f"count {name}: {text}")
        wanted = [m["name"] for m in bench["per_layer"]]
    else:
        timed = [r for r, ok in done["run"] if ok] or reps
        metrics = {
            "wall_s": fastest("run")["wall_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in reps),
        }
        for phase in timed[0]["phases"]:
            metrics[phase] = min(r["phases"][phase] for r in timed)
        print(f"wall_s and phases: fastest repetition; setup_s: median of {len(setups)} "
              f"interpreter starts; peak_rss_mb: largest ru_maxrss of the repetitions")
        wanted = [m["name"] for m in bench["end_to_end"]]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for name, value in metrics.items():
        print(f"{name} {value!r} {units.get(name, 's')}")
    n_failed = len(tally.failed)
    print(f"fail_ratio {n_failed / tally.attempted!r} ({n_failed} failed of {tally.attempted} "
          f"correctness checks attempted)")
    for label in tally.failed:
        print(f"FAILED {label}")
    print("note: " + NO_WAIT_NOTE)
    record = {
        "workload": workload, "seed": seed, "trace": trace, "reps": len(reps),
        "correct": not tally.failed, "attempted": tally.attempted, "failed": n_failed,
        "metrics": metrics, "env": info,
    }
    with open(RECORDS, "a") as f:
        f.write(json.dumps(record) + "\n")
    result = {
        "correct": not tally.failed,
        "attempted": tally.attempted,
        "failed": n_failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in wanted},
    }
    print(json.dumps(result))
    return 0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(path_a: str, path_b: str) -> int:
    """Medians, quartiles and ratio of every end-to-end metric per workload.

    A metric is unresolved when either side's quartile spread, as a share
    of its median, exceeds the metric's bound; phase metrics use the
    bound of wall_s, which contains them. Only runs whose checks all
    passed are timed.
    """
    bounds = {m["name"]: m["bound"] for m in load_benchmark()["end_to_end"]}
    sides = []
    for path in (path_a, path_b):
        with open(path) as f:
            sides.append([json.loads(line) for line in f if line.strip()])
    print(f"A = {path_a}\nB = {path_b}")
    for workload in WORKLOADS:
        runs = [[r for r in side if r["workload"] == workload and not r["trace"]] for side in sides]
        if not all(runs):
            continue
        print(f"\n{workload}: {len(runs[0])} runs in A, {len(runs[1])} in B")
        for side, label in zip(runs, "AB"):
            failed = sum(r["failed"] for r in side)
            attempted = sum(r["attempted"] for r in side)
            print(f"  fail_ratio {label}: {failed}/{attempted} correctness checks failed")
        good = [[r for r in side if r["correct"]] for side in runs]
        if not all(good):
            print("  no correct run on one side: nothing to compare")
            continue
        print(f"  {'metric':<12} {'A q1/median/q3':>30} {'B q1/median/q3':>30} {'B/A':>7}  verdict")
        for name in good[0][0]["metrics"]:
            qa, qb = (quartiles([r["metrics"][name] for r in side]) for side in good)
            bound = bounds.get(name, bounds["wall_s"])
            spread = max((q[2] - q[0]) / q[1] for q in (qa, qb))
            ratio = qb[1] / qa[1]
            if spread > bound:
                verdict = f"unresolved (spread {spread:.3f} > bound {bound})"
            elif ratio > 1 + bound:
                verdict = f"worse by more than the bound {bound}"
            elif ratio < 1 - bound:
                verdict = f"better by more than the bound {bound}"
            else:
                verdict = f"within the bound {bound} (spread {spread:.3f})"
            print(f"  {name:<12} {_fmt(qa):>30} {_fmt(qb):>30} {ratio:7.3f}  {verdict}")
        for side, label in zip(sides, "AB"):
            overheads = [
                r["metrics"]["trace.overhead_s"] for r in side if r["workload"] == workload and r["trace"]
            ]
            if overheads:
                print(f"  tracing overhead {label}: {statistics.median(overheads):.3f} s "
                      f"(median of {len(overheads)} traced runs)")
    return 0


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
