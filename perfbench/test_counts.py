"""The benchmark's own check that traced counts are exact.

    python3 -m pytest -q perfbench/test_counts.py

Runs the traced benchmark twice on the same seed for each workload of
BENCHMARK.json and requires every count metric (every per-layer metric
whose unit is not a time) to be identical across the two runs. Takes a
few minutes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
COUNTS = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] != "s"]
REQUIRED = [
    "f2la.elim_calls", "f2la.convert_calls", "algebra.ga_elems", "classical.distance_calls",
    "classical.search_trials", "tanner.expansion_chains", "products.total_nnz",
    "pipeline.bundle_bytes",
]


def traced_metrics(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, check=True, timeout=300,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], out.stdout
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_counts_repeat_exactly(workload):
    first = traced_metrics(workload, seed=3)
    second = traced_metrics(workload, seed=3)
    assert set(REQUIRED) <= set(COUNTS)
    assert {n: first[n] for n in COUNTS} == {n: second[n] for n in COUNTS}
    assert first["f2la.elim_calls"] > 0
