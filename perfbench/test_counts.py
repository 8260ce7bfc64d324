"""Checks on the benchmark itself; run with ``python -m pytest perfbench``.

The traced run's exact counts must repeat bit for bit, and the benchmark
must refuse to run without the package beside it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
EXACT = (
    "autodiff.nodes_per_step",
    "tensor.from_array.calls_per_step",
    "tensor.from_array.bytes_per_step",
    "graph.build_time_adjacency.calls_per_step",
    "checkpoint.bytes",
    "tt.tt_svd.params",
)


def _traced(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


def _exact(metrics: dict) -> dict:
    return {
        k: v for k, v in metrics.items()
        if k in EXACT or k.startswith("models.parameter_count.") or k.endswith("mflop_per_sample")
    }


def test_exact_counts_repeat():
    first, second = _traced("small-train", 3), _traced("small-train", 3)
    counts = _exact(first)
    assert len(counts) == len(EXACT) + 3 + 7
    assert counts == _exact(second)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
