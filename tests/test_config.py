"""Every run configuration the repository ships or benchmarks parses and builds.

A stricter config reader could otherwise reject a shipped config, or one of
the benchmark's workloads, with no tier-1 test noticing.
"""

import importlib.util
import sys
from pathlib import Path

import pytest
import yaml

from rgtn.config import build_dataset, run_config_from_dict

ROOT = Path(__file__).parents[1]


def benchmark_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # its dataclass resolves annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def documents():
    for path in sorted((ROOT / "configs").glob("*.yaml")):
        yield path.name, yaml.safe_load(path.read_text())
    workloads = benchmark_workloads()
    for name, w in workloads.WORKLOADS.items():
        yield name, workloads.run_config(w, 1)


@pytest.mark.parametrize("name,raw", list(documents()))
def test_parses_and_builds(name, raw):
    run = run_config_from_dict(raw)
    ds = build_dataset(run)
    assert ds.window_shape == (run.model.tau, run.model.d_phys, run.model.d_feat)
