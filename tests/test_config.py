"""Every run configuration the repository ships or benchmarks parses and builds.

A stricter config reader could otherwise reject a shipped config, or one of
the benchmark's workloads, with no tier-1 test noticing.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from rgtn.config import ConfigError, DataConfig, build_dataset, run_config_from_dict
from rgtn.data import _chronological_split, _stratified_split

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


@pytest.mark.parametrize("name,raw", list(documents()))
def test_misspelled_key_is_named(name, raw):
    # an error, not a run at the default learning rate
    bad = {**raw, "training": {**raw["training"], "learning_rte": 0.5}}
    with pytest.raises(ConfigError, match=r"^training\.learning_rte: unknown key"):
        run_config_from_dict(bad)


def csv_document(path):
    """A regression run on a long-format CSV of 40 steps, 2 sites and 3 features."""
    rng = np.random.default_rng(0)
    lines = ["time,site,a,b,c"] + [
        f"{t},{site}," + ",".join(f"{v:.6f}" for v in rng.standard_normal(3))
        for t in range(40) for site in ("north", "south")
    ]
    path.write_text("\n".join(lines) + "\n")
    schema = {"time": "time", "phys": "site", "features": ["a", "b", "c"]}
    return {
        "model": {"variant": "grgtn", "tau": 4, "d_phys": 2, "d_feat": 3, "hidden": 5,
                  "out_dim": 6, "head": {"out_modes": [1, 2, 3]}},
        "data": {"kind": "csv", "path": str(path), "schema": schema},
        "training": {"epochs": 1},
    }


# "zscore" spells out the deleted data.normalize at the one value it now has
@pytest.mark.parametrize("normalize", [None, "zscore"])
def test_every_dataset_path_gives_c_contiguous_windows(tmp_path, normalize):
    # a batch of windows reshapes to (rows, feature) in every model without a copy
    raws = [raw for _, raw in documents()] + [csv_document(tmp_path / "series.csv")]
    assert {raw["data"]["kind"] for raw in raws} == {
        "synthetic_regression", "synthetic_classification", "csv"
    }
    rng = np.random.default_rng(1)
    for raw in raws:
        data = {k: v for k, v in raw["data"].items() if k != "normalize"}
        if normalize is not None:
            data["normalize"] = normalize
        ds = build_dataset(run_config_from_dict({**raw, "data": data}))
        batch = rng.permutation(ds.splits.train)[:16]
        assert ds.inputs.flags.c_contiguous
        assert ds.inputs[batch].flags.c_contiguous
        assert ds.subset(ds.splits.test)[0].flags.c_contiguous


def shipped_splits():
    """Each distinct ``data.split`` a shipped config or workload uses, or the default."""
    splits = {
        tuple(raw.get("data", {}).get("split", DataConfig.split)) for _, raw in documents()
    }
    return sorted(splits)


@pytest.mark.parametrize("split", shipped_splits())
def test_shipped_splits_use_every_window(split):
    # these sum to 1, so the test split is everything after train and val,
    # as it was before the third fraction was read
    assert abs(sum(split) - 1.0) < 1e-12
    rng = np.random.default_rng(0)
    for n in (1, 7, 60, 100, 1024, 3000, 9973):
        old_train, old_val = int(n * split[0]), int(n * split[1])
        chrono = _chronological_split(n, split)
        np.testing.assert_array_equal(chrono.test, np.arange(old_train + old_val, n))
        labels = rng.integers(0, 3, size=n)
        strat = _stratified_split(labels, split, seed=n)
        assert len(strat.train) + len(strat.val) + len(strat.test) == n
