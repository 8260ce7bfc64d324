"""Every run configuration the repository ships or benchmarks parses and builds.

A stricter config reader could otherwise reject a shipped config, or one of
the benchmark's workloads, with no tier-1 test noticing.
"""

import importlib.util
import re
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from oracles import is_series_view, windows_first, zscore_windows
from rgtn import config as config_module
from rgtn import data as data_module
from rgtn.cli import main
from rgtn.config import (ConfigError, DataConfig, build_dataset, load_run_config,
                         run_config_from_dict)
from rgtn.data import (NormStats, _runs, _split_sizes, _stratified_split, load_csv,
                       synth_linear_dynamics)

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
    # read as rgtn reads them: a relative data.path is read from the config's directory
    for path in sorted((ROOT / "configs").glob("*.yaml")):
        yield path.name, load_run_config(str(path)).raw
    workloads = benchmark_workloads()
    for name, w in workloads.WORKLOADS.items():
        yield name, workloads.run_config(w, 1)


@pytest.mark.parametrize("name,raw", list(documents()))
def test_parses_and_builds(name, raw):
    run = run_config_from_dict(raw)
    ds = build_dataset(run)
    assert ds.inputs.shape[1:] == (run.model.tau, run.model.d_phys, run.model.d_feat)


@pytest.mark.parametrize("name,raw", list(documents()))
def test_misspelled_key_is_named(name, raw):
    # an error, not a run at the default learning rate
    bad = {**raw, "training": {**raw["training"], "learning_rte": 0.5}}
    with pytest.raises(ConfigError, match=r"^training\.learning_rte: unknown key"):
        run_config_from_dict(bad)


def csv_document(path, flat_cell=False):
    """A regression run on a long-format CSV of 40 steps, 2 sites and 3 features.

    With ``flat_cell``, feature b at the north site holds one value throughout.
    """
    rng = np.random.default_rng(0)
    lines = ["time,site,a,b,c"]
    for t in range(40):
        for site in ("north", "south"):
            values = [f"{v:.6f}" for v in rng.standard_normal(3)]
            if flat_cell and site == "north":
                values[1] = "2.5"
            lines.append(f"{t},{site}," + ",".join(values))
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
    # a batch of windows reshapes to (rows, feature) in every model without a copy;
    # a regression dataset's windows, and its time-ordered test split, view its series
    raws = [raw for _, raw in documents()] + [csv_document(tmp_path / "series.csv")]
    assert {raw["data"]["kind"] for raw in raws} == {
        "synthetic_regression", "synthetic_classification", "csv"
    }
    rng = np.random.default_rng(1)
    for raw in raws:
        data = {k: v for k, v in raw["data"].items() if k != "normalize"}
        if normalize is not None:
            data["normalize"] = normalize
        run = run_config_from_dict({**raw, "data": data})
        ds = build_dataset(run)
        batch = rng.permutation(ds.splits.train)[:16]
        if ds.task == "regression":
            series = regression_series(run)
            assert is_series_view(ds.inputs, series)
            assert is_series_view(ds.subset(ds.splits.test)[0], series)
        else:
            assert ds.inputs.flags.c_contiguous
            test_inputs = ds.subset(ds.splits.test)[0]
            # a stratified split is stored as a run too, so it is a slice of the windows
            assert test_inputs.flags.c_contiguous and np.shares_memory(test_inputs, ds.inputs)
        assert ds.inputs[batch].flags.c_contiguous


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
        assert _runs(*_split_sizes(n, split)).test == range(old_train + old_val, n)
        labels = rng.integers(0, 3, size=n)
        assert sum(map(len, _stratified_split(labels, split, seed=n))) == n


def seeded_documents():
    """Every shipped config, and each benchmark workload at several seeds."""
    for path in sorted((ROOT / "configs").glob("*.yaml")):
        yield path.name, load_run_config(str(path)).raw
    workloads = benchmark_workloads()
    for name, w in workloads.WORKLOADS.items():
        # a copy of wide-train's windows takes 67 MB, so it runs at two seeds
        classification = w.data["kind"] == "synthetic_classification"
        for seed in (1, 7) if classification else (1, 7, 11, 203):
            yield f"{name}-{seed}", workloads.run_config(w, seed)


SEEDED = list(seeded_documents())
REGRESSION = [doc for doc in SEEDED if doc[1]["data"]["kind"] != "synthetic_classification"]
CLASSIFICATION = [doc for doc in SEEDED if doc[1]["data"]["kind"] == "synthetic_classification"]


def regression_series(run):
    """The raw (T, P, F) series a regression run windows."""
    data, model = run.data, run.model
    if data.kind == "csv":
        return load_csv(data.path, data.schema)
    return synth_linear_dynamics(model.d_phys, model.d_feat, data.n_steps, data.noise,
                                 data.seed, data.spectral_radius)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def assert_windows_first(run, ds):
    want = windows_first(regression_series(run), run.model.tau, run.data.horizon,
                         run.data.split[0])
    for got, ref in zip((ds.inputs, ds.targets, ds.norm.mean, ds.norm.scale), want):
        assert_same_bits(got, ref)


@pytest.mark.parametrize("name,raw", REGRESSION, ids=[name for name, _ in REGRESSION])
def test_regression_build_keeps_the_bits_of_windowing_first(name, raw):
    # z-scoring the series and then windowing it is every element's own (v - mean) / scale
    run = run_config_from_dict(raw)
    ds = build_dataset(run)
    assert_windows_first(run, ds)
    batch = np.random.default_rng(0).permutation(ds.splits.train)[:16]
    assert is_series_view(ds.inputs, regression_series(run))
    assert ds.inputs[batch].flags.c_contiguous


@pytest.mark.parametrize("name,raw", CLASSIFICATION, ids=[name for name, _ in CLASSIFICATION])
def test_classification_build_is_normalize_on_a_copy(name, raw, monkeypatch):
    # z-scoring the generator's windows where they lie gives a z-scored copy's bits
    run = run_config_from_dict(raw)
    ds = build_dataset(run)
    # the raw windows: statistics of zero mean and unit scale leave every bit, (v - 0) / 1 == v
    monkeypatch.setattr(data_module, "_train_stats", lambda inputs: NormStats(
        np.zeros(inputs.shape[2:]), np.ones(inputs.shape[2:])))
    windows = build_dataset(run)
    inputs, mean, scale = zscore_windows(windows.inputs, windows.splits.train)
    for got, ref in ((ds.inputs, inputs), (ds.targets, windows.targets),
                     (ds.norm.mean, mean), (ds.norm.scale, scale)):
        assert_same_bits(got, ref)
    batch = np.random.default_rng(0).permutation(ds.splits.train)[:16]
    assert ds.inputs.flags.c_contiguous
    assert ds.inputs[batch].flags.c_contiguous


def test_zero_spread_cell_warns_once_and_keeps_the_bits(tmp_path):
    run = run_config_from_dict(csv_document(tmp_path / "series.csv", flat_cell=True))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ds = build_dataset(run)
    assert [str(w.message) for w in caught] == [
        "1 feature cell(s) have zero spread; scale set to 1"
    ]
    assert ds.norm.scale[0, 1] == 1.0
    assert_windows_first(run, ds)


def test_refused_config_takes_no_statistics(tmp_path):
    # a config the data's checks refuse warns of nothing before its error
    raw = csv_document(tmp_path / "series.csv", flat_cell=True)
    raw["training"]["loss"] = "cross_entropy"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ConfigError, match=r"^training\.loss"):
            build_dataset(run_config_from_dict(raw))
    assert caught == []


def spy_on_sources(monkeypatch):
    """Record each data source ``build_dataset`` calls, and let the call through."""
    calls = []
    for name in ("synth_classification", "synth_linear_dynamics", "load_csv"):
        def spy(*args, source=getattr(config_module, name), name=name, **kwargs):
            calls.append(name)
            return source(*args, **kwargs)
        monkeypatch.setattr(config_module, name, spy)
    return calls


def config_only_refusals():
    """(id, document, field) for each refusal the config alone decides, on every data kind."""
    workloads = benchmark_workloads()
    docs = {
        "regression": load_run_config(str(ROOT / "configs" / "synth_regression.yaml")).raw,
        # wide-train's windows take 67 MB to draw
        "classification": workloads.run_config(workloads.WORKLOADS["wide-train"], 1),
        "csv": load_run_config(str(ROOT / "configs" / "example_csv.yaml")).raw,
    }
    # a width the data does not fit, with the head modes that multiply to it
    out_modes = {1: [1, 1, 1], 4: [1, 2, 2], 6: [1, 2, 3]}
    changes = {
        "regression": [("training.loss", "cross_entropy"), ("model.out_dim", 6)],
        "classification": [("training.loss", "mae"), ("training.loss", "mse"),
                           ("model.out_dim", 1)],
        "csv": [("training.loss", "cross_entropy"), ("model.out_dim", 4)],
    }
    for kind, doc in docs.items():
        for field, value in changes[kind]:
            if field == "training.loss":
                bad = {**doc, "training": {**doc["training"], "loss": value}}
            else:
                head = {**doc["model"]["head"], "out_modes": out_modes[value]}
                bad = {**doc, "model": {**doc["model"], "out_dim": value, "head": head}}
            yield f"{kind}-{field}-{value}", bad, field


REFUSALS = list(config_only_refusals())


@pytest.mark.parametrize("doc,field", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_config_only_refusal_draws_no_data(monkeypatch, doc, field):
    # the loss and the output width are the config's alone: no source is called
    calls = spy_on_sources(monkeypatch)
    with pytest.raises(ConfigError, match=rf"^{re.escape(field)}: "):
        build_dataset(run_config_from_dict(doc))
    assert calls == []


def test_empty_split_is_refused_before_any_window_is_drawn(monkeypatch):
    # wide-train with no validation split: its labels' split is refused before the
    # generator's window loop allocates the 67 MB of windows or draws any of them
    workloads = benchmark_workloads()
    doc = workloads.run_config(workloads.WORKLOADS["wide-train"], 1)
    doc = {**doc, "data": {**doc["data"], "split": [0.5, 0.0, 0.5]}}
    run = run_config_from_dict(doc)
    # a first call imports what NumPy loads lazily, so the traced one counts only its own
    with pytest.raises(ConfigError):
        build_dataset(run)
    calls = spy_on_sources(monkeypatch)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=r"^data\.split: the val split is empty"):
            build_dataset(run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == ["synth_classification"]
    assert peak < 2**20, peak


SHIPPED = sorted((ROOT / "configs").glob("*.yaml"))

# YAML 1.1 forms a parser could read differently: an anchor, its alias and a
# merge key, dates, the yes/on booleans, a float without a dot (a string in
# YAML 1.1), integer bases, a sexagesimal and non-ASCII text
TRICKY_YAML = """\
base: &base {rate: 1.0e-3, name: "café, Zürich — 数据"}
copy: *base
merged: {<<: *base, extra: 2}
date: 2020-01-02
stamp: 2020-01-02 03:04:05.5+01:00
flags: [yes, no, on, off, y, n, True, ~]
rate: 1e-3
ints: [017, 0x1f, 0b101, 1_000, "12", 1:20, -0]
text: |
  línea één
"""


@pytest.fixture(params=["libyaml", "pure"])
def yaml_parser(request, monkeypatch):
    """Each test once with PyYAML's libyaml parser and once without it."""
    if request.param == "libyaml" and not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML was built without libyaml")
    if request.param == "pure":
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    return request.param


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML was built without libyaml")
@pytest.mark.parametrize("text", [path.read_text(encoding="utf-8") for path in SHIPPED]
                         + [TRICKY_YAML], ids=[path.name for path in SHIPPED] + ["tricky"])
def test_both_parsers_read_the_same_mapping(text):
    fast = yaml.load(text, Loader=yaml.CSafeLoader)
    pure = yaml.load(text, Loader=yaml.SafeLoader)
    # repr tells True from 1 and 1.0 from 1, which == does not
    assert fast == pure and repr(fast) == repr(pure)


TRICKY_CONFIGS = {
    # an anchor and its alias, a merge key and non-ASCII text, all of which load
    "anchors": ("  hidden: 8", "  hidden: &width 8\n  task: {<<: {name: café}, by: 数据}",
                "  batch_size: 64", "  batch_size: *width"),
    # yes loads as true, which only the deleted head.bias takes
    "yes": ("    ranks: [2, 2]", "    ranks: [2, 2]\n    bias: yes"),
    # on loads as true, which no int field takes
    "on": ("  seed: 7", "  seed: on"),
    # a float without a dot is a string in YAML 1.1
    "1e-3": ("  learning_rate: 0.01", "  learning_rate: 1e-3"),
    # a date, which JSON cannot hold
    "date": ("  variant: grgtn", "  variant: grgtn\n  task: 2020-01-02"),
}


def run_or_error(path):
    """The run a config file gives, or the error that refuses it."""
    try:
        return load_run_config(str(path))
    except ConfigError as exc:
        return str(exc)


@pytest.mark.parametrize("name", [path.name for path in SHIPPED] + sorted(TRICKY_CONFIGS))
def test_run_config_is_the_same_without_libyaml(tmp_path, monkeypatch, name):
    path = ROOT / "configs" / name
    if name in TRICKY_CONFIGS:
        text = (ROOT / "configs" / "synth_regression.yaml").read_text(encoding="utf-8")
        edits = TRICKY_CONFIGS[name]
        for old, new in zip(edits[::2], edits[1::2]):
            assert old in text
            text = text.replace(old, new, 1)
        path = tmp_path / f"{name}.yaml"
        path.write_text(text, encoding="utf-8")
    with_libyaml = run_or_error(path)
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert run_or_error(path) == with_libyaml
    # the edits load as their comments say
    assert isinstance(with_libyaml, str) == (name in ("on", "1e-3", "date"))


@pytest.mark.parametrize("text", ["model: [1, 2\n", "model:\n  tau: 4\n tau: 5\n", "a: b: c\n",
                                  "model: {tau: 4\n", "\tmodel: 1\n"])
def test_syntax_error_exits_2_naming_the_file(tmp_path, capsys, yaml_parser, text):
    path = tmp_path / "broken.yaml"
    path.write_text(text)
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "cannot parse" in err and str(path) in err
    assert not (tmp_path / "run").exists()


def regression_document():
    return load_run_config(str(ROOT / "configs" / "synth_regression.yaml")).raw


def test_csv_source_without_a_schema_is_refused(tmp_path):
    doc = csv_document(tmp_path / "series.csv")
    del doc["data"]["schema"]
    with pytest.raises(ConfigError, match=r"^data\.schema: required mapping missing$"):
        run_config_from_dict(doc)


@pytest.mark.parametrize("section", ["model", "data", "training", "output"])
def test_section_that_is_not_a_mapping_is_named(section):
    with pytest.raises(ConfigError, match=rf"^{section}: must be a mapping$"):
        run_config_from_dict({**regression_document(), section: 3})


def test_top_level_list_exits_2(tmp_path, capsys):
    path = tmp_path / "list.yaml"
    path.write_text("- model\n- data\n")
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    assert "top level of the config must be a mapping" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("error", [AttributeError, ValueError, OSError])
def test_config_loads_where_the_memory_size_is_unknown(monkeypatch, error):
    # with no memory size to compare against, a store beyond any memory loads
    doc = regression_document()
    doc = {**doc, "model": {**doc["model"], "hidden": 1_000_000_000}}
    with pytest.raises(ConfigError, match="^model: "):
        run_config_from_dict(doc)

    def unknown(name):
        raise error(name)

    if error is AttributeError:  # no sysconf on this platform
        monkeypatch.delattr(config_module.os, "sysconf")
    else:
        monkeypatch.setattr(config_module.os, "sysconf", unknown)
    assert run_config_from_dict(doc).model.hidden == 1_000_000_000


@pytest.mark.parametrize("variants,message", [
    (["grgtn", "lstm"], "unknown variant 'lstm'"),
    (["grgtn", "rnn", "grgtn"], "variants must be distinct"),
], ids=["unknown", "repeated"])
def test_bench_variants_are_known_and_distinct(variants, message):
    with pytest.raises(ConfigError, match=rf"^bench\.variants: {message}$"):
        run_config_from_dict({**regression_document(), "bench": {"variants": variants}})


@pytest.mark.parametrize("section,value,named", [
    ("bench", None, "bench"),
    ("bench", 3, "bench"),
    ("bench", {"variants": "grgtn"}, "bench.variants"),
    ("bench", {"variants": ["grgtn", 3]}, "bench.variants"),
    ("output", None, "output"),
], ids=["bench_null", "bench_number", "variants_string", "variants_number", "output_null"])
@pytest.mark.parametrize("command", ["train", "bench"])
def test_output_or_bench_of_the_wrong_type_exits_2_naming_it(tmp_path, capsys, command,
                                                              section, value, named):
    # the document is read whole, so train refuses a bench section it does not use
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump({**regression_document(), section: value}))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    # the key itself, or a key or item inside it
    assert re.search(rf"(^|\s){re.escape(named)}[.:\[]", capsys.readouterr().err)
    assert not (tmp_path / "run").exists()
