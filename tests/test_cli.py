"""End-to-end command-line tests: every command, exit codes, round trips."""

import contextlib
import copy
import dataclasses
import datetime
import io
import json
import math
import struct
import tempfile
import types
import typing
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import payload_header, raw_checkpoint
from rgtn.checkpoint import load_checkpoint, save_checkpoint, save_tensor
from rgtn.cli import main
from rgtn.config import FIXED, DataConfig, run_config_from_dict
from rgtn.models import ModelConfig
from rgtn.training import TrainConfig, TrainingDiverged


def base_config(out_dir, epochs=3, variant="grgtn", seed=0):
    return {
        "model": {
            "variant": variant,
            "tau": 4,
            "d_phys": 2,
            "d_feat": 3,
            "hidden": 8,
            "c": 0.5,
            "activation": "identity",
            "out_dim": 6,
            "head": {"ranks": [2, 2], "out_modes": [1, 2, 3]},
        },
        "data": {
            "kind": "synthetic_regression",
            "n_steps": 300,
            "noise": 0.1,
            "seed": 5,
        },
        "training": {
            "epochs": epochs,
            "learning_rate": 0.01,
            "batch_size": 32,
            "loss": "mae",
            "seed": seed,
        },
        "output": {"dir": str(out_dir)},
    }


def classification_config(out_dir, epochs=2):
    cfg = base_config(out_dir, epochs)
    cfg["model"]["out_dim"] = 2
    cfg["model"]["head"]["out_modes"] = [1, 1, 2]
    cfg["data"] = {"kind": "synthetic_classification", "n_samples": 120, "seed": 5}
    cfg["training"]["loss"] = "cross_entropy"
    return cfg


def set_field(cfg, dotted, value):
    *sections, key = dotted.split(".")
    for name in sections:
        cfg = cfg[name]
    cfg[key] = value


def field_names(cfg, prefix=""):
    for key, value in cfg.items():
        if isinstance(value, dict):
            yield from field_names(value, f"{prefix}{key}.")
        else:
            yield prefix + key


# small enough that no drawn config allocates a large model or series
SMALL_VALUES = (
    st.booleans() | st.none() | st.text(max_size=3) | st.floats(-2, 2) | st.integers(-2, 3)
)


def write_config(tmp_path, cfg, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


ROOT = Path(__file__).parents[1]

# each deleted setting: the one value it now has, and values it can no longer take
DELETED_SETTINGS = {
    "model.head.kind": ("tt", ["none", "dense"]),
    "model.head.bias": (True, [False]),
    "data.normalize": ("zscore", ["minmax", "none"]),
    "training.clip_norm": (None, [1.0]),
    "training.beta1": (0.9, [0.95]),
    "training.beta2": (0.999, [0.99]),
    "training.eps": (1e-8, [1e-6]),
}


def read_pairs(path):
    pairs = {}
    for line in Path(path).read_text().splitlines():
        key, _, value = line.partition(": ")
        pairs[key] = value.strip()
    return pairs


class TestTrainCommand:
    def test_creates_artifacts_and_summary(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, base_config(out))
        assert main(["train", "--config", cfg]) == 0
        captured = capsys.readouterr().out
        assert "test_mae:" in captured
        assert (out / "checkpoint.rgtn").exists()
        assert (out / "trace.tsv").exists()
        summary = read_pairs(out / "summary.txt")
        assert summary["variant"] == "grgtn"
        assert float(summary["test_mae"]) > 0
        lines = (out / "trace.tsv").read_text().splitlines()
        assert lines[0] == "epoch\ttrain_loss\tval_loss"
        assert len(lines) == 4

    def test_rerun_same_seed_identical_summary(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg_a = write_config(tmp_path, base_config(out_a), "a.yaml")
        cfg_b = write_config(tmp_path, base_config(out_b), "b.yaml")
        assert main(["train", "--config", cfg_a]) == 0
        assert main(["train", "--config", cfg_b]) == 0
        sa = read_pairs(out_a / "summary.txt")
        sb = read_pairs(out_b / "summary.txt")
        sa.pop("wall_time_s"), sb.pop("wall_time_s")
        assert sa == sb
        assert (out_a / "trace.tsv").read_text() == (out_b / "trace.tsv").read_text()

    def test_seed_flag_changes_run(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg_a = write_config(tmp_path, base_config(out_a), "a.yaml")
        cfg_b = write_config(tmp_path, base_config(out_b), "b.yaml")
        assert main(["train", "--config", cfg_a]) == 0
        assert main(["train", "--config", cfg_b, "--seed", "9"]) == 0
        sa = read_pairs(out_a / "summary.txt")
        sb = read_pairs(out_b / "summary.txt")
        assert sa["train_seed"] == "0" and sb["train_seed"] == "9"
        assert sa["test_mae"] != sb["test_mae"]

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "nope.yaml")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_config_exits_2_naming_it(self, tmp_path, capsys):
        path = tmp_path / "latin1.yaml"
        path.write_bytes(yaml.safe_dump(base_config(tmp_path / "x")).encode() + b"# caf\xe9\n")
        assert main(["train", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "utf-8" in err

    def test_directory_as_config_exits_2_naming_it(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path)]) == 2
        assert str(tmp_path) in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["data.horizon", "model.tau"])
    def test_series_too_short_for_the_window_exits_2(self, tmp_path, capsys, field):
        # synth_regression.yaml has 3000 steps
        cfg = yaml.safe_load((ROOT / "configs" / "synth_regression.yaml").read_text())
        cfg["output"]["dir"] = str(tmp_path / "x")
        set_field(cfg, field, 5000)
        assert main(["train", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert "data.horizon" in err and "model.tau" in err
        # the data's checks run before the run directory is made
        assert not (tmp_path / "x").exists()

    def test_zero_test_fraction_exits_2(self, tmp_path, capsys):
        # 197 windows split 0.7/0.3 leave one over, which is not a test split
        cfg = yaml.safe_load((ROOT / "configs" / "synth_regression.yaml").read_text())
        cfg["output"]["dir"] = str(tmp_path / "x")
        cfg["data"].update(split=[0.7, 0.3, 0.0], n_steps=203)
        assert main(["train", "--config", write_config(tmp_path, cfg)]) == 2
        assert "data.split: the test split is empty" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_invalid_field_exits_2_with_field_name(self, tmp_path, capsys):
        # YAML true is a bool, which must not pass for an int or a float
        for field, value in (
            ("training.epochs", "many"),
            ("model.tau", True),
            ("model.c", False),
            ("training.clip_norm", True),
            ("model.head.ranks", [True, 2]),
            ("model.head.ranks", [2.7, 2]),
            ("model.head.ranks", ["2", 2]),
            ("model.head.bias", "no"),
            ("data.seed", "abc"),
            ("data.seed", True),
            ("data.seed", -1),
            ("data.n_steps", 2500.9),
            ("data.noise", True),
            ("data.split", "abc"),
            # horizon 0 makes the target the window's own last step
            ("data.horizon", 0),
            ("data.split", [-0.1, 0.6, 0.5]),
            ("data.split", [0.7, 0.3, 0.3]),
            ("output.dir", 3),
            # refused with the config, before any data is drawn
            ("output.dir", ""),
            # range errors of the model and training dataclasses
            ("training.seed", -1),
            ("model.tau", 0),
            ("training.batch_size", 0),
        ):
            cfg = base_config(tmp_path / "x")
            set_field(cfg, field, value)
            path = write_config(tmp_path, cfg)
            assert main(["train", "--config", path]) == 2, (field, value)
            assert field in capsys.readouterr().err
        for key, value in (("ranks", [0, 2]), ("out_modes", [-1, -2, 3])):
            cfg = base_config(tmp_path / "x")
            cfg["model"]["head"][key] = value
            assert main(["train", "--config", write_config(tmp_path, cfg)]) == 2, key
            assert f"model.head.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["trainin", "model.hiden", "model.head.rank", "data.nosie",
                                     "training.learning_rte", "output.dri", "bench.variant"])
    def test_unknown_key_exits_2_naming_it(self, tmp_path, capsys, key):
        # not ignored: training.learning_rte would otherwise train at the default rate
        cfg = base_config(tmp_path / "x")
        cfg["bench"] = {"variants": ["grgtn", "rnn"]}
        set_field(cfg, key, 0.5)
        assert main(["train", "--config", write_config(tmp_path, cfg)]) == 2
        assert f"{key}: unknown key" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_misspelled_csv_schema_key_exits_2_naming_it(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "x")
        cfg["model"]["tau"] = 1
        cfg["data"] = {
            "kind": "csv",
            "path": str(ROOT / "data" / "example_series.csv"),
            "schema": {"time": "time", "phys": "site", "mising": "ffill",
                       "features": ["temperature", "humidity", "pressure"]},
        }
        assert main(["train", "--config", write_config(tmp_path, cfg)]) == 2
        assert "'mising'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_parameter_store_beyond_memory_exits_2(self, tmp_path, capsys):
        # refused from the shapes: nothing of the model is allocated
        cfg = base_config(tmp_path / "x")
        cfg["model"]["hidden"] = 1_000_000_000
        assert main(["train", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        # w_r H^2, w_x 3 H, core2 2 H 3, and 30 in core0, core1 and the bias
        assert "model:" in err and f"{10**18 + 9 * 10**9 + 30} parameters" in err
        assert not (tmp_path / "x").exists()

    def test_out_of_memory_exits_1(self, tmp_path, capsys, monkeypatch):
        from rgtn import cli

        def exhausted(*args):
            raise MemoryError("Unable to allocate 8.00 EiB")

        monkeypatch.setattr(cli, "train", exhausted)
        assert main(["train", "--config", write_config(tmp_path, base_config(tmp_path / "x"))]) == 1
        assert "out of memory: Unable to allocate" in capsys.readouterr().err

    def test_overflow_in_the_last_step_exits_1_naming_the_validation_loss(self, tmp_path,
                                                                          capsys):
        # one step of an absurd learning rate overflows the parameters while its own
        # loss is finite: only the validation loss shows it, and no checkpoint is written
        out = tmp_path / "run"
        cfg = base_config(out, epochs=1)
        cfg["training"].update(learning_rate=1e300, batch_size=10000)
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["train", "--config", write_config(tmp_path, cfg)])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: non-finite validation loss at epoch 1 (0 epochs recorded)" in err
        assert not (out / "checkpoint.rgtn").exists()

    def test_divergence_exits_1_counting_the_recorded_epochs(self, tmp_path, capsys,
                                                             monkeypatch):
        from rgtn import cli

        def diverged(model, dataset, config):
            trace = [{"epoch": e, "train_loss": 1.0, "val_loss": 1.0} for e in (1, 2)]
            raise TrainingDiverged("non-finite loss at epoch 3", trace)

        monkeypatch.setattr(cli, "train", diverged)
        out = tmp_path / "x"
        assert main(["train", "--config", write_config(tmp_path, base_config(out))]) == 1
        assert "error: non-finite loss at epoch 3 (2 epochs recorded)" in capsys.readouterr().err
        assert not (out / "checkpoint.rgtn").exists()

    def test_classification_on_csv_exits_2(self, tmp_path, capsys):
        # the model fits the csv (4 complete steps, 2 sites, 3 features): only the loss is wrong
        cfg = base_config(tmp_path / "x")
        cfg["model"]["tau"] = 1
        cfg["training"]["loss"] = "cross_entropy"
        cfg["data"] = {
            "kind": "csv",
            "path": str(ROOT / "data" / "example_series.csv"),
            "schema": {"time": "time", "phys": "site",
                       "features": ["temperature", "humidity", "pressure"]},
            "split": [0.34, 0.34, 0.32],
        }
        path = write_config(tmp_path, cfg)
        assert main(["train", "--config", path]) == 2
        assert "training.loss" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::UserWarning")
    def test_example_csv_config_trains_evaluates_and_inspects(self, tmp_path):
        cfg = yaml.safe_load((ROOT / "configs" / "example_csv.yaml").read_text())
        cfg["data"]["path"] = str(ROOT / "data" / "example_series.csv")
        path = write_config(tmp_path, cfg)
        for run in ("a", "b"):
            assert main(["train", "--config", path, "--out", str(tmp_path / run)]) == 0
        checkpoint = str(tmp_path / "a" / "checkpoint.rgtn")
        assert main(["eval", "--checkpoint", checkpoint]) == 0
        assert main(["inspect", "--checkpoint", checkpoint]) == 0
        # the same seed gives the same bits
        for name in ("checkpoint.rgtn", "trace.tsv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_relative_csv_path_is_read_from_the_config_directory(self, tmp_path, monkeypatch):
        # the shipped config names its series relative to itself; the checkpoint's
        # snapshot keeps the resolved path, so eval works from another directory too
        for name in ("train", "eval"):
            (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / "train")
        config = str(ROOT / "configs" / "example_csv.yaml")
        assert main(["train", "--config", config, "--out", str(tmp_path / "run")]) == 0
        monkeypatch.chdir(tmp_path / "eval")
        assert main(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.rgtn")]) == 0

    @pytest.mark.parametrize("field,value", [("d_phys", 3), ("d_feat", 2)])
    def test_csv_of_another_shape_exits_2(self, tmp_path, capsys, field, value):
        # the series' shape is the one the config does not decide: checked once it is read
        cfg = yaml.safe_load((ROOT / "configs" / "example_csv.yaml").read_text())
        cfg["data"]["path"] = str(ROOT / "data" / "example_series.csv")
        cfg["model"][field] = value
        cfg["model"]["out_dim"] = cfg["model"]["d_phys"] * cfg["model"]["d_feat"]
        cfg["model"]["head"]["out_modes"] = [1, cfg["model"]["d_phys"], cfg["model"]["d_feat"]]
        assert main(["train", "--config", write_config(tmp_path, cfg), "--out",
                     str(tmp_path / "x")]) == 2
        assert "data: windows have shape (1, 2, 3)" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    # and strings that name no file: one missing, and the config's own directory
    @pytest.mark.parametrize("path", [["a.csv"], 3, None, "missing.csv", "."])
    def test_csv_path_that_is_not_a_string_exits_2(self, tmp_path, capsys, path):
        cfg = yaml.safe_load((ROOT / "configs" / "example_csv.yaml").read_text())
        cfg["data"]["path"] = path
        assert main(["train", "--config", write_config(tmp_path, cfg), "--out",
                     str(tmp_path / "x")]) == 2
        assert "data.path" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("make,field,value", [
        (base_config, "training.loss", "cross_entropy"),
        (classification_config, "training.loss", "mae"),
        (classification_config, "training.loss", "mse"),
        # two classes do not fit one output
        (classification_config, "model.out_dim", 1),
    ])
    def test_loss_or_width_unfit_for_the_data_exits_2(self, tmp_path, capsys, make, field, value):
        cfg = make(tmp_path / "x")
        set_field(cfg, field, value)
        if field == "model.out_dim":
            cfg["model"]["head"]["out_modes"] = [1, 1, value]
        assert main(["train", "--config", write_config(tmp_path, cfg)]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_classifier_with_spare_outputs_trains(self, tmp_path):
        cfg = classification_config(tmp_path / "x")
        cfg["model"]["out_dim"] = 3
        cfg["model"]["head"]["out_modes"] = [1, 1, 3]
        assert main(["train", "--config", write_config(tmp_path, cfg)]) == 0
        summary = read_pairs(tmp_path / "x" / "summary.txt")
        assert summary["task"] == "classification"
        assert 0.0 <= float(summary["test_accuracy"]) <= 1.0

    @pytest.mark.parametrize("make,task", [
        (base_config, "regression"), (classification_config, "classification")
    ])
    def test_legacy_model_task_is_ignored(self, tmp_path, capsys, make, task):
        # configs and checkpoint snapshots from before the dataset decided the
        # task carry model.task: they train and evaluate as they did
        summaries, params = {}, {}
        for name in ("new", "old"):
            cfg = make(tmp_path / name)
            if name == "old":
                cfg["model"]["task"] = task
            assert main(["train", "--config", write_config(tmp_path, cfg, f"{name}.yaml")]) == 0
            summaries[name] = read_pairs(tmp_path / name / "summary.txt")
            summaries[name].pop("wall_time_s")
            params[name], meta = load_checkpoint(str(tmp_path / name / "checkpoint.rgtn"))
        assert summaries["old"] == summaries["new"]
        assert summaries["old"]["task"] == task
        assert params["old"].keys() == params["new"].keys()
        for key, value in params["new"].items():
            np.testing.assert_array_equal(params["old"][key], value)
        assert meta["config"]["model"]["task"] == task
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(tmp_path / "old" / "checkpoint.rgtn")]) == 0
        pairs = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        metric = "test_mae" if task == "regression" else "test_accuracy"
        assert pairs["task"] == task
        assert pairs[metric] == summaries["old"][metric]

    @pytest.mark.parametrize("value", [
        datetime.date(2020, 1, 2), datetime.datetime(2020, 1, 2, 3, 4, 5), {"a", "b"}, b"\x00\x01",
        {datetime.date(2020, 1, 2): 1},
    ], ids=["date", "timestamp", "set", "binary", "date_key"])
    @pytest.mark.parametrize("key", ["model.task", "data.schema.x"])
    @pytest.mark.parametrize("command", ["train", "bench"])
    def test_value_json_cannot_hold_exits_2_naming_it(self, tmp_path, capsys, command, key,
                                                      value):
        # keys no field types: the checkpoint's JSON snapshot would fail after training
        cfg = base_config(tmp_path / "x", epochs=1)
        cfg["data"]["schema"] = {}
        cfg["bench"] = {"variants": ["grgtn", "srgtn"]}
        set_field(cfg, key, value)
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key", sorted(DELETED_SETTINGS))
    def test_deleted_setting_at_its_fixed_value_loads_unchanged(self, key):
        assert DELETED_SETTINGS.keys() == FIXED.keys()
        legacy = base_config("x")
        set_field(legacy, key, DELETED_SETTINGS[key][0])
        old, new = run_config_from_dict(legacy), run_config_from_dict(base_config("x"))
        assert (old.model, old.data, old.training) == (new.model, new.data, new.training)

    @pytest.mark.parametrize("key,value", [
        (key, value) for key, (_, others) in DELETED_SETTINGS.items() for value in others
    ])
    def test_deleted_setting_at_another_value_exits_2(self, tmp_path, capsys, key, value):
        cfg = base_config(tmp_path / "x")
        set_field(cfg, key, value)
        assert main(["train", "--config", write_config(tmp_path, cfg)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("kind,code", [("tt", 0), ("dense", 0), ("none", 2)])
    def test_rnn_head_kind(self, tmp_path, capsys, kind, code):
        # the rnn's head is dense whatever the section says; bench snapshots say tt
        cfg = base_config(tmp_path / "x", epochs=1, variant="rnn")
        cfg["model"]["head"]["kind"] = kind
        assert main(["train", "--config", write_config(tmp_path, cfg)]) == code
        if code:
            assert "model.head.kind" in capsys.readouterr().err
        else:
            params, _ = load_checkpoint(str(tmp_path / "x" / "checkpoint.rgtn"))
            assert sorted(params) == ["b_h", "head.bias", "head.w", "w_h", "w_x"]

    def test_legacy_settings_train_bit_identically(self, tmp_path, capsys):
        # a config spelling out all seven deleted settings trains as one without them
        summaries, params = {}, {}
        for name in ("new", "old"):
            cfg = base_config(tmp_path / name)
            if name == "old":
                for key, (fixed, _) in DELETED_SETTINGS.items():
                    set_field(cfg, key, fixed)
            assert main(["train", "--config", write_config(tmp_path, cfg, f"{name}.yaml")]) == 0
            summaries[name] = read_pairs(tmp_path / name / "summary.txt")
            summaries[name].pop("wall_time_s")
            params[name], meta = load_checkpoint(str(tmp_path / name / "checkpoint.rgtn"))
        assert summaries["old"] == summaries["new"]
        assert params["old"].keys() == params["new"].keys()
        for key, value in params["new"].items():
            np.testing.assert_array_equal(params["old"][key], value)
        # the snapshot keeps them, and evaluates
        assert meta["config"]["training"]["clip_norm"] is None
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(tmp_path / "old" / "checkpoint.rgtn")]) == 0
        pairs = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        assert pairs["test_mae"] == summaries["old"]["test_mae"]

    # output.dir is not drawn: a relative path would be created in the working directory
    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    @given(
        field=st.sampled_from(sorted(set(field_names(base_config("x"))) - {"output.dir"})),
        value=SMALL_VALUES | st.lists(SMALL_VALUES, max_size=3),
    )
    def test_any_field_value_gives_an_exit_code(self, field, value):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = base_config(Path(tmp) / "run", epochs=1)
            set_field(cfg, field, value)
            path = write_config(Path(tmp), cfg)
            assert main(["train", "--config", path]) in (0, 1, 2)


def float_fields(cls, prefix):
    """(dotted field, list index or None) for every float a config dataclass reads."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        hint, path = hints[f.name], f"{prefix}.{f.name}"
        if isinstance(hint, types.UnionType):
            (hint,) = set(typing.get_args(hint)) - {type(None)}
        if dataclasses.is_dataclass(hint):
            yield from float_fields(hint, path)
        elif hint is float:
            yield path, None
        elif typing.get_origin(hint) is tuple:
            yield from ((path, i) for i, item in enumerate(typing.get_args(hint)) if item is float)


FLOAT_FIELDS = [
    *float_fields(ModelConfig, "model"),
    *float_fields(TrainConfig, "training"),
    *float_fields(DataConfig, "data"),
    # deleted settings, which a config may still set to their fixed value
    *((key, None) for key in ("training.beta1", "training.beta2", "training.clip_norm",
                              "training.eps")),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=[".nan", ".inf", "-.inf"])
@pytest.mark.parametrize(
    "field,index", FLOAT_FIELDS, ids=[f if i is None else f"{f}[{i}]" for f, i in FLOAT_FIELDS]
)
def test_non_finite_float_exits_2_naming_the_field(tmp_path, capsys, field, index, value):
    assert {"training.learning_rate", "data.noise", "data.split"} <= {f for f, _ in FLOAT_FIELDS}
    cfg = base_config(tmp_path / "x", epochs=1)
    if index is not None:
        entries = {"data.split": [0.7, 0.15, 0.15]}[field]
        entries[index] = value
        value = entries
    set_field(cfg, field, value)
    assert main(["train", "--config", write_config(tmp_path, cfg)]) == 2
    assert field in capsys.readouterr().err


def test_int_beyond_float_range_exits_2(tmp_path, capsys):
    cfg = base_config(tmp_path / "x", epochs=1)
    cfg["training"]["learning_rate"] = 10**400
    assert main(["train", "--config", write_config(tmp_path, cfg)]) == 2
    assert "training.learning_rate" in capsys.readouterr().err


@pytest.mark.parametrize("command,with_config", [("train", True), ("bench", True)])
def test_negative_seed_flag_exits_2_naming_the_field(tmp_path, capsys, command, with_config):
    cfg = base_config(tmp_path / "x")
    cfg["bench"] = {"variants": ["grgtn", "srgtn"]}
    path = write_config(tmp_path, cfg)
    source = ["--config", path] if with_config else []
    assert main([command, *source, "--seed", "-1"]) == 2
    assert "training.seed" in capsys.readouterr().err


def test_eval_has_no_seed_flag(tmp_path, capsys):
    # evaluation reads no training seed, so the flag would change nothing
    checkpoint = str(tmp_path / "model.rgtn")
    save_checkpoint(checkpoint, {"w_x": np.zeros((8, 3))},
                    {"kind": "model", "config": base_config(tmp_path / "x")})
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--checkpoint", checkpoint, "--seed", "5"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


class TestEvalCommand:
    def test_matches_train_metric_exactly(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, base_config(out))
        main(["train", "--config", cfg])
        summary = read_pairs(out / "summary.txt")
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(out / "checkpoint.rgtn")]) == 0
        eval_out = capsys.readouterr().out
        pairs = dict(
            line.split(": ", 1) for line in eval_out.strip().splitlines()
        )
        assert pairs["test_mae"] == summary["test_mae"]

    def test_metrics_file_round_trips(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, base_config(out))
        main(["train", "--config", cfg])
        eval_dir = tmp_path / "evalout"
        assert main([
            "eval", "--checkpoint", str(out / "checkpoint.rgtn"), "--out", str(eval_dir)
        ]) == 0
        pairs = read_pairs(eval_dir / "eval.txt")
        assert float(pairs["test_mae"]) > 0
        assert int(pairs["parameter_count"]) > 0

    def test_shape_mismatch_exits_1(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, base_config(out))
        main(["train", "--config", cfg])
        other = base_config(tmp_path / "other")
        other["model"]["hidden"] = 5
        other_cfg = write_config(tmp_path, other, "other.yaml")
        code = main([
            "eval", "--checkpoint", str(out / "checkpoint.rgtn"), "--config", other_cfg
        ])
        assert code == 1
        assert "shape" in capsys.readouterr().err

    def test_config_of_another_variant_exits_1(self, tmp_path, capsys):
        out = tmp_path / "run"
        main(["train", "--config", write_config(tmp_path, base_config(out))])
        srgtn = write_config(tmp_path, base_config(tmp_path / "s", variant="srgtn"), "s.yaml")
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(out / "checkpoint.rgtn"), "--config", srgtn])
        assert code == 1
        assert "w_r" in capsys.readouterr().err

    @pytest.mark.parametrize("name,value", [("w_x", np.nan), ("head.core1", -np.inf)])
    def test_non_finite_parameter_exits_1_naming_it(self, tmp_path, capsys, name, value):
        out = tmp_path / "run"
        main(["train", "--config", write_config(tmp_path, base_config(out))])
        arrays, meta = load_checkpoint(str(out / "checkpoint.rgtn"))
        arrays[name].flat[0] = value
        save_checkpoint(str(out / "checkpoint.rgtn"), arrays, meta)  # with a valid digest
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(out / "checkpoint.rgtn"),
                     "--out", str(tmp_path / "eval")])
        captured = capsys.readouterr()
        assert code == 1 and f"params {name}:" in captured.err
        assert captured.out == "" and not (tmp_path / "eval").exists()

    def test_snapshot_beyond_memory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        main(["train", "--config", write_config(tmp_path, base_config(out))])
        arrays, meta = load_checkpoint(str(out / "checkpoint.rgtn"))
        meta["config"]["model"]["hidden"] = 1_000_000_000
        save_checkpoint(str(out / "checkpoint.rgtn"), arrays, meta)
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(out / "checkpoint.rgtn"),
                     "--out", str(tmp_path / "eval")])
        captured = capsys.readouterr()
        assert code == 2 and "model:" in captured.err and "parameters" in captured.err
        assert not (tmp_path / "eval").exists()

    def test_model_checkpoint_without_a_config_snapshot_exits_1(self, tmp_path, capsys):
        out = tmp_path / "run"
        main(["train", "--config", write_config(tmp_path, base_config(out))])
        arrays, meta = load_checkpoint(str(out / "checkpoint.rgtn"))
        del meta["config"]
        save_checkpoint(str(out / "checkpoint.rgtn"), arrays, meta)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(out / "checkpoint.rgtn")]) == 1
        assert "model checkpoint has no config snapshot" in capsys.readouterr().err

    def test_rejects_non_model_checkpoint(self, tmp_path, capsys):
        path = tmp_path / "t.rgtn"
        save_tensor(str(path), np.ones((2, 2)))
        assert main(["eval", "--checkpoint", str(path)]) == 1


class TestBenchCommand:
    def test_parameter_delta_and_table(self, tmp_path, capsys):
        out = tmp_path / "bench"
        cfg = base_config(out, epochs=2)
        cfg["model"]["hidden"] = 8
        cfg["bench"] = {"variants": ["grgtn", "srgtn", "rnn"]}
        path = write_config(tmp_path, cfg)
        assert main(["bench", "--config", path]) == 0
        table = (out / "bench.txt").read_text().splitlines()
        assert table[0].split() == ["variant", "test_mae", "parameters", "wall_time_s"]
        rows = {line.split()[0]: line.split() for line in table[1:]}
        grgtn_params = int(rows["grgtn"][2])
        srgtn_params = int(rows["srgtn"][2])
        rnn_params = int(rows["rnn"][2])
        assert grgtn_params - srgtn_params == 64
        assert rnn_params > srgtn_params

    def test_classification_table_reports_accuracy(self, tmp_path):
        out = tmp_path / "bench"
        cfg = classification_config(out, epochs=1)
        cfg["bench"] = {"variants": ["grgtn", "srgtn", "rnn"]}
        assert main(["bench", "--config", write_config(tmp_path, cfg)]) == 0
        table = (out / "bench.txt").read_text().splitlines()
        assert table[0].split() == ["variant", "test_accuracy", "parameters", "wall_time_s"]
        assert [line.split()[0] for line in table[1:]] == ["grgtn", "srgtn", "rnn"]
        assert all(0.0 <= float(line.split()[1]) <= 1.0 for line in table[1:])
        for variant in ("grgtn", "srgtn", "rnn"):
            assert (out / f"trace_{variant}.tsv").exists()
            assert (out / f"checkpoint_{variant}.rgtn").exists()

    def test_every_checkpoint_evaluates(self, tmp_path, capsys):
        # each snapshot keeps the shared model section, whose tt head the rnn
        # ignores, and the deleted settings an older config spells out
        out = tmp_path / "bench"
        cfg = base_config(out, epochs=2)
        for key, (fixed, _) in DELETED_SETTINGS.items():
            set_field(cfg, key, fixed)
        cfg["bench"] = {"variants": ["grgtn", "srgtn", "rnn"]}
        assert main(["bench", "--config", write_config(tmp_path, cfg)]) == 0
        table = (out / "bench.txt").read_text().splitlines()
        rows = {line.split()[0]: line.split() for line in table[1:]}
        for variant in ("grgtn", "srgtn", "rnn"):
            capsys.readouterr()
            assert main(["eval", "--checkpoint", str(out / f"checkpoint_{variant}.rgtn")]) == 0
            pairs = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
            assert pairs["variant"] == variant
            assert f"{float(pairs['test_mae']):.6g}" == rows[variant][1]
            assert pairs["parameter_count"] == rows[variant][2]

    def test_rnn_model_section_benches_graph_variants(self, tmp_path, capsys):
        # the graph variants read the section's tt head, which must give out_modes
        cfg = base_config(tmp_path / "x", epochs=1, variant="rnn")
        cfg["bench"] = {"variants": ["rnn", "grgtn"]}
        assert main(["bench", "--config", write_config(tmp_path, cfg)]) == 0
        del cfg["model"]["head"]["out_modes"]
        assert main(["bench", "--config", write_config(tmp_path, cfg)]) == 2
        assert "model.head.out_modes" in capsys.readouterr().err

    def test_model_error_exits_2_before_the_run_directory(self, tmp_path, capsys):
        # grgtn's head is checked before the rnn trains and writes its files
        cfg = base_config(tmp_path / "x", epochs=1, variant="rnn")
        del cfg["model"]["head"]["out_modes"]
        cfg["bench"] = {"variants": ["rnn", "grgtn"]}
        assert main(["bench", "--config", write_config(tmp_path, cfg)]) == 2
        assert "model.head.out_modes" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_single_variant_rejected(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "x")
        cfg["bench"] = {"variants": ["grgtn"]}
        path = write_config(tmp_path, cfg)
        assert main(["bench", "--config", path]) == 2
        assert "bench.variants" in capsys.readouterr().err

    def test_config_without_bench_section_rejected(self, tmp_path):
        cfg = write_config(tmp_path, base_config(tmp_path / "x"))
        assert main(["bench", "--config", cfg]) == 2


class TestDecomposeCommand:
    def test_rank_one_tensor_report(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        x = np.einsum("i,j,k->ijk", *[rng.standard_normal(4) for _ in range(3)])
        tensor_path = str(tmp_path / "x.rgtn")
        save_tensor(tensor_path, x)
        out = tmp_path / "dec"
        assert main([
            "decompose", "--tensor", tensor_path, "--tol", "1e-10", "--out", str(out)
        ]) == 0
        pairs = read_pairs(out / "decompose.txt")
        assert pairs["ranks"] == "1,1,1,1"
        assert float(pairs["reconstruction_error"]) <= 1e-12
        np.testing.assert_allclose(float(pairs["compression_ratio"]), 64 / 12, atol=1e-12)
        assert (out / "cores.rgtn").exists()

    def test_full_rank_request(self, tmp_path):
        rng = np.random.default_rng(1)
        tensor_path = str(tmp_path / "x.rgtn")
        save_tensor(tensor_path, rng.standard_normal((3, 4, 2)))
        out = tmp_path / "dec"
        assert main([
            "decompose", "--tensor", tensor_path, "--max-ranks", "12", "--out", str(out)
        ]) == 0
        pairs = read_pairs(out / "decompose.txt")
        assert float(pairs["reconstruction_error"]) <= 1e-10

    def test_loose_tolerance_respected(self, tmp_path):
        rng = np.random.default_rng(2)
        tensor_path = str(tmp_path / "x.rgtn")
        save_tensor(tensor_path, rng.standard_normal((4, 4, 4)))
        out = tmp_path / "dec"
        assert main([
            "decompose", "--tensor", tensor_path, "--tol", "0.5", "--out", str(out)
        ]) == 0
        pairs = read_pairs(out / "decompose.txt")
        assert float(pairs["reconstruction_error"]) <= 0.5

    def test_bad_file_exits_1(self, tmp_path):
        path = tmp_path / "junk.rgtn"
        path.write_bytes(b"garbage")
        assert main(["decompose", "--tensor", str(path), "--tol", "0.1"]) == 1

    @pytest.mark.parametrize("flag,value,shape", [
        *(pytest.param(flag, value, (2, 3, 2), id=f"{flag}-{value}") for flag, value in [
            ("--max-ranks", "a"),
            ("--max-ranks", "2,2,2"),
            ("--max-ranks", "-3"),
            ("--max-ranks", "0"),
            ("--max-ranks", ""),
            ("--tol", "-1"),
            ("--tol", "nan"),
        ]),
        # an order-1 tensor has no interior rank, so only a single cap fits it
        pytest.param("--max-ranks", "1,1", (5,), id="--max-ranks-1,1-order-1"),
    ])
    def test_bad_flag_exits_2_naming_it(self, tmp_path, capsys, flag, value, shape):
        tensor_path = str(tmp_path / "x.rgtn")
        save_tensor(tensor_path, np.ones(shape))
        out = tmp_path / "dec"
        assert main(["decompose", "--tensor", tensor_path, flag, value, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert flag in err
        # no count of caps is offered that no --max-ranks value can have
        assert "0 rank caps" not in err and "-1 rank caps" not in err
        assert not out.exists()

    def test_empty_mode_exits_1_naming_the_shape(self, tmp_path, capsys):
        tensor_path = str(tmp_path / "x.rgtn")
        save_tensor(tensor_path, np.zeros((0, 3)))
        out = tmp_path / "dec"
        assert main(["decompose", "--tensor", tensor_path, "--tol", "0.1", "--out", str(out)]) == 1
        assert "(0, 3)" in capsys.readouterr().err
        assert not out.exists()

    def test_no_criteria_exits_2(self, tmp_path):
        tensor_path = str(tmp_path / "x.rgtn")
        save_tensor(tensor_path, np.ones((2, 2)))
        assert main(["decompose", "--tensor", tensor_path]) == 2


DECOMPOSE_TENSORS = {
    "order 3": np.random.default_rng(0).standard_normal((3, 4, 2)),
    "order 1": np.arange(1.0, 6.0),
    "order 0": np.array(2.0),
    "empty mode": np.zeros((2, 0)),
    "all zero": np.zeros((2, 3, 2)),
    "nan entry": np.array([[1.0, np.nan], [2.0, 3.0]]),
}

# spaces, signs, Unicode decimal digits (Arabic-Indic three, fullwidth one), a
# superscript, a cap too long for int() and caps far above any rank
RANK_CAPS = st.sampled_from(["", " ", "0", "-1", "+2", "1", "2", " 2", "3 ", "2.0", "x",
                             "\u0663", "\uff11", "\u00b2", "9" * 30, "9" * 5000])
TOLERANCES = st.sampled_from(["nan", "-nan", "inf", "-inf", "1e400", "-1", "-0.0", "0",
                              "1e-12", "0.5", "1e308"])


@pytest.fixture(scope="module")
def tensor_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tensors")
    paths = {}
    for name, array in DECOMPOSE_TENSORS.items():
        paths[name] = str(tmp / f"{name.replace(' ', '_')}.rgtn")
        save_tensor(paths[name], array)
    return paths


class TestAnyDecomposeFlags:
    """Drawn --max-ranks and --tol values, on small tensors of every awkward kind."""

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(
        tensor=st.sampled_from(sorted(DECOMPOSE_TENSORS)),
        # none, one or too many caps for the tensor's order
        max_ranks=st.none() | st.lists(RANK_CAPS, min_size=1, max_size=5).map(",".join),
        tol=st.none() | TOLERANCES,
    )
    # an order-0 file was refused for its cap count with two caps, and by tt_svd,
    # without naming the file, with one
    @example(tensor="order 0", max_ranks="1,1", tol=None)
    @example(tensor="order 0", max_ranks="1", tol=None)
    @example(tensor="empty mode", max_ranks="1,1", tol="0.5")
    def test_any_flags_give_an_exit_code(self, tensor_files, tensor, max_ranks, tol):
        argv = ["decompose", "--tensor", tensor_files[tensor]]
        # the = form passes a value that starts with a minus sign as a value
        if max_ranks is not None:
            argv.append(f"--max-ranks={max_ranks}")
        if tol is not None:
            argv.append(f"--tol={tol}")
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "dec"
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = main([*argv, "--out", str(out)])
            assert code in (0, 1, 2)
            # a refused decomposition writes nothing
            assert out.exists() == (code == 0)
        # a tensor with no mode to decompose is the file's fault, whatever the flags
        if tensor in ("order 0", "empty mode"):
            assert code == 1 and tensor_files[tensor] in err.getvalue()


class TestInspectCommand:
    def test_srgtn_checkpoint_lists_no_w_r(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, base_config(out, variant="srgtn"))
        main(["train", "--config", cfg])
        capsys.readouterr()
        assert main(["inspect", "--checkpoint", str(out / "checkpoint.rgtn")]) == 0
        text = capsys.readouterr().out
        assert "w_r" not in text
        assert "head_tt_ranks: (1, 2, 2, 1)" in text

    def test_grgtn_reports_idempotency_residual(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, base_config(out, variant="grgtn"))
        main(["train", "--config", cfg])
        capsys.readouterr()
        main(["inspect", "--checkpoint", str(out / "checkpoint.rgtn")])
        text = capsys.readouterr().out
        assert "w_r_idempotency_residual:" in text

    def test_total_matches_summary(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, base_config(out))
        main(["train", "--config", cfg])
        summary = read_pairs(out / "summary.txt")
        capsys.readouterr()
        main(["inspect", "--checkpoint", str(out / "checkpoint.rgtn")])
        text = capsys.readouterr().out
        assert f"total_parameters: {summary['parameter_count']}" in text

    def test_decomposed_cores_file_lists_every_core(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        tensor_path = str(tmp_path / "x.rgtn")
        save_tensor(tensor_path, rng.standard_normal((3, 4, 2, 3)))
        out = tmp_path / "dec"
        assert main(["decompose", "--tensor", tensor_path, "--tol", "0.5", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["inspect", "--checkpoint", str(out / "cores.rgtn")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "kind: tt" in lines
        params = [line.split(":")[0] for line in lines if line.startswith("param ")]
        assert params == [f"param core{k}" for k in range(4)]

    def test_non_finite_w_r_reports_its_residual_as_nan(self, tmp_path, capsys):
        path = str(tmp_path / "nan.rgtn")
        save_checkpoint(path, {"w_r": np.array([[1.0, np.nan], [np.inf, 0.0]])}, {"kind": "model"})
        assert main(["inspect", "--checkpoint", path]) == 0
        assert "w_r_idempotency_residual: nan" in capsys.readouterr().out

    def test_corrupted_file_exits_1(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, base_config(out))
        main(["train", "--config", cfg])
        path = out / "checkpoint.rgtn"
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert main(["inspect", "--checkpoint", str(path)]) == 1
        assert "digest" in capsys.readouterr().err

    @pytest.mark.parametrize("meta,arrays,field", [
        ({"kind": "model", "config": [1, 2]}, {"w_x": np.ones((2, 2))}, "meta.config"),
        ({"kind": "model", "config": {"model": "rnn"}}, {"w_x": np.ones((2, 2))}, "meta.config"),
        ({"kind": "model"}, {"head.core0": np.ones((1, 2, 1, 2)),
                             "head.core2": np.ones((2, 2, 1, 1))}, "head.core1"),
        ({"kind": "model"}, {"head.core0": np.ones(3)}, "head.core0"),
        ({"kind": "model"}, {"w_r": np.ones(3)}, "params w_r"),
        ({"kind": "model"}, {"w_r": np.ones((2, 3))}, "params w_r"),
    ])
    def test_malformed_model_checkpoint_exits_1(self, tmp_path, capsys, meta, arrays, field):
        path = str(tmp_path / "bad.rgtn")
        save_checkpoint(path, arrays, meta)
        assert main(["inspect", "--checkpoint", path]) == 1
        captured = capsys.readouterr()
        assert field in captured.err and captured.out == ""


def leaf_paths(node, path=()):
    """The key or index path of every leaf of a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)) and value:
            yield from leaf_paths(value, (*path, key))
        else:
            yield (*path, key)


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    """A one-epoch grgtn checkpoint's arrays and meta."""
    tmp = tmp_path_factory.mktemp("trained")
    assert main(["train", "--config", write_config(tmp, base_config(tmp / "run", epochs=1))]) == 0
    return load_checkpoint(str(tmp / "run" / "checkpoint.rgtn"))


DELETED = object()


class TestAnyMeta:
    """A checkpoint whose meta has one leaf changed or deleted, through eval and inspect."""

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(data=st.data())
    def test_any_meta_leaf_gives_an_exit_code(self, trained_checkpoint, data):
        arrays, meta = trained_checkpoint
        # load_checkpoint adds format_version from the file's own header
        meta = {name: value for name, value in meta.items() if name != "format_version"}
        *parents, key = data.draw(st.sampled_from(sorted(leaf_paths(meta), key=repr)))
        value = data.draw(SMALL_VALUES | st.lists(SMALL_VALUES, max_size=3) | st.just(DELETED))
        mutant = copy.deepcopy(meta)
        node = mutant
        for parent in parents:
            node = node[parent]
        if value is DELETED:
            del node[key]
        else:
            node[key] = value
        with tempfile.TemporaryDirectory() as tmp:
            path, out = str(Path(tmp) / "mutant.rgtn"), Path(tmp) / "eval"
            save_checkpoint(path, arrays, mutant)
            code = main(["eval", "--checkpoint", path, "--out", str(out)])
            assert code in (0, 1, 2)
            # a refused checkpoint writes nothing
            assert out.exists() == (code == 0)
            assert main(["inspect", "--checkpoint", path]) in (0, 1, 2)


@pytest.fixture(scope="module")
def trained_layout(tmp_path_factory, trained_checkpoint):
    """The trained checkpoint's header and payload, as ``save_checkpoint`` lays them out."""
    path = tmp_path_factory.mktemp("layout") / "checkpoint.rgtn"
    save_checkpoint(str(path), *trained_checkpoint)
    blob = path.read_bytes()
    # magic, version and the header's length take the first 20 bytes
    (length,) = struct.unpack_from("<Q", blob, 12)
    return json.loads(blob[20 : 20 + length]), blob[20 + length :]


PAYLOAD_MUTATIONS = ("non-finite entry", "swap shapes", "swap shapes and counts",
                     "overlap offsets", "drop a core")


class TestAnyPayload:
    """A checkpoint whose payload or params entries are changed under a valid digest."""

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(data=st.data())
    def test_any_payload_mutation_gives_an_exit_code(self, trained_layout, data):
        header, payload = trained_layout
        entries, payload = copy.deepcopy(header["params"]), bytearray(payload)
        kind = data.draw(st.sampled_from(PAYLOAD_MUTATIONS))
        pair = st.lists(st.integers(0, len(entries) - 1), min_size=2, max_size=2, unique=True)
        if kind == "non-finite entry":
            entry = data.draw(st.sampled_from(entries))
            at = entry["offset"] + data.draw(st.integers(0, entry["count"] - 1))
            value = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
            struct.pack_into("<d", payload, 8 * at, value)
        elif kind.startswith("swap"):
            i, j = data.draw(pair)
            for key in ("shape", "count") if kind.endswith("counts") else ("shape",):
                entries[i][key], entries[j][key] = entries[j][key], entries[i][key]
        elif kind == "overlap offsets":
            i, j = data.draw(pair)
            entries[i]["offset"] = entries[j]["offset"] + data.draw(
                st.integers(0, entries[j]["count"] - 1))
        else:
            cores = [e for e in entries if e["name"].startswith("head.core")]
            entries.remove(data.draw(st.sampled_from(cores)))
        blob = raw_checkpoint(payload_header(entries, bytes(payload), header["meta"]),
                              bytes(payload))
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "mutant.rgtn", Path(tmp) / "eval"
            path.write_bytes(blob)
            code = main(["eval", "--checkpoint", str(path), "--out", str(out)])
            # entries that alias part of the payload do not tile it, and are refused
            codes = (1,) if kind == "overlap offsets" else (0, 1, 2)
            assert code in codes
            # a refused checkpoint writes nothing
            assert out.exists() == (code == 0)
            assert main(["inspect", "--checkpoint", str(path)]) in codes

    @pytest.mark.parametrize("command", ["eval", "inspect"])
    def test_aliased_entries_exit_1_naming_the_file(self, trained_layout, tmp_path, capsys,
                                                    command):
        header, payload = trained_layout
        entries = copy.deepcopy(header["params"])
        assert [e["name"] for e in entries[:2]] == ["w_x", "w_r"]
        # w_r reads w_x's values under a valid digest
        entries[1]["offset"] = entries[0]["offset"]
        path = tmp_path / "aliased.rgtn"
        path.write_bytes(raw_checkpoint(payload_header(entries, payload, header["meta"]),
                                        payload))
        assert main([command, "--checkpoint", str(path)]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "'w_r' starts at value 0" in err
