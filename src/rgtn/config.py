"""Run configuration: one YAML file fully determines a run.

The dataclasses are the schema: one reader builds each section from the
dataclass that consumes it, taking keys, types and defaults from its fields.
``model`` and ``model.head`` belong to ``models.ModelConfig`` and
``models.HeadConfig``, ``training`` to ``training.TrainConfig`` and ``data``
to ``DataConfig`` (consumed by ``build_dataset``); ``output.dir`` and the
optional ``bench.variants`` are read here.  Each value is checked once: its
type on reading (a float must also be finite), its range in
``__post_init__``.  Errors name the dotted field, and a key that no field
reads is an error naming its dotted path.
``data.kind`` decides the task, so the checks between sections live in
``build_dataset``.  It makes those the config alone decides,
``training.loss`` and ``model.out_dim``, before it draws any data; a CSV
series' shape is checked once it is read, and each split's size by the
one data call that makes the dataset.
A deleted setting keeps the one value ``FIXED`` gives it: a config or
checkpoint snapshot may still set it to that value, and any other value
is an error naming the key.  ``model.task``, which ``data.kind`` now
decides, may still be set to any JSON value and is not read.
Every value in the document must be one JSON can hold, since a checkpoint
stores the config as JSON: a YAML date, timestamp, set or binary is an
error naming its dotted key, wherever it sits.
"""

from __future__ import annotations

import math
import os
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from functools import cache
from types import UnionType
from typing import Any, get_args, get_origin, get_type_hints

import yaml

from .data import (
    WindowedDataset,
    load_csv,
    synth_classification,
    synth_linear_dynamics,
    window,
)
from .models import VARIANTS, ModelConfig, param_count
from .training import BETA1, BETA2, EPS, LOSS_TASKS, TrainConfig

__all__ = [
    "ConfigError",
    "DataConfig",
    "RunConfig",
    "load_run_config",
    "run_config_from_dict",
    "build_dataset",
    "model_for_variant",
]

# Deleted settings at the one value each now has.  The head follows the variant
# (an rnn also takes "dense"; ``rgtn bench`` snapshots share the tt section).
FIXED = {
    "model.head.kind": "tt", "model.head.bias": True, "data.normalize": "zscore",
    "training.clip_norm": None, "training.beta1": BETA1, "training.beta2": BETA2,
    "training.eps": EPS,
}

# Keys no field reads that a config may still carry: older checkpoint snapshots
# and the benchmark's workloads set them
LEGACY_KEYS = {*FIXED, "model.task"}


class ConfigError(ValueError):
    """Invalid run configuration; message names the offending field."""


@dataclass(frozen=True)
class DataConfig:
    """The ``data`` section: a csv file and its schema, or a generator."""

    kind: str
    path: str | None = None
    schema: dict | None = None
    seed: int = 0
    split: tuple[float, float, float] = (0.7, 0.15, 0.15)
    horizon: int = 1
    n_steps: int = 2000
    n_samples: int = 2000
    # None takes the generator's default: 0.05 for classification, else 0.1
    noise: float | None = None
    spectral_radius: float = 0.85

    def __post_init__(self) -> None:
        if self.kind not in ("csv", "synthetic_regression", "synthetic_classification"):
            raise ConfigError(f"data.kind: unknown kind {self.kind!r}")
        if self.kind == "csv" and (self.path is None or not os.path.isfile(self.path)):
            raise ConfigError(f"data.path: csv data needs an existing file, got {self.path!r}")
        if self.kind == "csv" and self.schema is None:
            raise ConfigError("data.schema: required mapping missing")
        if any(f < 0 for f in self.split) or sum(self.split) > 1 + 1e-9:
            raise ConfigError(
                f"data.split: fractions must be >= 0 and sum to at most 1, got {self.split}"
            )
        if self.noise is None:
            default = 0.05 if self.kind == "synthetic_classification" else 0.1
            object.__setattr__(self, "noise", default)
        for name, low in (("seed", 0), ("horizon", 1), ("n_steps", 1), ("n_samples", 1),
                          ("noise", 0), ("spectral_radius", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"data.{name}: must be >= {low}")


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig
    data: DataConfig
    training: TrainConfig
    output_dir: str
    bench_variants: tuple[str, ...] | None
    raw: dict


@cache
def _fields(cls) -> tuple[tuple[str, Any, bool], ...]:
    """(name, type, required) for each field of the dataclass ``cls``."""
    hints = get_type_hints(cls)
    return tuple(
        (f.name, hints[f.name], f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls)
    )


@cache
def _unpack(hint) -> tuple[bool, Any, tuple | None]:
    """Whether ``hint`` admits None, its other type, and a tuple's item types."""
    nullable = get_origin(hint) is UnionType and type(None) in get_args(hint)
    if nullable:
        (hint,) = (arg for arg in get_args(hint) if arg is not type(None))
    return nullable, hint, get_args(hint) if get_origin(hint) is tuple else None


def _check(value, hint, path: str):
    """``value`` as the type ``hint`` names; a YAML list becomes a tuple."""
    nullable, hint, items = _unpack(hint)
    if value is None and nullable:
        return None
    if items is not None:
        if not isinstance(value, list) or len(value) != len(items):
            raise ConfigError(f"{path}: expected a list of {len(items)}, got {value!r}")
        return tuple(
            _check(v, item, f"{path}[{i}]") for i, (v, item) in enumerate(zip(value, items))
        )
    if hint is float and type(value) in (int, float):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        # every range check is a comparison, and NaN passes them all
        if not math.isfinite(number):
            raise ConfigError(f"{path}: must be a finite number, got {value!r}")
        return number
    # YAML's true/false load as bool, a subclass of int, and no field takes one
    if isinstance(value, hint) and not isinstance(value, bool):
        return value
    if is_dataclass(hint):
        if isinstance(value, dict):
            return _read(hint, value, path)
        raise ConfigError(f"{path}: must be a mapping")
    raise ConfigError(f"{path}: expected {hint.__name__}, got {value!r}")


def _check_json(value, path: str) -> None:
    """Refuse a value or mapping key that JSON cannot hold, naming its dotted path."""
    if isinstance(value, dict):
        for key, item in value.items():
            dotted = f"{path}.{key}" if path else str(key)
            if not isinstance(key, str):
                raise ConfigError(f"{dotted}: a key must be a string, got {key!r}")
            _check_json(item, dotted)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _check_json(item, f"{path}[{i}]")
    elif not isinstance(value, (str, int, float, type(None))):
        raise ConfigError(f"{path}: expected a string, number, boolean, null, list or "
                          f"mapping, got {value!r}")


def _known(section: dict, keys, path: str) -> None:
    """Reject a key of the mapping at ``path`` that is not in ``keys``."""
    for key in section:
        dotted = f"{path}.{key}" if path else str(key)
        if key not in keys and dotted not in LEGACY_KEYS:
            raise ConfigError(f"{dotted}: unknown key")


def _read(cls, section: dict, path: str):
    """Build the dataclass ``cls`` from a YAML mapping; an unknown key is an error."""
    _known(section, {name for name, _, _ in _fields(cls)}, path)
    kwargs = {}
    for name, hint, required in _fields(cls):
        if name in section:
            kwargs[name] = _check(section[name], hint, f"{path}.{name}")
        elif required:
            raise ConfigError(f"{path}.{name}: required field missing")
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        # a dataclass range error starts with the field it names
        raise ConfigError(f"{path}.{exc}") from None


def _check_size(model: ModelConfig) -> None:
    """Refuse, before any allocation, a model whose parameter store exceeds memory.

    ``training.ParamStore`` keeps values, gradients and two Adam moments.
    """
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return  # no sysconf on this platform: nothing to compare against
    count = param_count(model)[1]
    if 4 * 8 * count > memory:
        raise ConfigError(f"model: {model.variant} has {count} parameters, whose store needs "
                          f"{4 * 8 * count} bytes, more than the {memory} bytes of memory")


def load_run_config(path: str, seed_override: int | None = None) -> RunConfig:
    """Read a YAML config file and validate it.

    A relative ``data.path`` is read from the config file's directory, not the
    working directory, and the snapshot a checkpoint keeps holds it resolved.
    """
    # libyaml's parser, where PyYAML was built with it, reads the same mapping
    # several times faster; libyaml is an optional part of a PyYAML build
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path!r}: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    data = raw.get("data") if isinstance(raw, dict) else None
    # any other value of data.path is left for validation to refuse
    if isinstance(data, dict) and isinstance(data.get("path"), str):
        resolved = os.path.join(os.path.dirname(os.path.abspath(path)), data["path"])
        raw = {**raw, "data": {**data, "path": resolved}}
    return run_config_from_dict(raw, seed_override)


def run_config_from_dict(raw, seed_override: int | None = None) -> RunConfig:
    """Validate a parsed config document, such as a checkpoint's snapshot."""
    if not isinstance(raw, dict):
        raise ConfigError("top level of the config must be a mapping")
    # the checkpoint stores the document as JSON, after the whole run has trained
    _check_json(raw, "")
    _known(raw, {"model", "data", "training", "output", "bench"}, "")
    model = raw.get("model")
    # variant leads ModelConfig's positional fields, so the class cannot default it
    model = {"variant": "grgtn", **model} if isinstance(model, dict) else model
    model = _check(model, ModelConfig, "model")
    _check_size(model)
    for key, fixed in FIXED.items():
        section, (*path, name) = raw, key.split(".")
        for part in path:
            section = section.get(part) if isinstance(section, dict) else None
        value = section.get(name, fixed) if isinstance(section, dict) else fixed
        rnn_kind = key == "model.head.kind" and model.variant == "rnn"
        allowed = (fixed, "dense") if rnn_kind else (fixed,)
        if not any(type(value) is type(a) and value == a for a in allowed):  # YAML's 1 is not true
            accepted = " or ".join(map(repr, allowed))
            raise ConfigError(f"{key}: deleted setting, it may only be {accepted}; got {value!r}")
    data = _check(raw.get("data"), DataConfig, "data")
    training = raw.get("training")
    if seed_override is not None and isinstance(training, dict):
        training = {**training, "seed": seed_override}
    training = _check(training, TrainConfig, "training")
    output = raw.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("output: must be a mapping")
    _known(output, {"dir"}, "output")
    output_dir = _check(output.get("dir", "runs/latest"), str, "output.dir")
    if not output_dir:
        raise ConfigError("output.dir: must name a directory, got ''")
    bench_variants = None
    if "bench" in raw:
        bench = raw["bench"] if isinstance(raw["bench"], dict) else {}
        _known(bench, {"variants"}, "bench")
        variants = bench.get("variants")
        if not isinstance(variants, list) or len(variants) < 2:
            raise ConfigError("bench.variants: need a list of at least two variants")
        for v in variants:
            if v not in VARIANTS:
                raise ConfigError(f"bench.variants: unknown variant {v!r}")
        if len(set(variants)) != len(variants):
            raise ConfigError("bench.variants: variants must be distinct")
        bench_variants = tuple(variants)
    return RunConfig(
        model=model,
        data=data,
        training=training,
        output_dir=output_dir,
        bench_variants=bench_variants,
        raw=raw,
    )


def model_for_variant(run: RunConfig, variant: str) -> ModelConfig:
    """The run's model with only the variant swapped; the head follows the variant."""
    try:
        model = replace(run.model, variant=variant)
    except ValueError as exc:
        raise ConfigError(f"model.{exc}") from None
    _check_size(model)
    return model


def build_dataset(run: RunConfig) -> WindowedDataset:
    """The dataset a config describes, split and z-scored; deterministic in its seeds.

    What the config alone decides is checked first, before any series, file
    or window exists: the loss against the task ``data.kind`` implies, and
    ``model.out_dim`` against the targets.  A synthetic series or window has
    the model's shape by construction, so only a CSV series' shape is
    checked, once it is read.  One data call makes each dataset:
    ``synth_classification``, or ``window`` on the series from
    ``synth_linear_dynamics`` or ``load_csv``.  Each splits its windows and
    refuses an empty split before it takes statistics or draws a window;
    ``window`` then z-scores the series before it windows it, and its
    windows are a read-only view of that one series.
    """
    data, model, loss = run.data, run.model, run.training.loss
    task = "classification" if data.kind == "synthetic_classification" else "regression"
    if LOSS_TASKS[loss] != task:
        raise ConfigError(f"training.loss: {loss} does not suit {task} data")
    if task == "classification":
        # the generator draws labels 0 and 1
        if model.out_dim < 2:
            raise ConfigError(f"model.out_dim: labels need 2 classes, model emits {model.out_dim}")
        try:
            return synth_classification(model.tau, model.d_phys, model.d_feat, data.n_samples,
                                        data.noise, data.seed, data.split)
        except ValueError as exc:
            raise ConfigError(f"data.split: {exc}") from None
    if model.d_phys * model.d_feat != model.out_dim:
        raise ConfigError(f"model.out_dim: targets have dimension {model.d_phys * model.d_feat}, "
                          f"model emits {model.out_dim}")
    if data.kind == "synthetic_regression":
        series = synth_linear_dynamics(model.d_phys, model.d_feat, data.n_steps, data.noise,
                                       data.seed, data.spectral_radius)
    else:
        series = load_csv(data.path, data.schema)
        if series.shape[1:] != (model.d_phys, model.d_feat):
            raise ConfigError(
                f"data: windows have shape {(model.tau, *series.shape[1:])} but the model "
                f"expects (tau, d_phys, d_feat) = {(model.tau, model.d_phys, model.d_feat)}"
            )
    try:
        # an empty split is the one ValueError window raises
        return window(series, model.tau, data.horizon, data.split)
    except ValueError as exc:
        raise ConfigError(f"data.split: {exc}") from None
