"""Run configuration: one YAML file fully determines a run.

Sections: ``model`` (variant and layer sizes), ``data`` (csv path and
schema, or a synthetic generator), ``training`` (optimizer and schedule),
``output`` (directory), and optionally ``bench`` (variant list for
side-by-side comparisons).  Validation errors carry the dotted field path.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any

import yaml

from .data import (
    WindowedDataset,
    load_csv,
    normalize,
    synth_classification,
    synth_linear_dynamics,
    window,
)
from .models import HeadConfig, ModelConfig
from .training import TrainConfig

__all__ = [
    "ConfigError",
    "RunConfig",
    "load_run_config",
    "run_config_from_dict",
    "build_dataset",
    "model_for_variant",
]


class ConfigError(ValueError):
    """Invalid run configuration; message names the offending field."""


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig
    data: dict
    training: TrainConfig
    output_dir: str
    bench_variants: tuple[str, ...] | None
    raw: dict


def _section(raw: dict, name: str) -> dict:
    value = raw.get(name)
    if not isinstance(value, dict):
        raise ConfigError(f"{name}: section missing or not a mapping")
    return value


def _get(section: dict, path: str, key: str, kind, default=None, required=False):
    if key not in section:
        if required:
            raise ConfigError(f"{path}.{key}: required field missing")
        return default
    value = section[key]
    # YAML's true/false load as bool, a subclass of int: no field takes one
    is_bool = isinstance(value, bool)
    if kind is float and isinstance(value, int) and not is_bool:
        value = float(value)
    if kind is not None and (is_bool or not isinstance(value, kind)):
        raise ConfigError(
            f"{path}.{key}: expected {getattr(kind, '__name__', kind)}, got {value!r}"
        )
    return value


def _model_config(raw: dict) -> ModelConfig:
    section = _section(raw, "model")
    head_raw = section.get("head", {})
    if not isinstance(head_raw, dict):
        raise ConfigError("model.head: must be a mapping")
    kind = _get(head_raw, "model.head", "kind", str, default="tt")
    ranks = head_raw.get("ranks", [2, 2])
    out_modes = head_raw.get("out_modes")
    try:
        head = HeadConfig(
            kind=kind,
            ranks=tuple(ranks),
            out_modes=tuple(out_modes) if out_modes is not None else None,
            bias=bool(head_raw.get("bias", True)),
        )
        return ModelConfig(
            variant=_get(section, "model", "variant", str, default="grgtn"),
            tau=_get(section, "model", "tau", int, required=True),
            d_phys=_get(section, "model", "d_phys", int, required=True),
            d_feat=_get(section, "model", "d_feat", int, required=True),
            hidden=_get(section, "model", "hidden", int, required=True),
            out_dim=_get(section, "model", "out_dim", int, required=True),
            task=_get(section, "model", "task", str, default="regression"),
            c=_get(section, "model", "c", float, default=0.5),
            activation=_get(section, "model", "activation", str, default="tanh"),
            head=head,
        )
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from None


def _train_config(raw: dict, seed_override: int | None) -> TrainConfig:
    section = _section(raw, "training")
    seed = _get(section, "training", "seed", int, default=0)
    if seed_override is not None:
        seed = seed_override
    clip = section.get("clip_norm")
    try:
        return TrainConfig(
            epochs=_get(section, "training", "epochs", int, required=True),
            learning_rate=_get(section, "training", "learning_rate", float, default=1e-3),
            beta1=_get(section, "training", "beta1", float, default=0.9),
            beta2=_get(section, "training", "beta2", float, default=0.999),
            eps=_get(section, "training", "eps", float, default=1e-8),
            batch_size=_get(section, "training", "batch_size", int, default=32),
            seed=seed,
            loss=_get(section, "training", "loss", str, default="mae"),
            clip_norm=float(clip) if clip is not None else None,
        )
    except ValueError as exc:
        raise ConfigError(f"training: {exc}") from None


def load_run_config(path: str, seed_override: int | None = None) -> RunConfig:
    """Read a YAML config file and validate it."""
    if not os.path.exists(path):
        raise ConfigError(f"config file {path!r} does not exist")
    with open(path) as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path!r}: {exc}") from None
    return run_config_from_dict(raw, seed_override)


def run_config_from_dict(raw, seed_override: int | None = None) -> RunConfig:
    """Validate a parsed config document, such as a checkpoint's snapshot."""
    if not isinstance(raw, dict):
        raise ConfigError("top level of the config must be a mapping")
    model = _model_config(raw)
    data = _section(raw, "data")
    kind = _get(data, "data", "kind", str, required=True)
    if kind not in ("csv", "synthetic_regression", "synthetic_classification"):
        raise ConfigError(f"data.kind: unknown kind {kind!r}")
    if kind == "csv":
        csv_path = _get(data, "data", "path", str, required=True)
        if not os.path.exists(csv_path):
            raise ConfigError(f"data.path: file {csv_path!r} does not exist")
        if not isinstance(data.get("schema"), dict):
            raise ConfigError("data.schema: required mapping missing")
    norm = data.get("normalize", "zscore")
    if norm not in ("zscore", "minmax", "none"):
        raise ConfigError(f"data.normalize: unknown method {norm!r}")
    training = _train_config(raw, seed_override)
    output = raw.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("output: must be a mapping")
    output_dir = output.get("dir", "runs/latest")
    bench_variants = None
    if "bench" in raw:
        bench = _section(raw, "bench")
        variants = bench.get("variants")
        if not isinstance(variants, list) or len(variants) < 2:
            raise ConfigError("bench.variants: need a list of at least two variants")
        for v in variants:
            if v not in ("grgtn", "srgtn", "rnn"):
                raise ConfigError(f"bench.variants: unknown variant {v!r}")
        if len(set(variants)) != len(variants):
            raise ConfigError("bench.variants: variants must be distinct")
        bench_variants = tuple(variants)
    if model.task == "classification" and kind == "synthetic_regression":
        raise ConfigError("model.task: classification needs classification data")
    if model.task == "regression" and kind == "synthetic_classification":
        raise ConfigError("model.task: regression needs regression data")
    return RunConfig(
        model=model,
        data=dict(data),
        training=training,
        output_dir=output_dir,
        bench_variants=bench_variants,
        raw=raw,
    )


def model_for_variant(run: RunConfig, variant: str) -> ModelConfig:
    """The run's model with only the variant (and head family) swapped."""
    m = run.model
    if variant == m.variant:
        return m
    head = m.head if variant != "rnn" else HeadConfig(kind="dense", bias=m.head.bias)
    if m.variant == "rnn" and variant != "rnn":
        raise ConfigError(
            "bench: the shared model section must describe the tt head "
            "(rnn derives its dense equivalent)"
        )
    return ModelConfig(
        variant=variant,
        tau=m.tau,
        d_phys=m.d_phys,
        d_feat=m.d_feat,
        hidden=m.hidden,
        out_dim=m.out_dim,
        task=m.task,
        c=m.c,
        activation=m.activation,
        head=head,
    )


def build_dataset(run: RunConfig) -> WindowedDataset:
    """Materialize the dataset a config describes; deterministic in its seeds."""
    data = run.data
    model = run.model
    kind = data["kind"]
    split = tuple(data.get("split", (0.7, 0.15, 0.15)))
    data_seed = int(data.get("seed", 0))
    if kind == "synthetic_classification":
        ds = synth_classification(
            tau=model.tau,
            d_phys=model.d_phys,
            d_feat=model.d_feat,
            n_samples=int(data.get("n_samples", 2000)),
            noise=float(data.get("noise", 0.05)),
            seed=data_seed,
            split=split,
        )
    else:
        if kind == "synthetic_regression":
            table = synth_linear_dynamics(
                tau=model.tau,
                d_phys=model.d_phys,
                d_feat=model.d_feat,
                n_steps=int(data.get("n_steps", 2000)),
                noise=float(data.get("noise", 0.1)),
                seed=data_seed,
                spectral_radius=float(data.get("spectral_radius", 0.85)),
            )
        else:
            table = load_csv(data["path"], data["schema"])
        ds = window(
            table,
            tau=model.tau,
            horizon=int(data.get("horizon", 1)),
            task=model.task,
            split=split,
            seed=data_seed,
        )
    if ds.window_shape != (model.tau, model.d_phys, model.d_feat):
        raise ConfigError(
            f"data: windows have shape {ds.window_shape} but the model expects "
            f"(tau, d_phys, d_feat) = {(model.tau, model.d_phys, model.d_feat)}"
        )
    if model.task == "regression" and ds.targets.shape[1] != model.out_dim:
        raise ConfigError(
            f"model.out_dim: targets have dimension {ds.targets.shape[1]}, "
            f"model emits {model.out_dim}"
        )
    for split_name in ("train", "val", "test"):
        if len(getattr(ds.splits, split_name)) == 0:
            raise ConfigError(
                f"data.split: the {split_name} split is empty; the series is too short"
            )
    method = data.get("normalize", "zscore")
    if method != "none":
        ds = normalize(ds, method=method)
    return ds
