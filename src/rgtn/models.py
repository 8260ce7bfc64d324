"""Trainable sequence models: the two graph-filter variants and the RNN.

A model reads a batch of order-3 windows (batch, tau, physical, feature)
and emits one output vector per window through an output head that
follows the variant; every head adds a bias.

grgtn / srgtn: the input projection maps the feature mode to the hidden
mode, the time graph couples the window, and a three-core tensor-train
head (``model.head``) contracts the filtered (tau, physical, hidden) block
down to the outputs.  The general variant adds the trainable propagation
matrix W_r; with otherwise identical configuration the two differ by
exactly hidden^2 parameters.

rnn: the matched baseline flattens physical x feature per step, runs the
recurrence h_t = act(W_x x_t + W_h h_{t-1} + b_h), and applies the dense
equivalent of the head to the full hidden-state block.

Flattened vectors put the first mode fastest: a (tau, physical, hidden)
block flattens with the time index varying fastest, as a checkpoint
payload does.

Each variant is one body op of ``autodiff`` (``graph_tt`` for grgtn and
srgtn, ``recurrence`` for the rnn), whose docstring describes the ops,
their kernels and their blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import prod
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import autodiff as ad
from .graph import build_time_adjacency

__all__ = [
    "HeadConfig",
    "ModelConfig",
    "param_count",
    "init_params",
    "forward",
    "predict",
    "VARIANTS",
]

VARIANTS = ("grgtn", "srgtn", "rnn")


@dataclass(frozen=True)
class HeadConfig:
    """The graph variants' tensor-train head; the rnn ignores it."""

    ranks: tuple[int, int] = (2, 2)
    out_modes: tuple[int, int, int] | None = None

    def __post_init__(self) -> None:
        for name in ("ranks", "out_modes"):
            if min(getattr(self, name) or (1,)) < 1:
                raise ValueError(f"{name}: must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class ModelConfig:
    variant: str
    tau: int
    d_phys: int
    d_feat: int
    hidden: int
    out_dim: int
    c: float = 0.5
    activation: str = "tanh"
    head: HeadConfig = field(default_factory=HeadConfig)

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant: must be one of {VARIANTS}, got {self.variant!r}")
        for name in ("tau", "d_phys", "d_feat", "hidden", "out_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: must be >= 1, got {getattr(self, name)}")
        if self.activation not in ad._ACTIVATIONS:
            raise ValueError(f"activation: unknown activation {self.activation!r}")
        if self.variant != "rnn":
            if not 0.0 < self.c < 1.0:
                raise ValueError(f"c: must lie strictly between 0 and 1, got {self.c}")
            modes = self.head.out_modes
            if modes is None:
                raise ValueError("head.out_modes: a tt head needs out_modes (no auto-factoring)")
            if len(modes) != 3:
                raise ValueError("head.out_modes: must pair with (tau, physical, hidden)")
            if prod(modes) != self.out_dim:
                raise ValueError(
                    f"head.out_modes: {modes} do not multiply to out_dim {self.out_dim}"
                )

    @property
    def feature_block(self) -> tuple[int, ...]:
        """Shape of the per-window feature tensor entering the head."""
        if self.variant == "rnn":
            return (self.tau, self.hidden)
        return (self.tau, self.d_phys, self.hidden)


@lru_cache(maxsize=64)
def param_shapes(config: ModelConfig) -> Mapping[str, tuple[int, ...]]:
    """Ordered trainable parameter shapes for a configuration, read-only.

    Cached per configuration, so ``forward`` and ``predict`` check their
    parameters without building the table again; every caller gets the
    same mapping, which none can change.
    """
    shapes: dict[str, tuple[int, ...]] = {}
    if config.variant == "rnn":
        shapes["w_x"] = (config.hidden, config.d_phys * config.d_feat)
        shapes["w_h"] = (config.hidden, config.hidden)
        shapes["b_h"] = (config.hidden,)
        shapes["head.w"] = (config.out_dim, prod(config.feature_block))
    else:
        shapes["w_x"] = (config.hidden, config.d_feat)
        if config.variant == "grgtn":
            shapes["w_r"] = (config.hidden, config.hidden)
        full = (1,) + config.head.ranks + (1,)
        for k, (i, o) in enumerate(zip(config.feature_block, config.head.out_modes)):
            shapes[f"head.core{k}"] = (full[k], i, o, full[k + 1])
    shapes["head.bias"] = (config.out_dim,)
    return MappingProxyType(shapes)


def param_count(config: ModelConfig) -> tuple[dict[str, int], int]:
    """Per-parameter and total trainable scalar counts."""
    counts = {name: prod(shape) for name, shape in param_shapes(config).items()}
    return counts, sum(counts.values())


def init_params(config: ModelConfig, seed: int) -> dict[str, np.ndarray]:
    """Scaled-uniform initialization, biases at zero; deterministic in seed."""
    rng = np.random.default_rng(seed)
    values: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        if name.endswith("bias") or name == "b_h":
            values[name] = np.zeros(shape)
            continue
        fan_in = prod(shape[1:]) if len(shape) > 1 else shape[0]
        if name.startswith("head.core"):
            fan_in = shape[0] * shape[1]
        s = fan_in ** -0.5
        values[name] = rng.uniform(-s, s, size=shape)
    return values


def _checked_input(config: ModelConfig, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, float)
    if x.ndim != 4 or x.shape[1:] != (config.tau, config.d_phys, config.d_feat):
        raise ValueError(
            f"input must be (batch, {config.tau}, {config.d_phys}, {config.d_feat}), "
            f"got {x.shape}"
        )
    return x


def _check_param_shapes(
    config: ModelConfig, params: Mapping[str, ad.TapeNode | np.ndarray]
) -> None:
    expected = param_shapes(config)
    if params.keys() != expected.keys():
        raise ValueError(
            f"{config.variant} takes parameters {sorted(expected)}, got {sorted(params)}"
        )
    for name, shape in expected.items():
        if params[name].shape != shape:
            raise ValueError(
                f"parameter {name!r} has shape {params[name].shape}, expected {shape}"
            )


def _body(config: ModelConfig, graph, rnn, x: np.ndarray, p: Mapping):
    """The variant's body op, ``graph`` or ``rnn``, on the windows and parameters ``p``."""
    if config.variant == "rnn":
        return rnn(x, p["w_x"], p["w_h"], p["b_h"], p["head.w"], p["head.bias"],
                   config.activation)
    return graph(x, build_time_adjacency(config.tau, config.c), p["w_x"], p.get("w_r"),
                 [p[f"head.core{k}"] for k in range(3)], p["head.bias"], config.activation)


def forward(
    config: ModelConfig,
    values: Mapping[str, ad.TapeNode | np.ndarray],
    x: np.ndarray,
) -> ad.TapeNode:
    """Batched forward pass returning (batch, out_dim) predictions or logits.

    The windows and the parameters are checked against ``config``, then run
    through the variant's one body op, which ends in the head's bias.
    """
    x = _checked_input(config, x)
    nodes = {name: v if isinstance(v, ad.TapeNode) else ad.constant(v)
             for name, v in values.items()}
    _check_param_shapes(config, nodes)
    return _body(config, ad.graph_tt, ad.recurrence, x, nodes)


def predict(
    config: ModelConfig,
    values: Mapping[str, np.ndarray],
    x: np.ndarray,
) -> np.ndarray:
    """``forward(...).array``, computed by the body op's forward kernel alone.

    The kernel is the one the tape op calls, on the same arrays, so the
    result is the same bits; it builds no node and keeps nothing for a
    backward, so only the (batch, out_dim) output is batch-sized.
    """
    x = _checked_input(config, x)
    params = {name: np.asarray(v, float) for name, v in values.items()}
    _check_param_shapes(config, params)
    return _body(config, ad.graph_tt_kernel, ad.recurrence_kernel, x, params)
