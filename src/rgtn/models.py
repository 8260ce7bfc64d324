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

Each stage is one tape op: ``linear`` (projection), a data ``matmul``
(time mix), ``filter_weight`` (grgtn's [W_x | W_r W_x]), ``recurrence``
(the rnn's steps and their flatten), ``tt_head`` or ``linear`` (head), then
``add_bias``.  The window x and the time adjacency A are plain arrays, so
neither is a tape node and no gradient is computed for them.

* time mix, on the input: A acts on time and W_x on features, so
  ``A (x W_x^T) = (A x) W_x^T``, one GEMM on x as (batch, tau, phys * feat);
* projection: one ``linear`` node, whose GEMM writes the hidden block once
  and whose activation runs in place, one cache-sized row block at a time:
  ``act((x + A x) W_x^T)`` for srgtn, ``act([x | A x] [W_x | W_r W_x]^T)``
  for grgtn, data joined at the narrow feature width, not summed after two
  hidden-width GEMMs.  A weight as short as K = F or 2F enters as a
  C-contiguous copy of its transpose: OpenBLAS is slower on a ``.T`` view
  with so short an inner dimension;
* TT head: the time mode first, as a left product of core 0 on h viewed as
  (batch, tau, physical * hidden); then (rank, physical) with core 1 and
  (rank, hidden) with core 2.  Contracting the mode that shrinks the block
  most first (Novikov et al. 2015, arXiv:1509.06569) means h itself is
  never copied and cores 1 and 2 see a block tau / (o0 r1) times smaller.
  Contracting the hidden mode first would copy h into a transposed layout.

The rnn projects the inputs of all steps in one ``linear`` on a time-major
copy of x and runs the recurrence as one ``autodiff.recurrence`` node, so
its tape does not grow with tau; that node emits the dense head's rows.
``predict`` is ``forward`` of each block of whole windows under
``autodiff.no_tape``, written into one output: it equals
``forward(...).array`` exactly for any batch of at most one block, and
its memory is bounded by the block, not by the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Mapping

import numpy as np

from . import autodiff as ad
from .graph import build_time_adjacency

__all__ = [
    "HeadConfig",
    "ModelConfig",
    "param_shapes",
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


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Ordered trainable parameter shapes for a configuration."""
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
    return shapes


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


def _as_nodes(values: Mapping[str, ad.TapeNode | np.ndarray]) -> dict[str, ad.TapeNode]:
    return {
        name: v if isinstance(v, ad.TapeNode) else ad.constant(np.asarray(v, float))
        for name, v in values.items()
    }


def _join_features(x: np.ndarray, ax: np.ndarray) -> np.ndarray:
    """``concatenate((x, ax), -1)``, copying F-float rows as single items (2x faster)."""
    row = np.dtype((np.void, x.shape[-1] * x.itemsize))
    out = np.empty(x.shape[:-1] + (2 * x.shape[-1],))
    halves = out.view(row)
    halves[..., :1], halves[..., 1:] = np.ascontiguousarray(x).view(row), ax.view(row)
    return out


def _check_param_shapes(config: ModelConfig, nodes: Mapping[str, ad.TapeNode]) -> None:
    expected = param_shapes(config)
    if nodes.keys() != expected.keys():
        raise ValueError(
            f"{config.variant} takes parameters {sorted(expected)}, got {sorted(nodes)}"
        )
    for name, shape in expected.items():
        if nodes[name].shape != shape:
            raise ValueError(
                f"parameter {name!r} has shape {nodes[name].shape}, expected {shape}"
            )


def _hidden(config: ModelConfig, nodes: Mapping[str, ad.TapeNode], x: np.ndarray) -> ad.TapeNode:
    """The head's input: (batch, tau, physical, hidden), or the rnn's (batch, hidden * tau) rows."""
    batch, tau, phys, feat = x.shape  # sizes, not -1: numpy cannot infer one for 0 windows
    if config.variant == "rnn":
        # time-major, physical index fastest within a step; one GEMM for all steps
        flat = x.transpose(1, 0, 3, 2).reshape(tau, batch, phys * feat)
        u = ad.linear(flat, nodes["w_x"])
        return ad.recurrence(u, nodes["w_h"], nodes["b_h"], config.activation)
    a_asc = build_time_adjacency(config.tau, config.c)
    ax = ad.matmul(a_asc, x.reshape(batch, tau, phys * feat)).array.reshape(x.shape)  # off the tape
    if config.variant == "grgtn":
        w = ad.filter_weight(nodes["w_r"], nodes["w_x"])
        x = _join_features(x, ax)
    else:
        x, w = x + ax, nodes["w_x"]
    del ax  # freed before the GEMM writes the hidden block
    return ad.linear(x, w, config.activation)


def _checked(
    config: ModelConfig, values: Mapping[str, ad.TapeNode | np.ndarray], x: np.ndarray
) -> tuple[dict[str, ad.TapeNode], np.ndarray]:
    """The window batch as float64 and the parameters as nodes, each checked against config."""
    x = np.asarray(x, float)
    if x.ndim != 4 or x.shape[1:] != (config.tau, config.d_phys, config.d_feat):
        raise ValueError(
            f"input must be (batch, {config.tau}, {config.d_phys}, {config.d_feat}), "
            f"got {x.shape}"
        )
    nodes = _as_nodes(values)
    _check_param_shapes(config, nodes)
    return nodes, x


def _body(config: ModelConfig, nodes: Mapping[str, ad.TapeNode], x: np.ndarray) -> ad.TapeNode:
    """The (batch, out_dim) output node of checked windows: hidden block, head, bias."""
    h = _hidden(config, nodes, x)
    if config.variant == "rnn":
        out = ad.linear(h, nodes["head.w"])
    else:
        out = ad.tt_head(h, [nodes[f"head.core{k}"] for k in range(3)])
    return ad.add_bias(out, nodes["head.bias"])


def forward(
    config: ModelConfig,
    values: Mapping[str, ad.TapeNode | np.ndarray],
    x: np.ndarray,
) -> ad.TapeNode:
    """Batched forward pass returning (batch, out_dim) predictions or logits."""
    return _body(config, *_checked(config, values, x))


# Bytes of the head's input per ``predict`` block, which holds as many whole
# windows of ``prod(feature_block)`` float64s as fit.  Swept at 1, 2, 4, 8 and
# 16 MiB and at one block per batch, for each variant at predict-stream's
# shape (1024 windows) and wide-train's (256), on one OpenBLAS thread (process
# CPU, best of 7): 1-4 MiB tie within noise (grgtn 38-47 and 51-53 ms); 8 MiB
# is up to 35% slower (rnn) and 16 MiB up to 40%; one block per batch is
# 50-85% slower (grgtn, srgtn) and takes 15x the memory of 4 MiB blocks.
# From 2 MiB up, wide-train's 8-window predicts and small-train's whole test
# split are one block each.
WINDOW_BLOCK_BYTES = 16 * ad._BLOCK_BYTES


def predict(
    config: ModelConfig,
    values: Mapping[str, np.ndarray],
    x: np.ndarray,
) -> np.ndarray:
    """``forward(...).array`` of each block of windows in turn, computed without a tape.

    A block is as many whole windows as fill ``WINDOW_BLOCK_BYTES`` of the
    head's input, so memory is bounded by the block and not by the batch.
    A batch of one block is returned as its block's array, with no output
    buffer alive under the block's peak.
    """
    nodes, x = _checked(config, values, x)
    step = max(1, WINDOW_BLOCK_BYTES // (8 * prod(config.feature_block)))
    with ad.no_tape():
        if len(x) <= step:
            return _body(config, nodes, x).array
        out = np.empty((len(x), config.out_dim))
        for lo in range(0, len(x), step):
            out[lo : lo + step] = _body(config, nodes, x[lo : lo + step]).array
    return out
