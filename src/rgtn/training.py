"""Parameter store, Adam optimizer, and the training/evaluation loops.

Training is deterministic given the configuration seed: initialization and
batch shuffling derive independent child seeds from it, and every update
is a plain single-threaded numpy computation.

Parameters, gradients and Adam moments live in four flat buffers.  A
forward uses every parameter it is given, so each step writes every
gradient and ``adam_step`` is one in-place update of every entry.
``ParamStore.values()`` returns views that the next ``adam_step`` updates
in place: to keep them, copy.

A step runs its batch through the tape in chunks of whole kernel blocks:
the rnn's chunk is one ``recurrence`` block, grgtn's and srgtn's as many
``graph_tt`` blocks as fit in ``_CHUNK_BYTES`` of hidden block.  The
parameter leaves are made once a step; each chunk runs its forward, its
loss (a mean over the whole batch's rows) and its backward, whose leaves
add the chunk's gradients to the sum of the chunks before, and its tape
is dropped before the next chunk's forward.  So only one chunk's hidden
block is alive at a time, and the gradient is the batch's, up to the
order of the sum.

``train`` looks its loss op up on ``autodiff`` by name (``mae_loss`` for
``loss: mae``) when it runs, so a wrapper or patch put on the module before
the call is the op it runs.  Both losses it records are checked: a
non-finite step loss or validation loss raises ``TrainingDiverged`` before
the epoch is recorded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import autodiff as ad
from .data import WindowedDataset, inverse_transform_predictions
from .models import ModelConfig, forward, init_params, param_count, predict

__all__ = [
    "ParamStore",
    "TrainConfig",
    "TrainingDiverged",
    "adam_step",
    "train",
    "evaluate",
]

# the task each loss serves; ``config.build_dataset`` checks it against the data
LOSS_TASKS = {"mae": "regression", "mse": "regression", "cross_entropy": "classification"}

# Adam's decay rates and denominator guard (Kingma & Ba 2015), fixed for every run
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

# Hidden-block bytes of the windows a grgtn or srgtn training step runs
# through the tape at once: as many whole ``graph_tt`` blocks as fit (at
# least one), 4 blocks at every benchmark workload's shape.  Against 2 MiB
# chunks of feature block, over 8 alternated 30 s benchmark pairs on one
# OpenBLAS thread: peak_mem_mb fell 4.067 -> 2.357 MB on wide-train and
# 3.961 -> 2.277 MB on predict-stream (8 of 8 pairs each), and
# train_samples_per_s fell 2.8% and 3.2% (medians, no pair won), the price
# of twice the chunks a step.
_CHUNK_BYTES = 1 << 20


class ParamStore:
    """Named parameters over four flat float64 buffers, one slice per name.

    ``flat`` holds the values, ``grads`` the gradients and ``m``/``v`` the
    Adam moments.  ``views`` and ``grad_views`` map each name to its slice
    of ``flat`` and ``grads``, shaped like the parameter.
    """

    def __init__(self, values: Mapping[str, np.ndarray]) -> None:
        arrays = {name: np.asarray(arr, dtype=float) for name, arr in values.items()}
        ends = np.cumsum([0] + [arr.size for arr in arrays.values()])
        self.flat, self.grads, self.m, self.v = (np.zeros(ends[-1]) for _ in range(4))
        self.views: dict[str, np.ndarray] = {}
        self.grad_views: dict[str, np.ndarray] = {}
        for (name, arr), i, j in zip(arrays.items(), ends, ends[1:]):
            self.flat[i:j] = arr.ravel()
            self.views[name] = self.flat[i:j].reshape(arr.shape)
            self.grad_views[name] = self.grads[i:j].reshape(arr.shape)
        self.step = 0

    def values(self) -> dict[str, np.ndarray]:
        return dict(self.views)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    learning_rate: float = 1e-3
    batch_size: int = 32
    seed: int = 0
    loss: str = "mae"

    def __post_init__(self) -> None:
        for name, low in (("epochs", 0), ("seed", 0), ("learning_rate", 0), ("batch_size", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name}: must be >= {low}, got {getattr(self, name)}")
        if self.loss not in LOSS_TASKS:
            raise ValueError(f"loss: must be one of {tuple(LOSS_TASKS)}, got {self.loss!r}")


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries the trace recorded so far."""

    def __init__(self, message: str, trace: list[dict]) -> None:
        super().__init__(message)
        self.trace = trace


def adam_step(store: ParamStore, config: TrainConfig) -> None:
    """In-place bias-corrected Adam over every entry of the flat buffers."""
    g = store.grads
    if not np.isfinite(g).all():
        bad = next(n for n, gv in store.grad_views.items() if not np.isfinite(gv).all())
        raise FloatingPointError(f"non-finite gradient for parameter {bad!r}")
    store.step += 1
    t = store.step
    store.m *= BETA1
    store.m += (1.0 - BETA1) * g
    store.v *= BETA2
    store.v += (1.0 - BETA2) * g**2
    m_hat = store.m / (1.0 - BETA1**t)
    v_hat = store.v / (1.0 - BETA2**t)
    store.flat -= config.learning_rate * m_hat / (np.sqrt(v_hat) + EPS)


def _chunk_windows(model: ModelConfig) -> int:
    """Windows in a training chunk: whole blocks of the kernel ``forward`` walks.

    The rnn's chunk is one ``recurrence`` block; grgtn's and srgtn's is as
    many ``graph_tt`` blocks as ``_CHUNK_BYTES`` of hidden block hold, at
    least one.
    """
    tau, phys, hidden = model.tau, model.d_phys, model.hidden
    if model.variant == "rnn":
        return ad._recurrence_block(tau, phys * model.d_feat, hidden)
    block = ad._graph_block(tau, phys, hidden)
    return block * max(1, _CHUNK_BYTES // (8 * tau * phys * hidden * block))


def train(
    model: ModelConfig, dataset: WindowedDataset, config: TrainConfig
) -> tuple[ParamStore, list[dict]]:
    """Fit the model on the train split, tracking train/validation loss.

    Both splits are non-empty, as every dataset ``config.build_dataset``
    makes has them.  Each batch runs through the tape in chunks of
    ``_chunk_windows(model)`` whole windows, gathered one chunk at a time.
    Every chunk's loss is its rows' share of the batch mean, so the chunks'
    losses and their gradients, which the step's parameter leaves sum as
    ``backward`` sums a leaf reached twice, add up to the batch's; the sum
    is copied into the store and one ``adam_step`` runs.  A batch of one
    chunk takes the unchunked path's bits.  Each epoch's validation loss is
    that of one ``predict`` on the split's slice.
    """
    seeds = np.random.SeedSequence(config.seed).generate_state(2)
    store = ParamStore(init_params(model, int(seeds[0])))
    shuffle_rng = np.random.default_rng(int(seeds[1]))
    n_train, val = len(dataset.splits.train), dataset.splits.val
    chunk = _chunk_windows(model)
    loss_op = getattr(ad, f"{config.loss}_loss")
    trace: list[dict] = []
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(n_train)  # the train split is range(n_train)
        loss_sum = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            nodes = {name: ad.constant(value) for name, value in store.views.items()}
            value = 0.0
            for lo in range(0, len(batch), chunk):
                part = batch[lo : lo + chunk]
                loss = loss_op(forward(model, nodes, dataset.inputs[part]), dataset.targets[part],
                               rows=len(batch))
                value += float(loss.array)
                if not np.isfinite(value):
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch}", trace
                    )
                ad.backward(loss)
                # drop this chunk's tape now, not when the next forward returns
                del loss
            for name, node in nodes.items():
                store.grad_views[name][...] = node.grad
            # the leaves' gradients go before Adam makes its temporaries
            del nodes
            adam_step(store, config)
            loss_sum += value * len(batch)
        x, y = dataset.subset(val)
        val_loss = float(loss_op(ad.constant(predict(model, store.views, x)), y).array)
        if not np.isfinite(val_loss):
            raise TrainingDiverged(f"non-finite validation loss at epoch {epoch}", trace)
        trace.append({"epoch": epoch, "train_loss": loss_sum / len(order), "val_loss": val_loss})
    return store, trace


def evaluate(
    model: ModelConfig,
    values: Mapping[str, np.ndarray],
    dataset: WindowedDataset,
) -> dict:
    """Single-pass metrics on the test split; parameters are not touched.

    The test split is one ``predict`` on its slice of the windows, which
    walks it in the kernel's blocks; every metric is taken once over the
    whole split.  ``wall_time_s`` covers the ``predict`` and the metrics.

    Finite parameters can still overflow: a non-finite prediction, or a
    regression MAE that the inverse transform overflows, raises
    FloatingPointError.
    """
    started = time.perf_counter()
    x, targets = dataset.subset(dataset.splits.test)
    preds = predict(model, values, x)
    if not np.isfinite(preds).all():
        raise FloatingPointError("test predictions hold a NaN or infinity")
    metrics: dict = {
        "task": dataset.task,
        "n_samples": len(x),
        "parameter_count": param_count(model)[1],
    }
    if dataset.task == "regression":
        errors = inverse_transform_predictions(dataset, preds)
        errors -= inverse_transform_predictions(dataset, targets)
        metrics["mae"] = float(np.abs(errors, out=errors).mean())
        if not np.isfinite(metrics["mae"]):
            raise FloatingPointError(f"test MAE is {metrics['mae']!r}: the predictions "
                                     f"overflow in the data's units")
    else:
        labels = preds.argmax(axis=1)
        metrics["accuracy"] = float((labels == targets).mean())
    metrics["wall_time_s"] = time.perf_counter() - started
    return metrics
