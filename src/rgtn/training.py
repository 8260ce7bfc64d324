"""Parameter store, Adam optimizer, and the training/evaluation loops.

Training is deterministic given the configuration seed: initialization and
batch shuffling derive independent child seeds from it, and every update
is a plain single-threaded numpy computation.

Parameters, gradients and Adam moments live in four flat buffers.  A
forward uses every parameter it is given, so each step writes every
gradient and ``adam_step`` is one in-place update of every entry.
``ParamStore.values()`` returns views that the next ``adam_step`` updates
in place: to keep them, copy.

A step runs its batch through the tape in chunks of whole windows, sized by
``_CHUNK_BYTES`` over one window's feature block.  The parameter leaves are
made once a step; each chunk runs its forward, its loss (a mean over the
whole batch's rows) and its backward, whose leaves add the chunk's
gradients to the sum of the chunks before, and its tape is dropped before
the next chunk's forward.  So only one chunk's hidden block is alive at a
time, and the gradient is the batch's, up to the order of the sum.

Each epoch's validation pass and ``evaluate``'s test pass walk their split
in chunks of the same size, rounded down to whole blocks of the body op's
kernel, each read through ``dataset.subset``: a time-ordered split is
sliced and any other gathered one chunk at a time, so neither pass holds a
copy of its whole split.  The chunks' predictions fill one array, and the
loss or the metrics are taken once over it, with the bits of one
``predict`` on the whole split.

``train`` looks its loss op up on ``autodiff`` by name (``mae_loss`` for
``loss: mae``) when it runs, so a wrapper or patch put on the module before
the call is the op it runs.  Both losses it records are checked: a
non-finite step loss or validation loss raises ``TrainingDiverged`` before
the epoch is recorded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from math import prod
from typing import Callable, Mapping

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

# Feature-block bytes of the windows a training step runs through the tape
# at once (at least one window); a validation or test pass predicts at most
# as many at once, in whole kernel blocks.  Timed as one epoch of grgtn in
# process on one OpenBLAS thread (process CPU, alternated rounds), against
# one chunk a batch of 64: at predict-stream's 64 KiB windows 2 MiB chunks
# took 2.5% longer and 1 MiB chunks 7% (medians of 101), and in the
# benchmark's alternated runs 2 MiB chunks left its training flat; at
# wide-train's 256 KiB windows 2 MiB chunks (8 of 8 windows) took 6% less
# and 1 MiB chunks 2% more (medians of 7).
_CHUNK_BYTES = 1 << 21


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
    """Whole windows a chunk: as many as ``_CHUNK_BYTES`` of feature block hold, at least one."""
    return max(1, _CHUNK_BYTES // (8 * prod(model.feature_block)))


def _walk_windows(model: ModelConfig) -> int:
    """Whole windows a chunk of a validation or test walk.

    ``_chunk_windows`` rounded down to whole blocks of the body op's kernel
    (at least one block), so that the walk's chunks split the windows where
    ``predict`` on the whole split splits its blocks.  Where the chunk is
    not already a multiple of the block (at synth_classification's shape it
    is 455 windows to a block of 56), a window's prediction would otherwise
    round differently as its chunk ended within a block.
    """
    if model.variant == "rnn":
        block = ad._recurrence_block(model.tau, model.d_phys * model.d_feat, model.hidden)
    else:
        block = ad._graph_block(model.tau, model.d_phys, model.hidden)
    return max(block, _chunk_windows(model) // block * block)


def _predict_split(
    model: ModelConfig,
    values: Mapping[str, np.ndarray],
    dataset: WindowedDataset,
    indices: np.ndarray,
    transform: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The predictions and targets of the windows at ``indices``, one chunk at a time.

    Each chunk of ``_walk_windows(model)`` windows comes from
    ``dataset.subset``, so a time-ordered split is read as slices and any
    other is gathered a chunk at a time, never whole.  The chunks'
    predictions fill one ``(n, out_dim)`` array and their targets, through
    ``transform`` if one is given, one array like ``dataset.targets``.
    A split of one chunk takes ``predict``'s output and the subset's targets
    as they are, with no copy.  Each window's prediction is ``predict``'s on
    the whole split, bit for bit.
    """
    step = _walk_windows(model)
    if len(indices) <= step:
        x, y = dataset.subset(indices)
        return predict(model, values, x), y if transform is None else transform(y)
    preds = np.empty((len(indices), model.out_dim))
    targets = np.empty((len(indices),) + dataset.targets.shape[1:], dataset.targets.dtype)
    for lo in range(0, len(indices), step):
        x, y = dataset.subset(indices[lo : lo + step])
        preds[lo : lo + len(x)] = predict(model, values, x)
        targets[lo : lo + len(y)] = y if transform is None else transform(y)
        del x, y  # before the next chunk is gathered
    return preds, targets


def train(
    model: ModelConfig, dataset: WindowedDataset, config: TrainConfig
) -> tuple[ParamStore, list[dict]]:
    """Fit the model on the train split, tracking train/validation loss.

    Both splits are non-empty, as every dataset ``config.build_dataset``
    makes has them.  Each batch runs through the tape in chunks of
    ``max(1, _CHUNK_BYTES // (8 prod(model.feature_block)))`` whole windows,
    gathered one chunk at a time.  Every chunk's loss is its rows' share of
    the batch mean, so the chunks' losses and their gradients, which the
    step's parameter leaves sum as ``backward`` sums a leaf reached twice,
    add up to the batch's; the sum is copied into the store and one
    ``adam_step`` runs.  A batch of one chunk takes the unchunked path's bits.
    Each epoch's validation loss is taken once over the split's
    predictions, which ``_predict_split`` makes a chunk at a time.
    """
    seeds = np.random.SeedSequence(config.seed).generate_state(2)
    store = ParamStore(init_params(model, int(seeds[0])))
    shuffle_rng = np.random.default_rng(int(seeds[1]))
    train_idx, val_idx = dataset.splits.train, dataset.splits.val
    chunk = _chunk_windows(model)
    loss_op = getattr(ad, f"{config.loss}_loss")
    trace: list[dict] = []
    for epoch in range(1, config.epochs + 1):
        order = train_idx[shuffle_rng.permutation(len(train_idx))]
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
        preds, y = _predict_split(model, store.views, dataset, val_idx)
        val_loss = float(loss_op(ad.constant(preds), y).array)
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

    The split is walked chunk by chunk, as ``train`` walks its validation
    split, so only one chunk of its windows is read or gathered at a time;
    the predictions and targets each fill one array, and every metric is
    taken once over the whole split.  ``wall_time_s`` covers the walk, the
    gathers of a stratified split's chunks included, and the metrics.

    Finite parameters can still overflow: a non-finite prediction, or a
    regression MAE that the inverse transform overflows, raises
    FloatingPointError.
    """
    indices = dataset.splits.test
    started = time.perf_counter()
    regression = dataset.task == "regression"
    # a regression's targets go to the data's units chunk by chunk: no z-scored copy is made
    to_raw = partial(inverse_transform_predictions, dataset) if regression else None
    preds, targets = _predict_split(model, values, dataset, indices, to_raw)
    if not np.isfinite(preds).all():
        raise FloatingPointError("test predictions hold a NaN or infinity")
    metrics: dict = {
        "task": dataset.task,
        "n_samples": int(len(indices)),
        "parameter_count": param_count(model)[1],
    }
    if regression:
        errors = inverse_transform_predictions(dataset, preds) - targets
        metrics["mae"] = float(np.abs(errors, out=errors).mean())
        if not np.isfinite(metrics["mae"]):
            raise FloatingPointError(f"test MAE is {metrics['mae']!r}: the predictions "
                                     f"overflow in the data's units")
    else:
        labels = preds.argmax(axis=1)
        metrics["accuracy"] = float((labels == targets).mean())
    metrics["wall_time_s"] = time.perf_counter() - started
    return metrics
