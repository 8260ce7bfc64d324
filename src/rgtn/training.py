"""Parameter store, Adam optimizer, and the training/evaluation loops.

Training is deterministic given the configuration seed: initialization and
batch shuffling derive independent child seeds from it, and every update
is a plain single-threaded numpy computation.

Parameters, gradients and Adam moments live in four flat buffers.  A
forward uses every parameter it is given, so each step writes every
gradient and ``adam_step`` is one in-place update of every entry.
``ParamStore.values()`` returns views that the next ``adam_step`` updates
in place: to keep them, copy.
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


def _loss_node(loss: str, preds: ad.TapeNode, targets: np.ndarray) -> ad.TapeNode:
    if loss == "mae":
        return ad.mae_loss(preds, targets)
    if loss == "mse":
        return ad.mse_loss(preds, targets)
    return ad.cross_entropy_loss(preds, targets)


def _split_loss(
    model: ModelConfig,
    values: Mapping[str, np.ndarray],
    loss: str,
    inputs: np.ndarray,
    targets: np.ndarray,
) -> float:
    return float(_loss_node(loss, ad.constant(predict(model, values, inputs)), targets).array)


def train(
    model: ModelConfig, dataset: WindowedDataset, config: TrainConfig
) -> tuple[ParamStore, list[dict]]:
    """Fit the model on the train split, tracking train/validation loss."""
    seeds = np.random.SeedSequence(config.seed).generate_state(2)
    store = ParamStore(init_params(model, int(seeds[0])))
    shuffle_rng = np.random.default_rng(int(seeds[1]))
    train_idx, val_idx = dataset.splits.train, dataset.splits.val
    trace: list[dict] = []
    for epoch in range(1, config.epochs + 1):
        order = train_idx[shuffle_rng.permutation(len(train_idx))]
        seen, loss_sum = 0, 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            x, y = dataset.inputs[batch], dataset.targets[batch]
            nodes = {name: ad.constant(value) for name, value in store.views.items()}
            loss = _loss_node(config.loss, forward(model, nodes, x), y)
            value = float(loss.array)
            if not np.isfinite(value):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}", trace
                )
            ad.backward(loss)
            for name, node in nodes.items():
                store.grad_views[name][...] = node.grad
            # drop this step's tape now, not when the next forward returns
            del loss, nodes
            adam_step(store, config)
            loss_sum += value * len(batch)
            seen += len(batch)
        record = {
            "epoch": epoch,
            "train_loss": loss_sum / max(seen, 1),
            # the validation windows are gathered for this call alone, so the
            # training steps do not hold them
            "val_loss": (
                _split_loss(model, store.values(), config.loss, *dataset.subset(val_idx))
                if len(val_idx)
                else float("nan")
            ),
        }
        trace.append(record)
    return store, trace


def evaluate(
    model: ModelConfig,
    values: Mapping[str, np.ndarray],
    dataset: WindowedDataset,
    split: str = "test",
) -> dict:
    """Single-pass metrics on one split; parameters are not touched."""
    indices = getattr(dataset.splits, split)
    if len(indices) == 0:
        raise ValueError(f"split {split!r} is empty")
    inputs, targets = dataset.subset(indices)
    started = time.perf_counter()
    preds = predict(model, values, inputs)
    metrics: dict = {
        "task": dataset.task,
        "split": split,
        "n_samples": int(len(indices)),
        "parameter_count": param_count(model)[1],
    }
    if dataset.task == "regression":
        preds_raw = inverse_transform_predictions(dataset, preds)
        targets_raw = inverse_transform_predictions(dataset, targets)
        metrics["mae"] = float(np.abs(preds_raw - targets_raw).mean())
    else:
        labels = preds.argmax(axis=1)
        metrics["accuracy"] = float((labels == targets).mean())
    metrics["wall_time_s"] = time.perf_counter() - started
    return metrics
