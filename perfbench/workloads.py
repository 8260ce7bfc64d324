"""The benchmark's workloads, defined here rather than read from ``configs/``.

Each workload is one run configuration (model, data and training sections,
in the same schema ``rgtn`` reads from YAML) plus the sizes and time shares
of the phases the benchmark times.  Every workload runs every phase, so that
every end-to-end metric is measured on every workload; the phase a workload
is named after gets the heaviest shape and most of the time.

Seeds are not part of the definitions: ``run_config`` derives the data and
training seeds from the ``--seed`` argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VARIANTS = ("grgtn", "srgtn", "rnn")

SMALL_MODEL = {
    "variant": "grgtn",
    "tau": 6,
    "d_phys": 4,
    "d_feat": 3,
    "hidden": 8,
    "c": 0.5,
    "activation": "identity",
    "out_dim": 12,
    "task": "regression",
    "head": {"kind": "tt", "ranks": [2, 2], "out_modes": [1, 4, 3], "bias": True},
}
SMALL_DATA = {
    "kind": "synthetic_regression",
    "n_steps": 3000,
    "noise": 0.1,
    "normalize": "zscore",
}
SMALL_TRAINING = {"epochs": 10, "learning_rate": 0.01, "batch_size": 64, "loss": "mae"}


DECOMPOSE_RANK = 3
DECOMPOSE_TOL = 1e-2
STREAM_MIN_CALLS = 2000  # enough for a p99 with at least ten calls beyond it
DECOMPOSE_MIN_CALLS = 1000


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is in BENCHMARK.json and README.md."""

    name: str
    model: dict
    data: dict
    training: dict
    # windows per batched predict call; None predicts the test split at once
    predict_chunk: int | None
    decompose_shape: tuple[int, ...]
    # shares of --seconds given to each timed phase; the phases interleave
    shares: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="small-train",
            model=SMALL_MODEL,
            data=SMALL_DATA,
            training=SMALL_TRAINING,
            predict_chunk=None,
            # the tensor rgtn decompose is run on; no other workload reaches it
            decompose_shape=(16, 16, 16, 16),
            shares={"train": 0.45, "predict": 0.08, "stream": 0.12, "decompose": 0.30,
                    "setup": 0.05},
        ),
        Workload(
            name="wide-train",
            model={
                "variant": "grgtn",
                "tau": 64,
                "d_phys": 16,
                "d_feat": 8,
                "hidden": 32,
                "c": 0.5,
                "activation": "tanh",
                "out_dim": 2,
                "task": "classification",
                "head": {"kind": "tt", "ranks": [4, 4], "out_modes": [1, 1, 2], "bias": True},
            },
            data={
                "kind": "synthetic_classification",
                "n_samples": 1024,
                "noise": 1.2,
                "normalize": "zscore",
                "split": [0.25, 0.0625, 0.6875],
            },
            training={
                "epochs": 2,
                "learning_rate": 0.03,
                "batch_size": 64,
                "loss": "cross_entropy",
            },
            # Small chunks: from 16 windows up, the temporaries of a batched
            # predict are mapped and faulted in afresh on every call, and that
            # kernel time varies far more between runs than the arithmetic.
            predict_chunk=8,
            decompose_shape=(8, 8, 8, 8),
            shares={"train": 0.50, "predict": 0.13, "stream": 0.25, "decompose": 0.05,
                    "setup": 0.07},
        ),
        Workload(
            name="predict-stream",
            model={
                "variant": "grgtn",
                "tau": 64,
                "d_phys": 8,
                "d_feat": 4,
                "hidden": 16,
                "c": 0.5,
                "activation": "tanh",
                "out_dim": 32,
                "task": "regression",
                "head": {"kind": "tt", "ranks": [2, 2], "out_modes": [1, 8, 4], "bias": True},
            },
            # Weakly coupled dynamics keep the test MAE of two epochs of training
            # near the noise floor for every seed; stronger coupling makes it
            # swing with how hard each seed's dynamics are to learn.
            data={
                "kind": "synthetic_regression",
                "n_steps": 1344,
                "noise": 0.1,
                "spectral_radius": 0.3,
                "normalize": "zscore",
                "split": [0.15, 0.05, 0.8],
            },
            training={"epochs": 2, "learning_rate": 0.01, "batch_size": 64, "loss": "mae"},
            predict_chunk=None,
            decompose_shape=(8, 8, 8, 8),
            shares={"train": 0.14, "predict": 0.33, "stream": 0.40, "decompose": 0.07,
                    "setup": 0.06},
        ),
    )
}


def derive_seeds(seed: int) -> tuple[int, int, int]:
    """Independent data, training and tensor seeds from the workload seed."""
    data, train, tensor = np.random.SeedSequence(seed).generate_state(3)
    return int(data), int(train), int(tensor)


def run_config(w: Workload, seed: int) -> dict:
    """The YAML document ``rgtn`` would read for this workload and seed."""
    data_seed, train_seed, _ = derive_seeds(seed)
    return {
        "model": dict(w.model),
        "data": {**w.data, "seed": data_seed},
        "training": {**w.training, "seed": train_seed},
        "bench": {"variants": list(VARIANTS)},
        "output": {"dir": "unused"},
    }


def decompose_tensor(w: Workload, seed: int) -> np.ndarray:
    """Rank-``DECOMPOSE_RANK`` TT tensor plus Gaussian noise at half the tolerance.

    The noise sits below the truncation threshold, so the kept ranks and the
    reconstruction error are the same for every seed.
    """
    rng = np.random.default_rng(derive_seeds(seed)[2])
    shape = w.decompose_shape
    n, r = len(shape), DECOMPOSE_RANK
    full = np.ones((1, 1))
    for k, dim in enumerate(shape):
        core = rng.standard_normal((1 if k == 0 else r, dim, 1 if k == n - 1 else r))
        full = np.tensordot(full, core, axes=(full.ndim - 1, 0))
    full = full.reshape(shape)
    noise = rng.standard_normal(shape)
    noise *= 0.5 * DECOMPOSE_TOL * np.linalg.norm(full) / np.linalg.norm(noise)
    return full + noise
