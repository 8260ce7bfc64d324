"""Untimed correctness checks run by every workload.

Each check returns a list of failure messages; an empty list is a pass.
The gradient check uses central finite differences on a few coordinates of
every parameter, at the workload's own shape, for one variant at a time.
"""

from __future__ import annotations

import numpy as np

from rgtn import autodiff, models

LOSSES = {
    "mae": "mae_loss",
    "mse": "mse_loss",
    "cross_entropy": "cross_entropy_loss",
}
FD_STEP = 1e-6
FD_RTOL = 1e-5
FD_ATOL = 1e-8
COORDS_PER_PARAM = 3


def _loss_value(cfg, loss: str, values, x, y) -> autodiff.TapeNode:
    preds = models.forward(cfg, values, x)
    return getattr(autodiff, LOSSES[loss])(preds, y)


def finite_difference(cfg, loss: str, params: dict, x, y, rng) -> list[str]:
    """Tape gradients against central differences of the same loss."""
    nodes = {name: autodiff.constant(value) for name, value in params.items()}
    autodiff.backward(_loss_value(cfg, loss, nodes, x, y))
    failures = []
    for name, value in params.items():
        grad = nodes[name].grad
        if grad is None:
            failures.append(f"{cfg.variant}: no gradient reached {name}")
            continue
        for flat in rng.choice(value.size, size=min(COORDS_PER_PARAM, value.size), replace=False):
            idx = np.unravel_index(int(flat), value.shape)
            shifted = {}
            for sign in (1.0, -1.0):
                trial = dict(params)
                trial[name] = value.copy()
                trial[name][idx] += sign * FD_STEP
                shifted[sign] = float(_loss_value(cfg, loss, trial, x, y).array)
            fd = (shifted[1.0] - shifted[-1.0]) / (2 * FD_STEP)
            tape = float(grad[idx])
            if not abs(tape - fd) <= FD_ATOL + FD_RTOL * max(abs(fd), abs(tape)):
                failures.append(f"{cfg.variant}: d loss/d {name}{idx} tape {tape!r} fd {fd!r}")
    return failures


def predict_matches_forward(cfg, params: dict, x) -> list[str]:
    """``predict`` must return exactly the array ``forward`` computes."""
    got = models.predict(cfg, params, x)
    want = models.forward(cfg, params, x).array
    if got.shape != want.shape or not np.array_equal(got, want):
        return [f"{cfg.variant}: predict differs from forward"]
    return []


def identical_traces(first: list[dict], second: list[dict], label: str) -> list[str]:
    """Same-seed trainings must give bit-identical loss traces."""
    if first != second:
        return [f"{label}: loss trace differs between same-seed trainings"]
    return []


def tt_error_within(error: float, tol: float) -> list[str]:
    if not np.isfinite(error) or error > tol:
        return [f"tt reconstruction error {error!r} exceeds tol {tol!r}"]
    return []
