"""Dataset ingestion, windowing, normalization, and synthetic generators.

A series is a float64 array (time, physical, feature): ``load_csv`` and
``synth_linear_dynamics`` return one, in time order, and ``window`` takes
one.  Windowing slices it into order-4 batches (samples, tau, physical,
feature) with strictly later targets, so no sample can see its own target
time step.  Regression target vectors flatten the (physical, feature)
block with the physical index fastest, matching the package-wide
convention.

Every dataset comes out of one call, split and z-scored with statistics of
its train windows.  ``window`` makes the time-ordered split of a regression
series' windows and z-scores the series before windowing it;
``synth_classification`` makes the stratified split of its labels and
z-scores its windows where they lie.  Each refuses an empty split before
any statistics are taken or any window is drawn.  Every window element and
target is one series element, so z-scoring the series applies to each the
same ``(v - mean) / scale`` as z-scoring a copy of the windows would: the
bits are those of windowing first.

Every dataset stores its windows train first, then val, then test, then
any left unused, so each split is a ``range`` from ``_runs`` and ``subset``
reads it as a slice that copies nothing.  A regression dataset holds its
z-scored series once: its inputs are a read-only strided view of it.  A
training batch is a C-order copy, as NumPy's fancy indexing makes.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "SplitIndices",
    "NormStats",
    "WindowedDataset",
    "CsvSchemaError",
    "CsvFormatError",
    "load_csv",
    "window",
    "inverse_transform_predictions",
    "synth_linear_dynamics",
    "synth_classification",
]


class CsvSchemaError(ValueError):
    """Declared columns missing or schema inconsistent."""


class CsvFormatError(ValueError):
    """Malformed CSV content; carries the offending line number."""


@dataclass(frozen=True)
class SplitIndices:
    """The window indices of each split: consecutive runs from 0, in train, val, test order."""

    train: range
    val: range
    test: range


@dataclass(frozen=True)
class NormStats:
    mean: np.ndarray   # (D_phys, D_feat)
    scale: np.ndarray  # (D_phys, D_feat), never zero


@dataclass(frozen=True)
class WindowedDataset:
    """Windows, their targets, the split and the statistics they were z-scored with.

    Each split is a run of windows (see ``SplitIndices``).  A regression
    dataset's inputs and targets are read-only: the inputs are a view of the
    z-scored series, so window ``i`` shares its last ``tau - 1`` steps with
    window ``i + 1``.  A classification dataset's are C-order arrays of their
    own.
    """

    inputs: np.ndarray            # (S, tau, D_phys, D_feat)
    targets: np.ndarray           # (S, P) reals or (S,) integer labels
    task: str                     # "regression" | "classification"
    splits: SplitIndices
    norm: NormStats

    def subset(self, run: range) -> tuple[np.ndarray, np.ndarray]:
        """The inputs and targets of ``run``, a split or a forward slice of one, read-only."""
        inputs = self.inputs[run.start : run.stop : run.step]
        targets = self.targets[run.start : run.stop : run.step]
        inputs.flags.writeable = targets.flags.writeable = False
        return inputs, targets


def _parse_cell(raw: str, line_no: int, column: str) -> float:
    text = raw.strip()
    if text == "" or text.lower() in ("nan", "na"):
        return np.nan
    try:
        value = float(text)
    except ValueError:
        raise CsvFormatError(
            f"line {line_no}: cannot parse {column!r} value {raw!r} as a number"
        ) from None
    if np.isinf(value):
        raise CsvFormatError(f"line {line_no}: {column!r} value {raw!r} is not finite")
    return value


def load_csv(path: str, schema: dict) -> np.ndarray:
    """Read a long- or wide-format CSV into a ``(T, P, F)`` series.

    Rows come in time order, physical slots in the sorted order of their
    keys and features in the order the schema lists them.

    Schema keys: ``time`` (required column name), ``phys`` (optional key
    column; without it there is a single physical slot), ``features``
    (list of value columns), ``missing`` ("drop" or "ffill").  Any other
    key is an error, so a misspelled one cannot drop its setting silently.
    """
    for key in schema:
        if key not in ("time", "phys", "features", "missing"):
            raise CsvSchemaError(f"unknown schema key {key!r}: the keys are time, phys, "
                                 f"features and missing")
    time_col, phys_col, feat_cols = schema.get("time"), schema.get("phys"), schema.get("features")
    missing = schema.get("missing", "drop")
    if not time_col or not isinstance(feat_cols, list) or not feat_cols:
        raise CsvSchemaError(f"schema needs a 'time' column and a non-empty 'features' list, "
                             f"got time {time_col!r} and features {feat_cols!r}")
    if missing not in ("drop", "ffill"):
        raise CsvSchemaError(f"unknown missing-value policy {missing!r}")
    declared = [time_col] + ([phys_col] if phys_col else []) + feat_cols
    for col in declared:
        if declared.count(col) > 1:
            raise CsvSchemaError(f"column {col!r} is declared more than once: time, phys "
                                 f"and the features must be distinct columns")

    # utf-8-sig drops the byte-order mark spreadsheet programs write
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            records = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not UTF-8 text ({exc})") from None
    if not records:
        raise CsvFormatError("line 1: file is empty, header row required")
    header = [h.strip() for h in records[0]]
    for col in declared:
        if col not in header:
            raise CsvSchemaError(f"declared column {col!r} not in header {header}")
        if header.count(col) > 1:
            raise CsvSchemaError(f"declared column {col!r} appears more than once in {header}")
    idx = {col: header.index(col) for col in declared}

    rows: list[tuple[float, str, list[float]]] = []
    for line_no, row in enumerate(records[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise CsvFormatError(f"line {line_no}: expected {len(header)} fields, got {len(row)}")
        t = _parse_cell(row[idx[time_col]], line_no, time_col)
        if np.isnan(t):
            raise CsvFormatError(f"line {line_no}: missing timestamp")
        key = row[idx[phys_col]].strip() if phys_col else "all"
        feats = [_parse_cell(row[idx[c]], line_no, c) for c in feat_cols]
        rows.append((t, key, feats))

    if not rows:
        raise CsvFormatError("line 2: no data rows")

    t_index = {t: i for i, t in enumerate(sorted({t for t, _, _ in rows}))}
    p_index = {k: i for i, k in enumerate(sorted({key for _, key, _ in rows}))}
    values = np.full((len(t_index), len(p_index), len(feat_cols)), np.nan)
    seen: set[tuple[float, str]] = set()
    for t, key, feats in rows:
        if (t, key) in seen:
            raise CsvFormatError(f"duplicate entry for time {t} and key {key!r}")
        seen.add((t, key))
        values[t_index[t], p_index[key]] = feats

    if missing == "ffill":
        for t in range(1, len(t_index)):
            mask = np.isnan(values[t])
            values[t][mask] = values[t - 1][mask]
    values = values[~np.isnan(values).any(axis=(1, 2))]
    if values.shape[0] == 0:
        raise CsvFormatError("all rows dropped while handling missing values")
    return values


def _split_sizes(n: int, fractions: tuple[float, float, float]) -> tuple[int, int, int]:
    """Train, val and test counts of n; the int(n (1 - sum)) left over go unused.

    The test split takes what truncating the other two leaves, unless its
    fraction is 0: then it is empty, and the remainder goes unused too.
    """
    n_train = int(n * fractions[0])
    n_val = int(n * fractions[1])
    if fractions[2] == 0:
        return n_train, n_val, 0
    # a split summing to 1 leaves a float residue whose product with n truncates to 0
    n_unused = int(n * (1.0 - sum(fractions)))
    return n_train, n_val, n - n_train - n_val - n_unused


def _runs(n_train: int, n_val: int, n_test: int) -> SplitIndices:
    """The three splits as consecutive runs from 0: train, then val, then test."""
    n_head = n_train + n_val
    return SplitIndices(range(n_train), range(n_train, n_head), range(n_head, n_head + n_test))


def _stratified_split(
    labels: np.ndarray, fractions: tuple[float, float, float], seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The train, val and test draws, each sorted, so in the order they were drawn."""
    rng = np.random.default_rng(seed)
    train, val, test = [], [], []
    for cls in np.unique(labels):
        members = np.nonzero(labels == cls)[0]
        members = members[rng.permutation(len(members))]
        n_train, n_val, n_test = _split_sizes(len(members), fractions)
        train.append(members[:n_train])
        val.append(members[n_train : n_train + n_val])
        test.append(members[n_train + n_val : n_train + n_val + n_test])
    return tuple(np.sort(np.concatenate(split)) for split in (train, val, test))


def _windows(values: np.ndarray, tau: int, n: int) -> np.ndarray:
    """The first ``n`` windows of the series ``values``: a read-only ``(n, tau, P, F)`` view."""
    return sliding_window_view(values, tau, axis=0)[:n].transpose(0, 3, 1, 2)


def _refuse_empty(splits: Sequence, why: str) -> None:
    """Raise ValueError naming the first of the train, val and test splits that is empty."""
    for name, split in zip(("train", "val", "test"), splits):
        if len(split) == 0:
            raise ValueError(f"the {name} split is empty; {why}")


def window(
    series: np.ndarray, tau: int, horizon: int, split: tuple[float, float, float]
) -> WindowedDataset:
    """The z-scored windows of the series, each with the step ``horizon`` after it as target.

    The windows are split in time order by the ``split`` fractions, and an
    empty split raises ValueError before any statistics are taken, as a
    series too short for three windows always gives; ``horizon`` is at
    least 1, as ``config.DataConfig`` checks.  The statistics are those of
    the train windows.  Every window element and target is one series
    element, so z-scoring the ``(T, P, F)`` series and then windowing it
    gives each the same ``(v - mean) / scale`` as z-scoring the windows
    does, at 1/tau of the work.  The inputs are the read-only
    ``(n, tau, P, F)`` view of that one z-scored series, not a copy tau
    times its size; the targets are a read-only copy.
    """
    n = max(len(series) - tau - horizon + 1, 0)
    splits = _runs(*_split_sizes(n, split))
    _refuse_empty((splits.train, splits.val, splits.test),
                  f"a series of {len(series)} steps has {n} windows for "
                  f"model.tau {tau} and data.horizon {horizon}")
    # C order whatever the series' layout, and so the z-scored series and its windows
    values = np.ascontiguousarray(series)
    # the train windows come first.  NumPy reduces their view in the order it
    # reduces their C-order copy, element by element, so no copy is needed
    norm = _train_stats(_windows(values, tau, len(splits.train)))
    values = (values - norm.mean) / norm.scale
    # the targets flatten physical index fastest
    targets = values[tau + horizon - 1 :].transpose(0, 2, 1).copy()
    targets = targets.reshape(n, -1)
    targets.flags.writeable = False
    return WindowedDataset(inputs=_windows(values, tau, n), targets=targets,
                           task="regression", splits=splits, norm=norm)


def _train_stats(train_inputs: np.ndarray) -> NormStats:
    """Mean and spread of each (physical, feature) cell over the train windows and steps.

    A cell with no spread gets scale 1, with one warning for all such cells.
    """
    mean = train_inputs.mean(axis=(0, 1))
    scale = train_inputs.std(axis=(0, 1))
    flat_zero = scale <= 1e-12 * (1.0 + np.abs(mean))
    if np.any(flat_zero):
        warnings.warn(
            f"{int(flat_zero.sum())} feature cell(s) have zero spread; scale set to 1",
            stacklevel=3,
        )
        scale = np.where(flat_zero, 1.0, scale)
    return NormStats(mean=mean, scale=scale)


def inverse_transform_predictions(ds: WindowedDataset, preds: np.ndarray) -> np.ndarray:
    """Map a regression dataset's z-scored predictions back to original units."""
    return preds * ds.norm.scale.ravel(order="F") + ds.norm.mean.ravel(order="F")


def _stable_matrix(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    m = rng.standard_normal((n, n))
    eig = np.max(np.abs(np.linalg.eigvals(m)))
    return m * (radius / eig)


def synth_linear_dynamics(
    d_phys: int,
    d_feat: int,
    n_steps: int,
    noise: float,
    seed: int,
    spectral_radius: float = 0.85,
) -> np.ndarray:
    """Stable linear state recurrence with separable mode coupling.

    The state evolves as s_{t+1} = G s_t + noise * eps with separable G,
    so the one-step-ahead conditional mean is G s_t and the best
    attainable forecast error is exactly the noise term.
    """
    rng = np.random.default_rng(seed)
    g_p = _stable_matrix(rng, d_phys, np.sqrt(spectral_radius))
    g_f = _stable_matrix(rng, d_feat, np.sqrt(spectral_radius))
    g = np.kron(g_f, g_p)
    dim = d_phys * d_feat
    state = rng.standard_normal(dim)
    burn_in = 200
    # one draw reads the stream a draw per step would; dot skips matmul's ufunc dispatch
    rows = noise * rng.standard_normal((burn_in + n_steps, dim))
    for t in range(burn_in + n_steps):
        state = rows[t] = g.dot(state) + rows[t]
    return rows[burn_in:].reshape(n_steps, d_feat, d_phys).transpose(0, 2, 1)


def synth_classification(
    tau: int,
    d_phys: int,
    d_feat: int,
    n_samples: int,
    noise: float,
    seed: int,
    split: tuple[float, float, float] = (0.7, 0.15, 0.15),
) -> WindowedDataset:
    """Two-class windows driven by two distinct linear dynamics, z-scored.

    Both classes share the start state; their propagation matrices rotate
    and damp it differently, so the noiseless trajectories are distinct
    and the classes are exactly separable at zero noise.  The stratified
    split comes from the labels, with a generator of its own, before any
    window is drawn, and an empty split raises ValueError then.  Labels and
    windows are drawn in one order from one stream, and each window is
    written to its slot: the train split's draws first, then val's, then
    test's, then the unused ones, each in draw order.  The windows are
    z-scored where they lie with the statistics of the train run, so each
    element gets the one ``(v - mean) / scale`` a z-scored copy would hold.
    """
    rng = np.random.default_rng(seed)
    dim = d_phys * d_feat
    start = rng.standard_normal(dim)
    start /= np.linalg.norm(start)
    trajectories = []
    for angle, damp in ((0.35, 0.98), (0.55, 0.90)):
        rotation = np.eye(dim)
        for i in range(0, dim - 1, 2):
            block = np.array(
                [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
            )
            rotation[i : i + 2, i : i + 2] = block
        a = damp * rotation
        rows = np.empty((tau, dim))
        state = start.copy()
        for t in range(tau):
            state = a @ state
            rows[t] = state
        trajectories.append(rows)
    labels = rng.integers(0, 2, size=n_samples)
    drawn = _stratified_split(labels, split, seed)
    _refuse_empty(drawn, f"{n_samples} samples, {np.count_nonzero(labels)} of class 1, "
                         f"split by class")
    # the draws of train, val and test, then the unused ones, each in draw order
    order = np.concatenate(drawn)
    order = np.concatenate([order, np.setdiff1d(np.arange(n_samples), order)])
    windows = np.empty((n_samples, tau, d_phys, d_feat))
    for slot, cls in zip(np.argsort(order), labels):
        block = trajectories[cls] + noise * rng.standard_normal((tau, dim))
        windows[slot] = block.reshape(tau, d_feat, d_phys).transpose(0, 2, 1)
    splits = _runs(*map(len, drawn))
    norm = _train_stats(windows[: len(splits.train)])
    windows -= norm.mean
    windows /= norm.scale
    return WindowedDataset(inputs=windows, targets=labels[order], task="classification",
                           splits=splits, norm=norm)
