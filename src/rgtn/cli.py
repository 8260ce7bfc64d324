"""Command-line entry point: train, eval, bench, decompose, inspect.

Exit codes: 0 on success, 1 on runtime failures, 2 on usage or
configuration errors.  Summaries are fixed-order ``key: value`` lines;
epoch traces are tab-separated with a header row.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from .checkpoint import (
    CheckpointError,
    load_checkpoint,
    load_tensor,
    save_checkpoint,
    save_tt,
)
from .config import (
    ConfigError,
    RunConfig,
    build_dataset,
    load_run_config,
    model_for_variant,
    run_config_from_dict,
)
from .data import CsvFormatError, CsvSchemaError
from .models import ModelConfig
from .tensor import DenseTensor
from .training import TrainingDiverged, evaluate, train
from .tt import tt_param_count, tt_reconstruct, tt_svd

__all__ = ["main"]


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_lines(path: str, pairs: list[tuple[str, object]]) -> None:
    with open(path, "w") as fh:
        for key, value in pairs:
            fh.write(f"{key}: {_fmt(value)}\n")


def _print_pairs(pairs: list[tuple[str, object]]) -> None:
    for key, value in pairs:
        print(f"{key}: {_fmt(value)}")


def _write_trace(path: str, trace: list[dict]) -> None:
    with open(path, "w") as fh:
        fh.write("epoch\ttrain_loss\tval_loss\n")
        for row in trace:
            fh.write(f"{row['epoch']}\t{row['train_loss']!r}\t{row['val_loss']!r}\n")


def _metric_pair(metrics: dict) -> tuple[str, float]:
    if "mae" in metrics:
        return "test_mae", metrics["mae"]
    return "test_accuracy", metrics["accuracy"]


def _train_one(run: RunConfig, model: ModelConfig, dataset, out_dir: str, suffix: str = ""):
    """Train, write ``trace{suffix}.tsv`` and ``checkpoint{suffix}.rgtn``, then evaluate.

    A diverged run writes the epochs it recorded to the trace, and no
    checkpoint.  Returns the test metrics and the training wall time.
    """
    trace_path = os.path.join(out_dir, f"trace{suffix}.tsv")
    started = time.perf_counter()
    try:
        store, trace = train(model, dataset, run.training)
    except TrainingDiverged as exc:
        _write_trace(trace_path, exc.trace)
        raise
    wall = time.perf_counter() - started
    _write_trace(trace_path, trace)
    model_raw = {**run.raw["model"], "variant": model.variant}
    training_raw = {**run.raw["training"], "seed": run.training.seed}
    meta = {"kind": "model", "config": {**run.raw, "model": model_raw, "training": training_raw}}
    save_checkpoint(os.path.join(out_dir, f"checkpoint{suffix}.rgtn"), store.values(), meta)
    return evaluate(model, store.values(), dataset), wall


def cmd_train(args) -> int:
    run = load_run_config(args.config, seed_override=args.seed)
    dataset = build_dataset(run)  # its checks run before the run directory is made
    out_dir = args.out or run.output_dir
    os.makedirs(out_dir, exist_ok=True)
    metrics, wall = _train_one(run, run.model, dataset, out_dir)
    pairs = [
        ("variant", run.model.variant),
        ("task", metrics["task"]),
        _metric_pair(metrics),
        ("parameter_count", metrics["parameter_count"]),
        ("epochs", run.training.epochs),
        ("train_seed", run.training.seed),
        ("data_seed", run.data.seed),
        ("wall_time_s", wall),
    ]
    _write_lines(os.path.join(out_dir, "summary.txt"), pairs)
    _print_pairs(pairs)
    return 0


def cmd_eval(args) -> int:
    arrays, meta = load_checkpoint(args.checkpoint)
    if meta.get("kind") != "model":
        raise CheckpointError(f"{args.checkpoint}: not a model checkpoint")
    # here and not in the models, so that predict does not pay for the check
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"{args.checkpoint}: params {name}: holds a NaN or infinity")
    if args.config:
        run = load_run_config(args.config)
    elif isinstance(meta.get("config"), dict):
        run = run_config_from_dict(meta["config"])
    else:
        raise CheckpointError(f"{args.checkpoint}: model checkpoint has no config snapshot")
    dataset = build_dataset(run)
    metrics = evaluate(run.model, arrays, dataset)
    pairs = [
        ("variant", run.model.variant),
        ("task", metrics["task"]),
        _metric_pair(metrics),
        ("parameter_count", metrics["parameter_count"]),
        ("n_samples", metrics["n_samples"]),
        ("wall_time_s", metrics["wall_time_s"]),
    ]
    _print_pairs(pairs)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_lines(os.path.join(args.out, "eval.txt"), pairs)
    return 0


def cmd_bench(args) -> int:
    run = load_run_config(args.config, seed_override=args.seed)
    if run.bench_variants is None:
        raise ConfigError("bench: config needs a bench.variants list (>= 2 variants)")
    # every config check runs before the run directory is made
    dataset = build_dataset(run)
    models = [model_for_variant(run, variant) for variant in run.bench_variants]
    out_dir = args.out or run.output_dir
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for model in models:
        metrics, wall = _train_one(run, model, dataset, out_dir, f"_{model.variant}")
        metric_name, value = _metric_pair(metrics)
        rows.append((model.variant, value, metrics["parameter_count"], wall))
    header = f"{'variant':<10} {metric_name:>14} {'parameters':>12} {'wall_time_s':>12}"
    lines = [header]
    for variant, value, params, wall in rows:
        lines.append(f"{variant:<10} {value:>14.6g} {params:>12d} {wall:>12.3f}")
    table = "\n".join(lines)
    print(table)
    with open(os.path.join(out_dir, "bench.txt"), "w") as fh:
        fh.write(table + "\n")
    return 0


def cmd_decompose(args) -> int:
    array = load_tensor(args.tensor)
    # a tensor with no mode to decompose is at fault whatever the flags
    if array.ndim == 0 or 0 in array.shape:
        raise CheckpointError(f"{args.tensor}: tensor of shape {array.shape} has no mode to "
                              f"decompose: it needs order >= 1 and no empty mode")
    if args.max_ranks is None and args.tol is None:
        raise ConfigError("decompose: provide --max-ranks and/or --tol")
    if args.tol is not None and not (np.isfinite(args.tol) and args.tol >= 0):
        raise ConfigError(f"--tol: must be a finite number >= 0, got {args.tol!r}")
    caps = None
    if args.max_ranks is not None:
        fields = args.max_ranks.split(",")
        if not all(f.strip().isdecimal() and int(f) >= 1 for f in fields):
            raise ConfigError(
                f"--max-ranks: expected comma-separated integers >= 1, got {args.max_ranks!r}"
            )
        caps = [int(f) for f in fields]
        if len(caps) == 1:
            caps = caps[0]
        elif len(caps) != array.ndim - 1:
            takes = "1 rank cap" if array.ndim == 1 else f"1 or {array.ndim - 1} rank caps"
            raise ConfigError(f"--max-ranks: an order-{array.ndim} tensor takes {takes}, "
                              f"got {len(caps)}")
    # the loaded array is held nowhere else, so it is wrapped, not copied
    cores = tt_svd(DenseTensor(array), max_ranks=caps, rel_tolerance=args.tol)
    recon = tt_reconstruct(cores).array
    denom = np.linalg.norm(array)
    error = float(np.linalg.norm(recon - array) / denom) if denom > 0 else 0.0
    tt_params = tt_param_count(cores)
    ranks = [1] + [core.shape[2] for core in cores]
    mode_sizes = [core.shape[1] for core in cores]
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    cores_path = os.path.join(out_dir, "cores.rgtn")
    save_tt(cores_path, cores, {"ranks": ranks, "mode_sizes": mode_sizes})
    pairs = [
        ("mode_sizes", ",".join(str(d) for d in mode_sizes)),
        ("ranks", ",".join(str(r) for r in ranks)),
        ("tt_parameters", tt_params),
        ("dense_parameters", array.size),
        ("compression_ratio", array.size / tt_params),
        ("reconstruction_error", error),
        ("cores_file", cores_path),
    ]
    _print_pairs(pairs)
    _write_lines(os.path.join(out_dir, "decompose.txt"), pairs)
    return 0


def cmd_inspect(args) -> int:
    arrays, meta = load_checkpoint(args.checkpoint)
    config = meta.get("config", {}) if meta.get("kind") == "model" else {}
    model_raw = config.get("model", {}) if isinstance(config, dict) else None
    if not isinstance(model_raw, dict):
        raise CheckpointError(f"{args.checkpoint}: meta.config: not an object with a model object")
    n_cores = sum(name.startswith("head.core") for name in arrays)
    cores = [arrays.get(f"head.core{k}") for k in range(n_cores)]
    if any(core is None or core.ndim != 4 for core in cores):
        raise CheckpointError(
            f"{args.checkpoint}: params head.core*: need 4-D head.core0..head.core{n_cores - 1}"
        )
    w_r = arrays.get("w_r")
    if w_r is not None and (w_r.ndim != 2 or w_r.shape[0] != w_r.shape[1]):
        raise CheckpointError(
            f"{args.checkpoint}: params w_r: need a square matrix, got shape {w_r.shape}"
        )
    pairs = [("format_version", meta["format_version"]), ("kind", meta.get("kind", "unknown"))]
    keys = ("variant", "tau", "d_phys", "d_feat", "hidden", "out_dim")
    pairs += [(key, model_raw[key]) for key in keys if key in model_raw]
    for name, arr in arrays.items():
        pairs.append((f"param {name}", f"shape={arr.shape} count={arr.size}"))
    if cores:
        pairs.append(("head_tt_ranks", tuple(c.shape[0] for c in cores) + (cores[-1].shape[-1],)))
    pairs.append(("total_parameters", sum(arr.size for arr in arrays.values())))
    if w_r is not None:
        # a non-finite or overflowing w_r has a residual of nan or inf, printed as such
        with np.errstate(all="ignore"):
            residual = float(np.linalg.norm(w_r @ w_r - w_r))
        pairs.append(("w_r_idempotency_residual", residual))
    _print_pairs(pairs)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rgtn",
        description="Recurrent graph tensor network toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a config file")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", default=None)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--config", default=None)
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_bench = sub.add_parser("bench", help="train and compare several variants")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--out", default=None)
    p_bench.add_argument("--seed", type=int, default=None)
    p_bench.set_defaults(func=cmd_bench)

    p_dec = sub.add_parser("decompose", help="tensor-train decompose a tensor file")
    p_dec.add_argument("--tensor", required=True)
    p_dec.add_argument("--max-ranks", default=None)
    p_dec.add_argument("--tol", type=float, default=None)
    p_dec.add_argument("--out", default=None)
    p_dec.set_defaults(func=cmd_decompose)

    p_ins = sub.add_parser("inspect", help="describe a checkpoint")
    p_ins.add_argument("--checkpoint", required=True)
    p_ins.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CsvSchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        print(f"error: {exc} ({len(exc.trace)} epochs recorded)", file=sys.stderr)
        return 1
    except (CheckpointError, CsvFormatError, FloatingPointError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
