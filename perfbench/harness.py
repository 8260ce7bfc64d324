"""Timed phases, the host-speed probe, and the two measuring modes.

``run.py`` imports this module only after it has pinned the BLAS threads
and put the checkout's ``src/`` first on the path.  Every call into the
package goes through a module attribute (``training.train``, not a bound
name), so the tracer's wrappers apply to the benchmark's own calls too.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

import tracing
from gate import (
    finite_difference,
    identical_traces,
    predict_matches_forward,
    tt_error_within,
)
from rgtn import checkpoint, config, models, training, tt
from rgtn import tensor as rtensor
from rgtn.data import inverse_transform_predictions
from workloads import (
    DECOMPOSE_MIN_CALLS,
    DECOMPOSE_TOL,
    STREAM_MIN_CALLS,
    VARIANTS,
    WORKLOADS,
    decompose_tensor,
    run_config,
)

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPS = 7
STREAM_UNIT = 50  # timed batch-1 calls per scheduled unit
DECOMPOSE_UNIT = 20  # timed decompositions per scheduled unit
PROBE_REF_S = 50e-6  # probe time of the host state that timings are scaled to
TRACED_STREAM_CALLS = 500
TRACED_DECOMPOSE_CALLS = 100

# Units of work and the probe are timed in the process's CPU time.  The
# benchmark runs one thread (BLAS is pinned to one), so on an idle core this
# equals wall time; on a shared host it leaves out the time the scheduler
# gives to other tenants, which otherwise sets the tail of sub-millisecond
# calls.  The run's length is still wall time.
cpu_time = time.process_time


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, as ``numpy.percentile`` computes it."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(thread_vars) -> dict:
    """NumPy, BLAS and interpreter facts that the numbers depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "thread_env": {var: os.environ.get(var) for var in thread_vars},
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }


class Ledger:
    """Operations attempted and failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def call(self, label: str, fn, *args, **kwargs):
        """Run one operation; an exception counts as a failure and yields None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # every failure is counted, the run goes on
            self.failed += 1
            print(f"operation failed: {label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None

    def verify(self, failures: list[str]) -> bool:
        """Count an attempted operation as failed if its output is wrong."""
        if failures:
            self.failed += 1
            print(f"gate failure: {failures[0]}", file=sys.stderr)
        return not failures

    def check(self, failures: list[str]) -> bool:
        """A gate check that is an operation of its own."""
        self.attempted += 1
        return self.verify(failures)


class Bench:
    """One workload's state and its timed units of work.

    Every unit appends its timings to ``samples`` and books its operations
    on ``ledger``; ``schedule`` interleaves the units over the run.
    """

    def __init__(self, workload, seed: int, tmp: Path) -> None:
        self.w, self.seed, self.tmp = workload, seed, tmp
        self.ledger = Ledger()
        self.raw = run_config(workload, seed)
        self.config_path = tmp / "run.yaml"
        self.config_path.write_text(yaml.safe_dump(self.raw))
        self.tensor = decompose_tensor(workload, seed)
        self.samples = {"setup": [], "predict": [], "stream": [], "decompose": [],
                        "train": {v: [] for v in VARIANTS}}
        self.first_trace: dict = {}
        self.trained: dict = {}  # parameters from each variant's first training
        self.predicted = 0  # windows through timed batched predicts
        self.tt_error = None
        self._reference = None
        self._turn = self._window = 0

    def sample_lists(self) -> list[list[float]]:
        s = self.samples
        return [s["setup"], s["predict"], s["stream"], s["decompose"], *s["train"].values()]

    # -- set-up ----------------------------------------------------------
    def setup_unit(self) -> None:
        """Config load, dataset build, parameter init and a checkpoint round trip."""
        started = cpu_time()
        run = config.load_run_config(str(self.config_path))
        dataset = config.build_dataset(run)
        cfgs = {v: config.model_for_variant(run, v) for v in VARIANTS}
        params = {v: models.init_params(cfgs[v], run.training.seed) for v in VARIANTS}
        loaded, nbytes = {}, 0
        for v in VARIANTS:
            path = str(self.tmp / f"init_{v}.rgtn")
            checkpoint.save_checkpoint(path, params[v], {"kind": "model", "config": self.raw})
            loaded[v], _ = checkpoint.load_checkpoint(path)
            nbytes += os.path.getsize(path)
        self.samples["setup"].append(cpu_time() - started)
        self.run, self.dataset, self.cfgs, self.init = run, dataset, cfgs, params
        self.loaded, self.checkpoint_bytes = loaded, nbytes
        self.test_x, self.test_y = dataset.subset(dataset.splits.test)
        self.ledger.check([
            f"{v}: checkpoint round trip changed {k}"
            for v in VARIANTS
            for k in params[v]
            if not np.array_equal(params[v][k], loaded[v][k])
        ])

    # -- training --------------------------------------------------------
    def train_unit(self) -> None:
        """Train the next variant in turn; every repeat must match its first trace."""
        v = VARIANTS[self._turn % len(VARIANTS)]
        self._turn += 1
        started = cpu_time()
        result = self.ledger.call(f"train {v}", training.train, self.cfgs[v],
                                  self.dataset, self.run.training)
        elapsed = cpu_time() - started
        if result is None:
            return
        store, trace = result
        losses = [r["train_loss"] for r in trace] + [r["val_loss"] for r in trace]
        if not self.ledger.verify([] if np.all(np.isfinite(losses))
                                  else [f"{v}: non-finite loss"]):
            return
        self.samples["train"][v].append(elapsed)
        if v not in self.first_trace:
            self.first_trace[v] = trace
            self.trained[v] = store.values()
        else:
            self.ledger.verify(identical_traces(self.first_trace[v], trace, v))

    def train_samples_per_s(self) -> float:
        """Training samples over training time, summed over every call of every variant.

        A rate over the whole run, rather than a median of calls, moves
        smoothly with the share of the run the host spends slowed.
        """
        n_train = len(self.dataset.splits.train) * self.run.training.epochs
        times = self.samples["train"].values()
        return n_train * sum(len(t) for t in times) / sum(sum(t) for t in times)

    # -- prediction ------------------------------------------------------
    # The timed predict calls use grgtn's initial parameters after the
    # checkpoint round trip, as ``rgtn eval`` would load them; their speed
    # does not depend on the values.  ``test_error`` uses trained ones.

    def predict_split(self, variant: str, params):
        """Untimed batched predict over the test split, in chunks of ``predict_chunk``."""
        x = self.test_x
        chunk = self.w.predict_chunk or len(x)
        parts = self.ledger.call(
            f"batched predict {variant}",
            lambda: [models.predict(self.cfgs[variant], params, x[i : i + chunk])
                     for i in range(0, len(x), chunk)],
        )
        if parts is None:
            return None
        preds = np.concatenate(parts)
        if not self.ledger.verify([] if np.all(np.isfinite(preds))
                                  else [f"non-finite {variant} predictions"]):
            return None
        return preds

    def reference(self):
        """The untimed batched predictions the timed calls are checked against."""
        if self._reference is None:
            self._reference = self.predict_split("grgtn", self.loaded["grgtn"])
        return self._reference

    def predict_unit(self) -> None:
        """One timed pass of batched predict calls over the test split.

        The chunks are the reference's own, so each output must equal its
        slice of the reference bit for bit.
        """
        reference = self.reference()
        x = self.test_x
        chunk = self.w.predict_chunk or len(x)
        elapsed = 0.0
        for start in range(0, len(x), chunk):
            window = x[start : start + chunk]
            started = cpu_time()
            out = self.ledger.call("batched predict", models.predict, self.cfgs["grgtn"],
                                   self.loaded["grgtn"], window)
            elapsed += cpu_time() - started
            if out is None or not self.ledger.verify(
                    [] if reference is not None
                    and np.array_equal(out, reference[start : start + len(window)])
                    else [f"batched predict of windows {start}+ differs from reference"]):
                return
        self.samples["predict"].append(elapsed)
        self.predicted += len(x)

    def stream_unit(self, calls: int = STREAM_UNIT) -> None:
        """Batch-1 predict calls over the test windows, one caller, closed loop.

        The unit's first call runs on caches the previous phase left cold, as
        no call of a steady stream does; it is checked but not timed.  Each
        output must match the batched prediction of the same window.
        """
        reference = self.reference()
        x = self.test_x
        for i in range(calls + 1):
            k = self._window % len(x)
            self._window += 1
            started = cpu_time()
            out = self.ledger.call("stream predict", models.predict, self.cfgs["grgtn"],
                                   self.loaded["grgtn"], x[k : k + 1])
            if i:
                self.samples["stream"].append(cpu_time() - started)
            if out is not None:
                ok = (reference is not None and np.all(np.isfinite(out))
                      and np.allclose(out[0], reference[k], rtol=1e-9, atol=1e-12))
                self.ledger.verify([] if ok else [f"stream output {k} differs from batched"])

    def test_error(self) -> float | None:
        """Mean over the variants of MAE in data units (regression) or 1 - accuracy."""
        errors = []
        for v in VARIANTS:
            preds = self.predict_split(v, self.trained[v])
            if preds is None:
                return None
            if self.dataset.task == "regression":
                diff = inverse_transform_predictions(self.dataset, preds) - \
                    inverse_transform_predictions(self.dataset, self.test_y)
                errors.append(float(np.abs(diff).mean()))
            else:
                errors.append(float((preds.argmax(axis=1) != self.test_y).mean()))
        return sum(errors) / len(errors)

    # -- decomposition -----------------------------------------------------
    def decompose_unit(self, calls: int = DECOMPOSE_UNIT) -> None:
        """tt_svd plus tt_reconstruct; every reconstruction must be within tol.

        As in ``stream_unit``, the first call only warms the caches.
        """
        tol = DECOMPOSE_TOL
        norm = float(np.linalg.norm(self.tensor))
        for i in range(calls + 1):
            started = cpu_time()
            result = self.ledger.call(
                "decompose",
                lambda: tt.tt_reconstruct(
                    tt.tt_svd(rtensor.from_array(self.tensor), rel_tolerance=tol)).array,
            )
            if i:
                self.samples["decompose"].append(cpu_time() - started)
            if result is not None:
                error = float(np.linalg.norm(result - self.tensor) / norm)
                self.tt_error = error if self.tt_error is None else self.tt_error
                self.ledger.verify(tt_error_within(error, tol))

    # -- untimed checks ----------------------------------------------------
    def gate(self) -> None:
        """Finite-difference gradients and predict == forward for every variant."""
        rng = np.random.default_rng(self.seed)
        x, y = self.dataset.subset(self.dataset.splits.train[:2])
        for v in VARIANTS:
            cfg, params = self.cfgs[v], self.init[v]
            for label, check, args in (
                ("gradient check", finite_difference,
                 (cfg, self.run.training.loss, params, x, y, rng)),
                ("predict check", predict_matches_forward, (cfg, params, x)),
            ):
                failures = self.ledger.call(f"{label} {v}", check, *args)
                if failures is not None:
                    self.ledger.verify(failures)

    def peak_memory_mb(self) -> float:
        """tracemalloc peak over one epoch, one batched predict pass and one decompose."""
        tracemalloc.start()
        try:
            training.train(self.cfgs["grgtn"], self.dataset, replace(self.run.training, epochs=1))
            self.predict_split("grgtn", self.loaded["grgtn"])
            tt.tt_reconstruct(tt.tt_svd(rtensor.from_array(self.tensor),
                                        rel_tolerance=DECOMPOSE_TOL))
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()


class HostProbe:
    """Fixed interpreter and BLAS work whose duration tracks the shared host's speed.

    The host this benchmark was built on switches between a fast and a
    ~1.7x slower state for seconds at a time.  Timings are scaled to the
    speed at which the probe takes ``PROBE_REF_S``, using probes taken right
    before and after each unit of work, so that a run's numbers do not
    depend on how much of it the host spent slowed.
    """

    def __init__(self) -> None:
        self.a = np.random.default_rng(0).standard_normal((40, 40))
        self.seconds: list[float] = []

    def __call__(self) -> float:
        best = float("inf")
        for _ in range(3):
            started = cpu_time()
            for _ in range(5):
                self.a @ self.a
            total = 0
            for i in range(1000):
                total += i
            best = min(best, cpu_time() - started)
        self.seconds.append(best)
        return best


def schedule(b: Bench, probe: HostProbe, units: dict, seconds: float) -> None:
    """Interleave units of work so each phase's samples span the whole run.

    ``units`` maps a phase to (function, share of the run, minimum count).
    The next unit always goes to the phase furthest below its share; after
    ``seconds`` only phases short of their minimum count keep running.
    Samples a unit appends are scaled by the host probes around it.
    """
    spent = dict.fromkeys(units, 0.0)
    done = dict.fromkeys(units, 0)
    start = time.perf_counter()
    while True:
        over = time.perf_counter() - start >= seconds
        todo = [k for k in units if not over or done[k] < units[k][2]]
        if not todo:
            return
        phase = min(todo, key=lambda k: spent[k] / units[k][1])
        before = probe()
        counts = [len(samples) for samples in b.sample_lists()]
        started = time.perf_counter()
        units[phase][0]()
        spent[phase] += time.perf_counter() - started
        done[phase] += 1
        scale = PROBE_REF_S / ((before + probe()) / 2)
        for samples, n in zip(b.sample_lists(), counts):
            samples[n:] = [t * scale for t in samples[n:]]


def measure(b: Bench, probe: HostProbe, seconds: float) -> dict:
    """Untraced run: every end-to-end metric of one workload."""
    w = b.w
    # set-up first: every other phase needs the dataset it builds
    schedule(b, probe, {
        "setup": (b.setup_unit, w.shares["setup"], SETUP_REPS),
        "train": (b.train_unit, w.shares["train"], 2 * len(VARIANTS)),
        "predict": (b.predict_unit, w.shares["predict"], 3),
        "stream": (b.stream_unit, w.shares["stream"], -(-STREAM_MIN_CALLS // STREAM_UNIT)),
        "decompose": (b.decompose_unit, w.shares["decompose"],
                      -(-DECOMPOSE_MIN_CALLS // DECOMPOSE_UNIT)),
    }, seconds)
    if not b.predicted or len(b.trained) < len(VARIANTS) or b.tt_error is None:
        return {}
    test_error = b.test_error()
    b.gate()
    peak = b.peak_memory_mb()
    if test_error is None:
        return {}
    stream_ms = [t * 1e3 for t in b.samples["stream"]]
    decompose_ms = [t * 1e3 for t in b.samples["decompose"]]
    return {
        "setup_s": statistics.median(b.samples["setup"]),
        "train_samples_per_s": b.train_samples_per_s(),
        "predict_samples_per_s": b.predicted / sum(b.samples["predict"]),
        "predict_latency_ms_p50": percentile(stream_ms, 50),
        "predict_latency_ms_p99": percentile(stream_ms, 99),
        "peak_mem_mb": peak,
        "test_error": test_error,
        "decompose_ms_p50": percentile(decompose_ms, 50),
        "decompose_ms_p99": percentile(decompose_ms, 99),
        "tt_rel_error": b.tt_error,
        "ok_ops_frac": 1.0 - b.ledger.failed / max(b.ledger.attempted, 1),
    }


# Per-layer metrics whose numbers come from one wrapped name, by prefix; a
# metric drops out when its name was not found to wrap.
TRACED_SOURCES = {
    "autodiff.": "rgtn.autodiff.backward",
    "tensor.from_array.": "from_array",
    "training.adam_step.": "rgtn.training.adam_step",
    "models.forward.": "rgtn.training.forward",
    "models.stage": "rgtn.training.forward",
    "models.predict.": "rgtn.models.predict",
    "graph.build_time_adjacency.": "rgtn.models.build_time_adjacency",
    "tt.tt_svd.ms": "rgtn.tt.tt_svd",
    "tt.tt_reconstruct.": "rgtn.tt.tt_reconstruct",
}


def measure_traced(b: Bench, trace_path: Path) -> dict:
    """Traced run: per-layer metrics.

    Two untraced rounds of training come first; the second is the reference
    for ``trace_overhead_frac`` and the per-variant samples/s.  Then one
    pass of every phase runs under the tracer.
    """
    n = len(VARIANTS)
    b.setup_unit()
    for _ in range(2 * n):
        b.train_unit()
    if not all(len(t) == 2 for t in b.samples["train"].values()):
        return {}
    reference = {v: t[1] for v, t in b.samples["train"].items()}
    b.reference()

    tracer = tracing.Tracer()
    tracer.install()
    try:
        setup_spans = []
        for _ in range(SETUP_REPS):
            span = tracer.open("setup")
            b.setup_unit()
            setup_spans.append(tracer.close(span))
        workload_span = tracer.open(f"workload:{b.w.name}")
        for _ in range(n):
            b.train_unit()
        b.stream_unit(TRACED_STREAM_CALLS)
        b.predict_unit()
        b.decompose_unit(TRACED_DECOMPOSE_CALLS)
        tracer.close(workload_span)
    finally:
        tracer.uninstall()
    if tracing.installed():
        raise RuntimeError(f"tracer left wrappers behind: {tracing.installed()}")
    if tracer.missing:
        print(f"trace: not wrapped (metrics dropped): {tracer.missing}", file=sys.stderr)
    if not all(len(t) == 3 for t in b.samples["train"].values()):
        return {}
    traced_s = sum(t[2] for t in b.samples["train"].values())
    b.gate()
    tracer.write(str(trace_path))

    def setup_ms(name: str) -> float | None:
        if not tracer.durations(name):
            return None
        return statistics.median(
            sum(s[4] - s[3] for s in tracer.spans if s[1] == rep[0] and s[2] == name)
            for rep in setup_spans
        ) * 1e3

    def median_ms(name: str, first: int | None = None) -> float | None:
        durations = tracer.durations(name)[:first]
        return statistics.median(durations) * 1e3 if durations else None

    steps, totals = tracer.steps, tracer.totals
    if not steps:
        return {}
    per_step = lambda key, scale=1.0: totals[key] / steps * scale  # noqa: E731
    metrics = {
        "config.load_run_config.ms": setup_ms("config.load_run_config"),
        "config.build_dataset.ms": setup_ms("config.build_dataset"),
        "models.init_params.ms": setup_ms("models.init_params"),
        "checkpoint.save_checkpoint.ms": setup_ms("checkpoint.save_checkpoint"),
        "checkpoint.load_checkpoint.ms": setup_ms("checkpoint.load_checkpoint"),
        "checkpoint.bytes": float(b.checkpoint_bytes),
        "autodiff.nodes_per_step": per_step("nodes"),
        "autodiff.backward.ms": per_step("backward_s", 1e3),
        "autodiff.backward.self_ms": (totals["backward_s"] - totals["push_s"]) / steps * 1e3,
        "tensor.from_array.calls_per_step": per_step("from_array_calls"),
        "tensor.from_array.bytes_per_step": per_step("from_array_bytes"),
        "training.adam_step.ms": per_step("adam_s", 1e3),
        "models.forward.ms": per_step("forward_s", 1e3),
        # the batch-1 calls, which run before the batched ones
        "models.predict.ms": median_ms("models.predict", TRACED_STREAM_CALLS + 1),
        "graph.build_time_adjacency.calls_per_step": per_step("adjacency_calls"),
        "graph.build_time_adjacency.ms": median_ms("graph.build_time_adjacency"),
        "tt.tt_svd.ms": median_ms("tt.tt_svd"),
        "tt.tt_reconstruct.ms": median_ms("tt.tt_reconstruct"),
        "tt.tt_svd.params": float(tt.tt_param_count(
            tt.tt_svd(rtensor.from_array(b.tensor), rel_tolerance=DECOMPOSE_TOL))),
    }
    staged = 0.0
    for stage in tracing.STAGES:
        fwd, bwd = totals[f"fwd_s:{stage}"], totals[f"bwd_s:{stage}"]
        staged += fwd + bwd
        metrics[f"models.stage.{stage}.fwd_ms"] = fwd / steps * 1e3
        metrics[f"models.stage.{stage}.bwd_ms"] = bwd / steps * 1e3
        metrics[f"models.stage.{stage}.mflop_per_sample"] = (
            totals[f"flops:{stage}"] / totals["samples"] / 1e6)
    metrics["models.stage_coverage"] = staged / totals["step_s"]
    n_train = len(b.dataset.splits.train) * b.run.training.epochs
    for v in VARIANTS:
        metrics[f"training.train.{v}.samples_per_s"] = n_train / reference[v]
        metrics[f"models.parameter_count.{v}"] = float(models.param_count(b.cfgs[v])[1])
    metrics["trace_overhead_frac"] = traced_s / sum(reference.values()) - 1.0

    def wrapped(label: str) -> bool:
        return any(p == label or p.endswith("." + label) for p in tracer.patched)

    return {
        k: v for k, v in metrics.items()
        if v is not None and all(wrapped(label) for prefix, label in TRACED_SOURCES.items()
                                 if k.startswith(prefix))
    }


def run(workload: str, seed: int, seconds: float, trace: bool, thread_vars) -> int:
    """Measure one workload and print its metrics; returns the exit code."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = {m["name"]: m for m in declared["per_layer" if trace else "end_to_end"]}
    if workload not in WORKLOADS:
        print(f"error: unknown workload {workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    leftover = tracing.installed()
    if leftover:
        print(f"error: tracer wrappers installed before the run: {leftover}", file=sys.stderr)
        return 2

    # SeedSequence takes only non-negative entropy; this keeps every seed >= 0 as is
    seed %= 2**64
    print("env " + json.dumps(environment(thread_vars), sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    # a fresh name even when runs in the same checkout share a pid
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        bench = Bench(WORKLOADS[workload], seed, tmp)
        if trace:
            metrics = measure_traced(bench, OUT_DIR / f"trace-{workload}-seed{seed}.tsv.gz")
        else:
            probe = HostProbe()
            metrics = measure(bench, probe, seconds)
            median_probe = statistics.median(probe.seconds)
            print(f"host_speed {PROBE_REF_S / median_probe:.3f} (probe median "
                  f"{median_probe * 1e6:.1f} us; timings scaled to {PROBE_REF_S * 1e6:.0f} us)")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    unknown = set(metrics) - set(spec)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {name: metrics[name] for name in spec if name in metrics}
    for name, value in metrics.items():
        print(f"{name:<48} {value:>16.6g} {spec[name]['unit']:<6} {spec[name]['better']}")
    ledger = bench.ledger
    print(f"{'failed operations':<48} {ledger.failed:>16d} of {ledger.attempted}")
    correct = ledger.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed if metrics else max(ledger.failed, 1),
        "metrics": {k: {"value": v, "unit": spec[k]["unit"]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1
