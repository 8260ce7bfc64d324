"""Exact per-call counts of ``predict`` and of a training chunk, pinned in ``counts.json``.

For each variant at the shape of each benchmark workload, one batch-1
``predict``, one training chunk of a batch of 64 windows (the forward,
the loss and ``backward`` of the chunk's gathered windows, as
``training.train`` sizes and runs it) and one ``predict`` of a 256-window
split must make the pinned number of C calls and reach the pinned
tracemalloc peak in bytes.  At small-train's shape a grgtn or srgtn chunk
is one block of ``graph_tt``; at the others it is four.  An rnn chunk is
one block of ``recurrence`` (36 windows at wide-train's shape).  The split
is 2 ``graph_tt`` blocks at small-train's shape, 256 at wide-train's and
64 at predict-stream's, so it takes the kernel's buffers allocated ahead.
Both counts repeat exactly, so a change that adds a call or keeps an array
alive longer shows as a diff of ``counts.json``, where a timing would hide
it in its noise.

The C calls are the ``c_call`` events of ``sys.setprofile``, the call that
ends the count included.  The count sees calls of builtin functions and
methods (``np.empty``, ``ndarray.reshape``, ``len``), not operators (``@``,
``+=``) and not ufunc calls (``np.matmul``, ``np.tanh``): it is a floor of
the NumPy work, not all of it.  Both are taken after a first call has
filled every cache, the peak with the collector off.

The pins hold for one Python minor and NumPy major.minor each, under the
key ``python X.Y, numpy A.B``.  On a pair with no pins the test checks only
that two runs in one process agree.  A change that moves a count writes the
pins of its own pair again with ``PYTHONPATH=src python
tests/test_counts.py`` and lists old -> new.
"""

import gc
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rgtn import autodiff as ad
from rgtn.models import VARIANTS, HeadConfig, ModelConfig, forward, init_params, predict
from rgtn.training import _chunk_windows

PINS = Path(__file__).with_name("counts.json")
VERSIONS = "python {}.{}, numpy {}".format(*sys.version_info[:2],
                                           ".".join(np.__version__.split(".")[:2]))

# the model shapes of perfbench/workloads.py
SHAPES = {
    "small-train": dict(tau=6, d_phys=4, d_feat=3, hidden=8, out_dim=12, activation="identity",
                        head=HeadConfig(ranks=(2, 2), out_modes=(1, 4, 3))),
    "wide-train": dict(tau=64, d_phys=16, d_feat=8, hidden=32, out_dim=2, activation="tanh",
                       head=HeadConfig(ranks=(4, 4), out_modes=(1, 1, 2))),
    "predict-stream": dict(tau=64, d_phys=8, d_feat=4, hidden=16, out_dim=32,
                           activation="tanh", head=HeadConfig(ranks=(2, 2), out_modes=(1, 8, 4))),
}
CASES = [f"{kind}/{shape}/{v}" for kind in ("predict", "chunk", "split") for shape in SHAPES
         for v in VARIANTS]


def call(case: str):
    """The call that ``case`` names, on fixed inputs."""
    kind, shape, variant = case.split("/")
    cfg = ModelConfig(variant=variant, **SHAPES[shape])
    values = init_params(cfg, seed=1)
    rng = np.random.default_rng(2)
    if kind != "chunk":
        windows = 1 if kind == "predict" else 256
        x = rng.standard_normal((windows, cfg.tau, cfg.d_phys, cfg.d_feat))
        return lambda: predict(cfg, values, x)
    inputs = rng.standard_normal((100, cfg.tau, cfg.d_phys, cfg.d_feat))
    targets = rng.standard_normal((100, cfg.out_dim))
    part = rng.permutation(100)[: min(64, _chunk_windows(cfg))]

    def chunk():
        nodes = {name: ad.constant(value) for name, value in values.items()}
        loss = ad.mae_loss(forward(cfg, nodes, inputs[part]), targets[part], rows=64)
        float(loss.array)
        ad.backward(loss)

    return chunk


def counts(fn) -> dict:
    """``fn``'s C calls and tracemalloc peak, after one call to warm it."""
    fn()
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "c_call"

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    return {"c_calls": calls, "peak_bytes": peak}


@pytest.mark.parametrize("case", CASES)
def test_counts_are_pinned(case):
    got = counts(call(case))
    pins = json.loads(PINS.read_text()).get(VERSIONS)
    if pins is None:
        assert counts(call(case)) == got
    else:
        assert got == pins[case]


if __name__ == "__main__":
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    pins[VERSIONS] = {case: counts(call(case)) for case in CASES}
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"{PINS}: {VERSIONS}")
