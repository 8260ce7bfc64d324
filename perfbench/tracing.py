"""Span tracer that wraps ``rgtn``'s public names from outside the package.

Each name is replaced at the place where its caller looks it up (for
example ``rgtn.training.forward``, which ``train`` calls, and
``rgtn.models.forward``, which ``predict`` calls), so nothing in ``src/``
changes.  A name that does not exist is skipped and listed in ``missing``;
the metrics that depend on it drop out instead of crashing the run.

Spans (name, start, end, parent) are kept in memory and written out once,
by ``write``.  Training steps also feed per-step accumulators:

* every ``rgtn.autodiff`` op called under ``models.forward`` is assigned a
  model stage.  An op consuming a parameter node takes the parameter's
  stage (``w_x`` -> proj, ``w_r`` -> w_r, ``w_h``/``b_h`` -> rec,
  ``head.*`` -> head); the activation is ``act``; any other op is ``mix``
  (``rec`` for the rnn) before the forward's last activation and ``head``
  after it; a ``constant`` takes the stage of the first op that consumes
  it; ops under a ``*_loss`` call are ``loss``.  The adjacency build inside
  the forward counts as ``mix``.
* each gradient push of a returned node is timed as backward time of its
  op's stage, together with the gradient accumulation that follows it
  inside ``backward``.
"""

from __future__ import annotations

import gzip
import importlib
import time
from collections import defaultdict
from math import prod

STAGES = ("proj", "mix", "w_r", "rec", "act", "head", "loss")
# any other parameter (the head's cores, weight and bias) is in stage "head"
PARAM_STAGES = {"w_x": "proj", "w_r": "w_r", "w_h": "rec", "b_h": "rec"}

# Plain timed spans: (module, attribute) -> span name.  Where two modules
# hold the same function, both bindings are wrapped under one name.
PLAIN_SPANS = {
    ("rgtn.config", "load_run_config"): "config.load_run_config",
    ("rgtn.config", "build_dataset"): "config.build_dataset",
    ("rgtn.models", "init_params"): "models.init_params",
    ("rgtn.training", "init_params"): "models.init_params",
    ("rgtn.checkpoint", "save_checkpoint"): "checkpoint.save_checkpoint",
    ("rgtn.checkpoint", "load_checkpoint"): "checkpoint.load_checkpoint",
    ("rgtn.models", "predict"): "models.predict",
    ("rgtn.tt", "tt_svd"): "tt.tt_svd",
    ("rgtn.tt", "tt_reconstruct"): "tt.tt_reconstruct",
}
FORWARD_BINDINGS = (("rgtn.training", "forward"), ("rgtn.models", "forward"))
FROM_ARRAY_BINDINGS = ("rgtn.autodiff", "rgtn.graph", "rgtn.tt", "rgtn.tensor")
# Forward arithmetic per output element of elementwise ops; contractions
# count 2*M*N*K and sum_all one per input element.  Shape ops count zero.
FLOPS_PER_ELEMENT = {
    "add": 1, "subtract": 1, "multiply": 1, "scale_by": 1, "add_bias": 1,
    "tanh": 1, "sigmoid": 1, "relu": 1, "absolute": 1, "square": 1,
    "log_softmax": 4,
}


def _is_node(obj) -> bool:
    return hasattr(obj, "pushes") and hasattr(obj, "parents")


def _node_ids(args) -> list[int]:
    ids = []
    for a in args:
        if _is_node(a):
            ids.append(id(a))
        elif isinstance(a, (list, tuple)):
            ids.extend(id(n) for n in a if _is_node(n))
    return ids


def _op_flops(name: str, args, out) -> int:
    if name == "tensordot" and len(args) >= 3:
        contracted = prod(args[0].shape[i] for i in args[2])
        return 2 * prod(out.shape) * contracted
    if name == "sum_all":
        return prod(args[0].shape)
    return FLOPS_PER_ELEMENT.get(name, 0) * prod(out.shape)


def _original(fn):
    return getattr(fn, "_perfbench_original", None)


class Span(list):
    """[id, parent id, name, start, end, self seconds, stage]."""

    __slots__ = ()


class _OpRecord:
    __slots__ = ("span", "name", "inputs", "out", "stage", "flops")

    def __init__(self, span, name, inputs, out, stage, flops):
        self.span, self.name, self.inputs = span, name, inputs
        self.out, self.stage, self.flops = out, stage, flops


class _ForwardContext:
    def __init__(self, variant: str, param_stage: dict[int, str]):
        self.variant = variant
        self.param_stage = param_stage
        self.ops: list[_OpRecord] = []
        self.adjacency_s = 0.0


class Tracer:
    """Installs the wrappers, keeps the spans and sums per-step time and counts."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.patched: list[str] = []
        self._stack: list[list] = []  # open frames: [span, child seconds]
        self._patches: list[tuple] = []
        self._next_id = 0
        self._forward: _ForwardContext | None = None
        self._loss_depth = 0
        self._accum: tuple | None = None  # (op record, start) after a push
        self._step_open = False
        self.step: dict = defaultdict(float)
        self.totals: dict = defaultdict(float)
        self.steps = 0

    # -- spans ---------------------------------------------------------
    def open(self, name: str, stage: str = "") -> Span:
        parent = self._stack[-1][0][0] if self._stack else -1
        span = Span([self._next_id, parent, name, time.perf_counter(), 0.0, 0.0, stage])
        self._next_id += 1
        self._stack.append([span, 0.0])
        return span

    def close(self, span: Span) -> Span:
        end = time.perf_counter()
        while self._stack:
            top, child = self._stack.pop()
            top[4] = end
            top[5] = (end - top[3]) - child
            if self._stack:
                self._stack[-1][1] += end - top[3]
            self.spans.append(top)
            if top is span:
                break
        return span

    def _record(self, name: str, start: float, end: float, stage: str) -> None:
        """A closed leaf span that was never on the stack."""
        parent = self._stack[-1][0][0] if self._stack else -1
        self.spans.append(Span([self._next_id, parent, name, start, end, end - start, stage]))
        self._next_id += 1
        if self._stack:
            self._stack[-1][1] += end - start

    def _in_open(self, name: str) -> Span | None:
        for span, _ in reversed(self._stack):
            if span[2] == name:
                return span
        return None

    # -- installation --------------------------------------------------
    def _patch(self, owner, key, wrapper_factory, label: str) -> None:
        get = owner.get if isinstance(owner, dict) else (lambda k: getattr(owner, k, None))
        original = get(key)
        if original is None:
            self.missing.append(label)
            return
        wrapper = wrapper_factory(original)
        wrapper._perfbench_original = original
        if isinstance(owner, dict):
            owner[key] = wrapper
        else:
            setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))
        self.patched.append(label)

    def install(self) -> None:
        mod = importlib.import_module
        for (module, attr), name in PLAIN_SPANS.items():
            self._patch(mod(module), attr, self._plain(name), f"{module}.{attr}")
        for module, attr in FORWARD_BINDINGS:
            self._patch(mod(module), attr, self._forward_wrapper, f"{module}.{attr}")
        for module in FROM_ARRAY_BINDINGS:
            self._patch(mod(module), "from_array", self._from_array, f"{module}.from_array")
        training = mod("rgtn.training")
        self._patch(training, "train", self._train, "rgtn.training.train")
        self._patch(training, "adam_step", self._adam, "rgtn.training.adam_step")
        store = getattr(training, "ParamStore", None)
        if store is None:
            self.missing.append("rgtn.training.ParamStore")
        else:
            self._patch(store, "zero_grads", self._zero_grads, "ParamStore.zero_grads")
        models = mod("rgtn.models")
        self._patch(models, "build_time_adjacency", self._adjacency,
                    "rgtn.models.build_time_adjacency")
        acts = getattr(models, "_TAPE_ACTIVATIONS", None)
        if isinstance(acts, dict):
            for key in list(acts):
                self._patch(acts, key, self._op(f"act:{key}", is_act=True),
                            f"rgtn.models._TAPE_ACTIVATIONS[{key!r}]")
        else:
            self.missing.append("rgtn.models._TAPE_ACTIVATIONS")
        ad = mod("rgtn.autodiff")
        self._patch(ad, "backward", self._backward, "rgtn.autodiff.backward")
        for name in getattr(ad, "__all__", ()):
            fn = getattr(ad, name, None)
            if name == "backward" or isinstance(fn, type) or not callable(fn):
                continue
            factory = self._loss(name) if name.endswith("_loss") else self._op(name)
            self._patch(ad, name, factory, f"rgtn.autodiff.{name}")

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # -- wrappers --------------------------------------------------------
    def _plain(self, name: str):
        def factory(fn):
            def wrapped(*args, **kwargs):
                span = self.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(span)
            return wrapped
        return factory

    def _train(self, fn):
        def wrapped(model, dataset, config):
            span = self.open(f"training.train:{model.variant}")
            try:
                return fn(model, dataset, config)
            finally:
                self._step_open = False
                self.close(span)
        return wrapped

    def _open_step(self) -> None:
        if self._step_open or not self._in_train():
            return
        if self._in_open("epoch") is None:
            self.open("epoch")
        self.open("step")
        self._step_open = True
        self.step = defaultdict(float)

    def _in_train(self) -> bool:
        return any(s[2].startswith("training.train:") for s, _ in self._stack)

    def _zero_grads(self, fn):
        def wrapped(store):
            self._open_step()
            return fn(store)
        return wrapped

    def _adam(self, fn):
        def wrapped(store, config):
            span = self.open("training.adam_step")
            try:
                return fn(store, config)
            finally:
                self.close(span)
                self.step["adam_s"] += span[4] - span[3]
                self._close_step()
        return wrapped

    def _close_step(self) -> None:
        if not self._step_open:
            return
        step = self._in_open("step")
        self.close(step)
        self._step_open = False
        self.step["step_s"] += step[4] - step[3]
        for key, value in self.step.items():
            self.totals[key] += value
        self.steps += 1

    def _forward_wrapper(self, fn):
        def wrapped(config, values, x):
            staged = self._in_train() and any(_is_node(v) for v in values.values())
            if staged:
                self._open_step()
            outer = self._forward
            ctx = None
            if staged:
                ctx = _ForwardContext(
                    config.variant,
                    {id(v): PARAM_STAGES.get(k, "head") for k, v in values.items()},
                )
                self._forward = ctx
            span = self.open("models.forward")
            try:
                return fn(config, values, x)
            finally:
                self.close(span)
                self._forward = outer
                if ctx is not None:
                    self._settle(ctx)
                    self.step["forward_s"] += span[4] - span[3]
                    self.step["samples"] += len(x)
                elif self._in_train() and not self._step_open:
                    epoch = self._in_open("epoch")
                    if epoch is not None:
                        self.close(epoch)
        return wrapped

    def _settle(self, ctx: _ForwardContext) -> None:
        """Assign stages to a finished forward's ops and book them on the step."""
        last_act = max((i for i, r in enumerate(ctx.ops) if r.stage == "act"), default=-1)
        body = "rec" if ctx.variant == "rnn" else "mix"
        for i, rec in enumerate(ctx.ops):
            if rec.stage is None and rec.name != "constant":
                rec.stage = "head" if 0 <= last_act < i else body
        consumer: dict[int, str] = {}
        for rec in reversed(ctx.ops):
            for node in rec.inputs:
                if rec.stage is not None:
                    consumer[node] = rec.stage
        for i, rec in enumerate(ctx.ops):
            if rec.stage is None:
                rec.stage = consumer.get(rec.out) or ("head" if 0 <= last_act < i else body)
            rec.span[6] = rec.stage
            self.step[f"fwd_s:{rec.stage}"] += rec.span[5]
            self.step[f"flops:{rec.stage}"] += rec.flops
        self.step["fwd_s:mix"] += ctx.adjacency_s

    def _op(self, name: str, is_act: bool = False):
        kind = name.split(":")[-1]

        def factory(fn):
            def wrapped(*args, **kwargs):
                span = self.open(f"op:{name}")
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.close(span)
                if not _is_node(out):
                    return out
                if self._loss_depth:
                    stage = "loss"
                elif is_act:
                    stage = "act"
                else:
                    stage = None
                    if self._forward is not None:
                        for node in _node_ids(args):
                            if node in self._forward.param_stage:
                                stage = self._forward.param_stage[node]
                                break
                rec = _OpRecord(span, name, _node_ids(args), id(out), stage,
                                _op_flops(kind, args, out))
                if self._loss_depth:
                    span[6] = "loss"
                    if self._step_open:
                        self.step["flops:loss"] += rec.flops
                elif self._forward is not None:
                    self._forward.ops.append(rec)
                self._wrap_pushes(out, rec)
                return out
            return wrapped
        return factory

    def _loss(self, name: str):
        def factory(fn):
            def wrapped(*args, **kwargs):
                span = self.open(f"loss:{name}", "loss")
                self._loss_depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._loss_depth -= 1
                    self.close(span)
                    if self._step_open:
                        self.step["fwd_s:loss"] += span[4] - span[3]
            return wrapped
        return factory

    def _wrap_pushes(self, node, rec: _OpRecord) -> None:
        pushes = node.pushes
        if not pushes or any(getattr(p, "_perfbench_push", False) for p in pushes):
            return
        node.pushes = tuple(self._push(p, rec) for p in pushes)

    def _push(self, fn, rec: _OpRecord):
        def wrapped(g):
            self._end_accum()
            span = self.open(f"push:{rec.name}", rec.stage or "")
            try:
                return fn(g)
            finally:
                self.close(span)
                if self._step_open:
                    self.step["push_s"] += span[4] - span[3]
                    if rec.stage:
                        self.step[f"bwd_s:{rec.stage}"] += span[5]
                self._accum = (rec, span[4])
        wrapped._perfbench_push = True
        return wrapped

    def _end_accum(self) -> None:
        if self._accum is None:
            return
        rec, start = self._accum
        self._accum = None
        end = time.perf_counter()
        self._record("accum", start, end, rec.stage or "")
        if self._step_open and rec.stage:
            self.step[f"bwd_s:{rec.stage}"] += end - start

    def _backward(self, fn):
        def wrapped(root):
            if self._step_open:
                self.step["nodes"] += _count_nodes(root)
            span = self.open("autodiff.backward")
            try:
                return fn(root)
            finally:
                self._end_accum()
                self.close(span)
                if self._step_open:
                    self.step["backward_s"] += span[4] - span[3]
        return wrapped

    def _adjacency(self, fn):
        def wrapped(*args, **kwargs):
            span = self.open("graph.build_time_adjacency", "mix")
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
                if self._step_open:
                    self.step["adjacency_calls"] += 1
                    if self._forward is not None:
                        self._forward.adjacency_s += span[5]
        return wrapped

    def _from_array(self, fn):
        def wrapped(array, *args, **kwargs):
            out = fn(array, *args, **kwargs)
            if self._step_open:
                self.step["from_array_calls"] += 1
                self.step["from_array_bytes"] += getattr(getattr(out, "array", None), "nbytes", 0)
            return out
        return wrapped

    # -- output --------------------------------------------------------
    def durations(self, name: str) -> list[float]:
        return [s[4] - s[3] for s in self.spans if s[2] == name]

    def write(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\tself_s\tstage\n")
            for s in sorted(self.spans, key=lambda s: s[0]):
                fh.write(f"{s[0]}\t{s[1]}\t{s[2]}\t{s[3]!r}\t{s[4]!r}\t{s[5]!r}\t{s[6]}\n")


def _count_nodes(root) -> int:
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in getattr(stack.pop(), "parents", ()):
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def installed() -> list[str]:
    """Names of ``rgtn`` functions currently replaced by a tracer wrapper."""
    found = []
    for module in ("rgtn.config", "rgtn.models", "rgtn.training", "rgtn.checkpoint",
                   "rgtn.tt", "rgtn.autodiff", "rgtn.graph", "rgtn.tensor"):
        mod = importlib.import_module(module)
        for name, value in vars(mod).items():
            if _original(value) is not None:
                found.append(f"{module}.{name}")
    store = getattr(importlib.import_module("rgtn.training"), "ParamStore", None)
    if store is not None and _original(vars(store).get("zero_grads")) is not None:
        found.append("ParamStore.zero_grads")
    acts = getattr(importlib.import_module("rgtn.models"), "_TAPE_ACTIVATIONS", {})
    found += [f"_TAPE_ACTIVATIONS[{k!r}]" for k, v in acts.items() if _original(v) is not None]
    return found
