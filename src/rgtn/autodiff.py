"""Reverse-mode differentiation tape over plain numpy arrays.

Each operation records its inputs and one gradient-push closure per input;
``backward`` walks the graph in reverse topological order from a scalar
root and accumulates gradients into the reachable nodes.  A node can
appear as input to any number of operations.  ``backward`` keeps only the
gradients of leaves (nodes with no inputs, such as the parameters made by
``constant``): an inner node's gradient is dropped as soon as its pushes
have run, so it is freed while the walk goes on.

The windows and the time adjacency are data: ``graph_tt`` and
``recurrence`` take them as plain arrays, which get no node, no push and
no gradient, so a batch of windows costs the tape nothing.  Each loss is
one node whose only input is the prediction (or the logits), and its push
returns the loss's gradient in closed form.  Each model stage is one node:
``filter_weight`` for grgtn's weight, ``graph_tt`` for the time mix, the
projection, its activation and the tensor-train head of grgtn and srgtn,
and ``recurrence`` for the rnn's projection, its whole recurrence and its
dense head, so the tape does not grow with tau.  ``graph_tt`` and
``recurrence`` each walk blocks of whole windows that they size
themselves, in training and without a tape alike, so the same windows
give the same bits either way.

Under ``no_tape()`` operations compute the same arrays with the same
kernels but keep no inputs or pushes, so each intermediate is freed once
its consumer returns; ``backward`` then has nothing to walk.  ``graph_tt``
and ``recurrence`` then hold one block of their intermediates at a time and return
before they build their backward closures, so only their output is
batch-sized.

Nodes hold their arrays without copying, and a node's gradient may be the
very array its child received, so value and gradient arrays are shared:
no operation, push or caller may write into one in place.  The exceptions
are arrays an op has just allocated and no other node holds: ``graph_tt``
runs its activation in place on each block of the hidden block ``h`` that
it keeps for its backward, so the block is written once and not twice, and
writes each block's head products into its kept ``z1`` and ``z2``; its
backward writes each block's ``a0 @ dz`` into one scratch block and the
activation push into a second, since a push may not write into its own
input.  ``recurrence`` writes each block's states over its projection and
each step's push straight into its gradient.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

from .tensor import ShapeError

__all__ = [
    "TapeNode",
    "no_tape",
    "constant",
    "backward",
    "filter_weight",
    "graph_tt",
    "add_bias",
    "recurrence",
    "mae_loss",
    "mse_loss",
    "cross_entropy_loss",
]


_recording = True


@contextmanager
def no_tape() -> Iterator[None]:
    """Run operations without recording their inputs or gradient rules."""
    global _recording
    outer, _recording = _recording, False
    try:
        yield
    finally:
        _recording = outer


class TapeNode:
    """One value in the computation graph, with its local gradient rules."""

    __slots__ = ("array", "parents", "pushes", "grad", "__weakref__")

    def __init__(
        self,
        array: np.ndarray,
        parents: tuple["TapeNode", ...] = (),
        pushes: tuple[Callable[[np.ndarray], np.ndarray], ...] = (),
    ) -> None:
        self.array = array
        self.parents = parents if _recording else ()
        self.pushes = pushes if _recording else ()
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape


def constant(value: np.ndarray | float) -> TapeNode:
    """Leaf node over ``value`` as float64; a float64 array is not copied."""
    return TapeNode(np.asarray(value, float))


def backward(root: TapeNode) -> None:
    """Populate ``grad`` on every leaf reachable from a scalar root."""
    if root.array.size != 1:
        raise ShapeError(f"backward needs a scalar root, got shape {root.shape}")
    order: list[TapeNode] = []
    seen: set[int] = set()
    stack: list[tuple[TapeNode, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    root.grad = np.ones_like(root.array)
    for node in reversed(order):
        if node.grad is None:
            continue
        for parent, push in zip(node.parents, node.pushes):
            contribution = push(node.grad)
            parent.grad = contribution if parent.grad is None else parent.grad + contribution
        if node.parents:
            node.grad = None


def _shared(first: Callable[[np.ndarray], np.ndarray], consumers) -> tuple[Callable, ...]:
    """One push per consumer, each applied to ``first(g)``, which runs once per ``g``.

    ``backward`` runs a node's pushes one after another on the same ``g``;
    the last push drops the shared result, so a finished node keeps none.
    """
    memo: list = [None, None]  # the output gradient of the last call and first() of it

    def make(consume, last: bool) -> Callable[[np.ndarray], np.ndarray]:
        def push(g: np.ndarray) -> np.ndarray:
            if memo[0] is not g:
                memo[:] = g, first(g)
            shared = memo[1]
            if last:
                memo[:] = None, None
            return consume(shared)

        return push

    return tuple(make(c, i == len(consumers) - 1) for i, c in enumerate(consumers))


def filter_weight(w_r: TapeNode, w_x: TapeNode) -> TapeNode:
    """grgtn's projection weight ``[W_x | W_r W_x]``, ``(H, 2F)``, as one node."""
    if len(w_x.shape) != 2 or w_r.shape != (w_x.shape[0],) * 2:
        raise ShapeError(f"filter_weight needs w_r (H, H) and w_x (H, F), "
                         f"got {w_r.shape} and {w_x.shape}")
    wr, wx, f = w_r.array, w_x.array, w_x.shape[1]
    pushes = (lambda g: g[:, f:] @ wx.T, lambda g: g[:, :f] + wr.T @ g[:, f:])
    return TapeNode(np.concatenate((wx, wr @ wx), axis=1), (w_r, w_x), pushes)


def add_bias(x: TapeNode, b: TapeNode) -> TapeNode:
    """Add a bias over the trailing axes of x, summing its gradient back."""
    k = len(b.shape)
    if k == 0 or x.shape[x.array.ndim - k :] != b.shape:
        raise ShapeError(f"bias {b.shape} does not match trailing axes of {x.shape}")
    lead = tuple(range(x.array.ndim - k))
    return TapeNode(
        x.array + b.array,
        (x, b),
        (lambda g: g, lambda g: g.sum(axis=lead) if lead else g),
    )


def _tanh_push(g: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # g * (1 - y^2), one ufunc at a time in one array
    d = np.multiply(y, y, out=out)
    np.subtract(1.0, d, out=d)
    d *= g
    return d


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # 1 / (1 + exp(-z)), one ufunc at a time so that out may be z itself
    out = np.negative(z, out=out)
    np.exp(out, out=out)
    np.add(1.0, out, out=out)
    return np.divide(1.0, out, out=out)


def _sigmoid_push(g: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # g * y * (1 - y), left to right
    d = np.multiply(g, y, out=out)
    d *= 1.0 - y
    return d


# name -> (function(z, out=None), push(g, y, out=None): the input gradient for
# output gradient g given the output y, written into out if one is given,
# except that the identity returns g itself); each function gives the same
# bits with out=z as without, and each push the same bits with out as without
_ACTIVATIONS = {
    "tanh": (np.tanh, _tanh_push),
    "sigmoid": (_sigmoid, _sigmoid_push),
    "relu": (lambda z, out=None: np.maximum(z, 0.0, out=out),
             lambda g, y, out=None: np.multiply(g, y > 0.0, out=out)),
    "identity": (lambda z, out=None: z, lambda g, y, out=None: g),
}

# Hidden-block bytes per block of whole windows of ``graph_tt`` (at least
# one window): the block, its gradient and a push scratch (three arrays this
# size) fit in a 2 MB L2.  Timed for the rnn's projection GEMM with its
# activation, from 32 KiB to 2 MiB: 128-512 KiB were fastest, smaller blocks
# pay the per-block calls and larger ones spill out of L2.
_BLOCK_BYTES = 1 << 18
# A weight with fewer columns than this enters a GEMM as a copy in the layout
# BLAS reads fastest (timed on one OpenBLAS thread: K <= 36 faster copied,
# K >= 48 mostly faster read through the transposed flag)
_SHORT_K = 48


def _gemm_weight(w: np.ndarray) -> np.ndarray:
    """An (N, K) weight, in any layout, as the right operand of ``x @ w.T``.

    Below ``_SHORT_K`` columns it is a C-contiguous copy of ``w.T``, since
    OpenBLAS multiplies by a ``.T`` view with a short inner dimension about
    twice as slowly; from there on it is that view of a C-contiguous ``w``,
    which saves the copy.
    """
    wc = np.ascontiguousarray(w)
    return np.ascontiguousarray(wc.T) if wc.shape[1] < _SHORT_K else wc.T


def _join_features(x: np.ndarray, ax: np.ndarray) -> np.ndarray:
    """``concatenate((x, ax), -1)``, copying F-float rows as single items (2x faster)."""
    row = np.dtype((np.void, x.shape[-1] * x.itemsize))
    out = np.empty(x.shape[:-1] + (2 * x.shape[-1],))
    halves = out.view(row)
    halves[..., :1], halves[..., 1:] = np.ascontiguousarray(x).view(row), ax.view(row)
    return out


def graph_tt(
    x: np.ndarray,
    a: np.ndarray,
    w: TapeNode,
    cores: Sequence[TapeNode],
    activation: str = "identity",
) -> TapeNode:
    """grgtn's and srgtn's graph filter and tensor-train head, as one node.

    ``x`` (batch, tau, P, F) and the time adjacency ``a`` (tau, tau) are
    data.  A acts on time and the weight on features, so the mix runs on
    the input: ``h = act([x | A x] w^T)`` for an ``(H, 2F)`` weight (grgtn's
    ``[W_x | W_r W_x]``, joined at the narrow width, not summed after two
    hidden-width GEMMs) and ``act((x + A x) w^T)`` for an ``(H, F)`` one.
    Core k, ``(r_k, n_k, o_k, r_k+1)`` with ``r_0 = r_3 = 1``, is the matrix
    ``(r_k n_k, o_k r_k+1)``; the result is ``(batch, o0 o1 o2)``, first
    output mode fastest.

    The op walks blocks of ``_BLOCK_BYTES // (8 tau P H)`` whole windows (at
    least one): the mix, the GEMM with the activation in place, core 0's
    left product on the block as (windows, tau, P H), then cores 1 and 2,
    which contract (r1, P) and (r2, H), and the block's output rows.
    Contracting time first shrinks h the most (Novikov et al. 2015,
    arXiv:1509.06569) and copies no layout of it.  A tape keeps ``h``, the
    head's ``z1`` and ``z2`` whole and each block's input; without one, one
    block of each is reused, so only the output is batch-sized.  The five
    pushes share one backward: cores 2 and 1 on all rows, then per block
    ``a0 @ dz``, the activation push and the block's terms of the ``w`` and
    core-0 gradients, so the whole hidden block's gradient never exists.
    Core 0's terms add up window after window, as one sum over all windows
    does.  ``w`` enters the GEMM by ``_gemm_weight``.
    """
    if isinstance(x, TapeNode) or isinstance(a, TapeNode):
        raise ShapeError("graph_tt takes x and a as data only, got a node operand")
    xv, av = np.asarray(x, float), np.asarray(a, float)
    shapes = [c.shape for c in cores]
    if (xv.ndim != 4 or av.shape != (xv.shape[1],) * 2 or len(w.shape) != 2
            or w.shape[1] not in (xv.shape[3], 2 * xv.shape[3])
            or len(shapes) != 3 or any(len(s) != 4 for s in shapes)
            or tuple(s[1] for s in shapes) != xv.shape[1:3] + w.shape[:1]
            or [1] + [s[3] for s in shapes] != [s[0] for s in shapes] + [1]):
        raise ShapeError(f"graph_tt needs x (batch, tau, P, F), a (tau, tau), w (H, F) or "
                         f"(H, 2F) and cores (r_k, n_k, o_k, r_k+1) over (tau, P, H) chained "
                         f"from rank 1 to rank 1, got {xv.shape}, {av.shape}, {w.shape} "
                         f"and {shapes}")
    (batch, tau, phys, feat), (hidden, width) = xv.shape, w.shape
    (o0, o1, o2), r1, r2 = (s[2] for s in shapes), shapes[1][0], shapes[2][0]
    a0, a1, a2 = (c.array.reshape(n, -1) for c, n in zip(cores, (tau, r1 * phys, r2 * hidden)))
    fn, act_push = _ACTIVATIONS[activation]
    wt = _gemm_weight(w.array)
    step, keep = max(1, _BLOCK_BYTES // (8 * tau * phys * hidden)), _recording
    starts, held = range(0, batch, step), batch if keep else min(batch, step)
    h = np.empty((held, tau, phys, hidden))
    z1, z2 = np.empty((held, o0 * r1, phys * hidden)), np.empty((held * o0, o1 * r2, hidden))
    # core 2's products, (windows o0 o1, o2), turned first output mode fastest at the end
    y, inputs = np.empty((batch * o0 * o1, o2)), []
    for lo in starts:
        xb = xv[lo : lo + step]
        k, at = len(xb), lo if keep else 0
        ax = (av @ xb.reshape(k, tau, phys * feat)).reshape(xb.shape)
        xin = _join_features(xb, ax) if width == 2 * feat else xb + ax
        del ax
        hb, z1b, z2b = h[at : at + k], z1[at : at + k], z2[at * o0 : (at + k) * o0]
        rows = hb.reshape(-1, hidden)
        np.matmul(xin.reshape(-1, width), wt, out=rows)
        fn(rows, out=rows)
        np.matmul(a0.T, hb.reshape(k, tau, phys * hidden), out=z1b)
        np.matmul(a1.T, z1b.reshape(k * o0, r1 * phys, hidden), out=z2b)
        np.matmul(z2b.reshape(k * o0 * o1, r2 * hidden), a2,
                  out=y[lo * o0 * o1 : (lo + k) * o0 * o1])
        if keep:
            inputs.append(xin)
    out = y.reshape(batch, o0, o1, o2).transpose(0, 3, 2, 1).reshape(batch, o2 * o1 * o0)
    if not keep:
        return TapeNode(out)
    z1, z2 = z1.reshape(batch * o0, r1 * phys, hidden), z2.reshape(batch * o0 * o1, r2 * hidden)

    def grads(g: np.ndarray) -> tuple[np.ndarray, ...]:
        g3 = g.reshape(batch, o2, o1, o0).transpose(0, 3, 2, 1).reshape(batch * o0 * o1, o2)
        dz = (g3 @ a2.T).reshape(batch * o0, o1 * r2, hidden)
        d2 = z2.T @ g3
        del g3
        d1 = (z1 @ np.swapaxes(dz, -1, -2)).sum(axis=0)
        dz = (a1 @ dz).reshape(batch, o0 * r1, phys * hidden)
        n = min(batch, step)
        # terms[0] holds core 0's sum over the windows so far, ahead of the block's
        terms, dw = np.zeros((n + 1, tau, o0 * r1)), np.zeros((hidden, width))
        dh, push_out = np.empty((n, tau, phys * hidden)), np.empty((n * tau * phys, hidden))
        for lo, xin in zip(starts, inputs):
            k = len(xin)
            hb, dzb = h[lo : lo + k], dz[lo : lo + k]
            np.matmul(hb.reshape(k, tau, phys * hidden), np.swapaxes(dzb, -1, -2),
                      out=terms[1 : k + 1])
            terms[0] = terms[: k + 1].sum(axis=0)
            np.matmul(a0, dzb, out=dh[:k])
            d = act_push(dh[:k].reshape(-1, hidden), hb.reshape(-1, hidden),
                         out=push_out[: k * tau * phys])
            dw += d.T @ xin.reshape(-1, width)
        return dw, terms[0], d1, d2

    pushes = _shared(grads, [lambda d, k=k, s=s: d[k].reshape(s) for k, s in
                             enumerate([w.shape] + shapes)])
    return TapeNode(out, (w, *cores), pushes)


# ``recurrence`` walks blocks of whole windows (at least one) sized by 16
# times ``_BLOCK_BYTES`` over ``8 tau (P F + 3 H)`` bytes a window: the
# time-major copy of x, the projection, the states and the head's rows, as
# when the rule was swept (the states now overwrite the projection).  Swept
# as ``predict``'s blocks for every variant at 1, 2, 4, 8 and 16 MiB and at
# one block per batch, at predict-stream's shape (1024 windows) and
# wide-train's (256), on one OpenBLAS thread (process CPU, best of 7): 1-4
# MiB tie within noise; 8 MiB is up to 35% slower (rnn) and 16 MiB up to
# 40%; one block per batch is 50-85% slower (grgtn, srgtn) and takes 15x the
# memory of 4 MiB blocks.  A wide-train training batch of 64 windows runs as
# blocks of 36 and 28, and bench_synth's as one.


def recurrence(
    x: np.ndarray,
    w_x: TapeNode,
    w_h: TapeNode,
    b_h: TapeNode,
    w: TapeNode,
    activation: str,
) -> TapeNode:
    """The rnn's projection, recurrence and dense head, as one node.

    ``x`` (batch, tau, P, F) is data.  Step t reads its (P, F) slice
    flattened physical index fastest, ``h_t = act(W_x x_t + W_h h_{t-1} +
    b_h)`` from ``h_{-1} = 0``, and the result is ``rows @ w^T``,
    ``(batch, N)``, for the dense head's rows ``(batch, H tau)``, time
    fastest.

    The op walks blocks of whole windows (sized above): per block one
    GEMM projects a time-major copy of x for all steps, the steps write
    their states over it, and one GEMM maps the block's rows to its output
    rows.  A tape keeps each block's copy of x, states and rows; without
    one, only the output is batch-sized.  The four pushes share one
    backward, which walks the same blocks: the rows' gradient, one reverse
    loop of backpropagation through time for the pre-activation gradients
    ``dz``, then the block's terms of every weight gradient: ``dz`` against
    x for ``w_x``, against the previous states for ``w_h``, their sum for
    ``b_h`` and the output gradient against the rows for ``w``.
    """
    if isinstance(x, TapeNode):
        raise ShapeError("recurrence takes x as data only, got a node operand")
    xv = np.asarray(x, float)
    if (xv.ndim != 4 or len(w_x.shape) != 2 or len(w.shape) != 2
            or w_x.shape[1] != xv.shape[2] * xv.shape[3]
            or w_h.shape != w_x.shape[:1] * 2 or b_h.shape != w_x.shape[:1]
            or w.shape[1] != w_x.shape[0] * xv.shape[1]):
        raise ShapeError(f"recurrence needs x (batch, tau, P, F), w_x (H, P F), w_h (H, H), "
                         f"b_h (H,) and w (N, H tau), got {xv.shape}, {w_x.shape}, "
                         f"{w_h.shape}, {b_h.shape} and {w.shape}")
    (batch, tau, _, _), (hidden, pf), n = xv.shape, w_x.shape, w.shape[0]
    fn, act_push = _ACTIVATIONS[activation]
    wxt, wh, bh = _gemm_weight(w_x.array), w_h.array, b_h.array
    wc = np.ascontiguousarray(w.array)
    wt = _gemm_weight(wc)
    step = max(1, 16 * _BLOCK_BYTES // (8 * tau * (pf + 3 * hidden)))
    # one block of no windows gives zero gradients of the right shapes
    starts, out, kept = range(0, max(batch, 1), step), np.empty((batch, n)), []
    for lo in starts:
        xb = xv[lo : lo + step]
        k = len(xb)  # sizes, not -1: numpy cannot infer one for 0 windows
        flat = xb.transpose(1, 0, 3, 2).reshape(tau * k, pf)
        h = (flat @ wxt).reshape(tau, k, hidden)
        for t in range(tau):
            h[t] = fn((h[t] if t == 0 else h[t] + h[t - 1] @ wh.T) + bh)
        rows = h.transpose(1, 2, 0).reshape(k, hidden * tau)
        np.matmul(rows, wt, out=out[lo : lo + k])
        if _recording:
            kept.append((flat, h, rows))
        del flat, h, rows  # before the next block's are made
    if not _recording:
        return TapeNode(out)

    def grads(g: np.ndarray) -> list[np.ndarray]:
        d = None
        for lo, (flat, h, rows) in zip(starts, kept):
            k = len(rows)
            gb = g[lo : lo + k]
            dr = (gb @ wc).reshape(k, hidden, tau).transpose(2, 0, 1)
            dz, dh, buf = np.empty_like(h), dr[-1], np.empty_like(h[0])
            for t in range(tau - 1, -1, -1):
                # a no-op assignment unless the push returned dh itself (identity)
                dz[t] = act_push(dh, h[t], out=dz[t])
                if t:
                    dh = np.add(dr[t - 1], np.matmul(dz[t], wh, out=buf), out=buf)
            terms = [dz.reshape(-1, hidden).T @ flat,
                     dz[1:].reshape(-1, hidden).T @ h[:-1].reshape(-1, hidden),
                     dz.sum(axis=(0, 1)), gb.T @ rows]
            d = terms if d is None else [a + b for a, b in zip(d, terms)]
        return d

    pushes = _shared(grads, [lambda d, i=i: d[i] for i in range(4)])
    return TapeNode(out, (w_x, w_h, b_h, w), pushes)


def _residual(pred: TapeNode, target: np.ndarray, name: str) -> tuple[np.ndarray, float]:
    """``pred - target`` and ``1 / n`` for a loss over n entries."""
    target = np.asarray(target, float)
    if pred.array.size == 0:
        raise ValueError(f"{name} on an empty batch")
    if target.shape != pred.shape:
        raise ShapeError(f"{name} needs a target of shape {pred.shape}, got {target.shape}")
    return pred.array - target, 1.0 / pred.array.size


def mae_loss(pred: TapeNode, target: np.ndarray) -> TapeNode:
    """Mean absolute error; its gradient is ``sign(pred - target) / n``."""
    d, inv_n = _residual(pred, target, "mae_loss")
    return TapeNode(np.abs(d).sum() * inv_n, (pred,), (lambda g: np.sign(d) * (g * inv_n),))


def mse_loss(pred: TapeNode, target: np.ndarray) -> TapeNode:
    """Mean squared error; its gradient is ``2 (pred - target) / n``."""
    d, inv_n = _residual(pred, target, "mse_loss")
    return TapeNode((d * d).sum() * inv_n, (pred,), (lambda g: d * (g * inv_n * 2.0),))


def cross_entropy_loss(logits: TapeNode, labels: np.ndarray) -> TapeNode:
    """Mean negative log-likelihood of integer labels under row softmax.

    Its gradient is ``(softmax(logits) - onehot(labels)) / n``.
    """
    labels = np.asarray(labels)
    n, k = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels must be ({n},), got {labels.shape}")
    if n == 0:
        raise ValueError("cross_entropy_loss on an empty batch")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels must lie in [0, {k})")
    z = logits.array
    shifted = z - z.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    rows = np.arange(n)
    scale = -1.0 / n

    def push(g: np.ndarray) -> np.ndarray:
        c = g * scale
        grad = np.exp(log_probs) * -c
        grad[rows, labels] += c
        return grad

    return TapeNode(log_probs[rows, labels].sum() * scale, (logits,), (push,))
