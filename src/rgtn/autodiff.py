"""Reverse-mode differentiation tape over plain numpy arrays.

Each operation records its inputs and one gradient-push closure per input;
``backward`` walks the graph in reverse topological order from a scalar
root and accumulates gradients into the reachable nodes.  A node can
appear as input to any number of operations.  ``backward`` keeps only the
gradients of leaves (nodes with no inputs, such as the parameters made by
``constant``): an inner node's gradient is dropped as soon as its pushes
have run, so it is freed while the walk goes on.

A plain ndarray operand of ``linear`` is data: it gets no node, no push
and no gradient, so a batch of windows costs the tape nothing; ``graph_tt``
takes its windows and the time adjacency as data only.  Each loss is one
node whose only input is the prediction (or the logits), and its push
returns the loss's gradient in closed form.  Each model stage is one node:
``filter_weight`` for grgtn's weight, ``graph_tt`` for the time mix, the
projection, its activation and the tensor-train head of grgtn and srgtn,
and ``recurrence`` for a whole RNN recurrence, so the tape does not grow
with tau.

Under ``no_tape()`` operations compute the same arrays with the same
kernels but keep no inputs or pushes, so each intermediate is freed once
its consumer returns; ``backward`` then has nothing to walk.  ``linear``
and ``graph_tt`` return before they build their backward closures.

Nodes hold their arrays without copying, and a node's gradient may be the
very array its child received, so value and gradient arrays are shared:
no operation, push or caller may write into one in place.  The exceptions
are arrays an op has just allocated and no other node holds: ``linear``
writes each row block's GEMM into its output and its backward writes the
gradient of ``x`` straight into its result.  ``graph_tt`` runs its
activation in place on each block of the hidden block ``h`` that it keeps
for its backward (one reused block without a tape), so the block is
written once and not twice; its backward writes each block's ``a0 @ dz``
into one scratch block and the activation push into a second, since a
push may not write into its own input.  ``recurrence`` writes each step's
push straight into its gradient.
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
    "linear",
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


def _value(a: TapeNode | np.ndarray) -> np.ndarray:
    return a.array if isinstance(a, TapeNode) else np.asarray(a, float)


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


def linear(x: TapeNode | np.ndarray, w: TapeNode | np.ndarray) -> TapeNode:
    """``x @ w.T`` for a 2-D ``w``, over all leading axes of ``x`` as rows.

    The output is allocated once and filled one row block of ``_BLOCK_BYTES``
    at a time.  The backward walks the same blocks: ``w``'s gradient adds up
    the GEMM of each block's gradient against the block of ``x``, and ``x``'s
    gradient block is written in place, so no output-sized temporary is
    made.  Both pushes share that walk.  The layout of ``w`` follows from its
    shape alone: below ``_SHORT_K`` columns it enters as a C-contiguous copy
    of ``w.T``, since OpenBLAS multiplies by a ``.T`` view with a short inner
    dimension about twice as slowly, and from there on as that view, which
    saves the copy.
    """
    xv, wv = _value(x), _value(w)
    if wv.ndim != 2 or xv.ndim < 2 or xv.shape[-1] != wv.shape[1]:
        raise ShapeError(f"linear needs x (..., K) of 2 or more axes and w (N, K), "
                         f"got {xv.shape} and {wv.shape}")
    n, k = wv.shape
    x2, wc = xv.reshape(-1, k), np.ascontiguousarray(wv)
    wt = np.ascontiguousarray(wc.T) if k < _SHORT_K else wc.T
    rows, step = len(x2), max(1, _BLOCK_BYTES // (8 * max(n, 1)))
    z = np.empty((rows, n))
    for lo in range(0, rows, step):
        np.matmul(x2[lo : lo + step], wt, out=z[lo : lo + step])
    out = z.reshape(xv.shape[:-1] + (n,))
    if not _recording:
        return TapeNode(out)
    x_is_node = isinstance(x, TapeNode)

    def grads(g: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
        g2, dx = g.reshape(-1, n), np.empty((rows, k)) if x_is_node else None

        def block(lo: int) -> np.ndarray:
            blk = slice(lo, lo + step)
            if x_is_node:
                np.matmul(g2[blk], wc, out=dx[blk])
            return g2[blk].T @ x2[blk]

        dw = block(0)  # also the (N, K) zeros of an empty x
        for lo in range(step, rows, step):
            dw += block(lo)
        return dx, dw

    inputs = [(node, consume) for node, consume in (
        (x, lambda d: d[0].reshape(xv.shape)),
        (w, lambda d: d[1]),
    ) if isinstance(node, TapeNode)]
    pushes = _shared(grads, [c for _, c in inputs])
    return TapeNode(out, tuple(node for node, _ in inputs), pushes)


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

# Output bytes per row block of ``linear`` and hidden-block bytes per block
# of whole windows of ``graph_tt`` (at least one window): the block of the
# output, of its gradient and a push scratch (three arrays this size) fit
# in a 2 MB L2.  Timed for ``linear``, when it still ran an activation, from
# 32 KiB to 2 MiB: 128-512 KiB were fastest, smaller blocks pay the
# per-block calls and larger ones spill out of L2.
_BLOCK_BYTES = 1 << 18
# ``linear`` copies a weight with fewer columns than this into the layout
# BLAS reads fastest (timed on one OpenBLAS thread: K <= 36 faster copied,
# K >= 48 mostly faster read through the transposed flag)
_SHORT_K = 48


def recurrence(u: TapeNode, w_h: TapeNode, b_h: TapeNode, activation: str) -> TapeNode:
    """``h_t = act(u_t + h_{t-1} w_h^T + b_h)`` from ``h_{-1} = 0``, as one node.

    ``u`` is time-major, ``(tau, batch, hidden)``; the result is the dense
    head's rows ``(batch, hidden * tau)``, time fastest.  The three pushes
    share one reverse loop of backpropagation through time, which gives the
    pre-activation gradients: these are ``u``'s gradient, ``w_h``'s is one
    GEMM of them over all steps and ``b_h``'s is their sum.
    """
    if len(u.shape) != 3 or w_h.shape != u.shape[2:] * 2 or b_h.shape != u.shape[2:]:
        raise ShapeError(f"recurrence needs (tau, batch, H), (H, H), (H,), got "
                         f"{u.shape}, {w_h.shape}, {b_h.shape}")
    fn, push = _ACTIVATIONS[activation]
    uv, w = u.array, w_h.array
    tau, batch, hidden = uv.shape  # sizes, not -1: numpy cannot infer one for 0 windows
    h = np.empty_like(uv)
    for t in range(tau):
        h[t] = fn((uv[t] if t == 0 else uv[t] + h[t - 1] @ w.T) + b_h.array)

    def bptt(g: np.ndarray) -> np.ndarray:
        g = g.reshape(batch, hidden, tau).transpose(2, 0, 1)
        dz, dh, buf = np.empty_like(h), g[-1], np.empty_like(h[0])
        for t in range(tau - 1, -1, -1):
            # a no-op assignment unless the push returned dh itself (identity)
            dz[t] = push(dh, h[t], out=dz[t])
            if t:
                dh = np.add(g[t - 1], np.matmul(dz[t], w, out=buf), out=buf)
        return dz

    def push_w(dz: np.ndarray) -> np.ndarray:
        return dz[1:].reshape(-1, hidden).T @ h[:-1].reshape(-1, hidden)

    pushes = _shared(bptt, (lambda dz: dz, push_w, lambda dz: dz.sum(axis=(0, 1))))
    return TapeNode(h.transpose(1, 2, 0).reshape(batch, hidden * tau), (u, w_h, b_h), pushes)


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
    least one): the mix, the GEMM with the activation in place, then core
    0's left product on the block as (windows, tau, P H), so only the small
    ``z1`` rows outlive it.  Contracting time first shrinks h the most
    (Novikov et al. 2015, arXiv:1509.06569) and copies no layout of it;
    cores 1 and 2 then contract (r1, P) and (r2, H) on all of ``z1``.  A
    tape keeps ``h`` and each block's input; without one, one block of ``h``
    is reused.  The five pushes share one backward: cores 2 and 1 on all
    rows, then per block ``a0 @ dz``, the activation push and the block's
    terms of the ``w`` and core-0 gradients, so the whole hidden block's
    gradient never exists.  Core 0's terms add up window after window, as
    one sum over all windows does.  ``w`` enters the GEMM as ``linear``'s.
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
    wc = np.ascontiguousarray(w.array)
    wt = np.ascontiguousarray(wc.T) if width < _SHORT_K else wc.T
    step, keep = max(1, _BLOCK_BYTES // (8 * tau * phys * hidden)), _recording
    starts = range(0, batch, step)
    h = np.empty((batch if keep else min(batch, step), tau, phys, hidden))
    z1 = np.empty((batch, o0 * r1, phys * hidden))
    inputs = []
    for lo in starts:
        xb = xv[lo : lo + step]
        k = len(xb)
        ax = (av @ xb.reshape(k, tau, phys * feat)).reshape(xb.shape)
        xin = _join_features(xb, ax) if width == 2 * feat else xb + ax
        del ax
        hb = h[lo : lo + k] if keep else h[:k]
        rows = hb.reshape(-1, hidden)
        np.matmul(xin.reshape(-1, width), wt, out=rows)
        fn(rows, out=rows)
        np.matmul(a0.T, hb.reshape(k, tau, phys * hidden), out=z1[lo : lo + k])
        if keep:
            inputs.append(xin)
    z1 = z1.reshape(batch * o0, r1 * phys, hidden)
    z2 = (a1.T @ z1).reshape(batch * o0 * o1, r2 * hidden)
    out = (z2 @ a2).reshape(batch, o0, o1, o2).transpose(0, 3, 2, 1).reshape(batch, o2 * o1 * o0)
    if not keep:
        return TapeNode(out)

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
