"""Reverse-mode differentiation tape over plain numpy arrays.

Each operation records its inputs and one gradient-push closure per input.
Every model is one body op and its loss: ``graph_tt`` for grgtn and srgtn
(the time mix, the projection, grgtn's ``W_r``, the activation, the
tensor-train head and the bias) and ``recurrence`` for the rnn (the
projection, the whole recurrence, the dense head and the bias), so the
tape does not grow with tau.  The chain each chunk of a training step
records is thus ``loss -> body op -> parameters``, and ``backward`` walks
it with a stack from a scalar root: each node runs its pushes on its output
gradient, and each parameter (a leaf, made by ``constant``) adds what
reaches it to its ``grad``, so leaves shared by a step's chunks sum their
gradients.  No inner node keeps a gradient.

The windows and the time adjacency are data: ``graph_tt`` and
``recurrence`` take them as plain arrays, which get no node, no push and
no gradient, so a batch of windows costs the tape nothing; grgtn's
``graph_tt`` backward reads its windows again, so its tape keeps them, and
srgtn's does not.  Each loss is one node whose only input is the
prediction (or the logits), and its push returns the loss's gradient in
closed form.

Each body op is a forward kernel over plain arrays plus a backward:
``graph_tt_kernel`` and ``recurrence_kernel`` compute the output, and
return what the backward reads only when asked to keep it.  ``graph_tt``
and ``recurrence`` take their operands as ``models.forward`` passes them,
float64 windows and parameter nodes whose shapes it has checked against
``models.param_shapes``; each calls its kernel with ``keep`` and builds
its pushes over what the kernel kept.  ``models.predict`` calls the
kernels alone, so a prediction builds no node and each kernel holds one
block of its intermediates at a time.  The kernels walk blocks of whole
windows that they size themselves, taped or not, so the same windows
give the same bits either way.  They are not in ``__all__``: it lists the
tape's ops, each of which returns a node, and ``perfbench/tracing.py``
times every callable in it as one.

Nodes hold their arrays without copying, and a node's gradient may be the
very array its child received, so value and gradient arrays are shared:
no operation, push or caller may write into one in place.  The exceptions
are arrays an op has just allocated and no other node holds: ``graph_tt``
adds srgtn's x into each block's ``A x``, and runs its activation in place
on each block of the hidden block ``h`` that it keeps for its backward, so
the block is written once and not twice.  A batch of several blocks writes
each block's ``h``, head products ``z1`` and ``z2`` and output rows into
buffers allocated ahead, and its backward writes each block's ``a0 @ dz``
into one scratch block and the activation push into a second, since a
push may not write into its own input; a batch that fits one block, such
as a batch-1 ``predict``, allocates none of these and takes each GEMM's
and the push's own result.  ``recurrence`` writes each block's states
over its projection and each step's push straight into its gradient.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "TapeNode",
    "constant",
    "backward",
    "graph_tt",
    "recurrence",
    "mae_loss",
    "mse_loss",
    "cross_entropy_loss",
]


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
        self.parents = parents
        self.pushes = pushes
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape


def constant(value: np.ndarray | float) -> TapeNode:
    """Leaf node over ``value`` as float64; a float64 array is not copied."""
    return TapeNode(np.asarray(value, float))


def backward(root: TapeNode) -> None:
    """Populate ``grad`` on every leaf reachable from a scalar root, by a stack walk.

    The root is a loss node, whose value is a scalar.  Pushes are linear in
    the gradient, so a node reached twice (a leaf in two slots of an op)
    gets the sum of its contributions, as from one visit.  A leaf keeps its
    ``grad`` between calls, so a leaf under several roots (one per chunk of
    a training step) gets the sum of their gradients.
    """
    stack = [(root, np.ones_like(root.array))]
    while stack:
        node, g = stack.pop()
        if not node.parents:
            node.grad = g if node.grad is None else node.grad + g
        for parent, push in zip(node.parents, node.pushes):
            stack.append((parent, push(g)))


def _shared(grads: Callable[[np.ndarray], list], count: int) -> tuple[Callable, ...]:
    """``count`` pushes, push i returning ``grads(g)[i]``; ``grads`` runs once per ``g``.

    ``backward`` runs a node's pushes one after another on the same ``g``;
    the last push drops the shared result, so a finished node keeps none.
    """
    memo: list = [None, None]  # the output gradient of the last call and grads() of it

    def make(i: int) -> Callable[[np.ndarray], np.ndarray]:
        def push(g: np.ndarray) -> np.ndarray:
            if memo[0] is not g:
                memo[:] = g, grads(g)
            d = memo[1][i]
            if i == count - 1:
                memo[:] = None, None
            return d

        return push

    return tuple(make(i) for i in range(count))


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


def graph_tt_kernel(
    x: np.ndarray,
    a: np.ndarray,
    w_x: np.ndarray,
    w_r: np.ndarray | None,
    cores: Sequence[np.ndarray],
    bias: np.ndarray,
    activation: str,
    keep: bool = False,
) -> np.ndarray | tuple[np.ndarray, tuple]:
    """``graph_tt``'s forward over plain arrays, whose shapes the caller has checked.

    ``x`` (batch, tau, P, F) and the time adjacency ``a`` (tau, tau) are
    data.  A acts on time and the weights on features, so the mix runs on
    the input: grgtn (``w_r`` given) is ``h = act((A x) M^T + x W_x^T)``
    for ``M = W_r W_x``, srgtn (``w_r`` None) ``act((x + A x) M^T)`` for
    ``M = W_x``.  Core k, ``(r_k, n_k, o_k, r_k+1)`` with ``r_0 = r_3 =
    1``, is the matrix ``(r_k n_k, o_k r_k+1)``; the result is the head's
    ``(batch, o0 o1 o2)``, first output mode fastest, plus ``bias``.

    The kernel walks blocks of ``_BLOCK_BYTES // (8 tau P H)`` whole windows
    (at least one): the mix, the GEMM by ``M`` and grgtn's ``x W_x^T`` as a
    temporary of the block, each weight by ``_gemm_weight``, the activation
    in place, core 0's left product on the block as (windows, tau, P H),
    then cores 1 and 2, which contract (r1, P) and (r2, H), and the block's
    output rows.
    Contracting time first shrinks h the most (Novikov et al. 2015,
    arXiv:1509.06569) and copies no layout of it.  A batch that fits one
    block is that block: its ``h``, ``z1``, ``z2`` and output rows are the
    GEMMs' own fresh arrays.  A larger batch writes each block into buffers
    allocated ahead, one block of ``h``, ``z1`` and ``z2`` reused, so only
    the output is batch-sized: a fresh 256 KiB block can be a new mapping
    whose every page faults.  With fresh arrays per block (``ru_minflt`` in
    process, one OpenBLAS thread, Xeon), a taped wide-train chunk of 4
    windows took 516 minor faults a call, not 0, and 1.8 ms, not 0.97; a
    1,024-window predict at predict-stream's shape 28,848, not 224, and 64
    ms, not 29.  Either way a block of windows runs the same calls on the
    same operands, and gets the same bits.  With ``keep`` they are kept
    whole and the result is ``(out, (h, z1, z2, inputs))``, what the
    backward reads, with ``h`` as (batch, tau, P H) and ``inputs`` each
    block's input to ``M``, as wide as x.
    """
    (batch, tau, phys, feat), hidden = x.shape, w_x.shape[0]
    (o0, o1, o2), r1, r2 = (c.shape[2] for c in cores), cores[1].shape[0], cores[2].shape[0]
    a0, a1, a2 = (c.reshape(c.shape[0] * c.shape[1], -1) for c in cores)
    fn = _ACTIVATIONS[activation][0]
    wt = _gemm_weight(w_x)
    mt = wt if w_r is None else _gemm_weight(w_r @ w_x)
    inputs: list[np.ndarray] = []

    def block(xb, k, h=None, z1=None, z2=None, y=None):
        # k windows' h, z1, z2 and output rows, into the buffers given; with keep
        # their input to M goes to inputs, else it goes before grgtn's x W_x^T is made
        ax = (a @ xb.reshape(k, tau, phys * feat)).reshape(-1, feat)
        if w_r is None:
            ax += xb.reshape(-1, feat)
        rows = np.matmul(ax, mt, out=h)
        if keep:
            inputs.append(ax)
        del ax
        if w_r is not None:  # a scratch block held for the call would raise predict's peak
            rows += xb.reshape(-1, feat) @ wt
        fn(rows, out=rows)
        h = rows.reshape(k, tau, phys * hidden)
        z1 = np.matmul(a0.T, h, out=z1)
        z2 = np.matmul(a1.T, z1.reshape(k * o0, r1 * phys, hidden), out=z2)
        return h, z1, z2, np.matmul(z2.reshape(k * o0 * o1, r2 * hidden), a2, out=y)

    step = _graph_block(tau, phys, hidden)
    if batch <= step:
        h, z1, z2, y = block(x, batch)
    else:
        held = batch if keep else step
        h = np.empty((held, tau, phys * hidden))
        z1, z2 = np.empty((held, o0 * r1, phys * hidden)), np.empty((held * o0, o1 * r2, hidden))
        # core 2's products, (windows o0 o1, o2), turned first output mode fastest at the end
        y = np.empty((batch * o0 * o1, o2))
        for lo in range(0, batch, step):
            xb = x[lo : lo + step]
            k, at = len(xb), lo if keep else 0
            block(xb, k, h[at : at + k].reshape(-1, hidden), z1[at : at + k],
                  z2[at * o0 : (at + k) * o0], y[lo * o0 * o1 : (lo + k) * o0 * o1])
    out = y.reshape(batch, o0, o1, o2).transpose(0, 3, 2, 1).reshape(batch, o2 * o1 * o0)
    # a new array: in place ran 5% slower on predict-stream's training and predicts,
    # though not in-process, so from the heap state one allocation fewer leaves
    out = out + bias
    if not keep:
        return out
    return out, (h, z1.reshape(batch * o0, r1 * phys, hidden),
                 z2.reshape(batch * o0 * o1, r2 * hidden), inputs)


def _graph_block(tau: int, phys: int, hidden: int) -> int:
    """Windows in a block of ``graph_tt``: its hidden block fits ``_BLOCK_BYTES``."""
    return max(1, _BLOCK_BYTES // (8 * tau * phys * hidden))


def graph_tt(
    x: np.ndarray,
    a: np.ndarray,
    w_x: TapeNode,
    w_r: TapeNode | None,
    cores: Sequence[TapeNode],
    bias: TapeNode,
    activation: str,
) -> TapeNode:
    """grgtn's and srgtn's graph filter, tensor-train head and bias, as one node.

    ``graph_tt_kernel`` computes the output and keeps ``h``, the head's
    ``z1`` and ``z2`` and each block's input to ``M``.  The pushes share
    one backward: cores 2 and 1 on all rows, then per block ``a0 @ dz``,
    the activation push ``d`` and the block's terms of ``dM`` (``d^T``
    times the kept input), grgtn's ``d^T x`` (from the windows) and core 0,
    so the whole hidden block's gradient never exists.  Core 0's terms add
    up window after window, as one sum over all windows does.  A batch of
    one block takes its block's sums as they are; a larger one adds each
    block's into sums that start at zero.  grgtn gets
    ``dW_x = d^T x + W_r^T dM`` and ``dW_r = dM W_x^T``, srgtn ``dW_x =
    dM``, and ``bias`` the output gradient summed over the windows.  The
    backward returns each gradient in its parameter's shape, in the order
    of the node's parents.
    """
    (batch, tau, phys, feat), hidden = x.shape, w_x.shape[0]
    (o0, o1, o2), r1, r2 = (c.shape[2] for c in cores), cores[1].shape[0], cores[2].shape[0]
    wx, wr, arrays = w_x.array, None if w_r is None else w_r.array, [c.array for c in cores]
    out, (h, z1, z2, inputs) = graph_tt_kernel(x, a, wx, wr, arrays, bias.array, activation,
                                               keep=True)
    a0, a1, a2 = (c.reshape(c.shape[0] * c.shape[1], -1) for c in arrays)
    act_push, step = _ACTIVATIONS[activation][1], _graph_block(tau, phys, hidden)
    # only grgtn's dx reads the windows again, so only its tape keeps them
    windows = None if w_r is None else x

    def grads(g: np.ndarray) -> list[np.ndarray]:
        g3 = g.reshape(batch, o2, o1, o0).transpose(0, 3, 2, 1).reshape(batch * o0 * o1, o2)
        dz = (g3 @ a2.T).reshape(batch * o0, o1 * r2, hidden)
        d2 = z2.T @ g3
        del g3
        d1 = (z1 @ np.swapaxes(dz, -1, -2)).sum(axis=0)
        dz = (a1 @ dz).reshape(batch, o0 * r1, phys * hidden)

        def block(lo, k, ax, terms=None, dh=None, push_out=None):
            # k windows' terms of core 0 (one per window), of dM and of grgtn's
            # d^T x; the first, a0 @ dz and the push into the buffers given
            hb, dzb = h[lo : lo + k], dz[lo : lo + k]
            terms = np.matmul(hb, np.swapaxes(dzb, -1, -2), out=terms)
            dh = np.matmul(a0, dzb, out=dh)
            d = act_push(dh.reshape(-1, hidden), hb.reshape(-1, hidden), out=push_out)
            dm = d.T @ ax
            return terms, dm, None if wr is None else d.T @ windows[lo : lo + k].reshape(-1, feat)

        if batch <= step:
            terms, dm, dx = block(0, batch, inputs[0])
            d0 = terms.sum(axis=0)
        else:
            # terms[0] holds core 0's sum over the windows so far, ahead of the block's
            terms = np.zeros((step + 1, tau, o0 * r1))
            dm, dx = np.zeros((hidden, feat)), np.zeros((hidden, feat))
            dh = np.empty((step, tau, phys * hidden))
            push_out = np.empty((step * tau * phys, hidden))
            for lo, ax in zip(range(0, batch, step), inputs):
                k = min(step, batch - lo)
                _, dm_k, dx_k = block(lo, k, ax, terms[1 : k + 1], dh[:k],
                                      push_out[: k * tau * phys])
                dm += dm_k
                if wr is not None:
                    dx += dx_k
                del dm_k, dx_k  # before the block's sum and the next block's terms
                terms[0] = terms[: k + 1].sum(axis=0)
            d0 = terms[0]
        weights = [dm] if wr is None else [dx + wr.T @ dm, dm @ wx.T]
        head = [t.reshape(c.shape) for t, c in zip((d0, d1, d2), arrays)]
        return weights + head + [g.sum(axis=0)]

    params = (w_x, *([] if w_r is None else [w_r]), *cores, bias)
    return TapeNode(out, params, _shared(grads, len(params)))


# ``recurrence_kernel`` walks blocks of whole windows (at least one): 16 times
# ``_BLOCK_BYTES`` over ``8 tau (P F + 3 H)`` bytes a window.  Swept as
# ``predict``'s blocks for every variant at 1, 2, 4, 8 and 16 MiB and at
# one block per batch, at predict-stream's shape (1024 windows) and
# wide-train's (256), on one OpenBLAS thread (process CPU, best of 7): 1-4
# MiB tie within noise; 8 MiB is up to 35% slower (rnn) and 16 MiB up to
# 40%; one block per batch is 50-85% slower (grgtn, srgtn) and takes 15x the
# memory of 4 MiB blocks.  ``training.train`` runs the rnn's batch in
# chunks of one such block: a wide-train batch of 64 windows as chunks of 36
# and 28, and bench_synth's as one.


def recurrence_kernel(
    x: np.ndarray,
    w_x: np.ndarray,
    w_h: np.ndarray,
    b_h: np.ndarray,
    w: np.ndarray,
    bias: np.ndarray,
    activation: str,
    keep: bool = False,
) -> np.ndarray | tuple[np.ndarray, list]:
    """``recurrence``'s forward over plain arrays, whose shapes the caller has checked.

    ``x`` (batch, tau, P, F) is data.  Step t reads its (P, F) slice
    flattened physical index fastest, ``h_t = act(W_x x_t + W_h h_{t-1} +
    b_h)`` from ``h_{-1} = 0``, and the result is ``rows @ w^T + bias``,
    ``(batch, N)``, for the dense head's rows ``(batch, H tau)``, time
    fastest.

    The kernel walks blocks of whole windows (sized above): per block one
    GEMM projects a time-major copy of x for all steps, the steps write
    their states over it, and one GEMM maps the block's rows to its output
    rows.  Only the output is batch-sized; with ``keep`` the result is
    ``(out, kept)``, ``kept`` holding each block's copy of x, states and
    rows for the backward.
    """
    (batch, tau, _, _), (hidden, pf), n = x.shape, w_x.shape, w.shape[0]
    fn = _ACTIVATIONS[activation][0]
    wxt, wt = _gemm_weight(w_x), _gemm_weight(w)
    step = _recurrence_block(tau, pf, hidden)
    out, kept = np.empty((batch, n)), []
    # one block of no windows gives zero gradients of the right shapes
    for lo in range(0, max(batch, 1), step):
        xb = x[lo : lo + step]
        k = len(xb)  # sizes, not -1: numpy cannot infer one for 0 windows
        flat = xb.transpose(1, 0, 3, 2).reshape(tau * k, pf)
        h = (flat @ wxt).reshape(tau, k, hidden)
        for t in range(tau):
            h[t] = fn((h[t] if t == 0 else h[t] + h[t - 1] @ w_h.T) + b_h)
        rows = h.transpose(1, 2, 0).reshape(k, hidden * tau)
        np.matmul(rows, wt, out=out[lo : lo + k])
        if keep:
            kept.append((flat, h, rows))
        del flat, h, rows  # before the next block's are made
    out = out + bias
    return (out, kept) if keep else out


def _recurrence_block(tau: int, pf: int, hidden: int) -> int:
    """Windows in a block of ``recurrence``: ``16 _BLOCK_BYTES`` over a window's."""
    return max(1, 16 * _BLOCK_BYTES // (8 * tau * (pf + 3 * hidden)))


def recurrence(
    x: np.ndarray,
    w_x: TapeNode,
    w_h: TapeNode,
    b_h: TapeNode,
    w: TapeNode,
    bias: TapeNode,
    activation: str,
) -> TapeNode:
    """The rnn's projection, recurrence, dense head and bias, as one node.

    ``recurrence_kernel`` computes the output and keeps each block's copy
    of x, states and rows.  The five pushes share one backward, which walks
    the same blocks: the rows' gradient, one reverse loop of
    backpropagation through time for the pre-activation gradients ``dz``,
    then the block's terms of every weight gradient: ``dz`` against x for
    ``w_x``, against the previous states for ``w_h``, their sum for
    ``b_h``, the output gradient against the rows for ``w`` and its sum
    over the windows for ``bias``.
    """
    tau, hidden = x.shape[1], w_x.shape[0]
    wh, wc = w_h.array, np.ascontiguousarray(w.array)
    out, kept = recurrence_kernel(x, w_x.array, wh, b_h.array, wc, bias.array, activation,
                                  keep=True)
    act_push = _ACTIVATIONS[activation][1]

    def grads(g: np.ndarray) -> list[np.ndarray]:
        d, lo = None, 0
        for flat, h, rows in kept:
            k = len(rows)
            gb = g[lo : lo + k]
            lo += k
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
        return d + [g.sum(axis=0)]

    params = (w_x, w_h, b_h, w, bias)
    return TapeNode(out, params, _shared(grads, len(params)))


# A loss takes a non-empty batch and targets of the prediction's shape (or one
# label in range per row), as ``config.build_dataset`` and ``training.train``
# make them; it checks none of these.  Each is a mean over the rows of a batch:
# ``rows``, the batch's row count, defaults to the prediction's own, and a
# larger one makes the loss and its gradient a chunk's share of the batch's,
# as ``training.train`` sums them chunk by chunk.


def mae_loss(pred: TapeNode, target: np.ndarray, *, rows: int | None = None) -> TapeNode:
    """Mean absolute error over ``rows`` rows; its gradient is ``sign(pred - target) / n``.

    ``n`` is ``rows`` times the row width, the prediction's size by default.
    """
    d = pred.array - target
    inv_n = 1.0 / (d.size if rows is None else d.size // len(d) * rows)
    return TapeNode(np.abs(d).sum() * inv_n, (pred,), (lambda g: np.sign(d) * (g * inv_n),))


def mse_loss(pred: TapeNode, target: np.ndarray, *, rows: int | None = None) -> TapeNode:
    """Mean squared error over ``rows`` rows; its gradient is ``2 (pred - target) / n``.

    ``n`` is ``rows`` times the row width, the prediction's size by default.
    """
    d = pred.array - target
    inv_n = 1.0 / (d.size if rows is None else d.size // len(d) * rows)
    return TapeNode((d * d).sum() * inv_n, (pred,), (lambda g: d * (g * inv_n * 2.0),))


def cross_entropy_loss(
    logits: TapeNode, labels: np.ndarray, *, rows: int | None = None
) -> TapeNode:
    """Mean negative log-likelihood of integer labels under row softmax.

    The mean is over ``rows`` rows, the logits' own by default, and the
    gradient is ``(softmax(logits) - onehot(labels)) / rows``.
    """
    z = logits.array
    shifted = z - z.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    idx = np.arange(len(z))
    scale = -1.0 / (len(z) if rows is None else rows)

    def push(g: np.ndarray) -> np.ndarray:
        c = g * scale
        grad = np.exp(log_probs) * -c
        grad[idx, labels] += c
        return grad

    return TapeNode(log_probs[idx, labels].sum() * scale, (logits,), (push,))
