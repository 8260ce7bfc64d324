"""Reverse-mode differentiation tape over plain numpy arrays.

Each operation records its inputs and one gradient-push closure per input;
``backward`` walks the graph in reverse topological order from a scalar
root and accumulates gradients into every reachable node.  A node can
appear as input to any number of operations.

Nodes hold their arrays without copying, and a node's gradient may be the
very array its child received, so value and gradient arrays are shared:
no operation, push or caller may write into one in place.  Axis arguments
are 0-based numpy axes.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import ShapeError

__all__ = [
    "TapeNode",
    "constant",
    "backward",
    "add",
    "subtract",
    "multiply",
    "scale_by",
    "tensordot",
    "moveaxis",
    "transpose",
    "reshape",
    "stack_rows",
    "add_bias",
    "tanh",
    "sigmoid",
    "relu",
    "absolute",
    "square",
    "sum_all",
    "mean_all",
    "log_softmax",
    "mae_loss",
    "mse_loss",
    "cross_entropy_loss",
]


class TapeNode:
    """One value in the computation graph, with its local gradient rules."""

    __slots__ = ("array", "parents", "pushes", "grad")

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
    """Populate ``grad`` on every node reachable from a scalar root."""
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
            if parent.grad is None:
                parent.grad = contribution
            else:
                parent.grad = parent.grad + contribution


def _binary_same_shape(a: TapeNode, b: TapeNode, name: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{name} needs equal shapes, got {a.shape} and {b.shape}")


def add(a: TapeNode, b: TapeNode) -> TapeNode:
    _binary_same_shape(a, b, "add")
    return TapeNode(a.array + b.array, (a, b), (lambda g: g, lambda g: g))


def subtract(a: TapeNode, b: TapeNode) -> TapeNode:
    _binary_same_shape(a, b, "subtract")
    return TapeNode(a.array - b.array, (a, b), (lambda g: g, lambda g: -g))


def multiply(a: TapeNode, b: TapeNode) -> TapeNode:
    _binary_same_shape(a, b, "multiply")
    av, bv = a.array, b.array
    return TapeNode(av * bv, (a, b), (lambda g: g * bv, lambda g: g * av))


def scale_by(a: TapeNode, s: float) -> TapeNode:
    s = float(s)
    return TapeNode(a.array * s, (a,), (lambda g: g * s,))


def tensordot(
    a: TapeNode,
    b: TapeNode,
    axes_a: Sequence[int],
    axes_b: Sequence[int],
) -> TapeNode:
    """Contraction over paired axes, with exact adjoints for both inputs."""
    axes_a = tuple(int(i) for i in axes_a)
    axes_b = tuple(int(i) for i in axes_b)
    av, bv = a.array, b.array
    if len(axes_a) != len(axes_b):
        raise ShapeError("axes_a and axes_b must pair up")
    for i, j in zip(axes_a, axes_b):
        if av.shape[i] != bv.shape[j]:
            raise ShapeError(
                f"contracted extents differ: a axis {i} has {av.shape[i]}, "
                f"b axis {j} has {bv.shape[j]}"
            )
    out = np.tensordot(av, bv, axes=(axes_a, axes_b))
    free_a = [i for i in range(av.ndim) if i not in axes_a]
    free_b = [j for j in range(bv.ndim) if j not in axes_b]

    def push_a(g: np.ndarray) -> np.ndarray:
        gb = np.tensordot(g, bv, axes=(tuple(range(len(free_a), g.ndim)), tuple(free_b)))
        # gb axes: a's free axes in order, then b's contracted axes ascending
        rem_b = sorted(axes_b)
        src = [0] * av.ndim
        for pos, ax in enumerate(free_a):
            src[ax] = pos
        for ax_a, ax_b in zip(axes_a, axes_b):
            src[ax_a] = len(free_a) + rem_b.index(ax_b)
        return np.transpose(gb, src)

    def push_b(g: np.ndarray) -> np.ndarray:
        ga = np.tensordot(av, g, axes=(tuple(free_a), tuple(range(len(free_a)))))
        # ga axes: a's contracted axes ascending, then b's free axes in order
        rem_a = sorted(axes_a)
        src = [0] * bv.ndim
        for pos, ax in enumerate(free_b):
            src[ax] = len(rem_a) + pos
        for ax_a, ax_b in zip(axes_a, axes_b):
            src[ax_b] = rem_a.index(ax_a)
        return np.transpose(ga, src)

    return TapeNode(out, (a, b), (push_a, push_b))


def moveaxis(a: TapeNode, source: int, destination: int) -> TapeNode:
    out = np.moveaxis(a.array, source, destination)
    return TapeNode(out, (a,), (lambda g: np.moveaxis(g, destination, source),))


def transpose(a: TapeNode, axes: Sequence[int]) -> TapeNode:
    axes = tuple(int(i) for i in axes)
    inverse = tuple(int(i) for i in np.argsort(axes))
    out = np.transpose(a.array, axes)
    return TapeNode(out, (a,), (lambda g: np.transpose(g, inverse),))


def reshape(a: TapeNode, shape: Sequence[int]) -> TapeNode:
    shape = tuple(int(d) for d in shape)
    old = a.shape
    return TapeNode(a.array.reshape(shape), (a,), (lambda g: g.reshape(old),))


def stack_rows(nodes: Sequence[TapeNode], axis: int = 0) -> TapeNode:
    out = np.stack([n.array for n in nodes], axis=axis)
    pushes = tuple(
        (lambda i: lambda g: np.take(g, i, axis=axis))(i) for i in range(len(nodes))
    )
    return TapeNode(out, tuple(nodes), pushes)


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


def tanh(a: TapeNode) -> TapeNode:
    out = np.tanh(a.array)
    return TapeNode(out, (a,), (lambda g: g * (1.0 - out * out),))


def sigmoid(a: TapeNode) -> TapeNode:
    out = 1.0 / (1.0 + np.exp(-a.array))
    return TapeNode(out, (a,), (lambda g: g * out * (1.0 - out),))


def relu(a: TapeNode) -> TapeNode:
    av = a.array
    return TapeNode(np.maximum(av, 0.0), (a,), (lambda g: g * (av > 0.0),))


def absolute(a: TapeNode) -> TapeNode:
    av = a.array
    return TapeNode(np.abs(av), (a,), (lambda g: g * np.sign(av),))


def square(a: TapeNode) -> TapeNode:
    av = a.array
    return TapeNode(av * av, (a,), (lambda g: g * 2.0 * av,))


def sum_all(a: TapeNode) -> TapeNode:
    shape = a.shape
    return TapeNode(np.asarray(a.array.sum()), (a,), (lambda g: np.broadcast_to(g, shape).copy(),))


def mean_all(a: TapeNode) -> TapeNode:
    return scale_by(sum_all(a), 1.0 / a.array.size)


def log_softmax(a: TapeNode) -> TapeNode:
    """Row-stable log-softmax over the last axis."""
    z = a.array
    shifted = z - z.max(axis=-1, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    soft = np.exp(out)
    return TapeNode(
        out, (a,), (lambda g: g - soft * g.sum(axis=-1, keepdims=True),)
    )


def mae_loss(pred: TapeNode, target: TapeNode | np.ndarray) -> TapeNode:
    target = target if isinstance(target, TapeNode) else constant(target)
    if pred.array.size == 0:
        raise ValueError("mae_loss on an empty batch")
    return mean_all(absolute(subtract(pred, target)))


def mse_loss(pred: TapeNode, target: TapeNode | np.ndarray) -> TapeNode:
    target = target if isinstance(target, TapeNode) else constant(target)
    if pred.array.size == 0:
        raise ValueError("mse_loss on an empty batch")
    return mean_all(square(subtract(pred, target)))


def cross_entropy_loss(logits: TapeNode, labels: np.ndarray) -> TapeNode:
    """Mean negative log-likelihood of integer labels under row softmax."""
    labels = np.asarray(labels)
    n, k = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels must be ({n},), got {labels.shape}")
    if n == 0:
        raise ValueError("cross_entropy_loss on an empty batch")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels must lie in [0, {k})")
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0
    picked = multiply(log_softmax(logits), constant(onehot))
    return scale_by(sum_all(picked), -1.0 / n)
