"""Tape gradients verified against central finite differences."""

import ast
import dataclasses
import importlib
import inspect
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from oracles import tt_head_matrix
from rgtn import autodiff as ad
from rgtn.config import ConfigError, build_dataset, run_config_from_dict
from rgtn.models import HeadConfig, ModelConfig, forward, init_params
from rgtn.training import train


def square_mean(y):
    """A scalar root over any node: mean(y ** 2), one loss node."""
    return ad.mse_loss(y, np.zeros(y.shape))


def fd_gradients(build, arrays, h=1e-6):
    """Central-difference gradients of a scalar-valued builder."""
    grads = []
    for idx, arr in enumerate(arrays):
        fd = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            mi = it.multi_index
            plus = [a.copy() for a in arrays]
            minus = [a.copy() for a in arrays]
            plus[idx][mi] += h
            minus[idx][mi] -= h
            lp = float(build(*[ad.constant(a) for a in plus]).array)
            lm = float(build(*[ad.constant(a) for a in minus]).array)
            fd[mi] = (lp - lm) / (2.0 * h)
            it.iternext()
        grads.append(fd)
    return grads


def check_gradients(build, arrays, rel_tol=1e-5, h=1e-6):
    nodes = [ad.constant(a) for a in arrays]
    loss = build(*nodes)
    ad.backward(loss)
    fd = fd_gradients(build, arrays, h=h)
    for node, expect in zip(nodes, fd):
        got = node.grad if node.grad is not None else np.zeros_like(expect)
        scale = max(np.abs(expect).max(), np.abs(got).max(), 1e-8)
        assert np.abs(got - expect).max() / scale <= rel_tol


# The losses and ``backward`` check none of their operands: ``build_dataset``
# refuses the configs that would give them bad ones, and ``train`` hands them
# only what it builds from a dataset that passed.  The tests of those checks
# send the bad value through ``build_dataset`` and record what ``train`` hands
# the tape for the three losses.
REGRESSION_DOC = {
    "model": {"variant": "grgtn", "tau": 3, "d_phys": 2, "d_feat": 2, "hidden": 3, "out_dim": 4,
              "head": {"out_modes": [1, 2, 2]}},
    "data": {"kind": "synthetic_regression", "n_steps": 60},
    "training": {"epochs": 1, "batch_size": 8},
}
CLASSIFICATION_DOC = {
    "model": {"variant": "srgtn", "tau": 3, "d_phys": 2, "d_feat": 2, "hidden": 3, "out_dim": 2,
              "head": {"out_modes": [1, 1, 2]}},
    "data": {"kind": "synthetic_classification", "n_samples": 40},
    "training": {"epochs": 1, "batch_size": 8, "loss": "cross_entropy"},
}
LOSS_DOCS = [
    {**REGRESSION_DOC, "training": {**REGRESSION_DOC["training"], "loss": loss}}
    for loss in ("mae", "mse")
] + [CLASSIFICATION_DOC]


def changed(doc, section, **fields):
    return {**doc, section: {**doc[section], **fields}}


def assert_refused(doc, pattern):
    with pytest.raises(ConfigError, match=pattern):
        build_dataset(run_config_from_dict(doc))


def tape_calls(monkeypatch):
    """Train on each of ``LOSS_DOCS``; the (loss, prediction, target) of every loss
    call and the shape of every ``backward`` root."""
    calls, roots = [], []
    for name in ("mae_loss", "mse_loss", "cross_entropy_loss"):
        def record(pred, target, *, rows=None, loss=getattr(ad, name), name=name):
            calls.append((name, pred.array, np.asarray(target)))
            return loss(pred, target, rows=rows)
        monkeypatch.setattr(ad, name, record)
    backward = ad.backward
    monkeypatch.setattr(ad, "backward", lambda root: (roots.append(root.shape), backward(root)))
    for doc in LOSS_DOCS:
        run = run_config_from_dict(doc)
        train(run.model, build_dataset(run), run.training)
    assert {name for name, _, _ in calls} == {"mae_loss", "mse_loss", "cross_entropy_loss"}
    return calls, roots


class TestBackwardMechanics:
    def test_non_scalar_root_rejected(self, monkeypatch):
        # every root train hands backward is a loss node, a scalar
        _, roots = tape_calls(monkeypatch)
        assert roots and set(roots) == {()}

    def test_linear_map_gradient_pattern(self):
        # the rnn's dense head after one step of an identity projection: x w^T
        rng = np.random.default_rng(0)
        w = ad.constant(rng.standard_normal((3, 4)))
        x = rng.standard_normal(4)
        y = ad.recurrence(x.reshape(1, 1, 1, 4), ad.constant(np.eye(4)),
                          ad.constant(np.zeros((4, 4))), ad.constant(np.zeros(4)), w,
                          ad.constant(np.zeros(3)), "identity")
        # a target below every output: the loss's gradient is 1/3 on each
        ad.backward(ad.mae_loss(y, y.array - 1.0))
        np.testing.assert_allclose(w.grad, np.tile(x, (3, 1)) / 3.0, atol=1e-12)

    def test_unreachable_leaf_gets_no_gradient(self):
        used = ad.constant(np.ones(3))
        unused = ad.constant(np.ones(3))
        loss = square_mean(used)
        ad.backward(loss)
        assert used.grad is not None
        assert unused.grad is None

    def test_node_reused_twice(self):
        # one leaf as both W_x and W_r of x W_x^T + (A x)(W_r W_x)^T (F = H): each
        # slot pushes into it, and it gets the sum of what two leaves would get
        x, a, w, _, cores, bias = graph_arrays(np.random.default_rng(1), batch=2, feat=4)
        check_gradients(lambda v, *rest: square_mean(
            ad.graph_tt(x, a, v, v, rest[:3], rest[3], "tanh")), [w, *cores, bias])
        node = ad.constant(w)
        ad.backward(square_mean(graph_node(x, a, node, node, cores, bias, "tanh")[0]))
        apart = [ad.constant(w), ad.constant(w)]
        ad.backward(square_mean(graph_node(x, a, *apart, cores, bias, "tanh")[0]))
        np.testing.assert_array_equal(node.grad, apart[0].grad + apart[1].grad)

    def test_diamond_graph(self):
        # one leaf v as both W_x and W_h of a scalar rnn over x = (1, 1), with an
        # all-ones head: v reaches h_1 = v x_1 + v (v x_0) directly and through
        # h_0, so the output v + v + v^2 = 8 at v = 2 has gradient 2 + 2 v = 6
        v = ad.constant(np.array([[2.0]]))
        zeros = [ad.constant(np.zeros(1)) for _ in range(2)]
        out = ad.recurrence(np.ones((1, 2, 1, 1)), v, v, zeros[0], ad.constant(np.ones((1, 2))),
                            zeros[1], "identity")
        assert out.array.item() == 8.0
        ad.backward(ad.mae_loss(out, np.zeros((1, 1))))
        np.testing.assert_array_equal(v.grad, [[6.0]])


class TestElementwiseOps:
    def test_absolute_away_from_kink(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6,))
        a = np.where(np.abs(a) < 0.1, -0.7, a)
        check_gradients(lambda x: ad.mae_loss(x, np.zeros(a.shape)), [a])


ACTIVATIONS = ["tanh", "sigmoid", "relu", "identity"]


def rnn_arrays(rng, batch, tau=2, phys=2, feat=2, hidden=3, n=2, feedback=True):
    """``recurrence``'s windows and parameters ``w_x``, ``w_h``, ``b_h``, ``w`` and ``bias``.

    Without feedback ``w_h`` is zero, so each step is the projection alone.
    """
    x = rng.standard_normal((batch, tau, phys, feat))
    w_x = rng.standard_normal((hidden, phys * feat)) * 0.6
    w_h = rng.standard_normal((hidden, hidden)) * (0.5 if feedback else 0.0)
    b_h = rng.standard_normal(hidden) * 0.3
    w = rng.standard_normal((n, hidden * tau)) * 0.5
    bias = rng.standard_normal(n) * 0.3
    return x, [w_x, w_h, b_h, w, bias]


def rnn_states(x, w_x, w_h, b_h, activation):
    """The pre-activations and states ``(tau, batch, H)``, one step at a time."""
    fn = ad._ACTIVATIONS[activation][0]
    batch, tau, phys, feat = x.shape
    # each step's (P, F) slice flattened physical index fastest
    steps = x.transpose(1, 0, 3, 2).reshape(tau, batch, phys * feat)
    pre, states, h = [], [], np.zeros((batch, len(b_h)))
    for t in range(tau):
        pre.append(steps[t] @ w_x.T + h @ w_h.T + b_h)
        h = fn(pre[-1].copy())
        states.append(h)
    return np.array(pre), np.array(states)


def rnn_reference(x, w_x, w_h, b_h, w, bias, activation):
    """``recurrence``'s output: the states as rows, time fastest, times ``w^T``, plus the bias."""
    _, h = rnn_states(x, w_x, w_h, b_h, activation)
    return h.transpose(1, 2, 0).reshape(len(x), -1) @ w.T + bias


def rnn_loss(x, activation, target=None):
    """A scalar root over ``recurrence``'s output for nodes of its five parameters."""
    def build(*weights):
        out = ad.recurrence(x, *weights, activation)
        return square_mean(out) if target is None else ad.mse_loss(out, target)
    return build


def rnn_node(x, weights, activation):
    """``recurrence`` over constants of ``weights``, and those nodes."""
    nodes = [ad.constant(v) for v in weights]
    return ad.recurrence(x, *nodes, activation), nodes


class TestTensordot:
    """A contraction of one axis pair as the models write it: the rnn's
    feature projection over every window and step, inside ``recurrence``."""

    def test_batched_feature_projection(self):
        rng = np.random.default_rng(12)
        x, weights = rnn_arrays(rng, batch=2, tau=3, phys=2, feat=3, hidden=4)
        check_gradients(rnn_loss(x, "tanh"), weights)


class TestMatmul:
    """The GEMM ops with windows as data: ``recurrence``'s projection and dense
    head, and ``graph_tt``'s product of the time adjacency and a window batch."""

    def test_batched_right_operand_under_2d_left(self):
        # data only, as the time adjacency meets a batch of windows: no push;
        # an identity weight and head read the mixed windows x + A x back out
        rng = np.random.default_rng(31)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((2, 3, 2, 4))
        w, cores = ad.constant(np.eye(4)), [ad.constant(np.eye(n)[None, :, :, None])
                                            for n in (3, 2, 4)]
        bias = ad.constant(np.zeros(24))
        out = ad.graph_tt(b, a, w, None, cores, bias, "identity")
        expect = b + (a @ b.reshape(2, 3, 8)).reshape(b.shape)
        np.testing.assert_allclose(out.array, expect.transpose(0, 3, 2, 1).reshape(2, -1),
                                   atol=1e-12)
        assert out.parents == (w, *cores, bias)

    def test_both_operands_transposed(self):
        # the windows and both GEMM weights as transposed views
        rng = np.random.default_rng(35)
        x, (w_x, w_h, b_h, w, bias) = rnn_arrays(rng, batch=3, tau=2, phys=2, feat=2, hidden=3)
        x = np.ascontiguousarray(x.transpose(3, 2, 1, 0)).transpose(3, 2, 1, 0)
        weights = [np.ascontiguousarray(w_x.T).T, w_h, b_h, np.ascontiguousarray(w.T).T, bias]
        assert not any(v.flags.c_contiguous for v in (x, weights[0], weights[3]))
        out = rnn_node(x, weights, "tanh")[0].array
        np.testing.assert_allclose(out, rnn_reference(x, *weights, "tanh"), atol=1e-12)
        assert out.flags.c_contiguous
        # constant() keeps the views, so the nodes' arrays are the transposed ones too
        check_gradients(rnn_loss(x, "tanh"), weights)

    def test_linear_is_product_with_transpose(self):
        # one step, no feedback, no b_h: (x W_x^T) w^T + bias
        rng = np.random.default_rng(33)
        x, (w_x, w_h, b_h, w, bias) = rnn_arrays(rng, batch=4, tau=1, phys=1, feat=3, hidden=5,
                                                 feedback=False)
        weights = [w_x, w_h, np.zeros_like(b_h), w, bias]
        out = rnn_node(x, weights, "identity")[0].array
        np.testing.assert_allclose(out, (x.reshape(4, 3) @ w_x.T) @ w.T + bias, atol=1e-12)
        check_gradients(rnn_loss(x, "identity"), weights)

    @pytest.mark.parametrize("left,right", [((2, 3), (3, 5)), ((3, 2, 4), (4, 5))])
    def test_ndarray_operand_is_data(self, left, right):
        # the windows (1, 2, 3) or (3, 2, 4) and a head of H = 3 or 4 and
        # N = 5: plain data, so no node and no push
        rng = np.random.default_rng(34)
        (tau, phys, feat), (hidden, n) = (1,) * (3 - len(left)) + left, right
        x, weights = rnn_arrays(rng, batch=2, tau=tau, phys=phys, feat=feat, hidden=hidden, n=n)
        check_gradients(rnn_loss(x, "tanh"), weights)
        out, nodes = rnn_node(x, weights, "tanh")
        np.testing.assert_allclose(out.array, rnn_reference(x, *weights, "tanh"), atol=1e-12)
        assert out.parents == tuple(nodes) and len(out.pushes) == 5

    def test_non_contiguous_input(self):
        rng = np.random.default_rng(34)
        x, weights = rnn_arrays(rng, batch=3, tau=3, phys=2, feat=2, hidden=3)
        view = np.ascontiguousarray(x.transpose(2, 1, 0, 3)).transpose(2, 1, 0, 3)
        assert not view.flags.c_contiguous and np.array_equal(view, x)
        check_gradients(rnn_loss(view, "tanh"), weights)
        results = []
        for windows in (x, view):
            out, nodes = rnn_node(windows, weights, "tanh")
            ad.backward(square_mean(out))
            results.append([out.array] + [node.grad for node in nodes])
        for contiguous, strided in zip(*results):
            np.testing.assert_array_equal(contiguous, strided)


class TestLinear:
    """The rnn's two linear maps, the projection of each step and the dense
    head, inside ``recurrence``, under each activation."""

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("feedback", [True, False])
    def test_gradients_match_finite_differences(self, activation, feedback):
        rng = np.random.default_rng(40)
        x, weights = rnn_arrays(rng, batch=2, tau=3, feedback=feedback)
        # relu's kink is beyond the finite-difference step
        assert np.abs(rnn_states(x, *weights[:3], activation)[0]).min() > 0.05
        check_gradients(rnn_loss(x, activation), weights)

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_equals_the_activation_of_a_plain_linear(self, activation):
        # one step: act(x W_x^T + b_h) w^T + bias, and its gradients by hand
        rng = np.random.default_rng(41)
        x, weights = rnn_arrays(rng, batch=6, tau=1, phys=1, feat=3, hidden=4, n=2)
        w_x, _, b_h, w, bias = weights
        target = rng.standard_normal((6, 2))
        out, nodes = rnn_node(x, weights, activation)
        ad.backward(ad.mse_loss(out, target))
        fn, push = ad._ACTIVATIONS[activation]
        h = fn(x.reshape(6, 3) @ w_x.T + b_h)
        y = h @ w.T + bias
        g = 2.0 * (y - target) / y.size
        dz = push(g @ w, h)
        expect = (y, dz.T @ x.reshape(6, 3), np.zeros((4, 4)), dz.sum(axis=0), g.T @ h,
                  g.sum(axis=0))
        for got, want in zip([out.array] + [node.grad for node in nodes], expect):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("layout", ["fortran", "transposed_view"])
    def test_weight_layout_does_not_change_the_result(self, layout):
        rng = np.random.default_rng(43)
        # the projection's and the head's K on both sides of _SHORT_K
        for tau, phys, feat, hidden in ((2, 2, 3, 4), (2, 4, ad._SHORT_K // 4, 3),
                                        (4, 1, 2, ad._SHORT_K // 4)):
            x, weights = rnn_arrays(rng, batch=5, tau=tau, phys=phys, feat=feat, hidden=hidden)
            results = []
            for relaid in (False, True):
                values = list(weights)
                if relaid:
                    for i in (0, 3):
                        v = values[i]
                        values[i] = (np.asfortranarray(v) if layout == "fortran"
                                     else np.ascontiguousarray(v.T).T)
                        assert not values[i].flags.c_contiguous and np.array_equal(values[i], v)
                out, nodes = rnn_node(x, values, "tanh")
                ad.backward(square_mean(out))
                results.append([out.array] + [node.grad for node in nodes])
            for c_order, other_order in zip(*results):
                np.testing.assert_array_equal(c_order, other_order)


def block_windows(x, weights):
    """Windows per block of ``recurrence``, from the module constant and the shapes."""
    tau, pf, hidden = x.shape[1], weights[0].shape[1], weights[0].shape[0]
    return max(1, 16 * ad._BLOCK_BYTES // (8 * tau * (pf + 3 * hidden)))


def set_block_windows(monkeypatch, tau, pf, hidden, windows):
    """Make ``recurrence`` walk ``windows`` whole windows a block."""
    monkeypatch.setattr(ad, "_BLOCK_BYTES", -(-windows * 8 * tau * (pf + 3 * hidden) // 16))


class TestBlockedLinear:
    """``recurrence`` over more windows than one block: the blocks stitch into one result."""

    R = 3  # windows per block

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("feedback", [True, False])
    @pytest.mark.parametrize("blocks,extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 3)],
                             ids=["1", "R-1", "R", "R+1", "2R+3"])
    def test_gradients_match_finite_differences(self, blocks, extra, feedback, activation,
                                                monkeypatch):
        rng = np.random.default_rng(49)
        windows = blocks * self.R + extra
        x, weights = rnn_arrays(rng, batch=2 * self.R + 3, feedback=feedback)
        x = x[:windows]
        set_block_windows(monkeypatch, 2, 4, 3, self.R)
        assert block_windows(x, weights) == self.R
        # relu's kink is beyond the finite-difference step
        assert np.abs(rnn_states(x, *weights[:3], activation)[0]).min() > 0.01
        check_gradients(rnn_loss(x, activation), weights)
        blocked = rnn_node(x, weights, activation)[0].array
        monkeypatch.setattr(ad, "_BLOCK_BYTES", 1 << 18)
        np.testing.assert_allclose(blocked, rnn_node(x, weights, activation)[0].array,
                                   rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_forward_equals_one_gemm(self, activation, monkeypatch):
        rng = np.random.default_rng(46)
        x, weights = rnn_arrays(rng, batch=3 * self.R + 2, tau=4, phys=2, feat=3, hidden=5)
        set_block_windows(monkeypatch, 4, 6, 5, self.R)
        assert block_windows(x, weights) == self.R
        np.testing.assert_allclose(rnn_node(x, weights, activation)[0].array,
                                   rnn_reference(x, *weights, activation), rtol=1e-12,
                                   atol=1e-14)

    def test_zero_rows(self):
        x, weights = rnn_arrays(np.random.default_rng(47), batch=0)
        out, nodes = rnn_node(x, weights, "tanh")
        assert out.shape == (0, 2)
        for push, value in zip(out.pushes, weights):
            np.testing.assert_array_equal(push(np.empty((0, 2))), np.zeros(value.shape))

    def test_backward_makes_no_output_sized_temporary(self, monkeypatch):
        # no gradient of all the states: each block's only
        rng = np.random.default_rng(47)
        x, weights = rnn_arrays(rng, batch=8 * 16 + 1, tau=4, phys=2, feat=2, hidden=8, n=3)
        set_block_windows(monkeypatch, 4, 4, 8, 16)
        node, nodes = rnn_node(x, weights, "tanh")
        g = rng.standard_normal(node.shape)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            grads = [push(g) for push in node.pushes]
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 8 * x.shape[1] * len(x) * 8  # the states of every window
        monkeypatch.setattr(ad, "_BLOCK_BYTES", 1 << 18)
        whole = rnn_node(x, weights, "tanh")[0]
        for got, expect in zip(grads, (push(g) for push in whole.pushes)):
            np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12)


class TestRecurrence:
    @pytest.mark.parametrize("activation", ["tanh", "sigmoid", "relu", "identity"])
    @pytest.mark.parametrize("tau", [1, 2, 7])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_gradients_match_finite_differences(self, activation, tau, batch):
        rng = np.random.default_rng(37)
        x, weights = rnn_arrays(rng, batch=batch, tau=tau, phys=1, feat=2, hidden=3)
        check_gradients(rnn_loss(x, activation), weights)

    def test_one_loop_serves_all_three_pushes(self, monkeypatch):
        # all five pushes, over one block: one reverse loop of tau steps
        fn, push = ad._ACTIVATIONS["tanh"]
        calls = []

        def counted(g, y, out=None):
            calls.append(1)
            return push(g, y, out=out)

        monkeypatch.setitem(ad._ACTIVATIONS, "tanh", (fn, counted))
        rng = np.random.default_rng(39)
        x, weights = rnn_arrays(rng, batch=2, tau=3)
        node = rnn_node(x, weights, "tanh")[0]
        g = rng.standard_normal(node.shape)
        dw_x = node.pushes[0](g)
        assert node.pushes[0](g) is dw_x
        for node_push in node.pushes[1:]:
            node_push(g)
        assert len(calls) == 3

    @pytest.mark.parametrize("batch", [0, 3])
    def test_rows_are_the_states_flattened_time_fastest(self, batch):
        # through an identity dense head, the rows the head reads: time-major
        # states, transposed and reshaped
        rng = np.random.default_rng(40)
        x, (w_x, w_h, b_h, _, _) = rnn_arrays(rng, batch=batch, tau=5, hidden=4)
        h = np.empty((5, batch, 4))
        steps = x.transpose(1, 0, 3, 2).reshape(5, batch, 4)
        for t in range(5):
            h[t] = np.tanh(steps[t] @ w_x.T + (h[t - 1] @ w_h.T if t else 0.0) + b_h)
        node = rnn_node(x, [w_x, w_h, b_h, np.eye(4 * 5), np.zeros(4 * 5)], "tanh")[0]
        np.testing.assert_array_equal(node.array, h.transpose(1, 2, 0).reshape(batch, 4 * 5))
        assert node.pushes[0](np.ones(node.shape)).shape == w_x.shape


def graph_arrays(rng, batch, joined=True, feat=2):
    """``graph_tt``'s inputs: windows, adjacency, ``w_x``, ``w_r`` (None unless joined),
    cores and bias."""
    (tau, phys, hidden), out, full = (3, 2, 4), (2, 3, 2), (1, 2, 3, 1)
    cores = [rng.standard_normal((full[k], n, o, full[k + 1])) * 0.5
             for k, (n, o) in enumerate(zip((tau, phys, hidden), out))]
    x = rng.standard_normal((batch, tau, phys, feat))
    a = np.tril(rng.standard_normal((tau, tau)), -1) * 0.5
    w_x = rng.standard_normal((hidden, feat)) * 0.5
    w_r = rng.standard_normal((hidden, hidden)) * 0.5 if joined else None
    bias = rng.standard_normal(12) * 0.3
    return x, a, w_x, w_r, cores, bias


def graph_params(w_x, w_r, cores, bias):
    """``graph_tt``'s parameters in the order of its node's parents."""
    return [w_x] + ([] if w_r is None else [w_r]) + [*cores, bias]


def graph_node(x, a, w_x, w_r, cores, bias, activation):
    """``graph_tt`` over constants of the arrays among its parameters, and its parameter nodes."""
    nodes = [v if isinstance(v, ad.TapeNode) else ad.constant(v)
             for v in graph_params(w_x, w_r, cores, bias)]
    joined = w_r is not None
    node = ad.graph_tt(x, a, nodes[0], nodes[1] if joined else None, nodes[1 + joined : -1],
                       nodes[-1], activation)
    return node, nodes


def graph_loss(x, a, joined, activation):
    """A scalar root over ``graph_tt``'s output for nodes of its parameters, in ``graph_params``'s order."""
    def build(*nodes):
        w_r = nodes[1] if joined else None
        return square_mean(ad.graph_tt(x, a, nodes[0], w_r, nodes[1 + joined : -1], nodes[-1],
                                       activation))
    return build


def graph_weight(w_x, w_r):
    """The reference's joined weight: ``[W_x | W_r W_x]`` with ``w_r`` (grgtn), else ``W_x``."""
    return w_x if w_r is None else np.concatenate((w_x, w_r @ w_x), 1)


def graph_input(x, a, w):
    """The reference's joined input, ``[x | A x]``, or ``x + A x``, by the weight's width.

    Joined, one product gives grgtn's ``x W_x^T + (A x)(W_r W_x)^T``, which
    ``graph_tt`` computes as two GEMMs: the oracle shares no layout with it.
    """
    ax = np.einsum("ts,bspf->btpf", a, x)
    return np.concatenate((x, ax), -1) if w.shape[1] == 2 * x.shape[-1] else x + ax


def graph_reference(x, a, w_x, w_r, cores, bias, activation):
    """``graph_tt``'s rows: the hidden block flattened first mode fastest, times the head's
    matrix, plus the bias."""
    w = graph_weight(w_x, w_r)
    h = ad._ACTIVATIONS[activation][0](graph_input(x, a, w) @ w.T)
    return h.transpose(0, 3, 2, 1).reshape(len(x), -1) @ tt_head_matrix(cores) + bias


class TestTTHead:
    """The tensor-train head inside ``graph_tt``: every mode > 1 and unequal ranks,
    so no reshape can pass by accident."""

    def test_forward_equals_the_dense_matrix(self):
        arrays = graph_arrays(np.random.default_rng(50), batch=5)
        out = graph_node(*arrays, "tanh")[0].array
        np.testing.assert_allclose(out, graph_reference(*arrays, "tanh"), atol=1e-12)

    def test_gradients_match_finite_differences(self):
        x, a, *params = graph_arrays(np.random.default_rng(51), batch=2)
        check_gradients(graph_loss(x, a, True, "tanh"), graph_params(*params))

    def test_zero_windows(self):
        arrays = graph_arrays(np.random.default_rng(52), batch=0)
        out, nodes = graph_node(*arrays, "tanh")
        assert out.shape == (0, 12) and out.parents == tuple(nodes)
        grads = [push(np.zeros(out.shape)) for push in out.pushes]
        for got, value in zip(grads, graph_params(*arrays[2:])):
            np.testing.assert_array_equal(got, np.zeros(value.shape))

    def test_pushes_share_one_backward_and_release_it(self):
        out = graph_node(*graph_arrays(np.random.default_rng(53), batch=3), "tanh")[0]
        g = np.ones(out.shape)
        dw = out.pushes[0](g)
        assert np.shares_memory(out.pushes[0](g), dw)  # computed once for this g
        for push in out.pushes[1:]:
            push(g)
        ref = weakref.ref(g)  # the last push dropped the shared result
        del g
        assert ref() is None

    def test_kernel_keeps_nothing_unless_asked(self):
        # the kernel alone returns a plain array, the tape op's output to the bit
        x, a, *params = graph_arrays(np.random.default_rng(54), batch=2)
        out = ad.graph_tt_kernel(x, a, *params, "tanh")
        assert type(out) is np.ndarray
        again = graph_node(x, a, *params, "tanh")[0]
        assert again.parents and np.array_equal(again.array, out)
        kept_out, kept = ad.graph_tt_kernel(x, a, *params, "tanh", keep=True)
        assert np.array_equal(kept_out, out) and len(kept) == 4

    @pytest.mark.parametrize("joined", [True, False], ids=["grgtn", "srgtn"])
    def test_kernel_keeps_inputs_as_wide_as_x(self, joined, monkeypatch):
        # each block keeps A x (grgtn) or x + A x (srgtn), over blocks of two windows
        x, a, *params = graph_arrays(np.random.default_rng(55), batch=5, joined=joined)
        hidden = params[0].shape[0]
        monkeypatch.setattr(ad, "_BLOCK_BYTES", 2 * 8 * int(np.prod(x.shape[1:3])) * hidden)
        inputs = ad.graph_tt_kernel(x, a, *params, "tanh", keep=True)[1][3]
        assert len(inputs) == 3 and sum(b.nbytes for b in inputs) == x.nbytes


class TestFilterWeight:
    """grgtn's filter ``x W_x^T + (A x)(W_r W_x)^T`` inside ``graph_tt``, against the
    joined product of the reference."""

    def test_equals_the_joined_product(self):
        x, a, w_x, w_r, cores, bias = graph_arrays(np.random.default_rng(44), batch=4)
        out, nodes = graph_node(x, a, w_x, w_r, cores, bias, "identity")
        np.testing.assert_allclose(out.array,
                                   graph_reference(x, a, w_x, w_r, cores, bias, "identity"),
                                   atol=1e-12)
        # w_x first, then w_r: the tracer books the op by its first parameter
        assert out.parents == tuple(nodes)

    def test_gradients_match_finite_differences(self):
        x, a, *params = graph_arrays(np.random.default_rng(45), batch=2)
        check_gradients(graph_loss(x, a, True, "identity"), graph_params(*params))


class TestTapeLifetime:
    def test_backward_keeps_only_leaf_gradients(self):
        inner, nodes = graph_node(*graph_arrays(np.random.default_rng(35), batch=2), "tanh")
        root = square_mean(inner)
        ad.backward(root)
        assert all(node.grad is not None for node in nodes)
        assert inner.grad is None and root.grad is None

    def test_kernel_keeps_nothing_unless_asked(self):
        x, weights = rnn_arrays(np.random.default_rng(36), batch=3)
        out = ad.recurrence_kernel(x, *weights, "tanh")
        assert type(out) is np.ndarray
        again = rnn_node(x, weights, "tanh")[0]
        assert again.parents and np.array_equal(again.array, out)
        kept_out, kept = ad.recurrence_kernel(x, *weights, "tanh", keep=True)
        assert np.array_equal(kept_out, out) and len(kept) == 1


class TestStructuralOps:
    """The output bias, added by each body op to its own output."""

    def test_add_bias(self):
        rng = np.random.default_rng(16)
        x, weights = rnn_arrays(rng, batch=3)
        check_gradients(rnn_loss(x, "tanh"), weights)
        x, a, *params = graph_arrays(rng, batch=3, joined=False)
        check_gradients(graph_loss(x, a, False, "tanh"), graph_params(*params))

    def test_add_bias_full_shape(self):
        # the bias adds to every window's row, bit for bit, in the tape op and
        # in its kernel alone
        rng = np.random.default_rng(17)
        x, weights = rnn_arrays(rng, batch=3)
        graph = graph_arrays(rng, batch=3)
        runs = [(lambda b: rnn_node(x, weights[:4] + [b], "tanh")[0].array,
                 lambda b: graph_node(*graph[:5], b, "tanh")[0].array),
                (lambda b: ad.recurrence_kernel(x, *weights[:4], b, "tanh"),
                 lambda b: ad.graph_tt_kernel(*graph[:5], b, "tanh"))]
        for rnn, tt in runs:
            np.testing.assert_array_equal(rnn(weights[4]), rnn(np.zeros(2)) + weights[4])
            np.testing.assert_array_equal(tt(graph[5]), tt(np.zeros(12)) + graph[5])


class TestGraphTT:
    """``graph_tt`` over blocks of whole windows, with and without ``w_r``."""

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("joined", [True, False], ids=["grgtn", "srgtn"])
    def test_gradients_match_finite_differences(self, joined, activation):
        x, a, w_x, w_r, cores, bias = graph_arrays(np.random.default_rng(58), batch=2,
                                                   joined=joined)
        # relu's kink is beyond the finite-difference step
        w = graph_weight(w_x, w_r)
        assert np.abs(graph_input(x, a, w) @ w.T).min() > 0.01
        params = graph_params(w_x, w_r, cores, bias)
        check_gradients(graph_loss(x, a, joined, activation), params)
        np.testing.assert_allclose(graph_node(x, a, w_x, w_r, cores, bias, activation)[0].array,
                                   graph_reference(x, a, w_x, w_r, cores, bias, activation),
                                   atol=1e-12)

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("joined", [True, False], ids=["grgtn", "srgtn"])
    def test_blocks_of_two_windows_match_one_block(self, joined, activation, monkeypatch):
        arrays = graph_arrays(np.random.default_rng(57), batch=7, joined=joined)
        x, hidden = arrays[0], arrays[2].shape[0]
        g = np.random.default_rng(56).standard_normal((7, 12))
        results = []
        for block_bytes in (ad._BLOCK_BYTES, 2 * 8 * np.prod(x.shape[1:3]) * hidden):
            monkeypatch.setattr(ad, "_BLOCK_BYTES", int(block_bytes))
            out = graph_node(*arrays, activation)[0]
            results.append([out.array] + [push(g) for push in out.pushes])
        for one, blocked in zip(*results):
            np.testing.assert_allclose(blocked, one, rtol=1e-12, atol=0)

    def test_pushes_share_one_activation_push_and_release_it(self, monkeypatch):
        fn, push = ad._ACTIVATIONS["tanh"]
        calls = []

        def counted(g, y, out=None):
            calls.append(1)
            return push(g, y, out=out)

        monkeypatch.setitem(ad._ACTIVATIONS, "tanh", (fn, counted))
        node = graph_node(*graph_arrays(np.random.default_rng(42), batch=3), "tanh")[0]
        g = np.random.default_rng(43).standard_normal(node.shape)
        for node_push in node.pushes:
            node_push(g)
        assert len(node.pushes) == 6 and len(calls) == 1  # one block of windows, one push
        ref = weakref.ref(g)
        del g
        assert ref() is None  # the last push dropped the shared gradient

    @pytest.mark.parametrize("variant, kept", [("grgtn", True), ("srgtn", False)])
    def test_only_grgtns_tape_keeps_the_windows(self, variant, kept):
        # grgtn's dx reads the windows again in the backward; srgtn's tape holds no
        # reference to them, so a training chunk's windows go once its forward returns
        cfg = ModelConfig(variant=variant, tau=4, d_phys=2, d_feat=3, hidden=3, out_dim=4,
                          head=HeadConfig(out_modes=(1, 2, 2)))
        x = np.random.default_rng(60).standard_normal((5, 4, 2, 3))
        ref = weakref.ref(x)
        nodes = {k: ad.constant(v) for k, v in init_params(cfg, seed=2).items()}
        root = ad.mse_loss(forward(cfg, nodes, x), np.zeros((5, 4)))
        del x
        assert (ref() is not None) == kept
        ad.backward(root)
        assert all(np.isfinite(node.grad).all() for node in nodes.values())

    def test_backward_keeps_no_gradient_of_the_hidden_block(self):
        # wide-train's grgtn step: the kept h, the kept A x and the small head
        # rows, but no hidden-sized gradient
        cfg = ModelConfig(variant="grgtn", tau=64, d_phys=16, d_feat=8, hidden=32, out_dim=2,
                          activation="tanh", head=HeadConfig(ranks=(4, 4), out_modes=(1, 1, 2)))
        rng = np.random.default_rng(59)
        x = rng.standard_normal((64, cfg.tau, cfg.d_phys, cfg.d_feat))
        labels = rng.integers(0, 2, 64)
        values = init_params(cfg, seed=1)
        hidden_bytes = 8 * len(x) * cfg.tau * cfg.d_phys * cfg.hidden
        tracemalloc.start()
        try:
            nodes = {k: ad.constant(v) for k, v in values.items()}
            ad.backward(ad.cross_entropy_loss(forward(cfg, nodes, x), labels))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(node.grad is not None for node in nodes.values())
        assert peak < 2 * hidden_bytes


class TestLosses:
    def test_mae_zero_for_equal(self):
        x = np.ones((3, 2))
        loss = ad.mae_loss(ad.constant(x), x)
        assert float(loss.array) == 0.0

    def test_mae_unit_offset(self):
        x = np.zeros((4, 3))
        loss = ad.mae_loss(ad.constant(x + 1.0), x)
        assert float(loss.array) == 1.0

    def test_mae_gradient(self):
        rng = np.random.default_rng(18)
        pred = rng.standard_normal((3, 4))
        target = pred + np.where(rng.standard_normal((3, 4)) > 0, 1.0, -1.0)
        check_gradients(lambda p: ad.mae_loss(p, target), [pred])

    def test_mse_gradient(self):
        rng = np.random.default_rng(19)
        pred = rng.standard_normal((3, 4))
        target = rng.standard_normal((3, 4))
        check_gradients(lambda p: ad.mse_loss(p, target), [pred])

    @pytest.mark.parametrize("loss", ["mae_loss", "mse_loss"])
    @pytest.mark.parametrize("shape", [(5,), (2, 3, 4)])
    def test_gradient_of_any_rank(self, loss, shape):
        rng = np.random.default_rng(22)
        pred = rng.standard_normal(shape)
        # residuals of at least 0.5 keep the MAE kink out of the differences
        target = pred + rng.choice([-1.0, 1.0], shape) * rng.uniform(0.5, 1.5, shape)
        check_gradients(lambda p: getattr(ad, loss)(p, target), [pred])

    def test_closed_form_gradients(self):
        rng = np.random.default_rng(23)
        pred, target = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
        for loss, expect in (
            (ad.mae_loss, np.sign(pred - target) / 12),
            (ad.mse_loss, 2.0 * (pred - target) / 12),
        ):
            node = ad.constant(pred)
            ad.backward(loss(node, target))
            np.testing.assert_allclose(node.grad, expect, rtol=1e-15, atol=0)
        logits, labels = rng.standard_normal((4, 3)), np.array([2, 0, 0, 1])
        node = ad.constant(logits)
        ad.backward(ad.cross_entropy_loss(node, labels))
        soft = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(node.grad, (soft - np.eye(3)[labels]) / 4, atol=1e-15)

    def test_twice_the_rows_halve_the_loss_and_its_gradient(self):
        # a chunk of half a batch: its loss and gradient are halves of the chunk's own
        # mean, exactly, since only the power-of-two factor changes
        rng = np.random.default_rng(24)
        pred, target = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
        labels = np.array([2, 0, 1, 1, 0])
        for loss, target in ((ad.mae_loss, target), (ad.mse_loss, target),
                             (ad.cross_entropy_loss, labels)):
            own, half = ad.constant(pred), ad.constant(pred)
            own_loss, half_loss = loss(own, target), loss(half, target, rows=2 * len(pred))
            assert float(half_loss.array) == float(own_loss.array) / 2
            ad.backward(own_loss)
            ad.backward(half_loss)
            assert np.array_equal(half.grad, own.grad / 2)
            # the default is the prediction's own rows
            same = ad.constant(pred)
            ad.backward(loss(same, target, rows=len(pred)))
            assert np.array_equal(same.grad, own.grad)

    def test_loss_is_one_node_over_the_prediction(self):
        pred = ad.constant(np.zeros((3, 2)))
        for loss in (
            ad.mae_loss(pred, np.ones((3, 2))),
            ad.mse_loss(pred, np.ones((3, 2))),
            ad.cross_entropy_loss(pred, np.array([0, 1, 1])),
        ):
            assert loss.parents == (pred,) and len(loss.pushes) == 1
            assert loss.shape == ()

    def test_target_shape_mismatch_rejected(self, monkeypatch):
        # a model whose outputs do not match the targets is refused by the config
        bad = changed(REGRESSION_DOC, "model", out_dim=6, head={"out_modes": [1, 2, 3]})
        assert_refused(bad, r"^model\.out_dim: targets have dimension 4, model emits 6")
        # and every loss train calls gets targets of its prediction's shape, or one label a row
        calls, _ = tape_calls(monkeypatch)
        for name, pred, target in calls:
            want = (len(pred),) if name == "cross_entropy_loss" else pred.shape
            assert target.shape == want, name

    def test_cross_entropy_uniform_logits(self):
        logits = np.zeros((5, 4))
        labels = np.array([0, 1, 2, 3, 0])
        loss = ad.cross_entropy_loss(ad.constant(logits), labels)
        np.testing.assert_allclose(float(loss.array), np.log(4.0), atol=1e-12)

    def test_cross_entropy_gradient(self):
        rng = np.random.default_rng(20)
        logits = rng.standard_normal((6, 3))
        labels = rng.integers(0, 3, size=6)
        check_gradients(lambda z: ad.cross_entropy_loss(z, labels), [logits])

    def test_empty_batch_rejected(self, monkeypatch):
        # an empty train or validation split is refused by the config, for either task
        for doc in (REGRESSION_DOC, CLASSIFICATION_DOC):
            for split, name in (([0.0, 0.5, 0.5], "train"), ([0.5, 0.0, 0.5], "val")):
                assert_refused(changed(doc, "data", split=split),
                               rf"^data\.split: the {name} split is empty")
        # and every loss train calls gets a non-empty batch
        calls, _ = tape_calls(monkeypatch)
        assert all(len(pred) > 0 for _, pred, _ in calls)

    def test_bad_labels_rejected(self, monkeypatch):
        # a model with fewer outputs than the data has classes is refused by the config
        bad = changed(CLASSIFICATION_DOC, "model", out_dim=1, head={"out_modes": [1, 1, 1]})
        assert_refused(bad, r"^model\.out_dim: labels need 2 classes, model emits 1")
        # and every label train hands cross_entropy_loss indexes a logit
        calls, _ = tape_calls(monkeypatch)
        for name, logits, labels in calls:
            if name == "cross_entropy_loss":
                assert labels.dtype.kind == "i"
                assert 0 <= labels.min() and labels.max() < logits.shape[1]


SRC = Path(ad.__file__).parent
ROOT = SRC.parents[1]
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")
DOTTED = re.compile(r"rgtn\.(\w+)\.(\w+)")


def _module_of(node: ast.ImportFrom) -> str | None:
    """The ``rgtn`` module ``node`` imports from, "" for the package, None for any other."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "rgtn":
        return node.module.partition(".")[2]
    return None


def _uses_in_python(path: Path, strings: bool) -> set[tuple[str, str]]:
    """The (module, name) pairs of ``rgtn`` that a Python file refers to.

    With ``strings``, a dotted ``"rgtn.module.name"`` or a ``("rgtn.module",
    "name")`` pair counts too: the benchmark's tracer wraps names so.  A
    ``getattr(module, f"...")`` refers to each of the module's public names
    that fit the f-string's fixed head and tail, as ``training.train`` finds
    its loss op; one with neither refers to none.
    """
    tree = ast.parse(path.read_text())
    aliases, imported, used = {}, {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _module_of(node) is not None:
            for alias in node.names:
                local = alias.asname or alias.name
                if _module_of(node) == "":
                    aliases[local] = alias.name
                else:
                    imported[local] = (_module_of(node), alias.name)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(DOTTED.findall(node.value))
        elif strings and isinstance(node, ast.Tuple) and len(node.elts) == 2:
            parts = [getattr(elt, "value", None) for elt in node.elts]
            if all(isinstance(p, str) for p in parts) and parts[0].startswith("rgtn."):
                used.add((parts[0][len("rgtn."):], parts[1]))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                used.add((aliases[node.value.id], node.attr))
        elif isinstance(node, ast.Name) and node.id in imported:
            used.add(imported[node.id])
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
              and len(node.args) == 2 and getattr(node.args[0], "id", None) in aliases
              and isinstance(node.args[1], ast.JoinedStr)):
            module, parts = aliases[node.args[0].id], node.args[1].values
            head, tail = (part.value if isinstance(part, ast.Constant) else ""
                          for part in (parts[0], parts[-1]))
            if head or tail:
                names = importlib.import_module(f"rgtn.{module}").__all__
                used |= {(module, name) for name in names
                         if name.startswith(head) and name.endswith(tail)}
    return used


def _entry_point_uses() -> set[tuple[str, str]]:
    """What the other modules, the benchmark, CI and the console script name."""
    used: set[tuple[str, str]] = set()
    for m in MODULES:
        # a module's use of its own names is not a caller
        used |= {use for use in _uses_in_python(SRC / f"{m}.py", False) if use[0] != m}
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used |= _uses_in_python(path, True)
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    for module, names in re.findall(r"from rgtn\.(\w+) import ([\w, ]+)", workflow):
        used |= {(module, name.strip()) for name in names.split(",")}
    used |= set(re.findall(r'"rgtn\.(\w+):(\w+)"', (ROOT / "pyproject.toml").read_text()))
    return used


def _named_types(obj) -> set[str]:
    """The words in the annotations of a function's signature or a dataclass's fields."""
    if dataclasses.is_dataclass(obj):
        hints = [f.type for f in dataclasses.fields(obj)]
    else:
        # a class other than a dataclass is named by its own __init__, if it has one
        function = vars(obj).get("__init__") if inspect.isclass(obj) else obj
        if not inspect.isfunction(function):
            return set()
        sig = inspect.signature(function)
        hints = [p.annotation for p in sig.parameters.values()] + [sig.return_annotation]
    return set(re.findall(r"\w+", " ".join(map(str, hints))))


def _unused_public_names() -> dict[str, list[str]]:
    """Each module's ``__all__`` names that no entry point reaches."""
    public = {}
    for m in MODULES:
        module = importlib.import_module(f"rgtn.{m}")
        public.update({(m, name): getattr(module, name) for name in module.__all__})
    used = _entry_point_uses() & set(public)
    # a class a used name's signature or fields name is used with it
    frontier = set(used)
    while frontier:
        m, name = frontier.pop()
        namespace = vars(importlib.import_module(f"rgtn.{m}"))
        for word in _named_types(public[(m, name)]):
            for key, obj in public.items():
                if key not in used and namespace.get(word) is obj:
                    used.add(key)
                    frontier.add(key)
    unused: dict[str, list[str]] = {}
    for m, name in sorted(set(public) - used):
        unused.setdefault(m, []).append(name)
    return unused


def test_every_public_op_has_a_caller_in_the_package():
    # every module's __all__, used by another module, the benchmark, CI or the console
    # script; a re-export from __init__ is not a use
    unused = _unused_public_names()
    assert not unused, f"public names that no entry point uses: {unused}"
