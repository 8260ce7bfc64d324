"""Tape gradients verified against central finite differences."""

import ast
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from oracles import tt_head_matrix
from rgtn import autodiff as ad
from rgtn.models import HeadConfig, ModelConfig, forward, init_params
from rgtn.tensor import ShapeError


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


class TestBackwardMechanics:
    def test_non_scalar_root_rejected(self):
        node = ad.constant(np.ones((2, 2)))
        with pytest.raises(ShapeError):
            ad.backward(node)

    def test_linear_map_gradient_pattern(self):
        rng = np.random.default_rng(0)
        w = ad.constant(rng.standard_normal((3, 4)))
        x = rng.standard_normal(4)
        y = ad.linear(x[None], w)
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
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 4))
        node = ad.constant(x)
        # |x|^2 as x x^T with the node as both operands: each use pushes x into x
        y = ad.linear(node, node)
        # a target below the output: the loss's gradient is 1
        ad.backward(ad.mae_loss(y, y.array - 1.0))
        np.testing.assert_allclose(node.grad, 2.0 * x, atol=1e-12)

    def test_diamond_graph(self):
        x = ad.constant(np.array([[2.0]]))
        a = ad.linear(x, np.array([[3.0]]))
        b = ad.linear(x, x)
        # |3x + x^2| has gradient 3 + 2x
        loss = ad.mae_loss(ad.add_bias(a, b), np.zeros((1, 1)))
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, 3.0 + 4.0, atol=1e-12)


class TestElementwiseOps:
    def test_absolute_away_from_kink(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6,))
        a = np.where(np.abs(a) < 0.1, -0.7, a)
        check_gradients(lambda x: ad.mae_loss(x, np.zeros(a.shape)), [a])


class TestTensordot:
    """A contraction of one axis pair as the models write it: ``linear`` over
    every leading axis of x."""

    def test_batched_feature_projection(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, 3, 2, 3))
        w = rng.standard_normal((4, 3))
        check_gradients(lambda a, b: square_mean(ad.linear(a, b)), [x, w])

    def test_extent_mismatch(self):
        with pytest.raises(ShapeError):
            ad.linear(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 4))))


class TestMatmul:
    """The GEMM ops: ``linear`` with an ndarray operand as data, and ``graph_tt``'s
    product of the time adjacency and a window batch, on data only."""

    def test_batched_right_operand_under_2d_left(self):
        # data only, as the time adjacency meets a batch of windows: no push;
        # an identity weight and head read the mixed windows x + A x back out
        rng = np.random.default_rng(31)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((2, 3, 2, 4))
        w, cores = ad.constant(np.eye(4)), [ad.constant(np.eye(n)[None, :, :, None])
                                            for n in (3, 2, 4)]
        out = ad.graph_tt(b, a, w, cores)
        expect = b + (a @ b.reshape(2, 3, 8)).reshape(b.shape)
        np.testing.assert_allclose(out.array, expect.transpose(0, 3, 2, 1).reshape(2, -1),
                                   atol=1e-12)
        assert out.parents == (w, *cores)
        for left, right in ((ad.constant(a), b), (a, ad.constant(b))):
            with pytest.raises(ShapeError, match="data only"):
                ad.graph_tt(right, left, w, cores)

    def test_both_operands_transposed(self):
        # a.T @ b.T as linear on a transposed view: the weight enters transposed too
        rng = np.random.default_rng(35)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((5, 4))
        out = ad.linear(a.T, b).array
        np.testing.assert_allclose(out, a.T @ b.T, atol=1e-12)
        assert out.flags.c_contiguous
        # constant() keeps the view, so the node's array is the transposed one too
        check_gradients(lambda x, y: square_mean(ad.linear(x, y)), [a.T, b])

    def test_linear_is_product_with_transpose(self):
        rng = np.random.default_rng(33)
        x = rng.standard_normal((2, 4, 3))
        w = rng.standard_normal((5, 3))
        np.testing.assert_allclose(ad.linear(x, w).array, x @ w.T, atol=1e-12)
        check_gradients(lambda u, v: square_mean(ad.linear(u, v)), [x, w])

    @pytest.mark.parametrize("data_left", [True, False])
    @pytest.mark.parametrize("left,right", [((2, 3), (3, 5)), ((3, 2, 4), (4, 5))])
    def test_ndarray_operand_is_data(self, data_left, left, right):
        # linear's x or its (N, K) weight as a plain array: no node, no push
        rng = np.random.default_rng(34)
        a, b = rng.standard_normal(left), rng.standard_normal(right[::-1])
        data, value = (a, b) if data_left else (b, a)

        def product(node):
            return ad.linear(data, node) if data_left else ad.linear(node, data)

        check_gradients(lambda node: square_mean(product(node)), [value])
        node = ad.constant(value)
        out = product(node)
        np.testing.assert_allclose(out.array, a @ b.T, atol=1e-12)
        assert out.parents == (node,) and len(out.pushes) == 1

    def test_non_contiguous_input(self):
        rng = np.random.default_rng(34)
        a = rng.standard_normal((4, 3, 2)).transpose(2, 1, 0)  # (2, 3, 4), not contiguous
        w = rng.standard_normal((5, 4))
        assert not a.flags.c_contiguous
        check_gradients(lambda x, y: square_mean(ad.linear(x, y)), [a, w])
        x = ad.constant(a)
        y = ad.linear(x, ad.constant(w))
        # a target below every output: the loss's gradient is 1/30 on each
        ad.backward(ad.mae_loss(y, y.array - 1.0))
        np.testing.assert_allclose(x.grad, np.broadcast_to(w.sum(0) / 30.0, a.shape), atol=1e-12)

    def test_shape_errors(self):
        # the adjacency must be (tau, tau) for the window's tau, and x a 4-D batch
        w, cores = ad.constant(np.eye(4)), [ad.constant(np.eye(n)[None, :, :, None])
                                            for n in (3, 2, 4)]
        x = np.ones((2, 3, 2, 4))
        for bad_x, bad_a in ((x, np.ones((3, 2))), (x, np.ones((2, 2))), (x, np.ones(3)),
                             (x[0], np.ones((3, 3))), (x[:, :2], np.ones((3, 3)))):
            with pytest.raises(ShapeError):
                ad.graph_tt(bad_x, bad_a, w, cores)


ACTIVATIONS = ["tanh", "sigmoid", "relu", "identity"]


def activated(z, activation):
    """``act(z)`` of a 3-D node the way the rnn activates ``linear``'s output.

    ``recurrence`` with zero feedback and zero bias, as ``(batch, hidden * tau)``
    rows: one step of tau is ``act(z[0])`` itself.
    """
    n = z.shape[-1]
    return ad.recurrence(z, ad.constant(np.zeros((n, n))), ad.constant(np.zeros(n)), activation)


class TestLinear:
    """``linear(x, w)``: ``x @ w.T`` as one node, and its output under each activation."""

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("x_is_node", [True, False])
    def test_gradients_match_finite_differences(self, activation, x_is_node):
        rng = np.random.default_rng(43)
        w = rng.standard_normal((5, 4))
        x = rng.standard_normal((2, 3, 4))
        assert np.abs(x @ w.T).min() > 0.05  # relu's kink is beyond the finite-difference step
        if x_is_node:
            check_gradients(lambda u, v: square_mean(activated(ad.linear(u, v), activation)),
                            [x, w])
        else:
            check_gradients(lambda v: square_mean(activated(ad.linear(x, v), activation)), [w])

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_equals_the_activation_of_a_plain_linear(self, activation):
        rng = np.random.default_rng(41)
        x, w = rng.standard_normal((1, 6, 3)), rng.standard_normal((4, 3))
        target = rng.standard_normal((6, 4))
        u, v = ad.constant(x), ad.constant(w)
        out = activated(ad.linear(u, v), activation)
        ad.backward(ad.mse_loss(out, target))
        # the same steps by hand: the GEMM, the activation of it plus the zero bias,
        # the activation's push and linear's pushes
        fn, push = ad._ACTIVATIONS[activation]
        plain = ad.linear(ad.constant(x), ad.constant(w))
        y = ad.constant(fn(plain.array[0] + 0.0))
        ad.backward(ad.mse_loss(y, target))
        dz = push(y.grad, y.array)[None]
        composed = (y.array, *(node_push(dz) for node_push in plain.pushes))
        for chained, expect in zip((out.array, u.grad, v.grad), composed):
            np.testing.assert_array_equal(chained, expect)

    @pytest.mark.parametrize("layout", ["fortran", "transposed_view"])
    def test_weight_layout_does_not_change_the_result(self, layout):
        rng = np.random.default_rng(43)
        # (N, K) weights read through BLAS's transposed flag (K >= _SHORT_K) and copied
        for shape in ((3, 5), (2, ad._SHORT_K), (16, 4)):
            w = rng.standard_normal(shape)
            x = rng.standard_normal((7, shape[1]))
            other = np.asfortranarray(w) if layout == "fortran" else np.ascontiguousarray(w.T).T
            assert not other.flags.c_contiguous and np.array_equal(other, w)
            results = []
            for weight in (w, other):
                u, v = ad.constant(x), ad.constant(weight)
                out = ad.linear(u, v)
                ad.backward(square_mean(out))
                results.append((out.array, u.grad, v.grad))
            for c_order, other_order in zip(*results):
                np.testing.assert_array_equal(c_order, other_order)

    def test_shape_errors(self):
        for x, w in ((np.ones(3), np.ones((2, 3))), (np.ones((2, 3)), np.ones((1, 2, 3))),
                     (np.ones((2, 3)), np.ones((2, 4)))):
            with pytest.raises(ShapeError):
                ad.linear(x, ad.constant(w))


def block_rows(n):
    """Rows per block of ``linear`` with N outputs, from the module constant."""
    return max(1, ad._BLOCK_BYTES // (8 * n))


class TestBlockedLinear:
    """``linear`` over more rows than one block: the blocks stitch into one product."""

    N, K = 32, 3

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("x_is_node", [True, False])
    @pytest.mark.parametrize("blocks,extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 3)],
                             ids=["1", "R-1", "R", "R+1", "2R+3"])
    def test_gradients_match_finite_differences(self, blocks, extra, x_is_node, activation,
                                                monkeypatch):
        # blocks of 16 rows, so that each finite difference is cheap; the
        # full block size is checked against one GEMM below
        monkeypatch.setattr(ad, "_BLOCK_BYTES", 8 * self.N * 16)
        rows = blocks * block_rows(self.N) + extra
        rng = np.random.default_rng(45)
        # rows of w of one sign each, so every |x @ w.T| >= 0.01 K: far from relu's kink
        w = rng.uniform(0.1, 0.5, (self.N, self.K)) * np.where(np.arange(self.N) % 2, -1, 1)[:, None]
        x = rng.uniform(0.1, 0.5, (1, rows, self.K))
        target = rng.standard_normal((rows, self.N))

        def loss(xv, wv):
            return ad.mse_loss(activated(ad.linear(xv, wv), activation), target)

        u, v = ad.constant(x), ad.constant(w)
        ad.backward(loss(u if x_is_node else x, v))
        assert (u.grad is not None) == x_is_node
        h = 1e-6
        # every weight, and x at the first and last row of each block
        coords = [(1, idx) for idx in np.ndindex(w.shape)]
        if x_is_node:
            step = block_rows(self.N)
            edges = {r for lo in range(0, rows, step) for r in (lo, min(lo + step, rows) - 1)}
            coords += [(0, (0, r, j)) for r in sorted(edges) for j in range(self.K)]
        for which, idx in coords:
            value = (x, w)[which]
            shifted = []
            for sign in (1.0, -1.0):
                trial = value.copy()
                trial[idx] += sign * h
                args = (trial, w) if which == 0 else (x, trial)
                shifted.append(float(loss(*args).array))
            fd = (shifted[0] - shifted[1]) / (2 * h)
            got = (u, v)[which].grad[idx]
            assert abs(got - fd) <= 1e-8 + 1e-5 * abs(fd), (which, idx)

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_forward_equals_one_gemm(self, activation):
        rng = np.random.default_rng(46)
        w = rng.standard_normal((self.N, 16))
        x = rng.standard_normal((3 * block_rows(self.N) + 5, 16))
        fn = ad._ACTIVATIONS[activation][0]
        np.testing.assert_allclose(activated(ad.linear(x[None], w), activation).array,
                                   fn(x @ w.T), rtol=1e-14)

    def test_zero_rows(self):
        u, w = ad.constant(np.empty((0, self.K))), ad.constant(np.ones((self.N, self.K)))
        out = ad.linear(u, w)
        assert out.shape == (0, self.N)
        dx, dw = (push(np.empty((0, self.N))) for push in out.pushes)
        assert dx.shape == (0, self.K)
        np.testing.assert_array_equal(dw, np.zeros((self.N, self.K)))

    def test_backward_makes_no_output_sized_temporary(self):
        rows = 8 * block_rows(self.N) + 1
        rng = np.random.default_rng(47)
        u = ad.constant(rng.standard_normal((rows, 8)))
        node = ad.linear(u, ad.constant(rng.standard_normal((self.N, 8))))
        g = rng.standard_normal(node.shape)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            grads = [push(g) for push in node.pushes]
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < g.nbytes  # x's gradient, not a (rows, N) array
        np.testing.assert_allclose(grads[0], g @ node.parents[1].array, rtol=1e-12, atol=1e-10)
        np.testing.assert_allclose(grads[1], g.T @ u.array, rtol=1e-12, atol=1e-10)


class TestFilterWeight:
    """grgtn's projection weight ``[W_x | W_r W_x]`` as one node."""

    def test_equals_the_joined_product(self):
        rng = np.random.default_rng(44)
        w_r, w_x = rng.standard_normal((4, 4)), rng.standard_normal((4, 3))
        r, x = ad.constant(w_r), ad.constant(w_x)
        out = ad.filter_weight(r, x)
        np.testing.assert_array_equal(out.array, np.concatenate((w_x, w_r @ w_x), 1))
        # w_r first: the op belongs to W_r's stage
        assert out.parents == (r, x)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(45)
        w_r, w_x = rng.standard_normal((3, 3)), rng.standard_normal((3, 2))
        check_gradients(lambda r, x: square_mean(ad.filter_weight(r, x)), [w_r, w_x])

    def test_shape_errors(self):
        for w_r, w_x in (((3, 3), (4, 2)), ((4, 3), (4, 2)), ((4, 4), (4,))):
            with pytest.raises(ShapeError):
                ad.filter_weight(ad.constant(np.ones(w_r)), ad.constant(np.ones(w_x)))


class TestTapeLifetime:
    def test_backward_keeps_only_leaf_gradients(self):
        rng = np.random.default_rng(35)
        w = ad.constant(rng.standard_normal((3, 4)))
        inner = ad.linear(rng.standard_normal((5, 4)), w)
        root = square_mean(inner)
        ad.backward(root)
        assert w.grad is not None
        assert inner.grad is None and root.grad is None

    def test_no_tape_keeps_no_inputs(self):
        w = ad.constant(np.ones((2, 2)))
        with ad.no_tape():
            out = ad.linear(np.ones((3, 2)), w)
        assert out.parents == () and out.pushes == ()
        again = ad.linear(np.ones((3, 2)), w)
        assert again.parents and np.array_equal(again.array, out.array)


class TestStructuralOps:
    def test_add_bias(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((4, 2, 3))
        b = rng.standard_normal((3,))
        check_gradients(lambda u, v: square_mean(ad.add_bias(u, v)), [x, b])

    def test_add_bias_full_shape(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((2, 3))
        b = rng.standard_normal((2, 3))
        check_gradients(lambda u, v: square_mean(ad.add_bias(u, v)), [x, b])

    def test_add_bias_shape_error(self):
        with pytest.raises(ShapeError):
            ad.add_bias(ad.constant(np.ones((2, 3))), ad.constant(np.ones(2)))


class TestRecurrence:
    @pytest.mark.parametrize("activation", ["tanh", "sigmoid", "relu", "identity"])
    @pytest.mark.parametrize("tau", [1, 2, 7])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_gradients_match_finite_differences(self, activation, tau, batch):
        rng = np.random.default_rng(37)
        u = rng.standard_normal((tau, batch, 3))
        w = rng.standard_normal((3, 3)) * 0.6
        b = rng.standard_normal(3) * 0.3
        check_gradients(
            lambda u, w, b: square_mean(ad.recurrence(u, w, b, activation)), [u, w, b]
        )

    def test_one_loop_serves_all_three_pushes(self):
        rng = np.random.default_rng(39)
        u, w, b = (ad.constant(rng.standard_normal(s)) for s in ((3, 2, 4), (4, 4), (4,)))
        node = ad.recurrence(u, w, b, "tanh")
        g = rng.standard_normal(node.shape)
        du = node.pushes[0](g)
        assert node.pushes[0](g) is du
        np.testing.assert_array_equal(node.pushes[2](g), du.sum(axis=(0, 1)))

    @pytest.mark.parametrize("batch", [0, 3])
    def test_rows_are_the_states_flattened_time_fastest(self, batch):
        # the flatten the dense head reads: time-major states, transposed and reshaped
        rng = np.random.default_rng(40)
        u = rng.standard_normal((5, batch, 4))
        w, b = rng.standard_normal((4, 4)) * 0.5, rng.standard_normal(4)
        h = np.empty_like(u)
        for t in range(5):
            h[t] = np.tanh(u[t] + (h[t - 1] @ w.T if t else 0.0) + b)
        node = ad.recurrence(ad.constant(u), ad.constant(w), ad.constant(b), "tanh")
        np.testing.assert_array_equal(node.array, h.transpose(1, 2, 0).reshape(batch, 4 * 5))
        assert node.pushes[0](np.ones(node.shape)).shape == u.shape

    def test_shape_errors(self):
        u, w, b = np.ones((3, 2, 4)), np.ones((4, 4)), np.ones(4)
        for bad in ((np.ones((2, 4)), w, b), (u, np.ones((4, 3)), b), (u, w, np.ones(3))):
            with pytest.raises(ShapeError):
                ad.recurrence(*(ad.constant(a) for a in bad), "tanh")


def graph_arrays(rng, batch, joined=True):
    """``graph_tt``'s inputs: windows, adjacency, weight (grgtn's width if joined) and cores."""
    (tau, phys, hidden), out, full, feat = (3, 2, 4), (2, 3, 2), (1, 2, 3, 1), 2
    cores = [rng.standard_normal((full[k], n, o, full[k + 1])) * 0.5
             for k, (n, o) in enumerate(zip((tau, phys, hidden), out))]
    x = rng.standard_normal((batch, tau, phys, feat))
    a = np.tril(rng.standard_normal((tau, tau)), -1) * 0.5
    w = rng.standard_normal((hidden, 2 * feat if joined else feat)) * 0.5
    return x, a, w, cores


def graph_input(x, a, w):
    """The GEMM input ``graph_tt`` builds: ``[x | A x]`` or ``x + A x`` by the weight's width."""
    ax = np.einsum("ts,bspf->btpf", a, x)
    return np.concatenate((x, ax), -1) if w.shape[1] == 2 * x.shape[-1] else x + ax


def graph_reference(x, a, w, cores, activation):
    """``graph_tt``'s rows: the hidden block flattened first mode fastest, times the head's matrix."""
    h = ad._ACTIVATIONS[activation][0](graph_input(x, a, w) @ w.T)
    return h.transpose(0, 3, 2, 1).reshape(len(x), -1) @ tt_head_matrix(cores)


class TestTTHead:
    """The tensor-train head inside ``graph_tt``: every mode > 1 and unequal ranks,
    so no reshape can pass by accident."""

    def test_forward_equals_the_dense_matrix(self):
        x, a, w, cores = graph_arrays(np.random.default_rng(50), batch=5)
        out = ad.graph_tt(x, a, ad.constant(w), [ad.constant(c) for c in cores], "tanh").array
        np.testing.assert_allclose(out, graph_reference(x, a, w, cores, "tanh"), atol=1e-12)

    def test_gradients_match_finite_differences(self):
        x, a, w, cores = graph_arrays(np.random.default_rng(51), batch=2)
        check_gradients(lambda v, *c: square_mean(ad.graph_tt(x, a, v, c, "tanh")), [w, *cores])

    def test_zero_windows(self):
        x, a, w, cores = graph_arrays(np.random.default_rng(52), batch=0)
        v, c = ad.constant(w), [ad.constant(arr) for arr in cores]
        out = ad.graph_tt(x, a, v, c, "tanh")
        assert out.shape == (0, 12) and out.parents == (v, *c)
        grads = [push(np.zeros(out.shape)) for push in out.pushes]
        for got, value in zip(grads, [w, *cores]):
            np.testing.assert_array_equal(got, np.zeros(value.shape))

    def test_pushes_share_one_backward_and_release_it(self):
        x, a, w, cores = graph_arrays(np.random.default_rng(53), batch=3)
        out = ad.graph_tt(x, a, ad.constant(w), [ad.constant(c) for c in cores], "tanh")
        g = np.ones(out.shape)
        dw = out.pushes[0](g)
        assert np.shares_memory(out.pushes[0](g), dw)  # computed once for this g
        for push in out.pushes[1:]:
            push(g)
        ref = weakref.ref(g)  # the last push dropped the shared result
        del g
        assert ref() is None

    def test_no_tape_keeps_no_inputs(self):
        x, a, w, cores = graph_arrays(np.random.default_rng(54), batch=2)
        v, nodes = ad.constant(w), [ad.constant(c) for c in cores]
        with ad.no_tape():
            out = ad.graph_tt(x, a, v, nodes, "tanh")
        assert out.parents == () and out.pushes == ()
        np.testing.assert_array_equal(out.array, ad.graph_tt(x, a, v, nodes, "tanh").array)

    def test_shape_errors(self):
        x, a, w, cores = graph_arrays(np.random.default_rng(55), batch=2)
        for bad_w, bad_cores in ((w, cores[:2]), (w[:, :3], cores), (w[:3], cores),
                                 (w, [cores[0], cores[1][:1], cores[2]]),
                                 (w, [cores[0][0], *cores[1:]]),
                                 (w, [cores[0], cores[1][:, :1], cores[2]])):
            with pytest.raises(ShapeError):
                ad.graph_tt(x, a, ad.constant(bad_w), [ad.constant(c) for c in bad_cores])


class TestGraphTT:
    """``graph_tt`` over blocks of whole windows, for both weight widths."""

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("joined", [True, False], ids=["grgtn", "srgtn"])
    def test_gradients_match_finite_differences(self, joined, activation):
        x, a, w, cores = graph_arrays(np.random.default_rng(58), batch=2, joined=joined)
        # relu's kink is beyond the finite-difference step
        assert np.abs(graph_input(x, a, w) @ w.T).min() > 0.01
        check_gradients(lambda v, *c: square_mean(ad.graph_tt(x, a, v, c, activation)),
                        [w, *cores])
        np.testing.assert_allclose(
            ad.graph_tt(x, a, ad.constant(w), [ad.constant(c) for c in cores], activation).array,
            graph_reference(x, a, w, cores, activation), atol=1e-12)

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("joined", [True, False], ids=["grgtn", "srgtn"])
    def test_blocks_of_two_windows_match_one_block(self, joined, activation, monkeypatch):
        x, a, w, cores = graph_arrays(np.random.default_rng(57), batch=7, joined=joined)
        g = np.random.default_rng(56).standard_normal((7, 12))
        results = []
        for block_bytes in (ad._BLOCK_BYTES, 2 * 8 * np.prod(x.shape[1:3]) * w.shape[0]):
            monkeypatch.setattr(ad, "_BLOCK_BYTES", int(block_bytes))
            out = ad.graph_tt(x, a, ad.constant(w), [ad.constant(c) for c in cores], activation)
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
        x, a, w, cores = graph_arrays(np.random.default_rng(42), batch=3)
        node = ad.graph_tt(x, a, ad.constant(w), [ad.constant(c) for c in cores], "tanh")
        g = np.random.default_rng(43).standard_normal(node.shape)
        for node_push in node.pushes:
            node_push(g)
        assert len(node.pushes) == 4 and len(calls) == 1  # one block of windows, one push
        ref = weakref.ref(g)
        del g
        assert ref() is None  # the last push dropped the shared gradient

    def test_backward_keeps_no_gradient_of_the_hidden_block(self):
        # wide-train's grgtn step: the kept h, the kept inputs [x | A x] and the
        # small head rows, but no hidden-sized gradient
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

    def test_loss_is_one_node_over_the_prediction(self):
        pred = ad.constant(np.zeros((3, 2)))
        for loss in (
            ad.mae_loss(pred, np.ones((3, 2))),
            ad.mse_loss(pred, np.ones((3, 2))),
            ad.cross_entropy_loss(pred, np.array([0, 1, 1])),
        ):
            assert loss.parents == (pred,) and len(loss.pushes) == 1
            assert loss.shape == ()

    def test_target_shape_mismatch_rejected(self):
        pred = ad.constant(np.zeros((3, 2)))
        for target in (np.zeros((2, 3)), np.zeros(6), np.zeros((3, 2, 1))):
            with pytest.raises(ShapeError):
                ad.mae_loss(pred, target)
            with pytest.raises(ShapeError):
                ad.mse_loss(pred, target)
        with pytest.raises(ShapeError):
            ad.cross_entropy_loss(pred, np.zeros(2, dtype=int))

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

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            ad.mae_loss(ad.constant(np.zeros((0, 2))), np.zeros((0, 2)))
        with pytest.raises(ValueError):
            ad.mse_loss(ad.constant(np.zeros((0, 2))), np.zeros((0, 2)))
        with pytest.raises(ValueError):
            ad.cross_entropy_loss(ad.constant(np.zeros((0, 2))), np.zeros(0, dtype=int))

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            ad.cross_entropy_loss(ad.constant(np.zeros((2, 2))), np.array([0, 2]))
        with pytest.raises(ValueError):
            ad.cross_entropy_loss(ad.constant(np.zeros((2, 2))), np.array([-1, 0]))


def _package_uses_of_autodiff() -> set[str]:
    """Names of ``autodiff`` that another module of the package refers to."""
    used: set[str] = set()
    for path in Path(ad.__file__).parent.glob("*.py"):
        if path.name == "autodiff.py":
            continue
        tree = ast.parse(path.read_text())
        aliases, imported = set(), {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None and alias.name == "autodiff":
                        aliases.add(alias.asname or alias.name)
                    elif node.module == "autodiff":
                        imported[alias.asname or alias.name] = alias.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in aliases:
                    used.add(node.attr)
            elif isinstance(node, ast.Name) and node.id in imported:
                used.add(imported[node.id])
    return used


def test_every_public_op_has_a_caller_in_the_package():
    # a re-export from __init__ is not a use
    unused = set(ad.__all__) - {"TapeNode"} - _package_uses_of_autodiff()
    assert not unused, f"public tape ops that no module of the package uses: {sorted(unused)}"
