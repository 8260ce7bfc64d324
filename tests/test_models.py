"""Model assemblies: equivalence with the oracles, counts, gradients, aliasing."""

import pickle
import re
import tracemalloc
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    block_map,
    body_params,
    hidden_node,
    hidden_rows,
    hidden_states,
    rnn_loop,
    time_adjacency,
    tt_head_matrix,
    unflatten,
)
from rgtn import autodiff as ad
from rgtn.data import window
from rgtn.graph import build_time_adjacency
from rgtn.models import (
    VARIANTS,
    HeadConfig,
    ModelConfig,
    forward,
    init_params,
    param_count,
    param_shapes,
    predict,
)
from rgtn.training import LOSS_TASKS


# Tests parametrized by (variant, head) name the head the variant has, tt on
# grgtn and srgtn and dense on the rnn, or "none": they then read the hidden
# block the head reads, through ``oracles.hidden_node``.


def small_config(variant, activation="tanh", tau=3, d=2, f=3, m=4, out=4, out_modes=(1, 2, 2)):
    return ModelConfig(
        variant=variant,
        tau=tau,
        d_phys=d,
        d_feat=f,
        hidden=m,
        out_dim=out,
        activation=activation,
        head=HeadConfig(ranks=(2, 2), out_modes=out_modes),
    )


def params_for(cfg, head, seed):
    """``init_params``, less the head's parameters when no head is read."""
    values = init_params(cfg, seed=seed)
    return body_params(values) if head == "none" else values


def output(cfg, values, x, head):
    """``forward``, or with head "none" the hidden block's rows as a node."""
    return hidden_node(cfg, values, x) if head == "none" else forward(cfg, values, x)


def untaped_and_taped(cfg, values, x, head):
    """``output``'s rows computed without a tape (``predict``) and on one."""
    if head == "none":
        return hidden_rows(cfg, values, x), output(cfg, values, x, head).array
    return predict(cfg, values, x), output(cfg, values, x, head).array


class TestConfigValidation:
    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            ModelConfig("gru", 3, 2, 2, 4, 4)

    def test_tt_head_requires_out_modes(self):
        with pytest.raises(ValueError):
            ModelConfig("srgtn", 3, 2, 2, 4, 4, head=HeadConfig(out_modes=None))

    def test_out_modes_product_checked(self):
        with pytest.raises(ValueError):
            ModelConfig("srgtn", 3, 2, 2, 4, 5, head=HeadConfig(out_modes=(1, 2, 2)))

    def test_head_follows_the_variant(self):
        # one head section: the graph variants read it, the rnn has a dense head
        head = HeadConfig(ranks=(2, 3), out_modes=(1, 2, 2))
        for variant in ("grgtn", "srgtn"):
            shapes = param_shapes(ModelConfig(variant, 3, 2, 2, 4, 4, head=head))
            assert [k for k in shapes if k.startswith("head.")] == [
                "head.core0", "head.core1", "head.core2", "head.bias"
            ]
            assert shapes["head.core1"] == (2, 2, 2, 3)
        shapes = param_shapes(ModelConfig("rnn", 3, 2, 2, 4, 5, head=head))
        assert [k for k in shapes if k.startswith("head.")] == ["head.w", "head.bias"]
        assert shapes["head.w"] == (5, 3 * 4)
        # the rnn needs no head section, and a graph variant cannot do without one
        ModelConfig("rnn", 3, 2, 2, 4, 5)
        with pytest.raises(ValueError, match="head.out_modes"):
            ModelConfig("grgtn", 3, 2, 2, 4, 5)

    def test_head_of_two_modes_is_refused(self):
        # built directly, not through the config: the model checks its own head
        with pytest.raises(ValueError, match=r"^head\.out_modes: must pair with"):
            ModelConfig("grgtn", 3, 2, 2, 4, 4, head=HeadConfig(out_modes=(2, 2)))

    def test_c_range_checked(self):
        with pytest.raises(ValueError):
            small_config("grgtn") and ModelConfig(
                "grgtn", 3, 2, 2, 4, 4, c=1.0, head=HeadConfig(out_modes=(1, 2, 2))
            )


class TestParamCounts:
    def test_grgtn_minus_srgtn_is_hidden_squared(self):
        for m in (2, 5, 8):
            head = HeadConfig(ranks=(2, 2), out_modes=(1, 3, 4))
            g = ModelConfig("grgtn", 6, 3, 5, m, 12, head=head)
            s = ModelConfig("srgtn", 6, 3, 5, m, 12, head=head)
            assert param_count(g)[1] - param_count(s)[1] == m * m
        assert m * m == 64

    def test_headless_srgtn_counts_projection_only(self):
        counts, _ = param_count(small_config("srgtn", tau=3, d=1, f=3, m=2))
        body = body_params(counts)
        assert body == {"w_x": 6}
        assert sum(body.values()) == 6

    def test_tt_head_counts_core_sizes(self):
        cfg = small_config("srgtn")
        counts, total = param_count(cfg)
        shapes = param_shapes(cfg)
        for k in range(3):
            name = f"head.core{k}"
            assert counts[name] == int(np.prod(shapes[name]))
        assert total == sum(counts.values())

    def test_rnn_exceeds_srgtn_for_matched_config(self):
        head = HeadConfig(ranks=(2, 2), out_modes=(1, 4, 3))
        s = ModelConfig("srgtn", 6, 4, 3, 8, 12, head=head)
        r = ModelConfig("rnn", 6, 4, 3, 8, 12, head=head)
        assert param_count(r)[1] > param_count(s)[1]

    def test_init_matches_shapes(self):
        cfg = small_config("grgtn")
        values = init_params(cfg, seed=0)
        assert {k: v.shape for k, v in values.items()} == param_shapes(cfg)
        np.testing.assert_array_equal(values["head.bias"], np.zeros(4))

    def test_init_deterministic(self):
        cfg = small_config("rnn")
        a = init_params(cfg, seed=7)
        b = init_params(cfg, seed=7)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])


class TestForwardEquivalence:
    def test_filters_match_pure_layers_per_physical_slice(self):
        rng = np.random.default_rng(0)
        for variant in ("grgtn", "srgtn"):
            cfg = small_config(variant, activation="identity")
            values = params_for(cfg, "none", seed=1)
            x = rng.standard_normal((5, cfg.tau, cfg.d_phys, cfg.d_feat))
            h = hidden_states(cfg, values, x)
            a = time_adjacency(cfg.tau, cfg.c)
            w_r = values["w_r"] if variant == "grgtn" else np.eye(cfg.hidden)
            for b in range(5):
                for d in range(cfg.d_phys):
                    expect = block_map(a, w_r, x[b, :, d, :] @ values["w_x"].T)
                    np.testing.assert_allclose(h[b, :, d, :], expect, atol=1e-12)

    @pytest.mark.parametrize("variant", ["grgtn", "srgtn"])
    @pytest.mark.parametrize("head_kind", ["tt", "none"])
    def test_filters_match_block_map_with_input_side_mix(self, variant, head_kind):
        # F < H, a long window and a W_r far from idempotent: the mix runs on
        # the input and W_r folds into the projection, which must not matter
        rng = np.random.default_rng(14)
        tau, d, f, m = 9, 3, 2, 5
        cfg = ModelConfig(
            variant=variant, tau=tau, d_phys=d, d_feat=f, hidden=m, out_dim=6, c=0.8,
            head=HeadConfig(ranks=(2, 3), out_modes=(2, 1, 3)),
        )
        values = params_for(cfg, head_kind, seed=6)
        if variant == "grgtn":
            values["w_r"] = rng.standard_normal((m, m))
            assert np.linalg.norm(values["w_r"] @ values["w_r"] - values["w_r"]) > 1.0
        if head_kind == "tt":
            values["head.bias"] = rng.standard_normal(cfg.out_dim)
        x = rng.standard_normal((4, tau, d, f))
        a = time_adjacency(tau, cfg.c)
        w_r = values["w_r"] if variant == "grgtn" else np.eye(m)
        h = np.empty((4, tau, d, m))
        for b in range(4):
            for p in range(d):
                h[b, :, p, :] = np.tanh(block_map(a, w_r, x[b, :, p, :] @ values["w_x"].T))
        expect = h.transpose(0, 3, 2, 1).reshape(4, -1)
        if head_kind == "tt":
            expect = expect @ tt_head_matrix([values[f"head.core{k}"] for k in range(3)])
            expect = expect + values["head.bias"]
        for got in untaped_and_taped(cfg, values, x, head_kind):
            assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)

    @pytest.mark.parametrize("variant,head", [("grgtn", "tt"), ("srgtn", "tt"), ("rnn", "dense")])
    def test_memory_layout_does_not_change_the_output(self, variant, head):
        # a transposed view of the window, and Fortran-ordered parameters as a
        # checkpoint loads them
        rng = np.random.default_rng(16)
        cfg = small_config(variant)
        values = init_params(cfg, seed=5)
        x = rng.standard_normal((2, cfg.tau, cfg.d_feat, cfg.d_phys)).transpose(0, 1, 3, 2)
        fortran = {k: np.asfortranarray(v) for k, v in values.items()}
        expect = forward(cfg, values, np.ascontiguousarray(x)).array
        np.testing.assert_allclose(forward(cfg, fortran, x).array, expect, rtol=1e-13)

    def test_rnn_matches_pure_recurrence(self):
        rng = np.random.default_rng(1)
        cfg = small_config("rnn", activation="tanh")
        values = params_for(cfg, "none", seed=2)
        values["b_h"] = rng.standard_normal(cfg.hidden) * 0.1
        x = rng.standard_normal((4, cfg.tau, cfg.d_phys, cfg.d_feat))
        # without a tape (predict) and on one
        for out in untaped_and_taped(cfg, values, x, "none"):
            h = unflatten(out, cfg.feature_block)
            for b in range(4):
                # each step flattens (physical, feature) with the physical index fastest
                flat = np.stack([x[b, t].ravel(order="F") for t in range(cfg.tau)], axis=0)
                expect = rnn_loop(values["w_h"], values["w_x"], values["b_h"], flat)
                np.testing.assert_allclose(h[b], expect, atol=1e-12)

    def test_tt_head_matches_pure_layer(self):
        rng = np.random.default_rng(2)
        cfg = small_config("srgtn", activation="identity")
        values = init_params(cfg, seed=3)
        values["head.bias"] = rng.standard_normal(cfg.out_dim) * 0.3
        x = rng.standard_normal((3, cfg.tau, cfg.d_phys, cfg.d_feat))
        got = predict(cfg, values, x)
        flat = hidden_rows(cfg, {"w_x": values["w_x"]}, x)
        w = tt_head_matrix([values[f"head.core{k}"] for k in range(3)])
        np.testing.assert_allclose(got, flat @ w + values["head.bias"], atol=1e-12)

    def test_dense_head_matches_flat_matmul(self):
        rng = np.random.default_rng(3)
        cfg = small_config("rnn", activation="identity", out=5)
        values = init_params(cfg, seed=4)
        x = rng.standard_normal((4, cfg.tau, cfg.d_phys, cfg.d_feat))
        got = predict(cfg, values, x)
        flat = hidden_rows(cfg, body_params(values), x)
        expect = flat @ values["head.w"].T + values["head.bias"]
        np.testing.assert_allclose(got, expect, atol=1e-12)

    @pytest.mark.parametrize("variant,head", [
        (v, h) for v in ("grgtn", "srgtn") for h in ("tt", "none")
    ] + [("rnn", "dense"), ("rnn", "none")])
    def test_zero_windows(self, variant, head):
        cfg = small_config(variant)
        values = params_for(cfg, head, seed=0)
        x = np.empty((0, cfg.tau, cfg.d_phys, cfg.d_feat))
        width = prod(cfg.feature_block) if head == "none" else cfg.out_dim
        for got in untaped_and_taped(cfg, values, x, head):
            assert got.shape == (0, width)

    def test_bad_input_shape(self):
        cfg = small_config("srgtn")
        values = init_params(cfg, seed=0)
        with pytest.raises(ValueError):
            predict(cfg, values, np.zeros((2, cfg.tau, cfg.d_phys + 1, cfg.d_feat)))

    def test_missing_parameter(self):
        cfg = small_config("grgtn")
        values = init_params(cfg, seed=0)
        x = np.zeros((1, cfg.tau, cfg.d_phys, cfg.d_feat))
        values.pop("w_r")
        with pytest.raises(ValueError):
            predict(cfg, values, x)
        # a parameter the variant does not use must not be silently ignored
        with pytest.raises(ValueError, match="w_r"):
            predict(small_config("srgtn"), init_params(cfg, seed=0), x)


class TestModelGradients:
    @pytest.mark.parametrize("variant,head", [
        ("grgtn", "tt"),
        ("srgtn", "tt"),
        ("rnn", "dense"),
    ])
    def test_all_parameters_match_finite_differences(self, variant, head):
        rng = np.random.default_rng(42)
        cfg = small_config(variant, tau=3, d=2, f=2, m=3, out=4)
        values = init_params(cfg, seed=5)
        x = rng.standard_normal((4, cfg.tau, cfg.d_phys, cfg.d_feat))
        target = rng.standard_normal((4, cfg.out_dim))

        def loss_of(vals):
            return float(ad.mse_loss(forward(cfg, vals, x), target).array)

        nodes = {name: ad.constant(v) for name, v in values.items()}
        loss = ad.mse_loss(forward(cfg, nodes, x), target)
        ad.backward(loss)
        h = 1e-6
        for name, base in values.items():
            fd = np.zeros_like(base)
            it = np.nditer(base, flags=["multi_index"])
            while not it.finished:
                mi = it.multi_index
                plus = {k: v.copy() for k, v in values.items()}
                minus = {k: v.copy() for k, v in values.items()}
                plus[name][mi] += h
                minus[name][mi] -= h
                fd[mi] = (loss_of(plus) - loss_of(minus)) / (2 * h)
                it.iternext()
            got = nodes[name].grad
            assert got is not None, name
            scale = max(np.abs(fd).max(), np.abs(got).max(), 1e-8)
            assert np.abs(got - fd).max() / scale <= 1e-5, name


class TestNoAliasing:
    """Tape nodes share the caller's arrays, so nothing may write into them."""

    @pytest.mark.parametrize("variant,head", [
        ("grgtn", "tt"),
        ("srgtn", "tt"),
        ("rnn", "dense"),
        ("grgtn", "none"),
    ])
    def test_forward_backward_leave_inputs_unchanged(self, variant, head):
        rng = np.random.default_rng(7)
        cfg = small_config(variant)
        values = params_for(cfg, head, seed=8)
        values = {k: v + rng.standard_normal(v.shape) * 0.1 for k, v in values.items()}
        x = rng.standard_normal((3, cfg.tau, cfg.d_phys, cfg.d_feat))
        before = {k: v.copy() for k, v in values.items()}
        x_before = x.copy()
        nodes = {name: ad.constant(v) for name, v in values.items()}
        for name, node in nodes.items():
            assert node.array is values[name]
        out = output(cfg, nodes, x, head)
        ad.backward(ad.mse_loss(out, rng.standard_normal(out.shape)))
        for name in values:
            assert np.array_equal(values[name], before[name]), name
            assert nodes[name].grad is not None, name
        assert np.array_equal(x, x_before)


def _walk(root):
    """Every node reachable from ``root`` through its inputs."""
    seen, stack = {id(root): root}, [root]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())


class TestTape:
    """What the forward records, and what backward leaves behind."""

    @pytest.mark.parametrize("variant,head", [("grgtn", "tt"), ("srgtn", "tt"), ("rnn", "dense")])
    def test_data_is_off_the_tape(self, variant, head):
        rng = np.random.default_rng(9)
        cfg = small_config(variant)
        nodes = {k: ad.constant(v) for k, v in init_params(cfg, seed=1).items()}
        x = rng.standard_normal((2, cfg.tau, cfg.d_phys, cfg.d_feat))
        adjacency = build_time_adjacency(cfg.tau, cfg.c)
        for node in _walk(forward(cfg, nodes, x)):
            assert not np.shares_memory(node.array, x)
            assert not np.shares_memory(node.array, adjacency)

    @pytest.mark.parametrize("variant,head", [("grgtn", "tt"), ("srgtn", "tt"), ("rnn", "dense")])
    def test_backward_leaves_gradients_on_parameters_only(self, variant, head):
        rng = np.random.default_rng(10)
        cfg = small_config(variant)
        nodes = {k: ad.constant(v) for k, v in init_params(cfg, seed=2).items()}
        x = rng.standard_normal((2, cfg.tau, cfg.d_phys, cfg.d_feat))
        root = ad.mse_loss(forward(cfg, nodes, x), rng.standard_normal((2, cfg.out_dim)))
        graph = _walk(root)
        ad.backward(root)
        params = {id(n) for n in nodes.values()}
        for node in graph:
            if id(node) in params:
                assert node.grad is not None
            elif node.parents:
                assert node.grad is None

    @pytest.mark.parametrize("variant,head", [
        *((v, h) for v in ("grgtn", "srgtn") for h in ("tt", "none")),
        ("rnn", "dense"),
        ("rnn", "none"),
    ])
    def test_every_parameter_gets_a_gradient(self, variant, head):
        # training updates every entry of the parameter store, so one step
        # must reach every parameter it passes to forward
        rng = np.random.default_rng(16)
        cfg = small_config(variant)
        nodes = {k: ad.constant(v) for k, v in params_for(cfg, head, seed=3).items()}
        x = rng.standard_normal((2, cfg.tau, cfg.d_phys, cfg.d_feat))
        out = output(cfg, nodes, x, head)
        ad.backward(ad.mse_loss(out, rng.standard_normal(out.shape)))
        for name, node in nodes.items():
            assert node.grad is not None, name
            assert node.grad.shape == node.shape, name

    @pytest.mark.parametrize("variant", ["grgtn", "srgtn"])
    def test_no_hidden_width_node_per_forward(self, variant):
        # the mix, the projection, its activation and the head are one node,
        # which keeps the hidden block inside its backward
        rng = np.random.default_rng(15)
        cfg = small_config(variant, tau=7, d=2, f=3, m=5)
        x = rng.standard_normal((6, cfg.tau, cfg.d_phys, cfg.d_feat))
        nodes = {k: ad.constant(v) for k, v in init_params(cfg, seed=4).items()}
        graph = _walk(forward(cfg, nodes, x))
        hidden_block = (6, cfg.tau, cfg.d_phys, cfg.hidden)
        assert sum(node.shape == hidden_block for node in graph) == 0

    # nodes per training forward+loss at the bench_synth shape, parameters included:
    # each variant is one body op and the loss; the rnn's "none" reads its rows
    # through an identity dense head, whose weight and bias it counts too
    @pytest.mark.parametrize("variant,head,nodes", [
        ("grgtn", "tt", 8), ("srgtn", "tt", 7), ("rnn", "dense", 7), ("rnn", "none", 7),
    ])
    def test_nodes_per_step(self, variant, head, nodes):
        cfg = small_config(variant, activation="identity", tau=6, d=4, f=3, m=8, out=12,
                           out_modes=(1, 4, 3))
        x = np.random.default_rng(17).standard_normal((64, cfg.tau, cfg.d_phys, cfg.d_feat))
        params = {k: ad.constant(v) for k, v in params_for(cfg, head, seed=5).items()}
        out = output(cfg, params, x, head)
        root = ad.mae_loss(out, np.zeros(out.shape))
        assert len(_walk(root)) == nodes

    def test_rnn_tape_size_does_not_grow_with_tau(self):
        rng = np.random.default_rng(12)
        counts = []
        for tau in (2, 32):
            cfg = small_config("rnn", tau=tau)
            x = rng.standard_normal((2, tau, cfg.d_phys, cfg.d_feat))
            root = ad.mse_loss(forward(cfg, init_params(cfg, seed=1), x), np.zeros((2, 4)))
            counts.append(len(_walk(root)))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("variant,head", [("grgtn", "tt"), ("srgtn", "tt"), ("rnn", "dense")])
    def test_predict_is_forward_without_a_tape(self, variant, head, monkeypatch):
        rng = np.random.default_rng(11)
        cfg = small_config(variant)
        values = init_params(cfg, seed=3)
        x = rng.standard_normal((5, cfg.tau, cfg.d_phys, cfg.d_feat))
        want = forward(cfg, values, x).array

        def no_node(*args, **kwargs):
            raise AssertionError("predict built a tape node")

        # predict calls the body op's kernel alone: not one node, not even a leaf
        monkeypatch.setattr(ad.TapeNode, "__init__", no_node)
        assert np.array_equal(predict(cfg, values, x), want)


def block_budget(cfg):
    """The bytes of a block of ``cfg``'s blocked body op, and what a window counts in it.

    ``recurrence`` (the rnn) counts its copy of x, projection, states and
    rows against 16 ``_BLOCK_BYTES``; ``graph_tt`` counts its hidden block
    against ``_BLOCK_BYTES``.
    """
    if cfg.variant == "rnn":
        return 16 * ad._BLOCK_BYTES, 8 * cfg.tau * (cfg.d_phys * cfg.d_feat + 3 * cfg.hidden)
    return ad._BLOCK_BYTES, 8 * prod(cfg.feature_block)


def set_block_windows(monkeypatch, cfg, windows):
    """Make the blocked body op of ``cfg`` walk ``windows`` whole windows a block."""
    budget, window = block_budget(cfg)
    monkeypatch.setattr(ad, "_BLOCK_BYTES", -(-windows * window // (budget // ad._BLOCK_BYTES)))
    assert block_budget(cfg)[0] // window == windows


class TestPredictBlocks:
    """``predict`` is ``forward`` without a tape, and each body op walks blocks of
    whole windows: a block's rows are the forward of its windows alone."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_rows_are_forward_of_each_block(self, variant, monkeypatch):
        rng = np.random.default_rng(19)
        cfg = small_config(variant)
        set_block_windows(monkeypatch, cfg, 2)
        values = init_params(cfg, seed=7)
        x = rng.standard_normal((5, cfg.tau, cfg.d_phys, cfg.d_feat))
        got = predict(cfg, values, x)
        expect = np.concatenate([forward(cfg, values, x[lo:hi]).array
                                 for lo, hi in ((0, 2), (2, 4), (4, 5))])
        assert np.array_equal(got, expect)
        assert np.array_equal(got[2:4], predict(cfg, values, x[2:4]))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_zero_windows(self, variant, monkeypatch):
        cfg = small_config(variant)
        set_block_windows(monkeypatch, cfg, 2)
        x = np.empty((0, cfg.tau, cfg.d_phys, cfg.d_feat))
        assert predict(cfg, init_params(cfg, seed=0), x).shape == (0, cfg.out_dim)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("shape", ["3-D", "wrong tau"])
    def test_bad_input_raises_as_forward_does(self, variant, shape, monkeypatch):
        cfg = small_config(variant)
        set_block_windows(monkeypatch, cfg, 2)
        values = init_params(cfg, seed=0)
        x = np.zeros((5, cfg.tau, cfg.d_phys, cfg.d_feat))
        x = x[:, :, :, 0] if shape == "3-D" else x[:, 1:]
        with pytest.raises(ValueError) as taped:
            forward(cfg, values, x)
        with pytest.raises(ValueError, match=re.escape(str(taped.value))):
            predict(cfg, values, x)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_memory_is_bounded_by_the_block(self, variant):
        # predict-stream's shape over many blocks of the body op: its block,
        # not the batch, bounds the peak beside the output
        cfg = ModelConfig(variant=variant, tau=64, d_phys=8, d_feat=4, hidden=16, out_dim=32,
                          head=HeadConfig(ranks=(2, 2), out_modes=(1, 8, 4)))
        x = np.random.default_rng(21).standard_normal((512, cfg.tau, cfg.d_phys, cfg.d_feat))
        budget, window = block_budget(cfg)
        assert len(x) >= 4 * (budget // window)
        if variant != "rnn":
            # beside its hidden block a block of graph_tt holds A x (srgtn:
            # x + A x), F / H of it, and grgtn's temporary x W_x^T, one hidden
            # block more: at F / H = 1/4 that is 2.25 blocks against 2.625 here
            budget *= 1 + 3 * cfg.d_feat / cfg.hidden
        values = init_params(cfg, seed=9)
        tracemalloc.start()
        try:
            predict(cfg, values, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the op's output before and after its bias
        assert peak <= 1.5 * budget + 2 * 8 * len(x) * cfg.out_dim

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_predict_is_forward_over_many_blocks(self, variant, monkeypatch):
        # the invariant: every body op runs at least 3 blocks, with a ragged last
        # one, and predict still gives forward's bits
        rng = np.random.default_rng(22)
        cfg = small_config(variant, tau=5, d=3, f=2, m=4)
        set_block_windows(monkeypatch, cfg, 3)
        values = init_params(cfg, seed=10)
        x = rng.standard_normal((3 * 3 + 2, cfg.tau, cfg.d_phys, cfg.d_feat))
        assert np.array_equal(predict(cfg, values, x), forward(cfg, values, x).array)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("blocks", ["one", "several"])
    def test_a_view_of_the_series_reads_as_its_copy(self, variant, blocks, monkeypatch):
        # a regression dataset's windows are a strided view of its one series;
        # every kernel and push reads a slice of it as it reads a C-order copy
        rng = np.random.default_rng(23)
        cfg = small_config(variant, tau=5, d=3, f=2, m=4)
        series = rng.standard_normal((40, cfg.d_phys, cfg.d_feat))
        ds = window(series, cfg.tau, 1, (0.7, 0.15, 0.15))
        view = ds.inputs[3:14]
        copy = np.ascontiguousarray(view)
        assert not view.flags.c_contiguous and not view.flags.writeable
        set_block_windows(monkeypatch, cfg, len(view) if blocks == "one" else 3)
        params = init_params(cfg, seed=11)
        assert np.array_equal(predict(cfg, params, view), predict(cfg, params, copy))
        targets = rng.standard_normal((len(view), cfg.out_dim))
        grads = []
        for x in (view, copy):
            nodes = {name: ad.constant(v) for name, v in params.items()}
            out = forward(cfg, nodes, x)
            ad.backward(ad.mse_loss(out, targets))
            grads.append((out.array, *(nodes[name].grad for name in params)))
        for got, want in zip(*grads):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_batch_one_matches_batched(self, variant, monkeypatch):
        # Within rounding only: OpenBLAS does not give the same bits for a row
        # of a GEMM run alone as within a taller one, for every shape.
        rng = np.random.default_rng(20)
        cfg = small_config(variant, tau=8, d=4, m=6)
        values = init_params(cfg, seed=8)
        x = rng.standard_normal((9, cfg.tau, cfg.d_phys, cfg.d_feat))
        batched = predict(cfg, values, x)
        for i in range(len(x)):
            np.testing.assert_allclose(predict(cfg, values, x[i : i + 1])[0], batched[i],
                                       rtol=1e-12)
        # a batch-1 call fits one block, which graph_tt computes as fresh arrays; a
        # batch walked as blocks of one window runs the same calls on the same
        # operands into its buffers, so each of its rows has the batch-1 call's bits
        set_block_windows(monkeypatch, cfg, 1)
        looped = predict(cfg, values, x)
        for i in range(len(x)):
            assert np.array_equal(predict(cfg, values, x[i : i + 1]), looped[i : i + 1])


@st.composite
def block_cases(draw):
    """A model of any variant and activation, windows for it, and a block size."""
    variant = draw(st.sampled_from(VARIANTS))
    tau, p, f, h = (draw(st.integers(1, hi)) for hi in (6, 4, 4, 4))
    out_modes = tuple(draw(st.integers(1, 4)) for _ in range(3))
    cfg = ModelConfig(
        variant=variant, tau=tau, d_phys=p, d_feat=f, hidden=h, out_dim=prod(out_modes),
        c=draw(st.floats(0.05, 0.95)), activation=draw(st.sampled_from(sorted(ad._ACTIVATIONS))),
        head=HeadConfig(ranks=(draw(st.integers(1, 3)), draw(st.integers(1, 3))),
                        out_modes=out_modes),
    )
    batch = draw(st.integers(1, 9))
    return cfg, batch, draw(st.integers(1, batch)), draw(st.integers(0, 2**32 - 1))


def blocked_run(cfg, values, x, target, windows):
    """``predict``, and ``forward``'s output and gradients, at ``windows`` windows a block."""
    with pytest.MonkeyPatch.context() as mp:
        set_block_windows(mp, cfg, windows)
        pred = predict(cfg, values, x)
        nodes = {name: ad.constant(v) for name, v in values.items()}
        out = forward(cfg, nodes, x)
        ad.backward(ad.mse_loss(out, target))
    return pred, [out.array, *(node.grad for node in nodes.values())]


class TestBlockWalk:
    """Each body op walks blocks of whole windows: any block size, from one window to
    the whole batch, gives ``predict`` the bits of ``forward``, and the output and every
    gradient of a one-block run up to rounding."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(case=block_cases())
    def test_any_block_size_is_one_block(self, case):
        cfg, batch, windows, seed = case
        rng = np.random.default_rng(seed)
        values = {name: rng.standard_normal(shape) * 0.5
                  for name, shape in param_shapes(cfg).items()}
        x = rng.standard_normal((batch, cfg.tau, cfg.d_phys, cfg.d_feat))
        target = rng.standard_normal((batch, cfg.out_dim))
        pred, blocked = blocked_run(cfg, values, x, target, windows)
        whole = blocked_run(cfg, values, x, target, batch)[1]
        assert np.array_equal(pred, blocked[0])
        for got, want in zip(blocked, whole):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1e-300)


def wide_config(variant):
    """wide-train's shape, at which one window fills a block of ``graph_tt``."""
    return ModelConfig(variant=variant, tau=64, d_phys=16, d_feat=8, hidden=32, out_dim=2,
                       head=HeadConfig(ranks=(4, 4), out_modes=(1, 1, 2)))


class TestPredictPath:
    """``predict`` checks against the cached shape table and calls the kernel alone."""

    @pytest.mark.parametrize("variant,batch,blocks", [
        *((v, 1, 1) for v in VARIANTS), ("grgtn", 3, 3), ("srgtn", 4, 4), ("rnn", 37, 2),
    ])
    def test_is_forward_bit_for_bit(self, variant, batch, blocks):
        cfg = wide_config(variant)
        budget, window = block_budget(cfg)
        assert -(-batch // (budget // window)) == blocks
        values = init_params(cfg, seed=12)
        x = np.random.default_rng(23).standard_normal((batch, cfg.tau, cfg.d_phys, cfg.d_feat))
        assert predict(cfg, values, x).tobytes() == forward(cfg, values, x).array.tobytes()

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("fault,match", [
        ("x shape", "input must be"), ("missing", "takes parameters"),
        ("extra", "takes parameters"), ("parameter shape", "has shape"),
        # forward and predict alone check the body ops' operands: every window
        # and parameter shape graph_tt and recurrence are not built for
        ("x without batch axis", "input must be"), ("x tau", "input must be"),
        ("x features", "input must be"),
        ("parameter without last axis", "has shape"),
        ("parameter with leading axis", "has shape"),
        ("parameter axis shorter", "has shape"), ("parameter axis longer", "has shape"),
    ])
    def test_bad_arguments_raise_named_errors(self, variant, fault, match):
        cfg = small_config(variant)
        values = init_params(cfg, seed=0)
        x = np.zeros((2, cfg.tau, cfg.d_phys, cfg.d_feat))
        table, cases = param_shapes(cfg), []
        if fault == "x shape":
            cases = [(x[:, :, :1], values)]
        elif fault == "missing":
            # a missing w_r is also grgtn's filter x W_x^T + (A x)(W_r W_x)^T without W_r
            cases = [(x, {k: v for k, v in values.items() if k != name}) for name in table]
        elif fault == "extra":
            cases = [(x, {**values, "w_extra": np.zeros(1)})]
        elif fault == "parameter shape":
            cases = [(x, {**values, "w_x": values["w_x"][:, :1]})]
        elif fault.startswith("x "):
            bad = {"x without batch axis": x[0], "x tau": x[:, 1:], "x features": x[..., 1:]}
            cases = [(bad[fault], values)]
        else:
            for name, shape in table.items():
                if fault == "parameter without last axis":
                    bad = [shape[:-1]]
                elif fault == "parameter with leading axis":
                    bad = [(1, *shape)]
                else:
                    step = -1 if fault == "parameter axis shorter" else 1
                    bad = [shape[:i] + (n + step,) + shape[i + 1 :] for i, n in enumerate(shape)]
                cases += [(x, {**values, name: np.zeros(b)}) for b in bad]
        for windows, params in cases:
            for fn in (predict, forward):
                with pytest.raises(ValueError, match=match):
                    fn(cfg, params, windows)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_integer_windows_are_read_as_float64(self, variant):
        # the body ops take float64 windows; forward and predict convert
        # integer windows, so both give the float64 windows' bits, gradients too
        cfg = small_config(variant)
        values = init_params(cfg, seed=7)
        x = np.random.default_rng(25).integers(-3, 4, (2, cfg.tau, cfg.d_phys, cfg.d_feat))
        results = []
        for windows in (x, x.astype(float)):
            nodes = {k: ad.constant(v) for k, v in values.items()}
            out = forward(cfg, nodes, windows)
            ad.backward(ad.mse_loss(out, np.ones(out.shape)))
            results.append([predict(cfg, values, windows), out.array,
                            *(node.grad for node in nodes.values())])
        for got, want in zip(*results):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_a_checked_config_pickles_as_a_fresh_one(self):
        # forward and predict read a shape table kept on the config; it leaves
        # the config equal to, hashed as and picklable as one never checked
        cfg = small_config("grgtn")
        predict(cfg, init_params(cfg, seed=0), np.zeros((1, cfg.tau, cfg.d_phys, cfg.d_feat)))
        again = pickle.loads(pickle.dumps(cfg))
        assert again == cfg == small_config("grgtn") and hash(again) == hash(cfg)
        assert param_shapes(again) is param_shapes(cfg)

    def test_shape_table_is_cached_and_read_only(self):
        cfg = small_config("grgtn")
        table = param_shapes(cfg)
        assert param_shapes(small_config("grgtn")) is table
        with pytest.raises(TypeError):
            table["w_x"] = (1, 1)
        with pytest.raises(TypeError):
            del table["w_r"]
        assert table["w_x"] == (cfg.hidden, cfg.d_feat) and len(table) == 6
        predict(cfg, init_params(cfg, seed=0), np.zeros((1, cfg.tau, cfg.d_phys, cfg.d_feat)))


def test_every_public_op_is_called_by_a_training_step(monkeypatch):
    # no public API that no entry point uses: a step of every variant under
    # every loss must call each op, so an op left without a caller fails here
    ops, called = set(ad.__all__) - {"TapeNode", "constant", "backward"}, set()
    for name in ops:
        def wrapped(*args, _op=getattr(ad, name), _name=name, **kwargs):
            called.add(_name)
            return _op(*args, **kwargs)

        monkeypatch.setattr(ad, name, wrapped)
    rng = np.random.default_rng(18)
    for variant in VARIANTS:
        cfg = small_config(variant)
        x = rng.standard_normal((3, cfg.tau, cfg.d_phys, cfg.d_feat))
        for loss, task in LOSS_TASKS.items():
            nodes = {k: ad.constant(v) for k, v in init_params(cfg, seed=6).items()}
            out = forward(cfg, nodes, x)
            target = (rng.integers(0, cfg.out_dim, 3) if task == "classification"
                      else rng.standard_normal(out.shape))
            ad.backward(getattr(ad, f"{loss}_loss")(out, target))
            assert all(node.grad is not None for node in nodes.values()), (variant, loss)
    assert called == ops, f"public ops no training step calls: {sorted(ops - called)}"


class TestTTHeadContractionOrder:
    """Every mode > 1, tau > 1 and unequal ranks, so no reshape can pass by accident."""

    @pytest.mark.parametrize("variant", ["grgtn", "srgtn"])
    def test_matches_dense_matrix(self, variant):
        rng = np.random.default_rng(12)
        tau, d, f, m = 3, 2, 3, 4
        out_modes = (2, 3, 2)
        cfg = ModelConfig(
            variant=variant, tau=tau, d_phys=d, d_feat=f, hidden=m, out_dim=12,
            activation="tanh", head=HeadConfig(ranks=(2, 3), out_modes=out_modes),
        )
        values = init_params(cfg, seed=4)
        values["head.bias"] = rng.standard_normal(12)
        x = rng.standard_normal((4, tau, d, f))
        got = predict(cfg, values, x)
        flat = hidden_rows(cfg, body_params(values), x)
        w = tt_head_matrix([values[f"head.core{k}"] for k in range(3)])
        np.testing.assert_allclose(got, flat @ w + values["head.bias"], atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(13)
        cfg = ModelConfig(
            variant="grgtn", tau=3, d_phys=2, d_feat=2, hidden=2, out_dim=12,
            activation="tanh", head=HeadConfig(ranks=(2, 3), out_modes=(2, 3, 2)),
        )
        values = init_params(cfg, seed=5)
        x = rng.standard_normal((3, 3, 2, 2))
        target = rng.standard_normal((3, 12))
        nodes = {k: ad.constant(v) for k, v in values.items()}
        ad.backward(ad.mse_loss(forward(cfg, nodes, x), target))
        h = 1e-6
        for name in ("head.core0", "head.core1", "head.core2"):
            base = values[name]
            for flat_index in range(0, base.size, 5):
                mi = np.unravel_index(flat_index, base.shape)
                losses = []
                for sign in (1.0, -1.0):
                    trial = dict(values)
                    trial[name] = base.copy()
                    trial[name][mi] += sign * h
                    losses.append(float(ad.mse_loss(forward(cfg, trial, x), target).array))
                fd = (losses[0] - losses[1]) / (2 * h)
                np.testing.assert_allclose(nodes[name].grad[mi], fd, rtol=1e-5, atol=1e-8)
