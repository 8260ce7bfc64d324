"""The paper's invariants as properties over drawn shapes, weights and block sizes.

Each property draws a model (variant, activation, ``c``, τ 1-9, P, F and H
1-6, TT ranks and ``out_modes``), a batch of 1-9 windows and the windows a
block of its body op walks, and checks the model against a reference in
``oracles`` that evaluates the definition by plain loops or a dense matrix:

- grgtn with an idempotent ``W_r = Q Qᵀ`` is the unrolled recurrence
  ``h_t = c W_r h_{t-1} + W_x x_t`` of each physical slice;
- grgtn with any ``W_r`` is the block map ``(I + A ⊗ W_r) vec(x W_xᵀ)``;
- grgtn with ``W_r = I`` is srgtn;
- the rnn is its entrywise loop;
- grgtn has exactly ``hidden²`` more parameters than srgtn;
- every parameter's gradient agrees with central differences;
- permuting the hidden units permutes the gradients the same way and
  leaves ``predict`` as it was, up to the order of its sums.
"""

from dataclasses import replace
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import block_map, hidden_states, rnn_loop, time_adjacency, unrolled_recurrence
from rgtn import autodiff as ad
from rgtn.models import (VARIANTS, HeadConfig, ModelConfig, forward, param_count,
                         param_shapes, predict)
from test_models import set_block_windows

# each activation as its definition, independent of the kernels' in-place forms
ACTIVATIONS = {
    "identity": lambda z: z,
    "tanh": np.tanh,
    "sigmoid": lambda z: 1.0 / (1.0 + np.exp(-z)),
    "relu": lambda z: np.maximum(z, 0.0),
}

PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)


@st.composite
def cases(draw, variants=VARIANTS):
    """A model, its parameters, a batch of windows for it and the windows a block."""
    tau, p, f, h = (draw(st.integers(1, hi)) for hi in (9, 6, 6, 6))
    out_modes = tuple(draw(st.integers(1, 3)) for _ in range(3))
    cfg = ModelConfig(
        variant=draw(st.sampled_from(variants)), tau=tau, d_phys=p, d_feat=f, hidden=h,
        out_dim=prod(out_modes), c=draw(st.floats(0.05, 0.95)),
        activation=draw(st.sampled_from(sorted(ACTIVATIONS))),
        head=HeadConfig(ranks=(draw(st.integers(1, 3)), draw(st.integers(1, 3))),
                        out_modes=out_modes),
    )
    batch = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = {name: rng.standard_normal(shape) * 0.5
              for name, shape in param_shapes(cfg).items()}
    x = rng.standard_normal((batch, tau, p, f))
    return cfg, values, x, draw(st.integers(1, batch)), rng


def hidden(cfg, values, x, windows):
    """The block the head reads, as ``oracles.hidden_states`` gives it, at ``windows`` a block."""
    with pytest.MonkeyPatch.context() as mp:
        set_block_windows(mp, cfg, windows)
        return hidden_states(cfg, values, x)


def assert_close(got, want, rtol=1e-10):
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= rtol * max(np.linalg.norm(want), 1e-300)


class TestGraphFilters:
    @PROPERTY
    @given(case=cases(variants=("grgtn",)), data=st.data())
    def test_idempotent_w_r_is_the_unrolled_recurrence(self, case, data):
        cfg, values, x, windows, rng = case
        m = cfg.hidden
        # Q Qᵀ for an orthonormal Q of any rank projects onto its columns
        q = np.linalg.qr(rng.standard_normal((m, data.draw(st.integers(1, m)))))[0]
        values["w_r"] = q @ q.T
        h = hidden(cfg, values, x, windows)
        act = ACTIVATIONS[cfg.activation]
        for b in range(len(x)):
            for d in range(cfg.d_phys):
                want = act(unrolled_recurrence(cfg.c, values["w_r"], values["w_x"], x[b, :, d]))
                assert_close(h[b, :, d], want)

    @PROPERTY
    @given(case=cases(variants=("grgtn",)))
    def test_any_w_r_is_the_block_map(self, case):
        cfg, values, x, windows, _ = case
        h = hidden(cfg, values, x, windows)
        a, act = time_adjacency(cfg.tau, cfg.c), ACTIVATIONS[cfg.activation]
        for b in range(len(x)):
            for d in range(cfg.d_phys):
                want = act(block_map(a, values["w_r"], x[b, :, d] @ values["w_x"].T))
                assert_close(h[b, :, d], want)

    @PROPERTY
    @given(case=cases(variants=("grgtn",)))
    def test_identity_w_r_is_srgtn(self, case):
        cfg, values, x, windows, _ = case
        values["w_r"] = np.eye(cfg.hidden)
        srgtn = replace(cfg, variant="srgtn")
        s_values = {k: v for k, v in values.items() if k != "w_r"}
        with pytest.MonkeyPatch.context() as mp:
            set_block_windows(mp, cfg, windows)
            got = forward(cfg, values, x).array
            want = forward(srgtn, s_values, x).array
        assert_close(got, want)

    @PROPERTY
    @given(case=cases(variants=("grgtn",)))
    def test_grgtn_has_hidden_squared_more_parameters(self, case):
        cfg = case[0]
        srgtn = replace(cfg, variant="srgtn")
        assert param_count(cfg)[1] - param_count(srgtn)[1] == cfg.hidden**2


class TestRecurrence:
    @PROPERTY
    @given(case=cases(variants=("rnn",)))
    def test_rnn_is_its_loop(self, case):
        cfg, values, x, windows, _ = case
        h = hidden(cfg, values, x, windows)
        act = ACTIVATIONS[cfg.activation]
        for b in range(len(x)):
            # each step flattens (physical, feature) with the physical index fastest
            flat = np.stack([x[b, t].ravel(order="F") for t in range(cfg.tau)])
            want = rnn_loop(values["w_h"], values["w_x"], values["b_h"], flat, act=act)
            assert_close(h[b], want)


class TestGradients:
    @PROPERTY
    @given(case=cases())
    def test_a_few_coordinates_of_every_parameter_match_finite_differences(self, case):
        cfg, values, x, windows, rng = case
        target = rng.standard_normal((len(x), cfg.out_dim))
        with pytest.MonkeyPatch.context() as mp:
            set_block_windows(mp, cfg, windows)
            nodes = {name: ad.constant(v) for name, v in values.items()}
            ad.backward(ad.mse_loss(forward(cfg, nodes, x), target))

            def loss_at(name, index, step):
                moved = {**values, name: values[name].copy()}
                moved[name][index] += step
                return float(ad.mse_loss(forward(cfg, moved, x), target).array)

            eps = 1e-6
            for name, value in values.items():
                grad = nodes[name].grad
                for flat in rng.choice(value.size, size=min(3, value.size), replace=False):
                    index = np.unravel_index(flat, value.shape)
                    fd = (loss_at(name, index, eps) - loss_at(name, index, -eps)) / (2 * eps)
                    assert abs(grad[index] - fd) <= 1e-5 * max(abs(fd), 1.0), (name, index)


def permute_hidden(cfg, values, perm):
    """The parameters whose hidden unit i is unit ``perm[i]`` of ``values``."""
    moved = {**values, "w_x": values["w_x"][perm]}
    if cfg.variant == "rnn":
        moved["w_h"] = values["w_h"][np.ix_(perm, perm)]
        moved["b_h"] = values["b_h"][perm]
        # the head's columns flatten (tau, H) time fastest: H blocks of tau columns
        w = values["head.w"]
        moved["head.w"] = w.reshape(len(w), cfg.hidden, cfg.tau)[:, perm].reshape(w.shape)
        return moved
    if cfg.variant == "grgtn":
        moved["w_r"] = values["w_r"][np.ix_(perm, perm)]
    moved["head.core2"] = values["head.core2"][:, perm]
    return moved


class TestSymmetries:
    @PROPERTY
    @given(case=cases())
    def test_permuted_hidden_units_permute_the_gradients_and_keep_the_output(self, case):
        cfg, values, x, windows, rng = case
        perm = rng.permutation(cfg.hidden)
        moved = permute_hidden(cfg, values, perm)
        target = rng.standard_normal((len(x), cfg.out_dim))
        grads = []
        with pytest.MonkeyPatch.context() as mp:
            set_block_windows(mp, cfg, windows)
            assert_close(predict(cfg, moved, x), predict(cfg, values, x), rtol=1e-12)
            for params in (values, moved):
                nodes = {name: ad.constant(v) for name, v in params.items()}
                ad.backward(ad.mse_loss(forward(cfg, nodes, x), target))
                grads.append({name: node.grad for name, node in nodes.items()})
        want = permute_hidden(cfg, grads[0], perm)
        for name, grad in grads[1].items():
            assert_close(grad, want[name], rtol=1e-12)
