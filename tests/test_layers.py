"""The models' recurrent filtering, pinned against the references in oracles.

Every test runs ``rgtn.models.forward``, or mostly the part of it before the
output head, so the hidden-state block can be compared with a loop
recurrence, the dense block map (I + A kron W_r) vec(X_hat) or another
variant.
"""

import numpy as np
import pytest

from oracles import (
    block_map,
    headless,
    hidden_states,
    random_idempotent,
    rnn_loop,
    time_adjacency,
    unrolled_recurrence,
    with_head,
)
from rgtn import autodiff as ad
from rgtn.models import ModelConfig, forward


def one_window(x):
    """A single (tau, n) window as a (1, tau, 1, n) batch."""
    return x[None, :, None, :]


def filtered(variant, x, w_x, w_r=None, c=0.5, activation="identity"):
    """Hidden states of one (tau, n) window through a one-slice graph filter."""
    tau, n = x.shape
    cfg = headless(variant, tau, 1, n, w_x.shape[0], c=c, activation=activation)
    values = {"w_x": w_x} if w_r is None else {"w_x": w_x, "w_r": w_r}
    return hidden_states(cfg, values, one_window(x))[0, :, 0, :]


def rnn_states(x, w_x, w_h, b_h=None, activation="identity"):
    """Hidden states of one (tau, n) window through the rnn."""
    tau, n = x.shape
    m = w_h.shape[0]
    cfg = headless("rnn", tau, 1, n, m, activation=activation)
    b_h = np.zeros(m) if b_h is None else b_h
    return hidden_states(cfg, {"w_x": w_x, "w_h": w_h, "b_h": b_h}, one_window(x))[0]


def rnn_with_dense_head(rng, tau, n, m, out, bias=True):
    """An rnn and its parameters; without ``bias`` its head bias is zero."""
    cfg = ModelConfig("rnn", tau, 1, n, m, out, activation="identity")
    values = {
        "w_x": rng.standard_normal((m, n)),
        "w_h": rng.standard_normal((m, m)) * 0.4,
        "b_h": np.zeros(m),
        "head.w": rng.standard_normal((out, tau * m)),
        "head.bias": rng.standard_normal(out) if bias else np.zeros(out),
    }
    return cfg, values


class TestRNN:
    def test_memoryless(self):
        rng = np.random.default_rng(0)
        w_x = rng.standard_normal((3, 2))
        x = rng.standard_normal((5, 2))
        h = rnn_states(x, w_x, np.zeros((3, 3)))
        np.testing.assert_allclose(h, x @ w_x.T, atol=1e-14)

    def test_scaled_identity_feedback(self):
        rng = np.random.default_rng(1)
        c = 0.5
        x = rng.standard_normal((4, 2))
        h = rnn_states(x, np.eye(2), c * np.eye(2))
        expect = np.zeros(2)
        for t in range(4):
            expect = c * expect + x[t]
            np.testing.assert_allclose(h[t], expect, atol=1e-14)

    def test_tanh_vs_scalar_loop_oracle(self):
        rng = np.random.default_rng(2)
        w_h = rng.standard_normal((3, 3)) * 0.4
        w_x = rng.standard_normal((3, 2))
        b_h = rng.standard_normal(3)
        x = rng.standard_normal((6, 2))
        got = rnn_states(x, w_x, w_h, b_h, activation="tanh")
        np.testing.assert_allclose(got, rnn_loop(w_h, w_x, b_h, x), atol=1e-12)

    def test_h0_argument(self):
        # the recurrence starts from h_0 = 0: the first step sees only its input
        rng = np.random.default_rng(3)
        w_h = rng.standard_normal((2, 2))
        b_h = rng.standard_normal(2)
        h = rnn_states(np.zeros((3, 2)), np.zeros((2, 2)), w_h, b_h)
        np.testing.assert_array_equal(h[0], b_h)
        np.testing.assert_allclose(h[1], w_h @ b_h + b_h, atol=1e-14)

    def test_output_identity(self):
        rng = np.random.default_rng(3)
        tau, n, m = 5, 2, 3
        cfg, values = rnn_with_dense_head(rng, tau, n, m, out=4, bias=False)
        x = rng.standard_normal((2, tau, 1, n))
        got = forward(cfg, values, x).array
        h = np.stack([rnn_states(x[b, :, 0], values["w_x"], values["w_h"]) for b in range(2)])
        flat = h.transpose(0, 2, 1).reshape(2, -1)
        np.testing.assert_allclose(got, flat @ values["head.w"].T, atol=1e-12)

    def test_output_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        cfg, values = rnn_with_dense_head(rng, 3, 2, 3, out=4)
        logits = ad.constant(forward(cfg, values, rng.standard_normal((6, 3, 1, 2))).array)
        labels = np.array([0, 1, 2, 3, 0, 1])
        # the cross-entropy gradient is (softmax - onehot) / n
        ad.backward(ad.cross_entropy_loss(logits, labels))
        probs = logits.grad * 6 + np.eye(4)[labels]
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(6), atol=1e-12)

    def test_output_vs_per_row_oracle(self):
        rng = np.random.default_rng(5)
        tau, n, m = 4, 2, 3
        cfg, values = rnn_with_dense_head(rng, tau, n, m, out=2)
        x = rng.standard_normal((5, tau, 1, n))
        got = forward(cfg, values, x).array
        for b in range(5):
            h = rnn_loop(values["w_h"], values["w_x"], values["b_h"], x[b, :, 0], act=lambda z: z)
            row = values["head.w"] @ h.ravel(order="F") + values["head.bias"]
            np.testing.assert_allclose(got[b], row, atol=1e-12)

    def test_shape_errors(self):
        cfg = headless("rnn", 4, 1, 3, 2)
        good = {"w_x": np.zeros((2, 3)), "w_h": np.zeros((2, 2)), "b_h": np.zeros(2)}
        with pytest.raises(ValueError):
            forward(cfg, with_head(cfg, good), np.zeros((1, 4, 1, 2)))
        with pytest.raises(ValueError):
            forward(cfg, with_head(cfg, dict(good, w_h=np.zeros((2, 3)))), np.zeros((1, 4, 1, 3)))


class TestBlockR:
    def test_zero_feedback(self):
        # W_r = 0 leaves I + A kron 0 = I: the hidden states are the projection
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 3))
        w_x = rng.standard_normal((2, 3))
        h = filtered("grgtn", x, w_x, np.zeros((2, 2)))
        np.testing.assert_array_equal(h, x @ w_x.T)

    def test_scaled_identity_matches_kron_form(self):
        # rnn with W_h = c I is the block map I + A kron I, i.e. srgtn
        rng = np.random.default_rng(1)
        c, tau, n, m = 0.6, 4, 2, 3
        x = rng.standard_normal((tau, n))
        w_x = rng.standard_normal((m, n))
        via_rnn = rnn_states(x, w_x, c * np.eye(m))
        np.testing.assert_allclose(via_rnn, filtered("srgtn", x, w_x, c=c), atol=1e-13)

    def test_idempotent_matches_kron_form(self):
        # powers of c W_r collapse to c^p W_r, so the rnn is I + A kron W_r
        rng = np.random.default_rng(6)
        tau, m, c = 5, 4, 0.7
        w_r = random_idempotent(rng, m)
        x = rng.standard_normal((tau, m))
        via_rnn = rnn_states(x, np.eye(m), c * w_r)
        expect = block_map(time_adjacency(tau, c), w_r, x)
        np.testing.assert_allclose(via_rnn, expect, atol=1e-10)

    def test_power_collapse_of_scaled_projection(self):
        rng = np.random.default_rng(7)
        c, m = 0.5, 3
        w_r = random_idempotent(rng, m)
        w_h = c * w_r
        for p in range(1, 5):
            np.testing.assert_allclose(
                np.linalg.matrix_power(w_h, p), (c**p) * w_r, atol=1e-12
            )


class TestCoupling:
    def test_materialized_entries(self):
        # entry (t, m, s, k) of the order-4 coupling: delta delta + A[t, s] W_r[m, k]
        rng = np.random.default_rng(8)
        tau, m = 3, 2
        w_r = rng.standard_normal((m, m))
        a = time_adjacency(tau, 0.5)
        for s in range(tau):
            for k in range(m):
                x = np.zeros((tau, m))
                x[s, k] = 1.0
                h = filtered("grgtn", x, np.eye(m), w_r)
                for t in range(tau):
                    for mm in range(m):
                        expect = float(t == s and mm == k) + a[t, s] * w_r[mm, k]
                        assert abs(h[t, mm] - expect) < 1e-14

    def test_identity_w_r_matches_two_tap(self):
        rng = np.random.default_rng(9)
        tau, m, n = 4, 3, 2
        x = rng.standard_normal((tau, n))
        w_x = rng.standard_normal((m, n))
        h = filtered("grgtn", x, w_x, np.eye(m))
        xhat = x @ w_x.T
        np.testing.assert_allclose(h, xhat + time_adjacency(tau, 0.5) @ xhat, atol=1e-12)

    def test_tau_one_is_projection_only(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((1, 3))
        w_x = rng.standard_normal((2, 3))
        h = filtered("grgtn", x, w_x, rng.standard_normal((2, 2)))
        np.testing.assert_allclose(h, x @ w_x.T, atol=1e-14)

    def test_action_equals_block_vec_oracle(self):
        rng = np.random.default_rng(11)
        tau, m, n = 3, 2, 4
        w_r = rng.standard_normal((m, m))
        x = rng.standard_normal((tau, n))
        w_x = rng.standard_normal((m, n))
        got = filtered("grgtn", x, w_x, w_r)
        expect = block_map(time_adjacency(tau, 0.5), w_r, x @ w_x.T)
        np.testing.assert_allclose(got, expect, atol=1e-12)


class TestFilters:
    def test_grgtn_idempotent_vs_unrolled(self):
        rng = np.random.default_rng(12)
        tau, m, n, c = 4, 3, 2, 0.7
        w_r = random_idempotent(rng, m)
        x = rng.standard_normal((tau, n))
        w_x = rng.standard_normal((m, n))
        got = filtered("grgtn", x, w_x, w_r, c=c)
        expect = unrolled_recurrence(c, w_r, w_x, x)
        rel = np.linalg.norm(got - expect) / np.linalg.norm(expect)
        assert rel <= 1e-10

    def test_grgtn_zero_input(self):
        rng = np.random.default_rng(13)
        h = filtered(
            "grgtn", np.zeros((3, 4)), rng.standard_normal((2, 4)), rng.standard_normal((2, 2))
        )
        np.testing.assert_array_equal(h, np.zeros((3, 2)))

    def test_master_invariant_sweep(self):
        # every physical slice of a batch follows the unrolled recurrence
        rng = np.random.default_rng(14)
        for _ in range(30):
            tau = int(rng.integers(1, 9))
            p = int(rng.integers(1, 4))
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 7))
            c = float(rng.choice([0.3, 0.5, 0.9]))
            w_r = random_idempotent(rng, m)
            w_x = rng.standard_normal((m, n))
            x = rng.standard_normal((2, tau, p, n))
            cfg = headless("grgtn", tau, p, n, m, c=c)
            h = hidden_states(cfg, {"w_x": w_x, "w_r": w_r}, x)
            for b in range(2):
                for d in range(p):
                    expect = unrolled_recurrence(c, w_r, w_x, x[b, :, d])
                    scale = max(np.linalg.norm(expect), 1e-12)
                    assert np.linalg.norm(h[b, :, d] - expect) / scale <= 1e-10

    def test_srgtn_tau_one(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((1, 3))
        w_x = rng.standard_normal((2, 3))
        np.testing.assert_allclose(filtered("srgtn", x, w_x), x @ w_x.T, atol=1e-14)

    def test_srgtn_two_step_recurrence(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((2, 2))
        h = filtered("srgtn", x, np.eye(2))
        np.testing.assert_allclose(h[0], x[0], atol=1e-14)
        np.testing.assert_allclose(h[1], x[1] + 0.5 * x[0], atol=1e-14)

    def test_reduction_chain(self):
        # grgtn with W_r = I is srgtn, which is the two-tap filter (I + A) X_hat
        rng = np.random.default_rng(17)
        for _ in range(20):
            tau = int(rng.integers(1, 7))
            m = int(rng.integers(1, 6))
            n = int(rng.integers(1, 6))
            c = float(rng.uniform(0.1, 0.95))
            x = rng.standard_normal((tau, n))
            w_x = rng.standard_normal((m, n))
            via_grgtn = filtered("grgtn", x, w_x, np.eye(m), c=c)
            via_srgtn = filtered("srgtn", x, w_x, c=c)
            xhat = x @ w_x.T
            via_two_tap = xhat + time_adjacency(tau, c) @ xhat
            np.testing.assert_allclose(via_grgtn, via_srgtn, atol=1e-12)
            np.testing.assert_allclose(via_srgtn, via_two_tap, atol=1e-12)

    def test_blockwise_path_matches_materialized(self):
        # contracting the materialized order-4 coupling gives the same block
        rng = np.random.default_rng(18)
        tau, m, n = 5, 4, 3
        w_r = rng.standard_normal((m, m))
        x = rng.standard_normal((tau, n))
        w_x = rng.standard_normal((m, n))
        a = time_adjacency(tau, 0.5)
        r4 = np.einsum("ts,mk->tmsk", np.eye(tau), np.eye(m))
        r4 = r4 + np.einsum("ts,mk->tmsk", a, w_r)
        expect = np.einsum("tmsk,sk->tm", r4, x @ w_x.T)
        np.testing.assert_allclose(filtered("grgtn", x, w_x, w_r), expect, atol=1e-12)

    def test_causality_both_variants(self):
        rng = np.random.default_rng(19)
        tau, m, n = 6, 3, 2
        w_r = random_idempotent(rng, m)
        w_x = rng.standard_normal((m, n))
        x = rng.standard_normal((tau, n))
        base_g = filtered("grgtn", x, w_x, w_r)
        base_s = filtered("srgtn", x, w_x)
        for t in range(tau):
            bumped = x.copy()
            bumped[t] += 1.0
            got_g = filtered("grgtn", bumped, w_x, w_r)
            got_s = filtered("srgtn", bumped, w_x)
            assert not np.any(np.any(got_g != base_g, axis=1)[:t])
            assert not np.any(np.any(got_s != base_s, axis=1)[:t])

    def test_linearity_in_input(self):
        rng = np.random.default_rng(20)
        tau, m, n = 4, 3, 3
        w_r = rng.standard_normal((m, m))
        w_x = rng.standard_normal((m, n))
        x1 = rng.standard_normal((tau, n))
        x2 = rng.standard_normal((tau, n))
        for fn in (
            lambda x: filtered("grgtn", x, w_x, w_r),
            lambda x: filtered("srgtn", x, w_x),
        ):
            lhs = fn(1.5 * x1 - 0.5 * x2)
            rhs = 1.5 * fn(x1) - 0.5 * fn(x2)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_rnn_identity_agrees_with_grgtn(self):
        rng = np.random.default_rng(21)
        tau, m, n, c = 5, 3, 2, 0.5
        w_r = random_idempotent(rng, m)
        w_x = rng.standard_normal((m, n))
        x = rng.standard_normal((tau, n))
        via_rnn = rnn_states(x, w_x, c * w_r)
        via_filter = filtered("grgtn", x, w_x, w_r, c=c)
        np.testing.assert_allclose(via_rnn, via_filter, atol=1e-10)


class TestLayerForward:
    def test_identity_activation_is_raw_filter(self):
        # the activation applies entrywise to the raw (identity-activation) filter
        rng = np.random.default_rng(22)
        w_x = rng.standard_normal((2, 4))
        w_r = rng.standard_normal((2, 2))
        x = rng.standard_normal((3, 4))
        for variant, w in (("srgtn", None), ("grgtn", w_r)):
            raw = filtered(variant, x, w_x, w)
            for name, act in (("tanh", np.tanh), ("relu", lambda z: np.maximum(z, 0.0))):
                got = filtered(variant, x, w_x, w, activation=name)
                np.testing.assert_array_equal(got, act(raw))

    def test_tanh_bounds(self):
        rng = np.random.default_rng(23)
        h = filtered(
            "grgtn",
            rng.standard_normal((4, 2)),
            rng.standard_normal((3, 2)) * 2,
            rng.standard_normal((3, 3)),
            activation="tanh",
        )
        assert np.all(h > -1.0) and np.all(h < 1.0)

    def test_spec_param_mismatch(self):
        cfg = headless("grgtn", 2, 1, 2, 2)
        x = np.zeros((1, 2, 1, 2))
        with pytest.raises(ValueError):
            forward(cfg, with_head(cfg, {"w_x": np.eye(2)}), x)
        with pytest.raises(ValueError):
            forward(cfg, with_head(cfg, {"w_x": np.zeros((2, 3)), "w_r": np.eye(2)}), x)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            ModelConfig("gated", tau=2, d_phys=1, d_feat=2, hidden=2, out_dim=4)

