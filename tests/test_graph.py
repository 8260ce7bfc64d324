"""The time graph, and the models' filtering of a window through it."""

import numpy as np
import pytest
import yaml

from oracles import headless, hidden_states, with_head
from rgtn.cli import main
from rgtn.config import ConfigError, run_config_from_dict
from rgtn.graph import build_time_adjacency
from rgtn.models import forward


def srgtn_states(x, w_x, c=0.5):
    """srgtn hidden states of a (batch, tau, physical, n) input, identity activation."""
    _, tau, p, n = x.shape
    cfg = headless("srgtn", tau, p, n, w_x.shape[0], c=c)
    return hidden_states(cfg, {"w_x": w_x}, x)


def graph_document(tau, c):
    """A config document whose grgtn has window ``tau`` and decay ``c``."""
    return {"model": {"variant": "grgtn", "tau": tau, "d_phys": 1, "d_feat": 1, "hidden": 1,
                      "out_dim": 1, "c": c, "head": {"out_modes": [1, 1, 1]}},
            "data": {"kind": "synthetic_regression"}, "training": {"epochs": 1}}


def assert_config_refuses(tau, c):
    """The config names the field, so no adjacency is built for (tau, c)."""
    field = "tau" if tau < 1 else "c"
    with pytest.raises(ConfigError, match=rf"^model\.{field}: must"):
        run_config_from_dict(graph_document(tau, c))


def rnn_states(x, w_x, w_h):
    _, tau, p, n = x.shape
    m = w_h.shape[0]
    cfg = headless("rnn", tau, p, n, m)
    return hidden_states(cfg, {"w_x": w_x, "w_h": w_h, "b_h": np.zeros(m)}, x)


class TestTimeAdjacency:
    def test_pinned_example(self):
        a = build_time_adjacency(3, 0.5)
        expected = [[0, 0, 0], [0.5, 0, 0], [0.25, 0.5, 0]]
        np.testing.assert_allclose(a, expected, atol=1e-15)

    def test_tau_one(self):
        np.testing.assert_array_equal(build_time_adjacency(1, 0.3), [[0.0]])

    def test_nilpotent(self):
        cubed = np.linalg.matrix_power(build_time_adjacency(3, 0.5), 3)
        np.testing.assert_array_equal(cubed, np.zeros((3, 3)))

    @pytest.mark.parametrize("tau", [1, 2, 5, 8])
    def test_strictly_triangular_and_nilpotency_index(self, tau):
        a = build_time_adjacency(tau, 0.7)
        assert np.array_equal(np.triu(a), np.zeros_like(a))
        assert np.array_equal(np.linalg.matrix_power(a, tau), np.zeros_like(a))

    def test_ascending_is_transpose(self):
        # the descending-time graph has c^(t-s) at (s, t) for every t > s;
        # stacked in ascending time, row t gathers from strictly earlier rows
        descending = np.zeros((4, 4))
        for s in range(4):
            for t in range(s + 1, 4):
                descending[s, t] = 0.5 ** (t - s)
        a = build_time_adjacency(4, 0.5)
        np.testing.assert_array_equal(a, descending.T)
        assert np.array_equal(np.triu(a), np.zeros((4, 4)))

    def test_band_entries_are_powers(self):
        c = 0.9
        a = build_time_adjacency(5, c)
        for p in range(1, 5):
            np.testing.assert_allclose(np.diag(a, k=-p), c**p)

    def test_invalid_arguments(self):
        # build_time_adjacency takes what ModelConfig lets through
        for tau, c in ((0, 0.5), (3, 0.0), (3, 1.0), (3, -0.2)):
            assert_config_refuses(tau, c)


class TestSpatialFilter:
    def test_identity_filter(self):
        # a one-step window has no edges: the filter passes X_hat through exactly
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 1, 3, 2))
        np.testing.assert_array_equal(srgtn_states(x, np.eye(2)), x)

    def test_two_tap_on_time_graph(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 3, 1, 2))
        a = build_time_adjacency(3, 0.5)
        y = srgtn_states(x, np.eye(2))[0, :, 0]
        np.testing.assert_allclose(y, (np.eye(3) + a) @ x[0, :, 0], atol=1e-14)

    def test_against_power_sum_oracle(self):
        # I + A is the power series sum_k c^k S^k of the one-step shift S
        rng = np.random.default_rng(3)
        tau, c = 5, 0.7
        x = rng.standard_normal((1, tau, 1, 4))
        w_x = rng.standard_normal((3, 4))
        got = srgtn_states(x, w_x, c=c)[0, :, 0]
        shift = np.eye(tau, k=-1)
        xhat = x[0, :, 0] @ w_x.T
        expected = np.zeros_like(xhat)
        for k in range(tau):
            expected += c**k * np.linalg.matrix_power(shift, k) @ xhat
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_linearity_in_signal(self):
        rng = np.random.default_rng(4)
        w_x = rng.standard_normal((3, 6))
        w_h = rng.standard_normal((3, 3)) * 0.5
        x1 = rng.standard_normal((2, 4, 2, 3))
        x2 = rng.standard_normal((2, 4, 2, 3))
        lhs = rnn_states(2.0 * x1 - 3.0 * x2, w_x, w_h)
        rhs = 2.0 * rnn_states(x1, w_x, w_h) - 3.0 * rnn_states(x2, w_x, w_h)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_causality_of_time_graph(self):
        rng = np.random.default_rng(5)
        tau = 5
        w_x = rng.standard_normal((3, 6))
        w_h = rng.standard_normal((3, 3))
        x = rng.standard_normal((1, tau, 2, 3))
        base = rnn_states(x, w_x, w_h)[0]
        for s in range(tau):
            bumped = x.copy()
            bumped[0, s] += 1.0
            out = rnn_states(bumped, w_x, w_h)[0]
            changed = np.any(out != base, axis=1)
            assert not np.any(changed[:s])

    def test_shape_errors(self):
        cfg = headless("srgtn", 3, 1, 2, 2)
        with pytest.raises(ValueError):
            forward(cfg, with_head(cfg, {"w_x": np.eye(2)}), np.zeros((1, 4, 1, 2)))
        with pytest.raises(ValueError):
            forward(cfg, with_head(cfg, {"w_x": np.eye(2)}), np.zeros((3, 1, 2)))


class TestAdjacencyCache:
    def test_same_read_only_array_per_call(self):
        a = build_time_adjacency(7, 0.6)
        assert build_time_adjacency(7, 0.6) is a
        assert build_time_adjacency(7, 0.5) is not a
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[1, 0] = 1.0
        np.testing.assert_allclose(np.diag(build_time_adjacency(7, 0.6), k=-1), 0.6)

    def test_bad_arguments_still_raise(self, tmp_path, capsys):
        # rgtn train exits 2 naming the field, and makes no run directory
        for tau, c in ((0, 0.5), (3, 1.0), (3, 0.0)):
            path = tmp_path / "run.yaml"
            path.write_text(yaml.safe_dump(graph_document(tau, c)))
            out = tmp_path / "run"
            assert main(["train", "--config", str(path), "--out", str(out)]) == 2
            assert ("model.tau:" if tau < 1 else "model.c:") in capsys.readouterr().err
            assert not out.exists()
