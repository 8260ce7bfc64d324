"""Array conventions the package relies on, against independent oracles.

Contractions run the way the models write them, the paired axes folded
into one axis with NumPy views and contracted by one GEMM (0-based axes),
and are checked against nested loops; the Kronecker structure of the
grgtn map I + A kron W_r and its powers are read off the hidden block
``models.forward`` hands its head by probing it with unit inputs;
first-mode-fastest flattening is checked on that block and on the
checkpoint payload.
"""

from math import prod
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    block_map,
    headless,
    hidden_rows,
    hidden_states,
    payload_header,
    raw_checkpoint,
    time_adjacency,
    with_head,
)
from rgtn.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from rgtn.models import forward
from rgtn.tensor import from_array


def le_position(index, shape):
    """Flat position of a 0-based multi-index under first-mode-fastest order."""
    pos, stride = 0, 1
    for i, extent in zip(index, shape):
        pos += i * stride
        stride *= extent
    return pos


def contract_oracle(a, b, ax_a, ax_b):
    """Direct nested-loop evaluation of a (multi-)mode contraction (0-based axes)."""
    free_a = [i for i in range(a.ndim) if i not in ax_a]
    free_b = [j for j in range(b.ndim) if j not in ax_b]
    bound_shape = [a.shape[i] for i in ax_a]
    out = np.zeros([a.shape[i] for i in free_a] + [b.shape[j] for j in free_b])
    for ia_free in np.ndindex(*(a.shape[i] for i in free_a)):
        for jb_free in np.ndindex(*(b.shape[j] for j in free_b)):
            acc = 0.0
            for bound in np.ndindex(*bound_shape):
                idx_a = [0] * a.ndim
                idx_b = [0] * b.ndim
                for pos, i in zip(free_a, ia_free):
                    idx_a[pos] = i
                for pos, j in zip(free_b, jb_free):
                    idx_b[pos] = j
                for pa, pb, k in zip(ax_a, ax_b, bound):
                    idx_a[pa] = k
                    idx_b[pb] = k
                acc += a[tuple(idx_a)] * b[tuple(idx_b)]
            out[ia_free + jb_free] = acc
    return out


def contract(a, b, axes_a, axes_b):
    """Contraction of plain arrays: a's paired axes moved last and b's first,
    each side folded to a matrix, then one GEMM."""
    free_a = [i for i in range(a.ndim) if i not in axes_a]
    free_b = [j for j in range(b.ndim) if j not in axes_b]
    rows = prod(a.shape[i] for i in free_a)
    cols = prod(b.shape[j] for j in free_b)
    left = np.transpose(a, free_a + list(axes_a)).reshape(rows, -1)
    right = np.transpose(b, list(axes_b) + free_b).reshape(-1, cols)
    product = left @ right
    return product.reshape([a.shape[i] for i in free_a] + [b.shape[j] for j in free_b])


def grgtn_states(x, w_r, c=0.5):
    """grgtn hidden block of a (batch, tau, physical, m) input with W_x = I."""
    _, tau, p, m = x.shape
    cfg = headless("grgtn", tau, p, m, m, c=c)
    return hidden_states(cfg, {"w_x": np.eye(m), "w_r": w_r}, x)


def grgtn_matrix(w_r, tau, c=0.5):
    """The grgtn map on one slice as a (tau*m, tau*m) matrix, hidden index fastest."""
    m = w_r.shape[0]
    probes = np.eye(tau * m).reshape(tau * m, tau, 1, m)
    return grgtn_states(probes, w_r, c).reshape(tau * m, tau * m).T


def checkpoint_payload(path):
    """The float64 payload of a checkpoint with a single entry."""
    blob = Path(path).read_bytes()
    (head_len,) = np.frombuffer(blob[12:20], dtype="<u8")
    return np.frombuffer(blob[20 + int(head_len) :], dtype="<f8")


class TestConstruction:
    def test_matrix_layout_first_mode_fastest(self, tmp_path):
        path = str(tmp_path / "m.rgtn")
        save_checkpoint(path, {"m": np.array([[1.0, 2.0], [3.0, 4.0]])}, {})
        np.testing.assert_array_equal(checkpoint_payload(path), [1, 3, 2, 4])

    def test_scalar(self):
        t = from_array(7.0)
        assert t.array.ndim == 0
        assert t.array == 7.0

    def test_immutable(self):
        source = np.array([1.0, 2.0])
        t = from_array(source)
        with pytest.raises(ValueError):
            t.array[0] = 5.0
        source[0] = 5.0
        assert t.array[0] == 1.0


class TestVectorizeTensorize:
    def test_matrix_vectorize(self):
        # one time step: the (physical, hidden) block flattens physical-fastest
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        cfg = headless("srgtn", 1, 2, 2, 2)
        out = hidden_rows(cfg, {"w_x": np.eye(2)}, x)
        np.testing.assert_array_equal(out, [[1, 3, 2, 4]])

    def test_scalar_vectorize(self, tmp_path):
        path = str(tmp_path / "s.rgtn")
        save_checkpoint(path, {"s": np.asarray(5.0)}, {})
        np.testing.assert_array_equal(checkpoint_payload(path), [5])
        assert load_checkpoint(path)[0]["s"].shape == ()

    def test_order3_linear_positions(self):
        rng = np.random.default_rng(0)
        tau, p, m = 3, 4, 5
        cfg = headless("grgtn", tau, p, 2, m)
        values = {"w_x": rng.standard_normal((m, 2)), "w_r": rng.standard_normal((m, m))}
        x = rng.standard_normal((1, tau, p, 2))
        flat = hidden_rows(cfg, values, x)[0]
        a = time_adjacency(tau, 0.5)
        for d in range(p):
            h = block_map(a, values["w_r"], x[0, :, d] @ values["w_x"].T)
            for t, i in np.ndindex(tau, m):
                assert abs(flat[le_position((t, d, i), (tau, p, m))] - h[t, i]) < 1e-12

    def test_tensorize_examples(self, tmp_path):
        payload = np.array([1.0, 3.0, 2.0, 4.0, 5.0]).astype("<f8").tobytes()
        entries = [
            {"name": "m", "shape": [2, 2], "offset": 0, "count": 4},
            {"name": "s", "shape": [], "offset": 4, "count": 1},
        ]
        path = tmp_path / "raw.rgtn"
        path.write_bytes(raw_checkpoint(payload_header(entries, payload), payload))
        arrays, _ = load_checkpoint(str(path))
        np.testing.assert_array_equal(arrays["m"], [[1, 2], [3, 4]])
        assert arrays["s"] == 5.0

    def test_length_mismatch(self, tmp_path):
        # a payload too short for its entry, with a matching digest
        payload = np.arange(3.0).astype("<f8").tobytes()
        entries = [{"name": "m", "shape": [2, 2], "offset": 0, "count": 4}]
        path = tmp_path / "short.rgtn"
        path.write_bytes(raw_checkpoint(payload_header(entries, payload), payload))
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("shape", [(), (4,), (2, 3), (3, 4, 5), (2, 2, 2, 2), (2, 1, 3, 2, 2)])
    def test_round_trip_exact(self, shape, tmp_path):
        rng = np.random.default_rng(1)
        t = rng.standard_normal(shape)
        path = str(tmp_path / "t.rgtn")
        save_checkpoint(path, {"t": t}, {})
        flat = checkpoint_payload(path)
        assert np.array_equal(flat, t.ravel(order="F"))
        back = load_checkpoint(path)[0]["t"]
        assert back.shape == shape
        assert np.array_equal(back, t)


class TestContract:
    def test_matrix_multiplication(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(contract(a, b, (1,), (0,)), [[19, 22], [43, 50]])

    def test_identity(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 3))
        np.testing.assert_allclose(contract(a, np.eye(3), (1,), (0,)), a, atol=1e-12)

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((4, 5))
        c = contract(a, b, (2,), (0,))
        assert c.shape == (2, 3, 5)
        np.testing.assert_allclose(c, contract_oracle(a, b, [2], [0]), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            contract(np.ones((2, 3)), np.ones((4, 2)), (1,), (0,))

    def test_random_shapes_vs_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            na, nb = rng.integers(1, 4, size=2)
            sa = tuple(rng.integers(1, 4, size=na))
            ax_a = int(rng.integers(0, na))
            sb = list(rng.integers(1, 4, size=nb))
            ax_b = int(rng.integers(0, nb))
            sb[ax_b] = sa[ax_a]
            a = rng.standard_normal(sa)
            b = rng.standard_normal(tuple(sb))
            if a.size * b.size > 200 * 200:
                continue
            np.testing.assert_allclose(
                contract(a, b, (ax_a,), (ax_b,)),
                contract_oracle(a, b, [ax_a], [ax_b]),
                atol=1e-12,
            )


class TestContractMulti:
    def test_coupling_shape_contract(self):
        rng = np.random.default_rng(5)
        tau, m = 3, 2
        r4 = rng.standard_normal((tau, m, tau, m))
        x = rng.standard_normal((tau, m))
        assert contract(r4, x, (2, 3), (0, 1)).shape == (tau, m)

    def test_single_pair_reduces_to_contract(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((3, 5))
        np.testing.assert_array_equal(
            contract(a, b, (1,), (0,)), np.tensordot(a, b, axes=(1, 0))
        )

    def test_double_contraction_vs_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((2, 3, 2, 3))
        b = rng.standard_normal((2, 3))
        np.testing.assert_allclose(
            contract(a, b, (2, 3), (0, 1)), contract_oracle(a, b, [2, 3], [0, 1]), atol=1e-12
        )

    def test_equals_iterated_single_contractions(self):
        # One single contraction followed by a partial trace over the
        # renumbered second pair must agree with the double contraction.
        rng = np.random.default_rng(8)
        for _ in range(10):
            a = rng.standard_normal((2, 4, 3, 4))
            b = rng.standard_normal((4, 5, 4))
            got = contract(a, b, (1, 3), (0, 2))
            c1 = contract(a, b, (1,), (0,))  # axes: a(0, 2, 3) then b(1, 2)
            iterated = np.trace(c1, axis1=2, axis2=4)
            np.testing.assert_allclose(got, iterated, atol=1e-12)

    def test_full_contraction_of_b(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((3, 4))
        c = contract(a, b, (1, 2), (0, 1))
        assert c.shape == (2,)
        np.testing.assert_allclose(c, contract_oracle(a, b, [1, 2], [0, 1]), atol=1e-12)

    def test_duplicate_mode_error(self):
        with pytest.raises(ValueError):
            contract(np.ones((2, 2)), np.ones((2, 2)), (0, 0), (0, 1))

    def test_length_mismatch_error(self):
        with pytest.raises(ValueError):
            contract(np.ones((2, 2)), np.ones((2, 2)), (0, 1), (0,))


class TestKronecker:
    def test_identity_kron_identity(self):
        tau, m = 3, 2
        a = time_adjacency(tau, 0.5)
        got = grgtn_matrix(np.eye(m), tau)
        np.testing.assert_allclose(got, np.eye(tau * m) + np.kron(a, np.eye(m)), atol=1e-15)

    def test_block_matrix_example(self):
        w_r = np.array([[0.0, 1.0], [1.0, 0.0]])
        expected = [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0.5, 1, 0],
            [0.5, 0, 0, 1],
        ]
        np.testing.assert_array_equal(grgtn_matrix(w_r, 2), expected)

    def test_order3_vs_index_rule_oracle(self):
        # h[t, p, m] = x[t, p, m] + sum_{s, k} A[t, s] W_r[m, k] x[s, p, k]
        rng = np.random.default_rng(10)
        tau, p, m = 3, 2, 3
        w_r = rng.standard_normal((m, m))
        x = rng.standard_normal((1, tau, p, m))
        a = time_adjacency(tau, 0.5)
        expected = x[0].copy()
        for t, d, i in np.ndindex(tau, p, m):
            for s, k in np.ndindex(tau, m):
                expected[t, d, i] += a[t, s] * w_r[i, k] * x[0, s, d, k]
        np.testing.assert_allclose(grgtn_states(x, w_r)[0], expected, atol=1e-12)

    def test_block_structure_for_matrices(self):
        rng = np.random.default_rng(11)
        tau, m = 4, 3
        w_r = rng.standard_normal((m, m))
        a = time_adjacency(tau, 0.5)
        got = grgtn_matrix(w_r, tau)
        for t in range(tau):
            for s in range(tau):
                block = got[m * t : m * t + m, m * s : m * s + m]
                expect = a[t, s] * w_r + (np.eye(m) if t == s else 0.0)
                np.testing.assert_allclose(block, expect, atol=1e-12)

    def test_unequal_order_promotion(self):
        # on the (tau, physical, hidden) block the map is I + A kron I_P kron W_r
        rng = np.random.default_rng(12)
        tau, p, m = 3, 2, 2
        w_r = rng.standard_normal((m, m))
        x = rng.standard_normal((1, tau, p, m))
        big = np.eye(tau * p * m) + np.kron(time_adjacency(tau, 0.5), np.kron(np.eye(p), w_r))
        expected = (big @ x[0].reshape(-1)).reshape(tau, p, m)
        np.testing.assert_allclose(grgtn_states(x, w_r)[0], expected, atol=1e-12)


class TestElementwiseAndPowers:
    def test_power_zero_is_identity(self):
        # a step's own input reaches it through the zeroth power: identity blocks
        rng = np.random.default_rng(13)
        m, tau = 4, 3
        got = grgtn_matrix(rng.standard_normal((m, m)), tau)
        for t in range(tau):
            np.testing.assert_array_equal(got[m * t : m * t + m, m * t : m * t + m], np.eye(m))

    def test_nilpotent_power(self):
        # the coupling part A kron W_r is nilpotent: no input outlives the window
        rng = np.random.default_rng(14)
        m, tau = 2, 3
        coupling = grgtn_matrix(rng.standard_normal((m, m)), tau) - np.eye(tau * m)
        np.testing.assert_allclose(
            np.linalg.matrix_power(coupling, tau), np.zeros((tau * m, tau * m)), atol=1e-14
        )

    def test_power_requires_square(self):
        cfg = headless("grgtn", 2, 1, 2, 2)
        with pytest.raises(ValueError):
            forward(cfg, with_head(cfg, {"w_x": np.eye(2), "w_r": np.zeros((2, 3))}),
                    np.zeros((1, 2, 1, 2)))


class TestMatrixSpecialization:
    def test_contract_is_matmul_for_random_matrices(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            i, k, j = rng.integers(1, 7, size=3)
            a = rng.standard_normal((i, k))
            b = rng.standard_normal((k, j))
            np.testing.assert_allclose(contract(a, b, (1,), (0,)), a @ b, atol=1e-12)
