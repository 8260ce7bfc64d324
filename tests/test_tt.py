"""Tensor-train tests: decomposition accuracy, counting, the models' TT head."""

import re
import tracemalloc
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import tt_dense, tt_svd_reference
from rgtn.checkpoint import load_checkpoint, save_tensor
from rgtn.cli import main
from rgtn.models import HeadConfig, ModelConfig, forward, param_shapes
from rgtn.tensor import from_array
from rgtn.tt import tt_param_count, tt_reconstruct, tt_svd


def chain_ranks(cores):
    """R_0 = 1 and each core's right rank, as ``rgtn decompose`` reports them."""
    return (1,) + tuple(core.shape[2] for core in cores)


def reconstruct_loop(cores):
    """Entrywise chain product over all rank paths, by explicit loops."""
    sizes = tuple(core.shape[1] for core in cores)
    interior = chain_ranks(cores)[1:-1]
    out = np.zeros(sizes)
    for idx in np.ndindex(*sizes):
        acc = 0.0
        for path in np.ndindex(*interior):
            bounds = (0,) + tuple(path) + (0,)
            term = 1.0
            for k, core in enumerate(cores):
                term *= core[bounds[k], idx[k], bounds[k + 1]]
            acc += term
        out[idx] = acc
    return out


def head_config(d_phys, out_modes, ranks):
    """An srgtn over one step with hidden = d_feat = 2, run with W_x = I.

    With tau = 1 and W_x = I the body passes its input through unchanged,
    so ``forward`` applies the TT head to the (1, d_phys, 2) block x.
    """
    return ModelConfig(
        "srgtn", 1, d_phys, 2, 2, int(np.prod(out_modes)), activation="identity",
        head=HeadConfig(ranks=ranks, out_modes=out_modes),
    )


def head_values(rng, cfg):
    values = {name: rng.standard_normal(shape) for name, shape in param_shapes(cfg).items()}
    values["w_x"] = np.eye(2)
    return values


def head_matrix_via_reconstruct(values):
    """Dense (prod in, prod out) head matrix from tt_reconstruct of the paired cores.

    Core k of the head is (r0, in_k, out_k, r1); with the mode pair merged
    (in index fastest) it is an ordinary TT core, so the chain reconstructs
    to the (in_1 out_1, in_2 out_2, in_3 out_3) tensor of the weight.
    """
    cores = [values[f"head.core{k}"] for k in range(3)]
    paired = [c.reshape(c.shape[0], -1, c.shape[3], order="F") for c in cores]
    dense = tt_reconstruct(paired).array
    ins = [c.shape[1] for c in cores]
    outs = [c.shape[2] for c in cores]
    split = dense.reshape(
        (ins[0], outs[0], ins[1], outs[1], ins[2], outs[2]), order="F"
    ).transpose(0, 2, 4, 1, 3, 5)
    return split.reshape(int(np.prod(ins)), int(np.prod(outs)), order="F")


def assert_chain(cores, shape):
    """Order-3 cores over ``shape``, boundary ranks 1 and adjacent ranks equal."""
    assert all(core.ndim == 3 for core in cores)
    assert tuple(core.shape[1] for core in cores) == tuple(shape)
    assert cores[0].shape[0] == 1 and cores[-1].shape[2] == 1
    for left, right in zip(cores, cores[1:]):
        assert left.shape[2] == right.shape[0]


# tt_svd builds every chain, and nothing checks one: orders 1 to 4, unit
# modes, and caps absent, above, at and below the numerical ranks
CHAIN_CASES = [((1,), None), ((5,), 2), ((2, 3), 1), ((3, 1, 4), None), ((2, 3, 2, 3), 2),
               ((4, 4, 4), [3, 1]), ((1, 1, 1), 5)]


class TestNetworkValidation:
    def test_boundary_rank_enforced(self):
        rng = np.random.default_rng(5)
        for shape, caps in CHAIN_CASES:
            cores = tt_svd(from_array(rng.standard_normal(shape)), max_ranks=caps)
            assert len(cores) == len(shape)
            assert cores[0].shape[0] == cores[-1].shape[2] == 1

    def test_adjacent_rank_mismatch(self):
        rng = np.random.default_rng(6)
        for shape, caps in CHAIN_CASES:
            assert_chain(tt_svd(from_array(rng.standard_normal(shape)), max_ranks=caps), shape)

    def test_ranks_property(self, tmp_path):
        # rgtn decompose reads the ranks and mode sizes it reports off the cores'
        # shapes: a chain of (1, 3, 2) and (2, 4, 1) cores comes back as it was
        rng = np.random.default_rng(6)
        cores = (rng.standard_normal((1, 3, 2)), rng.standard_normal((2, 4, 1)))
        tensor_path = str(tmp_path / "x.rgtn")
        save_tensor(tensor_path, tt_reconstruct(cores).array)
        out = tmp_path / "dec"
        assert main(["decompose", "--tensor", tensor_path, "--tol", "1e-12",
                     "--out", str(out)]) == 0
        _, meta = load_checkpoint(str(out / "cores.rgtn"))
        assert meta["ranks"] == [1, 2, 1]
        assert meta["mode_sizes"] == [3, 4]


class TestSVD:
    def test_rank_one_tensor(self):
        rng = np.random.default_rng(0)
        u, v, w = rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(5)
        x = from_array(np.einsum("i,j,k->ijk", u, v, w))
        cores = tt_svd(x, rel_tolerance=1e-10)
        assert chain_ranks(cores) == (1, 1, 1, 1)
        err = np.linalg.norm(tt_reconstruct(cores).array - x.array)
        assert err <= 1e-12 * np.linalg.norm(x.array)

    def test_full_rank_random_order4(self):
        rng = np.random.default_rng(1)
        x = from_array(rng.standard_normal((3, 4, 5, 2)))
        cores = tt_svd(x)
        rel = np.linalg.norm(tt_reconstruct(cores).array - x.array) / np.linalg.norm(x.array)
        assert rel <= 1e-10

    def test_zero_tensor(self):
        x = from_array(np.zeros((2, 3, 2)))
        cores = tt_svd(x)
        for core in cores:
            np.testing.assert_array_equal(core, np.zeros(core.shape))
        np.testing.assert_array_equal(tt_reconstruct(cores).array, np.zeros((2, 3, 2)))

    def test_non_finite_rejected(self):
        x = from_array(np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            tt_svd(x)

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0, 2), (0,)])
    def test_empty_mode_rejected_naming_the_shape(self, shape, tmp_path, capsys):
        # rgtn decompose refuses the file before tt_svd sees it, whatever the caps
        tensor_path = str(tmp_path / "x.rgtn")
        save_tensor(tensor_path, np.zeros(shape))
        for flags in (["--tol", "0.1"], ["--max-ranks", "1"], ["--max-ranks", "1,1,1,1"]):
            out = tmp_path / "dec"
            assert main(["decompose", "--tensor", tensor_path, *flags, "--out", str(out)]) == 1
            assert re.search(f"shape {re.escape(str(shape))} has no mode", capsys.readouterr().err)
            assert not out.exists()

    def test_order1(self):
        x = from_array(np.array([1.0, 2.0, 3.0, 4.0]))
        cores = tt_svd(x)
        assert chain_ranks(cores) == (1, 1)
        np.testing.assert_allclose(tt_reconstruct(cores).array, x.array, atol=1e-14)

    def test_rank_validity_over_random_shapes(self):
        rng = np.random.default_rng(2)
        for shape in [(2, 2), (3, 4, 2), (2, 2, 2, 2), (5,)]:
            cores = tt_svd(from_array(rng.standard_normal(shape)), max_ranks=3)
            ranks = chain_ranks(cores)
            assert ranks[0] == 1 and ranks[-1] == 1
            for i, core in enumerate(cores):
                assert core.shape == (ranks[i], shape[i], ranks[i + 1])

    def test_tolerance_monotonicity(self):
        rng = np.random.default_rng(3)
        x = from_array(rng.standard_normal((4, 4, 4)))
        errs = []
        for tol in [0.5, 0.1, 0.01, 1e-6]:
            cores = tt_svd(x, rel_tolerance=tol)
            rel = np.linalg.norm(tt_reconstruct(cores).array - x.array) / np.linalg.norm(x.array)
            assert rel <= tol + 1e-12
            errs.append(rel)
        assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))

    def test_rank_cap_monotonicity(self):
        rng = np.random.default_rng(4)
        x = from_array(rng.standard_normal((4, 4, 4)))
        errs = []
        for cap in [1, 2, 3, 4]:
            cores = tt_svd(x, max_ranks=cap)
            errs.append(np.linalg.norm(tt_reconstruct(cores).array - x.array))
        assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))


def chain_tensor(rng, shape, rank, noise):
    """A random rank-``rank`` TT tensor plus Gaussian noise of ``noise`` times its norm."""
    full = np.ones((1, 1))
    for k, dim in enumerate(shape):
        core = rng.standard_normal((1 if k == 0 else rank, dim, 1 if k == len(shape) - 1 else rank))
        full = np.tensordot(full, core, axes=(full.ndim - 1, 0))
    full = full.reshape(shape)
    extra = rng.standard_normal(shape)
    return full + extra * (noise * np.linalg.norm(full) / np.linalg.norm(extra))


@st.composite
def svd_cases(draw):
    """A tensor of order 1-5 and modes 1-8 in C or Fortran order, a tolerance and rank caps."""
    shape = tuple(draw(st.lists(st.integers(1, 8), min_size=1, max_size=5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = chain_tensor(rng, shape, draw(st.integers(1, 3)), draw(st.sampled_from([0.0, 1e-9, 1e-3])))
    if draw(st.booleans()):
        # from_array copies a float64 array into C order, but keeps the layout it converts
        x = np.asfortranarray(x).astype(np.float32)
    tol = draw(st.sampled_from([None, 0.0, 1e-12, 1e-6, 1e-2, 0.3]))
    n = len(shape) - 1
    caps = None
    if draw(st.booleans()):
        caps = draw(st.integers(1, 8) | st.lists(st.integers(1, 8), min_size=n, max_size=n))
    return x, tol, caps


class TestSVDAgainstReference:
    """``tt_svd`` against the full SVD of each unfolding (``oracles.tt_svd_reference``)."""

    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(case=svd_cases())
    def test_ranks_and_error_match_the_full_svd(self, case):
        values, tol, caps = case
        x = from_array(values)
        assert x.array.flags.c_contiguous or values.dtype == np.float32
        cores = tt_svd(x, max_ranks=caps, rel_tolerance=tol)
        ref = tt_svd_reference(x.array, max_ranks=caps, rel_tolerance=tol)
        assert chain_ranks(cores) == chain_ranks(ref)
        norm = np.linalg.norm(x.array)
        err = np.linalg.norm(tt_reconstruct(cores).array - x.array)
        assert abs(err - np.linalg.norm(tt_dense(ref) - x.array)) <= 1e-12 * norm
        if caps is None:
            assert err <= ((tol or 0.0) + 1e-14) * norm

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(case=svd_cases())
    def test_every_chain_is_well_formed(self, case):
        values, tol, caps = case
        cores = tt_svd(from_array(values), max_ranks=caps, rel_tolerance=tol)
        assert_chain(cores, values.shape)
        if caps is not None:
            interior = [caps] * (values.ndim - 1) if isinstance(caps, int) else caps
            assert all(r <= cap for r, cap in zip(chain_ranks(cores)[1:-1], interior))

    def test_singular_values_down_to_1e_14(self):
        # the first unfolding's singular values fall from 1 to 1e-14; squared
        # in a Gram matrix, all below about 1e-8 would be lost to rounding
        rng = np.random.default_rng(8)
        left = np.linalg.qr(rng.standard_normal((20, 20)))[0]
        right = np.linalg.qr(rng.standard_normal((400, 20)))[0]
        x = ((left * np.logspace(0, -14, 20)) @ right.T).reshape(20, 20, 20)
        cores = tt_svd(from_array(x), rel_tolerance=1e-13)
        ref = tt_svd_reference(x, rel_tolerance=1e-13)
        assert chain_ranks(cores) == chain_ranks(ref) == (1, 18, 20, 1)
        assert np.linalg.norm(tt_reconstruct(cores).array - x) <= 1e-13 * np.linalg.norm(x)


class TestReconstruct:
    def test_single_core(self):
        core = np.arange(3.0).reshape(1, 3, 1)
        np.testing.assert_array_equal(tt_reconstruct((core,)).array, [0, 1, 2])

    def test_all_ones_cores_count_paths(self):
        for n in [2, 3, 4]:
            ranks = (1,) + (2,) * (n - 1) + (1,)
            cores = tuple(np.ones((ranks[k], 1, ranks[k + 1])) for k in range(n))
            dense = tt_reconstruct(cores)
            assert dense.array.ravel()[0] == 2 ** (n - 1)
            np.testing.assert_allclose(dense.array, reconstruct_loop(cores), atol=1e-12)

    def test_against_loop_oracle_random(self):
        rng = np.random.default_rng(5)
        cores = (
            rng.standard_normal((1, 3, 2)),
            rng.standard_normal((2, 2, 3)),
            rng.standard_normal((3, 4, 1)),
        )
        np.testing.assert_allclose(tt_reconstruct(cores).array, reconstruct_loop(cores),
                                   atol=1e-12)

    def test_result_is_not_copied(self):
        # the 16^4 chain rgtn decompose meets: the contraction's own array, read-only
        rng = np.random.default_rng(9)
        ranks = (1, 3, 3, 3, 1)
        cores = tuple(rng.standard_normal((ranks[k], 16, ranks[k + 1])) for k in range(4))
        tracemalloc.start()
        try:
            dense = tt_reconstruct(cores)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * dense.array.nbytes
        assert not dense.array.flags.writeable

    def test_svd_cores_are_read_only(self):
        x = from_array(np.random.default_rng(10).standard_normal((3, 4, 5)))
        cores = tt_svd(x, max_ranks=2)
        assert isinstance(cores, tuple)
        for core in cores:
            assert type(core) is np.ndarray and core.dtype == np.float64
            with pytest.raises(ValueError):
                core[(0,) * 3] = 1.0


class TestParamCount:
    def test_pinned_example(self):
        rng = np.random.default_rng(6)
        ranks = (1, 2, 2, 2, 1)
        cores = tuple(rng.standard_normal((ranks[k], 4, ranks[k + 1])) for k in range(4))
        assert tt_param_count(cores) == 48
        assert prod((4, 4, 4, 4)) == 256

    def test_all_rank_one(self):
        cores = tuple(np.ones((1, i, 1)) for i in (3, 5, 2))
        assert tt_param_count(cores) == 10

    def test_matches_core_sizes_after_svd(self):
        rng = np.random.default_rng(7)
        cores = tt_svd(from_array(rng.standard_normal((3, 4, 2))), max_ranks=2)
        assert tt_param_count(cores) == sum(c.size for c in cores)

    def test_compression_grid(self):
        # Interior ranks strictly below the smallest mode size compress;
        # at equality small shapes like (2,2,2) can exceed the dense count.
        rng = np.random.default_rng(8)
        for shape in [(2, 2, 2), (3, 2, 4), (2, 3, 2, 3), (4, 4, 4), (3, 3, 3)]:
            cap = max(min(shape) - 1, 1)
            cores = tt_svd(from_array(rng.standard_normal(shape)), max_ranks=cap)
            assert tt_param_count(cores) < prod(shape)


class TestLinearLayer:
    """The models' TT head (see ``rgtn.models``) against dense references."""

    def test_identity_layer(self):
        rng = np.random.default_rng(9)
        cfg = head_config(3, (1, 3, 2), ranks=(1, 1))
        values = {"w_x": np.eye(2), "head.bias": np.zeros(6)}
        for k, n in enumerate((1, 3, 2)):
            values[f"head.core{k}"] = np.eye(n).reshape(1, n, n, 1)
        h = rng.standard_normal((4, 1, 3, 2))
        got = forward(cfg, values, h).array
        np.testing.assert_allclose(got, h.reshape(4, -1, order="F"), atol=1e-14)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            cfg = head_config(2, (2, 2, 3), ranks=(2, 3))
            values = head_values(rng, cfg)
            h = rng.standard_normal((3, 1, 2, 2))
            got = forward(cfg, values, h).array
            w = head_matrix_via_reconstruct(values)
            expect = h.reshape(3, -1, order="F") @ w + values["head.bias"]
            rel = np.linalg.norm(got - expect) / np.linalg.norm(expect)
            assert rel <= 1e-10
            assert got.shape == (3, 12)

    def test_zero_input_zero_bias(self):
        rng = np.random.default_rng(11)
        cfg = head_config(2, (3, 2, 1), ranks=(2, 2))
        values = dict(head_values(rng, cfg), **{"head.bias": np.zeros(6)})
        y = forward(cfg, values, np.zeros((2, 1, 2, 2))).array
        np.testing.assert_array_equal(y, np.zeros((2, 6)))

    def test_input_shape_mismatch(self):
        rng = np.random.default_rng(12)
        cfg = head_config(2, (3, 2, 1), ranks=(2, 2))
        with pytest.raises(ValueError):
            forward(cfg, head_values(rng, cfg), np.zeros((2, 1, 3, 2)))

    def test_middle_extent_must_factor(self):
        rng = np.random.default_rng(13)
        cfg = head_config(2, (3, 2, 1), ranks=(2, 2))
        values = head_values(rng, cfg)
        values["head.core1"] = np.ones((2, 4, 1, 2))
        with pytest.raises(ValueError):
            forward(cfg, values, np.zeros((1, 1, 2, 2)))

    def test_bias_shape_checked(self):
        rng = np.random.default_rng(14)
        cfg = head_config(2, (3, 2, 1), ranks=(2, 2))
        values = head_values(rng, cfg)
        values["head.bias"] = np.ones(3)
        with pytest.raises(ValueError):
            forward(cfg, values, np.zeros((1, 1, 2, 2)))
