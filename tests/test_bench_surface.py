"""The package surface that perfbench/ uses, so a deletion that breaks it fails here.

perfbench/run.py imports these modules and reaches these names through
module attributes, and its tracer imports ``rgtn.graph`` and ``rgtn.tensor``
on every run.
"""

import importlib

import numpy as np
import pytest

SURFACE = {
    "rgtn.config": ("load_run_config", "build_dataset", "model_for_variant"),
    "rgtn.data": ("inverse_transform_predictions",),
    "rgtn.models": (
        "forward",
        "predict",
        "init_params",
        "param_count",
        "build_time_adjacency",
    ),
    "rgtn.training": ("train", "adam_step", "forward", "init_params", "ParamStore"),
    "rgtn.checkpoint": ("save_checkpoint", "load_checkpoint"),
    "rgtn.tt": ("tt_svd", "tt_reconstruct", "tt_param_count"),
    "rgtn.autodiff": (
        "TapeNode",
        "constant",
        "backward",
        "mae_loss",
        "mse_loss",
        "cross_entropy_loss",
    ),
    "rgtn.graph": ("build_time_adjacency",),
    "rgtn.tensor": ("from_array",),
}


@pytest.mark.parametrize("module", sorted(SURFACE))
def test_module_has_names(module):
    mod = importlib.import_module(module)
    missing = [name for name in SURFACE[module] if not hasattr(mod, name)]
    assert not missing, f"{module} lacks {missing}"


def test_param_store_values():
    from rgtn.training import ParamStore

    # perfbench/harness.py reads the trained parameters through values()
    assert callable(ParamStore.values)


def test_tape_node_attributes():
    from rgtn import autodiff

    # |1 - (-5)| = 6 on each of the 6 entries
    root = autodiff.mae_loss(autodiff.constant(np.ones((2, 3))), np.full((2, 3), -5.0))
    autodiff.backward(root)
    assert root.shape == ()
    assert float(root.array) == 6.0
    assert len(root.parents) == len(root.pushes) == 1
    np.testing.assert_array_equal(root.parents[0].grad, np.full((2, 3), 1.0 / 6.0))


def test_tt_round_trip_on_a_small_tensor():
    from rgtn import tensor, tt

    rng = np.random.default_rng(0)
    t = rng.standard_normal((3, 4, 2, 3))
    cores = tt.tt_svd(tensor.from_array(t), rel_tolerance=1e-2)
    back = tt.tt_reconstruct(cores).array
    assert np.linalg.norm(back - t) <= 1e-2 * np.linalg.norm(t)
    assert tt.tt_param_count(cores) == sum(core.size for core in cores.cores)
