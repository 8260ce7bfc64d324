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


@pytest.mark.parametrize("task", ["regression", "classification"])
def test_dataset_splits_and_subset(task):
    # perfbench/harness.py counts the train windows with len(), gates on the first
    # two train windows and predicts the test split, each read through subset
    from rgtn.data import synth_classification, synth_linear_dynamics, window

    if task == "regression":
        ds = window(synth_linear_dynamics(2, 3, 60, 0.1, seed=1), 4, 1, (0.7, 0.15, 0.15))
    else:
        ds = synth_classification(4, 2, 3, 40, 0.5, seed=1)
    assert ds.task == task and len(ds.splits.train) >= 2
    head = ds.subset(ds.splits.train[:2])
    for sub, whole in zip(head, (ds.inputs, ds.targets)):
        assert len(sub) == 2 and not sub.flags.writeable and np.shares_memory(sub, whole)
        assert np.array_equal(sub, whole[:2])
    test = list(ds.splits.test)
    for sub, whole in zip(ds.subset(ds.splits.test), (ds.inputs, ds.targets)):
        assert len(sub) == len(test) > 0 and np.array_equal(sub, whole[test])


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
    assert tt.tt_param_count(cores) == sum(core.size for core in cores)



def _counted(push, key, calls):
    """``push``, counting its calls under ``key``, as the tracer's timing wrapper wraps it."""
    def wrapper(g):
        calls[key] = calls.get(key, 0) + 1
        return push(g)
    return wrapper


@pytest.mark.parametrize("variant", ["grgtn", "srgtn", "rnn"])
def test_backward_runs_every_swapped_push_once(variant):
    # perfbench/tracing.py times each push by replacing a node's ``pushes``
    # tuple, reached through ``.parents``, with wrappers; backward must run the
    # tuple the node holds when it is walked, each push once, and give the
    # leaves the same gradient bits as without the wrappers
    from rgtn import autodiff
    from rgtn.models import HeadConfig, ModelConfig, forward, init_params

    cfg = ModelConfig(variant=variant, tau=4, d_phys=2, d_feat=3, hidden=5, out_dim=6,
                      activation="tanh", head=HeadConfig(ranks=(2, 3), out_modes=(1, 2, 3)))
    rng = np.random.default_rng(0)
    x = rng.standard_normal((7, cfg.tau, cfg.d_phys, cfg.d_feat))
    target = rng.standard_normal((7, cfg.out_dim))
    values = init_params(cfg, seed=1)
    grads, calls = [], {}
    for wrapped in (False, True):
        leaves = {k: autodiff.constant(v) for k, v in values.items()}
        root = autodiff.mse_loss(forward(cfg, leaves, x), target)
        stack, seen = [root], set()
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.extend(node.parents)
            if wrapped and node.pushes:
                node.pushes = tuple(_counted(push, (id(node), i), calls)
                                    for i, push in enumerate(node.pushes))
        autodiff.backward(root)
        grads.append({k: leaf.grad for k, leaf in leaves.items()})
    # the loss's one push and one per parameter of the body op
    assert len(calls) == 1 + len(values)
    assert set(calls.values()) == {1}
    for name, grad in grads[0].items():
        assert grad is not None and grads[1][name].tobytes() == grad.tobytes(), name
