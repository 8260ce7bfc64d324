"""Optimizer oracle, training determinism, convergence, and metrics tests."""

import weakref
from math import prod

import numpy as np
import pytest

from oracles import adam_per_tensor
from rgtn import autodiff as ad
from rgtn.data import normalize, synth_classification, synth_linear_dynamics, window
from rgtn.models import HeadConfig, ModelConfig, forward, init_params, predict
from rgtn.training import (
    ParamStore,
    TrainConfig,
    TrainingDiverged,
    _loss_node,
    _split_loss,
    adam_step,
    evaluate,
    train,
)


def scalar_adam_oracle(g, steps, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """Hand-rolled scalar Adam iteration with constant gradient."""
    theta, m, v = 0.0, 0.0, 0.0
    for t in range(1, steps + 1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        theta -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return theta


def regression_setup(epochs=5, seed=0):
    table = synth_linear_dynamics(2, 2, 200, 0.1, seed=seed)
    ds = normalize(window(table, tau=4))
    model = ModelConfig(
        variant="srgtn",
        tau=4,
        d_phys=2,
        d_feat=2,
        hidden=3,
        out_dim=4,
        activation="identity",
        head=HeadConfig(ranks=(2, 2), out_modes=(1, 2, 2)),
    )
    config = TrainConfig(epochs=epochs, learning_rate=3e-3, batch_size=16, seed=seed)
    return model, ds, config


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        store = ParamStore({"w": np.ones((2, 2))})
        store.grad_views["w"][...] = np.zeros((2, 2))
        adam_step(store, TrainConfig(epochs=1))
        np.testing.assert_array_equal(store.views["w"], np.ones((2, 2)))

    def test_constant_gradient_matches_scalar_oracle(self):
        g = 0.37
        store = ParamStore({"theta": np.zeros(())})
        config = TrainConfig(epochs=1)
        for _ in range(25):
            store.grad_views["theta"][...] = g
            adam_step(store, config)
        expect = scalar_adam_oracle(g, 25)
        np.testing.assert_allclose(float(store.views["theta"]), expect, atol=1e-12)

    def test_flat_update_equals_per_tensor_oracle(self):
        rng = np.random.default_rng(6)
        values = {"a": rng.standard_normal((2, 3)), "b": rng.standard_normal(4),
                  "c": rng.standard_normal(())}
        store = ParamStore(values)
        config = TrainConfig(epochs=1, learning_rate=0.05)
        expect, state, step = dict(values), {}, 0
        for k in range(25):
            grads = {name: rng.standard_normal(v.shape) for name, v in values.items()}
            for name, g in grads.items():
                store.grad_views[name][...] = g
            adam_step(store, config)
            step = adam_per_tensor(expect, grads, state, step, config)
            for name in values:
                assert np.array_equal(store.views[name], expect[name]), (k, name)
        assert store.step == step == 25

    def test_values_are_views_updated_in_place(self):
        store = ParamStore({"w": np.ones(2)})
        kept = store.values()["w"]
        store.grad_views["w"][...] = np.ones(2)
        adam_step(store, TrainConfig(epochs=1))
        assert np.shares_memory(kept, store.flat)
        assert not np.array_equal(kept, np.ones(2))

    def test_zero_learning_rate(self):
        store = ParamStore({"w": np.ones(4)})
        store.grad_views["w"][...] = np.ones(4)
        adam_step(store, TrainConfig(epochs=1, learning_rate=0.0))
        np.testing.assert_array_equal(store.views["w"], np.ones(4))

    def test_non_finite_gradient_names_parameter(self):
        store = ParamStore({"w_x": np.ones(2)})
        store.grad_views["w_x"][...] = np.array([1.0, np.inf])
        with pytest.raises(FloatingPointError, match="w_x"):
            adam_step(store, TrainConfig(epochs=1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, loss="hinge")
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)


class TestTrainLoop:
    def test_zero_epochs_returns_initial_params(self):
        model, ds, _ = regression_setup()
        config = TrainConfig(epochs=0, seed=3)
        store, trace = train(model, ds, config)
        seeds = np.random.SeedSequence(3).generate_state(2)
        expect = init_params(model, int(seeds[0]))
        for name, arr in expect.items():
            np.testing.assert_array_equal(store.views[name], arr)
        assert trace == []

    def test_fixed_seed_traces_identical(self):
        model, ds, config = regression_setup(epochs=3, seed=11)
        _, trace_a = train(model, ds, config)
        _, trace_b = train(model, ds, config)
        assert trace_a == trace_b

    def test_caller_arrays_unchanged(self):
        # tape nodes hold the caller's arrays without copying them
        model, ds, config = regression_setup(epochs=2)
        inputs, targets = ds.inputs.copy(), ds.targets.copy()
        store, _ = train(model, ds, config)
        assert np.array_equal(ds.inputs, inputs)
        assert np.array_equal(ds.targets, targets)
        values = store.values()
        before = {k: v.copy() for k, v in values.items()}
        evaluate(model, values, ds, split="test")
        for name, arr in values.items():
            assert np.array_equal(arr, before[name]), name

    def test_trace_fields(self):
        model, ds, config = regression_setup(epochs=2)
        _, trace = train(model, ds, config)
        assert [r["epoch"] for r in trace] == [1, 2]
        for r in trace:
            assert np.isfinite(r["train_loss"]) and np.isfinite(r["val_loss"])

    def test_linear_task_reaches_tiny_mse(self):
        # windows -> targets given by an exactly representable linear map
        rng = np.random.default_rng(5)
        from rgtn.data import SeriesTable

        t, d, f = 120, 2, 2
        table = SeriesTable(
            timestamps=np.arange(t, dtype=float),
            values=rng.standard_normal((t, d, f)),
            phys_labels=("p0", "p1"),
            feat_labels=("f0", "f1"),
        )
        ds = window(table, tau=3)
        w = rng.standard_normal((4, 3 * d * f)) * 0.5
        flat = ds.inputs.reshape(ds.inputs.shape[0], -1)
        from dataclasses import replace

        ds = replace(ds, targets=flat @ w.T)
        model = ModelConfig(
            variant="srgtn",
            tau=3,
            d_phys=d,
            d_feat=f,
            hidden=4,
            out_dim=4,
            activation="identity",
            # full TT ranks for (3, 2, 4) -> (1, 2, 2): the head holds any linear map
            head=HeadConfig(ranks=(3, 8), out_modes=(1, 2, 2)),
        )
        config = TrainConfig(
            epochs=500, learning_rate=1e-2, batch_size=32, seed=1, loss="mse"
        )
        store, trace = train(model, ds, config)
        assert trace[-1]["train_loss"] <= 1e-6

    def test_parameter_without_gradient_is_not_trained_silently(self, monkeypatch):
        # a forward that leaves a parameter off the tape gives it no gradient;
        # the step must fail naming it rather than move or freeze it
        from rgtn import autodiff as ad
        from rgtn import training

        def forward_without_bias(model, nodes, x):
            detached = ad.constant(nodes["head.bias"].array.copy())
            return forward(model, {**nodes, "head.bias": detached}, x)

        monkeypatch.setattr(training, "forward", forward_without_bias)
        model, ds, config = regression_setup(epochs=1)
        with pytest.raises(FloatingPointError, match="head.bias"):
            train(model, ds, config)

    def test_previous_step_tape_is_freed_before_the_next_forward(self, monkeypatch):
        # the last step's tape holds the hidden block: it must not stay alive
        # through the next forward, which writes one of its own
        from rgtn import training

        refs, all_dead = [], []

        def forward_checked(*args):
            all_dead.append(all(ref() is None for ref in refs))
            return forward(*args)

        def loss_recorded(*args):
            node = _loss_node(*args)
            refs.append(weakref.ref(node))
            return node

        monkeypatch.setattr(training, "forward", forward_checked)
        monkeypatch.setattr(training, "_loss_node", loss_recorded)
        model, ds, config = regression_setup(epochs=2)
        train(model, ds, config)
        assert len(all_dead) > 3 and all(all_dead)

    def test_divergence_aborts_with_trace(self):
        # Adam steps are bounded by the learning rate, so overflow needs an
        # absurd one; the loop must abort rather than emit non-finite records.
        # The overflow it provokes is expected here, so its warnings are not errors.
        model, ds, _ = regression_setup()
        config = TrainConfig(epochs=5, learning_rate=1e120, batch_size=16, seed=0, loss="mse")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged) as excinfo:
                train(model, ds, config)
        assert isinstance(excinfo.value.trace, list)


class TestSplitLoss:
    @pytest.mark.parametrize("loss", ["mae", "mse"])
    def test_is_the_loss_of_blocked_predict(self, loss, monkeypatch):
        # graph_tt walks the validation windows 3 at a time, and the loss is
        # forward's to the bit
        model, ds, _ = regression_setup()
        monkeypatch.setattr(ad, "_BLOCK_BYTES", 3 * 8 * prod(model.feature_block))
        values = init_params(model, seed=1)
        x, y = ds.subset(ds.splits.val)
        fn, push = ad._ACTIVATIONS[model.activation]
        blocks = []

        def counted(z, out=None):
            blocks.append(len(z) // (model.tau * model.d_phys))
            return fn(z, out=out)

        monkeypatch.setitem(ad._ACTIVATIONS, model.activation, (counted, push))
        got = _split_loss(model, values, loss, x, y)
        assert len(blocks) > 1 and set(blocks[:-1]) == {3} and sum(blocks) == len(x)
        assert got == float(_loss_node(loss, ad.constant(predict(model, values, x)), y).array)
        assert got == float(_loss_node(loss, forward(model, values, x), y).array)


class TestEvaluate:
    def test_constant_predictor_mae(self):
        model, ds, _ = regression_setup()
        values = {
            name: np.zeros_like(arr) for name, arr in init_params(model, 0).items()
        }
        metrics = evaluate(model, values, ds, split="test")
        inputs, targets = ds.subset(ds.splits.test)
        from rgtn.data import inverse_transform_predictions

        raw_targets = inverse_transform_predictions(ds, targets)
        mean_pred = inverse_transform_predictions(ds, np.zeros_like(targets))
        expect = float(np.abs(mean_pred - raw_targets).mean())
        np.testing.assert_allclose(metrics["mae"], expect, atol=1e-12)

    def test_metrics_match_recomputation(self):
        model, ds, config = regression_setup(epochs=2)
        store, _ = train(model, ds, config)
        metrics = evaluate(model, store.values(), ds, split="val")
        inputs, targets = ds.subset(ds.splits.val)
        preds = predict(model, store.values(), inputs)
        from rgtn.data import inverse_transform_predictions

        expect = float(
            np.abs(
                inverse_transform_predictions(ds, preds)
                - inverse_transform_predictions(ds, targets)
            ).mean()
        )
        np.testing.assert_allclose(metrics["mae"], expect, atol=1e-12)
        assert metrics["parameter_count"] == store.flat.size

    def test_perfect_classifier_accuracy(self):
        ds = synth_classification(6, 2, 2, 80, 0.0, seed=2)
        model = ModelConfig(
            variant="grgtn",
            tau=6,
            d_phys=2,
            d_feat=2,
            hidden=4,
            out_dim=2,
            head=HeadConfig(ranks=(2, 2), out_modes=(1, 1, 2)),
        )
        config = TrainConfig(epochs=40, learning_rate=1e-2, batch_size=16, seed=0, loss="cross_entropy")
        store, _ = train(model, ds, config)
        metrics = evaluate(model, store.values(), ds, split="test")
        assert metrics["accuracy"] == 1.0

    def test_empty_split_rejected(self):
        model, ds, _ = regression_setup()
        from dataclasses import replace

        from rgtn.data import SplitIndices

        broken = replace(
            ds,
            splits=SplitIndices(
                train=ds.splits.train, val=ds.splits.val, test=np.array([], dtype=int)
            ),
        )
        values = init_params(model, 0)
        with pytest.raises(ValueError):
            evaluate(model, values, broken, split="test")
