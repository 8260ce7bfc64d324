"""Optimizer oracle, training determinism, convergence, and metrics tests."""

import tracemalloc
import weakref
from dataclasses import replace
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import adam_per_tensor
from rgtn import autodiff as ad
from rgtn.config import ConfigError, build_dataset, run_config_from_dict
from rgtn.data import synth_classification, synth_linear_dynamics, window
from rgtn.models import VARIANTS, HeadConfig, ModelConfig, forward, init_params, predict
from rgtn.training import (
    ParamStore,
    TrainConfig,
    TrainingDiverged,
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
    series = synth_linear_dynamics(2, 2, 200, 0.1, seed=seed)
    ds = window(series, 4, 1, (0.7, 0.15, 0.15))
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
        evaluate(model, values, ds)
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
        t, d, f = 120, 2, 2
        series = rng.standard_normal((t, d, f))
        ds = window(series, 3, 1, (0.7, 0.15, 0.15))
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
        # through the next forward, which writes one of its own; nor may a chunk's
        # tape stay alive through the next chunk's forward in the same step
        from rgtn import training

        model, ds, config = regression_setup(epochs=2)
        loss_name = f"{config.loss}_loss"
        loss_op = getattr(ad, loss_name)
        for windows in (config.batch_size, 5):
            refs, all_dead, forwards = [], [], []

            def forward_checked(*args):
                all_dead.append(all(ref() is None for ref in refs))
                return forward(*args)

            def loss_recorded(*args, **kwargs):
                node = loss_op(*args, **kwargs)
                refs.append(weakref.ref(node))
                return node

            def adam_counted(*args):
                forwards.append(len(all_dead))
                adam_step(*args)

            monkeypatch.setattr(training, "_chunk_windows", lambda model: windows)
            monkeypatch.setattr(training, "forward", forward_checked)
            monkeypatch.setattr(ad, loss_name, loss_recorded)
            monkeypatch.setattr(training, "adam_step", adam_counted)
            train(model, ds, config)
            assert len(all_dead) > 3 and all(all_dead)
            # a full batch of 16 windows runs as 1 chunk, or as 4 chunks of 5, 5, 5 and 1
            per_step = np.diff([0] + forwards)
            assert per_step.max() == -(-config.batch_size // windows)

    def test_peak_memory_is_bounded_by_the_chunk_not_the_batch(self):
        # one window's hidden block is 8 tau P H = 256 KiB, so a 1 MiB chunk holds 4
        # windows: a batch of 64 runs as 16 chunks and must peak about as a batch of 8
        model = ModelConfig(variant="grgtn", tau=64, d_phys=16, d_feat=1, hidden=32,
                            out_dim=16, head=HeadConfig(ranks=(2, 2), out_modes=(1, 4, 4)))
        assert 8 * prod(model.feature_block) == 1 << 18
        peaks = {}
        for batch in (8, 64):
            # a train split of one batch, and a validation split of half a batch
            series = synth_linear_dynamics(16, 1, 2 * batch + 64, 0.1, seed=0)
            ds = window(series, 64, 1, (0.5, 0.25, 0.25))
            assert len(ds.splits.train) == batch
            config = TrainConfig(epochs=1, batch_size=batch, seed=0)
            tracemalloc.start()
            try:
                train(model, ds, config)
                peaks[batch] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[64] < 1.5 * peaks[8], peaks

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

    def test_overflow_in_the_last_step_aborts_before_the_epoch_is_recorded(self):
        # one step whose update overflows the parameters: its own loss, taken before
        # the update, is finite, so only the validation loss shows the divergence
        model, ds, _ = regression_setup()
        config = TrainConfig(epochs=1, learning_rate=1e300, batch_size=len(ds.splits.train))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged,
                               match="^non-finite validation loss at epoch 1$") as excinfo:
                train(model, ds, config)
        assert excinfo.value.trace == []


@st.composite
def chunk_cases(draw):
    """A model of any variant, a loss, a one-batch train split for it, and the
    windows a chunk: the batch runs as 1, 2 or 3 chunks, the last partial if it can."""
    variant, loss = draw(st.sampled_from(VARIANTS)), draw(st.sampled_from(["mae", "mse",
                                                                           "cross_entropy"]))
    tau, p, f, h = (draw(st.integers(1, hi)) for hi in (5, 3, 3, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    if loss == "cross_entropy":
        ds = synth_classification(tau, p, f, 30, 0.5, seed, split=(0.3, 0.3, 0.4))
        out_modes = (1, 1, 2)
    else:
        # two train windows at least: z-scoring one leaves every cell without spread
        batch = draw(st.integers(2, 9))
        series = synth_linear_dynamics(p, f, 4 * batch + tau, 0.1, seed=seed)
        ds = window(series, tau, 1, (0.25, 0.25, 0.5))
        out_modes = (1, p, f)
    batch = len(ds.splits.train)
    chunks = draw(st.integers(1, min(3, batch)))
    # the fewest windows a chunk that give this many chunks: the last one is partial
    # unless the batch divides evenly
    windows = -(-batch // chunks)
    cfg = ModelConfig(
        variant=variant, tau=tau, d_phys=p, d_feat=f, hidden=h, out_dim=prod(out_modes),
        activation=draw(st.sampled_from(sorted(ad._ACTIVATIONS))),
        head=HeadConfig(ranks=(draw(st.integers(1, 3)), draw(st.integers(1, 3))),
                        out_modes=out_modes),
    )
    config = TrainConfig(epochs=1, learning_rate=1e-2, batch_size=batch, seed=seed, loss=loss)
    return cfg, ds, config, windows


def chunked_step(cfg, ds, config, windows):
    """The store and trace of one training step at ``windows`` windows a chunk."""
    from rgtn import training

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "_chunk_windows", lambda model: windows)
        return train(cfg, ds, config)


def unchunked_step(cfg, ds, config):
    """The gradient and trace loss of ``train``'s first step with the whole batch on one
    tape, the loss a mean over the prediction's own rows."""
    seeds = np.random.SeedSequence(config.seed).generate_state(2)
    values = init_params(cfg, int(seeds[0]))
    train_idx = ds.splits.train
    batch = train_idx[np.random.default_rng(int(seeds[1])).permutation(len(train_idx))]
    nodes = {name: ad.constant(v) for name, v in values.items()}
    loss = getattr(ad, f"{config.loss}_loss")(forward(cfg, nodes, ds.inputs[batch]),
                                              ds.targets[batch])
    ad.backward(loss)
    # the trace holds the mean of the steps' losses, each weighted by its batch
    trace_loss = float(loss.array) * len(batch) / len(batch)
    return np.concatenate([node.grad.ravel() for node in nodes.values()]), trace_loss


class TestChunkWalk:
    """``train`` runs each batch in chunks of whole windows: any chunk count gives the
    one-chunk step's gradient and train loss up to rounding, and one chunk the bits of
    the whole batch on one tape."""

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(case=chunk_cases())
    def test_any_chunk_count_is_one_chunk(self, case):
        cfg, ds, config, windows = case
        batch = config.batch_size
        store, trace = chunked_step(cfg, ds, config, windows)
        whole, whole_trace = chunked_step(cfg, ds, config, batch)
        assert np.abs(store.grads - whole.grads).max() <= 1e-12 * max(
            np.abs(whole.grads).max(), 1e-300)
        got, want = trace[0]["train_loss"], whole_trace[0]["train_loss"]
        assert abs(got - want) <= 1e-15 * abs(want)
        grads, loss = unchunked_step(cfg, ds, config)
        assert np.array_equal(whole.grads, grads)
        assert whole_trace[0]["train_loss"] == loss

    def test_a_wide_train_rnn_batch_runs_as_its_two_kernel_blocks(self, monkeypatch):
        # at wide-train's shape a recurrence block is 36 windows, and so is the rnn's
        # chunk: a batch of 64 runs as chunks of 36 and 28, each one kernel block
        from rgtn import training

        cfg = ModelConfig(variant="rnn", tau=64, d_phys=16, d_feat=8, hidden=32, out_dim=2,
                          activation="tanh",
                          head=HeadConfig(ranks=(4, 4), out_modes=(1, 1, 2)))
        ds = synth_classification(64, 16, 8, 128, 1.2, seed=5, split=(0.5, 0.25, 0.25))
        config = TrainConfig(epochs=1, learning_rate=1e-2, batch_size=64, seed=0,
                             loss="cross_entropy")
        assert len(ds.splits.train) == 64
        chunks = []

        def forward_recorded(model, nodes, x):
            chunks.append(len(x))
            return forward(model, nodes, x)

        monkeypatch.setattr(training, "forward", forward_recorded)
        store, trace = train(cfg, ds, config)
        assert chunks == [36, 28] and training._chunk_windows(cfg) == 36
        whole, whole_trace = chunked_step(cfg, ds, config, 64)
        assert np.abs(store.grads - whole.grads).max() <= 1e-12 * np.abs(whole.grads).max()
        got, want = trace[0]["train_loss"], whole_trace[0]["train_loss"]
        assert abs(got - want) <= 1e-15 * abs(want)


class TestSplitLoss:
    @pytest.mark.parametrize("loss", ["mae", "mse"])
    def test_is_the_loss_of_blocked_predict(self, loss, monkeypatch):
        # train's validation predict walks the windows 3 at a time, and the loss
        # it records is forward's to the bit
        from rgtn import training

        model, ds, _ = regression_setup()
        monkeypatch.setattr(ad, "_BLOCK_BYTES", 3 * 8 * prod(model.feature_block))
        fn, push = ad._ACTIVATIONS[model.activation]
        blocks, predicted = [], []

        def counted(z, out=None):
            if predicted:  # one epoch: validation's predict runs after every step
                blocks.append(len(z) // (model.tau * model.d_phys))
            return fn(z, out=out)

        def predict_recorded(model, values, x):
            predicted.append(x)
            return predict(model, values, x)

        monkeypatch.setitem(ad._ACTIVATIONS, model.activation, (counted, push))
        monkeypatch.setattr(training, "predict", predict_recorded)
        store, trace = train(model, ds, TrainConfig(epochs=1, seed=1, loss=loss))
        x, y = ds.subset(ds.splits.val)
        assert len(predicted) == 1 and np.array_equal(predicted[0], x)
        assert len(blocks) > 1 and set(blocks[:-1]) == {3} and sum(blocks) == len(x)
        got, values, loss_op = trace[0]["val_loss"], store.values(), getattr(ad, f"{loss}_loss")
        assert got == float(loss_op(ad.constant(predict(model, values, x)), y).array)
        assert got == float(loss_op(forward(model, values, x), y).array)


class TestSplitWalk:
    """Each epoch's validation pass and ``evaluate`` run one ``predict`` on their split,
    a slice of the windows that copies nothing, stratified or not: the peak is a kernel
    block's and the outputs', not the split's, and the loss and the metrics are those of
    that ``predict``, to the bit."""

    # a window's inputs take 8 KiB and its hidden block 1 KiB; the patch below makes
    # a training chunk 8 windows and a kernel block one, so a copy of a split's
    # windows would outweigh everything else a pass over it holds
    MODEL = ModelConfig(variant="grgtn", tau=8, d_phys=4, d_feat=32, hidden=4, out_dim=2,
                        head=HeadConfig(ranks=(2, 2), out_modes=(1, 1, 2)))
    CHUNK = 8

    def patch(self, monkeypatch, model, windows):
        from rgtn import training

        monkeypatch.setattr(ad, "_BLOCK_BYTES", 8 * prod(model.feature_block))
        monkeypatch.setattr(training, "_chunk_windows", lambda model: windows)

    def dataset(self, split):
        return synth_classification(8, 4, 32, 160, 0.5, seed=3, split=split)

    @staticmethod
    def traced(fn):
        tracemalloc.start()
        try:
            return fn(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_validation_peaks_as_one_chunk_and_records_the_whole_split_loss(self, monkeypatch):
        self.patch(monkeypatch, self.MODEL, self.CHUNK)
        config = TrainConfig(epochs=1, learning_rate=1e-2, batch_size=16, seed=0,
                             loss="cross_entropy")
        # the same labels and train split, with a validation split of one chunk and of ten
        one, many = self.dataset((0.2, 0.05, 0.1)), self.dataset((0.2, 0.5, 0.1))
        assert len(one.splits.val) <= self.CHUNK and len(many.splits.val) >= 4 * self.CHUNK
        peaks = []
        for ds in (one, many):
            (store, trace), peak = self.traced(lambda: train(self.MODEL, ds, config))
            peaks.append(peak)
            x, y = ds.subset(ds.splits.val)
            want = ad.cross_entropy_loss(ad.constant(predict(self.MODEL, store.values(), x)), y)
            assert trace[0]["val_loss"] == float(want.array)
        assert peaks[1] < 1.5 * peaks[0], peaks

    def test_evaluate_peaks_as_one_chunk_and_scores_the_whole_split(self, monkeypatch):
        self.patch(monkeypatch, self.MODEL, self.CHUNK)
        ds = self.dataset((0.2, 0.05, 0.75))
        values = init_params(self.MODEL, 4)
        metrics, peak = self.traced(lambda: evaluate(self.MODEL, values, ds))
        x, y = ds.subset(ds.splits.test)
        assert len(x) >= 10 * self.CHUNK
        # the split is read in place: no copy of even 4 of its windows is made
        assert peak < 4 * x[0].nbytes, (peak, x[0].nbytes, x.nbytes)
        assert metrics["accuracy"] == float((predict(self.MODEL, values, x).argmax(1) == y).mean())
        assert metrics["n_samples"] == len(x)

    def test_regression_mae_is_the_whole_split_mae(self, monkeypatch):
        # a time-ordered split walked 3 windows at a time, through its slices
        from rgtn.data import inverse_transform_predictions as raw

        model, ds, config = regression_setup(epochs=2)
        store, _ = train(model, ds, config)
        self.patch(monkeypatch, model, 3)
        x, y = ds.subset(ds.splits.test)
        assert len(x) > 4 * 3
        mae = float(np.abs(raw(ds, predict(model, store.values(), x)) - raw(ds, y)).mean())
        assert evaluate(model, store.values(), ds)["mae"] == mae

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_chunks_end_on_the_kernels_block_boundaries(self, variant, monkeypatch):
        # evaluate predicts the whole test split in one call, not in training's chunks
        # of 7 windows, so each window's prediction comes from the kernel block it has
        # in one predict on the split
        from rgtn import training

        model = replace(self.MODEL, variant=variant)
        self.patch(monkeypatch, model, 7)
        ds = self.dataset((0.2, 0.05, 0.75))
        values = init_params(model, 5)
        recorded = []

        def predict_recorded(model, values, x):
            recorded.append((x, predict(model, values, x)))
            return recorded[-1][1]

        monkeypatch.setattr(training, "predict", predict_recorded)
        metrics = evaluate(model, values, ds)
        x, y = ds.subset(ds.splits.test)
        assert len(x) > 7 and [len(got) for got, _ in recorded] == [len(x)]
        (got, preds), = recorded
        assert np.shares_memory(got, ds.inputs) and np.array_equal(got, x)
        assert np.array_equal(preds, predict(model, values, x))
        assert metrics["accuracy"] == float((preds.argmax(1) == y).mean())


class TestEvaluate:
    def test_constant_predictor_mae(self):
        model, ds, _ = regression_setup()
        values = {
            name: np.zeros_like(arr) for name, arr in init_params(model, 0).items()
        }
        metrics = evaluate(model, values, ds)
        inputs, targets = ds.subset(ds.splits.test)
        from rgtn.data import inverse_transform_predictions

        raw_targets = inverse_transform_predictions(ds, targets)
        mean_pred = inverse_transform_predictions(ds, np.zeros_like(targets))
        expect = float(np.abs(mean_pred - raw_targets).mean())
        np.testing.assert_allclose(metrics["mae"], expect, atol=1e-12)

    def test_mae_overflowing_in_the_data_units_raises(self):
        # finite z-scored predictions whose inverse transform overflows
        model, ds, _ = regression_setup()
        values = {name: np.zeros_like(arr) for name, arr in init_params(model, 0).items()}
        values["head.bias"][:] = 1e300
        huge = replace(ds, norm=replace(ds.norm, scale=ds.norm.scale * 1e300))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="test MAE is inf"):
                evaluate(model, values, huge)

    def test_metrics_match_recomputation(self):
        model, ds, config = regression_setup(epochs=2)
        store, _ = train(model, ds, config)
        metrics = evaluate(model, store.values(), ds)
        inputs, targets = ds.subset(ds.splits.test)
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
        metrics = evaluate(model, store.values(), ds)
        assert metrics["accuracy"] == 1.0

    def test_empty_split_rejected(self):
        # the split evaluate reads is never empty: build_dataset refuses an empty one;
        # halves leave no window to test of 200 windows, or of labels 32 and 48 of each class
        for data, loss, out_modes in (
            ({"kind": "synthetic_regression", "n_steps": 204}, "mae", [1, 2, 2]),
            ({"kind": "synthetic_classification", "n_samples": 80}, "cross_entropy", [1, 1, 2]),
        ):
            doc = {"model": {"variant": "srgtn", "tau": 4, "d_phys": 2, "d_feat": 2, "hidden": 3,
                             "out_dim": prod(out_modes), "head": {"out_modes": out_modes}},
                   "data": {**data, "split": [0.5, 0.5, 0.0]},
                   "training": {"epochs": 1, "loss": loss}}
            with pytest.raises(ConfigError, match=r"^data\.split: the test split is empty"):
                build_dataset(run_config_from_dict(doc))
