import numpy as np
import pytest

from kanmark import KanModel, MlpModel, ShapeError, adam, embed, evaluate, fit, gen_signal
from kanmark import kan, training, watermark
from kanmark.numeric import NonFiniteError, mse_core, real_targets
from kanmark.training import DIVERGENCE_FACTOR, DivergenceError, check_divergence

from oracles import assert_grads_close, central_diff, train_ref


def named_arrays(model) -> list[np.ndarray]:
    """A model's parameter arrays in the documented order of ``params``."""
    if isinstance(model, KanModel):
        return [a for layer in model.layers for a in (layer.coeffs, layer.w_b, layer.w_s)]
    return [a for w, b in zip(model.weights, model.biases) for a in (w, b)]


class TestFlatParameters:
    @pytest.mark.parametrize("model", [KanModel.create([3, 4, 2], seed=1),
                                       MlpModel.create([3, 5, 2], seed=2)],
                             ids=["kan", "mlp"])
    def test_params_store_every_array_and_backward_shares_the_layout(self, model):
        rng = np.random.default_rng(3)
        model.params[:] = np.arange(model.params.size)
        assert np.array_equal(
            np.concatenate([a.ravel() for a in named_arrays(model)]), model.params)

        clone = model.copy()
        assert np.array_equal(clone.params, model.params)
        assert not any(np.shares_memory(a, model.params)
                       for a in [clone.params, *named_arrays(clone)])
        assert all(np.shares_memory(a, clone.params) for a in named_arrays(clone))

        model.params[:] = rng.normal(scale=0.3, size=model.params.size)
        x = rng.uniform(-0.9, 0.9, size=(4, 3))
        target = real_targets(rng.normal(size=(4, 2)), 4, 2)
        out, cache = model.forward_with_cache(x)
        grads = model.backward(cache, mse_core(out, target)[1])
        assert grads.shape == model.params.shape
        numeric = central_diff(lambda: mse_core(model.predict(x), target)[0],
                               named_arrays(model))
        assert_grads_close([grads], [np.concatenate([g.ravel() for g in numeric])])


class TestEvaluate:
    def test_classification_metrics(self):
        class Stub:
            def predict(self, x):
                return np.array([[2.0, 0.0], [0.0, 2.0], [2.0, 0.0]])

        out = evaluate(Stub(), np.zeros((3, 1)), np.array([0, 1, 1]),
                       "classification")
        assert out["accuracy"] == pytest.approx(2 / 3)
        assert out["loss"] > 0.0

    def test_regression_metrics(self):
        class Stub:
            def predict(self, x):
                return np.array([[1.0], [3.0]])

        out = evaluate(Stub(), np.zeros((2, 1)), np.array([0.0, 3.0]), "regression")
        assert out["rmse"] == pytest.approx(np.sqrt(0.5))
        assert out["loss"] == pytest.approx(0.5)

    def test_unknown_task(self):
        # rejected before the model predicts
        class Stub:
            def predict(self, x):
                raise AssertionError("predicted")

        with pytest.raises(ValueError, match="unknown task 'ranking'"):
            evaluate(Stub(), np.zeros((2, 2)), np.zeros(2), "ranking")

    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_non_finite_output(self, task):
        class Stub:
            def predict(self, x):
                return np.array([[0.0, np.inf], [1.0, 0.0]])

        with pytest.raises(NonFiniteError, match="model output"):
            evaluate(Stub(), np.zeros((2, 1)), np.zeros((2, 2)) if task == "regression"
                     else np.array([0, 1]), task)

    def test_label_at_output_width(self):
        model = MlpModel.create([2, 3, 3], seed=0)
        with pytest.raises(ShapeError, match="label 3 needs more than the 3 outputs"):
            evaluate(model, np.zeros((2, 2)), np.array([0, 3]), "classification")

    def test_regression_targets_of_wrong_shape(self):
        model = KanModel.create([2, 2], seed=0)
        with pytest.raises(ShapeError, match=r"\(2, 3\) targets for 2 rows of 2 outputs"):
            evaluate(model, np.zeros((2, 2)), np.zeros((2, 3)), "regression")


class TestCheckDivergence:
    def test_zero_first_loss_disables_the_explosion_test(self):
        check_divergence(5.0, 0.0)

    def test_factor_times_first_loss_is_the_last_allowed(self):
        check_divergence(DIVERGENCE_FACTOR * 2.0, 2.0)
        with pytest.raises(DivergenceError):
            check_divergence(float(np.nextafter(DIVERGENCE_FACTOR * 2.0, np.inf)), 2.0)


class TestFit:
    def test_same_seed_bit_identical_models(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(80, 3))
        y = rng.normal(size=80)

        def run():
            model = KanModel.create([3, 4, 1], seed=9)
            fit(model, x, y, "regression", 4, adam(1e-3), 16, seed=10)
            return model

        a, b = run(), run()
        assert np.array_equal(a.params, b.params)

    def test_loss_history_length_and_descent(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, size=(120, 2))
        y = x[:, 0] * 2.0
        model = KanModel.create([2, 3, 1], seed=2)
        history = fit(model, x, y, "regression", 6, adam(1e-2), 32, seed=3)
        assert len(history) == 6
        assert history[-1] < history[0]

    def test_one_row_in_batches_of_one(self):
        model = KanModel.create([2, 1], seed=1)
        snap = model.params.copy()
        history = fit(model, np.array([[0.5, -0.5]]), np.array([0.25]), "regression", 2,
                      adam(1e-2), 1, seed=0)
        assert len(history) == 2
        assert not np.array_equal(model.params, snap)

    def test_whole_float_labels_are_class_labels(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, size=(20, 2))
        labels = rng.integers(0, 3, size=20)
        models = []
        for y in (labels, labels.astype(np.float64)):
            model = MlpModel.create([2, 4, 3], seed=7)
            fit(model, x, y, "classification", 2, adam(1e-2), 8, seed=8)
            models.append((model, evaluate(model, x, y, "classification")))
        (a, a_eval), (b, b_eval) = models
        assert np.array_equal(a.params, b.params) and a_eval == b_eval

    def test_empty_data_rejected(self):
        model = KanModel.create([2, 2], seed=1)
        with pytest.raises(ValueError):
            fit(model, np.zeros((0, 2)), np.zeros(0), "regression", 1, adam(1e-3))

    def test_negative_epochs_rejected(self):
        model = KanModel.create([2, 2], seed=1)
        with pytest.raises(ValueError, match="epochs"):
            fit(model, np.zeros((4, 2)), np.zeros(4), "regression", -3, adam(1e-3))

    def test_exploding_loss_raises(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, size=(64, 2))
        model = KanModel.create([2, 3, 1], seed=5)
        with pytest.raises(DivergenceError):
            fit(model, x, x[:, 0] * x[:, 1], "regression", 4, adam(1e6), 16, seed=6)

    def test_non_finite_loss_raises(self):
        model = KanModel.create([2, 1], seed=7)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError):
            fit(model, np.zeros((4, 2)), np.full(4, 1e200), "regression", 1, adam(1e-3))

    @pytest.mark.parametrize("model", [KanModel.create([2, 3, 1], seed=5),
                                       MlpModel.create([2, 3, 1], seed=5)],
                             ids=["kan", "mlp"])
    def test_non_finite_forward_raises(self, model):
        # a step this large overflows the next forward pass before any batch
        # loss can be compared with the first
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, size=(64, 2))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError):
            fit(model, x, x[:, 0] * x[:, 1], "regression", 3, adam(1e200), 16, seed=6)


class TestReferenceLoop:
    """fit and embed equal, byte for byte, a plain loop of the public pieces
    and the loss cores on checked targets (``oracles.train_ref``). Batches of
    24 leave a short last batch."""

    @pytest.mark.parametrize("kind", ["mlp_detector", "kan_regressor",
                                      "kan_regressor_over_budget"])
    def test_fit_matches_reference(self, kind, monkeypatch):
        # With a zero budget every batch is prepared on its own.
        rng = np.random.default_rng(11)
        if kind == "mlp_detector":
            model = MlpModel.create([6, 16, 8, 2], seed=12)
            x = rng.normal(size=(100, 6))
            y, task = rng.integers(0, 2, size=100), "classification"
        else:
            model = KanModel.create([3, 4, 1], seed=12)
            x = rng.uniform(-1, 1, size=(100, 3))
            y, task = np.sin(x[:, 0]) * x[:, 1], "regression"
            if kind == "kan_regressor_over_budget":
                monkeypatch.setattr(training, "PREPARED_BYTES_MAX", 0)
        reference = model.copy()
        opt = adam(3e-3)
        fit(model, x, y, task, 3, opt, 24, seed=13)
        state = train_ref(reference, x, y, task, 3, 3e-3, 24, seed=13)
        assert np.array_equal(model.params, reference.params)
        assert opt.step_count == state["t"] == 15
        assert np.array_equal(opt.m, state["m"]) and np.array_equal(opt.v, state["v"])

    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_embed_with_live_signal_matches_reference(self, task):
        rng = np.random.default_rng(14)
        x = rng.uniform(-1, 1, size=(100, 3))
        if task == "classification":
            clean, y = KanModel.create([3, 8, 3], seed=15), rng.integers(0, 3, size=100)
        else:
            clean, y = KanModel.create([3, 8, 1], seed=15), x[:, 0] * x[:, 2]
        signal = gen_signal(7, 8, (2, 4), 0.5)
        wm = embed(clean, signal, x, y, task, 2, lr_main=3e-3, lr_wm=1e-2,
                   batch_size=24, seed=16)
        reference = clean.copy()
        train_ref(reference, x, y, task, 2, 3e-3, 24, seed=16, signal=signal, lr_wm=1e-2)
        assert np.array_equal(wm.params, reference.params)
        assert not np.array_equal(wm.params, clean.params)


class TestLayerZeroPreparedOncePerRun:
    """Layer 0's basis rows depend on the inputs alone, so a run evaluates
    them once per training row, before the first step; the hidden layer's
    follow each batch, plus once for the forward check after the last step.
    Embed's signal steps add no evaluation. 100 rows in batches of 24 make 5
    batches per epoch. The budget is the prepared arrays' bytes: 100 rows of
    3 inputs, each a silu value and 8 basis values on the default grid."""

    EPOCHS, BATCHES, PREPARED_BYTES = 3, 5, 100 * 3 * (1 + 8) * 8

    def run(self, how, monkeypatch):
        shapes, self.points = [], []
        basis_and_slopes = kan.basis_and_slopes

        def counted(grid, x):
            shapes.append(np.shape(x))
            self.points.append(np.array(x))
            return basis_and_slopes(grid, x)

        monkeypatch.setattr(kan, "basis_and_slopes", counted)
        rng = np.random.default_rng(21)
        x = rng.uniform(-1, 1, size=(100, 3))
        y = x[:, 0] * x[:, 1]
        self.x = x
        model = KanModel.create([3, 4, 1], seed=22)
        if how == "fit":
            fit(model, x, y, "regression", self.EPOCHS, adam(1e-3), 24, seed=23)
        else:
            embed(model, gen_signal(7, 4, (1, 2), 0.5), x, y, "regression",
                  self.EPOCHS, batch_size=24, seed=23)
        return shapes

    @pytest.mark.parametrize("how", ["fit", "embed"])
    def test_layer_zero_basis_once_per_run(self, how, monkeypatch):
        monkeypatch.setattr(training, "PREPARED_BYTES_MAX", self.PREPARED_BYTES)
        shapes = self.run(how, monkeypatch)
        steps = self.EPOCHS * self.BATCHES
        layer_zero = [s[1] for s in shapes].count(3)
        # each training row once, in row order, whatever the chunking
        assert np.array_equal(np.concatenate(self.points[:layer_zero]), self.x)
        assert [s[1] for s in shapes[layer_zero:]] == [4] * (steps + 1)
        assert shapes[-1] == (100 % 24, 4)

    @pytest.mark.parametrize("how", ["fit", "embed"])
    def test_over_budget_prepares_layer_zero_per_batch(self, how, monkeypatch):
        monkeypatch.setattr(training, "PREPARED_BYTES_MAX", self.PREPARED_BYTES - 1)
        shapes = self.run(how, monkeypatch)
        steps = self.EPOCHS * self.BATCHES
        assert [s[1] for s in shapes] == [3, 4] * steps + [4]
        assert shapes[:2] == [(24, 3), (24, 4)]

    @pytest.mark.parametrize("budget,calls", [(None, 1), (0, 0)],
                             ids=["default_budget", "zero_budget"])
    def test_fit_prepares_all_rows_in_one_call_within_budget(self, budget, calls,
                                                             monkeypatch):
        # The run's 2.7 kB fit the default PREPARED_BYTES_MAX: one prepare_rows
        # call for every row; a zero budget prepares each batch with prepare.
        prepare_rows, shapes = kan.KanLayer.prepare_rows, []

        def counted(layer, x):
            shapes.append(np.shape(x))
            return prepare_rows(layer, x)

        monkeypatch.setattr(kan.KanLayer, "prepare_rows", counted)
        if budget is not None:
            monkeypatch.setattr(training, "PREPARED_BYTES_MAX", budget)
        self.run("fit", monkeypatch)
        assert shapes == [(100, 3)] * calls


class TestDataCheckedBeforeAnyStep:
    """Bad data raise ValueError before the first step, even where only the
    last batch of the first epoch holds it."""

    N, BATCH, SEED = 40, 16, 5

    def bad_data(self, case):
        rng = np.random.default_rng(17)
        x = rng.uniform(-1, 1, size=(self.N, 3))
        last = np.random.default_rng(self.SEED).permutation(self.N)[-1]
        if case == "nan_target_in_last_batch":
            y = x[:, 0] * x[:, 1]
            y[last] = np.nan
            return x, y, "regression", 1
        y = rng.integers(0, 3, size=self.N)
        if case == "label_out_of_range_in_last_batch":
            y[last] = 3
            return x, y, "classification", 3
        return x, y[:, None], "classification", 3  # 2-D labels

    CASES = ["label_out_of_range_in_last_batch", "labels_2d", "nan_target_in_last_batch"]

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("kind", ["kan", "mlp"])
    def test_fit_leaves_model_unchanged(self, case, kind):
        x, y, task, width = self.bad_data(case)
        model = (KanModel.create([3, 4, width], seed=18) if kind == "kan"
                 else MlpModel.create([3, 4, width], seed=18))
        before = model.params.copy()
        opt = adam(1e-2)
        with pytest.raises(ValueError):
            fit(model, x, y, task, 2, opt, self.BATCH, seed=self.SEED)
        assert np.array_equal(model.params, before)
        assert opt.step_count == 0

    @pytest.mark.parametrize("case", CASES)
    def test_embed_runs_no_step(self, case, monkeypatch):
        x, y, task, width = self.bad_data(case)
        model = KanModel.create([3, 4, width], seed=18)
        before = model.params.copy()
        signal_steps = []
        monkeypatch.setattr(watermark, "signal_step",
                            lambda *args: signal_steps.append(args))
        with pytest.raises(ValueError):
            embed(model, gen_signal(7, 4, (1, 2), 0.5), x, y, task, 2,
                  lr_main=1e-2, batch_size=self.BATCH, seed=self.SEED)
        assert signal_steps == []
        assert np.array_equal(model.params, before)
