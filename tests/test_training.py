import numpy as np
import pytest

from kanmark import KanModel, MlpModel, adam, evaluate, fit, mse_loss
from kanmark.training import DivergenceError

from oracles import assert_grads_close, central_diff


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
        target = rng.normal(size=(4, 2))
        out, cache = model.forward_with_cache(x)
        grads = model.backward(cache, mse_loss(out, target)[1])
        assert grads.shape == model.params.shape
        numeric = central_diff(lambda: mse_loss(model.predict(x), target)[0],
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
        model = KanModel.create([2, 2], seed=0)
        with pytest.raises(ValueError):
            evaluate(model, np.zeros((2, 2)), np.zeros(2), "ranking")


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
                                       MlpModel.create([2, 3, 1], head="scalar", seed=5)],
                             ids=["kan", "mlp"])
    def test_non_finite_forward_raises(self, model):
        # a step this large overflows the next forward pass before any batch
        # loss can be compared with the first
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, size=(64, 2))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError):
            fit(model, x, x[:, 0] * x[:, 1], "regression", 3, adam(1e200), 16, seed=6)
