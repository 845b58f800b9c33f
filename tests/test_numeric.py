import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kanmark import KanLayer, build_grid
from kanmark.numeric import (OptimizerState, ShapeError, adam, class_labels,
                             cross_entropy_core, mse_core, optimizer_step,
                             real_targets, sigmoid, silu_slope, softmax)

from oracles import adam_scalar_ref, central_diff, silu_ref


def silu(x):
    """SiLU as a KAN layer computes it: the "s" entry of KanLayer.prepare,
    on a layer with one input per value of x."""
    x = np.asarray(x, dtype=np.float64)
    rows = x.reshape(1, -1)
    layer = KanLayer.create(rows.shape[1], 1, build_grid(), np.random.default_rng(0))
    out = layer.prepare(rows)["s"].reshape(x.shape)
    return float(out) if out.ndim == 0 else out


def mse(pred, target):
    """:func:`mse_core` on :func:`real_targets`, as training calls it."""
    return mse_core(pred, real_targets(target, *pred.shape))


def cross_entropy(logits, labels):
    """:func:`cross_entropy_core` on :func:`class_labels`, as training calls it."""
    return cross_entropy_core(logits, class_labels(labels, *logits.shape))


class TestSilu:
    def test_zero(self):
        assert silu(0.0) == 0.0

    def test_saturation(self):
        assert silu(20.0) == pytest.approx(20.0, abs=1e-7)

    def test_unit(self):
        assert silu(1.0) == pytest.approx(0.7310586, abs=1e-7)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(0)
        for x in rng.uniform(-30, 30, size=50):
            assert silu(float(x)) == pytest.approx(silu_ref(float(x)), rel=1e-12)

    def test_array_form_and_extremes(self):
        x = np.array([[-1000.0, -1.0, 0.0, 1.0, 1000.0]])
        out = silu(x)
        assert out.shape == x.shape
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_sigmoid_matches_two_branch_formula_bit_for_bit(self):
        x = np.concatenate([np.linspace(-800.0, 800.0, 4001), [0.0, -0.0, 1e-300, -1e-300],
                            np.random.default_rng(1).normal(0.0, 40.0, size=500)])
        with np.errstate(over="ignore", invalid="ignore"):
            ref = np.where(x >= 0.0, 1.0 / (1.0 + np.exp(-x)),
                           np.exp(x) / (1.0 + np.exp(x)))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            out = sigmoid(x)
        assert out.tobytes() == ref.tobytes()

    def test_grad_matches_finite_difference(self):
        for x in (-3.0, -0.5, 0.0, 0.7, 4.0):
            h = 1e-6
            fd = (silu(x + h) - silu(x - h)) / (2 * h)
            assert silu_slope(x, sigmoid(x)) == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestSoftmax:
    @given(st.lists(st.floats(-500, 500), min_size=2, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_rows_sum_to_one(self, logits):
        p = softmax(np.array([logits]))
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p >= 0)


class TestMseLoss:
    def test_identity_case(self):
        a = np.arange(6, dtype=float).reshape(2, 3)
        loss, grad = mse(a, a.copy())
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_simple_value(self):
        loss, _ = mse(np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]]))
        assert loss == pytest.approx(0.5)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        pred = rng.normal(size=(3, 4))
        target = rng.normal(size=(3, 4))
        loss, grad = mse(pred, target)
        acc = 0.0
        for i in range(3):
            for j in range(4):
                acc += (pred[i, j] - target[i, j]) ** 2
        assert loss == pytest.approx(acc / 12, rel=1e-12)
        for i in range(3):
            for j in range(4):
                assert grad[i, j] == pytest.approx(
                    2 * (pred[i, j] - target[i, j]) / 12, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse_core(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_grad_matches_finite_difference(self):
        rng = np.random.default_rng(2)
        pred = rng.normal(size=(3, 4))
        target = rng.normal(size=(3, 4))
        _, grad = mse(pred, target)
        fd = central_diff(lambda: mse(pred, target)[0], [pred])[0]
        assert np.allclose(grad, fd, rtol=1e-6, atol=1e-9)


class TestCrossEntropy:
    def test_uniform_logits(self):
        for c in (1, 2, 5, 10):
            loss, _ = cross_entropy(np.zeros((3, c)), np.zeros(3, dtype=int))
            assert loss == pytest.approx(np.log(c), rel=1e-12)

    def test_saturated_softmax(self):
        logits = np.array([[1e3, 0.0, 0.0]])
        loss, _ = cross_entropy(logits, np.array([0]))
        assert loss == pytest.approx(0.0, abs=1e-10)
        # A label whose probability underflows costs -log(LOG_FLOOR), not inf.
        loss, _ = cross_entropy(logits, np.array([1]))
        assert loss == -np.log(1e-300)

    def test_known_value(self):
        loss, _ = cross_entropy(np.array([[1.0, 2.0, 3.0]]), np.array([2]))
        assert loss == pytest.approx(0.40761, abs=1e-5)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((2, 3)), np.array([-1, 0]))

    def test_label_at_width_is_shape_error(self):
        with pytest.raises(ShapeError, match="label 3 needs more than the 3 outputs"):
            cross_entropy(np.zeros((2, 3)), np.array([0, 3]))

    @pytest.mark.parametrize("labels", [[0.5, 1.0], [0.0, np.nan]])
    def test_fractional_labels_rejected(self, labels):
        with pytest.raises(ValueError, match="must be integers"):
            cross_entropy(np.zeros((2, 3)), np.array(labels))

    def test_grad_rows_sum_to_zero(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(5, 7))
        labels = rng.integers(0, 7, size=5)
        _, grad = cross_entropy(logits, labels)
        assert np.all(np.abs(grad.sum(axis=1)) < 1e-12)

    def test_grad_matches_finite_difference(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(3, 4))
        labels = rng.integers(0, 4, size=3)
        _, grad = cross_entropy(logits, labels)
        fd = central_diff(lambda: cross_entropy(logits, labels)[0], [logits])[0]
        rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-8)
        assert rel.max() < 1e-6


class TestOptimizer:
    def test_zero_grad_fresh_adam_is_identity(self):
        p = np.array([[2.0, -1.0]])
        state = adam(1e-2)
        optimizer_step(p, np.zeros_like(p), state)
        assert np.all(p == np.array([[2.0, -1.0]]))
        assert state.step_count == 1

    def test_adam_matches_scalar_oracle(self):
        # Every element of the flat update follows the scalar loop's
        # expression order, so the results are equal, not just close.
        rng = np.random.default_rng(6)
        p0 = rng.normal(size=5)
        grads = rng.normal(size=(4, 5))
        p = p0.copy()
        state = adam(0.05)
        for g in grads:
            optimizer_step(p, g, state)
        for i in range(p.size):
            assert p[i] == adam_scalar_ref(p0[i], grads[:, i], 0.05)

    def test_lr_zero_is_identity(self):
        rng = np.random.default_rng(5)
        p = rng.normal(size=(3, 2))
        snap = p.copy()
        state = OptimizerState(learning_rate=0.0)
        for _ in range(3):
            optimizer_step(p, rng.normal(size=(3, 2)), state)
        assert np.array_equal(p, snap)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            optimizer_step(np.zeros((2, 2)), np.zeros((2, 3)), adam(0.1))

    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError):
            OptimizerState(learning_rate=-1.0)

    @pytest.mark.parametrize("kwargs", [{"lr": np.nan}, {"lr": np.inf}],
        ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    def test_invalid_hyperparameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            adam(**kwargs)
