import numpy as np
import pytest

from kanmark.mlp import MlpModel, prune_mlp
from kanmark.numeric import ShapeError, adam, class_labels, cross_entropy_core
from kanmark.training import evaluate, fit, train_step

from oracles import assert_grads_close, central_diff, mlp_forward_ref


class TestForward:
    def test_identity_weights_pass_nonnegative_input(self):
        model = MlpModel([np.eye(3), np.eye(3)], [np.zeros(3), np.zeros(3)])
        x = np.array([[0.5, 0.0, 2.0]])
        assert np.array_equal(model.forward(x), x)

    def test_zero_weights_broadcast_bias(self):
        model = MlpModel([np.zeros((2, 3))], [np.array([1.5, -2.0])])
        out = model.forward(np.random.default_rng(0).normal(size=(4, 3)))
        assert np.allclose(out, [[1.5, -2.0]] * 4)

    def test_matches_loop_oracle(self):
        model = MlpModel.create([4, 6, 5, 3], seed=1)
        x = np.random.default_rng(1).normal(size=(5, 4))
        assert np.max(np.abs(model.forward(x) - mlp_forward_ref(model, x))) < 1e-12

    def test_shape_mismatch(self):
        model = MlpModel.create([4, 3], seed=2)
        with pytest.raises(ShapeError):
            model.forward(np.zeros((2, 5)))

    @pytest.mark.parametrize("widths", [[3], []])
    def test_create_without_a_layer_rejected(self, widths):
        with pytest.raises(ShapeError, match="non-empty"):
            MlpModel.create(widths)

    def test_bad_construction(self):
        with pytest.raises(ShapeError):
            MlpModel([np.zeros((2, 3)), np.zeros((4, 5))],
                     [np.zeros(2), np.zeros(4)])


class TestTrainStep:
    def test_lr_zero_keeps_model(self):
        model = MlpModel.create([3, 4, 2], seed=3)
        snap = model.params.copy()
        x = np.random.default_rng(2).normal(size=(6, 3))
        y = np.random.default_rng(3).integers(0, 2, size=6)
        loss = train_step(model, x, y, "classification", adam(0.0))
        assert loss > 0.0
        assert np.array_equal(model.params, snap)

    def test_separable_toy_converges(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = np.array([0, 1])
        model = MlpModel.create([2, 8, 2], seed=4)
        opt = adam(1e-2)
        for _ in range(200):
            train_step(model, x, y, "classification", opt)
        acc = evaluate(model, x, y, "classification")["accuracy"]
        assert acc == 1.0

    def test_gradcheck(self):
        model = MlpModel.create([3, 5, 4], seed=5)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 3))
        y = class_labels(rng.integers(0, 4, size=4), 4, 4)

        out, cache = model.forward_with_cache(x)
        _, g = cross_entropy_core(out, y)
        analytic = model.backward(cache, g)

        def loss():
            return cross_entropy_core(model.forward(x), y)[0]

        numeric = central_diff(loss, [model.params], h=1e-5)
        assert_grads_close([analytic], numeric, rel_tol=1e-4)

    def test_fit_runs_and_reports_losses(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 3))
        y = rng.integers(0, 2, size=40)
        model = MlpModel.create([3, 8, 2], seed=6)
        history = fit(model, x, y, "classification", 5, adam(1e-2), 16, seed=7)
        assert len(history) == 5
        assert history[-1] < history[0]


class TestPruneMlp:
    def test_ratio_zero_is_identity(self):
        model = MlpModel.create([3, 4, 2], seed=7)
        pruned = prune_mlp(model, 0.0)
        for a, b in zip(model.weights, pruned.weights):
            assert np.array_equal(a, b)

    def test_ratio_one_zeroes_weights_keeps_biases(self):
        model = MlpModel.create([3, 4, 2], seed=8)
        for b in model.biases:
            b += 0.5
        pruned = prune_mlp(model, 1.0)
        assert all(np.all(w == 0.0) for w in pruned.weights)
        for b_orig, b_new in zip(model.biases, pruned.biases):
            assert np.array_equal(b_orig, b_new)

    def test_toy_layer_smallest_two_zeroed(self):
        model = MlpModel([np.array([[0.1, -3.0], [0.05, 2.0]])],
                         [np.zeros(2)])
        pruned = prune_mlp(model, 0.5)
        assert np.array_equal(pruned.weights[0],
                              np.array([[0.0, -3.0], [0.0, 2.0]]))

    def test_count_and_survivors_bit_identical(self):
        model = MlpModel.create([5, 7, 3], seed=9)
        total = sum(w.size for w in model.weights)
        for ratio in (0.1, 0.33, 0.8):
            pruned = prune_mlp(model, ratio)
            zeroed = sum(int((w == 0.0).sum()) for w in pruned.weights)
            assert zeroed == int(np.floor(ratio * total + 1e-9))
            for w_orig, w_new in zip(model.weights, pruned.weights):
                survivors = w_new != 0.0
                assert np.array_equal(w_orig[survivors], w_new[survivors])

    def test_tie_break_by_traversal_order(self):
        model = MlpModel([np.array([[0.2, 0.2], [0.2, 0.1]])], [np.zeros(2)])
        pruned = prune_mlp(model, 0.5)
        # 0.1 is smallest; the 0.2 tie resolves to the earliest traversal slot
        assert np.array_equal(pruned.weights[0],
                              np.array([[0.0, 0.2], [0.2, 0.0]]))

    def test_invalid_ratio(self):
        model = MlpModel.create([2, 2], seed=10)
        with pytest.raises(ValueError):
            prune_mlp(model, -0.2)
        with pytest.raises(ValueError):
            prune_mlp(model, 1.2)
