import dataclasses

import numpy as np
import pytest

from kanmark import (KanModel, adam, build_detector_dataset, embed, fit,
                     gen_feynman, gen_signal, verify)
from kanmark import watermark
from kanmark.mlp import MlpModel
from kanmark.numeric import ROW_CHUNK, ShapeError, mse_core
from kanmark.spline import build_grid
from kanmark.transform import dct
from kanmark.watermark import (calibrate_amplitude, default_band, layer_outputs,
                               signal_step)

from oracles import detector_dataset_ref, detector_dataset_tensor_ref, perturb


def small_task(seed=0, n=96):
    ds = gen_feynman("I.12.11", n, seed=seed)
    return ds.inputs, ds.targets


class TestGenSignal:
    def test_same_key_same_signal(self):
        a = gen_signal(42, 16, (2, 5), 0.3)
        b = gen_signal(42, 16, (2, 5), 0.3)
        assert np.array_equal(a, b)

    def test_one_coefficient_band(self):
        sig = gen_signal(7, 8, (3, 3), 0.5)
        assert np.nonzero(sig)[0].tolist() == [3] and abs(sig[3]) == 0.5

    def test_band_support_and_magnitude(self):
        sig = gen_signal(7, 16, (2, 5), 0.25)
        nonzero = np.nonzero(sig)[0]
        assert nonzero.tolist() == [2, 3, 4, 5]
        assert np.all(np.abs(sig[2:6]) == 0.25)
        assert np.all(sig[:2] == 0.0) and np.all(sig[6:] == 0.0)

    def test_distinct_keys_differ(self):
        # wide band so a sign-pattern collision has probability ~2^-59
        rng = np.random.default_rng(0)
        for _ in range(100):
            k1, k2 = rng.integers(0, 2 ** 62, size=2)
            if k1 == k2:
                continue
            a = gen_signal(int(k1), 64, (2, 60), 0.3)
            b = gen_signal(int(k2), 64, (2, 60), 0.3)
            assert not np.array_equal(a, b)

    def test_invalid_band(self):
        with pytest.raises(ValueError):
            gen_signal(1, 8, (5, 3), 0.3)
        with pytest.raises(ValueError):
            gen_signal(1, 8, (0, 8), 0.3)
        with pytest.raises(ValueError):
            gen_signal(1, 8, (-1, 3), 0.3)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            gen_signal(1, 8, (1, 3), -0.5)

    @pytest.mark.parametrize("amplitude", [np.nan, np.inf])
    def test_non_finite_amplitude_rejected(self, amplitude):
        with pytest.raises(ValueError, match="amplitude"):
            gen_signal(1, 8, (1, 3), amplitude)

    def test_returns_read_only_float64_vector(self):
        sig = gen_signal(7, 16, (2, 5), 0.25)
        assert isinstance(sig, np.ndarray)
        assert sig.shape == (16,) and sig.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            sig[3] = 1.0

    def test_zero_amplitude_is_allowed_and_zero(self):
        sig = gen_signal(1, 8, (1, 3), 0.0)
        assert np.all(sig == 0.0)

    def test_default_band(self):
        assert default_band(32) == (8, 16)
        assert default_band(5) == (1, 2)


class TestCalibrateAmplitude:
    @pytest.mark.parametrize("band", [(1, 10), (3, 1), (-2, 1)],
                             ids=["past_width", "reversed", "negative"])
    def test_invalid_band(self, band):
        x, _ = small_task(seed=2)
        with pytest.raises(ValueError, match="band"):
            calibrate_amplitude(KanModel.create([2, 4, 1], seed=0), x, band)

    def test_matches_per_row_spectra(self):
        x, _ = small_task(seed=3)
        model = KanModel.create([2, 6, 1], seed=1)
        spectra = np.stack([dct(row) for row in layer_outputs(model, x)])
        ref = 0.3 * np.sqrt(np.mean(spectra[:, 1:4] ** 2))
        assert calibrate_amplitude(model, x, (1, 3)) == pytest.approx(ref, rel=1e-12)


class TestEmbed:
    @pytest.mark.parametrize("pruned, lr_wm", [(False, None), (True, 1.0)],
                             ids=["plain", "zeroed_edges_negative_zeros_lr_wm_1"])
    def test_zero_signal_matches_plain_training_bit_exact(self, pruned, lr_wm):
        x, y = small_task(seed=1)
        base = KanModel.create([2, 4, 1], seed=5)
        if pruned:
            # two zeroed edges in layer 0, one stored as -0.0: a run must
            # keep those sign bits
            layer = base.layers[0]
            layer.coeffs[0, 0], layer.w_b[0, 0], layer.w_s[0, 0] = -0.0, -0.0, -0.0
            layer.coeffs[2, 1], layer.w_b[2, 1], layer.w_s[2, 1] = 0.0, 0.0, 0.0
        sig = gen_signal(9, 4, (1, 2), 0.0)
        wm = embed(base, sig, x, y, "regression", epochs=3, lr_main=1e-3,
                   lr_wm=lr_wm, seed=77)

        plain = base.copy()
        fit(plain, x, y, "regression", 3, adam(1e-3), 64, seed=77)
        # tobytes, not array_equal: -0.0 == +0.0 would hide a flipped sign
        assert wm.params.tobytes() == plain.params.tobytes()
        if pruned:
            assert np.signbit(wm.layers[0].w_s[0, 0]) and wm.layers[0].w_s[0, 0] == 0.0

    def test_phase_two_touches_only_target_layer(self):
        x, y = small_task(seed=2)
        model = KanModel.create([2, 4, 1], seed=6)
        sig = gen_signal(9, 4, (1, 2), 0.2)
        deeper_before = model.layers[1].params.copy()
        first_before = model.layers[0].params.copy()
        signal_step(model, model.layers[0].prepare(x), sig, adam(1e-3))
        assert np.array_equal(model.layers[1].params, deeper_before)
        assert not np.array_equal(model.layers[0].params, first_before)

    @pytest.mark.parametrize("widths", [[64, 32, 10], [2, 4, 3, 1]])
    def test_closed_form_step_matches_moving_target_backprop(self, widths,
                                                             monkeypatch):
        # reference: backprop of mse(O, perturb(O, P)) on the first layer
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, size=(64, widths[0]))
        model = KanModel.create(widths, seed=7)
        layer = model.layers[0]
        band = default_band(layer.out_dim)
        alpha = calibrate_amplitude(model, x, band, 0.3)
        sig = gen_signal(11, layer.out_dim, band, alpha)
        out, cache = layer.forward(x)
        _, g_out = mse_core(out, perturb(out, sig))
        ref, _ = layer.backward(cache, g_out, need_input_grad=False)

        steps = []
        monkeypatch.setattr(watermark, "optimizer_step",
                            lambda params, grads, opt: steps.append((params, grads)))
        signal_step(model, model.layers[0].prepare(x), sig, adam(1e-3))
        [(params, grads)] = steps
        assert params is layer.params
        assert np.linalg.norm(grads - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("shape", [(5,), (4, 1), (1, 4)],
                             ids=["wrong_length", "column", "row"])
    def test_signal_must_be_a_layer_width_vector(self, shape):
        x, y = small_task(seed=4)
        model = KanModel.create([2, 4, 1], seed=8)
        bad = np.full(shape, 0.1)
        with pytest.raises(ShapeError, match="signal shape"):
            embed(model, bad, x, y, "regression", epochs=1)

    def test_embed_returns_new_model_and_checks_dims(self):
        x, y = small_task(seed=4)
        model = KanModel.create([2, 4, 1], seed=8)
        bad = gen_signal(3, 5, (1, 2), 0.1)
        with pytest.raises(ShapeError):
            embed(model, bad, x, y, "regression", epochs=1)
        good = gen_signal(3, 4, (1, 2), 0.1)
        wm = embed(model, good, x, y, "regression", epochs=1)
        assert wm is not model
        assert not np.array_equal(wm.params, model.params)

    def test_moving_target_signal_loss_is_perturbation_energy(self):
        # with the orthonormal pair, mse(O, perturb(O)) == ||P||^2 / N
        x, _ = small_task(seed=5)
        model = KanModel.create([2, 4, 1], seed=9)
        sig = gen_signal(13, 4, (1, 2), 0.3)
        outs = layer_outputs(model, x)
        loss, _ = mse_core(outs, perturb(outs, sig))
        expected = np.sum(sig ** 2) / sig.size
        assert loss == pytest.approx(expected, rel=1e-10)


class TestDetectorDataset:
    def models(self):
        return KanModel.create([2, 4, 1], seed=10), KanModel.create([2, 4, 1], seed=11)

    def build(self, n=20, n_shuffles=10, seed=0):
        x, y = small_task(seed=6, n=max(n, 20))
        return build_detector_dataset(*self.models(), x[:n],
                                      n_shuffles=n_shuffles, seed=seed)

    @pytest.mark.parametrize("n_shuffles", [0, 3, 10])
    def test_matches_row_loop_oracle(self, n_shuffles):
        x, _ = small_task(seed=6, n=20)
        wm, clean = self.models()
        rows, labels = build_detector_dataset(wm, clean, x[:12],
                                              n_shuffles=n_shuffles, seed=5)
        ref_rows, ref_labels = detector_dataset_ref(layer_outputs(wm, x[:12]),
                                                    layer_outputs(clean, x[:12]),
                                                    n_shuffles, seed=5)
        assert np.array_equal(rows, ref_rows)
        assert np.array_equal(labels, ref_labels)

    # one grid for both models or one each
    @pytest.mark.parametrize("n, width, n_shuffles, clean_grid", [
        (2 * ROW_CHUNK + 9, 32, 10, None), (ROW_CHUNK + 1, 300, 3, None),
        (5, 4, 0, None), (ROW_CHUNK + 3, 6, 2, (2, 7))])
    def test_matches_whole_tensor_construction(self, n, width, n_shuffles, clean_grid):
        x = np.random.default_rng(n).uniform(-1.1, 1.1, size=(n, 3))
        wm = KanModel.create([3, width, 1], seed=14)
        clean = KanModel.create([3, width, 1], seed=15,
                                grid=clean_grid and build_grid(*clean_grid))
        rows, labels = build_detector_dataset(wm, clean, x, n_shuffles=n_shuffles,
                                              seed=19)
        ref_rows, ref_labels = detector_dataset_tensor_ref(
            wm.layers[0].forward(x)[0], clean.layers[0].forward(x)[0], n_shuffles, 19)
        assert np.array_equal(rows, ref_rows)
        assert np.array_equal(labels, ref_labels)

    def test_row_count_and_balance(self):
        rows, labels = self.build(n=15)
        assert len(rows) == len(labels) == 2 * 15 * 11
        assert int(labels.sum()) * 2 == len(labels)

    def test_one_row_gives_one_block(self):
        rows, labels = self.build(n=1, n_shuffles=3)
        assert rows.shape == (2 + 2 * 3, 4)
        assert labels.tolist() == [1, 0, 1, 1, 1, 0, 0, 0]

    def test_shuffled_rows_are_permutations(self):
        rows, _ = self.build(n=8)
        # per-sample block: wm, clean, 10x wm', 10x clean'
        block = 2 + 2 * 10
        for d in range(8):
            base_wm = np.sort(rows[d * block])
            base_clean = np.sort(rows[d * block + 1])
            for s in range(10):
                assert np.array_equal(np.sort(rows[d * block + 2 + s]), base_wm)
                assert np.array_equal(np.sort(rows[d * block + 12 + s]), base_clean)

    def test_labels_follow_provenance(self):
        # per-sample block: wm, clean, 10x wm', 10x clean'
        _, labels = self.build(n=5)
        assert labels.tolist() == ([1, 0] + [1] * 10 + [0] * 10) * 5

    def test_seeded_rerun_is_identical(self):
        a = self.build(n=10, seed=42)
        b = self.build(n=10, seed=42)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_dim_mismatch(self):
        x, _ = small_task(seed=7)
        wm = KanModel.create([2, 4, 1], seed=12)
        clean = KanModel.create([2, 5, 1], seed=13)
        with pytest.raises(ShapeError):
            build_detector_dataset(wm, clean, x[:10])


class TestTrainDetector:
    """The detector stage's fit (:func:`kanmark.pipeline.build_detector`): an
    MLP of widths [row width, *hidden, 2] trained with cross-entropy."""

    def separable_dataset(self, n=60):
        rng = np.random.default_rng(3)
        wm_rows = rng.normal(size=(n, 6)) + 4.0
        clean_rows = rng.normal(size=(n, 6)) - 4.0
        inputs = np.vstack([wm_rows, clean_rows])
        labels = np.array([1] * n + [0] * n)
        return inputs, labels

    def test_separable_classes_reach_high_accuracy(self):
        inputs, labels = self.separable_dataset()
        det = MlpModel.create([6, 16, 8, 2], seed=1)
        fit(det, inputs, labels, "classification", 50, adam(1e-3), batch_size=128, seed=1)
        pred = np.argmax(det.predict(inputs), axis=1)
        assert np.mean(pred == labels) >= 0.99

    def test_lr_zero_returns_initialization(self):
        det = MlpModel.create([6, 8, 2], seed=9)
        fit(det, *self.separable_dataset(n=20), "classification", 5, adam(0.0),
            batch_size=128, seed=9)
        init = MlpModel.create([6, 8, 2], seed=9)
        assert np.array_equal(det.params, init.params)


class TestVerify:
    def test_always_positive_detector(self):
        x, _ = small_task(seed=8)
        model = KanModel.create([2, 4, 1], seed=14)
        stub = MlpModel([np.zeros((2, 4))], [np.array([0.0, 10.0])])
        result = verify(model, stub, x[:30], tau=0.5)
        assert result.detection_rate == 1.0
        assert result.decision is True

    def test_result_is_frozen(self):
        x, _ = small_task(seed=8)
        stub = MlpModel([np.zeros((2, 4))], [np.array([0.0, 10.0])])
        result = verify(KanModel.create([2, 4, 1], seed=14), stub, x[:3])
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.decision = False

    def test_tau_zero_always_claims(self):
        x, _ = small_task(seed=9)
        model = KanModel.create([2, 4, 1], seed=15)
        stub = MlpModel([np.zeros((2, 4))], [np.array([10.0, 0.0])])
        result = verify(model, stub, x[:30], tau=0.0)
        assert result.detection_rate == 0.0
        assert result.decision is True

    @pytest.mark.parametrize("positives, decision", [(3, False), (5, True)])
    def test_default_tau_is_one_half(self, positives, decision):
        # a SiLU edge and a detector that flags positive outputs: the rate is
        # the share of positive inputs
        model = KanModel.create([1, 1], seed=17)
        model.layers[0].w_b[:] = 1.0
        model.layers[0].w_s[:] = 0.0
        stub = MlpModel([np.array([[0.0], [1.0]])], [np.zeros(2)])
        x = np.linspace(-0.9, 0.9, 8)[:, None] + 0.2 * (positives - 4)
        result = verify(model, stub, x)
        assert (result.detection_rate, result.threshold) == (positives / 8, 0.5)
        assert result.decision is decision

    def test_no_rows_rejected_before_any_forward_pass(self, monkeypatch):
        model = KanModel.create([2, 4, 1], seed=16)
        stub = MlpModel([np.zeros((2, 4))], [np.zeros(2)])
        monkeypatch.setattr("kanmark.kan.KanLayer.forward",
                            lambda *a: pytest.fail("forwarded"))
        with pytest.raises(ValueError, match="at least one test row"):
            verify(model, stub, np.zeros((0, 2)))

    def test_dim_mismatch(self):
        x, _ = small_task(seed=10)
        model = KanModel.create([2, 4, 1], seed=16)
        stub = MlpModel([np.zeros((2, 7))], [np.zeros(2)])
        with pytest.raises(ShapeError):
            verify(model, stub, x[:10])


class TestPipelineDeterminism:
    def test_small_end_to_end_reproduces_rate(self):
        def run():
            x, y = small_task(seed=11, n=200)
            clean = KanModel.create([2, 4, 1], seed=20)
            fit(clean, x, y, "regression", 5, adam(1e-3), 32, seed=21)
            band = default_band(4)
            alpha = calibrate_amplitude(clean, x, band, 0.3)
            sig = gen_signal(33, 4, band, alpha)
            wm = embed(clean, sig, x, y, "regression", epochs=3,
                       lr_main=1e-3, seed=22)
            rows, labels = build_detector_dataset(wm, clean, x[:60], 5, seed=23)
            det = MlpModel.create([4, 16, 8, 2], seed=24)
            fit(det, rows, labels, "classification", 10, adam(1e-3), batch_size=128,
                seed=24)
            return verify(wm, det, x[100:160]).detection_rate

        assert run() == run()
