import numpy as np
import pytest

from kanmark import (KanModel, adam, build_detector_dataset, embed, fit,
                     gen_feynman, gen_signal, sgd, train_detector, verify)
from kanmark.mlp import MlpModel
from kanmark.numeric import ShapeError, mse_loss
from kanmark.transform import dct, perturb
from kanmark.watermark import (DetectorDataset, calibrate_amplitude,
                               default_band, layer_outputs, signal_step)

from oracles import detector_dataset_ref


def small_task(seed=0, n=96):
    ds = gen_feynman("I.12.11", n, seed=seed)
    return ds.inputs, ds.targets


class TestGenSignal:
    def test_same_key_same_signal(self):
        a = gen_signal(42, 16, (2, 5), 0.3)
        b = gen_signal(42, 16, (2, 5), 0.3)
        assert np.array_equal(a.values, b.values)

    def test_band_support_and_magnitude(self):
        sig = gen_signal(7, 16, (2, 5), 0.25)
        nonzero = np.nonzero(sig.values)[0]
        assert nonzero.tolist() == [2, 3, 4, 5]
        assert np.all(np.abs(sig.values[2:6]) == 0.25)
        assert np.all(sig.values[:2] == 0.0) and np.all(sig.values[6:] == 0.0)

    def test_distinct_keys_differ(self):
        # wide band so a sign-pattern collision has probability ~2^-59
        rng = np.random.default_rng(0)
        for _ in range(100):
            k1, k2 = rng.integers(0, 2 ** 62, size=2)
            if k1 == k2:
                continue
            a = gen_signal(int(k1), 64, (2, 60), 0.3)
            b = gen_signal(int(k2), 64, (2, 60), 0.3)
            assert not np.array_equal(a.values, b.values)

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

    def test_zero_amplitude_is_allowed_and_zero(self):
        sig = gen_signal(1, 8, (1, 3), 0.0)
        assert np.all(sig.values == 0.0)

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
    def test_zero_signal_matches_plain_training_bit_exact(self):
        x, y = small_task(seed=1)
        base = KanModel.create([2, 4, 1], seed=5)
        sig = gen_signal(9, 4, (1, 2), 0.0)
        wm = embed(base, sig, x, y, "regression", epochs=3, lr_main=1e-3, seed=77)

        plain = base.copy()
        fit(plain, x, y, "regression", 3, adam(1e-3), 64, seed=77)
        for a, b in zip(wm.parameters(), plain.parameters()):
            assert np.array_equal(a, b)

    def test_phase_two_touches_only_target_layer(self):
        x, y = small_task(seed=2)
        model = KanModel.create([2, 4, 1], seed=6)
        sig = gen_signal(9, 4, (1, 2), 0.2)
        deeper_before = [p.copy() for p in model.layers[1].parameters()]
        first_before = [p.copy() for p in model.layers[0].parameters()]
        signal_step(model, x, sig, adam(1e-3))
        for p, snap in zip(model.layers[1].parameters(), deeper_before):
            assert np.array_equal(p, snap)
        assert any(not np.array_equal(p, snap)
                   for p, snap in zip(model.layers[0].parameters(), first_before))

    @pytest.mark.parametrize("widths", [[64, 32, 10], [2, 4, 3, 1]])
    def test_closed_form_step_matches_moving_target_backprop(self, widths):
        # reference: backprop of mse(O, perturb(O, P)) on the first layer
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, size=(64, widths[0]))
        model = KanModel.create(widths, seed=7)
        layer = model.layers[0]
        band = default_band(layer.out_dim)
        alpha = calibrate_amplitude(model, x, band, 0.3)
        sig = gen_signal(11, layer.out_dim, band, alpha)
        out, cache = layer.forward(x)
        ref_loss, g_out = mse_loss(out, perturb(out, sig.values))
        ref, _ = layer.backward(cache, g_out, need_input_grad=False)

        before = [p.copy() for p in layer.parameters()]
        loss = signal_step(model, x, sig, sgd(1.0))
        assert loss == pytest.approx(ref_loss, rel=1e-10)
        for b, p, r in zip(before, layer.parameters(), ref):
            assert np.linalg.norm((b - p) - r) <= 1e-10 * np.linalg.norm(r)

    def test_embed_returns_new_model_and_checks_dims(self):
        x, y = small_task(seed=4)
        model = KanModel.create([2, 4, 1], seed=8)
        bad = gen_signal(3, 5, (1, 2), 0.1)
        with pytest.raises(ShapeError):
            embed(model, bad, x, y, "regression", epochs=1)
        good = gen_signal(3, 4, (1, 2), 0.1)
        wm = embed(model, good, x, y, "regression", epochs=1)
        assert wm is not model
        assert any(not np.array_equal(a, b) for a, b in
                   zip(wm.parameters(), model.parameters()))

    def test_moving_target_signal_loss_is_perturbation_energy(self):
        # with the orthonormal pair, mse(O, perturb(O)) == ||P||^2 / N
        x, _ = small_task(seed=5)
        model = KanModel.create([2, 4, 1], seed=9)
        sig = gen_signal(13, 4, (1, 2), 0.3)
        outs = layer_outputs(model, x)
        loss, _ = mse_loss(outs, perturb(outs, sig.values))
        expected = np.sum(sig.values ** 2) / sig.length
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
        ds = build_detector_dataset(wm, clean, x[:12], n_shuffles=n_shuffles,
                                    seed=5)
        rows, labels = detector_dataset_ref(layer_outputs(wm, x[:12]),
                                            layer_outputs(clean, x[:12]),
                                            n_shuffles, seed=5)
        assert np.array_equal(ds.inputs, rows)
        assert np.array_equal(ds.labels, labels)

    def test_row_count_and_balance(self):
        ds = self.build(n=15)
        assert len(ds) == 2 * 15 * 11
        assert int(ds.labels.sum()) * 2 == len(ds)
        ds.validate()

    def test_shuffled_rows_are_permutations(self):
        ds = self.build(n=8)
        # per-sample block: wm, clean, 10x wm', 10x clean'
        block = 2 + 2 * 10
        for d in range(8):
            base_wm = np.sort(ds.inputs[d * block])
            base_clean = np.sort(ds.inputs[d * block + 1])
            for s in range(10):
                assert np.array_equal(np.sort(ds.inputs[d * block + 2 + s]), base_wm)
                assert np.array_equal(
                    np.sort(ds.inputs[d * block + 12 + s]), base_clean)

    def test_labels_follow_provenance(self):
        ds = self.build(n=5)
        for label, tag in zip(ds.labels, ds.provenance):
            name = DetectorDataset.TAGS[tag]
            assert label == (1 if name in ("wm", "wm_shuffled") else 0)
        ds.labels[0] = 1 - ds.labels[0]
        with pytest.raises(ValueError):
            ds.validate()

    def test_seeded_rerun_is_identical(self):
        a = self.build(n=10, seed=42)
        b = self.build(n=10, seed=42)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_dim_mismatch(self):
        x, _ = small_task(seed=7)
        wm = KanModel.create([2, 4, 1], seed=12)
        clean = KanModel.create([2, 5, 1], seed=13)
        with pytest.raises(ShapeError):
            build_detector_dataset(wm, clean, x[:10])


class TestTrainDetector:
    def separable_dataset(self, n=60):
        rng = np.random.default_rng(3)
        wm_rows = rng.normal(size=(n, 6)) + 4.0
        clean_rows = rng.normal(size=(n, 6)) - 4.0
        inputs = np.vstack([wm_rows, clean_rows])
        labels = np.array([1] * n + [0] * n)
        prov = np.array([0] * n + [1] * n)
        return DetectorDataset(inputs, labels, prov)

    def test_separable_classes_reach_high_accuracy(self):
        ds = self.separable_dataset()
        det = train_detector(ds, hidden=(16, 8), epochs=50, lr=1e-3, seed=1)
        pred = np.argmax(det.predict(ds.inputs), axis=1)
        assert np.mean(pred == ds.labels) >= 0.99

    def test_lr_zero_returns_initialization(self):
        ds = self.separable_dataset(n=20)
        det = train_detector(ds, hidden=(8,), epochs=5, lr=0.0, seed=9)
        init = MlpModel.create([6, 8, 2], head="logits", seed=9)
        for a, b in zip(det.parameters(), init.parameters()):
            assert np.array_equal(a, b)

    def test_single_class_rejected(self):
        rng = np.random.default_rng(4)
        ds = DetectorDataset(rng.normal(size=(10, 4)),
                             np.ones(10, dtype=np.int64), np.zeros(10, dtype=np.int8))
        with pytest.raises(ValueError):
            train_detector(ds)


class TestVerify:
    def test_always_positive_detector(self):
        x, _ = small_task(seed=8)
        model = KanModel.create([2, 4, 1], seed=14)
        stub = MlpModel([np.zeros((2, 4))], [np.array([0.0, 10.0])])
        result = verify(model, stub, x[:30], tau=0.5)
        assert result.detection_rate == 1.0
        assert result.decision is True

    def test_tau_zero_always_claims(self):
        x, _ = small_task(seed=9)
        model = KanModel.create([2, 4, 1], seed=15)
        stub = MlpModel([np.zeros((2, 4))], [np.array([10.0, 0.0])])
        result = verify(model, stub, x[:30], tau=0.0)
        assert result.detection_rate == 0.0
        assert result.decision is True

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
            data = build_detector_dataset(wm, clean, x[:60], 5, seed=23)
            det = train_detector(data, (16, 8), epochs=10, lr=1e-3, seed=24)
            return verify(wm, det, x[100:160]).detection_rate

        assert run() == run()
