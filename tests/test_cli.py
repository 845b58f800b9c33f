import base64
import json
from pathlib import Path

import numpy as np
import pytest

from kanmark import Dataset, KanLayer, KanModel, MlpModel, build_grid, write_idx
from kanmark.cli import (SCHEMA, CheckpointError, ConfigError, SeedBundle,
                         _fits, canonical_json, config_hash, derive_seed,
                         load_checkpoint, load_config, main, resolve_dataset,
                         save_checkpoint)


# A classification run on the 30-image IDX pair that
# test_user_error_exits_2_and_writes_nothing writes for prune-sweep.
CLASSIFY = {"task": "classification", "model": {"hidden": 4},
            "dataset": {"kind": "idx", "images": "images.idx", "labels": "labels.idx"}}


def write_config(path, **overrides):
    cfg = {
        "task": "regression",
        "dataset": {"kind": "feynman", "formula": "I.12.11", "n": 400,
                    "fractions": [0.8, 0.1, 0.1]},
        "model": {"widths": [2, 4, 1]},
        "train": {"epochs": 3, "lr": 0.001, "batch_size": 32},
        "watermark": {"epochs": 2},
        "detector": {"hidden": [8], "epochs": 2, "n_shuffles": 2,
                     "n_samples": 50, "batch_size": 32},
        "seed": 5,
    }
    cfg.update(overrides)
    Path(path).write_text(json.dumps(cfg))
    return str(path)


class TestSeeds:
    def test_fanout_is_deterministic_and_distinct(self):
        a, b = SeedBundle(7), SeedBundle(7)
        assert (a.init, a.data, a.signal, a.detector, a.attack) == \
               (b.init, b.data, b.signal, b.detector, b.attack)
        assert len({a.init, a.data, a.signal, a.detector, a.attack}) == 5

    def test_derive_changes_with_label_and_master(self):
        assert derive_seed(1, "x") != derive_seed(1, "y")
        assert derive_seed(1, "x") != derive_seed(2, "x")


class TestConfig:
    def test_defaults_are_merged(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.json"))
        assert cfg["grid"]["degree"] == 3
        assert cfg["tau"] == 0.5
        assert cfg["detector"]["lr"] == 1e-3

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        write_config(path, extra_section={"a": 1})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "missing.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_validation_errors(self, tmp_path):
        path = tmp_path / "c.json"
        write_config(path, task="segmentation")
        with pytest.raises(ConfigError):
            load_config(path)
        write_config(path, dataset={"kind": "idx"})
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("overrides, key", [
        ({"watermark": {"key": -1}}, "watermark.key"),
        ({"watermark": {"key": "k"}}, "watermark.key"),
        ({"detector": {"hidden": [8, 0]}}, "detector.hidden"),
        ({"train": {"stages": [[2, "0.1"]]}}, "train.stages"),
        ({"model": 5}, "model"),
    ])
    def test_type_error_names_the_key(self, tmp_path, overrides, key):
        with pytest.raises(ConfigError, match=rf"^{key} must be "):
            load_config(write_config(tmp_path / "c.json", **overrides))

    def test_every_default_fits_its_own_kind(self):
        def leaves(schema, path=""):
            for key, spec in schema.items():
                if isinstance(spec, dict):
                    yield from leaves(spec, f"{path}{key}.")
                else:
                    yield f"{path}{key}", spec

        for name, spec in leaves(SCHEMA):
            default, kind, least = (*spec, None)[:3]
            assert default is None or _fits(default, kind, least), name

    def test_readme_quickstart_config_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```json\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "config.json"
        path.write_text(block)
        cfg = load_config(path)
        assert cfg["dataset"]["formula"] == "I.12.11"
        assert cfg["model"]["widths"] == [2, 5, 1]

    def test_hash_is_stable_and_seed_sensitive(self, tmp_path):
        path = write_config(tmp_path / "c.json")
        a = config_hash(load_config(path))
        b = config_hash(load_config(path))
        c = config_hash(load_config(path, seed_override=99))
        assert a == b
        assert a != c


class TestCheckpointRoundTrip:
    def test_kan_byte_identical_resave(self, tmp_path):
        model = KanModel.create([3, 4, 2], seed=1)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(p1, model, "clean", "hash", 7)
        loaded, meta = load_checkpoint(p1)
        assert meta["stage"] == "clean"
        save_checkpoint(p2, loaded, meta["stage"], meta["config_hash"],
                        meta["seed"])
        assert p1.read_bytes() == p2.read_bytes()
        x = np.random.default_rng(0).uniform(-1, 1, size=(5, 3))
        assert np.array_equal(model.forward(x)[0], loaded.forward(x)[0])

    def test_mlp_byte_identical_resave(self, tmp_path):
        model = MlpModel.create([4, 8, 2], seed=2)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(p1, model, "detector", "hash", 7)
        loaded, meta = load_checkpoint(p1)
        save_checkpoint(p2, loaded, meta["stage"], meta["config_hash"],
                        meta["seed"])
        assert p1.read_bytes() == p2.read_bytes()

    def test_prune_mask_survives(self, tmp_path):
        model = KanModel.create([3, 4, 2], seed=3)
        model.layers[0].prune_mask[1, 2] = 0.0
        path = tmp_path / "m.json"
        save_checkpoint(path, model, "attacked", "hash", 1)
        loaded, _ = load_checkpoint(path)
        assert loaded.layers[0].prune_mask[1, 2] == 0.0

    def test_grid_per_layer_survives(self, tmp_path):
        model = KanModel.create([2, 3, 2], seed=5)
        hidden = model.layers[1]
        model = KanModel([model.layers[0],
                          KanLayer(build_grid(3, 5, -4.0, 4.0), hidden.coeffs,
                                   hidden.w_b, hidden.w_s)])
        path = tmp_path / "m.json"
        save_checkpoint(path, model, "clean", "hash", 1)
        loaded, _ = load_checkpoint(path)
        assert [(layer.grid.t_min, layer.grid.t_max) for layer in loaded.layers] \
            == [(-1.0, 1.0), (-4.0, 4.0)]
        x = np.random.default_rng(6).uniform(-1, 1, size=(8, 2))
        assert np.array_equal(model.predict(x), loaded.predict(x))

    def test_non_finite_parameters_refused(self, tmp_path):
        model = MlpModel.create([4, 8, 2], seed=2)
        model.params[3] = np.nan
        path = tmp_path / "m.json"
        with pytest.raises(ValueError, match="non-finite"):
            save_checkpoint(path, model, "detector", "hash", 7)
        assert not path.exists()

    @pytest.mark.parametrize("model", [KanModel.create([3, 4, 2], seed=8),
                                       MlpModel.create([4, 8, 2], seed=9)],
                             ids=["kan", "mlp"])
    def test_version_1_file_loads_and_resaves_as_version_2(self, tmp_path, model):
        # version 1 held every array as nested decimal lists and one grid
        payload = {"format_version": 1, "stage": "clean", "config_hash": "hash",
                   "seed": 1, "widths": model.widths, "extra": {"key": 3}}
        if isinstance(model, KanModel):
            model.layers[1].prune_mask[0, 2] = 0.0
            grid = model.layers[0].grid
            payload.update(kind="kan", grid={"degree": grid.degree,
                                             "intervals": grid.intervals,
                                             "t_min": grid.t_min, "t_max": grid.t_max},
                           layers=[{"coeffs": layer.coeffs.tolist(),
                                    "w_b": layer.w_b.tolist(), "w_s": layer.w_s.tolist(),
                                    "prune_mask": layer.prune_mask.astype(int).tolist()}
                                   for layer in model.layers])
        else:
            payload.update(kind="mlp", head=model.head,
                           layers=[{"weight": w.tolist(), "bias": b.tolist()}
                                   for w, b in zip(model.weights, model.biases)])
        v1, v2, direct = tmp_path / "v1.json", tmp_path / "v2.json", tmp_path / "d.json"
        v1.write_text(canonical_json(payload))
        loaded, meta = load_checkpoint(v1)
        assert np.array_equal(loaded.params, model.params)
        if isinstance(model, KanModel):
            assert all(np.array_equal(a.prune_mask, b.prune_mask)
                       for a, b in zip(loaded.layers, model.layers))
        save_checkpoint(v2, loaded, meta["stage"], meta["config_hash"], meta["seed"],
                        extra=meta["extra"])
        save_checkpoint(direct, model, "clean", "hash", 1, extra={"key": 3})
        assert json.loads(v2.read_text())["format_version"] == 2
        assert v2.read_bytes() == direct.read_bytes()

    def test_version_mismatch_rejected(self, tmp_path):
        model = KanModel.create([2, 2], seed=4)
        path = tmp_path / "m.json"
        save_checkpoint(path, model, "clean", "hash", 1)
        payload = json.loads(path.read_text())
        payload["format_version"] = 999
        path.write_text(canonical_json(payload))
        assert main(["verify", "--config", write_config(tmp_path / "c.json"),
                     "--detector-ckpt", str(path), "--suspect-ckpt", str(path),
                     "--out", str(tmp_path)]) == 4

    @pytest.mark.parametrize("defect", ["no_grid", "list_root", "mask_entry_2",
                                        "params_8_bytes_short", "params_not_base64",
                                        "nan_in_params", "widths_disagree_with_params"])
    def test_malformed_checkpoint_exit_code(self, tmp_path, defect):
        path = tmp_path / "m.json"
        save_checkpoint(path, KanModel.create([2, 2], seed=4), "clean", "hash", 1)
        payload = json.loads(path.read_text())
        blob = base64.b64decode(payload["params"])
        if defect == "no_grid":
            del payload["layers"][0]["grid"]
        elif defect == "mask_entry_2":
            payload["layers"][0]["prune_mask"][0][0] = 2
        elif defect == "params_8_bytes_short":
            payload["params"] = base64.b64encode(blob[:-8]).decode()
        elif defect == "params_not_base64":
            payload["params"] = "not base64!"
        elif defect == "nan_in_params":
            params = np.frombuffer(blob, dtype="<f8").copy()
            params[1] = np.nan
            payload["params"] = base64.b64encode(params.tobytes()).decode()
        elif defect == "widths_disagree_with_params":
            payload["widths"] = [2, 3]
        else:
            payload = [payload]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        assert main(["verify", "--config", write_config(tmp_path / "c.json"),
                     "--detector-ckpt", str(path), "--suspect-ckpt", str(path),
                     "--out", str(tmp_path)]) == 4


class TestCommands:
    def test_full_pipeline_exit_codes(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = str(tmp_path / "runs")
        assert main(["train-clean", "--config", cfg, "--out", out]) == 0
        clean = Path(out) / "clean-kan.json"
        assert clean.exists()

        assert main(["embed", "--config", cfg, "--clean-ckpt", str(clean),
                     "--out", out]) == 0
        wm = Path(out) / "watermarked-kan.json"
        det = Path(out) / "detector-mlp.json"
        assert wm.exists() and det.exists()

        for kind in ("finetune", "prune", "retrain"):
            assert main(["attack", "--config", cfg, "--wm-ckpt", str(wm),
                         "--kind", kind, "--epochs", "1", "--out", out]) == 0
        assert (Path(out) / "attacked-finetune.json").exists()
        assert (Path(out) / "attacked-prune.json").exists()
        assert (Path(out) / "attacked-retrain_after_prune.json").exists()

        assert main(["verify", "--config", cfg, "--detector-ckpt", str(det),
                     "--suspect-ckpt", str(wm), "--out", out]) == 0

        report = Path(out) / "report.jsonl"
        rows = [json.loads(line) for line in report.read_text().splitlines()]
        stages = [row["stage"] for row in rows]
        assert stages[:2] == ["clean", "watermarked"]
        assert "verify" in stages
        # every row carries the provenance hash of the one config used
        from kanmark.cli import config_hash, load_config
        expected_hash = config_hash(load_config(cfg))
        assert all(row["config_hash"] == expected_hash for row in rows)
        # attack rows record their hyperparameters
        finetune_row = next(r for r in rows if r["stage"] == "attacked:finetune")
        assert finetune_row["lr"] == 0.001 and finetune_row["epochs"] == 1
        retrain_row = next(r for r in rows
                           if r["stage"] == "attacked:retrain_after_prune")
        assert retrain_row["ratio"] == 0.6
        assert main(["report", "--out", out]) == 0

    def test_rerun_is_bit_identical(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["train-clean", "--config", cfg, "--out", out_a]) == 0
        assert main(["train-clean", "--config", cfg, "--out", out_b]) == 0
        a = (Path(out_a) / "clean-kan.json").read_bytes()
        b = (Path(out_b) / "clean-kan.json").read_bytes()
        assert a == b

    def test_seed_override_changes_model(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["train-clean", "--config", cfg, "--out", out_a]) == 0
        assert main(["train-clean", "--config", cfg, "--seed", "99",
                     "--out", out_b]) == 0
        a = (Path(out_a) / "clean-kan.json").read_bytes()
        b = (Path(out_b) / "clean-kan.json").read_bytes()
        assert a != b

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert main(["train-clean", "--config", str(path),
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("kind", ["prune", "retrain"])
    def test_out_of_range_prune_ratio_exit_code(self, tmp_path, kind):
        wm = tmp_path / "wm.json"
        save_checkpoint(wm, KanModel.create([2, 4, 1], seed=0), "watermarked",
                        "hash", 0)
        assert main(["attack", "--config", write_config(tmp_path / "c.json"),
                     "--wm-ckpt", str(wm), "--kind", kind, "--ratio", "1.5",
                     "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "report.jsonl").exists()

    def test_diverging_finetune_exit_code(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "runs"
        assert main(["train-clean", "--config", cfg, "--out", str(out)]) == 0
        assert main(["attack", "--config", cfg, "--wm-ckpt", str(out / "clean-kan.json"),
                     "--kind", "finetune", "--lr", "1e6", "--epochs", "2",
                     "--out", str(out)]) == 2
        assert not (out / "attacked-finetune.json").exists()

    def test_non_finite_finetune_exit_code(self, tmp_path):
        model = tmp_path / "model.json"
        save_checkpoint(model, KanModel.create([2, 4, 1], seed=0), "watermarked",
                        "hash", 0)
        out = tmp_path / "runs"
        # the forward pass overflows before any batch loss explodes
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["attack", "--config", write_config(tmp_path / "c.json"),
                         "--wm-ckpt", str(model), "--kind", "finetune",
                         "--lr", "1e200", "--epochs", "3", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("watermark", [{"alpha": -0.5}, {"band": [3, 1]},
                                           {"epochs": 0}, {"band": [1, 4]},
                                           {"alpha": 0.1, "band": [1, 4]}],
                             ids=["negative_alpha", "reversed_band", "zero_epochs",
                                  "band_wider_than_layer",
                                  "band_wider_than_layer_fixed_alpha"])
    def test_invalid_watermark_config_exit_code(self, tmp_path, watermark):
        clean = tmp_path / "clean.json"
        save_checkpoint(clean, KanModel.create([2, 4, 1], seed=0), "clean", "hash", 0)
        cfg = write_config(tmp_path / "c.json", watermark=watermark)
        assert main(["embed", "--config", cfg, "--clean-ckpt", str(clean),
                     "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "watermarked-kan.json").exists()

    @pytest.mark.parametrize("command, overrides, flags", [
        ("train-clean", {"grid": {"intervals": 0}}, []),
        ("train-clean", {"grid": {"degree": -1}}, []),
        ("train-clean", {"grid": {"t_min": 1.0, "t_max": 1.0}}, []),
        ("train-clean", {"train": {"epochs": 1, "lr": -1e-3}}, []),
        ("train-clean", {"train": {"epochs": 1, "stages": [[1, -1e-3]]}}, []),
        ("embed", {"watermark": {"epochs": 1, "lr_main": -1e-3}}, []),
        ("embed", {"watermark": {"epochs": 1, "lr_wm": -1e-3}}, []),
        ("embed", {"detector": {"epochs": 1, "lr": -1e-3, "n_samples": 20}}, []),
        ("train-clean", {"model": {"widths": [2]}}, []),
        ("embed", {"detector": {"epochs": 1, "n_shuffles": -1, "n_samples": 20}}, []),
        ("embed", {"detector": {"epochs": 1, "n_samples": 0}}, []),
        ("attack", {}, ["--epochs", "-1"]),
        ("attack", {"attack": {"epochs": -2}}, []),
        ("train-clean", {"train": {"epochs": 1, "stages": [[-3, 1e-3]]}}, []),
        ("embed", {"watermark": {"epochs": 1, "layer_index": 0}}, []),
        ("verify", {}, ["--tau", "1.5"]),
        ("train-clean", {"dataset": {"kind": "feynman", "formula": "I.12.11",
                                     "n": 400, "fractions": [0.5, 0.5]}}, []),
        ("train-clean", {"dataset": {"kind": "feynman", "formula": "I.12.11",
                                     "n": 400, "fractions": [1.0, 0.0, 0.0]}}, []),
        ("train-clean", {"dataset": {"kind": "feynman", "formula": "I.12.11",
                                     "n": 400, "fractions": [0.995, 0.002, 0.003]}}, []),
        ("train-clean", {"tau": "0.5"}, []),
        ("train-clean", {"tau": True}, []),
        ("embed", {"detector": {"epochs": "5"}}, []),
        ("embed", {"watermark": {"epochs": 1, "alpha": True}}, []),
        ("embed", {"detector": {"epochs": 1, "n_samples": 1.5}}, []),
        ("train-clean", {"train": {"epochs": 1, "batch_size": 0}}, []),
        ("train-clean", {"dataset": {"kind": "feynman", "formula": "I.12.11",
                                     "n": 0}}, []),
        ("train-clean", {"train": {"epochs": 1.9}}, []),
        ("train-clean", {"dataset": {"kind": "feynman", "formula": "I.12.11",
                                     "n": "abc"}}, []),
        ("train-clean", {"model": {"widths": [2, 0, 1]}}, []),
        ("embed", {"detector": {"epochs": 1, "hidden": [0], "n_samples": 20}}, []),
        ("train-clean", {"seed": "x"}, []),
        ("train-clean", {"watermark": 5}, []),
        ("train-clean", {"detector": 5}, []),
        ("train-clean", {"dataset": 5}, []),
        ("train-clean", {"task": "classification", "model": {"hidden": 4},
                         "dataset": {"kind": "idx", "images": "i", "labels": "l",
                                     "test_images": "t"}}, []),
        ("attack", {}, ["--kind", "prune", "--lr", "nan"]),
        ("attack", {}, ["--lr", "inf"]),
        ("attack", {}, ["--kind", "prune", "--lr", "-0.1"]),
        ("attack", {}, ["--ratio", "nan"]),
        ("prune-sweep", CLASSIFY, ["--step", "0"]),
        ("prune-sweep", CLASSIFY, ["--step", "1.5"]),
        ("prune-sweep", CLASSIFY, ["--step", "nan"]),
    ], ids=["grid_intervals_0", "grid_degree_negative", "grid_t_min_eq_t_max",
            "negative_train_lr", "negative_stage_lr", "negative_lr_main",
            "negative_lr_wm", "negative_detector_lr", "one_width",
            "negative_n_shuffles", "zero_n_samples", "negative_attack_epochs_flag",
            "negative_attack_epochs_config", "negative_stage_epochs",
            "watermark_layer_index_key", "verify_tau_above_one",
            "two_fractions", "zero_test_fraction", "test_fraction_floors_to_zero",
            "string_tau", "boolean_tau", "string_detector_epochs",
            "boolean_alpha", "fractional_n_samples", "zero_train_batch_size",
            "zero_dataset_n", "fractional_train_epochs", "string_dataset_n",
            "zero_width", "zero_detector_hidden", "string_seed",
            "scalar_watermark_section", "scalar_detector_section",
            "scalar_dataset_section", "test_images_without_test_labels",
            "attack_lr_nan_prune", "attack_lr_inf", "attack_lr_negative_prune",
            "attack_ratio_nan_finetune", "prune_sweep_step_0",
            "prune_sweep_step_above_1", "prune_sweep_step_nan"])
    def test_user_error_exits_2_and_writes_nothing(self, tmp_path, monkeypatch,
                                                   command, overrides, flags):
        if command == "prune-sweep":  # CLASSIFY names its IDX pair relatively
            monkeypatch.chdir(tmp_path)
            rng = np.random.default_rng(0)
            write_idx(Dataset(2.0 * (rng.integers(0, 256, (30, 4)) / 255.0) - 1.0,
                              rng.integers(0, 10, 30)),
                      "images.idx", "labels.idx", image_shape=(2, 2))
        model = tmp_path / "model.json"
        save_checkpoint(model, KanModel.create([2, 4, 1], seed=0), "clean", "hash", 0)
        detector = tmp_path / "detector.json"
        save_checkpoint(detector, MlpModel.create([4, 8, 2], seed=0), "detector",
                        "hash", 0)
        ckpt = {"train-clean": [], "embed": ["--clean-ckpt", str(model)],
                "attack": ["--wm-ckpt", str(model)],
                "verify": ["--detector-ckpt", str(detector),
                           "--suspect-ckpt", str(model)], "prune-sweep": []}[command]
        out = tmp_path / "runs"
        cfg = write_config(tmp_path / "c.json", **overrides)
        assert main([command, "--config", cfg, "--out", str(out), *ckpt, *flags]) == 2
        assert not out.exists()

    def test_data_error_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json", task="classification",
            dataset={"kind": "idx", "images": str(tmp_path / "no.idx"),
                     "labels": str(tmp_path / "no2.idx")},
            model={"widths": None})
        assert main(["train-clean", "--config", cfg,
                     "--out", str(tmp_path)]) == 3

    def test_corrupt_idx_exit_code(self, tmp_path):
        img = tmp_path / "img.idx"
        lab = tmp_path / "lab.idx"
        img.write_bytes(b"\x00" * 20)
        lab.write_bytes(b"\x00" * 10)
        cfg = write_config(tmp_path / "c.json", task="classification",
                           dataset={"kind": "idx", "images": str(img),
                                    "labels": str(lab)},
                           model={"widths": None})
        assert main(["train-clean", "--config", cfg,
                     "--out", str(tmp_path)]) == 3

    def test_dimension_mismatch_exit_code(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = str(tmp_path / "runs")
        assert main(["train-clean", "--config", cfg, "--out", out]) == 0
        clean = Path(out) / "clean-kan.json"
        # detector expecting a different layer width
        det = MlpModel.create([9, 4, 2], seed=0)
        det_path = tmp_path / "det.json"
        save_checkpoint(det_path, det, "detector", "hash", 0)
        assert main(["verify", "--config", cfg, "--detector-ckpt", str(det_path),
                     "--suspect-ckpt", str(clean), "--out", out]) == 4
        # a clean model expecting 3 input columns meets 2-column data in the
        # amplitude calibration, before any band check
        wide = tmp_path / "wide.json"
        save_checkpoint(wide, KanModel.create([3, 4, 1], seed=0), "clean", "hash", 0)
        assert main(["embed", "--config", cfg, "--clean-ckpt", str(wide),
                     "--out", out]) == 4

    def test_detector_for_another_layer_exit_code(self, tmp_path):
        # detectors saved while the watermarked layer was configurable
        model = tmp_path / "model.json"
        save_checkpoint(model, KanModel.create([2, 4, 1], seed=0), "watermarked",
                        "hash", 0)
        detector = tmp_path / "detector.json"
        save_checkpoint(detector, MlpModel.create([1, 8, 2], seed=0), "detector",
                        "hash", 0, extra={"layer_index": 1})
        out = tmp_path / "runs"
        assert main(["verify", "--config", write_config(tmp_path / "c.json"),
                     "--detector-ckpt", str(detector), "--suspect-ckpt", str(model),
                     "--out", str(out)]) == 4
        assert not out.exists()

    def test_separate_test_files_split_into_test_and_holdout(self, tmp_path):
        rng = np.random.default_rng(0)
        # byte-valued pixels, normalised the way load_idx does
        primary = Dataset(2.0 * (rng.integers(0, 256, (30, 4)) / 255.0) - 1.0,
                          rng.integers(0, 10, 30))
        secondary = Dataset(2.0 * (rng.integers(0, 256, (21, 4)) / 255.0) - 1.0,
                            rng.integers(0, 10, 21))
        paths = {}
        for name, ds in (("train", primary), ("test", secondary)):
            paths[name] = (str(tmp_path / f"{name}-images"),
                           str(tmp_path / f"{name}-labels"))
            write_idx(ds, *paths[name], image_shape=(2, 2))
        cfg = load_config(write_config(
            tmp_path / "c.json", task="classification",
            dataset={"kind": "idx", "images": paths["train"][0],
                     "labels": paths["train"][1],
                     "test_images": paths["test"][0],
                     "test_labels": paths["test"][1]}))
        bundle = SeedBundle(cfg["seed"])
        train, test, hold = resolve_dataset(cfg, bundle)
        assert np.array_equal(train.inputs, primary.inputs)
        assert np.array_equal(train.targets, primary.targets)
        # halves of a seeded shuffle of the secondary file, test first
        order = np.random.default_rng(derive_seed(bundle.data, "split")).permutation(21)
        assert np.array_equal(test.inputs, secondary.inputs[order[:10]])
        assert np.array_equal(hold.inputs, secondary.inputs[order[10:]])
        assert np.array_equal(hold.targets, secondary.targets[order[10:]])

    def test_mlp_training_and_sweep(self, tmp_path, digits_idx):
        images, labels = digits_idx
        cfg_path = tmp_path / "cls.json"
        cfg_path.write_text(json.dumps({
            "task": "classification",
            "dataset": {"kind": "idx", "images": images, "labels": labels,
                        "limit": 400, "pool": 2,
                        "fractions": [0.7, 0.15, 0.15]},
            "model": {"hidden": 8},
            "train": {"epochs": 2, "lr": 0.001, "batch_size": 32},
            "seed": 3,
        }))
        out = str(tmp_path / "runs")
        assert main(["train-clean", "--config", str(cfg_path), "--model", "mlp",
                     "--out", out]) == 0
        assert (Path(out) / "clean-mlp.json").exists()
        assert main(["prune-sweep", "--config", str(cfg_path), "--step", "0.5",
                     "--out", out]) == 0
        table = json.loads((Path(out) / "prune_sweep.json").read_text())
        assert [row["ratio"] for row in table] == [0.0, 0.5, 1.0]
