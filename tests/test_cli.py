import argparse
import base64
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from kanmark import (FEYNMAN, Dataset, KanLayer, KanModel, MlpModel, average_pool,
                     build_grid, evaluate, gen_feynman, load_idx, prune_kan, prune_sweep,
                     split_dataset, write_idx)
from kanmark.cli import (SCHEMA, SPLITS, CheckpointError, ConfigError, SeedBundle,
                         _fits, append_report_row, build_parser, canonical_json,
                         config_hash, derive_seed, load_checkpoint, load_config, main,
                         resolve_dataset, save_checkpoint)
from kanmark.data import decode_idx
from kanmark.pipeline import train_clean


# A classification run on the 30-image IDX pair of write_classify_idx.
CLASSIFY = {"task": "classification", "model": {"hidden": 4},
            "dataset": {"kind": "idx", "images": "images.idx", "labels": "labels.idx"}}


def write_classify_idx(n=30):
    """Writes images.idx and labels.idx to the working directory: ``n``
    random 2x2 byte images with labels 0-9."""
    rng = np.random.default_rng(0)
    write_idx(Dataset(2.0 * (rng.integers(0, 256, (n, 4)) / 255.0) - 1.0,
                      rng.integers(0, 10, n)),
              "images.idx", "labels.idx", image_shape=(2, 2))


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

    def test_crlf_lines_load_as_lf_lines(self, tmp_path):
        lf = write_config(tmp_path / "lf.json", watermark={"epochs": 2, "key": 3})
        text = json.dumps(json.loads(Path(lf).read_text()), indent=1)
        Path(lf).write_bytes(text.encode())
        crlf = tmp_path / "crlf.json"
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        assert b"\r\n" in crlf.read_bytes()
        assert load_config(crlf) == load_config(lf)

    def test_validation_errors(self, tmp_path):
        path = tmp_path / "c.json"
        write_config(path, task="segmentation")
        with pytest.raises(ConfigError):
            load_config(path)
        write_config(path, dataset={"kind": "idx"})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_single_bin_band_is_accepted(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.json", watermark={"band": [2, 2]}))
        assert cfg["watermark"]["band"] == [2, 2]

    def test_tau_zero_is_accepted(self, tmp_path):
        assert load_config(write_config(tmp_path / "c.json", tau=0.0))["tau"] == 0.0

    def test_tau_one_is_accepted(self, tmp_path):
        assert load_config(write_config(tmp_path / "c.json", tau=1.0))["tau"] == 1.0

    @pytest.mark.parametrize("section, key", [(None, "tau"), ("attack", "ratio")])
    def test_rates_lie_in_0_to_1(self, tmp_path, section, key):
        def load(value):
            entry = {key: value}
            cfg = load_config(write_config(tmp_path / "c.json",
                                           **({section: entry} if section else entry)))
            return cfg[section][key] if section else cfg[key]

        for value in (0, 0.0, 1, 1.0):
            assert load(value) == value
        name = f"{section}.{key}" if section else key
        with pytest.raises(ConfigError, match=re.escape(
                f"{name} must be number (numbers in [0, 1]), got 1.0000000001")):
            load(1.0000000001)

    @pytest.mark.parametrize("section, key", [("dataset", "pool"), ("dataset", "n"),
                                              ("detector", "n_samples")])
    def test_counts_start_at_1(self, tmp_path, section, key):
        def load(value):
            entry = {key: value}
            if section == "dataset":
                entry.update(kind="feynman", formula="I.12.11")
            return load_config(write_config(tmp_path / "c.json", **{section: entry}))

        assert load(1)[section][key] == 1
        with pytest.raises(ConfigError, match=re.escape(
                f"{section}.{key} must be int (numbers >= 1)")):
            load(0)

    def test_list_kinds_are_worded_by_length(self, tmp_path):
        # model.widths holds any number of ints, watermark.band exactly two.
        with pytest.raises(ConfigError, match=r"^model\.widths must be \[int, \.\.\.\] "):
            load_config(write_config(tmp_path / "c.json", model={"widths": 5}))
        with pytest.raises(ConfigError, match=r"^watermark\.band must be \[int, int\] "):
            load_config(write_config(tmp_path / "c.json", watermark={"band": 5}))

    def test_report_row_holding_nan_raises(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.json"))
        with pytest.raises(ValueError, match="not JSON compliant"):
            append_report_row(tmp_path, "clean", cfg, float("nan"), "rmse")
        report = tmp_path / "report.jsonl"
        assert not report.exists() or report.read_text() == ""

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

        for name, (default, kind, *bounds) in leaves(SCHEMA):
            assert default is None or _fits(default, kind, *bounds), name

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

    def test_format_4_records_only_grids_and_hex_params(self, tmp_path):
        x = np.random.default_rng(4).uniform(-1, 1, size=(8, 3))
        path = tmp_path / "m.json"
        model = prune_kan(KanModel.create([3, 4, 2], seed=3), 0.5, x)
        save_checkpoint(path, model, "attacked", "hash", 1)
        payload = json.loads(path.read_text())
        assert payload["format_version"] == 4
        assert [set(rec) for rec in payload["layers"]] == [{"grid"}, {"grid"}]
        assert "prune_mask" not in path.read_text()
        assert payload["params"] == model.params.astype("<f8").tobytes().hex()

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

    def test_version_mismatch_rejected(self, tmp_path, capsys):
        # version 1 held every array as nested decimal lists, version 2 a
        # 0/1 prune_mask per layer and version 3 params in base64; none is read
        path, out = tmp_path / "m.json", tmp_path / "runs"
        cfg = write_config(tmp_path / "c.json")
        commands = {"embed": ["--clean-ckpt", str(path)], "attack": ["--wm-ckpt", str(path)],
                    "verify": ["--detector-ckpt", str(path), "--suspect-ckpt", str(path)]}
        for version in (1, 2, 3, 999):
            save_checkpoint(path, KanModel.create([2, 4, 1], seed=4), "clean", "hash", 1)
            payload = json.loads(path.read_text())
            payload["format_version"] = version
            path.write_text(canonical_json(payload))
            for command, ckpt in commands.items():
                assert main([command, "--config", cfg, "--out", str(out), *ckpt]) == 4
                assert f"format_version {version}, expected 4" in capsys.readouterr().err
                assert not out.exists()

    # Each defect and a phrase of the message that its own check gives.
    MALFORMED = {
        "no_grid": "KeyError: 'grid'",
        "list_root": "AttributeError",
        "params_8_bytes_short": "params hold 39 values, widths [2, 2] need 40",
        "params_odd_length": "Odd-length string",
        "params_not_hex": "Non-hexadecimal digit",
        "params_whitespace": "Non-hexadecimal digit",
        "params_not_ascii": "only ASCII characters",
        "params_base64": "Non-hexadecimal digit",
        "nan_in_params": "non-finite",
        "widths_disagree_with_params": "params hold 40 values, widths [2, 3] need 60",
        "fractional_degree": "layers[0].grid.degree must be int (numbers >= 0), got 1.5",
        "boolean_degree": "layers[0].grid.degree must be int (numbers >= 0), got true",
        "fractional_intervals": "layers[0].grid.intervals must be int (numbers >= 1), got 4.5",
        "string_t_min": 'layers[0].grid.t_min must be number, got "-1"',
        "missing_grid_key": "layers[0].grid holds keys ['degree', 'intervals', 't_min'], "
                            "not ['degree', 'intervals', 't_max', 't_min']",
        "extra_grid_key": "layers[0].grid holds keys ['degree', 'intervals', 'knots', "
                          "'t_max', 't_min'], not ['degree', 'intervals', 't_max', 't_min']",
        "float_widths": "widths must be [int, ...] (numbers >= 1), got [2.0, 2]",
        "null_widths": "widths must be [int, ...] (numbers >= 1), got null",
        "t_min_not_below_t_max": "need finite t_min < t_max, got [1.0, 1.0]",
        "one_width_no_layers": "model needs at least one layer",
        "intervals_2_pow_50": f"params hold 40 values, widths [2, 2] need {4 * (2**50 + 3) + 8}",
        "degree_2_pow_50": f"params hold 40 values, widths [2, 2] need {4 * (2**50 + 5) + 8}",
        "unknown_kind": "unknown kind 'cnn'",
        "no_layer_records": "0 layer records for widths [2, 2]",
    }

    @pytest.mark.parametrize("defect", list(MALFORMED))
    def test_malformed_checkpoint_exit_code(self, tmp_path, capsys, defect):
        path = tmp_path / "m.json"
        save_checkpoint(path, KanModel.create([2, 2], seed=4), "clean", "hash", 1)
        payload = json.loads(path.read_text())
        hexed = payload["params"]
        if defect == "no_grid":
            del payload["layers"][0]["grid"]
        elif defect == "params_8_bytes_short":
            payload["params"] = hexed[:-16]
        elif defect == "params_odd_length":
            payload["params"] = hexed[:-1]
        elif defect == "params_not_hex":
            payload["params"] = "g" + hexed[1:]
        elif defect == "params_whitespace":
            payload["params"] = hexed[:16] + "  " + hexed[18:]
        elif defect == "params_not_ascii":
            payload["params"] = "\u00e9" + hexed[1:]
        elif defect == "params_base64":  # a format-3 blob under version 4
            payload["params"] = base64.b64encode(bytes.fromhex(hexed)).decode()
        elif defect == "nan_in_params":
            params = np.frombuffer(bytes.fromhex(hexed), dtype="<f8").copy()
            params[1] = np.nan
            payload["params"] = params.tobytes().hex()
        elif defect == "widths_disagree_with_params":
            payload["widths"] = [2, 3]
        elif defect == "fractional_degree":
            payload["layers"][0]["grid"]["degree"] = 1.5
        elif defect == "boolean_degree":
            payload["layers"][0]["grid"]["degree"] = True
        elif defect == "fractional_intervals":
            payload["layers"][0]["grid"]["intervals"] = 4.5
        elif defect == "string_t_min":
            payload["layers"][0]["grid"]["t_min"] = "-1"
        elif defect == "missing_grid_key":  # never filled from the config default
            del payload["layers"][0]["grid"]["t_max"]
        elif defect == "extra_grid_key":
            payload["layers"][0]["grid"]["knots"] = []
        elif defect == "float_widths":
            payload["widths"] = [2.0, 2]
        elif defect == "null_widths":  # model.widths may be null in a config only
            payload["widths"] = None
        elif defect == "t_min_not_below_t_max":  # build_grid's rules span keys
            payload["layers"][0]["grid"]["t_min"] = 1.0
        elif defect == "one_width_no_layers":
            payload.update(widths=[3], layers=[], params="")
        elif defect.endswith("_2_pow_50"):  # its knot vector could never be allocated
            payload["layers"][0]["grid"][defect.split("_")[0]] = 2**50
        elif defect == "unknown_kind":
            payload["kind"] = "cnn"
        elif defect == "no_layer_records":  # widths [2, 2] need one
            payload["layers"] = []
        else:
            payload = [payload]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=re.escape(self.MALFORMED[defect])):
            load_checkpoint(path)
        assert main(["verify", "--config", write_config(tmp_path / "c.json"),
                     "--detector-ckpt", str(path), "--suspect-ckpt", str(path),
                     "--out", str(tmp_path)]) == 4
        assert self.MALFORMED[defect] in capsys.readouterr().err
        assert not (tmp_path / "report.jsonl").exists()

    def test_checkpoint_that_is_not_utf8_exits_4(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(CheckpointError, match="not UTF-8 JSON"):
            load_checkpoint(path)
        assert main(["verify", "--config", write_config(tmp_path / "c.json"),
                     "--detector-ckpt", str(path), "--suspect-ckpt", str(path),
                     "--out", str(tmp_path)]) == 4
        assert capsys.readouterr().err == (
            f"compatibility error: checkpoint {path} is not UTF-8 JSON: 'utf-8' codec "
            "can't decode byte 0xff in position 0: invalid start byte\n")
        assert not (tmp_path / "report.jsonl").exists()

    @pytest.mark.parametrize("kind", ["kan", "mlp"])
    def test_crlf_lines_load_as_lf_lines(self, tmp_path, kind):
        model = (KanModel.create([3, 4, 2], seed=1) if kind == "kan"
                 else MlpModel.create([3, 4, 2], seed=1))
        lf, crlf = tmp_path / "lf.json", tmp_path / "crlf.json"
        save_checkpoint(lf, model, "clean", "hash", 7, extra={"note": "a"})
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        (want, want_meta), (got, got_meta) = load_checkpoint(lf), load_checkpoint(crlf)
        assert type(got) is type(want) and got.widths == want.widths
        assert got.params.tobytes() == want.params.tobytes()
        assert got_meta == want_meta


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
        # The parameters, not the file bytes: the config hash in the file
        # changes with the seed whether or not training sees it.
        a, _ = load_checkpoint(Path(out_a) / "clean-kan.json")
        b, _ = load_checkpoint(Path(out_b) / "clean-kan.json")
        assert not np.array_equal(a.params, b.params)

    def test_train_clean_runs_each_stage_on_its_sub_seed(self, tmp_path):
        path = write_config(tmp_path / "c.json", train={
            "epochs": 2, "lr": 0.001, "batch_size": 32, "stages": [[1, 0.0005]]})
        out = tmp_path / "runs"
        assert main(["train-clean", "--config", path, "--out", str(out)]) == 0
        cfg = load_config(path)
        bundle = SeedBundle(cfg["seed"])
        train, _, _ = resolve_dataset(cfg, bundle)
        want = train_clean("kan", cfg, train, bundle.init,
                           [derive_seed(bundle.data, "fit-stage-0"),
                            derive_seed(bundle.data, "fit-stage-1")])
        got, _ = load_checkpoint(out / "clean-kan.json")
        assert np.array_equal(got.params, want.params)

    @pytest.mark.parametrize("task,metric,kind,scale", [
        ("classification", "accuracy", "accuracy_pct", 100.0),
        ("regression", "rmse", "rmse", 1.0)])
    def test_report_row_holds_the_tasks_metric_at_its_scale(
            self, tmp_path, monkeypatch, capsys, task, metric, kind, scale):
        monkeypatch.chdir(tmp_path)
        write_classify_idx()
        # Seed 7 gets 1 of the 4 test images right: a zero would hide the scale.
        path = write_config("c.json", seed=7,
                            **(CLASSIFY if task == "classification" else {}))
        assert main(["train-clean", "--config", path, "--out", "runs"]) == 0
        cfg = load_config(path)
        _, test, _ = resolve_dataset(cfg, SeedBundle(cfg["seed"]))
        model, _ = load_checkpoint("runs/clean-kan.json")
        value = scale * evaluate(model, test.inputs, test.targets, task)[metric]
        assert value > 0
        row = json.loads(Path("runs/report.jsonl").read_text())
        assert (row["metric_kind"], row["main_metric"]) == (kind, round(value, 6))
        assert f"{kind} {value:.4f}" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert main(["train-clean", "--config", str(path),
                     "--out", str(tmp_path)]) == 2

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ConfigError, match="not UTF-8 JSON"):
            load_config(path)
        assert main(["train-clean", "--config", str(path),
                     "--out", str(tmp_path / "runs")]) == 2
        assert capsys.readouterr().err == (
            f"config error: config {path} is not UTF-8 JSON: 'utf-8' codec "
            "can't decode byte 0xff in position 0: invalid start byte\n")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("flag, code, prefix", [
        ("--config", 2, "config error: config"),
        ("--detector-ckpt", 4, "compatibility error: checkpoint")],
        ids=["config", "checkpoint"])
    def test_bad_byte_past_8_kib_is_named_by_its_place_in_the_file(
            self, tmp_path, capsys, flag, code, prefix):
        # 10,000 bytes of JSON whitespace, more than one 8 KiB read, first.
        path = tmp_path / "bad.json"
        path.write_bytes(b" " * 10000 + b"\xe9{}")
        model = tmp_path / "model.json"
        save_checkpoint(model, MlpModel.create([4, 8, 2], seed=0), "detector", "hash", 0)
        argv = {"--config": write_config(tmp_path / "c.json"),
                "--detector-ckpt": str(model), "--suspect-ckpt": str(path), flag: str(path)}
        assert main(["verify", *(a for pair in argv.items() for a in pair),
                     "--out", str(tmp_path / "runs")]) == code
        assert capsys.readouterr().err == (
            f"{prefix} {path} is not UTF-8 JSON: 'utf-8' codec can't decode byte 0xe9 "
            "in position 10000: invalid continuation byte\n")
        assert not (tmp_path / "runs").exists()

    def test_train_clean_creates_nested_out(self, tmp_path):
        out = tmp_path / "a" / "b" / "runs"
        assert main(["train-clean", "--config", write_config(tmp_path / "c.json"),
                     "--out", str(out)]) == 0
        assert load_checkpoint(out / "clean-kan.json")[1]["stage"] == "clean"

    @pytest.mark.parametrize("kind", ["prune", "retrain"])
    def test_out_of_range_prune_ratio_exit_code(self, tmp_path, kind):
        wm = tmp_path / "wm.json"
        save_checkpoint(wm, KanModel.create([2, 4, 1], seed=0), "watermarked",
                        "hash", 0)
        assert main(["attack", "--config", write_config(tmp_path / "c.json"),
                     "--wm-ckpt", str(wm), "--kind", kind, "--ratio", "1.5",
                     "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "report.jsonl").exists()

    def test_prune_attack_ignores_lr(self, tmp_path):
        # pruning trains nothing, so lr 0, which finetune refuses, is accepted
        path = write_config(tmp_path / "c.json")
        save_checkpoint(tmp_path / "wm.json", KanModel.create([2, 4, 1], seed=0),
                        "watermarked", "hash", 0)
        payloads = []
        for out, lr in ((tmp_path / "zero", ["--lr", "0"]), (tmp_path / "default", [])):
            assert main(["attack", "--config", path, "--wm-ckpt", str(tmp_path / "wm.json"),
                         "--kind", "prune", *lr, "--out", str(out)]) == 0
            payloads.append(json.loads((out / "attacked-prune.json").read_text()))
        assert [p["extra"].pop("lr") for p in payloads] == [0.0, 0.001]
        assert payloads[0] == payloads[1]

    @pytest.mark.parametrize("argv", [["attack", "--kind", "prune"],
                                      ["attack", "--kind", "retrain", "--epochs", "1"],
                                      ["prune-sweep", "--step", "0.5"]],
                             ids=["prune", "retrain", "prune_sweep"])
    def test_pruning_ranks_edges_on_the_first_256_training_rows(self, tmp_path,
                                                                monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        write_classify_idx(400)  # 280 training rows
        path = write_config("c.json", **CLASSIFY, train={"epochs": 1})
        save_checkpoint("wm.json", KanModel.create([4, 4, 10], seed=0), "watermarked",
                        "hash", 0)
        seen = []

        def recording_prune_kan(model, ratio, calibration):
            seen.append(calibration)
            return prune_kan(model, ratio, calibration)

        def recording_prune_sweep(*args, calibration, step):
            seen.append(calibration)
            return prune_sweep(*args, calibration=calibration, step=step)

        monkeypatch.setattr("kanmark.cli.prune_kan", recording_prune_kan)
        monkeypatch.setattr("kanmark.cli.prune_sweep", recording_prune_sweep)
        ckpt = ["--wm-ckpt", "wm.json"] if argv[0] == "attack" else []
        assert main([*argv, "--config", path, *ckpt]) == 0
        cfg = load_config(path)
        train, _, _ = resolve_dataset(cfg, SeedBundle(cfg["seed"]))
        assert len(train) == 280
        assert len(seen) == 1 and np.array_equal(seen[0], train.inputs[:256])

    def test_formula_that_rejects_every_row_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(FEYNMAN, "I.12.11", dataclasses.replace(
            FEYNMAN["I.12.11"], guard=lambda v: np.zeros(len(v))))
        out = tmp_path / "runs"
        assert main(["train-clean", "--config", write_config(tmp_path / "c.json"),
                     "--out", str(out)]) == 3
        assert "data error: formula I.12.11 still rejects 400 of 400 rows" in \
            capsys.readouterr().err
        assert not out.exists()

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

    # One batch per epoch, so the only update of each run is its last one.
    ONE_BATCH = {"dataset": {"kind": "feynman", "formula": "I.12.11", "n": 300,
                             "fractions": [0.8, 0.1, 0.1]},
                 "model": {"widths": [2, 4, 1]}}

    def test_diverging_last_update_exit_code(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", **self.ONE_BATCH,
                           train={"epochs": 1, "lr": 1e300, "batch_size": 512})
        out = tmp_path / "runs"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["train-clean", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    def test_diverging_last_signal_step_exit_code(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", **self.ONE_BATCH,
                           train={"epochs": 1, "lr": 1e-3, "batch_size": 512},
                           watermark={"epochs": 1, "lr_wm": 1e300})
        out = tmp_path / "runs"
        assert main(["train-clean", "--config", cfg, "--out", str(out)]) == 0
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["embed", "--config", cfg, "--clean-ckpt",
                         str(out / "clean-kan.json"), "--out", str(out)]) == 2
        assert sorted(p.name for p in out.iterdir()) == ["clean-kan.json", "report.jsonl"]
        assert len((out / "report.jsonl").read_text().splitlines()) == 1

    @pytest.mark.parametrize("watermark, cause", [
        ({"alpha": -0.5}, "config error: watermark.alpha must be number"),
        ({"band": [3, 1]}, "config error: watermark.band must be [lo, hi]"),
        ({"epochs": 0}, "config error: watermark.epochs must be int"),
        # Checked only against layer 0's width, inside the watermark stage.
        ({"band": [1, 4]}, "config error: watermark: band [1, 4] invalid for length 4"),
        ({"alpha": 0.1, "band": [1, 4]},
         "config error: watermark: band [1, 4] invalid for length 4"),
    ], ids=["negative_alpha", "reversed_band", "zero_epochs", "band_wider_than_layer",
            "band_wider_than_layer_fixed_alpha"])
    def test_invalid_watermark_config_exit_code(self, tmp_path, capsys, watermark, cause):
        clean = tmp_path / "clean.json"
        save_checkpoint(clean, KanModel.create([2, 4, 1], seed=0), "clean", "hash", 0)
        cfg = write_config(tmp_path / "c.json", watermark=watermark)
        assert main(["embed", "--config", cfg, "--clean-ckpt", str(clean),
                     "--out", str(tmp_path)]) == 2
        assert cause in capsys.readouterr().err
        assert not (tmp_path / "watermarked-kan.json").exists()

    @pytest.mark.parametrize("command, overrides, flags, cause", [
        ("train-clean", {"grid": {"intervals": 0}}, [],
         "grid.intervals must be int (numbers >= 1), got 0"),
        ("train-clean", {"grid": {"degree": -1}}, [],
         "grid.degree must be int (numbers >= 0), got -1"),
        ("train-clean", {"grid": {"t_min": 1.0, "t_max": 1.0}}, [],
         "grid: need finite t_min < t_max, got [1.0, 1.0]"),
        ("train-clean", {"grid": {"t_min": 1e16, "t_max": 1e16 + 2}}, [],
         "is too narrow for 5 intervals: knots coincide"),
        ("train-clean", {"train": {"epochs": 1, "lr": -1e-3}}, [],
         "train.lr must be number (numbers >= 0), got -0.001"),
        ("train-clean", {"train": {"epochs": 1, "stages": [[1, -1e-3]]}}, [],
         "train.stages must be [[int, number], ...] (numbers >= 0) or null, "
         "got [[1, -0.001]]"),
        ("embed", {"watermark": {"epochs": 1, "lr_main": -1e-3}}, [],
         "watermark.lr_main must be number (numbers >= 0) or null, got -0.001"),
        ("embed", {"watermark": {"epochs": 1, "lr_wm": -1e-3}}, [],
         "watermark.lr_wm must be number (numbers >= 0) or null, got -0.001"),
        ("embed", {"detector": {"epochs": 1, "lr": -1e-3, "n_samples": 20}}, [],
         "detector.lr must be number (numbers >= 0), got -0.001"),
        ("train-clean", {"model": {"widths": [2]}}, [],
         "model.widths must list input and output widths, got [2]"),
        ("embed", {"detector": {"epochs": 1, "n_shuffles": -1, "n_samples": 20}}, [],
         "detector.n_shuffles must be int (numbers >= 0), got -1"),
        ("embed", {"detector": {"epochs": 1, "n_samples": 0}}, [],
         "detector.n_samples must be int (numbers >= 1), got 0"),
        ("attack", {}, ["--epochs", "-1"],
         "attack.epochs must be int (numbers >= 0), got -1"),
        ("attack", {"attack": {"epochs": -2}}, [],
         "attack.epochs must be int (numbers >= 0), got -2"),
        ("train-clean", {"train": {"epochs": 1, "stages": [[-3, 1e-3]]}}, [],
         "train.stages must be [[int, number], ...] (numbers >= 0) or null, "
         "got [[-3, 0.001]]"),
        ("embed", {"watermark": {"epochs": 1, "layer_index": 0}}, [],
         "unknown config key watermark.'layer_index'"),
        ("verify", {}, ["--tau", "1.5"],
         "tau must be number (numbers in [0, 1]), got 1.5"),
        ("train-clean", {"dataset": {"kind": "feynman", "formula": "I.12.11",
                                     "n": 400, "fractions": [0.5, 0.5]}}, [],
         "dataset.fractions must be [number, number, number] (numbers >= 0), "
         "got [0.5, 0.5]"),
        ("train-clean", {"dataset": {"kind": "feynman", "formula": "I.12.11",
                                     "n": 400, "fractions": [1.0, 0.0, 0.0]}}, [],
         "(train, test, holdout) split sizes [400, 0, 0]: none may be empty"),
        ("train-clean", {"dataset": {"kind": "feynman", "formula": "I.12.11",
                                     "n": 400, "fractions": [0.995, 0.002, 0.003]}}, [],
         "(train, test, holdout) split sizes [398, 0, 2]: none may be empty"),
        ("train-clean", {"tau": "0.5"}, [],
         'tau must be number (numbers in [0, 1]), got "0.5"'),
        ("train-clean", {"tau": True}, [],
         "tau must be number (numbers in [0, 1]), got true"),
        ("embed", {"detector": {"epochs": "5"}}, [],
         'detector.epochs must be int (numbers >= 0), got "5"'),
        ("embed", {"watermark": {"epochs": 1, "alpha": True}}, [],
         "watermark.alpha must be number (numbers >= 0) or null, got true"),
        ("embed", {"detector": {"epochs": 1, "n_samples": 1.5}}, [],
         "detector.n_samples must be int (numbers >= 1), got 1.5"),
        ("train-clean", {"train": {"epochs": 1, "batch_size": 0}}, [],
         "train.batch_size must be int (numbers >= 1), got 0"),
        ("train-clean", {"dataset": {"kind": "feynman", "formula": "I.12.11",
                                     "n": 0}}, [],
         "dataset.n must be int (numbers >= 1), got 0"),
        ("train-clean", {"train": {"epochs": 1.9}}, [],
         "train.epochs must be int (numbers >= 0), got 1.9"),
        ("train-clean", {"dataset": {"kind": "feynman", "formula": "I.12.11",
                                     "n": "abc"}}, [],
         'dataset.n must be int (numbers >= 1), got "abc"'),
        ("train-clean", {"model": {"widths": [2, 0, 1]}}, [],
         "model.widths must be [int, ...] (numbers >= 1) or null, got [2, 0, 1]"),
        ("embed", {"detector": {"epochs": 1, "hidden": [0], "n_samples": 20}}, [],
         "detector.hidden must be [int, ...] (numbers >= 1), got [0]"),
        ("train-clean", {"seed": "x"}, [],
         'seed must be int, got "x"'),
        ("train-clean", {"watermark": 5}, [],
         "watermark must be a JSON object"),
        ("train-clean", {"detector": 5}, [],
         "detector must be a JSON object"),
        ("train-clean", {"dataset": 5}, [],
         "dataset must be a JSON object"),
        ("train-clean", {"task": "classification", "model": {"hidden": 4},
                         "dataset": {"kind": "idx", "images": "i", "labels": "l",
                                     "test_images": "t"}}, [],
         "dataset.test_images and dataset.test_labels come as a pair"),
        ("attack", {}, ["--kind", "prune", "--lr", "nan"],
         "attack.lr must be number (numbers >= 0), got NaN"),
        ("attack", {}, ["--lr", "inf"],
         "attack.lr must be number (numbers >= 0), got Infinity"),
        ("attack", {}, ["--kind", "prune", "--lr", "-0.1"],
         "attack.lr must be number (numbers >= 0), got -0.1"),
        ("attack", {}, ["--ratio", "nan"],
         "attack.ratio must be number (numbers in [0, 1]), got NaN"),
        ("attack", {}, ["--lr", "0"],
         "attack: training attacks need lr > 0, got 0.0"),
        ("attack", {}, ["--kind", "retrain", "--lr", "0"],
         "attack: training attacks need lr > 0, got 0.0"),
        ("attack", {}, ["--kind", "prune", "--ratio", "1.5"],
         "attack.ratio must be number (numbers in [0, 1]), got 1.5"),
        ("attack", {"attack": {"kind": "retrain_after_prune", "ratio": 1.5}}, [],
         "attack.ratio must be number (numbers in [0, 1]), got 1.5"),
        ("prune-sweep", CLASSIFY, ["--step", "0"],
         "prune-sweep --step: step must be in [0.001, 1], got 0.0"),
        ("prune-sweep", CLASSIFY, ["--step", "1.5"],
         "prune-sweep --step: step must be in [0.001, 1], got 1.5"),
        ("prune-sweep", CLASSIFY, ["--step", "nan"],
         "prune-sweep --step: step must be in [0.001, 1], got nan"),
        ("prune-sweep", CLASSIFY, ["--step", "1e-12"],
         "prune-sweep --step: step must be in [0.001, 1], got 1e-12"),
        ("train-clean", {"task": "classification", "model": {"hidden": 4}}, [],
         "feynman targets are real-valued: the task is regression"),
        ("prune-sweep", {"task": "classification", "model": {"hidden": 4}}, [],
         "feynman targets are real-valued: the task is regression"),
        ("train-clean", {"dataset": {"kind": "feynman", "n": 400}}, [],
         "feynman dataset needs a formula id"),
        ("train-clean", {"dataset": {"kind": "feynman", "formula": "I.12.11",
                                     "n": 400, "fractions": [0.7, 0.15, 0.1]}}, [],
         "dataset.fractions (train, test, holdout) must sum to 1, got [0.7, 0.15, 0.1]"),
        # a repeated flag keeps its last value
        ("embed", {}, ["--clean-ckpt", "missing.json"],
         "cannot read checkpoint missing.json: [Errno 2]"),
        ("prune-sweep", {}, [], "prune-sweep is a classification experiment"),
    ], ids=["grid_intervals_0", "grid_degree_negative", "grid_t_min_eq_t_max",
            "grid_knots_coincide",
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
            "attack_ratio_nan_finetune", "attack_lr_zero_finetune",
            "attack_lr_zero_retrain", "attack_ratio_above_one_prune",
            "attack_ratio_above_one_retrain_config", "prune_sweep_step_0",
            "prune_sweep_step_above_1", "prune_sweep_step_nan", "prune_sweep_step_1e-12",
            "classification_on_feynman", "prune_sweep_classification_on_feynman",
            "feynman_without_formula", "fractions_not_summing_to_1",
            "missing_checkpoint", "prune_sweep_on_regression"])
    def test_user_error_exits_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys,
                                                   command, overrides, flags, cause):
        # CLASSIFY names its IDX pair relatively, and missing.json lies here too
        monkeypatch.chdir(tmp_path)
        if command == "prune-sweep":
            write_classify_idx()
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
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and cause in err
        assert not out.exists()

    # Sizes of at least 2**50 elements: their allocation fails at once, and
    # past numpy's size limit (2**63 bytes) none is attempted.
    @pytest.mark.parametrize("command, overrides", [
        ("train-clean", {"grid": {"intervals": 2**50}}),
        ("train-clean", {"dataset": {"kind": "feynman", "formula": "I.12.11",
                                     "n": 2**50}}),
        ("train-clean", {"model": {"widths": [2, 2**50, 1]}}),
        ("embed", {"detector": {"n_shuffles": 2**50, "n_samples": 20}}),
        ("embed", {"detector": {"n_shuffles": 2**60}}),
        ("train-clean", {"dataset": {"kind": "feynman", "formula": "I.12.11",
                                     "n": 2**62}}),
        ("train-clean", {"model": {"widths": [2, 2**62, 1]}}),
    ], ids=["grid_intervals", "dataset_n", "hidden_width", "detector_n_shuffles",
            "detector_rows_past_numpy_size_limit", "dataset_n_past_numpy_size_limit",
            "hidden_width_past_numpy_size_limit"])
    def test_unallocatable_size_exits_2_and_writes_nothing(self, tmp_path, capsys,
                                                          command, overrides):
        model = tmp_path / "model.json"
        save_checkpoint(model, KanModel.create([2, 4, 1], seed=0), "clean", "hash", 0)
        ckpt = ["--clean-ckpt", str(model)] if command == "embed" else []
        out = tmp_path / "runs"
        cfg = write_config(tmp_path / "c.json", **overrides)
        assert main([command, "--config", cfg, "--out", str(out), *ckpt]) == 2
        assert "nothing saved" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, overrides, flags", [
        ("train-clean", {"model": {"widths": [2, 5, 3]}}, []),
        ("embed", {}, ["--clean-ckpt", "wide.json"]),
        ("attack", {}, ["--wm-ckpt", "wide.json", "--kind", "prune"]),
        ("train-clean", {**CLASSIFY, "model": {"widths": [4, 3, 5]}}, []),
        ("prune-sweep", {**CLASSIFY, "model": {"widths": [4, 3, 5]}}, []),
    ], ids=["regression_3_outputs", "embed_3_output_checkpoint",
            "prune_attack_3_output_checkpoint", "labels_above_5_outputs",
            "prune_sweep_labels_above_5_outputs"])
    def test_output_width_mismatch_exits_4_and_writes_nothing(
            self, tmp_path, monkeypatch, capsys, command, overrides, flags):
        # one real target per row for 3 outputs, or labels 0-9 for 5 outputs
        monkeypatch.chdir(tmp_path)
        write_classify_idx()
        save_checkpoint("wide.json", KanModel.create([2, 5, 3], seed=0), "clean",
                        "hash", 0)
        cfg = write_config(tmp_path / "c.json", **overrides)
        assert main([command, "--config", cfg, "--out", "runs", *flags]) == 4
        assert "compatibility error" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("out", ["afile", "afile/x"], ids=["file", "under_file"])
    def test_out_naming_a_file_exits_2_before_loading_data(self, tmp_path, monkeypatch,
                                                            out):
        monkeypatch.setattr("kanmark.cli.resolve_dataset", lambda *a: pytest.fail("loaded"))
        (tmp_path / "afile").write_text("keep")
        model = tmp_path / "model.json"
        save_checkpoint(model, KanModel.create([2, 4, 1], seed=0), "clean", "hash", 0)
        cfg = write_config(tmp_path / "c.json")
        before = sorted(tmp_path.iterdir())
        for argv in (["train-clean", "--config", cfg],
                     ["embed", "--config", cfg, "--clean-ckpt", str(model)],
                     ["attack", "--config", cfg, "--wm-ckpt", str(model)],
                     ["verify", "--config", cfg, "--detector-ckpt", str(model),
                      "--suspect-ckpt", str(model)],
                     ["report"]):
            assert main([*argv, "--out", str(tmp_path / out)]) == 2
        assert sorted(tmp_path.iterdir()) == before
        assert (tmp_path / "afile").read_text() == "keep"

    @pytest.mark.parametrize("line", [
        b'{"stage": "clean"',
        b'{"stage": "clean", "main_metric": 1}',
        b'[1, 2]',
        b'{"stage": "clean", "metric_kind": "rmse", "main_metric": "high"}',
        b'{"stage": "\xff"}',
        None,
    ], ids=["not_json", "no_metric_kind", "not_an_object", "string_metric", "not_utf8",
            "directory"])
    def test_damaged_report_exits_3_naming_the_line(self, tmp_path, capsys, line):
        report = tmp_path / "report.jsonl"
        if line is None:  # the report path names a directory
            report.mkdir()
        else:
            good = json.dumps({"stage": "clean", "metric_kind": "rmse", "main_metric": 0.5})
            report.write_bytes(b"\n".join([good.encode(), line, good.encode()]))
        assert main(["report", "--out", str(tmp_path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"cannot read {report}" if line is None else f"{report} line 2") in captured.err

    def test_report_columns_align_after_the_longest_stage(self, tmp_path, capsys):
        rows = [("clean", "rmse", None, None), ("watermarked", "accuracy_pct", 97.5, True),
                ("attacked:retrain_after_prune", "rmse", 12.25, False),
                ("verify", "none", 0.0, False)]
        (tmp_path / "report.jsonl").write_text("".join(
            json.dumps({"stage": stage, "metric_kind": kind, "main_metric": 0.5,
                        "wm_detection_rate": rate, "decision": decision}) + "\n"
            for stage, kind, rate, decision in rows))
        assert main(["report", "--out", str(tmp_path)]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        # the metric column is right-aligned, so its text ends at one offset
        ends = {line.index(kind) + len(kind) for line, (_, kind, _, _) in zip(lines, rows)}
        assert ends == {header.index("metric") + len("metric")}
        # the wm rate % and decision cells, "-" where the row holds null
        assert [line.split()[-2:] for line in lines] == [
            ["-", "-"], ["97.5", "True"], ["12.25", "False"], ["0.0", "False"]]

    def test_data_error_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json", task="classification",
            dataset={"kind": "idx", "images": str(tmp_path / "no.idx"),
                     "labels": str(tmp_path / "no2.idx")},
            model={"widths": None})
        assert main(["train-clean", "--config", cfg,
                     "--out", str(tmp_path)]) == 3

    def test_bad_verify_tau_exits_2_before_loading_data(self, tmp_path):
        # The IDX pair does not exist: loading it would exit 3.
        cfg = write_config(
            tmp_path / "c.json", task="classification",
            dataset={"kind": "idx", "images": str(tmp_path / "no.idx"),
                     "labels": str(tmp_path / "no2.idx")},
            model={"widths": None})
        model = tmp_path / "model.json"
        save_checkpoint(model, KanModel.create([2, 4, 1], seed=0), "clean", "hash", 0)
        out = tmp_path / "runs"
        assert main(["verify", "--config", cfg, "--detector-ckpt", str(model),
                     "--suspect-ckpt", str(model), "--tau", "1.5",
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_bad_attack_ratio_exits_2_before_loading_data(self, tmp_path, capsys):
        # Neither the IDX pair nor the checkpoint exists: loading the pair would exit 3.
        cfg = write_config(
            tmp_path / "c.json", task="classification",
            dataset={"kind": "idx", "images": str(tmp_path / "no.idx"),
                     "labels": str(tmp_path / "no2.idx")},
            model={"widths": None})
        out = tmp_path / "runs"
        assert main(["attack", "--config", cfg, "--wm-ckpt", str(tmp_path / "no.json"),
                     "--kind", "prune", "--ratio", "1.5", "--out", str(out)]) == 2
        assert "attack.ratio must be number (numbers in [0, 1]), got 1.5" in \
            capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def verify_with_tau(tmp_path, tau: str) -> int:
        """Exit code of ``verify --tau tau`` on fresh 2-4-1 and 4-8-2 models."""
        cfg = write_config(tmp_path / "c.json")
        suspect, detector = tmp_path / "kan.json", tmp_path / "mlp.json"
        save_checkpoint(suspect, KanModel.create([2, 4, 1], seed=0), "clean", "hash", 0)
        save_checkpoint(detector, MlpModel.create([4, 8, 2], seed=0), "detector", "hash", 0)
        return main(["verify", "--config", cfg, "--detector-ckpt", str(detector),
                     "--suspect-ckpt", str(suspect), "--tau", tau,
                     "--out", str(tmp_path / "runs")])

    def test_verify_accepts_tau_zero(self, tmp_path, capsys):
        assert self.verify_with_tau(tmp_path, "0") == 0
        assert "(tau 0%) -> decision WATERMARKED" in capsys.readouterr().out

    def test_verify_accepts_tau_one(self, tmp_path, capsys):
        assert self.verify_with_tau(tmp_path, "1") == 0
        assert "(tau 100%) -> decision" in capsys.readouterr().out

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

    def test_dimension_mismatch_exit_code(self, tmp_path, capsys):
        # model.widths must start at the data's column count
        fresh = tmp_path / "fresh"
        assert main(["train-clean", "--config", write_config(
            tmp_path / "c.json", model={"widths": [3, 4, 1]}), "--out", str(fresh)]) == 4
        assert "config widths start at 3, data has 2 columns" in capsys.readouterr().err
        assert not fresh.exists()
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

    def test_detector_for_another_layer_exit_code(self, tmp_path, capsys):
        # a detector trained on another layer's outputs expects another width
        # than layer 0's; verify's width check rejects it
        model = tmp_path / "model.json"
        save_checkpoint(model, KanModel.create([2, 4, 1], seed=0), "watermarked",
                        "hash", 0)
        detector = tmp_path / "detector.json"
        save_checkpoint(detector, MlpModel.create([1, 8, 2], seed=0), "detector",
                        "hash", 0)
        out = tmp_path / "runs"
        assert main(["verify", "--config", write_config(tmp_path / "c.json"),
                     "--detector-ckpt", str(detector), "--suspect-ckpt", str(model),
                     "--out", str(out)]) == 4
        assert not out.exists()
        # a KAN where the detector's MLP belongs
        assert main(["verify", "--config", write_config(tmp_path / "c.json"),
                     "--detector-ckpt", str(model), "--suspect-ckpt", str(model),
                     "--out", str(out)]) == 4
        assert f"{model}: expected kind 'mlp', got 'kan'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "attack", "embed"])
    def test_overflowing_model_exits_4_and_writes_nothing(self, tmp_path, capsys,
                                                          command):
        # finite parameters whose layer-0 activations overflow
        model = KanModel.create([2, 4, 1], seed=0)
        model.params *= 1e306
        suspect = tmp_path / "model.json"
        save_checkpoint(suspect, model, "watermarked", "hash", 0)
        detector = tmp_path / "detector.json"
        save_checkpoint(detector, MlpModel.create([4, 8, 2], seed=0), "detector",
                        "hash", 0)
        flags = {"verify": ["--detector-ckpt", str(detector), "--suspect-ckpt",
                            str(suspect)],
                 "attack": ["--wm-ckpt", str(suspect), "--kind", "prune"],
                 "embed": ["--clean-ckpt", str(suspect)]}[command]
        out = tmp_path / "runs"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main([command, "--config", write_config(tmp_path / "c.json"),
                         "--out", str(out), *flags]) == 4
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_span_that_overflows(self, tmp_path, capsys):
        span = {"t_min": -1e308, "t_max": 1e308}
        cfg = write_config(tmp_path / "c.json", grid=span)
        out = tmp_path / "runs"
        assert main(["train-clean", "--config", cfg, "--out", str(out)]) == 2
        assert "config error: grid: " in capsys.readouterr().err
        # the same span in a checkpoint's grid record
        suspect = tmp_path / "model.json"
        save_checkpoint(suspect, KanModel.create([2, 4, 1], seed=0), "clean", "hash", 0)
        payload = json.loads(suspect.read_text())
        payload["layers"][0]["grid"].update(span)
        suspect.write_text(json.dumps(payload))
        detector = tmp_path / "detector.json"
        save_checkpoint(detector, MlpModel.create([4, 8, 2], seed=0), "detector",
                        "hash", 0)
        assert main(["verify", "--config", write_config(tmp_path / "c.json"),
                     "--detector-ckpt", str(detector), "--suspect-ckpt", str(suspect),
                     "--out", str(out)]) == 4
        assert "is malformed" in capsys.readouterr().err
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

    def test_mlp_training_and_sweep(self, tmp_path):
        # 8x8 random-byte images, pooled to 4x4 for the default widths [16, 8, 10]
        rng = np.random.default_rng(3)
        images, labels = str(tmp_path / "images-idx3"), str(tmp_path / "labels-idx1")
        write_idx(Dataset(2.0 * (rng.integers(0, 256, (450, 64)) / 255.0) - 1.0,
                          rng.integers(0, 10, 450)),
                  images, labels, image_shape=(8, 8))
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

    def test_sweep_table_prints_each_json_ratio(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_classify_idx()
        Path("c.json").write_text(json.dumps({**CLASSIFY, "train": {"epochs": 1}}))
        assert main(["prune-sweep", "--config", "c.json", "--step", "0.05"]) == 0
        printed = [float(line.split()[0]) for line in capsys.readouterr().out.splitlines()[1:]]
        table = json.loads(Path("runs/prune_sweep.json").read_text())
        assert printed == [row["ratio"] for row in table]
        assert len(set(printed)) == 21

    def test_sweep_creates_nested_out(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_classify_idx()
        Path("c.json").write_text(json.dumps({**CLASSIFY, "train": {"epochs": 1}}))
        assert main(["prune-sweep", "--config", "c.json", "--step", "1",
                     "--out", "a/b/c"]) == 0
        assert Path("a/b/c/prune_sweep.json").is_file()


class TestResolveDataset:
    """resolve_dataset's splits are split_dataset's of the whole loaded data,
    byte for byte, though it decodes only the rows of the splits named."""

    @staticmethod
    def write_pair(stem: str, n: int, seed: int):
        """An IDX pair of ``n`` random 4x4 byte images; returns (images, labels)."""
        rng = np.random.default_rng(seed)
        paths = (f"{stem}-images.idx", f"{stem}-labels.idx")
        write_idx(Dataset(rng.integers(0, 256, (n, 16)) / 127.5 - 1.0,
                          rng.integers(0, 10, n)), *paths, image_shape=(4, 4))
        return paths

    CASES = {
        "idx": {},
        "idx_limit": {"limit": 47},
        "idx_pool": {"pool": 2},
        "idx_limit_pool": {"limit": 47, "pool": 2},
        "idx_test_files": {"test_files": True},
        "idx_test_files_limit_pool": {"test_files": True, "limit": 23, "pool": 2},
        "feynman": None,
    }

    def config(self, case: str) -> dict:
        """The checked config of ``case``, its IDX files written to the
        working directory."""
        if self.CASES[case] is None:
            return load_config(write_config(Path("c.json")))
        dataset = {key: value for key, value in self.CASES[case].items()
                   if key != "test_files"}
        dataset["images"], dataset["labels"] = self.write_pair("train", 60, 0)
        if self.CASES[case].get("test_files"):
            dataset["test_images"], dataset["test_labels"] = self.write_pair("test", 31, 1)
        return load_config(write_config(Path("c.json"), task="classification",
                                        dataset=dataset, model={"widths": None}))

    @staticmethod
    def expected(cfg: dict) -> list[Dataset]:
        """(train, test, holdout) from whole-file loads and split_dataset."""
        ds, bundle = cfg["dataset"], SeedBundle(cfg["seed"])
        seed = derive_seed(bundle.data, "split")
        if ds["kind"] == "feynman":
            full = gen_feynman(ds["formula"], ds["n"], seed=bundle.data)
            return split_dataset(full, ds["fractions"], seed=seed)

        def load(images, labels):
            return average_pool(load_idx(images, labels, limit=ds["limit"]),
                                ds["pool"] or 1)

        if ds["test_images"]:
            return [load(ds["images"], ds["labels"]),
                    *split_dataset(load(ds["test_images"], ds["test_labels"]),
                                   [0.5, 0.5], seed=seed)]
        return split_dataset(load(ds["images"], ds["labels"]), ds["fractions"], seed=seed)

    @pytest.mark.parametrize("names", [(), ("holdout",), ("train", "test"),
                                       ("test", "holdout", "train")])
    @pytest.mark.parametrize("case", CASES)
    def test_named_splits_are_byte_equal_to_split_dataset(self, tmp_path, monkeypatch,
                                                          case, names):
        monkeypatch.chdir(tmp_path)
        cfg = self.config(case)
        want = dict(zip(SPLITS, self.expected(cfg)))
        got = resolve_dataset(cfg, SeedBundle(cfg["seed"]), *names)
        assert len(got) == len(names or SPLITS)
        for name, split in zip(names or SPLITS, got):
            for key in ("inputs", "targets"):
                a, b = getattr(split, key), getattr(want[name], key)
                assert (a.dtype, a.shape) == (b.dtype, b.shape)
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("case", ["idx", "idx_test_files_limit_pool"])
    def test_verify_decodes_only_holdout_rows(self, tmp_path, monkeypatch, case):
        monkeypatch.chdir(tmp_path)
        cfg = self.config(case)
        train, test, hold = resolve_dataset(cfg, SeedBundle(cfg["seed"]))
        width = train.inputs.shape[1]
        save_checkpoint("kan.json", KanModel.create([width, 4, 10], seed=0),
                        "clean", "hash", 0)
        save_checkpoint("mlp.json", MlpModel.create([4, 8, 2], seed=0), "detector",
                        "hash", 0)
        decoded = []

        def recording_decode_idx(pixels, labels):
            decoded.append(len(pixels))
            return decode_idx(pixels, labels)

        monkeypatch.setattr("kanmark.cli.decode_idx", recording_decode_idx)
        assert main(["verify", "--config", "c.json", "--detector-ckpt", "mlp.json",
                     "--suspect-ckpt", "kan.json", "--out", "runs"]) == 0
        assert sum(decoded) == len(hold) < len(train) + len(test) + len(hold)
        decoded.clear()
        resolve_dataset(cfg, SeedBundle(cfg["seed"]), "train", "test")
        assert sum(decoded) == len(train) + len(test)

    @pytest.mark.parametrize("defect, cause", [
        ("missing_images", "data error: cannot read train-images.idx: [Errno 2] "
                           "No such file or directory: 'train-images.idx'"),
        ("truncated_images", "data error: train-images.idx: payload needs 960 bytes, "
                             "file has 959"),
        ("bad_label_magic", "data error: train-labels.idx: magic 0x00000803, "
                            "expected 0x00000801"),
        ("labels_above_9", "data error: train-labels.idx: labels above 9 present"),
    ])
    @pytest.mark.parametrize("case", ["idx", "idx_test_files"])
    def test_damaged_train_files_fail_verify(self, tmp_path, monkeypatch, capsys, case,
                                             defect, cause):
        # verify decodes holdout rows alone, which the test files hold when
        # given, but still reads and checks the training files.
        monkeypatch.chdir(tmp_path)
        self.config(case)
        images, labels = Path("train-images.idx"), Path("train-labels.idx")
        if defect == "missing_images":
            images.unlink()
        elif defect == "truncated_images":
            images.write_bytes(images.read_bytes()[:-1])
        elif defect == "bad_label_magic":
            labels.write_bytes(images.read_bytes()[:4] + labels.read_bytes()[4:])
        else:
            labels.write_bytes(labels.read_bytes()[:-1] + b"\x0a")
        save_checkpoint("kan.json", KanModel.create([16, 4, 10], seed=0), "clean",
                        "hash", 0)
        save_checkpoint("mlp.json", MlpModel.create([4, 8, 2], seed=0), "detector",
                        "hash", 0)
        assert main(["verify", "--config", "c.json", "--detector-ckpt", "mlp.json",
                     "--suspect-ckpt", "kan.json", "--out", "runs"]) == 3
        assert capsys.readouterr().err == cause + "\n"
        assert not Path("runs").exists()


class TestParser:
    """main builds its parser once per process, on its first call."""

    def attack(self, tmp_path, *flags):
        model = tmp_path / "wm.json"
        if not model.exists():
            save_checkpoint(model, KanModel.create([2, 4, 1], seed=0), "watermarked",
                            "hash", 0)
        return main(["attack", "--config", write_config(tmp_path / "c.json"),
                     "--wm-ckpt", str(model), "--out", str(tmp_path / "runs"), *flags])

    def test_parser_is_built_on_the_first_call_only(self, tmp_path, monkeypatch):
        build_parser.cache_clear()
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        counts = []
        for _ in range(3):
            assert main(["report", "--out", str(tmp_path)]) == 0
            counts.append(len(built))
        assert counts[0] > 0 and counts == counts[:1] * 3

    def test_no_flag_value_leaks_into_the_next_call(self, tmp_path):
        assert self.attack(tmp_path, "--kind", "prune", "--ratio", "0.3") == 0
        assert self.attack(tmp_path, "--kind", "prune") == 0
        rows = [json.loads(line) for line in
                (tmp_path / "runs" / "report.jsonl").read_text().splitlines()]
        assert [row["ratio"] for row in rows] == [0.3, 0.6]  # then the config's ratio

    def test_argparse_error_between_calls(self, tmp_path, capsys):
        assert self.attack(tmp_path, "--kind", "prune") == 0
        with pytest.raises(SystemExit) as exc:
            self.attack(tmp_path, "--kind", "bogus")
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
        assert self.attack(tmp_path, "--kind", "prune") == 0
        assert len((tmp_path / "runs" / "report.jsonl").read_text().splitlines()) == 2

    # attack (--wm-ckpt) and embed (--clean-ckpt) each need their one checkpoint
    @pytest.mark.parametrize("missing", ["--detector-ckpt", "--suspect-ckpt", "--wm-ckpt",
                                         "--clean-ckpt"])
    def test_verify_without_a_checkpoint_exits_2(self, tmp_path, capsys, missing):
        detector, suspect = tmp_path / "detector.json", tmp_path / "suspect.json"
        save_checkpoint(detector, MlpModel.create([4, 8, 2], seed=0), "detector", "hash", 0)
        save_checkpoint(suspect, KanModel.create([2, 4, 1], seed=0), "watermarked", "hash", 0)
        command, given = {"--detector-ckpt": ("verify", ["--suspect-ckpt", str(suspect)]),
                          "--suspect-ckpt": ("verify", ["--detector-ckpt", str(detector)]),
                          "--wm-ckpt": ("attack", []), "--clean-ckpt": ("embed", [])}[missing]
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", write_config(tmp_path / "c.json"),
                  "--out", str(tmp_path / "runs"), *given])
        assert exc.value.code == 2
        assert f"the following arguments are required: {missing}" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_no_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert "the following arguments are required: command" in capsys.readouterr().err

    def test_help_is_the_same_on_every_call(self, capsys):
        build_parser.cache_clear()
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--help"])
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert "--suspect-ckpt" in texts[0] and texts[0] == texts[1]
