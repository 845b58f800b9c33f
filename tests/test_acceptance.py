"""Acceptance criteria, one test per criterion.

Each test prints a `[criterion N] PASS/FAIL` line with the measured values
(visible under `pytest -s` or in failure output). Budgets come from the
criteria themselves.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from kanmark import (KanModel, MlpModel, adam, dct, evaluate, fit, gen_feynman,
                     idct, load_idx, prune_kan, split_dataset, verify, write_idx)
from kanmark.attacks import finetune, prune_sweep
from kanmark.cli import check_config, main as cli_main
from kanmark.data import DataError, Dataset
from kanmark.numeric import class_labels, cross_entropy_core, mse_core, real_targets
from kanmark.pipeline import embed_watermark, train_clean
from kanmark.spline import basis_and_slopes, build_grid

from conftest import CLASS_SETUP
from oracles import (assert_grads_close, central_diff, dct_direct, idct_direct,
                     kan_forward_ref, layer_forward_ref, mlp_forward_ref)


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_numeric_correctness():
    start = time.time()
    rng = np.random.default_rng(100)

    # DCT round-trip and Parseval
    worst_rt, worst_pv = 0.0, 0.0
    for _ in range(100):
        n = int(rng.integers(1, 257))
        x = rng.normal(size=n)
        worst_rt = max(worst_rt, float(np.max(np.abs(idct(dct(x)) - x))))
        worst_pv = max(worst_pv, abs(np.linalg.norm(dct(x)) - np.linalg.norm(x)))

    # partition of unity
    grid = build_grid(3, 5, -1.0, 1.0)
    sums = basis_and_slopes(grid, rng.uniform(-1, 1, size=2000))[0].sum(axis=1)
    worst_pu = float(np.max(np.abs(sums - 1.0)))

    # analytic vs central-difference gradients, KAN and MLP
    kan = KanModel.create([3, 4, 2], seed=101)
    for layer in kan.layers:
        layer.w_b[:] = rng.normal(scale=0.5, size=layer.w_b.shape)
        layer.w_s[:] = rng.normal(scale=0.5, size=layer.w_s.shape)
    xk = rng.uniform(-0.9, 0.9, size=(4, 3))
    tk = real_targets(rng.normal(size=(4, 2)), 4, 2)
    out, caches = kan.forward_with_cache(xk)
    _, g = mse_core(out, tk)
    assert_grads_close([kan.backward(caches, g)],
                       central_diff(lambda: mse_core(kan.forward(xk)[0], tk)[0],
                                    [kan.params]), rel_tol=1e-4)

    mlp = MlpModel.create([3, 5, 4], seed=102)
    xm = rng.normal(size=(4, 3))
    ym = class_labels(rng.integers(0, 4, size=4), 4, 4)
    outm, cache = mlp.forward_with_cache(xm)
    _, gm = cross_entropy_core(outm, ym)
    assert_grads_close([mlp.backward(cache, gm)],
                       central_diff(lambda: cross_entropy_core(mlp.forward(xm), ym)[0],
                                    [mlp.params]), rel_tol=1e-4)

    elapsed = time.time() - start
    ok = worst_rt < 1e-12 and worst_pv < 1e-10 and worst_pu < 1e-9 and elapsed < 10
    report(1, ok, f"round-trip {worst_rt:.2e}, parseval {worst_pv:.2e}, "
                  f"unity {worst_pu:.2e}, gradchecks ok, {elapsed:.1f}s")
    assert worst_rt < 1e-12
    assert worst_pv < 1e-10
    assert worst_pu < 1e-9
    assert elapsed < 10


def test_criterion_2_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(200)
    worst = {"layer": 0.0, "model": 0.0, "mlp": 0.0, "dct": 0.0, "idct": 0.0}

    for i in range(20):
        layer_model = KanModel.create([3, 2], seed=300 + i)
        layer = layer_model.layers[0]
        layer.w_b[:] = rng.normal(size=layer.w_b.shape)
        layer.w_s[:] = rng.normal(size=layer.w_s.shape)
        x = rng.uniform(-1.2, 1.2, size=(3, 3))
        got, _ = layer.forward(x)
        worst["layer"] = max(worst["layer"],
                             float(np.max(np.abs(got - layer_forward_ref(layer, x)))))

        model = KanModel.create([2, 3, 2], seed=400 + i)
        xm = rng.uniform(-1, 1, size=(3, 2))
        out, layer0 = model.forward(xm)
        ref_out, ref_l0 = kan_forward_ref(model, xm)
        worst["model"] = max(worst["model"],
                             float(np.max(np.abs(out - ref_out))),
                             float(np.max(np.abs(layer0 - ref_l0))))

        mlp = MlpModel.create([4, 5, 3], seed=500 + i)
        xq = rng.normal(size=(3, 4))
        worst["mlp"] = max(worst["mlp"],
                           float(np.max(np.abs(mlp.forward(xq) - mlp_forward_ref(mlp, xq)))))

        n = int(rng.integers(1, 65))
        v = rng.normal(size=n)
        worst["dct"] = max(worst["dct"], float(np.max(np.abs(dct(v) - dct_direct(v)))))
        worst["idct"] = max(worst["idct"], float(np.max(np.abs(idct(v) - idct_direct(v)))))

    elapsed = time.time() - start
    ok = all(v < 1e-10 for v in worst.values()) and elapsed < 10
    report(2, ok, ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
           + f", {elapsed:.1f}s")
    for name, value in worst.items():
        assert value < 1e-10, name
    assert elapsed < 10


def test_criterion_3_pruning_fragility_trend(digits_splits):
    start = time.time()
    train, test, hold = digits_splits
    d = train.inputs.shape[1]
    kan = KanModel.create([d, 32, 10], seed=31)
    mlp = MlpModel.create([d, 32, 10], seed=31)
    fit(kan, train.inputs, train.targets, "classification", 10, adam(1e-3), 64, seed=32)
    fit(mlp, train.inputs, train.targets, "classification", 10, adam(1e-3), 64, seed=32)
    rows = prune_sweep(kan, mlp, test.inputs, test.targets,
                       calibration=train.inputs[:256])
    by_ratio = {round(row["ratio"], 2): row for row in rows}
    kan0 = by_ratio[0.0]["kan_accuracy"]
    mlp0 = by_ratio[0.0]["mlp_accuracy"]
    kan10 = by_ratio[0.1]["kan_accuracy"]
    mlp30 = by_ratio[0.3]["mlp_accuracy"]
    kan100 = by_ratio[1.0]["kan_accuracy"]
    mlp100 = by_ratio[1.0]["mlp_accuracy"]
    elapsed = time.time() - start

    kan_clause = kan10 < 0.6 * kan0
    mlp_clause = mlp30 >= 0.95 * mlp0
    chance_clause = abs(kan100 - 0.10) <= 0.05 and abs(mlp100 - 0.10) <= 0.05
    report(3, kan_clause and mlp_clause and chance_clause and elapsed < 600,
           f"kan {kan0:.3f}->{kan10:.3f}@10% (need <{0.6 * kan0:.3f}), "
           f"mlp {mlp0:.3f}->{mlp30:.3f}@30% (need >={0.95 * mlp0:.3f}), "
           f"100%: kan {kan100:.3f} mlp {mlp100:.3f}, {elapsed:.0f}s")
    assert elapsed < 600
    assert mlp_clause, f"MLP at 30% pruning kept {mlp30:.4f} of {mlp0:.4f}"
    assert chance_clause, f"100% pruning: kan {kan100:.4f}, mlp {mlp100:.4f}"
    # Known-red clause: ranking edges ascending by mean |activation| and
    # masking the lowest removes near-zero contributions first (the bottom
    # decile of a trained model is the never-trained tail of the init), so
    # the KAN does not collapse at a 10% pruning rate under this criterion.
    assert kan_clause, (
        f"KAN at 10% pruning kept {kan10:.4f} of {kan0:.4f} "
        f"(criterion needs < {0.6 * kan0:.4f})")


REGRESSION_FORMULAS = ("I.12.11", "II.38.3", "III.10.19")


def run_regression_pair(fid):
    """Clean (staged to its plateau) and watermarked RMSE on a test split."""
    ds = gen_feynman(fid, 3000, seed=6)
    train, test, hold = split_dataset(ds, (0.8, 0.1, 0.1), seed=6)
    cfg = check_config({
        "task": "regression",
        "dataset": {"kind": "feynman", "formula": fid, "n": 3000,
                    "fractions": [0.8, 0.1, 0.1]},
        "model": {"hidden": 5},
        "train": {"epochs": 200, "lr": 1e-3, "batch_size": 64,
                  "stages": [[100, 1e-4], [100, 1e-5]]},
        "watermark": {"epochs": 8, "lr_main": 1e-5, "lr_wm": 3e-6,
                      "amplitude_scale": 0.3},
    })
    clean = train_clean("kan", cfg, train, init_seed=1, fit_seeds=[2, 12, 13])
    rc = evaluate(clean, test.inputs, test.targets, "regression")["rmse"]
    wm, _ = embed_watermark(clean, cfg, train, key=77, seed=3)
    rw = evaluate(wm, test.inputs, test.targets, "regression")["rmse"]
    return rc, rw


def test_criterion_4_functionality_preservation(class_pipeline):
    start = time.time()
    p = class_pipeline
    clean_acc = evaluate(p["clean"], p["test"].inputs, p["test"].targets,
                         "classification")["accuracy"]
    wm_acc = evaluate(p["wm"], p["test"].inputs, p["test"].targets,
                      "classification")["accuracy"]
    drop_pts = 100.0 * (clean_acc - wm_acc)

    rels = {}
    for fid in REGRESSION_FORMULAS:
        rc, rw = run_regression_pair(fid)
        rels[fid] = abs(rw - rc) / rc
    elapsed = time.time() - start

    ok = drop_pts <= 2.0 and all(r <= 0.05 for r in rels.values()) and elapsed < 900
    report(4, ok, f"clean acc {100 * clean_acc:.2f}%, wm acc {100 * wm_acc:.2f}% "
                  f"(drop {drop_pts:.2f} pts); "
           + ", ".join(f"{fid} rel {100 * r:.2f}%" for fid, r in rels.items())
           + f", {elapsed:.0f}s")
    assert drop_pts <= 2.0
    for fid, rel in rels.items():
        assert rel <= 0.05, f"{fid}: wm RMSE {100 * rel:.2f}% off clean"
    assert elapsed < 900


def test_criterion_5_detection_power_and_false_positives(class_pipeline, digits_splits):
    start = time.time()
    p = class_pipeline
    train, test, hold = digits_splits
    wm_rate = verify(p["wm"], p["detector"], hold.inputs).detection_rate

    clean_rates = []
    base = verify(p["clean"], p["detector"], hold.inputs)
    clean_rates.append(base.detection_rate)
    decisions = [base.decision]
    s = CLASS_SETUP
    for seed in (211, 212):
        other = KanModel.create([train.inputs.shape[1], s["hidden"], 10], seed=seed)
        fit(other, train.inputs, train.targets, "classification",
            s["clean_epochs"], adam(s["lr"]), s["batch"], seed=seed + 1)
        result = verify(other, p["detector"], hold.inputs)
        clean_rates.append(result.detection_rate)
        decisions.append(result.decision)
    elapsed = time.time() - start

    ok = (wm_rate >= 0.95 and all(r <= 0.10 for r in clean_rates)
          and not any(decisions) and elapsed < 300)
    report(5, ok, f"wm rate {100 * wm_rate:.2f}%, clean rates "
           + "/".join(f"{100 * r:.2f}%" for r in clean_rates)
           + f", decisions {decisions}, {elapsed:.0f}s")
    assert wm_rate >= 0.95
    for rate in clean_rates:
        assert rate <= 0.10
    assert not any(decisions)
    assert elapsed < 300


def test_criterion_6_attack_robustness(class_pipeline):
    start = time.time()
    p = class_pipeline
    train, hold = p["train"], p["hold"]

    ft_small = finetune(p["wm"], train.inputs, train.targets, "classification",
                        epochs=8, lr=1e-3, seed=61)
    rate_small = verify(ft_small, p["detector"], hold.inputs).detection_rate

    ft_large = finetune(p["wm"], train.inputs, train.targets, "classification",
                        epochs=8, lr=1e-2, seed=62)
    rate_large = verify(ft_large, p["detector"], hold.inputs).detection_rate

    retrained = finetune(prune_kan(p["wm"], 0.6, p["calibration"]), train.inputs,
                         train.targets, "classification", epochs=8, lr=1e-3, seed=63)
    rate_retrain = verify(retrained, p["detector"], hold.inputs).detection_rate
    elapsed = time.time() - start

    ok = (rate_small >= 0.80 and rate_large >= 0.80 and rate_retrain >= 0.50
          and elapsed < 1200)
    report(6, ok, f"finetune small {100 * rate_small:.2f}%, "
                  f"large {100 * rate_large:.2f}%, "
                  f"retrain-after-prune {100 * rate_retrain:.2f}%, {elapsed:.0f}s")
    assert rate_small >= 0.80
    assert rate_large >= 0.80
    assert rate_retrain >= 0.50
    assert elapsed < 1200


def _strip_timestamps(report_path):
    rows = []
    for line in Path(report_path).read_text().splitlines():
        row = json.loads(line)
        row.pop("timestamp")
        rows.append(row)
    return rows


def test_criterion_7_determinism(tmp_path, digits_idx):
    images, labels = digits_idx
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "task": "classification",
        "dataset": {"kind": "idx", "images": images, "labels": labels,
                    "limit": 400, "fractions": [0.7, 0.15, 0.15]},
        "model": {"hidden": 8},
        "train": {"epochs": 2, "lr": 0.001, "batch_size": 32},
        "watermark": {"epochs": 1},
        "detector": {"hidden": [8], "epochs": 2, "n_shuffles": 3,
                     "n_samples": 60, "batch_size": 32},
        "seed": 12,
    }))

    def run(out):
        assert cli_main(["train-clean", "--config", str(cfg_path),
                         "--out", out]) == 0
        clean = Path(out) / "clean-kan.json"
        assert cli_main(["embed", "--config", str(cfg_path),
                         "--clean-ckpt", str(clean), "--out", out]) == 0
        wm = Path(out) / "watermarked-kan.json"
        assert cli_main(["attack", "--config", str(cfg_path), "--wm-ckpt",
                         str(wm), "--kind", "retrain", "--epochs", "1",
                         "--out", out]) == 0
        assert cli_main(["verify", "--config", str(cfg_path),
                         "--detector-ckpt", str(Path(out) / "detector-mlp.json"),
                         "--suspect-ckpt", str(wm), "--out", out]) == 0

    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    run(out_a)
    run(out_b)

    names = ["clean-kan.json", "watermarked-kan.json", "detector-mlp.json",
             "attacked-retrain_after_prune.json"]
    identical = all((Path(out_a) / n).read_bytes() == (Path(out_b) / n).read_bytes()
                    for n in names)
    reports_equal = (_strip_timestamps(Path(out_a) / "report.jsonl")
                     == _strip_timestamps(Path(out_b) / "report.jsonl"))
    report(7, identical and reports_equal,
           f"checkpoints bit-identical: {identical}, "
           f"reports identical minus timestamp: {reports_equal}")
    assert identical
    assert reports_equal


def test_criterion_8_format_fidelity(tmp_path):
    # IDX fixture round-trip, bit-exact
    rng = np.random.default_rng(800)
    pixels = rng.integers(0, 256, size=(6, 16), dtype=np.uint8)
    ds = Dataset(2.0 * (pixels.astype(float) / 255.0) - 1.0,
                 rng.integers(0, 10, size=6))
    img_a, lab_a = tmp_path / "a-img.idx", tmp_path / "a-lab.idx"
    img_b, lab_b = tmp_path / "b-img.idx", tmp_path / "b-lab.idx"
    write_idx(ds, img_a, lab_a, image_shape=(4, 4))
    loaded = load_idx(img_a, lab_a)
    write_idx(loaded, img_b, lab_b, image_shape=(4, 4))
    round_trip = (img_a.read_bytes() == img_b.read_bytes()
                  and lab_a.read_bytes() == lab_b.read_bytes())

    # malformed files raise a DataError that names the defect
    bad_magic = tmp_path / "bad-magic.idx"
    data = bytearray(img_a.read_bytes())
    data[0] = 0xFF
    bad_magic.write_bytes(bytes(data))
    with pytest.raises(DataError, match="magic 0xff000803, expected 0x00000803"):
        load_idx(bad_magic, lab_a)
    truncated = tmp_path / "trunc.idx"
    truncated.write_bytes(img_a.read_bytes()[:-4])
    with pytest.raises(DataError, match="payload needs 96 bytes, file has 92"):
        load_idx(truncated, lab_a)

    # and surface as exit code 3 at the CLI
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "task": "classification",
        "dataset": {"kind": "idx", "images": str(bad_magic),
                    "labels": str(lab_a)},
        "seed": 1,
    }))
    exit_code = cli_main(["train-clean", "--config", str(cfg),
                          "--out", str(tmp_path)])

    # checkpoint byte-stability
    from kanmark.cli import load_checkpoint, save_checkpoint
    model = KanModel.create([3, 4, 2], seed=80)
    for a in (model.layers[0].coeffs, model.layers[0].w_b, model.layers[0].w_s):
        a[0, 1] = 0.0  # a pruned edge
    p1, p2 = tmp_path / "c1.json", tmp_path / "c2.json"
    save_checkpoint(p1, model, "clean", "hash", 9)
    loaded_model, meta = load_checkpoint(p1)
    save_checkpoint(p2, loaded_model, meta["stage"], meta["config_hash"], meta["seed"])
    ckpt_stable = p1.read_bytes() == p2.read_bytes()

    ok = round_trip and exit_code == 3 and ckpt_stable
    report(8, ok, f"idx round-trip {round_trip}, bad-magic exit {exit_code}, "
                  f"checkpoint resave stable {ckpt_stable}")
    assert round_trip
    assert exit_code == 3
    assert ckpt_stable
