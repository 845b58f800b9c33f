"""The stage functions of kanmark.pipeline equal, byte for byte, the
public-API sequence they stand for, run with the same values and seeds.

The acceptance fixtures build on these stages, and criteria 4-6 skip
without scikit-learn, so this small Feynman run pins them in every suite."""

import numpy as np
import pytest

from kanmark import (KanModel, MlpModel, adam, build_detector_dataset, build_grid,
                     calibrate_amplitude, embed, fit, gen_feynman, gen_signal,
                     split_dataset)
from kanmark.cli import check_config
from kanmark.pipeline import build_detector, embed_watermark, resolve_widths, train_clean
from kanmark.watermark import default_band

# 280 training rows, so the first-256-rows calibration and the first
# n_samples detector rows are each a strict prefix.
RAW = {
    "task": "regression",
    "dataset": {"kind": "feynman", "formula": "I.12.11", "n": 400},
    "model": {"widths": [2, 5, 1]},
    "train": {"epochs": 3, "lr": 0.01, "batch_size": 32, "stages": [[2, 0.001]]},
    "watermark": {"epochs": 2, "lr_wm": 0.002},
    "detector": {"hidden": [8], "epochs": 2, "n_shuffles": 3, "n_samples": 50,
                 "batch_size": 32},
}


@pytest.fixture(scope="module")
def train():
    ds = gen_feynman("I.12.11", 400, seed=1)
    return split_dataset(ds, (0.7, 0.15, 0.15), seed=2)[0]


def test_train_clean_is_create_then_each_stage(train):
    cfg = check_config(RAW)
    for kind, ref in (("kan", KanModel.create([2, 5, 1], grid=build_grid(), seed=7)),
                      ("mlp", MlpModel.create([2, 5, 1], seed=7))):
        fit(ref, train.inputs, train.targets, "regression", 3, adam(0.01), 32, seed=8)
        fit(ref, train.inputs, train.targets, "regression", 2, adam(0.001), 32, seed=9)
        model = train_clean(kind, cfg, train, init_seed=7, fit_seeds=[8, 9])
        assert type(model) is type(ref)
        assert model.params.tobytes() == ref.params.tobytes()


@pytest.mark.parametrize("task, widths", [("classification", [7, 32, 10]),
                                          ("regression", [7, 5, 1])])
def test_resolve_widths_defaults(task, widths):
    cfg = {"task": task, "model": {"widths": None, "hidden": None}}
    assert resolve_widths(cfg, 7) == widths


def test_train_clean_needs_one_seed_per_stage(train):
    with pytest.raises(ValueError):
        train_clean("kan", check_config(RAW), train, init_seed=7, fit_seeds=[8])


@pytest.mark.parametrize("watermark", [{}, {"band": [0, 3], "alpha": 0.25,
                                            "lr_main": 0.003}],
                         ids=["defaults", "band_alpha_lr_main_set"])
def test_embed_and_detector_stages_are_the_public_sequence(train, watermark):
    cfg = check_config({**RAW, "watermark": {**RAW["watermark"], **watermark}})
    clean = KanModel.create([2, 5, 1], seed=3)
    fit(clean, train.inputs, train.targets, "regression", 2, adam(0.01), 32, seed=4)

    band = watermark.get("band", default_band(5))
    alpha = watermark.get("alpha") or calibrate_amplitude(clean, train.inputs[:256],
                                                          band, 0.3)
    signal = gen_signal(41, 5, band, alpha)
    wm = embed(clean, signal, train.inputs, train.targets, "regression", epochs=2,
               lr_main=watermark.get("lr_main", 0.01), lr_wm=0.002, batch_size=32,
               seed=42)
    rows, labels = build_detector_dataset(wm, clean, train.inputs[:50], n_shuffles=3,
                                          seed=43)
    detector = MlpModel.create([5, 8, 2], seed=44)
    fit(detector, rows, labels, "classification", 2, adam(1e-3), batch_size=32, seed=44)

    got_wm, record = embed_watermark(clean, cfg, train, key=41, seed=42)
    got_detector = build_detector(got_wm, clean, cfg, train, data_seed=43, train_seed=44)
    assert got_wm.params.tobytes() == wm.params.tobytes()
    assert got_detector.params.tobytes() == detector.params.tobytes()
    assert record == {"band": list(band), "alpha": alpha, "key": 41}
    assert not np.array_equal(got_wm.params, clean.params)

