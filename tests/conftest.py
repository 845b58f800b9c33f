"""Shared fixtures: the desk-scale digits dataset (written and re-read
through the IDX pathway) and the classification watermark pipeline reused
across watermark, attack, and acceptance tests."""

import numpy as np
import pytest

from kanmark import Dataset, load_idx, split_dataset, write_idx
from kanmark.cli import check_config
from kanmark.pipeline import (CALIBRATION_ROWS, build_detector, embed_watermark,
                              train_clean)

# Desk-scale classification run shared by the pipeline tests (criteria 4-6).
CLASS_SETUP = {
    "hidden": 32,
    "clean_epochs": 50,
    "lr": 1e-3,
    "batch": 64,
    "wm_epochs": 8,
    "wm_lr_main": 2e-3,
    "wm_lr_wm": 1e-3,
    "amplitude_scale": 0.3,
    "det_hidden": (64, 32),
    "det_epochs": 50,
    "det_lr": 1e-3,
    "n_shuffles": 10,
    "det_samples": 2000,
}


@pytest.fixture(scope="session")
def digits_idx(tmp_path_factory):
    """sklearn digits written out as an IDX pair (the desk MNIST stand-in)."""
    sklearn_datasets = pytest.importorskip("sklearn.datasets")
    raw = sklearn_datasets.load_digits()
    inputs = 2.0 * (raw.data / 16.0) - 1.0
    ds = Dataset(inputs, raw.target.astype(np.int64))
    root = tmp_path_factory.mktemp("digits")
    images, labels = root / "digits-images-idx3", root / "digits-labels-idx1"
    write_idx(ds, images, labels, image_shape=(8, 8))
    return str(images), str(labels)


@pytest.fixture(scope="session")
def digits_splits(digits_idx):
    ds = load_idx(*digits_idx)
    return split_dataset(ds, (0.7, 0.15, 0.15), seed=11)


def class_config(images, labels):
    """The merged, checked config of the desk run: CLASS_SETUP on the IDX
    pair of ``images`` and ``labels``."""
    s = CLASS_SETUP
    return check_config({
        "dataset": {"images": images, "labels": labels},
        "model": {"hidden": s["hidden"]},
        "train": {"epochs": s["clean_epochs"], "lr": s["lr"], "batch_size": s["batch"]},
        "watermark": {"epochs": s["wm_epochs"], "lr_main": s["wm_lr_main"],
                      "lr_wm": s["wm_lr_wm"], "amplitude_scale": s["amplitude_scale"]},
        "detector": {"hidden": list(s["det_hidden"]), "epochs": s["det_epochs"],
                     "lr": s["det_lr"], "n_shuffles": s["n_shuffles"],
                     "n_samples": s["det_samples"]},
    })


@pytest.fixture(scope="session")
def class_pipeline(digits_idx, digits_splits):
    """Clean model, watermarked model, and detector at the desk config."""
    train, test, hold = digits_splits
    cfg = class_config(*digits_idx)
    clean = train_clean("kan", cfg, train, init_seed=101, fit_seeds=[102])
    wm, signal = embed_watermark(clean, cfg, train, key=777, seed=103)
    detector = build_detector(wm, clean, cfg, train, data_seed=104, train_seed=105)
    return {"train": train, "test": test, "hold": hold, "clean": clean,
            "wm": wm, "signal": signal, "detector": detector,
            "calibration": train.inputs[:CALIBRATION_ROWS]}
