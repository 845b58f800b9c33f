"""The DCT-AW stages: train a clean model, embed the keyed DCT signal in
layer 0's activations, train the detector. Each takes a merged config
(:func:`kanmark.cli.check_config`), the training split and explicit integer
seeds, returns models and touches no file; :mod:`kanmark.cli` is the I/O."""

from __future__ import annotations

from .kan import KanModel
from .mlp import MlpModel
from .numeric import ShapeError, adam
from .spline import build_grid
from .training import fit
from .watermark import (build_detector_dataset, calibrate_amplitude, default_band,
                        embed, gen_signal)

# The first this many training rows calibrate the watermark amplitude and
# rank edges for pruning.
CALIBRATION_ROWS = 256


def resolve_widths(cfg: dict, input_dim: int) -> list[int]:
    if cfg["model"]["widths"]:
        widths = list(cfg["model"]["widths"])
        if widths[0] != input_dim:
            raise ShapeError(f"config widths start at {widths[0]}, "
                             f"data has {input_dim} columns")
        return widths
    if cfg["task"] == "classification":
        return [input_dim, cfg["model"]["hidden"] or 32, 10]
    return [input_dim, cfg["model"]["hidden"] or 5, 1]


def train_clean(kind: str, cfg: dict, train, init_seed: int, fit_seeds):
    """A fresh ``kan`` or ``mlp`` of the configured widths, trained for
    ``train.epochs`` at ``train.lr`` and then each ``train.stages`` pair;
    training stage i shuffles its batches with ``fit_seeds[i]``."""
    widths = resolve_widths(cfg, train.inputs.shape[1])
    model = (MlpModel.create(widths, seed=init_seed) if kind == "mlp" else
             KanModel.create(widths, grid=build_grid(**cfg["grid"]), seed=init_seed))
    tr = cfg["train"]
    for (epochs, lr), seed in zip([(tr["epochs"], tr["lr"]), *(tr["stages"] or [])],
                                  fit_seeds, strict=True):
        fit(model, train.inputs, train.targets, cfg["task"], epochs, adam(lr),
            batch_size=tr["batch_size"], seed=seed)
    return model


def embed_watermark(clean: KanModel, cfg: dict, train, key: int, seed: int):
    """The watermarked copy of ``clean`` (:func:`embed` shuffling with
    ``seed``) and its signal's ``{band, alpha, key}``. The band defaults to
    :func:`default_band` of layer 0, alpha to one calibrated on the first
    :data:`CALIBRATION_ROWS` training rows, lr_main to train.lr; a band
    outside layer 0 raises ValueError."""
    wm_cfg = cfg["watermark"]
    n_sig = clean.layers[0].out_dim
    band = wm_cfg["band"] or default_band(n_sig)
    alpha = wm_cfg["alpha"]
    if alpha is None:
        alpha = calibrate_amplitude(clean, train.inputs[:CALIBRATION_ROWS], band,
                                    scale=wm_cfg["amplitude_scale"])
    lr_main = wm_cfg["lr_main"] if wm_cfg["lr_main"] is not None else cfg["train"]["lr"]
    wm = embed(clean, gen_signal(key, n_sig, band, alpha), train.inputs, train.targets,
               cfg["task"], epochs=wm_cfg["epochs"], lr_main=lr_main,
               lr_wm=wm_cfg["lr_wm"], batch_size=cfg["train"]["batch_size"], seed=seed)
    return wm, {"band": list(band), "alpha": float(alpha), "key": int(key)}


def build_detector(wm: KanModel, clean: KanModel, cfg: dict, train,
                   data_seed: int, train_seed: int) -> MlpModel:
    """The MLP detector of ``wm`` against ``clean`` on the first ``n_samples``
    training rows, shuffled with ``data_seed``; ``train_seed`` draws its
    initialization and shuffles its cross-entropy batches."""
    det = cfg["detector"]
    rows, labels = build_detector_dataset(wm, clean, train.inputs[:det["n_samples"]],
                                          n_shuffles=det["n_shuffles"], seed=data_seed)
    detector = MlpModel.create([rows.shape[1], *det["hidden"], 2], seed=train_seed)
    fit(detector, rows, labels, "classification", det["epochs"], adam(det["lr"]),
        batch_size=det["batch_size"], seed=train_seed)
    return detector
