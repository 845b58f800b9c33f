"""Activation watermarking pipeline: keyed perturbation-signal generation,
two-phase embedding, detector dataset construction with shuffle
augmentation, detector training, and ownership verification.

The watermark lives in the first layer's activation outputs: embedding
alternates a main-task step over all parameters with a signal step that
pulls the layer outputs O toward perturb(O) = idct(dct(O) + P), updating
only that layer's parameters. The DCT pair is orthonormal, so
perturb(O) - O = idct(P) on every row and the signal step has a closed
form that needs neither the transform nor the current outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import epoch_batches
from .kan import KanModel, propagate
from .mlp import MlpModel
from .numeric import ShapeError, adam, as_matrix, optimizer_step
from .training import check_divergence, fit, train_step
from .transform import dct, idct


@dataclass(frozen=True)
class PerturbationSignal:
    """Keyed sparse frequency-domain watermark vector.

    ``values[k] = amplitude * u_k`` with u_k in {-1, +1} drawn from the
    keyed generator for k inside [band_lo, band_hi], zero elsewhere.
    """

    key: int
    length: int
    band: tuple[int, int]
    amplitude: float
    values: np.ndarray


def _band(band, length: int) -> tuple[int, int]:
    """The band's (lo, hi) as ints, checked 0 <= lo <= hi < length."""
    k_lo, k_hi = int(band[0]), int(band[1])
    if not 0 <= k_lo <= k_hi < length:
        raise ValueError(f"band [{k_lo}, {k_hi}] invalid for length {length}")
    return k_lo, k_hi


def gen_signal(key: int, length: int, band, amplitude: float) -> PerturbationSignal:
    """Deterministic signed-constant perturbation on a frequency band.

    amplitude = 0 yields the all-zero signal (used to disable phase 2).
    """
    k_lo, k_hi = _band(band, length)
    if amplitude < 0:
        raise ValueError(f"amplitude must be >= 0, got {amplitude}")
    rng = np.random.default_rng(key)
    signs = rng.integers(0, 2, size=k_hi - k_lo + 1) * 2.0 - 1.0
    values = np.zeros(length)
    values[k_lo:k_hi + 1] = amplitude * signs
    values.setflags(write=False)
    return PerturbationSignal(int(key), int(length), (k_lo, k_hi),
                              float(amplitude), values)


def layer_outputs(model: KanModel, x) -> np.ndarray:
    """Outputs of the watermarked (first) layer for a batch of model inputs."""
    return propagate(model, x, 1)


def calibrate_amplitude(model: KanModel, calibration, band,
                        scale: float = 0.3) -> float:
    """scale * RMS of the in-band DCT coefficients of clean layer outputs.

    Raises ValueError unless 0 <= band[0] <= band[1] < layer width."""
    outs = layer_outputs(model, calibration)
    k_lo, k_hi = _band(band, outs.shape[1])
    in_band = dct(outs)[:, k_lo:k_hi + 1]
    return float(scale * np.sqrt(np.mean(in_band ** 2)))


def default_band(length: int) -> tuple[int, int]:
    """Mid-frequency band [N//4, N//2]: away from DC and from the fragile
    top frequencies."""
    return length // 4, min(length // 2, length - 1)


def signal_step(model: KanModel, x, signal: PerturbationSignal, opt) -> float:
    """One gradient step of the first layer's outputs O toward perturb(O).

    The signal loss mse(O, perturb(O)) has the constant residual
    O - perturb(O) = -idct(P) on every row, so its value is ||P||^2 / N and
    its output gradient is -2 idct(P) / (rows * N). Only the first layer's
    parameters move. Returns the signal loss.
    """
    layer = model.layers[0]
    out, cache = layer.forward(as_matrix(x, "inputs"))
    g_out = np.broadcast_to(-2.0 * idct(signal.values) / out.size, out.shape)
    grads, _ = layer.backward(cache, g_out, need_input_grad=False)
    optimizer_step(layer.parameters(), grads, opt)
    return float(signal.values @ signal.values / signal.length)


def embed(model: KanModel, signal: PerturbationSignal, inputs, targets,
          task: str, epochs: int, lr_main: float = 1e-3,
          lr_wm: float | None = None, batch_size: int = 64,
          seed: int = 0) -> KanModel:
    """Two-phase watermark embedding; returns a new, watermarked model.

    Per batch: (1) a main-task step on all parameters; (2) a closed-form
    signal step (:func:`signal_step`) on the first layer only. A zero
    signal skips phase 2 entirely, which makes the run bit-identical to
    plain training under the same seed. A diverging main-task loss raises
    DivergenceError.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if signal.length != model.layers[0].out_dim:
        raise ShapeError(f"signal length {signal.length} vs layer width "
                         f"{model.layers[0].out_dim}")
    inputs = as_matrix(inputs, "inputs")
    targets = np.asarray(targets)
    wm = model.copy()
    opt_main = adam(lr_main)
    opt_wm = adam(lr_main if lr_wm is None else lr_wm)
    active = bool(np.any(signal.values))
    rng = np.random.default_rng(seed)
    first = None
    for _ in range(epochs):
        for idx in epoch_batches(inputs.shape[0], batch_size, rng):
            xb = inputs[idx]
            loss = train_step(wm, xb, targets[idx], task, opt_main)
            first = loss if first is None else first
            check_divergence(loss, first)
            if active:
                signal_step(wm, xb, signal, opt_wm)
    return wm


@dataclass
class DetectorDataset:
    """Labeled activation rows: watermarked (1) vs clean (0), each original
    row accompanied by shuffled variants with the same label.

    ``provenance[r]`` indexes :attr:`TAGS`; even tags are watermarked rows.
    """

    inputs: np.ndarray
    labels: np.ndarray
    provenance: np.ndarray

    TAGS = ("wm", "clean", "wm_shuffled", "clean_shuffled")

    def validate(self) -> None:
        n = self.inputs.shape[0]
        tags = np.asarray(self.provenance)
        if self.labels.shape != (n,) or tags.shape != (n,):
            raise ShapeError("detector dataset fields disagree on row count")
        if np.any((tags < 0) | (tags >= len(self.TAGS)) | (self.labels != 1 - tags % 2)):
            raise ValueError("labels inconsistent with provenance tags")
        if int(self.labels.sum()) * 2 != n:
            raise ValueError("watermarked and clean row counts differ")

    def __len__(self) -> int:
        return self.inputs.shape[0]


def build_detector_dataset(model_wm: KanModel, model_clean: KanModel, inputs,
                           n_shuffles: int = 10, seed: int = 0) -> DetectorDataset:
    """Per sample: the watermarked and clean layer outputs, plus
    ``n_shuffles`` independent random permutations of each, labeled like
    their originals.

    Rows come in per-sample blocks [wm, clean, n_shuffles x wm shuffled,
    n_shuffles x clean shuffled], and the permutations are drawn in that
    order.
    """
    wm_dim = model_wm.layers[0].out_dim
    if wm_dim != model_clean.layers[0].out_dim:
        raise ShapeError("models disagree on watermarked layer width")
    if n_shuffles < 0:
        raise ValueError(f"n_shuffles must be >= 0, got {n_shuffles}")
    inputs = as_matrix(inputs, "inputs")
    n = inputs.shape[0]
    if n == 0:
        raise ValueError("empty detector source data")
    outs = np.stack([layer_outputs(model_wm, inputs),
                     layer_outputs(model_clean, inputs)], axis=1)
    rng = np.random.default_rng(seed)
    perms = rng.permuted(np.tile(np.arange(wm_dim), (n * 2 * n_shuffles, 1)),
                         axis=1).reshape(n, 2 * n_shuffles, wm_dim)
    identity = np.broadcast_to(np.arange(wm_dim), (n, 2, wm_dim))
    columns = np.concatenate([identity, perms], axis=1)
    tags = np.repeat(np.arange(len(DetectorDataset.TAGS), dtype=np.int8),
                     [1, 1, n_shuffles, n_shuffles])
    clean = tags % 2
    rows = outs[np.arange(n)[:, None, None], clean[None, :, None], columns]
    return DetectorDataset(rows.reshape(-1, wm_dim),
                           np.tile(1 - clean, n).astype(np.int64), np.tile(tags, n))


def train_detector(dataset: DetectorDataset, hidden=(64, 32), epochs: int = 50,
                   lr: float = 1e-3, batch_size: int = 128,
                   seed: int = 0) -> MlpModel:
    """Train the MLP detector with cross-entropy on the labeled rows."""
    if len(dataset) == 0:
        raise ValueError("empty detector dataset")
    if len(np.unique(dataset.labels)) < 2:
        raise ValueError("detector dataset must contain both classes")
    widths = [dataset.inputs.shape[1], *hidden, 2]
    detector = MlpModel.create(widths, head="logits", seed=seed)
    fit(detector, dataset.inputs, dataset.labels, "classification", epochs,
        adam(lr), batch_size=batch_size, seed=seed)
    return detector


@dataclass(frozen=True)
class VerificationResult:
    detection_rate: float
    threshold: float
    decision: bool


def verify(suspect: KanModel, detector: MlpModel, test_inputs,
           tau: float = 0.5) -> VerificationResult:
    """Fraction of test samples whose layer outputs the detector classifies
    as watermarked; ownership is claimed when the rate reaches tau.

    The test data must be unseen by both the suspect's training and the
    detector's training (caller contract).
    """
    outs = layer_outputs(suspect, test_inputs)
    if outs.shape[1] != detector.widths[0]:
        raise ShapeError(f"layer width {outs.shape[1]} vs detector input "
                         f"{detector.widths[0]}")
    predicted = np.argmax(detector.predict(outs), axis=1)
    rate = float(np.mean(predicted == 1))
    return VerificationResult(rate, float(tau), bool(rate >= tau))
