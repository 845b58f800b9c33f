"""Activation watermarking pipeline: keyed perturbation-signal generation,
two-phase embedding, detector dataset construction with shuffle
augmentation, and ownership verification.

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

from .kan import KanModel
from .mlp import MlpModel
from .numeric import ShapeError, adam, check_floats, optimizer_step
from .training import steps
from .transform import dct, idct


def _band(band, length: int) -> tuple[int, int]:
    """The band's (lo, hi) as ints, checked 0 <= lo <= hi < length."""
    k_lo, k_hi = int(band[0]), int(band[1])
    if not 0 <= k_lo <= k_hi < length:
        raise ValueError(f"band [{k_lo}, {k_hi}] invalid for length {length}")
    return k_lo, k_hi


def gen_signal(key: int, length: int, band, amplitude: float) -> np.ndarray:
    """The keyed perturbation P, a read-only float64 ``(length,)`` vector:
    ``amplitude * u_k`` with u_k in {-1, +1} drawn from the ``key``-seeded
    generator for k inside the band, zero elsewhere. amplitude = 0 yields the
    all-zero P, with which :func:`embed` is plain training, bit for bit."""
    k_lo, k_hi = _band(band, length)
    if not (np.isfinite(amplitude) and amplitude >= 0):
        raise ValueError(f"amplitude must be finite and >= 0, got {amplitude}")
    rng = np.random.default_rng(key)
    signs = rng.integers(0, 2, size=k_hi - k_lo + 1) * 2.0 - 1.0
    values = np.zeros(length)
    values[k_lo:k_hi + 1] = amplitude * signs
    values.setflags(write=False)
    return values


def layer_outputs(model: KanModel, x) -> np.ndarray:
    """Outputs of the watermarked (first) layer for a batch of model inputs."""
    return model.layers[0].forward(x)[0]


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


def signal_step(model: KanModel, prepared: dict, signal: np.ndarray, opt) -> None:
    """One gradient step of the first layer's outputs O toward perturb(O),
    given the first layer's prepared cache of the batch
    (:meth:`KanLayer.prepare`, or the batch that :func:`steps` yields).

    The signal loss mse(O, perturb(O)) has the constant residual
    O - perturb(O) = -idct(P) on every row, so its output gradient is
    -2 idct(P) / (rows * N) and the step needs no forward pass; the loss
    itself is the constant ||P||^2 / N and is not returned. Only the first
    layer's parameters move.
    """
    layer = model.layers[0]
    shape = (prepared["b"].shape[0], layer.out_dim)
    g_out = np.broadcast_to(-2.0 * idct(signal) / np.prod(shape), shape)
    grads, _ = layer.backward(prepared, g_out, need_input_grad=False)
    optimizer_step(layer.params, grads, opt)


def embed(model: KanModel, signal: np.ndarray, inputs, targets,
          task: str, epochs: int, lr_main: float = 1e-3,
          lr_wm: float | None = None, batch_size: int = 64,
          seed: int = 0) -> KanModel:
    """Two-phase watermark embedding of the signal P (:func:`gen_signal`);
    returns a new, watermarked model.

    Per batch: (1) a main-task step on all parameters; (2) a closed-form
    signal step (:func:`signal_step`) on the first layer only. For a zero
    P every signal gradient is +-0.0, Adam's moments and update stay +0.0,
    and subtracting +0.0 keeps every parameter bit, -0.0 included: the run
    is bit-identical to plain training under the same seed. A diverging
    main-task loss, or a forward pass that turns non-finite after any
    update, the last signal step's included, raises DivergenceError
    (:func:`steps`).
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    width = model.layers[0].out_dim
    if np.shape(signal) != (width,):
        raise ShapeError(f"signal shape {np.shape(signal)} vs layer width {width}")
    wm = model.copy()
    opt_wm = adam(lr_main if lr_wm is None else lr_wm)
    for _, batch, _ in steps(wm, inputs, targets, task, epochs, adam(lr_main),
                             batch_size, seed):
        signal_step(wm, batch, signal, opt_wm)
    return wm


def build_detector_dataset(model_wm: KanModel, model_clean: KanModel, inputs,
                           n_shuffles: int = 10,
                           seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Per sample: the watermarked and clean layer outputs, plus
    ``n_shuffles`` independent random permutations of each, labeled like
    their originals (1 watermarked, 0 clean); returns (rows, labels).

    Rows come in per-sample blocks [wm, clean, n_shuffles x wm shuffled,
    n_shuffles x clean shuffled], and the permutations are drawn in that
    order.
    """
    width = model_wm.layers[0].out_dim
    if width != model_clean.layers[0].out_dim:
        raise ShapeError("models disagree on watermarked layer width")
    if n_shuffles < 0:
        raise ValueError(f"n_shuffles must be >= 0, got {n_shuffles}")
    outs = [layer.apply(layer.prepare_rows(inputs))[0]
            for layer in (model_wm.layers[0], model_clean.layers[0])]
    n = outs[0].shape[0]
    if n == 0:
        raise ValueError("empty detector source data")
    check_floats(n * (2 + 2 * n_shuffles) * width,
                 f"{n} x {2 + 2 * n_shuffles} detector rows of {width} floats")
    rows = np.empty((n, 2 + 2 * n_shuffles, width))
    rows[:, 0], rows[:, 1] = outs
    # Copied from outs, not rows[:, :2]: numpy would buffer an overlapping source whole.
    rows[:, 2:2 + n_shuffles] = outs[0][:, None]
    rows[:, 2 + n_shuffles:] = outs[1][:, None]
    del outs
    shuffled = rows[:, 2:]
    np.random.default_rng(seed).permuted(shuffled, axis=2, out=shuffled)
    labels = np.repeat(np.array([1, 0, 1, 0], np.int64), [1, 1, n_shuffles, n_shuffles])
    return rows.reshape(-1, width), np.tile(labels, n)


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
    detector's training (caller contract). Raises ValueError on no rows.
    """
    if np.shape(test_inputs)[:1] == (0,):
        raise ValueError("verify needs at least one test row")
    outs = layer_outputs(suspect, test_inputs)
    if outs.shape[1] != detector.widths[0]:
        raise ShapeError(f"layer width {outs.shape[1]} vs detector input "
                         f"{detector.widths[0]}")
    predicted = np.argmax(detector.predict(outs), axis=1)
    rate = float(np.mean(predicted == 1))
    return VerificationResult(rate, float(tau), bool(rate >= tau))
