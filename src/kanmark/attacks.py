"""Watermark-removal attack executors: fine-tuning, pruning,
retrain-after-pruning, and the KAN-vs-MLP pruning fragility sweep.

Attacks never change architecture; each returns a new model and leaves its
input untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kan import KanModel, lift_prune_masks, prune_kan
from .mlp import MlpModel, prune_mlp
from .numeric import adam, as_matrix
from .training import evaluate, fit

SMALL_LR = 1e-3
LARGE_LR = 1e-2
ATTACK_KINDS = ("finetune", "prune", "retrain_after_prune")


@dataclass(frozen=True)
class AttackSpec:
    kind: str
    lr: float = SMALL_LR
    epochs: int = 8
    prune_ratio: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if self.kind != "finetune" and self.prune_ratio is None:
            raise ValueError(f"{self.kind} requires a prune_ratio")
        if self.prune_ratio is not None and not 0.0 <= self.prune_ratio <= 1.0:
            raise ValueError(f"prune ratio must be in [0, 1], got {self.prune_ratio}")
        if self.kind != "prune" and self.lr <= 0:
            raise ValueError("training attacks need lr > 0")


def finetune(model: KanModel, inputs, targets, task: str, epochs: int = 8,
             lr: float = SMALL_LR, batch_size: int = 64,
             seed: int = 0) -> KanModel:
    """Continue main-task training (no watermark phase) on a copy."""
    inputs = as_matrix(inputs, "inputs")
    if inputs.shape[0] == 0:
        raise ValueError("empty attack data")
    attacked = model.copy()
    if epochs > 0:
        fit(attacked, inputs, targets, task, epochs, adam(lr),
            batch_size=batch_size, seed=seed)
    return attacked


def prune_attack(model: KanModel, ratio: float = 0.6, calibration=None) -> KanModel:
    """Importance-prune the lowest-ranked edges (default 60%)."""
    if calibration is None:
        raise ValueError("prune attack needs a calibration batch")
    return prune_kan(model, ratio, calibration)


def retrain_after_prune(model: KanModel, inputs, targets, task: str,
                        ratio: float = 0.6, lr: float = SMALL_LR,
                        epochs: int = 8, calibration=None,
                        batch_size: int = 64, seed: int = 0) -> KanModel:
    """Prune, lift the masks so zeroed edges are trainable again, then
    continue main-task training."""
    inputs = as_matrix(inputs, "inputs")
    if calibration is None:
        calibration = inputs[:256]
    attacked = lift_prune_masks(prune_kan(model, ratio, calibration))
    if epochs > 0:
        fit(attacked, inputs, targets, task, epochs, adam(lr),
            batch_size=batch_size, seed=seed)
    return attacked


def prune_sweep(kan_model: KanModel, mlp_model: MlpModel, test_inputs,
                test_labels, calibration, step: float = 0.1) -> list[dict]:
    """Evaluate both models at prune ratios 0, step, ..., 1, each pruned
    fresh from the original trained model."""
    if not 0 < step <= 1:
        raise ValueError(f"step must be in (0, 1], got {step}")
    count = int(round(1.0 / step))
    ratios = np.round(np.arange(count + 1) * step, 10)
    rows = []
    for ratio in ratios:
        r = float(min(ratio, 1.0))
        kan_eval = evaluate(prune_kan(kan_model, r, calibration),
                            test_inputs, test_labels, "classification")
        mlp_eval = evaluate(prune_mlp(mlp_model, r),
                            test_inputs, test_labels, "classification")
        rows.append({"ratio": r,
                     "kan_loss": kan_eval["loss"],
                     "kan_accuracy": kan_eval["accuracy"],
                     "mlp_loss": mlp_eval["loss"],
                     "mlp_accuracy": mlp_eval["accuracy"]})
    return rows


def run_attack(model: KanModel, spec: AttackSpec, inputs, targets, task: str,
               calibration=None) -> KanModel:
    """Dispatch an AttackSpec against a model."""
    if spec.kind == "finetune":
        return finetune(model, inputs, targets, task, epochs=spec.epochs,
                        lr=spec.lr, seed=spec.seed)
    if spec.kind == "prune":
        if calibration is None:
            calibration = as_matrix(inputs, "inputs")[:256]
        return prune_attack(model, spec.prune_ratio, calibration)
    return retrain_after_prune(model, inputs, targets, task,
                               ratio=spec.prune_ratio, lr=spec.lr,
                               epochs=spec.epochs, calibration=calibration,
                               seed=spec.seed)
