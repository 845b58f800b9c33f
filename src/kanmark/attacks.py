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
from .numeric import adam
from .training import evaluate, fit

SMALL_LR = 1e-3
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
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.kind != "prune" and self.lr <= 0:
            raise ValueError("training attacks need lr > 0")


def finetune(model: KanModel, inputs, targets, task: str, epochs: int = 8,
             lr: float = SMALL_LR, batch_size: int = 64,
             seed: int = 0) -> KanModel:
    """Continue main-task training (no watermark phase) on a copy."""
    attacked = model.copy()
    fit(attacked, inputs, targets, task, epochs, adam(lr),
        batch_size=batch_size, seed=seed)
    return attacked


def retrain_after_prune(model: KanModel, inputs, targets, task: str,
                        ratio: float = 0.6, lr: float = SMALL_LR,
                        epochs: int = 8, *, calibration,
                        batch_size: int = 64, seed: int = 0) -> KanModel:
    """Prune (``calibration`` ranks the edges, see :func:`prune_kan`), lift
    the masks so zeroed edges are trainable again, then continue main-task
    training."""
    attacked = lift_prune_masks(prune_kan(model, ratio, calibration))
    fit(attacked, inputs, targets, task, epochs, adam(lr),
        batch_size=batch_size, seed=seed)
    return attacked


def check_step(step: float) -> None:
    """Raises ValueError unless the prune-sweep step lies in (0, 1]."""
    if not 0 < step <= 1:
        raise ValueError(f"step must be in (0, 1], got {step}")


def prune_sweep(kan_model: KanModel, mlp_model: MlpModel, test_inputs,
                test_labels, calibration, step: float = 0.1) -> list[dict]:
    """Evaluate both models at prune ratios 0, step, ..., 1, each pruned
    fresh from the original trained model."""
    check_step(step)
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
               calibration) -> KanModel:
    """Dispatch an AttackSpec against a model; ``calibration`` ranks the
    edges of the pruning attacks."""
    if spec.kind == "finetune":
        return finetune(model, inputs, targets, task, epochs=spec.epochs,
                        lr=spec.lr, seed=spec.seed)
    if spec.kind == "prune":
        return prune_kan(model, spec.prune_ratio, calibration)
    return retrain_after_prune(model, inputs, targets, task,
                               ratio=spec.prune_ratio, lr=spec.lr,
                               epochs=spec.epochs, calibration=calibration,
                               seed=spec.seed)
