"""Watermark-removal attacks: fine-tuning, and the KAN-vs-MLP pruning
fragility sweep. Pruning is :func:`~kanmark.kan.prune_kan`, and retraining
after pruning is :func:`finetune` of its result.

Attacks never change architecture; each returns a new model and leaves its
input untouched.
"""

from __future__ import annotations

import numpy as np

from .kan import KanModel, edge_importances, zero_edges
from .mlp import MlpModel, prune_mlp
from .numeric import adam, keep_masks
from .training import evaluate, fit

SMALL_LR = 1e-3


def finetune(model: KanModel, inputs, targets, task: str, epochs: int = 8,
             lr: float = SMALL_LR, seed: int = 0) -> KanModel:
    """Continue main-task training (no watermark phase) on a copy."""
    if lr <= 0:
        raise ValueError(f"training attacks need lr > 0, got {lr}")
    attacked = model.copy()
    fit(attacked, inputs, targets, task, epochs, adam(lr), seed=seed)
    return attacked


def check_step(step: float) -> None:
    """Raises ValueError unless the prune-sweep step lies in [0.001, 1], so
    a sweep evaluates at most 1001 ratios."""
    if not 0.001 <= step <= 1:
        raise ValueError(f"step must be in [0.001, 1], got {step}")


def prune_sweep(kan_model: KanModel, mlp_model: MlpModel, test_inputs,
                test_labels, calibration, step: float = 0.1) -> list[dict]:
    """Evaluate both models at prune ratios 0, step, ..., 1, each pruned
    fresh from the original trained model. The KAN's edges are ranked once,
    as :func:`prune_kan` ranks them."""
    check_step(step)
    count = int(np.ceil(1.0 / step - 1e-9))  # 1 / (1/3) is 3.0000000000000004
    ratios = np.round(np.arange(count + 1) * step, 10)
    scores = edge_importances(kan_model, calibration)
    rows = []
    for ratio in ratios:
        r = float(min(ratio, 1.0))
        kan_eval = evaluate(zero_edges(kan_model.copy(), keep_masks(scores, r)),
                            test_inputs, test_labels, "classification")
        mlp_eval = evaluate(prune_mlp(mlp_model, r),
                            test_inputs, test_labels, "classification")
        rows.append({"ratio": r,
                     "kan_loss": kan_eval["loss"],
                     "kan_accuracy": kan_eval["accuracy"],
                     "mlp_loss": mlp_eval["loss"],
                     "mlp_accuracy": mlp_eval["accuracy"]})
    return rows
