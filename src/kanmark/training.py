"""Shared training step, training loop and evaluation helpers for KAN and
MLP models."""

from __future__ import annotations

import numpy as np

from .data import epoch_batches
from .numeric import as_matrix, cross_entropy_loss, mse_loss, optimizer_step

TASKS = ("classification", "regression")

# A batch loss this many times the run's first batch loss counts as diverged.
DIVERGENCE_FACTOR = 1e6


class DivergenceError(ValueError):
    """A training run's batch loss became non-finite or exploded."""


def check_divergence(loss: float, first: float) -> None:
    """Raises DivergenceError when a batch loss is non-finite or exceeds
    DIVERGENCE_FACTOR times the run's (positive) first batch loss."""
    if not np.isfinite(loss) or (first > 0 and loss > DIVERGENCE_FACTOR * first):
        raise DivergenceError(f"training diverged: batch loss {loss:.4g}, "
                              f"first batch loss {first:.4g}")


def task_loss(out: np.ndarray, targets, task: str):
    """(loss, d(loss)/d(out)) of the main task: cross-entropy against integer
    labels, or MSE against targets reshaped like ``out``."""
    if task == "classification":
        return cross_entropy_loss(out, targets)
    if task == "regression":
        return mse_loss(out, np.asarray(targets, dtype=np.float64).reshape(out.shape))
    raise ValueError(f"unknown task {task!r}")


def train_step(model, x, y, task: str, opt) -> float:
    """One gradient step of a KanModel or MlpModel on the main-task loss;
    returns the loss before the step."""
    out, cache = model.forward_with_cache(x)
    loss, g = task_loss(out, y, task)
    optimizer_step(model.params, model.backward(cache, g), opt)
    return loss


def fit(model, inputs, targets, task: str, epochs: int, opt,
        batch_size: int = 64, seed: int = 0) -> list[float]:
    """Train in place for the given epochs; returns mean loss per epoch.

    Batch order is a seeded shuffle, so the whole run is deterministic in
    (model state, seed). Raises DivergenceError (see :func:`check_divergence`)
    as soon as a batch loss diverges.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    inputs = as_matrix(inputs, "inputs")
    targets = np.asarray(targets)
    if inputs.shape[0] == 0:
        raise ValueError("empty training data")
    if targets.shape[0] != inputs.shape[0]:
        raise ValueError("one target per input row required")
    rng = np.random.default_rng(seed)
    history, first = [], None
    for _ in range(epochs):
        losses = []
        for idx in epoch_batches(inputs.shape[0], batch_size, rng):
            loss = train_step(model, inputs[idx], targets[idx], task, opt)
            first = loss if first is None else first
            check_divergence(loss, first)
            losses.append(loss)
        history.append(float(np.mean(losses)))
    return history


def accuracy(logits: np.ndarray, labels) -> float:
    """Fraction of rows whose argmax matches the label."""
    return float(np.mean(np.argmax(logits, axis=1) == np.asarray(labels)))


def rmse(pred: np.ndarray, targets) -> float:
    diff = pred.ravel() - np.asarray(targets, dtype=np.float64).ravel()
    return float(np.sqrt(np.mean(diff * diff)))


def evaluate(model, inputs, targets, task: str) -> dict:
    """Loss plus accuracy (classification) or RMSE (regression)."""
    out = model.predict(inputs)
    loss, _ = task_loss(out, targets, task)
    if task == "classification":
        return {"loss": loss, "accuracy": accuracy(out, targets)}
    return {"loss": loss, "rmse": rmse(out, targets)}
