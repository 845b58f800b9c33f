"""Shared training step, training loop and evaluation helpers for KAN and
MLP models."""

from __future__ import annotations

import math

import numpy as np

from .data import epoch_batches
from .kan import KanModel
from .numeric import (NonFiniteError, as_matrix, class_labels, cross_entropy_core,
                      mse_core, optimizer_step, real_targets)

# A batch loss this many times the run's first batch loss counts as diverged.
DIVERGENCE_FACTOR = 1e6
# Most bytes of layer-0 arrays (silu and basis rows of every input) that
# :func:`steps` prepares once per run; above it, it prepares each batch.
PREPARED_BYTES_MAX = 256 * 2**20


class DivergenceError(ValueError):
    """A training run's forward pass or batch loss became non-finite, or its
    loss exploded."""


def check_divergence(loss: float, first: float) -> None:
    """Raises DivergenceError when a batch loss is non-finite or exceeds
    DIVERGENCE_FACTOR times the run's (positive) first batch loss."""
    if not math.isfinite(loss) or (first > 0 and loss > DIVERGENCE_FACTOR * first):
        raise DivergenceError(f"training diverged: batch loss {loss:.4g}, "
                              f"first batch loss {first:.4g}")


def checked_forward(model, x):
    """``model.forward_with_cache(x)``; raises DivergenceError when it yields
    an inf or a nan, in a hidden layer or in the output."""
    try:
        out, cache = model.forward_with_cache(x)
        as_matrix(out, "model output")
    except NonFiniteError as exc:
        raise DivergenceError(f"training diverged: {exc}") from exc
    return out, cache


def train_step(model, x, y, task: str, opt) -> float:
    """One gradient step of a KanModel or MlpModel on the main-task loss;
    returns the loss before the step. The forward pass is checked
    (:func:`checked_forward`); the task's loss core checks nothing, so ``y``
    must be as :func:`steps` passes it."""
    out, cache = checked_forward(model, x)
    loss, g = TASKS[task][1](out, y)
    optimizer_step(model.params, model.backward(cache, g), opt)
    return loss


def steps(model, inputs, targets, task: str, epochs: int, opt, batch_size: int, seed: int):
    """Train in place, yielding (epoch, batch, loss) after each step; the
    batch is the step's model input from :func:`batch_inputs`.

    The data are checked once, before the first step (ValueError): finite
    inputs, and targets by the task's check in TASKS (:func:`class_labels`
    or :func:`real_targets` of the model's output width). Batches follow a
    seeded shuffle (``epoch_batches``), and a diverging loss raises
    DivergenceError (:func:`check_divergence`).
    After the consumer's last step, the last batch's forward pass is
    checked again, so the final update is checked too.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    inputs = as_matrix(inputs, "inputs")
    n, width = inputs.shape[0], model.widths[-1]
    if n == 0:
        raise ValueError("empty training data")
    targets = TASKS[task][0](targets, n, width)
    gather = batch_inputs(model, inputs)
    rng = np.random.default_rng(seed)
    first = None
    for epoch in range(epochs):
        for idx in epoch_batches(n, batch_size, rng):
            xb = gather(idx)
            loss = train_step(model, xb, targets.take(idx, axis=0), task, opt)
            first = loss if first is None else first
            check_divergence(loss, first)
            yield epoch, xb, loss
    if first is not None:
        checked_forward(model, xb)


def batch_inputs(model, inputs: np.ndarray):
    """Function from a batch's row indices to its model input: the rows of
    ``inputs`` for an MlpModel, layer 0's :meth:`KanLayer.prepare` cache of
    them for a KanModel. Up to PREPARED_BYTES_MAX that cache is prepared
    once for all rows (:meth:`KanLayer.prepare_rows`), as the two GEMM
    operands that layer 0's forward and backward read."""
    if not isinstance(model, KanModel):
        return lambda idx: inputs.take(idx, axis=0)
    layer = model.layers[0]
    if inputs.size * (layer.grid.basis_count + 1) * 8 > PREPARED_BYTES_MAX:
        return lambda idx: layer.prepare(inputs.take(idx, axis=0))
    prepared = layer.prepare_rows(inputs)
    return lambda idx: {key: a.take(idx, axis=0) for key, a in prepared.items()}


def fit(model, inputs, targets, task: str, epochs: int, opt,
        batch_size: int = 64, seed: int = 0) -> list[float]:
    """Train in place for the given epochs (see :func:`steps`); returns the
    mean batch loss per epoch."""
    losses = {}
    for epoch, _, loss in steps(model, inputs, targets, task, epochs, opt,
                                batch_size, seed):
        losses.setdefault(epoch, []).append(loss)
    return [float(np.mean(batch_losses)) for batch_losses in losses.values()]


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose argmax matches the label."""
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def rmse(pred: np.ndarray, targets: np.ndarray) -> float:
    diff = pred.ravel() - targets.ravel()
    return float(np.sqrt(np.mean(diff * diff)))


# Per task: target check, loss core, metric name and function, report kind and scale.
TASKS = {"classification": (class_labels, cross_entropy_core, "accuracy", accuracy,
                            "accuracy_pct", 100.0),
         "regression": (real_targets, mse_core, "rmse", rmse, "rmse", 1.0)}


def evaluate(model, inputs, targets, task: str) -> dict:
    """Loss plus the task's metric (accuracy or RMSE). The model output and
    the targets are checked once, as :func:`steps` checks its data."""
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    check, core, metric, score = TASKS[task][:4]
    out = as_matrix(model.predict(inputs), "model output")
    targets = check(targets, *out.shape)
    return {"loss": core(out, targets)[0], metric: score(out, targets)}
