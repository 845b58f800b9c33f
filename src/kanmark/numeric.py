"""Float64 building blocks shared by every model: activations, losses and
the Adam optimizer.

Everything operates on plain numpy arrays. Functions are pure except
``optimizer_step``, which updates parameters and optimizer state in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Floor applied inside log() so a saturated softmax cannot produce -inf.
LOG_FLOOR = 1e-300


class ShapeError(ValueError):
    """Operand shapes (or dimensions across objects) do not line up."""


class NonFiniteError(ValueError):
    """An array that must be finite holds an inf or a nan."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite float64 2-D array, or raise."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"{name}: expected a 2-D array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError(f"{name}: contains non-finite entries")
    return a


def keep_masks(scores, ratio: float) -> list[np.ndarray]:
    """Boolean keep-masks, one per score array, that drop the floor(ratio * n)
    lowest of all n scores. The sort is stable over the concatenated scores,
    so ties go by array order, then row-major order."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"prune ratio must be in [0, 1], got {ratio}")
    flat = np.concatenate([np.ravel(s) for s in scores])
    # Tiny epsilon so ratios like 0.3 * 10 hit the mathematical floor.
    n_drop = int(np.floor(ratio * flat.size + 1e-9))
    keep = np.ones(flat.size, dtype=bool)
    keep[np.argsort(flat, kind="stable")[:n_drop]] = False
    return views(keep, [np.shape(s) for s in scores])


def views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of consecutive row-major blocks of a 1-D array, one per shape."""
    out, start = [], 0
    for shape in shapes:
        end = start + math.prod(shape)
        out.append(flat[start:end].reshape(shape))
        start = end
    return out


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    # Branch on sign so neither exp() argument is large positive; the
    # discarded branch may overflow to inf (or inf/inf) harmlessly.
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(x >= 0.0,
                        1.0 / (1.0 + np.exp(-x)),
                        np.exp(x) / (1.0 + np.exp(x)))


def silu(x):
    """x * sigmoid(x), elementwise; float in, float out."""
    arr = np.asarray(x, dtype=np.float64)
    out = arr * sigmoid(arr)
    return float(out) if out.ndim == 0 else out


def silu_grad(x):
    """d/dx silu(x) = sigmoid(x) * (1 + x * (1 - sigmoid(x)))."""
    arr = np.asarray(x, dtype=np.float64)
    s = sigmoid(arr)
    out = s * (1.0 + arr * (1.0 - s))
    return float(out) if out.ndim == 0 else out


def relu(x):
    return np.maximum(x, 0.0)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for stability."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def mse_loss(pred, target):
    """Mean squared error over all elements.

    Returns (loss, grad) with grad = 2 * (pred - target) / element_count.
    """
    pred = as_matrix(pred, "pred")
    target = as_matrix(target, "target")
    if pred.shape != target.shape:
        raise ShapeError(f"mse_loss: shapes {pred.shape} vs {target.shape}")
    diff = pred - target
    loss = float(np.mean(diff * diff))
    grad = 2.0 * diff / diff.size
    return loss, grad


def cross_entropy_loss(logits, labels):
    """Mean softmax cross-entropy against integer class labels.

    Returns (loss, grad) with grad = (softmax - one_hot) / rows.
    """
    logits = as_matrix(logits, "logits")
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ShapeError(
            f"cross_entropy_loss: {labels.shape} labels for {logits.shape[0]} rows")
    labels = labels.astype(np.int64)
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= logits.shape[1]:
        raise ValueError("cross_entropy_loss: label out of range")
    p = softmax(logits)
    rows = np.arange(logits.shape[0])
    loss = float(np.mean(-np.log(np.maximum(p[rows, labels], LOG_FLOOR))))
    grad = p.copy()
    grad[rows, labels] -= 1.0
    grad /= logits.shape[0]
    return loss, grad


@dataclass
class OptimizerState:
    """Adam hyperparameters plus the first and second moments of one flat
    parameter vector, allocated on the first step."""

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    m: np.ndarray | None = field(default=None, repr=False)
    v: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.learning_rate < 0.0:
            raise ValueError("learning_rate must be >= 0")


def adam(lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
         epsilon: float = 1e-8) -> OptimizerState:
    return OptimizerState(learning_rate=lr, beta1=beta1, beta2=beta2,
                          epsilon=epsilon)


def optimizer_step(params: np.ndarray, grads: np.ndarray, state: OptimizerState):
    """One bias-corrected Adam step on a flat parameter vector, in place.

    Each element keeps the textbook expression order, so how parameters are
    grouped changes no result; two scratch arrays hold every temporary."""
    if params.shape != np.shape(grads):
        raise ShapeError(f"param shape {params.shape} vs grad shape {np.shape(grads)}")
    if state.m is None:
        state.m, state.v = np.zeros_like(params), np.zeros_like(params)
    state.step_count += 1
    m, v, t = state.m, state.v, state.step_count
    a, b = np.empty_like(params), np.empty_like(params)
    m *= state.beta1
    m += np.multiply(1.0 - state.beta1, grads, out=a)
    v *= state.beta2
    v += np.multiply(1.0 - state.beta2, np.square(grads, out=a), out=a)
    np.divide(m, 1.0 - state.beta1 ** t, out=a)                # m_hat
    np.sqrt(np.divide(v, 1.0 - state.beta2 ** t, out=b), out=b)  # sqrt(v_hat)
    b += state.epsilon
    a *= state.learning_rate
    a /= b
    params -= a
    return params, state
