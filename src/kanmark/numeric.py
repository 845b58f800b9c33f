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
# Adam's published constants (Kingma & Ba, arXiv 1412.6980).
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8
# Rows per chunk of the passes that prepare layer 0 or rank edges over many
# rows: their temporaries are one chunk's, not n rows'.
ROW_CHUNK = 64


class ShapeError(ValueError):
    """Operand shapes (or dimensions across objects) do not line up."""


class NonFiniteError(ValueError):
    """An array that must be finite holds an inf or a nan."""


def check_floats(count: int, what: str) -> None:
    """MemoryError if ``count`` float64 values pass numpy's size limit, where
    numpy itself raises ValueError."""
    if count * 8 > np.iinfo(np.intp).max:
        raise MemoryError(f"{what} exceed the address space")


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite float64 2-D array, or raise."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"{name}: expected a 2-D array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFiniteError(f"{name}: contains non-finite entries")
    return a


def keep_masks(scores, ratio: float) -> list[np.ndarray]:
    """Boolean keep-masks, one per score array, that drop the floor(ratio * n)
    lowest of all n scores. The sort is stable over the concatenated scores,
    so ties go by array order, then row-major order."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"prune ratio must be in [0, 1], got {ratio}")
    flat = np.concatenate([np.ravel(s) for s in scores])
    # Tiny tolerance so ratios like 0.3 * 10 hit the mathematical floor.
    n_drop = int(np.floor(ratio * flat.size + 1e-9))
    keep = np.ones(flat.size, dtype=bool)
    keep[np.argsort(flat, kind="stable")[:n_drop]] = False
    return views(keep, [np.shape(s) for s in scores])


def row_chunks(n: int) -> list[slice]:
    """Consecutive slices of ROW_CHUNK rows (the last may be shorter) covering n rows."""
    return [slice(start, start + ROW_CHUNK) for start in range(0, n, ROW_CHUNK)]


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
    # exp(-|x|) is exp(-x) for x >= 0 and exp(x) below, so both branches
    # share one exp whose argument is never positive and cannot overflow.
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0.0, 1.0 / d, e / d)


def silu_slope(x, sig):
    """d/dx silu at x, given sig = sigmoid(x)."""
    return sig * (1.0 + x * (1.0 - sig))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for stability."""
    # Max is exact in any order, and a column-wise max of the transposed
    # copy takes about half the time of a row-wise max of narrow logits.
    z = logits - np.ascontiguousarray(logits.T).max(axis=0)[:, None]
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def mse_core(pred: np.ndarray, target: np.ndarray):
    """(loss, grad) of the mean squared error of two finite float64 matrices,
    grad = 2 * (pred - target) / element_count; only shapes are checked."""
    if pred.shape != target.shape:
        raise ShapeError(f"mse: shapes {pred.shape} vs {target.shape}")
    diff = pred - target
    loss = float((diff * diff).sum() / diff.size)  # np.mean, minus its wrapper
    return loss, 2.0 * diff / diff.size


def class_labels(labels, rows: int, classes: int) -> np.ndarray:
    """``labels``, whole, >= 0 and one per row, as int64; ShapeError at ``classes``."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != rows:
        raise ShapeError(f"{labels.shape} labels for {rows} rows")
    if labels.dtype.kind not in "iub" and not np.array_equal(labels, np.trunc(labels)):
        raise ValueError("class labels must be integers")
    labels = labels.astype(np.int64)
    if labels.min(initial=0) < 0:
        raise ValueError("class labels must be >= 0")
    if labels.max(initial=0) >= classes:
        raise ShapeError(f"label {labels.max()} needs more than the {classes} "
                         "outputs the model has")
    return labels


def real_targets(targets, rows: int, width: int) -> np.ndarray:
    """Finite float64 ``targets`` as a (rows, width) matrix; ShapeError if they do not fit."""
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape[:1] != (rows,) or targets.size != rows * width:
        raise ShapeError(f"{targets.shape} targets for {rows} rows of {width} outputs")
    return as_matrix(targets.reshape(rows, width), "targets")


def cross_entropy_core(logits: np.ndarray, labels: np.ndarray):
    """(loss, grad) of the mean softmax cross-entropy of finite float64 logits
    against :func:`class_labels`, grad = (softmax - one_hot) / rows; unchecked."""
    p = softmax(logits)
    rows = np.arange(logits.shape[0])
    picked = np.maximum(p[rows, labels], LOG_FLOOR)
    loss = float((-np.log(picked)).sum() / rows.size)  # np.mean, minus its wrapper
    p[rows, labels] -= 1.0
    p /= logits.shape[0]
    return loss, p


@dataclass
class OptimizerState:
    """Adam's learning rate plus the first and second moments of one flat
    parameter vector and two scratch vectors, allocated on the first step."""

    learning_rate: float = 1e-3
    step_count: int = 0
    m: np.ndarray | None = field(default=None, repr=False)
    v: np.ndarray | None = field(default=None, repr=False)
    scratch: tuple | None = field(default=None, init=False, repr=False,
                                  compare=False)

    def __post_init__(self):
        if not 0.0 <= self.learning_rate < math.inf:
            raise ValueError("Adam needs a finite learning_rate >= 0, "
                             f"got {self.learning_rate}")


def adam(lr: float = 1e-3) -> OptimizerState:
    return OptimizerState(learning_rate=lr)


def optimizer_step(params: np.ndarray, grads: np.ndarray, state: OptimizerState):
    """One bias-corrected Adam step (BETA1, BETA2, EPSILON) on a flat
    parameter vector, in place.

    Each element keeps the textbook expression order, so how parameters are
    grouped changes no result; the state's two scratch vectors hold every
    temporary."""
    if params.shape != np.shape(grads):
        raise ShapeError(f"param shape {params.shape} vs grad shape {np.shape(grads)}")
    if state.m is None:
        state.m, state.v = np.zeros_like(params), np.zeros_like(params)
    if state.scratch is None:
        state.scratch = (np.empty_like(params), np.empty_like(params))
    state.step_count += 1
    m, v, t = state.m, state.v, state.step_count
    a, b = state.scratch
    m *= BETA1
    m += np.multiply(1.0 - BETA1, grads, out=a)
    v *= BETA2
    v += np.multiply(1.0 - BETA2, np.square(grads, out=a), out=a)
    np.divide(m, 1.0 - BETA1 ** t, out=a)                # m_hat
    np.sqrt(np.divide(v, 1.0 - BETA2 ** t, out=b), out=b)  # sqrt(v_hat)
    b += EPSILON
    a *= state.learning_rate
    a /= b
    params -= a
    return params, state
