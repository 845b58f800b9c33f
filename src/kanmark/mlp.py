"""Plain fully-connected networks with ReLU hidden activations and
hand-derived gradients. Used as the pruning-study baseline and as the
watermark detector.
"""

from __future__ import annotations

import numpy as np

from .numeric import ShapeError, as_matrix, keep_masks, views


class MlpModel:
    """Affine -> relu per hidden layer, final affine raw. ``weights`` and
    ``biases`` view ``params``, laid out as w0, b0, w1, b1, ... row-major."""

    def __init__(self, weights, biases):
        if len(weights) != len(biases) or not weights:
            raise ShapeError("weights and biases must be parallel, non-empty lists")
        weights = [np.asarray(w, dtype=np.float64) for w in weights]
        biases = [np.asarray(b, dtype=np.float64) for b in biases]
        for k, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[0]:
                raise ShapeError(f"layer {k}: weight {w.shape} / bias {b.shape}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {k}: non-finite parameters")
        for a, b in zip(weights, weights[1:]):
            if b.shape[1] != a.shape[0]:
                raise ShapeError(f"layer shapes do not chain: {a.shape} -> {b.shape}")
        arrays = [a for pair in zip(weights, biases) for a in pair]
        self.params = np.concatenate([a.ravel() for a in arrays])
        arrays = views(self.params, [a.shape for a in arrays])
        self.weights, self.biases = arrays[0::2], arrays[1::2]

    @classmethod
    def create(cls, widths, seed: int = 0) -> "MlpModel":
        """He-initialized weights, zero biases."""
        rng = np.random.default_rng(seed)
        weights = [rng.normal(0.0, np.sqrt(2.0 / a), size=(b, a))
                   for a, b in zip(widths, widths[1:])]
        biases = [np.zeros(b) for b in widths[1:]]
        return cls(weights, biases)

    @property
    def widths(self) -> list[int]:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    def forward(self, x) -> np.ndarray:
        """Forward pass of any input, checked finite and 2-D."""
        out, _ = self.forward_with_cache(as_matrix(x, "mlp input"))
        return out

    def forward_with_cache(self, x: np.ndarray):
        """Forward pass of a finite float64 matrix, only its width checked;
        the cache holds each layer's input, which for a hidden layer is the
        previous layer's in-place ReLU output."""
        if x.shape[1] != self.weights[0].shape[1]:
            raise ShapeError(f"mlp expects {self.weights[0].shape[1]} inputs, "
                             f"got {x.shape[1]}")
        h, inputs = x, []
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            inputs.append(h)
            h = h @ w.T
            h += b
            if k != len(self.weights) - 1:
                np.maximum(h, 0.0, out=h)
        return h, {"inputs": inputs}

    def backward(self, cache: dict, g_out: np.ndarray) -> np.ndarray:
        """Gradient laid out like ``params`` given d(loss)/d(output)."""
        if cache is None or "inputs" not in cache:
            raise ValueError("missing forward cache")
        inputs = cache["inputs"]
        g = np.asarray(g_out, dtype=np.float64)
        if g.shape != (inputs[0].shape[0], self.weights[-1].shape[0]):
            raise ShapeError(f"upstream grad shape {g.shape} does not match "
                             f"{inputs[0].shape[0]} rows of {self.widths[-1]} outputs")
        grads = [None] * (2 * len(self.weights))
        for k in range(len(self.weights) - 1, -1, -1):
            if k != len(self.weights) - 1:
                # g is a fresh g @ W here; relu(z) > 0 exactly where z > 0.
                np.multiply(g, inputs[k + 1] > 0.0, out=g)
            grads[2 * k] = g.T @ inputs[k]
            grads[2 * k + 1] = g.sum(axis=0)
            if k > 0:
                g = g @ self.weights[k]
        return np.concatenate([a.ravel() for a in grads])

    def predict(self, x) -> np.ndarray:
        return self.forward(x)

    def copy(self) -> "MlpModel":
        return MlpModel(self.weights, self.biases)


def prune_mlp(model: MlpModel, ratio: float) -> MlpModel:
    """Global magnitude pruning: zero the floor(ratio * W) smallest-|w|
    weights across all weight matrices; biases untouched; ties broken by
    traversal (layer-major, row-major) order. Returns a new model.
    """
    keeps = keep_masks([np.abs(w) for w in model.weights], ratio)
    pruned = model.copy()
    for w, keep in zip(pruned.weights, keeps):
        w *= keep
    return pruned
