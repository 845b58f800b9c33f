"""KAN layers and models: per-edge learnable activations built from a SiLU
basis path plus a B-spline path, with exact hand-derived gradients,
first-layer activation capture, and activation-importance pruning.
"""

from __future__ import annotations

import numpy as np

from .numeric import (ROW_CHUNK, ShapeError, as_matrix, check_floats, keep_masks,
                      row_chunks, sigmoid, silu_slope, views)
from .spline import SplineGrid, basis_and_slopes, build_grid


class KanLayer:
    """One layer of per-edge activation functions.

    Edge (j, i) computes
        phi(x) = w_b[j,i] * silu(x) + w_s[j,i] * sum_m coeffs[j,i,m] * B_m(x)
    and node j outputs the sum of its incoming edges. A pruned edge has zero
    coeffs[j,i,:], w_b[j,i] and w_s[j,i] (:func:`zero_edges`), as a pruned
    MLP weight is zero. Training may regrow its w_b; its coeffs and w_s stay
    0, because each one's gradient is a multiple of the other.
    """

    def __init__(self, grid: SplineGrid, coeffs, w_b, w_s):
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.ndim != 3:
            raise ShapeError(f"coeffs must be 3-D, got shape {coeffs.shape}")
        out_dim, in_dim, m = coeffs.shape
        if m != grid.basis_count:
            raise ShapeError(f"coeffs have {m} basis columns, grid has {grid.basis_count}")
        w_b = np.asarray(w_b, dtype=np.float64)
        w_s = np.asarray(w_s, dtype=np.float64)
        if w_b.shape != (out_dim, in_dim) or w_s.shape != (out_dim, in_dim):
            raise ShapeError("w_b / w_s must be (out_dim, in_dim)")
        for name, a in (("coeffs", coeffs), ("w_b", w_b), ("w_s", w_s)):
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} contains non-finite entries")
        self.grid = grid
        self.in_dim = in_dim
        self.out_dim = out_dim
        self._bind(np.concatenate([coeffs.ravel(), w_b.ravel(), w_s.ravel()]))

    def _bind(self, params: np.ndarray) -> None:
        """Make ``params``, laid out as coeffs, w_b, w_s (each row-major),
        the storage that ``coeffs``, ``w_b`` and ``w_s`` view."""
        edges = (self.out_dim, self.in_dim)
        self.params = params
        self.coeffs, self.w_b, self.w_s = views(
            params, [(*edges, self.grid.basis_count), edges, edges])

    @classmethod
    def create(cls, in_dim: int, out_dim: int, grid: SplineGrid,
               rng: np.random.Generator) -> "KanLayer":
        """Fresh layer: spline coefficients ~ N(0, 0.1^2), unit mixing
        weights, so every edge starts close to a plain SiLU."""
        check_floats(out_dim * in_dim * grid.basis_count,
                     f"{out_dim} x {in_dim} edges of {grid.basis_count} coefficients")
        coeffs = rng.normal(0.0, 0.1, size=(out_dim, in_dim, grid.basis_count))
        w_b = np.ones((out_dim, in_dim))
        w_s = np.ones((out_dim, in_dim))
        return cls(grid, coeffs, w_b, w_s)

    def _input(self, x) -> np.ndarray:
        """x as a checked float64 (rows, in_dim) matrix, even with no rows."""
        x = as_matrix(x, "layer input")
        if x.shape[1] != self.in_dim:
            raise ShapeError(f"layer expects {self.in_dim} inputs, got {x.shape[1]}")
        return x

    def prepare(self, x) -> dict:
        """The parameter-free part of :meth:`forward`: the checked input x,
        sigmoid(x), silu(x), the basis rows B and the slope function from
        basis_and_slopes. Row r of each array depends on row r of x alone."""
        x = self._input(x)
        sig = sigmoid(x)
        b, slopes = basis_and_slopes(self.grid, x)
        return {"x": x, "sig": sig, "s": x * sig,
                "b": b.reshape(x.shape[0], x.shape[1] * self.grid.basis_count),
                "slopes": slopes}

    def prepare_rows(self, x) -> dict:
        """:meth:`prepare`'s two GEMM operands, silu(x) "s" and basis rows "b",
        of many rows, filled :data:`~kanmark.numeric.ROW_CHUNK` rows at a time
        into preallocated arrays, so its temporaries are one chunk's. They are
        byte-identical to :meth:`prepare`'s: row r depends on row r of x alone."""
        x = self._input(x)
        prepared = {"s": np.empty(x.shape),
                    "b": np.empty((x.shape[0], x.shape[1] * self.grid.basis_count))}
        for rows in row_chunks(x.shape[0]):
            chunk = self.prepare(x[rows])
            for key, a in prepared.items():
                a[rows] = chunk[key]
        return prepared

    def apply(self, prepared: dict) -> tuple[np.ndarray, dict]:
        """The two GEMMs of :meth:`forward` on a :meth:`prepare` or
        :meth:`prepare_rows` result; returns (outputs, cache-for-backward).
        A :meth:`prepare_rows` cache serves only
        ``backward(need_input_grad=False)``."""
        w = (self.w_s[:, :, None] * self.coeffs).reshape(self.out_dim, -1)
        y = prepared["s"] @ self.w_b.T + prepared["b"] @ w.T
        return y, {**prepared, "w": w}

    def forward(self, x) -> tuple[np.ndarray, dict]:
        """Batch forward; returns (outputs, cache-for-backward). The cache
        keeps what backward would otherwise recompute, no array above 2-D:
        sigmoid(x), B, W, and the slope function from basis_and_slopes."""
        return self.apply(self.prepare(x))

    def backward(self, cache: dict, gy: np.ndarray, need_input_grad: bool = True):
        """Gradients of a scalar loss given upstream d(loss)/d(outputs).

        Returns (d_params laid out like ``params``, d_inputs). ``d_inputs``
        is None when ``need_input_grad`` is False (first layer of a model).
        The cache holds values of the parameters that forward saw, so do not
        change them between the two calls.
        """
        if cache is None or "b" not in cache:
            raise ValueError("missing forward cache")
        b = cache["b"]
        gy = np.asarray(gy, dtype=np.float64)
        if gy.shape != (b.shape[0], self.out_dim):
            raise ShapeError(f"upstream grad shape {gy.shape} does not match "
                             f"cached batch ({b.shape[0]}, {self.out_dim})")
        g = (gy.T @ b).reshape(self.coeffs.shape)
        g_coeffs = self.w_s[:, :, None] * g
        g_ws = (g * self.coeffs).sum(axis=-1)
        gx = None
        if need_input_grad:
            x, db = cache["x"], cache["slopes"]()
            gb = (gy @ cache["w"]).reshape(db.shape)
            gx = silu_slope(x, cache["sig"]) * (gy @ self.w_b) \
                + (gb * db).sum(axis=-1).reshape(x.shape)
        grads = [g_coeffs, gy.T @ cache["s"], g_ws]
        return np.concatenate([a.ravel() for a in grads]), gx

    def copy(self) -> "KanLayer":
        return KanLayer(self.grid, self.coeffs, self.w_b, self.w_s)


class KanModel:
    """Stack of KanLayers; adjacent layer widths must chain. Each layer views
    its slice of ``params``, so it belongs to the last model built from it."""

    def __init__(self, layers):
        layers = list(layers)
        if not layers:
            raise ValueError("model needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if a.out_dim != b.in_dim:
                raise ShapeError(f"layer widths do not chain: {a.out_dim} -> {b.in_dim}")
        self.layers = layers
        self.params = np.concatenate([layer.params for layer in layers])
        for layer, params in zip(layers, views(self.params, [layer.params.shape
                                                             for layer in layers])):
            layer._bind(params)

    @classmethod
    def create(cls, widths, grid: SplineGrid | None = None, seed: int = 0) -> "KanModel":
        grid = grid if grid is not None else build_grid()
        rng = np.random.default_rng(seed)
        return cls([KanLayer.create(a, b, grid, rng)
                    for a, b in zip(widths, widths[1:])])

    @property
    def widths(self) -> list[int]:
        return [self.layers[0].in_dim] + [layer.out_dim for layer in self.layers]

    def forward(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Full forward pass; returns (output, first-layer outputs)."""
        out, caches = self.forward_with_cache(x)
        # Layer 1 caches its input, which is layer 0's output array.
        return out, (caches[1]["x"] if len(caches) > 1 else out)

    def forward_with_cache(self, x):
        """Forward pass keeping per-layer caches for :meth:`backward`;
        returns (output, caches). ``x`` is a batch of model inputs, or layer
        0's :meth:`KanLayer.prepare` result for one, whose input was checked
        when it was prepared."""
        first, *rest = self.layers
        x, cache = first.apply(x) if isinstance(x, dict) else first.forward(x)
        caches = [cache]
        for layer in rest:
            x, cache = layer.forward(x)  # each layer checks its own input
            caches.append(cache)
        return x, caches

    def backward(self, caches, g_out: np.ndarray) -> np.ndarray:
        """Exact gradient of the loss, laid out like ``params``."""
        if caches is None or len(caches) != len(self.layers):
            raise ValueError("caches do not match model layers")
        per_layer = [None] * len(self.layers)
        g = g_out
        for k in range(len(self.layers) - 1, -1, -1):
            per_layer[k], g = self.layers[k].backward(caches[k], g,
                                                      need_input_grad=(k > 0))
        return np.concatenate(per_layer)

    def predict(self, x) -> np.ndarray:
        return self.forward(x)[0]

    def copy(self) -> "KanModel":
        return KanModel([layer.copy() for layer in self.layers])


def edge_importances(model: KanModel, calibration) -> list[np.ndarray]:
    """Mean |edge activation| of every layer over a calibration batch of
    model inputs, one (out_dim, in_dim) array per layer.

    The batch is checked once. Each layer prepares its rows once
    (:meth:`KanLayer.prepare_rows`), scores its edges on them and forwards
    them to the next layer, so each layer is scored on what it actually
    sees; the last layer's outputs are never computed. A
    :func:`~kanmark.numeric.row_chunks` slice of rows is scored by one
    batched GEMM into reused buffers: input i's [B_i | silu(x_i)]
    (rows x (m+1)) times its block of ``w``, the w_s-scaled coeffs[:, i, :]
    over w_b[:, i] ((m+1) x out), so edges[i, r, j] is edge (j, i) on row r.
    The rows of |edges| are added in order into one sum.
    """
    h = as_matrix(calibration, "calibration")
    n = h.shape[0]
    if n == 0:
        raise ValueError("calibration batch is empty")
    scores = []
    for k, layer in enumerate(model.layers):
        prepared = layer.prepare_rows(h)
        m, ins, outs = layer.grid.basis_count, layer.in_dim, layer.out_dim
        w = np.empty((ins, m + 1, outs))
        np.multiply(layer.w_s.T[:, None, :], layer.coeffs.transpose(1, 2, 0), out=w[:, :m])
        w[:, m] = layer.w_b.T
        size = ins * min(n, ROW_CHUNK)
        operand, out = np.empty(size * (m + 1)), np.empty(size * outs)
        total = np.zeros((ins, outs))
        for rows in row_chunks(n):
            s = prepared["s"][rows]
            a = operand[:s.size * (m + 1)].reshape(ins, len(s), m + 1)
            a[:, :, :m] = prepared["b"][rows].reshape(len(s), ins, m).transpose(1, 0, 2)
            a[:, :, m] = s.T
            edges = np.matmul(a, w, out=out[:s.size * outs].reshape(ins, len(s), outs))
            for row in np.abs(edges, out=edges).transpose(1, 0, 2):
                total += row
        scores.append(np.ascontiguousarray(total.T) / n)
        if k + 1 < len(model.layers):
            h = layer.apply(prepared)[0]
    return scores


def zero_edges(model: KanModel, keeps) -> KanModel:
    """Prune ``model`` in place: zero coeffs, w_b and w_s of each edge that
    ``keeps`` (one boolean (out_dim, in_dim) array per layer) marks False."""
    for layer, keep in zip(model.layers, keeps):
        for a in (layer.coeffs, layer.w_b, layer.w_s):
            a[~keep] = 0.0
    return model


def prune_kan(model: KanModel, ratio: float, calibration) -> KanModel:
    """Zero the globally least-important floor(ratio * edge_count) edges,
    ranked ascending by mean |activation| across all layers with ties broken
    by (layer, output, input) order (:func:`keep_masks`). Returns a new
    model; the input is untouched."""
    keeps = keep_masks(edge_importances(model, calibration), ratio)
    return zero_edges(model.copy(), keeps)
