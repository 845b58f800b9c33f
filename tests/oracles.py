"""Independent brute-force oracles the library is checked against.

Everything here is deliberately naive (recursion, scalar loops, O(N^2)
summation) and shares no code with the package, except the training
reference and the full-tensor constructions, which compose the package's
checked public pieces, and the ShapeError that :func:`perturb` raises.
"""

import math

import numpy as np


# --- B-splines -------------------------------------------------------------

def cox_de_boor(knots, i, k, x):
    """Textbook recursive B-spline basis B_{i,k}(x)."""
    if k == 0:
        return 1.0 if knots[i] <= x < knots[i + 1] else 0.0
    left = 0.0
    if knots[i + k] != knots[i]:
        left = (x - knots[i]) / (knots[i + k] - knots[i]) * cox_de_boor(knots, i, k - 1, x)
    right = 0.0
    if knots[i + k + 1] != knots[i + 1]:
        right = ((knots[i + k + 1] - x) / (knots[i + k + 1] - knots[i + 1])
                 * cox_de_boor(knots, i + 1, k - 1, x))
    return left + right


def basis_vector_naive(grid, x):
    """All basis values at one point via the recursive oracle, with the same
    clamping convention as the library."""
    x = min(max(x, grid.t_min), grid.t_max)
    return np.array([cox_de_boor(grid.knots, i, grid.degree, x)
                     for i in range(grid.basis_count)])


def basis_derivative_naive(grid, x):
    """Right-limit derivatives of all basis functions at one point via the
    textbook formula k B_{i,k-1}/(t_{i+k}-t_i) - k B_{i+1,k-1}/(t_{i+k+1}-t_{i+1});
    0 outside [t_min, t_max], where the clamped basis is constant."""
    t, k = grid.knots, grid.degree
    if k == 0 or not grid.t_min <= x <= grid.t_max:
        return np.zeros(grid.basis_count)
    return np.array([k * cox_de_boor(t, i, k - 1, x) / (t[i + k] - t[i])
                     - k * cox_de_boor(t, i + 1, k - 1, x) / (t[i + k + 1] - t[i + 1])
                     for i in range(grid.basis_count)])


# --- DCT ---------------------------------------------------------------------

def dct_direct(x):
    n = len(x)
    out = np.zeros(n)
    for k in range(n):
        s = math.sqrt(1.0 / n) if k == 0 else math.sqrt(2.0 / n)
        acc = 0.0
        for i in range(n):
            acc += x[i] * math.cos(math.pi / n * (i + 0.5) * k)
        out[k] = s * acc
    return out


def idct_direct(spec):
    n = len(spec)
    out = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for k in range(n):
            s = math.sqrt(1.0 / n) if k == 0 else math.sqrt(2.0 / n)
            acc += s * spec[k] * math.cos(math.pi / n * (i + 0.5) * k)
        out[i] = acc
    return out


def perturb(y, p):
    """idct(dct(y) + p) through the direct transforms, for one signal or
    each row of a 2-D batch: the moving target the watermark's signal step
    pulls layer 0's outputs toward."""
    from kanmark.numeric import ShapeError

    y, p = np.asarray(y, dtype=np.float64), np.asarray(p, dtype=np.float64)
    if p.shape != y.shape[-1:]:
        raise ShapeError(f"perturb: signal shape {y.shape} vs perturbation {p.shape}")
    if y.ndim == 2:
        return np.array([perturb(row, p) for row in y])
    return idct_direct(dct_direct(y) + p)


# --- scalar activations ------------------------------------------------------

def silu_ref(x):
    return x / (1.0 + math.exp(-x)) if x >= 0 else x * math.exp(x) / (1.0 + math.exp(x))


def edge_activation_ref(layer, j, i, x):
    bv = basis_vector_naive(layer.grid, x)
    spline = sum(layer.coeffs[j, i, m] * bv[m] for m in range(layer.grid.basis_count))
    return layer.w_b[j, i] * silu_ref(x) + layer.w_s[j, i] * spline


def layer_forward_ref(layer, x):
    batch = x.shape[0]
    out = np.zeros((batch, layer.out_dim))
    for b in range(batch):
        for j in range(layer.out_dim):
            out[b, j] = sum(edge_activation_ref(layer, j, i, x[b, i])
                            for i in range(layer.in_dim))
    return out


def kan_forward_ref(model, x):
    h = x
    layer0 = None
    for k, layer in enumerate(model.layers):
        h = layer_forward_ref(layer, h)
        if k == 0:
            layer0 = h.copy()
    return h, layer0


def mlp_forward_ref(model, x):
    out = np.zeros((x.shape[0], model.weights[-1].shape[0]))
    for b in range(x.shape[0]):
        h = x[b]
        for k, (w, bias) in enumerate(zip(model.weights, model.biases)):
            z = np.array([sum(w[r, c] * h[c] for c in range(w.shape[1])) + bias[r]
                          for r in range(w.shape[0])])
            h = z if k == len(model.weights) - 1 else np.maximum(z, 0.0)
        out[b] = h
    return out


# --- watermark detector dataset -------------------------------------------------

def detector_dataset_ref(o_wm, o_clean, n_shuffles, seed):
    """Row-by-row detector dataset: per sample the watermarked row, the
    clean row, n_shuffles permutations of the first, then n_shuffles of
    the second; returns (rows, labels)."""
    rng = np.random.default_rng(seed)
    rows, labels = [], []
    for d in range(o_wm.shape[0]):
        rows += [o_wm[d], o_clean[d]]
        labels += [1, 0]
        for source, label in ((o_wm[d], 1), (o_clean[d], 0)):
            for _ in range(n_shuffles):
                rows.append(source[rng.permutation(source.size)])
                labels.append(label)
    return np.array(rows), np.array(labels)


def detector_dataset_tensor_ref(o_wm, o_clean, n_shuffles, seed):
    """The detector dataset built whole: int64 permutations of all rows from
    one rng.permuted call, then one fancy-indexed gather; (rows, labels)."""
    n, width = o_wm.shape
    outs = np.stack([o_wm, o_clean], axis=1)
    rng = np.random.default_rng(seed)
    perms = rng.permuted(np.tile(np.arange(width), (n * 2 * n_shuffles, 1)),
                         axis=1).reshape(n, 2 * n_shuffles, width)
    identity = np.broadcast_to(np.arange(width), (n, 2, width))
    columns = np.concatenate([identity, perms], axis=1)
    clean = np.repeat([0, 1, 0, 1], [1, 1, n_shuffles, n_shuffles])
    rows = outs[np.arange(n)[:, None, None], clean[None, :, None], columns]
    return rows.reshape(-1, width), np.tile(1 - clean, n).astype(np.int64)


# --- pruning -------------------------------------------------------------------

def edge_importances_tensor_ref(model, calibration):
    """Mean |edge activation| per layer from each layer's whole
    (batch, out, in) per-edge tensor, the input forwarded layer by layer:
    an einsum of the basis rows with the w_s-scaled coefficients, plus
    silu(x) * w_b."""
    from kanmark.spline import basis_and_slopes

    h, scores = np.asarray(calibration, dtype=np.float64), []
    for k, layer in enumerate(model.layers):
        if k:
            h, _ = model.layers[k - 1].forward(h)
        b = basis_and_slopes(layer.grid, h)[0].reshape(*h.shape, -1)
        edges = np.einsum("bim,jim->bji", b, layer.w_s[:, :, None] * layer.coeffs) \
            + (h / (1.0 + np.exp(-h)))[:, None, :] * layer.w_b
        scores.append(np.abs(edges).mean(axis=0))
    return scores


def prune_ref(scores, ratio):
    """Keep-masks from a Python sort over (score, layer, row, col): the
    floor(ratio * n) lowest of all n scores are dropped."""
    entries = sorted((float(s[r, c]), k, r, c) for k, s in enumerate(scores)
                     for r in range(s.shape[0]) for c in range(s.shape[1]))
    keeps = [np.ones(s.shape, dtype=bool) for s in scores]
    for _, k, r, c in entries[:math.floor(ratio * len(entries) + 1e-9)]:
        keeps[k][r, c] = False
    return keeps


# --- optimizers ----------------------------------------------------------------

def adam_scalar_ref(p0, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Hand-rolled scalar Adam loop; returns the parameter after len(grads) steps."""
    p, m, v = p0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        p -= lr * m_hat / (math.sqrt(v_hat) + eps)
    return p


def adam_ref(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam step on a flat vector in place, every temporary fresh;
    ``state`` is a dict of m, v and the step count t."""
    state["t"] += 1
    t = state["t"]
    state["m"] = beta1 * state["m"] + (1 - beta1) * grads
    state["v"] = beta2 * state["v"] + (1 - beta2) * (grads * grads)
    m_hat = state["m"] / (1 - beta1 ** t)
    v_hat = state["v"] / (1 - beta2 ** t)
    params -= lr * m_hat / (np.sqrt(v_hat) + eps)


# --- training loop --------------------------------------------------------------

def mlp_loss_grad_ref(model, x, y, loss):
    """Loss and flat gradient of an MlpModel: a forward that keeps every
    pre-activation, the textbook backward (ReLU mask from z > 0), and the
    per-array gradients concatenated in ``params`` order."""
    hs, zs, h = [], [], x
    for k, (w, b) in enumerate(zip(model.weights, model.biases)):
        hs.append(h)
        zs.append(h @ w.T + b)
        h = zs[-1] if k == len(model.weights) - 1 else np.maximum(zs[-1], 0.0)
    value, g = loss(h, y)
    grads = []
    for k in range(len(model.weights) - 1, -1, -1):
        if k != len(model.weights) - 1:
            g = g * (zs[k] > 0.0)
        grads = [g.T @ hs[k], g.sum(axis=0)] + grads
        g = g @ model.weights[k]
    return value, np.concatenate([a.ravel() for a in grads])


def train_ref(model, inputs, targets, task, epochs, lr, batch_size, seed,
              signal=None, lr_wm=None):
    """Plain reference of ``fit`` and, given a signal, of ``embed``'s loop,
    training ``model`` in place: per-batch ``inputs[idx]`` gathers from
    ``epoch_batches``, the loss core on ``class_labels``/``real_targets``,
    ``forward_with_cache`` plus ``backward`` for a KAN or
    :func:`mlp_loss_grad_ref` for an MLP, and :func:`adam_ref`. A signal
    step moves layer 0 by the closed-form output gradient
    -2 idct(P) / (rows * width). Returns the main-task Adam state."""
    from kanmark.data import epoch_batches
    from kanmark.numeric import class_labels, cross_entropy_core, mse_core, real_targets
    from kanmark.transform import idct

    def loss(out, y):
        if task == "classification":
            return cross_entropy_core(out, class_labels(y, *out.shape))
        return mse_core(out, real_targets(y, *out.shape))

    inputs, targets = np.asarray(inputs, dtype=np.float64), np.asarray(targets)
    main = {"m": np.zeros_like(model.params), "v": np.zeros_like(model.params), "t": 0}
    if signal is not None:
        layer = model.layers[0]
        wm = {"m": np.zeros_like(layer.params), "v": np.zeros_like(layer.params), "t": 0}
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        for idx in epoch_batches(inputs.shape[0], batch_size, rng):
            x, y = inputs[idx], targets[idx]
            if hasattr(model, "layers"):
                out, cache = model.forward_with_cache(x)
                _, g = loss(out, y)
                grads = model.backward(cache, g)
            else:
                _, grads = mlp_loss_grad_ref(model, x, y, loss)
            adam_ref(model.params, grads, main, lr)
            if signal is not None:
                out, cache = layer.forward(x)
                g = np.broadcast_to(-2.0 * idct(signal) / out.size, out.shape)
                grads, _ = layer.backward(cache, g, need_input_grad=False)
                adam_ref(layer.params, grads, wm, lr_wm)
    return main


# --- finite differences -----------------------------------------------------

def central_diff(f, arrays, h=1e-5):
    """Central finite-difference gradient of scalar f() w.r.t. each array,
    mutating entries in place."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat = a.ravel()
        gflat = g.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            f_plus = f()
            flat[idx] = orig - h
            f_minus = f()
            flat[idx] = orig
            gflat[idx] = (f_plus - f_minus) / (2.0 * h)
        grads.append(g)
    return grads


def assert_grads_close(analytic, numeric, rel_tol=1e-4, abs_floor=1e-8):
    """Relative comparison; entries in the finite-difference noise floor
    (absolute difference below abs_floor) pass on the absolute check."""
    for a, n in zip(analytic, numeric):
        a = np.asarray(a).ravel()
        n = np.asarray(n).ravel()
        for x, y in zip(a, n):
            if abs(x - y) < abs_floor:
                continue
            rel = abs(x - y) / max(abs(x), abs(y))
            assert rel < rel_tol, f"gradient mismatch: {x} vs {y} (rel {rel:.2e})"


# --- Feynman formulas ---------------------------------------------------------

def feynman_ref(fid, row):
    """Independent scalar evaluation of every registry formula."""
    v = [float(x) for x in row]
    if fid == "I.6.2":
        return math.exp(-v[0] ** 2 / (2 * v[1] ** 2)) / math.sqrt(2 * math.pi * v[1] ** 2)
    if fid == "I.6.2b":
        return math.exp(-(v[0] - v[1]) ** 2 / (2 * v[2] ** 2)) / math.sqrt(2 * math.pi * v[2] ** 2)
    if fid == "I.9.18":
        return v[0] / ((v[1] - 1) ** 2 + (v[2] - v[3]) ** 2 + (v[4] - v[5]) ** 2)
    if fid == "I.12.11":
        return 1 + v[0] * math.sin(v[1])
    if fid == "I.13.12":
        return v[0] * (1 / v[1] - 1)
    if fid == "I.15.3x":
        return (1 - v[0]) / math.sqrt(1 - v[1] ** 2)
    if fid == "I.16.6":
        return (v[0] + v[1]) / (1 + v[0] * v[1])
    if fid == "I.18.4":
        return (1 + v[0] * v[1]) / (1 + v[0])
    if fid == "I.26.2":
        return math.asin(v[0] * math.sin(v[1]))
    if fid == "I.27.2":
        return 1 / (1 + v[0] * v[1])
    if fid == "I.29.16":
        return math.sqrt(1 + v[0] ** 2 - 2 * v[0] * math.cos(v[1] - v[2]))
    if fid == "I.30.3":
        return math.sin(v[0] * v[1] / 2) ** 2 / math.sin(v[1] / 2) ** 2
    if fid == "I.40.1":
        return v[0] * math.exp(-v[1])
    if fid == "I.50.26":
        return math.cos(v[0]) + v[0] * math.cos(v[0]) ** 2
    if fid == "II.2.42":
        return (v[0] - 1) * v[1]
    if fid == "II.6.15a":
        return v[2] * math.sqrt(v[0] ** 2 + v[1] ** 2) / (4 * math.pi)
    if fid == "II.11.7":
        return v[0] * (1 + v[1] * math.cos(v[2]))
    if fid == "II.11.27":
        return v[0] * v[1] / (1 - v[0] * v[1] / 3)
    if fid == "II.35.18":
        return v[0] / (math.exp(v[1]) + math.exp(-v[1]))
    if fid == "II.36.38":
        return v[0] + v[1] * v[2]
    if fid == "II.38.3":
        return v[0] / v[1]
    if fid == "III.9.52":
        return v[0] * math.sin((v[1] - v[2]) / 2) ** 2 / ((v[1] - v[2]) / 2) ** 2
    if fid == "III.10.19":
        return math.sqrt(1 + v[0] ** 2 + v[1] ** 2)
    if fid == "III.17.37":
        return v[1] * (1 + v[0] * math.cos(v[2]))
    raise KeyError(fid)


# The denominators of feynman_ref that vanish somewhere on (-1, 1)^arity, as
# written there; a formula's guard must rank rows as their magnitude does.
FEYNMAN_DENOMINATORS = {
    "I.6.2": lambda v: math.sqrt(2 * math.pi * v[1] ** 2),
    "I.6.2b": lambda v: math.sqrt(2 * math.pi * v[2] ** 2),
    "I.9.18": lambda v: (v[1] - 1) ** 2 + (v[2] - v[3]) ** 2 + (v[4] - v[5]) ** 2,
    "I.13.12": lambda v: v[1],
    "I.15.3x": lambda v: math.sqrt(1 - v[1] ** 2),
    "I.16.6": lambda v: 1 + v[0] * v[1],
    "I.18.4": lambda v: 1 + v[0],
    "I.27.2": lambda v: 1 + v[0] * v[1],
    "I.30.3": lambda v: math.sin(v[1] / 2) ** 2,
    "II.11.27": lambda v: 1 - v[0] * v[1] / 3,
    "II.38.3": lambda v: v[1],
    "III.9.52": lambda v: ((v[1] - v[2]) / 2) ** 2,
}
