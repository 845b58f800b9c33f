"""Orthonormal 1-D DCT-II / DCT-III pair.

Forward:  X_k = s_k * sum_n x_n * cos(pi/N * (n + 1/2) * k)
Inverse:  x_n = sum_k s_k * X_k * cos(pi/N * (n + 1/2) * k)
with s_0 = sqrt(1/N) and s_k = sqrt(2/N) for k > 0. The orthonormal scaling
makes the pair exactly mutually inverse and norm-preserving, so adding p to
a spectrum moves its signal by idct(p), of norm ||p||_2.

Evaluation is direct O(N^2) through a cached cosine matrix; N here is a
layer width (tens), so no fast transform is needed.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .numeric import NonFiniteError


@lru_cache(maxsize=None)
def _dct_matrix(n: int) -> np.ndarray:
    k = np.arange(n, dtype=np.float64)[:, None]
    angles = np.pi * (np.arange(n, dtype=np.float64)[None, :] + 0.5) / n
    c = np.cos(k * angles)
    c[0] *= np.sqrt(1.0 / n)
    if n > 1:
        c[1:] *= np.sqrt(2.0 / n)
    c.setflags(write=False)
    return c


def _signals(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.size == 0:
        raise ValueError(f"{name} must be a non-empty vector or 2-D batch of rows")
    if not np.all(np.isfinite(x)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return x


def dct(x) -> np.ndarray:
    """Orthonormal DCT-II of a signal, or of each row of a 2-D batch."""
    x = _signals(x, "x")
    return x @ _dct_matrix(x.shape[-1]).T


def idct(spectrum) -> np.ndarray:
    """Exact inverse of :func:`dct` (orthonormal DCT-III)."""
    spectrum = _signals(spectrum, "spectrum")
    return spectrum @ _dct_matrix(spectrum.shape[-1])
