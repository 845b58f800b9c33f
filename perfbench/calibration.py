"""Host speed, measured by fixed reference kernels between measured steps.

A shared host changes speed by 30-45% for a minute or more at a time, which
is longer than a run. The benchmark therefore times a burst of two fixed
kernels, one numpy-bound and one interpreter-bound, between the stages of
each round, and reports each stage's wall time scaled to the speed at which
the kernels take their nominal time, using the bursts on either side:

    normalised = wall * sqrt((NUMPY_NOMINAL_S / numpy_s) * (PYTHON_NOMINAL_S / python_s))

The kernels call nothing in kanmark, so a change to kanmark moves the
normalised time exactly as it moves the wall time on a steady host.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Median burst times on the host where the benchmark was defined (2-vCPU
# KVM guest, Python 3.11, numpy 2.4 with OpenBLAS on one thread). They set
# only the scale of normalised times, not their run-to-run spread.
NUMPY_NOMINAL_S = 0.014
PYTHON_NOMINAL_S = 0.0086

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((64, 64))
_W = _rng.standard_normal((64, 32))
_E = _rng.standard_normal((64, 32, 64))


def _numpy_kernel() -> None:
    """Small matmuls and (batch, out, in) elementwise work, as in a KAN layer."""
    for _ in range(60):
        h = np.tanh(_A @ _W)
        s = (_E * _A[:, None, :]).sum(axis=2)
        np.maximum(h, s).mean()


def _python_kernel() -> None:
    """Interpreter-bound dictionary updates, as in per-call overhead."""
    d: dict[int, int] = {}
    for i in range(80_000):
        d[i & 255] = d.get(i & 255, 0) + i


def burst() -> tuple[float, float]:
    """Seconds taken by the numpy kernel and by the Python kernel."""
    start = time.perf_counter()
    _numpy_kernel()
    middle = time.perf_counter()
    _python_kernel()
    return middle - start, time.perf_counter() - middle


def speed(*bursts: tuple[float, float]) -> float:
    """Factor that scales a wall time measured between ``bursts`` to the
    nominal host speed: below 1 on a slow host, above 1 on a fast one."""
    numpy_s = sum(b[0] for b in bursts) / len(bursts)
    python_s = sum(b[1] for b in bursts) / len(bursts)
    return math.sqrt(NUMPY_NOMINAL_S / numpy_s * PYTHON_NOMINAL_S / python_s)
