"""Uniform B-spline grids and Cox-de Boor basis evaluation with analytic
derivatives.

A grid of degree k over G intervals on [t_min, t_max] carries uniformly
spaced knots extended k steps past each end at the same spacing, giving
G + 2k + 1 knots and G + k basis functions. Inputs are clamped to
[t_min, t_max] before evaluation so the basis is total on the reals, ±inf
included; a nan input raises NonFiniteError. Inputs that are all 8-bit
pixel values (data.PIXEL_VALUES) read rows from a table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Integral

import numpy as np

from .data import PIXEL_VALUES
from .numeric import NonFiniteError

_PIXEL_SET = frozenset(PIXEL_VALUES.tolist())


@dataclass(frozen=True)
class SplineGrid:
    degree: int
    intervals: int
    t_min: float
    t_max: float
    # Grids compare by the four numbers that build_grid derives the knots from.
    knots: np.ndarray = field(compare=False)

    @property
    def basis_count(self) -> int:
        return self.intervals + self.degree

    @property
    def spacing(self) -> float:
        return (self.t_max - self.t_min) / self.intervals


def build_grid(degree: int = 3, intervals: int = 5,
               t_min: float = -1.0, t_max: float = 1.0) -> SplineGrid:
    """Uniform knot vector with k-fold extension on each side; ``degree``
    and ``intervals`` are integers, never bools or floats."""
    for name, value, least in (("degree", degree, 0), ("intervals", intervals, 1)):
        if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
            raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    if not -np.inf < t_min < t_max < np.inf:
        raise ValueError(f"need finite t_min < t_max, got [{t_min}, {t_max}]")
    # The end knots, as Python floats: they overflow quietly, where numpy warns.
    h = (t_max - t_min) / intervals
    if not -np.inf < t_min - h * degree <= t_min + h * (intervals + degree) < np.inf:
        raise ValueError(f"[{t_min}, {t_max}] in {intervals} intervals overflows: "
                         f"spacing {h}, degree {degree}")
    knots = t_min + h * np.arange(-degree, intervals + degree + 1, dtype=np.float64)
    if not np.all(np.diff(knots) > 0):
        raise ValueError(f"[{t_min}, {t_max}] is too narrow for {intervals} "
                         f"intervals: knots coincide at spacing {h}")
    knots.setflags(write=False)
    # -0.0 + 0.0 is 0.0: equal grids then clamp alike and share a pixel table.
    return SplineGrid(int(degree), int(intervals), float(t_min) + 0.0,
                      float(t_max) + 0.0, knots)


def _local_basis(grid: SplineGrid, x: np.ndarray):
    """Knot interval idx of each point clamped to [t_min, t_max], and the
    B-splines of degrees k - 1 (empty for k = 0) and k nonzero on it;
    values[r] is basis function idx - d + r of that degree d.

    Intervals are right-open; a point at the last knot falls into the final
    interval, so the basis stays a partition of unity at t_max without knot
    extension. On uniform knots Cox-de Boor in u = (x - t_idx) / h reads
    N_r^j = ((u + j - r) N_{r-1}^{j-1} + (r + 1 - u) N_r^{j-1}) / j.
    """
    knots = grid.knots
    x = np.minimum(np.maximum(x, grid.t_min), grid.t_max)
    idx = np.minimum(np.searchsorted(knots, x, side="right") - 1, len(knots) - 2)
    u = (x - knots[idx]) / grid.spacing
    lower, b = [], [np.ones_like(u)]
    for j in range(1, grid.degree + 1):
        mid = [(u + (j - r)) * b[r - 1] + (r + 1 - u) * b[r] for r in range(1, j)]
        lower, b = b, [v / j for v in ((1 - u) * b[0], *mid, u * b[j - 1])]
    return idx, lower, b


def _scatter(idx: np.ndarray, local: list, width: int) -> np.ndarray:
    # Contiguous dense (n, width) rows from the local columns of _local_basis.
    # At x = t_max (degree >= 1) idx is the extension interval, whose last
    # column would land one past the width, on the next row's first entry.
    # That column is written first, clipped to the row's last entry, which
    # the column before it then overwrites. Its value is 0 for the basis but
    # not for the slopes at degree 1, so it must not spill.
    out = np.zeros((idx.size, width))
    flat = out.ravel()
    rows = np.arange(0, flat.size, width)
    flat[rows + np.minimum(idx, width - 1)] = local[-1]
    first = rows + idx - (len(local) - 1)
    for r, column in enumerate(local[:-1]):
        flat[first + r] = column
    return out


def basis_and_slopes(grid: SplineGrid, x):
    """Basis rows of the points of x, flattened and clamped to [t_min, t_max]:
    shape (x.size, basis_count); and a function of no arguments that returns
    their d/dx rows from the same Cox-de Boor pass, with no second clamp,
    knot search or recursion. The slopes follow the degree-lowering formula
    (B_{i,k-1} - B_{i+1,k-1}) / h on the degree k - 1 values (none at k = 0):
    the right-limit at a knot, and 0 strictly outside [t_min, t_max], where
    the clamped basis is constant. Pixel inputs gather both from a table
    that the same evaluation fills (:func:`_pixel_table`). Raises
    NonFiniteError on a nan point.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    codes = _pixel_codes(x)
    if codes is None:
        return _evaluate(grid, x)
    b, db = _pixel_table(grid)
    return b.take(codes, axis=0), lambda: db.take(codes, axis=0)


def _pixel_codes(x: np.ndarray):
    """Codes p with PIXEL_VALUES[p] == x for every point of x, or None. The
    first point is looked up alone first, so other inputs cost a set lookup;
    fmax and fmin give nan a code too, so the cast never warns."""
    if not x.size or x.item(0) not in _PIXEL_SET:
        return None
    codes = np.fmin(np.fmax(np.rint((x + 1.0) * 127.5), 0.0), 255.0).astype(np.intp)
    return codes if np.array_equal(PIXEL_VALUES[codes], x) else None


@lru_cache(maxsize=None)
def _pixel_table(grid: SplineGrid) -> tuple:
    """Read-only basis and slope rows of the 256 PIXEL_VALUES on the grid. A
    row depends on its point alone, so a gathered row is the evaluator's."""
    b, slopes = _evaluate(grid, PIXEL_VALUES)
    table = b, slopes()
    for a in table:
        a.setflags(write=False)
    return table


def _evaluate(grid: SplineGrid, x: np.ndarray):
    """:func:`basis_and_slopes` of a flat float64 x by Cox-de Boor. A nan
    point has no interval, and its columns would spill into another row's."""
    if np.isnan(x).any():
        raise NonFiniteError("spline input: contains nan points")
    idx, lower, b = _local_basis(grid, x)

    def slopes() -> np.ndarray:
        scale = ((x >= grid.t_min) & (x <= grid.t_max)) / grid.spacing
        zero = np.zeros_like(x)
        return _scatter(idx, [(lo - hi) * scale for lo, hi in
                              zip([zero, *lower], [*lower, zero])], grid.basis_count)

    return _scatter(idx, b, grid.basis_count), slopes
