"""Dataset ingestion and generation: IDX image parsing and writing,
synthetic physics-formula regression sets, and deterministic splits and
batching.

IDX files are big-endian:
    images: 0x00000803 magic, then [count, rows, cols] as 32-bit ints,
            then count*rows*cols unsigned bytes;
    labels: 0x00000801 magic, then [count] as a 32-bit int, then count bytes.
Pixel p is mapped to PIXEL_VALUES[p] = 2*(p/255) - 1, so inputs lie in [-1, 1].
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numeric import check_floats

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801
MIN_DENOMINATOR = 1e-6
# gen_feynman gives up after this many rounds of redrawing rejected rows.
MAX_REDRAWS = 100
# The value of pixel p: p / 255, times 2, minus 1, in that order.
PIXEL_VALUES = np.arange(256, dtype=np.float64) / 255.0 * 2.0 - 1.0
PIXEL_VALUES.setflags(write=False)


class DataError(Exception):
    """Problem reading, generating, or splitting a dataset."""


@dataclass
class Dataset:
    """Inputs in [-1, 1] with integer class labels or real targets."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.targets = np.asarray(self.targets)
        if self.inputs.ndim != 2:
            raise DataError(f"inputs must be 2-D, got shape {self.inputs.shape}")
        if self.targets.ndim != 1 or self.targets.shape[0] != self.inputs.shape[0]:
            raise DataError("targets must be one value per input row")
        bound = 1.0 + 1e-12  # a nan fails both comparisons
        if self.inputs.size and not -bound <= self.inputs.min() <= self.inputs.max() <= bound:
            raise DataError("inputs must be finite and within [-1, 1]")
        if self.targets.size and not np.all(np.isfinite(self.targets.astype(np.float64))):
            raise DataError("targets must be finite")

    def __len__(self) -> int:
        return self.inputs.shape[0]


def _idx_records(path, magic: int, dims: int, limit: int | None = None) -> tuple:
    """The first ``limit`` records (all for None) of the regular IDX file at
    ``path`` as a uint8 array, and its header's ``dims`` sizes. Checks header
    length, ``magic``, then payload length against the file's size."""
    header = 4 + 4 * dims
    try:
        with open(path, "rb") as fh:
            if not os.path.isfile(path):  # a pipe or device has no size to check
                raise DataError(f"{path}: not a regular file")
            raw, size = fh.read(header), os.fstat(fh.fileno()).st_size
            if len(raw) < header:
                raise DataError(f"{path}: header needs {header} bytes, "
                                f"file has {len(raw)}")
            found, *sizes = struct.unpack(f">{1 + dims}I", raw)
            if found != magic:
                raise DataError(f"{path}: magic {found:#010x}, expected {magic:#010x}")
            payload = math.prod(sizes)
            if size < header + payload:
                raise DataError(f"{path}: payload needs {payload} bytes, "
                                f"file has {size - header}")
            keep = len(range(sizes[0])[:limit])  # len(records[:limit]), for any limit
            records = fh.read(keep * math.prod(sizes[1:]))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return np.frombuffer(records, np.uint8).reshape(keep, *sizes[1:]), tuple(sizes)


def read_idx(images_path, labels_path, limit: int | None = None) -> tuple:
    """The checked, undecoded records of an IDX image/label pair: one uint8
    row of pixels and one int64 label per image. ``limit`` keeps the first N
    records (desk-scale subsets): only those image records are read, but
    every label is read and checked."""
    pixels, (count, rows, cols) = _idx_records(images_path, IMAGE_MAGIC, 3, limit)
    labels, (lab_count,) = _idx_records(labels_path, LABEL_MAGIC, 1)
    if lab_count != count:
        raise DataError(f"{count} images vs {lab_count} labels")
    if labels.size and labels.max() > 9:
        raise DataError(f"{labels_path}: labels above 9 present")
    return pixels.reshape(len(pixels), rows * cols), labels[:len(pixels)].astype(np.int64)


def decode_idx(pixels, labels) -> Dataset:
    """The normalized Dataset of :func:`read_idx` records (or some rows of them)."""
    return Dataset(PIXEL_VALUES[pixels], labels)


def load_idx(images_path, labels_path, limit: int | None = None) -> Dataset:
    """Parse an IDX image/label pair into a normalized Dataset (:func:`read_idx`
    then :func:`decode_idx`)."""
    return decode_idx(*read_idx(images_path, labels_path, limit))


def _image_shape(d: int, image_shape: tuple[int, int] | None) -> tuple[int, int]:
    """``image_shape`` checked against ``d`` columns; None means square."""
    if image_shape is None:
        side = int(round(np.sqrt(d)))
        if side * side != d:
            raise DataError(f"cannot infer a square image shape from {d} columns")
        return side, side
    rows, cols = image_shape
    if rows * cols != d:
        raise DataError(f"image shape {image_shape} does not match {d} columns")
    return rows, cols


def write_idx(dataset: Dataset, images_path, labels_path,
              image_shape: tuple[int, int] | None = None) -> None:
    """Write a classification Dataset as an IDX pair (fixture writer).

    Inputs are mapped back to bytes with round((v + 1)/2 * 255), the exact
    inverse of the loader's normalization, so load(write(d)) == d bit-exact
    for byte-valued data.
    """
    n, d = dataset.inputs.shape
    rows, cols = _image_shape(d, image_shape)
    pixels = np.round((dataset.inputs + 1.0) / 2.0 * 255.0)  # in [-0.0, 255]: see Dataset
    labels = np.asarray(dataset.targets)
    if labels.size and (labels.min() < 0 or labels.max() > 255):
        raise DataError("labels must be bytes")
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IMAGE_MAGIC, n, rows, cols))
        fh.write(pixels.astype(np.uint8).tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", LABEL_MAGIC, n))
        fh.write(labels.astype(np.uint8).tobytes())


def average_pool(dataset: Dataset, factor: int) -> Dataset:
    """Average-pool square image rows by an integer factor (desk-scale shrink).

    Pooled pixels are means of [-1, 1] values, so outputs stay in range.
    """
    if factor < 1:
        raise DataError(f"pool factor must be >= 1, got {factor}")
    if factor == 1:
        return dataset
    n, d = dataset.inputs.shape
    rows, cols = _image_shape(d, None)
    if rows % factor:
        raise DataError(f"image shape {(rows, cols)} not poolable by {factor}")
    imgs = dataset.inputs.reshape(n, rows // factor, factor, cols // factor, factor)
    pooled = imgs.mean(axis=(2, 4)).reshape(n, (rows // factor) * (cols // factor))
    return Dataset(pooled, dataset.targets)


@dataclass(frozen=True)
class FeynmanFormula:
    """A physics formula sampled on (-1, 1)^arity.

    ``fn`` maps an (n, arity) array to n targets. ``guard`` returns the
    magnitude of the smallest denominator-like quantity per row; rows where
    it drops below MIN_DENOMINATOR are redrawn.
    """

    id: str
    arity: int
    fn: Callable[[np.ndarray], np.ndarray]
    guard: Callable[[np.ndarray], np.ndarray] | None = None


def _formulas() -> dict[str, FeynmanFormula]:
    f = FeynmanFormula
    pi = np.pi
    entries = [
        f("I.6.2", 2, lambda v: np.exp(-v[:, 0] ** 2 / (2 * v[:, 1] ** 2))
          / np.sqrt(2 * pi * v[:, 1] ** 2), lambda v: v[:, 1] ** 2),
        f("I.6.2b", 3, lambda v: np.exp(-(v[:, 0] - v[:, 1]) ** 2 / (2 * v[:, 2] ** 2))
          / np.sqrt(2 * pi * v[:, 2] ** 2), lambda v: v[:, 2] ** 2),
        f("I.9.18", 6, lambda v: v[:, 0] / ((v[:, 1] - 1) ** 2 + (v[:, 2] - v[:, 3]) ** 2
                                            + (v[:, 4] - v[:, 5]) ** 2),
          lambda v: (v[:, 1] - 1) ** 2 + (v[:, 2] - v[:, 3]) ** 2 + (v[:, 4] - v[:, 5]) ** 2),
        f("I.12.11", 2, lambda v: 1 + v[:, 0] * np.sin(v[:, 1])),
        f("I.13.12", 2, lambda v: v[:, 0] * (1 / v[:, 1] - 1),
          lambda v: np.abs(v[:, 1])),
        f("I.15.3x", 2, lambda v: (1 - v[:, 0]) / np.sqrt(1 - v[:, 1] ** 2),
          lambda v: 1 - v[:, 1] ** 2),
        f("I.16.6", 2, lambda v: (v[:, 0] + v[:, 1]) / (1 + v[:, 0] * v[:, 1]),
          lambda v: np.abs(1 + v[:, 0] * v[:, 1])),
        f("I.18.4", 2, lambda v: (1 + v[:, 0] * v[:, 1]) / (1 + v[:, 0]),
          lambda v: np.abs(1 + v[:, 0])),
        f("I.26.2", 2, lambda v: np.arcsin(v[:, 0] * np.sin(v[:, 1]))),
        f("I.27.2", 2, lambda v: 1 / (1 + v[:, 0] * v[:, 1]),
          lambda v: np.abs(1 + v[:, 0] * v[:, 1])),
        f("I.29.16", 3, lambda v: np.sqrt(1 + v[:, 0] ** 2
                                          - 2 * v[:, 0] * np.cos(v[:, 1] - v[:, 2]))),
        f("I.30.3", 2, lambda v: np.sin(v[:, 0] * v[:, 1] / 2) ** 2
          / np.sin(v[:, 1] / 2) ** 2, lambda v: np.sin(v[:, 1] / 2) ** 2),
        f("I.40.1", 2, lambda v: v[:, 0] * np.exp(-v[:, 1])),
        # Second variable listed with the formula but unused by it.
        f("I.50.26", 2, lambda v: np.cos(v[:, 0]) + v[:, 0] * np.cos(v[:, 0]) ** 2),
        f("II.2.42", 2, lambda v: (v[:, 0] - 1) * v[:, 1]),
        f("II.6.15a", 3, lambda v: v[:, 2] * np.sqrt(v[:, 0] ** 2 + v[:, 1] ** 2) / (4 * pi)),
        f("II.11.7", 3, lambda v: v[:, 0] * (1 + v[:, 1] * np.cos(v[:, 2]))),
        f("II.11.27", 2, lambda v: v[:, 0] * v[:, 1] / (1 - v[:, 0] * v[:, 1] / 3),
          lambda v: np.abs(1 - v[:, 0] * v[:, 1] / 3)),
        f("II.35.18", 2, lambda v: v[:, 0] / (np.exp(v[:, 1]) + np.exp(-v[:, 1]))),
        f("II.36.38", 3, lambda v: v[:, 0] + v[:, 1] * v[:, 2]),
        f("II.38.3", 2, lambda v: v[:, 0] / v[:, 1], lambda v: np.abs(v[:, 1])),
        f("III.9.52", 3, lambda v: v[:, 0] * np.sin((v[:, 1] - v[:, 2]) / 2) ** 2
          / ((v[:, 1] - v[:, 2]) / 2) ** 2, lambda v: ((v[:, 1] - v[:, 2]) / 2) ** 2),
        f("III.10.19", 2, lambda v: np.sqrt(1 + v[:, 0] ** 2 + v[:, 1] ** 2)),
        f("III.17.37", 3, lambda v: v[:, 1] * (1 + v[:, 0] * np.cos(v[:, 2]))),
    ]
    return {e.id: e for e in entries}


FEYNMAN: dict[str, FeynmanFormula] = _formulas()


def gen_feynman(formula: str, n: int, seed: int = 0) -> Dataset:
    """Sample the :data:`FEYNMAN` formula of that id uniformly on
    (-1, 1)^arity with rejection of near-singular rows (|denominator| < 1e-6);
    raises DataError if rows are still rejected after MAX_REDRAWS redraws."""
    if not isinstance(formula, str) or formula not in FEYNMAN:
        raise DataError(f"unknown formula id {formula!r}")
    formula = FEYNMAN[formula]
    if n < 1:
        raise DataError(f"need n >= 1 samples, got {n}")
    check_floats(n * formula.arity, f"{n} samples of {formula.arity} inputs")
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, formula.arity))
    for redraws in range(MAX_REDRAWS + 1):
        bad = np.abs(x).max(axis=1) >= 1.0
        if formula.guard is not None:
            bad |= formula.guard(x) < MIN_DENOMINATOR
        if not bad.any():
            break
        if redraws == MAX_REDRAWS:
            raise DataError(f"formula {formula.id} still rejects {int(bad.sum())} of "
                            f"{n} rows after {MAX_REDRAWS} redraws")
        x[bad] = rng.uniform(-1.0, 1.0, size=(int(bad.sum()), formula.arity))
    return Dataset(x, formula.fn(x))


def split_indices(n: int, fractions, seed: int = 0) -> list[np.ndarray]:
    """The row indices of each split of ``n`` rows: a seeded permutation of
    range(n) cut into contiguous pieces, floor(f * n) rows for each fraction f
    but the last, which takes the rest. 1 to 3 fractions (train, test,
    holdout) that sum to 1.

    Zero fractions give empty splits (e.g. (1, 0, 0) puts everything in
    train); no rows (n == 0) is an error.
    """
    fractions = [float(f) for f in fractions]
    if not 1 <= len(fractions) <= 3:
        raise DataError("need 1 to 3 fractions (train, test, holdout)")
    if any(f < 0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
        raise DataError(f"fractions must be non-negative and sum to 1, got {fractions}")
    if n == 0:
        raise DataError("cannot split an empty dataset")
    perm = np.random.default_rng(seed).permutation(n)
    cuts = np.cumsum([int(np.floor(f * n)) for f in fractions[:-1]], dtype=np.int64)
    return np.split(perm, cuts)


def split_dataset(dataset: Dataset, fractions, seed: int = 0) -> list[Dataset]:
    """The Datasets of :func:`split_indices`: a seeded shuffle then
    contiguous split into (train, test, holdout), or as many of them as
    there are fractions."""
    return [Dataset(dataset.inputs[idx], dataset.targets[idx])
            for idx in split_indices(len(dataset), fractions, seed)]


def epoch_batches(n: int, batch_size: int, rng: np.random.Generator):
    """Yield index arrays covering a seeded shuffle of range(n)."""
    if n < 1:
        raise DataError("cannot batch an empty dataset")
    if batch_size < 1:
        raise DataError(f"batch_size must be >= 1, got {batch_size}")
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start:start + batch_size]
