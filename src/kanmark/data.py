"""Dataset ingestion and generation: IDX image parsing and writing,
synthetic physics-formula regression sets, and deterministic splits and
batching.

IDX files are big-endian:
    images: 0x00000803 magic, then [count, rows, cols] as 32-bit ints,
            then count*rows*cols unsigned bytes;
    labels: 0x00000801 magic, then [count] as a 32-bit int, then count bytes.
Pixels are mapped p -> 2*(p/255) - 1, so inputs land in [-1, 1].
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801
MIN_DENOMINATOR = 1e-6


class DataError(Exception):
    """Problem reading, generating, or splitting a dataset."""


class IdxMagicError(DataError):
    """IDX file does not start with the expected magic number."""


class IdxTruncatedError(DataError):
    """IDX payload is shorter than its header promises."""


class IdxCountMismatchError(DataError):
    """Image and label files disagree on the record count."""


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
        if self.inputs.size and (np.abs(self.inputs).max() > 1.0 + 1e-12
                                 or not np.all(np.isfinite(self.inputs))):
            raise DataError("inputs must be finite and within [-1, 1]")
        if self.targets.size and not np.all(np.isfinite(self.targets.astype(np.float64))):
            raise DataError("targets must be finite")

    def __len__(self) -> int:
        return self.inputs.shape[0]


def _read_file(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def load_idx(images_path, labels_path, limit: int | None = None) -> Dataset:
    """Parse an IDX image/label pair into a normalized Dataset.

    ``limit`` keeps only the first N records (desk-scale subsets).
    """
    img_raw = _read_file(images_path)
    if len(img_raw) < 16:
        raise IdxTruncatedError(f"{images_path}: header needs 16 bytes, "
                                f"file has {len(img_raw)}")
    magic, count, rows, cols = struct.unpack(">IIII", img_raw[:16])
    if magic != IMAGE_MAGIC:
        raise IdxMagicError(f"{images_path}: magic {magic:#010x}, "
                            f"expected {IMAGE_MAGIC:#010x}")
    payload = count * rows * cols
    if len(img_raw) < 16 + payload:
        raise IdxTruncatedError(f"{images_path}: payload needs {payload} bytes, "
                                f"file has {len(img_raw) - 16}")

    lab_raw = _read_file(labels_path)
    if len(lab_raw) < 8:
        raise IdxTruncatedError(f"{labels_path}: header needs 8 bytes, "
                                f"file has {len(lab_raw)}")
    lab_magic, lab_count = struct.unpack(">II", lab_raw[:8])
    if lab_magic != LABEL_MAGIC:
        raise IdxMagicError(f"{labels_path}: magic {lab_magic:#010x}, "
                            f"expected {LABEL_MAGIC:#010x}")
    if len(lab_raw) < 8 + lab_count:
        raise IdxTruncatedError(f"{labels_path}: payload needs {lab_count} bytes, "
                                f"file has {len(lab_raw) - 8}")
    if lab_count != count:
        raise IdxCountMismatchError(f"{count} images vs {lab_count} labels")

    pixels = np.frombuffer(img_raw, dtype=np.uint8, count=payload, offset=16)
    inputs = 2.0 * (pixels.reshape(count, rows * cols).astype(np.float64) / 255.0) - 1.0
    labels = np.frombuffer(lab_raw, dtype=np.uint8, count=count, offset=8).astype(np.int64)
    if labels.size and labels.max() > 9:
        raise DataError(f"{labels_path}: labels above 9 present")
    if limit is not None:
        inputs, labels = inputs[:limit], labels[:limit]
    return Dataset(inputs, labels)


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
    pixels = np.clip(np.round((dataset.inputs + 1.0) / 2.0 * 255.0), 0, 255)
    labels = np.asarray(dataset.targets)
    if labels.size and (labels.min() < 0 or labels.max() > 255):
        raise DataError("labels must be bytes")
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IMAGE_MAGIC, n, rows, cols))
        fh.write(pixels.astype(np.uint8).tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", LABEL_MAGIC, n))
        fh.write(labels.astype(np.uint8).tobytes())


def average_pool(dataset: Dataset, factor: int,
                 image_shape: tuple[int, int] | None = None) -> Dataset:
    """Average-pool image rows by an integer factor (desk-scale shrink).

    Pooled pixels are means of [-1, 1] values, so outputs stay in range.
    """
    if factor < 1:
        raise DataError(f"pool factor must be >= 1, got {factor}")
    if factor == 1:
        return dataset
    n, d = dataset.inputs.shape
    rows, cols = _image_shape(d, image_shape)
    if rows % factor or cols % factor:
        raise DataError(f"image shape {(rows, cols)} not poolable by {factor}")
    imgs = dataset.inputs.reshape(n, rows // factor, factor, cols // factor, factor)
    pooled = imgs.mean(axis=(2, 4)).reshape(n, -1)
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


def gen_feynman(formula: str | FeynmanFormula, n: int, seed: int = 0) -> Dataset:
    """Sample a formula uniformly on (-1, 1)^arity with rejection of
    near-singular rows (|denominator| < 1e-6)."""
    if isinstance(formula, str):
        if formula not in FEYNMAN:
            raise DataError(f"unknown formula id {formula!r}")
        formula = FEYNMAN[formula]
    if n < 1:
        raise DataError(f"need n >= 1 samples, got {n}")
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, formula.arity))
    while True:
        bad = np.abs(x).max(axis=1) >= 1.0
        if formula.guard is not None:
            bad |= formula.guard(x) < MIN_DENOMINATOR
        if not bad.any():
            break
        x[bad] = rng.uniform(-1.0, 1.0, size=(int(bad.sum()), formula.arity))
    return Dataset(x, formula.fn(x))


def split_dataset(dataset: Dataset, fractions, seed: int = 0) -> list[Dataset]:
    """Seeded shuffle then contiguous split into (train, test, holdout), or
    as many of them as there are fractions.

    Zero fractions give empty splits (e.g. (1, 0, 0) puts everything in
    train); an empty source dataset is an error.
    """
    fractions = [float(f) for f in fractions]
    if not 1 <= len(fractions) <= 3:
        raise DataError("need 1 to 3 fractions (train, test, holdout)")
    if any(f < 0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
        raise DataError(f"fractions must be non-negative and sum to 1, got {fractions}")
    n = len(dataset)
    if n == 0:
        raise DataError("cannot split an empty dataset")
    perm = np.random.default_rng(seed).permutation(n)
    cuts = np.cumsum([int(np.floor(f * n)) for f in fractions[:-1]], dtype=np.int64)
    return [Dataset(dataset.inputs[idx], dataset.targets[idx])
            for idx in np.split(perm, cuts)]


def epoch_batches(n: int, batch_size: int, rng: np.random.Generator):
    """Yield index arrays covering a seeded shuffle of range(n)."""
    if n < 1:
        raise DataError("cannot batch an empty dataset")
    if batch_size < 1:
        raise DataError(f"batch_size must be >= 1, got {batch_size}")
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start:start + batch_size]
