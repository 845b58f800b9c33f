"""Seeded procedural 8x8 glyphs: ten stroke templates drawn with
positional jitter, random affine distortion, variable stroke width and
additive pixel noise.

The parameters below were fixed before the first measurement and are not
tuned against any result. A sample is rendered in continuous coordinates
(the unit square, x to the right, y down), rasterised at pixel centres
with a Gaussian stroke profile, mixed with noise and clipped to [0, 1];
inputs are then mapped to [-1, 1] as the IDX loader does.
"""

from __future__ import annotations

import numpy as np

SIDE = 8
CLASSES = 10

# Generator parameters (see the module docstring).
PARAMS = {
    "shift_px": 0.75,         # uniform translation in [-shift, shift] pixels
    "scale": (0.85, 1.1),     # uniform isotropic scale about the centre
    "rotate_deg": 10.0,       # uniform rotation in [-r, r] degrees
    "point_sigma_px": 0.25,   # independent Gaussian jitter of every stroke point
    "width_px": (0.45, 0.8),  # uniform Gaussian stroke sigma
    "noise_sigma": 0.15,      # additive Gaussian pixel noise on [0, 1] intensity
}

# Each template is a list of polylines with points in the unit square.
_BOX = [(0.25, 0.15), (0.75, 0.15), (0.75, 0.85), (0.25, 0.85), (0.25, 0.15)]
TEMPLATES = (
    [_BOX],
    [[(0.5, 0.1), (0.5, 0.9)], [(0.35, 0.25), (0.5, 0.1)]],
    [[(0.25, 0.15), (0.75, 0.15), (0.75, 0.5), (0.25, 0.85), (0.75, 0.85)]],
    [[(0.25, 0.15), (0.75, 0.15), (0.75, 0.85), (0.25, 0.85)],
     [(0.4, 0.5), (0.75, 0.5)]],
    [[(0.25, 0.15), (0.25, 0.55), (0.75, 0.55)], [(0.65, 0.15), (0.65, 0.9)]],
    [[(0.75, 0.15), (0.25, 0.15), (0.25, 0.5), (0.75, 0.5), (0.75, 0.85),
      (0.25, 0.85)]],
    [[(0.7, 0.15), (0.3, 0.15), (0.3, 0.85), (0.7, 0.85), (0.7, 0.5),
      (0.3, 0.5)]],
    [[(0.25, 0.15), (0.75, 0.15), (0.4, 0.9)]],
    [_BOX, [(0.25, 0.5), (0.75, 0.5)]],
    [[(0.7, 0.5), (0.3, 0.5), (0.3, 0.15), (0.7, 0.15), (0.7, 0.85),
      (0.3, 0.85)]],
)


def _segments(template) -> np.ndarray:
    """(count, 2, 2) array of segment endpoints."""
    return np.array([(a, b) for line in template for a, b in zip(line, line[1:])],
                    dtype=np.float64)


_CENTRES = (np.arange(SIDE, dtype=np.float64) + 0.5) / SIDE
_PIXELS = np.stack(np.meshgrid(_CENTRES, _CENTRES, indexing="xy"), axis=-1).reshape(-1, 2)


def _render(segments: np.ndarray, width: float) -> np.ndarray:
    """Intensity in [0, 1] per pixel: Gaussian of the distance to the nearest
    segment, with ``width`` in unit-square coordinates."""
    a, b = segments[:, 0], segments[:, 1]
    ab = b - a
    rel = _PIXELS[:, None, :] - a[None]
    t = np.clip((rel * ab[None]).sum(-1) / np.maximum((ab * ab).sum(-1), 1e-12), 0.0, 1.0)
    d = rel - t[..., None] * ab[None]
    dist2 = (d * d).sum(-1).min(axis=1)
    return np.exp(-dist2 / (2.0 * width * width))


def generate(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` glyphs as (inputs in [-1, 1] of shape (n, 64), int64 labels).

    Labels cycle through the ten classes in a seeded shuffled order, so the
    classes are balanced to within one sample.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 glyphs, got {n}")
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n) % CLASSES).astype(np.int64)
    p, px = PARAMS, 1.0 / SIDE
    images = np.empty((n, SIDE * SIDE))
    for r, label in enumerate(labels):
        seg = _segments(TEMPLATES[label])
        seg = seg + rng.normal(0.0, p["point_sigma_px"] * px, size=seg.shape)
        angle = np.deg2rad(rng.uniform(-p["rotate_deg"], p["rotate_deg"]))
        scale = rng.uniform(*p["scale"])
        rot = scale * np.array([[np.cos(angle), -np.sin(angle)],
                                [np.sin(angle), np.cos(angle)]])
        shift = rng.uniform(-p["shift_px"], p["shift_px"], size=2) * px
        seg = (seg - 0.5) @ rot.T + 0.5 + shift
        width = rng.uniform(*p["width_px"]) * px
        images[r] = _render(seg, width)
    images += rng.normal(0.0, p["noise_sigma"], size=images.shape)
    return 2.0 * np.clip(images, 0.0, 1.0) - 1.0, labels
