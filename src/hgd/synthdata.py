"""Deterministic synthetic segmentation data.

Images are flat-colored axis-aligned shapes on a dark background with a
little Gaussian pixel noise. Each class has a fixed color, so the task is
learnable from local appearance alone.

Two shape families are drawn. Rectangles are snapped to an 8-pixel grid
(half of them span the full image extent in one direction, forming bands),
which keeps their edges exactly on the boundaries a stride-8 prediction
grid can represent. Disks are rasterized at full resolution with a radius
of at least seven pixels so their boundary stays smooth rather than
blocky. Corners and strongly curved boundaries are where an 8x-upsampled
predictor is geometrically unable to be pixel-perfect, so the generator
keeps them rare: most boundary length comes from straight block-aligned
edges.
"""

from dataclasses import dataclass

import numpy as np

from .tensor import ConfigError, Tensor

_BLOCK = 8


@dataclass
class SegSample:
    """One training example: an RGB image and its per-pixel class map."""

    image: Tensor
    label: np.ndarray


def _palette(num_classes):
    """Fixed per-class colors, away from 0/1 so noise rarely clips."""
    rng = np.random.default_rng(99_000 + num_classes)
    palette = rng.uniform(0.12, 0.88, size=(num_classes, 3))
    palette[0] = (0.15, 0.15, 0.15)
    return palette


def synth_dataset(seed, count, size, num_classes, dtype=np.float64):
    """Generate `count` seeded samples of colored shapes on background.

    Every sample contains at least one full-span band whose class cycles
    through 1..num_classes-1 with the sample index, so any reasonably
    sized dataset covers all classes. Additional bands, rectangles, and
    (in every eighth sample) a disk are layered on top, later shapes
    overwriting earlier ones.
    """
    if size % 32 != 0:
        raise ConfigError(f"image size must be divisible by 32, got {size}")
    if num_classes < 2:
        raise ConfigError(f"need at least 2 classes, got {num_classes}")

    rng = np.random.default_rng(seed)
    grid = size // _BLOCK
    palette = _palette(num_classes)
    yy, xx = np.mgrid[0:size, 0:size]
    samples = []

    for i in range(count):
        label = np.zeros((size, size), dtype=np.int64)

        def paint_band(cls):
            start = int(rng.integers(1, grid - 2))
            thickness = int(rng.integers(1, min(grid - 1 - start, 4) + 1))
            lo = _BLOCK * start
            hi = _BLOCK * (start + thickness)
            if rng.random() < 0.5:
                label[lo:hi, :] = cls
            else:
                label[:, lo:hi] = cls

        def paint_rect(cls):
            w = int(rng.integers(2, 5))
            h = int(rng.integers(2, 5))
            x0 = int(rng.integers(0, grid - w + 1))
            y0 = int(rng.integers(0, grid - h + 1))
            label[_BLOCK * y0:_BLOCK * (y0 + h), _BLOCK * x0:_BLOCK * (x0 + w)] = cls

        def paint_disk(cls):
            r = int(rng.integers((7 * size) // 32, (9 * size) // 32 + 1))
            cy = int(rng.integers(r, size - r + 1))
            cx = int(rng.integers(r, size - r + 1))
            label[(yy - cy) ** 2 + (xx - cx) ** 2 <= r * r] = cls

        def random_class():
            return int(rng.integers(1, num_classes))

        paint_band(1 + i % (num_classes - 1))
        if rng.random() < 0.5:
            paint_band(random_class())
        if i % 8 == 0:
            paint_disk(random_class())
        elif rng.random() < 0.25:
            paint_rect(random_class())

        image = palette[label].transpose(2, 0, 1).astype(dtype)
        image = np.clip(image + rng.normal(0.0, 0.01, image.shape), 0.0, 1.0)
        samples.append(SegSample(Tensor(image.astype(dtype)), label))

    return samples
