"""Datasets: binary Cifar parsing, a synthetic shapes corpus, and
per-channel normalization.

Images everywhere are float64 arrays of shape (N, 3, H, W) scaled to
[0, 1]. The synthetic corpus renders four geometric shapes in up to two
colors, giving a classification task that is easy for a small MLP but
genuinely degraded by aggressive crops and occlusion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampling import RandomSource

IMAGE_EDGE = 32  # every source renders or decodes square 32x32 images
CIFAR10_RECORD = 3073  # 1 label byte + 3 * 32 * 32 pixel bytes
CIFAR100_RECORD = 3074  # coarse + fine label bytes + pixels

SHAPE_NAMES = ("square", "disk", "triangle", "cross")

_PALETTE = ((0.85, 0.35, 0.25), (0.25, 0.45, 0.85))


class ParseError(ValueError):
    """Raised for malformed dataset bytes; the message names the offending
    byte offset or record."""


@dataclass
class LabeledDataset:
    """Images of shape (N, C, H, W), integer labels of shape (N,)."""

    images: np.ndarray
    labels: np.ndarray
    num_classes: int
    split: str

    def __post_init__(self) -> None:
        if self.images.ndim != 4:
            raise ValueError(f"images must be (N, C, H, W), got shape {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise ValueError(
                f"labels shape {self.labels.shape} does not match {self.images.shape[0]} images"
            )
        if self.num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.num_classes}")
        if self.labels.size and not (
            (self.labels >= 0) & (self.labels < self.num_classes)
        ).all():
            raise ValueError("labels out of range")
        if self.split not in ("train", "test"):
            raise ValueError(f"split must be 'train' or 'test', got {self.split!r}")

    def __len__(self) -> int:
        return int(self.images.shape[0])


@dataclass(frozen=True)
class NormalizationStats:
    """Per-channel mean and standard deviation, each of shape (C,)."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise ValueError("mean and std must be 1-d arrays of equal length")
        if not (self.std > 0).all():
            raise ValueError("std must be positive in every channel")


def _parse_cifar(data: bytes, record_size: int, label_index: int, label_count: int,
                 split: str) -> LabeledDataset:
    if len(data) % record_size != 0:
        offset = len(data) - len(data) % record_size
        raise ParseError(
            f"truncated record at byte offset {offset}: "
            f"{len(data)} bytes is not a multiple of {record_size}"
        )
    records = np.frombuffer(data, dtype=np.uint8).reshape(-1, record_size)
    labels = records[:, label_index].astype(np.int64)
    bad = np.nonzero(labels >= label_count)[0]
    if bad.size:
        raise ParseError(
            f"record {bad[0]}: label {labels[bad[0]]} out of range [0, {label_count})"
        )
    pixels = records[:, -3 * IMAGE_EDGE**2 :].reshape(-1, 3, IMAGE_EDGE, IMAGE_EDGE)
    images = pixels.astype(np.float64) / 255.0
    return LabeledDataset(images, labels, label_count, split)


def parse_cifar10(data: bytes, split: str = "train") -> LabeledDataset:
    """Decode the 10-class binary format: per record, 1 label byte then
    3072 pixel bytes in channel-major order. Pixels scale to [0, 1]."""
    return _parse_cifar(data, CIFAR10_RECORD, 0, 10, split)


def parse_cifar100(data: bytes, split: str = "train") -> LabeledDataset:
    """Decode the 100-class binary format: per record, a coarse label
    byte (discarded), a fine label byte, then 3072 pixel bytes."""
    return _parse_cifar(data, CIFAR100_RECORD, 1, 100, split)


def _shape_mask(shape: str, cx: float, cy: float, s: float, size: int) -> np.ndarray:
    ys, xs = np.mgrid[0:size, 0:size].astype(float)
    dx, dy = xs - cx, ys - cy
    if shape == "square":
        return (np.abs(dx) <= 0.6 * s) & (np.abs(dy) <= 0.6 * s)
    if shape == "disk":
        return dx * dx + dy * dy <= (0.85 * s) ** 2
    if shape == "triangle":
        return (dy >= -s) & (dy <= s) & (np.abs(dx) <= (dy + s) / 2.0)
    if shape == "cross":
        arm = 0.28 * s
        return ((np.abs(dx) <= arm) & (np.abs(dy) <= 1.1 * s)) | (
            (np.abs(dy) <= arm) & (np.abs(dx) <= 1.1 * s)
        )
    raise ValueError(f"unknown shape {shape!r}")


def synth_shapes(num_per_class: int, num_classes: int, seed: int,
                 split: str = "train") -> LabeledDataset:
    """Render a balanced 32x32 RGB shapes dataset.

    Class c draws shape c % 4 in palette color c // 4, so up to four
    classes differ by geometry alone and classes 5..8 repeat the shapes
    in a second color. Each sample jitters the shape's center and size
    and adds pixel noise; the result is clipped to [0, 1]. A fixed seed
    reproduces the dataset byte for byte.
    """
    if not 2 <= num_classes <= 2 * len(SHAPE_NAMES):
        raise ValueError(f"num_classes must be in [2, {2 * len(SHAPE_NAMES)}], got {num_classes}")
    if num_per_class < 1:
        raise ValueError(f"num_per_class must be >= 1, got {num_per_class}")
    size = IMAGE_EDGE
    rng = RandomSource(seed)
    images = np.empty((num_classes * num_per_class, 3, size, size))
    labels = np.empty(num_classes * num_per_class, dtype=np.int64)
    row = 0
    for cls in range(num_classes):
        shape = SHAPE_NAMES[cls % len(SHAPE_NAMES)]
        color = _PALETTE[cls // len(SHAPE_NAMES)]
        for _ in range(num_per_class):
            cx = size / 2 + rng.integers(-3, 3)
            cy = size / 2 + rng.integers(-3, 3)
            s = rng.uniform(8.0, 10.0)
            mask = _shape_mask(shape, cx, cy, s, size)
            image = np.full((3, size, size), 0.12)
            image += rng.generator.normal(0.0, 0.02, (3, size, size))
            for channel, value in enumerate(color):
                image[channel][mask] = value
            images[row] = np.clip(image, 0.0, 1.0)
            labels[row] = cls
            row += 1
    return LabeledDataset(images, labels, num_classes, split)


def flip_horizontal(image: np.ndarray) -> np.ndarray:
    """Mirror a (C, H, W) image along its width."""
    if image.ndim != 3:
        raise ValueError(f"expected a (C, H, W) image, got shape {image.shape}")
    return image[:, :, ::-1].copy()


def hflip(image: np.ndarray, rng: RandomSource) -> np.ndarray:
    """Mirror the image with probability 1/2, always consuming one draw."""
    return flip_horizontal(image) if rng.random() < 0.5 else image


def compute_stats(dataset: LabeledDataset) -> NormalizationStats:
    """Per-channel mean and std over every pixel of every image."""
    if len(dataset) == 0:
        raise ValueError("cannot compute stats of an empty dataset")
    mean = dataset.images.mean(axis=(0, 2, 3))
    std = dataset.images.std(axis=(0, 2, 3))
    return NormalizationStats(mean, std)


def normalize(dataset: LabeledDataset, stats: NormalizationStats) -> LabeledDataset:
    """Shift and scale each channel to zero mean and unit variance."""
    shaped_mean = stats.mean[None, :, None, None]
    shaped_std = stats.std[None, :, None, None]
    return LabeledDataset(
        (dataset.images - shaped_mean) / shaped_std,
        dataset.labels,
        dataset.num_classes,
        dataset.split,
    )
