"""Seedable random sources and crop-parameter samplers.

All randomness in the package flows through RandomSource, a splittable
wrapper over numpy's counter-based Philox generator. Consumers either
draw scalars from a source directly or split off independent child
streams, so results are reproducible regardless of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import CropWindow

MAX_REJECTIONS = 100


class RandomSource:
    """Deterministic random stream with cheap independent splits.

    Wraps ``numpy.random.Generator`` over the counter-based Philox bit
    generator. ``split(index)`` derives a statistically independent
    child stream from (seed, path, index) without consuming state from
    the parent, so per-sample streams do not depend on iteration order.
    """

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._path = tuple(int(p) for p in _path)
        seq = np.random.SeedSequence(self.seed, spawn_key=self._path)
        self.generator = np.random.Generator(np.random.Philox(seq))

    def split(self, index: int) -> "RandomSource":
        """Child stream number ``index``; same (seed, path, index) always
        yields the same stream."""
        return RandomSource(self.seed, self._path + (int(index),))

    def normal(self, sigma: float = 1.0) -> float:
        """One draw from Normal(0, sigma)."""
        return float(self.generator.normal(0.0, sigma))

    def uniform(self, low: float, high: float) -> float:
        """One draw from Uniform[low, high)."""
        return float(self.generator.uniform(low, high))

    def integers(self, low: int, high: int) -> int:
        """One uniform integer from {low, ..., high}, endpoints included."""
        return int(self.generator.integers(low, high, endpoint=True))

    def random(self) -> float:
        """One draw from Uniform[0, 1)."""
        return float(self.generator.random())

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, path={self._path})"


@dataclass(frozen=True)
class GaussianCropConfig:
    """Same-size translated crop with Gaussian offsets.

    ``sigma`` is relative to the edge length: offsets are drawn from
    Normal(0, sigma * length) and rejected while they exceed the edge.
    """

    sigma: float
    length: int

    def __post_init__(self) -> None:
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma}")
        if self.length < 1:
            raise ValueError(f"length must be >= 1, got {self.length}")


@dataclass(frozen=True)
class UniformCropConfig:
    """Same-size translated crop with offsets uniform on {-range_r..range_r}."""

    range_r: int

    def __post_init__(self) -> None:
        if self.range_r < 0:
            raise ValueError(f"range_r must be >= 0, got {self.range_r}")


@dataclass(frozen=True)
class ResizeCropConfig:
    """Variable-size crop: Gaussian size shrink plus Gaussian translation.

    Crop sides are drawn as the full edge minus a folded (absolute
    value) normal deviate, clipped so each side stays in
    [min_length, edge]. ``sigma`` scales both the shrink and the
    translation spreads.
    """

    sigma: float
    width: int
    height: int
    min_length: int

    def __post_init__(self) -> None:
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma}")
        if not 1 <= self.min_length <= min(self.width, self.height):
            raise ValueError(
                f"min_length must be in [1, min(width, height)], got {self.min_length}"
            )


@dataclass(frozen=True)
class StandardCropConfig:
    """Area/aspect crop of a width x height image: the crop area is a
    uniform fraction of the image in [scale_min, scale_max], its aspect
    log-uniform in [ratio_min, ratio_max]."""

    width: int
    height: int
    scale_min: float = 0.08
    scale_max: float = 1.0
    ratio_min: float = 3.0 / 4.0
    ratio_max: float = 4.0 / 3.0

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"width and height must be >= 1, got {self.width}x{self.height}")
        if not 0 < self.scale_min <= self.scale_max <= 1:
            raise ValueError(
                f"need 0 < scale_min <= scale_max <= 1, got [{self.scale_min}, {self.scale_max}]"
            )
        if not 0 < self.ratio_min <= self.ratio_max < math.inf:
            raise ValueError(
                f"need 0 < ratio_min <= ratio_max < inf, got [{self.ratio_min}, {self.ratio_max}]"
            )


def draw_offset(limit: float, sigma_abs: float, rng: RandomSource) -> int:
    """Gaussian integer offset with magnitude at most ``limit``.

    Draws from Normal(0, sigma_abs) until a value with |x| <= limit
    appears, truncates it toward zero, and returns 0 if MAX_REJECTIONS
    draws were all rejected. Each attempt consumes exactly one draw.
    """
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    if sigma_abs <= 0:
        raise ValueError(f"sigma_abs must be > 0, got {sigma_abs}")
    for _ in range(MAX_REJECTIONS):
        x = rng.normal(sigma_abs)
        if abs(x) <= limit:
            return int(x)
    return 0


def draw_uniform_offset(range_r: int, rng: RandomSource) -> int:
    """Uniform integer offset from {-range_r, ..., range_r}."""
    if range_r < 0:
        raise ValueError(f"range_r must be >= 0, got {range_r}")
    return rng.integers(-range_r, range_r)


def draw_gaussian_window(cfg: GaussianCropConfig, rng: RandomSource) -> tuple[int, int]:
    """Offsets (tx, ty) for a same-size Gaussian crop, drawn independently."""
    tx = draw_offset(cfg.length, cfg.sigma * cfg.length, rng)
    ty = draw_offset(cfg.length, cfg.sigma * cfg.length, rng)
    return tx, ty


def draw_uniform_window(cfg: UniformCropConfig, rng: RandomSource) -> tuple[int, int]:
    """Offsets (tx, ty) for a same-size uniform crop, drawn independently."""
    return draw_uniform_offset(cfg.range_r, rng), draw_uniform_offset(cfg.range_r, rng)


def _shrink(full: int, min_length: int, sigma: float, rng: RandomSource) -> int:
    # Folded normal, clipped: delta = min(|N(0, sigma*(full-min))|, full-min),
    # truncated toward zero. Mean delta is sigma*(full-min)*sqrt(2/pi) for
    # small clipping mass.
    room = full - min_length
    if room == 0:
        return 0
    delta = abs(rng.normal(sigma * room))
    return int(min(delta, float(room)))


def draw_resize_crop(cfg: ResizeCropConfig, rng: RandomSource) -> CropWindow:
    """Variable-size crop window with Gaussian size and position.

    Sides are width - shrink_w and height - shrink_h with folded-normal
    shrinks, so each side lies in [min_length, edge]. The crop center
    offset along each axis is Normal(0, sigma * (edge + side)) clamped
    to half the combined extent, truncated toward zero. As sigma
    approaches 0 the window converges to the full image at the origin.
    """
    w = cfg.width - _shrink(cfg.width, cfg.min_length, cfg.sigma, rng)
    h = cfg.height - _shrink(cfg.height, cfg.min_length, cfg.sigma, rng)
    tx = _centered_offset(cfg.width, w, cfg.sigma, rng)
    ty = _centered_offset(cfg.height, h, cfg.sigma, rng)
    # convert the center-based offset to a top-left corner
    return CropWindow((cfg.width - w) // 2 + tx, (cfg.height - h) // 2 + ty, w, h)


def _centered_offset(full: int, side: int, sigma: float, rng: RandomSource) -> int:
    bound = (full + side) / 2.0
    x = rng.normal(sigma * (full + side))
    return int(max(-bound, min(bound, x)))


def draw_standard_resize_crop(cfg: StandardCropConfig, rng: RandomSource) -> CropWindow:
    """Conventional area/aspect crop used as the resize-crop baseline.

    The target area is one uniform fraction of the image area per call;
    up to ten log-uniform aspect draws try to realize that area with
    rounded sides inside the image. Keeping the area fixed across the
    retries leaves the accepted crop areas uniform (mean scale stays at
    (scale_min + scale_max) / 2) instead of biasing them small. If no
    aspect fits, the largest centered square is returned.
    """
    width, height = cfg.width, cfg.height
    target = rng.uniform(cfg.scale_min, cfg.scale_max) * (width * height)
    log_ratio_min, log_ratio_max = math.log(cfg.ratio_min), math.log(cfg.ratio_max)
    for _ in range(10):
        aspect = math.exp(rng.uniform(log_ratio_min, log_ratio_max))
        w = int(round(math.sqrt(target * aspect)))
        h = int(round(math.sqrt(target / aspect)))
        if 0 < w <= width and 0 < h <= height:
            tx = rng.integers(0, width - w)
            ty = rng.integers(0, height - h)
            return CropWindow(tx, ty, w, h)
    side = min(width, height)
    return CropWindow((width - side) // 2, (height - side) // 2, side, side)
