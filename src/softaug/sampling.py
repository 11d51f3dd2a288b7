"""Seedable random sources and crop-parameter samplers.

All randomness in the package flows through RandomSource, a splittable
wrapper over numpy's counter-based Philox generator. Consumers either
draw scalars from a source directly or split off independent child
streams, so results are reproducible regardless of evaluation order.

``_windows`` draws many windows of one sampler as arrays. numpy's bulk
draws of one distribution equal its repeated scalar draws, so these are
the ``draw_*`` windows, and the stream ends where those calls leave it.
A ``standard`` window takes one fixed block of 13 uniforms, turned into
a window by one rule, ``_standard_windows``, on both paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import CropWindow, _check_sides

MAX_REJECTIONS = 100
_MAX_BLOCK = 1 << 16


class RandomSource:
    """Deterministic random stream with cheap independent splits.

    Wraps ``numpy.random.Generator`` over the counter-based Philox bit
    generator. ``split(index)`` derives a statistically independent
    child stream from (seed, path, index) without consuming state from
    the parent, so child streams do not depend on iteration order.
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
        if self.length < 1:
            raise ValueError(f"length must be >= 1, got {self.length}")
        if not 0 < self.sigma * self.length < math.inf:
            raise ValueError(
                f"sigma * length must be finite and > 0, got {self.sigma} * {self.length}")


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
        _check_sides(self.width, self.height)
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
        _check_sides(self.width, self.height)
        if not 0 < self.scale_min <= self.scale_max <= 1:
            raise ValueError(
                f"need 0 < scale_min <= scale_max <= 1, got [{self.scale_min}, {self.scale_max}]"
            )
        if not 0 < self.ratio_min <= self.ratio_max < math.inf:
            raise ValueError(
                f"need 0 < ratio_min <= ratio_max < inf, got [{self.ratio_min}, {self.ratio_max}]"
            )


# the kinds whose crops keep the image size, the only ones train() takes
_SAME_SIZE = (GaussianCropConfig, UniformCropConfig)


def draw_offset(limit: float, sigma_abs: float, rng: RandomSource) -> int:
    """Gaussian integer offset with magnitude at most ``limit``.

    Draws from Normal(0, sigma_abs) until a value with |x| <= limit
    appears, truncates it toward zero, and returns 0 if MAX_REJECTIONS
    draws were all rejected. Each attempt consumes exactly one draw.
    """
    if not limit >= 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    if not 0 < sigma_abs < math.inf:
        raise ValueError(f"sigma_abs must be finite and > 0, got {sigma_abs}")
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


def draw_resize_crop(cfg: ResizeCropConfig, rng: RandomSource) -> CropWindow:
    """Variable-size crop window with Gaussian size and position.

    Sides are width - shrink_w and height - shrink_h with folded-normal
    shrinks, so each side lies in [min_length, edge]. The crop center
    offset along each axis is Normal(0, sigma * (edge + side)) clamped
    to half the combined extent, truncated toward zero. As sigma
    approaches 0 the window converges to the full image at the origin.
    """
    z = rng.generator.standard_normal(_resize_crop_draws(cfg)).tolist()
    return CropWindow(*_resize_crop_rule(cfg, z, min, max, int))


def _resize_crop_draws(cfg: ResizeCropConfig) -> int:
    """Normals one resize-crop window takes: a shrink on each axis with
    room to shrink, then a position on each axis."""
    return 2 + (cfg.width > cfg.min_length) + (cfg.height > cfg.min_length)


def _resize_crop_rule(cfg: ResizeCropConfig, z, minimum, maximum, trunc) -> tuple:
    """(tx, ty, w, h) of resize-crop windows from their standard normals
    ``z``, in draw order. Written once for both forms: one window's
    floats with ``min``, ``max`` and ``int``, or the columns of a
    (count, draws) block with ``np.minimum``, ``np.maximum``, ``np.trunc``.
    """
    z = iter(z)
    sides = []
    for edge in (cfg.width, cfg.height):
        room = edge - cfg.min_length
        # folded normal, clipped to the room, truncated toward zero; its
        # mean is sigma*room*sqrt(2/pi) for small clipping mass
        shrink = trunc(minimum(abs(cfg.sigma * room * next(z)), room)) if room else 0
        sides.append(edge - shrink)
    corners = []
    for edge, side in zip((cfg.width, cfg.height), sides):
        bound = (edge + side) / 2.0
        offset = trunc(maximum(-bound, minimum(bound, cfg.sigma * (edge + side) * next(z))))
        # the center-based offset, moved to the top-left corner
        corners.append((edge - side) // 2 + offset)
    return (*corners, *sides)


def draw_standard_resize_crop(cfg: StandardCropConfig, rng: RandomSource) -> CropWindow:
    """Conventional area/aspect crop used as the resize-crop baseline.

    One block of 13 uniforms per call: the target area as a uniform
    fraction of the image area, ten log-uniform aspects that try to
    realize it with rounded sides inside the image, and the corner.
    Keeping the area fixed across the tries leaves the accepted crop
    areas uniform (mean scale stays at (scale_min + scale_max) / 2)
    instead of biasing them small. The first aspect that fits is taken;
    if none does, the largest centered square, still after all 13 draws.
    """
    return CropWindow(*_standard_windows(cfg, 1, rng.generator)[0].tolist())


@np.errstate(over="ignore")  # an infinite side fails the fit test
def _standard_windows(cfg: StandardCropConfig, count: int,
                      generator: np.random.Generator) -> np.ndarray:
    """``count`` windows of ``draw_standard_resize_crop`` as a (count, 4)
    int64 array of (tx, ty, w, h), from one (count, 13) block of uniforms."""
    u = generator.random((count, 13))
    width, height = cfg.width, cfg.height
    target = (cfg.scale_min + (cfg.scale_max - cfg.scale_min) * u[:, :1]) * (width * height)
    log_ratio_min, log_ratio_max = math.log(cfg.ratio_min), math.log(cfg.ratio_max)
    aspect = np.exp(log_ratio_min + (log_ratio_max - log_ratio_min) * u[:, 1:11])
    ws, hs = np.round(np.sqrt(target * aspect)), np.round(np.sqrt(target / aspect))
    fits = (ws > 0) & (ws <= width) & (hs > 0) & (hs <= height)
    rows, first = np.arange(count), fits.argmax(axis=1)
    fit = fits[rows, first]
    side = min(width, height)
    w, h = np.where(fit, ws[rows, first], side), np.where(fit, hs[rows, first], side)
    # a corner uniform on {0, ..., room}: u < 1 keeps u * (room + 1) below room + 1
    tx = np.where(fit, np.floor(u[:, 11] * (width - w + 1)), (width - side) // 2)
    ty = np.where(fit, np.floor(u[:, 12] * (height - h + 1)), (height - side) // 2)
    return np.stack([tx, ty, w, h], axis=1).astype(np.int64)


def _offsets(limit: float, sigma_abs: float, count: int,
             generator: np.random.Generator) -> np.ndarray:
    """The next ``count`` results of ``draw_offset(limit, sigma_abs, ...)``.

    Each offset ends on a draw of its own, so a block of normals no
    longer than the offsets still needed ends by the last offset's draw.
    Between two kept draws (|x| <= limit), a run of r rejected draws
    yields r // MAX_REJECTIONS zeros; its remainder carries over.
    """
    out = np.zeros(count, dtype=np.int64)
    filled = pending = 0  # pending: rejected draws since the last offset
    while filled < count:
        size = min(count - filled, _MAX_BLOCK)
        x = generator.normal(0.0, sigma_abs, size)
        kept = np.flatnonzero(np.abs(x) <= limit)
        # the rejected draws before each kept draw, then after the last one
        runs = np.diff(kept, prepend=-1, append=size) - 1
        runs[0] += pending
        zeros, pending = runs // MAX_REJECTIONS, int(runs[-1] % MAX_REJECTIONS)
        # where each kept draw's offset lands, after the zeros before it
        out[filled + np.cumsum(zeros[:-1] + 1) - 1] = x[kept].astype(np.int64)
        filled += int(zeros.sum()) + kept.size
    return out


@np.errstate(over="ignore")  # an infinite resize spread is clamped, as in the scalar form
def _windows(sampler, count: int, edge: int, generator: np.random.Generator) -> np.ndarray:
    """``count`` windows of ``sampler`` as a (count, 4) int64 array of
    (tx, ty, w, h): those ``count`` calls of its ``draw_*`` function
    return on ``generator``, which is left where those calls leave it.
    Same-size kinds have w = h = ``edge``. The array is allocated before
    any draw, so a count too large to hold fails first.
    """
    windows = np.empty((count, 4), dtype=np.int64)
    if isinstance(sampler, ResizeCropConfig):
        z = generator.standard_normal((count, _resize_crop_draws(sampler)))
        rule = _resize_crop_rule(sampler, z.T, np.minimum, np.maximum, np.trunc)
        for column, values in enumerate(rule):
            windows[:, column] = values
    elif isinstance(sampler, StandardCropConfig):
        # blocks of whole windows, so the uniforms in flight stay small
        block = _MAX_BLOCK // 13
        for start in range(0, count, block):
            windows[start:start + block] = _standard_windows(
                sampler, min(block, count - start), generator)
    else:
        if isinstance(sampler, GaussianCropConfig):
            offsets = _offsets(sampler.length, sampler.sigma * sampler.length,
                               2 * count, generator)
        else:
            offsets = generator.integers(-sampler.range_r, sampler.range_r, 2 * count,
                                         endpoint=True)
        windows[:, :2] = offsets.reshape(count, 2)
        windows[:, 2:] = edge
    return windows
