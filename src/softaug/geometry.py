"""Integer pixel geometry for crops and occlusion patches.

Images are numpy arrays of shape (channels, height, width) with float
pixel values. Crop windows are axis-aligned integer rectangles. Every
function here is pure: inputs are never modified in place, and all
coordinates are whole pixels (no sub-pixel interpolation anywhere).
Each pixel rule is stated once, for a batch: ``_shifted`` crops for
``pad_and_crop`` and the trainer, ``_occluded`` erases for ``occlude``
and ``metrics.occlusion_sweep``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .sampling import RandomSource


@dataclass(frozen=True)
class CropWindow:
    """Axis-aligned crop rectangle in pixel coordinates.

    ``(tx, w)`` pair with the ``width`` argument of :func:`visibility`,
    :func:`crop_visibility` and the samplers, ``(ty, h)`` with ``height``;
    :func:`pad_and_crop`, which takes square images only, shifts rows by
    ``tx``. The window may extend past the image bounds (out-of-bounds
    area reads as padding), but must have positive size.
    """

    tx: int
    ty: int
    w: int
    h: int

    def __post_init__(self) -> None:
        for name in ("tx", "ty", "w", "h"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ValueError(f"CropWindow.{name} must be an integer, got {value!r}")
        if self.w < 1 or self.h < 1:
            raise ValueError(f"CropWindow sides must be >= 1, got w={self.w}, h={self.h}")


def pad_and_crop(image: np.ndarray, window: CropWindow) -> np.ndarray:
    """Translate ``image`` by the window offset over a zero canvas.

    The image must be square, the window the same size, and the offset
    no larger than the edge in either axis. Output pixel (c, i, j) equals
    input pixel (c, i + tx, j + ty) where that index is in bounds and
    zero elsewhere, which is exactly a crop of the zero-padded image.
    """
    if image.ndim != 3:
        raise ValueError(f"expected a (C, H, W) image, got shape {image.shape}")
    _, h, e = image.shape
    if h != e:
        raise ValueError(f"pad_and_crop expects a square image, got {h}x{e}")
    if (window.w, window.h) != (e, e):
        raise ValueError(f"window size {window.w}x{window.h} must match image size {e}x{e}")
    tx, ty = window.tx, window.ty
    if max(abs(tx), abs(ty)) > e:
        raise ValueError(f"offset ({tx}, {ty}) exceeds image size {e}x{e}")
    return _shifted([image], [(tx, ty)], image.dtype)[0]


def _shifted(images, offsets, dtype) -> np.ndarray:
    """Unchecked :func:`pad_and_crop` of each (C, e, e) image by its (tx, ty), into
    a new (B, C, e, e) ``dtype`` array; |tx|, |ty| <= e keeps both slices valid."""
    out = np.zeros((len(images), *images[0].shape), dtype)
    e = out.shape[-1]
    for row, image, (tx, ty) in zip(out, images, offsets):
        i0, i1 = max(0, -tx), min(e, e - tx)
        j0, j1 = max(0, -ty), min(e, e - ty)
        row[:, i0:i1, j0:j1] = image[:, i0 + tx : i1 + tx, j0 + ty : j1 + ty]
    return out


def visibility(tx: int, ty: int, width: int, height: int) -> float:
    """Fraction of the original image kept by a same-size translated crop.

    For offsets within the image, a crop of size width x height shifted
    by (tx, ty) retains a (width - |tx|) x (height - |ty|) rectangle of
    original pixels; the rest is padding.
    """
    if width < 1 or height < 1:
        raise ValueError(f"image sides must be >= 1, got {width}x{height}")
    if abs(tx) > width or abs(ty) > height:
        raise ValueError(f"offset ({tx}, {ty}) exceeds image size {width}x{height}")
    return (width - abs(tx)) * (height - abs(ty)) / (width * height)


def crop_visibility(window: CropWindow, width: int, height: int) -> float:
    """Fraction of a width x height image covered by ``window``.

    Area of the window's intersection with the image rectangle, divided
    by the image area. For a same-size window this reduces to
    ``visibility(tx, ty, width, height)``.
    """
    _check_sides(width, height)
    # clipped to the image in Python ints first, so no window overflows int64
    x0, y0 = min(max(int(window.tx), 0), width), min(max(int(window.ty), 0), height)
    x1 = max(min(int(window.tx) + int(window.w), width), x0)
    y1 = max(min(int(window.ty) + int(window.h), height), y0)
    return float(_covered_fraction(x0, y0, x1 - x0, y1 - y0, width, height))


def _check_sides(width: int, height: int) -> None:
    # windows are int64, and a covered area of up to side**2 must fit
    if not (1 <= width <= 2**31 and 1 <= height <= 2**31):
        raise ValueError(f"width and height must be in [1, 2**31], got {width}x{height}")


def _covered_fraction(tx, ty, w, h, width: int, height: int):
    """``crop_visibility`` of windows (tx, ty, w, h), elementwise on
    integer arrays."""
    ix = np.minimum(tx + w, width) - np.maximum(tx, 0)
    iy = np.minimum(ty + h, height) - np.maximum(ty, 0)
    return np.maximum(ix, 0) * np.maximum(iy, 0) / (width * height)


def iou(a: CropWindow, b: CropWindow) -> float:
    """Intersection over union of two crop windows.

    Both rectangles live in the same pixel coordinate frame. Areas are
    exact integer counts; only the final ratio is a float.
    """
    ix = min(a.tx + a.w, b.tx + b.w) - max(a.tx, b.tx)
    iy = min(a.ty + a.h, b.ty + b.h) - max(a.ty, b.ty)
    inter = max(ix, 0) * max(iy, 0)
    union = a.w * a.h + b.w * b.h - inter
    return inter / union


def occlude(image: np.ndarray, lam: float, rng: "RandomSource") -> np.ndarray:
    """Return a copy of ``image`` with a square patch set to 0.

    ``lam`` is the target fraction of the image area to cover. The
    patch side is round(sqrt(lam * H * W)), capped at the image sides,
    and the patch is placed uniformly at random fully inside the image.
    A ``lam`` whose patch side rounds to 0, ``lam == 0`` among them,
    returns an unmodified copy and consumes no randomness, so sweeps at
    zero occlusion reproduce plain evaluation exactly.
    """
    if image.ndim != 3:
        raise ValueError(f"expected a (C, H, W) image, got shape {image.shape}")
    _, h, w = image.shape
    return _occluded(image[None], _patch_side(lam, h, w), rng.generator)[0]


def _occluded(images: np.ndarray, side: int, generator) -> np.ndarray:
    """Unchecked :func:`occlude` of each (C, H, W) image by a ``side``-px square,
    its (top, left) per image from one ``integers`` call; side 0 draws nothing."""
    out = images.copy()
    if side == 0:
        return out
    _, _, h, w = out.shape
    corners = generator.integers(0, (h - side, w - side), (len(out), 2), endpoint=True)
    for image, (top, left) in zip(out, corners.tolist()):
        image[:, top : top + side, left : left + side] = 0.0
    return out


def _patch_side(lam: float, h: int, w: int) -> int:
    """Side of ``occlude``'s square patch covering a ``lam`` fraction of
    an h x w image: round(sqrt(lam * h * w)), capped at both sides."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"occlusion fraction must be in [0, 1], got {lam}")
    return min(int(math.floor(math.sqrt(lam * h * w) + 0.5)), h, w)
