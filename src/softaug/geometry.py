"""Integer pixel geometry for crops and occlusion patches.

Images are numpy arrays of shape (channels, height, width) with float
pixel values. Crop windows are axis-aligned integer rectangles. Every
function here is pure: inputs are never modified in place, and all
coordinates are whole pixels (no sub-pixel interpolation anywhere).
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

    ``tx`` and ``ty`` locate the top-left corner along the first and
    second spatial axes; ``w`` and ``h`` are the side lengths. The
    window may extend past the image bounds (out-of-bounds area reads
    as padding), but must have positive size.
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

    The window must have the same size as the image and an offset no
    larger than the image in either axis. Output pixel (c, i, j) equals
    input pixel (c, i + tx, j + ty) where that index is in bounds and
    zero elsewhere, which is exactly a crop of the zero-padded image.
    """
    if image.ndim != 3:
        raise ValueError(f"expected a (C, H, W) image, got shape {image.shape}")
    _, h, w = image.shape
    if (window.w, window.h) != (w, h):
        raise ValueError(
            f"window size {window.w}x{window.h} must match image size {w}x{h}"
        )
    tx, ty = window.tx, window.ty
    if abs(tx) > h or abs(ty) > w:
        raise ValueError(f"offset ({tx}, {ty}) exceeds image size {h}x{w}")
    out = np.zeros_like(image)
    i0, i1 = max(0, -tx), min(h, h - tx)
    j0, j1 = max(0, -ty), min(w, w - ty)
    if i0 < i1 and j0 < j1:
        out[:, i0:i1, j0:j1] = image[:, i0 + tx : i1 + tx, j0 + ty : j1 + ty]
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
    if width < 1 or height < 1:
        raise ValueError(f"image sides must be >= 1, got {width}x{height}")
    ix = min(window.tx + window.w, width) - max(window.tx, 0)
    iy = min(window.ty + window.h, height) - max(window.ty, 0)
    return max(ix, 0) * max(iy, 0) / (width * height)


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
    ``lam == 0`` returns an unmodified copy and consumes no randomness,
    so sweeps at zero occlusion reproduce plain evaluation exactly.
    """
    if image.ndim != 3:
        raise ValueError(f"expected a (C, H, W) image, got shape {image.shape}")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"occlusion fraction must be in [0, 1], got {lam}")
    out = image.copy()
    if lam == 0.0:
        return out
    _, h, w = image.shape
    side = int(math.floor(math.sqrt(lam * h * w) + 0.5))
    side = min(side, h, w)
    if side == 0:
        return out
    top = rng.integers(0, h - side)
    left = rng.integers(0, w - side)
    out[:, top : top + side, left : left + side] = 0.0
    return out
