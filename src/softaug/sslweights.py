"""Loss weights for self-supervised crop pairs.

A positive pair is two crop windows of the same source image. The
overlap (IoU) of the pair maps through the softening curve ``soften``
to a loss weight, under either of two opposing hypotheses about which
pairs are easy, and weights are normalized per batch so their mean stays 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CropWindow, crop_visibility, iou
from .softening import SofteningPolicy, soften

SSL_HYPOTHESES = ("SA1", "SA2")


@dataclass(frozen=True)
class CropPair:
    """Two crop windows over one width x height source image.

    Both windows must actually intersect the image; the IoU is taken
    between the windows themselves, in source-image coordinates.
    """

    first: CropWindow
    second: CropWindow
    width: int
    height: int

    def __post_init__(self) -> None:
        for name in ("first", "second"):
            window = getattr(self, name)
            if crop_visibility(window, self.width, self.height) == 0.0:
                raise ValueError(f"{name} window {window} lies outside the image")

    def overlap(self) -> float:
        return iou(self.first, self.second)


def ssl_pair_confidence(iou_value: float, policy: SofteningPolicy, hypothesis: str) -> float:
    """Confidence for a positive crop pair with the given overlap.

    SA1 treats high overlap as easy, ``soften(IoU)``; SA2 is the mirror
    ansatz where low overlap is easy, ``soften(1 - IoU)``. Both lie in
    [p_min, 1] and SA1(x) == SA2(1 - x) bit for bit: ``soften`` reads v
    only through 1 - v. Only the curve applies: ``alpha`` is rejected.
    """
    if policy.alpha is not None:
        raise ValueError(f"SSL pair weights use the softening curve; got alpha={policy.alpha}")
    if not 0.0 <= iou_value <= 1.0:
        raise ValueError(f"IoU must be in [0, 1], got {iou_value}")
    if hypothesis not in SSL_HYPOTHESES:
        raise ValueError(f"hypothesis must be one of {SSL_HYPOTHESES}, got {hypothesis!r}")
    return soften(iou_value if hypothesis == "SA1" else 1.0 - iou_value, policy)


def normalize_batch_weights(weights: list[float] | np.ndarray) -> list[float]:
    """Rescale weights so their mean is exactly the neutral value 1.

    Keeps the ratio between samples while leaving the average gradient
    magnitude of a batch unchanged.
    """
    arr = np.asarray(weights, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot normalize an empty weight list")
    if not (np.isfinite(arr).all() and (arr >= 0).all() and arr.mean() > 0.0):
        raise ValueError(f"weights must be finite and >= 0 with a positive mean, got {arr}")
    return [float(x) for x in arr / arr.mean()]


def pair_weights(pairs: list[CropPair], policy: SofteningPolicy,
                 hypothesis: str) -> list[float]:
    """Per-pair loss weights for a batch of positive pairs.

    Raw weights come from the softening curve applied to each pair's
    IoU (:func:`ssl_pair_confidence`) and are rescaled to mean 1 so the
    batch keeps its overall gradient scale.
    """
    if not pairs:
        raise ValueError("cannot weight an empty batch of pairs")
    return normalize_batch_weights(
        [ssl_pair_confidence(pair.overlap(), policy, hypothesis) for pair in pairs])
