"""Mapping from transform strength to target confidence.

The central rule: an augmentation that keeps a fraction v of the
original signal earns the true class a confidence

    p(v) = 1 - (1 - p_min) * (1 - v) ** k

which decays smoothly from 1 at v = 1 down to the chance level p_min
at v = 0. The same curve reweights self-supervised pairs, with crop
overlap playing the role of v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .loss import canonical_mode

SSL_HYPOTHESES = ("SA1", "SA2")


@dataclass(frozen=True)
class SofteningPolicy:
    """Softening curve parameters plus how the loss consumes them.

    ``k`` is the curve exponent, ``p_min`` the chance-level floor
    (1 / number of classes), and ``mode`` selects whether confidence
    softens the target distribution, the sample weight, both, or
    neither ("hard" trains on plain one-hot cross entropy). The mode is
    stored under its :data:`~softaug.loss.MODES` name, so "none" reads
    back as "hard".
    """

    k: float = 2.0
    p_min: float = 0.01
    mode: str = "target_and_weight"

    def __post_init__(self) -> None:
        if not 0 <= self.k < math.inf:
            raise ValueError(f"k must be finite and >= 0, got {self.k}")
        if not 0.0 <= self.p_min < 1.0:
            raise ValueError(f"p_min must be in [0, 1), got {self.p_min}")
        object.__setattr__(self, "mode", canonical_mode(self.mode))


def soften(v: float, policy: SofteningPolicy) -> float:
    """Confidence assigned to the true class at visibility ``v``.

    Full visibility pins the confidence to exactly 1 for every k,
    including k = 0; zero visibility yields exactly p_min. Both
    boundaries are returned directly so they hold bitwise, free of the
    1-ulp noise of the general expression.
    """
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility must be in [0, 1], got {v}")
    if v == 1.0:
        return 1.0
    if v == 0.0:
        return policy.p_min
    p = 1.0 - (1.0 - policy.p_min) * (1.0 - v) ** policy.k
    # the raw expression can land 1 ulp outside [p_min, 1] when the power
    # term rounds to 1; the contract promises the closed interval
    return min(1.0, max(policy.p_min, p))


def label_smoothing_confidence(alpha: float) -> float:
    """True-class confidence of classic label smoothing: 1 - alpha.

    Constant in the transform; exists so smoothing slots into the same
    loss machinery as the visibility curve.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    return 1.0 - alpha


def ssl_pair_confidence(iou_value: float, policy: SofteningPolicy, hypothesis: str) -> float:
    """Confidence for a positive crop pair with the given overlap.

    SA1 treats high overlap as easy (confidence rises with IoU); SA2 is
    the mirror ansatz where low overlap is easy. The two satisfy
    SA1(x) == SA2(1 - x) exactly.
    """
    if not 0.0 <= iou_value <= 1.0:
        raise ValueError(f"IoU must be in [0, 1], got {iou_value}")
    if hypothesis not in SSL_HYPOTHESES:
        raise ValueError(f"hypothesis must be one of {SSL_HYPOTHESES}, got {hypothesis!r}")
    base = 1.0 - iou_value if hypothesis == "SA1" else iou_value
    return 1.0 - (1.0 - policy.p_min) * base**policy.k


def normalize_batch_weights(weights: list[float] | np.ndarray) -> list[float]:
    """Rescale weights so their mean is exactly the neutral value 1.

    Keeps the ratio between samples while leaving the average gradient
    magnitude of a batch unchanged.
    """
    arr = np.asarray(weights, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot normalize an empty weight list")
    mean = float(arr.mean())
    if mean <= 0.0:
        raise ValueError(f"weights must have positive mean, got {mean}")
    return [float(x) for x in arr / mean]
