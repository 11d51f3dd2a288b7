"""Mapping from transform strength to target confidence.

The central rule: an augmentation that keeps a fraction v of the
original signal earns the true class a confidence

    p(v) = 1 - (1 - p_min) * (1 - v) ** k

which decays smoothly from 1 at v = 1 down to the chance level p_min
at v = 0. :func:`soften` is its one statement; :mod:`softaug.sslweights`
calls it for crop pairs, with the overlap (SA1) or 1 - overlap (SA2) as v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .loss import canonical_mode


@dataclass(frozen=True)
class SofteningPolicy:
    """Softening curve parameters plus how the loss consumes them.

    ``p_min`` is the chance-level floor (1 / number of classes), ``k``
    the curve exponent, and ``mode`` selects whether confidence
    softens the target distribution, the sample weight, both, or
    neither ("hard" trains on plain one-hot cross entropy). The mode is
    stored under its :data:`~softaug.loss.MODES` name, so "none" reads
    back as "hard". Setting ``alpha`` makes it label smoothing: a
    constant confidence 1 - alpha, not below p_min, in place of the curve.
    """

    p_min: float
    k: float = 2.0
    mode: str = "target_and_weight"
    alpha: float | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.k < math.inf:
            raise ValueError(f"k must be finite and >= 0, got {self.k}")
        if not 0.0 <= self.p_min < 1.0:
            raise ValueError(f"p_min must be in [0, 1), got {self.p_min}")
        if self.alpha is not None and not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {self.alpha}")
        if self.alpha is not None and 1.0 - self.alpha < self.p_min:
            raise ValueError(f"alpha={self.alpha} puts 1 - alpha below chance {self.p_min}")
        object.__setattr__(self, "mode", canonical_mode(self.mode))


def soften(v: float, policy: SofteningPolicy) -> float:
    """Confidence assigned to the true class at visibility ``v``.

    A policy with ``alpha`` set returns 1 - alpha for every v. Otherwise
    the result depends on v only through its shortfall 1 - v: exactly 1
    at shortfall 0 (v = 1) for every k, k = 0 included, and exactly p_min
    at shortfall 1 (v = 0, and v <= 2**-54, which 1 - v rounds away).
    Both are returned directly, free of the 1-ulp noise of the formula.
    """
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility must be in [0, 1], got {v}")
    if policy.alpha is not None:
        return 1.0 - policy.alpha
    shortfall = 1.0 - v
    if shortfall == 0.0:
        return 1.0
    if shortfall == 1.0:
        return policy.p_min
    p = 1.0 - (1.0 - policy.p_min) * shortfall ** policy.k
    # the raw expression can land 1 ulp outside [p_min, 1] when the power
    # term rounds to 1; the contract promises the closed interval
    return min(1.0, max(policy.p_min, p))
