"""Softened classification losses with analytic gradients.

Every mode is the KL divergence from a target distribution to the
model's softmax, times a scalar sample weight:

    loss = w * KL(target || softmax(logits))

    hard               target = one-hot,  w = 1   (plain cross entropy
                                                   up to the constant
                                                   target entropy, which
                                                   is 0 for one-hot)
    target             target = soft,     w = 1
    weight             target = one-hot,  w = p
    target_and_weight  target = soft,     w = p

where the soft target puts p on the true class and spreads the rest
evenly. Because the modes share one formula, the identities
weight = p * hard and target_and_weight = p * target hold exactly in
floating point, and the gradient is always w * (softmax - target).

:func:`loss_and_grad` is the one implementation; the trainer calls it
on whole batches and the per-sample functions are one-row views of it.
It and ``model.check_trainable`` read the table from ``_MODE_TABLE``.
"""

from __future__ import annotations

import numpy as np

# mode -> (soft target, p-weighted): the table above, stated once
_MODE_TABLE = {"hard": (False, False), "target": (True, False),
               "weight": (False, True), "target_and_weight": (True, True)}
MODES = tuple(_MODE_TABLE)


def canonical_mode(mode: str) -> str:
    """The :data:`MODES` name of ``mode``; "none" is accepted for "hard"."""
    name = "hard" if mode == "none" else mode
    if name not in MODES:
        raise ValueError(f"mode must be one of {MODES} or 'none', got {mode!r}")
    return name


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-probabilities over the last axis via the log-sum-exp trick.

    Never computed as log(softmax(x)): each row is shifted by its max,
    so every exponent is <= 0 and the result is finite for any finite
    logits.
    """
    z = np.asarray(logits, dtype=float)
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Probabilities over the last axis; each row is shifted by its max
    so every exponent is <= 0."""
    z = np.asarray(logits, dtype=float)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _soft_targets(labels: np.ndarray, ps: np.ndarray, num_classes: int) -> np.ndarray:
    """Rows with ps[i] on class labels[i] and (1 - ps[i]) / (N - 1) elsewhere."""
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    if ((labels < 0) | (labels >= num_classes)).any():
        raise ValueError(f"true class out of range for {num_classes} classes")
    if not ((ps >= 1.0 / num_classes) & (ps <= 1.0)).all():
        raise ValueError(f"confidence outside [1/{num_classes}, 1]")
    targets = np.repeat(((1.0 - ps) / (num_classes - 1))[:, None], num_classes, axis=1)
    targets[np.arange(labels.size), labels] = ps
    return targets


def make_soft_target(true_class: int, p: float, num_classes: int) -> np.ndarray:
    """Distribution with p on the true class, (1-p)/(N-1) on the others.

    ``p`` must lie in [1/N, 1]; at p = 1/N the target is uniform and at
    p = 1 it is one-hot.
    """
    return _soft_targets(np.array([true_class]), np.array([p], dtype=float), num_classes)[0]


def loss_and_grad(logits: np.ndarray, labels: np.ndarray, ps: np.ndarray,
                  mode: str) -> tuple[float, np.ndarray]:
    """Mean weighted KL loss of a batch and its gradient in the logits.

    ``logits`` is (B, N); row i has true class ``labels[i]`` and
    confidence ``ps[i]``. The soft-target modes need every p in
    [1/N, 1], the one-hot modes any p in [0, 1]. Row i
    of the returned (B, N) gradient is w_i * (softmax - target_i) / B.
    Zero target entries contribute exactly zero (0 * log 0 == 0), so
    hard mode reduces to -log softmax(logits)[true_class]. Non-finite
    logits give a NaN loss rather than being masked.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    ps = np.asarray(ps, dtype=float)
    b, num_classes = logits.shape
    if b == 0:
        raise ValueError("cannot average a loss over an empty batch")
    soft_target, p_weighted = _MODE_TABLE[mode]
    if not (soft_target or ((ps >= 0.0) & (ps <= 1.0)).all()):
        raise ValueError("confidence outside [0, 1]")
    targets = _soft_targets(labels, ps if soft_target else np.ones(b), num_classes)
    weights = ps if p_weighted else np.ones(b)
    log_q = _log_softmax(logits)
    q = np.exp(log_q)
    mask = targets > 0
    safe = np.where(mask, targets, 1.0)
    kl = np.where(mask, targets * (np.log(safe) - log_q), 0.0).sum(axis=1)
    # KL >= 0 mathematically; clamp the roundoff tail when q == target
    # (np.maximum keeps NaN, so a non-finite loss still surfaces)
    kl = np.maximum(kl, 0.0)
    loss = float((weights * kl).mean())
    return loss, weights[:, None] * (q - targets) / b


def _one_sample(logits: np.ndarray, true_class: int, p: float,
                mode: str) -> tuple[float, np.ndarray]:
    z = np.asarray(logits, dtype=float)
    if z.ndim != 1 or z.size < 2:
        raise ValueError(f"expected a 1-d logit vector with >= 2 entries, got shape {z.shape}")
    return loss_and_grad(z[None, :], np.array([true_class]), np.array([p], dtype=float), mode)


def soft_loss(logits: np.ndarray, true_class: int, p: float, mode: str) -> float:
    """Weighted KL loss of one sample under the given mode: the
    one-row case of :func:`loss_and_grad`."""
    return _one_sample(logits, true_class, p, mode)[0]


def soft_loss_grad(logits: np.ndarray, true_class: int, p: float, mode: str) -> np.ndarray:
    """d loss / d logits = weight * (softmax(logits) - target)."""
    return _one_sample(logits, true_class, p, mode)[1][0]
