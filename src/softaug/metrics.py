"""Evaluation: top-1 error, expected calibration error, occlusion sweeps.

One scoring rule, ``_scores``: ``evaluate`` builds its records from one call,
``PredictionRecord.from_probs`` is its one-row view, and ``occlusion_sweep``
scores each batch it erases by ``occlude``'s rule, ``geometry._occluded``, with
it. One bin rule, ``_bin_sums``, bins ECE's confidences and visibility histograms.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset
from .geometry import _occluded, _patch_side
from .loss import softmax
from .model import MlpClassifier, forward_batch
from .sampling import RandomSource


@dataclass(frozen=True)
class PredictionRecord:
    """One classified sample: full probability vector plus the label.

    ``predicted_class`` is the argmax (first index on ties) and
    ``confidence`` the corresponding probability.
    """

    probs: np.ndarray
    true_class: int
    predicted_class: int
    confidence: float

    @classmethod
    def from_probs(cls, probs: np.ndarray, true_class: int) -> "PredictionRecord":
        probs = np.asarray(probs, dtype=float)
        predicted, confidence = _scores(probs[None], np.array([true_class]))
        return cls(probs, int(true_class), int(predicted[0]), float(confidence[0]))


def _scores(probs: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's argmax, first index on ties, and its probability; the (N, C)
    rows must be distributions over C >= 2 classes and the N labels in [0, C)."""
    if probs.ndim != 2 or probs.shape[1] < 2:
        raise ValueError(f"probs must be rows of >= 2 entries, got shape {probs.shape}")
    # positive form, so that NaN and inf fail it
    if not ((probs >= 0).all() and (np.abs(probs.sum(axis=1) - 1.0) <= 1e-6).all()):
        raise ValueError("probs must be non-negative and sum to 1")
    if not ((labels >= 0) & (labels < probs.shape[1])).all():
        raise ValueError(f"a true class is out of range for {probs.shape[1]} classes")
    predicted = probs.argmax(axis=1)
    return predicted, probs[np.arange(len(probs)), predicted]


@dataclass(frozen=True)
class CalibrationReport:
    """Reliability summary over equal-width confidence bins.

    Bin m (1-based) covers ((m-1)/M, m/M], with confidence 0 counted in
    bin 1. Empty bins report accuracy and confidence 0 and add nothing
    to the ECE.
    """

    num_bins: int
    counts: np.ndarray
    accuracies: np.ndarray
    confidences: np.ndarray
    ece: float


def evaluate(model: MlpClassifier, dataset: LabeledDataset) -> list[PredictionRecord]:
    """Softmax predictions for every image, in dataset order, unaugmented."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    probs = softmax(forward_batch(model, dataset.images))
    predicted, confidence = _scores(probs, dataset.labels)
    return [PredictionRecord(row, int(label), int(p), float(c))
            for row, label, p, c in zip(probs, dataset.labels, predicted, confidence)]


def top1_error(records: list[PredictionRecord]) -> float:
    """Fraction of records whose argmax misses the label."""
    if not records:
        raise ValueError("cannot score an empty record list")
    wrong = sum(1 for r in records if r.predicted_class != r.true_class)
    return wrong / len(records)


def _bin_sums(values: np.ndarray, num_bins: int, weights: np.ndarray | None = None) -> np.ndarray:
    """Count of ``values``, or sum of ``weights``, per bin ((m-1)/M, m/M]; 0 in bin 1."""
    bins = np.searchsorted(np.arange(1, num_bins) / num_bins, values, side="left")
    return np.bincount(bins, weights=weights, minlength=num_bins)


def ece(records: list[PredictionRecord], num_bins: int = 10) -> CalibrationReport:
    """Expected calibration error over equal-width bins.

    ECE = sum_m (n_m / n) * |accuracy_m - mean confidence_m|, where the
    sum runs over the occupied bins.
    """
    if not records:
        raise ValueError("cannot score an empty record list")
    if num_bins < 1:
        raise ValueError(f"num_bins must be >= 1, got {num_bins}")
    conf = np.array([r.confidence for r in records])
    correct = np.array([r.predicted_class == r.true_class for r in records], dtype=float)
    counts, conf_sums, correct_sums = (_bin_sums(conf, num_bins, w) for w in (None, conf, correct))
    occupied = counts > 0
    accuracies = np.zeros(num_bins)
    confidences = np.zeros(num_bins)
    accuracies[occupied] = correct_sums[occupied] / counts[occupied]
    confidences[occupied] = conf_sums[occupied] / counts[occupied]
    total = float(
        ((counts[occupied] / len(records)) * np.abs(accuracies - confidences)[occupied]).sum()
    )
    return CalibrationReport(num_bins, counts, accuracies, confidences, total)


DEFAULT_OCCLUSION_GRID = (0.0, 0.2, 0.4, 0.6, 0.8)


def occlusion_sweep(
    model: MlpClassifier,
    dataset: LabeledDataset,
    rng: RandomSource,
    lambdas: tuple[float, ...] = DEFAULT_OCCLUSION_GRID,
    trials_per_image: int = 1,
) -> list[tuple[float, float]]:
    """Top-1 error with a random square patch of each area fraction erased.

    Each (lambda, trial) pair gets its own split of ``rng``, which draws
    the patch corners ``occlude`` would draw image by image on it, so no
    row depends on another. A lambda whose patch side rounds to 0,
    lambda = 0 among them, erases nothing and draws nothing, so it runs
    one trial: its row is the clean error, ``top1_error(evaluate(...))``.
    """
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    if not lambdas:
        raise ValueError("need at least one occlusion fraction")
    if trials_per_image < 1:
        raise ValueError(f"trials_per_image must be >= 1, got {trials_per_image}")
    images, labels = dataset.images, dataset.labels
    _, _, h, w = images.shape

    def error(batch: np.ndarray) -> float:
        predicted, _ = _scores(softmax(forward_batch(model, batch)), labels)
        return int(np.count_nonzero(predicted != labels)) / len(dataset)

    rows = []
    for lam_index, lam in enumerate(lambdas):
        side = _patch_side(lam, h, w)
        errors = [error(_occluded(images, side, rng.split(lam_index).split(trial).generator))
                  for trial in range(trials_per_image if side else 1)]
        # summed, not multiplied: the row is the mean of the trials' errors
        rows.append((float(lam), sum(errors) / len(errors)))
    return rows


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.6g}"


def write_csv(path, header: list[str], rows: list[list]) -> None:
    """A header row, then ``rows`` with strings as is, integers in
    decimal and every other number as ``%.6g``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell if isinstance(cell, str) else _fmt(cell) for cell in row])


def write_sweep_csv(rows: list[tuple[float, float]], path: str) -> None:
    write_csv(path, ["lambda", "top1_error"], rows)
