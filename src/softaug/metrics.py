"""Evaluation: top-1 error, expected calibration error, occlusion sweeps.

``evaluate`` turns a test set into per-sample prediction records, which
``top1_error`` and ``ece`` consume; ``occlusion_sweep`` erases by ``occlude``'s
rule, ``geometry._occluded``, and scores on arrays with the records' argmax rule.
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
        if probs.ndim != 1 or probs.size < 2:
            raise ValueError(f"probs must be a 1-d vector with >= 2 entries, got {probs.shape}")
        # positive form, so that NaN and inf fail it
        if not ((probs >= 0).all() and abs(float(probs.sum()) - 1.0) <= 1e-6):
            raise ValueError("probs must be non-negative and sum to 1")
        if not 0 <= true_class < probs.size:
            raise ValueError(f"true_class {true_class} out of range for {probs.size} classes")
        predicted = int(probs.argmax())
        return cls(probs, int(true_class), predicted, float(probs[predicted]))


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
    return [
        PredictionRecord.from_probs(row, int(label))
        for row, label in zip(probs, dataset.labels)
    ]


def top1_error(records: list[PredictionRecord]) -> float:
    """Fraction of records whose argmax misses the label."""
    if not records:
        raise ValueError("cannot score an empty record list")
    wrong = sum(1 for r in records if r.predicted_class != r.true_class)
    return wrong / len(records)


def _bin_index(confidences: np.ndarray, num_bins: int) -> np.ndarray:
    """1-based bin of each confidence: smallest m with conf <= m / M."""
    edges = np.arange(1, num_bins) / num_bins
    return np.searchsorted(edges, confidences, side="left") + 1


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
    bins = _bin_index(conf, num_bins)
    counts = np.bincount(bins, minlength=num_bins + 1)[1:]
    conf_sums = np.bincount(bins, weights=conf, minlength=num_bins + 1)[1:]
    correct_sums = np.bincount(bins, weights=correct, minlength=num_bins + 1)[1:]
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
    lambda = 0 among them, erases nothing and consumes no randomness;
    its row is the mean of ``trials_per_image`` copies of the clean
    error, equal to it at ``%.6g`` but not always in the last bit.
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
        # argmax of the probabilities, not the logits: ties made by exp
        # rounding resolve to the first index, as in PredictionRecord
        predicted = softmax(forward_batch(model, batch)).argmax(axis=1)
        return int(np.count_nonzero(predicted != labels)) / len(dataset)

    rows = []
    clean = None
    for lam_index, lam in enumerate(lambdas):
        side = _patch_side(lam, h, w)
        if side == 0:
            # no patch and no draws: every trial scores the clean images
            if clean is None:
                clean = error(images)
            errors = [clean] * trials_per_image
        else:
            errors = [error(_occluded(images, side, rng.split(lam_index).split(trial).generator))
                      for trial in range(trials_per_image)]
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
