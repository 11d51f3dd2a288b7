"""Evaluation: top-1 error, expected calibration error, occlusion sweeps.

A model's test-set behavior is captured as a list of per-sample
prediction records; every metric here consumes those records, so the
same evaluation pass feeds accuracy, calibration, and robustness
numbers.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset
from .geometry import occlude
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
        if (probs < 0).any() or abs(float(probs.sum()) - 1.0) > 1e-6:
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

    Each (lambda, trial, image) triple gets its own split of ``rng``,
    so results do not depend on evaluation order. lambda = 0 erases
    nothing and consumes no randomness, so its row always equals the
    clean error.
    """
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    if not lambdas:
        raise ValueError("need at least one occlusion fraction")
    if trials_per_image < 1:
        raise ValueError(f"trials_per_image must be >= 1, got {trials_per_image}")
    rows = []
    for lam_index, lam in enumerate(lambdas):
        errors = []
        for trial in range(trials_per_image):
            stream = rng.split(lam_index).split(trial)
            patched = np.stack(
                [occlude(image, lam, stream.split(i))
                 for i, image in enumerate(dataset.images)]
            )
            occluded = LabeledDataset(
                patched, dataset.labels, dataset.num_classes, dataset.split
            )
            errors.append(top1_error(evaluate(model, occluded)))
        rows.append((float(lam), sum(errors) / len(errors)))
    return rows


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.6g}"


def write_calibration_csv(report: CalibrationReport, path: str) -> None:
    """Per-bin reliability rows followed by a trailing ece row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin", "count", "accuracy", "confidence"])
        for m in range(report.num_bins):
            writer.writerow(
                [m + 1, int(report.counts[m]), _fmt(report.accuracies[m]),
                 _fmt(report.confidences[m])]
            )
        writer.writerow(["ece", _fmt(report.ece), "", ""])


def write_sweep_csv(rows: list[tuple[float, float]], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "top1_error"])
        for lam, err in rows:
            writer.writerow([_fmt(lam), _fmt(err)])
