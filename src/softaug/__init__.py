"""Soft augmentation lab: crop-conditioned target softening for small
classifiers, with samplers, losses, a trainer, and calibration metrics.

The package namespace holds the documented surface in ``__all__``;
everything else lives in its submodule, e.g. ``softaug.loss.softmax``.
"""

from .geometry import CropWindow, iou, occlude, pad_and_crop, visibility
from .sampling import (GaussianCropConfig, RandomSource, ResizeCropConfig, StandardCropConfig,
                       UniformCropConfig, draw_gaussian_window, draw_resize_crop,
                       draw_standard_resize_crop, draw_uniform_window)
from .softening import SofteningPolicy, soften
from .loss import MODES, loss_and_grad, make_soft_target, soft_loss, soft_loss_grad
from .data import (LabeledDataset, NormalizationStats, ParseError, compute_stats, normalize,
                   synth_shapes)
from .model import (CheckpointError, EpochStats, MlpClassifier, NonFiniteLossError, TrainConfig,
                    train)
from .metrics import (CalibrationReport, PredictionRecord, ece, evaluate, occlusion_sweep,
                      top1_error)
from .sslweights import CropPair, pair_weights, ssl_pair_confidence

__version__ = "0.1.0"

__all__ = [
    "CropWindow", "iou", "occlude", "pad_and_crop", "visibility",
    "GaussianCropConfig", "RandomSource", "ResizeCropConfig", "StandardCropConfig",
    "UniformCropConfig", "draw_gaussian_window", "draw_resize_crop",
    "draw_standard_resize_crop", "draw_uniform_window",
    "SofteningPolicy", "soften",
    "MODES", "loss_and_grad", "make_soft_target", "soft_loss", "soft_loss_grad",
    "LabeledDataset", "NormalizationStats", "ParseError", "compute_stats", "normalize",
    "synth_shapes",
    "CheckpointError", "EpochStats", "MlpClassifier", "NonFiniteLossError", "TrainConfig",
    "train",
    "CalibrationReport", "PredictionRecord", "ece", "evaluate", "occlusion_sweep",
    "top1_error",
    "CropPair", "pair_weights", "ssl_pair_confidence",
]
