"""Soft augmentation lab: crop-conditioned target softening for small
classifiers, with samplers, losses, a trainer, and calibration metrics."""

from .geometry import CropWindow, crop_visibility, iou, occlude, pad_and_crop, visibility
from .sampling import (
    GaussianCropConfig,
    RandomSource,
    ResizeCropConfig,
    StandardCropConfig,
    UniformCropConfig,
    draw_gaussian_window,
    draw_offset,
    draw_resize_crop,
    draw_standard_resize_crop,
    draw_uniform_offset,
    draw_uniform_window,
)
from .softening import (
    SofteningPolicy,
    label_smoothing_confidence,
    normalize_batch_weights,
    soften,
    ssl_pair_confidence,
)
from .loss import (
    MODES,
    log_softmax,
    loss_and_grad,
    make_soft_target,
    soft_loss,
    soft_loss_grad,
    softmax,
)
from .data import (
    LabeledDataset,
    NormalizationStats,
    ParseError,
    compute_stats,
    flip_horizontal,
    hflip,
    normalize,
    parse_cifar10,
    parse_cifar100,
    synth_shapes,
)
from .model import (
    CheckpointError,
    EpochStats,
    MlpClassifier,
    NonFiniteLossError,
    SigmaDecay,
    TrainConfig,
    backward,
    cosine_lr,
    effective_sigma,
    forward,
    forward_batch,
    init_mlp,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .metrics import (
    DEFAULT_OCCLUSION_GRID,
    CalibrationReport,
    PredictionRecord,
    ece,
    evaluate,
    occlusion_sweep,
    top1_error,
    write_calibration_csv,
    write_sweep_csv,
)
from .softening import SSL_HYPOTHESES
from .sslweights import CropPair, pair_weights

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
