"""Input checks that no other test reaches: each raises its own error,
with a message that names what was wrong."""

import struct

import numpy as np
import pytest

from softaug import (
    CheckpointError,
    GaussianCropConfig,
    LabeledDataset,
    MlpClassifier,
    NormalizationStats,
    RandomSource,
    SofteningPolicy,
    TrainConfig,
    compute_stats,
    occlude,
    occlusion_sweep,
    soft_loss,
    train,
)
from softaug.cli import DatasetSpec
from softaug.model import cosine_lr, load_checkpoint
from softaug.sampling import draw_uniform_offset


def train_config(**overrides):
    fields = dict(epochs=1, batch_size=2, lr0=0.1,
                  policy=SofteningPolicy(p_min=0.5, mode="hard"),
                  sampler=GaussianCropConfig(sigma=0.3, length=4), hidden_sizes=(4,))
    return TrainConfig(**{**fields, **overrides})


def dataset(n=2, h=4, w=4, num_classes=2):
    return LabeledDataset(np.zeros((n, 3, h, w)), np.arange(n) % num_classes, num_classes,
                          "train")


def linear_model():
    return MlpClassifier((48, 2), [np.zeros((2, 48))], [np.zeros(2)])


def checkpoint_with_one_layer(path):
    path.write_bytes(struct.pack("<8sII", b"SAMLP001", 1, 1) + struct.pack("<I", 4))
    return load_checkpoint(str(path))


CASES = {
    "dataset ndim": (lambda _: LabeledDataset(np.zeros((2, 4, 4)), np.zeros(2, int), 2,
                                              "train"),
                     ValueError, "(N, C, H, W)"),
    "dataset classes": (lambda _: dataset(num_classes=1), ValueError, "at least 2 classes"),
    "stats shapes": (lambda _: NormalizationStats(np.zeros(3), np.ones(2)),
                     ValueError, "equal length"),
    "stats of empty": (lambda _: compute_stats(dataset(n=0)), ValueError, "empty dataset"),
    # the spec checks the source table itself, so no spec reaches build_datasets
    # with a source or a CIFAR class count the table does not hold
    "unknown source": (lambda _: DatasetSpec("imagenet", 5, 1, 1), ValueError,
                       "source must be one of ('synth', 'cifar10', 'cifar100'), got 'imagenet'"),
    "cifar classes": (lambda _: DatasetSpec("cifar10", 5), ValueError,
                      "num_classes must be 10 for cifar10, got 5"),
    # a field outside the source's row keeps its default, so two specs of
    # the same data compare equal, as compare's arms must
    "cifar with synth fields": (lambda _: DatasetSpec("cifar10", 10, train_per_class=5, seed=3,
                                                      train_path="a", test_path="b"),
                                ValueError, "train_per_class does not apply to source cifar10"),
    "synth with paths": (lambda _: DatasetSpec("synth", 4, 2, 2, test_path="b"), ValueError,
                         "test_path does not apply to source synth"),
    "occlude 2-d": (lambda _: occlude(np.ones((4, 4)), 0.5, RandomSource(0)),
                    ValueError, "(C, H, W)"),
    "soft_loss 2-d": (lambda _: soft_loss(np.zeros((2, 2)), 0, 1.0, "hard"),
                      ValueError, "1-d logit vector"),
    "sweep of empty": (lambda _: occlusion_sweep(linear_model(), dataset(n=0), RandomSource(0)),
                       ValueError, "empty dataset"),
    "model biases": (lambda _: MlpClassifier((48, 2), [np.zeros((2, 48))], [np.zeros(3)]),
                     ValueError, "bias shapes"),
    "cosine_lr total": (lambda _: cosine_lr(0, 0, 0.1), ValueError, "total_epochs must be >= 1"),
    "negative epochs": (lambda _: train_config(epochs=-1), ValueError, "epochs must be >= 0"),
    "zero hidden size": (lambda _: train_config(hidden_sizes=(0,)),
                         ValueError, "hidden sizes must be >= 1"),
    "train on empty": (lambda _: train(dataset(n=0), train_config()),
                       ValueError, "empty dataset"),
    "train non-square": (lambda _: train(dataset(w=5), train_config()),
                         ValueError, "square images"),
    "one-layer checkpoint": (checkpoint_with_one_layer, CheckpointError, "need >= 2 layer sizes"),
    "negative offset range": (lambda _: draw_uniform_offset(-1, RandomSource(0)),
                              ValueError, "range_r must be >= 0"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_check_raises_and_names_the_fault(case, tmp_path):
    call, error, fragment = CASES[case]
    with pytest.raises(error) as info:
        call(tmp_path / "checkpoint.bin")
    assert fragment in str(info.value)
