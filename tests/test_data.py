import numpy as np
import pytest

from softaug import (
    LabeledDataset,
    NormalizationStats,
    ParseError,
    RandomSource,
    compute_stats,
    normalize,
    synth_shapes,
)
from softaug.data import hflip, parse_cifar10, parse_cifar100


def cifar10_record(label, pixels):
    assert len(pixels) == 3072
    return bytes([label]) + bytes(pixels)


def cifar100_record(coarse, fine, pixels):
    return bytes([coarse, fine]) + bytes(pixels)


def test_parse_cifar10_empty():
    ds = parse_cifar10(b"")
    assert len(ds) == 0
    assert ds.num_classes == 10


def test_parse_cifar10_single_record():
    pixels = [i % 256 for i in range(3072)]
    ds = parse_cifar10(cifar10_record(7, pixels))
    assert len(ds) == 1
    assert int(ds.labels[0]) == 7
    assert ds.images.shape == (1, 3, 32, 32)
    assert ds.images[0, 0, 0, 0] == 0.0
    assert ds.images[0, 0, 0, 1] == 1 / 255
    # channel-major: pixel (c, i, j) comes from byte c*1024 + i*32 + j
    assert ds.images[0, 1, 0, 0] == (1024 % 256) / 255
    assert ds.images[0, 2, 5, 3] == ((2048 + 5 * 32 + 3) % 256) / 255
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0


def test_parse_cifar10_truncation_offset():
    blob = cifar10_record(0, [0] * 3072) * 2 + b"\x01"
    with pytest.raises(ParseError, match="6146"):
        parse_cifar10(blob)


def test_parse_cifar10_label_out_of_range():
    with pytest.raises(ParseError):
        parse_cifar10(cifar10_record(10, [0] * 3072))


def test_parse_cifar100_labels():
    pixels = [0] * 3072
    ds = parse_cifar100(cifar100_record(3, 42, pixels))
    assert int(ds.labels[0]) == 42
    assert ds.num_classes == 100


def test_parse_cifar100_bad_fine_label_names_record():
    pixels = [0] * 3072
    blob = cifar100_record(0, 5, pixels) + cifar100_record(0, 200, pixels)
    with pytest.raises(ParseError, match="record 1"):
        parse_cifar100(blob)


def test_parse_cifar100_truncation():
    with pytest.raises(ParseError):
        parse_cifar100(b"\x00" * (3074 + 5))


def test_synth_shapes_deterministic_and_balanced():
    a = synth_shapes(10, 4, seed=5)
    b = synth_shapes(10, 4, seed=5)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)
    assert len(a) == 40
    for cls in range(4):
        assert int((a.labels == cls).sum()) == 10
    assert a.images.shape == (40, 3, 32, 32)
    assert a.images.min() >= 0.0 and a.images.max() <= 1.0


def test_synth_shapes_seeds_differ():
    a = synth_shapes(5, 4, seed=1)
    b = synth_shapes(5, 4, seed=2)
    assert not np.array_equal(a.images, b.images)


def test_synth_shapes_validates():
    with pytest.raises(ValueError):
        synth_shapes(10, 1, seed=0)
    with pytest.raises(ValueError):
        synth_shapes(10, 9, seed=0)
    with pytest.raises(ValueError):
        synth_shapes(0, 4, seed=0)


def test_synth_shapes_nearest_centroid_learnable():
    train = synth_shapes(50, 4, seed=11)
    test = synth_shapes(25, 4, seed=12, split="test")
    centroids = np.stack([
        train.images[train.labels == cls].reshape(50, -1).mean(axis=0) for cls in range(4)
    ])
    flat = test.images.reshape(len(test), -1)
    distances = ((flat[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    predictions = distances.argmin(axis=1)
    error = (predictions != test.labels).mean()
    assert error < 0.30


def flipping_seed():
    """A seed whose first draw makes hflip mirror the image."""
    return next(seed for seed in range(64) if RandomSource(seed).random() < 0.5)


def test_flip_horizontal():
    seed = flipping_seed()
    image = np.array([[[1.0, 2.0]]])
    assert hflip(image, RandomSource(seed)).tolist() == [[[2.0, 1.0]]]
    rng = np.random.default_rng(50)
    random_image = rng.random((3, 8, 8))
    flipped = hflip(random_image, RandomSource(seed))
    assert np.array_equal(hflip(flipped, RandomSource(seed)), random_image)
    assert flipped.sum() == pytest.approx(random_image.sum(), abs=1e-9)
    # the mirror is a copy, never a view of the input
    flipped[0, 0, 0] = -1.0
    assert random_image.min() >= 0.0


def test_hflip_consumes_exactly_one_draw():
    image = np.arange(12.0).reshape(1, 3, 4)
    for seed in range(8):
        rng = RandomSource(seed)
        out = hflip(image, rng)
        twin = RandomSource(seed)
        expect_flip = twin.random() < 0.5
        assert np.array_equal(out, image[:, :, ::-1] if expect_flip else image)
        # downstream draws stay aligned with the twin stream
        assert rng.normal() == twin.normal()


def test_hflip_hits_both_branches():
    image = np.array([[[1.0, 2.0]]])
    outcomes = {hflip(image, RandomSource(seed))[0, 0, 0] for seed in range(32)}
    assert outcomes == {1.0, 2.0}


def test_compute_stats_and_normalize_roundtrip():
    ds = synth_shapes(20, 4, seed=13)
    stats = compute_stats(ds)
    assert stats.mean.shape == (3,)
    normalized = normalize(ds, stats)
    assert normalized.images.mean(axis=(0, 2, 3)) == pytest.approx(np.zeros(3), abs=1e-9)
    assert normalized.images.std(axis=(0, 2, 3)) == pytest.approx(np.ones(3), abs=1e-9)
    assert np.array_equal(normalized.labels, ds.labels)


def test_normalize_hand_values():
    images = np.full((2, 3, 4, 4), 0.5)
    labels = np.zeros(2, dtype=np.int64)
    ds = LabeledDataset(images, labels, num_classes=2, split="train")
    stats = NormalizationStats(np.full(3, 0.5), np.full(3, 0.25))
    assert (normalize(ds, stats).images == 0.0).all()
    identity = NormalizationStats(np.zeros(3), np.ones(3))
    assert np.array_equal(normalize(ds, identity).images, images)


def test_normalization_stats_validate():
    with pytest.raises(ValueError):
        NormalizationStats(np.zeros(3), np.zeros(3))


def test_dataset_validation():
    images = np.zeros((4, 3, 32, 32))
    with pytest.raises(ValueError):
        LabeledDataset(images, np.array([0, 1, 2, 5]), num_classes=4, split="train")
    with pytest.raises(ValueError):
        LabeledDataset(images, np.zeros(3, dtype=np.int64), num_classes=4, split="train")
    with pytest.raises(ValueError):
        LabeledDataset(images, np.zeros(4, dtype=np.int64), num_classes=4, split="dev")
