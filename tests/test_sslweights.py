import numpy as np
import pytest

from softaug import (
    CropPair,
    CropWindow,
    SofteningPolicy,
    iou,
    pair_weights,
    ssl_pair_confidence,
)


def make_pair(a, b, size=64):
    return CropPair(CropWindow(*a), CropWindow(*b), size, size)


def test_pair_overlap_is_window_iou():
    pair = make_pair((0, 0, 32, 32), (16, 16, 32, 32))
    assert pair.overlap() == iou(CropWindow(0, 0, 32, 32), CropWindow(16, 16, 32, 32))


def test_pair_identical_windows_full_overlap():
    pair = make_pair((8, 8, 20, 20), (8, 8, 20, 20))
    assert pair.overlap() == 1.0


def test_pair_disjoint_windows_zero_overlap():
    pair = make_pair((0, 0, 16, 16), (32, 32, 16, 16))
    assert pair.overlap() == 0.0


def test_pair_rejects_window_outside_image():
    with pytest.raises(ValueError, match="second"):
        make_pair((0, 0, 16, 16), (100, 100, 16, 16))
    with pytest.raises(ValueError, match="first"):
        make_pair((-50, 0, 16, 16), (0, 0, 16, 16))


def test_pair_rejects_degenerate_image():
    with pytest.raises(ValueError):
        CropPair(CropWindow(0, 0, 4, 4), CropWindow(0, 0, 4, 4), 0, 4)


def test_pair_names_the_side_bound():
    # a full-image window on a 2**32 image is not "outside the image":
    # the sides are past the int64 bound of the coverage arithmetic
    full = CropWindow(0, 0, 2**32, 2**32)
    with pytest.raises(ValueError, match=r"2\*\*31") as info:
        CropPair(full, full, 2**32, 2**32)
    assert "outside" not in str(info.value)


def test_pair_overlap_uses_source_coordinates():
    # windows hanging off the image edge still overlap by their full
    # rectangles, not the visible parts
    pair = make_pair((-8, 0, 16, 16), (-8, 0, 16, 16), size=32)
    assert pair.overlap() == 1.0


# --- hypothesis curves ---


def test_sa1_increases_with_overlap():
    policy = SofteningPolicy(k=2.0, p_min=0.1)
    assert ssl_pair_confidence(0.0, policy, "SA1") == 0.1
    assert ssl_pair_confidence(1.0, policy, "SA1") == 1.0
    assert ssl_pair_confidence(0.5, policy, "SA1") == pytest.approx(0.775, abs=1e-12)


def test_sa2_decreases_with_overlap():
    policy = SofteningPolicy(k=2.0, p_min=0.1)
    assert ssl_pair_confidence(0.0, policy, "SA2") == 1.0
    assert ssl_pair_confidence(1.0, policy, "SA2") == 0.1
    assert ssl_pair_confidence(0.5, policy, "SA2") == pytest.approx(0.775, abs=1e-12)


def test_hypotheses_are_mirror_images():
    policy = SofteningPolicy(k=3.0, p_min=0.05)
    rng = np.random.default_rng(120)
    for x in rng.uniform(0.0, 1.0, 10_000):
        assert ssl_pair_confidence(x, policy, "SA1") == ssl_pair_confidence(1.0 - x, policy, "SA2")


def test_sa1_monotone_nondecreasing():
    policy = SofteningPolicy(k=2.0, p_min=0.1)
    rng = np.random.default_rng(121)
    xs = np.sort(rng.uniform(0.0, 1.0, 10_000))
    vals = [ssl_pair_confidence(x, policy, "SA1") for x in xs]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_sa2_monotone_nonincreasing():
    policy = SofteningPolicy(k=2.0, p_min=0.1)
    rng = np.random.default_rng(122)
    xs = np.sort(rng.uniform(0.0, 1.0, 10_000))
    vals = [ssl_pair_confidence(x, policy, "SA2") for x in xs]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_unknown_hypothesis_rejected():
    with pytest.raises(ValueError):
        ssl_pair_confidence(0.5, SofteningPolicy(k=2.0, p_min=0.1), "SA3")


# --- batch weights ---


def test_pair_weights_mean_one():
    policy = SofteningPolicy(k=2.0, p_min=0.1)
    rng = np.random.default_rng(123)
    pairs = []
    while len(pairs) < 64:
        tx, ty = rng.integers(0, 32, 2)
        ux, uy = rng.integers(0, 32, 2)
        pairs.append(make_pair((tx, ty, 32, 32), (ux, uy, 32, 32)))
    for hypothesis in ("SA1", "SA2"):
        weights = pair_weights(pairs, policy, hypothesis)
        assert sum(weights) / len(weights) == pytest.approx(1.0, abs=1e-12)


def test_pair_weights_unnormalized_are_curve_values():
    policy = SofteningPolicy(k=2.0, p_min=0.1)
    pairs = [
        make_pair((0, 0, 32, 32), (0, 0, 32, 32)),
        make_pair((0, 0, 16, 16), (32, 32, 16, 16)),
    ]
    raw = [ssl_pair_confidence(pair.overlap(), policy, "SA1") for pair in pairs]
    assert raw == [1.0, 0.1]
    assert pair_weights(pairs, policy, "SA1") == pytest.approx(
        [1.0 / 0.55, 0.1 / 0.55], abs=1e-12)


def test_pair_weights_reject_alpha_policy():
    # SSL weights use only the curve; a smoothing alpha would be ignored
    pairs = [make_pair((0, 0, 32, 32), (2, 2, 32, 32))]
    with pytest.raises(ValueError, match="alpha"):
        pair_weights(pairs, SofteningPolicy(p_min=0.1, alpha=0.1), "SA1")


def test_pair_weights_order_follows_input():
    policy = SofteningPolicy(k=2.0, p_min=0.1)
    near = make_pair((0, 0, 32, 32), (2, 2, 32, 32))
    far = make_pair((0, 0, 32, 32), (24, 24, 32, 32))
    weights = pair_weights([near, far], policy, "SA1")
    assert weights[0] > weights[1]
    flipped = pair_weights([far, near], policy, "SA1")
    assert flipped == [weights[1], weights[0]]


def test_pair_weights_empty_batch_rejected():
    with pytest.raises(ValueError):
        pair_weights([], SofteningPolicy(k=2.0, p_min=0.1), "SA1")


def test_degenerate_binary_batch_normalizes_to_zero_two():
    # p_min = 0, k = 1 collapses the curve to the identity, so disjoint
    # and identical pairs give raw weights 0 and 1, normalized to 0 and 2
    policy = SofteningPolicy(k=1.0, p_min=0.0)
    pairs = [
        make_pair((0, 0, 16, 16), (32, 32, 16, 16)),
        make_pair((0, 0, 16, 16), (0, 0, 16, 16)),
    ]
    assert pair_weights(pairs, policy, "SA1") == [0.0, 2.0]
