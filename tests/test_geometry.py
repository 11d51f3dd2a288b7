import numpy as np
import pytest

from softaug import CropWindow, RandomSource, iou, occlude, pad_and_crop, visibility
from softaug.geometry import crop_visibility


def reference_pad_and_crop(image, tx, ty):
    """Per-pixel translation over a zero canvas, bounds checked explicitly."""
    c, h, w = image.shape
    out = np.zeros_like(image)
    for ch in range(c):
        for i in range(h):
            for j in range(w):
                si, sj = i + tx, j + ty
                if 0 <= si < h and 0 <= sj < w:
                    out[ch, i, j] = image[ch, si, sj]
    return out


def count_iou(a, b):
    """IoU by enumerating integer cells inside each rectangle."""
    cells_a = {(x, y) for x in range(a.tx, a.tx + a.w) for y in range(a.ty, a.ty + a.h)}
    cells_b = {(x, y) for x in range(b.tx, b.tx + b.w) for y in range(b.ty, b.ty + b.h)}
    return len(cells_a & cells_b) / len(cells_a | cells_b)


def test_window_requires_integers():
    with pytest.raises(ValueError):
        CropWindow(0.5, 0, 4, 4)
    with pytest.raises(ValueError):
        CropWindow(0, 0, 0, 4)
    CropWindow(np.int64(1), 0, 4, 4)  # numpy integers are fine


def test_pad_and_crop_known_shift():
    image = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    shifted = pad_and_crop(image, CropWindow(1, 0, 2, 2))
    assert shifted.tolist() == [[[3.0, 4.0], [0.0, 0.0]]]


def test_pad_and_crop_full_shift_blanks():
    image = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    assert pad_and_crop(image, CropWindow(2, 2, 2, 2)).sum() == 0.0


def test_pad_and_crop_zero_offset_identity():
    rng = np.random.default_rng(0)
    image = rng.random((3, 5, 7))
    out = pad_and_crop(image, CropWindow(0, 0, 7, 5))
    assert np.array_equal(out, image)
    out[0, 0, 0] = -1.0
    assert image[0, 0, 0] != -1.0  # copy, not a view


def test_pad_and_crop_matches_reference():
    rng = np.random.default_rng(1)
    image = rng.random((3, 8, 8))
    for tx in range(-8, 9):
        for ty in range(-8, 9):
            got = pad_and_crop(image, CropWindow(tx, ty, 8, 8))
            assert np.array_equal(got, reference_pad_and_crop(image, tx, ty)), (tx, ty)


def test_pad_and_crop_rectangular_axes():
    # tx moves along the first spatial axis (height), ty along the second
    rng = np.random.default_rng(2)
    image = rng.random((2, 4, 6))
    for tx in (-3, 0, 2):
        for ty in (-5, 1, 4):
            got = pad_and_crop(image, CropWindow(tx, ty, 6, 4))
            assert np.array_equal(got, reference_pad_and_crop(image, tx, ty))


def test_pad_and_crop_rejects_bad_window():
    image = np.zeros((3, 4, 4))
    with pytest.raises(ValueError):
        pad_and_crop(image, CropWindow(0, 0, 5, 4))
    with pytest.raises(ValueError):
        pad_and_crop(image, CropWindow(5, 0, 4, 4))
    with pytest.raises(ValueError):
        pad_and_crop(np.zeros((4, 4)), CropWindow(0, 0, 4, 4))


def test_visibility_values():
    assert visibility(0, 0, 32, 32) == 1.0
    assert visibility(4, 4, 32, 32) == 0.765625
    assert visibility(16, 0, 32, 32) == 0.5
    assert visibility(-16, 0, 32, 32) == 0.5
    assert visibility(32, 0, 32, 32) == 0.0
    assert visibility(16, 16, 32, 32) == 0.25


def test_visibility_counts_surviving_pixels():
    # the retained fraction equals the fraction of nonzero pixels after
    # cropping an all-ones image
    image = np.ones((1, 32, 32))
    for tx, ty in [(4, 4), (-7, 3), (0, 31), (16, -16), (32, 32)]:
        kept = pad_and_crop(image, CropWindow(tx, ty, 32, 32)).sum() / 1024.0
        assert visibility(tx, ty, 32, 32) == pytest.approx(kept, abs=1e-12)


def test_visibility_validates():
    with pytest.raises(ValueError):
        visibility(33, 0, 32, 32)
    with pytest.raises(ValueError):
        visibility(0, 0, 0, 32)


def test_crop_visibility_same_size_reduces():
    for tx, ty in [(0, 0), (4, 4), (-16, 8), (32, 0)]:
        win = CropWindow(tx, ty, 32, 32)
        assert crop_visibility(win, 32, 32) == visibility(tx, ty, 32, 32)


def test_crop_visibility_partial_window():
    assert crop_visibility(CropWindow(0, 0, 16, 16), 32, 32) == 0.25
    assert crop_visibility(CropWindow(-8, 0, 16, 32), 32, 32) == 0.25
    assert crop_visibility(CropWindow(40, 40, 16, 16), 32, 32) == 0.0


def test_iou_hand_case():
    assert iou(CropWindow(0, 0, 2, 2), CropWindow(1, 1, 2, 2)) == 1.0 / 7.0


def test_iou_identical_and_disjoint():
    a = CropWindow(3, -2, 5, 9)
    assert iou(a, a) == 1.0
    assert iou(CropWindow(0, 0, 4, 4), CropWindow(4, 4, 4, 4)) == 0.0


def test_iou_symmetric():
    a, b = CropWindow(0, 0, 6, 3), CropWindow(2, 1, 4, 8)
    assert iou(a, b) == iou(b, a)


def test_iou_matches_cell_counting():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        a = CropWindow(int(rng.integers(-6, 6)), int(rng.integers(-6, 6)),
                       int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        b = CropWindow(int(rng.integers(-6, 6)), int(rng.integers(-6, 6)),
                       int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        assert iou(a, b) == pytest.approx(count_iou(a, b), abs=1e-12)


def test_occlude_zero_lambda_is_noop_and_consumes_nothing():
    image = np.random.default_rng(4).random((3, 32, 32))
    rng_a, rng_b = RandomSource(11), RandomSource(11)
    out = occlude(image, 0.0, rng_a)
    assert np.array_equal(out, image)
    assert out is not image
    # the stream was left untouched
    assert rng_a.normal() == rng_b.normal()


def test_occlude_quarter_area():
    image = np.ones((3, 32, 32))
    out = occlude(image, 0.25, RandomSource(5))
    erased = (out == 0.0).all(axis=0)
    assert int(erased.sum()) == 256  # 16 x 16 patch
    assert out.shape == image.shape


@pytest.mark.parametrize("lam", [0.04, 0.2, 0.5, 0.8, 1.0])
def test_occlude_patch_side_matches_rounding(lam):
    import math

    image = np.ones((1, 32, 32))
    side = min(int(math.floor(math.sqrt(lam * 1024) + 0.5)), 32)
    out = occlude(image, lam, RandomSource(6))
    assert int((out == 0.0).sum()) == side * side


def test_occlude_stays_in_bounds_and_uses_fill():
    image = np.full((2, 16, 16), 7.0)
    for seed in range(50):
        out = occlude(image, 0.8, RandomSource(seed))
        touched = out != 7.0
        assert (out[touched] == 0.0).all()
        # a full rectangle strictly inside the image
        rows = np.where(touched[0].any(axis=1))[0]
        cols = np.where(touched[0].any(axis=0))[0]
        assert rows.max() < 16 and cols.max() < 16
        assert len(rows) == rows.max() - rows.min() + 1


def test_occlude_full_coverage():
    image = np.ones((1, 32, 32))
    out = occlude(image, 1.0, RandomSource(7))
    assert (out == 0.0).all()


def test_occlude_validates_lambda():
    with pytest.raises(ValueError):
        occlude(np.ones((1, 4, 4)), 1.5, RandomSource(0))
    with pytest.raises(ValueError):
        occlude(np.ones((1, 4, 4)), -0.1, RandomSource(0))
