import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from softaug import CropPair, CropWindow, RandomSource, iou, occlude, pad_and_crop, visibility
from softaug.geometry import _covered_fraction, _shifted, crop_visibility


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


def reference_occlude(image, lam, rng):
    """The patch rule in scalars: the side round(sqrt(lam * H * W)) capped
    at both sides, then one ``integers`` draw for the top and one for the
    left, then the slice set to 0; a side of 0 draws nothing."""
    _, h, w = image.shape
    side = min(int(math.floor(math.sqrt(lam * h * w) + 0.5)), h, w)
    out = image.copy()
    if side > 0:
        top = rng.integers(0, h - side)
        left = rng.integers(0, w - side)
        out[:, top : top + side, left : left + side] = 0.0
    return out


def cells(window):
    """The integer cells (x, y) inside a window, x along its width."""
    return {(x, y) for x in range(window.tx, window.tx + window.w)
            for y in range(window.ty, window.ty + window.h)}


# windows on a small grid around a small image, overlapping it or not
small_windows = st.builds(CropWindow, st.integers(-6, 6), st.integers(-6, 6),
                          st.integers(1, 8), st.integers(1, 8))


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
    image = rng.random((3, 6, 6))
    out = pad_and_crop(image, CropWindow(0, 0, 6, 6))
    assert np.array_equal(out, image)
    out[0, 0, 0] = -1.0
    assert image[0, 0, 0] != -1.0  # copy, not a view
    # a non-square image is refused even at zero offset
    with pytest.raises(ValueError, match="square"):
        pad_and_crop(rng.random((3, 5, 7)), CropWindow(0, 0, 7, 5))


def test_pad_and_crop_matches_reference():
    rng = np.random.default_rng(1)
    image = rng.random((3, 8, 8))
    for tx in range(-8, 9):
        for ty in range(-8, 9):
            got = pad_and_crop(image, CropWindow(tx, ty, 8, 8))
            assert np.array_equal(got, reference_pad_and_crop(image, tx, ty)), (tx, ty)


def test_pad_and_crop_rectangular_axes():
    # tx pairs with the width in visibility but shifts rows here, so a
    # non-square image would keep a different fraction than visibility says
    ones = np.ones((1, 4, 8))
    for window in (CropWindow(2, 0, 8, 4), CropWindow(0, 0, 8, 4), CropWindow(0, 0, 4, 8)):
        with pytest.raises(ValueError, match="square"):
            pad_and_crop(ones, window)


@st.composite
def square_crops(draw):
    """1-6 (C, e, e) images of random pixels, some of them flipped views
    as the trainer passes them, and an offset (tx, ty) within the edge for
    each, the edges +-e drawn often."""
    edge = draw(st.integers(1, 9))
    count = draw(st.integers(1, 6))
    shape = (count, draw(st.integers(1, 3)), edge, edge)
    pixels = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(shape)
    images = [image[:, :, ::-1] if draw(st.booleans()) else image for image in pixels]
    shift = st.sampled_from([-edge, edge]) | st.integers(-edge, edge)
    return images, [(draw(shift), draw(shift)) for _ in range(count)]


@settings(max_examples=150)
@given(square_crops())
def test_pad_and_crop_properties(crop):
    images, offsets = crop
    (tx, ty), image, edge = offsets[0], images[0], images[0].shape[1]
    window = CropWindow(tx, ty, edge, edge)
    assert np.array_equal(pad_and_crop(image, window), reference_pad_and_crop(image, tx, ty))
    kept = np.count_nonzero(pad_and_crop(np.ones_like(image), window)) / image.size
    assert kept == visibility(tx, ty, edge, edge)
    # the batch rule the trainer calls: row b is pad_and_crop of image b, in new memory
    batch = _shifted(images, offsets)
    assert batch.shape == (len(images), *image.shape) and batch.dtype == np.float64
    for row, image, (tx, ty) in zip(batch, images, offsets):
        assert np.array_equal(row, reference_pad_and_crop(image, tx, ty))
        assert not np.shares_memory(batch, image)


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


@pytest.mark.parametrize("window", [CropWindow(0, 0, 2**32, 2**32),
                                    CropWindow(2**31, 0, 2**32, 2**32)])
def test_crop_visibility_rejects_sides_past_the_int64_bound(window):
    # a side of 2**32 makes a covered area of 2**64, which wraps int64:
    # these read 0.0 and -0.5 when the sides were only checked for >= 1
    with pytest.raises(ValueError, match=r"2\*\*31"):
        crop_visibility(window, 2**32, 2**32)


def test_crop_visibility_exact_at_the_side_bound():
    assert crop_visibility(CropWindow(0, 0, 2**31, 2**31), 2**31, 2**31) == 1.0
    assert crop_visibility(CropWindow(2**30, 0, 2**31, 2**31), 2**31, 2**31) == 0.5
    with pytest.raises(ValueError, match=r"2\*\*31"):
        crop_visibility(CropWindow(0, 0, 4, 4), 0, 4)


@pytest.mark.parametrize("window, expected", [
    (CropWindow(2**62, 0, 2**62, 4), 0.0),
    (CropWindow(0, 0, 2**63, 4), 1.0),
    (CropWindow(-2**63 - 1, 0, 4, 4), 0.0),
], ids=["end-past-int64", "side-past-int64", "start-below-int64"])
def test_crop_visibility_of_windows_past_int64(window, expected):
    # these raised OverflowError when the window ends were taken as int64
    assert crop_visibility(window, 4, 4) == expected
    if expected == 0.0:
        with pytest.raises(ValueError, match="lies outside the image"):
            CropPair(window, CropWindow(0, 0, 4, 4), 4, 4)
    else:
        assert CropPair(window, window, 4, 4).overlap() == 1.0


# windows whose ends tx + w, ty + h fit int64, near small images or far off
_starts = st.integers(-8, 8) | st.integers(-2**62, 2**62 - 1)
_lengths = st.integers(1, 16) | st.integers(1, 2**62)
_image_sides = st.integers(1, 8) | st.integers(1, 2**31)


@settings(max_examples=300)
@given(st.builds(CropWindow, _starts, _starts, _lengths, _lengths), _image_sides, _image_sides)
def test_crop_visibility_equals_the_int64_formula(window, width, height):
    # where the window's ends fit int64, clipping first changes no bit
    formula = _covered_fraction(window.tx, window.ty, window.w, window.h, width, height)
    assert crop_visibility(window, width, height) == float(formula)


def test_iou_hand_case():
    assert iou(CropWindow(0, 0, 2, 2), CropWindow(1, 1, 2, 2)) == 1.0 / 7.0


def test_iou_identical_and_disjoint():
    a = CropWindow(3, -2, 5, 9)
    assert iou(a, a) == 1.0
    assert iou(CropWindow(0, 0, 4, 4), CropWindow(4, 4, 4, 4)) == 0.0


def test_iou_symmetric():
    a, b = CropWindow(0, 0, 6, 3), CropWindow(2, 1, 4, 8)
    assert iou(a, b) == iou(b, a)


@settings(max_examples=150)
@given(small_windows, small_windows)
def test_iou_matches_cell_counting(a, b):
    # both sides divide the same two integer counts, so they agree exactly
    assert iou(a, b) == len(cells(a) & cells(b)) / len(cells(a) | cells(b))


@settings(max_examples=150)
@given(small_windows, st.integers(1, 6), st.integers(1, 6))
def test_crop_visibility_matches_cell_counting(window, width, height):
    image = cells(CropWindow(0, 0, width, height))
    assert crop_visibility(window, width, height) == len(cells(window) & image) / len(image)


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


@settings(max_examples=200)
@given(st.integers(1, 3), st.integers(1, 9), st.integers(1, 9),
       st.floats(0.0, 1.0), st.integers(0, 2**32))
def test_occlude_equals_scalar_oracle(channels, h, w, lam, seed):
    image = np.random.default_rng(seed).random((channels, h, w))
    rng, reference_rng = RandomSource(seed), RandomSource(seed)
    out = occlude(image, lam, rng)
    expected = reference_occlude(image, lam, reference_rng)
    assert out.tobytes() == expected.tobytes()
    assert out.shape == expected.shape and out.dtype == expected.dtype
    # the stream is left where the two scalar draws leave it
    assert repr(rng.generator.bit_generator.state) == repr(
        reference_rng.generator.bit_generator.state)
