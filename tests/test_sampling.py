import numpy as np
import pytest

from softaug import (
    GaussianCropConfig,
    RandomSource,
    ResizeCropConfig,
    StandardCropConfig,
    UniformCropConfig,
    draw_gaussian_window,
    draw_resize_crop,
    draw_standard_resize_crop,
    draw_uniform_window,
    visibility,
)
from softaug.sampling import MAX_REJECTIONS, draw_offset, draw_uniform_offset


# --- RandomSource ---


def test_same_seed_same_stream():
    a, b = RandomSource(42), RandomSource(42)
    assert [a.normal() for _ in range(5)] == [b.normal() for _ in range(5)]


def test_different_seeds_differ():
    assert RandomSource(0).normal() != RandomSource(1).normal()


def test_split_is_deterministic_and_independent():
    root = RandomSource(7)
    assert root.split(3).normal() == RandomSource(7).split(3).normal()
    assert root.split(0).normal() != root.split(1).normal()
    # splitting does not consume parent state
    fresh = RandomSource(7)
    fresh.split(0)
    assert fresh.normal() == RandomSource(7).normal()


def test_nested_split_paths():
    assert RandomSource(1).split(2).split(5).normal() == RandomSource(1).split(2).split(5).normal()
    assert RandomSource(1).split(2).split(5).normal() != RandomSource(1).split(5).split(2).normal()


def test_integers_inclusive_endpoints():
    rng = RandomSource(8)
    seen = {rng.integers(0, 1) for _ in range(200)}
    assert seen == {0, 1}
    assert RandomSource(9).integers(4, 4) == 4


# --- draw_offset ---


def test_offset_degenerate_sigma_is_zero():
    for seed in range(20):
        assert draw_offset(32, 1e-12, RandomSource(seed)) == 0


def test_offset_respects_limit():
    rng = RandomSource(10)
    assert all(abs(draw_offset(32, 9.6, rng)) <= 32 for _ in range(100_000))


def test_offset_empirical_std():
    rng = RandomSource(11)
    draws = np.array([draw_offset(32, 9.6, rng) for _ in range(100_000)])
    assert 9.0 <= draws.std() <= 10.0


def test_offset_truncates_toward_zero():
    # with limit about 1.9 every accepted draw has |x| < 2, so truncation
    # can only yield -1, 0, or 1, never rounding up to 2
    rng = RandomSource(12)
    values = {draw_offset(1.9, 5.0, rng) for _ in range(3000)}
    assert values == {-1, 0, 1}


def test_offset_rejection_fallback():
    for seed in range(10):
        assert draw_offset(0.4, 100.0, RandomSource(seed)) == 0


def test_offset_rejection_rule_stream_consumption():
    # at sigma 100x the limit about 45% of calls reject MAX_REJECTIONS draws
    # in a row; the next call must start right after that run
    rng = RandomSource(5)
    raw = RandomSource(5).generator
    fired = nonzero = 0
    for _ in range(2000):
        expected = 0
        for _ in range(MAX_REJECTIONS):
            x = raw.normal(0.0, 300.0)
            if abs(x) <= 3:
                expected = int(x)
                break
        else:
            fired += 1
        got = draw_offset(3, 300.0, rng)
        assert got == expected
        nonzero += got != 0
    assert fired > 0 and nonzero > 0
    np.testing.assert_equal(rng.generator.bit_generator.state, raw.bit_generator.state)


def test_offset_validates():
    with pytest.raises(ValueError):
        draw_offset(-1, 1.0, RandomSource(0))
    with pytest.raises(ValueError):
        draw_offset(4, 0.0, RandomSource(0))


# --- draw_uniform_offset ---


def test_uniform_offset_zero_range():
    assert draw_uniform_offset(0, RandomSource(0)) == 0


def test_uniform_offset_support_and_frequencies():
    rng = RandomSource(13)
    draws = np.array([draw_uniform_offset(4, rng) for _ in range(100_000)])
    assert draws.min() >= -4 and draws.max() <= 4
    for value in range(-4, 5):
        freq = (draws == value).mean()
        assert abs(freq - 1 / 9) <= 0.2 / 9, value


def test_uniform_r4_min_visibility():
    rng = RandomSource(14)
    vis = [visibility(draw_uniform_offset(4, rng), draw_uniform_offset(4, rng), 32, 32)
           for _ in range(20_000)]
    assert min(vis) == 0.765625


def test_uniform_r16_min_visibility():
    rng = RandomSource(15)
    vis = [visibility(draw_uniform_offset(16, rng), draw_uniform_offset(16, rng), 32, 32)
           for _ in range(100_000)]
    assert min(vis) == 0.25


# --- window helpers ---


def test_gaussian_window_matches_manual_draws():
    cfg = GaussianCropConfig(sigma=0.3, length=32)
    tx, ty = draw_gaussian_window(cfg, RandomSource(16))
    manual = RandomSource(16)
    assert tx == draw_offset(32, 0.3 * 32, manual)
    assert ty == draw_offset(32, 0.3 * 32, manual)


def test_uniform_window_matches_manual_draws():
    cfg = UniformCropConfig(range_r=4)
    tx, ty = draw_uniform_window(cfg, RandomSource(17))
    manual = RandomSource(17)
    assert (tx, ty) == (draw_uniform_offset(4, manual), draw_uniform_offset(4, manual))


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        GaussianCropConfig(sigma=0.0, length=32)
    with pytest.raises(ValueError):
        GaussianCropConfig(sigma=0.3, length=0)
    with pytest.raises(ValueError):
        UniformCropConfig(range_r=-1)
    with pytest.raises(ValueError):
        ResizeCropConfig(sigma=0.3, width=32, height=32, min_length=33)
    for sigma in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            GaussianCropConfig(sigma=sigma, length=32)
        with pytest.raises(ValueError):
            ResizeCropConfig(sigma=sigma, width=32, height=32, min_length=8)


# --- resize crop ---


def test_resize_crop_degenerate_sigma_full_window():
    cfg = ResizeCropConfig(sigma=1e-9, width=224, height=224, min_length=112)
    win = draw_resize_crop(cfg, RandomSource(18))
    assert (win.tx, win.ty, win.w, win.h) == (0, 0, 224, 224)


def test_resize_crop_sides_in_bounds():
    cfg = ResizeCropConfig(sigma=0.3, width=224, height=224, min_length=112)
    rng = RandomSource(19)
    for _ in range(20_000):
        win = draw_resize_crop(cfg, rng)
        assert 112 <= win.w <= 224
        assert 112 <= win.h <= 224


def test_resize_crop_mean_side():
    # folded-normal shrink: mean delta is 0.3 * 112 * sqrt(2/pi), about 26.8,
    # so the mean side sits near 197
    cfg = ResizeCropConfig(sigma=0.3, width=224, height=224, min_length=112)
    rng = RandomSource(20)
    ws = np.array([draw_resize_crop(cfg, rng).w for _ in range(20_000)])
    assert 190 <= ws.mean() <= 210


def test_resize_crop_rectangular_dims():
    cfg = ResizeCropConfig(sigma=0.3, width=64, height=48, min_length=24)
    rng = RandomSource(21)
    for _ in range(2000):
        win = draw_resize_crop(cfg, rng)
        assert 24 <= win.w <= 64
        assert 24 <= win.h <= 48


def test_resize_crop_deterministic():
    cfg = ResizeCropConfig(sigma=0.3, width=224, height=224, min_length=112)
    assert draw_resize_crop(cfg, RandomSource(22)) == draw_resize_crop(cfg, RandomSource(22))


# --- standard resize crop ---


def test_standard_crop_forced_parameters_full_window():
    cfg = StandardCropConfig(32, 32, scale_min=1.0, scale_max=1.0,
                             ratio_min=1.0, ratio_max=1.0)
    win = draw_standard_resize_crop(cfg, RandomSource(23))
    assert (win.tx, win.ty, win.w, win.h) == (0, 0, 32, 32)


def test_standard_crop_area_fractions():
    rng = RandomSource(24)
    cfg = StandardCropConfig(224, 224)
    areas = []
    for _ in range(20_000):
        win = draw_standard_resize_crop(cfg, rng)
        assert 0 <= win.tx and win.tx + win.w <= 224
        assert 0 <= win.ty and win.ty + win.h <= 224
        areas.append(win.w * win.h / (224 * 224))
    areas = np.array(areas)
    # rounding to integer sides can nudge an area slightly past the
    # nominal [0.08, 1.0] band
    assert areas.min() >= 0.08 * 0.9
    assert areas.max() <= 1.0
    assert 0.50 <= areas.mean() <= 0.58


def test_standard_crop_validates():
    with pytest.raises(ValueError):
        StandardCropConfig(32, 32, scale_min=0.0)
    with pytest.raises(ValueError):
        StandardCropConfig(32, 32, scale_min=0.5, scale_max=0.4)
    with pytest.raises(ValueError):
        StandardCropConfig(32, 32, ratio_min=0.0)
    with pytest.raises(ValueError):
        StandardCropConfig(32, 32, ratio_max=float("inf"))
    with pytest.raises(ValueError):
        StandardCropConfig(0, 32)
    for bad in ("scale_min", "scale_max", "ratio_min", "ratio_max"):
        with pytest.raises(ValueError):
            StandardCropConfig(32, 32, **{bad: float("nan")})


# --- cross-cutting ---


def test_three_sigma_visibility_fraction():
    rng = RandomSource(25)
    cfg = GaussianCropConfig(sigma=0.3, length=32)
    positive = 0
    n = 100_000
    for _ in range(n):
        tx, ty = draw_gaussian_window(cfg, rng)
        positive += visibility(tx, ty, 32, 32) > 0
    assert positive / n >= 0.99
