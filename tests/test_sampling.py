import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from softaug import (
    CropWindow,
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
from softaug import sampling
from softaug.geometry import _covered_fraction
from softaug.sampling import (
    MAX_REJECTIONS,
    _offsets,
    _windows,
    draw_offset,
    draw_uniform_offset,
)


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


@pytest.mark.parametrize("limit, sigma_abs", [(math.nan, 1.0), (5, math.nan), (5, math.inf)])
def test_offset_rejects_nan_and_infinite_arguments(limit, sigma_abs):
    # each used to return 0 after MAX_REJECTIONS rejected draws
    with pytest.raises(ValueError):
        draw_offset(limit, sigma_abs, RandomSource(0))


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
    # the draws take Normal(0, sigma * length): a finite sigma can overflow it
    with pytest.raises(ValueError, match=r"sigma \* length must be finite and > 0"):
        GaussianCropConfig(sigma=1e308, length=32)
    with pytest.raises(ValueError, match="length must be >= 1"):
        GaussianCropConfig(sigma=math.nan, length=0)
    assert GaussianCropConfig(sigma=1e306, length=32).sigma == 1e306


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


# --- bulk windows against the scalar draw functions, row by row ---


def scalar_windows(sampler, count, rng):
    """``count`` windows from the scalar ``draw_*`` function of ``sampler``."""
    if isinstance(sampler, GaussianCropConfig):
        return [(*draw_gaussian_window(sampler, rng), 32, 32) for _ in range(count)]
    if isinstance(sampler, UniformCropConfig):
        return [(*draw_uniform_window(sampler, rng), 32, 32) for _ in range(count)]
    draw = draw_resize_crop if isinstance(sampler, ResizeCropConfig) else draw_standard_resize_crop
    windows = [draw(sampler, rng) for _ in range(count)]
    return [(win.tx, win.ty, win.w, win.h) for win in windows]


class CountingGenerator:
    """Stand-in for a generator whose ``normal`` is the only call; counts
    the blocks drawn."""

    def __init__(self, generator):
        self.generator, self.blocks = generator, 0

    def normal(self, loc, scale, size):
        self.blocks += 1
        return self.generator.normal(loc, scale, size)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("cap", [37, 1 << 16])
def test_bulk_offsets_match_scalar_through_rejection_runs(seed, cap, monkeypatch):
    # at sigma 100x the limit most draws are rejected and about half the
    # calls end in a run of MAX_REJECTIONS; a 37-draw block is shorter
    # than such a run, so every run spans a block boundary
    monkeypatch.setattr(sampling, "_MAX_BLOCK", cap)
    scalar = RandomSource(seed)
    expected = [draw_offset(3, 300.0, scalar) for _ in range(1500)]
    bulk = CountingGenerator(RandomSource(seed).generator)
    assert _offsets(3, 300.0, 1500, bulk).tolist() == expected
    np.testing.assert_equal(bulk.generator.bit_generator.state,
                            scalar.generator.bit_generator.state)
    # each block is no longer than the offsets still needed, so the
    # rejections take many blocks even below the cap
    assert bulk.blocks > 100
    # a kept draw truncates to 0 one time in three; the rule makes the rest
    assert expected.count(0) > 750 and set(expected) == {-2, -1, 0, 1, 2}


def test_bulk_offsets_match_scalar_at_bench_sigma():
    # 70 000 offsets need more normals than one block of _MAX_BLOCK
    scalar = RandomSource(9)
    expected = [draw_offset(32, 0.3 * 32, scalar) for _ in range(70_000)]
    bulk = CountingGenerator(RandomSource(9).generator)
    assert _offsets(32, 0.3 * 32, 70_000, bulk).tolist() == expected
    np.testing.assert_equal(bulk.generator.bit_generator.state,
                            scalar.generator.bit_generator.state)
    assert bulk.blocks >= 2


@pytest.mark.parametrize("sampler", [
    GaussianCropConfig(sigma=0.3, length=32),
    GaussianCropConfig(sigma=9.0, length=32),
    UniformCropConfig(range_r=16),
    UniformCropConfig(range_r=5),
    UniformCropConfig(range_r=0),
    ResizeCropConfig(sigma=0.3, width=32, height=32, min_length=8),
    ResizeCropConfig(sigma=0.3, width=32, height=16, min_length=16),  # no room in y
    ResizeCropConfig(sigma=0.3, width=16, height=32, min_length=16),  # no room in x
    ResizeCropConfig(sigma=0.3, width=16, height=16, min_length=16),  # no room at all
    ResizeCropConfig(sigma=2.0, width=64, height=48, min_length=4),
    StandardCropConfig(32, 32),
    StandardCropConfig(24, 32),
    # every aspect is wider than the image: the centered-square fallback
    StandardCropConfig(32, 32, scale_min=1.0, scale_max=1.0, ratio_min=1.5, ratio_max=2.0),
    # spreads and sides that overflow to inf: clamped to the bound or failing
    # the fit test, silently, as in the scalar draws' Python floats
    ResizeCropConfig(sigma=1e308, width=32, height=32, min_length=8),
    StandardCropConfig(32, 32, ratio_max=1e308),
], ids=["gaussian", "gaussian-wide", "uniform", "uniform-r5", "uniform-range0", "resize",
        "resize-room-x", "resize-room-y", "resize-no-room", "resize-rect", "standard",
        "standard-24x32", "standard-fallback", "resize-sigma-1e308", "standard-ratio-1e308"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bulk_windows_match_scalar_draws(sampler):
    # the same windows, and the stream ends where the scalar draws leave it
    count = 2000
    scalar = RandomSource(31)
    expected = scalar_windows(sampler, count, scalar)
    bulk = RandomSource(31).generator
    windows = _windows(sampler, count, 32, bulk)
    assert windows.dtype == np.int64 and windows.shape == (count, 4)
    assert [tuple(row) for row in windows.tolist()] == expected
    np.testing.assert_equal(bulk.bit_generator.state, scalar.generator.bit_generator.state)
    if isinstance(sampler, StandardCropConfig) and sampler.ratio_min == 1.5:
        assert set(expected) == {(0, 0, 32, 32)}


@pytest.mark.parametrize("sampler", [
    ResizeCropConfig(sigma=0.3, width=32, height=16, min_length=16),
], ids=["resize"])
def test_bulk_windows_consume_the_scalar_draws(sampler):
    # the no-room-in-y resize case again, on another seed and draw count:
    # the same windows, and the stream ends where the scalar draws leave it
    scalar = RandomSource(32)
    expected = scalar_windows(sampler, 700, scalar)
    bulk = RandomSource(32).generator
    assert [tuple(row) for row in _windows(sampler, 700, 32, bulk).tolist()] == expected
    np.testing.assert_equal(bulk.bit_generator.state, scalar.generator.bit_generator.state)


@st.composite
def resize_crop_configs(draw):
    width, height = draw(st.integers(1, 48)), draw(st.integers(1, 48))
    return ResizeCropConfig(draw(st.floats(0.01, 3.0)), width, height,
                            draw(st.integers(1, min(width, height))))


@st.composite
def standard_configs(draw):
    # wide ratio and scale ranges on thin images reach the fallback often
    scale = sorted(draw(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=2)))
    ratio = sorted(draw(st.lists(st.floats(0.05, 20.0), min_size=2, max_size=2)))
    return StandardCropConfig(draw(st.integers(1, 48)), draw(st.integers(1, 48)), *scale, *ratio)


@settings(max_examples=120)
@given(sampler=st.one_of(st.builds(GaussianCropConfig, st.floats(0.01, 10.0), st.just(32)),
                         st.builds(UniformCropConfig, st.integers(0, 32)),
                         resize_crop_configs(), standard_configs()),
       count=st.integers(1, 200), cap=st.integers(13, 100), seed=st.integers(0, 2**32))
def test_bulk_windows_match_scalar_draws_property(sampler, count, cap, seed):
    # blocks of at most cap draws (cap // 13 standard windows) end
    # mid-run, so every block edge must carry the stream over exactly
    scalar = RandomSource(seed)
    expected = scalar_windows(sampler, count, scalar)
    bulk = RandomSource(seed).generator
    with mock.patch.object(sampling, "_MAX_BLOCK", cap):
        windows = _windows(sampler, count, 32, bulk)
    assert [tuple(row) for row in windows.tolist()] == expected
    np.testing.assert_equal(bulk.bit_generator.state, scalar.generator.bit_generator.state)


@pytest.mark.parametrize("cfg, window", [
    (StandardCropConfig(32, 32, scale_min=1.0, scale_max=1.0, ratio_min=1.0, ratio_max=1.0),
     CropWindow(0, 0, 32, 32)),
    # every aspect is wider than the image: the centered-square fallback
    (StandardCropConfig(32, 24, scale_min=1.0, scale_max=1.0, ratio_min=1.5, ratio_max=2.0),
     CropWindow(4, 0, 24, 24)),
], ids=["fits", "fallback"])
def test_standard_window_takes_13_uniforms(cfg, window):
    rng = RandomSource(5)
    assert draw_standard_resize_crop(cfg, rng) == window
    reference = RandomSource(5).generator
    reference.random(13)
    np.testing.assert_equal(rng.generator.bit_generator.state, reference.bit_generator.state)


def standard_window_oracle(cfg, u):
    """The standard window of one block of 13 uniforms ``u``, as a scalar loop."""
    area = (cfg.scale_min + (cfg.scale_max - cfg.scale_min) * u[0]) * (cfg.width * cfg.height)
    log_min, log_max = math.log(cfg.ratio_min), math.log(cfg.ratio_max)
    # np.exp, as the array rule takes it, so both round the aspects alike
    for aspect in np.exp(log_min + (log_max - log_min) * u[1:11]).tolist():
        w, h = round(math.sqrt(area * aspect)), round(math.sqrt(area / aspect))
        if 0 < w <= cfg.width and 0 < h <= cfg.height:
            return [int(u[11] * (cfg.width - w + 1)), int(u[12] * (cfg.height - h + 1)), w, h]
    side = min(cfg.width, cfg.height)
    return [(cfg.width - side) // 2, (cfg.height - side) // 2, side, side]


@pytest.mark.parametrize("cfg", [
    StandardCropConfig(32, 32),
    StandardCropConfig(7, 40, scale_min=0.3, ratio_min=0.2, ratio_max=5.0),
    StandardCropConfig(32, 24, scale_min=1.0, scale_max=1.0, ratio_min=1.5, ratio_max=2.0),
], ids=["standard", "thin-wide-ratios", "fallback"])
def test_standard_windows_follow_the_scalar_oracle(cfg):
    windows = _windows(cfg, 3000, 32, RandomSource(6).generator)
    uniforms = RandomSource(6).generator.random((3000, 13))
    assert windows.tolist() == [standard_window_oracle(cfg, u) for u in uniforms]


class LargestUniform:
    """Stand-in generator whose every uniform is the largest below 1."""

    def random(self, size):
        return np.full(size, 1 - 2**-53)


def test_standard_corner_stays_inside_at_the_largest_uniform():
    # the largest uniform takes the last corner, room: u * (room + 1)
    # rounds below room + 1 for every u < 1 and room below 2**53
    assert (1 - 2**-53) * 3 < 3
    cfg = StandardCropConfig(5, 7, scale_min=9 / 35, scale_max=9 / 35,
                             ratio_min=1.0, ratio_max=1.0)
    windows = _windows(cfg, 3, 32, LargestUniform())
    assert windows.tolist() == [[2, 4, 3, 3]] * 3
    tx, ty, w, h = windows.T
    assert (tx + w <= cfg.width).all() and (ty + h <= cfg.height).all()


def test_standard_bulk_windows_draw_in_blocks():
    # the 3.2 MB output plus one unblocked (100000, 13) block of uniforms
    # (10.4 MB) would need 13.6 MB
    generator = RandomSource(1).generator
    tracemalloc.start()
    try:
        _windows(StandardCropConfig(32, 32), 100_000, 32, generator)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


@pytest.mark.parametrize("config", [StandardCropConfig, ResizeCropConfig])
def test_resize_sides_at_most_2_31(config):
    def build(width, height):
        if config is StandardCropConfig:
            return StandardCropConfig(width, height)
        return ResizeCropConfig(0.3, width, height, 1)
    for width, height in [(2**31 + 1, 32), (32, 2**31 + 1), (2**63, 32), (2**40, 2**40)]:
        with pytest.raises(ValueError, match=r"width and height must be in \[1, 2\*\*31\]"):
            build(width, height)
    # at the bound a covered area of up to 2**62 still fits in int64
    sampler = build(2**31, 2**31)
    windows = _windows(sampler, 1000, 32, RandomSource(3).generator)
    covered = _covered_fraction(*windows.T, sampler.width, sampler.height)
    assert covered.min() >= 0 and covered.max() <= 1
