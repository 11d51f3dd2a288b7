import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from softaug import SofteningPolicy, soften, ssl_pair_confidence
from softaug.sslweights import normalize_batch_weights


def test_policy_validation():
    with pytest.raises(ValueError):
        SofteningPolicy(p_min=0.25, k=-1.0)
    with pytest.raises(ValueError):
        SofteningPolicy(p_min=1.0)
    with pytest.raises(ValueError):
        SofteningPolicy(p_min=-0.01)
    with pytest.raises(ValueError):
        SofteningPolicy(p_min=0.25, mode="soft")
    for k in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SofteningPolicy(p_min=0.25, k=k)
    with pytest.raises(ValueError):
        SofteningPolicy(p_min=float("nan"))
    # "none" is the one accepted alias; it is stored as "hard"
    assert SofteningPolicy(k=0.0, p_min=0.0, mode="none").mode == "hard"


def test_soften_boundaries_exact():
    for k in (0.0, 0.5, 1.0, 2.0, 7.3):
        for p_min in (0.0, 0.01, 0.1, 0.25):
            policy = SofteningPolicy(k=k, p_min=p_min)
            assert soften(1.0, policy) == 1.0
            assert soften(0.0, policy) == p_min


def test_soften_hand_value():
    # 1 - 0.9 * 0.234375^2 at v = visibility(4, 4, 32, 32)
    assert soften(0.765625, SofteningPolicy(k=2.0, p_min=0.1)) == 0.9505615234375


def test_soften_spec_point():
    assert soften(0.5, SofteningPolicy(k=2.0, p_min=0.01)) == pytest.approx(0.7525, abs=1e-12)


def test_soften_k1_affine():
    policy = SofteningPolicy(k=1.0, p_min=0.1)
    for v in np.linspace(0.0, 1.0, 21):
        assert soften(float(v), policy) == pytest.approx(0.1 + 0.9 * v, abs=1e-12)


def test_soften_k0_constant_below_one():
    policy = SofteningPolicy(k=0.0, p_min=0.3)
    for v in (0.0, 0.2, 0.7, 0.999):
        assert soften(v, policy) == 0.3
    assert soften(1.0, policy) == 1.0


def test_soften_range_and_monotone():
    rng = np.random.default_rng(30)
    for _ in range(2000):
        k = float(rng.uniform(0.0, 8.0))
        p_min = float(rng.uniform(0.0, 0.99))
        policy = SofteningPolicy(k=k, p_min=p_min)
        vs = np.sort(rng.uniform(0.0, 1.0, 8))
        ps = [soften(float(v), policy) for v in vs]
        assert all(p_min <= p <= 1.0 for p in ps)
        assert all(a <= b + 1e-15 for a, b in zip(ps, ps[1:]))


@settings(max_examples=300)
@given(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 64.0),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_soften_bounded_and_monotone_property(p_min, k, v1, v2):
    policy = SofteningPolicy(p_min, k)
    low, high = sorted((v1, v2))
    assert p_min <= soften(low, policy) <= soften(high, policy) <= 1.0


def test_soften_rejects_out_of_range():
    policy = SofteningPolicy(p_min=0.25)
    with pytest.raises(ValueError):
        soften(-0.1, policy)
    with pytest.raises(ValueError):
        soften(1.1, policy)


def test_label_smoothing_confidence():
    for alpha in (1.0, -0.1, math.nan):
        with pytest.raises(ValueError, match="alpha"):
            SofteningPolicy(p_min=0.25, alpha=alpha)
    # 1 - 0.9 rounds to 0.0999..., below the chance level 0.1
    with pytest.raises(ValueError, match="chance"):
        SofteningPolicy(p_min=0.1, alpha=0.9)
    for alpha in (0.0, 0.1, 0.5):
        policy = SofteningPolicy(k=3.0, p_min=0.25, alpha=alpha)
        assert [soften(v, policy) for v in (0.0, 0.3, 1.0)] == [1.0 - alpha] * 3
    with pytest.raises(ValueError):
        soften(1.1, SofteningPolicy(p_min=0.25, alpha=0.1))


def test_ssl_confidence_boundaries():
    policy = SofteningPolicy(k=2.0, p_min=0.01)
    assert ssl_pair_confidence(1.0, policy, "SA1") == 1.0
    assert ssl_pair_confidence(0.0, policy, "SA1") == 0.01
    assert ssl_pair_confidence(0.5, policy, "SA2") == pytest.approx(0.7525, abs=1e-12)
    # 0 ** 0 is 1, so the bare formula would give two identical crops p_min at k = 0
    flat = SofteningPolicy(k=0.0, p_min=0.25)
    assert ssl_pair_confidence(1.0, flat, "SA1") == ssl_pair_confidence(0.0, flat, "SA2") == 1.0


@settings(max_examples=300)
@given(st.floats(0.0, 1.0) | st.floats(0.0, 2.0**-54) | st.floats(1.0 - 2.0**-50, 1.0),
       st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 64.0))
@example(0.0, 0.1, 2.0)
@example(5e-324, 0.01, 0.0)
@example(2.0**-54, 0.1, 2.0)
@example(1.0 - 2.0**-53, 0.01, 0.0)
def test_ssl_hypotheses_are_the_curve_bit_for_bit(x, p_min, k):
    # SA1 is soften(x) and SA2 its mirror, for every double, the IoUs at
    # or below 2**-54 that 1 - x rounds away included
    policy = SofteningPolicy(p_min, k)
    sa1 = ssl_pair_confidence(x, policy, "SA1")
    assert sa1 == soften(x, policy) == ssl_pair_confidence(1.0 - x, policy, "SA2")
    assert p_min <= sa1 <= 1.0


def test_ssl_mirror_identity_bitwise():
    policy = SofteningPolicy(k=2.0, p_min=0.01)
    rng = np.random.default_rng(31)
    for x in rng.uniform(0.0, 1.0, 10_000):
        x = float(x)
        assert ssl_pair_confidence(x, policy, "SA1") == ssl_pair_confidence(1.0 - x, policy, "SA2")


def test_ssl_monotonicity():
    policy = SofteningPolicy(k=3.0, p_min=0.05)
    xs = np.linspace(0.0, 1.0, 101)
    sa1 = [ssl_pair_confidence(float(x), policy, "SA1") for x in xs]
    sa2 = [ssl_pair_confidence(float(x), policy, "SA2") for x in xs]
    assert all(a <= b for a, b in zip(sa1, sa1[1:]))
    assert all(a >= b for a, b in zip(sa2, sa2[1:]))


def test_ssl_validates():
    policy = SofteningPolicy(p_min=0.01)
    with pytest.raises(ValueError):
        ssl_pair_confidence(1.5, policy, "SA1")
    with pytest.raises(ValueError):
        ssl_pair_confidence(0.5, policy, "SA3")


def test_normalize_weights_examples():
    assert normalize_batch_weights([1.0, 1.0, 1.0]) == [1.0, 1.0, 1.0]
    out = normalize_batch_weights([0.2, 0.4])
    assert out == pytest.approx([2 / 3, 4 / 3], abs=1e-15)
    assert normalize_batch_weights([0.5, 1.5]) == [0.5, 1.5]
    assert normalize_batch_weights([0.0, 1.0]) == [0.0, 2.0]


def test_normalize_weights_mean_one():
    rng = np.random.default_rng(32)
    for _ in range(200):
        weights = rng.uniform(0.01, 5.0, rng.integers(1, 40))
        out = normalize_batch_weights(weights)
        assert abs(np.mean(out) - 1.0) <= 1e-12


def test_normalize_weights_idempotent_and_scale_invariant():
    rng = np.random.default_rng(33)
    weights = rng.uniform(0.1, 2.0, 16)
    once = normalize_batch_weights(weights)
    assert normalize_batch_weights(once) == pytest.approx(once, abs=1e-12)
    assert normalize_batch_weights(weights * 3.7) == pytest.approx(once, abs=1e-12)


def test_normalize_weights_rejects_bad_input():
    with pytest.raises(ValueError):
        normalize_batch_weights([])
    with pytest.raises(ValueError):
        normalize_batch_weights([0.0, 0.0])
    with pytest.raises(ValueError):
        normalize_batch_weights([-2.0, 1.0])
