import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from softaug import MODES, loss_and_grad, make_soft_target, soft_loss, soft_loss_grad
from softaug.loss import _log_softmax, softmax


def fd_gradient(logits, true_class, p, mode, h=1e-4):
    """Central finite differences of soft_loss, one coordinate at a time."""
    grad = np.zeros_like(logits, dtype=float)
    for i in range(logits.size):
        bumped = logits.astype(float).copy()
        bumped[i] += h
        up = soft_loss(bumped, true_class, p, mode)
        bumped[i] -= 2 * h
        down = soft_loss(bumped, true_class, p, mode)
        grad[i] = (up - down) / (2 * h)
    return grad


def test_log_softmax_matches_naive():
    rng = np.random.default_rng(40)
    for _ in range(100):
        logits = rng.normal(0.0, 2.0, 6)
        naive = np.log(np.exp(logits) / np.exp(logits).sum())
        assert _log_softmax(logits) == pytest.approx(naive, abs=1e-12)


def test_log_softmax_survives_huge_logits():
    out = _log_softmax(np.array([1000.0, 999.0, -1000.0]))
    assert np.isfinite(out).all()
    assert softmax(np.array([1000.0, 999.0, -1000.0])).sum() == pytest.approx(1.0)


def test_softmax_rows_match_vectors():
    # both reduce over the last axis: each row of a (7, N) call equals
    # the 1-d call on that row, bit for bit
    rng = np.random.default_rng(41)
    for fn in (softmax, _log_softmax):
        for n in (2, 10, 100):
            logits = rng.normal(0.0, 3.0, (7, n))
            logits[0] += 1000.0
            out = fn(logits)
            assert out.shape == logits.shape
            for row, z in zip(out, logits):
                assert np.array_equal(row, fn(z))
            probs = out if fn is softmax else np.exp(out)
            assert probs.sum(axis=1) == pytest.approx(np.ones(7))


def test_make_soft_target_values():
    target = make_soft_target(2, 0.9, 10)
    assert target[2] == 0.9
    others = np.delete(target, 2)
    assert others == pytest.approx(np.full(9, 0.1 / 9), abs=1e-15)
    assert target.sum() == pytest.approx(1.0, abs=1e-12)


def test_make_soft_target_boundaries():
    assert make_soft_target(3, 1.0, 4).tolist() == [0.0, 0.0, 0.0, 1.0]
    assert make_soft_target(0, 0.25, 4) == pytest.approx(np.full(4, 0.25), abs=1e-15)


def test_make_soft_target_validates():
    with pytest.raises(ValueError):
        make_soft_target(0, 0.05, 10)  # below chance
    with pytest.raises(ValueError):
        make_soft_target(0, 1.1, 10)
    with pytest.raises(ValueError):
        make_soft_target(4, 0.9, 4)
    with pytest.raises(ValueError):
        make_soft_target(0, 0.9, 1)


def test_hard_loss_uniform_logits():
    assert soft_loss(np.zeros(4), 0, 1.0, "hard") == pytest.approx(math.log(4), abs=1e-12)


def test_weight_loss_is_scaled_hard():
    assert soft_loss(np.zeros(4), 1, 0.5, "weight") == pytest.approx(0.693147, abs=1e-6)
    rng = np.random.default_rng(41)
    for _ in range(200):
        logits = rng.normal(0.0, 3.0, 8)
        p = float(rng.uniform(0.0, 1.0))
        hard = soft_loss(logits, 3, 1.0, "hard")
        assert soft_loss(logits, 3, p, "weight") == p * hard  # bitwise


def test_target_and_weight_is_scaled_target():
    rng = np.random.default_rng(42)
    for _ in range(200):
        logits = rng.normal(0.0, 3.0, 8)
        p = float(rng.uniform(1 / 8, 1.0))
        assert soft_loss(logits, 5, p, "target_and_weight") == p * soft_loss(logits, 5, p, "target")


def test_p_one_collapses_to_cross_entropy():
    rng = np.random.default_rng(43)
    for _ in range(100):
        logits = rng.normal(0.0, 2.0, 10)
        ce = -_log_softmax(logits)[4]
        for mode in MODES:
            assert soft_loss(logits, 4, 1.0, mode) == pytest.approx(ce, abs=1e-10)


def test_loss_nonnegative_and_zero_at_match():
    rng = np.random.default_rng(44)
    for _ in range(200):
        logits = rng.normal(0.0, 3.0, 6)
        p = float(rng.uniform(1 / 6, 1.0))
        for mode in MODES:
            assert soft_loss(logits, 2, p, mode) >= 0.0
    # target equal to softmax: KL is 0 up to roundoff, clamped to >= 0
    uniform = np.zeros(5)
    assert soft_loss(uniform, 0, 1 / 5, "target") == pytest.approx(0.0, abs=1e-12)


def test_grad_hand_value():
    assert soft_loss_grad(np.zeros(2), 0, 1.0, "hard") == pytest.approx([-0.5, 0.5], abs=1e-12)


def test_grad_zero_at_minimum():
    grad = soft_loss_grad(np.zeros(5), 0, 1 / 5, "target")
    assert grad == pytest.approx(np.zeros(5), abs=1e-12)


def test_weight_grad_is_scaled_hard_grad():
    rng = np.random.default_rng(45)
    for _ in range(200):
        logits = rng.normal(0.0, 3.0, 7)
        p = float(rng.uniform(0.0, 1.0))
        hard = soft_loss_grad(logits, 2, 1.0, "hard")
        assert np.array_equal(soft_loss_grad(logits, 2, p, "weight"), p * hard)


def test_grad_matches_finite_differences_all_modes():
    rng = np.random.default_rng(46)
    for mode in MODES:
        for _ in range(25):
            logits = rng.normal(0.0, 2.0, 10)
            true_class = int(rng.integers(0, 10))
            p = float(rng.uniform(0.1, 1.0)) if mode in ("hard", "weight") \
                else float(rng.uniform(1 / 10, 1.0))
            analytic = soft_loss_grad(logits, true_class, p, mode)
            numeric = fd_gradient(logits, true_class, p, mode)
            scale = np.maximum(np.abs(numeric), 1e-8)
            assert (np.abs(analytic - numeric) / scale).max() < 1e-4, mode


def test_soft_loss_rejects_bad_mode_and_confidence():
    with pytest.raises(ValueError):
        soft_loss(np.zeros(4), 0, 1.0, "softish")
    with pytest.raises(ValueError):
        soft_loss(np.zeros(4), 0, 1.5, "hard")
    with pytest.raises(ValueError):
        soft_loss(np.zeros(4), 0, 0.1, "target")  # below chance for soft target


@st.composite
def loss_batches(draw):
    """(logits, labels, ps) of B in [1, 8] rows over N in [2, 12] classes:
    logit scales up to 30, each p in [1/N, 1] with both ends drawn often."""
    b, n = draw(st.integers(1, 8)), draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = rng.normal(0.0, draw(st.floats(0.0, 30.0)), (b, n))
    labels = rng.integers(0, n, b)
    p = st.sampled_from([1 / n, 1.0]) | st.floats(1 / n, 1.0)
    return logits, labels, np.array([draw(p) for _ in range(b)])


_SEED_47 = np.random.default_rng(47)
_SEED_47_BATCH = (_SEED_47.normal(0.0, 2.0, (7, 6)), _SEED_47.integers(0, 6, 7),
                  _SEED_47.uniform(1 / 6, 1.0, 7))


@settings(max_examples=100)
@given(loss_batches())
@example(_SEED_47_BATCH)
def test_loss_and_grad_rows_are_per_sample_views(batch):
    logits, labels, ps = batch
    b = len(labels)
    for mode in MODES:
        loss, grad = loss_and_grad(logits, labels, ps, mode)
        per_sample = [soft_loss(logits[i], labels[i], ps[i], mode) for i in range(b)]
        assert loss == pytest.approx(sum(per_sample) / b, rel=1e-12)
        for i in range(b):
            row = soft_loss_grad(logits[i], labels[i], ps[i], mode) / b
            assert grad[i].tobytes() == row.tobytes(), (mode, i)


def test_loss_and_grad_degenerate_cases():
    # soft targets hold p to [1/N, 1] strictly, in the batch and per sample
    n = 4
    below = 1 / n - 1e-13
    logits = np.zeros((1, n))
    for mode in ("target", "target_and_weight"):
        with pytest.raises(ValueError):
            loss_and_grad(logits, np.array([0]), np.array([below]), mode)
        with pytest.raises(ValueError):
            soft_loss(logits[0], 0, below, mode)
    with pytest.raises(ValueError):
        make_soft_target(0, below, n)
    assert loss_and_grad(logits, np.array([0]), np.array([1 / n]), "target")[0] \
        == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        loss_and_grad(logits, np.array([0]), np.array([1.0]), "none")
    with pytest.raises(ValueError):
        loss_and_grad(np.zeros((0, n)), np.array([], dtype=int), np.array([]), "hard")
    row = np.array([1.0, -2.0, 0.5])
    single, _ = loss_and_grad(row[None, :], np.array([1]), np.array([1.0]), "hard")
    assert single == soft_loss(row, 1, 1.0, "hard")
    double, _ = loss_and_grad(np.stack([row, row]), np.array([1, 1]), np.ones(2), "hard")
    assert double == pytest.approx(single, abs=1e-12)


@pytest.mark.parametrize("logits", [[math.nan, 0.0, 1.0], [math.inf, 0.0, 1.0],
                                    [-math.inf] * 3])
def test_nonfinite_logits_give_nan_loss(logits):
    # the training path reports these as NaN; the per-sample view must agree
    logits = np.array(logits)
    with np.errstate(invalid="ignore"):
        for mode in MODES:
            assert math.isnan(soft_loss(logits, 2, 1.0, mode)), mode
            assert np.isnan(soft_loss_grad(logits, 2, 1.0, mode)).any(), mode
