import contextlib
import math
import pickle
import struct
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from softaug import (
    CheckpointError,
    CropWindow,
    GaussianCropConfig,
    LabeledDataset,
    MlpClassifier,
    NonFiniteLossError,
    RandomSource,
    ResizeCropConfig,
    SofteningPolicy,
    StandardCropConfig,
    TrainConfig,
    UniformCropConfig,
    draw_gaussian_window,
    draw_uniform_window,
    loss_and_grad,
    pad_and_crop,
    soften,
    synth_shapes,
    train,
    visibility,
)
from softaug.data import hflip
from conftest import blas_threads
from softaug.model import (
    _STEP_BLOCK_BYTES,
    _all_finite,
    _backward_batch,
    _forward_batch,
    _flatten,
    _sgd_step,
    _unflatten,
    cosine_lr,
    effective_sigma,
    forward_batch,
    init_mlp,
    load_checkpoint,
    save_checkpoint,
)


def reference_forward(model, x):
    """Triple-loop affine + ReLU chain, no vectorized matmul."""
    x = list(np.asarray(x, dtype=float).reshape(-1))
    for layer, (w, b) in enumerate(zip(model.weights, model.biases)):
        out = []
        for row in range(w.shape[0]):
            acc = float(b[row])
            for col in range(w.shape[1]):
                acc += w[row, col] * x[col]
            out.append(acc)
        last = layer == len(model.weights) - 1
        x = out if last else [max(v, 0.0) for v in out]
    return np.array(x)


def separable_dataset(n_per_class=20, size=6, seed=60):
    """Two color-coded classes split by a linear function of the pixels."""
    rng = np.random.default_rng(seed)
    images = np.zeros((2 * n_per_class, 3, size, size))
    labels = np.zeros(2 * n_per_class, dtype=np.int64)
    for i in range(2 * n_per_class):
        cls = i % 2
        images[i, 0 if cls == 0 else 2] = 0.9
        images[i] += rng.normal(0.0, 0.02, (3, size, size))
        labels[i] = cls
    return LabeledDataset(np.clip(images, 0.0, 1.0), labels, 2, "train")


def small_train_config(mode="target_and_weight", **overrides):
    policy = SofteningPolicy(k=2.0, p_min=0.25, mode=mode)
    defaults = dict(
        epochs=3,
        batch_size=10,
        lr0=0.05,
        policy=policy,
        sampler=GaussianCropConfig(sigma=0.3, length=32),
        hidden_sizes=(16,),
        seed=1,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


# --- init / forward ---


def test_init_shapes_and_bounds():
    model = init_mlp((12, 8, 4), RandomSource(0))
    assert model.layer_sizes == (12, 8, 4)
    assert model.weights[0].shape == (8, 12)
    assert model.biases[1].shape == (4,)
    assert np.abs(model.weights[0]).max() <= 1 / math.sqrt(12)
    assert np.abs(model.weights[1]).max() <= 1 / math.sqrt(8)


def test_init_deterministic():
    a = init_mlp((6, 5, 3), RandomSource(9))
    b = init_mlp((6, 5, 3), RandomSource(9))
    assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))


def forward(model, x):
    """Logits of one input: forward_batch with B = 1."""
    return forward_batch(model, np.asarray(x, dtype=float)[None, :])[0]


def test_zero_model_zero_logits():
    model = MlpClassifier((4, 3, 2), [np.zeros((3, 4)), np.zeros((2, 3))],
                          [np.zeros(3), np.zeros(2)])
    assert forward(model, np.ones(4)).tolist() == [0.0, 0.0]


def test_single_layer_identity():
    model = MlpClassifier((2, 2), [np.eye(2)], [np.zeros(2)])
    assert forward(model, np.array([3.0, -1.5])).tolist() == [3.0, -1.5]


def test_forward_matches_reference():
    rng = RandomSource(61)
    model = init_mlp((10, 7, 5), rng)
    gen = np.random.default_rng(62)
    for _ in range(20):
        x = gen.normal(0.0, 1.0, 10)
        assert forward(model, x) == pytest.approx(reference_forward(model, x), abs=1e-6)


def test_forward_batch_matches_single():
    model = init_mlp((8, 6, 3), RandomSource(63))
    xs = np.random.default_rng(64).normal(0.0, 1.0, (5, 8))
    batched = forward_batch(model, xs)
    for row in range(5):
        assert batched[row] == pytest.approx(forward_batch(model, xs[row : row + 1])[0],
                                             abs=1e-12)


def test_forward_validates_input_size():
    model = init_mlp((8, 4, 2), RandomSource(65))
    with pytest.raises(ValueError):
        forward_batch(model, np.ones((1, 7)))


def test_mlp_validates_shapes():
    with pytest.raises(ValueError):
        MlpClassifier((4, 2), [np.zeros((3, 4))], [np.zeros(3)])
    with pytest.raises(ValueError):
        MlpClassifier((4,), [], [])


# --- backward ---


def backward(model, image, true_class, p, mode):
    """Loss and parameter gradients of one input: _backward_batch with B = 1."""
    x = np.asarray(image, dtype=float)[None, :]
    grads = [np.empty_like(param) for param in model.weights + model.biases]
    loss, _ = _backward_batch(model, x, np.array([true_class]), np.array([p]), mode, grads)
    return loss, grads[:model.num_layers], grads[model.num_layers:]


def fd_param_grads(model, image, true_class, p, mode, h=1e-5):
    def loss_now():
        return backward(model, image, true_class, p, mode)[0]

    grads_w, grads_b = [], []
    for w in model.weights:
        g = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            keep = w[idx]
            w[idx] = keep + h
            up = loss_now()
            w[idx] = keep - h
            down = loss_now()
            w[idx] = keep
            g[idx] = (up - down) / (2 * h)
        grads_w.append(g)
    for b in model.biases:
        g = np.zeros_like(b)
        for idx in np.ndindex(b.shape):
            keep = b[idx]
            b[idx] = keep + h
            up = loss_now()
            b[idx] = keep - h
            down = loss_now()
            b[idx] = keep
            g[idx] = (up - down) / (2 * h)
        grads_b.append(g)
    return grads_w, grads_b


def assert_grads_close(analytic, numeric, tol=1e-3):
    for a, n in zip(analytic[0] + analytic[1], numeric[0] + numeric[1]):
        scale = np.maximum(np.abs(n), 1e-6)
        assert (np.abs(a - n) / scale).max() < tol


@pytest.mark.parametrize("mode", ["hard", "target", "weight", "target_and_weight"])
def test_backward_matches_finite_differences(mode):
    # 6*8 + 8 + 8*4 + 4 = 92 parameters
    model = init_mlp((6, 8, 4), RandomSource(66))
    image = np.random.default_rng(67).normal(0.0, 1.0, 6)
    p = 0.7
    loss, grad_w, grad_b = backward(model, image, 2, p, mode)
    assert loss >= 0.0
    numeric = fd_param_grads(model, image, 2, p, mode)
    assert_grads_close((grad_w, grad_b), numeric)


def test_backward_grad_check_after_updates():
    model = init_mlp((6, 8, 4), RandomSource(68))
    gen = np.random.default_rng(69)
    for _ in range(10):
        image = gen.normal(0.0, 1.0, 6)
        _, gw, gb = backward(model, image, int(gen.integers(0, 4)), 0.8, "target_and_weight")
        for layer in range(2):
            model.weights[layer] -= 0.05 * gw[layer]
            model.biases[layer] -= 0.05 * gb[layer]
    image = gen.normal(0.0, 1.0, 6)
    _, gw, gb = backward(model, image, 1, 0.8, "target_and_weight")
    numeric = fd_param_grads(model, image, 1, 0.8, "target_and_weight")
    assert_grads_close((gw, gb), numeric)


def test_backward_zero_at_loss_minimum():
    model = MlpClassifier((3, 4), [np.zeros((4, 3))], [np.zeros(4)])
    # zero logits give uniform softmax; a uniform target sits at the minimum
    _, gw, gb = backward(model, np.ones(3), 0, 0.25, "target")
    assert np.abs(gw[0]).max() < 1e-12
    assert np.abs(gb[0]).max() < 1e-12


def test_weight_mode_grads_scale_hard_grads():
    model = init_mlp((5, 6, 3), RandomSource(70))
    image = np.random.default_rng(71).normal(0.0, 1.0, 5)
    _, hard_w, hard_b = backward(model, image, 1, 1.0, "hard")
    _, w_w, w_b = backward(model, image, 1, 0.6, "weight")
    for a, b in zip(w_w + w_b, [0.6 * g for g in hard_w + hard_b]):
        assert a == pytest.approx(b, abs=1e-12)


# --- schedules ---


def test_cosine_lr_values():
    assert cosine_lr(0, 100, 0.1) == 0.1
    assert cosine_lr(100, 100, 0.1) == pytest.approx(0.0, abs=1e-15)
    assert cosine_lr(50, 100, 0.1) == pytest.approx(0.05, abs=1e-15)
    values = [cosine_lr(e, 60, 0.1) for e in range(61)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        cosine_lr(-1, 10, 0.1)
    with pytest.raises(ValueError):
        cosine_lr(11, 10, 0.1)


def test_effective_sigma_window():
    cfg = small_train_config(epochs=500, sigma_decay_final_epochs=20, sigma_decay_factor=1000.0)
    assert effective_sigma(490, cfg) == pytest.approx(0.0003, abs=1e-15)
    assert effective_sigma(479, cfg) == 0.3
    assert effective_sigma(480, cfg) == pytest.approx(0.0003, abs=1e-15)
    no_decay = small_train_config(epochs=500)
    assert effective_sigma(490, no_decay) == 0.3
    uniform = small_train_config(sampler=UniformCropConfig(range_r=4))
    assert effective_sigma(0, uniform) == 0.0


def test_sigma_decay_validates():
    with pytest.raises(ValueError, match="sigma decay final_epochs must be >= 0, got -1"):
        small_train_config(sigma_decay_final_epochs=-1, sigma_decay_factor=1000.0)
    with pytest.raises(ValueError, match="sigma decay factor must be finite and >= 1, got 0.5"):
        small_train_config(sigma_decay_final_epochs=10, sigma_decay_factor=0.5)
    with pytest.raises(ValueError, match="sigma decay factor must be finite and >= 1, got inf"):
        small_train_config(sigma_decay_final_epochs=10, sigma_decay_factor=math.inf)


# --- train config ---


def test_train_config_validation():
    with pytest.raises(ValueError):
        small_train_config(lr0=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            small_train_config(lr0=bad)
        with pytest.raises(ValueError):
            small_train_config(weight_decay=bad)
    with pytest.raises(ValueError):
        small_train_config(momentum=1.0)
    with pytest.raises(ValueError):
        small_train_config(batch_size=0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        small_train_config(seed=-1)
    with pytest.raises(ValueError):
        small_train_config(policy=SofteningPolicy(p_min=0.25, alpha=1.0))
    # sigma decay shrinks a gaussian sigma; other samplers have none to shrink
    with pytest.raises(ValueError, match="gaussian"):
        small_train_config(sampler=UniformCropConfig(range_r=4),
                           sigma_decay_final_epochs=1)
    small_train_config(sampler=UniformCropConfig(range_r=4), sigma_decay_factor=2.0)


# --- training loop ---


def test_train_zero_epochs_returns_init():
    ds = synth_shapes(5, 4, seed=72)
    cfg = small_train_config(epochs=0)
    model, log = train(ds, cfg)
    reference = init_mlp((3072, 16, 4), RandomSource(cfg.seed).split(0))
    assert log == []
    assert all(np.array_equal(a, b) for a, b in zip(model.weights, reference.weights))


def test_train_deterministic():
    ds = synth_shapes(5, 4, seed=73)
    cfg = small_train_config(epochs=2)
    model_a, log_a = train(ds, cfg)
    model_b, log_b = train(ds, cfg)
    assert log_a == log_b
    assert all(np.array_equal(x, y) for x, y in zip(model_a.weights, model_b.weights))
    assert all(np.array_equal(x, y) for x, y in zip(model_a.biases, model_b.biases))


def test_train_seed_changes_model():
    ds = synth_shapes(5, 4, seed=74)
    model_a, _ = train(ds, small_train_config(epochs=1, seed=1))
    model_b, _ = train(ds, small_train_config(epochs=1, seed=2))
    assert not np.array_equal(model_a.weights[0], model_b.weights[0])


def test_train_reaches_zero_error_on_separable_data():
    ds = separable_dataset()
    cfg = TrainConfig(
        epochs=50, batch_size=10, lr0=0.05,
        policy=SofteningPolicy(k=2.0, p_min=0.5, mode="none"),
        sampler=UniformCropConfig(range_r=0),
        hidden_sizes=(12,), seed=3,
    )
    _, log = train(ds, cfg)
    assert log[-1].top1_error == 0.0


@pytest.mark.parametrize("mode", ["none", "target", "weight", "target_and_weight"])
def test_train_loss_decreases(mode):
    # gentle crops keep the per-epoch loss noise below the learning signal
    ds = synth_shapes(25, 4, seed=75)
    for seed in (1, 2, 3):
        cfg = small_train_config(mode=mode, epochs=10, seed=seed, lr0=0.05,
                                 sampler=GaussianCropConfig(sigma=0.1, length=32))
        _, log = train(ds, cfg)
        assert log[-1].mean_loss < log[0].mean_loss, (mode, seed)


def test_train_log_structure():
    ds = synth_shapes(5, 4, seed=76)
    cfg = small_train_config(epochs=3)
    _, log = train(ds, cfg)
    assert [s.epoch for s in log] == [0, 1, 2]
    assert log[0].lr == cfg.lr0
    assert all(s.sigma == 0.3 for s in log)
    assert all(0.0 <= s.top1_error <= 1.0 for s in log)


def test_train_label_smoothing_arm():
    ds = synth_shapes(5, 4, seed=77)
    cfg = small_train_config(epochs=2, policy=SofteningPolicy(p_min=0.25, alpha=0.1))
    model, log = train(ds, cfg)
    assert len(log) == 2
    assert model.layer_sizes == (3072, 16, 4)


def fake_openblas(threads, calls):
    """A stand-in for numpy's OpenBLAS that reports ``threads`` and logs
    every count set on it into ``calls``."""
    return SimpleNamespace(scipy_openblas_get_num_threads64_=lambda: threads,
                           scipy_openblas_set_num_threads64_=lambda n: calls.append(n))


def test_train_restores_the_blas_thread_count(monkeypatch):
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    ds = separable_dataset(n_per_class=5)
    cfg = TrainConfig(epochs=2, batch_size=5, lr0=0.05,
                      policy=SofteningPolicy(k=2.0, p_min=0.5, mode="none"),
                      sampler=UniformCropConfig(range_r=0), hidden_sizes=(8,), seed=4)
    huge = LabeledDataset(ds.images * 1e39, ds.labels, 2, "train")
    before = blas_threads()
    during = []

    def spy(*args):
        during.append(blas_threads())
        return _backward_batch(*args)

    with monkeypatch.context() as patch:
        patch.setattr("softaug.model._backward_batch", spy)
        # the real library: exactly 1 thread inside, also when the user
        # asked for 2, and the count back after, also on an error
        for setting in (None, "2"):
            if setting:
                patch.setenv("OPENBLAS_NUM_THREADS", setting)
            train(ds, cfg)
            assert blas_threads() == before
            with pytest.raises(NonFiniteLossError):
                train(huge, cfg)
            assert blas_threads() == before
        assert set(during) == ({None} if before is None else {1})
    # the exact calls, on any host and whatever either variable says: 3
    # threads go to 1, then back to 3, on a return and on an error
    for name in (None, "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        for data, error in ((ds, None), (huge, NonFiniteLossError)):
            calls = []
            with monkeypatch.context() as patch:
                if name:
                    patch.setenv(name, "3")
                patch.setattr("softaug.model._openblas", lambda: fake_openblas(3, calls))
                with pytest.raises(error) if error else contextlib.nullcontext():
                    train(data, cfg)
            assert calls == [1, 3]


def _with_float32(model):
    """The trainer's working model: ``model`` rounded into one flat float32 buffer."""
    return _unflatten(_flatten(model, np.float32), model.layer_sizes)


@pytest.mark.parametrize("sizes", [(13, 7, 5, 3), (3072, 16, 4)])
def test_flatten_round_trips_into_input_major_views(sizes):
    model = init_mlp(sizes, RandomSource(94))
    for dtype in (np.float64, np.float32):
        flat = _flatten(model, dtype)
        back = _unflatten(flat, sizes)
        assert flat.dtype == dtype and flat.size == sum(a.size for a in model.weights + model.biases)
        for a, b in zip(model.weights + model.biases, back.weights + back.biases):
            assert b.dtype == dtype and b.shape == a.shape and np.shares_memory(b, flat)
            assert b.tobytes() == a.astype(dtype).tobytes()
        # each weight block is (in, out) C-order, so x @ w.T reads a C-contiguous B
        assert all(w.T.flags.c_contiguous for w in back.weights)
        assert _flatten(back, dtype).tobytes() == flat.tobytes()


def reference_backward(model, x, labels, ps, mode):
    """(loss, grads, logits) by backprop into new arrays from ``@`` and
    ``sum``, as the trainer formed its gradients before it wrote them
    into buffers."""
    logits, activations = _forward_batch(model, x)
    loss, delta = loss_and_grad(logits, labels, ps, mode)
    delta = delta.astype(x.dtype)
    grads = [None] * (2 * model.num_layers)
    for layer in reversed(range(model.num_layers)):
        grads[layer] = delta.T @ activations[layer]
        grads[model.num_layers + layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ model.weights[layer]) * (activations[layer] > 0)
    return loss, grads, logits


@pytest.mark.parametrize("sizes", [(13, 7, 5, 3), (3072, 16, 4)])
@pytest.mark.parametrize("mode", ["hard", "target", "weight", "target_and_weight"])
def test_backward_batch_into_buffers_equals_new_arrays(mode, sizes):
    # odd sizes start the views at unaligned offsets; 3072 is the trainer's input width
    rng = np.random.default_rng(92)
    model = _with_float32(init_mlp(sizes, RandomSource(93)))
    x = rng.normal(0.0, 1.0, (5, sizes[0])).astype(np.float32)
    labels, ps = np.arange(5) % sizes[-1], np.array([1.0, 0.5, 0.75, 0.4, 0.9])
    loss_ref, expected, logits_ref = reference_backward(model, x, labels, ps, mode)
    flat = np.full(sum(g.size for g in expected), np.nan, np.float32)
    buffers = _unflatten(flat, sizes)
    grads = buffers.weights + buffers.biases
    loss, logits = _backward_batch(model, x, labels, ps, mode, grads)
    assert not np.isnan(flat).any()
    assert loss == loss_ref and logits.tobytes() == logits_ref.tobytes()
    for a, b in zip(expected, grads):
        assert a.dtype == b.dtype == np.float32
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def scalar_epoch_batches(ds, cfg, epoch):
    """One epoch's (batch, labels, ps) re-derived from scalar public calls
    on its stream: the order, then one flip draw per sample, then one
    window per sample. The trainer's batches are float32."""
    n, _, h, w = ds.images.shape
    rng = RandomSource(cfg.seed).split(epoch + 1)
    order = rng.generator.permutation(n)
    images = [hflip(ds.images[i], rng) for i in order]
    sampler, draw = cfg.sampler, draw_uniform_window
    if isinstance(sampler, GaussianCropConfig):
        sampler, draw = replace(sampler, sigma=effective_sigma(epoch, cfg)), draw_gaussian_window
    offsets = [draw(sampler, rng) for _ in range(n)]
    rows = [pad_and_crop(image, CropWindow(tx, ty, w, h)).reshape(-1)
            for image, (tx, ty) in zip(images, offsets)]
    ps = [1.0 if cfg.policy.mode == "hard" else soften(visibility(tx, ty, w, h), cfg.policy)
          for tx, ty in offsets]
    for start in range(0, n, cfg.batch_size):
        end = start + cfg.batch_size
        yield (np.array(rows[start:end], dtype=np.float32), ds.labels[order[start:end]],
               np.array(ps[start:end]))


@pytest.mark.parametrize("overrides", [
    dict(mode="none", sampler=UniformCropConfig(range_r=8)),
    # sigma 0.6 rejects about 1 normal in 10, so the bulk scan skips draws
    dict(sampler=GaussianCropConfig(sigma=0.6, length=32)),
    dict(sampler=GaussianCropConfig(sigma=0.6, length=32), sigma_decay_final_epochs=1),
], ids=["uniform_none", "gaussian_target_and_weight", "gaussian_sigma_decay"])
def test_train_batches_equal_scalar_stream(overrides, monkeypatch):
    ds = synth_shapes(3, 4, seed=78)  # 12 images: batches of 5, 5 and 2
    cfg = small_train_config(epochs=2, batch_size=5, **overrides)
    seen = []

    def spy(model, x, labels, ps, mode, grads):
        seen.append((x.copy(), labels.copy(), ps.copy()))
        return _backward_batch(model, x, labels, ps, mode, grads)

    softened = []

    def counting_soften(v, policy):
        softened.append(v)
        return soften(v, policy)

    monkeypatch.setattr("softaug.model._backward_batch", spy)
    monkeypatch.setattr("softaug.model.soften", counting_soften)
    expected = [batch for epoch in range(cfg.epochs)
                for batch in scalar_epoch_batches(ds, cfg, epoch)]
    train(ds, cfg)
    # check_trainable's one call at v = 0, then one a sample and epoch in
    # the modes that read p; the hard arm computes no p
    hard = cfg.policy.mode == "hard"
    assert len(softened) == 1 + (0 if hard else cfg.epochs * len(ds))
    assert len(seen) == len(expected) == 6
    for (x, labels, ps), (x_ref, labels_ref, ps_ref) in zip(seen, expected):
        assert x.tobytes() == x_ref.tobytes()
        assert labels.tolist() == labels_ref.tolist()
        assert ps.tobytes() == ps_ref.tobytes()


def test_train_rejects_below_chance_policy_up_front(monkeypatch):
    ds = synth_shapes(5, 4, seed=79)
    # p_min = 0.01 is below chance 1/4 at v = 0
    for mode in ("target", "target_and_weight"):
        cfg = small_train_config(policy=SofteningPolicy(p_min=0.01, mode=mode))
        with monkeypatch.context() as patch:
            patch.setattr("softaug.model._backward_batch",
                          lambda *args: pytest.fail("a batch ran"))
            with pytest.raises(ValueError, match=f"mode {mode} .* chance 1/4"):
                train(ds, cfg)
    # weight-only and hard training never put p into the target
    for mode in ("weight", "hard"):
        policy = SofteningPolicy(p_min=0.01, mode=mode)
        _, log = train(ds, small_train_config(epochs=1, policy=policy))
        assert len(log) == 1


def test_train_rejects_bad_dataset_sampler_combo():
    ds = synth_shapes(5, 4, seed=78)
    with pytest.raises(ValueError):
        train(ds, small_train_config(sampler=GaussianCropConfig(sigma=0.3, length=16)))
    with pytest.raises(ValueError):
        train(ds, small_train_config(sampler=UniformCropConfig(range_r=33)))
    # resize crops change the crop size, which the same-size trainer cannot do
    for sampler in (ResizeCropConfig(sigma=0.3, width=32, height=32, min_length=16),
                    StandardCropConfig(32, 32)):
        with pytest.raises(ValueError, match="resize-crop"):
            train(ds, small_train_config(sampler=sampler))


def test_train_nonfinite_loss_diagnostic():
    ds = separable_dataset(n_per_class=5)
    cfg = TrainConfig(
        epochs=3, batch_size=5, lr0=1e308,
        policy=SofteningPolicy(k=2.0, p_min=0.5, mode="none"),
        sampler=UniformCropConfig(range_r=0),
        hidden_sizes=(8,), seed=4,
    )
    with pytest.raises(NonFiniteLossError) as err:
        train(ds, cfg)
    # batch 0's step leaves weights near 1e307, so batch 1 is the first non-finite one
    assert (err.value.epoch, err.value.batch, err.value.lr) == (0, 1, 1e308)
    # the error crosses a process boundary intact, as it does out of a compare worker
    copy = pickle.loads(pickle.dumps(err.value))
    assert (copy.epoch, copy.batch, copy.lr, str(copy)) == (0, 1, 1e308, str(err.value))


@pytest.mark.filterwarnings("error")
def test_train_float32_inside_float64_outside(monkeypatch):
    ds = separable_dataset(n_per_class=5)
    cfg = TrainConfig(
        epochs=2, batch_size=5, lr0=0.05,
        policy=SofteningPolicy(k=2.0, p_min=0.5, mode="none"),
        sampler=UniformCropConfig(range_r=0),
        hidden_sizes=(8,), seed=4,
    )
    model, _ = train(ds, cfg)
    assert all(a.dtype == np.float64 for a in model.weights + model.biases)
    # 1e39 pixels are finite in float64, where this model's logits stay
    # finite, but overflow to inf in the float32 batch: the first batch
    # raises before any step, and no cast or matmul warning gets out
    huge = LabeledDataset(ds.images * 1e39, ds.labels, 2, "train")
    assert np.isfinite(forward_batch(model, huge.images)).all()
    monkeypatch.setattr("softaug.model._sgd_step", lambda *args: pytest.fail("a step ran"))
    with pytest.raises(NonFiniteLossError) as err:
        train(huge, cfg)
    assert (err.value.epoch, err.value.batch) == (0, 0)


def test_train_returns_contiguous_float64_of_its_buffer(monkeypatch):
    ds = synth_shapes(3, 4, seed=95)
    working = []

    def spy(model, *args):
        working.append(model)
        return _backward_batch(model, *args)

    monkeypatch.setattr("softaug.model._backward_batch", spy)
    model, _ = train(ds, small_train_config(epochs=2, batch_size=5))
    # every batch steps one working model; the one returned is it widened
    work = working[0]
    assert len(working) == 6 and all(m is work for m in working)
    for a, b in zip(model.weights + model.biases, work.weights + work.biases):
        assert a.dtype == np.float64 and a.flags.c_contiguous and b.dtype == np.float32
        assert a.tobytes() == b.astype(np.float64).tobytes()


def test_train_leaves_caller_images_untouched():
    ds = synth_shapes(3, 4, seed=96)
    before = ds.images.copy()
    train(ds, small_train_config(epochs=1, batch_size=5))
    # the float32 copy the batches crop from is a new array, never a cast in place
    assert ds.images.dtype == np.float64 and ds.images.tobytes() == before.tobytes()


def reference_step(param, velocity, grad, lr, momentum, weight_decay):
    """The trainer's step as plain expressions on fresh arrays."""
    velocity = momentum * velocity + grad
    if weight_decay:
        param = param * (1.0 - lr * weight_decay)
    return param - lr * velocity, velocity


@pytest.mark.parametrize("shape, weight_decay", [
    ((37, 3072), 5e-4),  # 16 float64 or 32 float32 rows a block, and a partial last one
    ((37, 3072), 0.0),
    ((37,), 0.0),        # a bias: one block
    ((37,), 5e-4),
])
def test_sgd_step_matches_reference_bitwise(shape, weight_decay):
    for dtype in (np.float64, np.float32):
        if len(shape) == 2:
            assert shape[0] % (_STEP_BLOCK_BYTES // (np.dtype(dtype).itemsize * shape[1])) != 0
        rng = np.random.default_rng(90)
        param = rng.normal(0.0, 0.1, shape).astype(dtype)
        velocity = rng.normal(0.0, 0.01, shape).astype(dtype)
        ref_param, ref_velocity = param.copy(), velocity.copy()
        for lr in (0.1, 0.0731, 1e-3):
            grad = rng.normal(0.0, 1.0, shape).astype(dtype)
            ref_param, ref_velocity = reference_step(ref_param, ref_velocity, grad,
                                                     lr, 0.9, weight_decay)
            _sgd_step(param, velocity, grad, lr, 0.9, weight_decay)  # spends grad
            assert param.dtype == ref_param.dtype == dtype
            assert param.tobytes() == ref_param.tobytes()
            assert velocity.tobytes() == ref_velocity.tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entries, finite", [
    ({(1, 2): np.nan}, False),
    ({(4, 0): np.inf}, False),
    ({(0, 6): -np.inf}, False),
    ({(2, 3): np.inf, (3, 3): -np.inf}, False),
    ("huge", True),  # the dot product overflows on finite entries
    ({}, True),
    ("huge32", True),  # in float32 it does so already at 1e20
])
def test_all_finite(entries, finite):
    if isinstance(entries, str):
        value, dtype = {"huge": (1e200, np.float64), "huge32": (1e20, np.float32)}[entries]
        grads = [np.full((5, 7), value, dtype)]
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.dot(grads[0][0], grads[0][0]))
    else:
        grad = np.random.default_rng(91).normal(0.0, 1.0, (5, 7))
        for index, value in entries.items():
            grad[index] = value
        grads = [grad, grad.astype(np.float32)]
    for grad in grads:
        assert _all_finite(grad) is finite
        assert _all_finite(grad[0]) is bool(np.isfinite(grad[0]).all())


# --- checkpoints ---


def test_checkpoint_roundtrip(tmp_path):
    model = init_mlp((10, 6, 3, 4), RandomSource(79))
    path = str(tmp_path / "model.bin")
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.layer_sizes == model.layer_sizes
    # float64, C-contiguous, writeable, and no two parameters share memory
    arrays = loaded.weights + loaded.biases
    for a, b in zip(arrays, model.weights + model.biases):
        assert a.dtype == np.float64 and a.flags.c_contiguous and a.flags.writeable
        assert a.shape == b.shape and np.array_equal(a, b)
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1 :])


def test_checkpoint_bytes_equal_per_layer_reference(tmp_path):
    # the trainer's layout: each weight a non-contiguous .T view of one float64 buffer
    sizes = (7, 5, 3, 2)
    flat = np.random.default_rng(96).normal(size=sum(i * o + o for i, o in zip(sizes, sizes[1:])))
    model = _unflatten(flat, sizes)
    assert model.num_layers == 3 and not any(w.flags.c_contiguous for w in model.weights)
    path = tmp_path / "model.bin"
    save_checkpoint(model, str(path))
    # the v1 bytes written header field by field, then layer by layer
    expected = struct.pack("<8sII", b"SAMLP001", 1, 4) + struct.pack("<4I", *sizes)
    for w, b in zip(model.weights, model.biases):
        expected += w.astype("<f8").tobytes(order="C") + b.astype("<f8").tobytes(order="C")
    assert path.read_bytes() == expected


def test_checkpoint_rejects_corruption(tmp_path):
    model = init_mlp((4, 3, 2), RandomSource(80))
    path = str(tmp_path / "model.bin")
    save_checkpoint(model, path)
    blob = open(path, "rb").read()

    bad = str(tmp_path / "bad.bin")
    open(bad, "wb").write(b"WRONGMAG" + blob[8:])
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)

    open(bad, "wb").write(blob[:-8])
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)

    open(bad, "wb").write(blob[:4])
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)

    version = bytearray(blob)
    version[8] = 99
    open(bad, "wb").write(bytes(version))
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)


def test_checkpoint_rejects_non_finite_parameters(tmp_path):
    path = str(tmp_path / "model.bin")
    for value in (np.nan, np.inf, -np.inf):
        for layer, params in ((0, "weights"), (1, "biases")):
            model = init_mlp((4, 3, 2), RandomSource(81))
            getattr(model, params)[layer].reshape(-1)[1] = value
            save_checkpoint(model, path)
            with pytest.raises(CheckpointError, match=f"layer {layer} "):
                load_checkpoint(path)
