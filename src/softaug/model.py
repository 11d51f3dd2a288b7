"""Minimal MLP classifier with hand-written backprop and an SGD trainer.

The network is fully connected with ReLU hidden layers and identity
output; forward, backward, and the optimizer are plain numpy so every
gradient can be checked against finite differences. The trainer applies
the crop-soften pipeline per sample and is bit-reproducible for a fixed
seed: dataset order, augmentation draws, and initialization all come
from split streams of one root RandomSource.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .geometry import CropWindow, pad_and_crop, visibility
from .loss import loss_and_grad
from .sampling import (
    GaussianCropConfig,
    RandomSource,
    ResizeCropConfig,
    StandardCropConfig,
    UniformCropConfig,
    draw_gaussian_window,
    draw_uniform_window,
)
from .softening import SofteningPolicy, soften
from .data import LabeledDataset, hflip

_CHECKPOINT_MAGIC = b"SAMLP001"
# Bytes of one row block of the in-place SGD step (16 rows of a
# 3072-wide float64 weight). On a Xeon with 2 MB of L2 per core,
# 128-512 KB blocks ran 20-30% faster than 1 MB or whole-array ones.
_STEP_BLOCK_BYTES = 384 * 1024


class CheckpointError(ValueError):
    """Raised when checkpoint bytes are malformed or inconsistent."""


class NonFiniteLossError(RuntimeError):
    """Training produced a NaN or infinite loss or gradient."""

    def __init__(self, epoch: int, batch: int, lr: float):
        self.epoch = epoch
        self.batch = batch
        self.lr = lr
        super().__init__(
            f"non-finite loss in epoch {epoch}, batch {batch} (lr={lr:.6g}); "
            "reduce lr0 or check the input data"
        )

    def __reduce__(self):
        # rebuild from the fields, not the message, so the error survives
        # the pickling that carries it out of a worker process
        return type(self), (self.epoch, self.batch, self.lr)


@dataclass
class MlpClassifier:
    """Fully connected ReLU network.

    ``weights[l]`` has shape (layer_sizes[l + 1], layer_sizes[l]) and
    ``biases[l]`` shape (layer_sizes[l + 1],). The final layer has no
    activation; its output is the logit vector.
    """

    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self) -> None:
        sizes = tuple(int(s) for s in self.layer_sizes)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError(f"layer_sizes must be >= 2 positive entries, got {sizes}")
        object.__setattr__(self, "layer_sizes", sizes)
        expected_w = [(sizes[i + 1], sizes[i]) for i in range(len(sizes) - 1)]
        if [w.shape for w in self.weights] != expected_w:
            raise ValueError("weight shapes do not match layer_sizes")
        if [b.shape for b in self.biases] != [(s,) for s in sizes[1:]]:
            raise ValueError("bias shapes do not match layer_sizes")

    @property
    def num_layers(self) -> int:
        return len(self.weights)


def init_mlp(layer_sizes: tuple[int, ...], rng: RandomSource) -> MlpClassifier:
    """Uniform init scaled by fan-in: every parameter ~ U(-1, 1)/sqrt(fan_in)."""
    sizes = tuple(int(s) for s in layer_sizes)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / math.sqrt(fan_in)
        weights.append(rng.generator.uniform(-bound, bound, (fan_out, fan_in)))
        biases.append(rng.generator.uniform(-bound, bound, fan_out))
    return MlpClassifier(sizes, weights, biases)


def forward_batch(model: MlpClassifier, inputs: np.ndarray) -> np.ndarray:
    """Logits (B, N) for a batch; rows are flattened to the input width."""
    x = np.asarray(inputs, dtype=float).reshape(inputs.shape[0], -1)
    if x.shape[1] != model.layer_sizes[0]:
        raise ValueError(f"input size {x.shape[1]} != model input {model.layer_sizes[0]}")
    return _forward_batch(model, x)[0]


def _forward_batch(model: MlpClassifier, x: np.ndarray):
    """Returns (logits (B, N), activations, pre_activations) for backprop.

    ``activations[l]`` is the input to layer l; ``pre_activations[l]``
    is its affine output before ReLU (the last layer applies none).
    """
    activations = [x]
    pre_activations = []
    for layer, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = x @ w.T + b
        pre_activations.append(z)
        x = np.maximum(z, 0.0) if layer < model.num_layers - 1 else z
        if layer < model.num_layers - 1:
            activations.append(x)
    return pre_activations[-1], activations, pre_activations


def _backward_batch(model: MlpClassifier, x: np.ndarray, true_classes: np.ndarray,
                    ps: np.ndarray, mode: str):
    """Mean loss over the batch plus gradients for every parameter.

    Returns (loss, weight_grads, bias_grads, logits). The logit gradient
    comes from :func:`loss_and_grad`; all deeper gradients follow by the
    chain rule through ReLU masks.
    """
    logits, activations, pre_activations = _forward_batch(model, x)
    loss, delta = loss_and_grad(logits, true_classes, ps, mode)
    weight_grads = [np.empty(0)] * model.num_layers
    bias_grads = [np.empty(0)] * model.num_layers
    for layer in range(model.num_layers - 1, -1, -1):
        weight_grads[layer] = delta.T @ activations[layer]
        bias_grads[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ model.weights[layer]) * (pre_activations[layer - 1] > 0)
    return loss, weight_grads, bias_grads, logits


def cosine_lr(epoch: int, total_epochs: int, lr0: float) -> float:
    """Half-cosine decay from lr0 at epoch 0 toward 0 at epoch == total."""
    if total_epochs < 1:
        raise ValueError(f"total_epochs must be >= 1, got {total_epochs}")
    if not 0 <= epoch <= total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {total_epochs}]")
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * epoch / total_epochs))


@dataclass(frozen=True)
class SigmaDecay:
    """Shrink the crop sigma by ``factor`` for the last ``final_epochs`` (none by default)."""

    final_epochs: int = 0
    factor: float = 1000.0

    def __post_init__(self) -> None:
        if self.final_epochs < 0:
            raise ValueError(f"sigma decay final_epochs must be >= 0, got {self.final_epochs}")
        if not 1.0 <= self.factor < math.inf:
            raise ValueError(f"sigma decay factor must be finite and >= 1, got {self.factor}")


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int
    lr0: float
    policy: SofteningPolicy
    # train() takes gaussian or uniform; the resize crops serve sampler-stats
    sampler: GaussianCropConfig | UniformCropConfig | ResizeCropConfig | StandardCropConfig
    momentum: float = 0.9
    weight_decay: float = 5e-4
    seed: int = 0
    hidden_sizes: tuple[int, ...] = (256,)
    sigma_decay: SigmaDecay = SigmaDecay()

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 < self.lr0 < math.inf:
            raise ValueError(f"lr0 must be finite and > 0, got {self.lr0}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        self.hidden_sizes = tuple(int(h) for h in self.hidden_sizes)
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError(f"hidden sizes must be >= 1, got {self.hidden_sizes}")
        if self.sigma_decay.final_epochs > 0 and not isinstance(self.sampler, GaussianCropConfig):
            raise ValueError("sigma decay needs a gaussian sampler, got "
                             f"{type(self.sampler).__name__}")


@dataclass(frozen=True)
class EpochStats:
    """One training epoch: mean loss and top-1 error on the augmented
    training stream, plus the schedule values used."""

    epoch: int
    mean_loss: float
    top1_error: float
    lr: float
    sigma: float


def effective_sigma(epoch: int, cfg: TrainConfig) -> float:
    """Crop sigma in force at ``epoch``: the sampler's sigma, divided by
    the decay factor inside the final window. 0 for non-Gaussian samplers."""
    if not isinstance(cfg.sampler, GaussianCropConfig):
        return 0.0
    if epoch >= cfg.epochs - cfg.sigma_decay.final_epochs:
        return cfg.sampler.sigma / cfg.sigma_decay.factor
    return cfg.sampler.sigma


def _augment(image: np.ndarray, sampler: GaussianCropConfig | UniformCropConfig,
             rng: RandomSource) -> tuple[np.ndarray, float]:
    """Flip-then-crop one (C, H, W) image; returns (image, visibility)."""
    _, h, w = image.shape
    image = hflip(image, rng)
    if isinstance(sampler, GaussianCropConfig):
        tx, ty = draw_gaussian_window(sampler, rng)
    else:
        tx, ty = draw_uniform_window(sampler, rng)
    cropped = pad_and_crop(image, CropWindow(tx, ty, w, h))
    return cropped, visibility(tx, ty, w, h)


def check_trainable(dataset: LabeledDataset, cfg: TrainConfig) -> None:
    """Raise ValueError unless :func:`train` can run ``cfg`` on ``dataset``:
    a non-empty set of square images, a same-size crop sampler that fits
    their edge, and soft targets no lower than chance 1/num_classes."""
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    _, _, h, w = dataset.images.shape
    if h != w:
        raise ValueError(f"same-size crop training expects square images, got {h}x{w}")
    if not isinstance(cfg.sampler, (GaussianCropConfig, UniformCropConfig)):
        raise ValueError(
            "resize-crop sampling needs sub-pixel resampling, which this "
            "integer-geometry trainer does not do; use gaussian or uniform"
        )
    if isinstance(cfg.sampler, GaussianCropConfig) and cfg.sampler.length != h:
        raise ValueError(f"sampler length {cfg.sampler.length} != image edge {h}")
    if isinstance(cfg.sampler, UniformCropConfig) and cfg.sampler.range_r > h:
        raise ValueError(f"offset range {cfg.sampler.range_r} exceeds image edge {h}")
    # the target modes need p >= 1/N; the lowest p either rule gives is at v = 0
    mode, lowest = cfg.policy.mode, soften(0.0, cfg.policy)
    if mode in ("target", "target_and_weight") and lowest < 1.0 / dataset.num_classes:
        raise ValueError(f"mode {mode} needs every confidence >= chance 1/{dataset.num_classes}, "
                         f"but the policy gives {lowest:g} at v = 0")


def _all_finite(grad: np.ndarray) -> bool:
    """True when no entry is NaN or infinite. One dot product decides
    almost always: a NaN or an infinity makes it non-finite. Only when
    it overflows on finite entries does the full element test run."""
    flat = grad.reshape(-1)
    with np.errstate(over="ignore"):
        square_sum = np.dot(flat, flat)
    return math.isfinite(square_sum) or bool(np.isfinite(flat).all())


def _sgd_step(param: np.ndarray, velocity: np.ndarray, grad: np.ndarray,
              lr: float, momentum: float, weight_decay: float) -> None:
    """``velocity = momentum*velocity + grad``, ``param *= 1 - lr*weight_decay``
    (skipped when weight_decay is 0), ``param -= lr*velocity``, all in place.

    Every element gets the same rounded operations in the same order as
    that formula, so the result is bit-identical to it. The rows are
    walked in blocks of about ``_STEP_BLOCK_BYTES`` so that one block of
    the three arrays stays in cache across the five passes; ``grad`` is
    spent as the buffer for ``lr*velocity``.
    """
    rows = max(1, _STEP_BLOCK_BYTES // param[0].nbytes) if param.ndim > 1 else len(param)
    decay = 1.0 - lr * weight_decay
    for start in range(0, len(param), rows):
        p = param[start : start + rows]
        v = velocity[start : start + rows]
        g = grad[start : start + rows]
        np.multiply(v, momentum, out=v)
        v += g
        if weight_decay:
            p *= decay
        np.multiply(v, lr, out=g)
        p -= g


def train(dataset: LabeledDataset, cfg: TrainConfig) -> tuple[MlpClassifier, list[EpochStats]]:
    """SGD with momentum, decoupled weight decay, and cosine lr.

    Each sample is flipped with probability 1/2, translated by the
    configured crop sampler over zero padding, and its target softened
    by the visibility of the crop under cfg.policy. With epochs == 0
    the initialized model is returned untouched. Fixed seed implies a
    bit-identical model and log.

    Every batch first checks the loss and all gradients and raises
    :class:`NonFiniteLossError` before any update if one is not
    finite. The step then runs in place, row block by row block (see
    :func:`_sgd_step`), and is bit-identical to the reference formula
    ``v = momentum*v + g; w *= 1 - lr*weight_decay; w -= lr*v``; biases
    take the same step without the decay.
    """
    check_trainable(dataset, cfg)
    n, c, h, w = dataset.images.shape
    layer_sizes = (c * h * w, *cfg.hidden_sizes, dataset.num_classes)
    root = RandomSource(cfg.seed)
    model = init_mlp(layer_sizes, root.split(0))
    velocity_w = [np.zeros_like(wt) for wt in model.weights]
    velocity_b = [np.zeros_like(bs) for bs in model.biases]
    mode = cfg.policy.mode

    stats: list[EpochStats] = []
    for epoch in range(cfg.epochs):
        lr = cosine_lr(epoch, cfg.epochs, cfg.lr0)
        sigma = effective_sigma(epoch, cfg)
        sampler = cfg.sampler
        if isinstance(sampler, GaussianCropConfig):
            sampler = replace(sampler, sigma=sigma)
        # one stream per epoch, consumed in a fixed order: permutation
        # first, then flip and crop draws sample by sample
        ep_rng = root.split(epoch + 1)
        order = ep_rng.generator.permutation(n)
        loss_sum = 0.0
        wrong = 0
        for batch_index, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            batch = np.empty((idx.size, c * h * w))
            ps = np.empty(idx.size)
            for row, i in enumerate(idx):
                image, vis = _augment(dataset.images[i], sampler, ep_rng)
                batch[row] = image.reshape(-1)
                ps[row] = 1.0 if mode == "hard" else soften(vis, cfg.policy)
            labels = dataset.labels[idx]
            # a blow-up surfaces as NonFiniteLossError below, not as numpy warnings
            with np.errstate(over="ignore", invalid="ignore"):
                loss, grad_w, grad_b, logits = _backward_batch(model, batch, labels, ps, mode)
            if not (math.isfinite(loss) and all(map(_all_finite, grad_w + grad_b))):
                raise NonFiniteLossError(epoch, batch_index, lr)
            wrong += int((logits.argmax(axis=1) != labels).sum())
            loss_sum += loss * idx.size
            for layer in range(model.num_layers):
                _sgd_step(model.weights[layer], velocity_w[layer], grad_w[layer],
                          lr, cfg.momentum, cfg.weight_decay)
                _sgd_step(model.biases[layer], velocity_b[layer], grad_b[layer],
                          lr, cfg.momentum, 0.0)
        stats.append(EpochStats(epoch, loss_sum / n, wrong / n, lr, sigma))
    return model, stats


def save_checkpoint(model: MlpClassifier, path: str) -> None:
    """Write magic, version, layer sizes, then per layer the row-major
    weight matrix and bias vector as little-endian float64."""
    header = struct.pack("<8sII", _CHECKPOINT_MAGIC, 1, len(model.layer_sizes))
    header += struct.pack(f"<{len(model.layer_sizes)}I", *model.layer_sizes)
    with open(path, "wb") as fh:
        fh.write(header)
        for w, b in zip(model.weights, model.biases):
            fh.write(w.astype("<f8").tobytes(order="C"))
            fh.write(b.astype("<f8").tobytes())


def load_checkpoint(path: str) -> MlpClassifier:
    """Read a checkpoint written by :func:`save_checkpoint`."""
    with open(path, "rb") as fh:
        data = fh.read()
    fixed = struct.calcsize("<8sII")
    if len(data) < fixed:
        raise CheckpointError(f"checkpoint too short: {len(data)} bytes")
    magic, version, n_sizes = struct.unpack("<8sII", data[:fixed])
    if magic != _CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic {magic!r}")
    if version != 1:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    if n_sizes < 2:
        raise CheckpointError(f"need >= 2 layer sizes, got {n_sizes}")
    offset = fixed + 4 * n_sizes
    if len(data) < offset:
        raise CheckpointError("checkpoint truncated in the size table")
    sizes = struct.unpack(f"<{n_sizes}I", data[fixed:offset])
    if any(s < 1 for s in sizes):
        raise CheckpointError(f"layer sizes must be positive, got {sizes}")
    expected = offset + 8 * sum(
        sizes[i + 1] * sizes[i] + sizes[i + 1] for i in range(n_sizes - 1)
    )
    if len(data) != expected:
        raise CheckpointError(f"checkpoint length {len(data)} != expected {expected}")
    weights, biases = [], []
    for i in range(n_sizes - 1):
        fan_out, fan_in = sizes[i + 1], sizes[i]
        w = np.frombuffer(data, dtype="<f8", count=fan_out * fan_in, offset=offset)
        offset += 8 * fan_out * fan_in
        b = np.frombuffer(data, dtype="<f8", count=fan_out, offset=offset)
        offset += 8 * fan_out
        weights.append(w.reshape(fan_out, fan_in).copy())
        biases.append(b.copy())
    return MlpClassifier(tuple(sizes), weights, biases)
