"""Minimal MLP classifier with hand-written backprop and an SGD trainer.

The network is fully connected with ReLU hidden layers and identity
output; forward, backward, and the optimizer are plain numpy so every
gradient can be checked against finite differences. The trainer draws
each epoch's order, flips and windows as arrays from split streams of
one root RandomSource (bit-reproducible for a fixed seed) and crops a
batch in one call of the shift rule of ``pad_and_crop``. Backprop reads
its ReLU masks off the activations and returns one gradient list,
weights then biases, which SGD steps with one velocity per array.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .geometry import _covered_fraction, _shifted
from .loss import _MODE_TABLE, loss_and_grad
from .sampling import (
    GaussianCropConfig,
    RandomSource,
    ResizeCropConfig,
    StandardCropConfig,
    UniformCropConfig,
    _SAME_SIZE,
    _windows,
)
from .softening import SofteningPolicy, soften
from .data import LabeledDataset

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
    """Returns (logits (B, N), activations) for backprop.

    ``activations[l]`` is the input to layer l: ``x`` for layer 0, the
    ReLU output of layer l - 1 after it (the last layer applies none).
    """
    activations = [x]
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        x = np.maximum(x @ w.T + b, 0.0)
        activations.append(x)
    return x @ model.weights[-1].T + model.biases[-1], activations


def _backward_batch(model: MlpClassifier, x: np.ndarray, true_classes: np.ndarray,
                    ps: np.ndarray, mode: str):
    """Mean loss over the batch plus gradients for every parameter.

    Returns (loss, grads, logits), grads ordered as model.weights +
    model.biases. The logit gradient comes from :func:`loss_and_grad`;
    all deeper gradients follow by the chain rule through ReLU masks,
    read off the activations: a ReLU output is > 0 exactly where its input is.
    """
    logits, activations = _forward_batch(model, x)
    loss, delta = loss_and_grad(logits, true_classes, ps, mode)
    grads = [np.empty(0)] * (2 * model.num_layers)
    for layer in range(model.num_layers - 1, -1, -1):
        grads[layer] = delta.T @ activations[layer]
        grads[model.num_layers + layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ model.weights[layer]) * (activations[layer] > 0)
    return loss, grads, logits


def cosine_lr(epoch: int, total_epochs: int, lr0: float) -> float:
    """Half-cosine decay from lr0 at epoch 0 toward 0 at epoch == total."""
    if total_epochs < 1:
        raise ValueError(f"total_epochs must be >= 1, got {total_epochs}")
    if not 0 <= epoch <= total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {total_epochs}]")
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * epoch / total_epochs))


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
    # shrink the gaussian crop sigma by the factor for the final epochs (none by default)
    sigma_decay_final_epochs: int = 0
    sigma_decay_factor: float = 1000.0

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
        if self.sigma_decay_final_epochs < 0:
            raise ValueError("sigma decay final_epochs must be >= 0, "
                             f"got {self.sigma_decay_final_epochs}")
        if not 1.0 <= self.sigma_decay_factor < math.inf:
            raise ValueError("sigma decay factor must be finite and >= 1, "
                             f"got {self.sigma_decay_factor}")
        if self.sigma_decay_final_epochs > 0 and not isinstance(self.sampler, GaussianCropConfig):
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
    if epoch >= cfg.epochs - cfg.sigma_decay_final_epochs:
        return cfg.sampler.sigma / cfg.sigma_decay_factor
    return cfg.sampler.sigma


def check_trainable(cfg: TrainConfig, num_classes: int, edge: int) -> None:
    """Raise ValueError unless :func:`train` can run ``cfg`` on square
    ``edge``-px images of ``num_classes`` classes: a same-size crop
    sampler that fits the edge, and soft targets no lower than chance."""
    if not isinstance(cfg.sampler, _SAME_SIZE):
        raise ValueError(
            "resize-crop sampling needs sub-pixel resampling, which this "
            "integer-geometry trainer does not do; use gaussian or uniform"
        )
    if isinstance(cfg.sampler, GaussianCropConfig) and cfg.sampler.length != edge:
        raise ValueError(f"sampler length {cfg.sampler.length} != image edge {edge}")
    if isinstance(cfg.sampler, UniformCropConfig) and cfg.sampler.range_r > edge:
        raise ValueError(f"offset range {cfg.sampler.range_r} exceeds image edge {edge}")
    # soft targets need p >= 1/N; the lowest p either rule gives is at v = 0
    mode, lowest = cfg.policy.mode, soften(0.0, cfg.policy)
    if _MODE_TABLE[mode][0] and lowest < 1.0 / num_classes:
        raise ValueError(f"mode {mode} needs every confidence >= chance 1/{num_classes}, "
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

    ``root.split(0)`` initializes the model. Epoch e draws from
    ``root.split(e + 1)``: ``permutation(n)``, then ``random(n) < 0.5``
    flags the flipped samples of that order, then ``sampling._windows``
    gives their crops, each batch in one unchecked call of the rule of
    :func:`pad_and_crop` on its flipped views and window offsets.

    Every batch first checks the loss and all gradients and raises
    :class:`NonFiniteLossError` before any update if one is not
    finite. The step then runs in place, row block by row block (see
    :func:`_sgd_step`), and is bit-identical to the reference formula
    ``v = momentum*v + g; w *= 1 - lr*weight_decay; w -= lr*v`` for every
    weight and bias array in one loop, with a decay of 0 for the biases.
    """
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    n, c, h, w = dataset.images.shape
    if h != w:
        raise ValueError(f"same-size crop training expects square images, got {h}x{w}")
    check_trainable(cfg, dataset.num_classes, h)
    layer_sizes = (c * h * w, *cfg.hidden_sizes, dataset.num_classes)
    root = RandomSource(cfg.seed)
    model = init_mlp(layer_sizes, root.split(0))
    params = model.weights + model.biases
    velocity = [np.zeros_like(param) for param in params]
    decays = [cfg.weight_decay] * model.num_layers + [0.0] * model.num_layers
    mode = cfg.policy.mode
    uses_p = any(_MODE_TABLE[mode])

    stats: list[EpochStats] = []
    for epoch in range(cfg.epochs):
        lr = cosine_lr(epoch, cfg.epochs, cfg.lr0)
        sigma = effective_sigma(epoch, cfg)
        sampler = cfg.sampler
        if isinstance(sampler, GaussianCropConfig):
            sampler = replace(sampler, sigma=sigma)
        generator = root.split(epoch + 1).generator
        order = generator.permutation(n)
        views = [dataset.images[i][:, :, ::-1] if flip else dataset.images[i]
                 for i, flip in zip(order, (generator.random(n) < 0.5).tolist())]
        windows = _windows(sampler, n, h, generator)
        vis = _covered_fraction(*windows.T, w, h).tolist()
        epoch_ps = np.array([soften(v, cfg.policy) if uses_p else 1.0 for v in vis])
        loss_sum = 0.0
        wrong = 0
        for batch_index, start in enumerate(range(0, n, cfg.batch_size)):
            part = slice(start, start + cfg.batch_size)
            batch = _shifted(views[part], windows[part, :2].tolist(), float).reshape(-1, c * h * w)
            ps = epoch_ps[part]
            labels = dataset.labels[order[part]]
            # a blow-up surfaces as NonFiniteLossError below, not as numpy warnings
            with np.errstate(over="ignore", invalid="ignore"):
                loss, grads, logits = _backward_batch(model, batch, labels, ps, mode)
            if not (math.isfinite(loss) and all(map(_all_finite, grads))):
                raise NonFiniteLossError(epoch, batch_index, lr)
            wrong += int((logits.argmax(axis=1) != labels).sum())
            loss_sum += loss * labels.size
            for param, vel, grad, decay in zip(params, velocity, grads, decays):
                _sgd_step(param, vel, grad, lr, cfg.momentum, decay)
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
    """Read a checkpoint written by :func:`save_checkpoint`; NaN or inf is an error."""
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
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise CheckpointError(f"layer {i} has a non-finite weight or bias")
        weights.append(w.reshape(fan_out, fan_in).copy())
        biases.append(b.copy())
    return MlpClassifier(tuple(sizes), weights, biases)
