"""Minimal MLP classifier with hand-written backprop and an SGD trainer.

The network is fully connected with ReLU hidden layers and identity
output; forward, backward, and the optimizer are plain numpy so every
gradient can be checked against finite differences. The trainer draws
each epoch's order, flips and windows as arrays from split streams of
one root RandomSource (bit-reproducible for a fixed seed on one BLAS
kernel) and crops a batch in one call of the shift rule of
``pad_and_crop``. Backprop reads its ReLU masks off the activations and
writes one gradient list, weights then biases, into views of one flat
float32 buffer; SGD steps it in two spans beside one flat velocity buffer.
Each weight there is input-major, so sgemm packs the B operand of the
forward ``x @ w.T`` without a transpose (see ``_unflatten``).

One dtype rule: ``init_mlp`` draws in float64, and ``train`` rounds
that model once to float32, then keeps its batches, weights, biases,
gradients and velocities in float32; only the loss is float64. The
model it returns, the checkpoint and evaluation are float64.

One thread rule: ``train`` runs OpenBLAS on exactly 1 thread for the
call, whatever the environment says; the package starts it on 1 (see
``softaug``). The count is process-wide: no other thread may run BLAS then.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import struct
from dataclasses import dataclass, replace
from pathlib import Path

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
# Bytes of one row block of the in-place SGD step (32 rows of a
# 3072-wide float32 weight). On a Xeon with 2 MB of L2 per core,
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


def _flatten(model: MlpClassifier, dtype) -> np.ndarray:
    """One flat ``dtype`` buffer of the model's weights, each input-major,
    then its biases: the inverse of :func:`_unflatten`."""
    return np.concatenate([w.T.ravel() for w in model.weights] + model.biases, dtype=dtype)


def _split(flat: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive C-order views of the 1-D ``flat``, one per shape, in order;
    their sizes must add up to ``flat.size``."""
    ends = np.cumsum([math.prod(shape) for shape in shapes])[:-1]
    return [part.reshape(shape) for part, shape in zip(np.split(flat, ends), shapes)]


def _unflatten(flat: np.ndarray, layer_sizes: tuple[int, ...]) -> MlpClassifier:
    """The model whose weights, then biases, are consecutive views of ``flat``.
    Each weight is input-major: an (in, out) C-order block seen through its
    ``.T``, so sgemm packs the B of ``x @ w.T`` without a transpose."""
    arrays = _split(flat, [*zip(layer_sizes, layer_sizes[1:]), *((s,) for s in layer_sizes[1:])])
    return MlpClassifier(layer_sizes, [a.T for a in arrays[: len(arrays) // 2]],
                         arrays[len(arrays) // 2 :])


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
                    ps: np.ndarray, mode: str, grads: list[np.ndarray]):
    """Mean loss over the batch plus gradients for every parameter.

    Returns (loss, logits) and writes the gradients into ``grads``, arrays
    shaped and ordered as model.weights + model.biases. The logit
    gradient comes from :func:`loss_and_grad` (float64, like the loss)
    and is cast to the dtype of ``x``; all deeper gradients follow by the
    chain rule through ReLU masks, read off the activations: a ReLU
    output is > 0 exactly where its input is.
    """
    logits, activations = _forward_batch(model, x)
    loss, delta = loss_and_grad(logits, true_classes, ps, mode)
    delta = delta.astype(x.dtype, copy=False)
    for layer in range(model.num_layers - 1, -1, -1):
        np.matmul(delta.T, activations[layer], out=grads[layer])
        delta.sum(axis=0, out=grads[model.num_layers + layer])
        if layer > 0:
            delta = (delta @ model.weights[layer]) * (activations[layer] > 0)
    return loss, logits


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
    training stream, plus the schedule values used. ``top1_error`` takes
    the argmax of the float32 training logits, not ``evaluate``'s argmax
    of the probabilities, so near-ties can resolve differently."""

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
    (skipped when weight_decay is 0), ``param -= lr*velocity``, in place.

    Every element gets the same rounded operations in the same order as
    that formula, so the result is bit-identical to it. The C-contiguous
    arrays are walked flat, in blocks of ``_STEP_BLOCK_BYTES`` so that one
    block of the three stays in cache across the five passes; ``grad`` is
    spent as the buffer for ``lr*velocity``.
    """
    block = _STEP_BLOCK_BYTES // param.itemsize
    decay = 1.0 - lr * weight_decay
    param, velocity, grad = (a.reshape(-1) for a in (param, velocity, grad))
    for start in range(0, param.size, block):
        p, v, g = (a[start : start + block] for a in (param, velocity, grad))
        np.multiply(v, momentum, out=v)
        v += g
        if weight_decay:
            p *= decay
        np.multiply(v, lr, out=g)
        p -= g


def _openblas():
    """numpy's bundled OpenBLAS as a ctypes library, or None where numpy bundles none."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    found = sorted(libs.glob("libscipy_openblas64_*.so"))
    return ctypes.CDLL(str(found[0])) if found else None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on exactly one OpenBLAS thread and restore the count
    after, also on an error; do nothing where no setter is found."""
    lib = _openblas()
    put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if put is None:
        yield
        return
    before = lib.scipy_openblas_get_num_threads64_()
    put(1)
    try:
        yield
    finally:
        put(before)


def train(dataset: LabeledDataset, cfg: TrainConfig) -> tuple[MlpClassifier, list[EpochStats]]:
    """SGD with momentum, decoupled weight decay, and cosine lr.

    Each sample is flipped with probability 1/2, translated by the
    configured crop sampler over zero padding, and its target softened
    by the visibility of the crop under cfg.policy. With epochs == 0
    the initialized model is returned untouched. Fixed seed implies a
    bit-identical model and log on one BLAS kernel.

    The float64 model of :func:`init_mlp` is rounded once into one flat
    float32 buffer, weights then biases, that the working arrays view;
    batches, gradients and velocities are float32 too, and only the
    loss is float64. The model returned is a C-contiguous float64 copy.
    The images are cast to float32 once, a copy of n*C*H*W*4 bytes.

    ``root.split(0)`` initializes the model. Epoch e draws from
    ``root.split(e + 1)``: ``permutation(n)``, then ``random(n) < 0.5``
    flags the flipped samples of that order, then ``sampling._windows``
    gives their crops, each batch in one unchecked call of the rule of
    :func:`pad_and_crop` on its flipped views and window offsets.

    OpenBLAS runs on exactly 1 thread for the call, whatever the
    environment says, and its count is restored after. The count is
    process-wide: no other thread may run BLAS during the call.

    Every batch checks the loss and the flat gradient and raises
    :class:`NonFiniteLossError` before any update if one is not finite,
    as an overflow of a float32 cast (a huge pixel or lr) is, with no
    numpy warning. The step runs in place on the weight span with decay
    and the bias span without, bit-identical to
    ``v = momentum*v + g; w *= 1 - lr*weight_decay; w -= lr*v``.
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
    if cfg.epochs == 0:
        return model, []
    flat = _flatten(model, np.float32)
    velocity, gradient = np.zeros_like(flat), np.empty_like(flat)
    work, spent = _unflatten(flat, layer_sizes), _unflatten(gradient, layer_sizes)
    grads = spent.weights + spent.biases
    biases = sum(weight.size for weight in model.weights)
    spans = [(slice(0, biases), cfg.weight_decay), (slice(biases, None), 0.0)]
    mode = cfg.policy.mode
    uses_p = any(_MODE_TABLE[mode])

    stats: list[EpochStats] = []
    # a blow-up surfaces as NonFiniteLossError, not as numpy warnings
    with _one_blas_thread(), np.errstate(over="ignore", invalid="ignore"):
        images = dataset.images.astype(np.float32)
        for epoch in range(cfg.epochs):
            lr = cosine_lr(epoch, cfg.epochs, cfg.lr0)
            sigma = effective_sigma(epoch, cfg)
            sampler = cfg.sampler
            if isinstance(sampler, GaussianCropConfig):
                sampler = replace(sampler, sigma=sigma)
            generator = root.split(epoch + 1).generator
            order = generator.permutation(n)
            views = [images[i][:, :, ::-1] if flip else images[i]
                     for i, flip in zip(order, (generator.random(n) < 0.5).tolist())]
            windows = _windows(sampler, n, h, generator)
            vis = _covered_fraction(*windows.T, w, h).tolist()
            epoch_ps = np.array([soften(v, cfg.policy) if uses_p else 1.0 for v in vis])
            loss_sum = 0.0
            wrong = 0
            parts = [slice(start, start + cfg.batch_size) for start in range(0, n, cfg.batch_size)]
            crops = (_shifted(views[p], windows[p, :2].tolist()) for p in parts)
            for batch_index, (part, batch) in enumerate(zip(parts, crops)):
                labels = dataset.labels[order[part]]
                loss, logits = _backward_batch(work, batch.reshape(-1, c * h * w), labels,
                                               epoch_ps[part], mode, grads)
                if not (math.isfinite(loss) and _all_finite(gradient)):
                    raise NonFiniteLossError(epoch, batch_index, lr)
                for span, decay in spans:
                    _sgd_step(flat[span], velocity[span], gradient[span], lr, cfg.momentum, decay)
                wrong += int((logits.argmax(axis=1) != labels).sum())
                loss_sum += loss * labels.size
            stats.append(EpochStats(epoch, loss_sum / n, wrong / n, lr, sigma))
    weights = [np.array(w, np.float64, order="C") for w in work.weights]
    return MlpClassifier(layer_sizes, weights, [b.astype(np.float64) for b in work.biases]), stats


def save_checkpoint(model: MlpClassifier, path: str) -> None:
    """Write magic, version, layer sizes, then per layer the row-major weight
    matrix and bias vector, as one little-endian float64 payload."""
    sizes = model.layer_sizes
    params = [a.reshape(-1) for pair in zip(model.weights, model.biases) for a in pair]
    with open(path, "wb") as fh:
        fh.write(struct.pack(f"<8sII{len(sizes)}I", _CHECKPOINT_MAGIC, 1, len(sizes), *sizes))
        fh.write(np.concatenate(params, dtype="<f8"))


def load_checkpoint(path: str) -> MlpClassifier:
    """Read a checkpoint written by :func:`save_checkpoint`; NaN or inf is an error.
    The parameters are C-contiguous views (``_split``) of one float64 copy of the payload."""
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
    shapes = [shape for fan_in, fan_out in zip(sizes, sizes[1:])
              for shape in ((fan_out, fan_in), (fan_out,))]
    expected = offset + 8 * sum(math.prod(shape) for shape in shapes)
    if len(data) != expected:
        raise CheckpointError(f"checkpoint length {len(data)} != expected {expected}")
    arrays = _split(np.frombuffer(data, "<f8", offset=offset).astype(np.float64), shapes)
    for index, array in enumerate(arrays):
        if not np.isfinite(array).all():
            raise CheckpointError(f"layer {index // 2} has a non-finite weight or bias")
    return MlpClassifier(sizes, arrays[::2], arrays[1::2])
