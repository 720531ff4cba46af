"""Minimal CPU neural-network engine: stacked conv/pool/dense layers with
ReLU nonlinearities and a softmax output, trained by seeded mini-batch SGD
with momentum on mean cross-entropy.

Snapshots are immutable in spirit: every transformation (training, pruning,
output extension) returns a new ModelSnapshot and leaves its input intact.
Weights live as float32 so the on-disk format round-trips bit-exactly.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import astuple, dataclass, fields
from math import floor, prod, sqrt
from pathlib import Path

import numpy as np

from .errors import (
    CorruptionError,
    DivergenceError,
    FormatError,
    InconsistencyError,
    InvalidInputError,
    TruncationError,
    UnsupportedArchitectureError,
)

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

MODEL_MAGIC = b"TNN1"
MODEL_VERSION = 1

_EVAL_BATCH = 256  # rows per forward pass in evaluate


# --------------------------------------------------------------------------
# Layer descriptors and snapshots
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Conv2d:
    out_channels: int
    kernel_size: int
    stride: int = 1


@dataclass(frozen=True)
class MaxPool2d:
    window: int


@dataclass(frozen=True)
class Relu:
    pass


@dataclass(frozen=True)
class Dense:
    out_dim: int


@dataclass(frozen=True)
class SoftmaxOutput:
    pass


LayerSpec = Conv2d | MaxPool2d | Relu | Dense | SoftmaxOutput


def _chain_shapes(input_shape: tuple[int, ...], layers: tuple[LayerSpec, ...]) -> list[tuple[int, ...]]:
    """Shape after each layer; raises if the stack does not chain or any
    shape has a dimension below 1 (TNN1 holds no empty tensor)."""
    shape = tuple(input_shape)
    if any(d < 1 for d in shape):
        raise InvalidInputError(f"input shape {shape} has a dimension below 1")
    out = []
    for i, layer in enumerate(layers):
        if isinstance(layer, Conv2d):
            if len(shape) != 3:
                raise InvalidInputError(f"layer {i}: conv2d needs (C, H, W) input, got {shape}")
            c, h, w = shape
            k, s = layer.kernel_size, layer.stride
            if k < 1 or s < 1 or layer.out_channels < 1:
                raise InvalidInputError(
                    f"layer {i}: {layer.out_channels} channels, kernel {k} or stride {s} below 1"
                )
            if h < k or w < k:
                raise InvalidInputError(f"layer {i}: kernel {k} exceeds input {h}x{w}")
            shape = (layer.out_channels, (h - k) // s + 1, (w - k) // s + 1)
        elif isinstance(layer, MaxPool2d):
            if len(shape) != 3:
                raise InvalidInputError(f"layer {i}: max-pool needs (C, H, W) input, got {shape}")
            c, h, w = shape
            if layer.window < 1:
                raise InvalidInputError(f"layer {i}: window {layer.window} must be >= 1")
            if h < layer.window or w < layer.window:
                raise InvalidInputError(f"layer {i}: window {layer.window} exceeds input {h}x{w}")
            shape = (c, h // layer.window, w // layer.window)
        elif isinstance(layer, Dense):
            if layer.out_dim < 1:
                raise InvalidInputError(f"layer {i}: width {layer.out_dim} below 1")
            shape = (layer.out_dim,)
        elif isinstance(layer, (Relu, SoftmaxOutput)):
            pass
        else:
            raise InvalidInputError(f"layer {i}: unknown layer {layer!r}")
        out.append(shape)
    return out


def _weight_shapes(
    input_shape: tuple[int, ...], layers: tuple[LayerSpec, ...]
) -> list[tuple[int, ...] | None]:
    """Weight shape of each layer, None for parameterless ones. A layer's
    bias holds one value per output unit: shape (weight_shape[0],)."""
    in_shapes = [tuple(input_shape)] + _chain_shapes(input_shape, layers)
    out: list[tuple[int, ...] | None] = []
    for layer, shape in zip(layers, in_shapes):
        if isinstance(layer, Conv2d):
            out.append((layer.out_channels, shape[0], layer.kernel_size, layer.kernel_size))
        elif isinstance(layer, Dense):
            out.append((layer.out_dim, prod(shape)))
        else:
            out.append(None)
    return out


@dataclass
class ModelSnapshot:
    """A layer stack plus its parameters.

    weights[i]/biases[i] are None for parameterless layers. All parameter
    tensors are float32.
    """

    input_shape: tuple[int, ...]
    layers: tuple[LayerSpec, ...]
    weights: list[np.ndarray | None]
    biases: list[np.ndarray | None]
    num_classes: int

    def __post_init__(self):
        self.input_shape = tuple(self.input_shape)
        self.layers = tuple(self.layers)
        shapes = _chain_shapes(self.input_shape, self.layers)
        if shapes and int(np.prod(shapes[-1])) != self.num_classes:
            raise InvalidInputError(
                f"stack ends at shape {shapes[-1]}, expected {self.num_classes} outputs"
            )
        if len(self.weights) != len(self.layers) or len(self.biases) != len(self.layers):
            raise InvalidInputError("weights/biases must align with layers")
        for i, shape in enumerate(_weight_shapes(self.input_shape, self.layers)):
            w, b = self.weights[i], self.biases[i]
            want = (None, None) if shape is None else (shape, shape[:1])
            got = tuple(None if arr is None else arr.shape for arr in (w, b))
            if got != want:
                raise InvalidInputError(f"layer {i}: parameter shapes {got}, expected {want}")
            for arr in (w, b):
                if arr is not None and not np.all(np.isfinite(arr)):
                    raise InvalidInputError(f"layer {i}: non-finite parameters")

    def copy(self) -> "ModelSnapshot":
        return ModelSnapshot(
            input_shape=self.input_shape,
            layers=self.layers,
            weights=[None if w is None else w.copy() for w in self.weights],
            biases=[None if b is None else b.copy() for b in self.biases],
            num_classes=self.num_classes,
        )

    def parameter_count(self) -> int:
        return sum(w.size for w in self.weights if w is not None) + sum(
            b.size for b in self.biases if b is not None
        )


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 32
    learning_rate: float = 0.01
    momentum: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise InvalidInputError("epochs must be >= 1")
        if self.batch_size < 1:
            raise InvalidInputError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise InvalidInputError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise InvalidInputError("momentum must be in [0, 1)")


@dataclass
class LabeledDataset:
    inputs: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels)
        if len(self.inputs) != len(self.labels):
            raise InconsistencyError(
                f"{len(self.inputs)} inputs vs {len(self.labels)} labels"
            )
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise InvalidInputError(
                f"labels outside [0, {self.num_classes})"
            )

    def __len__(self) -> int:
        return len(self.labels)

    def subset(self, indices, num_classes: int | None = None) -> "LabeledDataset":
        idx = np.asarray(indices)
        return LabeledDataset(
            inputs=self.inputs[idx],
            labels=self.labels[idx],
            num_classes=self.num_classes if num_classes is None else num_classes,
        )


def desk_cnn_layers(num_classes: int) -> tuple[LayerSpec, ...]:
    """The reference desk-scale CNN stack for 28x28 single-channel inputs."""
    return (
        Conv2d(8, 5),
        Relu(),
        MaxPool2d(2),
        Conv2d(16, 5),
        Relu(),
        MaxPool2d(2),
        Dense(64),
        Relu(),
        Dense(num_classes),
        SoftmaxOutput(),
    )


def init_model(
    input_shape: tuple[int, ...],
    layers: tuple[LayerSpec, ...],
    num_classes: int,
    seed: int = 0,
) -> ModelSnapshot:
    """Glorot-uniform initialization (seeded); biases start at zero."""
    rng = np.random.default_rng(seed)
    weights: list[np.ndarray | None] = []
    biases: list[np.ndarray | None] = []
    for shape in _weight_shapes(tuple(input_shape), tuple(layers)):
        if shape is None:
            weights.append(None)
            biases.append(None)
            continue
        # (out, in, k, k) for conv, (out, in) for dense: fans count the kernel area
        fan_in, fan_out = prod(shape[1:]), shape[0] * prod(shape[2:])
        limit = sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, shape).astype(np.float32))
        biases.append(np.zeros(shape[0], dtype=np.float32))
    return ModelSnapshot(
        input_shape=tuple(input_shape),
        layers=tuple(layers),
        weights=weights,
        biases=biases,
        num_classes=num_classes,
    )


# --------------------------------------------------------------------------
# Forward / backward
# --------------------------------------------------------------------------

def _im2col(x: np.ndarray, k: int, stride: int) -> tuple[np.ndarray, int, int]:
    n, c, h, w = x.shape
    out_h = (h - k) // stride + 1
    out_w = (w - k) // stride + 1
    s0, s1, s2, s3 = x.strides
    view = np.lib.stride_tricks.as_strided(
        x,
        (n, c, out_h, out_w, k, k),
        (s0, s1, s2 * stride, s3 * stride, s2, s3),
        writeable=False,
    )
    cols = view.transpose(0, 2, 3, 1, 4, 5).reshape(n, out_h * out_w, c * k * k)
    return np.ascontiguousarray(cols), out_h, out_w


def _col2im(dcols: np.ndarray, x_shape: tuple, k: int, stride: int) -> np.ndarray:
    n, c, h, w = x_shape
    out_h = (h - k) // stride + 1
    out_w = (w - k) // stride + 1
    dx = np.zeros(x_shape, dtype=dcols.dtype)
    d6 = dcols.reshape(n, out_h, out_w, c, k, k).transpose(0, 3, 1, 2, 4, 5)
    for i in range(k):
        for j in range(k):
            dx[:, :, i : i + out_h * stride : stride, j : j + out_w * stride : stride] += d6[:, :, :, :, i, j]
    return dx


def _pool_windows(x: np.ndarray, wnd: int):
    """Strided views of x, one per window position in row-major order: view
    p holds element (p // wnd, p % wnd) of every wnd x wnd pooling window."""
    oh, ow = x.shape[2] // wnd, x.shape[3] // wnd
    for p in range(wnd * wnd):
        di, dj = divmod(p, wnd)
        yield x[:, :, di : oh * wnd : wnd, dj : ow * wnd : wnd]


def _maxpool(x: np.ndarray, wnd: int, keep_index: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Max over each wnd x wnd window, without copying x into blocks.

    With keep_index, also returns the window position of each maximum;
    ties go to the first position, as argmax would.
    """
    windows = _pool_windows(x, wnd)
    pooled = next(windows).copy()
    idx = np.zeros(pooled.shape, dtype=np.min_scalar_type(wnd * wnd - 1)) if keep_index else None
    for p, win in enumerate(windows, start=1):
        if keep_index:
            np.copyto(idx, p, where=win > pooled)
        # On ties np.maximum returns its second operand, so the earlier
        # position keeps its value (this matters for -0.0 against 0.0).
        np.maximum(win, pooled, out=pooled)
    return pooled, idx


def _maxpool_backward(dout: np.ndarray, idx: np.ndarray, in_shape: tuple, wnd: int) -> np.ndarray:
    """Route each output gradient to the input position that held the max."""
    dx = np.zeros(in_shape, dtype=dout.dtype)
    for p, win in enumerate(_pool_windows(dx, wnd)):
        win[...] = np.where(idx == p, dout, 0)
    return dx


def _forward_stack(model: ModelSnapshot, xb: np.ndarray, keep_cache: bool):
    """Run the stack on a batch, returning the last activation, not yet
    flattened to logits, and (optionally) caches."""
    act = xb
    caches: list = []
    for i, layer in enumerate(model.layers):
        if isinstance(layer, Conv2d):
            w, b = model.weights[i], model.biases[i]
            cols, out_h, out_w = _im2col(act, layer.kernel_size, layer.stride)
            wmat = w.reshape(w.shape[0], -1)
            out = cols @ wmat.T + b
            if keep_cache:
                caches.append((act.shape, cols))
            act = out.transpose(0, 2, 1).reshape(act.shape[0], w.shape[0], out_h, out_w)
        elif isinstance(layer, MaxPool2d):
            pooled, idx = _maxpool(act, layer.window, keep_index=keep_cache)
            if keep_cache:
                caches.append((act.shape, idx))
            act = pooled
        elif isinstance(layer, Relu):
            mask = act > 0
            if keep_cache:
                caches.append(mask)
            act = act * mask
        elif isinstance(layer, Dense):
            flat = act.reshape(act.shape[0], -1)
            if keep_cache:
                caches.append((act.shape, flat))
            act = flat @ model.weights[i].T + model.biases[i]
        else:  # SoftmaxOutput: identity here, applied by the caller
            if keep_cache:
                caches.append(None)
    return act, caches


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits.astype(np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy of softmax outputs against integer labels."""
    picked = probs[np.arange(len(labels)), labels]
    return float(-np.mean(np.log(picked + np.finfo(np.float64).tiny)))


def _loss_and_grads(model: ModelSnapshot, xb: np.ndarray, yb: np.ndarray):
    """Mean cross-entropy and parameter gradients for one batch."""
    act, caches = _forward_stack(model, xb, keep_cache=True)
    n = xb.shape[0]
    probs = _softmax(act.reshape(n, -1))
    loss = _cross_entropy(probs, yb)

    dact = probs.astype(act.dtype)
    dact[np.arange(n), yb] -= 1.0
    dact /= n
    dact = dact.reshape(act.shape)

    grad_w: list[np.ndarray | None] = [None] * len(model.layers)
    grad_b: list[np.ndarray | None] = [None] * len(model.layers)
    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        cache = caches[i]
        if isinstance(layer, SoftmaxOutput):
            continue
        if isinstance(layer, Dense):
            in_shape, flat = cache
            grad_w[i] = dact.T @ flat
            grad_b[i] = dact.sum(axis=0)
            dact = (dact @ model.weights[i]).reshape(in_shape)
        elif isinstance(layer, Relu):
            dact = dact * cache
        elif isinstance(layer, MaxPool2d):
            in_shape, idx = cache
            dact = _maxpool_backward(dact, idx, in_shape, layer.window)
        elif isinstance(layer, Conv2d):
            in_shape, cols = cache
            w = model.weights[i]
            wmat = w.reshape(w.shape[0], -1)
            n_ = in_shape[0]
            dmat = dact.reshape(n_, w.shape[0], -1).transpose(0, 2, 1)  # (N, P, out_c)
            grad_w[i] = np.einsum("npo,npk->ok", dmat, cols).reshape(w.shape)
            grad_b[i] = dact.sum(axis=(0, 2, 3))
            dcols = dmat @ wmat
            dact = _col2im(dcols, in_shape, layer.kernel_size, layer.stride)
    return loss, grad_w, grad_b


def _logits(model: ModelSnapshot, x: np.ndarray) -> tuple[np.ndarray, bool]:
    """Logits of a single input or a batch, always as a batch, plus whether
    x was a single input. The input is cast to the parameters' dtype
    (float32 for a stack without parameters)."""
    arr = np.asarray(x)
    single = arr.shape == model.input_shape
    if single:
        arr = arr[None, ...]
    elif arr.shape[1:] != model.input_shape:
        raise InvalidInputError(
            f"input shape {arr.shape} does not match model input {model.input_shape}"
        )
    dtype = np.float64 if any(
        w is not None and w.dtype == np.float64 for w in model.weights
    ) else np.float32
    act, _ = _forward_stack(model, arr.astype(dtype), keep_cache=False)
    return act.reshape(act.shape[0], -1), single


def forward(model: ModelSnapshot, x: np.ndarray) -> np.ndarray:
    """Class probabilities for a single input or a batch."""
    logits, single = _logits(model, x)
    probs = _softmax(logits)
    return probs[0] if single else probs


def predict(model: ModelSnapshot, x: np.ndarray, restrict_classes: int | None = None) -> np.ndarray:
    """Argmax labels; restrict_classes limits the argmax to the first k logits."""
    logits, single = _logits(model, x)
    labels = logits[:, :restrict_classes].argmax(axis=1)
    return labels[0] if single else labels


def evaluate(
    model: ModelSnapshot, data: LabeledDataset, restrict_classes: int | None = None
) -> float:
    """Accuracy over a dataset."""
    hits = 0
    for start in range(0, len(data), _EVAL_BATCH):
        xb = data.inputs[start : start + _EVAL_BATCH]
        yb = data.labels[start : start + _EVAL_BATCH]
        hits += int(np.sum(predict(model, xb, restrict_classes) == yb))
    return hits / len(data) if len(data) else 0.0


def train(model: ModelSnapshot, data: LabeledDataset, cfg: TrainConfig) -> ModelSnapshot:
    """Seeded mini-batch SGD with momentum; returns a new snapshot."""
    if data.num_classes != model.num_classes:
        raise InvalidInputError(
            f"dataset has {data.num_classes} classes, model {model.num_classes}"
        )
    out = model.copy()
    rng = np.random.default_rng(cfg.seed)
    vel_w = [None if w is None else np.zeros_like(w) for w in out.weights]
    vel_b = [None if b is None else np.zeros_like(b) for b in out.biases]
    inputs = data.inputs.astype(np.float32, copy=False)
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(data))
        for start in range(0, len(data), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, grad_w, grad_b = _loss_and_grads(out, inputs[idx], data.labels[idx])
            if not np.isfinite(loss):
                raise DivergenceError(epoch=epoch)
            for i in range(len(out.layers)):
                if grad_w[i] is None:
                    continue
                vel_w[i] = cfg.momentum * vel_w[i] - cfg.learning_rate * grad_w[i]
                vel_b[i] = cfg.momentum * vel_b[i] - cfg.learning_rate * grad_b[i]
                out.weights[i] = out.weights[i] + vel_w[i]
                out.biases[i] = out.biases[i] + vel_b[i]
    return out


def batch_loss(model: ModelSnapshot, inputs: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy of one batch (no gradients)."""
    logits, _ = _logits(model, inputs)
    return _cross_entropy(_softmax(logits), labels)


def gradient_check(model: ModelSnapshot, inputs: np.ndarray, labels: np.ndarray) -> float:
    """Max relative error between analytic and central-difference gradients.

    Runs in float64 regardless of the snapshot dtype; intended for small
    models (< 1e4 parameters).
    """
    if model.parameter_count() >= 10_000:
        raise InvalidInputError("gradient_check is limited to models under 1e4 parameters")
    m = model.copy()
    m.weights = [None if w is None else w.astype(np.float64) for w in m.weights]
    m.biases = [None if b is None else b.astype(np.float64) for b in m.biases]
    xb = np.asarray(inputs, dtype=np.float64)
    yb = np.asarray(labels)

    _, grad_w, grad_b = _loss_and_grads(m, xb, yb)
    h = 1e-4
    worst = 0.0
    for grads, params in ((grad_w, m.weights), (grad_b, m.biases)):
        for i, g in enumerate(grads):
            if g is None:
                continue
            p = params[i]
            flat_p = p.reshape(-1)
            flat_g = g.reshape(-1)
            for j in range(flat_p.size):
                orig = flat_p[j]
                flat_p[j] = orig + h
                up = batch_loss(m, xb, yb)
                flat_p[j] = orig - h
                down = batch_loss(m, xb, yb)
                flat_p[j] = orig
                numeric = (up - down) / (2 * h)
                denom = max(1.0, abs(numeric), abs(flat_g[j]))
                worst = max(worst, abs(numeric - flat_g[j]) / denom)
    return worst


# --------------------------------------------------------------------------
# Model transformations
# --------------------------------------------------------------------------

def extend_output_class(model: ModelSnapshot) -> ModelSnapshot:
    """Append one zero-initialized output unit to the final dense layer.

    Original-class logits are bit-identical afterwards, so the argmax over
    the original classes cannot change.
    """
    idx = len(model.layers) - 1
    if idx >= 0 and isinstance(model.layers[idx], SoftmaxOutput):
        idx -= 1
    if idx < 0 or not isinstance(model.layers[idx], Dense):
        raise UnsupportedArchitectureError("final layer is not dense")
    out = model.copy()
    dense: Dense = out.layers[idx]
    w = out.weights[idx]
    out.weights[idx] = np.vstack([w, np.zeros((1, w.shape[1]), dtype=w.dtype)])
    out.biases[idx] = np.concatenate([out.biases[idx], np.zeros(1, dtype=w.dtype)])
    layers = list(out.layers)
    layers[idx] = Dense(dense.out_dim + 1)
    return ModelSnapshot(
        input_shape=out.input_shape,
        layers=tuple(layers),
        weights=out.weights,
        biases=out.biases,
        num_classes=out.num_classes + 1,
    )


def global_magnitude_prune(model: ModelSnapshot, rate: float) -> ModelSnapshot:
    """Zero the floor(rate * total) smallest-magnitude weights across all layers.

    Biases are untouched. Ties break by (layer index, flat index) ascending.
    """
    if not 0.0 <= rate <= 1.0:
        raise InvalidInputError(f"rate must be in [0, 1], got {rate}")
    out = model.copy()
    tensors = [(i, w) for i, w in enumerate(out.weights) if w is not None]
    total = sum(w.size for _, w in tensors)
    k = floor(rate * total)
    if k == 0:
        return out
    magnitudes = np.concatenate([np.abs(w).reshape(-1) for _, w in tensors])
    doomed = np.argsort(magnitudes, kind="stable")[:k]
    mask = np.ones(total, dtype=bool)
    mask[doomed] = False
    offset = 0
    for i, w in tensors:
        part = mask[offset : offset + w.size].reshape(w.shape)
        out.weights[i] = w * part
        offset += w.size
    return out


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------

# A layer is stored as its code, then its dataclass fields as uint32 in declaration order.
_LAYER_CODES: dict[type, int] = {Conv2d: 1, MaxPool2d: 2, Relu: 3, Dense: 4, SoftmaxOutput: 5}
_LAYER_TYPES: dict[int, type] = {code: cls for cls, code in _LAYER_CODES.items()}


def _pack_tensor(arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr, dtype=np.float32)
    head = struct.pack("<B", arr.ndim) + struct.pack(f"<{arr.ndim}I", *arr.shape)
    return head + arr.tobytes()


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncationError("model file ended early")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u8(self) -> int:
        return struct.unpack("<B", self.take(1))[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def tensor(self) -> np.ndarray:
        ndim = self.u8()
        shape = struct.unpack(f"<{ndim}I", self.take(4 * ndim))
        if 0 in shape:  # an empty array takes no bytes, yet numpy refuses one whose shape overflows
            raise FormatError(f"tensor shape {shape} has a zero dimension")
        count = prod(shape)  # a Python int, so take() refuses any count beyond the bytes left
        return np.frombuffer(self.take(4 * count), dtype="<f4").reshape(shape).copy()


def save_model(model: ModelSnapshot, path: str | Path) -> None:
    """Write the TNN1 binary format (little-endian, trailing CRC32)."""
    parts = [MODEL_MAGIC, struct.pack("<H", MODEL_VERSION)]
    parts.append(struct.pack("<I", model.num_classes))
    parts.append(struct.pack("<B", len(model.input_shape)))
    parts.append(struct.pack(f"<{len(model.input_shape)}I", *model.input_shape))
    parts.append(struct.pack("<I", len(model.layers)))
    for layer in model.layers:
        values = astuple(layer)
        parts.append(struct.pack(f"<B{len(values)}I", _LAYER_CODES[type(layer)], *values))
    for i in range(len(model.layers)):
        if model.weights[i] is not None:
            parts.append(_pack_tensor(model.weights[i]))
            parts.append(_pack_tensor(model.biases[i]))
    body = b"".join(parts)
    Path(path).write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


def load_model(path: str | Path) -> ModelSnapshot:
    """Read a TNN1 file; CRC mismatch raises CorruptionError."""
    data = Path(path).read_bytes()
    if len(data) < len(MODEL_MAGIC) + 2 + 4:
        raise TruncationError("model file too short")
    body, crc_bytes = data[:-4], data[-4:]
    if zlib.crc32(body) & 0xFFFFFFFF != struct.unpack("<I", crc_bytes)[0]:
        raise CorruptionError("model file checksum mismatch")
    r = _Reader(body)
    if r.take(len(MODEL_MAGIC)) != MODEL_MAGIC:
        raise FormatError("bad model magic")
    version = r.u16()
    if version != MODEL_VERSION:
        raise FormatError(f"unsupported model format version {version}")
    num_classes = r.u32()
    ndim = r.u8()
    input_shape = struct.unpack(f"<{ndim}I", r.take(4 * ndim))
    layer_count = r.u32()
    layers: list[LayerSpec] = []
    for _ in range(layer_count):
        code = r.u8()
        if code not in _LAYER_TYPES:
            raise FormatError(f"unknown layer code {code}")
        cls = _LAYER_TYPES[code]
        layers.append(cls(*(r.u32() for _ in fields(cls))))
    weights: list[np.ndarray | None] = []
    biases: list[np.ndarray | None] = []
    for layer in layers:
        if isinstance(layer, (Conv2d, Dense)):
            weights.append(r.tensor())
            biases.append(r.tensor())
        else:
            weights.append(None)
            biases.append(None)
    if r.pos != len(body):
        raise FormatError(f"{len(body) - r.pos} unexpected bytes before the checksum")
    try:
        return ModelSnapshot(
            input_shape=tuple(input_shape),
            layers=tuple(layers),
            weights=weights,
            biases=biases,
            num_classes=num_classes,
        )
    except InvalidInputError as exc:
        raise FormatError(f"model file describes an invalid model: {exc}") from exc


# --------------------------------------------------------------------------
# IDX ingestion
# --------------------------------------------------------------------------

def load_idx(images_path: str | Path, labels_path: str | Path) -> LabeledDataset:
    """Parse IDX image/label files into a dataset scaled to [0, 1].

    The class count is one more than the largest label.
    """
    img_data = Path(images_path).read_bytes()
    lbl_data = Path(labels_path).read_bytes()
    if len(img_data) < 16 or len(lbl_data) < 8:
        raise TruncationError("IDX header truncated")
    magic, count, rows, cols = struct.unpack(">IIII", img_data[:16])
    if magic != IDX_IMAGES_MAGIC:
        raise FormatError(f"bad IDX image magic 0x{magic:08x}")
    lmagic, lcount = struct.unpack(">II", lbl_data[:8])
    if lmagic != IDX_LABELS_MAGIC:
        raise FormatError(f"bad IDX label magic 0x{lmagic:08x}")
    if count != lcount:
        raise InconsistencyError(f"{count} images vs {lcount} labels")
    need = count * rows * cols
    if len(img_data) - 16 < need:
        raise TruncationError(f"image payload truncated ({len(img_data) - 16} of {need} bytes)")
    if len(lbl_data) - 8 < count:
        raise TruncationError(f"label payload truncated ({len(lbl_data) - 8} of {count} bytes)")
    pixels = np.frombuffer(img_data[16 : 16 + need], dtype=np.uint8)
    inputs = (pixels.reshape(count, 1, rows, cols).astype(np.float32)) / 255.0
    labels = np.frombuffer(lbl_data[8 : 8 + count], dtype=np.uint8).astype(np.int64)
    num_classes = int(labels.max()) + 1 if count else 0
    return LabeledDataset(inputs=inputs, labels=labels, num_classes=num_classes)
