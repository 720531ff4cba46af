"""Deterministic desk-scale data generators.

Everything here is seeded and self-contained so the full workflow (train,
watermark, trace, authorize) runs without external datasets: a 10-class
digit-style image set, smoothly-evolving texture videos to cut trigger
frames from, and geometric key-image classes for the authorization center.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from . import phash
from .errors import InvalidInputError
from .media import FrameSequence
from .tinynn import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC, LabeledDataset

_GLYPHS = [
    "01110 10001 10011 10101 11001 10001 01110",
    "00100 01100 00100 00100 00100 00100 01110",
    "01110 10001 00001 00010 00100 01000 11111",
    "11111 00010 00100 00010 00001 10001 01110",
    "00010 00110 01010 10010 11111 00010 00010",
    "11111 10000 11110 00001 00001 10001 01110",
    "00110 01000 10000 11110 10001 10001 01110",
    "11111 00001 00010 00100 01000 01000 01000",
    "01110 10001 10001 01110 10001 10001 01110",
    "01110 10001 10001 01111 00001 00010 01100",
]

_DIGIT_NOISE = 0.06  # std of the Gaussian pixel noise on [0, 1] digits
_VIDEO_SIDE = 64  # texture video frames are square
_FLIPS_PER_FRAME = 18  # cosine-mode signs flipped between adjacent frames
_KEY_SIDE = 64  # key images are square


def _glyph_bitmap(digit: int) -> np.ndarray:
    rows = _GLYPHS[digit].split()
    return np.array([[int(c) for c in row] for row in rows], dtype=np.float64)


def synthetic_digits(count: int, seed: int = 0) -> LabeledDataset:
    """Render `count` jittered, noisy 28x28 digit images over 10 classes.

    Classes cycle 0..9 then are shuffled, so any prefix is near-balanced.
    Pixel values live in [0, 1]; shape is (count, 1, 28, 28).
    """
    if count < 1:
        raise InvalidInputError("count must be >= 1")
    rng = np.random.default_rng(seed)
    scale = 3  # 5x7 glyph -> 15x21 block inside 28x28
    inputs = np.zeros((count, 1, 28, 28), dtype=np.float32)
    labels = np.tile(np.arange(10), count // 10 + 1)[:count]
    rng.shuffle(labels)
    for i in range(count):
        glyph = _glyph_bitmap(int(labels[i]))
        block = np.kron(glyph, np.ones((scale, scale)))
        intensity = rng.uniform(0.72, 1.0)
        canvas = np.zeros((28, 28), dtype=np.float64)
        r0 = 3 + rng.integers(-2, 3)
        c0 = 6 + rng.integers(-2, 3)
        canvas[r0 : r0 + block.shape[0], c0 : c0 + block.shape[1]] = block * intensity
        canvas += rng.normal(0.0, _DIGIT_NOISE, canvas.shape)
        inputs[i, 0] = np.clip(canvas, 0.0, 1.0)
    return LabeledDataset(inputs=inputs, labels=labels.astype(np.int64), num_classes=10)


def write_idx_files(
    data: LabeledDataset, images_path: str | Path, labels_path: str | Path
) -> None:
    """Serialize a dataset into IDX image/label files (pixels quantized to u8)."""
    n = len(data)
    rows, cols = data.inputs.shape[-2:]
    pixels = np.clip(np.rint(data.inputs.reshape(n, rows, cols) * 255.0), 0, 255).astype(np.uint8)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
        fh.write(data.labels.astype(np.uint8).tobytes())


# --------------------------------------------------------------------------
# Texture videos (trigger-frame sources)
# --------------------------------------------------------------------------

def texture_video(frame_count: int, seed: int = 0, style: str = "skyline") -> FrameSequence:
    """A synthetic video whose adjacent frames are correlated but drift.

    Every frame carries a faint full-frame field built from the 63 lowest
    cosine modes with random signs; a handful of signs flip per frame, so
    neighboring frames stay correlated while the low-frequency spectrum
    (what a DCT hash sees) is high-entropy across the sequence.

    The visible subject differs per style and sits in opposite halves of
    the frame: "skyline" is a warm smooth texture filling the top half,
    "seabed" a cool banded texture filling the bottom half. Classifiers
    pick up the layout + texture difference readily, which keeps one
    user's trigger set from firing on another's.
    """
    if style not in ("skyline", "seabed"):
        raise InvalidInputError(f"unknown style {style!r}")
    rng = np.random.default_rng(seed)
    axis = (np.arange(_VIDEO_SIDE) + 0.5) / _VIDEO_SIDE

    # Cosine modes covering the 8x8 low-frequency band (DC excluded).
    modes = [(u, v) for u in range(8) for v in range(8) if (u, v) != (0, 0)]
    bases = np.stack(
        [np.outer(np.cos(np.pi * u * axis), np.cos(np.pi * v * axis)) for u, v in modes]
    )
    signs = rng.choice([-1.0, 1.0], size=len(modes))

    yy, xx = np.meshgrid(axis, axis, indexing="ij")
    half = yy < 0.5 if style == "skyline" else yy >= 0.5
    tint = (1.0, 0.80, 0.52) if style == "skyline" else (0.48, 0.72, 1.0)
    texture_coeffs = rng.normal(0.0, 1.0, (5, 5))
    angle = rng.uniform(0.0, np.pi)
    phase = rng.uniform(0.0, 2 * np.pi)

    frames: list[np.ndarray] = []
    for _ in range(frame_count):
        signs[rng.choice(len(modes), size=_FLIPS_PER_FRAME, replace=False)] *= -1.0
        field = np.tensordot(signs * rng.uniform(5.0, 7.0, len(modes)), bases, axes=1)

        texture_coeffs = 0.7 * texture_coeffs + rng.normal(0.0, 0.7, texture_coeffs.shape)
        texture = sum(
            texture_coeffs[u, v]
            * np.outer(np.cos(np.pi * (u + 3) * axis), np.cos(np.pi * (v + 3) * axis))
            for u in range(5)
            for v in range(5)
        )
        texture = 90.0 + 55.0 * texture / max(1e-9, float(np.abs(texture).max()))
        if style == "seabed":
            angle += rng.normal(0.0, 0.25)
            phase += rng.normal(0.0, 0.9)
            texture = 0.6 * texture + 45.0 * np.sin(
                2 * np.pi * 6.0 * (xx * np.cos(angle) + yy * np.sin(angle)) + phase
            ) + 36.0
        gray = 16.0 + half * texture + field
        rgb = np.stack([gray * tint[0], gray * tint[1], gray * tint[2]], axis=-1)
        frames.append(np.clip(np.rint(rgb), 0, 255).astype(np.uint8))
    return FrameSequence(frames=frames, source_id=f"synthetic-{style}-{seed}")


def write_y4m(seq: FrameSequence, chroma: str = "C444") -> bytes:
    """Encode frames as a YUV4MPEG2 stream (BT.601 full range)."""
    if chroma not in ("C444", "C420"):
        raise InvalidInputError(f"unsupported chroma {chroma!r}")
    height, width = seq.frames[0].shape[:2]
    if chroma == "C420" and (width % 2 or height % 2):
        raise InvalidInputError("C420 needs even dimensions")
    parts = [f"YUV4MPEG2 W{width} H{height} F25:1 Ip A1:1 {chroma}\n".encode("ascii")]
    for frame in seq.frames:
        rgb = frame.astype(np.float64)
        r, g, b = rgb[:, :, 0], rgb[:, :, 1], rgb[:, :, 2]
        y = phash.rgb_to_gray(rgb)
        cb = 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b
        cr = 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b
        if chroma == "C420":
            cb = cb.reshape(height // 2, 2, width // 2, 2).mean(axis=(1, 3))
            cr = cr.reshape(height // 2, 2, width // 2, 2).mean(axis=(1, 3))
        parts.append(b"FRAME\n")
        for plane in (y, cb, cr):
            parts.append(np.clip(np.rint(plane), 0, 255).astype(np.uint8).tobytes())
    return b"".join(parts)


# --------------------------------------------------------------------------
# Key-image classes (authorization center)
# --------------------------------------------------------------------------

def key_image_class(kind: str, count: int, seed: int = 0) -> list[np.ndarray]:
    """Generate one geometric image class.

    "rings" are concentric circles, "spots" are scattered round bumps, and
    "other" is a mixed bag (stripes, checkers, noise, ramps) for detector
    negatives.
    """
    rng = np.random.default_rng(seed)
    yy, xx = np.meshgrid(np.arange(_KEY_SIDE), np.arange(_KEY_SIDE), indexing="ij")
    images: list[np.ndarray] = []
    for _ in range(count):
        if kind == "rings":
            cx = _KEY_SIDE / 2 + rng.uniform(-6, 6)
            cy = _KEY_SIDE / 2 + rng.uniform(-6, 6)
            period = rng.uniform(7.0, 13.0)
            r = np.hypot(yy - cy, xx - cx)
            gray = 128.0 + 110.0 * np.cos(2 * np.pi * r / period + rng.uniform(0, 2 * np.pi))
            rgb = np.stack([gray, gray * 0.55, gray * 0.45], axis=-1)
        elif kind == "spots":
            gray = np.full((_KEY_SIDE, _KEY_SIDE), 40.0)
            for _ in range(rng.integers(4, 8)):
                cy, cx = rng.uniform(8, _KEY_SIDE - 8, 2)
                sigma = rng.uniform(4.0, 7.5)
                gray += 190.0 * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma**2))
            gray = np.clip(gray, 0, 255)
            rgb = np.stack([gray * 0.45, gray, gray * 0.55], axis=-1)
        elif kind == "other":
            variant = rng.integers(0, 4)
            if variant == 0:  # oriented stripes
                angle = rng.uniform(0, np.pi)
                freq = rng.uniform(3, 9)
                gray = 128.0 + 110.0 * np.sin(
                    2 * np.pi * freq * (xx * np.cos(angle) + yy * np.sin(angle)) / _KEY_SIDE
                )
            elif variant == 1:  # checkerboard
                block = int(rng.integers(4, 11))
                gray = 255.0 * (((yy // block) + (xx // block)) % 2)
            elif variant == 2:  # smoothed noise
                raw = rng.uniform(0, 255, (_KEY_SIDE // 4, _KEY_SIDE // 4))
                gray = np.kron(raw, np.ones((4, 4)))
            else:  # linear ramp
                angle = rng.uniform(0, 2 * np.pi)
                ramp = xx * np.cos(angle) + yy * np.sin(angle)
                gray = 255.0 * (ramp - ramp.min()) / max(float(np.ptp(ramp)), 1e-9)
            tint = rng.uniform(0.4, 1.0, 3)
            rgb = np.stack([gray * tint[0], gray * tint[1], gray * tint[2]], axis=-1)
        else:
            raise InvalidInputError(f"unknown key-image kind {kind!r}")
        images.append(np.clip(np.rint(rgb), 0, 255).astype(np.uint8))
    return images
