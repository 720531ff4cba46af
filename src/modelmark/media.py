"""Frame ingestion, trigger-set selection, and image quality metrics.

Supported carriers are deliberately codec-free: YUV4MPEG2 streams (C444 or
C420, BT.601 full range) and directories of binary PGM/PPM files. Trigger
sets are chosen by perceptual-hash dissimilarity and exported as PPM files
plus a manifest.
"""

from __future__ import annotations

import base64
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import phash
from .errors import (
    ContentTooSimilarError,
    EmptySourceError,
    FormatError,
    InsufficientFramesError,
    InvalidInputError,
    TruncationError,
    UnsupportedFormatError,
)

_SSIM_WINDOW = 8
_SSIM_C1 = (0.01 * 255.0) ** 2
_SSIM_C2 = (0.03 * 255.0) ** 2

DEFAULT_MIN_DISTANCE = 16


@dataclass(frozen=True)
class FrameSequence:
    """Decoded frames in decode order, all sharing one geometry."""

    frames: list[np.ndarray]
    source_id: str = ""

    def __post_init__(self):
        shapes = {f.shape for f in self.frames}
        if len(shapes) > 1:
            raise InvalidInputError(f"frames disagree on geometry: {sorted(shapes)}")

    def __len__(self) -> int:
        return len(self.frames)

    def __getitem__(self, i: int) -> np.ndarray:
        return self.frames[i]


@dataclass(frozen=True)
class TriggerSet:
    """Key images for one user, all mapped to the same extra class index."""

    user_id: str
    images: list[np.ndarray]
    label: int
    min_distance: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if len(self.images) < 1:
            raise InvalidInputError("trigger set must hold at least one image")
        shapes = {img.shape for img in self.images}
        if len(shapes) > 1:
            raise InvalidInputError(f"trigger images disagree on geometry: {sorted(shapes)}")
        if self.label < 0:
            raise InvalidInputError("label must be a non-negative class index")

    def __len__(self) -> int:
        return len(self.images)


# --------------------------------------------------------------------------
# YUV4MPEG2
# --------------------------------------------------------------------------

def _bt601_to_rgb(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> np.ndarray:
    y = y.astype(np.float64)
    cb = cb.astype(np.float64) - 128.0
    cr = cr.astype(np.float64) - 128.0
    r = y + 1.402 * cr
    g = y - 0.344136 * cb - 0.714136 * cr
    b = y + 1.772 * cb
    rgb = np.stack([r, g, b], axis=-1)
    return np.clip(np.rint(rgb), 0, 255).astype(np.uint8)


def decode_y4m(data: bytes, source_id: str = "y4m") -> FrameSequence:
    """Decode a YUV4MPEG2 byte stream into RGB frames.

    Accepts C444 and C420 chroma (C420 is the container default), converts
    with BT.601 full-range coefficients, and upsamples 4:2:0 chroma by
    sample replication.
    """
    magic = b"YUV4MPEG2"
    if not data.startswith(magic):
        raise FormatError("missing YUV4MPEG2 signature")
    header_end = data.find(b"\n")
    if header_end < 0:
        raise TruncationError("stream ends inside the stream header")

    width = height = 0
    chroma = "C420"
    for token in data[len(magic):header_end].split(b" "):
        token = token.decode("ascii", "replace")
        if not token:
            continue
        if token[0] in "WH" and not token[1:].isdigit():
            raise FormatError(f"stream header token {token!r} needs a decimal number")
        if token[0] == "W":
            width = int(token[1:])
        elif token[0] == "H":
            height = int(token[1:])
        elif token[0] == "C":
            chroma = token
    if width <= 0 or height <= 0:
        raise FormatError(f"bad stream geometry {width}x{height}")
    if chroma not in ("C444", "C420"):
        raise UnsupportedFormatError(f"unsupported chroma mode {chroma!r}")
    if chroma == "C420" and (width % 2 or height % 2):
        raise UnsupportedFormatError("C420 requires even dimensions")

    luma_len = width * height
    if chroma == "C444":
        chroma_w, chroma_h = width, height
    else:
        chroma_w, chroma_h = width // 2, height // 2
    chroma_len = chroma_w * chroma_h
    frame_len = luma_len + 2 * chroma_len

    frames: list[np.ndarray] = []
    pos = header_end + 1
    while pos < len(data):
        line_end = data.find(b"\n", pos)
        if line_end < 0:
            raise TruncationError(f"frame {len(frames)}: unterminated FRAME header")
        if not data[pos:line_end].startswith(b"FRAME"):
            raise FormatError(f"frame {len(frames)}: expected FRAME marker")
        payload = data[line_end + 1 : line_end + 1 + frame_len]
        if len(payload) < frame_len:
            raise TruncationError(
                f"frame {len(frames)}: payload truncated "
                f"({len(payload)} of {frame_len} bytes)"
            )
        buf = np.frombuffer(payload, dtype=np.uint8)
        y = buf[:luma_len].reshape(height, width)
        cb = buf[luma_len : luma_len + chroma_len].reshape(chroma_h, chroma_w)
        cr = buf[luma_len + chroma_len :].reshape(chroma_h, chroma_w)
        if chroma == "C420":
            cb = cb.repeat(2, axis=0).repeat(2, axis=1)
            cr = cr.repeat(2, axis=0).repeat(2, axis=1)
        frames.append(_bt601_to_rgb(y, cb, cr))
        pos = line_end + 1 + frame_len

    return FrameSequence(frames=frames, source_id=source_id)


# --------------------------------------------------------------------------
# PGM / PPM
# --------------------------------------------------------------------------

def parse_image_bytes(data: bytes) -> np.ndarray:
    """Parse binary PGM (P5) or PPM (P6); returns H x W x 3 uint8 (gray replicated)."""
    if data[:2] not in (b"P5", b"P6"):
        raise FormatError(f"not a binary PGM/PPM file (magic {data[:2]!r})")
    channels = 3 if data[:2] == b"P6" else 1

    # Header: magic, width, height, maxval as whitespace-separated tokens,
    # with '#' comments running to end of line.
    fields: list[int] = []
    pos = 2
    while len(fields) < 3:
        if pos >= len(data):
            raise TruncationError("header ended before maxval")
        ch = data[pos : pos + 1]
        if ch == b"#":
            nl = data.find(b"\n", pos)
            pos = len(data) if nl < 0 else nl + 1
        elif ch.isspace():
            pos += 1
        elif ch.isdigit():
            m = re.match(rb"\d+", data[pos:])
            fields.append(int(m.group()))
            pos += m.end()
        else:
            raise FormatError(f"unexpected header byte {ch!r}")
    width, height, maxval = fields
    if maxval > 255:
        raise UnsupportedFormatError(f"maxval {maxval} > 255 not supported")
    if maxval <= 0 or width <= 0 or height <= 0:
        raise FormatError("non-positive header field")
    pos += 1  # single whitespace byte separates header from payload

    need = width * height * channels
    payload = data[pos : pos + need]
    if len(payload) < need:
        raise TruncationError(f"pixel payload truncated ({len(payload)} of {need} bytes)")
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    if channels == 1:
        arr = np.repeat(arr, 3, axis=2)
    return arr.copy()


def write_ppm(rgb: np.ndarray) -> bytes:
    """Encode an H x W x 3 uint8 array as binary PPM (P6, maxval 255)."""
    arr = np.asarray(rgb)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise InvalidInputError(f"expected H x W x 3 array, got shape {arr.shape}")
    arr = np.clip(np.rint(arr.astype(np.float64)), 0, 255).astype(np.uint8)
    header = f"P6\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    return header + arr.tobytes()


_NUM_RUN = re.compile(r"\d+")


def _natural_key(name: str) -> tuple:
    """Sort key ordering digit runs numerically: 2.ppm before 10.ppm."""
    parts = []
    last = 0
    for m in _NUM_RUN.finditer(name):
        parts.append((0, name[last : m.start()]))
        parts.append((1, int(m.group())))
        last = m.end()
    parts.append((0, name[last:]))
    return tuple(parts)


def load_frame_dir(path: str | Path) -> FrameSequence:
    """Load every PGM/PPM file under a directory, ordered by numeric filename sort."""
    root = Path(path)
    files = [p for p in root.iterdir() if p.suffix.lower() in (".pgm", ".ppm")]
    if not files:
        raise EmptySourceError(f"no PGM/PPM files under {root}")
    files.sort(key=lambda p: _natural_key(p.name))
    frames = [parse_image_bytes(p.read_bytes()) for p in files]
    return FrameSequence(frames=frames, source_id=str(root))


# --------------------------------------------------------------------------
# Trigger selection and export
# --------------------------------------------------------------------------

def select_triggers(
    seq: FrameSequence,
    count: int,
    user_id: str,
    label: int,
    d_min: int = DEFAULT_MIN_DISTANCE,
) -> TriggerSet:
    """Pick `count` mutually dissimilar frames by greedy farthest-point selection.

    Starts from frame 0 and repeatedly adds the frame maximizing its minimum
    perceptual-hash distance to the chosen set, breaking ties by lower frame
    index. The minimum pairwise distance of the set is the smallest distance
    a frame had to the set when it was added (64 for a single frame). Fails
    if it is below d_min.
    """
    if count < 1:
        raise InvalidInputError("count must be >= 1")
    if len(seq) < count:
        raise InsufficientFramesError(
            f"need {count} frames, sequence has {len(seq)}"
        )

    hashes = [phash.phash_image(f) for f in seq.frames]
    chosen = [0]
    # min distance from each candidate to the chosen set so far
    dist = np.array([phash.hamming(h, hashes[0]) for h in hashes], dtype=np.int64)
    dist[0] = -1
    achieved = phash.HASH_BITS
    while len(chosen) < count:
        nxt = int(np.argmax(dist))  # argmax takes the first (lowest) index on ties
        chosen.append(nxt)
        achieved = min(achieved, int(dist[nxt]))
        for i, h in enumerate(hashes):
            if dist[i] >= 0:
                dist[i] = min(dist[i], phash.hamming(h, hashes[nxt]))
        dist[nxt] = -1

    if achieved < d_min:
        raise ContentTooSimilarError(best_distance=achieved, required=d_min)
    return TriggerSet(
        user_id=user_id,
        images=[seq.frames[i] for i in chosen],
        label=label,
        min_distance=achieved,
    )


def save_trigger_set(triggers: TriggerSet, out_dir: str | Path) -> Path:
    """Write a trigger set as numbered PPM files plus manifest.txt.

    The manifest carries user_id, label, L and one line per image: filename
    followed by its perceptual hash in hex.
    """
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    lines = [
        f"user_id={triggers.user_id}",
        f"label={triggers.label}",
        f"L={len(triggers)}",
    ]
    for i, img in enumerate(triggers.images):
        name = f"{i:04d}.ppm"
        (root / name).write_bytes(write_ppm(img))
        lines.append(f"{name} {phash.to_hex(phash.phash_image(img))}")
    manifest = root / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def load_trigger_set(path: str | Path) -> TriggerSet:
    """Load a trigger set saved by save_trigger_set, verifying per-image hashes."""
    root = Path(path)
    manifest = root / "manifest.txt"
    if not manifest.is_file():
        raise EmptySourceError(f"no manifest.txt under {root}")
    header: dict[str, str] = {}
    images: list[np.ndarray] = []
    for line in manifest.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        if "=" in line and " " not in line:
            key, _, value = line.partition("=")
            header[key] = value
            continue
        name, _, hex_hash = line.partition(" ")
        try:
            raw = (root / name).read_bytes()
        except OSError as exc:
            raise FormatError(f"manifest names unreadable image {name}: {exc}") from exc
        img = parse_image_bytes(raw)
        actual = phash.to_hex(phash.phash_image(img))
        if hex_hash != actual:  # to_hex has one form, so this also refuses malformed hex
            raise FormatError(f"{name}: stored hash {hex_hash} != recomputed {actual}")
        images.append(img)
    try:
        user_id = header["user_id"]
        label = int(header["label"])
        count = int(header["L"])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"manifest field missing or not an integer: {exc}") from exc
    if count != len(images):
        raise FormatError(f"manifest says L={count} but {len(images)} images listed")
    return TriggerSet(user_id=user_id, images=images, label=label)


def decode_base64_image(encoded: str) -> np.ndarray:
    """Decode a standard-alphabet base64 string holding PGM/PPM bytes."""
    try:
        raw = base64.b64decode(encoded, validate=True)
    except Exception as exc:
        raise FormatError(f"bad base64 payload: {exc}") from exc
    return parse_image_bytes(raw)


def encode_base64_image(rgb: np.ndarray) -> str:
    """Encode an RGB array as base64 PPM (the gateway wire form)."""
    return base64.b64encode(write_ppm(rgb)).decode("ascii")


def to_model_input(rgb: np.ndarray, input_shape: tuple[int, ...]) -> np.ndarray:
    """Convert an RGB image to a model-space tensor.

    (1, H, W) targets get BT.601 luma bilinearly resized and scaled to
    [0, 1]; (3, H, W) targets keep the channels. Output is float32.
    """
    if len(input_shape) != 3:
        raise InvalidInputError(f"expected (C, H, W) input shape, got {input_shape}")
    channels, height, width = input_shape
    if channels == 1:
        plane = phash.rgb_to_gray(np.asarray(rgb, dtype=np.float64))
        plane = phash.resize_bilinear(plane, height, width) / 255.0
        return plane[None, :, :].astype(np.float32)
    if channels == 3:
        resized = phash.resize_bilinear(np.asarray(rgb, dtype=np.float64), height, width)
        return (resized.transpose(2, 0, 1) / 255.0).astype(np.float32)
    raise InvalidInputError(f"unsupported channel count {channels}")


# --------------------------------------------------------------------------
# Quality metrics
# --------------------------------------------------------------------------

def mse(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared difference over all channel samples."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape:
        raise InvalidInputError(f"shape mismatch {x.shape} vs {y.shape}")
    return float(np.mean((x - y) ** 2))


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Structural similarity over 8x8 sliding windows, stride 1.

    Uses stabilizers C1 = (0.01*255)^2 and C2 = (0.03*255)^2 and population
    window statistics; the per-window indices are averaged. Inputs are 2-D
    grayscale planes on the [0, 255] scale.
    """
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape:
        raise InvalidInputError(f"shape mismatch {x.shape} vs {y.shape}")
    if x.ndim != 2 or x.shape[0] < _SSIM_WINDOW or x.shape[1] < _SSIM_WINDOW:
        raise InvalidInputError(f"need a 2-D image of at least 8x8, got {x.shape}")

    wx = np.lib.stride_tricks.sliding_window_view(x, (_SSIM_WINDOW, _SSIM_WINDOW))
    wy = np.lib.stride_tricks.sliding_window_view(y, (_SSIM_WINDOW, _SSIM_WINDOW))
    mu_x = wx.mean(axis=(-2, -1))
    mu_y = wy.mean(axis=(-2, -1))
    var_x = (wx * wx).mean(axis=(-2, -1)) - mu_x * mu_x
    var_y = (wy * wy).mean(axis=(-2, -1)) - mu_y * mu_y
    cov = (wx * wy).mean(axis=(-2, -1)) - mu_x * mu_y

    num = (2.0 * mu_x * mu_y + _SSIM_C1) * (2.0 * cov + _SSIM_C2)
    den = (mu_x * mu_x + mu_y * mu_y + _SSIM_C1) * (var_x + var_y + _SSIM_C2)
    return float(np.mean(num / den))
