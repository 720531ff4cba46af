"""64-bit perceptual image hashing from the low-frequency DCT block.

Pipeline: bilinear resize to 32x32, BT.601 luma, orthonormal 2-D DCT-II,
keep the top-left 8x8 block, threshold every coefficient against the block
mean (DC included), pack the 64 comparison bits row-major with coefficient
(0, 0) at the most significant bit.

Hashes are plain Python ints in [0, 2**64). All functions are pure.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError

HASH_BITS = 64
_BLOCK = 8
_SIDE = 32

# BT.601 luma weights, applied to the already-resized RGB planes.
_LUMA = (0.299, 0.587, 0.114)

# Exactly what to_hex writes: 16 lowercase hex digits.
_HEX = re.compile(r"[0-9a-f]{16}")


@lru_cache(maxsize=None)
def _dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix of size n (rows are basis vectors)."""
    k = np.arange(n, dtype=np.float64).reshape(-1, 1)
    x = np.arange(n, dtype=np.float64).reshape(1, -1)
    mat = np.cos((math.pi / n) * (x + 0.5) * k) * math.sqrt(2.0 / n)
    mat[0, :] *= 1.0 / math.sqrt(2.0)
    return mat


def resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinearly resample a 2-D plane or H x W x C array to out_h x out_w.

    Sample positions use half-pixel centers: source coordinate
    (dst + 0.5) * scale - 0.5, clamped to the source grid, so a same-size
    resize is the identity and constant images stay constant.
    """
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim not in (2, 3):
        raise InvalidInputError(f"expected 2-D or 3-D image, got ndim={arr.ndim}")
    in_h, in_w = arr.shape[:2]
    if in_h == 0 or in_w == 0 or out_h <= 0 or out_w <= 0:
        raise InvalidInputError("zero-dimension image")

    def axis_coords(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        pos = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
        pos = np.clip(pos, 0.0, n_in - 1.0)
        lo = np.floor(pos).astype(np.int64)
        hi = np.minimum(lo + 1, n_in - 1)
        frac = pos - lo
        return lo, hi, frac

    ylo, yhi, yfrac = axis_coords(in_h, out_h)
    xlo, xhi, xfrac = axis_coords(in_w, out_w)

    if arr.ndim == 2:
        yfrac = yfrac[:, None]
        xfrac = xfrac[None, :]
    else:
        yfrac = yfrac[:, None, None]
        xfrac = xfrac[None, :, None]

    top = arr[ylo][:, xlo] * (1.0 - xfrac) + arr[ylo][:, xhi] * xfrac
    bot = arr[yhi][:, xlo] * (1.0 - xfrac) + arr[yhi][:, xhi] * xfrac
    return top * (1.0 - yfrac) + bot * yfrac


def rgb_to_gray(rgb: np.ndarray) -> np.ndarray:
    """BT.601 luma of an H x W x 3 array, kept real-valued (no rounding)."""
    arr = np.asarray(rgb, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise InvalidInputError(f"expected H x W x 3 RGB array, got shape {arr.shape}")
    return arr[:, :, 0] * _LUMA[0] + arr[:, :, 1] * _LUMA[1] + arr[:, :, 2] * _LUMA[2]


def preprocess(rgb: np.ndarray) -> np.ndarray:
    """Resize an RGB image to 32x32 and convert to real-valued grayscale."""
    return rgb_to_gray(resize_bilinear(rgb, _SIDE, _SIDE))


def dct_phash(gray32: np.ndarray) -> int:
    """Hash a 32x32 grayscale plane.

    The threshold is the mean over all 64 retained coefficients, DC
    included; the comparison is strict, so coefficients equal to the mean
    map to 0. Scaling the input by any positive factor leaves the hash
    unchanged (the DCT and the mean scale together).
    """
    arr = np.asarray(gray32, dtype=np.float64)
    if arr.shape != (_SIDE, _SIDE):
        raise InvalidInputError(f"expected 32x32 grayscale plane, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("image contains non-finite values")

    mat = _dct_matrix(_SIDE)
    coeffs = (mat @ arr @ mat.T)[:_BLOCK, :_BLOCK]
    ave = coeffs.mean()
    # bit (u, v) is bit 63 - (8u + v): row-major order, first coefficient most significant
    return int.from_bytes(np.packbits(coeffs > ave).tobytes(), "big")


def phash_image(rgb: np.ndarray) -> int:
    """Convenience: preprocess then hash in one call."""
    return dct_phash(preprocess(rgb))


def hamming(a: int, b: int) -> int:
    """Number of differing bits between two hashes (0..64)."""
    return ((a ^ b) & (2**HASH_BITS - 1)).bit_count()


def xor(a: int, b: int) -> int:
    """Bitwise XOR of two hashes."""
    return (a ^ b) & (2**HASH_BITS - 1)


def to_hex(h: int) -> str:
    """Serialize as 16 lowercase hex characters, most significant nibble first."""
    if not 0 <= h < 2**HASH_BITS:
        raise InvalidInputError(f"hash out of 64-bit range: {h!r}")
    return format(h, "016x")


def from_hex(s: str) -> int:
    """Parse what to_hex writes, and only that: exactly 16 lowercase hex
    digits. Anything else raises InvalidInputError."""
    if not _HEX.fullmatch(s):
        raise InvalidInputError(f"expected 16 lowercase hex digits, got {s!r}")
    return int(s, 16)
