"""Perceptual hash tests, anchored to independent step-by-step oracles."""

import math

import numpy as np
import pytest

from modelmark import phash
from modelmark.errors import InvalidInputError


def oracle_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Naive per-pixel bilinear resize (half-pixel centers, clamped)."""
    arr = np.asarray(img, dtype=np.float64)
    in_h, in_w = arr.shape[:2]
    out = np.zeros((out_h, out_w) + arr.shape[2:], dtype=np.float64)
    for i in range(out_h):
        for j in range(out_w):
            sy = min(max((i + 0.5) * in_h / out_h - 0.5, 0.0), in_h - 1.0)
            sx = min(max((j + 0.5) * in_w / out_w - 0.5, 0.0), in_w - 1.0)
            y0, x0 = int(math.floor(sy)), int(math.floor(sx))
            y1, x1 = min(y0 + 1, in_h - 1), min(x0 + 1, in_w - 1)
            fy, fx = sy - y0, sx - x0
            out[i, j] = (
                arr[y0, x0] * (1 - fy) * (1 - fx)
                + arr[y0, x1] * (1 - fy) * fx
                + arr[y1, x0] * fy * (1 - fx)
                + arr[y1, x1] * fy * fx
            )
    return out


def oracle_dct_coefficient(gray: np.ndarray, u: int, v: int) -> float:
    """Orthonormal 2-D DCT-II coefficient straight from the definition."""
    n = gray.shape[0]
    total = 0.0
    for x in range(n):
        for y in range(n):
            total += (
                gray[x, y]
                * math.cos(math.pi * u * (x + 0.5) / n)
                * math.cos(math.pi * v * (y + 0.5) / n)
            )
    cu = math.sqrt(1.0 / n) if u == 0 else math.sqrt(2.0 / n)
    cv = math.sqrt(1.0 / n) if v == 0 else math.sqrt(2.0 / n)
    return cu * cv * total


def oracle_phash(rgb: np.ndarray) -> int:
    """Step-by-step pipeline: resize, gray, DCT block, mean-threshold, pack."""
    resized = oracle_bilinear(np.asarray(rgb, dtype=np.float64), 32, 32)
    gray = 0.299 * resized[:, :, 0] + 0.587 * resized[:, :, 1] + 0.114 * resized[:, :, 2]
    # vectorized DCT from the definition formula (independent of the library's
    # cached-matrix implementation)
    xs = np.arange(32)
    block = np.zeros((8, 8))
    for u in range(8):
        for v in range(8):
            cu = math.sqrt(1 / 32) if u == 0 else math.sqrt(2 / 32)
            cv = math.sqrt(1 / 32) if v == 0 else math.sqrt(2 / 32)
            basis = np.outer(
                np.cos(math.pi * u * (xs + 0.5) / 32), np.cos(math.pi * v * (xs + 0.5) / 32)
            )
            block[u, v] = cu * cv * float(np.sum(gray * basis))
    ave = block.mean()
    value = 0
    for u in range(8):
        for v in range(8):
            if block[u, v] > ave:
                value |= 1 << (63 - (u * 8 + v))
    return value


class TestPreprocess:
    def test_constant_image_stays_constant(self):
        img = np.full((64, 64, 3), 200, dtype=np.uint8)
        out = phash.preprocess(img)
        assert out.shape == (32, 32)
        assert np.allclose(out, 200.0)

    def test_same_size_gray_identity(self):
        img = np.full((32, 32, 3), 37, dtype=np.uint8)
        out = phash.preprocess(img)
        assert out.shape == (32, 32)
        assert np.allclose(out, 37.0)

    def test_checkerboard_matches_bilinear_oracle(self):
        small = np.zeros((2, 2, 3), dtype=np.uint8)
        small[0, 1] = small[1, 0] = 255
        ours = phash.resize_bilinear(small, 32, 32)
        theirs = oracle_bilinear(small, 32, 32)
        assert np.allclose(ours, theirs, atol=1e-12)

    def test_random_resize_matches_oracle(self):
        rng = np.random.default_rng(5)
        img = rng.integers(0, 256, (17, 23, 3)).astype(np.uint8)
        assert np.allclose(phash.resize_bilinear(img, 32, 32), oracle_bilinear(img, 32, 32))

    def test_zero_dimension_rejected(self):
        with pytest.raises(InvalidInputError):
            phash.preprocess(np.zeros((0, 4, 3)))

    def test_non_rgb_rejected(self):
        with pytest.raises(InvalidInputError):
            phash.preprocess(np.zeros((4, 4)))


class TestDctPhash:
    def test_uniform_mid_gray_sets_only_dc_bit(self):
        # orthonormal DCT of a constant 128 plane: C(0,0)=4096, others 0;
        # ave = 64, so only the DC coefficient exceeds it
        h = phash.dct_phash(np.full((32, 32), 128.0))
        assert h == 0x8000000000000000

    def test_uniform_dc_coefficient_against_definition(self):
        gray = np.full((32, 32), 128.0)
        assert oracle_dct_coefficient(gray, 0, 0) == pytest.approx(4096.0)
        assert oracle_dct_coefficient(gray, 0, 1) == pytest.approx(0.0, abs=1e-9)

    def test_all_zero_image_hashes_to_zero(self):
        assert phash.dct_phash(np.zeros((32, 32))) == 0

    def test_matches_step_by_step_oracle_on_random_images(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            img = rng.integers(0, 256, (32, 32, 3)).astype(np.uint8)
            assert phash.phash_image(img) == oracle_phash(img)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        img = rng.uniform(0.0, 255.0, (32, 32))
        for alpha in (0.5, 2.0):
            assert phash.dct_phash(alpha * img) == phash.dct_phash(img)

    def test_wrong_shape_rejected(self):
        with pytest.raises(InvalidInputError):
            phash.dct_phash(np.zeros((16, 16)))

    def test_determinism(self):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, (40, 40, 3)).astype(np.uint8)
        assert phash.phash_image(img) == phash.phash_image(img.copy())


class TestHashAlgebra:
    def test_hamming_identity_and_complement(self):
        h = 0x0123456789ABCDEF
        assert phash.hamming(h, h) == 0
        assert phash.hamming(h, h ^ 0xFFFFFFFFFFFFFFFF) == 64

    def test_hamming_against_popcount_oracle(self):
        a, b = 0x00FF00FF00FF00FF, 0x0F0F0F0F0F0F0F0F
        assert phash.hamming(a, b) == bin(a ^ b).count("1")

    def test_hamming_metric_axioms_sampled(self):
        rng = np.random.default_rng(12)
        hashes = [int(rng.integers(0, 2**63)) for _ in range(12)]
        for a in hashes:
            for b in hashes:
                assert phash.hamming(a, b) == phash.hamming(b, a)
                for c in hashes:
                    assert phash.hamming(a, c) <= phash.hamming(a, b) + phash.hamming(b, c)

    def test_xor_involution_and_identity(self):
        rng = np.random.default_rng(8)
        p1 = int(rng.integers(0, 2**63))
        p2 = int(rng.integers(0, 2**63))
        assert phash.xor(p1, p1) == 0
        assert phash.xor(p1, 0) == p1
        assert phash.xor(phash.xor(p1, p2), p2) == p1

    def test_hex_round_trip(self):
        h = 0x8000000000000001
        s = phash.to_hex(h)
        assert s == "8000000000000001"
        assert len(s) == 16
        assert phash.from_hex(s) == h

    @pytest.mark.parametrize(
        "text",
        [
            "-123456789abcdef",
            "0x23456789abcdef",
            "1_3456789abcdef0",
            " 123456789abcdef",
            "0123456789ABCDEF",  # to_hex writes lowercase only
            "0123456789abcdef\n",
        ],
    )
    def test_hex_rejects_anything_but_16_hex_digits(self, text):
        with pytest.raises(InvalidInputError):
            phash.from_hex(text)

    def test_hex_rejects_bad_length(self):
        with pytest.raises(InvalidInputError):
            phash.from_hex("abcd")
        with pytest.raises(InvalidInputError):
            phash.to_hex(2**64)
