"""Media tests: decoders against independent encoders/readers, trigger
selection against brute-force subset enumeration, metrics against naive
double-loop oracles."""

import itertools

import numpy as np
import pytest

from modelmark import media, phash, synthdata
from modelmark.errors import (
    ContentTooSimilarError,
    EmptySourceError,
    FormatError,
    InsufficientFramesError,
    InvalidInputError,
    TruncationError,
    UnsupportedFormatError,
)


# --------------------------------------------------------------------------
# YUV4MPEG2
# --------------------------------------------------------------------------

class TestY4m:
    def test_neutral_chroma_decodes_to_gray(self):
        data = b"YUV4MPEG2 W2 H2 F25:1 C444\n" + b"FRAME\n" + bytes([128] * 12)
        seq = media.decode_y4m(data)
        assert len(seq) == 1
        assert seq[0].shape == (2, 2, 3)
        assert np.all(seq[0] == 128)

    def test_two_frame_markers_give_two_frames(self):
        payload = bytes([128] * 12)
        data = b"YUV4MPEG2 W2 H2 F25:1 C444\n" + (b"FRAME\n" + payload) * 2
        assert len(media.decode_y4m(data)) == 2

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            media.decode_y4m(b"JUNK W2 H2\nFRAME\n" + bytes(12))

    @pytest.mark.parametrize("header", [b"YUV4MPEG2 Wabc H2\n", b"YUV4MPEG2 W H2\n"])
    def test_non_numeric_geometry_is_format_error(self, header):
        with pytest.raises(FormatError, match="decimal"):
            media.decode_y4m(header)

    def test_truncated_frame_payload_names_frame(self):
        data = b"YUV4MPEG2 W2 H2 C444\n" + b"FRAME\n" + bytes(5)
        with pytest.raises(TruncationError, match="frame 0"):
            media.decode_y4m(data)

    def test_unsupported_chroma(self):
        with pytest.raises(UnsupportedFormatError):
            media.decode_y4m(b"YUV4MPEG2 W2 H2 C422\nFRAME\n" + bytes(8))

    def test_c420_round_trip_against_independent_converter(self):
        # independent encoder + converter, written before the build:
        # full-range BT.601 with 2x2-mean chroma subsampling
        rng = np.random.default_rng(42)
        h = w = 16
        base = rng.uniform(40, 215, (h // 4, w // 4, 3))
        rgb = np.clip(np.kron(base, np.ones((4, 4, 1))), 0, 255)  # smooth blocks

        r, g, b = rgb[:, :, 0], rgb[:, :, 1], rgb[:, :, 2]
        y = 0.299 * r + 0.587 * g + 0.114 * b
        cb = 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b
        cr = 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b
        cb_sub = cb.reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))
        cr_sub = cr.reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))
        to_u8 = lambda p: np.clip(np.rint(p), 0, 255).astype(np.uint8)
        stream = (
            f"YUV4MPEG2 W{w} H{h} F25:1 C420\n".encode()
            + b"FRAME\n"
            + to_u8(y).tobytes()
            + to_u8(cb_sub).tobytes()
            + to_u8(cr_sub).tobytes()
        )

        # the oracle's own RGB: replicate chroma, invert BT.601 in float
        cb_up = to_u8(cb_sub).astype(np.float64).repeat(2, 0).repeat(2, 1) - 128.0
        cr_up = to_u8(cr_sub).astype(np.float64).repeat(2, 0).repeat(2, 1) - 128.0
        yf = to_u8(y).astype(np.float64)
        expect = np.stack(
            [
                yf + 1.402 * cr_up,
                yf - 0.344136 * cb_up - 0.714136 * cr_up,
                yf + 1.772 * cb_up,
            ],
            axis=-1,
        )
        expect = np.clip(expect, 0, 255)

        got = media.decode_y4m(stream)[0].astype(np.float64)
        assert np.max(np.abs(got - expect)) <= 2.0

    def test_default_chroma_is_c420(self):
        data = b"YUV4MPEG2 W2 H2\n" + b"FRAME\n" + bytes([128] * 6)
        seq = media.decode_y4m(data)
        assert np.all(seq[0] == 128)

    def test_determinism(self):
        data = b"YUV4MPEG2 W2 H2 C444\n" + b"FRAME\n" + bytes(range(12))
        a = media.decode_y4m(data)
        b = media.decode_y4m(bytes(data))
        assert np.array_equal(a[0], b[0])


# --------------------------------------------------------------------------
# PGM / PPM
# --------------------------------------------------------------------------

class TestNetpbm:
    def test_p5_black_frame(self, tmp_path):
        (tmp_path / "a.pgm").write_bytes(b"P5\n4 4\n255\n" + bytes(16))
        seq = media.load_frame_dir(tmp_path)
        assert len(seq) == 1
        assert seq[0].shape == (4, 4, 3)
        assert np.all(seq[0] == 0)

    def test_numeric_filename_order(self, tmp_path):
        for name, value in (("1.ppm", 10), ("2.ppm", 20), ("10.ppm", 30)):
            (tmp_path / name).write_bytes(b"P6\n1 1\n255\n" + bytes([value] * 3))
        seq = media.load_frame_dir(tmp_path)
        assert [int(f[0, 0, 0]) for f in seq.frames] == [10, 20, 30]

    def test_comments_ignored(self):
        plain = b"P6\n2 1\n255\n" + bytes([1, 2, 3, 4, 5, 6])
        commented = b"P6\n# width and height\n2 1\n# maxval next\n255\n" + bytes([1, 2, 3, 4, 5, 6])
        assert np.array_equal(media.parse_image_bytes(plain), media.parse_image_bytes(commented))

    def test_empty_dir(self, tmp_path):
        with pytest.raises(EmptySourceError):
            media.load_frame_dir(tmp_path)

    def test_maxval_over_255(self):
        with pytest.raises(UnsupportedFormatError):
            media.parse_image_bytes(b"P5\n1 1\n65535\n\x00\x00")

    def test_truncated_payload(self):
        with pytest.raises(TruncationError):
            media.parse_image_bytes(b"P6\n2 2\n255\n" + bytes(5))

    def test_ppm_round_trip(self):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, (5, 7, 3)).astype(np.uint8)
        assert np.array_equal(media.parse_image_bytes(media.write_ppm(img)), img)

    def test_base64_round_trip(self):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, (3, 3, 3)).astype(np.uint8)
        assert np.array_equal(media.decode_base64_image(media.encode_base64_image(img)), img)


# --------------------------------------------------------------------------
# Trigger selection
# --------------------------------------------------------------------------

def _idct32(coeffs: np.ndarray) -> np.ndarray:
    n = 32
    k = np.arange(n).reshape(-1, 1)
    x = np.arange(n).reshape(1, -1)
    mat = np.cos(np.pi / n * (x + 0.5) * k) * np.sqrt(2.0 / n)
    mat[0, :] *= 1.0 / np.sqrt(2.0)
    return mat.T @ coeffs @ mat


def _frame_with_bits(positions: set[int]) -> np.ndarray:
    """Synthesize a 32x32 RGB frame whose hash has exactly the given one-bits
    (plus the DC bit). Positions index the 8x8 block row-major, 1..63."""
    coeffs = np.zeros((32, 32))
    coeffs[0, 0] = 4096.0  # mid-gray base so pixels stay in range
    for p in range(1, 64):
        coeffs[p // 8, p % 8] = 180.0 if p in positions else -6.0
    gray = np.clip(np.rint(_idct32(coeffs)), 0, 255).astype(np.uint8)
    return np.repeat(gray[:, :, None], 3, axis=2)


def _expected_hash(positions: set[int]) -> int:
    value = 1 << 63  # DC bit
    for p in positions:
        value |= 1 << (63 - p)
    return value


# Three clusters of bit positions; even frames are cluster centers, odd
# frames are small mutations pulled toward the next cluster. The unique
# best 3-subset under min pairwise Hamming is the centers {0, 2, 4}.
_FIXTURE_SETS = [
    set(range(1, 9)),
    set(range(1, 8)) | {9},
    set(range(9, 17)),
    set(range(9, 16)) | {17},
    set(range(17, 25)),
    set(range(17, 24)) | {1},
]


class TestSelectTriggers:
    def test_fixture_hashes_are_exact(self):
        for positions in _FIXTURE_SETS:
            frame = _frame_with_bits(positions)
            assert phash.phash_image(frame) == _expected_hash(positions)

    def test_greedy_matches_brute_force_optimum(self):
        frames = [_frame_with_bits(s) for s in _FIXTURE_SETS]
        hashes = [phash.phash_image(f) for f in frames]

        def min_pairwise(subset):
            return min(
                bin(hashes[i] ^ hashes[j]).count("1")
                for i, j in itertools.combinations(subset, 2)
            )

        scored = sorted(
            itertools.combinations(range(6), 3), key=min_pairwise, reverse=True
        )
        best, runner_up = scored[0], scored[1]
        assert min_pairwise(best) > min_pairwise(runner_up)  # unique optimum
        assert set(best) == {0, 2, 4}

        seq = media.FrameSequence(frames=frames, source_id="fixture")
        picked = media.select_triggers(seq, 3, user_id="u", label=10, d_min=16)
        assert [phash.phash_image(img) for img in picked.images] == [
            hashes[i] for i in sorted(best)
        ]
        assert picked.min_distance == min_pairwise(best)

    @pytest.mark.parametrize("count", [1, 2, 8, 32])
    def test_min_distance_is_the_pairwise_minimum(self, count):
        for seed, style in ((0, "skyline"), (1, "seabed"), (2, "skyline")):
            seq = synthdata.texture_video(40, seed=seed, style=style)
            picked = media.select_triggers(seq, count, user_id="u", label=10, d_min=0)
            hashes = [phash.phash_image(img) for img in picked.images]
            pairwise = [phash.hamming(a, b) for a, b in itertools.combinations(hashes, 2)]
            assert picked.min_distance == min(pairwise, default=phash.HASH_BITS)

    def test_identical_frames_too_similar(self):
        frame = np.full((8, 8, 3), 7, dtype=np.uint8)
        seq = media.FrameSequence(frames=[frame.copy() for _ in range(3)])
        with pytest.raises(ContentTooSimilarError) as exc:
            media.select_triggers(seq, 2, user_id="u", label=10, d_min=1)
        assert exc.value.best_distance == 0

    def test_exhaustive_selection_returns_all(self):
        frames = [_frame_with_bits(s) for s in _FIXTURE_SETS[:3]]
        seq = media.FrameSequence(frames=frames)
        picked = media.select_triggers(seq, 3, user_id="u", label=5, d_min=0)
        assert len(picked) == 3

    def test_insufficient_frames(self):
        seq = media.FrameSequence(frames=[np.zeros((4, 4, 3), dtype=np.uint8)])
        with pytest.raises(InsufficientFramesError):
            media.select_triggers(seq, 2, user_id="u", label=1, d_min=0)

    def test_trigger_set_export_round_trip(self, tmp_path):
        frames = [_frame_with_bits(s) for s in _FIXTURE_SETS[:4]]
        seq = media.FrameSequence(frames=frames)
        picked = media.select_triggers(seq, 3, user_id="Alice", label=10, d_min=2)
        media.save_trigger_set(picked, tmp_path / "trig", d_min=2)
        loaded = media.load_trigger_set(tmp_path / "trig")
        assert loaded.user_id == "Alice"
        assert loaded.label == 10
        assert len(loaded) == 3
        for a, b in zip(loaded.images, picked.images):
            assert np.array_equal(a, b)

    def test_swapped_image_content_detected(self, tmp_path):
        frames = [_frame_with_bits(s) for s in _FIXTURE_SETS[:2]]
        ts = media.TriggerSet(user_id="u", images=frames, label=3)
        media.save_trigger_set(ts, tmp_path / "t", d_min=0)
        # a perceptual hash tolerates pixel noise, so integrity checking is
        # about content substitution: swap in a different frame entirely
        impostor = _frame_with_bits(_FIXTURE_SETS[4])
        (tmp_path / "t" / "0001.ppm").write_bytes(media.write_ppm(impostor))
        with pytest.raises(FormatError, match="hash"):
            media.load_trigger_set(tmp_path / "t")

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(
                lambda d: _replace_in_manifest(d, "label=3", "label=x"), id="label-not-integer"
            ),
            pytest.param(lambda d: (d / "0001.ppm").unlink(), id="image-missing"),
        ],
    )
    def test_malformed_trigger_directory_is_format_error(self, tmp_path, edit):
        frames = [_frame_with_bits(s) for s in _FIXTURE_SETS[:2]]
        ts = media.TriggerSet(user_id="u", images=frames, label=3)
        media.save_trigger_set(ts, tmp_path / "t", d_min=0)
        edit(tmp_path / "t")
        with pytest.raises(FormatError):
            media.load_trigger_set(tmp_path / "t")


def _replace_in_manifest(root, old, new):
    manifest = root / "manifest.txt"
    text = manifest.read_text()
    assert old in text
    manifest.write_text(text.replace(old, new))


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------

class TestMse:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, (6, 6, 3)).astype(np.uint8)
        assert media.mse(img, img) == 0.0

    def test_unit_difference(self):
        a = np.zeros((4, 4, 3), dtype=np.uint8)
        b = np.ones((4, 4, 3), dtype=np.uint8)
        assert media.mse(a, b) == 1.0

    def test_against_double_loop_oracle(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 256, (8, 8, 3)).astype(np.uint8)
        b = rng.integers(0, 256, (8, 8, 3)).astype(np.uint8)
        total = 0.0
        for i in range(8):
            for j in range(8):
                for c in range(3):
                    total += (float(a[i, j, c]) - float(b[i, j, c])) ** 2
        assert media.mse(a, b) == pytest.approx(total / (8 * 8 * 3))

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        a = rng.integers(0, 256, (5, 5, 3))
        b = rng.integers(0, 256, (5, 5, 3))
        assert media.mse(a, b) == media.mse(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            media.mse(np.zeros((2, 2, 3)), np.zeros((3, 3, 3)))


def oracle_ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Window-by-window SSIM straight from the formula (population stats)."""
    c1 = (0.01 * 255.0) ** 2
    c2 = (0.03 * 255.0) ** 2
    h, w = a.shape
    values = []
    for i in range(h - 7):
        for j in range(w - 7):
            wx = a[i : i + 8, j : j + 8].astype(np.float64)
            wy = b[i : i + 8, j : j + 8].astype(np.float64)
            mx, my = wx.mean(), wy.mean()
            vx, vy = ((wx - mx) ** 2).mean(), ((wy - my) ** 2).mean()
            cov = ((wx - mx) * (wy - my)).mean()
            values.append(
                ((2 * mx * my + c1) * (2 * cov + c2))
                / ((mx * mx + my * my + c1) * (vx + vy + c2))
            )
    return float(np.mean(values))


class TestSsim:
    def test_self_similarity_is_exactly_one(self):
        rng = np.random.default_rng(5)
        img = rng.uniform(0, 255, (12, 12))
        assert media.ssim(img, img) == 1.0

    def test_uniform_offset_matches_oracle(self):
        a = np.zeros((10, 10))
        b = np.full((10, 10), 255.0)
        assert media.ssim(a, b) == pytest.approx(oracle_ssim(a, b), abs=1e-12)

    def test_complement_of_high_contrast_is_negative(self):
        tile = np.array([[0.0, 255.0], [255.0, 0.0]])
        img = np.tile(tile, (8, 8))
        comp = 255.0 - img
        value = media.ssim(img, comp)
        assert value == pytest.approx(oracle_ssim(img, comp), abs=1e-12)
        assert value < 0

    def test_random_images_match_oracle(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(0, 255, (11, 9))
        b = rng.uniform(0, 255, (11, 9))
        assert media.ssim(a, b) == pytest.approx(oracle_ssim(a, b), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(0, 255, (9, 9))
        b = rng.uniform(0, 255, (9, 9))
        assert abs(media.ssim(a, b) - media.ssim(b, a)) < 1e-9

    def test_too_small_rejected(self):
        with pytest.raises(InvalidInputError):
            media.ssim(np.zeros((4, 4)), np.zeros((4, 4)))
