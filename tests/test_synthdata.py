"""Generator sanity: determinism, format round trips, and the statistical
properties the desk-scale workflows rely on."""

import hashlib
import itertools

import numpy as np

from modelmark import media, phash, synthdata, tinynn


class TestSyntheticDigits:
    def test_shapes_and_range(self):
        ds = synthdata.synthetic_digits(50, seed=0)
        assert ds.inputs.shape == (50, 1, 28, 28)
        assert ds.num_classes == 10
        assert float(ds.inputs.min()) >= 0.0
        assert float(ds.inputs.max()) <= 1.0

    def test_deterministic(self):
        a = synthdata.synthetic_digits(30, seed=5)
        b = synthdata.synthetic_digits(30, seed=5)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_near_balanced_classes(self):
        ds = synthdata.synthetic_digits(200, seed=1)
        counts = np.bincount(ds.labels, minlength=10)
        assert counts.min() >= 15

    def test_idx_round_trip(self, tmp_path):
        ds = synthdata.synthetic_digits(20, seed=2)
        img, lbl = tmp_path / "i.idx", tmp_path / "l.idx"
        synthdata.write_idx_files(ds, img, lbl)
        back = tinynn.load_idx(img, lbl)
        assert np.array_equal(back.labels, ds.labels)
        # pixels survive up to u8 quantization
        assert float(np.abs(back.inputs - ds.inputs).max()) <= 0.5 / 255.0 + 1e-7


class TestTextureVideo:
    def test_frames_are_correlated_but_distinct(self):
        seq = synthdata.texture_video(40, seed=3, style="skyline")
        hashes = [phash.phash_image(f) for f in seq.frames]
        adjacent = [phash.hamming(hashes[i], hashes[i + 1]) for i in range(39)]
        spread = [
            phash.hamming(a, b) for a, b in itertools.combinations(hashes[::8], 2)
        ]
        assert 4 <= np.mean(adjacent) <= 28  # correlated neighbours
        assert np.mean(spread) >= 22  # decorrelated at distance

    def test_styles_occupy_opposite_halves(self):
        sky = synthdata.texture_video(4, seed=4, style="skyline")
        sea = synthdata.texture_video(4, seed=4, style="seabed")
        for frame_sky, frame_sea in zip(sky.frames, sea.frames):
            gray_sky = phash.rgb_to_gray(frame_sky)
            gray_sea = phash.rgb_to_gray(frame_sea)
            assert gray_sky[:32].mean() > gray_sky[32:].mean() + 20
            assert gray_sea[32:].mean() > gray_sea[:32].mean() + 20

    def test_y4m_round_trip_preserves_content(self):
        seq = synthdata.texture_video(3, seed=5, style="skyline")
        decoded = media.decode_y4m(synthdata.write_y4m(seq, chroma="C444"))
        assert len(decoded) == 3
        for a, b in zip(seq.frames, decoded.frames):
            # YCbCr quantization costs a couple of levels per channel
            assert float(np.abs(a.astype(int) - b.astype(int)).max()) <= 3
            assert phash.hamming(phash.phash_image(a), phash.phash_image(b)) <= 2


class TestKeyImages:
    def test_kinds_are_deterministic_and_distinct(self):
        rings = synthdata.key_image_class("rings", 6, seed=0)
        spots = synthdata.key_image_class("spots", 6, seed=0)
        assert all(img.shape == (64, 64, 3) for img in rings + spots)
        again = synthdata.key_image_class("rings", 6, seed=0)
        assert all(np.array_equal(a, b) for a, b in zip(rings, again))
        assert not np.array_equal(rings[0], spots[0])


def _sha256(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


class TestGoldenOutput:
    """Fixed-seed output, byte for byte. The acceptance suite and the
    benchmark train and trace on these generators, so a digest that moves
    means their inputs moved."""

    def test_synthetic_digits(self):
        ds = synthdata.synthetic_digits(40, seed=7)
        assert _sha256(ds.inputs, ds.labels) == (
            "56e6a5b351f9a10d95ce03313a8acf9746c7c720d831285ac3fdbdb7d7725645"
        )

    def test_texture_video_as_y4m(self):
        skyline = synthdata.write_y4m(synthdata.texture_video(5, seed=3, style="skyline"))
        seabed = synthdata.write_y4m(
            synthdata.texture_video(5, seed=4, style="seabed"), chroma="C420"
        )
        assert hashlib.sha256(skyline).hexdigest() == (
            "a1119fd053e44ab3c42adf9e1ce60c829f099a1fb91ed621576a13220378539e"
        )
        assert hashlib.sha256(seabed).hexdigest() == (
            "b099504a621c863be1d0d510cbde2cd422e86f00cfa9d7b403e051a0959f8dce"
        )

    def test_key_image_class(self):
        expected = {
            "rings": "75556efd0ca0ef7ab7df78f80bbbf683140bd94c3ed09f47c9ace16d74f02b14",
            "spots": "8647699e27071c04cbe85de84324d547c53feb094f3d9417b5efd01ab5cb85a7",
            "other": "b7a1ffd676758ad49f374ed2f026a13e3d60841a68e5fcd680901539dc728c7f",
        }
        for kind, digest in expected.items():
            assert _sha256(*synthdata.key_image_class(kind, 8, seed=5)) == digest, kind
