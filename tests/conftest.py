"""Fixtures shared by several test modules."""

import pytest

from modelmark import acpt, phash, tinynn


@pytest.fixture
def count_work(monkeypatch):
    """count_work(model) -> counts of perceptual hashes, detector passes
    (with the detectors used, in order) and forward passes of `model`, made
    from that call on."""

    def start(model) -> dict:
        counts = {"phash": 0, "detector": 0, "model": 0, "detectors": []}
        original_phash, original_detector, original_forward = (
            phash.phash_image, acpt.detector_accepts, tinynn.forward
        )

        def phash_image(*args):
            counts["phash"] += 1
            return original_phash(*args)

        def detector_accepts(detector, key_image):
            counts["detector"] += 1
            counts["detectors"].append(detector)
            return original_detector(detector, key_image)

        def forward(m, x):
            counts["model"] += m is model
            return original_forward(m, x)

        monkeypatch.setattr(phash, "phash_image", phash_image)
        monkeypatch.setattr(acpt, "detector_accepts", detector_accepts)
        monkeypatch.setattr(tinynn, "forward", forward)
        return counts

    return start
