#!/usr/bin/env python3
"""Cutting per-user trigger sets from a private key video.

The owner keeps the raw video; only frames whose perceptual hashes are
mutually distant become triggers, so every key image is visually distinct
content. The selected set is exported as PPM files plus a hash manifest.
"""

import tempfile
from pathlib import Path

from modelmark import media, synthdata
from modelmark.errors import ContentTooSimilarError

# The "shoot a video" stand-in: a 120-frame synthetic sequence whose
# adjacent frames are correlated, serialized through the Y4M container.
video = synthdata.texture_video(120, seed=11, style="skyline")
stream = synthdata.write_y4m(video, chroma="C444")
print(f"key video: {len(video)} frames, {len(stream)} bytes of YUV4MPEG2")

decoded = media.decode_y4m(stream, source_id="alice-key-video")
print(f"decoded back: {len(decoded)} frames of {decoded[0].shape}")

triggers = media.select_triggers(decoded, 40, user_id="Alice", label=10, d_min=16)
print(
    f"selected {len(triggers)} trigger frames; "
    f"min pairwise hash distance {triggers.min_distance} bits"
)

with tempfile.TemporaryDirectory(prefix="modelmark-demo-") as tmp:
    workdir = Path(tmp)
    manifest = media.save_trigger_set(triggers, workdir / "alice-triggers", d_min=16)
    print(f"exported to {manifest.parent}")
    print("manifest head:")
    for line in manifest.read_text().splitlines()[:6]:
        print(f"  {line}")

    reloaded = media.load_trigger_set(workdir / "alice-triggers")
    assert reloaded.user_id == "Alice" and len(reloaded) == 40
    print("reload with per-image hash verification: ok")

# Too-similar content is refused outright
try:
    media.select_triggers(
        media.FrameSequence(frames=[video[0]] * 5, source_id="dupes"),
        3, user_id="Eve", label=10, d_min=16,
    )
except ContentTooSimilarError as exc:
    print(f"identical frames rejected: {exc}")
