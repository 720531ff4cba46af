#!/usr/bin/env python3
"""Anchoring ownership claims in the hash-chained ledger.

Each record stores XOR(trigger hash, owner fingerprint hash); the chain
digest makes records tamper-evident, and competing claims over the same
fingerprint resolve to the earliest sequence number.
"""

import tempfile
from pathlib import Path

from modelmark import synthdata
from modelmark.errors import CorruptionError
from modelmark.ledger import OwnershipLedger, fingerprint_bind

triggers = synthdata.texture_video(4, seed=11, style="skyline").frames
owner_fp = synthdata.key_image_class("rings", 1, seed=3)[0]

with tempfile.TemporaryDirectory(prefix="modelmark-demo-") as workdir:
    store = OwnershipLedger(Path(workdir) / "ownership.ndjson")

    print("owner anchors one record per selected trigger image:")
    for i, trigger in enumerate(triggers):
        record = store.append("Owner", fingerprint_bind(trigger, owner_fp), note=f"trigger {i}")
        print(f"  seq {record.seq} at {record.timestamp}: P={record.p_hex}")

    assert store.verify_chain() is None
    print("chain verification: ok")

    print("\nownership check with the original trigger + fingerprint pair:")
    claim = store.verify_ownership(triggers[2], owner_fp)
    print(f"  matched seq {claim.seq} ({claim.owner_id}, note={claim.note!r})")

    print("\nEve stores the same fingerprint later; the earlier record still wins:")
    store.append("Eve", fingerprint_bind(triggers[2], owner_fp), note="forged claim")
    claim = store.verify_ownership(triggers[2], owner_fp)
    print(f"  dispute resolves to seq {claim.seq}, owner {claim.owner_id}")

    print("\na single flipped byte breaks the chain:")
    raw = bytearray(store.path.read_bytes())
    raw[raw.find(b"trigger 1")] ^= 0x01
    store.path.write_bytes(bytes(raw))
    bad = store.verify_chain()
    print(f"  verify_chain reports first bad record: seq {bad}")
    try:
        store.append("Owner", 0, note="should not work")
    except CorruptionError as exc:
        print(f"  append refused: {exc}")
