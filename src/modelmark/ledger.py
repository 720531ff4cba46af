"""Hash-chained append-only ownership ledger.

Stands in for the blockchain transaction store: each NDJSON record carries
the SHA-256 of its predecessor's exact line bytes, and a sidecar head file
pins the digest of the final line so edits anywhere in the store, including
the last record, are detectable. Every record line ends in a newline; bytes
after the last newline are a bad record. Competing claims over the same
fingerprint resolve to the earliest (lowest-seq) record.

`verify_chain`, `records` and `earliest_claim` read the file once and check
every record; record lines are parsed in that one scan only. `append` checks
again only what it has not seen: each store instance remembers the length
and SHA-256 of the file bytes it last found well chained, and while the file
still starts with exactly those bytes, only the lines after them are parsed
and chained. Any other file is checked whole.
The head is re-read and compared on every call, and then overwritten in
place (see `OwnershipLedger.append`).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import phash
from .errors import ClockSkewError, CorruptionError, InvalidInputError

GENESIS_DIGEST = "0" * 64

_P_HEX = re.compile(r"^[0-9a-f]{16}$")
_DIGEST = re.compile(r"^[0-9a-f]{64}$")
_TIMESTAMP = re.compile(r"^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z$")


@dataclass(frozen=True)
class LedgerRecord:
    seq: int
    timestamp: str
    owner_id: str
    p_hex: str
    prev_digest: str
    note: str = ""

    def canonical_line(self) -> bytes:
        """The exact bytes digested by the successor record (no newline)."""
        return json.dumps(
            {
                "seq": self.seq,
                "timestamp": self.timestamp,
                "owner_id": self.owner_id,
                "p_hex": self.p_hex,
                "prev_digest": self.prev_digest,
                "note": self.note,
            },
            separators=(",", ":"),
            ensure_ascii=False,
        ).encode("utf-8")


def fingerprint_bind(trigger_img: np.ndarray, owner_fp_img: np.ndarray) -> int:
    """XOR of the trigger image's and the owner fingerprint image's hashes."""
    return phash.xor(phash.phash_image(trigger_img), phash.phash_image(owner_fp_img))


def _line_digest(line: bytes) -> str:
    return hashlib.sha256(line).hexdigest()


def _utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass(frozen=True)
class _Verified:
    """What one scan found about the first `size` bytes of the ledger file."""

    size: int = 0
    sha256: bytes = hashlib.sha256(b"").digest()
    count: int = 0  # records in those bytes
    tail: str = GENESIS_DIGEST  # digest of the last record's line
    timestamp: str = ""  # of the last record


_NOTHING_VERIFIED = _Verified()


class OwnershipLedger:
    """One NDJSON file plus a `<path>.head` sidecar holding the tail digest."""

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self.head_path = Path(str(path) + ".head")
        self._verified = _NOTHING_VERIFIED

    # -- parsing ------------------------------------------------------------

    @staticmethod
    def _parse_line(seq: int, line: bytes) -> LedgerRecord:
        try:
            obj = json.loads(line.decode("utf-8"))
            record = LedgerRecord(
                seq=obj["seq"],
                timestamp=obj["timestamp"],
                owner_id=obj["owner_id"],
                p_hex=obj["p_hex"],
                prev_digest=obj["prev_digest"],
                note=obj.get("note", ""),
            )
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            raise CorruptionError(f"record {seq}: unparseable line ({exc})") from exc
        if record.seq != seq:
            raise CorruptionError(f"record {seq}: seq field says {record.seq}")
        if not isinstance(record.p_hex, str) or not _P_HEX.match(record.p_hex):
            raise CorruptionError(f"record {seq}: malformed p_hex")
        if not isinstance(record.prev_digest, str) or not _DIGEST.match(record.prev_digest):
            raise CorruptionError(f"record {seq}: malformed prev_digest")
        if not isinstance(record.timestamp, str) or not _TIMESTAMP.match(record.timestamp):
            raise CorruptionError(f"record {seq}: malformed timestamp")
        return record

    # -- verification ---------------------------------------------------------

    def _scan(
        self, known: _Verified = _NOTHING_VERIFIED
    ) -> tuple[int | None, _Verified, list[LedgerRecord]]:
        """Read the file and the head once, and check the chain past `known`.

        `known` is trusted only while the file still starts with the bytes it
        describes. Returns the seq of the first bad record (None when intact),
        the state of the whole file, and the records parsed. An intact file
        is remembered for the next `append`.
        """
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            data = b""
        view = memoryview(data)
        hasher = hashlib.sha256(view[: known.size])
        if known.size > len(data) or hasher.digest() != known.sha256:
            known, hasher = _NOTHING_VERIFIED, hashlib.sha256()
        hasher.update(view[known.size :])
        seq, prev, timestamp = known.count, known.tail, known.timestamp
        records = []
        bad = None
        *lines, rest = data[known.size :].split(b"\n")  # rest: bytes after the last newline
        for line in lines:
            seq += 1
            try:
                record = self._parse_line(seq, line)
            except CorruptionError:
                bad = seq
                break
            if record.prev_digest != prev:
                bad = seq
                break
            records.append(record)
            prev, timestamp = _line_digest(line), record.timestamp
        else:
            try:
                head = self.head_path.read_bytes()
            except FileNotFoundError:
                head = None
            if rest:
                bad = seq + 1
            elif seq == 0:
                # a head sidecar without records means the store was emptied
                bad = None if head is None else 1
            elif head is None or head.strip() != prev.encode("ascii"):
                bad = seq
        state = _Verified(len(data), hasher.digest(), seq, prev, timestamp)
        self._verified = state if bad is None else _NOTHING_VERIFIED
        return bad, state, records

    def records(self) -> list[LedgerRecord]:
        """Every record, once one scan has found the whole chain and the head
        intact; raises CorruptionError naming the first bad record."""
        bad, _, records = self._scan()
        if bad is not None:
            raise CorruptionError(f"ledger fails chain verification at record {bad}")
        return records

    def verify_chain(self) -> int | None:
        """Return None when intact, else the seq of the first bad record.

        Checks every record's well-formedness, its prev_digest against the
        recomputed digest of its predecessor's line bytes, and the final
        line against the sidecar head digest.
        """
        return self._scan()[0]

    # -- writing --------------------------------------------------------------

    def append(self, owner_id: str, p: int | str, note: str = "") -> LedgerRecord:
        """Append one record and fsync both files before returning."""
        p_hex = phash.to_hex(p) if isinstance(p, int) else p
        if not _P_HEX.match(p_hex):
            raise InvalidInputError(f"p must be 16 lowercase hex characters, got {p_hex!r}")
        bad, state, _ = self._scan(self._verified)
        if bad is not None:
            raise CorruptionError(f"ledger fails chain verification at record {bad}")

        now = _utc_now()
        if state.count and now < state.timestamp:
            raise ClockSkewError(f"clock {now} is earlier than last record at {state.timestamp}")
        record = LedgerRecord(
            seq=state.count + 1,
            timestamp=now,
            owner_id=owner_id,
            p_hex=p_hex,
            prev_digest=state.tail,
            note=note,
        )
        line = record.canonical_line()
        with open(self.path, "ab") as fh:
            fh.write(line + b"\n")
            fh.flush()
            os.fsync(fh.fileno())
        # Overwrite in place: truncating the head frees its block, which costs
        # a synchronous discard on some file systems, and a crash after the
        # truncation would leave an empty head.
        head = (_line_digest(line) + "\n").encode("ascii")
        with open(os.open(self.head_path, os.O_RDWR | os.O_CREAT, 0o666), "r+b") as fh:
            fh.write(head)
            if os.fstat(fh.fileno()).st_size > len(head):
                fh.truncate()
            fh.flush()
            os.fsync(fh.fileno())
        return record

    # -- ownership queries ------------------------------------------------------

    def earliest_claim(self, p: int | str) -> LedgerRecord | None:
        """Lowest-seq record storing this fingerprint, or None."""
        p_hex = phash.to_hex(p) if isinstance(p, int) else p
        return next((record for record in self.records() if record.p_hex == p_hex), None)

    def verify_ownership(
        self, trigger_img: np.ndarray, owner_fp_img: np.ndarray
    ) -> LedgerRecord | None:
        """Recompute the bound fingerprint and look up the earliest claim."""
        return self.earliest_claim(fingerprint_bind(trigger_img, owner_fp_img))
