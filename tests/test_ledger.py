"""Ownership ledger: chain construction, tamper evidence, claim resolution."""

import builtins
import hashlib
import json
import os

import numpy as np
import pytest

from modelmark import phash
from modelmark.errors import ClockSkewError, CorruptionError
from modelmark.ledger import GENESIS_DIGEST, OwnershipLedger, fingerprint_bind

FIXED_NOW = "2025-06-01T12:00:00Z"


def _img(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 256, (16, 16, 3)).astype(np.uint8)


class TestFingerprintBind:
    def test_same_image_binds_to_zero(self):
        img = _img(1)
        assert fingerprint_bind(img, img) == 0

    def test_matches_phash_xor_oracle(self):
        a, b = _img(2), _img(3)
        expected = phash.phash_image(a) ^ phash.phash_image(b)
        assert fingerprint_bind(a, b) == expected

    def test_xor_recovers_component(self):
        a, b = _img(4), _img(5)
        bound = fingerprint_bind(a, b)
        assert phash.xor(bound, phash.phash_image(b)) == phash.phash_image(a)


class TestAppend:
    def test_genesis_record(self, tmp_path):
        store = OwnershipLedger(tmp_path / "chain.ndjson")
        record = store.append("Owner", 0xDEADBEEF00112233, note="first")
        assert record.seq == 1
        assert record.prev_digest == GENESIS_DIGEST
        assert record.p_hex == "deadbeef00112233"

    def test_second_record_chains_by_independent_sha256(self, tmp_path):
        path = tmp_path / "chain.ndjson"
        store = OwnershipLedger(path)
        store.append("Owner", 1)
        store.append("Owner", 2)
        lines = path.read_bytes().splitlines()
        expected = hashlib.sha256(lines[0]).hexdigest()
        assert json.loads(lines[1])["prev_digest"] == expected

    def test_append_to_tampered_store_raises(self, tmp_path):
        path = tmp_path / "chain.ndjson"
        store = OwnershipLedger(path)
        for i in range(3):
            store.append("Owner", i)
        data = bytearray(path.read_bytes())
        data[data.find(b"Owner")] ^= 0x02
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptionError):
            store.append("Owner", 99)

    def test_clock_skew_detected(self, tmp_path, monkeypatch):
        path = tmp_path / "chain.ndjson"
        store = OwnershipLedger(path)
        store.append("Owner", 1)
        monkeypatch.setattr("modelmark.ledger._utc_now", lambda: "1999-01-01T00:00:00Z")
        with pytest.raises(ClockSkewError):
            store.append("Owner", 2)


class TestVerifyChain:
    def _store(self, tmp_path, n=5):
        store = OwnershipLedger(tmp_path / "chain.ndjson")
        for i in range(n):
            store.append(f"owner{i}", i, note=f"record {i}")
        return store

    def test_untouched_store_ok(self, tmp_path):
        assert self._store(tmp_path).verify_chain() is None

    def test_empty_store_ok(self, tmp_path):
        assert OwnershipLedger(tmp_path / "missing.ndjson").verify_chain() is None

    def test_flip_in_record_3_reports_seq_4(self, tmp_path):
        store = self._store(tmp_path, n=5)
        data = bytearray(store.path.read_bytes())
        lines = store.path.read_bytes().split(b"\n")
        # flip a content byte inside record 3 (owner name), keeping it valid JSON
        offset = sum(len(l) + 1 for l in lines[:2]) + lines[2].find(b"owner2")
        data[offset] ^= 0x02
        store.path.write_bytes(bytes(data))
        assert store.verify_chain() == 4

    def test_every_single_byte_flip_detected(self, tmp_path):
        store = self._store(tmp_path, n=4)
        original = store.path.read_bytes()
        # flip and restore each byte in place: a truncating rewrite per flip
        # costs a synchronous discard on some file systems
        with open(store.path, "r+b") as fh:
            for offset in range(len(original)):
                fh.seek(offset)
                fh.write(bytes([original[offset] ^ 0x01]))
                fh.flush()
                assert store.verify_chain() is not None, f"flip at byte {offset} undetected"
                fh.seek(offset)
                fh.write(original[offset : offset + 1])
                fh.flush()
        assert store.path.read_bytes() == original
        assert store.verify_chain() is None

    def test_truncation_detected(self, tmp_path):
        store = self._store(tmp_path, n=4)
        lines = store.path.read_bytes().splitlines(keepends=True)
        store.path.write_bytes(b"".join(lines[:-1]))
        assert store.verify_chain() == 3

    def test_truncation_to_empty_detected(self, tmp_path):
        store = self._store(tmp_path, n=4)
        store.path.write_bytes(b"")
        assert store.verify_chain() == 1

    def test_records_survive_round_trip(self, tmp_path):
        store = self._store(tmp_path, n=3)
        records = store.records()
        assert [r.seq for r in records] == [1, 2, 3]
        assert records[1].note == "record 1"


class TestVerifyOwnership:
    def test_owner_pair_finds_its_record(self, tmp_path):
        store = OwnershipLedger(tmp_path / "chain.ndjson")
        trigger, fp = _img(7), _img(8)
        appended = store.append("Owner", fingerprint_bind(trigger, fp))
        found = store.verify_ownership(trigger, fp)
        assert found is not None
        assert found.seq == appended.seq

    def test_empty_store_not_found(self, tmp_path):
        store = OwnershipLedger(tmp_path / "chain.ndjson")
        assert store.verify_ownership(_img(9), _img(10)) is None

    def test_earliest_claim_wins(self, tmp_path):
        store = OwnershipLedger(tmp_path / "chain.ndjson")
        p = fingerprint_bind(_img(11), _img(12))
        store.append("Owner", p, note="legitimate")
        store.append("Eve", p, note="forged later")
        found = store.verify_ownership(_img(11), _img(12))
        assert found.owner_id == "Owner"
        assert found.seq == 1

    def test_corrupt_chain_blocks_lookup(self, tmp_path):
        store = OwnershipLedger(tmp_path / "chain.ndjson")
        p = fingerprint_bind(_img(13), _img(14))
        store.append("Owner", p)
        data = bytearray(store.path.read_bytes())
        data[data.find(b"Owner")] ^= 0x04
        store.path.write_bytes(bytes(data))
        with pytest.raises(CorruptionError):
            store.verify_ownership(_img(13), _img(14))


class TestRecordLineEndsInNewline:
    """A record is a line ending in a newline; bytes after the last newline
    are a bad record at the next seq, whichever call reads them."""

    def _store(self, tmp_path, edit):
        store = OwnershipLedger(tmp_path / "chain.ndjson")
        for i in range(2):
            store.append("Owner", i)
        store.path.write_bytes(edit(store.path.read_bytes()))
        return store

    @pytest.mark.parametrize(
        "edit, bad",
        [
            pytest.param(lambda data: data[:-1], 2, id="last-newline-stripped"),
            pytest.param(lambda data: data + b'{"seq":3', 3, id="partial-line"),
        ],
    )
    def test_every_reader_reports_the_unterminated_line(self, tmp_path, edit, bad):
        store = self._store(tmp_path, edit)
        assert store.verify_chain() == bad
        assert OwnershipLedger(store.path).verify_chain() == bad
        with pytest.raises(CorruptionError, match=f"record {bad}"):
            store.earliest_claim(0)
        with pytest.raises(CorruptionError, match=f"record {bad}"):
            store.records()

    @pytest.mark.parametrize("fresh", [False, True], ids=["writer", "fresh-store"])
    def test_append_raises_and_leaves_both_files(self, tmp_path, fresh):
        store = self._store(tmp_path, lambda data: data[:-1])
        if fresh:
            store = OwnershipLedger(store.path)
        before = store.path.read_bytes(), store.head_path.read_bytes()
        with pytest.raises(CorruptionError, match="at record 2$"):
            store.append("Owner", 9)
        assert (store.path.read_bytes(), store.head_path.read_bytes()) == before


def _chain_line(
    seq: int, owner: str, p_hex: str, prev: str, note: str, timestamp: str = FIXED_NOW
) -> bytes:
    """One record as the file format defines it, built without the module."""
    obj = {"seq": seq, "timestamp": timestamp, "owner_id": owner, "p_hex": p_hex,
           "prev_digest": prev, "note": note}
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def _count_parses(monkeypatch) -> list:
    calls = []
    parse = OwnershipLedger._parse_line

    def counting(seq, line):
        calls.append(seq)
        return parse(seq, line)

    monkeypatch.setattr(OwnershipLedger, "_parse_line", staticmethod(counting))
    return calls


class TestIncrementalAppend:
    """append re-parses only the bytes it has not yet seen, and stays sound."""

    def _store(self, tmp_path, monkeypatch, n=6):
        monkeypatch.setattr("modelmark.ledger._utc_now", lambda: FIXED_NOW)
        store = OwnershipLedger(tmp_path / "chain.ndjson")
        for i in range(n):
            store.append("Owner", i, note=f"record {i}")
        return store

    def test_bytes_match_an_independent_reference_chain(self, tmp_path, monkeypatch):
        store = self._store(tmp_path, monkeypatch, n=0)
        prev, expected = GENESIS_DIGEST, b""
        for i in range(7):
            owner, note = f"owner{i % 3}", f"Zoë's trigger {i}"
            store.append(owner, 0x0123456789ABCDE0 + i, note=note)
            line = _chain_line(i + 1, owner, format(0x0123456789ABCDE0 + i, "016x"), prev, note)
            expected += line + b"\n"
            prev = hashlib.sha256(line).hexdigest()
        assert store.path.read_bytes() == expected
        assert store.head_path.read_bytes() == (prev + "\n").encode("ascii")

    def test_second_append_parses_only_the_new_line(self, tmp_path, monkeypatch):
        store = OwnershipLedger(self._store(tmp_path, monkeypatch, n=5).path)
        store.append("Owner", 5)
        calls = _count_parses(monkeypatch)
        store.append("Owner", 6)
        assert calls == [6]

    def test_claim_parses_each_line_once(self, tmp_path, monkeypatch):
        store = self._store(tmp_path, monkeypatch, n=6)
        calls = _count_parses(monkeypatch)
        assert OwnershipLedger(store.path).earliest_claim(3).seq == 4
        assert calls == [1, 2, 3, 4, 5, 6]

    def test_foreign_record_is_chained_onto(self, tmp_path, monkeypatch):
        store = self._store(tmp_path, monkeypatch, n=3)
        prev = hashlib.sha256(store.path.read_bytes().splitlines()[-1]).hexdigest()
        foreign = _chain_line(4, "Other", "00000000000000ff", prev, "another writer")
        with open(store.path, "ab") as fh:
            fh.write(foreign + b"\n")
        store.head_path.write_text(hashlib.sha256(foreign).hexdigest() + "\n")
        record = store.append("Owner", 9)
        assert record.seq == 5
        assert record.prev_digest == hashlib.sha256(foreign).hexdigest()
        assert OwnershipLedger(store.path).verify_chain() is None

    def test_badly_chained_foreign_record_raises(self, tmp_path, monkeypatch):
        store = self._store(tmp_path, monkeypatch, n=3)
        foreign = _chain_line(4, "Other", "00000000000000ff", "1" * 64, "another writer")
        with open(store.path, "ab") as fh:
            fh.write(foreign + b"\n")
        store.head_path.write_text(hashlib.sha256(foreign).hexdigest() + "\n")
        with pytest.raises(CorruptionError, match="record 4"):
            store.append("Owner", 9)

    def test_head_reset_to_previous_digest_raises(self, tmp_path, monkeypatch):
        store = self._store(tmp_path, monkeypatch, n=3)
        previous = store.head_path.read_bytes()
        store.append("Owner", 9)
        store.head_path.write_bytes(previous)
        with pytest.raises(CorruptionError, match="record 4"):
            store.append("Owner", 10)

    def test_verdict_matches_a_fresh_store(self, tmp_path, monkeypatch):
        """After an edit, append and records refuse exactly where a fresh full
        check fails."""
        rng = np.random.default_rng(5)
        for case in range(40):
            (tmp_path / str(case)).mkdir()
            store = self._store(tmp_path / str(case), monkeypatch, n=4)
            data = bytearray(store.path.read_bytes())
            if case % 4 == 0:
                data[rng.integers(len(data))] ^= 1 << int(rng.integers(8))
            elif case % 4 == 1:
                del data[rng.integers(len(data)) :]
            elif case % 4 == 2:
                data += rng.bytes(int(rng.integers(1, 80)))
            store.path.write_bytes(bytes(data))
            fresh = OwnershipLedger(store.path).verify_chain()
            if fresh is None:
                assert len(OwnershipLedger(store.path).records()) == 4
                assert store.append("Owner", 9).seq == 5
            else:
                with pytest.raises(CorruptionError, match=f"at record {fresh}$"):
                    OwnershipLedger(store.path).records()
                with pytest.raises(CorruptionError, match=f"at record {fresh}$"):
                    store.append("Owner", 9)


class TestRecordFieldsInFull:
    """Each field must match its pattern in full: a trailing newline, an
    uppercase digit or a non-ASCII digit is a bad record."""

    @pytest.mark.parametrize(
        "field, value",
        [
            pytest.param("p_hex", "0123456789abcdef\n", id="p_hex-newline"),
            pytest.param("p_hex", "0123456789ABCDEF", id="p_hex-uppercase"),
            pytest.param("timestamp", FIXED_NOW + "\n", id="timestamp-newline"),
            pytest.param("timestamp", "\uff12\uff10\uff12\uff15" + FIXED_NOW[4:],
                         id="timestamp-fullwidth-digits"),
            # appended to the true digest
            pytest.param("prev_digest", "\n", id="prev_digest-newline"),
        ],
    )
    def test_crafted_record_is_reported_at_its_seq(self, tmp_path, field, value):
        lines, prev = [], GENESIS_DIGEST
        for seq in (1, 2, 3):
            fields = {"p_hex": format(seq, "016x"), "timestamp": FIXED_NOW, "prev_digest": prev}
            if seq == 2:
                fields[field] = prev + value if field == "prev_digest" else value
            lines.append(_chain_line(seq, "Owner", fields["p_hex"], fields["prev_digest"], "",
                                     timestamp=fields["timestamp"]))
            prev = hashlib.sha256(lines[-1]).hexdigest()
        store = OwnershipLedger(tmp_path / "chain.ndjson")
        store.path.write_bytes(b"".join(line + b"\n" for line in lines))
        store.head_path.write_text(prev + "\n")
        assert store.verify_chain() == 2
        with pytest.raises(CorruptionError, match="at record 2$"):
            store.earliest_claim(1)


class TestHeadSidecar:
    def _store(self, tmp_path, n=3):
        store = OwnershipLedger(tmp_path / "chain.ndjson")
        for i in range(n):
            store.append("Owner", i)
        return store

    def test_head_of_65_bytes_is_never_truncated(self, tmp_path, monkeypatch):
        store = self._store(tmp_path)
        head = str(store.head_path)
        inode = os.stat(head).st_ino
        truncating = []
        real_open, real_os_open = builtins.open, os.open

        def spy_open(file, mode="r", *args, **kwargs):
            if str(file) == head and "w" in mode:
                truncating.append(mode)
            return real_open(file, mode, *args, **kwargs)

        def spy_os_open(path, flags, *args, **kwargs):
            if str(path) == head and flags & os.O_TRUNC:
                truncating.append(flags)
            return real_os_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", spy_open)
        monkeypatch.setattr(os, "open", spy_os_open)
        store.append("Owner", 9)
        assert truncating == []
        assert os.stat(head).st_ino == inode
        assert len(store.head_path.read_bytes()) == 65

    @pytest.mark.parametrize("ending", [b"", b"\r\n"])
    def test_odd_head_is_rewritten_to_65_bytes(self, tmp_path, ending):
        store = self._store(tmp_path)
        store.head_path.write_bytes(store.head_path.read_bytes().strip() + ending)
        assert store.verify_chain() is None
        store.append("Owner", 9)
        head = store.head_path.read_bytes()
        assert len(head) == 65 and head.endswith(b"\n")
        assert OwnershipLedger(store.path).verify_chain() is None

    def test_non_utf8_head_is_a_tamper_at_the_last_record(self, tmp_path):
        store = self._store(tmp_path)
        store.head_path.write_bytes(b"\xff" * 65)
        assert store.verify_chain() == 3
        with pytest.raises(CorruptionError, match="record 3"):
            store.append("Owner", 9)
        with pytest.raises(CorruptionError, match="record 3"):
            store.earliest_claim(1)
