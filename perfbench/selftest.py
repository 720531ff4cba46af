"""Fast self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Every check must pass a right answer and reject a planted wrong one: a hash
one bit off, a swapped verdict, a broken chain digest, a wrong gateway
class, and so on. It also checks that BENCHMARK.json names exactly the
metrics the benchmark prints. Takes a second or two; trains nothing.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from modelmark import ledger, phash  # noqa: E402

import checks  # noqa: E402

failures: list[str] = []


def expect(label: str, good: list[str], bad: list[str]) -> None:
    """The right answer must pass, the planted wrong one must be caught."""
    if good:
        failures.append(f"{label}: right answer rejected: {good}")
    if not bad:
        failures.append(f"{label}: planted error not caught")


def test_hashes(rng) -> None:
    img = rng.integers(0, 256, (40, 52, 3)).astype(np.uint8)
    h = phash.phash_image(img)
    _, ambiguous = checks.ref_phash(img)
    bit = next(k for k in range(64) if not ambiguous >> k & 1)
    expect("hash", checks.hash_problems("img", img, h), checks.hash_problems("img", img, h ^ (1 << bit)))
    distinct = [rng.integers(0, 256, (32, 32, 3)).astype(np.uint8) for _ in range(3)]
    expect("trigger distance", checks.distance_problems("set", distinct, 8),
           checks.distance_problems("set", distinct + [distinct[0].copy()], 8))


def test_ledger(rng) -> None:
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        store = ledger.OwnershipLedger(Path(tmp) / "chain.ndjson")
        ps = [int(rng.integers(0, 2**63)) for _ in range(6)]
        for i, p in enumerate(ps):
            store.append("Owner", p, note=f"r{i}")
        store.append("Eve", ps[2], note="rival")
        data = store.path.read_bytes()
        head = store.head_path.read_text()
    lines = checks.ledger_lines(data)
    # Break record 4's prev_digest by changing its first hex digit.
    at = lines[3].index(b'"prev_digest":"') + len(b'"prev_digest":"')
    flipped = b"1" if lines[3][at : at + 1] == b"0" else b"0"
    broken_line = lines[3][:at] + flipped + lines[3][at + 1 :]
    broken = b"\n".join(lines[:3] + [broken_line] + lines[4:]) + b"\n"
    expect("chain digest", checks.chain_problems("ledger", data, head), checks.chain_problems("ledger", broken, head))
    expect("chain head", [], checks.chain_problems("ledger", data, "0" * 64))
    expect("registered p_hex", checks.registration_problems("ledger", data, 2, ps[1], "Owner"),
           checks.registration_problems("ledger", data, 2, ps[1] ^ 1, "Owner"))
    expect("rival owner", checks.registration_problems("ledger", data, 7, ps[2], "Eve"),
           checks.registration_problems("ledger", data, 7, ps[2], "Owner"))
    expect("claim", checks.claim_problems("claim", 3, 3), checks.claim_problems("claim", 3, 7))


def test_models_and_verdicts() -> None:
    expect("accuracy floor", checks.accuracy_problems("base", 0.97, 0.9), checks.accuracy_problems("base", 0.6, 0.9))
    expect("watermark", checks.watermark_problems("copy", 1.0, 0.0, 0.85),
           checks.watermark_problems("copy", 0.8, 0.0, 0.85))
    expect("fidelity", [], checks.watermark_problems("copy", 1.0, 0.05, 0.85))
    expect("trace verdict", checks.verdict_problems("trace", "traceability failure", "traceability failure"),
           checks.verdict_problems("trace", "traceability failure", "Alice"))
    good = {"Alice": 0.104, "Bob": 0.97}
    expect("acpt verdict", checks.acpt_problems("acpt", "Bob", good, "Bob", 500, 10),
           checks.acpt_problems("acpt", "Bob", {"Alice": 0.97, "Bob": 0.104}, "Alice", 500, 10))
    expect("acpt chance", [], checks.acpt_problems("acpt", "Bob", {"Alice": 0.29, "Bob": 0.97}, "Bob", 500, 10))


def test_responses(rng) -> None:
    n = 400
    expected = rng.integers(0, 10, 50)
    labels = rng.integers(0, 10, 50)
    responses = []
    for i in range(n):
        qi = int(rng.integers(0, 50))
        kind = "auth" if i % 4 else "forged"
        cls = int(expected[qi]) if kind == "auth" else int(rng.integers(0, 10))
        responses.append((f"r{i}", kind, qi, {"request_id": f"r{i}", "class": cls}))

    def planted(i: int, obj: dict) -> list:
        return [r if j != i else (*r[:3], obj) for j, r in enumerate(responses)]

    ok = checks.response_problems(responses, expected, labels, 10)
    rid, kind, qi, obj = responses[1]
    expect("gateway class", ok, checks.response_problems(
        planted(1, {**obj, "class": (obj["class"] + 1) % 10}), expected, labels, 10))
    expect("gateway request id", [], checks.response_problems(
        planted(1, {**obj, "request_id": "other"}), expected, labels, 10))
    expect("gateway class range", [], checks.response_problems(
        planted(0, {**responses[0][3], "class": 10}), expected, labels, 10))
    expect("gateway key set", [], checks.response_problems(
        planted(0, {**responses[0][3], "detail": "x"}), expected, labels, 10))
    leaky = [(r, k, q, {"request_id": r, "class": int(labels[q]) if k != "auth" else o["class"]})
             for r, k, q, o in responses]
    expect("gateway chance", [], checks.response_problems(leaky, expected, labels, 10))


def test_benchmark_json() -> None:
    import run
    import tracing

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    printed = {name: unit for name, unit in run.END_TO_END}
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if printed != declared:
        failures.append(f"BENCHMARK.json end_to_end {declared} != printed {printed}")
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if declared != tracing.PER_LAYER:
        failures.append("BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from run.WORKLOADS")


def main() -> int:
    rng = np.random.default_rng(7)
    test_hashes(rng)
    test_ledger(rng)
    test_models_and_verdicts()
    test_responses(rng)
    test_benchmark_json()
    for line in failures:
        print(f"FAIL {line}")
    print("selftest:", "failed" if failures else "every check passed right answers and caught planted errors")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
