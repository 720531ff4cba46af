"""Output checks computed apart from the program.

Each check takes plain values and returns a list of problems (empty when the
output is right). The references are independent re-implementations (a
64-bit DCT hash from the definition formula, the SHA-256 ledger chain) or
properties the method must have (accuracy floors, the trace verdict rules,
chance agreement on the random branch). None compares against a stored
copy of the program's output.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from modelmark import media, pcpt, phash, tinynn
from world import D_MIN, OWNER, RIVAL, THRESHOLDS, USERS

BASE_ACCURACY_FLOOR = 0.90
MAX_FIDELITY_DROP = 0.02
TRACE_ACCEPT = 0.80  # the active-path verdict rule: leaker at or above,
TRACE_REJECT = 0.30  # every other probe at or below
CHANCE_SIGMAS = 5.0
GENESIS = "0" * 64
_MASK = (1 << 64) - 1


# --------------------------------------------------------------------------
# Reference perceptual hash
# --------------------------------------------------------------------------

def _bilinear_weights(n_in: int, n_out: int) -> np.ndarray:
    """Row i holds the weights of output sample i (half-pixel centres, clamped)."""
    weights = np.zeros((n_out, n_in))
    for i in range(n_out):
        src = min(max((i + 0.5) * n_in / n_out - 0.5, 0.0), n_in - 1.0)
        lo = math.floor(src)
        hi = min(lo + 1, n_in - 1)
        weights[i, lo] += 1.0 - (src - lo)
        weights[i, hi] += src - lo
    return weights


def ref_phash(rgb: np.ndarray) -> tuple[int, int]:
    """64-bit DCT hash and the mask of bits too close to the mean to decide.

    Resize to 32x32, BT.601 luma, DCT-II of the top-left 8x8 block from the
    definition formula, threshold against the block mean, pack row-major
    with coefficient (0, 0) most significant. A coefficient within 1e-9 of
    the mean (relative to the block) can round either way in any float
    implementation; its bit is returned in the mask and not compared.
    """
    img = np.asarray(rgb, dtype=np.float64)
    wy = _bilinear_weights(img.shape[0], 32)
    wx = _bilinear_weights(img.shape[1], 32)
    r, g, b = (wy @ img[:, :, c] @ wx.T for c in range(3))
    gray = 0.299 * r + 0.587 * g + 0.114 * b
    n = np.arange(32)
    cos = np.array([np.cos(math.pi * (2 * n + 1) * u / 64.0) for u in range(8)])
    alpha = np.array([math.sqrt(1 / 32)] + [math.sqrt(2 / 32)] * 7)
    block = np.outer(alpha, alpha) * np.einsum("uy,vx,yx->uv", cos, cos, gray)
    mean = block.mean()
    value = mask = 0
    for k, c in enumerate(block.ravel()):
        if c > mean:
            value |= 1 << (63 - k)
        if abs(c - mean) <= 1e-9 * float(np.abs(block).max()):
            mask |= 1 << (63 - k)
    return value, mask


def hash_problems(label: str, image: np.ndarray, program_hash: int) -> list[str]:
    ref, mask = ref_phash(image)
    if (ref ^ program_hash) & ~mask & _MASK:
        return [f"{label}: hash {program_hash:016x} != reference {ref:016x}"]
    return []


def distance_problems(label: str, images: list[np.ndarray], d_min: int) -> list[str]:
    hashes = [ref_phash(img)[0] for img in images]
    best = min(
        (bin(a ^ b).count("1") for i, a in enumerate(hashes) for b in hashes[i + 1 :]), default=64
    )
    return [] if best >= d_min else [f"{label}: minimum pairwise distance {best} < d_min {d_min}"]


# --------------------------------------------------------------------------
# Ledger
# --------------------------------------------------------------------------

def ledger_lines(data: bytes) -> list[bytes]:
    return data.split(b"\n")[:-1] if data.endswith(b"\n") else data.split(b"\n")


def chain_problems(label: str, data: bytes, head: str) -> list[str]:
    """Recompute the SHA-256 chain and the head sidecar."""
    prev = GENESIS
    for i, line in enumerate(ledger_lines(data)):
        try:
            obj = json.loads(line)
        except ValueError:
            return [f"{label}: record {i + 1} is not JSON"]
        if obj.get("seq") != i + 1:
            return [f"{label}: record {i + 1} has seq {obj.get('seq')!r}"]
        if obj.get("prev_digest") != prev:
            return [f"{label}: record {i + 1} prev_digest does not chain"]
        prev = hashlib.sha256(line).hexdigest()
    if head.strip() != prev:
        return [f"{label}: head {head.strip()[:16]}... != digest of the last record"]
    return []


def registration_problems(label: str, data: bytes, seq: int, p_expected: int, owner: str) -> list[str]:
    lines = ledger_lines(data)
    if not 1 <= seq <= len(lines):
        return [f"{label}: no record {seq}"]
    obj = json.loads(lines[seq - 1])
    if obj.get("p_hex") != format(p_expected, "016x") or obj.get("owner_id") != owner:
        return [f"{label}: record {seq} holds {obj.get('owner_id')}/{obj.get('p_hex')}, "
                f"expected {owner}/{p_expected:016x}"]
    return []


def claim_problems(label: str, expected_seq: int, got_seq: int | None) -> list[str]:
    return [] if got_seq == expected_seq else [f"{label}: claim resolved to {got_seq}, expected {expected_seq}"]


# --------------------------------------------------------------------------
# Models and verdicts
# --------------------------------------------------------------------------

def accuracy_problems(label: str, accuracy: float, floor: float) -> list[str]:
    return [] if accuracy >= floor else [f"{label}: accuracy {accuracy:.3f} < {floor}"]


def watermark_problems(label: str, own_accuracy: float, drop: float, theta1: float) -> list[str]:
    out = []
    if not own_accuracy > theta1:
        out.append(f"{label}: own-trigger accuracy {own_accuracy:.3f} <= theta1 {theta1}")
    if drop > MAX_FIDELITY_DROP + 1e-12:  # drop is a whole number of test images
        out.append(f"{label}: fidelity drop {drop:.3f} > {MAX_FIDELITY_DROP}")
    return out


def verdict_problems(label: str, expected: str, verdict: str) -> list[str]:
    return [] if verdict == expected else [f"{label}: verdict {verdict!r}, expected {expected!r}"]


def near_chance(hits: int, n: int, classes: int) -> bool:
    p = 1.0 / classes
    return n > 0 and abs(hits / n - p) <= CHANCE_SIGMAS * math.sqrt(p * (1 - p) / n)


def acpt_problems(label: str, leaker: str, accuracy: dict[str, float], verdict: str,
                  n: int, classes: int) -> list[str]:
    out = verdict_problems(label, leaker, verdict)
    if accuracy[leaker] < TRACE_ACCEPT:
        out.append(f"{label}: leaker accuracy {accuracy[leaker]:.3f} < {TRACE_ACCEPT}")
    for user, acc in accuracy.items():
        if user == leaker:
            continue
        if acc > TRACE_REJECT:
            out.append(f"{label}: {user} accuracy {acc:.3f} > {TRACE_REJECT}")
        if not near_chance(round(acc * n), n, classes):
            out.append(f"{label}: unauthorized accuracy {acc:.3f} is not near 1/{classes}")
    return out


def response_problems(responses: list[tuple[str, str, int, dict]], expected: np.ndarray,
                      labels: np.ndarray, classes: int) -> list[str]:
    """Gateway answers: (request id, kind, query index, response object)."""
    out = []
    key_sets = set()
    hits = unauthorized = 0
    for rid, kind, qi, obj in responses:
        key_sets.add(tuple(sorted(obj)))
        if obj.get("request_id") != rid:
            out.append(f"request {rid}: echoed request_id {obj.get('request_id')!r}")
        cls = obj.get("class")
        if not isinstance(cls, int) or not 0 <= cls < classes:
            out.append(f"request {rid}: class {cls!r} outside [0, {classes})")
        elif kind == "auth":
            if cls != int(expected[qi]):
                out.append(f"request {rid}: authorized class {cls} != in-process {int(expected[qi])}")
        else:
            unauthorized += 1
            hits += int(cls == int(labels[qi]))
    if len(key_sets) > 1:
        out.append(f"responses differ in key sets: {sorted(key_sets)}")
    if unauthorized and not near_chance(hits, unauthorized, classes):
        out.append(f"unauthorized label agreement {hits}/{unauthorized} is not near 1/{classes}")
    return out[:20]


# --------------------------------------------------------------------------
# One run
# --------------------------------------------------------------------------

def check_run(run, deps) -> list[str]:
    """Judge every output a run kept (set-ups and rounds)."""
    problems: list[str] = []
    ref_cache: dict[int, int] = {}

    def ref(img: np.ndarray) -> int:
        if id(img) not in ref_cache:
            ref_cache[id(img)] = ref_phash(img)[0]
        return ref_cache[id(img)]

    inputs = deps[-1].inputs
    test = inputs.test
    problems += hash_problems("owner fingerprint", inputs.owner_fp, phash.phash_image(inputs.owner_fp))
    owner_ref = ref(inputs.owner_fp)

    base_hits = {}
    for i, (inp, base) in enumerate(run.out["bases"]):
        base_hits[id(base)] = int(np.sum(tinynn.predict(base, inp.test.inputs) == inp.test.labels))
        problems += accuracy_problems(f"base model {i}", base_hits[id(base)] / len(inp.test), BASE_ACCURACY_FLOOR)

    ledgers: dict = {}
    for k, done in enumerate(run.out["onboarded"]):
        label = f"onboarding {k} ({done.user})"
        for i, img in enumerate(done.triggers.images):
            problems += hash_problems(f"{label} trigger {i}", img, phash.phash_image(img))
        problems += distance_problems(label, done.triggers.images, D_MIN)
        own = np.stack([media.to_model_input(img, done.copy.input_shape) for img in done.triggers.images])
        own_acc = float(np.mean(tinynn.predict(done.copy, own) == done.triggers.label))
        wm_hits = int(np.sum(tinynn.predict(done.copy, test.inputs, restrict_classes=10) == test.labels))
        drop = (base_hits[id(done.base)] - wm_hits) / len(test)
        problems += watermark_problems(label, own_acc, drop, THRESHOLDS.theta1)
        got = [r.seq for r in done.records]
        want = list(range(done.first_seq, done.first_seq + len(done.triggers)))
        if got != want:
            problems.append(f"{label}: append returned seqs {got[:3]}..., expected {want[:3]}...")
        ledgers.setdefault(done.ledger_path, []).append(done)

    for path, onboarded in ledgers.items():
        data = path.read_bytes()
        head = path.with_name(path.name + ".head").read_text()
        label = f"ledger {path.name}"
        problems += chain_problems(label, data, head)
        if not data.startswith(b"".join(line + b"\n" for line in inputs.ledger_lines)):
            problems.append(f"{label}: earlier records changed")
        for done in onboarded:
            for i, img in enumerate(done.triggers.images):
                problems += registration_problems(label, data, done.first_seq + i, ref(img) ^ owner_ref, OWNER)

    for dep in deps:
        data = dep.ledger_path.read_bytes()
        n = len(ledger_lines(data))
        for j, user in enumerate(USERS):
            p = ref(dep.onboarded[user].triggers.images[0]) ^ owner_ref
            problems += registration_problems(f"ledger {dep.dir.name} rival", data, n - len(USERS) + 1 + j, p, RIVAL)
        for user in USERS:
            key = dep.keys[user]
            problems += hash_problems(f"{user} enrolled key", key, phash.phash_image(key))
            value = int.from_bytes(dep.credentials[user].encrypted_username.encode("ascii"), "big") ^ ref(key)
            if dep.identity.entries.get(value) != user:
                problems.append(f"{user}: enrolled verification value does not match the reference")

    # First record of each fingerprint, from the benchmark's own record of the layout.
    dep = deps[-1]
    first_seq: dict[int, int] = {}
    order = [int(json.loads(line)["p_hex"], 16) for line in inputs.ledger_lines]
    order += [ref(img) ^ owner_ref for user in USERS for img in dep.onboarded[user].triggers.images]
    order += [ref(dep.onboarded[user].triggers.images[0]) ^ owner_ref for user in USERS]
    for seq, p in enumerate(order, start=1):
        first_seq.setdefault(p, seq)
    for user, index, record in run.out["claims"]:
        p = ref(dep.onboarded[user].triggers.images[index]) ^ owner_ref
        problems += claim_problems(f"claim {user} trigger {index}", first_seq[p],
                                   None if record is None else record.seq)

    for name, report in run.out["traces"]:
        problems += verdict_problems(f"trace {name}", pcpt.TRACEABILITY_FAILURE, report.verdict)
        if any(report.per_user_trigger_accuracy.values()):
            problems.append(f"trace {name}: a clean model emitted the extra class")
    for leaker, report, n in run.out["acpt"]:
        problems += acpt_problems(f"acpt trace, {leaker} leaked", leaker, report.per_user_accuracy,
                                  report.verdict, n, dep.base.num_classes)

    if run.out["responses"]:
        # The authorized answer to each query: the base model's in-process prediction.
        queries = np.stack([media.to_model_input(q, dep.base.input_shape) for q in inputs.queries])
        problems += response_problems(
            [(rid, kind, qi, obj) for rid, kind, qi, _, _, obj in run.out["responses"]],
            tinynn.predict(dep.base, queries),
            test.labels,
            dep.base.num_classes,
        )
    return problems
