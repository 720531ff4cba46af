"""The operations a run times: set-up, onboarding, investigation and traffic.

Every operation records its latency in `Run.samples` and keeps what it
returned in `Run.out`, so the checks can judge the outputs after the
measured window ends.
"""

from __future__ import annotations

import itertools
import json
import socket
import threading
import time
from collections import defaultdict
from pathlib import Path

from modelmark import acpt, ledger, media, pcpt, tinynn
from world import (
    CLAIMS_PER_USER,
    D_MIN,
    DETECTOR_POSITIVES,
    EXTRA_CLASS,
    FRACTION,
    LEDGER_RECORDS,
    OWNER,
    QUERY_POOL,
    RIVAL,
    THRESHOLDS,
    TRIGGERS,
    USERS,
    Deployment,
    Onboarded,
    derive,
    embed_config,
    enrolled_key,
    make_inputs,
    start_server,
    train_base,
    train_detector,
    write_ledger,
)

CALLERS = 2
# One caller round: 16 authorized requests, 2 with a forged credential and
# 2 with the caller's own credential but a key image that was never enrolled.
ROUND_KINDS = tuple(
    "forged" if pos in (4, 14) else "wrong_key" if pos in (9, 19) else "auth" for pos in range(20)
)


class Run:
    """Samples, counts and outputs of one benchmark run."""

    def __init__(self, tracer=None):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.out: dict[str, list] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.tracer = tracer
        self.meter_training = True
        self.traffic_s = 0.0
        self.traffic_windows: list[tuple[int, int]] = []  # monotonic ns of each traffic phase
        self.rounds: list[tuple[int, int]] = []  # monotonic ns of each workload round
        self.request_ids = [itertools.count() for _ in range(CALLERS)]

    def attempt(self, name: str, fn, *args, **kwargs):
        """Run one counted operation; an exception counts it as failed."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is reported, not fatal
            self.failed += 1
            self.errors.append(f"{name}: {exc!r}")
            return None


def meter_training(run: Run) -> None:
    """Time every tinynn.train call, base and embeds alike, from outside."""
    original = tinynn.train

    def train(model, data, cfg):
        started = time.perf_counter()
        out = original(model, data, cfg)
        if run.meter_training:
            run.samples["train_s"].append(time.perf_counter() - started)
            run.samples["train_images"].append(len(data) * cfg.epochs)
        return out

    tinynn.train = train


# --------------------------------------------------------------------------
# Onboarding (passive path, owner side)
# --------------------------------------------------------------------------

def onboard_user(run: Run, dep_dir: Path, inputs, base, user: str, ledger_path: Path) -> Onboarded:
    """Select triggers from the user's video, embed them, register each fingerprint."""
    started = time.perf_counter()
    video = media.decode_y4m((dep_dir / f"{user}.y4m").read_bytes(), source_id=f"{user}-video")
    triggers = media.select_triggers(video, TRIGGERS, user_id=user, label=EXTRA_CLASS, d_min=D_MIN)
    copy = pcpt.embed_watermark(base, inputs.train, triggers, embed_config(inputs, user), FRACTION).model
    store = ledger.OwnershipLedger(ledger_path)
    records = []
    for i, img in enumerate(triggers.images):
        p = ledger.fingerprint_bind(img, inputs.owner_fp)
        t0 = time.perf_counter()
        records.append(store.append(OWNER, p, note=f"{user} trigger {i}"))
        run.samples["register_ms"].append((time.perf_counter() - t0) * 1e3)
    run.samples["onboard_s"].append(time.perf_counter() - started)
    # Every ledger starts with the filler records, then Alice's triggers, then Bob's.
    first_seq = LEDGER_RECORDS + USERS.index(user) * TRIGGERS + 1
    done = Onboarded(user, base, triggers, copy, ledger_path, first_seq, records)
    run.out["onboarded"].append(done)
    return done


def build_deployment(run: Run, seed: int, dep_dir: Path, root: Path, trace: bool) -> Deployment:
    """The whole set-up: inputs, models, files, ledger, detectors and a live server."""
    inputs = make_inputs(seed)
    dep_dir.mkdir(parents=True)
    for user in USERS:
        (dep_dir / f"{user}.y4m").write_bytes(inputs.videos[user])
    ledger_path = dep_dir / "ledger.ndjson"
    write_ledger(ledger_path, inputs.ledger_lines)
    base = train_base(inputs)
    run.out["bases"].append((inputs, base))
    onboarded = {user: onboard_user(run, dep_dir, inputs, base, user, ledger_path) for user in USERS}
    # A later rival claims the first trigger fingerprint of each user.
    store = ledger.OwnershipLedger(ledger_path)
    for user in USERS:
        p = ledger.fingerprint_bind(onboarded[user].triggers.images[0], inputs.owner_fp)
        t0 = time.perf_counter()
        store.append(RIVAL, p, note="rival claim")
        run.samples["register_ms"].append((time.perf_counter() - t0) * 1e3)
    claims = [(user, i) for user in USERS for i in range(CLAIMS_PER_USER)]

    run.meter_training = False
    detectors = {user: train_detector(inputs, user) for user in USERS}
    run.meter_training = True
    keys = {user: enrolled_key(detectors[user], inputs.keys[user][:DETECTOR_POSITIVES]) for user in USERS}
    credentials = {
        user: acpt.make_credential(f"user{i + 1}", "HN", inputs.k1[user]) for i, user in enumerate(USERS)
    }
    identity = acpt.IdentityBase()
    for user in USERS:
        identity = acpt.enroll(identity, credentials[user], keys[user], user)
    bundles = {
        user: acpt.UserKeyBundle(user, inputs.keys[user][:4], detectors[user], credentials[user])
        for user in USERS
    }
    dep = Deployment(
        inputs=inputs,
        dir=dep_dir,
        base=base,
        onboarded=onboarded,
        ledger_path=ledger_path,
        claims=claims,
        detectors=detectors,
        keys=keys,
        credentials=credentials,
        identity=identity,
        bundles=bundles,
        service_seed=derive(seed, "service"),
    )
    dep.key_b64 = {user: media.encode_base64_image(keys[user]) for user in USERS}
    dep.wrong_key_b64 = {user: media.encode_base64_image(inputs.others[-1 - i]) for i, user in enumerate(USERS)}
    start_server(dep, root, trace)
    return dep


def onboard_round(run: Run, dep: Deployment, index: int) -> None:
    """Train a fresh base, then onboard both users onto a fresh copy of the large ledger."""
    base = run.attempt("train", train_base, dep.inputs)
    ledger_path = dep.dir / f"round{index}.ndjson"
    write_ledger(ledger_path, dep.inputs.ledger_lines)
    for user in USERS:  # without a base model, embedding raises and the onboarding fails
        run.attempt("onboard", onboard_user, run, dep.dir, dep.inputs, base, user, ledger_path)
    if base is not None:
        run.out["bases"].append((dep.inputs, base))


# --------------------------------------------------------------------------
# Investigation (passive and active tracing, ownership claims)
# --------------------------------------------------------------------------

def trace_base(run: Run, dep: Deployment) -> None:
    """Trace the clean base model against both users' trigger sets.

    Watermarked copies are not traced: on some seeds a copy's watermark also
    fires on the other user's triggers, so its verdict is a traceability
    failure instead of its user (see CHANGES.md). The work of a trace is the
    same whichever suspect is traced.
    """
    sets = [dep.onboarded[user].triggers for user in USERS]
    t0 = time.perf_counter()
    report = pcpt.trace(dep.base, sets, THRESHOLDS, test=dep.inputs.test)
    run.samples["trace_s"].append(time.perf_counter() - t0)
    run.out["traces"].append(("base", report))


def trace_deployment(run: Run, dep: Deployment, leaker: str) -> None:
    """Probe a deployment that only knows the leaker's detector with every user's key."""
    probes = {user: (dep.credentials[user].encrypted_username, dep.keys[user]) for user in USERS}
    if run.tracer is not None:
        authorized = probes[leaker][0]
        run.tracer.branch_of = lambda args: "auth" if args[2] == authorized else "unauth"
    t0 = time.perf_counter()
    report = acpt.trace_acpt(
        [dep.bundles[leaker]],
        dep.identity,
        dep.base,
        probes,
        dep.inputs.test,
        seed=derive(dep.inputs.seed, "acpt-trace"),
    )
    run.samples["acpt_trace_s"].append(time.perf_counter() - t0)
    run.out["acpt"].append((leaker, report, len(dep.inputs.test)))


def claim(run: Run, dep: Deployment, user: str, index: int) -> None:
    store = ledger.OwnershipLedger(dep.ledger_path)
    img = dep.onboarded[user].triggers.images[index]
    t0 = time.perf_counter()
    record = store.verify_ownership(img, dep.inputs.owner_fp)
    run.samples["claim_ms"].append((time.perf_counter() - t0) * 1e3)
    run.out["claims"].append((user, index, record))


# --------------------------------------------------------------------------
# Gateway traffic (active path, over the wire)
# --------------------------------------------------------------------------

def traffic(run: Run, dep: Deployment, rounds: int) -> None:
    """Closed loop: each caller sends its next request only after the reply.

    Each caller keeps one connection for the whole run and sends `rounds`
    rounds of ROUND_KINDS.
    """
    if not dep.callers:
        for _ in range(CALLERS):
            sock = socket.create_connection(dep.address, timeout=30.0)
            dep.callers.append((sock, sock.makefile("rb")))
    results: list[list[tuple]] = [[] for _ in range(CALLERS)]
    errors: list[str] = []

    def caller(c: int) -> None:
        user = USERS[c]
        cred = dep.credentials[user].encrypted_username
        forged = dep.inputs.forged[c]
        key = dep.key_b64[user]
        wrong = dep.wrong_key_b64[user]
        sock, rfile = dep.callers[c]
        try:
            for _ in range(rounds):
                for kind in ROUND_KINDS:
                    n = next(run.request_ids[c])
                    rid = f"{user}-{n}"
                    qi = (n * 7 + c * 31) % QUERY_POOL
                    line = '{"request_id":"%s","credential":"%s","key_image":"%s","query_image":"%s"}\n' % (
                        rid,
                        forged if kind == "forged" else cred,
                        wrong if kind == "wrong_key" else key,
                        dep.inputs.query_b64[qi],
                    )
                    t0 = time.monotonic_ns()
                    sock.sendall(line.encode())
                    raw = rfile.readline()
                    t1 = time.monotonic_ns()
                    results[c].append((rid, kind, qi, t0, t1, raw))
        except OSError as exc:
            errors.append(f"caller {c}: {exc!r}")

    threads = [threading.Thread(target=caller, args=(c,)) for c in range(CALLERS)]
    t0 = time.monotonic_ns()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    t1 = time.monotonic_ns()
    run.traffic_windows.append((t0, t1))
    run.traffic_s += (t1 - t0) / 1e9
    run.errors.extend(errors)

    attempted = CALLERS * rounds * len(ROUND_KINDS)
    answered = 0
    for rows in results:
        for rid, kind, qi, t_send, t_recv, raw in rows:
            try:
                obj = json.loads(raw)
            except ValueError:
                obj = None
            if not isinstance(obj, dict) or "class" not in obj:
                run.errors.append(f"request {rid}: {raw[:200]!r}")
                continue
            answered += 1
            run.samples["req_ms"].append((t_recv - t_send) / 1e6)
            run.out["responses"].append((rid, kind, qi, t_send, t_recv, obj))
    run.attempted += attempted
    run.failed += attempted - answered


# Operations per round of each workload. Every round also runs the other
# operations a little, so every run measures every end-to-end metric with
# samples spread over its whole window; training, onboarding and
# registration are also measured in each set-up.
MIX = {
    "onboard": (("onboard", 1), ("trace", 4), ("acpt", 1), ("claim", 8), ("traffic", 5)),
    "investigate": (("trace", 3), ("acpt", 2), ("claim", 8), ("traffic", 5)),
    "gateway": (("traffic", 10), ("trace", 2), ("acpt", 1), ("claim", 4)),
}


def workload_round(run: Run, dep: Deployment, workload: str) -> None:
    index = len(run.rounds)
    t0 = time.monotonic_ns()
    for op, count in MIX[workload]:
        if op == "onboard":
            onboard_round(run, dep, index)
        elif op == "trace":
            for _ in range(count):
                run.attempt("trace", trace_base, run, dep)
        elif op == "acpt":
            for j in range(count):
                run.attempt("acpt_trace", trace_deployment, run, dep, USERS[(index + j) % len(USERS)])
        elif op == "claim":
            for j in range(count):
                user, i = dep.claims[(index * count + j) % len(dep.claims)]
                run.attempt("claim", claim, run, dep, user, i)
        else:
            traffic(run, dep, rounds=count)
    run.rounds.append((t0, time.monotonic_ns()))

