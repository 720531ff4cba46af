"""Seeded inputs and the deployment every run builds during set-up.

A deployment is what an owner runs: a base classifier, two users'
watermarked copies with their trigger fingerprints registered in a large
ownership ledger, two key-image detectors with enrolled credentials, and a
gateway server answering on loopback. Every input is generated here from the
run's seed; the program only ever sees the generated data and files.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from modelmark import acpt, ledger, media, pcpt, synthdata, tinynn
from modelmark.tinynn import TrainConfig

HERE = Path(__file__).resolve().parent

USERS = ("Alice", "Bob")
OWNER = "Owner"
RIVAL = "Eve"
EXTRA_CLASS = 10
STYLE = {"Alice": "skyline", "Bob": "seabed"}
KEY_KIND = {"Alice": "rings", "Bob": "spots"}

# Sizes: large enough that each operation does the work it does for an
# operator (a trained classifier, tens of triggers, a ledger of hundreds of
# records), small enough that three set-ups and a measured window fit in
# well under a minute on two cores. Training settings hold the checks'
# floors on every seed tried: with 1000 training images, 10% of them is too
# few originals to keep the task while embedding.
TRAIN_SIZE = 1000
TEST_SIZE = 500
BASE_EPOCHS = 2
FRAMES = 120
TRIGGERS = 32
D_MIN = 16
EMBED_EPOCHS = 8
FRACTION = 0.20
LEDGER_RECORDS = 600
KEYS_PER_USER = 60
DETECTOR_POSITIVES = 40
DETECTOR_EPOCHS = 24
CLAIMS_PER_USER = 4
QUERY_POOL = 100

THRESHOLDS = pcpt.TraceThresholds()


def derive(seed: int, label: str) -> int:
    """A 31-bit seed for one input, fixed by the run seed and a label."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


@dataclass
class Inputs:
    seed: int
    train: tinynn.LabeledDataset
    test: tinynn.LabeledDataset
    videos: dict[str, bytes]
    owner_fp: np.ndarray
    keys: dict[str, list[np.ndarray]]
    others: list[np.ndarray]
    k1: dict[str, tuple[int, ...]]
    forged: list[str]
    ledger_lines: list[bytes]
    queries: list[np.ndarray]
    query_b64: list[str]


def make_inputs(seed: int) -> Inputs:
    train = synthdata.synthetic_digits(TRAIN_SIZE, seed=derive(seed, "train"))
    test = synthdata.synthetic_digits(TEST_SIZE, seed=derive(seed, "test"))
    videos = {
        user: synthdata.write_y4m(
            synthdata.texture_video(FRAMES, seed=derive(seed, f"video-{user}"), style=STYLE[user]),
            chroma="C444",
        )
        for user in USERS
    }
    owner_fp = synthdata.key_image_class("other", 1, seed=derive(seed, "owner-fp"))[0]
    keys = {
        user: synthdata.key_image_class(KEY_KIND[user], KEYS_PER_USER, seed=derive(seed, f"keys-{user}"))
        for user in USERS
    }
    others = synthdata.key_image_class("other", 2 * DETECTOR_POSITIVES + 20, seed=derive(seed, "others"))
    rng = np.random.default_rng(derive(seed, "misc"))
    k1 = {user: tuple(int(i) for i in rng.choice(64, 8, replace=False)) for user in USERS}
    forged = ["".join(rng.choice(list(acpt.HEX_ALPHABET), 8)) for _ in range(4)]
    queries = [
        np.repeat(np.rint(test.inputs[i, 0] * 255.0).astype(np.uint8)[:, :, None], 3, axis=2)
        for i in range(QUERY_POOL)
    ]
    return Inputs(
        seed=seed,
        train=train,
        test=test,
        videos=videos,
        owner_fp=owner_fp,
        keys=keys,
        others=others,
        k1=k1,
        forged=forged,
        ledger_lines=filler_ledger(rng, LEDGER_RECORDS),
        queries=queries,
        query_b64=[media.encode_base64_image(q) for q in queries],
    )


def filler_ledger(rng: np.random.Generator, count: int) -> list[bytes]:
    """Earlier owners' records, chained by SHA-256 exactly as the format says."""
    start = datetime(2024, 1, 1, tzinfo=timezone.utc)
    owners = ("Carol", "Dave", "Frank", "Grace", "Heidi")
    prev = "0" * 64
    lines = []
    for i in range(count):
        line = json.dumps(
            {
                "seq": i + 1,
                "timestamp": (start + timedelta(minutes=i)).strftime("%Y-%m-%dT%H:%M:%SZ"),
                "owner_id": owners[int(rng.integers(len(owners)))],
                "p_hex": format(int(rng.integers(0, 2**63)) * 2 + int(rng.integers(2)), "016x"),
                "prev_digest": prev,
                "note": f"filler {i}",
            },
            separators=(",", ":"),
        ).encode()
        lines.append(line)
        prev = hashlib.sha256(line).hexdigest()
    return lines


def write_ledger(path: Path, lines: list[bytes]) -> None:
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    Path(str(path) + ".head").write_text(hashlib.sha256(lines[-1]).hexdigest() + "\n")


def train_base(inputs: Inputs) -> tinynn.ModelSnapshot:
    model = tinynn.init_model(
        (1, 28, 28), tinynn.desk_cnn_layers(10), 10, seed=derive(inputs.seed, "base-init")
    )
    cfg = TrainConfig(
        epochs=BASE_EPOCHS, batch_size=16, learning_rate=0.03, seed=derive(inputs.seed, "base-train")
    )
    return tinynn.train(model, inputs.train, cfg)


def embed_config(inputs: Inputs, user: str) -> TrainConfig:
    return TrainConfig(
        epochs=EMBED_EPOCHS,
        batch_size=32,
        learning_rate=0.01,
        momentum=0.9,
        seed=derive(inputs.seed, f"embed-{user}"),
    )


@dataclass
class Onboarded:
    """One user's onboarding: triggers, watermarked copy, ledger records."""

    user: str
    base: tinynn.ModelSnapshot
    triggers: media.TriggerSet
    copy: tinynn.ModelSnapshot
    ledger_path: Path
    first_seq: int
    records: list[ledger.LedgerRecord]


@dataclass
class Deployment:
    inputs: Inputs
    dir: Path
    base: tinynn.ModelSnapshot
    onboarded: dict[str, Onboarded]
    ledger_path: Path
    claims: list[tuple[str, int]]  # (user, trigger index) of each fingerprint claimed
    detectors: dict[str, tinynn.ModelSnapshot]
    keys: dict[str, np.ndarray]  # the enrolled key image of each user
    credentials: dict[str, acpt.Credential]
    identity: acpt.IdentityBase
    bundles: dict[str, acpt.UserKeyBundle]
    service_seed: int
    server: subprocess.Popen | None = None
    address: tuple[str, int] | None = None
    server_spans: Path | None = None
    key_b64: dict[str, str] = field(default_factory=dict)  # enrolled key, gateway wire form
    wrong_key_b64: dict[str, str] = field(default_factory=dict)  # a key image never enrolled
    callers: list = field(default_factory=list)  # (socket, reader) per caller


def train_detector(inputs: Inputs, user: str) -> tinynn.ModelSnapshot:
    other_user = USERS[1 - USERS.index(user)]
    offset = USERS.index(user) * DETECTOR_POSITIVES
    negatives = inputs.others[offset : offset + DETECTOR_POSITIVES] + inputs.keys[other_user][:10]
    # Batch 16 at rate 0.01: at batch 32 and rate 0.02 the detector often
    # collapses to "reject everything" on this little data.
    cfg = TrainConfig(
        epochs=DETECTOR_EPOCHS, batch_size=16, learning_rate=0.01, seed=derive(inputs.seed, f"det-{user}")
    )
    return acpt.train_detector(inputs.keys[user][:DETECTOR_POSITIVES], negatives, cfg)


def enrolled_key(detector: tinynn.ModelSnapshot, candidates: list[np.ndarray]) -> np.ndarray:
    """The key an owner would issue: the one the user's detector accepts most surely.

    A detector need not accept every image it was trained on, and a key it
    rejects would make that user's every request unauthorized.
    """
    batch = np.stack([media.to_model_input(img, detector.input_shape) for img in candidates])
    return candidates[int(np.argmax(tinynn.forward(detector, batch)[:, 1]))]


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def start_server(dep: Deployment, root: Path, trace: bool) -> None:
    """Start `modelmark serve` on a free loopback port and wait until it accepts.

    The port is chosen here and passed on the command line, so nothing is
    read from the server's stdout.
    """
    model_path = dep.dir / "base.tnn"
    identity_path = dep.dir / "identity.ndjson"
    tinynn.save_model(dep.base, model_path)
    dep.identity.save(identity_path)
    args = ["serve", "--model", str(model_path), "--base", str(identity_path), "--seed", str(dep.service_seed)]
    for user in USERS:
        det_path = dep.dir / f"detector-{user}.tnn"
        tinynn.save_model(dep.detectors[user], det_path)
        args += ["--detector", f"{user}={det_path}"]
    port = free_port()
    args += ["--bind", f"127.0.0.1:{port}"]
    if trace:
        dep.server_spans = dep.dir / "server-spans.json"
        cmd = [sys.executable, str(HERE / "serve_traced.py"), str(dep.server_spans), *args]
    else:
        cmd = [sys.executable, "-m", "modelmark.cli", *args]
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    log = open(dep.dir / "server.log", "wb")
    try:
        dep.server = subprocess.Popen(
            cmd, cwd=root, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log
        )
    finally:
        log.close()
    deadline = time.monotonic() + 60.0
    try:
        while True:
            if dep.server.poll() is not None:
                raise RuntimeError(
                    f"server exited with code {dep.server.returncode}: "
                    + (dep.dir / "server.log").read_text(errors="replace")[-2000:]
                )
            try:
                socket.create_connection(("127.0.0.1", port), timeout=1.0).close()
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise RuntimeError("server did not accept connections within 60 s")
                time.sleep(0.01)
    except BaseException:
        stop_server(dep)  # the caller never sees this deployment, so stop its server here
        raise
    dep.address = ("127.0.0.1", port)


def stop_server(dep: Deployment) -> None:
    """Terminate the server and wait for it to exit.

    SIGTERM, not SIGINT: `serve` waits in Thread.join, and a SIGINT that the
    kernel hands to one of its other threads never interrupts that join.
    """
    for sock, reader in dep.callers:
        reader.close()
        sock.close()
    dep.callers.clear()
    proc = dep.server
    if proc is None or proc.poll() is not None:
        return
    proc.terminate()
    try:
        proc.wait(timeout=20.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()

