"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Desk-scale analogues of the full experiments: a 10-class digit set of 10k+
training images stands in for MNIST, synthetic texture videos provide the
trigger frames, and geometric image classes provide the authorization keys.
Heavy artifacts (trained base, two 50-epoch embeds, detectors) are built
once in module-scoped fixtures and shared across criteria.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import json
import socket
import time
from contextlib import contextmanager

import numpy as np
import pytest

from modelmark import acpt, gateway, ledger, media, pcpt, phash, synthdata, tinynn
from modelmark.gateway import InferRequest, request_seed
from modelmark.pcpt import TRACEABILITY_FAILURE, TraceThresholds
from modelmark.tinynn import TrainConfig

from test_phash import oracle_phash

THETA1 = 0.85
THETA2 = 0.60
EMBED_EPOCHS = 50
TRAIN_SIZE = 10_000
TEST_SIZE = 2_000
TRIGGERS_PER_USER = 100
FRAMES_PER_VIDEO = 220
D_MIN = 16
FRACTION = 0.10
EMBED_BUDGET_SECONDS = 900.0

THRESHOLDS = TraceThresholds(theta1=THETA1, theta2=THETA2)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} FAIL - {label}", flush=True)
        raise
    print(f"ACCEPTANCE {number:>2} PASS - {label}", flush=True)


# --------------------------------------------------------------------------
# Shared fixtures
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def digits(tmp_path_factory):
    """Digit datasets written to and re-read through the IDX pipeline."""
    root = tmp_path_factory.mktemp("idx")
    train = synthdata.synthetic_digits(TRAIN_SIZE, seed=100)
    test = synthdata.synthetic_digits(TEST_SIZE, seed=200)
    synthdata.write_idx_files(train, root / "train-img.idx", root / "train-lbl.idx")
    synthdata.write_idx_files(test, root / "test-img.idx", root / "test-lbl.idx")
    return (
        tinynn.load_idx(root / "train-img.idx", root / "train-lbl.idx"),
        tinynn.load_idx(root / "test-img.idx", root / "test-lbl.idx"),
    )


@pytest.fixture(scope="module")
def base_model(digits):
    train, _ = digits
    model = tinynn.init_model((1, 28, 28), tinynn.desk_cnn_layers(10), 10, seed=0)
    return tinynn.train(
        model, train, TrainConfig(epochs=3, batch_size=64, learning_rate=0.05, seed=1)
    )


@pytest.fixture(scope="module")
def trigger_sets():
    """Per-user trigger sets cut from synthetic videos via the Y4M pipeline."""
    sets = {}
    for user, style, seed in (("Alice", "skyline", 11), ("Bob", "seabed", 22)):
        video = synthdata.texture_video(FRAMES_PER_VIDEO, seed=seed, style=style)
        stream = synthdata.write_y4m(video, chroma="C444")
        decoded = media.decode_y4m(stream, source_id=f"{user}-key-video")
        sets[user] = media.select_triggers(
            decoded, TRIGGERS_PER_USER, user_id=user, label=10, d_min=D_MIN
        )
    return sets


@pytest.fixture(scope="module")
def embedded(base_model, digits, trigger_sets):
    """Both users' watermarked models plus wall-clock embedding times."""
    train, _ = digits
    out = {}
    for user, seed in (("Alice", 2), ("Bob", 3)):
        cfg = TrainConfig(
            epochs=EMBED_EPOCHS, batch_size=32, learning_rate=0.01, momentum=0.9, seed=seed
        )
        started = time.monotonic()
        result = pcpt.embed_watermark(
            base_model, train, trigger_sets[user], cfg, fraction=FRACTION
        )
        out[user] = {"result": result, "seconds": time.monotonic() - started}
    return out


@pytest.fixture(scope="module")
def acpt_world(base_model, digits):
    """Two enrolled users with trained detectors over the shared digit model."""
    rings = synthdata.key_image_class("rings", 150, seed=50)
    spots = synthdata.key_image_class("spots", 150, seed=51)
    others_a = synthdata.key_image_class("other", 150, seed=52)
    others_b = synthdata.key_image_class("other", 150, seed=53)
    cfg = TrainConfig(epochs=50, batch_size=32, learning_rate=0.02, seed=60)
    det_alice = acpt.train_detector(rings[:100], others_a[:100] + spots[:20], cfg)
    det_bob = acpt.train_detector(spots[:100], others_b[:100] + rings[:20], cfg)
    cred_alice = acpt.make_credential("user1", "HN", range(8))
    cred_bob = acpt.make_credential("user2", "HN", range(8, 16))
    base = acpt.enroll(acpt.IdentityBase(), cred_alice, rings[0], "Alice")
    base = acpt.enroll(base, cred_bob, spots[0], "Bob")
    return {
        "rings": rings,
        "spots": spots,
        "others": {"Alice": others_a, "Bob": others_b},
        "detectors": {"Alice": det_alice, "Bob": det_bob},
        "credentials": {"Alice": cred_alice, "Bob": cred_bob},
        "identity_base": base,
        "bundles": {
            "Alice": acpt.UserKeyBundle("Alice", rings[:4], det_alice, cred_alice),
            "Bob": acpt.UserKeyBundle("Bob", spots[:4], det_bob, cred_bob),
        },
        "model": base_model,
    }


# --------------------------------------------------------------------------
# PCPT criteria
# --------------------------------------------------------------------------

def test_criterion_1_pcpt_effectiveness(digits, trigger_sets, embedded):
    with criterion(1, "PCPT effectiveness: own-trigger > theta1, cross < theta2"):
        train, _ = digits
        assert len(train) >= 10_000
        assert all(len(ts) == TRIGGERS_PER_USER for ts in trigger_sets.values())
        for user, other in (("Alice", "Bob"), ("Bob", "Alice")):
            model = embedded[user]["result"].model
            own = pcpt.trigger_set_accuracy(model, trigger_sets[user])
            cross = pcpt.trigger_set_accuracy(model, trigger_sets[other])
            assert own > THETA1, f"{user}: own-trigger accuracy {own}"
            assert cross < THETA2, f"{user}: cross-trigger accuracy {cross}"
            assert embedded[user]["seconds"] <= EMBED_BUDGET_SECONDS
            print(
                f"    {user}: own {own:.3f} cross {cross:.3f} "
                f"embed {embedded[user]['seconds']:.0f}s"
            )


def test_criterion_2_fidelity(base_model, digits, embedded):
    with criterion(2, "fidelity: original-task accuracy drop <= 2 points"):
        _, test = digits
        for user in ("Alice", "Bob"):
            model = embedded[user]["result"].model
            delta = pcpt.fidelity_report(base_model, model, test)
            assert delta <= 0.02, f"{user}: accuracy drop {delta}"
            # decision-boundary sanity: the extra class must stay confined to
            # trigger content, not bleed onto ordinary inputs
            extra_rate = float(np.mean(tinynn.predict(model, test.inputs) == 10))
            assert extra_rate <= 0.05, f"{user}: extra-class rate {extra_rate}"
            print(f"    {user}: accuracy delta {delta:+.4f}, extra-class rate {extra_rate:.4f}")


def test_criterion_3_zero_false_positives(base_model, trigger_sets):
    with criterion(3, "zero false positives on the unwatermarked base model"):
        sets = list(trigger_sets.values())
        first = pcpt.trace(base_model, sets, THRESHOLDS)
        second = pcpt.trace(base_model, sets, THRESHOLDS)
        assert first == second  # deterministic
        assert first.verdict == TRACEABILITY_FAILURE
        assert all(acc == 0.0 for acc in first.per_user_trigger_accuracy.values())


def test_criterion_4_finetune_robustness(digits, trigger_sets, embedded):
    with criterion(4, "verdict survives a 50-epoch fine-tuning attack"):
        _, test = digits
        sets = list(trigger_sets.values())
        cfg = TrainConfig(epochs=1, batch_size=32, learning_rate=0.01, seed=7)
        _, report = pcpt.finetune_attack(
            embedded["Alice"]["result"].model, test, sets, THRESHOLDS,
            epochs=EMBED_EPOCHS, cfg=cfg,
        )
        acc = report.per_user_trigger_accuracy
        assert report.verdict == "Alice"
        assert acc["Alice"] > THETA1
        assert acc["Bob"] < THETA2
        print(
            f"    after attack: T-Alice {acc['Alice']:.3f} T-Bob {acc['Bob']:.3f} "
            f"T-Original {report.original_task_accuracy:.4f}"
        )


def test_criterion_5_pruning_robustness(digits, trigger_sets, embedded):
    with criterion(5, "verdict holds at prune rate 0.5; sweep table emitted"):
        _, test = digits
        sets = list(trigger_sets.values())
        rates = [round(0.1 * i, 1) for i in range(10)]
        rows = pcpt.prune_sweep(embedded["Alice"]["result"].model, rates, sets, test)
        assert [row.rate for row in rows] == rates
        print("    rate  T-Original  T-Alice  T-Bob")
        for row in rows:
            print(
                f"    {row.rate:.1f}   {row.original_accuracy:.4f}      "
                f"{row.trigger_accuracy['Alice']:.3f}    {row.trigger_accuracy['Bob']:.3f}"
            )
        at_half = rows[5]
        assert at_half.rate == 0.5
        pruned = tinynn.global_magnitude_prune(embedded["Alice"]["result"].model, 0.5)
        report = pcpt.trace(pruned, sets, THRESHOLDS)
        assert report.verdict == "Alice"
        assert at_half.trigger_accuracy["Alice"] > THETA1
        assert at_half.trigger_accuracy["Bob"] < THETA2
        # own-trigger accuracy decays (at most) with rate, within a 5-point band
        for earlier, later in zip(rows, rows[1:]):
            assert (
                later.trigger_accuracy["Alice"]
                <= earlier.trigger_accuracy["Alice"] + 0.05
            )


# --------------------------------------------------------------------------
# Primitive criteria
# --------------------------------------------------------------------------

def test_criterion_6_phash_oracle_equivalence():
    with criterion(6, "dct_phash matches the step-by-step oracle on 1000 images"):
        rng = np.random.default_rng(1234)
        for i in range(1000):
            img = rng.integers(0, 256, (32, 32, 3)).astype(np.uint8)
            assert phash.phash_image(img) == oracle_phash(img), f"image {i}"
        for i in range(50):
            gray = rng.uniform(0.0, 255.0, (32, 32))
            reference = phash.dct_phash(gray)
            for alpha in (0.5, 2.0):
                assert phash.dct_phash(alpha * gray) == reference


def test_criterion_7_gradient_correctness():
    with criterion(7, "gradient check <= 1e-4 on dense and conv fixtures"):
        rng = np.random.default_rng(7)
        dense = tinynn.init_model(
            (10,),
            (tinynn.Dense(8), tinynn.Relu(), tinynn.Dense(4), tinynn.SoftmaxOutput()),
            4, seed=1,
        )
        err_dense = tinynn.gradient_check(
            dense, rng.standard_normal((6, 10)), rng.integers(0, 4, 6)
        )
        conv = tinynn.init_model(
            (1, 8, 8),
            (tinynn.Conv2d(3, 3), tinynn.Relu(), tinynn.MaxPool2d(2),
             tinynn.Dense(5), tinynn.SoftmaxOutput()),
            5, seed=2,
        )
        err_conv = tinynn.gradient_check(
            conv, rng.standard_normal((4, 1, 8, 8)), rng.integers(0, 5, 4)
        )
        print(f"    max relative error: dense {err_dense:.2e}, conv {err_conv:.2e}")
        assert err_dense <= 1e-4
        assert err_conv <= 1e-4


def test_criterion_8_ledger_tamper_and_priority(tmp_path):
    with criterion(8, "ledger: every single-byte tamper detected; earliest claim wins"):
        rng = np.random.default_rng(88)
        store = ledger.OwnershipLedger(tmp_path / "chain.ndjson")
        for i in range(100):
            store.append(f"owner{i % 7}", int(rng.integers(0, 2**63)), note=f"rec{i}")
        assert store.verify_chain() is None
        original = store.path.read_bytes()
        undetected = 0
        # flip and restore each byte in place: a truncating rewrite per flip
        # costs a synchronous discard on some file systems
        with open(store.path, "r+b") as fh:
            for offset in range(len(original)):
                fh.seek(offset)
                fh.write(bytes([original[offset] ^ 0x01]))
                fh.flush()
                if store.verify_chain() is None:
                    undetected += 1
                fh.seek(offset)
                fh.write(original[offset : offset + 1])
                fh.flush()
        assert store.path.read_bytes() == original
        assert undetected == 0, f"{undetected} byte flips went unnoticed"
        assert store.verify_chain() is None

        trigger = rng.integers(0, 256, (16, 16, 3)).astype(np.uint8)
        fingerprint = rng.integers(0, 256, (16, 16, 3)).astype(np.uint8)
        p = ledger.fingerprint_bind(trigger, fingerprint)
        first = store.append("Owner", p, note="legitimate claim")
        store.append("Eve", p, note="later forgery")
        resolved = store.verify_ownership(trigger, fingerprint)
        assert resolved.seq == first.seq
        assert resolved.owner_id == "Owner"
        print(f"    {len(original)} byte positions checked, dispute -> seq {resolved.seq}")


# --------------------------------------------------------------------------
# ACPT criteria
# --------------------------------------------------------------------------

def test_criterion_9_authorization_gap(acpt_world, digits):
    with criterion(9, "unauthorized ~ 1/N; authorized - unauthorized >= 50 points"):
        _, test = digits
        world = acpt_world
        bundles = [world["bundles"]["Alice"]]
        cred = world["credentials"]["Alice"].encrypted_username
        key = world["rings"][0]
        n = 1000
        assert n >= 500
        gen = np.random.default_rng(777)
        denied = acpt.decide(bundles, world["identity_base"], "00000000", key)
        unauthorized = sum(
            acpt.authorize(denied, test.inputs[i], world["model"], gen) == test.labels[i]
            for i in range(n)
        ) / n
        granted = acpt.decide(bundles, world["identity_base"], cred, key)
        authorized = sum(
            acpt.authorize(granted, test.inputs[i], world["model"], gen) == test.labels[i]
            for i in range(n)
        ) / n
        print(f"    unauthorized {unauthorized:.4f}, authorized {authorized:.4f}")
        assert abs(unauthorized - 0.10) <= 0.03
        assert authorized - unauthorized >= 0.50


def test_criterion_10_validator_completeness_and_soundness(acpt_world):
    with criterion(10, "validator: 100% completeness; 0/100000 random acceptances"):
        world = acpt_world
        base = world["identity_base"]
        assert len(base.entries) == 2
        pairs = {"Alice": world["rings"][0], "Bob": world["spots"][0]}
        for user, key in pairs.items():
            cred = world["credentials"][user]
            assert acpt.validate(base, cred.encrypted_username, key) == user
        rng = np.random.default_rng(4242)
        alphabet = np.frombuffer(acpt.HEX_ALPHABET.encode(), dtype=np.uint8)
        key = world["rings"][0]
        key_hash = phash.phash_image(key)
        hits = 0
        for _ in range(100_000):
            fake = bytes(rng.choice(alphabet, 8)).decode()
            hits += (acpt.credential_bits(fake) ^ key_hash) in base.entries
        assert hits == 0


def test_criterion_11_detector_accuracy(acpt_world):
    with criterion(11, "held-out detector accuracy >= 0.95"):
        world = acpt_world
        pools = {"Alice": world["rings"], "Bob": world["spots"]}
        for user in ("Alice", "Bob"):
            detector = world["detectors"][user]
            positives = pools[user][100:150]
            negatives = world["others"][user][100:150]
            hits = sum(acpt.detector_accepts(detector, img) for img in positives)
            rejections = sum(not acpt.detector_accepts(detector, img) for img in negatives)
            accuracy = (hits + rejections) / (len(positives) + len(negatives))
            print(f"    {user}: held-out detector accuracy {accuracy:.3f}")
            assert accuracy >= 0.95


def test_criterion_12_acpt_traceability(acpt_world, digits):
    with criterion(12, "leaked deployment probes name the correct user"):
        _, test = digits
        world = acpt_world
        probes = {
            user: (world["credentials"][user].encrypted_username,
                   {"Alice": world["rings"], "Bob": world["spots"]}[user][0])
            for user in ("Alice", "Bob")
        }
        report = acpt.trace_acpt(
            [world["bundles"]["Bob"]],  # Bob leaked his copy
            world["identity_base"],
            world["model"],
            probes,
            test.subset(np.arange(500)),
            seed=3,
        )
        acc = report.per_user_accuracy
        print(f"    probe accuracies: Alice {acc['Alice']:.3f}, Bob {acc['Bob']:.3f}")
        assert acc["Bob"] >= acpt.TRACE_ACCEPT
        assert acc["Alice"] <= acpt.TRACE_REJECT
        assert report.verdict == "Bob"


def test_criterion_13_key_sample_secrecy(acpt_world):
    with criterion(13, "key images are byte-identical to their originals (MSE 0)"):
        world = acpt_world
        originals = synthdata.key_image_class("rings", 150, seed=50)
        distributed = world["rings"]
        assert len(distributed) >= 100
        for a, b in zip(distributed[:100], originals[:100]):
            assert media.mse(a, b) == 0.0


def test_criterion_14_gateway_loopback_and_schema(acpt_world, digits):
    with criterion(14, "gateway loopback equals in-process authorize; schema stable"):
        _, test = digits
        world = acpt_world
        service_seed = 99
        service = gateway.GatewayService(
            ("127.0.0.1", 0),
            [world["bundles"]["Alice"]],
            world["model"],
            world["identity_base"],
            seed=service_seed,
        )
        try:
            key_bytes = media.write_ppm(world["rings"][0])
            good = world["credentials"]["Alice"].encrypted_username
            schemas = set()
            for i in range(100):
                rid = f"fixture-{i}"
                credential = good if i % 2 == 0 else "00000000"
                sample = (test.inputs[i, 0] * 255.0).astype(np.uint8)
                query_rgb = np.repeat(sample[:, :, None], 3, axis=2)
                request = InferRequest(
                    request_id=rid,
                    credential=credential,
                    key_image=key_bytes,
                    query_image=media.write_ppm(query_rgb),
                )
                with socket.create_connection(service.address, timeout=10.0) as sock:
                    sock.sendall(request.to_json().encode() + b"\n")
                    raw = sock.makefile("rb").readline()
                obj = json.loads(raw)
                schemas.add(tuple(obj.keys()))
                direct = acpt.authorize(
                    acpt.decide(
                        [world["bundles"]["Alice"]],
                        world["identity_base"],
                        credential,
                        world["rings"][0],
                    ),
                    media.to_model_input(query_rgb, world["model"].input_shape),
                    world["model"],
                    rng=request_seed(service_seed, rid),
                )
                assert obj["class"] == direct, f"request {rid}"
                assert obj["request_id"] == rid
            assert len(schemas) == 1  # field set and order identical across outcomes
            print(f"    100 requests loopback-equal; response schema {schemas.pop()}")
        finally:
            service.close()
