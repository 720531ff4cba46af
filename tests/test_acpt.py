"""Authorization control center: credentials, validator algebra, detector
behavior, the authorize decision, and leak tracing."""

import hashlib

import numpy as np
import pytest

from modelmark import acpt, phash, synthdata, tinynn
from modelmark.errors import CollisionError, FormatError, InvalidInputError
from modelmark.tinynn import Dense, LabeledDataset, SoftmaxOutput, TrainConfig


class TestMakeCredential:
    def test_first_eight_positions_match_sha256_oracle(self):
        cred = acpt.make_credential("user1", "HN", k1=range(8))
        expected = hashlib.sha256(b"HN_user1").hexdigest()[:8]
        assert cred.encrypted_username == expected

    def test_k1_order_is_extraction_order(self):
        digest = hashlib.sha256(b"HN_user1").hexdigest()
        cred = acpt.make_credential("user1", "HN", k1=[63, 0, 7, 31, 15, 3, 42, 11])
        assert cred.encrypted_username == "".join(
            digest[i] for i in [63, 0, 7, 31, 15, 3, 42, 11]
        )

    def test_deterministic(self):
        a = acpt.make_credential("user9", "HN", k1=range(8))
        b = acpt.make_credential("user9", "HN", k1=range(8))
        assert a == b

    def test_distinct_usernames_distinct_credentials(self):
        k1 = range(8)
        a = acpt.make_credential("user1", "HN", k1)
        b = acpt.make_credential("user2", "HN", k1)
        assert a.encrypted_username != b.encrypted_username

    def test_k1_validation(self):
        with pytest.raises(InvalidInputError):
            acpt.make_credential("u", "HN", k1=[0, 0, 1, 2, 3, 4, 5, 6])
        with pytest.raises(InvalidInputError):
            acpt.make_credential("u", "HN", k1=[0, 1, 2, 3, 4, 5, 6, 64])
        with pytest.raises(InvalidInputError):
            acpt.make_credential("u", "HN", k1=range(7))


class TestValidator:
    def _key_image(self, seed=0):
        return np.random.default_rng(seed).integers(0, 256, (16, 16, 3)).astype(np.uint8)

    def test_enroll_then_validate_round_trip(self):
        cred = acpt.make_credential("user1", "HN", range(8))
        key = self._key_image(1)
        base = acpt.enroll(acpt.IdentityBase(), cred, key, "Alice")
        assert acpt.validate(base, cred.encrypted_username, key) == "Alice"

    def test_duplicate_enrollment_collides(self):
        cred = acpt.make_credential("user1", "HN", range(8))
        key = self._key_image(2)
        base = acpt.enroll(acpt.IdentityBase(), cred, key, "Alice")
        with pytest.raises(CollisionError, match="Alice.*Bob"):
            acpt.enroll(base, cred, key, "Bob")

    def test_verification_value_composed_from_oracles(self):
        # uniform mid-gray key image hashes to exactly the DC bit, so the
        # verification value is the credential bits with the top bit flipped
        cred = acpt.make_credential("user1", "HN", range(8))
        gray = np.full((32, 32, 3), 128, dtype=np.uint8)
        m1 = int.from_bytes(cred.encrypted_username.encode(), "big")
        assert phash.phash_image(gray) == 0x8000000000000000
        assert acpt.verification_value(cred.encrypted_username, gray) == m1 ^ (1 << 63)

    def test_wrong_key_image_rejected(self):
        cred = acpt.make_credential("user1", "HN", range(8))
        base = acpt.enroll(acpt.IdentityBase(), cred, self._key_image(3), "Alice")
        assert acpt.validate(base, cred.encrypted_username, self._key_image(4)) is None

    def test_malformed_credential_is_an_error_not_a_no(self):
        base = acpt.IdentityBase()
        with pytest.raises(InvalidInputError):
            acpt.validate(base, "1234567", self._key_image(5))

    def test_monte_carlo_soundness_small(self):
        # random credentials against |Q| = 2: expected acceptance 2/16^8
        key = self._key_image(6)
        base = acpt.IdentityBase()
        for i, user in enumerate(("Alice", "Bob")):
            cred = acpt.make_credential(f"user{i}", "HN", range(8))
            base = acpt.enroll(base, cred, key, user)
        rng = np.random.default_rng(7)
        alphabet = np.frombuffer(acpt.HEX_ALPHABET.encode(), dtype=np.uint8)
        hits = 0
        for _ in range(10_000):
            fake = bytes(rng.choice(alphabet, 8)).decode()
            hits += acpt.validate(base, fake, key) is not None
        assert hits == 0

    def test_non_ascii_credential_is_invalid_input(self):
        with pytest.raises(InvalidInputError):
            acpt.credential_bits("é" * 8)
        with pytest.raises(InvalidInputError):
            acpt.validate(acpt.IdentityBase(), "é" * 8, self._key_image(1))

    @pytest.mark.parametrize(
        "line",
        [
            b"not json",
            b'{"user_id": "Bob"}',
            b'["Bob", "0000000000000001"]',
            b'{"user_id": "Bob", "i_hex": "not-a-hex-value!"}',
            b'{"user_id": "Bob", "i_hex": 1}',
            b'{"user_id": "\xff", "i_hex": "0000000000000002"}',
        ],
    )
    def test_malformed_identity_base_line_is_format_error(self, tmp_path, line):
        path = tmp_path / "identity.ndjson"
        path.write_bytes(b'{"user_id":"Alice","i_hex":"0000000000000001"}\n' + line + b"\n")
        with pytest.raises(FormatError, match="line 2"):
            acpt.IdentityBase.load(path)

    def test_identity_base_persistence(self, tmp_path):
        base = acpt.IdentityBase()
        for i, user in enumerate(("Alice", "Bob")):
            cred = acpt.make_credential(f"user{i}", "HN", range(8))
            base = acpt.enroll(base, cred, self._key_image(10 + i), user)
        path = tmp_path / "identity.ndjson"
        base.save(path)
        assert acpt.IdentityBase.load(path) == base


def _detector_world(seed=0):
    keys = synthdata.key_image_class("rings", 24, seed=seed)
    others = synthdata.key_image_class("other", 24, seed=seed + 1)
    cfg = TrainConfig(epochs=25, batch_size=8, learning_rate=0.02, seed=seed)
    detector = acpt.train_detector(keys[:16], others[:16], cfg, input_shape=(1, 14, 14))
    return detector, keys, others


class TestDetector:
    def test_training_positive_accepted(self):
        detector, keys, _ = _detector_world()
        assert acpt.detector_accepts(detector, keys[0])

    def test_held_out_separation(self):
        detector, keys, others = _detector_world()
        key_hits = sum(acpt.detector_accepts(detector, img) for img in keys[16:])
        other_hits = sum(acpt.detector_accepts(detector, img) for img in others[16:])
        assert key_hits >= 7  # of 8 held-out positives
        assert other_hits <= 1  # of 8 held-out negatives

    def test_empty_pools_rejected(self):
        with pytest.raises(InvalidInputError):
            acpt.train_detector([], [np.zeros((8, 8, 3), dtype=np.uint8)], TrainConfig(epochs=1))


def _brightness_true_model(num_classes=10):
    m = tinynn.init_model((1, 4, 4), (Dense(num_classes), SoftmaxOutput()), num_classes, seed=0)
    m.weights[0] = np.zeros_like(m.weights[0])
    m.biases[0] = np.zeros_like(m.biases[0])
    m.weights[0][num_classes - 1, :] = 1.0 / 16.0
    m.biases[0][0] = 0.5
    return m


def _bucket_dataset(n=60, seed=0):
    """Half bright items labeled 9, half dark labeled 0; matches the rigged model."""
    rng = np.random.default_rng(seed)
    bright = rng.uniform(0.8, 1.0, (n // 2, 1, 4, 4))
    dark = rng.uniform(0.0, 0.2, (n - n // 2, 1, 4, 4))
    inputs = np.concatenate([bright, dark]).astype(np.float32)
    labels = np.array([9] * (n // 2) + [0] * (n - n // 2), dtype=np.int64)
    order = rng.permutation(n)
    return LabeledDataset(inputs[order], labels[order], 10)


class TestAuthorize:
    def _world(self):
        detector, keys, _ = _detector_world(seed=3)
        cred = acpt.make_credential("user1", "HN", range(8))
        base = acpt.enroll(acpt.IdentityBase(), cred, keys[0], "Alice")
        bundle = acpt.UserKeyBundle(
            user_id="Alice", key_images=keys[:4], detector=detector, credential=cred
        )
        return [bundle], base, cred, keys, _brightness_true_model()

    def test_legitimate_user_gets_true_prediction(self):
        bundles, base, cred, keys, model = self._world()
        query = np.full((1, 4, 4), 0.9, dtype=np.float32)
        decided = acpt.decide(bundles, base, cred.encrypted_username, keys[0])
        got = acpt.authorize(decided, query, model, rng=0)
        assert got == int(np.argmax(tinynn.forward(model, query)))

    def test_wrong_credential_gets_seeded_random_class(self):
        bundles, base, cred, keys, model = self._world()
        query = np.full((1, 4, 4), 0.9, dtype=np.float32)
        decided = acpt.decide(bundles, base, "00000000", keys[0])
        a = acpt.authorize(decided, query, model, rng=123)
        b = acpt.authorize(decided, query, model, rng=123)
        assert a == b  # replayable
        draws = {acpt.authorize(decided, query, model, rng=s) for s in range(40)}
        assert len(draws) > 3  # actually random across seeds

    def test_unrelated_key_image_is_unauthorized(self):
        bundles, base, cred, keys, model = self._world()
        impostor_key = synthdata.key_image_class("other", 1, seed=77)[0]
        query = np.full((1, 4, 4), 0.9, dtype=np.float32)
        decided = acpt.decide(bundles, base, cred.encrypted_username, impostor_key)
        outputs = {acpt.authorize(decided, query, model, rng=s) for s in range(40)}
        assert len(outputs) > 3  # random classes, not the fixed true answer

    def test_response_is_class_index_in_both_branches(self):
        bundles, base, cred, keys, model = self._world()
        query = np.full((1, 4, 4), 0.9, dtype=np.float32)
        ok = acpt.authorize(
            acpt.decide(bundles, base, cred.encrypted_username, keys[0]), query, model, rng=0
        )
        bad = acpt.authorize(acpt.decide(bundles, base, "abcdef12", keys[0]), query, model, rng=0)
        for value in (ok, bad):
            assert isinstance(value, int)
            assert 0 <= value < model.num_classes

    def test_query_shape_mismatch(self):
        model = _brightness_true_model()
        with pytest.raises(InvalidInputError):
            acpt.authorize(True, np.zeros((1, 5, 5), dtype=np.float32), model, rng=0)


class TestConstantWork:
    """Both branches of a decision, and of an answer, do the same work."""

    @pytest.fixture(scope="class")
    def world(self):
        detector, keys, _ = _detector_world(seed=3)
        alice = acpt.make_credential("user1", "HN", range(8))
        bob = acpt.make_credential("user2", "HN", range(8))
        base = acpt.enroll(acpt.IdentityBase(), alice, keys[0], "Alice")
        base = acpt.enroll(base, bob, keys[1], "Bob")
        # Carol is first, so hers is the decoy; Bob validates but has no bundle here
        carol = acpt.UserKeyBundle("Carol", [], detector.copy(), alice)
        own = acpt.UserKeyBundle("Alice", keys[:4], detector, alice)
        return {
            "bundles": [carol, own],
            "base": base,
            "model": _brightness_true_model(),
            "requests": {
                "authorized": (alice.encrypted_username, keys[0]),
                "forged credential": ("00000000", keys[0]),
                "wrong key": (alice.encrypted_username, synthdata.key_image_class("other", 1, seed=77)[0]),
                "user without a bundle": (bob.encrypted_username, keys[1]),
            },
        }

    CASES = ["authorized", "forged credential", "wrong key", "user without a bundle"]

    @pytest.mark.parametrize("case", CASES)
    def test_authorize_runs_one_hash_one_detector_one_model(self, world, count_work, case):
        credential, key = world["requests"][case]
        query = np.full((1, 4, 4), 0.9, dtype=np.float32)
        counts = count_work(world["model"])
        decided = acpt.decide(world["bundles"], world["base"], credential, key)
        got = acpt.authorize(decided, query, world["model"], rng=5)
        assert (counts["phash"], counts["detector"], counts["model"]) == (1, 1, 1)
        carol, own = world["bundles"]
        assert counts["detectors"] == [own.detector if case == "authorized" else carol.detector]
        if case == "authorized":
            assert got == 9  # the bright query's true class
        else:
            assert got == int(np.random.default_rng(5).integers(0, 10))

    @pytest.mark.parametrize("decided", [True, False])
    def test_given_decision_skips_the_decision_only(self, world, count_work, decided):
        query = np.full((1, 4, 4), 0.9, dtype=np.float32)
        counts = count_work(world["model"])
        got = acpt.authorize(decided, query, world["model"], rng=5)
        assert (counts["phash"], counts["detector"], counts["model"]) == (0, 0, 1)
        assert got == (9 if decided else int(np.random.default_rng(5).integers(0, 10)))

    def test_decide_matches_each_case(self, world):
        outcomes = {
            case: acpt.decide(world["bundles"], world["base"], *world["requests"][case])
            for case in self.CASES
        }
        assert outcomes == {case: case == "authorized" for case in self.CASES}

    def test_decide_without_bundles_is_invalid_input(self, world):
        with pytest.raises(InvalidInputError):
            acpt.decide([], world["base"], *world["requests"]["authorized"])


def _leaked_world():
    """A deployment carrying only Bob's authorization center, probed with
    Alice's key (validates, but no bundle of hers) and Bob's (unlocks)."""
    rings_det, rings, _ = _detector_world(seed=5)
    spots = synthdata.key_image_class("spots", 24, seed=9)
    others = synthdata.key_image_class("other", 24, seed=10)
    spots_det = acpt.train_detector(
        spots[:16], others[:16] + rings[:8],
        TrainConfig(epochs=25, batch_size=8, learning_rate=0.02, seed=6),
        input_shape=(1, 14, 14),
    )
    cred_a = acpt.make_credential("user1", "HN", range(8))
    cred_b = acpt.make_credential("user2", "HN", range(8))
    base = acpt.enroll(acpt.IdentityBase(), cred_a, rings[0], "Alice")
    base = acpt.enroll(base, cred_b, spots[0], "Bob")
    leaked_bundle = acpt.UserKeyBundle(
        user_id="Bob", key_images=spots[:4], detector=spots_det, credential=cred_b
    )
    probes = {
        "Alice": (cred_a.encrypted_username, rings[0]),
        "Bob": (cred_b.encrypted_username, spots[0]),
    }
    return [leaked_bundle], base, _brightness_true_model(), probes


class TestTraceAcpt:
    def test_leaker_named_by_unlocking_key(self):
        bundles, base, model, probes = _leaked_world()
        test = _bucket_dataset(n=60, seed=11)
        report = acpt.trace_acpt(bundles, base, model, probes=probes, test=test, seed=0)
        assert report.per_user_accuracy["Bob"] >= acpt.TRACE_ACCEPT
        assert report.per_user_accuracy["Alice"] <= acpt.TRACE_REJECT
        assert report.verdict == "Bob"

    def test_equals_per_sample_authorize_loop(self):
        bundles, base, model, probes = _leaked_world()
        test = _bucket_dataset(n=80, seed=14)
        seed = 3
        expected = {}
        for user_id, (cred, key) in probes.items():
            gen = np.random.default_rng(
                int.from_bytes(hashlib.sha256(f"{seed}:{user_id}".encode()).digest()[:8], "big")
            )
            decided = acpt.decide(bundles, base, cred, key)
            hits = sum(
                acpt.authorize(decided, test.inputs[i], model, gen) == test.labels[i]
                for i in range(len(test))
            )
            expected[user_id] = hits / len(test)
        report = acpt.trace_acpt(bundles, base, model, probes=probes, test=test, seed=seed)
        assert report.per_user_accuracy == expected
        assert 0 < expected["Alice"] < acpt.TRACE_REJECT  # the random draws are compared too
        assert report.verdict == "Bob"

    def test_decides_once_per_probe_and_runs_one_batch(self, monkeypatch):
        bundles, base, model, probes = _leaked_world()
        test = _bucket_dataset(n=50, seed=15)
        counts = {"phash": 0, "detector": 0}
        model_rows = []

        def counting(module, attr, key):
            original = getattr(module, attr)

            def wrapper(*args):
                counts[key] += 1
                return original(*args)

            monkeypatch.setattr(module, attr, wrapper)

        counting(phash, "phash_image", "phash")
        counting(acpt, "detector_accepts", "detector")
        original_forward = tinynn.forward

        def forward(m, x):
            if m is model:
                model_rows.append(len(x))
            return original_forward(m, x)

        monkeypatch.setattr(tinynn, "forward", forward)
        report = acpt.trace_acpt(bundles, base, model, probes=probes, test=test, seed=0)
        assert report.verdict == "Bob"
        assert counts["phash"] == len(probes)
        assert counts["detector"] <= len(probes)
        assert model_rows == [len(test)]  # only Bob's probe unlocks the model

    def test_empty_test_set_is_invalid_input(self):
        bundles, base, model, probes = _leaked_world()
        empty = LabeledDataset(np.zeros((0, 1, 4, 4), dtype=np.float32), np.zeros(0, dtype=np.int64), 10)
        with pytest.raises(InvalidInputError):
            acpt.trace_acpt(bundles, base, model, probes=probes, test=empty, seed=0)

    def test_no_discrimination_is_inconclusive(self):
        detector, keys, _ = _detector_world(seed=7)
        cred = acpt.make_credential("user1", "HN", range(8))
        base = acpt.enroll(acpt.IdentityBase(), cred, keys[0], "Alice")
        bundle = acpt.UserKeyBundle(
            user_id="Alice", key_images=keys[:2], detector=detector, credential=cred
        )
        model = _brightness_true_model()
        test = _bucket_dataset(n=40, seed=12)
        # both probes use Alice's working key: both unlock, no unique leaker
        report = acpt.trace_acpt(
            [bundle], base, model,
            probes={
                "Alice": (cred.encrypted_username, keys[0]),
                "Bob": (cred.encrypted_username, keys[0]),
            },
            test=test, seed=1,
        )
        assert report.verdict == acpt.INCONCLUSIVE

    def test_no_key_unlocking_is_inconclusive(self):
        detector, keys, _ = _detector_world(seed=8)
        base = acpt.IdentityBase()  # nothing enrolled: nobody validates
        bundle = acpt.UserKeyBundle(
            user_id="Alice",
            key_images=keys[:2],
            detector=detector,
            credential=acpt.make_credential("user1", "HN", range(8)),
        )
        model = _brightness_true_model()
        test = _bucket_dataset(n=40, seed=13)
        report = acpt.trace_acpt(
            [bundle], base, model,
            probes={
                "Alice": ("0" * 8, keys[0]),
                "Bob": ("1234abcd", keys[1]),
            },
            test=test, seed=2,
        )
        assert report.verdict == acpt.INCONCLUSIVE
        assert all(a <= 0.35 for a in report.per_user_accuracy.values())

    def test_requires_two_probes(self):
        model = _brightness_true_model()
        with pytest.raises(InvalidInputError):
            acpt.trace_acpt(
                [], acpt.IdentityBase(), model,
                probes={"Alice": ("0" * 8, np.zeros((8, 8, 3), dtype=np.uint8))},
                test=_bucket_dataset(n=10), seed=0,
            )
