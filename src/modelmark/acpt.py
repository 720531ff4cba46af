"""Active copyright protection: the authorization control center.

A request carries a key image and an 8-character credential. The per-user
detector (a binary classifier) must accept the key image, and the validator
must find XOR(credential bits, key-image perceptual hash) in the enrolled
identity base. Authorized queries get the true model's prediction;
everything else gets a seeded uniformly random class, so the response shape
never betrays which branch ran.

Authorization does constant work: every decision (`decide`) runs the
validator and exactly one detector forward pass (a decoy detector when no
enrolled user with a detector here validates), and every answer
(`authorize`) runs the model forward pass and one draw from the seeded
stream before the decision picks one of the two. Neither branch skips work
the other does.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import media, phash, tinynn
from .errors import CollisionError, FormatError, InvalidInputError
from .pcpt import leader_and_best_other
from .tinynn import LabeledDataset, ModelSnapshot, TrainConfig

HEX_ALPHABET = "0123456789abcdef"
CREDENTIAL_LENGTH = 8

# Verdict thresholds for leak tracing: the leaker's key must unlock nearly
# full accuracy while every other key stays near the random-guess floor.
TRACE_ACCEPT = 0.80
TRACE_REJECT = 0.30
INCONCLUSIVE = "inconclusive"


def _check_k1(k1) -> tuple[int, ...]:
    """k1 as a tuple; raises unless it holds 8 distinct digest positions in [0, 64)."""
    k1 = tuple(k1)
    if len(k1) != CREDENTIAL_LENGTH or len(set(k1)) != CREDENTIAL_LENGTH:
        raise InvalidInputError("k1 must hold 8 distinct indices")
    if any(not 0 <= i < 64 for i in k1):
        raise InvalidInputError("k1 indices must lie in [0, 64)")
    return k1


@dataclass(frozen=True)
class Credential:
    username: str
    encrypted_username: str
    k1: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "k1", _check_k1(self.k1))
        if len(self.encrypted_username) != CREDENTIAL_LENGTH:
            raise InvalidInputError("encrypted_username must be 8 characters")
        if any(c not in HEX_ALPHABET for c in self.encrypted_username):
            raise InvalidInputError("encrypted_username must use the SHA-256 hex alphabet")


def make_credential(username: str, owner_fp: str, k1) -> Credential:
    """Derive the 8-character credential from SHA-256(owner_fp + "_" + username).

    k1 lists which digest positions are extracted, in extraction order.
    """
    k1 = _check_k1(int(i) for i in k1)
    try:
        digest_input = f"{owner_fp}_{username}".encode("ascii")
    except UnicodeEncodeError as exc:
        raise InvalidInputError("owner_fp and username must be ASCII") from exc
    m = hashlib.sha256(digest_input).hexdigest()
    encrypted = "".join(m[i] for i in k1)
    return Credential(username=username, encrypted_username=encrypted, k1=k1)


def request_seed(seed: int, request_id: str) -> int:
    """Seed of the random-class stream for one request (a gateway request id,
    or the user a trace probes as); replays reproduce. A lone surrogate,
    which a JSON string may carry, is hashed as its code unit."""
    digest = hashlib.sha256(f"{seed}:{request_id}".encode("utf-8", "surrogatepass")).digest()
    return int.from_bytes(digest[:8], "big")


def credential_bits(encrypted_username: str) -> int:
    """Pack the 8 ASCII bytes into 64 bits, first character most significant."""
    if len(encrypted_username) != CREDENTIAL_LENGTH:
        raise InvalidInputError(
            f"credential must be 8 characters, got {len(encrypted_username)}"
        )
    if not encrypted_username.isascii():
        raise InvalidInputError("credential must be ASCII")
    return int.from_bytes(encrypted_username.encode("ascii"), "big")


@dataclass(frozen=True)
class IdentityBase:
    """Enrolled verification values: I -> user_id."""

    entries: dict[int, str] = field(default_factory=dict)

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for value in sorted(self.entries):
                fh.write(
                    json.dumps(
                        {"user_id": self.entries[value], "i_hex": phash.to_hex(value)},
                        separators=(",", ":"),
                    )
                    + "\n"
                )

    @classmethod
    def load(cls, path: str | Path) -> "IdentityBase":
        entries: dict[int, str] = {}
        for number, line in enumerate(Path(path).read_bytes().splitlines(), 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line.decode("utf-8"))
                entries[phash.from_hex(obj["i_hex"])] = obj["user_id"]
            except (ValueError, KeyError, TypeError) as exc:
                raise FormatError(f"{path}: line {number}: malformed entry ({exc!r})") from exc
        return cls(entries=entries)


def verification_value(encrypted_username: str, key_image: np.ndarray) -> int:
    """I = credential bits XOR perceptual hash of the key image."""
    return credential_bits(encrypted_username) ^ phash.phash_image(key_image)


def enroll(
    base: IdentityBase,
    credential: Credential,
    key_image: np.ndarray,
    user_id: str,
) -> IdentityBase:
    """Register a (credential, key image) pair; returns a new base."""
    value = verification_value(credential.encrypted_username, key_image)
    if value in base.entries:
        raise CollisionError(
            f"verification value collision between {base.entries[value]!r} "
            f"and {user_id!r}"
        )
    return IdentityBase(entries={**base.entries, value: user_id})


def validate(
    base: IdentityBase,
    encrypted_username: str,
    key_image: np.ndarray,
) -> str | None:
    """Membership test in the identity base; returns the user_id or None.

    A malformed credential length raises InvalidInputError rather than
    returning None, so callers can distinguish bad requests from failed
    authentication.
    """
    return base.entries.get(verification_value(encrypted_username, key_image))


@dataclass(frozen=True)
class UserKeyBundle:
    """Everything issued to one user: key images, detector, credential."""

    user_id: str
    key_images: list[np.ndarray]
    detector: ModelSnapshot
    credential: Credential

    def __post_init__(self):
        if self.detector.num_classes != 2:
            raise InvalidInputError("detector must be a 2-class model")


def detector_layers() -> tuple[tinynn.LayerSpec, ...]:
    """Compact CNN for the binary key-image decision."""
    return (
        tinynn.Conv2d(8, 3),
        tinynn.Relu(),
        tinynn.MaxPool2d(2),
        tinynn.Conv2d(16, 3),
        tinynn.Relu(),
        tinynn.MaxPool2d(2),
        tinynn.Dense(32),
        tinynn.Relu(),
        tinynn.Dense(2),
        tinynn.SoftmaxOutput(),
    )


def train_detector(
    key_images: list[np.ndarray],
    other_images: list[np.ndarray],
    cfg: TrainConfig,
    input_shape: tuple[int, ...] = (1, 28, 28),
) -> ModelSnapshot:
    """Train a binary classifier: class 1 = key image, class 0 = anything else."""
    if not key_images or not other_images:
        raise InvalidInputError("need at least one key image and one other image")
    inputs = np.stack(
        [media.to_model_input(img, input_shape) for img in key_images]
        + [media.to_model_input(img, input_shape) for img in other_images]
    )
    labels = np.concatenate(
        [np.ones(len(key_images), dtype=np.int64), np.zeros(len(other_images), dtype=np.int64)]
    )
    data = LabeledDataset(inputs=inputs, labels=labels, num_classes=2)
    model = tinynn.init_model(input_shape, detector_layers(), num_classes=2, seed=cfg.seed)
    return tinynn.train(model, data, cfg)


def detector_accepts(detector: ModelSnapshot, key_image: np.ndarray) -> bool:
    """Accept rule: P(key) > 0.5."""
    probs = tinynn.forward(detector, media.to_model_input(key_image, detector.input_shape))
    return float(probs[1]) > 0.5


def decide(
    bundles: list[UserKeyBundle],
    base: IdentityBase,
    encrypted_username: str,
    key_image: np.ndarray,
) -> bool:
    """The authorization decision: the validator maps the (credential, key
    image) pair to some user whose bundle's detector accepts the key image.
    Callers decide here once, then answer with `authorize`.

    The work is the same on both outcomes: the validator, then exactly one
    detector forward pass. That is the validated user's detector (the first
    bundle of that user), or the first bundle's as a decoy when no user
    validates or the validated user has no bundle here.
    """
    if not bundles:
        raise InvalidInputError("need at least one user bundle")
    validated_user = validate(base, encrypted_username, key_image)
    own = next((bundle for bundle in bundles if bundle.user_id == validated_user), None)
    accepted = detector_accepts((own or bundles[0]).detector, key_image)
    return own is not None and accepted


def authorize(
    decided: bool,
    query_input: np.ndarray,
    model: ModelSnapshot,
    rng: int | np.random.Generator,
) -> int:
    """Answer one inference request with a class index, given its
    authorization decision (see `decide`).

    Authorized queries get the model's prediction; unauthorized ones draw a
    uniformly random class from the seeded stream. The return type is a
    bare class index either way.

    Both branches do the same work: the model forward pass and one draw
    from the stream always run, and only then does the decision pick the
    answer.
    """
    query = np.asarray(query_input)
    if query.shape != model.input_shape:
        raise InvalidInputError(
            f"query shape {query.shape} does not match model input {model.input_shape}"
        )
    predicted = int(np.argmax(tinynn.forward(model, query)))
    gen = np.random.default_rng(rng) if isinstance(rng, int) else rng
    drawn = int(gen.integers(0, model.num_classes))
    return predicted if decided else drawn


@dataclass(frozen=True)
class AcptTraceReport:
    per_user_accuracy: dict[str, float]
    verdict: str


def trace_acpt(
    bundles: list[UserKeyBundle],
    base: IdentityBase,
    model: ModelSnapshot,
    probes: dict[str, tuple[str, np.ndarray]],
    test: LabeledDataset,
    seed: int = 0,
) -> AcptTraceReport:
    """Probe a leaked deployment with every user's (credential, key image).

    Each probe is decided once by `decide`: an authorized probe labels the
    whole test set with one batched forward pass, an unauthorized one draws
    every label from that user's seeded stream in one call. Accuracies equal
    those of calling `authorize` with the probe's decision per test sample
    with the same stream.

    The verdict names the unique user whose probe unlocks accuracy of at
    least TRACE_ACCEPT while every other probe stays at or below
    TRACE_REJECT; anything else is inconclusive.
    """
    if len(probes) < 2:
        raise InvalidInputError("need probes for at least two users")
    if len(test) == 0:
        raise InvalidInputError("need at least one test sample")
    if test.inputs.shape[1:] != model.input_shape:
        raise InvalidInputError(
            f"query shape {test.inputs.shape[1:]} does not match model input {model.input_shape}"
        )
    accuracy: dict[str, float] = {}
    for user_id, (encrypted_username, key_image) in probes.items():
        if decide(bundles, base, encrypted_username, key_image):
            preds = np.argmax(tinynn.forward(model, test.inputs), axis=1)
        else:
            gen = np.random.default_rng(request_seed(seed, user_id))
            preds = gen.integers(0, model.num_classes, size=len(test))
        accuracy[user_id] = int(np.sum(preds == test.labels)) / len(test)

    leader, top, best_other = leader_and_best_other(accuracy)
    verdict = leader if top >= TRACE_ACCEPT and best_other <= TRACE_REJECT else INCONCLUSIVE
    return AcptTraceReport(per_user_accuracy=accuracy, verdict=verdict)
