"""Bounded, derandomized fuzzing of two decoders of untrusted bytes: the
gateway's request line and the TNN1 model file. Either may refuse its input,
but only in the typed way its callers handle."""

import base64
import hashlib
import json
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from modelmark import acpt, gateway, media, synthdata, tinynn
from modelmark.errors import FormatError
from modelmark.tinynn import Conv2d, Dense, MaxPool2d, Relu, SoftmaxOutput, TrainConfig

FUZZ = settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# --------------------------------------------------------------------------
# Gateway request lines
# --------------------------------------------------------------------------

KEYS = synthdata.key_image_class("rings", 3, seed=0)


@pytest.fixture(scope="module")
def service():
    others = synthdata.key_image_class("other", 3, seed=1)
    detector = acpt.train_detector(
        KEYS, others, TrainConfig(epochs=2, batch_size=4, seed=2), input_shape=(1, 14, 14)
    )
    cred = acpt.make_credential("user1", "HN", range(8))
    base = acpt.enroll(acpt.IdentityBase(), cred, KEYS[0], "Alice")
    bundle = acpt.UserKeyBundle("Alice", KEYS[:1], detector, cred)
    model = tinynn.init_model((1, 4, 4), (Dense(10), SoftmaxOutput()), 10, seed=0)
    svc = gateway.GatewayService(("127.0.0.1", 0), [bundle], model, base, seed=3)
    yield svc, cred.encrypted_username
    svc.close()


def _netpbm(magic: bytes, width: int, height: int, maxval: int, pixels: bytes) -> bytes:
    return magic + b"\n%d %d\n%d\n" % (width, height, maxval) + pixels


images = st.one_of(
    st.sampled_from([media.write_ppm(k) for k in KEYS]),  # repeated keys exercise the cache
    st.builds(  # well-formed images of any small size, some far smaller than a model input
        _netpbm,
        st.sampled_from([b"P5", b"P6"]),
        st.integers(1, 40),
        st.integers(1, 40),
        st.integers(1, 255),
        st.binary(min_size=40 * 40 * 3, max_size=40 * 40 * 3),
    ),
)
valid_b64 = images.map(lambda raw: base64.b64encode(raw).decode("ascii"))
b64 = st.one_of(
    valid_b64, st.binary(max_size=64).map(lambda raw: base64.b64encode(raw).decode("ascii")), st.text(max_size=24)
)
scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=12))
credentials = st.one_of(
    st.just("cred"),  # replaced by the enrolled credential
    st.text(alphabet=acpt.HEX_ALPHABET, min_size=8, max_size=8),
    st.text(min_size=8, max_size=8),
    st.text(max_size=10),
)
requests = st.fixed_dictionaries(  # answered with a class when the credential and key are usable
    {"request_id": st.text(max_size=12), "credential": credentials, "key_image": b64, "query_image": valid_b64}
)
objects = st.one_of(
    st.fixed_dictionaries(
        {},
        optional={
            "request_id": st.one_of(st.text(max_size=12), scalars),
            "credential": st.one_of(credentials, scalars),
            "key_image": st.one_of(b64, scalars),
            "query_image": st.one_of(b64, scalars),
            "extra": scalars,
        },
    ),
    st.lists(scalars, max_size=3),
    scalars,
)


def _check_reply(reply) -> None:
    assert isinstance(reply, dict)
    if "class" in reply:
        assert type(reply["class"]) is int and 0 <= reply["class"] < 10
    else:
        assert reply.get("error_code") == gateway.ERROR_BAD_REQUEST, reply


class TestGatewayLineFuzz:
    @FUZZ
    @given(line=st.binary(max_size=256))
    def test_arbitrary_bytes(self, service, line):
        svc, _ = service
        _check_reply(svc._handle_line(line))

    @FUZZ
    @given(obj=requests)
    def test_request_shaped_lines(self, service, obj):
        self._check(service, obj)

    @FUZZ
    @given(obj=objects)
    def test_json_values(self, service, obj):
        self._check(service, obj)

    @staticmethod
    def _check(service, obj) -> None:
        svc, enrolled = service
        if isinstance(obj, dict) and obj.get("credential") == "cred":
            obj["credential"] = enrolled
        _check_reply(svc._handle_line(json.dumps(obj).encode("utf-8", "surrogatepass")))


# --------------------------------------------------------------------------
# TNN1 model files
# --------------------------------------------------------------------------

def _model_body() -> bytes:
    """A small conv model's TNN1 bytes without the trailing checksum."""
    layers = (Conv2d(2, 3), Relu(), MaxPool2d(2), Dense(3), SoftmaxOutput())
    model = tinynn.init_model((1, 8, 8), layers, num_classes=3, seed=0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.tnn"
        tinynn.save_model(model, path)
        return path.read_bytes()[:-4]


BODY = _model_body()
EXTREMES = st.sampled_from([0, 1, 2, 3, 255, 2**16, 2**31 - 1, 2**31, 2**32 - 1])


@st.composite
def mutated_bodies(draw) -> bytes:
    body = bytearray(BODY)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["flip", "u32", "cut", "insert"]))
        pos = draw(st.integers(0, len(body)))
        if kind == "flip" and pos < len(body):
            body[pos] ^= draw(st.integers(1, 255))
        elif kind == "u32":
            body[pos : pos + 4] = struct.pack("<I", draw(st.one_of(EXTREMES, st.integers(0, 2**32 - 1))))
        elif kind == "cut":
            del body[pos:]
        elif kind == "insert":
            body[pos:pos] = draw(st.binary(max_size=16))
    return bytes(body)


class TestModelFileFuzz:
    def test_unmutated_body_loads(self, tmp_path):
        path = tmp_path / "model.tnn"
        path.write_bytes(BODY + struct.pack("<I", zlib.crc32(BODY)))
        assert tinynn.load_model(path).num_classes == 3

    @FUZZ
    @given(body=mutated_bodies())
    def test_mutations_with_valid_checksum(self, tmp_path_factory, body):
        # a new file per body: truncating a file to rewrite it is slow on some file systems
        path = tmp_path_factory.getbasetemp() / f"fuzz-{hashlib.sha256(body).hexdigest()[:16]}.tnn"
        if not path.exists():
            path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        try:
            model = tinynn.load_model(path)
        except FormatError:
            return
        assert isinstance(model, tinynn.ModelSnapshot)
        assert all(np.all(np.isfinite(w)) for w in model.weights if w is not None)
