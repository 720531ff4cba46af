"""Gateway protocol tests against a live in-process service."""

import json
import socket
import sys
import threading
import time

import numpy as np
import pytest

from modelmark import acpt, gateway, media, synthdata, tinynn
from modelmark.errors import (
    FormatError,
    InvalidInputError,
    ProtocolError,
    RequestRejectedError,
    TransportError,
)
from modelmark.gateway import InferRequest, request_seed
from modelmark.tinynn import Dense, SoftmaxOutput, TrainConfig


@pytest.fixture(scope="module")
def world():
    keys = synthdata.key_image_class("rings", 20, seed=0)
    others = synthdata.key_image_class("other", 20, seed=1)
    detector = acpt.train_detector(
        keys[:14],
        others[:14],
        TrainConfig(epochs=25, batch_size=8, learning_rate=0.02, seed=2),
        input_shape=(1, 14, 14),
    )
    cred = acpt.make_credential("user1", "HN", range(8))
    base = acpt.enroll(acpt.IdentityBase(), cred, keys[0], "Alice")
    bundle = acpt.UserKeyBundle(
        user_id="Alice", key_images=keys[:4], detector=detector, credential=cred
    )
    model = tinynn.init_model((1, 4, 4), (Dense(10), SoftmaxOutput()), 10, seed=0)
    model.weights[0] = np.zeros_like(model.weights[0])
    model.biases[0] = np.zeros_like(model.biases[0])
    model.weights[0][9, :] = 1.0 / 16.0
    model.biases[0][0] = 0.5
    return {
        "bundles": [bundle],
        "base": base,
        "model": model,
        "cred": cred,
        "key_image": keys[0],
    }


@pytest.fixture(scope="module")
def service(world):
    svc = gateway.GatewayService(
        ("127.0.0.1", 0), world["bundles"], world["model"], world["base"], seed=99
    )
    yield svc
    svc.close()


def _query_image(value: int = 230) -> np.ndarray:
    return np.full((4, 4, 3), value, dtype=np.uint8)


def _request(world, request_id: str, credential: str | None = None, bright: bool = True):
    return InferRequest(
        request_id=request_id,
        credential=credential if credential is not None else world["cred"].encrypted_username,
        key_image=media.write_ppm(world["key_image"]),
        query_image=media.write_ppm(_query_image(230 if bright else 20)),
    )


class TestRoundTrip:
    def test_authorized_request_returns_true_prediction(self, world, service):
        resp = gateway.client_infer(service.address, _request(world, "req-1"))
        assert resp.request_id == "req-1"
        assert resp.class_index == 9  # bright query on the brightness model

    def test_request_id_echo_is_byte_exact(self, world, service):
        rid = "id-é中 42"  # non-ascii survives the json round trip
        resp = gateway.client_infer(service.address, _request(world, rid))
        assert resp.request_id == rid

    def test_loopback_equals_direct_authorize(self, world, service):
        for i in range(10):
            rid = f"loop-{i}"
            credential = world["cred"].encrypted_username if i % 2 == 0 else "00000000"
            req = _request(world, rid, credential=credential)
            resp = gateway.client_infer(service.address, req)
            direct = acpt.authorize(
                acpt.decide(world["bundles"], world["base"], credential, world["key_image"]),
                media.to_model_input(_query_image(230), world["model"].input_shape),
                world["model"],
                rng=request_seed(99, rid),
            )
            assert resp.class_index == direct

    def test_short_credential_rejected(self, world, service):
        with pytest.raises(RequestRejectedError) as exc:
            gateway.client_infer(service.address, _request(world, "short", credential="1234567"))
        assert exc.value.error_code == "bad_request"
        assert exc.value.request_id == "short"

    def test_unreachable_address_is_transport_error(self, world):
        with pytest.raises(TransportError):
            gateway.client_infer(("127.0.0.1", 1), _request(world, "x"), timeout=0.5)


class TestWireLevel:
    def _raw_exchange(self, service, lines: list[bytes]) -> list[dict]:
        with socket.create_connection(service.address, timeout=5.0) as sock:
            out = []
            reader = sock.makefile("rb")
            for line in lines:
                sock.sendall(line)
                out.append(json.loads(reader.readline()))
            return out

    def test_malformed_json_keeps_connection_open(self, world, service):
        good = _request(world, "after-garbage").to_json().encode() + b"\n"
        replies = self._raw_exchange(service, [b"this is not json\n", good])
        assert replies[0] == {"error_code": "bad_request"}
        assert replies[1]["request_id"] == "after-garbage"
        assert "class" in replies[1]

    def test_missing_field_is_bad_request_with_id(self, world, service):
        line = json.dumps({"request_id": "incomplete", "credential": "12345678"}).encode() + b"\n"
        (reply,) = self._raw_exchange(service, [line])
        assert reply == {"request_id": "incomplete", "error_code": "bad_request"}

    def test_bad_image_payload_is_bad_request(self, world, service):
        req = json.dumps(
            {
                "request_id": "bad-img",
                "credential": "12345678",
                "key_image": "aGVsbG8=",  # valid base64, not a netpbm image
                "query_image": "aGVsbG8=",
            }
        ).encode() + b"\n"
        (reply,) = self._raw_exchange(service, [req])
        assert reply == {"request_id": "bad-img", "error_code": "bad_request"}

    def test_response_schema_identical_across_outcomes(self, world, service):
        lines = [
            _request(world, "auth-1").to_json().encode() + b"\n",
            _request(world, "unauth-1", credential="00000000").to_json().encode() + b"\n",
        ]
        replies_raw = []
        with socket.create_connection(service.address, timeout=5.0) as sock:
            reader = sock.makefile("rb")
            for line in lines:
                sock.sendall(line)
                replies_raw.append(reader.readline())
        keys = [list(json.loads(r).keys()) for r in replies_raw]
        assert keys[0] == keys[1] == ["request_id", "class"]

    def test_sequential_requests_on_one_connection(self, world, service):
        lines = [_request(world, f"seq-{i}").to_json().encode() + b"\n" for i in range(5)]
        replies = self._raw_exchange(service, lines)
        assert [r["request_id"] for r in replies] == [f"seq-{i}" for i in range(5)]

    def test_concurrent_connections(self, world, service):
        import threading

        results: dict[int, int] = {}

        def worker(i: int):
            resp = gateway.client_infer(service.address, _request(world, f"conc-{i}"))
            results[i] = resp.class_index

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 8
        assert set(results.values()) == {9}

    def test_authorization_outcome_never_logged(self, world, service, caplog):
        with caplog.at_level("DEBUG", logger="modelmark.gateway"):
            gateway.client_infer(service.address, _request(world, "log-auth"))
            gateway.client_infer(
                service.address, _request(world, "log-unauth", credential="00000000")
            )
        assert all(r.levelname == "DEBUG" for r in caplog.records)
        for record in caplog.records:
            message = record.getMessage().lower()
            assert "author" not in message
            assert "log-auth" not in message and "log-unauth" not in message


class TestLineLimit:
    LIMIT = 64

    @pytest.fixture(autouse=True)
    def small_limit(self, monkeypatch):
        monkeypatch.setattr(gateway, "MAX_LINE_BYTES", self.LIMIT)

    @staticmethod
    def _padded(request_id: str, size: int) -> bytes:
        """A JSON request line of exactly size bytes before the newline."""
        body = json.dumps({"request_id": request_id, "credential": "1"}).encode()
        return body + b" " * (size - len(body))

    def test_oversized_line_then_next_line_answered(self, service):
        with socket.create_connection(service.address, timeout=5.0) as sock:
            reader = sock.makefile("rb")
            # the reply comes as soon as the limit is passed, before the line ends
            sock.sendall(b"x" * (self.LIMIT + 1))
            assert json.loads(reader.readline()) == {"error_code": "oversized_line"}
            sock.sendall(b"x" * 3 * self.LIMIT + b"\n" + self._padded("next", 40) + b"\n")
            reply = json.loads(reader.readline())
            assert reply == {"request_id": "next", "error_code": "bad_request"}

    def test_line_of_exactly_the_limit_is_answered(self, service):
        with socket.create_connection(service.address, timeout=5.0) as sock:
            reader = sock.makefile("rb")
            sock.sendall(self._padded("exact", self.LIMIT) + b"\n")
            reply = json.loads(reader.readline())
            assert reply == {"request_id": "exact", "error_code": "bad_request"}
            sock.sendall(self._padded("over", self.LIMIT + 1) + b"\n")
            assert json.loads(reader.readline()) == {"error_code": "oversized_line"}


class TestClose:
    @pytest.fixture
    def idle_pair(self, world):
        svc = gateway.GatewayService(
            ("127.0.0.1", 0), world["bundles"], world["model"], world["base"]
        )
        conns = [socket.create_connection(svc.address, timeout=5.0) for _ in range(2)]
        for conn in conns:  # one answered line each, so both are being served
            conn.sendall(b"[]\n")
            assert conn.makefile("rb").readline() == b'{"error_code":"bad_request"}\n'
        yield svc, conns
        svc.close()
        for conn in conns:
            conn.close()

    def test_close_does_not_wait_for_idle_connections(self, idle_pair):
        svc, _ = idle_pair
        start = time.monotonic()
        svc.close()
        assert time.monotonic() - start < 1.0
        svc.wait()  # returns at once: the service no longer accepts

    def test_close_of_an_idle_service_is_prompt(self, world):
        start = time.monotonic()
        for _ in range(5):
            gateway.GatewayService(
                ("127.0.0.1", 0), world["bundles"], world["model"], world["base"]
            ).close()
        assert time.monotonic() - start < 0.5

    def test_no_reply_after_close(self, idle_pair):
        svc, conns = idle_pair
        svc.close()
        conns[0].sendall(b"[]\n")
        assert conns[0].recv(100) == b""


class _OneShotServer:
    """Accepts one connection, reads one line, answers with fixed bytes."""

    def __init__(self, reply: bytes):
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.thread = threading.Thread(target=self._answer, args=(reply,), daemon=True)
        self.thread.start()

    def _answer(self, reply: bytes) -> None:
        conn, _ = self.sock.accept()
        with conn:
            conn.makefile("rb").readline()
            conn.sendall(reply)

    def close(self) -> None:
        self.thread.join(timeout=5.0)
        self.sock.close()


class TestClientErrors:
    @pytest.mark.parametrize(
        "reply",
        [
            b"5\n",
            b"[]\n",
            b"not json\n",
            b"\xff\n",
            b'{"request_id":"a"}\n',
            b'{"request_id":"a","class":"x"}\n',
            b'{"request_id":"a","class":1.5}\n',
            b'{"request_id":"a","class":true}\n',
            b'{"request_id":"a","cla',
            b"",
        ],
    )
    def test_bad_response_is_protocol_error(self, world, reply):
        server = _OneShotServer(reply)
        try:
            with pytest.raises(ProtocolError):
                gateway.client_infer(server.sock.getsockname(), _request(world, "a"), timeout=5.0)
        finally:
            server.close()


def _line(world, request_id: str, credential: str | None = None, key_image=None) -> bytes:
    """One request line for GatewayService._handle_line (without its newline)."""
    return json.dumps(
        {
            "request_id": request_id,
            "credential": credential if credential is not None else world["cred"].encrypted_username,
            "key_image": media.encode_base64_image(world["key_image"] if key_image is None else key_image),
            "query_image": media.encode_base64_image(_query_image(230)),
        }
    ).encode()


def _direct(world, request_id: str, credential: str, key_image) -> int:
    return acpt.authorize(
        acpt.decide(world["bundles"], world["base"], credential, key_image),
        media.to_model_input(_query_image(230), world["model"].input_shape),
        world["model"],
        rng=request_seed(99, request_id),
    )


@pytest.fixture
def fresh(world):
    """A service of its own, so its decision cache starts empty."""
    svc = gateway.GatewayService(
        ("127.0.0.1", 0), world["bundles"], world["model"], world["base"], seed=99
    )
    yield svc
    svc.close()


WRONG_KEY = synthdata.key_image_class("other", 1, seed=77)[0]
KINDS = {  # request kind -> (credential or None for the user's own, key image or None for the enrolled one)
    "authorized": (None, None),
    "forged credential": ("0000abcd", None),
    "wrong key": (None, WRONG_KEY),
}


class TestDecisionCache:
    @pytest.mark.parametrize("kind", list(KINDS))
    def test_cold_request_decides_once(self, world, fresh, count_work, kind):
        credential, key = KINDS[kind]
        counts = count_work(world["model"])
        fresh._handle_line(_line(world, "cold", credential, key))
        assert (counts["phash"], counts["detector"], counts["model"]) == (1, 1, 1)

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_warm_request_runs_only_the_model(self, world, fresh, count_work, kind):
        """Both outcomes are cached, and a hit costs the same on either branch."""
        credential, key = KINDS[kind]
        fresh._handle_line(_line(world, "warm-up", credential, key))
        counts = count_work(world["model"])
        reply = fresh._handle_line(_line(world, "warm", credential, key))
        assert (counts["phash"], counts["detector"], counts["model"]) == (0, 0, 1)
        expected = _direct(
            world, "warm", credential or world["cred"].encrypted_username,
            world["key_image"] if key is None else key,
        )
        assert reply == {"request_id": "warm", "class": expected}

    @pytest.mark.parametrize("oldest", ["authorized", "forged credential"])
    def test_oldest_entry_evicted_whatever_its_outcome(self, world, fresh, count_work, monkeypatch, oldest):
        monkeypatch.setattr(gateway, "DECISION_CACHE_ENTRIES", 3)
        newer = [(f"0000000{i}", None) for i in range(3)]  # capacity + 1 pairs in all
        for i, (credential, key) in enumerate([KINDS[oldest]] + newer):
            fresh._handle_line(_line(world, f"fill-{i}", credential, key))
        counts = count_work(world["model"])
        for credential, key in newer:
            fresh._handle_line(_line(world, "again", credential, key))
        assert counts["detector"] == 0
        fresh._handle_line(_line(world, "oldest", *KINDS[oldest]))
        assert counts["detector"] == 1

    def test_eviction_follows_use_not_insertion(self, world, fresh, count_work, monkeypatch):
        monkeypatch.setattr(gateway, "DECISION_CACHE_ENTRIES", 3)
        pairs = [(f"0000000{i}", None) for i in range(4)]
        for i in (0, 1, 2, 0, 3):  # pair 0 is used again, so pair 1 is the least recent
            fresh._handle_line(_line(world, "fill", *pairs[i]))
        counts = count_work(world["model"])
        for i in (0, 2, 3):
            fresh._handle_line(_line(world, "hit", *pairs[i]))
        assert counts["detector"] == 0
        fresh._handle_line(_line(world, "miss", *pairs[1]))
        assert counts["detector"] == 1

    def test_concurrent_requests_keep_the_cache_bounded_and_answers_exact(self, world, fresh, monkeypatch):
        """More threads than cores, switching often, over more pairs than fit."""
        monkeypatch.setattr(gateway, "DECISION_CACHE_ENTRIES", 4)
        pairs = [(world["cred"].encrypted_username, world["key_image"])]
        pairs += [(f"0000000{i}", world["key_image"]) for i in range(3)]
        pairs += [(world["cred"].encrypted_username, WRONG_KEY)] * 2
        expected = {
            (i, n): _direct(world, f"t{i}-{n}", *pairs[(i + n) % len(pairs)])
            for i in range(8)
            for n in range(12)
        }
        got = {}

        def worker(i: int) -> None:
            for n in range(12):
                credential, key = pairs[(i + n) % len(pairs)]
                got[i, n] = fresh._handle_line(_line(world, f"t{i}-{n}", credential, key))["class"]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == expected
        assert len(fresh._decisions) <= 4

    def test_service_without_bundles_is_invalid_input(self, world):
        with pytest.raises(InvalidInputError):
            gateway.GatewayService(("127.0.0.1", 0), [], world["model"], world["base"])


class TestServiceFaults:
    def test_fault_in_authorize_is_internal_error_logged_without_ids(self, world, fresh, monkeypatch, caplog):
        def broken(*args, **kwargs):
            raise RuntimeError("broken authorization")

        monkeypatch.setattr(acpt, "authorize", broken)
        with caplog.at_level("DEBUG", logger="modelmark.gateway"):
            reply = fresh._handle_line(_line(world, "fault-rid"))
        assert reply == {"request_id": "fault-rid", "error_code": "internal_error"}
        (record,) = [r for r in caplog.records if r.levelname == "ERROR"]
        assert record.exc_info and record.exc_info[0] is RuntimeError
        assert "fault-rid" not in caplog.text
        assert world["cred"].encrypted_username not in caplog.text

    @pytest.mark.parametrize("error", [InvalidInputError, FormatError])
    def test_typed_input_errors_stay_bad_request(self, world, fresh, monkeypatch, caplog, error):
        def rejecting(*args, **kwargs):
            raise error("bad input")

        monkeypatch.setattr(acpt, "authorize", rejecting)
        with caplog.at_level("DEBUG", logger="modelmark.gateway"):
            reply = fresh._handle_line(_line(world, "typed"))
        assert reply == {"request_id": "typed", "error_code": "bad_request"}
        assert not [r for r in caplog.records if r.levelname == "ERROR"]

    def test_internal_error_over_the_wire(self, world, fresh, monkeypatch):
        monkeypatch.setattr(acpt, "authorize", lambda *a, **k: 1 / 0)
        with pytest.raises(RequestRejectedError) as exc:
            gateway.client_infer(fresh.address, _request(world, "wire-fault"))
        assert exc.value.error_code == "internal_error"
        assert exc.value.request_id == "wire-fault"

    def test_lone_surrogate_request_id_is_answered(self, world, fresh):
        """JSON may escape a lone surrogate; the id still seeds a stream and is echoed."""
        line = _line(world, "rid").replace(b'"rid"', b'"\\ud800"')
        reply = fresh._handle_line(line)
        assert reply["request_id"] == "\ud800"
        assert reply["class"] == _direct(world, "\ud800", world["cred"].encrypted_username, world["key_image"])
