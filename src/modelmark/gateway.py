"""Authorization-controlled inference over newline-delimited JSON on TCP.

Clients send one JSON object per line: request_id, 8-character credential,
and base64 PPM/PGM bytes for the key and query images. The service answers
with {"request_id", "class"} whether or not the request was authorized; the
schema never reveals which branch ran, and nothing about authorization
outcomes is logged at default verbosity. A malformed request gets
{"request_id", "error_code": "bad_request"}; a fault in the service itself
gets "internal_error" and an ERROR log line with the traceback, which names
neither the request id nor the credential.

Authorization does constant work (see `acpt`), and the service caches each
decision per (credential, key image bytes) in a least-recently-used table of
DECISION_CACHE_ENTRIES entries. Both outcomes are stored alike and eviction
depends on recency alone, so a hit skips the key decode, the perceptual hash
and the detector on either branch. A request whose key has not been seen
costs a full decision on either branch.
"""

from __future__ import annotations

import base64
import hashlib
import json
import logging
import socket
import socketserver
import threading
from collections import OrderedDict
from dataclasses import dataclass

from . import acpt, media
from .acpt import IdentityBase, UserKeyBundle, request_seed
from .errors import (
    FormatError,
    InvalidInputError,
    ProtocolError,
    RequestRejectedError,
    TransportError,
)
from .tinynn import ModelSnapshot

logger = logging.getLogger(__name__)

MAX_LINE_BYTES = 8 * 1024 * 1024
# serve_forever's poll: shutdown() waits for the next one, so close() takes up to this long
_POLL_SECONDS = 0.05

# (credential, SHA-256 of the key image's base64 text) -> decision, a few hundred bytes each
DECISION_CACHE_ENTRIES = 4096

ERROR_BAD_REQUEST = "bad_request"
ERROR_INTERNAL = "internal_error"
ERROR_OVERSIZED = "oversized_line"


@dataclass(frozen=True)
class InferRequest:
    request_id: str
    credential: str
    key_image: bytes
    query_image: bytes

    def to_json(self) -> str:
        return json.dumps(
            {
                "request_id": self.request_id,
                "credential": self.credential,
                "key_image": base64.b64encode(self.key_image).decode("ascii"),
                "query_image": base64.b64encode(self.query_image).decode("ascii"),
            },
            separators=(",", ":"),
        )


@dataclass(frozen=True)
class InferResponse:
    request_id: str
    class_index: int


class GatewayService(socketserver.ThreadingTCPServer):
    """A running service, one thread per connection: the constructor binds
    and starts serving. close() stops accepting without waiting for open
    connections, which get no further answer."""

    allow_reuse_address = True  # as socket.create_server
    request_queue_size = 128  # listen()'s own default
    daemon_threads = True
    block_on_close = False  # server_close() must not join idle connections

    def __init__(
        self,
        bind_address: tuple[str, int],
        bundles: list[UserKeyBundle],
        model: ModelSnapshot,
        identity_base: IdentityBase,
        seed: int = 0,
    ):
        if not bundles:
            raise InvalidInputError("a gateway needs at least one user bundle")
        self._bundles = list(bundles)
        self._model = model
        self._base = identity_base
        self._seed = seed
        self._decisions: OrderedDict[tuple[str, bytes], bool] = OrderedDict()
        self._decisions_lock = threading.Lock()
        self._closing = threading.Event()
        try:
            super().__init__(bind_address, _LineHandler)
        except OSError as exc:
            raise TransportError(f"cannot bind {bind_address}: {exc}") from exc
        self._serve_thread = threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": _POLL_SECONDS}, daemon=True
        )
        self._serve_thread.start()

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[:2]

    def close(self) -> None:
        self._closing.set()
        self.shutdown()
        self.server_close()

    def wait(self) -> None:
        """Block until the service stops accepting (e.g. close() elsewhere).

        Joins in short steps: a signal delivered to another thread would
        otherwise never interrupt an untimed join, and KeyboardInterrupt
        would not reach the caller.
        """
        while self._serve_thread.is_alive():
            self._serve_thread.join(timeout=0.2)

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals -----------------------------------------------------------

    def _handle_line(self, line: bytes) -> dict:
        try:
            obj = json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return {"error_code": ERROR_BAD_REQUEST}
        if not isinstance(obj, dict):
            return {"error_code": ERROR_BAD_REQUEST}
        request_id = obj.get("request_id")
        rid_part = {"request_id": request_id} if isinstance(request_id, str) else {}

        credential = obj.get("credential")
        key_b64 = obj.get("key_image")
        query_b64 = obj.get("query_image")
        if (
            not isinstance(request_id, str)
            or not isinstance(credential, str)
            or not isinstance(key_b64, str)
            or not isinstance(query_b64, str)
            or len(credential) != acpt.CREDENTIAL_LENGTH
        ):
            return {**rid_part, "error_code": ERROR_BAD_REQUEST}
        try:
            decided = self._decide(credential, key_b64)
            query_rgb = media.decode_base64_image(query_b64)
            query_input = media.to_model_input(query_rgb, self._model.input_shape)
            cls = acpt.authorize(
                decided, query_input, self._model, request_seed(self._seed, request_id)
            )
        except (FormatError, InvalidInputError):
            return {**rid_part, "error_code": ERROR_BAD_REQUEST}
        except Exception:  # the connection keeps serving; the fault is the service's
            logger.exception("request failed inside the service")
            return {**rid_part, "error_code": ERROR_INTERNAL}
        return {"request_id": request_id, "class": cls}

    def _decide(self, credential: str, key_b64: str) -> bool:
        """The decision for (credential, key image): cached, or made and stored.

        The decision is made outside the lock, so a miss does not hold up
        other connections; two threads missing on one key both store the
        same decision.
        """
        entry = (credential, hashlib.sha256(key_b64.encode("utf-8", "surrogatepass")).digest())
        with self._decisions_lock:
            decided = self._decisions.get(entry)
            if decided is not None:
                self._decisions.move_to_end(entry)
                return decided
        decided = acpt.decide(
            self._bundles, self._base, credential, media.decode_base64_image(key_b64)
        )
        with self._decisions_lock:
            self._decisions[entry] = decided
            self._decisions.move_to_end(entry)
            while len(self._decisions) > DECISION_CACHE_ENTRIES:
                self._decisions.popitem(last=False)
        return decided


class _LineHandler(socketserver.StreamRequestHandler):
    """Answers one JSON line per request line until the peer closes."""

    rbufsize = 65536  # a typical request line (about 20 KB) in one recv

    def handle(self) -> None:
        logger.debug("connection from %s", self.client_address)
        server = self.server
        try:
            while True:
                line = self.rfile.readline(MAX_LINE_BYTES + 1)
                if server._closing.is_set():  # also a line that was waiting at close()
                    return
                if line.endswith(b"\n"):
                    reply = server._handle_line(line[:-1])
                elif len(line) > MAX_LINE_BYTES:
                    reply = {"error_code": ERROR_OVERSIZED}
                else:
                    return  # the peer closed, between lines or mid-line
                self.wfile.write(json.dumps(reply, separators=(",", ":")).encode("utf-8") + b"\n")
                while not line.endswith(b"\n"):  # discard the rest of an oversized line
                    line = self.rfile.readline(MAX_LINE_BYTES + 1)
                    if not line:
                        return
        except OSError:
            logger.debug("connection dropped")


def client_infer(
    address: tuple[str, int],
    request: InferRequest,
    timeout: float = 10.0,
) -> InferResponse:
    """One request/response round trip against a running service.

    Every failure is a ModelmarkError: TransportError for the connection,
    RequestRejectedError for an error reply, ProtocolError for anything else.
    """
    try:
        with socket.create_connection(address, timeout=timeout) as sock:
            sock.sendall(request.to_json().encode("utf-8") + b"\n")
            with sock.makefile("rb") as reader:
                line = reader.readline(MAX_LINE_BYTES + 1)
    except socket.timeout as exc:
        raise TransportError(f"request timed out after {timeout}s") from exc
    except OSError as exc:
        raise TransportError(f"cannot reach {address}: {exc}") from exc
    if not line.endswith(b"\n"):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError("response line exceeds protocol limit")
        raise ProtocolError("connection closed before a response line")

    try:
        obj = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"unparseable response line: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(f"response is not a JSON object: {line[:80]!r}")
    if "error_code" in obj:
        raise RequestRejectedError(obj["error_code"], obj.get("request_id"))
    if "class" not in obj or "request_id" not in obj:
        raise ProtocolError(f"response missing fields: {sorted(obj)}")
    if type(obj["class"]) is not int:
        raise ProtocolError(f"response class is not an integer: {obj['class']!r}")
    return InferResponse(request_id=obj["request_id"], class_index=obj["class"])
