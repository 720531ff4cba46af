"""Authorization-controlled inference over newline-delimited JSON on TCP.

Clients send one JSON object per line: request_id, 8-character credential,
and base64 PPM/PGM bytes for the key and query images. The service answers
with {"request_id", "class"} whether or not the request was authorized; the
schema never reveals which branch ran, and nothing about authorization
outcomes is logged at default verbosity.
"""

from __future__ import annotations

import base64
import hashlib
import json
import logging
import socket
import threading
from dataclasses import dataclass

from . import acpt, media
from .acpt import IdentityBase, UserKeyBundle
from .errors import (
    FormatError,
    ProtocolError,
    RequestRejectedError,
    TransportError,
)
from .tinynn import ModelSnapshot

logger = logging.getLogger(__name__)

MAX_LINE_BYTES = 8 * 1024 * 1024

ERROR_BAD_REQUEST = "bad_request"
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


def request_seed(service_seed: int, request_id: str) -> int:
    """Per-request seed for the random-class stream; replays reproduce."""
    digest = hashlib.sha256(f"{service_seed}:{request_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class GatewayService:
    """A running service handle; close() stops accepting and joins threads."""

    def __init__(
        self,
        bind_address: tuple[str, int],
        bundles: list[UserKeyBundle],
        model: ModelSnapshot,
        identity_base: IdentityBase,
        seed: int = 0,
    ):
        self._bundles = list(bundles)
        self._model = model
        self._base = identity_base
        self._seed = seed
        try:
            self._sock = socket.create_server(bind_address)
        except OSError as exc:
            raise TransportError(f"cannot bind {bind_address}: {exc}") from exc
        self._closing = threading.Event()
        self._threads: list[threading.Thread] = []
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    @property
    def address(self) -> tuple[str, int]:
        return self._sock.getsockname()[:2]

    def close(self) -> None:
        self._closing.set()
        try:
            self._sock.close()
        except OSError:
            pass
        for t in self._threads:
            t.join(timeout=5.0)

    def wait(self) -> None:
        """Block until the service stops accepting (e.g. close() elsewhere).

        Joins in short steps: a signal delivered to another thread would
        otherwise never interrupt an untimed join, and KeyboardInterrupt
        would not reach the caller.
        """
        while self._accept_thread.is_alive():
            self._accept_thread.join(timeout=0.2)

    def __enter__(self) -> "GatewayService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals -----------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                conn, peer = self._sock.accept()
            except OSError:
                return
            logger.debug("connection from %s", peer)
            t = threading.Thread(target=self._serve_connection, args=(conn,), daemon=True)
            t.start()
            self._threads = [x for x in self._threads if x.is_alive()]
            self._threads.append(t)

    def _serve_connection(self, conn: socket.socket) -> None:
        buf = bytearray()
        try:
            with conn:
                while not self._closing.is_set():
                    nl = buf.find(b"\n")
                    if nl < 0:
                        if len(buf) > MAX_LINE_BYTES:
                            self._send(conn, {"error_code": ERROR_OVERSIZED})
                            if not self._drain_line(conn, buf):
                                return
                            continue
                        chunk = conn.recv(65536)
                        if not chunk:
                            return
                        buf.extend(chunk)
                        continue
                    line = bytes(buf[:nl])
                    del buf[: nl + 1]
                    if len(line) > MAX_LINE_BYTES:
                        self._send(conn, {"error_code": ERROR_OVERSIZED})
                        continue
                    self._send(conn, self._handle_line(line))
        except OSError:
            logger.debug("connection dropped")

    @staticmethod
    def _drain_line(conn: socket.socket, buf: bytearray) -> bool:
        """Discard bytes until the newline terminating an oversized line."""
        buf.clear()
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                return False
            nl = chunk.find(b"\n")
            if nl >= 0:
                buf.extend(chunk[nl + 1 :])
                return True

    @staticmethod
    def _send(conn: socket.socket, obj: dict) -> None:
        conn.sendall(json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n")

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
            key_image = media.decode_base64_image(key_b64)
            query_rgb = media.decode_base64_image(query_b64)
            query_input = media.to_model_input(query_rgb, self._model.input_shape)
        except FormatError:
            return {**rid_part, "error_code": ERROR_BAD_REQUEST}

        try:
            cls = acpt.authorize(
                self._bundles,
                self._base,
                credential,
                key_image,
                query_input,
                self._model,
                rng=request_seed(self._seed, request_id),
            )
        except Exception:
            return {**rid_part, "error_code": ERROR_BAD_REQUEST}
        return {"request_id": request_id, "class": cls}


def serve(
    bind_address: tuple[str, int],
    bundles: list[UserKeyBundle],
    model: ModelSnapshot,
    identity_base: IdentityBase,
    seed: int = 0,
) -> GatewayService:
    """Start the service; returns a handle with .address and .close()."""
    return GatewayService(bind_address, bundles, model, identity_base, seed=seed)


def client_infer(
    address: tuple[str, int],
    request: InferRequest,
    timeout: float = 10.0,
) -> InferResponse:
    """One request/response round trip against a running service."""
    try:
        with socket.create_connection(address, timeout=timeout) as sock:
            sock.sendall(request.to_json().encode("utf-8") + b"\n")
            buf = bytearray()
            while b"\n" not in buf:
                chunk = sock.recv(65536)
                if not chunk:
                    raise ProtocolError("connection closed before a response line")
                buf.extend(chunk)
                if len(buf) > MAX_LINE_BYTES:
                    raise ProtocolError("response line exceeds protocol limit")
    except socket.timeout as exc:
        raise TransportError(f"request timed out after {timeout}s") from exc
    except OSError as exc:
        raise TransportError(f"cannot reach {address}: {exc}") from exc

    line = bytes(buf).split(b"\n", 1)[0]
    try:
        obj = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"unparseable response line: {exc}") from exc
    if "error_code" in obj:
        raise RequestRejectedError(obj["error_code"], obj.get("request_id"))
    if "class" not in obj or "request_id" not in obj:
        raise ProtocolError(f"response missing fields: {sorted(obj)}")
    return InferResponse(request_id=obj["request_id"], class_index=int(obj["class"]))
