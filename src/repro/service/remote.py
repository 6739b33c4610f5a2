"""The ``remote`` study store: length-prefixed TCP client and server.

Completes the json/sqlite/remote :class:`~repro.figures.cache.StudyStore`
triad.  A store server process (``python -m repro.service.store_server``)
owns a local backing store (json directory or sqlite database) and
serves it over a trivial wire protocol; any number of runner workers,
benchmark processes or selection services point at it with store kind
``remote`` and target ``host:port`` — machines that share no
filesystem can share one store.

Wire protocol (version 2): each message is a frame —

    4-byte big-endian unsigned length | UTF-8 JSON of that length

Requests/responses are JSON objects::

    {"op": "ping"}                           → {"ok": true, "pong": true}
    {"op": "load", "key": {scale, seed, expression, box, variant}}
                                             → {"ok": true, "payload": text|null}
    {"op": "save", "key": {...}, "payload": text}
                                             → {"ok": true}

The key carries every :class:`~repro.figures.cache.StudyKey` field, so
the server files each ablation variant under its own slug.  Version 1
keys lacked ``variant``; the server refuses them rather than file a
variant study under its baseline's slug.

The payload is the *canonical study text* of
:func:`repro.figures.cache.encode_study`, relayed opaquely in both
directions — so a study that crossed the wire is byte-identical to one
written by a local store, and the server never re-encodes anything.
The length prefix is bounded on **both** ends (:data:`MAX_FRAME_BYTES`):
an oversize prefix is a clear protocol error, never an unbounded read
or allocation.

:class:`RemoteStudyStore` is a keyed read-through client honouring the
best-effort store contract through the shared resilience layer: each
round trip runs under a :class:`~repro.resilience.RetryPolicy`
(transient transport failures — a stale keep-alive socket, a dropped
frame — are retried with deterministic backoff), and a
:class:`~repro.resilience.CircuitBreaker` opens after consecutive
transport failures so a dead server costs a dictionary lookup per call
instead of a connect timeout.  Exhausted retries and an open breaker
are a cache miss (load) or a no-op (save) with a log line, never a
pipeline error — callers degrade to local computation and keep going.

Fault sites (:mod:`repro.resilience.faults`): ``remote.send`` /
``remote.recv`` on the client, ``server.respond`` on the server.
"""

from __future__ import annotations

import asyncio
import json
import logging
import socket
import struct
import time
from pathlib import Path
from typing import Optional, Tuple, Union

from repro.figures.cache import (
    StudyKey,
    StudyStore,
    register_store_kind,
)
from repro.resilience import CircuitBreaker, RetryError, RetryPolicy, faults

log = logging.getLogger("repro.service")

_HEADER = struct.Struct(">I")

#: Upper bound on one frame, enforced by client and server alike; a
#: quick-scale study is ~100 KiB and a full-scale one a few MiB, so
#: this is generous headroom, not a limit anyone should meet.
MAX_FRAME_BYTES = 64 << 20

#: Client-side socket timeout (connect and per-call), seconds.
DEFAULT_TIMEOUT = 5.0

#: Default retry schedule of a remote round trip.
DEFAULT_RETRY = RetryPolicy(
    attempts=3, base_delay=0.02, multiplier=2.0, max_delay=0.25
)

#: Default breaker: open after 5 consecutive transport failures,
#: half-open probe after 5 seconds.
DEFAULT_BREAKER_THRESHOLD = 5
DEFAULT_BREAKER_RECOVERY = 5.0


def encode_frame(message: dict) -> bytes:
    data = json.dumps(message, separators=(",", ":")).encode()
    if len(data) > MAX_FRAME_BYTES:
        raise ValueError(
            f"frame too large: {len(data)} bytes (max {MAX_FRAME_BYTES})"
        )
    return _HEADER.pack(len(data)) + data


def parse_address(target: Union[str, Path]) -> Tuple[str, int]:
    """``host:port`` out of a store target (string or Path-like)."""
    text = str(target)
    host, _sep, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(
            f"remote store target must be host:port, got {text!r}"
        )
    return host, int(port)


def _key_to_payload(key: StudyKey) -> dict:
    return {
        "scale": key.scale,
        "seed": key.seed,
        "expression": key.expression,
        "box": key.box,
        "variant": key.variant,
    }


def _key_from_payload(payload: dict) -> StudyKey:
    return StudyKey(
        scale=str(payload["scale"]),
        seed=int(payload["seed"]),
        expression=str(payload["expression"]),
        box=str(payload["box"]),
        variant=str(payload["variant"]),
    )


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------


class RemoteStudyStore(StudyStore):
    """Keyed read-through client of a study-store server.

    One persistent connection per store instance, re-established per
    retry attempt on a stale socket.  Every failure path degrades to a
    miss or a no-op per the :class:`StudyStore` best-effort contract;
    the retry policy and circuit breaker decide how hard to try first.
    """

    kind = "remote"

    def __init__(
        self,
        target: Union[str, Path],
        timeout: float = DEFAULT_TIMEOUT,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        self.host, self.port = parse_address(target)
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self.retry = retry if retry is not None else DEFAULT_RETRY
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            failure_threshold=DEFAULT_BREAKER_THRESHOLD,
            recovery_seconds=DEFAULT_BREAKER_RECOVERY,
            name=f"remote:{self.address}",
        )
        self.retries = 0
        self.transport_failures = 0
        self.protocol_rejections = 0

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def _connect(self) -> socket.socket:
        if self._sock is not None:
            return self._sock
        timeout = self.retry.attempt_timeout or self.timeout
        sock = socket.create_connection(
            (self.host, self.port), timeout=timeout
        )
        self._sock = sock
        return sock

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _recv_exact(self, sock: socket.socket, n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            chunk = sock.recv(remaining)
            if not chunk:
                raise ConnectionError("server closed mid-frame")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def _round_trip(self, frame: bytes) -> dict:
        """Send one frame, read one response; raise on any failure.

        The socket is dropped on every failure path, so the next
        attempt (this call's retry, or the next store call) starts
        from a fresh connection.
        """
        sock = self._connect()
        try:
            kind = faults.inject("remote.send")
            if kind == "delay":
                time.sleep(faults.delay_seconds())
            elif kind in ("reset", "crash", "error"):
                raise ConnectionResetError(
                    "injected fault: remote.send reset"
                )
            elif kind == "torn":
                sock.sendall(frame[: max(5, len(frame) // 2)])
                raise ConnectionError(
                    "injected fault: remote.send torn frame"
                )
            elif kind == "corrupt":
                frame = _HEADER.pack(len(frame) - 4) + b"\x00" * (
                    len(frame) - 4
                )
            sock.sendall(frame)
            kind = faults.inject("remote.recv")
            if kind == "delay":
                time.sleep(faults.delay_seconds())
            elif kind is not None:
                raise ConnectionResetError(
                    f"injected fault: remote.recv {kind}"
                )
            (length,) = _HEADER.unpack(self._recv_exact(sock, 4))
            if length > MAX_FRAME_BYTES:
                raise ConnectionError(
                    f"oversized response frame: {length} bytes "
                    f"(max {MAX_FRAME_BYTES})"
                )
            return json.loads(self._recv_exact(sock, length))
        except BaseException:
            self._drop()
            raise

    def _request(self, message: dict) -> Optional[dict]:
        """One logical request under retry + breaker; None on failure."""
        frame = encode_frame(message)
        if not self.breaker.allow():
            return None  # open circuit: degrade instantly to a miss
        try:
            response = self.retry.run(
                lambda: self._round_trip(frame),
                site="remote.send",
                retriable=(OSError, ValueError),
                on_retry=lambda attempt, exc: self._count_retry(),
            )
        except RetryError as exc:
            self.transport_failures += 1
            self.breaker.record_failure()
            log.warning(
                "remote store %s call failed (%s); degrading to a miss",
                self.address, exc,
            )
            return None
        self.breaker.record_success()
        if not isinstance(response, dict) or not response.get("ok"):
            # A protocol-level rejection is a healthy transport: the
            # server answered.  It never trips the breaker.
            self.protocol_rejections += 1
            log.warning(
                "remote store %s rejected %s: %s",
                self.address, message.get("op"),
                (response or {}).get("error"),
            )
            return None
        return response

    def _count_retry(self) -> None:
        self.retries += 1

    def ping(self) -> bool:
        return self._request({"op": "ping"}) is not None

    def load_text(self, key: StudyKey) -> Optional[str]:
        response = self._request(
            {"op": "load", "key": _key_to_payload(key)}
        )
        if response is None:
            return None
        payload = response.get("payload")
        return payload if isinstance(payload, str) else None

    def save_text(self, key: StudyKey, text: str) -> None:
        self._request(
            {"op": "save", "key": _key_to_payload(key), "payload": text}
        )

    def resilience_stats(self) -> dict:
        """Retry/breaker counters for ``GET /stats`` and diagnostics."""
        return {
            "retries": self.retries,
            "transport_failures": self.transport_failures,
            "protocol_rejections": self.protocol_rejections,
            "breaker": self.breaker.stats(),
        }

    def close(self) -> None:
        self._drop()


# ----------------------------------------------------------------------
# Server
# ----------------------------------------------------------------------


class StudyStoreServer:
    """Serve a backing :class:`StudyStore` over the frame protocol.

    The connection loop must survive anything a client can send:
    truncated frames, non-JSON payloads, oversize length prefixes and
    mid-frame disconnects are per-connection events — answered with a
    clear error frame where a response is still possible, counted, and
    never allowed to kill the accept loop.
    """

    def __init__(
        self,
        backing: StudyStore,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.backing = backing
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self.loads = 0
        self.saves = 0
        self.errors = 0
        self.oversized = 0
        self.malformed = 0

    async def start(self) -> "StudyStoreServer":
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def stats(self) -> dict:
        return {
            "loads": self.loads,
            "saves": self.saves,
            "errors": self.errors,
            "oversized": self.oversized,
            "malformed": self.malformed,
        }

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    header = await reader.readexactly(4)
                except asyncio.IncompleteReadError as exc:
                    if exc.partial:
                        self.malformed += 1  # truncated length prefix
                    break  # end-of-stream
                (length,) = _HEADER.unpack(header)
                if length > MAX_FRAME_BYTES:
                    # Refuse with a clear error instead of attempting
                    # an unbounded read/alloc, then drop the client —
                    # the stream offset is unrecoverable.
                    self.oversized += 1
                    writer.write(encode_frame({
                        "ok": False,
                        "error": (
                            f"frame length {length} exceeds "
                            f"{MAX_FRAME_BYTES} bytes"
                        ),
                    }))
                    await writer.drain()
                    break
                try:
                    data = await reader.readexactly(length)
                except asyncio.IncompleteReadError:
                    self.malformed += 1  # disconnected mid-frame
                    break
                response = encode_frame(self._respond(data))
                kind = faults.inject("server.respond")
                if kind == "delay":
                    await asyncio.sleep(faults.delay_seconds())
                    kind = None
                if kind in ("reset", "crash", "error"):
                    break  # drop the connection without answering
                if kind == "corrupt":
                    # Valid frame, garbage payload: the client's JSON
                    # parse fails and its retry policy takes over.
                    response = _HEADER.pack(len(response) - 4) + b"\x00" * (
                        len(response) - 4
                    )
                elif kind == "torn":
                    writer.write(response[: max(5, len(response) // 2)])
                    await writer.drain()
                    break
                writer.write(response)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        except asyncio.CancelledError:
            pass  # server shutdown with this connection open
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                OSError,
                asyncio.CancelledError,
            ):
                pass

    def _respond(self, data: bytes) -> dict:
        try:
            request = json.loads(data)
            if not isinstance(request, dict):
                raise TypeError(
                    f"request must be a JSON object, "
                    f"got {type(request).__name__}"
                )
            op = request.get("op")
            if op == "ping":
                return {"ok": True, "pong": True, "store": self.backing.kind}
            if op == "load":
                key = _key_from_payload(request["key"])
                self.loads += 1
                return {"ok": True, "payload": self.backing.load_text(key)}
            if op == "save":
                key = _key_from_payload(request["key"])
                payload = request["payload"]
                if not isinstance(payload, str):
                    raise TypeError("save payload must be a string")
                self.backing.save_text(key, payload)
                self.saves += 1
                return {"ok": True}
            return {"ok": False, "error": f"unknown op {op!r}"}
        except Exception as exc:
            self.errors += 1
            return {
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
            }


register_store_kind("remote", lambda target: RemoteStudyStore(target))
