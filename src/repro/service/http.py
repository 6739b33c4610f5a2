"""A minimal asyncio HTTP/1.1 front end for the selection engine.

Stdlib only — ``asyncio.start_server`` plus a small HTTP/1.1 request
parser (request line, headers, ``Content-Length`` body, keep-alive).
Every response is JSON.  Routes:

* ``POST /select`` — ``{"expression", "dims", ["discriminant"],
  ["annotate"]}`` → one selection, answered through the micro-batcher
  (concurrent requests for the same expression coalesce into a single
  ``select_batch`` call).
* ``POST /select_batch`` — ``{"expression", "dims": [[...], ...],
  ["discriminant"], ["annotate"]}`` → many selections in one round
  trip, bypassing the batcher (the request *is* the batch).
* ``GET /stats`` — LRU hit/miss counters, batching counters, request
  counters, engine configuration.
* ``GET /healthz`` — liveness probe.

Client errors (unknown expression/discriminant, malformed dims or
JSON) are HTTP 400 with ``{"error": ...}``; unexpected failures are
logged and answered 500 without tearing down the connection.

Overload and shutdown are first-class:

* a per-request **deadline** answers 503 ``deadline exceeded`` when a
  dispatch overruns its budget;
* a **max-inflight** bound sheds excess load with an immediate 503
  instead of queueing without limit;
* :meth:`SelectionService.drain` (wired to SIGTERM by the CLI) stops
  accepting, lets every in-flight request finish and flush its
  response — zero dropped answers — then closes idle keep-alive
  connections and reports final stats.

``GET /stats`` carries a ``resilience`` section: the configured
deadline and in-flight bound, the in-flight count, the draining flag,
and the shed and deadline-exceeded counters.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time
from typing import Optional, Set, Tuple

from repro.service.batching import SelectionBatcher
from repro.service.engine import SelectionEngine, SelectionError

log = logging.getLogger("repro.service")

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Largest accepted request body.
MAX_BODY_BYTES = 1 << 20

#: Largest accepted request line / header line.
_MAX_LINE_BYTES = 16 << 10


class _BadRequest(Exception):
    """Unparseable HTTP; answered once, then the connection closes."""


class SelectionService:
    """The HTTP server: engine + batcher behind ``asyncio.start_server``."""

    def __init__(
        self,
        engine: SelectionEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = 1024,
        deadline: Optional[float] = None,
        max_inflight: Optional[int] = None,
    ) -> None:
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be > 0 seconds, got {deadline}")
        if max_inflight is not None and max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        self.engine = engine
        self.batcher = SelectionBatcher(engine, max_batch=max_batch)
        self.host = host
        self.port = port
        self.deadline = deadline
        self.max_inflight = max_inflight
        self._server: Optional[asyncio.AbstractServer] = None
        self._started = time.monotonic()
        self._inflight = 0
        self._quiet: Optional[asyncio.Event] = None  # set when inflight==0
        self._draining = False
        self._conn_tasks: Set[asyncio.Task] = set()
        self.request_counts = {
            "select": 0,
            "select_batch": 0,
            "stats": 0,
            "health": 0,
            "errors": 0,
            "shed": 0,
            "deadline_exceeded": 0,
        }

    async def start(self) -> "SelectionService":
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        # Port 0 means "pick one"; report what the OS picked.
        self.port = self._server.sockets[0].getsockname()[1]
        self._started = time.monotonic()
        self._quiet = asyncio.Event()
        self._quiet.set()
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

    async def drain(self) -> dict:
        """Graceful shutdown: stop accepting, finish in-flight work.

        The SIGTERM path.  Closes the listener first (no new
        connections), waits for every in-flight request to write its
        response — zero dropped answers — then closes the idle
        keep-alive connections that are parked waiting for a next
        request.  Returns the final stats snapshot so the caller can
        flush it.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        while self._quiet is not None and self._inflight:
            self._quiet.clear()
            await self._quiet.wait()
        # Nothing is mid-request now; connections still open are idle
        # readers, and responses already carried ``Connection: close``.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        return self.stats()

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _begin_request(self) -> None:
        self._inflight += 1
        if self._quiet is not None:
            self._quiet.clear()

    def _end_request(self) -> None:
        self._inflight -= 1
        if self._inflight == 0 and self._quiet is not None:
            self._quiet.set()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as exc:
                    self.request_counts["errors"] += 1
                    await self._respond(
                        writer, 400, {"error": str(exc)}, keep_alive=False
                    )
                    break
                if request is None:
                    break
                method, path, body, keep_alive = request
                self._begin_request()
                try:
                    status, payload = await self._answer(method, path, body)
                    if self._draining:
                        keep_alive = False  # finish this one, then close
                    await self._respond(writer, status, payload, keep_alive)
                finally:
                    self._end_request()
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            TimeoutError,
        ):
            pass  # client went away mid-request
        except asyncio.CancelledError:
            pass  # server shutdown with this keep-alive connection open
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
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

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, bytes, bool]]:
        """One parsed request, or None on a clean end-of-stream."""
        try:
            line = await reader.readline()
        except ValueError:  # line longer than the stream limit
            raise _BadRequest("request line too long") from None
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _BadRequest(f"malformed request line: {line!r}")
        method, target, version = parts
        headers = {}
        while True:
            try:
                header_line = await reader.readline()
            except ValueError:
                raise _BadRequest("header line too long") from None
            if len(header_line) > _MAX_LINE_BYTES:
                raise _BadRequest("header line too long")
            if header_line in (b"\r\n", b"\n"):
                break
            if not header_line:
                return None  # EOF mid-headers
            name, _sep, value = header_line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            raise _BadRequest(
                f"bad Content-Length: {raw_length!r}"
            ) from None
        if length < 0 or length > MAX_BODY_BYTES:
            raise _BadRequest(f"body too large: {length} bytes")
        body = await reader.readexactly(length) if length else b""
        connection = headers.get("connection", "").lower()
        if version == "HTTP/1.1":
            keep_alive = connection != "close"
        else:
            keep_alive = connection == "keep-alive"
        return method, target, body, keep_alive

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        keep_alive: bool,
    ) -> None:
        data = json.dumps(payload).encode()
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n"
        )
        writer.write(head.encode("latin-1") + data)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _answer(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, dict]:
        """Dispatch under the overload policy: shed, then deadline.

        Only the selection routes are subject to shedding and
        deadlines — ``/stats`` and ``/healthz`` must stay observable
        exactly when the service is struggling.
        """
        route = path.split("?", 1)[0]
        if route in ("/select", "/select_batch"):
            if (
                self.max_inflight is not None
                and self._inflight > self.max_inflight
            ):
                self.request_counts["shed"] += 1
                self.request_counts["errors"] += 1
                return 503, {
                    "error": (
                        f"overloaded: {self._inflight} requests in flight "
                        f"(max {self.max_inflight})"
                    )
                }
            if self.deadline is not None:
                try:
                    return await asyncio.wait_for(
                        self._dispatch(method, path, body),
                        timeout=self.deadline,
                    )
                except asyncio.TimeoutError:
                    self.request_counts["deadline_exceeded"] += 1
                    self.request_counts["errors"] += 1
                    return 503, {
                        "error": (
                            f"deadline exceeded "
                            f"({self.deadline * 1000:.0f} ms)"
                        )
                    }
        return await self._dispatch(method, path, body)

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, dict]:
        path = path.split("?", 1)[0]
        try:
            if path == "/select":
                if method != "POST":
                    return self._error(405, "POST /select")
                request = self._json_body(body)
                selection = await self.batcher.select(
                    request.get("expression"),
                    request.get("dims"),
                    discriminant=request.get("discriminant"),
                    annotate=bool(request.get("annotate", True)),
                )
                self.request_counts["select"] += 1
                return 200, selection.to_payload()
            if path == "/select_batch":
                if method != "POST":
                    return self._error(405, "POST /select_batch")
                request = self._json_body(body)
                dims_list = request.get("dims")
                if not isinstance(dims_list, list):
                    raise SelectionError(
                        "select_batch needs 'dims': a list of dims lists"
                    )
                selections = self.engine.select_many(
                    request.get("expression"),
                    dims_list,
                    discriminant=request.get("discriminant"),
                    annotate=bool(request.get("annotate", True)),
                )
                self.request_counts["select_batch"] += 1
                return 200, {
                    "selections": [s.to_payload() for s in selections]
                }
            if path == "/stats":
                if method != "GET":
                    return self._error(405, "GET /stats")
                self.request_counts["stats"] += 1
                return 200, self.stats()
            if path == "/healthz":
                if method != "GET":
                    return self._error(405, "GET /healthz")
                self.request_counts["health"] += 1
                return 200, {"ok": True}
            self.request_counts["errors"] += 1
            return 404, {"error": f"unknown path {path!r}"}
        except SelectionError as exc:
            self.request_counts["errors"] += 1
            return 400, {"error": str(exc)}
        except Exception as exc:  # keep serving whatever happens
            self.request_counts["errors"] += 1
            log.exception("unhandled error on %s %s", method, path)
            return 500, {"error": f"internal error: {type(exc).__name__}"}

    def _error(self, status: int, allowed: str) -> Tuple[int, dict]:
        self.request_counts["errors"] += 1
        return status, {"error": f"use {allowed}"}

    @staticmethod
    def _json_body(body: bytes) -> dict:
        try:
            payload = json.loads(body) if body else {}
        except ValueError as exc:
            raise SelectionError(f"body must be JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise SelectionError("body must be a JSON object")
        return payload

    def stats(self) -> dict:
        return {
            "ok": True,
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "requests": dict(self.request_counts),
            "batch": self.batcher.stats(),
            "resilience": {
                "deadline_seconds": self.deadline,
                "max_inflight": self.max_inflight,
                "inflight": self._inflight,
                "draining": self._draining,
                "shed": self.request_counts["shed"],
                "deadline_exceeded": self.request_counts[
                    "deadline_exceeded"
                ],
            },
            **self.engine.stats(),
        }
