"""The ``remote`` study store: wire round-trips and degradation.

The load-bearing promises: a study that crossed the wire is
byte-identical to one written by a local store (the server relays
canonical payload text opaquely), and an unreachable server is a miss
or a no-op — never a pipeline error.
"""

import asyncio
import json
import socket
import struct
import subprocess
import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.figures.cache import StudyKey, make_store
from repro.runner.runner import run_study
from repro.service.remote import (
    MAX_FRAME_BYTES,
    RemoteStudyStore,
    StudyStoreServer,
    encode_frame,
    parse_address,
)

KEY = StudyKey(scale="quick", seed=0, expression="aatb", box="paper_box")


@pytest.fixture()
def served_store(tmp_path):
    """A StudyStoreServer over a json backing, on a live thread."""
    backing = make_store("json", tmp_path / "backing")
    loop = asyncio.new_event_loop()
    server = StudyStoreServer(backing)
    ready = threading.Event()

    def run():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        ready.set()
        loop.run_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(5)
    yield server, backing
    # Let open connection handlers drain before tearing the loop down.
    asyncio.run_coroutine_threadsafe(server.stop(), loop).result(5)
    asyncio.run_coroutine_threadsafe(asyncio.sleep(0.05), loop).result(5)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(5)
    loop.close()


def test_parse_address():
    assert parse_address("localhost:8765") == ("localhost", 8765)
    assert parse_address("10.0.0.2:80") == ("10.0.0.2", 80)
    for bad in ("localhost", ":8765", "host:", "host:eight"):
        with pytest.raises(ValueError):
            parse_address(bad)


def test_remote_round_trip_is_byte_identical(served_store):
    server, backing = served_store
    address = f"127.0.0.1:{server.port}"
    # Warm the store straight through the runner's remote kind — the
    # same plumbing `--store remote --cache-dir host:port` uses.
    assert run_study(KEY, "remote", address).status == "computed"
    assert run_study(KEY, "remote", address).status == "cached"
    client = make_store("remote", address)
    try:
        assert client.ping()
        over_the_wire = client.raw_payload(KEY)
        local = backing.raw_payload(KEY)
        assert over_the_wire is not None
        assert over_the_wire == local
        # And a decoded load round-trips to a usable study.
        study = client.load(KEY)
        assert study is not None and "search" in study
    finally:
        client.close()
    assert server.loads >= 2 and server.saves == 1


def test_remote_save_then_local_load(served_store):
    server, backing = served_store
    client = make_store("remote", f"127.0.0.1:{server.port}")
    try:
        client.save_text(KEY, "payload-sent-over-the-wire")
        assert backing.load_text(KEY) == "payload-sent-over-the-wire"
        assert client.load_text(KEY) == "payload-sent-over-the-wire"
    finally:
        client.close()


def test_variant_study_and_baseline_are_distinct_remote_entries(
    served_store,
):
    # The wire key carries the ablation variant, so the server files a
    # variant study under its own slug instead of over its baseline's.
    server, backing = served_store
    address = f"127.0.0.1:{server.port}"
    variant_key = replace(KEY, variant="no-noise")
    for key in (KEY, variant_key):
        assert run_study(key, "remote", address).status == "computed"
    client = make_store("remote", address)
    try:
        baseline = client.raw_payload(KEY)
        variant = client.raw_payload(variant_key)
        assert baseline is not None and variant is not None
        assert baseline != variant
        assert client.load(KEY) is not None
        assert client.load(variant_key) is not None
        # A version-1 key, without the variant, is refused, not guessed.
        version1_key = {
            "scale": KEY.scale,
            "seed": KEY.seed,
            "expression": KEY.expression,
            "box": KEY.box,
        }
        assert client._request({"op": "load", "key": version1_key}) is None
    finally:
        client.close()
    assert len(list(backing.root.glob("*.json"))) == 2


def test_unreachable_server_degrades_to_misses():
    # Port 1 is never listening; every operation degrades, none raise.
    store = RemoteStudyStore("127.0.0.1:1", timeout=0.5)
    assert store.ping() is False
    assert store.load_text(KEY) is None
    assert store.load(KEY) is None
    store.save_text(KEY, "dropped on the floor")
    store.close()


def test_run_study_computes_when_server_is_unreachable():
    # The service-degradation contract end-to-end: a runner pointed at
    # a dead store server still computes its study (it just cannot
    # persist it).
    outcome = run_study(KEY, "remote", "127.0.0.1:1")
    assert outcome.status == "computed"
    assert outcome.error == ""


def test_server_rejects_bad_requests_but_keeps_serving(served_store):
    server, _backing = served_store
    client = make_store("remote", f"127.0.0.1:{server.port}")
    try:
        assert client._request({"op": "explode"}) is None
        assert client._request({"op": "save", "key": {}, "payload": 7}) is None
        # The connection (and server) survived both rejections.
        assert client.ping()
    finally:
        client.close()
    assert server.errors >= 1


def test_client_reconnects_after_server_side_drop(served_store):
    server, _backing = served_store
    client = make_store("remote", f"127.0.0.1:{server.port}")
    try:
        assert client.ping()
        # Kill the client's socket out from under it; the next call
        # must reconnect transparently (one retry), not fail.
        client._sock.close()
        assert client.ping()
    finally:
        client.close()


def test_oversized_frames_are_refused_client_side():
    store = RemoteStudyStore("127.0.0.1:1", timeout=0.5)
    with pytest.raises(ValueError):
        encode_frame({"payload": "x" * (70 << 20)})
    store.close()


def _raw_connection(server) -> socket.socket:
    return socket.create_connection(("127.0.0.1", server.port), timeout=2)


def _read_frame(sock: socket.socket) -> dict:
    header = b""
    while len(header) < 4:
        chunk = sock.recv(4 - len(header))
        assert chunk, "server closed before a full header"
        header += chunk
    (length,) = struct.unpack(">I", header)
    data = b""
    while len(data) < length:
        chunk = sock.recv(length - len(data))
        assert chunk, "server closed mid-frame"
        data += chunk
    return json.loads(data)


def _wait_for(predicate, timeout=2.0):
    """Poll for a server-side counter the loop updates asynchronously."""
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert predicate()


def test_server_survives_truncated_length_prefix(served_store):
    server, _backing = served_store
    with _raw_connection(server) as sock:
        sock.sendall(b"\x00\x01")  # 2 of the 4 header bytes, then gone
    _wait_for(lambda: server.malformed >= 1)
    # The accept loop survived: a well-behaved client still gets through.
    client = make_store("remote", f"127.0.0.1:{server.port}")
    try:
        assert client.ping()
    finally:
        client.close()


def test_server_survives_mid_frame_disconnect(served_store):
    server, _backing = served_store
    with _raw_connection(server) as sock:
        sock.sendall(struct.pack(">I", 100) + b"only ten b")
    _wait_for(lambda: server.malformed >= 1)
    client = make_store("remote", f"127.0.0.1:{server.port}")
    try:
        assert client.ping()
    finally:
        client.close()


def test_server_refuses_oversized_length_prefix_with_a_clear_error(
    served_store,
):
    server, _backing = served_store
    with _raw_connection(server) as sock:
        sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        response = _read_frame(sock)
        assert response["ok"] is False
        assert "exceeds" in response["error"]
        assert str(MAX_FRAME_BYTES) in response["error"]
        # The stream offset is unrecoverable: the server drops us.
        assert sock.recv(1) == b""
    assert server.oversized == 1
    client = make_store("remote", f"127.0.0.1:{server.port}")
    try:
        assert client.ping()
    finally:
        client.close()


def test_server_answers_non_json_and_non_object_payloads(served_store):
    server, _backing = served_store
    with _raw_connection(server) as sock:
        payload = b"this is not json"
        sock.sendall(struct.pack(">I", len(payload)) + payload)
        response = _read_frame(sock)
        assert response["ok"] is False
        # The connection survived the garbage: a JSON array is also
        # rejected (requests must be objects), on the same socket...
        payload = b"[1,2,3]"
        sock.sendall(struct.pack(">I", len(payload)) + payload)
        response = _read_frame(sock)
        assert response["ok"] is False
        assert "JSON object" in response["error"]
        # ...and a valid ping still works on it afterwards.
        sock.sendall(encode_frame({"op": "ping"}))
        assert _read_frame(sock)["ok"] is True
    assert server.errors >= 2
    assert server.stats()["errors"] >= 2


def test_remote_kind_registers_lazily():
    # make_store("remote", ...) must work in a process that never
    # imported repro.service — the factory table lazy-imports it.
    code = (
        "from repro.figures.cache import make_store; "
        "import sys; "
        "assert 'repro.service.remote' not in sys.modules; "
        "store = make_store('remote', '127.0.0.1:1'); "
        "print(store.kind, store.address)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        cwd=".",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "remote 127.0.0.1:1"


def test_make_store_rejects_unknown_kind(tmp_path):
    with pytest.raises(ValueError) as excinfo:
        make_store("postgres", tmp_path)
    assert "json/sqlite/remote" in str(excinfo.value)
