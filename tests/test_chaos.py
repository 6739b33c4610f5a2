"""Damaged stores and slow requests must never change the answers.

Each test damages the system with a test-local fake — a store whose
loads or saves come back corrupted, torn, raising or slow, a request
path that stalls — and asserts that study payloads stay
**byte-identical** and selections **index-identical** to the
undamaged run.  Loads are best-effort (see :mod:`repro.figures.cache`):
a damaged load is a miss that recomputes, and the recompute's save
overwrites a damaged entry with the canonical bytes.

Every damage schedule is deterministic, so a failure replays exactly.
"""

import asyncio
import json
import random
import time

import pytest

from repro.figures.cache import (
    JsonDirectoryStore,
    SqliteStudyStore,
    StudyKey,
    StudyStore,
)
from repro.runner import runner as runner_module
from repro.runner.runner import run_study
from repro.service import SelectionEngine, SelectionService

KEY = StudyKey(scale="quick", seed=0, expression="aatb", box="paper_box")
DIMS = [[100, 200, 300], [50, 60, 70], [1200, 1200, 1200]]


class DamagedStore(StudyStore):
    """A real store whose text operations are damaged on a schedule.

    ``spec`` is ``;``-separated clauses.  ``store.load=KIND:N`` and
    ``store.save=KIND:N`` damage the first N loads or saves with KIND:
    ``corrupt`` splices a NUL byte into the text, ``torn`` cuts it
    short, ``error`` raises ``OSError`` and ``delay`` pauses.
    ``seed=N`` seeds where in the text a damage lands and ``delay=S``
    sets the pause.
    """

    def __init__(self, inner: StudyStore, spec: str) -> None:
        self.inner = inner
        self.kind = inner.kind
        self.rng = random.Random(0)
        self.pause = 0.0
        self.pending = {"store.load": [], "store.save": []}
        for clause in spec.split(";"):
            name, _, value = clause.partition("=")
            if name == "seed":
                self.rng.seed(int(value))
            elif name == "delay":
                self.pause = float(value)
            else:
                damage, _, count = value.partition(":")
                self.pending[name] += [damage] * int(count)

    def _damage(self, op, text):
        damage = self.pending[op].pop(0) if self.pending[op] else None
        if damage == "delay":
            time.sleep(self.pause)
        elif damage == "error":
            raise OSError(f"{op} failed")
        elif text is not None and damage == "corrupt":
            at = self.rng.randrange(len(text))
            text = text[:at] + "\x00" + text[at:]
        elif text is not None and damage == "torn":
            text = text[: self.rng.randrange(len(text))]
        return text

    def load_text(self, key):
        return self._damage("store.load", self.inner.load_text(key))

    def save_text(self, key, text):
        self.inner.save_text(key, self._damage("store.save", text))

    def close(self):
        self.inner.close()


@pytest.fixture(scope="module")
def baseline_bytes(tmp_path_factory):
    """The undamaged canonical payload bytes for KEY."""
    root = tmp_path_factory.mktemp("baseline")
    assert run_study(KEY, "json", str(root)).status == "computed"
    return JsonDirectoryStore(root).path_for(KEY).read_bytes()


def _run_damaged(monkeypatch, store, runs):
    """``runs`` run_study calls of KEY, each through ``store``."""
    monkeypatch.setattr(runner_module, "make_store", lambda kind, root: store)
    outcomes = [run_study(KEY, store.kind, "unused") for _ in range(runs)]
    monkeypatch.undo()
    # Every scheduled damage landed.
    assert store.pending == {"store.load": [], "store.save": []}
    return outcomes


async def _http(port, method, path, body=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = b"" if body is None else json.dumps(body).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
    )
    writer.write(head.encode() + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except OSError:
        pass
    head_text, _, body_text = raw.partition(b"\r\n\r\n")
    return int(head_text.split()[1]), json.loads(body_text)


# ----------------------------------------------------------------------
# Store damage: payloads heal byte-identically
# ----------------------------------------------------------------------

#: Three schedules over a store's loads and saves; each damages them
#: differently, and the store must end up byte-identical to the
#: undamaged baseline every time.
STORE_PLANS = (
    "seed=1;store.load=corrupt:2",
    "seed=2;store.save=corrupt:1;store.load=torn:1",
    "seed=3;delay=0.001;store.load=delay:2;store.save=torn:1",
)


@pytest.mark.parametrize("spec", STORE_PLANS)
def test_store_chaos_heals_byte_identically(
    tmp_path, monkeypatch, spec, baseline_bytes
):
    store = DamagedStore(JsonDirectoryStore(tmp_path), spec)
    outcomes = _run_damaged(monkeypatch, store, runs=4)
    # No study failed, whatever the schedule broke along the way...
    assert all(o.status in ("computed", "cached") for o in outcomes)
    # ...and once the schedule is spent the stored payload is exactly
    # the undamaged one: damaged entries became misses, recomputes
    # overwrote them with canonical bytes.
    path = JsonDirectoryStore(tmp_path).path_for(KEY)
    assert path.read_bytes() == baseline_bytes
    assert run_study(KEY, "json", str(tmp_path)).status == "cached"


def test_corrupt_load_is_a_miss_not_a_failure(
    tmp_path, monkeypatch, baseline_bytes
):
    assert run_study(KEY, "json", str(tmp_path)).status == "computed"
    store = DamagedStore(
        JsonDirectoryStore(tmp_path), "seed=4;store.load=corrupt:1"
    )
    (outcome,) = _run_damaged(monkeypatch, store, runs=1)
    # The entry on disk was fine; the corrupted read made the load a
    # miss, so the study recomputed instead of failing.
    assert outcome.status == "computed"
    path = JsonDirectoryStore(tmp_path).path_for(KEY)
    assert path.read_bytes() == baseline_bytes


def test_raising_store_load_surfaces_a_note(tmp_path, monkeypatch):
    store = DamagedStore(
        SqliteStudyStore(tmp_path), "seed=5;store.load=error:1"
    )
    (outcome,) = _run_damaged(monkeypatch, store, runs=1)
    assert outcome.status == "computed"
    assert "store load failed, recomputed" in outcome.error
    assert "OSError: store.load failed" in outcome.error
    # The recompute still reached the store.
    assert run_study(KEY, "sqlite", str(tmp_path)).status == "cached"


# ----------------------------------------------------------------------
# Request stalls: answers stay index-identical
# ----------------------------------------------------------------------


def test_service_answers_identically_under_request_delays():
    engine = SelectionEngine(scale="quick", seed=0)
    expected = [s.algorithm_index for s in engine.select_many("aatb", DIMS)]

    async def run():
        service = SelectionService(engine, port=0)
        await service.start()
        dispatch = service._dispatch
        stalled = []

        async def stalling_dispatch(method, path, body):
            # The first two requests stall before they are handled.
            if len(stalled) < 2:
                stalled.append(path)
                await asyncio.sleep(0.02)
            return await dispatch(method, path, body)

        service._dispatch = stalling_dispatch
        results = await asyncio.gather(
            *(
                _http(
                    service.port,
                    "POST",
                    "/select",
                    {"expression": "aatb", "dims": dims},
                )
                for dims in DIMS
            )
        )
        await service.stop()
        return results, stalled

    results, stalled = asyncio.run(run())
    assert stalled == ["/select", "/select"]
    assert [status for status, _payload in results] == [200] * len(DIMS)
    assert [
        payload["algorithm"]["index"] for _status, payload in results
    ] == expected
