"""Selection service: LRU, engine, micro-batching, HTTP front end.

The load-bearing promises: batched selection is index-identical to
per-request selection, the LRU is capacity-bounded with honest
counters, and the service keeps answering when its study store is
cold, corrupt, or unreachable.
"""

import asyncio
import importlib
import json
import random
import tracemalloc

import numpy as np
import pytest

from repro.ablation.harness import HYBRID_MARGIN
from repro.backends.simulated import SimulatedBackend
from repro.core.discriminants import (
    BenchmarkDiscriminant,
    FlopsProfileHybrid,
    MinFlopsDiscriminant,
    ProfiledTimeDiscriminant,
)
from repro.expressions.registry import get_expression
from repro.figures.cache import JsonDirectoryStore, StudyKey, StudyStore
from repro.machine.presets import paper_machine
from repro.profiles.benchmark import standard_profiles
from repro.service import (
    LruCache,
    SelectionBatcher,
    SelectionEngine,
    SelectionError,
    SelectionService,
)

DIMS = [
    [100, 200, 300],
    [50, 60, 70],
    [800, 100, 900],
    [1200, 1200, 1200],
    [24, 1400, 24],
]


@pytest.fixture(scope="module")
def engine():
    # Store-less: studies compute locally on first use, then sit in
    # the LRU for the rest of the module.
    return SelectionEngine(scale="quick", seed=0)


# ----------------------------------------------------------------------
# LRU
# ----------------------------------------------------------------------


def test_lru_evicts_least_recently_used_and_counts():
    lru = LruCache(2)
    lru.put("a", 1)
    lru.put("b", 2)
    assert lru.get("a") == 1  # touch: "b" is now the coldest
    lru.put("c", 3)  # evicts "b"
    assert "b" not in lru and "a" in lru and "c" in lru
    assert lru.get("b") is None
    assert lru.keys() == ("a", "c")
    assert lru.stats() == {
        "capacity": 2,
        "size": 2,
        "hits": 1,
        "misses": 1,
        "evictions": 1,
    }
    lru.clear()
    assert len(lru) == 0


def test_lru_refresh_does_not_evict():
    lru = LruCache(2)
    lru.put("a", 1)
    lru.put("b", 2)
    lru.put("a", 10)  # refresh, not insert
    assert lru.stats()["evictions"] == 0
    assert lru.get("a") == 10 and lru.get("b") == 2


def test_lru_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        LruCache(0)


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------


def test_engine_selects_and_annotates(engine):
    selection = engine.select("aatb", [100, 200, 300])
    assert selection.expression == "aatb"
    assert 0 <= selection.algorithm_index < selection.n_algorithms
    assert selection.discriminant == "hybrid"
    assert selection.study_source in ("computed", "lru")
    assert selection.in_known_anomaly_region in (True, False)
    payload = selection.to_payload()
    assert payload["algorithm"]["name"] == selection.algorithm_name
    assert payload["dims"] == [100, 200, 300]


def test_engine_batch_is_index_identical_to_per_request(engine):
    for discriminant in ("min-flops", "profiled-time", "hybrid"):
        batched = engine.select_many("aatb", DIMS, discriminant=discriminant)
        singles = [
            engine.select("aatb", dims, discriminant=discriminant)
            for dims in DIMS
        ]
        assert [s.algorithm_index for s in batched] == [
            s.algorithm_index for s in singles
        ]


def test_engine_second_study_access_is_an_lru_hit(engine):
    engine.select("aatb", [100, 200, 300])
    assert engine.select("aatb", [90, 80, 70]).study_source == "lru"
    assert engine.stats()["lru"]["hits"] >= 1


def test_engine_annotate_false_skips_study_lookup(engine):
    selection = engine.select("aatb", [100, 200, 300], annotate=False)
    assert selection.study_source == "skipped"
    assert selection.in_known_anomaly_region is None


def _distinct_sum4_requests_grow(engine, discriminant):
    """Traced bytes held after the last 2,500 of 5,000 distinct one-row
    sum4 requests."""
    n_dims = engine.expression_for("sum4").n_dims
    rng = random.Random(5)

    def serve(count):
        for _ in range(count):
            dims = [rng.randrange(10, 1400) for _ in range(n_dims)]
            engine.select_many(
                "sum4", [dims], discriminant=discriminant, annotate=False
            )

    serve(2500)
    tracemalloc.start()
    try:
        serve(2500)
        grown, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return grown


def test_distinct_benchmark_sum_requests_keep_memory_flat(engine):
    """Predictions add no memo rows, so distinct requests hold no memory.

    Request dims almost never repeat; a memo row per predicted
    instance grew the engine by ~2 MB over 2,500 one-row sum4
    requests.
    """
    assert _distinct_sum4_requests_grow(engine, "benchmark-sum") < 0.25 * 2**20


@pytest.mark.parametrize("discriminant", ["hybrid", "min-flops"])
def test_distinct_flops_requests_keep_memory_flat(engine, discriminant):
    """FLOP counts and shortlist predictions cache no per-request state:
    the served tuple's call slots are interned once, and each hybrid
    shortlist is profiled out of them."""
    assert _distinct_sum4_requests_grow(engine, discriminant) < 0.25 * 2**20


def test_hybrid_requests_keep_one_slot_table_per_served_tuple(
    engine, monkeypatch
):
    """1,000 one-row hybrid requests over three expressions, their
    shortlists varying, intern each served tuple's slots once and
    build no other slot table."""
    # The module, not the ``classify`` function ``repro.core`` re-exports.
    classify = importlib.import_module("repro.core.classify")
    monkeypatch.setattr(classify, "_SLOTS", {})
    built = []

    class Counted(classify.CallSlots):
        def __init__(self, algorithms):
            built.append(len(algorithms))
            super().__init__(algorithms)

    monkeypatch.setattr(classify, "CallSlots", Counted)
    served = ("aatb", "chain4", "sum4")
    cutoff = 1.0 + engine.discriminants["hybrid"].margin
    rng = random.Random(8)
    shortlists = {name: set() for name in served}
    for i in range(1000):
        name = served[i % len(served)]
        n_dims = engine.expression_for(name).n_dims
        dims = [rng.randrange(10, 1400) for _ in range(n_dims)]
        engine.select_many(name, [dims], discriminant="hybrid", annotate=False)
        flops = classify.batch_flops(
            engine.algorithms_for(name), np.asarray([dims])
        )[0]
        shortlists[name].add(tuple(flops <= flops.min() * cutoff))
    assert all(len(kinds) > 1 for kinds in shortlists.values())
    assert sorted(built) == sorted(
        len(engine.algorithms_for(name)) for name in served
    )
    tables = classify._SLOTS
    assert sorted(tables) == sorted(
        tuple(map(id, engine.algorithms_for(name))) for name in served
    )
    for name in served:
        table = tables[tuple(map(id, engine.algorithms_for(name)))]
        assert table.algorithms is engine.algorithms_for(name)


@pytest.mark.parametrize(
    "expression,dims,fragment",
    [
        ("not-an-expression", [1, 2, 3], "unknown expression"),
        ("aatb", [100, 200], "takes 3 dims"),
        ("aatb", [100, 200, "many"], "dims must be integers"),
        ("aatb", [100, 200, -1], "dims must be positive"),
        ("aatb", "100x200x300", "list of integers"),
        ("", [1, 2, 3], "needs an 'expression'"),
        ("aatb", [100, 200, "150"], "dims must be integers"),
        ("aatb", [100.7, 200, 300], "dims must be integers"),
        ("aatb", [100.0, 200, 300], "dims must be integers"),
        ("aatb", [True, 200, 300], "dims must be integers"),
        ("aatb", [float("inf"), 200, 300], "dims must be integers"),
        ("aatb", [float("nan"), 200, 300], "dims must be integers"),
        ("aatb", [None, 200, 300], "dims must be integers"),
    ],
)
def test_engine_rejects_bad_requests(engine, expression, dims, fragment):
    with pytest.raises(SelectionError) as excinfo:
        engine.select(expression, dims)
    assert fragment in str(excinfo.value)


def test_engine_rejects_unknown_discriminant(engine):
    with pytest.raises(SelectionError) as excinfo:
        engine.select("aatb", [1, 2, 3], discriminant="oracle")
    assert "unknown discriminant" in str(excinfo.value)


def test_engine_reads_through_store_then_lru(tmp_path):
    store = JsonDirectoryStore(tmp_path)
    first = SelectionEngine(scale="quick", seed=0, store=store)
    selection = first.select("aatb", [100, 200, 300])
    assert selection.study_source == "computed"
    # The computed study was written back...
    assert store.load(StudyKey("quick", 0, "aatb")) is not None
    # ...so a fresh engine over the same store reads it instead of
    # recomputing, and picks identically.
    fresh = SelectionEngine(scale="quick", seed=0, store=store)
    again = fresh.select("aatb", [100, 200, 300])
    assert again.study_source == "store"
    assert again.algorithm_index == selection.algorithm_index
    assert fresh.select("aatb", [1, 2, 3]).study_source == "lru"


def test_engine_survives_a_broken_store(engine):
    class BrokenStore:
        kind = "broken"

        def load(self, key):
            raise OSError("store down")

        def save(self, key, *results):
            raise OSError("store down")

    class CorruptStore(StudyStore):
        # A torn payload: every load decodes to a miss.
        kind = "corrupt"

        def load_text(self, key):
            return '{"schema":2,"scale":"quick","seed":0,"search":{"ano'

        def save_text(self, key, text):
            pass

    broken = SelectionEngine(scale="quick", seed=0, store=BrokenStore())
    selection = broken.select("aatb", [100, 200, 300])
    assert selection.study_source == "computed"
    assert selection.in_known_anomaly_region in (True, False)
    stats = broken.stats()
    assert stats["store"]["errors"] >= 2  # the load and the write-back
    # Selection itself never degrades with the store.
    assert broken.select("aatb", [1, 2, 3]).study_source == "lru"

    corrupt = SelectionEngine(scale="quick", seed=0, store=CorruptStore())
    assert corrupt.select("aatb", DIMS[0]).study_source == "computed"
    assert corrupt.stats()["store"]["misses"] == 1

    def answers(chosen):
        return [
            (s.algorithm_index, s.in_known_anomaly_region)
            for s in chosen.select_many("aatb", DIMS)
        ]

    # Both degraded engines pick and annotate exactly as a clean one.
    assert answers(broken) == answers(corrupt) == answers(engine)


def test_engine_warm_preloads_the_lru(tmp_path):
    engine = SelectionEngine(
        scale="quick", seed=0, store=JsonDirectoryStore(tmp_path)
    )
    assert engine.warm(["aatb"]) == ["computed"]
    assert engine.warm(["aatb"]) == ["lru"]


def test_engine_validates_configuration():
    with pytest.raises(ValueError):
        SelectionEngine(scale="warm")
    with pytest.raises(ValueError):
        SelectionEngine(box="narrow_box")
    with pytest.raises(ValueError):
        SelectionEngine(default_discriminant="oracle")


# ----------------------------------------------------------------------
# Micro-batching
# ----------------------------------------------------------------------


def test_batcher_coalesces_concurrent_requests(engine):
    batcher = SelectionBatcher(engine)

    async def run():
        return await asyncio.gather(
            *(batcher.select("aatb", dims) for dims in DIMS)
        )

    results = asyncio.run(run())
    singles = [engine.select("aatb", dims) for dims in DIMS]
    assert [r.algorithm_index for r in results] == [
        s.algorithm_index for s in singles
    ]
    # All five awaited concurrently → one select_batch call.
    assert batcher.batches == 1
    assert batcher.max_batch_seen == len(DIMS)
    assert batcher.stats()["coalesced"] == len(DIMS) - 1


def test_batcher_sequential_requests_run_alone(engine):
    batcher = SelectionBatcher(engine)

    async def run():
        out = []
        for dims in DIMS[:2]:
            out.append(await batcher.select("aatb", dims))
        return out

    results = asyncio.run(run())
    assert len(results) == 2
    assert batcher.batches == 2
    assert batcher.max_batch_seen == 1


def test_batcher_max_batch_drains_eagerly(engine):
    batcher = SelectionBatcher(engine, max_batch=2)

    async def run():
        return await asyncio.gather(
            *(batcher.select("aatb", dims) for dims in DIMS[:4])
        )

    results = asyncio.run(run())
    assert len(results) == 4
    assert batcher.batches >= 2
    assert batcher.max_batch_seen <= 2


def test_batcher_propagates_request_errors(engine):
    batcher = SelectionBatcher(engine)

    async def run():
        return await asyncio.gather(
            batcher.select("aatb", [100, 200, 300]),
            batcher.select("not-an-expression", [1, 2, 3]),
            return_exceptions=True,
        )

    good, bad = asyncio.run(run())
    assert good.algorithm_index >= 0
    assert isinstance(bad, SelectionError)


def test_batcher_refuses_a_bad_request_alone(engine):
    """A bad request in a coalesced bucket fails alone."""
    batcher = SelectionBatcher(engine)

    async def run():
        return await asyncio.gather(
            batcher.select(
                "aatb", [100, 200, 300], "min-flops", annotate=False
            ),
            batcher.select(
                "aatb", [100, 200, -5], "min-flops", annotate=False
            ),
            return_exceptions=True,
        )

    good, bad = asyncio.run(run())
    solo = engine.select("aatb", [100, 200, 300], "min-flops", annotate=False)
    assert not isinstance(good, BaseException), good
    assert good.algorithm_index == solo.algorithm_index
    assert isinstance(bad, SelectionError)
    assert "dims must be positive" in str(bad)


# ----------------------------------------------------------------------
# HTTP front end
# ----------------------------------------------------------------------


async def _request(port, method, path, body=None):
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


def test_http_service_end_to_end(engine):
    async def run():
        service = SelectionService(engine, port=0)
        await service.start()
        port = service.port
        out = {
            "health": await _request(port, "GET", "/healthz"),
            "select": await _request(
                port,
                "POST",
                "/select",
                {"expression": "aatb", "dims": [100, 200, 300]},
            ),
            "batch": await _request(
                port,
                "POST",
                "/select_batch",
                {"expression": "aatb", "dims": DIMS},
            ),
            "unknown_expr": await _request(
                port,
                "POST",
                "/select",
                {"expression": "not-an-expression", "dims": [1, 2, 3]},
            ),
            "bad_json": await _request(port, "POST", "/select", "not a dict"),
            "not_found": await _request(port, "GET", "/nope"),
            "wrong_method": await _request(port, "GET", "/select"),
            "stats": await _request(port, "GET", "/stats"),
        }
        await service.stop()
        return out

    out = asyncio.run(run())
    assert out["health"] == (200, {"ok": True})

    status, payload = out["select"]
    assert status == 200
    expected = engine.select("aatb", [100, 200, 300])
    assert payload["algorithm"]["index"] == expected.algorithm_index
    assert payload["algorithm"]["name"] == expected.algorithm_name

    status, payload = out["batch"]
    assert status == 200
    singles = [engine.select("aatb", dims) for dims in DIMS]
    assert [s["algorithm"]["index"] for s in payload["selections"]] == [
        s.algorithm_index for s in singles
    ]

    assert out["unknown_expr"][0] == 400
    assert "unknown expression" in out["unknown_expr"][1]["error"]
    assert out["bad_json"][0] == 400
    assert out["not_found"][0] == 404
    assert out["wrong_method"][0] == 405

    status, stats = out["stats"]
    assert status == 200
    assert stats["requests"]["select"] == 1
    assert stats["requests"]["select_batch"] == 1
    assert stats["requests"]["health"] == 1
    assert stats["requests"]["errors"] == 4
    assert stats["batch"]["requests"] >= 1
    assert stats["lru"]["capacity"] >= 1
    assert "selections_served" in stats


def test_http_concurrent_selects_coalesce_into_one_batch(engine):
    async def run():
        service = SelectionService(engine, port=0)
        await service.start()
        results = await asyncio.gather(
            *(
                _request(
                    service.port,
                    "POST",
                    "/select",
                    {"expression": "aatb", "dims": dims},
                )
                for dims in DIMS
            )
        )
        seen = service.batcher.max_batch_seen
        await service.stop()
        return results, seen

    results, max_batch_seen = asyncio.run(run())
    singles = [engine.select("aatb", dims) for dims in DIMS]
    assert [payload["algorithm"]["index"] for _status, payload in results] == [
        s.algorithm_index for s in singles
    ]
    # The concurrent requests actually shared select_batch calls.
    assert max_batch_seen > 1


def test_http_keep_alive_serves_multiple_requests(engine):
    async def run():
        service = SelectionService(engine, port=0)
        await service.start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", service.port
        )
        statuses = []
        for _ in range(2):
            body = json.dumps(
                {"expression": "aatb", "dims": [100, 200, 300]}
            ).encode()
            writer.write(
                (
                    "POST /select HTTP/1.1\r\nHost: test\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n"
                ).encode()
                + body
            )
            await writer.drain()
            status_line = await reader.readline()
            statuses.append(int(status_line.split()[1]))
            length = 0
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n"):
                    break
                if line.lower().startswith(b"content-length:"):
                    length = int(line.split(b":")[1])
            await reader.readexactly(length)
        writer.close()
        await service.stop()
        return statuses

    assert asyncio.run(run()) == [200, 200]


def test_http_stats_carries_a_resilience_section(engine):
    async def run():
        service = SelectionService(
            engine, port=0, deadline=2.5, max_inflight=8
        )
        await service.start()
        status, stats = await _request(service.port, "GET", "/stats")
        await service.stop()
        return status, stats

    status, stats = asyncio.run(run())
    assert status == 200
    resilience = stats["resilience"]
    assert set(resilience) == {
        "deadline_seconds",
        "max_inflight",
        "inflight",
        "draining",
        "shed",
        "deadline_exceeded",
    }
    assert resilience["deadline_seconds"] == 2.5
    assert resilience["max_inflight"] == 8
    assert resilience["draining"] is False
    assert resilience["shed"] == 0
    assert resilience["deadline_exceeded"] == 0


def test_http_stats_schema_end_to_end(engine):
    """GET /stats exposes every subsystem's counters, typed.

    The response is the service's observability contract: the exact
    top-level key set is pinned, and the engine, resilience, LRU,
    store and request sections must have the right shapes — a
    dashboard reading one of these keys must never KeyError after a
    refactor.
    """

    async def run():
        service = SelectionService(engine, port=0)
        await service.start()
        status, stats = await _request(service.port, "GET", "/stats")
        await service.stop()
        return status, stats

    status, stats = asyncio.run(run())
    assert status == 200
    assert set(stats) == {
        "ok",
        "uptime_seconds",
        "requests",
        "batch",
        "resilience",
        "selections_served",
        "engine",
        "lru",
        "store",
    }

    assert isinstance(stats["selections_served"], int)
    engine_section = stats["engine"]
    assert engine_section["scale"] in ("quick", "full")
    assert isinstance(engine_section["seed"], int)
    assert isinstance(engine_section["box"], str)
    assert isinstance(engine_section["discriminants"], list)

    resilience = stats["resilience"]
    assert isinstance(resilience["draining"], bool)
    assert isinstance(resilience["shed"], int)

    assert isinstance(stats["lru"]["capacity"], int)
    assert "kind" in stats["store"]
    assert isinstance(stats["requests"]["errors"], int)


def test_http_deadline_overrun_answers_503(engine):
    async def run():
        service = SelectionService(engine, port=0, deadline=0.05)
        await service.start()

        async def slow(*args, **kwargs):
            await asyncio.sleep(1.0)

        service.batcher.select = slow
        status, payload = await _request(
            service.port,
            "POST",
            "/select",
            {"expression": "aatb", "dims": [100, 200, 300]},
        )
        stats = service.stats()
        await service.stop()
        return status, payload, stats

    status, payload, stats = asyncio.run(run())
    assert status == 503
    assert "deadline exceeded" in payload["error"]
    assert "50 ms" in payload["error"]
    assert stats["requests"]["deadline_exceeded"] == 1
    assert stats["resilience"]["deadline_exceeded"] == 1


def test_http_deadline_spares_stats_and_healthz(engine):
    # Observability routes are exempt from the overload policy: they
    # must answer exactly when the service is struggling.
    async def run():
        service = SelectionService(
            engine, port=0, deadline=0.05, max_inflight=1
        )
        await service.start()
        health = await _request(service.port, "GET", "/healthz")
        stats = await _request(service.port, "GET", "/stats")
        await service.stop()
        return health, stats

    health, stats = asyncio.run(run())
    assert health == (200, {"ok": True})
    assert stats[0] == 200


def test_http_max_inflight_sheds_excess_load(engine):
    async def run():
        service = SelectionService(engine, port=0, max_inflight=1)
        await service.start()

        async def slow(*args, **kwargs):
            await asyncio.sleep(0.3)
            return engine.select("aatb", [100, 200, 300])

        service.batcher.select = slow
        results = await asyncio.gather(
            *(
                _request(
                    service.port,
                    "POST",
                    "/select",
                    {"expression": "aatb", "dims": [100, 200, 300]},
                )
                for _ in range(3)
            )
        )
        stats = service.stats()
        await service.stop()
        return results, stats

    results, stats = asyncio.run(run())
    statuses = sorted(status for status, _payload in results)
    # One slow request holds the slot; the others shed with 503.
    assert statuses == [200, 503, 503]
    shed_payloads = [p for s, p in results if s == 503]
    assert all("overloaded" in p["error"] for p in shed_payloads)
    assert stats["requests"]["shed"] == 2
    assert stats["resilience"]["shed"] == 2


def test_http_drain_stops_accepting_and_reports_final_stats(engine):
    async def run():
        service = SelectionService(engine, port=0)
        await service.start()
        port = service.port
        status, _payload = await _request(
            port,
            "POST",
            "/select",
            {"expression": "aatb", "dims": [100, 200, 300]},
        )
        final = await service.drain()
        refused = False
        try:
            await asyncio.open_connection("127.0.0.1", port)
        except OSError:
            refused = True
        return status, final, refused

    status, final, refused = asyncio.run(run())
    assert status == 200
    assert final["resilience"]["draining"] is True
    assert final["resilience"]["inflight"] == 0
    assert final["requests"]["select"] == 1
    assert refused


def test_http_drain_finishes_an_inflight_request(engine):
    async def run():
        service = SelectionService(engine, port=0)
        await service.start()
        port = service.port
        select = service.batcher.select
        entered, release = asyncio.Event(), asyncio.Event()

        async def held(*args, **kwargs):
            entered.set()
            await release.wait()
            return await select(*args, **kwargs)

        service.batcher.select = held
        inflight = asyncio.create_task(
            _request(
                port,
                "POST",
                "/select",
                {"expression": "aatb", "dims": [100, 200, 300]},
            )
        )
        await asyncio.wait_for(entered.wait(), 5)
        drain = asyncio.create_task(service.drain())
        await asyncio.sleep(0.05)
        # The listener closes while the request is still in flight...
        refused = False
        try:
            _reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.close()
        except OSError:
            refused = True
        held_open = service.stats()["resilience"]["inflight"] == 1
        # ...and the request still gets its complete answer.
        release.set()
        final = await asyncio.wait_for(drain, 5)
        status, payload = await asyncio.wait_for(inflight, 5)
        return refused, held_open, status, payload, final

    refused, held_open, status, payload, final = asyncio.run(run())
    assert refused and held_open
    assert status == 200
    assert payload["algorithm"]["index"] == engine.select(
        "aatb", [100, 200, 300]
    ).algorithm_index
    assert final["resilience"]["draining"] is True
    assert final["resilience"]["inflight"] == 0
    assert final["requests"]["select"] == 1


def test_service_validates_overload_configuration(engine):
    with pytest.raises(ValueError):
        SelectionService(engine, deadline=0.0)
    with pytest.raises(ValueError):
        SelectionService(engine, max_inflight=0)


def test_http_malformed_request_line_is_a_400(engine):
    async def run():
        service = SelectionService(engine, port=0)
        await service.start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", service.port
        )
        writer.write(b"GARBAGE\r\n\r\n")
        await writer.drain()
        raw = await reader.read()
        writer.close()
        await service.stop()
        return raw

    raw = asyncio.run(run())
    assert raw.startswith(b"HTTP/1.1 400 ")


def _raw_exchange(engine, data: bytes):
    """Send raw bytes on one connection, read until the server closes
    it, and return the status and JSON body."""

    async def run():
        service = SelectionService(engine, port=0)
        await service.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            writer.write(data)
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()
        finally:
            await service.stop()
        return raw

    head, _, body = asyncio.run(run()).partition(b"\r\n\r\n")
    assert b"Connection: close" in head
    return int(head.split()[1]), json.loads(body)


def _request_line(length: int) -> bytes:
    """A GET request line of ``length`` bytes, CRLF included."""
    frame = b"GET / HTTP/1.1\r\n"
    return frame[:5] + b"a" * (length - len(frame)) + frame[5:]


def test_http_request_line_longer_than_the_limit_is_a_400(engine):
    from repro.service.http import _MAX_LINE_BYTES

    line = _request_line(_MAX_LINE_BYTES + 1)
    assert len(line) == 16 * 1024 + 1
    status, body = _raw_exchange(engine, line)
    assert (status, body) == (400, {"error": "request line too long"})
    # At the limit the line is read, and the path is merely unknown.
    status, body = _raw_exchange(
        engine,
        _request_line(_MAX_LINE_BYTES) + b"Connection: close\r\n\r\n",
    )
    assert status == 404
    assert body["error"].startswith("unknown path '/aaaa")
    assert len(body["error"]) < 120


def test_http_header_line_longer_than_the_limit_is_a_400(engine):
    from repro.service.http import _MAX_LINE_BYTES

    name = b"X-Padding: "
    header = name + b"b" * (_MAX_LINE_BYTES + 1 - len(name) - 2) + b"\r\n"
    assert len(header) == 16 * 1024 + 1
    status, body = _raw_exchange(engine, b"GET /healthz HTTP/1.1\r\n" + header)
    assert (status, body) == (400, {"error": "header line too long"})
    status, body = _raw_exchange(
        engine,
        b"GET /healthz HTTP/1.1\r\n" + header[:-3] + b"\r\n"
        b"Connection: close\r\n\r\n",
    )
    assert (status, body) == (200, {"ok": True})


def test_http_malformed_request_line_is_echoed_cut_short(engine):
    status, body = _raw_exchange(engine, b"GARBAGE" * 1000 + b"\r\n\r\n")
    assert status == 400
    assert body["error"].startswith("malformed request line: b'GARBAGEGAR")
    assert body["error"].endswith("...")
    assert len(body["error"]) < 120


# ----------------------------------------------------------------------
# Exact-arithmetic dims bound
# ----------------------------------------------------------------------


def _exact_argmin_flops(engine, expression, dims):
    counts = [a.flops(tuple(dims)) for a in engine.algorithms_for(expression)]
    return counts.index(min(counts))


def test_engine_dims_bound_is_the_largest_exact_dim(engine):
    for name in ("aatb", "chain4", "sum4"):
        expression = engine.expression_for(name)
        bound = engine._max_dims[name]
        algorithms = engine.algorithms_for(name)
        at_bound = (bound,) * expression.n_dims
        past_bound = (bound + 1,) * expression.n_dims
        assert max(a.flops(at_bound) for a in algorithms) < 2**53
        assert max(a.flops(past_bound) for a in algorithms) >= 2**53


def test_http_select_refuses_dims_past_the_exact_bound(engine):
    engine.expression_for("chain4")
    bound = engine._max_dims["chain4"]
    at_bound = [
        [bound] * 5,
        [bound, 10, bound, 10, bound],
        [10, bound, 10, bound, 10],
        [bound, 1, 1, 1, bound],
    ]

    def body(dims):
        return {"expression": "chain4", "dims": dims,
                "discriminant": "min-flops", "annotate": False}

    async def run():
        service = SelectionService(engine, port=0)
        await service.start()
        port = service.port
        out = {
            "wrapping": await _request(
                port, "POST", "/select",
                body([3000000, 10, 3000000, 10, 3000000]),
            ),
            "past": await _request(
                port, "POST", "/select", body([bound + 1, 10, 10, 10, 10])
            ),
            "at": [
                await _request(port, "POST", "/select", body(dims))
                for dims in at_bound
            ],
        }
        await service.stop()
        return out

    out = asyncio.run(run())
    for status, payload in (out["wrapping"], out["past"]):
        assert status == 400
        assert f"at most {bound}" in payload["error"]
    for dims, (status, payload) in zip(at_bound, out["at"]):
        assert status == 200
        assert payload["algorithm"]["index"] == _exact_argmin_flops(
            engine, "chain4", dims
        )


def test_http_select_refuses_non_integer_dims(engine):
    # Python's json parses the Infinity token; it used to reach int()
    # and surface as an uncaught OverflowError, an HTTP 500.
    async def run():
        service = SelectionService(engine, port=0)
        await service.start()
        port = service.port
        out = [
            await _request(
                port, "POST", "/select",
                {"expression": "aatb", "dims": [float("inf"), 200, 300]},
            ),
            await _request(
                port, "POST", "/select_batch",
                {"expression": "aatb", "dims": [[100, 200, 300],
                                                [100, float("inf"), 300]]},
            ),
        ]
        await service.stop()
        return out

    for status, payload in asyncio.run(run()):
        assert status == 400
        assert "dims must be integers" in payload["error"]


def test_engine_accepts_numpy_integer_dims(engine):
    got = engine.select(
        "aatb", [np.int64(100), np.int32(200), 300], annotate=False
    )
    assert got.dims == (100, 200, 300)
    assert all(type(v) is int for v in got.dims)
    want = engine.select("aatb", [100, 200, 300], annotate=False)
    assert got.algorithm_index == want.algorithm_index


#: Families the service/offline differential test covers.
DIFFERENTIAL_EXPRESSIONS = ("aatb", "chain4", "sum4")


def _log_uniform_dims(n_dims, bound, count, seed):
    """Seeded dims drawn log-uniformly in [1, bound], plus all-bound."""
    rng = random.Random(seed)

    def draw():
        return min(bound, max(1, round(bound ** rng.random())))

    rows = [[draw() for _ in range(n_dims)] for _ in range(count)]
    return rows + [[bound] * n_dims]


def test_service_matches_offline_selection_up_to_the_bound(engine):
    backend = SimulatedBackend(paper_machine(seed=engine.seed))
    profiles = standard_profiles(backend)
    offline = {
        "min-flops": MinFlopsDiscriminant(),
        "profiled-time": ProfiledTimeDiscriminant(profiles),
        "hybrid": FlopsProfileHybrid(profiles, margin=HYBRID_MARGIN),
        "benchmark-sum": BenchmarkDiscriminant(backend),
    }
    assert set(offline) == set(engine.discriminants)
    cases = {}
    for seed, name in enumerate(DIFFERENTIAL_EXPRESSIONS):
        n_dims = engine.expression_for(name).n_dims
        bound = engine._max_dims[name]
        cases[name] = (
            _log_uniform_dims(n_dims, bound, 32, seed),
            [
                [bound + 1 if i == j else bound for i in range(n_dims)]
                for j in range(n_dims)
            ],
        )

    def body(name, dims, discriminant):
        return {"expression": name, "dims": dims,
                "discriminant": discriminant, "annotate": False}

    async def run():
        service = SelectionService(engine, port=0)
        await service.start()
        port = service.port
        out = {}
        for name, (rows, past) in cases.items():
            for discriminant in offline:
                batch = await _request(
                    port, "POST", "/select_batch",
                    body(name, rows, discriminant),
                )
                singles = [
                    await _request(
                        port, "POST", "/select",
                        body(name, dims, discriminant),
                    )
                    for dims in rows
                ]
                out[name, discriminant] = (batch, singles)
            out[name, "past"] = [
                await _request(
                    port, "POST", "/select", body(name, dims, "min-flops")
                )
                for dims in past
            ]
        await service.stop()
        return out

    out = asyncio.run(run())
    for name, (rows, _past) in cases.items():
        algorithms = get_expression(name).algorithms()
        instances = [tuple(dims) for dims in rows]
        for discriminant, disc in offline.items():
            want = [int(i) for i in disc.select_batch(algorithms, instances)]
            (status, payload), singles = out[name, discriminant]
            assert status == 200
            batched = [s["algorithm"]["index"] for s in payload["selections"]]
            assert batched == want, (name, discriminant)
            for (status, payload), index in zip(singles, want):
                assert status == 200
                assert payload["algorithm"]["index"] == index
            if discriminant == "min-flops":
                for dims, index in zip(instances, want):
                    counts = [a.flops(dims) for a in algorithms]
                    assert index == counts.index(min(counts)), (name, dims)
        for status, payload in out[name, "past"]:
            assert status == 400
            assert f"at most {engine._max_dims[name]}" in payload["error"]
