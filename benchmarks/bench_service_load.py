"""Selection-service load benchmark: throughput and tail latency.

Stands up a :class:`repro.service.SelectionService` in-process, drives
it with N concurrent keep-alive HTTP clients issuing ``POST /select``
requests over a seeded random dims stream, and reports throughput
(selections/sec) plus p50/p99 request latency.  Micro-batching is what
the load probes: concurrent requests coalesce into shared
``select_batch`` calls, so sustained rate under concurrency is several
times the sequential per-request rate.

Two entry points:

* ``pytest`` collects :func:`test_service_load_smoke` — a small load
  whose every response is checked against the engine's own answer
  (the batched-equals-per-request contract, end to end over HTTP).
* ``python benchmarks/bench_service_load.py`` is the CI gate: a larger
  load with hard ``--min-rate`` / ``--gate-p99-ms`` thresholds and a
  JSON latency report (``--report``) for the artifact upload.  The
  rate floor scales with the machine via ``--min-rate-per-core``
  (effective floor = ``max(min_rate, min_rate_per_core * cores)``).

The study store comes from ``REPRO_CACHE_DIR``/``REPRO_CACHE_STORE``
(the CI job warms it with the parallel runner first); without one the
engine computes its studies on startup, which skews only the setup
time, never the measured request loop.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import sys
import time
from typing import List, Optional, Sequence

from repro.service import SelectionEngine, SelectionService
from repro.service.engine import Selection

DEFAULT_CLIENTS = 8
DEFAULT_REQUESTS_PER_CLIENT = 250
DEFAULT_EXPRESSION = "aatb"
DEFAULT_GATE_P99_MS = 50.0
DEFAULT_MIN_RATE = 1000.0

_DIMS_LO, _DIMS_HI = 10, 1400


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """The q-quantile of pre-sorted values (nearest-rank)."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[rank]


def dims_stream(
    n_dims: int, count: int, seed: int
) -> List[List[int]]:
    rng = random.Random(seed)
    return [
        [rng.randrange(_DIMS_LO, _DIMS_HI) for _ in range(n_dims)]
        for _ in range(count)
    ]


async def _client(
    port: int,
    expression: str,
    dims_list: Sequence[Sequence[int]],
    latencies: List[float],
    responses: List[dict],
    discriminant: Optional[str] = None,
) -> None:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    # Without a discriminant the body names none: the server's default.
    extra = {} if discriminant is None else {"discriminant": discriminant}
    try:
        for dims in dims_list:
            body = json.dumps(
                {"expression": expression, "dims": list(dims), **extra}
            ).encode()
            head = (
                f"POST /select HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            )
            started = time.perf_counter()
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
            status_line = await reader.readline()
            length = 0
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n"):
                    break
                if line.lower().startswith(b"content-length:"):
                    length = int(line.split(b":")[1])
            payload = await reader.readexactly(length)
            latencies.append(time.perf_counter() - started)
            if b" 200 " not in status_line:
                raise AssertionError(
                    f"request failed: {status_line!r} {payload!r}"
                )
            responses.append(json.loads(payload))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass


async def _drive(
    service: SelectionService,
    expression: str,
    clients: int,
    requests_per_client: int,
    seed: int,
    discriminant: Optional[str] = None,
) -> dict:
    latencies: List[float] = []
    responses: List[dict] = []
    streams = [
        dims_stream(
            service.engine.expression_for(expression).n_dims,
            requests_per_client,
            seed + client_index,
        )
        for client_index in range(clients)
    ]
    started = time.perf_counter()
    await asyncio.gather(
        *(
            _client(
                service.port, expression, stream, latencies, responses,
                discriminant,
            )
            for stream in streams
        )
    )
    wall = time.perf_counter() - started
    latencies.sort()
    total = clients * requests_per_client
    return {
        "expression": expression,
        "discriminant": discriminant,
        "clients": clients,
        "requests": total,
        "wall_seconds": round(wall, 4),
        "rate_per_second": round(total / wall, 1),
        "latency_ms": {
            "p50": round(percentile(latencies, 0.50) * 1e3, 3),
            "p90": round(percentile(latencies, 0.90) * 1e3, 3),
            "p99": round(percentile(latencies, 0.99) * 1e3, 3),
            "max": round(latencies[-1] * 1e3, 3),
        },
        "batch": service.batcher.stats(),
        "responses": responses,
    }


def run_load(
    engine: SelectionEngine,
    expression: str = DEFAULT_EXPRESSION,
    clients: int = DEFAULT_CLIENTS,
    requests_per_client: int = DEFAULT_REQUESTS_PER_CLIENT,
    seed: int = 0,
    discriminant: Optional[str] = None,
) -> dict:
    """One service lifecycle: start, drive the load, stop, report.

    ``discriminant`` names the one every request asks for; None sends
    none, so the server's default answers.
    """

    async def session() -> dict:
        service = SelectionService(engine, port=0)
        await service.start()
        try:
            return await _drive(
                service, expression, clients, requests_per_client, seed,
                discriminant,
            )
        finally:
            await service.stop()

    # Warm outside the measured window: the first request of an
    # expression computes or loads its study; the load measures the
    # serving path, not store latency.
    engine.warm([expression])
    return asyncio.run(session())


def _expected_selections(
    engine: SelectionEngine, report: dict
) -> List[Selection]:
    return engine.select_many(
        report["expression"],
        [response["dims"] for response in report["responses"]],
        discriminant=report["discriminant"],
    )


# ----------------------------------------------------------------------
# pytest entry point (collected by the bench suite)
# ----------------------------------------------------------------------


def test_service_load_smoke(run_once, fig_config):
    from repro.figures.cache import store_from_env

    engine = SelectionEngine(
        scale=fig_config.scale, seed=fig_config.seed, store=store_from_env()
    )
    report = run_once(
        lambda: run_load(engine, clients=6, requests_per_client=50)
    )
    print()
    print(
        f"{report['requests']} requests, {report['rate_per_second']} sel/s, "
        f"p50 {report['latency_ms']['p50']}ms "
        f"p99 {report['latency_ms']['p99']}ms, "
        f"coalesced {report['batch']['coalesced']}"
    )
    assert len(report["responses"]) == report["requests"]
    # Every HTTP answer matches the engine's own (batched) answer —
    # the batched-equals-per-request contract, end to end.
    expected = _expected_selections(engine, report)
    assert [r["algorithm"]["index"] for r in report["responses"]] == [
        s.algorithm_index for s in expected
    ]
    # Concurrent clients actually coalesced.
    assert report["batch"]["max_batch"] > 1
    assert report["rate_per_second"] > 0


# ----------------------------------------------------------------------
# CLI entry point (the CI gate)
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/bench_service_load.py",
        description="Load-benchmark the selection service and gate "
        "throughput/latency.",
    )
    parser.add_argument("--expression", default=DEFAULT_EXPRESSION)
    parser.add_argument(
        "--discriminant", default=None,
        help="the discriminant every request names (default: none, so "
        "the server's default answers)",
    )
    parser.add_argument("--clients", type=int, default=DEFAULT_CLIENTS)
    parser.add_argument(
        "--requests", type=int, default=DEFAULT_REQUESTS_PER_CLIENT,
        help="requests per client",
    )
    parser.add_argument("--scale", choices=("quick", "full"), default="quick")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--report", default=None, help="write the JSON report here"
    )
    parser.add_argument(
        "--gate-p99-ms", type=float, default=DEFAULT_GATE_P99_MS,
        help=f"fail above this p99 latency (default: {DEFAULT_GATE_P99_MS})",
    )
    parser.add_argument(
        "--min-rate", type=float, default=DEFAULT_MIN_RATE,
        help="fail below this selections/sec floor "
        f"(default: {DEFAULT_MIN_RATE})",
    )
    parser.add_argument(
        "--min-rate-per-core", type=float, default=0.0,
        help="additional floor scaled to cpu count (default: off)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.figures.cache import store_from_env

    args = build_parser().parse_args(argv)
    engine = SelectionEngine(
        scale=args.scale, seed=args.seed, store=store_from_env()
    )
    report = run_load(
        engine,
        expression=args.expression,
        clients=args.clients,
        requests_per_client=args.requests,
        seed=args.seed,
        discriminant=args.discriminant,
    )
    expected = _expected_selections(engine, report)
    matches = [
        response["algorithm"]["index"] for response in report["responses"]
    ] == [selection.algorithm_index for selection in expected]
    report["batched_equals_per_request"] = matches
    del report["responses"]  # raw bodies are noise in the artifact

    cores = os.cpu_count() or 1
    floor = max(args.min_rate, args.min_rate_per_core * cores)
    report["gates"] = {
        "min_rate": floor,
        "gate_p99_ms": args.gate_p99_ms,
        "cores": cores,
    }
    print(json.dumps(report, indent=2))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")

    failures = []
    if not matches:
        failures.append("served selections diverge from engine selections")
    if report["rate_per_second"] < floor:
        failures.append(
            f"rate {report['rate_per_second']}/s below floor {floor}/s"
        )
    if report["latency_ms"]["p99"] > args.gate_p99_ms:
        failures.append(
            f"p99 {report['latency_ms']['p99']}ms above gate "
            f"{args.gate_p99_ms}ms"
        )
    for failure in failures:
        print(f"GATE FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
