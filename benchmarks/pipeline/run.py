"""Pipeline benchmark: cold studies, store reload and the selection service.

    python3 benchmarks/pipeline/run.py --workload study-quick --seed 0 \
        --seconds 20 --trace 0

Runs one workload of BENCHMARK.json from the root of a checkout,
checks every output, and prints as its last stdout line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Diagnostic lines come before it.  The workloads and
metrics are described in README.md next to this file.

The work happens in fresh processes: studies.py for the batch
workloads, serve.py (``repro.service`` under a speed meter) for
select-closed, whose closed-loop client is this process.  Scratch
stores live under ``.bench_work/`` in the checkout; span files of
traced runs are kept in ``.bench_work/traces/``.
"""

from __future__ import annotations

import argparse
import asyncio
import http.client
import itertools
import json
import queue
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

import common
import tracing

WORKLOADS = ("study-quick", "study-full", "store-reload", "select-closed")
#: Processes an untraced run spreads its work over, one after the
#: other: each sets up (setup_s is the median) and measures a share
#: of --seconds.  Averaging over processes evens out what differs
#: from one process to the next (memory layout, the host's state).
PROCESSES = 3
#: Everything, set-up and checks included, ends within this.
RUN_LIMIT_S = 170.0

#: select-closed: the served studies and the request classes.  Every
#: (expression, discriminant) pair gets the same share of requests;
#: None is the server's default discriminant (hybrid).
SERVED = ("aatb", "chain4", "sum4")
DISCRIMINANTS = (None, "min-flops", "benchmark-sum")
CLASSES = tuple(itertools.product(SERVED, DISCRIMINANTS))
DIMS_LO, DIMS_HI = 10, 1400
CONNECTIONS = 2
#: Traced select-closed runs alternate untraced and traced segments.
SEGMENT_S = 1.0


class BenchmarkError(RuntimeError):
    """The benchmark could not run to a result."""


class Child:
    """A process the benchmark started; a thread reads its stdout."""

    def __init__(self, argv: Sequence[str]) -> None:
        self.argv = list(argv)
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv,
            cwd=common.ROOT,
            env=common.child_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    def _next(self, deadline: float) -> Optional[str]:
        try:
            return self._lines.get(timeout=max(0.0, deadline - time.perf_counter()))
        except queue.Empty:
            raise BenchmarkError(f"timed out waiting for {self.argv[1:3]}") from None

    def wait_for(self, prefix: str, deadline: float) -> List[str]:
        """Stdout lines up to the first one starting with ``prefix``."""
        lines = []
        while not lines or not lines[-1].startswith(prefix):
            line = self._next(deadline)
            if line is None:
                raise BenchmarkError(
                    f"{self.argv[1:3]} exited with {self.proc.wait()} "
                    f"before printing {prefix!r}"
                )
            lines.append(line)
        return lines

    def finish(self, deadline: float) -> List[str]:
        """The remaining stdout lines; the process must exit with 0."""
        lines = []
        while (line := self._next(deadline)) is not None:
            lines.append(line)
        code = self.proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        if code != 0:
            raise BenchmarkError(f"{self.argv[1:3]} exited with {code}")
        return lines

    def stop(self, timeout: float = 30.0) -> int:
        """SIGTERM, then SIGKILL after ``timeout``; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5.0)
        return self.proc.returncode


class Run:
    """One benchmark run: its processes, scratch directory and deadline."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        work_root = common.ROOT / ".bench_work"
        work_root.mkdir(exist_ok=True)
        self.work_dir = Path(
            tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
        )
        self.trace_path = (
            work_root / "traces" / f"{args.workload}-seed{args.seed}.json"
        )
        self.trace_path.parent.mkdir(exist_ok=True)
        self.children: List[Child] = []
        self._meters = itertools.count()

    def spawn(self, argv: Sequence[str]) -> Child:
        child = Child(argv)
        self.children.append(child)
        return child

    def meter_path(self) -> Path:
        """A fresh file for one child's speed-meter samples."""
        return self.work_dir / f"meter-{next(self._meters)}.json"

    def close(self) -> None:
        for child in self.children:
            child.stop(timeout=5.0)
        shutil.rmtree(self.work_dir, ignore_errors=True)


def median_setup(setups: Sequence[float]) -> float:
    print(f"setup at reference speed (s): {' '.join(f'{s:.4f}' for s in setups)}")
    return statistics.median(setups)


# ----------------------------------------------------------------------
# Batch workloads (studies.py workers)
# ----------------------------------------------------------------------


def run_batch(run: Run) -> dict:
    args = run.args
    studies = [sys.executable, str(common.HERE / "studies.py")]
    if args.workload == "store-reload":
        start = time.perf_counter()
        run.spawn(
            studies + ["prepare", "--seed", str(args.seed),
                       "--work-dir", str(run.work_dir)]
        ).finish(run.deadline)
        print(f"prepare_s {time.perf_counter() - start:.4f}")
    parts = 1 if args.trace else PROCESSES
    spans_path = run.work_dir / "spans.json"
    setups: List[float] = []
    times: Dict[tuple, List[float]] = {}  # (group, traced) -> round seconds
    instances: Dict[int, int] = {}
    result = {"attempted": 0, "failed": 0}
    rss: List[float] = []
    for part in range(parts):
        meter_path = run.meter_path()
        argv = studies + [
            "run", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds / parts),
            "--part", str(part), "--parts", str(parts),
            "--work-dir", str(run.work_dir), "--meter-file", str(meter_path),
        ]
        if args.trace:
            argv += ["--spans-file", str(spans_path)]
        worker = run.spawn(argv)
        worker.wait_for("READY", run.deadline)
        ready = time.perf_counter()
        lines = worker.finish(run.deadline)
        for line in lines[:-1]:
            print(line)
        out = json.loads(lines[-1])
        scale = common.SpeedScale.load(meter_path)
        setups.append(float(scale.seconds(worker.started, ready)))
        for group, traced, start, end in out["windows"]:
            times.setdefault((group, traced), []).append(float(scale.seconds(start, end)))
        instances.update({int(g): n for g, n in out["instances"].items()})
        result["attempted"] += out["attempted"]
        result["failed"] += out["failed"]
        rss.append(out["rss_mb"])
        print(f"worker {part}: {len(out['windows'])} rounds, median speed factor {scale.factor():.3f}")
    plain = {g: statistics.median(t) for (g, traced), t in times.items() if not traced}
    print(
        "median round per group at reference speed (s): "
        + " ".join(f"{g}:{s:.4f}" for g, s in sorted(plain.items()))
    )
    if not args.trace:
        # Each group counts once, at its median round time, so every
        # study seed of the run weighs alike.
        rate = sum(instances[g] for g in plain) / sum(plain.values())
        result["metrics"] = {
            "setup_s": median_setup(setups),
            "instances_per_s": rate,
            # A batch round has no per-instance latencies: both rows
            # report the mean time per instance.
            "latency_p50_ms": 1e3 / rate,
            "latency_p90_ms": 1e3 / rate,
            "peak_rss_mb": statistics.median(rss),
        }
        return result
    shutil.copyfile(spans_path, run.trace_path)
    names, spans = tracing.load_spans(spans_path)
    traced_rounds = times_by_group(times, traced=True)
    plain_rounds = times_by_group(times, traced=False)
    result["metrics"] = tracing.layer_metrics(
        names, spans,
        operations=sum(len(t) for t in traced_rounds.values()),
        overhead_ratio=statistics.median(
            t / p
            for group, ts in traced_rounds.items()
            for t, p in zip(ts, plain_rounds[group])
        ),
    )
    if args.workload != "store-reload":
        report_breakdown(names, spans)
    return result


def times_by_group(times: Dict[tuple, List[float]], traced: bool) -> Dict[int, List[float]]:
    return {g: t for (g, was_traced), t in times.items() if was_traced == traced}


def report_breakdown(names, spans) -> None:
    """Coverage of the experiments spans, and where each study of the
    first traced round spent its time, per traced round."""
    totals = tracing.totals(names, spans)
    stages = sum(
        totals.get(f"experiments.{stage}", {"s": 0.0})["s"]
        for stage in ("search", "regions", "predict")
    )
    print(
        f"experiments spans cover {stages / totals['runner.run']['s']:.1%} "
        "of the traced rounds' StudyRunner.run time"
    )
    first = sorted({s[tracing.LABEL] for s in spans if s[tracing.ROUND] == 0 and s[tracing.LABEL]})
    for label in first:
        rounds = sum(1 for s in spans if s[tracing.LABEL] == label)
        per_round = {
            name: seconds / rounds
            for name, seconds in tracing.label_breakdown(names, spans, label).items()
        }
        print(
            f"self time per traced round, {label} ({sum(per_round.values()):.4f} s): "
            + ", ".join(
                f"{name} {seconds:.4f}"
                for name, seconds in sorted(per_round.items(), key=lambda kv: -kv[1])
            )
        )


# ----------------------------------------------------------------------
# select-closed (serve.py + this process as the client)
# ----------------------------------------------------------------------


def request_stream(seed: int, n_dims: Dict[str, int]):
    """``(index, request body)`` pairs, the same sequence for a seed.

    Requests come in shuffled blocks of one per class, so every class
    has its share exactly; the seed sets the order and the dims.
    """
    rng = random.Random(seed)
    index = itertools.count()
    while True:
        block = list(CLASSES)
        rng.shuffle(block)
        for expression, discriminant in block:
            request = {
                "expression": expression,
                "dims": [rng.randrange(DIMS_LO, DIMS_HI) for _ in range(n_dims[expression])],
            }
            if discriminant is not None:
                request["discriminant"] = discriminant
            yield next(index), request


async def _requests(connection, stream, deadline: float, traced: bool, records: list) -> None:
    reader, writer = connection
    while time.perf_counter() < deadline:
        index, request = next(stream)
        body = json.dumps(request).encode()
        head = (
            f"POST /select HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        sent = time.perf_counter()
        writer.write(head + body)
        await writer.drain()
        status = (await reader.readline()).split()
        length = 0
        while (line := await reader.readline()) not in (b"\r\n", b"\n", b""):
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":")[1])
        payload = await reader.readexactly(length)
        records.append((
            index, request, int(status[1]) if len(status) > 1 else 0,
            sent, time.perf_counter(), traced, payload,
        ))


def get(port: int, path: str) -> dict:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("GET", path)
        return json.loads(connection.getresponse().read())
    finally:
        connection.close()


def closed_loop(
    server: Child, port: int, stream, seconds: float, traced: bool, deadline: float
) -> dict:
    """Keep CONNECTIONS requests in flight for ``seconds`` of traffic.

    A traced run alternates untraced and traced segments of SEGMENT_S:
    between segments, with no request in flight, SIGUSR1 toggles the
    server's wrappers and a ``GET /healthz`` waits until it has.
    Returns the records and the traffic window.  A server that stops
    answering raises TimeoutError at ``deadline``.
    """
    records: list = []

    async def drive() -> dict:
        connections = [
            await asyncio.open_connection("127.0.0.1", port)
            for _ in range(CONNECTIONS)
        ]
        # At least one segment of each kind, however short the run.
        segment = min(SEGMENT_S, seconds / 2) if traced else seconds
        try:
            start = time.perf_counter()
            segment_traced = False
            while (now := time.perf_counter()) < start + seconds:
                end = min(start + seconds, now + segment)
                await asyncio.gather(*(
                    _requests(connection, stream, end, segment_traced, records)
                    for connection in connections
                ))
                if traced:
                    server.proc.send_signal(signal.SIGUSR1)
                    await asyncio.to_thread(get, port, "/healthz")
                    segment_traced = not segment_traced
            end = time.perf_counter()
        finally:
            for _reader, writer in connections:
                writer.close()
                try:
                    await writer.wait_closed()
                except OSError:
                    pass
        return {"start": start, "end": end}

    window = asyncio.run(asyncio.wait_for(
        drive(), timeout=max(1.0, deadline - time.perf_counter())
    ))
    return {"records": records, **window}


def start_server(run: Run, argv: Sequence[str]):
    """A started server, its port, and when it became ready.

    Ready is the "listening" line, which the service prints after
    building its kernel profiles and loading the warm studies; each
    must have come from the prepared store.
    """
    server = run.spawn(argv)
    lines = server.wait_for("selection service listening on", run.deadline)
    ready = time.perf_counter()
    for name in SERVED:
        if f"warmed {name}: store" not in lines:
            raise BenchmarkError(f"{name} was not loaded from the store: {lines}")
    return server, int(lines[-1].rsplit(":", 1)[1]), ready


def stop_server(server: Child, port: int) -> None:
    """Stop the meter, then drain and stop the server (see serve.py)."""
    server.proc.send_signal(signal.SIGUSR2)
    # The service prints its "listening" line before it installs its
    # SIGTERM handler; once it has answered a request, the handler is
    # in place and SIGTERM drains instead of killing.
    get(port, "/healthz")
    if server.stop() != 0:
        raise BenchmarkError(f"server exited with {server.proc.returncode}")


def check_answers(records: Sequence[tuple]) -> int:
    """Failed requests: not a 200, or not the batched engine answer.

    The expected answers come from ``SelectionEngine.select_many``
    over all requests of one (expression, discriminant), computed
    after the timed traffic.
    """
    from repro.service.engine import SelectionEngine

    engine = SelectionEngine(seed=0)
    failed = 0
    groups: Dict[tuple, list] = {}
    for _index, request, status, _sent, _received, _traced, payload in records:
        if status != 200:
            failed += 1
            continue
        groups.setdefault(
            (request["expression"], request.get("discriminant")), []
        ).append((request["dims"], json.loads(payload)["algorithm"]["index"]))
    for (expression, discriminant), rows in groups.items():
        expected = engine.select_many(
            expression, [dims for dims, _ in rows],
            discriminant=discriminant, annotate=False,
        )
        failed += sum(
            got != selection.algorithm_index
            for (_dims, got), selection in zip(rows, expected)
        )
    return failed


def report_classes(records: Sequence[tuple], latencies_ms: np.ndarray) -> None:
    """Print p50/p90 per request class, and how much of each class lies
    beyond the pooled p50 and p90: where the gated percentiles fall."""
    classes = np.array([
        CLASSES.index((r[1]["expression"], r[1].get("discriminant")))
        for r in records
    ])
    p50, p90 = np.percentile(latencies_ms, [50, 90])
    for number, (expression, discriminant) in enumerate(CLASSES):
        mine = latencies_ms[classes == number]
        if len(mine):
            print(
                f"class {expression}/{discriminant or 'hybrid'}: N {len(mine)}, "
                f"p50 {np.percentile(mine, 50):.3f} ms, p90 {np.percentile(mine, 90):.3f} ms, "
                f"{np.mean(mine > p50):.0%} beyond pooled p50, "
                f"{np.mean(mine > p90):.0%} beyond pooled p90"
            )


def run_select(run: Run) -> dict:
    args = run.args
    store_dir = run.work_dir / "store"
    start = time.perf_counter()
    run.spawn([
        sys.executable, "-m", "repro.runner", "--scale", "quick",
        "--seeds", "0", "--expressions", ",".join(SERVED), "--jobs", "2",
        "--store", "json", "--cache-dir", str(store_dir),
    ]).finish(run.deadline)
    print(f"prepare_s {time.perf_counter() - start:.4f}")

    sys.path.insert(0, str(common.ROOT / "src"))
    from repro.expressions.registry import get_expression

    stream = request_stream(args.seed, {name: get_expression(name).n_dims for name in SERVED})
    parts = 1 if args.trace else PROCESSES
    records: list = []
    latencies: List[np.ndarray] = []
    setups: List[float] = []
    traffic_s = 0.0
    rss: List[float] = []
    for part in range(parts):
        meter_path = run.meter_path()
        argv = [sys.executable, str(common.HERE / "serve.py"), "--meter-file", str(meter_path)]
        if args.trace:
            argv += ["--trace-file", str(run.trace_path)]
        server, port, ready = start_server(run, argv + [
            "--port", "0", "--store", "json", "--cache-dir", str(store_dir),
            "--warm", *SERVED,
        ])
        phase = closed_loop(
            server, port, stream, args.seconds / parts, bool(args.trace), run.deadline
        )
        stats = get(port, "/stats")
        rss.append(common.peak_rss_mb(str(server.proc.pid)))
        stop_server(server, port)  # meter samples and spans are written at exit
        scale = common.SpeedScale.load(meter_path)
        setups.append(float(scale.seconds(server.started, ready)))
        traffic_s += float(scale.seconds(phase["start"], phase["end"]))
        records += phase["records"]
        latencies.append(1e3 * scale.seconds(
            [r[3] for r in phase["records"]], [r[4] for r in phase["records"]]
        ))
        batch = stats["batch"]
        print(
            f"server {part}: {len(phase['records'])} requests in "
            f"{phase['end'] - phase['start']:.3f} s, median speed factor "
            f"{scale.factor():.3f}, {batch['batches']} batches, "
            f"{batch['coalesced']} requests coalesced"
        )
    latencies_ms = np.concatenate(latencies)
    print(
        f"all {len(records)} requests at reference speed: "
        f"p50 {common.nearest_rank(latencies_ms, 0.5):.4f} ms, "
        f"p90 {common.nearest_rank(latencies_ms, 0.9):.4f} ms, "
        f"p99 {common.nearest_rank(latencies_ms, 0.99):.4f} ms (N = {len(records)})"
    )
    report_classes(records, latencies_ms)
    result = {"attempted": len(records), "failed": check_answers(records)}
    if not args.trace:
        result["metrics"] = {
            "setup_s": median_setup(setups),
            "instances_per_s": len(records) / traffic_s,
            "latency_p50_ms": common.nearest_rank(latencies_ms, 0.50),
            "latency_p90_ms": common.nearest_rank(latencies_ms, 0.90),
            "peak_rss_mb": statistics.median(rss),
        }
        return result

    traced = np.array([r[5] for r in records])
    names, spans = tracing.load_spans(run.trace_path)
    requests = int(traced.sum())
    select_s = tracing.totals(names, spans).get("service.select_many", {"s": 0.0})["s"]
    raw_ms = 1e3 * np.array([r[4] - r[3] for r in records])
    lru = stats["lru"]
    result["metrics"] = tracing.layer_metrics(
        names, spans, operations=requests,
        service={
            "requests_per_batch": batch["requests"] / max(1, batch["batches"]),
            "lru_hit_ratio": lru["hits"] / max(1, lru["hits"] + lru["misses"]),
            "outside_select_ms": (raw_ms[traced].sum() - 1e3 * select_s) / requests,
        },
        # Mean latency at reference speed, traced over untraced
        # segments of the same server process.
        overhead_ratio=float(latencies_ms[traced].mean() / latencies_ms[~traced].mean()),
    )
    return result


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python3 benchmarks/pipeline/run.py",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (common.ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: {common.ROOT} has no src/repro; run the benchmark "
            "from a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    spec = json.loads(common.BENCHMARK_PATH.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print(
        f"workload {args.workload} seed {args.seed} "
        f"seconds {args.seconds:g} trace {args.trace}"
    )
    run = Run(args)
    try:
        if args.workload == "select-closed":
            result = run_select(run)
        else:
            result = run_batch(run)
    except (BenchmarkError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()
    values = result["metrics"]
    if sorted(values) != sorted(m["name"] for m in wanted):
        raise BenchmarkError(f"metric names differ from BENCHMARK.json: {sorted(values)}")
    for metric in wanted:
        print(f"{metric['name']} {values[metric['name']]:.6g} {metric['unit']}")
    correct = result["failed"] == 0 and result["attempted"] > 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
