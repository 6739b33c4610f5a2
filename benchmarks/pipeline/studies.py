"""Batch workloads of the pipeline benchmark: cold studies and store reload.

run.py starts this file as fresh worker processes::

    python benchmarks/pipeline/studies.py run --workload study-quick \
        --seed 0 --seconds 5 --part 0 --parts 3 --work-dir DIR \
        --meter-file DIR/meter-0.json [--spans-file DIR/spans.json]
    python benchmarks/pipeline/studies.py prepare --seed 0 --work-dir DIR
    python benchmarks/pipeline/studies.py pins

``run`` starts a speed meter, sets up (imports, runner or store
construction, one untimed warm-up), prints ``READY``, measures rounds
for ``--seconds``, and prints as its last stdout line what it
measured: each round's group and perf_counter window, the instances
per group, the checks and its peak RSS.  It writes its meter samples
to ``--meter-file`` at exit; run.py turns windows into metrics.
``prepare`` fills the json and sqlite stores that store-reload reads.
``pins`` prints the payload digests of ``expected_sha256.json``.

The program is imported from ``src/`` (run.py sets ``PYTHONPATH``).
"""

from __future__ import annotations

import argparse
import atexit
import json
import random
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import common

METER = common.SpeedMeter()
if __name__ == "__main__" and sys.argv[1:2] == ["run"]:
    METER.start()  # before the program's imports, which set-up includes

import tracing  # noqa: E402
from repro.figures.cache import StudyKey, encode_study, make_store, study_path  # noqa: E402
from repro.runner import StudyRunner  # noqa: E402

#: Every registered family, named explicitly: the registry grows as
#: pattern families (sum4) are first used in a process.
QUICK_FAMILIES = ("aatb", "addchain3", "chain4", "gram3", "solve3", "sum3", "tri4")
#: The full-scale subset: the paper's two families plus the widest plan set.
FULL_FAMILIES = ("chain4", "aatb", "sum4")

#: Study seeds pinned in expected_sha256.json, per scale.
POOL = {"quick": range(16), "full": range(8)}
#: A run draws this many study seeds from its scale's pool: the cost
#: per instance of one study seed differs from another's by 5-9% (sd),
#: so a run averages over several.
SEEDS_PER_RUN = {"study-quick": 8, "study-full": 4, "store-reload": 2}

BATCH_WORKLOADS = tuple(SEEDS_PER_RUN)


def study_seeds(workload: str, seed: int) -> List[int]:
    """The study seeds of a run with ``--seed seed``."""
    pool = POOL["quick" if workload == "study-quick" else "full"]
    return random.Random(seed).sample(list(pool), SEEDS_PER_RUN[workload])


def seed_keys(workload: str, study_seed: int) -> List[StudyKey]:
    quick = [StudyKey("quick", study_seed, name) for name in QUICK_FAMILIES]
    full = [StudyKey("full", study_seed, name) for name in FULL_FAMILIES]
    return {
        "study-quick": quick,
        "study-full": full,
        "store-reload": quick + full,
    }[workload]


def groups(workload: str, seed: int) -> List[List[StudyKey]]:
    """The key groups of a run; one round handles one group.

    A study round is one study seed's studies; a store-reload round
    loads every key of the run.
    """
    per_seed = [seed_keys(workload, s) for s in study_seeds(workload, seed)]
    if workload == "store-reload":
        return [[key for keys in per_seed for key in keys]]
    return per_seed


def instances(text: str, evaluated: bool) -> int:
    """Instances in a study payload.

    ``evaluated``: what computing the study classified — search
    samples drawn, region cells, predicted cells.  Otherwise what
    loading it decodes — stored anomalies, region cells, predictions.
    """
    payload = json.loads(text)
    search = payload["search"]
    drawn = search["n_samples"] if evaluated else len(search["anomalies"])
    return (
        drawn
        + len(payload["regions"]["cells"])
        + len(payload["prediction"]["records"])
    )


def payload_ok(key: StudyKey, text: Optional[str], pins: Dict[str, str]) -> bool:
    """Whether ``text`` is the payload pinned for ``key``."""
    return text is not None and pins.get(key.slug) == common.sha256(text)


class Rounds:
    """The measured rounds of one worker.

    ``groups`` are the run's key groups; ``order`` is the sequence of
    group indexes this worker cycles through, its ``own`` groups first.
    """

    def __init__(
        self,
        groups: Sequence[List[StudyKey]],
        order: Sequence[int],
        own: int,
        trace: bool,
    ) -> None:
        self.groups = list(groups)
        self.order = list(order)
        self.own = own
        self.tracer = tracing.Tracer() if trace else None
        self.windows: List[list] = []  # [group, traced, start, end]
        self.instances: Dict[int, int] = {}
        self.attempted = 0
        self.failed = 0

    def run(self, seconds: float, measure, check) -> None:
        """Rounds until ``seconds`` have passed and every own group ran.

        ``measure(keys)`` runs one round and returns its perf_counter
        window and its outputs; ``check(keys, outputs)`` verifies them
        and returns the instances handled.  A traced worker measures
        each round twice in a row, untraced and then traced, so both
        sides of trace.overhead_ratio face the same inputs and
        conditions.
        """
        deadline = time.perf_counter() + seconds
        passes = (False, True) if self.tracer is not None else (False,)
        done = 0
        while done < self.own or time.perf_counter() < deadline:
            group = self.order[done % len(self.order)]
            for traced in passes:
                if traced:
                    self.tracer.round = sum(1 for w in self.windows if w[1])
                    self.tracer.install()
                try:
                    start, end, outputs = measure(self.groups[group])
                finally:
                    if traced:
                        self.tracer.uninstall()
                self.instances[group] = check(self.groups[group], outputs)
                del outputs  # one round's outputs in memory at a time
                self.windows.append([group, traced, start, end])
            done += 1

    def result(self) -> dict:
        if self.tracer is not None and not tracing.unwrapped():
            self.failed += 1
            print("wrappers still installed after the traced run")
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "windows": self.windows,
            "instances": self.instances,
            "rss_mb": common.peak_rss_mb(),
        }


def run_studies(
    rounds: Rounds, seconds: float, work_dir: Path, pins: Dict[str, str]
) -> None:
    """Cold study passes: a fresh json store per round, one process."""

    def measure(keys):
        store_dir = Path(tempfile.mkdtemp(dir=work_dir))
        try:
            runner = StudyRunner(cache_dir=store_dir, store="json", jobs=1)
            start = time.perf_counter()
            report = runner.run(keys)
            end = time.perf_counter()
            texts = [
                study_path(store_dir, key).read_text()
                if study_path(store_dir, key).exists() else None
                for key in keys
            ]
        finally:
            shutil.rmtree(store_dir)
        return start, end, (report, texts)

    def check(keys, outputs) -> int:
        report, texts = outputs
        handled = 0
        for key, outcome, text in zip(keys, report.outcomes, texts):
            rounds.attempted += 1
            if outcome.status == "failed" or not payload_ok(key, text, pins):
                rounds.failed += 1
                print(f"study failed: {key.slug} {outcome.status} {outcome.error}")
            else:
                handled += instances(text, evaluated=True)
        return handled

    rounds.run(seconds, measure, check)


def run_reload(rounds: Rounds, seconds: float, stores) -> None:
    """Load every key from the json store and from the sqlite store."""
    keys = rounds.groups[0]
    texts = {key: stores[0].load_text(key) for key in keys}
    sizes = {key: instances(texts[key], evaluated=False) for key in keys}

    def measure(keys):
        start = time.perf_counter()
        loaded = [(key, store.load(key)) for store in stores for key in keys]
        return start, time.perf_counter(), loaded

    def check(keys, loaded) -> int:
        handled = 0
        for key, study in loaded:
            rounds.attempted += 1
            if study is None or encode_study(
                key, study["search"], study["regions"],
                study["prediction"], study["confusion"],
            ) != texts[key]:
                rounds.failed += 1
                print(f"reload failed: {key.slug}")
            else:
                handled += sizes[key]
        return handled

    rounds.run(seconds, measure, check)


def reload_stores(work_dir: Path):
    return make_store("json", work_dir / "json"), make_store("sqlite", work_dir / "sqlite")


def prepare(seed: int, work_dir: Path) -> int:
    """Compute the store-reload studies into json, copy them to sqlite."""
    keys = groups("store-reload", seed)[0]
    report = StudyRunner(cache_dir=work_dir / "json", store="json", jobs=2).run(keys)
    if not report.ok:
        print(report.summary(), file=sys.stderr)
        return 1
    source, target = reload_stores(work_dir)
    pins = common.load_pins()
    with source, target:
        for key in keys:
            target.save_text(key, source.load_text(key))
        bad = [key.slug for key in keys if not payload_ok(key, source.load_text(key), pins)]
    if bad:
        print(f"prepared payloads differ from their pins: {bad}", file=sys.stderr)
        return 1
    return 0


def run(args: argparse.Namespace) -> int:
    atexit.register(METER.dump, args.meter_file)
    atexit.register(METER.stop)  # atexit runs last-registered first
    work_dir = Path(args.work_dir)
    run_groups = groups(args.workload, args.seed)
    # Part p of P owns an equal share of the groups (at least one) and
    # goes on round-robin from there while its time lasts.
    n = len(run_groups)
    first = args.part * n // args.parts
    own = max(1, (args.part + 1) * n // args.parts - first)
    rounds = Rounds(
        run_groups, [(first + i) % n for i in range(n)], own, bool(args.trace)
    )
    if args.workload == "store-reload":
        stores = reload_stores(work_dir)
        for store in stores:  # warm-up: opens the sqlite connection
            store.load(run_groups[0][0])
    else:
        # Warm-up: the same quick study for every run, so set-up does
        # not depend on the seed.
        warm_dir = Path(tempfile.mkdtemp(dir=work_dir))
        StudyRunner(cache_dir=warm_dir, store="json", jobs=1).run(
            [StudyKey("quick", 0, run_groups[0][0].expression)]
        )
        shutil.rmtree(warm_dir)
    print("READY", flush=True)
    if args.part == 0:
        print(f"study seeds {' '.join(map(str, study_seeds(args.workload, args.seed)))}")
    if args.workload == "store-reload":
        with stores[0], stores[1]:
            run_reload(rounds, args.seconds, stores)
    else:
        run_studies(rounds, args.seconds, work_dir, common.load_pins())
    if rounds.tracer is not None:
        rounds.tracer.dump(args.spans_file)
    print(json.dumps(rounds.result()))
    return 0


def pins() -> int:
    from repro.figures.common import FigureConfig, compute_study_results

    out = {}
    for scale, families in (("quick", QUICK_FAMILIES), ("full", FULL_FAMILIES)):
        for seed in POOL[scale]:
            for name in families:
                key = StudyKey(scale, seed, name)
                results = compute_study_results(
                    FigureConfig(scale=scale, seed=seed), name
                )
                out[key.slug] = common.sha256(encode_study(key, *results))
    print(json.dumps(out, indent=2))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="studies.py")
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run")
    run_parser.add_argument("--workload", choices=BATCH_WORKLOADS, required=True)
    run_parser.add_argument("--seed", type=int, required=True)
    run_parser.add_argument("--seconds", type=float, required=True)
    run_parser.add_argument("--part", type=int, default=0)
    run_parser.add_argument("--parts", type=int, default=1)
    run_parser.add_argument("--work-dir", required=True)
    run_parser.add_argument("--meter-file", required=True)
    run_parser.add_argument("--spans-file", help="trace, and write the spans here")
    prepare_parser = sub.add_parser("prepare")
    prepare_parser.add_argument("--seed", type=int, required=True)
    prepare_parser.add_argument("--work-dir", required=True)
    sub.add_parser("pins")
    args = parser.parse_args(argv)
    if args.command == "prepare":
        return prepare(args.seed, Path(args.work_dir))
    if args.command == "pins":
        return pins()
    args.trace = args.spans_file is not None
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
