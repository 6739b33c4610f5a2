"""StudyRunner: fan the study matrix out across worker processes.

Each study — the full experiment pipeline for one
``(scale, seed, expression, box)`` key — is deterministic and
independent of every other, so the matrix partitions trivially across
a ``ProcessPoolExecutor``.  Workers communicate *only* through the
shared :class:`repro.figures.cache.StudyStore`: a worker first probes
the store (another worker, or a previous run, may already have the
key), computes on a miss via
:func:`repro.figures.common.compute_study_results`, and persists the
result.  Because the pipeline is deterministic, a parallel run and a
sequential run of the same matrix leave byte-identical payloads in the
store, whatever the partitioning or completion order.

Failures are contained per study: a worker returns a ``failed``
outcome with the error message instead of poisoning the pool.  Two
further hardening layers on top of that:

* a store *load* error (corrupted row, unreadable database) falls back
  to recomputation — loads are best-effort per the
  :mod:`repro.figures.cache` contract, so a broken cache entry must
  never fail an otherwise-computable study.  The load error is
  surfaced on the outcome's ``error`` field next to its non-failed
  status.
* a worker process dying outright (OOM kill, segfault) breaks the
  whole ``ProcessPoolExecutor``; :meth:`StudyRunner.run` catches the
  resulting ``BrokenProcessPool`` instead of losing the run.  Keys
  whose results already reached the store are recognised by the
  sequential retry's store probe (they come back ``cached``); only the
  genuinely missing keys recompute, in-process, where a crash is
  attributable to its study, with a doubling pause between attempts.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.figures.cache import StudyKey, make_store
from repro.figures.common import FigureConfig, compute_study_results

#: Pause before the salvage path's second in-process attempt of a key;
#: it doubles per further attempt, up to one second.
SALVAGE_DELAY_SECONDS = 0.05


@dataclass(frozen=True)
class StudyOutcome:
    """What happened to one study key during a run."""

    key: StudyKey
    status: str  # "computed" | "cached" | "failed"
    seconds: float
    error: str = ""
    #: How many in-process attempts this outcome took (one unless the
    #: broken-pool salvage path retried the key).
    attempts: int = 1


@dataclass(frozen=True)
class RunReport:
    """One :meth:`StudyRunner.run` summarized."""

    outcomes: Tuple[StudyOutcome, ...]
    wall_seconds: float
    jobs: int
    store_kind: str
    cache_dir: str

    def count(self, status: str) -> int:
        return sum(1 for o in self.outcomes if o.status == status)

    @property
    def ok(self) -> bool:
        return self.count("failed") == 0

    def summary(self) -> str:
        return (
            f"{len(self.outcomes)} studies "
            f"({self.count('computed')} computed, "
            f"{self.count('cached')} cached, "
            f"{self.count('failed')} failed) in "
            f"{self.wall_seconds:.2f}s wall with {self.jobs} job(s) "
            f"({self.store_kind} store at {self.cache_dir})"
        )


def study_matrix(
    scales: Sequence[str] = ("quick",),
    seeds: Sequence[int] = (0,),
    expressions: Optional[Sequence[str]] = None,
    box: str = "paper_box",
    extras: Iterable[StudyKey] = (),
) -> Tuple[StudyKey, ...]:
    """The full study matrix: scales × seeds × expressions, + extras.

    ``expressions`` defaults to every registered expression.  Extras
    (arbitrary user-supplied keys, e.g. a ``chain6`` study or a
    ``wide_box`` variant) are appended; duplicates are dropped while
    preserving first-occurrence order, so a matrix is safe to feed to
    :meth:`StudyRunner.run` directly.
    """
    from repro.expressions.registry import known_expressions

    if expressions is None:
        expressions = known_expressions()
    keys = [
        StudyKey(scale=scale, seed=int(seed), expression=name, box=box)
        for scale in scales
        for seed in seeds
        for name in expressions
    ]
    keys.extend(extras)
    seen = set()
    unique = []
    for key in keys:
        if key not in seen:
            seen.add(key)
            unique.append(key)
    return tuple(unique)


def run_study(key: StudyKey, store_kind: str, cache_dir: str) -> StudyOutcome:
    """Compute-or-load one study through the shared store.

    This is the worker body — a module-level function so the process
    pool can pickle it by qualified name under any start method.  It
    never touches the in-process study memo: results flow through the
    store only, which is what makes parallel and sequential runs
    indistinguishable byte-for-byte.
    """
    start = time.perf_counter()
    notes = []
    try:
        with make_store(store_kind, Path(cache_dir)) as store:
            try:
                loaded = store.load(key)
            except Exception as exc:
                # Loads are best-effort (see repro.figures.cache): a
                # corrupted entry or unreadable database is a cache
                # miss with a note, never a lost study.
                loaded = None
                notes.append(
                    f"store load failed, recomputed "
                    f"({type(exc).__name__}: {exc})"
                )
            if loaded is not None:
                return StudyOutcome(
                    key, "cached", time.perf_counter() - start
                )
            config = FigureConfig(
                scale=key.scale,
                seed=key.seed,
                box=key.box,
                variant=key.variant,
            )
            results = compute_study_results(config, key.expression)
            try:
                store.save(key, *results)
            except Exception as exc:
                # Saves are best-effort too: the study is computed and
                # usable, it just could not be persisted this time.
                notes.append(
                    f"store save failed ({type(exc).__name__}: {exc})"
                )
        return StudyOutcome(
            key,
            "computed",
            time.perf_counter() - start,
            error="; ".join(notes),
        )
    except Exception as exc:  # contained per study
        return StudyOutcome(
            key,
            "failed",
            time.perf_counter() - start,
            error=f"{type(exc).__name__}: {exc}",
        )


def _run_study_args(args: Tuple[StudyKey, str, str]) -> StudyOutcome:
    return run_study(*args)


@dataclass
class StudyRunner:
    """Partition a study matrix across processes, collect via the store."""

    cache_dir: Path
    store: str = "json"
    jobs: int = 1
    #: In-process attempts per key on the broken-pool salvage path.
    retries: int = 2

    def __post_init__(self) -> None:
        self.cache_dir = Path(self.cache_dir)
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.retries < 1:
            raise ValueError("retries must be >= 1")
        # Fail fast on an unknown backend, before any worker spawns.
        make_store(self.store, self.cache_dir).close()

    def run(self, keys: Sequence[StudyKey]) -> RunReport:
        """Run every study of ``keys`` (see :func:`study_matrix`)."""
        keys = tuple(keys)
        args = [(key, self.store, str(self.cache_dir)) for key in keys]
        start = time.perf_counter()
        if self.jobs == 1 or len(keys) <= 1:
            outcomes = tuple(_run_study_args(a) for a in args)
        else:
            outcomes = self._run_parallel(args)
        return RunReport(
            outcomes=outcomes,
            wall_seconds=time.perf_counter() - start,
            jobs=self.jobs,
            store_kind=self.store,
            cache_dir=str(self.cache_dir),
        )

    def _run_parallel(
        self, args: Sequence[Tuple[StudyKey, str, str]]
    ) -> Tuple[StudyOutcome, ...]:
        """Fan out across a process pool, surviving worker crashes.

        A worker dying outright (OOM kill, segfault) poisons the whole
        ``ProcessPoolExecutor``: every pending future raises
        ``BrokenProcessPool`` and, without handling, the completed
        studies' outcomes would be lost with it.  Completed results are
        never actually lost — workers communicate through the store —
        so each broken key is resubmitted sequentially via
        :func:`run_study`, up to :attr:`retries` attempts with a
        doubling pause between them (:data:`SALVAGE_DELAY_SECONDS`);
        its store probe reports the survivors as ``cached`` and
        recomputes only the genuinely missing keys.  Each salvaged
        outcome records how many attempts it took.
        """
        results: Dict[StudyKey, StudyOutcome] = {}
        try:
            workers = min(self.jobs, len(args))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    (a[0], pool.submit(_run_study_args, a)) for a in args
                ]
                for key, future in futures:
                    try:
                        results[key] = future.result()
                    except BrokenProcessPool:
                        pass  # retried sequentially below
        except BrokenProcessPool:
            pass  # the pool can also break during submission or shutdown
        for key, store_kind, cache_dir in args:
            if key in results:
                continue
            for attempt in range(1, self.retries + 1):
                if attempt > 1:
                    time.sleep(
                        min(SALVAGE_DELAY_SECONDS * 2 ** (attempt - 2), 1.0)
                    )
                outcome = run_study(key, store_kind, cache_dir)
                if outcome.status != "failed":
                    break
            note = (
                f"retried sequentially after worker pool broke "
                f"(attempt {attempt}/{self.retries})"
            )
            error = f"{outcome.error}; {note}" if outcome.error else note
            results[key] = replace(outcome, error=error, attempts=attempt)
        return tuple(results[a[0]] for a in args)
