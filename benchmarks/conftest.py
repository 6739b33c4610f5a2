"""Benchmark harness configuration.

Every paper artefact (Figures 1, 6–11; Tables 1, 2) has one benchmark
that regenerates it and reports the wall time of the regeneration.
Scale is controlled by the ``REPRO_BENCH_SCALE`` environment variable
(``quick`` default, ``full`` for the paper's parameters — minutes) and
the seed by ``REPRO_BENCH_SEED`` (integer, default 0).  Invalid values
abort the run with a usage error instead of silently falling back or
surfacing a raw traceback.

Studies are shared through :func:`repro.figures.common.study_for`'s
process-level cache, so the suite runs each experiment pipeline once
per expression; set ``REPRO_CACHE_DIR`` to also share them *across*
benchmark processes through the on-disk store — warmed most cheaply by
the parallel runner (``python -m repro.runner``).  The store backend
comes from ``REPRO_CACHE_STORE`` (``json`` default, ``sqlite`` for the
shared-database layout); an invalid value aborts the run with a usage
error before any pipeline starts.
"""

from __future__ import annotations

import os

import pytest

from repro.figures.cache import SCALES, store_kind_from_env
from repro.figures.common import FigureConfig


def parse_bench_scale(raw: str) -> str:
    value = raw.strip().lower()
    if value not in SCALES:
        raise pytest.UsageError(
            f"REPRO_BENCH_SCALE must be one of {'/'.join(SCALES)}, "
            f"got {raw!r}"
        )
    return value


def parse_bench_seed(raw: str) -> int:
    try:
        return int(raw.strip())
    except ValueError:
        raise pytest.UsageError(
            f"REPRO_BENCH_SEED must be an integer, got {raw!r}"
        ) from None


def parse_cache_store() -> str:
    """Validate ``REPRO_CACHE_STORE`` before any study pipeline runs."""
    try:
        return store_kind_from_env()
    except ValueError as exc:
        raise pytest.UsageError(str(exc)) from None


@pytest.fixture(scope="session")
def fig_config() -> FigureConfig:
    scale = parse_bench_scale(os.environ.get("REPRO_BENCH_SCALE", "quick"))
    seed = parse_bench_seed(os.environ.get("REPRO_BENCH_SEED", "0"))
    parse_cache_store()
    return FigureConfig(scale=scale, seed=seed)


@pytest.fixture
def run_once(benchmark):
    """Run a regeneration exactly once under pytest-benchmark timing.

    Artefact regenerations take seconds to minutes; statistical
    repetition belongs to the *measurements inside* the experiments
    (the paper's median-of-k), not to the harness.
    """

    def _run(fn):
        return benchmark.pedantic(fn, iterations=1, rounds=1, warmup_rounds=0)

    return _run
