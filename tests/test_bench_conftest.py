"""The benchmark harness must reject malformed environment knobs."""

import importlib.util
from pathlib import Path

import pytest

_CONFTEST = Path(__file__).parent.parent / "benchmarks" / "conftest.py"
_spec = importlib.util.spec_from_file_location("bench_conftest", _CONFTEST)
bench_conftest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_conftest)


def test_scale_accepts_known_values():
    assert bench_conftest.parse_bench_scale("quick") == "quick"
    assert bench_conftest.parse_bench_scale(" Full ") == "full"


@pytest.mark.parametrize("raw", ["", "fast", "qiuck", "1", "full scale"])
def test_scale_rejects_unknown_values_with_clear_error(raw):
    with pytest.raises(pytest.UsageError, match="REPRO_BENCH_SCALE"):
        bench_conftest.parse_bench_scale(raw)


def test_seed_accepts_integers():
    assert bench_conftest.parse_bench_seed("7") == 7
    assert bench_conftest.parse_bench_seed(" -3 ") == -3


@pytest.mark.parametrize("raw", ["", "0.5", "seven", "1e3"])
def test_seed_rejects_non_integers_with_clear_error(raw):
    with pytest.raises(pytest.UsageError, match="REPRO_BENCH_SEED"):
        bench_conftest.parse_bench_seed(raw)


def test_cache_store_accepts_valid_and_rejects_junk(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_STORE", raising=False)
    assert bench_conftest.parse_cache_store() == "json"
    monkeypatch.setenv("REPRO_CACHE_STORE", "sqlite")
    assert bench_conftest.parse_cache_store() == "sqlite"
    monkeypatch.setenv("REPRO_CACHE_STORE", "redis")
    with pytest.raises(pytest.UsageError, match="REPRO_CACHE_STORE"):
        bench_conftest.parse_cache_store()
