"""Tests of the pipeline benchmark itself.

    PYTHONPATH=src python -m pytest -q benchmarks/pipeline

Smoke runs go through run.py exactly as a user (or CI) would, at one
second per workload (a run still covers each of its study seeds
once); the rest call the benchmark's modules directly.
"""

from __future__ import annotations

import collections
import importlib
import importlib.util
import itertools
import json
import shutil
import signal
import subprocess
import sys

import pytest

import common
import compare
import run
import studies
import tracing
from repro.figures.cache import StudyKey

SPEC = json.loads(common.BENCHMARK_PATH.read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_benchmark(workload: str, trace: int, cwd=common.ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks/pipeline/run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric_of_the_spec(workload, trace):
    proc = run_benchmark(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace:
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(common.BENCHMARK_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        common.HERE, tmp_path / "benchmarks/pipeline",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = run_benchmark("study-quick", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")


def test_every_study_of_the_pools_is_pinned():
    pins = common.load_pins()
    keys = [
        StudyKey(scale, seed, name)
        for scale, families in (
            ("quick", studies.QUICK_FAMILIES), ("full", studies.FULL_FAMILIES)
        )
        for seed in studies.POOL[scale]
        for name in families
    ]
    assert sorted(pins) == sorted(key.slug for key in keys)
    for workload in studies.BATCH_WORKLOADS:
        for seed in range(20):
            chosen = studies.study_seeds(workload, seed)
            assert len(set(chosen)) == studies.SEEDS_PER_RUN[workload]
            assert chosen == studies.study_seeds(workload, seed)


def test_pins_agree_with_the_compiled_equivalence_pins():
    spec = importlib.util.spec_from_file_location(
        "compiled_equivalence",
        common.ROOT / "tests/test_compiled_equivalence.py",
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    pins = common.load_pins()
    for name, digest in module.PAYLOAD_SHA256.items():
        assert pins[StudyKey("quick", 0, name).slug] == digest


def test_a_wrong_pin_fails_that_study_only(tmp_path, capsys):
    keys = [StudyKey("quick", 0, "aatb"), StudyKey("quick", 0, "gram3")]
    pins = dict(common.load_pins())
    pins[keys[0].slug] = "0" * 64
    rounds = studies.Rounds([keys], [0], 1, trace=False)
    studies.run_studies(rounds, 0.0, tmp_path, pins)
    assert (rounds.attempted, rounds.failed) == (2, 1)
    assert f"study failed: {keys[0].slug}" in capsys.readouterr().out


def test_traced_rounds_match_the_pins_and_unwrap(tmp_path):
    classify = importlib.import_module("repro.core.classify")
    original = classify.batch_flops
    keys = [StudyKey("quick", 3, "aatb")]
    rounds = studies.Rounds([keys], [0], 1, trace=True)
    studies.run_studies(rounds, 0.0, tmp_path, common.load_pins())
    assert [w[1] for w in rounds.windows] == [False, True]
    assert (rounds.attempted, rounds.failed) == (2, 0)
    assert rounds.tracer.spans
    assert tracing.unwrapped()
    assert classify.batch_flops is original


def test_self_time_subtracts_child_spans():
    names = ["outer", "inner"]
    spans = [[0, 0.0, 1.0, -1, 0, 0, None], [1, 0.2, 0.5, 0, 0, 0, None]]
    assert tracing.self_times(names, spans) == pytest.approx(
        {"outer": 0.7, "inner": 0.3}
    )


def test_speed_scale_counts_gaps_at_their_samples_speed():
    ref = common.REFERENCE_SAMPLE_S
    # Samples of twice the reference duration, 10 ms apart: the host
    # runs at half speed, and sample time does not count.
    samples = [(0.01 * k, 0.01 * k + 2 * ref) for k in range(10)]
    scale = common.SpeedScale(samples)
    gap = 0.01 - 2 * ref
    assert scale.seconds(samples[2][1], samples[5][0]) == pytest.approx(0.5 * 3 * gap)
    assert scale.seconds(samples[2][0], samples[2][1]) == pytest.approx(0.0)
    # Before the first and after the last sample: the nearest speed.
    assert scale.seconds(-1.0, 0.0) == pytest.approx(0.5)
    assert scale.seconds(samples[-1][1], samples[-1][1] + 1.0) == pytest.approx(0.5)
    assert scale.factor() == pytest.approx(0.5)


def test_speed_meter_samples_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    meter = common.SpeedMeter().start()
    total = 0
    for i in range(3_000_000):  # about 0.1 s of bytecodes
        total += i
    meter.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.samples) >= 3
    assert all(a[1] <= b[0] for a, b in zip(meter.samples, meter.samples[1:]))


def test_request_stream_gives_every_class_its_exact_share():
    n_dims = {"aatb": 3, "chain4": 5, "sum4": 8}
    first = list(itertools.islice(run.request_stream(5, n_dims), 900))
    assert first == list(itertools.islice(run.request_stream(5, n_dims), 900))
    counts = collections.Counter(
        (request["expression"], request.get("discriminant")) for _, request in first
    )
    assert counts == {cls: 100 for cls in run.CLASSES}
    assert all(len(r["dims"]) == n_dims[r["expression"]] for _, r in first)


def _write_set(directory, workload, values):
    directory.mkdir()
    metrics = {m["name"]: m for m in SPEC["end_to_end"]}
    lines = []
    for value in values:
        lines.append(json.dumps({
            "correct": True, "attempted": 1, "failed": 0,
            "metrics": {
                name: {"value": value(name), "unit": metric["unit"]}
                for name, metric in metrics.items()
            },
        }))
    (directory / f"{workload}.jsonl").write_text("\n".join(lines) + "\n")


def _runs(scale):
    # Ten runs, 0.2% apart; ``scale`` multiplies one metric.
    return [
        lambda name, i=i: (1.0 + 0.002 * i) * scale.get(name, 1.0)
        for i in range(10)
    ]


@pytest.mark.parametrize("scale,verdict,code", [(0.8, "worse", 1), (0.98, "same", 0)])
def test_compare_fails_on_a_20_percent_regression(tmp_path, capsys, scale, verdict, code):
    _write_set(tmp_path / "base", "study-full", _runs({}))
    _write_set(tmp_path / "new", "study-full", _runs({"instances_per_s": scale}))
    assert compare.compare(tmp_path / "base", tmp_path / "new") == code
    row = [l for l in capsys.readouterr().out.splitlines() if "instances_per_s" in l]
    assert row[0].endswith(verdict)


def test_every_bound_is_at_most_a_tenth():
    assert all(0.05 <= m["bound"] <= 0.10 for m in SPEC["end_to_end"])


def test_compare_passes_identical_sets_and_flags_wide_spreads(tmp_path, capsys):
    _write_set(tmp_path / "base", "study-full", _runs({}))
    _write_set(tmp_path / "new", "study-full", _runs({}))
    assert compare.compare(tmp_path / "base", tmp_path / "new") == 0
    assert "same" in capsys.readouterr().out
    assert compare.verdict([1.0, 2.0, 3.0, 4.0], [1.0] * 4, "lower", 0.1) == "unresolved"
    assert compare.verdict([1.0] * 4, [0.8] * 4, "lower", 0.1) == "better"
