"""Parallel multi-study runner: matrix, equivalence, CLI.

The load-bearing promise: a parallel run and a sequential run of the
same study matrix leave **byte-identical** payloads in the store —
the pipeline is deterministic per key, and workers communicate only
through the store.
"""

import os
from pathlib import Path

import pytest

from repro.figures.cache import (
    JsonDirectoryStore,
    SqliteStudyStore,
    StudyKey,
)
from repro.runner import StudyRunner, study_matrix
from repro.runner.__main__ import main as runner_main
from repro.runner.runner import run_study

MATRIX = (
    StudyKey("quick", 0, "aatb"),
    StudyKey("quick", 1, "aatb"),
    StudyKey("quick", 0, "chain4"),
    StudyKey("quick", 1, "chain4"),
)


def test_study_matrix_enumerates_registered_expressions_plus_extras():
    keys = study_matrix(seeds=(0, 1))
    assert StudyKey("quick", 0, "aatb") in keys
    assert StudyKey("quick", 1, "chain4") in keys
    extra = StudyKey("quick", 7, "chain5", box="wide_box")
    extended = study_matrix(seeds=(0,), extras=(extra,))
    assert extended[-1] == extra
    # Duplicates collapse, first occurrence wins the position.
    deduped = study_matrix(seeds=(0, 0), extras=(StudyKey("quick", 0, "aatb"),))
    assert len(deduped) == len(set(deduped))


def _json_bytes(root: Path) -> dict:
    store = JsonDirectoryStore(root)
    return {key.slug: store.path_for(key).read_bytes() for key in MATRIX}


def test_parallel_and_sequential_json_payloads_are_byte_identical(tmp_path):
    sequential = StudyRunner(cache_dir=tmp_path / "seq", store="json", jobs=1)
    parallel = StudyRunner(cache_dir=tmp_path / "par", store="json", jobs=2)
    seq_report = sequential.run(MATRIX)
    par_report = parallel.run(MATRIX)
    assert seq_report.ok and par_report.ok
    assert seq_report.count("computed") == len(MATRIX)
    assert par_report.count("computed") == len(MATRIX)
    assert _json_bytes(tmp_path / "seq") == _json_bytes(tmp_path / "par")


def test_parallel_sqlite_matches_sequential_json_payloads(tmp_path):
    StudyRunner(cache_dir=tmp_path / "seq", store="json", jobs=1).run(MATRIX)
    report = StudyRunner(
        cache_dir=tmp_path / "sq", store="sqlite", jobs=2
    ).run(MATRIX)
    assert report.ok
    json_texts = {
        slug: data.decode() for slug, data in _json_bytes(tmp_path / "seq").items()
    }
    with SqliteStudyStore(tmp_path / "sq") as store:
        for key in MATRIX:
            assert store.load_text(key) == json_texts[key.slug]


def test_second_run_is_all_cache_hits_and_failures_are_contained(tmp_path):
    runner = StudyRunner(cache_dir=tmp_path, store="sqlite", jobs=1)
    assert runner.run(MATRIX).count("computed") == len(MATRIX)
    rerun = runner.run(MATRIX)
    assert rerun.count("cached") == len(MATRIX)
    # An unknown expression fails its own study, not the run.
    bad = runner.run((StudyKey("quick", 0, "not-an-expression"),) + MATRIX[:1])
    assert not bad.ok
    assert bad.outcomes[0].status == "failed"
    assert "not-an-expression" in bad.outcomes[0].error
    assert bad.outcomes[1].status == "cached"
    assert "failed" in bad.summary()


def test_run_study_respects_box_in_key(tmp_path):
    key = StudyKey("quick", 0, "aatb", box="wide_box")
    outcome = run_study(key, "json", str(tmp_path))
    assert outcome.status == "computed"
    store = JsonDirectoryStore(tmp_path)
    loaded = store.load(key)
    assert loaded is not None
    # The wider box admits dims beyond the paper's 1200 cap.
    celled = [
        max(anomaly.instance) for anomaly in loaded["search"].anomalies
    ]
    assert max(celled, default=0) > 1200
    # And it is keyed apart from the paper-box study.
    assert store.load(StudyKey("quick", 0, "aatb")) is None


def test_cli_runs_matrix_and_lists(tmp_path, capsys):
    cache_dir = str(tmp_path / "cli")
    assert (
        runner_main(
            [
                "--scale", "quick",
                "--seeds", "0",
                "--expressions", "aatb",
                "--jobs", "1",
                "--store", "sqlite",
                "--cache-dir", cache_dir,
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "computed" in out and "quick-seed0-aatb-paper_box" in out
    assert runner_main(["--list", "--cache-dir", cache_dir]) == 0
    listed = capsys.readouterr().out.strip().splitlines()
    assert "quick-seed0-aatb-paper_box" in listed
    assert "quick-seed0-chain4-paper_box" in listed
    # Compiler-generated families are part of the default matrix.
    assert "quick-seed0-gram3-paper_box" in listed
    assert "quick-seed0-tri4-paper_box" in listed
    assert "quick-seed0-sum3-paper_box" in listed
    # Extras ride along, pattern names validate without registration.
    assert (
        runner_main(
            [
                "--list",
                "--extra", "quick:7:gram4:wide_box",
                "--cache-dir", cache_dir,
            ]
        )
        == 0
    )
    assert "quick-seed7-gram4-wide_box" in capsys.readouterr().out


def test_cli_requires_a_cache_dir(monkeypatch, capsys):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert runner_main(["--list"]) == 2
    assert "cache-dir" in capsys.readouterr().err


def test_cli_rejects_unknown_extra_expression_upfront(tmp_path, capsys):
    # A typo is a usage error at parse time, not a KeyError traceback
    # from a worker process.
    with pytest.raises(SystemExit) as excinfo:
        runner_main(
            [
                "--extra", "quick:0:not-an-expression",
                "--cache-dir", str(tmp_path),
            ]
        )
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "unknown expression 'not-an-expression'" in err
    assert "gram<k>" in err  # the error teaches the valid patterns


@pytest.mark.parametrize(
    "extra,fragment",
    [
        ("quick:0", "scale:seed:expression"),
        ("warm:0:aatb", "scale must be one of"),
        ("quick:x:aatb", "seed must be an integer"),
        ("quick:0:aatb:narrow_box", "box must be one of"),
    ],
)
def test_cli_rejects_malformed_extras(tmp_path, capsys, extra, fragment):
    with pytest.raises(SystemExit) as excinfo:
        runner_main(["--extra", extra, "--cache-dir", str(tmp_path)])
    assert excinfo.value.code == 2
    assert fragment in capsys.readouterr().err


def test_cli_rejects_unknown_store_upfront(tmp_path, capsys):
    # Same validation style as expression/scale/box names: a bad
    # backend name is a usage error at parse time, never a per-study
    # failure inside a worker.
    with pytest.raises(SystemExit) as excinfo:
        runner_main(
            ["--store", "postgres", "--cache-dir", str(tmp_path)]
        )
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "unknown store 'postgres'" in err
    assert "json/sqlite" in err  # the error teaches the valid kinds


def test_cli_store_names_are_case_insensitive(tmp_path, capsys):
    assert (
        runner_main(
            [
                "--list",
                "--store", "SQLite",
                "--cache-dir", str(tmp_path),
            ]
        )
        == 0
    )


def test_cli_rejects_unknown_expressions_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        runner_main(
            [
                "--expressions", "aatb,chan4",
                "--cache-dir", str(tmp_path),
            ]
        )
    assert excinfo.value.code == 2
    assert "chan4" in capsys.readouterr().err


def test_cli_exit_code_reflects_failed_studies(tmp_path, capsys, monkeypatch):
    # A valid-name study whose pipeline fails must turn into exit
    # code 1 (the outcome line carries the error), not a crash.
    def boom(config, expression_name, backend=None):
        raise RuntimeError("pipeline exploded")

    monkeypatch.setattr(
        "repro.runner.runner.compute_study_results", boom
    )
    exit_code = runner_main(
        [
            "--expressions", "aatb",
            "--jobs", "1",
            "--cache-dir", str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert exit_code == 1
    assert "failed" in out and "pipeline exploded" in out


def test_cli_abundance_survives_mid_run_pattern_registration(
    tmp_path, capsys, monkeypatch
):
    # An in-process --extra of a pattern family registers it into the
    # registry *during* the run; the abundance figure must still cover
    # exactly the names that were warmed (the snapshot taken before
    # the run), not the grown registry — and exit 0.
    from repro.expressions import registry

    monkeypatch.setattr(
        registry, "_REGISTRY", {"aatb": registry._REGISTRY["aatb"]}
    )
    exit_code = runner_main(
        [
            "--extra", "quick:0:tri3",
            "--abundance",
            "--jobs", "1",
            "--cache-dir", str(tmp_path / "mid"),
        ]
    )
    out = capsys.readouterr().out
    assert "tri3" in registry.known_expressions()  # registered mid-run
    assert exit_code == 0
    assert "quick-seed0-tri3-paper_box" in out
    assert "Anomaly abundance vs search volume" in out
    assert "skipped" not in out


@pytest.mark.parametrize("raw", ["", "   ", ",", " , ,"])
def test_cli_rejects_blank_seeds(tmp_path, capsys, raw):
    # An all-blank --seeds used to produce an empty matrix and a
    # successful "0 studies" run; it is a usage error.
    with pytest.raises(SystemExit) as excinfo:
        runner_main(["--seeds", raw, "--cache-dir", str(tmp_path)])
    assert excinfo.value.code == 2
    assert "at least one integer" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["0", "-3", "two"])
def test_cli_rejects_non_positive_jobs(tmp_path, capsys, raw):
    # --jobs 0 used to escape argparse and surface as a raw ValueError
    # traceback from StudyRunner; it is a usage error.
    with pytest.raises(SystemExit) as excinfo:
        runner_main(["--jobs", raw, "--cache-dir", str(tmp_path)])
    assert excinfo.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["--ablation"], ["--ablation-components", "no-noise"], ["--report-dir", "x"]],
    ids=("ablation", "ablation-components", "report-dir"),
)
def test_ablation_options_are_not_runner_options(tmp_path, capsys, argv):
    # The ablation matrix has one CLI, python -m repro.ablation.
    with pytest.raises(SystemExit) as excinfo:
        runner_main(argv + ["--cache-dir", str(tmp_path)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(argv)}" in err


def test_run_study_recomputes_when_store_entry_is_corrupt(tmp_path):
    # A corrupted store entry is a miss, not a failed study: run_study
    # recomputes and heals the entry byte-identically (the pipeline is
    # deterministic per key).
    key = MATRIX[0]
    assert run_study(key, "json", str(tmp_path)).status == "computed"
    path = JsonDirectoryStore(tmp_path).path_for(key)
    good = path.read_bytes()
    path.write_text("{corrupted", encoding="utf-8")
    outcome = run_study(key, "json", str(tmp_path))
    assert outcome.status == "computed"
    assert path.read_bytes() == good


def test_run_study_surfaces_a_raising_store_load(tmp_path, monkeypatch):
    # A store whose load *raises* (as opposed to degrading to a miss)
    # used to fail the study; now it falls back to recomputation with
    # the load error surfaced in the outcome.
    def explode(self, key):
        raise OSError("disk on fire")

    monkeypatch.setattr(JsonDirectoryStore, "load", explode)
    outcome = run_study(MATRIX[0], "json", str(tmp_path))
    assert outcome.status == "computed"
    assert "store load failed, recomputed" in outcome.error
    assert "disk on fire" in outcome.error
    monkeypatch.undo()
    assert JsonDirectoryStore(tmp_path).load(MATRIX[0]) is not None


def test_run_study_heals_a_corrupt_sqlite_row(tmp_path):
    key = MATRIX[0]
    assert run_study(key, "sqlite", str(tmp_path)).status == "computed"
    with SqliteStudyStore(tmp_path) as store:
        good = store.load_text(key)
        store.save_text(key, good[: len(good) // 2])
    outcome = run_study(key, "sqlite", str(tmp_path))
    assert outcome.status == "computed"
    assert outcome.error == ""
    with SqliteStudyStore(tmp_path) as store:
        assert store.load_text(key) == good
    assert run_study(key, "sqlite", str(tmp_path)).status == "cached"


def test_run_study_keeps_a_study_whose_save_fails(tmp_path, monkeypatch):
    # Saves are best-effort: the study is computed, the failed save is
    # a note on the outcome, and nothing reaches the store.
    def refuse(self, key, text):
        raise OSError("read-only store")

    monkeypatch.setattr(JsonDirectoryStore, "save_text", refuse)
    outcome = run_study(MATRIX[0], "json", str(tmp_path))
    assert outcome.status == "computed"
    assert outcome.error == "store save failed (OSError: read-only store)"
    monkeypatch.undo()
    assert JsonDirectoryStore(tmp_path).load_text(MATRIX[0]) is None


def test_runner_salvages_a_broken_process_pool(tmp_path, monkeypatch):
    # When a worker dies the pool poisons every pending future with
    # BrokenProcessPool.  The runner must keep the studies that
    # finished (visible through the store) and retry the rest
    # sequentially, not crash the whole run.
    from concurrent.futures.process import BrokenProcessPool

    from repro.runner import runner as runner_module

    class FakeFuture:
        def __init__(self, args, broken):
            self._args = args
            self._broken = broken

        def result(self):
            if self._broken:
                raise BrokenProcessPool("a child process terminated abruptly")
            return runner_module._run_study_args(self._args)

    class FakePool:
        # Completes the first submitted study, then "dies".
        def __init__(self, max_workers=None):
            self._submitted = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, args):
            self._submitted += 1
            return FakeFuture(args, broken=self._submitted > 1)

    monkeypatch.setattr(runner_module, "ProcessPoolExecutor", FakePool)
    # One key already in the store: a worker that finished before the
    # pool broke; its retry must report "cached", not recompute.
    assert run_study(MATRIX[1], "json", str(tmp_path)).status == "computed"
    report = StudyRunner(cache_dir=tmp_path, store="json", jobs=2).run(
        MATRIX[:3]
    )
    assert report.ok
    assert report.outcomes[0].status == "computed"
    assert report.outcomes[0].error == ""
    assert report.outcomes[1].status == "cached"
    assert report.outcomes[2].status == "computed"
    for outcome in report.outcomes[1:]:
        assert "retried sequentially after worker pool broke" in outcome.error
    store = JsonDirectoryStore(tmp_path)
    for key in MATRIX[:3]:
        assert store.load(key) is not None


def test_salvage_retries_failed_keys_and_records_attempts(
    tmp_path, monkeypatch
):
    # First in-process attempt of the salvage path fails; the key gets
    # a second attempt, which succeeds, and the outcome records both.
    from concurrent.futures.process import BrokenProcessPool

    from repro.runner import runner as runner_module

    class ExplodingPool:
        def __init__(self, max_workers=None):
            pass

        def __enter__(self):
            raise BrokenProcessPool("fork failed")

        def __exit__(self, *exc):
            return False

    monkeypatch.setattr(runner_module, "ProcessPoolExecutor", ExplodingPool)
    compute = runner_module.compute_study_results
    calls = []

    def fail_once(*args):
        calls.append(args)
        if len(calls) == 1:
            raise RuntimeError("simulated study failure")
        return compute(*args)

    monkeypatch.setattr(runner_module, "compute_study_results", fail_once)
    report = StudyRunner(
        cache_dir=tmp_path, store="json", jobs=2, retries=2
    ).run(MATRIX[:2])
    assert report.ok
    first, second = report.outcomes
    assert first.status == "computed" and first.attempts == 2
    assert "attempt 2/2" in first.error
    assert second.status == "computed" and second.attempts == 1
    assert "attempt 1/2" in second.error


def test_salvage_exhausting_retries_reports_the_failure(
    tmp_path, monkeypatch
):
    from concurrent.futures.process import BrokenProcessPool

    from repro.runner import runner as runner_module

    class ExplodingPool:
        def __init__(self, max_workers=None):
            pass

        def __enter__(self):
            raise BrokenProcessPool("fork failed")

        def __exit__(self, *exc):
            return False

    monkeypatch.setattr(runner_module, "ProcessPoolExecutor", ExplodingPool)

    def always_fail(*args):
        raise RuntimeError("simulated study failure")

    # Every attempt fails: both retries burn, the key fails.
    monkeypatch.setattr(runner_module, "compute_study_results", always_fail)
    report = StudyRunner(
        cache_dir=tmp_path, store="json", jobs=2, retries=2
    ).run(MATRIX[:2])
    assert not report.ok
    for outcome in report.outcomes:
        assert outcome.status == "failed"
        assert outcome.attempts == 2
        assert "RuntimeError: simulated study failure" in outcome.error
        assert "attempt 2/2" in outcome.error


def _crash_first_study(args):
    """Pool-child body: the first study to claim the marker file dies
    hard (``os._exit``, as an OOM kill or segfault would), breaking the
    pool; every other study runs normally."""
    key, store_kind, cache_dir = args
    try:
        os.close(os.open(f"{cache_dir}.crashed", os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return run_study(key, store_kind, cache_dir)
    os._exit(3)


def test_runner_salvages_a_real_worker_crash_byte_identically(
    tmp_path, monkeypatch
):
    from repro.runner import runner as runner_module

    keys = MATRIX[:2]
    plain = tmp_path / "plain"
    assert StudyRunner(cache_dir=plain, store="json", jobs=1).run(keys).ok
    monkeypatch.setattr(runner_module, "_run_study_args", _crash_first_study)
    crashed = tmp_path / "crashed"
    report = StudyRunner(cache_dir=crashed, store="json", jobs=2).run(keys)
    assert (tmp_path / "crashed.crashed").exists()  # a child did die
    assert report.ok
    assert any("worker pool broke" in o.error for o in report.outcomes)
    for key in keys:
        assert (
            JsonDirectoryStore(crashed).path_for(key).read_bytes()
            == JsonDirectoryStore(plain).path_for(key).read_bytes()
        )


def test_runner_rejects_non_positive_retries(tmp_path):
    with pytest.raises(ValueError):
        StudyRunner(cache_dir=tmp_path, retries=0)


@pytest.mark.parametrize("raw", ["0", "-1", "two"])
def test_cli_rejects_non_positive_retries(tmp_path, capsys, raw):
    with pytest.raises(SystemExit) as excinfo:
        runner_main(["--retries", raw, "--cache-dir", str(tmp_path)])
    assert excinfo.value.code == 2
    assert "--retries" in capsys.readouterr().err


def test_runner_survives_pool_breaking_at_construction(tmp_path, monkeypatch):
    # BrokenProcessPool out of the pool itself (not a future) — e.g.
    # during submission — must also degrade to a sequential run.
    from concurrent.futures.process import BrokenProcessPool

    from repro.runner import runner as runner_module

    class ExplodingPool:
        def __init__(self, max_workers=None):
            pass

        def __enter__(self):
            raise BrokenProcessPool("fork failed")

        def __exit__(self, *exc):
            return False

    monkeypatch.setattr(runner_module, "ProcessPoolExecutor", ExplodingPool)
    report = StudyRunner(cache_dir=tmp_path, store="json", jobs=2).run(
        MATRIX[:2]
    )
    assert report.ok
    assert all(o.status == "computed" for o in report.outcomes)
    assert all(
        "retried sequentially after worker pool broke" in o.error
        for o in report.outcomes
    )


def test_cli_abundance_runs_boxes_and_prints_figure(tmp_path, capsys):
    exit_code = runner_main(
        [
            "--expressions", "aatb",
            "--abundance",
            "--jobs", "1",
            "--cache-dir", str(tmp_path / "ab"),
        ]
    )
    out = capsys.readouterr().out
    assert exit_code == 0
    # All three boxes were warmed through the store...
    for box in ("paper_box", "wide_box", "huge_box"):
        assert f"quick-seed0-aatb-{box}" in out
    # ...and the figure rendered from it.
    assert "Anomaly abundance vs search volume" in out
    assert "huge_box" in out.split("Anomaly abundance")[1]
