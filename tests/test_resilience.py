"""Retry timing of the runner's broken-pool salvage.

When the worker pool breaks, :class:`repro.runner.StudyRunner` retries
each unfinished key in-process, up to ``retries`` attempts.  It pauses
:data:`repro.runner.runner.SALVAGE_DELAY_SECONDS` before the second
attempt and doubles the pause per further attempt, up to one second.
``time.sleep`` is replaced by a recorder here, so the tests read the
schedule without waiting it out.
"""

from concurrent.futures.process import BrokenProcessPool

from repro.figures.cache import StudyKey
from repro.runner import StudyRunner
from repro.runner import runner as runner_module

KEYS = (StudyKey("quick", 0, "aatb"), StudyKey("quick", 1, "aatb"))


class ExplodingPool:
    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        raise BrokenProcessPool("fork failed")

    def __exit__(self, *exc):
        return False


def _salvage_pauses(tmp_path, monkeypatch, retries, failures=None):
    """The pauses a salvage of KEYS sleeps, and its report.

    Each in-process attempt fails while ``failures`` (default: every
    attempt) lasts, then computes normally.
    """
    compute = runner_module.compute_study_results
    calls = []

    def flaky(*args):
        calls.append(args)
        if failures is None or len(calls) <= failures:
            raise RuntimeError("simulated study failure")
        return compute(*args)

    pauses = []
    monkeypatch.setattr(runner_module, "ProcessPoolExecutor", ExplodingPool)
    monkeypatch.setattr(runner_module, "compute_study_results", flaky)
    monkeypatch.setattr(runner_module.time, "sleep", pauses.append)
    report = StudyRunner(
        cache_dir=tmp_path, store="json", jobs=2, retries=retries
    ).run(KEYS)
    monkeypatch.undo()
    return pauses, report


def test_retry_delays_are_deterministic_and_grow(tmp_path, monkeypatch):
    first, report = _salvage_pauses(tmp_path / "a", monkeypatch, retries=4)
    again, _ = _salvage_pauses(tmp_path / "b", monkeypatch, retries=4)
    assert not report.ok
    assert [o.attempts for o in report.outcomes] == [4, 4]
    # Three pauses per key, each twice the last, the same every run.
    assert first == [0.05, 0.1, 0.2] * len(KEYS)
    assert again == first


def test_retry_backoff_respects_max_delay(tmp_path, monkeypatch):
    pauses, report = _salvage_pauses(tmp_path, monkeypatch, retries=8)
    assert [o.attempts for o in report.outcomes] == [8, 8]
    assert pauses == [0.05, 0.1, 0.2, 0.4, 0.8, 1.0, 1.0] * len(KEYS)


def test_salvage_pauses_only_between_attempts(tmp_path, monkeypatch):
    # One attempt per key: nothing to pause between.
    pauses, report = _salvage_pauses(
        tmp_path / "once", monkeypatch, retries=1
    )
    assert pauses == []
    assert "attempt 1/1" in report.outcomes[0].error
    # The first key fails once and succeeds on its second attempt; the
    # second key succeeds at once.  Only the retry paused.
    pauses, report = _salvage_pauses(
        tmp_path / "twice", monkeypatch, retries=3, failures=1
    )
    assert report.ok
    assert [o.attempts for o in report.outcomes] == [2, 1]
    assert pauses == [0.05]
