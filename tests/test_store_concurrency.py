"""Concurrent store access: racing writers, torn-free readers.

Two processes race to write the same study key many times while the
parent reads continuously.  The contract for both backends: a reader
observes either a miss or one complete, valid payload — never a torn
file or partial row — and after the dust settles exactly one valid
payload remains.  (Real contention looks exactly like this: runner
workers recomputing the same deterministic study write identical
payloads.)
"""

import multiprocessing

import pytest

from repro.analysis.confusion import ConfusionMatrix
from repro.core.classify import Verdict
from repro.experiments.prediction import (
    Prediction,
    PredictionRecord,
    PredictionRecords,
)
from repro.experiments.random_search import Anomaly, SearchResult
from repro.experiments.regions import (
    DimExtent,
    Region,
    RegionCell,
    RegionCells,
    Regions,
)
from repro.figures.cache import STORE_KINDS, StudyKey, make_store

KEY = StudyKey(scale="quick", seed=0, expression="aatb")

_WRITES_PER_PROCESS = 40


def _tiny_study():
    verdict = Verdict(
        is_anomaly=True,
        time_score=0.4375,
        flop_score=0.3125,
        threshold=0.1,
        cheapest=("aatb-1-syrk",),
        fastest=("aatb-4-gemm",),
    )
    search = SearchResult(
        expression="aatb",
        threshold=0.1,
        anomalies=(Anomaly(instance=(92, 600, 600), verdict=verdict),),
        n_samples=64,
    )
    regions = Regions(
        expression="aatb",
        threshold=0.05,
        n_dims=3,
        regions=(
            Region(
                origin=(92, 600, 600),
                extents={0: DimExtent(dim=0, lo=20, hi=148)},
            ),
        ),
        cells=RegionCells.from_rows(
            (
                RegionCell(
                    instance=(92, 600, 600), time_score=0.4375, is_anomaly=True
                ),
            ),
            n_dims=3,
        ),
    )
    prediction = Prediction(
        expression="aatb",
        threshold=0.05,
        records=PredictionRecords.from_rows(
            (
                PredictionRecord(
                    instance=(92, 600, 600),
                    actual_anomaly=True,
                    predicted_anomaly=True,
                    actual_score=0.4375,
                    predicted_score=0.40625,
                ),
            ),
            n_dims=3,
        ),
    )
    confusion = ConfusionMatrix(
        true_positive=1, false_positive=0, false_negative=0, true_negative=0
    )
    return search, regions, prediction, confusion


def _writer(kind, root, barrier):
    study = _tiny_study()
    with make_store(kind, root) as store:
        barrier.wait(timeout=30)
        for _ in range(_WRITES_PER_PROCESS):
            store.save(KEY, *study)


@pytest.mark.parametrize("kind", STORE_KINDS)
def test_racing_writers_one_valid_payload_no_torn_reads(tmp_path, kind):
    search, regions, prediction, confusion = _tiny_study()
    # Reference payload: what any single writer would persist.
    with make_store(kind, tmp_path / "ref") as ref:
        ref.save(KEY, search, regions, prediction, confusion)
        expected = ref.load(KEY)
    assert expected is not None

    root = tmp_path / "race"
    ctx = multiprocessing.get_context()
    barrier = ctx.Barrier(3)
    writers = [
        ctx.Process(target=_writer, args=(kind, root, barrier))
        for _ in range(2)
    ]
    for proc in writers:
        proc.start()
    try:
        with make_store(kind, root) as reader:
            barrier.wait(timeout=30)
            observations = 0
            hits = 0
            while any(proc.is_alive() for proc in writers):
                loaded = reader.load(KEY)
                observations += 1
                if loaded is not None:
                    hits += 1
                    # A visible payload is always complete and valid.
                    assert loaded == expected
    finally:
        for proc in writers:
            proc.join(timeout=60)
    assert all(proc.exitcode == 0 for proc in writers)
    assert observations > 0

    # The settled store holds exactly one valid payload for the key.
    with make_store(kind, root) as store:
        assert store.load(KEY) == expected
        assert store.load(StudyKey("quick", 1, "aatb")) is None
    if kind == "json":
        # Atomic replace leaves no temp litter and exactly one file.
        files = sorted(p.name for p in root.iterdir())
        assert files == [f"study-v2-{KEY.slug}.json"]


@pytest.mark.parametrize("kind", STORE_KINDS)
def test_concurrent_runner_workers_share_one_key(tmp_path, kind):
    """Two processes race compute-and-store on the SAME study key."""
    from repro.figures.cache import JsonDirectoryStore
    from repro.runner.runner import run_study

    ctx = multiprocessing.get_context()
    procs = [
        ctx.Process(target=run_study, args=(KEY, kind, str(tmp_path)))
        for _ in range(2)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=120)
    assert all(proc.exitcode == 0 for proc in procs)
    with make_store(kind, tmp_path) as store:
        loaded = store.load(KEY)
    assert loaded is not None
    # The racing writers agree: the payload equals a fresh sequential
    # computation's payload byte-for-byte.
    solo = run_study(KEY, "json", str(tmp_path / "solo"))
    assert solo.status == "computed"
    solo_text = (
        JsonDirectoryStore(tmp_path / "solo").path_for(KEY).read_text()
    )
    if kind == "json":
        raced_text = JsonDirectoryStore(tmp_path).path_for(KEY).read_text()
    else:
        with make_store(kind, tmp_path) as store:
            raced_text = store.load_text(KEY)
    assert raced_text == solo_text
