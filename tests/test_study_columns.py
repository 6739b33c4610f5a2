"""Study tables as columns: the codec, the row views and the consumers.

Region cells and prediction records travel as read-only columns from
the traversal to the store and back.  The per-row decode and the
per-row counting loops the columns replaced are kept here as oracles:
every row a column table builds on demand must equal the row the
per-row decode builds from the same payload, every refusal of the
column decode is a payload that decoded into a study before, and
every count must equal the loop's.
"""

import json
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from repro.ablation.components import DETECTORS
from repro.ablation.harness import _DetectionContext
from repro.analysis.confusion import ConfusionMatrix, confusion_from_prediction
from repro.backends.simulated import SimulatedBackend
from repro.core.discriminants import MinFlopsDiscriminant
from repro.core.searchspace import paper_box
from repro.experiments.prediction import (
    Prediction,
    PredictionRecord,
    PredictionRecords,
    predict_from_benchmarks,
)
from repro.experiments.random_search import SearchResult
from repro.experiments.regions import (
    RegionCell,
    RegionCells,
    Regions,
    explore_regions,
)
from repro.expressions.registry import get_expression
from repro.figures.cache import StudyKey, decode_study, encode_study
from repro.figures.common import FigureConfig, clear_study_cache, study_for
from repro.machine.presets import paper_machine

#: The registered families, named explicitly: the registry grows as
#: pattern families are first used in a process.
FAMILIES = ("aatb", "addchain3", "chain4", "gram3", "solve3", "sum3", "tri4")
CASES = FAMILIES + ("no-cells",)


def _no_cells_study():
    """A study whose search found no anomaly, so no region cells."""
    expression = get_expression("aatb")
    backend = SimulatedBackend(paper_machine(seed=0))
    regions = explore_regions(
        backend, expression, [], paper_box(3), threshold=0.05
    )
    prediction = predict_from_benchmarks(backend, expression, regions)
    search = SearchResult(
        expression="aatb", threshold=0.1, anomalies=(), n_samples=64
    )
    return (
        StudyKey("quick", 99, "aatb"),
        (search, regions, prediction, confusion_from_prediction(prediction)),
    )


@pytest.fixture(scope="module")
def studies():
    clear_study_cache()
    try:
        out = {}
        for name in FAMILIES:
            study = study_for(FigureConfig(scale="quick", seed=0), name)
            out[name] = (
                StudyKey("quick", 0, name),
                (study.search, study.regions, study.prediction,
                 study.confusion),
            )
        out["no-cells"] = _no_cells_study()
        yield out
    finally:
        clear_study_cache()


def _parts(decoded: dict) -> tuple:
    return tuple(
        decoded[name] for name in ("search", "regions", "prediction",
                                   "confusion")
    )


def _row_cells(payload: dict) -> tuple:
    """The per-row decode of the region cells (the oracle)."""
    return tuple(
        RegionCell(
            instance=tuple(int(v) for v in instance),
            time_score=float(time_score),
            is_anomaly=bool(is_anomaly),
        )
        for instance, time_score, is_anomaly in payload["regions"]["cells"]
    )


def _row_records(payload: dict) -> tuple:
    """The per-row decode of the prediction records (the oracle)."""
    return tuple(
        PredictionRecord(
            instance=tuple(int(v) for v in instance),
            actual_anomaly=bool(actual),
            predicted_anomaly=bool(predicted),
            actual_score=float(actual_score),
            predicted_score=float(predicted_score),
        )
        for instance, actual, predicted, actual_score, predicted_score
        in payload["prediction"]["records"]
    )


def test_the_registered_families_give_cells(studies):
    for name in FAMILIES:
        _, (_, regions, prediction, _) = studies[name]
        assert len(regions.cells) > 0
        assert len(prediction.records) == len(regions.cells)
    assert len(studies["no-cells"][1][1].cells) == 0


@pytest.mark.parametrize("name", CASES)
def test_round_trip_is_exact_both_ways(studies, name):
    key, study = studies[name]
    text = encode_study(key, *study)
    decoded = decode_study(text, key)
    assert decoded is not None
    assert encode_study(key, *_parts(decoded)) == text
    assert _parts(decoded) == study


@pytest.mark.parametrize("name", CASES)
def test_row_views_equal_the_per_row_decode(studies, name):
    key, study = studies[name]
    text = encode_study(key, *study)
    payload = json.loads(text)
    cell_rows, record_rows = _row_cells(payload), _row_records(payload)
    decoded = decode_study(text, key)
    for regions, prediction in (
        (study[1], study[2]),
        (decoded["regions"], decoded["prediction"]),
    ):
        cells, records = regions.cells, prediction.records
        assert len(cells) == len(cell_rows)
        assert len(records) == len(record_rows)
        assert [cells[i] for i in range(len(cells))] == list(cell_rows)
        assert [records[i] for i in range(len(records))] == list(record_rows)
        assert tuple(cells) == cell_rows
        assert tuple(records) == record_rows
        if cell_rows:
            assert cells[-1] == cell_rows[-1]
            assert records[-1] == record_rows[-1]
        with pytest.raises(IndexError):
            cells[len(cells)]
        # Rows hold plain Python values, as the per-row decode's do.
        for cell in cells:
            assert {type(v) for v in cell.instance} == {int}
            assert type(cell.time_score) is float
            assert type(cell.is_anomaly) is bool
        for record in records:
            assert {type(v) for v in record.instance} == {int}
            assert type(record.actual_anomaly) is bool
            assert type(record.predicted_anomaly) is bool
            assert type(record.actual_score) is float
            assert type(record.predicted_score) is float


@pytest.mark.parametrize("name", CASES)
def test_columns_are_read_only_and_records_share_the_cells(studies, name):
    key, study = studies[name]
    decoded = decode_study(encode_study(key, *study), key)
    for regions, prediction in (
        (study[1], study[2]),
        (decoded["regions"], decoded["prediction"]),
    ):
        cells, records = regions.cells, prediction.records
        n_dims = regions.n_dims
        assert cells.instances.shape == (len(cells), n_dims)
        assert cells.instances.dtype == np.int64
        for table in (cells, records):
            for column in table.columns():
                with pytest.raises(ValueError):
                    column[...] = 0
                with pytest.raises(ValueError):
                    column += 1
            with pytest.raises(FrozenInstanceError):
                table.instances = table.instances.copy()
        assert records.instances is cells.instances
        assert records.actual_anomaly is cells.is_anomaly
        assert records.actual_scores is cells.time_scores


def test_columns_compare_dtypes_shapes_and_values_exactly():
    rows = (
        RegionCell(instance=(20, 30, 40), time_score=0.25, is_anomaly=True),
        RegionCell(instance=(21, 30, 40), time_score=0.0, is_anomaly=False),
    )
    cells = RegionCells.from_rows(rows, n_dims=3)
    assert cells == RegionCells.from_rows(rows, n_dims=3)
    assert cells != RegionCells.from_rows(rows[:1], n_dims=3)
    assert cells != RegionCells.from_rows(rows[::-1], n_dims=3)
    assert RegionCells.from_rows((), n_dims=3) != RegionCells.from_rows(
        (), n_dims=2
    )
    with pytest.raises(ValueError):
        RegionCells(
            cells.instances.astype(np.int32), cells.time_scores,
            cells.is_anomaly,
        )
    with pytest.raises(ValueError):
        RegionCells(cells.instances, cells.time_scores[:1], cells.is_anomaly)
    with pytest.raises(TypeError):
        hash(cells)


# ----------------------------------------------------------------------
# The decode refuses what it cannot decode exactly
# ----------------------------------------------------------------------

KEY = StudyKey("quick", 0, "aatb")

#: The row each mutation edits.
ROW = 1

TABLES = {"cell": ("regions", "cells"), "record": ("prediction", "records")}


def _edit(table, field, change):
    """A mutation setting ``field`` of row ``ROW`` of ``table`` to
    ``change(old value)``."""

    def mutate(payload):
        section, rows = TABLES[table]
        row = payload[section][rows][ROW]
        row[field] = change(row[field])

    return mutate


def _dim(change):
    """A change of an instance's second dim."""
    return lambda instance: [instance[0], change(instance[1])] + instance[2:]


def _rows(table, change):
    """A mutation applying ``change`` to ``table``'s list of rows."""

    def mutate(payload):
        section, rows = TABLES[table]
        change(payload[section][rows])

    return mutate


def _swap(rows):
    rows[ROW], rows[ROW + 1] = rows[ROW + 1], rows[ROW]


def _widths_2_and_4(rows):
    """One dim moved from an instance to the next: as many dims in all."""
    first, second = rows[ROW][0], rows[ROW + 1][0]
    rows[ROW][0], rows[ROW + 1][0] = first[:2], [first[2]] + second


#: Mutations of a valid payload, one field each but for the moved dim
#: and the swapped records.  The per-row decode turned each into a
#: study, except the last four: rows of the wrong field count or type.
MUTATIONS = {
    "cell-instance-width-2": _edit("cell", 0, lambda v: v[:2]),
    "cell-instance-width-4": _edit("cell", 0, lambda v: v + [7]),
    "cell-instance-widths-2-and-4": _rows("cell", _widths_2_and_4),
    "record-instance-width-2": _edit("record", 0, lambda v: v[:2]),
    "record-instance-width-4": _edit("record", 0, lambda v: v + [7]),
    "cell-dim-string": _edit("cell", 0, _dim(str)),
    "cell-dim-float": _edit("cell", 0, _dim(lambda d: d + 0.9)),
    "cell-dim-integral-float": _edit("cell", 0, _dim(float)),
    "cell-dim-bool": _edit("cell", 0, lambda v: [True] + v[1:]),
    "cell-dim-past-int64": _edit("cell", 0, _dim(lambda d: 2**63 + d)),
    "record-dim-string": _edit("record", 0, _dim(str)),
    "record-dim-float": _edit("record", 0, _dim(lambda d: d + 0.9)),
    "record-dim-integral-float": _edit("record", 0, _dim(float)),
    "record-dim-changed": _edit("record", 0, _dim(lambda d: d + 1)),
    "cell-score-string": _edit("cell", 1, str),
    "cell-score-int": _edit("cell", 1, int),
    "record-actual-score-string": _edit("record", 3, str),
    "record-actual-score-changed": _edit("record", 3, lambda s: s + 1.0),
    "record-predicted-score-string": _edit("record", 4, str),
    "cell-flag-string": _edit("cell", 2, lambda flag: "no"),
    "cell-flag-int": _edit("cell", 2, int),
    "record-actual-flag-string": _edit("record", 1, lambda flag: "no"),
    "record-actual-flag-flipped": _edit("record", 1, lambda flag: not flag),
    "record-predicted-flag-string": _edit("record", 2, lambda flag: "no"),
    "record-dropped": _rows("record", list.pop),
    "records-swapped": _rows("record", _swap),
    "cell-row-4-fields": _rows("cell", lambda rows: rows[ROW].append(1)),
    "cell-row-2-fields": _rows("cell", lambda rows: rows[ROW].pop()),
    "record-row-6-fields": _rows("record", lambda rows: rows[ROW].append(1)),
    "cell-row-an-object": _rows(
        "cell", lambda rows: rows.__setitem__(ROW, {"a": 1, "b": 2, "c": 3})
    ),
}


@pytest.fixture(scope="module")
def aatb_text():
    clear_study_cache()
    try:
        study = study_for(FigureConfig(scale="quick", seed=0), "aatb")
        return encode_study(
            KEY, study.search, study.regions, study.prediction,
            study.confusion,
        )
    finally:
        clear_study_cache()


def test_the_unmutated_payload_decodes_and_re_encodes(aatb_text):
    decoded = decode_study(aatb_text, KEY)
    assert decoded is not None
    assert encode_study(KEY, *_parts(decoded)) == aatb_text
    # The reload path of the stores decodes the same study.
    assert decode_study(json.dumps(
        json.loads(aatb_text), separators=(",", ":")
    ), KEY) is not None


@pytest.mark.parametrize(
    "mutate", MUTATIONS.values(), ids=MUTATIONS.keys()
)
def test_decode_refuses_each_mutation(aatb_text, mutate):
    payload = json.loads(aatb_text)
    mutate(payload)
    text = json.dumps(payload, separators=(",", ":"))
    assert text != aatb_text
    assert decode_study(text, KEY) is None


# ----------------------------------------------------------------------
# Consumers count on columns what the per-row loops counted
# ----------------------------------------------------------------------


def _loop_confusion(pairs) -> ConfusionMatrix:
    """The per-row count the boolean reductions replaced."""
    tp = fp = fn = tn = 0
    for actual, predicted in pairs:
        if actual and predicted:
            tp += 1
        elif actual:
            fn += 1
        elif predicted:
            fp += 1
        else:
            tn += 1
    return ConfusionMatrix(
        true_positive=tp,
        false_positive=fp,
        false_negative=fn,
        true_negative=tn,
    )


#: (rows, share of actual anomalies, seed) of each seeded column set.
FLAG_CASES = {
    "zero-rows": (0, 0.3, 0),
    "one-row": (1, 0.5, 1),
    "seeded": (257, 0.3, 2),
    "all-anomalous": (64, 1.0, 3),
    "none-anomalous": (64, 0.0, 4),
}


def _seeded_cells(n: int, anomalous: float, seed: int) -> RegionCells:
    rng = np.random.default_rng(seed)
    return RegionCells(
        instances=rng.integers(20, 1201, size=(n, 3)),
        time_scores=rng.random(n),
        is_anomaly=rng.random(n) < anomalous,
    )


def _int_counts(matrix: ConfusionMatrix) -> bool:
    return {
        type(value) for value in (
            matrix.true_positive, matrix.false_positive,
            matrix.false_negative, matrix.true_negative,
        )
    } == {int}


@pytest.mark.parametrize(
    "n,anomalous,seed", FLAG_CASES.values(), ids=FLAG_CASES.keys()
)
def test_confusion_from_prediction_matches_the_row_loop(n, anomalous, seed):
    cells = _seeded_cells(n, anomalous, seed)
    rng = np.random.default_rng(seed + 100)
    prediction = Prediction(
        expression="aatb",
        threshold=0.05,
        records=PredictionRecords.for_cells(
            cells, rng.random(n) < 0.4, rng.random(n)
        ),
    )
    matrix = confusion_from_prediction(prediction)
    assert matrix == _loop_confusion(
        (record.actual_anomaly, record.predicted_anomaly)
        for record in prediction.records
    )
    assert matrix.total == n
    assert _int_counts(matrix)


@pytest.fixture(scope="module")
def detection():
    return _DetectionContext(FigureConfig(scale="quick", seed=0))


def _loop_detect(context, expression_name, cells, enabled):
    """The harness's per-row detection: list flags, counted row by row."""
    if not cells:
        return ConfusionMatrix(0, 0, 0, 0)
    algorithms = context.expression(expression_name).algorithms()
    instances = [cell.instance for cell in cells]
    base_picks = MinFlopsDiscriminant().select_batch(algorithms, instances)
    flagged = [False] * len(cells)
    for name in enabled:
        picks = context.detector(name).select_batch(algorithms, instances)
        flagged = [
            flag or pick != base
            for flag, pick, base in zip(flagged, picks, base_picks)
        ]
    return _loop_confusion(
        zip((cell.is_anomaly for cell in cells), flagged)
    )


ENSEMBLES = {
    "all": DETECTORS,
    "benchmark-sum": ("benchmark-sum",),
    "none": (),
}


@pytest.mark.parametrize("enabled", ENSEMBLES.values(), ids=ENSEMBLES.keys())
@pytest.mark.parametrize(
    "n,anomalous,seed", FLAG_CASES.values(), ids=FLAG_CASES.keys()
)
def test_detection_counts_match_the_row_loop(
    detection, n, anomalous, seed, enabled
):
    cells = _seeded_cells(n, anomalous, seed)
    regions = Regions(
        expression="aatb", threshold=0.05, n_dims=3, regions=(), cells=cells
    )
    matrix = detection.detect("aatb", regions, enabled)
    assert matrix == _loop_detect(detection, "aatb", cells, enabled)
    assert matrix.total == n
    assert _int_counts(matrix)


def test_detection_counts_on_a_study_match_the_row_loop(detection, studies):
    _, (_, regions, _, _) = studies["aatb"]
    matrix = detection.detect("aatb", regions, DETECTORS)
    assert matrix == _loop_detect(detection, "aatb", regions.cells, DETECTORS)
    assert matrix.true_positive + matrix.false_positive > 0
