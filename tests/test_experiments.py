"""Experiment pipelines on the simulated machine (fast smoke-level)."""

import pytest

from repro.analysis.confusion import confusion_from_prediction
from repro.analysis.selection import selection_quality
from repro.analysis.traces import trace_line
from repro.backends.simulated import SimulatedBackend
from repro.core.discriminants import MinFlopsDiscriminant
from repro.core.searchspace import Box, paper_box
from repro.experiments.prediction import predict_from_benchmarks
from repro.experiments.random_search import random_search
from repro.experiments.regions import explore_regions
from repro.expressions.registry import get_expression
from repro.machine.presets import paper_machine


@pytest.fixture(scope="module")
def backend():
    return SimulatedBackend(paper_machine(seed=0))


@pytest.fixture(scope="module")
def aatb():
    return get_expression("aatb")


def test_random_search_finds_aatb_anomalies(backend, aatb):
    result = random_search(
        backend,
        aatb,
        paper_box(3),
        threshold=0.10,
        target_anomalies=5,
        max_samples=600,
        seed=0,
    )
    assert len(result.anomalies) == 5
    assert 0 < result.abundance < 0.5
    for anomaly in result.anomalies:
        assert anomaly.verdict.time_score > 0.10


def test_regions_prediction_confusion_roundtrip(backend, aatb):
    box = paper_box(3)
    search = random_search(
        backend, aatb, box, threshold=0.10,
        target_anomalies=2, max_samples=600, seed=1,
    )
    regions = explore_regions(
        backend,
        aatb,
        [a.instance for a in search.anomalies],
        box,
        threshold=0.05,
        dims=(0,),
    )
    assert len(regions.regions) == 2
    assert regions.cells
    for region in regions.regions:
        assert 0 in region.extents
        assert region.extents[0].thickness >= 0
    prediction = predict_from_benchmarks(backend, aatb, regions)
    assert len(prediction.records) == len(regions.cells)
    matrix = confusion_from_prediction(prediction)
    assert matrix.total == len(regions.cells)
    assert matrix.actual_yes > 0


def test_trace_line_statuses_are_consistent(backend, aatb):
    box = paper_box(3)
    traces = trace_line(
        backend, aatb, (92, 1095, 323), 0, box, half_points=4,
        threshold=0.05,
    )
    assert len(traces.traces) == 5
    assert traces.anomalous_positions
    assert 92 in traces.positions
    for i, position in enumerate(traces.positions):
        statuses = [t.points[i].status for t in traces.traces]
        if position in traces.anomalous_positions:
            assert "both" not in statuses
        assert any(t.points[i].is_fastest for t in traces.traces)
        assert any(t.points[i].is_cheapest for t in traces.traces)


def test_search_validates_box_dimensionality(backend, aatb):
    with pytest.raises(ValueError):
        random_search(backend, aatb, Box((20,) * 5, (30,) * 5))


@pytest.mark.parametrize(
    "call",
    [
        lambda b, e: explore_regions(
            b, e, [(92, 1095, 323, 7)], paper_box(4)
        ),
        lambda b, e: explore_regions(b, e, [(92, 1095, 323)], paper_box(2)),
        lambda b, e: explore_regions(b, e, [(92, 1095)], paper_box(3)),
        lambda b, e: trace_line(b, e, (92, 1095, 323, 70), 0, paper_box(4)),
        lambda b, e: selection_quality(
            MinFlopsDiscriminant(), b, e, paper_box(4), n_instances=5
        ),
    ],
    ids=[
        "regions-4dim", "regions-2dim-box", "regions-2dim-origin",
        "trace-4dim", "selection-4dim",
    ],
)
def test_entry_points_refuse_mismatched_widths(backend, aatb, call):
    with pytest.raises(ValueError, match="aatb needs (a )?3-dim"):
        call(backend, aatb)
