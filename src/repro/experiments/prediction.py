"""Experiment 3: predicting anomalies from isolated kernel benchmarks.

For every cell the region traversal classified (ground truth), build
the same classification from *predicted* algorithm times — the sum of
each algorithm's isolated kernel benchmark times.  Agreement means an
anomaly could have been anticipated from one-off per-kernel data; the
disagreements measure what only inter-kernel (cache) effects explain.

All cells of all algorithms are predicted in one call of the
backend's ``predict_times_matrix`` — memo reads plus one machine call
for the misses on the simulated machine, and one benchmark per
distinct kernel call across all the plans on a real one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.backends.base import Backend
from repro.core.classify import classify_batch, evaluate_instances
from repro.experiments.regions import Regions
from repro.expressions.base import Expression


@dataclass(frozen=True)
class PredictionRecord:
    instance: Tuple[int, ...]
    actual_anomaly: bool
    predicted_anomaly: bool
    actual_score: float
    predicted_score: float


@dataclass(frozen=True)
class Prediction:
    expression: str
    threshold: float
    records: Tuple[PredictionRecord, ...]


def predict_from_benchmarks(
    backend: Backend,
    expression: Expression,
    regions: Regions,
) -> Prediction:
    if regions.expression != expression.name:
        raise ValueError(
            f"regions are for {regions.expression!r}, "
            f"not {expression.name!r}"
        )
    algorithms = expression.algorithms()
    if not regions.cells:
        return Prediction(
            expression=expression.name,
            threshold=regions.threshold,
            records=(),
        )
    predicted = evaluate_instances(
        backend,
        algorithms,
        [cell.instance for cell in regions.cells],
        predict=True,
    )
    verdicts = classify_batch(predicted, threshold=regions.threshold)
    return Prediction(
        expression=expression.name,
        threshold=regions.threshold,
        records=tuple(
            PredictionRecord(
                instance=cell.instance,
                actual_anomaly=cell.is_anomaly,
                predicted_anomaly=predicted_anomaly,
                actual_score=cell.time_score,
                predicted_score=predicted_score,
            )
            for cell, predicted_anomaly, predicted_score in zip(
                regions.cells,
                verdicts.is_anomaly.tolist(),
                verdicts.time_scores.tolist(),
            )
        ),
    )
