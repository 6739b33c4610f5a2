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

The records are read-only columns (:class:`PredictionRecords`) that
share the cells' instance, flag and score columns and add the
predicted flags and scores, so they mirror the cells by construction;
``records[i]`` is one :class:`PredictionRecord`, built only when
indexed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.backends.base import Backend
from repro.core.classify import classify_batch, evaluate_instances
from repro.experiments.regions import Columns, RegionCells, Regions
from repro.expressions.base import Expression


@dataclass(frozen=True)
class PredictionRecord:
    instance: Tuple[int, ...]
    actual_anomaly: bool
    predicted_anomaly: bool
    actual_score: float
    predicted_score: float


@dataclass(frozen=True, eq=False)
class PredictionRecords(Columns):
    """The records as columns: ``instances`` ``(n, n_dims)`` int64,
    the flags ``(n,)`` bool and the scores ``(n,)`` float64."""

    ROW = PredictionRecord
    DTYPES = (np.int64, np.bool_, np.bool_, np.float64, np.float64)

    instances: np.ndarray
    actual_anomaly: np.ndarray
    predicted_anomaly: np.ndarray
    actual_scores: np.ndarray
    predicted_scores: np.ndarray

    @classmethod
    def for_cells(
        cls,
        cells: RegionCells,
        predicted_anomaly: np.ndarray,
        predicted_scores: np.ndarray,
    ) -> "PredictionRecords":
        """The records of ``cells``, sharing their columns."""
        return cls(
            instances=cells.instances,
            actual_anomaly=cells.is_anomaly,
            predicted_anomaly=predicted_anomaly,
            actual_scores=cells.time_scores,
            predicted_scores=predicted_scores,
        )


@dataclass(frozen=True)
class Prediction:
    expression: str
    threshold: float
    records: PredictionRecords


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
    cells = regions.cells
    if cells:
        verdicts = classify_batch(
            evaluate_instances(
                backend, expression.algorithms(), cells.instances, predict=True
            ),
            threshold=regions.threshold,
        )
        predicted, scores = verdicts.is_anomaly, verdicts.time_scores
    else:
        predicted, scores = np.zeros(0, dtype=np.bool_), np.zeros(0)
    return Prediction(
        expression=expression.name,
        threshold=regions.threshold,
        records=PredictionRecords.for_cells(cells, predicted, scores),
    )
