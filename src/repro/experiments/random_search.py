"""Experiment 1: random search for anomalous instances (paper §4.1).

Sample instances uniformly from the box, measure every equivalent
algorithm, classify, and collect anomalies until a target count or a
sample budget is reached.  Abundance is anomalies per sample drawn.

Sampling proceeds in batches: a chunk of instances is drawn (in the
same rng order a point-by-point loop would use), evaluated through the
backend's batch API in one call and classified as columns; only its
anomalous rows, in draw order, become :class:`Anomaly` records — so
results are identical for every ``batch_size``, including the scalar
loop ``batch_size=1``.  When a target anomaly count is hit mid-chunk
the scan stops exactly where the scalar loop would have, and the
surplus evaluations only warm the backend memo.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.backends.base import Backend
from repro.core.classify import Verdict, classify_batch, evaluate_instances
from repro.core.searchspace import Box, check_widths
from repro.expressions.base import Expression

#: Chunk size balancing vectorization width against overshoot past a
#: ``target_anomalies`` stop.
DEFAULT_BATCH_SIZE = 128


@dataclass(frozen=True)
class Anomaly:
    instance: Tuple[int, ...]
    verdict: Verdict


@dataclass(frozen=True)
class SearchResult:
    expression: str
    threshold: float
    anomalies: Tuple[Anomaly, ...]
    n_samples: int

    @property
    def abundance(self) -> float:
        """Fraction of sampled instances that are anomalous."""
        return len(self.anomalies) / self.n_samples if self.n_samples else 0.0

    @property
    def time_scores(self) -> Tuple[float, ...]:
        return tuple(a.verdict.time_score for a in self.anomalies)

    @property
    def flop_scores(self) -> Tuple[float, ...]:
        return tuple(a.verdict.flop_score for a in self.anomalies)


def random_search(
    backend: Backend,
    expression: Expression,
    box: Box,
    threshold: float = 0.10,
    target_anomalies: int | None = None,
    max_samples: int = 10_000,
    seed: int = 0,
    batch_size: int | None = None,
) -> SearchResult:
    check_widths(expression, box)
    if max_samples < 1:
        raise ValueError("max_samples must be positive")
    if batch_size is None:
        batch_size = DEFAULT_BATCH_SIZE
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    rng = random.Random(seed)
    algorithms = expression.algorithms()
    anomalies: List[Anomaly] = []
    n_samples = 0
    done = target_anomalies is not None and target_anomalies <= 0
    while not done and n_samples < max_samples:
        chunk = min(batch_size, max_samples - n_samples)
        instances = box.sample_many(rng, chunk)
        verdicts = classify_batch(
            evaluate_instances(backend, algorithms, instances),
            threshold=threshold,
        )
        for i in np.flatnonzero(verdicts.is_anomaly).tolist():
            anomalies.append(Anomaly(instances[i], verdicts[i]))
            if len(anomalies) == target_anomalies:
                # The scalar loop stops here: later rows are not samples.
                chunk, done = i + 1, True
                break
        n_samples += chunk
    return SearchResult(
        expression=expression.name,
        threshold=threshold,
        anomalies=tuple(anomalies),
        n_samples=n_samples,
    )
