"""Per-algorithm efficiency traces along a line (Figures 8 and 11).

A line pierces an anomalous region along one dimension.  At each
position every algorithm is measured; each trace point records the
algorithm's *total efficiency* (its FLOPs over time x machine peak —
in [0, 1] by construction) and whether it is FLOP-cheapest and/or
measured-fastest there.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import FrozenSet, Optional, Sequence, Tuple

from repro.backends.base import Backend
from repro.core.classify import classify_batch, evaluate_instances
from repro.core.searchspace import Box, check_widths
from repro.expressions.base import Expression


@dataclass(frozen=True)
class TracePoint:
    position: int
    total_efficiency: float
    seconds: float
    flops: int
    is_cheapest: bool
    is_fastest: bool

    @property
    def status(self) -> str:
        if self.is_cheapest and self.is_fastest:
            return "both"
        if self.is_cheapest:
            return "cheapest"
        if self.is_fastest:
            return "fastest"
        return ""


@dataclass(frozen=True)
class AlgorithmTrace:
    algorithm_name: str
    points: Tuple[TracePoint, ...]


@dataclass(frozen=True)
class LineTraces:
    expression: str
    origin: Tuple[int, ...]
    dim: int
    threshold: float
    positions: Tuple[int, ...]
    anomalous_positions: FrozenSet[int]
    traces: Tuple[AlgorithmTrace, ...]


def trace_line(
    backend: Backend,
    expression: Expression,
    origin: Sequence[int],
    dim: int,
    box: Box,
    half_points: int = 12,
    threshold: float = 0.05,
    step: Optional[int] = None,
) -> LineTraces:
    """Trace all algorithms along ``dim`` through ``origin``."""
    origin = tuple(int(v) for v in origin)
    check_widths(expression, box, (origin,))
    if not 0 <= dim < expression.n_dims:
        raise ValueError(f"dim {dim} out of range")
    if not box.contains(origin):
        raise ValueError(f"origin {origin} outside box")
    if step is None:
        step = max(4, box.span(dim) // (2 * half_points))
    positions = sorted(
        {
            min(max(origin[dim] + k * step, box.lows[dim]), box.highs[dim])
            for k in range(-half_points, half_points + 1)
        }
    )
    algorithms = expression.algorithms()
    instances = [
        tuple(position if i == dim else v for i, v in enumerate(origin))
        for position in positions
    ]
    batch = evaluate_instances(backend, algorithms, instances)
    verdicts = classify_batch(batch, threshold=threshold)
    peak = backend.peak_flops
    traces = []
    for i, algorithm in enumerate(algorithms):
        points = (
            TracePoint(
                position=position,
                total_efficiency=flops / (seconds * peak),
                seconds=seconds,
                flops=flops,
                is_cheapest=is_cheapest,
                is_fastest=is_fastest,
            )
            for position, seconds, flops, is_cheapest, is_fastest in zip(
                positions,
                batch.seconds[:, i].tolist(),
                batch.flops[:, i].tolist(),
                verdicts.cheapest[:, i].tolist(),
                verdicts.fastest[:, i].tolist(),
            )
        )
        traces.append(
            AlgorithmTrace(algorithm_name=algorithm.name, points=tuple(points))
        )
    return LineTraces(
        expression=expression.name,
        origin=origin,
        dim=dim,
        threshold=threshold,
        positions=tuple(positions),
        anomalous_positions=frozenset(
            compress(positions, verdicts.is_anomaly.tolist())
        ),
        traces=tuple(traces),
    )
