"""Experiment 2: mapping anomalous regions (paper §4.2, §3.4).

From each anomaly found by Experiment 1, traverse every requested
dimension in both directions, classifying as we go.  The paper's
hole-tolerance rule (§3.4.2) keeps walking through up to
``hole_tolerance`` consecutive non-anomalous samples so measurement
noise near the 5% threshold does not truncate a region.

Each directed walk is a *ray* — an int64 array of the step positions
from the origin toward the box face — evaluated in batched rounds:
every round stacks the next ``RAY_CHUNK`` steps of every still-live
ray into one instance matrix (the origin tiled, the walked column
set) and sends it through the backend as one call.  Each ray scans
its chunk's anomaly column in step order and keeps the verdicts up to
exactly the step where the step-by-step loop would have stopped; the
positions past the stop were still evaluated (they warm the backend's
memo) but are not recorded as cells, so the result is identical to
the scalar traversal.

The traversal yields, per region and dimension, the *extent* (the
interval between extreme anomalous positions — its length is the
"thickness" plotted in Figures 7/10) and the set of all evaluated
*cells*, which Experiment 3 reuses as labelled ground truth.  The
origin's verdict is recorded exactly once per region, and cells are
deduplicated by instance: overlapping walks (rays from nearby origins,
or a repeated origin) contribute one cell per distinct instance, the
first time it is visited.

The cells are held as read-only columns (:class:`RegionCells`: the
instances, time scores and anomaly flags), built once when the
traversal ends; ``cells[i]`` is one :class:`RegionCell`, built only
when indexed.  Experiment 3, the confusion counts and the study store
read the columns.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.backends.base import Backend
from repro.core.classify import classify_batch, evaluate_instances
from repro.core.searchspace import Box, check_widths
from repro.expressions.base import Expression

DEFAULT_STEP = 16
DEFAULT_HOLE_TOLERANCE = 2

#: Steps of each ray evaluated per batching round.  Rays stop early
#: (hole rule), so evaluating whole rays at once would waste most of
#: the batch on positions past the stop; chunking bounds the overshoot
#: per ray while every round still batches across *all* live rays.
RAY_CHUNK = 24


@dataclass(frozen=True)
class RegionCell:
    """One classified sample produced during region traversal."""

    instance: Tuple[int, ...]
    time_score: float
    is_anomaly: bool


class Columns:
    """Rows of ``ROW`` held as read-only NumPy columns.

    A subclass is a frozen dataclass with one field per field of
    ``ROW``, in the same order, and the columns' dtypes in ``DTYPES``.
    The first column, ``instances``, is ``(n, n_dims)``; every other
    column is ``(n,)``.  Construction checks the dtypes and shapes and
    makes every column read-only.  ``self[i]`` builds row ``i`` as a
    ``ROW``; ``==`` holds when every column has the same shape and
    values (the dtypes are fixed).
    """

    ROW: type
    DTYPES: Tuple[type, ...]

    def columns(self) -> Tuple[np.ndarray, ...]:
        """The columns, in the order of ``ROW``'s fields."""
        return tuple(getattr(self, field.name) for field in fields(self))

    def __post_init__(self) -> None:
        n = len(self.instances)
        for index, (column, dtype) in enumerate(
            zip(self.columns(), self.DTYPES)
        ):
            if column.dtype != dtype or column.shape[:1] != (n,) or (
                column.ndim != (2 if index == 0 else 1)
            ):
                raise ValueError(
                    f"column {index} of {type(self).__name__} is "
                    f"{column.dtype} {column.shape}"
                )
            column.flags.writeable = False

    def __len__(self) -> int:
        return len(self.instances)

    def __getitem__(self, i: int):
        instance, *values = (column[i].tolist() for column in self.columns())
        return self.ROW(tuple(instance), *values)

    def __iter__(self) -> Iterator:
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(map(np.array_equal, self.columns(), other.columns()))

    @classmethod
    def from_rows(cls, rows: Iterable, n_dims: int):
        """Columns holding ``rows``, whose instances are ``n_dims`` wide."""
        rows = list(rows)
        instances, *values = (
            np.array([getattr(row, field.name) for row in rows], dtype=dtype)
            for field, dtype in zip(fields(cls.ROW), cls.DTYPES)
        )
        return cls(instances.reshape(-1, n_dims), *values)


@dataclass(frozen=True, eq=False)
class RegionCells(Columns):
    """The cells of a traversal as columns: ``instances`` ``(n, n_dims)``
    int64, ``time_scores`` ``(n,)`` float64 and ``is_anomaly`` ``(n,)``
    bool."""

    ROW = RegionCell
    DTYPES = (np.int64, np.float64, np.bool_)

    instances: np.ndarray
    time_scores: np.ndarray
    is_anomaly: np.ndarray


@dataclass(frozen=True)
class DimExtent:
    """Anomalous extent of one region along one dimension."""

    dim: int
    lo: int
    hi: int

    @property
    def thickness(self) -> int:
        return self.hi - self.lo


@dataclass(frozen=True)
class Region:
    origin: Tuple[int, ...]
    extents: Dict[int, DimExtent]

    def thickness(self, dim: int) -> int:
        extent = self.extents.get(dim)
        return extent.thickness if extent else 0

    def widest_dim(self) -> int:
        return max(self.extents, key=lambda d: self.extents[d].thickness)


@dataclass(frozen=True)
class Regions:
    expression: str
    threshold: float
    n_dims: int
    regions: Tuple[Region, ...]
    cells: RegionCells

    def thicknesses(self, dim: int) -> List[int]:
        return [r.thickness(dim) for r in self.regions if dim in r.extents]


class _CellRecorder:
    """Order-preserving cell collector, deduplicated by instance."""

    def __init__(self) -> None:
        #: ``(time_score, is_anomaly)`` by instance, in first-visit order.
        self._verdicts: Dict[Tuple[int, ...], Tuple[float, bool]] = {}

    def record(
        self, instance: Tuple[int, ...], is_anomaly: bool, time_score: float
    ) -> None:
        self._verdicts.setdefault(instance, (time_score, is_anomaly))

    def cells(self, n_dims: int) -> RegionCells:
        """The recorded cells, as columns built once."""
        verdicts = self._verdicts.values()
        return RegionCells(
            instances=np.array(list(self._verdicts), dtype=np.int64).reshape(
                -1, n_dims
            ),
            time_scores=np.array(
                [score for score, _ in verdicts], dtype=np.float64
            ),
            is_anomaly=np.array(
                [flag for _, flag in verdicts], dtype=np.bool_
            ),
        )


class _Ray:
    """One directed walk: step positions out to the box face, evaluated
    chunk by chunk until the hole rule stops it."""

    def __init__(
        self, origin: Tuple[int, ...], dim: int, box: Box, step: int,
        direction: int, hole_tolerance: int,
    ) -> None:
        self.origin = origin
        self.dim = dim
        self.hole_tolerance = hole_tolerance
        # The walk ends at the first position outside the box, so a
        # first step outside it walks nothing.
        first = origin[dim] + direction * step
        face = box.highs[dim] if direction > 0 else box.lows[dim]
        inside = box.lows[dim] <= first <= box.highs[dim]
        count = (face - origin[dim]) * direction // step if inside else 0
        self.positions = first + direction * step * np.arange(
            count, dtype=np.int64
        )
        self.evaluated = 0
        #: ``(is_anomaly, time_score)`` of each walked step, up to the
        #: step where the hole tolerance is exceeded.
        self.verdicts: List[Tuple[bool, float]] = []
        self._holes = 0
        self._stopped = False

    @property
    def live(self) -> bool:
        return not self._stopped and self.evaluated < len(self.positions)

    def next_chunk(self) -> np.ndarray:
        """The ``(m, n_dims)`` instances of the next unevaluated chunk."""
        walked = self.positions[self.evaluated:self.evaluated + RAY_CHUNK]
        self.evaluated += len(walked)
        chunk = np.tile(
            np.asarray(self.origin, dtype=np.int64), (len(walked), 1)
        )
        chunk[:, self.dim] = walked
        return chunk

    def absorb(self, verdicts: List[Tuple[bool, float]]) -> None:
        """Keep one chunk's verdicts up to the step where the hole
        tolerance is exceeded, where a step-by-step walk stops."""
        for index, (is_anomaly, _) in enumerate(verdicts):
            self._holes = 0 if is_anomaly else self._holes + 1
            if self._holes > self.hole_tolerance:
                verdicts = verdicts[:index + 1]
                self._stopped = True
                break
        self.verdicts += verdicts

    def resolve(self, recorder: _CellRecorder) -> int:
        """Record the kept steps as cells, in step order; return the
        extreme anomalous position (the origin's if there is none)."""
        head, tail = self.origin[:self.dim], self.origin[self.dim + 1:]
        extreme = self.origin[self.dim]
        for position, (is_anomaly, score) in zip(
            self.positions.tolist(), self.verdicts
        ):
            recorder.record(head + (position,) + tail, is_anomaly, score)
            if is_anomaly:
                extreme = position
        return extreme


def explore_regions(
    backend: Backend,
    expression: Expression,
    origins: Sequence[Sequence[int]],
    box: Box,
    threshold: float = 0.05,
    dims: Optional[Sequence[int]] = None,
    step: int = DEFAULT_STEP,
    hole_tolerance: int = DEFAULT_HOLE_TOLERANCE,
) -> Regions:
    normalized = [tuple(int(v) for v in origin) for origin in origins]
    check_widths(expression, box, normalized)
    if step < 1:
        raise ValueError("step must be positive")
    traversal_dims = tuple(dims) if dims is not None else tuple(
        range(expression.n_dims)
    )
    for dim in traversal_dims:
        if not 0 <= dim < expression.n_dims:
            raise ValueError(f"dim {dim} out of range")
    algorithms = expression.algorithms()
    recorder = _CellRecorder()
    origin_verdicts: List[Tuple[bool, float]] = []
    if normalized:
        verdicts = classify_batch(
            evaluate_instances(backend, algorithms, normalized),
            threshold=threshold,
        )
        origin_verdicts = list(
            zip(verdicts.is_anomaly.tolist(), verdicts.time_scores.tolist())
        )
    # Trace every walk of every anomalous region, then evaluate the
    # rays in rounds: each round batches the next RAY_CHUNK steps of
    # every still-live ray through the backend in one call, and the
    # per-ray hole rule decides which rays continue.  The backend memo
    # and stateless noise make the grouping invisible in the results —
    # only in the wall time.
    rays: Dict[Tuple[int, int, int], _Ray] = {}
    for region_index, (origin, (is_anomaly, _)) in enumerate(
        zip(normalized, origin_verdicts)
    ):
        if is_anomaly:
            for dim in traversal_dims:
                for direction in (-1, +1):
                    rays[(region_index, dim, direction)] = _Ray(
                        origin, dim, box, step, direction, hole_tolerance
                    )
    while True:
        live = [ray for ray in rays.values() if ray.live]
        if not live:
            break
        chunks = [ray.next_chunk() for ray in live]
        verdicts = classify_batch(
            evaluate_instances(backend, algorithms, np.concatenate(chunks)),
            threshold=threshold,
        )
        pairs = list(
            zip(verdicts.is_anomaly.tolist(), verdicts.time_scores.tolist())
        )
        offset = 0
        for ray, chunk in zip(live, chunks):
            ray.absorb(pairs[offset:offset + len(chunk)])
            offset += len(chunk)
    regions: List[Region] = []
    for region_index, (origin, (is_anomaly, score)) in enumerate(
        zip(normalized, origin_verdicts)
    ):
        recorder.record(origin, is_anomaly, score)
        extents: Dict[int, DimExtent] = {}
        if is_anomaly:
            for dim in traversal_dims:
                lo = rays[(region_index, dim, -1)].resolve(recorder)
                hi = rays[(region_index, dim, +1)].resolve(recorder)
                extents[dim] = DimExtent(dim=dim, lo=lo, hi=hi)
        regions.append(Region(origin=origin, extents=extents))
    return Regions(
        expression=expression.name,
        threshold=threshold,
        n_dims=expression.n_dims,
        regions=tuple(regions),
        cells=recorder.cells(expression.n_dims),
    )
