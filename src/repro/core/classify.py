"""Instance evaluation and the paper's §3.3 anomaly classification.

For one instance, every equivalent algorithm is measured; then:

* the **cheapest** set holds the algorithms of minimum FLOP count;
* the **fastest** set holds the algorithms of minimum measured time;
* the **time score** is the fraction of time saved by the overall
  fastest relative to the best (fastest) minimum-FLOP algorithm,
  ``1 - t_min / t_best_cheapest``;
* the **FLOP score** is the fraction of extra FLOPs the fastest
  algorithm spends, ``1 - f_min / f_fastest`` (in ``[0, 1)``).

An instance is an **anomaly** at threshold θ when the time score
exceeds θ — picking by FLOPs forfeits more than θ of the attainable
performance.  The paper uses θ = 10% in Experiment 1 and 5% in
Experiments 2–3.

The batch entry points (:func:`evaluate_instances` /
:func:`classify_batch`) evaluate whole instance sets at once through
the backends' batch API and apply the rule above with row-wise array
arithmetic.  Every operation is either exact (integer mins, masked
selections, comparisons of values below 2**53) or the elementwise
float64 op the scalar path performs, so a batched verdict equals the
scalar verdict bit for bit.  Batch verdicts stay columns
(:class:`BatchVerdicts`): a row becomes a :class:`Verdict` only when
indexed, so callers reading columns never build one.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.backends.base import Backend
from repro.expressions.base import Algorithm
from repro.expressions.shapes import dim_symbol
from repro.kernels.flops import kernel_flops_batch

#: Relative tolerance when intersecting "minimum" sets: measured times
#: are floats, FLOP counts exact ints; both use the same rule.
_REL_TOL = 1e-9

#: FLOP counts below this are exact in :func:`batch_flops`' int64
#: columns and in every float64 quantity derived from them.
EXACT_FLOPS_LIMIT = 2**53

#: Most stacked call-slot rows one kernel's evaluation holds, for FLOP
#: counts and profile interpolations alike: a request's slots share one
#: call per kernel, while a wide offline batch splits into bounded ones.
_STACKED_ROWS = 32768

#: :class:`CallSlots` of algorithm tuples, keyed by the algorithms' ids:
#: one entry per tuple a process evaluates (an expression's
#: ``algorithms()``), each pinning its algorithms.
_SLOTS: dict = {}


@dataclass(frozen=True)
class Evaluation:
    """All algorithms of one expression measured at one instance."""

    instance: Tuple[int, ...]
    algorithm_names: Tuple[str, ...]
    flops: Tuple[int, ...]
    seconds: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not (
            len(self.algorithm_names) == len(self.flops) == len(self.seconds)
        ):
            raise ValueError("ragged evaluation")
        if not self.algorithm_names:
            raise ValueError("evaluation needs at least one algorithm")

    def cheapest_indices(self) -> List[int]:
        fmin = min(self.flops)
        return [
            i for i, f in enumerate(self.flops) if f <= fmin * (1 + _REL_TOL)
        ]

    def fastest_indices(self) -> List[int]:
        tmin = min(self.seconds)
        return [
            i for i, t in enumerate(self.seconds) if t <= tmin * (1 + _REL_TOL)
        ]


@dataclass(frozen=True)
class Verdict:
    """The §3.3 classification of one evaluated instance."""

    is_anomaly: bool
    time_score: float
    flop_score: float
    threshold: float
    cheapest: Tuple[str, ...]
    fastest: Tuple[str, ...]


@dataclass(frozen=True, eq=False)
class BatchVerdicts:
    """The §3.3 classification of every row of a batch, as columns.

    ``is_anomaly``, ``time_scores`` and ``flop_scores`` have shape
    ``(n,)``; ``cheapest`` and ``fastest`` are ``(n, A)`` bool masks
    over ``algorithm_names``.  ``self[i]`` is row ``i`` as the scalar
    :class:`Verdict`, built on demand.
    """

    is_anomaly: np.ndarray
    time_scores: np.ndarray
    flop_scores: np.ndarray
    cheapest: np.ndarray
    fastest: np.ndarray
    algorithm_names: Tuple[str, ...]
    threshold: float

    def __len__(self) -> int:
        return self.is_anomaly.shape[0]

    def __getitem__(self, i: int) -> Verdict:
        names = self.algorithm_names
        return Verdict(
            is_anomaly=bool(self.is_anomaly[i]),
            time_score=float(self.time_scores[i]),
            flop_score=float(self.flop_scores[i]),
            threshold=self.threshold,
            cheapest=tuple(names[j] for j in np.flatnonzero(self.cheapest[i])),
            fastest=tuple(names[j] for j in np.flatnonzero(self.fastest[i])),
        )


def evaluate_instance(
    backend: Backend,
    algorithms: Sequence[Algorithm],
    instance: Sequence[int],
) -> Evaluation:
    """Measure every algorithm at one instance on the given backend."""
    instance = tuple(int(d) for d in instance)
    return Evaluation(
        instance=instance,
        algorithm_names=tuple(a.name for a in algorithms),
        flops=tuple(int(a.flops(instance)) for a in algorithms),
        seconds=tuple(
            float(backend.time_algorithm(a, instance)) for a in algorithms
        ),
    )


def classify(evaluation: Evaluation, threshold: float = 0.10) -> Verdict:
    """Apply the paper's anomaly rule to an evaluation."""
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    cheapest = evaluation.cheapest_indices()
    fastest = evaluation.fastest_indices()
    t_min = min(evaluation.seconds)
    t_best_cheapest = min(evaluation.seconds[i] for i in cheapest)
    time_score = 1.0 - t_min / t_best_cheapest
    f_min = min(evaluation.flops)
    f_fastest = min(evaluation.flops[i] for i in fastest)
    flop_score = 1.0 - f_min / f_fastest if f_fastest else 0.0
    return Verdict(
        is_anomaly=time_score > threshold,
        time_score=time_score,
        flop_score=flop_score,
        threshold=threshold,
        cheapest=tuple(evaluation.algorithm_names[i] for i in cheapest),
        fastest=tuple(evaluation.algorithm_names[i] for i in fastest),
    )


@dataclass(frozen=True)
class BatchEvaluation:
    """All algorithms of one expression measured at many instances.

    ``instances`` is ``(n, n_dims)`` int64, ``flops`` is ``(n, A)``
    int64 and ``seconds`` is ``(n, A)`` float64, with one column per
    algorithm.  Row ``i`` carries exactly the data of the scalar
    :class:`Evaluation` of instance ``i`` (see :meth:`evaluation`).
    """

    instances: np.ndarray
    algorithm_names: Tuple[str, ...]
    flops: np.ndarray
    seconds: np.ndarray

    def __post_init__(self) -> None:
        n, a = self.seconds.shape
        if self.flops.shape != (n, a) or self.instances.shape[0] != n:
            raise ValueError("ragged batch evaluation")
        if len(self.algorithm_names) != a or a == 0:
            raise ValueError("batch evaluation needs at least one algorithm")

    def __len__(self) -> int:
        return self.instances.shape[0]

    def evaluation(self, i: int) -> Evaluation:
        """Row ``i`` as a scalar :class:`Evaluation`."""
        return Evaluation(
            instance=tuple(int(v) for v in self.instances[i]),
            algorithm_names=self.algorithm_names,
            flops=tuple(int(f) for f in self.flops[i]),
            seconds=tuple(float(s) for s in self.seconds[i]),
        )


class CallSlots:
    """The algorithms' steps interned into call slots.

    A slot is one distinct ``(kernel, instance columns)`` call, shared
    by every plan step that makes it.  ``kernels``: per kernel, its
    slots and their instance columns as an ``(arity, s)`` array.
    ``uses``: ``(P, S)``, whether plan ``p`` calls slot ``s``.
    ``calls``: per call index ``k``, the plans with a ``k``-th call
    (None when every plan has one) and those calls' slots.
    """

    def __init__(self, algorithms: Sequence[Algorithm]) -> None:
        # Pins the algorithms, so no id in a cache key is reused.
        self.algorithms = tuple(algorithms)
        slot_of: dict = {}
        plans = [
            [
                slot_of.setdefault((step.kernel, step.dims), len(slot_of))
                for step in algorithm.plan.steps
            ]
            for algorithm in self.algorithms
        ]
        self.n_slots = len(slot_of)
        by_kernel: dict = {}
        for (kernel, columns), slot in slot_of.items():
            by_kernel.setdefault(kernel, []).append((slot, columns))
        self.kernels = [
            (
                kernel,
                np.array([slot for slot, _ in members], dtype=np.intp),
                np.array([columns for _, columns in members], dtype=np.intp).T,
            )
            for kernel, members in by_kernel.items()
        ]
        self.uses = np.zeros((len(plans), self.n_slots), dtype=bool)
        for p, plan in enumerate(plans):
            self.uses[p, plan] = True
        lengths = [len(plan) for plan in plans]
        self.calls = []
        for k in range(max(lengths, default=0)):
            with_k = [p for p, length in enumerate(lengths) if length > k]
            self.calls.append((
                None if len(with_k) == len(plans)
                else np.array(with_k, dtype=np.intp),
                np.array([plans[p][k] for p in with_k], dtype=np.intp),
            ))

    def stacked(self, instances: np.ndarray, per_call: int, used=None):
        """Each kernel's slots, at most ``per_call`` at a time, with
        their dims over the ``(n, n_dims)`` instances stacked.

        Yields ``(kernel, slots, dims)``: ``dims`` is ``(len(slots) * n,
        arity)``, slot ``slots[i]``'s dims in rows ``i * n`` to
        ``(i + 1) * n``, each column contiguous.  With ``used``, an
        ``(S,)`` bool mask, only the slots it marks, and no kernel
        whose slots it leaves out.
        """
        by_column = instances.T
        for kernel, slots, columns in self.kernels:
            if used is not None:
                keep = used[slots]
                slots, columns = slots[keep], columns[:, keep]
            for first in range(0, len(slots), per_call):
                group = columns[:, first:first + per_call]
                dims = by_column[group].reshape(len(group), -1).T
                yield kernel, slots[first:first + per_call], dims

    def add_calls(self, values: np.ndarray, totals: np.ndarray) -> None:
        """Add ``(S, n)`` slot values into ``(P, n)`` plan totals.

        One add per call index, so each plan adds its calls in call
        order, as a per-plan loop would: float totals keep its bits.
        """
        for plans, slots in self.calls:
            if plans is None:
                totals += values[slots]
            else:
                totals[plans] += values[slots]


def call_slots(algorithms: Sequence[Algorithm]) -> CallSlots:
    """The algorithms' :class:`CallSlots`, interned once per tuple.

    Keyed by the algorithms' ids and identity-checked, as the
    machine's call tables are.  Only a tuple (an expression's
    ``algorithms()``) is cached, so ad-hoc lists add nothing to the
    cache.
    """
    key = tuple(map(id, algorithms))
    table = _SLOTS.get(key)
    if table is None or not all(
        map(operator.is_, table.algorithms, algorithms)
    ):
        table = CallSlots(algorithms)
        if isinstance(algorithms, tuple):
            _SLOTS[key] = table
    return table


def batch_flops(
    algorithms: Sequence[Algorithm], instances_matrix: np.ndarray
) -> np.ndarray:
    """Exact ``(n, A)`` int64 FLOP counts, one column per algorithm.

    The plans' steps are interned into call slots (:func:`call_slots`):
    each kernel counts all of its slots with one
    :func:`~repro.kernels.flops.kernel_flops_batch` over their columns
    stacked, and each plan adds its slots' counts, one add per call
    index, in row blocks of at most :data:`_STACKED_ROWS` stacked rows.
    Integer adds are exact in any order, so every column equals
    ``Plan.flops`` over the instance columns.
    """
    arr = np.asarray(instances_matrix, dtype=np.int64)
    table = call_slots(algorithms)
    out = np.empty((arr.shape[0], len(table.algorithms)), dtype=np.int64)
    block_rows = max(1, _STACKED_ROWS // max(table.n_slots, 1))
    for start in range(0, arr.shape[0], block_rows):
        rows = arr[start:start + block_rows]
        n = rows.shape[0]
        counts = np.empty((table.n_slots, n), dtype=np.int64)
        for kernel, slots, dims in table.stacked(rows, _STACKED_ROWS // n):
            counts[slots] = kernel_flops_batch(kernel, dims).reshape(-1, n)
        totals = np.zeros((len(table.algorithms), n), dtype=np.int64)
        table.add_calls(counts, totals)
        out[start:start + n] = totals.T
    return out


def max_exact_dim(algorithms: Sequence[Algorithm], n_dims: int) -> int:
    """The largest dim at which every plan's FLOP count stays exact.

    That is the largest ``d`` for which every algorithm's exact
    integer ``flops((d,) * n_dims)`` is below :data:`EXACT_FLOPS_LIMIT`.
    FLOP polynomials have non-negative coefficients, so no instance
    whose dims are all at most ``d`` counts more than the all-equal
    one: the bound holds for every such instance.  Each plan's count
    is built once as a polynomial in one shared dim symbol, then the
    bound is found by bisection in exact integers.
    """
    symbol = dim_symbol(0)
    counts = {a.flops((symbol,) * n_dims) for a in algorithms}

    def exact(d: int) -> bool:
        return all(c.size_hint((d,)) < EXACT_FLOPS_LIMIT for c in counts)

    if not exact(1):
        raise ValueError("FLOP counts exceed 2**53 even at unit dims")
    low, high = 1, 2
    while exact(high):
        low, high = high, 2 * high
    while high - low > 1:
        middle = (low + high) // 2
        if exact(middle):
            low = middle
        else:
            high = middle
    return low


def evaluate_instances(
    backend: Backend,
    algorithms: Sequence[Algorithm],
    instances: Sequence[Sequence[int]],
    predict: bool = False,
) -> BatchEvaluation:
    """Measure every algorithm at every instance on the given backend.

    FLOP counts come from evaluating each algorithm's polynomial over
    whole instance columns; times come from one call of the backend's
    evaluation-batch API, ``Backend.time_algorithms_matrix`` (one
    machine pass per bounded group of plans on the simulated machine,
    a scalar loop otherwise).  With ``predict=True`` the seconds are
    the benchmark-based predictions (``Backend.predict_times_matrix``)
    instead of whole-algorithm measurements — Experiment 3's view of
    the same instances.
    """
    arr = np.asarray(instances, dtype=np.int64)
    if arr.ndim != 2:
        raise ValueError(
            f"instances must be a (n, n_dims) matrix, got shape {arr.shape!r}"
        )
    # One matrix call per batch, so the backend can share work across
    # *plans*: one machine call on the simulated backend; a real one
    # predicts by benchmarking each distinct (kernel, dims) call once.
    if predict:
        seconds = backend.predict_times_matrix(algorithms, arr)
    else:
        seconds = backend.time_algorithms_matrix(algorithms, arr)
    return BatchEvaluation(
        instances=arr,
        algorithm_names=tuple(a.name for a in algorithms),
        flops=batch_flops(algorithms, arr),
        seconds=seconds,
    )


def classify_batch(
    batch: BatchEvaluation, threshold: float = 0.10
) -> BatchVerdicts:
    """Apply the paper's anomaly rule to every row of a batch."""
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    flops, seconds = batch.flops, batch.seconds
    f_min = flops.min(axis=1)
    cheap_mask = flops <= f_min[:, None] * (1 + _REL_TOL)
    t_min = seconds.min(axis=1)
    fast_mask = seconds <= t_min[:, None] * (1 + _REL_TOL)
    t_best_cheapest = np.where(cheap_mask, seconds, np.inf).min(axis=1)
    time_scores = 1.0 - t_min / t_best_cheapest
    f_fastest = np.where(fast_mask, flops, np.iinfo(np.int64).max).min(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        flop_scores = np.where(
            f_fastest != 0, 1.0 - f_min / f_fastest, 0.0
        )
    return BatchVerdicts(
        is_anomaly=time_scores > threshold,
        time_scores=time_scores,
        flop_scores=flop_scores,
        cheapest=cheap_mask,
        fastest=fast_mask,
        algorithm_names=batch.algorithm_names,
        threshold=threshold,
    )
