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
scalar verdict bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.backends.base import Backend
from repro.expressions.base import Algorithm
from repro.expressions.shapes import dim_symbol

#: Relative tolerance when intersecting "minimum" sets: measured times
#: are floats, FLOP counts exact ints; both use the same rule.
_REL_TOL = 1e-9

#: FLOP counts below this are exact in :func:`batch_flops`' int64
#: columns and in every float64 quantity derived from them.
EXACT_FLOPS_LIMIT = 2**53


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


def batch_flops(
    algorithms: Sequence[Algorithm], instances_matrix: np.ndarray
) -> np.ndarray:
    """Exact ``(n, A)`` int64 FLOP counts, one column per algorithm.

    Each algorithm evaluates through its compiled column expression;
    plans sharing one FLOP polynomial share one compiled function
    *object*, so those evaluations are deduped by function identity
    and computed once per batch (aatb's five algorithms, for
    instance, hold only three distinct polynomials).
    """
    n = instances_matrix.shape[0]
    out = np.empty((n, len(algorithms)), dtype=np.int64)
    shared: dict = {}
    for j, algorithm in enumerate(algorithms):
        fn = algorithm.flops_batch_function()
        column = shared.get(id(fn))
        if column is None:
            column = shared[id(fn)] = fn(instances_matrix)
        out[:, j] = column
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
) -> Tuple[Verdict, ...]:
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
    anomalies = time_scores > threshold
    names = batch.algorithm_names

    # The same cheapest/fastest membership patterns recur across most
    # rows of a batch; intern the name tuples by mask bit-pattern.
    # One ``tobytes`` per whole mask matrix (bool = 1 byte, C order)
    # and per-row byte slices as cache keys — no per-row numpy calls
    # on the hit path, and cheap/fast rows share one cache since the
    # key width is the same.
    width = len(names)
    cheap_bytes = cheap_mask.tobytes()
    fast_bytes = fast_mask.tobytes()
    name_cache: dict = {}

    def names_for(buffer: bytes, i: int, mask: np.ndarray) -> Tuple[str, ...]:
        key = buffer[i * width:(i + 1) * width]
        got = name_cache.get(key)
        if got is None:
            got = tuple(names[j] for j in np.nonzero(mask[i])[0])
            name_cache[key] = got
        return got

    return tuple(
        Verdict(
            is_anomaly=is_anomaly,
            time_score=time_score,
            flop_score=flop_score,
            threshold=threshold,
            cheapest=names_for(cheap_bytes, i, cheap_mask),
            fastest=names_for(fast_bytes, i, fast_mask),
        )
        for i, (is_anomaly, time_score, flop_score) in enumerate(
            zip(
                anomalies.tolist(),
                time_scores.tolist(),
                flop_scores.tolist(),
            )
        )
    )
