"""Algorithm-selection discriminants (paper §5).

A discriminant picks one algorithm for an instance *without measuring
the candidate algorithms on that instance*:

* :class:`MinFlopsDiscriminant` — minimum FLOP count; what Linnea,
  Armadillo and Julia implement (the paper's subject).
* :class:`ProfiledTimeDiscriminant` — minimum time predicted from
  one-off interpolated kernel performance profiles.
* :class:`FlopsProfileHybrid` — the paper's conjectured combination:
  shortlist by FLOPs (discard anything more than ``margin`` above the
  minimum), then rank the shortlist by profile-predicted time.
* :class:`BenchmarkDiscriminant` — per-instance isolated kernel
  benchmarks, summed (Experiment 3's predictor, an oracle-ish upper
  bound that still misses inter-kernel cache effects).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.backends.base import Backend
from repro.expressions.base import Algorithm, instance_matrix
from repro.kernels.types import KernelName
from repro.profiles.benchmark import Profile

#: Most stacked rows one ``Profile.predict_batch`` call interpolates:
#: a request's slots always share one call, while a 5,000-row batch of
#: sum4's 20 GEMM slots makes four and holds ~5 MB, not ~15 MB.
_STACKED_ROWS = 32768


class Discriminant:
    """Interface: pick the index of the algorithm to run."""

    name: str = ""

    def select(
        self, algorithms: Sequence[Algorithm], instance: Sequence[int]
    ) -> int:
        raise NotImplementedError

    def select_batch(
        self,
        algorithms: Sequence[Algorithm],
        instances: Sequence[Sequence[int]],
    ) -> List[int]:
        """Pick per instance; ties break to the lowest index, exactly
        like :meth:`select`.  Override when the scoring vectorizes."""
        return [self.select(algorithms, inst) for inst in instances]


class MinFlopsDiscriminant(Discriminant):
    name = "min-flops"

    def select(
        self, algorithms: Sequence[Algorithm], instance: Sequence[int]
    ) -> int:
        instance_matrix(algorithms, [instance])
        flop_counts = [int(a.flops(instance)) for a in algorithms]
        return flop_counts.index(min(flop_counts))

    def select_batch(
        self,
        algorithms: Sequence[Algorithm],
        instances: Sequence[Sequence[int]],
    ) -> List[int]:
        from repro.core.classify import batch_flops

        arr = instance_matrix(algorithms, instances)
        return np.argmin(batch_flops(algorithms, arr), axis=1).tolist()


class _ProfileMixin:
    def __init__(self, profiles: Dict[KernelName, Profile]) -> None:
        self.profiles = profiles

    def predicted_time(
        self, algorithm: Algorithm, instance: Sequence[int]
    ) -> float:
        total = 0.0
        for call in algorithm.kernel_calls(tuple(instance)):
            profile = self.profiles.get(call.kernel)
            if profile is None:
                raise KeyError(
                    f"no profile for kernel {call.kernel.value}"
                )
            total += profile.predict(call.dims)
        return total

    def predicted_times_matrix(
        self, algorithms: Sequence[Algorithm], instances_matrix
    ) -> np.ndarray:
        """``(n, A)`` profile-predicted times of every algorithm.

        The plans' steps are interned into call slots, one per
        distinct ``(kernel, instance columns)`` call, and each kernel
        interpolates all of its slots in one
        :meth:`~repro.profiles.benchmark.Profile.predict_batch` over
        their dims stacked row-wise, in calls of at most
        :data:`_STACKED_ROWS` rows.  Interpolation treats rows
        independently, so stacking changes no bit.  Each plan then
        adds its calls' slot times into zeros in call order, as the
        scalar loop does, and ``Profile.predict`` is a one-row batch:
        every column equals :meth:`predicted_time` bit for bit.
        """
        arr = np.asarray(instances_matrix, dtype=np.int64)
        n = arr.shape[0]
        slots: dict = {}
        plans = [
            [
                slots.setdefault((step.kernel, step.dims), len(slots))
                for step in algorithm.plan.steps
            ]
            for algorithm in algorithms
        ]
        by_kernel: Dict[KernelName, list] = {}
        for (kernel, columns), slot in slots.items():
            by_kernel.setdefault(kernel, []).append((slot, columns))
        times: list = [None] * len(slots)
        per_call = max(1, _STACKED_ROWS // max(n, 1))
        for kernel, members in by_kernel.items():
            profile = self.profiles.get(kernel)
            if profile is None:
                raise KeyError(f"no profile for kernel {kernel.value}")
            for first in range(0, len(members), per_call):
                group = members[first:first + per_call]
                dims = np.concatenate([arr[:, cols] for _, cols in group])
                stacked = profile.predict_batch(dims).reshape(len(group), n)
                for (slot, _), values in zip(group, stacked):
                    times[slot] = values
        total = np.zeros((len(algorithms), n))
        for row, plan in zip(total, plans):
            for slot in plan:
                row += times[slot]
        return total.T

    def predicted_times_batch(
        self, algorithm: Algorithm, instances_matrix: np.ndarray
    ) -> np.ndarray:
        """One algorithm's column of :meth:`predicted_times_matrix`."""
        return self.predicted_times_matrix([algorithm], instances_matrix)[:, 0]


class ProfiledTimeDiscriminant(_ProfileMixin, Discriminant):
    name = "profiled-time"

    def select(
        self, algorithms: Sequence[Algorithm], instance: Sequence[int]
    ) -> int:
        instance_matrix(algorithms, [instance])
        times = [self.predicted_time(a, instance) for a in algorithms]
        return times.index(min(times))

    def select_batch(
        self,
        algorithms: Sequence[Algorithm],
        instances: Sequence[Sequence[int]],
    ) -> List[int]:
        if len(instances) == 0:
            return []
        arr = instance_matrix(algorithms, instances)
        times = self.predicted_times_matrix(algorithms, arr)
        return np.argmin(times, axis=1).tolist()


class FlopsProfileHybrid(_ProfileMixin, Discriminant):
    """Shortlist by FLOPs, then rank the shortlist by profiled time.

    Tie behaviour is guaranteed: when several shortlisted algorithms
    share the minimum profile-predicted time, the *lowest algorithm
    index* wins — exactly the rule every other discriminant applies
    (``list.index(min(...))`` / first ``argmin``), so a hybrid pick is
    reproducible and comparable across discriminants.
    """

    def __init__(
        self, profiles: Dict[KernelName, Profile], margin: float = 0.5
    ) -> None:
        super().__init__(profiles)
        if margin < 0:
            raise ValueError("margin must be non-negative")
        self.margin = margin
        self.name = f"flops+profile(margin={margin:g})"

    def select(
        self, algorithms: Sequence[Algorithm], instance: Sequence[int]
    ) -> int:
        instance_matrix(algorithms, [instance])
        flop_counts = [int(a.flops(instance)) for a in algorithms]
        cutoff = min(flop_counts) * (1.0 + self.margin)
        shortlist = [
            i for i, flops in enumerate(flop_counts) if flops <= cutoff
        ]
        times = {
            i: self.predicted_time(algorithms[i], instance)
            for i in shortlist
        }
        # min() keeps the first of equally-fast candidates, and the
        # shortlist is in ascending index order: ties break low.
        return min(shortlist, key=times.__getitem__)

    def select_batch(
        self,
        algorithms: Sequence[Algorithm],
        instances: Sequence[Sequence[int]],
    ) -> List[int]:
        if len(instances) == 0:
            return []
        from repro.core.classify import batch_flops

        arr = instance_matrix(algorithms, instances)
        flops = batch_flops(algorithms, arr)
        cutoff = flops.min(axis=1) * (1.0 + self.margin)
        shortlisted = flops <= cutoff[:, None]
        # Like the scalar path, only shortlisted algorithms are ever
        # profiled; a column no instance shortlists stays +inf.
        columns = np.flatnonzero(shortlisted.any(axis=0)).tolist()
        times = np.full(flops.shape, np.inf)
        times[:, columns] = self.predicted_times_matrix(
            [algorithms[j] for j in columns], arr
        )
        # argmin over +inf-masked times: first (lowest-index) minimum
        # inside the shortlist, matching the scalar tie rule.
        return np.argmin(
            np.where(shortlisted, times, np.inf), axis=1
        ).tolist()


class BenchmarkDiscriminant(Discriminant):
    name = "benchmark-sum"

    def __init__(self, backend: Backend) -> None:
        self.backend = backend

    def select(
        self, algorithms: Sequence[Algorithm], instance: Sequence[int]
    ) -> int:
        instance_matrix(algorithms, [instance])
        times = [
            self.backend.predict_time(a, instance) for a in algorithms
        ]
        return times.index(min(times))

    def select_batch(
        self,
        algorithms: Sequence[Algorithm],
        instances: Sequence[Sequence[int]],
    ) -> List[int]:
        # One matrix call so the backend can dedupe identical
        # (kernel, dims) benchmarks across plans (see
        # Backend.predict_times_matrix).
        arr = instance_matrix(algorithms, instances)
        times = self.backend.predict_times_matrix(algorithms, arr)
        return np.argmin(times, axis=1).tolist()
