"""The backend interface shared by the simulated and real machines.

A backend answers three timing questions:

* ``time_algorithm``  — run a whole algorithm (kernels back to back,
  inter-kernel effects included) and report the median wall time;
* ``time_kernel``     — run one isolated kernel call with a clean
  cache (the paper's benchmark protocol);
* ``predict_time``    — sum the isolated kernel times of an algorithm
  (Experiment 3's benchmark-based predictor).

Each question also has a batch form (``time_algorithms``,
``time_kernels``, ``predict_times``) taking many instances at once and
returning a float64 array, and the two algorithm questions have an
evaluation-batch form (``time_algorithms_matrix``,
``predict_times_matrix``) taking every algorithm of an expression at
once and returning an ``(n, A)`` matrix.  The defaults below answer a
batch with a scalar loop, so a backend only has to implement the
per-instance protocol — :class:`repro.backends.real.RealBlasBackend`
times real BLAS calls one at a time, unchanged — while
:class:`repro.backends.simulated.SimulatedBackend` overrides the batch
methods with fully vectorized evaluation, one machine call per
evaluation batch.

Experiment code is backend-agnostic: everything under
:mod:`repro.core`, :mod:`repro.experiments` and :mod:`repro.analysis`
works identically against either backend.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.expressions.base import Algorithm
from repro.kernels.types import KernelName

#: Hashable identity of one concrete kernel call — the dedupe unit for
#: benchmark-based prediction.
_CallKey = Tuple[KernelName, Tuple[int, ...]]


class Backend(abc.ABC):
    @property
    @abc.abstractmethod
    def peak_flops(self) -> float:
        """FLOP/s the machine can sustain at best (efficiency = 1)."""

    @abc.abstractmethod
    def time_algorithm(self, algorithm: Algorithm, instance: Sequence[int]) -> float:
        ...

    @abc.abstractmethod
    def time_kernel(self, kernel: KernelName, dims: Sequence[int]) -> float:
        ...

    def predict_time(self, algorithm: Algorithm, instance: Sequence[int]) -> float:
        """Benchmark-based prediction, timing each distinct call once.

        An algorithm may issue the same ``(kernel, dims)`` call more
        than once; re-running the benchmark for every occurrence would
        be wasted wall time on a real machine, so distinct calls are
        timed once and the measured values reused per occurrence (the
        dedupe lives in :meth:`predict_times`).
        """
        return float(self.predict_times(algorithm, [instance])[0])

    # ------------------------------------------------------------------
    # Batch API — scalar-loop defaults; override for vectorized paths
    # ------------------------------------------------------------------

    def time_algorithms(
        self, algorithm: Algorithm, instances: Sequence[Sequence[int]]
    ) -> np.ndarray:
        """Measured times of one algorithm at many instances."""
        return np.array(
            [self.time_algorithm(algorithm, inst) for inst in instances],
            dtype=np.float64,
        )

    def time_algorithms_matrix(
        self,
        algorithms: Sequence[Algorithm],
        instances: Sequence[Sequence[int]],
    ) -> np.ndarray:
        """``(n, A)`` measured times, one column per algorithm.

        The measured twin of :meth:`predict_times_matrix`: one call
        per evaluation batch, so a backend can measure all the
        algorithms together.  This default stacks
        :meth:`time_algorithms` column by column.
        """
        return np.stack(
            [self.time_algorithms(a, instances) for a in algorithms], axis=1
        )

    def time_kernels(
        self, kernel: KernelName, dims: Sequence[Sequence[int]]
    ) -> np.ndarray:
        """Isolated benchmark times of one kernel at many dims."""
        return np.array(
            [self.time_kernel(kernel, d) for d in dims], dtype=np.float64
        )

    def predict_times(
        self,
        algorithm: Algorithm,
        instances: Sequence[Sequence[int]],
        timed: Optional[Dict[_CallKey, float]] = None,
    ) -> np.ndarray:
        """Benchmark-based predictions at many instances.

        Dedupes identical ``(kernel, dims)`` calls across the *whole*
        batch — on a real machine, predicting a dense grid of
        instances re-times mostly-overlapping kernel sets, and one
        benchmark per distinct call is all the protocol needs.

        ``timed`` optionally carries the benchmark memo in from the
        caller, extending the dedupe across several algorithms of one
        evaluation batch (see :meth:`predict_times_matrix`); mutated
        in place.
        """
        if timed is None:
            timed = {}
        out = np.empty(len(instances), dtype=np.float64)
        for i, instance in enumerate(instances):
            total = 0.0
            for call in algorithm.kernel_calls(
                tuple(int(v) for v in instance)
            ):
                key = (call.kernel, tuple(int(d) for d in call.dims))
                if key not in timed:
                    timed[key] = self.time_kernel(call.kernel, call.dims)
                total += timed[key]
            out[i] = total
        return out

    def predict_times_matrix(
        self,
        algorithms: Sequence[Algorithm],
        instances: Sequence[Sequence[int]],
    ) -> np.ndarray:
        """``(n, A)`` predictions, one column per algorithm.

        One benchmark memo is shared across *all* the algorithms:
        equivalent plans of one expression overlap heavily in their
        kernel calls (every aatb variant times a ``(d0, d2)``-shaped
        product, say), so on a real machine each distinct call is
        benchmarked once per evaluation batch rather than once per
        plan.  The simulated backend's predictions are
        context-dependent (its machine folds the algorithm name into
        the noise stream), so it overrides this method with a read of
        its memo rows and one machine call for the misses.
        """
        timed: Dict[_CallKey, float] = {}
        return np.stack(
            [
                self.predict_times(a, instances, timed=timed)
                for a in algorithms
            ],
            axis=1,
        )
