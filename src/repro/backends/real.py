"""Real-BLAS backend: the paper's measurement protocol on this host.

Times actual ``dgemm``/``dsyrk``/``dsymm`` executions (through SciPy
when available, NumPy otherwise) with cache flushing between
repetitions and median-of-k timing.  ``peak_flops`` is the *practical*
peak — the best measured GEMM rate — so efficiencies are relative to
what this host's BLAS can actually do, as in the paper's Figure 1.
"""

from __future__ import annotations

import time
import zlib
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.backends.base import Backend
from repro.expressions import blas
from repro.expressions.base import Algorithm
from repro.expressions.registry import get_expression
from repro.kernels.flops import kernel_flops
from repro.kernels.types import KernelName


class RealBlasBackend(Backend):
    def __init__(
        self,
        reps: int = 5,
        flush_bytes: int = 32 * 1024 * 1024,
        seed: int = 0,
    ) -> None:
        if reps < 1:
            raise ValueError("reps must be >= 1")
        self.reps = reps
        self.seed = seed
        self._flush_buffer = np.zeros(max(flush_bytes, 8) // 8)
        self._peak: Optional[float] = None
        self._operand_cache: Dict[Tuple[str, Tuple[int, ...]], list] = {}

    # ------------------------------------------------------------------
    # Measurement plumbing
    # ------------------------------------------------------------------

    def _flush_cache(self) -> None:
        # Touch a buffer larger than LLC so prior operands are evicted.
        self._flush_buffer += 1.0

    def _median_time(self, fn) -> float:
        samples = []
        for _ in range(self.reps):
            self._flush_cache()
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
        samples.sort()
        return samples[len(samples) // 2]

    def _operands_for(self, algorithm: Algorithm, instance: Sequence[int]):
        key = (algorithm.expression, tuple(int(d) for d in instance))
        if key not in self._operand_cache:
            expression = get_expression(algorithm.expression)
            digest = zlib.crc32(repr(key).encode())
            rng = np.random.default_rng((self.seed, digest))
            self._operand_cache[key] = expression.make_operands(key[1], rng)
        return self._operand_cache[key]

    # ------------------------------------------------------------------
    # Backend interface
    # ------------------------------------------------------------------

    @property
    def peak_flops(self) -> float:
        """Best measured GEMM FLOP rate on this host (lazily probed)."""
        if self._peak is None:
            rng = np.random.default_rng(self.seed)
            best = 0.0
            for size in (256, 384, 512):
                a = rng.standard_normal((size, size))
                b = rng.standard_normal((size, size))
                seconds = self._median_time(lambda: blas.gemm(a, b))
                best = max(best, 2.0 * size**3 / seconds)
            self._peak = best
        return self._peak

    def time_algorithm(self, algorithm: Algorithm, instance: Sequence[int]) -> float:
        operands = self._operands_for(algorithm, instance)
        return self._median_time(lambda: algorithm.execute(operands))

    def time_algorithms(
        self, algorithm: Algorithm, instances: Sequence[Sequence[int]]
    ) -> np.ndarray:
        """Amortized batch timing: operand generation hoisted per region.

        Same semantics as the base-class loop, but the executor binding
        and every instance's operand set are resolved *before* the
        timed region, so the flush-time-flush cadence of
        :meth:`_median_time` covers only ``Plan.execute``'s kernel
        calls, not operand generation.
        """
        execute = algorithm.execute
        operand_sets = [
            self._operands_for(algorithm, instance) for instance in instances
        ]
        return np.array(
            [
                self._median_time(lambda ops=operands: execute(ops))
                for operands in operand_sets
            ],
            dtype=np.float64,
        )

    def time_kernel(self, kernel: KernelName, dims: Sequence[int]) -> float:
        rng = np.random.default_rng((self.seed, *map(int, dims)))
        if kernel is KernelName.GEMM:
            m, n, k = dims
            a = rng.standard_normal((m, k))
            b = rng.standard_normal((k, n))
            return self._median_time(lambda: blas.gemm(a, b))
        if kernel is KernelName.SYRK:
            n, k = dims
            a = rng.standard_normal((n, k))
            return self._median_time(lambda: blas.syrk_lower(a))
        if kernel is KernelName.ADD:
            m, n = dims
            a = rng.standard_normal((m, n))
            b = rng.standard_normal((m, n))
            return self._median_time(lambda: blas.add(a, b))
        if kernel is KernelName.TRSM:
            m, n = dims
            l = np.tril(rng.standard_normal((m, m))) + m * np.eye(m)
            b = rng.standard_normal((m, n))
            return self._median_time(lambda: blas.trsm(l, b))
        m, n = dims  # SYMM
        s = rng.standard_normal((m, m))
        s = s + s.T
        b = rng.standard_normal((m, n))
        return self._median_time(lambda: blas.symm_lower(s, b))

    # ------------------------------------------------------------------
    # Correctness
    # ------------------------------------------------------------------

    def verify_algorithm(
        self, algorithm: Algorithm, instance: Sequence[int]
    ) -> float:
        """Max relative deviation of the algorithm vs the NumPy reference."""
        expression = get_expression(algorithm.expression)
        rng = np.random.default_rng(self.seed)
        operands = expression.make_operands(tuple(map(int, instance)), rng)
        expected = expression.reference(operands)
        actual = algorithm.execute(operands)
        scale = float(np.max(np.abs(expected))) or 1.0
        return float(np.max(np.abs(actual - expected))) / scale

    def flops_estimate(self, algorithm: Algorithm, instance: Sequence[int]) -> int:
        return int(algorithm.flops(tuple(map(int, instance))))
