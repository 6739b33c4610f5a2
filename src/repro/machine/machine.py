"""Analytic machine model: kernel efficiency and execution time.

The model composes four effects, each traceable to a mechanism the
paper discusses:

1. **Efficiency ramps** — each kernel approaches its plateau as
   ``d / (d + ramp_d)`` per dimension, limited by its *worst*
   dimension.  GEMM tolerates one small extent (rank-k updates);
   SYRK/SYMM degrade sharply when their symmetric extent is small.
   This asymmetry is what makes the FLOP-cheapest ``A Aᵀ B``
   algorithms slow at small ``d0`` (the paper's anomalous regions),
   and it is *gradual* — the paper's second transition type.

2. **Variant dispatch** — below an internal blocking boundary a
   kernel runs a different variant at lower efficiency, producing
   *abrupt* efficiency jumps (§4.3).  Disabled in
   :func:`repro.machine.presets.no_variants_machine`.

3. **Thread balance** — work splits across ``cores`` chunks along the
   kernel's parallel dimension; the last partial chunk idles cores,
   a staircase that matters below ~20 chunks.

4. **Inter-kernel cache effects** — inside a multi-kernel algorithm a
   consumer kernel streams over data the producer left cache-resident
   in an unfavourable layout; the resulting conflict misses are
   invisible to isolated (flushed-cache) kernel benchmarks.  This is
   the paper's explanation for Experiment 3's false negatives.
   Disabled in :func:`repro.machine.presets.no_cache_machine`.

Measured times add stateless multiplicative noise (median of
``reps`` repetitions, the paper's protocol).  The median is taken of
the noise factors once, then scaled: for a base time ``c > 0``, the
median of ``c * f`` is ``c * f_mid`` (odd ``reps``) or
``(c * f_lo + c * f_hi) / 2`` (even), bit for bit, because rounding
is monotone, so the order statistics of the scaled values are the
scaled order statistics.  That is what lets one noise pass serve both
an algorithm's measurement and its benchmark prediction.

Every quantity is computed **batch-first** over ``(n, arity)`` dims
matrices (the ``*_batch`` methods); the scalar methods run the batch
path on one-element arrays.  NumPy selects its ufunc inner loops by
dtype and machine, never by array length, so grouping measurements
into batches cannot change a single bit of any result — the
equivalence suite in ``tests/test_batch_equivalence.py`` pins this.

The unit of algorithm measurement is the evaluation batch, not the
plan: :meth:`MachineModel.measure_algorithms_batch` and
:meth:`MachineModel.predict_algorithms_batch` time P plans over the
same n rows in *passes*.  A pass covers consecutive plans up to
:data:`_PASS_IDS` padded ``(call slot, row)`` ids, computes base
seconds once per distinct ``(kernel, dims)`` slot, folds the
measurement ids with one :func:`~repro.machine.noise.fold_columns`
per kernel arity, and draws all its noise in one
:meth:`MachineModel._median_factors`.  Noise is elementwise in the
ids and base times and interference are elementwise in the dims, so
each plan's row equals its one-plan measurement bit for bit; the
one-plan methods are one-plan calls of the same pass.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.kernels.flops import kernel_flops_batch
from repro.kernels.types import (
    KERNEL_ARITY,
    KernelCall,
    KernelCallBatch,
    KernelName,
    batch_kernel_calls,
)
from repro.machine.noise import NoiseModel, fold, fold_columns
from repro.machine.spec import MachineSpec

#: Known step-schedule policies (the machine presets' ``schedule``
#: knob, threaded through study keys and the runner's ``--schedule``).
#: ``default`` keeps each plan's compiled step order; the other two
#: let :func:`repro.expressions.scheduler.schedule_order` pick the
#: dependency-respecting permutation this model's cache-interference
#: term scores fastest/slowest.  Reordering changes which step pairs
#: are producer/consumer adjacent — and therefore the measured times —
#: so non-default schedules are a distinct study scenario, never a
#: cache-compatible variation of the default one.
SCHEDULES = ("default", "min-interference", "max-interference")

#: Relative cost of the conflict misses a *producer* kernel's cache
#: residue inflicts on its consumer.  SYRK leaves a packed triangle
#: behind — the consumer re-reads it as a symmetric matrix through a
#: layout the producer never streamed, the worst case; a GEMM producer
#: leaves a contiguously written full matrix, the best case.
_INTERFERENCE = {
    KernelName.SYRK: 0.15,
    KernelName.SYMM: 0.06,
    KernelName.GEMM: 0.02,
    # ADD streams its output contiguously, like GEMM's best case.
    KernelName.ADD: 0.02,
    # TRSM overwrites B in place column by column — better than a
    # packed triangle, worse than one contiguous output sweep.
    KernelName.TRSM: 0.05,
}

#: Integer tokens folded into measurement ids (stable across runs).
_KERNEL_TOKEN = {
    KernelName.GEMM: 1,
    KernelName.SYRK: 2,
    KernelName.SYMM: 3,
    KernelName.ADD: 4,
    KernelName.TRSM: 5,
}

#: Noise-stream context for isolated kernel benchmarks — separate
#: from every algorithm's stream, like a standalone benchmark run.
_BENCH_CONTEXT = "kernel-benchmark"

#: Most padded ``(call slot, row)`` measurement ids one pass of
#: :meth:`MachineModel._algorithms_batch` covers.  A pass holds about
#: a dozen 8-byte arrays of this length, so the bound caps its working
#: set (a 4,958-row batch of sum4's 25 plans would otherwise hold
#: 743,700 ids) while a 128-row batch of all 25 plans (19,200 ids)
#: still shares one pass.
_PASS_IDS = 32768

#: Ids per block of the noise kernel: the block's repetition arrays
#: stay cache-resident through the mixing, Box-Muller and sort steps.
_NOISE_BLOCK = 4096


def _as_dims_matrix(kernel: KernelName, dims) -> np.ndarray:
    arr = np.asarray(dims, dtype=np.int64)
    arity = KERNEL_ARITY[kernel]
    if arr.ndim != 2 or arr.shape[1] != arity:
        raise ValueError(
            f"{kernel.value} batch expects (n, {arity}) dims, "
            f"got shape {arr.shape!r}"
        )
    return arr


class MachineModel:
    """Deterministic timing model for one machine configuration."""

    def __init__(
        self,
        spec: MachineSpec,
        noise: Optional[NoiseModel] = None,
        reps: int = 5,
        variant_dispatch: bool = True,
        cache_effects: bool = True,
        schedule: str = "default",
    ) -> None:
        if reps < 1:
            raise ValueError("reps must be >= 1")
        if schedule not in SCHEDULES:
            raise ValueError(
                f"schedule must be one of {SCHEDULES}, got {schedule!r}"
            )
        self.spec = spec
        self.noise = noise if noise is not None else NoiseModel()
        self.reps = reps
        self.variant_dispatch = variant_dispatch
        self.cache_effects = cache_effects
        self.schedule = schedule
        #: Per-plan step orders chosen by the scheduler for this
        #: machine's ``schedule`` (owned by
        #: :func:`repro.expressions.scheduler.schedule_order`).
        self.schedule_cache: dict = {}
        self._stream_base_cache: dict = {}
        self._id_heads: dict = {}

    @property
    def peak_flops(self) -> float:
        return self.spec.peak_flops

    # ------------------------------------------------------------------
    # Noise-free analytic quantities
    # ------------------------------------------------------------------

    def efficiency_batch(self, kernel: KernelName, dims) -> np.ndarray:
        """Fraction of machine peak each call of a batch sustains."""
        dims = _as_dims_matrix(kernel, dims)
        perf = self.spec.kernel_perf[kernel]
        if np.any(dims < 1):
            raise ValueError("dims must be positive")
        d = dims.astype(np.float64)
        factors = [
            np.power(d[:, j] / (d[:, j] + ramp), exponent)
            for j, (ramp, exponent) in enumerate(
                zip(perf.ramps, perf.exponents)
            )
        ]
        eff = np.full(dims.shape[0], perf.plateau)
        if perf.ramp_mode == "product":
            for factor in factors:
                eff = eff * factor
        else:
            worst = factors[0]
            for factor in factors[1:]:
                worst = np.minimum(worst, factor)
            eff = eff * worst
        if self.variant_dispatch:
            for dim, boundary, below_factor in perf.variant_boundaries:
                eff = np.where(
                    dims[:, dim] < boundary, eff * below_factor, eff
                )
        # Thread balance along the parallel dimension.
        d_par = d[:, perf.parallel_dim]
        cores = self.spec.cores
        eff = eff * (d_par / (np.ceil(d_par / cores) * cores))
        return eff

    def efficiency(self, kernel: KernelName, dims: Sequence[int]) -> float:
        """Fraction of machine peak this kernel call sustains."""
        perf = self.spec.kernel_perf[kernel]
        if len(dims) != len(perf.ramps):
            raise ValueError(
                f"{kernel.value} expects {len(perf.ramps)} dims, "
                f"got {tuple(dims)!r}"
            )
        if any(d < 1 for d in dims):
            raise ValueError(f"dims must be positive, got {tuple(dims)!r}")
        return float(self.efficiency_batch(kernel, [tuple(dims)])[0])

    def kernel_seconds_batch(self, kernel: KernelName, dims) -> np.ndarray:
        """Noise-free times of a batch of isolated kernel calls."""
        dims = _as_dims_matrix(kernel, dims)
        flops = kernel_flops_batch(kernel, dims).astype(np.float64)
        return flops / (self.efficiency_batch(kernel, dims) * self.peak_flops)

    def kernel_seconds(self, kernel: KernelName, dims: Sequence[int]) -> float:
        """Noise-free execution time of one isolated kernel call."""
        return float(self.kernel_seconds_batch(kernel, [tuple(dims)])[0])

    def interference_penalty_batch(
        self, producer: KernelCallBatch, consumer: KernelCallBatch
    ) -> np.ndarray:
        """Per-instance consumer slowdown from the producer's residue."""
        if not self.cache_effects:
            return np.zeros(consumer.n)
        ws_bytes = 8 * consumer.operand_elements()
        residue_bytes = 8 * producer.output_elements()
        occupancy = np.minimum(
            1.0, (ws_bytes + residue_bytes) / self.spec.l2_bytes
        )
        return _INTERFERENCE[producer.kernel] * occupancy

    def interference_penalty(
        self, producer: KernelCall, consumer: KernelCall
    ) -> float:
        """Relative slowdown of ``consumer`` from the producer's cache residue.

        Scales with how much of the private cache the consumer's
        working set plus the producer's just-written residue occupy —
        so two schedules of the same plan whose final product consumes
        differently-sized residues are genuinely (not just noise-)
        distinct.
        """
        if not self.cache_effects:
            return 0.0
        ws_bytes = 8 * int(consumer.operand_elements())
        residue_bytes = 8 * int(producer.output_elements())
        occupancy = min(
            1.0, (ws_bytes + residue_bytes) / self.spec.l2_bytes
        )
        return _INTERFERENCE[producer.kernel] * occupancy

    # ------------------------------------------------------------------
    # Measurements (noise + median-of-reps)
    # ------------------------------------------------------------------

    def _stream_base(self, context: str) -> int:
        base = self._stream_base_cache.get(context)
        if base is None:
            base = self.noise.stream_base(context)
            self._stream_base_cache[context] = base
        return base

    def _id_head(
        self, context_base: int, index: Optional[int], kernel: KernelName
    ) -> np.uint64:
        """The id every row of one call slot shares before its dims.

        It folds the coordinates all rows share (context, call index,
        kernel) once; :func:`fold` is elementwise, so that equals
        folding them into every row.
        """
        key = (context_base, index, kernel)
        head = self._id_heads.get(key)
        if head is None:
            ids = np.array([context_base], dtype=np.uint64)
            if index is not None:
                ids = fold(ids, index)
            head = self._id_heads[key] = fold(ids, _KERNEL_TOKEN[kernel])[0]
        return head

    def _measurement_ids(
        self,
        context_base: int,
        index: Optional[int],
        kernel: KernelName,
        dims: np.ndarray,
    ) -> np.ndarray:
        """Fold the measurement coordinates into per-instance noise ids."""
        return fold_columns(self._id_head(context_base, index, kernel), dims)

    def _median_factors(
        self, ids: np.ndarray
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """The noise order statistics ``np.median`` would use, per id.

        Returns ``(f_mid, None)`` for odd ``reps`` and ``(f_lo, f_hi)``
        for even ``reps``.  The ids are drawn in blocks of
        :data:`_NOISE_BLOCK` (the factors are elementwise in the ids).
        Each block's repetitions are sorted by an odd-even
        transposition network of elementwise min/max over contiguous
        rows; min and max return one of their inputs, so the order
        statistics are exact.
        """
        reps = self.reps
        middle = reps // 2
        low = np.empty(ids.shape[0])
        high = None if reps % 2 else np.empty(ids.shape[0])
        for start in range(0, ids.shape[0], _NOISE_BLOCK):
            block = slice(start, start + _NOISE_BLOCK)
            rows = list(self.noise.rep_factors(ids[block], reps))
            scratch = np.empty_like(rows[0])
            for sweep in range(reps):
                for i in range(sweep % 2, reps - 1, 2):
                    smaller = np.minimum(rows[i], rows[i + 1], out=scratch)
                    np.maximum(rows[i], rows[i + 1], out=rows[i + 1])
                    scratch, rows[i] = rows[i], smaller
            if high is None:
                low[block] = rows[middle]
            else:
                low[block] = rows[middle - 1]
                high[block] = rows[middle]
        return low, high

    @staticmethod
    def _scaled_median(
        base: np.ndarray, low: np.ndarray, high: Optional[np.ndarray]
    ) -> np.ndarray:
        """``np.median(base[:, None] * factors, axis=1)``, bit for bit.

        ``low``/``high`` come from :meth:`_median_factors` over the same
        factors; ``base`` must be positive (see the module docstring).
        """
        if high is None:
            return base * low
        return (base * low + base * high) / 2.0

    def measure_kernel_batch(self, kernel: KernelName, dims) -> np.ndarray:
        """Median measured times of isolated (flushed-cache) calls."""
        dims = _as_dims_matrix(kernel, dims)
        base = self.kernel_seconds_batch(kernel, dims)
        ids = self._measurement_ids(
            self._stream_base(_BENCH_CONTEXT), None, kernel, dims
        )
        return self._scaled_median(base, *self._median_factors(ids))

    def measure_kernel(self, kernel: KernelName, dims: Sequence[int]) -> float:
        """Median measured time of one isolated (flushed-cache) call."""
        return float(self.measure_kernel_batch(kernel, [tuple(dims)])[0])

    @staticmethod
    def _batch_rows(plans: Sequence[Sequence[KernelCallBatch]]) -> int:
        """The n rows every call batch of ``plans`` spans."""
        if not all(plans):
            raise ValueError("algorithm batch needs at least one call")
        return plans[0][0].n if plans else 0

    def _algorithms_batch(
        self,
        plans: Sequence[Sequence[KernelCallBatch]],
        contexts: Sequence[str],
        n: int,
        measured: Optional[np.ndarray],
        predicted: Optional[np.ndarray],
    ) -> None:
        """Fill ``(P, n)`` measured and/or predicted totals of P plans.

        Consecutive plans share one pass while the pass's padded
        ``(slot, row)`` ids fit in :data:`_PASS_IDS`; a single wider
        plan is a pass of its own.
        """
        if len(plans) != len(contexts):
            raise ValueError(
                f"{len(plans)} plans but {len(contexts)} contexts"
            )
        start = 0
        while start < len(plans):
            stop, width = start + 1, len(plans[start])
            while stop < len(plans):
                wider = max(width, len(plans[stop]))
                if wider * (stop + 1 - start) * n > _PASS_IDS:
                    break
                stop, width = stop + 1, wider
            self._pass(
                plans[start:stop],
                contexts[start:stop],
                n,
                None if measured is None else measured[start:stop],
                None if predicted is None else predicted[start:stop],
            )
            start = stop

    def _pass(
        self,
        plans: Sequence[Sequence[KernelCallBatch]],
        contexts: Sequence[str],
        n: int,
        measured: Optional[np.ndarray],
        predicted: Optional[np.ndarray],
    ) -> None:
        """One machine pass over a few plans: see :meth:`_algorithms_batch`.

        Every per-id array is laid out slot-major: call ``index`` of
        plan ``p`` owns rows ``[k * n, (k + 1) * n)`` with
        ``k = index * len(plans) + p``.  Slots past a plan's last call
        keep a zero base time, so their scaled medians are 0.0 and
        adding them leaves the plan's total unchanged.

        - Base seconds are computed once per distinct ``(kernel,
          dims)`` slot of the pass, and interference once per distinct
          (producer slot, consumer slot) pair.
        - The measurement ids come from one :func:`fold_columns` per
          kernel arity, over every slot of that arity at once.
        - One :meth:`_median_factors` covers all the pass's ids.  The
          measured time adds each consumer's interference to its base
          time; the prediction (isolated benchmarks) does not.  Both
          use the same ids, so they share the one draw of noise.
        """
        count = len(plans)
        width = max(len(calls) for calls in plans)
        size = width * count * n
        ids = np.zeros(size, dtype=np.uint64)
        isolated = np.zeros(size)
        penalty = None if measured is None else np.zeros(size)
        # Noise-free values keyed by slot (kernel, dims bytes) or by
        # (producer key, consumer key): equivalent plans share most.
        bases: dict = {}
        penalties: dict = {}
        arity_slots: dict = {}
        for p, (calls, context) in enumerate(zip(plans, contexts)):
            context_base = self._stream_base(context)
            previous = previous_key = None
            for index, call in enumerate(calls):
                if call.n != n:
                    raise ValueError(
                        f"call batches span {call.n} and {n} rows"
                    )
                k = index * count + p
                rows = slice(k * n, (k + 1) * n)
                key = (call.kernel, call.dims.tobytes())
                base = bases.get(key)
                if base is None:
                    base = bases[key] = self.kernel_seconds_batch(
                        call.kernel, call.dims
                    )
                isolated[rows] = base
                if (
                    penalty is not None
                    and previous is not None
                    and call.reads_previous
                ):
                    pair = (previous_key, key)
                    if pair not in penalties:
                        penalties[pair] = self.interference_penalty_batch(
                            previous, call
                        )
                    penalty[rows] = penalties[pair]
                head = self._id_head(context_base, index, call.kernel)
                slot_rows, heads, dims = arity_slots.setdefault(
                    KERNEL_ARITY[call.kernel], ([], [], [])
                )
                slot_rows.append(rows)
                heads.append(head)
                dims.append(call.dims)
                previous, previous_key = call, key
        for slot_rows, heads, dims in arity_slots.values():
            folded = fold_columns(
                np.repeat(np.array(heads, dtype=np.uint64), n),
                np.concatenate(dims),
            )
            for j, rows in enumerate(slot_rows):
                ids[rows] = folded[j * n:(j + 1) * n]
        low, high = self._median_factors(ids)
        if measured is not None:
            interfered = isolated * (1.0 + penalty)
            measured[...] = self._plan_totals(interfered, low, high, width, n)
        if predicted is not None:
            predicted[...] = self._plan_totals(isolated, low, high, width, n)

    def _plan_totals(
        self,
        base: np.ndarray,
        low: np.ndarray,
        high: Optional[np.ndarray],
        width: int,
        n: int,
    ) -> np.ndarray:
        """``(P, n)``: each plan's sum of its calls' scaled medians.

        ``base`` is a pass's slot-major per-id base time over ``width``
        call slots (see :meth:`_pass`).
        """
        per_call = self._scaled_median(base, low, high).reshape(width, -1)
        # Sequential per-call additions, never a pairwise np.sum
        # (which would reorder the float additions for k >= 8).
        total = np.zeros(per_call.shape[1])
        for row in per_call:
            total = total + row
        return total.reshape(-1, n)

    def measure_algorithms_batch(
        self,
        plans: Sequence[Sequence[KernelCallBatch]],
        contexts: Sequence[str],
        predicted: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``(P, n)`` median measured times of P whole-algorithm runs.

        ``plans[p]`` is one algorithm's call batches and
        ``contexts[p]`` (typically the algorithm name) its noise
        stream; every call batch spans the same n rows.  Row ``p``
        equals :meth:`measure_algorithm_batch` of that one plan, bit
        for bit: noise is elementwise in the measurement ids, base
        times and interference are elementwise in the dims, and each
        plan's total keeps its sequential per-call additions.

        ``predicted``, when given, is a ``(P, n)`` float64 array that
        receives :meth:`predict_algorithms_batch`'s result for the
        same plans, computed from the same noise draw.
        """
        n = self._batch_rows(plans)
        measured = np.empty((len(plans), n))
        self._algorithms_batch(plans, contexts, n, measured, predicted)
        return measured

    def predict_algorithms_batch(
        self,
        plans: Sequence[Sequence[KernelCallBatch]],
        contexts: Sequence[str],
    ) -> np.ndarray:
        """``(P, n)`` sums of per-kernel times (see the single-plan form)."""
        n = self._batch_rows(plans)
        predicted = np.empty((len(plans), n))
        self._algorithms_batch(plans, contexts, n, None, predicted)
        return predicted

    def measure_algorithm_batch(
        self,
        calls: Sequence[KernelCallBatch],
        context: str = "",
        predicted: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Median measured times of whole multi-kernel algorithm runs.

        ``context`` (typically the algorithm name) decorrelates the
        noise of these runs from every other measurement: two
        algorithms sharing an identical kernel call still time it
        independently, as they would on real hardware.

        ``predicted``, when given, is an ``(n,)`` float64 array that
        receives :meth:`predict_algorithm_batch`'s result for the same
        calls, computed from the same noise draw.
        """
        return self.measure_algorithms_batch(
            [calls],
            [context],
            predicted=None if predicted is None else predicted[None],
        )[0]

    def predict_algorithm_batch(
        self, calls: Sequence[KernelCallBatch], context: str = ""
    ) -> np.ndarray:
        """Sums of per-kernel times (Experiment 3's benchmark predictor).

        Uses the same noise stream as :meth:`measure_algorithm_batch`
        so the prediction error isolates exactly what isolated
        benchmarks cannot see — the inter-kernel cache effects.
        """
        return self.predict_algorithms_batch([calls], [context])[0]

    def measure_algorithm(
        self, calls: Sequence[KernelCall], context: str = ""
    ) -> float:
        """Median measured time of a whole multi-kernel algorithm run."""
        if not calls:
            return 0.0
        return float(
            self.measure_algorithm_batch(batch_kernel_calls(calls, 1), context)[0]
        )

    def predict_algorithm(
        self, calls: Sequence[KernelCall], context: str = ""
    ) -> float:
        """Sum of per-kernel times for one instance (see batch variant)."""
        if not calls:
            return 0.0
        return float(
            self.predict_algorithm_batch(batch_kernel_calls(calls, 1), context)[0]
        )
