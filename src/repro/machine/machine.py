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
plan: :meth:`MachineModel.measure_plans_batch` and
:meth:`MachineModel.predict_plans_batch` time P plans' steps (kernel,
instance columns, ``reads_previous``) over an instance matrix.  A
**slot** is a distinct ``(kernel, instance columns)`` call: sum4's 25
plans make 150 calls over 20 slots.  A **run** is a maximal block of
consecutive rows whose values in a slot's columns do not change; its
first row is its head.  Along a region ray, every call that does not
read the walked dim repeats the row above.  Rows are measured in
blocks of at most ``_PASS_IDS // width`` rows (``width``: the widest
plan's calls).  Per block, base seconds are computed once per slot
at its run heads, in one ``kernel_seconds_batch`` per kernel over
its slots stacked, and interference once per (producer, consumer)
slot pair at every row.  In a block, consecutive plans share one
*pass* while its padded ``(call, row)`` ids fit in :data:`_PASS_IDS`;
a pass folds each call's ids at its slot's run heads (one
:func:`~repro.machine.noise.fold_columns` per kernel arity), draws
them all in one :meth:`MachineModel._median_factors`, and gathers the
scaled medians to the rows through the slot's run index.

Gathering is exact: a call's id, base time and noise are functions of
its dims (with its context, index and kernel), and every row of a run
has its head's values in the slot's columns, so a gather copies the
bits the row would compute.  Noise is elementwise in the ids, and
base times and interference in the dims, so grouping plans into
passes and rows into blocks changes no bit either.  The call-batch
forms (``measure_algorithms_batch`` and the one-plan and scalar
forms) are adapters: their instance matrix is the call batches'
distinct dims columns side by side, one step per call.
"""

from __future__ import annotations

from collections import namedtuple
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

#: Most padded ``(call, row)`` measurement ids one pass of
#: :meth:`MachineModel._plans_batch` covers, and the most ids of the
#: widest plan in one row block.  A pass holds about a dozen 8-byte
#: arrays of this length and a block a few per slot, so the bound caps
#: the working set (one pass over 20,000 rows of a 6-call sum4 plan
#: would otherwise hold 120,000 ids) while a 128-row batch of all 25
#: sum4 plans (19,200 ids) still shares one pass.
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


#: A call as the machine pass reads it from a plan's steps.
_Step = namedtuple("_Step", "kernel dims reads_previous")


def _as_steps(plans: Sequence[Sequence[KernelCallBatch]]):
    """``(instances, steps)`` of call batches, as the pass reads plans.

    The instance matrix holds each distinct dims column of the call
    batches once and each call is one step over its columns, so equal
    calls share a slot, as an expression's steps do.
    """
    if not all(plans):
        raise ValueError("algorithm batch needs at least one call")
    n = plans[0][0].n if plans else 0
    column_of: dict = {}
    steps = []
    for calls in plans:
        steps.append([])
        for call in calls:
            if call.n != n:
                raise ValueError(f"call batches span {call.n} and {n} rows")
            dims = tuple(
                column_of.setdefault(c.tobytes(), (len(column_of), c))[0]
                for c in call.dims.T
            )
            steps[-1].append(_Step(call.kernel, dims, call.reads_previous))
    instances = np.empty((n, len(column_of)), dtype=np.int64)
    for j, column in column_of.values():
        instances[:, j] = column
    return instances, steps


class _Block:
    """What the passes over one row block share.

    Per slot: its kernel, its dims and base seconds at its run heads,
    and its run index (the run of each row, None when every row heads
    one).  Each kernel's base seconds come from one
    ``kernel_seconds_batch`` over its slots' head dims stacked
    row-wise, in calls of at most :data:`_PASS_IDS` rows; the times
    treat rows independently, so stacking changes no bit.  Per
    (producer, consumer) pair: the consumer's base seconds with the
    producer's interference, at every row.
    """

    __slots__ = ("n", "kernels", "dims", "bases", "runs", "interfered")

    def __init__(self, machine: "MachineModel", rows, slots, pairs) -> None:
        self.n = rows.shape[0]
        # changed[j, i]: column j differs between rows i and i + 1.  A
        # slot reading a column that changes at every row has no runs.
        changed = np.ascontiguousarray((rows[1:] != rows[:-1]).T)
        always = changed.all(axis=1).tolist()
        runs: dict = {}
        paired = {slot for pair in pairs for slot in pair}
        calls: dict = {}
        by_kernel: dict = {}
        self.kernels, self.dims, self.runs = [], [], []
        for slot, (kernel, columns) in enumerate(slots):
            if columns not in runs:
                runs[columns] = _runs(changed, always, columns)
            head, run = runs[columns]
            dims = rows[:, columns]
            if slot in paired:
                calls[slot] = KernelCallBatch(kernel, dims)
            if head is not None:
                dims = dims[head]
            self.kernels.append(kernel)
            self.dims.append(dims)
            self.runs.append(run)
            by_kernel.setdefault(kernel, []).append(slot)
        # A slot has at most n head rows, so this many slots stacked
        # stay within _PASS_IDS rows.
        per_call = _PASS_IDS // self.n
        self.bases = [None] * len(slots)
        for kernel, members in by_kernel.items():
            for first in range(0, len(members), per_call):
                group = members[first:first + per_call]
                bases = machine.kernel_seconds_batch(
                    kernel, np.concatenate([self.dims[s] for s in group])
                )
                start = 0
                for slot in group:
                    stop = start + len(self.dims[slot])
                    self.bases[slot] = bases[start:stop]
                    start = stop
        self.interfered = []
        for producer, consumer in pairs:
            base, run = self.bases[consumer], self.runs[consumer]
            penalty = machine.interference_penalty_batch(
                calls[producer], calls[consumer]
            )
            self.interfered.append(
                (base if run is None else base[run]) * (1.0 + penalty)
            )


def _runs(changed: np.ndarray, always, columns) -> tuple:
    """``(head, run)`` of the slots reading ``columns`` in one block.

    ``head`` marks the rows where a run starts; ``run`` is each row's
    run.  Both are None when every row starts a run.
    """
    if any(always[column] for column in columns):
        return None, None
    head = np.empty(changed.shape[1] + 1, dtype=bool)
    head[0] = True
    np.copyto(head[1:], changed[columns[0]])
    for column in columns[1:]:
        np.logical_or(head[1:], changed[column], out=head[1:])
    if np.count_nonzero(head) == head.size:
        return None, None
    return head, np.cumsum(head) - 1


class MachineModel:
    """Deterministic timing model for one machine configuration."""

    def __init__(
        self,
        spec: MachineSpec,
        noise: Optional[NoiseModel] = None,
        reps: int = 5,
        variant_dispatch: bool = True,
        cache_effects: bool = True,
    ) -> None:
        if reps < 1:
            raise ValueError("reps must be >= 1")
        self.spec = spec
        self.noise = noise if noise is not None else NoiseModel()
        self.reps = reps
        self.variant_dispatch = variant_dispatch
        self.cache_effects = cache_effects
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
        """Per-instance consumer slowdown from the producer's residue.

        Scales with how much of the private cache the consumer's
        working set plus the producer's just-written residue occupy.
        """
        if not self.cache_effects:
            return np.zeros(consumer.n)
        ws_bytes = 8 * consumer.operand_elements()
        residue_bytes = 8 * producer.output_elements()
        occupancy = np.minimum(
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

    def measure_plans_batch(
        self,
        instances,
        plans: Sequence[Sequence],
        contexts: Sequence[str],
        predicted: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``(P, n)`` median measured times of P plans over n instances.

        ``instances`` is an ``(n, n_dims)`` int64 matrix.  ``plans[p]``
        is one algorithm's steps, as ``Plan.steps`` holds them: each
        has a ``kernel``, ``dims`` (instance columns) and
        ``reads_previous``.  ``contexts[p]`` (typically the algorithm
        name) is its noise stream.  ``predicted``, when given, is a
        ``(P, n)`` float64 array that receives
        :meth:`predict_plans_batch`'s result from the same noise draw.
        """
        measured = np.empty((len(plans), len(instances)))
        self._plans_batch(instances, plans, contexts, measured, predicted)
        return measured

    def predict_plans_batch(
        self, instances, plans: Sequence[Sequence], contexts: Sequence[str]
    ) -> np.ndarray:
        """``(P, n)`` sums of per-kernel times (see the measured form)."""
        predicted = np.empty((len(plans), len(instances)))
        self._plans_batch(instances, plans, contexts, None, predicted)
        return predicted

    def _plans_batch(
        self,
        instances,
        plans: Sequence[Sequence],
        contexts: Sequence[str],
        measured: Optional[np.ndarray],
        predicted: Optional[np.ndarray],
    ) -> None:
        """Fill ``(P, n)`` totals: see the module docstring."""
        instances = np.asarray(instances, dtype=np.int64)
        if instances.ndim != 2 or len(plans) != len(contexts):
            raise ValueError(
                f"need an (n, n_dims) matrix and a context per plan, got "
                f"{instances.shape!r}, {len(plans)} plans, {len(contexts)}"
            )
        interfere = measured is not None and self.cache_effects
        slots: dict = {}
        pairs: dict = {}
        calls = []
        for steps in plans:
            if not steps:
                raise ValueError("algorithm batch needs at least one call")
            calls.append([])
            for index, step in enumerate(steps):
                slot = slots.setdefault((step.kernel, step.dims), len(slots))
                pair = None
                if interfere and index and step.reads_previous:
                    previous = calls[-1][-1][0]
                    pair = pairs.setdefault((previous, slot), len(pairs))
                calls[-1].append((slot, pair))
        for totals in (measured, predicted):
            if totals is not None:
                totals[...] = 0.0
        block_rows = max(1, _PASS_IDS // max(map(len, calls), default=1))
        for start in range(0, instances.shape[0], block_rows):
            rows = slice(start, start + block_rows)
            block = _Block(self, instances[rows], list(slots), list(pairs))
            first = 0
            while first < len(calls):
                stop, width = first + 1, len(calls[first])
                while stop < len(calls):
                    wider = max(width, len(calls[stop]))
                    if wider * (stop + 1 - first) * block.n > _PASS_IDS:
                        break
                    stop, width = stop + 1, wider
                self._pass(
                    calls[first:stop],
                    contexts[first:stop],
                    block,
                    None if measured is None else measured[first:stop, rows],
                    None if predicted is None else predicted[first:stop, rows],
                )
                first = stop
            del block  # before the next block's arrays are built

    def _pass(
        self,
        plans: Sequence[Sequence[Tuple[int, Optional[int]]]],
        contexts: Sequence[str],
        block: _Block,
        measured: Optional[np.ndarray],
        predicted: Optional[np.ndarray],
    ) -> None:
        """One pass over a few plans of one row block.

        ``plans[p]`` lists each call's ``(slot, pair)`` in call order.
        Every call's ids are folded and drawn at its slot's run heads;
        its scaled medians are gathered to the block's rows and added
        to its plan's zeroed totals in call order (never a pairwise
        ``np.sum``).  Only the measured time adds its pair's
        interference to its base time; both share the one draw.
        """
        groups: dict = {}
        for p, (plan, context) in enumerate(zip(plans, contexts)):
            context_base = self._stream_base(context)
            for index, (slot, _) in enumerate(plan):
                kernel = block.kernels[slot]
                keys, heads, dims = groups.setdefault(
                    KERNEL_ARITY[kernel], ([], [], [])
                )
                keys.append((p, index))
                heads.append(self._id_head(context_base, index, kernel))
                dims.append(block.dims[slot])
        spans, folded, size = {}, [], 0
        for keys, heads, dims in groups.values():
            counts = [d.shape[0] for d in dims]
            folded.append(
                fold_columns(
                    np.repeat(np.array(heads, dtype=np.uint64), counts),
                    np.concatenate(dims),
                )
            )
            for key, count in zip(keys, counts):
                spans[key] = slice(size, size + count)
                size += count
        low, high = self._median_factors(np.concatenate(folded))
        for p, plan in enumerate(plans):
            for index, (slot, pair) in enumerate(plan):
                lo = low[spans[p, index]]
                hi = None if high is None else high[spans[p, index]]
                run = block.runs[slot]
                isolated = self._scaled_median(block.bases[slot], lo, hi)
                if run is not None:
                    isolated = isolated[run]
                if predicted is not None:
                    predicted[p] += isolated
                if measured is not None and pair is None:
                    measured[p] += isolated
                elif measured is not None:
                    if run is not None:
                        lo = lo[run]
                        hi = None if hi is None else hi[run]
                    measured[p] += self._scaled_median(
                        block.interfered[pair], lo, hi
                    )

    def measure_algorithms_batch(
        self,
        plans: Sequence[Sequence[KernelCallBatch]],
        contexts: Sequence[str],
        predicted: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``(P, n)`` median measured times of P whole-algorithm runs.

        ``plans[p]`` is one algorithm's call batches, all spanning the
        same n rows, measured as :meth:`measure_plans_batch` measures
        steps; ``contexts`` and ``predicted`` are as there.
        """
        instances, steps = _as_steps(plans)
        return self.measure_plans_batch(
            instances, steps, contexts, predicted=predicted
        )

    def predict_algorithms_batch(
        self,
        plans: Sequence[Sequence[KernelCallBatch]],
        contexts: Sequence[str],
    ) -> np.ndarray:
        """``(P, n)`` sums of per-kernel times (see the single-plan form)."""
        return self.predict_plans_batch(*_as_steps(plans), contexts)

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
