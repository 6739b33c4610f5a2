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
plans make 150 calls over 20 slots.  A plan set's slots, its
(producer, consumer) slot pairs and its call order never change, so a
**call table** compiles them once (cached per machine for step
tuples, as ``Plan.steps`` holds them): each call's slot, pair and
index as int arrays, and its id head (context, call index and kernel
folded) in one uint64 array.  A **run** is a maximal block of
consecutive rows whose values in a slot's columns do not change; its
first row is its head.  Along a region ray, every call that does not
read the walked dim repeats the row above.  Rows are measured in
blocks of at most ``_PASS_IDS // width`` rows (``width``: the widest
plan's calls).  Per block, base seconds are computed once per slot
at its run heads, in one ``kernel_seconds_batch`` per kernel over
its slots stacked, and interference once per pair at every row.  In
a block, consecutive plans share one *pass* while its padded
``(call, row)`` ids fit in :data:`_PASS_IDS`.  A pass is a few array
operations whatever its call count: per kernel arity one gather of
its calls' head dims and one
:func:`~repro.machine.noise.fold_columns`, one
:meth:`MachineModel._median_factors` draw, one gather of the scaled
medians to the rows through the run indexes, and then, for each k,
one add of every plan's k-th call.

Gathering is exact: a call's id, base time and noise are functions of
its dims (with its context, index and kernel), and every row of a run
has its head's values in the slot's columns, so a gather copies the
bits the row would compute.  Noise is elementwise in the ids, and
base times and interference in the dims, so grouping plans into
passes and rows into blocks changes no bit either.  Each plan's total
is still ``0.0 + call 0 + call 1 + ...`` in call order; the adds only
interleave the plans.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.kernels.flops import kernel_flops_batch
from repro.kernels.types import (
    KERNEL_ARITY,
    KernelName,
    operand_elements,
    output_elements,
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


class _CallTable:
    """One plan set's calls, interned once (see the module docstring).

    ``slots``: the distinct ``(kernel, columns)`` calls, by arity and
    kernel, so each kernel's are contiguous (``kernels``: ``(kernel,
    first, stop)``); ``columns``: theirs as ``(S, 3)``, padded with
    repeats, which move no run head.  Per call, plan by plan: ``slot``,
    ``pair`` (into ``pairs``; -1 when it reads no previous output),
    ``index``, ``plan`` and ``heads``.
    """

    def __init__(self, machine: "MachineModel", plans, contexts) -> None:
        if not all(plans):
            raise ValueError("algorithm batch needs at least one call")
        # Pins the step sequences, so no id in a cache key is reused.
        self.plans = tuple(plans)
        steps = [step for plan in plans for step in plan]
        keys = [(step.kernel, tuple(step.dims)) for step in steps]
        self.slots = sorted(
            dict.fromkeys(keys),
            key=lambda key: (KERNEL_ARITY[key[0]], _KERNEL_TOKEN[key[0]]),
        )
        self.columns = np.array(
            [(columns * 3)[:3] for _, columns in self.slots], dtype=np.intp
        ).reshape(-1, 3)
        kernels = [kernel for kernel, _ in self.slots]
        self.arity = np.array([KERNEL_ARITY[kernel] for kernel in kernels])
        self.kernels = [
            (kernel, kernels.index(kernel), kernels.index(kernel) + count)
            for kernel, count in Counter(kernels).items()
        ]
        slot_of = {key: slot for slot, key in enumerate(self.slots)}
        slots = [slot_of[key] for key in keys]
        self.lengths = [len(plan) for plan in plans]
        self.starts = np.cumsum([0] + self.lengths)
        self.slot = np.array(slots, dtype=np.intp)
        self.plan = np.repeat(np.arange(len(plans)), self.lengths)
        self.index = np.arange(len(keys)) - self.starts[self.plan]
        pairs: dict = {}
        self.pair = np.array([
            pairs.setdefault((slots[c - 1], slots[c]), len(pairs))
            if index and step.reads_previous else -1
            for c, (index, step) in enumerate(zip(self.index.tolist(), steps))
        ], dtype=np.intp)
        self.pairs = list(pairs)
        bases = [machine._stream_base(context) for context in contexts]
        self.heads = fold(
            fold(np.array(bases, dtype=np.uint64)[self.plan], self.index),
            [_KERNEL_TOKEN[kernel] for kernel, _ in keys],
        )
        self.layouts: dict = {}

    def layout(self, first: int, stop: int) -> tuple:
        """Plans ``first`` to ``stop`` as a pass reads them, compiled once.

        ``(groups, order, slots, steps, paired, pairs)``: each arity
        group's arity, call slots and id heads, in draw order; the
        calls in call-major order (call index, then plan) as places in
        the draw and as slots; per k, the plans with a k-th call (None
        for all) and those calls' slice of the call-major order; and
        the call-major places of the calls with a pair, and the pairs.
        """
        layout = self.layouts.get((first, stop))
        if layout is None:
            lo, hi = self.starts[first], self.starts[stop]
            slots, heads = self.slot[lo:hi], self.heads[lo:hi]
            arity = self.arity[slots]
            groups = [
                (group, slots[arity == group], heads[arity == group])
                for group in np.unique(arity).tolist()
            ]
            place = np.empty(hi - lo, dtype=np.intp)
            place[np.argsort(arity, kind="stable")] = np.arange(hi - lo)
            index, plan = self.index[lo:hi], self.plan[lo:hi] - first
            major = np.lexsort((plan, index))
            bounds = np.cumsum([0] + np.bincount(index).tolist()).tolist()
            steps = [
                (None if b - a == stop - first else plan[major[a:b]],
                 slice(a, b))
                for a, b in zip(bounds, bounds[1:])
            ]
            pair = self.pair[lo:hi][major]
            paired = np.flatnonzero(pair >= 0)
            layout = self.layouts[first, stop] = (
                groups, place[major], slots[major], steps, paired, pair[paired]
            )
        return layout


class _Block:
    """What the passes over one row block share.

    ``dims``: the slots' dims at their run heads as ``(3, heads)``, slot
    ``s``'s from ``offsets[s]`` to ``offsets[s + 1]``; ``bases``: their
    base seconds, one ``kernel_seconds_batch`` per kernel over its
    slots in calls of at most :data:`_PASS_IDS` rows (rowwise, so
    stacking changes no bit).  ``runs``: each slot's run of each row,
    None when every row heads one.  ``interfered``: per pair, the
    consumer's base seconds with the producer's interference at every
    row (None when no interference is measured).
    """

    __slots__ = ("n", "dims", "bases", "offsets", "runs", "interfered")

    def __init__(
        self, machine: "MachineModel", table: _CallTable, rows, interfere
    ) -> None:
        n = self.n = rows.shape[0]
        # head[s, i]: row i heads a run of slot s, as the first row or
        # where a column the slot reads differs from the row above.
        head = np.ones((len(table.slots), n), dtype=bool)
        changed = np.ascontiguousarray((rows[1:] != rows[:-1]).T)
        np.any(changed[table.columns], axis=1, out=head[:, 1:])
        dims = rows.T[table.columns.T]
        offsets = self.offsets = np.arange(len(table.slots) + 1) * n
        self.runs = None
        if not head.all():
            self.runs = np.cumsum(head, axis=1) - 1
            np.cumsum(self.runs[:, -1] + 1, out=offsets[1:])
            dims = dims[:, head]
        self.dims = dims.reshape(3, -1)
        self.bases = np.empty(self.dims.shape[1])
        for kernel, first, last in table.kernels:
            stop = offsets[last]
            for start in range(offsets[first], stop, _PASS_IDS):
                end = min(start + _PASS_IDS, stop)
                self.bases[start:end] = machine.kernel_seconds_batch(
                    kernel, self.dims[:KERNEL_ARITY[kernel], start:end].T
                )
        self.interfered = None
        if interfere and table.pairs:
            self.interfered = np.empty((len(table.pairs), n))
            for q, (producer, consumer) in enumerate(table.pairs):
                base = self.bases[offsets[consumer]:offsets[consumer + 1]]
                if self.runs is not None:
                    base = base[self.runs[consumer]]
                producer_kernel, producer_columns = table.slots[producer]
                consumer_kernel, consumer_columns = table.slots[consumer]
                penalty = machine.interference_penalty_batch(
                    producer_kernel, rows[:, producer_columns],
                    consumer_kernel, rows[:, consumer_columns],
                )
                np.multiply(base, 1.0 + penalty, out=self.interfered[q])


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
        self._tables: dict = {}

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
        self,
        producer: KernelName,
        producer_dims,
        consumer: KernelName,
        consumer_dims,
    ) -> np.ndarray:
        """Per-instance consumer slowdown from the producer's residue.

        ``producer_dims`` and ``consumer_dims`` are the two calls'
        ``(n, arity)`` dims matrices, row by row the same instances.
        Scales with how much of the private cache the consumer's
        working set plus the producer's just-written residue occupy.
        """
        producer_dims = _as_dims_matrix(producer, producer_dims)
        consumer_dims = _as_dims_matrix(consumer, consumer_dims)
        if not self.cache_effects:
            return np.zeros(consumer_dims.shape[0])
        ws_bytes = 8 * operand_elements(consumer, consumer_dims)
        residue_bytes = 8 * output_elements(producer, producer_dims)
        occupancy = np.minimum(
            1.0, (ws_bytes + residue_bytes) / self.spec.l2_bytes
        )
        return _INTERFERENCE[producer] * occupancy

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
        ids = np.array([context_base], dtype=np.uint64)
        if index is not None:
            ids = fold(ids, index)
        return fold(ids, _KERNEL_TOKEN[kernel])[0]

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
        name) is its noise stream: two algorithms sharing a kernel call
        still time it independently, as on real hardware.
        ``predicted``, when given, is a ``(P, n)`` float64 array that
        receives :meth:`predict_plans_batch`'s result from the same
        noise draw.
        """
        measured = np.empty((len(plans), len(instances)))
        self._plans_batch(instances, plans, contexts, measured, predicted)
        return measured

    def predict_plans_batch(
        self, instances, plans: Sequence[Sequence], contexts: Sequence[str]
    ) -> np.ndarray:
        """``(P, n)`` sums of per-kernel times (see the measured form).

        Experiment 3's benchmark predictor: the same noise streams as
        the measurement without the inter-kernel interference, so the
        prediction error isolates exactly the cache effects.
        """
        predicted = np.empty((len(plans), len(instances)))
        self._plans_batch(instances, plans, contexts, None, predicted)
        return predicted

    # Kept only because ``benchmarks/pipeline/tracing.py`` wraps the
    # method under this name; nothing in the program calls it.
    measure_algorithm_batch = measure_plans_batch

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
        key = (tuple(map(id, plans)), tuple(contexts))
        table = self._tables.get(key)
        if table is None or any(a is not b for a, b in zip(table.plans, plans)):
            table = _CallTable(self, plans, contexts)
            # An identity key is sound for immutable step sequences only.
            if all(isinstance(steps, tuple) for steps in plans):
                self._tables[key] = table
        interfere = measured is not None and self.cache_effects
        for totals in (measured, predicted):
            if totals is not None:
                totals[...] = 0.0
        lengths = table.lengths
        block_rows = max(1, _PASS_IDS // max(lengths, default=1))
        for start in range(0, instances.shape[0], block_rows):
            rows = slice(start, start + block_rows)
            block = _Block(self, table, instances[rows], interfere)
            first = 0
            while first < len(lengths):
                stop, width = first + 1, lengths[first]
                while stop < len(lengths):
                    wider = max(width, lengths[stop])
                    if wider * (stop + 1 - first) * block.n > _PASS_IDS:
                        break
                    stop, width = stop + 1, wider
                self._pass(
                    range(first, stop),
                    table,
                    block,
                    None if measured is None else measured[first:stop, rows],
                    None if predicted is None else predicted[first:stop, rows],
                )
                first = stop
            del block  # before the next block's arrays are built

    def _pass(
        self,
        plans: range,
        table: _CallTable,
        block: _Block,
        measured: Optional[np.ndarray],
        predicted: Optional[np.ndarray],
    ) -> None:
        """One pass over a few plans of one row block.

        Array operations only (see the module docstring).  Each plan
        adds its calls to its zeroed totals in call order, never by a
        pairwise ``np.sum``.  Only the measured time adds its pair's
        interference to its base time; both share the one draw.
        """
        groups, order, slots, steps, paired, pairs = table.layout(
            plans.start, plans.stop
        )
        n, ids, bases, counts = block.n, [], [], []
        for arity, group, heads in groups:
            if block.runs is None:
                dims = block.dims.reshape(3, -1, n)[:arity, group]
                base, count = block.bases.reshape(-1, n)[group], n
            else:
                start = block.offsets[group]
                count = block.offsets[group + 1] - start
                at = np.arange(count.sum()) + np.repeat(
                    start - np.cumsum(count) + count, count
                )
                dims, base = block.dims[:arity, at], block.bases[at]
                counts.append(count)
            ids.append(
                fold_columns(np.repeat(heads, count), dims.reshape(arity, -1).T)
            )
            bases.append(base.reshape(-1))
        low, high = self._median_factors(np.concatenate(ids))
        scaled = self._scaled_median(np.concatenate(bases), low, high)
        if block.runs is None:
            # Every call has n ids: gather whole rows.
            shape, at = (-1, n), order
        else:
            count = np.concatenate(counts)
            start = np.cumsum(count) - count
            shape, at = (-1,), start[order, None] + block.runs[slots]
        isolated = values = scaled.reshape(shape)[at]
        interfere = measured is not None and block.interfered is not None
        if interfere and paired.size:
            if predicted is not None:
                values = isolated.copy()
            values[paired] = self._scaled_median(
                block.interfered[pairs],
                low.reshape(shape)[at[paired]],
                None if high is None else high.reshape(shape)[at[paired]],
            )
        for totals, addends in ((predicted, isolated), (measured, values)):
            if totals is None:
                continue
            for with_k, calls in steps:
                if with_k is None:
                    totals += addends[calls]
                else:
                    totals[with_k] += addends[calls]
