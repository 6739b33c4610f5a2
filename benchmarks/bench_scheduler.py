"""The machine's fused measurement pass vs a per-call loop.

``MachineModel.measure_plans_batch`` over every algorithm's
``Plan.steps`` of five registered families at small (25-instance)
batches, one call per family, as ``SimulatedBackend`` calls it.  The
machine compiles the family's call table (slots, pairs, call order
and id heads) on the first call and reuses it; the pass
(:meth:`repro.machine.machine.MachineModel._pass`) computes each
slot's base seconds once, draws the noise factors of all the
family's calls at their run heads in one draw (random rows: every
row heads a run) and takes their median order statistics once; the
baseline below, :func:`_per_call_loop`, draws the noise and takes one
``np.median`` per call of the interpreted call batches.  Results are
bit-equal, because the median of positively scaled factors is the
scaled median factor, and asserted so below.

The gate is the *aggregate* speedup (summed baseline time over summed
fused time) at >= 1.3x; measured headroom is ~3.5x (2.9-4.3x per run
on a shared 2-vCPU host).
"""

import random
import time

import numpy as np

from repro.core.searchspace import paper_box
from repro.expressions.registry import get_expression
from repro.kernels.types import batch_kernel_calls
from repro.machine.presets import paper_machine

N_INSTANCES = 25
MIN_SPEEDUP = 1.3
#: Best-of-``REPEATS`` timing of ``LOOPS`` back-to-back runs, the same
#: estimator bench_codegen.py uses.
REPEATS = 7
LOOPS = 10

FAMILIES = ("aatb", "chain4", "gram3", "sum3", "solve3")


def _instances_matrix(expression, seed):
    rng = random.Random(seed)
    box = paper_box(expression.n_dims)
    return np.asarray(
        [box.sample(rng) for _ in range(N_INSTANCES)], dtype=np.int64
    )


def _measure_all(machine, arr, plans, names):
    return machine.measure_plans_batch(arr, plans, names)


def _per_call_loop(machine, calls, context_base, measured, predicted, bases):
    """The per-call loop: one noise and median pass per call.

    Each call draws its noise factors once and takes ``np.median`` of
    the scaled factors for each requested column.  ``bases`` memoises
    the noise-free base seconds by ``(kernel, dims bytes)`` across
    calls, plans and repetitions, so the baseline never recomputes one.
    """
    measured_total = np.zeros(calls[0].n)
    predicted_total = np.zeros(calls[0].n)
    previous = None
    for index, call in enumerate(calls):
        key = (call.kernel, np.ascontiguousarray(call.dims).tobytes())
        base = bases.get(key)
        if base is None:
            base = bases[key] = machine.kernel_seconds_batch(
                call.kernel, call.dims
            )
        ids = machine._measurement_ids(
            context_base, index, call.kernel, call.dims
        )
        factors = machine.noise.factors_from_ids(ids, machine.reps)
        if predicted:
            predicted_total = predicted_total + np.median(
                base[:, None] * factors, axis=1
            )
        if measured:
            if previous is not None and call.reads_previous:
                base = base * (
                    1.0 + machine.interference_penalty_batch(
                        previous.kernel, previous.dims, call.kernel, call.dims
                    )
                )
            measured_total = measured_total + np.median(
                base[:, None] * factors, axis=1
            )
        previous = call
    return (
        measured_total if measured else None,
        predicted_total if predicted else None,
    )


def _measure_all_per_call(machine, cases, bases):
    return [
        _per_call_loop(
            machine, batches, machine._stream_base(name), True, False, bases
        )[0]
        for name, batches in cases
    ]


def _best_of(fn, *args):
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(LOOPS):
            result = fn(*args)
        best = min(best, (time.perf_counter() - t0) / LOOPS)
    return best, result


def test_scheduler_measurement_speedup(run_once, fig_config):
    family_cases = []
    for family in FAMILIES:
        expression = get_expression(family)
        arr = _instances_matrix(expression, fig_config.seed + 47)
        algorithms = expression.algorithms()
        columns = tuple(arr[:, i] for i in range(arr.shape[1]))
        cases = [
            (a.name, batch_kernel_calls(a.kernel_calls(columns), len(arr)))
            for a in algorithms
        ]
        fused = (
            arr,
            [a.plan.steps for a in algorithms],
            [a.name for a in algorithms],
        )
        family_cases.append(
            (family, paper_machine(seed=fig_config.seed), cases, fused, {})
        )

    # Warm both paths (call tables compile and noise tables fill on
    # first use) before any timing.
    for _, machine, cases, fused, bases in family_cases:
        _measure_all(machine, *fused)
        _measure_all_per_call(machine, cases, bases)

    def run_all_fused():
        return [
            _measure_all(machine, *fused)
            for _, machine, _, fused, _ in family_cases
        ]

    run_once(run_all_fused)

    print()
    total_legacy = total_fused = 0.0
    for family, machine, cases, fused, bases in family_cases:
        legacy_s, times_l = _best_of(
            _measure_all_per_call, machine, cases, bases
        )
        fused_s, times_f = _best_of(_measure_all, machine, *fused)
        total_legacy += legacy_s
        total_fused += fused_s
        print(
            f"{family:<10} legacy {legacy_s * 1e3:7.2f}ms   "
            f"fused {fused_s * 1e3:6.2f}ms   "
            f"speedup {legacy_s / fused_s:5.2f}x"
        )
        # The fused measurement pass is bit-equal to the per-call loop.
        for got, want in zip(times_f, times_l):
            assert np.array_equal(got, want)

    total = total_legacy / total_fused
    print(
        f"{'TOTAL':<10} legacy {total_legacy * 1e3:7.2f}ms   "
        f"fused {total_fused * 1e3:6.2f}ms   speedup {total:5.2f}x"
    )
    assert total >= MIN_SPEEDUP
