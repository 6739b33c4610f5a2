"""Plan scheduler vs the unscheduled paths on the measurement hot loop.

Two workloads, one aggregate gate:

* **Measurement fusion** — ``MachineModel.measure_algorithm_batch``
  over every algorithm of five registered families at small
  (25-instance) batches.  The scheduler's path
  (:meth:`repro.machine.machine.MachineModel._algorithm_batch`) draws
  the noise factors of all of an algorithm's calls in one stacked
  pass and takes their median order statistics once;
  ``REPRO_NO_SCHEDULER=1`` is the per-call loop, one noise draw and
  one ``np.median`` per call.  Results are bit-equal, because the
  median of positively scaled factors is the scaled median factor,
  and asserted so below.

* **Fused ADD execution** — an 8-leaf elementwise sum lowered by
  :func:`repro.expressions.compiler.compile_add_plans` and executed on
  real 600x500 operands.  The scheduled executor accumulates in place
  through dying buffers (one allocation for the whole chain) instead
  of allocating per ADD.

The gate is the *aggregate* speedup (summed unscheduled time over
summed scheduled time) at >= 1.3x; measured headroom is ~1.5x for the
measurement workload and ~1.9x for the ADD chain.
"""

import os
import random
import time

import numpy as np

from repro.core.searchspace import paper_box
from repro.expressions.compiler import compile_add_plans
from repro.expressions.codegen import compiled_plan
from repro.expressions.ir import AddExpr, Leaf
from repro.expressions.registry import get_expression
from repro.machine.presets import paper_machine

N_INSTANCES = 25
MIN_SPEEDUP = 1.3
#: Best-of-``REPEATS`` timing of ``LOOPS`` back-to-back runs, the same
#: estimator bench_codegen.py uses.
REPEATS = 7
LOOPS = 10

FAMILIES = ("aatb", "chain4", "gram3", "sum3", "solve3")

ADD_LEAVES = 8
ADD_SHAPE = (600, 500)


def _instances_matrix(expression, seed):
    rng = random.Random(seed)
    box = paper_box(expression.n_dims)
    return np.asarray(
        [box.sample(rng) for _ in range(N_INSTANCES)], dtype=np.int64
    )


def _measure_all(machine, cases):
    return [
        machine.measure_algorithm_batch(batches, context=name)
        for name, batches in cases
    ]


def _without_scheduler(fn, *args):
    """Run ``fn`` under ``REPRO_NO_SCHEDULER=1``, restoring the env."""
    saved = os.environ.get("REPRO_NO_SCHEDULER")
    os.environ["REPRO_NO_SCHEDULER"] = "1"
    try:
        return fn(*args)
    finally:
        if saved is None:
            del os.environ["REPRO_NO_SCHEDULER"]
        else:
            os.environ["REPRO_NO_SCHEDULER"] = saved


def _best_of(fn, *args):
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(LOOPS):
            result = fn(*args)
        best = min(best, (time.perf_counter() - t0) / LOOPS)
    return best, result


def _add_chain_case(seed):
    """An 8-leaf ADD chain plan plus real F-order operands."""
    leaves = tuple(
        Leaf(operand=i, rows=0, cols=1, label=f"M{i}")
        for i in range(ADD_LEAVES)
    )
    (plan,) = compile_add_plans("bench_addchain", AddExpr(leaves))
    rng = np.random.default_rng(seed)
    operands = [
        np.asfortranarray(rng.standard_normal(ADD_SHAPE))
        for _ in range(ADD_LEAVES)
    ]
    return plan, operands


def test_scheduler_measurement_and_fusion_speedup(run_once, fig_config):
    family_cases = []
    for family in FAMILIES:
        expression = get_expression(family)
        arr = _instances_matrix(expression, fig_config.seed + 47)
        cases = [
            (a.name, a.kernel_call_batches(arr))
            for a in expression.algorithms()
        ]
        family_cases.append((family, paper_machine(seed=fig_config.seed), cases))

    plan, operands = _add_chain_case(fig_config.seed + 48)
    scheduled_exec = compiled_plan(plan, scheduled=True).execute
    plain_exec = compiled_plan(plan, scheduled=False).execute

    # Warm both paths (codegen compiles lazily; noise tables fill on
    # first use) before any timing.
    for _, machine, cases in family_cases:
        _measure_all(machine, cases)
        _without_scheduler(_measure_all, machine, cases)
    scheduled_exec(operands)
    plain_exec(operands)

    def run_all_scheduled():
        return [
            _measure_all(machine, cases)
            for _, machine, cases in family_cases
        ] + [scheduled_exec(operands)]

    run_once(run_all_scheduled)

    print()
    total_legacy = total_scheduled = 0.0
    for family, machine, cases in family_cases:
        legacy_s, times_l = _best_of(
            _without_scheduler, _measure_all, machine, cases
        )
        scheduled_s, times_s = _best_of(_measure_all, machine, cases)
        total_legacy += legacy_s
        total_scheduled += scheduled_s
        print(
            f"{family:<10} legacy {legacy_s * 1e3:7.2f}ms   "
            f"fused {scheduled_s * 1e3:6.2f}ms   "
            f"speedup {legacy_s / scheduled_s:5.2f}x"
        )
        # The fused measurement pass is bit-equal to the per-call loop.
        for got, want in zip(times_s, times_l):
            assert np.array_equal(got, want)

    plain_s, result_plain = _best_of(plain_exec, operands)
    scheduled_s, result_sched = _best_of(scheduled_exec, operands)
    total_legacy += plain_s
    total_scheduled += scheduled_s
    print(
        f"{'addchain8':<10} legacy {plain_s * 1e3:7.2f}ms   "
        f"fused {scheduled_s * 1e3:6.2f}ms   "
        f"speedup {plain_s / scheduled_s:5.2f}x"
    )
    assert np.array_equal(result_sched, result_plain)

    total = total_legacy / total_scheduled
    print(
        f"{'TOTAL':<10} legacy {total_legacy * 1e3:7.2f}ms   "
        f"fused {total_scheduled * 1e3:6.2f}ms   speedup {total:5.2f}x"
    )
    assert total >= MIN_SPEEDUP
