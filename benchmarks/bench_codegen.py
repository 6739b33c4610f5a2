"""Plan codegen vs the interpreted FLOP evaluation on the study hot loop.

Batch FLOP evaluation (every ``evaluate_instances`` / ``batch_flops``
call) is the study hot loop's generated code: the per-plan FLOP
evaluators (:mod:`repro.expressions.codegen`) are ``compile()``d
closed-form column arithmetic.  This bench pins their speedup at
≥ 3× aggregated over the registered families at 1000-instance
batches, and the contract that the generated FLOP matrix equals the
interpreted one exactly.

The interpreter side below is the literal pre-codegen path: whole
instance columns through each algorithm's FLOP polynomial — the
oracle the generated functions are tested against.
"""

import random
import time

import numpy as np

from repro.core.classify import batch_flops
from repro.core.searchspace import paper_box
from repro.expressions.registry import get_expression

N_INSTANCES = 1000
MIN_SPEEDUP = 3.0
#: Each measurement times ``LOOPS`` back-to-back evaluations (the
#: per-call cost is sub-millisecond, so a single call is dominated by
#: timer and allocator noise).  A round measures the interpreted side,
#: then the generated side; the best of ``REPEATS`` rounds is each
#: side's per-call estimate.
REPEATS = 7
LOOPS = 10

FAMILIES = (
    "aatb", "chain4", "gram3", "tri4", "sum3", "addchain3", "solve3",
)


def _instances_matrix(expression, seed):
    rng = random.Random(seed)
    box = paper_box(expression.n_dims)
    return np.asarray(
        [box.sample(rng) for _ in range(N_INSTANCES)], dtype=np.int64
    )


def _interpreted(algorithms, arr):
    """The pre-codegen hot loop: each polynomial over whole columns."""
    columns = tuple(arr[:, i] for i in range(arr.shape[1]))
    return np.stack(
        [np.asarray(a.flops(columns), dtype=np.int64) for a in algorithms],
        axis=1,
    )


def _generated(algorithms, arr):
    """The codegen hot loop: shared compiled FLOP evaluators."""
    return batch_flops(algorithms, arr)


def _paired_best(algorithms, arr):
    """Best per-call seconds of both sides, timed in the same rounds.

    Pairing the two windows in every round means a slow spell of a
    shared host slows both sides of that round, not one side's whole
    window.
    """
    best_interpreted = best_generated = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(LOOPS):
            flops_i = _interpreted(algorithms, arr)
        t1 = time.perf_counter()
        for _ in range(LOOPS):
            flops_g = _generated(algorithms, arr)
        t2 = time.perf_counter()
        best_interpreted = min(best_interpreted, (t1 - t0) / LOOPS)
        best_generated = min(best_generated, (t2 - t1) / LOOPS)
    return best_interpreted, flops_i, best_generated, flops_g


def test_codegen_batch_evaluators_speedup(run_once, fig_config):
    cases = []
    for family in FAMILIES:
        expression = get_expression(family)
        algorithms = expression.algorithms()
        arr = _instances_matrix(expression, fig_config.seed + 31)
        # Warm both paths (codegen compiles lazily on first use).
        _generated(algorithms, arr)
        _interpreted(algorithms, arr)
        cases.append((family, algorithms, arr))

    def run_all_generated():
        return [_generated(algorithms, arr) for _, algorithms, arr in cases]

    run_once(run_all_generated)

    print()
    total_interpreted = total_generated = 0.0
    for family, algorithms, arr in cases:
        interpreted_s, flops_i, generated_s, flops_g = _paired_best(
            algorithms, arr
        )
        total_interpreted += interpreted_s
        total_generated += generated_s
        speedup = interpreted_s / generated_s
        print(
            f"{family:<10} interpreted {interpreted_s * 1e3:7.2f}ms   "
            f"codegen {generated_s * 1e3:6.2f}ms   speedup {speedup:5.2f}x"
        )
        # Exact agreement: the same FLOP matrix.
        assert flops_g.tolist() == flops_i.tolist()

    total = total_interpreted / total_generated
    print(
        f"{'TOTAL':<10} interpreted {total_interpreted * 1e3:7.2f}ms   "
        f"codegen {total_generated * 1e3:6.2f}ms   speedup {total:5.2f}x"
    )
    assert total >= MIN_SPEEDUP
