"""Plan scheduler equivalence contracts.

The scheduler (:mod:`repro.expressions.scheduler`) sits between the
compiler and codegen and must be a pure perf layer: the generated
executor, which applies its decisions, equals the interpreted
``Plan.execute`` (the oracle) **bit for bit** on real operands for
every family.  The machine's fused measurement pass is held to
separate per-call ``np.median`` passes in
``tests/test_shared_noise_pass.py``.
"""

import random

import numpy as np
import pytest

from repro.backends.simulated import SimulatedBackend
from repro.expressions.codegen import compiled_plan
from repro.expressions.compiler import compile_add_plans
from repro.expressions.ir import AddExpr, Leaf
from repro.expressions.registry import get_expression
from repro.expressions.scheduler import (
    clear_scheduler_caches,
    last_uses,
    schedule_decisions,
    scheduler_stats,
    step_reads,
)
from repro.machine.presets import paper_machine

#: The registered families plus two pattern-compiled ones (sum6 runs
#: the cost-guided pruning pass and carries a GEMM accumulation;
#: addchain4 is a pure ADD chain).
FAMILIES = (
    "aatb", "chain4", "gram3", "tri4", "sum3", "addchain3", "solve3",
    "sum6", "addchain4",
)


def _instances(n_dims, seed=11, count=3):
    return [
        tuple(
            random.Random(seed + i).randint(2, 24) for _ in range(n_dims)
        )
        for i in range(count)
    ]


def _add_chain(n_leaves, rows=60, cols=50, seed=5):
    leaves = tuple(
        Leaf(operand=i, rows=0, cols=1, label=f"M{i}")
        for i in range(n_leaves)
    )
    (plan,) = compile_add_plans(f"addfuse{n_leaves}", AddExpr(leaves))
    rng = np.random.default_rng(seed)
    operands = [
        np.asfortranarray(rng.standard_normal((rows, cols)))
        for _ in range(n_leaves)
    ]
    return plan, operands


@pytest.mark.parametrize("family", FAMILIES)
def test_scheduled_executors_bit_equal_to_plan_execute(family):
    expression = get_expression(family)
    for plan in expression.plans():
        for i, instance in enumerate(_instances(expression.n_dims)):
            operands = expression.make_operands(
                instance, np.random.default_rng(23 + i)
            )
            reference = plan.execute(operands)
            generated = compiled_plan(plan).execute(operands)
            assert generated.dtype == reference.dtype
            assert np.array_equal(generated, reference)


def test_add_chain_fuses_into_one_accumulator():
    plan, operands = _add_chain(6)
    decisions = schedule_decisions(plan)
    # Five ADD steps; every step after the first accumulates in place
    # into its dying step operand's buffer.
    assert decisions.fuse_into == (None, 0, 1, 2, 3)
    code = compiled_plan(plan)
    assert np.array_equal(code.execute(operands), plan.execute(operands))
    # The emitted executor reuses one buffer through the whole chain.
    assert code.source["execute"].count("out=t0") == 4


def test_dependency_graph_and_liveness_helpers():
    plan, _ = _add_chain(4)
    assert [step_reads(s) for s in plan.steps] == [(), (0,), (1,)]
    assert last_uses(plan.steps) == [1, 2, 3]


def test_syrk_copy_materialization_dropped_when_single_consumer():
    clear_scheduler_caches()
    expression = get_expression("aatb")
    plans = {a.name: p for p, a in zip(expression.plans(), expression.algorithms())}
    plan = plans["aatb-2:syrk+copy+gemm"]
    assert plan.steps[0].copy_to_full
    decisions = schedule_decisions(plan)
    assert decisions.inplace_fill[0]
    stats = scheduler_stats()
    assert stats["plans_scheduled"] >= 1
    assert stats["copies_dropped"] >= 1
    instance = (6, 9, 4)
    operands = expression.make_operands(instance, np.random.default_rng(1))
    code = compiled_plan(plan)
    assert "_symmetrize(t0)" in code.source["execute"]
    assert np.array_equal(code.execute(operands), plan.execute(operands))


def _probe(n_dims, start=20, stride=11):
    return tuple(start + stride * i for i in range(n_dims))


def test_scalar_and_batch_paths_agree_on_sum3():
    backend = SimulatedBackend(paper_machine(seed=1))
    expression = get_expression("sum3")
    instance = _probe(expression.n_dims, start=30)
    for algorithm in expression.algorithms():
        scalar = backend.time_algorithm(algorithm, instance)
        batch = backend.time_algorithms(algorithm, [instance])
        assert scalar == batch[0]
        assert backend.predict_time(algorithm, instance) == (
            backend.predict_times(algorithm, [instance])[0]
        )


def test_clear_scheduler_caches_resets_stats():
    schedule_decisions(get_expression("aatb").plans()[0])
    assert scheduler_stats()["plans_scheduled"] >= 1
    clear_scheduler_caches()
    assert set(scheduler_stats().values()) == {0}
    # Decisions recompute cleanly after the drop.
    schedule_decisions(get_expression("aatb").plans()[0])
    assert scheduler_stats()["plans_scheduled"] == 1
