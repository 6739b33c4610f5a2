"""Plan-derived FLOP counts and call steps ≡ the interpreter.

Every per-call quantity is computed from ``Plan.steps``; the
interpreter (``Plan.flops``, ``kernel_calls``, ``batch_kernel_calls``)
is the oracle.  For every registered family, plus ``sum6`` (compiled
under the cost-guided pruning pass) and ``chain5``, the slot path
must match it **exactly** on seeded instance batches, up to the
exact-arithmetic bound (:func:`max_exact_dim`):

* :func:`batch_flops` equals ``Plan.flops`` over the instance
  columns, the :func:`flop_polynomial` oracle and the exact Python-int
  ``algorithm.flops`` of every row, for the full algorithm list and
  for subsets, reorderings and repeats of it;
* each plan step's kernel, ``reads_previous`` and instance columns
  equal ``batch_kernel_calls`` over the interpreted call sequence;
* the slot tables are cached for algorithm tuples only, and a wide
  batch is counted in bounded row blocks.
"""

import importlib
import random
import tracemalloc
import zlib

import numpy as np
import pytest

from repro.core.classify import batch_flops, call_slots, max_exact_dim
from repro.core.symbolic import flop_polynomial
from repro.expressions.registry import get_expression, known_expressions
from repro.expressions.shapes import SizeExpr, dim_symbols
from repro.kernels.types import batch_kernel_calls

# The module, not the ``classify`` function ``repro.core`` re-exports.
classify = importlib.import_module("repro.core.classify")

#: The registered families plus one pruned large family (sum6 runs the
#: compiler's cost-guided pruning pass) and chain5.
FAMILIES = tuple(dict.fromkeys(known_expressions() + ("sum6", "chain5")))


def _instance_batches(expression, seed=0):
    """Seeded batches of 0, 1 and 37 rows, up to the exact bound.

    :func:`max_exact_dim` is the largest dim at which every plan's
    FLOP count stays below 2**53: the one-row batch is the all-bound
    row, and the 37-row batches hold seeded rows in ``[1, 400]``
    (with all-1 rows among them) and in ``[1, bound]``.
    """
    n_dims = expression.n_dims
    bound = max_exact_dim(expression.algorithms(), n_dims)
    rng = random.Random(seed)

    def rows(high, count):
        return np.asarray(
            [
                tuple(rng.randint(1, high) for _ in range(n_dims))
                for _ in range(count)
            ],
            dtype=np.int64,
        ).reshape(count, n_dims)

    small = rows(400, 37)
    small[::9] = 1
    return [
        rows(bound, 0),
        np.full((1, n_dims), bound, dtype=np.int64),
        small,
        rows(bound, 37),
    ]


def _interpreted_flops(algorithm, arr):
    columns = tuple(arr[:, i] for i in range(arr.shape[1]))
    counts = np.asarray(algorithm.flops(columns), dtype=np.int64)
    return np.broadcast_to(counts, (arr.shape[0],))


def _interpreted_batches(algorithm, arr):
    columns = tuple(arr[:, i] for i in range(arr.shape[1]))
    return batch_kernel_calls(algorithm.kernel_calls(columns), arr.shape[0])


@pytest.mark.parametrize("family", FAMILIES)
def test_codegen_flops_match_interpreter_and_polynomial(family):
    expression = get_expression(family)
    algorithms = expression.algorithms()
    polys = [flop_polynomial(a, expression.n_dims) for a in algorithms]
    seed = zlib.crc32(family.encode()) % 997
    for arr in _instance_batches(expression, seed=seed):
        got = batch_flops(algorithms, arr)
        assert got.dtype == np.int64
        assert got.shape == (arr.shape[0], len(algorithms))
        rows = arr.tolist()
        for j, (algorithm, poly) in enumerate(zip(algorithms, polys)):
            column = got[:, j].tolist()
            assert column == _interpreted_flops(algorithm, arr).tolist()
            # Exact Python ints, row by row: no int64 wraparound.
            assert column == [algorithm.flops(tuple(row)) for row in rows]
            assert column == [poly.size_hint(row) for row in rows]


@pytest.mark.parametrize("family", FAMILIES)
def test_batch_flops_over_subsets_reorderings_and_repeats(family):
    expression = get_expression(family)
    algorithms = expression.algorithms()
    arr = _instance_batches(expression, seed=len(family))[-1]
    full = batch_flops(algorithms, arr)
    count = len(algorithms)
    rng = random.Random(family)
    picks = [
        list(range(count))[::-1],
        list(range(0, count, 2)),
        [count - 1],
        [0, count - 1, 0, 0],
        [rng.randrange(count) for _ in range(2 * count)],
        [],
    ]
    for pick in picks:
        chosen = [algorithms[j] for j in pick]
        # A list builds its slots afresh; a tuple's are cached, so the
        # second call reads the table the first one interned.
        for form in (chosen, tuple(chosen), tuple(chosen)):
            got = batch_flops(form, arr)
            assert got.shape == (arr.shape[0], len(pick))
            assert got.tolist() == full[:, pick].tolist(), pick


def test_fresh_algorithm_lists_add_no_slot_table(monkeypatch):
    monkeypatch.setattr(classify, "_SLOTS", {})
    algorithms = get_expression("sum4").algorithms()
    arr = np.asarray([[300, 40, 900, 120, 640, 75, 1100, 210]])
    want = batch_flops(algorithms, arr)
    table = call_slots(algorithms)
    assert call_slots(algorithms) is table
    assert list(classify._SLOTS.values()) == [table]
    for i in range(1000):
        pick = list(algorithms[i % 7:i % 7 + 5])
        got = batch_flops(pick, arr)
        assert got.tolist() == want[:, i % 7:i % 7 + 5].tolist()
    assert list(classify._SLOTS.values()) == [table]


def test_wide_sum4_batch_is_counted_in_row_blocks():
    """35,000 rows of sum4 beside their 6.7 MB of counts: one
    (plans, calls, rows) gather would hold 150 x 35,000 int64 (42 MB)
    and unblocked slots ~20 MB; row blocks of 32,768 stacked rows
    hold ~2.5 MB."""
    algorithms = get_expression("sum4").algorithms()
    arr = np.random.default_rng(4).integers(10, 1400, size=(35000, 8))
    batch_flops(algorithms, arr[:1])
    tracemalloc.start()
    try:
        got = batch_flops(algorithms, arr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < got.nbytes + 4 * 2**20
    for j, algorithm in enumerate(algorithms):
        assert np.array_equal(got[:, j], _interpreted_flops(algorithm, arr))


@pytest.mark.parametrize("family", FAMILIES)
def test_plan_steps_match_interpreted_calls(family):
    expression = get_expression(family)
    for arr in _instance_batches(expression, seed=len(family)):
        for algorithm in expression.algorithms():
            steps = algorithm.plan.steps
            interpreted = _interpreted_batches(algorithm, arr)
            assert len(steps) == len(interpreted)
            for step, want in zip(steps, interpreted):
                assert step.kernel is want.kernel
                assert step.reads_previous == want.reads_previous
                got = arr[:, step.dims]
                assert got.shape == want.dims.shape
                assert np.array_equal(got, want.dims)


def test_plan_signature_distinguishes_schedules():
    chain = get_expression("chain4")
    names = [a.name for a in chain.algorithms()]
    left = names.index("chain4-3:(AB)(CD)/left-first")
    right = names.index("chain4-3:(AB)(CD)/right-first")
    steps = [p.steps for p in chain.plans()]
    # Different schedules of one tree are distinct plans (their step
    # order differs), and all six chain4 algorithms are distinct.
    assert steps[left] != steps[right]
    assert len(set(steps)) == len(steps)


def test_size_expr_polynomial_identities():
    d0, d1, d2 = dim_symbols(3)
    expr = 2 * d0 * d1 + d0 * d1 + 3
    assert isinstance(expr, SizeExpr)
    assert expr.size_hint((5, 7, 11)) == 3 * 5 * 7 + 3
    assert expr.used_dims() == (0, 1)
    assert (d0 + 0) == d0 and (d0 * 1) == d0
    assert expr == 3 + d1 * d0 * 3 and hash(expr) == hash(3 + 3 * d0 * d1)
    assert expr.render(("m", "n", "k")) == "3*m*n + 3"
    assert (d0 * d0 * d2 + d1).render(("m", "n", "k")) == "m^2*k + n"
