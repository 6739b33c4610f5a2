"""Plan codegen equivalence: generated evaluators ≡ the interpreter.

The generated FLOP evaluators and the plan steps are the runtime path;
the interpreter is the oracle.  For every registered family (plus
``sum6``, which compiles under the cost-guided pruning pass), they
must match it **bit for bit** on seeded instance batches, up to the
exact-arithmetic bound (:func:`max_exact_dim`):

* the batch FLOP evaluator equals the interpreted whole-column
  polynomial evaluation, the :func:`flop_polynomial` oracle and the
  exact Python-int ``algorithm.flops`` of every row;
* each plan step's kernel, ``reads_previous`` and instance columns
  equal ``batch_kernel_calls`` over the interpreted call sequence;
* two algorithms share one evaluator object exactly when their FLOP
  polynomials are equal, the identity ``batch_flops`` dedupes by.
"""

import random
import zlib

import numpy as np
import pytest

from repro.core.classify import max_exact_dim
from repro.core.symbolic import flop_polynomial
from repro.expressions.codegen import clear_codegen_caches, codegen_stats
from repro.expressions.registry import get_expression
from repro.expressions.shapes import SizeExpr, dim_symbols
from repro.kernels.types import batch_kernel_calls

#: The registered families plus one pruned large family (sum6 runs the
#: compiler's cost-guided pruning pass, whose tree costs now evaluate
#: through the symbolic shape layer).
FAMILIES = (
    "aatb", "chain4", "gram3", "tri4", "sum3", "addchain3", "solve3",
    "sum6",
)


def _instance_batches(expression, seed=0):
    """Seeded batches: degenerate (all-1), box-sized and up to the bound.

    The last two batches reach :func:`max_exact_dim`, the largest dim
    at which every plan's FLOP count stays below 2**53: seeded rows in
    ``[1, bound]`` and the all-bound row.
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
        )

    return [
        rows(400, 17),
        np.ones((3, n_dims), dtype=np.int64),
        np.full((2, n_dims), 1400, dtype=np.int64),
        rows(bound, 17),
        np.full((1, n_dims), bound, dtype=np.int64),
    ]


def _interpreted_flops(algorithm, arr):
    columns = tuple(arr[:, i] for i in range(arr.shape[1]))
    return np.asarray(algorithm.flops(columns), dtype=np.int64)


def _interpreted_batches(algorithm, arr):
    columns = tuple(arr[:, i] for i in range(arr.shape[1]))
    return batch_kernel_calls(algorithm.kernel_calls(columns), arr.shape[0])


@pytest.mark.parametrize("family", FAMILIES)
def test_codegen_flops_match_interpreter_and_polynomial(family):
    expression = get_expression(family)
    polys = [
        flop_polynomial(a, expression.n_dims)
        for a in expression.algorithms()
    ]
    seed = zlib.crc32(family.encode()) % 997
    for arr in _instance_batches(expression, seed=seed):
        for algorithm, poly in zip(expression.algorithms(), polys):
            got = algorithm.flops_batch_function()(arr)
            assert got.dtype == np.int64
            assert got.tolist() == _interpreted_flops(algorithm, arr).tolist()
            assert got.tolist() == poly.evaluate_columns(arr).tolist()
            # Exact Python ints, row by row: no int64 wraparound.
            assert got.tolist() == [
                algorithm.flops(tuple(row)) for row in arr.tolist()
            ]
            # The convenience wrapper routes through the same function.
            assert algorithm.flops_batch(arr).tolist() == got.tolist()


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


@pytest.mark.parametrize("family", FAMILIES)
def test_evaluators_shared_exactly_by_equal_polynomials(family):
    # ``batch_flops`` reuses one column for every algorithm holding the
    # same evaluator object: sharing across unequal polynomials would
    # give an algorithm another's FLOPs, so identity must track
    # polynomial equality in both directions.
    expression = get_expression(family)
    algorithms = expression.algorithms()
    polys = [flop_polynomial(a, expression.n_dims) for a in algorithms]
    fns = [a.flops_batch_function() for a in algorithms]
    for i in range(len(algorithms)):
        for j in range(i + 1, len(algorithms)):
            same_poly = polys[i].key() == polys[j].key()
            assert (fns[i] is fns[j]) == same_poly, (
                algorithms[i].name, algorithms[j].name
            )


def test_plan_cache_and_flops_sharing_stats():
    clear_codegen_caches()
    # A fresh compile: the evaluator cache was just dropped, and the
    # algorithms resolve their evaluators on first use.
    algorithms = get_expression("aatb").with_prune(None).algorithms()
    fns = [a.flops_batch_function() for a in algorithms]
    stats = codegen_stats()
    # aatb's five algorithms hold only three distinct FLOP polynomials
    # (aatb-1/2 share one, aatb-3/4 share another): plans with equal
    # polynomials share one compiled function *object*.
    assert len({id(fn) for fn in fns}) == 3
    assert stats["flops_functions"] == 3
    assert stats["flops_fns_shared"] == 2
    assert stats["flops_batches"] == len(algorithms)
    assert fns[0] is fns[1]
    assert fns[2] is fns[3]
    assert fns[0] is not fns[2]
    # A second lookup returns the same object without another
    # resolution: the algorithm holds its evaluator.
    again = [a.flops_batch_function() for a in algorithms]
    assert all(x is y for x, y in zip(again, fns))
    after = codegen_stats()
    assert after["flops_functions"] == 3
    assert after["flops_fns_shared"] == 2
    assert after["flops_batches"] == 2 * len(algorithms)


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
    # Column evaluation is exact int64.
    arr = np.asarray([[2, 3, 4], [100, 200, 300]], dtype=np.int64)
    got = expr.evaluate_columns(arr)
    assert got.dtype == np.int64
    assert got.tolist() == [2 * 2 * 3 + 2 * 3 + 3, 3 * 100 * 200 + 3]
    # Rendered source round-trips through eval over the same columns.
    source = expr.source(lambda d: f"c{d}")
    namespace = {f"c{i}": arr[:, i] for i in range(3)}
    assert eval(source, {"__builtins__": {}}, namespace).tolist() == got.tolist()
