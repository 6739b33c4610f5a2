"""Expression IR + compiler invariants (ISSUE 4 spec).

Two properties must hold for *every* registered expression, hand-coded
or generated:

* the symbolic FLOP count (``flops`` over dim symbols) equals the
  polynomial sum of the individual kernel calls' FLOP formulas — the
  plan is the single source of truth for analysis and measurement
  alike;
* every plan's executor (``Plan.execute``, the only one) agrees
  numerically with the expression's NumPy reference across random
  instances.
"""

import numpy as np
import pytest

from repro.core.symbolic import flop_polynomial
from repro.expressions import Algorithm, blas
from repro.expressions.compiler import (
    CompiledExpression,
    compile_product_plans,
    default_plan_namer,
)
from repro.expressions.ir import (
    AddExpr,
    Leaf,
    ProductExpr,
    SumExpr,
    chain_leaves,
    expr_n_dims,
    operand_table,
    transpose_signature,
)
from repro.expressions.registry import get_expression
from repro.expressions.shapes import SizeExpr, dim_symbols
from repro.kernels.flops import kernel_flops
from repro.kernels.types import KernelName

#: Every registered family (the compiler-generated ones included).
REGISTERED = (
    "chain4", "aatb", "gram3", "tri4", "sum3", "addchain3", "solve3"
)

#: Plan shapes the executor must also handle: sum6 (cost-guided
#: pruning, GEMMs accumulating into the running sum), gram4 (SYRK
#: triangles copied to full storage, same-shape GEMM temporaries) and
#: addchain4 (ADD factors materialised before their consumers).
EXECUTED = REGISTERED + ("sum6", "gram4", "addchain4")


# ----------------------------------------------------------------------
# IR validation
# ----------------------------------------------------------------------


def test_product_requires_chaining_dims():
    a = Leaf(operand=0, rows=0, cols=1, label="A")
    bad = Leaf(operand=1, rows=2, cols=3, label="B")
    with pytest.raises(ValueError, match="chain"):
        ProductExpr((a, bad))
    with pytest.raises(ValueError, match="two factors"):
        ProductExpr((a,))


def test_symmetric_leaf_must_be_square():
    with pytest.raises(ValueError, match="square"):
        Leaf(operand=0, rows=0, cols=1, symmetric=True)


def test_sum_terms_must_share_result_shape():
    term1 = ProductExpr(chain_leaves([0, 1, 2]))
    term2 = ProductExpr(chain_leaves([0, 3, 3], first_operand=2))
    with pytest.raises(ValueError, match="result shape"):
        SumExpr((term1, term2))


def test_operand_table_rejects_inconsistent_shared_leaves():
    # Operand 0 used as d0×d1 in one leaf and d0×d2 in another.
    a1 = Leaf(operand=0, rows=0, cols=1, label="A")
    a2 = Leaf(operand=0, rows=1, cols=2, label="A")
    with pytest.raises(ValueError, match="disagree"):
        operand_table(ProductExpr((a1, a2)))


def test_transpose_signature_round_trips():
    a = Leaf(operand=0, rows=0, cols=1)
    sig = ("prod", a.signature(), ("leaf", 1, True))
    assert transpose_signature(transpose_signature(sig)) == sig
    # A symmetric leaf is its own transpose.
    s = Leaf(operand=0, rows=0, cols=0, symmetric=True, transposed=True)
    assert s.signature() == ("leaf", 0, False)


# ----------------------------------------------------------------------
# Compiler invariants over every registered expression
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", REGISTERED)
def test_symbolic_flops_equal_poly_sum_of_kernel_calls(name):
    expression = get_expression(name)
    variables = dim_symbols(expression.n_dims)
    for algorithm in expression.algorithms():
        total = SizeExpr.constant(0)
        for call in algorithm.kernel_calls(variables):
            total = total + kernel_flops(call.kernel, call.dims)
        assert flop_polynomial(algorithm) == total, algorithm.name


@pytest.mark.parametrize("name", REGISTERED)
def test_symbolic_flops_evaluate_to_concrete_flops(name):
    expression = get_expression(name)
    rng = np.random.default_rng(3)
    for _ in range(3):
        instance = tuple(int(v) for v in rng.integers(2, 60, expression.n_dims))
        for algorithm in expression.algorithms():
            poly = flop_polynomial(algorithm)
            assert poly.size_hint(instance) == algorithm.flops(instance)


def _assert_executors_match_reference(expression, instance, seed):
    operands = expression.make_operands(
        instance, np.random.default_rng(seed)
    )
    reference = expression.reference(operands)
    scale = float(np.max(np.abs(reference))) or 1.0
    for algorithm in expression.algorithms():
        actual = algorithm.execute(operands)
        assert actual.shape == reference.shape, (algorithm.name, instance)
        deviation = float(np.max(np.abs(actual - reference))) / scale
        assert deviation < 1e-10, (algorithm.name, instance, deviation)


@pytest.mark.parametrize("name", EXECUTED)
def test_executors_match_reference(name):
    expression = get_expression(name)
    rng = np.random.default_rng(7)
    for round_seed in range(3):
        instance = tuple(int(v) for v in rng.integers(3, 48, expression.n_dims))
        _assert_executors_match_reference(expression, instance, round_seed)


@pytest.mark.parametrize("name", EXECUTED)
def test_executors_match_reference_at_unit_dims(name):
    # Unit dims turn operands into rows, columns and scalars: every
    # BLAS wrapper must still see the shapes the reference does.
    expression = get_expression(name)
    n_dims = expression.n_dims
    for seed, instance in enumerate(
        [
            (1,) * n_dims,
            tuple(1 if i % 2 else 7 for i in range(n_dims)),
            tuple(7 if i % 2 else 1 for i in range(n_dims)),
        ]
    ):
        _assert_executors_match_reference(expression, instance, seed)


def test_algorithm_is_its_plan():
    aatb = get_expression("aatb")
    plans = aatb.plans()
    first = Algorithm("x", "aatb", plans[0])
    # Equality and hash go by name and expression, never by plan.
    assert first == Algorithm("x", "aatb", plans[1])
    assert hash(first) == hash(Algorithm("x", "aatb", plans[1]))
    assert first != Algorithm("y", "aatb", plans[0])
    assert first != Algorithm("x", "gram3", plans[0])
    # Calls, FLOPs and execution are the plan's.
    instance = (6, 9, 4)
    for algorithm, plan in zip(aatb.algorithms(), plans):
        assert algorithm.plan is plan
        assert algorithm.kernel_calls(instance) == plan.kernel_calls(instance)
        assert algorithm.flops(instance) == plan.flops(instance)
        operands = aatb.make_operands(instance, np.random.default_rng(1))
        assert np.array_equal(
            algorithm.execute(operands), plan.execute(operands)
        )


@pytest.mark.parametrize("name", REGISTERED)
def test_algorithm_names_unique_and_prefixed(name):
    algorithms = get_expression(name).algorithms()
    names = [a.name for a in algorithms]
    assert len(names) == len(set(names))
    assert all(n.startswith(f"{name}-") for n in names)


# ----------------------------------------------------------------------
# Rewrite passes on targeted IRs
# ----------------------------------------------------------------------


def _compiled(name, expr, **kwargs):
    return CompiledExpression(name, expr, **kwargs)


def test_cse_compiles_repeated_subproduct_once():
    # (AB)(AB): the two AB subproducts are the same value, so the
    # square tree lowers to two GEMMs, not three.
    leaves = (
        Leaf(operand=0, rows=0, cols=1, label="A"),
        Leaf(operand=1, rows=1, cols=0, label="B"),
        Leaf(operand=0, rows=0, cols=1, label="A"),
        Leaf(operand=1, rows=1, cols=0, label="B"),
    )
    square = _compiled("sqr", ProductExpr(leaves))
    by_label = {a.name: a for a in square.algorithms()}
    cse_name = "sqr-3:(AB)(AB)"
    assert cse_name in by_label  # no /left-first: schedules collapsed
    calls = by_label[cse_name].kernel_calls((5, 7))
    assert [c.kernel for c in calls] == [KernelName.GEMM, KernelName.GEMM]
    assert calls[0].dims == (5, 5, 7)   # M = A B once
    assert calls[1].dims == (5, 5, 5)   # M·M reuses it
    assert calls[1].reads_previous
    # Non-CSE trees spend three GEMMs; the executor still agrees.
    other = by_label["sqr-1:A(B(AB))"]
    assert len(other.kernel_calls((5, 7))) == 3
    rng = np.random.default_rng(0)
    operands = square.make_operands((6, 4), rng)
    reference = square.reference(operands)
    for algorithm in square.algorithms():
        np.testing.assert_allclose(
            algorithm.execute(operands), reference, rtol=1e-10, atol=1e-9
        )


def test_symmetric_leaf_unlocks_symm_rewrite():
    # S B with S symmetric: the compiler offers SYMM first, GEMM as
    # the unrewritten variant.
    leaves = (
        Leaf(operand=0, rows=0, cols=0, symmetric=True, label="S"),
        Leaf(operand=1, rows=0, cols=1, label="B"),
    )
    expr = _compiled("symprod", ProductExpr(leaves))
    names = [a.name for a in expr.algorithms()]
    assert names == ["symprod-1:SB/symm", "symprod-1:SB/gemm"]
    kernels = [
        a.kernel_calls((4, 6))[0].kernel for a in expr.algorithms()
    ]
    assert kernels == [KernelName.SYMM, KernelName.GEMM]
    # Operand generation symmetrises S; both executors agree.
    operands = expr.make_operands((5, 3), np.random.default_rng(1))
    np.testing.assert_allclose(operands[0], operands[0].T)
    reference = expr.reference(operands)
    for algorithm in expr.algorithms():
        np.testing.assert_allclose(
            algorithm.execute(operands), reference, rtol=1e-10, atol=1e-9
        )


def test_syrk_rewrite_on_internal_product():
    # (AB)(BᵀAᵀ) = M Mᵀ with M = AB internal: SYRK applies to a
    # computed value, not just to leaves.
    leaves = (
        Leaf(operand=0, rows=0, cols=1, label="A"),
        Leaf(operand=1, rows=1, cols=2, label="B"),
        Leaf(operand=1, rows=2, cols=1, transposed=True, label="B"),
        Leaf(operand=0, rows=1, cols=0, transposed=True, label="A"),
    )
    plans = compile_product_plans(
        "mmt", ProductExpr(leaves), trees=[((0, 1), (2, 3))]
    )
    tokens = {plan.kernel_tokens for plan in plans}
    # M once, SYRK over it, and the root triangle copied to the full
    # result (the copy is FLOP-free); the dead BᵀAᵀ subtree is gone.
    assert ("gemm", "syrk", "copy") in tokens
    syrk_plan = next(p for p in plans if "syrk" in p.kernel_tokens)
    assert [s.kernel for s in syrk_plan.steps] == [
        KernelName.GEMM, KernelName.SYRK,
    ]
    expr = _compiled("mmt", ProductExpr(leaves), trees=[((0, 1), (2, 3))])
    operands = expr.make_operands((4, 5, 6), np.random.default_rng(2))
    reference = expr.reference(operands)
    for algorithm in expr.algorithms():
        np.testing.assert_allclose(
            algorithm.execute(operands), reference, rtol=1e-10, atol=1e-9
        )


def test_syrk_trans_blas_wrapper():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 3))
    np.testing.assert_allclose(
        np.tril(blas.syrk_lower(a, trans=True)), np.tril(a.T @ a)
    )
    np.testing.assert_allclose(
        np.tril(blas.syrk_lower(a)), np.tril(a @ a.T)
    )


def _junk_upper(matrix, rng):
    """``matrix`` with its strict upper triangle overwritten by noise."""
    out = np.array(matrix, order="F")
    upper = np.triu_indices(out.shape[0], 1)
    out[upper] = rng.standard_normal(len(upper[0]))
    return out


@pytest.mark.parametrize("wrapper", ("symm_lower", "trsm", "fill"))
def test_lower_triangle_wrappers_ignore_the_upper_triangle(wrapper):
    # A SYRK result's upper triangle is unspecified, and a triangular
    # operand's is never read: SYMM, TRSM and the copy to full storage
    # answer from the lower triangle alone.
    rng = np.random.default_rng(5)
    square = rng.standard_normal((6, 6))
    right = rng.standard_normal((6, 4))
    if wrapper == "symm_lower":
        symmetric = square + square.T
        got = blas.symm_lower(_junk_upper(symmetric, rng), right)
        np.testing.assert_allclose(got, symmetric @ right, rtol=1e-12)
    elif wrapper == "trsm":
        lower = np.tril(square) + 6.0 * np.eye(6)
        got = blas.trsm(_junk_upper(lower, rng), right)
        np.testing.assert_allclose(lower @ got, right, rtol=1e-12, atol=1e-12)
    else:
        symmetric = square + square.T
        got = blas.fill_symmetric_from_lower(_junk_upper(symmetric, rng))
        assert np.array_equal(got, symmetric)


def test_sum_lowering_folds_accumulation():
    expression = get_expression("sum2")
    (algorithm,) = expression.algorithms()
    calls = algorithm.kernel_calls((3, 4, 5, 6))
    assert [c.kernel for c in calls] == [KernelName.GEMM, KernelName.GEMM]
    assert calls[0].dims == (3, 5, 4)
    assert calls[1].dims == (3, 5, 6)
    # The accumulating call reads the running sum left by call 1.
    assert calls[1].reads_previous
    assert "accumulates" in calls[1].note
    # All plans of a two-term 2-chain sum tie in FLOPs — degenerate,
    # which is why sum3 (association freedom) is the registered default.
    assert int(algorithm.flops((3, 4, 5, 6))) == 2 * 3 * 5 * 4 + 2 * 3 * 5 * 6


def test_sum_rejects_single_factor_terms():
    term = ProductExpr(chain_leaves([0, 1, 2]))
    with pytest.raises(ValueError, match="two factors"):
        SumExpr((term, ProductExpr(chain_leaves([0, 2], first_operand=2))))


def test_default_namer_shape():
    plans = compile_product_plans(
        "gram3",
        ProductExpr(
            (
                Leaf(operand=0, rows=1, cols=0, transposed=True, label="A"),
                Leaf(operand=0, rows=0, cols=1, label="A"),
                Leaf(operand=1, rows=1, cols=2, label="B"),
            )
        ),
    )
    names = [default_plan_namer(p, i) for i, p in enumerate(plans, 1)]
    assert names == [
        "gram3-1:A'(AB)",
        "gram3-2:(A'A)B/syrk+symm",
        "gram3-2:(A'A)B/syrk+copy+gemm",
        "gram3-2:(A'A)B/gemm+gemm",
        "gram3-2:(A'A)B/gemm+symm",
    ]


def test_gram3_mirrors_aatb_structure():
    gram = get_expression("gram3")
    calls = {
        a.name: a.kernel_calls((3, 5, 7)) for a in gram.algorithms()
    }
    syrk_symm = calls["gram3-2:(A'A)B/syrk+symm"]
    assert syrk_symm[0].kernel is KernelName.SYRK
    assert syrk_symm[0].dims == (5, 3)  # AᵀA is d1×d1, contracted over d0
    assert syrk_symm[1].kernel is KernelName.SYMM
    assert syrk_symm[1].dims == (5, 7)
    copied = calls["gram3-2:(A'A)B/syrk+copy+gemm"]
    assert copied[0].note == "then copy to full"


@pytest.mark.parametrize("name", ("gram3", "tri4", "sum3", "addchain3", "solve3"))
def test_new_families_classify_end_to_end(name):
    """ISSUE-4/5 acceptance: every generated family is classifiable and
    anomaly-bearing at quick scale (full pipeline, paper machine)."""
    from repro.figures.common import FigureConfig, compute_study_results

    search, regions, prediction, confusion = compute_study_results(
        FigureConfig(scale="quick", seed=0), name
    )
    assert search.anomalies
    assert regions.regions
    assert confusion.total > 0


def test_expr_n_dims_and_plan_dims_are_indices():
    expression = get_expression("sum3")
    assert expr_n_dims(expression.ir) == expression.n_dims == 6
    for plan in expression.plans():
        for step in plan.steps:
            assert all(0 <= i < 6 for i in step.dims)


# ----------------------------------------------------------------------
# ADD / TRSM lowering (ISSUE 5)
# ----------------------------------------------------------------------


def test_add_factor_materialises_before_its_consumer():
    # A (B + C): the ADD call lands immediately before the GEMM that
    # consumes it, and the GEMM reads its freshly-written output.
    expression = get_expression("addchain2")
    (algorithm,) = expression.algorithms()
    calls = algorithm.kernel_calls((3, 5, 7))
    assert [(c.kernel.value, c.dims) for c in calls] == [
        ("add", (5, 7)),
        ("gemm", (3, 7, 5)),
    ]
    assert not calls[0].reads_previous
    assert calls[1].reads_previous
    # FLOPs: one elementwise add + one GEMM, exactly.
    assert int(algorithm.flops((3, 5, 7))) == 5 * 7 + 2 * 3 * 7 * 5


def test_add_factor_repeated_across_terms_is_summed_once():
    # (B+C) appears in both terms: one ADD, two GEMM-consumers.
    add = AddExpr(
        (
            Leaf(operand=1, rows=1, cols=2, label="B"),
            Leaf(operand=2, rows=1, cols=2, label="C"),
        )
    )
    term1 = ProductExpr((Leaf(operand=0, rows=0, cols=1, label="A"), add))
    term2 = ProductExpr((Leaf(operand=3, rows=0, cols=1, label="D"), add))
    expr = _compiled("shared", SumExpr((term1, term2)))
    (algorithm,) = expr.algorithms()
    kernels = [c.kernel for c in algorithm.kernel_calls((3, 5, 7))]
    assert kernels == [KernelName.ADD, KernelName.GEMM, KernelName.GEMM]
    rng = np.random.default_rng(5)
    operands = expr.make_operands((4, 5, 6), rng)
    np.testing.assert_allclose(
        algorithm.execute(operands), expr.reference(operands),
        rtol=1e-10, atol=1e-9,
    )


def test_standalone_add_expression_lowers_to_add_chain():
    expr = _compiled(
        "matsum",
        AddExpr(
            tuple(
                Leaf(operand=i, rows=0, cols=1, label="ABC"[i])
                for i in range(3)
            )
        ),
    )
    (algorithm,) = expr.algorithms()
    calls = algorithm.kernel_calls((4, 6))
    assert [c.kernel for c in calls] == [KernelName.ADD, KernelName.ADD]
    assert calls[1].reads_previous
    assert int(algorithm.flops((4, 6))) == 2 * 4 * 6
    operands = expr.make_operands((5, 3), np.random.default_rng(1))
    np.testing.assert_allclose(
        algorithm.execute(operands), expr.reference(operands),
        rtol=1e-10, atol=1e-9,
    )


def test_add_expr_validation():
    a = Leaf(operand=0, rows=0, cols=1, label="A")
    with pytest.raises(ValueError, match="two leaves"):
        AddExpr((a,))
    with pytest.raises(ValueError, match="share a shape"):
        AddExpr((a, Leaf(operand=1, rows=1, cols=2, label="B")))
    with pytest.raises(ValueError, match="summand"):
        AddExpr(
            (
                Leaf(operand=0, rows=0, cols=0, triangular=True),
                Leaf(operand=1, rows=0, cols=0),
            )
        )


def test_triangular_leaf_validation():
    with pytest.raises(ValueError, match="square"):
        Leaf(operand=0, rows=0, cols=1, triangular=True)
    with pytest.raises(ValueError, match="transposed or symmetric"):
        Leaf(operand=0, rows=0, cols=0, triangular=True, transposed=True)
    # A triangular-inverse leaf must lead its product.
    with pytest.raises(ValueError, match="first factor"):
        ProductExpr(
            (
                Leaf(operand=0, rows=0, cols=0, label="A"),
                Leaf(operand=1, rows=0, cols=0, triangular=True, label="L"),
            )
        )


def test_solve_family_lowers_to_trsm_at_every_boundary():
    # solve3: the two trees solve at different boundaries, so the TRSM
    # right-hand-side count — and the FLOP count — differ per plan.
    expression = get_expression("solve3")
    calls = {
        a.name: [
            (c.kernel.value, c.dims) for c in a.kernel_calls((3, 5, 7))
        ]
        for a in expression.algorithms()
    }
    assert calls["solve3-1:inv(L)(AB)"] == [
        ("gemm", (3, 7, 5)), ("trsm", (3, 7)),
    ]
    assert calls["solve3-2:(inv(L)A)B"] == [
        ("trsm", (3, 5)), ("gemm", (3, 7, 5)),
    ]
    # TRSM has no kernel variant: one plan per tree.
    assert len(expression.algorithms()) == 2
