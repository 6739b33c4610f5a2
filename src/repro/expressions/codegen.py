"""Codegen: each plan's batch FLOP evaluator, compiled once.

The study hot loop evaluates every plan's FLOP polynomial millions of
times; interpreting the ``Plan`` step list per batch pays Python
dispatch for work that is fixed at compile time.  This module emits
one function per plan — a **batch FLOP evaluator**, the step list
collapsed into one closed-form NumPy column expression (constants
folded, common factors extracted by
:meth:`repro.expressions.shapes.SizeExpr.source`) — as Python source
and ``compile()``s it once.

Evaluators are cached by canonical FLOP polynomial: plans that differ
only in association share one evaluator *object*, which lets
``core.classify.batch_flops`` dedupe whole evaluations by function
identity.  The interpreted ``Plan.flops`` is the oracle they are
tested against.  Nothing else is generated: ``Plan.execute`` runs an
algorithm on real operands, and the machine and the profiles read
``Plan.steps`` (kernel, instance columns, ``reads_previous``)
directly.

A new kernel needs nothing here: its evaluator terms derive from the
kernel's FLOP formula.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.expressions.shapes import SizeExpr, dim_symbols

#: Canonical FLOP-polynomial key → compiled evaluator.
_FLOPS_FNS: Dict[tuple, Callable[[np.ndarray], np.ndarray]] = {}

_STATS = {
    "flops_fns_shared": 0,
    "flops_batches": 0,
}


def codegen_stats() -> dict:
    """Evaluator cache size and counters for ``GET /stats`` and tests."""
    return {
        "flops_functions": len(_FLOPS_FNS),
        "flops_fns_shared": _STATS["flops_fns_shared"],
        "flops_batches": _STATS["flops_batches"],
    }


def clear_codegen_caches() -> None:
    """Drop all compiled evaluators and counters (test isolation hook)."""
    _FLOPS_FNS.clear()
    for key in _STATS:
        _STATS[key] = 0


def count_flops_batch() -> None:
    """Count one batch FLOP evaluation (``flops_batches``)."""
    _STATS["flops_batches"] += 1


def _polynomial(plan) -> SizeExpr:
    poly = plan.flops(dim_symbols(plan.n_dims))
    if not isinstance(poly, SizeExpr):  # constant-FLOP corner case
        poly = SizeExpr.constant(int(poly))
    return poly


def _emit_flops_source(poly: SizeExpr) -> str:
    lines = ["def flops_batch(arr):"]
    dims = poly.used_dims()
    for dim in dims:
        lines.append(f"    c{dim} = arr[:, {dim}]")
    if dims:
        lines.append(f"    return {poly.source(lambda d: f'c{d}')}")
    else:
        constant = poly.size_hint(())
        lines.append(
            f"    return _np.full(arr.shape[0], {constant}, dtype=_np.int64)"
        )
    return "\n".join(lines) + "\n"


def flops_source(plan) -> str:
    """The source of the plan's batch FLOP evaluator (docs/debugging)."""
    return _emit_flops_source(_polynomial(plan))


def flops_evaluator(plan) -> Callable[[np.ndarray], np.ndarray]:
    """The plan's batch FLOP evaluator, shared by canonical polynomial.

    ``(n, n_dims)`` int64 instance matrix in, exact ``(n,)`` int64
    FLOP counts out.
    """
    poly = _polynomial(plan)
    key = poly.key()
    fn = _FLOPS_FNS.get(key)
    if fn is None:
        scope = {"_np": np}
        exec(compile(_emit_flops_source(poly), "<codegen:flops>", "exec"), scope)
        fn = _FLOPS_FNS[key] = scope["flops_batch"]
    else:
        _STATS["flops_fns_shared"] += 1
    return fn
