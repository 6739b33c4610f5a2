"""Per-plan codegen: specialized batch evaluators, compiled once.

The study hot loop evaluates every plan's FLOP polynomial millions of
times; interpreting the ``Plan`` step list per batch pays Python
dispatch for work that is fixed at compile time.  This module emits —
per *plan structure* — two specialized functions as Python source and
``compile()``s each exactly once:

* a **batch FLOP evaluator**: the step list collapsed into one
  closed-form NumPy column expression (constants folded, common
  factors extracted by :meth:`repro.expressions.shapes.SizeExpr.source`);
* a **NumPy/BLAS executor**: the step loop unrolled into straight-line
  calls of the same :mod:`repro.expressions.blas` wrappers in the same
  order as ``Plan.execute``, with temp-buffer slots preassigned by
  liveness and the plan scheduler's buffer-reuse, ADD-fusion and
  in-place-fill decisions applied (see
  :mod:`repro.expressions.scheduler`).  Every in-place form is
  bit-equal to its allocating counterpart, so the result equals
  ``Plan.execute``'s bit for bit.

These are the only runtime path.  The interpreter (``Plan.execute``,
``Plan.flops``/``kernel_calls`` and ``batch_kernel_calls``) is the
oracle tests and micro-benches compare them against.  The machine and
the profiles need no generated code for an algorithm's calls: they
read ``Plan.steps`` (kernel, instance columns, ``reads_previous``)
directly.

Compiled code is cached two ways: per structural *plan signature*
(CSE-equal plans — identical leaves and steps — share both
functions) and, for the FLOP evaluator, per canonical FLOP polynomial
(plans that differ only in association share one evaluator object,
which lets ``core.classify.batch_flops`` dedupe whole evaluations by
function identity).

Adding a kernel: teach the IR/compiler its lowering, then register one
line in :data:`EXECUTOR_EMITTERS` mapping the new
:class:`~repro.kernels.types.KernelName` to a function
``(plan, step, ref_src) -> "RHS source"`` (see the existing five).
The FLOP evaluator needs nothing — it is derived from the kernel's
FLOP formula.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.expressions import blas
from repro.expressions.ir import AddExpr
from repro.expressions.scheduler import PlanDecisions, schedule_decisions
from repro.expressions.shapes import SizeExpr, dim_symbols
from repro.kernels.types import KernelName

#: Plan signature → compiled :class:`PlanCode`.
_PLAN_CACHE: Dict[tuple, "PlanCode"] = {}

#: Canonical FLOP-polynomial key → (compiled evaluator, its source).
_FLOPS_FNS: Dict[tuple, Tuple[Callable[[np.ndarray], np.ndarray], str]] = {}

_STATS = {
    "plans_compiled": 0,
    "plan_cache_hits": 0,
    "flops_fns_shared": 0,
    "flops_batches": 0,
}


def codegen_stats() -> dict:
    """Cache sizes and hit counters for ``GET /stats`` and tests."""
    return {
        "plan_cache_size": len(_PLAN_CACHE),
        "plan_cache_hits": _STATS["plan_cache_hits"],
        "plans_compiled": _STATS["plans_compiled"],
        "flops_functions": len(_FLOPS_FNS),
        "flops_fns_shared": _STATS["flops_fns_shared"],
        "flops_batches": _STATS["flops_batches"],
    }


def clear_codegen_caches() -> None:
    """Drop all compiled code and counters (test isolation hook)."""
    _PLAN_CACHE.clear()
    _FLOPS_FNS.clear()
    for key in _STATS:
        _STATS[key] = 0


# ----------------------------------------------------------------------
# Plan signatures
# ----------------------------------------------------------------------


def _factor_descriptor(factor) -> tuple:
    if isinstance(factor, AddExpr):
        return ("add", tuple(_factor_descriptor(l) for l in factor.leaves))
    return (
        "leaf",
        factor.operand,
        factor.rows,
        factor.cols,
        factor.transposed,
        factor.symmetric,
        factor.triangular,
    )


def plan_signature(plan) -> tuple:
    """Structural identity of a plan: everything codegen depends on.

    Two plans with equal signatures lower to byte-identical generated
    source — labels, tree indices and schedules are presentation-only
    and deliberately excluded, so CSE-equal plans (e.g. the two
    schedules of a chain tree, which reorder *independent* steps into
    the same step tuple) share one compiled :class:`PlanCode`.
    """
    return (
        plan.n_dims,
        tuple(_factor_descriptor(f) for f in plan.leaves),
        plan.steps,
    )


# ----------------------------------------------------------------------
# Source emission
# ----------------------------------------------------------------------


def _compile_function(source: str, name: str, namespace: dict) -> Callable:
    scope = dict(namespace)
    exec(compile(source, f"<codegen:{name}>", "exec"), scope)
    return scope[name]


def _flops_entry(plan) -> Tuple[Callable[[np.ndarray], np.ndarray], str]:
    """The plan's batch FLOP evaluator, shared by canonical polynomial."""
    poly = plan.flops(dim_symbols(plan.n_dims))
    if not isinstance(poly, SizeExpr):  # constant-FLOP corner case
        poly = SizeExpr.constant(int(poly))
    key = poly.key()
    entry = _FLOPS_FNS.get(key)
    if entry is None:
        source = _emit_flops_source(poly)
        fn = _compile_function(source, "flops_batch", {"_np": np})
        entry = _FLOPS_FNS[key] = (fn, source)
    else:
        _STATS["flops_fns_shared"] += 1
    return entry


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


def _emit_syrk(plan, step, ref_src) -> str:
    if step.left.is_step:
        return f"_syrk({ref_src(step.left)})"
    leaf = plan.leaves[step.left.index]
    return f"_syrk(operands[{leaf.operand}], trans={leaf.transposed!r})"


def _emit_symm(plan, step, ref_src) -> str:
    return f"_symm({ref_src(step.left)}, {ref_src(step.right)})"


def _emit_trsm(plan, step, ref_src) -> str:
    leaf = plan.leaves[step.left.index]
    return f"_trsm(operands[{leaf.operand}], {ref_src(step.right)})"


def _emit_add(plan, step, ref_src) -> str:
    return f"_add({ref_src(step.left)}, {ref_src(step.right)})"


def _emit_gemm(plan, step, ref_src) -> str:
    return f"_gemm({ref_src(step.left)}, {ref_src(step.right)})"


#: Per-kernel executor emitters: ``(plan, step, ref_src) -> RHS source``.
#: ``ref_src`` renders a ValueRef as source (a temp slot or an operand
#: view).  A new kernel registers exactly one entry here; the emitted
#: call must invoke the same :mod:`repro.expressions.blas` wrapper the
#: interpreted ``Plan.execute`` branch does, so generated and
#: interpreted executors stay bit-identical.
EXECUTOR_EMITTERS: Dict[KernelName, Callable] = {
    KernelName.SYRK: _emit_syrk,
    KernelName.SYMM: _emit_symm,
    KernelName.TRSM: _emit_trsm,
    KernelName.ADD: _emit_add,
    KernelName.GEMM: _emit_gemm,
}


def _emit_execute_source(plan, decisions: PlanDecisions) -> Tuple[str, dict]:
    """Straight-line executor with liveness-assigned temp slots.

    Replays exactly the wrapper calls ``Plan.execute`` issues, in the
    same order with the same arguments.  Slots are reused once their
    value's last reader has run; an accumulation target stays blocked
    through its step because the accumulating add reads it *after*
    the main call's assignment.

    The scheduler's ``decisions`` recycle dead buffers as ``out=``
    targets, collapse ADD chains into in-place accumulations and
    symmetrize single-consumer SYRK triangles in place — every form
    bit-equal to its allocating counterpart, so the executor returns
    exactly ``Plan.execute``'s array.
    """
    steps = plan.steps
    last_use = decisions.last_use

    # Values whose buffer the scheduler hands to a later step must keep
    # their slot name bound until the claim site.
    claimed = {v for v in decisions.fuse_into if v is not None}
    claimed.update(v for v in decisions.reuse_from if v is not None)

    def ref_src(ref) -> str:
        if ref.is_step:
            return f"t{slot_of[ref.index]}"
        factor = plan.leaves[ref.index]
        leaf = factor.leaves[ref.sub] if ref.sub is not None else factor
        source = f"operands[{leaf.operand}]"
        return f"{source}.T" if leaf.transposed else source

    lines = ["def execute(operands):"]
    slot_of: Dict[int, int] = {}
    free: List[int] = []
    n_slots = 0
    for i, step in enumerate(steps):
        dying = sorted(
            slot_of[k]
            for k in range(i)
            if last_use[k] == i and k not in claimed
        )
        # An accumulation source is read after this step's assignment;
        # its slot only frees once the statement group has run.
        blocked = (
            {slot_of[step.accumulate]}
            if step.accumulate is not None
            else set()
        )
        free.extend(s for s in dying if s not in blocked)
        free.sort()
        fuse = decisions.fuse_into[i]
        reuse = decisions.reuse_from[i]
        if fuse is not None:
            # In-place ADD-chain collapse: the dying operand's slot
            # becomes the output, no allocation.
            slot = slot_of[fuse]
        elif reuse is not None:
            # Claimed slots never entered ``free``: the dead buffer is
            # still bound to its name, ready to be an ``out=`` target.
            slot = slot_of[reuse]
        elif free:
            slot = free.pop(0)
        else:
            slot = n_slots
            n_slots += 1
        slot_of[i] = slot
        out = f"t{slot}"
        rhs = EXECUTOR_EMITTERS[step.kernel](plan, step, ref_src)
        if (fuse is not None or reuse is not None) and rhs.endswith(")"):
            rhs = f"{rhs[:-1]}, out={out})"
        lines.append(f"    {out} = {rhs}")
        if step.copy_to_full:
            if decisions.inplace_fill[i]:
                lines.append(f"    {out} = _symmetrize({out})")
            else:
                lines.append(f"    {out} = _fill({out})")
        if step.accumulate is not None:
            acc = f"t{slot_of[step.accumulate]}"
            lines.append(f"    {out} = _add({acc}, {out}, out={out})")
        free.extend(s for s in dying if s in blocked and s != slot)
        free.sort()
    lines.append(f"    return t{slot_of[len(steps) - 1]}")
    namespace = {
        "_gemm": blas.gemm,
        "_syrk": blas.syrk_lower,
        "_symm": blas.symm_lower,
        "_add": blas.add,
        "_trsm": blas.trsm,
        "_fill": blas.fill_symmetric_from_lower,
        "_symmetrize": blas.symmetrize_lower_inplace,
    }
    return "\n".join(lines) + "\n", namespace


# ----------------------------------------------------------------------
# Compiled plan code + the per-algorithm provider
# ----------------------------------------------------------------------


class PlanCode:
    """The two compiled functions (and their source) of one plan."""

    __slots__ = ("flops", "execute", "source")

    def __init__(
        self,
        flops: Callable[[np.ndarray], np.ndarray],
        execute: Callable,
        source: Dict[str, str],
    ) -> None:
        self.flops = flops
        self.execute = execute
        self.source = source


def compiled_plan(plan) -> PlanCode:
    """The plan's :class:`PlanCode`, compiling at most once per structure."""
    signature = plan_signature(plan)
    code = _PLAN_CACHE.get(signature)
    if code is not None:
        _STATS["plan_cache_hits"] += 1
        return code
    _STATS["plans_compiled"] += 1
    flops_fn, flops_source = _flops_entry(plan)
    execute_source, execute_namespace = _emit_execute_source(
        plan, schedule_decisions(plan)
    )
    execute_fn = _compile_function(
        execute_source, "execute", execute_namespace
    )
    code = PlanCode(
        flops_fn,
        execute_fn,
        {"flops": flops_source, "execute": execute_source},
    )
    _PLAN_CACHE[signature] = code
    return code


class PlanCodegen:
    """Lazy per-plan provider wired into :class:`~repro.expressions.base.Algorithm`.

    Nothing compiles until a batch path or the executor first asks.
    """

    __slots__ = ("plan", "_code")

    def __init__(self, plan) -> None:
        self.plan = plan
        self._code: Optional[PlanCode] = None

    def _resolve(self) -> PlanCode:
        code = self._code
        if code is None:
            code = self._code = compiled_plan(self.plan)
        return code

    def flops_fn(self) -> Callable[[np.ndarray], np.ndarray]:
        _STATS["flops_batches"] += 1
        return self._resolve().flops

    def execute(self, operands) -> np.ndarray:
        return self._resolve().execute(operands)

    @property
    def source(self) -> Dict[str, str]:
        """Emitted source of both functions (docs/debugging)."""
        return self._resolve().source
