"""Plan scheduler: dependency graph, buffer reuse, fusion.

Sits between :mod:`repro.expressions.compiler` (which lowers an
expression tree to a straight-line :class:`~repro.expressions.compiler.Plan`)
and :mod:`repro.expressions.codegen` (which unrolls the step list into
generated source).  From each plan's steps it builds an explicit
read/write dependency graph — which prior step values each step reads,
and where each value's last reader runs — and derives two things:

1. **Buffer-reuse / in-place resolution** (``can_free``/``can_inplace``
   in TorchInductor terms).  A value whose last reader has run is dead;
   its storage is recycled as the output buffer of a later same-shape
   GEMM or ADD (``out=`` on the :mod:`repro.expressions.blas` wrappers)
   instead of allocating.  Output shapes are compared as *dim-index*
   tuples, so equality is exact for every instance by construction, and
   only buffers dead **strictly before** a step qualify — a buffer
   dying *at* the step is one of its inputs, and BLAS forbids
   input/output aliasing (elementwise ADD is the exception, handled by
   fusion below).

2. **Fusion of adjacent memory-bound steps.**  An ADD whose step
   operand dies at the ADD collapses into an in-place accumulation on
   that operand's buffer (``np.add(a, b, out=a)`` reads each element
   before writing it, so chains of k ADDs touch one buffer instead of
   allocating k).  A SYRK's ``triangle → copy to full`` materialization
   with at most one consumer is replaced by an in-place symmetrize of
   the triangle buffer — the separate full-size copy disappears.

The step order itself is the compiler's: orders that matter (the
``/left-first`` and ``/right-first`` root schedules) are separate
plans, so the scheduler never permutes steps.

Both transformations are **bit-preserving**:
``dgemm`` with an F-contiguous ``c`` buffer and ``np.add`` with ``out=``
produce the same bits as their allocating forms (and fall back to a
fresh allocation of the same value when a buffer does not qualify), and
the in-place symmetrize writes exactly the elements the full copy
would.  The generated executor therefore returns exactly the array the
interpreted ``Plan.execute`` does; ``tests/test_scheduler.py`` pins
that per family, with ``Plan.execute`` as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.kernels.types import KernelName

#: Decision cache: plan step tuple → :class:`PlanDecisions`.  Decisions
#: depend only on the step list (kernels, dim indices, value refs),
#: never on the leaves, so CSE-equal step tuples share one entry.
_DECISIONS_CACHE: Dict[tuple, "PlanDecisions"] = {}

_STATS = {
    "plans_scheduled": 0,
    "fused_adds": 0,
    "inplace_reuses": 0,
    "copies_dropped": 0,
}


def scheduler_stats() -> dict:
    """Decision counters for ``GET /stats`` and tests."""
    return dict(_STATS)


def clear_scheduler_caches() -> None:
    """Drop all cached decisions and counters (test isolation hook)."""
    _DECISIONS_CACHE.clear()
    for key in _STATS:
        _STATS[key] = 0


# ----------------------------------------------------------------------
# Dependency graph
# ----------------------------------------------------------------------


def step_reads(step) -> Tuple[int, ...]:
    """Indices of prior steps whose values this step reads."""
    reads = []
    for ref in (step.left, step.right):
        if ref is not None and ref.is_step:
            reads.append(ref.index)
    if step.accumulate is not None:
        reads.append(step.accumulate)
    return tuple(reads)


def step_output_dims(step) -> Tuple[int, int]:
    """The step value's shape as dim-vector *indices* (rows, cols)."""
    if step.kernel is KernelName.SYRK:
        return (step.dims[0], step.dims[0])
    return (step.dims[0], step.dims[1])


def last_uses(steps: Sequence) -> List[int]:
    """Per step, the index of its value's last reader.

    The root value is read by the caller, encoded as ``len(steps)`` —
    one past the end, so it never qualifies as dead.
    """
    last = [0] * len(steps)
    for i, step in enumerate(steps):
        for source in step_reads(step):
            last[source] = max(last[source], i)
    last[len(steps) - 1] = len(steps)
    return last


# ----------------------------------------------------------------------
# Liveness decisions (buffer reuse, fusion, in-place fill)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PlanDecisions:
    """Per-step scheduling decisions for one plan structure.

    ``fuse_into[i]`` — the ADD at step ``i`` accumulates in place into
    this producer's buffer (the producer's value dies at ``i``).
    ``reuse_from[i]`` — step ``i`` writes its output into this
    producer's buffer, which died strictly before ``i``.
    ``inplace_fill[i]`` — the step's ``copy to full`` is realised as an
    in-place symmetrize of the triangle buffer (at most one consumer).
    ``last_use[i]`` — the step index of value ``i``'s last reader.
    """

    reads: Tuple[Tuple[int, ...], ...]
    last_use: Tuple[int, ...]
    fuse_into: Tuple[Optional[int], ...]
    reuse_from: Tuple[Optional[int], ...]
    inplace_fill: Tuple[bool, ...]


def schedule_decisions(plan) -> PlanDecisions:
    """Liveness decisions for ``plan``, computed once per step structure."""
    key = plan.steps
    cached = _DECISIONS_CACHE.get(key)
    if cached is not None:
        return cached

    steps = plan.steps
    n = len(steps)
    reads = tuple(step_reads(step) for step in steps)
    last = last_uses(steps)
    out_dims = [step_output_dims(step) for step in steps]

    fuse_into: List[Optional[int]] = [None] * n
    reuse_from: List[Optional[int]] = [None] * n
    inplace_fill = [False] * n
    pool: List[int] = []  # dead, unclaimed values in death order

    for i, step in enumerate(steps):
        if step.kernel is KernelName.ADD:
            # In-place chain collapse: accumulate onto a step operand
            # whose value dies here.  Elementwise addition tolerates
            # the input/output aliasing this creates.
            for ref in (step.left, step.right):
                if (
                    ref is not None
                    and ref.is_step
                    and last[ref.index] == i
                    and ref.index != step.accumulate
                ):
                    fuse_into[i] = ref.index
                    break
        if fuse_into[i] is None and step.kernel in (
            KernelName.GEMM,
            KernelName.ADD,
        ):
            # Recycle a same-shape buffer that died strictly before
            # this step (so it cannot alias any of this step's inputs).
            for candidate in pool:
                if out_dims[candidate] == out_dims[i]:
                    reuse_from[i] = candidate
                    pool.remove(candidate)
                    break
        if step.copy_to_full:
            consumers = sum(1 for j in range(i + 1, n) if i in reads[j])
            inplace_fill[i] = consumers <= 1
        for k in range(i + 1):
            if last[k] == i and fuse_into[i] != k:
                pool.append(k)

    decisions = PlanDecisions(
        reads=reads,
        last_use=tuple(last),
        fuse_into=tuple(fuse_into),
        reuse_from=tuple(reuse_from),
        inplace_fill=tuple(inplace_fill),
    )
    _DECISIONS_CACHE[key] = decisions
    _STATS["plans_scheduled"] += 1
    _STATS["fused_adds"] += sum(1 for f in decisions.fuse_into if f is not None)
    _STATS["inplace_reuses"] += sum(
        1 for r in decisions.reuse_from if r is not None
    )
    _STATS["copies_dropped"] += sum(decisions.inplace_fill)
    return decisions
