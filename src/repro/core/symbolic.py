"""Symbolic FLOP analysis: what a compiler can decide before run time.

The paper's motivating setting (§5): operand sizes may be unknown at
compile time.  Because every algorithm's FLOP count is a *polynomial*
in the instance dims (kernel FLOP formulas are polynomial and dims
map straight through), we can:

* print the exact polynomial (:func:`flop_polynomial`), and
* with some dims fixed and others ranging over an interval, compute
  which algorithms can be FLOP-cheapest for *some* assignment —
  everything else is discarded at compile time
  (:func:`possibly_cheapest`).

The polynomials are :class:`~repro.expressions.shapes.SizeExpr`
values: exact integer polynomials over dim symbols, the same type the
compiler's pruning uses (the ``SizeVarAllocator`` idea of
torchinductor, without a sympy dependency).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.expressions.base import Algorithm
from repro.expressions.shapes import SizeExpr, dim_symbols

#: Grid-enumeration budget for the exact analysis.
_EXACT_LIMIT = 300_000


def flop_polynomial(
    algorithm: Algorithm, n_dims: int | None = None
) -> SizeExpr:
    """The algorithm's FLOP count as an explicit polynomial."""
    if n_dims is None:
        from repro.expressions.registry import get_expression

        n_dims = get_expression(algorithm.expression).n_dims
    total = algorithm.flops(dim_symbols(n_dims))
    if not isinstance(total, SizeExpr):  # constant-FLOP corner case
        total = SizeExpr.constant(total)
    return total


@dataclass(frozen=True)
class CheapestAnalysis:
    """Result of :func:`possibly_cheapest`.

    ``certain``     indices provably FLOP-cheapest for some assignment;
    ``candidates``  indices that cannot be ruled out (⊇ certain);
    ``exact``       True when the whole grid was enumerated, making
                    ``certain == candidates`` a complete answer;
    ``witnesses``   one witness instance per certain index.
    """

    certain: Tuple[int, ...]
    candidates: Tuple[int, ...]
    exact: bool
    witnesses: Dict[int, Tuple[int, ...]]


def possibly_cheapest(
    algorithms: Sequence[Algorithm],
    fixed: Dict[int, int],
    bounds_lo: Sequence[int],
    bounds_hi: Sequence[int],
) -> CheapestAnalysis:
    """Which algorithms can be FLOP-cheapest for *some* free-dim values?

    ``fixed`` maps dim index → known compile-time size; the remaining
    dims range over ``[bounds_lo[i], bounds_hi[i]]``.  Small spaces are
    enumerated exhaustively (exact); large ones are sampled on a dense
    sub-grid, in which case ``candidates`` additionally keeps any
    algorithm coming within 2% of the minimum somewhere (near-misses a
    coarse grid might have separated from a true win).
    """
    if not algorithms:
        raise ValueError("need at least one algorithm")
    n_dims = len(bounds_lo)
    if len(bounds_hi) != n_dims:
        raise ValueError("bounds length mismatch")
    free_dims = [i for i in range(n_dims) if i not in fixed]
    for dim, value in fixed.items():
        if not 0 <= dim < n_dims:
            raise ValueError(f"fixed dim {dim} out of range")
        if value < 1:
            raise ValueError("fixed sizes must be positive")

    polynomials = [flop_polynomial(a, n_dims) for a in algorithms]

    sizes = [bounds_hi[i] - bounds_lo[i] + 1 for i in free_dims]
    total_points = 1
    for size in sizes:
        total_points *= size
    exact = total_points <= _EXACT_LIMIT

    def axis_values(dim: int) -> List[int]:
        lo, hi = bounds_lo[dim], bounds_hi[dim]
        if exact or lo == hi:
            return list(range(lo, hi + 1))
        # Dense sub-grid including both endpoints.
        count = max(2, int(round(_EXACT_LIMIT ** (1 / len(free_dims)))))
        count = min(count, hi - lo + 1, 512)
        step = (hi - lo) / (count - 1)
        return sorted({int(round(lo + k * step)) for k in range(count)})

    certain: Dict[int, Tuple[int, ...]] = {}
    near: set = set()
    grids = [axis_values(dim) for dim in free_dims]
    for combo in itertools.product(*grids):
        point = [0] * n_dims
        for dim, value in fixed.items():
            point[dim] = value
        for dim, value in zip(free_dims, combo):
            point[dim] = value
        counts = [p.size_hint(point) for p in polynomials]
        minimum = min(counts)
        for i, count in enumerate(counts):
            if count == minimum:
                certain.setdefault(i, tuple(point))
            elif not exact and 50 * count <= 51 * minimum:  # within 2%
                near.add(i)

    certain_idx = tuple(sorted(certain))
    candidates = certain_idx if exact else tuple(sorted(set(certain) | near))
    return CheapestAnalysis(
        certain=certain_idx,
        candidates=candidates,
        exact=exact,
        witnesses=certain,
    )
