"""Algorithm and Expression abstractions.

An *expression* is a target computation (e.g. ``A B C D`` or
``A Aᵀ B``); an *algorithm* is one mathematically equivalent way to
evaluate it as a sequence of BLAS kernel calls, held as its compiled
:class:`~repro.expressions.compiler.Plan`.  The plan's steps
(``Plan.steps``: kernel, instance columns, ``reads_previous``) are
that sequence for every instance at once; the simulated machine, the
profile discriminants and the batch FLOP counts
(:func:`repro.core.classify.batch_flops`) read them over an
``(n, n_dims)`` instance matrix.  The FLOP count is a polynomial in
the instance dims, so ``kernel_calls``/``flops`` serve both numeric
evaluation and the symbolic analysis in :mod:`repro.core.symbolic`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Sequence, Tuple

import numpy as np

from repro.kernels.types import KernelCall


@dataclass(frozen=True)
class Algorithm:
    """One equivalent evaluation strategy for an expression.

    Equal (and hashed) by name and expression; ``plan`` is the
    compiled :class:`~repro.expressions.compiler.Plan` whose
    ``kernel_calls``, ``flops`` and ``execute`` the algorithm's are.
    """

    name: str
    expression: str
    plan: Any = field(compare=False, repr=False)

    def kernel_calls(self, instance: Sequence[Any]) -> Tuple[KernelCall, ...]:
        return self.plan.kernel_calls(instance)

    def flops(self, instance: Sequence[Any]) -> Any:
        """Total FLOPs; exact integer for int dims, polynomial otherwise."""
        return self.plan.flops(instance)

    def execute(self, operands: Sequence[np.ndarray]) -> np.ndarray:
        """Run the plan on real operands (:meth:`Plan.execute`)."""
        return self.plan.execute(operands)


def instance_matrix(algorithms: Sequence[Algorithm], instances) -> np.ndarray:
    """``instances`` as an int64 matrix, refused unless as wide as the
    algorithms' expression takes them.

    A plan's steps read instance columns by index, so a wider row would
    silently lose its extra dims and a narrower one fail in NumPy.
    """
    arr = np.asarray(instances, dtype=np.int64)
    if algorithms and len(arr):
        plan = algorithms[0].plan
        if arr.ndim != 2 or arr.shape[1] != plan.n_dims:
            raise ValueError(
                f"{plan.expression} takes {plan.n_dims} dims per instance, "
                f"got instances of shape {arr.shape}"
            )
    return arr


class Expression:
    """A computation with several mathematically equivalent algorithms."""

    name: str = ""
    n_dims: int = 0
    operand_labels: str = ""

    def algorithms(self) -> Tuple[Algorithm, ...]:
        raise NotImplementedError

    def make_operands(
        self, instance: Sequence[int], rng: np.random.Generator
    ) -> List[np.ndarray]:
        """Random double-precision operands for a concrete instance."""
        raise NotImplementedError

    def reference(self, operands: Sequence[np.ndarray]) -> np.ndarray:
        """Straightforward NumPy evaluation, the correctness oracle."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Expression {self.name} n_dims={self.n_dims}>"
