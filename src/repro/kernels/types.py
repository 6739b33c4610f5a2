"""Kernel names and call descriptors.

The paper's two expressions decompose into exactly three BLAS-3
kernels: GEMM (general matrix product), SYRK (symmetric rank-k
update) and SYMM (symmetric matrix product).  The compiler's wider IR
coverage adds two more: ADD (GEADD/AXPY-style elementwise matrix add,
the lowering target of sum factors) and TRSM (triangular solve, the
lowering target of triangular-inverse leaves).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Sequence, Tuple

import numpy as np


class KernelName(enum.Enum):
    """BLAS-style kernels used by the algorithm variants."""

    GEMM = "gemm"
    SYRK = "syrk"
    SYMM = "symm"
    ADD = "add"
    TRSM = "trsm"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Number of size dimensions each kernel takes:
#: GEMM(m, n, k): C[m,n] += A[m,k] B[k,n]
#: SYRK(n, k):    C[n,n] += A[n,k] A[n,k]^T   (triangular result)
#: SYMM(m, n):    C[m,n] += S[m,m] B[m,n]     (S symmetric)
#: ADD(m, n):     C[m,n] = A[m,n] + B[m,n]    (elementwise, memory-bound)
#: TRSM(m, n):    X[m,n] = L[m,m]^-1 B[m,n]   (L lower triangular)
KERNEL_ARITY = {
    KernelName.GEMM: 3,
    KernelName.SYRK: 2,
    KernelName.SYMM: 2,
    KernelName.ADD: 2,
    KernelName.TRSM: 2,
}


@dataclass(frozen=True)
class KernelCall:
    """One kernel invocation inside an algorithm.

    ``dims`` follows the per-kernel convention above.  Entries may be
    plain integers or symbolic values (see :mod:`repro.core.symbolic`);
    all derived quantities are polynomial in the dims so both work.

    ``reads_previous`` marks that this call consumes the output of the
    preceding call in the same algorithm — the hook for the simulated
    machine's inter-kernel cache effects.
    """

    kernel: KernelName
    dims: Tuple[Any, ...]
    reads_previous: bool = False
    note: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        expected = KERNEL_ARITY[self.kernel]
        if len(self.dims) != expected:
            raise ValueError(
                f"{self.kernel.value} takes {expected} dims, "
                f"got {self.dims!r}"
            )

    @property
    def flops(self) -> Any:
        from repro.kernels.flops import kernel_flops

        return kernel_flops(self.kernel, self.dims)


def _dims_column(value: Any, n: int) -> np.ndarray:
    """One dim of a call batch as an ``(n,)`` int64 column.

    Accepts the per-instance arrays a calls builder produces when fed
    whole instance columns, or a plain int a builder hard-codes.
    """
    column = np.asarray(value, dtype=np.int64)
    if column.ndim == 0:
        return np.full(n, column, dtype=np.int64)
    if column.shape != (n,):
        raise ValueError(
            f"dim column has shape {column.shape}, expected ({n},)"
        )
    return column


@dataclass(frozen=True)
class KernelCallBatch:
    """One kernel-call slot evaluated at ``n`` instances at once.

    ``dims`` is an ``(n, arity)`` int64 matrix: row ``i`` holds the
    dims the slot's :class:`KernelCall` would take at instance ``i``.
    All derived quantities are polynomials in the dims applied
    columnwise, so ``flops`` agrees exactly with the per-instance
    :attr:`KernelCall.flops`.
    """

    kernel: KernelName
    dims: np.ndarray
    reads_previous: bool = False

    def __post_init__(self) -> None:
        expected = KERNEL_ARITY[self.kernel]
        if self.dims.ndim != 2 or self.dims.shape[1] != expected:
            raise ValueError(
                f"{self.kernel.value} batch takes (n, {expected}) dims, "
                f"got shape {self.dims.shape!r}"
            )

    @property
    def n(self) -> int:
        return self.dims.shape[0]

    @classmethod
    def from_call(cls, call: KernelCall, n: int) -> "KernelCallBatch":
        """Stack a call whose dims are columns (or ints) into a batch."""
        return cls(
            kernel=call.kernel,
            dims=np.stack(
                [_dims_column(d, n) for d in call.dims], axis=1
            ),
            reads_previous=call.reads_previous,
        )

    @property
    def flops(self) -> np.ndarray:
        from repro.kernels.flops import kernel_flops_batch

        return kernel_flops_batch(self.kernel, self.dims)

    def operand_elements(self) -> np.ndarray:
        """Per-instance matrix elements touched (inputs + output)."""
        d = self.dims
        if self.kernel is KernelName.GEMM:
            m, n, k = d[:, 0], d[:, 1], d[:, 2]
            return m * k + k * n + m * n
        if self.kernel is KernelName.SYRK:
            n, k = d[:, 0], d[:, 1]
            return n * k + n * n
        if self.kernel is KernelName.ADD:
            m, n = d[:, 0], d[:, 1]
            return m * n + m * n + m * n
        m, n = d[:, 0], d[:, 1]  # SYMM / TRSM
        return m * m + m * n + m * n

    def output_elements(self) -> np.ndarray:
        """Per-instance elements of the matrix this slot writes."""
        d = self.dims
        if self.kernel is KernelName.SYRK:
            return d[:, 0] * d[:, 0]
        return d[:, 0] * d[:, 1]  # GEMM / SYMM / ADD / TRSM


def batch_kernel_calls(
    calls: Sequence[KernelCall], n: int
) -> Tuple[KernelCallBatch, ...]:
    """Batch a call sequence built from whole instance columns."""
    return tuple(KernelCallBatch.from_call(call, n) for call in calls)
