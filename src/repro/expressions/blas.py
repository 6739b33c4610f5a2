"""Thin real-BLAS wrappers: the kernels ``Plan.execute`` and
``RealBlasBackend.time_kernel`` call.

SciPy's LAPACK/BLAS bindings are used when available so the real
backend exercises the actual ``dgemm``/``dsyrk``/``dsymm`` routines
the paper measured; otherwise NumPy matmul stands in (same results,
kernel distinction lost).
"""

from __future__ import annotations

import numpy as np

try:  # pragma: no cover - environment dependent
    from scipy.linalg import blas as _blas

    HAVE_SCIPY_BLAS = True
except Exception:  # pragma: no cover
    _blas = None
    HAVE_SCIPY_BLAS = False


def gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C = A B via dgemm."""
    if HAVE_SCIPY_BLAS:
        return _blas.dgemm(1.0, a, b)
    return a @ b


def syrk_lower(a: np.ndarray, trans: bool = False) -> np.ndarray:
    """S = A Aᵀ (or Aᵀ A with ``trans``) via dsyrk; lower triangle valid."""
    if HAVE_SCIPY_BLAS:
        return _blas.dsyrk(1.0, a, lower=1, trans=1 if trans else 0)
    product = a.T @ a if trans else a @ a.T
    return np.tril(product)


def symm_lower(s: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C = S B via dsymm, reading only the lower triangle of S."""
    if HAVE_SCIPY_BLAS:
        return _blas.dsymm(1.0, s, b, lower=1)
    full = np.tril(s) + np.tril(s, -1).T
    return full @ b


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C = A + B elementwise (GEADD/AXPY-style; memory-bound)."""
    return a + b


def trsm(l: np.ndarray, b: np.ndarray) -> np.ndarray:
    """X = L⁻¹ B via dtrsm, reading only the lower triangle of L."""
    if HAVE_SCIPY_BLAS:
        return _blas.dtrsm(1.0, l, b, lower=1)
    return np.linalg.solve(np.tril(l), b)


def fill_symmetric_from_lower(s: np.ndarray) -> np.ndarray:
    """The explicit copy step of the syrk+copy+gemm variant."""
    return np.tril(s) + np.tril(s, -1).T
