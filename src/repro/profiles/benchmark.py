"""Kernel performance profiles: benchmark once per machine, reuse forever.

A profile stores measured isolated-kernel times on a per-axis size
grid and predicts the time of an arbitrary call by multilinear
interpolation in log-log space (BLAS times are near power-law in each
dimension, so log-log interpolation stays accurate across the
20..1400 range with a handful of grid points).

Prediction is batch-first: :meth:`Profile.predict_batch` interpolates
whole ``(n, arity)`` dim matrices with array arithmetic, and the
scalar :meth:`Profile.predict` *is* a one-row batch — so scalar and
batched predictions are bit-for-bit identical by construction (the
repo-wide batching contract, see ``tests/test_batch_equivalence.py``).

The blend is table-driven.  ``__post_init__`` builds each axis's
tables once: its clamp bounds, its inner grid points (one
``searchsorted`` over them gives a row's cell directly), and each
cell's log low end and log width.  A batch then goes in blocks of
:data:`_BLOCK_ROWS` rows, so wide batches keep their temporaries
cache-sized, and each block clamps and logs its dims as one ``(arity,
n)`` array and blends all 2^arity cell corners at once.  The corner
weights are one ``(2^arity, n)`` array in corner-mask order (bit ``i``
of a corner's index picks axis ``i``'s upper end), built axis by axis:
``w0 * w1`` first, then ``* w2``, the order in which the per-corner
loop this replaced multiplied them.  A corner's grid index is its
offset plus the row's cell base.  The weighted log times are added
into zeros one corner after another, in corner order, and then
exponentiated, as that loop did, so every bit is the same
(``tests/test_profile_blend.py`` keeps the loop as the oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.backends.base import Backend
from repro.kernels.types import KERNEL_ARITY, KernelName

#: Rows one block of :meth:`Profile.predict_batch` blends at once: the
#: ``(2^arity, rows)`` corner arrays of a 3-axis block stay at 256 KB.
_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class Profile:
    kernel: KernelName
    axes: Tuple[Tuple[int, ...], ...]
    times: np.ndarray  # shape = tuple(len(axis) for axis in axes)

    def __post_init__(self) -> None:
        expected = tuple(len(axis) for axis in self.axes)
        if tuple(self.times.shape) != expected:
            raise ValueError(
                f"times shape {self.times.shape} != grid {expected}"
            )
        if any(len(axis) < 2 for axis in self.axes):
            raise ValueError("each axis needs at least two grid points")
        # Row-major strides (in elements) into the flattened grid, and
        # each corner's offset from its cell's base index.
        n_axes = len(self.axes)
        strides = np.ones(n_axes, dtype=np.intp)
        for i in range(n_axes - 2, -1, -1):
            strides[i] = strides[i + 1] * len(self.axes[i + 1])
        corners = np.arange(1 << n_axes)[:, None] >> np.arange(n_axes) & 1
        # Per axis: the clamp bounds (as columns), the inner grid points
        # (``searchsorted`` over them is the cell), and per cell its log
        # low end and log width, concatenated over the axes, with each
        # axis's first cell.
        axes_f = [np.asarray(axis, dtype=np.float64) for axis in self.axes]
        log_axes = [np.log(axis) for axis in axes_f]
        tables = {
            "_flat_log_times": np.log(
                np.ascontiguousarray(self.times)
            ).reshape(-1),
            "_strides": strides,
            "_corner_offsets": (corners @ strides)[:, None],
            "_low": np.array([[axis[0]] for axis in axes_f]),
            "_high": np.array([[axis[-1]] for axis in axes_f]),
            "_inner": [axis[1:-1] for axis in axes_f],
            "_cell_first": np.cumsum(
                [0] + [len(axis) - 1 for axis in axes_f[:-1]]
            )[:, None],
            "_cell_log_low": np.concatenate([a[:-1] for a in log_axes]),
            "_cell_log_width": np.concatenate(
                [a[1:] - a[:-1] for a in log_axes]
            ),
        }
        for name, table in tables.items():
            object.__setattr__(self, name, table)

    @property
    def n_points(self) -> int:
        return int(self.times.size)

    def predict(self, dims: Sequence[int]) -> float:
        """Interpolated time for one call; clamped outside the grid."""
        return float(self.predict_batch(np.asarray(dims)[None, :])[0])

    def predict_batch(self, dims_matrix: np.ndarray) -> np.ndarray:
        """Interpolated times for ``(n, arity)`` calls at once.

        Vectorized log-log multilinear interpolation over the 2^arity
        cell corners, in row blocks (see the module docstring).
        Values outside the grid are clamped, exactly like the scalar
        path (which is this method on a one-row matrix).
        """
        dims = np.asarray(dims_matrix)
        if dims.ndim != 2 or dims.shape[1] != len(self.axes):
            raise ValueError(
                f"{self.kernel.value} takes (n, {len(self.axes)}) dims, "
                f"got shape {dims.shape!r}"
            )
        out = np.empty(dims.shape[0])
        for start in range(0, dims.shape[0], _BLOCK_ROWS):
            stop = start + _BLOCK_ROWS
            np.exp(self._log_blend(dims[start:stop]), out=out[start:stop])
        return out

    def _log_blend(self, dims: np.ndarray) -> np.ndarray:
        """The interpolated log times of one block of ``(n, arity)`` dims."""
        n_axes, n = dims.shape[1], dims.shape[0]
        values = np.array(dims.T, dtype=np.float64, order="C")
        np.clip(values, self._low, self._high, out=values)
        cells = np.empty((n_axes, n), dtype=np.intp)
        for axis_i, inner in enumerate(self._inner):
            cells[axis_i] = inner.searchsorted(values[axis_i])
        base = self._strides @ cells
        cells += self._cell_first
        # factors[i]: axis i's (1 - w, w), the lower and upper end's
        # weight of each row.
        factors = np.empty((n_axes, 2, n))
        upper = factors[:, 1]
        np.subtract(np.log(values), self._cell_log_low[cells], out=upper)
        np.divide(upper, self._cell_log_width[cells], out=upper)
        np.subtract(1.0, upper, out=factors[:, 0])
        weights = factors[0]
        for axis_i in range(1, n_axes):
            weights = (factors[axis_i][:, None] * weights).reshape(-1, n)
        weights *= self._flat_log_times[self._corner_offsets + base]
        total = np.zeros(n)
        for term in weights:
            total += term
        return total


def build_profile(
    backend: Backend, kernel: KernelName, axes: Sequence[Sequence[int]]
) -> Profile:
    """Benchmark one kernel over the full grid of axis values."""
    axes_t = tuple(tuple(int(v) for v in axis) for axis in axes)
    if len(axes_t) != KERNEL_ARITY[kernel]:
        raise ValueError(
            f"{kernel.value} takes {KERNEL_ARITY[kernel]} axes, "
            f"got {len(axes_t)}"
        )
    shape = tuple(len(axis) for axis in axes_t)
    # One batched timing call over the whole grid (C-order, so the
    # reshape matches np.ndindex iteration).
    grid = [
        tuple(axis[i] for axis, i in zip(axes_t, index))
        for index in np.ndindex(*shape)
    ]
    times = backend.time_kernels(kernel, grid).reshape(shape)
    return Profile(kernel=kernel, axes=axes_t, times=times)


#: Per-dimension grid of the standard profile-benchmarking pass —
#: shared by the selection service, the discriminant ablation bench
#: and the ablation harness so their profile-based discriminants are
#: comparable.
PROFILE_AXIS = (24, 64, 160, 400, 800, 1400)


def build_all_profiles(
    backend: Backend,
    axes_by_kernel: Dict[KernelName, Sequence[Sequence[int]]],
) -> Dict[KernelName, Profile]:
    """The one-off per-machine benchmarking pass (paper §5's proposal)."""
    return {
        kernel: build_profile(backend, kernel, axes)
        for kernel, axes in axes_by_kernel.items()
    }


def standard_profiles(backend: Backend) -> Dict[KernelName, Profile]:
    """Every kernel profiled over the :data:`PROFILE_AXIS` grid."""
    return build_all_profiles(
        backend,
        {
            kernel: (PROFILE_AXIS,) * KERNEL_ARITY[kernel]
            for kernel in KernelName
        },
    )
