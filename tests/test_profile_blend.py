"""The profile blend against the per-corner loop it replaced.

:meth:`Profile.predict_batch` blends every cell corner at once from
tables built when the profile is made.  The reference below is the
loop it replaced, kept here as the oracle: per axis the bracketing
cell and log-space weight, then per corner mask a weight multiplied
up axis by axis and a flat grid index, added into zeros corner after
corner.  Every comparison is bit equality on the int64 view, so even
a NaN payload or the sign of a zero would show.
"""

import numpy as np
import pytest

from repro.kernels.types import KernelName
from repro.profiles.benchmark import _BLOCK_ROWS, Profile


def reference_predict(profile: Profile, dims_matrix) -> np.ndarray:
    """The per-corner blend loop, from the profile's public fields."""
    axes_f = [np.asarray(axis, dtype=np.float64) for axis in profile.axes]
    log_axes = [np.log(axis) for axis in axes_f]
    flat_log = np.log(np.ascontiguousarray(profile.times)).reshape(-1)
    n_axes = len(profile.axes)
    strides = np.ones(n_axes, dtype=np.int64)
    for i in range(n_axes - 2, -1, -1):
        strides[i] = strides[i + 1] * len(profile.axes[i + 1])
    dims = np.asarray(dims_matrix, dtype=np.float64)
    n = dims.shape[0]
    lows = np.empty((n, n_axes), dtype=np.int64)
    weights = np.empty((n, n_axes), dtype=np.float64)
    for axis_i, (axis_f, log_axis) in enumerate(zip(axes_f, log_axes)):
        v = np.clip(dims[:, axis_i], axis_f[0], axis_f[-1])
        hi = np.clip(
            np.searchsorted(axis_f, v, side="left"), 1, len(axis_f) - 1
        )
        lo = hi - 1
        lows[:, axis_i] = lo
        weights[:, axis_i] = (np.log(v) - log_axis[lo]) / (
            log_axis[hi] - log_axis[lo]
        )
    total = np.zeros(n, dtype=np.float64)
    for mask in range(1 << n_axes):
        weight = np.ones(n, dtype=np.float64)
        flat_index = np.zeros(n, dtype=np.int64)
        for axis_i in range(n_axes):
            if mask >> axis_i & 1:
                weight = weight * weights[:, axis_i]
                flat_index += (lows[:, axis_i] + 1) * strides[axis_i]
            else:
                weight = weight * (1.0 - weights[:, axis_i])
                flat_index += lows[:, axis_i] * strides[axis_i]
        total += weight * flat_log[flat_index]
    return np.exp(total)


def _seeded_profile(lengths, seed: int) -> Profile:
    """Axes of the given lengths, sorted distinct points, positive times."""
    rng = np.random.default_rng(seed)
    axes = tuple(
        tuple(sorted(
            rng.choice(np.arange(8, 3000), size=length, replace=False).tolist()
        ))
        for length in lengths
    )
    times = rng.uniform(1e-6, 1e-1, size=tuple(lengths))
    kernel = KernelName.GEMM if len(lengths) == 3 else KernelName.SYRK
    return Profile(kernel=kernel, axes=axes, times=times)


#: Axis lengths of the seeded profiles: arity 2 and 3, unequal, 2 to 6.
LENGTHS = ((2, 5), (6, 3), (4, 2), (2, 4, 6), (6, 3, 2), (5, 2, 4))

#: Batch widths: tiny ones, a row block and one row either side, and
#: the widest stacked interpolation a selection makes.
ROW_COUNTS = (
    0, 1, 2, 7, 128, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 32768
)


def _rows(profile: Profile, n: int, seed: int) -> np.ndarray:
    """``n`` rows mixing grid points, points between them, and points
    below and above the grid (clamped), column by column."""
    rng = np.random.default_rng(seed)
    columns = []
    for axis in profile.axes:
        lo, hi = axis[0], axis[-1]
        kind = rng.integers(0, 4, size=n)
        on_grid = rng.choice(np.asarray(axis), size=n)
        between = rng.integers(lo, hi + 1, size=n)
        below = rng.integers(1, lo + 1, size=n)
        above = rng.integers(hi, 2 * hi + 2, size=n)
        columns.append(np.choose(kind, [on_grid, between, below, above]))
    return np.stack(columns, axis=1).astype(np.int64)


def _assert_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("lengths", LENGTHS)
@pytest.mark.parametrize("n", ROW_COUNTS)
def test_blend_matches_the_per_corner_loop(lengths, n):
    seed = LENGTHS.index(lengths)
    profile = _seeded_profile(lengths, seed)
    arr = _rows(profile, n, seed=1000 * seed + n)
    _assert_bits(profile.predict_batch(arr), reference_predict(profile, arr))


@pytest.mark.parametrize("lengths", LENGTHS)
def test_grid_corners_and_clamped_rows_match(lengths):
    """Every grid point, and rows at and past both ends of every axis."""
    profile = _seeded_profile(lengths, LENGTHS.index(lengths))
    arity = len(lengths)
    grid = np.stack(
        np.meshgrid(*profile.axes, indexing="ij"), axis=-1
    ).reshape(-1, arity)
    ends = np.array([
        [axis[0] - 1 if axis[0] > 1 else 1 for axis in profile.axes],
        [axis[0] for axis in profile.axes],
        [axis[-1] for axis in profile.axes],
        [axis[-1] + 1 for axis in profile.axes],
        [10 * axis[-1] for axis in profile.axes],
    ])
    for arr in (grid, ends, grid.astype(np.float64) + 0.5):
        _assert_bits(
            profile.predict_batch(arr), reference_predict(profile, arr)
        )
    # On a grid point the blend returns the measured time itself.
    assert np.allclose(
        profile.predict_batch(grid), profile.times.reshape(-1), rtol=1e-12
    )


@pytest.mark.parametrize("lengths", LENGTHS)
def test_one_row_batches_match_the_per_corner_loop(lengths):
    """One row at a time, inside the grid, so every corner weighs in:
    a one-row batch adds its corners in the loop's order too, and
    ``predict`` is that one-row batch."""
    profile = _seeded_profile(lengths, 7)
    rng = np.random.default_rng(7)
    arr = np.stack(
        [rng.integers(a[0] + 1, a[-1], size=64) for a in profile.axes], axis=1
    )
    want = reference_predict(profile, arr)
    for row, value in zip(arr, want):
        _assert_bits(profile.predict_batch(row[None, :]), value[None])
        assert profile.predict(row.tolist()) == value


def test_row_blocks_do_not_reenter_predict_batch(monkeypatch):
    """A batch wider than a block is still one ``predict_batch`` call
    (the pipeline benchmark's tracer counts calls of that method)."""
    profile = _seeded_profile(LENGTHS[3], 0)
    arr = _rows(profile, 2 * _BLOCK_ROWS + 5, seed=3)
    calls = []
    original = Profile.predict_batch

    def counted(self, dims):
        calls.append(len(dims))
        return original(self, dims)

    monkeypatch.setattr(Profile, "predict_batch", counted)
    _assert_bits(profile.predict_batch(arr), reference_predict(profile, arr))
    assert calls == [len(arr)]


def test_blend_refuses_the_wrong_width():
    profile = _seeded_profile(LENGTHS[0], 0)
    with pytest.raises(ValueError, match=r"takes \(n, 2\) dims"):
        profile.predict_batch(np.zeros((4, 3), dtype=np.int64))
    with pytest.raises(ValueError, match=r"takes \(n, 2\) dims"):
        profile.predict_batch(np.zeros(4, dtype=np.int64))
