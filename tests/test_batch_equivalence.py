"""Scalar/batch equivalence: the batched paths must be bit-for-bit.

The vectorized engine (machine ``*_batch`` methods, backend batch API,
``classify_batch``, and the batched experiment drivers) promises
results *identical* to point-by-point evaluation — not approximately
equal: every comparison here is ``==`` on floats.  Parametrized over
all three machine presets and the seeds the benchmark suite uses.
"""

import random

import numpy as np
import pytest

from repro.backends.base import Backend
from repro.backends.simulated import SimulatedBackend
from repro.core.classify import (
    batch_flops,
    classify,
    classify_batch,
    evaluate_instance,
    evaluate_instances,
)
from repro.core.searchspace import Box, paper_box
from repro.experiments.prediction import predict_from_benchmarks
from repro.experiments.random_search import random_search
from repro.experiments.regions import (
    RegionCell,
    RegionCells,
    explore_regions,
)
from repro.expressions.registry import get_expression, known_expressions
from repro.kernels.types import KernelName
from repro.machine.presets import (
    no_cache_machine,
    no_variants_machine,
    paper_machine,
)

PRESETS = {
    "paper": paper_machine,
    "no_cache": no_cache_machine,
    "no_variants": no_variants_machine,
}
SEEDS = (0, 1, 2, 7)

CASES = [
    pytest.param(name, seed, id=f"{name}-seed{seed}")
    for name in PRESETS
    for seed in SEEDS
]


def _instances(n_dims, count, seed=123):
    rng = random.Random(seed)
    box = paper_box(n_dims)
    return [box.sample(rng) for _ in range(count)]


@pytest.fixture(scope="module")
def aatb():
    return get_expression("aatb")


@pytest.fixture(scope="module")
def chain():
    return get_expression("chain4")


# ----------------------------------------------------------------------
# Machine layer
# ----------------------------------------------------------------------


@pytest.mark.parametrize("preset,seed", CASES)
def test_measure_kernel_batch_matches_scalar(preset, seed):
    machine = PRESETS[preset](seed=seed)
    rng = random.Random(seed)
    for kernel, arity in (
        (KernelName.GEMM, 3),
        (KernelName.SYRK, 2),
        (KernelName.SYMM, 2),
    ):
        dims = [
            tuple(rng.randint(20, 1200) for _ in range(arity))
            for _ in range(10)
        ]
        batch = machine.measure_kernel_batch(kernel, dims)
        scalar = [machine.measure_kernel(kernel, d) for d in dims]
        assert batch.tolist() == scalar
        eff_batch = machine.efficiency_batch(kernel, dims)
        assert eff_batch.tolist() == [
            machine.efficiency(kernel, d) for d in dims
        ]


@pytest.mark.parametrize("preset,seed", CASES)
def test_algorithm_batches_match_scalar(preset, seed, aatb, chain):
    machine = PRESETS[preset](seed=seed)
    for expression, count in ((aatb, 12), (chain, 8)):
        instances = _instances(expression.n_dims, count, seed=seed)
        arr = np.asarray(instances, dtype=np.int64)
        algorithms = expression.algorithms()
        steps = [a.plan.steps for a in algorithms]
        names = [a.name for a in algorithms]
        measured = machine.measure_plans_batch(arr, steps, names)
        predicted = machine.predict_plans_batch(arr, steps, names)
        for i in range(len(instances)):
            row = arr[i:i + 1]
            assert measured[:, i].tolist() == machine.measure_plans_batch(
                row, steps, names
            )[:, 0].tolist()
            assert predicted[:, i].tolist() == machine.predict_plans_batch(
                row, steps, names
            )[:, 0].tolist()


# ----------------------------------------------------------------------
# Backend layer: vectorized overrides vs the scalar-loop defaults
# ----------------------------------------------------------------------


@pytest.mark.parametrize("preset,seed", CASES)
def test_backend_batch_api_matches_default_loops(preset, seed, aatb):
    instances = _instances(3, 15, seed=seed)
    algorithm = aatb.algorithms()[0]
    fast = SimulatedBackend(PRESETS[preset](seed=seed))
    slow = SimulatedBackend(PRESETS[preset](seed=seed))
    assert (
        fast.time_algorithms(algorithm, instances).tolist()
        == Backend.time_algorithms(slow, algorithm, instances).tolist()
    )
    assert (
        fast.predict_times(algorithm, instances).tolist()
        == [slow.predict_time(algorithm, inst) for inst in instances]
    )
    dims = [inst[:2] for inst in instances]
    assert (
        fast.time_kernels(KernelName.SYRK, dims).tolist()
        == Backend.time_kernels(slow, KernelName.SYRK, dims).tolist()
    )


# ----------------------------------------------------------------------
# Classification layer
# ----------------------------------------------------------------------


@pytest.mark.parametrize("preset,seed", CASES)
def test_classify_batch_matches_scalar(preset, seed, aatb):
    instances = _instances(3, 20, seed=seed)
    algorithms = aatb.algorithms()
    batch_backend = SimulatedBackend(PRESETS[preset](seed=seed))
    scalar_backend = SimulatedBackend(PRESETS[preset](seed=seed))
    batch = evaluate_instances(batch_backend, algorithms, instances)
    for threshold in (0.05, 0.10):
        batched = classify_batch(batch, threshold=threshold)
        scalar = []
        for i, instance in enumerate(instances):
            evaluation = evaluate_instance(
                scalar_backend, algorithms, instance
            )
            assert batch.evaluation(i) == evaluation
            assert batched[i] == classify(evaluation, threshold=threshold)
            scalar.append(classify(evaluation, threshold=threshold))
        assert len(batched) == len(instances)
        assert list(batched) == scalar
        assert batched[-1] == scalar[-1]


# ----------------------------------------------------------------------
# Experiment layer
# ----------------------------------------------------------------------


@pytest.mark.parametrize("preset,seed", CASES)
def test_random_search_identical_for_any_batch_size(preset, seed, aatb):
    box = paper_box(3)
    results = [
        random_search(
            SimulatedBackend(PRESETS[preset](seed=seed)),
            aatb,
            box,
            threshold=0.10,
            target_anomalies=3,
            max_samples=150,
            seed=seed,
            batch_size=batch_size,
        )
        for batch_size in (1, 7, 64, None)
    ]
    for other in results[1:]:
        assert other == results[0]


def _reference_explore_regions(
    backend, expression, origins, box, threshold, dims, step, hole_tolerance
):
    """Point-by-point region traversal (the pre-batching algorithm),
    with the origin recorded once per region and cells deduplicated by
    instance — the semantics ``explore_regions`` must reproduce."""
    from repro.experiments.regions import DimExtent, Region, Regions

    algorithms = expression.algorithms()
    cells, seen, regions = [], set(), []

    def record(instance, verdict):
        if instance not in seen:
            seen.add(instance)
            cells.append(
                RegionCell(
                    instance=instance,
                    time_score=verdict.time_score,
                    is_anomaly=verdict.is_anomaly,
                )
            )

    def walk(origin, dim, direction):
        extreme = position = origin[dim]
        holes = 0
        while True:
            position += direction * step
            if not box.lows[dim] <= position <= box.highs[dim]:
                break
            instance = tuple(
                position if i == dim else v for i, v in enumerate(origin)
            )
            verdict = classify(
                evaluate_instance(backend, algorithms, instance),
                threshold=threshold,
            )
            record(instance, verdict)
            if verdict.is_anomaly:
                extreme = position
                holes = 0
            else:
                holes += 1
                if holes > hole_tolerance:
                    break
        return extreme

    for origin in origins:
        origin = tuple(int(v) for v in origin)
        verdict = classify(
            evaluate_instance(backend, algorithms, origin),
            threshold=threshold,
        )
        record(origin, verdict)
        extents = {}
        if verdict.is_anomaly:
            for dim in dims:
                lo = walk(origin, dim, -1)
                hi = walk(origin, dim, +1)
                extents[dim] = DimExtent(dim=dim, lo=lo, hi=hi)
        regions.append(Region(origin=origin, extents=extents))
    return Regions(
        expression=expression.name,
        threshold=threshold,
        n_dims=expression.n_dims,
        regions=tuple(regions),
        cells=RegionCells.from_rows(cells, expression.n_dims),
    )


@pytest.mark.parametrize("preset,seed", CASES)
def test_explore_regions_matches_scalar_reference(preset, seed, aatb):
    box = paper_box(3)
    search = random_search(
        SimulatedBackend(PRESETS[preset](seed=seed)),
        aatb,
        box,
        threshold=0.10,
        target_anomalies=2,
        max_samples=150,
        seed=seed,
    )
    origins = [anomaly.instance for anomaly in search.anomalies]
    kwargs = dict(
        box=box, threshold=0.05, dims=(0, 2), step=48, hole_tolerance=2
    )
    batched = explore_regions(
        SimulatedBackend(PRESETS[preset](seed=seed)), aatb, origins, **kwargs
    )
    reference = _reference_explore_regions(
        SimulatedBackend(PRESETS[preset](seed=seed)), aatb, origins, **kwargs
    )
    assert batched == reference


#: Origins on a face of ``FACE_BOX``, one step (7, 16 or 48) inside a
#: face, and outside the box on one or more axes.
FACE_ORIGINS = [
    (20, 300, 300),
    (20, 1100, 20),
    (27, 20, 1200),
    (36, 1084, 1152),
    (92, 1095, 323),
    (5, 300, 300),
    (5, 1100, 5),
    (92, 1095, 1300),
    (1300, 40, 1250),
]
FACE_BOX = Box((20, 20, 20), (1200, 1100, 1200))


@pytest.mark.parametrize("dims", [(0,), (0, 1, 2)], ids=["dim0", "all"])
@pytest.mark.parametrize("step", [7, 16, 48, 1180])
def test_explore_regions_matches_scalar_reference_at_box_faces(
    step, dims, aatb
):
    # Steps 7, 16 and 48 divide neither span (1180, 1080); 1180 takes
    # a walk from one face to the other in one step.  Threshold 0
    # lets the rays walk far, so walks end at every kind of face.
    kwargs = dict(
        box=FACE_BOX, threshold=0.0, dims=dims, step=step, hole_tolerance=2
    )
    batched = explore_regions(
        SimulatedBackend(paper_machine(seed=0)), aatb, FACE_ORIGINS, **kwargs
    )
    reference = _reference_explore_regions(
        SimulatedBackend(paper_machine(seed=0)), aatb, FACE_ORIGINS, **kwargs
    )
    assert batched == reference


@pytest.mark.parametrize("preset,seed", CASES)
def test_prediction_matches_scalar_reference(preset, seed, aatb):
    from repro.core.classify import Evaluation
    from repro.experiments.prediction import PredictionRecord

    box = paper_box(3)
    backend = SimulatedBackend(PRESETS[preset](seed=seed))
    search = random_search(
        backend, aatb, box, threshold=0.10,
        target_anomalies=1, max_samples=150, seed=seed,
    )
    regions = explore_regions(
        backend, aatb,
        [a.instance for a in search.anomalies],
        box, threshold=0.05, dims=(0,), step=96,
    )
    batched = predict_from_benchmarks(backend, aatb, regions)

    scalar_backend = SimulatedBackend(PRESETS[preset](seed=seed))
    algorithms = aatb.algorithms()
    for cell, record in zip(regions.cells, batched.records):
        evaluation = Evaluation(
            instance=cell.instance,
            algorithm_names=tuple(a.name for a in algorithms),
            flops=tuple(int(a.flops(cell.instance)) for a in algorithms),
            seconds=tuple(
                float(scalar_backend.predict_time(a, cell.instance))
                for a in algorithms
            ),
        )
        verdict = classify(evaluation, threshold=regions.threshold)
        assert record == PredictionRecord(
            instance=cell.instance,
            actual_anomaly=cell.is_anomaly,
            predicted_anomaly=verdict.is_anomaly,
            actual_score=cell.time_score,
            predicted_score=verdict.time_score,
        )


def test_region_cells_are_unique_and_include_origins(aatb):
    box = paper_box(3)
    backend = SimulatedBackend(paper_machine(seed=0))
    search = random_search(
        backend, aatb, box, threshold=0.10,
        target_anomalies=2, max_samples=300, seed=0,
    )
    origins = [a.instance for a in search.anomalies]
    # Duplicate an origin on purpose: its verdict must be recorded once.
    regions = explore_regions(
        backend, aatb, origins + origins[:1], box,
        threshold=0.05, dims=(0, 1),
    )
    instances = [cell.instance for cell in regions.cells]
    assert len(instances) == len(set(instances))
    recorded = set(instances)
    for origin in origins:
        assert origin in recorded
    assert len(regions.regions) == len(origins) + 1


def test_base_predict_time_dedupes_kernel_timings(aatb):
    class CountingBackend(Backend):
        def __init__(self):
            self.kernel_calls = []

        @property
        def peak_flops(self):
            return 1.0

        def time_algorithm(self, algorithm, instance):
            raise NotImplementedError

        def time_kernel(self, kernel, dims):
            self.kernel_calls.append((kernel, tuple(dims)))
            return 1.0

    # aatb-3 at d1 == d2 issues GEMM(d0, d0, d1) and GEMM(d0, d2, d0)
    # which collide when all dims are equal.
    algorithm = aatb.algorithms()[2]
    backend = CountingBackend()
    total = backend.predict_time(algorithm, (64, 64, 64))
    assert total == 2.0  # both occurrences contribute
    assert len(backend.kernel_calls) == 1  # but only one benchmark ran
    backend.kernel_calls.clear()
    out = backend.predict_times(algorithm, [(64, 64, 64), (64, 64, 64), (32, 64, 64)])
    assert out.tolist() == [2.0, 2.0, 2.0]
    # one distinct call for the first two instances + two for the third
    assert len(backend.kernel_calls) == 3


def test_predict_times_matrix_dedupes_across_plans(aatb):
    """One benchmark memo spans all the plans of an evaluation batch."""

    class CountingBackend(Backend):
        def __init__(self):
            self.kernel_calls = []

        @property
        def peak_flops(self):
            return 1.0

        def time_algorithm(self, algorithm, instance):
            raise NotImplementedError

        def time_kernel(self, kernel, dims):
            self.kernel_calls.append((kernel, tuple(dims)))
            return 1.0

    # aatb-1 = SYRK(d0,d1) + SYMM(d0,d2); aatb-2 = SYRK(d0,d1) +
    # GEMM(d0,d2,d0): the SYRK call is shared, so a matrix prediction
    # benchmarks 3 distinct kernels where per-plan calls would run 4.
    algorithms = aatb.algorithms()[:2]
    backend = CountingBackend()
    out = backend.predict_times_matrix(algorithms, [(64, 96, 128)])
    assert out.shape == (1, 2)
    assert out.tolist() == [[2.0, 2.0]]
    assert len(backend.kernel_calls) == 3  # memo hit for aatb-2's SYRK

    # Without the shared memo, each plan re-times its own calls.
    backend.kernel_calls.clear()
    for algorithm in algorithms:
        backend.predict_times(algorithm, [(64, 96, 128)])
    assert len(backend.kernel_calls) == 4


def test_machine_base_seconds_dedupe_across_plans(aatb, monkeypatch):
    """One pass computes each distinct (kernel, dims) base time once
    across plan contexts, without perturbing a single bit of any
    prediction."""
    instances = _instances(3, 10, seed=5)
    algorithms = aatb.algorithms()
    shared = SimulatedBackend(paper_machine(seed=0))
    computed = []
    original = shared.machine.kernel_seconds_batch

    def counted(kernel, dims):
        computed.append((kernel, np.ascontiguousarray(dims).tobytes()))
        return original(kernel, dims)

    monkeypatch.setattr(shared.machine, "kernel_seconds_batch", counted)
    got = shared.predict_times_matrix(algorithms, instances)
    # Every plan starts with SYRK or GEMM over overlapping dim columns:
    # 10 call slots, fewer distinct ones, each computed exactly once.
    assert len(computed) == len(set(computed)) < 2 * len(algorithms)
    for j, algorithm in enumerate(algorithms):
        # A fresh machine per algorithm shares nothing across plans.
        fresh = SimulatedBackend(paper_machine(seed=0))
        assert fresh.predict_times(algorithm, instances).tolist() == (
            got[:, j].tolist()
        )


# ----------------------------------------------------------------------
# Profiles and profile-based discriminants
# ----------------------------------------------------------------------

_PROFILE_GRID = (24, 64, 160, 400, 800, 1400)


def _profiles_for(seed):
    from repro.profiles.benchmark import build_all_profiles

    backend = SimulatedBackend(paper_machine(seed=seed))
    return backend, build_all_profiles(
        backend,
        axes_by_kernel={
            KernelName.GEMM: (_PROFILE_GRID,) * 3,
            KernelName.SYRK: (_PROFILE_GRID,) * 2,
            KernelName.SYMM: (_PROFILE_GRID,) * 2,
        },
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_profile_predict_batch_matches_scalar(seed):
    _, profiles = _profiles_for(seed)
    rng = random.Random(seed)
    for profile in profiles.values():
        arity = len(profile.axes)
        # On-grid, off-grid, and out-of-range (clamped) dims.
        dims = [tuple(rng.randint(1, 2000) for _ in range(arity))
                for _ in range(50)]
        dims += [
            tuple(_PROFILE_GRID[0] for _ in range(arity)),
            tuple(_PROFILE_GRID[-1] for _ in range(arity)),
            tuple(3000 for _ in range(arity)),
        ]
        batch = profile.predict_batch(np.asarray(dims, dtype=np.int64))
        scalar = [profile.predict(d) for d in dims]
        # Bit-for-bit: the scalar path IS a one-row batch.
        assert batch.tolist() == scalar
        with pytest.raises(ValueError):
            profile.predict_batch(np.zeros((4, arity + 1), dtype=np.int64))


@pytest.mark.parametrize("seed", SEEDS)
def test_profiled_discriminant_select_batch_matches_scalar(
    seed, aatb, chain
):
    from repro.core.discriminants import (
        FlopsProfileHybrid,
        ProfiledTimeDiscriminant,
    )

    _, profiles = _profiles_for(seed)
    for expression in (aatb, chain):
        algorithms = expression.algorithms()
        instances = _instances(expression.n_dims, 200, seed=seed)
        for discriminant in (
            ProfiledTimeDiscriminant(profiles),
            FlopsProfileHybrid(profiles, margin=0.5),
            FlopsProfileHybrid(profiles, margin=0.0),
            FlopsProfileHybrid(profiles, margin=5.0),
        ):
            scalar = [
                discriminant.select(algorithms, inst) for inst in instances
            ]
            assert discriminant.select_batch(algorithms, instances) == scalar
            assert discriminant.select_batch(algorithms, []) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_predicted_times_batch_matches_scalar_sum(seed, aatb):
    from repro.core.discriminants import ProfiledTimeDiscriminant

    _, profiles = _profiles_for(seed)
    discriminant = ProfiledTimeDiscriminant(profiles)
    instances = _instances(aatb.n_dims, 60, seed=seed)
    arr = np.asarray(instances, dtype=np.int64)
    for algorithm in aatb.algorithms():
        batch = discriminant.predicted_times_batch(algorithm, arr)
        assert batch.tolist() == [
            discriminant.predicted_time(algorithm, inst)
            for inst in instances
        ]


# ----------------------------------------------------------------------
# Call slots on the selection path: one interpolation, one base-time
# call per kernel
# ----------------------------------------------------------------------

#: Every registered family, plus pruned sum6 and chain5.
SLOT_FAMILIES = tuple(dict.fromkeys(known_expressions() + ("sum6", "chain5")))


@pytest.fixture(scope="module")
def standard():
    """A backend and every kernel's profile on the standard grid."""
    from repro.profiles.benchmark import standard_profiles

    backend = SimulatedBackend(paper_machine(seed=0))
    return backend, standard_profiles(backend)


def _slot_batches(n_dims: int, seed: int):
    """Batches of 0, 1, 2, 7 and 128 rows: random, all-equal, off-grid.

    Off-grid rows lie below or above the profile grid, where the
    interpolation clamps.  The 128-row batch draws from 8 distinct
    rows, half of them off the grid, so its scalar oracle stays cheap.
    """
    rng = np.random.default_rng(seed)

    def off_grid(n):
        below = rng.random((n, n_dims)) < 0.5
        low = rng.integers(1, 24, size=(n, n_dims))
        return np.where(below, low, rng.integers(1401, 4000, (n, n_dims)))

    for n in (0, 1, 2, 7):
        yield f"random-{n}", rng.integers(20, 1201, size=(n, n_dims))
    pool = np.concatenate([rng.integers(20, 1201, (4, n_dims)), off_grid(4)])
    yield "mixed-128", pool[rng.integers(0, 8, size=128)]
    row = rng.integers(20, 1201, size=n_dims)
    for n in (2, 7, 128):
        yield f"all-equal-{n}", np.tile(row, (n, 1))
    yield "off-grid-7", off_grid(7)


@pytest.mark.parametrize("family", SLOT_FAMILIES)
def test_predicted_times_matrix_matches_scalar(family, standard):
    from repro.core.discriminants import ProfiledTimeDiscriminant

    discriminant = ProfiledTimeDiscriminant(standard[1])
    expression = get_expression(family)
    algorithms = expression.algorithms()
    for name, arr in _slot_batches(expression.n_dims, seed=len(family)):
        got = discriminant.predicted_times_matrix(algorithms, arr)
        assert got.shape == (arr.shape[0], len(algorithms)), name
        rows = [tuple(row) for row in arr.tolist()]
        for j, algorithm in enumerate(algorithms):
            scalar = {
                row: discriminant.predicted_time(algorithm, row)
                for row in set(rows)
            }
            assert got[:, j].tolist() == [scalar[row] for row in rows], (
                name, algorithm.name
            )
            assert discriminant.predicted_times_batch(
                algorithm, arr
            ).tolist() == got[:, j].tolist()


@pytest.mark.parametrize("family", known_expressions())
def test_profile_discriminants_match_scalar_on_every_family(family, standard):
    from repro.core.discriminants import (
        FlopsProfileHybrid,
        ProfiledTimeDiscriminant,
    )

    profiles = standard[1]
    expression = get_expression(family)
    algorithms = expression.algorithms()
    instances = _instances(expression.n_dims, 60, seed=len(family))
    for discriminant in (
        ProfiledTimeDiscriminant(profiles),
        FlopsProfileHybrid(profiles, margin=0.0),
        FlopsProfileHybrid(profiles, margin=0.5),
        FlopsProfileHybrid(profiles, margin=5.0),
    ):
        scalar = [discriminant.select(algorithms, inst) for inst in instances]
        assert discriminant.select_batch(algorithms, instances) == scalar


def test_missing_profile_raises_the_same_key_error(standard, aatb):
    from repro.core.discriminants import ProfiledTimeDiscriminant

    profiles = dict(standard[1])
    del profiles[KernelName.SYMM]
    discriminant = ProfiledTimeDiscriminant(profiles)
    algorithms = aatb.algorithms()
    with pytest.raises(KeyError, match="no profile for kernel symm"):
        discriminant.select(algorithms, (100, 200, 300))
    with pytest.raises(KeyError, match="no profile for kernel symm"):
        discriminant.select_batch(algorithms, [(100, 200, 300)])


@pytest.mark.parametrize("margin", (0.0, 0.5))
def test_hybrid_needs_no_profile_for_never_shortlisted_plans(
    margin, standard, aatb
):
    """A kernel only never-shortlisted plans call needs no profile.

    With d2 small against d0, aatb-5's 4·d0·d1·d2 FLOPs undercut every
    plan that calls SYRK or SYMM by far more than the margin, so only
    GEMM is ever interpolated, in one row or in a batch.
    """
    from repro.core.discriminants import FlopsProfileHybrid

    algorithms = aatb.algorithms()
    rng = np.random.default_rng(11)
    instances = np.stack([
        rng.integers(800, 1400, 64),
        rng.integers(300, 1400, 64),
        rng.integers(10, 40, 64),
    ], axis=1).tolist()
    flops = batch_flops(algorithms, np.asarray(instances))
    shortlisted = flops <= (flops.min(axis=1) * (1.0 + margin))[:, None]
    calls_others = [
        any(s.kernel is not KernelName.GEMM for s in a.plan.steps)
        for a in algorithms
    ]
    assert not shortlisted[:, calls_others].any()
    gemm_only = {KernelName.GEMM: standard[1][KernelName.GEMM]}
    hybrid = FlopsProfileHybrid(gemm_only, margin=margin)
    scalar = [hybrid.select(algorithms, inst) for inst in instances]
    assert hybrid.select_batch(algorithms, instances) == scalar
    assert [hybrid.select_batch(algorithms, [inst])[0]
            for inst in instances] == scalar
    full = FlopsProfileHybrid(standard[1], margin=margin)
    assert full.select_batch(algorithms, instances) == scalar


def test_one_row_sum4_hybrid_interpolates_once(standard, monkeypatch):
    """All shortlisted plans' GEMM slots go through one interpolation."""
    from repro.core.discriminants import FlopsProfileHybrid
    from repro.profiles.benchmark import Profile

    hybrid = FlopsProfileHybrid(standard[1], margin=0.5)
    algorithms = get_expression("sum4").algorithms()
    instance = (300, 40, 900, 120, 640, 75, 1100, 210)
    want = hybrid.select(algorithms, instance)
    rows = []
    original = Profile.predict_batch

    def counted(self, dims):
        rows.append(len(dims))
        return original(self, dims)

    monkeypatch.setattr(Profile, "predict_batch", counted)
    assert hybrid.select_batch(algorithms, [instance]) == [want]
    assert len(rows) == 1
    assert rows[0] > 1  # several distinct GEMM slots, stacked


@pytest.mark.parametrize("bound", [1, 7, 20, 41])
def test_stacked_interpolations_are_bounded(bound, standard, monkeypatch):
    """Wide batches split each kernel's slots over bounded calls."""
    from repro.core import discriminants
    from repro.profiles.benchmark import Profile

    discriminant = discriminants.ProfiledTimeDiscriminant(standard[1])
    algorithms = get_expression("sum4").algorithms()
    arr = dict(_slot_batches(8, seed=3))["mixed-128"][:10]
    want = discriminant.predicted_times_matrix(algorithms, arr)
    rows = []
    original = Profile.predict_batch

    def counted(self, dims):
        rows.append(len(dims))
        return original(self, dims)

    monkeypatch.setattr(discriminants, "_STACKED_ROWS", bound)
    monkeypatch.setattr(Profile, "predict_batch", counted)
    got = discriminant.predicted_times_matrix(algorithms, arr)
    assert got.tolist() == want.tolist()
    # sum4's 20 GEMM slots over 10 rows: whole slots, at least one a call.
    assert sum(rows) == 20 * 10
    assert max(rows) == max(10, bound // 10 * 10)


def test_one_row_prediction_computes_base_seconds_once_per_kernel(
    aatb, monkeypatch
):
    """aatb's 5 plans make 10 calls over 6 slots of 3 kernels."""
    backend = SimulatedBackend(paper_machine(seed=0))
    kernels = []
    original = backend.machine.kernel_seconds_batch

    def counted(kernel, dims):
        kernels.append(kernel)
        return original(kernel, dims)

    monkeypatch.setattr(backend.machine, "kernel_seconds_batch", counted)
    got = backend.predict_times_matrix(aatb.algorithms(), [(64, 96, 128)])
    assert sorted(kernel.value for kernel in kernels) == [
        "gemm", "symm", "syrk"
    ]
    for j, algorithm in enumerate(aatb.algorithms()):
        fresh = SimulatedBackend(paper_machine(seed=0))
        assert fresh.predict_time(algorithm, (64, 96, 128)) == got[0, j]


def _discriminants(standard):
    from repro.core.discriminants import (
        BenchmarkDiscriminant,
        FlopsProfileHybrid,
        MinFlopsDiscriminant,
        ProfiledTimeDiscriminant,
    )

    backend, profiles = standard
    return {
        "min-flops": MinFlopsDiscriminant(),
        "profiled-time": ProfiledTimeDiscriminant(profiles),
        "hybrid": FlopsProfileHybrid(profiles),
        "benchmark-sum": BenchmarkDiscriminant(backend),
    }


@pytest.mark.parametrize(
    "name", ("min-flops", "profiled-time", "hybrid", "benchmark-sum")
)
@pytest.mark.parametrize("form", ("select", "select_batch"))
@pytest.mark.parametrize(
    "instance", [(100, 200, 300, 400), (100, 200)], ids=("wide", "narrow")
)
def test_discriminants_refuse_instances_of_the_wrong_width(
    name, form, instance, standard, aatb
):
    discriminant = _discriminants(standard)[name]
    algorithms = aatb.algorithms()
    select = getattr(discriminant, form)
    argument = instance if form == "select" else [instance]
    with pytest.raises(ValueError, match="aatb takes 3 dims"):
        select(algorithms, argument)
    right = (100, 200, 300)
    assert discriminant.select_batch(algorithms, [right]) == [
        discriminant.select(algorithms, right)
    ]
