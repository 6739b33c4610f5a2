"""One machine pass per evaluation batch, one memo row per instance.

The machine measures all the plans of an evaluation batch together:
one pass draws the noise of every call slot of several plans at once
and returns both the measured column (with inter-kernel interference)
and the benchmark prediction (without) from that one draw.  It is
exact because the two columns use the same measurement ids by design
and rounding is monotone: for a base time ``c > 0`` the median of
``c * f`` is the scaled median factor.  Noise, base times and
interference are elementwise, so grouping plans into passes changes
no bit either.  The differential tests below hold the pass to the
per-plan formulation, kept here as the reference: separate
``np.median(base[:, None] * factors, axis=1)`` passes per call and
column over the out-of-place noise formula, summed call by call.
Every comparison is bit equality.

The memo tests check the backend side: a measurement also fills its
prediction, so predicting measured instances calls no machine code,
and a matrix call over a partly warm memo equals fresh backends.
"""

import random
import tracemalloc

import numpy as np
import pytest

import repro.machine.machine as machine_module

from repro.backends.simulated import SimulatedBackend
from repro.core.searchspace import paper_box
from repro.expressions.registry import get_expression, known_expressions
from repro.kernels.types import KERNEL_ARITY, KernelCallBatch, KernelName
from repro.machine.machine import MachineModel
from repro.machine.noise import (
    _STREAM_M,
    _STREAM_S,
    _STREAM_U,
    _STREAM_V,
    NoiseModel,
    _unit,
    fold,
    mix64,
)
from repro.machine.presets import (
    no_cache_machine,
    no_variants_machine,
    paper_machine,
)

PRESETS = (paper_machine, no_cache_machine, no_variants_machine)
SEEDS = (0, 1, 7)
REPS = range(1, 7)
#: The preset's own noise, a silent model, and a spike on every rep.
NOISE_KINDS = ("preset", "silent", "always-spike")
FAMILIES = known_expressions()


def reference_factors(noise: NoiseModel, ids, reps: int) -> np.ndarray:
    """The out-of-place noise formula: ``(n, reps)`` factors."""
    ids = np.asarray(ids, dtype=np.uint64).reshape(-1)
    if noise.silent:
        return np.ones((ids.shape[0], reps))
    rep_ids = fold(ids[:, None], np.arange(reps, dtype=np.int64)[None, :])
    u = _unit(mix64(rep_ids ^ _STREAM_U))
    v = _unit(mix64(rep_ids ^ _STREAM_V))
    gauss = np.sqrt(-2.0 * np.log(u)) * np.cos(2.0 * np.pi * v)
    value = np.exp(noise.sigma * gauss)
    if noise.spike_probability > 0.0:
        s = _unit(mix64(rep_ids ^ _STREAM_S))
        m = _unit(mix64(rep_ids ^ _STREAM_M))
        value = np.where(
            s < noise.spike_probability, value * (1.0 + 2.0 * m), value
        )
    return value


def reference_totals(machine: MachineModel, calls, context: str):
    """Separate measured and predicted passes, one median per call."""
    context_base = machine.noise.stream_base(context)
    measured = np.zeros(calls[0].n)
    predicted = np.zeros(calls[0].n)
    previous = None
    for index, call in enumerate(calls):
        base = np.broadcast_to(
            machine.kernel_seconds_batch(call.kernel, call.dims), (call.n,)
        )
        ids = machine._measurement_ids(
            context_base, index, call.kernel, call.dims
        )
        factors = reference_factors(machine.noise, ids, machine.reps)
        predicted = predicted + np.median(base[:, None] * factors, axis=1)
        if previous is not None and call.reads_previous:
            base = base * (
                1.0 + machine.interference_penalty_batch(previous, call)
            )
        measured = measured + np.median(base[:, None] * factors, axis=1)
        previous = call
    return measured, predicted


def _noise(kind: str, preset_noise: NoiseModel, seed: int) -> NoiseModel:
    if kind == "preset":
        return preset_noise
    if kind == "silent":
        return NoiseModel(seed=seed)
    return NoiseModel(
        sigma=preset_noise.sigma, spike_probability=1.0, seed=seed
    )


def _machines(kind: str):
    """Every (preset, seed, reps) machine with the ``kind`` noise."""
    for preset in PRESETS:
        for seed in SEEDS:
            template = preset(seed=seed)
            for reps in REPS:
                yield MachineModel(
                    template.spec,
                    noise=_noise(kind, template.noise, seed),
                    reps=reps,
                    variant_dispatch=template.variant_dispatch,
                    cache_effects=template.cache_effects,
                )


def _instances(n_dims: int, count: int, seed: int) -> np.ndarray:
    rng = random.Random(seed)
    box = paper_box(n_dims)
    rows = [box.sample(rng) for _ in range(count)]
    # Small dims too, where variant dispatch and interference bite.
    rows += [
        tuple(rng.randint(5, 120) for _ in range(n_dims))
        for _ in range(count)
    ]
    return np.asarray(rows, dtype=np.int64)


# ----------------------------------------------------------------------
# Noise kernel
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", NOISE_KINDS)
def test_factors_match_the_out_of_place_formula(kind):
    rng = np.random.default_rng(11)
    template = paper_machine(seed=0).noise
    for seed in SEEDS:
        noise = _noise(kind, template, seed)
        for reps in range(1, 8):
            for n in (0, 1, 9, 4099):
                ids = rng.integers(
                    0, 2**63, size=n, dtype=np.int64
                ).view(np.uint64) * np.uint64(3)
                got = noise.factors_from_ids(ids, reps)
                want = reference_factors(noise, ids, reps)
                assert got.shape == want.shape == (n, reps)
                assert np.array_equal(got, want)
                assert np.array_equal(noise.rep_factors(ids, reps), want.T)


# ----------------------------------------------------------------------
# Machine: one pass, both columns
# ----------------------------------------------------------------------


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("kind", NOISE_KINDS)
def test_shared_pass_matches_separate_median_passes(family, kind):
    expression = get_expression(family)
    arr = _instances(expression.n_dims, 6, seed=len(family))
    plans = [
        (algorithm.name, algorithm.kernel_call_batches(arr))
        for algorithm in expression.algorithms()
    ]
    for machine in _machines(kind):
        for name, calls in plans:
            want_measured, want_predicted = reference_totals(
                machine, calls, name
            )
            predicted = np.empty(arr.shape[0])
            measured = machine.measure_algorithm_batch(
                calls, context=name, predicted=predicted
            )
            assert np.array_equal(measured, want_measured)
            assert np.array_equal(predicted, want_predicted)
            assert np.array_equal(
                machine.measure_algorithm_batch(calls, context=name),
                want_measured,
            )
            assert np.array_equal(
                machine.predict_algorithm_batch(calls, context=name),
                want_predicted,
            )
        _assert_pass_matches_reference(machine, plans)


def _assert_pass_matches_reference(machine, plans):
    """Each row of the multi-plan forms equals that plan's reference."""
    names = [name for name, _ in plans]
    calls = [batches for _, batches in plans]
    want = [reference_totals(machine, batches, name) for name, batches in plans]
    predicted = np.empty((len(plans), calls[0][0].n))
    measured = machine.measure_algorithms_batch(
        calls, names, predicted=predicted
    )
    assert np.array_equal(measured, np.array([m for m, _ in want]))
    assert np.array_equal(predicted, np.array([q for _, q in want]))
    assert np.array_equal(
        machine.predict_algorithms_batch(calls, names),
        np.array([q for _, q in want]),
    )


def _mixed_plans(n: int):
    """Plans of 2, 3, 4 and 14 calls over the same ``n`` rows."""
    plans = []
    for family, take in (("aatb", 2), ("sum8", 2), ("chain4", 2), ("sum3", 2)):
        expression = get_expression(family)
        arr = _instances(expression.n_dims, n, seed=n + len(family))[:n]
        plans += [
            (algorithm.name, algorithm.kernel_call_batches(arr))
            for algorithm in expression.algorithms()[:take]
        ]
    # Interleave long and short plans so every pass pads some of them.
    return plans[::2] + plans[1::2]


def _equal_dims_plans(n: int):
    """Every arity-2 kernel over one dims matrix, in two orders.

    The slots' dims bytes are equal, their kernels (and so their base
    times and interference) are not.
    """
    rng = np.random.default_rng(n)
    dims = rng.integers(5, 1400, size=(n, 2))
    kernels = (KernelName.SYRK, KernelName.SYMM, KernelName.ADD,
               KernelName.TRSM)
    return [
        (
            f"equal-dims-{order}",
            tuple(
                KernelCallBatch(kernel, dims, reads_previous=index > 0)
                for index, kernel in enumerate(kernels[::step])
            ),
        )
        for order, step in (("forward", 1), ("reverse", -1))
    ]


@pytest.mark.parametrize("n", (1, 7))
@pytest.mark.parametrize("kind", NOISE_KINDS)
def test_pass_over_plans_of_unequal_length_matches_reference(n, kind):
    plans = _mixed_plans(n) + _equal_dims_plans(n)
    assert len({len(calls) for _, calls in plans}) == 4
    for machine in _machines(kind):
        _assert_pass_matches_reference(machine, plans)


def _record_passes(monkeypatch):
    """Record the plan count of every machine pass."""
    sizes = []
    original = MachineModel._pass

    def recorded(self, plans, *args):
        sizes.append(len(plans))
        return original(self, plans, *args)

    monkeypatch.setattr(MachineModel, "_pass", recorded)
    return sizes


def test_wide_batch_splits_into_bounded_passes(monkeypatch):
    """sum3's 4 plans x 4 calls over 3,000 rows exceed one pass."""
    expression = get_expression("sum3")
    arr = _instances(expression.n_dims, 1500, seed=2)
    assert arr.shape[0] == 3000
    plans = [
        (algorithm.name, algorithm.kernel_call_batches(arr))
        for algorithm in expression.algorithms()
    ]
    sizes = _record_passes(monkeypatch)
    template = paper_machine(seed=3)
    for reps in (5, 6):
        machine = MachineModel(template.spec, noise=template.noise, reps=reps)
        _assert_pass_matches_reference(machine, plans)
    # 2 plans x 4 slots x 3,000 rows = 24,000 ids fit; 3 plans do not.
    assert sizes == [2, 2] * 4


@pytest.mark.parametrize(
    "bound, want",
    [
        # Widths 2, 14, 3, 4, 2, 14, 3, 4 over n = 5 rows: a pass's
        # ids are its widest plan's calls x its plans x n.
        (14 * 2 * 5, [2, 3, 2, 1]),
        (14 * 2 * 5 - 1, [1, 1, 3, 1, 2]),
        (14 * 3 * 5, [3, 3, 2]),
        (1, [1] * 8),
        (14 * 8 * 5, [8]),
        (14 * 8 * 5 - 1, [7, 1]),
    ],
)
def test_pass_bound_counts_padded_ids(bound, want, monkeypatch):
    plans = _mixed_plans(5)
    assert [len(calls) for _, calls in plans] == [2, 14, 3, 4, 2, 14, 3, 4]
    monkeypatch.setattr(machine_module, "_PASS_IDS", bound)
    sizes = _record_passes(monkeypatch)
    machine = paper_machine(seed=1)
    _assert_pass_matches_reference(machine, plans)
    assert sizes == want * 2  # measure, then predict


def test_pass_memory_is_bounded_by_the_pass_constant():
    """A 5,000-row batch of sum4's 25 plans stays within a few passes.

    Unbounded, one pass would hold 25 x 6 x 5,000 = 750,000 ids and
    its temporaries (~58 MB traced).  Bounded, the peak is the
    ``(P, n)`` outputs plus a working set proportional to
    ``_PASS_IDS``: every per-id array is at most 8 bytes an id, and a
    pass holds fewer than 32 such arrays at once.
    """
    expression = get_expression("sum4")
    rng = np.random.default_rng(5)
    arr = rng.integers(5, 1400, size=(5000, expression.n_dims))
    algorithms = expression.algorithms()
    plans = [a.kernel_call_batches(arr) for a in algorithms]
    names = [a.name for a in algorithms]
    machine = paper_machine(seed=0)
    predicted = np.empty((len(plans), arr.shape[0]))
    machine.measure_algorithms_batch(plans[:1], names[:1])  # warm caches
    tracemalloc.start()
    try:
        machine.measure_algorithms_batch(plans, names, predicted=predicted)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    outputs = predicted.nbytes
    assert peak < outputs + 32 * 8 * machine_module._PASS_IDS


@pytest.mark.parametrize("kind", NOISE_KINDS)
def test_kernel_medians_match_the_median_of_scaled_factors(kind):
    rng = random.Random(3)
    for machine in _machines(kind):
        for kernel in (KernelName.GEMM, KernelName.SYRK):
            dims = np.asarray(
                [
                    [rng.randint(5, 1400) for _ in range(KERNEL_ARITY[kernel])]
                    for _ in range(16)
                ],
                dtype=np.int64,
            )
            base = machine.kernel_seconds_batch(kernel, dims)
            ids = machine._measurement_ids(
                machine.noise.stream_base("kernel-benchmark"),
                None,
                kernel,
                dims,
            )
            factors = reference_factors(machine.noise, ids, machine.reps)
            assert np.array_equal(
                machine.measure_kernel_batch(kernel, dims),
                np.median(base[:, None] * factors, axis=1),
            )


# ----------------------------------------------------------------------
# Backend: one memo row per (algorithm, instance)
# ----------------------------------------------------------------------


MEASURE, PREDICT = "measure_algorithms_batch", "predict_algorithms_batch"


class _Counting:
    """Wrap a machine method, recording the plans and rows of each call."""

    def __init__(self, monkeypatch, machine, name):
        self.rows = []
        self.plans = []
        original = getattr(machine, name)

        def counted(plans, *args, **kwargs):
            self.plans.append(len(plans))
            self.rows.append(plans[0][0].n)
            return original(plans, *args, **kwargs)

        monkeypatch.setattr(machine, name, counted)

    @property
    def calls(self) -> int:
        return len(self.rows)


def _fresh_predictions(algorithms, instances, seed):
    """Per-algorithm predictions, each from a fresh backend."""
    return np.stack(
        [
            SimulatedBackend(paper_machine(seed=seed)).predict_times(
                a, instances
            )
            for a in algorithms
        ],
        axis=1,
    )


def _fresh_measurements(algorithms, instances, seed):
    """Per-algorithm measurements, each from a fresh backend."""
    return np.stack(
        [
            SimulatedBackend(paper_machine(seed=seed)).time_algorithms(
                a, instances
            )
            for a in algorithms
        ],
        axis=1,
    )


@pytest.mark.parametrize("family", ("aatb", "chain4", "sum3"))
def test_time_algorithms_matrix_is_one_machine_call(family, monkeypatch):
    expression = get_expression(family)
    algorithms = expression.algorithms()
    instances = _instances(expression.n_dims, 20, seed=4)
    backend = SimulatedBackend(paper_machine(seed=3))
    measure = _Counting(monkeypatch, backend.machine, MEASURE)
    predict = _Counting(monkeypatch, backend.machine, PREDICT)
    got = backend.time_algorithms_matrix(algorithms, instances)
    assert measure.plans == [len(algorithms)]
    assert measure.rows == [len(instances)]
    assert np.array_equal(got, _fresh_measurements(algorithms, instances, 3))
    # Predicting the measured rows afterwards calls no machine code.
    assert np.array_equal(
        backend.predict_times_matrix(algorithms, instances),
        _fresh_predictions(algorithms, instances, 3),
    )
    assert measure.calls == 1 and predict.calls == 0


@pytest.mark.parametrize("family", ("aatb", "chain4", "sum3"))
def test_matrix_calls_over_a_partly_warm_memo_match_fresh_backends(
    family, monkeypatch
):
    expression = get_expression(family)
    algorithms = expression.algorithms()
    instances = _instances(expression.n_dims, 15, seed=7)
    rows = np.concatenate([instances, instances[:5]])
    backend = SimulatedBackend(paper_machine(seed=5))
    # Algorithm 0 measured on rows 0-9, algorithm 1 predicted only on
    # rows 5-14, the rest cold.
    backend.time_algorithms(algorithms[0], instances[:10])
    backend.predict_times(algorithms[1], instances[5:15])
    measure = _Counting(monkeypatch, backend.machine, MEASURE)
    predict = _Counting(monkeypatch, backend.machine, PREDICT)
    # Rows 0-9: algorithm 0 hits; the others miss some of the 10 rows.
    got = backend.predict_times_matrix(algorithms, instances[:10])
    assert predict.plans == [len(algorithms) - 1]
    assert predict.rows == [10]
    assert measure.calls == 0
    assert np.array_equal(
        got, _fresh_predictions(algorithms, instances[:10], 5)
    )
    # No algorithm has a measurement at every row: one call over all
    # 30 distinct rows, the 5 repeated rows computed once.
    got = backend.time_algorithms_matrix(algorithms, rows)
    assert measure.plans == [len(algorithms)]
    assert measure.rows == [30]
    assert np.array_equal(got, _fresh_measurements(algorithms, rows, 5))
    assert np.array_equal(
        backend.predict_times_matrix(algorithms, rows),
        _fresh_predictions(algorithms, rows, 5),
    )
    assert measure.calls == 1 and predict.calls == 1


@pytest.mark.parametrize("family", ("aatb", "chain4", "sum3"))
def test_predicting_measured_instances_calls_no_machine_code(
    family, monkeypatch
):
    expression = get_expression(family)
    algorithms = expression.algorithms()
    instances = _instances(expression.n_dims, 20, seed=5)
    backend = SimulatedBackend(paper_machine(seed=2))
    for algorithm in algorithms:
        backend.time_algorithms(algorithm, instances)
    predict = _Counting(monkeypatch, backend.machine, PREDICT)
    measure = _Counting(monkeypatch, backend.machine, MEASURE)
    got = backend.predict_times_matrix(algorithms, instances)
    assert predict.calls == 0 and measure.calls == 0
    assert np.array_equal(got, _fresh_predictions(algorithms, instances, 2))


@pytest.mark.parametrize("family", ("aatb", "chain4", "sum3"))
def test_predict_first_then_measure_matches_fresh_backends(
    family, monkeypatch
):
    expression = get_expression(family)
    algorithms = expression.algorithms()
    instances = _instances(expression.n_dims, 20, seed=6)
    backend = SimulatedBackend(paper_machine(seed=1))
    measure = _Counting(monkeypatch, backend.machine, MEASURE)
    # A prediction-only miss computes the prediction alone.
    predicted = backend.predict_times_matrix(algorithms, instances[:25])
    assert measure.calls == 0
    measured = np.stack(
        [backend.time_algorithms(a, instances) for a in algorithms], axis=1
    )
    assert measure.calls == len(algorithms)
    assert np.array_equal(
        predicted, _fresh_predictions(algorithms, instances[:25], 1)
    )
    assert np.array_equal(
        measured, _fresh_measurements(algorithms, instances, 1)
    )
    # The measured rows now serve the rest of the predictions.
    predict = _Counting(monkeypatch, backend.machine, PREDICT)
    assert np.array_equal(
        backend.predict_times_matrix(algorithms, instances),
        _fresh_predictions(algorithms, instances, 1),
    )
    assert predict.calls == 0


def test_scalar_calls_interleaved_with_batches_match_fresh_backends():
    expression = get_expression("aatb")
    algorithms = expression.algorithms()
    pool = [tuple(int(d) for d in row) for row in _instances(3, 12, seed=8)]
    want_measured = _fresh_measurements(algorithms, pool, 4)
    want_predicted = _fresh_predictions(algorithms, pool, 4)
    backend = SimulatedBackend(paper_machine(seed=4))
    rng = random.Random(9)
    for _ in range(300):
        op = rng.randrange(5)
        j = rng.randrange(len(algorithms))
        rows = sorted(rng.sample(range(len(pool)), rng.randint(1, 6)))
        chosen = [pool[i] for i in rows]
        if op == 0:
            got = backend.time_algorithm(algorithms[j], chosen[0])
            assert got == want_measured[rows[0], j]
        elif op == 1:
            got = backend.predict_time(algorithms[j], chosen[0])
            assert got == want_predicted[rows[0], j]
        elif op == 2:
            got = backend.time_algorithms(algorithms[j], chosen)
            assert np.array_equal(got, want_measured[rows, j])
        elif op == 3:
            got = backend.predict_times(algorithms[j], chosen)
            assert np.array_equal(got, want_predicted[rows, j])
        else:
            got = backend.predict_times_matrix(algorithms, chosen)
            assert np.array_equal(got, want_predicted[rows])


def test_duplicate_instances_are_computed_once(monkeypatch):
    expression = get_expression("chain4")
    algorithm = expression.algorithms()[0]
    instances = _instances(expression.n_dims, 4, seed=3)
    doubled = np.concatenate([instances, instances[::-1]])
    backend = SimulatedBackend(paper_machine(seed=0))
    measure = _Counting(monkeypatch, backend.machine, MEASURE)
    got = backend.time_algorithms(algorithm, doubled)
    assert measure.rows == [len(instances)]
    assert np.array_equal(got[: len(instances)], got[len(instances):][::-1])
    assert np.array_equal(backend.time_algorithms(algorithm, doubled), got)
    assert measure.rows == [len(instances)]


def test_memo_tables_grow_past_their_first_capacity():
    """Batches wider than a table's first capacity land in grown tables."""
    rng = np.random.default_rng(4)
    dims = rng.integers(5, 1400, size=(3000, 2), dtype=np.int64)
    instances = rng.integers(5, 1400, size=(2500, 3), dtype=np.int64)
    algorithm = get_expression("aatb").algorithms()[0]
    wide = SimulatedBackend(paper_machine(seed=0))
    narrow = SimulatedBackend(paper_machine(seed=0))
    chunks = range(0, 3000, 500)
    assert np.array_equal(
        wide.time_kernels(KernelName.SYRK, dims),
        np.concatenate([
            narrow.time_kernels(KernelName.SYRK, dims[i:i + 500])
            for i in chunks
        ]),
    )
    assert np.array_equal(
        wide.time_algorithms(algorithm, instances),
        np.concatenate([
            narrow.time_algorithms(algorithm, instances[i:i + 500])
            for i in chunks
        ]),
    )
