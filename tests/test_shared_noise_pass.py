"""One noise pass per algorithm measurement, one memo row per instance.

The machine draws an algorithm's noise factors once and returns both
the measured column (with inter-kernel interference) and the benchmark
prediction (without) from that one draw.  It is exact because the two
columns use the same measurement ids by design and rounding is
monotone: for a base time ``c > 0`` the median of ``c * f`` is the
scaled median factor.  The differential tests below hold it to the
previous formulation, kept here as the reference: separate
``np.median(base[:, None] * factors, axis=1)`` passes per column over
the out-of-place noise formula.  Every comparison is bit equality.

The memo tests check the backend side: a measurement also fills its
prediction, so predicting measured instances calls no machine code.
"""

import random

import numpy as np
import pytest

from repro.backends.simulated import SimulatedBackend
from repro.core.searchspace import paper_box
from repro.expressions.registry import get_expression, known_expressions
from repro.kernels.types import KERNEL_ARITY, KernelName
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


MEASURE, PREDICT = "measure_algorithm_batch", "predict_algorithm_batch"


class _Counting:
    """Wrap a machine method, recording the rows of each call."""

    def __init__(self, monkeypatch, machine, name):
        self.rows = []
        original = getattr(machine, name)

        def counted(calls, *args, **kwargs):
            self.rows.append(calls[0].n)
            return original(calls, *args, **kwargs)

        monkeypatch.setattr(machine, name, counted)

    @property
    def calls(self) -> int:
        return len(self.rows)


def _fresh_predictions(algorithms, instances, seed):
    fresh = SimulatedBackend(paper_machine(seed=seed))
    return fresh.predict_times_matrix(algorithms, instances)


def _fresh_measurements(algorithms, instances, seed):
    fresh = SimulatedBackend(paper_machine(seed=seed))
    return np.stack(
        [fresh.time_algorithms(a, instances) for a in algorithms], axis=1
    )


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
