"""Machine model: determinism, noise statelessness, ablation flags."""

from collections import namedtuple

import pytest

from repro.kernels.types import KernelName
from repro.machine.machine import MachineModel
from repro.machine.noise import NoiseModel
from repro.machine.presets import (
    no_cache_machine,
    no_variants_machine,
    paper_machine,
)
from repro.machine.spec import xeon_silver_4210_like

#: A hand-built plan step, read by the machine as ``Plan.steps`` are.
Step = namedtuple("Step", "kernel dims reads_previous")


def test_peak_flops():
    spec = xeon_silver_4210_like()
    assert spec.peak_flops == 10 * 2.2e9 * 16


def test_noise_is_stateless_and_seed_dependent():
    noise = NoiseModel(sigma=0.05, spike_probability=0.1, seed=3)
    assert noise.factor("k", 0) == noise.factor("k", 0)
    assert noise.factor("k", 0) != noise.factor("k", 1)
    other_seed = NoiseModel(sigma=0.05, spike_probability=0.1, seed=4)
    assert noise.factor("k", 0) != other_seed.factor("k", 0)
    silent = NoiseModel(sigma=0.0, spike_probability=0.0, seed=3)
    assert silent.factor("anything", 0) == 1.0


def test_measurements_are_reproducible_and_order_independent():
    machine = paper_machine(seed=0)
    a = machine.measure_kernel(KernelName.GEMM, (300, 300, 300))
    machine.measure_kernel(KernelName.SYRK, (100, 700))
    b = machine.measure_kernel(KernelName.GEMM, (300, 300, 300))
    assert a == b


def test_efficiency_is_within_unit_interval():
    machine = paper_machine(seed=0)
    for kernel, dims in (
        (KernelName.GEMM, (20, 20, 20)),
        (KernelName.GEMM, (1200, 1200, 1200)),
        (KernelName.SYRK, (640, 1024)),
        (KernelName.SYMM, (333, 77)),
        (KernelName.ADD, (333, 77)),
        (KernelName.TRSM, (640, 1024)),
    ):
        assert 0.0 < machine.efficiency(kernel, dims) < 1.0


def test_add_is_memory_bound_and_trsm_collapses_at_few_rhs():
    machine = paper_machine(seed=0)
    # ADD plateaus at a few percent of peak: memory-bound.
    assert machine.efficiency(KernelName.ADD, (1200, 1200)) < 0.05
    # TRSM with few right-hand sides is *slower in absolute time*
    # than with moderately many — the superlinear small-n collapse
    # that makes solve<k>'s FLOP-cheapest plans anomaly-prone.
    few = machine.kernel_seconds(KernelName.TRSM, (800, 25))
    more = machine.kernel_seconds(KernelName.TRSM, (800, 100))
    assert few > more
    # At large n the collapse is over and time grows with work again.
    assert machine.kernel_seconds(KernelName.TRSM, (800, 900)) > few


def test_variant_dispatch_flag_removes_the_cliff():
    with_variants = paper_machine(seed=0)
    without = no_variants_machine(seed=0)
    below = (440, 500)  # just below the SYRK boundary at 448
    assert without.efficiency(KernelName.SYRK, below) > with_variants.efficiency(
        KernelName.SYRK, below
    )
    above = (456, 500)
    assert without.efficiency(
        KernelName.SYRK, above
    ) == pytest.approx(with_variants.efficiency(KernelName.SYRK, above))


def test_cache_effects_flag_gates_interference():
    producer = (KernelName.SYRK, [(400, 400)])
    consumer = (KernelName.SYMM, [(400, 400)])
    penalty = paper_machine(seed=0).interference_penalty_batch
    assert penalty(*producer, *consumer)[0] > 0
    off = no_cache_machine(seed=0).interference_penalty_batch
    assert off(*producer, *consumer)[0] == 0.0


def test_measured_algorithm_slower_than_prediction_with_cache_effects():
    machine = MachineModel(xeon_silver_4210_like(), reps=1)  # no noise
    # SYRK(300, 900), then SYMM(300, 500) reading its output.
    plan = (
        Step(KernelName.SYRK, (0, 1), False),
        Step(KernelName.SYMM, (0, 2), True),
    )
    instance = [(300, 900, 500)]

    def times(machine):
        measured = machine.measure_plans_batch(instance, [plan], ["x"])
        predicted = machine.predict_plans_batch(instance, [plan], ["x"])
        return measured[0, 0], predicted[0, 0]

    measured, predicted = times(machine)
    assert measured > predicted  # the inter-kernel penalty
    no_cache = MachineModel(
        xeon_silver_4210_like(), reps=1, cache_effects=False
    )
    measured, predicted = times(no_cache)
    assert measured == pytest.approx(predicted)


def test_interference_scales_with_producer_residue():
    penalty = paper_machine(seed=0).interference_penalty_batch
    small_producer = (KernelName.GEMM, [(40, 40, 300)])
    big_producer = (KernelName.GEMM, [(300, 300, 40)])
    consumer = (KernelName.GEMM, [(40, 120, 40)])
    assert penalty(*big_producer, *consumer)[0] > penalty(
        *small_producer, *consumer
    )[0]


def test_machine_validates_input():
    with pytest.raises(ValueError):
        MachineModel(xeon_silver_4210_like(), reps=0)
    machine = paper_machine(seed=0)
    with pytest.raises(ValueError):
        machine.efficiency(KernelName.GEMM, (10, 10))
    with pytest.raises(ValueError):
        machine.efficiency(KernelName.SYRK, (0, 10))
