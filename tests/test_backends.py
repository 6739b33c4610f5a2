"""Backends: simulated determinism and real-BLAS correctness."""

import numpy as np
import pytest

from repro.backends.real import RealBlasBackend
from repro.backends.simulated import SimulatedBackend
from repro.core.classify import classify, evaluate_instance
from repro.expressions.registry import get_expression
from repro.machine.presets import paper_machine


def test_simulated_backend_is_deterministic_across_instances():
    aatb = get_expression("aatb")
    algorithms = aatb.algorithms()
    instance = (92, 1095, 323)
    a = evaluate_instance(
        SimulatedBackend(paper_machine(seed=0)), algorithms, instance
    )
    b = evaluate_instance(
        SimulatedBackend(paper_machine(seed=0)), algorithms, instance
    )
    assert a == b
    c = evaluate_instance(
        SimulatedBackend(paper_machine(seed=1)), algorithms, instance
    )
    assert a.seconds != c.seconds  # different noise stream
    assert a.flops == c.flops  # FLOPs are noise-free


def test_quickstart_instance_is_anomalous():
    # The instance examples/quickstart.py calls "deep in an anomalous
    # region" must classify as an anomaly at the paper threshold.
    backend = SimulatedBackend()
    aatb = get_expression("aatb")
    verdict = classify(
        evaluate_instance(backend, aatb.algorithms(), (92, 1095, 323)),
        threshold=0.10,
    )
    assert verdict.is_anomaly
    assert set(verdict.cheapest) == {
        "aatb-1:syrk+symm",
        "aatb-2:syrk+copy+gemm",
    }
    assert all("gemm" in name for name in verdict.fastest)


@pytest.mark.parametrize(
    "method",
    (
        "time_algorithm",
        "time_algorithms",
        "time_algorithms_matrix",
        "predict_time",
        "predict_times",
        "predict_times_matrix",
    ),
)
@pytest.mark.parametrize(
    "instance", [(100, 200, 300, 400), (100, 200)], ids=("wide", "narrow")
)
def test_simulated_backend_refuses_instances_of_the_wrong_width(
    method, instance
):
    """A plan's steps read instance columns by index, so a 4-dim aatb
    row would be timed as its first three dims; both widths are refused."""
    algorithm = get_expression("aatb").algorithms()[0]
    backend = SimulatedBackend(paper_machine(seed=0))
    call = getattr(backend, method)

    def arguments(row):
        if method.endswith("_matrix"):
            return [algorithm], [row]
        if method in ("time_algorithm", "predict_time"):
            return algorithm, row
        return algorithm, [row]

    with pytest.raises(ValueError, match="aatb takes 3 dims"):
        call(*arguments(instance))
    assert np.all(call(*arguments((100, 200, 300))) > 0)


def test_scalar_and_batch_paths_agree_on_sum3():
    backend = SimulatedBackend(paper_machine(seed=1))
    expression = get_expression("sum3")
    instance = tuple(30 + 11 * i for i in range(expression.n_dims))
    for algorithm in expression.algorithms():
        scalar = backend.time_algorithm(algorithm, instance)
        batch = backend.time_algorithms(algorithm, [instance])
        assert scalar == batch[0]
        assert backend.predict_time(algorithm, instance) == (
            backend.predict_times(algorithm, [instance])[0]
        )


def test_total_efficiency_bounded_by_one():
    backend = SimulatedBackend(paper_machine(seed=0))
    chain = get_expression("chain4")
    evaluation = evaluate_instance(
        backend, chain.algorithms(), (600, 400, 500, 450, 550)
    )
    for flops, seconds in zip(evaluation.flops, evaluation.seconds):
        assert 0.0 < flops / (seconds * backend.peak_flops) < 1.0


def test_real_backend_verifies_all_aatb_algorithms():
    backend = RealBlasBackend(reps=1)
    aatb = get_expression("aatb")
    for algorithm in aatb.algorithms():
        assert backend.verify_algorithm(algorithm, (24, 17, 9)) < 1e-10


def test_real_backend_verifies_all_chain_plans():
    backend = RealBlasBackend(reps=1)
    chain = get_expression("chain4")
    for algorithm in chain.algorithms():
        assert backend.verify_algorithm(algorithm, (8, 13, 5, 9, 11)) < 1e-10


def test_real_backend_times_are_positive():
    backend = RealBlasBackend(reps=1)
    aatb = get_expression("aatb")
    algorithm = aatb.algorithms()[0]
    assert backend.time_algorithm(algorithm, (32, 32, 32)) > 0
    from repro.kernels.types import KernelName

    assert backend.time_kernel(KernelName.GEMM, (32, 32, 32)) > 0


def test_real_backend_batch_timing_runs_the_plan(monkeypatch):
    # time_algorithms times Plan.execute once per rep on each
    # instance's own operands.
    from repro.expressions.compiler import Plan

    shapes = []
    execute = Plan.execute

    def spy(plan, operands):
        result = execute(plan, operands)
        shapes.append(result.shape)
        return result

    monkeypatch.setattr(Plan, "execute", spy)
    backend = RealBlasBackend(reps=2)
    algorithm = get_expression("aatb").algorithms()[1]
    times = backend.time_algorithms(algorithm, [(6, 9, 4), (5, 3, 8)])
    assert times.shape == (2,)
    assert np.all(times > 0)
    assert shapes == [(6, 4)] * 2 + [(5, 8)] * 2


def test_backends_reject_bad_reps():
    with pytest.raises(ValueError):
        RealBlasBackend(reps=0)
