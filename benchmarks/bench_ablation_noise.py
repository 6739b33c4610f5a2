"""Ablation: measurement-noise level vs false anomaly rate.

The paper's hole-tolerance rule (§3.4.2) exists because noise can flip
borderline classifications.  This bench quantifies that: on a
noise-free machine the anomaly set at a given threshold is exact;
increasing the noise level perturbs classifications near the
threshold, measured as the symmetric difference against ground truth.
"""

import random

from repro.backends.simulated import SimulatedBackend
from repro.core.classify import classify_batch, evaluate_instances
from repro.core.searchspace import paper_box
from repro.expressions.registry import get_expression
from repro.machine.machine import MachineModel
from repro.machine.noise import NoiseModel
from repro.machine.spec import xeon_silver_4210_like

SIGMAS = (0.0, 0.01, 0.03, 0.08)


def _backend(sigma, seed):
    return SimulatedBackend(
        MachineModel(
            xeon_silver_4210_like(),
            noise=NoiseModel(sigma=sigma, spike_probability=0.0, seed=seed),
            reps=5,
        )
    )


def test_noise_flips_borderline_classifications(run_once, fig_config):
    expression = get_expression("aatb")
    box = paper_box(3)
    n = 200 if fig_config.scale == "quick" else 2000
    algorithms = expression.algorithms()

    def classify_all(backend, instances):
        return classify_batch(
            evaluate_instances(backend, algorithms, instances),
            threshold=0.10,
        ).is_anomaly.tolist()

    def run():
        rng = random.Random(fig_config.seed)
        instances = box.sample_many(rng, n)
        truth = classify_all(_backend(0.0, fig_config.seed), instances)
        flips = {}
        for sigma in SIGMAS:
            noisy = classify_all(_backend(sigma, fig_config.seed + 1), instances)
            flips[sigma] = sum(1 for a, b in zip(truth, noisy) if a != b) / n
        return flips

    flips = run_once(run)
    print()
    print("sigma  flip rate vs noise-free ground truth")
    for sigma, rate in flips.items():
        print(f"{sigma:>5.2f}  {rate:.2%}")

    assert flips[0.0] == 0.0, "noise-free must reproduce ground truth"
    # More noise cannot give fewer flips by an order of magnitude; the
    # largest sigma must flip the most (allowing small-sample jitter).
    assert flips[0.08] >= flips[0.01]
    assert flips[0.08] > 0.0
