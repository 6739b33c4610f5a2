"""Ablation: time-score threshold sweep.

The paper classifies anomalies above a threshold (10% in Experiment 1,
5% in Experiments 2–3) to exclude insignificant distinctions.  This
bench sweeps the threshold and reports the measured abundance curve —
abundance must be monotonically non-increasing in the threshold.
"""

import random

from repro.backends.simulated import SimulatedBackend
from repro.core.classify import classify_batch, evaluate_instances
from repro.core.searchspace import paper_box
from repro.expressions.registry import get_expression
from repro.machine.presets import paper_machine

THRESHOLDS = (0.0, 0.02, 0.05, 0.10, 0.20, 0.30)


def test_abundance_vs_threshold(run_once, fig_config):
    expression = get_expression("aatb")
    backend = SimulatedBackend(paper_machine(seed=fig_config.seed))
    box = paper_box(3)
    n = 300 if fig_config.scale == "quick" else 3000

    def run():
        rng = random.Random(fig_config.seed)
        algorithms = expression.algorithms()
        instances = box.sample_many(rng, n)
        scores = classify_batch(
            evaluate_instances(backend, algorithms, instances),
            threshold=0.0,
        ).time_scores.tolist()
        return {
            thr: sum(1 for s in scores if s > thr) / len(scores)
            for thr in THRESHOLDS
        }

    curve = run_once(run)
    print()
    print("threshold  abundance")
    for thr, abundance in curve.items():
        print(f"{thr:>9.2f}  {abundance:.3%}")

    values = [curve[t] for t in THRESHOLDS]
    assert values == sorted(values, reverse=True), "must be non-increasing"
    # At the paper's Experiment-1 threshold the abundance is in the
    # calibrated band (~10%).
    assert 0.03 < curve[0.10] < 0.20
    # A 0% threshold counts every strict disjointness, which is common.
    assert curve[0.0] > curve[0.10]
