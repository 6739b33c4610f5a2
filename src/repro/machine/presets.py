"""Canonical machine configurations used across the repository.

``paper_machine``        the default: every mechanism enabled, noise
                         levels matching a pinned-but-real host.
``no_cache_machine``     ablation: inter-kernel cache effects off —
                         isolated kernel benchmarks become exact
                         predictors (Experiment 3's counterfactual).
``no_variants_machine``  ablation: internal variant dispatch off —
                         kernel efficiency scans lose their abrupt
                         jumps and keep only the gradual ramps.

Every preset takes only a noise ``seed``, so the presets are the
machine factories of the ablation variants
(:mod:`repro.ablation.components`).
"""

from __future__ import annotations

from repro.machine.machine import MachineModel
from repro.machine.noise import NoiseModel
from repro.machine.spec import xeon_silver_4210_like

#: Calibrated default noise: ~1% log-normal jitter and a 2% chance of
#: an external-event spike per repetition; median-of-5 suppresses both.
_SIGMA = 0.012
_SPIKE = 0.02
_REPS = 5


def paper_machine(seed: int = 0) -> MachineModel:
    """The machine every figure and table is regenerated on."""
    return MachineModel(
        xeon_silver_4210_like(),
        noise=NoiseModel(sigma=_SIGMA, spike_probability=_SPIKE, seed=seed),
        reps=_REPS,
    )


def no_cache_machine(seed: int = 0) -> MachineModel:
    """Paper machine with inter-kernel cache effects disabled."""
    return MachineModel(
        xeon_silver_4210_like(),
        noise=NoiseModel(sigma=_SIGMA, spike_probability=_SPIKE, seed=seed),
        reps=_REPS,
        cache_effects=False,
    )


def no_variants_machine(seed: int = 0) -> MachineModel:
    """Paper machine with internal kernel-variant dispatch disabled."""
    return MachineModel(
        xeon_silver_4210_like(),
        noise=NoiseModel(sigma=_SIGMA, spike_probability=_SPIKE, seed=seed),
        reps=_REPS,
        variant_dispatch=False,
    )
