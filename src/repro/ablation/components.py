"""The registry of ablatable components and their study variants.

Every load-bearing mechanism of the stack is registered here as a
:class:`Component` — one switch the ablation harness can flip while
holding everything else at the baseline.  A component describes two
things:

* **How the study changes.**  Machine and pruning components map to
  a :class:`StudyVariant` — a named, deterministic modification of the
  study pipeline (a different machine construction or a recompilation
  under a tighter pruning budget).  Variants participate in the
  :class:`~repro.figures.cache.StudyKey`, so variant studies ride the
  same parallel runner and :class:`~repro.figures.cache.StudyStore`
  cache as baseline ones and never collide with them.
* **How anomaly *detection* changes.**  The ``drop-detector-*``
  components leave the study untouched and instead remove one member
  from the harness's detector ensemble (the paper's §5 discriminants
  voting "this instance is anomalous"); see
  :mod:`repro.ablation.harness`.

This module sits low on purpose: it imports machine presets,
expression construction and the compiler's :class:`PruneConfig`, but
never the figures/runner layers — so :mod:`repro.figures.common`
can validate a config's ``variant`` against :data:`STUDY_VARIANTS`
without an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.expressions.compiler import CompiledExpression, PruneConfig
from repro.expressions.registry import get_expression
from repro.expressions.base import Expression
from repro.machine.machine import MachineModel
from repro.machine.noise import NoiseModel
from repro.machine.presets import (
    no_cache_machine,
    no_variants_machine,
    paper_machine,
)
from repro.machine.spec import xeon_silver_4210_like

#: The default variant every pre-existing study key carries.
DEFAULT_VARIANT = "default"

#: Detector-ensemble member names (see :mod:`repro.ablation.harness`).
DETECTORS = ("benchmark-sum", "profiled-time", "flops-profile-hybrid")


def _silent_noise_machine(seed: int) -> MachineModel:
    """The paper machine with measurement noise forced silent."""
    return MachineModel(
        xeon_silver_4210_like(),
        noise=NoiseModel(sigma=0.0, spike_probability=0.0, seed=seed),
        reps=1,
    )


#: machine-construction key → factory(seed).
_MACHINES = {
    "paper": paper_machine,
    "no-noise": _silent_noise_machine,
    "no-cache": no_cache_machine,
    "no-variants": no_variants_machine,
}


@dataclass(frozen=True)
class StudyVariant:
    """One named, deterministic modification of the study pipeline.

    ``machine``       which preset builds the study machine.
    ``prune_budget``  when set, every expression is recompiled under
                      ``PruneConfig(budget=...)`` — the compiler keeps
                      only the cost-ranked cheapest parenthesisation
                      trees, so the algorithm set itself shrinks.
    """

    name: str
    description: str
    machine: str = "paper"
    prune_budget: Optional[int] = None

    def __post_init__(self) -> None:
        if self.machine not in _MACHINES:
            raise ValueError(
                f"unknown machine preset {self.machine!r}; "
                f"known: {'/'.join(sorted(_MACHINES))}"
            )
        if self.prune_budget is not None and self.prune_budget < 1:
            raise ValueError("prune_budget must be >= 1")

    def build_machine(self, seed: int) -> MachineModel:
        return _MACHINES[self.machine](seed)

    def expression_for(self, name: str) -> Expression:
        """The expression this variant studies.

        With a pruning-budget override the registered expression is
        recompiled (never re-registered) under the tighter budget;
        otherwise it is exactly the registry's instance.
        """
        expression = get_expression(name)
        if self.prune_budget is None:
            return expression
        if not isinstance(expression, CompiledExpression):
            raise ValueError(
                f"expression {name!r} is not compiler-generated; "
                "it cannot be recompiled under a pruning budget"
            )
        return expression.with_prune(PruneConfig(budget=self.prune_budget))


#: name → StudyVariant; ``default`` is the identity.
STUDY_VARIANTS: Dict[str, StudyVariant] = {
    variant.name: variant
    for variant in (
        StudyVariant(
            name=DEFAULT_VARIANT,
            description="the baseline pipeline, untouched",
        ),
        StudyVariant(
            name="no-noise",
            description="measurement noise silent (sigma=0, no spikes, "
            "single repetition)",
            machine="no-noise",
        ),
        StudyVariant(
            name="no-interference",
            description="inter-kernel cache interference off "
            "(isolated benchmarks become exact predictors)",
            machine="no-cache",
        ),
        StudyVariant(
            name="no-variant-dispatch",
            description="internal kernel-variant dispatch off "
            "(no abrupt efficiency jumps)",
            machine="no-variants",
        ),
        StudyVariant(
            name="prune-budget-1",
            description="parenthesisation pruning budget forced to 1 "
            "tree (only the centroid-cheapest association survives)",
            prune_budget=1,
        ),
        StudyVariant(
            name="prune-budget-2",
            description="parenthesisation pruning budget forced to 2 "
            "trees",
            prune_budget=2,
        ),
    )
}


def get_variant(name: str) -> StudyVariant:
    variant = STUDY_VARIANTS.get(name)
    if variant is None:
        raise ValueError(
            f"unknown study variant {name!r}; "
            f"known: {'/'.join(sorted(STUDY_VARIANTS))}"
        )
    return variant


def is_known_variant(name: str) -> bool:
    return name in STUDY_VARIANTS


@dataclass(frozen=True)
class Component:
    """One ablatable component: baseline plus exactly this one change."""

    name: str
    description: str
    #: "machine" | "pruning" | "detector"
    kind: str
    #: Study variant the component maps to (``default`` when the
    #: component changes the detector ensemble).
    variant: str = DEFAULT_VARIANT
    #: Detector dropped from the ensemble (detector components only).
    dropped_detector: Optional[str] = None

    def __post_init__(self) -> None:
        if self.variant not in STUDY_VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if (
            self.dropped_detector is not None
            and self.dropped_detector not in DETECTORS
        ):
            raise ValueError(
                f"unknown detector {self.dropped_detector!r}; "
                f"known: {'/'.join(DETECTORS)}"
            )


#: Every ablatable component, in registry (presentation) order.
COMPONENTS: Dict[str, Component] = {
    component.name: component
    for component in (
        Component(
            name="no-noise",
            kind="machine",
            variant="no-noise",
            description="measurement-noise model (log-normal jitter + "
            "spikes, median-of-reps)",
        ),
        Component(
            name="no-interference",
            kind="machine",
            variant="no-interference",
            description="producer-keyed inter-kernel cache "
            "interference term",
        ),
        Component(
            name="no-variant-dispatch",
            kind="machine",
            variant="no-variant-dispatch",
            description="internal kernel-variant dispatch (abrupt "
            "efficiency jumps)",
        ),
        Component(
            name="prune-budget-1",
            kind="pruning",
            variant="prune-budget-1",
            description="cost-guided tree pruning swept to budget 1",
        ),
        Component(
            name="prune-budget-2",
            kind="pruning",
            variant="prune-budget-2",
            description="cost-guided tree pruning swept to budget 2",
        ),
        Component(
            name="drop-detector-benchmark-sum",
            kind="detector",
            dropped_detector="benchmark-sum",
            description="benchmark-sum discriminant removed from the "
            "anomaly-detection ensemble",
        ),
        Component(
            name="drop-detector-profiled-time",
            kind="detector",
            dropped_detector="profiled-time",
            description="profiled-time discriminant removed from the "
            "anomaly-detection ensemble",
        ),
        Component(
            name="drop-detector-flops-profile-hybrid",
            kind="detector",
            dropped_detector="flops-profile-hybrid",
            description="FLOPs+profile hybrid discriminant removed "
            "from the anomaly-detection ensemble",
        ),
    )
}


def component_names() -> Tuple[str, ...]:
    """All component names, registry order (the report's tie-break)."""
    return tuple(COMPONENTS)


def get_component(name: str) -> Component:
    component = COMPONENTS.get(name)
    if component is None:
        raise KeyError(
            f"unknown component {name!r}; known: "
            f"{', '.join(component_names())}"
        )
    return component

