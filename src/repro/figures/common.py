"""Shared figure infrastructure: scale config and the cached study.

A *study* is the full experiment pipeline for one expression —
Experiment 1 (random search), Experiment 2 (region traversal) and
Experiment 3 (benchmark prediction + confusion) — on the paper
machine.  Figures 6-11 and both tables are different views of the
same study, so :func:`study_for` memoises one study per
``(scale, seed, expression, box)`` for the whole process: the
benchmark suite runs each pipeline once however many artefacts it
regenerates.

Setting ``REPRO_CACHE_DIR`` adds an on-disk layer underneath the
process cache (see :mod:`repro.figures.cache`): studies computed by
*any* process land in the configured :class:`~repro.figures.cache.StudyStore`
(versioned-JSON directory by default, SQLite with
``REPRO_CACHE_STORE=sqlite``), and later processes load them instead
of recomputing — repeated artefact regeneration across benchmark runs
becomes near-free, and :class:`repro.runner.StudyRunner` workers use
the same store as their shared result channel.

The exploration volume is a named box (``FigureConfig.box``,
default ``paper_box`` = the paper's [20, 1200] per dim; see
:data:`repro.core.searchspace.NAMED_BOXES`), and participates in the
study key: larger-than-paper boxes are one flag away and never collide
with paper-box cache entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.ablation.components import get_variant, is_known_variant
from repro.analysis.confusion import ConfusionMatrix, confusion_from_prediction
from repro.figures.cache import StudyKey, store_from_env
from repro.backends.simulated import SimulatedBackend
from repro.core.searchspace import NAMED_BOXES, named_box
from repro.experiments.prediction import Prediction, predict_from_benchmarks
from repro.experiments.random_search import SearchResult, random_search
from repro.experiments.regions import Regions, explore_regions
from repro.expressions.base import Expression
from repro.machine.machine import SCHEDULES

#: Experiment-1 classification threshold (paper §4.1).
SEARCH_THRESHOLD = 0.10
#: Experiment-2/3 threshold (paper §4.2-4.3).
REGION_THRESHOLD = 0.05

_SCALES = ("quick", "full")


@dataclass(frozen=True)
class FigureConfig:
    """Artefact-regeneration scale knobs (see benchmarks/conftest.py)."""

    scale: str = "quick"
    seed: int = 0
    box: str = "paper_box"
    #: Step-schedule policy of the study's machine (see
    #: :data:`repro.machine.machine.SCHEDULES`).  Non-default schedules
    #: reorder plan steps by the interference term — a separate study
    #: scenario with its own cache entries.
    schedule: str = "default"
    #: Named ablation variant of the pipeline (see
    #: :data:`repro.ablation.components.STUDY_VARIANTS`): a different
    #: machine construction or recompilation under a tighter pruning
    #: budget.  Non-default
    #: variants are separate study scenarios with their own cache
    #: entries; the default is byte-identical to the pre-ablation
    #: pipeline.
    variant: str = "default"

    def __post_init__(self) -> None:
        if self.scale not in _SCALES:
            raise ValueError(
                f"scale must be one of {_SCALES}, got {self.scale!r}"
            )
        if self.box not in NAMED_BOXES:
            raise ValueError(
                f"box must be one of {tuple(sorted(NAMED_BOXES))}, "
                f"got {self.box!r}"
            )
        if self.schedule not in SCHEDULES:
            raise ValueError(
                f"schedule must be one of {SCHEDULES}, "
                f"got {self.schedule!r}"
            )
        if not is_known_variant(self.variant):
            # get_variant's error text lists the known names.
            get_variant(self.variant)

    @property
    def is_full(self) -> bool:
        return self.scale == "full"

    def study_key(self, expression_name: str) -> StudyKey:
        return StudyKey(
            scale=self.scale,
            seed=self.seed,
            expression=expression_name,
            box=self.box,
            schedule=self.schedule,
            variant=self.variant,
        )

    def build_backend(self) -> SimulatedBackend:
        """The study's backend: the variant's machine at this config."""
        variant = get_variant(self.variant)
        return SimulatedBackend(
            variant.build_machine(self.seed, self.schedule)
        )

    def search_params(self, expression_name: str) -> Dict[str, int]:
        # Chain-shaped families (chains, transposed chains, chain
        # sums, add-chains) have sparse anomalies (<1%), so they get a
        # bigger sample budget and a smaller target than the abundant
        # asymmetric-kernel families (aatb, gram<k>, solve<k>).
        if expression_name.startswith(("chain", "tri", "sum", "addchain")):
            if self.is_full:
                return {"target_anomalies": 25, "max_samples": 60_000}
            return {"target_anomalies": 6, "max_samples": 6_000}
        if self.is_full:
            return {"target_anomalies": 150, "max_samples": 20_000}
        return {"target_anomalies": 25, "max_samples": 2_500}

    def region_params(self, expression_name: str) -> Dict[str, int]:
        if self.is_full:
            return {"step": 8, "max_origins": 15}
        return {"step": 16, "max_origins": 5}

    def fig1_sizes(self) -> Tuple[int, ...]:
        if self.is_full:
            return tuple(range(20, 1201, 20))
        return (20, 60, 110, 160, 230, 300, 380, 460, 560, 680, 800,
                930, 1060, 1200)


@dataclass(frozen=True)
class Study:
    """One expression's full experiment pipeline on the paper machine."""

    config: FigureConfig
    expression: Expression
    backend: SimulatedBackend
    search: SearchResult
    regions: Regions
    prediction: Prediction
    confusion: ConfusionMatrix


_STUDY_CACHE: Dict[Tuple[str, int, str, str, str, str], Study] = {}


def compute_study_results(
    config: FigureConfig,
    expression_name: str,
    backend: SimulatedBackend = None,
) -> Tuple[SearchResult, Regions, Prediction, ConfusionMatrix]:
    """Run the full experiment pipeline for one study, uncached.

    This is the deterministic unit of work both :func:`study_for` and
    :mod:`repro.runner` workers execute: results depend only on the
    study key, never on the process that computed them.  A caller that
    keeps using the backend afterwards (``study_for`` attaches it to
    the Study for the trace figures) passes its own, so the pipeline's
    measurement memo stays warm.

    A non-default ``config.variant`` swaps the machine construction
    and/or recompiles the expression under a pruning budget — both
    through the variant registry, so the result is still a pure
    function of the study key.
    """
    variant = get_variant(config.variant)
    expression = variant.expression_for(expression_name)
    if backend is None:
        backend = config.build_backend()
    box = named_box(config.box, expression.n_dims)
    search = random_search(
        backend,
        expression,
        box,
        threshold=SEARCH_THRESHOLD,
        seed=config.seed,
        **config.search_params(expression_name),
    )
    region_params = config.region_params(expression_name)
    origins = [
        anomaly.instance
        for anomaly in search.anomalies[: region_params["max_origins"]]
    ]
    regions = explore_regions(
        backend,
        expression,
        origins,
        box,
        threshold=REGION_THRESHOLD,
        step=region_params["step"],
    )
    prediction = predict_from_benchmarks(backend, expression, regions)
    confusion = confusion_from_prediction(prediction)
    return search, regions, prediction, confusion


def study_for(config: FigureConfig, expression_name: str) -> Study:
    """The cached study for one expression at one scale/seed/box."""
    key = (
        config.scale,
        config.seed,
        expression_name,
        config.box,
        config.schedule,
        config.variant,
    )
    if key in _STUDY_CACHE:
        return _STUDY_CACHE[key]

    expression = get_variant(config.variant).expression_for(expression_name)
    backend = config.build_backend()
    store = store_from_env()
    store_key = config.study_key(expression_name)

    if store is not None:
        with store:
            loaded = store.load(store_key)
        if loaded is not None:
            study = Study(
                config=config,
                expression=expression,
                backend=backend,
                search=loaded["search"],
                regions=loaded["regions"],
                prediction=loaded["prediction"],
                confusion=loaded["confusion"],
            )
            _STUDY_CACHE[key] = study
            return study

    search, regions, prediction, confusion = compute_study_results(
        config, expression_name, backend=backend
    )
    study = Study(
        config=config,
        expression=expression,
        backend=backend,
        search=search,
        regions=regions,
        prediction=prediction,
        confusion=confusion,
    )
    _STUDY_CACHE[key] = study
    if store is not None:
        with store:
            store.save(store_key, search, regions, prediction, confusion)
    return study


def clear_study_cache() -> None:
    """Testing hook: drop all memoised studies."""
    _STUDY_CACHE.clear()
