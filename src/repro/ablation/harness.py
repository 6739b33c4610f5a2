"""Baseline-plus-one-off ablation studies over the study matrix.

For every requested :class:`~repro.ablation.components.Component` the
harness runs the full study pipeline with *exactly one* thing changed
from the baseline — a machine mechanism off, a pruning budget
tightened, a schedule forced, or one detector removed from the
anomaly-detection ensemble — and measures the paper's
headline statistics per expression family:

* **abundance** — Experiment 1's anomaly rate inside the search box;
* **recall / precision** — of the *detector ensemble*: a region cell
  (ground truth from Experiment 2's traversal) is predicted anomalous
  when any enabled §5 discriminant picks a different algorithm than
  the FLOP-minimal one.  With all three detectors enabled this is the
  harness's baseline; ``drop-detector-*`` components remove one
  member, every other component re-runs the same ensemble on its own
  study under its own machine.

Studies flow through the existing :class:`~repro.runner.StudyRunner`
and :class:`~repro.figures.cache.StudyStore` — variant studies are
ordinary store entries under variant-suffixed keys, so a re-run (or
the overnight full-scale workflow) finds them warm.  Every quantity is
deterministic in ``(scale, seed, box, expressions, components)``; the
rendered reports are byte-identical across re-runs, which is what lets
CI diff them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.ablation.components import (
    DETECTORS,
    Component,
    component_names,
    get_component,
    get_variant,
)
from repro.analysis.confusion import ConfusionMatrix
from repro.backends.simulated import SimulatedBackend
from repro.core.discriminants import (
    BenchmarkDiscriminant,
    Discriminant,
    FlopsProfileHybrid,
    MinFlopsDiscriminant,
    ProfiledTimeDiscriminant,
)
from repro.experiments.regions import Regions
from repro.expressions.base import Expression
from repro.figures.cache import StudyKey, make_store
from repro.figures.common import FigureConfig
from repro.profiles.benchmark import standard_profiles
from repro.runner.runner import RunReport, StudyRunner

#: FLOP-margin of the ensemble's hybrid member (the service default).
HYBRID_MARGIN = 0.5

#: Default expression families (the golden trio pinned by
#: ``tests/test_golden_metrics.py``): the paper's two plus the
#: compiler-generated gram family.
DEFAULT_EXPRESSIONS: Tuple[str, ...] = ("aatb", "chain4", "gram3")

#: The three science metrics the report ranks deltas on.
METRIC_NAMES: Tuple[str, ...] = ("abundance", "recall", "precision")


class AblationError(RuntimeError):
    """A study the harness needs failed to compute or load."""


@dataclass(frozen=True)
class ScienceMetrics:
    """The paper's headline statistics for one (config, expression)."""

    n_samples: int
    n_anomalies: int
    abundance: float
    n_cells: int
    true_positive: int
    false_positive: int
    false_negative: int
    true_negative: int
    recall: float
    precision: float

    def value(self, metric: str) -> float:
        if metric not in METRIC_NAMES:
            raise KeyError(f"unknown metric {metric!r}")
        return getattr(self, metric)

    def to_payload(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "n_anomalies": self.n_anomalies,
            "abundance": self.abundance,
            "n_cells": self.n_cells,
            "tp": self.true_positive,
            "fp": self.false_positive,
            "fn": self.false_negative,
            "tn": self.true_negative,
            "recall": self.recall,
            "precision": self.precision,
        }


def metric_deltas(
    baseline: ScienceMetrics, variant: ScienceMetrics
) -> Dict[str, float]:
    """Per-metric ``variant - baseline`` (the report's delta rule)."""
    return {
        metric: variant.value(metric) - baseline.value(metric)
        for metric in METRIC_NAMES
    }


def importance_of(deltas: Dict[str, Dict[str, float]]) -> float:
    """One component's importance: its largest absolute delta."""
    return max(
        (
            abs(value)
            for per_metric in deltas.values()
            for value in per_metric.values()
        ),
        default=0.0,
    )


@dataclass(frozen=True)
class ComponentResult:
    """One ablated component: its metrics and deltas vs baseline."""

    component: Component
    metrics: Dict[str, ScienceMetrics]
    deltas: Dict[str, Dict[str, float]]
    importance: float


@dataclass(frozen=True)
class AblationReport:
    """Everything the rendered JSON/markdown reports carry."""

    scale: str
    seed: int
    box: str
    expressions: Tuple[str, ...]
    baseline: Dict[str, ScienceMetrics]
    #: Ranked: descending importance, name ascending on ties.
    results: Tuple[ComponentResult, ...]
    run_report: Optional[RunReport] = None


@dataclass(frozen=True)
class AblationConfig:
    """What to ablate: the grid one harness run covers."""

    scale: str = "quick"
    seed: int = 0
    box: str = "paper_box"
    expressions: Tuple[str, ...] = DEFAULT_EXPRESSIONS
    components: Tuple[str, ...] = field(default_factory=component_names)

    def __post_init__(self) -> None:
        if not self.expressions:
            raise ValueError("ablation needs at least one expression")
        if not self.components:
            raise ValueError("ablation needs at least one component")
        for name in self.components:
            get_component(name)  # KeyError lists valid names

    def baseline_config(self) -> FigureConfig:
        return FigureConfig(scale=self.scale, seed=self.seed, box=self.box)

    def config_for(self, component: Component) -> FigureConfig:
        """The one-off study config: baseline plus this component.

        Detector components study the baseline key — only the
        detection pass changes — so their config *is* the baseline's.
        """
        return FigureConfig(
            scale=self.scale,
            seed=self.seed,
            box=self.box,
            schedule=component.schedule,
            variant=component.variant,
        )

    def enumerate_configs(
        self,
    ) -> List[Tuple[Optional[Component], FigureConfig]]:
        """Baseline first, then exactly one entry per component."""
        entries: List[Tuple[Optional[Component], FigureConfig]] = [
            (None, self.baseline_config())
        ]
        for name in self.components:
            component = get_component(name)
            entries.append((component, self.config_for(component)))
        return entries

    def study_keys(self) -> Tuple[StudyKey, ...]:
        """Unique study keys the run needs, baseline keys first."""
        keys: List[StudyKey] = []
        seen = set()
        for _component, config in self.enumerate_configs():
            for expression in self.expressions:
                key = config.study_key(expression)
                if key not in seen:
                    seen.add(key)
                    keys.append(key)
        return tuple(keys)


# ----------------------------------------------------------------------
# Detection: the §5 discriminant ensemble as an anomaly predictor
# ----------------------------------------------------------------------


class _DetectionContext:
    """Per-config machinery the ensemble needs: backend + profiles.

    Built lazily per (variant, schedule) and cached across expressions
    — profile benchmarking is the expensive part and depends only on
    the machine.
    """

    def __init__(self, config: FigureConfig) -> None:
        self.config = config
        self.variant = get_variant(config.variant)
        self.backend = config.build_backend()
        self.profiles = standard_profiles(self.backend)

    def expression(self, name: str) -> Expression:
        return self.variant.expression_for(name)

    def detector(self, name: str) -> Discriminant:
        if name == "benchmark-sum":
            return BenchmarkDiscriminant(self.backend)
        if name == "profiled-time":
            return ProfiledTimeDiscriminant(self.profiles)
        if name == "flops-profile-hybrid":
            return FlopsProfileHybrid(self.profiles, margin=HYBRID_MARGIN)
        raise KeyError(
            f"unknown detector {name!r}; known: {'/'.join(DETECTORS)}"
        )

    def detect(
        self,
        expression_name: str,
        regions: Regions,
        enabled: Sequence[str],
    ) -> ConfusionMatrix:
        """Ensemble detection over the study's region cells.

        A cell is *predicted anomalous* when any enabled detector's
        pick differs from the FLOP-minimal pick — the selector
        believes the FLOP-cheapest algorithm is not the fastest there,
        which is exactly the paper's anomaly condition applied to a
        selection instead of a measurement.  Ground truth is the
        cell's measured classification.
        """
        cells = regions.cells
        if not cells:
            return ConfusionMatrix(0, 0, 0, 0)
        expression = self.expression(expression_name)
        algorithms = expression.algorithms()
        instances = [cell.instance for cell in cells]
        base_picks = MinFlopsDiscriminant().select_batch(algorithms, instances)
        flagged = [False] * len(cells)
        for name in enabled:
            picks = self.detector(name).select_batch(algorithms, instances)
            flagged = [
                flag or pick != base
                for flag, pick, base in zip(flagged, picks, base_picks)
            ]
        tp = fp = fn = tn = 0
        for cell, predicted in zip(cells, flagged):
            if cell.is_anomaly and predicted:
                tp += 1
            elif cell.is_anomaly:
                fn += 1
            elif predicted:
                fp += 1
            else:
                tn += 1
        return ConfusionMatrix(
            true_positive=tp,
            false_positive=fp,
            false_negative=fn,
            true_negative=tn,
        )


def metrics_from_study(
    study: dict,
    context: _DetectionContext,
    expression_name: str,
    enabled_detectors: Sequence[str],
) -> ScienceMetrics:
    """The science metrics of one loaded study under one ensemble."""
    search = study["search"]
    regions = study["regions"]
    confusion = context.detect(expression_name, regions, enabled_detectors)
    return ScienceMetrics(
        n_samples=search.n_samples,
        n_anomalies=len(search.anomalies),
        abundance=search.abundance,
        n_cells=len(regions.cells),
        true_positive=confusion.true_positive,
        false_positive=confusion.false_positive,
        false_negative=confusion.false_negative,
        true_negative=confusion.true_negative,
        recall=confusion.recall,
        precision=confusion.precision,
    )


# ----------------------------------------------------------------------
# The harness
# ----------------------------------------------------------------------


def compute_deltas(
    baseline: Dict[str, ScienceMetrics],
    components: Sequence[Component],
    metrics_by_component: Dict[str, Dict[str, ScienceMetrics]],
) -> Tuple[ComponentResult, ...]:
    """Delta math + ranking, separated for fixture-level testing.

    Ranked by descending importance (largest absolute delta over all
    expressions and metrics); ties break to the component name, so the
    order — and the rendered report — is deterministic.
    """
    results = []
    for component in components:
        metrics = metrics_by_component[component.name]
        deltas = {
            expression: metric_deltas(baseline[expression], metrics[expression])
            for expression in baseline
        }
        results.append(
            ComponentResult(
                component=component,
                metrics=metrics,
                deltas=deltas,
                importance=importance_of(deltas),
            )
        )
    return tuple(
        sorted(results, key=lambda r: (-r.importance, r.component.name))
    )


def run_ablation(
    config: AblationConfig,
    cache_dir: Union[str, Path],
    store: str = "json",
    jobs: int = 1,
    retries: int = 2,
) -> AblationReport:
    """Run the full baseline-plus-one-off matrix and build the report.

    Studies go through :class:`StudyRunner` (parallel when ``jobs > 1``)
    into the shared store, then each is loaded back and measured.  A
    study that failed to compute *or* to load raises
    :class:`AblationError` — an incomplete report must never rank
    components on partial data.
    """
    keys = config.study_keys()
    runner = StudyRunner(
        cache_dir=Path(cache_dir), store=store, jobs=jobs, retries=retries
    )
    run_report = runner.run(keys)
    failed = [o for o in run_report.outcomes if o.status == "failed"]
    if failed:
        details = "; ".join(
            f"{o.key.slug}: {o.error}" for o in failed[:5]
        )
        raise AblationError(
            f"{len(failed)} ablation studies failed ({details})"
        )

    studies: Dict[StudyKey, dict] = {}
    with make_store(store, cache_dir) as reader:
        for key in keys:
            study = reader.load(key)
            if study is None:
                raise AblationError(
                    f"study {key.slug} missing from the store after the run"
                )
            studies[key] = study

    contexts: Dict[Tuple[str, str], _DetectionContext] = {}

    def context_for(figure_config: FigureConfig) -> _DetectionContext:
        ctx_key = (figure_config.variant, figure_config.schedule)
        if ctx_key not in contexts:
            contexts[ctx_key] = _DetectionContext(figure_config)
        return contexts[ctx_key]

    def metrics_for(
        figure_config: FigureConfig, enabled: Sequence[str]
    ) -> Dict[str, ScienceMetrics]:
        context = context_for(figure_config)
        return {
            expression: metrics_from_study(
                studies[figure_config.study_key(expression)],
                context,
                expression,
                enabled,
            )
            for expression in config.expressions
        }

    baseline = metrics_for(config.baseline_config(), DETECTORS)
    components = [get_component(name) for name in config.components]
    metrics_by_component: Dict[str, Dict[str, ScienceMetrics]] = {}
    for component in components:
        enabled = tuple(
            d for d in DETECTORS if d != component.dropped_detector
        )
        metrics_by_component[component.name] = metrics_for(
            config.config_for(component), enabled
        )

    results = compute_deltas(baseline, components, metrics_by_component)
    return AblationReport(
        scale=config.scale,
        seed=config.seed,
        box=config.box,
        expressions=tuple(config.expressions),
        baseline=baseline,
        results=results,
        run_report=run_report,
    )
