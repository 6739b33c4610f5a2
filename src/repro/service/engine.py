"""The selection engine: discriminant answers over cached studies.

:class:`SelectionEngine` is the synchronous core the HTTP layer wraps.
At construction it builds the simulated paper machine, benchmarks the
one-off kernel performance profiles (paper §5's per-machine pass) and
instantiates every registered discriminant; per request it validates
the expression and dims, picks via ``select_batch`` (so batched and
per-request selections are index-identical by construction) and
annotates the answer with study context — whether the instance lies in
a known anomalous region of the expression's study.

Studies flow through :class:`StudyProvider`: an in-process
:class:`~repro.service.lru.LruCache` over hot ``(expression, box)``
studies, reading through the configured
:class:`~repro.figures.cache.StudyStore`.  Degradation is graceful by
design — a cold, corrupted, or unreadable store is a miss that falls
back to local computation with a log line, never a failed request.
"""

from __future__ import annotations

import logging
import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.backends.simulated import SimulatedBackend
from repro.core.classify import max_exact_dim
from repro.core.discriminants import (
    BenchmarkDiscriminant,
    Discriminant,
    FlopsProfileHybrid,
    MinFlopsDiscriminant,
    ProfiledTimeDiscriminant,
)
from repro.core.searchspace import NAMED_BOXES
from repro.experiments.regions import Regions
from repro.expressions.base import Algorithm, Expression
from repro.expressions.codegen import codegen_stats
from repro.expressions.registry import (
    expression_name_help,
    get_expression,
    is_known_expression,
)
from repro.figures.cache import StudyKey, StudyStore
from repro.figures.common import FigureConfig, compute_study_results
from repro.machine.presets import paper_machine
from repro.profiles.benchmark import PROFILE_AXIS, standard_profiles
from repro.service.lru import LruCache

log = logging.getLogger("repro.service")

__all__ = ["PROFILE_AXIS", "SelectionEngine", "SelectionError"]

#: Default capacity of the hot-study LRU.
DEFAULT_LRU_CAPACITY = 8

_SCALES = ("quick", "full")

_MISS = object()


class SelectionError(ValueError):
    """A request the engine cannot serve; maps to HTTP 400."""


@dataclass(frozen=True)
class Selection:
    """One answered selection request."""

    expression: str
    dims: Tuple[int, ...]
    discriminant: str
    algorithm_index: int
    algorithm_name: str
    n_algorithms: int
    #: None when study context was skipped or unavailable.
    in_known_anomaly_region: Optional[bool]
    #: Where the study context came from:
    #: "lru" | "store" | "computed" | "unavailable" | "skipped".
    study_source: str

    def to_payload(self) -> dict:
        return {
            "expression": self.expression,
            "dims": list(self.dims),
            "discriminant": self.discriminant,
            "algorithm": {
                "index": self.algorithm_index,
                "name": self.algorithm_name,
                "of": self.n_algorithms,
            },
            "in_known_anomaly_region": self.in_known_anomaly_region,
            "study_source": self.study_source,
        }


def instance_in_regions(regions: Regions, dims: Sequence[int]) -> bool:
    """Whether dims fall in any known anomalous region's bounding box.

    Experiment 2 traverses one axis at a time, so a region is recorded
    as an origin plus per-dimension extents; the membership test here
    is the region's axis-aligned bounding box (extent interval where
    one was walked, the origin value elsewhere) — the standard convex
    over-approximation of the traversed cross.
    """
    for region in regions.regions:
        for i, value in enumerate(dims):
            extent = region.extents.get(i)
            if extent is not None:
                if not extent.lo <= value <= extent.hi:
                    break
            elif value != region.origin[i]:
                break
        else:
            return True
    return False


class StudyProvider:
    """Keyed read-through study access: LRU → store → local compute."""

    def __init__(
        self,
        store: Optional[StudyStore],
        scale: str = "quick",
        seed: int = 0,
        box: str = "paper_box",
        capacity: int = DEFAULT_LRU_CAPACITY,
    ) -> None:
        self.store = store
        self.scale = scale
        self.seed = seed
        self.box = box
        self.lru = LruCache(capacity)
        self.store_hits = 0
        self.store_misses = 0
        self.store_errors = 0
        self.computed = 0

    def key_for(self, expression: str) -> StudyKey:
        return StudyKey(
            scale=self.scale,
            seed=self.seed,
            expression=expression,
            box=self.box,
        )

    def get(self, expression: str) -> Tuple[Optional[dict], str]:
        """The study dict for an expression, and where it came from.

        Never raises: a store problem degrades to local computation,
        and a failing local computation yields ``(None,
        "unavailable")`` so selection proceeds without annotation.
        """
        cached = self.lru.get(expression, _MISS)
        if cached is not _MISS:
            return cached, "lru"
        study: Optional[dict] = None
        source = "unavailable"
        if self.store is not None:
            key = self.key_for(expression)
            try:
                study = self.store.load(key)
            except Exception as exc:
                self.store_errors += 1
                log.warning(
                    "store load failed for %s (%s: %s); computing locally",
                    key.slug, type(exc).__name__, exc,
                )
            else:
                if study is None:
                    self.store_misses += 1
                else:
                    self.store_hits += 1
                    source = "store"
        if study is None:
            config = FigureConfig(
                scale=self.scale, seed=self.seed, box=self.box
            )
            try:
                results = compute_study_results(config, expression)
            except Exception as exc:
                log.error(
                    "local study computation failed for %s (%s: %s)",
                    expression, type(exc).__name__, exc,
                )
                return None, "unavailable"
            study = dict(
                zip(("search", "regions", "prediction", "confusion"), results)
            )
            self.computed += 1
            source = "computed"
            if self.store is not None:
                try:
                    self.store.save(self.key_for(expression), *results)
                except Exception as exc:
                    self.store_errors += 1
                    log.warning(
                        "store save failed for %s (%s: %s)",
                        expression, type(exc).__name__, exc,
                    )
        self.lru.put(expression, study)
        return study, source

    def stats(self) -> dict:
        return {
            "lru": self.lru.stats(),
            "store": {
                "kind": self.store.kind if self.store is not None else None,
                "hits": self.store_hits,
                "misses": self.store_misses,
                "errors": self.store_errors,
                "computed_locally": self.computed,
            },
        }


class SelectionEngine:
    """Answer "which algorithm?" for ``(expression, dims)`` requests."""

    def __init__(
        self,
        scale: str = "quick",
        seed: int = 0,
        box: str = "paper_box",
        store: Optional[StudyStore] = None,
        lru_capacity: int = DEFAULT_LRU_CAPACITY,
        default_discriminant: str = "hybrid",
    ) -> None:
        if scale not in _SCALES:
            raise ValueError(f"scale must be one of {_SCALES}, got {scale!r}")
        if box not in NAMED_BOXES:
            raise ValueError(
                f"box must be one of {tuple(sorted(NAMED_BOXES))}, "
                f"got {box!r}"
            )
        self.scale = scale
        self.seed = seed
        self.box = box
        self.backend = SimulatedBackend(paper_machine(seed=seed))
        # The shared PROFILE_AXIS grid (repro.profiles.benchmark) —
        # the same profiles the ablation harness's detector ensemble
        # benchmarks, so service picks and harness picks agree.
        profiles = standard_profiles(self.backend)
        self.discriminants: Dict[str, Discriminant] = {
            "min-flops": MinFlopsDiscriminant(),
            "profiled-time": ProfiledTimeDiscriminant(profiles),
            "hybrid": FlopsProfileHybrid(profiles, margin=0.5),
            "benchmark-sum": BenchmarkDiscriminant(self.backend),
        }
        if default_discriminant not in self.discriminants:
            raise ValueError(
                f"unknown default discriminant {default_discriminant!r}; "
                f"known: {'/'.join(sorted(self.discriminants))}"
            )
        self.default_discriminant = default_discriminant
        self.studies = StudyProvider(
            store, scale=scale, seed=seed, box=box, capacity=lru_capacity
        )
        self._expressions: Dict[str, Expression] = {}
        self._algorithms: Dict[str, Tuple[Algorithm, ...]] = {}
        #: Per expression, the largest dim its FLOP counts stay exact at.
        self._max_dims: Dict[str, int] = {}
        self.selections_served = 0

    # ------------------------------------------------------------------
    # Request validation
    # ------------------------------------------------------------------

    def expression_for(self, name: str) -> Expression:
        if not isinstance(name, str) or not name:
            raise SelectionError("request needs an 'expression' name")
        expression = self._expressions.get(name)
        if expression is None:
            if not is_known_expression(name):
                raise SelectionError(
                    f"unknown expression {name!r}; {expression_name_help()}"
                )
            expression = get_expression(name)
            algorithms = expression.algorithms()
            self._max_dims[name] = max_exact_dim(algorithms, expression.n_dims)
            self._algorithms[name] = algorithms
            self._expressions[name] = expression
        return expression

    def algorithms_for(self, name: str) -> Tuple[Algorithm, ...]:
        self.expression_for(name)
        return self._algorithms[name]

    def discriminant_for(self, name: Optional[str]) -> Tuple[str, Discriminant]:
        key = name or self.default_discriminant
        discriminant = self.discriminants.get(key)
        if discriminant is None:
            raise SelectionError(
                f"unknown discriminant {key!r}; "
                f"known: {'/'.join(sorted(self.discriminants))}"
            )
        return key, discriminant

    def _validated_dims(
        self, expression: Expression, dims: Sequence[int]
    ) -> Tuple[int, ...]:
        if not isinstance(dims, (list, tuple)):
            raise SelectionError(
                f"dims must be a list of integers, got {type(dims).__name__}"
            )
        if len(dims) != expression.n_dims:
            raise SelectionError(
                f"{expression.name} takes {expression.n_dims} dims, "
                f"got {len(dims)}"
            )
        # operator.index refuses floats (integral or not, inf and nan
        # included) and strings; bools are ints to it, so refuse them
        # first.  NumPy integers pass.
        try:
            if any(isinstance(v, bool) for v in dims):
                raise TypeError
            values = tuple(operator.index(v) for v in dims)
        except TypeError:
            raise SelectionError(
                f"dims must be integers, got {dims!r}"
            ) from None
        if any(v < 1 for v in values):
            raise SelectionError(f"dims must be positive, got {values}")
        bound = self._max_dims[expression.name]
        if max(values) > bound:
            raise SelectionError(
                f"{expression.name} dims must be at most {bound}, got "
                f"{values}: beyond that some plan's FLOP count reaches "
                f"2**53 and is no longer exact"
            )
        return values

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------

    def select_many(
        self,
        expression_name: str,
        dims_list: Sequence[Sequence[int]],
        discriminant: Optional[str] = None,
        annotate: bool = True,
    ) -> List[Selection]:
        """One ``select_batch`` call answering many requests at once."""
        expression = self.expression_for(expression_name)
        algorithms = self.algorithms_for(expression_name)
        disc_name, disc = self.discriminant_for(discriminant)
        instances = [
            self._validated_dims(expression, dims) for dims in dims_list
        ]
        if not instances:
            return []
        choices = disc.select_batch(algorithms, instances)
        study: Optional[dict] = None
        source = "skipped"
        if annotate:
            study, source = self.studies.get(expression_name)
        selections = []
        for dims, choice in zip(instances, choices):
            index = int(choice)
            in_region = (
                instance_in_regions(study["regions"], dims)
                if study is not None
                else None
            )
            selections.append(
                Selection(
                    expression=expression_name,
                    dims=dims,
                    discriminant=disc_name,
                    algorithm_index=index,
                    algorithm_name=algorithms[index].name,
                    n_algorithms=len(algorithms),
                    in_known_anomaly_region=in_region,
                    study_source=source,
                )
            )
        self.selections_served += len(selections)
        return selections

    def select(
        self,
        expression_name: str,
        dims: Sequence[int],
        discriminant: Optional[str] = None,
        annotate: bool = True,
    ) -> Selection:
        """A single request — a one-element batch, by construction."""
        return self.select_many(
            expression_name, [dims], discriminant=discriminant,
            annotate=annotate,
        )[0]

    def warm(self, expression_names: Sequence[str]) -> List[str]:
        """Pre-load studies into the LRU; returns the warmed sources."""
        sources = []
        for name in expression_names:
            self.expression_for(name)
            _study, source = self.studies.get(name)
            sources.append(source)
        return sources

    def stats(self) -> dict:
        return {
            "selections_served": self.selections_served,
            "engine": {
                "scale": self.scale,
                "seed": self.seed,
                "box": self.box,
                "default_discriminant": self.default_discriminant,
                "discriminants": sorted(self.discriminants),
                "expressions_loaded": sorted(self._expressions),
            },
            "codegen": codegen_stats(),
            **self.studies.stats(),
        }
