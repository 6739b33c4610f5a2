"""Automated ablation: machine-checked science regression.

The harness answers "which load-bearing component moves the paper's
numbers, and by how much?" by enumerating baseline-plus-one-off study
configurations (:mod:`repro.ablation.components`), running them
through the parallel runner and the shared
:class:`~repro.figures.cache.StudyStore`
(:mod:`repro.ablation.harness`), and ranking components by the deltas
they induce on anomaly abundance and detection recall/precision per
expression family (:mod:`repro.ablation.report`).

Run it with ``python -m repro.ablation``.

Only :mod:`~repro.ablation.components` is imported here: it sits below
the figures layer (``FigureConfig`` validates its ``variant`` against
this registry), so this package's ``__init__`` must never drag in the
harness's figures/runner imports.
"""

from repro.ablation.components import (
    COMPONENTS,
    DETECTORS,
    STUDY_VARIANTS,
    Component,
    StudyVariant,
    component_names,
    get_component,
    get_variant,
    is_known_variant,
)

__all__ = [
    "COMPONENTS",
    "DETECTORS",
    "STUDY_VARIANTS",
    "Component",
    "StudyVariant",
    "component_names",
    "get_component",
    "get_variant",
    "is_known_variant",
]
