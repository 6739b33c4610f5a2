"""Deterministic renderings of an :class:`AblationReport`.

Two artefacts, both byte-stable for a given
``(scale, seed, box, expressions, components)``:

* **JSON** (``ablation-report.json``) — the machine-readable payload
  CI archives and diffs.  Canonical form: fixed key order, compact
  separators, ``repr``-round-tripping floats, no timestamps, no wall
  times.  Two runs of the same config — same process or not, warm
  store or cold — serialize identically.
* **Markdown** (``ablation-report.md``) — the human-readable
  importance ranking, rendered from the same data.

The volatile run summary (wall seconds, job count) is deliberately
*not* part of either artefact; callers that want it read
``report.run_report`` directly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Tuple, Union

from repro.ablation.harness import (
    METRIC_NAMES,
    AblationReport,
    ComponentResult,
)
from repro.ablation.components import DETECTORS

#: Bumped whenever the JSON payload shape changes.
REPORT_SCHEMA = 2

JSON_NAME = "ablation-report.json"
MARKDOWN_NAME = "ablation-report.md"


def report_payload(report: AblationReport) -> dict:
    """The report as a plain-JSON-serializable dict."""
    components = []
    for rank, result in enumerate(report.results, start=1):
        component = result.component
        components.append(
            {
                "rank": rank,
                "name": component.name,
                "kind": component.kind,
                "description": component.description,
                "importance": result.importance,
                "metrics": {
                    expression: result.metrics[expression].to_payload()
                    for expression in report.expressions
                },
                "deltas": {
                    expression: {
                        metric: result.deltas[expression][metric]
                        for metric in METRIC_NAMES
                    }
                    for expression in report.expressions
                },
            }
        )
    return {
        "schema": REPORT_SCHEMA,
        "kind": "ablation-report",
        "scale": report.scale,
        "seed": report.seed,
        "box": report.box,
        "expressions": list(report.expressions),
        "detectors": list(DETECTORS),
        "baseline": {
            expression: report.baseline[expression].to_payload()
            for expression in report.expressions
        },
        "components": components,
    }


def report_json(report: AblationReport) -> str:
    """Canonical JSON text (byte-identical across same-config runs)."""
    return (
        json.dumps(
            report_payload(report),
            separators=(",", ":"),
            sort_keys=False,
            allow_nan=False,
        )
        + "\n"
    )


def _metric_row(result: ComponentResult, expression: str) -> str:
    deltas = result.deltas[expression]
    return " | ".join(f"{deltas[metric]:+.6f}" for metric in METRIC_NAMES)


def report_markdown(report: AblationReport) -> str:
    """The importance ranking as a markdown document."""
    lines: List[str] = []
    lines.append(
        f"# Ablation report — {report.scale} scale, seed {report.seed}, "
        f"{report.box}"
    )
    lines.append("")
    lines.append(
        f"{len(report.results)} components ablated over "
        f"{len(report.expressions)} expression families "
        f"({', '.join(report.expressions)}); detector ensemble: "
        f"{', '.join(DETECTORS)}."
    )
    lines.append("")

    lines.append("## Baseline")
    lines.append("")
    lines.append(
        "| expression | samples | anomalies | abundance | cells | "
        "tp | fp | fn | tn | recall | precision |"
    )
    lines.append("|---|---|---|---|---|---|---|---|---|---|---|")
    for expression in report.expressions:
        m = report.baseline[expression]
        lines.append(
            f"| {expression} | {m.n_samples} | {m.n_anomalies} | "
            f"{m.abundance:.6f} | {m.n_cells} | {m.true_positive} | "
            f"{m.false_positive} | {m.false_negative} | "
            f"{m.true_negative} | {m.recall:.6f} | {m.precision:.6f} |"
        )
    lines.append("")

    lines.append("## Component importance")
    lines.append("")
    lines.append(
        "Importance is the largest absolute delta a component induces "
        "on any (expression, metric)."
    )
    lines.append("")
    lines.append("| rank | component | kind | importance |")
    lines.append("|---|---|---|---|")
    for rank, result in enumerate(report.results, start=1):
        component = result.component
        lines.append(
            f"| {rank} | {component.name} | {component.kind} | "
            f"{result.importance:.6f} |"
        )
    lines.append("")

    lines.append("## Per-component deltas")
    lines.append("")
    for result in report.results:
        component = result.component
        lines.append(f"### {component.name}")
        lines.append("")
        lines.append(component.description)
        lines.append("")
        lines.append(
            "| expression | Δabundance | Δrecall | Δprecision |"
        )
        lines.append("|---|---|---|---|")
        for expression in report.expressions:
            lines.append(
                f"| {expression} | {_metric_row(result, expression)} |"
            )
        lines.append("")
    return "\n".join(lines)


def write_report(
    report: AblationReport, directory: Union[str, Path]
) -> Tuple[Path, Path]:
    """Write both renderings; returns ``(json_path, markdown_path)``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    json_path = directory / JSON_NAME
    markdown_path = directory / MARKDOWN_NAME
    json_path.write_text(report_json(report), encoding="utf-8")
    markdown_path.write_text(report_markdown(report), encoding="utf-8")
    return json_path, markdown_path
