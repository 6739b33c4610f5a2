"""Summarize the schedule-axis ablation reports in this directory.

Reads ``registered/*.json`` and ``larger/*.json`` (ablation reports of
the two ``schedule-*`` components, one per scale and seed) and
``reordered-plans.json``, and prints the README's markdown tables::

    python3 benchmarks/results/schedule-axis/summarize.py

Per (scale, family, component, metric) it gives the mean delta over
seeds, its standard error, the paired t statistic against zero with
its two-sided 5% critical value (df = seeds - 1), the largest
absolute per-seed delta, the baseline metric's across-seed range, and
the sign counts of the per-seed deltas.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETS = ("registered", "larger")
SCALES = ("quick", "full")
METRICS = ("abundance", "recall", "precision")
#: Two-sided 5% critical values of Student's t.
T_CRIT = {3: 3.182, 7: 2.365}


def load_reports(set_name: str, scale: str) -> list:
    paths = sorted(HERE.glob(f"{set_name}/{scale}-seed*.json"))
    reports = [json.loads(path.read_text()) for path in paths]
    return sorted(reports, key=lambda report: report["seed"])


def rows():
    for set_name in SETS:
        for scale in SCALES:
            reports = load_reports(set_name, scale)
            seeds = [report["seed"] for report in reports]
            for family in reports[0]["expressions"]:
                for component in reports[0]["components"]:
                    name = component["name"]
                    for metric in METRICS:
                        baseline = [
                            report["baseline"][family][metric]
                            for report in reports
                        ]
                        deltas = [
                            next(
                                c for c in report["components"]
                                if c["name"] == name
                            )["deltas"][family][metric]
                            for report in reports
                        ]
                        yield scale, family, name, metric, seeds, baseline, deltas


def fmt(value: float) -> str:
    return "0" if value == 0 else f"{value:+.2g}"


def main() -> None:
    reordered = json.loads((HERE / "reordered-plans.json").read_text())
    print("| family | plans | reordered by min | reordered by max |")
    print("|---|---|---|---|")
    for family, counts in reordered.items():
        print(
            f"| {family} | {counts['plans']} | "
            f"{counts['min-interference']} | {counts['max-interference']} |"
        )
    print()
    print(
        "| scale | family | component | metric | seeds | mean Δ | SE | "
        "t (crit) | max abs Δ | baseline range | + / 0 / − |"
    )
    print("|---|---|---|---|---|---|---|---|---|---|---|")
    outside = []
    worst_share, worst_row = 0.0, ""
    for scale, family, name, metric, seeds, baseline, deltas in rows():
        n = len(deltas)
        mean = statistics.fmean(deltas)
        se = statistics.stdev(deltas) / math.sqrt(n)
        spread = max(baseline) - min(baseline)
        t = "—" if se == 0 else f"{mean / se:+.2f}"
        signs = (
            sum(d > 0 for d in deltas),
            sum(d == 0 for d in deltas),
            sum(d < 0 for d in deltas),
        )
        short = name.replace("schedule-", "").replace("-interference", "")
        print(
            f"| {scale} | {family} | {short} | {metric} | {n} | "
            f"{fmt(mean)} | {se:.2g} | {t} ({T_CRIT[n - 1]}) | "
            f"{max(abs(d) for d in deltas):.2g} | {spread:.2g} | "
            f"{signs[0]} / {signs[1]} / {signs[2]} |"
        )
        if spread and abs(mean) / spread > worst_share:
            worst_share = abs(mean) / spread
            worst_row = f"{scale} {family} {metric} ({short})"
        for seed, delta in zip(seeds, deltas):
            if abs(delta) > spread:
                outside.append(
                    (scale, family, short, metric, seed, delta, spread, n,
                     mean, se)
                )
    print()
    print(
        f"Largest |mean Δ| / baseline range: {worst_share:.3f}, "
        f"{worst_row}."
    )
    print()
    print("Per-seed deltas outside the baseline's across-seed range:")
    print()
    for scale, family, short, metric, seed, delta, spread, n, mean, se in (
        outside
    ):
        print(
            f"- {scale} {family} {metric} ({short}): {delta:+.2g} at seed "
            f"{seed}, against a range of {spread:.2g} over {n} seeds "
            f"(mean {mean:+.2g} ± {se:.2g})"
        )


if __name__ == "__main__":
    main()
