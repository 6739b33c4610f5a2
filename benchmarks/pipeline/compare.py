"""Compare two sets of pipeline-benchmark results, metric by metric.

    python3 benchmarks/pipeline/compare.py BASE_DIR NEW_DIR

Each directory holds ``<workload>.jsonl`` files: the last stdout line
of each ``run.py --trace 0`` run of that workload, one line per run.
For every (workload, end-to-end metric) on both sides the table shows
each side's median and quartiles and a verdict against the metric's
bound in BENCHMARK.json:

* ``unresolved`` — either side's interquartile range, as a share of
  its median, exceeds the bound;
* ``worse`` / ``better`` — the new median moved by more than the bound
  against / along the metric's better direction;
* ``same`` — otherwise.

Exits 1 when a row is worse or a run reported incorrect outputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import common


def load_set(directory: Path) -> Dict[str, List[dict]]:
    """workload → its run results."""
    return {
        path.stem: [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line.strip()
        ]
        for path in sorted(Path(directory).glob("*.jsonl"))
    }


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(
    base: Sequence[float], new: Sequence[float], better: str, bound: float
) -> str:
    (b1, b2, b3), (n1, n2, n3) = quartiles(base), quartiles(new)
    if (b3 - b1) / b2 > bound or (n3 - n1) / n2 > bound:
        return "unresolved"
    change = (n2 - b2) / b2
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(base_dir: Path, new_dir: Path) -> int:
    spec = json.loads(common.BENCHMARK_PATH.read_text())
    base, new = load_set(base_dir), load_set(new_dir)
    failures = 0
    for side, runs_by_workload in (("base", base), ("new", new)):
        for workload, runs in runs_by_workload.items():
            bad = sum(1 for run in runs if not run["correct"])
            if bad:
                failures += 1
                print(f"{side} {workload}: {bad} run(s) with incorrect outputs")
    print(
        f"{'workload':14s} {'metric':16s} {'base q1/median/q3':>32s} "
        f"{'new q1/median/q3':>32s} {'bound':>6s}  verdict"
    )
    for workload in sorted(set(base) & set(new)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [
                [run["metrics"][name]["value"] for run in side[workload]]
                for side in (base, new)
            ]
            result = verdict(*values, metric["better"], metric["bound"])
            failures += result == "worse"
            cells = [
                "/".join(f"{q:.4g}" for q in quartiles(side))
                for side in values
            ]
            print(
                f"{workload:14s} {name:16s} {cells[0]:>32s} {cells[1]:>32s} "
                f"{metric['bound']:6.2f}  {result}"
            )
    return 1 if failures else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 benchmarks/pipeline/compare.py",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    return compare(args.base, args.new)


if __name__ == "__main__":
    sys.exit(main())
