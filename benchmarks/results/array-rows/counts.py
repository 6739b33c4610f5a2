"""Traced call and row counts per study seed, for one source tree.

Run from the root of a checkout; prints one JSON object:

    python3 benchmarks/results/array-rows/counts.py > counts.json

For each study seed of a ``--seed 0`` run of study-quick and
study-full, it computes that seed's studies cold (a fresh json store,
one process) with the pipeline benchmark's tracer installed and
reports the calls and rows of ``core.evaluate``, ``core.classify``,
``expressions.flops`` and ``machine.predict``.  A traced ``run.py``
reports these counts per round, averaged over however many rounds of
each seed it completed; per seed they must repeat exactly.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path[:0] = ["src", "benchmarks/pipeline"]

import studies  # noqa: E402
import tracing  # noqa: E402
from repro.runner import StudyRunner  # noqa: E402

SPANS = (
    "core.evaluate", "core.classify", "expressions.flops", "machine.predict"
)


def main() -> None:
    out = {}
    for workload in ("study-quick", "study-full"):
        for seed in studies.study_seeds(workload, 0):
            tracer = tracing.Tracer()
            store = Path(tempfile.mkdtemp())
            tracer.install()
            try:
                StudyRunner(cache_dir=store, store="json", jobs=1).run(
                    studies.seed_keys(workload, seed)
                )
            finally:
                tracer.uninstall()
                shutil.rmtree(store)
            totals = tracing.totals(tracer.names, tracer.spans)
            out[f"{workload}/{seed}"] = {
                f"{name}.{field}": totals[name][field]
                for name in SPANS
                for field in ("calls", "rows")
            }
    print(json.dumps(out, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
