"""How many of a study's call measurements repeat the row above.

Run from the root of a checkout of the change:

    python3 benchmarks/results/call-runs/runs.py full 1 2
    python3 benchmarks/results/call-runs/runs.py quick 1 2 3 4

It computes the studies of the given scale and study seeds cold (full:
chain4, aatb and sum4; quick: the 7 families of study-quick) and
wraps the machine's two entry points, ``measure_plans_batch`` and
``predict_plans_batch``.  For every call of every plan it counts the
``(call, row)`` measurements of the batch and the call's run heads:
the rows where one of the instance columns the call reads changed
from the row above, plus the first row of each row block.  The
machine draws noise at the heads only.  It prints, per family and
stage (search, regions, predict), the ids, the heads and the share of
ids that repeat the row above, then the noise ids the machine drew,
which equal the heads.
"""

import shutil
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

sys.path[:0] = ["src", "benchmarks/pipeline"]

import numpy as np  # noqa: E402

import repro.figures.common as common  # noqa: E402
import repro.machine.machine as machine  # noqa: E402
import studies  # noqa: E402
from repro.figures.cache import StudyKey  # noqa: E402
from repro.runner import StudyRunner  # noqa: E402

STAGES = {
    "random_search": "search",
    "explore_regions": "regions",
    "predict_from_benchmarks": "predict",
}


def heads(instances: np.ndarray, columns, block_rows: int) -> int:
    """Run heads of one call over a batch, as the machine blocks it."""
    values = instances[:, list(columns)]
    start = np.ones(len(values), dtype=bool)
    start[1:] = (values[1:] != values[:-1]).any(axis=1)
    start[::block_rows] = True
    return int(np.count_nonzero(start))


def main() -> None:
    scale, seeds = sys.argv[1], [int(seed) for seed in sys.argv[2:]]
    full = scale == "full"
    families = studies.FULL_FAMILIES if full else studies.QUICK_FAMILIES
    counts = defaultdict(lambda: [0, 0])  # (family, stage) -> [ids, heads]
    drawn = [0]
    where = {"family": None, "stage": None}

    def staged(name, original):
        def wrapper(*args, **kwargs):
            where["stage"] = STAGES[name]
            return original(*args, **kwargs)

        return wrapper

    def counted(original):
        def wrapper(self, instances, plans, *args, **kwargs):
            instances = np.asarray(instances, dtype=np.int64)
            width = max(map(len, plans), default=1)
            block_rows = max(1, machine._PASS_IDS // width)
            total = counts[where["family"], where["stage"]]
            for steps in plans:
                for step in steps:
                    total[0] += len(instances)
                    total[1] += heads(instances, step.dims, block_rows)
            return original(self, instances, plans, *args, **kwargs)

        return wrapper

    def noise(original):
        def wrapper(self, ids):
            drawn[0] += ids.shape[0]
            return original(self, ids)

        return wrapper

    for name in STAGES:
        setattr(common, name, staged(name, getattr(common, name)))
    model = machine.MachineModel
    model.measure_plans_batch = counted(model.measure_plans_batch)
    model.predict_plans_batch = counted(model.predict_plans_batch)
    model._median_factors = noise(model._median_factors)
    for family in families:
        where["family"] = family
        for seed in seeds:
            store = Path(tempfile.mkdtemp())
            try:
                StudyRunner(cache_dir=store, store="json", jobs=1).run(
                    [StudyKey(scale, seed, family)]
                )
            finally:
                shutil.rmtree(store)
    print(f"{scale} scale, study seeds {seeds}")
    print(
        f"{'family':<10} {'stage':<8} {'(call, row) ids':>16} "
        f"{'run heads':>12} {'repeat':>7}"
    )
    ids = kept = 0
    for (family, stage), (n, h) in counts.items():
        ids, kept = ids + n, kept + h
        share = 1 - h / n if n else 0.0
        print(f"{family:<10} {stage:<8} {n:>16,} {h:>12,} {share:>7.1%}")
    print(f"{'all':<10} {'':<8} {ids:>16,} {kept:>12,} {1 - kept / ids:>7.1%}")
    print(f"noise ids drawn: {drawn[0]:,} ({drawn[0] / ids:.1%} of the ids)")


if __name__ == "__main__":
    main()
