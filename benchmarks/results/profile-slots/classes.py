"""In-process selection time per select-closed request class.

Run from the root of a checkout, giving one or more ``src`` trees:

    python3 benchmarks/results/profile-slots/classes.py PARENT/src src
    python3 benchmarks/results/profile-slots/classes.py --requests 300 --rounds 2 PARENT/src src

For every tree it starts a worker process that imports ``repro`` from
that tree, builds a ``SelectionEngine`` (quick scale, seed 0) and, per
request class of the pipeline benchmark's select-closed workload
(aatb, chain4 and sum4 under hybrid, min-flops and benchmark-sum),
times ``--requests`` one-row ``select_many`` calls without study
annotation.  The dims are drawn as select-closed draws them (uniform
in [10, 1400)), from the same seed in every tree, so every tree
answers the same requests; the worker checks nothing about the
answers.  With ``--rounds`` above 1 the trees alternate, round by
round, and a class's times pool over the rounds.  It prints the
median (mean) milliseconds per class and tree as a markdown table.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

SERVED = ("aatb", "chain4", "sum4")
DISCRIMINANTS = ("hybrid", "min-flops", "benchmark-sum")
DIMS_LO, DIMS_HI = 10, 1400


def worker(requests: int, seed: int) -> dict:
    from repro.service.engine import SelectionEngine

    engine = SelectionEngine(scale="quick", seed=0)
    out = {}
    for expression in SERVED:
        n_dims = engine.expression_for(expression).n_dims
        for discriminant in DISCRIMINANTS:
            rng = random.Random(f"{seed}/{expression}/{discriminant}")
            times = []
            for _ in range(requests):
                dims = [rng.randrange(DIMS_LO, DIMS_HI) for _ in range(n_dims)]
                start = time.perf_counter()
                engine.select_many(
                    expression, [dims], discriminant=discriminant,
                    annotate=False,
                )
                times.append((time.perf_counter() - start) * 1e3)
            out[f"{expression}/{discriminant}"] = times
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", help="src directories")
    parser.add_argument("--requests", type=int, default=300)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--worker", action="store_true", help=argparse.SUPPRESS
    )
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(worker(args.requests, args.seed)))
        return
    pooled = {tree: {} for tree in args.trees}
    for round_ in range(args.rounds):
        for tree in args.trees:
            env = dict(os.environ, PYTHONPATH=os.path.abspath(tree))
            argv = [
                sys.executable, __file__, "--worker",
                "--requests", str(args.requests),
                "--seed", str(args.seed + round_),
            ]
            result = json.loads(
                subprocess.run(
                    argv, env=env, check=True, capture_output=True, text=True
                ).stdout
            )
            for name, times in result.items():
                pooled[tree].setdefault(name, []).extend(times)
    print("| class | " + " | ".join(args.trees) + " |")
    print("|---|" + "---|" * len(args.trees))
    for name in pooled[args.trees[0]]:
        cells = [
            f"{statistics.median(pooled[t][name]):.2f} "
            f"({statistics.fmean(pooled[t][name]):.2f}) ms"
            for t in args.trees
        ]
        print(f"| {name} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
