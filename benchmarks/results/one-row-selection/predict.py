"""In-process ``Profile.predict_batch`` time per kernel and batch width.

Run from the root of a checkout, giving one or more ``src`` trees:

    python3 benchmarks/results/one-row-selection/predict.py PARENT/src src
    python3 benchmarks/results/one-row-selection/predict.py --rounds 3 PARENT/src src

For every tree it starts a worker process that imports ``repro`` from
that tree, builds every kernel's standard profile (``standard_profiles``
on the paper machine, seed 0) and times ``predict_batch`` on batches of
1, 5,000 and 32,768 rows of dims drawn uniformly from [10, 1400), the
same rows in every tree.  A one-row batch is timed ``--calls`` times,
a wide one a tenth as often (at least 10), in ``--repeats`` repeats;
with ``--rounds`` above 1 the trees alternate round by round and the
repeats pool.  It prints the median (min) microseconds per call for
each kernel, width and tree as a markdown table.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WIDTHS = (1, 5000, 32768)


def worker(calls: int, repeats: int) -> dict:
    import numpy as np

    from repro.backends.simulated import SimulatedBackend
    from repro.machine.presets import paper_machine
    from repro.profiles.benchmark import standard_profiles

    profiles = standard_profiles(SimulatedBackend(paper_machine(seed=0)))
    out = {}
    for kernel, profile in profiles.items():
        arity = len(profile.axes)
        for width in WIDTHS:
            rng = np.random.default_rng(width * 10 + arity)
            dims = rng.integers(10, 1400, size=(width, arity))
            number = calls if width == 1 else max(10, calls // 10)
            profile.predict_batch(dims)  # warm
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                for _ in range(number):
                    profile.predict_batch(dims)
                times.append((time.perf_counter() - start) / number * 1e6)
            out[f"{kernel.value}/{width}"] = times
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", help="src directories")
    parser.add_argument("--calls", type=int, default=2000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument(
        "--worker", action="store_true", help=argparse.SUPPRESS
    )
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(worker(args.calls, args.repeats)))
        return
    pooled = {tree: {} for tree in args.trees}
    for _ in range(args.rounds):
        for tree in args.trees:
            env = dict(os.environ, PYTHONPATH=os.path.abspath(tree))
            argv = [
                sys.executable, __file__, "--worker",
                "--calls", str(args.calls), "--repeats", str(args.repeats),
            ]
            result = json.loads(
                subprocess.run(
                    argv, env=env, check=True, capture_output=True, text=True
                ).stdout
            )
            for name, times in result.items():
                pooled[tree].setdefault(name, []).extend(times)
    print("| kernel/rows | " + " | ".join(args.trees) + " |")
    print("|---|" + "---|" * len(args.trees))
    for name in pooled[args.trees[0]]:
        cells = [
            f"{statistics.median(pooled[t][name]):.1f} "
            f"({min(pooled[t][name]):.1f}) µs"
            for t in args.trees
        ]
        print(f"| {name} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
