"""In-process study decode time over a store of study payloads.

Run from the root of a checkout, giving a json study store and one or
more ``src`` trees:

    PYTHONPATH=src python3 benchmarks/pipeline/studies.py prepare --seed 0 --work-dir DIR
    python3 benchmarks/results/columnar-studies/decode.py --store DIR/json PARENT/src src
    python3 benchmarks/results/columnar-studies/decode.py --store DIR/json --rounds 3 PARENT/src src

For every tree it starts a worker process that imports ``repro`` from
that tree, reads every payload of the store, and times, per pass over
all of them, ``json.loads`` alone and ``decode_study`` (the parse plus
building the study), in ``--repeats`` passes each; with ``--rounds``
above 1 the trees alternate round by round and the passes pool.  It
prints the payload count, size and region cells, then the median
(min) milliseconds per pass for each tree as a markdown table, with
the building time (the decode's median minus the parse's) beside
them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path


def worker(store: str, repeats: int) -> dict:
    from repro.figures.cache import StudyKey, decode_study

    texts = [path.read_text() for path in sorted(Path(store).glob("*.json"))]
    keys = []
    for text in texts:
        payload = json.loads(text)
        keys.append(StudyKey(
            payload["scale"], payload["seed"], payload["expression"],
            payload["box"],
        ))
    if any(decode_study(text, key) is None for text, key in zip(texts, keys)):
        raise SystemExit("a payload does not decode")

    def timed(step) -> list:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            step()
            times.append((time.perf_counter() - start) * 1e3)
        return times

    return {
        "payloads": len(texts),
        "mb": sum(map(len, texts)) / 1e6,
        "cells": sum(
            len(json.loads(text)["regions"]["cells"]) for text in texts
        ),
        "loads": timed(lambda: [json.loads(text) for text in texts]),
        "decode": timed(lambda: [
            decode_study(text, key) for text, key in zip(texts, keys)
        ]),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", help="src directories")
    parser.add_argument("--store", required=True, help="json store directory")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument(
        "--worker", action="store_true", help=argparse.SUPPRESS
    )
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(worker(args.store, args.repeats)))
        return
    pooled = {tree: {"loads": [], "decode": []} for tree in args.trees}
    for _ in range(args.rounds):
        for tree in args.trees:
            env = dict(os.environ, PYTHONPATH=os.path.abspath(tree))
            argv = [
                sys.executable, __file__, "--worker", "--store", args.store,
                "--repeats", str(args.repeats),
            ]
            result = json.loads(
                subprocess.run(
                    argv, env=env, check=True, capture_output=True, text=True
                ).stdout
            )
            for name in ("loads", "decode"):
                pooled[tree][name] += result[name]
    print(
        f"{result['payloads']} payloads, {result['mb']:.2f} MB, "
        f"{result['cells']:,} region cells and as many records\n"
    )
    print("| tree | json.loads | decode_study | building |")
    print("|---|---|---|---|")
    for tree in args.trees:
        loads, decode = pooled[tree]["loads"], pooled[tree]["decode"]
        build = statistics.median(decode) - statistics.median(loads)
        print(
            f"| {tree} | "
            + " | ".join(
                f"{statistics.median(v):.1f} ({min(v):.1f}) ms"
                for v in (loads, decode)
            )
            + f" | {build:.1f} ms |"
        )


if __name__ == "__main__":
    main()
