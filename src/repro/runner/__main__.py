"""CLI for the parallel multi-study runner.

Regenerate the quick-scale study matrix across 4 processes into a
shared SQLite store::

    PYTHONPATH=src python -m repro.runner \
        --scale quick --jobs 4 --store sqlite --cache-dir .study-cache

A later benchmark run pointed at the same store
(``REPRO_CACHE_DIR=.study-cache REPRO_CACHE_STORE=sqlite``) finds
every study warm.  Extra studies beyond the registered-expression
matrix ride along via ``--extra scale:seed:expression[:box]``.

``--abundance`` widens the matrix to every named box
(``paper_box``/``wide_box``/``huge_box``) and prints the
anomaly-abundance-vs-search-volume figure from the freshly warmed
store.

The ablation matrix has its own CLI, ``python -m repro.ablation``.

Expression names, boxes, scales and store kinds are validated up front
against :func:`repro.expressions.registry.is_known_expression` and the
named tables — a typo is a usage error here, not a KeyError traceback
from a worker process.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence, Tuple

from repro.core.searchspace import NAMED_BOXES
from repro.expressions.registry import (
    expression_name_help,
    is_known_expression,
)
from repro.figures.cache import (
    CACHE_DIR_ENV,
    STORE_KINDS,
    StudyKey,
    StudyStore,
    make_store,
    positive_int,
    validated_store,
)
from repro.runner.runner import StudyRunner, study_matrix

_SCALES = ("quick", "full")


def _validated_expression(name: str) -> str:
    name = name.strip()
    if not is_known_expression(name):
        raise argparse.ArgumentTypeError(
            f"unknown expression {name!r}; {expression_name_help()}"
        )
    return name


def _parse_extra(raw: str) -> StudyKey:
    parts = raw.split(":")
    if len(parts) not in (3, 4):
        raise argparse.ArgumentTypeError(
            f"--extra takes scale:seed:expression[:box], got {raw!r}"
        )
    scale, seed, expression = parts[0], parts[1], parts[2]
    box = parts[3] if len(parts) == 4 else "paper_box"
    if scale not in _SCALES:
        raise argparse.ArgumentTypeError(
            f"--extra scale must be one of {'/'.join(_SCALES)}, "
            f"got {scale!r}"
        )
    try:
        seed_value = int(seed)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--extra seed must be an integer, got {seed!r}"
        ) from None
    if box not in NAMED_BOXES:
        raise argparse.ArgumentTypeError(
            f"--extra box must be one of "
            f"{'/'.join(sorted(NAMED_BOXES))}, got {box!r}"
        )
    return StudyKey(
        scale=scale,
        seed=seed_value,
        expression=_validated_expression(expression),
        box=box,
    )


def _parse_seeds(raw: str) -> List[int]:
    try:
        seeds = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--seeds takes comma-separated integers, got {raw!r}"
        ) from None
    if not seeds:
        # An all-blank value would silently produce an empty matrix
        # and a successful "0 studies" run.
        raise argparse.ArgumentTypeError(
            f"--seeds needs at least one integer, got {raw!r}"
        )
    return seeds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--scale",
        action="append",
        choices=_SCALES,
        help="study scale; repeatable (default: quick)",
    )
    parser.add_argument(
        "--seeds",
        type=_parse_seeds,
        default=[0],
        help="comma-separated machine/experiment seeds (default: 0)",
    )
    parser.add_argument(
        "--expressions",
        default=None,
        help="comma-separated expression names "
        "(default: all registered expressions)",
    )
    parser.add_argument(
        "--box",
        default="paper_box",
        choices=tuple(sorted(NAMED_BOXES)),
        help="named exploration box (default: paper_box)",
    )
    parser.add_argument(
        "--abundance",
        action="store_true",
        help="also run every named box and print the "
        "anomaly-abundance-vs-search-volume figure",
    )
    parser.add_argument(
        "--jobs",
        type=positive_int("--jobs"),
        default=1,
        help="worker processes (default: 1 = sequential in-process)",
    )
    parser.add_argument(
        "--store",
        type=validated_store,
        default=STORE_KINDS[0],
        metavar="{" + ",".join(STORE_KINDS) + "}",
        help="study-store backend shared by all workers (default: json)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"store directory (default: ${CACHE_DIR_ENV})",
    )
    parser.add_argument(
        "--retries",
        type=positive_int("--retries"),
        default=2,
        metavar="N",
        help="in-process attempts per key when salvaging a broken "
        "worker pool (default: 2)",
    )
    parser.add_argument(
        "--extra",
        action="append",
        type=_parse_extra,
        default=[],
        metavar="SCALE:SEED:EXPR[:BOX]",
        help="extra study beyond the matrix; repeatable",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print the study matrix and exit without running",
    )
    return parser


def _render_abundance(
    store: StudyStore,
    scales: Sequence[str],
    seeds: Sequence[int],
    expressions: Sequence[str],
) -> Tuple[str, bool]:
    """The abundance figure(s) from a warmed store; (text, complete).

    ``expressions`` must be the same list the warm-up matrix was built
    from — an in-process run may register pattern-family ``--extra``
    expressions into the registry mid-run, so re-reading
    ``known_expressions()`` here would demand studies that were never
    warmed.
    """
    from repro.figures import abundance
    from repro.figures.common import FigureConfig

    blocks: List[str] = []
    complete = True

    for scale in scales:
        for seed in seeds:

            def load_search(name: str, box: str):
                loaded = store.load(
                    StudyKey(
                        scale=scale, seed=seed, expression=name, box=box
                    )
                )
                if loaded is None:
                    raise LookupError(
                        f"study {scale}/seed{seed}/{name}/{box} missing "
                        "from the store"
                    )
                return loaded["search"]

            try:
                data = abundance.data_from_searches(
                    FigureConfig(scale=scale, seed=seed),
                    load_search,
                    expressions,
                )
            except LookupError as exc:
                blocks.append(f"abundance figure skipped: {exc}")
                complete = False
                continue
            blocks.append(abundance.render(data))
    return "\n\n".join(blocks), complete


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cache_dir = args.cache_dir or os.environ.get(CACHE_DIR_ENV, "").strip()
    if not cache_dir:
        print(
            f"error: no store directory; pass --cache-dir or set "
            f"{CACHE_DIR_ENV}",
            file=sys.stderr,
        )
        return 2
    expressions = None
    if args.expressions is not None:
        expressions = []
        for name in args.expressions.split(","):
            if not name.strip():
                continue
            try:
                expressions.append(_validated_expression(name))
            except argparse.ArgumentTypeError as exc:
                parser.error(f"--expressions: {exc}")
    scales = tuple(args.scale) if args.scale else ("quick",)
    extras = tuple(args.extra)
    abundance_names: Tuple[str, ...] = ()
    if args.abundance:
        from repro.expressions.registry import known_expressions
        from repro.figures.abundance import BOX_ORDER

        # Snapshot the name list now: running pattern-family extras
        # in process registers new expressions, and the figure must
        # cover exactly what was warmed.
        names = tuple(
            expressions if expressions is not None else known_expressions()
        )
        abundance_names = names
        extras += tuple(
            StudyKey(scale=scale, seed=seed, expression=name, box=box)
            for scale in scales
            for seed in args.seeds
            for name in names
            for box in BOX_ORDER
        )
    keys = study_matrix(
        scales=scales,
        seeds=args.seeds,
        expressions=expressions,
        box=args.box,
        extras=extras,
    )
    if args.list:
        for key in keys:
            print(key.slug)
        return 0
    runner = StudyRunner(
        cache_dir=cache_dir,
        store=args.store,
        jobs=args.jobs,
        retries=args.retries,
    )
    report = runner.run(keys)
    for outcome in report.outcomes:
        line = (
            f"[{outcome.status:>8}] {outcome.key.slug:<40} "
            f"{outcome.seconds:7.2f}s"
        )
        if outcome.error:
            line += f"  {outcome.error}"
        print(line)
    print(report.summary())
    ok = report.ok
    if args.abundance:
        with make_store(args.store, cache_dir) as store:
            text, complete = _render_abundance(
                store, scales, args.seeds, abundance_names
            )
        print()
        print(text)
        ok = ok and complete
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
