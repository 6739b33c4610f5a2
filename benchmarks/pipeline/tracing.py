"""Benchmark-side tracing: spans recorded around the program's layers.

The program carries no instrumentation of its own.  A traced run
wraps public functions and methods at each layer boundary (the
``TARGETS`` table), records one span per call in memory — name,
start, end, parent span, round id, rows handled, label — and restores
every original on :meth:`Tracer.uninstall`.  Untraced runs never
install a wrapper.

Modules are taken from ``importlib.import_module`` rather than by
attribute access on their package: ``repro.core`` re-exports a
function named ``classify`` and ``repro.experiments`` one named
``random_search``, so ``repro.core.classify`` as an attribute is the
function, not the module whose globals the callers look up.

A span's *self time* is its duration minus the time its child spans
cover; :func:`self_times` computes it per span name.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# Row extractors: (args, result) -> count.  Wrapped methods receive
# ``self`` as args[0].


def _rows_arg(index: int) -> Callable:
    return lambda args, result: len(args[index])


def _text_len_result(args, result) -> int:
    return 0 if result is None else len(result)


def _predict_matrix_rows(args, result) -> int:
    # (self, algorithms, instances): one row per (instance, algorithm).
    return len(args[1]) * len(args[2])


def _computed_rows(args, result) -> int:
    # (self, call batches, ...): every call batch spans the same rows.
    return args[1][0].n


#: (span name, module, attribute or Class.method, rows, label).  The
#: experiments-level calls are wrapped where ``repro.figures.common``
#: imported them, and ``evaluate_instances``/``classify_batch`` in each
#: experiments module that imported them, because callers resolve
#: those names in their own module's globals.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable], Optional[Callable]], ...] = (
    ("experiments.search", "repro.figures.common", "random_search", None, None),
    ("experiments.regions", "repro.figures.common", "explore_regions", None, None),
    ("experiments.predict", "repro.figures.common", "predict_from_benchmarks", None, None),
    ("core.evaluate", "repro.experiments.random_search", "evaluate_instances", _rows_arg(2), None),
    ("core.evaluate", "repro.experiments.regions", "evaluate_instances", _rows_arg(2), None),
    ("core.evaluate", "repro.experiments.prediction", "evaluate_instances", _rows_arg(2), None),
    ("core.classify", "repro.experiments.random_search", "classify_batch", _rows_arg(0), None),
    ("core.classify", "repro.experiments.regions", "classify_batch", _rows_arg(0), None),
    ("core.classify", "repro.experiments.prediction", "classify_batch", _rows_arg(0), None),
    ("expressions.flops", "repro.core.classify", "batch_flops", _rows_arg(1), None),
    ("machine.measure", "repro.backends.simulated", "SimulatedBackend.time_algorithms", _rows_arg(2), None),
    ("machine.computed", "repro.machine.machine", "MachineModel.measure_algorithm_batch", _computed_rows, None),
    ("machine.predict", "repro.backends.simulated", "SimulatedBackend.predict_times_matrix", _predict_matrix_rows, None),
    ("profiles.predict", "repro.profiles.benchmark", "Profile.predict_batch", _rows_arg(1), None),
    ("discriminants.hybrid", "repro.core.discriminants", "FlopsProfileHybrid.select_batch", _rows_arg(2), None),
    ("discriminants.min-flops", "repro.core.discriminants", "MinFlopsDiscriminant.select_batch", _rows_arg(2), None),
    ("discriminants.benchmark-sum", "repro.core.discriminants", "BenchmarkDiscriminant.select_batch", _rows_arg(2), None),
    ("service.select_many", "repro.service.engine", "SelectionEngine.select_many", _rows_arg(2), None),
    ("service.annotate", "repro.service.engine", "StudyProvider.get", None, None),
    ("service.annotate", "repro.service.engine", "instance_in_regions", None, None),
    ("store.encode", "repro.figures.cache", "encode_study", _text_len_result, None),
    ("store.decode", "repro.figures.cache", "decode_study", _rows_arg(0), None),
    ("store.write", "repro.figures.cache", "JsonDirectoryStore.save_text", _rows_arg(2), None),
    ("store.write", "repro.figures.cache", "SqliteStudyStore.save_text", _rows_arg(2), None),
    ("store.json.read", "repro.figures.cache", "JsonDirectoryStore.load_text", _text_len_result, None),
    ("store.sqlite.read", "repro.figures.cache", "SqliteStudyStore.load_text", _text_len_result, None),
    ("runner.run", "repro.runner.runner", "StudyRunner.run", None, None),
    ("runner.study", "repro.runner.runner", "run_study", None, lambda args: args[0].slug),
)

# Span fields, in the order each span list stores them.
NAME, START, END, PARENT, ROUND, ROWS, LABEL = range(7)


class Tracer:
    """Install wrappers, collect spans, restore the originals."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: Round id stamped on every span opened while it is set.
        self.round = -1
        self._patches: List[Tuple[object, str, object, bool]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str, rows, label):
        name_id = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, clock(), 0.0, stack[-1] if stack else -1,
                    self.round, 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if rows is not None:
                span[ROWS] = rows(args, result)
            if label is not None:
                span[LABEL] = label(args)
            return result

        return traced

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, module_name, attribute, rows, label in TARGETS:
            owner, member = _owner(module_name, attribute)
            own = member in vars(owner)
            original = vars(owner)[member] if own else getattr(owner, member)
            setattr(owner, member, self._wrap(original, name, rows, label))
            self._patches.append((owner, member, original, own))

    def uninstall(self) -> None:
        while self._patches:
            owner, member, original, own = self._patches.pop()
            if own:
                setattr(owner, member, original)
            else:
                delattr(owner, member)  # the method was inherited

    def dump(self, path: Path) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "spans": self.spans}, handle)


def load_spans(path: Path) -> Tuple[List[str], List[list]]:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return data["names"], data["spans"]


def _owner(module_name: str, attribute: str) -> Tuple[object, str]:
    """The module or class holding ``attribute``, and the member name."""
    owner = importlib.import_module(module_name)
    if "." not in attribute:
        return owner, attribute
    class_name, member = attribute.split(".")
    return getattr(owner, class_name), member


def unwrapped() -> bool:
    """Whether every wrapped target holds its original function again."""
    return not any(
        hasattr(getattr(*_owner(module_name, attribute)), "__wrapped__")
        for _name, module_name, attribute, _rows, _label in TARGETS
    )


def totals(
    names: Sequence[str], spans: Sequence[list]
) -> Dict[str, Dict[str, float]]:
    """Per span name: seconds (outermost calls only), calls and rows."""
    out: Dict[str, Dict[str, float]] = {
        name: {"s": 0.0, "calls": 0, "rows": 0} for name in names
    }
    for span in spans:
        entry = out[names[span[NAME]]]
        entry["calls"] += 1
        entry["rows"] += span[ROWS]
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != span[NAME]:
            parent = spans[parent][PARENT]
        if parent < 0:  # not nested inside a span of the same name
            entry["s"] += span[END] - span[START]
    return out


def self_times(names: Sequence[str], spans: Sequence[list]) -> Dict[str, float]:
    """Per span name: duration minus the time covered by child spans."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    out: Dict[str, float] = {}
    for index, span in enumerate(spans):
        name = names[span[NAME]]
        out[name] = out.get(name, 0.0) + span[END] - span[START] - child[index]
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    names: Sequence[str],
    spans: Sequence[list],
    operations: int,
    service: Optional[Dict[str, float]] = None,
    overhead_ratio: float = 0.0,
) -> Dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from one traced run.

    Times, calls, rows and bytes are per operation: per round for the
    batch workloads, per request for select-closed.  A layer the
    workload does not reach reads 0.  ``service`` carries the
    select-closed figures that come from ``GET /stats`` and the
    client (``requests_per_batch``, ``lru_hit_ratio``,
    ``outside_select_ms``).
    """
    t = totals(names, spans)
    get = lambda name: t.get(name, {"s": 0.0, "calls": 0, "rows": 0})
    per = lambda value: value / operations
    service = service or {}
    measure, computed = get("machine.measure"), get("machine.computed")
    profiles = get("profiles.predict")
    evaluate = get("core.evaluate")
    writes = get("store.write")
    reads = (get("store.json.read"), get("store.sqlite.read"))
    return {
        "experiments.search_s": per(get("experiments.search")["s"]),
        "experiments.regions_s": per(get("experiments.regions")["s"]),
        "experiments.predict_s": per(get("experiments.predict")["s"]),
        "core.evaluate_s": per(evaluate["s"]),
        "core.evaluate_calls": per(evaluate["calls"]),
        "core.rows_per_evaluate": _ratio(evaluate["rows"], evaluate["calls"]),
        "core.classify_s": per(get("core.classify")["s"]),
        "core.classify_rows": per(get("core.classify")["rows"]),
        "expressions.flops_s": per(get("expressions.flops")["s"]),
        "expressions.flops_rows": per(get("expressions.flops")["rows"]),
        "machine.measure_s": per(measure["s"]),
        "machine.measure_rows": per(measure["rows"]),
        "machine.computed_rows": per(computed["rows"]),
        "machine.memo_hit_ratio": (
            1.0 - _ratio(computed["rows"], measure["rows"])
            if measure["rows"] else 0.0
        ),
        "machine.predict_s": per(get("machine.predict")["s"]),
        "machine.predict_rows": per(get("machine.predict")["rows"]),
        "profiles.predict_s": per(profiles["s"]),
        "profiles.predict_calls": per(profiles["calls"]),
        "profiles.rows_per_call": _ratio(profiles["rows"], profiles["calls"]),
        "discriminants.hybrid_s": per(get("discriminants.hybrid")["s"]),
        "discriminants.min-flops_s": per(get("discriminants.min-flops")["s"]),
        "discriminants.benchmark-sum_s": per(
            get("discriminants.benchmark-sum")["s"]
        ),
        "service.select_many_s": per(get("service.select_many")["s"]),
        "service.select_many_calls": per(get("service.select_many")["calls"]),
        "service.annotate_s": per(get("service.annotate")["s"]),
        "service.requests_per_batch": service.get("requests_per_batch", 0.0),
        "service.lru_hit_ratio": service.get("lru_hit_ratio", 0.0),
        "service.outside_select_ms": service.get("outside_select_ms", 0.0),
        "store.encode_s": per(get("store.encode")["s"]),
        "store.write_s": per(writes["s"]),
        "store.bytes_written": per(writes["rows"]),
        "store.json.read_s": per(reads[0]["s"]),
        "store.sqlite.read_s": per(reads[1]["s"]),
        "store.decode_s": per(get("store.decode")["s"]),
        "store.bytes_read": per(reads[0]["rows"] + reads[1]["rows"]),
        "runner.study_s": per(get("runner.study")["s"]),
        "runner.overhead_s": per(
            get("runner.run")["s"] - get("runner.study")["s"]
        ),
        "trace.overhead_ratio": overhead_ratio,
    }


def subtrees(spans: Sequence[list], roots: Sequence[int]) -> List[list]:
    """The spans under ``roots`` (roots included), parents re-indexed."""
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        children.setdefault(span[PARENT], []).append(index)
    selected: List[int] = []
    todo = list(roots)
    while todo:
        index = todo.pop()
        selected.append(index)
        todo.extend(children.get(index, ()))
    selected.sort()
    new_index = {index: n for n, index in enumerate(selected)}
    out = []
    for index in selected:
        span = list(spans[index])
        span[PARENT] = new_index.get(span[PARENT], -1)
        out.append(span)
    return out


def label_breakdown(
    names: Sequence[str], spans: Sequence[list], label: str
) -> Dict[str, float]:
    """Self time per span name under the spans carrying ``label``.

    For a study workload, ``label`` is a study key slug, so this is
    where one study's time went, layer by layer.
    """
    roots = [i for i, span in enumerate(spans) if span[LABEL] == label]
    return self_times(names, subtrees(spans, roots))
