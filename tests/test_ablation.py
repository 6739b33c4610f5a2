"""Ablation harness: registry, enumeration, deltas, determinism, CLI.

Fast coverage strategy: the components/enumeration/delta layers are
pure functions tested against hand-built fixtures; the two end-to-end
tests that actually run studies use a single-expression,
few-component config on the quick scale (sub-second each) with a
shared warm store.
"""

import argparse
import json

import pytest

from repro.ablation.cli import build_parser
from repro.ablation.cli import main as ablation_main
from repro.ablation.components import (
    COMPONENTS,
    DEFAULT_VARIANT,
    DETECTORS,
    STUDY_VARIANTS,
    component_names,
    get_component,
    get_variant,
)
from repro.ablation.harness import (
    DEFAULT_EXPRESSIONS,
    METRIC_NAMES,
    AblationConfig,
    ScienceMetrics,
    compute_deltas,
    importance_of,
    metric_deltas,
    run_ablation,
)
from repro.ablation.report import report_json, report_markdown, write_report
from repro.figures.cache import positive_int, validated_store


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


def test_registry_covers_every_load_bearing_axis():
    kinds = {c.kind for c in COMPONENTS.values()}
    assert kinds == {"machine", "pruning", "detector"}
    assert len(COMPONENTS) >= 8
    # Every referenced variant/detector exists.
    for component in COMPONENTS.values():
        assert component.variant in STUDY_VARIANTS
        if component.dropped_detector is not None:
            assert component.dropped_detector in DETECTORS


def test_get_component_lists_names_on_unknown():
    with pytest.raises(KeyError) as excinfo:
        get_component("bogus")
    message = str(excinfo.value)
    for name in component_names():
        assert name in message


def test_unknown_variant_lists_names():
    with pytest.raises(ValueError) as excinfo:
        get_variant("bogus")
    assert "no-noise" in str(excinfo.value)


def test_prune_variant_recompiles_with_fewer_algorithms():
    baseline = get_variant(DEFAULT_VARIANT).expression_for("chain4")
    pruned = get_variant("prune-budget-1").expression_for("chain4")
    assert len(baseline.algorithms()) > 1
    assert len(pruned.algorithms()) == 1
    # The registry instance itself is untouched.
    assert len(
        get_variant(DEFAULT_VARIANT).expression_for("chain4").algorithms()
    ) == len(baseline.algorithms())


# ----------------------------------------------------------------------
# Enumeration: exactly baseline plus one
# ----------------------------------------------------------------------


def test_enumeration_is_exactly_baseline_plus_one_off():
    config = AblationConfig(expressions=("aatb",))
    entries = config.enumerate_configs()
    assert entries[0][0] is None  # baseline first
    assert len(entries) == 1 + len(config.components)
    baseline = entries[0][1]
    assert baseline.variant == "default"
    for component, figure_config in entries[1:]:
        # Each one-off config differs from baseline in at most its
        # component's variant.
        assert figure_config.scale == baseline.scale
        assert figure_config.seed == baseline.seed
        assert figure_config.box == baseline.box
        if component.kind == "detector":
            # Detector drops reuse the baseline study untouched.
            assert figure_config == baseline
        else:
            assert figure_config.variant != baseline.variant, component.name


def test_study_keys_are_deduplicated_and_baseline_first():
    config = AblationConfig(
        expressions=("aatb", "gram3"),
        components=(
            "drop-detector-benchmark-sum",  # baseline key, no new study
            "no-noise",
            "prune-budget-2",
        ),
    )
    keys = config.study_keys()
    assert len(keys) == len(set(keys))
    # 2 expressions x (baseline + no-noise + prune-budget-2).
    assert len(keys) == 6
    assert keys[0].variant == "default"
    slugs = [key.slug for key in keys]
    assert "quick-seed0-aatb-paper_box-ablate-no-noise" in slugs


def test_config_rejects_unknown_component_upfront():
    with pytest.raises(KeyError) as excinfo:
        AblationConfig(components=("no-noise", "bogus"))
    assert "bogus" in str(excinfo.value)


def test_config_rejects_empty_axes():
    with pytest.raises(ValueError):
        AblationConfig(expressions=())
    with pytest.raises(ValueError):
        AblationConfig(components=())


# ----------------------------------------------------------------------
# Delta math on a hand-built two-study fixture
# ----------------------------------------------------------------------


def _metrics(n_samples, n_anomalies, tp, fp, fn, tn):
    cells = tp + fp + fn + tn
    actual_yes = tp + fn
    predicted_yes = tp + fp
    return ScienceMetrics(
        n_samples=n_samples,
        n_anomalies=n_anomalies,
        abundance=n_anomalies / n_samples,
        n_cells=cells,
        true_positive=tp,
        false_positive=fp,
        false_negative=fn,
        true_negative=tn,
        recall=tp / actual_yes if actual_yes else 1.0,
        precision=tp / predicted_yes if predicted_yes else 1.0,
    )


def test_metric_deltas_match_hand_computation():
    baseline = _metrics(200, 20, tp=16, fp=2, fn=4, tn=10)
    variant = _metrics(200, 10, tp=10, fp=0, fn=10, tn=12)
    deltas = metric_deltas(baseline, variant)
    assert deltas["abundance"] == pytest.approx(10 / 200 - 20 / 200)
    assert deltas["recall"] == pytest.approx(10 / 20 - 16 / 20)
    assert deltas["precision"] == pytest.approx(10 / 10 - 16 / 18)
    assert set(deltas) == set(METRIC_NAMES)


def test_importance_is_max_absolute_delta():
    deltas = {
        "aatb": {"abundance": -0.05, "recall": 0.02, "precision": 0.0},
        "gram3": {"abundance": 0.01, "recall": -0.30, "precision": 0.1},
    }
    assert importance_of(deltas) == pytest.approx(0.30)
    assert importance_of({}) == 0.0


def test_compute_deltas_ranks_by_importance_then_name():
    baseline = {"aatb": _metrics(100, 10, tp=8, fp=1, fn=2, tn=5)}
    big = _metrics(100, 40, tp=8, fp=1, fn=2, tn=5)  # |Δabundance|=0.3
    same = _metrics(100, 10, tp=8, fp=1, fn=2, tn=5)  # all-zero deltas
    results = compute_deltas(
        baseline,
        [get_component("prune-budget-1"), get_component("no-noise")],
        {"prune-budget-1": {"aatb": same}, "no-noise": {"aatb": big}},
    )
    assert [r.component.name for r in results] == [
        "no-noise",
        "prune-budget-1",
    ]
    assert results[0].importance == pytest.approx(0.30)
    assert results[1].importance == 0.0
    # Tied importances fall back to name order.
    tied = compute_deltas(
        baseline,
        [get_component("prune-budget-2"), get_component("no-interference")],
        {"prune-budget-2": {"aatb": same}, "no-interference": {"aatb": same}},
    )
    assert [r.component.name for r in tied] == [
        "no-interference",
        "prune-budget-2",
    ]


# ----------------------------------------------------------------------
# End-to-end: a small real ablation, reruns byte-identical
# ----------------------------------------------------------------------

E2E_COMPONENTS = (
    "no-noise",
    "prune-budget-1",
    "drop-detector-benchmark-sum",
)


@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    config = AblationConfig(
        expressions=("aatb",), components=E2E_COMPONENTS
    )
    cache_dir = tmp_path_factory.mktemp("ablation-store")
    return config, cache_dir, run_ablation(config, cache_dir)


def test_e2e_report_shape_and_detector_drop(small_report):
    _config, _cache_dir, report = small_report
    assert set(report.baseline) == {"aatb"}
    by_name = {r.component.name: r for r in report.results}
    assert set(by_name) == set(E2E_COMPONENTS)
    # A detector drop studies the baseline key: the search, hence
    # abundance, is exactly the baseline's.
    drop = by_name["drop-detector-benchmark-sum"]
    assert drop.deltas["aatb"]["abundance"] == 0.0
    # Dropping the strongest detector must not *improve* recall.
    assert drop.deltas["aatb"]["recall"] <= 0.0


def test_e2e_rerun_is_byte_identical(small_report, tmp_path):
    config, cache_dir, report = small_report
    # Warm-store rerun in the same process...
    again = run_ablation(config, cache_dir)
    assert report_json(again) == report_json(report)
    assert report_markdown(again) == report_markdown(report)
    # ...and a cold-store rerun recomputing everything.
    cold = run_ablation(config, tmp_path / "cold")
    assert report_json(cold) == report_json(report)


def test_e2e_written_report_parses_and_matches(small_report, tmp_path):
    _config, _cache_dir, report = small_report
    json_path, markdown_path = write_report(report, tmp_path / "out")
    payload = json.loads(json_path.read_text())
    assert payload["kind"] == "ablation-report"
    assert payload["scale"] == "quick"
    assert len(payload["components"]) == len(E2E_COMPONENTS)
    ranks = [c["rank"] for c in payload["components"]]
    assert ranks == sorted(ranks)
    importances = [c["importance"] for c in payload["components"]]
    assert importances == sorted(importances, reverse=True)
    assert markdown_path.read_text().startswith("# Ablation report")


# ----------------------------------------------------------------------
# CLIs
# ----------------------------------------------------------------------


def test_cli_rejects_unknown_component_with_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        ablation_main(
            ["--components", "no-noise,bogus", "--cache-dir", str(tmp_path)]
        )
    assert excinfo.value.code == 2  # argparse usage error
    err = capsys.readouterr().err
    assert "unknown component 'bogus'" in err
    for name in component_names():
        assert name in err


def test_cli_rejects_empty_component_list(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        ablation_main(["--components", ",", "--cache-dir", str(tmp_path)])
    assert excinfo.value.code == 2
    assert "at least one component" in capsys.readouterr().err


def test_cli_rejects_unknown_expression(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        ablation_main(
            ["--expressions", "nope", "--cache-dir", str(tmp_path)]
        )
    assert excinfo.value.code == 2
    assert "unknown expression" in capsys.readouterr().err


def test_cli_requires_a_cache_dir(monkeypatch, capsys):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert ablation_main(["--components", "no-noise"]) == 2
    assert "cache-dir" in capsys.readouterr().err


@pytest.mark.parametrize(
    "raw, kind", [("json", "json"), (" JSON ", "json"), ("SQLite", "sqlite")]
)
def test_validated_store_normalizes_known_kinds(raw, kind):
    assert validated_store(raw) == kind


@pytest.mark.parametrize("raw", ["remote", "mongodb", ""])
def test_validated_store_rejects_other_kinds(raw):
    with pytest.raises(
        argparse.ArgumentTypeError, match=r"known: json/sqlite$"
    ):
        validated_store(raw)


@pytest.mark.parametrize(
    "raw, message",
    [
        ("0", "--jobs must be >= 1, got 0"),
        ("-2", "--jobs must be >= 1, got -2"),
        ("2.5", "--jobs takes a positive integer, got '2.5'"),
        ("", "--jobs takes a positive integer, got ''"),
    ],
)
def test_positive_int_names_its_flag(raw, message):
    parse = positive_int("--jobs")
    assert parse("3") == 3
    with pytest.raises(argparse.ArgumentTypeError) as excinfo:
        parse(raw)
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["--jobs", "0"], "--jobs must be >= 1"),
        (["--retries", "none"], "--retries takes a positive integer"),
        (["--store", "remote"], "unknown store 'remote'"),
    ],
)
def test_cli_rejects_bad_counts_and_stores(tmp_path, capsys, argv, fragment):
    with pytest.raises(SystemExit) as excinfo:
        ablation_main(argv + ["--cache-dir", str(tmp_path)])
    assert excinfo.value.code == 2
    assert fragment in capsys.readouterr().err


def test_cli_defaults():
    args = build_parser().parse_args([])
    assert (args.scale, args.seed, args.box) == ("quick", 0, "paper_box")
    assert args.expressions == DEFAULT_EXPRESSIONS
    assert args.components is None
    assert (args.jobs, args.store, args.retries) == (1, "json", 2)
    assert args.report_dir is None


def test_cli_list_components(capsys):
    assert ablation_main(["--list-components"]) == 0
    out = capsys.readouterr().out
    for name in component_names():
        assert name in out


def test_cli_runs_and_writes_reports(tmp_path, capsys):
    report_dir = tmp_path / "reports"
    code = ablation_main(
        [
            "--expressions",
            "aatb",
            "--components",
            "no-interference",
            "--cache-dir",
            str(tmp_path / "store"),
            "--report-dir",
            str(report_dir),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Ablation report" in out
    assert (report_dir / "ablation-report.json").exists()
    assert (report_dir / "ablation-report.md").exists()
