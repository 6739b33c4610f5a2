"""``python -m repro.service``: option parsing and how it is wired."""

import pytest

from repro.figures.cache import CACHE_DIR_ENV, STORE_KINDS
from repro.service import __main__ as service_cli
from repro.service.engine import DEFAULT_LRU_CAPACITY


def _parse(argv):
    return service_cli.build_parser().parse_args(argv)


def _usage_error(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        _parse(argv)
    assert excinfo.value.code == 2
    return capsys.readouterr().err


def test_defaults_compute_locally_without_overload_guards():
    args = _parse([])
    assert args.store is None
    assert service_cli._build_store(args) is None
    assert args.lru_capacity == DEFAULT_LRU_CAPACITY
    assert args.deadline_ms is None
    assert args.max_inflight is None
    assert args.discriminant == "hybrid"


@pytest.mark.parametrize("kind", STORE_KINDS)
def test_each_store_kind_opens_over_the_cache_dir(tmp_path, kind):
    args = _parse(["--store", kind, "--cache-dir", str(tmp_path)])
    with service_cli._build_store(args) as store:
        assert store.kind == kind
        assert store.root == tmp_path


@pytest.mark.parametrize("kind", ["remote", "mongodb"])
def test_unknown_store_kinds_are_usage_errors(kind, capsys):
    err = _usage_error(["--store", kind], capsys)
    assert f"invalid choice: '{kind}'" in err


def test_store_needs_a_cache_dir(monkeypatch):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    args = _parse(["--store", "sqlite"])
    with pytest.raises(SystemExit, match="--store sqlite needs --cache-dir"):
        service_cli._build_store(args)


def test_store_falls_back_to_the_cache_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    with service_cli._build_store(_parse(["--store", "json"])) as store:
        assert store.kind == "json"
        assert store.root == tmp_path


def test_retries_is_not_an_option(capsys):
    err = _usage_error(["--retries", "3"], capsys)
    assert "unrecognized arguments: --retries 3" in err


@pytest.mark.parametrize(
    "flag", ["--lru-capacity", "--deadline-ms", "--max-inflight"]
)
@pytest.mark.parametrize(
    "raw, fragment",
    [("0", "must be >= 1, got 0"), ("many", "takes a positive integer")],
)
def test_count_options_take_positive_integers(flag, raw, fragment, capsys):
    err = _usage_error([flag, raw], capsys)
    assert flag in err
    assert fragment in err


def test_main_wires_options_into_the_service(tmp_path, monkeypatch):
    served = {}

    async def serve(service, warm):
        served["service"], served["warm"] = service, warm

    monkeypatch.setattr(service_cli, "_serve", serve)
    assert service_cli.main(
        [
            "--port", "0",
            "--store", "sqlite",
            "--cache-dir", str(tmp_path),
            "--lru-capacity", "3",
            "--deadline-ms", "250",
            "--max-inflight", "4",
            "--discriminant", "min-flops",
            "--warm", "aatb", "chain4",
        ]
    ) == 0
    service = served["service"]
    assert served["warm"] == ["aatb", "chain4"]
    assert service.deadline == 0.25
    assert service.max_inflight == 4
    engine = service.engine
    assert engine.default_discriminant == "min-flops"
    assert engine.studies.lru.capacity == 3
    assert engine.studies.store.kind == "sqlite"
    # main closes the store once the service is done.
    assert engine.studies.store._conn is None


def test_main_turns_a_bad_discriminant_into_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        service_cli.main(["--discriminant", "coin-flip"])
    assert excinfo.value.code == 2
    assert "unknown default discriminant 'coin-flip'" in (
        capsys.readouterr().err
    )
