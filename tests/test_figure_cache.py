"""On-disk study stores: exact round-trip and graceful degradation."""

import json
import os

import pytest

from repro.figures import cache
from repro.figures.cache import JsonDirectoryStore, SqliteStudyStore, StudyKey
from repro.figures.common import FigureConfig, clear_study_cache, study_for

KEY = StudyKey(scale="quick", seed=0, expression="aatb")


@pytest.fixture
def computed_study():
    clear_study_cache()
    try:
        yield study_for(FigureConfig(scale="quick", seed=0), "aatb")
    finally:
        clear_study_cache()


def _save(store, study, key=KEY):
    store.save(
        key, study.search, study.regions, study.prediction, study.confusion
    )


@pytest.mark.parametrize("kind", cache.STORE_KINDS)
def test_payload_round_trip_is_exact(tmp_path, computed_study, kind):
    study = computed_study
    with cache.make_store(kind, tmp_path) as store:
        _save(store, study)
        loaded = store.load(KEY)
    assert loaded is not None
    # Dataclass equality is deep and includes every float bit-for-bit:
    # JSON uses shortest-repr floats, which round-trip exactly.
    assert loaded["search"] == study.search
    assert loaded["regions"] == study.regions
    assert loaded["prediction"] == study.prediction
    assert loaded["confusion"] == study.confusion


@pytest.mark.parametrize("kind", cache.STORE_KINDS)
def test_study_for_uses_disk_store_across_process_caches(
    tmp_path, computed_study, monkeypatch, kind
):
    study = computed_study
    with cache.make_store(kind, tmp_path) as store:
        _save(store, study)
    monkeypatch.setenv(cache.CACHE_DIR_ENV, str(tmp_path))
    monkeypatch.setenv(cache.CACHE_STORE_ENV, kind)
    clear_study_cache()  # simulate a fresh process
    try:
        reloaded = study_for(FigureConfig(scale="quick", seed=0), "aatb")
    finally:
        clear_study_cache()
    assert reloaded.search == study.search
    assert reloaded.regions == study.regions
    assert reloaded.prediction == study.prediction
    assert reloaded.confusion == study.confusion


def test_key_mismatch_and_corruption_fall_back_to_none(
    tmp_path, computed_study
):
    study = computed_study
    store = JsonDirectoryStore(tmp_path)
    _save(store, study)
    # Wrong key coordinates → miss, not a crash.
    assert store.load(StudyKey("quick", 1, "aatb")) is None
    assert store.load(StudyKey("full", 0, "aatb")) is None
    assert store.load(StudyKey("quick", 0, "aatb", box="wide_box")) is None
    # Tampered schema field → rejected.
    path = store.path_for(KEY)
    payload = json.loads(path.read_text())
    payload["schema"] = cache.SCHEMA_VERSION + 1
    path.write_text(json.dumps(payload))
    assert store.load(KEY) is None
    # Truncated file → rejected.
    path.write_text(path.read_text()[:40])
    assert store.load(KEY) is None
    # Non-UTF-8 bytes (disk corruption) → rejected, not raised.
    path.write_bytes(b"\xff\xfe not json \x80")
    assert store.load(KEY) is None
    # Unreadable directory → save is best-effort, load misses.
    missing = JsonDirectoryStore(tmp_path / "does-not-exist-file" / "nested")
    assert missing.load(KEY) is None


@pytest.mark.parametrize("kind", cache.STORE_KINDS)
def test_payload_with_a_schedule_field_is_a_miss(
    tmp_path, computed_study, kind
):
    # Older writers could file a reordered-schedule study under a
    # default key; the field alone, whatever its value, marks such a
    # payload as stale.
    with cache.make_store(kind, tmp_path) as store:
        _save(store, computed_study)
        payload = json.loads(store.load_text(KEY))
        payload["schedule"] = "reordered"
        store.save_text(KEY, json.dumps(payload, separators=(",", ":")))
        assert store.load(KEY) is None


def _set(path, value):
    """An edit setting the payload field at ``path`` to ``value``."""

    def edit(payload):
        *parents, leaf = path
        target = payload
        for name in parents:
            target = target[name]
        target[leaf] = value
        return payload

    return edit


#: One edit per guard of ``decode_study``: each turns KEY's valid
#: payload into a miss.
DECODE_MISSES = {
    "schema": _set(["schema"], cache.SCHEMA_VERSION + 1),
    "scale": _set(["scale"], "full"),
    "seed": _set(["seed"], 1),
    "expression": _set(["expression"], "chain4"),
    "box": _set(["box"], "wide_box"),
    "variant": _set(["variant"], "no-noise"),
    "bad-number": _set(["confusion", "true_positive"], "many"),
    "wrong-shape": _set(["regions", "cells"], 5),
    "not-an-object": lambda payload: [payload],
    "missing-section": lambda payload: {
        name: value for name, value in payload.items() if name != "confusion"
    },
}


@pytest.mark.parametrize(
    "edit", DECODE_MISSES.values(), ids=DECODE_MISSES.keys()
)
def test_decode_study_rejects_each_mismatch(computed_study, edit):
    study = computed_study
    text = cache.encode_study(
        KEY, study.search, study.regions, study.prediction, study.confusion
    )
    assert cache.decode_study(text, KEY) is not None
    assert cache.decode_study(json.dumps(edit(json.loads(text))), KEY) is None


def test_sqlite_store_rejects_mismatched_and_tampered_rows(
    tmp_path, computed_study
):
    study = computed_study
    with SqliteStudyStore(tmp_path) as store:
        _save(store, study)
        assert store.load(StudyKey("quick", 1, "aatb")) is None
        assert (
            store.load(StudyKey("quick", 0, "aatb", box="wide_box")) is None
        )
        # Tamper the stored payload text → rejected, not crashed.
        conn = store._connect()
        with conn:
            conn.execute(
                "UPDATE studies SET payload = ? WHERE skey = ?",
                (store.load_text(KEY)[:40], KEY.slug),
            )
        assert store.load(KEY) is None
    # A store over an unwritable root degrades to a no-op.
    broken = SqliteStudyStore(tmp_path / "file-not-dir" / "nested")
    (tmp_path / "file-not-dir").write_text("in the way")
    _save(broken, study)
    assert broken.load(KEY) is None


def test_env_knobs_control_disk_layer(monkeypatch):
    monkeypatch.delenv(cache.CACHE_DIR_ENV, raising=False)
    monkeypatch.delenv(cache.CACHE_STORE_ENV, raising=False)
    assert cache.cache_dir_from_env() is None
    assert cache.store_from_env() is None
    monkeypatch.setenv(cache.CACHE_DIR_ENV, "  ")
    assert cache.cache_dir_from_env() is None
    monkeypatch.setenv(cache.CACHE_DIR_ENV, "/tmp/somewhere")
    assert str(cache.cache_dir_from_env()) == "/tmp/somewhere"
    key = StudyKey("quick", 3, "aatb")
    assert os.path.basename(
        str(cache.study_path(cache.cache_dir_from_env(), key))
    ) == f"study-v{cache.SCHEMA_VERSION}-quick-seed3-aatb-paper_box.json"
    # Store-kind selection: default json, explicit sqlite, junk rejected.
    assert isinstance(cache.store_from_env(), JsonDirectoryStore)
    monkeypatch.setenv(cache.CACHE_STORE_ENV, "SQLite")
    assert isinstance(cache.store_from_env(), SqliteStudyStore)
    monkeypatch.setenv(cache.CACHE_STORE_ENV, "mongodb")
    with pytest.raises(ValueError, match=cache.CACHE_STORE_ENV):
        cache.store_from_env()
    with pytest.raises(ValueError, match="unknown store kind.*json/sqlite$"):
        cache.make_store("mongodb", "/tmp/somewhere")


@pytest.mark.parametrize("kind", cache.STORE_KINDS)
def test_make_store_builds_each_kind(tmp_path, kind):
    store_class = {"json": JsonDirectoryStore, "sqlite": SqliteStudyStore}
    with cache.make_store(kind, tmp_path) as store:
        assert type(store) is store_class[kind]
        assert store.kind == kind
        assert store.root == tmp_path


@pytest.mark.parametrize("kind", ["remote", ""])
def test_make_store_rejects_unknown_kinds(tmp_path, kind):
    with pytest.raises(
        ValueError, match=f"unknown store kind '{kind}'; known: json/sqlite"
    ):
        cache.make_store(kind, tmp_path)


@pytest.mark.parametrize(
    "raw, kind", [("  ", "json"), (" JSON ", "json"), ("sqlite\n", "sqlite")]
)
def test_store_kind_env_is_trimmed_and_case_insensitive(
    monkeypatch, raw, kind
):
    monkeypatch.setenv(cache.CACHE_STORE_ENV, raw)
    assert cache.store_kind_from_env() == kind


def test_store_kind_env_rejects_remote(monkeypatch):
    monkeypatch.setenv(cache.CACHE_STORE_ENV, "remote")
    with pytest.raises(ValueError, match="must be one of json/sqlite"):
        cache.store_kind_from_env()


@pytest.mark.parametrize("kind", cache.STORE_KINDS)
def test_text_round_trip_is_verbatim(tmp_path, kind):
    text = '{"x":[1.5e-300,0.1],"y":"a b"}'
    with cache.make_store(kind, tmp_path) as store:
        assert store.load_text(KEY) is None
        store.save_text(KEY, text)
        assert store.load_text(KEY) == text
        store.save_text(KEY, "replaced")
        assert store.load_text(KEY) == "replaced"
        assert store.load_text(StudyKey("quick", 1, "aatb")) is None


def test_json_store_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    store = JsonDirectoryStore(tmp_path)
    store.save_text(KEY, "first")

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cache.os, "replace", refuse)
    store.save_text(KEY, "second")  # best-effort: no exception
    monkeypatch.undo()
    assert store.load_text(KEY) == "first"
    assert [p.name for p in tmp_path.iterdir()] == [store.path_for(KEY).name]


def test_sqlite_store_reconnects_after_close(tmp_path):
    store = SqliteStudyStore(tmp_path)
    store.save_text(KEY, "payload")
    store.close()
    store.close()  # closing twice is harmless
    assert store.load_text(KEY) == "payload"  # reconnects on demand
    store.close()
    assert store.db_path == tmp_path / f"studies-v{cache.SCHEMA_VERSION}.sqlite"


def test_box_knob_is_part_of_config_and_key():
    config = FigureConfig(scale="quick", seed=2, box="wide_box")
    key = config.study_key("chain4")
    assert key == StudyKey("quick", 2, "chain4", box="wide_box")
    assert key.slug == "quick-seed2-chain4-wide_box"
    with pytest.raises(ValueError, match="box"):
        FigureConfig(box="bathtub")
