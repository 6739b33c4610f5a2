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


@pytest.mark.parametrize("kind", cache.LOCAL_STORE_KINDS)
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


@pytest.mark.parametrize("kind", cache.LOCAL_STORE_KINDS)
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


@pytest.mark.parametrize("kind", cache.LOCAL_STORE_KINDS)
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
                (store.raw_payload(KEY)[:40], KEY.slug),
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
    with pytest.raises(ValueError, match="unknown store kind"):
        cache.make_store("mongodb", "/tmp/somewhere")


def test_box_knob_is_part_of_config_and_key():
    config = FigureConfig(scale="quick", seed=2, box="wide_box")
    key = config.study_key("chain4")
    assert key == StudyKey("quick", 2, "chain4", box="wide_box")
    assert key.slug == "quick-seed2-chain4-wide_box"
    with pytest.raises(ValueError, match="box"):
        FigureConfig(box="bathtub")
