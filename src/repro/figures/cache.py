"""Study stores: the shared on-disk layer of the study cache.

A computed :class:`repro.figures.common.Study` is fully determined by
its :class:`StudyKey` ``(scale, seed, expression, box, variant)`` —
the backend is deterministic and the experiment drivers are seeded —
so its results can be persisted and reloaded across processes.  With
``REPRO_CACHE_DIR`` set, regenerating an artefact a second time
(another pytest-benchmark process, a CI re-run, a notebook restart, a
:mod:`repro.runner` worker) costs one store read instead of the whole
experiment pipeline.

Persistence goes through the :class:`StudyStore` interface with two
backends (pick with ``REPRO_CACHE_STORE``):

* :class:`JsonDirectoryStore` (``json``, the default) — one versioned
  JSON file per study.  Writes are atomic (temp file + ``os.replace``),
  so concurrent regenerations never observe a torn file; two racing
  writers of the same deterministic study simply replace one valid
  payload with an identical one.
* :class:`SqliteStudyStore` (``sqlite``) — one WAL-mode SQLite
  database, one row per study key.  A fleet of
  :class:`repro.runner.StudyRunner` workers shares it without
  per-file races: readers never block, writers serialize on SQLite's
  write lock with a generous busy timeout.

Both backends move *canonical payload text* — the base class
implements ``load``/``save`` on top of ``load_text``/``save_text``
plus the shared codec — which is what keeps payloads byte-identical
whichever backend carried them.

The schema version participates in the store location (filename /
database name) and the payload: bump :data:`SCHEMA_VERSION` whenever
the serialized shape *or the semantics of the pipeline that produced
it* change, and stale entries are simply never read again.  JSON
round-trips Python floats exactly (``repr`` shortest-float), so a
loaded study is bit-for-bit the study that was saved — and because
serialization is canonical (sorted nothing, insertion order, fixed
separators), any two processes that computed the same study persist
byte-identical payloads.

Loads and saves are best-effort: a missing, truncated, or
version-mismatched entry silently falls back to recomputation, and an
unwritable store degrades to a no-op rather than failing the pipeline.
"""

from __future__ import annotations

import argparse
import json
import os
import sqlite3
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.analysis.confusion import ConfusionMatrix
from repro.core.classify import Verdict
from repro.experiments.prediction import Prediction, PredictionRecord
from repro.experiments.random_search import Anomaly, SearchResult
from repro.experiments.regions import DimExtent, Region, RegionCell, Regions

#: Bump when the payload layout or the producing pipeline changes.
#: v2: study keys (and payloads) carry the search ``box`` name.
SCHEMA_VERSION = 2

#: Environment variable naming the cache directory; unset disables
#: the disk layer.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable selecting the store backend (``json`` default).
CACHE_STORE_ENV = "REPRO_CACHE_STORE"

#: Valid values of :data:`CACHE_STORE_ENV`.
STORE_KINDS = ("json", "sqlite")


@dataclass(frozen=True, order=True)
class StudyKey:
    """Everything that determines one study's results.

    ``variant`` (a named ablation modification of the pipeline, see
    :data:`repro.ablation.components.STUDY_VARIANTS`) participates only
    when it is not the default: default slugs and payloads are exactly
    the pre-ablation ones, so every existing store entry stays valid
    and the sha256-pinned payload tests hold with the axis present.
    """

    scale: str
    seed: int
    expression: str
    box: str = "paper_box"
    variant: str = "default"

    @property
    def slug(self) -> str:
        slug = f"{self.scale}-seed{self.seed}-{self.expression}-{self.box}"
        if self.variant != "default":
            slug += f"-ablate-{self.variant}"
        return slug


def cache_dir_from_env() -> Optional[Path]:
    value = os.environ.get(CACHE_DIR_ENV, "").strip()
    return Path(value) if value else None


def store_kind_from_env() -> str:
    value = os.environ.get(CACHE_STORE_ENV, "").strip().lower()
    if not value:
        return STORE_KINDS[0]
    if value not in STORE_KINDS:
        raise ValueError(
            f"{CACHE_STORE_ENV} must be one of {'/'.join(STORE_KINDS)}, "
            f"got {value!r}"
        )
    return value


def validated_store(kind: str) -> str:
    """An argparse type for ``--store``: a typo in the store kind is a
    usage error, not a per-study failure from inside a worker process."""
    normalized = kind.strip().lower()
    if normalized not in STORE_KINDS:
        raise argparse.ArgumentTypeError(
            f"unknown store {kind!r}; known: {'/'.join(STORE_KINDS)}"
        )
    return normalized


def positive_int(flag: str):
    """An argparse type: a positive integer, or a usage error naming
    ``flag``.  The runner, ablation and service CLIs share it."""

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{flag} takes a positive integer, got {raw!r}"
            ) from None
        if value < 1:
            raise argparse.ArgumentTypeError(
                f"{flag} must be >= 1, got {value}"
            )
        return value

    return parse


def study_path(cache_dir: Path, key: StudyKey) -> Path:
    return cache_dir / f"study-v{SCHEMA_VERSION}-{key.slug}.json"


# ----------------------------------------------------------------------
# Serialization (plain dict/list payloads, exact float round-trip)
# ----------------------------------------------------------------------


def _verdict_to_payload(verdict: Verdict) -> dict:
    return {
        "is_anomaly": verdict.is_anomaly,
        "time_score": verdict.time_score,
        "flop_score": verdict.flop_score,
        "threshold": verdict.threshold,
        "cheapest": list(verdict.cheapest),
        "fastest": list(verdict.fastest),
    }


def _verdict_from_payload(payload: dict) -> Verdict:
    return Verdict(
        is_anomaly=bool(payload["is_anomaly"]),
        time_score=float(payload["time_score"]),
        flop_score=float(payload["flop_score"]),
        threshold=float(payload["threshold"]),
        cheapest=tuple(payload["cheapest"]),
        fastest=tuple(payload["fastest"]),
    )


def _search_to_payload(search: SearchResult) -> dict:
    return {
        "expression": search.expression,
        "threshold": search.threshold,
        "n_samples": search.n_samples,
        "anomalies": [
            {
                "instance": list(anomaly.instance),
                "verdict": _verdict_to_payload(anomaly.verdict),
            }
            for anomaly in search.anomalies
        ],
    }


def _search_from_payload(payload: dict) -> SearchResult:
    return SearchResult(
        expression=payload["expression"],
        threshold=float(payload["threshold"]),
        n_samples=int(payload["n_samples"]),
        anomalies=tuple(
            Anomaly(
                instance=tuple(int(v) for v in entry["instance"]),
                verdict=_verdict_from_payload(entry["verdict"]),
            )
            for entry in payload["anomalies"]
        ),
    )


def _regions_to_payload(regions: Regions) -> dict:
    return {
        "expression": regions.expression,
        "threshold": regions.threshold,
        "n_dims": regions.n_dims,
        "regions": [
            {
                "origin": list(region.origin),
                "extents": [
                    [extent.dim, extent.lo, extent.hi]
                    for extent in region.extents.values()
                ],
            }
            for region in regions.regions
        ],
        "cells": [
            [list(cell.instance), cell.time_score, cell.is_anomaly]
            for cell in regions.cells
        ],
    }


def _regions_from_payload(payload: dict) -> Regions:
    return Regions(
        expression=payload["expression"],
        threshold=float(payload["threshold"]),
        n_dims=int(payload["n_dims"]),
        regions=tuple(
            Region(
                origin=tuple(int(v) for v in entry["origin"]),
                extents={
                    int(dim): DimExtent(dim=int(dim), lo=int(lo), hi=int(hi))
                    for dim, lo, hi in entry["extents"]
                },
            )
            for entry in payload["regions"]
        ),
        cells=tuple(
            RegionCell(
                instance=tuple(int(v) for v in instance),
                time_score=float(time_score),
                is_anomaly=bool(is_anomaly),
            )
            for instance, time_score, is_anomaly in payload["cells"]
        ),
    )


def _prediction_to_payload(prediction: Prediction) -> dict:
    return {
        "expression": prediction.expression,
        "threshold": prediction.threshold,
        "records": [
            [
                list(record.instance),
                record.actual_anomaly,
                record.predicted_anomaly,
                record.actual_score,
                record.predicted_score,
            ]
            for record in prediction.records
        ],
    }


def _prediction_from_payload(payload: dict) -> Prediction:
    return Prediction(
        expression=payload["expression"],
        threshold=float(payload["threshold"]),
        records=tuple(
            PredictionRecord(
                instance=tuple(int(v) for v in instance),
                actual_anomaly=bool(actual),
                predicted_anomaly=bool(predicted),
                actual_score=float(actual_score),
                predicted_score=float(predicted_score),
            )
            for instance, actual, predicted, actual_score, predicted_score
            in payload["records"]
        ),
    )


def _confusion_to_payload(matrix: ConfusionMatrix) -> dict:
    return {
        "true_positive": matrix.true_positive,
        "false_positive": matrix.false_positive,
        "false_negative": matrix.false_negative,
        "true_negative": matrix.true_negative,
    }


def _confusion_from_payload(payload: dict) -> ConfusionMatrix:
    return ConfusionMatrix(
        true_positive=int(payload["true_positive"]),
        false_positive=int(payload["false_positive"]),
        false_negative=int(payload["false_negative"]),
        true_negative=int(payload["true_negative"]),
    )


# ----------------------------------------------------------------------
# Canonical study codec (shared by every store backend)
# ----------------------------------------------------------------------


def encode_study(
    key: StudyKey,
    search: SearchResult,
    regions: Regions,
    prediction: Prediction,
    confusion: ConfusionMatrix,
) -> str:
    """One study as canonical JSON text.

    Fixed field order + fixed separators: two processes that computed
    the same deterministic study encode byte-identical text, whichever
    store backend (or worker) persists it.
    """
    payload = {
        "schema": SCHEMA_VERSION,
        "scale": key.scale,
        "seed": key.seed,
        "expression": key.expression,
        "box": key.box,
    }
    if key.variant != "default":
        # Conditional so default payloads stay byte-identical to every
        # pre-ablation store entry (and the pinned shas).
        payload["variant"] = key.variant
    payload.update(
        {
            "search": _search_to_payload(search),
            "regions": _regions_to_payload(regions),
            "prediction": _prediction_to_payload(prediction),
            "confusion": _confusion_to_payload(confusion),
        }
    )
    return json.dumps(payload, separators=(",", ":"))


def decode_study(text: str, key: StudyKey) -> Optional[dict]:
    """Parse and validate study text; None on any mismatch.

    A payload carrying a ``schedule`` field is a study of a machine
    that reordered plan steps, a pipeline that no longer exists; older
    writers could file one under a default key, so it is always a miss.
    """
    try:
        payload = json.loads(text)
        if not isinstance(payload, dict) or (
            payload.get("schema") != SCHEMA_VERSION
            or payload.get("scale") != key.scale
            or payload.get("seed") != key.seed
            or payload.get("expression") != key.expression
            or payload.get("box") != key.box
            or "schedule" in payload
            or payload.get("variant", "default") != key.variant
        ):
            return None
        return {
            "search": _search_from_payload(payload["search"]),
            "regions": _regions_from_payload(payload["regions"]),
            "prediction": _prediction_from_payload(payload["prediction"]),
            "confusion": _confusion_from_payload(payload["confusion"]),
        }
    except (ValueError, KeyError, TypeError, AttributeError):
        return None


# ----------------------------------------------------------------------
# Store backends
# ----------------------------------------------------------------------


class StudyStore:
    """Keyed persistence for study results; load misses return None.

    Implementations must be safe for many concurrent processes: a
    reader never observes a torn payload, and racing writers of the
    same key leave exactly one valid payload behind.  All operations
    are best-effort — storage failures degrade to cache misses, never
    to pipeline errors.

    Backends implement the *text* primitives (``load_text`` /
    ``save_text``); ``load``/``save`` are the canonical codec layered
    on top.
    """

    kind: str = ""

    def load_text(self, key: StudyKey) -> Optional[str]:
        """The stored canonical payload text, or None on a miss."""
        raise NotImplementedError

    def save_text(self, key: StudyKey, text: str) -> None:
        """Persist canonical payload text (best-effort)."""
        raise NotImplementedError

    def load(self, key: StudyKey) -> Optional[dict]:
        text = self.load_text(key)
        return None if text is None else decode_study(text, key)

    def save(
        self,
        key: StudyKey,
        search: SearchResult,
        regions: Regions,
        prediction: Prediction,
        confusion: ConfusionMatrix,
    ) -> None:
        self.save_text(
            key, encode_study(key, search, regions, prediction, confusion)
        )

    def close(self) -> None:
        pass

    def __enter__(self) -> "StudyStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class JsonDirectoryStore(StudyStore):
    """Versioned JSON files, one per study, atomically replaced.

    The write goes to a ``mkstemp`` temp file in the same directory and
    lands via ``os.replace``, which is atomic on POSIX and Windows —
    concurrent readers see either no file, the old payload, or the new
    payload, never a prefix.
    """

    kind = "json"

    def __init__(self, root: Path) -> None:
        self.root = Path(root)

    def path_for(self, key: StudyKey) -> Path:
        return study_path(self.root, key)

    def load_text(self, key: StudyKey) -> Optional[str]:
        try:
            return self.path_for(key).read_text()
        except (OSError, UnicodeDecodeError):
            return None

    def save_text(self, key: StudyKey, text: str) -> None:
        path = self.path_for(key)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=str(self.root), prefix=path.name, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(text)
                os.replace(tmp_name, path)
            except BaseException:
                os.unlink(tmp_name)
                raise
        except OSError:
            return


class SqliteStudyStore(StudyStore):
    """One WAL-mode SQLite database, one row per study key.

    WAL lets any number of readers proceed while a writer commits;
    writers serialize on the database write lock with a 30 s busy
    timeout, so a fleet of runner workers can share one store without
    the per-file open/replace races of a directory layout.  Saves are
    idempotent upserts — the deterministic pipeline means two workers
    racing on one key write identical payloads.
    """

    kind = "sqlite"
    DB_NAME = f"studies-v{SCHEMA_VERSION}.sqlite"

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self._conn: Optional[sqlite3.Connection] = None

    @property
    def db_path(self) -> Path:
        return self.root / self.DB_NAME

    def _connect(self) -> Optional[sqlite3.Connection]:
        if self._conn is not None:
            return self._conn
        conn = None
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(str(self.db_path), timeout=30.0)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            with conn:
                conn.execute(
                    "CREATE TABLE IF NOT EXISTS studies ("
                    "skey TEXT PRIMARY KEY, payload TEXT NOT NULL)"
                )
        except (sqlite3.Error, OSError):
            if conn is not None:
                conn.close()
            return None
        self._conn = conn
        return conn

    def load_text(self, key: StudyKey) -> Optional[str]:
        conn = self._connect()
        if conn is None:
            return None
        try:
            row = conn.execute(
                "SELECT payload FROM studies WHERE skey = ?", (key.slug,)
            ).fetchone()
        except sqlite3.Error:
            return None
        return None if row is None else row[0]

    def save_text(self, key: StudyKey, text: str) -> None:
        conn = self._connect()
        if conn is None:
            return
        try:
            with conn:
                conn.execute(
                    "INSERT INTO studies (skey, payload) VALUES (?, ?) "
                    "ON CONFLICT(skey) DO UPDATE SET payload = excluded.payload",
                    (key.slug, text),
                )
        except sqlite3.Error:
            return

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            finally:
                self._conn = None


_STORE_CLASSES = {"json": JsonDirectoryStore, "sqlite": SqliteStudyStore}


def make_store(kind: str, cache_dir: Union[str, Path]) -> StudyStore:
    """Instantiate a store backend by name over its cache directory."""
    store_class = _STORE_CLASSES.get(kind)
    if store_class is None:
        raise ValueError(
            f"unknown store kind {kind!r}; known: {'/'.join(STORE_KINDS)}"
        )
    return store_class(cache_dir)


def store_from_env() -> Optional[StudyStore]:
    """The store selected by ``REPRO_CACHE_DIR``/``REPRO_CACHE_STORE``.

    None when no cache directory is configured; raises ``ValueError``
    on an invalid store kind (the benchmark conftest turns that into a
    usage error before any pipeline runs).
    """
    cache_dir = cache_dir_from_env()
    if cache_dir is None:
        return None
    return make_store(store_kind_from_env(), cache_dir)
