"""Cloud-side task knowledge base: a versioned, persistent index of task
records plus a global fallback model for unknown tasks.

Store layout (one directory per KB)::

    index.json                 manifest: {"format": 1, "crc32": <crc of body>, "body": {...}}
    models/<key>.<v>.bin       one file per task model, CRC32-checked
    models/_fallback.<kb>.bin  the fallback, named by the KB version it was set at

The manifest body carries the schema fingerprint, the KB version counter,
``job`` (the job's phase document, stored uninterpreted), the fallback's
model file and checksum, and per task the record fields one codec owns
(``_record_to_json``/``_record_from_json``: key, version, status,
attributes, ``stats`` holding the sample count, eval) plus model file and
checksum. ``open`` checks every field it keeps and ignores keys older
stores wrote (a task's stats summary, ``relations``, the fallback's
``revision``); the next commit drops them. Readers refuse a manifest or
snapshot of another ``format``. A transaction writes only the model files
it adds, each in place and fsynced under a name no committed manifest
uses, then pays one durability barrier: it fsyncs ``models/`` once, and
only then replaces the manifest atomically (fsynced temp file, rename =
commit point, fsynced directory). A crash at any point leaves the
previous consistent state intact.
Superseded model files stay on disk but are no longer referenced; only the
latest version per task is retrievable.

There is no delete operation: task knowledge only accumulates.
"""

from __future__ import annotations

import json
import os
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, replace
from hashlib import sha256
from pathlib import Path
from urllib.parse import quote

from .data import _is_int, check_int
from .errors import (
    ConfigError,
    CorruptStoreError,
    LearnerError,
    NothingDeployableError,
    SchemaError,
    SchemaMismatchError,
    SerializationError,
    StoreError,
)
from .learners import (
    EvalMetrics,
    ModelArtifact,
    canonical_json_bytes,
    deserialize_model,
    metrics_from_json,
    metrics_to_json,
    model_from_json,
    model_to_json,
    serialize_model,
)
from .tasks import BucketedAttributes, rank_similar, task_categories, values_key

STATUS_TRAINED = "trained"
STATUS_DEPLOYABLE = "deployable"
STATUS_EVAL_FAILED = "eval_failed"
_STATUSES = (STATUS_TRAINED, STATUS_DEPLOYABLE, STATUS_EVAL_FAILED)

_FORMAT = 1  # of the manifest and of the snapshot payload; readers reject any other
_INDEX_NAME = "index.json"
_MODELS_DIR = "models"


@dataclass(frozen=True)
class TaskRecord:
    """The KB unit of knowledge for one task: its model and the count of
    the task's own samples it was trained on, never the samples."""

    key: str
    attributes: BucketedAttributes
    model: ModelArtifact
    samples: int
    status: str = STATUS_TRAINED
    version: int = 1
    eval: EvalMetrics | None = None

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise StoreError(f"invalid record status {self.status!r}")
        if self.version < 1:
            raise StoreError("record version must be >= 1")
        if self.status == STATUS_DEPLOYABLE and self.eval is None:
            raise StoreError("deployable records must carry eval metrics")


@dataclass(frozen=True)
class SnapshotEntry:
    model: ModelArtifact
    attributes: BucketedAttributes


@dataclass(frozen=True)
class DeploySnapshot:
    """Immutable set of eval-passing task models pushed to edges."""

    snapshot_version: int
    schema_fingerprint: str | None
    tasks: dict[str, SnapshotEntry]
    fallback: ModelArtifact | None


# ---------------------------------------------------------------------------
# JSON codecs for store + snapshot payloads
# ---------------------------------------------------------------------------

def _attrs_to_json(attrs: BucketedAttributes) -> dict:
    return {"values": list(attrs.values), "bucket_counts": list(attrs.bucket_counts)}


def _attrs_from_json(doc: dict) -> BucketedAttributes:
    return BucketedAttributes(tuple(doc["values"]), tuple(doc["bucket_counts"]))


def _record_to_json(record: TaskRecord) -> dict:
    """The manifest fields of a task record: everything but its model, which
    the manifest names by file and checksum."""
    return {"key": record.key, "version": record.version, "status": record.status,
            "attributes": _attrs_to_json(record.attributes),
            "stats": {"count": record.samples}, "eval": metrics_to_json(record.eval)}


def _record_from_json(doc: dict, model: ModelArtifact) -> TaskRecord:
    """Inverse of :func:`_record_to_json`, given the record's model. Checks
    the fields the record's dataclasses do not; ignores other ``stats`` keys."""
    attributes = _attrs_from_json(doc["attributes"])
    if doc["key"] != values_key(attributes.values):  # a string, and the key of its values
        raise StoreError(f"task key {doc['key']!r} is not the key of values {attributes.values!r}")
    check_int("task version", doc["version"], 1)
    check_int("task sample count", doc["stats"]["count"], 1)
    return TaskRecord(doc["key"], attributes, model,
                      doc["stats"]["count"], doc["status"], doc["version"],
                      metrics_from_json(doc["eval"]))


def serialize_snapshot(snapshot: DeploySnapshot) -> bytes:
    """Canonical byte encoding of a deploy snapshot (the push payload)."""
    doc = {
        "format": _FORMAT,
        "snapshot_version": snapshot.snapshot_version,
        "schema_fingerprint": snapshot.schema_fingerprint,
        "tasks": {
            key: {
                "attributes": _attrs_to_json(entry.attributes),
                "model": model_to_json(entry.model),
            }
            for key, entry in snapshot.tasks.items()
        },
        "fallback": (
            model_to_json(snapshot.fallback) if snapshot.fallback is not None else None
        ),
    }
    return canonical_json_bytes(doc)


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def deserialize_snapshot(data: bytes) -> DeploySnapshot:
    try:
        # serialize_snapshot never writes NaN or Infinity
        doc = json.loads(data.decode("utf-8"), parse_constant=_reject_constant)
        if not _is_int(doc["format"]) or doc["format"] != _FORMAT:
            raise SerializationError(f"unsupported snapshot format {doc['format']!r}")
        if not isinstance(doc["tasks"], dict):
            raise ValueError(f"tasks {doc['tasks']!r} is not an object")
        tasks = {
            key: SnapshotEntry(
                model=model_from_json(entry["model"]),
                attributes=_attrs_from_json(entry["attributes"]),
            )
            for key, entry in doc["tasks"].items()
        }
        fallback = None
        if doc["fallback"] is not None:
            fallback = model_from_json(doc["fallback"])
        if not _is_int(doc["snapshot_version"]) or doc["snapshot_version"] < 0:
            raise ValueError(f"snapshot_version must be an integer >= 0, "
                             f"got {doc['snapshot_version']!r}")
        return DeploySnapshot(
            snapshot_version=doc["snapshot_version"],
            schema_fingerprint=doc["schema_fingerprint"],
            tasks=tasks,
            fallback=fallback,
        )
    except SerializationError:
        raise
    except (KeyError, TypeError, ValueError, UnicodeDecodeError) as exc:
        raise SerializationError(f"corrupt snapshot payload: {exc}") from exc


# ---------------------------------------------------------------------------
# Atomic file helpers (separated so tests can inject faults)
# ---------------------------------------------------------------------------

def _replace_file(src: Path, dst: Path) -> None:
    os.replace(src, dst)


def _write_synced(path: Path, data: bytes) -> None:
    """Write *data* to *path* (truncating it) and fsync the file, not its
    directory."""
    with open(path, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())


def _fsync_dir(path: Path) -> None:
    directory = os.open(path, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def _replace_synced(path: Path, data: bytes) -> None:
    """Fsync *data* to a temp file and rename it over *path*."""
    tmp = path.with_name(path.name + ".tmp")
    _write_synced(tmp, data)
    _replace_file(tmp, path)


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Replace *path* with *data* so that a crash leaves the old or the new
    bytes: fsync a temp file, rename it over *path*, fsync the directory."""
    _replace_synced(path, data)
    _fsync_dir(path.parent)


def _model_file_name(key: str, version: int) -> str:
    return f"{quote(key, safe='')}.{version}.bin"


def _fallback_file_name(kb_version: int) -> str:
    return f"_fallback.{kb_version}.bin"


class KnowledgeBase:
    """Versioned persistent index of task records plus the fallback model.

    Every mutation runs in a :meth:`transaction` (alone, it is a
    transaction of one), so an I/O failure or a raise never leaves memory
    ahead of disk. Single-writer: callers serialize mutations; snapshots
    are immutable values safe to share.
    The manifest entry of each live model file comes from ``open`` or from
    the write that created it, so a commit never re-serializes or reads
    back a model it did not change, and each task's manifest bytes are
    re-encoded only when its record or model file changed.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        self.records: dict[str, TaskRecord] = {}
        self.kb_version = 0
        self.schema_fingerprint: str | None = None
        self.fallback: ModelArtifact | None = None
        self._model_files: dict[str, tuple[str, int]] = {}  # key -> (file, crc32)
        self._fallback_file: tuple[str, int] | None = None  # (file, crc32)
        self.job: dict | None = None  # the job's phase document; set it in a transaction
        self._in_transaction = False
        self._models_unsynced = False  # a model file was written since the last barrier
        # key -> (record, (file, crc32), canonical bytes of its manifest entry);
        # an entry is a pure function of its record and file, so a rollback
        # may leave stale entries: they never match a live record again
        self._task_entries: dict[str, tuple[TaskRecord, tuple[str, int], bytes]] = {}

    # -- opening ------------------------------------------------------------

    @classmethod
    def open(cls, path: str | Path) -> "KnowledgeBase":
        kb = cls(Path(path))
        kb.path.mkdir(parents=True, exist_ok=True)
        (kb.path / _MODELS_DIR).mkdir(exist_ok=True)
        index_path = kb.path / _INDEX_NAME
        if not index_path.exists():
            return kb

        raw = index_path.read_bytes()
        try:
            doc = json.loads(raw.decode("utf-8"))
            declared_crc, body, fmt = doc["crc32"], doc["body"], doc["format"]
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
            raise CorruptStoreError(f"corrupt store index {index_path}: {exc}") from exc
        if not _is_int(fmt) or fmt != _FORMAT:
            raise CorruptStoreError(f"corrupt store index {index_path}: "
                                    f"unsupported format {fmt!r}")
        actual_crc = zlib.crc32(canonical_json_bytes(body))
        if actual_crc != declared_crc:
            raise CorruptStoreError(
                f"corrupt store index {index_path}: checksum mismatch "
                f"(declared {declared_crc}, actual {actual_crc})"
            )

        try:  # a body under a valid checksum can still lack keys or have wrong types
            kb.schema_fingerprint = body["schema_fingerprint"]
            kb.kb_version = body["kb_version"]
            check_int("kb_version", kb.kb_version, 0)
            for entry in body["tasks"]:
                model_file = (entry["model_file"], entry["crc32"])
                record = _record_from_json(entry, kb._read_model_file(*model_file))
                first = next(iter(kb.records.values()), record)  # as upsert_task checks
                task_categories(record.key, record.attributes, first.attributes.bucket_counts)
                kb.records[record.key] = record
                kb._model_files[record.key] = model_file
            if body["fallback"] is not None:
                kb._fallback_file = (body["fallback"]["model_file"], body["fallback"]["crc32"])
                kb.fallback = kb._read_model_file(*kb._fallback_file)
            kb.job = body.get("job")
        except CorruptStoreError:
            raise  # a missing or corrupt model file names itself
        except (KeyError, TypeError, ValueError, ConfigError, SchemaError, SchemaMismatchError,
                StoreError, LearnerError) as exc:
            raise CorruptStoreError(f"corrupt store index {index_path}: bad body: {exc!r}") from exc
        return kb

    def _read_model_file(self, name: str, expected_crc: int) -> ModelArtifact:
        path = self.path / _MODELS_DIR / name
        if not path.exists():
            raise CorruptStoreError(f"corrupt store: missing model file {path}")
        data = path.read_bytes()
        if zlib.crc32(data) != expected_crc:
            raise CorruptStoreError(f"corrupt store: checksum mismatch in {path}")
        try:
            return deserialize_model(data)
        except SerializationError as exc:  # UnknownLearnerError included
            raise CorruptStoreError(f"corrupt store: undecodable model file {path}: "
                                    f"{exc}") from exc

    # -- queries ------------------------------------------------------------

    def lookup(self, key: str) -> TaskRecord | None:
        """Exact-match retrieval; returns None when the key is unknown."""
        return self.records.get(key)

    def query_similar(
        self, attrs: BucketedAttributes, k: int
    ) -> list[tuple[TaskRecord, float]]:
        """Top-k records by attribute similarity to *attrs*, descending;
        ties break on the lexicographically smaller key. Zero-similarity
        records are never returned."""
        if k < 1:
            raise StoreError("k must be >= 1")
        ranked = rank_similar(attrs, {key: rec.attributes for key, rec in self.records.items()})
        return [(self.records[key], sim) for key, sim in ranked[:k]]

    def snapshot(self) -> DeploySnapshot:
        """Freeze the deployable records plus the fallback for push to edges."""
        deployable = {
            key: SnapshotEntry(model=rec.model, attributes=rec.attributes)
            for key, rec in self.records.items()
            if rec.status == STATUS_DEPLOYABLE
        }
        if not deployable and self.fallback is None:
            raise NothingDeployableError(
                "nothing deployable: no eval-passing task model and no fallback"
            )
        return DeploySnapshot(
            snapshot_version=self.kb_version,
            schema_fingerprint=self.schema_fingerprint,
            tasks=deployable,
            fallback=self.fallback,
        )

    def fingerprint(self) -> str:
        """Content hash of the full KB state (used for equality checks)."""
        doc = {
            "schema_fingerprint": self.schema_fingerprint,
            "kb_version": self.kb_version,
            "fallback": (
                sha256(serialize_model(self.fallback)).hexdigest()
                if self.fallback is not None
                else None
            ),
            "tasks": [
                {**_record_to_json(rec), "model": sha256(serialize_model(rec.model)).hexdigest()}
                for _, rec in sorted(self.records.items())
            ],
        }
        return sha256(canonical_json_bytes(doc)).hexdigest()

    # -- mutations ----------------------------------------------------------

    @contextmanager
    def transaction(self):
        """Group mutations into one commit: the block ends with one manifest
        replace (new model files are written as they come, under names the
        committed manifest does not use). The manifest rename is the commit
        point: a raise before it returns writes no manifest and restores
        memory to its state at entry; the directory fsync after it may still
        raise, but memory stays at the committed state. Nested blocks join
        the outermost."""
        if self._in_transaction:
            yield
            return
        entry = dict(vars(self))
        self.records, self._model_files = dict(self.records), dict(self._model_files)
        self._in_transaction = True
        try:
            yield
            self._persist()
        except BaseException:
            vars(self).update(entry)
            raise
        finally:
            self._in_transaction = False
        _fsync_dir(self.path)

    def _pin_schema(self, fingerprint: str) -> None:
        if self.schema_fingerprint is None:
            self.schema_fingerprint = fingerprint
        elif self.schema_fingerprint != fingerprint:
            raise SchemaMismatchError(
                f"record schema {fingerprint} does not match KB schema "
                f"{self.schema_fingerprint}"
            )

    def upsert_task(self, record: TaskRecord) -> int:
        """Insert or supersede a task record; returns the new kb_version.

        Re-upserting byte-identical content is a no-op (version unchanged).
        An existing key gets its record version incremented; the superseded
        model file stays on disk unreferenced. A record not bucketed as the
        first task is raises SchemaMismatchError: the store would not open.
        """
        data = serialize_model(record.model)
        existing = self.records.get(record.key)
        if existing is not None:
            if (
                canonical_json_bytes({**_record_to_json(record), "version": existing.version})
                == canonical_json_bytes(_record_to_json(existing))
                and serialize_model(existing.model) == data
            ):
                return self.kb_version
            version = existing.version + 1
        else:
            version = 1
        with self.transaction():
            self._pin_schema(record.model.schema_fingerprint)
            first = next(iter(self.records.values()), record)
            task_categories(record.key, record.attributes, first.attributes.bucket_counts)
            self._model_files[record.key] = self._write_model(
                _model_file_name(record.key, version), data
            )
            self.records[record.key] = replace(record, version=version)
            self.kb_version += 1
        return self.kb_version

    def record_eval(self, key: str, status: str, metrics: EvalMetrics | None) -> int:
        """Apply an evaluation outcome to an existing record. Bumps the KB
        version but not the record version (which counts trainings)."""
        existing = self.records.get(key)
        if existing is None:
            raise StoreError(f"cannot record eval for unknown task {key!r}")
        with self.transaction():
            self.records[key] = replace(existing, status=status, eval=metrics)
            self.kb_version += 1
        return self.kb_version

    def set_fallback(self, model: ModelArtifact) -> int:
        """Replace the unknown-task fallback model; returns the new kb_version."""
        with self.transaction():
            self._pin_schema(model.schema_fingerprint)
            self.kb_version += 1
            # a committed manifest names its fallback by a KB version at most its own
            self._fallback_file = self._write_model(
                _fallback_file_name(self.kb_version), serialize_model(model)
            )
            self.fallback = model
        return self.kb_version

    def save(self) -> None:
        """Rewrite the manifest from the current in-memory state."""
        with self.transaction():
            pass

    # -- persistence --------------------------------------------------------

    def _write_model(self, name: str, data: bytes) -> tuple[str, int]:
        """Write one new model file; returns its (name, crc32) manifest pair.
        No committed manifest names the file, so it is written in place; "wb"
        overwrites a stale file a crashed earlier attempt left under this
        name, or the index checksum would lie."""
        models_dir = self.path / _MODELS_DIR
        models_dir.mkdir(parents=True, exist_ok=True)
        _write_synced(models_dir / name, data)
        self._models_unsynced = True
        return name, zlib.crc32(data)

    def _persist(self) -> None:
        if self._models_unsynced:
            # the one barrier: the new model files' directory entries are
            # durable before a manifest names them
            _fsync_dir(self.path / _MODELS_DIR)
            self._models_unsynced = False
        _replace_synced(self.path / _INDEX_NAME, self._manifest_bytes())

    def _manifest_bytes(self) -> bytes:
        """``canonical_json_bytes`` of the manifest ``{"format": _FORMAT, "crc32":
        <crc of body>, "body": body}``, with the body encoded once. Keys sort
        ``body < crc32 < format``, and ``tasks`` is the body's last key."""
        head = canonical_json_bytes({
            "schema_fingerprint": self.schema_fingerprint,
            "kb_version": self.kb_version,
            "fallback": (
                {"model_file": self._fallback_file[0], "crc32": self._fallback_file[1]}
                if self._fallback_file is not None
                else None
            ),
            "job": self.job,
        })
        tasks = b",".join(self._task_entry(key, rec) for key, rec in sorted(self.records.items()))
        body = head[:-1] + b',"tasks":[' + tasks + b"]}"
        return b'{"body":%s,"crc32":%d,"format":%d}' % (body, zlib.crc32(body), _FORMAT)

    def _task_entry(self, key: str, rec: TaskRecord) -> bytes:
        model_file = self._model_files[key]
        cached = self._task_entries.get(key)
        if cached is None or cached[0] is not rec or cached[1] != model_file:
            entry = canonical_json_bytes(
                {**_record_to_json(rec), "model_file": model_file[0], "crc32": model_file[1]}
            )
            cached = self._task_entries[key] = (rec, model_file, entry)
        return cached[2]


def kb_open(path: str | Path) -> KnowledgeBase:
    """Open (or create) a knowledge base stored in *path*."""
    return KnowledgeBase.open(path)
