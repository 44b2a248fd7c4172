"""Cloud-side task knowledge base: a versioned, persistent index of task
records plus a global fallback model for unknown tasks.

Store layout (one directory per KB)::

    index.json                 manifest: {"format": 2, "crc32": <crc of body>, "body": {...}}
    models/<key>.<v>.bin       one file per task model, CRC32-checked
    models/_fallback.<kb>.bin  the fallback, named by the KB version it was set at

The manifest body carries the store's ``shape`` (the schema fingerprint,
label classes and feature count of its models and each attribute column's
bucket edges, set by :meth:`KnowledgeBase.declare_shape`), the KB version
counter, ``job`` (the job's phase document, stored uninterpreted), the
fallback's KB version and checksum, and per task the record fields one codec
owns (``_record_to_json``/``_record_from_json``) plus its model's checksum.
File names are derived, never stored. ``open`` decodes the manifest and
every model file with :func:`~edgelearn.learners.decode_json`, checks every
field it keeps, refuses a task key listed twice and runs the store gate on
every record and the fallback against the shape. It ignores keys it does not
read, and opens a format-1 manifest (see ``_open_format_1``). Readers refuse
a manifest or snapshot of any other ``format``. A transaction writes only
the model files it adds, each in place and fsynced under a name no committed
manifest uses, then pays one durability barrier: it fsyncs ``models/`` once,
and only then replaces the manifest atomically (fsynced temp file, rename =
commit point, fsynced directory). A crash at any point leaves the previous
consistent state intact.
Superseded model files stay on disk but are no longer referenced; only the
latest version per task is retrievable.

There is no delete operation: task knowledge only accumulates.
"""

from __future__ import annotations

import os
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, replace
from hashlib import sha256
from pathlib import Path
from urllib.parse import quote

from .data import DatasetSchema, _is_int, bucket_edges, check_int
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
    check_model,
    decode_json,
    deserialize_model,
    metrics_from_json,
    metrics_to_json,
    model_from_json,
    model_to_json,
    serialize_model,
)
from .tasks import BucketedAttributes, BucketingConfig, task_categories

STATUS_TRAINED = "trained"
STATUS_DEPLOYABLE = "deployable"
STATUS_EVAL_FAILED = "eval_failed"
_STATUSES = (STATUS_TRAINED, STATUS_DEPLOYABLE, STATUS_EVAL_FAILED)

_FORMAT = 1  # of the snapshot payload; readers reject any other
_MANIFEST_FORMAT = 2  # open also reads format 1 (see _open_format_1)
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
    the manifest checksums, and its bucket counts, which the shape gives."""
    return {"key": record.key, "version": record.version, "status": record.status,
            "values": list(record.attributes.values),
            "stats": {"count": record.samples}, "eval": metrics_to_json(record.eval)}


def _record_from_json(doc: dict, attributes: BucketedAttributes,
                      model: ModelArtifact) -> TaskRecord:
    """Inverse of :func:`_record_to_json`, given the record's checked attributes
    and its model; checks the sample count. Ignores other ``stats`` keys."""
    check_int("task sample count", doc["stats"]["count"], 1)
    return TaskRecord(doc["key"], attributes, model,
                      doc["stats"]["count"], doc["status"], doc["version"],
                      metrics_from_json(doc["eval"]))


def _shape(schema_fingerprint, classes, n_features, edges) -> tuple[dict, tuple]:
    """A store's shape document and its gate, ``((fingerprint, classes,
    n_features), bucket counts)``; ValueError if the parts are not a shape."""
    check_int("shape n_features", n_features, 1)
    if not (isinstance(schema_fingerprint, str) and isinstance(classes, (list, tuple))
            and all(isinstance(c, str) for c in classes)):
        raise ValueError(f"shape of fingerprint {schema_fingerprint!r} and classes {classes!r}")
    edges = tuple(e if e is None else bucket_edges(e) for e in edges)
    doc = {"schema_fingerprint": schema_fingerprint, "classes": list(classes),
           "n_features": n_features, "edges": [e if e is None else list(e) for e in edges]}
    return doc, ((schema_fingerprint, tuple(classes), n_features),
                 BucketingConfig(edges).bucket_counts)


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


def deserialize_snapshot(data: bytes) -> DeploySnapshot:
    try:
        doc = decode_json(data, "snapshot payload")
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
        fallback = None if doc["fallback"] is None else model_from_json(doc["fallback"])
        check_int("snapshot_version", doc["snapshot_version"], 0)
        return DeploySnapshot(snapshot_version=doc["snapshot_version"], tasks=tasks,
                              schema_fingerprint=doc["schema_fingerprint"], fallback=fallback)
    except (KeyError, TypeError, ValueError, ConfigError) as exc:  # not a SerializationError
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
    The checksum of each live model file comes from ``open`` or from the
    write that created it, so a commit never re-serializes or reads back a
    model it did not change, and each task's manifest bytes are re-encoded
    only when its record or model file changed.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        self.records: dict[str, TaskRecord] = {}
        self.kb_version = 0
        self.shape: dict | None = None  # the manifest's shape document; see declare_shape
        self._gate: tuple | None = None  # ((fingerprint, classes, n_features), bucket counts)
        self.fallback: ModelArtifact | None = None
        self._model_crcs: dict[str, int] = {}  # key -> crc32 of its model file
        self._fallback_file: tuple[int, int] | None = None  # (KB version set at, crc32)
        self.job: dict | None = None  # the job's phase document; set it in a transaction
        self._in_transaction = False
        self._models_unsynced = False  # a model file was written since the last barrier
        # key -> (record, crc32, canonical bytes of its manifest entry); an
        # entry is a pure function of its record and checksum, so a rollback
        # may leave stale entries: they never match a live record again
        self._task_entries: dict[str, tuple[TaskRecord, int, bytes]] = {}

    @property
    def schema_fingerprint(self) -> str | None:  # of the models the store holds, if known
        return None if self._gate is None else self._gate[0][0]

    # -- opening ------------------------------------------------------------

    @classmethod
    def open(cls, path: str | Path, create: bool = True) -> "KnowledgeBase":
        kb = cls(Path(path))
        if create:
            kb.path.mkdir(parents=True, exist_ok=True)
            (kb.path / _MODELS_DIR).mkdir(exist_ok=True)
        elif not kb.path.is_dir():
            raise StoreError(f"no knowledge base at {kb.path}: not a directory")
        index_path = kb.path / _INDEX_NAME
        if not index_path.exists():
            return kb

        try:
            doc = decode_json(index_path.read_bytes(), "JSON")
            declared_crc, body, fmt = doc["crc32"], doc["body"], doc["format"]
        except (SerializationError, KeyError, TypeError) as exc:
            raise CorruptStoreError(f"corrupt store index {index_path}: {exc}") from exc
        if not _is_int(fmt) or fmt not in (1, _MANIFEST_FORMAT):
            raise CorruptStoreError(f"corrupt store index {index_path}: "
                                    f"unsupported format {fmt!r}")
        actual_crc = zlib.crc32(canonical_json_bytes(body))
        if actual_crc != declared_crc:
            raise CorruptStoreError(
                f"corrupt store index {index_path}: checksum mismatch "
                f"(declared {declared_crc}, actual {actual_crc})"
            )

        try:  # a body under a valid checksum can still lack keys or have wrong types
            kb.kb_version = body["kb_version"]
            check_int("kb_version", kb.kb_version, 0)
            if fmt == 1:
                tasks, fallback = kb._open_format_1(body)
            else:
                tasks, fallback, shape = body["tasks"], body["fallback"], body["shape"]
                kb.shape, kb._gate = (None, None) if shape is None else _shape(**shape)
            if kb._gate is None and (tasks or fallback is not None):
                kb._require_shape()  # a store that holds a model declares a shape
            for entry in tasks:
                key, counts = entry["key"], kb._gate[1]
                check_int("task version", entry["version"], 1)
                attributes = BucketedAttributes(tuple(entry["values"]), counts)
                task_categories(key, attributes, counts)  # before its key names a file
                if key in kb.records:
                    raise StoreError(f"task key {key!r} is listed twice")
                name = _model_file_name(key, entry["version"])
                model = kb._read_model_file(name, entry["crc32"])
                kb._admit(name, model)
                kb.records[key] = _record_from_json(entry, attributes, model)
                kb._model_crcs[key] = entry["crc32"]
            if fallback is not None:
                set_at, crc = fallback["kb_version"], fallback["crc32"]
                if not (_is_int(set_at) and 1 <= set_at <= kb.kb_version):
                    raise StoreError(f"fallback kb_version {set_at!r} is not in 1..{kb.kb_version}")
                kb._fallback_file, name = (set_at, crc), _fallback_file_name(set_at)
                kb.fallback = kb._read_model_file(name, crc)
                kb._admit(name, kb.fallback)
            kb.job = body.get("job")
        except CorruptStoreError:
            raise  # a missing or corrupt model file names itself
        except (KeyError, TypeError, ValueError, ConfigError, SchemaError, SchemaMismatchError,
                StoreError, LearnerError) as exc:
            raise CorruptStoreError(f"corrupt store index {index_path}: bad body: {exc!r}") from exc
        return kb

    def _open_format_1(self, body: dict) -> tuple[list, dict | None]:
        """The tasks and fallback of a format-1 body as format 2 lists them.
        Format 1 named each model file and declared no shape. Each name must
        be the one format 2 derives, and the gate is derived as format 1 did:
        the body's fingerprint, the classes and feature count of the first
        task's model (else the fallback's) and the first task's bucket counts.
        The store's first job stage declares a shape, and its commit writes
        format 2."""
        tasks, fallback = body["tasks"], body["fallback"]
        counts = tuple(tasks[0]["attributes"]["bucket_counts"]) if tasks else ()
        for entry in tasks:
            name = _model_file_name(entry["key"], entry["version"])
            if entry["model_file"] != name:
                raise StoreError(f"task {entry['key']!r} names model file "
                                 f"{entry['model_file']!r}, not {name!r}")
            if tuple(entry["attributes"]["bucket_counts"]) != counts:
                raise SchemaMismatchError(f"task {entry['key']!r} is bucketed under "
                                          f"{entry['attributes']['bucket_counts']!r}, "
                                          f"not the first task's {counts!r}")
        if fallback is not None:
            name = fallback["model_file"]
            set_at = int(name.removeprefix("_fallback.").removesuffix(".bin"))
            if name != _fallback_file_name(set_at):
                raise StoreError(f"the fallback names model file {name!r}, "
                                 f"not {_fallback_file_name(set_at)!r}")
            fallback = {"kb_version": set_at, "crc32": fallback["crc32"]}
        if tasks or fallback is not None:
            name, crc = ((tasks[0]["model_file"], tasks[0]["crc32"]) if tasks else
                         (_fallback_file_name(fallback["kb_version"]), fallback["crc32"]))
            model = self._read_model_file(name, crc)
            self._gate = ((body["schema_fingerprint"], model.classes,
                           model.parameters["n_features"]), counts)
        return [{**entry, "values": entry["attributes"]["values"]} for entry in tasks], fallback

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
        self.records, self._model_crcs = dict(self.records), dict(self._model_crcs)
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

    def declare_shape(self, schema: DatasetSchema, bucketing: BucketingConfig) -> None:
        """Declare what the store holds: models of *schema*'s fingerprint,
        classes and feature count, and tasks bucketed under *bucketing*. A
        store declares one shape: another raises SchemaMismatchError naming
        the manifest. One that declares none yet (a new or a format-1 one)
        takes this one in a commit, if all it holds passes the gate under it."""
        shape, gate = _shape(schema.fingerprint(), schema.label_classes, schema.n_features,
                             bucketing.edges)
        if self.shape is None:
            with self.transaction():
                self.shape, self._gate = shape, gate
                for key, record in self.records.items():
                    self._admit(_model_file_name(key, record.version), record.model, record)
                if self.fallback is not None:
                    self._admit(_fallback_file_name(self._fallback_file[0]), self.fallback)
        elif shape != self.shape:
            raise SchemaMismatchError(f"{self.path / _INDEX_NAME} declares the shape "
                                      f"{self.shape}, not this stage's {shape}")

    def _require_shape(self) -> None:
        if self.shape is None:
            raise StoreError(f"{self.path / _INDEX_NAME} declares no shape; a job stage that "
                             f"reads data (train, eval or update) declares it")

    def _admit(self, name: str, model: ModelArtifact, record: TaskRecord | None = None) -> None:
        """The store gate of every model and task entry, at ``open``, in
        :meth:`declare_shape` and in a transaction: *model*, stored as *name*,
        must pass :func:`check_model` against the store's shape, and *record*
        :func:`task_categories` under its bucket counts. Builds the error
        text only if a check fails."""
        shape, counts = self._gate
        if (model.schema_fingerprint, model.classes, model.parameters["n_features"]) != shape:
            check_model(model, shape, f"model file {self.path / _MODELS_DIR / name}")
        if record is not None:
            task_categories(record.key, record.attributes, counts)

    def upsert_task(self, record: TaskRecord) -> int:
        """Insert or supersede a task record; returns the new kb_version.

        Re-upserting byte-identical content is a no-op (version unchanged).
        An existing key gets its record version incremented; the superseded
        model file stays on disk unreferenced. A record the store gate
        refuses raises SchemaMismatchError: the store would not open. A store
        that declares no shape raises StoreError.
        """
        self._require_shape()
        data = serialize_model(record.model)
        existing = self.records.get(record.key)
        if existing is not None:
            if (
                canonical_json_bytes({**_record_to_json(record), "version": existing.version})
                == canonical_json_bytes(_record_to_json(existing))
                and record.attributes == existing.attributes  # bucket counts included
                and serialize_model(existing.model) == data
            ):
                return self.kb_version
            version = existing.version + 1
        else:
            version = 1
        with self.transaction():
            name = _model_file_name(record.key, version)
            self._admit(name, record.model, record)
            self._model_crcs[record.key] = self._write_model(name, data)
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
        """Replace the unknown-task fallback model; returns the new kb_version.
        A store that declares no shape raises StoreError."""
        self._require_shape()
        with self.transaction():
            self.kb_version += 1
            # a committed manifest names its fallback by a KB version at most its own
            name = _fallback_file_name(self.kb_version)
            self._admit(name, model)
            self._fallback_file = (self.kb_version, self._write_model(name, serialize_model(model)))
            self.fallback = model
        return self.kb_version

    def save(self) -> None:
        """Rewrite the manifest from the current in-memory state."""
        with self.transaction():
            pass

    # -- persistence --------------------------------------------------------

    def _write_model(self, name: str, data: bytes) -> int:
        """Write one new model file; returns its crc32. No committed manifest
        names the file, so it is written in place; "wb" overwrites a stale
        file a crashed earlier attempt left under this name, or the index
        checksum would lie."""
        models_dir = self.path / _MODELS_DIR
        models_dir.mkdir(parents=True, exist_ok=True)
        _write_synced(models_dir / name, data)
        self._models_unsynced = True
        return zlib.crc32(data)

    def _persist(self) -> None:
        if self._models_unsynced:
            # the one barrier: the new model files' directory entries are
            # durable before a manifest names them
            _fsync_dir(self.path / _MODELS_DIR)
            self._models_unsynced = False
        _replace_synced(self.path / _INDEX_NAME, self._manifest_bytes())

    def _manifest_bytes(self) -> bytes:
        """``canonical_json_bytes`` of the manifest ``{"format": 2, "crc32":
        <crc of body>, "body": body}``, with the body encoded once. Keys sort
        ``body < crc32 < format``, and ``tasks`` is the body's last key."""
        if self.records or self.fallback is not None:
            self._require_shape()  # a format-1 store commits once a job stage declares one
        head = canonical_json_bytes({
            "shape": self.shape,
            "kb_version": self.kb_version,
            "fallback": (
                {"kb_version": self._fallback_file[0], "crc32": self._fallback_file[1]}
                if self._fallback_file is not None
                else None
            ),
            "job": self.job,
        })
        tasks = b",".join(self._task_entry(key, rec) for key, rec in sorted(self.records.items()))
        body = head[:-1] + b',"tasks":[' + tasks + b"]}"
        return b'{"body":%s,"crc32":%d,"format":%d}' % (body, zlib.crc32(body), _MANIFEST_FORMAT)

    def _task_entry(self, key: str, rec: TaskRecord) -> bytes:
        crc = self._model_crcs[key]
        cached = self._task_entries.get(key)
        if cached is None or cached[0] is not rec or cached[1] != crc:
            entry = canonical_json_bytes({**_record_to_json(rec), "crc32": crc})
            cached = self._task_entries[key] = (rec, crc, entry)
        return cached[2]


def kb_open(path: str | Path) -> KnowledgeBase:
    """Open (or create) a knowledge base stored in *path*."""
    return KnowledgeBase.open(path)
