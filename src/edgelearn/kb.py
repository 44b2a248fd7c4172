"""Cloud-side task knowledge base: a versioned, persistent index of task
records plus a global fallback model for unknown tasks.

A store is one directory holding one file::

    index.json    manifest: {"format": 3, "crc32": <crc of body>, "body": {...}}

The manifest body carries the store's ``shape`` (the schema fingerprint,
label classes and feature count of its models and each attribute column's
bucket edges, set by :meth:`KnowledgeBase.declare_shape`), the KB version
counter, ``job`` (the job's phase document, stored uninterpreted), the
fallback model (its canonical JSON object, or ``null``), and per task the
record fields one codec owns (``_record_to_json``/``_record_from_json``)
plus ``model``, the task model's canonical JSON object. The body's checksum
covers every model. ``open`` decodes the manifest with
:func:`~edgelearn.learners.decode_json`, checks every field it keeps and
every model, refuses a task key listed twice and runs the store gate on
every record and the fallback against the shape. It ignores keys it does
not read. Formats 1 and 2 kept each model in a checksummed file under
``models/``: ``open`` refuses them as retired, naming the format. Readers
refuse a manifest or snapshot of any other ``format``. A commit writes one
file: it fsyncs the new manifest to a temp file, renames it over
``index.json`` (the commit point) and fsyncs the directory, so a crash at
any point leaves the previous consistent state intact. Only the latest
version of each task is retrievable.

There is no delete operation: task knowledge only accumulates.
"""

from __future__ import annotations

import os
import zlib
from contextlib import contextmanager, suppress
from dataclasses import dataclass, replace
from functools import cached_property
from hashlib import sha256
from pathlib import Path

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
    metrics_from_json,
    metrics_to_json,
    model_from_json,
)
from .tasks import BucketedAttributes, BucketingConfig, task_categories

STATUS_TRAINED = "trained"
STATUS_DEPLOYABLE = "deployable"
STATUS_EVAL_FAILED = "eval_failed"
_STATUSES = (STATUS_TRAINED, STATUS_DEPLOYABLE, STATUS_EVAL_FAILED)

_FORMAT = 1  # of the snapshot payload; readers reject any other
_MANIFEST_FORMAT = 3  # open refuses any other, naming formats 1 and 2 as retired
_INDEX_NAME = "index.json"


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

    @cached_property
    def entry(self) -> bytes:
        """The canonical bytes of this record's manifest entry, encoded once:
        its record fields and ``"model"``, its model's bytes."""
        return _with_model(_record_to_json(self), self.model)


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
    the entry holds beside them, and its bucket counts, which the shape gives."""
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
    n_features), bucket counts)``; ValueError if the parts are not a shape.
    *edges* are checked already, as a schema or :func:`_decode_shape` holds them."""
    check_int("shape n_features", n_features, 1)
    if not (isinstance(schema_fingerprint, str) and isinstance(classes, (list, tuple))
            and all(isinstance(c, str) for c in classes)):
        raise ValueError(f"shape of fingerprint {schema_fingerprint!r} and classes {classes!r}")
    doc = {"schema_fingerprint": schema_fingerprint, "classes": list(classes),
           "n_features": n_features, "edges": [e if e is None else list(e) for e in edges]}
    return doc, ((schema_fingerprint, tuple(classes), n_features),
                 BucketingConfig(edges).bucket_counts)


def _decode_shape(doc: dict) -> tuple[dict, tuple]:
    """:func:`_shape` of a manifest's shape document, whose bucket edges enter here."""
    return _shape(**{**doc, "edges": tuple(e if e is None else bucket_edges(e)
                                           for e in doc["edges"])})


def _with_model(doc: dict, model: ModelArtifact) -> bytes:
    """``canonical_json_bytes`` of *doc* with ``"model"``, the model's payload,
    spliced in as :attr:`ModelArtifact.canonical` holds it: canonical JSON
    writes a nested object the same wherever it sits. No object in *doc* has a
    "model" key, and strings escape '"', so the first ``"model":0`` is its own."""
    return canonical_json_bytes({**doc, "model": 0}).replace(
        b'"model":0', b'"model":' + model.canonical, 1)


def serialize_snapshot(snapshot: DeploySnapshot) -> bytes:
    """Canonical byte encoding of a deploy snapshot (the push payload): the
    ``canonical_json_bytes`` of its document, with each model's bytes spliced
    in. Keys sort ``fallback < format < schema_fingerprint < snapshot_version
    < tasks``."""
    head = canonical_json_bytes({"format": _FORMAT,
                                 "schema_fingerprint": snapshot.schema_fingerprint,
                                 "snapshot_version": snapshot.snapshot_version})
    tasks = b",".join(canonical_json_bytes(key) + b":" + _with_model(
        {"attributes": _attrs_to_json(entry.attributes)}, entry.model)
        for key, entry in sorted(snapshot.tasks.items()))
    fallback = snapshot.fallback
    return b'{"fallback":%s,%s,"tasks":{%s}}' % (
        b"null" if fallback is None else fallback.canonical, head[1:-1], tasks)


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
    bytes: fsync a temp file, rename it over *path*, fsync the directory.
    A write or rename that fails removes the temp file."""
    try:
        _replace_synced(path, data)
    except BaseException:
        with suppress(OSError):
            path.with_name(path.name + ".tmp").unlink()
        raise
    _fsync_dir(path.parent)


def _model_name(key: str | None) -> str:
    """How an error names the model of task *key* (None: the fallback)."""
    return "the fallback" if key is None else f"task {key!r}"


def _inline_model(doc, key: str | None) -> ModelArtifact:
    """The model a format-3 manifest holds for task *key* (None: the fallback)."""
    try:
        return model_from_json(doc)
    except SerializationError as exc:  # UnknownLearnerError included
        raise StoreError(f"{_model_name(key)}: {exc}") from exc


class KnowledgeBase:
    """Versioned persistent index of task records plus the fallback model.

    Every mutation runs in a :meth:`transaction` (alone, it is a
    transaction of one), so an I/O failure or a raise never leaves memory
    ahead of disk. Single-writer: callers serialize mutations; snapshots
    are immutable values safe to share.
    A commit re-encodes only what changed: a task's manifest entry is encoded
    once per record (:attr:`TaskRecord.entry`), with its model's bytes, encoded
    once per artifact (:attr:`ModelArtifact.canonical`), spliced in; the
    manifest, a snapshot and :meth:`fingerprint` all read them.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        self.records: dict[str, TaskRecord] = {}
        self.kb_version = 0
        self.shape: dict | None = None  # the manifest's shape document; see declare_shape
        self._gate: tuple | None = None  # ((fingerprint, classes, n_features), bucket counts)
        self.fallback: ModelArtifact | None = None
        self.job: dict | None = None  # the job's phase document; set it in a transaction
        self._in_transaction = False

    @property
    def schema_fingerprint(self) -> str | None:  # of the models the store holds, if known
        return None if self._gate is None else self._gate[0][0]

    # -- opening ------------------------------------------------------------

    @classmethod
    def open(cls, path: str | Path, create: bool = True) -> "KnowledgeBase":
        kb = cls(Path(path))
        if create:
            kb.path.mkdir(parents=True, exist_ok=True)
        elif not kb.path.is_dir():
            raise StoreError(f"no knowledge base at {kb.path}: not a directory")
        index_path = kb.path / _INDEX_NAME
        if not index_path.exists():
            return kb

        try:
            doc = decode_json(raw := index_path.read_bytes(), "JSON")
            declared_crc, body, fmt = doc["crc32"], doc["body"], doc["format"]
        except (SerializationError, KeyError, TypeError) as exc:
            raise CorruptStoreError(f"corrupt store index {index_path}: {exc}") from exc
        if _is_int(fmt) and fmt in (1, 2):
            raise CorruptStoreError(f"store index {index_path} is in retired format {fmt}: "
                                    f"commit it once with an earlier release (any job stage "
                                    f"writes format {_MANIFEST_FORMAT})")
        if not _is_int(fmt) or fmt != _MANIFEST_FORMAT:
            raise CorruptStoreError(f"corrupt store index {index_path}: "
                                    f"unsupported format {fmt!r}")
        # the body's bytes as read, where a canonical writer puts them; else re-encoded
        actual_crc = zlib.crc32(raw[8:raw.rfind(b',"crc32":')])
        if actual_crc != declared_crc:
            actual_crc = zlib.crc32(canonical_json_bytes(body))
        if actual_crc != declared_crc:
            raise CorruptStoreError(
                f"corrupt store index {index_path}: checksum mismatch "
                f"(declared {declared_crc}, actual {actual_crc})"
            )

        try:  # a body under a valid checksum can still lack keys or have wrong types
            kb.kb_version = body["kb_version"]
            check_int("kb_version", kb.kb_version, 0)
            shape = body["shape"]
            kb.shape, kb._gate = (None, None) if shape is None else _decode_shape(shape)
            tasks, fallback = body["tasks"], body["fallback"]
            fallback = None if fallback is None else _inline_model(fallback, None)
            if kb._gate is None and (tasks or fallback is not None):
                raise StoreError(f"{index_path} holds models but declares no shape")
            for entry in tasks:
                key, counts = entry["key"], kb._gate[1]
                check_int("task version", entry["version"], 1)
                attributes = BucketedAttributes(tuple(entry["values"]), counts)
                task_categories(key, attributes, counts)
                if key in kb.records:
                    raise StoreError(f"task key {key!r} is listed twice")
                model = _inline_model(entry["model"], key)
                kb._admit(model, key)
                kb.records[key] = _record_from_json(entry, attributes, model)
            if fallback is not None:
                kb._admit(fallback, None)
                kb.fallback = fallback
            kb.job = body.get("job")
        except (KeyError, TypeError, ValueError, ConfigError, SchemaError, SchemaMismatchError,
                StoreError, LearnerError) as exc:
            raise CorruptStoreError(f"corrupt store index {index_path}: bad body: {exc!r}") from exc
        return kb

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
        """Content hash of the full KB state but the job's phase (used for
        equality checks): the manifest body with no job document."""
        return sha256(self._body(None)).hexdigest()

    # -- mutations ----------------------------------------------------------

    @contextmanager
    def transaction(self):
        """Group mutations into one commit: the block ends with one manifest
        replace, the one file a commit writes. The manifest rename is the
        commit point: a raise before it returns writes no manifest and
        restores memory to its state at entry; the directory fsync after it
        may still raise, but memory stays at the committed state. Nested
        blocks join the outermost."""
        if self._in_transaction:
            yield
            return
        entry = dict(vars(self))
        self.records = dict(self.records)
        self._in_transaction = True
        try:
            yield
            _replace_synced(self.path / _INDEX_NAME, self._manifest_bytes())
        except BaseException:
            vars(self).update(entry)
            raise
        finally:
            self._in_transaction = False
        _fsync_dir(self.path)

    def declare_shape(self, schema: DatasetSchema) -> None:
        """Declare what the store holds: models of *schema*'s fingerprint,
        classes and feature count, and tasks bucketed under its edges. A
        store declares one shape: another raises SchemaMismatchError naming
        the manifest. One that declares none yet, which holds nothing, takes
        this one in a commit."""
        shape, gate = _shape(schema.fingerprint(), schema.label_classes, schema.n_features,
                             schema.attribute_edges)
        if self.shape is None:
            with self.transaction():
                self.shape, self._gate = shape, gate
        elif shape != self.shape:
            raise SchemaMismatchError(f"{self.path / _INDEX_NAME} declares the shape "
                                      f"{self.shape}, not this stage's {shape}")

    def _require_shape(self) -> None:
        if self.shape is None:
            raise StoreError(f"{self.path / _INDEX_NAME} declares no shape; a job stage that "
                             f"reads data (train, eval or update) declares it")

    def _admit(self, model: ModelArtifact, key: str | None,
               record: TaskRecord | None = None) -> None:
        """The store gate of every model and task entry, at ``open`` and in a
        transaction: *model*, task *key*'s (None: the fallback's), must pass
        :func:`check_model` against the store's shape, and *record*
        :func:`task_categories` under its bucket counts. Builds the error text
        only if a check fails."""
        shape, counts = self._gate
        if (model.schema_fingerprint, model.classes, model.parameters["n_features"]) != shape:
            check_model(model, shape, f"{self.path / _INDEX_NAME} {_model_name(key)}")
        if record is not None:
            task_categories(record.key, record.attributes, counts)

    def upsert_task(self, record: TaskRecord) -> int:
        """Insert or supersede a task record; returns the new kb_version.

        Re-upserting byte-identical content is a no-op (version unchanged).
        An existing key gets its record version incremented and keeps an equal
        attributes object, and the superseded model is no longer stored. A
        record the store gate refuses raises SchemaMismatchError: the store
        would not open. A store that declares no shape raises StoreError.
        """
        self._require_shape()
        existing = self.records.get(record.key)
        if existing is not None:
            # equal entries (which hold no bucket counts) imply equal status and model bytes
            if (record.status == existing.status and record.attributes == existing.attributes
                    and record.model.canonical == existing.model.canonical
                    and replace(record, version=existing.version).entry == existing.entry):
                return self.kb_version
            version = existing.version + 1
        else:
            version = 1
        with self.transaction():
            self._admit(record.model, record.key, record)
            if existing is not None and record.attributes == existing.attributes:
                # equal past the gate (no bools, floats): an edge's swap reuses the key's route
                record = replace(record, attributes=existing.attributes)
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
            self._admit(model, None)
            self.fallback = model
            self.kb_version += 1
        return self.kb_version

    def save(self) -> None:
        """Rewrite the manifest from the current in-memory state."""
        with self.transaction():
            pass

    # -- persistence --------------------------------------------------------

    def _body(self, job) -> bytes:
        """``canonical_json_bytes`` of the manifest body with *job* as its job
        document, encoded once with each record's :attr:`TaskRecord.entry` and
        the fallback's canonical bytes spliced in: canonical JSON writes a
        nested object the same wherever it sits. Keys sort ``fallback < job <
        kb_version < shape < tasks``."""
        head = canonical_json_bytes({"job": job, "kb_version": self.kb_version,
                                     "shape": self.shape})
        tasks = b",".join(self.records[key].entry for key in sorted(self.records))
        return b'{"fallback":%s,%s,"tasks":[%s]}' % (
            b"null" if self.fallback is None else self.fallback.canonical, head[1:-1], tasks)

    def _manifest_bytes(self) -> bytes:
        """``canonical_json_bytes`` of the manifest ``{"format": 3, "crc32":
        <crc of body>, "body": body}``; keys sort ``body < crc32 < format``."""
        body = self._body(self.job)
        return b'{"body":%s,"crc32":%d,"format":%d}' % (body, zlib.crc32(body), _MANIFEST_FORMAT)
