"""Knowledge base: persistence, versioning, queries, snapshots, crash safety."""

from __future__ import annotations

import json
import os
import stat
import zlib
from dataclasses import replace
from hashlib import sha256
from pathlib import Path

import pytest

import edgelearn.kb as kb_mod
from edgelearn.cli import cli_main
import edgelearn.learners as learners_mod
from edgelearn.errors import (
    CorruptStoreError,
    NothingDeployableError,
    SchemaMismatchError,
    SerializationError,
    StoreError,
    UnknownLearnerError,
)
from edgelearn.kb import (
    STATUS_DEPLOYABLE,
    STATUS_EVAL_FAILED,
    STATUS_TRAINED,
    KnowledgeBase,
    TaskRecord,
    atomic_write_bytes,
    deserialize_snapshot,
    serialize_snapshot,
)
from edgelearn.learners import (
    EstimatorSpec,
    EvalMetrics,
    canonical_json_bytes,
    fit,
    model_to_json,
    predict,
    serialize_model,
)
from edgelearn.tasks import BucketedAttributes, bucket_attributes, task_key, values_key
from edgelearn.tasks import BucketingConfig

from conftest import banded_schema, city_dataset, city_schema, declared_kb


def make_record(city: str, label: str = "a", status: str = STATUS_TRAINED,
                n: int = 3, eval_metrics=None) -> TaskRecord:
    ds = city_dataset([(float(i), city, label) for i in range(n)])
    model = fit(EstimatorSpec("majority"), ds, seed=0)
    if status == STATUS_DEPLOYABLE and eval_metrics is None:
        eval_metrics = EvalMetrics.from_counts(("a", "b"), ((n, 0), (0, 0)))
    return TaskRecord(
        key=city,
        attributes=BucketedAttributes((city,), (0,)),
        model=model,
        samples=len(ds),
        status=status,
        eval=eval_metrics,
    )


def make_fallback(label: str = "a"):
    ds = city_dataset([(0.0, "any", label), (1.0, "any", label)])
    return fit(EstimatorSpec("majority"), ds, seed=0)


# -- open / save ----------------------------------------------------------------

def test_open_fresh_directory_empty(tmp_path):
    kb = KnowledgeBase.open(tmp_path / "kb")
    assert kb.kb_version == 0
    assert kb.records == {}
    assert kb.fallback is None


def test_save_load_round_trip_model_bytes(tmp_path):
    kb = declared_kb(tmp_path / "kb")
    cities = ("athens", "tokyo", "oslo", "lima", "kota")
    for city in cities:
        kb.upsert_task(make_record(city))
    reopened = KnowledgeBase.open(tmp_path / "kb")
    assert set(reopened.records) == set(cities)
    assert reopened.kb_version == kb.kb_version
    for key in kb.records:
        assert serialize_model(reopened.records[key].model) == serialize_model(
            kb.records[key].model
        )
    assert reopened.fingerprint() == kb.fingerprint()


def test_flipped_bit_in_index_refuses_open(tmp_path):
    kb = declared_kb(tmp_path / "kb")
    kb.upsert_task(make_record("athens"))
    index = tmp_path / "kb" / "index.json"
    raw = bytearray(index.read_bytes())
    pos = raw.find(b'"kb_version"')
    raw[pos + 15] ^= 0x01  # flip a bit inside the body
    index.write_bytes(bytes(raw))
    with pytest.raises(CorruptStoreError, match="index.json"):
        KnowledgeBase.open(tmp_path / "kb")


def test_a_manifest_laid_out_otherwise_opens_under_its_checksum(tmp_path):
    kb = declared_kb(tmp_path / "kb")
    kb.upsert_task(make_record("athens"))
    index = tmp_path / "kb" / "index.json"
    # the checksum is of the body's canonical bytes, whatever the file's layout
    index.write_text(json.dumps(json.loads(index.read_bytes()), indent=2), encoding="utf-8")
    assert KnowledgeBase.open(tmp_path / "kb").fingerprint() == kb.fingerprint()


def _dir_digest(path: Path) -> str:
    h = sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file() and not p.name.endswith(".tmp")):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def test_two_saves_without_mutation_identical_bytes(tmp_path):
    kb = declared_kb(tmp_path / "kb")
    kb.upsert_task(make_record("athens"))
    kb.set_fallback(make_fallback())
    kb.save()
    first = _dir_digest(tmp_path / "kb")
    kb.save()
    assert _dir_digest(tmp_path / "kb") == first


def test_crash_before_index_rename_keeps_previous_state(tmp_path, monkeypatch):
    kb = declared_kb(tmp_path / "kb")
    kb.upsert_task(make_record("athens"))
    committed = kb.fingerprint()

    real_replace = kb_mod._replace_file

    def failing_replace(src, dst):
        if dst.name == "index.json":
            raise OSError("injected crash after temp write")
        real_replace(src, dst)

    monkeypatch.setattr(kb_mod, "_replace_file", failing_replace)
    with pytest.raises(OSError, match="injected"):
        kb.upsert_task(make_record("tokyo"))
    monkeypatch.setattr(kb_mod, "_replace_file", real_replace)

    reopened = KnowledgeBase.open(tmp_path / "kb")
    assert reopened.fingerprint() == committed
    assert set(reopened.records) == {"athens"}


def test_retry_after_crash_overwrites_the_stale_temp_manifest(tmp_path, monkeypatch):
    kb = declared_kb(tmp_path / "kb")
    real_replace = kb_mod._replace_file

    def fail_on_index(src, dst):
        if dst.name == "index.json":
            raise OSError("injected crash")
        real_replace(src, dst)

    # first attempt writes index.json.tmp then dies before the rename
    monkeypatch.setattr(kb_mod, "_replace_file", fail_on_index)
    with pytest.raises(OSError):
        kb.upsert_task(make_record("athens", label="a"))
    monkeypatch.setattr(kb_mod, "_replace_file", real_replace)

    # retry with different content reuses the temp file name; the stale
    # bytes must be replaced or reopening would fail its checksum
    kb.upsert_task(make_record("athens", label="b"))
    reopened = KnowledgeBase.open(tmp_path / "kb")
    assert predict(reopened.lookup("athens").model, (0.0,)) == "b"


def test_failed_save_does_not_mutate_memory(tmp_path, monkeypatch):
    kb = declared_kb(tmp_path / "kb")
    kb.upsert_task(make_record("athens"))
    version = kb.kb_version

    def always_fail(src, dst):
        raise OSError("disk full (injected)")

    monkeypatch.setattr(kb_mod, "_replace_file", always_fail)
    with pytest.raises(OSError):
        kb.upsert_task(make_record("tokyo"))
    assert kb.kb_version == version
    assert "tokyo" not in kb.records


@pytest.mark.parametrize("step", ["_replace_file", "_write_synced"])
def test_an_atomic_write_that_fails_removes_its_temp_file_and_keeps_the_old_bytes(
        tmp_path, monkeypatch, step):
    path = tmp_path / "out.json"
    path.write_bytes(b"old")
    real_write = kb_mod._write_synced

    def failing(*args):
        if step == "_write_synced":
            real_write(*args)  # the temp file is on disk when the step fails
        raise OSError(f"injected: {step}")

    monkeypatch.setattr(kb_mod, step, failing)
    with pytest.raises(OSError, match=f"injected: {step}"):
        atomic_write_bytes(path, b"new bytes")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]
    assert path.read_bytes() == b"old"


def test_a_failed_directory_fsync_after_the_manifest_rename_keeps_the_commit(
    tmp_path, monkeypatch
):
    kb_dir = tmp_path / "kb"
    kb = declared_kb(kb_dir)
    kb.upsert_task(make_record("athens"))
    real_fsync_dir = kb_mod._fsync_dir

    def fail_on_root(path):
        if Path(path) == kb_dir:
            raise OSError("injected: fsync of the KB directory")
        real_fsync_dir(path)

    monkeypatch.setattr(kb_mod, "_fsync_dir", fail_on_root)
    with pytest.raises(OSError, match="injected"):
        kb.upsert_task(make_record("tokyo"))
    monkeypatch.setattr(kb_mod, "_fsync_dir", real_fsync_dir)

    # the rename committed the manifest: the handle holds what is on disk
    reopened = KnowledgeBase.open(kb_dir)
    assert sorted(kb.records) == sorted(reopened.records) == ["athens", "tokyo"]
    assert kb.kb_version == reopened.kb_version == 2
    assert kb.fingerprint() == reopened.fingerprint()

    # so the next commit builds on the committed store
    kb.upsert_task(make_record("tokyo", label="b"))
    reopened = KnowledgeBase.open(kb_dir)
    assert reopened.kb_version == 3 and reopened.lookup("tokyo").version == 2
    assert predict(reopened.lookup("tokyo").model, (0.0,)) == "b"
    assert sorted(p.name for p in kb_dir.iterdir()) == ["index.json"]


@pytest.mark.parametrize("fmt", [pytest.param(1, id="format-1"), pytest.param(2, id="format-2"),
                                 4, 0, "1", None, True, 1.0, "absent"])
def test_manifest_of_another_format_refuses_open(tmp_path, fmt):
    kb = declared_kb(tmp_path / "kb")
    kb.upsert_task(make_record("athens"))
    index = tmp_path / "kb" / "index.json"
    manifest = json.loads(index.read_bytes())
    if fmt == "absent":
        del manifest["format"]
    else:
        manifest["format"] = fmt  # outside the body: its checksum stays valid
    index.write_bytes(canonical_json_bytes(manifest))
    # formats 1 and 2 are retired: the error says which, and how to move on
    error = (f"index.json is in retired format {fmt}: commit it once with an earlier release"
             if type(fmt) is int and fmt in (1, 2) else "format")
    with pytest.raises(CorruptStoreError, match=error):
        KnowledgeBase.open(tmp_path / "kb")


# -- commits write only what they change --------------------------------------------

def _watch_writes(monkeypatch) -> tuple[list[str], list[object]]:
    """Records the name of every file the KB writes (a temp file under the
    name it replaces) and every model it serializes from now on."""
    written: list[str] = []
    serialized: list[object] = []
    real_write = kb_mod._write_synced
    real_serialize = learners_mod.serialize_model

    def counting_write(path, data):
        written.append(path.name.removesuffix(".tmp"))
        real_write(path, data)

    def counting_serialize(model):
        serialized.append(model)
        return real_serialize(model)

    monkeypatch.setattr(kb_mod, "_write_synced", counting_write)
    monkeypatch.setattr(learners_mod, "serialize_model", counting_serialize)
    return written, serialized


def _watch_replaces(monkeypatch) -> list[str]:
    """Records the name of every file replaced through a temp file from now on."""
    replaced: list[str] = []
    real_replace = kb_mod._replace_file

    def counting_replace(src, dst):
        replaced.append(dst.name)
        real_replace(src, dst)

    monkeypatch.setattr(kb_mod, "_replace_file", counting_replace)
    return replaced


def test_record_eval_and_save_replace_only_the_index(tmp_path, monkeypatch):
    kb = declared_kb(tmp_path / "kb")
    kb.upsert_task(make_record("athens"))
    kb.upsert_task(make_record("tokyo"))
    kb.set_fallback(make_fallback())
    written, serialized = _watch_writes(monkeypatch)
    replaced = _watch_replaces(monkeypatch)
    metrics = EvalMetrics.from_counts(("a", "b"), ((3, 0), (0, 0)))
    kb.record_eval("athens", STATUS_DEPLOYABLE, metrics)
    kb.save()
    assert written == ["index.json", "index.json"]
    assert replaced == ["index.json", "index.json"]
    assert serialized == []


def test_a_record_entry_is_encoded_once_per_record(tmp_path, monkeypatch):
    # a record owns its manifest entry: a commit re-encodes only the record
    # that changed, and a save and the fingerprint re-encode none
    kb = declared_kb(tmp_path / "kb")
    kb.upsert_task(make_record("athens"))
    kb.upsert_task(make_record("tokyo"))
    encoded, real = [], kb_mod._with_model

    def counting(doc, model):
        encoded.append(doc["key"])
        return real(doc, model)

    monkeypatch.setattr(kb_mod, "_with_model", counting)
    kb.record_eval("athens", STATUS_DEPLOYABLE,
                   EvalMetrics.from_counts(("a", "b"), ((3, 0), (0, 0))))
    kb.save()
    kb.fingerprint()
    assert encoded == ["athens"]


def test_an_idempotent_upsert_and_the_fingerprint_reuse_the_encoded_models(tmp_path, monkeypatch):
    kb = declared_kb(tmp_path / "kb")
    record = make_record("athens")
    kb.upsert_task(record)
    kb.set_fallback(make_fallback())
    written, serialized = _watch_writes(monkeypatch)
    assert kb.upsert_task(record) == kb.kb_version == 2
    fingerprint = kb.fingerprint()
    assert (written, serialized) == ([], [])
    reopened = KnowledgeBase.open(tmp_path / "kb")
    assert reopened.fingerprint() == fingerprint  # a reopen encodes them


def test_upsert_writes_only_the_index_and_serializes_its_model_once(tmp_path, monkeypatch):
    # the model lives in its manifest entry: each upsert serializes it once
    # and writes only the manifest
    kb = declared_kb(tmp_path / "kb")
    kb.upsert_task(make_record("athens"))
    kb.set_fallback(make_fallback())
    written, serialized = _watch_writes(monkeypatch)
    replaced = _watch_replaces(monkeypatch)
    tokyo = make_record("tokyo")
    athens = make_record("athens", label="b", n=4)
    kb.upsert_task(tokyo)
    kb.upsert_task(athens)
    assert written == replaced == ["index.json", "index.json"]
    assert serialized == [tokyo.model, athens.model]


def test_set_fallback_writes_only_the_index_and_serializes_the_fallback_once(tmp_path, monkeypatch):
    kb = declared_kb(tmp_path / "kb")
    kb.upsert_task(make_record("athens"))
    kb.upsert_task(make_record("tokyo"))
    kb.set_fallback(make_fallback("a"))
    written, serialized = _watch_writes(monkeypatch)
    replaced = _watch_replaces(monkeypatch)
    fallback = make_fallback("b")
    kb.set_fallback(fallback)
    assert written == replaced == ["index.json"]
    assert serialized == [fallback]


def test_every_write_fsyncs_the_file_before_the_rename_and_the_directory_after(
    tmp_path, monkeypatch
):
    kb = declared_kb(tmp_path / "kb")
    events: list[str] = []
    real_fsync = os.fsync
    real_replace = kb_mod._replace_file

    def watching_fsync(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            events.append(f"fsync dir {sorted(os.listdir(fd))}")
        else:
            events.append("fsync file")
        real_fsync(fd)

    def watching_replace(src, dst):
        events.append(dst.name)
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", watching_fsync)
    monkeypatch.setattr(kb_mod, "_replace_file", watching_replace)
    # each commit writes one file, the manifest: through a synced temp file,
    # a rename and a synced directory
    commit = ["fsync file", "index.json", "fsync dir ['index.json']"]
    kb.upsert_task(make_record("athens"))
    assert events == commit
    events.clear()
    kb.record_eval("athens", STATUS_DEPLOYABLE, EvalMetrics.from_counts(("a", "b"), ((3, 0), (0, 0))))
    assert events == commit
    events.clear()
    with kb.transaction():
        kb.upsert_task(make_record("tokyo"))
        kb.set_fallback(make_fallback())
    assert events == commit


# -- transactions ----------------------------------------------------------------

def test_transaction_commits_once_and_nested_blocks_join_it(tmp_path, monkeypatch):
    kb = declared_kb(tmp_path / "kb")
    written, _ = _watch_writes(monkeypatch)
    with kb.transaction():
        kb.upsert_task(make_record("athens"))
        with kb.transaction():
            kb.upsert_task(make_record("tokyo"))
            kb.set_fallback(make_fallback())
        kb.job = {"phase": "anything"}
        assert written == []
    assert written == ["index.json"]
    assert kb.kb_version == 3
    reopened = KnowledgeBase.open(tmp_path / "kb")
    assert reopened.fingerprint() == kb.fingerprint()
    assert reopened.job == {"phase": "anything"}


def test_transaction_that_raises_writes_no_manifest_and_restores_memory(tmp_path, monkeypatch):
    kb = declared_kb(tmp_path / "kb")
    kb.upsert_task(make_record("athens"))
    kb.set_fallback(make_fallback("a"))
    before = kb.fingerprint()
    written, _ = _watch_writes(monkeypatch)
    with pytest.raises(RuntimeError, match="abort"):
        with kb.transaction():
            kb.upsert_task(make_record("athens", label="b"))
            kb.upsert_task(make_record("tokyo"))
            kb.set_fallback(make_fallback("b"))
            kb.job = {"phase": "anything"}
            raise RuntimeError("abort")
    assert "index.json" not in written
    assert kb.fingerprint() == before
    assert kb.job is None
    assert set(kb.records) == {"athens"}
    assert KnowledgeBase.open(tmp_path / "kb").fingerprint() == before
    # the next commit encodes tokyo's new record, not the aborted one's
    kb.upsert_task(make_record("tokyo", label="b"))
    reopened = KnowledgeBase.open(tmp_path / "kb")
    assert set(reopened.records) == {"athens", "tokyo"}
    assert predict(reopened.lookup("tokyo").model, (0.0,)) == "b"


def _manifest(body: dict) -> bytes:
    """The format-3 manifest of *body*, under its checksum."""
    return canonical_json_bytes(
        {"format": 3, "crc32": zlib.crc32(canonical_json_bytes(body)), "body": body})


def _manifest_from_scratch(kb) -> bytes:
    """The manifest encoded whole from the KB's in-memory state."""
    body = {
        "shape": kb.shape,
        "kb_version": kb.kb_version,
        "fallback": None if kb.fallback is None else model_to_json(kb.fallback),
        "tasks": [
            {
                "key": key,
                "version": rec.version,
                "status": rec.status,
                "values": list(rec.attributes.values),
                "stats": {"count": rec.samples},
                "eval": kb_mod.metrics_to_json(rec.eval),
                "model": model_to_json(rec.model),
            }
            for key, rec in sorted(kb.records.items())
        ],
        "job": kb.job,
    }
    return _manifest(body)


def test_manifest_built_from_cached_entries_equals_the_whole_encoding(tmp_path, monkeypatch):
    kb = declared_kb(tmp_path / "kb")
    index = tmp_path / "kb" / "index.json"
    metrics = EvalMetrics.from_counts(("a", "b"), ((3, 0), (0, 0)))

    def fail_index_rename(src, dst):
        raise OSError("injected crash")

    def abort_a_transaction():
        with kb.transaction():
            kb.upsert_task(make_record("athens", label="a", n=7))
            kb.upsert_task(make_record("zurich"))
            kb.record_eval("tokyo", STATUS_EVAL_FAILED, metrics)
            kb.set_fallback(make_fallback("a"))
            kb.job = {"phase": "aborted"}
            raise RuntimeError("abort")

    def fail_a_commit():
        # the cache sees this commit's entries, the store and memory do not
        monkeypatch.setattr(kb_mod, "_replace_file", fail_index_rename)
        try:
            kb.upsert_task(make_record("zurich", label="b"))
        finally:
            monkeypatch.undo()

    steps = [
        lambda: kb.save(),
        lambda: kb.upsert_task(make_record("athens")),
        lambda: kb.upsert_task(make_record("tokyo", label="b")),
        lambda: kb.record_eval("athens", STATUS_DEPLOYABLE, metrics),
        lambda: kb.set_fallback(make_fallback("b")),
        lambda: kb.upsert_task(make_record("athens", label="b", n=5)),
        abort_a_transaction,
        fail_a_commit,
        lambda: kb.save(),
        lambda: kb.set_fallback(make_fallback("a")),
        lambda: kb.upsert_task(make_record("zurich")),
    ]
    for i, step in enumerate(steps):
        try:
            step()
        except (RuntimeError, OSError):
            pass
        with kb.transaction():
            kb.job = {"phase": f"after step {i}"}
        assert index.read_bytes() == _manifest_from_scratch(kb), i
        reopened = KnowledgeBase.open(tmp_path / "kb")
        reopened.save()
        assert index.read_bytes() == _manifest_from_scratch(kb), i
    assert set(kb.records) == {"athens", "tokyo", "zurich"}


def test_the_fingerprint_tells_apart_stores_of_other_bucket_edges(tmp_path):
    stores = {}
    for name, edges in (("low", (1.0, 2.0)), ("high", (5.0, 6.0))):
        stores[name] = KnowledgeBase.open(tmp_path / name)
        stores[name].declare_shape(banded_schema(edges))
    low, high = stores["low"], stores["high"]
    assert low.schema_fingerprint == high.schema_fingerprint  # one schema
    assert (tmp_path / "low" / "index.json").read_bytes() != (
        tmp_path / "high" / "index.json").read_bytes()
    assert low.fingerprint() != high.fingerprint()
    assert KnowledgeBase.open(tmp_path / "low").fingerprint() == low.fingerprint()
    assert KnowledgeBase.open(tmp_path / "high").fingerprint() == high.fingerprint()
    # the job's phase stays out of it
    before = low.fingerprint()
    with low.transaction():
        low.job = {"phase": "trained"}
    assert low.fingerprint() == KnowledgeBase.open(tmp_path / "low").fingerprint() == before


def test_reopen_store_whose_manifest_carries_relations(tmp_path):
    kb = declared_kb(tmp_path / "kb")
    kb.upsert_task(make_record("athens"))
    kb.upsert_task(make_record("tokyo", status=STATUS_DEPLOYABLE))
    kb.set_fallback(make_fallback())
    index = tmp_path / "kb" / "index.json"
    manifest = json.loads(index.read_text(encoding="utf-8"))
    body = manifest["body"]
    assert all("relations" not in entry for entry in body["tasks"])
    body["tasks"][0]["relations"] = [["tokyo", 0.5]]
    body["tasks"][1]["relations"] = [["athens", 0.5]]
    manifest["crc32"] = zlib.crc32(canonical_json_bytes(body))
    index.write_bytes(canonical_json_bytes(manifest))

    reopened = KnowledgeBase.open(tmp_path / "kb")
    assert reopened.records == kb.records
    assert reopened.kb_version == kb.kb_version
    assert reopened.fingerprint() == kb.fingerprint()


@pytest.mark.parametrize("edges, fault", [
    ([30.0, 20.0], "not strictly increasing"),
    (["a"], "'a' is not a finite number"),
    ("ab", "must be a list"),
    (5, "must be a list, got 5"),
])
def test_a_manifest_whose_bucket_edges_are_not_edges_fails_to_open(tmp_path, capsys, edges,
                                                                    fault):
    declared_kb(tmp_path / "kb", banded_schema())
    index = tmp_path / "kb" / "index.json"
    manifest = json.loads(index.read_text(encoding="utf-8"))
    manifest["body"]["shape"]["edges"][-1] = edges
    manifest["crc32"] = zlib.crc32(canonical_json_bytes(manifest["body"]))
    index.write_bytes(canonical_json_bytes(manifest))
    with pytest.raises(CorruptStoreError, match=f"index.json: bad body: .*{fault}"):
        KnowledgeBase.open(tmp_path / "kb")
    assert cli_main(["kb", "show", "--kb", str(tmp_path / "kb")]) == 2
    assert "index.json" in capsys.readouterr().err


def test_a_manifest_writing_its_bucket_edges_as_integers_opens_to_the_same_shape(tmp_path):
    kb = declared_kb(tmp_path / "kb", banded_schema())
    index = tmp_path / "kb" / "index.json"
    manifest = json.loads(index.read_text(encoding="utf-8"))
    manifest["body"]["shape"]["edges"][-1] = [20, 30]
    manifest["crc32"] = zlib.crc32(canonical_json_bytes(manifest["body"]))
    index.write_bytes(canonical_json_bytes(manifest))
    reopened = KnowledgeBase.open(tmp_path / "kb")
    assert reopened.shape == kb.shape and reopened.fingerprint() == kb.fingerprint()
    reopened.declare_shape(banded_schema())  # the same shape: commits nothing


# -- upsert ----------------------------------------------------------------------

def test_a_store_declares_one_shape_before_it_holds_a_model(tmp_path, monkeypatch):
    kb, index = KnowledgeBase.open(tmp_path / "kb"), tmp_path / "kb" / "index.json"
    with pytest.raises(StoreError, match="index.json declares no shape"):
        kb.upsert_task(make_record("athens"))
    with pytest.raises(StoreError, match="index.json declares no shape"):
        kb.set_fallback(make_fallback())
    assert not any((tmp_path / "kb").iterdir())
    kb.declare_shape(city_schema())
    kb.upsert_task(make_record("athens"))
    raw, shape = index.read_bytes(), kb.shape
    written, _ = _watch_writes(monkeypatch)
    kb.declare_shape(city_schema())  # the same shape commits nothing
    for schema in (city_schema(("a", "c")), banded_schema((1.0,))):
        with pytest.raises(SchemaMismatchError, match="index.json declares the shape"):
            kb.declare_shape(schema)
    assert written == [] and index.read_bytes() == raw
    assert kb.shape == KnowledgeBase.open(tmp_path / "kb").shape == shape


def test_upsert_new_key(tmp_path):
    kb = declared_kb(tmp_path / "kb")
    assert kb.upsert_task(make_record("athens")) == 1
    assert kb.lookup("athens").version == 1


def test_upsert_existing_key_bumps_record_version(tmp_path):
    kb = declared_kb(tmp_path / "kb")
    kb.upsert_task(make_record("athens", label="a"))
    kb.upsert_task(make_record("athens", label="b"))
    assert kb.lookup("athens").version == 2
    assert kb.kb_version == 2


def test_upsert_byte_identical_is_idempotent(tmp_path):
    kb = declared_kb(tmp_path / "kb")
    record = make_record("athens")
    v1 = kb.upsert_task(record)
    v2 = kb.upsert_task(record)
    assert v1 == v2 == kb.kb_version
    assert kb.lookup("athens").version == 1
    # the same values under other bucket counts are not the same record: the gate refuses them
    with pytest.raises(SchemaMismatchError, match="under bucket counts \\(2,\\)"):
        kb.upsert_task(replace(record, attributes=BucketedAttributes(("athens",), (2,))))


def test_upsert_bumps_on_any_changed_entry_byte_and_encodes_only_the_stored_entry(
    tmp_path, monkeypatch
):
    # the no-op is decided as the stored bytes would decide it, but a record
    # that differs in a field compared without encoding encodes one entry:
    # the one its commit stores
    encoded, real = [], kb_mod._with_model

    def counting(doc, model):
        encoded.append(doc["key"])
        return real(doc, model)

    monkeypatch.setattr(kb_mod, "_with_model", counting)
    kb = declared_kb(tmp_path / "kb")
    kb.upsert_task(make_record("athens"))
    same = make_record("athens")  # its own objects, refit to the same bytes
    assert same.model is not kb.lookup("athens").model
    encoded.clear()
    assert kb.upsert_task(same) == 1 and kb.lookup("athens").version == 1
    for changed in (
        make_record("athens", label="b"),  # a model byte
        replace(same, status=STATUS_EVAL_FAILED),
        make_record("athens", status=STATUS_EVAL_FAILED, n=4),  # the sample count
    ):
        version, before = kb.kb_version, kb.lookup("athens").version
        encoded.clear()
        assert kb.upsert_task(changed) == version + 1
        assert kb.lookup("athens").version == before + 1
        assert encoded == ["athens"]  # the stored record's, at commit
    # equal in Python but not in the entry: true is not 1, so it bumps
    kb.upsert_task(one := make_record("athens", n=1))
    version = kb.kb_version
    assert kb.upsert_task(replace(one, samples=True)) == version + 1
    # a bucket count is never a no-op: the gate refuses it
    with pytest.raises(SchemaMismatchError, match="under bucket counts \\(2,\\)"):
        kb.upsert_task(replace(one, attributes=BucketedAttributes(("athens",), (2,))))


def test_upsert_schema_mismatch_rejected(tmp_path):
    kb = declared_kb(tmp_path / "kb")
    kb.upsert_task(make_record("athens"))
    other = make_record("tokyo")
    patched = kb_mod.ModelArtifact(
        spec=other.model.spec,
        parameters=other.model.parameters,
        trained_on=other.model.trained_on,
        seed=other.model.seed,
        schema_fingerprint="f" * 16,
    )
    bad = TaskRecord(
        key="tokyo", attributes=other.attributes, model=patched,
        samples=other.samples,
    )
    with pytest.raises(SchemaMismatchError):
        kb.upsert_task(bad)


@pytest.mark.parametrize("first", [True, False])
def test_an_upsert_keyed_off_its_values_commits_nothing(tmp_path, first):
    kb = declared_kb(tmp_path / "kb")
    if not first:
        kb.upsert_task(make_record("s0"))
    index = tmp_path / "kb" / "index.json"
    raw = index.read_bytes() if index.exists() else None
    files, version = sorted(index.parent.iterdir()), kb.kb_version
    with pytest.raises(SchemaMismatchError, match=r"task 's2' has values \('s1',\), "
                                                  r"whose key is 's1'"):
        kb.upsert_task(replace(make_record("s1"), key="s2"))
    assert (index.read_bytes() if index.exists() else None) == raw
    assert sorted(index.parent.iterdir()) == files and kb.kb_version == version
    reopened = KnowledgeBase.open(tmp_path / "kb")
    assert set(kb.records) == set(reopened.records) == (set() if first else {"s0"})


@pytest.mark.parametrize("parameters", [{"classes": ["b", "a"]}, {"n_features": 2}])
def test_the_store_gate_refuses_a_model_of_other_classes_or_feature_count(tmp_path, parameters):
    kb = declared_kb(tmp_path / "kb")
    kb.upsert_task(make_record("athens"))
    fingerprint, raw = kb.fingerprint(), (tmp_path / "kb" / "index.json").read_bytes()
    record = make_record("tokyo")
    model = replace(record.model, parameters={**record.model.parameters, **parameters})
    with pytest.raises(SchemaMismatchError, match="does not serve schema"):
        kb.upsert_task(replace(record, model=model))
    with pytest.raises(SchemaMismatchError, match="does not serve schema"):
        kb.set_fallback(model)
    assert kb.fingerprint() == fingerprint and kb.fallback is None
    assert (tmp_path / "kb" / "index.json").read_bytes() == raw


def test_upsert_then_lookup_returns_model_bytes(tmp_path):
    kb = declared_kb(tmp_path / "kb")
    record = make_record("athens")
    kb.upsert_task(record)
    assert serialize_model(kb.lookup("athens").model) == serialize_model(record.model)


# -- lookup ------------------------------------------------------------------------

def test_lookup_missing_is_none(tmp_path):
    kb = declared_kb(tmp_path / "kb")
    assert kb.lookup("athens") is None


def test_lookup_one_bucket_off_not_found(tmp_path):
    bucketing = BucketingConfig((None, (10.0, 20.0)))
    kb = declared_kb(tmp_path / "kb", banded_schema((10.0, 20.0)))
    ds = city_dataset([(1.0, "p", "a")] * 2)
    model = fit(EstimatorSpec("majority"), ds, 0)
    attrs = bucket_attributes(("p", 5.0), bucketing)
    kb.upsert_task(TaskRecord(
        key=task_key(attrs), attributes=attrs, model=model,
        samples=len(ds),
    ))
    neighbor = bucket_attributes(("p", 15.0), bucketing)
    # oracle: no stored record has this bucketed tuple
    assert all(rec.attributes != neighbor for rec in kb.records.values())
    assert kb.lookup(task_key(neighbor)) is None


# -- fallback and snapshots -------------------------------------------------------------

def test_set_fallback_bumps_version(tmp_path):
    kb = declared_kb(tmp_path / "kb")
    assert kb.set_fallback(make_fallback()) == 1


def test_snapshot_carries_latest_fallback(tmp_path):
    kb = declared_kb(tmp_path / "kb")
    kb.set_fallback(make_fallback("a"))
    kb.set_fallback(make_fallback("b"))
    snapshot = kb.snapshot()
    assert predict(snapshot.fallback, (0.0,)) == "b"


def test_snapshot_contains_only_deployable(tmp_path):
    kb = declared_kb(tmp_path / "kb")
    kb.upsert_task(make_record("athens", status=STATUS_DEPLOYABLE))
    kb.upsert_task(make_record("tokyo", status=STATUS_EVAL_FAILED))
    kb.set_fallback(make_fallback())
    snapshot = kb.snapshot()
    assert set(snapshot.tasks) == {"athens"}
    assert snapshot.snapshot_version == kb.kb_version


def test_snapshot_fallback_only_cold_start(tmp_path):
    kb = declared_kb(tmp_path / "kb")
    kb.set_fallback(make_fallback())
    snapshot = kb.snapshot()
    assert snapshot.tasks == {}
    assert snapshot.fallback is not None


def test_snapshot_nothing_deployable_rejected(tmp_path):
    kb = declared_kb(tmp_path / "kb")
    kb.upsert_task(make_record("athens", status=STATUS_TRAINED))
    with pytest.raises(NothingDeployableError):
        kb.snapshot()


def test_snapshot_isolated_from_later_mutations(tmp_path):
    kb = declared_kb(tmp_path / "kb")
    kb.upsert_task(make_record("athens", label="a", status=STATUS_DEPLOYABLE))
    snapshot = kb.snapshot()
    before = predict(snapshot.tasks["athens"].model, (1.0,))
    kb.upsert_task(make_record("athens", label="b"))
    kb.set_fallback(make_fallback("b"))
    assert predict(snapshot.tasks["athens"].model, (1.0,)) == before == "a"


def test_snapshot_serialization_round_trip(tmp_path):
    kb = declared_kb(tmp_path / "kb")
    kb.upsert_task(make_record("athens", status=STATUS_DEPLOYABLE))
    kb.set_fallback(make_fallback())
    snapshot = kb.snapshot()
    data = serialize_snapshot(snapshot)
    clone = deserialize_snapshot(data)
    assert serialize_snapshot(clone) == data
    assert clone.snapshot_version == snapshot.snapshot_version
    assert predict(clone.tasks["athens"].model, (0.0,)) == "a"


def _snapshot_encoded_whole(snapshot) -> bytes:
    """The snapshot encoded whole, as one dict, from its document."""
    return canonical_json_bytes({
        "format": 1,
        "snapshot_version": snapshot.snapshot_version,
        "schema_fingerprint": snapshot.schema_fingerprint,
        "tasks": {
            key: {
                "attributes": {"values": list(entry.attributes.values),
                               "bucket_counts": list(entry.attributes.bucket_counts)},
                "model": model_to_json(entry.model),
            }
            for key, entry in snapshot.tasks.items()
        },
        "fallback": None if snapshot.fallback is None else model_to_json(snapshot.fallback),
    })


# categorical values that JSON escapes, that the task key escapes, that read as
# the spliced "model" key, and that are not ASCII
AWKWARD_CITIES = ('say "hi"', "back\\slash\\", "pi|pe", '"model":0', '{"model":0}',
                  "Zürich", "東京", "\\u00e9")


def awkward_record(city: str, label: str = "a") -> TaskRecord:
    return replace(make_record(city, label=label, status=STATUS_DEPLOYABLE),
                   key=values_key((city,)))


def test_a_spliced_snapshot_and_manifest_equal_their_whole_encoding(tmp_path):
    kb = declared_kb(tmp_path / "kb")
    empty = kb_mod.DeploySnapshot(0, kb.schema_fingerprint, {}, None)
    assert serialize_snapshot(empty) == _snapshot_encoded_whole(empty)
    for i, city in enumerate(AWKWARD_CITIES):
        kb.upsert_task(awkward_record(city, label="ab"[i % 2]))
        snapshot = kb.snapshot()
        assert serialize_snapshot(snapshot) == _snapshot_encoded_whole(snapshot), city
        assert (tmp_path / "kb" / "index.json").read_bytes() == _manifest_from_scratch(kb), city
    kb.set_fallback(make_fallback())
    snapshot = kb.snapshot()
    assert len(snapshot.tasks) == len(AWKWARD_CITIES) and snapshot.fallback is not None
    assert serialize_snapshot(snapshot) == _snapshot_encoded_whole(snapshot)
    assert deserialize_snapshot(serialize_snapshot(snapshot)) == snapshot


def test_a_snapshot_right_after_a_commit_encodes_no_model(tmp_path, monkeypatch):
    kb = declared_kb(tmp_path / "kb")
    kb.upsert_task(make_record("athens", status=STATUS_DEPLOYABLE))
    kb.upsert_task(make_record("tokyo", label="b", status=STATUS_DEPLOYABLE))
    kb.set_fallback(make_fallback())
    _, serialized = _watch_writes(monkeypatch)
    serialize_snapshot(kb.snapshot())
    assert serialized == []
    # a reopened store's commit encodes each model once, and its snapshot none
    reopened = KnowledgeBase.open(tmp_path / "kb")
    reopened.save()
    assert len(serialized) == 3
    assert serialize_snapshot(reopened.snapshot()) == serialize_snapshot(kb.snapshot())
    assert len(serialized) == 3


def _set_at(doc, path: tuple, value) -> None:
    """Set *value* at *path*, a tuple of keys into nested objects."""
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value


@pytest.mark.parametrize("corrupt, error", [
    ("task-not-an-object", "not an object"),
    ("task-missing-key", r"missing \['seed'\]"),
    ("fallback-format-version", "unsupported model format version"),
    ("fallback-unknown-kind", "unknown learner kind"),
    ("task-nan-parameter", "corrupt snapshot payload"),
    # (path, value): the value set at that path of the snapshot document
    ((("tasks",), []), r"tasks \[\] is not an object"),
    ((("tasks",), "ab"), "tasks 'ab' is not an object"),
    ((("tasks",), None), "tasks None is not an object"),
    ((("tasks", "athens", "model", "parameters"), []), r"parameters \[\] is not an object"),
    ((("fallback", "parameters"), {}), "n_features None is not an integer >= 1"),
    ((("tasks", "athens", "model", "parameters", "n_features"), "2"),
     "n_features '2' is not an integer >= 1"),
    ((("fallback", "parameters", "n_features"), 0), "n_features 0 is not an integer >= 1"),
    ((("fallback", "parameters", "n_features"), True), "n_features True is not an integer"),
    ((("tasks", "athens", "model", "parameters", "classes"), "ab"),
     "classes 'ab' is not a list of strings"),
    ((("fallback", "parameters", "classes"), ["a", 1]),
     r"classes \['a', 1\] is not a list of strings"),
    ((("tasks", "athens", "model", "schema_fingerprint"), 5),
     "schema_fingerprint 5 is not a string"),
    ((("fallback", "parameters", "classes"), []), r"classes \[\] names no class"),
    ((("tasks", "athens", "model", "parameters", "label_index"), 2),
     r"label_index 2 is not an integer in \[0, 2\)"),
])
def test_snapshot_decode_checks_every_model_entry(tmp_path, corrupt, error):
    kb = declared_kb(tmp_path / "kb")
    kb.upsert_task(make_record("athens", status=STATUS_DEPLOYABLE))
    kb.set_fallback(make_fallback())
    doc = json.loads(serialize_snapshot(kb.snapshot()))
    task, fallback = doc["tasks"]["athens"]["model"], doc["fallback"]
    if isinstance(corrupt, tuple):
        _set_at(doc, *corrupt)
    elif corrupt == "task-not-an-object":
        doc["tasks"]["athens"]["model"] = [task]
    elif corrupt == "task-missing-key":
        del task["seed"]
    elif corrupt == "fallback-format-version":
        fallback["format_version"] = 99
    elif corrupt == "fallback-unknown-kind":
        fallback["kind"] = "no-such-learner"
    else:
        task["parameters"]["nan"] = float("nan")
    with pytest.raises(SerializationError, match=error) as raised:
        deserialize_snapshot(json.dumps(doc).encode("utf-8"))
    assert isinstance(raised.value, UnknownLearnerError) == (corrupt == "fallback-unknown-kind")


@pytest.mark.parametrize("fmt", [99, 2, 0, None, True, 1.0, "absent"])
def test_snapshot_payload_of_another_format_is_rejected(tmp_path, fmt):
    kb = declared_kb(tmp_path / "kb")
    kb.upsert_task(make_record("athens", status=STATUS_DEPLOYABLE))
    doc = json.loads(serialize_snapshot(kb.snapshot()))
    if fmt == "absent":
        del doc["format"]
    else:
        doc["format"] = fmt
    with pytest.raises(SerializationError, match="format"):
        deserialize_snapshot(canonical_json_bytes(doc))


# -- record invariants and eval updates ---------------------------------------------------

def test_record_deployable_requires_eval():
    base = make_record("athens")
    with pytest.raises(StoreError, match="eval"):
        TaskRecord(
            key=base.key, attributes=base.attributes, model=base.model,
            samples=base.samples,
            status=STATUS_DEPLOYABLE, eval=None,
        )


def test_record_eval_updates_status_not_record_version(tmp_path):
    kb = declared_kb(tmp_path / "kb")
    kb.upsert_task(make_record("athens"))
    metrics = EvalMetrics.from_counts(("a", "b"), ((2, 0), (0, 1)))
    v = kb.record_eval("athens", STATUS_DEPLOYABLE, metrics)
    assert v == 2
    record = kb.lookup("athens")
    assert record.status == STATUS_DEPLOYABLE
    assert record.version == 1
    assert record.eval == metrics


def test_record_eval_unknown_key_rejected(tmp_path):
    kb = declared_kb(tmp_path / "kb")
    with pytest.raises(StoreError, match="unknown task"):
        kb.record_eval("ghost", STATUS_DEPLOYABLE, None)


# -- monotone memory ---------------------------------------------------------------------

def test_monotone_memory_over_random_operations(tmp_path, rng):
    kb = declared_kb(tmp_path / "kb")
    keys_seen: set[str] = set()
    last_version = 0
    cities = ["athens", "tokyo", "oslo", "lima"]
    for step in range(40):
        op = rng.choice(["upsert", "fallback", "eval"])
        if op == "upsert":
            kb.upsert_task(make_record(rng.choice(cities), label=rng.choice("ab")))
        elif op == "fallback":
            kb.set_fallback(make_fallback(rng.choice("ab")))
        elif op == "eval" and kb.records:
            key = rng.choice(sorted(kb.records))
            metrics = EvalMetrics.from_counts(("a", "b"), ((1, 0), (0, 0)))
            kb.record_eval(key, rng.choice([STATUS_DEPLOYABLE, STATUS_EVAL_FAILED]), metrics)
        assert kb.kb_version >= last_version
        assert keys_seen <= set(kb.records)
        keys_seen = set(kb.records)
        last_version = kb.kb_version
    reopened = KnowledgeBase.open(tmp_path / "kb")
    assert set(reopened.records) == keys_seen
    assert reopened.kb_version == last_version
