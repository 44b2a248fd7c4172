"""Knowledge base: persistence, versioning, queries, snapshots, crash safety."""

from __future__ import annotations

import json
import os
import stat
import zlib
from hashlib import sha256
from pathlib import Path

import pytest

import edgelearn.kb as kb_mod
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
    TaskRecord,
    deserialize_snapshot,
    kb_open,
    serialize_snapshot,
)
from edgelearn.learners import (
    EstimatorSpec,
    EvalMetrics,
    canonical_json_bytes,
    fit,
    predict,
    serialize_model,
)
from edgelearn.tasks import BucketedAttributes, bucket_attributes, task_key, task_similarity
from edgelearn.tasks import BucketingConfig

from conftest import city_dataset


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
    kb = kb_open(tmp_path / "kb")
    assert kb.kb_version == 0
    assert kb.records == {}
    assert kb.fallback is None


def test_save_load_round_trip_model_bytes(tmp_path):
    kb = kb_open(tmp_path / "kb")
    cities = ("athens", "tokyo", "oslo", "lima", "kota")
    for city in cities:
        kb.upsert_task(make_record(city))
    reopened = kb_open(tmp_path / "kb")
    assert set(reopened.records) == set(cities)
    assert reopened.kb_version == kb.kb_version
    for key in kb.records:
        assert serialize_model(reopened.records[key].model) == serialize_model(
            kb.records[key].model
        )
    assert reopened.fingerprint() == kb.fingerprint()


def test_flipped_bit_in_index_refuses_open(tmp_path):
    kb = kb_open(tmp_path / "kb")
    kb.upsert_task(make_record("athens"))
    index = tmp_path / "kb" / "index.json"
    raw = bytearray(index.read_bytes())
    pos = raw.find(b'"kb_version"')
    raw[pos + 15] ^= 0x01  # flip a bit inside the body
    index.write_bytes(bytes(raw))
    with pytest.raises(CorruptStoreError, match="index.json"):
        kb_open(tmp_path / "kb")


def test_flipped_bit_in_model_file_refuses_open(tmp_path):
    kb = kb_open(tmp_path / "kb")
    kb.upsert_task(make_record("athens"))
    model_file = next((tmp_path / "kb" / "models").glob("athens*.bin"))
    raw = bytearray(model_file.read_bytes())
    raw[10] ^= 0x40
    model_file.write_bytes(bytes(raw))
    with pytest.raises(CorruptStoreError, match=str(model_file.name)):
        kb_open(tmp_path / "kb")


@pytest.mark.parametrize("name, fault", [
    pytest.param(name, fault, id=name if fault == "missing" else f"{name}-{fault}")
    for fault in ("missing", "no-fields", "unknown-kind")
    for name in ("athens.1.bin", "_fallback.2.bin")
])
def test_missing_model_file_refuses_open_naming_the_file(tmp_path, name, fault):
    kb = kb_open(tmp_path / "kb")
    kb.upsert_task(make_record("athens"))
    kb.set_fallback(make_fallback())
    model_file = tmp_path / "kb" / "models" / name
    if fault == "missing":
        model_file.unlink()
        error = f"missing model file .*{name}"
    else:  # a payload that does not decode, under valid model and manifest checksums
        payload = {"format_version": 1}
        if fault == "unknown-kind":
            payload = {**json.loads(model_file.read_bytes()), "kind": "bogus"}
        model_file.write_bytes(canonical_json_bytes(payload))
        index = tmp_path / "kb" / "index.json"
        manifest = json.loads(index.read_bytes())
        body = manifest["body"]
        entry = body["fallback"] if name.startswith("_fallback") else body["tasks"][0]
        entry["crc32"] = zlib.crc32(model_file.read_bytes())
        manifest["crc32"] = zlib.crc32(canonical_json_bytes(body))
        index.write_bytes(canonical_json_bytes(manifest))
        error = f"undecodable model file .*{name}: .*" + (
            "missing" if fault == "no-fields" else "unknown learner kind 'bogus'")
    with pytest.raises(CorruptStoreError, match=error):
        kb_open(tmp_path / "kb")


def _dir_digest(path: Path) -> str:
    h = sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file() and not p.name.endswith(".tmp")):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def test_two_saves_without_mutation_identical_bytes(tmp_path):
    kb = kb_open(tmp_path / "kb")
    kb.upsert_task(make_record("athens"))
    kb.set_fallback(make_fallback())
    kb.save()
    first = _dir_digest(tmp_path / "kb")
    kb.save()
    assert _dir_digest(tmp_path / "kb") == first


def test_crash_before_index_rename_keeps_previous_state(tmp_path, monkeypatch):
    kb = kb_open(tmp_path / "kb")
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

    reopened = kb_open(tmp_path / "kb")
    assert reopened.fingerprint() == committed
    assert set(reopened.records) == {"athens"}


def test_retry_after_crash_overwrites_stale_model_file(tmp_path, monkeypatch):
    kb = kb_open(tmp_path / "kb")
    real_replace = kb_mod._replace_file

    def fail_on_index(src, dst):
        if dst.name == "index.json":
            raise OSError("injected crash")
        real_replace(src, dst)

    # first attempt writes models/athens.1.bin then dies before the index
    monkeypatch.setattr(kb_mod, "_replace_file", fail_on_index)
    with pytest.raises(OSError):
        kb.upsert_task(make_record("athens", label="a"))
    monkeypatch.setattr(kb_mod, "_replace_file", real_replace)

    # retry with different content reuses the same file name; the stale
    # bytes must be replaced or reopening would fail its checksum
    kb.upsert_task(make_record("athens", label="b"))
    reopened = kb_open(tmp_path / "kb")
    assert predict(reopened.lookup("athens").model, (0.0,)) == "b"


def test_failed_save_does_not_mutate_memory(tmp_path, monkeypatch):
    kb = kb_open(tmp_path / "kb")
    kb.upsert_task(make_record("athens"))
    version = kb.kb_version

    def always_fail(src, dst):
        raise OSError("disk full (injected)")

    monkeypatch.setattr(kb_mod, "_replace_file", always_fail)
    with pytest.raises(OSError):
        kb.upsert_task(make_record("tokyo"))
    assert kb.kb_version == version
    assert "tokyo" not in kb.records


def test_a_failed_directory_fsync_after_the_manifest_rename_keeps_the_commit(
    tmp_path, monkeypatch
):
    kb_dir = tmp_path / "kb"
    kb = kb_open(kb_dir)
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
    reopened = kb_open(kb_dir)
    assert sorted(kb.records) == sorted(reopened.records) == ["athens", "tokyo"]
    assert kb.kb_version == reopened.kb_version == 2
    assert kb.fingerprint() == reopened.fingerprint()

    # so the next commit never rewrites a file the committed manifest names
    committed = (kb_dir / "models" / "tokyo.1.bin").read_bytes()
    kb.upsert_task(make_record("tokyo", label="b"))
    assert (kb_dir / "models" / "tokyo.1.bin").read_bytes() == committed
    reopened = kb_open(kb_dir)
    assert reopened.kb_version == 3 and reopened.lookup("tokyo").version == 2
    assert predict(reopened.lookup("tokyo").model, (0.0,)) == "b"
    assert (kb_dir / "models" / "tokyo.2.bin").exists()


@pytest.mark.parametrize("fmt", [2, 0, "1", None, True, 1.0, "absent"])
def test_manifest_of_another_format_refuses_open(tmp_path, fmt):
    kb = kb_open(tmp_path / "kb")
    kb.upsert_task(make_record("athens"))
    index = tmp_path / "kb" / "index.json"
    manifest = json.loads(index.read_bytes())
    if fmt == "absent":
        del manifest["format"]
    else:
        manifest["format"] = fmt  # outside the body: its checksum stays valid
    index.write_bytes(canonical_json_bytes(manifest))
    with pytest.raises(CorruptStoreError, match="format"):
        kb_open(tmp_path / "kb")


# -- commits write only what they change --------------------------------------------

def _watch_writes(monkeypatch) -> tuple[list[str], list[object]]:
    """Records the name of every file the KB writes (a temp file under the
    name it replaces) and every model it serializes from now on."""
    written: list[str] = []
    serialized: list[object] = []
    real_write = kb_mod._write_synced
    real_serialize = kb_mod.serialize_model

    def counting_write(path, data):
        written.append(path.name.removesuffix(".tmp"))
        real_write(path, data)

    def counting_serialize(model):
        serialized.append(model)
        return real_serialize(model)

    monkeypatch.setattr(kb_mod, "_write_synced", counting_write)
    monkeypatch.setattr(kb_mod, "serialize_model", counting_serialize)
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
    kb = kb_open(tmp_path / "kb")
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


def test_upsert_replaces_one_model_file_and_the_index(tmp_path, monkeypatch):
    kb = kb_open(tmp_path / "kb")
    kb.upsert_task(make_record("athens"))
    kb.set_fallback(make_fallback())
    written, serialized = _watch_writes(monkeypatch)
    replaced = _watch_replaces(monkeypatch)
    tokyo = make_record("tokyo")
    athens = make_record("athens", label="b", n=4)
    kb.upsert_task(tokyo)
    kb.upsert_task(athens)
    assert written == ["tokyo.1.bin", "index.json", "athens.2.bin", "index.json"]
    assert replaced == ["index.json", "index.json"]  # model files are written in place
    assert serialized == [tokyo.model, athens.model]


def test_set_fallback_replaces_one_fallback_file_and_the_index(tmp_path, monkeypatch):
    kb = kb_open(tmp_path / "kb")
    kb.upsert_task(make_record("athens"))
    kb.upsert_task(make_record("tokyo"))
    kb.set_fallback(make_fallback("a"))
    written, serialized = _watch_writes(monkeypatch)
    replaced = _watch_replaces(monkeypatch)
    fallback = make_fallback("b")
    kb.set_fallback(fallback)
    assert written == ["_fallback.4.bin", "index.json"]
    assert replaced == ["index.json"]
    assert serialized == [fallback]


def test_every_write_fsyncs_the_file_before_the_rename_and_the_directory_after(
    tmp_path, monkeypatch
):
    kb = kb_open(tmp_path / "kb")
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
    kb.upsert_task(make_record("athens"))
    # the model file is written in place and synced, then models/ once (the
    # barrier), then the manifest through a synced temp file and a rename
    assert events == [
        "fsync file", "fsync dir ['athens.1.bin']",
        "fsync file", "index.json", "fsync dir ['index.json', 'models']",
    ]
    events.clear()
    kb.record_eval("athens", STATUS_DEPLOYABLE, EvalMetrics.from_counts(("a", "b"), ((3, 0), (0, 0))))
    assert events == ["fsync file", "index.json", "fsync dir ['index.json', 'models']"]
    events.clear()
    with kb.transaction():
        kb.upsert_task(make_record("tokyo"))
        kb.set_fallback(make_fallback())
    assert events == [
        "fsync file", "fsync file", "fsync dir ['_fallback.4.bin', 'athens.1.bin', 'tokyo.1.bin']",
        "fsync file", "index.json", "fsync dir ['index.json', 'models']",
    ]


# -- transactions ----------------------------------------------------------------

def test_transaction_commits_once_and_nested_blocks_join_it(tmp_path, monkeypatch):
    kb = kb_open(tmp_path / "kb")
    written, _ = _watch_writes(monkeypatch)
    with kb.transaction():
        kb.upsert_task(make_record("athens"))
        with kb.transaction():
            kb.upsert_task(make_record("tokyo"))
            kb.set_fallback(make_fallback())
        kb.job = {"phase": "anything"}
        assert written == ["athens.1.bin", "tokyo.1.bin", "_fallback.3.bin"]
    assert written[-1] == "index.json" and written.count("index.json") == 1
    assert kb.kb_version == 3
    reopened = kb_open(tmp_path / "kb")
    assert reopened.fingerprint() == kb.fingerprint()
    assert reopened.job == {"phase": "anything"}


def test_transaction_that_raises_writes_no_manifest_and_restores_memory(tmp_path, monkeypatch):
    kb = kb_open(tmp_path / "kb")
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
    assert kb_open(tmp_path / "kb").fingerprint() == before
    # the next commit reuses the file names the aborted one wrote
    kb.upsert_task(make_record("tokyo", label="b"))
    reopened = kb_open(tmp_path / "kb")
    assert set(reopened.records) == {"athens", "tokyo"}
    assert predict(reopened.lookup("tokyo").model, (0.0,)) == "b"


def _manifest_from_scratch(kb) -> bytes:
    """The manifest encoded whole from the KB's in-memory state."""
    body = {
        "schema_fingerprint": kb.schema_fingerprint,
        "kb_version": kb.kb_version,
        "fallback": (
            {"model_file": kb._fallback_file[0], "crc32": kb._fallback_file[1]}
            if kb._fallback_file is not None
            else None
        ),
        "tasks": [
            {
                "key": key,
                "version": rec.version,
                "status": rec.status,
                "attributes": kb_mod._attrs_to_json(rec.attributes),
                "stats": {"count": rec.samples},
                "eval": kb_mod.metrics_to_json(rec.eval),
                "model_file": kb._model_files[key][0],
                "crc32": kb._model_files[key][1],
            }
            for key, rec in sorted(kb.records.items())
        ],
        "job": kb.job,
    }
    return canonical_json_bytes(
        {"format": 1, "crc32": zlib.crc32(canonical_json_bytes(body)), "body": body}
    )


def test_manifest_built_from_cached_entries_equals_the_whole_encoding(tmp_path, monkeypatch):
    kb = kb_open(tmp_path / "kb")
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
        reopened = kb_open(tmp_path / "kb")
        reopened.save()
        assert index.read_bytes() == _manifest_from_scratch(kb), i
    assert set(kb.records) == {"athens", "tokyo", "zurich"}


def test_reopen_store_whose_manifest_carries_relations(tmp_path):
    # older stores wrote a "relations" list into every task entry
    kb = kb_open(tmp_path / "kb")
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

    reopened = kb_open(tmp_path / "kb")
    assert reopened.records == kb.records
    assert reopened.kb_version == kb.kb_version
    assert reopened.fingerprint() == kb.fingerprint()


# -- upsert ----------------------------------------------------------------------

def test_upsert_new_key(tmp_path):
    kb = kb_open(tmp_path / "kb")
    assert kb.upsert_task(make_record("athens")) == 1
    assert kb.lookup("athens").version == 1


def test_upsert_existing_key_bumps_record_version(tmp_path):
    kb = kb_open(tmp_path / "kb")
    kb.upsert_task(make_record("athens", label="a"))
    kb.upsert_task(make_record("athens", label="b"))
    assert kb.lookup("athens").version == 2
    assert kb.kb_version == 2


def test_upsert_byte_identical_is_idempotent(tmp_path):
    kb = kb_open(tmp_path / "kb")
    record = make_record("athens")
    v1 = kb.upsert_task(record)
    v2 = kb.upsert_task(record)
    assert v1 == v2 == kb.kb_version
    assert kb.lookup("athens").version == 1


def test_upsert_schema_mismatch_rejected(tmp_path):
    kb = kb_open(tmp_path / "kb")
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


def test_upsert_then_lookup_returns_model_bytes(tmp_path):
    kb = kb_open(tmp_path / "kb")
    record = make_record("athens")
    kb.upsert_task(record)
    assert serialize_model(kb.lookup("athens").model) == serialize_model(record.model)


# -- lookup ------------------------------------------------------------------------

def test_lookup_missing_is_none(tmp_path):
    kb = kb_open(tmp_path / "kb")
    assert kb.lookup("athens") is None


def test_lookup_one_bucket_off_not_found(tmp_path):
    bucketing = BucketingConfig((None, (10.0, 20.0)))
    kb = kb_open(tmp_path / "kb")
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


# -- query_similar --------------------------------------------------------------------

def test_query_similar_self_match(tmp_path):
    kb = kb_open(tmp_path / "kb")
    kb.upsert_task(make_record("athens"))
    hits = kb.query_similar(BucketedAttributes(("athens",), (0,)), k=5)
    assert [(r.key, s) for r, s in hits] == [("athens", 1.0)]


def test_query_similar_disjoint_categorical_empty(tmp_path):
    kb = kb_open(tmp_path / "kb")
    kb.upsert_task(make_record("athens"))
    kb.upsert_task(make_record("tokyo"))
    assert kb.query_similar(BucketedAttributes(("berlin",), (0,)), k=3) == []


def test_query_similar_matches_brute_force(tmp_path, rng):
    bucketing = BucketingConfig((None, (10.0, 20.0, 30.0, 40.0)))
    kb = kb_open(tmp_path / "kb")
    stored = []
    for i in range(10):
        attrs = bucket_attributes((rng.choice("pq"), rng.uniform(0, 50)), bucketing)
        key = task_key(attrs)
        if kb.lookup(key) is not None:
            continue
        ds = city_dataset([(float(j), "x", "a") for j in range(2)])
        model = fit(EstimatorSpec("majority"), ds, 0)
        kb.upsert_task(TaskRecord(
            key=key, attributes=attrs, model=model,
            samples=len(ds),
        ))
        stored.append((key, attrs))

    query = bucket_attributes(("p", 17.0), bucketing)
    hits = kb.query_similar(query, k=3)

    brute = sorted(
        ((task_similarity(query, attrs), key) for key, attrs in stored),
        key=lambda t: (-t[0], t[1]),
    )
    brute = [(key, sim) for sim, key in brute if sim > 0.0][:3]
    assert [(r.key, s) for r, s in hits] == brute


# -- fallback and snapshots -------------------------------------------------------------

def test_set_fallback_bumps_version(tmp_path):
    kb = kb_open(tmp_path / "kb")
    assert kb.set_fallback(make_fallback()) == 1


def test_snapshot_carries_latest_fallback(tmp_path):
    kb = kb_open(tmp_path / "kb")
    kb.set_fallback(make_fallback("a"))
    kb.set_fallback(make_fallback("b"))
    snapshot = kb.snapshot()
    assert predict(snapshot.fallback, (0.0,)) == "b"


def test_snapshot_contains_only_deployable(tmp_path):
    kb = kb_open(tmp_path / "kb")
    kb.upsert_task(make_record("athens", status=STATUS_DEPLOYABLE))
    kb.upsert_task(make_record("tokyo", status=STATUS_EVAL_FAILED))
    kb.set_fallback(make_fallback())
    snapshot = kb.snapshot()
    assert set(snapshot.tasks) == {"athens"}
    assert snapshot.snapshot_version == kb.kb_version


def test_snapshot_fallback_only_cold_start(tmp_path):
    kb = kb_open(tmp_path / "kb")
    kb.set_fallback(make_fallback())
    snapshot = kb.snapshot()
    assert snapshot.tasks == {}
    assert snapshot.fallback is not None


def test_snapshot_nothing_deployable_rejected(tmp_path):
    kb = kb_open(tmp_path / "kb")
    kb.upsert_task(make_record("athens", status=STATUS_TRAINED))
    with pytest.raises(NothingDeployableError):
        kb.snapshot()


def test_snapshot_isolated_from_later_mutations(tmp_path):
    kb = kb_open(tmp_path / "kb")
    kb.upsert_task(make_record("athens", label="a", status=STATUS_DEPLOYABLE))
    snapshot = kb.snapshot()
    before = predict(snapshot.tasks["athens"].model, (1.0,))
    kb.upsert_task(make_record("athens", label="b"))
    kb.set_fallback(make_fallback("b"))
    assert predict(snapshot.tasks["athens"].model, (1.0,)) == before == "a"


def test_snapshot_serialization_round_trip(tmp_path):
    kb = kb_open(tmp_path / "kb")
    kb.upsert_task(make_record("athens", status=STATUS_DEPLOYABLE))
    kb.set_fallback(make_fallback())
    snapshot = kb.snapshot()
    data = serialize_snapshot(snapshot)
    clone = deserialize_snapshot(data)
    assert serialize_snapshot(clone) == data
    assert clone.snapshot_version == snapshot.snapshot_version
    assert predict(clone.tasks["athens"].model, (0.0,)) == "a"


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
])
def test_snapshot_decode_checks_every_model_entry(tmp_path, corrupt, error):
    kb = kb_open(tmp_path / "kb")
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
    kb = kb_open(tmp_path / "kb")
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
    kb = kb_open(tmp_path / "kb")
    kb.upsert_task(make_record("athens"))
    metrics = EvalMetrics.from_counts(("a", "b"), ((2, 0), (0, 1)))
    v = kb.record_eval("athens", STATUS_DEPLOYABLE, metrics)
    assert v == 2
    record = kb.lookup("athens")
    assert record.status == STATUS_DEPLOYABLE
    assert record.version == 1
    assert record.eval == metrics


def test_record_eval_unknown_key_rejected(tmp_path):
    kb = kb_open(tmp_path / "kb")
    with pytest.raises(StoreError, match="unknown task"):
        kb.record_eval("ghost", STATUS_DEPLOYABLE, None)


# -- monotone memory ---------------------------------------------------------------------

def test_monotone_memory_over_random_operations(tmp_path, rng):
    kb = kb_open(tmp_path / "kb")
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
    reopened = kb_open(tmp_path / "kb")
    assert set(reopened.records) == keys_seen
    assert reopened.kb_version == last_version
