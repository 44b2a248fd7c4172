"""Mutation check over every stored and shipped field.

One field of a thermal5 store's manifest body (its inline models included),
or of its deployed snapshot, is set to one of a fixed set of replacement
values, under a valid checksum. Each case must end in an ``EdgeLearnError``,
or the store must open and ship a snapshot an edge of the store's schema
applies (the snapshot case: the edge must apply it). No other exception is
allowed on either side. The cases are a seeded, bounded sample of every
(field, value) pair; enumerate them all in a scratch run when a codec
changes (about 11 700 manifest and 9 700 snapshot cases).
"""

from __future__ import annotations

import json
import random
import zlib

import pytest

from edgelearn.cli import cli_main
from edgelearn.data import parse_schema
from edgelearn.edge import EdgeRuntime
from edgelearn.errors import EdgeLearnError
from edgelearn.kb import KnowledgeBase, deserialize_snapshot, serialize_snapshot
from edgelearn.learners import canonical_json_bytes
from edgelearn.reference import reference_text
from edgelearn.tasks import BucketingConfig

# null, booleans, small ints, a fraction, a huge finite number, strings, and
# empty and one-element lists and objects
VALUES = (None, True, False, -1, 0, 1, 2, 3, 1.5, 1e300, "", "a", "site_a",
          [], [0], {}, {"a": 0})
STORE_CASES, SNAPSHOT_CASES = 400, 500  # keeps the module within ~2 s


@pytest.fixture(scope="module")
def thermal5(tmp_path_factory):
    """bench gen thermal5, then job train, eval and deploy on all of it;
    returns the work directory and an edge factory of the store's schema."""
    work = tmp_path_factory.mktemp("mutation")
    for name in ("thermal_schema.json", "thermal_job.json", "thermal5_synthetic.json"):
        (work / name).write_text(reference_text(name), encoding="utf-8")
    data = work / "data.csv"
    assert cli_main(["bench", "gen", "--config", str(work / "thermal5_synthetic.json"),
                     "--out", str(data)]) == 0
    base = ["--kb", str(work / "kb"), "--schema", str(work / "thermal_schema.json"),
            "--config", str(work / "thermal_job.json")]
    assert cli_main(["job", "train", *base, "--data", str(data)]) == 0
    assert cli_main(["job", "eval", *base, "--data", str(data)]) == 0
    assert cli_main(["job", "deploy", *base, "--out", str(work / "snap.json")]) == 0
    schema = parse_schema((work / "thermal_schema.json").read_text(encoding="utf-8"))
    return work, lambda: EdgeRuntime(schema, BucketingConfig.from_schema(schema))


def _paths(doc, prefix=()):
    """The path of every value inside *doc*: each object key and list index,
    at every depth."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _cases(doc, seed: int, k: int):
    """A seeded sample of *k* (path, value) pairs over *doc*. Each pair sets
    the value in *doc* while the caller handles it, then restores it."""
    pairs = [(path, value) for path in _paths(doc) for value in VALUES]
    for path, value in random.Random(seed).sample(pairs, k):
        *parents, last = path
        holder = doc
        for key in parents:
            holder = holder[key]
        old, holder[last] = holder[last], value
        try:
            yield path, value
        finally:
            holder[last] = old


def _applied(edge, payload: bytes) -> str:
    """"applied" if a fresh edge applies *payload*, else the EdgeLearnError's
    class name; any other exception propagates."""
    try:
        edge().apply_snapshot(deserialize_snapshot(payload))
    except EdgeLearnError as exc:
        return type(exc).__name__
    return "applied"


def test_a_mutated_manifest_is_refused_or_ships_what_an_edge_applies(thermal5):
    work, edge = thermal5
    index = work / "kb" / "index.json"
    manifest = json.loads(index.read_bytes())
    assert manifest["format"] == 3
    outcomes = {}
    for path, value in _cases(manifest["body"], seed=25, k=STORE_CASES):
        body = canonical_json_bytes(manifest["body"])
        index.write_bytes(b'{"body":%s,"crc32":%d,"format":3}' % (body, zlib.crc32(body)))
        try:
            snapshot = KnowledgeBase.open(work / "kb", create=False).snapshot()
        except EdgeLearnError as exc:
            outcome = type(exc).__name__
        else:  # what the store ships, every edge of its schema applies
            outcome = _applied(edge, serialize_snapshot(snapshot))
            assert outcome == "applied", (path, value)
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    assert outcomes["applied"] and outcomes["CorruptStoreError"], outcomes


def test_a_mutated_snapshot_is_refused_or_applied(thermal5):
    work, edge = thermal5
    doc = json.loads((work / "snap.json").read_bytes())
    outcomes = {}
    for path, value in _cases(doc, seed=26, k=SNAPSHOT_CASES):
        outcome = _applied(edge, canonical_json_bytes(doc))
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    assert outcomes["applied"] and outcomes["SerializationError"], outcomes
