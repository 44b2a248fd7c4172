"""Edge runtime: allocation, routing, buffering, triggering, atomicity."""

from __future__ import annotations

import json
import random
import sys
import threading

import pytest

from edgelearn import edge
from edgelearn.data import AttributeKind, DatasetSchema, Sample
from edgelearn.edge import (
    ROUTE_FALLBACK,
    ROUTE_KNOWN,
    ROUTE_SIMILAR,
    EdgeRuntime,
    allocate_task,
)
from edgelearn.errors import ConfigError, DataError, NoModelError, SchemaMismatchError
from edgelearn.job import TriggerPolicy
from edgelearn.kb import DeploySnapshot, SnapshotEntry
from edgelearn.learners import EstimatorSpec, fit, predict
from edgelearn.tasks import (
    BucketedAttributes,
    BucketingConfig,
    bucket_attributes,
    task_key,
    task_similarity,
)

from conftest import banded_schema, city_dataset, city_schema


def constant_model(label: str, classes=("a", "b")):
    """Majority model that always predicts *label*."""
    ds = city_dataset([(0.0, "x", label), (1.0, "x", label)], classes=classes)
    return fit(EstimatorSpec("majority"), ds, seed=0)


def snapshot_of(version: int, entries: dict, fallback=None) -> DeploySnapshot:
    tasks = {
        key: SnapshotEntry(model=model, attributes=attrs)
        for key, (model, attrs) in entries.items()
    }
    fingerprint = None
    for model, _ in entries.values():
        fingerprint = model.schema_fingerprint
    if fallback is not None:
        fingerprint = fallback.schema_fingerprint
    return DeploySnapshot(
        snapshot_version=version, schema_fingerprint=fingerprint,
        tasks=tasks, fallback=fallback,
    )


def city_snapshot(version=1, cities=("athens",), fallback_label=None):
    entries = {}
    for i, city in enumerate(cities):
        entries[city] = (constant_model("ab"[i % 2]), BucketedAttributes((city,), (0,)))
    fallback = constant_model(fallback_label) if fallback_label else None
    return snapshot_of(version, entries, fallback)


CITY_BUCKETING = BucketingConfig((None,))


def city_runtime(snapshot=None, sigma=0.75):
    runtime = EdgeRuntime(city_schema(), CITY_BUCKETING, similarity_threshold=sigma)
    if snapshot is not None:
        runtime.apply_snapshot(snapshot)
    return runtime


# -- allocate_task -------------------------------------------------------------

def test_allocate_known_city():
    snap = city_snapshot(cities=("athens",))
    assert allocate_task(snap, ("athens",), CITY_BUCKETING) == "athens"


def test_allocate_unknown_city():
    snap = city_snapshot(cities=("athens",))
    assert allocate_task(snap, ("tokyo",), CITY_BUCKETING) is None


def test_allocate_empty_snapshot_always_unknown():
    snap = snapshot_of(1, {}, fallback=constant_model("a"))
    assert allocate_task(snap, ("anything",), CITY_BUCKETING) is None


# -- infer routing ----------------------------------------------------------------

def test_only_unknown_routes_build_bucketed_attributes(monkeypatch):
    built = []

    class Counting(BucketedAttributes):
        def __post_init__(self):
            built.append(self.values)
            super().__post_init__()

    monkeypatch.setattr(edge, "BucketedAttributes", Counting)
    runtime = city_runtime(city_snapshot(cities=("athens",), fallback_label="b"))
    assert runtime.infer(Sample((1.0,), ("athens",))).route == ROUTE_KNOWN
    assert built == []
    assert runtime.infer(Sample((1.0,), ("oslo",))).route == ROUTE_FALLBACK
    assert built == [("oslo",)]


def test_prediction_is_immutable():
    pred = city_runtime(city_snapshot()).infer(Sample((1.0,), ("athens",)))
    for field in ("label", "route", "task_key", "similarity", "snapshot_version"):
        with pytest.raises(AttributeError):
            setattr(pred, field, None)


def test_infer_known_route():
    runtime = city_runtime(city_snapshot(cities=("athens",), fallback_label="b"))
    pred = runtime.infer(Sample((1.0,), ("athens",)))
    assert pred.route == ROUTE_KNOWN
    assert pred.task_key == "athens"
    assert pred.label == "a"
    assert runtime.counters["known_hits"] == 1
    assert runtime.counters["unknown_hits"] == 0


def test_infer_unknown_low_similarity_goes_fallback():
    # categorical-only: best similarity to a different city is 0 < sigma=0.9
    runtime = city_runtime(city_snapshot(cities=("athens",), fallback_label="b"), sigma=0.9)
    pred = runtime.infer(Sample((1.0,), ("tokyo",)))
    assert pred.route == ROUTE_FALLBACK
    assert pred.label == "b"
    assert runtime.counters["unknown_hits"] == 1
    assert runtime.status()["unseen_buffer"] == 1


def test_infer_unknown_midrange_similarity_below_threshold_goes_fallback():
    # best similarity 0.5 (one bucket away, B=3) under sigma=0.9 -> fallback
    schema = banded_schema((20.0, 30.0))
    bucketing = BucketingConfig.from_schema(schema)
    attrs_known = bucket_attributes(("p", 25.0), bucketing)  # bucket 1
    ds = city_dataset([(0.0, "x", "a"), (1.0, "x", "a")])
    model = fit(EstimatorSpec("majority"), ds, seed=0)
    fallback = constant_model("b")
    snap = snapshot_of(1, {task_key(attrs_known): (model, attrs_known)}, fallback)
    runtime = EdgeRuntime(schema, bucketing, similarity_threshold=0.9)
    runtime.apply_snapshot(snap)

    pred = runtime.infer(Sample((1.0,), ("p", 35.0)))  # bucket 2: sim (1+0.5)/2
    assert pred.route == ROUTE_FALLBACK
    assert pred.label == "b"
    assert runtime.status()["unseen_buffer"] == 1


def test_infer_unknown_neighbor_bucket_routes_similar():
    # numeric attribute with B=5 buckets: adjacent bucket similarity 0.75 >= sigma
    schema = banded_schema((10.0, 20.0, 30.0, 40.0))
    bucketing = BucketingConfig.from_schema(schema)
    attrs_known = bucket_attributes(("p", 15.0), bucketing)   # bucket 1
    ds = city_dataset([(0.0, "x", "a"), (1.0, "x", "a")])
    model = fit(EstimatorSpec("majority"), ds, seed=0)
    snap = snapshot_of(1, {task_key(attrs_known): (model, attrs_known)})
    runtime = EdgeRuntime(schema, bucketing, similarity_threshold=0.75)
    runtime.apply_snapshot(snap)

    pred = runtime.infer(Sample((1.0,), ("p", 25.0)))  # bucket 2, sim (1+0.75)/2=0.875
    assert pred.route == ROUTE_SIMILAR
    assert pred.task_key == task_key(attrs_known)
    assert pred.similarity == pytest.approx(0.875)


def test_infer_no_model_error_counted():
    runtime = city_runtime(city_snapshot(cities=("athens",)), sigma=0.9)
    with pytest.raises(NoModelError):
        runtime.infer(Sample((1.0,), ("tokyo",)))
    assert runtime.counters["no_model_errors"] == 1
    assert runtime.counters["unknown_hits"] == 1
    assert runtime.status()["unseen_buffer"] == 1  # still escalated for labeling


def test_no_model_error_reports_the_best_similarity_over_every_task():
    # the nearest task shares no categorical value with the query, so the
    # similar-route lookup never scores it; the message still names it
    schema = banded_schema((20.0, 30.0))
    bucketing = BucketingConfig.from_schema(schema)
    near = bucket_attributes(("q", 25.0), bucketing)    # sim to ("p", 25.0): (0+1)/2
    far = bucket_attributes(("r", 35.0), bucketing)     # sim: (0+0.5)/2
    snap = snapshot_of(1, {task_key(a): (constant_model("a"), a) for a in (near, far)})
    runtime = EdgeRuntime(schema, bucketing, similarity_threshold=0.9)
    runtime.apply_snapshot(snap)
    with pytest.raises(NoModelError, match=r"best similarity 0\.5 below threshold 0\.9"):
        runtime.infer(Sample((1.0,), ("p", 25.0)))
    with pytest.raises(NoModelError, match=r"best similarity 0\.75 below threshold 0\.9"):
        runtime.infer(Sample((1.0,), ("q", 35.0)))
    with pytest.raises(NoModelError, match=r"best similarity 0\.0 below"):
        city_runtime(city_snapshot(cities=("athens",)), sigma=0.9).infer(
            Sample((1.0,), ("tokyo",)))
    assert runtime.counters["no_model_errors"] == 2


def _scan_route(snapshot, bucketed, threshold):
    """Route by scoring every snapshot task in key order: the reference the
    runtime's task index must agree with."""
    key = task_key(bucketed)
    if key in snapshot.tasks:
        return ROUTE_KNOWN, key, None
    best_key, best_sim = None, 0.0
    for task, entry in sorted(snapshot.tasks.items()):
        sim = task_similarity(bucketed, entry.attributes)
        if sim > best_sim:
            best_key, best_sim = task, sim
    if best_key is not None and best_sim >= threshold:
        return ROUTE_SIMILAR, best_key, best_sim
    return ROUTE_FALLBACK, None, None


def test_task_index_routes_exactly_like_a_full_scan():
    rng = random.Random(2024)
    models = {label: constant_model(label) for label in "ab"}
    ties = cross_group = 0
    for _ in range(60):
        kinds = [AttributeKind("categorical")] * rng.randint(1, 3) + [
            AttributeKind("numeric", tuple(float(e) for e in range(1, rng.randint(1, 6))))
            for _ in range(rng.randint(1, 2))
        ]
        rng.shuffle(kinds)
        schema = DatasetSchema(
            feature_columns=("x",), label_column="y", label_classes=("a", "b"),
            attribute_columns=tuple(f"c{i}" for i in range(len(kinds))),
            attribute_kinds=tuple(kinds),
        )
        bucketing = BucketingConfig.from_schema(schema)

        def raw(alphabet):
            # small alphabets and bucket ranges make equal similarities common
            return tuple(
                rng.choice(alphabet) if kind.kind == "categorical"
                else rng.randint(0, len(kind.edges)) + 0.5
                for kind in kinds
            )

        entries = {}
        for _ in range(rng.randint(1, 25)):
            attrs = bucket_attributes(raw("pq"), bucketing)
            entries[task_key(attrs)] = (models[rng.choice("ab")], attrs)
        snap = snapshot_of(1, entries, fallback=constant_model("b"))
        queries = [raw("pqz") for _ in range(30)]
        for threshold in (0.0, 0.3, 0.5, 0.75, 0.9, 1.0):
            runtime = EdgeRuntime(schema, bucketing, similarity_threshold=threshold)
            runtime.apply_snapshot(snap)
            for attrs in queries:
                bucketed = bucket_attributes(attrs, bucketing)
                route, key, sim = _scan_route(snap, bucketed, threshold)
                pred = runtime.infer(Sample((0.0,), attrs))
                assert (pred.route, pred.task_key, repr(pred.similarity)) == (
                    route, key, repr(sim)
                ), (attrs, threshold)
                model = snap.tasks[key].model if key is not None else snap.fallback
                assert pred.label == predict(model, (0.0,))
                if route == ROUTE_SIMILAR:
                    scores = [task_similarity(bucketed, e.attributes) for e in snap.tasks.values()]
                    ties += scores.count(sim) > 1
                    shared = [a == b for a, b, count in zip(
                        bucketed.values, snap.tasks[key].attributes.values,
                        bucketed.bucket_counts) if count == 0]
                    cross_group += not all(shared)
    assert ties > 0 and cross_group > 0  # both cases were exercised


def test_infer_before_any_snapshot_errors():
    runtime = city_runtime()
    with pytest.raises(NoModelError, match="no snapshot"):
        runtime.infer(Sample((1.0,), ("athens",)))


def test_infer_feature_mismatch_rejected():
    runtime = city_runtime(city_snapshot())
    with pytest.raises(DataError, match="expected 1 features"):
        runtime.infer(Sample((1.0, 2.0), ("athens",)))


def test_route_soundness_known_uses_that_tasks_model():
    # every task model predicts a distinct constant; the route must match it
    cities = ("athens", "tokyo")
    snap = city_snapshot(cities=cities, fallback_label="b")
    runtime = city_runtime(snap)
    for i, city in enumerate(cities):
        pred = runtime.infer(Sample((5.0,), (city,)))
        assert pred.route == ROUTE_KNOWN
        assert pred.label == "ab"[i % 2]
        assert pred.snapshot_version == snap.snapshot_version


# -- feedback ----------------------------------------------------------------------

def test_ingest_feedback_accepts_valid():
    runtime = city_runtime(city_snapshot())
    samples = [Sample((float(i),), ("athens",), "a") for i in range(5)]
    result = runtime.ingest_feedback(samples)
    assert result.accepted == 5
    assert result.rejected == ()


def test_ingest_feedback_rejects_individually():
    runtime = city_runtime(city_snapshot())
    samples = [
        Sample((1.0,), ("athens",), "a"),
        Sample((2.0,), ("athens",), None),       # unlabeled
        Sample((3.0,), ("athens",), "a"),
        Sample((4.0, 5.0), ("athens",), "a"),    # wrong feature count
        Sample((5.0,), ("athens",), "a"),
    ]
    result = runtime.ingest_feedback(samples)
    assert result.accepted == 3
    reasons = dict(result.rejected)
    assert reasons[1] == "unlabeled"
    assert "features" in reasons[3]


def test_ingest_feedback_empty_list():
    runtime = city_runtime(city_snapshot())
    assert runtime.ingest_feedback([]).accepted == 0


# -- trigger ------------------------------------------------------------------------

def test_fire_trigger_thresholds():
    runtime = city_runtime(city_snapshot())
    policy = TriggerPolicy(unseen_threshold=10)
    runtime.ingest_feedback([Sample((float(i),), ("athens",), "a") for i in range(9)])
    assert runtime.fire_trigger(policy) is None
    assert runtime.status()["feedback_buffer"] == 9
    runtime.ingest_feedback([Sample((9.0,), ("athens",), "a")])
    labeled, _ = runtime.fire_trigger(policy)
    assert len(labeled) == 10
    assert runtime.status()["feedback_buffer"] == 0


def test_fire_trigger_empty_buffer():
    runtime = city_runtime(city_snapshot())
    assert runtime.fire_trigger(TriggerPolicy(unseen_threshold=1)) is None
    assert runtime.counters["triggers_fired"] == 0


def test_fire_trigger_counts_and_drains():
    runtime = city_runtime(city_snapshot())
    runtime.ingest_feedback([Sample((float(i),), ("athens",), "a") for i in range(3)])
    assert runtime.fire_trigger(TriggerPolicy(unseen_threshold=5)) is None
    runtime.ingest_feedback([Sample((float(i),), ("athens",), "a") for i in range(2)])
    batch = runtime.fire_trigger(TriggerPolicy(unseen_threshold=5))
    labeled, unseen = batch
    assert len(labeled) == 5 and unseen == []
    assert runtime.counters["triggers_fired"] == 1
    assert runtime.status()["feedback_buffer"] == 0


# -- drain --------------------------------------------------------------------------

ONE_LABELED = [Sample((0.0,), ("athens",), "a")]


def test_drain_returns_and_clears():
    runtime = city_runtime(city_snapshot(cities=("athens",), fallback_label="b"))
    runtime.ingest_feedback([Sample((float(i),), ("athens",), "a") for i in range(3)])
    runtime.infer(Sample((0.0,), ("oslo",)))
    runtime.infer(Sample((1.0,), ("oslo",)))
    labeled, unseen = runtime.fire_trigger(TriggerPolicy(unseen_threshold=3))
    assert (len(labeled), len(unseen)) == (3, 2)
    assert runtime.status()["feedback_buffer"] == runtime.status()["unseen_buffer"] == 0
    runtime.ingest_feedback(ONE_LABELED)
    assert runtime.fire_trigger(TriggerPolicy(unseen_threshold=1)) == (ONE_LABELED, [])


def test_drain_concurrent_with_infer_conserves_unknowns():
    runtime = city_runtime(city_snapshot(cities=("athens",), fallback_label="b"))
    policy = TriggerPolicy(unseen_threshold=1)
    total = 400
    drained: list[Sample] = []
    errors = []

    def worker(offset):
        for i in range(100):
            try:
                runtime.infer(Sample((float(offset * 100 + i),), ("oslo",)))
            except Exception as exc:  # pragma: no cover - failure diagnostics
                errors.append(exc)

    def drainer():
        for _ in range(50):
            runtime.ingest_feedback(ONE_LABELED)  # the only feedback: each fire drains
            _, unseen = runtime.fire_trigger(policy)
            drained.extend(unseen)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
    threads.append(threading.Thread(target=drainer))
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    runtime.ingest_feedback(ONE_LABELED)
    _, unseen = runtime.fire_trigger(policy)
    drained.extend(unseen)

    assert not errors
    assert runtime.counters["unknown_hits"] == total
    assert len(drained) + runtime.counters["unseen_dropped"] == total


def test_snapshot_swaps_under_concurrent_infer_route_within_one_snapshot():
    # each version's only task sits in another band; a route taken with one
    # snapshot's index and another's tasks would name the wrong task
    schema = banded_schema((10.0, 20.0, 30.0, 40.0))
    bucketing = BucketingConfig.from_schema(schema)
    model = constant_model("a")
    snapshots, expected = [], {}
    for version in range(1, 301):
        attrs = bucket_attributes(("p", 5.0 + 10.0 * (version % 4)), bucketing)
        snapshots.append(snapshot_of(version, {task_key(attrs): (model, attrs)}))
        expected[version] = task_key(attrs)
    runtime = EdgeRuntime(schema, bucketing, similarity_threshold=0.5)
    runtime.apply_snapshot(snapshots[0])
    seen, errors = [], []

    def worker():
        try:
            for _ in range(300):
                pred = runtime.infer(Sample((0.0,), ("p", 45.0)))
                seen.append((pred.snapshot_version, pred.task_key, pred.route))
        except Exception as exc:  # pragma: no cover - failure diagnostics
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for snapshot in snapshots[1:]:
            runtime.apply_snapshot(snapshot)
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(seen) == 1200
    assert all(route == ROUTE_SIMILAR and key == expected[version]
               for version, key, route in seen)


def test_unseen_buffer_cap_drops_oldest():
    runtime = EdgeRuntime(city_schema(), CITY_BUCKETING, unseen_cap=3)
    runtime.apply_snapshot(city_snapshot(cities=("athens",), fallback_label="b"))
    for i in range(5):
        runtime.infer(Sample((float(i),), ("oslo",)))
    runtime.ingest_feedback(ONE_LABELED)
    _, unseen = runtime.fire_trigger(TriggerPolicy(unseen_threshold=1))
    assert len(unseen) == 3
    assert [s.features[0] for s in unseen] == [2.0, 3.0, 4.0]
    assert runtime.counters["unseen_dropped"] == 2
    assert runtime.counters["unknown_hits"] == 5


@pytest.mark.parametrize("cap", [0, -1, True, "5"])
def test_unseen_cap_must_be_a_positive_integer(cap):
    with pytest.raises(ConfigError, match="unseen_cap"):
        EdgeRuntime(city_schema(), CITY_BUCKETING, unseen_cap=cap)


# -- snapshot swap ---------------------------------------------------------------------

def test_apply_snapshot_version_ordering():
    runtime = city_runtime(city_snapshot(version=3))
    assert runtime.apply_snapshot(city_snapshot(version=5)) == "applied"
    assert runtime.apply_snapshot(city_snapshot(version=3)) == "rejected-stale"
    assert runtime.apply_snapshot(city_snapshot(version=5)) == "rejected-stale"
    assert runtime.snapshot_version == 5


def test_apply_snapshot_never_decreases_version():
    runtime = city_runtime(city_snapshot(version=1))
    rng = random.Random(0)
    seen = [1]
    for _ in range(20):
        v = rng.randint(1, 10)
        runtime.apply_snapshot(city_snapshot(version=v))
        assert runtime.snapshot_version >= max(seen)
        seen.append(runtime.snapshot_version)


def test_a_snapshot_of_another_schema_is_not_applied():
    runtime = EdgeRuntime(city_schema(("warm", "cold")), CITY_BUCKETING)
    own_model = constant_model("warm", classes=("warm", "cold"))
    own = snapshot_of(1, {"athens": (own_model, BucketedAttributes(("athens",), (0,)))})
    assert runtime.apply_snapshot(own) == "applied"
    banded = BucketedAttributes(("athens", 1), (0, 3))  # mined under another bucketing
    for foreign, error in (
        (city_snapshot(version=2, cities=("athens",)), "schema"),  # task models of classes a, b
        (snapshot_of(2, {}, fallback=constant_model("a")), "schema"),
        (snapshot_of(2, {"athens": (own_model, own.tasks["athens"].attributes)},
                     fallback=constant_model("a")), "schema"),
        (snapshot_of(2, {"athens|1": (own_model, banded)}), "'athens|1'"),
        (snapshot_of(2, {"athens": (own_model, own.tasks["athens"].attributes),
                         "athens|1": (own_model, banded)}), "'athens|1'"),
        (snapshot_of(2, {"5": (own_model, BucketedAttributes((5,), (0,)))}), "'5'"),
    ):
        with pytest.raises(SchemaMismatchError, match=error):
            runtime.apply_snapshot(foreign)
        assert runtime.active is own
    assert runtime.infer(Sample((1.0,), ("athens",))).label == "warm"
    assert runtime.apply_snapshot(snapshot_of(2, {})) == "applied"  # an empty snapshot passes

    schema = banded_schema((10.0, 20.0, 30.0))  # 4 band buckets
    runtime = EdgeRuntime(schema, BucketingConfig.from_schema(schema))
    model = constant_model("a")
    own_attrs = BucketedAttributes(("p", 1), (0, 4))
    own = snapshot_of(1, {"p|1": (model, own_attrs)}, fallback=constant_model("b"))
    assert runtime.apply_snapshot(own) == "applied"
    for values, counts in (
        (("p", 1), (0, 3)),  # 3 band buckets where the edge has 4
        (("p", "x"), (0, 4)),  # a string bucket index
        ((5, 1), (0, 4)),  # an integer categorical value
        (("p", 4), (0, 4)), (("p", 7), (0, 4)), (("p", -1), (0, 4)),  # outside [0, count)
        (("p", True), (0, 4)), (("p", 1.0), (0, 4)),  # not an integer
    ):
        foreign = snapshot_of(2, {"p|1": (model, own_attrs),
                                  "q|9": (model, BucketedAttributes(values, counts))},
                              fallback=constant_model("b"))
        with pytest.raises(SchemaMismatchError) as raised:
            runtime.apply_snapshot(foreign)
        for part in ("snapshot v2", "'q|9'", repr(counts), "(0, 4)"):
            assert part in str(raised.value), (values, counts)
        assert runtime.active is own
    assert runtime.infer(Sample((1.0,), ("q", 15.0))).route == ROUTE_FALLBACK


def test_status_document_fields():
    runtime = city_runtime(city_snapshot(version=2, fallback_label="b"))
    runtime.infer(Sample((0.0,), ("athens",)))
    runtime.infer(Sample((0.0,), ("oslo",)))
    doc = json.loads(runtime.status_json())
    assert doc["snapshot_version"] == 2
    assert doc["counters"] == {
        "inferences": 2,
        "known_hits": 1,
        "unknown_hits": 1,
        "triggers_fired": 0,
        "unseen_dropped": 0,
        "no_model_errors": 0,
    }
    assert doc["unseen_buffer"] == 1
    assert doc["feedback_buffer"] == 0
