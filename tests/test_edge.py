"""Edge runtime: allocation, routing, buffering, triggering, atomicity."""

from __future__ import annotations

import json
import math
import os
import random
import sys
import threading
from collections import Counter

import pytest

from edgelearn import edge, tasks
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
    rank_similar,
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

def test_each_route_builds_only_what_it_reads(monkeypatch):
    built, keyed = [], []

    class Counting(BucketedAttributes):
        def __post_init__(self):
            built.append(self.values)
            super().__post_init__()

    def counting_values_key(values):
        keyed.append(values)
        return tasks.values_key(values)

    schema = banded_schema((10.0, 20.0, 30.0, 40.0))
    bucketing = BucketingConfig.from_schema(schema)
    attrs = bucket_attributes(("p", 15.0), bucketing)  # bucket 1
    runtime = EdgeRuntime(schema, bucketing)
    runtime.apply_snapshot(snapshot_of(1, {task_key(attrs): (constant_model("a"), attrs)},
                                       fallback=constant_model("b")))
    monkeypatch.setattr(tasks, "BucketedAttributes", Counting)
    monkeypatch.setattr(edge, "values_key", counting_values_key)
    # known: the bucketed values and one dict probe, no key string
    assert runtime.infer(Sample((1.0,), ("p", 12.0))).route == ROUTE_KNOWN
    assert (built, keyed) == ([], [])
    # fallback with no task sharing the site: nothing to score, nothing built
    assert runtime.infer(Sample((1.0,), ("q", 12.0))).route == ROUTE_FALLBACK
    assert (built, keyed) == ([], [])
    # similar: one query to score the site's tasks against
    assert runtime.infer(Sample((1.0,), ("p", 25.0))).route == ROUTE_SIMILAR
    assert (built, keyed) == ([("p", 2)], [])
    # no model: the error message names the key and the best similarity
    runtime = EdgeRuntime(schema, bucketing)
    runtime.apply_snapshot(snapshot_of(1, {task_key(attrs): (constant_model("a"), attrs)}))
    built.clear()
    with pytest.raises(NoModelError, match=r"unknown task 'q\|1': best similarity 0\.5 "):
        runtime.infer(Sample((1.0,), ("q", 12.0)))
    assert (built, keyed) == ([("q", 1)], [("q", 1)])


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
    assert runtime.status()["unknown_demand"] == {"tokyo": 1}


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
    assert runtime.status()["unknown_demand"] == {"p|2": 1}


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
    assert runtime.status()["unknown_demand"] == {"tokyo": 1}  # still escalated


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
    labeled, demand = batch
    assert len(labeled) == 5 and demand == {}
    assert runtime.counters["triggers_fired"] == 1
    assert runtime.status()["feedback_buffer"] == 0


# -- drain --------------------------------------------------------------------------

ONE_LABELED = [Sample((0.0,), ("athens",), "a")]


def test_drain_returns_and_clears():
    runtime = city_runtime(city_snapshot(cities=("athens",), fallback_label="b"))
    runtime.ingest_feedback([Sample((float(i),), ("athens",), "a") for i in range(3)])
    for city in ("oslo", "rome", "oslo"):
        runtime.infer(Sample((0.0,), (city,)))
    runtime.infer(Sample((0.0,), ("athens",)))  # known: not demand
    labeled, demand = runtime.fire_trigger(TriggerPolicy(unseen_threshold=3))
    assert (len(labeled), demand) == (3, {"oslo": 2, "rome": 1})
    assert runtime.status()["feedback_buffer"] == 0
    assert runtime.status()["unknown_demand"] == {}
    runtime.ingest_feedback(ONE_LABELED)
    assert runtime.fire_trigger(TriggerPolicy(unseen_threshold=1)) == (ONE_LABELED, {})


def test_drain_concurrent_with_infer_conserves_unknowns():
    # four keys against a cap of two: whether a key is counted or dropped
    # depends on how the drains interleave, but every request is one or the other
    runtime = EdgeRuntime(city_schema(), CITY_BUCKETING, unseen_cap=2)
    runtime.apply_snapshot(city_snapshot(cities=("athens",), fallback_label="b"))
    policy = TriggerPolicy(unseen_threshold=1)
    cities = ("oslo", "rome", "kyiv", "lima")
    drained: Counter = Counter()
    errors = []

    def worker(offset):
        try:
            for i in range(100):
                runtime.infer(Sample((float(i),), (cities[(offset + i) % 4],)))
        except Exception as exc:  # pragma: no cover - failure diagnostics
            errors.append(exc)

    def drainer():
        for _ in range(50):
            runtime.ingest_feedback(ONE_LABELED)  # the only feedback: each fire drains
            drained.update(runtime.fire_trigger(policy)[1])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        threads.append(threading.Thread(target=drainer))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    runtime.ingest_feedback(ONE_LABELED)
    drained.update(runtime.fire_trigger(policy)[1])

    assert not errors
    assert runtime.counters["unknown_hits"] == 400
    assert drained.total() + runtime.counters["unseen_dropped"] == 400
    assert set(drained) <= set(cities)


def test_unseen_cap_bounds_distinct_keys():
    runtime = EdgeRuntime(city_schema(), CITY_BUCKETING, unseen_cap=3)
    runtime.apply_snapshot(city_snapshot(cities=("athens",), fallback_label="b"))
    for city in ("oslo", "rome", "oslo", "kyiv", "lima", "oslo", "rome", "lima"):
        runtime.infer(Sample((0.0,), (city,)))
    # lima is a fourth key: dropped both times; keys already in the table still count
    assert runtime.status()["unknown_demand"] == {"oslo": 3, "rome": 2, "kyiv": 1}
    assert runtime.counters["unseen_dropped"] == 2
    assert runtime.counters["unknown_hits"] == 8
    runtime.ingest_feedback(ONE_LABELED)
    _, demand = runtime.fire_trigger(TriggerPolicy(unseen_threshold=1))
    assert demand == {"oslo": 3, "rome": 2, "kyiv": 1}
    runtime.infer(Sample((0.0,), ("lima",)))  # a drain frees the table
    assert runtime.status()["unknown_demand"] == {"lima": 1}


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


def test_a_snapshot_whose_key_is_not_its_values_key_is_not_applied():
    # applied, it would route requests for s000 band 2 to s001's model as known
    schema = banded_schema((10.0, 20.0, 30.0))
    bucketing = BucketingConfig.from_schema(schema)
    runtime = EdgeRuntime(schema, bucketing)
    own_attrs = bucket_attributes(("s000", 25.0), bucketing)
    own = snapshot_of(1, {"s000|2": (constant_model("a"), own_attrs)},
                      fallback=constant_model("b"))
    assert runtime.apply_snapshot(own) == "applied"
    for key, values in (("s000|2", ("s001", 2)), ("s000", ("s000", 2)),
                        ("s000|2|", ("s000", 2)), ("s0|00|2", ("s0|00", 2))):
        foreign = snapshot_of(2, {key: (constant_model("b"), BucketedAttributes(values, (0, 4)))},
                              fallback=constant_model("b"))
        with pytest.raises(SchemaMismatchError) as raised:
            runtime.apply_snapshot(foreign)
        for part in ("snapshot v2", repr(key), repr(values)):
            assert part in str(raised.value), key
        assert runtime.active is own
    pred = runtime.infer(Sample((1.0,), ("s000", 25.0)))
    assert (pred.route, pred.task_key, pred.label, pred.snapshot_version) == (
        ROUTE_KNOWN, "s000|2", "a", 1)
    assert runtime.infer(Sample((1.0,), ("s001", 25.0))).route == ROUTE_FALLBACK


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
    assert doc["unknown_demand"] == {"oslo": 1}
    assert doc["feedback_buffer"] == 0


# -- routing against a full scan -------------------------------------------------

CATEGORIES = ("p", "q", "|", "q|", "|q", "\\", "p\\|", "\\|")
NUMBERS = (float("nan"), math.inf, -math.inf, 0, 1, 2, 3, True, False, -1.5, 0.5, 2.5)


def _oracle(snapshot, attrs, bucketing, threshold):
    """(route, key, similarity, model) or the NoModelError message, from
    allocate_task and a rank of every snapshot task: the reference the
    runtime's value table and task index must agree with."""
    key = allocate_task(snapshot, attrs, bucketing)
    if key is not None:
        return ROUTE_KNOWN, key, None, snapshot.tasks[key].model
    query = bucket_attributes(attrs, bucketing)
    ranked = rank_similar(query, {k: e.attributes for k, e in snapshot.tasks.items()})
    if ranked and ranked[0][1] >= threshold:
        return ROUTE_SIMILAR, ranked[0][0], ranked[0][1], snapshot.tasks[ranked[0][0]].model
    if snapshot.fallback is not None:
        return ROUTE_FALLBACK, None, None, snapshot.fallback
    best = ranked[0][1] if ranked else 0.0
    return (f"no model for unknown task {task_key(query)!r}: best similarity {best} "
            f"below threshold {threshold} and no fallback")


def test_task_index_routes_exactly_like_a_full_scan():
    rng = random.Random(2024)
    models = [constant_model(label) for label in "ab"]
    outcomes = {ROUTE_KNOWN: 0, ROUTE_SIMILAR: 0, ROUTE_FALLBACK: 0, "no-model": 0}
    ties = cross_group = drops = 0
    for _ in range(40):
        kinds = [AttributeKind("categorical")] * rng.randint(1, 3) + [
            AttributeKind("numeric", tuple(sorted(rng.sample(
                (-1.0, 0.0, 1.0, 2.0, 2.5, 3.0), rng.randint(0, 4)))))
            for _ in range(rng.randint(1, 2))
        ]
        rng.shuffle(kinds)
        schema = DatasetSchema(
            feature_columns=("x",), label_column="y", label_classes=("a", "b"),
            attribute_columns=tuple(f"c{i}" for i in range(len(kinds))),
            attribute_kinds=tuple(kinds),
        )
        bucketing = BucketingConfig.from_schema(schema)

        def raw(categories):
            return tuple(rng.choice(categories) if kind.kind == "categorical"
                         else rng.choice(NUMBERS + kind.edges) for kind in kinds)

        entries, task_raws = {}, []
        for _ in range(rng.randint(0, 12)):
            task_raws.append(raw(CATEGORIES[:4]))  # few values make equal similarities common
            attrs = bucket_attributes(task_raws[-1], bucketing)
            entries[task_key(attrs)] = (rng.choice(models), attrs)
        snap = snapshot_of(1, entries, fallback=rng.choice((None, models[1])))
        queries = [rng.choice(task_raws) if task_raws and rng.random() < 0.3
                   else raw(CATEGORIES) for _ in range(25)]
        for threshold in (0.0, 0.3, 0.5, 0.75, 0.9, 1.0):
            runtime = EdgeRuntime(schema, bucketing, similarity_threshold=threshold,
                                  unseen_cap=5)
            runtime.apply_snapshot(snap)
            counters, demand = dict.fromkeys(runtime.counters, 0), Counter()
            for i, attrs in enumerate(queries):
                expected = _oracle(snap, attrs, bucketing, threshold)
                known = not isinstance(expected, str) and expected[0] == ROUTE_KNOWN
                counters["inferences"] += 1
                counters["known_hits" if known else "unknown_hits"] += 1
                if not known:  # at most five distinct unknown keys are counted
                    key = task_key(bucket_attributes(attrs, bucketing))
                    if key in demand or len(demand) < 5:
                        demand[key] += 1
                    else:
                        counters["unseen_dropped"] += 1
                if isinstance(expected, str):
                    counters["no_model_errors"] += 1
                    outcomes["no-model"] += 1
                    with pytest.raises(NoModelError) as raised:
                        runtime.infer(Sample((float(i),), attrs))
                    assert str(raised.value) == expected, attrs
                    continue
                route, key, sim, model = expected
                outcomes[route] += 1
                pred = runtime.infer(Sample((float(i),), attrs))
                assert pred == (predict(model, (float(i),)), route, key, sim, 1), attrs
                assert repr(pred.similarity) == repr(sim)
                if route == ROUTE_SIMILAR:
                    query = bucket_attributes(attrs, bucketing)
                    scores = [task_similarity(query, e.attributes) for e in snap.tasks.values()]
                    ties += scores.count(sim) > 1
                    cross_group += any(a != b for a, b, count in zip(
                        query.values, snap.tasks[key].attributes.values, query.bucket_counts)
                        if count == 0)
            assert runtime.counters == counters
            assert runtime.status()["unknown_demand"] == demand
            drops += counters["unseen_dropped"]
    assert min(outcomes.values()) > 0 and ties > 0 and cross_group > 0 and drops > 0  # all ran


# -- concurrent swaps ------------------------------------------------------------------

def test_snapshot_swaps_under_concurrent_infer_route_within_one_snapshot():
    # two task sets applied in turn, under more infer threads than cores: a
    # route taken with one version's tables and another's tasks would name a
    # task, a route or a label its version does not hold
    schema = banded_schema((10.0, 20.0, 30.0, 40.0))
    bucketing = BucketingConfig.from_schema(schema)
    task_sets = (("p", 5.0), ("q", 25.0), ("r", 45.0)), (("p", 35.0), ("q", 5.0), ("s", 25.0))
    snapshots = []
    for version in range(1, 201):
        cells = task_sets[version % 2]
        entries = {}
        for site, band in cells:
            attrs = bucket_attributes((site, band), bucketing)
            entries[task_key(attrs)] = (constant_model("ab"[version % 2]), attrs)
        snapshots.append(snapshot_of(version, entries, fallback=constant_model("b")))
    requests = [(site, band) for site in "pqrsx" for band in (5.0, 15.0, 25.0, 35.0, 45.0)]
    expected = {}
    for parity in (0, 1):
        for attrs in requests:
            route, key, sim, _ = _oracle(snapshots[1 - parity], attrs, bucketing, 0.75)
            expected[parity, attrs] = route, key, sim
    runtime = EdgeRuntime(schema, bucketing)
    runtime.apply_snapshot(snapshots[0])
    seen, errors = [], []

    def worker(seed):
        rng = random.Random(seed)
        try:
            for _ in range(400):
                attrs = rng.choice(requests)
                pred = runtime.infer(Sample((0.0,), attrs))
                seen.append((attrs, pred))
        except Exception as exc:  # pragma: no cover - failure diagnostics
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range((os.cpu_count() or 1) + 2)]
        for t in threads:
            t.start()
        for snapshot in snapshots[1:]:
            assert runtime.apply_snapshot(snapshot) == "applied"
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(seen) == 400 * len(threads)
    for attrs, pred in seen:
        assert (pred.route, pred.task_key, pred.similarity) == expected[
            pred.snapshot_version % 2, attrs], (attrs, pred)
        assert pred.label == ("ab"[pred.snapshot_version % 2] if pred.route != ROUTE_FALLBACK
                              else "b")
    assert runtime.counters["inferences"] == len(seen)  # no counter update was lost
    assert runtime.counters["known_hits"] == sum(p.route == ROUTE_KNOWN for _, p in seen)
