"""Edge-side runtime: task allocation against the deployed snapshot,
unknown-task detection, unknown-demand counting, retrain triggering.

Inference never talks to the cloud. A sample whose bucketed attribute
values are a task's in the active snapshot routes to that task's model;
otherwise it is an unknown task and falls back to (a) the most similar
snapshot task at or above the similarity threshold, else (b) the global
fallback model. Applying a snapshot checks, binds (each model's
:attr:`~edgelearn.learners.ModelArtifact.predictor`, compiled once per
artifact) and indexes in a :class:`~edgelearn.tasks.TaskIndex` only the
entries whose model or attributes object the active snapshot lacks: all of
a decoded one. Per request, the bucketing runs a per-column plan the edge
works out once, and the known route is one dict probe on the bucketed
values and a predictor call; finding (a) scores those values,
building no query object, against only the tasks that can reach it (at the
default threshold, those sharing the sample's categorical values), with a
scorer worked out once per bucket counts: a table lookup per numeric column.
Unknown requests are counted per task key (one probe), up to ``unseen_cap``
keys, for upload; labeled feedback accumulates until the trigger policy
fires a retrain request.

All state transitions are guarded by one lock: concurrent infer calls,
drains, and snapshot swaps never observe partial state. Snapshots,
their value tables and their indexes are immutable, so routing and
prediction run outside it.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import NamedTuple

from .data import DatasetSchema, Sample, _is_finite_number, check_int
from .errors import ConfigError, DataError, NoModelError, SchemaMismatchError
from .job import TriggerPolicy
from .kb import DeploySnapshot
from .learners import check_model
from .tasks import BucketingConfig, TaskIndex, values_key

ROUTE_KNOWN = "known"
ROUTE_SIMILAR = "similar"
ROUTE_FALLBACK = "fallback"

DEFAULT_SIMILARITY_THRESHOLD = 0.75
DEFAULT_UNSEEN_CAP = 10_000
_new_tuple = tuple.__new__  # _new_tuple(Prediction, fields) is Prediction(*fields)


class Prediction(NamedTuple):
    """One inference result and how it was routed. Immutable: a named tuple,
    which ``infer`` builds with ``tuple.__new__``: the generated ``__new__``'s
    Python frame costs more than the rest of building one per request."""

    label: str
    route: str
    task_key: str | None
    similarity: float | None
    snapshot_version: int


@dataclass(frozen=True)
class IngestResult:
    accepted: int
    rejected: tuple[tuple[int, str], ...] = ()


def check_similarity_threshold(value) -> None:
    """The routing threshold must be a finite number: at NaN no task qualifies."""
    if not _is_finite_number(value):
        raise ConfigError(f"similarity_threshold must be a finite number, got {value!r}")


class EdgeRuntime:
    """Holds the active snapshot and serves predictions with zero cloud
    connectivity. Thread-safe."""

    def __init__(
        self,
        schema: DatasetSchema,
        bucketing: BucketingConfig,
        similarity_threshold: float = DEFAULT_SIMILARITY_THRESHOLD,
        unseen_cap: int = DEFAULT_UNSEEN_CAP,
    ):
        check_similarity_threshold(similarity_threshold)
        check_int("unseen_cap", unseen_cap, 1)
        self.schema = schema
        self._shape = (schema.fingerprint(), schema.label_classes, schema.n_features)
        self.bucketing = bucketing
        self._bucket = bucketing.bucket  # the bucketing plan, worked out once
        self._n_features = schema.n_features
        self._bucket_counts = bucketing.bucket_counts
        self.similarity_threshold = similarity_threshold  # fixed: each index is built at it
        self.unseen_cap = unseen_cap  # distinct keys in self._demand
        self.active: DeploySnapshot | None = None
        # self.active's TaskIndex, {values: (key, predictor)}, {key: predictor}, fallback predictor
        self._routes = (TaskIndex({}, self._bucket_counts, similarity_threshold), {}, {}, None)
        self._demand: dict[tuple, int] = {}  # unknown values -> requests since the last drain
        self._feedback: list[Sample] = []
        self.counters = {
            "inferences": 0,
            "known_hits": 0,
            "unknown_hits": 0,
            "triggers_fired": 0,
            "unseen_dropped": 0,
            "no_model_errors": 0,
        }
        self._lock = threading.Lock()

    # -- snapshot management --------------------------------------------------

    def apply_snapshot(self, snapshot: DeploySnapshot) -> str:
        """Swap in a newer snapshot atomically. Returns "applied" or
        "rejected-stale" (strictly newer versions only). A snapshot declaring
        another schema fingerprint (or none, unless it holds no model), holding
        a model not of this edge's schema, classes and feature count, or a task
        not bucketed as this edge buckets or not keyed by its values, raises
        SchemaMismatchError and is not applied; routing trusts what passes. An
        entry is checked again only if its model or attributes object is new."""
        what, declared = f"snapshot v{snapshot.snapshot_version}", snapshot.schema_fingerprint
        if declared != self._shape[0] and (
                declared is not None or snapshot.tasks or snapshot.fallback is not None):
            raise SchemaMismatchError(f"{what} declares schema {declared!r}, not {self._shape[0]}")
        with self._lock:  # the active snapshot and its routes, read in one step
            active, (index, known, predictors, _) = self.active, self._routes
        old, tasks = {} if active is None else active.tasks, snapshot.tasks
        known, bound, added = dict(known), {}, {}
        for key, entry in tasks.items():  # reuse by identity only: both types are frozen
            was = old.get(key)
            if was is None or entry.model is not was.model:
                check_model(entry.model, self._shape, what)
                bound[key] = entry.model.predictor
            if was is None or entry.attributes is not was.attributes:
                added[key] = entry.attributes
        dropped = {k: old[k].attributes.values for k in old.keys() - tasks | (added.keys() & old)}
        if snapshot.fallback is not None:
            check_model(snapshot.fallback, self._shape, what)
        fallback = None if snapshot.fallback is None else snapshot.fallback.predictor
        try:  # task_categories checks each key is its values' key: no two share a values entry
            index = index.with_tasks(added, dropped)
        except SchemaMismatchError as exc:
            raise SchemaMismatchError(f"{what} was not bucketed as this edge buckets: "
                                      f"{exc}") from None
        for values in dropped.values():
            del known[values]
        # the index checked each value is a str or an int, so each values tuple hashes
        for key in added.keys() | bound.keys():
            known[tasks[key].attributes.values] = (key, bound.get(key, predictors.get(key)))
        predictors = dict(known.values())
        with self._lock:
            if (
                self.active is not None
                and snapshot.snapshot_version <= self.active.snapshot_version
            ):
                return "rejected-stale"
            self.active, self._routes = snapshot, (index, known, predictors, fallback)
            return "applied"

    @property
    def snapshot_version(self) -> int | None:
        active = self.active
        return active.snapshot_version if active is not None else None

    # -- inference --------------------------------------------------------------

    def infer(self, sample: Sample) -> Prediction:
        """Predict one sample against the active snapshot (label ignored).

        A known task is found by one dict probe on the sample's bucketed
        values; no key string is built but for a NoModelError message.
        An unknown task's request is counted for upload; if neither a similar
        task nor a fallback model exists, raises NoModelError (counted).
        """
        if len(sample.features) != self._n_features:
            raise DataError(
                f"expected {self._n_features} features, got {len(sample.features)}"
            )
        values = self._bucket(sample.attributes)
        with self._lock:
            self.counters["inferences"] += 1
            snapshot, (index, known, predictors, fallback) = self.active, self._routes
            if snapshot is None:
                self.counters["no_model_errors"] += 1
                raise NoModelError("no snapshot applied yet")
            hit = known.get(values)
            if hit is not None:
                self.counters["known_hits"] += 1
            else:  # unknown task: count its demand for upload
                self.counters["unknown_hits"] += 1
                n = self._demand.get(values, 0)  # a counted key's count is at least 1
                if n or len(self._demand) < self.unseen_cap:
                    self._demand[values] = n + 1
                else:  # a new key past the cap
                    self.counters["unseen_dropped"] += 1

        # a snapshot and its routes are immutable: predict and route outside the lock
        if hit is not None:
            key, model_predict = hit
            return _new_tuple(Prediction, (model_predict(sample.features), ROUTE_KNOWN, key, None,
                                           snapshot.snapshot_version))
        if (nearest := index.nearest(values)) is not None:
            task, sim = nearest
            model_predict, route = predictors[task], ROUTE_SIMILAR
        elif fallback is not None:
            model_predict, route, task, sim = fallback, ROUTE_FALLBACK, None, None
        else:
            best_sim = index.best_similarity(values)
            with self._lock:
                self.counters["no_model_errors"] += 1
            raise NoModelError(
                f"no model for unknown task {values_key(values)!r}: best similarity {best_sim} "
                f"below threshold {self.similarity_threshold} and no fallback"
            )
        return _new_tuple(Prediction, (
            model_predict(sample.features), route, task, sim, snapshot.snapshot_version))

    # -- feedback and upload ------------------------------------------------------

    def ingest_feedback(self, labeled: list[Sample]) -> IngestResult:
        """Append labeled, schema-conformant samples to the feedback buffer;
        malformed ones are rejected individually with reasons."""
        accepted = []
        rejected = []
        for i, sample in enumerate(labeled):
            if sample.label is None:
                rejected.append((i, "unlabeled"))
                continue
            try:
                self.schema.validate_sample(sample)
            except DataError as exc:
                rejected.append((i, str(exc)))
                continue
            accepted.append(sample)
        with self._lock:
            self._feedback.extend(accepted)
        return IngestResult(accepted=len(accepted), rejected=tuple(rejected))

    def fire_trigger(self, policy: TriggerPolicy) -> tuple[list[Sample], dict[str, int]] | None:
        """If the trigger condition holds, count the firing and drain, in one
        atomic step, the labeled feedback and the unknown requests per task
        key for upload, as (labeled, {key: count}); otherwise None."""
        with self._lock:
            if len(self._feedback) < policy.unseen_threshold:
                return None
            self.counters["triggers_fired"] += 1
            labeled, self._feedback = self._feedback, []
            demand, self._demand = self._demand, {}
        return labeled, {values_key(values): n for values, n in demand.items()}

    # -- introspection ----------------------------------------------------------

    def status(self) -> dict:
        """Counters and route statistics as a JSON-serializable document."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "feedback_buffer": len(self._feedback),
                "unknown_demand": {values_key(v): n for v, n in self._demand.items()},
                "snapshot_version": (
                    self.active.snapshot_version if self.active is not None else None
                ),
            }

    def status_json(self) -> str:
        return json.dumps(self.status(), indent=2, sort_keys=True)
