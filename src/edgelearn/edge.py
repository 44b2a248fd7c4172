"""Edge-side runtime: task allocation against the deployed snapshot,
unknown-task detection, unknown-demand counting, retrain triggering.

Inference never talks to the cloud. A sample whose bucketed attribute
values are a task's in the active snapshot routes to that task's model; a
request so routed computes its bucketed values, one dict probe on them and
the prediction, nothing more. Otherwise it is an unknown task and falls
back to (a) the most similar snapshot task at or above the similarity
threshold, else (b) the global fallback model.
Applying a snapshot checks each task's bucketing and key, maps its values to
its key and entry, and builds a :class:`~edgelearn.tasks.TaskIndex` at the
edge's threshold, so finding (a) scores only the tasks that can reach it
(those sharing the sample's categorical values, at the default threshold)
instead of every snapshot task. Unknown requests are counted per task key, up
to ``unseen_cap`` keys, for upload; labeled feedback accumulates until the
trigger policy fires a retrain request.

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

from .data import DatasetSchema, Sample, TaskAttrValues, _is_finite_number, check_int
from .errors import ConfigError, DataError, NoModelError, SchemaMismatchError
from .job import TriggerPolicy
from .kb import DeploySnapshot, SnapshotEntry
from .learners import predict
from .tasks import (BucketingConfig, TaskIndex, bucket_attributes, bucket_values, task_key,
                    values_key)

ROUTE_KNOWN = "known"
ROUTE_SIMILAR = "similar"
ROUTE_FALLBACK = "fallback"

DEFAULT_SIMILARITY_THRESHOLD = 0.75
DEFAULT_UNSEEN_CAP = 10_000
TRIGGER_COUNT_THRESHOLD = "count-threshold"  # the feedback buffer reached the policy's threshold


class Prediction(NamedTuple):
    """One inference result and how it was routed. Immutable: a named
    tuple, which every request builds and which costs less than a frozen
    dataclass to build."""

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


def allocate_task(
    snapshot: DeploySnapshot, attrs: TaskAttrValues, bucketing: BucketingConfig
) -> str | None:
    """Return the matching task key in the snapshot, or None for an
    unknown task. Purely attribute-driven: known iff the exact bucketed
    key is present."""
    key = task_key(bucket_attributes(attrs, bucketing))
    return key if key in snapshot.tasks else None


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
        self._schema_fingerprint = schema.fingerprint()
        self.bucketing = bucketing
        self._n_features = schema.n_features
        self._bucket_counts = bucketing.bucket_counts
        self.similarity_threshold = similarity_threshold  # fixed: each index is built at it
        self.unseen_cap = unseen_cap  # distinct keys in self._demand
        self.active: DeploySnapshot | None = None
        self._index: TaskIndex | None = None  # over self.active's tasks
        self._known: dict[tuple, tuple[str, SnapshotEntry]] = {}  # values -> key, entry
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
        "rejected-stale" (strictly newer versions only). A snapshot holding a
        model of another schema, or a task not bucketed as this edge buckets
        or not keyed by its values, raises SchemaMismatchError and is not
        applied; routing trusts what passes."""
        fallback = () if snapshot.fallback is None else (snapshot.fallback,)
        for model in (*(entry.model for entry in snapshot.tasks.values()), *fallback):
            if model.schema_fingerprint != self._schema_fingerprint:
                raise SchemaMismatchError(
                    f"snapshot v{snapshot.snapshot_version} holds a model of schema "
                    f"{model.schema_fingerprint}; this edge serves {self._schema_fingerprint}"
                )
        known, attributes = {}, {}  # values -> (key, entry); key -> attributes
        for key, entry in snapshot.tasks.items():
            known[entry.attributes.values], attributes[key] = (key, entry), entry.attributes
        try:  # TaskIndex checks each key is its values' key: no two tasks share a values entry
            index = TaskIndex(attributes, self._bucket_counts, self.similarity_threshold)
        except SchemaMismatchError as exc:
            raise SchemaMismatchError(f"snapshot v{snapshot.snapshot_version} was not "
                                      f"bucketed as this edge buckets: {exc}") from None
        with self._lock:
            if (
                self.active is not None
                and snapshot.snapshot_version <= self.active.snapshot_version
            ):
                return "rejected-stale"
            self.active, self._index, self._known = snapshot, index, known
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
        values = bucket_values(sample.attributes, self.bucketing)
        with self._lock:
            self.counters["inferences"] += 1
            snapshot, index, known = self.active, self._index, self._known
            if snapshot is None:
                self.counters["no_model_errors"] += 1
                raise NoModelError("no snapshot applied yet")
            hit = known.get(values)
            if hit is not None:
                self.counters["known_hits"] += 1
            else:  # unknown task: count its demand for upload
                self.counters["unknown_hits"] += 1
                if values in self._demand or len(self._demand) < self.unseen_cap:
                    self._demand[values] = self._demand.get(values, 0) + 1
                else:  # a new key past the cap
                    self.counters["unseen_dropped"] += 1

        # snapshot, index and known are immutable: predict and route outside the lock
        if hit is not None:
            key, entry = hit
            return Prediction(predict(entry.model, sample.features), ROUTE_KNOWN, key, None,
                              snapshot.snapshot_version)
        if (nearest := index.nearest(values)) is not None:
            task, sim = nearest
            model, route = snapshot.tasks[task].model, ROUTE_SIMILAR
        elif snapshot.fallback is not None:
            model, route, task, sim = snapshot.fallback, ROUTE_FALLBACK, None, None
        else:
            best_sim = index.best_similarity(values)
            with self._lock:
                self.counters["no_model_errors"] += 1
            raise NoModelError(
                f"no model for unknown task {values_key(values)!r}: best similarity {best_sim} "
                f"below threshold {self.similarity_threshold} and no fallback"
            )
        return Prediction(
            predict(model, sample.features), route, task, sim, snapshot.snapshot_version
        )

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
