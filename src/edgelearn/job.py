"""Lifelong learning job: the train -> evaluate -> deploy cycle over a
knowledge base, plus the update cycle that folds newly labeled edge data
back in so the next cycle knows one more task.

Raw training data is never retained in the KB; retraining an existing task
uses only the newly arrived data (augmented by sample transfer within the
new batch). The fallback model is refit on each cycle's pooled training
data. A cycle mines its batch into tasks once and hands the per-task train
and eval halves (each a :class:`TaskPartition`) to the train and eval stages.

The job's phase, and nothing else, lives in the KB manifest's job document
(:func:`job_phase`). Each stage, and each whole cycle, commits phase and KB
in one KB transaction; one that raises changes neither.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass
from enum import Enum

from .data import (Dataset, DatasetSchema, _is_finite_number, bucket_edges, build, check_int,
                   check_object, field_names, load_object, split_dataset)
from .errors import ConfigError, CorruptStoreError, PhaseError
from .kb import (
    _INDEX_NAME,
    STATUS_DEPLOYABLE,
    STATUS_EVAL_FAILED,
    STATUS_TRAINED,
    DeploySnapshot,
    KnowledgeBase,
    TaskRecord,
)
from .learners import EstimatorSpec, EvalMetrics, evaluate, fit
from .tasks import BucketingConfig, TaskPartition, as_tasks, sample_transfer

REASON_BELOW_THRESHOLD = "below-threshold"
REASON_TOO_FEW_SAMPLES = "too-few-samples"


@dataclass(frozen=True)
class EvalPolicy:
    """Deploy gate: a task model ships only if it was evaluated on at least
    ``min_eval_samples`` samples and reached ``min_accuracy``."""

    min_accuracy: float = 0.0
    min_eval_samples: int = 1

    def __post_init__(self):
        if not (_is_finite_number(self.min_accuracy) and 0.0 <= self.min_accuracy <= 1.0):
            raise ConfigError(f"min_accuracy must be a number in [0,1], "
                              f"got {self.min_accuracy!r}")
        check_int("min_eval_samples", self.min_eval_samples, 1)


@dataclass(frozen=True)
class TransferPolicy:
    min_samples: int = 30
    cap: int = 1000

    def __post_init__(self):
        check_int("min_samples", self.min_samples, 0)
        check_int("cap", self.cap, 0)


@dataclass(frozen=True)
class TriggerPolicy:
    """Retraining fires once this many labeled feedback samples accumulate.
    ``unseen_threshold`` counts labeled feedback, not unknown requests."""

    unseen_threshold: int = 10

    def __post_init__(self):
        check_int("unseen_threshold", self.unseen_threshold, 1)


@dataclass(frozen=True)
class JobConfig:
    learner: EstimatorSpec
    bucketing: BucketingConfig
    eval_policy: EvalPolicy = EvalPolicy()
    transfer: TransferPolicy = TransferPolicy()
    trigger: TriggerPolicy = TriggerPolicy()
    fallback_enabled: bool = True
    seed: int = 0

    def __post_init__(self):
        check_int("seed", self.seed)
        if type(self.fallback_enabled) is not bool:
            raise ConfigError(f"fallback_enabled must be true or false, "
                              f"got {self.fallback_enabled!r}")


class Phase(Enum):
    """The job's phases in the paper's order, all its job document keeps.
    Each stage's ``_require_phase`` names the phases it may start from;
    ``_transition`` only records one. Training has no phase: ``run_train``
    commits its models with ``Evaluating`` in one transaction."""

    IDLE = "Idle"
    EVALUATING = "Evaluating"
    DEPLOYING = "Deploying"
    DEPLOYED = "Deployed"


def job_phase(doc) -> Phase:
    """Decode the manifest's job document, ``{"phase": ...}``, to its phase;
    a store without one is Idle. Other keys (the ``history`` and
    ``snapshot_version`` older stores carry) are ignored; the next stage's
    ``_transition`` drops them."""
    if doc is None:
        return Phase.IDLE
    try:
        return Phase(doc["phase"])
    except (ValueError, KeyError, TypeError) as exc:  # not an object, no phase, unknown phase
        raise CorruptStoreError(f"corrupt job state in the KB manifest {_INDEX_NAME}: "
                                f"{exc}") from exc


def _one_commit(stage):
    """Run a job stage as one KB transaction (phase and KB commit together)."""
    def run(self, *args):
        with self.kb.transaction():
            return stage(self, *args)
    return functools.wraps(stage)(run)


@dataclass(frozen=True)
class TaskEvalOutcome:
    key: str
    metrics: EvalMetrics | None
    passed: bool
    reason: str | None = None


@dataclass(frozen=True)
class EvalReport:
    """Per-task gate decisions plus ungated fallback metrics."""

    outcomes: tuple[TaskEvalOutcome, ...]
    fallback_metrics: EvalMetrics | None


class LifelongJob:
    """One lifelong learning job bound to a config and a knowledge base.

    Single-threaded over its phase machine; stage internals process tasks
    in sorted key order so results are deterministic.
    """

    def __init__(self, cfg: JobConfig, kb: KnowledgeBase):
        self.cfg = cfg
        self.kb = kb

    # -- phase machine -------------------------------------------------------

    @property
    def phase(self) -> Phase:
        return job_phase(self.kb.job)

    def _transition(self, target: Phase) -> None:
        self.kb.job = {"phase": target.value}  # job_phase reads it

    def _require_phase(self, *phases: Phase) -> None:
        current = self.phase
        if current not in phases:
            allowed = " or ".join(p.value for p in phases)
            raise PhaseError(f"operation requires phase {allowed}, current is {current.value}")

    # -- stages ---------------------------------------------------------------

    @_one_commit
    def run_train(self, train: Dataset | TaskPartition) -> list[TaskRecord]:
        """Fit one model per task (sample transfer topping up small tasks),
        fit the fallback on the full set, and upsert everything; a dataset
        is mined into tasks first. Starts from Idle, Deployed, or Deploying
        (a deploy that found nothing deployable); ends in the Evaluating phase."""
        self._require_phase(Phase.IDLE, Phase.DEPLOYED, Phase.DEPLOYING)
        cfg = self.cfg
        partition = as_tasks(train, cfg.bucketing)

        stored: list[TaskRecord] = []
        for key in partition.keys:
            transfer = sample_transfer(
                key, partition, cfg.transfer.min_samples, cfg.transfer.cap
            )
            artifact = fit(cfg.learner, transfer.dataset, cfg.seed)
            record = TaskRecord(
                key=key,
                attributes=partition.attributes[key],
                model=artifact,
                samples=len(partition.parts[key]),
                status=STATUS_TRAINED,
            )
            self.kb.upsert_task(record)
            stored.append(self.kb.lookup(key))

        if cfg.fallback_enabled:
            self.kb.set_fallback(fit(cfg.learner, partition.dataset, cfg.seed))

        self._transition(Phase.EVALUATING)
        return stored

    @_one_commit
    def run_eval(self, eval_set: Dataset | TaskPartition) -> EvalReport:
        """Gate every freshly trained record against the eval policy using
        its own task of the eval set (a dataset is mined first); tasks with
        too few eval samples fail. The fallback is evaluated on the whole
        set but never gated. Ends in the Deploying phase."""
        self._require_phase(Phase.EVALUATING)
        cfg = self.cfg
        partition = as_tasks(eval_set, cfg.bucketing)
        pending = sorted(
            key for key, rec in self.kb.records.items() if rec.status == STATUS_TRAINED
        )
        outcomes: list[TaskEvalOutcome] = []
        for key in pending:
            record = self.kb.lookup(key)
            part = partition.parts.get(key)
            n_eval = len(part) if part is not None else 0
            metrics = evaluate(record.model, part) if n_eval > 0 else None
            if n_eval < cfg.eval_policy.min_eval_samples:
                passed, reason = False, REASON_TOO_FEW_SAMPLES
            elif metrics.accuracy >= cfg.eval_policy.min_accuracy:
                passed, reason = True, None
            else:
                passed, reason = False, REASON_BELOW_THRESHOLD
            self.kb.record_eval(key, STATUS_DEPLOYABLE if passed else STATUS_EVAL_FAILED, metrics)
            outcomes.append(TaskEvalOutcome(key, metrics, passed, reason))

        fallback_metrics = None
        if self.kb.fallback is not None:
            fallback_metrics = evaluate(self.kb.fallback, partition.dataset)

        self._transition(Phase.DEPLOYING)
        return EvalReport(tuple(outcomes), fallback_metrics)

    @_one_commit
    def run_deploy(self) -> DeploySnapshot:
        """Freeze the deployable records into a snapshot. Ends Deployed."""
        self._require_phase(Phase.DEPLOYING)
        snapshot = self.kb.snapshot()
        self._transition(Phase.DEPLOYED)
        return snapshot

    @_one_commit
    def run_update_cycle(self, new_labeled: Dataset) -> DeploySnapshot:
        """Full retrain cycle on newly labeled data: per-task 80/20 holdout
        split, train, evaluate, deploy. A task key present in the new data
        is guaranteed to be in the KB afterwards."""
        self._require_phase(Phase.DEPLOYED)
        return self._run_cycle(new_labeled)

    @_one_commit
    def bootstrap(self, initial: Dataset | TaskPartition) -> DeploySnapshot:
        """Initial cycle from the Idle phase (same split protocol as updates)."""
        self._require_phase(Phase.IDLE)
        return self._run_cycle(initial)

    def _run_cycle(self, data: Dataset | TaskPartition) -> DeploySnapshot:
        tasks = as_tasks(data, self.cfg.bucketing)
        train_part, eval_part = holdout_split(tasks, 0.8, self.cfg.seed)
        self.run_train(train_part)
        self.run_eval(eval_part if len(eval_part) > 0 else train_part)
        return self.run_deploy()


def holdout_split(
    partition: TaskPartition, train_fraction: float, seed: int
) -> tuple[TaskPartition, TaskPartition]:
    """Split each task, so (for ``train_fraction >= 0.5``) every key lands
    in the training half. Each half is what mining its ``dataset`` (tasks in
    key order) would give; keys with no eval rows are absent from the eval
    half. Deterministic: each task's seed derives from *seed* and its key."""
    halves: tuple[dict, dict] = ({}, {})
    for key in partition.keys:
        derived = (seed * 1000003 + zlib.crc32(key.encode("utf-8"))) & 0x7FFFFFFF
        for half, rows in zip(halves, split_dataset(partition.parts[key], train_fraction, derived)):
            if len(rows) > 0:
                half[key] = rows
    return tuple(
        TaskPartition(
            partition.dataset.derive(s for part in parts.values() for s in part.samples),
            partition.bucketing,
            parts,
            {key: partition.attributes[key] for key in parts},
        )
        for parts in halves
    )


# ---------------------------------------------------------------------------
# Config file parsing
# ---------------------------------------------------------------------------

def parse_job_config(config_text: str, schema: DatasetSchema) -> JobConfig:
    """Parse a JSON job config against a schema.

    Keys are :class:`JobConfig`'s fields; ``learner`` is required. The
    ``learner`` object holds :class:`EstimatorSpec`'s fields, and
    ``eval_policy``, ``transfer`` and ``trigger`` hold their policy's
    fields; each dataclass supplies the defaults and checks the values.
    ``bucketing`` maps attribute columns to edge lists (null for
    categorical); a column it omits keeps the schema's declared edges.
    """
    raw = load_object(config_text, "job config", ("learner",), field_names(JobConfig))
    doc = {**raw, "bucketing": _bucketing(raw.get("bucketing", {}), schema)}
    for name, cls in (("learner", EstimatorSpec), ("eval_policy", EvalPolicy),
                      ("transfer", TransferPolicy), ("trigger", TriggerPolicy)):
        if name in raw:
            doc[name] = build(cls, raw[name], name)
    return JobConfig(**doc)


def _bucketing(by_column, schema: DatasetSchema) -> BucketingConfig:
    check_object(by_column, "bucketing", (), schema.attribute_columns)
    edges = []
    for name, declared in zip(schema.attribute_columns, BucketingConfig.from_schema(schema).edges):
        value = by_column.get(name, declared)
        edges.append(None if value is None else bucket_edges(value, f"bucketing {name!r}"))
    return BucketingConfig(tuple(edges))
