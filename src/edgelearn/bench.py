"""Benchmark harness: synthetic heterogeneous data and the closed vs
incremental vs lifelong comparison.

The synthetic generator realizes the label-shift motif: tasks share the
same feature space but place their class boundaries at different points
along feature 0, so one global model cannot fit them all. The three arms:

* closed: one model fit on all training data, attributes ignored.
* incremental: one model maintained over the task sequence, scored
  prequentially (each task's test is evaluated before its training data
  joins the cumulative pool; the first task bootstraps the model and is
  scored after its own fit).
* lifelong: the job's bootstrap cycle on the training set (its gate sees
  only a holdout of that set), scored through snapshot inference including
  unknown-task routing.
"""

from __future__ import annotations

import csv
import json
import random
import tempfile
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

from .data import (AttrValue, Dataset, DatasetSchema, Sample, _is_finite_number, check_int,
                   check_object, field_names, load_object, parse_schema)
from .edge import EdgeRuntime
from .errors import ConfigError, DataError, LearnerError, SerializationError
from .job import JobConfig, LifelongJob
from .kb import DeploySnapshot, KnowledgeBase
from .learners import (EstimatorSpec, EvalMetrics, decode_json, evaluate, fit, metrics_from_json,
                       metrics_to_json)
from .tasks import TaskPartition, as_tasks

METHOD_CLOSED = "closed"
METHOD_INCREMENTAL = "incremental"
METHOD_LIFELONG = "lifelong"


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticTask:
    """One task: its attribute tuple, per-feature uniform ranges, and a
    threshold rule over feature 0 mapping left-inclusive regions to classes."""

    attributes: tuple[AttrValue, ...]
    ranges: tuple[tuple[float, float], ...]
    thresholds: tuple[float, ...]
    region_classes: tuple[str, ...]
    noise: float
    n_samples: int


@dataclass(frozen=True)
class SyntheticSpec:
    schema: DatasetSchema
    tasks: tuple[SyntheticTask, ...]
    seed: int = 0

    def __post_init__(self):
        check_int("seed", self.seed)
        for i, task in enumerate(self.tasks):
            if len(task.ranges) != self.schema.n_features:
                raise ConfigError(f"task {i}: needs one range per feature")
            for bounds in task.ranges:
                if len(bounds) != 2 or not all(map(_is_finite_number, bounds)):
                    raise ConfigError(f"task {i}: a range must be two numbers, got {bounds!r}")
                lo, hi = bounds
                if not lo < hi:
                    raise ConfigError(f"task {i}: empty feature range [{lo},{hi}]")
            if not all(map(_is_finite_number, task.thresholds)):
                raise ConfigError(f"task {i}: thresholds must be numbers")
            if any(a >= b for a, b in zip(task.thresholds, task.thresholds[1:])):
                raise ConfigError(f"task {i}: thresholds must be strictly increasing")
            lo0, hi0 = task.ranges[0]
            if any(not lo0 < t < hi0 for t in task.thresholds):
                raise ConfigError(
                    f"task {i}: thresholds must lie inside the feature-0 range "
                    f"so every region covers part of it"
                )
            if len(task.region_classes) != len(task.thresholds) + 1:
                raise ConfigError(f"task {i}: needs one class per region")
            for c in task.region_classes:
                if c not in self.schema.label_classes:
                    raise ConfigError(f"task {i}: class {c!r} not declared in the schema")
            if not (_is_finite_number(task.noise) and 0.0 <= task.noise < 0.5):
                raise ConfigError(f"task {i}: noise must be in [0, 0.5)")
            check_int(f"task {i}: n", task.n_samples, 1)
            if len(task.attributes) != self.schema.n_attributes:
                raise ConfigError(f"task {i}: attribute tuple does not match the schema")


def rule_label(task: SyntheticTask, x0: float) -> str:
    """Noise-free label for a feature-0 value: region boundaries are
    left-inclusive (x >= threshold moves to the next region)."""
    return task.region_classes[bisect_right(task.thresholds, x0)]


def gen_synthetic(spec: SyntheticSpec) -> Dataset:
    """Deterministically generate the dataset: per task, uniform features in
    the declared ranges, rule labels, and independent label flips (to a
    uniformly chosen other class) at the configured noise rate."""
    rng = random.Random(spec.seed)
    classes = spec.schema.label_classes
    samples = []
    for task in spec.tasks:
        for _ in range(task.n_samples):
            features = tuple(rng.uniform(lo, hi) for lo, hi in task.ranges)
            label = rule_label(task, features[0])
            if rng.random() < task.noise:
                others = [c for c in classes if c != label]
                label = others[rng.randrange(len(others))]
            samples.append(Sample(features, task.attributes, label))
    return Dataset(spec.schema, tuple(samples))


def parse_synthetic_spec(config_text: str) -> SyntheticSpec:
    """Parse a JSON synthetic spec.

    Keys are :class:`SyntheticSpec`'s fields: ``seed``, ``schema`` (inline
    schema config object), ``tasks`` [{attributes, ranges, thresholds,
    classes, noise, n}]; a task's ``noise`` defaults to 0.
    """
    raw = load_object(config_text, "synthetic spec", ("schema", "tasks"), field_names(SyntheticSpec))
    schema = parse_schema(json.dumps(raw["schema"]))
    try:
        tasks = []
        for i, entry in enumerate(raw["tasks"]):
            entry = check_object(entry, f"synthetic spec task {i}",
                                 ("attributes", "ranges", "thresholds", "classes", "n"), ("noise",))
            for key in ("attributes", "ranges", "thresholds", "classes"):
                if not isinstance(entry[key], list):
                    raise ConfigError(f"synthetic spec task {i}: {key!r} must be a list")
            tasks.append(SyntheticTask(
                attributes=tuple(entry["attributes"]),
                ranges=tuple(tuple(bounds) for bounds in entry["ranges"]),
                thresholds=tuple(entry["thresholds"]),
                region_classes=tuple(entry["classes"]),
                noise=entry.get("noise", 0.0),
                n_samples=entry["n"],
            ))
        return SyntheticSpec(**{**raw, "schema": schema, "tasks": tuple(tasks)})
    except TypeError as exc:
        raise ConfigError(f"bad synthetic spec: {exc}") from exc


# ---------------------------------------------------------------------------
# Benchmark arms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MethodResult:
    """Per-task metrics and exact sample-weighted overall accuracy."""

    per_task: dict[str, EvalMetrics]
    overall_accuracy: float

    @classmethod
    def from_metrics(cls, per_task: dict[str, EvalMetrics]) -> "MethodResult":
        total = sum(m.n for m in per_task.values())
        correct = sum(m.correct for m in per_task.values())
        if total == 0:
            raise DataError("no test samples to score")
        return cls(per_task=per_task, overall_accuracy=correct / total)


@dataclass(frozen=True)
class BenchResult:
    methods: dict[str, MethodResult]
    improvements: dict[str, float]          # per task, lifelong vs incremental
    overall_improvements: dict[str, float]  # "vs_closed", "vs_incremental"


def relative_improvement(accuracy: float, baseline: float) -> float:
    """Percent relative improvement 100*(a-b)/b; the baseline must be > 0."""
    if baseline <= 0.0:
        raise DataError("zero baseline: relative improvement undefined")
    return 100.0 * (accuracy - baseline) / baseline


def baseline_closed(
    train: Dataset,
    test: Dataset | TaskPartition,
    learner: EstimatorSpec,
    seed: int,
) -> MethodResult:
    """One model fit on all training data, task structure ignored; scored
    per task on the test set, mined under its schema's bucket edges (or its
    task partition), for comparability."""
    model = fit(learner, train, seed)
    test = as_tasks(test)
    return MethodResult.from_metrics({key: evaluate(model, test.parts[key]) for key in test.keys})


def baseline_incremental(
    task_stream: list[tuple[str, Dataset, Dataset]],
    learner: EstimatorSpec,
    seed: int,
) -> MethodResult:
    """Prequential single-model baseline over an ordered task stream of
    (key, train, test) entries. Each task's test is scored against the model
    trained on all previous tasks; its training data then joins the pool.
    The first task with training data bootstraps the model and is scored
    after its own fit. Empty train or test parts are allowed and skipped.
    A model is fit only when a test part is scored against it, so a pool
    no later task is scored on is never fit.
    All parts share one schema; pooled fits do not re-check their samples."""
    if not task_stream:
        raise DataError("task stream is empty")
    schema = task_stream[0][1].schema
    per_task: dict[str, EvalMetrics] = {}
    pool: list[Sample] = []
    model, fitted_rows = None, 0  # the pool is only ever extended
    for key, train_part, test_part in task_stream:
        if train_part.schema != schema or test_part.schema != schema:
            raise DataError(f"task {key!r} has another schema than the stream")
        bootstrap = not pool
        if bootstrap:
            pool.extend(train_part.samples)
        if len(test_part) > 0:
            if not pool:
                raise DataError(f"task {key!r} has no model to evaluate yet")
            if fitted_rows != len(pool):
                model, fitted_rows = fit(learner, test_part.derive(pool), seed), len(pool)
            per_task[key] = evaluate(model, test_part)
        if not bootstrap:
            pool.extend(train_part.samples)
    return MethodResult.from_metrics(per_task)


@dataclass(frozen=True)
class LifelongBenchOutcome:
    result: MethodResult
    snapshot: DeploySnapshot


def run_lifelong_bench(
    train: Dataset | TaskPartition,
    test: Dataset | TaskPartition,
    cfg: JobConfig,
    kb_path: str | Path | None = None,
) -> LifelongBenchOutcome:
    """Full pipeline over two sets or their task partitions (a set is mined
    once): the job's bootstrap cycle on the training set (train, gate on its
    own holdout, deploy), then score every test sample through snapshot
    inference (unknown tasks route to similar or fallback). No test label
    reaches the gate."""
    train, test = as_tasks(train), as_tasks(test)
    if kb_path is None:
        with tempfile.TemporaryDirectory(prefix="edgelearn-bench-") as tmp:
            return run_lifelong_bench(train, test, cfg, tmp)
    snapshot = LifelongJob(cfg, KnowledgeBase.open(kb_path)).bootstrap(train)

    runtime = EdgeRuntime(train.dataset.schema, train.bucketing)
    runtime.apply_snapshot(snapshot)
    classes = train.dataset.schema.label_classes
    per_task = {
        key: EvalMetrics.from_pairs(
            classes, ((s.label, runtime.infer(s).label) for s in test.parts[key].samples)
        )
        for key in test.keys
    }
    return LifelongBenchOutcome(MethodResult.from_metrics(per_task), snapshot)


def run_bench(
    train: Dataset,
    test: Dataset,
    cfg: JobConfig,
    work_dir: str | Path | None = None,
) -> BenchResult:
    """Run all three arms on the same train/test pair and compute relative
    improvements of the lifelong arm over the baselines. The lifelong arm's
    knowledge base lives under *work_dir* when given (a temp dir otherwise).
    Each set is mined into tasks once, and the arms share the partitions."""
    test_parts = as_tasks(test)
    closed = baseline_closed(train, test_parts, cfg.learner, cfg.seed)
    train_parts = as_tasks(train)
    empty = Dataset(train.schema)
    # tasks with training rows first; test-only tasks arrive as "future" tasks
    # scored with whatever model the stream has produced by then
    stream_keys = train_parts.keys + sorted(set(test_parts.parts) - set(train_parts.parts))
    stream = [
        (
            key,
            train_parts.parts.get(key, empty),
            test_parts.parts.get(key, empty),
        )
        for key in stream_keys
    ]
    incremental = baseline_incremental(stream, cfg.learner, cfg.seed)
    kb_path = Path(work_dir) / "lifelong_kb" if work_dir is not None else None
    lifelong = run_lifelong_bench(train_parts, test_parts, cfg, kb_path).result

    improvements = {}
    for key, metrics in sorted(lifelong.per_task.items()):
        base = incremental.per_task.get(key)
        if base is not None and base.accuracy > 0.0:
            improvements[key] = relative_improvement(metrics.accuracy, base.accuracy)
    overall = {}
    if closed.overall_accuracy > 0.0:
        overall["vs_closed"] = relative_improvement(
            lifelong.overall_accuracy, closed.overall_accuracy
        )
    if incremental.overall_accuracy > 0.0:
        overall["vs_incremental"] = relative_improvement(
            lifelong.overall_accuracy, incremental.overall_accuracy
        )
    return BenchResult(
        methods={
            METHOD_CLOSED: closed,
            METHOD_INCREMENTAL: incremental,
            METHOD_LIFELONG: lifelong,
        },
        improvements=improvements,
        overall_improvements=overall,
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

ACCURACY_FILE = "accuracy.csv"
IMPROVEMENT_FILE = "improvement.csv"
SUMMARY_FILE = "summary.json"


def emit_report(result: BenchResult, out_dir: str | Path) -> list[Path]:
    """Write the per-task accuracy table, the relative-improvement table
    (sorted by improvement, descending), and a machine-readable summary.
    Output is bit-stable for identical results."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    accuracy_path = out / ACCURACY_FILE
    with accuracy_path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task_key", "method", "accuracy", "n"])
        rows = []
        for method, mres in result.methods.items():
            for key, metrics in mres.per_task.items():
                rows.append((key, method, repr(metrics.accuracy), str(metrics.n)))
        for row in sorted(rows):
            writer.writerow(row)

    improvement_path = out / IMPROVEMENT_FILE
    with improvement_path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task_key", "improvement_pct"])
        ordered = sorted(result.improvements.items(), key=lambda kv: (-kv[1], kv[0]))
        for key, pct in ordered:
            writer.writerow([key, repr(pct)])

    summary_path = out / SUMMARY_FILE
    doc = {
        "methods": {
            method: {
                "overall_accuracy": mres.overall_accuracy,
                "per_task": {
                    key: metrics_to_json(metrics)
                    for key, metrics in sorted(mres.per_task.items())
                },
            }
            for method, mres in sorted(result.methods.items())
        },
        "improvements": result.improvements,
        "overall_improvements": result.overall_improvements,
    }
    summary_path.write_text(json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8")
    return [accuracy_path, improvement_path, summary_path]


def _summary_object(value, what: str, numbers: bool = False) -> dict:
    """*value* if it is a JSON object (of finite numbers, with *numbers*)."""
    if not isinstance(value, dict) or numbers and not all(map(_is_finite_number, value.values())):
        raise TypeError(f"{what} is not an object" + (" of numbers" if numbers else ""))
    return value


def parse_summary(path: str | Path) -> BenchResult:
    """Rebuild a BenchResult from an emitted summary file. A file that does
    not decode or is not a summary's shape raises ConfigError naming it."""
    try:
        doc = _summary_object(decode_json(Path(path).read_bytes(), "JSON"), "summary")
        methods = {}
        for method, entry in _summary_object(doc["methods"], "methods").items():
            entry = _summary_object(entry, f"method {method!r}")
            accuracy = entry["overall_accuracy"]
            if not _is_finite_number(accuracy):
                raise TypeError(f"method {method!r}: overall_accuracy {accuracy!r} is not a number")
            per_task = _summary_object(entry["per_task"], f"method {method!r}: per_task")
            methods[method] = MethodResult(
                per_task={
                    key: metrics_from_json(_summary_object(m, f"method {method!r}: task {key!r}"))
                    for key, m in per_task.items()
                },
                overall_accuracy=accuracy,
            )
        return BenchResult(
            methods=methods,
            improvements=_summary_object(doc["improvements"], "improvements", numbers=True),
            overall_improvements=_summary_object(
                doc["overall_improvements"], "overall_improvements", numbers=True
            ),
        )
    except (OSError, ValueError, KeyError, TypeError, LearnerError, SerializationError) as exc:
        raise ConfigError(f"bad summary file {path}: {exc}") from exc


def format_report_text(result: BenchResult) -> str:
    """Human-readable rendering of a BenchResult for the CLI."""
    lines = ["method overall accuracies:"]
    for method in (METHOD_CLOSED, METHOD_INCREMENTAL, METHOD_LIFELONG):
        if method in result.methods:
            lines.append(f"  {method:<12} {result.methods[method].overall_accuracy:.4f}")
    for name, pct in sorted(result.overall_improvements.items()):
        lines.append(f"lifelong improvement {name.replace('_', ' ')}: {pct:+.2f}%")
    lines.append("")
    lines.append(f"{'task_key':<24} {'method':<12} {'accuracy':>9} {'n':>6}")
    for method, mres in sorted(result.methods.items()):
        for key, metrics in sorted(mres.per_task.items()):
            lines.append(f"{key:<24} {method:<12} {metrics.accuracy:>9.4f} {metrics.n:>6}")
    if result.improvements:
        lines.append("")
        lines.append(f"{'task_key':<24} {'improvement_pct':>16}")
        ordered = sorted(result.improvements.items(), key=lambda kv: (-kv[1], kv[0]))
        for key, pct in ordered:
            lines.append(f"{key:<24} {pct:>+16.2f}")
    return "\n".join(lines) + "\n"
