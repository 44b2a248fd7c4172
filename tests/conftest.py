"""Shared builders for the test suite."""

from __future__ import annotations

import csv
import json
import os
import random
from dataclasses import replace
from pathlib import Path

import pytest

import edgelearn.kb as kb_mod
from edgelearn.bench import SyntheticSpec, rule_label
from edgelearn.data import Dataset, DatasetSchema, Sample, _column_plan, write_csv
from edgelearn.edge import EdgeRuntime
from edgelearn.kb import KnowledgeBase
from edgelearn.learners import EstimatorSpec, ModelArtifact, TreeLearner, fit
from edgelearn.tasks import BucketedAttributes, task_similarity


def city_schema(classes: tuple[str, ...] = ("a", "b")) -> DatasetSchema:
    """One numeric feature, one categorical attribute."""
    return DatasetSchema(
        feature_columns=("x",),
        label_column="y",
        label_classes=classes,
        attribute_columns=("city",),
        attribute_edges=(None,),
    )


def banded_schema(edges: tuple[float, ...] = (20.0, 30.0)) -> DatasetSchema:
    """One numeric feature, one categorical plus one bucketed numeric attribute."""
    return DatasetSchema(
        feature_columns=("x",),
        label_column="y",
        label_classes=("a", "b"),
        attribute_columns=("city", "band"),
        attribute_edges=(None, edges),
    )


def rank_similar(query: BucketedAttributes,
                 tasks: dict[str, BucketedAttributes]) -> list[tuple[str, float]]:
    """(key, similarity) of every task scoring above 0 against *query* by the checked
    :func:`task_similarity`, most similar first, ties to the smaller key: the oracle
    of sample transfer's donor order and of the edge's routes."""
    scored = []
    for key in sorted(tasks):
        sim = task_similarity(query, tasks[key])
        if sim > 0.0:
            scored.append((-sim, key))
    scored.sort()
    return [(key, -neg) for neg, key in scored]


def reference_write_csv(dataset: Dataset, path: Path) -> None:
    """``write_csv`` as one ``csv.writer`` row per sample, each cell formatted
    on its own: the oracle of the column-at-a-time writer's bytes."""
    def text(value) -> str:
        if value is None:
            return ""
        return value if isinstance(value, str) else repr(float(value))

    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([name for name, _ in _column_plan(dataset.schema)])
        for s in dataset.samples:
            writer.writerow([*map(text, s.features), text(s.label), *map(text, s.attributes)])


def reference_gen_synthetic(spec: SyntheticSpec) -> Dataset:
    """``gen_synthetic`` with the other classes listed on every flip and every
    row checked by the :class:`Dataset` constructor: the generator's oracle."""
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


def make_samples(rows) -> tuple[Sample, ...]:
    """rows: iterable of (features tuple, attrs tuple, label)."""
    return tuple(Sample(tuple(float(v) for v in f), tuple(a), y) for f, a, y in rows)


def city_dataset(rows, classes=("a", "b")) -> Dataset:
    """rows: iterable of (x, city, label)."""
    schema = city_schema(classes)
    return Dataset(
        schema,
        make_samples([((x,), (city,), y) for x, city, y in rows]),
    )


def edge_prediction_lines(report, edge_id: int) -> list[str]:
    """The predict events of edge *edge_id* in a sim report, in order."""
    prefix = f"edge:{edge_id},predict,"
    return [line for line in report.events if line.split(",", 1)[1].startswith(prefix)]


def chain_tree_model(depth: int) -> ModelArtifact:
    """A tree model of :func:`city_schema` whose splits form one chain
    *depth* deep, as no fit grows: split k sends x < k + 0.5 to a leaf of
    class k % 2, else on; past the last split, a leaf of class depth % 2."""
    model = fit(EstimatorSpec("tree"), city_dataset([(0.0, "c", "a"), (1.0, "c", "b")]), 0)
    tree = []
    for k in range(depth):  # split k is node 2k, its leaf 2k + 1, the next split 2k + 2
        tree += [0, k + 0.5, 2 * k + 2], k % 2
    tree.append(depth % 2)
    return replace(model, parameters={**model.parameters, "tree": tree})


def count_tree_compiles(monkeypatch) -> list[dict]:
    """The parameters of every tree :meth:`TreeLearner.predictor` compiles from now on."""
    compiled: list[dict] = []
    compile_tree = TreeLearner.predictor

    def counting(self, params):
        compiled.append(params)
        return compile_tree(self, params)

    monkeypatch.setattr(TreeLearner, "predictor", counting)
    return compiled


def routes(runtime) -> tuple:
    """What *runtime* routes by: its index's groups, its value table, its
    predictor per key and its fallback predictor."""
    index, known, predictors, fallback = runtime._routes
    return index._groups, known, predictors, fallback


def fresh_routes(runtime) -> tuple:
    """:func:`routes` of a new runtime like *runtime* that applies its active snapshot."""
    fresh = EdgeRuntime(runtime.schema, runtime.bucketing, runtime.similarity_threshold)
    fresh.apply_snapshot(runtime.active)
    return routes(fresh)


def random_city_dataset(rng: random.Random, n: int, cities, classes=("a", "b")) -> Dataset:
    rows = [
        (rng.uniform(0, 10), rng.choice(cities), rng.choice(classes))
        for _ in range(n)
    ]
    return city_dataset(rows, classes)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)


def declared_kb(path, schema: DatasetSchema | None = None) -> KnowledgeBase:
    """The knowledge base at *path*, declaring the shape of *schema*
    (default :func:`city_schema`) under its declared edges, as a job's
    first stage would."""
    schema = schema or city_schema()
    kb = KnowledgeBase.open(path)
    kb.declare_shape(schema)
    return kb


class CrashPoints:
    """Counts the KB's durability steps (a file write, an ``os.fsync``, a
    rename) and, once armed, makes the k-th of them raise ``OSError``."""

    def __init__(self):
        self.calls = 0
        self.crash_at: int | None = None

    def arm(self, k: int | None) -> None:
        """Crash at the k-th step from now on; ``None`` only counts."""
        self.calls, self.crash_at = 0, k

    def due(self) -> bool:
        self.calls += 1
        return self.calls == self.crash_at


@pytest.fixture
def crash_points(monkeypatch) -> CrashPoints:
    """Fault injection for ``os.fsync``, ``kb._replace_file`` and
    ``kb._write_synced``. A crashed write leaves the first half of its
    bytes on disk, as a torn write would."""
    points = CrashPoints()
    real_fsync, real_replace, real_write = os.fsync, kb_mod._replace_file, kb_mod._write_synced

    def fsync(fd):
        if points.due():
            raise OSError(f"injected crash at step {points.calls}: fsync")
        real_fsync(fd)

    def replace_file(src, dst):
        if points.due():
            raise OSError(f"injected crash at step {points.calls}: rename to {dst.name}")
        real_replace(src, dst)

    def write_synced(path, data):
        if points.due():
            with open(path, "wb") as fh:
                fh.write(data[: len(data) // 2])
            raise OSError(f"injected crash at step {points.calls}: write of {path.name}")
        real_write(path, data)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(kb_mod, "_replace_file", replace_file)
    monkeypatch.setattr(kb_mod, "_write_synced", write_synced)
    return points


@pytest.fixture
def sim_dir(tmp_path) -> Path:
    """The pinned two-edge sim: athens bootstraps, oslo streams in labeled
    and triggers an update cycle, and edge 1 goes down and comes back."""
    (tmp_path / "schema.json").write_text(json.dumps({
        "features": ["x"], "label": {"name": "y", "classes": ["a", "b"]},
        "attributes": [{"name": "city", "kind": "categorical"}],
    }), encoding="utf-8")
    (tmp_path / "job.json").write_text(json.dumps({
        "learner": {"kind": "tree"}, "transfer": {"min_samples": 1, "cap": 1000},
        "trigger": {"unseen_threshold": 10}, "seed": 5,
    }), encoding="utf-8")
    write_csv(city_dataset([(float(i), "athens", "ab"[i >= 15]) for i in range(30)]),
              tmp_path / "initial.csv")
    write_csv(city_dataset([(i / 2, "oslo", "ba"[i >= 6]) for i in range(12)]),
              tmp_path / "oslo.csv")
    write_csv(city_dataset([(float(i), "athens", None) for i in range(0, 30, 4)]),
              tmp_path / "athens.csv")
    (tmp_path / "sim.json").write_text(json.dumps({
        "edges": 2, "max_ticks": 6, "schema": "schema.json", "job": "job.json",
        "initial_data": "initial.csv",
        "streams": [{"tick": 1, "edge": 0, "data": "oslo.csv"},
                    {"tick": 2, "edge": 1, "data": "athens.csv"},
                    {"tick": 4, "edge": 1, "data": "oslo.csv"}],
        "links": [{"tick": 1, "edge": 1, "state": "down"},
                  {"tick": 3, "edge": 1, "state": "up"}],
    }), encoding="utf-8")
    return tmp_path


def sim_args(work: Path, out: str) -> list[str]:
    """``sim run`` of :func:`sim_dir`'s config into ``work/out``."""
    return ["sim", "run", "--config", str(work / "sim.json"), "--kb", str(work / f"{out}kb"),
            "--out-dir", str(work / out)]
