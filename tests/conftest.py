"""Shared builders for the test suite."""

from __future__ import annotations

import os
import random
from dataclasses import replace

import pytest

import edgelearn.kb as kb_mod
from edgelearn.data import AttributeKind, Dataset, DatasetSchema, Sample
from edgelearn.kb import KnowledgeBase
from edgelearn.learners import EstimatorSpec, ModelArtifact, TreeLearner, fit


def city_schema(classes: tuple[str, ...] = ("a", "b")) -> DatasetSchema:
    """One numeric feature, one categorical attribute."""
    return DatasetSchema(
        feature_columns=("x",),
        label_column="y",
        label_classes=classes,
        attribute_columns=("city",),
        attribute_kinds=(AttributeKind("categorical"),),
    )


def banded_schema(edges: tuple[float, ...] = (20.0, 30.0)) -> DatasetSchema:
    """One numeric feature, one categorical plus one bucketed numeric attribute."""
    return DatasetSchema(
        feature_columns=("x",),
        label_column="y",
        label_classes=("a", "b"),
        attribute_columns=("city", "band"),
        attribute_kinds=(AttributeKind("categorical"), AttributeKind("numeric", edges)),
    )


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
