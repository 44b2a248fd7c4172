"""Determinism pins: the sha256 of each artefact the README's commands write.

Every input is generated in-process from a fixed seed, and every artefact is
written by the CLI, so these pins hold the contract that the same config and
seed give byte-identical reports, snapshots, stores, predictions and event
logs. A change that moves one of these bytes must say so and re-pin it.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from hashlib import sha256
from pathlib import Path

import pytest

import edgelearn
from edgelearn.cli import cli_main
from edgelearn.data import Dataset, load_csv, parse_schema, split_dataset, write_csv
from edgelearn.reference import reference_text

from conftest import city_dataset, make_samples

PINS = {
    "summary.json": "0f7f5264538a2d70a5852d4cfa66a72634e44ee9a8b70c3e29af5ae97a8f14c8",
    "accuracy.csv": "2dd8dce1b834d78b0fe6d394c548835bdcac0df515e228e39cbf7b18a85acf0f",
    "improvement.csv": "6e2565898d412ddbb6bfbc7b103555d148358454c5b2077934a65961f66c0b0b",
    "snap.json": "b9aa7ac5d50d35762cd7b402e11033914da096337526d934de7f7628cdc21539",
    "index.json": "a14ac5867fc2fbf458f19158cc4b5900874758a207cbab59f566b41ca3bde172",
    "predictions.csv": "53a43afc4d4b5b13eec5aa74b9f0d3beea82ec712b8acf1f3ce5104110564ba3",
    "events.log": "f89ee132bd104d64507fe0e3ea186cfe7ecf07f1c7b542feccffc936998486bc",
    "report.json": "b16da8202aada636a8d142ca7bd79c9c697212b995a5af2683066c0baa4a8c83",
    "routes.csv": "e1fa93db7ec4a4db96c065c69f7bacc2ae6027cd7565b19425141d03999d995e",
}


def _digest(path: Path) -> str:
    return sha256(path.read_bytes()).hexdigest()


def _run(*argv) -> None:
    assert cli_main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def thermal5(tmp_path_factory) -> Path:
    """The README quick start's inputs: thermal5, split 70/30 at seed 42."""
    work = tmp_path_factory.mktemp("thermal5")
    for name in ("thermal_schema.json", "thermal_job.json", "thermal5_synthetic.json"):
        (work / name).write_text(reference_text(name), encoding="utf-8")
    _run("bench", "gen", "--config", work / "thermal5_synthetic.json", "--out", work / "data.csv")
    schema = parse_schema((work / "thermal_schema.json").read_text(encoding="utf-8"))
    train, test = split_dataset(load_csv(work / "data.csv", schema), 0.7, seed=42)
    write_csv(train, work / "train.csv")
    write_csv(test, work / "test.csv")
    return work


def _job_args(work: Path) -> list:
    return ["--kb", work / "kb", "--schema", work / "thermal_schema.json",
            "--config", work / "thermal_job.json"]


def test_bench_run_outputs_are_pinned(thermal5, capsys):
    _run("bench", "run", "--schema", thermal5 / "thermal_schema.json",
         "--config", thermal5 / "thermal_job.json", "--train", thermal5 / "train.csv",
         "--test", thermal5 / "test.csv", "--out-dir", thermal5 / "reports")
    for name in ("summary.json", "accuracy.csv", "improvement.csv"):
        assert _digest(thermal5 / "reports" / name) == PINS[name], name


def test_job_snapshot_store_and_edge_predictions_are_pinned(thermal5, capsys):
    job = _job_args(thermal5)
    _run("kb", "init", "--kb", thermal5 / "kb")
    _run("job", "train", *job, "--data", thermal5 / "train.csv")
    _run("job", "eval", *job, "--data", thermal5 / "test.csv")
    _run("job", "deploy", *job, "--out", thermal5 / "snap.json")
    # job[2:4] is --schema alone: an edge reads no job config
    _run("edge", "infer", *job[2:4], "--snapshot", thermal5 / "snap.json",
         "--data", thermal5 / "test.csv", "--out", thermal5 / "predictions.csv")
    assert _digest(thermal5 / "snap.json") == PINS["snap.json"]
    assert _digest(thermal5 / "kb" / "index.json") == PINS["index.json"]
    assert _digest(thermal5 / "predictions.csv") == PINS["predictions.csv"]


def test_edge_predictions_on_every_route_are_pinned(tmp_path, capsys):
    """A site (categorical) and band (numeric) schema, so requests take all
    three routes: known tasks, unseen bands of known sites (similar), unseen
    sites (fallback), and band values that sit exactly on an edge."""
    schema_text = json.dumps({
        "features": ["x"], "label": {"name": "y", "classes": ["a", "b"]},
        "attributes": [{"name": "site", "kind": "categorical"},
                       {"name": "band", "kind": "numeric", "edges": [10, 20, 30, 40]}],
    })
    (tmp_path / "schema.json").write_text(schema_text, encoding="utf-8")
    (tmp_path / "job.json").write_text(json.dumps({
        "learner": {"kind": "tree", "hyperparameters": {"max_depth": 3}},
        "eval_policy": {"min_accuracy": 0.0, "min_eval_samples": 1},
        "transfer": {"min_samples": 1, "cap": 1000}, "fallback_enabled": True, "seed": 3,
    }), encoding="utf-8")
    schema = parse_schema(schema_text)
    rng = random.Random(17)
    cells = [("s1", 5.0, 3.0), ("s1", 25.0, 6.0), ("s2", 25.0, 4.0), ("s3", 45.0, 7.0)]
    rows = []
    for site, band, cut in cells:
        for _ in range(12):
            x = round(rng.uniform(0.0, 10.0), 3)
            rows.append(((x,), (site, band + rng.uniform(-4.0, 4.0)), "ab"[x >= cut]))
    rng.shuffle(rows)
    write_csv(Dataset(schema, make_samples(rows)), tmp_path / "train.csv")
    write_csv(Dataset(schema, make_samples(rows[::3])), tmp_path / "eval.csv")
    requests = [
        (("s1", 5.0), "known"), (("s1", 20.0), "known, on an edge"), (("s2", 29.9), "known"),
        (("s3", 40.0), "known, on an edge"), (("s1", 15.0), "similar, tied neighbours"),
        (("s1", 10.0), "similar, on an edge"), (("s2", 45.0), "similar, two bands away"),
        (("s3", 30.0), "similar, on an edge"), (("s2", 0.0), "similar"),
        (("s9", 25.0), "fallback"), (("s1|0", 5.0), "fallback"), (("s\\2", 20.0), "fallback"),
    ]
    write_csv(Dataset(schema, make_samples(
        ((float(i),), attrs, None) for i, (attrs, _) in enumerate(requests))),
        tmp_path / "requests.csv")
    job = ["--kb", tmp_path / "kb", "--schema", tmp_path / "schema.json",
           "--config", tmp_path / "job.json"]
    _run("kb", "init", "--kb", tmp_path / "kb")
    _run("job", "train", *job, "--data", tmp_path / "train.csv")
    _run("job", "eval", *job, "--data", tmp_path / "eval.csv")
    _run("job", "deploy", *job, "--out", tmp_path / "snap.json")
    _run("edge", "infer", *job[2:4], "--snapshot", tmp_path / "snap.json",
         "--data", tmp_path / "requests.csv", "--out", tmp_path / "routes.csv")
    lines = (tmp_path / "routes.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [line.split(",")[2] for line in lines] == [
        route.split(",")[0] for _, route in requests]
    assert _digest(tmp_path / "routes.csv") == PINS["routes.csv"]


@pytest.fixture
def sim_dir(tmp_path) -> Path:
    """A small two-edge sim: athens bootstraps, oslo streams in labeled and
    triggers an update cycle, and edge 1 goes down and comes back."""
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


def _sim_args(work: Path, out: str) -> list[str]:
    return ["sim", "run", "--config", str(work / "sim.json"), "--kb", str(work / f"{out}kb"),
            "--out-dir", str(work / out)]


def test_sim_outputs_are_pinned(sim_dir, capsys):
    _run(*_sim_args(sim_dir, "out"))
    for name in ("events.log", "report.json"):
        assert _digest(sim_dir / "out" / name) == PINS[name], name


def test_sim_outputs_do_not_depend_on_the_hash_seed(sim_dir):
    src = str(Path(edgelearn.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONHASHSEED": "12345",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    subprocess.run([sys.executable, "-m", "edgelearn", *_sim_args(sim_dir, "out2")],
                   env=env, check=True, capture_output=True, timeout=60)
    for name in ("events.log", "report.json"):
        assert _digest(sim_dir / "out2" / name) == PINS[name], name
