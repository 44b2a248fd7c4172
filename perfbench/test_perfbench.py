"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import edgelearn  # noqa: E402
from edgelearn import data as D  # noqa: E402
from edgelearn import edge as E  # noqa: E402
from edgelearn import kb as K  # noqa: E402
from edgelearn import tasks as T  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

TINY = {
    "SERVE_SITES": 3, "SERVE_BANDS": 1, "SERVE_ROWS": 10, "SERVE_REQUESTS": 100,
    "SIM_SITES": 3, "SIM_BANDS": 2, "SIM_ROWS": 10, "SIM_TICKS": 16,
    "SIM_READS": 5, "SIM_LABELED": 2, "SIM_TRIGGER_TICKS": 4,
}


@pytest.fixture
def tiny(monkeypatch):
    for name, value in TINY.items():
        monkeypatch.setattr(W, name, value)


def test_self_time_subtracts_children_and_hot_calls():
    tree = [
        spans.Span("root", 0, 100, -1, 0, hot_ns=3),
        spans.Span("a", 10, 40, 0, 0, hot_ns=5),
        spans.Span("b", 50, 90, 0, 0),
        spans.Span("c", 60, 70, 2, 0),
    ]
    assert spans.self_times(tree) == [100 - 30 - 40 - 3, 30 - 5, 40 - 10, 10]


def test_tail_keeps_ten_samples_beyond_and_caps_at_p99():
    assert run.tail([float(v) for v in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([float(v) for v in range(1, 1001)]) == (990.0, 99.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_tracer_patches_every_binding_and_restores_them():
    original_fit = edgelearn.learners.fit
    assert edgelearn.job.fit is original_fit
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert edgelearn.job.fit is edgelearn.learners.fit is not original_fit
        schema = W.site_band_schema()
        bucketing = T.BucketingConfig.from_schema(schema)
        tracer.root("op.test", lambda: T.task_similarity(
            edgelearn.tasks.bucket_attributes(("a", 0.5), bucketing),
            edgelearn.tasks.bucket_attributes(("a", 3.5), bucketing)))
    finally:
        tracer.uninstall()
    assert edgelearn.job.fit is original_fit
    assert edgelearn.tasks.bucket_attributes.__module__ == "edgelearn.tasks"
    assert tracer.hot["tasks.bucket_attributes"][0] == 2
    assert tracer.hot["tasks.task_similarity"][0] == 1
    [root] = tracer.finished_spans()
    assert root.hot_ns == sum(ns for _, ns in tracer.hot.values())


def _input_bytes(workload: str, seed: int, tmp: Path) -> bytes:
    if workload == "bench3":
        datasets = [W.B.gen_synthetic(W.bench3_spec(seed))]
    elif workload == "serve":
        inputs = W.serve_inputs(seed)
        datasets = [D.Dataset(inputs.schema, inputs.requests)]
        tmp.joinpath("payload").write_bytes(inputs.payload + repr(inputs.routes).encode())
    else:
        inputs = W.sim_inputs(seed)
        datasets = [inputs.initial, *(d for _, _, d in inputs.streams)]
        tmp.joinpath("payload").write_text(repr((inputs.links, [s[:2] for s in inputs.streams])))
    for i, dataset in enumerate(datasets):
        D.write_csv(dataset, tmp / f"{i}.csv")
    return b"".join(p.read_bytes() for p in sorted(tmp.iterdir()))


@pytest.mark.parametrize("workload", ["bench3", "serve", "sim"])
def test_generator_is_deterministic_per_seed(tiny, tmp_path, workload):
    first, again, other = (tmp_path / n for n in ("first", "again", "other"))
    for d in (first, again, other):
        d.mkdir()
    assert _input_bytes(workload, 7, first) == _input_bytes(workload, 7, again)
    assert _input_bytes(workload, 7, first) != _input_bytes(workload, 8, other)


def test_serve_stream_has_the_exact_route_mix_and_takes_those_routes(tiny):
    inputs = W.serve_inputs(3)
    assert Counter(inputs.routes) == {"known": 60, "similar": 30, "fallback": 10}
    runtime = E.EdgeRuntime(inputs.schema, T.BucketingConfig.from_schema(inputs.schema))
    runtime.apply_snapshot(K.deserialize_snapshot(inputs.payload))
    assert [runtime.infer(s).route for s in inputs.requests] == list(inputs.routes)


def test_serve_unknown_keys_repeat_only_once_the_key_space_is_used_up(tiny):
    inputs = W.serve_inputs(3)
    bucketing = T.BucketingConfig.from_schema(inputs.schema)
    keys = {"similar": [], "fallback": []}
    for sample, route in zip(inputs.requests, inputs.routes):
        if route in keys:
            keys[route].append(T.task_key(T.bucket_attributes(sample.attributes, bucketing)))
    assert len(set(keys["fallback"])) == len(keys["fallback"]) == 10
    # 3 sites with one band each leave at least 3 x 19 unseen bands in reach
    assert len(set(keys["similar"])) == len(keys["similar"]) == 30


def _declared(kind: str) -> list[str]:
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in doc[kind]]


def test_benchmark_json_matches_what_the_runner_emits():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [[m["name"], m["unit"]] for m in doc["end_to_end"]] == [list(m) for m in run.END_TO_END]
    assert doc["per_layer"] == run.per_layer_spec()
    assert {w["name"] for w in doc["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["bench3", "serve", "sim"])
def test_smoke_every_metric_present_and_no_errors(tiny, capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = _declared("per_layer" if trace else "end_to_end")
    assert sorted(result["metrics"]) == sorted(names)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
