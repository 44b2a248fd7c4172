"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import json
import random
import time
from bisect import bisect_right
from dataclasses import replace

from edgelearn.bench import gen_synthetic, parse_synthetic_spec, run_bench
from edgelearn.cli import cli_main
from edgelearn.data import Dataset, Sample, split_dataset, write_csv
from edgelearn.edge import EdgeRuntime
from edgelearn.errors import NothingDeployableError
from edgelearn.job import (
    EvalPolicy,
    JobConfig,
    LifelongJob,
    TransferPolicy,
    TriggerPolicy,
    parse_job_config,
)
import edgelearn.kb as kb_mod
from edgelearn.kb import (
    STATUS_DEPLOYABLE,
    STATUS_EVAL_FAILED,
    DeploySnapshot,
    KnowledgeBase,
    SnapshotEntry,
    TaskRecord,
)
from edgelearn.learners import EstimatorSpec, evaluate, fit, serialize_model
from edgelearn.reference import reference_text
from edgelearn.sim import LinkEvent, SimConfig, StreamEvent, start_sim
from edgelearn.tasks import (
    BucketingConfig,
    as_tasks,
    bucket_attributes,
    rank_similar,
    task_key,
    task_similarity,
)

from conftest import city_dataset, city_schema, declared_kb, edge_prediction_lines
from test_learners import collect_splits, exhaustive_best_gini_split


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# Frozen regression constants from the first full run of the shipped
# 5-task synthetic spec (seed 42, 70/30 split, tree max_depth=4).
# Tolerance: +/- 1 percentage point.
FROZEN_LIFELONG = 0.9333333333333333
FROZEN_CLOSED = 0.66
FROZEN_INCREMENTAL = 0.6173333333333333


def test_criterion_1_heterogeneity_advantage():
    start = time.monotonic()
    spec = parse_synthetic_spec(reference_text("thermal5_synthetic.json"))
    cfg = parse_job_config(reference_text("thermal_job.json"), spec.schema)
    data = gen_synthetic(spec)
    train, test = split_dataset(data, 0.7, seed=42)
    result = run_bench(train, test, cfg)
    elapsed = time.monotonic() - start

    lifelong = result.methods["lifelong"].overall_accuracy
    closed = result.methods["closed"].overall_accuracy
    incremental = result.methods["incremental"].overall_accuracy

    ok = (
        lifelong - closed >= 0.10
        and lifelong - incremental >= 0.05
        and abs(lifelong - FROZEN_LIFELONG) <= 0.01
        and abs(closed - FROZEN_CLOSED) <= 0.01
        and abs(incremental - FROZEN_INCREMENTAL) <= 0.01
        and elapsed < 60.0
    )
    _report(
        1, ok,
        f"lifelong={lifelong:.4f} closed={closed:.4f} incremental={incremental:.4f} "
        f"margins=({lifelong - closed:+.4f},{lifelong - incremental:+.4f}) "
        f"runtime={elapsed:.1f}s",
    )


def _shift_rule(threshold: float):
    def label(x: float) -> str:
        return "cooler" if x >= threshold else "nochange"
    return label


def _site_rows(rng, site: str, threshold: float, n: int):
    rule = _shift_rule(threshold)
    rows = []
    for _ in range(n):
        x = rng.uniform(15.0, 40.0)
        rows.append((x, site, rule(x)))
    return rows


def test_criterion_2_lifelong_guarantee(tmp_path):
    rng = random.Random(42)
    schema = city_schema(classes=("nochange", "cooler"))
    cfg = JobConfig(
        learner=EstimatorSpec("tree", {"max_depth": 4}),
        eval_policy=EvalPolicy(),
        transfer=TransferPolicy(min_samples=1, cap=1000),
        trigger=TriggerPolicy(unseen_threshold=10),
        fallback_enabled=True,
        seed=42,
    )
    initial = Dataset(schema, tuple(
        Sample((x,), (c,), y) for x, c, y in _site_rows(rng, "athens", 24.0, 100)
    ))
    feedback_rows = _site_rows(rng, "athens", 24.0, 10) + _site_rows(rng, "tokyo", 32.0, 20)
    feedback = tuple(Sample((x,), (c,), y) for x, c, y in feedback_rows)
    sim_cfg = SimConfig(
        edges=1, job=cfg, initial_data=initial,
        streams=(StreamEvent(5, 0, feedback),), max_ticks=8,
    )
    sim = start_sim(sim_cfg, tmp_path / "kb")
    sim.run_to_completion()

    tokyo_in_kb = sim.kb.lookup("tokyo") is not None
    snapshot = sim.edges[0].runtime.active
    slice_rows = _site_rows(rng, "tokyo", 32.0, 200)
    slice_ds = Dataset(schema, tuple(Sample((x,), (c,), y) for x, c, y in slice_rows))

    runtime = EdgeRuntime(schema, BucketingConfig.from_schema(schema))
    runtime.apply_snapshot(snapshot)
    routes = set()
    correct = 0
    for s in slice_ds.samples:
        pred = runtime.infer(s)
        routes.add(pred.route)
        correct += pred.label == s.label
    known_accuracy = correct / len(slice_ds)
    fallback_accuracy = evaluate(snapshot.fallback, slice_ds).accuracy

    ok = tokyo_in_kb and routes == {"known"} and known_accuracy >= fallback_accuracy
    _report(
        2, ok,
        f"tokyo_in_kb={tokyo_in_kb} routes={sorted(routes)} "
        f"known_acc={known_accuracy:.4f} >= fallback_acc={fallback_accuracy:.4f}",
    )


def test_criterion_3_unknown_task_detection_soundness():
    rng = random.Random(7)
    edges = (10.0, 20.0, 30.0, 40.0)
    bucketing = BucketingConfig((None, edges))
    cities = ["c%d" % i for i in range(8)]

    ds = city_dataset([(0.0, "x", "a"), (1.0, "x", "a")])
    model = fit(EstimatorSpec("majority"), ds, seed=0)
    stored: dict[str, tuple] = {}
    while len(stored) < 20:
        attrs = (rng.choice(cities), rng.uniform(0.0, 50.0))
        bucketed = bucket_attributes(attrs, bucketing)
        stored.setdefault(task_key(bucketed), bucketed)
    snapshot = DeploySnapshot(
        snapshot_version=1,
        schema_fingerprint=model.schema_fingerprint,
        tasks={
            key: SnapshotEntry(model=model, attributes=attrs)
            for key, attrs in stored.items()
        },
        fallback=None,
    )

    def oracle_member(attrs) -> bool:
        # independent bucketing: bisect over the raw edge list, then compare
        # bucketed value tuples against every stored record
        city, band = attrs
        tuple_form = (city, bisect_right(list(edges), band))
        return any(rec.values == tuple_form for rec in stored.values())

    agreements = 0
    for _ in range(1000):
        attrs = (rng.choice(cities), rng.uniform(0.0, 50.0))
        known = task_key(bucket_attributes(attrs, bucketing)) in snapshot.tasks
        if known == oracle_member(attrs):
            agreements += 1
    _report(3, agreements == 1000, f"known-key probe vs oracle agreement {agreements}/1000")


def _autonomy_scenario(outage: bool, schema, cfg) -> SimConfig:
    rng = random.Random(11)
    initial = Dataset(schema, tuple(
        Sample((x,), (c,), y) for x, c, y in _site_rows(rng, "athens", 24.0, 80)
    ))
    probe_known = tuple(
        Sample((15.0 + i,), ("athens",)) for i in range(10)
    )
    feedback = tuple(
        Sample((x,), (c,), y)
        for x, c, y in _site_rows(rng, "tokyo", 32.0, 15)
    )
    post = tuple(Sample((15.0 + i,), ("tokyo",)) for i in range(10)) + tuple(
        Sample((20.0 + i,), ("athens",)) for i in range(5)
    )
    streams = (
        StreamEvent(0, 0, probe_known),
        StreamEvent(5, 0, feedback),
        StreamEvent(53, 0, post),
    )
    links = (LinkEvent(1, 0, up=False), LinkEvent(51, 0, up=True)) if outage else ()
    return SimConfig(
        edges=1, job=cfg, initial_data=initial,
        streams=streams, links=links, max_ticks=56,
    )


def test_criterion_4_offline_autonomy(tmp_path):
    schema = city_schema(classes=("nochange", "cooler"))
    cfg = JobConfig(
        learner=EstimatorSpec("tree", {"max_depth": 4}),
        transfer=TransferPolicy(min_samples=1, cap=1000),
        trigger=TriggerPolicy(unseen_threshold=10),
        seed=42,
    )
    online = start_sim(
        _autonomy_scenario(False, schema, cfg), tmp_path / "kb_online"
    ).run_to_completion()
    outage = start_sim(
        _autonomy_scenario(True, schema, cfg), tmp_path / "kb_outage"
    ).run_to_completion()

    online_log = "\n".join(edge_prediction_lines(online, 0)).encode()
    outage_log = "\n".join(edge_prediction_lines(outage, 0)).encode()
    logs_equal = online_log == outage_log

    kb_equal = (
        KnowledgeBase.open(tmp_path / "kb_online").fingerprint()
        == KnowledgeBase.open(tmp_path / "kb_outage").fingerprint()
    )
    on_updates = sum(1 for l in online.events if ",cloud,update_completed," in l)
    off_updates = sum(1 for l in outage.events if ",cloud,update_completed," in l)
    exactly_once = (
        on_updates == off_updates == 1
        and outage.message_stats["duplicates_dropped"] == 0
    )
    down_ticks = 51 - 1

    ok = logs_equal and kb_equal and exactly_once and down_ticks == 50
    _report(
        4, ok,
        f"prediction_logs_equal={logs_equal} ({len(edge_prediction_lines(online, 0))} lines) "
        f"kb_hash_equal={kb_equal} updates=({on_updates},{off_updates}) "
        f"outage_ticks={down_ticks}",
    )


def test_criterion_5_determinism(tmp_path):
    # --- sim run twice via the CLI ---
    schema_text = reference_text("thermal_schema.json")
    (tmp_path / "schema.json").write_text(schema_text, encoding="utf-8")
    (tmp_path / "job.json").write_text(reference_text("thermal_job.json"), encoding="utf-8")
    spec = parse_synthetic_spec(reference_text("thermal5_synthetic.json"))
    small = replace(
        spec,
        tasks=tuple(replace(t, n_samples=60) for t in spec.tasks[:2]),
    )
    initial = gen_synthetic(small)
    write_csv(initial, tmp_path / "initial.csv")
    stream_spec = replace(
        spec, seed=9,
        tasks=(replace(spec.tasks[2], n_samples=12),),
    )
    write_csv(gen_synthetic(stream_spec), tmp_path / "stream.csv")
    sim_config = {
        "edges": 2, "max_ticks": 6,
        "schema": "schema.json", "job": "job.json", "initial_data": "initial.csv",
        "streams": [{"tick": 1, "edge": 0, "data": "stream.csv"}],
        "links": [{"tick": 2, "edge": 1, "state": "down"},
                  {"tick": 4, "edge": 1, "state": "up"}],
    }
    (tmp_path / "sim.json").write_text(json.dumps(sim_config), encoding="utf-8")

    sim_outputs = []
    for run in ("s1", "s2"):
        out_dir = tmp_path / run
        code = cli_main([
            "sim", "run", "--config", str(tmp_path / "sim.json"),
            "--kb", str(tmp_path / f"kb_{run}"), "--out-dir", str(out_dir),
        ])
        assert code == 0
        sim_outputs.append(
            ((out_dir / "events.log").read_bytes(), (out_dir / "report.json").read_bytes())
        )
    sim_identical = sim_outputs[0] == sim_outputs[1]

    # --- bench run twice via the CLI ---
    bench_data = gen_synthetic(replace(
        spec, tasks=tuple(replace(t, n_samples=150) for t in spec.tasks[:3])
    ))
    train, test = split_dataset(bench_data, 0.7, seed=42)
    write_csv(train, tmp_path / "train.csv")
    write_csv(test, tmp_path / "test.csv")
    bench_outputs = []
    for run in ("b1", "b2"):
        out_dir = tmp_path / run
        code = cli_main([
            "bench", "run",
            "--schema", str(tmp_path / "schema.json"),
            "--config", str(tmp_path / "job.json"),
            "--train", str(tmp_path / "train.csv"),
            "--test", str(tmp_path / "test.csv"),
            "--out-dir", str(out_dir),
        ])
        assert code == 0
        bench_outputs.append(tuple(
            (out_dir / name).read_bytes()
            for name in ("accuracy.csv", "improvement.csv", "summary.json")
        ))
    bench_identical = bench_outputs[0] == bench_outputs[1]

    ok = sim_identical and bench_identical
    _report(5, ok, f"sim_runs_identical={sim_identical} bench_runs_identical={bench_identical}")


def test_criterion_6_kb_durability(tmp_path, monkeypatch):
    rng = random.Random(3)
    real_replace = kb_mod._replace_file
    real_write = kb_mod._write_synced
    survived = torn = 0
    trials = 100
    for trial in range(trials):
        kb_dir = tmp_path / f"kb{trial}"
        kb = declared_kb(kb_dir)
        for i in range(rng.randint(1, 3)):
            city = rng.choice(["athens", "tokyo", "oslo"])
            ds = city_dataset(
                [(rng.random(), city, rng.choice("ab")) for _ in range(rng.randint(2, 5))]
            )
            model = fit(EstimatorSpec("majority"), ds, seed=trial)
            attrs = bucket_attributes((city,), BucketingConfig((None,)))
            kb.upsert_task(TaskRecord(
                key=task_key(attrs), attributes=attrs, model=model,
                samples=len(ds),
            ))
        committed = kb.fingerprint()

        # kill after temp write: fail the atomic rename of the index (and on
        # some trials tear the temp file's write before it), then reopen
        # from disk
        tear_the_write = rng.random() < 0.3

        def failing_replace(src, dst):
            if dst.name == "index.json":
                raise OSError("injected kill")
            real_replace(src, dst)

        def failing_write(path, data):
            nonlocal torn
            if tear_the_write:
                torn += 1
                path.write_bytes(data[: len(data) // 2])
                raise OSError("injected kill")
            real_write(path, data)

        monkeypatch.setattr(kb_mod, "_replace_file", failing_replace)
        monkeypatch.setattr(kb_mod, "_write_synced", failing_write)
        try:
            ds = city_dataset([(rng.random(), "lima", "a") for _ in range(3)])
            model = fit(EstimatorSpec("majority"), ds, seed=trial)
            attrs = bucket_attributes(("lima",), BucketingConfig((None,)))
            kb.upsert_task(TaskRecord(
                key=task_key(attrs), attributes=attrs, model=model,
                samples=len(ds),
            ))
        except OSError:
            pass
        finally:
            monkeypatch.setattr(kb_mod, "_replace_file", real_replace)
            monkeypatch.setattr(kb_mod, "_write_synced", real_write)

        reopened = KnowledgeBase.open(kb_dir)
        if reopened.fingerprint() == committed:
            survived += 1
    _report(6, survived == trials and torn > 0,
            f"reopen equals last committed state on {survived}/{trials} trials "
            f"({torn} with a torn manifest write)")


def test_criterion_7_gate_soundness(tmp_path):
    rng = random.Random(123)
    cities = ["a", "b", "c", "d"]
    runs = 1000
    violations = 0
    deployed_snapshots = 0
    for run in range(runs):
        kb = KnowledgeBase.open(tmp_path / f"kb{run}")
        learner = EstimatorSpec("majority") if run % 5 else EstimatorSpec("tree", {"max_depth": 2})
        cfg = JobConfig(
            learner=learner,
            eval_policy=EvalPolicy(
                min_accuracy=rng.random(),
                min_eval_samples=rng.randint(1, 3),
            ),
            transfer=TransferPolicy(min_samples=rng.randint(1, 4), cap=50),
            trigger=TriggerPolicy(unseen_threshold=5),
            fallback_enabled=rng.random() < 0.7,
            seed=run,
        )
        job = LifelongJob(cfg, kb)
        n_cities = rng.randint(1, 3)
        used = rng.sample(cities, n_cities)
        train = city_dataset(
            [(rng.random(), rng.choice(used), rng.choice("ab"))
             for _ in range(rng.randint(n_cities, 16))]
        )
        eval_set = city_dataset(
            [(rng.random(), rng.choice(cities), rng.choice("ab"))
             for _ in range(rng.randint(1, 12))]
        )
        job.run_train(train)
        job.run_eval(eval_set)
        try:
            snapshot = job.run_deploy()
        except NothingDeployableError:
            continue
        deployed_snapshots += 1
        failed_keys = {
            k for k, r in kb.records.items() if r.status == STATUS_EVAL_FAILED
        }
        for key, entry in snapshot.tasks.items():
            record = kb.records[key]
            if (
                key in failed_keys
                or record.status != STATUS_DEPLOYABLE
                or serialize_model(entry.model) != serialize_model(record.model)
            ):
                violations += 1
    _report(
        7, violations == 0,
        f"{runs} generated job runs, {deployed_snapshots} snapshots, "
        f"{violations} eval_failed models reachable",
    )


def test_criterion_8_oracle_equivalences(tmp_path):
    # (a) tree splits match exhaustive gini search on every dataset <= 50 samples
    rng = random.Random(31)
    split_checks = 0
    split_mismatches = 0
    for trial in range(30):
        n = rng.randint(4, 50)
        rows = [(rng.uniform(0, 10), "c", rng.choice("ab")) for _ in range(n)]
        ds = city_dataset(rows)
        model = fit(EstimatorSpec("tree", {"max_depth": 3}), ds, seed=0)
        splits = []
        collect_splits(model.parameters["tree"], list(ds.samples), splits)
        for rows_at_node, feature, threshold in splits:
            oracle = exhaustive_best_gini_split(Dataset(ds.schema, tuple(rows_at_node)))
            split_checks += 1
            if oracle is None or (feature, threshold) != (oracle[0], oracle[1]):
                split_mismatches += 1

    # (b) the top k of rank_similar match brute force on 100 random task sets
    edges = (10.0, 20.0, 30.0)
    bucketing = BucketingConfig((None, edges))
    query_mismatches = 0
    for trial in range(100):
        stored = {}
        for _ in range(rng.randint(2, 8)):
            attrs = bucket_attributes(
                (rng.choice("pqr"), rng.uniform(0, 40.0)), bucketing
            )
            stored[task_key(attrs)] = attrs
        query = bucket_attributes((rng.choice("pqr"), rng.uniform(0, 40.0)), bucketing)
        k = rng.randint(1, 5)
        got = rank_similar(query, stored)[:k]
        brute = sorted(
            ((task_similarity(query, attrs), key) for key, attrs in stored.items()),
            key=lambda t: (-t[0], t[1]),
        )
        expected = [(key, sim) for sim, key in brute if sim > 0.0][:k]
        if got != expected:
            query_mismatches += 1

    # (c) per-task bench accuracies equal direct evaluate calls
    spec = parse_synthetic_spec(reference_text("thermal5_synthetic.json"))
    small = replace(spec, tasks=tuple(replace(t, n_samples=200) for t in spec.tasks[:3]))
    cfg = parse_job_config(reference_text("thermal_job.json"), spec.schema)
    data = gen_synthetic(small)
    train, test = split_dataset(data, 0.7, seed=42)
    result = run_bench(train, test, cfg)
    parts = as_tasks(test)
    closed_model = fit(cfg.learner, train, cfg.seed)
    bench_mismatches = 0
    for key in parts.keys:
        direct = evaluate(closed_model, parts.parts[key])
        if result.methods["closed"].per_task[key].accuracy != direct.accuracy:
            bench_mismatches += 1
    # lifelong arm: train covers every test task, so routed accuracy must
    # equal a direct evaluate against each task's own deployed model
    snapshot = LifelongJob(cfg, KnowledgeBase.open(tmp_path / "bench_kb")).bootstrap(train)
    for key in parts.keys:
        direct = evaluate(snapshot.tasks[key].model, parts.parts[key])
        if result.methods["lifelong"].per_task[key].accuracy != direct.accuracy:
            bench_mismatches += 1

    ok = split_mismatches == 0 and query_mismatches == 0 and bench_mismatches == 0
    _report(
        8, ok,
        f"tree_splits={split_checks - split_mismatches}/{split_checks} "
        f"rank_similar_queries={100 - query_mismatches}/100 "
        f"bench_vs_evaluate_mismatches={bench_mismatches}",
    )
