"""Edge-cloud simulation: bootstrap, tick loop, link failures, determinism."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import replace

import pytest

from edgelearn.data import Sample
from edgelearn.errors import ConfigError
from edgelearn.job import EvalPolicy, JobConfig, TransferPolicy, TriggerPolicy
from edgelearn.kb import KnowledgeBase, serialize_snapshot
from edgelearn.learners import EstimatorSpec
from edgelearn.sim import LinkEvent, SimConfig, StreamEvent, start_sim

from conftest import city_dataset, edge_prediction_lines, fresh_routes, routes


def sim_job_config(k: int = 10, seed: int = 5) -> JobConfig:
    return JobConfig(
        learner=EstimatorSpec("majority"),
        eval_policy=EvalPolicy(),
        transfer=TransferPolicy(min_samples=1, cap=1000),
        trigger=TriggerPolicy(unseen_threshold=k),
        fallback_enabled=True,
        seed=seed,
    )


def labeled(city: str, label: str, n: int, start: float = 0.0) -> tuple[Sample, ...]:
    return tuple(Sample((start + i,), (city,), label) for i in range(n))


def unlabeled(city: str, n: int, start: float = 0.0) -> tuple[Sample, ...]:
    return tuple(Sample((start + i,), (city,)) for i in range(n))


def basic_config(**overrides) -> SimConfig:
    defaults = dict(
        edges=1,
        job=sim_job_config(),
        initial_data=city_dataset([(float(i), "athens", "a") for i in range(30)]),
        streams=(),
        links=(),
        max_ticks=3,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


# -- start_sim ---------------------------------------------------------------------

def test_start_single_edge_holds_snapshot_before_tick_zero(tmp_path):
    sim = start_sim(basic_config(), tmp_path / "kb")
    assert sim.edges[0].runtime.snapshot_version >= 1
    assert sim.now == 0


def test_start_three_edges_byte_identical_snapshots(tmp_path):
    sim = start_sim(basic_config(edges=3), tmp_path / "kb")
    payloads = {serialize_snapshot(e.runtime.active) for e in sim.edges}
    assert len(payloads) == 1


def test_start_offline_edge_gets_push_on_reconnect(tmp_path):
    cfg = basic_config(
        links=(LinkEvent(0, 0, up=False), LinkEvent(2, 0, up=True)),
        max_ticks=4,
    )
    sim = start_sim(cfg, tmp_path / "kb")
    assert sim.edges[0].runtime.active is None
    assert len(sim.edges[0].from_cloud) == 1
    sim.tick()  # tick 0: still down
    assert sim.edges[0].runtime.active is None
    sim.tick()  # tick 1
    sim.tick()  # tick 2: up again, queue drains
    assert sim.edges[0].runtime.snapshot_version >= 1


def test_start_invalid_config_rejected():
    with pytest.raises(ConfigError, match="at least one edge"):
        basic_config(edges=0)
    with pytest.raises(ConfigError, match="unknown edge"):
        basic_config(streams=(StreamEvent(0, 5, labeled("athens", "a", 1)),))


# -- tick ---------------------------------------------------------------------------

def test_tick_without_data_produces_only_link_events(tmp_path):
    cfg = basic_config(links=(LinkEvent(1, 0, up=False),), max_ticks=3)
    sim = start_sim(cfg, tmp_path / "kb")
    assert sim.tick() == []           # tick 0: nothing scheduled
    events = sim.tick()               # tick 1: link change only
    assert events == ["1,edge:0,link,down"]


def test_trigger_then_snapshot_push_next_tick(tmp_path):
    cfg = basic_config(
        streams=(StreamEvent(1, 0, labeled("tokyo", "b", 12)),),
        max_ticks=4,
    )
    sim = start_sim(cfg, tmp_path / "kb")
    v0 = sim.edges[0].runtime.snapshot_version
    sim.tick()  # tick 0
    tick1 = sim.tick()  # data arrives, trigger fires, cloud retrains
    assert any(",edge:0,trigger," in line for line in tick1)
    assert any(",cloud,update_completed," in line for line in tick1)
    assert sim.edges[0].runtime.snapshot_version == v0  # not yet applied
    tick2 = sim.tick()
    applied = [line for line in tick2 if ",edge:0,snapshot_applied," in line]
    assert len(applied) == 1
    assert sim.edges[0].runtime.snapshot_version > v0


def test_offline_edge_keeps_inferring_and_queues_uploads(tmp_path):
    cfg = basic_config(
        links=(LinkEvent(1, 0, up=False),),
        streams=(StreamEvent(2, 0, labeled("tokyo", "b", 12)),),
        max_ticks=4,
    )
    sim = start_sim(cfg, tmp_path / "kb")
    sim.tick()
    sim.tick()
    events = sim.tick()  # tick 2: offline, data arrives
    predict_lines = [l for l in events if ",edge:0,predict," in l]
    assert len(predict_lines) == 12
    assert not any(",cloud," in l for l in events)
    assert len(sim.edges[0].to_cloud) == 1  # the upload, its retrain request, queued
    assert sim.kb.lookup("tokyo") is None


def test_update_cycle_runs_on_reconnect_exactly_once(tmp_path):
    cfg = basic_config(
        links=(LinkEvent(1, 0, up=False), LinkEvent(3, 0, up=True)),
        streams=(StreamEvent(2, 0, labeled("tokyo", "b", 12)),),
        max_ticks=6,
    )
    sim = start_sim(cfg, tmp_path / "kb")
    report = sim.run_to_completion()
    updates = [l for l in report.events if ",cloud,update_completed," in l]
    assert len(updates) == 1
    assert sim.kb.lookup("tokyo") is not None
    assert report.message_stats["duplicates_dropped"] == 0


def test_link_up_when_already_up_is_noop(tmp_path):
    cfg = basic_config(links=(LinkEvent(1, 0, up=True),), max_ticks=3)
    sim = start_sim(cfg, tmp_path / "kb")
    sim.tick()
    assert sim.tick() == []  # no link event logged


def test_training_delay_postpones_update(tmp_path):
    cfg = basic_config(
        streams=(StreamEvent(1, 0, labeled("tokyo", "b", 12)),),
        max_ticks=8,
        training_delay_ticks=2,
    )
    sim = start_sim(cfg, tmp_path / "kb")
    report = sim.run_to_completion()
    update_ticks = [
        int(line.split(",", 1)[0])
        for line in report.events
        if ",cloud,update_completed," in line
    ]
    assert update_ticks == [3]  # trigger at 1, retrain completes 2 ticks later


def test_duplicate_upload_delivery_has_no_effect(tmp_path, monkeypatch):
    def run(inject: bool, name: str) -> str:
        cfg = basic_config(
            streams=(StreamEvent(1, 0, labeled("tokyo", "b", 12)),),
            max_ticks=5,
        )
        sim = start_sim(cfg, tmp_path / name)
        uploads = []
        receive = sim._receive_at_cloud

        def recording(msg):  # every message the cloud receives is an upload
            uploads.append(msg)
            receive(msg)

        monkeypatch.setattr(sim, "_receive_at_cloud", recording)
        sim.tick()
        sim.tick()  # upload delivered, update runs
        assert len(uploads) == 1
        if inject:  # at-least-once transport: the same message arrives again
            sim.edges[0].to_cloud.append(uploads[0])
        report = sim.run_to_completion()
        assert report.message_stats["duplicates_dropped"] == (1 if inject else 0)
        return sim.kb.fingerprint()

    clean = run(inject=False, name="kb_clean")
    injected = run(inject=True, name="kb_dup")
    assert clean == injected


# -- run_to_completion ------------------------------------------------------------------

def test_unknown_band_routes_similar_then_known_after_update(tmp_path):
    # numeric-banded tasks: a neighboring band serves via the similar route
    # until its own model is learned, then the exact route takes over
    from conftest import banded_schema, make_samples
    from edgelearn.data import Dataset

    schema = banded_schema((10.0, 20.0, 30.0, 40.0))  # B=5 buckets
    job = JobConfig(
        learner=EstimatorSpec("majority"),
        transfer=TransferPolicy(min_samples=1, cap=1000),
        trigger=TriggerPolicy(unseen_threshold=10),
        seed=5,
    )
    initial = Dataset(schema, make_samples(
        [((float(i),), ("p", 15.0), "a") for i in range(30)]  # band bucket 1
    ))
    neighbor_feedback = make_samples(
        [((float(i),), ("p", 25.0), "b") for i in range(12)]  # band bucket 2
    )
    probes = make_samples([((50.0 + i,), ("p", 25.0), None) for i in range(5)])
    cfg = SimConfig(
        edges=1, job=job, initial_data=initial,
        streams=(StreamEvent(1, 0, neighbor_feedback), StreamEvent(3, 0, probes)),
        max_ticks=5,
    )
    sim = start_sim(cfg, tmp_path / "kb")
    report = sim.run_to_completion()

    tick1 = [l for l in report.events if l.startswith("1,edge:0,predict,")]
    tick3 = [l for l in report.events if l.startswith("3,edge:0,predict,")]
    assert len(tick1) == 12 and all("route=similar" in l for l in tick1)
    assert all("label=a" in l for l in tick1)  # neighbor model's knowledge
    assert len(tick3) == 5 and all("route=known" in l for l in tick3)
    assert all("label=b" in l for l in tick3)  # its own model after the update


def test_each_edge_routes_as_a_fresh_apply_of_its_snapshot_after_every_tick(tmp_path):
    # swaps that keep, retrain, add and drop tasks, and one edge that takes a
    # backlog of snapshots on reconnect: each leaves the routes a first apply
    # of the same snapshot builds, the same predictor objects included
    cities = ("athens", "oslo", "lima", "kyiv")
    streams = tuple(
        StreamEvent(tick, tick % 2, tuple(
            Sample((float(i),), (cities[tick % 4],), "ab"[tick % 3 == 0 and i % 2])
            for i in range(12)) + unlabeled("tokyo", 2))
        for tick in range(12))
    cfg = basic_config(
        edges=2, streams=streams, max_ticks=15,
        job=replace(sim_job_config(), eval_policy=EvalPolicy(min_accuracy=0.7)),
        links=(LinkEvent(3, 1, up=False), LinkEvent(8, 1, up=True)),
    )
    sim = start_sim(cfg, tmp_path / "kb")
    seen, last = Counter(), [edge.runtime.active for edge in sim.edges]
    while sim.now < cfg.max_ticks:
        sim.tick()
        for edge in sim.edges:
            runtime = edge.runtime
            assert routes(runtime) == fresh_routes(runtime), (sim.now, edge.name)
            old, new = last[edge.id].tasks, runtime.active.tasks
            if old is not new:  # a swap: count the entries it kept, those it did not, and drops
                for key, entry in new.items():
                    was = old.get(key)
                    seen["kept" if was is not None and was.model is entry.model
                         and was.attributes is entry.attributes else "new"] += 1
                seen["dropped"] += len(old.keys() - new.keys())
            last[edge.id] = runtime.active
    assert min(seen[kind] for kind in ("kept", "new", "dropped")) > 0, seen


def test_update_snapshot_broadcast_to_all_edges(tmp_path):
    cfg = basic_config(
        edges=3,
        streams=(StreamEvent(1, 1, labeled("tokyo", "b", 12)),),
        max_ticks=5,
    )
    sim = start_sim(cfg, tmp_path / "kb")
    sim.run_to_completion()
    versions = {e.runtime.snapshot_version for e in sim.edges}
    assert len(versions) == 1
    payloads = {serialize_snapshot(e.runtime.active) for e in sim.edges}
    assert len(payloads) == 1
    assert "tokyo" in sim.edges[2].runtime.active.tasks


def test_trivial_sim_zero_inferences(tmp_path):
    cfg = basic_config(max_ticks=1)
    report = start_sim(cfg, tmp_path / "kb").run_to_completion()
    assert report.per_edge["edge:0"]["counters"]["inferences"] == 0
    assert report.kb_summary["kb_version"] >= 1


def test_same_config_same_seed_identical_event_logs(tmp_path):
    def run(name: str):
        cfg = basic_config(
            edges=2,
            streams=(
                StreamEvent(0, 0, unlabeled("athens", 5)),
                StreamEvent(1, 1, labeled("tokyo", "b", 11)),
                StreamEvent(3, 0, unlabeled("tokyo", 4)),
            ),
            links=(LinkEvent(2, 1, up=False), LinkEvent(4, 1, up=True)),
            max_ticks=7,
        )
        return start_sim(cfg, tmp_path / name).run_to_completion()

    a = run("kb_a")
    b = run("kb_b")
    assert a.events_text() == b.events_text()
    assert a.to_json() == b.to_json()


def test_unknown_city_lands_in_final_kb(tmp_path):
    cfg = basic_config(
        streams=(StreamEvent(5, 0, labeled("oslo", "b", 10)),),
        max_ticks=8,
    )
    sim = start_sim(cfg, tmp_path / "kb")
    report = sim.run_to_completion()
    keys = {t["key"]: t["status"] for t in report.kb_summary["tasks"]}
    assert "oslo" in keys
    assert keys["oslo"] in ("trained", "deployable", "eval_failed")
    assert keys["oslo"] == "deployable"


def test_message_conservation_all_acked_when_online(tmp_path):
    # every message sent is delivered or still queued at the end
    online = basic_config(
        streams=(StreamEvent(1, 0, labeled("tokyo", "b", 12)),),
        max_ticks=6,  # quiet tail so every message drains
    )
    stats = start_sim(online, tmp_path / "kb").run_to_completion().message_stats
    assert stats["sent"] == stats["delivered"]
    assert stats["queued_at_end"] == 0
    # edge 0 goes down for good: its upload and the push of edge 1's update stay queued
    outage = basic_config(
        edges=2,
        streams=(StreamEvent(1, 0, labeled("tokyo", "b", 12)),
                 StreamEvent(1, 1, labeled("oslo", "a", 12))),
        links=(LinkEvent(1, 0, up=False),),
        max_ticks=6,
    )
    report = start_sim(outage, tmp_path / "kb_outage").run_to_completion()
    stats = report.message_stats
    assert stats["sent"] == stats["delivered"] + stats["queued_at_end"]
    assert stats["queued_at_end"] > 0
    assert report.per_edge["edge:0"]["queued_to_cloud"] == 1
    assert report.per_edge["edge:0"]["queued_from_cloud"] == 1


def test_report_lists_uploaded_unknown_demand_the_last_snapshot_does_not_serve(
        tmp_path, monkeypatch):
    # paris and rome are never learned; tokyo and oslo are, and edge 1's
    # tokyo counts reach the cloud late, after tokyo is already served
    cfg = basic_config(
        edges=2,
        streams=(
            StreamEvent(0, 0, unlabeled("paris", 3) + unlabeled("rome", 2)),
            StreamEvent(1, 0, labeled("tokyo", "b", 12)),
            StreamEvent(2, 1, labeled("tokyo", "b", 10)),
            StreamEvent(3, 0, unlabeled("rome", 4) + labeled("oslo", "a", 10)),
        ),
        links=(LinkEvent(1, 1, up=False), LinkEvent(5, 1, up=True)),
        max_ticks=7,
    )
    sim = start_sim(cfg, tmp_path / "kb")
    uploaded = Counter()
    receive = sim._receive_at_cloud

    def recording(msg):
        uploaded.update(msg.payload[1])
        receive(msg)

    monkeypatch.setattr(sim, "_receive_at_cloud", recording)
    report = sim.run_to_completion()

    assert uploaded == {"paris": 3, "rome": 6, "tokyo": 22, "oslo": 10}
    served = sim.edges[0].runtime.active.tasks
    assert report.unknown_demand == {k: n for k, n in uploaded.items() if k not in served}
    assert json.loads(report.to_json())["unknown_demand"] == {"paris": 3, "rome": 6}
    received = [line for line in report.events if ",cloud,upload_received," in line]
    assert report.message_stats["unseen_escalated"] == sum(
        int(line.rsplit("unseen=", 1)[1]) for line in received) == 41
    assert all(status["unknown_demand"] == {} for status in report.per_edge.values())


# -- offline autonomy --------------------------------------------------------------------

def _autonomy_config(outage: bool) -> SimConfig:
    streams = (
        StreamEvent(0, 0, unlabeled("athens", 10)),
        StreamEvent(5, 0, labeled("tokyo", "b", 12)),
        StreamEvent(52, 0, unlabeled("tokyo", 10) + unlabeled("athens", 5, start=100.0)),
    )
    links = (LinkEvent(1, 0, up=False), LinkEvent(50, 0, up=True)) if outage else ()
    return basic_config(streams=streams, links=links, max_ticks=55)


def test_offline_autonomy_prediction_log_and_kb_equal(tmp_path):
    online = start_sim(_autonomy_config(outage=False), tmp_path / "kb_on").run_to_completion()
    outage_sim = start_sim(_autonomy_config(outage=True), tmp_path / "kb_off")
    outage = outage_sim.run_to_completion()

    assert edge_prediction_lines(online, 0) == edge_prediction_lines(outage, 0)
    kb_on = KnowledgeBase.open(tmp_path / "kb_on")
    kb_off = KnowledgeBase.open(tmp_path / "kb_off")
    assert kb_on.fingerprint() == kb_off.fingerprint()

    on_updates = [l for l in online.events if ",cloud,update_completed," in l]
    off_updates = [l for l in outage.events if ",cloud,update_completed," in l]
    assert len(on_updates) == len(off_updates) == 1
    assert online.message_stats["duplicates_dropped"] == 0
    assert outage.message_stats["duplicates_dropped"] == 0
