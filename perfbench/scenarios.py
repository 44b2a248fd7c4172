"""The workloads: set-up, one timed round, and the output checks.

A round is a fixed amount of work on fresh state, so its cost does not
depend on how many rounds fit in the run. Each workload times its own
unit operations (``Round.ops``) and reports a digest of its outputs, which
must be identical across rounds and between traced and untraced runs.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from edgelearn import bench as B
from edgelearn import data as D
from edgelearn import edge as E
from edgelearn import job as J
from edgelearn import kb as K
from edgelearn import sim as S
from edgelearn import tasks as T
from edgelearn.errors import EdgeLearnError, NoModelError
from edgelearn.reference import reference_text

import workloads as W

clock = time.perf_counter


@dataclass
class Round:
    ops: list[float] = field(default_factory=list)      # seconds per unit operation
    tags: list[str] = field(default_factory=list)       # parallel to ops
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    outputs: dict = field(default_factory=dict)         # checked values, printed

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        self.outputs.setdefault("failed_checks", []).append(what)


def _run_op(rnd: Round, tracer, tag: str, body):
    """Time one operation and count it as attempted; under tracing it is
    the root span of its work."""
    rnd.attempted += 1
    start = clock()
    result = body() if tracer is None else tracer.root(f"op.{tag}", body)
    rnd.ops.append(clock() - start)
    rnd.tags.append(tag)
    return result


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class Bench3:
    """The README experiment: thermal5 (5 sites x 1000 rows), 70/30 split at
    seed 42, tree depth 4, run as ``edgelearn bench run`` does it."""

    unit = "bench run"

    def __init__(self, seed: int):
        self.seed = seed
        self.schema_text = reference_text("thermal_schema.json")
        self.job_text = reference_text("thermal_job.json")

    def setup(self, rdir: Path):
        dataset = B.gen_synthetic(W.bench3_spec(self.seed))
        D.write_csv(dataset, rdir / "data.csv")
        schema = D.parse_schema(self.schema_text)
        train, test = D.split_dataset(D.load_csv(rdir / "data.csv", schema), 0.7, seed=42)
        D.write_csv(train, rdir / "train.csv")
        D.write_csv(test, rdir / "test.csv")
        return rdir

    def run(self, rdir: Path, tracer) -> Round:
        rnd = Round()
        out = rdir / "reports"

        def bench_run():
            schema = D.parse_schema(self.schema_text)
            cfg = J.parse_job_config(self.job_text, schema)
            train = D.load_csv(rdir / "train.csv", schema)
            test = D.load_csv(rdir / "test.csv", schema)
            result = B.run_bench(train, test, cfg, work_dir=out)
            B.emit_report(result, out)
            return result

        try:
            result = _run_op(rnd, tracer, "bench", bench_run)
        except EdgeLearnError as exc:
            rnd.fail(f"bench run raised {exc}")
            return rnd
        acc = {m: r.overall_accuracy for m, r in sorted(result.methods.items())}
        rnd.outputs["accuracy"] = acc
        rnd.check(acc[B.METHOD_LIFELONG] > acc[B.METHOD_CLOSED], "lifelong beats closed")
        rnd.check(acc[B.METHOD_LIFELONG] > acc[B.METHOD_INCREMENTAL], "lifelong beats incremental")
        rnd.digest = sha((out / B.SUMMARY_FILE).read_bytes())
        return rnd


class Serve:
    """The edge read path: one 100-task snapshot, a fixed request stream of
    60% known, 30% similar and 10% fallback routes whose unknown keys
    hardly repeat, one closed-loop client."""

    unit = "request"

    def __init__(self, seed: int):
        self.inputs = W.serve_inputs(seed)
        self.bucketing = T.BucketingConfig.from_schema(self.inputs.schema)

    def setup(self, rdir: Path):
        runtime = E.EdgeRuntime(self.inputs.schema, self.bucketing)
        runtime.apply_snapshot(K.deserialize_snapshot(self.inputs.payload))
        return runtime

    def run(self, runtime: E.EdgeRuntime, tracer) -> Round:
        rnd = Round()
        digest = hashlib.sha256()
        taken = Counter()
        wrong = 0
        for sample, route in zip(self.inputs.requests, self.inputs.routes):
            try:
                pred = _run_op(rnd, tracer, route, lambda: runtime.infer(sample))
            except NoModelError as exc:
                rnd.fail(str(exc))
                continue
            taken[pred.route] += 1
            wrong += pred.route != route
            digest.update(f"{pred.label},{pred.route},{pred.task_key};".encode())
        if wrong:
            rnd.fail(f"{wrong} requests took another route than generated", wrong)
        rnd.outputs["routes"] = dict(sorted(taken.items()))
        rnd.digest = digest.hexdigest()[:16]
        return rnd


class Sim:
    """Writes beside reads: two edges stream reads and labels into a 40-task
    KB, update cycles commit and swap snapshots under serving."""

    unit = "tick"

    def __init__(self, seed: int):
        self.inputs = W.sim_inputs(seed)

    def setup(self, rdir: Path):
        inputs = self.inputs
        (rdir / "schema.json").write_text(D.schema_to_json(inputs.schema), encoding="utf-8")
        (rdir / "job.json").write_text(W.job_json(inputs.unseen_threshold), encoding="utf-8")
        D.write_csv(inputs.initial, rdir / "initial.csv")
        streams = []
        for n, (tick, edge_id, samples) in enumerate(inputs.streams):
            D.write_csv(samples, rdir / f"stream{n}.csv")
            streams.append({"tick": tick, "edge": edge_id, "data": f"stream{n}.csv"})
        config = {
            "edges": 2, "max_ticks": inputs.max_ticks,
            "schema": "schema.json", "job": "job.json", "initial_data": "initial.csv",
            "streams": streams,
            "links": [{"tick": t, "edge": e, "state": s} for t, e, s in inputs.links],
        }
        (rdir / "sim.json").write_text(json.dumps(config), encoding="utf-8")
        cfg = S.parse_sim_config((rdir / "sim.json").read_text(encoding="utf-8"), rdir)
        return S.start_sim(cfg, rdir / "kb")

    def run(self, sim: S.Simulation, tracer) -> Round:
        rnd = Round()
        while sim.now < sim.cfg.max_ticks:
            try:
                lines = _run_op(rnd, tracer, "tick", sim.tick)
            except EdgeLearnError as exc:
                rnd.fail(f"tick {sim.now} raised {exc}")
                return rnd
            if any(",cloud,update_completed," in line for line in lines):
                rnd.tags[-1] = "update"
        report = sim.report()
        kinds = Counter(line.split(",", 3)[2] for line in report.events)
        replayed = sum(e.replayed for e in sim.edges)
        # every replayed sample is an inference, every update event a cycle
        rnd.attempted += replayed + kinds["update_completed"] + kinds["update_failed"]
        for kind in ("update_failed", "no_model"):
            for _ in range(kinds[kind]):
                rnd.fail(kind)
        rnd.check(report.message_stats["queued_at_end"] == 0, "queued_at_end == 0")
        rnd.outputs.update(
            events=len(report.events),
            updates=kinds["update_completed"],
            kb_version=report.kb_summary["kb_version"],
            messages_sent=report.message_stats["sent"],
            samples_replayed=replayed,
        )
        rnd.digest = sha(report.events_text().encode() + report.to_json().encode())
        return rnd


WORKLOADS = {"bench3": Bench3, "serve": Serve, "sim": Sim}
