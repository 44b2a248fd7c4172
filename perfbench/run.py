"""edgelearn benchmark: one workload per invocation, from the repo root.

    python3 perfbench/run.py --workload bench3|serve|sim \\
        --seed N --seconds S --trace 0|1

``--trace 0`` repeats rounds (set-up + timed phase on fresh state) until
the next one would end past ``--seconds``, and reports the end-to-end
metrics. ``--trace 1`` runs one untraced, one traced and one tracemalloc'd
round on the same inputs, checks that all three give the same output
digest, and reports the per-layer metrics, the tracing overhead and the
round's peak heap. Human-readable lines come first; the last line of
stdout is the JSON result. Everything the run writes lives under
``.perfbench_work/`` (removed at exit) and ``.perfbench_out/`` (span dumps
of traced runs) in the repo root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("bench3", "serve", "sim")
MIN_SETUPS = 3
TAIL_BEYOND = 10        # samples that must lie beyond the reported tail
TAIL_CAP = 99.0         # never report a percentile above p99

# every --trace 0 metric, in output order: (name, unit)
END_TO_END = (
    ("setup_s", "s"),
    ("round_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest nearest-rank percentile, at most
    TAIL_CAP, with at least TAIL_BEYOND samples above it; with no more than
    TAIL_BEYOND samples, the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = min(n - TAIL_BEYOND, int(n * TAIL_CAP / 100))
    return ordered[rank - 1], 100.0 * rank / n


def median(values):
    return statistics.median(values) if values else 0.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# per-layer metrics from a traced round
# ---------------------------------------------------------------------------

# time in a layer per traced round: (metric, span or hot names, "incl"|"self")
LAYER_TIMES = (
    ("data.load_csv", ("data.load_csv",), "incl"),
    ("data.validate", ("data.validate_sample",), "incl"),
    ("tasks.mine", ("tasks.mine_tasks",), "incl"),
    ("tasks.transfer", ("tasks.sample_transfer",), "incl"),
    ("tasks.similarity", ("tasks.task_similarity",), "incl"),
    ("learners.fit", ("learners.fit",), "incl"),
    ("learners.evaluate", ("learners.evaluate",), "incl"),
    ("learners.predict", ("learners.predict",), "incl"),
    ("learners.serialize", ("learners.serialize_model",), "incl"),
    ("kb.commit", ("kb.upsert_task", "kb.record_eval", "kb.set_fallback"), "incl"),
    ("kb.open", ("kb.open",), "incl"),
    ("kb.snapshot_decode", ("kb.deserialize_snapshot",), "incl"),
    ("job.holdout", ("job.holdout_split",), "incl"),
    ("job.train_self", ("job.run_train",), "self"),
    ("job.eval_self", ("job.run_eval",), "self"),
    ("job.deploy_self", ("job.run_deploy",), "self"),
    ("edge.infer_self", ("edge.infer",), "self"),
    ("edge.apply_snapshot", ("edge.apply_snapshot",), "incl"),
    ("edge.ingest", ("edge.ingest_feedback",), "incl"),
    ("bench.closed", ("bench.baseline_closed",), "incl"),
    ("bench.incremental", ("bench.baseline_incremental",), "incl"),
    ("bench.lifelong", ("bench.run_lifelong_bench",), "incl"),
    ("bench.report", ("bench.emit_report",), "incl"),
)
# (metric, unit, better) of counts; sim shares are computed separately
COUNTS = (
    ("data.validate_calls", "count", "lower"),
    ("tasks.mine_calls", "count", "lower"),
    ("tasks.transfer_borrowed_rows", "count", "lower"),
    ("tasks.similarity_calls", "count", "lower"),
    ("tasks.bucket_calls", "count", "lower"),
    ("learners.fit_calls", "count", "lower"),
    ("learners.fit_rows", "count", "lower"),
    ("learners.predict_calls", "count", "lower"),
    ("learners.serialize_calls", "count", "lower"),
    ("kb.commits", "count", "lower"),
    ("kb.manifest_bytes", "bytes", "lower"),
    ("kb.disk_bytes", "bytes", "lower"),
    ("kb.model_files", "count", "lower"),
    ("job.gate_pass", "count", "higher"),
    ("job.gate_fail", "count", "lower"),
    ("job.gate_pass_ratio", "ratio", "higher"),
    ("edge.route.known", "count", "higher"),
    ("edge.route.similar", "count", "lower"),
    ("edge.route.fallback", "count", "lower"),
    ("edge.similarity_per_unknown", "ratio", "lower"),
    ("edge.unknown_key_repeat_share", "ratio", "higher"),
    ("edge.swaps", "count", "lower"),
    ("sim.updates", "count", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.messages_sent", "count", "lower"),
    ("sim.samples_replayed", "count", "higher"),
)
HOT_CALLS = {
    "data.validate_calls": "data.validate_sample",
    "tasks.similarity_calls": "tasks.task_similarity",
    "tasks.bucket_calls": "tasks.bucket_attributes",
    "learners.predict_calls": "learners.predict",
    "learners.serialize_calls": "learners.serialize_model",
}
SPAN_CALLS = {"tasks.mine_calls": "tasks.mine_tasks", "learners.fit_calls": "learners.fit"}


def per_layer_metrics(tracer, rnd, store: Path | None, overhead_pct: float, heap_mb: float):
    """Returns (metrics for the JSON line, ms per layer in the round)."""
    inclusive, own = tracer.totals()
    spans = tracer.finished_spans()
    calls = Counter(s.name for s in spans)

    absolute_ms = {}
    for name, sources, kind in LAYER_TIMES:
        table = inclusive if kind == "incl" else own
        absolute_ms[name] = sum(table[src] for src in sources) / 1e6
    # sim: time inside update cycles run by a tick, and the rest of the tick
    ticks = [i for i, s in enumerate(spans) if s.name == "sim.tick"]
    tick_ns = sum(spans[i].end - spans[i].start for i in ticks)
    in_tick = set(ticks)
    update_ns = sum(
        s.end - s.start for s in spans
        if s.name == "job.run_update_cycle" and s.parent in in_tick
    )
    absolute_ms["sim.update"] = update_ns / 1e6
    absolute_ms["sim.serve"] = (tick_ns - update_ns) / 1e6

    counts = dict(tracer.counts)
    for name, hot in HOT_CALLS.items():
        counts[name] = tracer.hot.get(hot, [0, 0])[0]
    for name, span in SPAN_CALLS.items():
        counts[name] = calls.get(span, 0)
    gates = counts.get("job.gate_pass", 0) + counts.get("job.gate_fail", 0)
    counts["job.gate_pass_ratio"] = counts.get("job.gate_pass", 0) / gates if gates else 0.0
    unknown = counts.get("edge.unknown", 0)
    counts["edge.similarity_per_unknown"] = (
        counts.get("edge.unknown_similarity_calls", 0) / unknown if unknown else 0.0)
    counts["edge.unknown_key_repeat_share"] = (
        counts.get("edge.unknown_repeats", 0) / unknown if unknown else 0.0)
    files = [p for p in store.rglob("*") if p.is_file()] if store is not None else []
    counts["kb.manifest_bytes"] = sum(p.stat().st_size for p in files if p.name == "index.json")
    counts["kb.disk_bytes"] = sum(p.stat().st_size for p in files)
    counts["kb.model_files"] = sum(1 for p in files if p.suffix == ".bin")
    for key in ("sim.updates", "sim.events", "sim.messages_sent", "sim.samples_replayed"):
        counts[key] = rnd.outputs.get(key.split(".", 1)[1], 0)

    metrics = {f"{name}_ms": metric(ms, "ms") for name, ms in absolute_ms.items()}
    for name, unit, _ in COUNTS:
        metrics[name] = metric(counts.get(name, 0), unit)
    metrics["trace.overhead_pct"] = metric(overhead_pct, "%")
    metrics["mem.peak_heap_mb"] = metric(heap_mb, "MB")
    return metrics, absolute_ms


def per_layer_spec() -> list[dict]:
    """The per_layer entries of BENCHMARK.json, in output order."""
    names = [name for name, _, _ in LAYER_TIMES] + ["sim.update", "sim.serve"]
    spec = [{"name": f"{n}_ms", "unit": "ms", "better": "lower"} for n in names]
    spec += [{"name": n, "unit": u, "better": b} for n, u, b in COUNTS]
    spec.append({"name": "trace.overhead_pct", "unit": "%", "better": "lower"})
    spec.append({"name": "mem.peak_heap_mb", "unit": "MB", "better": "lower"})
    return spec


# ---------------------------------------------------------------------------
# rounds and the command line
# ---------------------------------------------------------------------------

def run_round(workload, rdir: Path, tracer=None):
    rdir.mkdir(parents=True)
    # KB commits write tens of MB; flush what earlier rounds (or runs) left
    # in the page cache, so its writeback does not slow this round down
    os.sync()
    start = time.perf_counter()
    if tracer is None:
        state = workload.setup(rdir)
    else:
        state = tracer.root("op.setup", lambda: workload.setup(rdir))
    ready = time.perf_counter()
    rnd = workload.run(state, tracer)
    return rnd, ready - start, time.perf_counter() - ready


def print_named_metrics(name: str, tags, ops) -> None:
    """The workload-specific names the end-to-end metrics go by."""
    lines = []
    if name == "bench3":
        lines.append(("bench_s", median(ops), "s"))
    elif name == "serve":
        def us(routes):
            return [op * 1e6 for op, t in zip(ops, tags) if t in routes]
        everything = sorted(us({"known", "similar", "fallback"}))
        lines.append(("infer_known_us", median(us({"known"})), "us"))
        lines.append(("infer_unknown_us", median(us({"similar", "fallback"})), "us"))
        lines.append(("infer_us_p99", everything[math.ceil(0.99 * len(everything)) - 1], "us"))
        lines.append(("infer_per_s", len(ops) / sum(ops), "1/s"))
    elif name == "sim":
        value, pct = tail(ops)
        lines.append(("sim_s", sum(ops), "s"))
        lines.append(("tick_ms_p50", median(ops) * 1e3, "ms"))
        lines.append((f"tick_ms_tail (p{pct:.1f} of {len(ops)} ticks)", value * 1e3, "ms"))
        lines.append(("update_tick_ms_p50",
                      median([op for op, t in zip(ops, tags) if t == "update"]) * 1e3, "ms"))
    for label, value, unit in lines:
        print(f"  {label:<36} {value:>14.4f} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "edgelearn" / "__init__.py").is_file():
        print(f"error: no edgelearn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    import scenarios

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    tempfile.tempdir = str(work)
    try:
        workload = scenarios.WORKLOADS[args.workload](args.seed)
        if args.trace:
            return traced_run(args, workload, work)
        return untraced_run(args, workload, work)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(work, ignore_errors=True)


def heap_round(workload, rdir: Path):
    """One round under tracemalloc: (its Round, the peak MB of Python heap
    that set-up and round allocate). The inputs the benchmark generated
    beforehand are allocated before tracing starts and do not count."""
    tracemalloc.start()
    try:
        rnd, _, _ = run_round(workload, rdir)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return rnd, peak / 2**20


def untraced_run(args, workload, work: Path) -> int:
    """Rounds repeat identical work on fresh state (the digest check holds
    them to that), so each operation's time is its best over the rounds:
    load from other tenants of a shared machine inflates some repetitions,
    never the best one, unless it lasts the whole run."""
    deadline = time.perf_counter() + args.seconds
    first, best, rounds = None, [], 0
    setups, digests = [], set()
    attempted = failed = 0
    while True:
        rdir = work / f"round{len(setups)}"
        rnd, setup_s, round_s = run_round(workload, rdir)
        shutil.rmtree(rdir)
        if first is None:
            first, best = rnd, list(rnd.ops)
        elif len(rnd.ops) == len(best):
            best = [min(a, b) for a, b in zip(best, rnd.ops)]
        setups.append(setup_s)
        rounds += 1
        attempted += rnd.attempted
        failed += rnd.failed
        digests.add(rnd.digest)
        if rnd.failed or time.perf_counter() + setup_s + round_s > deadline:
            break
    while len(setups) < MIN_SETUPS:
        rdir = work / f"setup{len(setups)}"
        rdir.mkdir()
        os.sync()
        start = time.perf_counter()
        workload.setup(rdir)
        setups.append(time.perf_counter() - start)
        shutil.rmtree(rdir)
    attempted += 1
    if len(digests) != 1:
        failed += 1
        first.outputs.setdefault("failed_checks", []).append("digest differs across rounds")

    tail_value, tail_pct = tail(best)
    values = {
        "setup_s": median(setups),
        "round_s": sum(best),
        "op_p50_ms": median(best) * 1e3,
        "op_tail_ms": tail_value * 1e3,
    }
    metrics = {name: metric(values[name], unit) for name, unit in END_TO_END}
    print(f"workload {args.workload} seed {args.seed}: {rounds} round(s) of "
          f"{len(best)} x {workload.unit}, {len(setups)} set-ups")
    for name, m in metrics.items():
        note = f"   (p{tail_pct:.1f} of {len(best)})" if name == "op_tail_ms" else ""
        print(f"  {name:<36} {m['value']:>14.4f} {m['unit']}{note}")
    print_named_metrics(args.workload, first.tags, best)
    print(f"  {'error_rate':<36} {failed / attempted:>14.4f} ratio ({failed}/{attempted})")
    print(f"  outputs: {json.dumps(first.outputs, sort_keys=True)}")
    print(f"  digest: {sorted(digests)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def traced_run(args, workload, work: Path) -> int:
    from spans import Tracer

    plain, plain_setup, plain_round = run_round(workload, work / "plain")
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter_ns()
        traced, traced_setup, traced_round = run_round(workload, work / "traced", tracer)
        wall_ns = time.perf_counter_ns() - start
    finally:
        tracer.uninstall()
    heap, heap_mb = heap_round(workload, work / "heap")
    plain_s = plain_setup + plain_round
    overhead_pct = 100.0 * (wall_ns / 1e9 - plain_s) / plain_s
    attempted = plain.attempted + traced.attempted + heap.attempted + 1
    failed = plain.failed + traced.failed + heap.failed
    failed += len({plain.digest, traced.digest, heap.digest}) != 1

    store = work / "traced" / "kb"
    if args.workload == "bench3":
        store = work / "traced" / "reports" / "lifelong_kb"
    metrics, layer_ms = per_layer_metrics(
        tracer, traced, store if store.is_dir() else None, overhead_pct, heap_mb)

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    with (out / f"spans-{args.workload}-seed{args.seed}.jsonl").open("w", encoding="utf-8") as fh:
        for s in tracer.finished_spans():
            fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.root, s.hot_ns]) + "\n")

    print(f"workload {args.workload} seed {args.seed}: traced round "
          f"{wall_ns / 1e9:.3f} s vs untraced {plain_s:.3f} s "
          f"(overhead {overhead_pct:+.1f}%), {len(tracer.spans)} spans")
    print(f"  digests: untraced {plain.digest} traced {traced.digest} heap {heap.digest}")
    for name, ms in layer_ms.items():
        print(f"  {name + '_ms':<36} {ms:>14.3f} ms   {100 * ms * 1e6 / wall_ns:>6.2f} % of round")
    for name, m in metrics.items():
        if name.removesuffix("_ms") not in layer_ms:
            print(f"  {name:<36} {m['value']:>14} {m['unit']}")
    print(f"  {'error_rate':<36} {failed / attempted:>14.4f} ratio ({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
