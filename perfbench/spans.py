"""Span tracer that wraps edgelearn's public functions from outside.

Nothing in the program is edited: :meth:`Tracer.install` replaces each
traced function on its defining module, on every ``edgelearn`` module that
imported it by name (``edgelearn.job.fit`` is the same object as
``edgelearn.learners.fit``), and on the class for methods.
:meth:`Tracer.uninstall` restores the originals.

A span records name, start, end, parent and root (the outermost span it
runs under: one bench run, request or tick). Functions called
10^4 times or more per run are *hot*: they only add to a call count and a
summed time, and that time is charged to the enclosing span so its self
time stays right. Hot functions never call each other.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass

from edgelearn import bench, data, edge, job, kb, learners, sim, tasks

# (layer, owner, attribute, hot)
TARGETS = (
    ("data", data, "load_csv", False),
    ("data", data, "split_dataset", False),
    ("data", data, "write_csv", False),
    ("data", data.DatasetSchema, "validate_sample", True),
    ("tasks", tasks, "mine_tasks", False),
    ("tasks", tasks, "sample_transfer", False),
    ("tasks", tasks, "task_similarity", True),
    ("tasks", tasks, "bucket_attributes", True),
    ("learners", learners, "fit", False),
    ("learners", learners, "evaluate", False),
    ("learners", learners, "deserialize_model", False),
    ("learners", learners, "predict", True),
    ("learners", learners, "serialize_model", True),
    ("kb", kb.KnowledgeBase, "open", False),
    ("kb", kb.KnowledgeBase, "upsert_task", False),
    ("kb", kb.KnowledgeBase, "record_eval", False),
    ("kb", kb.KnowledgeBase, "set_fallback", False),
    ("kb", kb.KnowledgeBase, "snapshot", False),
    ("kb", kb, "deserialize_snapshot", False),
    ("job", job, "holdout_split", False),
    ("job", job.LifelongJob, "bootstrap", False),
    ("job", job.LifelongJob, "run_update_cycle", False),
    ("job", job.LifelongJob, "run_train", False),
    ("job", job.LifelongJob, "run_eval", False),
    ("job", job.LifelongJob, "run_deploy", False),
    ("edge", edge.EdgeRuntime, "infer", False),
    ("edge", edge.EdgeRuntime, "apply_snapshot", False),
    ("edge", edge.EdgeRuntime, "ingest_feedback", False),
    ("sim", sim, "start_sim", False),
    ("sim", sim.Simulation, "tick", False),
    ("bench", bench, "gen_synthetic", False),
    ("bench", bench, "baseline_closed", False),
    ("bench", bench, "baseline_incremental", False),
    ("bench", bench, "run_lifelong_bench", False),
    ("bench", bench, "run_bench", False),
    ("bench", bench, "emit_report", False),
)

# span fields
NAME, START, END, PARENT, ROOT, HOT = range(6)


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int
    root: int
    hot_ns: int = 0     # time of hot calls made directly inside this span


def self_times(spans: list[Span]) -> list[int]:
    """Per span: duration minus the time its child spans and its direct
    hot calls cover. Children of one parent never overlap (one thread)."""
    covered = [s.hot_ns for s in spans]
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.hot: dict[str, list[int]] = {}     # name -> [calls, ns]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._bucket_attributes = tasks.bucket_attributes    # the unwrapped one
        self._unknown_seen: set = set()
        # name -> (before(args) -> state, after(args, result, state))
        self._hooks = {
            "kb.upsert_task": (self._kb_version, self._count_commit),
            "kb.record_eval": (self._kb_version, self._count_commit),
            "kb.set_fallback": (self._kb_version, self._count_commit),
            "tasks.sample_transfer": (None, self._count_borrowed),
            "learners.fit": (None, self._count_fit_rows),
            "job.run_eval": (None, self._count_gate),
            "edge.apply_snapshot": (None, self._count_swap),
            "edge.infer": (self._similarity_calls, self._count_route),
        }

    # -- counters at boundaries ----------------------------------------------

    @staticmethod
    def _kb_version(args):
        return args[0].kb_version

    def _similarity_calls(self, args):
        return self.hot["tasks.task_similarity"][0]

    def _count_commit(self, args, result, before):
        self.counts["kb.commits"] += result != before

    def _count_borrowed(self, args, result, before):
        self.counts["tasks.transfer_borrowed_rows"] += sum(n for _, n in result.provenance)

    def _count_fit_rows(self, args, result, before):
        self.counts["learners.fit_rows"] += len(args[1])

    def _count_gate(self, args, result, before):
        for outcome in result.outcomes:
            self.counts["job.gate_pass" if outcome.passed else "job.gate_fail"] += 1

    def _count_swap(self, args, result, before):
        self.counts["edge.swaps"] += result == "applied"

    def _count_route(self, args, result, before):
        self.counts["edge.route." + result.route] += 1
        if result.route == edge.ROUTE_KNOWN:
            return
        runtime, sample = args
        bucketed = self._bucket_attributes(sample.attributes, runtime.bucketing)
        seen = (result.snapshot_version, tasks.task_key(bucketed))
        self.counts["edge.unknown"] += 1
        self.counts["edge.unknown_repeats"] += seen in self._unknown_seen
        self._unknown_seen.add(seen)
        self.counts["edge.unknown_similarity_calls"] += self._similarity_calls(args) - before

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack
        before_hook, after_hook = self._hooks.get(name, (None, None))
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, 0, 0, parent, spans[parent][ROOT] if parent >= 0 else idx, 0]
            spans.append(span)
            stack.append(idx)
            before = before_hook(args) if before_hook is not None else None
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if after_hook is not None:
                after_hook(args, result, before)
            return result

        return traced

    def _hot_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack
        record = self.hot.setdefault(name, [0, 0])
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                record[0] += 1
                record[1] += elapsed
                if stack:
                    spans[stack[-1]][HOT] += elapsed

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "edgelearn" or n.startswith("edgelearn."))]
        for layer, owner, attr, hot in TARGETS:
            name = f"{layer}.{attr}"
            raw = owner.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = (self._hot_wrapper if hot else self._span_wrapper)(name, fn)
            self._patch(owner, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
            if not isinstance(owner, type):
                for module in modules:
                    if module is not owner and module.__dict__.get(attr) is fn:
                        self._patch(module, attr, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def root(self, name: str, body):
        """Run ``body()`` under a span the benchmark opens itself: one
        operation (bench run, request, tick) or one set-up."""
        return self._span_wrapper(name, body)()

    def finished_spans(self) -> list[Span]:
        return [Span(*s) for s in self.spans]

    def totals(self) -> tuple[Counter, Counter]:
        """(inclusive ns, self ns) per span name; hot functions add their
        summed time to both."""
        spans = self.finished_spans()
        inclusive, own = Counter(), Counter()
        for s, t in zip(spans, self_times(spans)):
            inclusive[s.name] += s.end - s.start
            own[s.name] += t
        for name, (_, ns) in self.hot.items():
            inclusive[name] += ns
            own[name] += ns
        return inclusive, own
