"""Simulated edge-cloud control plane: a GlobalManager with the knowledge
base on the cloud side, edge nodes running inference, and a message bus
with link-failure injection.

The simulation advances in discrete ticks; within a tick the order is
fixed: (1) apply link schedule, (2) deliver queued snapshot pushes to
online edges, (3) replay scheduled samples through each edge's infer,
(4) fire retrain triggers and deliver uploads from online edges, (5) run
due update cycles on the cloud and queue snapshot pushes. There is one
message kind per direction: the cloud pushes a snapshot to each edge, and
an edge sends one upload per trigger, which is its retrain request.
Nothing is acknowledged. Messages to or from offline nodes stay queued in
FIFO order and drain on reconnect; the GlobalManager deduplicates uploads
by message id so a redelivery has no effect.

Everything is deterministic given the config and the job seed: event logs
from two runs of the same config are byte-identical.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass
from pathlib import Path

from .data import (Dataset, Sample, _is_int, check_int, check_object, field_names,
                   load_csv, load_object, parse_schema, read_text)
from .edge import (
    DEFAULT_SIMILARITY_THRESHOLD,
    DEFAULT_UNSEEN_CAP,
    EdgeRuntime,
    check_similarity_threshold,
)
from .errors import ConfigError, EdgeLearnError, NoModelError
from .job import JobConfig, LifelongJob, parse_job_config
from .kb import DeploySnapshot, KnowledgeBase
from .tasks import BucketingConfig


@dataclass(frozen=True)
class Message:
    """A snapshot push (cloud to edge) or an upload (edge to cloud); each
    queue holds one of the two."""

    id: int
    source: str
    payload: object


@dataclass(frozen=True)
class LinkEvent:
    tick: int
    edge_id: int
    up: bool


@dataclass(frozen=True)
class StreamEvent:
    tick: int
    edge_id: int
    samples: tuple[Sample, ...]


@dataclass(frozen=True)
class SimConfig:
    """A simulation: its edges, the job the cloud runs, and the data. The
    edges and the job bucket under the schema of ``initial_data``, which
    the streamed samples share."""

    edges: int
    job: JobConfig
    initial_data: Dataset
    streams: tuple[StreamEvent, ...] = ()
    links: tuple[LinkEvent, ...] = ()
    max_ticks: int = 1
    training_delay_ticks: int = 0
    similarity_threshold: float = DEFAULT_SIMILARITY_THRESHOLD
    unseen_cap: int = DEFAULT_UNSEEN_CAP

    def __post_init__(self):
        if not _is_int(self.edges) or self.edges < 1:
            raise ConfigError(f"edges must be an integer, at least one edge node, "
                              f"got {self.edges!r}")
        for name, low in (("max_ticks", 0), ("training_delay_ticks", 0), ("unseen_cap", 1)):
            check_int(name, getattr(self, name), low)
        check_similarity_threshold(self.similarity_threshold)
        for name, events in (("streams", self.streams), ("links", self.links)):
            for ev in events:
                check_int(f"{name}: tick", ev.tick, 0)
                if not _is_int(ev.edge_id) or not 0 <= ev.edge_id < self.edges:
                    raise ConfigError(f"{name}: unknown edge {ev.edge_id!r}")


@dataclass
class SimReport:
    events: tuple[str, ...]
    per_edge: dict
    kb_summary: dict
    message_stats: dict
    unknown_demand: dict  # uploaded unknown requests per key the last pushed snapshot lacks

    def events_text(self) -> str:
        return "\n".join(self.events) + ("\n" if self.events else "")

    def to_json(self) -> str:
        doc = {
            "per_edge": self.per_edge,
            "kb_summary": self.kb_summary,
            "message_stats": self.message_stats,
            "unknown_demand": self.unknown_demand,
            "event_count": len(self.events),
        }
        return json.dumps(doc, indent=2, sort_keys=True)


class _EdgeNode:
    def __init__(self, edge_id: int, runtime: EdgeRuntime):
        self.id = edge_id
        self.name = f"edge:{edge_id}"
        self.runtime = runtime
        self.link_up = True
        self.to_cloud: deque[Message] = deque()
        self.from_cloud: deque[Message] = deque()
        self.replayed = 0  # running sample ordinal for the prediction log


class Simulation:
    """A running simulation; use :func:`start_sim` to construct one."""

    def __init__(self, cfg: SimConfig, kb_path: str | Path):
        self.cfg = cfg
        self.now = 0
        self.events: list[str] = []
        self._next_message_id = 1
        self._processed_ids: set[int] = set()
        self._pending_trains: list[tuple[int, str]] = []  # (ready, uploading edge)
        self._labeled_pool: list[Sample] = []
        self._demand: Counter[str] = Counter()  # uploaded unknown requests per task key
        self._served: dict = {}  # the last pushed snapshot's tasks
        self.stats = {"sent": 0, "delivered": 0, "duplicates_dropped": 0}

        self._links_by_tick: dict[int, list[LinkEvent]] = {}
        for ev in sorted(cfg.links, key=lambda e: (e.tick, e.edge_id)):
            self._links_by_tick.setdefault(ev.tick, []).append(ev)
        self._streams_by_tick: dict[int, list[StreamEvent]] = {}
        for ev in sorted(cfg.streams, key=lambda e: (e.tick, e.edge_id)):
            self._streams_by_tick.setdefault(ev.tick, []).append(ev)

        self.kb = KnowledgeBase.open(kb_path)
        self.job = LifelongJob(cfg.job, self.kb)
        self.edges = [
            _EdgeNode(
                i,
                EdgeRuntime(
                    cfg.initial_data.schema,
                    BucketingConfig.from_schema(cfg.initial_data.schema),
                    similarity_threshold=cfg.similarity_threshold,
                    unseen_cap=cfg.unseen_cap,
                ),
            )
            for i in range(cfg.edges)
        ]

        # Bootstrap: link state for tick 0 applies first, then the initial
        # train/eval/deploy cycle runs and its snapshot reaches every online
        # edge before the first tick.
        for ev in self._links_by_tick.pop(0, []):
            self._apply_link(ev.edge_id, ev.up)
        snapshot = self.job.bootstrap(cfg.initial_data)
        self._log("cloud", "bootstrap", f"snapshot_version={snapshot.snapshot_version}")
        self._push_snapshot(snapshot)
        for edge in self.edges:
            if edge.link_up:
                self._deliver_to_edge(edge)

    # -- logging ---------------------------------------------------------------

    def _log(self, node: str, kind: str, detail: str) -> None:
        self.events.append(f"{self.now},{node},{kind},{detail}")

    # -- message plumbing --------------------------------------------------------

    def _send(self, source: str, payload) -> Message:
        msg = Message(self._next_message_id, source, payload)
        self._next_message_id += 1
        self.stats["sent"] += 1
        return msg

    def _apply_link(self, edge_id: int, up: bool) -> None:
        edge = self.edges[edge_id]
        if edge.link_up == up:
            return
        edge.link_up = up
        self._log(edge.name, "link", "up" if up else "down")

    def _push_snapshot(self, snapshot: DeploySnapshot) -> None:
        self._served = snapshot.tasks
        for edge in self.edges:
            msg = self._send("cloud", snapshot)
            edge.from_cloud.append(msg)
            self._log("cloud", "push_queued", f"to={edge.name} id={msg.id} "
                                              f"version={snapshot.snapshot_version}")

    def _deliver_to_edge(self, edge: _EdgeNode) -> None:
        while edge.from_cloud:
            msg = edge.from_cloud.popleft()
            self.stats["delivered"] += 1
            result = edge.runtime.apply_snapshot(msg.payload)
            self._log(edge.name, "snapshot_" + ("applied" if result == "applied" else "rejected"),
                      f"id={msg.id} version={msg.payload.snapshot_version}")

    def _deliver_to_cloud(self, edge: _EdgeNode) -> None:
        while edge.to_cloud:
            self.stats["delivered"] += 1
            self._receive_at_cloud(edge.to_cloud.popleft())

    def _receive_at_cloud(self, msg: Message) -> None:
        """Idempotent handler: duplicate deliveries are dropped by id. An
        upload is its edge's retrain request: the update cycle is due
        ``training_delay_ticks`` after it arrives."""
        if msg.id in self._processed_ids:
            self.stats["duplicates_dropped"] += 1
            self._log("cloud", "duplicate_dropped", f"id={msg.id} from={msg.source}")
            return
        self._processed_ids.add(msg.id)
        labeled, demand = msg.payload
        self._labeled_pool.extend(labeled)
        self._demand.update(demand)
        ready = self.now + self.cfg.training_delay_ticks
        self._pending_trains.append((ready, msg.source))
        self._log("cloud", "upload_received", f"id={msg.id} from={msg.source} "
                  f"labeled={len(labeled)} ready={ready} unseen={sum(demand.values())}")

    # -- the tick loop -------------------------------------------------------------

    def tick(self) -> list[str]:
        """Advance one tick; returns the event lines it produced."""
        start = len(self.events)

        for ev in self._links_by_tick.pop(self.now, []):
            self._apply_link(ev.edge_id, ev.up)

        for edge in self.edges:
            if edge.link_up:
                self._deliver_to_edge(edge)

        for ev in self._streams_by_tick.pop(self.now, []):
            edge = self.edges[ev.edge_id]
            for sample in ev.samples:
                ordinal = edge.replayed
                edge.replayed += 1
                try:
                    pred = edge.runtime.infer(sample)
                except NoModelError as exc:
                    self._log(edge.name, "no_model", f"i={ordinal} error={exc}")
                    continue
                key = "" if pred.task_key is None else " key=" + pred.task_key
                # the _log line, built in one step: one per replayed sample
                self.events.append(f"{self.now},{edge.name},predict,i={ordinal} route={pred.route}"
                                   f"{key} label={pred.label} version={pred.snapshot_version}")
            labeled = [s for s in ev.samples if s.label is not None]
            if labeled:
                result = edge.runtime.ingest_feedback(labeled)
                self._log(edge.name, "feedback", f"accepted={result.accepted}")

        for edge in self.edges:
            batch = edge.runtime.fire_trigger(self.cfg.job.trigger)
            if batch is not None:
                labeled, demand = batch
                upload = self._send(edge.name, batch)
                edge.to_cloud.append(upload)
                self._log(edge.name, "trigger", f"labeled={len(labeled)} "
                          f"unseen={sum(demand.values())} upload_id={upload.id}")
            if edge.link_up:
                self._deliver_to_cloud(edge)

        due = [p for p in self._pending_trains if p[0] <= self.now]
        self._pending_trains = [p for p in self._pending_trains if p[0] > self.now]
        for _, source in due:
            if not self._labeled_pool:
                self._log("cloud", "update_skipped", f"from={source} reason=empty-pool")
                continue
            batch = self.cfg.initial_data.derive(self._labeled_pool)  # each edge validated them
            self._labeled_pool = []
            try:
                snapshot = self.job.run_update_cycle(batch)
            except EdgeLearnError as exc:
                self._log("cloud", "update_failed", f"error={exc}")
                continue
            self._log("cloud", "update_completed",
                      f"samples={len(batch)} snapshot_version={snapshot.snapshot_version} "
                      f"tasks={len(snapshot.tasks)}")
            self._push_snapshot(snapshot)

        self.now += 1
        return self.events[start:]

    def run_to_completion(self) -> SimReport:
        """Tick up to max_ticks and assemble the report."""
        while self.now < self.cfg.max_ticks:
            self.tick()
        return self.report()

    def report(self) -> SimReport:
        per_edge = {}
        for edge in self.edges:
            status = edge.runtime.status()
            status["link_up"] = edge.link_up
            status["queued_to_cloud"] = len(edge.to_cloud)
            status["queued_from_cloud"] = len(edge.from_cloud)
            per_edge[edge.name] = status
        kb_summary = {
            "kb_version": self.kb.kb_version,
            "schema_fingerprint": self.kb.schema_fingerprint,
            "fallback_present": self.kb.fallback is not None,
            "tasks": [
                {"key": key, "version": rec.version, "status": rec.status}
                for key, rec in sorted(self.kb.records.items())
            ],
        }
        stats = dict(self.stats, unseen_escalated=self._demand.total())
        stats["queued_at_end"] = sum(
            len(e.to_cloud) + len(e.from_cloud) for e in self.edges
        )
        demand = {k: n for k, n in sorted(self._demand.items()) if k not in self._served}
        return SimReport(tuple(self.events), per_edge, kb_summary, stats, demand)


def start_sim(cfg: SimConfig, kb_path: str | Path) -> Simulation:
    """Construct the cloud and edge nodes, run the initial train/eval/deploy
    job on the configured dataset, and push the first snapshot."""
    return Simulation(cfg, kb_path)


# ---------------------------------------------------------------------------
# Config file parsing
# ---------------------------------------------------------------------------

def parse_sim_config(config_text: str, base_dir: str | Path) -> SimConfig:
    """Parse a JSON sim config; file paths inside resolve against *base_dir*.

    Keys are :class:`SimConfig`'s fields and ``schema``, the path of the
    schema file the CSVs are read under; the dataclass supplies the defaults
    and checks the values: ``edges``, ``max_ticks``, ``job``
    (path), ``initial_data`` (CSV path), ``streams`` [{tick, edge, data}],
    ``links`` [{tick, edge, state: up|down}], optional
    ``training_delay_ticks``, ``similarity_threshold``, ``unseen_cap``.
    """
    base = Path(base_dir)
    raw = load_object(config_text, "sim config",
                      ("edges", "max_ticks", "schema", "job", "initial_data"), field_names(SimConfig))
    try:
        schema = parse_schema(read_text(base / raw.pop("schema")))
        job = parse_job_config(read_text(base / raw["job"]), schema)
        initial = load_csv(base / raw["initial_data"], schema)
        streams = []
        for entry in raw.get("streams", []):
            entry = check_object(entry, "streams", ("tick", "edge", "data"))
            samples = load_csv(base / entry["data"], schema).samples
            streams.append(StreamEvent(entry["tick"], entry["edge"], samples))
        links = []
        for entry in raw.get("links", []):
            entry = check_object(entry, "links", ("tick", "edge", "state"))
            if entry["state"] not in ("up", "down"):
                raise ConfigError(f"link state must be up or down, got {entry['state']!r}")
            links.append(LinkEvent(entry["tick"], entry["edge"], entry["state"] == "up"))
    except (TypeError, ValueError, OSError) as exc:
        raise ConfigError(f"bad sim config: {exc}") from exc
    return SimConfig(**{**raw, "job": job, "initial_data": initial,
                        "streams": tuple(streams), "links": tuple(links)})
