"""Deterministic inputs for the benchmark workloads.

Everything derives from the shipped ``thermal5_synthetic.json`` spec and
the benchmark seed: the same seed gives byte-identical inputs, another
seed gives other inputs of the same shape (same task counts, row counts
and route mix), so run-to-run cost differences come from the program and
the machine, not from workload size.

The site x band layout replicates thermal5's five label rules under many
site labels and gives every task a numeric ``band`` attribute with 40
buckets. Tasks of different sites are then weakly similar (band
proximity), so ``relations`` and sample transfer do real work, while an
unseen band of a known site is similar enough (>= 0.75) to route to a
neighbour model.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace

from edgelearn import bench as B
from edgelearn import data as D
from edgelearn import kb as K
from edgelearn import learners as L
from edgelearn import tasks as T
from edgelearn.edge import ROUTE_FALLBACK, ROUTE_KNOWN, ROUTE_SIMILAR
from edgelearn.reference import reference_text

BAND_BUCKETS = 40
# a band bucket b is written as the value b + 0.5, which buckets back to b
BAND_EDGES = tuple(float(e) for e in range(1, BAND_BUCKETS))
# largest band distance at which a same-site task still scores >= 0.75
SIMILAR_BAND_REACH = (BAND_BUCKETS - 1) // 2

# workload shapes (fixed; only the seed varies)
# one band per site leaves ~2850 similar keys, about as many as the 3000
# similar requests, so serve's unknown keys hardly repeat
SERVE_SITES, SERVE_BANDS, SERVE_ROWS = 100, 1, 40         # 100-task snapshot
SERVE_REQUESTS = 10_000
SERVE_MIX = ((ROUTE_KNOWN, 6), (ROUTE_SIMILAR, 3), (ROUTE_FALLBACK, 1))
SIM_SITES, SIM_BANDS, SIM_ROWS = 20, 2, 40                # 40-task KB
# the unknown keys sim's edges read and label: unseen bands of known sites,
# and new sites. An assumption, not a measured figure: a fixed population
# of devices keeps asking until a retrain learns its task, so these keys
# repeat; the 32 keys outnumber the ~22 new tasks a run learns.
SIM_SIMILAR_KEYS, SIM_FALLBACK_KEYS = 24, 8
SIM_TICKS, SIM_QUIET_TICKS = 48, 3
SIM_READS, SIM_LABELED, SIM_TRIGGER_TICKS, SIM_NEW_EVERY = 40, 4, 6, 4


def thermal5() -> B.SyntheticSpec:
    return B.parse_synthetic_spec(reference_text("thermal5_synthetic.json"))


def bench3_spec(seed: int) -> B.SyntheticSpec:
    """The README experiment's spec with the benchmark seed as its data seed."""
    return replace(thermal5(), seed=seed)


def site_band_schema() -> D.DatasetSchema:
    doc = json.loads(D.schema_to_json(thermal5().schema))
    doc["attributes"].append({"name": "band", "kind": "numeric", "edges": list(BAND_EDGES)})
    return D.parse_schema(json.dumps(doc))


def job_json(unseen_threshold: int | None = None) -> str:
    doc = json.loads(reference_text("thermal_job.json"))
    if unseen_threshold is not None:
        doc["trigger"] = {"unseen_threshold": unseen_threshold}
    return json.dumps(doc, indent=2, sort_keys=True)


@dataclass(frozen=True)
class Layout:
    """Sites, each with its thermal5 rule and the band buckets it has tasks in."""

    sites: tuple[str, ...]
    bands: dict[str, tuple[int, ...]]
    rules: dict[str, B.SyntheticTask]

    @property
    def keys(self) -> list[tuple[str, int]]:
        return [(s, b) for s in self.sites for b in self.bands[s]]


def make_layout(rng: random.Random, n_sites: int, bands_per_site: int) -> Layout:
    rules = thermal5().tasks
    sites = tuple(f"s{i:03d}" for i in range(n_sites))
    return Layout(
        sites=sites,
        bands={s: tuple(sorted(rng.sample(range(BAND_BUCKETS), bands_per_site))) for s in sites},
        rules={s: rules[i % len(rules)] for i, s in enumerate(sites)},
    )


def band_value(bucket: int) -> float:
    return bucket + 0.5


def site_band_dataset(
    schema: D.DatasetSchema, rules: dict[str, B.SyntheticTask], cells, n: int, seed: int
) -> D.Dataset:
    """``n`` labelled rows per (site, band) cell, drawn with the site's rule."""
    tasks = tuple(
        replace(rules[site], attributes=(site, band_value(band)), n_samples=n)
        for site, band in cells
    )
    return B.gen_synthetic(B.SyntheticSpec(schema=schema, tasks=tasks, seed=seed))


def _unseen_band(rng: random.Random, layout: Layout, site: str, taken: set) -> int:
    """A band of *site* with no task yet, within similar reach of one that has."""
    own = layout.bands[site]
    choices = [
        b for b in range(BAND_BUCKETS)
        if b not in own and (site, b) not in taken
        and min(abs(b - o) for o in own) <= SIMILAR_BAND_REACH
    ]
    return rng.choice(choices)


def _features(rng: random.Random, rule: B.SyntheticTask) -> tuple[float, ...]:
    return tuple(rng.uniform(lo, hi) for lo, hi in rule.ranges)


# ---------------------------------------------------------------------------
# serve: one snapshot and a fixed request stream with a known route mix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ServeInputs:
    schema: D.DatasetSchema
    payload: bytes                       # serialized snapshot pushed to the edge
    requests: tuple[D.Sample, ...]
    routes: tuple[str, ...]              # the route each request was generated for


def serve_snapshot(schema: D.DatasetSchema, layout: Layout, seed: int) -> K.DeploySnapshot:
    """Fit one tree per task directly (cheaper than a KB bootstrap, same models)."""
    cfg_job = json.loads(job_json())
    spec = L.EstimatorSpec(cfg_job["learner"]["kind"], cfg_job["learner"]["hyperparameters"])
    bucketing = T.BucketingConfig.from_schema(schema)
    train = site_band_dataset(schema, layout.rules, layout.keys, SERVE_ROWS, seed)
    partition = T.mine_tasks(train, bucketing)
    tasks = {
        key: K.SnapshotEntry(model=L.fit(spec, part, cfg_job["seed"]),
                             attributes=partition.attributes[key])
        for key, part in sorted(partition.parts.items())
    }
    return K.DeploySnapshot(
        snapshot_version=1,
        schema_fingerprint=schema.fingerprint(),
        tasks=tasks,
        fallback=L.fit(spec, train, cfg_job["seed"]),
    )


def serve_cells(rng: random.Random, layout: Layout, routes: list[str]):
    """The (site, band) cell of each request, and every site's label rule
    (a new site borrows a known one's). Known requests pick a snapshot
    task. Unknown keys repeat as little as the key space allows: similar
    requests take the unseen bands of known sites within similar reach in
    a shuffled order, a key coming back only once all are taken, and every
    fallback request has a site of its own."""
    reachable = [
        (site, b) for site in layout.sites for b in range(BAND_BUCKETS)
        if b not in layout.bands[site]
        and min(abs(b - own) for own in layout.bands[site]) <= SIMILAR_BAND_REACH
    ]
    rng.shuffle(reachable)
    rules = dict(layout.rules)
    cells, similar, fallback = [], 0, 0
    for route in routes:
        if route == ROUTE_KNOWN:
            cells.append(rng.choice(layout.keys))
        elif route == ROUTE_SIMILAR:
            cells.append(reachable[similar % len(reachable)])
            similar += 1
        else:
            site = f"x{fallback:05d}"
            rules[site] = layout.rules[layout.sites[fallback % len(layout.sites)]]
            cells.append((site, rng.randrange(BAND_BUCKETS)))
            fallback += 1
    return cells, rules


def request_stream(rng: random.Random, layout: Layout, n: int):
    """``n`` unlabelled requests in the exact SERVE_MIX proportions.
    Returns (samples, the route each was generated for)."""
    total = sum(w for _, w in SERVE_MIX)
    routes = [route for route, w in SERVE_MIX for _ in range(n * w // total)]
    rng.shuffle(routes)
    cells, rules = serve_cells(rng, layout, routes)
    samples = [
        D.Sample(_features(rng, rules[site]), (site, band_value(band)), None)
        for site, band in cells
    ]
    return samples, routes


def serve_inputs(seed: int) -> ServeInputs:
    schema = site_band_schema()
    rng = random.Random(f"serve:{seed}")
    layout = make_layout(rng, SERVE_SITES, SERVE_BANDS)
    snapshot = serve_snapshot(schema, layout, rng.randrange(2**31))
    samples, routes = request_stream(rng, layout, SERVE_REQUESTS)
    return ServeInputs(schema, K.serialize_snapshot(snapshot), tuple(samples), tuple(routes))


# ---------------------------------------------------------------------------
# sim: two edges streaming reads and labels, updates swapping snapshots
# ---------------------------------------------------------------------------

def sim_pools(rng: random.Random, layout: Layout):
    """Task keys per route: the layout's tasks (known), SIM_SIMILAR_KEYS
    unseen bands of known sites within similar reach (similar) and
    SIM_FALLBACK_KEYS new sites (fallback). Also returns every site's
    label rule; a new site borrows a known one's."""
    taken = set(layout.keys)
    similar = []
    for _ in range(SIM_SIMILAR_KEYS):
        site = rng.choice(layout.sites)
        cell = (site, _unseen_band(rng, layout, site, taken))
        taken.add(cell)
        similar.append(cell)
    rules = dict(layout.rules)
    fallback = []
    for i in range(SIM_FALLBACK_KEYS):
        site = f"x{i:03d}"
        rules[site] = layout.rules[layout.sites[i % len(layout.sites)]]
        fallback.append((site, rng.randrange(BAND_BUCKETS)))
    return {ROUTE_KNOWN: layout.keys, ROUTE_SIMILAR: similar, ROUTE_FALLBACK: fallback}, rules


@dataclass(frozen=True)
class SimInputs:
    schema: D.DatasetSchema
    initial: D.Dataset
    streams: tuple[tuple[int, int, D.Dataset], ...]   # (tick, edge, samples)
    links: tuple[tuple[int, int, str], ...]          # (tick, edge, "up"|"down")
    unseen_threshold: int
    max_ticks: int


def sim_inputs(seed: int) -> SimInputs:
    """Each edge reads SIM_READS samples per tick, drawn in the SERVE_MIX
    proportions. The first SIM_LABELED are labelled and share one task
    key per tick: every SIM_NEW_EVERY-th tick a key no task has yet (taken
    in turn from the unknown keys the edges read), otherwise a known task,
    so every seed grows the KB by the same number of tasks at the same
    ticks. Each edge fires a retrain every SIM_TRIGGER_TICKS ticks, edge 1
    half a period after edge 0, so an update cycle runs every
    SIM_TRIGGER_TICKS / 2 ticks. Streams stop SIM_QUIET_TICKS before the
    end so every queued message drains."""
    schema = site_band_schema()
    rng = random.Random(f"sim:{seed}")
    layout = make_layout(rng, SIM_SITES, SIM_BANDS)
    initial = site_band_dataset(schema, layout.rules, layout.keys, SIM_ROWS, rng.randrange(2**31))
    pools, rules = sim_pools(rng, layout)
    new_cells = pools[ROUTE_SIMILAR] + pools[ROUTE_FALLBACK]
    rng.shuffle(new_cells)
    routes, weights = zip(*SERVE_MIX)
    classes = schema.label_classes
    streams = []
    for edge, first_tick in ((0, 0), (1, SIM_TRIGGER_TICKS // 2)):
        for tick in range(first_tick, SIM_TICKS - SIM_QUIET_TICKS):
            if tick % SIM_NEW_EVERY == SIM_NEW_EVERY - 1:
                labeled_cell = new_cells.pop()
            else:
                labeled_cell = rng.choice(layout.keys)
            samples = []
            for i in range(SIM_READS):
                site, band = labeled_cell if i < SIM_LABELED else rng.choice(
                    pools[rng.choices(routes, weights)[0]])
                rule = rules[site]
                features = _features(rng, rule)
                label = None
                if i < SIM_LABELED:
                    label = B.rule_label(rule, features[0])
                    if rng.random() < rule.noise:
                        label = rng.choice([c for c in classes if c != label])
                samples.append(D.Sample(features, (site, band_value(band)), label))
            streams.append((tick, edge, D.Dataset(schema, tuple(samples))))
    links = ((SIM_TICKS // 5, 1, "down"), (SIM_TICKS // 3, 1, "up"))
    return SimInputs(
        schema, initial, tuple(streams), links,
        unseen_threshold=SIM_LABELED * SIM_TRIGGER_TICKS, max_ticks=SIM_TICKS,
    )
