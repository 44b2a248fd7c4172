"""Synthetic generation, the three benchmark arms, and report files."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from edgelearn import bench as bench_mod
from edgelearn.bench import (
    BenchResult,
    SyntheticSpec,
    SyntheticTask,
    baseline_closed,
    baseline_incremental,
    emit_report,
    format_report_text,
    gen_synthetic,
    parse_summary,
    parse_synthetic_spec,
    relative_improvement,
    rule_label,
    run_bench,
    run_lifelong_bench,
)
from edgelearn.data import Dataset, DatasetSchema, parse_schema, split_dataset
from edgelearn.edge import EdgeRuntime
from edgelearn.errors import ConfigError, DataError
from edgelearn.job import EvalPolicy, JobConfig, TransferPolicy, TriggerPolicy, parse_job_config
from edgelearn.kb import serialize_snapshot
from edgelearn.learners import EstimatorSpec, evaluate
from edgelearn.reference import reference_text
from edgelearn.tasks import BucketingConfig, as_tasks

from conftest import city_dataset, reference_gen_synthetic

SITE_SCHEMA = parse_schema("""
{"features": ["temp"],
 "label": {"name": "pref", "classes": ["nochange", "cooler"]},
 "attributes": [{"name": "site", "kind": "categorical"}]}
""")


def site_task(site: str, threshold: float, noise: float = 0.0, n: int = 200,
              classes=("nochange", "cooler")) -> SyntheticTask:
    return SyntheticTask(
        attributes=(site,),
        ranges=((15.0, 40.0),),
        thresholds=(threshold,),
        region_classes=classes,
        noise=noise,
        n_samples=n,
    )


def site_spec(tasks, seed: int = 0) -> SyntheticSpec:
    return SyntheticSpec(schema=SITE_SCHEMA, tasks=tuple(tasks), seed=seed)


def tree_config(seed: int = 0, **overrides) -> JobConfig:
    defaults = dict(
        learner=EstimatorSpec("tree", {"max_depth": 4}),
        eval_policy=EvalPolicy(),
        transfer=TransferPolicy(min_samples=1, cap=10_000),
        trigger=TriggerPolicy(unseen_threshold=10),
        fallback_enabled=True,
        seed=seed,
    )
    defaults.update(overrides)
    return JobConfig(**defaults)


# -- synthetic generation --------------------------------------------------------

def test_label_shift_motif_at_shared_feature_value():
    outdoor = site_task("outdoor", threshold=28.0)
    indoor = site_task("indoor", threshold=33.0)
    # same temperature reading, different labels across deployment sites
    assert rule_label(outdoor, 30.0) == "cooler"
    assert rule_label(indoor, 30.0) == "nochange"

    ds = gen_synthetic(site_spec([outdoor, indoor], seed=3))
    for sample in ds.samples:
        task = outdoor if sample.attributes[0] == "outdoor" else indoor
        assert sample.label == rule_label(task, sample.features[0])


def test_noiseless_labels_follow_rule_exactly():
    ds = gen_synthetic(site_spec([site_task("s", 25.0, noise=0.0, n=100)]))
    assert len(ds) == 100
    for s in ds.samples:
        assert s.label == ("cooler" if s.features[0] >= 25.0 else "nochange")


def test_same_spec_same_seed_identical():
    spec = site_spec([site_task("s", 25.0, noise=0.3, n=50)], seed=9)
    assert gen_synthetic(spec) == gen_synthetic(spec)


def test_noise_rate_close_to_configured():
    task = site_task("s", 25.0, noise=0.2, n=5000)
    ds = gen_synthetic(site_spec([task], seed=1))
    flipped = sum(1 for s in ds.samples if s.label != rule_label(task, s.features[0]))
    assert abs(flipped / 5000 - 0.2) < 0.02


def test_synthetic_spec_validation():
    with pytest.raises(ConfigError, match="strictly increasing"):
        site_spec([SyntheticTask(("s",), ((15.0, 40.0),), (30.0, 20.0),
                                 ("nochange", "cooler", "cooler"), 0.0, 10)])
    with pytest.raises(ConfigError, match="inside the feature-0 range"):
        site_spec([site_task("s", threshold=99.0)])
    with pytest.raises(ConfigError, match="one class per region"):
        site_spec([SyntheticTask(("s",), ((15.0, 40.0),), (20.0,),
                                 ("nochange",), 0.0, 10)])
    with pytest.raises(ConfigError, match="noise"):
        site_spec([site_task("s", 25.0, noise=0.5)])
    with pytest.raises(ConfigError, match="not declared"):
        site_spec([SyntheticTask(("s",), ((15.0, 40.0),), (20.0,),
                                 ("nochange", "hotter"), 0.0, 10)])
    # a width past the largest float would make inf features
    with pytest.raises(ConfigError, match=r"task 1: feature range \[-1e\+308,1e\+308\] is too"):
        site_spec([site_task("s", 25.0), SyntheticTask(("t",), ((-1e308, 1e308),), (0.0,),
                                                       ("nochange", "cooler"), 0.0, 10)])


def _random_synthetic_spec(rng, n_tasks: int) -> SyntheticSpec:
    """A random spec: 1-3 features, 0-2 attributes of either kind, 2-3
    classes, and *n_tasks* tasks of 0-2 thresholds, noise 0 to 0.49 and 1-200 rows."""
    edges = [rng.choice([None, (0.0,)]) for _ in range(rng.randint(0, 2))]
    schema = DatasetSchema(
        feature_columns=tuple(f"f{j}" for j in range(rng.randint(1, 3))),
        label_column="y", label_classes=("a", "b", "c")[:rng.randint(2, 3)],
        attribute_columns=tuple(f"a{j}" for j in range(len(edges))),
        attribute_edges=edges,
    )
    tasks = []
    for _ in range(n_tasks):
        ranges = []
        for _ in schema.feature_columns:
            lo = rng.uniform(-50.0, 50.0)
            ranges.append((lo, lo + rng.uniform(0.5, 30.0)))
        lo0, hi0 = ranges[0]
        thresholds = sorted({lo0 + (hi0 - lo0) * rng.uniform(0.05, 0.95)
                             for _ in range(rng.randint(0, 2))})
        tasks.append(SyntheticTask(
            attributes=tuple(rng.choice(["athens", "oslo"]) if e is None
                             else rng.choice([rng.uniform(-9.0, 9.0), rng.randint(-3, 3)])
                             for e in edges),
            ranges=tuple(ranges),
            thresholds=tuple(thresholds),
            region_classes=tuple(rng.choice(schema.label_classes)
                                 for _ in range(len(thresholds) + 1)),
            noise=rng.choice([0.0, 0.49, rng.uniform(0.0, 0.49)]),
            n_samples=rng.randint(1, 200),
        ))
    return SyntheticSpec(schema=schema, tasks=tuple(tasks), seed=rng.randrange(1000))


def test_gen_synthetic_equals_the_generator_that_checks_every_row():
    rng = random.Random(40)
    for _ in range(150):
        spec = _random_synthetic_spec(rng, rng.randint(1, 4))
        got, want = gen_synthetic(spec), reference_gen_synthetic(spec)
        assert got == want and repr(got.samples) == repr(want.samples)


@pytest.mark.parametrize("numeric, bad", [
    (False, ""), (False, 3.0), (False, None), (False, True),
    (True, ""), (True, "x"), (True, float("nan")), (True, float("inf")), (True, True),
])
def test_gen_synthetic_names_the_first_row_of_a_task_with_a_bad_attribute(numeric, bad):
    rng = random.Random(41)
    spec = _random_synthetic_spec(rng, 4)
    while not spec.schema.n_attributes or (spec.schema.attribute_edges[0] is not None) != numeric:
        spec = _random_synthetic_spec(rng, 4)
    third = replace(spec.tasks[2], attributes=(bad, *spec.tasks[2].attributes[1:]))
    spec = replace(spec, tasks=(*spec.tasks[:2], third, spec.tasks[3]))
    with pytest.raises(DataError) as want:
        reference_gen_synthetic(spec)
    with pytest.raises(DataError) as got:
        gen_synthetic(spec)
    assert str(got.value) == str(want.value)
    first = spec.tasks[0].n_samples + spec.tasks[1].n_samples
    assert str(got.value).startswith(f"sample {first}: attribute 'a0' needs")


def test_parse_synthetic_spec_round_trip_fields():
    text = """
    {"seed": 4,
     "schema": {"features": ["temp"],
                "label": {"name": "pref", "classes": ["nochange", "cooler"]},
                "attributes": [{"name": "site", "kind": "categorical"}]},
     "tasks": [{"attributes": ["s1"], "ranges": [[15, 40]], "thresholds": [25],
                "classes": ["nochange", "cooler"], "noise": 0.1, "n": 20}]}
    """
    spec = parse_synthetic_spec(text)
    assert spec.seed == 4
    assert spec.tasks[0].thresholds == (25.0,)
    assert len(gen_synthetic(spec)) == 20


# -- closed baseline ---------------------------------------------------------------

def test_closed_homogeneous_close_to_lifelong():
    spec = site_spec([site_task("only", 27.0, noise=0.05, n=600)], seed=2)
    data = gen_synthetic(spec)
    train, test = split_dataset(data, 0.7, seed=0)
    cfg = tree_config()
    closed = baseline_closed(train, test, cfg.learner, cfg.seed)
    lifelong = run_lifelong_bench(train, test, cfg).result
    assert abs(closed.overall_accuracy - lifelong.overall_accuracy) <= 0.05


def test_closed_opposite_rules_near_half_with_majority():
    # two tasks with mirrored labels, balanced: a single majority model ~0.5
    a = site_task("p", 27.0, n=500, classes=("nochange", "cooler"))
    b = site_task("q", 27.0, n=500, classes=("cooler", "nochange"))
    data = gen_synthetic(site_spec([a, b], seed=6))
    train, test = split_dataset(data, 0.6, seed=1)
    closed = baseline_closed(train, test, EstimatorSpec("majority"), 0)
    assert abs(closed.overall_accuracy - 0.5) < 0.05


def test_closed_empty_test_rejected():
    data = gen_synthetic(site_spec([site_task("s", 25.0, n=20)]))
    with pytest.raises(DataError):
        baseline_closed(data, Dataset(SITE_SCHEMA), EstimatorSpec("majority"), 0)


# -- incremental baseline -------------------------------------------------------------

def test_incremental_single_task_equals_closed():
    data = gen_synthetic(site_spec([site_task("s", 25.0, noise=0.05, n=400)], seed=4))
    train, test = split_dataset(data, 0.7, seed=0)
    cfg = tree_config()
    closed = baseline_closed(train, test, cfg.learner, cfg.seed)
    inc = baseline_incremental([("s", train, test)], cfg.learner, cfg.seed)
    assert inc.overall_accuracy == closed.overall_accuracy
    assert inc.per_task.keys() == closed.per_task.keys()


def test_incremental_interference_on_contradictory_second_task():
    a = site_task("p", 27.0, n=400, classes=("nochange", "cooler"))
    b = site_task("q", 27.0, n=400, classes=("cooler", "nochange"))
    data = gen_synthetic(site_spec([a, b], seed=8))
    train, test = split_dataset(data, 0.7, seed=2)
    train_parts, test_parts = as_tasks(train).parts, as_tasks(test).parts
    stream = [(k, train_parts[k], test_parts[k]) for k in ("p", "q")]
    inc = baseline_incremental(stream, EstimatorSpec("tree", {"max_depth": 4}), 0)
    # task q is scored with the model trained only on p's opposite labeling
    assert inc.per_task["q"].accuracy < 0.2
    assert inc.per_task["p"].accuracy > 0.8


def test_incremental_deterministic():
    data = gen_synthetic(site_spec(
        [site_task("p", 24.0, 0.1, 150), site_task("q", 30.0, 0.1, 150)], seed=3))
    train, test = split_dataset(data, 0.7, seed=2)
    train_parts, test_parts = as_tasks(train).parts, as_tasks(test).parts
    stream = [(k, train_parts[k], test_parts[k]) for k in sorted(train_parts)]
    r1 = baseline_incremental(stream, EstimatorSpec("tree"), 0)
    r2 = baseline_incremental(stream, EstimatorSpec("tree"), 0)
    assert r1 == r2


@pytest.mark.parametrize("trailing_test_only", [False, True])
def test_incremental_fits_only_the_models_it_scores(monkeypatch, trailing_test_only):
    parts = {c: city_dataset([(float(i), c, "ab"[i % 2]) for i in range(n)])
             for c, n in (("p", 4), ("q", 6), ("r", 8))}
    stream = [(c, part, part) for c, part in parts.items()]
    if trailing_test_only:
        stream.append(("s", Dataset(parts["p"].schema), parts["p"]))
    fitted_rows = []
    real_fit = bench_mod.fit

    def counting_fit(spec, dataset, seed):
        fitted_rows.append(len(dataset))
        return real_fit(spec, dataset, seed)

    monkeypatch.setattr(bench_mod, "fit", counting_fit)
    result = baseline_incremental(stream, EstimatorSpec("majority"), 0)
    # p bootstraps and is scored after its own fit; q is scored on p's
    # model; r on p+q's; the pool p+q+r is fit only if s is scored on it
    assert fitted_rows == ([4, 10, 18] if trailing_test_only else [4, 10])
    assert sorted(result.per_task) == sorted(c for c, _, _ in stream)


def test_incremental_rejects_a_stream_of_mixed_schemas():
    p = city_dataset([(1.0, "p", "a")])
    q = city_dataset([(2.0, "q", "c")], classes=("a", "c"))
    with pytest.raises(DataError, match="another schema"):
        baseline_incremental([("p", p, p), ("q", q, q)], EstimatorSpec("majority"), 0)


def test_incremental_empty_stream_rejected():
    with pytest.raises(DataError, match="empty"):
        baseline_incremental([], EstimatorSpec("majority"), 0)


# -- lifelong arm -----------------------------------------------------------------------

def test_lifelong_full_coverage_routes_known():
    data = gen_synthetic(site_spec(
        [site_task("p", 24.0, 0.05, 300), site_task("q", 30.0, 0.05, 300)], seed=5))
    train, test = split_dataset(data, 0.7, seed=3)
    cfg = tree_config()
    outcome = run_lifelong_bench(train, test, cfg)
    assert set(outcome.snapshot.tasks) == {"p", "q"}
    runtime = EdgeRuntime(train.schema, BucketingConfig.from_schema(train.schema))
    runtime.apply_snapshot(outcome.snapshot)
    for sample in test.samples:
        assert runtime.infer(sample).route == "known"


def test_lifelong_unseen_task_still_scored():
    train_data = gen_synthetic(site_spec([site_task("p", 24.0, 0.0, 300)], seed=5))
    test_data = gen_synthetic(site_spec(
        [site_task("p", 24.0, 0.0, 80), site_task("zz", 30.0, 0.0, 80)], seed=6))
    cfg = tree_config()
    outcome = run_lifelong_bench(train_data, test_data, cfg)
    assert set(outcome.result.per_task) == {"p", "zz"}
    assert "zz" not in outcome.snapshot.tasks
    assert outcome.result.per_task["zz"].n == 80


def test_lifelong_per_task_matches_direct_evaluate_oracle():
    """Bypass the router: each test task's routed accuracy must equal a
    direct evaluate() call against the model its attributes route to."""
    train_data = gen_synthetic(site_spec(
        [site_task("p", 24.0, 0.05, 300), site_task("q", 30.0, 0.05, 300)], seed=7))
    test_data = gen_synthetic(site_spec(
        [site_task("p", 24.0, 0.05, 100), site_task("q", 30.0, 0.05, 100),
         site_task("new", 27.0, 0.05, 100)], seed=8))
    cfg = tree_config()
    outcome = run_lifelong_bench(train_data, test_data, cfg)
    parts = as_tasks(test_data)
    for key in parts.keys:
        if key in outcome.snapshot.tasks:
            model = outcome.snapshot.tasks[key].model
        else:
            model = outcome.snapshot.fallback  # categorical-only: no similar route
        direct = evaluate(model, parts.parts[key])
        assert outcome.result.per_task[key].accuracy == direct.accuracy
        assert outcome.result.per_task[key].counts == direct.counts


def test_lifelong_gate_never_reads_test_labels():
    """The arm gates on a holdout of its training set: shuffled test labels,
    which would fail a 0.5 gate on every three-class task, leave the shipped
    snapshot byte-identical."""
    spec = parse_synthetic_spec(reference_text("thermal5_synthetic.json"))
    spec = replace(spec, tasks=tuple(replace(t, n_samples=200) for t in spec.tasks))
    train, test = split_dataset(gen_synthetic(spec), 0.7, seed=42)
    labels = [s.label for s in test.samples]
    random.Random(1).shuffle(labels)
    shuffled = test.derive(replace(s, label=y) for s, y in zip(test.samples, labels))
    cfg = replace(parse_job_config(reference_text("thermal_job.json"), spec.schema),
                  eval_policy=EvalPolicy(min_accuracy=0.5))
    snapshots = [run_lifelong_bench(train, t, cfg).snapshot for t in (test, shuffled)]
    assert len(snapshots[0].tasks) == 5
    assert serialize_snapshot(snapshots[0]) == serialize_snapshot(snapshots[1])


# -- relative improvement -----------------------------------------------------------------

def test_relative_improvement_arithmetic():
    assert relative_improvement(0.62, 0.50) == pytest.approx(24.0)
    assert relative_improvement(0.5, 0.5) == 0.0
    assert relative_improvement(0.5162, 0.491) == pytest.approx(5.1324, abs=1e-3)


def test_relative_improvement_zero_baseline():
    with pytest.raises(DataError, match="zero baseline"):
        relative_improvement(0.5, 0.0)


# -- accounting ---------------------------------------------------------------------------

def test_overall_accuracy_is_exact_weighted_mean():
    data = gen_synthetic(site_spec(
        [site_task("p", 24.0, 0.1, 200), site_task("q", 30.0, 0.1, 300)], seed=11))
    train, test = split_dataset(data, 0.7, seed=4)
    result = run_bench(train, test, tree_config())
    for mres in result.methods.values():
        total = sum(m.n for m in mres.per_task.values())
        correct = sum(m.correct for m in mres.per_task.values())
        assert mres.overall_accuracy == correct / total


# -- reports ------------------------------------------------------------------------------

def _small_bench_result() -> BenchResult:
    data = gen_synthetic(site_spec(
        [site_task("p", 24.0, 0.05, 150), site_task("q", 30.0, 0.05, 150)], seed=12))
    train, test = split_dataset(data, 0.7, seed=5)
    return run_bench(train, test, tree_config())


def test_emit_report_row_counts(tmp_path):
    result = _small_bench_result()
    files = emit_report(result, tmp_path / "out")
    accuracy_lines = (tmp_path / "out" / "accuracy.csv").read_text().strip().splitlines()
    assert accuracy_lines[0] == "task_key,method,accuracy,n"
    assert len(accuracy_lines) == 1 + 2 * 3  # 2 tasks x 3 methods
    improvement_lines = (tmp_path / "out" / "improvement.csv").read_text().strip().splitlines()
    assert improvement_lines[0] == "task_key,improvement_pct"
    pcts = [float(line.split(",")[1]) for line in improvement_lines[1:]]
    assert pcts == sorted(pcts, reverse=True)
    assert len(files) == 3


def test_emit_report_bit_stable(tmp_path):
    result = _small_bench_result()
    emit_report(result, tmp_path / "a")
    emit_report(result, tmp_path / "b")
    for name in ("accuracy.csv", "improvement.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_summary_round_trip(tmp_path):
    result = _small_bench_result()
    emit_report(result, tmp_path / "out")
    clone = parse_summary(tmp_path / "out" / "summary.json")
    assert clone == result


def test_format_report_text_mentions_methods():
    text = format_report_text(_small_bench_result())
    for method in ("closed", "incremental", "lifelong"):
        assert method in text


# -- constructed advantage property -----------------------------------------------------

def test_constructed_advantage_property():
    """Any spec with >=2 tasks whose rules disagree on >=30% of the feature
    range (noise <= 0.1): lifelong beats closed overall, and per-task on
    every task with >=50 test samples."""
    rng = random.Random(21)
    for trial in range(3):
        # thresholds at least 30% of the range apart -> rules disagree there
        low = rng.uniform(19.0, 22.0)
        high = low + rng.uniform(0.3, 0.55) * 25.0
        tasks = [
            site_task("s1", low, noise=0.1, n=400),
            site_task("s2", high, noise=0.1, n=400),
        ]
        data = gen_synthetic(site_spec(tasks, seed=trial))
        train, test = split_dataset(data, 0.7, seed=trial)
        result = run_bench(train, test, tree_config(seed=trial))
        closed = result.methods["closed"]
        lifelong = result.methods["lifelong"]
        assert lifelong.overall_accuracy > closed.overall_accuracy
        for key, metrics in lifelong.per_task.items():
            if metrics.n >= 50:
                assert metrics.accuracy >= closed.per_task[key].accuracy
