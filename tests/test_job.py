"""Lifelong job: stages, phase machine, update cycles, determinism."""

from __future__ import annotations

import itertools
import json
import random
import shutil
import zlib

import pytest

from edgelearn import bench, data as data_mod, job as job_mod, kb as kb_mod, tasks as tasks_mod
from edgelearn.cli import cli_main
from edgelearn.data import Dataset, field_names, schema_to_json, write_csv
from edgelearn.edge import EdgeRuntime
from edgelearn.errors import (ConfigError, CorruptStoreError, LearnerError,
                             NothingDeployableError, PhaseError, SchemaMismatchError)
from edgelearn.job import (
    EvalPolicy,
    JobConfig,
    LifelongJob,
    Phase,
    TransferPolicy,
    TriggerPolicy,
    holdout_split,
    parse_job_config,
)
from edgelearn.kb import STATUS_DEPLOYABLE, STATUS_EVAL_FAILED, KnowledgeBase, serialize_snapshot
from edgelearn.learners import (
    EstimatorSpec,
    Learner,
    canonical_json_bytes,
    fit,
    predict,
    TreeLearner,
    register_learner,
    serialize_model,
)
from edgelearn.tasks import BucketingConfig, mine_tasks

from conftest import (banded_schema, city_dataset, fresh_routes, make_samples,
                      random_city_dataset, routes)
from test_edge import _count_checks
from test_kb import _watch_writes


def majority_config(**overrides) -> JobConfig:
    defaults = dict(
        learner=EstimatorSpec("majority"),
        eval_policy=EvalPolicy(),
        transfer=TransferPolicy(min_samples=1, cap=100),
        trigger=TriggerPolicy(unseen_threshold=5),
        fallback_enabled=True,
        seed=7,
    )
    defaults.update(overrides)
    return JobConfig(**defaults)


def two_city_data(n_per_city: int = 6) -> Dataset:
    rows = [(float(i), "athens", "a") for i in range(n_per_city)]
    rows += [(float(i), "tokyo", "b") for i in range(n_per_city)]
    return city_dataset(rows)


def new_job(tmp_path, cfg=None, name="kb"):
    cfg = cfg or majority_config()
    kb = KnowledgeBase.open(tmp_path / name)
    return LifelongJob(cfg, kb), kb


# -- run_train ----------------------------------------------------------------

def test_train_two_cities_three_upserts(tmp_path):
    job, kb = new_job(tmp_path)
    records = job.run_train(two_city_data())
    assert len(records) == 2
    assert kb.kb_version == 3  # two task upserts + fallback
    assert kb.fallback is not None
    assert job.phase is Phase.EVALUATING


def test_retrain_same_data_bumps_version_same_bytes(tmp_path):
    job, kb = new_job(tmp_path)
    data = two_city_data()
    job.run_train(data)
    first = {k: serialize_model(r.model) for k, r in kb.records.items()}
    job.run_eval(data)
    job.run_deploy()
    job.run_train(data)
    for key, record in kb.records.items():
        assert record.version == 2
        assert serialize_model(record.model) == first[key]


def test_single_task_fallback_trained_on_same_data(tmp_path):
    job, kb = new_job(tmp_path)
    data = city_dataset([(float(i), "solo", "a") for i in range(5)])
    job.run_train(data)
    record = kb.lookup("solo")
    assert record.model.trained_on == kb.fallback.trained_on
    assert serialize_model(record.model) == serialize_model(kb.fallback)


def test_an_update_on_fewer_rows_keeps_the_bootstrap_fallback(tmp_path):
    job, kb = new_job(tmp_path, majority_config(learner=EstimatorSpec("tree")))
    job.bootstrap(two_city_data(10))
    bootstrapped = kb.fallback
    assert bootstrapped.trained_on.count == 16  # the training half
    job.run_update_cycle(city_dataset([(0.0, "new", "b")]))
    assert "new" in kb.records
    assert kb.fallback is bootstrapped  # not refit on the update's one row
    reopened = KnowledgeBase.open(tmp_path / "kb")
    assert serialize_model(reopened.fallback) == serialize_model(bootstrapped)
    # a batch of as many training rows replaces it
    job.run_update_cycle(city_dataset([(float(i), "new", "ab"[i % 2]) for i in range(20)]))
    assert kb.fallback is not bootstrapped and kb.fallback.trained_on.count == 16


def test_train_fallback_disabled(tmp_path):
    job, kb = new_job(tmp_path, majority_config(fallback_enabled=False))
    job.run_train(two_city_data())
    assert kb.fallback is None
    assert kb.kb_version == 2


def test_train_small_task_augmented_by_transfer(tmp_path):
    schema = banded_schema()
    cfg = majority_config(transfer=TransferPolicy(min_samples=8, cap=100))
    kb = KnowledgeBase.open(tmp_path / "kb")
    job = LifelongJob(cfg, kb)
    rows = [((1.0,), ("p", 5.0), "a")] * 2 + [((2.0,), ("p", 25.0), "b")] * 8
    job.run_train(Dataset(schema, make_samples(rows)))
    key_low = next(k for k in kb.records if k.startswith("p|0"))
    record = kb.lookup(key_low)
    assert record.model.trained_on.count == 10  # 2 own + 8 borrowed
    assert record.samples == 2                  # counts the task's own data


def test_train_wrong_phase_rejected(tmp_path):
    job, _ = new_job(tmp_path)
    job.run_train(two_city_data())
    with pytest.raises(PhaseError, match="Idle or Deployed"):
        job.run_train(two_city_data())


# -- run_eval --------------------------------------------------------------------

def test_eval_gates_by_accuracy(tmp_path):
    job, kb = new_job(tmp_path, majority_config(eval_policy=EvalPolicy(0.8, 1)))
    job.run_train(two_city_data())
    eval_set = city_dataset(
        [(0.0, "athens", "a")] * 9 + [(1.0, "athens", "b")]  # majority(a): 0.9
        + [(0.0, "tokyo", "a")] * 9 + [(1.0, "tokyo", "b")]  # majority(b): 0.1
    )
    report = job.run_eval(eval_set)
    outcomes = {o.key: o for o in report.outcomes}
    assert outcomes["athens"].passed
    assert not outcomes["tokyo"].passed
    assert outcomes["tokyo"].reason == "below-threshold"
    assert kb.lookup("athens").status == STATUS_DEPLOYABLE
    assert kb.lookup("tokyo").status == STATUS_EVAL_FAILED
    assert job.phase is Phase.DEPLOYING


def test_eval_task_without_samples_fails_too_few(tmp_path):
    job, kb = new_job(tmp_path)
    job.run_train(two_city_data())
    report = job.run_eval(city_dataset([(0.0, "athens", "a")] * 3))
    outcomes = {o.key: o for o in report.outcomes}
    assert outcomes["athens"].passed
    tokyo = outcomes["tokyo"]
    assert not tokyo.passed and tokyo.reason == "too-few-samples"
    assert kb.lookup("tokyo").status == STATUS_EVAL_FAILED


def test_eval_vacuous_gate_passes_everything(tmp_path):
    job, kb = new_job(tmp_path, majority_config(eval_policy=EvalPolicy(0.0, 1)))
    job.run_train(two_city_data())
    report = job.run_eval(two_city_data())
    assert all(o.passed for o in report.outcomes)
    assert all(r.status == STATUS_DEPLOYABLE for r in kb.records.values())


def test_eval_min_samples_policy(tmp_path):
    job, kb = new_job(tmp_path, majority_config(eval_policy=EvalPolicy(0.0, 3)))
    job.run_train(two_city_data())
    eval_set = city_dataset([(0.0, "athens", "a")] * 3 + [(0.0, "tokyo", "b")] * 2)
    report = job.run_eval(eval_set)
    outcomes = {o.key: o for o in report.outcomes}
    assert outcomes["athens"].passed
    assert outcomes["tokyo"].reason == "too-few-samples"
    # metrics still reported for the samples that were available
    assert outcomes["tokyo"].metrics.n == 2


def test_eval_fallback_scored_on_whole_set_never_gated(tmp_path):
    job, kb = new_job(tmp_path, majority_config(eval_policy=EvalPolicy(0.99, 1)))
    job.run_train(two_city_data())
    report = job.run_eval(two_city_data())
    assert report.fallback_metrics is not None
    assert report.fallback_metrics.n == 12
    assert kb.fallback is not None  # still present even though every task failed


def test_eval_wrong_phase_rejected(tmp_path):
    job, _ = new_job(tmp_path)
    with pytest.raises(PhaseError):
        job.run_eval(two_city_data())


# -- run_deploy ---------------------------------------------------------------------

def test_deploy_two_of_three_pass(tmp_path):
    job, kb = new_job(tmp_path, majority_config(eval_policy=EvalPolicy(0.8, 1)))
    rows = [(float(i), city, label) for city, label in
            (("athens", "a"), ("tokyo", "b"), ("oslo", "a")) for i in range(6)]
    job.run_train(city_dataset(rows))
    eval_set = city_dataset(
        [(0.0, "athens", "a")] * 9 + [(1.0, "athens", "b")]   # majority(a): 0.9
        + [(0.0, "tokyo", "b")] * 9 + [(1.0, "tokyo", "a")]   # majority(b): 0.9
        + [(0.0, "oslo", "b")] * 9 + [(1.0, "oslo", "a")]     # majority(a): 0.1
    )
    job.run_eval(eval_set)
    snapshot = job.run_deploy()
    assert set(snapshot.tasks) == {"athens", "tokyo"}
    assert snapshot.fallback is not None
    assert job.phase is Phase.DEPLOYED


def test_deploy_all_failed_fallback_only(tmp_path):
    job, _ = new_job(tmp_path, majority_config(eval_policy=EvalPolicy(0.999, 1)))
    job.run_train(two_city_data())
    job.run_eval(city_dataset(
        [(0.0, "athens", "a"), (0.0, "athens", "b"),
         (0.0, "tokyo", "a"), (0.0, "tokyo", "b")]
    ))
    snapshot = job.run_deploy()
    assert snapshot.tasks == {}
    assert snapshot.fallback is not None


def test_deploy_all_failed_no_fallback_errors(tmp_path):
    cfg = majority_config(eval_policy=EvalPolicy(0.999, 1), fallback_enabled=False)
    job, _ = new_job(tmp_path, cfg)
    job.run_train(two_city_data())
    job.run_eval(city_dataset(
        [(0.0, "athens", "a"), (0.0, "athens", "b"),
         (0.0, "tokyo", "a"), (0.0, "tokyo", "b")]
    ))
    with pytest.raises(NothingDeployableError):
        job.run_deploy()
    # the job is not wedged in Deploying: it can train again
    assert job.phase is Phase.DEPLOYING
    job.run_train(two_city_data())
    job.run_eval(two_city_data())
    snapshot = job.run_deploy()
    assert set(snapshot.tasks) == {"athens", "tokyo"}
    assert job.phase is Phase.DEPLOYED


# -- phase machine --------------------------------------------------------------------

def test_job_document_does_not_grow_across_cycles(tmp_path):
    job, _ = new_job(tmp_path)
    index = tmp_path / "kb" / "index.json"
    for city in ("athens", "oslo", "lima", "rome"):
        cycle = job.bootstrap if job.phase is Phase.IDLE else job.run_update_cycle
        cycle(city_dataset([(float(i), city, "a") for i in range(6)]))
        job_doc = json.loads(index.read_text(encoding="utf-8"))["body"]["job"]
        assert job_doc == {"phase": "Deployed"}


def test_illegal_phase_calls_rejected_everywhere(tmp_path):
    data = two_city_data()
    reach = {  # each committed phase, from a fresh job
        Phase.IDLE: lambda job: None,
        Phase.EVALUATING: lambda job: job.run_train(data),
        Phase.DEPLOYING: lambda job: (job.run_train(data), job.run_eval(data)),
        Phase.DEPLOYED: lambda job: job.bootstrap(data),
    }
    calls = {  # each stage: its legal start phases and the phase it ends in
        "bootstrap": ({Phase.IDLE}, Phase.DEPLOYED, lambda job: job.bootstrap(data)),
        "run_train": ({Phase.IDLE, Phase.DEPLOYING, Phase.DEPLOYED}, Phase.EVALUATING,
                      lambda job: job.run_train(data)),
        "run_eval": ({Phase.EVALUATING}, Phase.DEPLOYING, lambda job: job.run_eval(data)),
        "run_deploy": ({Phase.DEPLOYING}, Phase.DEPLOYED, lambda job: job.run_deploy()),
        "run_update_cycle": ({Phase.DEPLOYED}, Phase.DEPLOYED,
                             lambda job: job.run_update_cycle(data)),
    }
    for phase, setup in reach.items():
        for name, (legal, end, call) in calls.items():
            job, kb = new_job(tmp_path, name=f"{phase.value}-{name}")
            setup(job)
            assert job.phase is phase
            if phase in legal:
                call(job)
                assert job.phase is end, (phase, name)
                continue
            fingerprint = kb.fingerprint()
            with pytest.raises(PhaseError, match=f"current is {phase.value}"):
                call(job)
            assert kb.fingerprint() == fingerprint, (phase, name)
            assert job.phase is phase


# -- update cycle ----------------------------------------------------------------------

def test_update_cycle_learns_unknown_task(tmp_path):
    job, kb = new_job(tmp_path)
    athens = city_dataset([(float(i), "athens", "a") for i in range(10)])
    job.bootstrap(athens)
    assert set(kb.records) == {"athens"}

    tokyo = city_dataset([(float(i), "tokyo", "b") for i in range(10)])
    snapshot = job.run_update_cycle(tokyo)
    assert set(kb.records) == {"athens", "tokyo"}
    assert "tokyo" in snapshot.tasks  # unknown task is known in the next snapshot


def test_update_cycle_isolation_of_untouched_tasks(tmp_path):
    job, kb = new_job(tmp_path)
    job.bootstrap(two_city_data(10))
    tokyo_before = kb.lookup("tokyo")

    athens_new = city_dataset([(float(i), "athens", "b") for i in range(10)])
    job.run_update_cycle(athens_new)
    assert kb.lookup("athens").version == 2
    assert kb.lookup("tokyo") == tokyo_before


def test_an_update_that_only_retrains_known_tasks_reaches_an_edge_as_new_models_only(
        tmp_path, monkeypatch):
    rng = random.Random(36)
    job = LifelongJob(majority_config(learner=EstimatorSpec("tree")),
                      KnowledgeBase.open(tmp_path / "kb"))
    first = job.bootstrap(_banded_batch(rng))
    schema = banded_schema((10.0, 20.0, 30.0))
    runtime = EdgeRuntime(schema, BucketingConfig.from_schema(schema))
    assert runtime.apply_snapshot(first) == "applied"
    second = job.run_update_cycle(_banded_batch(rng))  # the same four tasks, new rows
    assert second.tasks.keys() == first.tasks.keys() and len(first.tasks) == 4
    retrained = [key for key in first.tasks if second.tasks[key].model is not first.tasks[key].model]
    assert retrained  # at least one model is new
    for key, entry in second.tasks.items():
        assert entry.attributes is first.tasks[key].attributes
        assert job.kb.lookup(key).attributes is entry.attributes

    checked, categorized = _count_checks(monkeypatch)
    assert runtime.apply_snapshot(second) == "applied"
    assert categorized == []  # no key is re-indexed
    assert [id(model) for model in checked] == (
        [id(second.tasks[key].model) for key in retrained] + [id(second.fallback)])
    assert routes(runtime) == fresh_routes(runtime)

def test_update_cycle_knowledge_growth_every_key(tmp_path, rng):
    job, kb = new_job(tmp_path)
    job.bootstrap(city_dataset([(0.0, "seed", "a"), (1.0, "seed", "b")] * 3))
    cities = ["c%d" % i for i in range(6)]
    rows = []
    for city in cities:
        for _ in range(rng.randint(1, 4)):  # including single-sample tasks
            rows.append((rng.random(), city, rng.choice("ab")))
    job.run_update_cycle(city_dataset(rows))
    for city in cities:
        assert kb.lookup(city) is not None


def test_two_identical_update_cycles_identical_predictions(tmp_path):
    probe = [(float(i),) for i in range(12)]
    snaps = []
    for name in ("kb1", "kb2"):
        job, _ = new_job(tmp_path, name=name)
        data = two_city_data(10)
        job.bootstrap(data)
        update = city_dataset(
            [(float(i) + 0.5, "athens", "b") for i in range(10)]
            + [(float(i) + 0.5, "oslo", "a") for i in range(10)]
        )
        snap = job.run_update_cycle(update)
        snaps.append(snap)
    a, b = snaps
    assert set(a.tasks) == set(b.tasks)
    for key in a.tasks:
        for x in probe:
            assert predict(a.tasks[key].model, x) == predict(b.tasks[key].model, x)
    for x in probe:
        assert predict(a.fallback, x) == predict(b.fallback, x)


def test_end_to_end_determinism_byte_identical_snapshots(tmp_path):
    from edgelearn.kb import serialize_snapshot

    outs = []
    for name in ("kbA", "kbB"):
        job, _ = new_job(tmp_path, name=name)
        data = two_city_data(10)
        job.run_train(data)
        job.run_eval(data)
        outs.append(serialize_snapshot(job.run_deploy()))
    assert outs[0] == outs[1]


def test_gate_soundness_no_failed_model_in_snapshot(tmp_path):
    job, kb = new_job(tmp_path, majority_config(eval_policy=EvalPolicy(0.8, 1)))
    job.run_train(two_city_data())
    eval_set = city_dataset(
        [(0.0, "athens", "a")] * 9 + [(1.0, "athens", "b")]
        + [(0.0, "tokyo", "a")] * 9 + [(1.0, "tokyo", "b")]
    )
    job.run_eval(eval_set)
    snapshot = job.run_deploy()
    failed = {k for k, r in kb.records.items() if r.status == STATUS_EVAL_FAILED}
    assert failed and not (failed & set(snapshot.tasks))


# -- one commit per stage; a stage that raises changes nothing ----------------------------

def _noisy_cities() -> Dataset:
    rows = [(float(i), city, "ab"[i % 2]) for city in ("athens", "tokyo") for i in range(20)]
    return city_dataset(rows)


def test_failed_bootstrap_leaves_job_idle_and_kb_empty(tmp_path):
    cfg = majority_config(eval_policy=EvalPolicy(1.0, 1), fallback_enabled=False)
    job, kb = new_job(tmp_path, cfg)
    with pytest.raises(NothingDeployableError):
        job.bootstrap(_noisy_cities())
    for store in (kb, KnowledgeBase.open(tmp_path / "kb")):
        assert LifelongJob(cfg, store).phase is Phase.IDLE
        assert store.kb_version == 0
        assert store.records == {}
    snapshot = job.bootstrap(two_city_data(10))
    assert set(snapshot.tasks) == {"athens", "tokyo"}
    assert job.phase is Phase.DEPLOYED


def test_a_str_subclass_city_is_refused_at_the_store_gate_naming_its_task(tmp_path):
    # a sample may hold a str subclass; transfer scores it as the string it equals, and
    # the store gate, which takes only a str of a task's values, refuses the task
    tag = type("Tag", (str,), {})
    rows = [(float(i), "athens", "ab"[i % 2]) for i in range(5)]
    rows += [(float(i), tag("tokyo"), "ab"[i % 2]) for i in range(5)]
    cfg = majority_config(transfer=TransferPolicy(min_samples=30, cap=100))
    job, kb = new_job(tmp_path, cfg)
    with pytest.raises(SchemaMismatchError, match="^task 'tokyo' has values"):
        job.bootstrap(city_dataset(rows))
    for store in (kb, KnowledgeBase.open(tmp_path / "kb")):
        assert LifelongJob(cfg, store).phase is Phase.IDLE
        assert store.kb_version == 0
        assert store.records == {}


class _FailsOnLabelB(Learner):
    """Test-only plugin: raises while fitting any task that has a "b" label."""

    kind = "fails-on-b"
    hyperparameter_defaults: dict = {}

    def fit(self, spec, train, seed):
        if any(s.label == "b" for s in train.samples):
            raise LearnerError("injected fit failure")
        return {"label": train.samples[0].label}

    def predictor(self, params):
        label = params["label"]
        return lambda features: label


def test_learner_error_mid_train_leaves_phase_and_kb_unchanged(tmp_path):
    job, kb = new_job(tmp_path)
    job.bootstrap(two_city_data(10))
    phase, fingerprint = job.phase, kb.fingerprint()

    register_learner(_FailsOnLabelB())
    failing = LifelongJob(majority_config(learner=EstimatorSpec("fails-on-b")), kb)
    # athens ("a") fits and is upserted before tokyo ("b") raises
    with pytest.raises(LearnerError, match="injected"):
        failing.run_train(two_city_data(10))
    with pytest.raises(LearnerError, match="injected"):
        failing.run_update_cycle(two_city_data(10))
    for store in (kb, KnowledgeBase.open(tmp_path / "kb")):
        assert LifelongJob(majority_config(), store).phase == phase
        assert store.fingerprint() == fingerprint

    snapshot = job.run_update_cycle(city_dataset([(float(i), "oslo", "a") for i in range(10)]))
    assert "oslo" in snapshot.tasks
    assert job.phase is Phase.DEPLOYED


def _crash_at_every_step(tmp_path, crash_points, commit) -> list[str]:
    """Run *commit* on a job over a copy of the store in ``tmp_path / "base"``
    once cleanly, then once per durability step of it, crashing at that step.
    Each crash must leave the old or the new ``index.json``, byte for byte,
    the crashed handle must hold what a reopen holds, and a retry from the
    old store must reach the new one. Returns each crash's outcome, "old" or
    "new", in step order."""
    def job_on_a_copy(name):
        shutil.copytree(tmp_path / "base", tmp_path / name)
        return LifelongJob(majority_config(), KnowledgeBase.open(tmp_path / name))

    def manifest(name):
        index = tmp_path / name / "index.json"
        return index.read_bytes() if index.exists() else None

    commit(job_on_a_copy("clean"))
    states = {manifest("base"): "old", manifest("clean"): "new"}
    assert len(states) == 2
    outcomes = []
    for k in itertools.count(1):
        crashed_job = job_on_a_copy(f"k{k}")
        crash_points.arm(k)
        try:
            commit(crashed_job)
        except OSError:
            crashed = True
        else:
            crashed = False
        crash_points.arm(None)
        store = KnowledgeBase.open(tmp_path / f"k{k}")
        # the crashed handle holds what its store holds
        assert crashed_job.kb.fingerprint() == store.fingerprint(), k
        assert crashed_job.kb.kb_version == store.kb_version, k
        assert crashed_job.phase == LifelongJob(majority_config(), store).phase, k
        outcome = states[manifest(f"k{k}")]
        if not crashed:
            assert outcome == "new"
            return outcomes
        outcomes.append(outcome)
        if outcome == "old":
            # a retry overwrites whatever the crashed attempt left behind
            commit(LifelongJob(majority_config(), store))
            assert manifest(f"k{k}") == manifest("clean"), k


def test_a_crash_at_any_step_of_an_update_cycle_leaves_the_old_or_the_new_store(
    tmp_path, crash_points
):
    base, _ = new_job(tmp_path, name="base")
    base.bootstrap(two_city_data(10))
    assert base.phase is Phase.DEPLOYED
    # retrain one task, learn a new one and refit the fallback
    update = city_dataset([(float(i), city, "b") for i in range(10) for city in ("athens", "oslo")])
    outcomes = _crash_at_every_step(tmp_path, crash_points,
                                    lambda job: job.run_update_cycle(update))
    # the manifest's temp write, fsync, rename and directory fsync: the
    # rename commits, and the handle keeps what a failed directory fsync follows
    assert outcomes == ["old", "old", "old", "new"]


def _set_fallback(job):
    job.kb.set_fallback(fit(EstimatorSpec("majority"), city_dataset([(0.0, "oslo", "b")]), 0))


COMMITS = {  # a commit, and what the store it starts from has run
    "bootstrap": ((), lambda job: job.bootstrap(two_city_data(10))),
    "run_train": ((), lambda job: job.run_train(two_city_data(10))),
    "run_eval": (("run_train",), lambda job: job.run_eval(two_city_data(10))),
    "run_deploy": (("run_train", "run_eval"), lambda job: job.run_deploy()),
    "set_fallback": (("bootstrap",), _set_fallback),
}


@pytest.mark.parametrize("name", COMMITS)
def test_a_crash_at_any_step_of_any_commit_leaves_the_old_or_the_new_store(
    tmp_path, crash_points, name
):
    before, commit = COMMITS[name]
    base, _ = new_job(tmp_path, name="base")
    for step in before:
        COMMITS[step][1](base)
    assert _crash_at_every_step(tmp_path, crash_points, commit) == ["old", "old", "old", "new"]


def test_each_stage_and_cycle_replaces_the_manifest_once(tmp_path, monkeypatch):
    job, _ = new_job(tmp_path)
    replaced, _ = _watch_writes(monkeypatch)
    data = two_city_data(10)
    for stage, args in (
        (job.run_train, (data,)),
        (job.run_eval, (data,)),
        (job.run_deploy, ()),
        (job.run_update_cycle, (data,)),
    ):
        replaced.clear()
        stage(*args)
        assert replaced.count("index.json") == 1, stage.__name__

    other, _ = new_job(tmp_path, name="kb2")
    replaced.clear()
    other.bootstrap(data)
    assert replaced.count("index.json") == 1


def test_manifest_without_job_document_opens_idle(tmp_path):
    job, kb = new_job(tmp_path)
    job.bootstrap(two_city_data(10))
    index = tmp_path / "kb" / "index.json"
    manifest = json.loads(index.read_text(encoding="utf-8"))
    del manifest["body"]["job"]
    manifest["crc32"] = zlib.crc32(canonical_json_bytes(manifest["body"]))
    index.write_bytes(canonical_json_bytes(manifest))

    reopened = KnowledgeBase.open(tmp_path / "kb")
    assert reopened.fingerprint() == kb.fingerprint()
    job = LifelongJob(majority_config(), reopened)
    assert job.phase is Phase.IDLE
    job.run_train(two_city_data(10))
    assert job.phase is Phase.EVALUATING


def test_manifest_whose_job_document_carries_a_history_opens_unchanged(tmp_path):
    job, kb = new_job(tmp_path)
    job.bootstrap(two_city_data(10))
    index = tmp_path / "kb" / "index.json"
    manifest = json.loads(index.read_text(encoding="utf-8"))
    manifest["body"]["job"]["history"] = [
        ["Idle", "Training", 0.0], ["Training", "Evaluating", 0.0],
        ["Evaluating", "Deploying", 0.0], ["Deploying", "Deployed", 0.0],
    ]
    manifest["crc32"] = zlib.crc32(canonical_json_bytes(manifest["body"]))
    index.write_bytes(canonical_json_bytes(manifest))

    reopened = KnowledgeBase.open(tmp_path / "kb")
    assert reopened.fingerprint() == kb.fingerprint()
    job = LifelongJob(majority_config(), reopened)
    assert job.phase is Phase.DEPLOYED
    job.run_update_cycle(two_city_data(10))
    assert job.phase is Phase.DEPLOYED


# -- holdout split -----------------------------------------------------------------------

def test_holdout_split_keeps_every_key_in_train(rng):
    rows = []
    for city in ("a1", "b2", "c3", "d4"):
        for _ in range(rng.randint(1, 9)):
            rows.append((rng.random(), city, rng.choice("ab")))
    ds = city_dataset(rows)
    bucketing = BucketingConfig((None,))
    train, evals = holdout_split(mine_tasks(ds, bucketing), seed=3)
    train_keys = set(mine_tasks(train.dataset, bucketing).parts)
    assert train_keys == {"a1", "b2", "c3", "d4"}
    assert len(train.dataset) + len(evals.dataset) == len(ds)


def test_holdout_split_deterministic():
    ds = two_city_data(10)
    bucketing = BucketingConfig((None,))
    assert holdout_split(mine_tasks(ds, bucketing), 5) == holdout_split(
        mine_tasks(ds, bucketing), 5)


def test_holdout_halves_are_the_partitions_re_mining_gives(rng):
    schema = banded_schema()
    bucketing = BucketingConfig.from_schema(schema)
    empty_evals = 0
    for case in range(300):
        rows = []
        for _task in range(rng.randint(1, 4)):
            attrs = (rng.choice(["a|b", "c", "d\\"]), rng.uniform(10.0, 40.0))
            for _ in range(rng.randint(1, rng.choice([2, 30]))):
                rows.append(((rng.random(),), attrs, rng.choice("ab")))
        rng.shuffle(rows)
        ds = Dataset(schema, make_samples(rows))
        partition = mine_tasks(ds, bucketing)
        train, evals = holdout_split(partition, case)
        assert train == mine_tasks(train.dataset, bucketing)
        assert set(train.parts) == set(partition.parts)
        if len(evals.dataset) == 0:
            empty_evals += 1
            assert evals.parts == {} and evals.attributes == {}
        else:
            assert evals == mine_tasks(evals.dataset, bucketing)
        for half in (train, evals):
            key_ordered = [s for key in half.keys for s in half.parts[key].samples]
            assert list(half.dataset.samples) == key_ordered
        assert sorted(train.dataset.samples + evals.dataset.samples, key=repr) == sorted(
            ds.samples, key=repr)
    assert 0 < empty_evals < 300


def test_stages_reject_a_partition_mined_under_another_bucketing(tmp_path):
    job, kb = new_job(tmp_path)
    ds = Dataset(banded_schema(), make_samples(
        [((float(i),), ("athens", 10.0 * i), "ab"[i % 2]) for i in range(6)]))
    other = mine_tasks(ds, BucketingConfig((None, (25.0,))))
    before = job.phase, kb.fingerprint()
    with pytest.raises(SchemaMismatchError, match="another bucketing"):
        job.run_train(other)
    assert (job.phase, kb.fingerprint()) == before

    job.run_train(mine_tasks(ds, BucketingConfig.from_schema(ds.schema)))
    before = job.phase, kb.fingerprint()
    with pytest.raises(SchemaMismatchError, match="another bucketing"):
        job.run_eval(other)
    assert (job.phase, kb.fingerprint()) == before
    job.run_eval(ds)
    assert job.phase is Phase.DEPLOYING


def test_each_dataset_is_mined_once(tmp_path, monkeypatch, rng):
    calls = []
    real = tasks_mod.mine_tasks

    def counting(dataset, bucketing):
        calls.append(len(dataset))
        return real(dataset, bucketing)

    # the job and the bench mine through tasks.as_tasks
    monkeypatch.setattr(tasks_mod, "mine_tasks", counting)
    job, _ = new_job(tmp_path)
    data = random_city_dataset(rng, 60, ["athens", "tokyo", "oslo"])
    job.bootstrap(data)
    assert calls == [60]
    calls.clear()
    job.run_update_cycle(data)
    assert calls == [60]
    calls.clear()
    test = random_city_dataset(rng, 30, ["athens", "tokyo", "lima"])
    bench.run_bench(data, test, majority_config(), tmp_path / "bench")
    assert sorted(calls) == [30, 60]


# -- one fit per distinct training set -----------------------------------------------------

def _banded_batch(rng, rows_per_band=(10, 10, 10, 10)) -> Dataset:
    """Four tasks of one site, a band each: every pair is similar, so a task
    below ``min_samples`` borrows from the others, nearest band first."""
    rows = [((rng.uniform(0, 10),), ("p", band), rng.choice("ab"))
            for band, n in zip((5.0, 15.0, 25.0, 35.0), rows_per_band) for _ in range(n)]
    return Dataset(banded_schema((10.0, 20.0, 30.0)), make_samples(rows))


def _counted_cycle(tmp_path, monkeypatch, name, learner, rows_per_band=(10, 10, 10, 10)):
    """Bootstrap a store, then run one update cycle (min_samples 30) on a
    batch of *rows_per_band*; returns the training-set sizes of the update
    cycle's fits, the store and the snapshot bytes."""
    rng = random.Random(35)
    cfg = majority_config(learner=learner, transfer=TransferPolicy(min_samples=30, cap=1000))
    job = LifelongJob(cfg, KnowledgeBase.open(tmp_path / name))
    job.bootstrap(_banded_batch(rng))
    fits = []
    monkeypatch.setattr(job_mod, "fit", lambda spec, train, seed: fits.append(len(train))
                        or fit(spec, train, seed))
    snapshot = job.run_update_cycle(_banded_batch(rng, rows_per_band))
    monkeypatch.setattr(job_mod, "fit", fit)
    return fits, job.kb, serialize_snapshot(snapshot)


@pytest.mark.parametrize("rows_per_band, fits", [
    # 8 training rows a band: each task borrows the three others, as the fallback
    ((10, 10, 10, 10), [32]),
    # band 2 has 32 and lends to all: bands 0 and 1 borrow {1 or 0, 2}, band 3 {2}
    ((10, 10, 40, 10), [48, 32, 40, 56]),
    # bands 1 and 3 need none: 0 and 2 borrow band 1, so no two fits share a row set
    ((10, 40, 10, 40), [40, 32, 40, 32, 80]),
])
def test_an_update_cycle_fits_each_distinct_training_set_once(tmp_path, monkeypatch,
                                                              rows_per_band, fits):
    memo = _counted_cycle(tmp_path, monkeypatch, "memo", EstimatorSpec("tree"), rows_per_band)
    assert memo[0] == fits
    models = [record.model for record in memo[1].records.values()] + [memo[1].fallback]
    assert len({id(model) for model in models}) == len(fits)  # one object per fit

    monkeypatch.setattr(TreeLearner, "order_invariant", False)  # fit per task
    per_task = _counted_cycle(tmp_path, monkeypatch, "per-task", EstimatorSpec("tree"),
                              rows_per_band)
    assert len(per_task[0]) == 5 and set(per_task[0]) == set(fits)
    assert per_task[1].fingerprint() == memo[1].fingerprint()
    assert (tmp_path / "per-task" / "index.json").read_bytes() == (
        tmp_path / "memo" / "index.json").read_bytes()
    assert per_task[2] == memo[2]


def test_a_learner_not_declaring_order_invariance_fits_once_per_task(tmp_path, monkeypatch):
    fits, kb, _ = _counted_cycle(tmp_path, monkeypatch, "kb",
                                 EstimatorSpec("logistic", {"epochs": 3}))
    assert fits == [32] * 5
    assert len({id(record.model) for record in kb.records.values()} | {id(kb.fallback)}) == 5


def test_a_job_stage_checks_no_bucket_edges_the_store_opens_with_them_checked(
        tmp_path, monkeypatch):
    data = _banded_batch(random.Random(3))  # its schema checked its edges
    calls = []
    real = kb_mod.bucket_edges
    monkeypatch.setattr(kb_mod, "bucket_edges", lambda *a: calls.append(a) or real(*a))
    monkeypatch.setattr(data_mod, "bucket_edges", kb_mod.bucket_edges)
    job, kb = new_job(tmp_path)
    job.bootstrap(data)
    job.run_update_cycle(data)
    assert calls == []
    assert KnowledgeBase.open(tmp_path / "kb").shape == kb.shape
    assert calls == [([10.0, 20.0, 30.0],)]  # the manifest's, where they enter


# -- pluggable learner through the full pipeline --------------------------------------------

class _FirstLabelLearner(Learner):
    """Test-only plugin: predicts the first label it saw during fit."""

    kind = "first-label"
    hyperparameter_defaults: dict = {}

    def fit(self, spec, train, seed):
        return {"label": train.samples[0].label}

    def predictor(self, params):
        label = params["label"]
        if label not in params["classes"]:
            raise LearnerError(f"label {label!r} is not one of the classes")
        return lambda features: label


def _first_label_job(tmp_path) -> LifelongJob:
    register_learner(_FirstLabelLearner())
    _, kb = new_job(tmp_path)
    return LifelongJob(majority_config(learner=EstimatorSpec("first-label")), kb)


def test_plugin_learner_runs_full_pipeline(tmp_path):
    job = _first_label_job(tmp_path)
    data = two_city_data(8)
    snapshot = job.bootstrap(data)
    assert set(snapshot.tasks) == {"athens", "tokyo"}
    assert predict(snapshot.tasks["athens"].model, (0.0,)) == "a"
    assert predict(snapshot.tasks["tokyo"].model, (0.0,)) == "b"
    # update cycle, serialization, and the KB all work with the plugin
    snapshot2 = job.run_update_cycle(city_dataset([(9.0, "oslo", "a")] * 6))
    assert "oslo" in snapshot2.tasks
    reopened = KnowledgeBase.open(tmp_path / "kb")
    assert predict(reopened.lookup("oslo").model, (1.0,)) == "a"


def test_a_store_holding_a_plugin_model_its_predictor_refuses_fails_to_open(tmp_path):
    _first_label_job(tmp_path).bootstrap(two_city_data(8))
    index = tmp_path / "kb" / "index.json"
    manifest = json.loads(index.read_text(encoding="utf-8"))
    entry = next(entry for entry in manifest["body"]["tasks"] if entry["key"] == "athens")
    entry["model"]["parameters"]["label"] = "z"
    manifest["crc32"] = zlib.crc32(canonical_json_bytes(manifest["body"]))
    index.write_bytes(canonical_json_bytes(manifest))
    with pytest.raises(CorruptStoreError) as raised:
        KnowledgeBase.open(tmp_path / "kb")
    assert str(index) in str(raised.value)
    assert "task 'athens': corrupt model payload: label 'z' is not one of the classes" in str(
        raised.value)


def test_edge_infer_refuses_a_snapshot_holding_a_plugin_model_its_predictor_refuses(
        tmp_path, capsys):
    data = two_city_data(8)
    doc = json.loads(serialize_snapshot(_first_label_job(tmp_path).bootstrap(data)))
    doc["tasks"]["athens"]["model"]["parameters"]["label"] = "z"
    snap, schema, csv, out = (tmp_path / name for name in
                              ("snap.json", "schema.json", "data.csv", "preds.csv"))
    snap.write_bytes(canonical_json_bytes(doc))
    schema.write_text(schema_to_json(data.schema), encoding="utf-8")
    write_csv(data, csv)
    assert cli_main(["edge", "infer", "--snapshot", str(snap), "--schema", str(schema),
                     "--data", str(csv), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert (f"snapshot file {snap}: corrupt model payload: label 'z' is not one of the "
            f"classes") in err
    assert "Traceback" not in err and not out.exists()


# -- config parsing ---------------------------------------------------------------------

def test_parse_job_config_reference_fields():
    schema = banded_schema((15.0, 25.0, 35.0))
    text = """
    {"learner": {"kind": "tree", "hyperparameters": {"max_depth": 2}},
     "eval_policy": {"min_accuracy": 0.5, "min_eval_samples": 2},
     "transfer": {"min_samples": 5, "cap": 50},
     "trigger": {"unseen_threshold": 3},
     "fallback_enabled": false,
     "seed": 11}
    """
    cfg = parse_job_config(text, schema)
    assert cfg.learner.kind == "tree"
    assert "bucketing" not in field_names(JobConfig)  # a stage buckets under its data's schema
    assert cfg.eval_policy == EvalPolicy(0.5, 2)
    assert cfg.transfer == TransferPolicy(5, 50)
    assert cfg.trigger.unseen_threshold == 3
    assert not cfg.fallback_enabled
    assert cfg.seed == 11


def test_parse_job_config_defaults_bucketing_from_schema(tmp_path):
    schema = banded_schema((20.0, 30.0))
    cfg = parse_job_config('{"learner": {"kind": "majority"}}', schema)
    job, kb = new_job(tmp_path, cfg)
    job.run_train(Dataset(schema, make_samples(
        [((0.0,), ("p", band), "a") for band in (10.0, 25.0, 35.0)])))
    assert sorted(kb.records) == ["p|0", "p|1", "p|2"]  # the schema's edges


def test_parse_job_config_refuses_a_bucketing_key():
    # the schema owns the bucket edges: a job config cannot set them, not even to the schema's
    text = json.dumps({"learner": {"kind": "majority"}, "bucketing": {"band": [20.0, 30.0]}})
    with pytest.raises(ConfigError, match="job config: unknown key 'bucketing'"):
        parse_job_config(text, banded_schema((20.0, 30.0)))
