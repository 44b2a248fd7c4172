"""CLI surface: subcommands, exit codes, file outputs."""

from __future__ import annotations

import json
import zlib

import pytest

from edgelearn.cli import cli_main
from edgelearn.data import load_csv, parse_schema, write_csv
from edgelearn.kb import kb_open
from edgelearn.learners import canonical_json_bytes
from edgelearn.tasks import values_key
from edgelearn.reference import reference_text

from conftest import city_dataset
from test_kb import _set_at, _watch_replaces


SCHEMA_TEXT = """
{"features": ["x"],
 "label": {"name": "y", "classes": ["a", "b"]},
 "attributes": [{"name": "city", "kind": "categorical"}]}
"""

JOB_TEXT = """
{"learner": {"kind": "majority"},
 "transfer": {"min_samples": 1, "cap": 100},
 "trigger": {"unseen_threshold": 5},
 "seed": 3}
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "schema.json").write_text(SCHEMA_TEXT, encoding="utf-8")
    (tmp_path / "job.json").write_text(JOB_TEXT, encoding="utf-8")
    data = city_dataset(
        [(float(i), "athens", "a") for i in range(8)]
        + [(float(i), "tokyo", "b") for i in range(8)]
    )
    write_csv(data, tmp_path / "train.csv")
    write_csv(data, tmp_path / "test.csv")
    return tmp_path


def test_unknown_subcommand_exits_1(capsys):
    assert cli_main(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_no_command_prints_help_exits_1(capsys):
    assert cli_main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert cli_main(["--help"]) == 0
    assert "usage" in capsys.readouterr().out


def test_missing_required_flag_exits_1(capsys):
    assert cli_main(["kb", "init"]) == 1
    assert "--kb" in capsys.readouterr().err


def test_kb_init_and_show_fresh(workdir, capsys):
    kb_dir = str(workdir / "kb")
    assert cli_main(["kb", "init", "--kb", kb_dir]) == 0
    assert cli_main(["kb", "show", "--kb", kb_dir]) == 0
    out = capsys.readouterr().out
    assert "version 0" in out
    assert "0 tasks" in out


def test_kb_show_json(workdir, capsys):
    kb_dir = str(workdir / "kb")
    assert cli_main(["kb", "init", "--kb", kb_dir]) == 0
    capsys.readouterr()
    assert cli_main(["kb", "show", "--kb", kb_dir, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kb_version"] == 0
    assert doc["tasks"] == []


def test_job_stage_cycle(workdir, capsys):
    kb_dir = str(workdir / "kb")
    base = [
        "--kb", kb_dir,
        "--schema", str(workdir / "schema.json"),
        "--config", str(workdir / "job.json"),
    ]
    assert cli_main(["job", "train", *base, "--data", str(workdir / "train.csv")]) == 0
    assert cli_main(["job", "eval", *base, "--data", str(workdir / "test.csv")]) == 0
    snap_path = workdir / "snap.json"
    assert cli_main(["job", "deploy", *base, "--out", str(snap_path)]) == 0
    assert snap_path.exists()
    out = capsys.readouterr().out
    assert "2 tasks" in out

    # phase persisted: a second deploy from Deployed is a phase error -> exit 2
    assert cli_main(["job", "deploy", *base, "--out", str(snap_path)]) == 2

    update_csv = workdir / "update.csv"
    write_csv(
        city_dataset([(float(i), "oslo", "a") for i in range(10)]),
        update_csv,
    )
    assert cli_main(["job", "update", *base, "--data", str(update_csv),
                     "--out", str(snap_path)]) == 0


def test_wrong_phase_is_runtime_error(workdir):
    kb_dir = str(workdir / "kb")
    base = [
        "--kb", kb_dir,
        "--schema", str(workdir / "schema.json"),
        "--config", str(workdir / "job.json"),
    ]
    assert cli_main(["job", "eval", *base, "--data", str(workdir / "test.csv")]) == 2


def _case_id(case) -> str:
    return case if isinstance(case, str) else f"{case[0]}={case[1]!r}"


@pytest.mark.parametrize("corrupt", [
    "missing-key", "unknown-phase", "truncated-index", "job-not-an-object",
    # no commit stores the training phase: run_train commits Evaluating
    ("phase", "Training"),
], ids=_case_id)
def test_corrupt_job_state_is_store_error_exit_2(workdir, capsys, corrupt):
    kb_dir = workdir / "kb"
    base = [
        "--kb", str(kb_dir),
        "--schema", str(workdir / "schema.json"),
        "--config", str(workdir / "job.json"),
    ]
    assert cli_main(["job", "train", *base, "--data", str(workdir / "train.csv")]) == 0
    index = kb_dir / "index.json"
    raw = index.read_bytes()
    if corrupt == "truncated-index":
        index.write_bytes(raw[: len(raw) // 2])
    else:
        manifest = json.loads(raw)
        body = manifest["body"]
        if corrupt == "missing-key":
            del body["job"]["phase"]
        elif corrupt == "job-not-an-object":
            body["job"] = 5
        elif corrupt == "unknown-phase":
            body["job"]["phase"] = "Frozen"
        else:
            name, value = corrupt
            body["job"][name] = value
        manifest["crc32"] = zlib.crc32(canonical_json_bytes(body))  # a valid checksum
        index.write_bytes(canonical_json_bytes(manifest))
    raw = index.read_bytes()
    capsys.readouterr()
    assert cli_main(["job", "eval", *base, "--data", str(workdir / "test.csv")]) == 2
    err = capsys.readouterr().err
    assert "corrupt" in err and "index.json" in err and "Traceback" not in err
    assert cli_main(["job", "train", *base, "--data", str(workdir / "train.csv")]) == 2
    assert cli_main(["kb", "show", "--kb", str(kb_dir)]) == 2
    assert index.read_bytes() == raw


@pytest.mark.parametrize("snapshot_version", [7, "x"])
def test_a_job_document_of_an_older_store_opens_and_drops_its_snapshot_version(
        workdir, capsys, snapshot_version):
    kb_dir = workdir / "kb"
    base = ["--kb", str(kb_dir), "--schema", str(workdir / "schema.json"),
            "--config", str(workdir / "job.json")]
    assert cli_main(["job", "train", *base, "--data", str(workdir / "train.csv")]) == 0
    assert cli_main(["job", "eval", *base, "--data", str(workdir / "test.csv")]) == 0
    assert cli_main(["job", "deploy", *base, "--out", str(workdir / "snap.json")]) == 0
    index = kb_dir / "index.json"
    manifest = json.loads(index.read_bytes())
    body = manifest["body"]
    assert body["job"] == {"phase": "Deployed"}
    body["job"]["snapshot_version"] = snapshot_version  # as written before it was dropped
    manifest["crc32"] = zlib.crc32(canonical_json_bytes(body))
    index.write_bytes(canonical_json_bytes(manifest))
    capsys.readouterr()
    assert cli_main(["kb", "show", "--kb", str(kb_dir)]) == 0
    assert "job phase Deployed" in capsys.readouterr().out
    assert cli_main(["job", "train", *base, "--data", str(workdir / "train.csv")]) == 0
    assert json.loads(index.read_bytes())["body"]["job"] == {"phase": "Evaluating"}


@pytest.mark.parametrize("corrupt", [
    "no-tasks", "task-without-model-file", "tasks-not-a-list",
    ("kb_version", "7"), ("kb_version", -1), ("kb_version", 1.0), ("kb_version", True),
    ("version", 1.5), ("version", 0), ("version", "1"), ("version", True),
    ("stats.count", "x"), ("stats.count", 0), ("stats.count", 1.5), ("stats.count", True),
    ("status", "bogus"), ("eval.n", 0), ("key", 5),
    # attributes an edge would refuse, and a key its values do not give
    ("values", [5]), ("values", [True]), ("bucket_counts", [2]), ("key", "oslo"),
], ids=_case_id)
def test_malformed_manifest_body_is_store_error_exit_2(workdir, capsys, corrupt):
    kb_dir = workdir / "kb"
    assert cli_main(["job", "train", "--kb", str(kb_dir), "--schema", str(workdir / "schema.json"),
                     "--config", str(workdir / "job.json"),
                     "--data", str(workdir / "train.csv")]) == 0
    index = kb_dir / "index.json"
    manifest = json.loads(index.read_bytes())
    body = manifest["body"]
    if corrupt == "no-tasks":
        del body["tasks"]
    elif corrupt == "task-without-model-file":
        del body["tasks"][0]["model_file"]
    elif corrupt == "tasks-not-a-list":
        body["tasks"] = 5
    elif corrupt[0] == "kb_version":
        body["kb_version"] = corrupt[1]
    elif corrupt[0] == "stats.count":
        body["tasks"][0]["stats"]["count"] = corrupt[1]
    elif corrupt[0] in ("values", "bucket_counts"):  # of tokyo, the second record
        body["tasks"][1]["attributes"][corrupt[0]] = corrupt[1]
        if corrupt[0] == "values":  # under the key they give, so only their kind is wrong
            body["tasks"][1]["key"] = values_key(corrupt[1])
    elif corrupt[0] == "eval.n":  # an eval of n samples, fit to pass every other check
        body["tasks"][0]["eval"] = {"accuracy": 0.0, "classes": ["a", "b"],
                                    "counts": [[0, 0], [0, 0]], "n": corrupt[1]}
    else:  # a task record's field
        body["tasks"][0][corrupt[0]] = corrupt[1]
    manifest["crc32"] = zlib.crc32(canonical_json_bytes(body))  # a valid checksum
    index.write_bytes(canonical_json_bytes(manifest))
    raw = index.read_bytes()
    capsys.readouterr()
    assert cli_main(["kb", "show", "--kb", str(kb_dir)]) == 2
    err = capsys.readouterr().err
    assert "corrupt store index" in err and "Traceback" not in err
    assert cli_main(["job", "eval", "--kb", str(kb_dir), "--schema", str(workdir / "schema.json"),
                     "--config", str(workdir / "job.json"),
                     "--data", str(workdir / "test.csv")]) == 2
    err = capsys.readouterr().err
    assert "corrupt store index" in err and "index.json" in err and "Traceback" not in err
    assert cli_main(["job", "update", "--kb", str(kb_dir),
                     "--schema", str(workdir / "schema.json"),
                     "--config", str(workdir / "job.json"), "--data", str(workdir / "test.csv"),
                     "--out", str(workdir / "snap.json")]) == 2
    assert "index.json" in capsys.readouterr().err
    assert index.read_bytes() == raw and not (workdir / "snap.json").exists()


@pytest.mark.parametrize("revision", [1, "7"])
def test_store_with_stats_summaries_and_a_fallback_revision_opens_and_commits(
    workdir, capsys, revision
):
    # older stores kept a stats summary per task and a revision counter in the
    # fallback entry; readers ignore both and the next commit drops them
    base = _deployed(workdir)
    kb_dir = workdir / "kb"
    capsys.readouterr()
    assert cli_main(["kb", "show", "--kb", str(kb_dir)]) == 0
    shown = capsys.readouterr().out
    before = kb_open(kb_dir)
    index = kb_dir / "index.json"
    manifest = json.loads(index.read_bytes())
    body = manifest["body"]
    for entry, label in zip(body["tasks"], ("a", "b")):  # athens, tokyo: x = 0..7
        entry["stats"] = {"count": 8, "class_histogram": {label: 8}, "feature_mean": [3.5],
                          "feature_min": [0.0], "feature_max": [7.0]}
    models = kb_dir / "models"
    (models / body["fallback"]["model_file"]).rename(models / "_fallback.1.bin")
    body["fallback"] = {**body["fallback"], "model_file": "_fallback.1.bin", "revision": revision}
    manifest["crc32"] = zlib.crc32(canonical_json_bytes(body))
    index.write_bytes(canonical_json_bytes(manifest))
    old_fallback = (models / "_fallback.1.bin").read_bytes()

    reopened = kb_open(kb_dir)
    assert reopened.records == before.records
    assert reopened.fallback == before.fallback
    assert reopened.fingerprint() == before.fingerprint()
    assert cli_main(["kb", "show", "--kb", str(kb_dir)]) == 0
    assert capsys.readouterr().out == shown

    assert cli_main(["job", "train", *base, "--data", str(workdir / "train.csv")]) == 0
    body = json.loads(index.read_bytes())["body"]
    assert all(entry["stats"] == {"count": 8} for entry in body["tasks"])
    assert set(body["fallback"]) == {"model_file", "crc32"}
    assert body["fallback"]["model_file"] == f"_fallback.{body['kb_version']}.bin"
    assert (models / "_fallback.1.bin").read_bytes() == old_fallback


@pytest.mark.parametrize("version", ["x", True, -3, None])
def test_snapshot_whose_version_is_not_a_count_is_exit_2(workdir, capsys, version):
    base = _deployed(workdir)
    snap = workdir / "snap.json"
    doc = json.loads(snap.read_bytes())
    doc["snapshot_version"] = version
    snap.write_bytes(canonical_json_bytes(doc))
    capsys.readouterr()
    assert cli_main(["edge", "status", "--snapshot", str(snap), *base[2:],
                     "--data", str(workdir / "test.csv")]) == 2
    err = capsys.readouterr().err
    assert "corrupt snapshot payload" in err and "snapshot_version" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field, value", [
    ("seed", "x"), ("seed", 1.5), ("seed", None), ("seed", [1]), ("seed", True),
    ("fallback_enabled", "yes"), ("fallback_enabled", 0), ("fallback_enabled", None),
    ("seeed", 3), ("learner.hyperparamters", {}), ("learner.hyperparameters", [1]),
    ("learner.kind", ["majority"]), ("eval_policy.min_acuracy", 0.9),
    ("eval_policy.min_accuracy", True), ("eval_policy.min_eval_samples", 2.5),
    ("transfer.cap", 1.5), ("transfer.min_sample", 1), ("trigger.unseen_treshold", 5),
])
def test_mistyped_job_config_is_config_error_exit_2(workdir, capsys, field, value):
    doc = json.loads(JOB_TEXT)
    *section, key = field.split(".")  # "section.key" sets a key of a nested object
    (doc.setdefault(section[0], {}) if section else doc)[key] = value
    (workdir / "job.json").write_text(json.dumps(doc), encoding="utf-8")
    assert cli_main(["job", "train", "--kb", str(workdir / "kb"),
                     "--schema", str(workdir / "schema.json"),
                     "--config", str(workdir / "job.json"),
                     "--data", str(workdir / "train.csv")]) == 2
    err = capsys.readouterr().err
    assert all(part in err for part in field.split("."))
    assert not (workdir / "kb" / "index.json").exists()
    (workdir / "sim.json").write_text(json.dumps({
        "edges": 1, "max_ticks": 2, "schema": "schema.json", "job": "job.json",
        "initial_data": "train.csv",
    }), encoding="utf-8")
    assert cli_main(["sim", "run", "--config", str(workdir / "sim.json"),
                     "--kb", str(workdir / "simkb"), "--out-dir", str(workdir / "simout")]) == 2
    err = capsys.readouterr().err
    assert all(part in err for part in field.split("."))
    assert not (workdir / "simkb" / "index.json").exists()


BANDED_SCHEMA = {
    "features": ["x"], "label": {"name": "y", "classes": ["a", "b"]},
    "attributes": [{"name": "city", "kind": "categorical"},
                   {"name": "band", "kind": "numeric", "edges": [20.0, 30.0]}],
}


@pytest.mark.parametrize("edges", [[float("nan")], [10.0, float("inf")], [float("-inf")]])
def test_nonfinite_bucket_edges_are_exit_2(workdir, capsys, edges):
    (workdir / "schema.json").write_text(json.dumps(BANDED_SCHEMA), encoding="utf-8")
    (workdir / "train.csv").write_text("x,y,city,band\n1.0,a,athens,25.0\n", encoding="utf-8")
    doc = json.loads(JOB_TEXT)
    doc["bucketing"] = {"band": edges}
    (workdir / "job.json").write_text(json.dumps(doc), encoding="utf-8")
    assert cli_main(["job", "train", "--kb", str(workdir / "kb"),
                     "--schema", str(workdir / "schema.json"),
                     "--config", str(workdir / "job.json"),
                     "--data", str(workdir / "train.csv")]) == 2
    err = capsys.readouterr().err
    assert "bucketing 'band'" in err and "not a finite number" in err
    assert not (workdir / "kb" / "index.json").exists()


@pytest.mark.parametrize("section, value, named", [
    ("atributes", [{"name": "city", "kind": "categorical"}], "schema config: unknown key 'atributes'"),
    ("label", {"name": "y", "classes": ["a", "b"], "type": "classification"},
     "label: unknown key 'type'"),
    ("attributes", [{"name": "city", "kind": "categorical", "edge": [1.0]}],
     "attribute: unknown key 'edge'"),
    ("attributes", 5, "'attributes' must be a list"),
    ("label", {"name": ["y"], "classes": ["a", "b"]}, "column name ['y'] is not a string"),
    ("label", {"name": "y", "classes": ["a", "b"], "kind": "regression"},
     "label 'y': only classification labels (a 'classes' list) are supported"),
])
def test_mistyped_schema_is_schema_error_exit_2(workdir, capsys, section, value, named):
    doc = json.loads(SCHEMA_TEXT)
    doc.pop("attributes")
    doc[section] = value
    (workdir / "schema.json").write_text(json.dumps(doc), encoding="utf-8")
    assert cli_main(["job", "train", "--kb", str(workdir / "kb"),
                     "--schema", str(workdir / "schema.json"),
                     "--config", str(workdir / "job.json"),
                     "--data", str(workdir / "train.csv")]) == 2
    err = capsys.readouterr().err
    assert named in err
    assert not (workdir / "kb" / "index.json").exists()


def test_a_regression_label_is_refused_before_any_commit(workdir, capsys):
    # evaluate scores classes only: a regression label could train, but never pass a gate
    doc = json.loads(SCHEMA_TEXT)
    doc["label"] = {"name": "y", "kind": "regression"}
    (workdir / "schema.json").write_text(json.dumps(doc), encoding="utf-8")
    (workdir / "train.csv").write_text("x,y,city\n" + "".join(
        f"{i},{i / 10},{city}\n" for city in ("athens", "tokyo") for i in range(50)),
        encoding="utf-8")
    (workdir / "sim.json").write_text(json.dumps({
        "edges": 1, "max_ticks": 2, "schema": "schema.json", "job": "job.json",
        "initial_data": "train.csv",
    }), encoding="utf-8")
    kb_dir = workdir / "kb"
    configs = ["--schema", str(workdir / "schema.json"), "--config", str(workdir / "job.json")]
    assert cli_main(["kb", "init", "--kb", str(kb_dir)]) == 0
    for argv in (
        ["job", "train", "--kb", str(kb_dir), *configs, "--data", str(workdir / "train.csv")],
        ["bench", "run", *configs, "--train", str(workdir / "train.csv"),
         "--test", str(workdir / "train.csv"), "--out-dir", str(workdir / "reports")],
        ["sim", "run", "--config", str(workdir / "sim.json"), "--kb", str(workdir / "simkb"),
         "--out-dir", str(workdir / "simout")],
    ):
        capsys.readouterr()
        assert cli_main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "label 'y': only classification labels" in err and "Traceback" not in err
    assert not any((kb_dir / "models").iterdir())
    assert not any((workdir / name).exists() for name in ("reports", "simkb", "simout"))
    assert cli_main(["kb", "show", "--kb", str(kb_dir), "--json"]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert (shown["kb_version"], shown["job_phase"], shown["tasks"]) == (0, "Idle", [])


SPEC = {
    "seed": 4,
    "schema": json.loads(SCHEMA_TEXT),
    "tasks": [{"attributes": ["s1"], "ranges": [[0.0, 10.0]], "thresholds": [5.0],
               "classes": ["a", "b"], "noise": 0.1, "n": 20}],
}


@pytest.mark.parametrize("field, value, named", [
    ("sed", 4, "synthetic spec: unknown key 'sed'"),
    ("seed", 1.5, "seed must be an integer"),
    ("seed", "4", "seed must be an integer"),
    ("task.noize", 0.1, "synthetic spec task 0: unknown key 'noize'"),
    ("task.n", 2.7, "task 0: n must be an integer"),
    ("task.n", "20", "task 0: n must be an integer"),
    ("task.ranges", [["0", 10.0]], "task 0: a range must be two numbers"),
    ("task.ranges", [[0.0, 5.0, 10.0]], "task 0: a range must be two numbers"),
    ("task.thresholds", [True], "task 0: thresholds must be numbers"),
    ("task.noise", "0.1", "task 0: noise must be"),
    ("task.attributes", "s1", "task 0: 'attributes' must be a list"),
    ("task.classes", "ab", "task 0: 'classes' must be a list"),
])
def test_mistyped_synthetic_spec_is_config_error_exit_2(tmp_path, capsys, field, value, named):
    doc = json.loads(json.dumps(SPEC))
    target = doc["tasks"][0] if field.startswith("task.") else doc
    target[field.removeprefix("task.")] = value
    (tmp_path / "synth.json").write_text(json.dumps(doc), encoding="utf-8")
    assert cli_main(["bench", "gen", "--config", str(tmp_path / "synth.json"),
                     "--out", str(tmp_path / "data.csv")]) == 2
    err = capsys.readouterr().err
    assert named in err
    assert not (tmp_path / "data.csv").exists()


@pytest.mark.parametrize("field, value", [
    ("training_delay_ticks", "1"), ("training_delay_ticks", -1), ("training_delay_ticks", 1.0),
    ("training_delay_ticks", True), ("unseen_cap", 0), ("unseen_cap", "5"), ("unseen_cap", 2.5),
    ("similarity_threshold", "0.5"), ("similarity_threshold", None),
    ("similarity_threshold", float("nan")), ("similarity_threshold", True),
    ("edges", 1.5), ("edges", True), ("max_ticks", 2.5), ("max_ticks", True),
    ("streams", [{"tick": 1.5, "edge": 0, "data": "train.csv"}]),
    ("streams", [{"tick": 0, "edge": True, "data": "train.csv"}]),
    ("links", [{"tick": 1, "edge": 0.0, "state": "down"}]),
    ("links", [{"tick": True, "edge": 0, "state": "down"}]),
    ("edgse", 1), ("similarity_treshold", 0.5),
    ("streams", [{"tick": 0, "edge": 0, "data": "train.csv", "labelled": True}]),
    ("links", [{"tick": 1, "edge": 0, "sate": "down"}]),
])
def test_mistyped_sim_config_is_config_error_exit_2(workdir, capsys, field, value):
    (workdir / "sim.json").write_text(json.dumps({
        "edges": 1, "max_ticks": 2, "schema": "schema.json", "job": "job.json",
        "initial_data": "train.csv", field: value,
    }), encoding="utf-8")
    assert cli_main(["sim", "run", "--config", str(workdir / "sim.json"),
                     "--kb", str(workdir / "simkb"), "--out-dir", str(workdir / "simout")]) == 2
    assert field in capsys.readouterr().err
    assert not (workdir / "simkb" / "index.json").exists()


def test_kb_show_prints_the_job_phase(workdir, capsys):
    kb_dir = str(workdir / "kb")
    assert cli_main(["kb", "init", "--kb", kb_dir]) == 0
    assert cli_main(["kb", "show", "--kb", kb_dir]) == 0
    assert "job phase Idle" in capsys.readouterr().out
    assert cli_main(["job", "train", "--kb", kb_dir,
                     "--schema", str(workdir / "schema.json"),
                     "--config", str(workdir / "job.json"),
                     "--data", str(workdir / "train.csv")]) == 0
    capsys.readouterr()
    assert cli_main(["kb", "show", "--kb", kb_dir]) == 0
    assert "job phase Evaluating" in capsys.readouterr().out
    assert cli_main(["kb", "show", "--kb", kb_dir, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["job_phase"] == "Evaluating"


def test_job_writes_only_the_manifest_models_and_a_synced_snapshot(workdir, monkeypatch):
    kb_dir = workdir / "kb"
    base = [
        "--kb", str(kb_dir),
        "--schema", str(workdir / "schema.json"),
        "--config", str(workdir / "job.json"),
    ]
    replaced = _watch_replaces(monkeypatch)
    assert cli_main(["job", "train", *base, "--data", str(workdir / "train.csv")]) == 0
    assert cli_main(["job", "eval", *base, "--data", str(workdir / "test.csv")]) == 0
    assert cli_main(["job", "deploy", *base, "--out", str(workdir / "snap.json")]) == 0
    assert cli_main(["job", "update", *base, "--data", str(workdir / "train.csv"),
                     "--out", str(workdir / "snap2.json")]) == 0
    assert sorted(p.name for p in kb_dir.iterdir()) == ["index.json", "models"]
    assert replaced.count("snap.json") == 1 and replaced.count("snap2.json") == 1
    assert replaced.count("index.json") == 4


def test_failed_snapshot_write_leaves_the_job_deploying(workdir, capsys):
    kb_dir = str(workdir / "kb")
    base = [
        "--kb", kb_dir,
        "--schema", str(workdir / "schema.json"),
        "--config", str(workdir / "job.json"),
    ]
    assert cli_main(["job", "train", *base, "--data", str(workdir / "train.csv")]) == 0
    assert cli_main(["job", "eval", *base, "--data", str(workdir / "test.csv")]) == 0
    missing_dir = workdir / "missing" / "snap.json"
    assert cli_main(["job", "deploy", *base, "--out", str(missing_dir)]) == 2
    capsys.readouterr()
    assert cli_main(["kb", "show", "--kb", kb_dir, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["job_phase"] == "Deploying"
    assert cli_main(["job", "deploy", *base, "--out", str(workdir / "snap.json")]) == 0


def test_job_train_after_a_deploy_with_nothing_deployable(workdir, capsys):
    strict = json.loads(JOB_TEXT)
    strict.update(eval_policy={"min_accuracy": 0.999}, fallback_enabled=False)
    (workdir / "strict.json").write_text(json.dumps(strict), encoding="utf-8")
    mixed = workdir / "mixed.csv"
    write_csv(city_dataset([(0.0, city, label) for city in ("athens", "tokyo")
                            for label in "ab"]), mixed)
    base = [
        "--kb", str(workdir / "kb"),
        "--schema", str(workdir / "schema.json"),
        "--config", str(workdir / "strict.json"),
    ]
    assert cli_main(["job", "train", *base, "--data", str(workdir / "train.csv")]) == 0
    assert cli_main(["job", "eval", *base, "--data", str(mixed)]) == 0
    capsys.readouterr()
    assert cli_main(["job", "deploy", *base, "--out", str(workdir / "snap.json")]) == 2
    assert "nothing deployable" in capsys.readouterr().err
    assert cli_main(["job", "train", *base, "--data", str(workdir / "train.csv")]) == 0
    assert cli_main(["job", "eval", *base, "--data", str(workdir / "test.csv")]) == 0
    assert cli_main(["job", "deploy", *base, "--out", str(workdir / "snap.json")]) == 0
    assert "2 tasks" in capsys.readouterr().out


def test_edge_infer_and_status(workdir, capsys, monkeypatch):
    kb_dir = str(workdir / "kb")
    base = [
        "--kb", kb_dir,
        "--schema", str(workdir / "schema.json"),
        "--config", str(workdir / "job.json"),
    ]
    cli_main(["job", "train", *base, "--data", str(workdir / "train.csv")])
    cli_main(["job", "eval", *base, "--data", str(workdir / "test.csv")])
    snap_path = workdir / "snap.json"
    cli_main(["job", "deploy", *base, "--out", str(snap_path)])
    capsys.readouterr()

    probe = city_dataset(
        [(1.0, "athens", None), (2.0, "tokyo", None), (3.0, "berlin", None)]
    )
    probe_csv = workdir / "probe.csv"
    write_csv(probe, probe_csv)
    preds_csv = workdir / "preds.csv"
    replaced = _watch_replaces(monkeypatch)
    code = cli_main([
        "edge", "infer",
        "--snapshot", str(snap_path),
        "--schema", str(workdir / "schema.json"),
        "--config", str(workdir / "job.json"),
        "--data", str(probe_csv),
        "--out", str(preds_csv),
    ])
    assert code == 0
    lines = preds_csv.read_text().strip().splitlines()
    assert lines[0] == "index,label,route,task_key,similarity,error"
    assert len(lines) == 4
    assert "known" in lines[1] and "known" in lines[2]
    assert "fallback" in lines[3]
    assert preds_csv.read_bytes().count(b"\r\n") == 4  # csv row ends kept
    assert replaced == ["preds.csv"]  # written atomically

    capsys.readouterr()
    status_path = workdir / "status.json"
    replaced.clear()
    code = cli_main([
        "edge", "status",
        "--snapshot", str(snap_path),
        "--schema", str(workdir / "schema.json"),
        "--config", str(workdir / "job.json"),
        "--data", str(probe_csv),
        "--out", str(status_path),
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["counters"]["inferences"] == 3
    assert doc["counters"]["known_hits"] == 2
    assert doc["counters"]["unknown_hits"] == 1
    assert json.loads(status_path.read_text()) == doc
    assert replaced == ["status.json"]  # written atomically


@pytest.mark.parametrize("action", ["infer", "status"])
@pytest.mark.parametrize("threshold", ["nan", "inf"])
def test_nonfinite_similarity_threshold_is_exit_2(workdir, capsys, action, threshold):
    base = ["--kb", str(workdir / "kb"), "--schema", str(workdir / "schema.json"),
            "--config", str(workdir / "job.json")]
    assert cli_main(["job", "train", *base, "--data", str(workdir / "train.csv")]) == 0
    assert cli_main(["job", "eval", *base, "--data", str(workdir / "test.csv")]) == 0
    assert cli_main(["job", "deploy", *base, "--out", str(workdir / "snap.json")]) == 0
    capsys.readouterr()
    out = workdir / "out.txt"
    assert cli_main(["edge", action, "--snapshot", str(workdir / "snap.json"), *base[2:],
                     "--data", str(workdir / "test.csv"), "--out", str(out),
                     "--similarity-threshold", threshold]) == 2
    assert "similarity_threshold" in capsys.readouterr().err
    assert not out.exists()


def _deployed(workdir) -> list[str]:
    """Train, eval and deploy the workdir's data; returns the job flags."""
    base = ["--kb", str(workdir / "kb"), "--schema", str(workdir / "schema.json"),
            "--config", str(workdir / "job.json")]
    assert cli_main(["job", "train", *base, "--data", str(workdir / "train.csv")]) == 0
    assert cli_main(["job", "eval", *base, "--data", str(workdir / "test.csv")]) == 0
    assert cli_main(["job", "deploy", *base, "--out", str(workdir / "snap.json")]) == 0
    return base


def test_edge_refuses_a_snapshot_of_another_schema_exit_2(workdir, capsys):
    _deployed(workdir)
    other = workdir / "other.json"
    other.write_text(SCHEMA_TEXT.replace('["a", "b"]', '["warm", "cold"]'), encoding="utf-8")
    write_csv(city_dataset([(1.0, "athens", "warm")], classes=("warm", "cold")),
              workdir / "probe.csv")
    capsys.readouterr()
    out = workdir / "preds.csv"
    assert cli_main(["edge", "infer", "--snapshot", str(workdir / "snap.json"),
                     "--schema", str(other), "--config", str(workdir / "job.json"),
                     "--data", str(workdir / "probe.csv"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "schema" in err and "Traceback" not in err
    assert not out.exists()


BANDED_SCHEMA_TEXT = """
{"features": ["x"],
 "label": {"name": "y", "classes": ["a", "b"]},
 "attributes": [{"name": "city", "kind": "categorical"},
                {"name": "band", "kind": "numeric", "edges": [10.0, 20.0, 30.0]}]}
"""


def test_a_train_under_another_bucket_count_is_refused_exit_2(tmp_path, capsys):
    # a store has one bucketing: a task bucketed otherwise would leave it unopenable
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(BANDED_SCHEMA_TEXT, encoding="utf-8")
    data = tmp_path / "data.csv"
    data.write_text("x,y,city,band\n" + "".join(
        f"{i},{'ab'[i % 2]},athens,{band}\n" for i in range(8) for band in (5.0, 35.0)),
        encoding="utf-8")
    kb_dir, config = tmp_path / "kb", tmp_path / "job.json"
    base = ["--kb", str(kb_dir), "--schema", str(schema_path), "--config", str(config)]
    config.write_text(JOB_TEXT.replace(
        '"seed": 3', '"seed": 3, "bucketing": {"band": [10.0, 20.0]}'), encoding="utf-8")
    assert cli_main(["job", "train", *base, "--data", str(data)]) == 0
    assert cli_main(["job", "eval", *base, "--data", str(data)]) == 0
    assert cli_main(["job", "deploy", *base, "--out", str(tmp_path / "snap.json")]) == 0
    raw, models = (kb_dir / "index.json").read_bytes(), sorted((kb_dir / "models").iterdir())
    config.write_text(JOB_TEXT.replace(
        '"seed": 3', '"seed": 3, "bucketing": {"band": [10.0, 20.0, 30.0]}'), encoding="utf-8")
    capsys.readouterr()
    assert cli_main(["job", "train", *base, "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert "task 'athens|0'" in err and "under (0, 3)" in err and "Traceback" not in err
    assert (kb_dir / "index.json").read_bytes() == raw
    assert sorted((kb_dir / "models").iterdir()) == models
    assert cli_main(["kb", "show", "--kb", str(kb_dir), "--json"]) == 0
    assert [t["key"] for t in json.loads(capsys.readouterr().out)["tasks"]] == [
        "athens|0", "athens|2"]


@pytest.mark.parametrize("fault, task", [
    ("other-bucketing", "athens|0"),  # the first task in key order
    ("string-bucket-index", "athens|3"),
])
def test_edge_refuses_a_snapshot_not_bucketed_as_it_buckets_exit_2(
        tmp_path, capsys, fault, task):
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(BANDED_SCHEMA_TEXT, encoding="utf-8")
    cloud_config = tmp_path / "cloud.json"
    cloud_config.write_text(JOB_TEXT.replace(
        '"seed": 3', '"seed": 3, "bucketing": {"band": [10.0, 20.0, 30.0]}'), encoding="utf-8")
    edge_config = tmp_path / "edge.json"
    edge_config.write_text(JOB_TEXT.replace(
        '"seed": 3', '"seed": 3, "bucketing": {"band": [15.0, 25.0]}'), encoding="utf-8")
    data = tmp_path / "data.csv"
    data.write_text("x,y,city,band\n" + "".join(
        f"{i},{'ab'[i % 2]},athens,{band}\n" for i in range(8) for band in (5.0, 35.0)),
        encoding="utf-8")
    snap = tmp_path / "snap.json"
    base = ["--kb", str(tmp_path / "kb"), "--schema", str(schema_path),
            "--config", str(cloud_config)]
    assert cli_main(["job", "train", *base, "--data", str(data)]) == 0
    assert cli_main(["job", "eval", *base, "--data", str(data)]) == 0
    assert cli_main(["job", "deploy", *base, "--out", str(snap)]) == 0
    if fault == "string-bucket-index":
        doc = json.loads(snap.read_bytes())
        doc["tasks"][task]["attributes"]["values"][1] = "x"
        snap.write_bytes(canonical_json_bytes(doc))
        edge_config = cloud_config
    probe = tmp_path / "probe.csv"  # a known and an unknown request under either bucketing
    probe.write_text("x,y,city,band\n1,a,athens,5.0\n1,a,athens,15.0\n", encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / "preds.csv"
    assert cli_main(["edge", "infer", "--snapshot", str(snap), "--schema", str(schema_path),
                     "--config", str(edge_config), "--data", str(probe),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "snapshot v5 was not bucketed as this edge buckets" in err and repr(task) in err
    assert "Traceback" not in err
    assert not out.exists()


def test_edge_refuses_a_snapshot_whose_key_is_not_its_values_key_exit_2(workdir, capsys):
    base = _deployed(workdir)
    snap = workdir / "snap.json"
    doc = json.loads(snap.read_bytes())
    doc["tasks"]["athens"]["attributes"]["values"] = ["tokyo"]  # tokyo's values under athens
    snap.write_bytes(canonical_json_bytes(doc))
    capsys.readouterr()
    out = workdir / "preds.csv"
    assert cli_main(["edge", "infer", "--snapshot", str(snap), *base[2:],
                     "--data", str(workdir / "test.csv"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "snapshot v5" in err and "task 'athens' has values ('tokyo',)" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("stored", ["manifest", "snapshot"])
def test_a_stored_form_of_another_format_is_exit_2(workdir, capsys, stored):
    base = _deployed(workdir)
    path = workdir / "kb" / "index.json" if stored == "manifest" else workdir / "snap.json"
    doc = json.loads(path.read_bytes())
    doc["format"] = 2
    path.write_bytes(canonical_json_bytes(doc))
    capsys.readouterr()
    if stored == "manifest":
        code = cli_main(["kb", "show", "--kb", str(workdir / "kb")])
    else:
        code = cli_main(["edge", "infer", "--snapshot", str(path), *base[2:],
                         "--data", str(workdir / "test.csv"), "--out", str(workdir / "p.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "format 2" in err and "Traceback" not in err


def _read_an_edited_model(workdir, capsys, stored, path, value):
    """Deploy, set *value* at *path* (keys into the athens model's payload)
    where the model is *stored* (a store model file, under valid model and
    manifest checksums, or the snapshot file), then read it back with `kb
    show` or `edge infer`. Returns the exit code, stderr and the model
    file's path (store only); checks that nothing was written."""
    base = _deployed(workdir)
    index, snap, model_file = workdir / "kb" / "index.json", workdir / "snap.json", None
    if stored == "store":
        manifest = json.loads(index.read_bytes())
        entry = manifest["body"]["tasks"][0]
        model_file = workdir / "kb" / "models" / entry["model_file"]
        payload = json.loads(model_file.read_bytes())
        _set_at(payload, path, value)
        model_file.write_bytes(canonical_json_bytes(payload))
        entry["crc32"] = zlib.crc32(model_file.read_bytes())
        manifest["crc32"] = zlib.crc32(canonical_json_bytes(manifest["body"]))
        index.write_bytes(canonical_json_bytes(manifest))
    else:
        doc = json.loads(snap.read_bytes())
        _set_at(doc["tasks"]["athens"]["model"], path, value)
        snap.write_bytes(canonical_json_bytes(doc))
    before = index.read_bytes()
    capsys.readouterr()
    out = workdir / "p.csv"
    if stored == "store":
        code = cli_main(["kb", "show", "--kb", str(workdir / "kb")])
    else:
        code = cli_main(["edge", "infer", "--snapshot", str(snap), *base[2:],
                         "--data", str(workdir / "test.csv"), "--out", str(out)])
    assert index.read_bytes() == before
    assert not out.exists()
    return code, capsys.readouterr().err, model_file


@pytest.mark.parametrize("histogram", [[8], "ab", 5])
@pytest.mark.parametrize("stored", ["store", "snapshot"])
def test_a_model_whose_class_histogram_is_not_an_object_is_exit_2(
        workdir, capsys, stored, histogram):
    code, err, path = _read_an_edited_model(
        workdir, capsys, stored, ("trained_on", "class_histogram"), histogram)
    assert code == 2
    assert f"class histogram {histogram!r} is not an object" in err
    assert "Traceback" not in err
    if stored == "store":
        assert f"undecodable model file {path}" in err


@pytest.mark.parametrize("keys, value, error", [
    ((), [], "parameters [] is not an object"),
    ((), {}, "n_features None is not an integer >= 1"),
    (("n_features",), "2", "n_features '2' is not an integer >= 1"),
    (("classes",), "ab", "classes 'ab' is not a list of strings"),
])
@pytest.mark.parametrize("stored", ["store", "snapshot"])
def test_a_model_whose_parameters_lack_what_predict_reads_is_exit_2(
        workdir, capsys, stored, keys, value, error):
    code, err, path = _read_an_edited_model(
        workdir, capsys, stored, ("parameters", *keys), value)
    assert code == 2
    assert error in err and "Traceback" not in err
    if stored == "store":
        assert f"undecodable model file {path}" in err


@pytest.mark.parametrize("tasks", [[], "ab", None])
def test_a_snapshot_whose_tasks_are_not_an_object_is_exit_2(workdir, capsys, tasks):
    base = _deployed(workdir)
    snap, out = workdir / "snap.json", workdir / "p.csv"
    doc = json.loads(snap.read_bytes())
    doc["tasks"] = tasks
    snap.write_bytes(canonical_json_bytes(doc))
    capsys.readouterr()
    code = cli_main(["edge", "infer", "--snapshot", str(snap), *base[2:],
                     "--data", str(workdir / "test.csv"), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"tasks {tasks!r} is not an object" in err and "Traceback" not in err
    assert not out.exists()


def test_sim_run_writes_outputs(workdir, capsys, monkeypatch):
    stream = city_dataset([(float(i), "oslo", "b") for i in range(6)])
    write_csv(stream, workdir / "stream.csv")
    sim_config = {
        "edges": 1,
        "max_ticks": 5,
        "schema": "schema.json",
        "job": "job.json",
        "initial_data": "train.csv",
        "streams": [{"tick": 1, "edge": 0, "data": "stream.csv"}],
        "links": [],
    }
    (workdir / "sim.json").write_text(json.dumps(sim_config), encoding="utf-8")
    out_dir = workdir / "simout"
    replaced = _watch_replaces(monkeypatch)
    code = cli_main([
        "sim", "run",
        "--config", str(workdir / "sim.json"),
        "--kb", str(workdir / "simkb"),
        "--out-dir", str(out_dir),
    ])
    assert code == 0
    assert (out_dir / "events.log").exists()
    report = json.loads((out_dir / "report.json").read_text())
    assert report["kb_summary"]["kb_version"] >= 1
    assert any(t["key"] == "oslo" for t in report["kb_summary"]["tasks"])
    assert replaced[-2:] == ["events.log", "report.json"]  # written atomically


def test_sim_run_on_a_used_kb_is_phase_error_exit_2(workdir, capsys):
    sim_config = {
        "edges": 1, "max_ticks": 2, "schema": "schema.json", "job": "job.json",
        "initial_data": "train.csv",
    }
    (workdir / "sim.json").write_text(json.dumps(sim_config), encoding="utf-8")
    args = ["sim", "run", "--config", str(workdir / "sim.json"),
            "--kb", str(workdir / "simkb"), "--out-dir", str(workdir / "simout")]
    assert cli_main(args) == 0
    index = (workdir / "simkb" / "index.json").read_bytes()
    capsys.readouterr()
    assert cli_main(args) == 2
    assert "requires phase Idle, current is Deployed" in capsys.readouterr().err
    assert (workdir / "simkb" / "index.json").read_bytes() == index


def test_bench_gen_run_report_pipeline(workdir, tmp_path, capsys):
    spec_path = tmp_path / "synth.json"
    spec_path.write_text(reference_text("thermal5_synthetic.json"), encoding="utf-8")
    data_csv = tmp_path / "data.csv"
    schema_out = tmp_path / "thermal_schema.json"
    assert cli_main([
        "bench", "gen", "--config", str(spec_path),
        "--out", str(data_csv), "--schema-out", str(schema_out),
    ]) == 0
    schema = parse_schema(schema_out.read_text())
    data = load_csv(data_csv, schema)
    assert len(data) == 5000

    # split into train/test files for the run
    from edgelearn.data import split_dataset
    train, test = split_dataset(data, 0.7, seed=42)
    write_csv(train, tmp_path / "train.csv")
    write_csv(test, tmp_path / "test.csv")
    job_path = tmp_path / "job.json"
    job_path.write_text(reference_text("thermal_job.json"), encoding="utf-8")
    out_dir = tmp_path / "reports"
    assert cli_main([
        "bench", "run",
        "--schema", str(schema_out), "--config", str(job_path),
        "--train", str(tmp_path / "train.csv"), "--test", str(tmp_path / "test.csv"),
        "--out-dir", str(out_dir),
    ]) == 0
    out = capsys.readouterr().out
    assert "lifelong" in out
    for name in ("accuracy.csv", "improvement.csv", "summary.json"):
        assert (out_dir / name).exists()

    assert cli_main(["bench", "report", "--summary", str(out_dir / "summary.json")]) == 0
    assert "lifelong" in capsys.readouterr().out


SUMMARY = {
    "methods": {"closed": {"overall_accuracy": 1.0, "per_task": {
        "athens": {"accuracy": 1.0, "classes": ["a", "b"], "counts": [[1, 0], [0, 0]], "n": 1},
    }}},
    "improvements": {"athens": 0.0},
    "overall_improvements": {"vs_closed": 0.0},
}


@pytest.mark.parametrize("field, value", [
    ("methods", []),
    ("methods.closed", "x"),
    ("methods.closed.overall_accuracy", "1.0"),
    ("methods.closed.per_task", []),
    ("methods.closed.per_task.athens", None),
    ("improvements.athens", "0.0"),
    ("improvements.athens", None),
    ("overall_improvements", []),
    ("overall_improvements.vs_closed", None),
])
def test_a_malformed_summary_is_config_error_exit_2(tmp_path, capsys, field, value):
    path = tmp_path / "summary.json"
    path.write_text(json.dumps(SUMMARY), encoding="utf-8")
    assert cli_main(["bench", "report", "--summary", str(path)]) == 0
    doc = json.loads(json.dumps(SUMMARY))
    *parents, name = field.split(".")
    target = doc
    for parent in parents:
        target = target[parent]
    target[name] = value
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert cli_main(["bench", "report", "--summary", str(path)]) == 2
    assert f"bad summary file {path}" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [
    ("job train", "--schema"), ("job train", "--config"), ("job train", "--data"),
    ("bench gen", "--config"), ("sim run", "--config"), ("bench report", "--summary"),
])
def test_a_non_utf8_input_file_is_exit_2_naming_it(workdir, capsys, command, flag):
    bad = workdir / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    args = {
        "job train": ["--kb", str(workdir / "kb"), "--schema", str(workdir / "schema.json"),
                      "--config", str(workdir / "job.json"), "--data", str(workdir / "train.csv")],
        "bench gen": ["--config", "", "--out", str(workdir / "data.csv")],
        "sim run": ["--config", "", "--kb", str(workdir / "simkb"),
                    "--out-dir", str(workdir / "simout")],
        "bench report": ["--summary", ""],
    }[command]
    args[args.index(flag) + 1] = str(bad)
    assert cli_main([*command.split(), *args]) == 2
    assert str(bad) in capsys.readouterr().err
    assert not (workdir / "kb" / "index.json").exists()


def test_bench_run_determinism_byte_identical(workdir, tmp_path):
    args_base = [
        "bench", "run",
        "--schema", str(workdir / "schema.json"),
        "--config", str(workdir / "job.json"),
        "--train", str(workdir / "train.csv"),
        "--test", str(workdir / "test.csv"),
    ]
    assert cli_main([*args_base, "--out-dir", str(tmp_path / "r1")]) == 0
    assert cli_main([*args_base, "--out-dir", str(tmp_path / "r2")]) == 0
    for name in ("accuracy.csv", "improvement.csv", "summary.json"):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


def test_runtime_error_exit_2(workdir, capsys):
    assert cli_main([
        "bench", "run",
        "--schema", str(workdir / "schema.json"),
        "--config", str(workdir / "job.json"),
        "--train", str(workdir / "missing.csv"),
        "--test", str(workdir / "test.csv"),
        "--out-dir", str(workdir / "out"),
    ]) == 2
    assert "error" in capsys.readouterr().err


def test_global_flags_before_subcommand(workdir, capsys):
    kb_dir = str(workdir / "kb2")
    assert cli_main(["--kb", kb_dir, "kb", "init"]) == 0
    assert "initialized" in capsys.readouterr().out


def test_bench_gen_seed_override_changes_data(tmp_path):
    spec_path = tmp_path / "synth.json"
    spec_path.write_text(reference_text("thermal5_synthetic.json"), encoding="utf-8")
    for seed, name in ((1, "d1.csv"), (1, "d1b.csv"), (2, "d2.csv")):
        assert cli_main([
            "bench", "gen", "--config", str(spec_path),
            "--seed", str(seed), "--out", str(tmp_path / name),
        ]) == 0
    assert (tmp_path / "d1.csv").read_bytes() == (tmp_path / "d1b.csv").read_bytes()
    assert (tmp_path / "d1.csv").read_bytes() != (tmp_path / "d2.csv").read_bytes()
