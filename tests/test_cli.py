"""CLI surface: subcommands, exit codes, file outputs."""

from __future__ import annotations

import json
import shutil
import zlib
from pathlib import Path

import pytest

from edgelearn.cli import cli_main
from edgelearn.data import load_csv, parse_schema, write_csv
from edgelearn.kb import KnowledgeBase
from edgelearn.learners import canonical_json_bytes, model_from_json
from edgelearn.tasks import values_key
from edgelearn.reference import reference_text

from conftest import city_dataset
from test_kb import _manifest, _set_at, _watch_replaces
from test_learners import format_1_payload


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


def test_kb_show_of_a_missing_store_is_exit_2_and_creates_nothing(tmp_path, capsys):
    missing = tmp_path / "nowhere" / "kb"
    assert cli_main(["kb", "show", "--kb", str(missing)]) == 2
    err = capsys.readouterr().err
    assert f"no knowledge base at {missing}" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


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
    "no-tasks", "tasks-not-a-list",
    ("kb_version", "7"), ("kb_version", -1), ("kb_version", 1.0), ("kb_version", True),
    ("version", 1.5), ("version", 0), ("version", "1"), ("version", True),
    ("stats.count", "x"), ("stats.count", 0), ("stats.count", 1.5), ("stats.count", True),
    ("status", "bogus"), ("eval.n", 0), ("eval.classes", "abc"), ("eval.counts", [[1], [1]]),
    ("key", 5),
    # attributes an edge would refuse, and a key its values do not give
    ("values", [5]), ("values", [True]), ("key", "oslo"),
    # a shape that is not one, or none for a store that holds models
    ("shape", None), ("shape.schema_fingerprint", 5), ("shape.edges", [[2.0, 1.0]]),
    "duplicate-key",  # tokyo's entry under athens's key and values
    # a model that is not one, or of no learner
    ("model", 5), ("fallback", 5), ("fallback.kind", "bogus"),
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
    elif corrupt == "tasks-not-a-list":
        body["tasks"] = 5
    elif corrupt == "duplicate-key":
        athens, tokyo = body["tasks"]
        body["tasks"][1] = {**tokyo, "key": "athens", "values": athens["values"]}
    elif corrupt[0] == "kb_version":
        body["kb_version"] = corrupt[1]
    elif corrupt[0] == "stats.count":
        body["tasks"][0]["stats"]["count"] = corrupt[1]
    elif corrupt[0] == "shape":
        body["shape"] = None
    elif corrupt[0].startswith("shape."):
        body["shape"][corrupt[0][6:]] = corrupt[1]
    elif corrupt[0] == "fallback":
        body["fallback"] = corrupt[1]
    elif corrupt[0] == "fallback.kind":
        body["fallback"]["kind"] = corrupt[1]
    elif corrupt[0] == "values":  # under the key they give, so only their kind is wrong
        body["tasks"][1]["values"] = corrupt[1]
        body["tasks"][1]["key"] = values_key(corrupt[1])
    elif corrupt[0] == "eval.n":  # an eval of n samples, fit to pass every other check
        body["tasks"][0]["eval"] = {"accuracy": 0.0, "classes": ["a", "b"],
                                    "counts": [[0, 0], [0, 0]], "n": corrupt[1]}
    elif corrupt[0].startswith("eval."):  # an eval of two samples but for this field
        body["tasks"][0]["eval"] = {"accuracy": 0.5, "classes": ["a", "b"],
                                    "counts": [[1, 0], [1, 0]], "n": 2, corrupt[0][5:]: corrupt[1]}
    else:  # a task record's field
        body["tasks"][0][corrupt[0]] = corrupt[1]
    manifest["crc32"] = zlib.crc32(canonical_json_bytes(body))  # a valid checksum
    index.write_bytes(canonical_json_bytes(manifest))
    raw = index.read_bytes()
    capsys.readouterr()
    assert cli_main(["kb", "show", "--kb", str(kb_dir)]) == 2
    err = capsys.readouterr().err
    assert "corrupt store index" in err and "Traceback" not in err
    if corrupt == ("shape", None):  # no stage can declare it: each opens the store first
        assert f"{index} holds models but declares no shape" in err
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
    before = KnowledgeBase.open(kb_dir)
    index = kb_dir / "index.json"
    body = json.loads(index.read_bytes())["body"]
    fallback = body["fallback"]
    for entry, label in zip(body["tasks"], ("a", "b")):  # athens, tokyo: x = 0..7
        entry["stats"] = {"count": 8, "class_histogram": {label: 8}, "feature_mean": [3.5],
                          "feature_min": [0.0], "feature_max": [7.0]}
    body["fallback"] = {**fallback, "revision": revision}
    index.write_bytes(_manifest(body))

    reopened = KnowledgeBase.open(kb_dir)
    assert reopened.records == before.records
    assert reopened.fallback == before.fallback
    assert reopened.fingerprint() == before.fingerprint()
    assert cli_main(["kb", "show", "--kb", str(kb_dir)]) == 0
    assert capsys.readouterr().out == shown

    assert cli_main(["job", "train", *base, "--data", str(workdir / "train.csv")]) == 0
    body = json.loads(index.read_bytes())["body"]
    assert all(entry["stats"] == {"count": 8} for entry in body["tasks"])
    assert body["fallback"] == fallback  # its revision is gone


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


@pytest.mark.parametrize("edges", [[float("nan")], [10.0, float("inf")], [float("-inf")]])
def test_nonfinite_bucket_edges_are_exit_2(workdir, capsys, edges):
    (workdir / "schema.json").write_text(json.dumps({
        "features": ["x"], "label": {"name": "y", "classes": ["a", "b"]},
        "attributes": [{"name": "city", "kind": "categorical"},
                       {"name": "band", "kind": "numeric", "edges": edges}],
    }), encoding="utf-8")
    (workdir / "train.csv").write_text("x,y,city,band\n1.0,a,athens,25.0\n", encoding="utf-8")
    assert cli_main(["job", "train", "--kb", str(workdir / "kb"),
                     "--schema", str(workdir / "schema.json"),
                     "--config", str(workdir / "job.json"),
                     "--data", str(workdir / "train.csv")]) == 2
    err = capsys.readouterr().err
    assert "attribute 'band'" in err and "not a finite number" in err
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
    ("label", {"name": "y", "classes": ["", "a"]}, "empty class name in label column 'y'"),
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
    assert [p.name for p in kb_dir.iterdir()] == ["index.json"]
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
    ("task.ranges", [[-1e308, 1e308]], "task 0: feature range [-1e+308,1e+308] is too wide"),
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


def test_job_writes_only_the_manifest_and_a_synced_snapshot(workdir, monkeypatch):
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
    assert sorted(p.name for p in kb_dir.iterdir()) == ["index.json"]
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


@pytest.mark.parametrize("command", ["job deploy", "job update", "edge infer", "edge status",
                                     "bench run"])
def test_an_out_write_that_fails_leaves_no_temp_file_exit_2(
        workdir, capsys, monkeypatch, command):
    # --out names a directory (bench run: --out-dir names a file): it is
    # refused before the stage runs, so nothing is written and no temp file left
    base = ["--kb", str(workdir / "kb"), "--schema", str(workdir / "schema.json"),
            "--config", str(workdir / "job.json")]
    assert cli_main(["job", "train", *base, "--data", str(workdir / "train.csv")]) == 0
    assert cli_main(["job", "eval", *base, "--data", str(workdir / "test.csv")]) == 0
    if command != "job deploy":
        assert cli_main(["job", "deploy", *base, "--out", str(workdir / "snap.json")]) == 0
    edge = ["--schema", str(workdir / "schema.json"), "--snapshot", str(workdir / "snap.json"),
            "--data", str(workdir / "test.csv")]
    argv, stage = {
        "job deploy": (["job", "deploy", *base, "--out"], "job.LifelongJob.run_deploy"),
        "job update": (["job", "update", *base, "--data", str(workdir / "train.csv"), "--out"],
                       "job.LifelongJob.run_update_cycle"),
        "edge infer": (["edge", "infer", *edge, "--out"], "edge.EdgeRuntime.infer"),
        "edge status": (["edge", "status", *edge, "--out"], "edge.EdgeRuntime.infer"),
        "bench run": (["bench", "run", *base[2:], "--train", str(workdir / "train.csv"),
                       "--test", str(workdir / "test.csv"), "--out-dir"], "bench.run_bench"),
    }[command]

    def refused(*args, **kwargs):
        raise AssertionError(f"{command} ran its stage before it checked its output path")
    monkeypatch.setattr(f"edgelearn.{stage}", refused)
    if command == "bench run":
        (workdir / "out").write_text("a file\n", encoding="utf-8")
    else:
        (workdir / "out").mkdir()
    index = (workdir / "kb" / "index.json").read_bytes()
    assert cli_main([*argv, str(workdir / "out")]) == 2
    assert f"{argv[-1]} {workdir / 'out'}: " in capsys.readouterr().err
    assert sorted(workdir.rglob("*.tmp")) == []
    assert (workdir / "kb" / "index.json").read_bytes() == index


@pytest.mark.parametrize("flag", ["--out", "--schema-out"])
@pytest.mark.parametrize("target", ["a directory", "under a file", "under a missing directory"])
def test_bench_gen_refuses_an_output_path_it_cannot_write_before_any_work(
        tmp_path, capsys, monkeypatch, flag, target):
    def refused(spec):
        raise AssertionError("bench gen generated data before it checked its output paths")
    monkeypatch.setattr("edgelearn.bench.gen_synthetic", refused)
    spec = tmp_path / "synth.json"
    spec.write_text(reference_text("thermal5_synthetic.json"), encoding="utf-8")
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("a file\n", encoding="utf-8")
    bad = tmp_path / {"a directory": "adir", "under a file": "afile/x",
                      "under a missing directory": "missing/x"}[target]
    paths = {"--out": tmp_path / "data.csv", "--schema-out": tmp_path / "schema.json", flag: bad}
    argv = ["bench", "gen", "--config", str(spec)]
    assert cli_main([*argv, *(str(x) for kv in paths.items() for x in kv)]) == 2
    err = capsys.readouterr().err
    assert f"{flag} {bad}: " in err
    if target == "under a missing directory":
        assert f"{tmp_path / 'missing'} is not an existing directory" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "afile", "synth.json"]


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
    code = cli_main([  # the edge buckets by the schema: it reads no job config
        "edge", "infer",
        "--snapshot", str(snap_path),
        "--schema", str(workdir / "schema.json"),
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


def _banded_schema_file(path: Path, edges: str) -> Path:
    """*path* holding BANDED_SCHEMA_TEXT with band edges *edges*, a JSON list."""
    path.write_text(BANDED_SCHEMA_TEXT.replace("[10.0, 20.0, 30.0]", edges), encoding="utf-8")
    return path


def _banded_data(path: Path) -> Path:
    """*path* holding 16 athens rows, half in band 5.0 and half in 35.0."""
    path.write_text("x,y,city,band\n" + "".join(
        f"{i},{'ab'[i % 2]},athens,{band}\n" for i in range(8) for band in (5.0, 35.0)),
        encoding="utf-8")
    return path


def test_a_train_under_another_bucket_count_is_refused_exit_2(tmp_path, capsys):
    # a store has one bucketing: a task bucketed otherwise would leave it unopenable
    data = _banded_data(tmp_path / "data.csv")
    kb_dir, config = tmp_path / "kb", tmp_path / "job.json"
    config.write_text(JOB_TEXT, encoding="utf-8")
    first = ["--kb", str(kb_dir), "--config", str(config),
             "--schema", str(_banded_schema_file(tmp_path / "narrow.json", "[10.0, 20.0]"))]
    assert cli_main(["job", "train", *first, "--data", str(data)]) == 0
    assert cli_main(["job", "eval", *first, "--data", str(data)]) == 0
    assert cli_main(["job", "deploy", *first, "--out", str(tmp_path / "snap.json")]) == 0
    raw, files = (kb_dir / "index.json").read_bytes(), sorted(kb_dir.iterdir())
    schema_path = _banded_schema_file(tmp_path / "schema.json", "[10.0, 20.0, 30.0]")
    base = ["--kb", str(kb_dir), "--schema", str(schema_path), "--config", str(config)]
    capsys.readouterr()
    assert cli_main(["job", "train", *base, "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert "index.json declares the shape" in err and "[10.0, 20.0, 30.0]" in err
    assert "Traceback" not in err
    assert (kb_dir / "index.json").read_bytes() == raw
    assert sorted(kb_dir.iterdir()) == files
    assert cli_main(["kb", "show", "--kb", str(kb_dir), "--json"]) == 0
    assert [t["key"] for t in json.loads(capsys.readouterr().out)["tasks"]] == [
        "athens|0", "athens|2"]


@pytest.mark.parametrize("fault, task", [
    ("other-bucketing", "athens|0"),  # the first task in key order
    ("string-bucket-index", "athens|3"),
    ("list-bucket-index", "athens|3"),  # a value no dict key can hold
])
def test_edge_refuses_a_snapshot_not_bucketed_as_it_buckets_exit_2(
        tmp_path, capsys, fault, task):
    cloud_schema = _banded_schema_file(tmp_path / "cloud.json", "[10.0, 20.0, 30.0]")
    edge_schema = _banded_schema_file(tmp_path / "edge.json", "[15.0, 25.0]")
    (tmp_path / "job.json").write_text(JOB_TEXT, encoding="utf-8")
    data = _banded_data(tmp_path / "data.csv")
    snap = tmp_path / "snap.json"
    base = ["--kb", str(tmp_path / "kb"), "--schema", str(cloud_schema),
            "--config", str(tmp_path / "job.json")]
    assert cli_main(["job", "train", *base, "--data", str(data)]) == 0
    assert cli_main(["job", "eval", *base, "--data", str(data)]) == 0
    assert cli_main(["job", "deploy", *base, "--out", str(snap)]) == 0
    if fault != "other-bucketing":
        doc = json.loads(snap.read_bytes())
        doc["tasks"][task]["attributes"]["values"][1] = "x" if fault == "string-bucket-index" else []
        snap.write_bytes(canonical_json_bytes(doc))
        edge_schema = cloud_schema
    probe = tmp_path / "probe.csv"  # a known and an unknown request under either bucketing
    probe.write_text("x,y,city,band\n1,a,athens,5.0\n1,a,athens,15.0\n", encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / "preds.csv"
    assert cli_main(["edge", "infer", "--snapshot", str(snap), "--schema", str(edge_schema),
                     "--data", str(probe), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "snapshot v5 was not bucketed as this edge buckets" in err and repr(task) in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("fingerprint", [5, None, "0" * 16])
def test_edge_refuses_a_snapshot_declaring_another_schema_exit_2(workdir, capsys, fingerprint):
    # every model in it is of the edge's schema; the snapshot's own declaration is not
    base = _deployed(workdir)
    snap = workdir / "snap.json"
    doc = json.loads(snap.read_bytes())
    doc["schema_fingerprint"] = fingerprint
    snap.write_bytes(canonical_json_bytes(doc))
    capsys.readouterr()
    out = workdir / "preds.csv"
    assert cli_main(["edge", "infer", "--snapshot", str(snap), *base[2:],
                     "--data", str(workdir / "test.csv"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"snapshot file {snap}: snapshot v5 declares schema {fingerprint!r}," in err
    assert "Traceback" not in err
    assert not out.exists()


def _deployed_trees(workdir) -> list[str]:
    """:func:`_deployed` with a tree learner, on data where each task's
    root splits on x."""
    (workdir / "job.json").write_text(JOB_TEXT.replace('"majority"', '"tree"'), encoding="utf-8")
    data = city_dataset([(float(i), city, "ab"[(i < 4) == (city == "tokyo")])
                         for city in ("athens", "tokyo") for i in range(8)])
    write_csv(data, workdir / "train.csv")
    write_csv(data, workdir / "test.csv")
    return _deployed(workdir)


MALFORMED_TREE_ROOTS = [  # (key, value) set in a task's tree, and the fault named
    ("feature", 99, "tree split feature 99 is not an integer in [0, 1)"),
    ("feature", -1, "tree split feature -1 is not an integer in [0, 1)"),
    ("threshold", "5", "tree split threshold '5' is not a number"),
    ("right", 1, "tree split 0 right 1 is not in (1, 3)"),
    ("right", 3, "tree split 0 right 3 is not in (1, 3)"),
    ("left", 2, "tree leaf label_index 2 is not an integer in [0, 2)"),
    ("left", {"kind": "leaf", "label_index": 0},
     "tree node 1 {'kind': 'leaf', 'label_index': 0} is not a class index or a split"),
]


def _set_in_tree(tree: list, key: str, value) -> None:
    """Set the root split's *key* (feature, threshold or right) or its
    "left" child to *value* in *tree*, a root split on x over two leaves."""
    assert type(tree[0]) is list and tree[0][0] == 0 and len(tree) == 3
    if key == "left":
        tree[1] = value
    else:
        tree[0][("feature", "threshold", "right").index(key)] = value


@pytest.mark.parametrize("key, value, fault", MALFORMED_TREE_ROOTS)
def test_edge_refuses_a_snapshot_with_a_malformed_tree_exit_2(workdir, capsys, key, value, fault):
    base = _deployed_trees(workdir)
    snap = workdir / "snap.json"
    doc = json.loads(snap.read_bytes())
    _set_in_tree(doc["tasks"]["athens"]["model"]["parameters"]["tree"], key, value)
    snap.write_bytes(canonical_json_bytes(doc))
    capsys.readouterr()
    out = workdir / "preds.csv"
    assert cli_main(["edge", "infer", "--snapshot", str(snap), *base[2:],
                     "--data", str(workdir / "test.csv"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"snapshot file {snap}: corrupt model payload: {fault}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key, value, fault", MALFORMED_TREE_ROOTS)
def test_kb_show_refuses_a_store_with_a_malformed_tree_exit_2(workdir, capsys, key, value, fault):
    _deployed_trees(workdir)
    kb_dir = workdir / "kb"
    assert cli_main(["kb", "show", "--kb", str(kb_dir)]) == 0
    index = kb_dir / "index.json"
    body = json.loads(index.read_bytes())["body"]
    entry = next(entry for entry in body["tasks"] if entry["key"] == "athens")
    _set_in_tree(entry["model"]["parameters"]["tree"], key, value)
    index.write_bytes(_manifest(body))  # under a valid checksum
    capsys.readouterr()
    assert cli_main(["kb", "show", "--kb", str(kb_dir)]) == 2
    err = capsys.readouterr().err
    assert f"corrupt store index {index}" in err
    assert f"task 'athens': corrupt model payload: {fault}" in err
    assert "Traceback" not in err


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


@pytest.mark.parametrize("stored, fmt", [
    pytest.param("manifest", 4, id="manifest"), pytest.param("snapshot", 4, id="snapshot"),
    pytest.param("manifest", 1, id="manifest-format-1"),
    pytest.param("manifest", 2, id="manifest-format-2"),
])
def test_a_stored_form_of_another_format_is_exit_2(workdir, capsys, stored, fmt):
    base = _deployed(workdir)
    path = workdir / "kb" / "index.json" if stored == "manifest" else workdir / "snap.json"
    doc = json.loads(path.read_bytes())
    doc["format"] = fmt  # outside the body: a manifest's checksum stays valid
    path.write_bytes(canonical_json_bytes(doc))
    if stored == "snapshot":
        _refused(capsys, ["edge", "infer", "--snapshot", path, *base[2:],
                          "--data", workdir / "test.csv", "--out", workdir / "p.csv"],
                 "format 4", [workdir / "p.csv"])
        return
    # every reader of the store refuses it the same way, and writes nothing
    named = f"{path} is in retired format {fmt}" if fmt in (1, 2) else "format 4"
    out, sim_out = workdir / "snap2.json", workdir / "simout"
    (workdir / "sim.json").write_text(json.dumps({
        "edges": 1, "max_ticks": 1, "schema": "schema.json", "job": "job.json",
        "initial_data": "train.csv", "streams": [], "links": []}), encoding="utf-8")
    for argv in (["kb", "show", "--kb", workdir / "kb"],
                 ["job", "train", *base, "--data", workdir / "train.csv"],
                 ["job", "eval", *base, "--data", workdir / "test.csv"],
                 ["job", "update", *base, "--data", workdir / "train.csv", "--out", out],
                 ["sim", "run", "--config", workdir / "sim.json", "--kb", workdir / "kb",
                  "--out-dir", sim_out]):
        _refused(capsys, argv, named, [path, out, sim_out / "events.log", sim_out / "report.json"])
    assert not sim_out.exists()


def _read_an_edited_model(workdir, capsys, stored, path, value):
    """Deploy, set *value* at *path* (keys into the athens model's payload)
    where the model is *stored* (the store's manifest, under a valid
    checksum, or the snapshot file), then read it back with `kb show` or
    `edge infer`. Returns the exit code and stderr; checks that nothing was
    written."""
    base = _deployed(workdir)
    index, snap = workdir / "kb" / "index.json", workdir / "snap.json"
    if stored == "store":
        manifest = json.loads(index.read_bytes())
        _set_at(manifest["body"]["tasks"][0]["model"], path, value)
        index.write_bytes(_manifest(manifest["body"]))
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
    return code, capsys.readouterr().err


@pytest.mark.parametrize("histogram", [[8], "ab", 5])
@pytest.mark.parametrize("stored", ["store", "snapshot"])
def test_a_model_whose_class_histogram_is_not_an_object_is_exit_2(
        workdir, capsys, stored, histogram):
    code, err = _read_an_edited_model(
        workdir, capsys, stored, ("trained_on", "class_histogram"), histogram)
    assert code == 2
    assert f"class histogram {histogram!r} is not an object" in err
    assert "Traceback" not in err
    if stored == "store":
        assert f"{workdir / 'kb' / 'index.json'}" in err and "task 'athens'" in err


@pytest.mark.parametrize("keys, value, error", [
    ((), [], "parameters [] is not an object"),
    ((), {}, "n_features None is not an integer >= 1"),
    (("n_features",), "2", "n_features '2' is not an integer >= 1"),
    (("classes",), "ab", "classes 'ab' is not a list of strings"),
])
@pytest.mark.parametrize("stored", ["store", "snapshot"])
def test_a_model_whose_parameters_lack_what_predict_reads_is_exit_2(
        workdir, capsys, stored, keys, value, error):
    code, err = _read_an_edited_model(
        workdir, capsys, stored, ("parameters", *keys), value)
    assert code == 2
    assert error in err and "Traceback" not in err
    if stored == "store":
        assert f"{workdir / 'kb' / 'index.json'}" in err and "task 'athens'" in err


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



# -- a thermal5 store and its snapshot, corrupted under valid checksums -----------------

@pytest.fixture(scope="module")
def thermal5_deployed(tmp_path_factory):
    """bench gen thermal5, then job train, eval and deploy on all of it with
    thermal_job.json; update.csv holds 200 site_c rows."""
    work = tmp_path_factory.mktemp("thermal5")
    for name in ("thermal_schema.json", "thermal_job.json", "thermal5_synthetic.json"):
        (work / name).write_text(reference_text(name), encoding="utf-8")
    data = work / "data.csv"
    assert cli_main(["bench", "gen", "--config", str(work / "thermal5_synthetic.json"),
                     "--out", str(data)]) == 0
    schema = parse_schema((work / "thermal_schema.json").read_text(encoding="utf-8"))
    rows = load_csv(data, schema)
    write_csv(rows.derive([s for s in rows.samples if s.attributes == ("site_c",)][:200]),
              work / "update.csv")
    base = _thermal5_flags(work)
    assert cli_main(["job", "train", *base, "--data", str(data)]) == 0
    assert cli_main(["job", "eval", *base, "--data", str(data)]) == 0
    assert cli_main(["job", "deploy", *base, "--out", str(work / "snap.json")]) == 0
    return work


@pytest.fixture
def thermal5(thermal5_deployed, tmp_path):
    return Path(shutil.copytree(thermal5_deployed, tmp_path / "thermal5"))


def _thermal5_flags(work) -> list[str]:
    return ["--kb", str(work / "kb"), "--schema", str(work / "thermal_schema.json"),
            "--config", str(work / "thermal_job.json")]


def _rewrite_manifest(work, body: bytes) -> None:
    """Write a manifest of *body*'s bytes under their checksum."""
    (work / "kb" / "index.json").write_bytes(
        b'{"body":%s,"crc32":%d,"format":3}' % (body, zlib.crc32(body)))


def _rewrite_store_model(work, task, payload: bytes) -> Path:
    """Make *payload* the bytes of *task*'s model in the store's manifest,
    under a valid checksum; returns the manifest's path."""
    index = work / "kb" / "index.json"
    body = json.loads(index.read_bytes())["body"]
    next(e for e in body["tasks"] if e["key"] == task)["model"] = "<model>"
    _rewrite_manifest(work, canonical_json_bytes(body).replace(b'"<model>"', payload))
    return index


def _rewrite_snapshot_model(work, task, payload: bytes) -> Path:
    """Make *payload* the bytes of *task*'s model in the snapshot file."""
    path = work / "snap.json"
    doc = json.loads(path.read_bytes())
    doc["tasks"][task]["model"] = "<model>"
    path.write_bytes(canonical_json_bytes(doc).replace(b'"<model>"', payload))
    return path


def _variant(payload: dict, path: tuple, value) -> bytes:
    """The canonical bytes of *payload* with *value* at *path*; a bytes value
    is spliced in as it is, so it may be a literal no encoder writes."""
    _set_at(payload, path, "<value>")
    raw = value if isinstance(value, bytes) else canonical_json_bytes(value)
    return canonical_json_bytes(payload).replace(b'"<value>"', raw)


def _refused(capsys, argv, named, written=()) -> str:
    """Run *argv*: exit 2, an error naming *named*, no traceback, and none of
    *written* changed or created. Returns the error."""
    before = {path: path.read_bytes() if path.exists() else None for path in written}
    capsys.readouterr()
    assert cli_main([str(arg) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(named) in err and "Traceback" not in err
    assert {path: path.read_bytes() if path.exists() else None for path in written} == before
    return err


THRESHOLD = ("parameters", "tree", 0, 1)  # the root split's


@pytest.mark.parametrize("task, path, value", [
    pytest.param("site_b", ("schema_fingerprint",), "0000000000000000", id="fingerprint"),
    pytest.param("site_b", ("schema_fingerprint",), 5, id="int-fingerprint"),
    pytest.param("site_b", ("parameters", "classes"), ["cooler", "nochange", "warmer"],
                 id="permuted-classes"),
    pytest.param("site_b", ("parameters", "classes"), [], id="empty-classes"),
    pytest.param("site_b", ("parameters", "n_features"), 3, id="n_features"),
    pytest.param("site_b", THRESHOLD, b"NaN", id="nan-threshold"),
    pytest.param("site_b", THRESHOLD, b"1e999", id="1e999-threshold"),
    pytest.param("site_a", THRESHOLD, b"NaN", id="nan-threshold-of-the-first-task"),
])
def test_the_store_and_the_edge_refuse_the_same_models_exit_2(thermal5, capsys, task, path, value):
    base, index = _thermal5_flags(thermal5), thermal5 / "kb" / "index.json"
    payload = json.loads((thermal5 / "snap.json").read_bytes())["tasks"][task]["model"]
    variant = _variant(payload, path, value)
    _rewrite_store_model(thermal5, task, variant)
    snap = _rewrite_snapshot_model(thermal5, task, variant)
    out = thermal5 / "preds.csv"
    # a literal no encoder writes fails the manifest's decode, before any task is read
    named = index if isinstance(value, bytes) else f"{index}: bad body: "
    err = _refused(capsys, ["kb", "show", "--kb", thermal5 / "kb"], named, [index])
    assert isinstance(value, bytes) or f"task {task!r}" in err
    _refused(capsys, ["job", "update", *base, "--data", thermal5 / "update.csv",
                      "--out", out], named, [index, out])
    _refused(capsys, ["edge", "infer", *base[2:], "--snapshot", snap,
                      "--data", thermal5 / "data.csv", "--out", out], snap, [out])


def _as_format_1(doc: dict, tasks) -> None:
    """Rewrite the model of each of *tasks* (objects holding a "model") and
    *doc*'s fallback as model format 1 wrote them; their leaf counts, which
    nothing reads, are 0."""
    for entry in tasks:
        entry["model"] = format_1_payload(model_from_json(entry["model"]))
    doc["fallback"] = format_1_payload(model_from_json(doc["fallback"]))


def test_a_store_and_a_snapshot_of_format_1_models_are_refused_exit_2(thermal5, capsys):
    index, snap = thermal5 / "kb" / "index.json", thermal5 / "snap.json"
    body = json.loads(index.read_bytes())["body"]
    reference_fallback = canonical_json_bytes(body["fallback"])
    _as_format_1(body, body["tasks"])
    _rewrite_manifest(thermal5, canonical_json_bytes(body))  # under a valid checksum
    doc = json.loads(snap.read_bytes())
    _as_format_1(doc, doc["tasks"].values())
    snap.write_bytes(canonical_json_bytes(doc))
    for path in (index, snap):
        assert b'"format_version":1' in path.read_bytes()
        assert b'"format_version":2' not in path.read_bytes()
        assert b'"kind":"split"' in path.read_bytes()
    # every reader refuses the file, naming it (a store, the first model it reads), and
    # writes nothing
    base, out, preds = _thermal5_flags(thermal5), thermal5 / "snap2.json", thermal5 / "preds.csv"
    for argv, named, written in (
            (["kb", "show", "--kb", thermal5 / "kb"], index, [index]),
            (["job", "update", *base, "--data", thermal5 / "update.csv", "--out", out],
             index, [index, out]),
            (["edge", "infer", *base[2:], "--snapshot", snap, "--data", thermal5 / "data.csv",
              "--out", preds], snap, [preds])):
        err = _refused(capsys, argv, named, written)
        assert "model format 1 is retired" in err
        assert named == snap or "the fallback: model format 1" in err
    # with a format 2 fallback, the store names the first task it reads
    body["fallback"] = json.loads(reference_fallback)
    _rewrite_manifest(thermal5, canonical_json_bytes(body))
    err = _refused(capsys, ["kb", "show", "--kb", thermal5 / "kb"], index, [index])
    assert f"task {body['tasks'][0]['key']!r}: model format 1 is retired" in err


def test_a_model_nested_past_the_recursion_limit_is_exit_2(thermal5, capsys):
    payload = json.loads((thermal5 / "snap.json").read_bytes())["tasks"]["site_b"]["model"]
    # a split threshold of 5 000 nested lists, written as no encoder would
    variant = _variant(payload, THRESHOLD, b"[" * 5000 + b"]" * 5000)
    index = _rewrite_store_model(thermal5, "site_b", variant)
    snap = _rewrite_snapshot_model(thermal5, "site_b", variant)
    out = thermal5 / "preds.csv"
    for argv, named, written in (
            (["kb", "show", "--kb", thermal5 / "kb"], index, [index]),
            (["edge", "infer", *_thermal5_flags(thermal5)[2:], "--snapshot", snap,
              "--data", thermal5 / "data.csv", "--out", out], snap, [out])):
        assert "maximum recursion depth" in _refused(capsys, argv, named, written)


@pytest.mark.parametrize("classes", [["cooler", "nochange", "warmer"],
                                     ["zz", "nochange", "cooler"], []])
def test_an_edge_refuses_a_model_whose_classes_are_not_its_schemas_exit_2(
        thermal5, capsys, classes):
    payload = json.loads((thermal5 / "snap.json").read_bytes())["tasks"]["site_a"]["model"]
    snap = _rewrite_snapshot_model(
        thermal5, "site_a", _variant(payload, ("parameters", "classes"), classes))
    out = thermal5 / "preds.csv"
    err = _refused(capsys, ["edge", "infer", *_thermal5_flags(thermal5)[2:], "--snapshot", snap,
                            "--data", thermal5 / "data.csv", "--out", out], snap, [out])
    assert f"classes {classes}" in err


@pytest.mark.parametrize("number", [b"NaN", b"1e999", b"-Infinity"])
def test_a_non_finite_number_in_the_manifest_is_exit_2(thermal5, capsys, number):
    index = thermal5 / "kb" / "index.json"
    body = json.loads(index.read_bytes())["body"]
    _rewrite_manifest(thermal5, canonical_json_bytes(body).replace(
        b'"kb_version":%d' % body["kb_version"], b'"kb_version":' + number))
    out = thermal5 / "snap2.json"
    _refused(capsys, ["kb", "show", "--kb", thermal5 / "kb"], index, [index])
    _refused(capsys, ["job", "update", *_thermal5_flags(thermal5),
                      "--data", thermal5 / "update.csv", "--out", out], index, [index, out])

def _update_under_other_edges(work, out) -> tuple[list, Path]:
    """A banded store deployed under band edges [15, 25], and the argv of an
    update under a schema of edges [10, 20], which give the same bucket
    counts; returns that argv and the store's directory."""
    data, config = _banded_data(work / "banded.csv"), work / "banded_job.json"
    config.write_text(JOB_TEXT, encoding="utf-8")
    base = ["--kb", work / "banded_kb", "--config", config,
            "--schema", _banded_schema_file(work / "banded.json", "[15.0, 25.0]")]
    for stage in (["train", "--data", data], ["eval", "--data", data],
                  ["deploy", "--out", work / "banded_snap.json"]):
        assert cli_main([str(a) for a in ["job", stage[0], *base, *stage[1:]]]) == 0
    base[-1] = _banded_schema_file(work / "other_edges.json", "[10.0, 20.0]")
    return ["job", "update", *base, "--data", data, "--out", out], work / "banded_kb"


def test_a_store_that_does_not_hold_its_shape_is_exit_2_and_commits_nothing(tmp_path, capsys):
    out = tmp_path / "update.json"
    argv, kb = _update_under_other_edges(tmp_path, out)
    files = sorted(kb.rglob("*"))
    _refused(capsys, argv, kb / "index.json", [kb / "index.json", out])
    assert sorted(kb.rglob("*")) == files


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


def _two_tick_sim_args(workdir) -> list[str]:
    """`sim run` of a two-tick sim on train.csv into ``simkb``, without --out-dir."""
    (workdir / "sim.json").write_text(json.dumps({
        "edges": 1, "max_ticks": 2, "schema": "schema.json", "job": "job.json",
        "initial_data": "train.csv",
    }), encoding="utf-8")
    return ["sim", "run", "--config", str(workdir / "sim.json"), "--kb", str(workdir / "simkb")]


def test_sim_run_without_out_dir_is_exit_1_and_commits_nothing(workdir, capsys):
    args = _two_tick_sim_args(workdir)
    assert cli_main(args) == 1
    assert "--out-dir" in capsys.readouterr().err
    assert not (workdir / "simkb" / "index.json").exists()
    assert cli_main([*args, "--out-dir", str(workdir / "simout")]) == 0  # the retry runs


@pytest.mark.parametrize("out_dir", ["afile", "afile/sub"])
def test_sim_run_into_an_out_dir_that_cannot_be_a_directory_is_exit_2_and_commits_nothing(
        workdir, capsys, out_dir):
    args = _two_tick_sim_args(workdir)
    (workdir / "afile").write_text("not a directory\n", encoding="utf-8")
    assert cli_main([*args, "--out-dir", str(workdir / out_dir)]) == 2
    err = capsys.readouterr().err
    assert f"--out-dir {workdir / out_dir}: {workdir / 'afile'} is not a directory" in err
    assert not (workdir / "simkb").exists()
    assert cli_main([*args, "--out-dir", str(workdir / "simout")]) == 0  # the retry runs


def test_edge_infer_and_bench_gen_check_their_out_flag_before_any_work(
        workdir, capsys, monkeypatch):
    assert cli_main(["edge", "infer", "--snapshot", str(workdir / "missing.json"),
                     "--schema", str(workdir / "schema.json"),
                     "--data", str(workdir / "test.csv")]) == 1
    assert "--out" in capsys.readouterr().err

    def refused(spec):
        raise AssertionError("bench gen generated data before it checked --out")
    monkeypatch.setattr("edgelearn.bench.gen_synthetic", refused)
    spec = workdir / "synth.json"
    spec.write_text(reference_text("thermal5_synthetic.json"), encoding="utf-8")
    assert cli_main(["bench", "gen", "--config", str(spec)]) == 1
    assert "--out" in capsys.readouterr().err


@pytest.mark.parametrize("bucketing", [{"city": None}, {}])
def test_a_job_config_holding_bucketing_is_exit_2_and_commits_nothing(
        workdir, capsys, bucketing):
    # bucket edges are the schema's: the job config has no key for them
    doc = {**json.loads(JOB_TEXT), "bucketing": bucketing}
    (workdir / "job.json").write_text(json.dumps(doc), encoding="utf-8")
    (workdir / "sim.json").write_text(json.dumps({
        "edges": 1, "max_ticks": 2, "schema": "schema.json", "job": "job.json",
        "initial_data": "train.csv",
    }), encoding="utf-8")
    flags = ["--schema", str(workdir / "schema.json"), "--config", str(workdir / "job.json")]
    for argv in (["job", "train", "--kb", str(workdir / "kb"), *flags,
                  "--data", str(workdir / "train.csv")],
                 ["bench", "run", *flags, "--train", str(workdir / "train.csv"),
                  "--test", str(workdir / "test.csv"), "--out-dir", str(workdir / "bench")],
                 ["sim", "run", "--config", str(workdir / "sim.json"),
                  "--kb", str(workdir / "simkb"), "--out-dir", str(workdir / "simout")]):
        assert cli_main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "job config: unknown key 'bucketing'" in err and "Traceback" not in err
    assert list(workdir.rglob("index.json")) == []


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
