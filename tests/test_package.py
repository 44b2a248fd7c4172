"""Packaging: the library needs nothing beyond the Python standard library, the
README's config examples parse and its event list covers the sim's events, and
the benchmark under perfbench/ still binds to the library's names."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import edgelearn
from edgelearn.cli import cli_main
from edgelearn.data import field_names, load_object, parse_schema
from edgelearn.job import parse_job_config
from edgelearn.sim import SimConfig
from edgelearn.tasks import BucketingConfig

from conftest import sim_args


def test_every_absolute_import_is_in_the_standard_library():
    imported = {}  # top-level module -> first "file:line" importing it
    for path in sorted(Path(edgelearn.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.split(".")[0], f"{path.name}:{node.lineno}")
    assert {"json", "dataclasses"} <= imported.keys()  # the walk saw the package's imports
    outside = {top: where for top, where in imported.items()
               if top not in sys.stdlib_module_names}
    assert outside == {}


def test_the_library_and_the_benchmark_parse_at_the_declared_python_floor():
    # nothing runs the oldest Python that pyproject.toml admits: its grammar is checked instead
    root = Path(__file__).resolve().parent.parent
    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    [floor] = re.findall(r'^requires-python = ">=3\.(\d+)"$', pyproject, re.MULTILINE)
    paths = sorted((root / "src" / "edgelearn").glob("*.py")) + sorted(
        (root / "perfbench").glob("*.py"))
    assert len(paths) > 13  # both directories
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, int(floor)))


def test_every_imported_name_is_used():
    unused = []  # "file:line name" of each imported name its module never reads
    for path in sorted(Path(edgelearn.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":  # its imports are the package's exports
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}" for name in bound if name not in used]
    assert unused == []


def test_json_is_decoded_only_by_its_two_readers():
    # stored and shipped documents go through learners.decode_json, config
    # text through data.load_object: a third decoder would bypass their checks
    decoders = set()  # "module.top-level name" of each use of json.load(s)
    for path in sorted(Path(edgelearn.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.ImportFrom) and node.module == "json"
                        or isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                        and isinstance(node.value, ast.Name) and node.value.id == "json"):
                    decoders.add(f"{path.stem}.{getattr(top, 'name', top.lineno)}")
    assert decoders == {"learners.decode_json", "data.load_object"}


def test_an_attribute_kind_is_spelled_only_by_the_schema_codec():
    # in memory an attribute column is its bucket edges or None (categorical);
    # the kind names belong to the schema config's reader and writer alone
    spellers = set()  # "module.top-level name" of each "categorical"/"numeric" literal
    for path in sorted(Path(edgelearn.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Constant) and node.value in ("categorical", "numeric"):
                    spellers.add(f"{path.stem}.{getattr(top, 'name', top.lineno)}")
    assert spellers == {"data.parse_schema", "data.schema_to_json"}


def test_the_readmes_config_examples_parse():
    # the sim config, the schema and the job config, in the README's order
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    sim, schema, job = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
    schema = parse_schema(schema)
    parse_job_config(job, schema)
    assert BucketingConfig.from_schema(schema).edges == (None, (10.0, 20.0, 30.0))
    # the sim config names its schema file beside SimConfig's fields
    sim = load_object(sim, "sim config", ("schema",), field_names(SimConfig))
    assert (sim["schema"], sim["job"]) == ("schema.json", "job.json")


def test_the_readme_lists_every_event_kind_the_sim_logs(sim_dir, capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Simulation\n", 1)[1].split("\n## ", 1)[0]
    assert cli_main(sim_args(sim_dir, "out")) == 0
    lines = (sim_dir / "out" / "events.log").read_text(encoding="utf-8").splitlines()
    logged = {line.split(",", 3)[2] for line in lines}
    assert {"bootstrap", "trigger", "upload_received", "update_completed"} <= logged
    assert logged - set(re.findall(r"`(\w+)`", section)) == set()


def test_the_benchmark_runs_one_traced_round_of_each_workload(tmp_path, monkeypatch):
    # perfbench/ wraps library functions by name and calls them with fixed
    # shapes; a rename or a changed signature fails here, not first in a bench run
    harness = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(harness))
    import scenarios
    import spans
    import workloads

    tests = ast.parse((harness / "test_perfbench.py").read_text(encoding="utf-8"))
    [tiny] = [node.value for node in tests.body if isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == ["TINY"]]
    for name, value in ast.literal_eval(tiny).items():  # the harness tests' sizes
        monkeypatch.setattr(workloads, name, value)
    tracer = spans.Tracer()
    try:  # a failed install leaves what it patched for uninstall to restore
        tracer.install()
        for name, workload in scenarios.WORKLOADS.items():
            (tmp_path / name).mkdir()
            job = workload(1)
            rnd = job.run(job.setup(tmp_path / name), None)
            assert rnd.failed == 0 and rnd.attempted > 0, (name, rnd.outputs)
    finally:
        tracer.uninstall()
    traced = {span.name for span in tracer.finished_spans()}
    assert {"bench.run_bench", "tasks.mine_tasks", "learners.fit", "sim.tick",
            "edge.infer"} <= traced
    assert tracer.counts["kb.commits"] > 0 and tracer.counts["edge.route.known"] > 0
