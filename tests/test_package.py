"""Packaging: the library needs nothing beyond the Python standard library, and
the README's config examples parse."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import edgelearn
from edgelearn.data import field_names, load_object, parse_schema
from edgelearn.job import parse_job_config
from edgelearn.sim import SimConfig


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


def test_the_readmes_config_examples_parse():
    # the sim config, the schema and the job config, in the README's order
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    sim, schema, job = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
    job_config = parse_job_config(job, parse_schema(schema))
    assert job_config.bucketing.edges == (None, (10.0, 20.0, 30.0))  # the schema's
    assert load_object(sim, "sim config", (), field_names(SimConfig))["job"] == "job.json"
