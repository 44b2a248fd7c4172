"""Command-line front door.

Exit codes: 0 success, 1 usage error (help printed), 2 runtime error.

Subcommands::

    kb init|show            create / inspect a knowledge base directory
    job train|eval|deploy|update
                            operate a lifelong job against a KB; each call
                            commits its stage and the job phase together
    edge infer|status       one-shot inference against a snapshot file
    sim run                 simulate on a fresh KB: events.log + report.json
    bench gen|run|report    synthetic data, the 3-arm comparison, reports

The flags --seed, --config, and --kb may be given before or after the
subcommand.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import bench as bench_mod
from .data import load_csv, parse_schema, read_text, schema_to_json, write_csv
from .edge import DEFAULT_SIMILARITY_THRESHOLD, EdgeRuntime
from .errors import EdgeLearnError, NoModelError, SchemaMismatchError, SerializationError
from .job import LifelongJob, job_phase, parse_job_config
from .kb import KnowledgeBase, atomic_write_bytes, deserialize_snapshot, serialize_snapshot
from .sim import parse_sim_config, start_sim
from .tasks import BucketingConfig


class _UsageError(Exception):
    def __init__(self, message: str, parser: argparse.ArgumentParser | None = None):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we want exit 1 + help
        raise _UsageError(message, self)


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="override the config seed")
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="config file for the subcommand")
    common.add_argument("--kb", default=argparse.SUPPRESS,
                        help="knowledge base directory")

    parser = _Parser(prog="edgelearn", parents=[common],
                     description="edge-cloud collaborative lifelong learning")
    top = parser.add_subparsers(dest="command", metavar="command")

    kb = top.add_parser("kb", parents=[common], help="knowledge base operations")
    kb_sub = kb.add_subparsers(dest="action", metavar="action")
    kb_sub.add_parser("init", parents=[common], help="create an empty knowledge base")
    show = kb_sub.add_parser("show", parents=[common], help="summarize a knowledge base")
    show.add_argument("--json", action="store_true", help="emit machine-readable output")

    job = top.add_parser("job", parents=[common], help="lifelong job stages")
    job_sub = job.add_subparsers(dest="action", metavar="action")
    for action, needs_data, needs_out in (
        ("train", True, False), ("eval", True, False),
        ("deploy", False, True), ("update", True, True),
    ):
        p = job_sub.add_parser(action, parents=[common])
        p.add_argument("--schema", help="dataset schema config file")
        if needs_data:
            p.add_argument("--data", help="labeled CSV dataset")
        if needs_out:
            p.add_argument("--out", help="snapshot output file")

    edge = top.add_parser("edge", parents=[common], help="edge-side operations")
    edge_sub = edge.add_subparsers(dest="action", metavar="action")
    for action in ("infer", "status"):
        p = edge_sub.add_parser(action, parents=[common])
        p.add_argument("--snapshot", help="deploy snapshot file")
        p.add_argument("--schema", help="dataset schema config file")
        p.add_argument("--data", help="CSV of samples to infer")
        p.add_argument("--out", help="output file")
        p.add_argument("--similarity-threshold", type=float,
                       default=DEFAULT_SIMILARITY_THRESHOLD,
                       help="similar-task routing threshold")

    sim = top.add_parser("sim", parents=[common], help="edge-cloud simulation")
    sim_sub = sim.add_subparsers(dest="action", metavar="action")
    run = sim_sub.add_parser("run", parents=[common])
    run.add_argument("--out-dir", help="directory for events.log and report.json")

    bench = top.add_parser("bench", parents=[common], help="benchmark harness")
    bench_sub = bench.add_subparsers(dest="action", metavar="action")
    gen = bench_sub.add_parser("gen", parents=[common])
    gen.add_argument("--out", help="CSV output path")
    gen.add_argument("--schema-out", help="also write the schema config here")
    brun = bench_sub.add_parser("run", parents=[common])
    brun.add_argument("--schema", help="dataset schema config file")
    brun.add_argument("--train", help="labeled training CSV")
    brun.add_argument("--test", help="labeled test CSV")
    brun.add_argument("--out-dir", help="report output directory")
    breport = bench_sub.add_parser("report", parents=[common])
    breport.add_argument("--summary", help="summary.json from a previous run")

    return parser


def _opt(args, name: str):
    return getattr(args, name, None)


def _require(args, name: str):
    value = _opt(args, name)
    if value is None:
        raise _UsageError(f"missing required flag --{name.replace('_', '-')}")
    return value


def _out_path(args, name: str, required: bool = True, directory: bool = False) -> Path | None:
    """Output flag --*name*'s path (None if absent and not *required*), refused
    (exit 2) before any work if no write there can succeed: a *directory* whose
    nearest existing path is a file, a file that is a directory or whose parent is not."""
    value = _require(args, name) if required else _opt(args, name)
    if value is None:
        return None
    flag, path = "--" + name.replace("_", "-"), Path(value)
    if directory:
        nearest = next(p for p in (path, *path.parents) if p.exists())
        if not nearest.is_dir():
            raise NotADirectoryError(f"{flag} {path}: {nearest} is not a directory")
    elif path.is_dir():
        raise IsADirectoryError(f"{flag} {path}: is a directory")
    elif not path.parent.is_dir():
        raise NotADirectoryError(f"{flag} {path}: {path.parent} is not an existing directory")
    return path


def _load_config(args) -> tuple:
    """(schema, job config) from --schema and --config, with --seed applied."""
    schema = parse_schema(read_text(_require(args, "schema")))
    cfg = parse_job_config(read_text(_require(args, "config")), schema)
    if _opt(args, "seed") is not None:
        cfg = replace(cfg, seed=args.seed)
    return schema, cfg


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------

def _cmd_kb(args) -> int:
    kb_path = _require(args, "kb")
    if args.action == "init":
        kb = KnowledgeBase.open(kb_path)
        kb.save()
        print(f"initialized knowledge base at {kb_path} (version {kb.kb_version})")
        return 0
    if args.action == "show":
        kb = KnowledgeBase.open(kb_path, create=False)
        phase = job_phase(kb.job).value
        if _opt(args, "json"):
            doc = {
                "job_phase": phase,
                "kb_version": kb.kb_version,
                "schema_fingerprint": kb.schema_fingerprint,
                "fallback_present": kb.fallback is not None,
                "tasks": [
                    {"key": k, "version": r.version, "status": r.status,
                     "samples": r.samples}
                    for k, r in sorted(kb.records.items())
                ],
            }
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            print(f"knowledge base {kb_path}: version {kb.kb_version}, "
                  f"job phase {phase}, {len(kb.records)} tasks, "
                  f"fallback {'present' if kb.fallback is not None else 'absent'}")
            for key, rec in sorted(kb.records.items()):
                acc = f" acc={rec.eval.accuracy:.4f}" if rec.eval is not None else ""
                print(f"  {key}: v{rec.version} {rec.status} "
                      f"n={rec.samples}{acc}")
        return 0
    raise _UsageError("kb needs an action: init | show")


def _cmd_job(args) -> int:
    if args.action not in ("train", "eval", "deploy", "update"):
        raise _UsageError("job needs an action: train | eval | deploy | update")
    schema, cfg = _load_config(args)
    out = _out_path(args, "out") if args.action in ("deploy", "update") else None
    job = LifelongJob(cfg, KnowledgeBase.open(_require(args, "kb")))
    if args.action == "train":
        records = job.run_train(load_csv(_require(args, "data"), schema))
        print(f"trained {len(records)} task models (kb version {job.kb.kb_version})")
        for rec in records:
            print(f"  {rec.key}: v{rec.version} n={rec.samples}")
    elif args.action == "eval":
        report = job.run_eval(load_csv(_require(args, "data"), schema))
        for outcome in report.outcomes:
            verdict = "pass" if outcome.passed else f"fail({outcome.reason})"
            acc = f" acc={outcome.metrics.accuracy:.4f}" if outcome.metrics else ""
            print(f"  {outcome.key}: {verdict}{acc}")
        if report.fallback_metrics is not None:
            print(f"  fallback: acc={report.fallback_metrics.accuracy:.4f}")
    else:  # deploy | update; a failed --out write rolls the stage back
        with job.kb.transaction():
            if args.action == "deploy":
                snapshot = job.run_deploy()
            else:
                snapshot = job.run_update_cycle(load_csv(_require(args, "data"), schema))
            atomic_write_bytes(out, serialize_snapshot(snapshot))
        print(f"{args.action}: snapshot v{snapshot.snapshot_version} "
              f"({len(snapshot.tasks)} tasks) to {out}")
    return 0


def _cmd_edge(args) -> int:
    if args.action not in ("infer", "status"):
        raise _UsageError("edge needs an action: infer | status")
    out = _out_path(args, "out", required=args.action == "infer")
    schema = parse_schema(read_text(_require(args, "schema")))
    runtime = EdgeRuntime(schema, BucketingConfig.from_schema(schema),
                          similarity_threshold=args.similarity_threshold)
    path = _require(args, "snapshot")
    try:  # a snapshot the edge refuses is named by its file
        runtime.apply_snapshot(deserialize_snapshot(Path(path).read_bytes()))
    except (SerializationError, SchemaMismatchError) as exc:
        raise type(exc)(f"snapshot file {path}: {exc}") from None
    data = load_csv(_require(args, "data"), schema)

    rows = []
    for i, sample in enumerate(data.samples):
        try:
            pred = runtime.infer(sample)
        except NoModelError as exc:
            rows.append([str(i), "", "no-model", "", "", str(exc)])
            continue
        rows.append([
            str(i), pred.label, pred.route,
            pred.task_key or "",
            repr(pred.similarity) if pred.similarity is not None else "",
            "",
        ])

    if args.action == "infer":
        text = io.StringIO()
        writer = csv.writer(text)
        writer.writerow(["index", "label", "route", "task_key", "similarity", "error"])
        writer.writerows(rows)
        atomic_write_bytes(out, text.getvalue().encode("utf-8"))
        print(f"wrote {len(rows)} predictions to {out}")
    else:
        text = runtime.status_json()
        if out:
            atomic_write_bytes(out, (text + "\n").encode("utf-8"))
        print(text)
    return 0


def _cmd_sim(args) -> int:
    if args.action != "run":
        raise _UsageError("sim needs an action: run")
    config_path = Path(_require(args, "config"))
    cfg = parse_sim_config(read_text(config_path), config_path.parent)
    if _opt(args, "seed") is not None:
        cfg = replace(cfg, job=replace(cfg.job, seed=args.seed))
    kb, out_dir = _require(args, "kb"), _out_path(args, "out_dir", directory=True)
    report = start_sim(cfg, kb).run_to_completion()
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_bytes(out_dir / "events.log", report.events_text().encode("utf-8"))
    atomic_write_bytes(out_dir / "report.json", (report.to_json() + "\n").encode("utf-8"))
    print(f"simulated {cfg.max_ticks} ticks over {cfg.edges} edge(s): "
          f"{len(report.events)} events, kb version {report.kb_summary['kb_version']}")
    return 0


def _cmd_bench(args) -> int:
    if args.action == "gen":
        spec = bench_mod.parse_synthetic_spec(read_text(_require(args, "config")))
        if _opt(args, "seed") is not None:
            spec = replace(spec, seed=args.seed)
        out, schema_out = _out_path(args, "out"), _out_path(args, "schema_out", required=False)
        dataset = bench_mod.gen_synthetic(spec)
        write_csv(dataset, out)
        print(f"generated {len(dataset)} samples over {len(spec.tasks)} tasks to {out}")
        if schema_out:
            schema_out.write_text(schema_to_json(spec.schema) + "\n", encoding="utf-8")
        return 0
    if args.action == "run":
        schema, cfg = _load_config(args)
        out_dir = _out_path(args, "out_dir", directory=True)
        train = load_csv(_require(args, "train"), schema)
        test = load_csv(_require(args, "test"), schema)
        result = bench_mod.run_bench(train, test, cfg, work_dir=out_dir)
        files = bench_mod.emit_report(result, out_dir)
        print(bench_mod.format_report_text(result), end="")
        print("reports: " + ", ".join(str(f) for f in files))
        return 0
    if args.action == "report":
        result = bench_mod.parse_summary(_require(args, "summary"))
        print(bench_mod.format_report_text(result), end="")
        return 0
    raise _UsageError("bench needs an action: gen | run | report")


_HANDLERS = {
    "kb": _cmd_kb,
    "job": _cmd_job,
    "edge": _cmd_edge,
    "sim": _cmd_sim,
    "bench": _cmd_bench,
}


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help
            return int(exc.code or 0)
        if _opt(args, "command") is None:
            parser.print_help(sys.stderr)
            return 1
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        target = exc.parser if exc.parser is not None else parser
        target.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EdgeLearnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(argv=None))
