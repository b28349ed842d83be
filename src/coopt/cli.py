"""Command-line front end: run experiments, list presets, score archives.

Subcommands::

    coopt run <config>        run the experiment described by a config file
    coopt presets             list the built-in experiment presets
    coopt metrics <archive>   front measures for an archive.csv
    coopt report <run-dir>    regenerate trace.csv/archive.csv from report.json
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from coopt.harness import (
    PRESETS,
    ConfigError,
    load_config,
    run_experiment,
    write_run_csvs,
)
from coopt.metrics import front_measures


class InputError(Exception):
    """A command's input is unusable; ``main`` prints it and returns 2."""


def _parse_point(text: str, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise InputError(f"{flag} expects z1,z2 — got {text!r}") from None
    if len(values) != 2:
        raise InputError(f"{flag} expects exactly two values")
    return values


def _read_objectives(path) -> list[tuple[float, ...]]:
    """The z1[,z2] columns of a CSV written by the harness (or compatible)."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            columns = [c for c in (reader.fieldnames or [])
                       if c.startswith("z")]
            if not columns:
                raise InputError(f"{path} has no z1/z2 columns")
            try:
                return [tuple(float(row[c]) for c in columns)
                        for row in reader]
            except (TypeError, ValueError) as exc:  # a short row gives None
                raise InputError(f"{path} line {reader.line_num}: {exc}") \
                    from None
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(exc) from None


def _cmd_run(args) -> int:
    try:
        summary = run_experiment(load_config(args.config))
    except OSError as exc:  # an unreadable config, an unusable output_dir
        raise InputError(exc) from None
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 1 if summary["failures"] else 0


def _cmd_presets(_args) -> int:
    for name, preset in sorted(PRESETS.items()):
        print(f"{name}: {preset.summary}")
    return 0


def _cmd_metrics(args) -> int:
    points = _read_objectives(args.archive)
    if not points:
        raise InputError("archive is empty")
    measures = front_measures(
        points,
        reference=_parse_point(args.ref, "--ref") if args.ref else None,
        utopia=_parse_point(args.utopia, "--utopia") if args.utopia else None,
        front=_read_objectives(args.front) if args.front else None)
    writer = csv.writer(sys.stdout)
    writer.writerow(["measure", "value"])
    for measure, value in measures.items():
        writer.writerow([measure, repr(float(value))])
    return 0


def _cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    report_path = run_dir / "report.json"
    try:
        with open(report_path, encoding="utf-8") as fh:
            summary = json.load(fh)
        write_run_csvs(run_dir, summary)
    except OSError as exc:
        raise InputError(exc) from None
    except (KeyError, TypeError, ValueError) as exc:  # ValueError: bad JSON
        raise InputError(f"{report_path} is not a run report "
                         f"({type(exc).__name__}: {exc})") from None
    print(f"wrote {run_dir / 'trace.csv'} and {run_dir / 'archive.csv'}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coopt",
        description="cooperating-solver optimization experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the experiment in a config file")
    p_run.add_argument("config", help="path to a key = value config file")
    p_run.set_defaults(func=_cmd_run)

    p_presets = sub.add_parser("presets", help="list experiment presets")
    p_presets.set_defaults(func=_cmd_presets)

    p_metrics = sub.add_parser(
        "metrics", help="front measures for an archive.csv")
    p_metrics.add_argument("archive", help="CSV with z1[,z2] columns")
    p_metrics.add_argument("--front", help="true-front CSV (z1,z2 columns)")
    p_metrics.add_argument("--utopia", help="utopia point as z1,z2")
    p_metrics.add_argument("--ref", help="hypervolume reference as z1,z2")
    p_metrics.set_defaults(func=_cmd_metrics)

    p_report = sub.add_parser(
        "report", help="regenerate CSVs from a run directory's report.json")
    p_report.add_argument("run_dir")
    p_report.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
