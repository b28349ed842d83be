"""Output checks and fingerprints for one written run directory.

Every check reads what ``write_run_dir`` wrote (plus the in-memory report
for the counters), so a benchmark run is only counted as correct when the
files a user would read are right.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from coopt.core import dominates


def fingerprint(run_dir: Path) -> str:
    """SHA-256 over trace.csv followed by archive.csv."""
    digest = hashlib.sha256()
    for name in ("trace.csv", "archive.csv"):
        digest.update((run_dir / name).read_bytes())
    return digest.hexdigest()


def _column(path: Path, name: str) -> list[float]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [float(row[name]) for row in csv.DictReader(fh)]


def _mutually_non_dominated(archive) -> bool:
    front = archive.front
    if not all(m.feasible for m in front):
        return not any(dominates(a, b) for a in front for b in front)
    rows = sorted(m.objectives for m in front)
    # Sorted by (z1, z2), a 2-D front is mutually non-dominated iff z1 rises
    # and z2 falls strictly from each member to the next.
    return all(b[0] > a[0] and b[1] < a[1] for a, b in zip(rows, rows[1:]))


def check_run(report, run_dir: Path, multi: bool, budget) -> list[str]:
    """Names of the checks this run failed; empty when all passed."""
    failures = []
    summary = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    if not (report.valid and summary["valid"] and not summary["error"]):
        failures.append(f"report invalid: {summary['error']!r}")

    mailboxes = [e for e in report.events if e.get("event") == "mailbox"]
    if not mailboxes:
        failures.append("no mailbox records")
    for mb in mailboxes:
        if mb["puts"] != mb["takes"] + mb["drops"] + mb["queued"]:
            failures.append(f"mailbox ledger broken: {mb['mailbox']}")

    counters = summary["counters"]
    # An evaluation budget is exact; a message budget may overshoot by the
    # replies still in flight at shutdown.
    if budget.kind == "evaluations":
        if counters.get("dispatches") != budget.limit:
            failures.append(f"dispatches {counters.get('dispatches')} "
                            f"!= {budget.limit}")
    elif counters.get("messages", 0) < budget.limit:
        failures.append(f"messages {counters.get('messages')} < {budget.limit}")

    if multi:
        if report.archive is None or not report.archive.front:
            failures.append("empty front")
        elif not _mutually_non_dominated(report.archive):
            failures.append("front not mutually non-dominated")
        elif summary["front_size"] != len(_column(run_dir / "archive.csv", "z1")):
            failures.append("archive.csv row count != front size")
    else:
        archive_z = _column(run_dir / "archive.csv", "z1")
        trace_z = _column(run_dir / "trace.csv", "z1")
        if len(archive_z) != 1 or not trace_z \
                or archive_z[0] != min(trace_z) \
                or not math.isfinite(archive_z[0]):
            failures.append("archive best != trace minimum")
    return failures
