"""The demos that finish in about a second, run as scripts.

``cooperation_on_a_ridge.py`` and ``pareto_front_and_metrics.py`` make full
preset runs and stay out of the test run.
"""

import runpy
import sys
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_message_flow_walkthrough_runs_on_the_real_wiring(monkeypatch,
                                                          capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the demo prepends
    runpy.run_path(str(DEMOS / "message_flow_walkthrough.py"),
                   run_name="__main__")
    ledger = capsys.readouterr().out.split("per-mailbox ledger")[1]
    rows = ledger.strip().splitlines()[1:]
    assert [row.split()[0] for row in rows] == [
        "scheduler", "analysis", "share:coarse", "share:fine"]
    assert all(row.endswith("OK") for row in rows)
