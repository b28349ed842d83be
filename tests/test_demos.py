"""The demos, run as scripts in a scratch directory.

``pareto_front_and_metrics.py`` writes its experiment under
``demo-runs/``, relative to the working directory, so each demo runs in
``tmp_path``.  Together they take a few seconds.
"""

import runpy
import sys
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def _run_demo(name, monkeypatch, tmp_path, capsys) -> str:
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))  # a demo may prepend
    monkeypatch.setattr(sys, "argv", [name])  # a demo may read arguments
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    return capsys.readouterr().out


def test_message_flow_walkthrough_runs_on_the_real_wiring(monkeypatch,
                                                          tmp_path, capsys):
    out = _run_demo("message_flow_walkthrough.py", monkeypatch, tmp_path,
                    capsys)
    ledger = out.split("per-mailbox ledger")[1]
    rows = ledger.strip().splitlines()[1:]
    assert [row.split()[0] for row in rows] == [
        "scheduler", "analysis", "share:coarse", "share:fine"]
    assert all(row.endswith("OK") for row in rows)


def test_cooperation_on_a_ridge_compares_both_modes(monkeypatch, tmp_path,
                                                    capsys):
    out = _run_demo("cooperation_on_a_ridge.py", monkeypatch, tmp_path,
                    capsys)
    assert "== independent (sharing off) ==" in out
    assert "== cooperating (sharing on) ==" in out
    assert "independent best" in out and "cooperating best" in out


def test_pareto_front_and_metrics_writes_its_experiment(monkeypatch,
                                                        tmp_path, capsys):
    out = _run_demo("pareto_front_and_metrics.py", monkeypatch, tmp_path,
                    capsys)
    assert "6 runs written under demo-runs/pareto/" in out
    written = tmp_path / "demo-runs" / "pareto"
    assert (written / "metrics.csv").is_file()
    assert sorted(p.name for p in written.iterdir() if p.is_dir()) == [
        f"{mode}-rep{rep:02d}" for mode in ("cooperating", "independent")
        for rep in range(3)]
