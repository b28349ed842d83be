"""The run-directory writer against the renderers it replaced.

``write_run_dir`` renders each float once and builds report.json, the CSVs
and the improvement lines of events.log from those texts.  Its bytes must
be the ones the plain renderers give (``tests/oracles.py``):
``json.dumps(summary, sort_keys=True)``, ``csv.writer`` over
``repr(float(v))`` cells, and one ``json.dumps(event, sort_keys=True)``
per event.  ``coopt report`` must regenerate the same CSVs, and a Python
without the C JSON encoder must write the same bytes.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopt.analysis import MULTI, SINGLE, Archive
from coopt.cli import main as cli_main
from coopt.core import Evaluation, freeze_point
from coopt.harness import RunReport, preset_config, run_once, write_run_dir
from coopt.messaging import Mailbox
from coopt.scheduler import Budget, RunRecord
from oracles import logged_rows, run_dir_bytes

FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                     4.9e-310, 1e300, -1e300, 1e-300, -1e-300, math.inf,
                     -math.inf, math.nan, 0.1, 1.0, -2.5]),
    st.floats())
LABELS = st.one_of(
    st.sampled_from(["", ",", '"', 'a,"b"', "x\r\ny", "\r", "\n", " ",
                     "é☃", "\U0001f600", "ga-small"]),
    st.text(max_size=6))
STEPS = ("dispatch", "improvement", "broadcast", "refusal",
         "solver-improvement")


@st.composite
def reports(draw):
    """A run report of 1 or 2 objectives, its archive aborted, empty or
    holding members, with extreme floats and awkward labels throughout."""
    n_obj = draw(st.sampled_from([1, 2]))
    n_dim = draw(st.integers(1, 3))
    labels = draw(st.lists(LABELS, min_size=1, max_size=3, unique=True))

    def floats(n):
        return draw(st.lists(FLOATS, min_size=n, max_size=n))

    def evaluation():
        return Evaluation(freeze_point(floats(n_dim)), tuple(floats(n_obj)),
                          draw(FLOATS), draw(st.sampled_from(labels)),
                          draw(st.integers(-1, 2**40)))

    record = RunRecord(mailboxes=[Mailbox(2, name=draw(LABELS))])
    record.run_start(draw(LABELS), draw(LABELS), draw(st.integers(0, 99)),
                     labels, [freeze_point(floats(n_dim))])
    record.evaluator(draw(LABELS))
    for step in draw(st.lists(st.sampled_from(STEPS), max_size=12)):
        record.messages += draw(st.integers(0, 3))
        if step == "dispatch":
            record.dispatch(draw(LABELS), draw(st.sampled_from(labels)))
        elif step == "improvement":
            record.improvement(evaluation())
        elif step == "broadcast":
            record.broadcast(draw(st.integers(-1, 99)), len(labels))
        elif step == "refusal":
            record.refusal(draw(st.sampled_from(labels)))
        else:
            record.solver_improvement(draw(st.sampled_from(labels)),
                                      draw(LABELS), evaluation())
    record.terminated()
    record.close()

    archive = None
    kind = draw(st.sampled_from(["aborted", "empty", "members"]))
    if kind != "aborted":
        archive = Archive(SINGLE if n_obj == 1 else MULTI)
    if kind == "members":
        if n_obj == 1:
            archive.best = evaluation()
        else:
            members = [evaluation() for _ in range(draw(st.integers(1, 4)))]
            archive._front.update(dict.fromkeys(members))

    classes = {label: draw(LABELS) for label in labels}
    return RunReport(
        problem=draw(LABELS), mode=draw(LABELS),
        rep_index=draw(st.integers(0, 99)), sharing=draw(st.booleans()),
        archive=archive, solver_classes=classes,
        per_solver_evaluations=record.per_solver_evaluations(),
        counters=record.counters(),
        metrics_row=draw(st.none() | st.dictionaries(LABELS, FLOATS,
                                                     max_size=3)),
        wall_time=draw(FLOATS), valid=draw(st.booleans()),
        error=draw(LABELS), events=record.events)


@settings(deadline=None, max_examples=200)
@given(reports())
def test_run_dir_bytes_equal_the_first_renderers(report):
    expected = run_dir_bytes(report)
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = write_run_dir(Path(tmp) / "run", report)
        assert {name: (run_dir / name).read_bytes()
                for name in expected} == expected
        for name in ("trace.csv", "archive.csv"):
            (run_dir / name).unlink()
        assert cli_main(["report", str(run_dir)]) == 0
        for name in ("trace.csv", "archive.csv"):
            assert (run_dir / name).read_bytes() == expected[name]


def test_float_texts_cover_every_spelling():
    # The values whose CSV and JSON spellings differ, or which repr and
    # json.dumps could tell apart, in one trace row and one member.
    values = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300]
    record = RunRecord(mailboxes=[])
    member = Evaluation(freeze_point(values), (math.inf, -0.0), math.nan,
                        "s", 1)
    record.improvement(member)
    archive = Archive(MULTI)
    archive._front[member] = None
    report = RunReport(
        problem="p", mode="m", rep_index=0, sharing=True, archive=archive,
        solver_classes={"s": "GA"},
        per_solver_evaluations={}, counters=record.counters(),
        metrics_row=None, wall_time=np.float64(0.5), valid=True, error="",
        events=record.events)
    expected = run_dir_bytes(report)
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = write_run_dir(tmp, report)
        written = {name: (run_dir / name).read_bytes() for name in expected}
    assert written == expected
    assert b"nan,inf,-inf,-0.0,5e-324,1e+300,inf,-0.0,nan,s,1" \
        in written["archive.csv"]
    assert b'"point": [NaN, Infinity, -Infinity, -0.0, 5e-324, 1e+300]' \
        in written["report.json"]
    assert b'"g": NaN' in written["events.log"]


def without_the_c_encoder(monkeypatch):
    """Hide the C accelerator from ``json``, as on a Python without it: its
    ``json.dumps`` then takes the pure-Python route."""
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)


@pytest.mark.parametrize("preset, problem, budget, rows", [
    ("hen-protocol", "sphere-3", Budget.messages(1_500),
     {"dispatch", "improvement", "solver-improvement"}),
    ("mutas-protocol", "biobj-quadratic-3", Budget.evaluations(400),
     {"dispatch", "improvement", "broadcast"}),
])
def test_the_pure_python_encoder_writes_the_same_files(tmp_path, monkeypatch,
                                                       preset, problem,
                                                       budget, rows):
    report = run_once(preset_config(preset, problem, budget=budget, seed=1),
                      0)
    assert rows <= {e["event"] for e in report.events}

    def files(run_dir):
        write_run_dir(run_dir, report)
        return {path.name: path.read_bytes() for path in run_dir.iterdir()}

    with_c = files(tmp_path / "c")
    without_the_c_encoder(monkeypatch)
    assert files(tmp_path / "python") == with_c
    assert len(with_c) == 4


def test_the_pure_python_encoder_writes_the_same_log(tmp_path, monkeypatch):
    values = [math.nan, math.inf, -math.inf, -0.0, 5e-324]
    log, _ = logged_rows([
        ("append", ({"event": "run-start", "problem": "é☃",
                     "initial_population": [values]},)),
        ("dispatch", ("évaluateur", "\U0001f600", 2**63 - 1)),
        ("improvement", (1, "é☃", values, math.nan, 2, 1)),
        ("broadcast", (1, -2**63)),
        ("solver_improvement", ("\U0001f600", "MH", 2, [-0.0, math.inf])),
        ("append", ({"event": "mailbox", "mailbox": "\x00\n",
                     "x": -math.inf},)),
    ])
    log.write(tmp_path / "c.log")
    without_the_c_encoder(monkeypatch)
    log.write(tmp_path / "python.log")
    assert (tmp_path / "python.log").read_bytes() \
        == (tmp_path / "c.log").read_bytes()
