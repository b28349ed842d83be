"""``EventLog`` against the dicts its events were once logged as.

The log keeps dispatch, improvement, broadcast and solver-improvement
events as rows of column tables and every other event as its dict.  Read
back, each event must be the dict ``RunRecord`` once built for it
(``tests/oracles.py``), in order, and ``write`` must give one
``json.dumps(event, sort_keys=True)`` line per event.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopt.core import Evaluation, freeze_point
from coopt.harness import RunReport, write_run_dir
from coopt.scheduler import RunRecord
from oracles import logged_rows

FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, math.inf,
                     -math.inf, math.nan, 1.5]),
    st.floats())
INTS = st.one_of(st.sampled_from([0, -1, 2**63 - 1, -2**63]),
                 st.integers(-2**63, 2**63 - 1))
LABELS = st.one_of(
    st.sampled_from(["", '"', "\\", "ga-small", "é☃", "\U0001f600",
                     "\x00\n\t", "evaluator-0"]),
    st.text(max_size=6))
Z = st.integers(1, 2).flatmap(
    lambda n: st.lists(FLOATS, min_size=n, max_size=n))
DICTS = st.one_of(
    st.builds(lambda *v: {"event": "run-start", "problem": v[0],
                          "initial_population": [v[1]]},
              LABELS, st.lists(FLOATS, max_size=3)),
    st.builds(lambda s: {"event": "refusal", "solver": s}, LABELS),
    st.builds(lambda n: {"event": "terminated", "messages": n}, INTS),
    st.builds(lambda e, n: {"event": "evaluator", "evaluator": e,
                            "requests": n}, LABELS, INTS),
    st.builds(lambda m, x: {"event": "mailbox", "mailbox": m, "x": x},
              LABELS, FLOATS),
)
STEPS = st.one_of(
    st.tuples(st.just("dispatch"), st.tuples(LABELS, LABELS, INTS)),
    st.tuples(st.just("improvement"),
              st.tuples(INTS, LABELS, INTS, INTS, FLOATS, Z)),
    st.tuples(st.just("broadcast"), st.tuples(INTS, INTS)),
    st.tuples(st.just("solver_improvement"),
              st.tuples(INTS, LABELS, LABELS, Z)),
    st.tuples(st.just("append"), st.tuples(DICTS)),
)


def same(a, b):
    # repr tells NaN equal to NaN, -0.0 from 0.0, 1 from 1.0 and one key
    # order from another, all of which ``==`` misses.
    return repr(a) == repr(b)


@settings(deadline=None, max_examples=300)
@given(st.lists(STEPS, max_size=40))
def test_log_reads_and_writes_as_the_dicts_it_replaced(tmp_path_factory,
                                                       steps):
    log, expected = logged_rows(steps)
    assert len(log) == len(expected)
    assert same(list(log), expected)
    improvements = [e for e in expected if e["event"] == "improvement"]
    assert same(list(log.improvements()), improvements)
    assert log.improvement_count() == len(improvements)
    path = tmp_path_factory.mktemp("log") / "events.log"
    log.write(path)
    assert path.read_bytes() == "".join(
        json.dumps(e, sort_keys=True) + "\n" for e in expected).encode()


BEFORE = [
    ("dispatch", ("e", "s", 3)),
    ("improvement", (1, "s", 3, 1, -1.0, [0.5, 2.0])),
    ("broadcast", (1, 4)),
    ("solver_improvement", (1, "s", "MH", [0.5])),
    ("append", ({"event": "refusal", "solver": "s"},)),
]
AFTER = [
    ("dispatch", ("e", "t", 5)),
    ("improvement", (2, "t", 5, 2, 0.0, [0.25, 1.0])),
    ("broadcast", (2, 4)),
    ("solver_improvement", (2, "t", "DS", [0.25])),
]


@pytest.mark.parametrize("method, args", [
    pytest.param("dispatch", ("e", "s", 2**63), id="dispatch-messages"),
    pytest.param("improvement", (2**63, "s", 1, 1, 0.0, [1.0]),
                 id="improvement-seq"),
    pytest.param("improvement", (1, "s", 1, -2**63 - 1, 0.0, [1.0]),
                 id="improvement-dispatches"),
    pytest.param("improvement", (1, "s", 1, 1, None, [1.0]),
                 id="improvement-g"),
    pytest.param("improvement", (1, "s", 1, 1, 0.0, [1.0, "2"]),
                 id="improvement-z"),
    pytest.param("broadcast", (1, 2**63), id="broadcast-delivered"),
    pytest.param("solver_improvement", (2**63, "s", "MH", [1.0]),
                 id="solver-improvement-seq"),
    pytest.param("solver_improvement", (1, "s", "MH", ["1"]),
                 id="solver-improvement-z"),
])
def test_a_row_its_columns_cannot_hold_is_not_logged(tmp_path, method, args):
    log, _ = logged_rows(BEFORE)
    with pytest.raises((OverflowError, TypeError)):
        getattr(log, method)(*args)
    # The log goes on with every kind's columns in step.
    for step, step_args in AFTER:
        getattr(log, step)(*step_args)
    _, expected = logged_rows(BEFORE + AFTER)
    assert same(list(log), expected)
    log.write(tmp_path / "events.log")
    assert (tmp_path / "events.log").read_text().splitlines() == [
        json.dumps(e, sort_keys=True) for e in expected]


def test_int_objectives_are_logged_as_floats(tmp_path):
    # ``evaluate_model`` makes floats only; a hand-built evaluation can
    # hold ints, which the log's double columns read back as floats.
    record = RunRecord(mailboxes=[])
    evaluation = Evaluation(freeze_point([0.5]), (1, 2), 0, "s", 7)
    record.improvement(evaluation)
    record.solver_improvement("s", "MH", Evaluation(
        freeze_point([0.5]), (3,), 0, "s", 8))
    improvement, best = list(record.events)
    assert same((improvement["z"], improvement["g"]), ([1.0, 2.0], 0.0))
    assert same(best["z"], [3.0])
    report = RunReport(
        problem="p", mode="m", rep_index=0, sharing=False, archive=None,
        solver_classes={"s": "MH"}, per_solver_evaluations={},
        counters=record.counters(), metrics_row=None, wall_time=0.0,
        valid=True, error="", events=record.events)
    assert same(report.trace[0]["z"], [1.0, 2.0])
    write_run_dir(tmp_path, report)
    assert (tmp_path / "events.log").read_text().splitlines() == [
        '{"dispatches": 0, "event": "improvement", "g": 0.0, '
        '"messages": 0, "seq": 7, "solver": "s", "z": [1.0, 2.0]}',
        '{"class": "MH", "event": "solver-improvement", "seq": 8, '
        '"solver": "s", "z": [3.0]}']
    assert (tmp_path / "trace.csv").read_text().splitlines()[1] \
        == "7,0,0,1.0,2.0,s,MH"

