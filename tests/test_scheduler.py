"""Priority-promotion queue semantics, budget rules and the event log."""

import json
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coopt.scheduler import P_MAX, Budget, EvaluationRequest, PriorityQueues
from oracles import level, level_of, logged_events


def req(solver="s", priority=1):
    return EvaluationRequest(point=None, reply=object(),  # unique per request
                             solver_id=solver, priority_at_enqueue=priority)


def test_enqueue_files_at_own_priority():
    q = PriorityQueues()
    r = req(priority=3)
    q.enqueue(r)
    assert level(q, 3) == (r,)
    assert len(q) == 1


def test_enqueue_same_level_is_fifo():
    q = PriorityQueues()
    r1, r2 = req("a"), req("b")
    q.enqueue(r1)
    q.enqueue(r2)
    assert level(q, 1) == (r1, r2)


def test_enqueue_top_level():
    q = PriorityQueues()
    r = req(priority=P_MAX)
    q.enqueue(r)
    assert level(q, P_MAX)[0] is r


def test_enqueue_rejects_out_of_range_priority():
    q = PriorityQueues()
    with pytest.raises(ValueError):
        q.enqueue(req(priority=0))
    with pytest.raises(ValueError):
        q.enqueue(req(priority=P_MAX + 1))


def test_next_request_prefers_highest_level():
    q = PriorityQueues()
    a, b = req("a", priority=10), req("b", priority=4)
    q.enqueue(a)
    q.enqueue(b)
    assert q.next_request() is a


def test_next_request_promotes_remaining_heads():
    q = PriorityQueues()
    b, c = req("b", priority=4), req("c", priority=4)
    q.enqueue(b)
    q.enqueue(c)
    assert q.next_request() is b
    # c was the remaining head at level 4 and moved up one.
    assert level(q, 4) == ()
    assert level(q, 5) == (c,)


def test_next_request_on_empty_returns_none():
    assert PriorityQueues().next_request() is None


def test_promotion_sweep_is_high_to_low():
    q = PriorityQueues()
    r1, r2 = req("r1"), req("r2")
    r3 = req("r3", priority=2)
    for r in (r1, r2, r3):
        q.enqueue(r)
    q.promote()
    assert level(q, 1) == (r2,)
    assert level(q, 2) == (r1,)
    assert level(q, 3) == (r3,)


def test_promotion_leaves_top_level_alone():
    q = PriorityQueues()
    r = req(priority=P_MAX)
    q.enqueue(r)
    q.promote()
    assert level(q, P_MAX) == (r,)


def test_bottom_request_reaches_top_after_nine_promotions():
    q = PriorityQueues()
    r = req(priority=1)
    q.enqueue(r)
    for step in range(P_MAX - 1):
        assert level_of(q, r) == step + 1
        q.promote()
    assert level_of(q, r) == P_MAX


def test_no_starvation_under_mixed_priorities():
    # Six producers on priorities spread over [1, 10], a thousand requests,
    # two dispatches between arrival bursts: everything must come out.
    rng = np.random.default_rng(5)
    priorities = [1, 2, 4, 6, 9, 10]
    q = PriorityQueues()
    pending = 0
    served = 0
    issued = 0
    while issued < 1000 or pending:
        if issued < 1000:
            for _ in range(rng.integers(1, 4)):
                if issued >= 1000:
                    break
                p = priorities[issued % len(priorities)]
                q.enqueue(req(f"solver-{p}", priority=p))
                issued += 1
                pending += 1
        for _ in range(2):
            if q.next_request() is not None:
                served += 1
                pending -= 1
    assert served == 1000
    assert len(q) == 0


def test_uniform_priority_dispatch_matches_fifo_oracle():
    rng = np.random.default_rng(17)
    q = PriorityQueues()
    oracle = deque()
    dispatched, expected = [], []
    arrivals = 0
    while arrivals < 400 or len(q):
        if arrivals < 400 and rng.random() < 0.6:
            r = req(f"s{arrivals}", priority=5)
            q.enqueue(r)
            oracle.append(r)
            arrivals += 1
        else:
            r = q.next_request()
            if r is not None:
                dispatched.append(r.solver_id)
                expected.append(oracle.popleft().solver_id)
    assert dispatched == expected


def test_budget_validation():
    assert Budget.messages(10).kind == "messages"
    assert Budget.evaluations(5).limit == 5
    with pytest.raises(ValueError):
        Budget("steps", 1)
    with pytest.raises(ValueError):
        Budget.messages(-1)


# ------------------------------------------------------------ event log

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats()
    | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8)
# A dispatch row (evaluator, solver, messages) or any other event, a dict.
# A message count is a machine integer: the log holds [0, 2**63 - 1].
_MESSAGES = st.integers(0, 2**63 - 1)
_ENTRIES = st.lists(st.one_of(
    st.tuples(st.text(), st.text(), _MESSAGES),
    st.dictionaries(st.text(), _JSON, max_size=4)), max_size=25)


@settings(deadline=None, max_examples=300)
@given(entries=_ENTRIES)
# Where rows and dict events meet: nothing, only rows, no rows, rows only
# before the first or only after the last dict event, or both but none
# between.
@example(entries=[])
@example(entries=[("e", "s", 0), ("f", "s", 2**63 - 1)])
@example(entries=[{"a": 1}, {}])
@example(entries=[("e", "s", 1), ("e", "t", 2), {"a": 1}, {}])
@example(entries=[{}, {"a": 1}, ("e", "s", 3), ("f", "s", 4)])
@example(entries=[("e", "s", 5), {}, {"a": 1}, ("e", "s", 6)])
def test_event_log_reads_and_writes_as_a_list_of_dicts(
        entries, tmp_path_factory):
    """Rows mixed with dict events read as the dicts once logged: the same
    length, items and key order, and each written line is ``json.dumps``
    of its event.  Labels are any text: quotes, backslashes, newlines and
    non-ASCII included."""
    log, expected = logged_events(entries)
    assert len(log) == len(expected)
    assert list(log) == expected
    assert [list(e) for e in log] == [list(e) for e in expected]

    path = tmp_path_factory.getbasetemp() / "event-log-property.log"
    log.write(path)
    assert path.read_text(encoding="utf-8").split("\n") == [
        json.dumps(e, sort_keys=True) for e in expected] + [""]


def test_a_message_count_past_2_63_minus_1_raises_and_logs_nothing(tmp_path):
    """The count column holds signed 64-bit integers: 2**63 raises
    ``OverflowError`` rather than wrap, and the log is left as it was."""
    log, expected = logged_events([("e", "s", 2**63 - 1), {"a": 1}])
    with pytest.raises(OverflowError):
        log.dispatch("e", "s", 2**63)
    with pytest.raises(OverflowError):
        log.dispatch("new", "labels", 2**70)
    assert len(log) == 2 and list(log) == expected
    log.dispatch("e", "s", 2**63 - 1)
    expected.append(dict(expected[0], dispatches=2))
    assert list(log) == expected
    log.write(tmp_path / "events.log")
    assert (tmp_path / "events.log").read_text().split("\n") == [
        json.dumps(e, sort_keys=True) for e in expected] + [""]
