"""Archive update semantics and the analysis agent loop."""

import asyncio

import numpy as np
import pytest

from coopt.analysis import MULTI, SINGLE, Archive, analysis_loop, update_archive
from coopt.core import Evaluation, freeze_point
from coopt.messaging import Mailbox, MailboxClosed, Message, MessageKind
from coopt.scheduler import RunRecord
from oracles import brute_force_front, objective_key


def ev(z, g=-1.0, seq=-1, solver="s"):
    z = (z,) if np.isscalar(z) else tuple(z)
    return Evaluation(freeze_point(np.zeros(1)), z, g, solver, seq)


def front_keys(members):
    return {objective_key(e) for e in members}


# ------------------------------------------------------- update_archive

def test_single_improvement_replaces_best():
    a = Archive(SINGLE)
    assert update_archive(a, ev(5.0))
    assert update_archive(a, ev(4.0))
    assert a.best.objectives == (4.0,)


def test_single_worse_point_ignored():
    a = Archive(SINGLE)
    update_archive(a, ev(5.0))
    assert not update_archive(a, ev(6.0))
    assert a.best.objectives == (5.0,)


def test_single_tie_is_not_improvement():
    a = Archive(SINGLE)
    update_archive(a, ev(5.0))
    assert not update_archive(a, ev(5.0))


def test_multi_inserts_mutually_nondominated():
    a = Archive(MULTI)
    update_archive(a, ev((1.0, 3.0)))
    update_archive(a, ev((3.0, 1.0)))
    assert update_archive(a, ev((2.0, 2.0)))
    assert front_keys(a.front) == {((1.0, 3.0), -1.0), ((3.0, 1.0), -1.0),
                                   ((2.0, 2.0), -1.0)}


def test_multi_dominating_point_sweeps_front():
    a = Archive(MULTI)
    update_archive(a, ev((1.0, 3.0)))
    update_archive(a, ev((3.0, 1.0)))
    assert update_archive(a, ev((0.0, 0.0)))
    assert front_keys(a.front) == {((0.0, 0.0), -1.0)}


def test_multi_duplicate_keeps_first_arrival():
    a = Archive(MULTI)
    first = ev((2.0, 2.0), seq=1)
    update_archive(a, first)
    assert not update_archive(a, ev((2.0, 2.0), seq=2))
    assert a.front == [first]


def test_feasible_point_evicts_infeasible_members():
    a = Archive(MULTI)
    update_archive(a, ev((0.0, 0.0), g=2.0))
    update_archive(a, ev((9.0, 9.0), g=-1.0))
    assert all(e.feasible for e in a.front)


def test_update_is_true_once_per_improvement():
    a = Archive(SINGLE)
    improved = [update_archive(a, ev(z)) for z in (5.0, 4.0, 4.5, 3.0, 3.0)]
    assert improved == [True, True, False, True, False]
    assert a.best.objectives == (3.0,)


def test_multi_archive_matches_brute_force_filter():
    rng = np.random.default_rng(29)
    stream = [ev(tuple(np.round(rng.uniform(0, 1, 2), 2)), seq=i)
              for i in range(500)]
    a = Archive(MULTI)
    for e in stream:
        update_archive(a, e)
    assert front_keys(a.front) == front_keys(brute_force_front(stream))


# --------------------------------------------------------- agent loop

def run(coro):
    return asyncio.run(coro)


async def _drive(stream, mode=SINGLE):
    inbox = Mailbox(8, name="analysis")
    sched = Mailbox(64, name="scheduler")
    archive, record = Archive(mode), RunRecord(mailboxes=[])
    task = asyncio.ensure_future(analysis_loop(inbox, sched, archive, record))
    for e in stream:
        await inbox.put(Message(MessageKind.ANALYSESOLUTION, "eval", e))
    reply = asyncio.get_running_loop().create_future()
    await inbox.put(Message(MessageKind.RETRIEVEBEST, "test", reply))
    final = await reply
    assert final is archive  # handed over itself: nothing changes it now
    inbox.close()
    with pytest.raises(MailboxClosed):  # the agent's normal end
        await task
    notifications = []
    while (m := sched.take_nowait()) is not None:
        notifications.append(m)
    # The open inbox took every one.
    assert not record.events.improvement_count()
    return final, notifications


def test_loop_notifies_once_per_improvement():
    snapshot, notes = run(_drive([ev(5.0), ev(5.0), ev(5.0)]))
    assert len(notes) == 1
    assert snapshot.best.objectives == (5.0,)


def test_loop_decreasing_stream_notifies_each_time():
    _, notes = run(_drive([ev(5.0), ev(4.0), ev(3.0)]))
    assert [n.content.objectives[0] for n in notes] == [5.0, 4.0, 3.0]
    assert all(n.kind is MessageKind.ANALYSESOLUTION for n in notes)


def test_loop_snapshot_equals_brute_force_filter():
    rng = np.random.default_rng(31)
    stream = [ev(tuple(rng.uniform(0, 1, 2)), seq=i) for i in range(300)]
    snapshot, _ = run(_drive(stream, mode=MULTI))
    assert front_keys(snapshot.front) == front_keys(brute_force_front(stream))


def test_loop_survives_closed_scheduler_inbox():
    """An improvement that meets the closed inbox is recorded all the same."""
    record = RunRecord(mailboxes=[])

    async def go():
        inbox = Mailbox(8)
        sched = Mailbox(2)
        sched.close()
        task = asyncio.ensure_future(
            analysis_loop(inbox, sched, Archive(SINGLE), record))
        for seq, z in enumerate((2.0, 3.0, 1.0), 1):
            await inbox.put(
                Message(MessageKind.ANALYSESOLUTION, "eval", ev(z, seq=seq)))
        reply = asyncio.get_running_loop().create_future()
        await inbox.put(Message(MessageKind.RETRIEVEBEST, "test", reply))
        snapshot = await reply
        inbox.close()
        with pytest.raises(MailboxClosed):  # the agent's normal end
            await task
        return snapshot

    snapshot = run(go())
    assert snapshot.best.objectives == (1.0,)
    assert [(e["seq"], e["z"]) for e in record.events.improvements()] == [
        (1, [2.0]), (3, [1.0])]
    assert list(record.events) == list(record.events.improvements())


def test_large_archive_repr_is_short():
    # asyncio.run reprs the run's result on exit; a 5k-member front must
    # not be rendered member by member.
    a = Archive(MULTI)
    for i in range(5_000):
        assert update_archive(a, ev((float(i), float(5_000 - i)), seq=i))
    assert len(repr(a)) < 200


def test_front_is_a_new_list_in_arrival_order():
    a = Archive(MULTI)
    members = [ev((1.0, 3.0), seq=1), ev((3.0, 1.0), seq=2),
               ev((2.0, 2.0), seq=3)]
    for e in members:
        update_archive(a, e)
    front = a.front
    assert front == members
    assert a.front is not front
    front.clear()
    front.append(ev((0.0, 0.0)))
    assert a.front == members == a.members()
    assert not update_archive(a, ev((2.0, 2.5)))  # the archive still holds 3


def test_eviction_heavy_stream_keeps_the_ordered_brute_force_front():
    # Each round puts two points in every gap of the front, at a third and
    # two thirds of the way (in one gap of four the first one moves to the
    # gap's left end's z1, so it evicts that member); then one evictor on
    # the corner of the front's 1st and 3rd quartile members dominates
    # the half of the front between them.
    rng = np.random.default_rng(7)
    archive, stream, evicted = Archive(MULTI), [], 0

    def add(z1, z2):
        e = ev((float(z1), float(z2)), seq=len(stream))
        stream.append(e)
        return update_archive(archive, e)

    for t in np.linspace(0.0, 1.0, 40):
        add(t, 1.0 - t)
    for _ in range(5):
        stairs = sorted(m.objectives for m in archive.front)
        for (a1, a2), (b1, b2) in zip(stairs, stairs[1:]):
            w, h = (b1 - a1) / 3, (b2 - a2) / 3
            assert add(a1 if rng.random() < 0.25 else a1 + w, a2 + h)
            assert add(a1 + 2 * w, a2 + 2 * h)
        stairs = sorted(m.objectives for m in archive.front)
        n, half = len(stairs), 3 * len(stairs) // 4 - len(stairs) // 4 + 1
        assert add(stairs[n // 4][0], stairs[3 * n // 4][1])
        assert len(archive.front) == n - half + 1
        evicted += half
    assert evicted > 500
    expected = brute_force_front(stream)
    assert [e.seq for e in archive.front] == [e.seq for e in expected]
