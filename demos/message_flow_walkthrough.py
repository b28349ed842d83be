"""Message-level walkthrough of the agent runtime.

Shows the moving parts underneath the experiment harness, smallest first:

1. a bounded mailbox and its conservation ledger,
2. the promoting priority queues that keep low-priority solvers from
   starving behind a stream of high-priority requests,
3. a fully wired run -- scheduler, two evaluators, the analysis agent, and
   two scripted solver tasks racing on a 3-d sphere -- with the event
   stream and the per-mailbox ledger printed at the end.

Usage: python3 demos/message_flow_walkthrough.py
"""

import asyncio
import itertools
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from coopt.analysis import SINGLE, Archive, analysis_loop
from coopt.core import Problem, freeze_point, uniform_box
from coopt.evaluator import EvaluatorStats, evaluator_loop
from coopt.messaging import Mailbox, MailboxClosed, Message, MessageKind
from coopt.scheduler import (Budget, EvaluationRequest, PriorityQueues,
                             SchedulerState, scheduler_loop)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import level_of  # noqa: E402  (test helper: peeks at a queue)

N_EVALUATORS = 2
MESSAGE_BUDGET = 400
SEEDS = {"coarse": 11, "fine": 12}


def hr(title):
    print()
    print(f"---- {title} " + "-" * max(0, 60 - len(title)))


# ---------------------------------------------------------------- part 1

def mailbox_basics():
    hr("1. bounded mailboxes")

    async def go():
        mb = Mailbox(2, name="demo")
        await mb.put(Message(MessageKind.SHAREBEST, "writer", "first"))
        await mb.put(Message(MessageKind.SHAREBEST, "writer", "second"))
        print("two puts into capacity 2:", mb.stats())

        # A third await-put would suspend the sender until a reader takes.
        # Broadcast channels use put_drop_oldest instead: stale news is
        # discarded so the scheduler never blocks on a slow solver.
        mb.put_drop_oldest(Message(MessageKind.SHAREBEST, "writer", "third"))
        survivors = [(await mb.take()).content, (await mb.take()).content]
        print("after put_drop_oldest, reader sees:", survivors)

        mb.close()
        try:
            await mb.take()
        except MailboxClosed:
            print("take on a closed mailbox raises MailboxClosed "
                  "(the shutdown signal)")
        ledger = mb.stats()
        print("final ledger:", ledger)
        assert ledger["puts"] == ledger["takes"] + ledger["drops"] \
            + ledger["queued"], "conservation must hold"
        print("conservation: puts == takes + drops + queued  OK")

    asyncio.run(go())


# ---------------------------------------------------------------- part 2

def priority_promotion():
    hr("2. promoting priority queues")
    queues = PriorityQueues()
    patient = EvaluationRequest(None, None, "patient", priority_at_enqueue=1)
    queues.enqueue(patient)
    print("one level-1 request is queued; now a level-10 request arrives "
          "before every dispatch:")
    pops = 0
    while True:
        queues.enqueue(EvaluationRequest(None, None, f"vip-{pops}",
                                         priority_at_enqueue=10))
        served = queues.next_request()
        pops += 1
        if served is patient:
            break
        print(f"  dispatch {pops:2d}: served {served.solver_id:6s}  "
              f"(patient promoted to level {level_of(queues, patient)})")
    print(f"  dispatch {pops:2d}: served patient -- after 9 promotions it "
          "outranks fresh level-10 arrivals")


# ---------------------------------------------------------------- part 3

def sphere(point, _params):
    return float(np.sum(point ** 2)), -1.0


PROBLEM = Problem("sphere-3", uniform_box(-5.0, 5.0, 3), 1, sphere)


async def shrinking_search(solver_id, scheduler_inbox, share_mb, seed):
    """Random search that recentres on broadcasts and shrinks on success."""
    rng = np.random.default_rng(seed)
    centre = rng.uniform(-5.0, 5.0, 3)
    radius = 5.0
    best = None
    try:
        while True:
            message = share_mb.take_nowait()
            while message is not None:          # adopt the latest broadcast
                incoming = message.content
                if best is None or incoming.objectives < best.objectives:
                    best, centre = incoming, np.asarray(incoming.point)
                message = share_mb.take_nowait()
            trial = PROBLEM.domain.clip(
                centre + rng.normal(0.0, radius, 3))
            reply = asyncio.get_running_loop().create_future()
            await scheduler_inbox.put(Message(
                MessageKind.EVALUATEPOINT, solver_id,
                EvaluationRequest(freeze_point(trial), reply, solver_id)))
            evaluation = await reply  # MailboxClosed if refused at shutdown
            if best is None or evaluation.objectives < best.objectives:
                best, centre = evaluation, trial
                radius = max(radius * 0.7, 1e-3)
    except MailboxClosed:
        return


async def wired_run(sharing):
    solver_ids = list(SEEDS)
    scheduler_inbox = Mailbox(2 * (len(solver_ids) + N_EVALUATORS + 1),
                              name="scheduler")
    analysis_inbox = Mailbox(2 * (N_EVALUATORS + 1), name="analysis")
    evaluator_mbs = {f"eval-{i}": Mailbox(2, name=f"eval-{i}")
                     for i in range(N_EVALUATORS)}
    share_mbs = {sid: Mailbox(4, name=f"share:{sid}") for sid in solver_ids}
    events = []
    state = SchedulerState(inbox=scheduler_inbox,
                           evaluator_mailboxes=evaluator_mbs,
                           share_mailboxes=share_mbs,
                           analysis_inbox=analysis_inbox,
                           budget=Budget.messages(MESSAGE_BUDGET),
                           sharing=sharing,
                           events=events.append)
    seq = itertools.count(1)
    stats = {eid: EvaluatorStats(eid) for eid in evaluator_mbs}
    tasks = [asyncio.ensure_future(t) for t in (
        [analysis_loop(analysis_inbox, scheduler_inbox, Archive(SINGLE))]
        + [evaluator_loop(eid, PROBLEM, scheduler_inbox, analysis_inbox,
                          mb, seq, stats[eid])
           for eid, mb in evaluator_mbs.items()]
        + [shrinking_search(sid, scheduler_inbox, share_mbs[sid], seed)
           for sid, seed in SEEDS.items()])]
    archive = await scheduler_loop(state)
    await asyncio.gather(*tasks, return_exceptions=True)
    mailboxes = ([scheduler_inbox, analysis_inbox]
                 + list(evaluator_mbs.values()) + list(share_mbs.values()))
    return archive, state, events, mailboxes


def full_run():
    hr("3. a wired run on sphere-3")
    print(f"budget: {MESSAGE_BUDGET} scheduler messages, "
          f"{N_EVALUATORS} evaluators, solvers {list(SEEDS)}, sharing on")
    archive, state, events, mailboxes = asyncio.run(wired_run(sharing=True))

    print("\nfirst events on the scheduler's log:")
    for event in events[:6]:
        print("  ", event)
    print(f"  ... {len(events)} events total:",
          dict(Counter(e["event"] for e in events)))

    print(f"\ndispatches {state.dispatches}, broadcasts {state.broadcasts}, "
          f"improvements {state.improvements}, refusals {state.refusals}")
    best = archive.best
    print(f"best of the run: f = {best.objectives[0]:.6f} at "
          f"{np.round(best.point, 4).tolist()} (found by {best.solver_id})")
    print("improvement history:",
          [f"{e['z'][0]:.3f}" for e in events if e["event"] == "improvement"])

    print("\nper-mailbox ledger (puts == takes + drops + queued):")
    for mb in mailboxes:
        s = mb.stats()
        balanced = s["puts"] == s["takes"] + s["drops"] + s["queued"]
        print(f"  {s['mailbox']:12s} puts {s['puts']:4d}  takes "
              f"{s['takes']:4d}  drops {s['drops']:2d}  queued "
              f"{s['queued']:2d}  {'OK' if balanced else 'LOST'}")
        assert balanced


def main():
    mailbox_basics()
    priority_promotion()
    full_run()


if __name__ == "__main__":
    main()
