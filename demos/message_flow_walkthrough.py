"""Message-level walkthrough of the agent runtime.

Shows the moving parts underneath the experiment harness, smallest first:

1. a bounded mailbox and its conservation ledger,
2. the promoting priority queues that keep low-priority solvers from
   starving behind a stream of high-priority requests,
3. a fully wired run -- scheduler, two evaluators, the analysis agent, and
   two scripted solver tasks racing on a 3-d sphere, on the run loop that
   ``coopt run`` uses -- with the run's record (its events, counters,
   evaluator records and per-mailbox ledger) printed at the end.

Usage: python3 demos/message_flow_walkthrough.py
"""

import asyncio
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from coopt import runloop
from coopt.core import freeze_point
from coopt.harness import run_agents, wire
from coopt.messaging import Mailbox, MailboxClosed, Message, MessageKind
from coopt.problems import registry_get
from coopt.scheduler import Budget, EvaluationRequest, PriorityQueues

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

PROBLEM = registry_get("sphere-3")


async def shrinking_search(solver_id, scheduler_inbox, share_mb, seed):
    """Random search that recentres on broadcasts and shrinks on success.

    Like every agent it ends by ``MailboxClosed`` at shutdown, and
    ``run_agents`` judges that a normal end.
    """
    rng = np.random.default_rng(seed)
    centre = rng.uniform(-5.0, 5.0, 3)
    radius = 5.0
    best = None
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


def full_run():
    hr("3. a wired run on sphere-3")
    print(f"budget: {MESSAGE_BUDGET} scheduler messages, "
          f"{N_EVALUATORS} evaluators, solvers {list(SEEDS)}, sharing on")
    agents = wire(PROBLEM, list(SEEDS), N_EVALUATORS,
                  Budget.messages(MESSAGE_BUDGET), sharing=True)
    state = agents.state
    record = state.record
    archive, errors = runloop.run(run_agents(agents, [
        shrinking_search(sid, state.inbox, state.share_mailboxes[sid], seed)
        for sid, seed in SEEDS.items()]))
    assert not errors

    events = record.events
    print("\nfirst events in the run's record:")
    for event in events[:6]:
        print("  ", event)
    print(f"  ... {len(events)} events total:",
          dict(Counter(e["event"] for e in events)))

    print("\nthe record's counters:", record.counters())
    print("dispatches per solver:", dict(record.solver_dispatches))
    for counts in record.evaluators.values():
        print(f"  {counts['evaluator']}: {counts['evaluations']} evaluations,"
              f" {counts['replies_delivered']} replies delivered")
    best = archive.best
    print(f"best of the run: f = {best.objectives[0]:.6f} at "
          f"{np.round(best.point, 4).tolist()} (found by {best.solver_id})")
    print("improvement history:",
          [f"{e['z'][0]:.3f}" for e in record.improvements])

    print("\nper-mailbox ledger (puts == takes + drops + queued):")
    for s in (e for e in events if e["event"] == "mailbox"):
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
