"""Model-evaluation agents.

Each evaluator loops: announce itself to the scheduler with a future, await
the point set on it, evaluate the model, send the result both to the asking
solver's reply future and to the analysis agent.  ``MailboxClosed``, from a
closed mailbox or from that future at shutdown, is the agent's normal end.
"""

from __future__ import annotations

import asyncio
from typing import Iterator, NoReturn

from coopt.core import Problem, evaluate_model
from coopt.messaging import Mailbox, Message, MessageKind


def evaluator_record(evaluator_id: str) -> dict:
    """An evaluator's protocol counters, as its ``evaluator`` event."""
    return {"event": "evaluator", "evaluator": evaluator_id, "requests": 0,
            "evaluations": 0, "replies_delivered": 0, "analysis_sent": 0}


async def evaluator_loop(problem: Problem, scheduler_inbox: Mailbox,
                         analysis_inbox: Mailbox, seq: Iterator[int],
                         record: dict) -> NoReturn:
    """Serve evaluation requests until the run ends (``MailboxClosed``).

    The evaluator counts into its ``record``.  ``seq`` is shared by all
    evaluators of a run and numbers evaluations globally in completion order.
    """
    evaluator_id = record["evaluator"]
    while True:
        dispatch = asyncio.get_running_loop().create_future()
        await scheduler_inbox.put(
            Message(MessageKind.REQUESTPOINT, evaluator_id, dispatch))
        record["requests"] += 1
        request = await dispatch
        evaluation = evaluate_model(problem, request.point,
                                    solver_id=request.solver_id,
                                    seq=next(seq))
        record["evaluations"] += 1
        if not request.reply.done():  # a cancelled solver no longer listens
            request.reply.set_result(evaluation)
            record["replies_delivered"] += 1
        await analysis_inbox.put(
            Message(MessageKind.ANALYSESOLUTION, evaluator_id, evaluation))
        record["analysis_sent"] += 1
