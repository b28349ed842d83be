"""Model-evaluation agents.

Each evaluator loops: announce itself to the scheduler with a future, await
the point set on it, evaluate the model, send the result both to the asking
solver's reply future and to the analysis agent.  ``MailboxClosed``, from a
closed mailbox or from that future at shutdown, is the agent's normal end.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Iterator, NoReturn

from coopt.core import Problem, evaluate_model
from coopt.messaging import Mailbox, Message, MessageKind


@dataclass
class EvaluatorStats:
    """Per-evaluator protocol counters, reported into the event log."""

    evaluator_id: str
    requests: int = 0
    evaluations: int = 0
    replies_delivered: int = 0
    analysis_sent: int = 0

    def record(self) -> dict:
        return {
            "event": "evaluator",
            "evaluator": self.evaluator_id,
            "requests": self.requests,
            "evaluations": self.evaluations,
            "replies_delivered": self.replies_delivered,
            "analysis_sent": self.analysis_sent,
        }


async def evaluator_loop(evaluator_id: str, problem: Problem,
                         scheduler_inbox: Mailbox, analysis_inbox: Mailbox,
                         seq: Iterator[int],
                         stats: EvaluatorStats) -> NoReturn:
    """Serve evaluation requests until the run ends (``MailboxClosed``).

    ``seq`` is shared by all evaluators of a run and numbers evaluations
    globally in completion order.
    """
    while True:
        dispatch = asyncio.get_running_loop().create_future()
        await scheduler_inbox.put(
            Message(MessageKind.REQUESTPOINT, evaluator_id, dispatch))
        stats.requests += 1
        request = await dispatch
        evaluation = evaluate_model(problem, request.point,
                                    solver_id=request.solver_id,
                                    seq=next(seq))
        stats.evaluations += 1
        if not request.reply.done():  # a cancelled solver no longer listens
            request.reply.set_result(evaluation)
            stats.replies_delivered += 1
        await analysis_inbox.put(
            Message(MessageKind.ANALYSESOLUTION, evaluator_id, evaluation))
        stats.analysis_sent += 1
