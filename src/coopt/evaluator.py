"""Model-evaluation agents.

Each evaluator loops: announce availability to the scheduler, wait for a
point, evaluate the model, send the result both to the asking solver's
reply future and to the analysis agent.  A closed mailbox at any blocking
step means the run is over and the agent exits quietly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from coopt.core import Problem, evaluate_model
from coopt.messaging import Mailbox, MailboxClosed, Message, MessageKind


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
                         own_mailbox: Mailbox, seq: Iterator[int],
                         stats: EvaluatorStats | None = None) -> EvaluatorStats:
    """Serve evaluation requests until any channel closes.

    ``seq`` is shared by all evaluators of a run and numbers evaluations
    globally in completion order.
    """
    stats = stats or EvaluatorStats(evaluator_id)
    while True:
        try:
            await scheduler_inbox.put(
                Message(MessageKind.REQUESTPOINT, evaluator_id, evaluator_id))
            stats.requests += 1
            message = await own_mailbox.take()
        except MailboxClosed:
            return stats
        request = message.content
        evaluation = evaluate_model(problem, request.point,
                                    solver_id=request.solver_id,
                                    seq=next(seq))
        stats.evaluations += 1
        if not request.reply.done():  # a cancelled solver no longer listens
            request.reply.set_result(evaluation)
            stats.replies_delivered += 1
        try:
            await analysis_inbox.put(
                Message(MessageKind.ANALYSESOLUTION, evaluator_id, evaluation))
            stats.analysis_sent += 1
        except MailboxClosed:
            return stats
