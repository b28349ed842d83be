"""Analysis agent: incumbent best / non-dominated archive maintenance.

Every completed evaluation passes through here.  In single-objective mode
the archive keeps the one best evaluation under `better`; in multi-objective
mode it keeps the mutually non-dominated set.  Improvements are forwarded to
the scheduler (which relays them to solvers when sharing is on) and recorded
in an append-only history.  A run's ``trace.csv`` is written from the
scheduler's improvement events, not from this history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from coopt.core import Evaluation, better, dominates
from coopt.messaging import Mailbox, MailboxClosed, Message, MessageKind

SINGLE = "single"
MULTI = "multi"


@dataclass
class Archive:
    """Best-so-far record: one evaluation (single) or a front (multi).

    ``history`` holds one ``(seq, evaluation, solver_id)`` per improvement,
    in arrival order.
    """

    mode: str
    best: Optional[Evaluation] = None
    front: list[Evaluation] = field(default_factory=list)
    history: list[tuple] = field(default_factory=list)

    def __post_init__(self):
        if self.mode not in (SINGLE, MULTI):
            raise ValueError(f"unknown archive mode {self.mode!r}")

    def __repr__(self) -> str:
        # Short on purpose: asyncio.run reprs the main task's result on exit.
        return (f"<Archive {self.mode}: {len(self.members())} members, "
                f"{len(self.history)} improvements>")

    def members(self) -> list[Evaluation]:
        if self.mode == SINGLE:
            return [self.best] if self.best is not None else []
        return list(self.front)

    def snapshot(self) -> "Archive":
        """Immutable-enough copy safe to hand to another task."""
        return Archive(self.mode, self.best, list(self.front),
                       list(self.history))


def update_archive(archive: Archive, evaluation: Evaluation) -> bool:
    """Fold one evaluation into the archive; True iff it improved it.

    Multi-objective insertions evict every member the newcomer dominates.
    A newcomer with objectives identical to a surviving member is not an
    improvement (first arrival kept), so a snapshot depends only on the
    arrival order.
    """
    if archive.mode == SINGLE:
        if archive.best is not None and not better(evaluation, archive.best):
            return False
        archive.best = evaluation
    else:
        for member in archive.front:
            if dominates(member, evaluation):
                return False
            if member.objectives == evaluation.objectives \
                    and not dominates(evaluation, member):
                return False
        archive.front = [m for m in archive.front
                         if not dominates(evaluation, m)]
        archive.front.append(evaluation)
    archive.history.append(
        (evaluation.seq, evaluation, evaluation.solver_id))
    return True


async def analysis_loop(inbox: Mailbox, scheduler_inbox: Mailbox,
                        archive: Archive) -> Archive:
    """Consume evaluation results until shutdown; answer archive queries.

    Improvement notifications stop (but processing continues) once the
    scheduler's inbox has been closed — that only happens during teardown,
    when the final RETRIEVEBEST/STATISTICSBEST exchange is still pending.
    """
    notify = True
    while True:
        try:
            message = await inbox.take()
        except MailboxClosed:
            return archive
        if message.kind is MessageKind.ANALYSESOLUTION:
            improved = update_archive(archive, message.content)
            if improved and notify:
                try:
                    await scheduler_inbox.put(Message(
                        MessageKind.ANALYSESOLUTION, "analysis",
                        message.content))
                except MailboxClosed:
                    notify = False
        elif message.kind is MessageKind.RETRIEVEBEST:
            reply = message.content
            if not reply.done():  # a cancelled scheduler no longer listens
                reply.set_result(archive.snapshot())
        else:
            raise RuntimeError(f"analysis cannot handle {message.kind}")
