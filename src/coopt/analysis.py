"""Analysis agent: incumbent best / non-dominated archive maintenance.

Every completed evaluation passes through here.  In single-objective mode
the archive keeps the one best evaluation, replaced only by a newcomer that
`dominates` it; in multi-objective mode it keeps the mutually non-dominated
set of a two-objective problem.  Both modes compare under that one rule.
Improvements are forwarded to the scheduler, which records them
(``trace.csv`` is written from its improvement events) and relays them to
solvers when sharing is on; one that meets the scheduler's closed inbox
is recorded here.

The front is kept in arrival order in an insertion-ordered dict keyed by
``Evaluation`` (compared by identity), and its feasible members are also
indexed as a staircase (z1 ascending, z2 strictly decreasing; Kung,
Luccio & Preparata, JACM 1975).  So an insert costs a bisection plus one
dict deletion per member it evicts, not a scan or rebuild of the front.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import NoReturn, Optional

from coopt.core import Evaluation, dominates, pareto_key
from coopt.messaging import (ANALYSESOLUTION, Mailbox, MailboxClosed,
                             Message, MessageKind)
from coopt.scheduler import RunRecord

SINGLE = "single"
MULTI = "multi"


class _Staircase:
    """The feasible front sorted by z1 ascending, z2 strictly decreasing."""

    def __init__(self):
        self.members: list[Evaluation] = []
        self.z1: list[float] = []
        self.z2: list[float] = []

    def insert(self, evaluation: Evaluation,
               key: tuple[float, float]) -> Optional[list[Evaluation]]:
        """Add a feasible point, whose ``pareto_key`` is ``key``; return the
        members it evicts, or None if refused.

        Refused when a member weakly dominates it: the last member with a
        smaller z1, or one with an equal z1, has z2 at or below its own
        (an equal point is a duplicate; the first arrival is kept).
        Otherwise it evicts the run of members from its place on whose z2
        is at or above its own.
        """
        a, b = key
        z1, z2 = self.z1, self.z2
        i = bisect_left(z1, a)
        if (i and z2[i - 1] <= b) or (
                i < len(z1) and z1[i] == a and z2[i] <= b):
            return None
        j = i
        while j < len(z2) and z2[j] >= b:
            j += 1
        evicted = self.members[i:j]
        self.members[i:j] = [evaluation]
        z1[i:j] = [a]
        z2[i:j] = [b]
        return evicted


@dataclass
class Archive:
    """Best-so-far record: one evaluation (single) or a front (multi).

    An archive starts empty; ``update_archive`` fills it.  ``front`` is a
    new list of the members in arrival order, which ``archive.csv`` and the
    front metrics read.
    """

    mode: str
    best: Optional[Evaluation] = field(default=None, init=False)
    # The front in arrival order: member -> None.
    _front: dict[Evaluation, None] = field(default_factory=dict, init=False,
                                           repr=False)
    # Index of the feasible members of the front.
    _stairs: _Staircase = field(default_factory=_Staircase, init=False,
                                repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in (SINGLE, MULTI):
            raise ValueError(f"unknown archive mode {self.mode!r}")

    def __repr__(self) -> str:
        # Short on purpose: a done task's repr shows its result, and
        # asyncio.run (tests drive run_agents with it) reprs the main task
        # on exit.
        return f"<Archive {self.mode}: {len(self.members())} members>"

    @property
    def front(self) -> list[Evaluation]:
        return list(self._front)

    def members(self) -> list[Evaluation]:
        if self.mode == SINGLE:
            return [self.best] if self.best is not None else []
        return self.front


def update_archive(archive: Archive, evaluation: Evaluation) -> bool:
    """Fold one evaluation into the archive; True iff it improved it.

    A single-objective newcomer replaces ``best`` iff it dominates it.
    Multi-objective insertions evict every member the newcomer dominates
    and append it to the front.  A newcomer with objectives identical to a
    surviving member is not an improvement (first arrival kept), so the
    archive depends only on the arrival order.  Infeasible and failed
    newcomers are refused once a feasible member exists; until then the
    front holds the members with the smallest constraint measure and
    distinct objectives.  Multi-objective evaluations with other than 1 or
    2 objectives raise ValueError.
    """
    if archive.mode == MULTI:
        return _insert_into_front(archive, evaluation)
    if archive.best is not None and not dominates(evaluation, archive.best):
        return False
    archive.best = evaluation
    return True


def _insert_into_front(archive: Archive, evaluation: Evaluation) -> bool:
    key = pareto_key(evaluation)  # also checks every newcomer's objectives
    front, stairs = archive._front, archive._stairs
    if evaluation.feasible:
        if not stairs.members:  # the first feasible point clears the front
            front.clear()
        evicted = stairs.insert(evaluation, key)
        if evicted is None:
            return False
        for member in evicted:
            del front[member]
    elif stairs.members:
        return False
    elif front:
        g = next(iter(front)).constraint  # the members share one g
        if evaluation.constraint > g or (evaluation.constraint == g and any(
                m.objectives == evaluation.objectives for m in front)):
            return False
        if evaluation.constraint < g:
            front.clear()
    front[evaluation] = None
    return True


async def analysis_loop(inbox: Mailbox, scheduler_inbox: Mailbox,
                        archive: Archive, record: RunRecord) -> NoReturn:
    """Consume evaluation results until shutdown; answer archive queries.

    Each improvement goes to the scheduler, which records it.  Once the
    scheduler's inbox is closed (only during teardown, with the final
    RETRIEVEBEST still to come) an improvement is recorded in ``record``
    here, so the trace still ends at the archive's best.  RETRIEVEBEST is
    answered with ``archive`` itself: the scheduler puts it only after the
    last result, and closes this inbox right after the reply, so nothing
    changes the archive once it is handed over.  The closed and drained
    inbox ends this loop by ``MailboxClosed``, its normal end.
    """
    while True:
        message = await inbox.take()
        if message.kind is ANALYSESOLUTION:
            evaluation = message.content
            if update_archive(archive, evaluation):
                try:
                    await scheduler_inbox.put(Message(
                        ANALYSESOLUTION, "analysis", evaluation))
                except MailboxClosed:
                    record.improvement(evaluation)
        elif message.kind is MessageKind.RETRIEVEBEST:
            reply = message.content
            if not reply.done():  # a cancelled scheduler no longer listens
                reply.set_result(archive)
        else:
            raise RuntimeError(f"analysis cannot handle {message.kind}")
