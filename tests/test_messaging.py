"""Mailbox FIFO, blocking, and shutdown semantics."""

import asyncio

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from coopt.messaging import (
    Mailbox,
    MailboxClosed,
    Message,
    MessageKind,
)


def msg(content, kind=MessageKind.EVALUATEPOINT, sender="t"):
    return Message(kind, sender, content)


def run(coro):
    return asyncio.run(coro)


def test_message_kinds_are_exactly_seven():
    names = {k.name for k in MessageKind}
    assert names == {
        "ANALYSESOLUTION", "EVALUATEPOINT", "OBJECTIVEVALUE",
        "REQUESTPOINT", "RETRIEVEBEST", "SHAREBEST", "STATISTICSBEST",
    }


def test_put_then_take_round_trip():
    async def go():
        mb = Mailbox(4)
        await mb.put(msg(1))
        return await mb.take()

    assert run(go()).content == 1


def test_fifo_order():
    async def go():
        mb = Mailbox(4)
        await mb.put(msg("m1"))
        await mb.put(msg("m2"))
        return await mb.take()

    assert run(go()).content == "m1"


def test_hundred_messages_arrive_in_send_order():
    async def go():
        mb = Mailbox(8)

        async def producer():
            for i in range(100):
                await mb.put(msg(i))

        async def consumer():
            return [(await mb.take()).content for _ in range(100)]

        _, received = await asyncio.gather(producer(), consumer())
        return received

    assert run(go()) == list(range(100))


def test_put_blocks_until_concurrent_take():
    async def go():
        mb = Mailbox(1)
        await mb.put(msg("a"))
        putter = asyncio.ensure_future(mb.put(msg("b")))
        await asyncio.sleep(0)
        assert not putter.done()          # full: sender suspended
        first = await mb.take()
        await putter                      # take freed one slot
        second = await mb.take()
        return first.content, second.content

    assert run(go()) == ("a", "b")


def test_take_blocks_until_put():
    async def go():
        mb = Mailbox(2)
        taker = asyncio.ensure_future(mb.take())
        await asyncio.sleep(0)
        assert not taker.done()
        await mb.put(msg("x"))
        return (await taker).content

    assert run(go()) == "x"


def test_take_from_closed_empty_mailbox_raises():
    async def go():
        mb = Mailbox(2)
        mb.close()
        with pytest.raises(MailboxClosed):
            await mb.take()

    run(go())


def test_put_to_closed_mailbox_raises():
    async def go():
        mb = Mailbox(2)
        mb.close()
        with pytest.raises(MailboxClosed):
            await mb.put(msg(1))

    run(go())


def test_close_drains_remaining_then_raises():
    async def go():
        mb = Mailbox(4)
        await mb.put(msg("survivor"))
        mb.close()
        got = await mb.take()
        assert got.content == "survivor"
        with pytest.raises(MailboxClosed):
            await mb.take()

    run(go())


def test_close_wakes_blocked_receiver():
    async def go():
        mb = Mailbox(2)
        taker = asyncio.ensure_future(mb.take())
        await asyncio.sleep(0)
        mb.close()
        with pytest.raises(MailboxClosed):
            await taker

    run(go())


def test_close_wakes_blocked_sender():
    async def go():
        mb = Mailbox(1)
        await mb.put(msg(1))
        putter = asyncio.ensure_future(mb.put(msg(2)))
        await asyncio.sleep(0)
        mb.close()
        with pytest.raises(MailboxClosed):
            await putter

    run(go())


def test_put_drop_oldest_ring_behavior():
    async def go():
        mb = Mailbox(2, name="share")
        mb.put_drop_oldest(msg(1))
        mb.put_drop_oldest(msg(2))
        mb.put_drop_oldest(msg(3))   # evicts 1
        assert mb.drops == 1
        a = await mb.take()
        b = await mb.take()
        return a.content, b.content

    assert run(go()) == (2, 3)


def test_message_conservation_counters():
    async def go():
        mb = Mailbox(8)
        for i in range(5):
            await mb.put(msg(i))
        await mb.take()
        await mb.take()
        assert mb.puts == mb.takes + len(mb)
        return mb.stats()

    stats = run(go())
    assert stats["puts"] == 5 and stats["takes"] == 2 and stats["queued"] == 3


def test_cancelled_woken_taker_passes_the_wakeup_on():
    async def go():
        mb = Mailbox(4)
        first = asyncio.ensure_future(mb.take())
        second = asyncio.ensure_future(mb.take())
        await asyncio.sleep(0)              # both takers park
        mb.put_drop_oldest(msg("only"))     # wakes the first taker ...
        first.cancel()                      # ... which dies before it runs
        got = await asyncio.wait_for(second, timeout=1)
        return got.content, mb.stats()

    content, stats = run(go())
    assert content == "only"
    assert stats["puts"] == stats["takes"] + stats["drops"] + stats["queued"]
    assert stats["queued"] == 0


def test_cancelled_woken_putter_passes_the_wakeup_on():
    async def go():
        mb = Mailbox(1)
        await mb.put(msg(0))
        first = asyncio.ensure_future(mb.put(msg(1)))
        second = asyncio.ensure_future(mb.put(msg(2)))
        await asyncio.sleep(0)              # both putters park
        await mb.take()                     # frees the slot, wakes first
        first.cancel()
        await asyncio.wait_for(second, timeout=1)
        return (await mb.take()).content, mb.stats()

    content, stats = run(go())
    assert content == 2
    assert stats["puts"] == stats["takes"] + stats["drops"] + stats["queued"]


def test_multi_producer_per_producer_order():
    async def go():
        mb = Mailbox(4)

        async def producer(tag):
            for i in range(30):
                await mb.put(msg((tag, i), sender=tag))

        async def consumer():
            out = []
            for _ in range(60):
                out.append((await mb.take()).content)
            return out

        _, _, received = await asyncio.gather(
            producer("a"), producer("b"), consumer())
        return received

    received = run(go())
    for tag in ("a", "b"):
        seq = [i for t, i in received if t == tag]
        assert seq == sorted(seq)


class MailboxMachine(RuleBasedStateMachine):
    """Random interleavings of every ``Mailbox`` operation.

    Blocking puts and takes run as tasks on the machine's own event loop,
    which runs only when a rule settles it: until every woken task has run.
    A blocking put or take settles, so its task parks if it must.  The
    non-blocking operations and waiter cancellation do not, and each may
    cancel the oldest waiter right after it, so the waiter a wakeup reached
    can be cancelled before it resumes: the lost-wakeup case.  On copies
    with that case or a missed wakeup broken, 1000 examples find it in
    nearly every run.  After every step the ledger
    holds (puts = takes + drops + queued, and the counters match the
    operations that succeeded); after a settled step no waiter sleeps
    while it could proceed.
    """

    def __init__(self):
        super().__init__()
        self.loop = asyncio.new_event_loop()
        self.putters: list[asyncio.Task] = []
        self.takers: list[asyncio.Task] = []
        self.sent = 0          # contents handed out, one per put attempt
        self.put_ok = 0        # puts that appended: tasks and drop-oldest
        self.taken: list = []  # contents of successful takes
        self.settled = True

    @initialize(capacity=st.integers(1, 2))
    def open(self, capacity):
        self.mb = Mailbox(capacity, name="m")

    @rule()
    def settle(self) -> None:
        steps = 4 + 2 * (len(self.putters) + len(self.takers))

        async def spin():
            for _ in range(steps):
                await asyncio.sleep(0)

        self.loop.run_until_complete(spin())
        self.settled = True
        # Count the waiters that finished; keep the ones still waiting.
        for task in [t for t in self.putters if t.done()]:
            self.putters.remove(task)
            self.put_ok += self._succeeded(task)
        for task in [t for t in self.takers if t.done()]:
            self.takers.remove(task)
            if self._succeeded(task):
                self.taken.append(task.result().content)

    def _succeeded(self, task: asyncio.Task) -> bool:
        """True unless cancelled or ended by a closed mailbox."""
        if task.cancelled():
            return False
        if task.exception() is not None:
            assert isinstance(task.exception(), MailboxClosed)
            assert self.mb._closed
            return False
        return True

    def _next(self):
        self.sent += 1
        return msg(self.sent)

    @rule()
    def put(self):
        self.putters.append(self.loop.create_task(self.mb.put(self._next())))
        self.settle()

    @rule()
    def take(self):
        self.takers.append(self.loop.create_task(self.mb.take()))
        self.settle()

    @rule(then_cancel=st.booleans())
    def put_drop_oldest(self, then_cancel):
        try:
            self.mb.put_drop_oldest(self._next())
            self.put_ok += 1
        except MailboxClosed:
            assert self.mb._closed
        self._unsettled(then_cancel)

    @rule(then_cancel=st.booleans())
    def take_nowait(self, then_cancel):
        message = self.mb.take_nowait()
        if message is not None:
            self.taken.append(message.content)
        self._unsettled(then_cancel)

    @rule(then_cancel=st.booleans())
    def close(self, then_cancel):
        self.mb.close()
        self._unsettled(then_cancel)

    @rule()
    def cancel_oldest_waiter(self):
        self._unsettled(True)

    def _unsettled(self, cancel: bool) -> None:
        """Leave the loop unsettled; maybe cancel the oldest waiter first.

        The oldest waiter is the one a wakeup reaches first, so cancelling
        it right after a wakeup cancels the woken waiter before it resumes.
        """
        self.settled = False
        waiters = self.takers or self.putters
        if cancel and waiters:
            waiters[0].cancel()

    @invariant()
    def ledger_balances(self):
        mb = self.mb
        assert mb.puts == mb.takes + mb.drops + len(mb)
        assert mb.puts == self.put_ok
        assert mb.takes == len(self.taken)
        assert len(set(self.taken)) == len(self.taken)  # none taken twice
        assert 0 <= len(mb) <= mb.capacity

    @invariant()
    def no_waiter_sleeps_while_it_could_proceed(self):
        if not self.settled:
            return
        if self.takers:
            assert len(self.mb) == 0 and not self.mb._closed
        if self.putters:
            assert len(self.mb) == self.mb.capacity and not self.mb._closed

    def teardown(self):
        async def cancel_waiters():
            waiters = self.putters + self.takers
            for task in waiters:
                task.cancel()
            await asyncio.gather(*waiters, return_exceptions=True)

        self.loop.run_until_complete(cancel_waiters())
        self.loop.close()


MailboxMachine.TestCase.settings = settings(
    max_examples=1000, stateful_step_count=50, deadline=None)
test_mailbox_state_machine = MailboxMachine.TestCase
