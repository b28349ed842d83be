"""Mailbox FIFO, blocking, and shutdown semantics."""

import asyncio

import pytest

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
        mb.put_nowait(msg("only"))          # wakes the first taker ...
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
