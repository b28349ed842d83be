"""The run loop: FIFO order, stall detection, teardown, and the same bytes.

``coopt.runloop.run`` replaces ``asyncio.run`` for a run.  These tests pin
what the agents rely on (asyncio's futures, tasks, contextvars and
exception logging work as on asyncio's loop), what the loop refuses
(timers, other threads, a closed or nested loop), how it ends (leftover
tasks cancelled, open async generators closed, running loop unset), and
that every golden config writes the same bytes on both loops.
"""

import asyncio
import contextvars
import gc
import logging
import sys

import pytest

from coopt import runloop
from coopt.runloop import RunLoop, Stalled
from test_replay_golden import GOLDEN, _case_id, _config, _digest


async def forever():
    await asyncio.get_running_loop().create_future()


def unraisable_during(call):
    """``call()``'s result and what reached ``sys.unraisablehook`` meanwhile."""
    seen = []
    hook = sys.unraisablehook
    sys.unraisablehook = lambda args: seen.append(repr(args.exc_value))
    try:
        result = call()
        gc.collect()
    finally:
        sys.unraisablehook = hook
    return result, seen


async def two_steps(closed):
    try:
        yield 1
        yield 2
    finally:
        closed.append("finally")


def test_timers_are_refused():
    loop = RunLoop()
    with pytest.raises(NotImplementedError):
        loop.call_later(0.1, print)
    with pytest.raises(NotImplementedError):
        loop.call_at(0.1, print)
    with pytest.raises(NotImplementedError):
        loop.call_soon_threadsafe(print)
    assert not loop._ready
    loop.close()


def test_inherited_guards_refuse_a_closed_or_nested_loop():
    loop = RunLoop()
    future = loop.create_future()

    async def nested():
        loop.run_until_complete(future)

    with pytest.raises(RuntimeError, match="another"):
        asyncio.run(nested())
    with pytest.raises(RuntimeError, match="another"):
        runloop.run(nested())
    loop.close()
    with pytest.raises(RuntimeError, match="closed"):
        loop.run_until_complete(future)


def test_exception_in_main_propagates():
    async def main():
        await asyncio.sleep(0)
        raise KeyError("lost")

    with pytest.raises(KeyError, match="lost"):
        runloop.run(main())


def test_leftover_tasks_are_cancelled():
    async def main():
        task = asyncio.ensure_future(forever())
        await asyncio.sleep(0)
        return asyncio.get_running_loop(), task

    loop, task = runloop.run(main())
    assert task.cancelled()
    assert asyncio.all_tasks(loop) == set()
    assert loop.is_closed()


def test_running_loop_is_set_only_inside_a_run():
    async def main():
        return asyncio.get_running_loop()

    loop = runloop.run(main())
    assert isinstance(loop, RunLoop)
    with pytest.raises(RuntimeError):
        asyncio.get_running_loop()
    assert asyncio.run(main()) is not loop  # asyncio's loop still works


def test_context_var_stays_in_its_task():
    var = contextvars.ContextVar("var", default="unset")
    seen = {}

    async def setter():
        var.set("set")
        await asyncio.sleep(0)
        seen["setter"] = var.get()

    async def sibling():
        await asyncio.sleep(0)
        seen["sibling"] = var.get()

    async def main():
        await asyncio.gather(setter(), sibling())

    runloop.run(main())
    assert seen == {"setter": "set", "sibling": "unset"}


def test_callbacks_run_in_asyncio_order():
    """Tasks, futures and gather interleave exactly as on asyncio's loop."""
    async def main():
        order = []
        loop = asyncio.get_running_loop()
        futures = [loop.create_future() for _ in range(3)]

        async def worker(i):
            for step in range(3):
                order.append((i, step))
                if step == 1:
                    await futures[i]
                else:
                    await asyncio.sleep(0)

        async def releaser():
            for fut in reversed(futures):
                await asyncio.sleep(0)
                fut.set_result(None)
                order.append(("set", futures.index(fut)))

        await asyncio.gather(*(worker(i) for i in range(3)), releaser())
        return order

    assert runloop.run(main()) == asyncio.run(main())


def test_stall_raises_instead_of_hanging():
    started = []

    async def waiter():
        started.append(True)
        await forever()

    async def main():
        await asyncio.gather(waiter(), waiter())

    with pytest.raises(Stalled, match="3 tasks wait"):
        runloop.run(main())
    assert started == [True, True]


def test_dropped_async_generator_is_finalized():
    """Dropping a suspended generator schedules its ``aclose`` on the loop."""
    closed = []

    async def main():
        generator = two_steps(closed)
        assert await generator.__anext__() == 1
        del generator
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        return list(closed)

    assert unraisable_during(lambda: runloop.run(main())) == (["finally"], [])


def test_open_async_generator_is_closed_when_main_returns():
    closed = []

    async def main():
        generator = two_steps(closed)
        assert await generator.__anext__() == 1
        return generator

    def run_and_drop():
        generator = runloop.run(main())
        return list(closed), generator.ag_frame

    assert unraisable_during(run_and_drop) == ((["finally"], None), [])


def test_unretrieved_task_exception_is_logged(caplog):
    async def fails():
        raise ValueError("nobody looked")

    async def main():
        asyncio.ensure_future(fails())
        await asyncio.sleep(0)
        await asyncio.sleep(0)

    with caplog.at_level(logging.ERROR, logger="asyncio"):
        runloop.run(main())
        gc.collect()
    messages = [r.getMessage() for r in caplog.records if r.name == "asyncio"]
    assert any(m.startswith("Task exception was never retrieved")
               for m in messages)


def test_raising_callback_is_logged_and_the_run_goes_on(caplog):
    def broken():
        raise ValueError("callback failed")

    async def main():
        asyncio.get_running_loop().call_soon(broken)
        await asyncio.sleep(0)
        return "done"

    with caplog.at_level(logging.ERROR, logger="asyncio"):
        assert runloop.run(main()) == "done"
    record, = [r for r in caplog.records if r.name == "asyncio"]
    assert record.getMessage().startswith("Exception in callback")
    assert record.exc_info[0] is ValueError


@pytest.mark.parametrize("case", list(GOLDEN), ids=_case_id)
def test_both_loops_write_the_same_bytes(tmp_path, monkeypatch, case):
    """The agents are loop-agnostic: asyncio.run gives the same run."""
    cfg = _config(case)
    on_runloop = _digest(cfg, tmp_path / "runloop")
    monkeypatch.setattr(runloop, "run", asyncio.run)
    assert _digest(cfg, tmp_path / "asyncio") == on_runloop
