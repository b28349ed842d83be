"""The event loop a run runs on: one FIFO of ready callbacks, nothing else.

A run has no timers and no I/O: every agent waits only on a future that
another agent completes.  On such a run asyncio's own loop runs its ready
callbacks in FIFO order, one batch per iteration, and pays for a selector
poll and a ``Handle`` per callback on the way.  ``RunLoop`` keeps the FIFO
and drops the rest: ``call_soon`` appends ``(callback, args, context)`` to
a deque, and ``run_until_complete`` pops and runs them in order.  The order
is the one asyncio's loop would give, so the message interleaving, and with
it every byte a run writes, stays the same.

Futures and tasks are asyncio's own (the C ``Future`` and ``Task``), so
``gather``, cancellation, contextvars and ``get_running_loop`` work as on
asyncio's loop, and the agents need not know which loop they run on.

With nothing to wait for but each other, an empty ready queue while the
main task is unfinished is an exact deadlock: no callback can ever run
again.  The loop raises ``Stalled`` instead of hanging.  ``call_later`` and
``call_at`` raise ``NotImplementedError``: a run never sets a timer.
"""

from __future__ import annotations

import asyncio
import contextvars
import logging
from collections import deque

logger = logging.getLogger("asyncio")


class Stalled(RuntimeError):
    """No callback is ready, but the awaited task is unfinished."""


class RunLoop(asyncio.AbstractEventLoop):
    """A FIFO of ready callbacks, run until one future is done."""

    def __init__(self):
        self._ready: deque = deque()
        self._closed = False

    # -------------------------------------------------------- scheduling

    def call_soon(self, callback, *args, context=None):
        # No Handle is returned: nothing in a run cancels a callback.
        if context is None:
            context = contextvars.copy_context()
        self._ready.append((callback, args, context))

    def call_later(self, delay, callback, *args, context=None):
        raise NotImplementedError("a RunLoop has no timers")

    def call_at(self, when, callback, *args, context=None):
        raise NotImplementedError("a RunLoop has no timers")

    def create_future(self):
        return asyncio.Future(loop=self)

    def create_task(self, coro, *, name=None, context=None):
        if context is None:  # Task(context=) is new in Python 3.11
            return asyncio.Task(coro, loop=self, name=name)
        return asyncio.Task(coro, loop=self, name=name, context=context)

    # ----------------------------------------------------------- running

    def run_until_complete(self, future):
        """Run ready callbacks in FIFO order until ``future`` is done.

        Raises ``Stalled`` if the queue empties first.  A callback that
        raises is reported to ``call_exception_handler``, as asyncio's loop
        does, and the loop goes on.
        """
        if self._closed:
            raise RuntimeError("the loop is closed")
        if asyncio.events._get_running_loop() is not None:
            raise RuntimeError("another event loop is running in this thread")
        future = asyncio.ensure_future(future, loop=self)
        done: list = []
        future.add_done_callback(done.append)
        popleft = self._ready.popleft
        asyncio.events._set_running_loop(self)
        try:
            while not done:
                try:
                    callback, args, context = popleft()
                except IndexError:
                    raise Stalled(f"{len(asyncio.all_tasks(self))} tasks "
                                  "wait and no callback is ready") from None
                try:
                    context.run(callback, *args)
                except (SystemExit, KeyboardInterrupt):
                    raise
                except BaseException as exc:
                    self.call_exception_handler({
                        "message": f"Exception in callback {callback!r}",
                        "exception": exc,
                    })
        finally:
            asyncio.events._set_running_loop(None)
        return future.result()

    def is_closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        self._closed = True
        self._ready.clear()

    def get_debug(self) -> bool:
        return False

    # -------------------------------------------------------- exceptions

    def call_exception_handler(self, context: dict) -> None:
        """Log the error to the ``asyncio`` logger, as asyncio's loop does."""
        exception = context.get("exception")
        exc_info = (False if exception is None else
                    (type(exception), exception, exception.__traceback__))
        lines = [context.get("message") or "Unhandled exception in event loop"]
        lines += [f"{key}: {context[key]!r}" for key in sorted(context)
                  if key not in ("message", "exception")]
        logger.error("\n".join(lines), exc_info=exc_info)


def _cancel_leftovers(loop: RunLoop) -> None:
    """Cancel the tasks still pending and run them to their end."""
    leftovers = asyncio.all_tasks(loop)
    if not leftovers:
        return
    for task in leftovers:
        task.cancel()
    loop.run_until_complete(asyncio.gather(*leftovers, return_exceptions=True))
    for task in leftovers:
        if not task.cancelled() and task.exception() is not None:
            loop.call_exception_handler({
                "message": "unhandled exception during run shutdown",
                "exception": task.exception(),
                "task": task,
            })


def run(main):
    """Run coroutine ``main`` on a fresh ``RunLoop`` and return its result.

    ``asyncio.run`` for a run: afterwards the tasks still pending are
    cancelled and run to their end, and the loop is closed.  A stalled run
    raises ``Stalled``; its tasks are cancelled the same way first.
    """
    loop = RunLoop()
    try:
        return loop.run_until_complete(main)
    finally:
        try:
            _cancel_leftovers(loop)
        finally:
            loop.close()
