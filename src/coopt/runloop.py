"""The event loop a run runs on: one FIFO of ready callbacks, nothing else.

A run has no timers and no I/O, so asyncio's own loop runs its ready
callbacks in FIFO order, paying for a selector poll and a ``Handle`` per
callback on the way.  ``RunLoop`` keeps the FIFO and drops the rest:
``call_soon`` appends ``(callback, args, context)`` to the ready deque, and
one ``_run_once`` pops and runs them in that order until the loop is
stopped.  So the interleaving, and every byte a run writes, stays the same.

The rest is ``asyncio.BaseEventLoop``'s: ``run_until_complete`` and its
guards, ``close``, asyncio's C ``Future`` and ``Task``, the async-generator
hooks, and the exception handler that logs to the ``asyncio`` logger.  The
loop relies on four private names, alike on Python 3.10 to 3.13: the
``_run_once`` step it replaces, the ``_ready`` deque, the ``_stopping`` flag
set once ``run_until_complete``'s future is done, and ``_thread_id``.

An empty ready queue while the main task is unfinished is an exact
deadlock, so the loop raises ``Stalled`` instead of hanging.  Timers and
callbacks from other threads raise ``NotImplementedError``.
"""

from __future__ import annotations

import asyncio
import contextvars
import threading


class Stalled(RuntimeError):
    """No callback is ready, but the awaited task is unfinished."""


class RunLoop(asyncio.BaseEventLoop):
    """A FIFO of ready callbacks, run until one future is done."""

    def call_soon(self, callback, *args, context=None):
        # No Handle is returned: nothing in a run cancels a callback.
        if context is None:
            context = contextvars.copy_context()
        self._ready.append((callback, args, context))

    def call_at(self, when, callback, *args, context=None):
        # The inherited call_later goes through here.
        raise NotImplementedError("a RunLoop has no timers")

    def call_soon_threadsafe(self, callback, *args, context=None):
        # The async-generator finalizer calls from the loop's own thread;
        # no other thread (none, outside a run) can wake the loop.
        if threading.get_ident() != self._thread_id:
            raise NotImplementedError("a RunLoop runs in one thread")
        self.call_soon(callback, *args, context=context)

    def _run_once(self):
        """Run ready callbacks in FIFO order until the loop is stopped."""
        popleft = self._ready.popleft
        while not self._stopping:
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
    cancelled and run to their end, the async generators still open are
    closed, and the loop is closed.  A stalled run raises ``Stalled``; its
    tasks and generators are ended the same way first.
    """
    loop = RunLoop()
    try:
        return loop.run_until_complete(main)
    finally:
        try:
            _cancel_leftovers(loop)
            loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            loop.close()
