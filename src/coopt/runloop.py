"""The event loop a run runs on: one FIFO of ready callbacks, nothing else.

A run has no timers and no I/O, so asyncio's own loop runs its ready
callbacks in FIFO order, paying for a selector poll and a ``Handle`` per
callback on the way.  ``RunLoop`` keeps the FIFO and drops the rest:
``call_soon`` appends ``(callback, args, context)`` to the ready deque, and
one ``_run_once`` pops and runs them in that order until the loop is
stopped.  So the interleaving, and every byte a run writes, stays the same.

asyncio's C ``Future`` calls ``loop.get_debug()`` for each future it
builds, and a hen run builds ~90k of them.  So ``create_future`` and
``get_debug`` are answered by C callables, not Python methods: a
``functools.partial`` of ``Future`` bound to the loop, and the
``__next__`` of an ``itertools.repeat`` of the debug flag, renewed by
each ``set_debug``.  The partial holds the loop, so ``close`` drops it.

The rest is ``asyncio.BaseEventLoop``'s: ``run_until_complete`` and its
guards, asyncio's C ``Future`` and ``Task``, the async-generator hooks,
and the exception handler that logs to the ``asyncio`` logger.  The
loop relies on four private names, alike on Python 3.11 to 3.13: the
``_run_once`` step it replaces, the ``_ready`` deque, the ``_stopping`` flag
set once ``run_until_complete``'s future is done, and ``_thread_id``.  A
RunLoop refuses to be made without one: ``RuntimeError`` names it.

An empty ready queue while the main task is unfinished is an exact
deadlock, so the loop raises ``Stalled`` instead of hanging.  Timers and
callbacks from other threads raise ``NotImplementedError``.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import itertools
import threading


class Stalled(RuntimeError):
    """No callback is ready, but the awaited task is unfinished."""


class RunLoop(asyncio.BaseEventLoop):
    """A FIFO of ready callbacks, run until one future is done."""

    def __init__(self):
        super().__init__()
        for owner, name in ((super(), "_run_once"), (self, "_ready"),
                            (self, "_stopping"), (self, "_thread_id")):
            if not hasattr(owner, name):
                self._closed = True  # so __del__ neither warns nor closes it
                raise RuntimeError(f"asyncio's event loop has no {name}, "
                                   "which a RunLoop relies on")
        self.create_future = functools.partial(asyncio.Future, loop=self)

    def set_debug(self, enabled):
        super().set_debug(enabled)
        self.get_debug = itertools.repeat(enabled).__next__

    def close(self):
        super().close()
        # Break the loop -> partial -> loop cycle: the class's
        # create_future answers from here on.
        self.__dict__.pop("create_future", None)

    def call_soon(self, callback, *args, context=None):
        # No Handle is returned: nothing in a run cancels a callback.
        if context is None:
            context = contextvars.copy_context()
        self._ready.append((callback, args, context))

    def call_at(self, when, callback, *args, context=None):
        # The inherited call_later goes through here.
        raise NotImplementedError("a RunLoop has no timers")

    def call_soon_threadsafe(self, callback, *args, context=None):
        # The async-generator finalizer and the runner's SIGINT handler
        # call from the loop's own thread; no other thread (none, outside
        # a run) can wake the loop.
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


def run(main):
    """Run coroutine ``main`` on a fresh ``RunLoop`` and return its result.

    This is ``asyncio.run`` with a ``RunLoop``: asyncio's own ``Runner``
    cancels the tasks still pending, closes the open async generators and
    closes the loop, also after a stalled run raises ``Stalled``.  In the
    main thread the first Ctrl-C cancels ``main``, so every ``finally``
    runs, and then raises ``KeyboardInterrupt``.
    """
    with asyncio.Runner(loop_factory=RunLoop) as runner:
        return runner.run(main)
