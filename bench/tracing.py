"""Outside-in tracing: spans around the public functions of each layer.

``Tracer.installed()`` patches, for the duration of one run, the public
entry points the agents call through module globals or class attributes:

* ``coopt.solvers.proxy_objective`` and ``assign_fitness``
* ``coopt.evaluator.evaluate_model`` (the evaluator's binding of
  ``coopt.core.evaluate_model``)
* ``coopt.analysis.update_archive``
* ``PriorityQueues.enqueue`` / ``next_request``
* ``Mailbox.put`` / ``take`` (counted only; see ``installed``)
* ``coopt.harness.scheduler_loop`` / ``front_metrics``

``run_once`` and ``write_run_dir`` are wrapped by the caller with
``Tracer.wrap``.  Nothing under ``src/coopt`` changes, and the wrappers add
no suspension point, so a traced run replays the untraced one exactly.

A span is ``(name, start, end, parent, rid)``: ``parent`` is the index of
the enclosing span in the same asyncio task (-1 at a task's root), ``rid``
the request it served (evaluation seq, solver label, or the ``id()`` of an
``EvaluationRequest``).  Spans stay in memory and are
written out by ``write_spans`` after the timed work.  Async spans include
the time their task was suspended; the loop split in ``layer_metrics``
therefore uses only synchronous spans, which the single thread runs
exclusively.
"""

from __future__ import annotations

import contextlib
import contextvars
import csv
import functools
import inspect
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import coopt.analysis
import coopt.evaluator
import coopt.harness
import coopt.solvers
from coopt.messaging import Mailbox
from coopt.scheduler import PriorityQueues

LAYERS = ("messaging", "scheduler", "evaluator", "solvers", "analysis",
          "harness", "metrics")


class Tracer:
    """In-memory span recorder plus the counters taken at the same wrappers."""

    def __init__(self):
        self.spans: list = []
        self.counts = dict.fromkeys(
            ("puts", "takes", "put_full", "take_empty", "improvements"), 0)
        self.queue_waits: list[float] = []
        self.queue_depths: list[int] = []
        self._current = contextvars.ContextVar("bench_span", default=-1)
        self._enqueued: dict[int, float] = {}
        self._last_reply: dict[str, float] = {}

    # ------------------------------------------------------------ wrapping

    def wrap(self, name, fn, rid=None, after=None):
        """A transparent wrapper around ``fn`` that records one span per call.

        ``rid(args, kwargs, result)`` and ``after(args, result, start, end)``
        run once the call has returned.  A call that raises (only shutdown
        does) leaves no span.
        """
        spans, clock = self.spans, time.perf_counter
        get, enter, leave = (self._current.get, self._current.set,
                             self._current.reset)

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced(*args, **kwargs):
                parent, idx = get(), len(spans)
                spans.append(None)
                token = enter(idx)
                start = clock()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    end = clock()
                    leave(token)
                spans[idx] = (name, start, end, parent,
                              None if rid is None else rid(args, kwargs, result))
                if after is not None:
                    after(args, result, start, end)
                return result
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                parent, idx = get(), len(spans)
                spans.append(None)
                token = enter(idx)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    leave(token)
                spans[idx] = (name, start, end, parent,
                              None if rid is None else rid(args, kwargs, result))
                if after is not None:
                    after(args, result, start, end)
                return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        counts = self.counts

        put, take = Mailbox.put, Mailbox.take

        # Mailbox calls are counted, not spanned: a hen run makes ~240k of
        # them, and an async span wrapper costs ~1.4 us per call on the
        # reference machine.  Returning the original coroutine keeps each
        # call's suspension points exactly as they were.
        @functools.wraps(put)
        def counted_put(mailbox, message):
            counts["puts"] += 1
            if len(mailbox) >= mailbox.capacity:
                counts["put_full"] += 1
            return put(mailbox, message)

        @functools.wraps(take)
        def counted_take(mailbox):
            counts["takes"] += 1
            if not len(mailbox):
                counts["take_empty"] += 1
            return take(mailbox)

        def proxy_after(args, result, start, end):
            solver = args[1]
            last = self._last_reply.get(solver)
            if last is not None:
                self.spans.append(("solvers.operator", last, start, -1, solver))
            self._last_reply[solver] = end

        def enqueue_after(args, result, start, end):
            self._enqueued[id(args[1])] = start
            self.queue_depths.append(len(args[0]))

        def next_after(args, result, start, end):
            if result is not None:
                self.queue_waits.append(start - self._enqueued.pop(id(result)))

        def archive_after(args, result, start, end):
            counts["improvements"] += bool(result)

        patches = (
            (coopt.solvers, "proxy_objective", "solvers.proxy_objective",
             dict(rid=lambda a, k, r: r.seq, after=proxy_after)),
            (coopt.solvers, "assign_fitness", "solvers.assign_fitness",
             dict(rid=lambda a, k, r: len(a[0]))),
            (coopt.evaluator, "evaluate_model", "evaluator.evaluate_model",
             dict(rid=lambda a, k, r: k.get("seq"))),
            (coopt.analysis, "update_archive", "analysis.update_archive",
             dict(rid=lambda a, k, r: a[1].seq, after=archive_after)),
            (PriorityQueues, "enqueue", "scheduler.enqueue",
             dict(rid=lambda a, k, r: id(a[1]), after=enqueue_after)),
            (PriorityQueues, "next_request", "scheduler.next_request",
             dict(rid=lambda a, k, r: id(r) if r is not None else None,
                  after=next_after)),
            (coopt.harness, "scheduler_loop", "scheduler.loop", {}),
            (coopt.harness, "front_metrics", "metrics.front_metrics", {}),
        )
        saved = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _name, _kw in patches]
        saved += [(Mailbox, "put", put), (Mailbox, "take", take)]
        try:
            for owner, attr, name, kw in patches:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), **kw))
            Mailbox.put, Mailbox.take = counted_put, counted_take
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    # ------------------------------------------------------------ analysis

    def _by_name(self) -> dict[str, np.ndarray]:
        """Per span name, an (n, 2) array of [start, end]."""
        grouped = defaultdict(list)
        for span in self.spans:
            if span is not None:
                grouped[span[0]].append((span[1], span[2]))
        return {name: np.asarray(rows) for name, rows in grouped.items()}

    def self_time_table(self) -> list[tuple]:
        """Rows ``(layer, span, calls, total_s, self_s)``.

        Self time is the span's duration minus the part of that interval its
        child spans cover.  Tasks inherit the span that created them, so the
        children of ``harness.run_once`` overlap; their union is subtracted.
        Async spans include the time their task waited while suspended.
        """
        total, covered, calls = Counter(), Counter(), Counter()
        children = defaultdict(list)
        spans = self.spans
        for span in spans:
            if span is None:
                continue
            name, start, end, parent, _rid = span
            calls[name] += 1
            total[name] += end - start
            if parent >= 0 and spans[parent] is not None:
                children[parent].append((start, end))
        for parent, rows in children.items():
            name, start, end = spans[parent][:3]
            covered[name] += _covered([np.asarray(rows)], (start, end))
        return sorted(((name.split(".")[0], name, calls[name], total[name],
                        total[name] - covered[name]) for name in calls),
                      key=lambda row: (LAYERS.index(row[0]), row[1]))

    def layer_metrics(self, report, labels) -> dict[str, tuple[float, str]]:
        """The per-layer metrics of one traced run, as name -> (value, unit)."""
        spans = self._by_name()
        empty = np.empty((0, 2))

        def durations(name):
            rows = spans.get(name, empty)
            return rows[:, 1] - rows[:, 0]

        def pct(values, q, scale=1e6):
            return float(np.percentile(values, q) * scale) if len(values) else 0.0

        loop_start, loop_end = spans["scheduler.loop"][0].tolist()
        run_end = float(spans["harness.run_once"][0, 1])
        loop_s = loop_end - loop_start
        model = spans.get("evaluator.evaluate_model", empty)
        archive = spans.get("analysis.update_archive", empty)
        fitness = spans.get("solvers.assign_fitness", empty)
        operator = spans.get("solvers.operator", empty)
        window = (loop_start, loop_end)
        measured = _covered([model, archive, fitness], window)
        covered = _covered([model, archive, fitness, operator], window)
        insert = durations("analysis.update_archive")
        fit = durations("solvers.assign_fitness")
        proxy = durations("solvers.proxy_objective")
        model_d = durations("evaluator.evaluate_model")
        mailboxes = [e for e in report.events if e.get("event") == "mailbox"]
        members = report.archive.members() if report.archive else []
        metrics = {
            "analysis.inserts": (len(insert), "count"),
            "analysis.improve_ratio": (
                self.counts["improvements"] / max(len(insert), 1), "ratio"),
            "analysis.insert_s": (float(insert.sum()), "s"),
            "analysis.insert_us.p50": (pct(insert, 50), "us"),
            "analysis.insert_us.p99": (pct(insert, 99), "us"),
            "analysis.insert_share": (float(insert.sum()) / loop_s, "ratio"),
            "analysis.front_size": (len(members), "count"),
            "solvers.fitness_calls": (len(fit), "count"),
            "solvers.fitness_s": (float(fit.sum()), "s"),
            "solvers.fitness_share": (float(fit.sum()) / loop_s, "ratio"),
            "harness.teardown_s": (run_end - loop_end, "s"),
            "metrics.front_metrics_s": (
                float(durations("metrics.front_metrics").sum()), "s"),
            "solvers.roundtrip_us.p50": (pct(proxy, 50), "us"),
            "solvers.roundtrip_us.p99": (pct(proxy, 99), "us"),
            "messaging.puts": (self.counts["puts"], "count"),
            "messaging.takes": (self.counts["takes"], "count"),
            "messaging.put_full": (self.counts["put_full"], "count"),
            "messaging.take_empty": (self.counts["take_empty"], "count"),
            "messaging.drops": (sum(m["drops"] for m in mailboxes), "count"),
            "scheduler.queue_wait_us.p50": (pct(self.queue_waits, 50), "us"),
            "scheduler.queue_wait_us.p99": (pct(self.queue_waits, 99), "us"),
            "scheduler.queue_depth.max": (max(self.queue_depths, default=0),
                                          "count"),
            "scheduler.loop_s": (loop_s, "s"),
            "scheduler.rest_share": (1.0 - covered / loop_s, "ratio"),
            "scheduler.broadcasts": (report.counters.get("broadcasts", 0),
                                     "count"),
            "solvers.operator_s": (covered - measured, "s"),
            "solvers.operator_share": ((covered - measured) / loop_s, "ratio"),
            "evaluator.model_s": (float(model_d.sum()), "s"),
            "evaluator.model_us.p50": (pct(model_d, 50), "us"),
            "evaluator.model_share": (float(model_d.sum()) / loop_s, "ratio"),
            "harness.events": (len(report.events), "count"),
            "harness.write_s": (
                float(durations("harness.write_run_dir").sum()), "s"),
        }
        for label in labels:
            metrics[f"solvers.evals.{label}"] = (
                report.per_solver_evaluations.get(label, 0), "count")
        return metrics

    def write_spans(self, path: Path) -> int:
        """Write every finished span as CSV (perf_counter seconds); return the count."""
        rows = [(index, *span) for index, span in enumerate(self.spans)
                if span is not None]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start", "end", "parent", "rid"])
            writer.writerows(rows)
        return len(rows)


def _covered(groups, window) -> float:
    """Length of the union of the [start, end] rows in ``groups``, clipped."""
    rows = np.concatenate([g for g in groups if len(g)] or [np.empty((0, 2))])
    if not len(rows):
        return 0.0
    rows = np.clip(rows, *window)
    rows = rows[np.argsort(rows[:, 0], kind="stable")].tolist()
    total, (cur_start, cur_end) = 0.0, rows[0]
    for start, end in rows[1:]:
        if start > cur_end:
            total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    return total + cur_end - cur_start
