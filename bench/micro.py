"""Layer microbenchmarks: one layer's public entry point on synthetic input.

Each returns ``name -> (value, unit)``.  ``BASELINES`` holds the values the
same operations took on the 2-core reference machine (Python 3.11.7,
numpy 2.4.6) before this benchmark existed; ``run.py`` prints them beside
each measurement.
"""

from __future__ import annotations

import asyncio
import statistics
import time

import numpy as np

from coopt.analysis import MULTI, Archive, update_archive
from coopt.core import Evaluation, evaluate_model
from coopt.messaging import Mailbox, Message, MessageKind
from coopt.problems import registry_get
from coopt.scheduler import EvaluationRequest, PriorityQueues
from coopt.solvers import assign_fitness

BASELINES = {
    "messaging.roundtrip_us": 8.4,
    "scheduler.dispatch_us": 2.4,
    "core.evaluate_model_us": 8.9,
    "analysis.insert_1k_s": 0.50,
    "analysis.insert_2k_s": 2.21,
    "analysis.insert_growth": 4.4,
    "solvers.fitness_100_ms": 8.4,
    "solvers.fitness_200_ms": 28.7,
}


def _median_per_call(fn, calls: int, repeats: int = 5) -> float:
    """Median over ``repeats`` of the mean seconds per call of ``fn(calls)``."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn(calls)
        samples.append((time.perf_counter() - start) / calls)
    return statistics.median(samples)


def _mailbox_roundtrips(n: int) -> None:
    """Two tasks ping-pong one message through a pair of 1-slot mailboxes."""
    async def main():
        there, back = Mailbox(1, "there"), Mailbox(1, "back")
        message = Message(MessageKind.EVALUATEPOINT, "bench", None)

        async def echo():
            for _ in range(n):
                await back.put(await there.take())

        task = asyncio.ensure_future(echo())
        for _ in range(n):
            await there.put(message)
            await back.take()
        await task
    asyncio.run(main())


def _dispatches(rng):
    priorities = rng.integers(1, 11, size=4096).tolist()

    def run(n: int) -> None:
        queues = PriorityQueues()
        requests = [EvaluationRequest(None, None, "bench", p) for p in priorities]
        for request in requests[:3]:
            queues.enqueue(request)
        for i in range(n):
            queues.enqueue(requests[i % len(requests)])
            if len(queues):
                queues.next_request()
    return run


def _model_calls(rng):
    problem = registry_get("sphere-10")
    points = [problem.domain.random_point(rng) for _ in range(256)]

    def run(n: int) -> None:
        for i in range(n):
            evaluate_model(problem, points[i % len(points)], seq=i)
    return run


def _front_evaluations(rng, n: int) -> list[Evaluation]:
    """n mutually non-dominated biobj-quadratic-5 evaluations, random order."""
    ts = rng.permutation(np.linspace(0.0, 1.0, n))
    return [Evaluation(np.zeros(5), (5.0 * t * t, 5.0 * (1.0 - t) ** 2), -1.0,
                       "bench", i)
            for i, t in enumerate(ts)]


def _insert_seconds(evaluations) -> float:
    archive = Archive(MULTI)
    start = time.perf_counter()
    for evaluation in evaluations:
        update_archive(archive, evaluation)
    elapsed = time.perf_counter() - start
    if len(archive.front) != len(evaluations):
        raise RuntimeError("non-dominated inserts were rejected")
    return elapsed


def _fitness_ms(rng, n: int) -> float:
    problem = registry_get("biobj-quadratic-5")
    members = [evaluate_model(problem, problem.domain.random_point(rng), seq=i)
               for i in range(n)]
    return 1e3 * _median_per_call(lambda _n: assign_fitness(members), 1)


def run_all(seed: int) -> dict[str, tuple[float, str]]:
    rng = np.random.default_rng(seed)
    insert_1k = _insert_seconds(_front_evaluations(rng, 1000))
    insert_2k = _insert_seconds(_front_evaluations(rng, 2000))
    return {
        "messaging.roundtrip_us": (
            1e6 * _median_per_call(_mailbox_roundtrips, 5000), "us"),
        "scheduler.dispatch_us": (
            1e6 * _median_per_call(_dispatches(rng), 20000), "us"),
        "core.evaluate_model_us": (
            1e6 * _median_per_call(_model_calls(rng), 20000), "us"),
        "analysis.insert_1k_s": (insert_1k, "s"),
        "analysis.insert_2k_s": (insert_2k, "s"),
        "analysis.insert_growth": (insert_2k / insert_1k, "ratio"),
        "solvers.fitness_100_ms": (_fitness_ms(rng, 100), "ms"),
        "solvers.fitness_200_ms": (_fitness_ms(rng, 200), "ms"),
    }
