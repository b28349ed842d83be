"""Fixed reference tasks that measure how fast the host runs right now.

The benchmark's 2-core host is shared, and its speed drifts by tens of
percent over seconds to minutes: the same repetition, byte for byte the
same work, takes from 0.7 to 1.3 times its median.  ``run.py`` times
``sample()`` before the first repetition and after every one, and divides
each repetition's time by the mean of the two samples around it, scaled by
``REFERENCE_S``.  The result reads as the repetition's time on a host on
which ``sample()`` takes ``REFERENCE_S`` seconds.  Process start-up drifts
on its own, so each setup probe is scaled the same way by ``start()``, timed
right after it, and ``START_REFERENCE_S``.

Neither task imports anything from ``coopt``, so a change to the program
under test does not change them.  ``sample()`` mixes the kinds of work the
workloads do: a pure-Python dominance scan over objects, an asyncio queue
ping-pong, small numpy reductions and a JSON round trip with a keyed sort.
``start()`` starts an interpreter that imports numpy and the standard
modules the setup probe imports.
"""

from __future__ import annotations

import asyncio
import json
import random
import subprocess
import sys
import time

import numpy as np

# Typical seconds of one ``sample()`` and one ``start()`` (with one BLAS
# thread, as run.py sets) on the 2-core reference machine (Python 3.11.7,
# numpy 2.4.6) while the benchmark ran; samples ranged from 0.45 to 0.9 s.
REFERENCE_S = 0.65
START_REFERENCE_S = 0.15
_START = ("import argparse, json, platform, resource, statistics, subprocess\n"
          "import numpy\n"
          "print('ready', flush=True)")


class _Point:
    __slots__ = ("objectives", "feasible")

    def __init__(self, objectives):
        self.objectives = objectives
        self.feasible = True


_rng = random.Random(0)
_FRONT = [_Point((_rng.random(), _rng.random())) for _ in range(1000)]
_PROBES = [_Point((_rng.random(), _rng.random())) for _ in range(360)]
_VECTORS = np.random.default_rng(0).random((64, 10))
_DOCUMENT = [{"a": i, "b": [i * 0.5] * 5, "c": str(i)} for i in range(3000)]


def _dominates(a, b) -> bool:
    if a.feasible and b.feasible:
        strictly = False
        for x, y in zip(a.objectives, b.objectives):
            if x > y:
                return False
            if x < y:
                strictly = True
        return strictly
    return a.feasible


def _scan() -> int:
    return sum(_dominates(m, p) for p in _PROBES for m in _FRONT)


async def _ping_pong(messages: int) -> None:
    there, back = asyncio.Queue(), asyncio.Queue()

    async def echo():
        for _ in range(messages):
            await back.put(await there.get())

    task = asyncio.ensure_future(echo())
    for seq in range(messages):
        await there.put({"seq": seq})
        await back.get()
    await task


def _reductions() -> float:
    total = 0.0
    for _ in range(600):
        for x in _VECTORS:
            total += float(np.sum(x * x))
    return total


def _documents() -> None:
    for _ in range(12):
        decoded = json.loads(json.dumps(_DOCUMENT))
        sorted(decoded, key=lambda entry: -entry["a"])


def sample() -> float:
    """Seconds one run of the reference task takes now."""
    start = time.perf_counter()
    _scan()
    asyncio.run(_ping_pong(12_000))
    _reductions()
    _documents()
    return time.perf_counter() - start


def start() -> float:
    """Seconds from starting a fresh interpreter that imports numpy to its
    first line of output."""
    begin = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", _START],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - begin
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            sys.exit("error: reference start-up process failed")
    return elapsed
