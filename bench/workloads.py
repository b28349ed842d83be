"""The benchmark's workloads: config, roster and priorities built from a seed.

Every workload is a closed loop: each solver keeps at most one evaluation in
flight and waits for its reply.  Everything runs in one process on one
asyncio loop with 2 evaluators.  The rosters are written out here rather
than taken from the ``coopt.harness`` presets, so the benchmark's inputs
stay fixed while the presets evolve.  Why each workload exists and which
layer metrics it should move is recorded in ``BENCHMARK.json`` and
``README.md``.
"""

from __future__ import annotations

from coopt.harness import RunConfig
from coopt.scheduler import Budget
from coopt.solvers import SolverConfig

NAMES = ("hen-sphere10", "mutas-biobj5-5k", "hen-ridge10-prio")
HEN_PRIORITIES_FLAT = {"ga-small": 1, "ga-large": 1, "ppa-small": 1,
                       "ppa-large": 1, "sd": 1, "cs": 1}
HEN_PRIORITIES_LADDER = {"ga-small": 1, "ga-large": 3, "ppa-small": 5,
                         "ppa-large": 7, "sd": 9, "cs": 10}
MUTAS_WEIGHTS = (0.2, 0.4, 0.6, 0.8)


def _hen_roster(ps: int, priorities: dict[str, int]) -> tuple:
    sizes = (("GA", ps, "ga-small"), ("GA", 5 * ps, "ga-large"),
             ("PPA", max(1, round(ps / 2)), "ppa-small"),
             ("PPA", 2 * ps, "ppa-large"), ("SD", 1, "sd"), ("CS", 1, "cs"))
    return tuple(SolverConfig(kind, size, priority=priorities[label],
                              instance_label=label)
                 for kind, size, label in sizes)


def _mutas_roster(ps: int) -> tuple:
    sizes = (("GA", 2 * ps, "ga-small"), ("GA", 5 * ps, "ga-large"),
             ("PPA", max(1, round(ps / 2)), "ppa-small"),
             ("PPA", 2 * ps, "ppa-large"), ("PSO", ps, "pso-small"),
             ("PSO", 5 * ps, "pso-large"))
    return tuple(SolverConfig(kind, size, instance_label=label)
                 for kind, size, label in sizes) + tuple(
        SolverConfig(kind, weight=w,
                     instance_label=f"{kind.lower()}-w{int(w * 100)}")
        for kind in ("SD", "CS") for w in MUTAS_WEIGHTS)


def build_config(name: str, seed: int) -> RunConfig:
    """The RunConfig of one workload; ``seed`` drives every random stream."""
    if name == "hen-sphere10":
        return RunConfig(problem="sphere-10", budget=Budget.messages(60_000),
                         solvers=_hen_roster(10, HEN_PRIORITIES_FLAT),
                         population_size=10, n_evaluators=2, sharing=True,
                         seed=seed, repetitions=1)
    if name == "mutas-biobj5-5k":
        return RunConfig(problem="biobj-quadratic-5",
                         budget=Budget.evaluations(5_000),
                         solvers=_mutas_roster(20), population_size=20,
                         n_evaluators=2, sharing=True, seed=seed,
                         repetitions=1)
    if name == "hen-ridge10-prio":
        return RunConfig(problem="ridge-basin-10",
                         budget=Budget.messages(60_000),
                         solvers=_hen_roster(10, HEN_PRIORITIES_LADDER),
                         population_size=10, n_evaluators=2, sharing=False,
                         seed=seed, repetitions=1)
    raise KeyError(f"unknown workload {name!r}; available: {', '.join(NAMES)}")


def solver_labels() -> list[str]:
    """Every solver label of every workload, for the solvers.evals.* metrics."""
    labels: list[str] = []
    for name in NAMES:
        for sc in build_config(name, 0).solvers:
            if sc.label not in labels:
                labels.append(sc.label)
    return labels
