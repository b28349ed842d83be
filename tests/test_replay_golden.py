"""Golden replay: fixed configs must keep writing the same bytes.

Each case runs one repetition with seed 5 and 3 evaluators and hashes
trace.csv + archive.csv + events.log with SHA-256.  The first six hashes
were recorded before the reply-future / preset-table refactor, the
false-readings-analogue ones before the 2-D staircase archive and layers;
all still hold.  That problem's second objective is built from floored
counts, so its fronts and fitness layers are full of equal-z2 ties.

The last two were recorded before the per-evaluation trims (the clip,
``evaluate_model`` and promotion rewrites), on the code they replaced:

* ``priority-ladder``: the hen roster at priorities 1/3/5/7/9/10, with the
  ``RunConfig`` built directly as the benchmark's workloads build theirs.
  Every other case queues all requests at priority 1, so only this one
  makes ``PriorityQueues.promote`` move requests between levels.
* ``mixed-int-quadratic-6``: its INTEGER dimensions take ``Domain.clip``'s
  rounding branch and the coordinate search's integer axis search.

``BENCH_GOLDEN`` holds the benchmark's three workloads at full budget, as
``bench/workloads.build_config(name, 1)`` builds them, repetition 0.  Their
hashes were recorded before the solver-kind table and its two drivers.

A change that alters any message, its order, or the written outputs breaks
them.  A change that alters outputs on purpose must say why and record the
new hashes.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from coopt.harness import RunConfig, preset_config, run_once, write_run_dir
from coopt.scheduler import Budget
from coopt.solvers import SolverConfig

SEED = 5
GOLDEN = {
    ("mutas-protocol", "biobj-quadratic-5", None, False):
        "3300df44afe090d1a41276e1482bf92a142ff3b6c4e29b45c122f759ec5da654",
    ("mutas-protocol", "biobj-quadratic-5", None, True):
        "c8f473c1356aaa461a7a3abfe07ea25edea97c5474eda2a0a5b3bac4ec7fb01f",
    ("hen-protocol", "ridge-basin-10", 6_000, False):
        "2ae9450de55594dfbbf9e1575c9fec677b23340e1ee0de09c1079ef3f2360b5d",
    ("hen-protocol", "ridge-basin-10", 6_000, True):
        "6fa646e48a78aee41462553bdb1c5d4f31b58f0f665111bef659a4533c5ae34e",
    ("hen-protocol", "constrained-sphere-10", 6_000, False):
        "8601fef4cd0bed1dbef6813cfd7d80fc8e74723986434bfb1d319624f2fe45fe",
    ("hen-protocol", "constrained-sphere-10", 6_000, True):
        "f54b74678c8d4a2a3e614b067a7ce98ddf89d55acb54bb6c4b21c3df9e5e35f3",
    ("mutas-protocol", "false-readings-analogue", None, False):
        "92835ef2bf4923f6969b8eb4e707365fe566039cb326bc61e71cf97df3f186e9",
    ("mutas-protocol", "false-readings-analogue", None, True):
        "dd7e3fff1b08d0cc9e38eb21c395a68142e401b2bc557b749fe76f31186ac6a9",
    ("priority-ladder", "ridge-basin-10", 6_000, False):
        "4c3087f1c0ced8772e4a393d06c99b53cbf954b12d67d9b5bf2185b57d349aa1",
    ("hen-protocol", "mixed-int-quadratic-6", 6_000, True):
        "a6a37970dee2bc0833817d8974bc41804d89004064370a9f0d13095096182481",
}
BENCH_GOLDEN = {
    "hen-sphere10":
        "199ca92db6a150a20268db7c1d801912804dde2549d1d588f1527cabbe6804a6",
    "mutas-biobj5-5k":
        "3c7c517629766e022db3a9ea0c59ac0739ef566097c9568863bc95cb4c262d87",
    "hen-ridge10-prio":
        "5a733ade54e9d5f49c3bf9793990f395041708fa91dd70a6a87a7d925acb36ee",
}
LADDER = (("GA", 10, "ga-small", 1), ("GA", 50, "ga-large", 3),
          ("PPA", 5, "ppa-small", 5), ("PPA", 20, "ppa-large", 7),
          ("SD", 1, "sd", 9), ("CS", 1, "cs", 10))


def _case_id(case):
    preset, problem, _messages, sharing = case
    mode = "cooperating" if sharing else "independent"
    ladder = "-priority-ladder" if preset == "priority-ladder" else ""
    return f"{problem}-{mode}{ladder}"


def _config(case) -> RunConfig:
    preset, problem, messages, sharing = case
    if preset == "priority-ladder":
        roster = tuple(SolverConfig(kind, size, priority=priority,
                                    instance_label=label)
                       for kind, size, label, priority in LADDER)
        return RunConfig(problem=problem, budget=Budget.messages(messages),
                         solvers=roster, population_size=10, n_evaluators=3,
                         sharing=sharing, seed=SEED, repetitions=1)
    overrides = {"budget": Budget.messages(messages)} if messages else {}
    return preset_config(preset, problem, seed=SEED, n_evaluators=3,
                         sharing=sharing, repetitions=1, **overrides)


def _workloads():
    """``bench/workloads.py``, loaded by its path."""
    path = Path(__file__).parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digest(cfg: RunConfig, tmp_path) -> str:
    run_dir = write_run_dir(tmp_path, run_once(cfg, 0))
    digest = hashlib.sha256()
    for name in ("trace.csv", "archive.csv", "events.log"):
        digest.update((run_dir / name).read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("case", list(GOLDEN), ids=_case_id)
def test_outputs_match_golden_hash(tmp_path, case):
    assert _digest(_config(case), tmp_path) == GOLDEN[case]


@pytest.mark.parametrize("name", list(BENCH_GOLDEN))
def test_bench_workload_matches_golden_hash(tmp_path, name):
    cfg = _workloads().build_config(name, 1)
    assert _digest(cfg, tmp_path) == BENCH_GOLDEN[name]
