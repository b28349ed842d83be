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
``bench/workloads.build_config(name, 1)`` builds them, at repetitions 0 and
1.  The repetition-0 hashes were recorded before the solver-kind table and
its two drivers, the repetition-1 ones before the run-directory row record.

``EXPERIMENT_GOLDEN`` holds a two-repetition ``run_experiment`` per
objective count: every file it writes (``boxplot.csv`` or ``metrics.csv``,
and each run's four files), with ``report.json``'s ``wall_time`` removed.
Those hashes were recorded before the run-directory row record and the
measure table.

A change that alters any message, its order, or the written outputs breaks
them.  A change that alters outputs on purpose must say why and record the
new hashes.
"""

import hashlib
import importlib.util
import re
from pathlib import Path

import pytest

from coopt.harness import (
    RunConfig,
    preset_config,
    run_experiment,
    run_once,
    write_run_dir,
)
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
BENCH_GOLDEN = {  # name -> (repetition 0, repetition 1)
    "hen-sphere10": (
        "199ca92db6a150a20268db7c1d801912804dde2549d1d588f1527cabbe6804a6",
        "c78de778b1eea40c115aa1eccf95b7688aa7cbe84dba25042c9d71bacc93ff86"),
    "mutas-biobj5-5k": (
        "3c7c517629766e022db3a9ea0c59ac0739ef566097c9568863bc95cb4c262d87",
        "1c69af7183b25a3d013cf6402243aebb8d9ceca0572ecf535e860c66d946fe69"),
    "hen-ridge10-prio": (
        "5a733ade54e9d5f49c3bf9793990f395041708fa91dd70a6a87a7d925acb36ee",
        "8c31bd1ff0d24816a07f7744c877f16b289930941c1c01c70fde42afc2a9a8ad"),
}
# problem -> (preset, budget); seed SEED, repetitions 2
EXPERIMENTS = {
    "sphere-3": ("hen-protocol", Budget.messages(600)),
    "biobj-quadratic-2": ("mutas-protocol", Budget.evaluations(300)),
}
EXPERIMENT_GOLDEN = {
    "sphere-3":
        "b243bfb73d132cdf094cbabadf8d43a2444fbdfe15bd423c596ccfc6faf107ef",
    "biobj-quadratic-2":
        "2a3b28782cfd32a8dba5c2f192578f06a40c0e5d1ffcab1cc12ad60136d90e17",
}
WALL_TIME = re.compile(rb', "wall_time": [-+.e0-9]+')
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


def _digest(cfg: RunConfig, tmp_path, rep_index: int = 0) -> str:
    run_dir = write_run_dir(tmp_path, run_once(cfg, rep_index))
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
    for rep_index, golden in enumerate(BENCH_GOLDEN[name]):
        assert _digest(cfg, tmp_path / str(rep_index), rep_index) == golden


def _experiment_digest(problem: str, out) -> str:
    """SHA-256 over every file ``run_experiment`` writes, by relative path."""
    preset, budget = EXPERIMENTS[problem]
    run_experiment(preset_config(preset, problem, budget=budget,
                                 population_size=6, seed=SEED,
                                 repetitions=2, output_dir=str(out)))
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        blob = path.read_bytes()
        if path.name == "report.json":
            blob, found = WALL_TIME.subn(b"", blob)
            assert found == 1
        digest.update(path.relative_to(out).as_posix().encode() + b"\0")
        digest.update(blob)
    return digest.hexdigest()


@pytest.mark.parametrize("problem", list(EXPERIMENT_GOLDEN))
def test_experiment_outputs_match_golden_hash(tmp_path, problem):
    assert _experiment_digest(problem, tmp_path / "out") \
        == EXPERIMENT_GOLDEN[problem]
