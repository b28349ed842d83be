"""Golden replay: fixed configs must keep writing the same bytes.

Each case runs one repetition with seed 5 and 3 evaluators and hashes
trace.csv + archive.csv + events.log with SHA-256.  The
false-readings-analogue problem's second objective is built from floored
counts, so its fronts and fitness layers are full of equal-z2 ties.  Two
cases cover paths that the others do not:

* ``priority-ladder``: the hen roster at priorities 1/3/5/7/9/10, with the
  ``RunConfig`` built directly as the benchmark's workloads build theirs.
  Every other case queues all requests at priority 1, so only this one
  makes ``PriorityQueues.promote`` move requests between levels.
* ``mixed-int-quadratic-6``: its INTEGER dimensions take ``Domain.clip``'s
  rounding branch and the coordinate search's integer axis search.

``BENCH_GOLDEN`` holds the benchmark's three workloads at full budget, as
``bench/workloads.build_config(name, 1)`` builds them, at repetitions 0 and
1.  ``EXPERIMENT_GOLDEN`` holds a two-repetition ``run_experiment`` per
objective count: every file it writes (``boxplot.csv`` or ``metrics.csv``,
and each run's four files), with ``report.json``'s ``wall_time`` removed.

Before they were re-recorded, these hashes held unchanged through the
reply-future and preset-table refactor, the 2-D staircase archive, the
per-evaluation trims, the solver-kind table, the run-directory row record,
the measure table and the FIFO run loop.  They were re-recorded once, when
the evaluators lost their own mailboxes: the scheduler now sets each
dispatched point on a future that the evaluator's REQUESTPOINT carries.
That removed the ``"mailbox": "eval-<i>"`` ledger records from every
events.log and changed nothing else.  Every trace.csv, archive.csv and
report.json (less ``wall_time``) stayed byte-identical, and every
events.log equalled the old one with those records deleted.

They held again when ``RunRecord`` became the one builder of events.
Then ``EXPERIMENT_GOLDEN["biobj-quadratic-2"]`` alone was re-recorded,
when the analysis agent began to record an improvement that meets the
scheduler's closed inbox.  Until then such an improvement was in
archive.csv but not in trace.csv or events.log.  Each of its two
cooperating runs gained seq 299: one ``improvement`` line just before
``terminated``, one more trace.csv row, and one more ``improvements`` in
``terminated`` and report.json (62 -> 63 and 112 -> 113).  metrics.csv
and the independent runs did not change.

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
        "8916cfff481f78d5f209133a8b3e24d4902e2aaa85d5e1dfe719cffacfc9992e",
    ("mutas-protocol", "biobj-quadratic-5", None, True):
        "5bd89c707c468b246535485f6b0512060eb934013f401ba40366240d9ea669b1",
    ("hen-protocol", "ridge-basin-10", 6_000, False):
        "e61609bbc9d4c10dc60ebd596bd4712301df79f6588f6eaf43d44f64a93bb60a",
    ("hen-protocol", "ridge-basin-10", 6_000, True):
        "52332d33ed3e7195492b9af535367928e300a563309928c20fdb511dc8aceb2b",
    ("hen-protocol", "constrained-sphere-10", 6_000, False):
        "5a554f07f43ca6ae689dc195cb9212e6e5045adc510d6c81eb6d10fee1e02ca4",
    ("hen-protocol", "constrained-sphere-10", 6_000, True):
        "8110e6cb06d667878c4e47d4fcf6998284247f32d9e034e330830422ba9e1501",
    ("mutas-protocol", "false-readings-analogue", None, False):
        "c05ce3a9024b81bda9005ff999df3cf0672dfe194b24aaa221a1220b08c907a5",
    ("mutas-protocol", "false-readings-analogue", None, True):
        "f88599edb0666dba3449e632a8eb1e49190c1503729de45bebd3491a82e7135a",
    ("priority-ladder", "ridge-basin-10", 6_000, False):
        "af2457df8c699405ad085c63c0dde5bc48fffff02ab59c67d6923edb6f8a571a",
    ("hen-protocol", "mixed-int-quadratic-6", 6_000, True):
        "fdb08f952e0fbe119c369165a55aa2995189b46e3fe111e2cfbbd9818c783d80",
}
BENCH_GOLDEN = {  # name -> (repetition 0, repetition 1)
    "hen-sphere10": (
        "6683bea38b11a942112b6be3dd1abd5ecbb5a182f6568d63924ae79aa4a686cd",
        "b28d81e9117cc019224fda595dd5ac55a767a5120b5a3c82beebca514171e56b"),
    "mutas-biobj5-5k": (
        "56a8897891614d64d29ceb8a62351b556139535a3f3a49ee2a94381680912fbf",
        "ba1a6247b8f3ca6d6dfb1ffab2ea8e4919ad937bfffbed230fa71fa9ffd55a54"),
    "hen-ridge10-prio": (
        "6e606b13c70947b5fafdc545e868d552aecd588e28944a292f4478140d95f036",
        "ff5861ee1f510941da80085201dcfcce33d22277913640e7f66a7b1dd3af8aaa"),
}
# problem -> (preset, budget); seed SEED, repetitions 2
EXPERIMENTS = {
    "sphere-3": ("hen-protocol", Budget.messages(600)),
    "biobj-quadratic-2": ("mutas-protocol", Budget.evaluations(300)),
}
EXPERIMENT_GOLDEN = {
    "sphere-3":
        "475eca5545d63455c22ae71c3437e67e9b88abde8a9d0c152487970f5cbc3d7d",
    "biobj-quadratic-2":
        "c5d035fc93e8a1f607b54e6997b995b78770d04ce88d5eb8d30b436dbd2e9539",
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
