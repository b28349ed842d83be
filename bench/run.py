"""coopt benchmark: one workload, end-to-end or traced, checked and fingerprinted.

Usage (from the repository root)::

    python3 bench/run.py --workload hen-ridge10-prio --seed 1 --seconds 60 --trace 0

Each repetition runs ``run_once`` + ``write_run_dir`` on the workload's
config, which is what ``coopt run`` does per repetition, then checks the
written run directory and fingerprints its trace.csv + archive.csv.
Repetitions run ``run_once(cfg, index)`` with the indices 0, 0, 1, 2, ...,
as ``coopt run`` numbers its repetitions: each index draws its own random
streams from ``--seed``, so one invocation averages over as many streams as
it runs repetitions and its work barely depends on the seed.  The second
repetition reruns index 0 and must give the same fingerprint as the first.
Repetitions start while the next one is expected to end within
``--seconds`` of the start, with at least ``MIN_REPS``.

The host is shared and its speed drifts, so every time is scaled to a
reference host speed: ``hostspeed.sample()``, a fixed task that imports
nothing from coopt, is timed before the first repetition and after each one,
and a repetition's time is multiplied by ``hostspeed.REFERENCE_S`` over the
mean of the two samples around it.  With ``--trace 0`` one setup probe runs
before each repetition, followed by ``hostspeed.start()``, a fresh
interpreter that imports numpy only; the probe is scaled by
``hostspeed.START_REFERENCE_S`` over that.  Reported times are medians of
the scaled values; the unscaled ones are printed beside them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` traces the
second repetition, the rerun of index 0, reports the per-layer metrics and
the layer microbenchmarks, and prints a self-time table.  Metric names and
units come from ``BENCHMARK.json``.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
Run directories, the span CSV and a JSON record of each invocation are
written under ``bench/.runs/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / ".runs"
MIN_REPS = 3
TRACED_REP = 1
# One BLAS thread in this process and the processes it starts.  The
# workloads use small arrays only; on a 2-core host OpenBLAS's thread-pool
# start-up otherwise adds ~0.07 s, which comes and goes, to every set-up.
# Set before numpy is first imported.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


def _import_coopt() -> None:
    """Import coopt from this checkout's src/ and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import coopt
    except ImportError as exc:
        sys.exit(f"error: cannot import coopt from {src}: {exc}")
    if src not in Path(coopt.__file__).resolve().parents:
        sys.exit(f"error: coopt was imported from {coopt.__file__}, not {src}")


if __name__ == "__main__":
    os.environ.update(BLAS_THREADS)
    _import_coopt()

import numpy as np  # noqa: E402

from coopt.harness import run_once, write_run_dir  # noqa: E402
from coopt.problems import registry_get  # noqa: E402
from coopt.scheduler import Budget  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import micro  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class Rep:
    """Timing, checks and fingerprint of one repetition."""

    def __init__(self, report, index: int, wall_s: float, run_dir: Path, cfg):
        problem = registry_get(cfg.problem)
        self.index = index
        self.wall_s = wall_s
        self.setup_s = None
        self.start_s = None
        self.host = 1.0
        self.dispatches = report.counters.get("dispatches", 0)
        self.messages = report.counters.get("messages", 0)
        self.failures = checks.check_run(report, run_dir, problem.n_obj > 1,
                                         cfg.budget)
        self.fingerprint = checks.fingerprint(run_dir)
        if problem.n_obj > 1:
            self.quality = ("hv", (report.metrics_row or {}).get("hypervolume"))
        else:
            best = report.best_value()
            self.quality = ("best_gap", None if best is None
                            else best - problem.known_optimum)


def run_rep(cfg, run_dir, index, call_run=run_once, call_write=write_run_dir):
    """One timed repetition (run_once + write_run_dir), then its checks."""
    gc.collect()
    start = time.perf_counter()
    report = call_run(cfg, index)
    call_write(run_dir, report)
    wall_s = time.perf_counter() - start
    return Rep(report, index, wall_s, run_dir, cfg), report


def rep_index(i: int) -> int:
    """Repetition index of the i-th repetition: 0, 0, 1, 2, ...

    Repetition TRACED_REP reruns index 0, so every invocation checks that
    outputs repeat and, when traced, that tracing leaves them unchanged.
    """
    return max(0, i - TRACED_REP)


def warm_up(cfg) -> None:
    """One untimed, unchecked run on a twentieth of the budget, so the first
    timed repetition does not pay for lazy imports and a cold allocator."""
    budget = Budget(cfg.budget.kind, max(1, cfg.budget.limit // 20))
    run_once(replace(cfg, budget=budget), 0)


def measure(cfg, run_dir: Path, deadline: float, traced: bool, probe=None):
    """Repetitions until the next one would end past ``deadline``.

    At least MIN_REPS run.  Repetition TRACED_REP is traced if asked.  Host
    speed is sampled before the first repetition and after each one; if
    ``probe`` is given, it times one setup, and ``hostspeed.start()`` one
    reference start-up, before each repetition.
    """
    warm_up(cfg)
    hostspeed.sample()  # warms the reference task up; discarded
    samples, cycles = [hostspeed.sample()], []
    reps, tracer, traced_report = [], None, None
    while len(reps) < MIN_REPS or time.perf_counter() + statistics.median(
            cycles) <= deadline:
        start = time.perf_counter()
        setup_s = probe() if probe else None
        start_s = hostspeed.start() if probe else None
        index = rep_index(len(reps))
        if traced and len(reps) == TRACED_REP:
            tracer = tracing.Tracer()
            with tracer.installed():
                rep, traced_report = run_rep(
                    cfg, run_dir, index,
                    tracer.wrap("harness.run_once", run_once),
                    tracer.wrap("harness.write_run_dir", write_run_dir))
        else:
            rep, _ = run_rep(cfg, run_dir, index)
        rep.setup_s, rep.start_s = setup_s, start_s
        reps.append(rep)
        samples.append(hostspeed.sample())
        cycles.append(time.perf_counter() - start)
    for rep, before, after in zip(reps, samples, samples[1:]):
        rep.host = (before + after) / 2 / hostspeed.REFERENCE_S
    return reps, tracer, traced_report


def probe_setup(name: str, seed: int) -> float:
    """Seconds from starting a fresh benchmark process to its first run."""
    start = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            sys.exit("error: setup probe failed")
    return elapsed


def setup_only(name: str, seed: int) -> None:
    """What precedes the first ``run_once``: config, problem, population."""
    cfg = workloads.build_config(name, seed)
    problem = registry_get(cfg.problem)
    problem.domain.random_population(np.random.default_rng(seed),
                                     cfg.population_size)
    print("ready", flush=True)


def mark_inconsistent(reps) -> None:
    """Fail every repetition whose outputs differ from the first one with
    the same repetition index."""
    first = {}
    for i, rep in enumerate(reps):
        j = first.setdefault(rep.index, i)
        if (rep.fingerprint, rep.quality) != (reps[j].fingerprint,
                                              reps[j].quality):
            rep.failures.append(f"outputs differ from repetition {j}")


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": BLAS_THREADS,
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg": list(os.getloadavg())}


def end_to_end(reps) -> dict[str, tuple[float, str]]:
    """Medians over the repetitions, times scaled to the reference host."""
    return {
        "wall_s": (statistics.median(r.wall_s / r.host for r in reps), "s"),
        "evals_per_s": (statistics.median(r.dispatches * r.host / r.wall_s
                                          for r in reps), "1/s"),
        "msgs_per_s": (statistics.median(r.messages * r.host / r.wall_s
                                         for r in reps), "1/s"),
        "setup_s": (statistics.median(
            r.setup_s / r.start_s * hostspeed.START_REFERENCE_S
            for r in reps), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def per_layer(reps, tracer, report, seed) -> dict[str, tuple[float, str]]:
    traced = reps[TRACED_REP]
    untraced = statistics.median(
        r.wall_s / r.host for i, r in enumerate(reps)
        if i != TRACED_REP and r.index == traced.index)
    metrics = tracer.layer_metrics(report, workloads.solver_labels())
    name, value = traced.quality
    metrics["result.best_gap"] = (value if name == "best_gap" else 0.0, "1")
    metrics["result.hv"] = (value if name == "hv" else 0.0, "1")
    metrics["trace.overhead"] = (traced.wall_s / traced.host / untraced - 1.0,
                                 "ratio")
    micro_values = micro.run_all(seed)
    print("layer microbenchmarks (baseline before this benchmark existed):")
    for key, (value, unit) in micro_values.items():
        print(f"  {key:28s} {value:10.4g} {unit:5s} baseline "
              f"{micro.BASELINES[key]}")
    metrics.update(micro_values)
    return metrics


def print_self_times(tracer, metrics) -> None:
    print("self time per span in the traced repetition "
          "(async spans include time suspended):")
    print(f"  {'layer':10s} {'span':26s} {'calls':>8s} {'total_s':>9s} "
          f"{'self_s':>9s}")
    for layer, name, calls, total, self_s in tracer.self_time_table():
        print(f"  {layer:10s} {name:26s} {calls:8d} {total:9.4f} {self_s:9.4f}")
    loop_s = metrics["scheduler.loop_s"][0]
    print(f"scheduler loop split ({loop_s:.3f} s on one thread):")
    for part, share in (("model (evaluator)", "evaluator.model_share"),
                        ("archive (analysis)", "analysis.insert_share"),
                        ("fitness (solvers)", "solvers.fitness_share"),
                        ("operators (solvers)", "solvers.operator_share"),
                        ("rest: messaging, scheduler, event loop",
                         "scheduler.rest_share")):
        value = metrics[share][0]
        print(f"  {part:40s} {value * loop_s:8.4f} s {value:7.1%}")


def main() -> int:
    args = _parse_args(sys.argv[1:])
    if args.setup_probe:
        setup_only(args.workload, args.seed)
        return 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    cfg = workloads.build_config(args.workload, args.seed)
    run_dir = RUNS / args.workload
    run_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "env_start": environment()}
    deadline = time.perf_counter() + args.seconds

    probe = None if args.trace else (
        lambda: probe_setup(args.workload, args.seed))
    reps, tracer, traced_report = measure(cfg, run_dir, deadline,
                                          bool(args.trace), probe)
    mark_inconsistent(reps)
    failed = sum(bool(rep.failures) for rep in reps)

    print(f"workload {args.workload}  seed {args.seed}  {len(reps)} reps  "
          f"closed loop: {len(cfg.solvers)} solvers, {cfg.n_evaluators} "
          f"evaluators, budget {cfg.budget.limit} {cfg.budget.kind}")
    for i, rep in enumerate(reps):
        traced = " traced" if args.trace and i == TRACED_REP else ""
        print(f"  rep {i}{traced} index {rep.index}: {rep.wall_s:.4f} s "
              f"at host speed {1 / rep.host:.3f}, "
              f"{rep.dispatches} evals, {rep.messages} msgs, "
              f"{rep.quality[0]} {rep.quality[1]!r}, "
              f"sha256 {rep.fingerprint[:16]}"
              + (f"  FAILED: {'; '.join(rep.failures)}" if rep.failures else ""))

    if args.trace:
        metrics = per_layer(reps, tracer, traced_report, args.seed)
        print_self_times(tracer, metrics)
        record["spans"] = tracer.write_spans(run_dir / "spans.csv")
    else:
        metrics = end_to_end(reps)
        print(f"unscaled medians: wall_s "
              f"{statistics.median(r.wall_s for r in reps):.4f} s, setup_s "
              f"{statistics.median(r.setup_s for r in reps):.4f} s, "
              f"reference start-up "
              f"{statistics.median(r.start_s for r in reps):.4f} s")
        metrics[reps[0].quality[0]] = (reps[0].quality[1], "1")
        metrics["fail_ratio"] = (failed / len(reps), "ratio")

    print("metrics:")
    for key, (value, unit) in metrics.items():
        print(f"  {key:30s} {value!r:>24} {unit}")
    mismatched = [m["name"] for m in wanted
                  if metrics.get(m["name"], (None, None))[1] != m["unit"]]
    if mismatched:
        sys.exit(f"error: metrics missing or in another unit than "
                 f"BENCHMARK.json declares: {mismatched}")
    out = {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
           for m in wanted}

    record.update(env_end=environment(), metrics=out,
                  reference_s=hostspeed.REFERENCE_S, reps=[
        {"index": r.index, "wall_s": r.wall_s, "host": r.host,
         "setup_s": r.setup_s, "start_s": r.start_s,
         "dispatches": r.dispatches,
         "messages": r.messages, "quality": list(r.quality),
         "sha256_trace_archive": r.fingerprint, "failures": r.failures}
        for r in reps])
    (run_dir / f"record-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": len(reps),
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
