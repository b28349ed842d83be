"""Independent vs cooperating solvers on a deceptive valley.

ridge-basin-10 hides its optimum inside a narrow curved basin: population
metaheuristics locate the basin quickly but crawl once inside, while the
descent solvers converge fast but only from a good starting point.  With
sharing off every solver works from its own discoveries; with sharing on
the scheduler broadcasts each improvement, so the descent solvers restart
from whatever the metaheuristics found.  Both runs below use the same
seed, hence the same initial population -- the only difference is whether
improvements travel between solvers.

Usage: python3 demos/cooperation_on_a_ridge.py [seed]

Takes a few seconds: two full runs at 60000 scheduler messages each.
"""

import sys
from dataclasses import replace

from coopt.harness import preset_config, run_once

SEED = int(sys.argv[1]) if len(sys.argv) > 1 else 7
PROBLEM = "ridge-basin-10"


def timeline(report, head=6, tail=6):
    """Print the improvement trace (condensed) with solver attribution."""
    rows = report.trace
    shown = rows if len(rows) <= head + tail + 1 \
        else rows[:head] + [None] + rows[-tail:]
    print(f"  {'messages':>9s}  {'best value':>14s}  found by")
    for row in shown:
        if row is None:
            print(f"  {'...':>9s}  ({len(rows) - head - tail} more "
                  "improvements)")
            continue
        label = f"{row['instance_label']} ({row['class']})"
        print(f"  {row['messages']:9d}  {row['z'][0]:14.9f}  {label}")


def messages_to_converge(report, rtol=1e-6):
    """First message count at which the best was within rtol of its final value."""
    final = report.best_value()
    for row in report.trace:
        if row["z"][0] <= final * (1.0 + rtol):
            return row["messages"]
    return None


def describe(report):
    counters = report.counters
    print(f"  best value: {report.best_value():.9f}   "
          f"(dispatches {counters['dispatches']}, "
          f"broadcasts {counters['broadcasts']}, "
          f"improvements {counters['improvements']})")
    shares = sorted(report.per_solver_evaluations.items(),
                    key=lambda kv: -kv[1])
    total = sum(n for _, n in shares)
    print("  evaluation shares:",
          ", ".join(f"{label} {100 * n / total:.0f}%" for label, n in shares))


def main():
    cfg = preset_config("hen-protocol", PROBLEM, seed=SEED, repetitions=1)
    print(f"{PROBLEM}, seed {SEED}, roster of "
          f"{len(cfg.solvers)} solvers: "
          + ", ".join(sc.label for sc in cfg.solvers))

    reports = {}
    for mode, sharing in (("independent", False), ("cooperating", True)):
        print(f"\n== {mode} (sharing {'on' if sharing else 'off'}) ==")
        report = run_once(replace(cfg, sharing=sharing), rep_index=0)
        reports[mode] = report
        timeline(report)
        describe(report)

    ind, coop = reports["independent"], reports["cooperating"]
    print(f"\nindependent best {ind.best_value():.9f}  vs  "
          f"cooperating best {coop.best_value():.9f}")
    m_ind, m_coop = messages_to_converge(ind), messages_to_converge(coop)
    print(f"messages until within 1e-6 of the final value: "
          f"independent {m_ind}, cooperating {m_coop}")
    ds_rows = [r for r in coop.trace if r["class"] == "DS"]
    if ds_rows:
        print(f"descent solvers produced {len(ds_rows)} of the cooperating "
              f"run's {len(coop.trace)} improvements, working from "
              "broadcast starting points.")
    print("one seed proves nothing; the experiment harness repeats this "
          "pairing across repetitions (see README).")


if __name__ == "__main__":
    main()
