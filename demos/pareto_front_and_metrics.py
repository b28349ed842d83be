"""Trade-off discovery on a bi-objective benchmark, measured four ways.

The evaluation-budgeted roster (six metaheuristic populations plus descent
solvers at scalarizing weights 0.2/0.4/0.6/0.8) gets 1000 evaluations on
biobj-quadratic-5, whose true front is known in closed form.  The script
plots the non-dominated archive against that front, prints the
front-quality measures for the single run, then repeats the paired
independent/cooperating experiment and prints the median measures per
mode together with the files the harness wrote.

Usage: python3 demos/pareto_front_and_metrics.py

Takes about a second: 1 + 2*3 runs of 1000 evaluations each.
"""

import csv
from dataclasses import replace

import numpy as np

from coopt.harness import front_metrics, preset_config, run_experiment, run_once
from coopt.problems import front_samples

SEED = 424242
PROBLEM = "biobj-quadratic-5"
REPETITIONS = 3
OUTPUT_DIR = "demo-runs/pareto"


def ascii_front(archive_points, true_points, cols=64, rows=20):
    """Scatter both objective clouds on one character grid."""
    both = np.vstack([archive_points, true_points])
    lo, hi = both.min(axis=0), both.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    grid = [[" "] * cols for _ in range(rows)]

    def mark(points, glyph):
        for z1, z2 in points:
            c = int((z1 - lo[0]) / span[0] * (cols - 1))
            r = int((z2 - lo[1]) / span[1] * (rows - 1))
            grid[rows - 1 - r][c] = glyph

    mark(true_points, ".")
    mark(archive_points, "o")
    print(f"  z2 up to {hi[1]:.2f}   (o = archive, . = known front)")
    for line in grid:
        print("  |" + "".join(line))
    print("  +" + "-" * cols)
    print(f"  z1 from {lo[0]:.2f} to {hi[0]:.2f}")


def print_measures(measures):
    for name, value in measures.items():
        print(f"  {name:22s} {value:10.4f}")


def main():
    cfg = preset_config("mutas-protocol", PROBLEM, seed=SEED,
                        repetitions=REPETITIONS, output_dir=OUTPUT_DIR)
    print(f"{PROBLEM}: {cfg.budget.limit} evaluations, "
          f"{len(cfg.solvers)} solvers, seed {SEED}")

    print("\n== one cooperating run ==")
    report = run_once(replace(cfg, sharing=True), rep_index=0)
    points = np.array([e.objectives for e in report.archive.front])
    print(f"archive holds {len(points)} non-dominated points")
    ascii_front(points, front_samples(PROBLEM, 200))
    print("\nfront-quality measures (hypervolume larger is better, "
          "the rest smaller):")
    print_measures(front_metrics(points, PROBLEM))

    print(f"\n== paired experiment, {REPETITIONS} repetitions per mode ==")
    summary = run_experiment(cfg)
    print(f"{summary['runs']} runs written under {summary['output_dir']}/ "
          "(trace.csv, archive.csv, events.log, report.json each)")
    print(f"median measures per mode, from {summary['metrics']}:\n")

    def cell(text):
        try:
            return f"{float(text):14.4f}"
        except ValueError:
            return f"{text:>14s}"

    with open(summary["metrics"], newline="") as fh:
        for row in csv.reader(fh):
            print(f"  {row[0]:22s} {cell(row[1])} {cell(row[2])}")


if __name__ == "__main__":
    main()
