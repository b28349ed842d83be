"""Config parsing, presets, single runs, experiment layout, and the CLI."""

import codecs
import gc
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from coopt import harness
from coopt.cli import main as cli_main
from coopt.harness import (
    ConfigError,
    RunConfig,
    load_config,
    preset_config,
    run_experiment,
    run_once,
    write_run_dir,
)
from coopt.metrics import MEASURES
from coopt.scheduler import Budget, EventLog
from coopt.solvers import SolverConfig
from oracles import logged_events


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


SMALL = RunConfig(
    problem="sphere-3",
    budget=Budget.messages(600),
    solvers=(SolverConfig("GA", 6, instance_label="ga"),
             SolverConfig("CS", instance_label="cs")),
    population_size=6,
    seed=9,
    repetitions=2,
)


# ------------------------------------------------------------- config files

def test_preset_config_expands_roster_and_budget(tmp_path):
    cfg = load_config(write(tmp_path, """
        problem = rastrigin-10
        preset = hen-protocol
    """))
    assert len(cfg.solvers) == 6
    assert cfg.budget == Budget.messages(60_000)
    assert cfg.population_size == 10
    assert [s.kind for s in cfg.solvers] == \
        ["GA", "GA", "PPA", "PPA", "SD", "CS"]
    assert [s.size_param for s in cfg.solvers] == [10, 50, 5, 20, 1, 1]


def test_mutas_preset_roster():
    cfg = preset_config("mutas-protocol", "biobj-quadratic-5")
    assert cfg.population_size == 20
    assert cfg.budget == Budget.evaluations(1_000)
    assert len(cfg.solvers) == 14
    sizes = {s.label: s.size_param for s in cfg.solvers}
    assert sizes["ga-small"] == 40 and sizes["ga-large"] == 100
    assert sizes["ppa-small"] == 10 and sizes["ppa-large"] == 40
    assert sizes["pso-small"] == 20 and sizes["pso-large"] == 100
    weights = sorted(s.weight for s in cfg.solvers if s.kind == "SD")
    assert weights == [0.2, 0.4, 0.6, 0.8]
    assert weights == sorted(s.weight for s in cfg.solvers if s.kind == "CS")


def test_explicit_solver_blocks_replace_preset_roster(tmp_path):
    cfg = load_config(write(tmp_path, """
        problem = sphere-3
        preset = hen-protocol

        [solver]
        kind = PSO
        size = 7
        priority = 3
        label = my-swarm
    """))
    assert len(cfg.solvers) == 1
    solver = cfg.solvers[0]
    assert (solver.kind, solver.size_param, solver.priority, solver.label) \
        == ("PSO", 7, 3, "my-swarm")


def test_full_explicit_config(tmp_path):
    cfg = load_config(write(tmp_path, """
        # a comment
        problem = biobj-quadratic-2
        budget = evaluations:250
        np = 8
        n_evaluators = 1
        seed = 17
        repetitions = 3
        output_dir = out/here

        [solver]
        kind = SD
        omega = 0.25
    """))
    assert cfg.budget == Budget.evaluations(250)
    assert cfg.population_size == 8
    assert (cfg.n_evaluators, cfg.seed) == (1, 17)
    assert (cfg.repetitions, cfg.output_dir) == (3, "out/here")
    assert cfg.solvers[0].weight == 0.25
    assert cfg.solvers[0].label == "sd-1"


@pytest.mark.parametrize("text, fragment", [
    ("np = 5\nbudget = messages:10\n[solver]\nkind = GA",
     "missing required key 'problem'"),
    ("problem = no-such-thing-3\nnp = 5", "line 1"),
    ("problem = nosuch-3", "line 1: unknown problem 'nosuch-3'"),
    ("problem = sphere-3\npreset = unknown-protocol", "line 2"),
    ("problem = sphere-3\nbudget = messages:10\n[solver]\nkind = GA",
     "missing required key 'np'"),
    ("problem = sphere-3\nnp = 5\n[solver]\nkind = GA",
     "missing required key 'budget'"),
    ("problem = sphere-3\nnp = 5\nbudget = messages:10",
     "no [solver] blocks"),
    ("problem = sphere-3\nwhatever = 3", "line 2: unknown key 'whatever'"),
    ("problem = sphere-3\nproblem = sphere-4", "line 2: duplicate key"),
    ("problem = sphere-3\nnp = many", "line 2: np must be an integer"),
    ("problem = sphere-3\nbudget = 60000", "line 2: budget must look like"),
    ("problem = sphere-3\nbudget = steps:60000", "line 2"),
    ("problem = sphere-3\nsharing = false", "line 2: unknown key 'sharing'"),
    ("problem = sphere-3\njust text", "line 2: expected 'key = value'"),
    ("problem = sphere-3\n[something]", "line 2: unknown section"),
    ("problem = sphere-3\n[solver]\nsize = 5",
     "block 1: missing required key 'kind'"),
    ("problem = sphere-3\n[solver]\nkind = GA\nproblem = x",
     "line 4: unknown key 'problem' in [solver] block"),
    ("problem = sphere-3\n[solver]\nkind = ZZ", "line 3"),
    ("problem = sphere-3\n[solver]\nkind = SD\nomega = wide",
     "line 4: omega must be a number"),
    ("problem = sphere-3\n[solver]\nkind = GA\nsize = 5\npriority = 11",
     "line 5: priority must lie in [1, 10]"),
    ("problem = sphere-3\n[solver]\nkind = SD\nomega = 1.5",
     "line 4: omega must lie in [0, 1]"),
    ("problem = sphere-3\n[solver]\nkind = GA\nsize = 0",
     "line 4: size must be >= 1"),
    ("problem = sphere-3\npreset = hen-protocol\nn_evaluators = 0",
     "line 3: n_evaluators must be >= 1"),
    ("problem = sphere-3\nseed = -1\nnp = 5\nbudget = messages:10\n"
     "[solver]\nkind = GA", "line 2: seed must be >= 0"),
    ("problem = sphere-3\npreset = hen-protocol\nrepetitions = 0",
     "line 3: repetitions must be >= 1"),
    # Each problem below is refused before anything is built.
    ("problem = sphere-99999999999999999999",
     "line 1: dimension must lie in [1, 10000] in "
     "'sphere-99999999999999999999'"),
    ("problem = sphere-\uff13", "line 1: unknown problem 'sphere-\uff13'"),
    ("problem = sphere-\u00b2", "line 1: unknown problem 'sphere-\u00b2'"),
    ("problem = sphere-10001",
     "line 1: dimension must lie in [1, 10000] in 'sphere-10001'"),
    ("problem = sphere-3\npreset = hen-protocol\nnp = 10001",
     "line 3: np (population size) must be <= 10000"),
    ("problem = sphere-3\nnp = 10001\nbudget = messages:10\n"
     "[solver]\nkind = GA", "line 2: np (population size) must be <= 10000"),
    ("problem = sphere-3\npreset = hen-protocol\nn_evaluators = 1001",
     "line 3: n_evaluators must be <= 1000"),
])
def test_config_errors_cite_lines(tmp_path, text, fragment):
    lines = [ln.strip() for ln in text.splitlines()]
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, "\n".join(lines)))
    assert fragment in str(err.value)


def test_inline_comments_stripped(tmp_path):
    cfg = load_config(write(tmp_path, """
        problem = sphere-3          # trailing comment
        budget = messages:10        # either messages:N or evaluations:N
        np = 5

        [solver]
        kind = GA                   # one of GA PPA PSO SD CS
    """))
    assert cfg.problem == "sphere-3"
    assert cfg.budget == Budget.messages(10)
    assert cfg.solvers[0].kind == "GA"


def test_duplicate_labels_rejected(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, "\n".join([
            "problem = sphere-3", "np = 5", "budget = messages:10",
            "[solver]", "kind = GA", "label = twin",
            "[solver]", "kind = CS", "label = twin",
        ])))
    assert "duplicate solver labels" in str(err.value)


def test_deterministic_key_is_rejected_with_its_line(tmp_path):
    # Any n_evaluators replays byte-identically, so the old switch is gone.
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, "\n".join([
            "problem = sphere-3", "preset = hen-protocol",
            "n_evaluators = 1", "deterministic = true",
        ])))
    assert "line 4: unknown key 'deterministic'" in str(err.value)


def test_config_lines_end_only_where_text_mode_open_ends_them(tmp_path):
    # \n, \r\n and \r end a line; a form feed or U+2028 does not, for an
    # editor or for the UTF-8 error path's count, so it must not here.
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes("problem = sphere-3\n\f\npreset = hen-protocol\n"
                    "bogus = 1\n".encode())
    with pytest.raises(ConfigError, match="^line 4: unknown key 'bogus'$"):
        load_config(cfg)
    cfg.write_bytes("problem = sphere-3\r\npreset = hen-protocol\r"
                    "[solver]\nkind = GA\nlabel = a\u2028b\n".encode())
    assert load_config(cfg).solvers[0].label == "a\u2028b"
    cfg.write_bytes(b"seed = 1\rproblem = \xff\r")
    with pytest.raises(ConfigError, match="^line 2: not UTF-8"):
        load_config(cfg)


def test_preset_config_overrides_replace_preset_values():
    roster = (SolverConfig("CS", instance_label="only-cs"),)
    cfg = preset_config("hen-protocol", "sphere-3",
                        budget=Budget.evaluations(50), solvers=roster,
                        n_evaluators=3, seed=4)
    assert cfg.budget == Budget.evaluations(50)
    assert cfg.solvers == roster
    assert (cfg.n_evaluators, cfg.seed, cfg.population_size) == (3, 4, 3)

    sized = preset_config("mutas-protocol", "biobj-quadratic-5",
                          population_size=6)
    assert sized.population_size == 6
    assert sized.budget == Budget.evaluations(1_000)
    assert [s.size_param for s in sized.solvers[:6]] == [12, 30, 3, 12, 6, 30]
    with pytest.raises(ValueError, match="unknown preset"):
        preset_config("no-such-protocol", "sphere-3")
    with pytest.raises(ValueError, match=r"^np \(population size\) must"):
        preset_config("hen-protocol", "sphere-3", population_size=0)


@pytest.mark.parametrize("preset, problem", [
    ("hen-protocol", "rastrigin-10"),
    ("mutas-protocol", "biobj-quadratic-5"),
])
def test_preset_file_equals_preset_config_with_same_overrides(
        tmp_path, preset, problem):
    head = [f"problem = {problem}", f"preset = {preset}", "np = 4",
            "budget = evaluations:300", "seed = 3"]
    sized = load_config(write(tmp_path, "\n".join(head), "sized.cfg"))
    assert sized == preset_config(preset, problem, population_size=4,
                                  budget=Budget.evaluations(300), seed=3)

    roster = load_config(write(tmp_path, "\n".join(head + [
        "[solver]", "kind = SD", "omega = 0.3", "priority = 2",
        "[solver]", "kind = GA", "size = 6", "label = ga-own",
    ]), "roster.cfg"))
    solvers = (SolverConfig("SD", priority=2, weight=0.3,
                            instance_label="sd-1"),
               SolverConfig("GA", 6, instance_label="ga-own"))
    assert roster == preset_config(preset, problem, population_size=4,
                                   budget=Budget.evaluations(300), seed=3,
                                   solvers=solvers)


@pytest.mark.parametrize("text, fragment", [
    ("problem = sphere-3\npreset = hen-protocol\nbudget = messages:-5",
     "line 3: budget limit must be >= 0"),
    ("problem = sphere-3\npreset = hen-protocol\nnp = 0",
     r"line 3: np \(population size\) must be >= 1"),
    ("problem = sphere-3\nnp = -2\nbudget = evaluations:10\n[solver]\n"
     "kind = SD", r"line 2: np \(population size\) must be >= 1"),
])
def test_preset_file_rejects_out_of_range_values(tmp_path, text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        load_config(write(tmp_path, text))


# ------------------------------------------------------------------ running

def test_paired_modes_share_the_initial_population():
    runs = {}
    for sharing in (False, True):
        report = run_once(replace(SMALL, sharing=sharing,
                                  budget=Budget.evaluations(20)), 1)
        start = next(e for e in report.events if e["event"] == "run-start")
        runs[sharing] = start["initial_population"]
        assert len(start["initial_population"]) == SMALL.population_size
    assert runs[False] == runs[True]

    other_rep = run_once(replace(SMALL, budget=Budget.evaluations(20)), 2)
    start = next(e for e in other_rep.events if e["event"] == "run-start")
    assert start["initial_population"] != runs[True]


def test_independent_mode_never_broadcasts():
    report = run_once(replace(SMALL, sharing=False), 0)
    assert report.valid
    assert report.counters["broadcasts"] == 0
    assert not [e for e in report.events if e["event"] == "broadcast"]


def test_cooperating_mode_broadcasts_every_improvement():
    report = run_once(replace(SMALL, sharing=True), 0)
    assert report.counters["improvements"] >= 2
    delivered = sum(e["delivered"] for e in report.events
                    if e["event"] == "broadcast")
    assert delivered == report.counters["broadcasts"] > 0


def test_trace_is_strictly_improving_and_ends_at_best():
    report = run_once(replace(SMALL, sharing=True), 3)
    values = [row["z"][0] for row in report.trace]
    assert values == sorted(values, reverse=True)
    assert len(set(values)) == len(values)
    assert values[-1] == report.best_value()


def test_evaluation_budget_is_exact():
    report = run_once(replace(SMALL, budget=Budget.evaluations(37)), 0)
    assert report.counters["dispatches"] == 37
    evaluator_records = [e for e in report.events
                         if e.get("event") == "evaluator"]
    assert sum(r["evaluations"] for r in evaluator_records) == 37


def test_message_budget_bounds_the_main_loop():
    report = run_once(replace(SMALL, budget=Budget.messages(400)), 0)
    # Teardown drains the in-flight remainder, which is bounded by the
    # mailbox capacities, so the total only slightly exceeds the budget.
    assert 400 <= report.counters["messages"] <= 400 + 50


def test_events_conserve_messages():
    report = run_once(SMALL, 0)
    for record in report.events:
        if record.get("event") == "mailbox":
            assert record["puts"] == \
                record["takes"] + record["drops"] + record["queued"], record
        if record.get("event") == "evaluator":
            assert record["evaluations"] == record["replies_delivered"] \
                == record["analysis_sent"]


@pytest.mark.parametrize("sharing", [False, True],
                         ids=["independent", "cooperating"])
@pytest.mark.parametrize("preset, problem, budget", [
    ("mutas-protocol", "biobj-quadratic-5", None),
    ("hen-protocol", "rastrigin-10", Budget.messages(10_000)),
    ("hen-protocol", "constrained-sphere-10", Budget.messages(10_000)),
], ids=["mutas-biobj-quadratic-5", "hen-rastrigin-10",
        "hen-constrained-sphere-10"])
def test_reruns_with_three_evaluators_are_byte_identical(
        tmp_path, preset, problem, budget, sharing):
    overrides = {"budget": budget} if budget else {}
    cfg = preset_config(preset, problem, seed=11, n_evaluators=3,
                        sharing=sharing, **overrides)
    outputs = []
    for attempt in range(2):
        run_dir = write_run_dir(tmp_path / str(attempt), run_once(cfg, 0))
        outputs.append([(run_dir / name).read_bytes() for name in
                        ("trace.csv", "archive.csv", "events.log")])
    assert outputs[0] == outputs[1]
    assert all(outputs[0])


# --------------------------------------------------------------- experiment

def test_experiment_layout_single_objective(tmp_path):
    summary = run_experiment(replace(SMALL, output_dir=str(tmp_path / "e")))
    out = tmp_path / "e"
    assert summary["runs"] == 4 and not summary["failures"]
    dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert dirs == ["cooperating-rep00", "cooperating-rep01",
                    "independent-rep00", "independent-rep01"]
    for d in dirs:
        for name in ("trace.csv", "archive.csv", "events.log",
                     "report.json"):
            assert (out / d / name).exists()
    lines = (out / "boxplot.csv").read_text().splitlines()
    assert lines[0] == "mode,min,q1,median,q3,max"
    assert {ln.split(",")[0] for ln in lines[1:]} \
        == {"independent", "cooperating"}
    assert not (out / "metrics.csv").exists()


def test_experiment_layout_multi_objective(tmp_path):
    cfg = RunConfig(problem="biobj-quadratic-2",
                    budget=Budget.evaluations(120),
                    solvers=(SolverConfig("GA", 8, instance_label="ga"),
                             SolverConfig("SD", weight=0.3,
                                          instance_label="sd")),
                    population_size=8, seed=2, repetitions=1,
                    output_dir=str(tmp_path / "m"))
    summary = run_experiment(cfg)
    assert not summary["failures"]
    lines = (tmp_path / "m" / "metrics.csv").read_text().splitlines()
    assert lines[0] == "measure,independent,cooperating"
    measures = [ln.split(",")[0] for ln in lines[1:]]
    assert measures == ["hypervolume", "hypervolume complement", "area",
                        "average distance", "generational distance",
                        "non-dominated points"]
    assert not (tmp_path / "m" / "boxplot.csv").exists()
    report = json.loads(
        (tmp_path / "m" / "cooperating-rep00" / "report.json").read_text())
    assert report["front_size"] >= 1
    assert report["metrics"]["non-dominated points"] == report["front_size"]


def flag_rep_one(monkeypatch):
    """Make repetition 1 of each mode invalid, archive kept; return the rest.

    The kept reports' (best, metrics row) per mode, in the order they ran.
    """
    kept = {"independent": [], "cooperating": []}

    def run_once_flagging(cfg, rep_index):
        report = run_once(cfg, rep_index)
        assert report.archive is not None
        if rep_index == 1:
            return replace(report, valid=False, error="Stalled: injected")
        kept[report.mode].append((report.best_value(), report.metrics_row))
        return report

    monkeypatch.setattr(harness, "run_once", run_once_flagging)
    return kept


def test_summaries_count_valid_runs_only(tmp_path, monkeypatch):
    kept = flag_rep_one(monkeypatch)
    summary = run_experiment(replace(SMALL, repetitions=3,
                                     output_dir=str(tmp_path / "e")))
    assert summary["failures"] == [
        "independent-rep01: Stalled: injected",
        "cooperating-rep01: Stalled: injected"]
    lines = (tmp_path / "e" / "boxplot.csv").read_text().splitlines()
    for mode, line in zip(["independent", "cooperating"], lines[1:]):
        bests = [best for best, _row in kept[mode]]
        assert len(bests) == 2
        assert summary["median_best"][mode] == float(np.median(bests))
        five = np.percentile(bests, [0, 25, 50, 75, 100])
        assert line == ",".join([mode] + [repr(float(v)) for v in five])


def test_front_summaries_count_valid_runs_only(tmp_path, monkeypatch):
    kept = flag_rep_one(monkeypatch)
    cfg = RunConfig(problem="biobj-quadratic-2",
                    budget=Budget.evaluations(120),
                    solvers=(SolverConfig("GA", 8, instance_label="ga"),
                             SolverConfig("SD", weight=0.3,
                                          instance_label="sd")),
                    population_size=8, seed=2, repetitions=3,
                    output_dir=str(tmp_path / "m"))
    assert len(run_experiment(cfg)["failures"]) == 2
    lines = (tmp_path / "m" / "metrics.csv").read_text().splitlines()
    assert len(lines) == 1 + len(MEASURES)
    for line in lines[1:]:
        measure, *cells = line.split(",")
        assert cells == [
            repr(float(np.median([row[measure] for _best, row in kept[mode]])))
            for mode in ["independent", "cooperating"]]


def test_archive_csv_round_trip(tmp_path):
    cfg = replace(SMALL, repetitions=1, output_dir=str(tmp_path / "r"))
    run_experiment(cfg)
    run_dir = tmp_path / "r" / "cooperating-rep00"
    archive = (run_dir / "archive.csv").read_text().splitlines()
    assert archive[0] == "d1,d2,d3,z1,g,solver_id,seq"
    assert len(archive) == 2  # single best for a single-objective run
    best = json.loads((run_dir / "report.json").read_text())["best"]
    assert float(archive[1].split(",")[3]) == best


def test_events_log_lines_equal_json_dumps(tmp_path):
    # Dicts are events as given; tuples are dispatch rows.
    records = [
        {"event": "improvement", "solver": 'ga "small" \u00e9\u2603\\',
         "z": [1.5, -0.0, 1e-320, 1e300], "seq": 2**70},
        ("evaluator-0", 'ga "small" \u00e9\u2603\\', 7),
        {"values": [math.nan, math.inf, -math.inf], "nested": [[1, [None]],
         {"b": True, "a": False}], "label\n\u00fc": None},
        ('ev\n"\\\t\u0000', "\U0001f600 \u00fc\r\n", 2**70),
        {},
        ("", "", 0),
        {"only": "ascii"},
    ]
    log, expected = logged_events(records)
    assert list(log) == expected
    path = tmp_path / "events.log"
    log.write(path)
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines == [json.dumps(r, sort_keys=True) for r in expected] + [""]
    bad = EventLog()
    bad.append({"x": object()})
    with pytest.raises(TypeError, match="not JSON serializable"):
        bad.write(tmp_path / "bad.log")


def test_a_dispatch_event_costs_at_most_128_bytes():
    """The log keeps a dispatch as a row, not as a 5-key dict (~250 B)."""
    cfg = preset_config("hen-protocol", "ridge-basin-10",
                        budget=Budget.messages(6_000), seed=1)
    tracemalloc.start()
    try:
        report = run_once(cfg, 0)
        # The other events stay referenced, so only the dispatches go.
        others = [e for e in report.events if e["event"] != "dispatch"]
        dispatches = len(report.events) - len(others)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        report.events = None
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert dispatches == report.counters["dispatches"] > 2_000
    assert freed <= 128 * dispatches, freed / dispatches


# ---------------------------------------------------------------------- CLI

def test_cli_presets(capsys):
    assert cli_main(["presets"]) == 0
    out = capsys.readouterr().out
    assert "hen-protocol" in out and "mutas-protocol" in out


@pytest.mark.parametrize("head, n_obj", [
    (["problem = sphere-3", "budget = messages:400", "[solver]", "kind = GA",
      "size = 5", "[solver]", "kind = CS"], 1),
    (["problem = biobj-quadratic-2", "budget = evaluations:200", "[solver]",
      "kind = GA", "size = 5", "[solver]", "kind = SD", "omega = 0.3"], 2),
], ids=["one-objective", "bi-objective"])
def test_cli_run_and_report_round_trip(tmp_path, capsys, head, n_obj):
    cfg = write(tmp_path, "\n".join([
        "np = 5",
        "seed = 4",
        "repetitions = 1",
        f"output_dir = {tmp_path / 'cli'}",
    ] + head))
    assert cli_main(["run", str(cfg)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["runs"] == 2

    for mode in ("independent", "cooperating"):
        run_dir = tmp_path / "cli" / f"{mode}-rep00"
        originals = {name: (run_dir / name).read_bytes()
                     for name in ("trace.csv", "archive.csv")}
        header, *rows = originals["archive.csv"].decode().splitlines()
        assert header.count(",z") == n_obj
        assert len(rows) == 1 if n_obj == 1 else len(rows) > 1
        for name in originals:
            (run_dir / name).unlink()
        assert cli_main(["report", str(run_dir)]) == 0
        capsys.readouterr()
        for name, blob in originals.items():
            assert (run_dir / name).read_bytes() == blob


def test_cli_run_rejects_bad_config(tmp_path, capsys):
    cfg = write(tmp_path, "problem = sphere-3\nnonsense = 1")
    assert cli_main(["run", str(cfg)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"seed = 1\nproblem = sphere-3\xff\n")
    with pytest.raises(ConfigError, match="line 2: not UTF-8"):
        load_config(cfg)
    assert cli_main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: line 2: not UTF-8")


def test_byte_order_mark_is_not_part_of_a_config(tmp_path):
    text = "problem = sphere-3\npreset = hen-protocol\nseed = 4\n"
    plain = write(tmp_path, text)
    marked = tmp_path / "bom.cfg"
    marked.write_bytes(codecs.BOM_UTF8 + text.encode())
    assert load_config(marked) == load_config(plain)
    marked.write_bytes(codecs.BOM_UTF8 + b"seed = 1\nproblem = \xff\n")
    with pytest.raises(ConfigError,
                       match=r"^line 2: not UTF-8 text \(byte 0xff\)$"):
        load_config(marked)


def test_byte_order_mark_is_not_part_of_a_csv(tmp_path, capsys):
    text = "z1,z2\n0.0,0.5\n0.5,0.0\n"
    outputs = []
    for prefix in (b"", codecs.BOM_UTF8):
        archive = tmp_path / f"archive{len(prefix)}.csv"
        archive.write_bytes(prefix + text.encode())
        assert cli_main(["metrics", str(archive), "--ref", "1,1",
                         "--utopia", "0,0", "--front", str(archive)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert [line.split(",")[0] for line in outputs[1].splitlines()[1:]] \
        == list(MEASURES)


@pytest.mark.parametrize("argv, files, fragment", [
    (["metrics", "missing.csv"], {}, "No such file"),
    (["metrics", "a.csv"], {"a.csv": "z1,z2\n0.5,oops\n"},
     "a.csv line 2: could not convert string to float: 'oops'"),
    (["metrics", "a.csv"], {"a.csv": "z1,z2\n0.5,0.5\n0.5\n"},
     "a.csv line 3: float() argument"),
    (["metrics", "a.csv"], {"a.csv": "d1\n0.5\n"}, "no z1/z2 columns"),
    (["metrics", "a.csv"], {"a.csv": "z1,z2\n"}, "archive is empty"),
    (["metrics", "a.csv", "--ref", "1"], {"a.csv": "z1,z2\n0.5,0.5\n"},
     "--ref expects exactly two values"),
    (["report", "."], {}, "No such file"),
    (["report", "."], {"report.json": "{"}, "JSONDecodeError"),
    (["report", "."], {"report.json": "{}"}, "KeyError: 'archive'"),
    (["report", "."], {"report.json": "[]"}, "TypeError"),
    (["run", "run.cfg"], {"notadir": "",
                          "run.cfg": "problem = sphere-3\n"
                                     "preset = hen-protocol\n"
                                     "output_dir = notadir\n"},
     "File exists: 'notadir'"),
    (["report", "."], {"trace.csv": "old\n", "archive.csv": "old\n",
                       "report.json": json.dumps({  # a trace row, no "g"
                           "trace": [{"seq": 1, "messages": 2,
                                      "dispatches": 1, "z": [0.5],
                                      "instance_label": "ga", "class": "MH"}],
                           "archive": [{"point": [0.1], "objectives": [0.5],
                                        "solver_id": "ga", "seq": 1}]})},
     "KeyError: 'g'"),
    (["metrics", "a.csv", "--front", "f.csv"],
     {"a.csv": "z1,z2\n0.5,0.5\n", "f.csv": "z1\n0.5\n"},
     "expected an array of (z1, z2) rows"),
])
def test_cli_bad_input_is_an_error_not_a_traceback(tmp_path, monkeypatch,
                                                   capsys, argv, files,
                                                   fragment):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err
    for name, text in files.items():  # a failed command writes no file
        assert (tmp_path / name).read_text(encoding="utf-8") == text


@pytest.mark.parametrize("text, fragment", [
    # float() of an integer past 1.8e308 raises OverflowError.
    (json.dumps({"trace": [], "archive": [{
        "point": [10**400], "objectives": [0.5], "g": -1.0,
        "solver_id": "ga", "seq": 1}]}),
     "(OverflowError: int too large to convert to float)"),
    ("[" * 100_000 + "]" * 100_000, "(RecursionError: maximum recursion"),
], ids=["huge-integer", "deep-nesting"])
def test_cli_report_on_json_out_of_reach_is_an_error(tmp_path, capsys, text,
                                                     fragment):
    (tmp_path / "report.json").write_text(text, encoding="utf-8")
    assert cli_main(["report", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err
    assert not (tmp_path / "archive.csv").exists()


def test_cli_metrics_on_extreme_values_prints_no_warning(tmp_path, capsys):
    # pytest turns a numpy RuntimeWarning (overflow in subtract) into an
    # error, so this fails if one is raised.
    archive = tmp_path / "archive.csv"
    archive.write_text("z1,z2\n1e308,-1e308\n-1e308,1e308\n")
    assert cli_main(["metrics", str(archive), "--ref", "1,1",
                     "--front", str(archive)]) == 0
    rows = dict(line.split(",", 1)
                for line in capsys.readouterr().out.strip().splitlines()[1:])
    assert rows["area"] == "nan" and rows["non-dominated points"] == "2.0"


def test_cli_metrics_reads_archive(tmp_path, capsys):
    archive = tmp_path / "archive.csv"
    archive.write_text("d1,z1,z2,g,solver_id,seq\n"
                       "0.0,0.0,0.5,-1.0,ga,1\n"
                       "0.5,0.5,0.0,-1.0,cs,2\n")
    front = tmp_path / "front.csv"
    front.write_text("z1,z2\n0.0,0.5\n0.5,0.0\n")
    assert cli_main(["metrics", str(archive), "--ref", "1,1",
                     "--utopia", "0,0", "--front", str(front)]) == 0
    rows = dict(line.split(",", 1)
                for line in capsys.readouterr().out.strip().splitlines()[1:])
    assert float(rows["hypervolume"]) == pytest.approx(0.75)
    assert float(rows["hypervolume complement"]) == pytest.approx(0.25)
    assert float(rows["generational distance"]) == 0.0
    assert float(rows["non-dominated points"]) == 2.0
    assert list(rows) == list(MEASURES)

    single = tmp_path / "single.csv"  # one objective: only the count
    single.write_text("d1,d2,z1,g,solver_id,seq\n0.5,0.25,0.3125,-1.0,cs,7\n")
    assert cli_main(["metrics", str(single), "--ref", "1,1",
                     "--utopia", "0,0"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "measure,value", "non-dominated points,1.0"]
