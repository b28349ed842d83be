"""Input sweeps: any config or CLI input ends as a result or as ``error:``.

Property tests in the style of QuickCheck (Claessen & Hughes, ICFP 2000).
Configs are built from the key tables plus random keys and values: huge
integers, Unicode digits, ``=`` / ``:`` / ``==`` separators, LF / CR LF /
CR line ends, a byte-order mark and form feeds.  ``load_config`` must give
a ``RunConfig`` or a ``ConfigError``, and an error about a key must cite
that key's line.  ``cli.main`` on ``run``, ``metrics`` and ``report`` must
return 0 or 2 and print ``error:`` on 2, never a traceback; ``run`` has
its ``run_experiment`` stubbed, so nothing runs.

No drawn value can build a problem or a population over the bounds:
``registry_get`` and ``RunConfig`` refuse it before anything is built.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from coopt import cli
from coopt.harness import (
    _SOLVER_KEYS,
    _TOP_KEYS,
    PRESETS,
    ConfigError,
    RunConfig,
    load_config,
)
from coopt.problems import _FAMILIES
from coopt.solvers import SOLVER_KINDS

SWEEP = settings(deadline=None, max_examples=300)


def _mostly(valid, *others):
    """``valid`` three times in four, else one of ``others``.

    Most drawn configs must get past the line and parse checks, or the
    checks made after them (the problem name, the bounds) are seldom
    reached.  (``st.one_of(valid, valid, valid, other)`` would not weight
    it: ``one_of`` drops repeated branches.)
    """
    return st.sampled_from([valid] * 3 + [st.one_of(*others)]).flatmap(
        lambda strategy: strategy)


# Small, around the bounds, and past any index or float (> 1.8e308).
INTEGERS = st.one_of(st.integers(-2, 12), st.integers(990, 1_010),
                     st.integers(9_990, 10_010), st.integers(10**18, 10**400))
# Each str.isdigit(), none ASCII: fullwidth 3, superscript 2, Arabic-Indic 3.
UNICODE_DIGITS = st.sampled_from(["\uff13", "\u00b2", "\u0663", "1\uff10"])
JUNK = st.one_of(st.text(max_size=8),
                 st.sampled_from(["", "\ufeff", "\f", "=", "1e999", "nan"]))
INTEGER = _mostly(st.integers(1, 12).map(str), INTEGERS.map(str),
                  UNICODE_DIGITS, JUNK)
FLOAT = _mostly(st.floats().map(repr), INTEGER)
PROBLEM = _mostly(
    st.builds("{}-{}".format, st.sampled_from(sorted(_FAMILIES)),
              _mostly(INTEGERS.map(str), UNICODE_DIGITS, JUNK)),
    st.sampled_from(["false-readings-analogue", "nosuch-3", "sphere"]), JUNK)
BUDGET = _mostly(
    st.builds("{}:{}".format, st.sampled_from(["messages", "evaluations"]),
              INTEGER),
    st.builds("{}:{}".format, JUNK, INTEGER), JUNK)
VALUES = {
    "problem": PROBLEM,
    "preset": _mostly(st.sampled_from(sorted(PRESETS)), JUNK),
    "budget": BUDGET,
    "omega": FLOAT,
    "output_dir": JUNK,
    "kind": _mostly(st.sampled_from(sorted(SOLVER_KINDS)), JUNK),
    "label": JUNK,
}
# A config has up to a dozen lines, so ':' (refused) is kept rare.
SEPARATOR = st.sampled_from([" = ", "=", " =\f", " == "] * 4 + [" : "])
LINE_END = st.sampled_from(["\n", "\r\n", "\r", "\f\n"])
KEYS = set(_TOP_KEYS) | set(_SOLVER_KEYS)


def _lines(keys):
    """``key <separator> value`` lines, one per key, in the order given."""
    return st.tuples(*(
        st.builds("{}{}{}".format, st.just(key), SEPARATOR,
                  VALUES.get(key, INTEGER))
        for key in keys))


@st.composite
def config_texts(draw):
    """A config of table keys, now and then with random lines among them.

    ``problem``, and each ``[solver]`` block's ``kind``, is always set;
    ``preset`` is set three times in four.
    """
    top = draw(_mostly(st.just(("problem", "preset")), st.just(("problem",))))
    lines = []
    for required, table in [(top, _TOP_KEYS)] + [
            (("kind",), _SOLVER_KEYS)] * draw(st.integers(0, 2)):
        others = st.sampled_from(sorted(set(table) - set(required)))
        keys = draw(st.permutations(
            [*required, *draw(st.lists(others, unique=True, max_size=4))]))
        lines += ([] if table is _TOP_KEYS else ["[solver]"]) \
            + list(draw(_lines(keys)))
    stray = st.one_of(JUNK, st.builds("{}{}{}".format, JUNK, SEPARATOR, JUNK),
                      st.sampled_from(["[solver]", "[other]", "# note"]))
    for line in draw(_mostly(st.just([]), st.lists(stray, min_size=1,
                                                   max_size=2))):
        lines.insert(draw(st.integers(0, len(lines))), line)
    ends = draw(st.lists(LINE_END, min_size=len(lines),
                         max_size=len(lines)))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + "".join(line + end for line, end in zip(lines, ends))


def _assert_cites_its_line(text: str, message: str) -> None:
    """A ``line N: <key> ...`` error names the key that line sets."""
    cited = re.match(r"line (\d+): (\S+)", message)
    if cited is None:
        return
    lines = re.split(r"\r\n?|\n", text.removeprefix("\ufeff"))
    line = lines[int(cited[1]) - 1].split("#", 1)[0].strip()
    assert line, message
    if cited[2] in KEYS:
        assert line.partition("=")[0].strip() == cited[2], message


@SWEEP
@given(text=config_texts())
def test_any_config_is_a_run_config_or_a_config_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_bytes(text.encode("utf-8"))
        try:
            assert isinstance(load_config(path), RunConfig)
        except ConfigError as exc:
            _assert_cites_its_line(text, str(exc))


# ------------------------------------------------------------------ the CLI

CELL = _mostly(st.one_of(FLOAT, st.sampled_from(["inf", "-1e308"])), JUNK)
POINT = _mostly(st.builds("{},{}".format, CELL, CELL), CELL)


@st.composite
def csv_texts(draw):
    columns = draw(_mostly(
        st.sampled_from([["z1", "z2"], ["d1", "z1", "z2", "g"], ["z1"]]),
        st.lists(st.sampled_from(["z1", "z2", "z3", "d1", "g"]),
                 unique=True, max_size=4)))
    rows = draw(st.lists(_mostly(
        st.lists(CELL, min_size=len(columns), max_size=len(columns)),
        st.lists(CELL, max_size=len(columns) + 1)), max_size=6))
    ends = draw(st.lists(LINE_END, min_size=len(rows) + 1,
                         max_size=len(rows) + 1))
    cells = [columns] + rows
    return "".join(",".join(row) + end for row, end in zip(cells, ends))


NUMERIC = _mostly(st.one_of(st.floats(), INTEGERS),
                  st.none(), st.booleans(), st.text(max_size=4))
JSON = st.recursive(NUMERIC, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(st.text(max_size=3), inner, max_size=3)), max_leaves=8)
TRACE_ROW = st.fixed_dictionaries({
    "seq": NUMERIC, "messages": NUMERIC, "dispatches": NUMERIC,
    "z": st.lists(NUMERIC, min_size=1, max_size=2),
    "instance_label": JUNK, "class": JUNK})
MEMBER = st.fixed_dictionaries({
    "point": st.lists(NUMERIC, min_size=1, max_size=2),
    "objectives": st.lists(NUMERIC, min_size=1, max_size=2), "g": NUMERIC,
    "solver_id": JUNK, "seq": NUMERIC})
REPORT = _mostly(
    st.fixed_dictionaries({"trace": st.lists(TRACE_ROW, max_size=3),
                           "archive": st.lists(MEMBER, max_size=3)}),
    JSON)


def _encoded(texts):
    """UTF-8 bytes; now and then cut mid-character or after a stray byte."""
    return _mostly(texts.map(str.encode),
                   st.builds(lambda b, cut: b[:cut],
                             texts.map(str.encode), st.integers(0, 40)),
                   texts.map(lambda t: b"\xff" + t.encode()))


@st.composite
def cli_calls(draw):
    """``(argv, {file name: bytes})``; a named file may be left unwritten."""
    command = draw(st.sampled_from(["run", "metrics", "report"]))
    if command == "run":
        files = draw(_mostly(st.fixed_dictionaries(
            {"run.cfg": _encoded(config_texts())}), st.just({})))
        return ["run", "run.cfg"], files
    if command == "report":
        files = draw(_mostly(st.fixed_dictionaries(
            {"report.json": _encoded(REPORT.map(json.dumps))}),
            st.just({})))
        return ["report", "."], files
    files = draw(st.fixed_dictionaries({"a.csv": _encoded(csv_texts())},
                                       optional={"f.csv": _encoded(
                                           csv_texts())}))
    argv = ["metrics", "a.csv"]
    if draw(st.booleans()):
        argv.append("--front=f.csv")
    for flag in ("--ref", "--utopia"):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(POINT)}")
    return argv, files


def _summary(_cfg):
    return {"runs": 0, "failures": []}


@SWEEP
@given(call=cli_calls())
def test_cli_returns_0_or_2_and_prints_error_not_a_traceback(call):
    argv, files = call
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.chdir(tmp), \
            mock.patch.object(cli, "run_experiment", _summary), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        for name, blob in files.items():
            Path(name).write_bytes(blob)
        code = cli.main(argv)
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")
    assert "Traceback" not in err.getvalue()
