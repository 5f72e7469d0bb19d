"""Any argument vector ends in a report, a one-line error or a usage error.

Each example runs one of `scan`, `dit`, `ci` and `equilibrium` on the
synthetic market with a valid base argument vector, then sets a random
subset of its flags to integers, floats and strings: negative, zero, huge,
past int64, NaN, infinite, empty and malformed.  The run must exit 0; or 1
with exactly one stderr line that starts `diftrans <command>:`; or 2 from
argparse.  A traceback fails the property.  Flags that set a size (`--sims`,
`--draws`, `--d-grid`) draw only tiny values or values the CLI rejects, so
no example runs long.

Each row of the CLI's flag table is also broken on purpose, once: the run
must end in the one-line error that names the row's flag, before the input
is read.
"""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from diftrans import cli

PROPERTIES = settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

HUGE = "99999999999999999999"
WINDOWS = ["2010-01:2010-12", "2011-01:2011-12", "2010-01:2010-06", "2010-07:2010-12"]

integers = st.one_of(
    st.sampled_from(["0", "1", "-1", HUGE, "-" + HUGE, str(2**63), str(2**63 - 1)]),
    st.integers(-(10**6), 10**6).map(str),
)
floats = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-0.0", "1e308", "5e-324", "0.5"]),
    st.floats().map(repr),
)
junk = st.sampled_from(["", " ", "x", "1:2", "--", "0x10", "1,2", "2010-13"])
numbers = st.one_of(integers, floats, junk)
periods = st.one_of(
    st.sampled_from(WINDOWS + ["2010-00", "2010-1:2009-1", f"{HUGE}-01", "2010", "2010-01:x"]),
    junk,
)
#: Tiny sizes, or sizes the CLI rejects before any work.
draw_counts = st.sampled_from(
    ["1", "2", "3", "0", "-1", HUGE, str(cli.MAX_DRAWS + 1), "1e3", ""]
)
grids = st.sampled_from(
    [
        "0:4000:1000",
        "0:0:1",
        f"0:{HUGE}:{HUGE}",
        f"-{HUGE}:0:{HUGE}",
        "-1000:1000:1000",
        "5:1:1",
        "0:1:0",
        f"0:{HUGE}:1",
        "0:10000000000:1",
        "0:1",
        "",
    ]
)

WINDOW_FLAGS = {"--pre": periods, "--post": periods, "--exclude": periods}
FLAGS = {
    "scan": {
        **WINDOW_FLAGS,
        "--d-grid": grids,
        "--sims": draw_counts,
        "--threshold": numbers,
        "--seed": numbers,
    },
    "dit": {
        **WINDOW_FLAGS,
        "--d-grid": grids,
        "--sims": draw_counts,
        "--threshold": numbers,
        "--tau": numbers,
        "--d-min": numbers,
        "--diag-pre": periods,
        "--diag-post": periods,
        "--trends-csv": st.sampled_from(["", "{out}/trends.csv", "/nonexistent/trends.csv"]),
        "--seed": numbers,
    },
    "ci": {
        **WINDOW_FLAGS,
        "--estimator": st.sampled_from(["before_after", "dit", "x"]),
        "--control-city": st.sampled_from(["coastal", "metro", "nowhere", ""]),
        "--d": numbers,
        "--draws": draw_counts,
        "--b": numbers,
        "--block-fraction": numbers,
        "--alpha": numbers,
        "--map": st.sampled_from(["share", "p", "t", "net-gains", "x"]),
        "--market-size": numbers,
        "--quota": numbers,
        "--speculator-share": numbers,
        "--seed": numbers,
    },
    "equilibrium": {
        "--s": st.one_of(numbers, st.sampled_from(["0.1,0.2", "0.1,nan", ",", "0.1,x"])),
        "--market-size": numbers,
        "--quota": numbers,
        "--speculator-share": numbers,
        "--price-floor": numbers,
    },
}


def base_argv(command, csv, wtp, out):
    """A valid argument vector for `command` that runs in a few milliseconds."""
    windows = ["--pre", WINDOWS[0], "--post", WINDOWS[1]]
    if command == "equilibrium":
        return ["equilibrium", "--wtp", wtp, "--s", "0.1"]
    if command == "ci":
        return ["ci", "--input", csv, "--city", "metro", *windows, "--d", "2000", "--draws", "3"]
    sweep = [*windows, "--d-grid", "0:4000:1000", "--sims", "2", "--out-csv", f"{out}/curve.csv"]
    if command == "scan":
        return ["scan", "--input", csv, "--city", "metro", *sweep, "--threshold", "0.5"]
    cities = ["--treated-city", "metro", "--control-city", "coastal"]
    return ["dit", "--input", csv, *cities, *sweep, "--threshold", "0.5"]


@st.composite
def argvs(draw, command, csv, wtp, out):
    argv = base_argv(command, csv, wtp, out)
    flags = FLAGS[command]
    # The draw count is always drawn, the other flags a few at a time, so
    # that many examples get past the other checks to the size's.
    size = {"scan": "--sims", "dit": "--sims", "ci": "--draws"}.get(command)
    picked = draw(st.lists(st.sampled_from(sorted(set(flags) - {size})), max_size=3, unique=True))
    for flag in ([size] if size else []) + picked:
        argv += [flag, draw(flags[flag]).replace("{out}", out)]
    if command in ("equilibrium", "ci"):
        if draw(st.booleans()):
            argv.append("--strictify")
        if command == "ci" and draw(st.booleans()):
            argv += ["--wtp", wtp]
    return argv + ["--out", f"{out}/report.json"]


@pytest.fixture(scope="module")
def inputs(module_synth_csv):
    """The sales file and a valuation schedule, as paths."""
    wtp = module_synth_csv.parent / "wtp.csv"
    wtp.write_text("n,v\n0,280000\n700000,0\n", encoding="utf-8")
    return str(module_synth_csv), str(wtp)


#: For each row of `cli.FLAG_RULES`, flags added to the base argument vector
#: that break it: the row's flag given to a run that does not read it, or,
#: for a required flag, missing from a run that reads it.
BREAKS = {
    ("dit", "threshold", "read"): ["--d-min", "0"],
    ("dit", "diag_pre", "read"): ["--diag-pre", WINDOWS[2]],
    ("dit", "diag_post", "read"): ["--diag-post", WINDOWS[3]],
    ("dit", "tau", "read"): ["--tau", "0.01"],
    ("dit", "trends_csv", "read"): ["--trends-csv", "{out}/trends.csv"],
    ("ci", "wtp", "read"): ["--wtp", "{wtp}"],
    ("ci", "wtp", "required"): ["--map", "p"],
    ("ci", "market_size", "read"): ["--market-size", "50000"],
    ("ci", "quota", "read"): ["--quota", "20000"],
    ("ci", "speculator_share", "read"): ["--speculator-share", "0.5"],
    ("ci", "strictify", "read"): ["--strictify"],
    ("ci", "control_city", "read"): ["--control-city", "coastal"],
    ("ci", "control_city", "required"): ["--estimator", "dit"],
}
ROWS = [
    (command, name, kind)
    for command, rules in cli.FLAG_RULES.items()
    for name, rule in rules.items()
    for kind in ["read"] + (["required"] if rule.required else [])
]


def test_every_table_row_is_broken_below():
    assert sorted(BREAKS) == sorted(ROWS)


@pytest.mark.parametrize("row", ROWS, ids="-".join)
def test_each_flag_rule_is_one_line_error_before_ingest(row, inputs, tmp_path, capsys, monkeypatch):
    def ingest(*args):
        raise AssertionError("input read before the flags were checked")

    monkeypatch.setattr(cli, "ingest_csv", ingest)
    command, name, _ = row
    csv, wtp = inputs
    extra = [x.replace("{out}", str(tmp_path)).replace("{wtp}", wtp) for x in BREAKS[row]]
    argv = base_argv(command, csv, wtp, str(tmp_path)) + extra
    assert cli.main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"diftrans {command}: --{name.replace('_', '-')} ")


@pytest.mark.parametrize("command", sorted(FLAGS))
@PROPERTIES
@given(data=st.data())
def test_any_argv_ends_in_report_or_one_line_error(command, inputs, tmp_path, data):
    argv = data.draw(argvs(command, *inputs, str(tmp_path)))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return
    lines = err.getvalue().splitlines()
    if code == 0:
        return
    assert code == 1, argv
    assert len(lines) == 1 and lines[0].startswith(f"diftrans {command}: "), (argv, lines)
