"""Command-line pipeline around the library: ingest, scan, estimate, invert.

The library returns values and this module writes them.  Each command
returns its report; `main` adds the manifest (command, resolved
configuration, input file digests, seed, tool version) and writes it by
`_write_json` once the command has returned, so a run that fails writes no
report.  Every CSV a command writes (`--out-csv`, `--trends-csv`, `--plan`,
`--dump-draws`) goes through `_write_csv`: a number is its repr, a flag true
or false, and a missing value (the DiT value of a scan without a control, a
draw without a value) an empty cell.  The one other file written is
`report --markdown`.  All randomness flows from a single --seed, so reruns
of the same manifest are byte-identical.

Each input file (the sales CSV, the willingness-to-pay CSV, a report
section) is read once, by `_read`, which digests those bytes and hands them
to their parser.  So the manifest names the bytes the run parsed, even if a
file changes during the run.

Every flag value is parsed and checked before the input is read, so a run
fails before its work, not after.  A flag that a run does not read is an
error, as is a flag that it needs and was not given (`FLAG_RULES`); so is an
output path that is empty, names a directory, lies in a directory that does
not exist, or names the regular file of another output or an input.  Two
windows of a pair (pre and post, or the diagnostic two) that share a month
are an error too.  Only a city label that names none of the input's cities
waits for the input.

`main` builds the arguments of the invoked command alone: building every
command's took ~3 ms a call, against under 1 ms to build and parse `ci`'s
alone (Python 3.11, one Xeon core).  Its help, errors and parsed arguments
are those of the full parser.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
from typing import Callable, NamedTuple

from . import __version__, baseline, equilibrium, estimators, inference
from .errors import DiftransError
from .estimators import PlaceboConfig
from .inference import SubsampleConfig
from .pmf import PeriodFilter, SalesTable, build_pmf, ingest_csv
from .transport import SCRATCH_CELLS, ot_cost, solve_ot


def _read(args, path: str) -> io.BytesIO:
    """The bytes of the input file `path`, read once, as a binary file object
    named `path` for its parser.  Their sha256 goes into `args._digests`,
    which the manifest lists as the run's inputs."""
    with open(path, "rb") as fh:
        data = fh.read()
    args._digests[path] = hashlib.sha256(data).hexdigest()
    source = io.BytesIO(data)
    source.name = path
    return source


def _ingest(args) -> SalesTable:
    """The table of `--input`; a city label, treated or control, that names
    none of its cities is an error."""
    table = ingest_csv(_read(args, args.input))
    named = [("city", args._treated)] + [("control city", label) for label in args._controls or ()]
    for kind, label in named:
        if label is not None and label not in table.cities:
            raise DiftransError(f"{kind} {label!r} is not in {args.input}")
    return table


def _manifest(args: argparse.Namespace) -> dict:
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func" and not k.startswith("_")}
    return {
        "command": args.command,
        "config": config,
        "inputs": args._digests,
        "seed": getattr(args, "seed", None),
        "version": __version__,
    }


def _write_json(obj: dict, path: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _csv_cell(value) -> str:
    """A number by its repr, a flag as true or false, a missing value empty."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    return repr(value)


def _write_csv(path: str, header, rows) -> None:
    """Write `rows` under the column names `header` to the CSV `path`, each
    cell by `_csv_cell`.  A row holds Python numbers, such as `tolist()`
    values (numpy 2 writes a numpy float's repr as `np.float64(...)`), and
    None for a missing value."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_csv_cell, row)) + "\n")


def _parse_ym(text: str) -> tuple[int, int]:
    try:
        year, month = text.strip().split("-")
        ym = (int(year), int(month))
    except ValueError:
        raise DiftransError(f"period {text!r} is not of the form YYYY-MM") from None
    if not 1 <= ym[1] <= 12:
        raise DiftransError(f"month out of range in period {text!r}")
    return ym


def _parse_window(text: str) -> tuple[tuple[int, int], tuple[int, int]]:
    lo, colon, hi = text.partition(":")
    return _parse_ym(lo), _parse_ym(hi if colon else lo)


#: Most bandwidths in one grid: the recurrence state of one column, three
#: cells per bandwidth, then fits the transport kernel's scratch budget.
MAX_GRID = SCRATCH_CELLS // 3


def _parse_grid(text: str) -> list[int]:
    try:
        lo, hi, step = (int(p) for p in text.split(":"))
    except ValueError:
        raise DiftransError(f"grid {text!r} is not of the form lo:hi:step") from None
    if lo < 0:
        raise DiftransError(f"--d-grid must be a grid of nonnegative bandwidths, got {text}")
    if step <= 0 or hi < lo:
        raise DiftransError(f"grid {text!r} is empty")
    size = (hi - lo) // step + 1
    if size > MAX_GRID:
        raise DiftransError(f"grid {text!r} has {size} bandwidths, more than {MAX_GRID}")
    return list(range(lo, hi + 1, step))


#: Most placebo replicates (`--sims`) or subsample draws (`--draws`) in one
#: run.  The Monte Carlo error of a tail quantile of n draws is
#: sqrt(p (1 - p) / n) in probability, 0.05 percentage points at p = 0.025
#: and n = 10^5, far below what any interval or placebo mean can resolve.
#: More draws would only take longer (each costs ~0.1-0.3 ms at paper scale);
#: the sweep's output, one cost per draw and bandwidth, has its own cap.
MAX_DRAWS = 100_000


def _check_numbers(args) -> None:
    """Reject a negative seed, bandwidth or floor, a draw count outside [1,
    MAX_DRAWS], and a non-finite threshold, tau or price floor before any
    work; an unset flag is not checked."""
    for name in ("sims", "draws"):
        value = getattr(args, name, None)
        if value is not None and not 1 <= value <= MAX_DRAWS:
            raise DiftransError(f"--{name} must be from 1 to {MAX_DRAWS}, got {value}")
    for name in ("seed", "d", "d_min"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise DiftransError(f"--{name.replace('_', '-')} must be nonnegative, got {value}")
    for name in ("threshold", "tau", "price_floor"):
        value = getattr(args, name, None)
        if value is not None and not math.isfinite(value):
            raise DiftransError(f"--{name.replace('_', '-')} must be finite, got {value}")


def _given(args, name: str) -> bool:
    """A flag is given when its value is neither None nor False."""
    value = getattr(args, name)
    return value is not None and value is not False


def _flag(name: str) -> str:
    """The flag of the argument `name`."""
    return "--" + name.replace("_", "-")


class FlagRule(NamedTuple):
    reads: Callable  # whether a run reads the flag, from its arguments
    words: str  # when it does: "--<flag> is read only <words>"
    required: bool = False  # "--<flag> is required <words>" when read and not given


_MAPPED = FlagRule(lambda a: a.map != "share", "to map the share, with --map p, t or net-gains")
_TRENDS = FlagRule(
    lambda a: a.d_min is None and _given(a, "diag_pre") and _given(a, "diag_post"),
    "to set the trends floor, with --diag-pre and --diag-post and without --d-min",
)

#: When each command reads each of its conditional flags.  `main` checks
#: them before any command runs: a flag given to a run that does not read it
#: is an error, and so is a required flag missing from a run that reads it.
FLAG_RULES = {
    "dit": {
        "threshold": FlagRule(lambda a: a.d_min is None, "to set the noise floor, without --d-min"),
        **dict.fromkeys(["diag_pre", "diag_post", "tau", "trends_csv"], _TRENDS),
    },
    "ci": {
        "wtp": _MAPPED._replace(required=True),
        **dict.fromkeys(["market_size", "quota", "speculator_share", "strictify"], _MAPPED),
        "control_city": FlagRule(lambda a: a.estimator == "dit", "by the dit estimator", True),
    },
}

#: The defaults of the flags that default to None, so that `FLAG_RULES` can
#: tell whether they were given; `main` fills them in after the check.
FLAG_DEFAULTS = {
    "threshold": estimators.PLACEBO_THRESHOLD,
    "tau": estimators.DISPLACEMENT_TAU,
    "market_size": equilibrium.MarketConfig.N,
    "quota": equilibrium.MarketConfig.q,
    "speculator_share": equilibrium.MarketConfig.z,
}


def _check_flags(args) -> None:
    """Apply `FLAG_RULES` to the run's arguments, then `FLAG_DEFAULTS`."""
    for name, rule in FLAG_RULES.get(args.command, {}).items():
        flag = _flag(name)
        if _given(args, name) and not rule.reads(args):
            raise DiftransError(f"{flag} is read only {rule.words}")
        if rule.required and rule.reads(args) and not _given(args, name):
            raise DiftransError(f"{flag} is required {rule.words}")
    for name, value in FLAG_DEFAULTS.items():
        if getattr(args, name, value) is None:
            setattr(args, name, value)


#: The sections that `report` bundles, each read from the file its flag names.
REPORT_SECTIONS = ("scan", "dit", "equilibrium", "did", "ci")

#: The flags that name a file the run reads, and those that name one it writes.
_INPUTS = ("input", "wtp", *REPORT_SECTIONS)
_OUTPUTS = ("out", "out_csv", "trends_csv", "dump_draws", "plan", "markdown")


def _file_key(path: str) -> str | None:
    """The `os.path.realpath` form of `path`, or None for a path that exists
    and is not a regular file (say, `/dev/null` or `/dev/stdout`), which
    several flags may name without one write undoing another."""
    if os.path.exists(path) and not os.path.isfile(path):
        return None
    return os.path.realpath(path)


def _check_outputs(args) -> None:
    """Reject an output path that is empty, names a directory, lies in a
    directory that does not exist, or names the regular file of another
    output or of an input (compared by `_file_key`), before any input is
    read."""
    taken = {}
    for name in _INPUTS:
        path = getattr(args, name, None)
        if path is not None:
            taken.setdefault(_file_key(path), _flag(name))
    for name in _OUTPUTS:
        path = getattr(args, name, None)
        if path is None:
            continue
        flag = _flag(name)
        if not path or os.path.isdir(path):
            raise DiftransError(f"{flag} must name a file, got {path!r}")
        if not os.path.isdir(os.path.dirname(path) or os.curdir):
            raise DiftransError(f"{flag} must be in an existing directory, got {path!r}")
        key = _file_key(path)
        if key is not None and taken.setdefault(key, flag) != flag:
            raise DiftransError(f"{flag} names the same file as {taken[key]}, got {path!r}")


def _select(args) -> None:
    """Decide which rows a run reads, before the input is read, as `args`
    fields the manifest skips: `_controls`, the control labels (None
    without a list); `_windows` and `_diag`, the (pre, post) and diagnostic
    `PeriodFilter`s less `--exclude` (None without them); `_grid`, the
    bandwidths; `_treated`, the label of `--treated-city` or `--city` (None
    without one).  Controls that name no city or the treated city are an
    error, as is a pair of windows that admits a common month."""
    text = getattr(args, "control_cities", getattr(args, "control_city", None))
    args._controls = None if text is None else tuple(c.strip() for c in text.split(",") if c.strip())
    if args._controls == ():
        flag = "--control-cities" if args.command == "did" else "--control-city"
        raise DiftransError(f"{flag} names no city")
    args._treated = getattr(args, "treated_city", getattr(args, "city", None))
    if args._controls and args._treated in args._controls:
        raise DiftransError(f"control city {args._treated!r} is the treated city")
    parts = (getattr(args, "exclude", None) or "").split(",")
    exclude = frozenset(_parse_ym(part) for part in parts if part.strip())
    for name, flags in (("_windows", ("pre", "post")), ("_diag", ("diag_pre", "diag_post"))):
        texts = [getattr(args, flag, None) for flag in flags]
        pair = None
        if None not in texts:
            pair = tuple(PeriodFilter((_parse_window(text),), exclude) for text in texts)
            common = pair[0].first_common(pair[1])
            if common is not None:
                raise DiftransError("%s and %s both admit %04d-%02d" % (*map(_flag, flags), *common))
        setattr(args, name, pair)
    if getattr(args, "d_grid", None) is not None:
        args._grid = _parse_grid(args.d_grid)


def _market(args) -> tuple[equilibrium.WtpCurve, equilibrium.MarketConfig]:
    """The valuation schedule read from --wtp and the market of the market flags."""
    curve = equilibrium.WtpCurve.from_csv(_read(args, args.wtp), strictify=args.strictify)
    return curve, equilibrium.MarketConfig(
        N=args.market_size, q=args.quota, z=args.speculator_share
    )


def _city_pmfs(table, cities, windows) -> tuple:
    """Each city's PMF in each window; a city is one label or a tuple pooled."""
    return tuple(build_pmf(table, city, window) for city in cities for window in windows)


# ---------------------------------------------------------------------------
# Subcommands


def _period_text(key: int) -> str:
    """The period of key `year * 12 + month` as YYYY-MM."""
    year, month = divmod(key - 1, 12)
    return "%04d-%02d" % (year, month + 1)


def cmd_ingest(args) -> dict:
    table = _ingest(args)
    first = last = None
    if len(table):
        first, last = _period_text(int(table.period.min())), _period_text(int(table.period.max()))
    return {
        "rows": len(table),
        "total_units": int(table.quantity.sum()),
        "cities": sorted(table.cities),
        "first_period": first,
        "last_period": last,
    }


def _write_plan(path: str, plan) -> None:
    """The plan's entries, each with the prices its indices name."""
    src, tgt = plan.src_support.tolist(), plan.tgt_support.tolist()
    rows = [(i, j, src[i], tgt[j], mass) for i, j, mass in plan.entries]
    _write_csv(path, ("i", "j", "x_i", "x_j", "mass"), rows)


def cmd_transport(args) -> dict:
    table = _ingest(args)
    pre, post = _city_pmfs(table, [args.city], args._windows)
    cost = ot_cost(pre, post, args.d)
    if args.plan is not None:
        _write_plan(args.plan, solve_ot(pre, post, args.d))
    return {"cost": cost, "d": args.d, "n_pre": pre.n, "n_post": post.n}


#: The columns of `scan`'s and `dit`'s `--out-csv`, one row per bandwidth:
#: the placebo quantiles are labelled by their levels,
#: `estimators.PLACEBO_QUANTILES`, and `dit` is empty for `scan`.
SCAN_CSV_HEADER = "d,real_cost,placebo_mean,placebo_sd,q025,q25,q50,q75,q975,dit".split(",")


def _write_scan(path: str, scan: estimators.BandwidthScan) -> None:
    """The scan's rows, one per bandwidth, under `SCAN_CSV_HEADER`."""
    rows = [
        (row.d, row.real_cost, row.placebo_mean, row.placebo_sd, *row.placebo_quantiles, row.dit_value)
        for row in scan.rows
    ]
    _write_csv(path, SCAN_CSV_HEADER, rows)


def cmd_scan(args) -> dict:
    table = _ingest(args)
    pre, post = _city_pmfs(table, [args.city], args._windows)
    placebo = PlaceboConfig(n_sims=args.sims, seed=args.seed)
    scan = estimators.bandwidth_scan(pre, post, args._grid, placebo)
    _write_scan(args.out_csv, scan)
    chosen = scan.select(args.threshold)
    return {
        "n_pre": pre.n,
        "n_post": post.n,
        "threshold": args.threshold,
        "scan_csv": args.out_csv,
        "selected_d": chosen.d_star,
        "estimate_at_selected_d": chosen.value,
    }


def cmd_dit(args) -> dict:
    table = _ingest(args)
    cities = (args.treated_city, args._controls)
    t_pre, t_post, c_pre, c_post = _city_pmfs(table, cities, args._windows)
    # The trends floor's pairs ride in the scan's sweep, so they are built first.
    trends = None if args._diag is None else _city_pmfs(table, cities, args._diag)
    placebo = PlaceboConfig(n_sims=args.sims, seed=args.seed)
    scan = estimators.bandwidth_scan(
        t_pre, t_post, args._grid, placebo, control=(c_pre, c_post), trends=trends
    )
    _write_scan(args.out_csv, scan)
    if args.trends_csv is not None:
        _write_csv(args.trends_csv, ("d", "cost_treated", "cost_control", "difference"), scan.trends)
    chosen = scan.select(args.threshold, args.tau, args.d_min)
    return {
        "curve_csv": args.out_csv,
        "d_star": chosen.d_star,
        "s_dit": chosen.value,
        "floors": {key: getattr(chosen, key) for key in ("placebo_d", "displacement_d", "d_min")},
    }


def _solution_json(sol: equilibrium.MarketSolution, dp_ds: float, dt_ds: float) -> dict:
    """One row of `equilibrium`'s report: the solution's fields in RMB, less
    an unset `meets_price_floor`, their displays in RMB thousand and
    billion, and the derivatives of price and cost wedge in the share."""
    out = {key: value for key, value in dataclasses.asdict(sol).items() if value is not None}
    out["display"] = {
        "p_thousand": sol.p / 1e3,
        "t_thousand": sol.t / 1e3,
        "gross_gains_billion": sol.gross_gains / 1e9,
        "tc_total_billion": sol.tc_total / 1e9,
        "net_gains_billion": sol.net_gains / 1e9,
    }
    out["comparative_statics"] = {"dp_ds": dp_ds, "dt_ds": dt_ds}
    return out


def cmd_equilibrium(args) -> dict:
    try:
        s_values = [float(part) for part in args.s.split(",") if part.strip()]
    except ValueError:
        raise DiftransError(f"trade shares {args.s!r} are not comma-separated numbers") from None
    if not s_values:
        raise DiftransError(f"trade shares {args.s!r} name no share")
    curve, cfg = _market(args)
    rows = equilibrium.bounds_table(cfg, curve, s_values, price_floor=args.price_floor)
    dp, dt = equilibrium.comparative_statics(cfg, curve, [sol.s for sol in rows])
    if args.out_csv is not None:
        names = [f.name for f in dataclasses.fields(equilibrium.MarketSolution)]
        _write_csv(args.out_csv, names, map(dataclasses.astuple, rows))
    return {
        "rows": list(map(_solution_json, rows, dp.tolist(), dt.tolist())),
        "p_notc": equilibrium.solve_no_tc(cfg, curve)[0] if cfg.z == 0.0 else None,
        "s_notc": cfg.s_notc,
    }


def cmd_did(args) -> dict:
    table = _ingest(args)
    treated = table.in_cities(args.treated_city)
    pre, post = (window.mask(table.period) for window in args._windows)
    keep = (treated | table.in_cities(*args._controls)) & (pre | post)
    # No weights count each row once.
    weight = table.quantity[keep] if args.weighting == "units" else None
    result = baseline.did_ols(treated[keep], post[keep], table.price[keep], weight)
    return dataclasses.asdict(result)


def _write_draws(path: str, draws) -> None:
    """Each draw by its index; a NaN draw, one without a value, is empty."""
    rows = [(k, None if math.isnan(v) else v) for k, v in enumerate(draws.tolist())]
    _write_csv(path, ("draw_index", "value"), rows)


def cmd_ci(args) -> dict:
    cfg = SubsampleConfig(
        n_draws=args.draws, b=args.b, block_fraction=args.block_fraction, alpha=args.alpha,
        seed=args.seed,
    )
    if args.map != "share":
        curve, mcfg = _market(args)
    table = _ingest(args)
    pre, post = _city_pmfs(table, [args.city], args._windows)
    control = _city_pmfs(table, [args._controls], args._windows) if args.estimator == "dit" else None
    result = inference.subsample_ci(pre, post, args.d, cfg, control=control)
    if args.map != "share":
        # A point the model cannot invert is an error that names the bound it
        # breaks; a draw it cannot invert maps to NaN.
        field = args.map.replace("-", "_")
        point = equilibrium.invert_from_volume(mcfg, curve, result.point)
        draws = equilibrium.invert_shares(mcfg, curve, result.draws)
        result = inference.SubsampleResult.from_draws(
            getattr(point, field), getattr(draws, field), cfg.alpha
        )
    if args.dump_draws is not None:
        _write_draws(args.dump_draws, result.draws)
    return {
        "estimator": args.estimator,
        "map": args.map,
        "d": args.d,
        "point": result.point,
        "lower": result.lower,
        "upper": result.upper,
        "alpha": args.alpha,
        "n_draws": args.draws,
        "n_failed": result.n_failed,
        "b": {"pre": cfg.size_for(pre.n), "post": cfg.size_for(post.n)},
    }


def cmd_report(args) -> dict:
    sections = {}
    gaps = []
    for name in REPORT_SECTIONS:
        path = getattr(args, name)
        if path is None:
            sections[name] = {"missing": True}
            gaps.append(name)
            continue
        sections[name] = _read_section(args, name, path)
    if args.markdown is not None:
        markdown = _render_markdown(sections, gaps, args)
        with open(args.markdown, "w", encoding="utf-8") as fh:
            fh.write(markdown)
    return {"sections": sections, "gaps": gaps}


def _read_section(args, name: str, path: str) -> dict:
    """The JSON object in a section's file, read once by `_read`; any other
    content is an error naming the section and the path.  The bytes are
    decoded as a text file opened as UTF-8 reads them, newlines included."""
    where = f"report input for {name!r}"
    try:
        source = _read(args, path)
    except FileNotFoundError:
        raise DiftransError(f"{where} not found: {path}") from None
    try:
        section = json.load(io.TextIOWrapper(source, encoding="utf-8"))
    except UnicodeDecodeError:
        raise DiftransError(f"{where} is not UTF-8 text: {path}") from None
    except json.JSONDecodeError as exc:
        raise DiftransError(f"{where} is not JSON ({exc.msg}, line {exc.lineno}): {path}") from None
    if not isinstance(section, dict):
        raise DiftransError(f"{where} is not a JSON object: {path}")
    return section


def _markdown_scan(scan: dict) -> list[str]:
    return [
        "## Before-and-after",
        "",
        f"- selected bandwidth: {scan['selected_d']}",
        f"- estimate: {scan['estimate_at_selected_d']}",
        "",
    ]


def _markdown_dit(dit: dict) -> list[str]:
    return [
        "## Difference-in-transports",
        "",
        f"- most informative bandwidth: {dit['d_star']}",
        f"- estimate: {dit['s_dit']}",
        "",
    ]


def _markdown_equilibrium(eq: dict) -> list[str]:
    lines = ["## Market inversion", "", "| s | p (RMB 1,000) | t (RMB 1,000) | net gains (RMB bn) | cost share |", "|---|---|---|---|---|"]
    for row in eq["rows"]:
        disp = row["display"]
        lines.append(
            f"| {row['s']:.2f} | {disp['p_thousand']:.1f} | {disp['t_thousand']:.1f} "
            f"| {disp['net_gains_billion']:.2f} | {row['tc_share']:.2f} |"
        )
    return lines + [""]


def _markdown_did(did: dict) -> list[str]:
    return [
        "## Log-price difference-in-differences",
        "",
        f"- interaction coefficient: {did['alpha3']:.4f} (se {did['se'][3]:.4f})",
        "",
    ]


def _markdown_ci(ci: dict) -> list[str]:
    return [
        "## Subsampling interval",
        "",
        f"- point {ci['point']:.4f}, {100 * (1 - ci['alpha']):.0f}% CI "
        f"[{ci['lower']:.4f}, {ci['upper']:.4f}]",
        "",
    ]


_MARKDOWN = {
    "scan": _markdown_scan,
    "dit": _markdown_dit,
    "equilibrium": _markdown_equilibrium,
    "did": _markdown_did,
    "ci": _markdown_ci,
}


def _render_markdown(sections: dict, gaps: list, args) -> str:
    lines = ["# Trade volume and transaction cost report", ""]
    for name in REPORT_SECTIONS:
        if "missing" in sections[name]:
            continue
        where, path = f"report input for {name!r}", getattr(args, name)
        try:
            lines += _MARKDOWN[name](sections[name])
        except KeyError as exc:
            raise DiftransError(f"{where} has no key {exc} for Markdown: {path}") from None
        except (IndexError, TypeError, ValueError) as exc:
            raise DiftransError(f"{where} has a value Markdown cannot show ({exc}): {path}") from None
    if gaps:
        lines += ["## Missing sections", ""] + [f"- {name}" for name in gaps] + [""]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Parser


def _add_common_io(sub, needs_city=True):
    sub.add_argument("--input", required=True, help="sales CSV path")
    if needs_city:
        sub.add_argument("--city", required=True, help="city label to analyze")
    sub.add_argument("--pre", required=True, help="pre window, YYYY-MM:YYYY-MM")
    sub.add_argument("--post", required=True, help="post window, YYYY-MM:YYYY-MM, sharing no month with --pre")
    sub.add_argument("--exclude", help="comma-separated YYYY-MM months to drop")
    sub.add_argument("--out", help="report JSON path (default: stdout)")


def _add(sub, command: str, flag: str, text: str, **kwargs) -> None:
    """Add `flag` to `command`'s parser, its help `text` followed by its
    default from `FLAG_DEFAULTS` and when the command reads it from `FLAG_RULES`."""
    name = flag[2:].replace("-", "_")
    if name in FLAG_DEFAULTS:
        text += f" (default {FLAG_DEFAULTS[name]})"
    rule = FLAG_RULES.get(command, {}).get(name)
    if rule is not None:
        text += f"; read{', and required,' if rule.required else ''} only {rule.words}"
    sub.add_argument(flag, help=text, **kwargs)


def _add_market_flags(sub, command: str):
    """The market model's flags, read by `_market`."""
    _add(sub, command, "--market-size", "buyers N", type=int)
    _add(sub, command, "--quota", "licenses q", type=int)
    _add(sub, command, "--speculator-share", "speculator share z", type=float)
    _add(sub, command, "--strictify", "perturb tied valuations", action="store_true")


def _ingest_args(sub):
    sub.add_argument("--input", required=True)
    sub.add_argument("--out")


def _transport_args(sub):
    _add_common_io(sub)
    sub.add_argument("--d", type=int, required=True, help="bandwidth in RMB")
    sub.add_argument("--plan", help="write the optimal plan to this CSV")


def _scan_args(sub):
    _add_common_io(sub)
    sub.add_argument("--d-grid", required=True, help="grid as lo:hi:step")
    sub.add_argument(
        "--sims", type=int, default=500, help="placebo replicates, each two resamples of the post window"
    )
    _add(sub, "scan", "--threshold", "placebo-mean threshold of the noise floor", type=float)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out-csv", required=True, help="scan table CSV path")


def _dit_args(sub):
    _add_common_io(sub, needs_city=False)
    sub.add_argument("--treated-city", required=True)
    _add(sub, "dit", "--control-city", "control city label, or comma-separated labels pooled", required=True)
    sub.add_argument("--d-grid", required=True)
    sub.add_argument(
        "--sims", type=int, default=500, help="placebo replicates, each two resamples of the treated post window"
    )
    _add(sub, "dit", "--threshold", "placebo-mean threshold of the noise floor", type=float)
    _add(sub, "dit", "--tau", "equal-displacement tolerance", type=float)
    sub.add_argument("--d-min", type=int, help="explicit admissibility floor, skips the rules")
    _add(sub, "dit", "--diag-pre", "diagnostic window of the trends floor")
    _add(sub, "dit", "--diag-post", "second diagnostic window, sharing no month with --diag-pre")
    _add(sub, "dit", "--trends-csv", "write the post-trends table here")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out-csv", required=True)


def _equilibrium_args(sub):
    sub.add_argument("--wtp", required=True, help="willingness-to-pay CSV (header n,v)")
    _add_market_flags(sub, "equilibrium")
    sub.add_argument("--s", required=True, help="comma-separated trade shares")
    sub.add_argument("--price-floor", type=float)
    sub.add_argument("--out-csv")
    sub.add_argument("--out")


def _did_args(sub):
    _add_common_io(sub, needs_city=False)
    sub.add_argument("--treated-city", required=True)
    sub.add_argument("--control-cities", required=True, help="comma-separated labels")
    sub.add_argument("--weighting", choices=["units", "rows"], default="units")


def _ci_args(sub):
    _add_common_io(sub)
    sub.add_argument("--estimator", choices=["before_after", "dit"], default="before_after")
    _add(sub, "ci", "--control-city", "control city label, or comma-separated labels pooled")
    sub.add_argument("--d", type=int, required=True)
    sub.add_argument("--draws", type=int, default=200)
    sub.add_argument("--b", type=int, help="explicit subsample size")
    sub.add_argument("--block-fraction", type=float)
    sub.add_argument("--alpha", type=float, default=0.05)
    sub.add_argument("--map", choices=["share", "p", "t", "net-gains"], default="share")
    _add(sub, "ci", "--wtp", "willingness-to-pay CSV")
    _add_market_flags(sub, "ci")
    sub.add_argument("--dump-draws", help="write the raw draw vector to this CSV")
    sub.add_argument("--seed", type=int, default=0)


def _report_args(sub):
    for name in REPORT_SECTIONS:
        sub.add_argument(f"--{name}", help=f"JSON report from the {name} command")
    sub.add_argument("--markdown", help="also render a Markdown summary here")
    sub.add_argument("--out")


#: Each command's help line, the function that runs it and the function that
#: adds its arguments, in the order that `diftrans --help` lists them.
_COMMANDS = {
    "ingest": ("validate and summarize a sales CSV", cmd_ingest, _ingest_args),
    "transport": ("one transport cost at a fixed bandwidth", cmd_transport, _transport_args),
    "scan": ("before-and-after cost over a bandwidth grid, read at the noise floor", cmd_scan, _scan_args),
    "dit": (
        "difference-in-transports over a bandwidth grid, read at its largest value "
        "above the noise and trends floors",
        cmd_dit,
        _dit_args,
    ),
    "equilibrium": ("invert trade shares into prices and costs", cmd_equilibrium, _equilibrium_args),
    "did": ("log-price difference-in-differences benchmark", cmd_did, _did_args),
    "ci": ("subsampling confidence interval for an estimator", cmd_ci, _ci_args),
    "report": ("bundle prior command outputs into one document", cmd_report, _report_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser, with every command, or with `command` alone.

    A parser for one command parses that command's argument vectors as the
    full parser does, and prints the same help and errors: the only text of
    the other commands that it can print is the top-level usage, whose list
    of commands it is given whole.
    """
    parser = argparse.ArgumentParser(
        prog="diftrans",
        description=(
            "Measure the minimum reallocation consistent with a shift between "
            "two price distributions and invert the implied market frictions."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    names = list(_COMMANDS) if command is None else [command]
    # With every command the metavar is argparse's default, which also names
    # the argument `command` in its errors; alone, one command shows them all.
    metavar = None if command is None else "{%s}" % ",".join(_COMMANDS)
    subs = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        text, func, add_args = _COMMANDS[name]
        sub = subs.add_parser(name, help=text)
        add_args(sub)
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # A vector that starts with a command is parsed by that command's parser
    # alone; any other (an option first, an unknown command, none) by all.
    args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        _check_numbers(args)
        _check_flags(args)
        _check_outputs(args)
        _select(args)
        args._digests = {}
        report = args.func(args)
        report["manifest"] = _manifest(args)
        _write_json(report, args.out)
        return 0
    except (DiftransError, OSError) as exc:
        print(f"diftrans {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
