"""Command-line pipeline around the library: ingest, scan, estimate, invert.

Every report embeds a manifest (command, resolved configuration, input file
digests, seed, tool version) and all randomness flows from a single --seed,
so reruns of the same manifest are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys

from . import __version__, baseline, equilibrium, estimators, inference
from .errors import DiftransError, SelectionError
from .estimators import PlaceboConfig
from .inference import SubsampleConfig
from .pmf import PeriodFilter, build_pmf, ingest_csv
from .transport import SCRATCH_CELLS, ot_cost, solve_ot


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _manifest(command: str, args: argparse.Namespace, input_paths: list[str]) -> dict:
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k != "func" and not k.startswith("_")
    }
    return {
        "command": command,
        "config": config,
        "inputs": {path: _sha256(path) for path in input_paths},
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
    if ":" not in text:
        ym = _parse_ym(text)
        return ym, ym
    lo, hi = text.split(":", 1)
    return _parse_ym(lo), _parse_ym(hi)


def _period_filter(window: str, exclude: str | None) -> PeriodFilter:
    excludes = frozenset(
        _parse_ym(part) for part in (exclude or "").split(",") if part.strip()
    )
    return PeriodFilter(include=(_parse_window(window),), exclude=excludes)


#: Most bandwidths in one grid: the recurrence state of one mass column, three
#: cells per bandwidth, then fits the transport kernel's scratch budget.
MAX_GRID = SCRATCH_CELLS // 3


def _parse_grid(text: str) -> list[int]:
    try:
        lo, hi, step = (int(p) for p in text.split(":"))
    except ValueError:
        raise DiftransError(f"grid {text!r} is not of the form lo:hi:step") from None
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
#: More draws would only take longer (each costs ~0.1-0.3 ms at paper scale)
#: and grow the sweep's one-cost-per-draw-and-bandwidth output past memory.
MAX_DRAWS = 100_000


def _check_numbers(args) -> None:
    """Reject a negative seed or floor, a draw count outside [1, MAX_DRAWS],
    and a non-finite threshold, tau or price floor before any work; an unset
    flag is not checked."""
    for name in ("sims", "draws"):
        value = getattr(args, name, None)
        if value is not None and not 1 <= value <= MAX_DRAWS:
            raise DiftransError(f"--{name} must be from 1 to {MAX_DRAWS}, got {value}")
    for name in ("seed", "d_min"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise DiftransError(f"--{name.replace('_', '-')} must be nonnegative, got {value}")
    for name in ("threshold", "tau", "price_floor"):
        value = getattr(args, name, None)
        if value is not None and not math.isfinite(value):
            raise DiftransError(f"--{name.replace('_', '-')} must be finite, got {value}")


#: The market flags and the `MarketConfig` fields they set.
MARKET_FLAGS = {"market_size": "N", "quota": "q", "speculator_share": "z"}


def _market_defaults(args) -> None:
    """Fill each unset market flag with the model's default, as the manifest
    records it."""
    market = equilibrium.MarketConfig()
    for name, field in MARKET_FLAGS.items():
        if getattr(args, name) is None:
            setattr(args, name, getattr(market, field))


def _market(args) -> tuple[equilibrium.WtpCurve, equilibrium.MarketConfig]:
    """The valuation schedule read from --wtp and the market of the market flags."""
    _market_defaults(args)
    curve = equilibrium.WtpCurve.from_csv(args.wtp, strictify=args.strictify)
    return curve, equilibrium.MarketConfig(
        N=args.market_size, q=args.quota, z=args.speculator_share
    )


def _city_pair(args, table, city: str):
    pre = build_pmf(table, city, _period_filter(args.pre, args.exclude))
    post = build_pmf(table, city, _period_filter(args.post, args.exclude))
    return pre, post


# ---------------------------------------------------------------------------
# Subcommands


def cmd_ingest(args) -> int:
    table = ingest_csv(args.input)
    periods = list(zip(table.year.tolist(), table.month.tolist()))
    report = {
        "rows": len(table),
        "total_units": int(table.quantity.sum()),
        "cities": sorted(table.cities),
        "first_period": "%04d-%02d" % min(periods) if periods else None,
        "last_period": "%04d-%02d" % max(periods) if periods else None,
        "manifest": _manifest("ingest", args, [args.input]),
    }
    _write_json(report, args.out)
    return 0


def cmd_transport(args) -> int:
    table = ingest_csv(args.input)
    pre, post = _city_pair(args, table, args.city)
    cost = ot_cost(pre, post, args.d)
    if args.plan:
        plan = solve_ot(pre, post, args.d)
        with open(args.plan, "w", encoding="utf-8") as fh:
            plan.to_csv(fh)
    report = {
        "cost": cost,
        "d": args.d,
        "n_pre": pre.n,
        "n_post": post.n,
        "manifest": _manifest("transport", args, [args.input]),
    }
    _write_json(report, args.out)
    return 0


def _placebo_config(args) -> PlaceboConfig:
    return PlaceboConfig(n_sims=args.sims, seed=args.seed)


def cmd_scan(args) -> int:
    table = ingest_csv(args.input)
    pre, post = _city_pair(args, table, args.city)
    grid = _parse_grid(args.d_grid)
    scan = estimators.bandwidth_scan(pre, post, grid, _placebo_config(args))
    with open(args.out_csv, "w", encoding="utf-8") as fh:
        scan.to_csv(fh)
    report = {
        "n_pre": pre.n,
        "n_post": post.n,
        "threshold": args.threshold,
        "scan_csv": args.out_csv,
        "manifest": _manifest("scan", args, [args.input]),
    }
    try:
        selected = scan.select(args.threshold)
        report["selected_d"] = selected
        report["estimate_at_selected_d"] = next(
            row.real_cost for row in scan.rows if row.d == selected
        )
    except SelectionError as exc:
        report["selection_error"] = str(exc)
        _write_json(report, args.out)
        raise
    _write_json(report, args.out)
    return 0


def cmd_dit(args) -> int:
    if args.d_min is not None and (args.diag_pre or args.diag_post):
        raise DiftransError("--diag-pre and --diag-post set the trends floor, which --d-min skips")
    if bool(args.diag_pre) != bool(args.diag_post):
        raise DiftransError("--diag-pre and --diag-post must be given together")
    if args.trends_csv and args.d_min is not None:
        raise DiftransError("--trends-csv needs the trends floor, which --d-min skips")
    if args.trends_csv and not args.diag_pre:
        raise DiftransError("--trends-csv needs --diag-pre and --diag-post")
    if args.tau is not None and args.d_min is not None:
        raise DiftransError("--tau sets the trends floor, which --d-min skips")
    if args.tau is not None and not args.diag_pre:
        raise DiftransError("--tau needs --diag-pre and --diag-post")
    if args.threshold is not None and args.d_min is not None:
        raise DiftransError("--threshold sets the noise floor, which --d-min skips")
    if args.tau is None:
        args.tau = estimators.DISPLACEMENT_TAU
    if args.threshold is None:
        args.threshold = estimators.PLACEBO_THRESHOLD
    table = ingest_csv(args.input)
    t_pre, t_post = _city_pair(args, table, args.treated_city)
    c_pre, c_post = _city_pair(args, table, args.control_city)
    grid = _parse_grid(args.d_grid)
    base = {
        "treated-pre": t_pre,
        "treated-post": t_post,
        "control-pre": c_pre,
        "control-post": c_post,
    }[args.placebo_base]
    # The trends floor's pairs ride in the scan's sweep, so they are built first.
    trends = None
    if args.diag_pre:
        diag_args = argparse.Namespace(
            pre=args.diag_pre, post=args.diag_post, exclude=args.exclude
        )
        trends = (
            *_city_pair(diag_args, table, args.treated_city),
            *_city_pair(diag_args, table, args.control_city),
        )
    scan = estimators.bandwidth_scan(
        t_pre,
        t_post,
        grid,
        _placebo_config(args),
        base=base,
        control=(c_pre, c_post),
        trends=trends,
    )
    with open(args.out_csv, "w", encoding="utf-8") as fh:
        scan.to_csv(fh)

    report = {
        "curve_csv": args.out_csv,
        "manifest": _manifest("dit", args, [args.input]),
    }

    if args.d_min is not None:
        placebo_d = displacement_d = None
        d_min = args.d_min
    else:
        placebo_d = scan.select(args.threshold)
        displacement_d = 0
        if scan.trends is not None:
            if args.trends_csv:
                with open(args.trends_csv, "w", encoding="utf-8") as fh:
                    fh.write("d,cost_treated,cost_control,difference\n")
                    for d, ca, cb, diff in scan.trends:
                        fh.write(f"{d},{ca!r},{cb!r},{diff!r}\n")
            displacement_d = estimators.displacement_floor(scan.trends, tau=args.tau)
        d_min = max(placebo_d, displacement_d)

    d_star, s_dit = estimators.select_dstar(scan, d_min)
    report.update(
        {
            "d_star": d_star,
            "s_dit": s_dit,
            "floors": {
                "placebo_d": placebo_d,
                "displacement_d": displacement_d,
                "d_min": d_min,
            },
        }
    )
    _write_json(report, args.out)
    return 0


def cmd_equilibrium(args) -> int:
    try:
        s_values = [float(part) for part in args.s.split(",") if part.strip()]
    except ValueError:
        raise DiftransError(f"trade shares {args.s!r} are not comma-separated numbers") from None
    if not s_values:
        raise DiftransError(f"trade shares {args.s!r} name no share")
    curve, cfg = _market(args)
    rows = equilibrium.bounds_table(cfg, curve, s_values, price_floor=args.price_floor)
    dp, dt = equilibrium.comparative_statics(cfg, curve, [sol.s for sol in rows])
    rendered = []
    for sol, dp_ds, dt_ds in zip(rows, dp.tolist(), dt.tolist()):
        entry = equilibrium.solution_as_dict(sol)
        entry["comparative_statics"] = {"dp_ds": dp_ds, "dt_ds": dt_ds}
        rendered.append(entry)
    p_notc = None
    if cfg.z == 0.0:
        p_notc, _ = equilibrium.solve_no_tc(cfg, curve)
    report = {
        "rows": rendered,
        "p_notc": p_notc,
        "s_notc": cfg.s_notc,
        "manifest": _manifest("equilibrium", args, [args.wtp]),
    }
    if args.out_csv:
        names = [f.name for f in dataclasses.fields(equilibrium.MarketSolution)]
        with open(args.out_csv, "w", encoding="utf-8") as fh:
            fh.write(",".join(names) + "\n")
            for sol in rows:
                fh.write(",".join(_csv_cell(getattr(sol, name)) for name in names) + "\n")
    _write_json(report, args.out)
    return 0


def _csv_cell(value) -> str:
    """A float by its repr, a flag as true or false, an unset flag empty."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    return repr(value)


def cmd_did(args) -> int:
    table = ingest_csv(args.input)
    controls = [c.strip() for c in args.control_cities.split(",") if c.strip()]
    treated = table.in_cities(args.treated_city)
    pre = _period_filter(args.pre, args.exclude).mask(table.year, table.month)
    post = _period_filter(args.post, args.exclude).mask(table.year, table.month) & ~pre
    keep = (treated | table.in_cities(*controls)) & (pre | post)
    result = baseline.did_ols(
        treated[keep], post[keep], table.price[keep], table.quantity[keep], weighting=args.weighting
    )
    report = result.as_dict()
    report["manifest"] = _manifest("did", args, [args.input])
    _write_json(report, args.out)
    return 0


def cmd_ci(args) -> int:
    if args.map == "share":
        for name in ("wtp", *MARKET_FLAGS, "strictify"):
            value = getattr(args, name)
            if value is not None and value is not False:
                flag = "--" + name.replace("_", "-")
                raise DiftransError(f"{flag} is read only to map the share, which --map share does not")
        _market_defaults(args)
    if args.estimator != "dit" and args.control_city is not None:
        raise DiftransError("--control-city is read only by the dit estimator")
    table = ingest_csv(args.input)
    pre, post = _city_pair(args, table, args.city)
    control = None
    if args.estimator == "dit":
        if not args.control_city:
            raise DiftransError("--control-city is required for the dit estimator")
        control = _city_pair(args, table, args.control_city)

    inputs = [args.input]
    if args.map != "share":
        if not args.wtp:
            raise DiftransError(f"--wtp is required to map the share to {args.map}")
        curve, mcfg = _market(args)
        inputs.append(args.wtp)

    cfg = SubsampleConfig(
        n_draws=args.draws,
        b=args.b,
        block_fraction=args.block_fraction,
        alpha=args.alpha,
        seed=args.seed,
    )
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
    if args.dump_draws:
        with open(args.dump_draws, "w", encoding="utf-8") as fh:
            inference.dump_draws(result, fh)
    report = {
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
        "manifest": _manifest("ci", args, inputs),
    }
    _write_json(report, args.out)
    return 0


REPORT_SECTIONS = ("scan", "dit", "equilibrium", "did", "ci")


def cmd_report(args) -> int:
    sections = {}
    gaps = []
    inputs = []
    for name in REPORT_SECTIONS:
        path = getattr(args, name)
        if path is None:
            sections[name] = {"missing": True}
            gaps.append(name)
            continue
        sections[name] = _read_section(name, path)
        inputs.append(path)
    markdown = _render_markdown(sections, gaps, args) if args.markdown else None
    bundle = {
        "sections": sections,
        "gaps": gaps,
        "manifest": _manifest("report", args, inputs),
    }
    _write_json(bundle, args.out)
    if markdown is not None:
        with open(args.markdown, "w", encoding="utf-8") as fh:
            fh.write(markdown)
    return 0


def _read_section(name: str, path: str) -> dict:
    """The JSON object in a section's file; any other content is an error
    naming the section and the path."""
    where = f"report input for {name!r}"
    if not os.path.exists(path):
        raise DiftransError(f"{where} not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            section = json.load(fh)
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
        f"- selected bandwidth: {scan.get('selected_d', 'selection failed')}",
        f"- estimate: {scan.get('estimate_at_selected_d', 'n/a')}",
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
    sub.add_argument("--post", required=True, help="post window, YYYY-MM:YYYY-MM")
    sub.add_argument("--exclude", help="comma-separated YYYY-MM months to drop")
    sub.add_argument("--out", help="report JSON path (default: stdout)")


def _add_market_flags(sub):
    """The market model's flags, read by `_market`.  They default to None, so
    that `ci --map share` can tell a given flag; `_market_defaults` fills in
    the model's own defaults."""
    market = equilibrium.MarketConfig()
    sub.add_argument("--market-size", type=int, help=f"buyers N (default {market.N})")
    sub.add_argument("--quota", type=int, help=f"licenses q (default {market.q})")
    sub.add_argument(
        "--speculator-share", type=float, help=f"speculator share z (default {market.z})"
    )
    sub.add_argument("--strictify", action="store_true", help="perturb tied valuations")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diftrans",
        description=(
            "Measure the minimum reallocation consistent with a shift between "
            "two price distributions and invert the implied market frictions."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("ingest", help="validate and summarize a sales CSV")
    sub.add_argument("--input", required=True)
    sub.add_argument("--out")
    sub.set_defaults(func=cmd_ingest)

    sub = subs.add_parser("transport", help="one transport cost at a fixed bandwidth")
    _add_common_io(sub)
    sub.add_argument("--d", type=int, required=True, help="bandwidth in RMB")
    sub.add_argument("--plan", help="write the optimal plan to this CSV")
    sub.set_defaults(func=cmd_transport)

    sub = subs.add_parser("scan", help="real and placebo costs over a bandwidth grid")
    _add_common_io(sub)
    sub.add_argument("--d-grid", required=True, help="grid as lo:hi:step")
    sub.add_argument("--sims", type=int, default=500, help="placebo replicates")
    sub.add_argument("--threshold", type=float, default=estimators.PLACEBO_THRESHOLD)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out-csv", required=True, help="scan table CSV path")
    sub.set_defaults(func=cmd_scan)

    sub = subs.add_parser("dit", help="difference-in-transports with bandwidth selection")
    _add_common_io(sub, needs_city=False)
    sub.add_argument("--treated-city", required=True)
    sub.add_argument("--control-city", required=True)
    sub.add_argument("--d-grid", required=True)
    sub.add_argument("--sims", type=int, default=500)
    sub.add_argument(
        "--threshold",
        type=float,
        help=f"placebo-mean threshold of the noise floor (default {estimators.PLACEBO_THRESHOLD})",
    )
    sub.add_argument(
        "--tau",
        type=float,
        help=f"equal-displacement tolerance (default {estimators.DISPLACEMENT_TAU})",
    )
    sub.add_argument("--d-min", type=int, help="explicit admissibility floor, skips the rules")
    sub.add_argument(
        "--placebo-base",
        choices=["treated-pre", "treated-post", "control-pre", "control-post"],
        default="treated-post",
        help="distribution resampled for the placebo columns and the noise floor",
    )
    sub.add_argument("--diag-pre", help="diagnostic window for the trends floor")
    sub.add_argument("--diag-post", help="second diagnostic window")
    sub.add_argument("--trends-csv", help="write the post-trends table here")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out-csv", required=True)
    sub.set_defaults(func=cmd_dit)

    sub = subs.add_parser("equilibrium", help="invert trade shares into prices and costs")
    sub.add_argument("--wtp", required=True, help="willingness-to-pay CSV (header n,v)")
    _add_market_flags(sub)
    sub.add_argument("--s", required=True, help="comma-separated trade shares")
    sub.add_argument("--price-floor", type=float)
    sub.add_argument("--out-csv")
    sub.add_argument("--out")
    sub.set_defaults(func=cmd_equilibrium)

    sub = subs.add_parser("did", help="log-price difference-in-differences benchmark")
    _add_common_io(sub, needs_city=False)
    sub.add_argument("--treated-city", required=True)
    sub.add_argument("--control-cities", required=True, help="comma-separated labels")
    sub.add_argument("--weighting", choices=["units", "rows"], default="units")
    sub.set_defaults(func=cmd_did)

    sub = subs.add_parser("ci", help="subsampling confidence interval for an estimator")
    _add_common_io(sub)
    sub.add_argument("--estimator", choices=["before_after", "dit"], default="before_after")
    sub.add_argument("--control-city", help="control label for the dit estimator")
    sub.add_argument("--d", type=int, required=True)
    sub.add_argument("--draws", type=int, default=200)
    sub.add_argument("--b", type=int, help="explicit subsample size")
    sub.add_argument("--block-fraction", type=float)
    sub.add_argument("--alpha", type=float, default=0.05)
    sub.add_argument("--map", choices=["share", "p", "t", "net-gains"], default="share")
    sub.add_argument("--wtp", help="willingness-to-pay CSV for mapped intervals")
    _add_market_flags(sub)
    sub.add_argument("--dump-draws", help="write the raw draw vector to this CSV")
    sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(func=cmd_ci)

    sub = subs.add_parser("report", help="bundle prior command outputs into one document")
    for name in REPORT_SECTIONS:
        sub.add_argument(f"--{name}", help=f"JSON report from the {name} command")
    sub.add_argument("--markdown", help="also render a Markdown summary here")
    sub.add_argument("--out")
    sub.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_numbers(args)
        return args.func(args)
    except (DiftransError, OSError) as exc:
        print(f"diftrans {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
