"""Command-line pipeline around the library: ingest, scan, estimate, invert.

Every report embeds a manifest (command, resolved configuration, input file
digests, seed, tool version) and all randomness flows from a single --seed,
so reruns of the same manifest are byte-identical.
"""

from __future__ import annotations

import argparse
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


def _check_numbers(args) -> None:
    """Reject a negative seed or floor and a non-finite threshold, tau or
    price floor before any work; an unset flag is not checked."""
    for name in ("seed", "d_min"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise DiftransError(f"--{name.replace('_', '-')} must be nonnegative, got {value}")
    for name in ("threshold", "tau", "price_floor"):
        value = getattr(args, name, None)
        if value is not None and not math.isfinite(value):
            raise DiftransError(f"--{name.replace('_', '-')} must be finite, got {value}")


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
    curve = equilibrium.WtpCurve.from_csv(args.wtp, strictify=args.strictify)
    cfg = equilibrium.MarketConfig(
        N=args.market_size, q=args.quota, z=args.speculator_share
    )
    try:
        s_values = [float(part) for part in args.s.split(",") if part.strip()]
    except ValueError:
        raise DiftransError(f"trade shares {args.s!r} are not comma-separated numbers") from None
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
        with open(args.out_csv, "w", encoding="utf-8") as fh:
            fh.write(
                "s,p,t,v_seller,v_buyer,gross_gains,tc_total,net_gains,"
                "tc_share,meets_price_floor\n"
            )
            for sol in rows:
                floor = "" if sol.meets_price_floor is None else str(sol.meets_price_floor).lower()
                fh.write(
                    f"{sol.s!r},{sol.p!r},{sol.t!r},{sol.v_seller!r},{sol.v_buyer!r},"
                    f"{sol.gross_gains!r},{sol.tc_total!r},{sol.net_gains!r},"
                    f"{sol.tc_share!r},{floor}\n"
                )
    _write_json(report, args.out)
    return 0


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
    table = ingest_csv(args.input)
    pre, post = _city_pair(args, table, args.city)
    control = None
    if args.estimator == "dit":
        if not args.control_city:
            raise DiftransError("--control-city is required for the dit estimator")
        control = _city_pair(args, table, args.control_city)

    transform = None
    inputs = [args.input]
    if args.map != "share":
        if not args.wtp:
            raise DiftransError(f"--wtp is required to map the share to {args.map}")
        curve = equilibrium.WtpCurve.from_csv(args.wtp, strictify=args.strictify)
        mcfg = equilibrium.MarketConfig(
            N=args.market_size, q=args.quota, z=args.speculator_share
        )
        field = {"p": "p", "t": "t", "net-gains": "net_gains"}[args.map]

        def transform(shares):
            # A point the model cannot invert is an error that names the bound
            # it breaks; a draw it cannot invert maps to NaN.
            equilibrium.invert_from_volume(mcfg, curve, float(shares[0]))
            return getattr(equilibrium.invert_shares(mcfg, curve, shares), field)

        inputs.append(args.wtp)

    cfg = SubsampleConfig(
        n_draws=args.draws,
        b=args.b,
        block_fraction=args.block_fraction,
        alpha=args.alpha,
        seed=args.seed,
    )
    result = inference.subsample_ci(
        pre, post, args.d, cfg, control=control, transform=transform
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
        if not os.path.exists(path):
            raise DiftransError(f"report input for {name!r} not found: {path}")
        with open(path, "r", encoding="utf-8") as fh:
            sections[name] = json.load(fh)
        inputs.append(path)
    bundle = {
        "sections": sections,
        "gaps": gaps,
        "manifest": _manifest("report", args, inputs),
    }
    _write_json(bundle, args.out)
    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as fh:
            fh.write(_render_markdown(sections, gaps))
    return 0


def _render_markdown(sections: dict, gaps: list) -> str:
    lines = ["# Trade volume and transaction cost report", ""]
    scan = sections["scan"]
    if "missing" not in scan:
        lines += [
            "## Before-and-after",
            "",
            f"- selected bandwidth: {scan.get('selected_d', 'selection failed')}",
            f"- estimate: {scan.get('estimate_at_selected_d', 'n/a')}",
            "",
        ]
    dit = sections["dit"]
    if "missing" not in dit:
        lines += [
            "## Difference-in-transports",
            "",
            f"- most informative bandwidth: {dit['d_star']}",
            f"- estimate: {dit['s_dit']}",
            "",
        ]
    eq = sections["equilibrium"]
    if "missing" not in eq:
        lines += ["## Market inversion", "", "| s | p (RMB 1,000) | t (RMB 1,000) | net gains (RMB bn) | cost share |", "|---|---|---|---|---|"]
        for row in eq["rows"]:
            disp = row["display"]
            lines.append(
                f"| {row['s']:.2f} | {disp['p_thousand']:.1f} | {disp['t_thousand']:.1f} "
                f"| {disp['net_gains_billion']:.2f} | {row['tc_share']:.2f} |"
            )
        lines.append("")
    did = sections["did"]
    if "missing" not in did:
        lines += [
            "## Log-price difference-in-differences",
            "",
            f"- interaction coefficient: {did['alpha3']:.4f} (se {did['se'][3]:.4f})",
            "",
        ]
    ci = sections["ci"]
    if "missing" not in ci:
        lines += [
            "## Subsampling interval",
            "",
            f"- point {ci['point']:.4f}, {100 * (1 - ci['alpha']):.0f}% CI "
            f"[{ci['lower']:.4f}, {ci['upper']:.4f}]",
            "",
        ]
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
    sub.add_argument("--threshold", type=float, default=0.0005)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out-csv", required=True, help="scan table CSV path")
    sub.set_defaults(func=cmd_scan)

    sub = subs.add_parser("dit", help="difference-in-transports with bandwidth selection")
    _add_common_io(sub, needs_city=False)
    sub.add_argument("--treated-city", required=True)
    sub.add_argument("--control-city", required=True)
    sub.add_argument("--d-grid", required=True)
    sub.add_argument("--sims", type=int, default=500)
    sub.add_argument("--threshold", type=float, default=0.0005)
    sub.add_argument("--tau", type=float, default=0.005, help="equal-displacement tolerance")
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
    sub.add_argument("--market-size", type=int, default=700_000)
    sub.add_argument("--quota", type=int, default=260_000)
    sub.add_argument("--speculator-share", type=float, default=0.0)
    sub.add_argument("--s", required=True, help="comma-separated trade shares")
    sub.add_argument("--price-floor", type=float)
    sub.add_argument("--strictify", action="store_true", help="perturb tied valuations")
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
    sub.add_argument("--market-size", type=int, default=700_000)
    sub.add_argument("--quota", type=int, default=260_000)
    sub.add_argument("--speculator-share", type=float, default=0.0)
    sub.add_argument("--strictify", action="store_true")
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
