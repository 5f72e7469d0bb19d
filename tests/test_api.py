"""The public surface of the package, pinned name by name."""

import diftrans
from diftrans import baseline, cli, equilibrium, estimators, inference, transport

PUBLIC = [
    "BandwidthScan",
    "DidResult",
    "DiftransError",
    "MarketConfig",
    "MarketSolution",
    "PeriodFilter",
    "PlaceboConfig",
    "PricePMF",
    "SalesTable",
    "SubsampleConfig",
    "SubsampleResult",
    "TransportPlan",
    "WtpCurve",
    "bandwidth_scan",
    "build_pmf",
    "comparative_statics",
    "did_ols",
    "diff_in_transports",
    "ingest_csv",
    "invert_from_volume",
    "invert_shares",
    "ot_cost",
    "solve_ot",
    "subsample_ci",
]

#: Names made redundant, moved to the tests' oracles as checks that only
#: tests call, or (the writers and renderers) moved to the CLI under other
#: names; none may come back through a stale re-export.
REMOVED = [
    "MARGINAL_TOL",
    "PLACEBO_BASES",
    "as_dict",
    "before_after",
    "bounds_table",
    "cdf",
    "check_feasible",
    "clear_share",
    "d_floor",
    "demand",
    "density",
    "displacement_floor",
    "dump_draws",
    "equal_displacement_curves",
    "gains_from_trade",
    "indicator_cost",
    "inverse_cdf",
    "meets_price_floor",
    "placebo_cost",
    "placebo_cost_matrix",
    "quantile_label",
    "select_bandwidth",
    "select_dstar",
    "solution_as_dict",
    "solve_no_tc",
    "strassen_certificate",
    "supply",
    "to_csv",
    "uniform",
    "value_at",
]


#: Classes that hold, or held, a removed name as an attribute.
HOLDERS = (
    baseline.DidResult,
    equilibrium.MarketSolution,
    equilibrium.WtpCurve,
    estimators.BandwidthScan,
    transport.TransportPlan,
)


def test_all_is_pinned():
    assert sorted(diftrans.__all__) == PUBLIC


def test_every_name_resolves():
    for name in diftrans.__all__:
        assert getattr(diftrans, name) is not None, name


def test_removed_names_are_gone():
    for name in REMOVED:
        for module in (diftrans, baseline, cli, equilibrium, estimators, inference, transport, *HOLDERS):
            assert not hasattr(module, name), (module.__name__, name)
