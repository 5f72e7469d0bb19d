"""The public surface of the package, pinned name by name."""

import diftrans
from diftrans import equilibrium, estimators

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
    "bounds_table",
    "build_pmf",
    "comparative_statics",
    "demand",
    "did_ols",
    "diff_in_transports",
    "displacement_floor",
    "ingest_csv",
    "invert_from_volume",
    "invert_shares",
    "ot_cost",
    "select_dstar",
    "solve_no_tc",
    "solve_ot",
    "strassen_certificate",
    "subsample_ci",
    "supply",
]

#: Names made redundant; none may come back through a stale re-export.
REMOVED = [
    "before_after",
    "d_floor",
    "equal_displacement_curves",
    "gains_from_trade",
    "placebo_cost",
    "placebo_cost_matrix",
    "quantile_label",
    "select_bandwidth",
]


def test_all_is_pinned():
    assert sorted(diftrans.__all__) == PUBLIC


def test_every_name_resolves():
    for name in diftrans.__all__:
        assert getattr(diftrans, name) is not None, name


def test_removed_names_are_gone():
    for name in REMOVED:
        for module in (diftrans, equilibrium, estimators):
            assert not hasattr(module, name), (module.__name__, name)
