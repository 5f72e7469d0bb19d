"""Thresholded optimal transport estimators for unobserved trade volumes."""

__version__ = "0.1.0"

from .baseline import DidResult, did_ols
from .equilibrium import (
    MarketConfig,
    MarketSolution,
    WtpCurve,
    comparative_statics,
    invert_from_volume,
    invert_shares,
)
from .errors import DiftransError
from .estimators import (
    BandwidthScan,
    PlaceboConfig,
    bandwidth_scan,
    diff_in_transports,
)
from .inference import SubsampleConfig, SubsampleResult, subsample_ci
from .pmf import PeriodFilter, PricePMF, SalesTable, build_pmf, ingest_csv
from .transport import TransportPlan, ot_cost, solve_ot

__all__ = [
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
