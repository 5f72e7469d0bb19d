"""The estimators' batched transport costs against the scalar recurrence.

A scan sweeps its pairs (real, control, trends) and its placebo replicates
through the kernel as count columns on the union of their supports, with
zero counts off each distribution's own support, in blocks; the subsample
draws, one column per pair and draw, go through the same sweep.  Each cost
must equal the scalar `ot_cost` bit for bit, each placebo mean the exact
mean of its column rounded once, and each other placebo summary the 1-D
reductions of its column, whatever the supports and whatever the block
size.  Supports here differ per
distribution and overlap only in part, masses include zeros, and bandwidths
run past the combined span.  A scan's grid and an explicit selection floor
take exactly the bandwidths `ot_cost` takes, whatever their type.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diftrans import transport
from diftrans.errors import ValidationError
from diftrans.estimators import PlaceboConfig, bandwidth_scan, diff_in_transports
from diftrans.inference import SubsampleConfig, subsample_ci
from diftrans.pmf import PricePMF
from diftrans.transport import ot_cost

from _oracles import fraction_cost, placebo_summary, replicate_pair, subsample_draw

PROPERTIES = settings(max_examples=60, deadline=None, derandomize=True, database=None)

#: Scratch budgets small enough for one column per block, a few, or all.
BUDGETS = [1, 40, transport.SCRATCH_CELLS]

#: Bandwidths past the combined span, and below it, where placebo costs are nonzero.
bandwidths = st.one_of(st.integers(0, 2500), st.integers(0, 120))
grids = st.lists(bandwidths, min_size=1, max_size=6, unique=True).map(sorted)


@st.composite
def pmfs(draw):
    """A PMF on its own support: up to 8 prices, shifted so that supports of
    different draws overlap in part or not at all, at least 2 units."""
    shift = draw(st.sampled_from([0, 0, 150, 1000]))
    prices = draw(st.lists(st.integers(0, 400), min_size=1, max_size=8, unique=True))
    support = sorted(x + shift for x in prices)
    counts = draw(st.lists(st.integers(0, 9), min_size=len(support), max_size=len(support)))
    if sum(counts) < 2:
        counts[0] += 2
    return PricePMF(support, counts)


@contextmanager
def budget(cells):
    saved = transport.SCRATCH_CELLS
    transport.SCRATCH_CELLS = cells
    try:
        yield
    finally:
        transport.SCRATCH_CELLS = saved


@PROPERTIES
@given(st.lists(pmfs(), min_size=8, max_size=8), grids, st.integers(1, 16), st.booleans())
def test_scan_rows_equal_scalar(dists, grid, n_sims, with_trends):
    pre, post, c_pre, c_post, *diag = dists
    trends = tuple(diag) if with_trends else None
    cfg = PlaceboConfig(n_sims=n_sims, seed=1)
    placebo = [
        [fraction_cost(*replicate_pair(post, pre.n, post.n, cfg.seed, rep), d) for rep in range(n_sims)]
        for d in grid
    ]
    for cells in BUDGETS:
        for control in (None, (c_pre, c_post)):
            with budget(cells):
                scan = bandwidth_scan(pre, post, grid, cfg, control, trends)
            for row, d, col in zip(scan.rows, grid, placebo):
                assert row.real_cost == ot_cost(pre, post, d)
                if control is None:
                    assert row.dit_value is None
                else:
                    assert row.dit_value == diff_in_transports(pre, post, c_pre, c_post, d)
                stats = (row.placebo_mean, row.placebo_sd, row.placebo_quantiles)
                assert stats == placebo_summary(col)
            if trends is None:
                assert scan.trends is None
                continue
            assert len(scan.trends) == len(grid)
            for (d, ca, cb, diff), g in zip(scan.trends, grid):
                assert d == g
                assert ca == ot_cost(diag[0], diag[1], d)
                assert cb == ot_cost(diag[2], diag[3], d)
                assert diff == ca - cb


@PROPERTIES
@given(pmfs(), st.integers(1, 40), st.integers(1, 40), grids, st.integers(1, 9))
def test_placebo_matrix_whatever_the_blocks(base, k_pre, k_post, grid, n_sims):
    # Placebo columns alone: pre and post are `base`'s counts times k_pre and
    # k_post, whose masses are `base.mass` bit for bit.
    cfg = PlaceboConfig(n_sims=n_sims, seed=7)
    pre, post = (PricePMF(base.support, base.counts * k) for k in (k_pre, k_post))
    n_pre, n_post = pre.n, post.n
    scans = []
    for cells in BUDGETS:
        with budget(cells):
            scans.append(bandwidth_scan(pre, post, grid, cfg))
    assert all(scan == scans[0] for scan in scans[1:])
    pairs = [replicate_pair(base, n_pre, n_post, cfg.seed, rep) for rep in range(n_sims)]
    for row in scans[0].rows:
        stats = (row.placebo_mean, row.placebo_sd, row.placebo_quantiles)
        assert stats == placebo_summary([fraction_cost(a, b, row.d) for a, b in pairs])


@PROPERTIES
@given(pmfs(), pmfs(), pmfs(), pmfs(), st.integers(0, 1500), st.booleans())
def test_subsample_draws_whatever_the_blocks(pre, post, c_pre, c_post, d, dit):
    control = (c_pre, c_post) if dit else None
    sides = [pre, post] + list(control or [])
    cfg = SubsampleConfig(n_draws=6, seed=3)
    results = []
    for cells in BUDGETS:
        with budget(cells):
            results.append(subsample_ci(pre, post, d, cfg, control=control))
    for res in results[1:]:
        assert res.point == results[0].point
        assert np.array_equal(res.draws, results[0].draws)

    def scalar(a, b, ca=None, cb=None):
        return ot_cost(a, b, d) if control is None else diff_in_transports(a, b, ca, cb, d)

    assert results[0].point == scalar(*sides)
    for k in range(cfg.n_draws):
        assert results[0].draws[k] == scalar(*subsample_draw(sides, cfg, k))


#: Bandwidths of every type a caller may pass: Python and numpy ints,
#: integral and non-integral floats, and bools; negatives among them.
loose_bandwidths = st.one_of(
    st.integers(-5, 2500),
    st.integers(-5, 2500).map(np.int64),
    st.integers(-5, 2500).map(float),
    st.floats(-5, 2500).filter(lambda x: not x.is_integer()),
    st.booleans(),
    st.booleans().map(np.bool_),
)

#: A pair of small PMFs; whether a bandwidth is taken does not depend on them.
PAIR = (PricePMF([0, 1000], [2, 3]), PricePMF([500, 1500], [1, 4]))


def rejection(d):
    """`ot_cost`'s message rejecting bandwidth `d`, or None where it takes `d`."""
    try:
        ot_cost(*PAIR, d)
    except ValidationError as exc:
        return str(exc)
    return None


@PROPERTIES
@given(st.lists(loose_bandwidths, min_size=1, max_size=4).map(sorted), loose_bandwidths)
def test_scan_and_select_take_what_ot_cost_takes(grid, d_min):
    cfg = PlaceboConfig(n_sims=2)
    messages = [message for message in map(rejection, grid) if message is not None]
    ds = [int(d) for d in grid]
    if messages:
        expected = messages[0]
    elif any(b <= a for a, b in zip(ds, ds[1:])):
        expected = "bandwidth grid must be strictly ascending"
    else:
        expected = None
    if expected is None:
        assert [row.d for row in bandwidth_scan(*PAIR, grid, cfg).rows] == ds
    else:
        with pytest.raises(ValidationError) as exc:
            bandwidth_scan(*PAIR, grid, cfg)
        assert str(exc.value) == expected

    scan = bandwidth_scan(*PAIR, [0, 2500], cfg)
    message = rejection(d_min)
    if message is None:
        floor = scan.select(d_min=d_min).d_min
        assert floor == d_min and type(floor) is int
    else:
        with pytest.raises(ValidationError) as exc:
            scan.select(d_min=d_min)
        assert str(exc.value) == message
