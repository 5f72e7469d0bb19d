"""The estimators' batched transport costs against the scalar recurrence.

The grid curves evaluate several pairs in one kernel call on the union of
their supports, with zero mass off each distribution's own support; the
placebo matrix and the subsample draws go through the kernel in blocks of
mass columns.  Each must equal the scalar `ot_cost` bit for bit, whatever
the supports and whatever the block size.  Supports here differ per
distribution and overlap only in part, masses include zeros, and bandwidths
run past the combined span.
"""

from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from diftrans import transport
from diftrans.estimators import (
    PlaceboConfig,
    bandwidth_scan,
    diff_in_transports,
    equal_displacement_curves,
    placebo_cost_matrix,
)
from diftrans.inference import SubsampleConfig, subsample_ci
from diftrans.pmf import PricePMF
from diftrans.transport import ot_cost

from _oracles import replicate_pair, subsample_draw

PROPERTIES = settings(max_examples=60, deadline=None, derandomize=True, database=None)

#: Scratch budgets small enough for one column per block, a few, or all.
BUDGETS = [1, 40, transport.SCRATCH_CELLS]

grids = st.lists(st.integers(0, 2500), min_size=1, max_size=6, unique=True).map(sorted)


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
    return PricePMF.from_counts(support, counts)


@contextmanager
def budget(cells):
    saved = transport.SCRATCH_CELLS
    transport.SCRATCH_CELLS = cells
    try:
        yield
    finally:
        transport.SCRATCH_CELLS = saved


@PROPERTIES
@given(pmfs(), pmfs(), pmfs(), pmfs(), grids)
def test_scan_rows_equal_scalar(pre, post, c_pre, c_post, grid):
    cfg = PlaceboConfig(n_sims=2, seed=1)
    for control in (None, (c_pre, c_post)):
        scan = bandwidth_scan(pre, post, grid, cfg, control=control)
        for row, d in zip(scan.rows, grid):
            assert row.real_cost == ot_cost(pre, post, d)
            if control is None:
                assert row.dit_value is None
            else:
                assert row.dit_value == diff_in_transports(pre, post, c_pre, c_post, d)


@PROPERTIES
@given(pmfs(), pmfs(), pmfs(), pmfs(), grids)
def test_trends_rows_equal_scalar(a_pre, a_post, b_pre, b_post, grid):
    rows = equal_displacement_curves(a_pre, a_post, b_pre, b_post, grid)
    for (d, ca, cb, diff), g in zip(rows, grid):
        assert d == g
        assert ca == ot_cost(a_pre, a_post, d)
        assert cb == ot_cost(b_pre, b_post, d)
        assert diff == ca - cb


@PROPERTIES
@given(pmfs(), st.integers(1, 40), st.integers(1, 40), grids, st.integers(1, 9))
def test_placebo_matrix_whatever_the_blocks(base, n_pre, n_post, grid, n_sims):
    cfg = PlaceboConfig(n_sims=n_sims, seed=7)
    matrices = []
    for cells in BUDGETS:
        with budget(cells):
            matrices.append(placebo_cost_matrix(base, n_pre, n_post, grid, cfg))
    for matrix in matrices[1:]:
        assert np.array_equal(matrix, matrices[0])
    for rep in range(n_sims):
        pre, post = replicate_pair(base, n_pre, n_post, cfg.seed, rep)
        assert matrices[0][rep].tolist() == [ot_cost(pre, post, d) for d in grid]


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
