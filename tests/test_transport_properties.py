"""Properties of the transport kernel on random supports.

Supports are small sorted price sets, masses come from integer counts with
zeros allowed, target supports are drawn independently, equal to the source
or shifted past it (disjoint), and bandwidths run past the combined span.
The scalar recurrence and the column sweep compute each cost exactly and
round it once, so both must equal the `Fraction` recurrence; the LP, the
plan's entries and the dual scan sum floats, so they get the looser
tolerance.  At paper scale (supports of up to ~2,000 prices) the dual scan
is the oracle.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diftrans import transport
from diftrans.errors import ValidationError
from diftrans.pmf import PricePMF
from diftrans.transport import _sweep, ot_cost, solve_ot

from _oracles import (
    check_feasible,
    fraction_cost,
    indicator_cost,
    lp_transport_cost,
    per_source_cost_columns,
    set_value,
    sparse_counts,
    strassen_certificate,
)

BATCH_TOL = 1e-14
ORACLE_TOL = 1e-12
#: Rounding allowance for comparisons between costs of different instances.
ROUNDING_TOL = 1e-14

PROPERTIES = settings(max_examples=100, deadline=None, derandomize=True, database=None)

supports = st.lists(st.integers(0, 300), min_size=1, max_size=7, unique=True).map(sorted)
bandwidths = st.integers(0, 1500)

#: The bench's fine market: every price from 20,000 to 188,000 RMB in steps of 100.
FINE_LATTICE = np.arange(20_000, 188_001, 100)


def sweep_costs(*args):
    """`_sweep`'s costs: its numerators over their denominators."""
    cost, scale = _sweep(*args)
    return cost / scale[:, None]


def counts_on(support):
    return st.lists(
        st.integers(0, 9), min_size=len(support), max_size=len(support)
    ).map(lambda counts: counts if any(counts) else [1] + counts[1:])


@st.composite
def pmfs_on(draw, support):
    return PricePMF(support, draw(counts_on(support)))


@st.composite
def support_pairs(draw):
    src = draw(supports)
    kind = draw(st.sampled_from(["independent", "same", "disjoint"]))
    if kind == "same":
        return src, src
    if kind == "disjoint":
        return src, [x + 2000 for x in draw(supports)]
    return src, draw(supports)


@st.composite
def instances(draw):
    src, tgt = draw(support_pairs())
    return draw(pmfs_on(src)), draw(pmfs_on(tgt)), draw(bandwidths)


@PROPERTIES
@given(st.data())
def test_batch_equals_scalar(data):
    # Each pair on its own supports; then columns that each pick a pair and
    # draw new masses on its supports.
    pairs = []
    for _ in range(data.draw(st.integers(1, 4))):
        src, tgt = data.draw(support_pairs())
        pairs.append((data.draw(pmfs_on(src)), data.draw(pmfs_on(tgt))))
    grid = data.draw(st.lists(bandwidths, min_size=1, max_size=6))
    columns = []
    for _ in range(data.draw(st.integers(1, 4))):
        i = data.draw(st.integers(0, len(pairs) - 1))
        a, b = (data.draw(pmfs_on(p.support.tolist())) for p in pairs[i])
        columns.append((i, a, b))

    def column(r):
        i, a, b = columns[r]
        return i, a.counts, b.counts, a.n, b.n

    batch = sweep_costs(pairs, grid)
    picked = sweep_costs(pairs, grid, len(columns), column)
    assert batch.shape == (len(pairs), len(grid))
    assert picked.shape == (len(columns), len(grid))
    expected = pairs + [(a, b) for _, a, b in columns]
    for costs, (a, b) in zip(np.concatenate([batch, picked]), expected):
        for cost, d in zip(costs, grid):
            assert abs(cost - ot_cost(a, b, d)) <= BATCH_TOL


@PROPERTIES
@given(st.data())
def test_costs_equal_fraction_recurrence(data):
    # Every cost of `ot_cost` and of one sweep over several pairs, on shared
    # union supports, is the exact rational cost rounded once, and every
    # sweep numerator is that rational times its denominator.
    pairs = []
    for _ in range(data.draw(st.integers(1, 3))):
        src, tgt = data.draw(support_pairs())
        pairs.append((data.draw(pmfs_on(src)), data.draw(pmfs_on(tgt))))
    grid = data.draw(st.lists(bandwidths, min_size=1, max_size=4, unique=True).map(sorted))
    cost, scale = _sweep(pairs, grid)
    for (a, b), numerators, denominator in zip(pairs, cost.tolist(), scale.tolist()):
        assert denominator == a.n * b.n
        for numerator, d in zip(numerators, grid):
            exact = fraction_cost(a, b, d)
            assert numerator == exact * denominator
            assert ot_cost(a, b, d) == float(exact) == numerator / denominator


def test_scale_past_two_to_the_53_fails_before_the_windows(monkeypatch):
    # 2**27 units into 2**26 totals 2**53, every numerator exact; one unit
    # more on the target side passes it, in `ot_cost`, `solve_ot` and in a
    # sweep whose first pair is within the limit.
    a = PricePMF([5], [2**27])
    b, big = PricePMF([7], [2**26]), PricePMF([7], [2**26 + 1])
    assert ot_cost(a, b, 1) == 1.0 and sweep_costs([(a, b)], [2]).tolist() == [[0.0]]
    assert solve_ot(a, b, 2).entries == ((0, 0, 1.0),)
    monkeypatch.setattr(transport, "_windows", lambda *args: pytest.fail("windows built"))
    for call in (ot_cost, solve_ot, lambda a, b, d: _sweep([(b, b), (a, b)], [d])):
        with pytest.raises(ValidationError, match="product passes 2\\*\\*53"):
            call(a, big, 2)


@st.composite
def lifted_columns(draw):
    """Windows and columns as `_sweep` hands them to the kernel: sorted
    supports of up to a few hundred prices, zero-count rows (prices no column
    uses), zero columns, and each column's counts times the other side's
    total, so that the two columns of a pair total alike."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k_src, k_tgt = draw(st.integers(1, 300)), draw(st.integers(1, 300))
    src = np.sort(rng.choice(5_000, size=k_src, replace=False))
    tgt = np.sort(rng.choice(5_000, size=k_tgt, replace=False)) + draw(st.sampled_from([0, 2_500]))
    grid = np.array(draw(st.lists(st.integers(0, 8_000), min_size=1, max_size=6)))
    lo, hi = transport._windows(src, tgt, grid)
    n_cols = draw(st.integers(1, 8))
    counts = []
    for k in (k_src, k_tgt):
        drawn = rng.integers(0, 50, size=(k, n_cols)) * (rng.random((k, 1)) >= 0.3)
        drawn[:, rng.random(n_cols) < 0.2] = 0
        counts.append(drawn)
    return lo, hi, *scaled(*counts)


def scaled(counts_a, counts_b):
    """Count columns as the kernel takes them: each times the other's total."""
    return counts_a * counts_b.sum(axis=0), counts_b * counts_a.sum(axis=0)


@PROPERTIES
@given(lifted_columns(), st.data())
def test_chunked_kernel_equals_per_source_loop(columns, data):
    # The chunk depth is (SCRATCH_CELLS >> 5) // (G * R): one source per
    # chunk, a depth that leaves a short last chunk, and the default.
    lo, hi, A, B = columns
    expected = per_source_cost_columns(lo, hi, A, B)
    cells = lo.shape[1] * A.shape[1]
    k = lo.shape[0]
    ragged = data.draw(st.sampled_from([c for c in range(2, k) if k % c] or [2]))
    for scratch in (1, (ragged * cells) << 5, transport.SCRATCH_CELLS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(transport, "SCRATCH_CELLS", scratch)
            assert np.array_equal(transport._cost_columns(lo, hi, A, B), expected)


#: (bandwidths, columns) of the kernel calls the CLI makes on the bench's
#: markets: `dit --sims 10` on the 51-point grid and its doubles, `ci` with
#: 200 draws at one bandwidth, and `ci --estimator dit` at `d` and `2d`.
CLI_GRIDS = {
    (76, 14): sorted(set(range(0, 50_001, 1000)) | set(range(0, 100_001, 2000))),
    (1, 201): [5000],
    (2, 402): [5000, 10_000],
}


@pytest.mark.parametrize("shape", sorted(CLI_GRIDS))
def test_chunked_kernel_at_cli_shapes(shape):
    # The hypothesis property above reaches only small supports and few
    # cells; here the supports are the fine market's, K ~ 1,700, with
    # zero-mass rows and a zero-mass column.
    grid = CLI_GRIDS[shape]
    assert (len(grid), shape[1]) == shape
    rng = np.random.default_rng(sum(shape))
    src, tgt = FINE_LATTICE, np.arange(20_000, 193_001, 100)
    lo, hi = transport._windows(src, tgt, grid)
    A, B = (
        rng.integers(0, 50, size=(k, shape[1])) * (rng.random((k, 1)) >= 0.3)
        for k in (src.size, tgt.size)
    )
    A[:, -1] = 0
    A, B = scaled(A, B)
    before = A.copy(), B.copy()
    got = transport._cost_columns(lo, hi, A, B)
    assert np.array_equal(got, per_source_cost_columns(lo, hi, A, B))
    assert np.array_equal(A, before[0]) and np.array_equal(B, before[1])
    assert 0.0 < (got / np.maximum(A.sum(axis=0), 1)[:, None]).max() < 1.0


def test_chunk_depth_is_capped_at_the_source_count():
    # At (G, R) = (2, 3) one chunk could hold 5,461 sources, whose three
    # buffers would take ~786 KB; a call on 50 sources allocates buffers of
    # 50 rows, under 8 KB, and a list of their per-source views.
    rng = np.random.default_rng(0)
    src = np.arange(0, 5_000, 100)
    lo, hi = transport._windows(src, src, [0, 300])
    A, B = scaled(*rng.integers(1, 50, size=(2, src.size, 3)))
    assert (transport.SCRATCH_CELLS >> 5) // 6 > src.size
    tracemalloc.start()
    try:
        got = transport._cost_columns(lo, hi, A, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, per_source_cost_columns(lo, hi, A, B))
    assert peak < 100_000


@st.composite
def support_sets(draw):
    """One to six sorted, unique int64 supports, each a copy of the first,
    an independent draw that may overlap it, a draw shifted past every other
    (disjoint), or one price."""
    first = draw(supports)
    sets = []
    for k in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["identical", "overlapping", "disjoint", "one"]))
        if kind == "identical":
            support = first
        elif kind == "overlapping":
            support = draw(supports)
        elif kind == "disjoint":
            support = [x + 1_000 * (k + 1) for x in draw(supports)]
        else:
            support = [draw(st.integers(0, 300))]
        sets.append(np.array(support, dtype=np.int64))
    return sets


@PROPERTIES
@given(support_sets())
def test_union_equals_unique_of_concatenation(sets):
    got = transport._union(sets)
    want = np.unique(np.concatenate(sets))
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def assert_optimal_plan(a, b, d):
    """`solve_ot(a, b, d)` is feasible, has no empty entries, and attains `ot_cost`.

    The far entries pair only mass that no free move could take: no source
    that sends mass far is within `d` of a target that receives mass from far.
    The plan's cost is `ot_cost`'s exactly, and its far entries, each rounded
    once, sum to it within one rounding per entry.
    """
    plan = solve_ot(a, b, d)
    check_feasible(plan, a, b)
    i, j, m = (np.array(column) for column in zip(*plan.entries))
    assert m.min() > 0.0
    src, tgt = a.support[i], b.support[j]
    near = np.abs(src - tgt) <= d
    gaps = np.abs(np.unique(src[~near])[:, None] - np.unique(tgt[~near])[None, :])
    assert not np.any(gaps <= d)
    assert plan.cost == ot_cost(a, b, d)
    assert abs(indicator_cost(plan) - plan.cost) <= len(plan.entries) * 2**-52


@PROPERTIES
@given(instances())
def test_matches_lp_and_greedy_plan(instance):
    a, b, d = instance
    cost = ot_cost(a, b, d)
    assert 0.0 <= cost <= 1.0
    assert abs(cost - lp_transport_cost(a, b, d)) <= ORACLE_TOL
    assert_optimal_plan(a, b, d)


@pytest.mark.parametrize("d", [0, 100, 2_500, 200_000])
def test_plan_at_paper_scale(d):
    rng = np.random.default_rng(d)
    a = PricePMF(FINE_LATTICE, sparse_counts(rng, FINE_LATTICE.size, 0.3))
    b = PricePMF(FINE_LATTICE + 300, sparse_counts(rng, FINE_LATTICE.size, 0.3))
    assert_optimal_plan(a, b, d)


@st.composite
def paper_scale_instances(draw):
    """Up to ~2,000 prices per side, drawn by a seeded generator: a subset of
    the fine lattice (the target shifted by whole steps) or scattered prices,
    a share of zero masses, and a bandwidth up to past the combined span."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    on_lattice = draw(st.booleans())
    zero_share = draw(st.sampled_from([0.0, 0.3, 0.9]))
    pmfs = []
    for shift in (0, 100 * draw(st.integers(-20, 20))):
        k = draw(st.one_of(st.integers(1, 2_000), st.integers(1_500, 2_000)))
        if on_lattice:
            k = min(k, FINE_LATTICE.size)
            support = np.sort(rng.choice(FINE_LATTICE, size=k, replace=False)) + shift
        else:
            support = np.sort(rng.choice(200_000, size=k, replace=False))
        pmfs.append(PricePMF(support, sparse_counts(rng, k, zero_share)))
    d = draw(st.one_of(st.integers(0, 3_000), st.integers(0, 250_000)))
    return pmfs[0], pmfs[1], d


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(paper_scale_instances())
def test_dual_scan_at_paper_scale(instance):
    a, b, d = instance
    chosen, value = strassen_certificate(a, b, d)
    assert abs(ot_cost(a, b, d) - value) <= ORACLE_TOL
    assert abs(sweep_costs([(a, b)], [d])[0, 0] - value) <= ORACLE_TOL
    assert abs(set_value(a, b, d, chosen) - value) <= ORACLE_TOL


@PROPERTIES
@given(instances(), bandwidths)
def test_nonincreasing_in_d(instance, extra):
    a, b, d = instance
    assert ot_cost(a, b, d + extra) <= ot_cost(a, b, d) + ROUNDING_TOL


@PROPERTIES
@given(instances())
def test_symmetric(instance):
    a, b, d = instance
    assert abs(ot_cost(a, b, d) - ot_cost(b, a, d)) <= ROUNDING_TOL


@PROPERTIES
@given(instances(), st.integers(0, 10**7))
def test_price_shift_invariant(instance, shift):
    a, b, d = instance
    moved = [PricePMF(p.support + shift, p.counts) for p in (a, b)]
    assert ot_cost(*moved, d) == ot_cost(a, b, d)


@PROPERTIES
@given(instances())
def test_free_beyond_span(instance):
    a, b, _ = instance
    span = max(a.support[-1], b.support[-1]) - min(a.support[0], b.support[0])
    assert ot_cost(a, b, int(span)) == 0.0
    assert sweep_costs([(a, b)], [int(span), int(span) + 1]).tolist() == [[0.0, 0.0]]


def test_batch_rejects_bad_shapes_and_bandwidths():
    p = PricePMF([1, 2], [1, 1])
    with pytest.raises(ValidationError):
        _sweep([], [0])
    for bad in (-1, 0.5, True):
        with pytest.raises(ValidationError):
            _sweep([(p, p)], [0, bad])


def test_sweep_caps_window_cells(monkeypatch):
    # The (source, bandwidth) windows are refused past WINDOW_CELLS before
    # `_windows` builds them, and admitted up to it.
    p = PricePMF([1, 2, 3], [1, 1, 1])
    monkeypatch.setattr(transport, "WINDOW_CELLS", 6)
    assert sweep_costs([(p, p)], [0, 1]).shape == (1, 2)
    built = []
    monkeypatch.setattr(transport, "_windows", lambda *args: built.append(args))
    with pytest.raises(ValidationError, match="3 source prices by 3 bandwidths exceed 6 cells"):
        _sweep([(p, p)], [0, 1, 2])
    assert built == []


def test_sweep_caps_cost_cells(monkeypatch):
    # The (column, bandwidth) costs are refused past WINDOW_CELLS before
    # they are allocated, and admitted up to it.
    p = PricePMF([1, 2], [1, 1])
    column = lambda r: (0, p.counts, p.counts, p.n, p.n)
    with pytest.raises(ValidationError, match="costs of 10000000000000 columns by 2 bandwidths"):
        _sweep([(p, p)], [0, 1], 10**13, column)
    monkeypatch.setattr(transport, "WINDOW_CELLS", 6)
    assert sweep_costs([(p, p)], [0, 1], 3, column).shape == (3, 2)
    with pytest.raises(ValidationError, match="costs of 4 columns by 2 bandwidths exceed 6 cells"):
        _sweep([(p, p)], [0, 1], 4, column)


def test_window_cap_admits_paper_scale_scans():
    # `dit --d-grid 0:50000:100` on the paper-scale market (~1,700 source
    # prices), whose sweep adds the doubled bandwidths, stays inside the cap;
    # the synthetic test market's 169 prices at the CLI's longest grid
    # (`SCRATCH_CELLS // 3` bandwidths) do not.
    grid = range(0, 50_001, 100)
    doubled = set(grid) | {2 * d for d in grid}
    assert 1_736 * len(doubled) <= transport.WINDOW_CELLS < 169 * (transport.SCRATCH_CELLS // 3)
