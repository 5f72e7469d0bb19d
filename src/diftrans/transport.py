"""Exact optimal transport between price PMFs under a thresholded indicator cost.

Moving mass between prices that differ by at most `d` RMB is free; any longer
move costs its full mass.  The optimal value is therefore one minus the largest
amount of mass that can be matched within distance `d`, a number in [0, 1] read
as the minimum share of units that must have been reallocated.

On sorted one-dimensional supports the free pairs form a convex bipartite
graph: source price `x_i` is compatible with the contiguous window
`[lo_i, hi_i)` of target indices within `d` of it, and both ends of the window
advance monotonically with `i`.  A left-to-right greedy that hands each source
the leftmost target mass still available in its window is then a maximum
matching (Glover 1967).  Correctness is defined by the underlying linear
program; the test suite checks the costs against a dense LP solver and
against Strassen's (1965) dual, by brute force on small instances and by a
scan of its own at any size.

The greedy uses up target mass strictly from left to right, so its whole state
is one number: the level `C`, the cumulative target mass already used up or
passed over.  With `SB[j]` the mass of targets `0..j-1`, source `i` takes
the level `C_{i-1}` before it (`C_0 = 0`) to

    L_i = max(C_{i-1}, SB[lo_i])          # targets left of the window are gone
    C_i = min(L_i + a_i, SB[hi_i])        # take up to a_i of the window's mass

and adds its unmatched part `L_i + a_i - C_i` to the cost, since it must
move far.  Its take `C_i - L_i` is the window's mass left above `L_i`, up to
`a_i`, and is never negative: `L_i <= SB[hi_i]` holds for every `i`.
`SB[lo_i] <= SB[hi_i]`, because `lo_i <= hi_i` and `SB` never decreases;
and `C_{i-1} <= SB[hi_{i-1}] <= SB[hi_i]`, by the second line for source
`i - 1` (or `C_0 = 0`) and because `hi` never decreases in `i`.  So the
clamp at zero of `take = clip(SB[hi_i] - L_i, 0, a_i)` never acts, and the
two lines are that clamped form exactly.

This is the sweep itself, not a relaxation of it.  After any step the targets
whose cumulative interval `[SB[j], SB[j+1])` lies below `C` are exhausted or
lie left of the current window; since `lo` never decreases, no later source can
reach them either, so counting their leftovers as passed over loses nothing.
The target straddling `C` keeps `SB[j+1] - C`, and every target above `C` is
untouched.  Taking the leftmost available mass of the window up to `a_i` is
therefore exactly moving the level from `L_i` up to `C_i`.

Exactness.  The recurrence uses only max, min, add and subtract, so it runs
on integers.  For a pair with `n_a` and `n_b` units it runs on the
numerators `counts_a * n_b` and `counts_b * n_a`, which both total
`n_a * n_b`: every level, take and cost is an exact integer over that common
denominator, and each cost is divided by it once, which gives the float
nearest the exact rational in whatever order the integers were added.  No
prefix sum or numerator passes `n_a * n_b`, so a pair whose product passes
`MAX_SCALE` (2**53) is a `ValidationError` before any window is built, and
below it every numerator fits int64 and converts to float64 exactly; the
sum `L_i + a_i`, at most `2 * MAX_SCALE`, fits int64 too.
`ot_cost` runs the recurrence on Python integers and `_cost_columns` on
int64 arrays, so the two agree exactly, whatever the chunk depth or the
block size; `solve_ot` reads its plan off the same integer levels, rounds
each entry once, and takes its cost from the same numerator as `ot_cost`,
so the plan's cost is `ot_cost`'s.

Zero masses change no numerator, which lets distributions on different
supports share one kernel call on the union of their supports.  A
zero-count target repeats a prefix sum, so every window edge reads the same
value.  A zero-count source takes nothing and adds nothing to the cost; its
`max` with `SB[lo_i]` is absorbed by the next source with units, whose `lo`
is no smaller, or changes the level only after the last one.  (Its second
line gives `C_i = L_i`, since `L_i <= SB[hi_i]`.)

In the kernel, columns `A[:, r]` and `B[:, r]` hold one source and one
target distribution on a shared pair of supports, so the windows depend on
the bandwidth alone, and `C` is an array over bandwidths and columns.
Every estimator (the grid curves, the placebo matrix, the subsample draws)
reads its costs off one sweep, `_sweep`, which is where distributions are
lifted onto the union supports, the windows are found once, and columns are
blocked.  The kernel's scratch grows with its column count (the numerators,
their prefix sums and the bandwidth-by-column state), so `_sweep` cuts the
columns into blocks by one rule, `_blocks`, which keeps each call within
`SCRATCH_CELLS`.  The windows are (source, bandwidth) arrays shared by every
block, so no block size bounds them, nor the (column, bandwidth) costs;
`_sweep` refuses a sweep whose windows or costs would pass `WINDOW_CELLS`
before it builds them.

A drawn column (a placebo replicate or a subsample draw) reaches the sweep
as integer counts and its sample sizes.  The counts are written into the
block as they are, and the whole block is scaled by its columns' sizes in
one ufunc after its last column, where a per-draw product would add a
temporary and a call per column.  A column is written through a slice when
its pair's support is the whole union, the common case, and through an
index array otherwise.

Within a call the kernel pays numpy's per-call overhead per chunk of
sources, not per source.  A chunk holds as many sources as fit
`SCRATCH_CELLS / 32` cells of (bandwidth, column) state, at least one and
at most the call's sources, so a small call allocates no rows it never
reaches.  Two gathers fetch the chunk's `SB[lo_i]` and `SB[hi_i]` into
reused buffers, and one copy repeats each source's numerators `a_i` over
the bandwidths.  Each source then runs the two lines of the recurrence as
three in-place ufuncs on its slices: `maximum` turns its `SB[lo_i]` into
`L_i`, `add` its `a_i` into `L_i + a_i`, and `minimum` its `SB[hi_i]` into
`C_i`, which is the level the next source reads.  One subtraction turns the
chunk's `L_i + a_i` into the unmatched parts, which are added to the cost
one source after another: that is four ufuncs per source, where the clamped
form took six.  On int64 the per-source add was faster than one reduction
over the chunk at `dit --sims 500`, whose chunks hold one or two sources.
The per-source views of the buffers are made once per call, and each chunk
walks a prefix of them.

Every operand of those ufuncs is a whole contiguous (bandwidth, column)
array of the same shape, so numpy runs the (G, R) cells as one flat loop.
At the CLI's sizes a call costs about a microsecond, and a broadcast row or
a scalar operand sends it through numpy's slower general setup
(`np.minimum` at (G, R) = (76, 14): ~2.9 µs against a broadcast row, ~1.2
µs against the repeated values; numpy 2.4, one Xeon core, float64).

The plan is read off the same recurrence.  Source `i` holds the interval
`[L_i, C_i)` of the target's cumulative axis, where `L_i = max(C_{i-1},
SB[lo_i])`, so both ends are known once the level before and after each
source is recorded.  The interval lies inside `[SB[lo_i], SB[hi_i])`, and
its free entries are the overlaps with the target cells `[SB[j], SB[j+1])`.
The unmatched source parts `L_i + a_i - C_i` and the target mass left
uncovered are then paired in sorted order by the same overlap rule over
their own prefix sums; none of those pairs is within `d`, so each costs its
full mass.
A zero-count target is an empty cell, whose empty overlaps are dropped.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .pmf import PricePMF


def _is_integer(value) -> bool:
    """Whether `value` is a Python or numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """Whether `value` is a Python or numpy real number, and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_bandwidth(d) -> int:
    if not _is_integer(d):
        raise ValidationError(f"bandwidth must be an integer number of RMB, got {d!r}")
    if d < 0:
        raise ValidationError(f"bandwidth must be nonnegative, got {d}")
    return int(d)


@dataclass(frozen=True)
class TransportPlan:
    """A sparse coupling: (source index, target index, mass) triples.

    `cost` is `ot_cost`'s: the exact mass moved farther than `d`, rounded
    once; indices refer to `src_support` and `tgt_support`.
    """

    entries: tuple[tuple[int, int, float], ...]
    cost: float
    d: int
    src_support: np.ndarray
    tgt_support: np.ndarray


#: Largest `n_a * n_b` of a pair: every cost numerator is at most it, so
#: each fits int64 and converts to float64 exactly.
MAX_SCALE = 1 << 53

#: Scratch budget of one kernel call, in 8-byte cells (8 MiB).
SCRATCH_CELLS = 1 << 20

#: Most (source, bandwidth) cells in one sweep's windows: 128 MiB for each of
#: `_windows`' int64 arrays (`lo`, `hi` and the temporary that each is found
#: from).  A scan of the paper-scale market (~1,700 sources) over 501
#: bandwidths fills ~5% of it.  It bounds the sweep's (column, bandwidth)
#: int64 costs too.
WINDOW_CELLS = 16 * SCRATCH_CELLS


def _windows(src: np.ndarray, tgt: np.ndarray, grid):
    """Target index bounds [lo, hi) within `d` of each source price, as
    (source, bandwidth) arrays over the checked bandwidths `d` of `grid`.

    No window reaches past the span of the two supports, so each bandwidth
    is clipped to that span before the int64 arithmetic: the windows stay
    the same, and `price + d` cannot wrap however large `d` is.
    """
    top = max(int(src[-1]), int(tgt[-1]))
    span = top - min(int(src[0]), int(tgt[0]))
    d = np.array([min(x, span) for x in grid], dtype=np.int64)
    if top + int(np.max(d)) > np.iinfo(np.int64).max:
        raise ValidationError(f"bandwidth {int(np.max(d))} past price {top} overflows int64")
    lo = np.searchsorted(tgt, np.subtract.outer(src, d), side="left")
    hi = np.searchsorted(tgt, np.add.outer(src, d), side="right")
    return lo, hi


def _prefix(values: np.ndarray) -> np.ndarray:
    """Prefix sums along the first axis from 0: entry j is the sum of rows 0..j-1."""
    out = np.zeros((values.shape[0] + 1,) + values.shape[1:], dtype=values.dtype)
    np.cumsum(values, axis=0, out=out[1:])
    return out


def _scale(a: PricePMF, b: PricePMF) -> int:
    """The common denominator `a.n * b.n` of the pair's costs, at most `MAX_SCALE`."""
    if a.n * b.n > MAX_SCALE:
        raise ValidationError(
            f"transport of {a.n} into {b.n} units: their product passes 2**53, past which costs are not exact"
        )
    return a.n * b.n


def _levels(a: PricePMF, b: PricePMF, d: int):
    """Run the level recurrence for `ot_cost(a, b, d)` on the pair's integer
    numerators (see the module docstring).

    Returns the cost numerator and its denominator, the levels before each
    source and after the last, the prefix sums `SB` and the window starts `lo`.
    """
    scale = _scale(a, b)
    lo, hi = (bound[:, 0] for bound in _windows(a.support, b.support, [d]))
    sb = _prefix(b.counts * a.n)
    level = cost = 0
    levels = [level]
    for ai, passed, reach in zip((a.counts * b.n).tolist(), sb[lo].tolist(), sb[hi].tolist()):
        top = max(level, passed) + ai
        level = min(top, reach)
        cost += top - level
        levels.append(level)
    return cost, scale, levels, sb, lo


def ot_cost(a: PricePMF, b: PricePMF, d) -> float:
    """Minimum mass that must move farther than `d` RMB to turn `a` into `b`.

    This is the exact optimal value of the transportation linear program with
    ground cost 1 when two support points differ by more than `d` and 0
    otherwise, rounded once to a float (see the module docstring).  At d = 0
    it equals the total variation distance.
    """
    cost, scale = _levels(a, b, _check_bandwidth(d))[:2]
    return cost / scale


def _blocks(count: int, k_src: int, k_tgt: int, n_grid: int) -> list[range]:
    """Consecutive ranges covering `count` columns, for kernel calls on
    `k_src` sources, `k_tgt` targets and `n_grid` bandwidths.

    Each column costs `k_src + k_tgt` cells of numerators and prefix sums
    and `3 * n_grid` of recurrence state, so a block holds at most
    `SCRATCH_CELLS // (k_src + k_tgt + 3 * n_grid)` columns, and at least one.
    """
    step = max(1, SCRATCH_CELLS // (k_src + k_tgt + 3 * n_grid))
    return [range(start, min(start + step, count)) for start in range(0, count, step)]


def _cost_columns(lo: np.ndarray, hi: np.ndarray, A: np.ndarray, B: np.ndarray):
    """The cost numerator of int64 column `A[:, r]` into `B[:, r]`, two
    columns of equal total, for every column r and every bandwidth g, as an
    (R, G) int64 array, given the (K_src, G) window bounds `lo` and `hi`
    from `_windows`.

    One pass over the sources runs the level recurrence for every column and
    bandwidth at once, in its two-line form

        L_i = max(C_{i-1}, SB[lo_i]);  C_i = min(L_i + a_i, SB[hi_i])

    with the unmatched part `L_i + a_i - C_i` added to the cost.  It equals
    the clamped form `take = clip(SB[hi_i] - L_i, 0, a_i)` because `L_i <=
    SB[hi_i]` always holds: `lo_i <= hi_i`, `SB` never decreases, `hi`
    never decreases in `i`, and `C_{i-1} <= SB[hi_{i-1}]` (see the module
    docstring).  The sources go in chunks of `depth`: the window sums of a
    chunk are gathered by one call each, its numerators repeated over the
    bandwidths by one copy, and its unmatched parts found by one
    subtraction.  Each source then takes three in-place ufuncs on whole
    contiguous (G, R) operands, which keeps numpy off its slower broadcast
    and scalar paths, and one more to add its unmatched part to the cost.
    """
    sb = _prefix(B)
    level = np.zeros((lo.shape[1], A.shape[1]), dtype=np.int64)
    cost = np.zeros_like(level)
    k_src = A.shape[0]
    depth = max(1, min(k_src, (SCRATCH_CELLS >> 5) // level.size))
    passed_buf = np.empty((depth,) + level.shape, dtype=np.int64)
    reach_buf = np.empty_like(passed_buf)
    top_buf = np.empty_like(passed_buf)
    # Each source's (passed, reach, top) slices, made once; a chunk reads a prefix.
    views = list(zip(passed_buf, reach_buf, top_buf))
    gather, copyto, maximum, minimum = np.take, np.copyto, np.maximum, np.minimum
    subtract, add = np.subtract, np.add
    for start in range(0, k_src, depth):
        stop = min(start + depth, k_src)
        n = stop - start
        reach, top = reach_buf[:n], top_buf[:n]
        # The bounds are in range; "clip" lets `np.take` fill `out` unbuffered.
        gather(sb, lo[start:stop], axis=0, out=passed_buf[:n], mode="clip")
        gather(sb, hi[start:stop], axis=0, out=reach, mode="clip")
        # Each source's numerators repeated over the bandwidths, so that no
        # ufunc below broadcasts a row.
        copyto(top, A[start:stop, None, :])
        chunk = views[:n]
        for passed_i, reach_i, top_i in chunk:
            # L_i = max(C, SB[lo_i]); top = L_i + a_i; C = min(top, SB[hi_i]).
            maximum(level, passed_i, out=passed_i)
            add(passed_i, top_i, top_i)
            level = minimum(top_i, reach_i, out=reach_i)
        # The level is a row of `reach_buf`, which the next chunk overwrites.
        level = level.copy()
        # The unmatched parts top - C, added to the cost in source order.
        subtract(top, reach, top)
        for _, _, top_i in chunk:
            add(cost, top_i, cost)
    return cost.T


def _rows(union: np.ndarray, support: np.ndarray):
    """The rows of `support` in the lifted columns on `union`, which holds
    it: a slice of every row when the two are equal, which numpy writes a
    column through ~3x faster than an index array (numpy 2.4, K = 169 and
    1,681), else the index array."""
    return slice(None) if support.size == union.size else np.searchsorted(union, support)


def _union(supports) -> np.ndarray:
    """The sorted union of sorted, unique int64 `supports`: one sort of their
    concatenation, kept where each value differs from the one before.  It
    equals `np.unique` of the concatenation, which numpy 2.4 finds by
    hashing at ~6x the cost: ~340-470 against ~55-72 µs for 5 supports of
    ~1,700 prices on one Xeon core."""
    merged = np.concatenate(supports)
    merged.sort()
    keep = np.empty(merged.size, dtype=bool)
    keep[:1] = True
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    return merged[keep]


def _sweep(pairs, grid, count=None, column=None):
    """`ot_cost` of column r at each `d` in `grid`, for r < `count` (default
    `len(pairs)`), as a (count, G) int64 array of numerators and a (count,)
    int64 array of their denominators.

    `pairs` holds (source, target) PMFs.  `column(r)` returns
    (i, a, b, n_a, n_b): integer counts `a` on the support of `pairs[i][0]`
    and `b` on that of `pairs[i][1]`, totalling `n_a` and `n_b` (a draw's
    counts and its sizes); by default column r is pair r itself.  No
    column's `n_a * n_b` passes the largest pair's (a placebo replicate has
    the real pair's sizes, a subsample draw smaller ones), so a pair past
    `MAX_SCALE` is a `ValidationError`, raised before anything is built, as
    are windows or costs past `WINDOW_CELLS` cells.  Every column is lifted
    onto the union of the source supports and the union of the target
    supports, each merged by one sort (`_union`), zero off its own, and the
    columns go through the kernel in blocks, one call per block, each
    scaled by its sizes once (see the module docstring).
    """
    pairs = list(pairs)
    if not pairs:
        raise ValidationError("need at least one pair of distributions")
    for a, b in pairs:
        _scale(a, b)
    if count is None:
        count = len(pairs)
    if column is None:
        column = lambda r: (r, pairs[r][0].counts, pairs[r][1].counts, pairs[r][0].n, pairs[r][1].n)
    src = _union([a.support for a, _ in pairs])
    tgt = _union([b.support for _, b in pairs])
    rows_a = [_rows(src, a.support) for a, _ in pairs]
    rows_b = [_rows(tgt, b.support) for _, b in pairs]
    # The windows are (source, bandwidth) arrays, the costs (column, bandwidth).
    for rows, what in [(src.size, "windows of %d source prices"), (count, "costs of %d columns")]:
        if rows * len(grid) > WINDOW_CELLS:
            raise ValidationError(
                f"transport {what % rows} by {len(grid)} bandwidths exceed {WINDOW_CELLS} cells; "
                "use a coarser grid"
            )
    lo, hi = _windows(src, tgt, [_check_bandwidth(d) for d in grid])
    cost = np.empty((count, len(grid)), dtype=np.int64)
    scale = np.empty(count, dtype=np.int64)
    for block in _blocks(count, src.size, tgt.size, len(grid)):
        A = np.zeros((src.size, len(block)), dtype=np.int64)
        B = np.zeros((tgt.size, len(block)), dtype=np.int64)
        n_a, n_b = np.empty((2, len(block)), dtype=np.int64)
        for col, r in enumerate(block):
            i, a, b, n_a[col], n_b[col] = column(r)
            A[rows_a[i], col] = a
            B[rows_b[i], col] = b
        # Both columns of a pair now total n_a * n_b.
        A *= n_b
        B *= n_a
        cost[block.start : block.stop] = _cost_columns(lo, hi, A, B)
        np.multiply(n_a, n_b, out=scale[block.start : block.stop])
    return cost, scale


def _pieces(starts, stops, edges):
    """Overlaps of sorted disjoint intervals `[starts[i], stops[i])` with the
    cells `[edges[j], edges[j + 1])` of a prefix-sum partition.

    Returns arrays (i, j, length) of the overlaps that are not empty.
    """
    first = np.searchsorted(edges[1:], starts, side="right")
    count = np.maximum(np.searchsorted(edges[:-1], stops, side="left") - first, 0)
    i = np.repeat(np.arange(count.size), count)
    j = np.arange(i.size) + np.repeat(first - (np.cumsum(count) - count), count)
    length = np.minimum(stops[i], edges[j + 1]) - np.maximum(starts[i], edges[j])
    keep = length > 0
    return i[keep], j[keep], length[keep]


def solve_ot(a: PricePMF, b: PricePMF, d) -> TransportPlan:
    """An optimal plan for `ot_cost(a, b, d)`; ties between optima are not pinned."""
    d = _check_bandwidth(d)
    cost, scale, levels, sb, lo = _levels(a, b, d)
    level = np.array(levels, dtype=np.int64)
    stop = level[1:]
    start = np.maximum(level[:-1], sb[lo])
    i, j, m = _pieces(start, stop, sb)
    # The unmatched parts: nothing in them is within `d` of each other.
    matched = np.zeros(b.support.size, dtype=np.int64)
    np.add.at(matched, j, m)
    left_a = _prefix(a.counts * b.n - (stop - start))
    far_i, far_j, far_m = _pieces(left_a[:-1], left_a[1:], _prefix(b.counts * a.n - matched))
    i = np.concatenate([i, far_i])
    j = np.concatenate([j, far_j])
    m = np.concatenate([m, far_m]) / scale
    order = np.lexsort((j, i))
    entries = tuple(zip(i[order].tolist(), j[order].tolist(), m[order].tolist()))
    return TransportPlan(entries, cost / scale, d, a.support, b.support)
