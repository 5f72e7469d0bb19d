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
program; the test suite checks the costs against a dense LP solver and against
the dual set certificate on random instances.

The greedy uses up target mass strictly from left to right, so its whole state
is one number: the level `C`, the cumulative target mass already used up or
passed over.  With `SB[j]` the mass of targets `0..j-1`, source `i` runs

    C = max(C, SB[lo_i])                  # targets left of the window are gone
    take = clip(SB[hi_i] - C, 0, a_i)     # mass left in the window, up to a_i
    C += take
    cost += a_i - take                    # the unmatched part must move far

This is the sweep itself, not a relaxation of it.  After any step the targets
whose cumulative interval `[SB[j], SB[j+1])` lies below `C` are exhausted or
lie left of the current window; since `lo` never decreases, no later source can
reach them either, so counting their leftovers as passed over loses nothing.
The target straddling `C` keeps `SB[j+1] - C`, and every target above `C` is
untouched.  Taking the leftmost available mass of the window up to `a_i` is
therefore exactly moving `C` up by `take`.  `ot_cost` runs the recurrence in
plain floats; `ot_cost_batch` runs the same operations in the same order with
`C` an array over replicates and bandwidths, which share the windows whenever
the replicates share their supports.  Both give bit-identical costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificateSizeError, ValidationError
from .pmf import PricePMF

#: Feasibility tolerance for plan marginals.
MARGINAL_TOL = 1e-10


def _check_bandwidth(d) -> int:
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)):
        raise ValidationError(f"bandwidth must be an integer number of RMB, got {d!r}")
    if d < 0:
        raise ValidationError(f"bandwidth must be nonnegative, got {d}")
    return int(d)


@dataclass(frozen=True)
class TransportPlan:
    """A sparse coupling: (source index, target index, mass) triples.

    `cost` is the total mass moved farther than `d`; indices refer to
    `src_support` and `tgt_support`.
    """

    entries: tuple[tuple[int, int, float], ...]
    cost: float
    d: int
    src_support: np.ndarray
    tgt_support: np.ndarray

    def indicator_cost(self) -> float:
        return math.fsum(
            m
            for i, j, m in self.entries
            if abs(int(self.src_support[i]) - int(self.tgt_support[j])) > self.d
        )

    def distance_cost(self) -> float:
        return math.fsum(
            m * abs(int(self.src_support[i]) - int(self.tgt_support[j]))
            for i, j, m in self.entries
        )

    def check_feasible(self, a: PricePMF, b: PricePMF, tol: float = MARGINAL_TOL) -> None:
        """Raise if the plan's marginals deviate from (a, b) beyond `tol`."""
        row = np.zeros(a.support.size)
        col = np.zeros(b.support.size)
        for i, j, m in self.entries:
            if m <= 0:
                raise ValidationError("nonpositive plan entry")
            row[i] += m
            col[j] += m
        if np.max(np.abs(row - a.mass)) > tol:
            raise ValidationError("plan row sums deviate from source marginal")
        if np.max(np.abs(col - b.mass)) > tol:
            raise ValidationError("plan column sums deviate from target marginal")

    def to_csv(self, fh) -> None:
        fh.write("i,j,x_i,x_j,mass\n")
        for i, j, m in self.entries:
            fh.write(f"{i},{j},{int(self.src_support[i])},{int(self.tgt_support[j])},{m!r}\n")


def _sweep(a: PricePMF, b: PricePMF, d: int):
    """Greedy maximal within-`d` matching on sorted supports, with its plan.

    Returns (free entries, residual source leftovers, residual targets).
    A source keeps a leftover only when every target in its window is already
    exhausted, and windows only advance, so no residual source/target pair can
    be within `d` of each other.
    """
    xa = a.support.tolist()
    ma = a.mass.tolist()
    xb = b.support.tolist()
    mb = b.mass.tolist()
    rem = mb[:]
    nb = len(xb)
    entries = []
    leftovers = []
    j = 0
    for i, (x, ai) in enumerate(zip(xa, ma)):
        if ai <= 0.0:
            continue
        lo = x - d
        hi = x + d
        while j < nb and (xb[j] < lo or rem[j] <= 0.0):
            j += 1
        k = j
        while ai > 0.0 and k < nb and xb[k] <= hi:
            take = ai if ai < rem[k] else rem[k]
            if take > 0.0:
                ai -= take
                rem[k] -= take
                entries.append((i, k, take))
            if rem[k] <= 0.0:
                k += 1
            else:
                break
        if ai > 0.0:
            leftovers.append((i, ai))
    residual_b = [(k, r) for k, r in enumerate(rem) if r > 0.0]
    return entries, leftovers, residual_b


#: Costs below this are indistinguishable from rounding in the marginals.
ZERO_COST = 1e-12

#: Replicates per block of `ot_cost_batch`; bounds its scratch memory.
BATCH_BLOCK = 64


def _windows(src: np.ndarray, tgt: np.ndarray, d):
    """Target index bounds [lo, hi) within `d` of each source price.

    `d` is one bandwidth, or an array of them that adds a trailing axis.
    """
    lo = np.searchsorted(tgt, np.subtract.outer(src, d), side="left")
    hi = np.searchsorted(tgt, np.add.outer(src, d), side="right")
    return lo, hi


def _prefix(mass: np.ndarray) -> np.ndarray:
    """Prefix sums along the first axis from 0: entry j is the mass of rows 0..j-1."""
    out = np.zeros((mass.shape[0] + 1,) + mass.shape[1:])
    np.cumsum(mass, axis=0, out=out[1:])
    return out


def ot_cost(a: PricePMF, b: PricePMF, d) -> float:
    """Minimum mass that must move farther than `d` RMB to turn `a` into `b`.

    This is the exact optimal value of the transportation linear program with
    ground cost 1 when two support points differ by more than `d` and 0
    otherwise.  At d = 0 it equals the total variation distance.  Values below
    the PMF normalization tolerance are indistinguishable from rounding in the
    marginals and report as exactly zero; the result is clamped into [0, 1].
    """
    d = _check_bandwidth(d)
    lo, hi = _windows(a.support, b.support, d)
    sb = _prefix(b.mass)
    level = cost = 0.0
    for ai, passed, reach in zip(a.mass.tolist(), sb[lo].tolist(), sb[hi].tolist()):
        if ai <= 0.0:
            continue
        if level < passed:
            level = passed
        take = reach - level
        if take < 0.0:
            take = 0.0
        elif take > ai:
            take = ai
        level += take
        cost += ai - take
    if cost < ZERO_COST:
        return 0.0
    return min(cost, 1.0)


def _shared_support(pmfs, role: str) -> np.ndarray:
    support = pmfs[0].support
    for p in pmfs[1:]:
        if not np.array_equal(p.support, support):
            raise ValidationError(f"every {role} distribution must share one support")
    return support


def ot_cost_batch(pres, posts, grid) -> np.ndarray:
    """`ot_cost(pres[r], posts[r], grid[g])` for every replicate r and bandwidth g.

    Every `pres[r]` shares one support and every `posts[r]` another, so the
    windows depend on the bandwidth alone and one pass over the sources runs
    the level recurrence for all replicates and bandwidths at once.  Replicates
    go through in blocks of `BATCH_BLOCK`, so scratch memory is
    O(K * len(grid) + BATCH_BLOCK * K) however many replicates there are.
    Returns an array of shape (len(pres), len(grid)), equal to the scalar costs.
    """
    pres = list(pres)
    posts = list(posts)
    if not pres or len(pres) != len(posts):
        raise ValidationError("need equally many source and target distributions, at least one")
    ds = np.array([_check_bandwidth(d) for d in grid], dtype=np.int64)
    lo, hi = _windows(
        _shared_support(pres, "source"), _shared_support(posts, "target"), ds
    )
    out = np.empty((len(pres), ds.size))
    for start in range(0, len(pres), BATCH_BLOCK):
        stop = min(start + BATCH_BLOCK, len(pres))
        a = np.stack([p.mass for p in pres[start:stop]], axis=1)
        sb = _prefix(np.stack([p.mass for p in posts[start:stop]], axis=1))
        level = np.zeros((ds.size, stop - start))
        cost = np.zeros_like(level)
        take = np.empty_like(level)
        for ai, lo_i, hi_i in zip(a, lo, hi):
            np.maximum(level, sb[lo_i], out=level)
            np.subtract(sb[hi_i], level, out=take)
            np.maximum(take, 0.0, out=take)
            np.minimum(take, ai, out=take)
            level += take
            np.subtract(ai, take, out=take)
            cost += take
        out[start:stop] = cost.T
    out[out < ZERO_COST] = 0.0
    return np.minimum(out, 1.0, out=out)


def solve_ot(a: PricePMF, b: PricePMF, d) -> TransportPlan:
    """An optimal plan for `ot_cost(a, b, d)`; ties between optima are not pinned."""
    d = _check_bandwidth(d)
    entries, leftovers, residual_b = _sweep(a, b, d)
    # Route residual mass pairwise in sorted order; every such entry costs 1.
    li = 0
    for j, need in residual_b:
        while need > 1e-18 and li < len(leftovers):
            i, avail = leftovers[li]
            take = avail if avail < need else need
            entries.append((i, j, take))
            need -= take
            avail -= take
            if avail <= 1e-18:
                li += 1
            else:
                leftovers[li] = (i, avail)
    entries.sort(key=lambda e: (e[0], e[1]))
    plan = TransportPlan(tuple(entries), 0.0, d, a.support, b.support)
    object.__setattr__(plan, "cost", plan.indicator_cost())
    return plan


def solve_ot_regularized(a: PricePMF, b: PricePMF, d, lam: float = 0.01) -> TransportPlan:
    """Optimal plan under the tie-breaking cost `1(|dx| > d) + lam * |dx|`.

    With `lam * span < 1` the distance term cannot buy a cheaper indicator
    component, so the plan still attains `ot_cost(a, b, d)` while preferring
    the shortest crossings; that regime is asserted.  Solved as a dense
    transportation LP, so intended for moderate support sizes.
    """
    d = _check_bandwidth(d)
    if lam < 0:
        raise ValidationError(f"lambda must be nonnegative, got {lam}")
    if lam == 0.0:
        return solve_ot(a, b, d)

    from scipy import sparse
    from scipy.optimize import linprog

    xa = a.support.astype(np.int64)
    xb = b.support.astype(np.int64)
    na, nb = xa.size, xb.size
    dist = np.abs(xa[:, None] - xb[None, :]).astype(np.float64)
    cost = (dist > d).astype(np.float64) + lam * dist

    rows = []
    cols = []
    for i in range(na):
        rows.append(np.full(nb, i))
        cols.append(np.arange(i * nb, (i + 1) * nb))
    for j in range(nb):
        rows.append(np.full(na, na + j))
        cols.append(np.arange(j, na * nb, nb))
    A = sparse.csr_matrix(
        (np.ones(2 * na * nb), (np.concatenate(rows), np.concatenate(cols))),
        shape=(na + nb, na * nb),
    )
    rhs = np.concatenate([a.mass, b.mass])
    res = linprog(
        cost.ravel(),
        A_eq=A,
        b_eq=rhs,
        bounds=(0, None),
        method="highs",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    if not res.success:
        raise RuntimeError(f"regularized transport LP failed: {res.message}")
    gamma = res.x.reshape(na, nb)
    entries = tuple(
        (int(i), int(j), float(gamma[i, j]))
        for i, j in zip(*np.nonzero(gamma > 1e-12))
    )
    plan = TransportPlan(entries, 0.0, d, a.support, b.support)
    object.__setattr__(plan, "cost", plan.indicator_cost())

    span = int(max(xa[-1], xb[-1]) - min(xa[0], xb[0]))
    if lam * span < 1.0:
        base = ot_cost(a, b, d)
        if abs(plan.cost - base) > 1e-8:
            raise RuntimeError(
                "regularized plan broke the indicator optimum below the "
                f"lambda breakpoint: {plan.cost!r} vs {base!r}"
            )
    return plan


def strassen_certificate(
    a: PricePMF,
    b: PricePMF,
    d,
    subsets=None,
) -> tuple[set[int], float]:
    """Dual set certificate: max over A of a(A) - b(A^d).

    `A^d` enlarges a set of source prices by `d` inside the target support.
    By strong duality on finite spaces the maximum equals `ot_cost(a, b, d)`,
    which makes this an arithmetic-independent check on the solver.  The
    search enumerates all subsets of the source support, so the combined
    support size is capped; pass explicit `subsets` (iterables of source
    indices) to evaluate a heuristic family instead.
    """
    d = _check_bandwidth(d)
    na = int(a.support.size)
    nb = int(b.support.size)

    lo, hi = _windows(a.support, b.support, d)

    if subsets is not None:
        best_val = 0.0
        best_set: set[int] = set()
        for subset in subsets:
            idx = sorted(set(subset))
            if any(i < 0 or i >= na for i in idx):
                raise ValidationError("subset index out of range")
            covered = np.zeros(nb, dtype=bool)
            for i in idx:
                covered[lo[i] : hi[i]] = True
            val = float(a.mass[idx].sum() - b.mass[covered].sum())
            if val > best_val:
                best_val = val
                best_set = set(idx)
        return best_set, best_val

    if na + nb > 24:
        raise CertificateSizeError(
            f"combined support size {na + nb} exceeds 24; "
            "pass explicit subsets for a heuristic certificate"
        )

    n_sets = 1 << na
    # a(A) for every subset via the standard subset-sum doubling trick.
    a_sums = np.zeros(n_sets)
    for i in range(na):
        block = a_sums.reshape(-1, 2 << i)
        block[:, (1 << i) :] += a.mass[i]
    # b(A^d): target j is covered iff A meets the contiguous source range
    # within d of x_j; test all subsets against that range's bitmask at once.
    s_arr = np.arange(n_sets, dtype=np.uint32)
    b_sums = np.zeros(n_sets)
    src_lo = np.searchsorted(a.support, b.support - d, side="left")
    src_hi = np.searchsorted(a.support, b.support + d, side="right")
    for j in range(nb):
        if src_hi[j] <= src_lo[j]:
            continue
        mask = np.uint32(((1 << int(src_hi[j])) - 1) ^ ((1 << int(src_lo[j])) - 1))
        b_sums += b.mass[j] * ((s_arr & mask) != 0)
    values = a_sums - b_sums
    best = int(np.argmax(values))
    best_set = {i for i in range(na) if best >> i & 1}
    return best_set, float(values[best])
