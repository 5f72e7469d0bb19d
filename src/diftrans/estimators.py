"""Trade-volume estimators built on thresholded transport costs.

The before-and-after estimator reads the displacement between a pre- and a
post-rationing sales distribution as a lower bound on the share of rationed
licenses that changed hands.  The difference-in-transports estimator nets out
a control city's displacement; over-smoothing the treated term with `2d` keeps
the difference a valid in-sample lower bound for every bandwidth.

`bandwidth_scan` computes both over a bandwidth grid, with the placebo
summaries and the equal-displacement (trends) curves, and the bandwidth is
read off the scan: `BandwidthScan.select` is the noise floor, the smallest `d`
at which pure sampling noise produces a negligible apparent displacement;
`displacement_floor` is the trends floor; `select_dstar` picks the most
informative bandwidth at or above both.

Every transport cost of a scan comes from one `transport._sweep`: its pairs
and placebo replicates are the mass columns of one kernel pass per block,
lifted with zero masses onto shared supports, which leaves each cost bit for
bit `ot_cost`'s.  The composition correction is a sweep over its pair alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IdentificationError, SelectionError, ValidationError
from .pmf import PricePMF
from .streams import keyed_streams
from .transport import _check_bandwidth, _sweep, ot_cost

#: Quantile levels of each placebo column, labelled in the scan CSV header.
PLACEBO_QUANTILES = (0.025, 0.25, 0.5, 0.75, 0.975)
SCAN_CSV_HEADER = "d,real_cost,placebo_mean,placebo_sd,q025,q25,q50,q75,q975,dit"
#: Default tolerance of the equal-displacement (trends) floor.
DISPLACEMENT_TAU = 0.005


@dataclass(frozen=True)
class PlaceboConfig:
    """Resampling settings for placebo transport costs."""

    n_sims: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.n_sims < 1:
            raise ValidationError("n_sims must be at least 1")


def _check_grid(grid) -> list[int]:
    grid = [int(d) for d in grid]
    if not grid:
        raise ValidationError("bandwidth grid is empty")
    if any(d < 0 for d in grid):
        raise ValidationError("bandwidth grid contains negative entries")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValidationError("bandwidth grid must be strictly ascending")
    return grid


def diff_in_transports(
    b_pre: PricePMF,
    b_post: PricePMF,
    c_pre: PricePMF,
    c_post: PricePMF,
    d: int,
) -> float:
    """Treated displacement at `2d` minus control displacement at `d`.

    The doubled bandwidth on the treated term makes the difference a lower
    bound in sample for every `d`.  Negative values are reported as-is: they
    flag a control displacement exceeding the treated one.
    """
    d = _check_bandwidth(d)
    return ot_cost(b_pre, b_post, 2 * d) - ot_cost(c_pre, c_post, d)


@dataclass(frozen=True)
class ScanRow:
    d: int
    real_cost: float
    placebo_mean: float
    placebo_sd: float
    placebo_quantiles: tuple[float, ...]
    dit_value: float | None = None


@dataclass(frozen=True)
class BandwidthScan:
    """Real, placebo, and optional difference-in-transports costs per bandwidth,
    and, for a scan run with `trends`, the trends curves: rows
    (d, first pair's cost, second pair's cost, difference)."""

    rows: tuple[ScanRow, ...]
    trends: tuple[tuple[int, float, float, float], ...] | None = None

    def __post_init__(self):
        ds = [row.d for row in self.rows]
        if any(b <= a for a, b in zip(ds, ds[1:])):
            raise ValidationError("scan rows must be sorted by ascending d")
        costs = [row.real_cost for row in self.rows]
        if any(b > a + 1e-12 for a, b in zip(costs, costs[1:])):
            raise ValidationError("real cost must be nonincreasing in d")

    def select(self, threshold: float) -> int:
        """The noise floor: the smallest scanned `d` whose placebo mean is
        strictly below `threshold`.

        The CLI's default 0.05% threshold makes sampling noise invisible at
        one-decimal percentage precision.
        """
        for row in self.rows:
            if row.placebo_mean < threshold:
                return row.d
        best = min(self.rows, key=lambda row: row.placebo_mean)
        raise SelectionError(
            f"no bandwidth in the grid has placebo cost below {threshold}; "
            f"minimum placebo mean is {best.placebo_mean:.6g} at d={best.d}"
        )

    def to_csv(self, fh) -> None:
        fh.write(SCAN_CSV_HEADER + "\n")
        for row in self.rows:
            qs = ",".join(repr(v) for v in row.placebo_quantiles)
            dit = "" if row.dit_value is None else repr(row.dit_value)
            fh.write(
                f"{row.d},{row.real_cost!r},{row.placebo_mean!r},"
                f"{row.placebo_sd!r},{qs},{dit}\n"
            )


def bandwidth_scan(
    pre: PricePMF,
    post: PricePMF,
    grid: list[int],
    cfg: PlaceboConfig,
    base: PricePMF | None = None,
    control: tuple[PricePMF, PricePMF] | None = None,
    trends: tuple[PricePMF, PricePMF, PricePMF, PricePMF] | None = None,
) -> BandwidthScan:
    """Scan real and placebo costs over a bandwidth grid.

    Placebo replicate `rep` is two independent multinomial resamples of
    `base` (default: the pre distribution) at the observed sample sizes,
    from a stream keyed by (seed, rep), so results do not depend on
    execution order or batching, and draws are shared across bandwidths.
    The streams are seeded in one pass over all replicates (see `streams`)
    and match `default_rng(SeedSequence(entropy=(seed, rep)))` bit for bit.
    With `control` supplied, each row also carries the
    difference-in-transports value at that bandwidth.  With `trends` =
    (a_pre, a_post, b_pre, b_post) the scan also holds the trends curves:
    the displacement of both pairs at the same `d`, unlike the estimator
    itself, and their difference.  Every cost comes from one sweep over the
    grid (and its doubles).
    """
    grid = _check_grid(grid)
    base = pre if base is None else base
    pairs = [(pre, post)] + ([] if control is None else [control])
    if trends is not None:
        pairs += [trends[:2], trends[2:]]
    n = len(pairs)
    ds = grid if control is None else sorted(set(grid) | {2 * d for d in grid})

    stream = keyed_streams(lambda rep: (cfg.seed, rep), cfg.n_sims)

    def column(r):
        # The pairs lead the sweep's columns; replicate r - n follows, drawn
        # from its (seed, rep) stream straight into its column.
        if r < n:
            return r, pairs[r][0].mass, pairs[r][1].mass
        rng = stream(r - n)
        a = rng.multinomial(pre.n, base.mass) / pre.n
        return n, a, rng.multinomial(post.n, base.mass) / post.n

    out = _sweep(pairs + [(base, base)], ds, n + cfg.n_sims, column)
    # Per bandwidth, the cost of each pair.
    at = dict(zip(ds, out[:n].T.tolist()))
    index = {d: col for col, d in enumerate(ds)}
    # One row of replicates per grid bandwidth.  Reducing the rows of this
    # contiguous copy sums each as a 1-D array does; `axis=0` on the sweep's
    # layout sums in another order and can differ in the last bit.
    placebo = np.ascontiguousarray(out[n:, [index[d] for d in grid]].T)
    mean = placebo.mean(axis=1).tolist()
    sd = placebo.std(axis=1, ddof=1).tolist() if cfg.n_sims > 1 else [0.0] * len(grid)
    qs = np.quantile(placebo, PLACEBO_QUANTILES, axis=1).T.tolist()
    rows = []
    for col, d in enumerate(grid):
        # `diff_in_transports`: the treated pair at 2d minus the control pair at d.
        dit = None if control is None else at[2 * d][0] - at[d][1]
        rows.append(ScanRow(d, at[d][0], mean[col], sd[col], tuple(qs[col]), dit))
    curves = None
    if trends is not None:
        curves = tuple((d, at[d][-2], at[d][-1], at[d][-2] - at[d][-1]) for d in grid)
    return BandwidthScan(tuple(rows), curves)


def select_dstar(scan: BandwidthScan, d_min: int) -> tuple[int, float]:
    """Most informative admissible bandwidth: the largest dit value at d >= d_min.

    Ties break toward the smaller bandwidth.
    """
    if any(row.dit_value is None for row in scan.rows):
        raise ValidationError("scan is missing dit values; run it with control data")
    admissible = [row for row in scan.rows if row.d >= d_min]
    if not admissible:
        raise SelectionError(f"no scan row at or above d_min={d_min}")
    best = max(admissible, key=lambda row: (row.dit_value, -row.d))
    return best.d, best.dit_value


def displacement_floor(
    curves: list[tuple[int, float, float, float]],
    tau: float = DISPLACEMENT_TAU,
) -> int:
    """Smallest grid bandwidth from which |difference| stays below `tau`."""
    floor = None
    for d, _, _, diff in reversed(curves):
        if abs(diff) < tau:
            floor = d
        else:
            break
    if floor is None:
        worst = min(abs(diff) for _, _, _, diff in curves)
        raise SelectionError(
            f"displacement difference never settles below {tau}; "
            f"smallest |difference| is {worst:.6g}"
        )
    return floor


# ---------------------------------------------------------------------------
# Correction for composition shifts between first-time and returning buyers.

@dataclass(frozen=True)
class CompositionInputs:
    """Monthly distributions with license counts that pin buyer-mix weights.

    For month t the share of first-time buyers is phi_f = rho * L_t / units_t,
    where L_t is the number of licenses issued and rho the share of them spent
    on new cars; the remainder are returning buyers.
    """

    monthly_pmfs: tuple[tuple[object, PricePMF], ...]
    licenses: tuple[tuple[object, int], ...]
    rho: float = 0.5
    theta_pre: tuple[float, float] = (1.0, 0.0)
    theta_post: tuple[float, float] = (1.0, 0.0)

    def __post_init__(self):
        if not 0.0 < self.rho <= 1.0:
            raise ValidationError(f"rho must be in (0, 1], got {self.rho}")
        for name, theta in (("theta_pre", self.theta_pre), ("theta_post", self.theta_post)):
            if abs(theta[0] + theta[1] - 1.0) > 1e-9:
                raise ValidationError(f"{name} weights must sum to 1, got {theta}")
        lic = dict(self.licenses)
        for period, p in self.monthly_pmfs:
            if period not in lic:
                raise ValidationError(f"no license count for period {period!r}")
            phi = self.rho * lic[period] / p.n
            if not 0.0 <= phi <= 1.0:
                raise ValidationError(
                    f"first-time share {phi:.4f} outside [0, 1] for period {period!r}"
                )

    def phi(self) -> tuple[np.ndarray, np.ndarray]:
        lic = dict(self.licenses)
        phi_f = np.array(
            [self.rho * lic[period] / p.n for period, p in self.monthly_pmfs]
        )
        return phi_f, 1.0 - phi_f


@dataclass
class CompositionEstimate:
    """Best-guess first-time and returning distributions with fit diagnostics."""

    f_hat: PricePMF
    r_hat: PricePMF
    residual_ss: float
    correction: dict[int, float] = field(default_factory=dict)
    r_identified: bool = True
    kkt_norm: float = float("nan")
    theta_pre: tuple[float, float] = (1.0, 0.0)
    theta_post: tuple[float, float] = (1.0, 0.0)
    p_pre_hat: PricePMF | None = None
    p_post_hat: PricePMF | None = None


def project_simplex(y: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort algorithm)."""
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u - css / np.arange(1, y.size + 1) > 0)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(y - theta, 0.0)


def _union_matrix(pmfs):
    """The union of the supports of `pmfs`, and their masses on it, one row each."""
    support = np.array(
        sorted(set().union(*(p.support.tolist() for p in pmfs))),
        dtype=np.int64,
    )
    P = np.zeros((len(pmfs), support.size))
    for t, p in enumerate(pmfs):
        idx = np.searchsorted(support, p.support)
        P[t, idx] = p.mass
    return support, P


def composition_fit(
    inputs: CompositionInputs,
    max_iter: int = 100_000,
    f0: np.ndarray | None = None,
    r0: np.ndarray | None = None,
) -> CompositionEstimate:
    """Least squares for the two buyer-type distributions on the simplex.

    Minimizes sum_t || phi_f[t] f + phi_r[t] r - p_t ||^2 over two probability
    simplices by projected gradient with backtracking; identification needs
    the mix weights to vary across periods.  `f0`/`r0` warm-start the solver
    (default: uniform).
    """
    phi_f, phi_r = inputs.phi()
    support, P = _union_matrix([p for _, p in inputs.monthly_pmfs])
    n_total = int(sum(p.n for _, p in inputs.monthly_pmfs))

    if float(np.ptp(phi_f)) < 1e-12:
        if abs(float(phi_f[0]) - 1.0) < 1e-12:
            # Returning buyers drop out of the objective entirely; the
            # first-time distribution is the plain average and r is undefined.
            f = P.mean(axis=0)
            resid = float(np.sum((f[None, :] - P) ** 2))
            pmf = PricePMF(support, f / f.sum(), n_total)
            return CompositionEstimate(
                pmf,
                pmf,
                resid,
                r_identified=False,
                kkt_norm=0.0,
                theta_pre=inputs.theta_pre,
                theta_post=inputs.theta_post,
            )
        raise IdentificationError(
            "first-time shares are identical across periods; "
            "the two distributions are not separately identified"
        )

    def objective(f, r):
        fit = phi_f[:, None] * f[None, :] + phi_r[:, None] * r[None, :]
        return float(np.sum((fit - P) ** 2))

    def gradients(f, r):
        resid = phi_f[:, None] * f[None, :] + phi_r[:, None] * r[None, :] - P
        gf = 2.0 * (phi_f[:, None] * resid).sum(axis=0)
        gr = 2.0 * (phi_r[:, None] * resid).sum(axis=0)
        return gf, gr

    # Lipschitz bound for the joint gradient; 1/L is a safe reference step.
    lip = 2.0 * (float(np.sum(phi_f**2 + phi_r**2)) + 2.0 * float(np.sum(phi_f * phi_r)))
    step = 1.0 / lip
    f = np.full(support.size, 1.0 / support.size) if f0 is None else project_simplex(np.asarray(f0, dtype=float))
    r = f.copy() if r0 is None else project_simplex(np.asarray(r0, dtype=float))
    value = objective(f, r)
    kkt = float("inf")
    for _ in range(max_iter):
        gf, gr = gradients(f, r)
        kkt = (
            math.sqrt(
                float(np.sum((f - project_simplex(f - step * gf)) ** 2))
                + float(np.sum((r - project_simplex(r - step * gr)) ** 2))
            )
            / step
        )
        if kkt < 1e-8:
            break
        eta = step
        while True:
            f_new = project_simplex(f - eta * gf)
            r_new = project_simplex(r - eta * gr)
            value_new = objective(f_new, r_new)
            # Sufficient decrease for projected gradient with backtracking.
            quad = (
                float(gf @ (f_new - f) + gr @ (r_new - r))
                + (float(np.sum((f_new - f) ** 2) + np.sum((r_new - r) ** 2))) / (2 * eta)
            )
            if value_new <= value + quad + 1e-15 or eta < 1e-18:
                break
            eta *= 0.5
        f, r, value = f_new, r_new, value_new
    else:
        raise RuntimeError(
            f"composition fit did not reach stationarity; gradient map norm {kkt:.3g}"
        )

    f_pmf = PricePMF(support, f / f.sum(), n_total)
    r_pmf = PricePMF(support, r / r.sum(), n_total)
    return CompositionEstimate(
        f_pmf,
        r_pmf,
        value,
        kkt_norm=kkt,
        theta_pre=inputs.theta_pre,
        theta_post=inputs.theta_post,
    )


def composition_correction(est: CompositionEstimate, grid: list[int]) -> dict[int, float]:
    """Transport cost between the fitted type distributions per bandwidth.

    Also reconstructs the implied pre and post mixtures from the stored
    period weights and keeps them on the estimate.
    """
    grid = _check_grid(grid)
    costs = _sweep([(est.f_hat, est.r_hat)], grid)[0].tolist()
    est.correction = dict(zip(grid, costs))
    support = est.f_hat.support
    n = est.f_hat.n
    for name, (tf, tr) in (("p_pre_hat", est.theta_pre), ("p_post_hat", est.theta_post)):
        mix = tf * est.f_hat.mass + tr * est.r_hat.mass
        setattr(est, name, PricePMF(support, mix / mix.sum(), n))
    return est.correction
