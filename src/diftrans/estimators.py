"""Trade-volume estimators built on thresholded transport costs.

The before-and-after estimator reads the displacement between a pre- and a
post-rationing sales distribution as a lower bound on the share of rationed
licenses that changed hands.  Bandwidth selection uses placebo resampling:
pick the smallest threshold at which pure sampling noise produces a negligible
apparent displacement.  The difference-in-transports estimator nets out a
control city's displacement; over-smoothing the treated term with `2d` keeps
the difference a valid in-sample lower bound for every bandwidth.

Every transport cost of a scan comes from one `transport._sweep`: its pairs
and placebo replicates are the mass columns of one kernel pass per block,
lifted with zero masses onto shared supports, which leaves each cost bit for
bit `ot_cost`'s.  The equal-displacement curves and the composition
correction are sweeps over their pairs alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IdentificationError, SelectionError, ValidationError
from .pmf import PricePMF
from .transport import _check_bandwidth, _sweep, ot_cost


@dataclass(frozen=True)
class PlaceboConfig:
    """Resampling settings for placebo transport costs."""

    n_sims: int = 500
    seed: int = 0
    quantiles: tuple[float, ...] = (0.025, 0.25, 0.5, 0.75, 0.975)

    def __post_init__(self):
        if self.n_sims < 1:
            raise ValidationError("n_sims must be at least 1")
        if any(not 0.0 < q < 1.0 for q in self.quantiles):
            raise ValidationError("quantiles must lie strictly inside (0, 1)")


def quantile_label(level: float) -> str:
    """Column label for a quantile level: 0.025 -> q025, 0.5 -> q50."""
    digits = f"{round(level * 1000):03d}"
    if digits.endswith("0"):
        digits = digits[:-1]
    return f"q{digits}"


def placebo_cost_matrix(
    base: PricePMF,
    n_pre: int,
    n_post: int,
    grid: list[int],
    cfg: PlaceboConfig,
) -> np.ndarray:
    """Placebo transport costs, one row per replicate, one column per `d`.

    Replicate `rep` is two independent multinomial resamples of `base`, of
    sizes `n_pre` and `n_post`, from a stream keyed by (seed, rep), so results
    do not depend on execution order or batching, and draws are shared across
    bandwidths.
    """
    return _scan_costs([], _check_grid(grid), base, n_pre, n_post, cfg)[1]


def placebo_cost(
    base: PricePMF,
    n_pre: int,
    n_post: int,
    d: int,
    cfg: PlaceboConfig,
) -> tuple[float, float, tuple[float, ...]]:
    """Mean, standard deviation, and quantiles of the placebo cost at `d`."""
    matrix = placebo_cost_matrix(base, n_pre, n_post, [d], cfg)
    mean, sd, qs = _placebo_summary(matrix, cfg.quantiles)
    return mean[0], sd[0], qs[0]


def _placebo_summary(matrix: np.ndarray, levels) -> tuple[list, list, list]:
    """Per column of `matrix`: means, sds (0.0 for one row) and quantile tuples.

    Reducing the rows of the contiguous transpose sums each column as a 1-D
    array does; `axis=0` sums in another order and can differ in the last bit.
    """
    cols = np.ascontiguousarray(matrix.T)
    mean = cols.mean(axis=1).tolist()
    sd = cols.std(axis=1, ddof=1).tolist() if cols.shape[1] > 1 else [0.0] * len(cols)
    qs = [tuple(q) for q in np.quantile(cols, levels, axis=1).T.tolist()]
    return mean, sd, qs


def _check_grid(grid) -> list[int]:
    grid = [int(d) for d in grid]
    if not grid:
        raise ValidationError("bandwidth grid is empty")
    if any(d < 0 for d in grid):
        raise ValidationError("bandwidth grid contains negative entries")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValidationError("bandwidth grid must be strictly ascending")
    return grid


def select_bandwidth(
    base: PricePMF,
    n_pre: int,
    n_post: int,
    grid: list[int],
    cfg: PlaceboConfig,
    threshold: float = 0.0005,
) -> int:
    """Smallest grid bandwidth whose placebo mean falls below `threshold`.

    The default 0.05% threshold makes sampling noise invisible at one-decimal
    percentage precision.
    """
    grid = _check_grid(grid)
    mean = _placebo_summary(placebo_cost_matrix(base, n_pre, n_post, grid, cfg), ())[0]
    return _first_below(grid, mean, threshold)


def _first_below(grid, stats, threshold: float) -> int:
    """The selection rule: the first grid `d` whose placebo statistic is below `threshold`."""
    for d, value in zip(grid, stats):
        if value < threshold:
            return d
    best = int(np.argmin(stats))
    raise SelectionError(
        f"no bandwidth in the grid has placebo cost below {threshold}; "
        f"minimum placebo mean is {float(stats[best]):.6g} at d={grid[best]}"
    )


def _scan_costs(pairs, grid, base, n_pre, n_post, cfg):
    """`ot_cost` of each (pre, post) pair at each `d` in `grid`, and the
    placebo matrix of `base` resampled at sizes `n_pre` and `n_post`.

    The pairs lead the sweep's columns; replicate `rep` follows, drawn from
    its (seed, rep) stream straight into its column.
    """
    if n_pre < 1 or n_post < 1:
        raise ValidationError("placebo sample sizes must be at least 1")
    n = len(pairs)

    def column(r):
        if r < n:
            return r, pairs[r][0].mass, pairs[r][1].mass
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(cfg.seed, r - n)))
        a = rng.multinomial(n_pre, base.mass) / n_pre
        return n, a, rng.multinomial(n_post, base.mass) / n_post

    out = _sweep(pairs + [(base, base)], grid, n + cfg.n_sims, column)
    return out[:n], out[n:]


def before_after(pre: PricePMF, post: PricePMF, d: int) -> float:
    """Displacement between the pre and post distributions at bandwidth `d`."""
    return ot_cost(pre, post, d)


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
    and the `equal_displacement_curves` rows of a scan run with `trends`."""

    rows: tuple[ScanRow, ...]
    quantile_levels: tuple[float, ...]
    trends: tuple[tuple[int, float, float, float], ...] | None = None

    def __post_init__(self):
        ds = [row.d for row in self.rows]
        if any(b <= a for a, b in zip(ds, ds[1:])):
            raise ValidationError("scan rows must be sorted by ascending d")
        costs = [row.real_cost for row in self.rows]
        if any(b > a + 1e-12 for a, b in zip(costs, costs[1:])):
            raise ValidationError("real cost must be nonincreasing in d")

    def select(self, threshold: float) -> int:
        """`select_bandwidth`'s rule applied to the scanned placebo means."""
        return _first_below(
            [row.d for row in self.rows], [row.placebo_mean for row in self.rows], threshold
        )

    def csv_header(self) -> str:
        labels = ",".join(quantile_label(q) for q in self.quantile_levels)
        return f"d,real_cost,placebo_mean,placebo_sd,{labels},dit"

    def to_csv(self, fh) -> None:
        fh.write(self.csv_header() + "\n")
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

    The placebo resamples `base` (default: the pre distribution) at the
    observed sample sizes.  With `control` supplied, each row also carries the
    difference-in-transports value at that bandwidth.  With `trends` =
    (a_pre, a_post, b_pre, b_post) the scan also holds their
    `equal_displacement_curves` rows.  Every cost comes from one sweep over
    the grid (and its doubles).
    """
    grid = _check_grid(grid)
    base = pre if base is None else base
    pairs = [(pre, post)] + ([] if control is None else [control])
    if trends is not None:
        pairs += [trends[:2], trends[2:]]
    ds = grid if control is None else sorted(set(grid) | {2 * d for d in grid})
    costs, matrix = _scan_costs(pairs, ds, base, pre.n, post.n, cfg)
    # Per bandwidth, the cost of each pair.
    at = dict(zip(ds, costs.T.tolist()))
    mean, sd, qs = _placebo_summary(matrix[:, np.searchsorted(ds, grid)], cfg.quantiles)
    rows = []
    for col, d in enumerate(grid):
        # `diff_in_transports`: the treated pair at 2d minus the control pair at d.
        dit = None if control is None else at[2 * d][0] - at[d][1]
        rows.append(ScanRow(d, at[d][0], mean[col], sd[col], qs[col], dit))
    curves = None
    if trends is not None:
        curves = tuple((d, at[d][-2], at[d][-1], at[d][-2] - at[d][-1]) for d in grid)
    return BandwidthScan(tuple(rows), cfg.quantiles, curves)


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


def d_floor(placebo_rule_d: int, displacement_rule_d: int) -> int:
    """Minimum admissible bandwidth: noise floor joined with the trends floor."""
    return max(int(placebo_rule_d), int(displacement_rule_d))


def equal_displacement_curves(
    a_pre: PricePMF,
    a_post: PricePMF,
    b_pre: PricePMF,
    b_post: PricePMF,
    grid: list[int],
) -> list[tuple[int, float, float, float]]:
    """Same-bandwidth displacement of two city pairs and their difference.

    This is the post-trends diagnostic for the equal-displacement assumption:
    both pairs are smoothed by the same `d`, unlike the estimator itself.
    """
    grid = _check_grid(grid)
    ca, cb = _sweep([(a_pre, a_post), (b_pre, b_post)], grid).tolist()
    return [(d, x, y, x - y) for d, x, y in zip(grid, ca, cb)]


def displacement_floor(
    curves: list[tuple[int, float, float, float]],
    tau: float = 0.005,
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
