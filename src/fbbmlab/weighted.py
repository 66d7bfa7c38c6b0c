"""Weights, weighted norms, and pointwise-difference fractional derivatives.

Two flavors of fractional derivative live here:

* ``stein_derivative`` acts on grid fields by composite quadrature of the
  squared-difference singular integral over the box;
* ``stein_pointwise`` evaluates the same integral for an analytically
  known, compactly supported function at arbitrary probe points, with
  log-graded nodes around the singularity and an exact closed-form tail
  outside the support.

The probe machinery backs the symbol asymptotics: for g = |xi|^alpha psi
the probe value has a plateau c1 plus a power correction at small eta and
decays like |eta|^(-(1/2+theta)) at large eta.  The quantitative slope fit
is performed raw when alpha < theta (the power dominates); when
alpha > theta the plateau is subtracted first (estimate taken at the
smallest probe), and the resulting slope is reported as-is: it reflects
the energy integral's leading correction, which is not alpha - theta, so
callers asserting exponents quantitatively should use alpha < theta pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import Field, _check_alpha, _finite, _half_l2, bessel_symbol, deriv

__all__ = [
    "WeightSpec",
    "weight_values",
    "weighted_norm",
    "stein_derivative",
    "stein_pointwise",
    "SteinAsymptotics",
    "stein_asymptotics",
    "l2_threshold_probe",
    "negative_power_probe",
    "bbm_symbol_stein_bound",
    "interpolation_ratio",
    "cutoff_bump",
]


# ------------------------------------------------------------------ weights


def _check_r(r: float) -> None:
    if r < 0:
        raise ValueError(f"decay order r must be >= 0, got {r}")


@dataclass(frozen=True)
class WeightSpec:
    """Polynomial weight <x>^theta, optionally truncated at level N.

    Truncated mode: equals <x>^theta for |x| <= N, the constant (2N)^theta
    for |x| >= 3N, and a quintic Hermite blend in between (value, slope and
    curvature matched at |x| = N, flat to second order at |x| = 3N).  The
    blend is monotone nondecreasing for N >= 2 (measured: monotonicity can
    fail by ~1e-7 at N = 1), hence the floor on N.
    """

    theta: float
    N: float | None = None

    def __post_init__(self):
        _check_r(self.theta)
        if self.N is not None and self.N < 2:
            raise ValueError(f"truncation level N must be >= 2, got {self.N}")


def _bracket_pow(x, theta):
    return (1.0 + x * x) ** (theta / 2.0)


def _bracket_pow_d1(x, theta):
    # d/dx <x>^theta = theta x <x>^(theta-2)
    return theta * x * (1.0 + x * x) ** (theta / 2.0 - 1.0)


def _bracket_pow_d2(x, theta):
    b2 = 1.0 + x * x
    return theta * b2 ** (theta / 2.0 - 1.0) + theta * (theta - 2.0) * x * x * b2 ** (
        theta / 2.0 - 2.0
    )


def weight_values(xs, spec: WeightSpec) -> np.ndarray:
    """Sample the weight on the given abscissas."""
    xs = np.asarray(xs, dtype=float)
    ax = np.abs(xs)
    if spec.N is None:
        return _bracket_pow(ax, spec.theta)
    N, theta = float(spec.N), spec.theta
    out = np.empty_like(ax)
    inner = ax <= N
    plateau = ax >= 3.0 * N
    blend = ~inner & ~plateau
    out[inner] = _bracket_pow(ax[inner], theta)
    out[plateau] = (2.0 * N) ** theta
    if np.any(blend):
        h = 2.0 * N
        t = (ax[blend] - N) / h
        y0 = _bracket_pow(N, theta)
        d0 = _bracket_pow_d1(N, theta) * h
        c0 = _bracket_pow_d2(N, theta) * h * h
        y1 = (2.0 * N) ** theta
        t2, t3, t4, t5 = t * t, t**3, t**4, t**5
        h00 = 1.0 - 10.0 * t3 + 15.0 * t4 - 6.0 * t5
        h10 = t - 6.0 * t3 + 8.0 * t4 - 3.0 * t5
        h20 = 0.5 * t2 - 1.5 * t3 + 1.5 * t4 - 0.5 * t5
        h01 = 10.0 * t3 - 15.0 * t4 + 6.0 * t5
        out[blend] = y0 * h00 + d0 * h10 + c0 * h20 + y1 * h01
    return out


def weighted_norm(f: Field, r: float, N: float | None = None) -> float:
    """||w f||_2 with w = <x>^r (or its N-truncation)."""
    w = weight_values(f.grid.xs, WeightSpec(theta=r, N=N))
    return float(np.sqrt(f.grid.dx * np.sum((w * f.values) ** 2)))


# ----------------------------------------------- field-level Stein derivative


def stein_derivative(f: Field, b: float) -> Field:
    """Squared-difference fractional derivative on the grid, order b in (0,1).

    Composite quadrature over the box; the diagonal cell uses a local
    linear model, contributing |f'(x)|^2 (dx/2)^(2-2b) / (1-b) in total.
    """
    if not 0.0 < b < 1.0:
        raise ValueError(f"b must lie in (0, 1), got {b}")
    g = f.grid
    vals = f.values
    xs = g.xs
    dfdx = deriv(f, 1).values
    half = 0.5 * g.dx
    diag = dfdx**2 * 2.0 * half ** (2.0 - 2.0 * b) / (2.0 - 2.0 * b)
    out = np.empty(g.n)
    block = 256  # rows of the pairwise-difference matrix formed at once
    for start in range(0, g.n, block):
        stop = min(start + block, g.n)
        dx_mat = np.abs(xs[start:stop, None] - xs[None, :])
        df_mat = (vals[start:stop, None] - vals[None, :]) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            integrand = df_mat / dx_mat ** (1.0 + 2.0 * b)
        idx = np.arange(start, stop)
        integrand[idx - start, idx] = 0.0
        out[start:stop] = integrand.sum(axis=1) * g.dx
    return Field(g, np.sqrt(out + diag))


# ------------------------------------------------------------ smooth cutoffs


BUMP_INNER = 1.0
BUMP_OUTER = 2.0


def _ramp(t):
    # exp(-1/t) ramp: 0 for t <= 0, approaches 1, infinitely flat at 0
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def cutoff_bump(x):
    """Even C-infinity bump built from exp(-1/t) ramps: 1 on
    [-BUMP_INNER, BUMP_INNER], 0 outside [-BUMP_OUTER, BUMP_OUTER]."""
    x = np.asarray(x, dtype=float)
    s = (np.abs(x) - BUMP_INNER) / (BUMP_OUTER - BUMP_INNER)
    a = _ramp(1.0 - s)
    b = _ramp(s)
    return a / (a + b)


def _power_bump(alpha: float):
    """The probe function |x|^alpha * cutoff_bump(x) of the |xi|^alpha symbol."""
    return lambda x: np.abs(x) ** alpha * cutoff_bump(x)


# -------------------------------------------- pointwise probe quadrature


def _log_cluster(center: float, span: float, per_decade: int) -> np.ndarray:
    lo, hi = -13.0, np.log10(span)
    count = max(int(per_decade * (hi - lo)), 8)
    t = np.logspace(lo, hi, count)
    return np.concatenate([center - t[::-1], [center], center + t])


def stein_pointwise(
    gfun,
    eta: float,
    theta: float,
    points_per_decade: int = 160,
) -> float:
    """Evaluate the squared-difference derivative of a compactly supported
    function at a single probe point.

    gfun must act elementwise and vanish identically outside cutoff_bump's
    support [-BUMP_OUTER, BUMP_OUTER], as every probe below does; the integral
    outside that interval is then |g(eta)|^2 * closed form, added exactly.
    Nodes cluster logarithmically around the singular point eta and around
    the origin (probe functions may have kinks or integrable blowup there).
    """
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    eta = float(eta)
    Y0 = BUMP_OUTER
    ys = np.concatenate(
        [
            _log_cluster(eta, Y0 + abs(eta) + 1.0, points_per_decade),
            _log_cluster(0.0, Y0 + 1.0, points_per_decade),
        ]
    )
    ys = np.unique(ys)
    ys = ys[(ys > -Y0) & (ys < Y0)]
    # close the support edges exactly; g vanishes there by assumption
    ys = np.concatenate([[-Y0], ys, [Y0]])
    h = 1e-7 * max(1.0, abs(eta))
    # one call at the nodes, at eta and at eta +- h
    g = np.asarray(gfun(np.append(ys, [eta, eta + h, eta - h])), dtype=float)
    gy, (ge, g_up, g_down) = g[:-3], g[-3:].tolist()
    dist = np.abs(eta - ys)
    keep = dist > 1e-12 * max(1.0, abs(eta))
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = (ge - gy[keep]) ** 2 / dist[keep] ** (1.0 + 2.0 * theta)
    total = float(np.trapezoid(integrand, ys[keep]))
    # diagonal cell, local linear model
    delta = 1e-12 * max(1.0, abs(eta))
    gprime = (g_up - g_down) / (2.0 * h)
    total += gprime**2 * 2.0 * delta ** (2.0 - 2.0 * theta) / (2.0 - 2.0 * theta)
    # exact contribution of |y| >= Y0, where g vanishes
    if abs(eta) < Y0 and ge != 0.0:
        total += (
            ge**2
            * ((Y0 - eta) ** (-2.0 * theta) + (Y0 + eta) ** (-2.0 * theta))
            / (2.0 * theta)
        )
    return float(np.sqrt(max(total, 0.0)))


def _loglog_fit(xs, ys):
    """Least-squares slope of log ys against log xs, and its R^2."""
    lx, ly = np.log(xs), np.log(ys)
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    pred = A @ coef
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    ss_res = float(np.sum((ly - pred) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), r2


# --------------------------------------------------------- symbol asymptotics


@dataclass
class SteinAsymptotics:
    p_small: float
    r2_small: float
    p_large: float
    r2_large: float
    plateau: float | None
    subtracted: bool
    inconclusive_small: bool
    inconclusive_large: bool
    etas_small: np.ndarray = field(repr=False)
    values_small: np.ndarray = field(repr=False)
    etas_large: np.ndarray = field(repr=False)
    values_large: np.ndarray = field(repr=False)


def _stein_range(alpha, theta):
    """Raise ValueError unless stein_asymptotics accepts (alpha, theta); config uses it too."""
    _check_alpha(alpha)
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    if alpha == theta:
        raise ValueError("theta must differ from alpha (equal orders have no power law)")


def stein_asymptotics(alpha: float, theta: float) -> SteinAsymptotics:
    """Fit the small- and large-probe exponents of the |xi|^alpha symbol.

    Small branch fits on [1e-3, 1e-1], large branch on [10, 100], 40
    probes per decade.  For alpha > theta the plateau constant is
    estimated at the smallest probe (one decade below the fit window) and
    subtracted; for alpha < theta the power part diverges and the raw
    values are fitted.
    """
    _stein_range(alpha, theta)
    g = _power_bump(alpha)

    def value(e):
        return stein_pointwise(g, e, theta)

    etas_small = np.logspace(-3, -1, 81)
    vals_small = np.array([value(e) for e in etas_small])
    subtracted = alpha > theta
    plateau = None
    if subtracted:
        plateau = value(1e-4)
        fit_vals = np.abs(vals_small - plateau)
    else:
        fit_vals = vals_small
    p_small, r2_small = _loglog_fit(etas_small, fit_vals)

    etas_large = np.logspace(1, 2, 41)
    vals_large = np.array([value(e) for e in etas_large])
    p_large, r2_large = _loglog_fit(etas_large, vals_large)

    return SteinAsymptotics(
        p_small=p_small,
        r2_small=r2_small,
        p_large=p_large,
        r2_large=r2_large,
        plateau=plateau,
        subtracted=subtracted,
        inconclusive_small=r2_small < 0.98,
        inconclusive_large=r2_large < 0.98,
        etas_small=etas_small,
        values_small=vals_small,
        etas_large=etas_large,
        values_large=vals_large,
    )


def l2_threshold_probe(alpha: float, theta: float, decades: int = 4) -> np.ndarray:
    """Decade increments of the squared-probe integral approaching eta = 0.

    Returns integral(2 V^2 d eta) over (1e-(k+1), 1e-k) for k = 1..decades.
    Increments shrink geometrically when theta < alpha + 1/2 (the integral
    is Cauchy) and grow without bound when theta > alpha + 1/2.
    """
    g = _power_bump(alpha)
    incs = []
    for k in range(1, decades + 1):
        es = np.logspace(-k - 1, -k, 25)
        vs = np.array([stein_pointwise(g, e, theta, points_per_decade=120) for e in es])
        incs.append(2.0 * float(np.trapezoid(vs**2, es)))
    return np.array(incs)


def negative_power_probe(beta: float, theta: float, quad_points_per_decade: int = 160):
    """Probe the |eta|^(-beta-theta) bound for the |xi|^(-beta) symbol.

    Returns (etas, product) with product = value * |eta|^(beta+theta);
    boundedness of the product over eta in [1e-3, 1] is the testable form.
    """
    if not 0.0 < beta < 0.5:
        raise ValueError(f"beta must lie in (0, 1/2), got {beta}")

    def g(x):
        # integrable singularity at 0; the exact origin node is measure zero
        x = np.asarray(x, dtype=float)
        ax = np.maximum(np.abs(x), 1e-300)
        out = ax ** (-beta) * cutoff_bump(x)
        out[np.abs(x) < 1e-250] = 0.0
        return out

    etas = np.logspace(-3, 0, 31)
    vals = np.array(
        [stein_pointwise(g, e, theta, points_per_decade=quad_points_per_decade) for e in etas]
    )
    return etas, vals * etas ** (beta + theta)


def bbm_symbol_stein_bound(alpha: float, theta: float):
    """Smallest admissible pointwise constant for the resolvent symbol bound.

    Checks value((1+|xi|^alpha)^(-1) psi)(eta) <= C * [value(psi)(eta)
    + value(|xi|^alpha psi)(eta)] over the probe set and returns
    (etas, ratios, C) with C the probe maximum.
    """

    def g_res(x):
        x = np.asarray(x, dtype=float)
        return cutoff_bump(x) / (1.0 + np.abs(x) ** alpha)

    g_pow = _power_bump(alpha)
    etas = np.logspace(-3, 2, 26)
    ratios = []
    for e in etas:
        lhs = stein_pointwise(g_res, e, theta)
        rhs = stein_pointwise(cutoff_bump, e, theta) + stein_pointwise(g_pow, e, theta)
        ratios.append(lhs / rhs)
    ratios = np.array(ratios)
    return etas, ratios, float(ratios.max())


# ------------------------------------------------------- interpolation ratio


def interpolation_ratio(f: Field, s: float, b: float, theta: float) -> float:
    """||J^(theta s)(<x>^((1-theta) b) f)||_2 over the interpolation bound.

    The denominator is ||<x>^b f||^(1-theta) * ||J^s f||^theta; the ratio
    equals 1 exactly at theta = 0 and theta = 1.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    g, vals = f.grid, f.values
    if not np.any(vals):
        raise ValueError("interpolation ratio undefined for the zero field")
    w = weight_values(g.xs, WeightSpec(theta=(1.0 - theta) * b))
    num = _half_l2(_finite(bessel_symbol(g, theta * s)) * np.fft.rfft(w * vals), g)
    den_w = weighted_norm(f, b)
    den_s = _half_l2(_finite(bessel_symbol(g, s)) * np.fft.rfft(vals), g)
    return num / (den_w ** (1.0 - theta) * den_s**theta)
