"""Weights, weighted norms, and pointwise-difference fractional derivatives.

The weight is <x>^theta = (1 + x^2)^(theta/2), untruncated: on the periodic
box it is already bounded.  The fractional derivative is Stein's
squared-difference integral, which ``stein_pointwise`` evaluates for an
analytically known, compactly supported function at arbitrary probe points,
with log-graded nodes around the singularity and an exact closed-form tail
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

import functools
import sys
from dataclasses import dataclass, field

import numpy as np

from .spectral import Field, _check_alpha, _finite, _half_l2, bessel_symbol

__all__ = [
    "weight_values",
    "weighted_norm",
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


def weight_values(xs, theta: float) -> np.ndarray:
    """Sample the weight <x>^theta on the given abscissas."""
    _check_r(theta)
    ax = np.abs(np.asarray(xs, dtype=float))
    return (1.0 + ax * ax) ** (theta / 2.0)


def _weighted_l2(w: np.ndarray, values: np.ndarray, dx: float) -> float:
    """||w f||_2 of the samples values of f on a grid of step dx."""
    return float(np.sqrt(dx * np.sum((w * values) ** 2)))


def weighted_norm(f: Field, r: float) -> float:
    """||w f||_2 with w = <x>^r."""
    return _weighted_l2(weight_values(f.grid.xs, r), f.values, f.grid.dx)


# ------------------------------------------------------------ smooth cutoffs


BUMP_INNER = 1.0
BUMP_OUTER = 2.0


def cutoff_bump(x):
    """Even C-infinity bump built from exp(-1/t) ramps: 1 on
    [-BUMP_INNER, BUMP_INNER], 0 outside (-BUMP_OUTER, BUMP_OUTER), and
    a / (a + b) between, with a = exp(-1/(1 - s)), b = exp(-1/s) and s the
    scaled distance |x| - BUMP_INNER; only there are the exps taken."""
    ax = np.abs(np.asarray(x, dtype=float))
    out = (ax <= BUMP_INNER).astype(float)
    ramp = (ax > BUMP_INNER) & (ax < BUMP_OUTER)
    s = (ax[ramp] - BUMP_INNER) / (BUMP_OUTER - BUMP_INNER)
    a, b = np.exp(-1.0 / (1.0 - s)), np.exp(-1.0 / s)
    out[ramp] = a / (a + b)
    return out


def _power_bump(alpha: float):
    """The probe function |x|^alpha * cutoff_bump(x) of the |xi|^alpha symbol."""
    return lambda x: np.abs(x) ** alpha * cutoff_bump(x)


# -------------------------------------------- pointwise probe quadrature


def _log_cluster(center: float, span: float, per_decade: int) -> np.ndarray:
    lo, hi = -13.0, np.log10(span)
    count = max(int(per_decade * (hi - lo)), 8)
    t = np.logspace(lo, hi, count)
    return np.concatenate([center - t[::-1], [center], center + t])


def _check_theta(theta: float) -> None:
    """theta in (0, 1) and normal: the closed-form tail's 1/(2 theta) overflows below."""
    if not sys.float_info.min <= theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), at least {sys.float_info.min!r}, got {theta}")


@functools.lru_cache(maxsize=4)
def _origin_cluster(per_decade: int) -> np.ndarray:
    """_log_cluster(0, BUMP_OUTER + 1, per_decade), the nodes every probe
    places around the origin, made read-only."""
    nodes = _log_cluster(0.0, BUMP_OUTER + 1.0, per_decade)
    nodes.setflags(write=False)
    return nodes


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
    _check_theta(theta)
    eta = float(eta)
    Y0 = BUMP_OUTER
    ys = np.concatenate([_log_cluster(eta, Y0 + abs(eta) + 1.0, points_per_decade),
                         _origin_cluster(points_per_decade)])
    # np.unique's sorted distinct nodes, without the numpy.ma import it makes
    ys.sort()
    ys = ys[np.append(True, ys[1:] != ys[:-1]) & (ys > -Y0) & (ys < Y0)]
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


def _probes(gfun, etas, theta: float, points_per_decade: int = 160) -> np.ndarray:
    """stein_pointwise of gfun at each probe point of etas."""
    return np.array([stein_pointwise(gfun, e, theta, points_per_decade=points_per_decade)
                     for e in etas])


def _loglog_fit(xs, ys):
    """Least-squares slope of log ys against log xs and its R^2, NaN where a ys is 0 or inf."""
    lx, ly = np.log(xs), np.log(ys)
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    pred = A @ coef
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    ss_res = float(np.sum((ly - pred) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot != 0 else 1.0
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
    _check_theta(theta)
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
    etas_small = np.logspace(-3, -1, 81)
    vals_small = _probes(g, etas_small, theta)
    subtracted = alpha > theta
    plateau = None
    if subtracted:
        plateau = stein_pointwise(g, 1e-4, theta)
        fit_vals = np.abs(vals_small - plateau)
    else:
        fit_vals = vals_small
    p_small, r2_small = _loglog_fit(etas_small, fit_vals)

    etas_large = np.logspace(1, 2, 41)
    vals_large = _probes(g, etas_large, theta)
    p_large, r2_large = _loglog_fit(etas_large, vals_large)

    return SteinAsymptotics(
        p_small=p_small,
        r2_small=r2_small,
        p_large=p_large,
        r2_large=r2_large,
        plateau=plateau,
        subtracted=subtracted,
        inconclusive_small=not r2_small >= 0.98,
        inconclusive_large=not r2_large >= 0.98,
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
        vs = _probes(g, es, theta, points_per_decade=120)
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
    vals = _probes(g, etas, theta, points_per_decade=quad_points_per_decade)
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
    rhs = _probes(cutoff_bump, etas, theta) + _probes(g_pow, etas, theta)
    ratios = _probes(g_res, etas, theta) / rhs
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
    w = weight_values(g.xs, (1.0 - theta) * b)
    num = _half_l2(_finite(bessel_symbol(g, theta * s)) * np.fft.rfft(w * vals), g)
    den_w = weighted_norm(f, b)
    den_s = _half_l2(_finite(bessel_symbol(g, s)) * np.fft.rfft(vals), g)
    return num / (den_w ** (1.0 - theta) * den_s**theta)
