"""Weights, weighted norms, and squared-difference derivatives.

Oracles here are independent of the implementation: closed-form Gaussian
moments, brute-force uniform-grid quadrature for the pointwise derivative,
and the classical Fourier equivalence constant for order 1/2.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbbmlab.spectral import Field, apply_multiplier, field_l2, forward, frac_deriv, make_grid
from fbbmlab.weighted import (
    WeightSpec,
    bbm_symbol_stein_bound,
    cutoff_bump,
    interpolation_ratio,
    l2_threshold_probe,
    negative_power_probe,
    stein_asymptotics,
    stein_derivative,
    stein_pointwise,
    weight_values,
    weighted_norm,
)

# ------------------------------------------------------------------ weights


def test_plain_weight_matches_formula():
    xs = np.linspace(-50, 50, 1001)
    w = weight_values(xs, WeightSpec(theta=0.7))
    np.testing.assert_allclose(w, (1 + xs**2) ** 0.35, rtol=1e-14)


def test_truncated_weight_branches():
    N, theta = 10.0, 0.8
    spec = WeightSpec(theta=theta, N=N)
    xs_in = np.linspace(-N, N, 101)
    np.testing.assert_allclose(
        weight_values(xs_in, spec), (1 + xs_in**2) ** (theta / 2), rtol=1e-14
    )
    xs_out = np.array([3 * N, -3 * N, 5 * N, 100 * N])
    np.testing.assert_allclose(weight_values(xs_out, spec), (2 * N) ** theta, rtol=1e-14)


def test_truncated_weight_blend_is_c1_at_junctions():
    N, theta = 10.0, 1.3
    spec = WeightSpec(theta=theta, N=N)
    h = 1e-6
    for x0 in (N, 3 * N):
        left = (weight_values([x0], spec)[0] - weight_values([x0 - h], spec)[0]) / h
        right = (weight_values([x0 + h], spec)[0] - weight_values([x0], spec)[0]) / h
        assert abs(left - right) < 1e-4 * max(1.0, abs(left))


@settings(max_examples=40, deadline=None)
@given(
    theta=st.floats(min_value=0.05, max_value=2.5),
    N=st.floats(min_value=2.0, max_value=100.0),
)
def test_truncated_weight_monotone(theta, N):
    xs = np.linspace(0, 4 * N, 4001)
    w = weight_values(xs, WeightSpec(theta=theta, N=N))
    assert np.all(np.diff(w) >= -1e-12 * w.max())


def test_truncated_weight_slope_uniform_in_level():
    # blend slope never exceeds the untruncated weight's local slope
    theta = 1.1
    for N in (10.0, 20.0, 40.0):
        xs = np.linspace(N, 3 * N, 8001)
        w = weight_values(xs, WeightSpec(theta=theta, N=N))
        dw = np.gradient(w, xs)
        ref = theta * (1 + xs**2) ** ((theta - 1) / 2)
        assert np.max(np.abs(dw) / ref) <= 1.0 + 1e-6


def test_weight_rejects_small_truncation_level():
    with pytest.raises(ValueError):
        WeightSpec(theta=0.5, N=1.0)


def test_weighted_norm_gaussian_moment():
    # ||<x> exp(-x^2/2)||_2^2 = int (1+x^2) e^{-x^2} = (3/2) sqrt(pi)
    g = make_grid(4096, 40.0)
    f = Field(g, np.exp(-g.xs**2 / 2))
    assert weighted_norm(f, 1.0) == pytest.approx(np.sqrt(1.5 * np.sqrt(np.pi)), rel=1e-10)


def test_weighted_norm_truncated_below_plain():
    g = make_grid(2048, 60.0)
    f = Field(g, np.exp(-g.xs**2 / 8))
    full = weighted_norm(f, 1.4)
    for N in (2.0, 5.0, 10.0):
        assert weighted_norm(f, 1.4, N=N) <= full + 1e-12


# ----------------------------------------------- field-level Stein derivative


def test_stein_derivative_of_constant_vanishes():
    g = make_grid(512, 20.0)
    f = Field(g, np.full(g.n, 2.5))
    d = stein_derivative(f, 0.4)
    assert field_l2(d) < 1e-12


def test_stein_derivative_rejects_bad_order():
    g = make_grid(64, 5.0)
    f = Field(g, np.sin(g.xs))
    for b in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            stein_derivative(f, b)


def test_stein_derivative_matches_fourier_constant():
    # || D_b f ||_2 = c_b || |D|^b f ||_2 with c_b^2 = 4 int_0^inf (1-cos z) z^(-1-2b) dz;
    # at b = 1/2 the constant is sqrt(2 pi).
    g = make_grid(2048, 30.0)
    f = Field(g, np.exp(-g.xs**2))
    lhs = field_l2(stein_derivative(f, 0.5))
    rhs = np.sqrt(2 * np.pi) * field_l2(frac_deriv(f, 0.5))
    assert lhs / rhs == pytest.approx(1.0, abs=0.05)


def test_stein_derivative_resolution_stable():
    vals = []
    for n, L in ((1024, 30.0), (2048, 30.0)):
        g = make_grid(n, L)
        f = Field(g, np.exp(-g.xs**2) * np.cos(g.xs))
        vals.append(field_l2(stein_derivative(f, 0.3)))
    assert vals[1] / vals[0] == pytest.approx(1.0, abs=0.02)


def _band_limited(grid, seed, modes=40):
    rng = np.random.default_rng(seed)
    c = np.zeros(grid.n, dtype=complex)
    k = np.arange(1, modes + 1)
    amp = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
    c[k] = amp
    c[-k] = np.conj(amp)
    vals = np.fft.ifft(c).real
    vals *= np.exp(-((grid.xs / (0.6 * grid.L)) ** 8))
    return Field(grid, vals)


def test_stein_product_rule_pointwise():
    # D_b(fg)(x) <= |f(x)| D_b g(x) + sup|g| D_b f(x), Minkowski split
    g = make_grid(512, 20.0)
    b = 0.35
    for seed in range(12):
        f = _band_limited(g, 2 * seed)
        h = _band_limited(g, 2 * seed + 1)
        prod = Field(g, f.values * h.values)
        lhs = stein_derivative(prod, b).values
        rhs = (
            np.abs(f.values) * stein_derivative(h, b).values
            + np.max(np.abs(h.values)) * stein_derivative(f, b).values
        )
        assert np.all(lhs <= rhs * (1 + 1e-9) + 1e-12)


# ------------------------------------------------------------ smooth cutoffs


def test_cutoff_plateau_and_support():
    xs_in = np.linspace(-1, 1, 41)
    np.testing.assert_allclose(cutoff_bump(xs_in), 1.0, atol=1e-15)
    xs_out = np.array([-2.0, 2.0, 2.5, -7.0])
    np.testing.assert_allclose(cutoff_bump(xs_out), 0.0, atol=1e-15)
    # values saturate to 1.0 in doubles right at the junctions; probe the
    # middle of the transition band for strict interior values
    mid = cutoff_bump(np.linspace(1.2, 1.8, 50))
    assert np.all((mid > 0) & (mid < 1))
    assert np.all(np.diff(mid) < 0)


def test_cutoff_smooth_at_junction():
    # infinitely flat: a few one-sided derivatives vanish numerically
    h = 1e-3
    for x0 in (1.0, 2.0):
        samples = cutoff_bump(np.array([x0 + h, x0 + 2 * h, x0 + 4 * h]))
        inside = cutoff_bump(np.array([x0 - h]))[0]
        # second difference stays tiny across the junction
        assert abs(samples[1] - 2 * samples[0] + inside) < 5e-4


# -------------------------------------------- pointwise probe quadrature


def _brute_force_pointwise(gfun, eta, theta, n=4_000_001, cell=1e-3):
    # integrate over the support [-2, 2] only; |y| > 2 is the exact tail term
    ys = np.linspace(-2.0, 2.0, n)
    ge = float(gfun(np.array([eta]))[0])
    gy = gfun(ys)
    d = np.abs(eta - ys)
    keep = d > cell
    total = np.trapezoid(
        np.where(keep, (ge - gy) ** 2 / np.maximum(d, cell) ** (1 + 2 * theta), 0.0), ys
    )
    h = 1e-6
    gp = (gfun(np.array([eta + h]))[0] - gfun(np.array([eta - h]))[0]) / (2 * h)
    total += gp**2 * 2 * cell ** (2 - 2 * theta) / (2 - 2 * theta)
    Y0 = 2.0
    if abs(eta) < Y0:
        total += ge**2 * ((Y0 - eta) ** (-2 * theta) + (Y0 + eta) ** (-2 * theta)) / (2 * theta)
    return float(np.sqrt(total))


def test_stein_pointwise_against_brute_force():
    def g(x):
        return np.abs(x) ** 0.5 * cutoff_bump(x)

    for eta, theta in ((0.37, 0.4), (0.02, 0.6), (1.4, 0.3)):
        fast = stein_pointwise(g, eta, theta)
        slow = _brute_force_pointwise(g, eta, theta)
        assert fast == pytest.approx(slow, rel=2e-3)


def test_stein_pointwise_outside_support():
    # probe beyond the support: integral of g^2 against the kernel, no tail term
    def g(x):
        return cutoff_bump(x)

    eta, theta = 5.0, 0.4
    fast = stein_pointwise(g, eta, theta)
    ys = np.linspace(-2.0, 2.0, 400001)
    slow = np.sqrt(np.trapezoid(g(ys) ** 2 / np.abs(eta - ys) ** (1 + 2 * theta), ys))
    assert fast == pytest.approx(slow, rel=1e-4)
    assert np.isfinite(fast)


def test_stein_pointwise_quadrature_refinement():
    def g(x):
        return np.abs(x) ** 0.25 * cutoff_bump(x)

    for eta in (1e-3, 0.1, 10.0):
        coarse = stein_pointwise(g, eta, 0.5, points_per_decade=120)
        fine = stein_pointwise(g, eta, 0.5, points_per_decade=480)
        assert coarse == pytest.approx(fine, rel=1e-3)


def test_stein_pointwise_rejects_bad_theta():
    with pytest.raises(ValueError):
        stein_pointwise(lambda x: cutoff_bump(x), 0.5, 1.2)


# --------------------------------------------------------- symbol asymptotics


@pytest.mark.parametrize(
    "alpha,theta",
    [(0.25, 0.5), (0.5, 0.75), (0.25, 0.75)],
)
def test_asymptotics_small_probe_exponent(alpha, theta):
    r = stein_asymptotics(alpha, theta)
    assert not r.subtracted
    assert r.p_small == pytest.approx(alpha - theta, abs=0.1)
    assert r.r2_small >= 0.995
    assert not r.inconclusive_small


@pytest.mark.parametrize(
    "alpha,theta",
    [(0.25, 0.5), (0.5, 0.75), (0.25, 0.75), (0.75, 0.5)],
)
def test_asymptotics_large_probe_exponent(alpha, theta):
    r = stein_asymptotics(alpha, theta)
    assert r.p_large == pytest.approx(-(0.5 + theta), abs=0.1)
    assert r.r2_large >= 0.995
    assert not r.inconclusive_large


def test_asymptotics_subtracted_branch_reports_plateau():
    # alpha > theta: finite positive plateau, positive residual slope; the
    # residual exponent reflects the energy correction, not alpha - theta,
    # so only qualitative structure is asserted here
    r = stein_asymptotics(0.5, 0.25)
    assert r.subtracted
    assert r.plateau is not None and r.plateau > 0
    assert r.p_small > 0
    assert r.values_small.min() > 0


def test_asymptotics_rejects_equal_orders():
    with pytest.raises(ValueError):
        stein_asymptotics(0.5, 0.5)


def test_l2_threshold_dichotomy():
    below = l2_threshold_probe(0.25, 0.65, decades=3)
    above = l2_threshold_probe(0.25, 0.85, decades=3)
    assert np.all(np.diff(below) < 0)
    assert np.all(np.diff(above) > 0)
    assert above[-1] / above[0] > 2.0


def test_negative_power_product_bounded():
    etas, prod = negative_power_probe(0.25, 0.25)
    assert np.all(np.isfinite(prod)) and np.all(prod > 0)
    assert prod.max() / prod.min() < 2.5


def test_bbm_symbol_bound_modest_constant():
    _, ratios, C = bbm_symbol_stein_bound(0.5, 0.5)
    assert np.all(np.isfinite(ratios))
    assert C < 2.0


# ------------------------------------------------------- interpolation ratio


def test_interpolation_ratio_endpoints_exact():
    g = make_grid(1024, 25.0)
    f = Field(g, np.exp(-g.xs**2) * (1 + 0.3 * np.sin(g.xs)))
    assert interpolation_ratio(f, s=1.0, b=1.0, theta=0.0) == pytest.approx(1.0, rel=1e-12)
    assert interpolation_ratio(f, s=1.0, b=1.0, theta=1.0) == pytest.approx(1.0, rel=1e-12)


def test_interpolation_ratio_bounded_on_dilations():
    g = make_grid(2048, 40.0)
    for lam in (0.5, 1.0, 2.0, 4.0):
        f = Field(g, np.exp(-((lam * g.xs) ** 2)))
        r = interpolation_ratio(f, s=0.75, b=1.0, theta=0.5)
        assert 0.5 < r < 2.0


@pytest.mark.parametrize(
    "probe",
    [
        lambda: negative_power_probe(0.0, 0.25),
        lambda: negative_power_probe(0.5, 0.25),
        lambda: interpolation_ratio(Field(make_grid(64, 5.0), np.ones(64)), 1.0, 1.0, -0.1),
        lambda: interpolation_ratio(Field(make_grid(64, 5.0), np.ones(64)), 1.0, 1.0, 1.1),
    ],
    ids=["beta-zero", "beta-half", "theta-below-0", "theta-above-1"],
)
def test_probes_reject_orders_out_of_range(probe):
    with pytest.raises(ValueError, match="must lie in"):
        probe()


def test_interpolation_ratio_rejects_zero_field():
    g = make_grid(256, 10.0)
    with pytest.raises(ValueError):
        interpolation_ratio(Field(g, np.zeros(g.n)), 1.0, 1.0, 0.5)
