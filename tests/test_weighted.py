"""Weights, weighted norms, and squared-difference derivatives.

Oracles here are independent of the implementation: closed-form Gaussian
moments and brute-force uniform-grid quadrature for the pointwise
derivative.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbbmlab.spectral import Field, field_l2, make_grid
from fbbmlab.weighted import (
    bbm_symbol_stein_bound,
    cutoff_bump,
    interpolation_ratio,
    l2_threshold_probe,
    negative_power_probe,
    stein_asymptotics,
    stein_pointwise,
    weight_values,
    weighted_norm,
)

# ------------------------------------------------------------------ weights


def test_plain_weight_matches_formula():
    xs = np.linspace(-50, 50, 1001)
    w = weight_values(xs, 0.7)
    np.testing.assert_allclose(w, (1 + xs**2) ** 0.35, rtol=1e-14)


@settings(max_examples=40, deadline=None)
@given(theta=st.floats(min_value=0.05, max_value=2.5), X=st.floats(min_value=2.0, max_value=400.0))
def test_plain_weight_even_and_monotone(theta, X):
    xs = np.linspace(0, X, 4001)
    w = weight_values(xs, theta)
    assert w[0] == 1.0
    assert np.all(np.diff(w) >= 0)
    np.testing.assert_array_equal(weight_values(-xs, theta), w)


def test_plain_weight_slope():
    # d/dx <x>^theta = theta x <x>^(theta - 2), the slope the truncation capped
    theta = 1.1
    xs = np.linspace(10.0, 30.0, 8001)
    dw = np.gradient(weight_values(xs, theta), xs)
    ref = theta * xs * (1 + xs**2) ** (theta / 2 - 1)
    np.testing.assert_allclose(dw[1:-1], ref[1:-1], rtol=1e-6)


def test_weight_of_order_zero_is_plain_l2():
    g = make_grid(512, 20.0)
    f = Field(g, np.exp(-g.xs**2 / 8) * np.cos(g.xs))
    np.testing.assert_array_equal(weight_values(g.xs, 0.0), 1.0)
    assert weighted_norm(f, 0.0) == pytest.approx(field_l2(f), rel=1e-15)


@pytest.mark.parametrize(
    "probe",
    [
        lambda: weight_values(np.linspace(-1, 1, 5), -0.1),
        # weight order (1 - theta) b = -0.5
        lambda: interpolation_ratio(Field(make_grid(64, 5.0), np.ones(64)), 1.0, -1.0, 0.5),
    ],
    ids=["weight_values", "interpolation_ratio"],
)
def test_weights_reject_negative_order(probe):
    with pytest.raises(ValueError, match="decay order"):
        probe()


def test_weighted_norm_gaussian_moment():
    # ||<x> exp(-x^2/2)||_2^2 = int (1+x^2) e^{-x^2} = (3/2) sqrt(pi)
    g = make_grid(4096, 40.0)
    f = Field(g, np.exp(-g.xs**2 / 2))
    assert weighted_norm(f, 1.0) == pytest.approx(np.sqrt(1.5 * np.sqrt(np.pi)), rel=1e-10)


def test_weighted_norm_increases_with_order():
    g = make_grid(2048, 60.0)
    f = Field(g, np.exp(-g.xs**2 / 8))
    norms = [weighted_norm(f, r) for r in (0.0, 0.5, 1.0, 1.4, 2.0)]
    assert np.all(np.diff(norms) > 0)


def test_weighted_norm_bounded_on_the_box():
    # on [-L, L) the weight never exceeds <L>^r, so no truncation is needed
    g = make_grid(1024, 30.0)
    f = Field(g, np.ones(g.n))
    for r in (0.5, 1.4, 3.0):
        assert weighted_norm(f, r) <= (1 + g.L**2) ** (r / 2) * field_l2(f)


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


def _two_ramp_bump(x):
    # the bump as a / (a + b) of exp(-1/t) ramps taken on the whole line
    s = (np.abs(x) - 1.0) / (2.0 - 1.0)
    a, b = np.zeros_like(s), np.zeros_like(s)
    a[1.0 - s > 0] = np.exp(-1.0 / (1.0 - s[1.0 - s > 0]))
    b[s > 0] = np.exp(-1.0 / s[s > 0])
    return a / (a + b)


def test_cutoff_matches_two_ramp_formula():
    # the exps are taken only where 1 < |x| < 2; elsewhere the formula reads
    # exactly a / a = 1 or 0 / b = 0, so every sample agrees bit for bit
    edges = np.array([-2.0, -1.0, 1.0, 2.0])
    xs = np.concatenate([np.linspace(-3.0, 3.0, 600001), edges,
                         np.nextafter(edges, 0.0), np.nextafter(edges, np.sign(edges) * 3.0)])
    assert cutoff_bump(xs).tobytes() == _two_ramp_bump(xs).tobytes()


def test_cutoff_smooth_at_junction():
    # infinitely flat: a few one-sided derivatives vanish numerically
    h = 1e-3
    for x0 in (1.0, 2.0):
        samples = cutoff_bump(np.array([x0 + h, x0 + 2 * h, x0 + 4 * h]))
        inside = cutoff_bump(np.array([x0 - h]))[0]
        # second difference stays tiny across the junction
        assert abs(samples[1] - 2 * samples[0] + inside) < 5e-4


# -------------------------------------------- pointwise probe quadrature


def test_stein_probes_leave_numpy_ma_unimported():
    # the probes' nodes are deduplicated without np.unique, whose import of
    # numpy.ma cost 13 ms of a cold run
    code = ("import sys\n"
            "from fbbmlab.weighted import stein_asymptotics\n"
            "stein_asymptotics(0.25, 0.5)\n"
            "print('numpy.ma' in sys.modules)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


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


def test_stein_pointwise_rejects_orders_outside_unit_interval():
    for theta in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError, match="must lie in"):
            stein_pointwise(cutoff_bump, 0.5, theta)


def test_stein_pointwise_homogeneous():
    def g(x):
        return np.abs(x) ** 0.5 * cutoff_bump(x)

    for eta in (0.05, 0.8, 7.0):
        base = stein_pointwise(g, eta, 0.4)
        scaled = stein_pointwise(lambda x: -3.0 * g(x), eta, 0.4)
        assert scaled == pytest.approx(3.0 * base, rel=1e-12)


def test_stein_pointwise_even_function_symmetric():
    def g(x):
        return np.abs(x) ** 0.25 * cutoff_bump(x) * np.cos(2 * x)

    for eta in (0.03, 0.6, 1.5, 4.0):
        assert stein_pointwise(g, -eta, 0.55) == pytest.approx(
            stein_pointwise(g, eta, 0.55), rel=1e-6
        )


def test_stein_pointwise_product_rule():
    # D(fh)(eta) <= |f(eta)| D h(eta) + sup|h| D f(eta), Minkowski split of
    # f(eta) h(eta) - f(y) h(y) = f(eta) (h(eta) - h(y)) + h(y) (f(eta) - f(y))
    rng = np.random.default_rng(5)
    ys = np.linspace(-2.0, 2.0, 40001)
    for _ in range(6):
        a, b = rng.standard_normal(2), rng.uniform(1.0, 6.0, 2)

        def f(x, a=a, b=b):
            return cutoff_bump(x) * np.cos(b[0] * x + a[0])

        def h(x, a=a, b=b):
            return cutoff_bump(x) * (1.5 + np.sin(b[1] * x + a[1]))

        sup_h = np.max(np.abs(h(ys)))
        for eta in (0.1, 0.9, 1.6, 3.0):
            lhs = stein_pointwise(lambda x: f(x) * h(x), eta, 0.35)
            rhs = abs(f(np.array([eta]))[0]) * stein_pointwise(h, eta, 0.35) + (
                sup_h * stein_pointwise(f, eta, 0.35)
            )
            assert lhs <= rhs * (1 + 1e-9) + 1e-12


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
