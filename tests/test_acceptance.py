"""Acceptance suite: one test per shipped guarantee, with pinned tolerances.

Each test prints a single ``[criterion NN] PASS/FAIL`` line carrying the
measured numbers before asserting, so

    pytest tests/test_acceptance.py -v -rA

yields a per-criterion scoreboard even when a criterion fails.

Criterion 04 fails by design on this integrator: the invariant drift of
the Lawson scheme shrinks by a factor of about 32 per dt halving (fifth
order superconvergence of the conserved functionals), outside the
required [12, 20] window that a plain fourth-order scheme would show.
The solution error itself converges at fourth order.  See README
(acceptance section) for the analysis; the criterion is asserted as
stated rather than weakened to match the implementation.
"""

import time

import numpy as np

from fft_reference import last_state
from fbbmlab.spectral import (
    Field,
    _half_l2,
    deriv,
    field_l2,
    frac_deriv,
    group_propagate,
    group_symbol,
    group_symbol_dxi,
    group_symbol_dxi2,
    hilbert,
    make_grid,
    op_a,
    translate,
)
from fbbmlab.evolution import EvolveConfig, diagnostics_series, mass
from fbbmlab.ground_state import (
    fit_tail_exponent,
    petviashvili,
    scale_to_speed,
    traveling_wave_residual,
)
from fbbmlab.weighted import (
    interpolation_ratio,
    l2_threshold_probe,
    negative_power_probe,
    stein_asymptotics,
)
from fbbmlab.estimates import (
    commutator_a_ratio,
    group_weighted_growth,
    hilbert_commutator_ratio,
    make_corpus,
    ratio_report,
    ucp_residual,
)


def report(num, ok, detail):
    """One scoreboard line per criterion, printed before the assert."""
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


# ------------------------------------------------------------ 01: operators


def test_criterion_01_spectral_exactness():
    # single Fourier modes are exact eigenfunctions of every multiplier;
    # the half-spectrum roundtrip and Parseval identity the solvers run on
    # hold to 1e-12
    t0 = time.perf_counter()
    g = make_grid(4096, 50.0)
    tol = 1e-12
    worst = 0.0
    for k in (1, 7, 113, 1500):
        q = np.pi * k / g.L
        f = Field(g, np.cos(q * g.xs + 0.3))
        s, c = np.sin(q * g.xs + 0.3), np.cos(q * g.xs + 0.3)
        for got, want in (
            (frac_deriv(f, 0.5).values, q**0.5 * c),
            (op_a(f, 0.5).values, q / (1.0 + q**0.5) * s),
            (hilbert(f).values, s),
            (deriv(f, 1).values, -q * s),
        ):
            scale = float(np.max(np.abs(want)))
            worst = max(worst, float(np.max(np.abs(got - want))) / scale)

    u = Field(g, np.exp(-(g.xs / 7.0) ** 2) * (1.0 + 0.5 * np.cos(1.3 * g.xs)))
    half = np.fft.rfft(u.values)
    rt = float(np.max(np.abs(np.fft.irfft(half, g.n) - u.values)))
    rt /= float(np.max(np.abs(u.values)))
    pars = abs(field_l2(u) - _half_l2(half, g)) / field_l2(u)

    dt = time.perf_counter() - t0
    ok = worst <= tol and rt <= tol and pars <= tol and dt < 1.0
    report(
        1,
        ok,
        f"eigenvalue err {worst:.3e}, roundtrip {rt:.3e}, "
        f"Parseval {pars:.3e} (tol {tol:g}), {dt:.2f}s",
    )


# ------------------------------------------------------------ 02: free group


def test_criterion_02_group_unitarity():
    t0 = time.perf_counter()
    g = make_grid(4096, 100.0)
    u = Field(g, np.exp(-(g.xs**2) / 8.0) * (1.0 + 0.3 * np.cos(0.7 * g.xs)))
    base = field_l2(u)
    tol = 1e-12

    drift = max(
        abs(field_l2(group_propagate(u, t, 0.5)) - base) / base for t in (1.0, 10.0, 100.0)
    )
    two_step = group_propagate(group_propagate(u, 3.7, 0.5), 6.3, 0.5)
    one_step = group_propagate(u, 10.0, 0.5)
    comp = field_l2(Field(g, two_step.values - one_step.values)) / base

    dt = time.perf_counter() - t0
    ok = drift <= tol and comp <= tol and dt < 1.0
    report(
        2,
        ok,
        f"norm drift {drift:.3e} over t in (1, 10, 100), "
        f"composition gap {comp:.3e} (tol {tol:g}), {dt:.2f}s",
    )


# ---------------------------------------------- 03: symbol derivative forms


def test_criterion_03_symbol_derivatives_vs_fd():
    # central differences at two step sizes straddle the closed forms at
    # second order: halving h divides the error by 4 (window (3, 5))
    t0 = time.perf_counter()
    g = make_grid(4096, 50.0)
    idx = np.array([8, 16, 32, 64, 128, 256, 512, 800, 1200, 1600])
    xi = g.xis[idx]  # ten lattice frequencies, 0.5 <= xi <= 100.5
    t, alpha = 1.5, 0.5

    def fd1(h):
        fd = (group_symbol(xi + h, t, alpha) - group_symbol(xi - h, t, alpha)) / (2 * h)
        return np.abs(fd - group_symbol_dxi(xi, t, alpha))

    def fd2(h):
        fd = (
            group_symbol(xi + h, t, alpha)
            - 2.0 * group_symbol(xi, t, alpha)
            + group_symbol(xi - h, t, alpha)
        ) / h**2
        return np.abs(fd - group_symbol_dxi2(xi, t, alpha))

    e1a, e1b = fd1(1e-3), fd1(5e-4)
    r1 = e1a / np.maximum(e1b, 1e-15)
    e2a, e2b = fd2(2e-2), fd2(1e-2)
    r2 = e2a / np.maximum(e2b, 1e-12)

    dt = time.perf_counter() - t0
    ok = (
        bool(np.all(e1a < 1e-4))
        and bool(np.all((r1 > 3.0) & (r1 < 5.0)))
        and bool(np.all(e2a < 1e-2))
        and bool(np.all((r2 > 3.0) & (r2 < 5.0)))
        and dt < 1.0
    )
    report(
        3,
        ok,
        f"d/dxi err {e1a.max():.2e} ratio [{r1.min():.2f}, {r1.max():.2f}], "
        f"d2/dxi2 err {e2a.max():.2e} ratio [{r2.min():.2f}, {r2.max():.2f}] "
        f"(want (3, 5)), {dt:.2f}s",
    )


# -------------------------------------------------- 04: conservation drift


def test_criterion_04_conservation_drift():
    # EXPECTED FAIL.  Mass is conserved to roundoff (the zero mode is
    # frozen bitwise), but the energy and Hamiltonian drifts shrink by
    # about 32x per dt halving, not the 12..20x a fourth-order envelope
    # predicts: the invariant error of the Lawson step superconverges at
    # fifth order.  Measured on this exact configuration:
    #   energy       9.64e-07 -> 3.06e-08   ratio 31.45
    #   hamiltonian  1.29e-06 -> 3.95e-08   ratio 32.53
    # The assertion states the required window and fails honestly.
    t0 = time.perf_counter()
    g = make_grid(4096, 100.0)
    u0 = Field(g, 2.0 * np.exp(-((g.xs / 3.0) ** 2)))

    def drifts(step):
        d = diagnostics_series(u0, EvolveConfig(alpha=0.5, dt=step, t_final=10.0))
        out = {}
        for name in ("mass", "energy", "hamiltonian"):
            s = getattr(d, name)
            out[name] = float(np.max(np.abs(s - s[0])) / abs(s[0]))
        return out

    coarse = drifts(5e-3)
    fine = drifts(2.5e-3)
    ratio_e = coarse["energy"] / fine["energy"]
    ratio_h = coarse["hamiltonian"] / fine["hamiltonian"]

    dt = time.perf_counter() - t0
    mass_ok = coarse["mass"] <= 1e-8 and fine["mass"] <= 1e-8
    window_ok = 12.0 <= ratio_e <= 20.0 and 12.0 <= ratio_h <= 20.0
    ok = mass_ok and window_ok and dt < 120.0
    report(
        4,
        ok,
        f"mass drift {coarse['mass']:.2e}/{fine['mass']:.2e} (tol 1e-08), "
        f"energy drift {coarse['energy']:.3e}->{fine['energy']:.3e} ratio {ratio_e:.2f}, "
        f"hamiltonian {coarse['hamiltonian']:.3e}->{fine['hamiltonian']:.3e} "
        f"ratio {ratio_h:.2f} (required window [12, 20]), {dt:.0f}s",
    )


# ------------------------------------------------- 05: solitary wave oracles


def test_criterion_05_solitary_wave_oracles():
    t0 = time.perf_counter()
    g = make_grid(4096, 100.0)

    # closed form at the classical endpoint: 3 / cosh(x/2)^2
    r2 = petviashvili(g, 2.0, tol=1e-11)
    oracle = 3.0 / np.cosh(g.xs / 2.0) ** 2
    sup_err = float(np.max(np.abs(r2.wave.values - oracle)))

    # fractional profile rescaled to speed 2 must satisfy the wave equation
    r = petviashvili(g, 0.75, tol=1e-11)
    q = scale_to_speed(r.wave, 0.75, 2.0)
    res = traveling_wave_residual(q, 0.75, 2.0)

    dt = time.perf_counter() - t0
    ok = sup_err <= 1e-6 and res <= 1e-6 and dt < 30.0
    report(
        5,
        ok,
        f"closed-form sup error {sup_err:.3e}, scaled-wave residual {res:.3e} "
        f"(tol 1e-06), {dt:.1f}s",
    )


# ------------------------------------------------------- 06: algebraic tails


def test_criterion_06_tail_exponents():
    # profile tails decay like x^-(1+alpha); the fitted exponent must sit
    # within 0.15 of that, with R^2 >= 0.995, and move by at most 0.05
    # when the box doubles.  Grids are sized so the fit window lies well
    # inside the box and above the spectral floor; the smallest alpha
    # needs a huge box and keeps n fixed when doubling L.
    cases = [
        # alpha, n, L, window, tol, double_n_with_L
        (0.75, 2**14, 800.0, (30.0, 120.0), 1e-10, True),
        (0.5, 2**16, 6400.0, (100.0, 960.0), 1e-10, True),
        (0.25, 2**22, 524288.0, (2000.0, 8000.0), 1e-9, False),
    ]
    lines = []
    ok = True
    for alpha, n, L, window, tol, double_n in cases:
        t0 = time.perf_counter()
        wave = petviashvili(make_grid(n, L), alpha, tol=tol).wave
        p, r2, _ = fit_tail_exponent(wave, window)
        n2 = 2 * n if double_n else n
        wave2 = petviashvili(make_grid(n2, 2.0 * L), alpha, tol=tol).wave
        p2, _, _ = fit_tail_exponent(wave2, window)
        dt = time.perf_counter() - t0
        good = (
            abs(p - (1.0 + alpha)) <= 0.15
            and r2 >= 0.995
            and abs(p2 - p) <= 0.05
            and dt < 120.0
        )
        ok = ok and good
        lines.append(
            f"alpha={alpha}: p={p:.4f} (target {1 + alpha:.2f}), R2={r2:.6f}, "
            f"L-doubled p={p2:.4f} (|shift| {abs(p2 - p):.4f}), {dt:.0f}s"
        )
    report(6, ok, "; ".join(lines))


# --------------------------------------------- 07: traveling wave evolution


def test_criterion_07_traveling_wave_evolution():
    t0 = time.perf_counter()
    g = make_grid(4096, 100.0)
    r = petviashvili(g, 0.75, tol=1e-11)
    q = scale_to_speed(r.wave, 0.75, 2.0)
    final = last_state(q, EvolveConfig(alpha=0.75, dt=0.005, t_final=5.0))
    expected = translate(q, 10.0)  # speed 2, time 5
    err = field_l2(Field(q.grid, final - expected.values)) / field_l2(expected)

    dt = time.perf_counter() - t0
    ok = err <= 1e-3 and dt < 120.0
    report(7, ok, f"relative L2 shape error {err:.3e} after t=5 (tol 1e-03), {dt:.0f}s")


# ------------------------------------------------ 08: pointwise decay rates


def test_criterion_08_stein_asymptotics_and_dichotomy():
    # small-probe exponent alpha - theta, large-probe exponent
    # -(1/2 + theta), both within 0.1; squared-probe decade increments
    # flip from summable to divergent across theta = alpha + 1/2
    t0 = time.perf_counter()
    pairs = [(0.25, 0.5), (0.5, 0.75), (0.25, 0.75)]
    lines = []
    ok = True
    for alpha, theta in pairs:
        r = stein_asymptotics(alpha, theta)
        small_ok = abs(r.p_small - (alpha - theta)) <= 0.1 and not r.inconclusive_small
        large_ok = abs(r.p_large + 0.5 + theta) <= 0.1 and not r.inconclusive_large
        ok = ok and small_ok and large_ok
        lines.append(
            f"({alpha},{theta}): small {r.p_small:.4f} (target {alpha - theta:+.2f}), "
            f"large {r.p_large:.4f} (target {-(0.5 + theta):+.2f})"
        )

    below = l2_threshold_probe(0.25, 0.65)  # theta* - 0.1
    above = l2_threshold_probe(0.25, 0.85)  # theta* + 0.1
    dich_ok = bool(np.all(np.diff(below) < 0)) and bool(np.all(np.diff(above) > 0))
    ok = ok and dich_ok

    dt = time.perf_counter() - t0
    ok = ok and dt < 300.0
    lines.append(
        f"dichotomy at alpha=0.25: increments below threshold "
        f"{below[0]:.3f}->{below[-1]:.3f} shrink, above {above[0]:.2f}->{above[-1]:.2f} grow"
    )
    report(8, ok, "; ".join(lines) + f" (tol 0.1), {dt:.0f}s")


# ------------------------------------------- 09: negative power compensation


def test_criterion_09_negative_power_bound():
    # |eta|^(beta + theta) times the probe of the |xi|^-beta symbol stays
    # bounded, and the bound is quadrature-converged: doubling the
    # integration density moves the sup by well under 2x
    t0 = time.perf_counter()
    lines = []
    ok = True
    for beta, theta in [(0.25, 0.25), (0.3, 0.4), (0.45, 0.5), (0.1, 0.75), (0.25, 0.5)]:
        _, p160 = negative_power_probe(beta, theta, quad_points_per_decade=160)
        _, p320 = negative_power_probe(beta, theta, quad_points_per_decade=320)
        sup = float(p160.max())
        factor = float(p320.max()) / sup
        good = (
            bool(np.all(np.isfinite(p160)))
            and bool(np.all(p160 > 0))
            and sup < 5.0
            and 0.5 <= factor <= 2.0
        )
        ok = ok and good
        lines.append(f"({beta},{theta}): sup {sup:.3f}, refinement {factor:.6f}")

    dt = time.perf_counter() - t0
    ok = ok and dt < 120.0
    report(9, ok, "; ".join(lines) + f" (factor window [0.5, 2]), {dt:.1f}s")


# ------------------------------------------------- 10: commutator stability


def test_criterion_10_commutator_corpus():
    # corpus maxima of the weighted commutator ratios are finite and at
    # most double under grid refinement; constant symbols commute exactly
    t0 = time.perf_counter()
    lines = []
    ok = True
    for family, params in (
        ("generator", dict(alpha=0.5)),
        ("hilbert", dict(l=0, m=1)),
        ("hilbert", dict(l=1, m=1)),
        ("fractional", dict(alpha=0.25, beta=0.5)),
    ):
        rep = ratio_report(make_corpus(2048, 50.0, 50, seed=7001), [(family, params)])[0]
        good = (
            np.isfinite(rep.corpus_max)
            and rep.corpus_max > 0
            and 0.5 <= rep.refinement_factor <= 2.0
        )
        ok = ok and good
        tag = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
        lines.append(
            f"{family}({tag}): max {rep.corpus_max:.4f}, "
            f"refinement {rep.refinement_factor:.4f}"
        )

    corpus = make_corpus(2048, 50.0, 8, seed=7001)
    const = Field(corpus.grid, np.full(corpus.grid.n, 1.5))
    const_worst = 0.0
    for i in range(len(corpus)):
        f = corpus.instance(i)[1]
        const_worst = max(const_worst, commutator_a_ratio(const, f, 0.5))
        const_worst = max(const_worst, hilbert_commutator_ratio(const, f, 0, 0))
    lines.append(f"constant symbol worst ratio {const_worst:.2e}")

    dt = time.perf_counter() - t0
    ok = ok and const_worst <= 1e-11 and dt < 300.0
    report(10, ok, "; ".join(lines) + f" (constant tol 1e-11), {dt:.0f}s")


# ----------------------------------------------- 11: weighted group growth


def test_criterion_11_weighted_group_growth():
    # ||<x>^r exp(tA) phi||_2 grows no faster than t^ceil(r): the log-log
    # slope over t in [1, 40] stays below ceil(r) + 0.2.  The box is kept
    # large enough that no tail mass reaches the edge by t = 40.
    t0 = time.perf_counter()
    times = np.linspace(1.0, 40.0, 40)
    cases = [(0.5, 0.7, 1000.0), (0.5, 1.2, 1000.0), (0.75, 1.8, 1500.0)]
    lines = []
    ok = True
    for alpha, r, L in cases:
        g = make_grid(2**14, L)
        phi = Field(g, np.exp(-(g.xs**2)))
        rep = group_weighted_growth(phi, alpha, r, times)
        ok = ok and rep.within_bound
        lines.append(f"(alpha={alpha}, r={r}): slope {rep.slope:.4f} <= {rep.bound:.1f}")

    dt = time.perf_counter() - t0
    ok = ok and dt < 180.0
    report(11, ok, "; ".join(lines) + f", {dt:.0f}s")


# --------------------------------------------------- 12: mass-flux identity


def test_criterion_12_mass_identity_and_interpolation():
    # the residual combining the zero mode with the time-integrated flux
    # vanishes on the zero solution, dominates the initial mass for
    # positive-mean quadratic data, and the norm-interpolation ratio
    # stays within 2x across a dilation family
    t0 = time.perf_counter()

    gz = make_grid(512, 50.0)
    r_zero = ucp_residual(
        Field(gz, np.zeros(gz.n)), EvolveConfig(alpha=0.5, dt=0.05, t_final=1.0), 0.0, 1.0
    )

    g = make_grid(1024, 50.0)
    u0 = Field(g, (0.5 / np.sqrt(np.pi)) * np.exp(-(g.xs**2)))
    m0 = mass(u0)
    r_pos = ucp_residual(u0, EvolveConfig(alpha=0.5, dt=0.01, t_final=5.0), 0.0, 5.0)

    gi = make_grid(2048, 40.0)
    ratios = [
        interpolation_ratio(Field(gi, np.exp(-((lam * gi.xs) ** 2))), s=0.75, b=1.0, theta=0.5)
        for lam in (0.5, 1.0, 2.0, 4.0)
    ]

    dt = time.perf_counter() - t0
    ok = (
        r_zero == 0.0
        and m0 > 0
        and r_pos >= m0 - 1e-12
        and all(0.5 <= r <= 2.0 for r in ratios)
        and dt < 180.0
    )
    report(
        12,
        ok,
        f"zero-data residual {r_zero}, positive-mean residual {r_pos:.6f} >= "
        f"mass {m0:.6f}, dilation interpolation ratios "
        f"[{min(ratios):.3f}, {max(ratios):.3f}] in [0.5, 2], {dt:.0f}s",
    )
