"""Petviashvili solver, exact dilation, and tail-exponent fitting.

The alpha = 2 profile has the closed form 3 sech^2(x/2), which pins the
whole normalization chain; fractional cases are validated through the
equation residual and the dilation identity.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fbbmlab.ground_state as ground_state
from fbbmlab.spectral import (
    Field,
    _dct1_twiddle,
    _half_l2,
    _parseval,
    frac_deriv_symbol,
    make_grid,
)
from fbbmlab.ground_state import (
    _MIX_DEPTH,
    _MIX_GUARD,
    NonConvergenceError,
    StabilizerDegenerateError,
    _check_tol,
    _tail_samples,
    fit_tail_exponent,
    normalized_residual,
    petviashvili,
    scale_to_speed,
    traveling_wave_residual,
)


@pytest.fixture(scope="module")
def grid():
    return make_grid(4096, 100.0)


@pytest.fixture(scope="module")
def wave_half(grid):
    return petviashvili(grid, 0.5, tol=1e-12)


def test_second_order_profile_is_sech_squared(grid):
    r = petviashvili(grid, 2.0, tol=1e-12)
    exact = 3.0 / np.cosh(grid.xs / 2.0) ** 2
    assert np.max(np.abs(r.wave.values - exact)) < 1e-6
    assert r.residual < 1e-10


def test_fractional_profile_residual(wave_half):
    assert wave_half.residual < 1e-10
    assert normalized_residual(wave_half.wave, 0.5) < 1e-10


def test_profile_even_and_nonnegative(wave_half):
    v = wave_half.wave.values
    # grid point x_0 = -L has no mirror; the solve mirrors the samples
    # j = 0..n/2 into the rest, so v[1:] is bitwise its own reverse
    np.testing.assert_array_equal(v[1:], v[1:][::-1])
    assert v.min() >= 0.0


def test_returned_wave_is_the_converged_iterate():
    # zeroing the slightly negative far tail of this alpha = 2 solve raised
    # the returned residual from 8.5e-13 to 3.2e-11, past tol
    grid = make_grid(1024, 200.0)
    r = petviashvili(grid, 2.0, tol=1e-12)
    assert r.residual <= 1e-12
    exact = 3.0 / np.cosh(grid.xs / 2.0) ** 2
    assert np.max(np.abs(r.wave.values - exact)) <= 1e-6


def test_petviashvili_memory_in_n_length_arrays():
    # the half-length guess, iterates and mixing history, and the returned
    # wave: measured 5.74 n-length arrays; 6.74 with the guess built from
    # all n points, psi^2/2 made beside the samples and the grid holding
    # its wavenumbers, 8.18 with the grid's n points stored and a
    # full-length confirmation, and 8.68 when the grid also held n
    # wavenumbers
    n = 2**16
    _dct1_twiddle.cache_clear()  # so the twiddles count on every run
    tracemalloc.start()
    try:
        petviashvili(make_grid(n, 1600.0), 0.5, tol=1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.2 * 8 * n, f"peak {peak / (8 * n):.2f} n-length arrays"


def test_petviashvili_transforms_are_at_most_quarter_length(monkeypatch):
    # the solve and its confirmation run on the n/2+1 samples through
    # _dct1, whose transforms are at most n/4 long; a full-length
    # confirmation made an rfft of length n
    size, lengths = 2**16, []
    for name in ("rfft", "irfft"):
        def record(a, n=None, *args, _fft=getattr(np.fft, name), **kwargs):
            lengths.append(np.shape(a)[-1] if n is None else n)
            return _fft(a, n, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, record)
    r = petviashvili(make_grid(size, 1600.0), 0.5, tol=1e-10)
    monkeypatch.undo()
    assert r.residual < 1e-10
    assert lengths and max(lengths) <= size // 4, f"transform of length {max(lengths)}"


# iterations of the docstring's solves at tol 1e-10, 1e-13 and 1e-15
_DOCSTRING_SOLVES = {
    (0.75, 2**14): (31, 39, 48),
    (0.5, 2**16): (71, 81, 87),
    (0.5, 2**18): (69, 81, 131),
}


@pytest.mark.parametrize("alpha, n", list(_DOCSTRING_SOLVES))
def test_returned_residual_agrees_with_full_length_check(alpha, n):
    # the returned residual comes from the n/2+1 samples; the full-length
    # normalized_residual of the returned wave agrees with it to 0.12 eps s
    # at most when measured, s = 1 + (pi n / 2L)^alpha, and holds the
    # wave under every tol a config may take
    L = 800.0
    g = make_grid(n, L)
    eps_s = np.finfo(float).eps * (1.0 + (np.pi * n / (2.0 * L)) ** alpha)
    for tol, iterations in zip((1e-10, 1e-13, 1e-15), _DOCSTRING_SOLVES[alpha, n]):
        r = petviashvili(g, alpha, tol=tol)
        full = normalized_residual(r.wave, alpha)
        assert abs(r.residual - full) <= 0.25 * eps_s, (tol, r.residual, full)
        assert r.iterations == iterations, tol
        if tol >= ground_state._tol_floor(alpha, n, L):
            assert full < tol


def _full_length_petviashvili(grid, alpha, tol):
    """Reference: the same iteration on the rfft of all n samples, its
    updates mixed from the guard on with a plain list history."""
    symbol = 1.0 + frac_deriv_symbol(grid, alpha)
    coeffs = np.real(np.fft.rfft(3.0 * np.exp(-(grid.xs**2))))
    size = _half_l2(coeffs, grid)
    fs, gs = [], []  # F = G(x) - x and G(x) of the mixed iterates
    for it in range(1, 401):
        psi = np.fft.irfft(coeffs, grid.n)
        quad = np.real(np.fft.rfft(0.5 * psi**2))
        lin = symbol * coeffs
        resid = _half_l2(lin - quad, grid) / size
        if resid < tol:
            return psi, it
        M = _parseval(coeffs, lin, grid) / _parseval(coeffs, quad, grid)
        g = quad * M**2 / symbol
        if gs or resid < _MIX_GUARD:
            fs, gs = (fs + [g - coeffs])[-_MIX_DEPTH - 1 :], (gs + [g])[-_MIX_DEPTH - 1 :]
            dF = [b - a for a, b in zip(fs, fs[1:])]
            dG = [b - a for a, b in zip(gs, gs[1:])]
            if dF:
                gram = np.array([[_parseval(a, b, grid) for b in dF] for a in dF])
                rhs = np.array([_parseval(a, fs[-1], grid) for a in dF])
                gamma = np.linalg.lstsq(gram, rhs, rcond=None)[0]
                g = g - sum(c * d for c, d in zip(gamma, dG))
        coeffs = g
        size = _half_l2(coeffs, grid)
    raise AssertionError("reference iteration did not converge")


@pytest.mark.parametrize("n, L, alpha", [(2**14, 800.0, 0.75), (2**16, 6400.0, 0.5)])
def test_half_length_solve_matches_full_length_reference(n, L, alpha):
    # the even-sector iteration on n/2+1 samples is the full-length one:
    # same stopping iteration, same profile up to roundoff
    g = make_grid(n, L)
    r = petviashvili(g, alpha, tol=1e-10)
    ref, iterations = _full_length_petviashvili(g, alpha, 1e-10)
    assert r.iterations == iterations
    assert np.max(np.abs(r.wave.values - ref)) <= 1e-13 * np.max(ref)


def test_guarded_mixing_finds_the_plain_wave():
    # mixing from the first step converges here to another even wave (peak
    # 4.4281 at x = -0.25, mass 7.1693); behind the guard the solve finds
    # the plain one, the 2^22 criterion-06 wave at 1/64 of its grid
    n, L = 2**16, 8192.0
    g = make_grid(n, L)
    r = petviashvili(g, 0.25, tol=1e-9)
    v = r.wave.values
    assert r.mixed_from is not None
    assert np.argmax(v) == n // 2  # x = 0
    assert v.max() == pytest.approx(4.9137, rel=1e-4)
    assert np.sum(v) * g.dx == pytest.approx(3.09828, rel=1e-4)


def test_mixing_cuts_iterations():
    # the plain solve takes 104 iterations here
    g = make_grid(2**14, 800.0)
    r = petviashvili(g, 0.75, tol=1e-10)
    assert r.iterations <= 35
    assert r.mixed_from < r.iterations
    # a solve that stops before its first mixed update reports none
    assert petviashvili(g, 0.75, tol=0.5).mixed_from is None


@pytest.mark.parametrize("n, L, alpha", [(64, 10.0, 0.5), (1024, 100.0, 2.0)])
def test_stalled_mixing_ends_in_nonconvergence(n, L, alpha):
    # below the roundoff floor the residual stalls and the mixing
    # differences go singular; the budget, not the solve, must end it
    with pytest.raises(NonConvergenceError):
        petviashvili(make_grid(n, L), alpha, tol=1e-17)


@pytest.mark.parametrize("kwargs", [{"tol": -0.0}, {"tol": float("-inf")}, {"tol": 0.0},
                                    {"tol": -1e-10}, {"tol": float("nan")}])
def test_budget_and_tol_validated_up_front(grid, kwargs):
    # a NaN or nonpositive tol used to spend all 400 iterations before
    # NonConvergenceError; the iteration budget is the fixed MAX_ITER
    with pytest.raises(ValueError, match="tol"):
        petviashvili(grid, 0.5, **kwargs)


def test_stabilizer_history_ends_near_one(wave_half):
    assert abs(wave_half.stabilizers[-1] - 1.0) < 1e-8


def test_default_tolerance_converges(grid):
    r = petviashvili(grid, 0.75)
    assert r.residual < 1e-10


def test_tight_tolerance_reached_on_large_grid():
    # the roundoff floor does not grow with the grid: 1e-13 is reached at
    # n = 2^16 (81 iterations when measured, 321 unmixed; returned
    # residual 8.2e-15)
    g = make_grid(2**16, 800.0)
    r = petviashvili(g, 0.5, tol=1e-13)
    assert r.residual < 2e-13


def test_returned_residual_floor():
    # the stop test reaches tol 1e-15, but the returned residual recomputes
    # the equation from the wave's samples and floors higher (2.8e-15 when
    # measured), so a tol 1e-15 run fails residual_within_tol; the rule a
    # config's tol obeys (3.2e-14 on this grid) sits 4x to 20x above it
    r = petviashvili(make_grid(2**14, 800.0), 0.75, tol=1e-15)
    assert r.residual <= 5e-15
    with pytest.raises(ValueError, match="tol must be"):
        _check_tol(4.0 * r.residual, 0.75, 2**14, 800.0)
    _check_tol(20.0 * r.residual, 0.75, 2**14, 800.0)


@pytest.mark.parametrize("n, L", [(2**20, 262144.0), (2**15, 1600.0), (64, 146.28553447080662),
                                  (4096, 100.0)])
def test_guess_built_from_half_length_arrays(n, L):
    # the n/2+1 points and their mirrors give the even part of the guess on
    # all n points bit for bit, with no n-length array
    g = make_grid(n, L)
    v = 3.0 * np.exp(-(g.xs**2))
    j = np.arange(n // 2 + 1)
    assert ground_state._even_samples(g).tobytes() == (0.5 * (v[j] + v[-j])).tobytes()


def test_negative_guess_degenerates(grid, monkeypatch):
    # the guess is fixed; its negative stands in for bad data
    even = ground_state._even_samples
    monkeypatch.setattr(ground_state, "_even_samples", lambda g: -even(g))
    with pytest.raises(StabilizerDegenerateError):
        petviashvili(grid, 0.5)


def test_iteration_budget_enforced(grid, monkeypatch):
    monkeypatch.setattr(ground_state, "MAX_ITER", 3)
    with pytest.raises(NonConvergenceError):
        petviashvili(grid, 0.5, tol=1e-12)


def test_input_validation(grid):
    with pytest.raises(ValueError):
        petviashvili(grid, 0.0)
    with pytest.raises(ValueError):
        petviashvili(grid, 2.5)


# ------------------------------------------------------------------ dilation


def test_scale_to_speed_exact_traveling_wave(grid):
    r = petviashvili(grid, 0.75, tol=1e-12)
    q = scale_to_speed(r.wave, 0.75, 2.0)
    # exact dilation: equation residual inherits the profile residual
    assert traveling_wave_residual(q, 0.75, 2.0) < 1e-6
    assert traveling_wave_residual(q, 0.75, 2.0) < 10.0 * r.residual + 1e-14


def test_scale_to_speed_amplitude_and_box(wave_half):
    c = 3.0
    q = scale_to_speed(wave_half.wave, 0.5, c)
    lam = ((c - 1.0) / c) ** (1.0 / 0.5)
    assert q.grid.L == pytest.approx(wave_half.wave.grid.L / lam, rel=1e-14)
    assert q.values.max() == pytest.approx(
        0.5 * (c - 1.0) * wave_half.wave.values.max(), rel=1e-14
    )


def test_scale_to_speed_rejects_slow_waves(wave_half):
    for c in (1.0, 0.5, -2.0):
        with pytest.raises(ValueError):
            scale_to_speed(wave_half.wave, 0.5, c)


def test_residual_scaling_across_speeds(grid):
    # residual of the speed-c wave ~ (c-1)^2/2 * profile residual, so it
    # stays at machine scale for moderate c
    r = petviashvili(grid, 0.5, tol=1e-12)
    for c in (1.5, 2.0, 4.0):
        q = scale_to_speed(r.wave, 0.5, c)
        assert traveling_wave_residual(q, 0.5, c) < 1e-8


# ------------------------------------------------------------------ tail fit


def test_tail_fit_recovers_synthetic_exponent():
    g = make_grid(8192, 400.0)
    vals = np.where(np.abs(g.xs) > 0.5, np.abs(g.xs), 1.0) ** -1.6
    p, r2, cnt = fit_tail_exponent(Field(g, vals), (60.0, 240.0))
    assert p == pytest.approx(1.6, abs=1e-8)
    assert r2 > 0.9999999
    assert cnt > 100


def test_tail_fit_default_window():
    g = make_grid(4096, 200.0)
    vals = np.where(np.abs(g.xs) > 0.5, np.abs(g.xs), 1.0) ** -2.0
    p, _, _ = fit_tail_exponent(Field(g, vals))
    assert p == pytest.approx(2.0, abs=1e-8)


def test_tail_fit_window_validation():
    g = make_grid(1024, 100.0)
    f = Field(g, np.exp(-np.abs(g.xs)))
    with pytest.raises(ValueError):
        fit_tail_exponent(f, (50.0, 80.0))  # hi beyond 0.7 L
    with pytest.raises(ValueError):
        fit_tail_exponent(f, (-1.0, 50.0))
    with pytest.raises(ValueError):
        fit_tail_exponent(f, (60.0, 50.0))


def test_tail_fit_rejects_nonpositive_samples():
    g = make_grid(1024, 100.0)
    vals = np.exp(-np.abs(g.xs))
    vals[(g.xs > 20) & (g.xs < 30)] = 0.0
    with pytest.raises(ValueError, match="nonpositive"):
        fit_tail_exponent(Field(g, vals), (15.0, 60.0))


def test_tail_fit_rejects_sparse_window():
    g = make_grid(1024, 100.0)
    f = Field(g, np.exp(-np.abs(g.xs)))
    with pytest.raises(ValueError, match="samples"):
        fit_tail_exponent(f, (50.0, 50.2))


@settings(max_examples=300, deadline=None)
@given(
    n=st.sampled_from([16, 64, 4096]),
    L=st.floats(0.01, 1e6),
    start=st.integers(0, 10**6),
    width=st.integers(0, 12),
    nudge=st.tuples(*[st.sampled_from([-np.inf, 0.0, np.inf])] * 2),
)
def test_tail_samples_are_the_grid_mask(n, L, start, width, nudge):
    # the window rule counts the fit's samples without the grid; windows
    # ending on a grid point or one ulp to either side test its rounding
    g = make_grid(n, L)
    j = n // 2 + 1 + start % (n // 5)
    ends = (g.xs[j], g.xs[min(j + width, n - 1)])
    lo, hi = (x if d == 0 else np.nextafter(x, d) for x, d in zip(ends, nudge))
    mask = (g.xs >= lo) & (g.xs <= hi)
    if not 0 < lo < hi <= 0.7 * L or np.count_nonzero(mask) < 8:
        with pytest.raises(ValueError):
            _tail_samples((lo, hi), g)
    else:
        picked = np.arange(n)[_tail_samples((lo, hi), g)]
        np.testing.assert_array_equal(picked, np.flatnonzero(mask))


def test_profile_tail_exponent_smoke(wave_half):
    # power-law decay is visible on a modest box, but the periodic image
    # floor and the subleading kernel term bias the exponent well below
    # 1 + alpha; large boxes (see the acceptance suite) remove the bias
    p, r2, _ = fit_tail_exponent(wave_half.wave, (10.0, 40.0))
    assert 0.9 < p < 1.6
    assert r2 > 0.99
