"""Grid, transform, multiplier, and free-group unit tests."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fft_reference import fft_xis
from fbbmlab.evolution import energy, hamiltonian, mass
from fbbmlab.ground_state import normalized_residual, traveling_wave_residual
from fbbmlab.spectral import (
    _DCT1_DIRECT,
    Field,
    Spectrum,
    _dct1,
    _half_l2,
    _half_symbol,
    _parseval,
    _sign,
    a_symbol,
    a_symbol_grid,
    apply_multiplier,
    bessel,
    bessel_symbol,
    deriv,
    field_l2,
    field_linf,
    forward,
    frac_deriv,
    frac_deriv_symbol,
    group_propagate,
    group_symbol,
    group_symbol_dxi,
    group_symbol_dxi2,
    hilbert,
    hilbert_symbol,
    inverse,
    make_grid,
    op_a,
    spectrum_l2,
    translate,
)
from fbbmlab.weighted import interpolation_ratio, weighted_norm


# ---------------------------------------------------------------- grid


def test_grid_integer_wavenumbers():
    g = make_grid(16, np.pi)
    np.testing.assert_allclose(g.xis, np.arange(0, 9), atol=1e-13)
    np.testing.assert_allclose(np.sort(fft_xis(g)), np.arange(-8, 8), atol=1e-13)
    assert g.xs[0] == -np.pi
    assert np.all(np.diff(g.xs) > 0)
    assert len(g.xs) == 16


def test_grid_wavenumber_step():
    g = make_grid(16, 4.0)
    assert np.isclose(np.diff(np.sort(g.xis))[0], np.pi / 4.0)
    assert 0.0 in g.xis.tolist()


@pytest.mark.parametrize("bad_n", [12, 24, 100, 15, 8, 4, 16.0, "16"])
def test_grid_rejects_bad_n(bad_n):
    with pytest.raises(ValueError):
        make_grid(bad_n, 1.0)


@pytest.mark.parametrize("bad_L", [0.0, -1.0, np.nan])
def test_grid_rejects_bad_L(bad_L):
    with pytest.raises(ValueError):
        make_grid(64, bad_L)


def _smallest_admitted_L(n):
    # bisect the positive doubles, which their bit patterns order: lo is
    # rejected, hi admitted
    lo, hi = 1, int(np.float64(1.0).view(np.int64))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            make_grid(n, float(np.int64(mid).view(np.float64)))
            hi = mid
        except ValueError:
            lo = mid
    return float(np.int64(hi).view(np.float64))


@pytest.mark.parametrize("n", [16, 4096])
def test_grid_rejects_L_whose_wavenumbers_overflow(n):
    # the smallest admitted box has a finite Nyquist wavenumber, pi n/2L
    # rounded as make_grid rounds it, and the next double down has none
    L = _smallest_admitted_L(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = make_grid(n, L)
    assert np.all(np.isfinite(g.xis)) and g.xis[-1] > 1e308
    for tiny in (np.nextafter(L, 0.0), 1e-310, 5e-324):
        with pytest.raises(ValueError, match="Nyquist wavenumber"):
            make_grid(n, tiny)


def test_grid_symmetry_up_to_nyquist():
    g = make_grid(64, 7.5)
    xis = set(np.round(fft_xis(g), 12).tolist())
    unpaired = [xi for xi in xis if xi != 0 and -xi not in xis]
    assert unpaired == [min(xis)]


@pytest.mark.parametrize("n, L", [(16, np.pi), (64, 7.5), (256, 146.28553447080662),
                                  (4096, 0.3), (2**20, 262144.0)])
def test_grid_holds_the_rfft_wavenumbers(n, L):
    # the half wavenumbers are the reference's first n/2 to the bit; only
    # the Nyquist one differs, by its sign: +pi n/2L against -pi n/2L
    g = make_grid(n, L)
    full = fft_xis(g)
    assert g.xis.shape == (n // 2 + 1,)
    assert g.xis[:-1].tobytes() == full[: n // 2].tobytes()
    assert g.xis[-1] == -full[n // 2] > 0


# ---------------------------------------------------------------- transform


def test_forward_constant():
    g = make_grid(16, np.pi)
    s = forward(Field(g, np.ones(g.n)))
    k0 = np.argmin(np.abs(fft_xis(g)))
    assert abs(s.coeffs[k0] - 2.0 * np.pi) < 1e-12
    others = np.delete(s.coeffs, k0)
    assert np.max(np.abs(others)) < 1e-12


def test_forward_cosine():
    g = make_grid(16, np.pi)
    s = forward(Field(g, np.cos(g.xs)))
    xi = fft_xis(g)
    kp = np.argmin(np.abs(xi - 1.0))
    km = np.argmin(np.abs(xi + 1.0))
    assert abs(s.coeffs[kp] - np.pi) < 1e-12
    assert abs(s.coeffs[km] - np.pi) < 1e-12


def test_round_trip_gaussian():
    g = make_grid(256, 10.0)
    u = np.exp(-g.xs**2)
    back = inverse(forward(Field(g, u)))
    np.testing.assert_allclose(back.values, u, atol=1e-13)


def _even_extension_rfft(x):
    return np.fft.rfft(np.concatenate((x, x[-2:0:-1]))).real


@pytest.mark.parametrize("N", [_DCT1_DIRECT // 2, _DCT1_DIRECT, 2 * _DCT1_DIRECT, 2**16])
@pytest.mark.parametrize("data", ["random", "smooth"])
def test_dct1_is_the_rfft_of_the_even_extension(N, data):
    # below the crossover _dct1 is that rfft; above it, the split transform
    if data == "random":
        x = np.random.default_rng(N).standard_normal(N + 1)
    else:  # the even-sector samples of a solitary-like profile, x_N at the peak
        x = 3.0 / np.cosh(np.linspace(-40.0, 0.0, N + 1) / 2.0) ** 2
    ref = _even_extension_rfft(x)
    got = _dct1(x)
    assert got.shape == (N + 1,)
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
    back = _dct1(got) / (2 * N)
    assert np.max(np.abs(back - x)) <= 1e-15 * np.max(np.abs(x))


def test_parseval():
    # ||u||_2^2 = (1/2pi) sum |hat(u)|^2 dxi with dxi = pi/L
    g = make_grid(128, 5.0)
    rng = np.random.default_rng(7)
    u = Field(g, rng.standard_normal(g.n))
    lhs = field_l2(u) ** 2
    s = forward(u)
    rhs = np.sum(np.abs(s.coeffs) ** 2) * (np.pi / g.L) / (2.0 * np.pi)
    assert abs(lhs - rhs) < 1e-12 * lhs
    assert abs(field_l2(u) - spectrum_l2(s)) < 1e-12 * field_l2(u)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), log2n=st.integers(4, 8))
def test_round_trip_random(seed, log2n):
    g = make_grid(2**log2n, 3.7)
    u = np.random.default_rng(seed).standard_normal(g.n)
    back = inverse(forward(Field(g, u)))
    np.testing.assert_allclose(back.values, u, atol=1e-12 * max(1, np.max(np.abs(u))))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    log2n=st.integers(4, 12),
    L=st.floats(min_value=0.5, max_value=1e4),
)
def test_half_spectrum_layer(seed, log2n, L):
    # the library's half spectrum is the plain rfft; its one Parseval sum
    # must agree with the continuum reference and with the sample sum
    g = make_grid(2**log2n, L)
    rng = np.random.default_rng(seed)
    u, v = rng.standard_normal(g.n), rng.standard_normal(g.n)
    U, V = np.fft.rfft(u), np.fft.rfft(v)
    assert U.shape == (g.n // 2 + 1,)
    ref = spectrum_l2(forward(Field(g, u)))
    assert _half_l2(U, g) == pytest.approx(ref, rel=1e-13, abs=0)
    assert _half_l2(U, g) == pytest.approx(field_l2(Field(g, u)), rel=1e-13, abs=0)
    scale = field_l2(Field(g, u)) * field_l2(Field(g, v))
    assert abs(_parseval(U, V, g) - g.dx * np.dot(u, v)) <= 1e-13 * scale
    # the rounded phase exp(i xi L) is off by a few ulps of |xi L| <= pi n/2
    eps = np.finfo(float).eps
    np.testing.assert_allclose(
        _sign(g.n), np.exp(1j * fft_xis(g) * g.L), rtol=0, atol=4 * eps * np.pi * g.n / 2
    )


def test_apply_multiplier_rejects_nan():
    g = make_grid(16, 1.0)
    s = forward(Field(g, np.ones(g.n)))
    sym = np.ones(g.n)
    sym[3] = np.nan
    with pytest.raises(ValueError):
        apply_multiplier(s, sym)


def test_apply_multiplier_rejects_shape_mismatch():
    g = make_grid(16, 1.0)
    s = forward(Field(g, np.ones(g.n)))
    with pytest.raises(ValueError):
        apply_multiplier(s, np.ones(g.n + 1))


# ---------------------------------------------------------------- multipliers


def test_frac_deriv_eigenfunction():
    g = make_grid(64, np.pi)
    for alpha in (0.0, 0.25, 0.5, 1.0, 2.0):
        for k in (1, 3, 7):
            u = Field(g, np.cos(k * g.xs))
            out = frac_deriv(u, alpha)
            np.testing.assert_allclose(
                out.values, k**alpha * np.cos(k * g.xs), atol=1e-12 * k**alpha
            )


def test_bessel_eigenfunction():
    g = make_grid(64, np.pi)
    u = Field(g, np.sin(2 * g.xs))
    out = bessel(u, 1.5)
    np.testing.assert_allclose(out.values, 5.0**0.75 * np.sin(2 * g.xs), atol=1e-11)


def test_bessel_negative_order_inverts():
    g = make_grid(64, 2.0)
    u = Field(g, np.exp(-g.xs**2) * np.sin(g.xs))
    round_trip = bessel(bessel(u, 0.8), -0.8)
    np.testing.assert_allclose(round_trip.values, u.values, atol=1e-12)


def test_hilbert_cos_to_sin():
    g = make_grid(64, np.pi)
    out = hilbert(Field(g, np.cos(3 * g.xs)))
    np.testing.assert_allclose(out.values, np.sin(3 * g.xs), atol=1e-12)


def test_hilbert_kills_mean():
    g = make_grid(32, 2.0)
    out = hilbert(Field(g, np.full(g.n, 4.2)))
    assert np.max(np.abs(out.values)) < 1e-13


def test_op_a_constant_is_zero():
    g = make_grid(32, 3.0)
    out = op_a(Field(g, np.full(g.n, 2.0)), 0.5)
    assert np.max(np.abs(out.values)) < 1e-13


def test_op_a_single_mode():
    # A cos(kx) = (k/(1+k^alpha)) sin(kx) on an integer-wavenumber grid
    g = make_grid(64, np.pi)
    alpha, k = 0.5, 2
    out = op_a(Field(g, np.cos(k * g.xs)), alpha)
    expected = k / (1.0 + k**alpha) * np.sin(k * g.xs)
    np.testing.assert_allclose(out.values, expected, atol=1e-12)


def test_op_a_matches_composed_operators():
    g = make_grid(128, 6.0)
    rng = np.random.default_rng(3)
    u = Field(g, rng.standard_normal(g.n))
    alpha = 0.75
    direct = op_a(u, alpha)
    sym = 1.0 / (1.0 + np.abs(fft_xis(g)) ** alpha)
    composed = deriv(inverse(apply_multiplier(forward(u), sym)), 1)
    np.testing.assert_allclose(direct.values, -composed.values, atol=1e-11)


def test_real_output_for_real_input():
    g = make_grid(128, 4.0)
    u = Field(g, np.random.default_rng(11).standard_normal(g.n))
    for out in (op_a(u, 0.3), hilbert(u), group_propagate(u, 2.5, 0.7)):
        # outputs come from irfft, real by construction; the full-spectrum
        # round trip must give them back unchanged
        spec = forward(out)
        sym_back = inverse(spec)
        np.testing.assert_allclose(out.values, sym_back.values, atol=1e-12)


def _odd(sym, g):
    """An odd symbol on the grid: the unpaired Nyquist mode is zeroed."""
    sym = np.asarray(sym, dtype=complex).copy()
    sym[g.n // 2] = 0.0
    return sym


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    log2n=st.integers(4, 12),
    L=st.floats(min_value=0.5, max_value=1e4),
    alpha=st.floats(min_value=0.05, max_value=2.0),
    s=st.floats(min_value=-3.0, max_value=3.0),
    t=st.floats(min_value=-50.0, max_value=50.0),
    shift=st.floats(min_value=-20.0, max_value=20.0),
    c=st.floats(min_value=1.1, max_value=5.0),
)
def test_half_spectrum_operators_match_full_reference(seed, log2n, L, alpha, s, t, shift, c):
    g = make_grid(2**log2n, L)
    f = Field(g, np.random.default_rng(seed).standard_normal(g.n))
    xi, nyq = fft_xis(g), g.n // 2
    # phases rounded as the library rounds them: t a(xi) reaches ~1e5 here
    group = np.exp(-1j * t * (xi / (1.0 + np.abs(xi) ** alpha)))
    group[nyq] = 1.0
    shifted = np.exp(-1j * xi * shift)
    shifted[nyq] = np.cos(xi[nyq] * shift)
    cases = {
        "frac_deriv": (frac_deriv(f, alpha), np.abs(xi) ** alpha),
        "bessel": (bessel(f, s), (1.0 + xi**2) ** (s / 2.0)),
        "hilbert": (hilbert(f), _odd(-1j * np.sign(xi), g)),
        "op_a": (op_a(f, alpha), _odd(-1j * xi / (1.0 + np.abs(xi) ** alpha), g)),
        "deriv1": (deriv(f, 1), _odd(1j * xi, g)),
        "deriv2": (deriv(f, 2), -(xi**2)),
        "deriv3": (deriv(f, 3), _odd(-1j * xi**3, g)),
        "group_propagate": (group_propagate(f, t, alpha), group),
        "translate": (translate(f, shift), shifted),
    }
    for name, (out, symbol) in cases.items():
        ref = inverse(apply_multiplier(forward(f), symbol)).values
        np.testing.assert_allclose(
            out.values, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)), err_msg=name
        )

    # the norms, against their full-spectrum Parseval sums
    full = forward(f).coeffs
    quad = forward(Field(g, 0.5 * f.values**2)).coeffs
    sq = forward(Field(g, f.values + f.values**2)).coeffs
    lin = 1.0 + np.abs(xi) ** alpha
    ref_energy = np.sum(lin * np.abs(full) ** 2) / (2.0 * L)
    ref_resid = spectrum_l2(Spectrum(g, lin * full - quad)) / field_l2(f)
    ref_tw = spectrum_l2(Spectrum(g, c * lin * full - sq)) / field_l2(f)
    assert energy(f, alpha) == pytest.approx(ref_energy, rel=1e-13, abs=0)
    assert normalized_residual(f, alpha) == pytest.approx(ref_resid, rel=1e-13, abs=0)
    assert traveling_wave_residual(f, alpha, c) == pytest.approx(ref_tw, rel=1e-13, abs=0)


def _sliced_full_symbol(f, symbol):
    """An operator the uncached way: full-length FFT-order symbol, sliced
    per call."""
    n = f.grid.n
    return np.fft.irfft(symbol[: n // 2 + 1] * np.fft.rfft(f.values), n)


def _odd_mask(g):
    mask = np.ones(g.n)
    mask[g.n // 2] = 0.0
    return mask


@settings(max_examples=25, deadline=None)
@given(
    grids=st.lists(
        st.tuples(st.integers(4, 11), st.sampled_from([0.5, 3.0, 50.0, 1e3])),
        min_size=2,
        max_size=4,
    ),
    alpha=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
    s=st.sampled_from([-1.5, 0.8, 2.0]),
    ts=st.lists(st.floats(-40.0, 40.0, allow_nan=False), min_size=1, max_size=3),
    seed=st.integers(0, 2**31 - 1),
)
def test_cached_symbols_match_uncached_bytes(grids, alpha, s, ts, seed):
    # grids of different n and L interleave, each seen twice, so entries are
    # both filled and reused between other grids' calls
    rng = np.random.default_rng(seed)
    for log2n, L in grids + grids[::-1]:
        g = make_grid(2**log2n, L)
        f = Field(g, rng.standard_normal(g.n))
        xi, mask = fft_xis(g), _odd_mask(g)
        phase = xi / (1.0 + np.abs(xi) ** alpha) * mask
        cases = [
            (frac_deriv(f, alpha), np.abs(xi) ** alpha),
            (bessel(f, s), (1.0 + xi**2) ** (s / 2.0)),
            (hilbert(f), _odd(-1j * np.sign(xi), g)),
            (op_a(f, alpha), a_symbol(xi, alpha) * mask),
            (deriv(f, 1), (1j * xi) ** 1 * mask),
            (deriv(f, 2), (1j * xi) ** 2),
            (deriv(f, 3), (1j * xi) ** 3 * mask),
        ] + [(group_propagate(f, t, alpha), np.exp(-1j * t * phase)) for t in ts]
        for i, (out, symbol) in enumerate(cases):
            assert out.values.tobytes() == _sliced_full_symbol(f, symbol).tobytes(), i


def test_symbol_cache_bounded_and_read_only():
    size = _half_symbol.cache_info().maxsize
    assert size is not None and size > 0
    g = make_grid(64, 2.0)
    deriv(Field(g, np.sin(g.xs)), 1)
    entry = _half_symbol(frac_deriv_symbol, g.n, g.L, 0.5)
    assert entry.shape == (g.n // 2 + 1,)
    assert entry is _half_symbol(frac_deriv_symbol, g.n, g.L, 0.5)
    with pytest.raises(ValueError, match="read-only"):
        entry[0] = 1.0
    for i in range(size + 5):  # more keys than entries
        bessel(Field(g, np.sin(g.xs)), 0.1 * i)
    assert _half_symbol.cache_info().currsize == size


def test_non_finite_symbol_rejected_and_not_cached():
    g = make_grid(32, 2.0)
    f = Field(g, np.sin(g.xs))
    before = _half_symbol.cache_info().currsize
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            bessel(f, 2000.0)  # (1 + xi^2)^1000 overflows
        assert _half_symbol.cache_info().currsize == before
        with pytest.raises(ValueError, match="non-finite"):
            group_propagate(f, 1e308, 0.5)  # t a(xi) overflows in the phase


@pytest.mark.parametrize("shape", [(17,), (15,), (2, 16)])
def test_operators_and_norms_reject_wrong_length_field(shape):
    # an odd length would slip through rfft with the right half length; a
    # Field is checked when built, so no operator or norm ever sees one
    g = make_grid(16, 1.0)
    with pytest.raises(ValueError, match=r"expected \(16,\)"):
        Field(g, np.ones(shape))
    for op in (
        lambda u: frac_deriv(u, 0.5),
        lambda u: bessel(u, 1.0),
        hilbert,
        lambda u: op_a(u, 0.5),
        deriv,
        lambda u: group_propagate(u, 1.0, 0.5),
        lambda u: translate(u, 0.3),
        lambda u: energy(u, 0.5),
        lambda u: normalized_residual(u, 0.5),
        lambda u: traveling_wave_residual(u, 0.5, 2.0),
        mass,
        hamiltonian,
        lambda u: weighted_norm(u, 1.0),
        field_l2,
        field_linf,
        lambda u: interpolation_ratio(u, 1.0, 1.0, 0.5),
    ):
        with pytest.raises(ValueError, match=r"expected \(16,\)"):
            op(Field(g, np.ones(shape)))
    with pytest.raises(ValueError, match=r"expected \(16,\)"):
        inverse(Spectrum(g, np.ones(shape, dtype=complex)))


# ---------------------------------------------------------------- free group


def test_group_identity_at_t0():
    g = make_grid(64, 5.0)
    u = Field(g, np.sin(g.xs) + 0.3 * np.cos(2 * g.xs))
    out = group_propagate(u, 0.0, 0.5)
    np.testing.assert_allclose(out.values, u.values, atol=1e-14)


@pytest.mark.parametrize("t", [1.0, 10.0, 100.0])
def test_group_unitarity(t):
    g = make_grid(256, 20.0)
    u = Field(g, np.exp(-g.xs**2 / 2))
    out = group_propagate(u, t, 0.5)
    assert abs(field_l2(out) - field_l2(u)) < 1e-12 * field_l2(u)


@pytest.mark.parametrize("t", [1.0, 10.0, 100.0])
def test_group_law(t):
    g = make_grid(256, 20.0)
    u = Field(g, np.exp(-g.xs**2 / 2) * np.cos(g.xs))
    one_shot = group_propagate(u, 2 * t, 0.5)
    two_step = group_propagate(group_propagate(u, t, 0.5), t, 0.5)
    err = field_l2(Field(g, one_shot.values - two_step.values))
    assert err < 1e-12 * field_l2(u)


@settings(max_examples=15, deadline=None)
@given(
    t1=st.floats(-20, 20, allow_nan=False),
    t2=st.floats(-20, 20, allow_nan=False),
    alpha=st.floats(0.1, 2.0, allow_nan=False),
)
def test_group_law_property(t1, t2, alpha):
    g = make_grid(64, 8.0)
    u = Field(g, np.exp(-g.xs**2))
    lhs = group_propagate(u, t1 + t2, alpha)
    rhs = group_propagate(group_propagate(u, t1, alpha), t2, alpha)
    np.testing.assert_allclose(lhs.values, rhs.values, atol=1e-12)


def test_group_inverse():
    g = make_grid(128, 10.0)
    u = Field(g, np.exp(-(g.xs - 1) ** 2))
    back = group_propagate(group_propagate(u, 7.0, 0.35), -7.0, 0.35)
    np.testing.assert_allclose(back.values, u.values, atol=1e-12)


# ------------------------------------------------- phase-symbol derivatives


def test_a_symbol_odd():
    xi = np.linspace(-10, 10, 201)
    for alpha in (0.25, 0.5, 1.0):
        np.testing.assert_allclose(
            a_symbol(xi, alpha), -a_symbol(-xi, alpha), atol=1e-15
        )


def test_a_symbol_values():
    assert a_symbol(0.0, 0.5) == 0.0
    assert abs(a_symbol(1.0, 0.5) - (-0.5j)) < 1e-15
    assert abs(a_symbol(-1.0, 0.5) - 0.5j) < 1e-15


def test_a_symbol_grid_zeroes_nyquist():
    g = make_grid(32, 2.0)
    sym = a_symbol_grid(g, 0.5)
    assert sym[-1] == 0.0


def test_symbol_builders_sample_the_half_grid():
    # every builder returns one entry per rfft mode; the odd ones zero Nyquist
    g = make_grid(64, 7.5)
    even = [frac_deriv_symbol(g, 0.0), frac_deriv_symbol(g, 0.5), bessel_symbol(g, -1.5)]
    odd = [hilbert_symbol(g), a_symbol_grid(g, 0.5)]
    for sym in even + odd:
        assert sym.shape == g.xis.shape == (g.n // 2 + 1,)
    assert np.all(np.array(even)[:, -1] > 0)
    assert all(sym[-1] == 0.0 and sym[-2] != 0.0 for sym in odd)


def _fd_error_first(xi, t, alpha, h):
    fd = (group_symbol(xi + h, t, alpha) - group_symbol(xi - h, t, alpha)) / (2 * h)
    return np.abs(fd - group_symbol_dxi(xi, t, alpha))


def _fd_error_second(xi, t, alpha, h):
    fd = (
        group_symbol(xi + h, t, alpha)
        - 2 * group_symbol(xi, t, alpha)
        + group_symbol(xi - h, t, alpha)
    ) / h**2
    return np.abs(fd - group_symbol_dxi2(xi, t, alpha))


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75])
def test_group_symbol_dxi_matches_fd(alpha):
    # central differences converge at second order to the closed form
    t = 1.5
    pts = np.array([-5.0, -3.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0, 5.0])
    e1 = _fd_error_first(pts, t, alpha, 1e-3)
    e2 = _fd_error_first(pts, t, alpha, 5e-4)
    assert np.all(e1 < 1e-4)
    ratio = e1 / np.maximum(e2, 1e-15)
    assert np.all(ratio > 3.0)
    assert np.all(ratio < 5.0)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75])
def test_group_symbol_dxi2_matches_fd(alpha):
    # larger h than the first-derivative test: the h^2 divisor in the
    # second difference amplifies rounding below h ~ 1e-2
    t = 1.5
    pts = np.array([-5.0, -3.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0, 5.0])
    e1 = _fd_error_second(pts, t, alpha, 2e-2)
    e2 = _fd_error_second(pts, t, alpha, 1e-2)
    assert np.all(e1 < 1e-2)
    ratio = e1 / np.maximum(e2, 1e-12)
    assert np.all(ratio > 3.0)
    assert np.all(ratio < 5.0)


def test_group_symbol_dxi_zero_time():
    xi = np.array([-2.0, -1.0, 1.0, 2.0])
    np.testing.assert_allclose(group_symbol_dxi(xi, 0.0, 0.5), 0.0, atol=1e-15)


def test_translate_exact_shift():
    g = make_grid(64, np.pi)
    u = Field(g, np.cos(3 * g.xs))
    out = translate(u, 0.7)
    np.testing.assert_allclose(out.values, np.cos(3 * (g.xs - 0.7)), atol=1e-12)
