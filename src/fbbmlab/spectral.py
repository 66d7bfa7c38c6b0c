"""Periodic spectral toolbox: grid, transforms, Fourier multipliers, free group.

Conventions used throughout the package:

* the box is [-L, L) sampled at n equispaced points, dx = 2L/n;
* the grid's wavenumbers are xi_k = pi*k/L for the np.fft.rfft modes
  k = 0..n/2, the last one Nyquist;
* a grid holds only n, L and dx: its points xs and wavenumbers xis are
  built on each read, and the cached half symbols below are what persists;
* a Field holds exactly n samples; its constructor checks that once.

Every field is real and every symbol here is Hermitian, so the library
computes on half spectra, the plain np.fft.rfft coefficients k = 0..n/2:
every symbol is built on them, _finite checks it, _apply applies it to a
field, and _parseval is the one Parseval sum.  Since x_{n-j} = -x_j, an even
field is fixed by its samples j = 0..n/2, and _dct1 maps them to its
(real) half spectrum and back, at half the length of an rfft.

Odd (imaginary) symbols zero the unpaired Nyquist mode n/2 so that real
fields stay real and skew symmetry is exact on the grid.

The full complex spectrum (forward, inverse, apply_multiplier, Spectrum)
is the public reference format, in FFT order; nothing in the package calls
it.  It matches the continuum transform: hat(u)(xi_k) is the
trapezoid approximation of integral(u(x) exp(-i xi_k x) dx), so a unit
constant on a box of half-length pi has hat(u)(0) = 2*pi, and Parseval reads
||u||_2^2 = (1/2pi) * sum_k |hat(u)(xi_k)|^2 * (pi/L).  Since x_0 = -L and
xi_k L = pi k, it is the plain DFT times dx and exp(i xi_k L) = (-1)^k, an
exact sign.

frac_deriv, bessel, hilbert, op_a, deriv and group_propagate (its phase
a(xi)) take their half symbol from one LRU cache of 32 read-only entries
keyed by (builder, n, L, parameters): worst case 32 * 16 (n/2+1) bytes at
the largest n in use, 4.2 MB at n = 2^14 and 537 MB at n = 2^21.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SpectralGrid",
    "Field",
    "Spectrum",
    "make_grid",
    "forward",
    "inverse",
    "apply_multiplier",
    "field_l2",
    "field_linf",
    "frac_deriv",
    "bessel",
    "hilbert",
    "op_a",
    "deriv",
    "group_propagate",
    "a_symbol",
    "a_symbol_prime",
    "group_symbol",
    "group_symbol_dxi",
    "group_symbol_dxi2",
    "translate",
]


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform periodic grid on [-L, L): n, L and the step dx.

    It holds no array: xs and xis are built on each read, so a caller that
    needs one reads it once."""

    n: int
    L: float
    dx: float = field(compare=False)  # 2L/n, so equal on (n, L)

    @property
    def xis(self) -> np.ndarray:
        """The n/2+1 rfft wavenumbers xi_k = pi k / L, k = 0..n/2, read-only."""
        xis = 2.0 * np.pi * np.fft.rfftfreq(self.n, d=self.dx)
        xis.setflags(write=False)
        return xis

    @property
    def xs(self) -> np.ndarray:
        """The n sample points x_j = -L + j dx, read-only."""
        xs = -self.L + self.dx * np.arange(self.n)
        xs.setflags(write=False)
        return xs


@dataclass
class Field:
    """Real samples of a function on a SpectralGrid, one per grid point."""

    grid: SpectralGrid
    values: np.ndarray

    def __post_init__(self):
        values, n = self.values, self.grid.n
        self.values = np.asarray(values)
        if self.values.shape != (n,):
            raise ValueError(f"field has shape {self.values.shape}, expected ({n},)")


@dataclass
class Spectrum:
    """Complex Fourier coefficients in FFT order, continuum normalization."""

    grid: SpectralGrid
    coeffs: np.ndarray


def make_grid(n: int, L: float) -> SpectralGrid:
    """Build the periodic grid; n must be a power of two, n >= 16, L > 0."""
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"n must be an integer, got {n!r}")
    n = int(n)
    _check_n(n)
    L = float(L)
    _check_L(L, n)
    return SpectralGrid(n=n, L=L, dx=2.0 * L / n)


def _check_n(n: int) -> None:
    if n < 16 or (n & (n - 1)) != 0:
        raise ValueError(f"n must be a power of two with n >= 16, got {n}")


def _check_L(L: float, n: int) -> None:
    # NaN, infinite, non-positive, overflowing and tiny L leave no usable step or
    # no finite Nyquist wavenumber pi n/2L, here rounded as grid.xis rounds it
    dx = 2.0 * L / n
    if not (np.isfinite(dx) and dx > 0 and np.isfinite(2.0 * np.pi * (n // 2 * (1.0 / (n * dx))))):
        raise ValueError(f"L must be positive with a finite grid step 2L/n and Nyquist "
                         f"wavenumber pi n/2L, got L = {L}, n = {n}")


def _alpha_admitted(alpha: float) -> bool:
    """Whether alpha is a dispersion order; entry points check with _check_alpha."""
    return 0.0 < alpha <= 2.0


def _check_alpha(alpha: float) -> None:
    if not _alpha_admitted(alpha):
        raise ValueError(f"alpha must lie in (0, 2], got {alpha}")


def _sign(n: int) -> np.ndarray:
    """exp(i xi_k L) = (-1)^k in FFT order; n is even, so it alternates."""
    sign = np.ones(n)
    sign[1::2] = -1.0
    return sign


def _parseval(a: np.ndarray, b: np.ndarray, grid: SpectralGrid) -> float:
    """int u v dx = (dx/n) sum_k U_k conj(V_k) of two real fields from their
    half spectra: each mode k = 1..n/2-1 also stands for its mirror -k."""
    p = np.real(a * b.conj())
    return float((2.0 * np.sum(p) - p[0] - p[-1]) * (grid.dx / grid.n))


def _half_l2(half: np.ndarray, grid: SpectralGrid) -> float:
    """L2 norm of a real field from its np.fft.rfft half spectrum."""
    return float(np.sqrt(_parseval(half, half, grid)))


# at or below this many intervals a split is no faster than the rfft of the
# even extension (one split against none, measured: 0.059 against 0.048 ms
# at 2^11, 0.087 against 0.091 ms at 2^12, 0.55 against 0.79 ms at 2^14)
_DCT1_DIRECT = 2**12


@functools.lru_cache(maxsize=32)
def _dct1_twiddle(m: int) -> np.ndarray:
    """exp(i pi j / (2m)), j = 0..m/2: Makhoul's twiddle for a size-m DCT-III.

    A transform of N+1 samples uses one per split level, about 8N bytes in
    all (4.2 MB at N = 2^19, 17 MB at N = 2^21)."""
    twiddle = np.exp(1j * np.pi / (2 * m) * np.arange(m // 2 + 1))
    twiddle.setflags(write=False)
    return twiddle


def _dct1(x: np.ndarray) -> np.ndarray:
    """DCT-I of the N+1 samples x, N a power of two:

        X_k = x_0 + (-1)^k x_N + 2 sum_{j=1}^{N-1} x_j cos(pi j k / N),

    the np.fft.rfft of the even extension x_0..x_N, x_{N-1}..x_1; applied
    twice it gives 2N x.  The even outputs are the DCT-I of x_j + x_{N-j}
    (j = 0..N/2); the odd ones are the size-M = N/2 DCT-III of
    z_j = x_j - x_{N-j}, which Makhoul's reordering gives from one irfft of
    length M: twiddle z_j - i z_{M-j} by exp(i pi j / (2M)), transform,
    and read the even outputs forward, the odd ones backward.
    """
    N = x.size - 1
    if N <= _DCT1_DIRECT:
        return np.fft.rfft(np.concatenate((x, x[-2:0:-1]))).real
    M = N // 2
    # the even half first, and each temporary dropped once spent, so that
    # only out and one level's temporaries are alive at any depth
    out = np.empty(N + 1)
    out[0::2] = _dct1(x[: M + 1] + x[N : M - 1 : -1])
    z = x[:M] - x[N:M:-1]
    v = np.empty(M // 2 + 1, dtype=complex)
    v.real = z[: M // 2 + 1]
    v.imag[0] = 0.0
    np.negative(z[: M // 2 - 1 : -1], out=v.imag[1:])
    del z
    v *= _dct1_twiddle(M)
    u = np.fft.irfft(v, M, norm="forward")
    del v
    out[1::4] = u[: M // 2]
    out[3::4] = u[: M // 2 - 1 : -1]
    return out


def forward(f: Field) -> Spectrum:
    """hat(u)(xi_k) = dx * sum_j u_j exp(-i xi_k x_j)."""
    g = f.grid
    return Spectrum(g, g.dx * _sign(g.n) * np.fft.fft(f.values))


def inverse(s: Spectrum) -> Field:
    """Inverse of forward; returns the real part (imag must be roundoff)."""
    g = s.grid
    coeffs = np.asarray(s.coeffs)
    if coeffs.shape != (g.n,):
        raise ValueError(f"spectrum has shape {coeffs.shape}, expected ({g.n},)")
    vals = np.fft.ifft(_sign(g.n) * coeffs) / g.dx
    return Field(g, vals.real.copy())


def apply_multiplier(s: Spectrum, symbol: np.ndarray) -> Spectrum:
    """Multiply a spectrum by a symbol sampled at 2 pi np.fft.fftfreq(n, dx)."""
    symbol = np.asarray(symbol)
    if symbol.shape != s.coeffs.shape:
        raise ValueError(
            f"symbol shape {symbol.shape} does not match spectrum {s.coeffs.shape}"
        )
    if not np.all(np.isfinite(symbol)):
        raise ValueError("symbol contains non-finite entries")
    return Spectrum(s.grid, s.coeffs * symbol)


def field_l2(f: Field) -> float:
    return float(np.sqrt(f.grid.dx * np.sum(f.values**2)))


def field_linf(f: Field) -> float:
    return float(np.max(np.abs(f.values)))


def _finite(symbol: np.ndarray) -> np.ndarray:
    """symbol, a half symbol on grid.xis, once checked finite."""
    if not np.all(np.isfinite(symbol)):
        raise ValueError("symbol contains non-finite entries")
    return symbol


@functools.lru_cache(maxsize=32)
def _half_symbol(builder, n: int, L: float, *params) -> np.ndarray:
    """_finite(builder(make_grid(n, L), *params)), made read-only."""
    half = _finite(builder(make_grid(n, L), *params))
    half.setflags(write=False)
    return half


def _apply(f: Field, half: np.ndarray) -> Field:
    """f under the symbol whose modes k = 0..n/2 are half."""
    return Field(f.grid, np.fft.irfft(half * np.fft.rfft(f.values), f.grid.n))


def _zero_nyquist(symbol: np.ndarray) -> np.ndarray:
    """symbol with its unpaired Nyquist mode k = n/2 zeroed in place."""
    symbol[-1] = 0.0
    return symbol


def frac_deriv_symbol(grid: SpectralGrid, alpha: float) -> np.ndarray:
    """|xi|^alpha; even symbol, Nyquist kept. alpha = 0 gives the identity."""
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    return np.abs(grid.xis) ** alpha


def bessel_symbol(grid: SpectralGrid, s: float) -> np.ndarray:
    """(1 + xi^2)^(s/2), any real s."""
    return (1.0 + grid.xis**2) ** (s / 2.0)


def hilbert_symbol(grid: SpectralGrid) -> np.ndarray:
    """-i*sgn(xi) with sgn(0) = 0; odd, so the Nyquist mode is zeroed."""
    return _zero_nyquist(-1j * np.sign(grid.xis))


def a_symbol(xi, alpha: float):
    """Symbol of A = -d/dx (1 + D^alpha)^(-1), i.e. -i*xi/(1 + |xi|^alpha)."""
    xi = np.asarray(xi, dtype=float)
    return -1j * xi / (1.0 + np.abs(xi) ** alpha)


def a_symbol_grid(grid: SpectralGrid, alpha: float) -> np.ndarray:
    return _zero_nyquist(a_symbol(grid.xis, alpha))


def _deriv_symbol(grid: SpectralGrid, order: int) -> np.ndarray:
    sym = (1j * grid.xis) ** order
    return _zero_nyquist(sym) if order % 2 == 1 else sym


def frac_deriv(f: Field, alpha: float) -> Field:
    return _apply(f, _half_symbol(frac_deriv_symbol, f.grid.n, f.grid.L, alpha))


def bessel(f: Field, s: float) -> Field:
    return _apply(f, _half_symbol(bessel_symbol, f.grid.n, f.grid.L, s))


def hilbert(f: Field) -> Field:
    return _apply(f, _half_symbol(hilbert_symbol, f.grid.n, f.grid.L))


def op_a(f: Field, alpha: float) -> Field:
    _check_alpha(alpha)
    return _apply(f, _half_symbol(a_symbol_grid, f.grid.n, f.grid.L, alpha))


def deriv(f: Field, order: int = 1) -> Field:
    """d^order/dx^order; odd orders zero the Nyquist mode."""
    return _apply(f, _half_symbol(_deriv_symbol, f.grid.n, f.grid.L, order))


def _dispersion(xi, alpha: float):
    """Phase a(xi) = xi / (1 + |xi|^alpha); the free group is exp(-i a t)."""
    xi = np.asarray(xi, dtype=float)
    return xi / (1.0 + np.abs(xi) ** alpha)


def _group_phase(grid: SpectralGrid, alpha: float) -> np.ndarray:
    return _zero_nyquist(_dispersion(grid.xis, alpha))


def a_symbol_prime(xi, alpha: float):
    """d/dxi of the phase: (1 + (1-alpha)|xi|^alpha) / (1 + |xi|^alpha)^2."""
    xi = np.asarray(xi, dtype=float)
    p = np.abs(xi) ** alpha
    return (1.0 + (1.0 - alpha) * p) / (1.0 + p) ** 2


def group_symbol(xi, t: float, alpha: float):
    """F(t, xi) = exp(-i t xi / (1 + |xi|^alpha)); |F| = 1."""
    return np.exp(-1j * t * _dispersion(xi, alpha))


def group_symbol_dxi(xi, t: float, alpha: float):
    """d/dxi of the group symbol, closed form.

    dF/dxi = -i t (1 + (1-alpha)|xi|^alpha) / (1 + |xi|^alpha)^2 * F.
    """
    xi = np.asarray(xi, dtype=float)
    return -1j * t * a_symbol_prime(xi, alpha) * group_symbol(xi, t, alpha)


def group_symbol_dxi2(xi, t: float, alpha: float):
    """Second xi-derivative of the group symbol, closed form.

    (-it)^2 (1 + (1-alpha)|xi|^alpha)^2 / (1 + |xi|^alpha)^4 * F
      + it alpha (alpha+1) |xi|^(alpha-1) sgn(xi) / (1 + |xi|^alpha)^3 * F
      + it alpha (1-alpha) |xi|^(2 alpha - 1) sgn(xi) / (1 + |xi|^alpha)^3 * F

    The |xi|^(alpha-1) factor blows up at xi = 0 for alpha < 1; callers
    evaluate away from the origin.
    """
    xi = np.asarray(xi, dtype=float)
    p = np.abs(xi) ** alpha
    sgn = np.sign(xi)
    F = group_symbol(xi, t, alpha)
    quad = (-1j * t) ** 2 * (1.0 + (1.0 - alpha) * p) ** 2 / (1.0 + p) ** 4 * F
    with np.errstate(divide="ignore", invalid="ignore"):
        sing = (
            1j
            * t
            * alpha
            * sgn
            / (1.0 + p) ** 3
            * (
                (alpha + 1.0) * np.abs(xi) ** (alpha - 1.0)
                + (1.0 - alpha) * np.abs(xi) ** (2.0 * alpha - 1.0)
            )
            * F
        )
    return quad + sing


def _group(grid: SpectralGrid, t: float, alpha: float, half: np.ndarray) -> np.ndarray:
    """The free group exp(tA) on half, the rfft of a field on grid."""
    _check_alpha(alpha)
    a = _half_symbol(_group_phase, grid.n, grid.L, alpha)
    return _finite(np.exp(-1j * t * a)) * half


def group_propagate(f: Field, t: float, alpha: float) -> Field:
    """Apply the free group exp(tA); exactly unitary on the grid."""
    return Field(f.grid, np.fft.irfft(_group(f.grid, t, alpha, np.fft.rfft(f.values)), f.grid.n))


def translate(f: Field, shift: float) -> Field:
    """Periodic translation u(x) -> u(x - shift) via the spectral phase."""
    xis = f.grid.xis
    sym = np.exp(-1j * xis * shift)
    sym[-1] = np.cos(xis[-1] * shift)  # keep Nyquist real
    return _apply(f, _finite(sym))
