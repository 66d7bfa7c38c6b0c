"""Solitary-wave profiles by Petviashvili iteration.

The normalized profile solves psi + D^alpha psi = psi^2 / 2 on the box;
speed-c waves are exact dilations of it.  The iteration renormalizes by
the standard power-method stabilizer with exponent 2 and iterates on the
n/2+1 samples of an even field and their real half spectrum, which keeps
it in the even-real sector; it diverges or collapses only on bad data,
which is reported through typed exceptions rather than silently
returning junk.

Dilation note: scale_to_speed places the speed-c wave on its own
stretched box, so its Fourier coefficients coincide with the normalized
profile's; the returned field is then an exact traveling wave of the
periodic problem, not merely an approximation of the line wave.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .spectral import (
    Field,
    SpectralGrid,
    _check_alpha,
    _check_L,
    _dct1,
    _finite,
    _half_l2,
    _parseval,
    field_l2,
    frac_deriv_symbol,
    make_grid,
)
from .weighted import _loglog_fit

__all__ = [
    "PetviashviliResult",
    "StabilizerDegenerateError",
    "NonConvergenceError",
    "petviashvili",
    "normalized_residual",
    "scale_to_speed",
    "traveling_wave_residual",
    "fit_tail_exponent",
]


class StabilizerDegenerateError(RuntimeError):
    """Stabilizer factor hit zero or a negative value; iterate is unusable."""


class NonConvergenceError(RuntimeError):
    """Iteration exhausted its budget before reaching the tolerance: after
    iterations steps the iterate's residual was residual; mixed_from is as
    in PetviashviliResult."""

    def __init__(self, message: str, iterations: int, residual: float, mixed_from: int | None):
        super().__init__(message)
        self.iterations, self.residual, self.mixed_from = iterations, residual, mixed_from


@dataclass
class PetviashviliResult:
    wave: Field
    iterations: int
    residual: float
    stabilizers: np.ndarray
    mixed_from: int | None  # first iteration whose update was mixed


# petviashvili's iteration budget
MAX_ITER = 400

# The solve mixes its updates once the equation residual first falls below
# _MIX_GUARD, from the last _MIX_DEPTH differences (see petviashvili)
_MIX_GUARD = 1e-2
_MIX_DEPTH = 2


def _residual(v: Field, symbol: np.ndarray, rhs: np.ndarray) -> float:
    """|| symbol v-hat - rhs ||_2 / || v ||_2, rhs a half spectrum."""
    return _half_l2(symbol * np.fft.rfft(v.values) - rhs, v.grid) / field_l2(v)


def normalized_residual(psi: Field, alpha: float) -> float:
    """|| psi + D^alpha psi - psi^2/2 ||_2 / || psi ||_2."""
    g = psi.grid
    symbol = 1.0 + _finite(frac_deriv_symbol(g, alpha))
    return _residual(psi, symbol, np.fft.rfft(0.5 * psi.values**2))


def petviashvili(grid: SpectralGrid, alpha: float, tol: float = 1e-10) -> PetviashviliResult:
    """Fixed-point iteration for the normalized even solitary profile.

    The guess is 3 exp(-x^2), and the solve takes at most MAX_ITER steps.
    Each step maps spec -> G(spec) = M^2 (1 + |xi|^alpha)^{-1} F[psi^2/2]
    with M the Rayleigh-type stabilizer; convergence is declared when the
    relative equation residual drops below tol.  The iterate is the n/2+1
    samples psi_0..psi_{n/2} of the even profile and their real half
    spectrum, mapped into each other by spectral._dct1; the full field is
    mirrored from them on return, so it is exactly even.  The returned wave
    is the iterate that passed the stopping test, with no clip: at alpha =
    2, n = 1024, L = 200, tol 1e-12 roundoff leaves samples down to
    -8.7e-13 in the far tail, and zeroing them raised the returned
    residual 37-fold, past tol.

    Once the residual first falls below _MIX_GUARD = 1e-2, each new iterate
    G(x_k) becomes its type-II Anderson mix of depth _MIX_DEPTH = 2 (Walker
    & Ni 2011): G(x_k) - sum_i gamma_i dG_i, the dG_i and dF_i the last
    differences of G and of F = G(x) - x, gamma the least-squares fit of
    F(x_k) by the dF_i in the Parseval weights.  Before the guard the steps
    stay plain, because mixing from the first step can converge to another
    even wave: at alpha 0.25, n 2^16, L 8192, tol 1e-9 depth-3 mixing found
    peak 4.43 at x = -0.25 and mass 7.17, where the plain solve finds 4.91
    at x = 0 and mass 3.10.  The guarded solve finds the plain wave, to
    within 1.3e-10 of its peak at alpha 0.75, n 2^14, L 800, tol 1e-10, in
    31 iterations against 104; on the 2^22 grids of criterion 06 (alpha
    0.25, L 524288 and 1048576, tol 1e-10) it takes 16 and 13 against 22
    and 18.

    The stopping residual's roundoff floor does not grow with the grid:
    tol 1e-15 was reached at n = 2^14 (alpha 0.75, L 800), 2^16 and 2^18
    (alpha 0.5, L 800), 2^20 (alpha 0.25, L 262144) and 2^22 (alpha 0.25,
    L 524288 and 1048576).  The returned residual is the equation residual
    of the returned wave: its samples are transformed afresh by _dct1,
    which is the rfft of the mirrored wave, so no transform is of length
    n.  Their rounding enters it multiplied by the symbol 1 + |xi|^alpha:
    it floors at 2.81e-15, 3.04e-15, 6.29e-15, 1.42e-15, 1.06e-15 and
    1.01e-15 on those solves (48, 87, 131, 16, 19 and 16 iterations), at
    most 1.8 eps s on every grid measured, s = 1 + (pi n / 2L)^alpha.  It
    differs from normalized_residual, the full-length check, by at most
    0.12 eps s on the 2^14 to 2^18 solves at tol 1e-10, 1e-13 and 1e-15,
    and by 0.02 eps s on the 2^22 ones.  It can exceed the stopping
    residual by up to about 0.8 eps s, so at a tol no lower than _tol_floor
    the iteration stops only once both are under tol; below that floor,
    which no config reaches, it stops on the stopping test alone.  A tight
    tol costs iterations: at alpha = 0.5, n = 2^16, L = 800, tol 1e-10
    takes 71 of them, 1e-13 takes 81 and 1e-15 takes 87 (246, 321 and 379
    unmixed).
    """
    _check_alpha(alpha)
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")

    n = grid.n
    symbol = 1.0 + _finite(frac_deriv_symbol(grid, alpha))
    coeffs = _dct1(_even_samples(grid))
    norm0 = size = _half_l2(coeffs, grid)  # nonzero: the guess is 3 at x_{n/2} = 0
    stabs = []
    floor = _tol_floor(alpha, n, grid.L)
    mixer = _Mixer(grid)
    mixing = False
    mixed_from = None
    # |M - 1| is quadratically small in the error (Rayleigh stationarity),
    # so the stopping test uses the equation residual itself
    for it in range(1, MAX_ITER + 1):
        # psi^2/2 in the samples' own buffer, dropped once transformed: the
        # samples are made again, the same bits, only for a step that stops
        sq = _dct1(coeffs)
        sq /= n
        np.square(sq, out=sq)
        sq *= 0.5
        quad = _dct1(sq)
        del sq
        lin = symbol * coeffs
        num = _parseval(coeffs, lin, grid)
        den = _parseval(coeffs, quad, grid)
        lin -= quad
        resid = _half_l2(lin, grid) / size
        del lin  # freed before the next step's transforms
        if resid < tol:
            mixer.clear()  # the confirmation needs the memory more
            psi = _dct1(coeffs)
            psi /= n
            # the returned wave's own residual: _dct1(psi) is its rfft, and
            # quad that of its psi^2/2; the wave is mirrored once that
            # transform's scratch is freed, so the two never coexist
            confirm = symbol * _dct1(psi)
            confirm -= quad
            returned = _half_l2(confirm, grid)
            del confirm
            wave = Field(grid, np.concatenate((psi, psi[-2:0:-1])))  # mirrored
            del psi
            returned /= field_l2(wave)
            if returned < tol or tol < floor:
                return PetviashviliResult(
                    wave=wave,
                    iterations=it,
                    residual=returned,
                    stabilizers=np.array(stabs),
                    mixed_from=mixed_from,
                )
            del wave
        if den <= 0 or not np.isfinite(den):
            raise StabilizerDegenerateError(
                f"stabilizer denominator {den:.3e} at iteration {it}; "
                "iterate lost positivity (bad initial data?)"
            )
        M = num / den
        if M <= 0 or not np.isfinite(M):
            raise StabilizerDegenerateError(f"stabilizer {M:.3e} at iteration {it}")
        stabs.append(M)
        quad *= M**2
        quad /= symbol  # G(coeffs), in place
        mixing = mixing or resid < _MIX_GUARD
        if mixing and mixed_from is None and mixer.f is not None:
            mixed_from = it
        coeffs = mixer(coeffs, quad) if mixing else quad
        size = _half_l2(coeffs, grid)
        if size < 1e-14 * norm0 or not np.isfinite(size):
            raise StabilizerDegenerateError(
                f"iterate collapsed to {size:.3e} of initial size at iteration {it}"
            )
    raise NonConvergenceError(
        f"no convergence to tol={tol:.1e} in {MAX_ITER} iterations "
        f"(last residual {resid:.3e})", MAX_ITER, resid, mixed_from
    )


class _Mixer:
    """Type-II Anderson mixing of depth _MIX_DEPTH on half spectra.

    Holds F = G(x) - x and G(x) of the last iterate and the differences
    (dF, dG) of the iterates before, newest last.  Each call takes over the
    buffers of x and G(x) for them, and builds the mixed iterate in the
    buffers of the oldest differences once the history is full, so between
    steps the history holds 2 _MIX_DEPTH half spectra.
    """

    def __init__(self, grid: SpectralGrid):
        self.grid = grid
        self.clear()

    def clear(self) -> None:
        self.f = self.g = None
        self.diffs = []

    def __call__(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The mixed successor of x, given g = G(x)."""
        f = np.subtract(g, x, out=x)
        if self.f is not None:
            dF = np.subtract(f, self.f, out=self.f)
            self.diffs.append((dF, np.subtract(g, self.g, out=self.g)))
        self.f, self.g = f, g
        if not self.diffs:
            return g.copy()  # g itself becomes a difference next call
        pairs = list(self.diffs)
        gram = np.array([[_parseval(a, b, self.grid) for b, _ in pairs] for a, _ in pairs])
        rhs = np.array([_parseval(a, f, self.grid) for a, _ in pairs])
        # least squares, not a solve: a stalled iteration makes the Gram
        # matrix singular, and lstsq drops its singular values below 2 eps
        gamma = np.linalg.lstsq(gram, rhs, rcond=None)[0]
        if len(pairs) == _MIX_DEPTH:
            scratch, out = self.diffs.pop(0)  # spent after this mix
        else:
            scratch, out = np.empty_like(g), np.empty_like(g)
        np.multiply(pairs[0][1], -gamma[0], out=out)
        for c, (_, dG) in zip(gamma[1:], pairs[1:]):
            np.multiply(dG, c, out=scratch)
            out -= scratch
        out += g
        return out


def _even_samples(grid: SpectralGrid) -> np.ndarray:
    """Samples j = 0..n/2 of the even part of the guess 3 exp(-x^2).

    x_{n-j} = -x_j, so an even field is fixed by these n/2+1 samples and its
    half spectrum is their real DCT-I.  Each point j and its mirror
    (n - j) mod n is built as grid.xs builds it, -L + dx k from the integer
    k, so the guess at it is grid.xs's bit for bit; averaging the pairs
    projects onto the even sector, and no n-length array is made.
    """
    j = np.arange(grid.n // 2 + 1)
    at, mirror = (3.0 * np.exp(-((-grid.L + grid.dx * k) ** 2)) for k in (j, (grid.n - j) % grid.n))
    return 0.5 * (at + mirror)


def _tol_floor(alpha: float, n: int, L: float) -> float:
    """10 eps s, s = 1 + (pi n / 2L)^alpha the largest symbol value on the
    grid: the least tol a solve's returned residual can be held to.  That
    residual floors at up to 1.8 eps s (petviashvili), measured at alpha
    0.25..2, n 2^10..2^22."""
    with np.errstate(over="ignore"):
        return 10.0 * np.finfo(float).eps * (1.0 + np.float64(math.pi * n / (2.0 * L)) ** alpha)


def _check_tol(tol: float, alpha: float, n: int, L: float) -> None:
    """Raise ValueError unless tol >= _tol_floor(alpha, n, L)."""
    floor = _tol_floor(alpha, n, L)
    if not tol >= floor:
        raise ValueError(
            f"tol must be >= {floor:.3g} = 10 eps (1 + (pi n / 2L)^alpha), "
            f"the floor of a solve's residual on this grid, got {tol}")


def _check_speed(c: float) -> None:
    if not c > 1.0:
        raise ValueError(f"wave speed c must exceed 1, got {c}")


def _speed_box(L: float, alpha: float, c: float, n: int) -> float:
    """Half-length L / lambda, lambda = ((c-1)/c)^(1/alpha), of the box
    that scale_to_speed puts the speed-c wave on; raises ValueError unless
    c > 1 and that box has a finite grid step."""
    _check_speed(c)
    lam = ((c - 1.0) / c) ** (1.0 / alpha)
    box = L / lam if lam > 0.0 else math.inf
    try:
        _check_L(box, n)
    except ValueError as e:
        raise ValueError(f"speed-c box L / ((c-1)/c)^(1/alpha): {e}") from None
    return box


def scale_to_speed(psi: Field, alpha: float, c: float) -> Field:
    """Exact speed-c wave from the normalized profile, on its own box.

    Q(y) = ((c-1)/2) psi(lambda y) with lambda = ((c-1)/c)^(1/alpha); the
    samples are the profile's samples rescaled and the box shrinks by
    lambda, so no interpolation error is introduced.
    """
    g = psi.grid
    stretched = make_grid(g.n, _speed_box(g.L, alpha, c, g.n))
    return Field(stretched, 0.5 * (c - 1.0) * psi.values)


def traveling_wave_residual(q: Field, alpha: float, c: float) -> float:
    """|| c (q + D^alpha q) - q - q^2 ||_2 / || q ||_2 on q's box."""
    g = q.grid
    symbol = c * (1.0 + _finite(frac_deriv_symbol(g, alpha)))
    return _residual(q, symbol, np.fft.rfft(q.values + q.values**2))


def _tail_window(L: float) -> tuple[float, float]:
    """fit_tail_exponent's default window on a box of half-length L."""
    return (0.15 * L, 0.6 * L)


def _tail_samples(window: tuple[float, float], grid: SpectralGrid) -> slice:
    """The grid points x_j = -L + j dx in [lo, hi] that fit_tail_exponent
    fits on, found without building grid.xs.  Raises ValueError unless
    0 < lo < hi <= 0.7 L (beyond, the periodic image dominates the tail)
    and the window holds at least 8 of them."""
    lo, hi = window
    L, dx = grid.L, grid.dx
    if not 0.0 < lo < hi <= 0.7 * L:
        raise ValueError(
            f"window must satisfy 0 < lo < hi <= 0.7 L = {0.7 * L:.6g}, got {window}"
        )
    # step in from a step or two beyond each rounded bound
    first = next(j for j in itertools.count(math.ceil((lo + L) / dx) - 2) if -L + dx * j >= lo)
    last = next(j for j in itertools.count(math.floor((hi + L) / dx) + 2, -1) if -L + dx * j <= hi)
    if last - first + 1 < 8:
        raise ValueError(f"only {last - first + 1} samples in window {window}; need at least 8")
    return slice(first, last + 1)


def fit_tail_exponent(
    psi: Field,
    window: tuple[float, float] | None = None,
) -> tuple[float, float, int]:
    """Log-log fit of the decay exponent on the right tail.

    Fits |psi(x)| ~ x^(-p) for x in the window (default [0.15 L, 0.6 L])
    and returns (p, r_squared, n_samples); _tail_samples states which
    windows it takes.
    """
    g = psi.grid
    samples = _tail_samples(_tail_window(g.L) if window is None else window, g)
    xs, vals = g.xs[samples], psi.values[samples]
    if np.any(vals <= 0):
        raise ValueError(
            "tail samples must be positive for a log-log fit; "
            "got nonpositive values in the window (under-resolved tail?)"
        )
    slope, r2 = _loglog_fit(xs, vals)
    return -slope, r2, int(xs.size)
