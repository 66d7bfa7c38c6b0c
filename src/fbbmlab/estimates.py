"""Randomized stress tests for the operator inequalities behind the solver.

Three commutator families, the polynomially weighted growth of the free
group, and the two-time mass identity that obstructs critical spatial
decay.  The inequalities carry implicit constants, so each family is
tested as ratio stability: draw a reproducible corpus of band-limited
fields and smooth weights, evaluate left side over right side per
instance, and require the corpus maximum to be finite and stable under
grid refinement.

Corpus fields live in the lower third of the spectrum and weights in a
handful of low modes, so every pointwise product stays strictly below
the Nyquist frequency: the discrete operators then agree with their
continuum symbols to roundoff, and refining the grid re-evaluates the
exact same functions.  Refinement factors consequently sit at 1 + O(eps)
rather than merely inside the [1/2, 2] stability band.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from .evolution import Trajectory, _check_power
from .spectral import (
    Field,
    SpectralGrid,
    _alpha_admitted,
    deriv,
    field_l2,
    field_linf,
    frac_deriv,
    group_propagate,
    hilbert,
    make_grid,
    op_a,
)
from .weighted import _loglog_fit, weighted_norm

__all__ = [
    "TestCorpus",
    "RatioReport",
    "GrowthReport",
    "QuadratureInconsistencyError",
    "BoundaryContaminationError",
    "make_corpus",
    "resample_corpus",
    "commutator_a_ratio",
    "hilbert_commutator_ratio",
    "frac_commutator_ratio",
    "corpus_ratios",
    "ratio_report",
    "group_weighted_growth",
    "ucp_residual",
    "RATIO_FAMILIES",
]

# A commutator against a constant weight vanishes identically; anything
# above this (relative to ||f||_2) means the discretization broke.
CONSTANT_COMMUTATOR_TOL = 1e-11

# Weights use a fixed low band so the same smooth function is
# reproduced exactly on every resolution of interest.
WEIGHT_BAND = 6

# group_weighted_growth's wrap-around guard: L2 mass beyond this part of L
EDGE_FRACTION = 0.8
TAIL_TOL = 1e-8


class QuadratureInconsistencyError(RuntimeError):
    """Constant weight but a commutator numerator above roundoff."""


class BoundaryContaminationError(RuntimeError):
    """A propagated field carried measurable mass to the box edge."""


# ----------------------------------------------------------------- corpus


def _synthesize(coeffs: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Evaluate a trigonometric polynomial from its series coefficients.

    coeffs[k] multiplies the k-th positive-frequency mode (coeffs[0] the
    mean), independently of n, so the same continuum function comes back
    on any grid that resolves the band.
    """
    if coeffs.shape[-1] > grid.n // 2 + 1:
        raise ValueError("band exceeds grid resolution")
    return np.fft.irfft(coeffs * grid.n, grid.n)  # zero-pads the missing modes


@dataclass(frozen=True)
class TestCorpus:
    """Reproducible batch of band-limited fields and smooth weights.

    fields are unit L2.  The series coefficients are kept so the corpus
    can be re-sampled on a finer grid as the same continuum functions.
    """

    seed: int
    size: int
    grid: SpectralGrid
    field_coeffs: np.ndarray
    weight_coeffs: np.ndarray
    fields: np.ndarray
    weights: np.ndarray


def _grad_sup(values: np.ndarray, grid: SpectralGrid) -> float:
    return field_linf(deriv(Field(grid, values)))


def _build(seed, size, grid, field_coeffs, weight_coeffs) -> TestCorpus:
    fields = np.empty((size, grid.n))
    weights = np.empty((size, grid.n))
    for i in range(size):
        fields[i] = _synthesize(field_coeffs[i], grid)
        weights[i] = _synthesize(weight_coeffs[i], grid)
    return TestCorpus(
        seed=seed,
        size=size,
        grid=grid,
        field_coeffs=field_coeffs,
        weight_coeffs=weight_coeffs,
        fields=fields,
        weights=weights,
    )


def _check_size(size: int) -> None:
    if size < 1:
        raise ValueError(f"corpus size must be >= 1, got {size}")


def make_corpus(
    n: int, L: float, size: int, seed: int, field_band: int | None = None
) -> TestCorpus:
    """Draw `size` random (field, weight) pairs on an n-point box.

    Fields get standard-normal coefficients on modes 0..field_band
    (default n//6) and are normalized to unit L2.  Weights use
    1/(1+k)-damped coefficients on modes 0..WEIGHT_BAND.  Regeneration
    from the same seed is bit-identical.
    """
    grid = make_grid(n, L)
    band = n // 6 if field_band is None else int(field_band)
    if not 1 <= band <= n // 6:
        raise ValueError(f"field band must lie in [1, n//6], got {band}")
    _check_size(size)
    rng = np.random.default_rng(seed)
    fc = rng.standard_normal((size, band + 1)) + 1j * rng.standard_normal(
        (size, band + 1)
    )
    fc[:, 0] = fc[:, 0].real
    wc = rng.standard_normal((size, WEIGHT_BAND + 1)) + 1j * rng.standard_normal(
        (size, WEIGHT_BAND + 1)
    )
    wc[:, 0] = wc[:, 0].real
    wc /= 1.0 + np.arange(WEIGHT_BAND + 1)
    # normalize fields through the synthesized values; quadrature is exact
    # for band-limited data so the norm carries to any finer grid
    for i in range(size):
        nrm = field_l2(Field(grid, _synthesize(fc[i], grid)))
        fc[i] /= nrm
    return _build(seed, size, grid, fc, wc)


def resample_corpus(corpus: TestCorpus, n: int) -> TestCorpus:
    """Same continuum corpus on an n-point grid (band must still fit)."""
    if n // 6 < corpus.field_coeffs.shape[-1] - 1:
        raise ValueError("target grid does not resolve the corpus band")
    grid = make_grid(n, corpus.grid.L)
    return _build(
        corpus.seed, corpus.size, grid, corpus.field_coeffs, corpus.weight_coeffs
    )


# ------------------------------------------------------------ ratio kernels


def _nonzero_l2(f: Field) -> float:
    nrm = field_l2(f)
    if nrm == 0.0:
        raise ValueError("ratio undefined for the zero field")
    return nrm


def _ratio(num: float, den_sup: float, den_scale: float, fnorm: float) -> float:
    """Shared constant-weight policy for all commutator families.

    den_sup is the sup of the relevant weight derivative; a value at
    roundoff level (relative to den_scale) means the weight is constant
    for this family, the commutator must vanish, and the ratio is 0 by
    convention.  A non-vanishing numerator there is a quadrature bug.
    """
    if den_sup <= 1e-13 * max(1.0, den_scale):
        if num > CONSTANT_COMMUTATOR_TOL * fnorm:
            raise QuadratureInconsistencyError(
                f"constant weight but commutator norm {num:.3e} "
                f"exceeds {CONSTANT_COMMUTATOR_TOL:.0e} * ||f||"
            )
        return 0.0
    return num / (den_sup * fnorm)


def commutator_a_ratio(weight: Field, f: Field, alpha: float) -> float:
    """||[A, g] f||_2 / (||g'||_inf ||f||_2), A the free-flow generator.

    The bound states the left side is controlled by the right with a
    constant independent of f and g; the ratio is that constant's
    per-instance lower estimate.
    """
    _check_orders("generator", alpha=alpha)
    return _a_ratio(weight, f, alpha)


def _a_ratio(weight: Field, f: Field, alpha: float) -> float:
    if weight.grid != f.grid:
        raise ValueError("weight and field live on different grids")
    fnorm = _nonzero_l2(f)
    gf = Field(f.grid, weight.values * f.values)
    comm = op_a(gf, alpha).values - weight.values * op_a(f, alpha).values
    num = field_l2(Field(f.grid, comm))
    gsup = _grad_sup(weight.values, f.grid)
    return _ratio(num, gsup, field_linf(weight), fnorm)


def hilbert_commutator_ratio(psi: Field, f: Field, l: int, m: int) -> float:
    """||d^l (H(psi d^m f) - psi H(d^m f))||_2 / (||psi^(l+m)||_inf ||f||_2).

    Calderon-type smoothing: the commutator with the Hilbert transform
    absorbs l+m derivatives into the weight, one order per slot.
    """
    _check_orders("hilbert", l=l, m=m)
    return _hilbert_ratio(psi, f, l, m)


def _hilbert_ratio(psi: Field, f: Field, l: int, m: int) -> float:
    if psi.grid != f.grid:
        raise ValueError("weight and field live on different grids")
    fnorm = _nonzero_l2(f)
    v = deriv(f, m) if m else f
    pv = Field(f.grid, psi.values * v.values)
    inner = Field(f.grid, hilbert(pv).values - psi.values * hilbert(v).values)
    lhs = deriv(inner, l) if l else inner
    dsup = field_linf(deriv(psi, l + m)) if l + m else field_linf(psi)
    return _ratio(field_l2(lhs), dsup, field_linf(psi), fnorm)


def frac_commutator_ratio(psi: Field, f: Field, alpha: float, beta: float) -> float:
    """||D^a [D^b; psi] D^(1-a-b) f||_2 / (||psi'||_inf ||f||_2).

    The three fractional orders sum to one, matching the single
    derivative the weight gives up.  Requires a in [0,1), b in (0,1),
    a + b <= 1 + 1e-12; the third order 1 - a - b, which may round below 0, clamps at 0.
    """
    _check_orders("fractional", alpha=alpha, beta=beta)
    return _frac_ratio(psi, f, alpha, beta)


def _frac_ratio(psi: Field, f: Field, alpha: float, beta: float) -> float:
    if psi.grid != f.grid:
        raise ValueError("weight and field live on different grids")
    fnorm = _nonzero_l2(f)
    v = frac_deriv(f, max(0.0, 1.0 - alpha - beta))
    pv = Field(f.grid, psi.values * v.values)
    inner = Field(f.grid, frac_deriv(pv, beta).values - psi.values * frac_deriv(v, beta).values)
    lhs = frac_deriv(inner, alpha) if alpha > 0 else inner
    psup = _grad_sup(psi.values, f.grid)
    return _ratio(field_l2(lhs), psup, field_linf(psi), fnorm)


# ------------------------------------------------------------- corpus sweep


# family -> (ratio function, its parameter names, the orders it accepts and
# their statement): the one table of commutator families.  The ratio
# functions are the kernels without their order check, which corpus_ratios
# makes once per corpus and each public kernel once per call.
RATIO_FAMILIES = {
    "generator": (_a_ratio, ("alpha",), _alpha_admitted, "alpha in (0, 2]"),
    "hilbert": (_hilbert_ratio, ("l", "m"),
                lambda l, m: l >= 0 and m >= 0 and l + m <= 2 and l % 1 == m % 1 == 0,
                "whole numbers l, m >= 0 with l + m <= 2"),
    "fractional": (
        _frac_ratio, ("alpha", "beta"),
        lambda alpha, beta: 0 <= alpha < 1 and 0 < beta < 1 and alpha + beta <= 1 + 1e-12,
        "alpha in [0, 1), beta in (0, 1) and alpha + beta <= 1"),
}


def _check_family(family) -> None:
    if not isinstance(family, str) or family not in RATIO_FAMILIES:
        raise ValueError(f"unknown family {family!r}; know {tuple(RATIO_FAMILIES)}")


def _check_orders(family: str, **params) -> None:
    """Raise ValueError unless the family exists and takes these orders;
    config checks with it too."""
    _check_family(family)
    _, want, accepts, statement = RATIO_FAMILIES[family]
    if set(params) != set(want):
        raise ValueError(f"family {family!r} takes parameters {want}, got {tuple(params)}")
    if not accepts(**params):
        raise ValueError(f"{family} orders must satisfy {statement}, got {params}")


def corpus_ratios(corpus: TestCorpus, family: str, **params) -> np.ndarray:
    """Per-instance ratios over the corpus, in corpus order."""
    _check_orders(family, **params)
    ratio = RATIO_FAMILIES[family][0]
    grid = corpus.grid
    pairs = zip(corpus.weights, corpus.fields)
    return np.array([ratio(Field(grid, w), Field(grid, f), **params) for w, f in pairs])


@dataclass(frozen=True)
class RatioReport:
    """Corpus-max ratio for one inequality family plus its refinement check.

    refinement_factor is the corpus max on the doubled grid over the
    base corpus max; a passing family keeps it inside [1/2, 2].
    """

    ratios: tuple
    corpus_max: float
    refined_max: float
    refinement_factor: float


def ratio_report(
    family: str,
    n: int,
    L: float,
    size: int,
    seed: int,
    **params,
) -> RatioReport:
    """Evaluate one family over a fresh corpus at n and at 2n."""
    corpus = make_corpus(n, L, size, seed)
    return _report(family, corpus, resample_corpus(corpus, 2 * n), **params)


def _report(family: str, corpus: TestCorpus, fine: TestCorpus, **params) -> RatioReport:
    """ratio_report on a given corpus and its resampling on the doubled grid."""
    ratios = corpus_ratios(corpus, family, **params)
    fine_max = float(np.max(corpus_ratios(fine, family, **params)))
    base_max = float(np.max(ratios))
    factor = fine_max / base_max if base_max > 0 else 1.0
    return RatioReport(
        ratios=tuple(float(r) for r in ratios),
        corpus_max=base_max,
        refined_max=fine_max,
        refinement_factor=factor,
    )


# -------------------------------------------------------- weighted growth


@dataclass(frozen=True)
class GrowthReport:
    """Fitted polynomial growth of ||<x>^r exp(tA) phi||_2.

    norms holds the norm at each of the caller's sample times.  slope is
    the least-squares slope of log norm against log t over the positive
    sample times; the expected ceiling is ceil(r), padded by 0.2 to
    absorb fit noise.
    """

    norms: tuple
    base_norm: float
    slope: float
    bound: float
    within_bound: bool


def group_weighted_growth(
    phi: Field,
    alpha: float,
    r: float,
    times,
) -> GrowthReport:
    """Propagate phi with the free group and fit the weighted-norm growth.

    The group is dispersive, not weight-unitary: mass migrates outward
    and the r-weighted norm grows polynomially.  On a periodic box the
    outward flux eventually wraps around, which would masquerade as
    extra growth, so any sample time whose L2 mass fraction beyond
    EDGE_FRACTION * L exceeds TAIL_TOL aborts the fit.  weighted_norm
    checks r.
    """
    ts = np.asarray(times, dtype=float)
    if ts.size == 0 or np.any(ts < 0) or np.any(np.diff(ts) <= 0):
        raise ValueError("times must be nonempty, nonnegative, strictly increasing")
    grid = phi.grid
    edge = np.abs(grid.xs) > EDGE_FRACTION * grid.L
    base = weighted_norm(phi, r)
    norms = np.empty(ts.size)
    for j, t in enumerate(ts):
        u = group_propagate(phi, float(t), alpha)
        vals = u.values
        total = float(np.sum(vals**2))
        leaked = float(np.sum(vals[edge] ** 2))
        if total > 0 and leaked > TAIL_TOL * total:
            raise BoundaryContaminationError(
                f"t={t:g}: mass fraction {leaked / total:.2e} beyond "
                f"{EDGE_FRACTION:g} L exceeds {TAIL_TOL:.0e}"
            )
        norms[j] = weighted_norm(u, r)
    pos = ts > 0
    slope = _loglog_fit(ts[pos], norms[pos])[0] if np.count_nonzero(pos) >= 2 else 0.0
    bound = ceil(r) + 0.2
    return GrowthReport(
        norms=tuple(float(v) for v in norms),
        base_norm=float(base),
        slope=slope,
        bound=bound,
        within_bound=slope <= bound,
    )


# ------------------------------------------------------------ mass identity


def _snap_index(times: np.ndarray, t: float, name: str) -> int:
    idx = int(np.argmin(np.abs(times - t)))
    if abs(times[idx] - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(
            f"{name}={t:g} does not coincide with a recorded snapshot "
            f"(nearest is {times[idx]:g})"
        )
    return idx


def _check_times(t1: float, t2: float) -> None:
    if not 0 <= t1 < t2:
        raise ValueError(f"0 <= t1 < t2 required, got t1={t1}, t2={t2}")


def ucp_residual(traj: Trajectory, t1: float, t2: float, k: int | None = None) -> float:
    """Two-time mass identity residual over a recorded trajectory.

    R = u-hat(0, t1) + (1/(t2 - t1)) int_{t1}^{t2} int u^k dx dtau,
    with the time integral by trapezoid over the recorded snapshots.
    A solution with critical spatial decay at both ends would force
    R = 0; for even k and nonnegative initial mean both terms are
    nonnegative, so R = 0 pins the zero solution.  For odd k the sign
    carries no such obstruction and R is reported as-is.
    """
    _check_times(t1, t2)
    kk = traj.config.power if k is None else int(k)
    _check_power(kk)
    times = traj.times
    i1 = _snap_index(times, t1, "t1")
    i2 = _snap_index(times, t2, "t2")
    if i2 <= i1:
        raise ValueError("t1 and t2 snap to the same snapshot; refine the stride")
    dx = traj.grid.dx
    block = traj.states[i1 : i2 + 1]
    mass1 = dx * float(np.sum(block[0]))
    inner = dx * np.sum(block**kk, axis=1)
    integral = float(np.trapezoid(inner, times[i1 : i2 + 1]))
    return mass1 + integral / (times[i2] - times[i1])
