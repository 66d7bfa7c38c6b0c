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

from .evolution import EvolveConfig, evolve
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
    "UcpSums",
    "ucp_residual",
    "RATIO_FAMILIES",
]

# A commutator against a constant weight vanishes identically; this is
# the floor of _constant_tol, its roundoff bound relative to ||f||_2.
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
    """Evaluate trigonometric polynomials, one per row of coefficients.

    coeffs[..., k] multiplies the k-th positive-frequency mode (k = 0 the
    mean), independently of n, so the same continuum function comes back
    on any grid that resolves the band (make_corpus and resample_corpus
    keep it within n // 6).
    """
    return np.fft.irfft(coeffs * grid.n, grid.n)  # zero-pads the missing modes


@dataclass(frozen=True)
class TestCorpus:
    """Reproducible batch of band-limited fields and smooth weights.

    fields are unit L2.  The series coefficients are kept so the corpus
    can be re-sampled on a finer grid as the same continuum functions.
    """

    grid: SpectralGrid
    field_coeffs: np.ndarray
    weight_coeffs: np.ndarray
    fields: np.ndarray
    weights: np.ndarray


def _build(grid, field_coeffs, weight_coeffs) -> TestCorpus:
    return TestCorpus(
        grid=grid,
        field_coeffs=field_coeffs,
        weight_coeffs=weight_coeffs,
        fields=_synthesize(field_coeffs, grid),
        weights=_synthesize(weight_coeffs, grid),
    )


def _check_size(size: int) -> None:
    if size < 1:
        raise ValueError(f"corpus size must be >= 1, got {size}")


def _check_box(L: float) -> None:
    """1e-50 <= L <= 1e50: the corpus' squared second derivatives overflow
    below L ~ 1e-60, its squared samples underflow above 1e305 (n 16-256)."""
    if not 1e-50 <= L <= 1e50:
        raise ValueError(f"the commutator corpus needs 1e-50 <= L <= 1e50, got L = {L}")


def make_corpus(n: int, L: float, size: int, seed: int) -> TestCorpus:
    """Draw `size` random (field, weight) pairs on an n-point box.

    Fields get standard-normal coefficients on modes 0..n//6 and are
    normalized to unit L2.  Weights use 1/(1+k)-damped coefficients on
    modes 0..WEIGHT_BAND.  Regeneration from the same seed is
    bit-identical.
    """
    _check_box(L)
    grid = make_grid(n, L)
    _check_size(size)
    rng = np.random.default_rng(seed)
    fc, wc = (rng.standard_normal((size, band + 1)) + 1j * rng.standard_normal((size, band + 1))
              for band in (n // 6, WEIGHT_BAND))
    for coeffs in (fc, wc):
        coeffs[:, 0] = coeffs[:, 0].real
    wc /= 1.0 + np.arange(WEIGHT_BAND + 1)
    # normalize fields through the synthesized values; quadrature is exact
    # for band-limited data so the norm carries to any finer grid
    fc /= np.array([[field_l2(Field(grid, v))] for v in _synthesize(fc, grid)])
    return _build(grid, fc, wc)


def resample_corpus(corpus: TestCorpus, n: int) -> TestCorpus:
    """Same continuum corpus on an n-point grid (band must still fit)."""
    if n // 6 < corpus.field_coeffs.shape[-1] - 1:
        raise ValueError("target grid does not resolve the corpus band")
    grid = make_grid(n, corpus.grid.L)
    return _build(grid, corpus.field_coeffs, corpus.weight_coeffs)


# ------------------------------------------------------------ ratio kernels


def _constant_tol(grid: SpectralGrid, family: str, **params) -> float:
    """Bound on ||[op, c] f||_2 / ||f||_2 for a constant weight c: 10 eps
    max(1, pi n / 2L)^order (the family's order in RATIO_FAMILIES), measured at
    most 2.91 eps max(1, pi n / 2L)^order (n 16-4096, L 0.01-1e4)."""
    order = RATIO_FAMILIES[family][1](**params)
    xi_max = np.pi * grid.n / (2.0 * grid.L)
    return max(CONSTANT_COMMUTATOR_TOL, 10.0 * np.finfo(float).eps * max(1.0, xi_max) ** order)


def _family_ratio(family: str, psi: Field, f: Field, **params) -> float:
    """||[op, psi] f||_2 / (||psi^(order)||_inf ||f||_2) for one family of
    RATIO_FAMILIES, its orders unchecked (order 0 divides by ||psi||_inf).

    A weight with ||psi^(order)||_inf <= 10 eps ||psi||_inf (pi n / 2L)^order
    is constant for the family: the commutator must vanish and the ratio is 0
    by convention; a numerator above _constant_tol ||f||_2 there is a
    quadrature bug.  The test scales with the box, so a smooth weight on a
    large box is never taken for a constant.  The derivative of a constant
    weight is exactly 0 (constants 1.5, 1.7, 0.1, 1/3, 1e10; n 16-4096;
    L 1e-50-1e50; orders 1, 2); with every sample moved by up to one ulp it
    measured at most 3.44 eps ||psi||_inf (pi n / 2L)^order.
    """
    if psi.grid != f.grid:
        raise ValueError("weight and field live on different grids")
    if (fnorm := field_l2(f)) == 0.0:
        raise ValueError("ratio undefined for the zero field")
    commutator, order_of = RATIO_FAMILIES[family][:2]
    num = field_l2(commutator(psi, f, **params))
    scale, order = field_linf(psi), order_of(**params)
    dsup = field_linf(deriv(psi, order)) if order else scale
    xi_max = np.pi * f.grid.n / (2.0 * f.grid.L)
    if dsup <= 10.0 * np.finfo(float).eps * scale * xi_max**order:
        tol = _constant_tol(f.grid, family, **params)
        if num > tol * fnorm:
            raise QuadratureInconsistencyError(f"constant weight but commutator norm {num:.3e} "
                                               f"exceeds {tol:.3e} * ||f||")
        return 0.0
    return num / (dsup * fnorm)


def _bracket(op, psi: Field, v: Field) -> Field:
    """[op, psi] v = op(psi v) - psi op(v)."""
    pv = Field(v.grid, psi.values * v.values)
    return Field(v.grid, op(pv).values - psi.values * op(v).values)


def _hilbert_commutator(psi: Field, f: Field, l: int, m: int) -> Field:
    inner = _bracket(hilbert, psi, deriv(f, m) if m else f)
    return deriv(inner, l) if l else inner


def _frac_commutator(psi: Field, f: Field, alpha: float, beta: float) -> Field:
    v = frac_deriv(f, max(0.0, 1.0 - alpha - beta))
    inner = _bracket(lambda u: frac_deriv(u, beta), psi, v)
    return frac_deriv(inner, alpha) if alpha > 0 else inner


def commutator_a_ratio(weight: Field, f: Field, alpha: float) -> float:
    """||[A, g] f||_2 / (||g'||_inf ||f||_2), A the free-flow generator.

    The bound states the left side is controlled by the right with a
    constant independent of f and g; the ratio is that constant's
    per-instance lower estimate.
    """
    _check_orders("generator", alpha=alpha)
    return _family_ratio("generator", weight, f, alpha=alpha)


def hilbert_commutator_ratio(psi: Field, f: Field, l: int, m: int) -> float:
    """||d^l (H(psi d^m f) - psi H(d^m f))||_2 / (||psi^(l+m)||_inf ||f||_2).

    Calderon-type smoothing: the commutator with the Hilbert transform
    absorbs l+m derivatives into the weight, one order per slot.
    """
    _check_orders("hilbert", l=l, m=m)
    return _family_ratio("hilbert", psi, f, l=l, m=m)


def frac_commutator_ratio(psi: Field, f: Field, alpha: float, beta: float) -> float:
    """||D^a [D^b; psi] D^(1-a-b) f||_2 / (||psi'||_inf ||f||_2).

    The three fractional orders sum to one, matching the single
    derivative the weight gives up.  Requires a in [0,1), b in (0,1),
    a + b <= 1 + 1e-12; the third order 1 - a - b, which may round below 0, clamps at 0.
    """
    _check_orders("fractional", alpha=alpha, beta=beta)
    return _family_ratio("fractional", psi, f, alpha=alpha, beta=beta)


# ------------------------------------------------------------- corpus sweep


# family -> (commutator [op, psi] f, the order of the weight derivative it
# absorbs, its parameter names, the orders it accepts and their statement):
# the one table of commutator families, read by _family_ratio.
RATIO_FAMILIES = {
    "generator": (lambda psi, f, alpha: _bracket(lambda u: op_a(u, alpha), psi, f),
                  lambda alpha: 1, ("alpha",), _alpha_admitted, "alpha in (0, 2]"),
    "hilbert": (_hilbert_commutator, lambda l, m: l + m, ("l", "m"),
                lambda l, m: l >= 0 and m >= 0 and l + m <= 2 and l % 1 == m % 1 == 0,
                "whole numbers l, m >= 0 with l + m <= 2"),
    "fractional": (
        _frac_commutator, lambda alpha, beta: 1, ("alpha", "beta"),
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
    _, _, want, accepts, statement = RATIO_FAMILIES[family]
    if set(params) != set(want):
        raise ValueError(f"family {family!r} takes parameters {want}, got {tuple(params)}")
    if not accepts(**params):
        raise ValueError(f"{family} orders must satisfy {statement}, got {params}")


def corpus_ratios(corpus: TestCorpus, family: str, **params) -> np.ndarray:
    """Per-instance ratios over the corpus, in corpus order."""
    _check_orders(family, **params)
    grid = corpus.grid
    pairs = zip(corpus.weights, corpus.fields)
    return np.array([_family_ratio(family, Field(grid, w), Field(grid, f), **params)
                     for w, f in pairs])


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


def _check_sample_times(ts: np.ndarray) -> None:
    if ts.size == 0 or np.any(ts < 0) or np.any(np.diff(ts) <= 0):
        raise ValueError("times must be nonempty, nonnegative, strictly increasing")


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
    _check_sample_times(ts)
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


def _snapshot_indices(config: EvolveConfig, t1: float, t2: float) -> tuple[int, int]:
    """Indices of the snapshots at t1 and t2 among config.snapshot_times.
    Raises ValueError, its message opening with the time at fault, unless
    0 <= t1 < t2 <= T, config records both, and they differ in step."""
    if not 0 <= t1 < t2:
        raise ValueError(f"t1: 0 <= t1 < t2 required, got t1={t1}, t2={t2}")
    if np.round(t2 / config.dt) > config.steps:
        raise ValueError(f"t2 must not exceed T = {config.t_final:g}, the last snapshot")
    i1, i2 = config.snapshot_index(t1), config.snapshot_index(t2)
    for name, i in (("t1", i1), ("t2", i2)):
        if i is None:
            raise ValueError(f"{name} must be a recorded snapshot time: a multiple of "
                             f"snapshot_stride * dt = {config.stride * config.dt:g}, or T")
    if i1 == i2:
        raise ValueError(f"t2 must fall on a later snapshot than t1: both are step "
                         f"{round(t1 / config.dt)}")
    return i1, i2


class UcpSums:
    """Mass and int u^k dx of each state it is called on, in order: an
    evolve observer, handed the snapshots of config at
    config.snapshot_times."""

    def __init__(self, grid: SpectralGrid, config: EvolveConfig):
        self.dx, self.config = grid.dx, config
        self.mass: list[float] = []
        self.integrand: list[float] = []

    def __call__(self, values: np.ndarray) -> None:
        self.mass.append(self.dx * float(np.sum(values)))
        self.integrand.append(self.dx * float(np.sum(values**self.config.power)))

    def residual(self, t1: float, t2: float) -> float:
        """The two-time identity R from t1 to t2 over the snapshots summed
        so far, which must reach t2 (see ucp_residual)."""
        i1, i2 = _snapshot_indices(self.config, t1, t2)
        times = self.config.snapshot_times[i1 : i2 + 1]
        integral = float(np.trapezoid(self.integrand[i1 : i2 + 1], times))
        return self.mass[i1] + integral / (times[-1] - times[0])


def ucp_residual(initial: Field, config: EvolveConfig, t1: float, t2: float) -> float:
    """Two-time mass identity residual along the flow of initial under config.

    R = u-hat(0, t1) + (1/(t2 - t1)) int_{t1}^{t2} int u^k dx dtau, k the
    config's power, with the time integral by trapezoid over the snapshots
    from t1 to t2 (as _snapshot_indices requires them, checked before the
    first step).  A solution with critical spatial decay at both ends would
    force R = 0; for even k and nonnegative initial mean both terms are
    nonnegative, so R = 0 pins the zero solution.  For odd k the sign
    carries no such obstruction and R is reported as-is.
    """
    _snapshot_indices(config, t1, t2)
    sums = UcpSums(initial.grid, config)
    evolve(initial, config, observe=sums)
    return sums.residual(t1, t2)
