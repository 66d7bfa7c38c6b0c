"""Time evolution by integrating-factor RK4 in Fourier space.

The equation is written as u_t = A u + A(u^k) with A the odd Fourier
multiplier -i xi / (1 + |xi|^alpha); the linear part is integrated
exactly by the free group and the nonlinear term by classical RK4 on the
filtered variable.  Products are dealiased by the 2/(k+1) rule, which
makes the quadratic energy and the Hamiltonian conserved quantities of
the semidiscrete flow: their measured drift is pure time-stepping error
and shrinks like dt^4.

The zero mode is exactly frozen (the symbol vanishes at xi = 0), so the
mean of the solution is preserved bit-for-bit in the spectral state; the
recorded samples carry it up to the roundoff of one inverse transform.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import (
    Field,
    SpectralGrid,
    _half_l2,
    _irfft,
    _rfft,
    a_symbol_grid,
    field_l2,
    frac_deriv_symbol,
)

__all__ = [
    "EvolveConfig",
    "Trajectory",
    "BlowUpError",
    "evolve",
    "mass",
    "energy",
    "hamiltonian",
    "DiagnosticsSeries",
    "diagnostics_series",
]


class BlowUpError(RuntimeError):
    """Sup norm exceeded the abort threshold or became non-finite."""


@dataclass(frozen=True)
class EvolveConfig:
    """Time-stepping parameters.

    dealias_fraction is the kept fraction of the spectrum per axis; the
    default 2/(k+1) removes aliasing errors from the degree-k product
    exactly.  linear_only drops the nonlinear term, turning the stepper
    into the exact free group (useful for oracle tests and for growth
    diagnostics of the linear flow).
    """

    alpha: float
    dt: float
    t_final: float
    power: int = 2
    dealias_fraction: float | None = None
    linear_only: bool = False
    snapshot_stride: int | None = None
    blowup_factor: float = 1e6

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in (0, 2], got {self.alpha}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_final <= 0:
            raise ValueError(f"t_final must be positive, got {self.t_final}")
        if self.power < 2:
            raise ValueError(f"nonlinearity power must be >= 2, got {self.power}")
        if self.dealias_fraction is not None and not 0.0 < self.dealias_fraction <= 1.0:
            raise ValueError(
                f"dealias_fraction must lie in (0, 1], got {self.dealias_fraction}"
            )
        if self.snapshot_stride is not None and self.snapshot_stride < 1:
            raise ValueError(f"snapshot_stride must be >= 1, got {self.snapshot_stride}")
        if self.blowup_factor <= 1.0:
            raise ValueError(f"blowup_factor must exceed 1, got {self.blowup_factor}")
        steps = round(self.t_final / self.dt)
        if steps < 1 or abs(steps * self.dt - self.t_final) > 1e-9 * max(1.0, self.t_final):
            raise ValueError(
                f"t_final = {self.t_final} is not an integer multiple of dt = {self.dt}"
            )

    @property
    def steps(self) -> int:
        return round(self.t_final / self.dt)

    @property
    def kept_fraction(self) -> float:
        if self.dealias_fraction is not None:
            return self.dealias_fraction
        return 2.0 / (self.power + 1)


@dataclass
class Trajectory:
    grid: SpectralGrid
    times: np.ndarray
    states: np.ndarray  # shape (len(times), n), sample values
    config: EvolveConfig

    def field_at(self, i: int) -> Field:
        return Field(self.grid, self.states[i])

    def __len__(self) -> int:
        return len(self.times)


def _dealias_mask(grid: SpectralGrid, kept: float) -> np.ndarray:
    """Kept modes of the half spectrum k = 0..n/2; Nyquist never participates."""
    k = np.arange(grid.n // 2 + 1)
    return (k <= kept * (grid.n // 2)) & (k < grid.n // 2)


def evolve(initial: Field, config: EvolveConfig) -> Trajectory:
    """March the equation forward, recording snapshots along the way.

    Snapshots are taken every snapshot_stride steps (default keeps about
    400 of them) plus always the initial and final states.  The state is
    tested for finiteness after every step and against the sup-norm limit
    at every snapshot.
    """
    g = initial.grid
    if not np.all(np.isfinite(initial.values)):
        raise ValueError("initial data must be finite")
    half = g.n // 2 + 1  # the state is the half spectrum k = 0..n/2
    a = np.real(1j * a_symbol_grid(g, config.alpha))[:half]  # a(xi); 0 at Nyquist
    E = np.exp(-1j * a * config.dt / 2.0)
    E2 = E * E
    mask = _dealias_mask(g, config.kept_fraction)
    minus_ia = np.where(mask, -1j * a, 0.0)  # dealiased A in one product

    def nonlin(h: np.ndarray) -> np.ndarray:
        if config.linear_only:
            return np.zeros_like(h)
        return minus_ia * _rfft(_irfft(h, g) ** config.power, g)

    def samples(h: np.ndarray) -> np.ndarray:
        return _irfft(h, g) + shift

    stride = config.snapshot_stride or max(1, config.steps // 400)
    uhat = _rfft(initial.values, g)
    if not config.linear_only:
        uhat = np.where(mask, uhat, 0.0)
    # the zero mode is frozen, so every state has the input's mass; one
    # constant shift, fixed at t = 0, takes the transform roundoff out of
    # the recorded sample sums without adding noise between states
    shift = (np.sum(initial.values) - np.sum(_irfft(uhat, g))) / g.n
    states = [samples(uhat)]
    times = [0.0]
    sup0 = float(np.max(np.abs(states[0])))
    limit = config.blowup_factor * max(sup0, 1e-300)

    dt = config.dt
    with np.errstate(over="ignore", invalid="ignore"):  # reported as BlowUpError
        for step in range(1, config.steps + 1):
            n1 = nonlin(uhat)
            ua = E * (uhat + (dt / 2.0) * n1)
            n2 = nonlin(ua)
            ub = E * uhat + (dt / 2.0) * n2
            n3 = nonlin(ub)
            uc = E2 * uhat + dt * E * n3
            n4 = nonlin(uc)
            uhat = E2 * uhat + (dt / 6.0) * (E2 * n1 + 2.0 * E * (n2 + n3) + n4)
            if not np.isfinite(np.sum(uhat)):
                raise BlowUpError(f"state not finite at t = {step * dt:.6g}")
            if step % stride == 0 or step == config.steps:
                vals = samples(uhat)
                sup = float(np.max(np.abs(vals)))
                if not np.isfinite(sup) or sup > limit:
                    raise BlowUpError(
                        f"sup norm {sup:.3e} at t = {step * dt:.6g} exceeded "
                        f"{config.blowup_factor:.1e} x initial ({sup0:.3e})"
                    )
                times.append(step * dt)
                states.append(vals)
    return Trajectory(grid=g, times=np.array(times), states=np.array(states), config=config)


# ----------------------------------------------------------- conserved sums


def mass(f: Field) -> float:
    """Integral of the field over the box (the zero Fourier mode)."""
    return float(f.grid.dx * np.sum(f.values))


def energy(f: Field, alpha: float) -> float:
    """Quadratic invariant: int (D^(alpha/2) u)^2 + u^2 dx."""
    g = f.grid
    half = _rfft(f.values, g)
    d = frac_deriv_symbol(g, alpha / 2.0)[: g.n // 2 + 1] * half
    return _half_l2(half, g) ** 2 + _half_l2(d, g) ** 2


def hamiltonian(f: Field, power: int = 2) -> float:
    """Cubic-type invariant: int u^2/2 + u^(k+1)/(k+1) dx."""
    v = np.asarray(f.values)
    return float(f.grid.dx * np.sum(v**2 / 2.0 + v ** (power + 1) / (power + 1)))


@dataclass
class DiagnosticsSeries:
    times: np.ndarray
    mass: np.ndarray
    energy: np.ndarray
    hamiltonian: np.ndarray
    l2: np.ndarray
    sup: np.ndarray
    weighted: np.ndarray | None = None


def diagnostics_series(
    traj: Trajectory,
    weight_r: float | None = None,
    weight_level: float | None = None,
) -> DiagnosticsSeries:
    """Conserved quantities and norms along a trajectory."""
    from .weighted import weighted_norm

    al, k = traj.config.alpha, traj.config.power
    ms, es, hs, l2s, sups, ws = [], [], [], [], [], []
    for i in range(len(traj)):
        f = traj.field_at(i)
        ms.append(mass(f))
        es.append(energy(f, al))
        hs.append(hamiltonian(f, k))
        l2s.append(field_l2(f))
        sups.append(float(np.max(np.abs(f.values))))
        if weight_r is not None:
            ws.append(weighted_norm(f, weight_r, N=weight_level))
    return DiagnosticsSeries(
        times=traj.times.copy(),
        mass=np.array(ms),
        energy=np.array(es),
        hamiltonian=np.array(hs),
        l2=np.array(l2s),
        sup=np.array(sups),
        weighted=np.array(ws) if weight_r is not None else None,
    )
