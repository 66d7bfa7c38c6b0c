"""Time evolution by integrating-factor RK4 in Fourier space.

The equation is written as u_t = A u + A(u^k) with A the odd Fourier
multiplier -i xi / (1 + |xi|^alpha); the linear part is integrated
exactly by the free group and the nonlinear term by classical RK4 on the
filtered variable.  Products are dealiased by the 2/(k+1) rule, which
makes the quadratic energy and the Hamiltonian conserved quantities of
the semidiscrete flow: their measured drift is pure time-stepping error
and shrinks like dt^4.

The RK4 state is the library's half spectrum, the plain np.fft.rfft of
the samples, kept modes only.

The zero mode is exactly frozen (the symbol vanishes at xi = 0), so the
mean of the solution is preserved bit-for-bit in the spectral state; the
recorded samples carry it up to the roundoff of one inverse transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import (
    Field,
    SpectralGrid,
    _check_alpha,
    _half,
    _half_l2,
    a_symbol_grid,
    field_l2,
    field_linf,
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


def _check_power(k: int) -> None:
    if k < 2:
        raise ValueError(f"nonlinearity power k must be >= 2, got {k}")


def _check_dt(dt: float) -> None:
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")


def _check_T(T: float) -> None:
    if not T > 0:
        raise ValueError(f"final time T must be positive, got {T}")


def _check_stride(stride: int | None) -> None:
    if stride is not None and stride < 1:
        raise ValueError(f"snapshot_stride must be >= 1, got {stride}")


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
        _check_alpha(self.alpha)
        _check_dt(self.dt)
        _check_T(self.t_final)
        _check_power(self.power)
        if self.dealias_fraction is not None and not 0.0 < self.dealias_fraction <= 1.0:
            raise ValueError(
                f"dealias_fraction must lie in (0, 1], got {self.dealias_fraction}"
            )
        _check_stride(self.snapshot_stride)
        if self.blowup_factor <= 1.0:
            raise ValueError(f"blowup_factor must exceed 1, got {self.blowup_factor}")
        # evolve records its last step, so t_final must be that step's time
        if self.steps < 1 or not self.records(self.t_final):
            raise ValueError(
                f"final time {self.t_final} is not a positive integer multiple of dt = {self.dt}"
            )

    @property
    def steps(self) -> int:
        return round(self.t_final / self.dt)

    def records(self, t):
        """Whether evolve records the state at time t (a number or an array): a
        whole step (to 1e-9 relative) that is a multiple of snapshot_stride (by
        default about 400 snapshots in all) or the last."""
        step = np.round(t / self.dt)
        stride = self.snapshot_stride or max(1, self.steps // 400)
        whole = np.abs(step * self.dt - t) <= 1e-9 * np.maximum(1.0, t)
        return whole & ((step % stride == 0) | (step == self.steps))

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


def evolve(initial: Field, config: EvolveConfig) -> Trajectory:
    """March the equation forward, recording snapshots along the way.

    Snapshots are the states at the steps config.records, step 0 (the
    initial state) among them.  The state is tested for finiteness after
    every step and against the sup-norm limit at every snapshot.
    """
    g, n, values = initial.grid, initial.grid.n, initial.values
    if not np.all(np.isfinite(values)):
        raise ValueError("initial data must be finite")
    # the state is np.fft.rfft of the samples, kept modes k < m only (irfft
    # zero-pads the rest); the dealiased flow never keeps the Nyquist mode
    kept = min(int(config.kept_fraction * (n // 2)), n // 2 - 1)
    m = n // 2 + 1 if config.linear_only else kept + 1
    minus_ia = a_symbol_grid(g, config.alpha)[:m]  # A = -i a(xi); 0 at Nyquist
    E = np.exp(minus_ia * config.dt / 2.0)
    E2 = E * E

    def nonlin(h: np.ndarray) -> np.ndarray:
        if config.linear_only:
            return np.zeros_like(h)
        return minus_ia * np.fft.rfft(np.fft.irfft(h, n) ** config.power)[:m]

    dt = config.dt
    recorded = config.records(dt * np.arange(config.steps + 1))
    times = dt * np.flatnonzero(recorded)
    states = np.empty((times.size, n))
    v = np.fft.rfft(values)[:m]
    # the zero mode is frozen, so every state has the input's mass; one
    # constant shift, fixed at t = 0, takes the transform roundoff out of
    # the recorded sample sums without adding noise between states
    first = np.fft.irfft(v, n)
    shift = (np.sum(values) - np.sum(first)) / n
    np.add(first, shift, out=states[0])
    sup0 = float(np.max(np.abs(states[0])))
    limit = config.blowup_factor * max(sup0, 1e-300)

    half_dt, dt6, dt_E, two_E = dt / 2.0, dt / 6.0, dt * E, 2.0 * E
    i = 0
    with np.errstate(over="ignore", invalid="ignore"):  # reported as BlowUpError
        for step in range(1, config.steps + 1):
            E2v = E2 * v
            n1 = nonlin(v)
            n2 = nonlin(E * (v + half_dt * n1))
            n3 = nonlin(E * v + half_dt * n2)
            n4 = nonlin(E2v + dt_E * n3)
            v = E2v + dt6 * (E2 * n1 + two_E * (n2 + n3) + n4)
            if not np.isfinite(np.sum(v)):
                raise BlowUpError(f"state not finite at t = {step * dt:.6g}")
            if recorded[step]:
                i += 1
                vals = np.add(np.fft.irfft(v, n), shift, out=states[i])
                sup = float(np.max(np.abs(vals)))
                if not np.isfinite(sup) or sup > limit:
                    raise BlowUpError(
                        f"sup norm {sup:.3e} at t = {step * dt:.6g} exceeded "
                        f"{config.blowup_factor:.1e} x initial ({sup0:.3e})"
                    )
    return Trajectory(grid=g, times=times, states=states, config=config)


# ----------------------------------------------------------- conserved sums


def mass(f: Field) -> float:
    """Integral of the field over the box (the zero Fourier mode)."""
    return float(f.grid.dx * np.sum(f.values))


def energy(f: Field, alpha: float) -> float:
    """Quadratic invariant: int (D^(alpha/2) u)^2 + u^2 dx."""
    return _energy(f, _half(frac_deriv_symbol(f.grid, alpha / 2.0), f.grid.n))


def _energy(f: Field, dsym: np.ndarray) -> float:
    half = np.fft.rfft(f.values)
    return _half_l2(half, f.grid) ** 2 + _half_l2(dsym * half, f.grid) ** 2


def hamiltonian(f: Field, power: int = 2) -> float:
    """Cubic-type invariant: int u^2/2 + u^(k+1)/(k+1) dx."""
    v = f.values
    # multiplies, not numpy's generic pow of v ** (power + 1)
    return float(f.grid.dx * np.sum(v * v * (0.5 + v ** (power - 1) / (power + 1))))


@dataclass
class DiagnosticsSeries:
    times: np.ndarray
    mass: np.ndarray
    energy: np.ndarray
    hamiltonian: np.ndarray
    l2: np.ndarray
    sup: np.ndarray


def diagnostics_series(traj: Trajectory) -> DiagnosticsSeries:
    """Conserved quantities and norms along a trajectory."""
    k = traj.config.power
    dsym = _half(frac_deriv_symbol(traj.grid, traj.config.alpha / 2.0), traj.grid.n)
    fields = [traj.field_at(i) for i in range(len(traj))]

    def series(fn) -> np.ndarray:
        return np.array([fn(f) for f in fields])

    return DiagnosticsSeries(
        times=traj.times.copy(),
        mass=series(mass),
        energy=series(lambda f: _energy(f, dsym)),
        hamiltonian=series(lambda f: hamiltonian(f, k)),
        l2=series(field_l2),
        sup=series(field_linf),
    )
