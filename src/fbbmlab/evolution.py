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

import math
from collections.abc import Callable
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .spectral import (
    Field,
    SpectralGrid,
    _check_alpha,
    _finite,
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
    "Diagnostics",
    "DiagnosticsSeries",
    "diagnostics_series",
]

# evolve aborts once a recorded sup norm exceeds this multiple of the initial one
BLOWUP_FACTOR = 1e6

# the most RK4 steps a config may ask for: 250 times the largest run any
# shipped config, workload or test makes (4,000 steps, criterion 04), and
# about 60 s at n = 64 or 5 min at n = 4096 (measured 0.063 and 0.32 ms of
# process time a step, best of 3, on a 2-vCPU KVM host); T / dt beyond it
# is a config error, not a run that cannot finish
MAX_STEPS = 1_000_000


class BlowUpError(RuntimeError):
    """At time t the state became non-finite (sup is nan), or its sup norm
    sup exceeded BLOWUP_FACTOR times the initial one."""

    def __init__(self, message: str, t: float, sup: float):
        super().__init__(message)
        self.t, self.sup = t, sup


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

    linear_only drops the nonlinear term, turning the stepper into the
    exact free group (useful for oracle tests and for growth diagnostics
    of the linear flow).
    """

    alpha: float
    dt: float
    t_final: float
    power: int = 2
    linear_only: bool = False
    snapshot_stride: int | None = None

    def __post_init__(self):
        _check_alpha(self.alpha)
        _check_dt(self.dt)
        _check_T(self.t_final)
        _check_power(self.power)
        _check_stride(self.snapshot_stride)
        if not math.isfinite(self.t_final / self.dt):
            raise ValueError(f"T / dt = {self.t_final} / {self.dt} is not a finite step count")
        if self.steps > MAX_STEPS:
            raise ValueError(f"T / dt = {self.t_final} / {self.dt} is {self.steps:.3g} steps; "
                             f"at most MAX_STEPS = {MAX_STEPS} are allowed")
        # evolve records its last step, so t_final must be that step's time
        if self.steps < 1 or self.snapshot_index(self.t_final) is None:
            raise ValueError(
                f"final time {self.t_final} is not a positive integer multiple of dt = {self.dt}"
            )

    @property
    def steps(self) -> int:
        return round(self.t_final / self.dt)

    @property
    def stride(self) -> int:
        """Steps between snapshots: snapshot_stride, else about 400 in all."""
        return self.snapshot_stride or max(1, self.steps // 400)

    @property
    def snapshot_steps(self) -> np.ndarray:
        """The steps evolve records, in order: 0, stride, 2 stride, ... and
        the last; O(steps / stride) entries, one per snapshot."""
        return np.append(np.arange(0, self.steps, self.stride), self.steps)

    @property
    def snapshot_times(self) -> np.ndarray:
        """The times of the snapshot steps, one per snapshot."""
        return self.dt * self.snapshot_steps

    def snapshot_index(self, t: float) -> int | None:
        """Index in snapshot_times of the snapshot at time t, in O(1); None
        unless t is a snapshot step's time to 1e-9 relative."""
        q = t / self.dt
        step = round(q) if math.isfinite(q) else -1
        if not 0 <= step <= self.steps or abs(step * self.dt - t) > 1e-9 * max(1.0, t):
            return None
        if step == self.steps:
            return (step - 1) // self.stride + 1  # after 0, stride, ... below it
        return step // self.stride if step % self.stride == 0 else None

    @property
    def kept_fraction(self) -> float:
        """2/(k+1), the kept half-spectrum share that dealiases u^k exactly."""
        return 2.0 / (self.power + 1)


@dataclass
class Trajectory:
    """What evolve returns: an empty (0, n) states array, the snapshot bytes
    the benchmark tracer reads.  It goes with ROADMAP item 1, after which
    evolve returns nothing."""

    states: np.ndarray


def evolve(initial: Field, config: EvolveConfig,
           observe: Callable[[np.ndarray], None]) -> Trajectory:
    """March the equation forward, handing each snapshot to observe.

    Snapshots are the states at config.snapshot_steps, step 0 (the initial
    state) among them; their times are config.snapshot_times.  Each is
    written into one reused n-length buffer and handed to observe(values)
    as it is made, so the run holds O(n) floats whatever the snapshot
    count; observe must not keep the buffer, and a caller that wants the
    states copies each one it is handed.  The state is tested for
    finiteness after every step and against the sup-norm limit at every
    snapshot, before observe sees it.
    """
    g, n, values = initial.grid, initial.grid.n, initial.values
    if not np.all(np.isfinite(values)):
        raise ValueError("initial data must be finite")
    # the state is np.fft.rfft of the samples, kept modes k < m only (irfft
    # zero-pads the rest); kept_fraction <= 2/3 never reaches Nyquist
    m = n // 2 + 1 if config.linear_only else int(config.kept_fraction * (n // 2)) + 1
    minus_ia = a_symbol_grid(g, config.alpha)[:m]  # A = -i a(xi); 0 at Nyquist
    E = np.exp(minus_ia * config.dt / 2.0)
    E2 = E * E

    def nonlin(h: np.ndarray, u: np.ndarray | None = None) -> np.ndarray:
        # u, when given, is irfft(h, n), already made for a snapshot
        if config.linear_only:
            return np.zeros_like(h)
        if u is None:
            u = np.fft.irfft(h, n)
        return minus_ia * np.fft.rfft(u ** config.power)[:m]

    dt = config.dt
    recorded = config.snapshot_steps.tolist()
    buffer = np.empty(n)
    v = np.fft.rfft(values)[:m]
    # the zero mode is frozen, so every state has the input's mass; one
    # constant shift, fixed at t = 0, takes the transform roundoff out of
    # the recorded sample sums without adding noise between states
    u = np.fft.irfft(v, n)
    shift = (np.sum(values) - np.sum(u)) / n
    np.add(u, shift, out=buffer)
    sup0 = float(np.max(np.abs(buffer)))
    limit = BLOWUP_FACTOR * max(sup0, 1e-300)
    observe(buffer)

    half_dt, dt6, dt_E, two_E = dt / 2.0, dt / 6.0, dt * E, 2.0 * E
    with np.errstate(over="ignore", invalid="ignore"):  # reported as BlowUpError
        for last, record in pairwise(recorded):
            for step in range(last + 1, record + 1):
                E2v = E2 * v
                n1 = nonlin(v, u)
                n2 = nonlin(E * (v + half_dt * n1))
                n3 = nonlin(E * v + half_dt * n2)
                n4 = nonlin(E2v + dt_E * n3)
                v = E2v + dt6 * (E2 * n1 + two_E * (n2 + n3) + n4)
                u = None
                if not np.isfinite(np.sum(v)):
                    raise BlowUpError(f"state not finite at t = {step * dt:.6g}", step * dt,
                                      math.nan)
            u = np.fft.irfft(v, n)
            np.add(u, shift, out=buffer)
            sup = float(np.max(np.abs(buffer)))
            if not np.isfinite(sup) or sup > limit:
                raise BlowUpError(
                    f"sup norm {sup:.3e} at t = {record * dt:.6g} exceeded "
                    f"{BLOWUP_FACTOR:.1e} x initial ({sup0:.3e})", record * dt, sup
                )
            observe(buffer)
    return Trajectory(states=np.empty((0, n)))


# ----------------------------------------------------------- conserved sums


def mass(f: Field) -> float:
    """Integral of the field over the box (the zero Fourier mode)."""
    return float(f.grid.dx * np.sum(f.values))


def energy(f: Field, alpha: float) -> float:
    """Quadratic invariant: int (D^(alpha/2) u)^2 + u^2 dx."""
    return _energy(f, _finite(frac_deriv_symbol(f.grid, alpha / 2.0)))


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


class Diagnostics:
    """Conserved quantities and norms of each state it is called on, in
    order: an evolve observer, handed the snapshots of config at
    config.snapshot_times."""

    def __init__(self, grid: SpectralGrid, config: EvolveConfig):
        self.grid, self.config = grid, config
        self.dsym = _finite(frac_deriv_symbol(grid, config.alpha / 2.0))
        self.rows: list[tuple] = []

    def __call__(self, values: np.ndarray) -> None:
        f = Field(self.grid, values)
        self.rows.append((mass(f), _energy(f, self.dsym), hamiltonian(f, self.config.power),
                          field_l2(f), field_linf(f)))

    def series(self) -> DiagnosticsSeries:
        """The rows of a whole run as series over its snapshot times."""
        return DiagnosticsSeries(self.config.snapshot_times, *map(np.array, zip(*self.rows)))


def diagnostics_series(initial: Field, config: EvolveConfig) -> DiagnosticsSeries:
    """Conserved quantities and norms along the flow of initial under
    config, each snapshot reduced as evolve makes it."""
    diag = Diagnostics(initial.grid, config)
    evolve(initial, config, observe=diag)
    return diag.series()
