"""Time stepper: exactness of the linear flow, conservation structure,
nonlinear right-hand side oracles, and abort paths.

Conservation note: with the 2/(k+1) dealiasing rule the quadratic energy
and the Hamiltonian are invariants of the semidiscrete flow, so their
numerical drift is pure time-stepping error.  Measured drift shrinks
about 32x per dt halving (fifth order: the per-step invariant increments
telescope); tests assert the at-least-fourth-order property.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fbbmlab.evolution as evolution
from fft_reference import fft_xis
from fbbmlab.spectral import (
    Field,
    Spectrum,
    a_symbol,
    field_l2,
    forward,
    group_propagate,
    inverse,
    make_grid,
    op_a,
    translate,
)
from fbbmlab.evolution import (
    BlowUpError,
    EvolveConfig,
    Trajectory,
    diagnostics_series,
    energy,
    evolve,
    hamiltonian,
    mass,
)
from fbbmlab.ground_state import petviashvili, scale_to_speed

# ------------------------------------------------------------------- config


def test_config_validation(monkeypatch):
    # the abort threshold is a module constant: no config carries or checks it
    monkeypatch.setattr(evolution, "BLOWUP_FACTOR", 1.0)
    ok = dict(alpha=0.5, dt=0.01, t_final=1.0)
    EvolveConfig(**ok)
    with pytest.raises(ValueError):
        EvolveConfig(**{**ok, "alpha": 0.0})
    with pytest.raises(ValueError):
        EvolveConfig(**{**ok, "dt": -0.01})
    with pytest.raises(ValueError):
        EvolveConfig(**{**ok, "t_final": 0.0})
    with pytest.raises(ValueError):
        EvolveConfig(**{**ok, "t_final": 1.0005})  # not a multiple of dt
    with pytest.raises(ValueError):
        EvolveConfig(**{**ok, "power": 1})
    with pytest.raises(ValueError):
        EvolveConfig(**{**ok, "snapshot_stride": 0})
    with pytest.raises(TypeError):
        EvolveConfig(**{**ok, "blowup_factor": 1.0})


def test_config_defaults():
    cfg = EvolveConfig(alpha=0.5, dt=0.01, t_final=1.0)
    assert cfg.steps == 100
    assert cfg.kept_fraction == pytest.approx(2.0 / 3.0)
    cfg3 = EvolveConfig(alpha=0.5, dt=0.01, t_final=1.0, power=3)
    assert cfg3.kept_fraction == pytest.approx(0.5)


# ------------------------------------------------------------- linear flow


def test_zero_data_stays_zero():
    g = make_grid(256, 10.0)
    traj = evolve(Field(g, np.zeros(g.n)), EvolveConfig(alpha=0.75, dt=0.05, t_final=1.0))
    assert np.all(traj.states == 0.0)


def test_linear_only_matches_free_group():
    g = make_grid(512, 30.0)
    u0 = Field(g, np.exp(-g.xs**2) * np.cos(2 * g.xs))
    traj = evolve(u0, EvolveConfig(alpha=0.5, dt=0.05, t_final=5.0, linear_only=True))
    exact = group_propagate(u0, 5.0, 0.5)
    assert np.max(np.abs(traj.states[-1] - exact.values)) < 1e-12


def test_linear_only_l2_exactly_flat():
    g = make_grid(512, 30.0)
    u0 = Field(g, np.exp(-(g.xs + 3.0) ** 2))
    d = diagnostics_series(u0, EvolveConfig(alpha=0.25, dt=0.1, t_final=10.0, linear_only=True))
    assert np.max(np.abs(d.l2 - d.l2[0])) < 1e-12 * d.l2[0]


# ------------------------------------------------------------ conservation


def test_mass_mode_frozen_bitwise():
    g = make_grid(1024, 50.0)
    u0 = Field(g, 1.5 * np.exp(-g.xs**2) + 0.2 * np.exp(-((g.xs - 5) ** 2)))
    traj = evolve(u0, EvolveConfig(alpha=0.5, dt=0.02, t_final=2.0))
    m0 = forward(Field(g, traj.states[0])).coeffs[0]
    mT = forward(Field(g, traj.states[-1])).coeffs[0]
    assert mT == m0  # the zero mode is untouched by the stepper


def test_invariants_drift_small():
    g = make_grid(1024, 50.0)
    u0 = Field(g, 2.0 * np.exp(-g.xs**2))
    d = diagnostics_series(u0, EvolveConfig(alpha=0.5, dt=0.01, t_final=4.0))
    assert np.max(np.abs(d.mass - d.mass[0])) < 1e-12
    assert np.max(np.abs(d.energy - d.energy[0])) < 5e-6 * abs(d.energy[0])
    assert np.max(np.abs(d.hamiltonian - d.hamiltonian[0])) < 5e-6 * abs(d.hamiltonian[0])


def test_invariant_drift_at_least_fourth_order():
    # measured halving ratio is ~30 (fifth order, increments telescope);
    # assert the at-least-fourth-order property with margin
    g = make_grid(1024, 50.0)
    u0 = Field(g, 2.0 * np.exp(-g.xs**2))
    drifts = []
    for dt in (0.04, 0.02):
        d = diagnostics_series(u0, EvolveConfig(alpha=0.5, dt=dt, t_final=4.0))
        drifts.append(np.max(np.abs(d.energy - d.energy[0])))
    assert drifts[0] / drifts[1] > 12.0


def test_l2_derivative_matches_quadratic_pairing():
    # d/dt ||u||^2/2 = <u, A(u^2)> for the dealiased semidiscrete flow;
    # check by centered differences at the recorded times
    g = make_grid(1024, 50.0)
    u0 = Field(g, 2.0 * np.exp(-g.xs**2))
    cfg = EvolveConfig(alpha=0.5, dt=0.01, t_final=2.0, snapshot_stride=10)
    traj = evolve(u0, cfg)
    tau = cfg.snapshot_times[1] - cfg.snapshot_times[0]
    half_l2_sq = 0.5 * np.array([field_l2(Field(g, values)) ** 2 for values in traj.states])
    for i in (3, 7, 11):
        f = Field(g, traj.states[i])
        u2 = Field(g, f.values**2)
        pairing = g.dx * np.sum(f.values * op_a(u2, 0.5).values)
        fd = (half_l2_sq[i + 1] - half_l2_sq[i - 1]) / (2 * tau)
        assert fd == pytest.approx(pairing, abs=5e-4 * max(1.0, abs(pairing)))


# ------------------------------------------------- nonlinear right-hand side


def test_rhs_cosine_mode_oracle():
    # u0 = cos x on the pi box: u0^2 = 1/2 + cos(2x)/2, so the quadratic
    # term feeds mode 2 with coefficient -i a(2) L/2
    g = make_grid(64, np.pi)
    u0 = np.cos(g.xs)
    rhs = op_a(Field(g, u0 + u0**2), 0.5)
    coeff = forward(rhs).coeffs
    k2 = 2  # xi = pi k / L = k here
    expected = -1j * (2.0 / (1.0 + 2.0**0.5)) * (np.pi / 2.0)
    assert coeff[k2] == pytest.approx(expected, rel=1e-12)
    # mode 1 carries only the linear part
    expected1 = -1j * (1.0 / 2.0) * np.pi
    assert coeff[1] == pytest.approx(expected1, rel=1e-12)


def test_first_step_matches_flow_derivative():
    # (u(dt) - u0)/dt -> A(u0 + u0^2) as dt -> 0, first order in dt
    g = make_grid(512, 25.0)
    u0 = Field(g, np.exp(-g.xs**2))
    rhs = op_a(Field(g, u0.values + u0.values**2), 0.75).values
    errs = []
    for dt in (1e-3, 5e-4):
        traj = evolve(u0, EvolveConfig(alpha=0.75, dt=dt, t_final=dt))
        fd = (traj.states[-1] - u0.values) / dt
        errs.append(np.max(np.abs(fd - rhs)))
    assert errs[0] < 2e-3
    assert 1.5 < errs[0] / errs[1] < 2.5  # first divided difference: O(dt)


# ----------------------------------------------------------- traveling wave


def test_traveling_wave_translates():
    # alpha = 0.75: the profile's spectrum decays to ~1e-12 on this grid.
    # Smaller alpha needs finer dx (stretched-exponential spectral decay);
    # the acceptance suite covers alpha = 0.5 on its own grid.
    g = make_grid(4096, 100.0)
    r = petviashvili(g, 0.75, tol=1e-11)
    q = scale_to_speed(r.wave, 0.75, 2.0)
    traj = evolve(q, EvolveConfig(alpha=0.75, dt=0.01, t_final=2.0))
    expected = translate(q, 2.0 * 2.0)
    err = np.max(np.abs(traj.states[-1] - expected.values)) / np.max(np.abs(q.values))
    assert err < 1e-6


def test_traveling_wave_low_dispersion():
    # alpha = 0.5 profile spectra decay like exp(-c sqrt(xi)); dx from
    # (4096, 100) leaves percent-level band-edge content that aliases the
    # square.  (8192, L=25) puts the spectral floor at 2.4e-9 and the
    # remaining shape error (~3e-5) is pure time stepping.
    g = make_grid(8192, 25.0)
    r = petviashvili(g, 0.5, tol=1e-11)
    q = scale_to_speed(r.wave, 0.5, 2.0)
    traj = evolve(q, EvolveConfig(alpha=0.5, dt=0.005, t_final=5.0))
    expected = translate(q, 2.0 * 5.0)
    err = np.max(np.abs(traj.states[-1] - expected.values)) / np.max(np.abs(q.values))
    assert err < 1e-4


# ------------------------------------------------------------------ aborts


def test_blowup_abort_triggers(monkeypatch):
    g = make_grid(512, 25.0)
    u0 = Field(g, 2.0 * np.exp(-g.xs**2))
    monkeypatch.setattr(evolution, "BLOWUP_FACTOR", 1.0001)
    with pytest.raises(BlowUpError):
        evolve(u0, EvolveConfig(alpha=0.5, dt=0.01, t_final=5.0))
    # dt = 0.05 is far beyond the stable step for this amplitude: the state
    # is finite at t = 0.4 and overflows in the next step.  The error names
    # that step whatever the snapshot stride.
    g = make_grid(256, 10.0)
    big = Field(g, 10.0 * np.exp(-g.xs**2))
    monkeypatch.setattr(evolution, "BLOWUP_FACTOR", 1e308)
    with np.errstate(all="ignore"):
        ok = evolve(big, EvolveConfig(alpha=0.5, dt=0.05, t_final=0.4))
        assert np.all(np.isfinite(ok.states))
        for stride in (1, 7, 50):
            cfg = EvolveConfig(alpha=0.5, dt=0.05, t_final=5.0, snapshot_stride=stride)
            with pytest.raises(BlowUpError, match=r"at t = 0\.45( |$)"):
                evolve(big, cfg)


def test_blowup_raises_without_numpy_warnings(monkeypatch):
    # the overflow is reported once, by BlowUpError; numpy's
    # RuntimeWarnings on the way there would be noise beside it
    g = make_grid(256, 10.0)
    big = Field(g, 10.0 * np.exp(-g.xs**2))
    monkeypatch.setattr(evolution, "BLOWUP_FACTOR", 1e308)
    cfg = EvolveConfig(alpha=0.5, dt=0.05, t_final=5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUpError, match=r"at t = 0\.45( |$)"):
            evolve(big, cfg)


def test_nonfinite_initial_rejected():
    g = make_grid(256, 10.0)
    vals = np.exp(-g.xs**2)
    vals[3] = np.nan
    with pytest.raises(ValueError):
        evolve(Field(g, vals), EvolveConfig(alpha=0.5, dt=0.01, t_final=1.0))


# ------------------------------------------------ full-spectrum reference


def _full_spectrum_rk4(u0: Field, cfg: EvolveConfig) -> np.ndarray:
    """The integrating-factor RK4 on full complex spectra through the public
    transforms; every step is recorded."""
    g = u0.grid
    a = np.real(1j * a_symbol(fft_xis(g), cfg.alpha))  # the Nyquist mode is masked
    E = np.exp(-1j * a * cfg.dt / 2.0)
    E2 = E * E
    k = np.fft.fftfreq(g.n, d=1.0 / g.n)
    mask = np.abs(k) <= cfg.kept_fraction * (g.n // 2)
    mask[g.n // 2] = False

    def nonlin(h):
        u = inverse(Spectrum(g, h)).values
        return -1j * a * np.where(mask, forward(Field(g, u**cfg.power)).coeffs, 0.0)

    h = np.where(mask, forward(u0).coeffs, 0.0)
    dt = cfg.dt
    states = [inverse(Spectrum(g, h)).values]
    for _ in range(cfg.steps):
        n1 = nonlin(h)
        n2 = nonlin(E * (h + (dt / 2.0) * n1))
        n3 = nonlin(E * h + (dt / 2.0) * n2)
        n4 = nonlin(E2 * h + dt * E * n3)
        h = E2 * h + (dt / 6.0) * (E2 * n1 + 2.0 * E * (n2 + n3) + n4)
        states.append(inverse(Spectrum(g, h)).values)
    return np.array(states)


@pytest.mark.parametrize("power", [2, 3])
def test_half_spectrum_rk4_matches_full_spectrum(power):
    g = make_grid(256, 15.0)
    u0 = Field(g, 2.0 * np.exp(-g.xs**2) + 0.5 * np.exp(-((g.xs - 3.0) ** 2)))
    cfg = EvolveConfig(alpha=0.5, dt=0.02, t_final=0.1, power=power, snapshot_stride=1)
    traj = evolve(u0, cfg)
    ref = _full_spectrum_rk4(u0, cfg)
    assert traj.states.shape == ref.shape == (6, g.n)
    assert np.max(np.abs(traj.states - ref)) < 1e-12


# -------------------------------------------------------------- trajectory


def test_snapshot_stride_and_endpoints():
    g = make_grid(256, 10.0)
    u0 = Field(g, 0.5 * np.exp(-g.xs**2))
    cfg = EvolveConfig(alpha=0.5, dt=0.01, t_final=1.0, snapshot_stride=25)
    traj = evolve(u0, cfg)
    np.testing.assert_allclose(cfg.snapshot_times, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-12)
    assert len(cfg.snapshot_times) == len(traj.states)


@pytest.mark.parametrize(
    "steps, stride, recorded",
    [(7, 3, [0, 3, 6, 7]), (5, 50, [0, 5])],  # stride not dividing, beyond the steps
)
def test_snapshot_stride_uneven(steps, stride, recorded):
    g = make_grid(64, 10.0)
    u0 = Field(g, 0.5 * np.exp(-g.xs**2))
    cfg = EvolveConfig(alpha=0.5, dt=0.01, t_final=steps * 0.01, snapshot_stride=stride)
    traj = evolve(u0, cfg)
    np.testing.assert_allclose(cfg.snapshot_times, 0.01 * np.array(recorded), rtol=0, atol=1e-15)
    assert cfg.snapshot_times[-1] == pytest.approx(cfg.t_final, abs=1e-15)
    assert traj.states.shape == (len(recorded), g.n)
    assert np.max(np.abs(traj.states - _full_spectrum_rk4(u0, cfg)[recorded])) < 1e-12


@settings(max_examples=40, deadline=None)
@given(steps=st.integers(1, 30), stride=st.none() | st.integers(1, 40),
       dt=st.sampled_from([0.01, 0.003, 0.1]))
def test_snapshot_schedule_is_what_evolve_records(steps, stride, dt):
    # the config's schedule is every stride-th step and the last; evolve
    # hands its observer the states at those steps (the full-spectrum
    # reference records every step), and each recorded time's index points
    # back at its own step
    g = make_grid(64, 10.0)
    u0 = Field(g, 0.5 * np.exp(-g.xs**2))
    cfg = EvolveConfig(alpha=0.5, dt=dt, t_final=steps * dt, snapshot_stride=stride)
    recorded = [s for s in range(steps + 1) if s % cfg.stride == 0 or s == steps]
    assert cfg.snapshot_steps.tolist() == recorded
    assert np.array_equal(cfg.snapshot_times, dt * np.array(recorded))
    handed = []
    evolve(u0, cfg, observe=lambda values: handed.append(values.copy()))
    assert np.max(np.abs(np.array(handed) - _full_spectrum_rk4(u0, cfg)[recorded])) < 1e-12
    for step in range(steps + 2):
        index = cfg.snapshot_index(step * dt)
        assert index == (recorded.index(step) if step in recorded else None)


def test_wrong_length_initial_rejected():
    g = make_grid(64, 10.0)
    cfg = EvolveConfig(alpha=0.5, dt=0.01, t_final=0.1)
    for vals in (np.zeros(g.n + 1), np.zeros(g.n - 1), np.zeros((2, g.n // 2))):
        with pytest.raises(ValueError, match=r"expected \(64,\)"):
            evolve(Field(g, vals), cfg)


# ------------------------------------------------------- functional oracles


def test_mass_energy_closed_forms():
    g = make_grid(2048, 40.0)
    f = Field(g, np.exp(-g.xs**2 / 2))
    assert mass(f) == pytest.approx(np.sqrt(2 * np.pi), rel=1e-12)
    # at alpha = 0 the symbol is the identity: energy = 2 ||u||^2
    assert energy(f, 0.0) == pytest.approx(2 * np.sqrt(np.pi), rel=1e-12)
    # at alpha = 2: int (u')^2 + u^2 = sqrt(pi)/2 + sqrt(pi)
    assert energy(f, 2.0) == pytest.approx(1.5 * np.sqrt(np.pi), rel=1e-12)
    # hamiltonian of a Gaussian: int u^2/2 + u^3/3
    exact = 0.5 * np.sqrt(np.pi) + (1.0 / 3.0) * np.sqrt(2 * np.pi / 3)
    assert hamiltonian(f, 2) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("power", [2, 3, 4])
def test_hamiltonian_matches_power_formula(power):
    g = make_grid(4096, 100.0)
    v = 1.5 * np.exp(-g.xs**2 / 25.0) - 0.4 * np.exp(-((g.xs - 8.0) ** 2)) * np.cos(3 * g.xs)
    old = g.dx * np.sum(v**2 / 2.0 + v ** (power + 1) / (power + 1))
    assert abs(hamiltonian(Field(g, v), power) - old) <= 1e-14 * abs(old)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    alpha=st.floats(min_value=0.25, max_value=2.0),
)
def test_random_band_limited_runs_conserve(seed, alpha):
    g = make_grid(256, 15.0)
    rng = np.random.default_rng(seed)
    c = np.zeros(g.n, dtype=complex)
    k = np.arange(1, 20)
    amp = (rng.standard_normal(19) + 1j * rng.standard_normal(19)) / (1 + k)
    c[k], c[-k] = amp, np.conj(amp)
    u0 = Field(g, np.fft.ifft(c).real * 3.0)
    config = EvolveConfig(alpha=alpha, dt=0.02, t_final=1.0)
    traj = evolve(u0, config)
    d = diagnostics_series(u0, config)
    assert np.all(np.isfinite(traj.states))
    assert np.max(np.abs(d.mass - d.mass[0])) < 1e-12
    assert np.max(np.abs(d.energy - d.energy[0])) < 1e-6 * max(1e-12, abs(d.energy[0]))
