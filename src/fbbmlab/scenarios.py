"""Scenario runners: dispatch a validated config to the owning module and
collect tables, a JSON-ready summary, and pass/fail checks.

Every runner is deterministic for a fixed config and seed; nothing here
reads the clock or global state, so reruns reproduce each table and
summary byte for byte.  Wall-clock time lives only in the manifest the
CLI writes around these results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .config import ScenarioConfig, _evolve_config, _growth_times, _ucp_amplitude
from .estimates import (
    UcpSums,
    _constant_tol,
    _family_ratio,
    _report,
    group_weighted_growth,
    make_corpus,
    resample_corpus,
)
from .evolution import diagnostics_series, evolve
from .ground_state import (
    _tail_window,
    fit_tail_exponent,
    petviashvili,
    scale_to_speed,
    traveling_wave_residual,
)
from .spectral import Field, SpectralGrid, make_grid
from .weighted import stein_asymptotics

MASS_DRIFT_TOL = 1e-8
LINEAR_L2_TOL = 1e-12
TW_RESIDUAL_TOL = 1e-6
ORACLE_SUP_TOL = 1e-6
TAIL_EXPONENT_TOL = 0.15
TAIL_R2_MIN = 0.995
STEIN_EXPONENT_TOL = 0.1


@dataclass(frozen=True)
class Check:
    """One asserted quantity: measured value against a stated threshold.
    The value is held as a float, or None when missing or non-finite (strict
    JSON has no NaN), and a check without a value fails."""

    name: str
    passed: bool
    value: float | None
    threshold: str

    def __post_init__(self):
        finite = self.value is not None and math.isfinite(self.value)
        object.__setattr__(self, "value", float(self.value) if finite else None)
        object.__setattr__(self, "passed", bool(self.passed) and finite)


@dataclass(frozen=True)
class Table:
    """A CSV-ready table by column: data holds one equal-length sequence
    per header in columns; plot picks the two columns for plot data."""

    name: str
    columns: tuple
    data: tuple
    plot: tuple | None = None

    def __post_init__(self):
        if len(self.data) != len(self.columns) or len({len(c) for c in self.data}) > 1:
            raise ValueError(f"table {self.name}: need one equal-length column per header")


@dataclass
class ScenarioResult:
    tables: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)


def _between(name: str, value, threshold: str, lo=-math.inf, hi=math.inf) -> Check:
    """lo <= value <= hi, stated as threshold; a missing value fails."""
    return Check(name, value is not None and lo <= value <= hi, value, threshold)


def _at_most(name: str, value: float, tol: float) -> Check:
    return _between(name, value, f"<= {tol:g}", hi=tol)


def _within(name: str, value: float, target: float, tol: float) -> Check:
    return Check(name, abs(value - target) <= tol, value, f"within {tol} of {target}")


def _scalars(report) -> dict:
    """A library report's None, bool, int and float fields, which open its
    per-entry summary; its arrays and tuples go to the tables."""
    return {f.name: v for f in fields(report)
            if isinstance(v := getattr(report, f.name), (type(None), int, float))}


# ------------------------------------------------------------------ evolve


def _gaussian(grid: SpectralGrid, amplitude: float, width: float, center: float):
    return Field(grid, amplitude * np.exp(-(((grid.xs - center) / width) ** 2)))


def run_evolve(cfg: ScenarioConfig) -> ScenarioResult:
    p = cfg.params
    phi = _gaussian(make_grid(p["n"], p["L"]), p["amplitude"], p["width"], p["center"])
    econf = _evolve_config(cfg.scenario, p)
    diag = diagnostics_series(phi, econf)

    drift = {
        "mass": float(np.max(np.abs(diag.mass - diag.mass[0]))),
        "energy": float(np.max(np.abs(diag.energy - diag.energy[0]))),
        "hamiltonian": float(np.max(np.abs(diag.hamiltonian - diag.hamiltonian[0]))),
        "l2": float(np.max(np.abs(diag.l2 - diag.l2[0]))),
    }
    res = ScenarioResult()
    res.tables.append(
        Table(
            name="diagnostics",
            columns=(
                "time [model units]",
                "mass [model units]",
                "energy [model units]",
                "hamiltonian [model units]",
                "l2_norm [model units]",
                "sup_norm [model units]",
            ),
            data=(diag.times, diag.mass, diag.energy, diag.hamiltonian, diag.l2, diag.sup),
            plot=(0, 4),
        )
    )
    res.checks.append(_at_most("mass_drift", drift["mass"], MASS_DRIFT_TOL))
    if p["linear_only"]:
        res.checks.append(_at_most("linear_l2_drift", drift["l2"], LINEAR_L2_TOL))
    res.summary = {
        "steps": econf.steps,
        "drift": drift,
        "final": {
            "l2": float(diag.l2[-1]),
            "sup": float(diag.sup[-1]),
        },
    }
    return res


# -------------------------------------------------------------- groundstate


def run_groundstate(cfg: ScenarioConfig) -> ScenarioResult:
    p = cfg.params
    grid = make_grid(p["n"], p["L"])
    sol = petviashvili(grid, p["alpha"], tol=p["tol"])
    window = tuple(p["window"]) if p["window"] is not None else _tail_window(grid.L)
    target = 1.0 + p["alpha"]
    # the algebraic x^-(1+alpha) tail exists only for fractional dispersion;
    # at alpha = 2 the profile is exponentially localized and the window
    # holds roundoff, so there is nothing to fit
    tail = None
    if p["alpha"] < 2.0:
        exponent, r2, samples = fit_tail_exponent(sol.wave, window=window)
        tail = {
            "exponent": float(exponent),
            "r_squared": float(r2),
            "samples": int(samples),
            "window": list(window),
            "target": target,
        }

    res = ScenarioResult()
    res.tables.append(
        Table(
            name="profile",
            columns=("x [model units]", "psi [model units]"),
            data=(grid.xs, sol.wave.values),
            plot=(0, 1),
        )
    )
    res.checks.append(_at_most("residual_within_tol", sol.residual, p["tol"]))

    oracle_sup_error = None
    if p["alpha"] == 2.0:
        exact = 3.0 / np.cosh(grid.xs / 2.0) ** 2
        oracle_sup_error = float(np.max(np.abs(sol.wave.values - exact)))
        res.checks.append(
            _at_most("closed_form_profile_error", oracle_sup_error, ORACLE_SUP_TOL)
        )

    scaled = None
    if p["c"] is not None:
        q = scale_to_speed(sol.wave, p["alpha"], p["c"])
        tw = traveling_wave_residual(q, p["alpha"], p["c"])
        scaled = {
            "box_halfwidth": q.grid.L,
            "tw_residual": float(tw),
        }
        res.tables.append(
            Table(
                name="wave",
                columns=("x [model units]", "q [model units]"),
                data=(q.grid.xs, q.values),
                plot=(0, 1),
            )
        )
        res.checks.append(_at_most("tw_residual", float(tw), TW_RESIDUAL_TOL))

    if p["assert_tail"] and tail is None:
        missing = "no algebraic tail at alpha = 2; drop assert_tail"
        res.checks.append(_between("tail_exponent", None, missing))
    elif p["assert_tail"]:
        res.checks.append(_within("tail_exponent", tail["exponent"], target, TAIL_EXPONENT_TOL))
        r2 = tail["r_squared"]
        res.checks.append(_between("tail_r_squared", r2, f">= {TAIL_R2_MIN}", lo=TAIL_R2_MIN))

    res.summary = {
        **_scalars(sol),
        "tail": tail,
        "scaled_wave": scaled,
        "oracle_sup_error": oracle_sup_error,
    }
    return res


# -------------------------------------------------------------------- stein


def run_stein(cfg: ScenarioConfig) -> ScenarioResult:
    res = ScenarioResult()
    alphas, thetas, branches, etas, values = [], [], [], [], []
    pairs_out = []
    for alpha, theta in cfg.params["pairs"]:
        fit = stein_asymptotics(alpha, theta)
        target_small = None if fit.subtracted else alpha - theta
        target_large = -(0.5 + theta)
        pairs_out.append({**_scalars(fit), "target_small": target_small,
                          "target_large": target_large})
        small, large = len(fit.etas_small), len(fit.etas_large)
        alphas += [alpha] * (small + large)
        thetas += [theta] * (small + large)
        branches += ["small"] * small + ["large"] * large
        etas += [*fit.etas_small, *fit.etas_large]
        values += [*fit.values_small, *fit.values_large]
        tag = f"({alpha:g},{theta:g})"
        if not fit.subtracted:
            res.checks.append(_within(f"p_small{tag}", fit.p_small, target_small,
                                      STEIN_EXPONENT_TOL))
        res.checks.append(_within(f"p_large{tag}", fit.p_large, target_large, STEIN_EXPONENT_TOL))
    res.tables.append(
        Table(
            name="probes",
            columns=(
                "alpha [dimensionless]",
                "theta [dimensionless]",
                "branch [label]",
                "eta [model units]",
                "stein_derivative [model units]",
            ),
            data=(alphas, thetas, branches, etas, values),
        )
    )
    res.summary = {"pairs": pairs_out}
    return res


# -------------------------------------------------------------- commutators


def run_commutators(cfg: ScenarioConfig) -> ScenarioResult:
    p = cfg.params
    corpus = make_corpus(p["n"], p["L"], p["size"], seed=cfg.seed)
    fine = resample_corpus(corpus, 2 * p["n"])
    # against a constant weight every family's ratio is exactly 0 or raises
    const = Field(corpus.grid, np.full(p["n"], 1.5))
    probe_field = Field(corpus.grid, corpus.fields[0])

    res = ScenarioResult()
    families, tags, instances, ratios = [], [], [], []
    fams_out = []
    for entry in p["families"]:
        family = entry["family"]
        fparams = {k: v for k, v in entry.items() if k != "family"}
        rep = _report(family, corpus, fine, **fparams)
        const_ratio = _family_ratio(family, const, probe_field, **fparams)
        tag = ";".join(f"{k}={v:g}" for k, v in sorted(fparams.items()))
        families += [family] * len(rep.ratios)
        tags += [tag] * len(rep.ratios)
        instances += range(len(rep.ratios))
        ratios += rep.ratios
        fams_out.append({**_scalars(rep), "constant_weight_ratio": float(const_ratio)})
        res.checks.append(_between(f"refinement({family} {tag})", rep.refinement_factor,
                                   "in [0.5, 2]", lo=0.5, hi=2.0))
        res.checks.append(_at_most(f"constant_zero({family} {tag})", float(const_ratio),
                                   _constant_tol(corpus.grid, family, **fparams)))
    res.tables.append(
        Table(
            name="ratios",
            columns=(
                "family [label]",
                "params [label]",
                "instance [index]",
                "ratio [dimensionless]",
            ),
            data=(families, tags, instances, ratios),
        )
    )
    res.summary = {"families": fams_out}
    return res


# ----------------------------------------------------------- weighted growth


def run_weighted_growth(cfg: ScenarioConfig) -> ScenarioResult:
    p = cfg.params
    grid = make_grid(p["n"], p["L"])
    phi = Field(grid, np.exp(-(grid.xs**2)))
    times = _growth_times(p)

    res = ScenarioResult()
    alphas, rs, ts, norms = [], [], [], []
    pairs_out = []
    for alpha, r in p["pairs"]:
        rep = group_weighted_growth(phi, alpha, r, times)
        alphas += [alpha] * times.size
        rs += [r] * times.size
        ts += times.tolist()
        norms += rep.norms
        pairs_out.append(_scalars(rep))
        res.checks.append(Check(f"slope({alpha:g},{r:g})", rep.within_bound, rep.slope,
                                f"<= {rep.bound}"))
    res.tables.append(
        Table(
            name="growth",
            columns=(
                "alpha [dimensionless]",
                "r [dimensionless]",
                "time [model units]",
                "weighted_norm [model units]",
            ),
            data=(alphas, rs, ts, norms),
        )
    )
    res.summary = {"pairs": pairs_out}
    return res


# ---------------------------------------------------------------------- ucp


def run_ucp(cfg: ScenarioConfig) -> ScenarioResult:
    p = cfg.params
    grid = make_grid(p["n"], p["L"])
    if p["profile"] == "gaussian":
        phi = Field(grid, _ucp_amplitude(p) * np.exp(-((grid.xs / p["width"]) ** 2)))
    else:
        # odd data: integral zero up to roundoff; 'mean' is ignored
        phi = Field(grid, grid.xs * np.exp(-((grid.xs / p["width"]) ** 2)))
    econf = _evolve_config(cfg.scenario, p)
    sums = UcpSums(grid, econf)
    evolve(phi, econf, observe=sums)
    R = sums.residual(p["t1"], p["t2"])

    masses, integrand = np.array(sums.mass), np.array(sums.integrand)
    mass0 = float(masses[0])
    mass_drift = float(np.max(np.abs(masses - mass0)))

    res = ScenarioResult()
    res.tables.append(
        Table(
            name="series",
            columns=(
                "time [model units]",
                "mass [model units]",
                "nonlinearity_integral [model units]",
            ),
            data=(econf.snapshot_times, masses, integrand),
            plot=(0, 2),
        )
    )
    res.checks.append(_at_most("mass_drift", mass_drift, MASS_DRIFT_TOL))
    # decided by the config, not by mass0: odd data's mass is zero only up
    # to roundoff, whose sign would otherwise decide
    sign_asserted = p["k"] % 2 == 0 and (p["profile"] == "odd-gaussian" or p["mean"] >= 0.0)
    if sign_asserted:
        res.checks.append(_between("residual_dominates_mass", float(R),
                                   f">= initial mass {mass0:.6g}", lo=mass0 - 1e-9))
    res.summary = {
        "residual": float(R),
        "initial_mass": mass0,
        "mass_drift": mass_drift,
        "sign_asserted": sign_asserted,
    }
    return res


RUNNERS = {
    "evolve": run_evolve,
    "groundstate": run_groundstate,
    "stein": run_stein,
    "commutators": run_commutators,
    "weighted-growth": run_weighted_growth,
    "ucp": run_ucp,
}


def envelope(cfg: ScenarioConfig) -> dict:
    """What the config fixes, which every summary opens with: the scenario,
    config hash, seed and params, and, where params has an n, the grid
    make_grid(n, L) builds."""
    env = {"scenario": cfg.scenario, "config_hash": cfg.config_hash(), "seed": cfg.seed,
           "params": cfg.params}
    if "n" in cfg.params:
        n, L = cfg.params["n"], cfg.params["L"]
        env["grid"] = {"n": n, "L": L, "dx": 2.0 * L / n}
    return env


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Dispatch to the scenario's runner, whose summary holds only the
    values it computed, and open that summary with the envelope.  A list of
    per-entry results is positional: entry i belongs to params entry i."""
    res = RUNNERS[cfg.scenario](cfg)
    res.summary = {**envelope(cfg), **res.summary}
    return res
