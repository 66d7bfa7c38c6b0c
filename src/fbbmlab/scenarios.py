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
    RATIO_FAMILIES,
    TAIL_TOL,
    BoundaryContaminationError,
    UcpSums,
    _constant_tol,
    group_weighted_growth,
    make_corpus,
    ratio_report,
)
from .evolution import BLOWUP_FACTOR, BlowUpError, diagnostics_series, evolve
from .ground_state import (
    NonConvergenceError,
    _tail_samples,
    _tail_window,
    fit_tail_exponent,
    petviashvili,
    scale_to_speed,
    traveling_wave_residual,
)
from .spectral import Field, SpectralGrid, field_l2, make_grid
from .tables import Table
from .weighted import stein_asymptotics

MASS_DRIFT_TOL = 1e-8
LINEAR_L2_TOL = 1e-12
TW_RESIDUAL_TOL = 1e-6
ORACLE_SUP_TOL = 1e-6
TAIL_EXPONENT_TOL = 0.15
TAIL_R2_MIN = 0.995
STEIN_EXPONENT_TOL = 0.1
# min psi / max psi of a groundstate wave: at most 0.235 on every localized
# wave and at least 0.99999999 on the constant psi = 2, which solves the
# profile equation exactly and which the iteration finds on small boxes
# (alpha 0.05-2, L 0.25-16 and 800, n 64 and 1024)
LOCALIZED_MAX = 0.5


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


def _json_float(value) -> float | None:
    """value as a float, or None where it is not finite: strict JSON has no NaN."""
    value = float(value)
    return value if math.isfinite(value) else None


def _scalars(report) -> dict:
    """A library report's None, bool, int and float fields, a non-finite float as None,
    which open its per-entry summary; its arrays and tuples go to the tables."""
    return {f.name: _json_float(v) if isinstance(v, float) else v
            for f in fields(report)
            if isinstance(v := getattr(report, f.name), (type(None), int, float))}


# ------------------------------------------------------------------ evolve


def _gaussian(grid: SpectralGrid, amplitude: float, width: float, center: float):
    # far out on a large box the square overflows, and exp(-inf) is the exact 0
    with np.errstate(over="ignore"):
        return Field(grid, amplitude * np.exp(-(((grid.xs - center) / width) ** 2)))


def _blown_up(e: BlowUpError) -> ScenarioResult:
    """An evolve or ucp run whose flow blew up (no config rule foresees it):
    no tables, the failing check blow_up with the measured sup, null when
    not finite, at the time it was found, and a summary of the two."""
    check = Check("blow_up", False, e.sup,
                  f"finite and <= {BLOWUP_FACTOR:g} x initial sup, at t = {e.t:.6g}")
    return ScenarioResult(checks=[check], summary={"blow_up": {"t": e.t, "sup": check.value}})


def run_evolve(cfg: ScenarioConfig) -> ScenarioResult:
    p = cfg.params
    phi = _gaussian(make_grid(p["n"], p["L"]), p["amplitude"], p["width"], p["center"])
    econf = _evolve_config(cfg.scenario, p)
    # large data can overflow an invariant without blowing up the flow; such
    # a drift is null, and fails its check where it has one
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            diag = diagnostics_series(phi, econf)
        except BlowUpError as e:
            return _blown_up(e)
        drift = {name: _json_float(np.max(np.abs(series - series[0])))
                 for name, series in (("mass", diag.mass), ("energy", diag.energy),
                                      ("hamiltonian", diag.hamiltonian), ("l2", diag.l2))}
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
        "final": {"l2": _json_float(diag.l2[-1]), "sup": _json_float(diag.sup[-1])},
    }
    return res


# -------------------------------------------------------------- groundstate


def run_groundstate(cfg: ScenarioConfig) -> ScenarioResult:
    p = cfg.params
    grid = make_grid(p["n"], p["L"])
    try:
        sol = petviashvili(grid, p["alpha"], tol=p["tol"])
    except NonConvergenceError as e:
        # a solve can stall above tol (n 64, L 1, alpha 0.1 ends at 1e-3), which
        # no config rule foresees: no wave, and the last residual fails its check
        return ScenarioResult(
            checks=[_at_most("residual_within_tol", e.residual, p["tol"])],
            summary={"residual": e.residual, "iterations": e.iterations,
                     "mixed_from": e.mixed_from, "tail": None, "scaled_wave": None,
                     "oracle_sup_error": None})
    window = tuple(p["window"]) if p["window"] is not None else _tail_window(grid.L)
    target = 1.0 + p["alpha"]
    # the algebraic x^-(1+alpha) tail exists only for fractional dispersion;
    # at alpha = 2 the profile is exponentially localized and the window
    # holds roundoff, so there is nothing to fit.  An under-resolved tail
    # dips to or below 0 in the window, where the log-log fit cannot go:
    # the run then counts those samples in a failing check
    tail, nonpositive = None, 0
    if p["alpha"] < 2.0:
        in_window = sol.wave.values[_tail_samples(window, grid)]
        nonpositive = int(np.count_nonzero(in_window <= 0.0))
    if p["alpha"] < 2.0 and not nonpositive:
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
    psi = sol.wave.values
    res.checks.append(_at_most("localized", psi.min() / psi.max(), LOCALIZED_MAX))

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

    if nonpositive:
        res.checks.append(_at_most("tail_nonpositive_samples", nonpositive, 0))
    elif p["assert_tail"] and tail is None:
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
    rows, pairs_out = [], []
    for alpha, theta in cfg.params["pairs"]:
        fit = stein_asymptotics(alpha, theta)
        target_small = None if fit.subtracted else alpha - theta
        target_large = -(0.5 + theta)
        pairs_out.append({**_scalars(fit), "target_small": target_small,
                          "target_large": target_large})
        for branch, etas, values in (("small", fit.etas_small, fit.values_small),
                                     ("large", fit.etas_large, fit.values_large)):
            rows += [(alpha, theta, branch, eta, v) for eta, v in zip(etas, values, strict=True)]
        tag = f"({alpha:g},{theta:g})"
        if not fit.subtracted:
            res.checks.append(_within(f"p_small{tag}", fit.p_small, target_small,
                                      STEIN_EXPONENT_TOL))
        res.checks.append(_within(f"p_large{tag}", fit.p_large, target_large, STEIN_EXPONENT_TOL))
    res.tables.append(Table.from_rows("probes", (
        "alpha [dimensionless]",
        "theta [dimensionless]",
        "branch [label]",
        "eta [model units]",
        "stein_derivative [model units]",
    ), rows))
    res.summary = {"pairs": pairs_out}
    return res


# -------------------------------------------------------------- commutators


def run_commutators(cfg: ScenarioConfig) -> ScenarioResult:
    p = cfg.params
    corpus = make_corpus(p["n"], p["L"], p["size"], seed=cfg.seed)
    # against a constant weight every commutator vanishes: its measured norm
    # over ||f||_2 is roundoff, which _constant_tol bounds; its ratio is 0 where
    # that check passes (a constant's derivative is exactly 0), and the norm
    # where it fails, since the ratio would then raise
    const = Field(corpus.grid, np.full(p["n"], 1.5))
    probe_field = corpus.instance(0)[1]
    probe_norm = field_l2(probe_field)

    res = ScenarioResult()
    rows, fams_out = [], []
    entries = [(e["family"], {k: v for k, v in e.items() if k != "family"}) for e in p["families"]]
    for (family, fparams), rep in zip(entries, ratio_report(corpus, entries)):
        measured = field_l2(RATIO_FAMILIES[family][0](const, probe_field, **fparams)) / probe_norm
        tag = ";".join(f"{k}={v:g}" for k, v in sorted(fparams.items()))
        constant = _at_most(f"constant_zero({family} {tag})", measured,
                            _constant_tol(corpus.grid, family, **fparams))
        rows += [(family, tag, i, ratio) for i, ratio in enumerate(rep.ratios)]
        fams_out.append({**_scalars(rep), "constant_weight_ratio": 0.0 if constant.passed else measured})
        res.checks.append(_between(f"refinement({family} {tag})", rep.refinement_factor,
                                   "in [0.5, 2]", lo=0.5, hi=2.0))
        res.checks.append(constant)
    res.tables.append(Table.from_rows("ratios", (
        "family [label]",
        "params [label]",
        "instance [index]",
        "ratio [dimensionless]",
    ), rows))
    res.summary = {"families": fams_out}
    return res


# ----------------------------------------------------------- weighted growth


def run_weighted_growth(cfg: ScenarioConfig) -> ScenarioResult:
    p = cfg.params
    grid = make_grid(p["n"], p["L"])
    phi = _gaussian(grid, 1.0, 1.0, 0.0)
    times = _growth_times(p)

    res = ScenarioResult()
    rows, pairs_out = [], []
    for alpha, r in p["pairs"]:
        tag = f"({alpha:g},{r:g})"
        try:
            # squared samples that overflow make a norm inf and the slope
            # NaN, which the summary writes as null and the check fails
            with np.errstate(over="ignore", invalid="ignore"):
                rep = group_weighted_growth(phi, alpha, r, times)
        except BoundaryContaminationError as e:
            # mass reached the box edge, where it wraps around: no slope to
            # fit, and the pair adds no rows; the measured fraction fails
            pairs_out.append({"contaminated_at": e.t, "edge_mass_fraction": e.fraction})
            res.checks.append(_at_most(f"edge_mass_fraction{tag}", e.fraction, TAIL_TOL))
            continue
        rows += [(alpha, r, t, norm) for t, norm in zip(times.tolist(), rep.norms, strict=True)]
        pairs_out.append(_scalars(rep))
        res.checks.append(Check(f"slope{tag}", rep.within_bound, rep.slope, f"<= {rep.bound}"))
    res.tables.append(Table.from_rows("growth", (
        "alpha [dimensionless]",
        "r [dimensionless]",
        "time [model units]",
        "weighted_norm [model units]",
    ), rows))
    res.summary = {"pairs": pairs_out}
    return res


# ---------------------------------------------------------------------- ucp


def run_ucp(cfg: ScenarioConfig) -> ScenarioResult:
    p = cfg.params
    grid = make_grid(p["n"], p["L"])
    if p["profile"] == "gaussian":
        phi = _gaussian(grid, _ucp_amplitude(p), p["width"], 0.0)
    else:
        # odd data: integral zero up to roundoff; 'mean' is ignored
        phi = Field(grid, grid.xs * _gaussian(grid, 1.0, p["width"], 0.0).values)
    econf = _evolve_config(cfg.scenario, p)
    sums = UcpSums(grid, econf)
    try:
        evolve(phi, econf, observe=sums)
    except BlowUpError as e:
        return _blown_up(e)
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
        "residual": _json_float(R),
        "initial_mass": _json_float(mass0),
        "mass_drift": _json_float(mass_drift),
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
        grid = make_grid(cfg.params["n"], cfg.params["L"])
        env["grid"] = {"n": grid.n, "L": grid.L, "dx": grid.dx}
    return env


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Dispatch to the scenario's runner, whose summary holds only the
    values it computed, and open that summary with the envelope.  A list of
    per-entry results is positional: entry i belongs to params entry i."""
    res = RUNNERS[cfg.scenario](cfg)
    res.summary = {**envelope(cfg), **res.summary}
    return res
