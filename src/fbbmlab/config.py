"""Scenario configuration: JSON parsing, validation that collects every
violation, defaults, and canonical hashing for reproducible outputs.

A config is a single JSON object selecting one scenario and its numeric
parameters.  Validation never stops at the first problem: the caller
gets the full list, each violation naming its field.  The resolved
config (defaults applied, output directory and emit flags stripped)
hashes to a stable id that tags every file the run writes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .estimates import (_check_box, _check_family, _check_orders, _check_sample_times,
                        _check_size, _check_t_count, _snapshot_indices)
from .evolution import EvolveConfig, _check_dt, _check_power, _check_stride, _check_T
from .ground_state import _check_speed, _check_tol, _speed_box, _tail_samples, _tail_window
from .spectral import _check_L, _check_alpha, _check_n, _group_phase, make_grid
from .weighted import _check_r, _stein_range, weight_values

SCENARIOS = ("evolve", "groundstate", "stein", "commutators", "weighted-growth", "ucp")

EMIT_KEYS = ("csv", "json", "plotdata")


class ConfigError(ValueError):
    """Carries the complete list of violations, not just the first."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated scenario request.

    params holds the scenario's numeric payload with defaults applied;
    seed feeds every random draw; emit selects output kinds.  config_hash
    covers scenario, params and seed, so two configs that produce the
    same numbers share the same id no matter where they write.
    """

    scenario: str
    params: dict
    seed: int
    out: str | None
    emit: dict

    def config_hash(self) -> str:
        payload = {"scenario": self.scenario, "params": self.params, "seed": self.seed}
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


# ------------------------------------------------------------- key tables

_REQUIRED = object()


def _positive(name):
    return lambda v: None if v > 0 else f"{name} must be positive"


def _violation(key, check, *args, **kwargs):
    """check(*args, **kwargs): a config check returns a violation or None;
    the owning module's check raises ValueError, recorded here under key."""
    try:
        return check(*args, **kwargs)
    except ValueError as e:
        return f"{key}: {e}"


def _two_numbers(v) -> bool:
    return isinstance(v, (list, tuple)) and len(v) == 2 and all(
        isinstance(w, (int, float)) and not isinstance(w, bool) for w in v)


def _window(v):
    return None if _two_numbers(v) else "window must be a pair of numbers [lo, hi]"


def _profile(v):
    return None if v in ("gaussian", "odd-gaussian") else (
        "profile must be 'gaussian' or 'odd-gaussian'"
    )


def _pairs_checker(second_name, pair_check):
    def check(v):
        if not isinstance(v, list) or not v:
            return f"pairs must be a nonempty list of [alpha, {second_name}] pairs"
        for i, entry in enumerate(v):
            if not _two_numbers(entry):
                return f"pairs[{i}] must be a two-number pair [alpha, {second_name}]"
            if msg := _violation(f"pairs[{i}]", pair_check, *entry):
                return msg
        return None

    return check


def _growth_pair(alpha, r):
    _check_alpha(alpha)
    _check_r(r)
    if r >= 1.5 + alpha:
        raise ValueError("decay order r must stay below 3/2 + alpha")


def _families(v):
    if not isinstance(v, list) or not v:
        return "families must be a nonempty list of family objects"
    for i, entry in enumerate(v):
        if not isinstance(entry, dict) or "family" not in entry:
            return f"families[{i}] must be an object with a 'family' key"
        fam = entry["family"]
        if msg := _violation(f"families[{i}]", _check_family, fam):
            return msg
        params = {k: w for k, w in entry.items() if k != "family"}
        if any(isinstance(w, bool) or not isinstance(w, (int, float)) for w in params.values()):
            return f"families[{i}]: parameters of {fam!r} must be numbers"
        if msg := _violation(f"families[{i}]", _check_orders, fam, **params):
            return msg
    return None


# (kind, default, check), check as in _violation. kind "number" accepts
# ints, "int" only ints.
_COMMON = {
    "n": ("int", _REQUIRED, _check_n),
    "L": ("number", _REQUIRED, _check_L),
    "alpha": ("number", _REQUIRED, _check_alpha),
}

_TABLES = {
    "evolve": {
        **_COMMON,
        "dt": ("number", _REQUIRED, _check_dt),
        "T": ("number", _REQUIRED, _check_T),
        "k": ("int", 2, _check_power),
        "amplitude": ("number", 1.0, None),
        "width": ("number", 5.0, _positive("width")),
        "center": ("number", 0.0, None),
        "linear_only": ("bool", False, None),
        "snapshot_stride": ("int?", None, _check_stride),
    },
    "groundstate": {
        **_COMMON,
        "tol": ("number", 1e-10, None),
        "c": ("number?", None, _check_speed),
        "window": ("list?", None, _window),
        "assert_tail": ("bool", False, None),
    },
    "stein": {
        "pairs": (
            "list",
            [[0.25, 0.5], [0.5, 0.75], [0.25, 0.75]],
            _pairs_checker("theta", _stein_range),
        ),
    },
    "commutators": {
        "n": ("int", 2048, _check_n),
        "L": ("number", 50.0, _check_box),
        "size": ("int", 50, _check_size),
        "families": (
            "list",
            [
                {"family": "generator", "alpha": 0.5},
                {"family": "hilbert", "l": 0, "m": 1},
                {"family": "hilbert", "l": 1, "m": 1},
                {"family": "fractional", "alpha": 0.25, "beta": 0.5},
            ],
            _families,
        ),
    },
    "weighted-growth": {
        "n": ("int", 16384, _check_n),
        "L": ("number", 1500.0, _check_L),
        "t_max": ("number", 40.0, _positive("t_max")),
        "t_count": ("int", 40, _check_t_count),
        "pairs": (
            "list",
            [[0.5, 0.7], [0.5, 1.2], [0.75, 1.8]],
            _pairs_checker("r", _growth_pair),
        ),
    },
    "ucp": {
        **_COMMON,
        "dt": ("number", _REQUIRED, _check_dt),
        "T": ("number", _REQUIRED, _check_T),
        "k": ("int", 2, _check_power),
        "t1": ("number", 0.0, None),
        "t2": ("number?", None, None),
        "profile": ("str", "gaussian", _profile),
        "mean": ("number", 0.5, None),
        "width": ("number", 1.0, _positive("width")),
        "snapshot_stride": ("int?", None, _check_stride),
    },
}


def _evolve_config(scenario: str, p: dict) -> EvolveConfig:
    """The EvolveConfig an evolve or ucp run steps with; a ucp run records
    every step unless the config sets snapshot_stride."""
    stride = p["snapshot_stride"]
    if stride is None and scenario == "ucp":
        stride = 1
    return EvolveConfig(p["alpha"], p["dt"], p["T"], p["k"],
                        linear_only=p.get("linear_only", False), snapshot_stride=stride)


# scenario-wide rules that look at more than one field; they run once every
# field has passed, so an EvolveConfig built here can fail only on T / dt
def _cross_evolve(p, bad, scenario="evolve"):
    try:
        return _evolve_config(scenario, p)
    except ValueError as e:
        bad.append(f"T: {e}")
        return None


def _ucp_amplitude(p) -> float:
    """The peak of the ucp run's gaussian data, whose integral is mean."""
    return p["mean"] / (p["width"] * math.sqrt(math.pi))


def _cross_ucp(p, bad):
    econf = _cross_evolve(p, bad, "ucp")
    if p["t2"] is None:
        p["t2"] = float(p["T"])
    if econf is not None:
        try:
            _snapshot_indices(econf, p["t1"], p["t2"])
        except ValueError as e:
            bad.append(str(e))  # the message opens with the time at fault
    if p["profile"] == "gaussian" and not math.isfinite(amp := _ucp_amplitude(p)):
        bad.append(f"width: the gaussian's peak mean / (width sqrt(pi)) = {amp} is not finite")


def _cross_groundstate(p, bad):
    if msg := _violation("tol", _check_tol, p["tol"], p["alpha"], p["n"], p["L"]):
        bad.append(msg)
    # the speed-c wave's box L / lambda can overflow where L does not
    if p["c"] is not None:
        try:
            _speed_box(p["L"], p["alpha"], p["c"], p["n"])
        except ValueError as e:
            bad.append(f"c: {e}")
    # the runner fits the tail below alpha = 2, on the window or by default
    # on _tail_window's, which holds too few samples on the smallest grids
    if p["alpha"] < 2.0:
        window = _tail_window(p["L"]) if p["window"] is None else p["window"]
        try:
            _tail_samples(window, make_grid(p["n"], p["L"]))
        except ValueError as e:
            bad.append(f"window: {e}")


def _growth_times(p) -> np.ndarray:
    """The weighted-growth run's sample times."""
    return np.linspace(1.0, p["t_max"], p["t_count"])


def _cross_growth(p, bad):
    if msg := _violation("t_max", _check_sample_times, times := _growth_times(p)):
        bad.append(msg)
    # the weight peaks at the box edge |x| = L, the phase t a(xi) at the last time
    grid = make_grid(p["n"], p["L"])
    for i, (alpha, r) in enumerate(p["pairs"]):
        with np.errstate(over="ignore"):
            if not np.isfinite(weight_values(p["L"], r)):
                bad.append(f"pairs[{i}]: the weight <x>^r overflows at the box edge |x| = L")
            # exp(-i t a) is finite where t a is; the phase is not cached here: a
            # symbol cached before the run made glibc trim the heap under later runs
            if not math.isfinite(float(times[-1]) * float(_group_phase(grid, alpha).max())):
                bad.append(f"t_max: phase t a(xi) of pairs[{i}] overflows at t = {times[-1]:g}")


_CROSS = {
    "evolve": _cross_evolve,
    "ucp": _cross_ucp,
    "groundstate": _cross_groundstate,
    "weighted-growth": _cross_growth,
}

_DEFAULT_SEED = 20260819


# value kind -> (accepted types, noun for the violation, JSON type of the
# summaries' params echo); "?" allows null
_KINDS = {
    "bool": ((bool,), "a boolean", "boolean"),
    "int": ((int,), "an integer", "integer"),
    "number": ((int, float), "a number", "number"),
    "str": ((str,), "a string", "string"),
    "list": ((list,), "a list", "array"),
}


def _as_float(value):
    """value with every number a float, inside lists too (pairs, window);
    booleans, strings and objects (family parameters) stay as written."""
    if isinstance(value, list):
        return [_as_float(v) for v in value]
    return float(value) if isinstance(value, int) and not isinstance(value, bool) else value


def _check_kind(key, kind, value, bad):
    if value is None:
        if not kind.endswith("?"):
            bad.append(f"{key} must not be null")
        return None
    base = kind.rstrip("?")
    types, noun, _ = _KINDS[base]
    # bool is an int subtype, so a boolean only passes as a "bool"
    if isinstance(value, bool) != (base == "bool") or not isinstance(value, types):
        got = ", got a boolean" if isinstance(value, bool) else ""
        bad.append(f"{key} must be {noun}{got}")
        return None
    # one form per number, so configs giving the same numbers share a hash
    return _as_float(value) if base in ("number", "list") else value


def _seed_error(seed) -> str | None:
    # numpy's generators take any non-negative integer and nothing else
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        return "seed must be an integer >= 0"
    return None


def with_seed(cfg: ScenarioConfig, seed) -> ScenarioConfig:
    """cfg with its seed replaced, under the same rule as a config's seed."""
    if msg := _seed_error(seed):
        raise ConfigError([msg])
    return dataclasses.replace(cfg, seed=seed)


def validate_config(obj) -> ScenarioConfig:
    """Validate a decoded config object; raises ConfigError with every
    violation found, or returns the resolved ScenarioConfig."""
    bad: list[str] = []
    if not isinstance(obj, dict):
        raise ConfigError(["config must be a JSON object"])
    scenario = obj.get("scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(
            [f"scenario must be one of {', '.join(SCENARIOS)}, got {scenario!r}"]
        )
    table = _TABLES[scenario]

    reserved = {"scenario", "seed", "out", "emit"}
    for key in sorted(set(obj) - reserved - set(table)):
        bad.append(f"unknown key {key!r} for scenario {scenario!r}")

    params: dict = {}
    for key, (kind, default, check) in table.items():
        if key in obj:
            val = _check_kind(key, kind, obj[key], bad)
        elif default is _REQUIRED:
            bad.append(f"missing required key {key!r}")
            continue
        else:
            val = default
        if val is not None and check is not None:
            # L's rule is on the grid step 2L/n; n precedes L in every table
            # and the smallest grid stands in for an n that failed its rule
            args = (val, params.get("n") or 16) if check is _check_L else (val,)
            msg = _violation(key, check, *args)
            if msg:
                bad.append(msg)
                continue
        params[key] = val

    seed = obj.get("seed", _DEFAULT_SEED)
    if msg := _seed_error(seed):
        bad.append(msg)
        seed = _DEFAULT_SEED

    out = obj.get("out")
    if out is not None and not isinstance(out, str):
        bad.append("out must be a string path")
        out = None

    emit = {"csv": True, "json": True, "plotdata": False}
    raw_emit = obj.get("emit", {})
    if not isinstance(raw_emit, dict):
        bad.append("emit must be an object with boolean flags")
    else:
        for key in sorted(set(raw_emit) - set(EMIT_KEYS)):
            bad.append(f"unknown emit flag {key!r}")
        for key in EMIT_KEYS:
            if key in raw_emit:
                if not isinstance(raw_emit[key], bool):
                    bad.append(f"emit.{key} must be a boolean")
                else:
                    emit[key] = raw_emit[key]

    cross = _CROSS.get(scenario)
    if cross is not None and not bad:
        cross(params, bad)

    if bad:
        raise ConfigError(bad)
    return ScenarioConfig(
        scenario=scenario, params=params, seed=seed, out=out, emit=emit
    )


def _finite(token: str) -> float:
    # NaN, Infinity and overflowing literals would leave the manifest's
    # config echo without a strict JSON form
    value = float(token)
    if not math.isfinite(value):
        raise ConfigError([f"number {token} is not finite"])
    return value


def _finite_int(token: str) -> int:
    _finite(token)  # an integer beyond the double range is no usable number
    return int(token)


def parse_config(text: str) -> ScenarioConfig:
    """Decode and validate a JSON config document."""
    try:
        obj = json.loads(text, parse_float=_finite, parse_int=_finite_int, parse_constant=_finite)
    except json.JSONDecodeError as e:
        raise ConfigError(
            [f"syntax error at line {e.lineno}, column {e.colno}: {e.msg}"]
        ) from None
    return validate_config(obj)


def load_config(path) -> ScenarioConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())
