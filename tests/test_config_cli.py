"""Config parsing and the CLI contract: every violation reported, unknown
keys rejected, deterministic outputs, schema-valid JSON, and exit codes
that are nonzero exactly when an asserted check fails."""

import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import types
import warnings
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fbbmlab.cli as cli_mod
import fbbmlab.evolution as evolution_mod
import fbbmlab.scenarios as scenarios_mod
import fbbmlab.tables as tables_mod

from fft_reference import stored_states
from fbbmlab.cli import EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_ERROR, EXIT_OK, load_schema, main
from fbbmlab.config import (
    _TABLES,
    SCENARIOS,
    ConfigError,
    _evolve_config,
    _ucp_amplitude,
    load_config,
    parse_config,
    validate_config,
)
from fbbmlab.estimates import (
    MAX_SAMPLE_TIMES,
    RATIO_FAMILIES,
    TAIL_TOL,
    BoundaryContaminationError,
    QuadratureInconsistencyError,
    _check_sample_times,
    _snapshot_indices,
    commutator_a_ratio,
    group_weighted_growth,
    make_corpus,
    ratio_report,
    ucp_residual,
)
from fbbmlab.evolution import MAX_STEPS, Diagnostics, EvolveConfig, evolve
from fbbmlab.ground_state import (
    NonConvergenceError,
    fit_tail_exponent,
    petviashvili,
    scale_to_speed,
)
from fbbmlab.scenarios import Check, ScenarioResult, envelope, run_scenario
from fbbmlab.spectral import Field, group_propagate, make_grid, op_a
from fbbmlab.tables import Table
from fbbmlab.weighted import cutoff_bump, stein_asymptotics, stein_pointwise, weighted_norm

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_cfg(tmp_path, obj, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj), encoding="utf-8")
    return str(p)


EVOLVE_OK = {
    "scenario": "evolve",
    "alpha": 0.5,
    "n": 256,
    "L": 50.0,
    "dt": 0.01,
    "T": 0.5,
}


# ----------------------------------------------------------------- parsing


def test_parse_valid_applies_defaults():
    cfg = validate_config(dict(EVOLVE_OK))
    assert cfg.scenario == "evolve"
    assert cfg.params["k"] == 2
    assert cfg.params["linear_only"] is False
    assert cfg.emit == {"csv": True, "json": True, "plotdata": False}


def test_syntax_error_reports_line():
    with pytest.raises(ConfigError, match="syntax error at line"):
        parse_config('{"scenario": "evolve",}')


def test_all_violations_collected():
    bad = {**EVOLVE_OK, "dt": -0.01, "alpha": 0.0, "bogus": 1}
    with pytest.raises(ConfigError) as exc:
        validate_config(bad)
    msgs = exc.value.violations
    assert any("dt must be positive" in m for m in msgs)
    assert any("alpha must lie in (0, 2]" in m for m in msgs)
    assert any("unknown key 'bogus'" in m for m in msgs)
    assert len(msgs) == 3


def test_scenario_gate():
    with pytest.raises(ConfigError, match="scenario must be one of"):
        validate_config({"scenario": "explode"})
    with pytest.raises(ConfigError, match="scenario must be one of"):
        validate_config({"alpha": 0.5})
    with pytest.raises(ConfigError, match="JSON object"):
        validate_config([1, 2])


def test_documented_examples():
    ok = validate_config(
        {"scenario": "groundstate", "alpha": 0.5, "n": 8192, "L": 200.0, "tol": 1e-12}
    )
    assert ok.params["tol"] == 1e-12
    with pytest.raises(ConfigError, match="dt must be positive"):
        validate_config({**EVOLVE_OK, "dt": -0.01})
    with pytest.raises(ConfigError, match="t1 < t2 required"):
        validate_config(
            {
                "scenario": "ucp",
                "alpha": 0.5,
                "n": 256,
                "L": 50.0,
                "dt": 0.01,
                "T": 5.0,
                "t1": 2.0,
                "t2": 1.0,
            }
        )


def test_required_keys_reported():
    with pytest.raises(ConfigError) as exc:
        validate_config({"scenario": "evolve", "alpha": 0.5})
    missing = {m for m in exc.value.violations if "missing required key" in m}
    assert len(missing) == 4  # n, L, dt, T


def test_step_count_rule():
    with pytest.raises(ConfigError, match="integer multiple"):
        validate_config({**EVOLVE_OK, "T": 0.505})


def test_ucp_t2_defaults_to_T():
    cfg = validate_config(
        {"scenario": "ucp", "alpha": 0.5, "n": 256, "L": 50.0, "dt": 0.01, "T": 3.0}
    )
    assert cfg.params["t2"] == 3.0
    with pytest.raises(ConfigError, match="t2 must not exceed T"):
        validate_config(
            {
                "scenario": "ucp",
                "alpha": 0.5,
                "n": 256,
                "L": 50.0,
                "dt": 0.01,
                "T": 3.0,
                "t2": 4.0,
            }
        )


def test_pairs_validation():
    with pytest.raises(ConfigError, match="theta must differ from alpha"):
        validate_config({"scenario": "stein", "pairs": [[0.5, 0.5]]})
    with pytest.raises(ConfigError, match="two-number pair"):
        validate_config({"scenario": "stein", "pairs": [[0.5]]})
    with pytest.raises(ConfigError, match="pairs must be a nonempty list"):
        validate_config({"scenario": "stein", "pairs": []})
    with pytest.raises(ConfigError, match="below 3/2 \\+ alpha"):
        validate_config({"scenario": "weighted-growth", "pairs": [[0.5, 2.1]]})


def test_families_validation():
    with pytest.raises(ConfigError, match="unknown family"):
        validate_config({"scenario": "commutators", "families": [{"family": "riesz"}]})
    with pytest.raises(ConfigError, match="families must be a nonempty list"):
        validate_config({"scenario": "commutators", "families": []})
    with pytest.raises(ConfigError, match="families\\[0\\] must be an object with a 'family' key"):
        validate_config({"scenario": "commutators", "families": [{"alpha": 0.5}]})
    with pytest.raises(ConfigError, match="takes parameters"):
        validate_config(
            {"scenario": "commutators", "families": [{"family": "generator", "l": 1}]}
        )


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"scenario": "stein", "pairs": [[0.25, 1.5]]}, "theta must lie in"),
        (
            {"scenario": "commutators", "families": [{"family": "fractional", "alpha": 0.9, "beta": 0.9}]},
            "alpha \\+ beta <= 1, got",
        ),
        ({"scenario": "commutators", "families": [{"family": "hilbert", "l": 2, "m": 1}]}, "orders"),
        ({"scenario": "commutators", "families": [{"family": "hilbert", "l": 0.5, "m": 1}]}, "orders"),
        ({"scenario": "commutators", "families": [{"family": "generator", "alpha": 3.0}]}, "alpha in \\(0, 2\\]"),
        ({"scenario": "commutators", "families": [{"family": "generator", "alpha": "x"}]}, "numbers"),
        ({"scenario": "commutators", "families": [{"family": ["generator"]}]}, "unknown family"),
        # the residual a solve returns floors near 3e-15 here, 6.6e-15 on the
        # second grid, so residual_within_tol could never pass
        ({"scenario": "groundstate", "alpha": 0.75, "n": 16384, "L": 800.0, "tol": 1e-15},
         "tol must be >= 3.22e-14"),
        ({"scenario": "groundstate", "alpha": 0.5, "n": 262144, "L": 800.0, "tol": 5e-15},
         "tol must be >= 5.26e-14"),
        # dx = 2L/n overflows
        ({"scenario": "evolve", "alpha": 0.5, "n": 16, "L": 1e308, "dt": 0.01, "T": 0.02},
         "L must be positive with a finite grid step"),
        # pi n / 2L overflows; the run used to exit 1 on a non-finite symbol
        ({"scenario": "evolve", "alpha": 0.5, "n": 64, "L": 1e-310, "dt": 0.01, "T": 0.1},
         "L: .*Nyquist wavenumber pi n/2L, got L = 1e-310"),
        # the corpus' squared samples underflow; the run used to exit 1
        ({"scenario": "commutators", "L": 1e306}, "1e-50 <= L <= 1e50, got L = 1e\\+306"),
        # L is fine, but the speed-c wave's box L / lambda overflows
        ({"scenario": "groundstate", "alpha": 2.0, "n": 4096, "L": 1e307, "c": 1.0001,
          "tol": 1e-9}, "speed-c box .* got L = inf"),
        # the tail fit needs 8 grid points in its window, the default one too;
        # the run used to exit 1 on the default
        ({"scenario": "groundstate", "alpha": 0.75, "n": 4096, "L": 200.0, "tol": 1e-10,
          "window": [30.0, 30.5]}, "only 5 samples in window"),
        ({"scenario": "groundstate", "alpha": 0.75, "n": 16, "L": 200.0},
         "window: only 3 samples in window \\(30.0, 120.0\\)"),
        # the gaussian's peak mean / (width sqrt(pi)) overflows; the run used
        # to exit 1 on non-finite initial data
        ({"scenario": "ucp", "alpha": 0.5, "n": 64, "L": 10.0, "dt": 0.01, "T": 0.1,
          "width": 1e-310}, "width: the gaussian's peak .* is not finite"),
        # T / dt overflows to inf; the step count used to raise OverflowError
        ({"scenario": "evolve", "alpha": 0.5, "n": 64, "L": 10.0, "dt": 1e-300, "T": 1e10},
         "T: T / dt = .* is not a finite step count"),
        ({"scenario": "ucp", "alpha": 0.5, "n": 64, "L": 10.0, "dt": 1e-300, "T": 1e10},
         "T: T / dt = .* is not a finite step count"),
        # 1e290 steps: a finite count no run can finish; evolve's step index
        # array used to fail with "Maximum allowed size exceeded"
        ({"scenario": "evolve", "alpha": 0.5, "n": 64, "L": 10.0, "dt": 1e-300, "T": 1e-10},
         "T: T / dt = .* steps; at most MAX_STEPS = 1000000"),
        ({"scenario": "ucp", "alpha": 0.5, "n": 64, "L": 10.0, "dt": 1e-300, "T": 1e-10},
         "T: T / dt = .* steps; at most MAX_STEPS = 1000000"),
        # the Stein tail's 1 / (2 theta) overflows; the run used to exit 1 on
        # a NaN exponent
        ({"scenario": "stein", "pairs": [[0.5, 5e-324]]},
         "pairs\\[0\\]: theta must lie in \\(0, 1\\), at least 2.2250738585072014e-308"),
        # the weight's x^2 overflows beyond L ~ 1.34e154; the run used to
        # exit 1 on a NaN slope
        ({"scenario": "weighted-growth", "n": 16, "L": 1e155, "t_max": 10.0, "t_count": 2,
          "pairs": [[0.5, 1.0]]}, "pairs\\[0\\]: the weight <x>\\^r overflows at the box edge"),
        # t_max a(xi) overflows; the run used to exit 1 on a non-finite symbol
        ({"scenario": "weighted-growth", "n": 256, "L": 50.0, "t_max": 1e308, "t_count": 2,
          "pairs": [[0.5, 0.5]]}, "t_max: phase t a\\(xi\\) of pairs\\[0\\] overflows"),
        # the run propagates once per sample time, and validation builds the
        # times: a count past the cap is refused before either
        ({"scenario": "weighted-growth", "t_count": MAX_SAMPLE_TIMES + 1},
         "t_count: must lie in 1..MAX_SAMPLE_TIMES = 10000, got 10001"),
    ],
    ids=["stein-theta", "fractional-sum", "hilbert-orders", "hilbert-half-order",
         "generator-alpha", "non-number", "unhashable-family", "groundstate-tol-floor",
         "groundstate-tol-floor-2^18", "evolve-L-overflow", "evolve-L-wavenumber-overflow",
         "commutators-L-box",
         "groundstate-c-box-overflow",
         "groundstate-window-samples", "groundstate-default-window-samples",
         "ucp-width-peak-overflow", "evolve-T-dt-overflow", "ucp-T-dt-overflow",
         "evolve-steps-cap", "ucp-steps-cap", "stein-theta-subnormal",
         "growth-weight-overflow", "growth-phase-overflow", "growth-t_count-cap"],
)
def test_kernel_ranges_are_config_errors(tmp_path, capsys, obj, message):
    # the ranges the kernels enforce, caught before anything runs
    cfg = write_cfg(tmp_path, obj)
    assert main(["validate", cfg]) == EXIT_CONFIG
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert re.search(message, capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


UCP_OK = {"scenario": "ucp", "alpha": 0.5, "n": 256, "L": 50.0, "dt": 0.01, "T": 0.5}


@pytest.mark.parametrize(
    "obj, message",
    [
        ({**UCP_OK, "t1": 0.013}, "t1 must be a recorded snapshot time"),
        ({**UCP_OK, "snapshot_stride": 7, "t2": 0.3}, "t2 must be a recorded snapshot time"),
        ({"scenario": "weighted-growth", "t_max": 0.5, "t_count": 3},
         "t_max: times must be .*strictly increasing"),
        ({"scenario": "weighted-growth", "t_max": 1.0, "t_count": 3},
         "t_max: times must be .*strictly increasing"),
        # both times round to step 5; the run used to exit 1
        ({"scenario": "ucp", "alpha": 0.5, "n": 64, "L": 10.0, "dt": 0.01, "T": 0.1,
          "t1": 0.05, "t2": 0.0500000001}, "t2 must fall on a later snapshot than t1"),
        # linspace(1, t_max, 3) repeats t = 1; the run used to exit 1
        ({"scenario": "weighted-growth", "n": 256, "L": 50.0, "t_max": 1.0000000000000002,
          "t_count": 3, "pairs": [[0.5, 0.7]]}, "t_max: times must be .*strictly increasing"),
    ],
    ids=["ucp-t1-between-steps", "ucp-t2-between-strides", "growth-t_max-below-1",
         "growth-t_max-equal-1", "ucp-t1-t2-one-snapshot", "growth-t_max-one-ulp-above-1"],
)
def test_unsampled_times_are_config_errors(tmp_path, capsys, obj, message):
    # times the run would never sample, caught before anything runs
    cfg = write_cfg(tmp_path, obj)
    assert main(["validate", cfg]) == EXIT_CONFIG
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert re.search(message, capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


def test_recorded_times_run(tmp_path):
    # a stride multiple and T itself (50 steps, not a multiple of 7) are
    # both recorded; one sample time is no fit but no error either
    code, _ = run_cli(tmp_path, {**UCP_OK, "snapshot_stride": 7, "t1": 0.07}, "ucp")
    assert code == EXIT_OK
    validate_config({"scenario": "weighted-growth", "t_max": 0.5, "t_count": 1})


def test_odd_data_sign_asserted_from_the_config():
    # odd data's initial mass is zero up to roundoff, -2.6e-16 on the first
    # box and 0.0 on the second; whether the residual's sign is asserted
    # must not follow that roundoff
    results = [run_scenario(validate_config({**UCP_OK, "L": L, "T": 1.0, "profile": "odd-gaussian"}))
               for L in (50.0, 10.1)]
    assert [r.summary["sign_asserted"] for r in results] == [True, True]
    for r in results:
        assert abs(r.summary["initial_mass"]) < 1e-14
        assert {c.name: c.passed for c in r.checks}["residual_dominates_mass"]


def test_fractional_orders_summing_to_one_run(tmp_path):
    # 1 - 0.33 - 0.67 rounds to -1.1e-16; the kernel clamps it at 0
    family = {"family": "fractional", "alpha": 0.33, "beta": 0.67}
    obj = {"scenario": "commutators", "n": 256, "size": 4, "families": [family]}
    code, _ = run_cli(tmp_path, obj, "frac")
    assert code == EXIT_OK


def _around(*edges):
    # each rule boundary and the nearest doubles on either side of it
    return st.sampled_from(
        [w for e in edges for w in (math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf))])


@st.composite
def commutators_configs(draw):
    family = draw(st.sampled_from(["generator", "hilbert", "fractional"]))
    if family == "generator":
        params = {"alpha": draw(st.floats(0.0, 2.0) | _around(0.0, 2.0))}
    elif family == "hilbert":
        params = {"l": draw(st.integers(-1, 2)), "m": draw(st.integers(-1, 2))}
    else:
        alpha = draw(st.floats(0.0, 1.0) | _around(0.0, 1.0))
        beta = draw(st.floats(0.0, 1.0) | _around(0.0, 1.0, 1.0 - alpha))
        params = {"alpha": alpha, "beta": beta}
    # the corpus box rule and the ends of the double range
    edges = _around(1e-50, 1e50, 0.0, sys.float_info.max)
    L = draw(st.floats(-52.0, 52.0).map(lambda e: 10.0**e) | edges)
    return {
        "scenario": "commutators",
        "n": draw(st.sampled_from([16, 32, 64, 128, 256, 15, 17])),
        "L": L,
        "size": draw(st.sampled_from([1, 2, 0])),
        "families": [{"family": family, **params}],
        "seed": draw(st.integers(0, 2**32)),
    }


@settings(max_examples=300, deadline=None)
@given(cfg=commutators_configs())
@example(cfg={"scenario": "commutators", "n": 256, "L": 1.0, "size": 2,
              "families": [{"family": "hilbert", "l": 2, "m": 0}]})
@example(cfg={"scenario": "commutators", "n": 4096, "L": 0.1, "size": 3,
              "families": [{"family": "fractional", "alpha": 0.99, "beta": 0.01}]})
def test_validated_commutators_config_runs(cfg):
    assert_validated_config_runs(cfg)


def assert_validated_config_runs(cfg):
    # the contract: a config that validates runs to exit 0 or 3, never 1
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        if main(["validate", path]) != EXIT_OK:
            return
        assert main(["run", path, "--out", os.path.join(tmp, "out")]) in (
            EXIT_OK, EXIT_CHECK_FAILED)


@st.composite
def stein_configs(draw):
    alpha = draw(st.floats(0.0, 2.0) | _around(0.0, 1.0, 2.0))
    # theta's range ends, the smallest normal double, and alpha itself
    theta = draw(st.floats(0.0, 1.0) | _around(0.0, sys.float_info.min, 1.0, 2.0, alpha))
    return {"scenario": "stein", "pairs": [[alpha, theta]]}


@settings(max_examples=200, deadline=None)
@given(cfg=stein_configs())
@example(cfg={"scenario": "stein", "pairs": [[0.5, 5e-324]]})
@example(cfg={"scenario": "stein", "pairs": [[1e-300, sys.float_info.min]]})
def test_validated_stein_config_runs(cfg):
    assert_validated_config_runs(cfg)


@st.composite
def growth_configs(draw):
    alpha = draw(st.floats(0.0, 2.0) | _around(0.0, 2.0))
    r = draw(st.floats(0.0, 3.5) | _around(0.0, 1.5 + alpha))
    # the whole double range, the square root of the largest double, where
    # the weight's x^2 overflows, and its ends
    edges = _around(0.0, math.sqrt(sys.float_info.max), sys.float_info.max)
    L = draw(st.floats(-310.0, 308.25).map(lambda e: 10.0**e) | edges)
    # the sample-time rules, and times whose phase t a(xi) overflows
    t_max = draw(st.integers(-2, 8).map(lambda m: 1.0 + m * 2.0**-52) | st.floats(1e-3, 3.0)
                 | st.floats(0.0, 308.25).map(lambda e: 10.0**e))
    return {"scenario": "weighted-growth", "n": draw(st.sampled_from([16, 64, 256, 15])),
            "L": L, "t_max": t_max, "t_count": draw(st.integers(1, 6)), "pairs": [[alpha, r]]}


@settings(max_examples=200, deadline=None)
@given(cfg=growth_configs())
@example(cfg={"scenario": "weighted-growth", "n": 16, "L": 1e155, "t_max": 10.0, "t_count": 2,
              "pairs": [[0.5, 1.0]]})
@example(cfg={"scenario": "weighted-growth", "n": 16, "L": 1e77, "t_max": 2.0, "t_count": 2,
              "pairs": [[2.0, 3.4]]})
@example(cfg={"scenario": "weighted-growth", "n": 256, "L": 50.0, "t_max": sys.float_info.max,
              "t_count": 2, "pairs": [[0.5, 0.5]]})
def test_validated_growth_config_runs(cfg):
    assert_validated_config_runs(cfg)


def _mostly(inside, edges):
    # one draw in ten from a rule's edges, the others from inside its range
    return st.sampled_from(range(10)).flatmap(lambda i: edges if i == 9 else inside)


def _decades(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


def _grid(draw):
    # n's rule; boxes across the double range, and at its ends, where the
    # step 2L/n or the Nyquist wavenumber pi n/2L overflows
    return {
        "n": draw(_mostly(st.sampled_from([16, 64, 256]), st.sampled_from([8, 15, 17]))),
        "L": draw(_mostly(_decades(-305.0, 307.9),
                          _decades(-310.0, -305.0) | _around(0.0, 8.9e307, sys.float_info.max))),
        "alpha": draw(_mostly(st.floats(0.0, 2.0, exclude_min=True), _around(0.0, 2.0))),
    }


def _steps(draw):
    # 1 to 32 steps of any size; T off a step, and step counts that overflow
    # or pass MAX_STEPS.  Returns the keys and the step count
    dt = draw(_mostly(_decades(-300.0, 12.0), _around(0.0)))
    steps = draw(st.integers(1, 32))
    T = draw(_mostly(st.just(steps * dt), st.sampled_from([
        1.5 * steps * dt, (MAX_STEPS + 1) * dt, 1e300 * dt, 0.0])))
    k = draw(_mostly(st.integers(2, 5), st.sampled_from([1, 0])))
    return {"dt": dt, "T": T, "k": k}, steps


# sizes across the double range, up to where u^k, the energy or the mass overflow
_SIZES = _decades(-300.0, 308.0)
_SIGNED = st.tuples(_SIZES | st.just(0.0), st.sampled_from([1.0, -1.0])).map(lambda p: p[0] * p[1])


@st.composite
def evolve_configs(draw):
    return {"scenario": "evolve", **_grid(draw), **_steps(draw)[0],
            "amplitude": draw(_SIGNED),
            "width": draw(_mostly(_SIZES, _around(0.0))),
            "center": draw(st.floats(-1e3, 1e3) | _SIGNED),
            "linear_only": draw(st.booleans()),
            "snapshot_stride": draw(_mostly(st.none() | st.integers(1, 40), st.just(0)))}


@settings(max_examples=200, deadline=None)
@given(cfg=evolve_configs())
@example(cfg={"scenario": "evolve", "alpha": 1.0, "n": 16, "L": 1.0, "dt": 1.0, "T": 1.0,
              "amplitude": 1e103, "width": 1.0, "linear_only": True})
def test_validated_evolve_config_runs(cfg):
    assert_validated_config_runs(cfg)


@st.composite
def ucp_configs(draw):
    keys, steps = _steps(draw)
    # t1 and t2 on the recorded steps (every step unless a stride is set),
    # between them, beyond T or out of order
    times = _mostly(st.integers(0, steps).map(lambda j: j * keys["dt"]),
                    st.floats(0.0, 2.0).map(lambda u: u * steps * keys["dt"]))
    return {"scenario": "ucp", **_grid(draw), **keys,
            "snapshot_stride": draw(_mostly(st.none(), st.integers(0, 40))),
            "t1": draw(times), "t2": draw(st.none() | times),
            "profile": draw(st.sampled_from(["gaussian", "odd-gaussian"])),
            "mean": draw(_SIGNED), "width": draw(_mostly(_SIZES, _around(0.0)))}


@settings(max_examples=200, deadline=None)
@given(cfg=ucp_configs())
@example(cfg={"scenario": "ucp", "alpha": 1.0, "n": 16, "L": 1e304, "dt": 1.0, "T": 1.0,
              "mean": 1000.0, "width": 1.0})
def test_validated_ucp_config_runs(cfg):
    assert_validated_config_runs(cfg)


@st.composite
def groundstate_configs(draw):
    grid = _grid(draw)
    L = grid["L"]
    # tols on both sides of the grid's floor 10 eps (1 + (pi n/2L)^alpha),
    # speeds about c = 1, and windows about the 0.7 L edge and the 8-sample rule
    window = st.tuples(st.floats(0.0, 0.7), st.floats(0.0, 0.75)).map(
        lambda w: [w[0] * L, (w[0] + w[1]) * L])
    speed = _mostly(_decades(-3.0, 3.0).map(lambda d: 1.0 + d), _around(1.0))
    return {"scenario": "groundstate", **grid,
            "tol": draw(_decades(-16.0, 0.0) | st.just(1e-10)),
            "c": draw(st.none() | speed),
            "window": draw(st.none() | window), "assert_tail": draw(st.booleans())}


@settings(max_examples=200, deadline=None)
@given(cfg=groundstate_configs())
@example(cfg={"scenario": "groundstate", "alpha": 1.0, "n": 16, "L": 1.0})
@example(cfg={"scenario": "groundstate", "alpha": 0.1, "n": 64, "L": 1.0})
@example(cfg={"scenario": "groundstate", "alpha": 0.125, "n": 64, "L": 1.0, "tol": 1e-10})
def test_validated_groundstate_config_runs(cfg):
    assert_validated_config_runs(cfg)


# ------------------------------------------------------------ rule parity

GROUNDSTATE = {"scenario": "groundstate", "alpha": 0.75, "n": 4096, "L": 200.0}
G64 = make_grid(64, 20.0)
F64 = Field(G64, np.exp(-(G64.xs**2)))
WIDE_GRID = make_grid(1024, 50.0)
WIDE = Field(WIDE_GRID, np.exp(-(WIDE_GRID.xs**2)))
TAIL_GRID = make_grid(4096, 200.0)  # dx = 400/4096 is exact: x_2356 = 30.078125
TAIL = Field(TAIL_GRID, 1.0 / (1.0 + TAIL_GRID.xs**2))
HUGE = Field(make_grid(4096, 1e300), np.zeros(4096))  # L / lambda overflows for c near 1
ODD_GRID = make_grid(256, 10.1)  # dx is not a binary fraction
ODD = Field(ODD_GRID, 1.0 / (1.0 + ODD_GRID.xs**2))
X0, X7 = float(ODD_GRID.xs[140]), float(ODD_GRID.xs[147])


def ucp_flow(stride):
    # initial data, and the evolve config run_ucp steps for UCP_OK with this
    # snapshot_stride
    params = {**validate_config(UCP_OK).params, "snapshot_stride": stride}
    return Field(G64, np.exp(-(G64.xs**2))), _evolve_config("ucp", params)


# rule -> (config holding the value v, the field its violation names, the
# library entry point that owns the rule, values on both sides of the boundary)
PARITY = {
    "alpha-evolve": (lambda v: {**EVOLVE_OK, "alpha": v}, "alpha",
                     lambda v: EvolveConfig(alpha=v, dt=0.01, t_final=0.5),
                     [0.0, 1e-9, 2.0, 2.0 + 1e-12]),
    "alpha-op_a": (lambda v: {**EVOLVE_OK, "alpha": v}, "alpha", lambda v: op_a(F64, v),
                   [-0.5, 0.0, 1e-9, 2.0, 2.5]),
    "alpha-groundstate": (lambda v: {**GROUNDSTATE, "alpha": v}, "alpha",
                          lambda v: petviashvili(G64, v, tol=1e300), [0.0, 0.5, 2.0, 2.1]),
    "alpha-growth": (lambda v: {"scenario": "weighted-growth", "pairs": [[v, 0.5]]}, "pairs",
                     lambda v: group_propagate(F64, 1.0, v), [0.0, 0.5, 2.0, 2.1]),
    "alpha-generator": (
        lambda v: {"scenario": "commutators", "families": [{"family": "generator", "alpha": v}]},
        "families", lambda v: commutator_a_ratio(F64, F64, v), [0.0, 0.5, 2.0, 2.1]),
    "alpha-stein": (lambda v: {"scenario": "stein", "pairs": [[v, 0.5]]}, "pairs",
                    lambda v: stein_asymptotics(v, 0.5), [0.0, 2.0, 2.1]),
    "theta-stein": (lambda v: {"scenario": "stein", "pairs": [[0.5, v]]}, "pairs",
                    lambda v: stein_pointwise(cutoff_bump, 0.5, v),
                    [0.0, 5e-324, math.nextafter(sys.float_info.min, 0.0), sys.float_info.min,
                     0.25, math.nextafter(1.0, 0.0), 1.0]),
    "n": (lambda v: {**EVOLVE_OK, "n": v}, "n", lambda v: make_grid(v, 1.0), [8, 15, 16, 24, 32]),
    "L": (lambda v: {**EVOLVE_OK, "L": v}, "L", lambda v: make_grid(EVOLVE_OK["n"], v),
          [-1.0, 0.0, 1e-310, 2.2368882200258943e-306, 2.2368882200258946e-306, 1e-3,
           8.9e307, 9e307, 1e308]),
    "dt": (lambda v: {**EVOLVE_OK, "dt": v}, "dt",
           lambda v: EvolveConfig(alpha=0.5, dt=v, t_final=0.5), [-0.01, 0.0, 0.01]),
    "T": (lambda v: {**EVOLVE_OK, "T": v}, "T",
          lambda v: EvolveConfig(alpha=0.5, dt=0.01, t_final=v), [-0.5, 0.0, 0.5]),
    "k": (lambda v: {**EVOLVE_OK, "k": v}, "k",
          lambda v: EvolveConfig(alpha=0.5, dt=0.01, t_final=0.5, power=v), [1, 2, 3]),
    "k-ucp": (lambda v: {**UCP_OK, "k": v}, "k",
              lambda v: _evolve_config("ucp", {**validate_config(UCP_OK).params, "k": v}),
              [1, 2]),
    "snapshot_stride": (lambda v: {**EVOLVE_OK, "snapshot_stride": v}, "snapshot_stride",
                        lambda v: EvolveConfig(alpha=0.5, dt=0.01, t_final=0.5, snapshot_stride=v),
                        [-1, 0, 1]),
    "T-multiple-of-dt": (lambda v: {**EVOLVE_OK, "T": v}, "T",
                         lambda v: EvolveConfig(alpha=0.5, dt=0.01, t_final=v),
                         [0.004, 0.01, 0.5, 0.5 + 5e-10, 0.5 + 2e-9, 0.505]),
    "t1-recorded": (lambda v: {**UCP_OK, "snapshot_stride": 7, "t1": v}, "t1",
                    lambda v: ucp_residual(*ucp_flow(7), v, 0.5),
                    [0.0, 0.05, 0.07, 0.07 + 5e-10, 0.07 + 2e-9, 0.49]),
    "t2-recorded": (lambda v: {**UCP_OK, "snapshot_stride": 7, "t2": v}, "t2",
                    lambda v: ucp_residual(*ucp_flow(7), 0.0, v), [0.3, 0.35, 0.49, 0.5]),
    "ucp-default-stride": (lambda v: {**UCP_OK, "t1": v}, "t1",
                           lambda v: ucp_residual(*ucp_flow(None), v, 0.5),
                           [0.01, 0.013, 0.25]),
    "t1<t2": (lambda v: {**UCP_OK, "t1": v, "t2": 0.3}, "t1",
              lambda v: ucp_residual(*ucp_flow(None), v, 0.3), [-0.01, 0.0, 0.29, 0.3, 0.31]),
    "t1-t2-distinct-snapshots": (lambda v: {**UCP_OK, "t1": 0.05, "t2": v}, "t2",
                                 lambda v: ucp_residual(*ucp_flow(None), 0.05, v),
                                 [0.0500000001, 0.05 + 5e-10, 0.05 + 2e-9, 0.06]),
    "growth-sample-times": (
        lambda v: {"scenario": "weighted-growth", "n": 256, "L": 50.0, "t_max": v, "t_count": 3,
                   "pairs": [[0.5, 0.7]]}, "t_max",
        lambda v: group_weighted_growth(WIDE, 0.5, 0.7, np.linspace(1.0, v, 3)),
        [0.5, 1.0, 1.0000000000000002, 1.0000000000000004, 1.5]),
    "growth-phase": (
        lambda v: {"scenario": "weighted-growth", "n": 1024, "L": 50.0, "t_max": v, "t_count": 2,
                   "pairs": [[0.5, 0.7]]}, "t_max",
        lambda v: group_propagate(WIDE, v, 0.5), [2.0, 1e300, 1e308, sys.float_info.max]),
    "window": (lambda v: {**GROUNDSTATE, "window": list(v)}, "window",
               lambda v: fit_tail_exponent(TAIL, v),
               [(0.0, 10.0), (20.0, 10.0), (30.0, 140.0), (30.0, 140.001), (30.0, 30.5),
                (30.078125, 30.76171875), (30.078125, 30.7617187)]),
    "window-odd-dx": (lambda v: {**GROUNDSTATE, "n": 256, "L": 10.1, "window": list(v)},
                      "window", lambda v: fit_tail_exponent(ODD, v),
                      [(X0, X7), (np.nextafter(X0, 9.0), X7), (X0, np.nextafter(X7, 0.0)),
                       (np.nextafter(X0, 0.0), np.nextafter(X7, 9.0))]),
    "c": (lambda v: {**GROUNDSTATE, "c": v}, "c", lambda v: scale_to_speed(F64, 0.75, v),
          [0.5, 1.0, 1.0 + 1e-12, 2.0]),
    "c-box": (lambda v: {**GROUNDSTATE, "L": 1e300, "c": v}, "c",
              lambda v: scale_to_speed(HUGE, 0.75, v), [1.0 + 1e-12, 1.1, 2.0]),
    "r": (lambda v: {"scenario": "weighted-growth", "pairs": [[0.5, v]]}, "pairs",
          lambda v: group_weighted_growth(WIDE, 0.5, v, [1.0]), [-1e-9, 0.0, 0.5]),
    "r-norm": (lambda v: {"scenario": "weighted-growth", "pairs": [[0.5, v]]}, "pairs",
               lambda v: weighted_norm(F64, v), [-1.0, 0.0]),
    "size": (lambda v: {"scenario": "commutators", "size": v}, "size",
             lambda v: make_corpus(16, 1.0, v, seed=1), [-1, 0, 1, 2]),
    "L-corpus": (lambda v: {"scenario": "commutators", "L": v}, "L",
                 lambda v: make_corpus(16, v, 1, seed=1),
                 [0.0, 1e-60, math.nextafter(1e-50, 0.0), 1e-50, 50.0, 1e50,
                  math.nextafter(1e50, math.inf), 1e306]),
}


def _library_accepts(entry_point, value) -> bool:
    try:
        entry_point(value)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("rule", sorted(PARITY))
def test_config_and_library_apply_one_rule(rule):
    # each parameter rule has one implementation: the config accepts a value
    # exactly when the library entry point that owns the rule does
    config_with, field, entry_point, values = PARITY[rule]
    decisions = set()
    for v in values:
        library_ok = _library_accepts(entry_point, v)
        try:
            validate_config(config_with(v))
            config_ok, violations = True, []
        except ConfigError as e:
            config_ok, violations = False, e.violations
        assert config_ok == library_ok, (rule, v, violations)
        if not config_ok:
            assert any(m.startswith(field) for m in violations), (rule, v, violations)
        decisions.add(config_ok)
    assert decisions == {True, False}  # the values straddle the boundary


def _near(t):
    # t, the doubles next to it, and the offsets either side of the 1e-9
    # relative tolerance that makes a time a whole step
    scale = max(1.0, abs(t))
    return st.sampled_from([t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf),
                            *(t + d * scale for d in (-2e-9, -5e-10, 5e-10, 2e-9))])


@st.composite
def time_rule_configs(draw):
    if draw(st.booleans()):
        # linspace(1, t_max, t_count) repeats a time for t_max a few ulps above 1
        t_max = draw(st.integers(-2, 8).map(lambda m: 1.0 + m * 2.0**-52) | st.floats(1e-3, 3.0))
        return {"scenario": "weighted-growth", "n": 256, "L": 50.0, "t_max": t_max,
                "t_count": draw(st.integers(1, 10)), "pairs": [[0.5, 0.7]]}
    dt = draw(st.sampled_from([0.01, 0.1, 0.25, 0.003]))
    steps = draw(st.integers(1, 40))
    obj = {"scenario": "ucp", "alpha": 0.5, "n": 64, "L": 10.0, "dt": dt,
           "T": draw(_near(steps * dt)), "t1": draw(_near(draw(st.integers(-1, steps)) * dt))}
    stride = draw(st.none() | st.integers(1, 9))
    if stride is not None:
        obj["snapshot_stride"] = stride
    t2 = draw(st.none() | st.integers(0, steps + 2).map(lambda s: s * dt) | st.just(obj["t1"]))
    if t2 is not None:
        obj["t2"] = draw(_near(t2))
    return obj


def _time_rules_accept(obj) -> bool:
    """The library's preconditions on the times a config's run uses."""
    if obj["scenario"] == "weighted-growth":
        return _library_accepts(_check_sample_times,
                                np.linspace(1.0, obj["t_max"], obj["t_count"]))
    t1, t2 = obj["t1"], obj.get("t2", obj["T"])
    try:
        # a ucp run records every step unless the config sets a stride
        config = EvolveConfig(0.5, obj["dt"], obj["T"], snapshot_stride=obj.get("snapshot_stride", 1))
        indices = _snapshot_indices(config, t1, t2)
    except ValueError:
        return False
    # the indices pick the snapshots evolve records at those times
    times = config.snapshot_times
    for i, t in zip(indices, (t1, t2)):
        assert abs(times[i] - t) <= 1e-9 * max(1.0, t), (obj, indices)
    return True


@settings(max_examples=300, deadline=None)
@given(obj=time_rule_configs())
@example(obj={"scenario": "ucp", "alpha": 0.5, "n": 64, "L": 10.0, "dt": 0.01, "T": 0.1,
              "t1": 0.05, "t2": 0.0500000001})
@example(obj={"scenario": "weighted-growth", "n": 256, "L": 50.0, "t_max": 1.0000000000000002,
              "t_count": 3, "pairs": [[0.5, 0.7]]})
def test_time_rules_validate_as_the_library_checks(obj):
    # the config accepts sample and snapshot times exactly when the library
    # check the run calls does; nothing is run, so no run-time outcome hides
    try:
        validate_config(obj)
        accepted = True
    except ConfigError:
        accepted = False
    assert accepted == _time_rules_accept(obj), obj


def test_groundstate_window_rule():
    with pytest.raises(ConfigError, match="0.7 L"):
        validate_config(
            {
                "scenario": "groundstate",
                "alpha": 0.5,
                "n": 256,
                "L": 50.0,
                "window": [10.0, 45.0],
            }
        )


def test_emit_flags_validated():
    with pytest.raises(ConfigError, match="unknown emit flag"):
        validate_config({**EVOLVE_OK, "emit": {"csvx": True}})
    with pytest.raises(ConfigError, match="emit.csv must be a boolean"):
        validate_config({**EVOLVE_OK, "emit": {"csv": 1}})
    with pytest.raises(ConfigError, match="emit must be an object"):
        validate_config({**EVOLVE_OK, "emit": ["csv"]})
    cfg = validate_config({**EVOLVE_OK, "emit": {"plotdata": True, "csv": False}})
    assert cfg.emit == {"csv": False, "json": True, "plotdata": True}


def test_type_checks():
    with pytest.raises(ConfigError, match="n must be an integer"):
        validate_config({**EVOLVE_OK, "n": 256.0})
    with pytest.raises(ConfigError, match="n must not be null"):
        validate_config({**EVOLVE_OK, "n": None})
    with pytest.raises(ConfigError, match="out must be a string path"):
        validate_config({**EVOLVE_OK, "out": 3})
    with pytest.raises(ConfigError, match="profile must be 'gaussian' or 'odd-gaussian'"):
        validate_config({**UCP_OK, "profile": "square"})
    with pytest.raises(ConfigError, match="must be a number, got a boolean"):
        validate_config({**EVOLVE_OK, "alpha": True})
    with pytest.raises(ConfigError, match="seed must be an integer"):
        validate_config({**EVOLVE_OK, "seed": "abc"})


def test_hash_covers_numbers_not_plumbing():
    a = validate_config(dict(EVOLVE_OK))
    b = validate_config({**EVOLVE_OK, "out": "/tmp/elsewhere", "emit": {"csv": False}})
    c = validate_config({**EVOLVE_OK, "seed": 99})
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
    # a number takes one form inside window too
    window = {"scenario": "groundstate", "alpha": 0.75, "n": 4096, "L": 200.0}
    assert (validate_config({**window, "window": [30, 120]}).config_hash()
            == validate_config({**window, "window": [30.0, 120.0]}).config_hash())


def test_example_configs_all_valid():
    cfg_dir = os.path.join(REPO, "scripts", "configs")
    names = sorted(os.listdir(cfg_dir))
    assert len(names) >= 6
    for name in names:
        load_config(os.path.join(cfg_dir, name))
        assert main(["validate", os.path.join(cfg_dir, name)]) == EXIT_OK, name


# --------------------------------------------------------------------- cli


def test_validate_exit_codes(tmp_path, capsys):
    good = write_cfg(tmp_path, EVOLVE_OK)
    assert main(["validate", good]) == EXIT_OK
    assert "config valid" in capsys.readouterr().out
    bad = write_cfg(tmp_path, {**EVOLVE_OK, "dt": -1}, "bad.json")
    assert main(["validate", bad]) == EXIT_CONFIG
    assert "dt must be positive" in capsys.readouterr().err
    assert main(["validate", str(tmp_path / "missing.json")]) == EXIT_CONFIG


@pytest.mark.parametrize("command", ["validate", "run"])
def test_unreadable_config_exits_2(tmp_path, capsys, command):
    # a directory and a file that is not UTF-8 are reported, not raised
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe")
    out = tmp_path / "out"
    for path, why in ((tmp_path, "Is a directory"), (binary, "is not UTF-8"),
                      (tmp_path / "missing.json", "No such file")):
        extra = ["--out", str(out)] if command == "run" else []
        assert main([command, str(path), *extra]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(path) in err and why in err
    assert not out.exists()


def test_schema_subcommand(capsys):
    assert main(["schema"]) == EXIT_OK
    listed = capsys.readouterr().out.split()
    assert "manifest" in listed and "evolve" in listed
    assert main(["schema", "ucp"]) == EXIT_OK
    schema = json.loads(capsys.readouterr().out)
    assert schema["properties"]["scenario"]["const"] == "ucp"
    assert main(["schema", "nope"]) == EXIT_CONFIG


def test_console_script_installed():
    out = subprocess.run(
        ["fbbmlab", "--version"], capture_output=True, text=True, check=True
    )
    assert "fbbmlab" in out.stdout


@pytest.mark.parametrize("preset, want", [(None, "1"), ("3", "3")])
def test_cli_runs_one_blas_thread(preset, want):
    # OpenBLAS reads the variable when numpy loads, which importing the CLI
    # does; a value the user set is kept
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(REPO, "src"),
                                                      env.get("PYTHONPATH")]))
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    probe = ("import os, fbbmlab.cli; print(os.environ.get('OPENBLAS_NUM_THREADS')); "
             "print(len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') "
             "else '')")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout.split("\n")
    assert out[0] == want
    if preset is None and out[1]:
        assert out[1] == "1"


def run_cli(tmp_path, obj, out_name, extra=()):
    cfg = write_cfg(tmp_path, obj, f"{out_name}.json")
    out = str(tmp_path / out_name)
    code = main(["run", cfg, "--out", out, *extra])
    return code, out


def test_linear_evolve_run(tmp_path):
    code, out = run_cli(
        tmp_path,
        {**EVOLVE_OK, "linear_only": True, "emit": {"plotdata": True}},
        "lin",
    )
    assert code == EXIT_OK
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    jsonschema.validate(manifest, load_schema("manifest"))
    byname = {c["name"]: c for c in manifest["checks"]}
    assert byname["linear_l2_drift"]["passed"]
    assert byname["linear_l2_drift"]["value"] <= 1e-12
    assert byname["mass_drift"]["passed"]
    assert set(manifest["outputs"]) == {"diagnostics.csv", "summary.json", "diagnostics.dat"}

    summary = json.load(open(os.path.join(out, "summary.json")))
    jsonschema.validate(summary, load_schema("evolve"))
    assert summary["drift"]["l2"] <= 1e-12

    lines = open(os.path.join(out, "diagnostics.csv"), "rb").read()
    assert b"\r" not in lines
    text = lines.decode().splitlines()
    assert text[0] == f"# config-hash: {manifest['config_hash']}"
    header = text[1].split(",")
    assert header[0] == "time [model units]"
    assert all("[" in cell and "]" in cell for cell in header)
    dat = open(os.path.join(out, "diagnostics.dat")).read().splitlines()
    assert dat[0].startswith("# config-hash:")
    assert len(dat[2].split()) == 2


def test_rerun_bit_identical(tmp_path):
    ucp = {
        "scenario": "ucp",
        "alpha": 0.5,
        "n": 256,
        "L": 50.0,
        "dt": 0.01,
        "T": 1.0,
        "seed": 5,
    }
    # two wide tables (profile and scaled wave), each also as plot data
    wave = {
        "scenario": "groundstate",
        "alpha": 0.75,
        "n": 2048,
        "L": 200.0,
        "tol": 1e-10,
        "c": 2.0,
        "emit": {"plotdata": True},
        "seed": 5,
    }
    files = {
        "ucp": ("series.csv", "summary.json"),
        "groundstate": ("profile.csv", "wave.csv", "profile.dat", "wave.dat", "summary.json"),
    }
    for obj in (ucp, wave):
        _, out_a = run_cli(tmp_path, obj, f"{obj['scenario']}-a")
        _, out_b = run_cli(tmp_path, obj, f"{obj['scenario']}-b")
        ma = json.load(open(os.path.join(out_a, "manifest.json")))
        mb = json.load(open(os.path.join(out_b, "manifest.json")))
        assert ma["error"] is None
        assert sorted(ma["outputs"]) == sorted(files[obj["scenario"]])
        for name in files[obj["scenario"]]:
            a = open(os.path.join(out_a, name), "rb").read()
            b = open(os.path.join(out_b, name), "rb").read()
            assert a == b
        ma.pop("wall_clock_s"), mb.pop("wall_clock_s")
        assert ma == mb


def test_stein_manifest_records_fit(tmp_path):
    code, out = run_cli(
        tmp_path, {"scenario": "stein", "pairs": [[0.25, 0.75]]}, "stein"
    )
    assert code == EXIT_OK
    summary = json.load(open(os.path.join(out, "summary.json")))
    jsonschema.validate(summary, load_schema("stein"))
    pair = summary["pairs"][0]
    for key in ("p_small", "p_large", "r2_small", "r2_large"):
        assert key in pair
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    names = {c["name"] for c in manifest["checks"]}
    assert "p_small(0.25,0.75)" in names and "p_large(0.25,0.75)" in names


def test_groundstate_oracle_manifest(tmp_path):
    code, out = run_cli(
        tmp_path,
        {"scenario": "groundstate", "alpha": 2.0, "n": 1024, "L": 50.0, "tol": 1e-9},
        "gs",
    )
    assert code == EXIT_OK
    summary = json.load(open(os.path.join(out, "summary.json")))
    jsonschema.validate(summary, load_schema("groundstate"))
    assert summary["oracle_sup_error"] is not None
    assert summary["oracle_sup_error"] <= 1e-6
    assert summary["tail"] is None  # exponential localization: nothing to fit
    assert 1 < summary["mixed_from"] < summary["iterations"]
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    names = {c["name"] for c in manifest["checks"]}
    assert "closed_form_profile_error" in names


def test_validated_tol_just_above_returned_residual_passes(tmp_path):
    # the stop test passes at iteration 148 with a returned residual of
    # 2.00788e-14, just over this tol; the solve goes on until both are
    # under it, so the run that validate accepts exits 0
    obj = {"scenario": "groundstate", "alpha": 0.75, "n": 1024, "L": 100.0,
           "tol": 2.0054706333930115e-14}
    assert main(["validate", write_cfg(tmp_path, obj)]) == EXIT_OK
    code, out = run_cli(tmp_path, obj, "gs")
    assert code == EXIT_OK
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert summary["residual"] < obj["tol"]


@pytest.mark.parametrize("assert_tail", [False, True])
def test_nonpositive_tail_samples_fail_a_check(tmp_path, assert_tail):
    # a converged solve whose tail window holds samples at or below 0 has
    # no log-log fit: the run counts them in a failing check, writes its
    # table and a summary with no tail, and exits 3, not 1; the library
    # fit still raises for its own callers
    n, L = 64, 146.28553447080662
    obj = {"scenario": "groundstate", "alpha": 1.6047496432423727, "n": n, "L": L,
           "tol": 1e-10, "assert_tail": assert_tail}
    assert main(["validate", write_cfg(tmp_path, obj)]) == EXIT_OK
    code, out = run_cli(tmp_path, obj, "gs")
    assert code == EXIT_CHECK_FAILED
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["error"] is None
    assert manifest["outputs"] == ["profile.csv", "summary.json"]
    assert json.load(open(os.path.join(out, "summary.json")))["tail"] is None
    xs, psi = np.loadtxt(os.path.join(out, "profile.csv"), delimiter=",", skiprows=2).T
    window = psi[(xs >= 0.15 * L) & (xs <= 0.6 * L)]
    assert np.count_nonzero(window <= 0) == 7
    checks = {c["name"]: c for c in manifest["checks"]}
    assert checks["residual_within_tol"]["passed"] and checks["localized"]["passed"]
    assert checks["tail_nonpositive_samples"] == {
        "name": "tail_nonpositive_samples", "passed": False, "value": 7.0, "threshold": "<= 0"}
    assert len(checks) == 3
    with pytest.raises(ValueError, match="tail samples must be positive"):
        fit_tail_exponent(Field(make_grid(n, L), psi))


def test_constant_solution_fails_localized(tmp_path):
    # psi = 2 solves psi + D^alpha psi = psi^2/2 exactly, and on this small
    # box the solve converges to it: the residual check passes, and
    # localized, min psi / max psi, fails at 1; the nearest measured
    # localized wave (alpha 1, L 4) reads 0.235 and passes
    obj = {"scenario": "groundstate", "alpha": 0.125, "n": 64, "L": 1.0, "tol": 1e-10}
    code, out = run_cli(tmp_path, obj, "constant")
    assert code == EXIT_CHECK_FAILED
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["error"] is None
    checks = {c["name"]: c for c in manifest["checks"]}
    assert checks["residual_within_tol"]["passed"]
    assert not checks["localized"]["passed"] and checks["localized"]["value"] >= 0.99999999
    assert checks["localized"]["threshold"] == f"<= {scenarios_mod.LOCALIZED_MAX:g}"
    psi = np.loadtxt(os.path.join(out, "profile.csv"), delimiter=",", skiprows=2)[:, 1]
    assert np.allclose(psi, 2.0, rtol=1e-8)
    code, out = run_cli(tmp_path, {**obj, "alpha": 1.0, "L": 4.0}, "wave")
    checks = {c["name"]: c for c in json.load(open(os.path.join(out, "manifest.json")))["checks"]}
    assert code == EXIT_OK and checks["localized"]["value"] == pytest.approx(0.235, abs=1e-3)


def test_unconverged_solve_fails_a_check(tmp_path):
    # the solve stalls near 1e-3 on this box and spends its budget: the run
    # records the last residual in a failing check and a summary with no
    # wave, writes no table, and exits 3, not 1; the library still raises
    obj = {"scenario": "groundstate", "alpha": 0.1, "n": 64, "L": 1.0}
    assert main(["validate", write_cfg(tmp_path, obj)]) == EXIT_OK
    code, out = run_cli(tmp_path, obj, "gs")
    assert code == EXIT_CHECK_FAILED
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["error"] is None
    assert manifest["outputs"] == ["summary.json"]
    summary = json.load(open(os.path.join(out, "summary.json")))
    with pytest.raises(NonConvergenceError) as e:
        petviashvili(make_grid(64, 1.0), 0.1)
    assert (summary["residual"], summary["iterations"], summary["mixed_from"]) == (
        e.value.residual, 400, e.value.mixed_from)
    assert summary["residual"] > 1e-4
    assert summary["tail"] is summary["scaled_wave"] is summary["oracle_sup_error"] is None
    checks = [(c["name"], c["passed"]) for c in manifest["checks"]]
    assert checks == [("residual_within_tol", False)]


@pytest.mark.parametrize("obj, path, code", [
    # u^3 overflows in the Hamiltonian, which no check reads; the linear
    # flow is unaffected
    ({"scenario": "evolve", "alpha": 1.0, "n": 16, "L": 1.0, "dt": 1.0, "T": 1.0,
      "amplitude": 1e103, "width": 1.0, "linear_only": True}, ("drift", "hamiltonian"), EXIT_OK),
    # the step dx = 1.25e303 overflows int u^2 dx at t = 0, so the residual
    # and its check residual_dominates_mass have no value
    ({"scenario": "ucp", "alpha": 1.0, "n": 16, "L": 1e304, "dt": 1.0, "T": 1.0,
      "mean": 1000.0, "width": 1.0}, ("residual",), EXIT_CHECK_FAILED),
    # the squared samples of the weighted norm overflow, so the norms are
    # inf and the pair has no slope
    ({"scenario": "weighted-growth", "n": 16, "L": 1e77, "t_max": 2.0, "t_count": 2,
      "pairs": [[2.0, 3.4]]}, ("pairs", 0, "slope"), EXIT_CHECK_FAILED),
])
def test_overflowing_invariant_is_null(tmp_path, obj, path, code):
    # a run can go on while one of its values overflows: the summary holds
    # null for it, and the run exits 0 or 3, not 1 in the JSON writer; the
    # overflow is expected there, so numpy warns of none of it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out = run_cli(tmp_path, obj, "o")
    assert got == code
    value = json.load(open(os.path.join(out, "summary.json")))
    for key in path:
        value = value[key]
    assert value is None


def test_boundary_contamination_fails_a_check(tmp_path):
    # mass reaches 0.8 L by t = 5: the pair has no slope to fit, so the run
    # records the measured mass fraction in a failing check, writes a
    # summary and a table without the pair's rows, and exits 3, not 1; the
    # library still raises for its own callers
    obj = {"scenario": "weighted-growth", "n": 1024, "L": 50.0, "t_max": 5.0, "t_count": 2,
           "pairs": [[0.5, 0.5]]}
    assert main(["validate", write_cfg(tmp_path, obj)]) == EXIT_OK
    code, out = run_cli(tmp_path, obj, "wg")
    assert code == EXIT_CHECK_FAILED
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["error"] is None
    assert manifest["outputs"] == ["growth.csv", "summary.json"]
    grid = make_grid(1024, 50.0)
    with pytest.raises(BoundaryContaminationError, match="mass fraction 1.20e-07") as raised:
        group_weighted_growth(Field(grid, np.exp(-(grid.xs**2))), 0.5, 0.5, [1.0, 5.0])
    fraction = raised.value.fraction
    assert manifest["checks"] == [{"name": "edge_mass_fraction(0.5,0.5)", "passed": False,
                                   "value": fraction, "threshold": f"<= {TAIL_TOL:g}"}]
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert summary["pairs"] == [{"contaminated_at": 5.0, "edge_mass_fraction": fraction}]
    with open(os.path.join(out, "growth.csv"), encoding="utf-8") as fh:
        assert len(fh.read().splitlines()) == 2  # the hash and header lines


def test_constant_weight_commutator_fails_a_check(tmp_path, monkeypatch):
    # a generator commutator that returns f does not vanish against the
    # constant weight 1.5: its measured norm over ||f||_2, 1, fails the run's
    # constant_zero check, and the run exits 3 with a valid summary, not 1;
    # the library still raises for its own callers
    broken = (lambda psi, f, alpha: f, *RATIO_FAMILIES["generator"][1:])
    monkeypatch.setitem(RATIO_FAMILIES, "generator", broken)
    obj = {"scenario": "commutators", "n": 256, "size": 3,
           "families": [{"family": "generator", "alpha": 0.5}]}
    code, out = run_cli(tmp_path, obj, "const")
    assert code == EXIT_CHECK_FAILED
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["error"] is None
    checks = {c["name"]: c for c in manifest["checks"]}
    assert checks["constant_zero(generator alpha=0.5)"] == {
        "name": "constant_zero(generator alpha=0.5)", "passed": False, "value": 1.0,
        "threshold": "<= 1e-11"}
    assert checks["refinement(generator alpha=0.5)"]["passed"]
    summary = json.load(open(os.path.join(out, "summary.json")))
    jsonschema.validate(summary, load_schema("commutators"))
    assert summary["families"][0]["constant_weight_ratio"] == 1.0
    grid = make_grid(256, 50.0)
    with pytest.raises(QuadratureInconsistencyError):
        commutator_a_ratio(Field(grid, np.full(256, 1.5)), Field(grid, np.sin(grid.xs)), 0.5)


@pytest.mark.parametrize("obj, t", [
    ({"scenario": "evolve", "alpha": 1.0, "n": 64, "L": 1.0, "dt": 0.01, "T": 0.1, "k": 4,
      "amplitude": 10.0, "width": 10000.0}, 0.03),
    ({"scenario": "ucp", "alpha": 1.0, "n": 64, "L": 1.0, "dt": 0.01, "T": 0.1, "k": 4,
      "mean": 10.0}, 0.02),
])
def test_blow_up_fails_a_check(tmp_path, obj, t):
    # a validated config whose flow blows up, which no config rule foresees:
    # the run records the failing check blow_up with the measured sup (null:
    # the state is not finite) at the time found, writes a summary of the
    # two and no table, and exits 3, not 1; the library still raises
    assert main(["validate", write_cfg(tmp_path, obj)]) == EXIT_OK
    code, out = run_cli(tmp_path, obj, "blow")
    assert code == EXIT_CHECK_FAILED
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["error"] is None
    assert manifest["outputs"] == ["summary.json"]
    assert manifest["checks"] == [{"name": "blow_up", "passed": False, "value": None,
                                   "threshold": f"finite and <= 1e+06 x initial sup, at t = {t:g}"}]
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert summary["blow_up"] == {"t": t, "sup": None}
    p = validate_config(obj).params
    amplitude = p["amplitude"] if obj["scenario"] == "evolve" else _ucp_amplitude(p)
    phi = scenarios_mod._gaussian(make_grid(p["n"], p["L"]), amplitude, p["width"], 0.0)
    with pytest.raises(evolution_mod.BlowUpError, match=f"state not finite at t = {t:g}$") as e:
        evolve(phi, _evolve_config(obj["scenario"], p), observe=lambda values: None)
    assert (e.value.t, math.isfinite(e.value.sup)) == (t, False)


def test_failed_check_exits_nonzero(tmp_path):
    # alpha = 2 has no algebraic tail, so asserting on it must fail the run
    code, out = run_cli(
        tmp_path,
        {
            "scenario": "groundstate",
            "alpha": 2.0,
            "n": 1024,
            "L": 50.0,
            "tol": 1e-9,
            "assert_tail": True,
        },
        "gsfail",
    )
    assert code == EXIT_CHECK_FAILED
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    byname = {c["name"]: c for c in manifest["checks"]}
    assert not byname["tail_exponent"]["passed"]


def test_runner_error_lands_in_manifest(tmp_path, monkeypatch):
    import fbbmlab.cli as cli_mod

    def boom(cfg):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli_mod, "run_scenario", boom)
    code, out = run_cli(tmp_path, EVOLVE_OK, "err")
    assert code == EXIT_ERROR
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["error"] == "RuntimeError: synthetic failure"
    assert manifest["outputs"] == [] and manifest["checks"] == []
    # the grid comes from the config, so the failed run still records it
    g = make_grid(EVOLVE_OK["n"], EVOLVE_OK["L"])
    assert manifest["grid"] == {"n": g.n, "L": g.L, "dx": g.dx}


# a schema-valid stein summary, for runs whose runner is replaced
STEIN_SUMMARY = {
    "scenario": "stein", "config_hash": "0" * 64, "seed": 1, "params": {"pairs": [[0.25, 0.75]]},
    "pairs": [{
        "p_small": -0.5, "r2_small": 1.0, "p_large": -1.25, "r2_large": 1.0, "plateau": None,
        "subtracted": False, "inconclusive_small": False, "inconclusive_large": False,
        "target_small": -0.5, "target_large": -1.25,
    }],
}


def test_exit_code_tracks_checks_exactly(tmp_path, monkeypatch):
    import fbbmlab.cli as cli_mod

    def fake(result):
        def run(cfg):
            return result

        return run

    passing = ScenarioResult(checks=[Check("x", True, 1.0, "<= 2")])
    passing.summary = STEIN_SUMMARY
    failing = ScenarioResult(checks=[Check("x", False, 3.0, "<= 2")])
    failing.summary = dict(passing.summary)

    stein_cfg = {"scenario": "stein", "pairs": [[0.25, 0.75]]}
    monkeypatch.setattr(cli_mod, "run_scenario", fake(passing))
    code, _ = run_cli(tmp_path, stein_cfg, "pass1")
    assert code == EXIT_OK
    monkeypatch.setattr(cli_mod, "run_scenario", fake(failing))
    code, _ = run_cli(tmp_path, stein_cfg, "fail1")
    assert code == EXIT_CHECK_FAILED


def test_shipped_schemas_pass_metaschema():
    for name in cli_mod.SCHEMA_NAMES:
        schema = load_schema(name)
        jsonschema.validators.validator_for(schema).check_schema(schema)


# one small run of each scenario, every other key at its default
SMALL = {
    "evolve": EVOLVE_OK,
    "groundstate": {"scenario": "groundstate", "alpha": 2.0, "n": 1024, "L": 50.0, "tol": 1e-9,
                    "c": 2.0},
    "stein": {"scenario": "stein", "pairs": [[0.25, 0.75]]},
    "commutators": {"scenario": "commutators", "n": 256, "size": 3},
    "weighted-growth": {"scenario": "weighted-growth", "t_count": 4, "pairs": [[0.5, 0.7]]},
    "ucp": {"scenario": "ucp", "alpha": 0.5, "n": 256, "L": 50.0, "dt": 0.01, "T": 1.0},
}


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_summary_params_typed_from_config_table(scenario):
    summary = run_scenario(validate_config(SMALL[scenario])).summary
    schema = load_schema(scenario)
    jsonschema.validate(summary, schema)
    params = summary["params"]
    wrong = [
        {**params, "extra": 1},
        *({k: v for k, v in params.items() if k != key} for key in params),
        *({**params, key: {}} for key in params),  # an object is no config kind
    ]
    if "n" in params:
        wrong.append({**params, "n": 1.5})
    for bad in wrong:
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({**summary, "params": bad}, schema)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_schema_subcommand_prints_resolved_contract(capsys, scenario):
    assert main(["schema", scenario]) == EXIT_OK
    text = capsys.readouterr().out
    assert "$ref" not in text  # self-contained
    schema = json.loads(text)
    assert schema["properties"]["params"]["required"] == list(_TABLES[scenario])
    # the grid is part of the envelope exactly for the scenarios on a grid
    assert ("grid" in schema["required"]) == ("n" in _TABLES[scenario])


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_summary_says_each_value_once(tmp_path, scenario):
    code, out = run_cli(tmp_path, SMALL[scenario], scenario)
    assert code == EXIT_OK
    summary = json.load(open(os.path.join(out, "summary.json")))
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    params = summary["params"]
    # past its envelope a summary holds only computed values: a key it
    # shares with params (stein's pairs, commutators' families) holds the
    # results per entry, not the config's list again
    own = set(summary) - set(envelope(validate_config(SMALL[scenario])))
    assert own and all(summary[k] != params[k] for k in own & set(params))
    if scenario == "groundstate":
        assert summary["scaled_wave"] and not set(summary["scaled_wave"]) & set(params)
    # the grid is make_grid's, in the summary and the manifest alike
    assert summary.get("grid") == manifest["grid"]
    if "n" in params:
        g = make_grid(params["n"], params["L"])
        assert manifest["grid"] == {"n": g.n, "L": g.L, "dx": g.dx}
    else:
        assert manifest["grid"] is None


def _is_report(entry, report, **extras):
    """entry is report's None, bool, int and float fields plus extras."""
    scalars = {k: v for k, v in vars(report).items() if v is None or isinstance(v, (int, float))}
    return entry == {**scalars, **extras}


def test_each_summary_entry_is_its_report():
    # a per-entry summary holds its library report's scalars plus named extras
    stein = run_scenario(validate_config(SMALL["stein"])).summary
    for (alpha, theta), entry in zip(SMALL["stein"]["pairs"], stein["pairs"], strict=True):
        fit = stein_asymptotics(alpha, theta)
        assert _is_report(entry, fit, target_small=None if fit.subtracted else alpha - theta,
                          target_large=-(0.5 + theta))

    cfg = validate_config(SMALL["commutators"])
    p = cfg.params
    comm = run_scenario(cfg).summary
    for fam, entry in zip(p["families"], comm["families"], strict=True):
        fparams = {k: v for k, v in fam.items() if k != "family"}
        corpus = make_corpus(p["n"], p["L"], p["size"], cfg.seed)
        rep = ratio_report(corpus, [(fam["family"], fparams)])[0]
        assert _is_report(entry, rep, constant_weight_ratio=entry["constant_weight_ratio"])
        assert isinstance(entry["constant_weight_ratio"], float)

    cfg = validate_config(SMALL["weighted-growth"])
    p = cfg.params
    res = run_scenario(cfg)
    grid = make_grid(p["n"], p["L"])
    times = np.linspace(1.0, p["t_max"], p["t_count"])
    slopes = [c for c in res.checks if c.name.startswith("slope(")]
    for (alpha, r), entry, check in zip(p["pairs"], res.summary["pairs"], slopes, strict=True):
        rep = group_weighted_growth(Field(grid, np.exp(-(grid.xs**2))), alpha, r, times)
        assert _is_report(entry, rep)
        assert check.passed is rep.within_bound and check.value == rep.slope

    cfg = validate_config(SMALL["groundstate"])
    p = cfg.params
    ground = run_scenario(cfg).summary
    sol = petviashvili(make_grid(p["n"], p["L"]), p["alpha"], tol=p["tol"])
    extras = ("tail", "scaled_wave", "oracle_sup_error")
    own = {k: v for k, v in ground.items() if k not in envelope(cfg)}
    assert _is_report(own, sol, **{k: ground[k] for k in extras})


def _streamed_and_stored(obj):
    """Run obj in-process, its evolve handing each snapshot to the runner's
    observer, and evolve the same initial data and config again storing
    every snapshot; the handed-over snapshots must be the stored ones.
    Returns the result, the initial data, the evolve config and the stored
    snapshots, one row each."""
    stored = []

    def spy(initial, config, observe):
        handed = []

        def copy_then_observe(values):
            handed.append(values.copy())
            observe(values)

        streamed = evolve(initial, config, observe=copy_then_observe)
        stored.extend((initial, config, stored_states(initial, config)))
        assert streamed.states.shape == (0, initial.grid.n)
        assert len(handed) == config.snapshot_times.size
        assert np.array_equal(np.array(handed), stored[2])
        return streamed

    # run_evolve steps through diagnostics_series, run_ucp itself
    with (mock.patch.object(evolution_mod, "evolve", spy),
          mock.patch.object(scenarios_mod, "evolve", spy)):
        res = run_scenario(validate_config(obj))
    return res, *stored


STREAM_CASES = [
    *({"scenario": "evolve", "linear_only": lin, "k": k, "snapshot_stride": stride}
      for lin in (False, True) for k in (2, 3) for stride in (1, None)),
    *({"scenario": "ucp", "k": k, "snapshot_stride": stride} for k in (2, 3) for stride in (1, None)),
]


@pytest.mark.parametrize("case", STREAM_CASES,
                         ids=lambda c: "-".join(f"{k}={v}" for k, v in c.items()))
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_streamed_reductions_equal_the_stored_trajectory(case, data):
    # the runners reduce each snapshot as evolve makes it; the same formulas
    # over the stored trajectory give the same bits
    steps = data.draw(st.integers(1, 30), label="steps")
    # evolve's default stride keeps about 400 snapshots: runs of 800 steps
    # and more record every 2nd or 3rd step
    scale = data.draw(st.sampled_from([1, 40]), label="scale") if case["snapshot_stride"] is None else 1
    obj = {**case, "alpha": data.draw(st.sampled_from([0.5, 1.0, 2.0]), label="alpha"),
           "n": 64, "L": 10.0, "dt": 0.01, "T": steps * scale * 0.01}
    if case["snapshot_stride"] is None:
        del obj["snapshot_stride"]
    if obj["scenario"] == "evolve":
        obj["amplitude"] = data.draw(st.floats(0.1, 2.0), label="amplitude")
        res, initial, config, states = _streamed_and_stored(obj)
        diagnostics = Diagnostics(initial.grid, config)
        for values in states:
            diagnostics(values)
        diag = diagnostics.series()
        want = (diag.times, diag.mass, diag.energy, diag.hamiltonian, diag.l2, diag.sup)
        for got, ref in zip(res.tables[0].data, want, strict=True):
            assert np.array_equal(got, ref)
        return
    obj["mean"] = data.draw(st.floats(-1.0, 1.0), label="mean")
    config = _evolve_config("ucp", validate_config(obj).params)
    recorded = config.snapshot_steps
    j1 = data.draw(st.integers(0, recorded.size - 2), label="t1 snapshot")
    j2 = data.draw(st.integers(j1 + 1, recorded.size - 1), label="t2 snapshot")
    obj["t1"], obj["t2"] = recorded[j1] * config.dt, recorded[j2] * config.dt
    res, initial, run_config, states = _streamed_and_stored(obj)
    dx, k = initial.grid.dx, run_config.power
    times, masses, integrand = res.tables[0].data
    assert np.array_equal(times, config.snapshot_times)
    # the whole-matrix sums the runner took before it streamed
    assert np.array_equal(masses, dx * np.sum(states, axis=1))
    assert np.array_equal(integrand, dx * np.sum(states**k, axis=1))
    assert res.summary["residual"] == ucp_residual(initial, config, obj["t1"], obj["t2"])


@pytest.mark.parametrize("scenario", ["evolve", "ucp"])
def test_run_memory_does_not_grow_with_snapshots(scenario):
    # 401 snapshots at n = 4096 are 12.5 MiB as a stored (snapshots, n)
    # matrix; streamed into their reductions the run peaks near 20
    # n-length arrays (the RK4 stages and the grid), measured 0.67 MB for
    # evolve and 0.60 MB for ucp
    n = 4096
    cfg = validate_config({"scenario": scenario, "alpha": 0.5, "n": n, "L": 100.0,
                           "dt": 0.01, "T": 4.0})
    tracemalloc.start()
    try:
        res = run_scenario(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res.tables[0].data[0]) == 401
    assert peak < 32 * 8 * n, f"peak {peak / (8 * n):.1f} n-length arrays"


def test_groundstate_run_memory_in_n_length_arrays():
    # the whole run: the half-length guess, solve and confirmation, the
    # returned wave and the tail fit; measured 5.07 n-length arrays with
    # caches warm, 6.07 with the guess built from all n points, psi^2/2
    # made beside the samples and the grid holding its wavenumbers, and
    # 7.51 when the grid held its n points and the confirmation made
    # full-length rffts
    n = 2**16
    cfg = validate_config({"scenario": "groundstate", "alpha": 0.25, "n": n, "L": 16384.0,
                           "tol": 1e-9})
    want = run_scenario(cfg)  # fills the _dct1 twiddle cache
    tracemalloc.start()
    try:
        res = run_scenario(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.summary == want.summary
    assert peak < 5.6 * 8 * n, f"peak {peak / (8 * n):.2f} n-length arrays"


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evolve_memory_before_its_first_snapshot_is_per_snapshot():
    # MAX_STEPS at the default stride are 401 snapshots; evolve walks their
    # steps, so it holds O(steps / stride) before the first one, not
    # (steps + 1)-length arrays of 8 MB each (measured 33 MB when it did)
    cfg = EvolveConfig(alpha=0.5, dt=1e-6, t_final=1.0)
    assert cfg.steps == MAX_STEPS
    g = make_grid(16, 10.0)

    def stop(values):
        raise StopIteration

    def first_snapshot():
        with pytest.raises(StopIteration):
            evolve(Field(g, np.exp(-(g.xs**2))), cfg, observe=stop)

    assert _peak_bytes(first_snapshot) < 1e6


def test_snapshot_index_is_constant_memory():
    # a million recorded steps: the lookup places t1 and t2 without
    # building the schedule (8 MB per array if it did)
    def lookup():
        cfg = EvolveConfig(0.5, 1e-6, 1.0, snapshot_stride=1)
        assert _snapshot_indices(cfg, 0.0, 1.0) == (0, MAX_STEPS)

    assert _peak_bytes(lookup) < 1e6


def _bench_tracing():
    """bench/tracing.py as a fresh module, compiled from its text; nothing
    is written beside it."""
    path = os.path.join(REPO, "bench", "tracing.py")
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    module = types.ModuleType("bench_tracing")
    exec(compile(source, path, "exec"), module.__dict__)
    return module


def test_traced_names_are_library_callables():
    # the benchmark tracer patches these names in the loaded modules once
    # fbbmlab.cli is imported; a removed or reshaped one would otherwise
    # show only in the traced smoke run of scripts/ci.sh, after this suite
    tracing = _bench_tracing()
    for modname, names in tracing.GROUPS.values():
        for name in names:
            assert callable(getattr(sys.modules[modname], name, None)), f"{modname}.{name}"
    # evolve is called as the runners call it, streamed into an observer
    g = make_grid(64, 10.0)
    args = (Field(g, np.exp(-(g.xs**2))), EvolveConfig(alpha=0.5, dt=0.01, t_final=0.1))
    sizes = tracing.SIZES["evolve"](args, evolve(*args, observe=lambda values: None))
    assert sizes == {"steps": 10, "snapshot_bytes": 0}


def test_tracer_books_the_commutator_sweep_under_the_corpus():
    # the runner reaches the sweep through a traced name, so its operator
    # calls nest under an estimates.corpus span, not the runner's own
    tracing = _bench_tracing()
    size = 3
    families = [{"family": "generator", "alpha": 0.5}, {"family": "hilbert", "l": 0, "m": 1}]
    cfg = validate_config({"scenario": "commutators", "n": 32, "size": size, "families": families})
    modules = [m for k, m in sys.modules.items() if k == "fbbmlab" or k.startswith("fbbmlab.")]
    modules.append(jsonschema)
    saved = [(m, dict(vars(m))) for m in modules]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        scenarios_mod.run_scenario(cfg)
    finally:
        for module, attrs in saved:
            for name, value in attrs.items():
                if getattr(module, name) is not value:
                    setattr(module, name, value)
    assert scenarios_mod.run_scenario is run_scenario  # every patch undone
    groups, spans = tracer.groups, tracer.spans
    parents = [groups[spans[s[3]][0]] for s in spans
               if groups[s[0]] == "spectral.operator" and s[3] >= 0]
    # each family takes at least one operator call per instance on each grid
    assert parents.count("estimates.corpus") >= 2 * size * len(families)
    assert parents.count("estimates.corpus") > parents.count("scenarios.runner")


def test_ucp_residual_checks_its_times_before_stepping():
    # t1 off a million-step schedule: the check comes before the first of
    # the steps (about a minute at n = 16) and builds no schedule
    cfg = EvolveConfig(0.5, 1e-6, 1.0, snapshot_stride=1)
    assert cfg.steps == MAX_STEPS
    g = make_grid(16, 10.0)

    def off_schedule():
        with pytest.raises(ValueError, match="^t1 must be a recorded snapshot time"):
            ucp_residual(Field(g, np.exp(-(g.xs**2))), cfg, 0.5e-6, 1.0)

    start = time.perf_counter()
    assert _peak_bytes(off_schedule) < 1e6
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize(
    "as_int, as_float, table",
    [
        ({"scenario": "weighted-growth", "n": 1024, "L": 100.0, "t_max": 2.0, "t_count": 2,
          "pairs": [[0.5, 1]]}, [[0.5, 1.0]], "growth.csv"),
        ({"scenario": "stein", "pairs": [[1, 0.5]]}, [[1.0, 0.5]], "probes.csv"),
    ],
    ids=["growth", "stein"],
)
def test_nested_numbers_take_one_form(tmp_path, as_int, as_float, table):
    # 1 and 1.0 inside pairs are one number: one hash, one set of bytes
    (code_a, a), (code_b, b) = (run_cli(tmp_path, obj, name) for obj, name in
                                ((as_int, "int"), ({**as_int, "pairs": as_float}, "float")))
    assert code_a == code_b == EXIT_OK
    ha, hb = (json.load(open(os.path.join(o, "manifest.json")))["config_hash"] for o in (a, b))
    assert ha == hb
    for name in (table, "summary.json"):
        assert open(os.path.join(a, name), "rb").read() == open(os.path.join(b, name), "rb").read()


def test_shipped_config_outputs_match_resolved_schemas(tmp_path):
    cfg_dir = os.path.join(REPO, "scripts", "configs")
    manifest_schema = load_schema("manifest")
    for name in sorted(os.listdir(cfg_dir)):
        out = str(tmp_path / name)
        assert main(["run", os.path.join(cfg_dir, name), "--out", out]) == EXIT_OK, name
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        jsonschema.validate(manifest, manifest_schema)
        summary = json.load(open(os.path.join(out, "summary.json")))
        jsonschema.validate(summary, load_schema(manifest["scenario"]))
        # per-entry results are read against params by position: no entry
        # restates its config entry
        for key in ("pairs", "families"):
            for entry in summary.get(key, []):
                assert not set(entry) & {"alpha", "theta", "r", "family", "params"}, name
        # the manifest names one of the scenarios, once: not in its config echo
        echo = {**manifest["config"], "scenario": manifest["scenario"]}
        for bad in ({**manifest, "scenario": "nope"}, {**manifest, "config": echo}):
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(bad, manifest_schema)


def test_golden_digests_name_the_shipped_outputs(tmp_path):
    # scripts/ci.sh runs each shipped config with emit.plotdata on and
    # compares the sha256 of every output with scripts/digests.sha256
    cfg_dir = os.path.join(REPO, "scripts", "configs")
    listed = []
    for name in sorted(os.listdir(cfg_dir)):
        with open(os.path.join(cfg_dir, name), encoding="utf-8") as fh:
            obj = json.load(fh)
        obj.setdefault("emit", {})["plotdata"] = True
        stem = name.removesuffix(".json")
        code, out = run_cli(tmp_path, obj, stem)
        assert code == EXIT_OK, name
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        listed += [f"./{stem}/{output}" for output in manifest["outputs"]]
    with open(os.path.join(REPO, "scripts", "digests.sha256"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# numpy ")
    named = [line.split("  ", 1)[1] for line in lines[1:]]
    assert named == sorted(listed)


def test_schema_violating_summary_lands_in_manifest(tmp_path, monkeypatch):
    # the cached validator still rejects a summary its schema forbids
    bad = ScenarioResult(checks=[Check("x", True, 1.0, "<= 2")])
    bad.summary = {"scenario": "stein", "config_hash": "0" * 64, "seed": 1,
                   "params": {"pairs": [[0.25, 0.75]]}, "pairs": "not a list"}
    monkeypatch.setattr(cli_mod, "run_scenario", lambda cfg: bad)
    for name in ("bad1", "bad2"):  # the second run reuses the validator
        code, out = run_cli(tmp_path, {"scenario": "stein", "pairs": [[0.25, 0.75]]}, name)
        assert code == EXIT_ERROR
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["error"].startswith("ValidationError: 'not a list' is not of type")
        assert manifest["outputs"] == []
        assert os.listdir(out) == ["manifest.json"]


def test_writer_error_lands_in_manifest(tmp_path, monkeypatch):
    import fbbmlab.cli as cli_mod

    def full_disk(path, summary, scenario):
        raise OSError("synthetic write failure")

    monkeypatch.setattr(cli_mod, "write_summary", full_disk)
    code, out = run_cli(tmp_path, EVOLVE_OK, "werr")
    assert code == EXIT_ERROR
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    jsonschema.validate(manifest, load_schema("manifest"))
    assert manifest["error"] == "OSError: synthetic write failure"
    assert manifest["outputs"] == []
    assert manifest["checks"]  # the run itself finished and was checked
    # the CSV written before the failure is removed with the failed write
    assert os.listdir(out) == ["manifest.json"]


def _strict_load(path):
    def reject(token):
        raise ValueError(f"non-finite constant {token}")

    with open(path, encoding="utf-8") as fh:
        return json.loads(fh.read(), parse_constant=reject)


def test_infinite_check_value_fails_in_result_and_manifest(tmp_path, monkeypatch):
    # the check decides that a value without a finite float fails, so the
    # runner's checks and the manifest written from them agree
    check = scenarios_mod._between("residual_dominates_mass", math.inf, ">= 0.5", lo=0.5)
    assert check.passed is False and check.value is None
    monkeypatch.setattr(cli_mod, "run_scenario",
                        lambda cfg: ScenarioResult(checks=[check], summary=STEIN_SUMMARY))
    code, out = run_cli(tmp_path, {"scenario": "stein", "pairs": [[0.25, 0.75]]}, "infcheck")
    assert code == EXIT_CHECK_FAILED
    assert _strict_load(os.path.join(out, "manifest.json"))["checks"] == [
        {"name": "residual_dominates_mass", "passed": False, "value": None, "threshold": ">= 0.5"}
    ]


def test_non_finite_values_keep_json_strict(tmp_path, monkeypatch):
    import fbbmlab.cli as cli_mod

    nan_check = ScenarioResult(checks=[Check("x", True, float("nan"), "<= 2")],
                               summary=STEIN_SUMMARY)
    stein_cfg = {"scenario": "stein", "pairs": [[0.25, 0.75]]}

    monkeypatch.setattr(cli_mod, "run_scenario", lambda cfg: nan_check)
    code, out = run_cli(tmp_path, stein_cfg, "nancheck")
    assert code == EXIT_CHECK_FAILED
    manifest = _strict_load(os.path.join(out, "manifest.json"))
    assert manifest["checks"] == [
        {"name": "x", "passed": False, "value": None, "threshold": "<= 2"}
    ]
    assert manifest["error"] is None
    _strict_load(os.path.join(out, "summary.json"))

    nan_summary = ScenarioResult(
        summary={**STEIN_SUMMARY, "pairs": [{**STEIN_SUMMARY["pairs"][0], "p_small": float("nan")}]})
    monkeypatch.setattr(cli_mod, "run_scenario", lambda cfg: nan_summary)
    code, out = run_cli(tmp_path, stein_cfg, "nansummary")
    assert code == EXIT_ERROR
    manifest = _strict_load(os.path.join(out, "manifest.json"))
    assert manifest["error"].startswith("ValueError: Out of range float")
    assert manifest["outputs"] == []
    assert not os.path.exists(os.path.join(out, "summary.json"))


@pytest.mark.parametrize(
    "literal",
    ["NaN", "Infinity", "-Infinity", "1e400", pytest.param("1" + "0" * 400, id="huge-int")],
)
def test_non_finite_config_number_rejected(tmp_path, capsys, literal):
    p = tmp_path / "nan.json"
    p.write_text('{"scenario": "evolve", "alpha": 0.5, "n": 256, "L": 50.0, '
                 f'"dt": 0.01, "T": 0.5, "amplitude": {literal}}}', encoding="utf-8")
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert f"number {literal} is not finite" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")


def test_seed_override_changes_hash(tmp_path):
    obj = {
        "scenario": "commutators",
        "n": 512,
        "L": 50.0,
        "size": 3,
        "families": [{"family": "generator", "alpha": 0.5}],
        "seed": 1,
    }
    _, out_a = run_cli(tmp_path, obj, "s1")
    _, out_b = run_cli(tmp_path, obj, "s2", extra=("--seed", "99"))
    ma = json.load(open(os.path.join(out_a, "manifest.json")))
    mb = json.load(open(os.path.join(out_b, "manifest.json")))
    assert ma["config"]["seed"] == 1 and mb["config"]["seed"] == 99
    assert ma["config_hash"] != mb["config_hash"]
    summary = json.load(open(os.path.join(out_b, "summary.json")))
    jsonschema.validate(summary, load_schema("commutators"))


@pytest.mark.parametrize("where", ["config", "flag"])
def test_negative_seed_is_config_error(tmp_path, capsys, where):
    # numpy's generators reject negative seeds, so the config must as well
    obj = {
        "scenario": "commutators",
        "n": 512,
        "L": 50.0,
        "size": 3,
        "families": [{"family": "generator", "alpha": 0.5}],
    }
    extra = ("--seed", "-1") if where == "flag" else ()
    if where == "config":
        obj["seed"] = -1
    cfg = write_cfg(tmp_path, obj)
    if where == "config":
        assert main(["validate", cfg]) == EXIT_CONFIG
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out), *extra]) == EXIT_CONFIG
    assert "seed must be an integer >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_unusable_out_dir_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"scenario": "stein", "pairs": [[0.25, 0.75]]})
    taken = tmp_path / "taken"
    taken.write_text("not a directory", encoding="utf-8")
    for out in (taken, taken / "sub"):
        assert main(["run", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert f"cannot create output directory {out}" in capsys.readouterr().err
    assert taken.read_text(encoding="utf-8") == "not a directory"


def test_threads_option_is_gone(tmp_path, capsys):
    # every scenario runs on one thread; run takes no --threads
    cfg = write_cfg(tmp_path, {"scenario": "stein", "pairs": [[0.25, 0.75]]})
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["run", cfg, "--out", str(out), "--threads", "3"])
    assert exc.value.code == 2  # argparse's usage error
    assert "unrecognized arguments: --threads 3" in capsys.readouterr().err
    assert not out.exists()


def test_out_dir_from_env(tmp_path, monkeypatch):
    monkeypatch.setenv("FBBMLAB_OUT", str(tmp_path / "envout"))
    cfg = write_cfg(tmp_path, {"scenario": "stein", "pairs": [[0.25, 0.75]]})
    assert main(["run", cfg]) == EXIT_OK
    runs = os.listdir(tmp_path / "envout")
    assert len(runs) == 1 and runs[0].startswith("stein-")
    # the config's out comes before the environment's
    cfg = write_cfg(tmp_path, {"scenario": "stein", "pairs": [[0.25, 0.75]],
                               "out": str(tmp_path / "cfgout")})
    assert main(["run", cfg]) == EXIT_OK
    assert os.path.exists(tmp_path / "cfgout" / "manifest.json")
    assert len(os.listdir(tmp_path / "envout")) == 1


def test_failed_manifest_write_leaves_no_temporary(tmp_path, monkeypatch):
    code, out = run_cli(tmp_path, {"scenario": "stein", "pairs": [[0.25, 0.75]]}, "m")
    assert code == EXIT_OK
    manifest = json.load(open(os.path.join(out, "manifest.json")))

    def refuse(src, dst):
        raise OSError("synthetic rename failure")

    monkeypatch.setattr(os, "replace", refuse)
    target = tmp_path / "fresh"
    target.mkdir()
    with pytest.raises(OSError, match="synthetic rename failure"):
        cli_mod.write_manifest(str(target / "manifest.json"), manifest)
    assert os.listdir(target) == []  # the temporary file went with the failure


def test_interrupted_rerun_leaves_no_manifest_listing_its_files(tmp_path, monkeypatch):
    # the default output directory of a config is the same on every run, so
    # a rerun overwrites the files the first run's manifest lists
    obj = {"scenario": "stein", "pairs": [[0.25, 0.75]]}
    assert run_cli(tmp_path, obj, "m")[0] == EXIT_OK

    def interrupted(path, summary, scenario):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{")  # a partial summary.json
        raise KeyboardInterrupt

    monkeypatch.setattr(cli_mod, "write_summary", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_cli(tmp_path, obj, "m")
    manifest = tmp_path / "m" / "manifest.json"
    assert not manifest.exists() or "summary.json" not in json.loads(manifest.read_text())["outputs"]


@pytest.mark.parametrize(
    "first, second, code",
    [
        # the rerun blows up and fails its blow_up check, so it writes a
        # summary and no table: the first run's table must not stay beside it
        ({"scenario": "evolve", "alpha": 0.5, "n": 64, "L": 10.0, "dt": 0.01, "T": 0.5},
         {"amplitude": 1e5}, EXIT_CHECK_FAILED),
        # the rerun has no speed, so it writes no wave table
        ({"scenario": "groundstate", "alpha": 0.75, "n": 1024, "L": 100.0, "c": 2.0},
         {"c": None}, EXIT_OK),
    ],
    ids=["failed-evolve", "groundstate-without-c"],
)
def test_rerun_leaves_only_what_its_manifest_lists(tmp_path, first, second, code):
    assert run_cli(tmp_path, first, "o")[0] == EXIT_OK
    obj = {k: v for k, v in {**first, **second}.items() if v is not None}
    got, out = run_cli(tmp_path, obj, "o")
    assert got == code
    outputs = json.load(open(os.path.join(out, "manifest.json")))["outputs"]
    assert (outputs == []) == (code == EXIT_ERROR)
    assert sorted(os.listdir(out)) == sorted([*outputs, "manifest.json"])


def test_failed_rerun_leaves_only_its_manifest(tmp_path, monkeypatch):
    # the rerun's runner raises, so it lists no outputs: the first run's
    # table and summary must not stay beside that empty list
    obj = {"scenario": "evolve", "alpha": 0.5, "n": 64, "L": 10.0, "dt": 0.01, "T": 0.5}
    assert run_cli(tmp_path, obj, "o")[0] == EXIT_OK

    def boom(cfg):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli_mod, "run_scenario", boom)
    code, out = run_cli(tmp_path, obj, "o")
    assert code == EXIT_ERROR
    assert json.load(open(os.path.join(out, "manifest.json")))["outputs"] == []
    assert os.listdir(out) == ["manifest.json"]


def test_rerun_removes_only_plain_file_names_of_its_directory(tmp_path):
    # a manifest's outputs are file names; anything else it lists is kept
    obj = {"scenario": "stein", "pairs": [[0.25, 0.75]]}
    code, out = run_cli(tmp_path, obj, "o")
    assert code == EXIT_OK
    manifest = os.path.join(out, "manifest.json")
    listed = json.load(open(manifest))
    (tmp_path / "keep.txt").write_text("x")
    (tmp_path / "o" / "sub").mkdir()
    (tmp_path / "o" / "sub" / "keep.txt").write_text("x")
    listed["outputs"] += ["../keep.txt", "sub/keep.txt", "sub", str(tmp_path / "keep.txt")]
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump(listed, fh)
    assert run_cli(tmp_path, obj, "o")[0] == EXIT_OK
    assert (tmp_path / "keep.txt").exists() and (tmp_path / "o" / "sub" / "keep.txt").exists()


def test_manifest_mode_follows_the_umask(tmp_path):
    umask = os.umask(0o022)
    try:
        code, out = run_cli(tmp_path, {"scenario": "stein", "pairs": [[0.25, 0.75]]}, "m")
    finally:
        os.umask(umask)
    assert code == EXIT_OK
    modes = {name: os.stat(os.path.join(out, name)).st_mode & 0o777
             for name in ("manifest.json", "summary.json")}
    assert modes == {"manifest.json": 0o644, "summary.json": 0o644}


# ----------------------------------------------------------------- writers


def _reference_fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    return repr(float(value))


def _reference_write(path, table, config_hash, plot):
    """The row-wise writers the columnar ones replaced: one format call
    per cell, one write per row."""
    rows = list(zip(*table.data))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config-hash: {config_hash}\n")
        if plot:
            xi, yi = table.plot
            fh.write(f"# {table.columns[xi]} vs {table.columns[yi]}\n")
            for row in rows:
                fh.write(f"{_reference_fmt(row[xi])} {_reference_fmt(row[yi])}\n")
        else:
            fh.write(",".join(table.columns) + "\n")
            for row in rows:
                fh.write(",".join(_reference_fmt(v) for v in row) + "\n")


# signed zeros, subnormals, the repr switch to exponent form at 1e16 and
# below 1e-4, the largest double under 1e16, infinities and nan
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225e-308, 1e16, -1e16,
               9999999999999998.0, 1e-4, 1e-5, 0.1, float("inf"), float("-inf"),
               float("nan")]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(width=64))
# quiet and signalling NaNs, each with and without the sign bit; repr
# writes every one as nan
NAN_BITS = [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
            0xFFF0000000000001, 0x7FFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF, 0x7FF8000000000005]


def _mirrored(v):
    # v + v[::-1] holds each value twice, but mirrored about its middle,
    # not about row 0 as a profile on the grid is
    with np.errstate(all="ignore"):
        return np.array(v) + np.array(v)[::-1]


def _grid_mirror(half, n):
    # n rows of an even profile on the grid: row j is half[min(j, n - j)],
    # so half holds rows 0..n/2
    j = np.arange(n)
    return np.asarray(half)[np.minimum(j, n - j)]


# signed zeros, subnormals and NaN payloads as bit patterns, which a
# grid-mirrored column must spell row by row as repr does
MIRROR_BITS = [0x0, 0x8000000000000000, 0x1, 0x8000000000000001, 0x000FFFFFFFFFFFFF,
               0x800FFFFFFFFFFFFF, *NAN_BITS]


# grid lengths whose step 2L/n is dyadic (integers and k/2^m) or not
# (100/3, 1e-3), has too many binary places (2^-20) or reaches 15 integer
# digits (9e14)
GRID_LENGTHS = st.one_of(
    st.sampled_from([100 / 3, 1e-3, 2.0**-20, 9e14]),
    st.integers(1, 10**6).map(float),
    st.builds(lambda k, m: k / 2**m, st.integers(1, 10**6), st.integers(1, 20)),
)


def _grid_rows(n):
    # n consecutive points of a grid of 16..1024 points, anywhere on it
    return st.builds(
        lambda m, L, at: make_grid(m, L).xs[at % (m - n + 1) :][:n],
        st.sampled_from([16, 32, 64, 128, 256, 512, 1024]), GRID_LENGTHS, st.integers(0, 1024),
    )


KINDS = {
    "float64": lambda n: st.lists(FLOATS, min_size=n, max_size=n).map(np.array),
    "mirrored": lambda n: st.lists(FLOATS, min_size=n, max_size=n).map(_mirrored),
    "zeros": lambda n: st.lists(st.sampled_from([0.0, -0.0, 1.0]), min_size=n, max_size=n)
    .map(np.array),
    "nans": lambda n: st.lists(st.sampled_from(NAN_BITS + [0x3FF0000000000000]),
                               min_size=n, max_size=n)
    .map(lambda v: np.array(v, dtype=np.uint64).view(np.float64)),
    "float": lambda n: st.lists(FLOATS, min_size=n, max_size=n),
    "int": lambda n: st.lists(st.integers(-(10**20), 10**20), min_size=n, max_size=n),
    "label": lambda n: st.lists(st.text("ab=;.-_ 0\x00é", max_size=6), min_size=n, max_size=n),
    # raw bit patterns: subnormals, every exponent, NaN payloads
    "bits": lambda n: st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n)
    .map(lambda v: np.array(v, dtype=np.uint64).view(np.float64)),
    # strictly increasing, as a grid is; unique by value, so one signed zero
    "increasing": lambda n: st.lists(st.floats(allow_nan=False, width=64), min_size=n,
                                     max_size=n, unique=True).map(sorted).map(np.array),
    "grid": _grid_rows,
    "grid-mirrored": lambda n: st.lists(
        st.one_of(st.sampled_from(MIRROR_BITS), st.integers(0, 2**64 - 1)),
        min_size=n // 2 + 1, max_size=n // 2 + 1,
    ).map(lambda v: _grid_mirror(np.array(v, dtype=np.uint64), n).view(np.float64)),
}


@st.composite
def tables(draw):
    n = draw(st.integers(0, 9))
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=5))
    data = tuple(draw(KINDS[k](n)) for k in kinds)
    plot = (draw(st.integers(0, len(kinds) - 1)), draw(st.integers(0, len(kinds) - 1)))
    return Table("t", tuple(f"{k} [label]" for k in kinds), data, plot)


_LONG = np.random.default_rng(0).standard_normal(2 * tables_mod.CHUNK_ROWS + 1)
_GRID = np.linspace(-300.0, 300.0, _LONG.size)  # strictly increasing, through 0.0
# repeats that straddle chunks of 4 rows: mirror pairs, signed zeros, NaNs
_REPEATS = Table(
    "repeats",
    ("psi [model units]", "z [model units]", "i [index]"),
    (_mirrored(np.arange(11.0) ** 0.5 - 1.0),
     np.array([0.0, -0.0, -0.0, 1.0, 0.0, -0.0, 1.0, 0.0, -0.0, 0.0, 0.0]),
     range(11)),
    (0, 1),
)
# the digit writer's edges: 15 significant digits against 16 (and 17,
# where repr rounds the exact decimal off), 2^-14 under 1e-4 against 1e-4
# itself, a whole-number column (no binary places), and a dyadic column
# whose second chunk of 64 rows is not
_DYADIC_EDGES = Table(
    "edges",
    ("d15 [u]", "d16 [u]", "small [u]", "tenk [u]", "whole [u]"),
    (np.array([-12345678901234.5, 0.25, 12345678901234.5]),
     np.array([0.5, 123456789012345.5, 999999999999999.75]),
     np.array([2.0**-14, 2.0**-13, 0.5]),
     np.array([1e-4, 0.5, 1.0]),
     np.array([-3.0, 0.0, 999999999999999.0])),
    (0, 1),
)
_DYADIC_THEN_NOT = Table(
    "tail", ("x [u]",), (np.append(np.arange(-50.0, 50.0), 123456789012345.5),), (0, 0),
)


def _grid_mirrored_table(n):
    # even profiles on the grid whose halves hold signed zeros, subnormals
    # and NaN payloads
    halves = (MIRROR_BITS[:6], MIRROR_BITS[4:10])
    return Table("even", ("a [u]", "b [u]"), tuple(
        _grid_mirror(np.array(h, dtype=np.uint64).view(np.float64), n) for h in halves), (1, 0))


_REPEAT_NANS = Table(
    "nans", ("v [model units]",),
    (np.array(NAN_BITS * 2, dtype=np.uint64).view(np.float64),), (0, 0),
)


@settings(max_examples=150, deadline=None)
@given(table=tables(), chunk=st.sampled_from([1, 2, 3, tables_mod.CHUNK_ROWS]))
@example(
    table=Table("long", ("x [model units]", "psi [model units]", "i [index]"),
                (_GRID, _LONG, range(_LONG.size)), (0, 1)),
    chunk=tables_mod.CHUNK_ROWS,
)
@example(table=Table("empty", ("x [model units]",), (np.array([]),), (0, 0)), chunk=2)
@example(table=_REPEATS, chunk=4)
@example(table=_REPEAT_NANS, chunk=4)
@example(table=_grid_mirrored_table(10), chunk=4)
@example(table=_grid_mirrored_table(11), chunk=4)
@example(table=_DYADIC_EDGES, chunk=1)
@example(table=_DYADIC_EDGES, chunk=tables_mod.CHUNK_ROWS)
@example(table=Table("negzero", ("z [u]",), (np.array([-0.0]),), (0, 0)), chunk=1)
@example(table=_DYADIC_THEN_NOT, chunk=64)
def test_writers_match_row_reference(table, chunk):
    with tempfile.TemporaryDirectory() as d, mock.patch.object(tables_mod, "CHUNK_ROWS", chunk):
        for plot, writer in ((False, tables_mod.write_csv), (True, tables_mod.write_plotdata)):
            got, want = os.path.join(d, "got"), os.path.join(d, "want")
            writer(got, table, "f00d")
            _reference_write(want, table, "f00d", plot)
            assert open(got, "rb").read() == open(want, "rb").read()


def _shortest_cells(values):
    m, keep = tables_mod._shortest(values)
    return [bytes(row[k]).decode() for row, k in zip(m, keep)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_shortest_matches_repr_on_bit_patterns(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert _shortest_cells(values) == [repr(v) for v in values.tolist()]


def test_shortest_matches_repr_on_boundaries():
    # every power of two (its lower gap is half its upper one), 10^k, the
    # neighbours of both, the least normal and largest subnormal, and
    # decimals of 15, 16 and 17 significant digits over the exponent range
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    rng = np.random.default_rng(19)
    decimals = [float(f"{rng.integers(10 ** (size - 1), 10**size)}e{e}")
                for size in (15, 16, 17) for e in rng.integers(-340, 310, 1000)]
    values = np.concatenate([twos, tens, decimals, [0.0, np.inf, np.nan]])
    values = np.concatenate([values, np.nextafter(values, np.inf), np.nextafter(values, 0.0)])
    values = np.concatenate([values, -values])
    assert np.nextafter(2.0**-1022, 0.0) in values and np.finfo(np.float64).max in values
    for part in np.array_split(values, 3):  # more than one _BLOCK each
        assert _shortest_cells(part) == [repr(v) for v in part.tolist()]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=40))
def test_str_of_a_float64_scalar_is_repr(patterns):
    # the writer spells a cell of a list column, float64 scalars included,
    # with str; numpy's str of a float64 must be repr of the float
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    for v in [*np.array(EDGE_FLOATS), *values]:
        assert str(v) == repr(float(v))


def _rows_formatted(counted):
    # the values handed to the shortest-digit formatter, over all its calls
    return sum(call.args[0].size for call in counted.call_args_list)


@pytest.mark.parametrize("n", [1000, 1001])
def test_writer_formats_a_grid_mirrored_column_from_its_first_half(tmp_path, n):
    # an even profile on the grid hands the shortest-digit writer its rows
    # 0..n/2 only; a palindrome, mirrored about its middle, holds as many
    # repeats but is not that profile, so every one of its rows is formatted
    rng = np.random.default_rng(1)
    for col, rows in ((_grid_mirror(rng.standard_normal(n // 2 + 1), n), n // 2 + 1),
                      (_mirrored(rng.standard_normal(n)), n)):
        table = Table("mirror", ("psi [model units]",), (col,), (0, 0))
        got, want = tmp_path / "got", tmp_path / "want"
        with mock.patch.object(tables_mod, "CHUNK_ROWS", 64), \
                mock.patch.object(tables_mod, "_shortest", side_effect=tables_mod._shortest) as counted:
            tables_mod.write_csv(str(got), table, "f00d")
        assert _rows_formatted(counted) == rows
        _reference_write(str(want), table, "f00d", False)
        assert got.read_bytes() == want.read_bytes()


def test_writer_never_searches_for_repeats(tmp_path):
    # no column, increasing, decreasing, grid-mirrored or repeating, is
    # sorted in search of repeats
    xs = make_grid(256, 10.0).xs
    table = Table("grid", ("x [model units]", "i [index]"), (xs, range(xs.size)), (0, 1))
    others = Table("others", ("flip", "even", "palindrome"),
                   (xs[::-1], _grid_mirror(xs[:129] ** 2, 256), _mirrored(xs)))
    with mock.patch.object(np, "unique", side_effect=np.unique) as unique:
        tables_mod.write_csv(str(tmp_path / "got"), table, "f00d")
        tables_mod.write_csv(str(tmp_path / "others"), others, "f00d")
    assert unique.call_count == 0
    for name, written in (("got", table), ("others", others)):
        _reference_write(str(tmp_path / "want"), written, "f00d", False)
        assert (tmp_path / name).read_bytes() == (tmp_path / "want").read_bytes()


def test_profile_write_memory_in_n_length_arrays(tmp_path):
    # an (x, psi) profile of 2^16 rows, psi mirrored from its n/2 + 1 head
    # as petviashvili returns it: the writer holds an (n/2 + 1, 24) byte
    # table (1.5 n-length arrays), one chunk and the formatter's
    # temporaries, measured 3.43 arrays; sorting psi for its repeats held
    # 5.63, with an n-length index beside the table
    n = 1 << 16
    xs = make_grid(n, 1600.0).xs
    half = 1.0 / (1.0 + xs[: n // 2 + 1] ** 2)
    psi = np.concatenate((half, half[-2:0:-1]))
    table = Table("profile", ("x [model units]", "psi [model units]"), (xs, psi), (0, 1))
    with mock.patch.object(tables_mod, "CHUNK_ROWS", 4096):
        tables_mod.write_csv(str(tmp_path / "warm"), table, "f00d")  # the formatter's tables
        peak = _peak_bytes(lambda: tables_mod.write_csv(str(tmp_path / "got"), table, "f00d"))
    assert peak < 4.5 * 8 * n, f"peak {peak / (8 * n):.2f} n-length arrays"
    assert (tmp_path / "got").read_bytes() == (tmp_path / "warm").read_bytes()


def test_writer_spells_dyadic_grid_from_digits(tmp_path):
    # a step of 200/4096 = 25/512 has 9 binary places: every value is an
    # exact short decimal, spelled by _dyadic with no shortest-digit search;
    # a step of (200/3)/4096 is not dyadic, and each of its values takes one
    for L, rows in ((100.0, 0), (100 / 3, 4096)):
        xs = make_grid(4096, L).xs
        table = Table("grid", ("x [model units]",), (xs,), (0, 0))
        got, want = tmp_path / "got", tmp_path / "want"
        with mock.patch.object(tables_mod, "_shortest", side_effect=tables_mod._shortest) as counted:
            tables_mod.write_csv(str(got), table, "f00d")
        assert _rows_formatted(counted) == rows
        _reference_write(str(want), table, "f00d", False)
        assert got.read_bytes() == want.read_bytes()


def test_table_rejects_ragged_columns():
    with pytest.raises(ValueError, match="one equal-length column per header"):
        Table("t", ("a [label]", "b [label]"), ([1.0, 2.0], [1.0]))
    with pytest.raises(ValueError, match="one equal-length column per header"):
        Table("t", ("a [label]", "b [label]"), ([1.0],))
    with pytest.raises(ValueError, match="one equal-length column per header"):
        Table.from_rows("t", ("a [label]", "b [label]"), [(1.0,), (2.0,)])
    with pytest.raises(ValueError, match="shorter"):
        Table.from_rows("t", ("a [label]", "b [label]"), [(1.0, 2.0), (1.0,)])
    assert Table.from_rows("t", ("a [label]", "b [label]"), []).data == ((), ())
    assert Table.from_rows("t", ("a", "b"), [(1, "x"), (2, "y")]).data == ((1, 2), ("x", "y"))
