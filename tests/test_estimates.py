"""Estimates lab: corpus reproducibility, commutator ratio families,
weighted group growth, and the two-time mass identity.

Pinned corpus maxima come from seed 7001 on (n=2048, L=50, size=50);
the refinement factors sit at 1 + O(eps) because resampling re-evaluates
the same continuum functions on the finer grid.
"""

import tracemalloc

import numpy as np
import pytest

import fbbmlab.estimates as estimates_mod
from fft_reference import stored_states
from fbbmlab.config import _growth_times, validate_config
from fbbmlab.estimates import (
    BoundaryContaminationError,
    QuadratureInconsistencyError,
    RATIO_FAMILIES,
    _constant_tol,
    _instance_ratios,
    _synthesize,
    commutator_a_ratio,
    corpus_ratios,
    frac_commutator_ratio,
    group_weighted_growth,
    hilbert_commutator_ratio,
    make_corpus,
    ratio_report,
    resample_corpus,
    ucp_residual,
)
from fbbmlab.evolution import EvolveConfig, mass
from fbbmlab.scenarios import run_commutators, run_scenario
from fbbmlab.spectral import Field, field_l2, group_propagate, make_grid
from fbbmlab.weighted import weighted_norm

SEED = 7001


@pytest.fixture(scope="module")
def corpus():
    return make_corpus(2048, 50.0, 12, seed=SEED)


def fields(corpus):
    """The samples of the corpus fields, one row per instance."""
    return np.array([corpus.instance(i)[1].values for i in range(len(corpus))])


def weights(corpus):
    """The samples of the corpus weights, one row per instance."""
    return np.array([corpus.instance(i)[0].values for i in range(len(corpus))])


def mean_half():
    # initial integral exactly 0.5
    g = make_grid(1024, 50.0)
    phi = Field(g, (0.5 / np.sqrt(np.pi)) * np.exp(-g.xs**2))
    return phi, EvolveConfig(alpha=0.5, dt=0.01, t_final=5.0, snapshot_stride=1)


@pytest.fixture(scope="module")
def mean_half_traj():
    return stored_states(*mean_half())


# ------------------------------------------------------------------- corpus


def test_corpus_reproducible(corpus):
    again = make_corpus(2048, 50.0, 12, seed=SEED)
    assert np.array_equal(fields(corpus), fields(again))
    assert np.array_equal(weights(corpus), weights(again))
    other = make_corpus(2048, 50.0, 12, seed=SEED + 1)
    assert not np.array_equal(fields(corpus), fields(other))


def test_corpus_fields_unit_norm(corpus):
    for row in fields(corpus):
        assert field_l2(Field(corpus.grid, row)) == pytest.approx(1.0, rel=1e-12)


def test_corpus_validation():
    with pytest.raises(ValueError, match="size"):
        make_corpus(2048, 50.0, 0, seed=1)


def test_resample_is_same_function(corpus):
    fine = resample_corpus(corpus, 4096)
    # coarse points interleave the fine grid
    assert np.allclose(fields(fine)[:, ::2], fields(corpus), atol=1e-12)
    assert np.allclose(weights(fine)[:, ::2], weights(corpus), atol=1e-12)
    with pytest.raises(ValueError, match="resolve"):
        resample_corpus(corpus, 512)


@pytest.mark.parametrize("n", [2048, 4096])
def test_batched_corpus_matches_per_instance_loop(n):
    # the corpus normalizes and synthesizes one instance at a time: the
    # same bits as a batch over all rows
    corpus = make_corpus(n, 50.0, 50, seed=SEED)
    rng = np.random.default_rng(SEED)
    fc = rng.standard_normal((50, n // 6 + 1)) + 1j * rng.standard_normal((50, n // 6 + 1))
    fc[:, 0] = fc[:, 0].real
    for i in range(50):
        fc[i] /= field_l2(Field(corpus.grid, _synthesize(fc[i], corpus.grid)))
    assert np.array_equal(corpus.field_coeffs, fc)
    for c in (corpus, resample_corpus(corpus, 2 * n)):
        for coeffs, rows in ((c.field_coeffs, fields(c)), (c.weight_coeffs, weights(c))):
            assert rows.tobytes() == _synthesize(coeffs, c.grid).tobytes()


# ------------------------------------------------------------ ratio kernels


def test_constant_weight_gives_zero(corpus):
    g = corpus.grid
    const = Field(g, np.full(g.n, 1.7))
    f = corpus.instance(0)[1]
    assert commutator_a_ratio(const, f, 0.5) == 0.0
    # l+m = 0 divides by ||psi||_inf, not a derivative sup, so the
    # constant-weight convention does not kick in; roundoff remains
    assert hilbert_commutator_ratio(const, f, 0, 0) < 1e-11
    assert hilbert_commutator_ratio(const, f, 0, 1) == 0.0
    assert hilbert_commutator_ratio(const, f, 1, 1) == 0.0
    assert frac_commutator_ratio(const, f, 0.25, 0.5) == 0.0


@pytest.mark.parametrize("n", [2**k for k in range(4, 15)])
def test_constant_weight_ratio_is_zero_where_its_check_passes(n):
    # run_commutators writes 0 as the constant weight's ratio where its
    # constant_zero check passes, without computing the ratio: for each
    # default family (orders 1 and 2) on the config's box range, the ratio
    # is exactly that 0, since the weight's derivative is exactly 0
    entries = [(e["family"], {k: v for k, v in e.items() if k != "family"})
               for e in validate_config({"scenario": "commutators"}).params["families"]]
    for L in 10.0 ** np.arange(-50, 51, 5):
        corpus = make_corpus(n, L, 1, seed=SEED)
        const, f = Field(corpus.grid, np.full(n, 1.5)), corpus.instance(0)[1]
        for family, params in entries:
            measured = field_l2(RATIO_FAMILIES[family][0](const, f, **params)) / field_l2(f)
            if measured <= _constant_tol(corpus.grid, family, **params):
                assert _instance_ratios(const, f, [(family, params)]) == [0.0], (L, family)


def test_constant_weight_ratio_is_zero_at_order_0():
    # at order 0 (hilbert l = m = 0) the ratio divides by ||psi||_inf, so
    # _instance_ratios returns a constant weight's commutator roundoff; the
    # runner writes the exact 0 there too wherever constant_zero passes
    cfg = validate_config({"scenario": "commutators", "n": 256, "size": 2,
                           "families": [{"family": "hilbert", "l": 0, "m": 0}]})
    res = run_commutators(cfg)
    assert {c.name: c.passed for c in res.checks}["constant_zero(hilbert l=0;m=0)"]
    assert res.summary["families"][0]["constant_weight_ratio"] == 0.0


def test_constant_weight_nonzero_numerator_flags(corpus, monkeypatch):
    # a commutator as large as f itself against a constant weight
    g = corpus.grid
    const = Field(g, np.full(g.n, 1.7))
    f = corpus.instance(0)[1]
    broken = (lambda psi, f, alpha: f, *RATIO_FAMILIES["generator"][1:])
    monkeypatch.setitem(RATIO_FAMILIES, "generator", broken)
    with pytest.raises(QuadratureInconsistencyError):
        commutator_a_ratio(const, f, 0.5)


def test_generator_ratio_unit_slope_weight():
    # g = 8 sin(x/8) has ||g'||_inf = 1; box chosen so x/8 is periodic
    L = 8 * np.pi
    vals = {}
    for n in (1024, 2048):
        grid = make_grid(n, L)
        g = Field(grid, 8.0 * np.sin(grid.xs / 8.0))
        f = resample_corpus(make_corpus(1024, L, 1, seed=3), n).instance(0)[1]
        vals[n] = commutator_a_ratio(g, f, 0.5)
    assert 0 < vals[2048] < 10
    assert 0.5 <= vals[2048] / vals[1024] <= 2.0


def test_order_validation(corpus):
    psi, f = corpus.instance(0)
    for l, m in [(2, 1), (-1, 0), (0, 3)]:
        with pytest.raises(ValueError, match="orders"):
            hilbert_commutator_ratio(psi, f, l, m)
    with pytest.raises(ValueError, match="alpha"):
        frac_commutator_ratio(psi, f, 1.0, 0.3)
    with pytest.raises(ValueError, match="beta"):
        frac_commutator_ratio(psi, f, 0.2, 0.0)
    with pytest.raises(ValueError, match="<= 1"):
        frac_commutator_ratio(psi, f, 0.7, 0.7)


@pytest.mark.parametrize("alpha, beta", [(0.33, 0.67), (0.07, 0.93), (0.5, 0.5 + 5e-13)])
def test_frac_orders_summing_to_one_within_slack(corpus, alpha, beta):
    # 1 - alpha - beta rounds below 0 here; the third order clamps at 0
    assert 1.0 - alpha - beta < 0.0
    r = frac_commutator_ratio(*corpus.instance(0), alpha, beta)
    assert np.isfinite(r) and r > 0.0


def test_grid_mismatch_and_zero_field(corpus):
    g = corpus.grid
    psi = corpus.instance(0)[0]
    with pytest.raises(ValueError, match="grids"):
        commutator_a_ratio(psi, Field(make_grid(1024, 50.0), np.zeros(1024)), 0.5)
    with pytest.raises(ValueError, match="zero field"):
        commutator_a_ratio(psi, Field(g, np.zeros(g.n)), 0.5)


def test_corpus_ratio_parameter_validation(corpus):
    with pytest.raises(ValueError, match="unknown family"):
        corpus_ratios(corpus, [("laplace", dict(alpha=0.5))])
    with pytest.raises(ValueError, match="takes parameters"):
        corpus_ratios(corpus, [("generator", dict(beta=0.5))])
    assert set(RATIO_FAMILIES) == {"generator", "hilbert", "fractional"}


@pytest.mark.parametrize(
    "family, kernel, params",
    [
        ("generator", commutator_a_ratio, dict(alpha=0.5)),
        ("hilbert", hilbert_commutator_ratio, dict(l=1, m=1)),
        ("fractional", frac_commutator_ratio, dict(alpha=0.25, beta=0.5)),
    ],
)
def test_corpus_ratios_match_registry(corpus, family, kernel, params):
    want = [kernel(*corpus.instance(i), **params) for i in range(len(corpus))]
    got = corpus_ratios(corpus, [(family, params)])[0]
    assert got.tolist() == want  # bit for bit, in corpus order


# ------------------------------------------------------------ corpus sweeps


PINNED = [
    ("generator", dict(alpha=0.5), 0.129175),
    ("hilbert", dict(l=0, m=1), 0.073834),
    ("hilbert", dict(l=1, m=1), 0.025474),
    ("fractional", dict(alpha=0.25, beta=0.5), 0.299156),
    ("fractional", dict(alpha=0.0, beta=0.5), 0.299570),
]


def _pinned(i, L, pinned_max=None):
    # an id names the box only when it is not the default L = 50
    family, params, pin = PINNED[i]
    pin = pinned_max or pin
    box = "" if L == 50.0 else f"-L{L:g}"
    return pytest.param(family, params, L, pin, id=f"{family}-params{i}-{pin:g}{box}")


# the hilbert and fractional ratios are scale-free, so their pins hold on
# every box; the generator's symbol is not, and its ratio moves with L
@pytest.mark.parametrize(
    "family, params, L, pinned_max",
    [_pinned(i, 50.0) for i in range(5)]
    + [_pinned(i, L) for i in range(1, 5) for L in (1e8, 1e14, 1e50)]
    + [_pinned(0, 1e14, 0.599191)],
)
def test_ratio_report_pinned(family, params, L, pinned_max):
    rep = ratio_report(make_corpus(2048, L, 50, seed=SEED), [(family, params)])[0]
    assert rep.corpus_max == pytest.approx(pinned_max, abs=2e-6)
    assert 0.5 <= rep.refinement_factor <= 2.0
    # same continuum corpus on both grids: factor is 1 up to roundoff
    assert rep.refinement_factor == pytest.approx(1.0, abs=1e-3)
    assert len(rep.ratios) == 50


def test_commutators_share_one_corpus_pair(monkeypatch):
    builds = []
    real_corpus = estimates_mod.TestCorpus

    def counting(grid, field_coeffs, weight_coeffs):
        builds.append((len(field_coeffs), grid.n))
        return real_corpus(grid, field_coeffs, weight_coeffs)

    monkeypatch.setattr(estimates_mod, "TestCorpus", counting)
    cfg = validate_config({"scenario": "commutators", "n": 256, "size": 6, "seed": SEED})
    res = run_commutators(cfg)
    # the base corpus and its resampling on 2n
    assert sorted(builds) == [(6, 256), (6, 512)]
    families, _, _, ratios = res.tables[0].data
    monkeypatch.setattr(estimates_mod, "TestCorpus", real_corpus)
    for k, entry in enumerate(cfg.params["families"]):
        params = {key: v for key, v in entry.items() if key != "family"}
        rep = ratio_report(make_corpus(256, 50.0, 6, seed=SEED), [(entry["family"], params)])[0]
        assert list(ratios[6 * k : 6 * (k + 1)]) == list(rep.ratios)  # bit for bit
        assert set(families[6 * k : 6 * (k + 1)]) == {entry["family"]}
        out = res.summary["families"][k]
        assert (out["corpus_max"], out["refined_max"]) == (rep.corpus_max, rep.refined_max)


def test_commutators_synthesize_each_instance_once(monkeypatch):
    # one sweep per grid evaluates every family on an instance: its weight
    # and field are synthesized once, not once per family; the base grid
    # adds make_corpus' normalizations and the constant-weight probe field
    calls = []
    real = estimates_mod._synthesize

    def counting(coeffs, grid):
        calls.append(grid.n)
        return real(coeffs, grid)

    monkeypatch.setattr(estimates_mod, "_synthesize", counting)
    size = 6
    cfg = validate_config({"scenario": "commutators", "n": 256, "size": size, "seed": SEED})
    assert len(cfg.params["families"]) == 4
    run_commutators(cfg)
    assert calls.count(512) == 2 * size
    assert calls.count(256) == size + 2 * size + 2


def test_commutators_run_memory_does_not_grow_with_the_corpus():
    # the corpus holds coefficient rows and synthesizes each instance as it
    # is evaluated: the peak at 50 instances less that at 10 measured
    # 0.32 MB, and 4.16 MB when it held every instance's samples on both
    # grids
    def peak(size):
        cfg = validate_config({"scenario": "commutators", "n": 2048, "L": 50.0, "size": size,
                               "seed": SEED})
        tracemalloc.start()
        try:
            run_scenario(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # fills the symbol and transform caches
    growth = peak(50) - peak(10)
    assert growth < 1e6, f"peak grew by {growth / 1e6:.2f} MB"


def test_corpus_size_doubling_stable():
    generator = [("generator", dict(alpha=0.5))]
    r50 = corpus_ratios(make_corpus(2048, 50.0, 50, seed=SEED), generator)[0]
    r100 = corpus_ratios(make_corpus(2048, 50.0, 100, seed=SEED), generator)[0]
    assert 0.5 <= r100.max() / r50.max() <= 2.0


def test_hilbert_step_weight_stable():
    # smooth periodic step: transition layers instead of a hard jump
    vals = {}
    for n in (1024, 2048):
        grid = make_grid(n, 50.0)
        psi = Field(grid, np.tanh(4.0 * np.sin(np.pi * grid.xs / 50.0)))
        f = resample_corpus(make_corpus(1024, 50.0, 1, seed=5), n).instance(0)[1]
        vals[n] = hilbert_commutator_ratio(psi, f, 0, 1)
    assert 0 < vals[2048] < 10
    assert 0.5 <= vals[2048] / vals[1024] <= 2.0


# --------------------------------------------------------- weighted growth


@pytest.mark.parametrize(
    "alpha, r, L, pinned_slope",
    [
        (0.5, 0.7, 1000.0, 0.5962),
        (0.5, 1.2, 1000.0, 1.0242),
        (0.75, 1.8, 1500.0, 1.5397),
    ],
)
def test_growth_slope_within_ceiling(alpha, r, L, pinned_slope):
    g = make_grid(2**14, L)
    phi = Field(g, np.exp(-g.xs**2))
    rep = group_weighted_growth(phi, alpha, r, np.arange(1.0, 41.0))
    assert rep.within_bound and rep.slope <= np.ceil(r) + 0.2
    assert rep.slope == pytest.approx(pinned_slope, abs=0.02)


def test_growth_norms_are_weighted_norms_of_propagated_fields():
    # the loop transforms phi and builds the weight once per pair; each norm
    # stays the library's weighted norm of the propagated field, bit for bit
    cfg = validate_config({"scenario": "weighted-growth"})
    p = cfg.params
    g = make_grid(p["n"], p["L"])
    phi = Field(g, np.exp(-g.xs**2))
    times = _growth_times(p)
    for alpha, r in p["pairs"]:
        rep = group_weighted_growth(phi, alpha, r, times)
        want = [weighted_norm(group_propagate(phi, float(t), alpha), r) for t in times]
        assert list(rep.norms) == want
        assert rep.base_norm == weighted_norm(phi, r)


def test_growth_unweighted_is_unitary():
    g = make_grid(2**12, 400.0)
    phi = Field(g, np.exp(-g.xs**2))
    rep = group_weighted_growth(phi, 0.5, 0.0, np.arange(1.0, 21.0))
    assert abs(rep.slope) < 1e-12
    assert np.allclose(rep.norms, rep.base_norm, rtol=1e-12)


def test_growth_time_zero_ratio_one():
    g = make_grid(2**12, 400.0)
    phi = Field(g, np.exp(-g.xs**2))
    rep = group_weighted_growth(phi, 0.5, 1.2, [0.0, 1.0, 2.0])
    assert rep.norms[0] == pytest.approx(rep.base_norm, rel=1e-12)


def test_growth_boundary_contamination_aborts():
    g = make_grid(1024, 30.0)
    phi = Field(g, np.exp(-g.xs**2))
    with pytest.raises(BoundaryContaminationError, match="mass fraction"):
        group_weighted_growth(phi, 0.5, 1.0, [1.0, 40.0])


def test_growth_validation():
    g = make_grid(256, 100.0)
    phi = Field(g, np.exp(-g.xs**2))
    with pytest.raises(ValueError, match="r must be"):
        group_weighted_growth(phi, 0.5, -0.5, [1.0])
    for bad in ([], [2.0, 1.0], [-1.0, 2.0]):
        with pytest.raises(ValueError, match="times"):
            group_weighted_growth(phi, 0.5, 1.0, bad)


# ----------------------------------------------------------- mass identity


def test_ucp_zero_solution():
    g = make_grid(256, 50.0)
    zero = Field(g, np.zeros(g.n))
    assert ucp_residual(zero, EvolveConfig(alpha=0.5, dt=0.01, t_final=1.0), 0.0, 1.0) == 0.0


def test_ucp_positive_mean(mean_half_traj):
    phi, config = mean_half()
    R = ucp_residual(phi, config, 0.0, 5.0)
    assert R == pytest.approx(0.6000492460, rel=1e-6)
    # both terms nonnegative for even power, so R dominates the mass
    assert R >= mass(Field(phi.grid, mean_half_traj[0])) >= 0.5


def test_ucp_mass_constant_along_trajectory(mean_half_traj):
    dx = mean_half()[0].grid.dx
    masses = [dx * np.sum(s) for s in mean_half_traj]
    assert np.max(np.abs(np.array(masses) - masses[0])) <= 1e-8


def test_ucp_quadrature_stride_halving():
    g = make_grid(1024, 50.0)
    phi = Field(g, (0.5 / np.sqrt(np.pi)) * np.exp(-g.xs**2))
    R = []
    for stride in (2, 1):
        config = EvolveConfig(alpha=0.5, dt=0.01, t_final=5.0, snapshot_stride=stride)
        R.append(ucp_residual(phi, config, 0.0, 5.0))
    assert abs(R[1] - R[0]) / abs(R[1]) < 1e-6


def test_ucp_odd_data_strictly_positive():
    g = make_grid(1024, 50.0)
    phi = Field(g, g.xs * np.exp(-g.xs**2))
    assert abs(mass(phi)) < 1e-14
    config = EvolveConfig(alpha=0.5, dt=0.01, t_final=5.0, snapshot_stride=1)
    R = ucp_residual(phi, config, 0.0, 5.0)
    assert R == pytest.approx(0.3275461976, rel=1e-6)
    assert R > 0


def test_ucp_linear_flow_reindexes(mean_half_traj):
    g = make_grid(1024, 50.0)
    phi = Field(g, (0.5 / np.sqrt(np.pi)) * np.exp(-g.xs**2))
    config = EvolveConfig(alpha=0.5, dt=0.01, t_final=8.0, snapshot_stride=1, linear_only=True)
    Ra = ucp_residual(phi, config, 0.0, 5.0)
    Rb = ucp_residual(phi, config, 2.0, 7.0)
    assert abs(Ra - Rb) / abs(Ra) < 1e-9


def test_ucp_odd_power_reports_without_sign():
    g = make_grid(1024, 50.0)
    phi = Field(g, (0.5 / np.sqrt(np.pi)) * np.exp(-g.xs**2))
    config = EvolveConfig(alpha=0.5, dt=0.01, t_final=5.0, power=3, snapshot_stride=1)
    assert np.isfinite(ucp_residual(phi, config, 0.0, 5.0))


def test_ucp_validation():
    phi, config = mean_half()
    with pytest.raises(ValueError, match="t1 < t2"):
        ucp_residual(phi, config, 2.0, 1.0)
    with pytest.raises(ValueError, match="t1 < t2"):
        ucp_residual(phi, config, -1.0, 1.0)
    with pytest.raises(ValueError, match="snapshot"):
        ucp_residual(phi, config, 0.005, 5.0)
    with pytest.raises(ValueError, match="snapshot"):
        ucp_residual(phi, config, 0.0, 5.7)
    # the power rule belongs to the trajectory's config
    with pytest.raises(ValueError, match="power"):
        EvolveConfig(alpha=0.5, dt=0.01, t_final=5.0, power=1)
    assert EvolveConfig(alpha=0.5, dt=0.01, t_final=5.0, power=2).power == 2
