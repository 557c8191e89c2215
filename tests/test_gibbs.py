import math

import numpy as np
import pytest
from acceptance_oracle import mc_acceptance, tilted_acceptance
from conftest import reference_sequential_paths
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbslines import coupling as cp
from gibbslines import gibbs as gb
from gibbslines import polymer as pm
from gibbslines.bridge import HrwSpec, _conditional_grid
from gibbslines.ensembles import DiscreteLineEnsemble
from gibbslines.errors import PrecisionError, ResourceLimitError
from gibbslines.grids import inverse_cdf_rows
from gibbslines.reports import EmpiricalCDF, ks_distance, ks_two_sample_critical

HRW = HrwSpec.log_gamma(1.0)


def ladder_spec(k, T, interaction, spread=2.0, g=None, f=None):
    x = [-spread * i for i in range(k)]
    return gb.EnsembleSpec.make(1, k, 0, T, x, x, HRW, interaction, f=f, g=g)


def reference_free_bridges(spec, n, rng, m):
    """Free bridges curve by curve from the former per-site sampler."""
    x = np.asarray(spec.x_vec)
    y = np.asarray(spec.y_vec)
    out = np.empty((n, spec.n_curves, spec.n_times))
    for i in range(spec.n_curves):
        out[:, i, :] = reference_sequential_paths(
            spec.hrw, spec.b - spec.a, np.full(n, x[i]), np.full(n, y[i]), rng, m
        )
    return out


def reference_rejection(spec, n, rng, m):
    """The former rejection loop: a free proposal per pending sample, then one
    accept uniform per pending sample."""
    f = np.asarray(spec.f, dtype=float)
    g = np.asarray(spec.g, dtype=float)
    out = np.empty((n, spec.n_curves, spec.n_times))
    pending = np.arange(n)
    attempts = 0
    while pending.size:
        attempts += pending.size
        proposal = reference_free_bridges(spec, pending.size, rng, m)
        logw = gb._log_weight_batch(spec.interaction, spec.a, spec.b, proposal, f, g)
        accept = np.log(rng.uniform(size=pending.size)) < logw
        out[pending[accept]] = proposal[accept]
        pending = pending[~accept]
    return out, attempts


def reference_mcmc_sweep_ensembles(curves, spec, rng, m, f_rows, g_rows):
    """The former ensemble Gibbs sweep (one rng.uniform call per site), in place."""
    S, k, n_t = curves.shape
    s_lo, s_hi = spec.hrw.support()
    for i in range(k):
        above = f_rows if i == 0 else curves[:, i - 1, :]
        below = g_rows if i == k - 1 else curves[:, i + 1, :]
        above = np.broadcast_to(above, (S, n_t))
        below = np.broadcast_to(below, (S, n_t))
        for t in range(1, n_t - 1):
            left = curves[:, i, t - 1]
            right = curves[:, i, t + 1]
            grids = _conditional_grid(left + s_lo, left + s_hi, right - s_hi, right - s_lo, m)
            log_pdf = spec.hrw.log_g(grids - left[:, None]) + spec.hrw.log_g(
                right[:, None] - grids
            )
            bond_l = spec.interaction.bond(spec.a + t - 1)
            bond_r = spec.interaction.bond(spec.a + t)
            log_pdf += bond_l.log_weight(grids - above[:, t - 1][:, None])
            log_pdf += bond_r.log_weight(below[:, t + 1][:, None] - grids)
            peak = log_pdf.max(axis=1, keepdims=True)
            if not np.all(np.isfinite(peak)):
                raise PrecisionError("Gibbs full conditional underflowed on its grid")
            with np.errstate(under="ignore"):
                pdf = np.exp(log_pdf - peak)
            curves[:, i, t] = inverse_cdf_rows(grids, pdf, rng.uniform(size=S))


def index_rngs(n, seed=21):
    return [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,))) for i in range(n)]


class TestHamiltonian:
    def test_exp_kind(self):
        h = gb.Hamiltonian("exp")
        assert h.log_weight(0.0) == -1.0
        assert h.log_weight(-np.inf) == 0.0
        assert h.log_weight(1000.0) == -np.inf

    def test_zero_kind(self):
        h = gb.Hamiltonian("zero")
        assert np.all(h.log_weight(np.array([-np.inf, -3.0, 5.0])) == 0.0)

    def test_tabulated_kind(self):
        x = np.linspace(0.0, 2.0, 21)
        h = gb.Hamiltonian("tabulated", table_x=tuple(x), table_values=tuple(x**2))
        assert h.log_weight(-5.0) == 0.0  # left of the table: H = 0
        assert h.log_weight(1.0) == pytest.approx(-1.0, rel=1e-12)
        # right of the table: linear extrapolation with the final slope
        slope = (4.0 - (1.9) ** 2) / 0.1
        assert h.log_weight(3.0) == pytest.approx(-(4.0 + slope * 1.0), rel=1e-9)

    def test_tabulated_validation(self):
        with pytest.raises(ValueError):
            gb.Hamiltonian("tabulated", table_x=(0.0, 1.0, 2.0), table_values=(1.0, 2.0, 3.0))
        with pytest.raises(ValueError):
            gb.Hamiltonian("tabulated", table_x=(0.0, 1.0, 2.0), table_values=(0.0, 2.0, 1.0))
        with pytest.raises(ValueError):
            # concave tables are rejected
            gb.Hamiltonian("tabulated", table_x=(0.0, 1.0, 2.0), table_values=(0.0, 1.0, 1.2))


class TestBoltzmannWeight:
    def test_zero_interaction_is_one(self):
        spec = ladder_spec(2, 4, gb.InteractionSpec.zero(0, 4))
        curves = np.zeros((2, 5))
        assert gb.boltzmann_weight(spec, curves) == 1.0

    def test_infinite_boundaries_interior_only(self):
        spec = ladder_spec(2, 3, gb.InteractionSpec.exp(0, 3), spread=1.0)
        curves = np.array([[0.0, 0.2, 0.1, 0.0], [-1.0, -0.8, -0.9, -1.0]])
        expect = -np.exp(curves[1, 1:] - curves[0, :-1]).sum()
        assert gb.log_boltzmann_weight(spec, curves) == pytest.approx(expect, rel=1e-12)

    def test_single_bond_hand_value(self):
        # one bond, one curve: only the bottom-boundary term survives
        spec = gb.EnsembleSpec.make(
            1, 1, 0, 1, [0.7], [1.1], HRW, gb.InteractionSpec.exp(0, 1), g=[-0.3, -0.2]
        )
        ens = DiscreteLineEnsemble(curves=np.array([[0.7, 1.1]]), t0=0, t1=1)
        assert gb.boltzmann_weight(spec, ens) == pytest.approx(
            math.exp(-math.exp(-0.2 - 0.7)), rel=1e-12
        )

    def test_dimension_mismatch(self):
        spec = ladder_spec(2, 4, gb.InteractionSpec.zero(0, 4))
        with pytest.raises(ValueError):
            gb.boltzmann_weight(spec, np.zeros((2, 3)))

    @settings(max_examples=50, deadline=None)
    @given(
        vals=st.lists(
            st.floats(min_value=-5.0, max_value=5.0, allow_nan=False), min_size=8, max_size=8
        )
    )
    def test_weight_in_unit_interval(self, vals):
        spec = ladder_spec(2, 3, gb.InteractionSpec.exp(0, 3))
        curves = np.array(vals).reshape(2, 4)
        w = gb.boltzmann_weight(spec, curves)
        assert 0.0 <= w <= 1.0

    def test_weight_monotone_in_bottom_boundary(self):
        spec_lo = ladder_spec(1, 3, gb.InteractionSpec.exp(0, 3), g=[-2.0] * 4)
        spec_hi = ladder_spec(1, 3, gb.InteractionSpec.exp(0, 3), g=[-1.0] * 4)
        curves = np.array([[0.0, 0.3, -0.2, 0.0]])
        assert gb.boltzmann_weight(spec_hi, curves) <= gb.boltzmann_weight(spec_lo, curves)


def polymer_window_spec():
    """Curve 1 of a two-curve polymer line ensemble at N = 32 over the window
    [-10, 10] = [floor(-N^(2/3)), floor(N^(2/3))], curve 2 as the bottom."""
    ens = pm.polymer_line_ensemble(1.0, 32, 2, seed=3)
    return gb.window_spec_from_ensemble(ens, 1, -10, 10, HRW)


ORACLE_SPECS = {
    "ladder-spread-2": lambda: ladder_spec(2, 8, gb.InteractionSpec.exp(0, 8)),
    "ladder-spread-0.5": lambda: ladder_spec(2, 8, gb.InteractionSpec.exp(0, 8), spread=0.5),
    "bottom-at--2": lambda: ladder_spec(1, 5, gb.InteractionSpec.exp(0, 5), g=[-2.0] * 6),
    "bottom-at--0.7": lambda: ladder_spec(1, 5, gb.InteractionSpec.exp(0, 5), g=[-0.7] * 6),
    "polymer-window-N32": polymer_window_spec,
}


class TestAcceptanceProbability:
    def test_zero_interaction_exact(self):
        # k = 3 would need 256^3 joint states, past the cap: switched-off
        # bonds decouple the curves, so each is swept on its own
        for k, g in ((2, None), (1, [-0.5] * 6), (3, None)):
            spec = ladder_spec(k, 5, gb.InteractionSpec.zero(0, 5), g=g)
            assert gb.acceptance_probability(spec) == 1.0

    def test_in_unit_interval(self):
        spec = ladder_spec(2, 5, gb.InteractionSpec.exp(0, 5), spread=1.0)
        assert 0.0 < gb.acceptance_probability(spec) <= 1.0

    def test_against_quadrature(self):
        # one interior point: Z by 1-d quadrature over the bridge marginal
        spec = gb.EnsembleSpec.make(
            1, 1, 0, 2, [0.0], [1.0], HRW, gb.InteractionSpec.exp(0, 2), g=[-1.0, -1.0, -1.0]
        )
        u = np.linspace(-9.0, 10.0, 120001)
        logb = HRW.log_g(u) + HRW.log_g(1.0 - u)
        b = np.exp(logb - logb.max())
        b /= np.trapezoid(b, u)
        w = math.exp(-math.exp(-1.0 - 0.0)) * np.trapezoid(b * np.exp(-np.exp(-1.0 - u)), u)
        assert gb.acceptance_probability(spec) == pytest.approx(w, rel=1e-10)

    def test_no_interior_point_is_endpoint_weight(self):
        spec = ladder_spec(3, 1, gb.InteractionSpec.exp(0, 1), spread=0.5, g=[-1.0, -0.5])
        x = np.asarray(spec.x_vec)
        weight = gb.boltzmann_weight(spec, np.stack([x, x], axis=1))
        assert gb.acceptance_probability(spec) == pytest.approx(weight, rel=1e-14)

    @pytest.mark.parametrize("k,T", [(1, 1), (2, 2), (3, 5)])
    def test_single_generator_matches_reference(self, k, T):
        # the Monte Carlo oracle reads the free bridges of reference_free_bridges
        spec = ladder_spec(k, T, gb.InteractionSpec.exp(0, T), spread=1.0)
        est, _ = mc_acceptance(spec, 150, np.random.default_rng(13), m=256)
        curves = reference_free_bridges(spec, 150, np.random.default_rng(13), 256)
        logw = gb._log_weight_batch(
            spec.interaction, spec.a, spec.b, curves,
            np.asarray(spec.f, dtype=float), np.asarray(spec.g, dtype=float),
        )
        assert est == float(np.exp(logw).mean())

    @pytest.mark.parametrize("name", ORACLE_SPECS)
    def test_within_4_se_of_monte_carlo(self, name):
        # 10^6 tilted free walks: at least as precise as 10^5 exact free bridges
        spec = ORACLE_SPECS[name]()
        est, se, sd_w = tilted_acceptance(spec, 10**6, np.random.default_rng(0))
        assert se <= sd_w / math.sqrt(10**5)
        assert abs(gb.acceptance_probability(spec) - est) < 4.0 * se

    def test_within_4_se_of_grid_sampler(self):
        # the same check against free bridges drawn by the runtime's grid sampler
        spec = ORACLE_SPECS["bottom-at--0.7"]()
        est, se = mc_acceptance(spec, 10**5, np.random.default_rng(0), m=256)
        assert abs(gb.acceptance_probability(spec) - est) < 4.0 * se

    @pytest.mark.parametrize("name", ORACLE_SPECS)
    def test_flush_changes_nothing(self, name, monkeypatch):
        # operands flushed below TINY of their peak, or not flushed at all
        spec = ORACLE_SPECS[name]()
        flushed = cp.log_partition(spec)
        monkeypatch.setattr(cp, "TINY", 0.0)
        assert cp.log_partition(spec) == pytest.approx(flushed, rel=1e-14)

    @pytest.mark.parametrize("T", [8, 20])
    def test_grid_refinement(self, T):
        spec = ladder_spec(2, T, gb.InteractionSpec.exp(0, T))
        coarse = gb.acceptance_probability(spec, 256)
        assert coarse == pytest.approx(gb.acceptance_probability(spec, 512), rel=1e-5)

    def test_state_limit(self):
        spec = ladder_spec(3, 2, gb.InteractionSpec.exp(0, 2))
        assert 128**3 == cp.MAX_SWEEP_STATES
        assert 0.0 < gb.acceptance_probability(spec, 128) <= 1.0
        with pytest.raises(ResourceLimitError):
            gb.acceptance_probability(spec, 256)


class TestRejectionSampler:
    def test_zero_interaction_first_draw(self):
        spec = ladder_spec(3, 4, gb.InteractionSpec.zero(0, 4))
        ens, attempts = gb.sample_ensemble_rejection(spec, np.random.default_rng(3))
        assert attempts == 1
        assert ens.k == 3

    def test_attempt_budget(self):
        spec = ladder_spec(2, 4, gb.InteractionSpec.exp(0, 4), spread=-3.0)  # inverted order
        with pytest.raises(gb.ResourceLimitError):
            gb.sample_ensembles_rejection(spec, 50, np.random.default_rng(4), max_attempts=200)

    @pytest.mark.parametrize("k,T", [(1, 1), (1, 4), (2, 2), (2, 5), (3, 4)])
    def test_single_generator_matches_reference(self, k, T):
        spec = ladder_spec(k, T, gb.InteractionSpec.exp(0, T), spread=1.0)
        got, attempts = gb.sample_ensembles_rejection(spec, 25, np.random.default_rng(14), m=256)
        want, want_attempts = reference_rejection(spec, 25, np.random.default_rng(14), 256)
        assert np.array_equal(got, want) and attempts == want_attempts

    def test_per_sample_generators_match_one_sample_draws(self):
        spec = ladder_spec(2, 5, gb.InteractionSpec.exp(0, 5), spread=1.0)
        batch, attempts = gb.sample_ensembles_rejection(spec, 8, index_rngs(8), m=256)
        loop = [gb.sample_ensemble_rejection(spec, r, m=256) for r in index_rngs(8)]
        assert np.array_equal(batch, np.array([ens.curves for ens, _ in loop]))
        assert attempts == sum(a for _, a in loop) > 8

    def test_budget_is_per_call(self):
        spec = ladder_spec(2, 4, gb.InteractionSpec.exp(0, 4), spread=1.0)
        _, attempts = gb.sample_ensembles_rejection(spec, 8, index_rngs(8), m=256)
        with pytest.raises(gb.ResourceLimitError):
            gb.sample_ensembles_rejection(spec, 8, index_rngs(8), attempts - 1, m=256)
        _, again = gb.sample_ensembles_rejection(spec, 8, index_rngs(8), attempts, m=256)
        assert again == attempts

    def test_generator_sequence_length_checked(self):
        spec = ladder_spec(2, 4, gb.InteractionSpec.exp(0, 4))
        with pytest.raises(ValueError):
            gb.sample_ensembles_rejection(spec, 5, index_rngs(4))

    def test_rate_matches_acceptance_probability(self):
        spec = ladder_spec(2, 6, gb.InteractionSpec.exp(0, 6))
        z = gb.acceptance_probability(spec)
        _, attempts = gb.sample_ensembles_rejection(spec, 2000, np.random.default_rng(5))
        rate = 2000 / attempts
        se = math.sqrt(z * (1 - z) / attempts)
        assert abs(rate - z) < 3.0 * se

    def test_marginal_vs_mcmc(self):
        spec = ladder_spec(2, 6, gb.InteractionSpec.exp(0, 6))
        rng = np.random.default_rng(6)
        rej, _ = gb.sample_ensembles_rejection(spec, 5000, rng)
        mc = gb.sample_ensembles_mcmc(spec, 2500, 50, rng, m=256)
        worst = 0.0
        for i in (0, 1):
            for t in (2, 3):
                worst = max(
                    worst, ks_distance(EmpiricalCDF(rej[:, i, t]), EmpiricalCDF(mc[:, i, t]))
                )
        assert worst < max(0.03, ks_two_sample_critical(5000, 2500))


class TestMcmcSampler:
    def test_zero_interaction_reduces_to_bridges(self):
        from gibbslines.bridge import BridgeSpec, sample_bridges_sequential

        spec = ladder_spec(1, 5, gb.InteractionSpec.zero(0, 5), spread=0.0)
        rng = np.random.default_rng(7)
        mc = gb.sample_ensembles_mcmc(spec, 3000, 60, rng, m=256)
        free = sample_bridges_sequential(BridgeSpec(0, 5, 0.0, 0.0, HRW), 3000, rng)
        d = ks_distance(EmpiricalCDF(mc[:, 0, 2]), EmpiricalCDF(free[:, 2]))
        assert d < ks_two_sample_critical(3000, 3000)

    @staticmethod
    def assert_matches_reference(spec):
        k, T = spec.n_curves, spec.b - spec.a
        got = gb.sample_ensembles_mcmc(spec, 20, 3, np.random.default_rng(15), m=256)
        rng = np.random.default_rng(15)
        frac = np.linspace(0.0, 1.0, T + 1)
        x = np.asarray(spec.x_vec)[:, None]
        y = np.asarray(spec.y_vec)[:, None]
        want = np.broadcast_to(x + frac * (y - x), (20, k, T + 1)).copy()
        f, g = np.asarray(spec.f, dtype=float), np.asarray(spec.g, dtype=float)
        for _ in range(3):
            reference_mcmc_sweep_ensembles(want, spec, rng, 256, f, g)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("k,T", [(1, 1), (1, 2), (2, 5), (3, 4)])
    def test_single_generator_matches_reference(self, k, T):
        spec = ladder_spec(k, T, gb.InteractionSpec.exp(0, T), spread=1.0, g=[-4.0] * (T + 1))
        self.assert_matches_reference(spec)

    # the sampler skips the bond to f = +inf and to g = -inf; the reference adds it
    BOUNDARIES = {
        "finite-f": lambda T: dict(f=[4.0] * (T + 1)),
        "partly-infinite": lambda T: dict(
            f=[math.inf if t % 2 else 3.0 for t in range(T + 1)],
            g=[-math.inf if t % 3 else -5.0 for t in range(T + 1)],
        ),
    }

    @pytest.mark.parametrize("boundary", BOUNDARIES)
    @pytest.mark.parametrize("k,T", [(1, 2), (2, 5), (3, 4)])
    def test_single_generator_matches_reference_at_boundaries(self, k, T, boundary):
        bounds = self.BOUNDARIES[boundary](T)
        self.assert_matches_reference(
            ladder_spec(k, T, gb.InteractionSpec.exp(0, T), spread=1.0, **bounds)
        )

    def test_per_sample_generators_match_one_sample_draws(self):
        spec = ladder_spec(2, 5, gb.InteractionSpec.exp(0, 5))
        batch = gb.sample_ensembles_mcmc(spec, 6, 4, index_rngs(6), m=256)
        loop = [gb.sample_ensemble_mcmc(spec, 4, r, m=256).curves for r in index_rngs(6)]
        assert np.array_equal(batch, np.array(loop))

    def test_generator_sequence_length_checked(self):
        spec = ladder_spec(2, 4, gb.InteractionSpec.exp(0, 4))
        with pytest.raises(ValueError):
            gb.sample_ensembles_mcmc(spec, 3, 1, index_rngs(4))

    def test_stationarity_from_rejection_start(self):
        spec = ladder_spec(2, 5, gb.InteractionSpec.exp(0, 5))
        rng = np.random.default_rng(8)
        rej, _ = gb.sample_ensembles_rejection(spec, 4000, rng)
        moved = gb.sample_ensembles_mcmc(spec, 4000, 1, rng, init=rej, m=512)
        for i in (0, 1):
            for t in (1, 3):
                d = ks_distance(EmpiricalCDF(rej[:, i, t]), EmpiricalCDF(moved[:, i, t]))
                assert d < 0.03

    def test_endpoints_pinned(self):
        spec = ladder_spec(2, 4, gb.InteractionSpec.exp(0, 4))
        mc = gb.sample_ensembles_mcmc(spec, 100, 5, np.random.default_rng(9))
        assert np.all(mc[:, 0, 0] == 0.0)
        assert np.all(mc[:, 1, 0] == -2.0)

    def test_end_columns_pinned_to_x_and_y(self):
        # the chord x + frac (y - x) ends at -0.29000000000000004 here, and a
        # user init keeps whatever end columns it was given unless pinned
        spec = gb.EnsembleSpec.make(1, 1, 0, 3, [0.1], [-0.29], HRW, gb.InteractionSpec.exp(0, 3))
        init = np.random.default_rng(18).normal(size=(4, 1, 4))
        for start in (None, init):
            mc = gb.sample_ensembles_mcmc(spec, 4, 2, np.random.default_rng(17), init=start)
            assert np.all(mc[:, 0, 0] == 0.1) and np.all(mc[:, 0, -1] == -0.29)
        assert not np.any(init[:, 0, [0, -1]] == [0.1, -0.29])

    def test_raising_g_lowers_acceptance(self):
        T = 4
        spec_lo = ladder_spec(1, T, gb.InteractionSpec.exp(0, T), g=[-2.0] * (T + 1))
        spec_hi = ladder_spec(1, T, gb.InteractionSpec.exp(0, T), g=[-0.5] * (T + 1))
        assert gb.acceptance_probability(spec_hi) < gb.acceptance_probability(spec_lo)


class TestGibbsInvariance:
    def test_resampling_leaves_marginals(self):
        spec = ladder_spec(3, 6, gb.InteractionSpec.exp(0, 6))
        report = gb.gibbs_invariance_check(spec, (1, 2, 1, 5), 4000, np.random.default_rng(11))
        assert report["ks_max"][0] < report["ks_critical_1pct"][0]

    def test_box_touching_bottom_curve_rejected(self):
        spec = ladder_spec(3, 6, gb.InteractionSpec.exp(0, 6))
        with pytest.raises(ValueError):
            gb.gibbs_invariance_check(spec, (2, 3, 1, 5), 100, np.random.default_rng(0))

    def test_zero_interaction_markov_property(self):
        spec = ladder_spec(2, 6, gb.InteractionSpec.zero(0, 6))
        report = gb.gibbs_invariance_check(spec, (1, 1, 2, 4), 3000, np.random.default_rng(12))
        assert report["ks_max"][0] < report["ks_critical_1pct"][0]


class TestWindowSpec:
    def test_boundary_read_off(self):
        curves = np.array([[1.0, 1.2, 1.1], [0.0, 0.1, -0.1], [-2.0, -1.9, -2.1]])
        ens = DiscreteLineEnsemble(curves=curves, t0=-1, t1=1)
        spec = gb.window_spec_from_ensemble(ens, 2, -1, 1, HRW)
        assert spec.x_vec == (1.0, 0.0)
        assert spec.y_vec == (1.1, -0.1)
        assert spec.g == (-2.0, -1.9, -2.1)

    def test_needs_extra_curve(self):
        ens = DiscreteLineEnsemble(curves=np.zeros((2, 3)), t0=0, t1=2)
        with pytest.raises(ValueError):
            gb.window_spec_from_ensemble(ens, 2, 0, 2, HRW)
