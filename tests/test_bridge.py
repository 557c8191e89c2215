import math

import numpy as np
import pytest
from conftest import reference_sequential_paths

from gibbslines import bridge as br
from gibbslines.errors import PrecisionError, ResourceLimitError
from gibbslines.grids import GridDensity, inverse_cdf_rows
from gibbslines.reports import EmpiricalCDF, ks_distance, ks_two_sample_critical


@pytest.fixture(scope="module")
def hrw():
    return br.HrwSpec.log_gamma(1.0)


def quadrature_midpoint_cdf(hrw_spec, T, t, x, y, lo, hi, n=4000):
    """Oracle: CDF of the bridge marginal at time t from tabulated n-step laws."""
    g_left = br._step_density_cached(hrw_spec, t, 4096)
    g_right = br._step_density_cached(hrw_spec, T - t, 4096)
    u = np.linspace(lo, hi, n)
    logq = g_left.log_pdf(u - x) + g_right.log_pdf(y - u)
    q = np.exp(logq - logq.max())
    cdf = np.concatenate([[0.0], np.cumsum((q[1:] + q[:-1]) / 2 * np.diff(u))])
    return u, cdf / cdf[-1]


def fftconvolve_reference(a, b):
    """The former ``bridge._convolve``: the same clip and tail trim around
    ``scipy.signal.fftconvolve``."""
    from scipy.signal import fftconvolve

    vals = np.clip(fftconvolve(a.values, b.values) * a.step, 0.0, None)
    keep = np.nonzero(vals > vals.max() * 1e-17)[0]
    i0 = int(keep[0])
    i1 = max(int(keep[-1]), i0 + 3)
    lo = a.lo + b.lo
    return GridDensity(lo=lo + i0 * a.step, hi=lo + i1 * a.step, values=vals[i0 : i1 + 1])


def assert_same_grid(got, expect):
    assert np.array_equal(got.values, expect.values)
    assert (got.lo, got.hi) == (expect.lo, expect.hi)


def reference_mcmc_sweep(paths, spec, rng, m):
    """The former bridge Gibbs sweep (one rng.uniform call per site), in place."""
    T = spec.steps
    s_lo, s_hi = spec.hrw.support()
    for j in range(1, T):
        left = paths[:, j - 1]
        right = paths[:, j + 1]
        grids = br._conditional_grid(left + s_lo, left + s_hi, right - s_hi, right - s_lo, m)
        log_pdf = spec.hrw.log_g(grids - left[:, None]) + spec.hrw.log_g(
            right[:, None] - grids
        )
        peak = log_pdf.max(axis=1, keepdims=True)
        if not np.all(np.isfinite(peak)):
            raise PrecisionError("bridge MCMC conditional underflowed")
        with np.errstate(under="ignore"):
            pdf = np.exp(log_pdf - peak)
        paths[:, j] = inverse_cdf_rows(grids, pdf, rng.uniform(size=paths.shape[0]))


def one_sample_ks(samples, u, cdf):
    s = np.sort(samples)
    emp = np.arange(1, s.size + 1) / s.size
    theo = np.interp(s, u, cdf)
    return float(np.max(np.abs(emp - theo)))


class TestHrwDensity:
    def test_mass_and_positivity(self, hrw):
        g = br.hrw_density(hrw)
        assert abs(g.mass() - 1.0) <= 1e-6
        assert np.all(g.values[1:-1] >= 0.0)
        assert g.values.max() > 0.0

    def test_moments_match_analytic(self, hrw):
        g = br.hrw_density(hrw)
        assert g.mean() == pytest.approx(hrw.increment_mean(), abs=1e-6)
        assert g.var() == pytest.approx(hrw.increment_var(), rel=1e-5)

    def test_increment_law_vs_gamma_sampler(self, hrw):
        # change of variables: e^{-increment} has the Gamma(theta, 1) law
        g = br.hrw_density(hrw)
        rng = np.random.default_rng(42)
        draws = g.sample(rng, 10**4)
        mapped = np.exp(-draws)
        gammas = rng.gamma(1.0, 1.0, size=10**4)
        d = ks_distance(EmpiricalCDF(mapped), EmpiricalCDF(gammas))
        assert d < 0.02

    def test_tabulated_kind(self):
        x = np.linspace(-5, 5, 801)
        vals = np.exp(-0.5 * x**2)
        spec = br.HrwSpec.tabulated(x, vals)
        g = br.hrw_density(spec)
        assert abs(g.mass() - 1.0) <= 1e-6
        assert g.var() == pytest.approx(1.0, rel=1e-3)

    def test_tabulated_rejects_garbage(self):
        with pytest.raises(ValueError):
            br.HrwSpec(kind="tabulated", table_x=(0.0, 1.0), table_values=(0.0, 0.0))
        with pytest.raises(ValueError):
            br.HrwSpec(kind="tabulated", table_x=(0.0, 1.0), table_values=(1.0, -2.0))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            br.HrwSpec(kind="cauchy")


class TestNStepDensity:
    def test_identity_at_one(self, hrw):
        g = br.hrw_density(hrw)
        g1 = br.n_step_density(g, 1)
        assert np.allclose(g1.values, g.values / np.trapezoid(g.values, dx=g.step))

    def test_mean_and_variance_scale(self, hrw):
        g = br.hrw_density(hrw)
        for n in (2, 5):
            gn = br.n_step_density(g, n)
            assert gn.mean() == pytest.approx(n * g.mean(), abs=5e-5)
            assert gn.var() == pytest.approx(n * g.var(), rel=1e-4)

    def test_width_guard(self, hrw):
        g = br.hrw_density(hrw)
        with pytest.raises(ResourceLimitError):
            br.n_step_density(g, 500, max_width=100.0)

    def test_convolve_matches_fftconvolve_bit_for_bit(self):
        rng = np.random.default_rng(11)
        step = 0.01
        for _ in range(200):
            na, nb = int(rng.integers(4, 20001)), int(rng.integers(4, 601))
            a = GridDensity(lo=-1.0, hi=-1.0 + step * (na - 1), values=rng.random(na))
            b = GridDensity(lo=0.5, hi=0.5 + step * (nb - 1), values=rng.random(nb))
            assert_same_grid(br._convolve(a, b), fftconvolve_reference(a, b))

    @pytest.mark.parametrize("m", [256, 512, 4096])
    def test_step_chain_matches_fftconvolve_bit_for_bit(self, hrw, m):
        unit = power = br.hrw_density(hrw, m).normalized()
        for n in range(2, 50):
            power = fftconvolve_reference(power, unit)
            assert_same_grid(br._step_density_cached(hrw, n, m), power.normalized())

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("m", [256, 512, 4096])
    def test_cached_built_from_n_minus_one_bit_identical(self, theta, m):
        spec = br.HrwSpec.log_gamma(theta)
        g = br.hrw_density(spec, m)
        one = br._step_density_cached(spec, 1, m)
        assert np.array_equal(one.values, g.values) and (one.lo, one.hi) == (g.lo, g.hi)
        for n in (2, 3, 5, 17, 49):
            cached = br._step_density_cached(spec, n, m)
            direct = br.n_step_density(g, n)
            assert np.array_equal(cached.values, direct.values), n
            assert (cached.lo, cached.hi) == (direct.lo, direct.hi), n


class TestSequentialSampler:
    def test_single_step_deterministic(self, hrw):
        spec = br.BridgeSpec(3, 4, 1.5, -2.5, hrw)
        path = br.sample_bridge_sequential(spec, np.random.default_rng(0))
        assert path.tolist() == [1.5, -2.5]

    def test_endpoints_pinned_bitwise(self, hrw):
        spec = br.BridgeSpec(0, 7, 0.25, 1.75, hrw)
        paths = br.sample_bridges_sequential(spec, 200, np.random.default_rng(1))
        assert np.all(paths[:, 0] == 0.25)
        assert np.all(paths[:, -1] == 1.75)

    def test_linear_mean(self, hrw):
        T = 10
        spec = br.BridgeSpec(0, T, 0.0, 3.0, hrw)
        paths = br.sample_bridges_sequential(spec, 4000, np.random.default_rng(2))
        chord = np.linspace(0.0, 3.0, T + 1)
        se = paths.std(axis=0, ddof=1) / math.sqrt(paths.shape[0])
        dev = np.abs(paths.mean(axis=0)[1:-1] - chord[1:-1]) / se[1:-1]
        assert dev.max() < 4.0

    def test_midpoint_marginal_vs_quadrature(self, hrw):
        T = 10
        spec = br.BridgeSpec(0, T, 0.0, 3.0, hrw)
        paths = br.sample_bridges_sequential(spec, 5000, np.random.default_rng(3))
        u, cdf = quadrature_midpoint_cdf(hrw, T, 5, 0.0, 3.0, -14.0, 17.0)
        assert one_sample_ks(paths[:, 5], u, cdf) < 0.03

    def test_gaussian_kind_exact_law(self):
        # closed-form oracle: Gaussian bridge marginal is normal
        gs = br.HrwSpec.gaussian_test()
        T, t, x, y = 8, 3, -1.0, 2.0
        paths = br.sample_bridges_sequential(
            br.BridgeSpec(0, T, x, y, gs), 5000, np.random.default_rng(4)
        )
        mu = x + t / T * (y - x)
        sd = math.sqrt(t * (T - t) / T)
        from scipy.special import ndtr

        z = np.sort((paths[:, t] - mu) / sd)
        emp = np.arange(1, z.size + 1) / z.size
        assert np.max(np.abs(emp - ndtr(z))) < 0.03

    @pytest.mark.parametrize("T", [1, 2, 7])
    def test_single_generator_matches_reference(self, hrw, T):
        spec = br.BridgeSpec(0, T, 0.5, -1.0, hrw)
        got = br.sample_bridges_sequential(spec, 40, np.random.default_rng(11), m=256)
        rng = np.random.default_rng(11)
        want = reference_sequential_paths(hrw, T, np.full(40, 0.5), np.full(40, -1.0), rng, 256)
        assert np.array_equal(got, want)

    def test_per_sample_generators_match_one_sample_draws(self, hrw):
        spec = br.BridgeSpec(0, 6, 0.0, 1.0, hrw)
        seeds = [np.random.SeedSequence(3, spawn_key=(i,)) for i in range(9)]
        batch = br.sample_bridges_sequential(spec, 9, [np.random.default_rng(s) for s in seeds])
        loop = [br.sample_bridge_sequential(spec, np.random.default_rng(s)) for s in seeds]
        assert np.array_equal(batch, np.array(loop))

    def test_generator_sequence_length_checked(self, hrw):
        spec = br.BridgeSpec(0, 4, 0.0, 1.0, hrw)
        rngs = [np.random.default_rng(i) for i in range(3)]
        with pytest.raises(ValueError):
            br.sample_bridges_sequential(spec, 4, rngs)
        with pytest.raises(ValueError):
            br.sample_bridges_mcmc(spec, 2, 1, rngs)

    def test_shift_invariance(self, hrw):
        # bridge from (t0,x) to (t1,y) = affine shift of bridge from (0,0)
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(6)
        base = br.sample_bridges_sequential(br.BridgeSpec(0, 6, 0.0, 1.0, hrw), 4000, rng_a)
        moved = br.sample_bridges_sequential(br.BridgeSpec(10, 16, 2.0, 3.0, hrw), 4000, rng_b)
        d = ks_distance(EmpiricalCDF(base[:, 3] + 2.0), EmpiricalCDF(moved[:, 3]))
        assert d < ks_two_sample_critical(4000, 4000)


class TestMcmcSampler:
    def test_endpoints_never_move(self, hrw):
        spec = br.BridgeSpec(0, 5, 0.5, -0.5, hrw)
        paths = br.sample_bridges_mcmc(spec, 50, 10, np.random.default_rng(7))
        assert np.all(paths[:, 0] == 0.5)
        assert np.all(paths[:, -1] == -0.5)

    def test_one_sweep_stationarity(self, hrw):
        # a sweep applied to exact draws leaves the marginal unchanged
        T = 10
        spec = br.BridgeSpec(0, T, 0.0, 3.0, hrw)
        rng = np.random.default_rng(8)
        paths = br.sample_bridges_sequential(spec, 8000, rng)
        u, cdf = quadrature_midpoint_cdf(hrw, T, 5, 0.0, 3.0, -14.0, 17.0)
        before = one_sample_ks(paths[:, 5], u, cdf)
        paths = br.sample_bridges_mcmc(spec, 8000, 1, rng, init=paths)
        after = one_sample_ks(paths[:, 5], u, cdf)
        assert before < 0.02 and after < 0.02

    @pytest.mark.parametrize("T", [1, 2, 6])
    def test_single_generator_matches_reference_sweeps(self, hrw, T):
        spec = br.BridgeSpec(0, T, 0.5, -0.25, hrw)
        got = br.sample_bridges_mcmc(spec, 30, 4, np.random.default_rng(12), m=256)
        rng = np.random.default_rng(12)
        frac = np.linspace(0.0, 1.0, T + 1)
        want = spec.x + np.tile(frac, (30, 1)) * (spec.y - spec.x)
        want[:, 0], want[:, T] = spec.x, spec.y
        for _ in range(4):
            reference_mcmc_sweep(want, spec, rng, 256)
        assert np.array_equal(got, want)

    def test_convergence_from_chord(self, hrw):
        # 200 sweeps from a cold start agree with the exact sampler
        T = 6
        spec = br.BridgeSpec(0, T, 0.0, 2.0, hrw)
        rng = np.random.default_rng(9)
        seq = br.sample_bridges_sequential(spec, 4000, rng)
        mc = br.sample_bridges_mcmc(spec, 2000, 200, rng, m=256)
        d = ks_distance(EmpiricalCDF(seq[:, 3]), EmpiricalCDF(mc[:, 3]))
        assert d < ks_two_sample_critical(4000, 2000)

    def test_refinement_stability(self, hrw):
        # doubling the quadrature grid moves the midpoint CDF by <= 1e-4
        u1, c1 = quadrature_midpoint_cdf(hrw, 10, 5, 0.0, 3.0, -14.0, 17.0, n=2000)
        g_left = br.n_step_density(br.hrw_density(hrw, m=8192), 5)
        g_right = g_left
        logq = g_left.log_pdf(u1 - 0.0) + g_right.log_pdf(3.0 - u1)
        q = np.exp(logq - logq.max())
        c2 = np.concatenate([[0.0], np.cumsum((q[1:] + q[:-1]) / 2 * np.diff(u1))])
        c2 /= c2[-1]
        assert np.max(np.abs(c1 - c2)) <= 1e-4
