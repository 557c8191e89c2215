import math

import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sp_stats
from scipy.integrate import simpson
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import airy

from gibbslines import polymer as pm
from gibbslines import stats as st_mod
from gibbslines.ensembles import DiscreteLineEnsemble
from gibbslines.special import ScalingConstants, scaling_constants


@pytest.fixture(scope="module")
def consts():
    return scaling_constants(1.0)


def flat_constants(**kw):
    base = dict(
        theta=1.0, alpha=2.0 / 3.0, p=0.0, lam=0.1, sigma_p=1.0,
        d_theta_1=1.0, h_theta_1=0.0,
    )
    base.update(kw)
    return ScalingConstants(**base)


class TestKpzScale:
    def test_pure_vertical_scaling(self):
        N = 8
        curves = np.arange(2 * (2 * N + 1), dtype=float).reshape(2, -1)
        ens = DiscreteLineEnsemble(curves, -N, N)
        c = flat_constants()
        scaled = st_mod.kpz_scale(ens, c, N)
        j = scaled.s_grid * N ** (2.0 / 3.0)
        cols = np.rint(j).astype(int) + N
        assert np.allclose(scaled.values, curves[:, cols] / N ** (1.0 / 3.0))

    def test_round_trip(self, consts):
        ens = pm.polymer_line_ensemble(1.0, 4, 2, seed=1)
        scaled = st_mod.kpz_scale(ens, consts, 4)
        back = scaled.unscale()
        cols = back.times - ens.t0
        assert np.allclose(back.curves, ens.curves[:, cols], atol=1e-10)

    def test_hand_fixture(self):
        # direct arithmetic: f(s) = (L(sN^a) - p sN^a) / (sigma N^(a/2))
        N = 8
        curves = np.zeros((1, 2 * N + 1))
        curves[0, N + 4] = 3.0  # L(4) = 3
        ens = DiscreteLineEnsemble(curves, -N, N)
        c = flat_constants(p=0.5, sigma_p=2.0)
        scaled = st_mod.kpz_scale(ens, c, N)
        s = 4.0 / N ** (2.0 / 3.0)
        expect = (3.0 - 0.5 * 4.0) / (2.0 * N ** (1.0 / 3.0))
        assert scaled.evaluate(1, s) == pytest.approx(expect, rel=1e-12)

    def test_constant_extension(self, consts):
        ens = pm.polymer_line_ensemble(1.0, 4, 1, seed=2)
        scaled = st_mod.kpz_scale(ens, consts, 4)
        edge = scaled.evaluate(1, scaled.s_grid[-1])
        assert scaled.evaluate(1, scaled.s_grid[-1] + 5.0) == edge


class TestTwStatistic:
    def test_centering_identity_exact(self):
        # adding and removing the exact centering is an arithmetic no-op
        N = 8
        c = flat_constants(p=1.5, lam=0.25, d_theta_1=2.0)
        vals = np.array([1.7, -0.3])
        a = st_mod.tw_statistics_from_values(vals, c, N, 1)
        shift = -c.p * N ** (2 / 3) + c.lam * N ** (1 / 3)
        expect = (vals + shift) / ((2 * N) ** (1 / 3) * 2.0)
        assert np.allclose(a, expect)

    def test_n_zero_is_scaled_top_value(self):
        N = 4
        curves = np.zeros((1, 2 * N + 1))
        curves[0, N] = 2.0
        ens = DiscreteLineEnsemble(curves, -N, N)
        c = flat_constants(d_theta_1=1.5)
        assert st_mod.tw_statistic(ens, c, N, 0) == pytest.approx(
            2.0 / ((2 * N) ** (1 / 3) * 1.5)
        )

    def test_curvature_term_even_in_n(self):
        N = 8
        c = flat_constants(p=0.0, lam=0.3)
        zero = np.array([0.0])
        plus = st_mod.tw_statistics_from_values(zero, c, N, 2)
        minus = st_mod.tw_statistics_from_values(zero, c, N, -2)
        assert plus == pytest.approx(minus)

    def test_out_of_range(self, consts):
        ens = pm.polymer_line_ensemble(1.0, 2, 1, seed=3)
        with pytest.raises(ValueError):
            st_mod.tw_statistic(ens, consts, 2, 5)


class TestModulusOfContinuity:
    def test_constant_curve(self):
        s = np.linspace(0, 1, 11)
        assert st_mod.modulus_of_continuity(s, np.ones(11), 0.3) == 0.0

    def test_linear_curve(self):
        s = np.linspace(0, 1, 101)
        w = st_mod.modulus_of_continuity(s, s.copy(), 0.25)
        assert w == pytest.approx(0.25, abs=0.011)

    def test_piecewise_fixture(self):
        s = np.array([0.0, 1.0, 2.0, 3.0])
        v = np.array([0.0, 2.0, -1.0, 0.5])
        assert st_mod.modulus_of_continuity(s, v, 1.0) == 3.0
        assert st_mod.modulus_of_continuity(s, v, 2.5) == 3.0

    def test_domain(self):
        s = np.linspace(0, 1, 5)
        with pytest.raises(ValueError):
            st_mod.modulus_of_continuity(s, s, 0.0)


class TestWindowExtrema:
    def test_linear_curve_zero(self):
        N = 8
        c = flat_constants(p=0.7)
        j = np.arange(-N, N + 1, dtype=float)
        ens = DiscreteLineEnsemble((0.7 * j)[None, :], -N, N)
        hi, lo = st_mod.window_extrema(ens, c, N, 1.0, 1)
        assert hi == pytest.approx(0.0, abs=1e-12)
        assert lo == pytest.approx(0.0, abs=1e-12)

    def test_single_spike(self):
        N = 8
        c = flat_constants()
        curves = np.zeros((1, 2 * N + 1))
        curves[0, N + 2] = 5.0
        ens = DiscreteLineEnsemble(curves, -N, N)
        hi, lo = st_mod.window_extrema(ens, c, N, 1.0, 1)
        assert hi == 5.0
        assert lo == 0.0

    def test_against_dense_scan(self, consts):
        N = 8
        ens = pm.polymer_line_ensemble(1.0, N, 1, seed=4)
        hi, lo = st_mod.window_extrema(ens, consts, N, 1.0, 1)
        xs = np.linspace(-N ** (2 / 3), N ** (2 / 3), 20001)
        dense = ens.value(1, xs) - consts.p * xs
        assert hi >= dense.max() - 1e-9
        assert lo <= dense.min() + 1e-9
        assert hi == pytest.approx(dense.max(), abs=1e-4)
        assert lo == pytest.approx(dense.min(), abs=1e-4)

    def test_window_exceeds_data(self, consts):
        ens = pm.polymer_line_ensemble(1.0, 4, 1, seed=5)
        with pytest.raises(ValueError):
            st_mod.window_extrema(ens, consts, 4, 3.0, 1)


class TestGapAndAcceptance:
    def test_well_separated_fixture(self, consts):
        N = 4
        j = np.arange(-N, N + 1, dtype=float)
        curves = np.vstack([consts.p * j + 8.0, consts.p * j - 8.0])
        ens = DiscreteLineEnsemble(curves, -N, N)
        rep = st_mod.gap_and_acceptance_diagnostics(ens, consts, N, 1.0, 1)
        assert rep["min_gap"][0] == pytest.approx(16.0, rel=1e-12)
        z, se = rep["acceptance"]
        assert z > 0.95  # huge gap: nearly free bridges

    def test_identical_adjacent_curves(self, consts):
        N = 4
        j = np.arange(-N, N + 1, dtype=float)
        curves = np.vstack([consts.p * j, consts.p * j])
        ens = DiscreteLineEnsemble(curves, -N, N)
        rep = st_mod.gap_and_acceptance_diagnostics(ens, consts, N, 1.0, 1)
        assert rep["min_gap"][0] == 0.0

    def test_z_in_unit_interval(self, consts):
        N = 4
        ens = pm.polymer_line_ensemble(1.0, N, 2, seed=6)
        rep = st_mod.gap_and_acceptance_diagnostics(ens, consts, N, 1.0, 1)
        assert 0.0 < rep["acceptance"][0] <= 1.0

    def test_needs_k_plus_one_curves(self, consts):
        ens = pm.polymer_line_ensemble(1.0, 4, 1, seed=7)
        with pytest.raises(ValueError):
            st_mod.gap_and_acceptance_diagnostics(ens, consts, 4, 1.0, 1)


def dense_gue_edge(M, n_samples, rng):
    """Reference route for gue_tw_oracle: full spectra of dense M x M GUE
    matrices (Re/Im of off-diagonal entries of variance 1/2, diagonal of
    variance 1), largest eigenvalue kept, same edge scaling."""
    out = np.empty(n_samples)
    batch = max(1, int(2e6 / (M * M)))
    for lo in range(0, n_samples, batch):
        b = min(batch, n_samples - lo)
        a = rng.normal(size=(b, M, M)) + 1j * rng.normal(size=(b, M, M))
        out[lo : lo + b] = np.linalg.eigvalsh((a + np.conj(np.swapaxes(a, 1, 2))) / 2.0)[:, -1]
    return st_mod.EmpiricalCDF(M ** (1.0 / 6.0) * (out - 2.0 * math.sqrt(M)))


def tw2_cdf(s):
    """GUE Tracy-Widom F_2(s) = det(I - K_Airy) on L^2(s, s + 16), by 60-point
    Gauss-Legendre quadrature of the Fredholm determinant (Bornemann, Math.
    Comp. 79, 2010); for s >= -8 the Airy kernel's diagonal beyond s + 16
    is below 1e-15."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    m = 60
    t, w = np.polynomial.legendre.leggauss(m)
    u = (t + 1.0) * 8.0
    sw = np.sqrt(w * 8.0)
    diag = np.arange(m)
    out = np.empty(s.size)
    for lo in range(0, s.size, 256):
        x = s[lo : lo + 256, None] + u
        ai, aip, _, _ = airy(x)
        dx = x[:, :, None] - x[:, None, :]
        dx[:, diag, diag] = 1.0
        k = (ai[:, :, None] * aip[:, None, :] - aip[:, :, None] * ai[:, None, :]) / dx
        k[:, diag, diag] = aip**2 - x * ai**2
        out[lo : lo + 256] = np.linalg.det(np.eye(m) - sw[:, None] * k * sw)
    return out


def reference_gue_tw_oracle(M, n_samples, rng):
    """gue_tw_oracle through scipy's validated eigvalsh_tridiagonal: the
    oracle for the bits of its direct LAPACK call."""
    diag = rng.normal(size=(n_samples, M))
    off = np.sqrt(rng.chisquare(2.0 * np.arange(M - 1, 0, -1), size=(n_samples, M - 1)) / 2.0)
    top = np.array([
        eigvalsh_tridiagonal(d, e, select="i", select_range=(M - 1, M - 1))[0]
        for d, e in zip(diag, off)
    ])
    return st_mod.EmpiricalCDF(M ** (1.0 / 6.0) * (top - 2.0 * math.sqrt(M)))


class TestGueOracle:
    @pytest.mark.parametrize("M, n, seed", [(50, 300, 0), (100, 500, 2), (200, 400, 3)])
    def test_bit_identical_to_reference(self, M, n, seed):
        ecdf = st_mod.gue_tw_oracle(M, n, np.random.default_rng(seed))
        ref = reference_gue_tw_oracle(M, n, np.random.default_rng(seed))
        assert np.array_equal(ecdf.samples, ref.samples)

    def test_lapack_failure_raises(self, monkeypatch):
        def failing(d, e, *args):
            return 0, np.zeros(d.size), None, None, 1

        monkeypatch.setattr(scipy.linalg.lapack, "dstebz", failing)
        with pytest.raises(np.linalg.LinAlgError):
            st_mod.gue_tw_oracle(50, 3, np.random.default_rng(0))

    def test_valid_cdf(self):
        ecdf = st_mod.gue_tw_oracle(60, 200, np.random.default_rng(3))
        assert ecdf.count == 200
        assert np.all(np.diff(ecdf.samples) >= 0.0)
        grid = np.linspace(-6, 3, 50)
        vals = ecdf.evaluate(grid)
        assert np.all((0.0 <= vals) & (vals <= 1.0))
        assert np.all(np.diff(vals) >= 0.0)

    def test_m_convergence(self):
        rng = np.random.default_rng(4)
        a = st_mod.gue_tw_oracle(100, 5000, rng)
        b = st_mod.gue_tw_oracle(200, 5000, rng)
        assert st_mod.ks_distance(a, b) < 0.08
        assert abs(a.mean() - b.mean()) < 0.1

    @pytest.mark.parametrize("M", [60, 100])
    def test_matches_dense_gue(self, M):
        n = 1000
        tri = st_mod.gue_tw_oracle(M, n, np.random.default_rng(7))
        dense = dense_gue_edge(M, n, np.random.default_rng(8))
        assert st_mod.ks_distance(tri, dense) < st_mod.ks_two_sample_critical(n, n, 1e-3)

    def test_f2_moments(self):
        s = np.linspace(-8.0, 5.0, 1301)
        f = tw2_cdf(s)
        mean = s[0] + simpson(1.0 - f, x=s)
        second = simpson(2.0 * s * np.where(s > 0.0, 1.0 - f, -f), x=s)
        assert mean == pytest.approx(-1.7711, abs=1e-3)
        assert second - mean**2 == pytest.approx(0.8132, abs=1e-3)

    def test_matches_tracy_widom_f2(self):
        n = 5000
        ecdf = st_mod.gue_tw_oracle(200, n, np.random.default_rng(9))
        ks = sp_stats.kstest(ecdf.samples, tw2_cdf).statistic
        assert ks < sp_stats.kstwo.ppf(1.0 - 1e-3, n)

    def test_m_floor(self):
        with pytest.raises(ValueError):
            st_mod.gue_tw_oracle(10, 100, np.random.default_rng(0))


class TestKsDistance:
    def test_identical_samples(self):
        a = st_mod.EmpiricalCDF(np.array([1.0, 2.0, 3.0]))
        assert st_mod.ks_distance(a, a) == 0.0

    def test_disjoint_supports(self):
        a = st_mod.EmpiricalCDF(np.array([0.0, 1.0]))
        b = st_mod.EmpiricalCDF(np.array([5.0, 6.0]))
        assert st_mod.ks_distance(a, b) == 1.0

    def test_hand_value(self):
        a = st_mod.EmpiricalCDF(np.array([1.0, 2.0]))
        b = st_mod.EmpiricalCDF(np.array([1.5]))
        assert st_mod.ks_distance(a, b) == 0.5

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.lists(st.floats(-10, 10), min_size=1, max_size=20, unique=True),
        b=st.lists(st.floats(-10, 10), min_size=1, max_size=20, unique=True),
        c=st.lists(st.floats(-10, 10), min_size=1, max_size=20, unique=True),
    )
    def test_metric_properties(self, a, b, c):
        ea, eb, ec = (st_mod.EmpiricalCDF(np.array(v)) for v in (a, b, c))
        dab = st_mod.ks_distance(ea, eb)
        dba = st_mod.ks_distance(eb, ea)
        assert dab == dba
        assert dab <= st_mod.ks_distance(ea, ec) + st_mod.ks_distance(ec, eb) + 1e-12


class TestParabolaFit:
    def test_exact_parabola(self):
        n = np.arange(-3, 4)
        prof = -0.4 * n**2 + 1.3
        fit = st_mod.parabola_fit(n, prof)
        assert fit.lam_hat == pytest.approx(0.4, rel=1e-12)
        assert fit.offset == pytest.approx(1.3, rel=1e-12)
        assert fit.residual_rms < 1e-12

    def test_noisy_parabola(self):
        rng = np.random.default_rng(5)
        n = np.arange(-4, 5)
        se = 0.05
        prof = -0.7 * n**2 + rng.normal(0.0, se, size=n.size)
        fit = st_mod.parabola_fit(n, prof, np.full(n.size, se))
        # crude 3-sigma band on the curvature from the design
        denom = np.sum((n**2 - np.mean(n**2)) ** 2)
        lam_se = se / math.sqrt(denom)
        assert abs(fit.lam_hat - 0.7) < 3.0 * lam_se

    def test_linear_input_zero_curvature(self):
        n = np.arange(-3, 4)
        fit = st_mod.parabola_fit(n, 0.8 * np.ones(n.size))
        assert fit.lam_hat == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_design(self):
        with pytest.raises(ValueError):
            st_mod.parabola_fit([1, 1, 1, 1, 1], [0, 0, 0, 0, 0])
        with pytest.raises(ValueError):
            st_mod.parabola_fit([1, 2, 3], [0, 0, 0])


class TestProfilePoints:
    def test_recovers_planted_parabola(self):
        # synthetic curves with known tilt and curvature, no noise
        N = 8
        c = flat_constants(p=1.0)
        j = np.arange(-N, N + 1, dtype=float)
        n_of_j = j / N ** (2 / 3)
        curve = 1.0 * j - 0.5 * n_of_j**2 * N ** (1 / 3)
        samples = np.tile(curve, (7, 1))
        prof, err = st_mod.profile_points(samples, -N, c, N, [-1, 0, 1])
        assert prof[1] == pytest.approx(0.0, abs=1e-10)
        assert prof[0] == pytest.approx(-0.5, rel=1e-9)
        assert prof[2] == pytest.approx(-0.5, rel=1e-9)

    def test_matches_interp_loop(self, consts):
        # n = 0 and the last lattice time take the exact-hit branch
        N = 32
        curves = pm.sample_top_curves(1.0, N, 500, seed=1)
        times = -N + np.arange(curves.shape[1])
        for n_values in (np.arange(-2, 3), np.array([-1.3, 0.25, N / N**consts.alpha])):
            for include_sigma in (False, True):
                scale = N ** (consts.alpha / 2.0) * (consts.sigma_p if include_sigma else 1.0)
                means, errs = [], []
                for x in n_values * N**consts.alpha:
                    vals = np.array([np.interp(x, times, row) for row in curves])
                    vals = (vals - consts.p * x) / scale
                    means.append(math.fsum(vals) / vals.size)
                    errs.append(float(vals.std(ddof=1) / math.sqrt(vals.size)))
                prof, err = st_mod.profile_points(curves, -N, consts, N, n_values, include_sigma)
                assert np.array_equal(prof, means)
                assert np.array_equal(err, errs)
