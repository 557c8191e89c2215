import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from gibbslines import polymer as pm
from gibbslines.errors import PrecisionError, ResourceLimitError
from gibbslines.special import scaling_constants

import polymer_oracle


def inv_gamma_pdf(x, theta):
    return x ** (-theta - 1.0) * math.exp(-1.0 / x) / math.gamma(theta)


class TestWeightField:
    def test_density_normalizes(self):
        for theta in (0.5, 1.0, 3.0):
            mass, err = quad(inv_gamma_pdf, 0, np.inf, args=(theta,))
            assert err < 1e-8
            assert mass == pytest.approx(1.0, abs=1e-7)

    def test_density_mode(self):
        theta = 2.0
        mode = 1.0 / (theta + 1.0)
        for d in (1e-4, -1e-4):
            assert inv_gamma_pdf(mode, theta) > inv_gamma_pdf(mode + d, theta)

    def test_sample_mean(self):
        theta = 3.0
        mean_oracle, err = quad(lambda x: x * inv_gamma_pdf(x, theta), 0, np.inf)
        assert mean_oracle == pytest.approx(1.0 / (theta - 1.0), abs=1e-8)
        field = pm.sample_weight_field(theta, 500, 200, seed=11)
        draws = field.entries.ravel()  # 1e5 draws
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 0.5) < 4.0 * se

    def test_deterministic_and_positive(self):
        a = pm.sample_weight_field(1.0, 4, 4, seed=5)
        b = pm.sample_weight_field(1.0, 4, 4, seed=5)
        assert np.array_equal(a.entries, b.entries)
        assert np.all(a.entries > 0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            pm.sample_weight_field(-1.0, 3, 3, seed=0)
        with pytest.raises(ValueError):
            pm.sample_weight_field(1.0, 0, 3, seed=0)

    @pytest.mark.parametrize("theta", [0.0, -1.0, np.nan, np.inf])
    def test_reject_bad_theta(self, theta):
        # nan and inf used to pass `theta <= 0` and fail later without naming theta
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="theta must be positive and finite"):
                pm.sample_weight_field(theta, 3, 3, seed=0)
            with pytest.raises(ValueError, match="theta must be positive and finite"):
                pm.polymer_line_ensemble(theta, 4, 2, seed=0)


class TestSinglePath:
    def test_all_ones_two_paths(self):
        field = pm.WeightField(entries=np.ones((3, 3)), theta=1.0)
        table = pm.single_path_partition(field, 2, 2)
        assert table[-1, -1] == pytest.approx(math.log(2.0), abs=1e-14)

    def test_column_climb(self):
        field = pm.sample_weight_field(2.0, 3, 4, seed=3)
        expect = np.log(field.entries[0, :4]).sum()
        got = pm.single_path_partition(field, 1, 4)[-1, -1]
        assert got == pytest.approx(expect, rel=1e-13)

    def test_against_enumeration(self):
        field = pm.sample_weight_field(1.0, 4, 4, seed=21)
        for n in (2, 3, 4):
            for k in (1, 2, 4):
                dp = pm.single_path_partition(field, n, k)[-1, -1]
                brute = pm.tau_bruteforce(field, k, 1, n)
                assert dp == pytest.approx(brute, rel=1e-12)

    def test_out_of_range(self):
        field = pm.sample_weight_field(1.0, 3, 3, seed=0)
        with pytest.raises(ValueError):
            pm.single_path_partition(field, 5, 2)


class TestTau:
    def test_empty_family_convention(self):
        field = pm.sample_weight_field(1.0, 4, 4, seed=2)
        assert pm.tau_bruteforce(field, 3, 3, 2) == -np.inf
        assert pm.tau_lgv(field, 3, 3, 2) == -np.inf

    def test_forced_tuple_when_l_equals_k(self):
        field = pm.sample_weight_field(1.0, 3, 3, seed=7)
        expect = np.log(field.entries[:2, :2]).sum()
        assert pm.tau_bruteforce(field, 2, 2, 2) == pytest.approx(expect, rel=1e-13)
        assert pm.tau_lgv(field, 2, 2, 2) == pytest.approx(expect, rel=1e-12)

    def test_lgv_reduces_to_dp_at_l1(self):
        field = pm.sample_weight_field(0.7, 5, 4, seed=9)
        for n, k in ((3, 2), (5, 4)):
            assert pm.tau_lgv(field, k, 1, n) == pytest.approx(
                pm.single_path_partition(field, n, k)[-1, -1], rel=1e-12
            )

    def test_oracle_triangle_small(self):
        # enumeration = determinant = gRSK on 20 random fields
        for trial in range(20):
            field = pm.sample_weight_field(1.0, 5, 4, seed=4000 + trial)
            for k in range(1, 5):
                table = pm.build_partition_table(field, k, k, range(1, 6))
                for n in range(1, 6):
                    for l in range(1, min(k, n) + 1):
                        brute = pm.tau_bruteforce(field, k, l, n)
                        assert pm.tau_lgv(field, k, l, n) == pytest.approx(brute, rel=1e-9)
                        assert table.value(l, n) == pytest.approx(brute, rel=1e-9)

    def test_enumeration_guard(self):
        field = pm.sample_weight_field(1.0, 12, 12, seed=0)
        with pytest.raises(ResourceLimitError):
            pm.tau_bruteforce(field, 12, 4, 12, max_tuples=10**4)

    def test_environment_monotonicity(self):
        # raising one weight cannot decrease any partition function
        field = pm.sample_weight_field(1.0, 4, 4, seed=31)
        entries = field.entries.copy()
        entries[1, 1] *= 3.0
        bigger = pm.WeightField(entries=entries, theta=1.0)
        for (k, l, n) in ((3, 2, 4), (4, 1, 3), (2, 2, 3)):
            assert pm.tau_lgv(bigger, k, l, n) >= pm.tau_lgv(field, k, l, n)

    def test_lgv_accurate_or_raises(self):
        # the determinant oracle never returns a value off the exact one
        returned = raised = 0
        for N, seed in ((8, 1), (16, 2)):
            field = pm.sample_weight_field(1.0, 3 * N, 2 * N, seed=seed)
            for n in range(N, 3 * N + 1):
                exact = polymer_oracle.log_tau(field.entries, 2 * N, 2, n)
                try:
                    assert abs(pm.tau_lgv(field, 2 * N, 2, n) - exact) <= 1e-8
                    returned += 1
                except PrecisionError:
                    raised += 1
        assert returned and raised

    def test_exact_oracle_matches_enumeration(self):
        for seed in (0, 1):
            field = pm.sample_weight_field(1.0, 5, 4, seed=seed)
            for (k, l, n) in ((4, 2, 5), (4, 3, 4), (3, 3, 5), (4, 1, 3)):
                exact = polymer_oracle.log_tau(field.entries, k, l, n)
                assert exact == pytest.approx(pm.tau_bruteforce(field, k, l, n), rel=1e-12)


class TestGrskPass:
    def test_cut_depth_is_exact(self):
        # moves cut at depth l_max leave every tau_{k,l}, l <= l_max, bit-identical
        log_d = np.log(np.random.default_rng(3).gamma(1.0, size=(8, 6, 5)))
        full = pm._grsk_log_tau(log_d.copy(), 6)
        for l_max in range(1, 7):
            assert np.array_equal(pm._grsk_log_tau(log_d.copy(), l_max), full[:l_max])

    def test_batch_columns_are_independent_fields(self):
        fields = [pm.sample_weight_field(0.8, 6, 5, seed=s) for s in range(4)]
        batch = np.stack([f.log_entries for f in fields], axis=-1)
        log_tau = pm._grsk_log_tau(batch, 3)
        for b, f in enumerate(fields):
            table = pm.build_partition_table(f, 5, 3, range(1, 7))
            assert np.array_equal(log_tau[..., b], table.log_tau[1:])

    def test_domain_checks(self):
        field = pm.sample_weight_field(1.0, 4, 3, seed=0)
        with pytest.raises(ValueError):
            pm.build_partition_table(field, k=3, l_max=4, n_values=[4])
        with pytest.raises(ValueError):
            pm.build_partition_table(field, k=4, l_max=2, n_values=[4])
        for bad_n in ([5], [-1, 2]):
            with pytest.raises(ValueError):
                pm.build_partition_table(field, k=3, l_max=2, n_values=bad_n)
        table = pm.build_partition_table(field, k=3, l_max=3, n_values=range(0, 5))
        assert np.all(table.log_tau[0] == 0.0)
        for l in (1, 2, 3):
            for n in range(0, l):
                assert table.value(l, n) == -np.inf
            assert np.isfinite(table.value(l, l))


class TestZArray:
    def test_l1_is_tau(self):
        field = pm.sample_weight_field(1.0, 4, 3, seed=13)
        table = pm.build_partition_table(field, k=3, l_max=2, n_values=range(2, 5))
        z = pm.z_array(table, 3, range(2, 5))
        for col, n in enumerate(range(2, 5)):
            assert z[0, col] == table.value(1, n)

    def test_telescoping_exact(self):
        field = pm.sample_weight_field(1.0, 4, 4, seed=19)
        table = pm.build_partition_table(field, k=4, l_max=3, n_values=range(3, 5))
        z = pm.z_array(table, 4, range(3, 5))
        # sums of log z's reproduce log tau bit-for-bit (they are differences)
        sums = np.cumsum(z, axis=0)
        for l in (1, 2, 3):
            for col, n in enumerate(range(3, 5)):
                assert sums[l - 1, col] == pytest.approx(table.value(l, n), abs=1e-12)

    def test_ratio_against_bruteforce(self):
        field = pm.sample_weight_field(1.0, 4, 3, seed=23)
        table = pm.build_partition_table(field, k=3, l_max=2, n_values=[3])
        z = pm.z_array(table, 3, [3])
        expect = pm.tau_bruteforce(field, 3, 2, 3) - pm.tau_bruteforce(field, 3, 1, 3)
        assert z[1, 0] == pytest.approx(expect, rel=1e-9)

    def test_domain_errors(self):
        field = pm.sample_weight_field(1.0, 4, 3, seed=1)
        table = pm.build_partition_table(field, k=3, l_max=2, n_values=range(2, 5))
        with pytest.raises(ValueError):
            pm.z_array(table, 2, range(2, 5))  # wrong k
        with pytest.raises(ValueError):
            pm.z_array(table, 3, range(1, 3))  # n below l_max


class TestLineEnsemble:
    def test_top_curve_is_centered_single_path(self):
        theta, N = 1.0, 3
        ens = pm.polymer_line_ensemble(theta, N, 1, seed=77)
        field = pm.sample_weight_field(theta, 3 * N, 2 * N, seed=77)
        center = 2 * N * scaling_constants(theta).h_theta_1
        for j in (-N, 0, N):
            direct = pm.single_path_partition(field, 2 * N + j, 2 * N)[-1, -1]
            assert ens.value(1, j) == pytest.approx(direct + center, rel=1e-10, abs=1e-8)

    def test_against_bruteforce_small(self):
        theta, N = 1.0, 2
        ens = pm.polymer_line_ensemble(theta, N, 2, seed=42)
        field = pm.sample_weight_field(theta, 3 * N, 2 * N, seed=42)
        center = 2 * N * scaling_constants(theta).h_theta_1
        for j in (-2, -1, 0, 1, 2):
            for i in (1, 2):
                log_z = pm.tau_bruteforce(field, 2 * N, i, 2 * N + j)
                if i > 1:
                    log_z -= pm.tau_bruteforce(field, 2 * N, i - 1, 2 * N + j)
                assert ens.value(i, j) == pytest.approx(log_z + center, rel=1e-9, abs=1e-7)

    def test_determinism(self):
        a = pm.polymer_line_ensemble(1.0, 2, 2, seed=5)
        b = pm.polymer_line_ensemble(1.0, 2, 2, seed=5)
        assert np.array_equal(a.curves, b.curves)

    def test_interpolation_semantics(self):
        ens = pm.polymer_line_ensemble(1.0, 2, 1, seed=3)
        assert ens.value(1, 1) == ens.curves[0, 3]
        mid = 0.5 * (ens.curves[0, 2] + ens.curves[0, 3])
        assert ens.value(1, 0.5) == pytest.approx(mid, rel=1e-15)

    def test_curve_ordering_all_finite(self):
        ens = pm.polymer_line_ensemble(1.0, 4, 3, seed=8)
        assert np.all(np.isfinite(ens.curves))

    def test_batched_top_curves_match_statistics(self):
        tc = pm.sample_top_curves(1.0, 4, 50, seed=12)
        tc2 = pm.sample_top_curves(1.0, 4, 50, seed=12)
        assert tc.shape == (50, 9)
        assert np.array_equal(tc, tc2)
        # with one sample both routes draw the same field from default_rng(seed);
        # they differ only in log(1/g) against -log(g)
        for theta, N in ((1.0, 4), (0.7, 8), (2.5, 16), (1.0, 32)):
            top = pm.sample_top_curves(theta, N, 1, seed=N)[0]
            ens = pm.polymer_line_ensemble(theta, N, 1, seed=N)
            assert np.abs(top - ens.curves[0]).max() <= 1e-12

    def test_invalid_k_top(self):
        with pytest.raises(ValueError):
            pm.polymer_line_ensemble(1.0, 2, 3, seed=0)

    @pytest.mark.parametrize("N, k_top, seed", [(16, 4, 1), (32, 3, 5), (16, 2, 2)])
    def test_matches_exact_oracle(self, N, k_top, seed):
        # the paper's regime, where the double determinant loses every digit
        ens = pm.polymer_line_ensemble(1.0, N, k_top, seed=seed)
        exact = polymer_oracle.polymer_log_z(1.0, N, k_top, seed)
        center = 2 * N * scaling_constants(1.0).h_theta_1
        assert np.abs(ens.curves - center - exact).max() <= 1e-8


def reference_top_curves(theta, N, n_samples, seed):
    """The former l = 1 dynamic program of ``sample_top_curves``, one
    vectorized column update per time row: the oracle for its bit pattern."""
    rng = np.random.default_rng(seed)
    n_max, n_rows = 3 * N, 2 * N
    log_d = -np.log(rng.gamma(shape=theta, scale=1.0, size=(n_samples, n_max, n_rows)))
    out = np.empty((n_samples, 2 * N + 1))
    col = np.empty((n_samples, n_rows))
    for i in range(n_max):
        d_i = log_d[:, i, :]
        if i == 0:
            col[:] = np.cumsum(d_i, axis=1)
        else:
            col[:, 0] = d_i[:, 0] + col[:, 0]
            for j in range(1, n_rows):
                col[:, j] = d_i[:, j] + np.logaddexp(col[:, j], col[:, j - 1])
        if i + 1 >= N:
            out[:, i + 1 - N] = col[:, -1]
    return out + 2.0 * N * scaling_constants(theta).h_theta_1


def draw_chunk(N):
    """Samples per gamma draw in ``sample_top_curves`` at size N."""
    return max(1, pm.DRAW_CHUNK_BYTES // (8 * 3 * N * 2 * N))


CHUNK_EDGES = (1, draw_chunk(16) - 1, draw_chunk(16), draw_chunk(16) + 1, 3 * draw_chunk(16) + 2)


@pytest.mark.parametrize(
    "theta, N, n_samples, seed",
    [(1.0, 1, 3, 0), (1.0, 4, 50, 12), (0.7, 8, 3, 1), (2.5, 5, 1, 9), (1.0, 16, 64, 4)]
    + [(0.8, 16, n, 6) for n in CHUNK_EDGES]
    + [(1.0, 128, 3, 2)],
)
def test_top_curves_bit_identical_to_reference(theta, N, n_samples, seed):
    assert np.array_equal(
        pm.sample_top_curves(theta, N, n_samples, seed),
        reference_top_curves(theta, N, n_samples, seed),
    )


@pytest.mark.parametrize("n_samples", CHUNK_EDGES[:4])
def test_top_curves_prefix_of_larger_batch(n_samples):
    # sample b reads the b-th field of the stream, whatever the batch and chunking
    small = pm.sample_top_curves(1.0, 16, n_samples, seed=11)
    assert np.array_equal(small, pm.sample_top_curves(1.0, 16, n_samples + 7, seed=11)[:n_samples])


@pytest.mark.parametrize("theta", [0.0, -1.0, np.nan, np.inf])
def test_top_curves_reject_bad_theta(theta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # raised before any draw: no divide-by-zero on the way
        with pytest.raises(ValueError, match="theta must be positive"):
            pm.sample_top_curves(theta, 4, 10, seed=0)


def reference_grsk_log_tau(w, l_max):
    """The gRSK pass with every cell read and written back through 2-d
    indexing: an independent spelling of ``_grsk_log_tau`` and the oracle
    for its bit pattern."""
    n_max, k, n_fields = w.shape
    log_tau = np.full((l_max, n_max, n_fields), -np.inf)
    s = np.empty(n_fields)
    for i in range(n_max):
        for j in range(k):
            for q in range(min(i, j, l_max - 1) + 1):
                ii, jj = i - q, j - q
                if ii == 0:
                    if jj:
                        w[0, jj] += w[0, jj - 1]
                elif jj == 0:
                    w[ii, 0] += w[ii - 1, 0]
                else:
                    a, b, c = w[ii - 1, jj - 1], w[ii - 1, jj], w[ii, jj - 1]
                    np.logaddexp(b, c, out=s)
                    w[ii, jj] += s
                    if q + 1 < l_max:
                        np.subtract(b + c, a, out=a)
                        a -= s
        q = np.arange(min(l_max, i + 1))
        np.cumsum(w[i - q, k - 1 - q], axis=0, out=log_tau[: q.size, i])
    return log_tau


@pytest.mark.parametrize("n_fields", [1, 4])
@pytest.mark.parametrize("l_max", [1, 2, 3, 4, 5, 6])
def test_grsk_pass_bit_identical_to_reference(l_max, n_fields):
    rng = np.random.default_rng(10 * l_max + n_fields)
    # (5, 6), (3, 6) and (1, 6) have fewer time rows than l_max = 6
    for shape in ((9, 6), (5, 6), (3, 6), (1, 6), (7, 8)):
        log_d = np.log(rng.gamma(0.9, size=shape + (n_fields,)))
        w, w_ref = log_d.copy(), log_d.copy()
        assert np.array_equal(pm._grsk_log_tau(w, l_max), reference_grsk_log_tau(w_ref, l_max))
        assert np.array_equal(w, w_ref)
