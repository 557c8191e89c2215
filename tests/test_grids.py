"""Bit-identity of the grid kernels against frozen copies of their former
full-table forms.  The samplers' ``reference_*`` helpers call the same
kernels, so only these copies catch a change in the kernels' own arithmetic."""

import numpy as np
import pytest

from gibbslines import bridge as br
from gibbslines.errors import PrecisionError
from gibbslines.grids import GridDensity, inverse_cdf_rows, trapezoid_cdf


def reference_inverse_cdf_rows(x_rows, pdf_rows, u):
    """The former ``inverse_cdf_rows``: a zeroed trapezoid CDF on unit
    spacing, scaled by each row's step, and ``np.clip`` of the bin index."""
    pdf_rows = np.atleast_2d(pdf_rows)
    x_rows = np.atleast_2d(x_rows)
    step = x_rows[:, 1] - x_rows[:, 0]
    cdf = trapezoid_cdf(pdf_rows, 1.0) * step[:, None]
    total = cdf[:, -1]
    if np.any(~np.isfinite(total)) or np.any(total <= 0.0):
        raise PrecisionError("conditional density has zero or non-finite mass on its grid")
    target = np.asarray(u) * total
    k = np.clip((cdf < target[:, None]).sum(axis=1), 1, cdf.shape[1] - 1)
    rows = np.arange(cdf.shape[0])
    c_lo = cdf[rows, k - 1]
    c_hi = cdf[rows, k]
    frac = np.where(c_hi > c_lo, (target - c_lo) / np.maximum(c_hi - c_lo, 1e-300), 0.0)
    x_lo = x_rows[np.minimum(rows, x_rows.shape[0] - 1), k - 1]
    return x_lo + frac * step[np.minimum(rows, x_rows.shape[0] - 1)]


def reference_log_pdf(density, x):
    """The former ``GridDensity.log_pdf``: interpolation of the log of the
    whole table on the whole ``linspace`` grid."""
    with np.errstate(divide="ignore"):
        logv = np.log(density.values)
    return np.interp(x, density.x, logv, left=-np.inf, right=-np.inf)


def per_row_grids(rng, rows, m):
    lo = rng.normal(size=rows) * 5.0
    return lo[:, None] + np.linspace(0.0, 1.0, m)[None, :] * rng.uniform(0.1, 30.0, rows)[:, None]


def assert_draws_equal(x_rows, pdf_rows, u):
    assert np.array_equal(inverse_cdf_rows(x_rows, pdf_rows, u),
                          reference_inverse_cdf_rows(x_rows, pdf_rows, u))


class TestInverseCdfRows:
    @pytest.mark.parametrize("rows,m", [(1, 4), (7, 64), (40, 512)])
    def test_random_rows_per_row_grids(self, rows, m):
        rng = np.random.default_rng(rows * m)
        pdf = np.exp(-rng.gamma(2.0, 3.0, size=(rows, m)))
        assert_draws_equal(per_row_grids(rng, rows, m), pdf, rng.uniform(size=rows))

    def test_shared_grid(self):
        rng = np.random.default_rng(1)
        pdf = rng.uniform(size=(9, 100))
        assert_draws_equal(np.linspace(-2.0, 3.0, 100), pdf, rng.uniform(size=9))

    def test_one_row(self):
        rng = np.random.default_rng(2)
        x = np.linspace(0.0, 1.0, 33)
        for u in (0.0, 0.37, 1.0 - 2.0**-53):
            assert_draws_equal(x, rng.uniform(size=33), np.array([u]))

    def test_zero_runs_and_extreme_uniforms(self):
        rng = np.random.default_rng(3)
        m = 128
        pdf = rng.uniform(size=(6, m))
        pdf[0, :40] = 0.0
        pdf[1, 90:] = 0.0
        pdf[2, 30:70] = 0.0
        pdf[3, :] = 0.0
        pdf[3, 64] = 1.0  # one spike: two nonzero bins
        pdf[4, ::2] = 0.0
        pdf[5, 1:-1] = 0.0  # mass in the end bins only
        grids = per_row_grids(rng, 6, m)
        for u in (0.0, 5e-324, 1e-300, 1e-12, 0.5, 1.0 - 1e-12, 1.0 - 2.0**-53, 1.0):
            assert_draws_equal(grids, pdf, np.full(6, u))
        assert_draws_equal(grids, pdf, rng.uniform(size=6))

    @pytest.mark.parametrize("bad", [0.0, np.inf, np.nan])
    def test_zero_or_non_finite_mass_raises(self, bad):
        pdf = np.ones((3, 16))
        if bad == 0.0:
            pdf[1] = 0.0
        else:
            pdf[1, 5] = bad
        for fn in (inverse_cdf_rows, reference_inverse_cdf_rows):
            with pytest.raises(PrecisionError):
                fn(np.linspace(0.0, 1.0, 16), pdf, np.full(3, 0.5))


def tables():
    """Densities whose log tables hold -inf entries, plus the sampler's own
    n-step tables (n = 49 is the widest the T = 50 bridge reads)."""
    rng = np.random.default_rng(4)
    v = rng.uniform(size=50)
    v[:5] = 0.0
    v[20:23] = 0.0
    v[-1] = 0.0
    hrw = br.HrwSpec.log_gamma(1.0)
    return [
        GridDensity(-1.3, 2.9, v),
        GridDensity(0.0, 1.0, np.array([0.0, 1.0, 0.0, 2.0])),
        GridDensity(-7.0, 11.0, rng.uniform(size=1001)),
        *(br._step_density_cached(hrw, n, 512) for n in (1, 2, 49)),
    ]


@pytest.mark.parametrize("density", tables(), ids=lambda d: f"m{d.m}")
class TestLogPdf:
    def test_nodes_are_the_linspace_grid(self, density):
        assert np.array_equal(density._nodes(0, density.m - 1), density.x)

    def test_queries_on_nodes_and_bounds(self, density):
        x = density.x
        rng = np.random.default_rng(density.m)
        for q in (x, x[::7], x[3:9], np.array([density.lo]), np.array([density.hi]),
                  np.array([density.lo, density.hi]), x[rng.integers(0, x.size, 20)]):
            assert np.array_equal(density.log_pdf(q), reference_log_pdf(density, q))

    def test_queries_between_and_outside(self, density):
        rng = np.random.default_rng(density.m + 1)
        lo, hi, h = density.lo, density.hi, density.step
        cases = [
            rng.uniform(lo, hi, size=(13, 17)),
            rng.uniform(lo + 0.4 * (hi - lo), lo + 0.41 * (hi - lo), size=50),  # a narrow slice
            np.array([lo - h, lo - 1e-12, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)]),
            np.array([hi + 1e-12, hi + 3.0 * h, lo - 1e6, hi + 1e300]),
            np.array([lo - 5.0, lo + 0.5 * h, hi - 0.5 * h, hi + 5.0]),
            np.array([-np.inf, 0.5 * (lo + hi), np.inf]),
            np.array([np.nan, lo + h]),
            np.array(0.5 * (lo + hi)),
            np.array([]),
        ]
        for q in cases:
            assert np.array_equal(density.log_pdf(q), reference_log_pdf(density, q), equal_nan=True)

    def test_sampler_site_queries(self, density):
        # the sequential sampler's site: y - grids over one row per sample
        rng = np.random.default_rng(density.m + 2)
        centre = rng.uniform(density.lo, density.hi, size=8)
        q = centre[:, None] - np.linspace(0.0, 1.0, 512)[None, :] * rng.uniform(0.5, 9.0, 8)[:, None]
        assert np.array_equal(density.log_pdf(q), reference_log_pdf(density, q))
