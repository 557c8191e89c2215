import math
import resource
import tracemalloc
from dataclasses import dataclass

import numpy as np
import partition_oracle
import pytest
import transfer_oracle

from gibbslines import coupling as cp
from gibbslines import gibbs as gb
from gibbslines.bridge import BridgeSpec, HrwSpec, sample_bridges_sequential
from gibbslines.grids import GridDensity, inverse_cdf_rows, trapezoid_cdf
from gibbslines.reports import EmpiricalCDF, ks_distance, ks_two_sample_critical

HRW = HrwSpec.log_gamma(1.0)
# a tabulated H vanishing left of 1e3: never switched on, but not "zero"
IDLE = gb.Hamiltonian("tabulated", table_x=(1e3, 1e3 + 1.0, 1e3 + 2.0), table_values=(0.0, 1.0, 3.0))


# -- point order and single-site conditionals: test-side views of the fill --

@dataclass(frozen=True)
class PointOrder:
    """The lexicographic (row-major) complete order on the interior lattice
    [1, k] x [1, T-2]; successors of a point are its conditioning set during
    the reverse-order fill."""

    k: int
    t: int

    def __post_init__(self):
        if self.k < 1 or self.t < 2:
            raise ValueError("need k >= 1 and T >= 2")

    @property
    def points(self) -> tuple:
        n = self.t - 2
        return tuple((i, j) for i in range(1, self.k + 1) for j in range(1, n + 1))

    def a_set(self, point) -> frozenset:
        """Points strictly after ``point`` (already assigned when it is drawn)."""
        return frozenset(q for q in self.points if q > tuple(point))

    def b_set(self, point) -> frozenset:
        """Points strictly before ``point`` (integrated out)."""
        return frozenset(q for q in self.points if q < tuple(point))


def order_points(k, T):
    return PointOrder(k=k, t=T)


def conditional_density(
    boundary, fixed, point, T, hrw, interaction=None, m=cp.DEFAULT_COUPLING_GRID_M, window=None
):
    """Normalized conditional density of one interior lattice point given
    values on its successor set, everything before it in draw order
    integrated out by the engine's transfer sweeps."""
    eng = cp.GrandCouplingEngine(boundary, T, hrw, interaction, m, window)
    p1, p2 = point
    if set(fixed) != set(order_points(eng.k, T).a_set(point)):
        raise ValueError("assigned values must cover exactly the successor set")
    vals = np.empty((1, eng.k, T))
    vals[0, :, 0] = boundary.x_vec
    vals[0, :, -1] = boundary.y_vec
    for (i, j), v in fixed.items():
        vals[0, i - 1, j] = float(v)
    bonds = eng._bonds(np.asarray(boundary.z_vec) if p1 == eng.k else vals[:, p1])
    alphas = eng.bottom_alphas() if p1 == eng.k else eng._alphas(p1, bonds)
    beta = eng._beta_init(p1) if p1 > 1 else None
    if beta is not None:
        own = eng._bonds(vals[:, p1 - 1])
        for j in range(eng.n, p2, -1):
            beta = eng._beta_step(beta, j - 1, own[j - 2])
    dens = eng._site_values(p1, p2, *alphas[p2 - 1], beta, vals[:, p1 - 1, p2 + 1], bonds[p2 - 1])
    return GridDensity(lo=eng.lo, hi=eng.hi, values=dens[0]).normalized()


def conditional_cdf(density, s):
    """F(s) of a grid conditional density: cumulative trapezoid, normalized;
    the numeric CDF must be nondecreasing."""
    c = trapezoid_cdf(density.values, density.step)
    assert np.all(np.diff(c) >= 0.0), "non-monotone numeric CDF"
    return float(np.interp(s, density.x, c / c[-1]))


# -- per-draw reference route: one einsum per transfer step, np.interp ------

def _exp(log_values):
    with np.errstate(under="ignore"):
        return np.exp(log_values)


def _ref_alphas(eng, p1, below):
    """alpha_j for j = 1..n, rows 1..p1 free, row below pinned at ``below``."""
    grid, x, bond = eng.grid, eng.boundary.x_vec, eng.interaction.bond
    alpha = _exp(eng.hrw.log_g(grid - x[0]))
    for i in range(1, p1):
        v = _exp(eng.hrw.log_g(grid - x[i]) + bond(0).log_weight(grid - x[i - 1]))
        alpha = np.multiply.outer(alpha, v)
    alphas = [alpha / alpha.max()]
    letters = "abcdefgh"[:p1]
    uppers = letters.upper()
    for j in range(1, eng.n):
        emat = _exp(bond(j).log_weight(grid[None, :] - grid[:, None]))
        operands, script = [alphas[-1]], [letters]
        for i in range(p1):
            operands.append(eng.gmat)
            script.append(letters[i] + uppers[i])
        for i in range(p1 - 1):
            operands.append(emat)
            script.append(letters[i] + uppers[i + 1])
        operands.append(_exp(bond(j).log_weight(below[j + 1] - grid)))
        script.append(letters[p1 - 1])
        nxt = np.einsum(",".join(script) + "->" + uppers, *operands, optimize=True)
        alphas.append(nxt / nxt.max())
    return alphas


def _ref_beta_init(eng, p1):
    y, j, grid = eng.boundary.y_vec, eng.n, eng.grid
    beta = np.ones(1)
    for i in range(1, p1):
        v = _exp(eng.hrw.log_g(y[i - 1] - grid) + eng.interaction.bond(j).log_weight(y[i] - grid))
        beta = v if i == 1 else np.multiply.outer(beta, v)
    return beta / beta.max()


def _ref_beta_step(eng, beta, p1, j, s_right):
    if p1 == 1:
        return beta
    grid, bond = eng.grid, eng.interaction.bond
    q = p1 - 1
    letters = "abcdefgh"[:q]
    uppers = letters.upper()
    emat = _exp(bond(j).log_weight(grid[None, :] - grid[:, None]))
    operands, script = [beta], [uppers]
    for i in range(q):
        operands.append(eng.gmat)
        script.append(letters[i] + uppers[i])
    for i in range(q - 1):
        operands.append(emat)
        script.append(letters[i] + uppers[i + 1])
    operands.append(_exp(bond(j).log_weight(s_right - grid)))
    script.append(letters[q - 1])
    nxt = np.einsum(",".join(script) + "->" + letters, *operands, optimize=True)
    return nxt / nxt.max()


def per_draw_sample(eng, omega):
    """One draw by the per-site reverse-lexicographic fill: the reference
    for the batched ``GrandCouplingEngine.sample``."""
    k, n, grid = eng.k, eng.n, eng.grid
    vals = np.empty((k, eng.T))
    vals[:, 0] = eng.boundary.x_vec
    vals[:, -1] = eng.boundary.y_vec
    order = [(i, j) for i in range(1, k + 1) for j in range(1, n + 1)]
    for p1 in range(k, 0, -1):
        below = np.asarray(eng.boundary.z_vec) if p1 == k else vals[p1]
        alphas = _ref_alphas(eng, p1, below)
        beta = _ref_beta_init(eng, p1)
        for p2 in range(n, 0, -1):
            u = _exp(
                eng.hrw.log_g(vals[p1 - 1, p2 + 1] - grid)
                + eng.interaction.bond(p2).log_weight(below[p2 + 1] - grid)
            )
            alpha = alphas[p2 - 1]
            if p1 == 1:
                dens = alpha * u
            else:
                sub = "abcdefgh"[: p1 - 1]
                dens = np.einsum(sub + "x," + sub + "->x", alpha, beta, optimize=True) * u
            cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]))])
            vals[p1 - 1, p2] = np.interp(omega[order.index((p1, p2))], cdf / cdf[-1], grid)
            if p2 > 1:
                beta = _ref_beta_step(eng, beta, p1, p2 - 1, vals[p1 - 1, p2])
    return vals


def free_boundary(k, T, x=None, y=None):
    x = x if x is not None else [0.0] * k
    y = y if y is not None else [0.0] * k
    return cp.BoundaryTriple(x, y, [-np.inf] * T)


class TestPointOrder:
    def test_single_curve(self):
        po = order_points(1, 4)
        assert po.points == ((1, 1), (1, 2))

    def test_two_curves(self):
        po = order_points(2, 3)
        assert po.points == ((1, 1), (2, 1))

    def test_partition_identity(self):
        po = order_points(2, 5)
        total = len(po.points)
        for p in po.points:
            assert len(po.a_set(p)) + len(po.b_set(p)) + 1 == total
            assert po.a_set(p) & po.b_set(p) == frozenset()


class TestConditionalDensity:
    def test_zero_interaction_single_point(self):
        # T=3, k=1: the only interior point has density G(u - x) G(y - u)
        b = free_boundary(1, 3, [0.2], [1.0])
        dens = conditional_density(
            b, {}, (1, 1), 3, HRW, gb.InteractionSpec.zero(0, 2), m=512
        )
        u = dens.x
        expect = np.exp(HRW.log_g(u - 0.2) + HRW.log_g(1.0 - u))
        expect /= np.trapezoid(expect, dx=dens.step)
        assert np.max(np.abs(dens.values - expect)) < 1e-6

    def test_matches_mcmc_marginal(self):
        # cross-module oracle: normalized h vs single-site Gibbs marginal
        k, T = 2, 4
        b = cp.BoundaryTriple([1.5, 0.0], [1.5, 0.0], [-2.0] * T)
        spec = gb.EnsembleSpec.make(
            1, k, 0, T - 1, b.x_vec, b.y_vec, HRW, gb.InteractionSpec.exp(0, T - 1),
            g=b.z_vec,
        )
        rng = np.random.default_rng(0)
        chains = gb.sample_ensembles_mcmc(spec, 4000, 60, rng, m=256)
        # bottom-right interior point (2, T-2) has empty successor set
        dens = conditional_density(b, {}, (2, T - 2), T, HRW, m=512)
        draws = dens.sample(np.random.default_rng(1), 4000)
        d = ks_distance(EmpiricalCDF(chains[:, 1, T - 2]), EmpiricalCDF(draws))
        assert d < 0.05

    def test_refinement_stability(self):
        b = cp.BoundaryTriple([0.5], [1.0], [-1.0] * 4)
        window = (-14.0, 15.0)
        d1 = conditional_density(b, {(1, 2): 0.7}, (1, 1), 4, HRW, m=1024, window=window)
        d2 = conditional_density(b, {(1, 2): 0.7}, (1, 1), 4, HRW, m=2048, window=window)
        u = np.linspace(-5, 6, 500)
        c1 = np.array([conditional_cdf(d1, s) for s in u])
        c2 = np.array([conditional_cdf(d2, s) for s in u])
        assert np.max(np.abs(c1 - c2)) <= 1e-4

    def test_wrong_conditioning_set(self):
        b = free_boundary(1, 4)
        with pytest.raises(ValueError):
            conditional_density(b, {(1, 1): 0.0}, (1, 2), 4, HRW)


class TestConditionalCdf:
    def test_bijective_range(self):
        b = free_boundary(1, 3, [0.0], [0.5])
        dens = conditional_density(b, {}, (1, 1), 3, HRW, m=512)
        assert conditional_cdf(dens, dens.lo) <= 1e-10
        assert conditional_cdf(dens, dens.hi) >= 1.0 - 1e-10
        # strictly increasing wherever the density carries non-negligible mass
        # (below ~1e-12 of the peak the float cumulative sum cannot resolve it)
        grid_cdf = dens.cdf_values()
        tiny = dens.values.max() * 1e-12
        interior = (dens.values[:-1] > tiny) & (dens.values[1:] > tiny)
        assert np.all(np.diff(grid_cdf)[interior] > 0.0)

    def test_median(self):
        b = free_boundary(1, 3, [0.0], [0.5])
        dens = conditional_density(b, {}, (1, 1), 3, HRW, m=512)
        med = dens.ppf(0.5)
        assert conditional_cdf(dens, med) == pytest.approx(0.5, abs=1e-6)

    def test_symmetric_density(self):
        x = np.linspace(-3, 3, 601)
        dens = GridDensity(lo=-3.0, hi=3.0, values=np.exp(-(x**2))).normalized()
        assert conditional_cdf(dens, 0.0) == pytest.approx(0.5, abs=1e-6)


class TestGrandCouplingSample:
    def test_t2_deterministic(self):
        b = cp.BoundaryTriple([1.0, 0.0], [2.0, -1.0], [-np.inf, -np.inf])
        ens = cp.grand_coupling_sample(b, np.empty(0), 2, 2, HRW)
        assert ens.curves.tolist() == [[1.0, 2.0], [0.0, -1.0]]

    def test_zero_interaction_free_bridge_law(self):
        T = 5
        b = free_boundary(1, T, [0.0], [1.0])
        zero = gb.InteractionSpec.zero(0, T - 1)
        eng = cp.GrandCouplingEngine(b, T, HRW, zero, m=512)
        rng = np.random.default_rng(2)
        draws = eng.sample(rng.uniform(size=(4000, T - 2)))
        free = sample_bridges_sequential(BridgeSpec(0, T - 1, 0.0, 1.0, HRW), 4000, rng)
        for t in (1, 2, 3):
            d = ks_distance(EmpiricalCDF(draws[:, 0, t]), EmpiricalCDF(free[:, t]))
            assert d < max(0.05, ks_two_sample_critical(4000, 4000))

    def test_law_matches_rejection_sampler(self):
        k, T = 2, 5
        b = cp.BoundaryTriple([2.0, 0.0], [3.0, 1.0], [-1.5] * T)
        spec = gb.EnsembleSpec.make(
            1, k, 0, T - 1, b.x_vec, b.y_vec, HRW, gb.InteractionSpec.exp(0, T - 1),
            g=b.z_vec,
        )
        rng = np.random.default_rng(3)
        eng = cp.GrandCouplingEngine(b, T, HRW, m=256)
        draws = eng.sample(rng.uniform(size=(3000, k * (T - 2))))
        rej, _ = gb.sample_ensembles_rejection(spec, 3000, rng)
        worst = 0.0
        for i in (0, 1):
            for t in (1, 2, 3):
                worst = max(
                    worst, ks_distance(EmpiricalCDF(draws[:, i, t]), EmpiricalCDF(rej[:, i, t]))
                )
        assert worst < 0.05

    def test_omega_validation(self):
        b = free_boundary(1, 4)
        with pytest.raises(ValueError):
            cp.grand_coupling_sample(b, np.array([0.5]), 1, 4, HRW)
        with pytest.raises(ValueError):
            cp.grand_coupling_sample(b, np.array([0.5, 1.0]), 1, 4, HRW)

    @pytest.mark.parametrize(
        "omega",
        [
            np.full((3, 3), 0.5),  # wrong trailing length
            np.full((2, 3, 4), 0.5),  # ndim > 2
            np.array(0.5),  # ndim 0
            np.array([[0.2, 0.3, 0.4, 0.5], [0.2, 0.3, 1.0, 0.5]]),  # a later row hits 1
            np.array([[0.2, 0.3, 0.4, 0.5], [0.0, 0.3, 0.4, 0.5]]),  # a later row hits 0
            np.array([[0.2, 0.3, 0.4, 0.5], [0.2, np.nan, 0.4, 0.5]]),
        ],
    )
    def test_batch_validation(self, omega):
        eng = cp.GrandCouplingEngine(free_boundary(2, 4), 4, HRW)
        with pytest.raises(ValueError):
            eng.sample(omega)

    def test_empty_batch(self):
        eng = cp.GrandCouplingEngine(free_boundary(2, 4), 4, HRW)
        assert eng.sample(np.empty((0, 4))).shape == (0, 2, 4)
        eng2 = cp.GrandCouplingEngine(free_boundary(2, 2), 2, HRW)
        out = eng2.sample(np.empty((3, 0)))
        assert out.shape == (3, 2, 2) and np.all(out[:, :, 0] == 0.0)


class TestBatchedSample:
    @pytest.mark.parametrize(
        "k,T,z,interaction",
        [
            (k, T, z, interaction)
            for k in (1, 2)
            for T in (2, 3, 5, 6)
            for z in (-np.inf, -1.5)
            for interaction in ("exp", "zero")
        ]
        + [(3, 4, -3.5, "exp")],
    )
    def test_matches_per_draw_reference(self, k, T, z, interaction):
        b = cp.BoundaryTriple([1.0, -0.5, -2.0][:k], [1.5, 0.0, -1.5][:k], [z] * T)
        inter = getattr(gb.InteractionSpec, interaction)(0, T - 1)
        eng = cp.GrandCouplingEngine(b, T, HRW, inter)
        omega = np.random.default_rng(10 * k + T).uniform(size=(5, k * (T - 2)))
        batched = eng.sample(omega)
        ref = np.array([per_draw_sample(eng, om) for om in omega])
        assert batched.shape == (5, k, T)
        assert np.max(np.abs(batched - ref)) <= 1e-12
        assert np.array_equal(eng.sample(omega[0]), batched[0])

    def test_draw_independent_of_batch(self):
        # vector x matrix products run in blocks of BLOCK_ROWS rows: batch
        # sizes around one block, and past the m = 256 chunk of draws
        T, P = 16, cp.BLOCK_ROWS
        b = cp.BoundaryTriple([0.0, -2.0], [0.0, -2.0], [-4.0] * T)
        eng = cp.GrandCouplingEngine(b, T, HRW)
        omega = np.random.default_rng(11).uniform(size=(300, 2 * (T - 2)))
        full = eng.sample(omega)
        assert np.array_equal(np.array([eng.sample(om) for om in omega]), full)
        assert np.array_equal(np.array([eng.sample(om[None])[0] for om in omega[:P]]), full[:P])
        for size in (1, P - 1, P, P + 1, 2 * P + 3, 300):
            start = min(7, 300 - size)
            part = slice(start, start + size)
            assert np.array_equal(eng.sample(omega[part]), full[part])
            assert np.array_equal(eng.sample(omega[part][::-1]), full[part][::-1])

    @pytest.mark.parametrize("k,T", [(1, 6), (2, 16)])
    def test_flush_changes_nothing(self, k, T, monkeypatch):
        # operands flushed below TINY of their peak, or not flushed at all
        b = cp.BoundaryTriple([-2.0 * i for i in range(k)], [0.5 - 2.0 * i for i in range(k)],
                              [-2.0 * k] * T)
        omega = np.random.default_rng(15).uniform(size=(20, k * (T - 2)))
        flushed = cp.GrandCouplingEngine(b, T, HRW).sample(omega)
        monkeypatch.setattr(cp, "TINY", 0.0)
        assert np.max(np.abs(cp.GrandCouplingEngine(b, T, HRW).sample(omega) - flushed)) <= 1e-12

    def test_batch_larger_than_grid(self):
        # 300 draws at m = 256 are filled in two chunks
        T = 5
        eng = cp.GrandCouplingEngine(cp.BoundaryTriple([0.5], [1.0], [-1.0] * T), T, HRW, m=256)
        omega = np.random.default_rng(12).uniform(size=(300, T - 2))
        full = eng.sample(omega)
        assert np.array_equal(eng.sample(omega[200:300]), full[200:300])
        assert np.array_equal(eng.sample(omega[::-1]), full[::-1])
        assert np.array_equal(np.array([eng.sample(om) for om in omega]), full)


class TestBondMatrices:
    def test_equal_bonds_share_one_matrix(self):
        T = 16
        eng = cp.GrandCouplingEngine(free_boundary(2, T), T, HRW)
        eng.sample(np.random.default_rng(13).uniform(size=(3, 2 * (T - 2))))
        diff = eng.grid[None, :] - eng.grid[:, None]
        mats = [eng._emat(j) for j in range(T - 1)]
        assert len(eng._emats) == 1
        assert all(mat is mats[0] for mat in mats)
        assert np.array_equal(mats[0], eng._w(1, diff))

    def test_one_matrix_per_distinct_hamiltonian(self):
        T = 8
        kinds = [gb.Hamiltonian("exp"), gb.Hamiltonian("zero")]
        inter = gb.InteractionSpec(0, T - 1, tuple(kinds[j % 2] for j in range(T - 1)))
        eng = cp.GrandCouplingEngine(free_boundary(2, T), T, HRW, inter)
        eng.sample(np.random.default_rng(14).uniform(size=(3, 2 * (T - 2))))
        diff = eng.grid[None, :] - eng.grid[:, None]
        assert len(eng._emats) == 2
        for j in range(T - 1):
            assert np.array_equal(eng._emat(j), eng._w(j, diff))

    def test_tabulated_bonds_are_keys(self):
        # tables given as arrays or lists are stored as tuples: equal tables hash equal
        x = np.linspace(-1.0, 2.0, 5)
        h1 = gb.Hamiltonian("tabulated", table_x=x, table_values=(x + 1.0) ** 2)
        h2 = gb.Hamiltonian("tabulated", table_x=list(x), table_values=tuple((x + 1.0) ** 2))
        assert h1 == h2 and len({h1, h2}) == 1
        T = 5
        inter = gb.InteractionSpec(0, T - 1, (h1, h2) * 2)
        eng = cp.GrandCouplingEngine(free_boundary(2, T), T, HRW, inter)
        assert eng._emat(1) is eng._emat(2)
        assert np.array_equal(eng._emat(2), eng._w(2, eng.grid[None, :] - eng.grid[:, None]))


def _stack(support, n_axes, m, rng):
    """A flushed one-draw stack whose nonzero entries span ``support``."""
    x = np.zeros((1,) + (m,) * n_axes)
    if support == "box":  # a random box, entries over 300 decades, some zeros inside
        box = (0,) + tuple(slice(*np.sort(rng.choice(m + 1, 2, replace=False))) for _ in range(n_axes))
        vals = 10.0 ** rng.uniform(-300.0, 0.0, x[box].shape)
        x[box] = np.where(rng.uniform(size=vals.shape) < 0.2, 0.0, vals)
    elif support == "full-width":
        x[0] = rng.uniform(0.5, 1.0, x.shape[1:])
    elif support == "one-entry":
        x[(0,) + tuple(rng.integers(m, size=n_axes))] = 0.7
    else:  # one nonzero row of the first grid axis
        x[0, m // 3] = rng.uniform(size=x.shape[2:])
    return cp._flush(x)


def _bottom_row_checks(eng):
    """The engine's stored bottom-row alphas, expanded, equal the untrimmed
    sweep's."""
    bonds = eng._bonds(np.asarray(eng.boundary.z_vec))
    want = [a for a, _, _ in transfer_oracle.forward(eng, eng.boundary.x_vec, bonds)]
    got = eng.bottom_alphas()
    assert len(got) == len(want)
    for (alpha, box), full in zip(got, want):
        assert np.array_equal(cp._expanded(alpha, box, eng.m), full)


class TestNonzeroBox:
    @pytest.mark.parametrize("support", ["box", "full-width", "one-entry", "one-row"])
    @pytest.mark.parametrize("n_axes,m", [(1, 256), (2, 256), (3, 64)])
    def test_box_contraction_is_the_full_contraction(self, n_axes, m, support):
        # from the whole grid, and from the stack held over its own box
        rng = np.random.default_rng(20 + n_axes)
        gmat = cp._increment_matrix(HRW, np.linspace(-30.0, 15.0, m))
        bands = cp._bands(gmat)
        whole = (slice(None),) + (slice(0, m),) * n_axes
        for trial in range(4):
            x = _stack(support, n_axes, m, rng)
            nonzero, axes = x[0] != 0.0, range(n_axes)
            held = (slice(None),) + tuple(
                cp._span(nonzero.any(tuple(a for a in axes if a != i))) for i in axes
            )
            for axis in range(n_axes):
                full = transfer_oracle.contract(x.copy(), gmat, axis)
                for box in (whole, held):
                    bufs = [np.empty(m**n_axes), np.empty(m**n_axes)]
                    prod, out = cp._contract_box(x[box].copy(), box, gmat, bands, axis, bufs)
                    assert np.array_equal(cp._expanded(prod, out, m), full)

    @pytest.mark.parametrize("k,T,n_draws", [(1, 8, 20), (2, 8, 20), (3, 4, 6)])
    def test_engine_draws_match_untrimmed_route(self, k, T, n_draws, monkeypatch):
        b = cp.BoundaryTriple([-2.0 * i for i in range(k)], [0.5 - 2.0 * i for i in range(k)],
                              [-2.0 * k] * T)
        omega = np.random.default_rng(30 + k).uniform(size=(n_draws, k * (T - 2)))
        eng = cp.GrandCouplingEngine(b, T, HRW)
        _bottom_row_checks(eng)
        trimmed = eng.sample(omega)
        transfer_oracle.untrimmed(monkeypatch, cp)
        assert np.array_equal(cp.GrandCouplingEngine(b, T, HRW).sample(omega), trimmed)

    def test_couple_configuration_matches_untrimmed_route(self, monkeypatch):
        # `gibbslines couple --k 2 --t 16 --raise-by 0.5`, 50 draws
        T = 16
        b = cp.BoundaryTriple([0.0, -2.0], [0.0, -2.0], [-4.0] * T)
        pair = (b, b.shifted(0.5))
        window = cp.default_window(pair, T, HRW)
        omega = np.random.default_rng(31).uniform(size=(50, 2 * (T - 2)))

        def engines():
            return [cp.GrandCouplingEngine(c, T, HRW, None, 256, window) for c in pair]

        trimmed = []
        for eng in engines():
            _bottom_row_checks(eng)
            trimmed.append(eng.sample(omega))
        transfer_oracle.untrimmed(monkeypatch, cp)
        for eng, want in zip(engines(), trimmed):
            assert np.array_equal(eng.sample(omega), want)

    @pytest.mark.parametrize("k,m", [(2, 256), (3, 64)])
    def test_log_partition_matches_untrimmed_route(self, k, m, monkeypatch):
        T = 6
        low = -1.5 * k - 0.5
        bounds = dict(f=[1.2 + 0.1 * t for t in range(T + 1)], g=[low] * (T + 1))
        tab = gb.Hamiltonian("tabulated", table_x=(-1.0, 0.0, 1.0, 2.0),
                             table_values=(0.0, 0.5, 2.0, 4.5))
        mixed = (tab, gb.Hamiltonian("exp")) * (T // 2)
        specs = [
            _ladder(k, T, gb.InteractionSpec.exp(0, T), **bounds),
            _ladder(k, T, gb.InteractionSpec(0, T, (IDLE,) * T), **bounds),
            _ladder(k, T, gb.InteractionSpec(0, T, mixed), **bounds),
        ]
        trimmed = [cp.log_partition(spec, m) for spec in specs]
        transfer_oracle.untrimmed(monkeypatch, cp)
        assert [cp.log_partition(spec, m) for spec in specs] == trimmed

    @pytest.mark.parametrize("m", [512, 1024])
    def test_larger_grids_within_per_draw_bound(self, m, monkeypatch):
        # past m = 256 a trimmed sum can round in other blocks: ulps, not bits
        T = 6
        b = cp.BoundaryTriple([0.0, -2.0], [0.5, -1.5], [-4.0] * T)
        spec = _ladder(2, T, gb.InteractionSpec.exp(0, T), g=[-3.5] * (T + 1))
        omega = np.random.default_rng(32).uniform(size=(10, 2 * (T - 2)))
        draws = cp.GrandCouplingEngine(b, T, HRW, m=m).sample(omega)
        log_z = cp.log_partition(spec, m)
        transfer_oracle.untrimmed(monkeypatch, cp)
        assert np.max(np.abs(cp.GrandCouplingEngine(b, T, HRW, m=m).sample(omega) - draws)) <= 1e-12
        assert cp.log_partition(spec, m) == pytest.approx(log_z, rel=1e-12)

    def test_bottom_row_sweep_allocates_its_boxes_and_a_few_buffers(self, capsys):
        # the `couple` configuration: the stored boxes, two reused m^k buffers
        # and smaller temporaries; alphas stored whole, or one more m^k array
        # alive beside the buffers, exceed the bound
        T, m = 16, 256
        b = cp.BoundaryTriple([0.0, -2.0], [0.0, -2.0], [-4.0] * T)
        window = cp.default_window((b, b.shifted(0.5)), T, HRW)
        eng = cp.GrandCouplingEngine(b, T, HRW, None, m, window)
        eng.gmat, eng._emat(1)  # the kernel is built outside the sweep
        tracemalloc.start()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        try:
            alphas = eng.bottom_alphas()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        stored = sum(alpha.nbytes for alpha, _ in alphas)
        assert stored < 0.6 * len(alphas) * m * m * 8
        assert peak <= stored + 3 * m * m * 8
        with capsys.disabled():  # page faults vary by host: reported, not asserted
            print(f"\nbottom-row sweep: peak {peak / 1e6:.2f} MB, stored {stored / 1e6:.2f} MB, "
                  f"{faults} page faults")


# increment laws and grid windows whose increment matrices have bands of
# every shape: the couple window, a two-sided band (both tails vanish), a
# bounded support off the diagonal, and no zeros at all
TENT_X = np.linspace(0.25, 3.0, 12)  # a support off the diagonal: gmat[a, a] = 0
BAND_LAWS = {
    "log-gamma-0.5": (HrwSpec.log_gamma(0.5), (-30.0, 15.0)),
    "log-gamma-1": (HRW, (-59.4, 55.9)),
    "log-gamma-3": (HrwSpec.log_gamma(3.0), (-30.0, 15.0)),
    "gaussian": (HrwSpec.gaussian_test(), (-40.0, 40.0)),
    "tabulated": (HrwSpec.tabulated(TENT_X, np.sin(np.linspace(0.0, np.pi, 12))), (-10.0, 10.0)),
    "wide-window": (HRW, (-250.0, 250.0)),
    "no-zeros": (HRW, (-2.0, 2.0)),
}


def _banded_matrices(law, m):
    hrw, window = BAND_LAWS[law]
    gmat = cp._increment_matrix(hrw, np.linspace(*window, m))
    band, band_t, _ = cp._bands(gmat)
    return [(gmat, band), (gmat.T, band_t)]


def _assert_products_agree(got, want, m):
    # one BLAS block holds a contracted length of 256: the same sums, bit
    # for bit; past it a shorter contraction may block elsewhere
    if m <= 256:
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestBand:
    @pytest.mark.parametrize("law", BAND_LAWS)
    def test_band_holds_every_nonzero(self, law):
        m = 256
        for mat, band in _banded_matrices(law, m):
            # blocks tile the columns, on multiples of BAND_COLS (neighbours
            # over the same rows are one block)
            edges = [cols.start for cols, _ in band] + [band[-1][0].stop]
            assert edges[0] == 0 and edges[-1] == m and all(np.diff(edges) > 0)
            assert all(e % cp.BAND_COLS == 0 for e in edges)
            assert all(a[1] != b[1] for a, b in zip(band, band[1:]))
            for cols, rows in band:
                outside = np.ones(m, bool)
                outside[rows] = False
                assert not mat[outside, cols].any()
                assert rows.start % cp.BOX_QUANTUM == 0
                assert rows.stop % cp.BOX_QUANTUM == 0 or rows.stop == m
        gmat_band = _banded_matrices(law, m)[0][1]
        assert (gmat_band == [(slice(0, m), slice(0, m))]) == (law == "no-zeros")
        if law in ("gaussian", "tabulated", "wide-window"):  # rows cut on both sides
            assert any(rows.start > 0 for _, rows in gmat_band)
            assert any(rows.stop < m for _, rows in gmat_band)

    @pytest.mark.parametrize("law", BAND_LAWS)
    @pytest.mark.parametrize("n_axes,m", [(1, 256), (2, 256), (3, 64)])
    def test_banded_products_are_the_full_products(self, law, n_axes, m):
        rng = np.random.default_rng(40 + n_axes)
        stacks = [_stack(support, n_axes, m, rng) for support in ("box", "full-width", "one-row")]
        stacks.append(cp._flush(10.0 ** rng.uniform(-300.0, 0.0, (5,) + (m,) * n_axes)))
        for mat, band in _banded_matrices(law, m):
            for x in stacks:
                for axis in range(n_axes):
                    want = transfer_oracle.contract(x.copy(), mat, axis)
                    assert np.array_equal(cp._contract(x.copy(), mat, axis, band), want)

    @pytest.mark.parametrize("law", BAND_LAWS)
    def test_banded_box_contraction_is_the_full_contraction(self, law):
        # on the increment matrix as the sweep passes it (with the transposed
        # one, a box 16 rows high moved by ulps: other small-gemm kernels);
        # the output box is the span of the columns the input rows reach
        m, rng = 256, np.random.default_rng(44)
        whole = (slice(None), slice(0, m), slice(0, m))
        mat = _banded_matrices(law, m)[0][0]
        bands = cp._bands(mat)
        for _ in range(3):
            for support in ("box", "full-width", "one-entry", "one-row"):
                x = _stack(support, 2, m, rng)
                for axis in range(2):
                    bufs = [np.empty(m * m), np.empty(m * m)]
                    prod, out = cp._contract_box(x.copy(), whole, mat, bands, axis, bufs)
                    full = transfer_oracle.contract(x.copy(), mat, axis)
                    assert np.array_equal(cp._expanded(prod, out, m), full)
                    rows = cp._span(x[0].any(axis=1 - axis))
                    assert out[axis + 1] == cp._span(mat[rows].any(axis=0))

    @pytest.mark.parametrize("m", [512, 1024])
    @pytest.mark.parametrize("law", ["log-gamma-1", "gaussian"])
    def test_larger_grids_within_bound(self, law, m):
        rng = np.random.default_rng(45)
        stacks = [cp._flush(rng.uniform(size=(6, m))), _stack("box", 2, m, rng)]
        for mat, band in _banded_matrices(law, m):
            for x in stacks:
                for axis in range(x.ndim - 1):
                    want = transfer_oracle.contract(x.copy(), mat, axis)
                    _assert_products_agree(cp._contract(x.copy(), mat, axis, band), want, m)


def _site_densities(support, m, rng, n=50):
    """Site densities (n x m, peak 1 per row) whose nonzeros span ``support``."""
    dens = np.zeros((n, m))
    if support == "interior":
        for row, (lo, hi) in zip(dens, np.sort(rng.integers(40, m - 40, (n, 2)), axis=1)):
            row[lo : hi + 1] = rng.uniform(size=hi + 1 - lo)
    elif support == "left-end":
        dens[:, :37] = rng.uniform(size=(n, 37))
    elif support == "right-end":
        dens[:, m - 23 :] = rng.uniform(size=(n, 23))
    elif support == "both-ends":
        dens[:] = rng.uniform(size=(n, m))
    elif support == "sparse":  # scattered entries over 300 decades, zeros inside
        kept = rng.uniform(size=(n, 80)) < 0.5
        dens[:, 60:140] = 10.0 ** rng.uniform(-300.0, 0.0, (n, 80)) * kept
        dens[:, 100] += 1.0
    else:  # one column
        dens[:, int(support)] = 1.0
    return dens / dens.max(axis=1, keepdims=True)


class TestSiteSpan:
    @pytest.mark.parametrize("support", ["interior", "left-end", "right-end", "both-ends", "sparse",
                                         "0", "1", "120", "254", "255"])
    def test_draws_over_the_span_are_the_whole_grid_draws(self, support):
        m = 256
        rng = np.random.default_rng(46)
        grid = np.linspace(-59.4, 55.9, m)
        dens = _site_densities(support, m, rng)
        u = np.concatenate([rng.uniform(size=dens.shape[0] - 3), [1e-300, 0.5, 1.0 - 2.0**-53]])
        cols = cp._site_span(dens)
        nonzero = np.flatnonzero(dens.any(axis=0))
        assert cols.start % cp.BOX_QUANTUM == 0
        assert cols.stop % cp.BOX_QUANTUM == 0 or cols.stop == m
        assert cols.start == 0 or cols.start < nonzero[0]
        assert cols.stop == m or cols.stop > nonzero[-1] + 1
        got = inverse_cdf_rows(grid[cols], dens[:, cols], u, step=grid[1] - grid[0])
        assert np.array_equal(got, inverse_cdf_rows(grid, dens, u))

    @pytest.mark.parametrize("k,T", [(1, 8), (2, 8)])
    def test_engine_draws_match_whole_grid_draws(self, k, T, monkeypatch):
        b = cp.BoundaryTriple([-2.0 * i for i in range(k)], [0.5 - 2.0 * i for i in range(k)],
                              [-2.0 * k] * T)
        omega = np.random.default_rng(47).uniform(size=(20, k * (T - 2)))
        spanned = cp.GrandCouplingEngine(b, T, HRW).sample(omega)
        monkeypatch.setattr(cp, "_site_span", lambda dens: slice(0, dens.shape[1]))
        assert np.array_equal(cp.GrandCouplingEngine(b, T, HRW).sample(omega), spanned)


class TestOneKernelPerWindow:
    def test_engines_on_one_window_share_their_matrices(self):
        T = 6
        boundaries = [cp.BoundaryTriple([0.0, -2.0], [0.5, -1.5], [-4.0] * T).shifted(d)
                      for d in (0.0, 0.25, 0.5)]
        window = cp.default_window(boundaries, T, HRW)
        omega = np.random.default_rng(33).uniform(size=(8, 2 * (T - 2)))
        engines = list(cp._engines(boundaries, T, HRW, None, 256, window))
        for eng, b in zip(engines, boundaries):
            assert eng.gmat is engines[0].gmat and eng._emats is engines[0]._emats
            assert eng.bands is engines[0].bands
            alone = cp.GrandCouplingEngine(b, T, HRW, None, 256, window)
            assert np.array_equal(eng.sample(omega), alone.sample(omega))
        assert len(engines[0]._emats) == 1

    def test_checks_build_one_increment_matrix(self, monkeypatch):
        T = 6
        b = cp.BoundaryTriple([0.0, -2.0], [0.5, -1.5], [-4.0] * T)
        window = cp.default_window([b, b.shifted(0.5)], T, HRW)
        omega = np.random.default_rng(34).uniform(size=(8, 2 * (T - 2)))

        def alone(c, om):
            return cp.GrandCouplingEngine(c, T, HRW, None, 256, window).sample(om)

        want_gaps = (alone(b, omega) - alone(b.shifted(0.5), omega)).max(axis=(1, 2))
        want_changes = [float(np.abs(alone(b.shifted(d), omega[0]) - alone(b, omega[0])).max())
                        for d in (0.5, 0.25, 0.125)]
        built = []
        increment_matrix = cp._increment_matrix
        monkeypatch.setattr(cp, "_increment_matrix", lambda *a: built.append(a) or increment_matrix(*a))
        gaps, _ = cp.coupled_gaps(b, b.shifted(0.5), omega, T, HRW, None, 256)
        assert len(built) == 1 and np.array_equal(gaps, want_gaps)
        rep = cp.continuity_check(b, 0.5, omega[0], 2, T, HRW, halvings=2)
        assert len(built) == 2
        assert [rep[f"sup_change_delta_{i}"][0] for i in range(3)] == want_changes

    def test_acceptance_probability_builds_one_increment_matrix(self, monkeypatch):
        # the joint sweep and the free one-curve sweeps share one matrix
        spec = _ladder(2, 8, gb.InteractionSpec.exp(0, 8), g=[-3.5] * 9)
        built = []
        increment_matrix = cp._increment_matrix
        monkeypatch.setattr(cp, "_increment_matrix", lambda *a: built.append(a) or increment_matrix(*a))
        z = gb.acceptance_probability(spec)
        assert len(built) == 1
        assert z == partition_oracle.acceptance_probability(spec, cp.DEFAULT_COUPLING_GRID_M)


def _ladder(k, T, interaction, hrw=HRW, f=None, g=None):
    x = [-1.5 * i for i in range(k)]
    y = [0.5 - 1.5 * i for i in range(k)]
    return gb.EnsembleSpec.make(1, k, 0, T, x, y, hrw, interaction, f=f, g=g)


class TestLogPartition:
    @pytest.mark.parametrize("T", [1, 3, 8])
    def test_free_gaussian_bridges(self, T):
        # the T-step Gaussian increment is N(0, T): Z_0 in closed form
        spec = _ladder(2, T, gb.InteractionSpec.zero(0, T), hrw=HrwSpec.gaussian_test())
        d = np.asarray(spec.y_vec) - np.asarray(spec.x_vec)
        exact = float(np.sum(-d**2 / (2.0 * T) - 0.5 * np.log(2.0 * np.pi * T)))
        assert cp.log_partition(spec) == pytest.approx(exact, abs=1e-10)

    @pytest.mark.parametrize("k,m", [(2, 256), (3, 64)])
    def test_joint_sweep_with_idle_bonds_is_independent_curves(self, k, m):
        # idle bonds are not "zero", so this sweep runs over the joint state
        T = 6
        joint = _ladder(k, T, gb.InteractionSpec(0, T, (IDLE,) * T))
        free = _ladder(k, T, gb.InteractionSpec.zero(0, T))
        assert cp.log_partition(joint, m) == pytest.approx(cp.log_partition(free, m), rel=1e-12)

    def test_top_boundary_mirrors_bottom_boundary(self):
        # negating the heights, reversing time and turning the rows upside
        # down maps the bond L_{i+1}(t+1) - L_i(t) to itself and the
        # increment law to itself: a top curve f becomes a bottom curve -f
        T = 6
        f = [1.0, 1.4, 0.9, 1.6, 1.2, 1.1, 1.3]
        spec = _ladder(2, T, gb.InteractionSpec.exp(0, T), f=f)
        mirror = gb.EnsembleSpec.make(
            1, 2, 0, T, [-v for v in spec.y_vec[::-1]], [-v for v in spec.x_vec[::-1]],
            HRW, gb.InteractionSpec.exp(0, T), g=[-v for v in f[::-1]],
        )
        assert cp.log_partition(spec) == pytest.approx(cp.log_partition(mirror), rel=1e-10)
        assert gb.acceptance_probability(spec) == pytest.approx(
            gb.acceptance_probability(mirror), rel=1e-10
        )

    @pytest.mark.parametrize("T", [1, 6])
    @pytest.mark.parametrize("k,m", [(1, 256), (2, 256), (3, 64)])
    def test_matches_frozen_reference(self, k, m, T):
        # the earlier column loop of log_partition, kept in partition_oracle:
        # the engine's forward sweep reproduces it bit for bit
        low = -1.5 * k - 0.5
        boundaries = {
            "free": {},
            "g": dict(g=[low] * (T + 1)),
            "f-and-g-partly-finite": dict(
                f=[math.inf if t % 2 else 1.2 + 0.1 * t for t in range(T + 1)],
                g=[-math.inf if t % 3 else low for t in range(T + 1)],
            ),
        }
        bonds = {
            "exp": gb.InteractionSpec.exp(0, T),
            "zero": gb.InteractionSpec.zero(0, T),
            "idle": gb.InteractionSpec(0, T, (IDLE,) * T),
        }
        for name, bounds in boundaries.items():
            for kind, inter in bonds.items():
                spec = _ladder(k, T, inter, **bounds)
                got = (cp.log_partition(spec, m), gb.acceptance_probability(spec, m))
                want = (
                    partition_oracle.log_partition(spec, m),
                    partition_oracle.acceptance_probability(spec, m),
                )
                assert got == want, (name, kind)

    def test_grid_needs_two_points(self):
        with pytest.raises(ValueError):
            cp.log_partition(_ladder(1, 3, gb.InteractionSpec.exp(0, 3)), 1)


class TestMonotonicity:
    def test_identical_boundaries_identical_output(self):
        b = cp.BoundaryTriple([1.0, -0.5], [1.5, 0.0], [-2.0] * 6)
        rep = cp.monotonicity_check(b, b, 25, 2, 6, np.random.default_rng(4), HRW)
        assert rep["max_violation"][0] == 0.0

    def test_ordered_boundaries_no_violation(self):
        b_lo = cp.BoundaryTriple([1.0, -0.5], [1.5, 0.0], [-2.0] * 6)
        b_hi = cp.BoundaryTriple([1.5, 0.0], [2.5, 0.5], [-1.0] * 6)
        rep = cp.monotonicity_check(b_lo, b_hi, 150, 2, 6, np.random.default_rng(5), HRW)
        assert rep["n_violations"][0] == 0.0
        assert rep["max_violation"][0] <= rep.meta["eps_grid"]

    def test_cli_couple_config_no_violation(self):
        # the `gibbslines couple --k 2 --t 16 --raise-by 0.5` boundary pair
        k, T = 2, 16
        x = [0.0, -2.0]
        b_lo = cp.BoundaryTriple(x, x, [-4.0] * T)
        rep = cp.monotonicity_check(
            b_lo, b_lo.shifted(0.5), 500, k, T, np.random.default_rng(13), HRW, m=256
        )
        assert rep["n_violations"][0] == 0.0
        assert rep["max_violation"][0] <= rep.meta["eps_grid"]

    def test_three_curves_no_violation(self):
        T = 4
        x = [0.0, -2.0, -4.0]
        b_lo = cp.BoundaryTriple(x, x, [-6.0] * T)
        rep = cp.monotonicity_check(
            b_lo, b_lo.shifted(0.3), 64, 3, T, np.random.default_rng(16), HRW
        )
        assert rep["n_violations"][0] == 0.0
        assert rep["max_violation"][0] <= rep.meta["eps_grid"]

    def test_raising_only_z_raises_output(self):
        T = 5
        b_lo = cp.BoundaryTriple([0.0], [0.0], [-3.0] * T)
        b_hi = cp.BoundaryTriple([0.0], [0.0], [0.5] * T)
        rep = cp.monotonicity_check(b_lo, b_hi, 100, 1, T, np.random.default_rng(6), HRW)
        assert rep["n_violations"][0] == 0.0
        # and the shift is real: outputs differ on average
        window = cp.default_window([b_lo, b_hi], T, HRW)
        eng_lo = cp.GrandCouplingEngine(b_lo, T, HRW, None, 256, window)
        eng_hi = cp.GrandCouplingEngine(b_hi, T, HRW, None, 256, window)
        om = np.random.default_rng(7).uniform(size=T - 2)
        assert np.all(eng_hi.sample(om)[:, 1:-1] > eng_lo.sample(om)[:, 1:-1])

    def test_unordered_input_rejected(self):
        b_lo = cp.BoundaryTriple([1.0], [0.0], [-2.0] * 5)
        b_hi = cp.BoundaryTriple([0.5], [0.5], [-1.0] * 5)
        with pytest.raises(ValueError):
            cp.monotonicity_check(b_lo, b_hi, 5, 1, 5, np.random.default_rng(0), HRW)


class TestContinuity:
    def test_zero_delta_zero_change(self):
        b = cp.BoundaryTriple([0.0], [1.0], [-2.0] * 5)
        om = np.random.default_rng(8).uniform(size=3)
        rep = cp.continuity_check(b, 0.0, om, 1, 5, HRW, halvings=1)
        assert rep["sup_change_delta_0"][0] == 0.0

    def test_halving_schedule_shrinks(self):
        b = cp.BoundaryTriple([0.5, -1.0], [1.0, -0.5], [-2.5] * 6)
        om = np.random.default_rng(9).uniform(size=2 * 4)
        rep = cp.continuity_check(b, 1.0, om, 2, 6, HRW, halvings=3)
        changes = [rep[f"sup_change_delta_{i}"][0] for i in range(4)]
        eps = 1e-6
        assert all(changes[i + 1] <= changes[i] + eps for i in range(3))

    def test_translation_covariance(self):
        b = cp.BoundaryTriple([1.0, -0.5], [1.5, 0.0], [-2.0] * 6)
        om = np.random.default_rng(10).uniform(size=2 * 4)
        base = cp.grand_coupling_sample(b, om, 2, 6, HRW)
        moved = cp.grand_coupling_sample(b.shifted(2.5), om, 2, 6, HRW)
        assert np.max(np.abs(moved.curves - base.curves - 2.5)) < 1e-9
