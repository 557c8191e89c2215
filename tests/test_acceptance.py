"""End-to-end acceptance battery: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line through the terminal-summary hook in
conftest.py.  Statistical checks run on fixed seeds, so the whole battery is
deterministic.
"""

import json
import math
import time

import numpy as np
import pytest

from gibbslines import bridge as br
from gibbslines import cli
from gibbslines import coupling as cp
from gibbslines import gibbs as gb
from gibbslines import polymer as pm
from gibbslines import special as sp
from gibbslines import stats as st_mod
from gibbslines.ensembles import DiscreteLineEnsemble
from gibbslines.reports import EmpiricalCDF, ks_distance

import series_oracle
from conftest import record_criterion

HRW = br.HrwSpec.log_gamma(1.0)


def test_criterion_1_polymer_oracle_triangle():
    t0 = time.time()
    worst = 0.0
    for trial in range(200):
        field = pm.sample_weight_field(1.0, 5, 4, seed=31000 + trial)
        for k in range(1, 5):
            grsk = pm.build_partition_table(field, k, k, range(1, 6))
            for n in range(1, 6):
                for l in range(1, min(k, n) + 1):
                    brute = pm.tau_bruteforce(field, k, l, n)
                    for route in (pm.tau_lgv(field, k, l, n), grsk.value(l, n)):
                        worst = max(worst, abs(route - brute) / abs(brute))
                    if l == 1:
                        dp = pm.single_path_partition(field, n, k)[-1, -1]
                        worst = max(worst, abs(dp - brute) / abs(brute))
    # z-array telescoping on a sample of the same fields
    tele = 0.0
    for trial in range(0, 200, 20):
        field = pm.sample_weight_field(1.0, 5, 4, seed=31000 + trial)
        table = pm.build_partition_table(field, k=4, l_max=4, n_values=[4, 5])
        z = pm.z_array(table, 4, [4, 5])
        tele = max(tele, float(np.abs(np.cumsum(z, axis=0) - table.log_tau[1:]).max()))
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and tele <= 1e-10 and elapsed < 120.0
    record_criterion(
        1,
        "polymer oracle triangle (200 fields)",
        ok,
        f"max rel err {worst:.2e}, telescoping {tele:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_special_functions():
    z = np.linspace(0.1, 10.0, 100)
    rec = float(np.abs(sp.digamma(z + 1.0) - sp.digamma(z) - 1.0 / z).max())

    # two independent routes: scipy at runtime, the defining series as oracle
    zs = np.linspace(0.05, 20.0, 100)
    series = max(
        float(np.abs(getattr(sp, f)(zs) - getattr(series_oracle, f)(zs)).max())
        for f in ("digamma", "trigamma", "inverse_cube_sum")
    )

    x = np.linspace(0.05, 20.0, 100)
    back = sp.g_theta(1.0, sp.g_theta_inv(1.0, x))
    rt = float(np.abs(back - x).max())

    sym = max(abs(sp.g_theta(th, th / 2) - 1.0) for th in (0.5, 1.0, 2.0))

    d = 1e-5
    fd = (sp.h_theta(1.0, 1.0 + d) - sp.h_theta(1.0, 1.0 - d)) / (2 * d)
    slope_err = abs(fd - sp.digamma(0.5))

    lams = {th: sp.scaling_constants(th).lam for th in (0.25, 0.5, 1.0, 2.0, 5.0)}
    ok = (
        rec <= 1e-10
        and series <= 1e-10
        and rt <= 1e-9
        and sym <= 1e-12
        and slope_err <= 1e-6
        and all(v > 0 for v in lams.values())
    )
    record_criterion(
        2,
        "special functions and scaling constants",
        ok,
        f"recurrence {rec:.1e}, scipy vs series {series:.1e}, roundtrip {rt:.1e}, "
        f"g(theta/2) {sym:.1e}, h'(1) {slope_err:.1e}, "
        f"lambdas {[round(v, 4) for v in lams.values()]}",
    )


def test_criterion_3_bridge_correctness():
    t0 = time.time()
    rng = np.random.default_rng(60)
    T = 10
    spec = br.BridgeSpec(0, T, 0.0, 3.0, HRW)
    paths = br.sample_bridges_sequential(spec, 10**4, rng)
    pinned = bool(np.all(paths[:, 0] == 0.0) and np.all(paths[:, -1] == 3.0))

    chord = np.linspace(0.0, 3.0, T + 1)
    se = paths.std(axis=0, ddof=1) / math.sqrt(paths.shape[0])
    mean_dev = float(np.max(np.abs(paths.mean(axis=0)[1:-1] - chord[1:-1]) / se[1:-1]))

    g5 = br._step_density_cached(HRW, 5, 4096)
    u = np.linspace(-14.0, 17.0, 4000)
    logq = g5.log_pdf(u) + g5.log_pdf(3.0 - u)
    q = np.exp(logq - logq.max())
    qc = np.concatenate([[0.0], np.cumsum((q[1:] + q[:-1]) / 2 * np.diff(u))])
    qc /= qc[-1]
    samp = np.sort(paths[:, 5])
    ks_quad = float(np.max(np.abs(np.arange(1, samp.size + 1) / samp.size - np.interp(samp, u, qc))))

    kept = []
    chains = br.sample_bridges_mcmc(spec, 3500, 36, rng, m=256)
    for _ in range(3):
        chains = br.sample_bridges_mcmc(spec, 3500, 4, rng, m=256, init=chains)
        kept.append(chains[:, 5].copy())
    ks_mcmc = ks_distance(EmpiricalCDF(paths[:, 5]), EmpiricalCDF(np.concatenate(kept)))

    g1 = br.hrw_density(HRW)
    mapped = np.exp(-g1.sample(rng, 10**4))
    ks_incr = ks_distance(EmpiricalCDF(mapped), EmpiricalCDF(rng.gamma(1.0, 1.0, size=10**4)))
    elapsed = time.time() - t0
    ok = pinned and mean_dev < 4.0 and ks_quad < 0.02 and ks_mcmc < 0.02 and ks_incr < 0.02 and elapsed < 180.0
    record_criterion(
        3,
        "bridge samplers",
        ok,
        f"pinned={pinned}, mean dev {mean_dev:.2f}se, KS quad {ks_quad:.4f}, "
        f"KS mcmc {ks_mcmc:.4f}, KS increment {ks_incr:.4f}, {elapsed:.1f}s",
    )


def test_criterion_4_gibbs_measure():
    rng = np.random.default_rng(61)
    T, k = 8, 2
    x = [0.0, -2.0]
    zero_spec = gb.EnsembleSpec.make(1, k, 0, T, x, x, HRW, gb.InteractionSpec.zero(0, T))
    acc0 = gb.acceptance_probability(zero_spec)
    _, first = gb.sample_ensemble_rejection(zero_spec, rng)
    zero_ok = acc0 == 1.0 and first == 1

    spec = gb.EnsembleSpec.make(1, k, 0, T, x, x, HRW, gb.InteractionSpec.exp(0, T))
    rej, _ = gb.sample_ensembles_rejection(spec, 10**4, rng, max_attempts=10**6)
    kept = []
    chains = gb.sample_ensembles_mcmc(spec, 2500, 30, rng, m=256)
    for _ in range(4):
        chains = gb.sample_ensembles_mcmc(spec, 2500, 4, rng, init=chains, m=256)
        kept.append(chains.copy())
    mc = np.concatenate(kept, axis=0)
    ks_probe = 0.0
    for i in (0, 1):
        for t in (2, 4, 6):
            ks_probe = max(
                ks_probe, ks_distance(EmpiricalCDF(rej[:, i, t]), EmpiricalCDF(mc[:, i, t]))
            )

    inv_spec = gb.EnsembleSpec.make(
        1, 3, 0, 6, [0.0, -2.0, -4.0], [0.0, -2.0, -4.0], HRW, gb.InteractionSpec.exp(0, 6)
    )
    inv = gb.gibbs_invariance_check(inv_spec, (1, 2, 1, 5), 4000, rng)
    inv_ok = inv["ks_max"][0] < inv["ks_critical_1pct"][0]

    g_lo = gb.EnsembleSpec.make(1, 1, 0, 5, [0.0], [0.0], HRW,
                                gb.InteractionSpec.exp(0, 5), g=[-2.0] * 6)
    g_hi = gb.EnsembleSpec.make(1, 1, 0, 5, [0.0], [0.0], HRW,
                                gb.InteractionSpec.exp(0, 5), g=[-0.7] * 6)
    a_lo = gb.acceptance_probability(g_lo)
    a_hi = gb.acceptance_probability(g_hi)
    mono_ok = a_hi < a_lo

    ok = zero_ok and ks_probe < 0.03 and inv_ok and mono_ok
    record_criterion(
        4,
        "Gibbs measure samplers",
        ok,
        f"zero-interaction exact={zero_ok}, rejection-vs-MCMC KS {ks_probe:.4f}, "
        f"invariance KS {inv['ks_max'][0]:.4f} < {inv['ks_critical_1pct'][0]:.4f}, "
        f"Z({round(a_hi, 3)}) < Z({round(a_lo, 3)}) raising g",
    )


def _boundary_pairs():
    """20 ordered boundary pairs with k <= 2, T <= 6, mixed bottom curves."""
    pairs = []
    rng = np.random.default_rng(1234)
    for idx in range(20):
        k = 1 if idx % 2 == 0 else 2
        T = 4 + (idx % 3)
        base_x = np.sort(rng.uniform(-1.0, 1.0, size=k))[::-1]
        base_y = np.sort(rng.uniform(-1.0, 1.0, size=k))[::-1]
        lift_x = rng.uniform(0.0, 1.5, size=k)
        lift_y = rng.uniform(0.0, 1.5, size=k)
        if idx % 4 < 2:
            z_lo = [-np.inf] * T
            z_hi = [-np.inf] * T if idx % 4 == 0 else [-2.0] * T
        else:
            z_lo = [-3.0] * T
            z_hi = [-3.0 + float(rng.uniform(0.0, 1.0))] * T
        b_lo = cp.BoundaryTriple(base_x, base_y, z_lo)
        b_hi = cp.BoundaryTriple(base_x + lift_x, base_y + lift_y, z_hi)
        pairs.append((k, T, b_lo, b_hi))
    return pairs


def test_criterion_5_grand_monotone_coupling():
    t0 = time.time()
    rng = np.random.default_rng(62)

    b2 = cp.BoundaryTriple([1.0, 0.0], [2.0, -1.0], [-np.inf, -np.inf])
    t2 = cp.grand_coupling_sample(b2, np.empty(0), 2, 2, HRW)
    t2_ok = t2.curves.tolist() == [[1.0, 2.0], [0.0, -1.0]]

    k, T = 2, 5
    bnd = cp.BoundaryTriple([2.0, 0.0], [3.0, 1.0], [-1.5] * T)
    spec = gb.EnsembleSpec.make(
        1, k, 0, T - 1, bnd.x_vec, bnd.y_vec, HRW, gb.InteractionSpec.exp(0, T - 1),
        g=bnd.z_vec,
    )
    eng = cp.GrandCouplingEngine(bnd, T, HRW, m=256)
    draws = eng.sample(rng.uniform(size=(5000, k * (T - 2))))
    rej, _ = gb.sample_ensembles_rejection(spec, 5000, rng)
    ks_law = 0.0
    for i in (0, 1):
        for t in (1, 2, 3):
            ks_law = max(
                ks_law, ks_distance(EmpiricalCDF(draws[:, i, t]), EmpiricalCDF(rej[:, i, t]))
            )

    pairs = _boundary_pairs()
    max_v = 0.0
    total_violations = 0
    for k_p, T_p, b_lo, b_hi in pairs:
        rep = cp.monotonicity_check(b_lo, b_hi, 1000, k_p, T_p, rng, HRW, m=256)
        max_v = max(max_v, rep["max_violation"][0])
        total_violations += int(rep["n_violations"][0])

    # refinement: the worst violations must shrink at least 2x at doubled grid
    fine_v = 0.0
    for k_p, T_p, b_lo, b_hi in pairs[:4]:
        rep = cp.monotonicity_check(b_lo, b_hi, 1000, k_p, T_p, rng, HRW, m=512)
        fine_v = max(fine_v, rep["max_violation"][0])
    shrink_ok = fine_v <= max(max_v / 2.0, 1e-12)

    om = np.random.default_rng(63).uniform(size=2 * 3)
    cont = cp.continuity_check(
        cp.BoundaryTriple([0.5, -1.0], [1.0, -0.5], [-2.5] * 5), 1.0, om, 2, 5, HRW
    )
    changes = [cont[f"sup_change_delta_{i}"][0] for i in range(4)]
    cont_ok = all(changes[i + 1] <= changes[i] + 1e-6 for i in range(3))

    elapsed = time.time() - t0
    ok = (
        t2_ok and ks_law < 0.05 and total_violations == 0 and shrink_ok and cont_ok
        and elapsed < 600.0
    )
    record_criterion(
        5,
        "grand monotone coupling",
        ok,
        f"T=2 exact={t2_ok}, law KS {ks_law:.4f}, violations {total_violations} "
        f"(max {max_v:.2e}, fine {fine_v:.2e}), continuity {np.round(changes, 4).tolist()}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_6_kpz_fluctuations():
    t0 = time.time()
    N = 32
    curves = pm.sample_top_curves(1.0, N, 2000, seed=20260810)
    consts = sp.scaling_constants(1.0)
    tw = st_mod.tw_statistics_from_values(curves[:, N], consts, N, 0)
    gue = st_mod.gue_tw_oracle(200, 2000, np.random.default_rng(64))
    ecdf = EmpiricalCDF(tw)
    ks = ks_distance(ecdf, gue)
    mean_diff = abs(ecdf.mean() - gue.mean())
    elapsed = time.time() - t0
    ok = ks <= 0.2 and mean_diff <= 0.5 and elapsed < 600.0
    record_criterion(
        6,
        "KPZ one-point fluctuations at N=32 vs GUE edge oracle",
        ok,
        f"KS {ks:.4f} (<= 0.2), |mean diff| {mean_diff:.3f} (<= 0.5), {elapsed:.0f}s",
    )


def test_criterion_7_parabolic_profile():
    N = 32
    consts = sp.scaling_constants(1.0)
    curves = pm.sample_top_curves(1.0, N, 500, seed=20260811)
    n_values = np.arange(-2, 3)
    prof, errs = st_mod.profile_points(curves, -N, consts, N, n_values)
    fit = st_mod.parabola_fit(n_values, prof, errs)
    ratio = fit.lam_hat / consts.lam
    ok = 0.3 <= ratio <= 3.0
    record_criterion(
        7,
        "parabolic profile curvature at N=32",
        ok,
        f"lam_hat {fit.lam_hat:.4f}, lam {consts.lam:.4f}, ratio {ratio:.2f} in [0.3, 3]",
    )


def test_criterion_8_cli_determinism(tmp_path):
    runs = {
        "polymer": ["polymer", "--n", "4", "--k", "2", "--samples", "5", "--seed", "17"],
        "bridge": ["bridge", "--t", "6", "--samples", "8", "--seed", "17"],
        "ensemble": ["ensemble", "--k", "2", "--t", "4", "--samples", "5", "--seed", "17"],
        "couple": ["couple", "--k", "1", "--t", "4", "--samples", "5", "--seed", "17"],
    }
    identical = True
    detail = []
    for name, args in runs.items():
        out = tmp_path / name
        blobs = []
        for workers in ("1", "4", "1"):
            assert cli.main(args + ["--workers", workers, "--out", str(out)]) == 0
            blobs.append(
                ((tmp_path / f"{name}.csv").read_bytes(), (tmp_path / f"{name}.json").read_bytes())
            )
        same = blobs[0] == blobs[1] == blobs[2]
        identical = identical and same
        detail.append(f"{name}:{'ok' if same else 'DIFFERS'}")
    # stats round trip on the polymer CSV
    assert (
        cli.main(
            ["stats", "--input", str(tmp_path / "polymer.csv"), "--n", "4", "--k", "2",
             "--seed", "17", "--workers", "4", "--out", str(tmp_path / "stats")]
        )
        == 0
    )
    a = json.loads((tmp_path / "polymer.json").read_text())
    b = json.loads((tmp_path / "stats.json").read_text())
    stats_same = a["tw_statistic"] == b["tw_statistic"] and a["acceptance"] == b["acceptance"]
    identical = identical and stats_same
    detail.append(f"stats-roundtrip:{'ok' if stats_same else 'DIFFERS'}")
    record_criterion(8, "CLI determinism across runs and worker counts", identical, " ".join(detail))
