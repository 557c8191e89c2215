"""The benchmark's workloads, their correctness gates and the traced layers.

A workload turns the bench seed into per-operation seeds, runs one
operation through the package's public API, and checks its output against
an oracle outside the timed section.  ``check`` returns None for a correct
output and a short failure kind otherwise.

Import this module only after ``src`` is on ``sys.path`` (see worker.py).
"""

from __future__ import annotations

import json
import math
import os
import weakref
from pathlib import Path

import numpy as np

from gibbslines import bridge, cli, coupling, gibbs, grids, io, polymer, reports, special, stats
from gibbslines.errors import PrecisionError

THETA = 1.0


def op_seed(entropy: int, index: int) -> np.ndarray:
    """Seed material of operation ``index``: the scheme of ``cli.task_seed``."""
    return np.random.SeedSequence(entropy=entropy, spawn_key=(index,)).generate_state(4)


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov distance sup |F_a - F_b|."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(fa - fb).max())


def ks_critical(n: int, m: int, alpha: float) -> float:
    """Asymptotic two-sample KS critical value at level ``alpha``."""
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) * math.sqrt((n + m) / (n * m))


def read_csv_values(path: Path) -> np.ndarray:
    """Numeric rows of a CSV written by the CLI (metadata and header skipped)."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


class PolymerLines:
    """The paper regime: multi-curve partition functions by LGV determinants."""

    name = "polymer-lines"
    N, K_TOP = 32, 2
    samples = 1
    traced_ops = 5

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed

    def operation(self, i: int):
        return polymer.polymer_line_ensemble(THETA, self.N, self.K_TOP, seed=op_seed(self.seed, i))

    def check(self, i: int, ensemble) -> str | None:
        from oracle import polymer_log_z

        exact = polymer_log_z(
            polymer.sample_weight_field, THETA, self.N, self.K_TOP, op_seed(self.seed, i)
        )
        center = 2.0 * self.N * special.scaling_constants(THETA).h_theta_1
        err = np.abs(ensemble.curves - center - exact)
        return None if np.all(err <= 1e-8) else "oracle_mismatch"


class KpzEdge:
    """Tracy-Widom edge check at N = 32: batched l = 1 DP plus the GUE oracle."""

    name = "kpz-edge"
    N, B, M = 32, 500, 100
    samples = B
    traced_ops = 6

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed

    def operation(self, i: int):
        N = self.N
        consts = special.scaling_constants(THETA)
        curves = polymer.sample_top_curves(THETA, N, self.B, op_seed(self.seed, 2 * i))
        tw = stats.tw_statistics_from_values(curves[:, N], consts, N, 0)
        gue = stats.gue_tw_oracle(self.M, self.B, np.random.default_rng(op_seed(self.seed, 2 * i + 1)))
        ks = reports.ks_distance(reports.EmpiricalCDF(tw), gue)
        n_values = np.arange(-2, 3)
        profile, errs = stats.profile_points(curves, -N, consts, N, n_values)
        fit = stats.parabola_fit(n_values, profile, errs)
        return tw, gue.samples, ks, fit.lam_hat / consts.lam

    def check(self, i: int, out) -> str | None:
        tw, gue, ks, lam_ratio = out
        if abs(ks - ks_statistic(tw, gue)) > 1e-12:
            return "ks_distance_mismatch"
        if ks > 0.2:
            return "ks_bound"
        if abs(tw.mean() - gue.mean()) > 0.5:
            return "mean_bound"
        if not 0.3 <= lam_ratio <= 3.0:
            return "curvature_bound"
        return None


class GridSamplers:
    """Three CLI jobs on the grid site-conditional kernel: bridge, rejection, MCMC."""

    name = "grid-samplers"
    T_BRIDGE, K, T = 50, 2, 8
    MID = T // 2  # the top curve's midpoint, compared between rejection and MCMC
    SAMPLES = {"bridge": 30, "rejection": 30, "mcmc": 8}
    ENSEMBLE = ["ensemble", "--theta", "1", "--k", str(K), "--t", str(T), "--interaction", "exp"]
    JOBS = {
        "bridge": ["bridge", "--theta", "1", "--t", str(T_BRIDGE), "--y", "0"],
        "rejection": ENSEMBLE,
        "mcmc": ENSEMBLE + ["--sweeps", "30"],
    }
    samples = sum(SAMPLES.values())
    traced_ops = 6

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp

    def operation(self, i: int):
        for j, (job, argv) in enumerate(self.JOBS.items()):
            seed = str(int(op_seed(self.seed, 3 * i + j)[0]))
            argv = argv + ["--samples", str(self.SAMPLES[job]), "--seed", seed]
            rc = cli.main(argv + ["--out", str(self.tmp / job)])
            if rc != 0:
                raise RuntimeError(f"gibbslines {job} exited with code {rc}")

    def check(self, i: int, _) -> str | None:
        paths = read_csv_values(self.tmp / "bridge.csv")  # sample, t, value
        if not json.loads((self.tmp / "bridge.json").read_text())["endpoint_exact"]:
            return "bridge_endpoint"
        interior = paths[:, 2].reshape(-1, self.T_BRIDGE + 1)[:, 1:-1]
        chord = 0.0  # x + (y - x) j / T with x = y = 0
        se = interior.std(axis=0, ddof=1) / math.sqrt(interior.shape[0])
        if np.any(np.abs(interior.mean(axis=0) - chord) > 5.0 * se):
            return "bridge_mean"
        acc = json.loads((self.tmp / "rejection.json").read_text())["acceptance"]
        if not (0.0 < acc["estimate"] <= 1.0 and acc["attempts"] >= self.SAMPLES["rejection"]):
            return "rejection_acceptance"
        mids = []
        for job in ("rejection", "mcmc"):
            rows = read_csv_values(self.tmp / f"{job}.csv")  # sample, i, j, value
            mids.append(rows[(rows[:, 1] == 1) & (rows[:, 2] == self.MID), 3])
        if ks_statistic(*mids) >= ks_critical(mids[0].size, mids[1].size, 1e-3):
            return "mcmc_ks"
        return None


class Couple:
    """Grand monotone coupling: paired draws under a raised boundary."""

    name = "couple"
    DRAWS = 50
    ARGV = ["couple", "--theta", "1", "--k", "2", "--t", "16", "--raise-by", "0.5"]
    samples = DRAWS
    traced_ops = 8

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp

    def operation(self, i: int):
        seed = str(int(op_seed(self.seed, i)[0]))
        argv = self.ARGV + ["--samples", str(self.DRAWS), "--seed", seed]
        rc = cli.main(argv + ["--out", str(self.tmp / "couple")])
        if rc != 0:
            raise RuntimeError(f"gibbslines couple exited with code {rc}")

    def check(self, i: int, _) -> str | None:
        summary = json.loads((self.tmp / "couple.json").read_text())
        violations = read_csv_values(self.tmp / "couple.csv")[:, 1]
        if violations.size != self.DRAWS or max(0.0, violations.max()) != summary["max_violation"]:
            return "coupling_report"
        return None if summary["max_violation"] <= summary["eps_grid"] else "coupling_violation"


WORKLOADS = {w.name: w for w in (PolymerLines, KpzEdge, GridSamplers, Couple)}


# ------------------------------------------------------------------ tracing --

def _add(key: str, amount):
    def count(tracer, args, kwargs, result, exc):
        tracer.counters[key] += amount(args, kwargs, result, exc)

    return count


def _arg(args, kwargs, pos: int, name: str, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _count_tau_lgv(tracer, args, kwargs, result, exc):
    if _arg(args, kwargs, 4, "precision", "double") == "double-double":
        tracer.counters["polymer.tau_lgv.dd_calls"] += 1
    if isinstance(exc, PrecisionError):
        tracer.counters["polymer.tau_lgv.precision_errors"] += 1


def _count_rejection(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.counters["gibbs.sample_ensembles_rejection.attempts"] += result[1]
        tracer.counters["gibbs.sample_ensembles_rejection.accepted"] += _arg(args, kwargs, 1, "n_samples")


def _transfer_macs(p: int, m: int, steps: int) -> int:
    """Nominal multiply-adds of ``steps`` transfer steps over p free rows:
    one m x m grid-matrix product per free row, on an m^p array."""
    return steps * p * m ** (p + 1)


def _count_sample_transfer(tracer, args, kwargs, result, exc):
    eng = args[0]
    steps = eng.n - 1
    macs = sum(_transfer_macs(p, eng.m, steps) for p in range(1, eng.k))  # rows above the bottom
    macs += sum(_transfer_macs(p - 1, eng.m, steps) for p in range(2, eng.k + 1))  # betas
    tracer.counters["coupling.transfer.flops_computed"] += 2 * macs


def _bottom_transfer_counter():
    seen = weakref.WeakSet()  # each engine computes its bottom-row alphas once

    def count(tracer, args, kwargs, result, exc):
        eng = args[0]
        if eng not in seen:
            seen.add(eng)
            macs = _transfer_macs(eng.k, eng.m, eng.n - 1)
            tracer.counters["coupling.transfer.flops_computed"] += 2 * macs

    return count


def _file_bytes(args, kwargs, result, exc):
    return 0 if exc else os.path.getsize(args[0])


def trace_targets():
    """(owner, attribute, span name, counter) for every traced public function."""
    engine = coupling.GrandCouplingEngine
    return [
        (special, "scaling_constants", "special.scaling_constants", None),
        (special, "digamma", "special.series", None),
        (special, "trigamma", "special.series", None),
        (special, "inverse_cube_sum", "special.series", None),
        (polymer, "polymer_line_ensemble", "polymer.polymer_line_ensemble", None),
        (polymer, "build_partition_table", "polymer.build_partition_table", None),
        (polymer, "tau_lgv", "polymer.tau_lgv", _count_tau_lgv),
        (polymer, "sample_weight_field", "polymer.sample_weight_field", None),
        (polymer, "sample_top_curves", "polymer.sample_top_curves",
         _add("polymer.sample_top_curves.cells", lambda a, k, r, e: a[2] * 3 * a[1] * 2 * a[1])),
        (stats, "gue_tw_oracle", "stats.gue_tw_oracle",
         _add("stats.gue_tw_oracle.bytes_computed", lambda a, k, r, e: a[1] * a[0] ** 2 * 16)),
        (stats, "profile_points", "stats.profile_points", None),
        (reports, "ks_distance", "reports.ks_distance", None),
        (bridge, "n_step_density", "bridge.n_step_density", None),
        (bridge, "hrw_density", "bridge.hrw_density", None),
        (bridge.HrwSpec, "support", "bridge.HrwSpec.support", None),
        (bridge, "sample_bridges_sequential", "bridge.sample_bridges_sequential", None),
        (grids, "inverse_cdf_rows", "grids.inverse_cdf_rows",
         _add("grids.inverse_cdf_rows.rows", lambda a, k, r, e: np.atleast_2d(a[1]).shape[0])),
        (grids, "trapezoid_cdf", "grids.trapezoid_cdf", None),
        (gibbs, "sample_ensembles_rejection", "gibbs.sample_ensembles_rejection", _count_rejection),
        (gibbs, "sample_ensembles_mcmc", "gibbs.sample_ensembles_mcmc",
         _add("gibbs.sample_ensembles_mcmc.site_updates",
              lambda a, k, r, e: a[1] * a[0].n_curves * (a[0].b - a[0].a - 1) * a[2])),
        (gibbs, "acceptance_probability", "gibbs.acceptance_probability", None),
        (engine, "__init__", "coupling.GrandCouplingEngine.init", None),
        (engine, "sample", "coupling.GrandCouplingEngine.sample", _count_sample_transfer),
        (engine, "bottom_alphas", "coupling.GrandCouplingEngine.bottom_alphas",
         _bottom_transfer_counter()),
        (cli, "main", "cli.main", None),
        (io, "write_csv", "io.write_csv", _add("io.bytes_written", _file_bytes)),
        (io, "write_json", "io.write_json", _add("io.bytes_written", _file_bytes)),
    ]


LAYERS = ("special", "polymer", "stats", "reports", "bridge", "grids", "gibbs", "coupling", "cli", "io")

PER_LAYER = [
    ("special.scaling_constants.calls", "count"),
    ("special.scaling_constants.self_s", "s"),
    ("special.series.calls", "count"),
    ("special.series.self_s", "s"),
    ("polymer.polymer_line_ensemble.self_s", "s"),
    ("polymer.build_partition_table.self_s", "s"),
    ("polymer.tau_lgv.calls", "count"),
    ("polymer.tau_lgv.self_s", "s"),
    ("polymer.tau_lgv.dd_calls", "count"),
    ("polymer.tau_lgv.precision_errors", "count"),
    ("polymer.sample_weight_field.self_s", "s"),
    ("polymer.sample_top_curves.self_s", "s"),
    ("polymer.sample_top_curves.cells", "count"),
    ("stats.gue_tw_oracle.self_s", "s"),
    ("stats.gue_tw_oracle.bytes_computed", "B"),
    ("stats.profile_points.self_s", "s"),
    ("reports.ks_distance.self_s", "s"),
    ("bridge.n_step_density.calls", "count"),
    ("bridge.n_step_density.self_s", "s"),
    ("bridge.hrw_density.calls", "count"),
    ("bridge.HrwSpec.support.calls", "count"),
    ("bridge.HrwSpec.support.self_s", "s"),
    ("bridge.sample_bridges_sequential.calls", "count"),
    ("bridge.sample_bridges_sequential.self_s", "s"),
    ("grids.inverse_cdf_rows.calls", "count"),
    ("grids.inverse_cdf_rows.rows", "count"),
    ("grids.inverse_cdf_rows.rows_per_call", "row/call"),
    ("grids.inverse_cdf_rows.self_s", "s"),
    ("grids.trapezoid_cdf.calls", "count"),
    ("grids.trapezoid_cdf.self_s", "s"),
    ("gibbs.sample_ensembles_rejection.self_s", "s"),
    ("gibbs.sample_ensembles_rejection.attempts", "count"),
    ("gibbs.sample_ensembles_rejection.accept_ratio", "ratio"),
    ("gibbs.sample_ensembles_mcmc.self_s", "s"),
    ("gibbs.sample_ensembles_mcmc.site_updates", "count"),
    ("gibbs.acceptance_probability.self_s", "s"),
    ("coupling.GrandCouplingEngine.init.calls", "count"),
    ("coupling.GrandCouplingEngine.init.self_s", "s"),
    ("coupling.GrandCouplingEngine.sample.calls", "count"),
    ("coupling.GrandCouplingEngine.sample.self_s", "s"),
    ("coupling.GrandCouplingEngine.bottom_alphas.self_s", "s"),
    ("coupling.transfer.flops_computed", "flop"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("io.write_csv.self_s", "s"),
    ("io.write_json.self_s", "s"),
    ("io.bytes_written", "B"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_frac", "ratio"),
]


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer figures of a finished traced run, totals over its operations
    (all but the ``trace.*`` entries, which the caller adds)."""
    self_s = tracer.self_times()
    counters = tracer.counters
    out = {}
    for name, _ in PER_LAYER:
        if name.startswith("trace."):
            continue
        if not name.endswith(".self_s"):
            out[name] = counters.get(name, 0.0)
            continue
        stem = name[: -len(".self_s")]
        if stem in LAYERS:
            out[name] = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == stem)
        else:
            out[name] = self_s.get(stem, 0.0)
    rows, calls = counters.get("grids.inverse_cdf_rows.rows", 0), counters.get("grids.inverse_cdf_rows.calls", 0)
    out["grids.inverse_cdf_rows.rows_per_call"] = rows / calls if calls else 0.0
    key = "gibbs.sample_ensembles_rejection."
    attempts = counters.get(key + "attempts", 0)
    out[key + "accept_ratio"] = counters.get(key + "accepted", 0) / attempts if attempts else 0.0
    return out
