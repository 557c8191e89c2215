"""Experiment runner: polymer / bridge / ensemble / couple / stats subcommands.

Every run is a pure function of (configuration, seed): per-sample generators
are derived by index from the master seed, so the emitted files are
bit-identical across repeat runs and across worker counts, and every file
carries the full effective configuration.

Exit codes: 0 success, 2 usage error, 3 precision error, 4 resource error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import bridge as bridge_mod
from . import coupling as coupling_mod
from . import gibbs as gibbs_mod
from . import polymer as polymer_mod
from . import stats as stats_mod
from .ensembles import DiscreteLineEnsemble
from .errors import PrecisionError, ResourceLimitError
from .io import write_csv, write_json
from .special import scaling_constants

__all__ = ["RunConfig", "main", "run_polymer", "run_bridge", "run_ensemble", "run_couple", "run_stats"]

_DEFAULTS = {
    "theta": 1.0,
    "n": 8,
    "k": 1,
    "t": 10,
    "r": 1.0,
    "samples": 100,
    "sweeps": 0,
    "grid": 0,  # 0: per-module default
    "seed": 0,
    "workers": 1,
    "format": "csv",
    "y": 0.0,
    "spread": 2.0,
    "raise_by": 0.0,
    "interaction": "exp",
}


@dataclass(frozen=True)
class RunConfig:
    """Effective parameters of one subcommand invocation."""

    command: str
    theta: float
    n: int
    k: int
    t: int
    r: float
    samples: int
    sweeps: int
    grid: int
    seed: int
    workers: int
    out: str
    format: str
    y: float
    spread: float
    raise_by: float
    interaction: str
    input: str | None = None

    def to_dict(self) -> dict:
        # workers is execution topology, not experiment configuration: results
        # are independent of it, and leaving it out keeps emitted files
        # bit-identical across worker counts
        return {k: v for k, v in self.__dict__.items() if v is not None and k != "workers"}


def task_seed(master_seed: int, index: int):
    """Index-derived seed material: independent of worker scheduling."""
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(index,)).generate_state(4)


def _task_rng(master_seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(task_seed(master_seed, index))


def _map_tasks(fn, payloads, workers: int):
    if workers <= 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    from multiprocessing import Pool  # loaded only by runs with workers

    with Pool(processes=workers) as pool:
        return pool.map(fn, payloads, chunksize=max(1, len(payloads) // (4 * workers)))


# ---------------------------------------------------------------- polymer --

def _polymer_task(payload):
    theta, N, k, seed, index = payload
    ens = polymer_mod.polymer_line_ensemble(theta, N, k, seed=task_seed(seed, index))
    return ens.curves


def run_polymer(cfg: RunConfig) -> list[str]:
    theta, N, k = cfg.theta, cfg.n, cfg.k
    if k < 1 or k > N:
        raise ValueError(f"need 1 <= k <= N, got k={k}, N={N}")
    if cfg.r * N ** (2.0 / 3.0) > N:
        raise ValueError(f"window r={cfg.r} needs r N^(2/3) <= N; reduce r or raise N")
    payloads = [(theta, N, k, cfg.seed, i) for i in range(cfg.samples)]
    curves = _map_tasks(_polymer_task, payloads, cfg.workers)
    ensembles = [DiscreteLineEnsemble(c, -N, N) for c in curves]
    summary = _ensemble_summaries(ensembles, cfg)
    written = _emit(cfg, _ensemble_rows(curves, -N), ["sample", "i", "j", "value"], summary)
    if cfg.format == "csv":
        from .io import write_ecdf_csv
        from .reports import EmpiricalCDF

        ecdf_path = str(Path(cfg.out)) + "_tw_ecdf.csv"
        write_ecdf_csv(ecdf_path, EmpiricalCDF(np.array(summary["tw_statistic"])), cfg.to_dict())
        written.insert(-1, ecdf_path)
    return written


def _ensemble_rows(curves_list, t0):
    for s, curves in enumerate(curves_list):
        for i in range(curves.shape[0]):
            for j in range(curves.shape[1]):
                yield (s, i + 1, t0 + j, float(curves[i, j]))


def _ensemble_summaries(ensembles, cfg: RunConfig) -> dict:
    """Per-sample KPZ diagnostics; shared verbatim by `polymer` and `stats`
    so a stored CSV reproduces the in-process numbers."""
    theta, N = cfg.theta, cfg.n
    consts = scaling_constants(theta)
    tw, sups, infs = [], [], []
    gaps, accs = [], []
    for ens in ensembles:
        tw.append(stats_mod.tw_statistic(ens, consts, N, 0))
        hi, lo = stats_mod.window_extrema(ens, consts, N, cfg.r, 1)
        sups.append(hi)
        infs.append(lo)
        if ens.k >= 2:
            rep = stats_mod.gap_and_acceptance_diagnostics(
                ens, consts, N, cfg.r, ens.k - 1, m=cfg.grid or None
            )
            gaps.append(rep["min_gap"][0])
            accs.append(rep["acceptance"][0])
    out = {
        "tw_statistic": tw,
        "tw_mean": math.fsum(tw) / len(tw),
        "window_sup": sups,
        "window_inf": infs,
    }
    if gaps:
        out["min_gap"] = gaps
        out["acceptance"] = accs
    return out


# ------------------------------------------------------- bridge / ensemble --

def _ladder_spec(cfg: RunConfig) -> gibbs_mod.EnsembleSpec:
    k, T = cfg.k, cfg.t
    x = [-cfg.spread * i for i in range(k)]
    inter = (
        gibbs_mod.InteractionSpec.exp(0, T)
        if cfg.interaction == "exp"
        else gibbs_mod.InteractionSpec.zero(0, T)
    )
    return gibbs_mod.EnsembleSpec.make(
        1, k, 0, T, x, x, bridge_mod.HrwSpec.log_gamma(cfg.theta), inter
    )


def _chunk_task(payload):
    """One batched sampler call on a contiguous chunk of sample indices, sample
    i reading its own stream ``_task_rng(seed, i)``: (samples, attempts).
    Rejection may spend 10**6 proposals per sample of the chunk in total."""
    cfg, indices = payload
    rngs = [_task_rng(cfg.seed, int(i)) for i in indices]
    n = len(rngs)
    kwargs = {"m": cfg.grid} if cfg.grid else {}
    if cfg.command == "bridge":
        spec = bridge_mod.BridgeSpec(0, cfg.t, 0.0, cfg.y, bridge_mod.HrwSpec.log_gamma(cfg.theta))
        return bridge_mod.sample_bridges_sequential(spec, n, rngs, **kwargs), 0
    spec = _ladder_spec(cfg)
    if cfg.sweeps > 0:
        return gibbs_mod.sample_ensembles_mcmc(spec, n, cfg.sweeps, rngs, **kwargs), 0
    return gibbs_mod.sample_ensembles_rejection(spec, n, rngs, 10**6 * n, **kwargs)


def _sample_chunks(cfg: RunConfig) -> tuple[np.ndarray, int]:
    """All samples of a run, one batched call per worker chunk."""
    chunks = np.array_split(np.arange(cfg.samples), min(cfg.workers, max(cfg.samples, 1)))
    results = _map_tasks(_chunk_task, [(cfg, c) for c in chunks], cfg.workers)
    return np.concatenate([r[0] for r in results]), int(sum(r[1] for r in results))


def run_bridge(cfg: RunConfig) -> list[str]:
    arr, _ = _sample_chunks(cfg)
    rows = ((s, t, float(arr[s, t])) for s in range(arr.shape[0]) for t in range(arr.shape[1]))
    summary = {
        "mean_path": [math.fsum(arr[:, t]) / arr.shape[0] for t in range(arr.shape[1])],
        "endpoint_exact": bool(np.all(arr[:, 0] == 0.0) and np.all(arr[:, -1] == cfg.y)),
    }
    return _emit(cfg, rows, ["sample", "t", "value"], summary)


def run_ensemble(cfg: RunConfig) -> list[str]:
    m = cfg.grid or coupling_mod.DEFAULT_COUPLING_GRID_M
    z = gibbs_mod.acceptance_probability(_ladder_spec(cfg), m)  # fails fast past the state cap
    curves, attempts = _sample_chunks(cfg)
    summary = {"acceptance": {"estimate": z, "grid_m": m, "attempts": attempts}}
    return _emit(cfg, _ensemble_rows(curves, 0), ["sample", "i", "j", "value"], summary)


# ----------------------------------------------------------------- couple --

def _couple_task(payload):
    """Both boundary data of a `couple` run on the draws of a contiguous chunk
    of sample indices, sample i reading its own stream ``_task_rng(seed, i)``:
    (per-draw gaps, eps_grid).  Every chunk builds its engines on the same
    window, and a draw does not depend on its batch."""
    cfg, b_low, b_high, indices = payload
    k, T = cfg.k, cfg.t
    omega = np.array([_task_rng(cfg.seed, int(i)).uniform(size=k * (T - 2)) for i in indices])
    hrw = bridge_mod.HrwSpec.log_gamma(cfg.theta)
    m = cfg.grid or coupling_mod.DEFAULT_COUPLING_GRID_M
    return coupling_mod.coupled_gaps(
        b_low, b_high, omega.reshape(len(indices), k * (T - 2)), T, hrw, None, m
    )


def run_couple(cfg: RunConfig) -> list[str]:
    k, T = cfg.k, cfg.t
    x = [-cfg.spread * i for i in range(k)]
    b_low = coupling_mod.BoundaryTriple(x, x, [-cfg.spread * k] * T)
    # a NaN or infinite --raise-by is refused here as non-finite data, a
    # negative one by ``coupled_gaps`` as unordered data
    b_high = b_low.shifted(cfg.raise_by)
    chunks = np.array_split(np.arange(cfg.samples), min(cfg.workers, max(cfg.samples, 1)))
    results = _map_tasks(_couple_task, [(cfg, b_low, b_high, c) for c in chunks], cfg.workers)
    gaps = np.concatenate([r[0] for r in results])
    rows = [(i, float(v)) for i, v in enumerate(gaps)]
    summary = {
        "max_violation": float(gaps.max(initial=0.0)),
        "n_draws": cfg.samples,
        "grid_m": cfg.grid or coupling_mod.DEFAULT_COUPLING_GRID_M,
        "eps_grid": results[0][1],
    }
    return _emit(cfg, rows, ["sample", "violation"], summary)


# ------------------------------------------------------------------ stats --

def _read_ensemble_csv(path: str) -> list[tuple[np.ndarray, int]]:
    samples: dict[int, dict[int, dict[int, float]]] = {}
    for line in Path(path).read_text().splitlines():
        if not line or line.startswith("#") or line.startswith("sample,"):
            continue
        s, i, j, v = line.split(",")
        samples.setdefault(int(s), {}).setdefault(int(i), {})[int(j)] = float(v)
    out = []
    for s in sorted(samples):
        rows = samples[s]
        times = sorted(next(iter(rows.values())))
        curves = np.array([[rows[i][j] for j in times] for i in sorted(rows)])
        out.append((curves, times[0]))
    return out


def run_stats(cfg: RunConfig) -> list[str]:
    if not cfg.input:
        raise ValueError("stats requires --input (an ensemble CSV)")
    ensembles = [
        DiscreteLineEnsemble(curves, t0, t0 + curves.shape[1] - 1)
        for curves, t0 in _read_ensemble_csv(cfg.input)
    ]
    summary = _ensemble_summaries(ensembles, cfg)
    rows = (
        (s, "tw_statistic", summary["tw_statistic"][s]) for s in range(len(ensembles))
    )
    return _emit(cfg, rows, ["sample", "statistic", "value"], summary)


# ------------------------------------------------------------- entry point --

def _emit(cfg: RunConfig, rows, header, summary: dict) -> list[str]:
    config = cfg.to_dict()
    out = Path(cfg.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    written = []
    if cfg.format == "csv":
        write_csv(str(out) + ".csv", header, rows, config)
        written.append(str(out) + ".csv")
    else:
        summary = dict(summary)
        summary["rows"] = [list(r) for r in rows]
    write_json(str(out) + ".json", summary, config)
    written.append(str(out) + ".json")
    return written


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gibbslines",
        description="Line-ensemble simulation runner (polymer / bridge / ensemble / couple / stats)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("polymer", "bridge", "ensemble", "couple", "stats"):
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="key=value defaults file")
        p.add_argument("--theta", type=float, default=None)
        p.add_argument("--n", type=int, default=None, help="polymer size N")
        p.add_argument("--k", type=int, default=None, help="number of curves")
        p.add_argument("--t", type=int, default=None, help="number of bridge steps")
        p.add_argument("--r", type=float, default=None, help="window half-width in N^(2/3) units")
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--sweeps", type=int, default=None)
        p.add_argument("--grid", type=int, default=None, help="grid resolution override")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--out", type=str, required=True, help="output path prefix")
        p.add_argument("--format", type=str, choices=["csv", "json"], default=None)
        p.add_argument("--y", type=float, default=None, help="bridge exit height")
        p.add_argument("--spread", type=float, default=None, help="curve ladder spacing")
        p.add_argument("--raise-by", dest="raise_by", type=float, default=None)
        p.add_argument("--interaction", type=str, choices=["exp", "zero"], default=None)
        p.add_argument("--input", type=str, default=None, help="input CSV (stats)")
    return parser


def _load_config_file(path: str) -> dict:
    values = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    file_cfg = _load_config_file(args.config) if args.config else {}
    merged = {}
    for key, default in _DEFAULTS.items():
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            merged[key] = cli_val
        elif key in file_cfg:
            merged[key] = type(default)(file_cfg[key])
        else:
            merged[key] = default
    if merged["workers"] < 1:
        raise ValueError("workers must be >= 1")
    return RunConfig(command=args.command, out=args.out, input=args.input, **merged)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    runners = {
        "polymer": run_polymer,
        "bridge": run_bridge,
        "ensemble": run_ensemble,
        "couple": run_couple,
        "stats": run_stats,
    }
    try:
        cfg = _resolve_config(args)
        written = runners[args.command](cfg)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except PrecisionError as exc:
        print(f"precision error: {exc}", file=sys.stderr)
        return 3
    except ResourceLimitError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 4
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
