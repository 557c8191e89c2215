"""Experiment runner: polymer / bridge / ensemble / couple / stats subcommands.

Every run is a pure function of (configuration, seed): per-sample generators
are derived by index from the master seed, so the emitted files are
bit-identical across repeat runs and across worker counts, and every file
carries the full effective configuration.  Each subcommand takes, and
records, exactly the options it reads (``_COMMANDS``); any other option is a
usage error.

Exit codes: 0 success, 2 usage error, 3 precision error, 4 resource error.
"""

from __future__ import annotations

import argparse
import math
import sys
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

__all__ = ["RunConfig", "main"]


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


# every option a subcommand may read, by destination: its argparse keywords,
# default included; ``_COMMANDS`` says which subcommand reads which
_OPTIONS = {
    "theta": {"type": float, "default": 1.0},
    "n": {"type": int, "default": 8, "help": "polymer size N"},
    "k": {"type": int, "default": 1, "help": "number of curves"},
    "t": {"type": int, "default": 10, "help": "steps (bridge, ensemble) or time points (couple)"},
    "r": {"type": float, "default": 1.0, "help": "window half-width in N^(2/3) units"},
    "samples": {"type": int, "default": 100},
    "sweeps": {"type": int, "default": 0, "help": "MCMC sweeps; 0 samples by rejection"},
    "grid": {"type": int, "default": 0, "help": "grid resolution; 0 keeps the defaults"},
    "seed": {"type": int, "default": 0},
    "workers": {"type": _at_least_one, "default": 1},
    "format": {"choices": ["csv", "json"], "default": "csv"},
    "y": {"type": float, "default": 0.0, "help": "bridge exit height"},
    "spread": {"type": float, "default": 2.0, "help": "curve ladder spacing"},
    "raise_by": {"type": float, "default": 0.0, "help": "upward shift of the high boundary"},
    "interaction": {"choices": ["exp", "zero"], "default": "exp"},
    "input": {"help": "ensemble CSV to read"},
}


class RunConfig(argparse.Namespace):
    """Effective parameters of one subcommand invocation: ``command``,
    ``out``, ``config`` and the options the subcommand reads."""

    def to_dict(self) -> dict:
        # workers is execution topology, not experiment configuration: results
        # are independent of it, and leaving it out keeps emitted files
        # bit-identical across worker counts; a config file's values are
        # recorded as the options they set
        return {k: v for k, v in vars(self).items() if k not in ("workers", "config")}


def task_seed(master_seed: int, index: int):
    """Index-derived seed material: independent of worker scheduling."""
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(index,)).generate_state(4)


def _task_rng(master_seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(task_seed(master_seed, index))


def _ladder(cfg: RunConfig) -> list[float]:
    """Both end heights of the k curves: 0 (as -0.0) downward, ``spread`` apart."""
    return [-cfg.spread * i for i in range(cfg.k)]


def _ladder_spec(cfg: RunConfig) -> gibbs_mod.EnsembleSpec:
    T, x = cfg.t, _ladder(cfg)
    inter = (
        gibbs_mod.InteractionSpec.exp(0, T)
        if cfg.interaction == "exp"
        else gibbs_mod.InteractionSpec.zero(0, T)
    )
    return gibbs_mod.EnsembleSpec.make(
        1, cfg.k, 0, T, x, x, bridge_mod.HrwSpec.log_gamma(cfg.theta), inter
    )


def _chunk_task(payload):
    """The samples of a contiguous chunk of indices, sample i reading its own
    stream ``_task_rng(seed, i)``: (samples, extra), extra being the rejection
    proposals spent by ``ensemble`` and ``eps_grid`` for ``couple``.
    ``polymer`` makes one call per index, the others one batched call.
    Rejection may spend 10**6 proposals per sample of the chunk in total.
    Every ``couple`` chunk builds its engines on the run's one window, and a
    draw does not depend on its batch."""
    cfg, indices = payload
    rngs = [_task_rng(cfg.seed, int(i)) for i in indices]
    n = len(rngs)
    if cfg.command == "polymer":
        ensembles = [polymer_mod.polymer_line_ensemble(cfg.theta, cfg.n, cfg.k, r) for r in rngs]
        return np.array([ens.curves for ens in ensembles]), 0
    hrw = bridge_mod.HrwSpec.log_gamma(cfg.theta)
    if cfg.command == "couple":
        k, T = cfg.k, cfg.t
        x = _ladder(cfg)
        b_low = coupling_mod.BoundaryTriple(x, x, [-cfg.spread * k] * T)
        # a NaN or infinite --raise-by is refused here as non-finite data, a
        # negative one by ``coupled_gaps`` as unordered data
        b_high = b_low.shifted(cfg.raise_by)
        omega = np.array([rng.uniform(size=k * (T - 2)) for rng in rngs]).reshape(n, k * (T - 2))
        m = cfg.grid or coupling_mod.DEFAULT_COUPLING_GRID_M
        return coupling_mod.coupled_gaps(b_low, b_high, omega, T, hrw, None, m)
    kwargs = {"m": cfg.grid} if cfg.grid else {}
    if cfg.command == "bridge":
        spec = bridge_mod.BridgeSpec(0, cfg.t, 0.0, cfg.y, hrw)
        return bridge_mod.sample_bridges_sequential(spec, n, rngs, **kwargs), 0
    spec = _ladder_spec(cfg)
    if cfg.sweeps > 0:
        return gibbs_mod.sample_ensembles_mcmc(spec, n, cfg.sweeps, rngs, **kwargs), 0
    return gibbs_mod.sample_ensembles_rejection(spec, n, rngs, 10**6 * n, **kwargs)


def _sample_chunks(cfg: RunConfig) -> tuple[np.ndarray, list]:
    """All samples of a run, one `_chunk_task` call per worker, and the extra
    of each call."""
    chunks = np.array_split(np.arange(cfg.samples), min(cfg.workers, max(cfg.samples, 1)))
    payloads = [(cfg, c) for c in chunks]
    if len(payloads) == 1:
        results = [_chunk_task(payloads[0])]
    else:
        from multiprocessing import Pool  # loaded only by runs with workers

        with Pool(processes=len(payloads)) as pool:
            results = pool.map(_chunk_task, payloads)
    return np.concatenate([r[0] for r in results]), [r[1] for r in results]


# ---------------------------------------------------------------- polymer --

def run_polymer(cfg: RunConfig) -> list[str]:
    N, k = cfg.n, cfg.k
    if k < 1 or k > N:
        raise ValueError(f"need 1 <= k <= N, got k={k}, N={N}")
    if cfg.r * N ** (2.0 / 3.0) > N:
        raise ValueError(f"window r={cfg.r} needs r N^(2/3) <= N; reduce r or raise N")
    curves, _ = _sample_chunks(cfg)
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


# ------------------------------------------------ bridge / ensemble / couple --

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
    summary = {"acceptance": {"estimate": z, "grid_m": m, "attempts": int(sum(attempts))}}
    return _emit(cfg, _ensemble_rows(curves, 0), ["sample", "i", "j", "value"], summary)


def run_couple(cfg: RunConfig) -> list[str]:
    gaps, eps_grid = _sample_chunks(cfg)
    rows = [(i, float(v)) for i, v in enumerate(gaps)]
    summary = {
        "max_violation": float(gaps.max(initial=0.0)),
        "n_draws": cfg.samples,
        "grid_m": cfg.grid or coupling_mod.DEFAULT_COUPLING_GRID_M,
        "eps_grid": eps_grid[0],
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


# each subcommand: its runner and the options it reads, besides --out and --config
_COMMANDS = {
    "polymer": (run_polymer, "theta n k r samples grid seed workers format"),
    "bridge": (run_bridge, "theta t y samples grid seed workers format"),
    "ensemble": (
        run_ensemble, "theta k t spread interaction samples sweeps grid seed workers format"
    ),
    "couple": (run_couple, "theta k t spread raise_by samples grid seed workers format"),
    "stats": (run_stats, "input theta n r grid format"),
}


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gibbslines", description="Line-ensemble simulation runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in _COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--out", required=True, help="output path prefix")
        p.add_argument("--config", help="file of key=value lines, read as options before these")
        for key in options.split():
            p.add_argument("--" + key.replace("_", "-"), **_OPTIONS[key])
    return parser


def _parse(argv: list[str]) -> RunConfig:
    """The command line, and a ``--config`` file's ``key=value`` lines placed
    before its options as ``--key=value``, so the command line wins."""
    parser = _build_parser()
    cfg = parser.parse_args(argv, namespace=RunConfig())
    if cfg.config is None:
        return cfg
    try:
        text = Path(cfg.config).read_text()
    except OSError as exc:
        parser.error(f"--config: {exc}")
    file_args = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            file_args.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    return parser.parse_args([argv[0], *file_args, *argv[1:]], namespace=RunConfig())


def main(argv=None) -> int:
    cfg = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        written = _COMMANDS[cfg.command][0](cfg)
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
