import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gibbslines
from gibbslines import bridge, cli, coupling, gibbs


def run(argv):
    return cli.main(argv)


def data_lines(path):
    """The CSV rows after the metadata block and the header, as bytes."""
    lines = Path(path).read_bytes().splitlines(keepends=True)
    return [l for l in lines if not l.startswith(b"#")][1:]


def csv_values(path):
    return np.array([float(l.split(b",")[-1]) for l in data_lines(path)])


# the three sampling jobs: argv, and one sample drawn alone on index stream i
JOBS = {
    "bridge": (
        ["bridge", "--t", "6", "--y", "0.5"],
        lambda rng: bridge.sample_bridge_sequential(
            bridge.BridgeSpec(0, 6, 0.0, 0.5, bridge.HrwSpec.log_gamma(1.0)), rng
        ),
    ),
    "rejection": (
        ["ensemble", "--k", "2", "--t", "5"],
        lambda rng: gibbs.sample_ensemble_rejection(ladder(2, 5), rng)[0].curves,
    ),
    "mcmc": (
        ["ensemble", "--k", "2", "--t", "5", "--sweeps", "3"],
        lambda rng: gibbs.sample_ensemble_mcmc(ladder(2, 5), 3, rng).curves,
    ),
}


# SHA-256 of the CSV data rows of the benchmark's `couple` operation and of an
# MCMC `ensemble` run
FROZEN_ROWS = [
    (["couple", "--k", "2", "--t", "16", "--raise-by", "0.5", "--samples", "50", "--seed", "0"],
     "9a870fe1e16a6a7629e220da536930d2014e4d4c119436c02e0c56f1d84ccc73"),
    (["couple", "--k", "2", "--t", "16", "--raise-by", "0.5", "--samples", "50", "--seed", "1"],
     "06ffb37edcdf0e041b467449a8dfc87452b623b38cb0655537a3b416b0bb2ded"),
    (["couple", "--k", "2", "--t", "16", "--raise-by", "0.5", "--samples", "50", "--seed", "2"],
     "214a0e1969f9c6650ff2df7802930bfa9adcf2f355de53c73018daad1fd9893a"),
    (["ensemble", "--k", "2", "--t", "8", "--interaction", "exp", "--sweeps", "30",
      "--samples", "8", "--seed", "0"],
     "f86261f0e11b0b6ced5abf5d2094042ff5261caabc7f7e7825c34e726642aae2"),
]


def ladder(k, T):
    x = [-2.0 * i for i in range(k)]
    return gibbs.EnsembleSpec.make(
        1, k, 0, T, x, x, bridge.HrwSpec.log_gamma(1.0), gibbs.InteractionSpec.exp(0, T)
    )


def test_import_leaves_out_scipy_signal_and_stats():
    # scipy.signal, which loads scipy.stats, was most of the cold-start import
    # time of every CLI run; the runtime needs neither.  scipy.fft (n-step
    # tables), scipy.linalg (the GUE oracle) and multiprocessing (--workers)
    # load with their first use, not with the package
    lazy = ("scipy.signal", "scipy.stats", "scipy.fft", "scipy.linalg", "multiprocessing")
    code = f"import sys, gibbslines, gibbslines.cli; print([m for m in {lazy} if m in sys.modules])"
    path = [str(Path(gibbslines.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


class TestDeterminism:
    def test_repeat_runs_bit_identical(self, tmp_path):
        out = tmp_path / "a"
        args = ["polymer", "--n", "4", "--k", "1", "--samples", "6", "--seed", "9",
                "--out", str(out)]
        assert run(args) == 0
        first_csv = (tmp_path / "a.csv").read_bytes()
        first_json = (tmp_path / "a.json").read_bytes()
        assert run(args) == 0
        assert (tmp_path / "a.csv").read_bytes() == first_csv
        assert (tmp_path / "a.json").read_bytes() == first_json

    def test_worker_counts_bit_identical(self, tmp_path):
        out = tmp_path / "b"
        base = ["bridge", "--t", "6", "--samples", "8", "--seed", "5", "--out", str(out)]
        assert run(base + ["--workers", "1"]) == 0
        w1_csv = (tmp_path / "b.csv").read_bytes()
        w1_json = (tmp_path / "b.json").read_bytes()
        assert run(base + ["--workers", "4"]) == 0
        assert (tmp_path / "b.csv").read_bytes() == w1_csv
        assert (tmp_path / "b.json").read_bytes() == w1_json

    @pytest.mark.parametrize("job", ["rejection", "mcmc"])
    def test_ensemble_worker_counts_bit_identical(self, tmp_path, job):
        base = JOBS[job][0] + ["--samples", "7", "--seed", "5", "--out", str(tmp_path / "w")]
        assert run(base + ["--workers", "1"]) == 0
        w1 = [(tmp_path / f"w.{ext}").read_bytes() for ext in ("csv", "json")]
        assert run(base + ["--workers", "2"]) == 0
        assert [(tmp_path / f"w.{ext}").read_bytes() for ext in ("csv", "json")] == w1

    @pytest.mark.parametrize("job", ["bridge", "rejection", "mcmc"])
    def test_rows_match_one_sample_loop(self, tmp_path, job):
        # every sample of the batched run is the draw its index stream gives alone
        argv, one_sample = JOBS[job]
        assert run(argv + ["--samples", "6", "--seed", "4", "--out", str(tmp_path / "j")]) == 0
        loop = [one_sample(cli._task_rng(4, i)) for i in range(6)]
        assert np.array_equal(csv_values(tmp_path / "j.csv"), np.ravel(loop))

    @pytest.mark.parametrize("job", ["bridge", "rejection", "mcmc"])
    def test_sampler_rows_prefix_of_longer_run(self, tmp_path, job):
        data = []
        for n in (3, 7):
            out = tmp_path / f"{job}{n}"
            assert run(JOBS[job][0] + ["--seed", "3", "--samples", str(n), "--out", str(out)]) == 0
            data.append(data_lines(str(out) + ".csv"))
        assert len(data[1]) == 7 * len(data[0]) // 3
        assert data[1][: len(data[0])] == data[0]

    def test_couple_rows_prefix_of_longer_run(self, tmp_path):
        # draw i depends on its own omega only, not on the batch it is drawn in
        data = []
        for n in (3, 7):
            out = tmp_path / f"cpl{n}"
            assert run(["couple", "--k", "2", "--t", "6", "--seed", "3", "--samples", str(n),
                        "--out", str(out)]) == 0
            lines = (tmp_path / f"cpl{n}.csv").read_bytes().splitlines(keepends=True)
            data.append([l for l in lines if not l.startswith(b"#")][1:])
        assert len(data[0]) == 3 and len(data[1]) == 7
        assert data[1][:3] == data[0]

    def test_couple_worker_counts_bit_identical(self, tmp_path):
        # each worker's chunk builds both engines on the run's one window
        base = ["couple", "--k", "2", "--t", "8", "--raise-by", "0.5", "--samples", "7",
                "--seed", "3", "--out", str(tmp_path / "cw")]
        assert run(base + ["--workers", "1"]) == 0
        w1 = [(tmp_path / f"cw.{ext}").read_bytes() for ext in ("csv", "json")]
        assert run(base + ["--workers", "2"]) == 0
        assert [(tmp_path / f"cw.{ext}").read_bytes() for ext in ("csv", "json")] == w1

    @pytest.mark.parametrize("argv,digest", FROZEN_ROWS)
    def test_rows_frozen(self, tmp_path, argv, digest):
        # bit-for-bit performance work keeps these bytes; a change that moves
        # outputs on purpose updates the digests and says which bytes moved
        assert run(argv + ["--out", str(tmp_path / "f")]) == 0
        assert hashlib.sha256(b"".join(data_lines(tmp_path / "f.csv"))).hexdigest() == digest

    def test_csv_format_contract(self, tmp_path):
        out = tmp_path / "c"
        assert run(["polymer", "--n", "4", "--samples", "2", "--out", str(out)]) == 0
        text = (tmp_path / "c.csv").read_text()
        assert "\r" not in text
        lines = text.splitlines()
        meta = [l for l in lines if l.startswith("#")]
        assert any(l.startswith("# seed=") for l in meta)
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == "sample,i,j,value"


class TestPolymerPaperRegime:
    def test_n32_two_curves_runs(self, tmp_path):
        # the paper's regime, where a determinant route loses every digit
        out = tmp_path / "p"
        assert run(["polymer", "--n", "32", "--k", "2", "--samples", "2", "--out", str(out)]) == 0
        assert np.all(np.isfinite(csv_values(tmp_path / "p.csv")))

    def test_n32_three_curves_identical_across_workers(self, tmp_path):
        files = []
        for workers in ("1", "2"):
            assert run(["polymer", "--n", "32", "--k", "3", "--samples", "3", "--seed", "6",
                        "--workers", workers, "--out", str(tmp_path / "w")]) == 0
            files.append([(tmp_path / f"w{ext}").read_bytes()
                          for ext in (".csv", ".json", "_tw_ecdf.csv")])
        assert files[0] == files[1]


class TestUsageErrors:
    def test_window_too_large(self, tmp_path):
        code = run(["polymer", "--n", "4", "--r", "3", "--out", str(tmp_path / "x")])
        assert code == 2

    def test_unknown_subcommand_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    def test_stats_requires_input(self, tmp_path):
        assert run(["stats", "--out", str(tmp_path / "x")]) == 2


class TestSubcommands:
    def test_zero_interaction_acceptance_exactly_one(self, tmp_path):
        out = tmp_path / "ens"
        assert run([
            "ensemble", "--k", "2", "--t", "4", "--samples", "4", "--seed", "1",
            "--interaction", "zero", "--out", str(out),
        ]) == 0
        doc = json.loads((tmp_path / "ens.json").read_text())
        assert doc["acceptance"] == {"estimate": 1.0, "grid_m": 256, "attempts": 4}

    def test_grid_reaches_acceptance_estimate(self, tmp_path):
        for grid, rest in ((None, []), (512, ["--grid", "512"])):
            out = tmp_path / f"grid{grid}"
            assert run(JOBS["rejection"][0] + ["--samples", "2", "--seed", "6", *rest,
                                               "--out", str(out)]) == 0
            acc = json.loads((tmp_path / f"grid{grid}.json").read_text())["acceptance"]
            m = grid or coupling.DEFAULT_COUPLING_GRID_M
            assert acc["grid_m"] == m
            assert acc["estimate"] == gibbs.acceptance_probability(ladder(2, 5), m)
            assert set(acc) == {"estimate", "grid_m", "attempts"}

    def test_acceptance_state_cap_exits_4(self, tmp_path):
        # three curves on the default grid need 256^3 joint states
        out = tmp_path / "cap"
        assert run(["ensemble", "--k", "3", "--t", "4", "--samples", "2",
                    "--out", str(out)]) == 4
        assert not (tmp_path / "cap.json").exists()
        assert run(["ensemble", "--k", "3", "--t", "4", "--samples", "2", "--grid", "128",
                    "--out", str(out)]) == 0

    def test_couple_equal_boundaries_zero_violations(self, tmp_path):
        out = tmp_path / "cpl"
        assert run([
            "couple", "--k", "1", "--t", "4", "--samples", "4", "--seed", "2",
            "--out", str(out),
        ]) == 0
        doc = json.loads((tmp_path / "cpl.json").read_text())
        assert doc["max_violation"] == 0.0
        assert set(doc).issuperset({"max_violation", "n_draws", "grid_m", "eps_grid"})

    @pytest.mark.parametrize("raise_by", ["-0.5", "nan"])
    def test_couple_unordered_boundaries_exit_2(self, tmp_path, raise_by):
        # a lowered boundary pair is not ordered: no violation count can be read off it
        out = tmp_path / "low"
        assert run(["couple", "--k", "2", "--t", "4", "--samples", "2",
                    "--raise-by", raise_by, "--out", str(out)]) == 2
        assert not (tmp_path / "low.json").exists()
        assert run(["couple", "--k", "2", "--t", "4", "--samples", "2",
                    "--raise-by", "0", "--out", str(out)]) == 0

    def test_stats_round_trip(self, tmp_path):
        out = tmp_path / "poly"
        assert run([
            "polymer", "--n", "4", "--k", "2", "--samples", "3", "--seed", "3",
            "--out", str(out),
        ]) == 0
        out2 = tmp_path / "redo"
        assert run([
            "stats", "--input", str(tmp_path / "poly.csv"), "--n", "4", "--k", "2",
            "--seed", "3", "--out", str(out2),
        ]) == 0
        a = json.loads((tmp_path / "poly.json").read_text())
        b = json.loads((tmp_path / "redo.json").read_text())
        for key in ("tw_statistic", "window_sup", "window_inf", "min_gap", "acceptance"):
            assert a[key] == b[key], key

    def test_bridge_endpoints(self, tmp_path):
        out = tmp_path / "br"
        assert run([
            "bridge", "--t", "5", "--samples", "6", "--y", "1.5", "--seed", "4",
            "--out", str(out),
        ]) == 0
        doc = json.loads((tmp_path / "br.json").read_text())
        assert doc["endpoint_exact"] is True

    @pytest.mark.xfail(strict=True, reason=(
        "past about 200 steps a 0 -> 0 bridge is a large deviation for the drift "
        "-digamma(1) per step: G_n(y - u) falls below the FFT noise of the n-step "
        "table, the sampler draws from that noise and a site's support comes out "
        "empty (exit 3); see ROADMAP"))
    def test_long_bridge_runs(self, tmp_path):
        assert run(["bridge", "--t", "300", "--samples", "8", "--seed", "0",
                    "--out", str(tmp_path / "long")]) == 0

    def test_config_file_with_cli_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples=5\nseed=8\nn=4\n")
        out = tmp_path / "cfgd"
        assert run([
            "polymer", "--config", str(cfg), "--samples", "2", "--out", str(out),
        ]) == 0
        doc = json.loads((tmp_path / "cfgd.json").read_text())
        assert doc["config"]["samples"] == 2  # CLI wins
        assert doc["config"]["seed"] == 8  # file beats default
        assert len(doc["tw_statistic"]) == 2

    def test_json_format(self, tmp_path):
        out = tmp_path / "jf"
        assert run([
            "polymer", "--n", "4", "--samples", "2", "--format", "json", "--out", str(out),
        ]) == 0
        assert not (tmp_path / "jf.csv").exists()
        doc = json.loads((tmp_path / "jf.json").read_text())
        assert "rows" in doc

    def test_tw_ecdf_dump(self, tmp_path):
        out = tmp_path / "e"
        assert run(["polymer", "--n", "4", "--samples", "3", "--out", str(out)]) == 0
        lines = (tmp_path / "e_tw_ecdf.csv").read_text().splitlines()
        data = [float(l) for l in lines if not l.startswith("#") and l != "value"]
        assert data == sorted(data) and len(data) == 3

    def test_smoke_run_under_a_minute(self, tmp_path):
        import time

        t0 = time.time()
        assert run([
            "polymer", "--n", "8", "--k", "1", "--samples", "100", "--seed", "1",
            "--out", str(tmp_path / "smoke"),
        ]) == 0
        assert time.time() - t0 < 60.0
