import json
from pathlib import Path

import numpy as np
import pytest

from gibbslines import cli


def run(argv):
    return cli.main(argv)


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
        assert doc["acceptance"]["estimate"] == 1.0
        assert doc["acceptance"]["std_error"] == 0.0
        assert doc["acceptance"]["attempts"] == 4

    def test_couple_equal_boundaries_zero_violations(self, tmp_path):
        out = tmp_path / "cpl"
        assert run([
            "couple", "--k", "1", "--t", "4", "--samples", "4", "--seed", "2",
            "--out", str(out),
        ]) == 0
        doc = json.loads((tmp_path / "cpl.json").read_text())
        assert doc["max_violation"] == 0.0
        assert set(doc).issuperset({"max_violation", "n_draws", "grid_m", "eps_grid"})

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
