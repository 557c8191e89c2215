"""The benchmark's own checks: its oracle, its gates and its span recorder.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from gibbslines import bridge, cli, gibbs, grids, polymer  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 3), (3, 4)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_oracle_matches_bruteforce(shape, seed):
    d = polymer.sample_weight_field(1.0, *shape, seed)
    for k in range(1, shape[1] + 1):
        for l in range(1, k + 1):
            for n in range(l, shape[0] + 1):
                exact = oracle.log_tau(d.entries, k, l, n)
                assert abs(exact - polymer.tau_bruteforce(d, k, l, n)) <= 1e-12


def test_oracle_raises_on_nonpositive_determinant():
    one = oracle.ONE
    tables = [[[one, one]], [[one, one]]]  # two equal rows: determinant 0
    with pytest.raises(oracle.OracleError):
        oracle._log_tau(tables, 2, 2, 1)


def test_polymer_gate_rejects_a_small_error():
    wl = workloads.PolymerLines(seed=5, tmp=Path("."))
    seed = workloads.op_seed(5, 0)
    exact = oracle.polymer_log_z(polymer.sample_weight_field, 1.0, wl.N, wl.K_TOP, seed)
    center = 2.0 * wl.N * polymer.scaling_constants(1.0).h_theta_1
    assert wl.check(0, types.SimpleNamespace(curves=exact + center)) is None
    exact[1, 7] += 2e-8
    assert wl.check(0, types.SimpleNamespace(curves=exact + center)) == "oracle_mismatch"


def test_op_seed_is_the_cli_scheme():
    assert np.array_equal(workloads.op_seed(9, 4), cli.task_seed(9, 4))


def test_ks_statistic_against_definition():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=37), rng.normal(0.3, size=51)
    grid = np.linspace(-5.0, 5.0, 200001)
    direct = np.abs((a[:, None] <= grid).mean(0) - (b[:, None] <= grid).mean(0)).max()
    assert workloads.ks_statistic(a, b) == pytest.approx(direct, abs=1e-12)
    assert workloads.ks_critical(100, 100, 1e-3) == pytest.approx(
        math.sqrt(-0.5 * math.log(5e-4)) * math.sqrt(0.02)
    )


def test_tracer_rebinds_everywhere_and_accounts_for_wall_time():
    original = grids.inverse_cdf_rows
    tracer = Tracer()
    tracer.install([
        (bridge, "sample_bridges_sequential", "bridge.sample_bridges_sequential", None),
        (grids, "inverse_cdf_rows", "grids.inverse_cdf_rows", None),
    ])
    try:
        for mod in (grids, bridge, gibbs):
            assert mod.inverse_cdf_rows is not original
        spec = bridge.BridgeSpec(0, 6, 0.0, 1.0, bridge.HrwSpec.log_gamma(1.0))
        tracer.run_op(0, lambda: bridge.sample_bridges_sequential(spec, 4, np.random.default_rng(0)))
        tracer.run_op(1, lambda: bridge.sample_bridge_sequential(spec, np.random.default_rng(1)))
        grids.inverse_cdf_rows(np.linspace(0, 1, 5), np.ones(5), np.array([0.5]))  # outside an op
    finally:
        tracer.uninstall()
    for mod in (grids, bridge, gibbs):
        assert mod.inverse_cdf_rows is original
    assert tracer.counters["bridge.sample_bridges_sequential.calls"] == 2
    assert tracer.counters["grids.inverse_cdf_rows.calls"] == 2 * 5
    assert all(s[3] >= 0 for s in tracer.spans if s[0] == "grids.inverse_cdf_rows")
    self_s = tracer.self_times()
    wall = sum(tracer.op_walls.values())
    assert sum(self_s.values()) + tracer.unattributed() == pytest.approx(wall, rel=1e-9)
    assert all(v >= 0.0 for v in self_s.values())


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == workloads.PER_LAYER
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    for w in spec["workloads"]:
        assert w["name"] in workloads.WORKLOADS
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
