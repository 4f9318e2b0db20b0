"""Tests of the benchmark's own input generator and output checks."""

import json
import sys

import numpy as np
import pytest

import workloads

sys.path.insert(0, str(workloads.ROOT / "src"))

import grid_islander.cli as cli  # noqa: E402
from grid_islander.matpower import load_case  # noqa: E402
from grid_islander.network import net_injection  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402


def _run_all(scenario, out_dir, *extra):
    code = cli.main(["run-all", "--config", str(scenario),
                     "--out-dir", str(out_dir), *extra])
    assert code == 0
    return out_dir


def test_one_tile_without_ties_is_the_shipped_case(tmp_path):
    scenario = workloads.write_tiled(tmp_path / "tiled", tiles=1, seed=5)
    generated = load_case(tmp_path / "tiled" / "tiled1.m")
    shipped = load_case(workloads.SHIPPED_CASE)
    assert generated.base_mva == shipped.base_mva
    for table in ("bus_table", "gen_table", "branch_table"):
        assert np.array_equal(getattr(generated, table),
                              getattr(shipped, table))

    ours = _run_all(scenario, tmp_path / "ours")
    reference = _run_all(workloads.SHIPPED_SCENARIO, tmp_path / "shipped",
                         "--algorithm", "decentralized", "--mode", "analytic")
    for name in ("partition.json", "metrics.json"):
        assert (ours / name).read_bytes() == (reference / name).read_bytes()


def test_tiling_is_a_function_of_the_seed(tmp_path):
    for name in ("a", "b", "c"):
        workloads.write_tiled(tmp_path / name, tiles=8,
                              seed=7 if name != "c" else 8)
    for path in (tmp_path / "a").iterdir():
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()
    assert ((tmp_path / "a" / "tiled8.m").read_bytes()
            != (tmp_path / "c" / "tiled8.m").read_bytes())


def test_unstable_step_is_refused(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "CENTRAL_DT", 0.01)
    with pytest.raises(ValueError, match="stability"):
        workloads.prepare("ieee118-central", 1, tmp_path / "inputs")


def test_checker_counts_tampered_outputs_as_failures(tmp_path):
    inputs = workloads.prepare("ieee118-decentral", 1, tmp_path / "inputs")
    out = _run_all(inputs["scenario"], tmp_path / "run",
                   "--algorithm", "decentralized", "--mode", "analytic")
    runs = run.Runs()
    assert runs.add(checks.check_run(out, inputs))

    def share_a_bus(partition):
        # A bus with no injection in two islands leaves J1 unchanged, so
        # only the partition validation can catch it.
        node = next(n for n in partition["islands"][1]["nodes"]
                    if net_injection(inputs["network"], n) == 0.0)
        partition["islands"][0]["nodes"].append(node)
        return partition

    def shift_j1(report):
        report["J1"] += 1.0
        return report

    for name, tamper in (("partition.json", share_a_bus),
                         ("metrics.json", shift_j1)):
        original = (out / name).read_text()
        (out / name).write_text(json.dumps(tamper(json.loads(original))))
        assert not runs.add(checks.check_run(out, inputs))
        (out / name).write_text(original)
    assert (runs.attempted, runs.failed) == (3, 2)
