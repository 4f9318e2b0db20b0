"""Command-line pipeline: artifacts, exit codes, determinism."""

import csv
import errno
import hashlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import grid_islander
import grid_islander.cli as cli_module
from grid_islander import (NotConverged, SingularSystem, build_layer,
                           build_network, derivative, integrate, kuramoto,
                           load_case, metrics, sample_initial_conditions)
from grid_islander._forked import usable_cpus
from grid_islander.cli import main
from grid_islander.serialize import sync_table_from_dict

SMALL_CASE = """\
function mpc = case5
mpc.version = '2';
mpc.baseMVA = 100;

mpc.bus = [
\t1\t3\t0\t0\t0\t0\t1\t1.0\t0\t138\t1\t1.1\t0.9;
\t2\t1\t40\t8\t0\t0\t1\t1.0\t0\t138\t1\t1.1\t0.9;
\t3\t1\t60\t12\t0\t0\t1\t1.0\t0\t138\t1\t1.1\t0.9;
\t4\t2\t0\t0\t0\t0\t1\t1.0\t0\t138\t1\t1.1\t0.9;
\t5\t1\t50\t10\t0\t0\t1\t1.0\t0\t138\t1\t1.1\t0.9;
];

mpc.gen = [
\t1\t100\t20\t150\t-150\t1.0\t100\t1\t250\t0;
\t4\t55\t10\t80\t-80\t1.0\t100\t1\t120\t0;
];

mpc.branch = [
\t1\t2\t0.01\t0.06\t0\t250\t250\t250\t0\t0\t1\t-360\t360;
\t2\t3\t0.01\t0.08\t0\t250\t250\t250\t0\t0\t1\t-360\t360;
\t2\t4\t0.01\t0.07\t0\t250\t250\t250\t0\t0\t1\t-360\t360;
\t3\t4\t0.01\t0.09\t0\t250\t250\t250\t0\t0\t1\t-360\t360;
\t4\t5\t0.01\t0.05\t0\t250\t250\t250\t0\t0\t1\t-360\t360;
];
"""


@pytest.fixture
def workspace(tmp_path):
    case = tmp_path / "case5.m"
    case.write_text(SMALL_CASE, encoding="utf-8")
    scenario = {
        "schema_version": 1,
        "case_path": "case5.m",
        "generator_set": [1, 4],
        "initial_islands": [[1], [4]],
        "fault_branches": [],
        "n_mu": 2,
        "seed": 3,
        "ensemble_size": 4,
        "t_max": 20.0,
        "dt": 0.01,
        "rho_threshold": 0.99,
        "algorithm": "centralized",
        "mode": "analytic",
    }
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(scenario, indent=1), encoding="utf-8")
    return tmp_path, cfg


def test_parse_prints_counts(workspace, capsys):
    tmp_path, _ = workspace
    out_json = tmp_path / "network.json"
    rc = main(["parse", str(tmp_path / "case5.m"), "--out", str(out_json)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "5 buses, 5 branches, 2 generators, base 100 MVA" in out
    data = json.loads(out_json.read_text(encoding="utf-8"))
    assert len(data["buses"]) == 5


def test_parse_missing_file_exit_2(tmp_path, capsys):
    rc = main(["parse", str(tmp_path / "ghost.m")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileNotFoundError"
    assert err["exit_code"] == 2


def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.m"
    bad.write_text(SMALL_CASE.replace("\t60\t", "\toops\t"),
                   encoding="utf-8")
    rc = main(["parse", str(bad)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ParseError"


def test_bad_scenario_exit_2(workspace, capsys):
    tmp_path, cfg = workspace
    good = json.loads(cfg.read_text(encoding="utf-8"))
    for key, value in (("rho_threshold", 2.0), ("ensemble_size", 20.7),
                       ("seed", True), ("seed", -3), ("seed", "42"),
                       ("mode", "simulated"),
                       ("n_mu", 3), ("generator_set", [1.5, 4]),
                       ("initial_islands", [[1], [True]]),
                       ("fault_branches", [[4.5, 5]])):
        cfg.write_text(json.dumps(dict(good, **{key: value})),
                       encoding="utf-8")
        rc = main(["sync-times", "--config", str(cfg)])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    # a negative seed is refused before run-all writes any artifact
    cfg.write_text(json.dumps(good), encoding="utf-8")
    for algorithm in ("centralized", "decentralized"):
        out_dir = tmp_path / algorithm
        rc = main(["run-all", "--config", str(cfg), "--seed", "-3",
                   "--algorithm", algorithm, "--out-dir", str(out_dir)])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not out_dir.exists()


def test_unknown_scenario_key_exit_2(workspace, capsys):
    # a misspelt optional key would otherwise run with its default
    tmp_path, cfg = workspace
    data = json.loads(cfg.read_text(encoding="utf-8"))
    cfg.write_text(json.dumps(dict(data, max_staled_rounds=1)),
                   encoding="utf-8")
    for algorithm in ("centralized", "decentralized"):
        out_dir = tmp_path / algorithm
        rc = main(["run-all", "--config", str(cfg), "--algorithm", algorithm,
                   "--out-dir", str(out_dir)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "['max_staled_rounds']" in err["message"]
        assert not out_dir.exists()
    # every optional key is known, the retired ones too
    cfg.write_text(json.dumps(dict(data, max_stalled_rounds=1,
                                   freq_epsilon=0.0)), encoding="utf-8")
    assert main(["run-all", "--config", str(cfg), "--algorithm",
                 "decentralized", "--out-dir", str(tmp_path / "ok")]) == 0


def test_infinite_horizon_exit_2(workspace, capsys):
    # json writes the float as the bare token Infinity, which it reads back
    tmp_path, cfg = workspace
    data = json.loads(cfg.read_text(encoding="utf-8"))
    data["t_max"] = math.inf
    cfg.write_text(json.dumps(data), encoding="utf-8")
    assert "Infinity" in cfg.read_text(encoding="utf-8")
    rc = main(["sync-times", "--config", str(cfg)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_numerical_failures_exit_3(workspace, capsys, monkeypatch):
    tmp_path, cfg = workspace
    import grid_islander.cli as cli_module
    monkeypatch.setattr(cli_module, "load_scenario",
                        lambda path: (_ for _ in ()).throw(
                            NotConverged(20, 1.0)))
    rc = main(["sync-times", "--config", str(cfg)])
    assert rc == 3
    assert json.loads(capsys.readouterr().err)["error"] == "NotConverged"


def test_stalled_partition_exit_4(workspace, capsys):
    tmp_path, cfg = workspace
    # cutting 4-5 strands bus 5 where no seed island can reach it; the
    # disconnected network has no whole-network flow, so run-all grows
    # first and stalls after writing network.json
    data = json.loads(cfg.read_text(encoding="utf-8"))
    data["fault_branches"] = [[4, 5]]
    data["initial_islands"] = [[1], [4]]
    bad = tmp_path / "split.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    for command, left in (("partition", []), ("run-all", ["network.json"])):
        out_dir = tmp_path / command
        out_dir.mkdir()
        rc = main([command, "--config", str(bad), "--algorithm",
                   "decentralized", "--out-dir", str(out_dir)])
        assert rc == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "Stalled"
        assert sorted(path.name for path in out_dir.iterdir()) == left


@pytest.mark.parametrize("algorithm", ["centralized", "decentralized"])
def test_split_grid_run_all_scores_each_component(workspace, capsys,
                                                  algorithm):
    # cutting 1-2 leaves seed bus 1 alone and seed bus 4 with the rest:
    # each component holds a seed island and gets its own flow for J4,
    # and no in-service branch crosses the cut
    tmp_path, cfg = workspace
    data = json.loads(cfg.read_text(encoding="utf-8"))
    data["fault_branches"] = [[1, 2]]
    split = tmp_path / "split.json"
    split.write_text(json.dumps(data), encoding="utf-8")
    out_dir = tmp_path / algorithm
    rc = main(["run-all", "--config", str(split), "--algorithm", algorithm,
               "--out-dir", str(out_dir)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    report = json.loads((out_dir / "metrics.json").read_text(
        encoding="utf-8"))
    assert report["J4"] == 0.0
    assert report["provenance"]["pre_partition_solver"] == "ac"
    assert [row["size"] for row in report["islands"]] == [1, 4]


def _cut_seed_island(command, algorithm, scenario118_path, case118_path,
                     tmp_path, capsys, monkeypatch):
    """Run ``command`` on the shipped scenario with the 9-10 fault, which
    cuts seed island 1 (bus 10 hangs off bus 9 alone): it exits 2 before
    any artifact is written or any ensemble integrated."""
    def refuse(*args, **kwargs):
        raise AssertionError("the ensemble ran before the seed check")

    monkeypatch.setattr(cli_module, "ensemble_sync_times", refuse)
    data = json.loads(scenario118_path.read_text(encoding="utf-8"))
    data.update(case_path=str(case118_path), fault_branches=[[9, 10]],
                ensemble_size=4, t_max=1.0)
    cfg = tmp_path / "cut.json"
    cfg.write_text(json.dumps(data), encoding="utf-8")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    rc = main([command, "--config", str(cfg), "--algorithm", algorithm,
               "--out-dir", str(out_dir)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "ConfigError",
        "message": "initial island 1 is not connected after fault "
                   "[[9, 10]]", "exit_code": 2}
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("algorithm", ["centralized", "decentralized"])
def test_fault_cutting_a_seed_island_exit_2(scenario118_path, case118_path,
                                            tmp_path, capsys, monkeypatch,
                                            algorithm):
    _cut_seed_island("run-all", algorithm, scenario118_path, case118_path,
                     tmp_path, capsys, monkeypatch)


@pytest.mark.parametrize("algorithm", ["centralized", "decentralized"])
def test_partition_refuses_a_cut_seed_island_first(
        scenario118_path, case118_path, tmp_path, capsys, monkeypatch,
        algorithm):
    _cut_seed_island("partition", algorithm, scenario118_path, case118_path,
                     tmp_path, capsys, monkeypatch)


def test_invalid_partition_file_exit_4(workspace, capsys):
    tmp_path, cfg = workspace
    bad_part = {"schema_version": 1,
                "islands": [{"label": 1, "nodes": [1, 2, 3]},
                            {"label": 2, "nodes": [3, 4, 5]}],
                "cut_set": []}
    path = tmp_path / "overlap.json"
    path.write_text(json.dumps(bad_part), encoding="utf-8")
    rc = main(["metrics", "--config", str(cfg), "--partition", str(path)])
    assert rc == 4
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["exit_code"]) == ("_ValidationFailure", 4)


def test_duplicate_label_partition_file_exit_4(workspace, capsys):
    # island 1:{1,3} is disconnected; the second island labelled 1 passes
    # every check and must not hide that
    tmp_path, cfg = workspace
    bad_part = {"islands": [{"label": 1, "nodes": [1, 3]},
                            {"label": 1, "nodes": [2, 4, 5]}],
                "cut_set": []}
    path = tmp_path / "duplicate.json"
    path.write_text(json.dumps(bad_part), encoding="utf-8")
    rc = main(["metrics", "--config", str(cfg), "--partition", str(path)])
    assert rc == 4
    err = json.loads(capsys.readouterr().err)
    assert "island 1 is not connected" in err["message"]


def test_nan_sync_table_exit_2(workspace, capsys):
    tmp_path, cfg = workspace
    edges = [(1, 2), (2, 3), (2, 4), (3, 4), (4, 5)]
    table = tmp_path / "sync_times.json"
    table.write_text(json.dumps({"edges": [
        {"i": i, "j": j, "t_sync": math.nan if (i, j) == (2, 3) else 0.5}
        for i, j in edges]}), encoding="utf-8")
    rc = main(["partition", "--config", str(cfg), "--sync-table", str(table),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "SchemaError"
    assert not (tmp_path / "out" / "steps.json").exists()


def _refuse_growth(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the growth ran with a refused sync table")

    for name in ("ensemble_sync_times", "centralized_partition",
                 "run_decentralized"):
        monkeypatch.setattr(cli_module, name, refuse)


@pytest.mark.parametrize("tripped, dropped, message", [
    # built with fault_branches: [], so it still holds the tripped branch
    (False, None, "holds edge 14-15, which is not in service"),
    # inside seed island 1, so the growth never looks it up
    (True, (9, 10), "lacks in-service edge 9-10"),
    # looked up by the growth, which would stop halfway
    (True, (38, 65), "lacks in-service edge 38-65"),
], ids=["before-the-fault", "inside-a-seed", "looked-up"])
def test_partition_refuses_a_sync_table_of_other_edges(
        scenario118_path, net118, net118_faulted, tmp_path, capsys,
        monkeypatch, tripped, dropped, message):
    edges = (net118_faulted if tripped else net118).edge_set() - {dropped}
    table = tmp_path / "sync_times.json"
    table.write_text(json.dumps({"edges": [
        {"i": i, "j": j, "t_sync": 0.5} for i, j in sorted(edges)]}),
        encoding="utf-8")
    _refuse_growth(monkeypatch)
    out_dir = tmp_path / "out"
    rc = main(["partition", "--config", str(scenario118_path),
               "--algorithm", "centralized", "--sync-table", str(table),
               "--out-dir", str(out_dir)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["message"] == f"sync table {table} {message}"
    assert not out_dir.exists()


def test_decentralized_partition_refuses_a_sync_table(workspace, capsys,
                                                      monkeypatch):
    tmp_path, cfg = workspace
    table = tmp_path / "sync.json"
    assert main(["sync-times", "--config", str(cfg),
                 "--out", str(table)]) == 0
    capsys.readouterr()
    _refuse_growth(monkeypatch)
    out_dir = tmp_path / "out"
    rc = main(["partition", "--config", str(cfg), "--algorithm",
               "decentralized", "--sync-table", str(table),
               "--out-dir", str(out_dir)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "ConfigError",
        "message": "--sync-table is for the centralized algorithm, not "
                   "decentralized", "exit_code": 2}
    assert not out_dir.exists()


def test_run_all_sync_table_holds_the_network_edges(
        scenario118_path, case118_path, net118_faulted, tmp_path):
    # perfbench/checks.py requires every edge of the network in the table
    data = json.loads(scenario118_path.read_text(encoding="utf-8"))
    data.update(case_path=str(case118_path), dt=0.0035, t_max=0.35,
                ensemble_size=4)
    cfg = tmp_path / "short.json"
    cfg.write_text(json.dumps(data), encoding="utf-8")
    assert main(["run-all", "--config", str(cfg), "--algorithm",
                 "centralized", "--out-dir", str(tmp_path / "out")]) == 0
    table = json.loads((tmp_path / "out" / "sync_times.json")
                       .read_text(encoding="utf-8"))
    keys = [(row["i"], row["j"]) for row in table["edges"]]
    assert len(keys) == len(set(keys))
    assert set(keys) == net118_faulted.edge_set()


def test_fractional_ids_in_files_exit_2(workspace, capsys):
    # int() would read node 2.5 as 2, label 1.7 as 1, true as 1, the
    # string "123" as nodes 1, 2 and 3, and i = 1.25 as edge 1-2
    tmp_path, cfg = workspace
    islands = [{"label": 1, "nodes": [1, 2, 3]},
               {"label": 2, "nodes": [4, 5]}]
    for bad in ({"label": 1.7}, {"nodes": [1, 2.5, 3]}, {"nodes": [True, 3]},
                {"nodes": "123"}):
        path = tmp_path / "partition.json"
        path.write_text(json.dumps({"islands": [dict(islands[0], **bad),
                                                islands[1]],
                                    "cut_set": [[3, 4]]}), encoding="utf-8")
        rc = main(["metrics", "--config", str(cfg), "--partition", str(path),
                   "--out", str(tmp_path / "metrics.json")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "SchemaError"
    table = tmp_path / "sync_times.json"
    table.write_text(json.dumps({"edges": [
        {"i": 1.25, "j": 2, "t_sync": 0.5}]}), encoding="utf-8")
    rc = main(["partition", "--config", str(cfg), "--sync-table", str(table),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "SchemaError"
    assert not (tmp_path / "metrics.json").exists()
    assert not (tmp_path / "out").exists()


# Each edit of case118 (old text, new text) gives a number the model cannot
# use: NaN baseMVA or Pd would write NaN, which is not JSON, into
# metrics.json, and int() would read bus 2.5 as bus 2.
@pytest.mark.parametrize("old, new, message", [
    ("mpc.baseMVA = 100;", "mpc.baseMVA = nan;",
     "baseMVA must be finite, got nan"),
    ("\t3\t1\t39\t10\t", "\t3\t1\tNaN\t10\t",
     "bus table row 3 column PD must be finite, got nan"),
    ("\t1\t3\t0.0129\t0.0424\t", "\t1\t3\t0.0129\tInf\t",
     "branch table row 2 column BR_X must be finite, got inf"),
    ("\t2\t1\t20\t9\t", "\t2.5\t1\t20\t9\t",
     "bus table row 2 column BUS_I must be an integer, got 2.5"),
], ids=["nan-base-mva", "nan-pd", "inf-reactance", "fractional-bus-id"])
def test_unusable_case_numbers_exit_2(scenario118_path, case118_path,
                                      tmp_path, capsys, old, new, message):
    text = case118_path.read_text(encoding="utf-8")
    assert text.count(old) == 1
    case = tmp_path / "case118.m"
    case.write_text(text.replace(old, new), encoding="utf-8")
    data = json.loads(scenario118_path.read_text(encoding="utf-8"))
    data.update(case_path=str(case))
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(data), encoding="utf-8")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    rc = main(["run-all", "--config", str(cfg), "--algorithm",
               "decentralized", "--out-dir", str(out_dir)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "SchemaError", "message": message, "exit_code": 2}
    assert list(out_dir.iterdir()) == []


def test_simulate_writes_trajectory(workspace, capsys):
    tmp_path, cfg = workspace
    out = tmp_path / "traj.csv"
    rc = main(["simulate", "--config", str(cfg), "--run", "1",
               "--out", str(out)])
    assert rc == 0
    with open(out, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["t", "node_id", "phase", "frequency"]
    assert len(rows) == 1 + 2001 * 5
    assert rows[1][0] == "0.0" and rows[1][1] == "1"
    # every cell reads back as the exact float
    network = build_network(load_case(tmp_path / "case5.m"), [1, 4])
    layer = build_layer(network, network.node_ids())
    times, phases = integrate(layer,
                              sample_initial_conditions(5, [3, 1]),
                              t_max=20.0, dt=0.01)
    freqs = derivative(layer, phases)
    assert [[float(t), int(node), float(phase), float(freq)]
            for t, node, phase, freq in rows[1:]] == [
        [t, node, phases[k, a], freqs[k, a]]
        for k, t in enumerate(times)
        for a, node in enumerate(layer.node_ids)]
    rc = main(["simulate", "--config", str(cfg), "--run", "9"])
    assert rc == 2   # run index beyond the ensemble


def _csv_writer_bytes(header, rows):
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue().encode("utf-8")


def test_csv_files_have_csv_writer_bytes(workspace):
    tmp_path, cfg = workspace
    trajectory, table = tmp_path / "traj.csv", tmp_path / "st.csv"
    assert main(["simulate", "--config", str(cfg), "--run", "2",
                 "--out", str(trajectory)]) == 0
    network = build_network(load_case(tmp_path / "case5.m"), [1, 4])
    layer = build_layer(network, network.node_ids())
    times, phases = integrate(layer, sample_initial_conditions(5, [3, 2]),
                              t_max=20.0, dt=0.01)
    freqs = derivative(layer, phases)
    assert trajectory.read_bytes() == _csv_writer_bytes(
        ["t", "node_id", "phase", "frequency"],
        ([t, node, phases[k, a], freqs[k, a]]
         for k, t in enumerate(times.tolist())
         for a, node in enumerate(layer.node_ids)))
    assert main(["sync-times", "--config", str(cfg), "--out",
                 str(tmp_path / "st.json"), "--csv", str(table)]) == 0
    entries = sync_table_from_dict(json.loads(
        (tmp_path / "st.json").read_text(encoding="utf-8"))).items()
    assert table.read_bytes() == _csv_writer_bytes(
        ["i", "j", "t_sync"], ([i, j, t] for (i, j), t in entries))


@pytest.mark.parametrize("ensemble_size, run", [
    (4, 1), (4, 3), (5, 1), (5, 4), (3, 2), (1, 0)])
def test_simulate_reports_the_runs_it_integrates(workspace, capsys,
                                                 monkeypatch, ensemble_size,
                                                 run):
    # one integration, of the run's own (n,) initial phases
    tmp_path, cfg = workspace
    data = json.loads(cfg.read_text(encoding="utf-8"))
    data.update(ensemble_size=ensemble_size, t_max=0.1)
    cfg.write_text(json.dumps(data), encoding="utf-8")
    steps = []
    step = kuramoto._Kernel.step
    monkeypatch.setattr(kuramoto._Kernel, "step", lambda self, state, *args: (
        steps.append(state.shape) or step(self, state, *args)))
    rc = main(["simulate", "--config", str(cfg), "--run", str(run)])
    assert rc == 0
    assert steps == [(5, 1)] * 10
    assert capsys.readouterr().out.splitlines()[0] == (
        f"simulated 1 of {ensemble_size} runs x 10 steps on 5 nodes")


def test_simulate_rejects_bad_run_before_integrating(workspace, capsys,
                                                     monkeypatch):
    tmp_path, cfg = workspace
    import grid_islander.cli as cli_module

    def no_integration(*args, **kwargs):
        raise AssertionError("integrated an ensemble for a bad run index")

    monkeypatch.setattr(cli_module, "integrate", no_integration)
    rc = main(["simulate", "--config", str(cfg), "--run", "9"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["message"] == "run index 9 out of range (ensemble has 4)"

def test_sync_times_artifacts(workspace):
    tmp_path, cfg = workspace
    out_json = tmp_path / "st.json"
    out_csv = tmp_path / "st.csv"
    rc = main(["sync-times", "--config", str(cfg), "--out", str(out_json),
               "--csv", str(out_csv)])
    assert rc == 0
    table = json.loads(out_json.read_text(encoding="utf-8"))
    assert len(table["edges"]) == 5
    with open(out_csv, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["i", "j", "t_sync"]
    assert len(rows) == 6
    # a horizon too short for edge 1-2 to sync
    data = json.loads(cfg.read_text(encoding="utf-8"))
    data.update(t_max=0.15)
    cfg.write_text(json.dumps(data), encoding="utf-8")
    rc = main(["sync-times", "--config", str(cfg), "--csv", str(out_csv)])
    assert rc == 0
    with open(out_csv, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[1:] == [["1", "2", "inf"], ["2", "3", "0.13"],
                        ["2", "4", "0.11"], ["3", "4", "0.12"],
                        ["4", "5", "0.1"]]


def test_run_all_centralized_artifacts(workspace, capsys):
    tmp_path, cfg = workspace
    out_dir = tmp_path / "run"
    rc = main(["run-all", "--config", str(cfg), "--out-dir", str(out_dir)])
    assert rc == 0
    for name in ("network.json", "sync_times.json", "partition.json",
                 "steps.json", "metrics.json", "run_manifest.json"):
        assert (out_dir / name).exists(), name
    printed = capsys.readouterr().out
    assert "J1=" in printed and "J4=" in printed
    manifest = json.loads((out_dir / "run_manifest.json")
                          .read_text(encoding="utf-8"))
    assert manifest["schema_version"] == 1
    assert manifest["seed"] == 3
    assert manifest["algorithm"] == "centralized"
    want_hash = hashlib.sha256(cfg.read_bytes()).hexdigest()
    assert manifest["scenario_hash"] == want_hash
    assert manifest["artifacts"]["metrics"] == "metrics.json"
    part = json.loads((out_dir / "partition.json")
                      .read_text(encoding="utf-8"))
    covered = sorted(n for isl in part["islands"] for n in isl["nodes"])
    assert covered == [1, 2, 3, 4, 5]


def test_run_all_decentralized_uses_events_log(workspace):
    tmp_path, cfg = workspace
    out_dir = tmp_path / "runs"
    rc = main(["run-all", "--config", str(cfg), "--algorithm",
               "decentralized", "--out-dir", str(out_dir)])
    assert rc == 0
    assert (out_dir / "events.json").exists()
    assert not (out_dir / "sync_times.json").exists()
    log = json.loads((out_dir / "events.json").read_text(encoding="utf-8"))
    assert log["rounds"] >= 1
    assert log["evaluation_bound"] == 2 + 2 * 3
    assert all(c <= log["evaluation_bound"]
               for c in log["layer_evaluations"])


# sha256 of events.json from decentralized run-all on the shipped
# scenario. perfbench/digests.json records the sha256 of the earlier
# format, with a snapshot event per evaluation, for ieee118-decentral.
SHIPPED_EVENTS_SHA256 = (
    "102c3505dcf50fcd8d21827dad32370f86e365bb3bb11858c5079482d6899695")
# sha256 of network.json from run-all on the shipped case and fault, by
# either algorithm at any seed, dt or horizon: its bytes come from parse
# and build only. metrics.json is not pinned: its LAPACK and SIMD complex
# arithmetic may round differently on another CPU.
SHIPPED_NETWORK_SHA256 = (
    "b27e03349f4474bc1537411e5795dba3f73dafa42a0f8e4bd8e1c6c3dfb7a9ef")


def test_shipped_decentralized_events_are_pinned(scenario118_path,
                                                 tmp_path):
    rc = main(["run-all", "--config", str(scenario118_path),
               "--algorithm", "decentralized", "--out-dir", str(tmp_path)])
    assert rc == 0
    events = (tmp_path / "events.json").read_bytes()
    assert hashlib.sha256(events).hexdigest() == SHIPPED_EVENTS_SHA256
    network = (tmp_path / "network.json").read_bytes()
    assert hashlib.sha256(network).hexdigest() == SHIPPED_NETWORK_SHA256
    # each of the 85 free buses is evaluated once and joins; both islands
    # meet the J1 bound of surplus / n_mu and have an AC solution
    log = json.loads(events)
    assert (log["rounds"], log["fallback_nodes"]) == (4, [])
    assert Counter(e["action"] for e in log["events"]) == \
        {"estimate": 85, "join": 85}
    metrics = json.loads((tmp_path / "metrics.json").read_text("utf-8"))
    assert round(metrics["J1"], 1) == 67.7
    assert [(isl["size"], isl["solver"]) for isl in metrics["islands"]] == \
        [(39, "ac"), (79, "ac")]


# sha256 of events.json, network.json and partition.json from
# decentralized run-all on four tie-linked copies of case118 (perfbench's
# tiling at its fixed seed): 5 rounds, and bus 3039 is left to the
# fallback, where the shipped run and two copies need none.
TILED4_SHA256 = {
    "events.json":
        "b106a974ba34bec438b205b9430e56e0e9c369a44c488e529799058322fc5ecd",
    "network.json":
        "28cef1850e937eac459e06e9321205fc74050c65cc8c63b38ef02437e79dfb8d",
    "partition.json":
        "038812e92a0430590c63826fa1a68359f19c4d11c0c4466f8ee7783fd4664787",
}


def test_tiled_decentralized_fallback_is_pinned(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "perfbench"))
    import workloads

    scenario = workloads.write_tiled(tmp_path / "in", 4,
                                     workloads.TILING_SEED)
    out_dir = tmp_path / "out"
    rc = main(["run-all", "--config", str(scenario),
               "--algorithm", "decentralized", "--out-dir", str(out_dir)])
    assert rc == 0
    log = json.loads((out_dir / "events.json").read_text(encoding="utf-8"))
    assert (log["rounds"], log["fallback_nodes"]) == (5, [3039])
    assert {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in TILED4_SHA256} == TILED4_SHA256


def test_metrics_command_rewrites_run_all_bytes_on_tiled8(tmp_path,
                                                        monkeypatch):
    """``metrics --partition`` on run-all's own partition of the 944-bus
    tiling writes run-all's metrics.json, byte for byte: no island's
    imbalance depends on the order its node set was built in."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "perfbench"))
    import workloads

    scenario = workloads.write_tiled(tmp_path / "in", 8,
                                     workloads.TILING_SEED)
    out_dir, again = tmp_path / "out", tmp_path / "again.json"
    assert main(["run-all", "--config", str(scenario), "--algorithm",
                 "decentralized", "--out-dir", str(out_dir)]) == 0
    assert main(["metrics", "--config", str(scenario), "--partition",
                 str(out_dir / "partition.json"), "--out", str(again)]) == 0
    assert again.read_bytes() == (out_dir / "metrics.json").read_bytes()


# sha256 of steps.json from centralized growth on the shipped scenario at
# a stable step (dt = 0.0035, t_max = 35, seed 42): each step records the
# islands' running injection sums.
STABLE_STEPS_SHA256 = (
    "657020b8352d57da47ab302a9a3bd0d510bd279f65a3604786efb28b45e96968")


def test_stable_centralized_steps_are_pinned(scenario118_path, case118_path,
                                             tmp_path):
    data = json.loads(scenario118_path.read_text(encoding="utf-8"))
    data.update(case_path=str(case118_path), dt=0.0035, t_max=35.0, seed=42)
    cfg = tmp_path / "stable.json"
    cfg.write_text(json.dumps(data), encoding="utf-8")
    out_dir = tmp_path / "out"
    rc = main(["partition", "--config", str(cfg), "--algorithm",
               "centralized", "--out-dir", str(out_dir)])
    assert rc == 0
    steps = (out_dir / "steps.json").read_bytes()
    assert hashlib.sha256(steps).hexdigest() == STABLE_STEPS_SHA256


# sha256 of sync_times.json from centralized run-all on the shipped
# scenario at a stable step (dt = 0.0035, t_max = 35, 20 runs), where the
# lock certificate stops the scan early, by seed. The same with one
# usable CPU and two.
STABLE_SYNC_SHA256 = {
    1: "e57f24b220143bf15a458a2fb96553cd497c058e5208f8cba9922f46e6ea62c0",
    42: "2b825c5a5f2c73db6f080f130a8429a0d43117d0b80d8e43d17c2732e04f4bcb",
}


@pytest.mark.parametrize("seed", sorted(STABLE_SYNC_SHA256))
def test_stable_sync_table_is_pinned(scenario118_path, case118_path,
                                     monkeypatch, tmp_path, seed):
    data = json.loads(scenario118_path.read_text(encoding="utf-8"))
    data.update(case_path=str(case118_path), dt=0.0035, t_max=35.0,
                seed=seed)
    cfg = tmp_path / "stable.json"
    cfg.write_text(json.dumps(data), encoding="utf-8")
    for cpus in (1, 2):
        _use_cpus(monkeypatch, cpus)
        out_dir = tmp_path / f"cpus{cpus}"
        rc = main(["run-all", "--config", str(cfg), "--out-dir",
                   str(out_dir)])
        assert rc == 0
        table = (out_dir / "sync_times.json").read_bytes()
        assert hashlib.sha256(table).hexdigest() == STABLE_SYNC_SHA256[seed]
        network = (out_dir / "network.json").read_bytes()
        assert hashlib.sha256(network).hexdigest() == SHIPPED_NETWORK_SHA256


def test_traced_run_all_exits_0(scenario118_path, tmp_path, monkeypatch):
    # the benchmark's --trace 1 wraps library names where cli and
    # decentralized look them up; a rename there breaks tracing
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "perfbench"))
    import spans

    tracer = spans.Tracer()
    with tracer.installed():
        rc = main(["run-all", "--config", str(scenario118_path),
                   "--algorithm", "decentralized",
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    table = spans.summary(tracer.spans)
    assert table["network.apply_fault"]["calls"] == 1
    assert table["decentralized.run"]["calls"] == 1


def test_shipped_events_record_each_fact_once(scenario118_path, tmp_path):
    rc = main(["run-all", "--config", str(scenario118_path),
               "--algorithm", "decentralized", "--out-dir", str(tmp_path)])
    assert rc == 0
    log = json.loads((tmp_path / "events.json").read_text(encoding="utf-8"))
    for event in log["events"]:
        payload = event["payload"]
        if event["action"] == "estimate":
            assert set(payload) == {"islands", "estimates"}
            assert set(payload["islands"]) == set(payload["estimates"])
        else:
            assert set(payload) == {"island", "reason", "island_freq"}
    manifest = json.loads((tmp_path / "run_manifest.json")
                          .read_text(encoding="utf-8"))
    assert "mode" not in manifest


@pytest.mark.parametrize("algorithm, count", [("centralized", 6),
                                              ("decentralized", 5)])
def test_run_all_artifacts_are_json_dumps_bytes(scenario118_path, tmp_path,
                                                algorithm, count):
    rc = main(["run-all", "--config", str(scenario118_path),
               "--algorithm", algorithm, "--out-dir", str(tmp_path)])
    assert rc == 0
    artifacts = sorted(tmp_path.glob("*.json"))
    assert len(artifacts) == count
    for path in artifacts:
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2) + "\n", \
            path.name


def test_partition_reuses_sync_table(workspace):
    tmp_path, cfg = workspace
    first = tmp_path / "first"
    rc = main(["run-all", "--config", str(cfg), "--out-dir", str(first)])
    assert rc == 0
    second = tmp_path / "second"
    rc = main(["partition", "--config", str(cfg),
               "--sync-table", str(first / "sync_times.json"),
               "--out-dir", str(second)])
    assert rc == 0
    a = (first / "partition.json").read_bytes()
    b = (second / "partition.json").read_bytes()
    assert a == b


def test_metrics_command_summary_line(workspace, capsys):
    tmp_path, cfg = workspace
    out_dir = tmp_path / "m"
    main(["run-all", "--config", str(cfg), "--out-dir", str(out_dir)])
    capsys.readouterr()
    report_path = tmp_path / "report.json"
    rc = main(["metrics", "--config", str(cfg),
               "--partition", str(out_dir / "partition.json"),
               "--out", str(report_path)])
    assert rc == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("J1=")
    assert "J2=" in line and "J3=" in line and "J4=" in line
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert set(report) >= {"J1", "J2", "J3", "J4", "islands", "provenance"}


def test_same_seed_same_bytes(workspace):
    tmp_path, cfg = workspace
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run-all", "--config", str(cfg),
                 "--out-dir", str(out_a)]) == 0
    assert main(["run-all", "--config", str(cfg),
                 "--out-dir", str(out_b)]) == 0
    for name in ("network.json", "sync_times.json", "partition.json",
                 "steps.json", "metrics.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), \
            name
    # manifests match except for their timestamps
    ma = json.loads((out_a / "run_manifest.json").read_text("utf-8"))
    mb = json.loads((out_b / "run_manifest.json").read_text("utf-8"))
    ma.pop("created_utc")
    mb.pop("created_utc")
    assert ma == mb


def test_seed_override_changes_sync_times(workspace):
    tmp_path, cfg = workspace
    out_a = tmp_path / "sa"
    out_b = tmp_path / "sb"
    assert main(["run-all", "--config", str(cfg),
                 "--out-dir", str(out_a)]) == 0
    assert main(["run-all", "--config", str(cfg), "--seed", "4",
                 "--out-dir", str(out_b)]) == 0
    a = json.loads((out_a / "sync_times.json").read_text("utf-8"))
    b = json.loads((out_b / "sync_times.json").read_text("utf-8"))
    assert a != b
    mb = json.loads((out_b / "run_manifest.json").read_text("utf-8"))
    assert mb["seed"] == 4



# Library calls of the CLI stages, counted by patching their names in
# grid_islander.cli as perfbench/spans.py does. The stored-trajectory pair
# (ensemble_integrate, sync_times) is counted too: no subcommand calls it.
_STAGES = ("build_layer", "ensemble_integrate", "sync_times",
           "ensemble_sync_times", "integrate", "centralized_partition",
           "run_decentralized", "compute_metrics")


@pytest.mark.parametrize("argv, calls, artifacts", [
    (["run-all"],
     {"build_layer": 1, "ensemble_sync_times": 1,
      "centralized_partition": 1, "compute_metrics": 1},
     ["network", "sync_times", "partition", "steps", "metrics"]),
    (["run-all", "--algorithm", "decentralized"],
     {"run_decentralized": 1, "compute_metrics": 1},
     ["network", "partition", "events", "metrics"]),
    (["partition", "--sync-table", "SYNC"],
     {"centralized_partition": 1}, ["partition", "steps"]),
    (["sync-times", "--out", "SYNC"],
     {"build_layer": 1, "ensemble_sync_times": 1}, None),
    (["simulate", "--run", "1"], {"build_layer": 1, "integrate": 1},
     None),
    (["partition"],
     {"build_layer": 1, "ensemble_sync_times": 1,
      "centralized_partition": 1}, ["partition", "steps"]),
])
def test_pipeline_stage_calls(workspace, monkeypatch, argv, calls,
                              artifacts):
    tmp_path, cfg = workspace
    sync_path = str(tmp_path / "sync.json")
    assert main(["sync-times", "--config", str(cfg),
                 "--out", sync_path]) == 0
    import grid_islander.cli as cli_module
    counts = dict.fromkeys(_STAGES, 0)
    for name in _STAGES:
        def counted(*args, _name=name, _func=getattr(cli_module, name),
                    **kwargs):
            counts[_name] += 1
            return _func(*args, **kwargs)
        monkeypatch.setattr(cli_module, name, counted)
    out_dir = tmp_path / "out"
    argv = [sync_path if arg == "SYNC" else arg for arg in argv]
    if artifacts is not None:
        argv += ["--out-dir", str(out_dir)]
    assert main([*argv, "--config", str(cfg)]) == 0
    assert counts == {**dict.fromkeys(_STAGES, 0), **calls}
    if artifacts is not None:
        manifest = json.loads((out_dir / "run_manifest.json")
                              .read_text(encoding="utf-8"))
        assert list(manifest["artifacts"]) == artifacts

def _run_cli(args, env_extra=None, before_exit="pass", stdin=None,
             before_main="pass"):
    # the child imports the same package this test imported
    package_root = str(Path(grid_islander.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    code = (f"import sys\nfrom grid_islander.cli import main\n{before_main}\n"
            f"rc = main(sys.argv[1:])\n{before_exit}\nsys.exit(rc)")
    return subprocess.run([sys.executable, "-c", code, *args], input=stdin,
                          capture_output=True, text=True, env=env)


@pytest.mark.skipif(not os.path.exists("/dev/stdin"),
                    reason="no /dev/stdin to read the scenario from")
def test_manifest_hashes_a_piped_scenario_as_parsed(workspace):
    # a pipe can be read once: the manifest hashes the bytes the run
    # parsed, not an empty second read of --config
    tmp_path, cfg = workspace
    data = json.loads(cfg.read_text(encoding="utf-8"))
    data["case_path"] = str(tmp_path / data["case_path"])
    piped = json.dumps(data, indent=1)
    out_dir = tmp_path / "piped"
    proc = _run_cli(["run-all", "--config", "/dev/stdin", "--out-dir",
                     str(out_dir)], stdin=piped)
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((out_dir / "run_manifest.json")
                          .read_text(encoding="utf-8"))
    assert manifest["scenario_hash"] == \
        hashlib.sha256(piped.encode("utf-8")).hexdigest()


def test_parse_and_decentralized_runs_skip_lazy_imports(
        workspace, case118_path, scenario118_path):
    # The lock proof and the phase stream are imported inside the
    # functions that need them, which keeps their import time and memory
    # out of these commands; no command imports multiprocessing,
    # numpy.random (the phases are drawn in the package), numpy.ma
    # (np.unique imports it, about 1 MB of RSS) or _hashlib, nor maps
    # OpenSSL (the manifest's scenario hash is CPython's built-in sha256).
    # parse loads neither numpy nor the oscillator, flow, scoring and
    # growth modules.
    tmp_path, cfg = workspace
    heavy = ("numpy", "grid_islander.kuramoto", "grid_islander._forked",
             "grid_islander.powerflow", "grid_islander.metrics",
             "grid_islander.centralized", "grid_islander.decentralized")
    lazy = ("grid_islander._certificate", "grid_islander._pcg64",
            "multiprocessing", "_hashlib", "numpy.ma", "numpy.random",
            *heavy)
    never = {"multiprocessing", "_hashlib", "numpy.ma", "numpy.random"}
    maps = Path("/proc/self/maps")
    probe = (f"print(*(m for m in {lazy!r} if m in sys.modules)); "
             f"import pathlib; maps = pathlib.Path({str(maps)!r}); "
             "print(*(line.split()[-1] for line in "
             "(maps.read_text().splitlines() if maps.exists() else ()) "
             "if 'libcrypto' in line or 'libssl' in line))")

    def loaded(args):
        proc = _run_cli(args, before_exit=probe)
        assert proc.returncode == 0, proc.stderr
        modules, openssl = proc.stdout.splitlines()[-2:]
        assert not openssl, openssl
        return set(modules.split())

    assert loaded(["parse", str(case118_path)]) == set()
    assert loaded(["parse", str(case118_path),
                   "--out", str(tmp_path / "network.json")]) == set()
    assert (tmp_path / "network.json").is_file()
    decentralized = loaded(
        ["run-all", "--config", str(scenario118_path), "--algorithm",
         "decentralized", "--out-dir", str(tmp_path / "decentralized")])
    assert "grid_islander._certificate" not in decentralized
    assert "grid_islander._pcg64" not in decentralized
    assert not never & decentralized
    centralized = loaded(["run-all", "--config", str(cfg), "--out-dir",
                          str(tmp_path / "centralized")])
    assert not never & centralized
    # the probe sees the proof and the stream where a sync table is scanned
    assert "grid_islander._certificate" in centralized
    assert "grid_islander._pcg64" in centralized
    for algorithm in ("centralized", "decentralized"):
        grown = loaded(["partition", "--config", str(cfg), "--algorithm",
                        algorithm, "--out-dir", str(tmp_path / algorithm)])
        assert not never & grown
    table = loaded(["sync-times", "--config", str(cfg), "--out",
                    str(tmp_path / "sync_times.json")])
    assert not never & table
    assert "grid_islander._pcg64" in table
    if not maps.exists():
        pytest.skip("no /proc/self/maps: OpenSSL mappings not checked")


def test_first_binding_keeps_wrappers_set_before_it(workspace):
    # A fresh process: cli binds its stage names for the first time in
    # main, after the wrappers are set, and must keep them. One wrapper
    # is set without a lookup through cli, one after a tracer's getattr.
    tmp_path, cfg = workspace
    setup = """
import json
import grid_islander.cli as cli
from grid_islander.metrics import compute_metrics
counts = {"compute_metrics": 0, "ensemble_sync_times": 0}
assert not counts.keys() & vars(cli).keys()
def counted(name, func):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return func(*args, **kwargs)
    return wrapper
cli.compute_metrics = counted("compute_metrics", compute_metrics)
cli.ensemble_sync_times = counted("ensemble_sync_times",
                                  getattr(cli, "ensemble_sync_times"))
"""
    argv = ["run-all", "--config", str(cfg), "--out-dir"]
    proc = _run_cli([*argv, str(tmp_path / "wrapped")], before_main=setup,
                    before_exit="print(json.dumps(counts))")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "compute_metrics": 1, "ensemble_sync_times": 1}
    assert main([*argv, str(tmp_path / "plain")]) == 0
    for path in (tmp_path / "plain").iterdir():
        if path.name != "run_manifest.json":
            assert (tmp_path / "wrapped" / path.name).read_bytes() \
                == path.read_bytes(), path.name


def test_package_names_resolve_lazily():
    # every public name is its submodule's object, on first use
    for module, names in grid_islander._EXPORTS.items():
        source = importlib.import_module(f"grid_islander.{module}")
        assert getattr(grid_islander, module) is source
        for name in names:
            assert getattr(grid_islander, name) is getattr(source, name)
    assert len(set(grid_islander.__all__)) == len(grid_islander.__all__)
    assert set(grid_islander.__all__) <= set(dir(grid_islander))
    namespace = {}
    exec("from grid_islander import *", namespace)
    del namespace["__builtins__"]
    assert namespace.keys() == set(grid_islander.__all__)


@pytest.mark.parametrize("module", [grid_islander, cli_module],
                         ids=["grid_islander", "cli"])
def test_unknown_attribute_raises_attribute_error(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(module, "no_such_name")
    assert not hasattr(module, "no_such_name")


@pytest.mark.skipif(usable_cpus() < 2,
                    reason="one usable CPU gives BLAS one thread anyway")
def test_metrics_bytes_do_not_depend_on_blas_threads(
        scenario118_path, case118_path, tmp_path):
    # OpenBLAS sizes its pool from the usable CPUs, and a two-thread solve
    # of the 82-bus island's flow gives other bits than a one-thread one;
    # the package defaults both thread variables to 1 before numpy loads.
    data = json.loads(scenario118_path.read_text(encoding="utf-8"))
    data.update(case_path=str(case118_path), dt=0.0035, t_max=35.0, seed=1,
                algorithm="centralized")
    cfg = tmp_path / "stable.json"
    cfg.write_text(json.dumps(data), encoding="utf-8")
    package_root = str(Path(grid_islander.__file__).parents[1])
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    written = []
    for threads in ({}, {"OPENBLAS_NUM_THREADS": "1",
                         "OMP_NUM_THREADS": "1"}):
        out_dir = tmp_path / f"out{len(written)}"
        proc = subprocess.run(
            [sys.executable, "-m", "grid_islander.cli", "run-all",
             "--config", str(cfg), "--out-dir", str(out_dir)],
            capture_output=True, text=True, env={**env, **threads})
        assert proc.returncode == 0, proc.stderr
        written.append((out_dir / "metrics.json").read_bytes())
    assert written[0] == written[1]


def test_log_env_variable_controls_verbosity(workspace):
    tmp_path, cfg = workspace
    out_dir = tmp_path / "quiet"
    quiet = _run_cli(["partition", "--config", str(cfg),
                      "--out-dir", str(out_dir)])
    assert quiet.returncode == 0
    assert "step 1" not in quiet.stderr
    chatty = _run_cli(["partition", "--config", str(cfg),
                       "--out-dir", str(tmp_path / "loud")],
                      {"GRID_ISLANDER_LOG": "debug"})
    assert chatty.returncode == 0
    assert "island" in chatty.stderr   # debug step log is visible


def test_debug_log_gives_each_ac_flow(workspace):
    """One debug line per AC flow, shown only at GRID_ISLANDER_LOG=debug;
    stdout and the artifacts are the same at the default level."""
    tmp_path, cfg = workspace
    runs = {level: _run_cli(["run-all", "--config", str(cfg),
                             "--out-dir", str(tmp_path / level)],
                            {"GRID_ISLANDER_LOG": level})
            for level in ("warn", "debug")}
    assert [run.returncode for run in runs.values()] == [0, 0]
    assert "AC flow" not in runs["warn"].stderr
    flows = [line for line in runs["debug"].stderr.splitlines()
             if line.startswith("DEBUG grid_islander.powerflow: AC flow: ")]
    assert len(flows) == 3      # the whole network and two islands
    assert flows[0].startswith("DEBUG grid_islander.powerflow: AC flow: 5 "
                               "buses, 7 unknowns in 1 blocks (largest 7), "
                               "3 iterations, mismatch ")
    assert (runs["warn"].stdout.replace(str(tmp_path / "warn"), "out")
            == runs["debug"].stdout.replace(str(tmp_path / "debug"), "out"))
    names = sorted(path.name for path in (tmp_path / "warn").iterdir())
    assert names == sorted(path.name
                           for path in (tmp_path / "debug").iterdir())
    for name in names:
        if name != "run_manifest.json":
            assert ((tmp_path / "warn" / name).read_bytes()
                    == (tmp_path / "debug" / name).read_bytes()), name


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "grid-islander" in capsys.readouterr().out


# The upper half of a sync-time ensemble runs in a forked child when two
# CPUs are usable; nothing else forks. One usable CPU and two must give the
# same exit code, stdout, stderr and artifacts.

def _use_cpus(monkeypatch, cpus):
    """The ensemble's fork site sees ``cpus``."""
    monkeypatch.setattr(kuramoto, "_usable_cpus", lambda: cpus)


def _count_forks(monkeypatch):
    """Pids forked from now on."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def _whole_network_flow(monkeypatch, replacement):
    """Make ``metrics.ac_power_flow(network, None)`` call ``replacement``
    instead; island flows are solved as before."""
    solve = metrics.ac_power_flow

    def patched(network, nodes=None):
        if nodes is None:
            return replacement(network)
        return solve(network, nodes)

    monkeypatch.setattr(metrics, "ac_power_flow", patched)


def _outcome(argv, out_dir, capsys, caplog):
    """Exit code, stdout, stderr and artifacts of ``main(argv)``.

    Under pytest the log records go to ``caplog``, not stderr; the CLI
    prints them, in its format, before its JSON error line.
    """
    out_dir.mkdir(parents=True)
    capsys.readouterr()
    caplog.clear()
    code = main([arg.replace("OUT", str(out_dir)) for arg in argv])
    captured = capsys.readouterr()
    stderr = [f"{r.levelname} {r.name}: {r.getMessage()}"
              for r in caplog.records] + captured.err.splitlines()
    artifacts = {path.name: path.read_bytes()
                 for path in sorted(out_dir.iterdir())}
    if "run_manifest.json" in artifacts:
        manifest = json.loads(artifacts["run_manifest.json"])
        manifest.pop("created_utc")
        artifacts["run_manifest.json"] = manifest
    return (code, captured.out.replace(str(out_dir), "OUT"),
            [line.replace(str(out_dir), "OUT") for line in stderr],
            artifacts)


def _one_and_two_cpus(monkeypatch, capsys, caplog, tmp_path, argv,
                      forks_with_two):
    """The outcome of ``argv`` with one usable CPU, after checking that
    two give the same and fork ``forks_with_two`` children (one none)."""
    outcomes = []
    for cpus, want_forks in ((1, 0), (2, forks_with_two)):
        _use_cpus(monkeypatch, cpus)
        forks = _count_forks(monkeypatch)
        outcomes.append(_outcome(argv, tmp_path / f"cpus{cpus}", capsys,
                                 caplog))
        assert len(forks) == want_forks
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


@pytest.mark.parametrize("algorithm, forks", [("decentralized", 0),
                                               ("centralized", 1)])
def test_flow_not_converged_falls_back_before_island_warnings(
        workspace, monkeypatch, capsys, caplog, algorithm, forks):
    tmp_path, cfg = workspace

    def not_converged(network, nodes=None):
        raise NotConverged(20, 1.5)

    monkeypatch.setattr(metrics, "ac_power_flow", not_converged)
    code, _, stderr, artifacts = _one_and_two_cpus(
        monkeypatch, capsys, caplog, tmp_path,
        ["run-all", "--config", str(cfg), "--algorithm", algorithm,
         "--out-dir", "OUT"], forks)
    assert code == 0
    fallback = ("WARNING grid_islander.metrics: {}: AC flow did not "
                "converge (no convergence after 20 iterations (max "
                "mismatch 1.500e+00)); using DC")
    # run-all solves the whole-network flow before the growth
    assert stderr == [fallback.format(what) for what in
                      ("pre-partition network", "island 1", "island 2")]
    report = json.loads(artifacts["metrics.json"])
    assert report["provenance"]["pre_partition_solver"] == "dc"


def test_flow_singular_system_exit_3(workspace, monkeypatch, capsys,
                                     caplog):
    # the whole-network flow fails before the growth and any artifact
    tmp_path, cfg = workspace

    def singular(network):
        raise SingularSystem("power-flow Jacobian is singular")

    _whole_network_flow(monkeypatch, singular)
    code, _, stderr, artifacts = _one_and_two_cpus(
        monkeypatch, capsys, caplog, tmp_path,
        ["run-all", "--config", str(cfg), "--algorithm", "decentralized",
         "--out-dir", "OUT"], 0)
    assert code == 3
    assert [json.loads(line) for line in stderr] == [
        {"error": "SingularSystem",
         "message": "power-flow Jacobian is singular", "exit_code": 3}]
    assert artifacts == {}


# sha256 of sync_times.json from centralized run-all on the shipped
# scenario as shipped (dt = 0.01): RK4 leaves its stability interval, the
# certificate declines and the scan runs all 10,000 steps.
SHIPPED_SYNC_SHA256 = (
    "7bc5c428b536f888d447b34b49d015212e655431f17594c5c3ef74bf33a45ec7")


def test_shipped_scenario_same_bytes_with_one_or_two_cpus(
        scenario118_path, monkeypatch, capsys, caplog, tmp_path):
    config = ["--config", str(scenario118_path)]
    for algorithm, forks in (("decentralized", 0), ("centralized", 1)):
        code, stdout, _, artifacts = _one_and_two_cpus(
            monkeypatch, capsys, caplog, tmp_path / algorithm,
            ["run-all", *config, "--algorithm", algorithm,
             "--out-dir", "OUT"], forks)
        assert code == 0
        assert stdout.endswith("wrote artifacts to OUT\n")
        assert "metrics.json" in artifacts
    assert hashlib.sha256(artifacts["sync_times.json"]).hexdigest() \
        == SHIPPED_SYNC_SHA256
    partition = tmp_path / "decentralized" / "cpus1" / "partition.json"
    code, stdout, _, artifacts = _one_and_two_cpus(
        monkeypatch, capsys, caplog, tmp_path / "metrics",
        ["metrics", *config, "--partition", str(partition),
         "--out", "OUT/metrics.json"], 0)
    assert code == 0
    assert artifacts["metrics.json"] == (
        tmp_path / "decentralized" / "cpus1" / "metrics.json").read_bytes()


def test_failed_fork_falls_back_to_in_process_work(
        scenario118_path, monkeypatch, capsys, caplog, tmp_path):
    # At a process limit os.fork raises EAGAIN; the ensemble's fork site
    # then does the child's work in this process, as with one CPU.
    attempts = []

    def eagain():
        attempts.append(1)
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", eagain)
    for algorithm, forks in (("decentralized", 0), ("centralized", 1)):
        argv = ["run-all", "--config", str(scenario118_path),
                "--algorithm", algorithm, "--out-dir", "OUT"]
        outcomes = []
        for cpus in (1, 2):
            _use_cpus(monkeypatch, cpus)
            attempts.clear()
            outcomes.append(_outcome(argv, tmp_path / algorithm / str(cpus),
                                     capsys, caplog))
            assert len(attempts) == (cpus - 1) * forks
        assert outcomes[0][0] == 0
        assert outcomes[0] == outcomes[1]
