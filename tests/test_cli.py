"""Command-line pipeline: artifacts, exit codes, determinism."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import grid_islander
from grid_islander import NotConverged
from grid_islander.cli import main

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
        "freq_epsilon": 0.001,
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
    data = json.loads(cfg.read_text(encoding="utf-8"))
    data["rho_threshold"] = 2.0
    cfg.write_text(json.dumps(data), encoding="utf-8")
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
    # cutting 4-5 strands bus 5 where no seed island can reach it
    data = json.loads(cfg.read_text(encoding="utf-8"))
    data["fault_branches"] = [[4, 5]]
    data["initial_islands"] = [[1], [4]]
    bad = tmp_path / "split.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    rc = main(["partition", "--config", str(bad), "--algorithm",
               "decentralized", "--out-dir", str(tmp_path / "out")])
    assert rc == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "Stalled"


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
    assert json.loads(capsys.readouterr().err)["exit_code"] == 4


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
    rc = main(["simulate", "--config", str(cfg), "--run", "9"])
    assert rc == 2   # run index beyond the ensemble



def test_simulate_rejects_bad_run_before_integrating(workspace, capsys,
                                                     monkeypatch):
    tmp_path, cfg = workspace
    import grid_islander.cli as cli_module

    def no_integration(*args, **kwargs):
        raise AssertionError("integrated an ensemble for a bad run index")

    monkeypatch.setattr(cli_module, "ensemble_run", no_integration)
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
# scenario, as recorded in perfbench/digests.json for ieee118-decentral.
SHIPPED_EVENTS_SHA256 = (
    "6c1a0b5d5d1079af2185b7786c56e4ccc974c82ed3a6fcb34a0df1b4667eed19")


def test_shipped_decentralized_events_are_pinned(scenario118_path,
                                                 tmp_path):
    rc = main(["run-all", "--config", str(scenario118_path),
               "--algorithm", "decentralized", "--out-dir", str(tmp_path)])
    assert rc == 0
    events = (tmp_path / "events.json").read_bytes()
    assert hashlib.sha256(events).hexdigest() == SHIPPED_EVENTS_SHA256


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
           "ensemble_sync_times", "ensemble_run", "centralized_partition",
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
    (["simulate", "--run", "1"], {"build_layer": 1, "ensemble_run": 1},
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

def _run_cli(args, env_extra=None):
    # the child imports the same package this test imported
    package_root = str(Path(grid_islander.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    code = ("import sys; from grid_islander.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env)


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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "grid-islander" in capsys.readouterr().out
