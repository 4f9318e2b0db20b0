"""JSON round trips for networks, partitions, sync tables, scenarios."""

import json
import math
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from grid_islander import (ConfigError, Island, SchemaError, ScenarioConfig,
                           SyncTimeTable, load_scenario, make_partition,
                           network_from_dict, network_to_dict,
                           partition_from_dict, partition_to_dict,
                           save_json, scenario_from_dict, scenario_to_dict,
                           sync_table_from_dict, sync_table_to_dict,
                           with_overrides)
from conftest import make_network


def test_network_round_trip(five_path):
    data = network_to_dict(five_path)
    again = network_from_dict(json.loads(json.dumps(data)))
    assert again == five_path


def test_network_round_trip_with_fault(net118_faulted):
    data = network_to_dict(net118_faulted)
    again = network_from_dict(data)
    assert again == net118_faulted
    assert sum(not br.status for br in again.branches) == 1


def test_network_from_dict_rejects_garbage():
    with pytest.raises(SchemaError):
        network_from_dict({"schema_version": 1})
    with pytest.raises(SchemaError):
        network_from_dict({"schema_version": 99, "buses": [],
                           "branches": [], "base_mva": 100,
                           "generator_set": []})


def test_partition_round_trip(five_path):
    part = make_partition(five_path,
                          [Island(label=1, node_set=frozenset({1, 2, 3})),
                           Island(label=2, node_set=frozenset({4, 5}))])
    data = partition_to_dict(part)
    assert data["islands"][0]["nodes"] == [1, 2, 3]
    again = partition_from_dict(json.loads(json.dumps(data)))
    assert again == part


def test_sync_table_round_trip():
    table = SyncTimeTable(entries={(1, 2): 0.55, (2, 3): math.inf,
                                   (1, 3): 0.0})
    data = sync_table_to_dict(table)
    by_pair = {(e["i"], e["j"]): e["t_sync"] for e in data["edges"]}
    assert by_pair[(2, 3)] == "inf"
    again = sync_table_from_dict(json.loads(json.dumps(data)))
    assert again.get(2, 3) == math.inf
    assert again.get(2, 1) == pytest.approx(0.55)
    assert (1, 3) in again and (3, 7) not in again


def test_scenario_round_trip(scenario118):
    data = scenario_to_dict(scenario118)
    again = scenario_from_dict(json.loads(json.dumps(data)))
    assert again == scenario118


def test_scenario_relative_case_path(tmp_path, case118_path):
    cfg_path = tmp_path / "scn.json"
    data = {
        "case_path": "sub/case.m", "generator_set": [1],
        "initial_islands": [[1], [2]], "fault_branches": [],
        "n_mu": 2, "seed": 1, "ensemble_size": 2, "t_max": 1.0,
        "dt": 0.1, "rho_threshold": 0.99, "freq_epsilon": 1e-3,
    }
    cfg_path.write_text(json.dumps(data), encoding="utf-8")
    cfg = load_scenario(cfg_path)
    assert cfg.case_path == tmp_path / "sub" / "case.m"


def test_scenario_validation():
    base = dict(case_path="x.m", generator_set=(1,),
                initial_islands=((1,), (2,)), fault_branches=(),
                n_mu=2, seed=0, ensemble_size=5, t_max=10.0, dt=0.01,
                rho_threshold=0.99, freq_epsilon=1e-3)
    ScenarioConfig(**base)   # sanity: the base config is fine
    bad = [dict(base, n_mu=3), dict(base, n_mu=1, initial_islands=((1,),)),
           dict(base, dt=0.0), dict(base, dt=20.0),
           dict(base, rho_threshold=1.0), dict(base, freq_epsilon=0.0),
           dict(base, ensemble_size=0), dict(base, algorithm="magic"),
           dict(base, mode="turbo"), dict(base, mode="simulated"),
           dict(base, generator_set=()),
           dict(base, initial_islands=((1,), ())),
           dict(base, max_stalled_rounds=0)]
    for kwargs in bad:
        with pytest.raises(ConfigError):
            ScenarioConfig(**kwargs)


def test_scenario_from_dict_missing_keys():
    with pytest.raises(ConfigError):
        scenario_from_dict({"case_path": "x.m"})
    with pytest.raises(ConfigError):
        scenario_from_dict([1, 2, 3])


def test_with_overrides_revalidates(scenario118):
    changed = with_overrides(scenario118, algorithm="decentralized", seed=7)
    assert changed.algorithm == "decentralized"
    assert changed.seed == 7
    assert scenario118.seed == 42   # original untouched
    with pytest.raises(ConfigError):
        with_overrides(scenario118, dt=-1.0)


def test_shipped_scenario_contents(scenario118):
    assert scenario118.n_mu == 2
    assert len(scenario118.generator_set) == 19
    assert scenario118.fault_branches == ((14, 15),)
    assert scenario118.ensemble_size == 20
    assert scenario118.dt == pytest.approx(0.01)
    assert scenario118.t_max == pytest.approx(100.0)
    assert scenario118.rho_threshold == pytest.approx(0.99)
    # every seed node is a real bus and every seed island holds a machine
    m1, m2 = (set(isl) for isl in scenario118.initial_islands)
    assert m1.isdisjoint(m2)
    assert m1 & set(scenario118.generator_set)
    assert m2 & set(scenario118.generator_set)


_TEXT = (st.text()
         | st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f'
                            '\u00e9\u2028\u2603\U0001d11e\ud800'))
_FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, 1e-7, 1e300, math.inf, -math.inf, math.nan])
_INTS = st.integers() | st.integers(min_value=-2 ** 200, max_value=2 ** 200)
_LEAVES = _TEXT | _FLOATS | _INTS | st.booleans() | st.none()
_KEYS = _TEXT | _INTS | _FLOATS | st.booleans() | st.none()
_TREES = st.recursive(
    _LEAVES,
    lambda children: (st.lists(children)
                      | st.lists(children).map(tuple)
                      | st.dictionaries(_KEYS, children)),
    max_leaves=40)


def _dumps(data) -> bytes:
    return (json.dumps(data, indent=2) + "\n").encode("utf-8")


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_TREES)
def test_save_json_writes_json_dumps_bytes(tmp_path, data):
    path = tmp_path / "out.json"
    save_json(data, path)
    assert path.read_bytes() == _dumps(data)


def test_save_json_deep_nesting(tmp_path):
    data = {"leaf": [1.5, None, True]}
    for depth in range(300):
        data = [data, depth] if depth % 2 else {str(depth): data, "": ()}
    path = tmp_path / "deep.json"
    save_json(data, path)
    assert path.read_bytes() == _dumps(data)


def test_save_json_spans_many_chunks(tmp_path):
    data = {"events": [{"round": k, "payload": {str(k): k / 7, "x": [k]}}
                       for k in range(5000)]}
    path = tmp_path / "long.json"
    save_json(data, path)
    assert path.read_bytes() == _dumps(data)


def test_save_json_coerces_keys_like_json(tmp_path):
    data = {1: "a", "1": "b", 2.5: [], True: {}, False: 0, None: -0.0,
            math.inf: 1e300, math.nan: 1e-7}
    path = tmp_path / "keys.json"
    save_json(data, path)
    assert path.read_bytes() == _dumps(data)


def _circular():
    loop = [1]
    loop.append({"back": loop})
    return loop


@pytest.mark.parametrize("bad", [
    {"a": [1, 2.0, {"b": object()}]}, {"a": {(1, 2): 3}}, _circular()],
    ids=["value", "key", "circular"])
def test_save_json_failure_keeps_old_file(tmp_path, bad):
    with pytest.raises((TypeError, ValueError)) as expected:
        json.dumps(bad, indent=2)
    path = tmp_path / "artifact.json"
    path.write_bytes(b"old bytes\n")
    with pytest.raises(expected.type, match=re.escape(str(expected.value))):
        save_json(bad, path)
    assert path.read_bytes() == b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]
