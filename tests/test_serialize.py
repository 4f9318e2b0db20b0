"""JSON encodings: networks written out; partitions, sync tables and
scenarios read back."""

import collections
import dataclasses
import enum
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from grid_islander import (Branch, Bus, ConfigError, Island, SchemaError,
                           ScenarioConfig, SyncTimeTable, load_scenario,
                           make_partition, network_to_dict,
                           partition_from_dict, partition_to_dict,
                           save_json, scenario_from_dict,
                           sync_table_from_dict, sync_table_to_dict)
from grid_islander.serialize import save_csv
from conftest import DATA_DIR, GEN_SET_118, M1_118, M2_118, make_network


def test_network_to_dict_writes_every_field(net118_faulted):
    # network.json is written, never read back: it must hold every field
    data = json.loads(json.dumps(network_to_dict(net118_faulted)))
    assert data["base_mva"] == net118_faulted.base_mva
    assert data["generator_set"] == sorted(net118_faulted.generator_set)
    for rows, records, cls in (
            (data["buses"], net118_faulted.buses, Bus),
            (data["branches"], net118_faulted.branches, Branch)):
        names = [f.name for f in dataclasses.fields(cls)]
        assert [list(row) for row in rows] == [names] * len(records)
        assert rows == [dataclasses.asdict(record) for record in records]
    assert sum(not row["status"] for row in data["branches"]) == 1


def test_partition_round_trip(five_path):
    part = make_partition(five_path,
                          [Island(label=1, node_set=frozenset({1, 2, 3})),
                           Island(label=2, node_set=frozenset({4, 5}))])
    data = partition_to_dict(part)
    assert data["islands"][0]["nodes"] == [1, 2, 3]
    again = partition_from_dict(json.loads(json.dumps(data)))
    assert again == part


def test_partition_ids_must_be_integers():
    # int() would truncate the fractions, read true and false as 1 and 0,
    # and the readers would take the digits of a string as ids 3, 6 and 7
    good = {"islands": [{"label": 1, "nodes": [36, 37]}], "cut_set": [[1, 2]]}
    assert partition_from_dict(dict(good, islands=[
        {"label": 1.0, "nodes": [36.0, 37]}])) == partition_from_dict(good)
    for bad in ({"label": 1.7, "nodes": [36, 37]},
                {"label": 1, "nodes": [36.5, 37]},
                {"label": 1, "nodes": [True, 37]},
                {"label": False, "nodes": [36, 37]},
                {"label": 1, "nodes": "367"},
                {"label": 1, "nodes": ["36", 37]},
                {"label": "1", "nodes": [36, 37]},
                {"label": b"1", "nodes": [36, 37]}):
        with pytest.raises(SchemaError, match="must be an integer"):
            partition_from_dict(dict(good, islands=[bad]))
    for cut in ([[1.5, 2]], [[1, True]], ["12"], [["1", 2]]):
        with pytest.raises(SchemaError, match="must be an integer"):
            partition_from_dict(dict(good, cut_set=cut))


def test_sync_table_round_trip():
    table = SyncTimeTable(entries={(1, 2): 0.55, (2, 3): math.inf,
                                   (1, 3): 0.0})
    data = sync_table_to_dict(table)
    by_pair = {(e["i"], e["j"]): e["t_sync"] for e in data["edges"]}
    assert by_pair[(2, 3)] == "inf"
    again = sync_table_from_dict(json.loads(json.dumps(data)))
    assert again.get(2, 3) == math.inf
    assert again.get(2, 1) == pytest.approx(0.55)
    assert again.entries == table.entries
    bare = sync_table_from_dict(json.loads(
        '{"edges": [{"i": 1, "j": 2, "t_sync": Infinity}]}'))
    assert bare.get(1, 2) == math.inf


def test_sync_table_from_dict_orders_pairs_and_rejects_repeats():
    table = sync_table_from_dict(
        {"edges": [{"i": 5, "j": 3.0, "t_sync": 1.5}]})
    assert table.entries == {(3, 5): 1.5}
    assert table.get(3, 5) == table.get(5, 3) == 1.5
    # int() would read the last three as edges 1-2
    for edges in ([[4, 4, 0.0]], [[1, 2, 0.5], [2, 1, 0.7]],
                  [[1, 2, 0.5], [1, 2, 0.5]], [[1.25, 2, 0.5]],
                  [[1, 2.5, 0.5]], [[True, 2, 0.5]]):
        with pytest.raises(SchemaError):
            sync_table_from_dict({"edges": [
                {"i": i, "j": j, "t_sync": t} for i, j, t in edges]})


# float() would read true as 1.0 s and a numeric string as its number
@pytest.mark.parametrize("t_sync", ["NaN", "-0.5", '"nan"', "-Infinity",
                                    "true", '"1.5"', '" 2 "', '"Infinity"'])
def test_sync_table_rejects_nan_and_negative_times(t_sync):
    data = json.loads('{"edges": [{"i": 1, "j": 2, "t_sync": %s}]}' % t_sync)
    with pytest.raises(SchemaError):
        sync_table_from_dict(data)


def test_scenario_round_trip(scenario118):
    assert scenario118 == ScenarioConfig(
        case_path=DATA_DIR / "case118.m", generator_set=GEN_SET_118,
        initial_islands=(M1_118, M2_118), fault_branches=((14, 15),),
        seed=42, ensemble_size=20, t_max=100.0, dt=0.01,
        rho_threshold=0.99, algorithm="centralized")


def test_scenario_relative_case_path(tmp_path, case118_path):
    cfg_path = tmp_path / "scn.json"
    data = {
        "case_path": "sub/case.m", "generator_set": [1],
        "initial_islands": [[1], [2]], "fault_branches": [],
        "n_mu": 2, "seed": 1, "ensemble_size": 2, "t_max": 1.0,
        "dt": 0.1, "rho_threshold": 0.99,
    }
    cfg_path.write_text(json.dumps(data), encoding="utf-8")
    cfg = load_scenario(cfg_path)
    assert cfg.case_path == tmp_path / "sub" / "case.m"


def test_scenario_validation():
    base = dict(case_path="x.m", generator_set=(1,),
                initial_islands=((1,), (2,)), fault_branches=(),
                seed=0, ensemble_size=5, t_max=10.0, dt=0.01,
                rho_threshold=0.99)
    assert ScenarioConfig(**base).n_mu == 2   # the base config is fine
    bad = [dict(base, initial_islands=((1,),)),
           dict(base, dt=0.0), dict(base, dt=20.0),
           dict(base, rho_threshold=1.0),
           dict(base, ensemble_size=0), dict(base, algorithm="magic"),
           dict(base, seed=-1), dict(base, generator_set=()),
           dict(base, initial_islands=((1,), ())),
           dict(base, dt=math.nan), dict(base, t_max=math.inf),
           # int() would take these as buses 1, 3 and 14
           dict(base, generator_set=(1.5,)), dict(base, generator_set=(True,)),
           dict(base, initial_islands=((3.5,), (2,))),
           dict(base, fault_branches=((14.5, 15),))]
    for kwargs in bad:
        with pytest.raises(ConfigError):
            ScenarioConfig(**kwargs)
    # int() would take these as 20, 1 and 2 runs, seeds or islands
    data = dict(base, case_path="x.m")
    assert scenario_from_dict(dict(data, ensemble_size=20.0)).ensemble_size \
        == 20
    # n_mu is optional; given, it must be an integer and match the islands
    assert scenario_from_dict(dict(data, n_mu=2.0)) == \
        scenario_from_dict(data) == scenario_from_dict(dict(data, n_mu=2))
    with pytest.raises(ConfigError, match="n_mu is 3 but 2 initial islands"):
        scenario_from_dict(dict(data, n_mu=3))
    assert scenario_from_dict(dict(data, initial_islands=[[1.0], [2]],
                                   fault_branches=[[1, 2.0]])) == \
        dataclasses.replace(scenario_from_dict(data),
                            fault_branches=((1, 2),))
    for key, value in (("generator_set", [36.5]),
                       ("initial_islands", [[3.5], [46]]),
                       ("fault_branches", [[14.5, 15]]),
                       ("fault_branches", [[14, True]]),
                       ("generator_set", ["36"]),
                       ("initial_islands", ["3589", [46]]),
                       ("fault_branches", ["45"])):
        with pytest.raises(ConfigError, match=f"bus id in {key}"):
            scenario_from_dict(dict(data, **{key: value}))
    for key, value in (("ensemble_size", 20.7), ("seed", True),
                       ("seed", False), ("n_mu", 2.9),
                       ("ensemble_size", True),
                       ("seed", math.inf), ("n_mu", math.nan),
                       ("seed", "42"), ("ensemble_size", "20"),
                       ("n_mu", "2")):
        with pytest.raises(ConfigError, match=key):
            scenario_from_dict(dict(data, **{key: value}))
    # the retired keys load with any value, so files written before they
    # were retired still load, and set nothing
    for key in ("max_stalled_rounds", "freq_epsilon"):
        for value in (3, 0, 1.5, -1e-3, math.nan, math.inf, "3", None):
            assert scenario_from_dict(dict(data, **{key: value})) == \
                scenario_from_dict(data)
    # "mode" keeps its one value, so existing files load; it sets nothing
    assert scenario_from_dict(dict(data, mode="analytic")) == \
        scenario_from_dict(data)
    for mode in ("turbo", "simulated"):
        with pytest.raises(ConfigError, match="mode"):
            scenario_from_dict(dict(data, mode=mode))


def test_scenario_from_dict_missing_keys():
    with pytest.raises(ConfigError):
        scenario_from_dict({"case_path": "x.m"})
    with pytest.raises(ConfigError):
        scenario_from_dict([1, 2, 3])


def test_with_overrides_revalidates(scenario118):
    # the CLI applies its --seed/--algorithm overrides with replace
    changed = dataclasses.replace(scenario118, algorithm="decentralized",
                                  seed=7)
    assert changed.algorithm == "decentralized"
    assert changed.seed == 7
    assert scenario118.seed == 42   # original untouched
    with pytest.raises(ConfigError):
        dataclasses.replace(scenario118, dt=-1.0)


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
_TREES = st.recursive(
    _LEAVES,
    lambda children: (st.lists(children)
                      | st.lists(children).map(tuple)
                      | st.dictionaries(_TEXT, children)),
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


class _Loud(float):
    def __repr__(self):
        return "loud"


class _Level(enum.IntEnum):
    LOW = 1


class _Label(str):
    def __str__(self):
        return "label"


class _Row(list):
    pass


def test_save_json_subclass_leaves_take_json_type_tests(tmp_path):
    # only exact types skip json's isinstance tests; subclasses are
    # spelled as json spells them, whatever their own repr
    data = {"a": [_Loud(0.5), np.float64(0.1), _Level.LOW, _Label("x"),
                  _Row([True, None, np.float64(-0.0)]),
                  collections.OrderedDict(b=_Loud(math.inf), c=_Level.LOW)],
            "d": _Row(), "e": collections.OrderedDict(),
            "f": (np.float64(1e300), _Label(""))}
    path = tmp_path / "subclasses.json"
    save_json(data, path)
    assert path.read_bytes() == _dumps(data)


def test_save_json_rejects_keys_that_are_not_str(tmp_path):
    # json.dumps would coerce these keys; no artifact has one
    path = tmp_path / "keys.json"
    path.write_bytes(b"old bytes\n")
    for key in (1, 2.5, True, None, math.inf):
        with pytest.raises(TypeError):
            save_json({"a": [{"1": 0, key: "b"}]}, path)
        assert path.read_bytes() == b"old bytes\n"
        assert [p.name for p in tmp_path.iterdir()] == ["keys.json"]


def _circular():
    loop = [1]
    loop.append({"back": loop})
    return loop


@pytest.mark.parametrize("bad, error, message", [
    ({"a": [1, 2.0, {"b": object()}]}, TypeError,
     "Object of type object is not JSON serializable"),
    ({"a": {(1, 2): 3}}, TypeError, None),
    (_circular(), RecursionError, None)],
    ids=["value", "key", "circular"])
def test_save_json_failure_keeps_old_file(tmp_path, bad, error, message):
    path = tmp_path / "artifact.json"
    path.write_bytes(b"old bytes\n")
    with pytest.raises(error, match=message):
        save_json(bad, path)
    assert path.read_bytes() == b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_save_csv_failure_keeps_old_file(tmp_path, error):
    # rows that fail midway, as a generator or Ctrl-C may, leave the old
    # file whole; complete rows replace it
    path = tmp_path / "table.csv"
    path.write_bytes(b"old bytes\r\n")

    def rows():
        yield "1,2,0.5\r\n"
        raise error("stopped midway")

    with pytest.raises(error, match="stopped midway"):
        save_csv(["i", "j", "t_sync"], rows(), path)
    assert path.read_bytes() == b"old bytes\r\n"
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]
    save_csv(["i", "j", "t_sync"], iter(["1,2,0.5\r\n", "2,3,inf\r\n"]),
             path)
    assert path.read_bytes() == b"i,j,t_sync\r\n1,2,0.5\r\n2,3,inf\r\n"
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]
