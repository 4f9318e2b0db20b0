"""Case-file parsing and network construction."""

import logging
import math

import pytest

from grid_islander import (ConfigError, MissingSection, ParseError,
                           SchemaError, build_network, load_case,
                           net_injection, parse_case)

MINIMAL_CASE = """\
function mpc = case2
% a tiny two-bus case
mpc.version = '2';
mpc.baseMVA = 100;

%% bus data
mpc.bus = [
\t1\t3\t0\t0\t0\t0\t1\t1.0\t0\t138\t1\t1.1\t0.9;
\t2\t1\t50\t10\t0\t0\t1\t1.0\t0\t138\t1\t1.1\t0.9;
];

mpc.gen = [
\t1\t80\t20\t100\t-100\t1.02\t100\t1\t200\t0;
];

mpc.branch = [
\t1\t2\t0.01\t0.05\t0.02\t250\t250\t250\t0\t0\t1\t-360\t360;
];
"""


def test_parse_minimal_case():
    case = parse_case(MINIMAL_CASE)
    assert case.base_mva == 100.0
    assert case.n_buses == 2
    assert case.n_gens == 1
    assert case.n_branches == 1
    assert case.bus_table[1][0] == 2.0
    assert case.bus_table[1][2] == 50.0
    assert case.gen_table[0][1] == 80.0
    assert case.branch_table[0][3] == 0.05


def test_comments_and_blank_lines_ignored():
    noisy = MINIMAL_CASE.replace("mpc.baseMVA = 100;",
                                 "% leading note\n\nmpc.baseMVA = 100; % x")
    case = parse_case(noisy)
    assert case.base_mva == 100.0


def test_missing_sections():
    for section in ("baseMVA", "bus", "gen", "branch"):
        if section == "baseMVA":
            broken = MINIMAL_CASE.replace("mpc.baseMVA = 100;", "")
        else:
            broken = MINIMAL_CASE.replace(f"mpc.{section} = [", "mpc.zzz = [")
        with pytest.raises(MissingSection) as err:
            parse_case(broken)
        assert section in str(err.value)


def test_parse_error_reports_position():
    broken = MINIMAL_CASE.replace("\t2\t1\t50", "\t2\tabc\t50")
    with pytest.raises(ParseError) as err:
        parse_case(broken)
    assert (err.value.line, err.value.column) == (9, 4)
    assert str(err.value) == "line 9, column 4: not a number: 'abc'"
    # columns count from the line start, across the opening bracket and
    # earlier rows of the same line
    broken = MINIMAL_CASE.replace(
        "mpc.gen = [\n", "mpc.gen = [ 1 2 3 4 5 6 7 8 9 0; 1 x9 ;\n")
    with pytest.raises(ParseError) as err:
        parse_case(broken)
    assert (err.value.line, err.value.column) == (12, 36)


def test_ragged_table_rejected():
    broken = MINIMAL_CASE.replace(
        "\t2\t1\t50\t10\t0\t0\t1\t1.0\t0\t138\t1\t1.1\t0.9;",
        "\t2\t1\t50\t10\t0\t0\t1\t1.0\t0\t138\t1;")
    with pytest.raises(SchemaError):
        parse_case(broken)


def test_narrow_table_rejected():
    broken = MINIMAL_CASE.replace(
        "\t1\t2\t0.01\t0.05\t0.02\t250\t250\t250\t0\t0\t1\t-360\t360;",
        "\t1\t2\t0.01\t0.05;")
    with pytest.raises(SchemaError):
        parse_case(broken)


def test_build_network_minimal():
    net = build_network(parse_case(MINIMAL_CASE))
    assert net.node_ids() == (1, 2)
    assert net.generator_set == frozenset({1})
    assert net.bus(1).kind == "generator"
    assert net.bus(1).voltage_setpoint == pytest.approx(1.02)
    assert net.bus(2).kind == "load"
    assert net.bus(2).p_demand == pytest.approx(50.0)
    assert net_injection(net, 1) == pytest.approx(0.8)
    br = net.branches[0]
    assert br.reactance == pytest.approx(0.05)
    assert br.charging == pytest.approx(0.02)
    assert br.tap_ratio == 1.0     # 0 in the table means no transformer


def test_build_network_explicit_generator_set():
    net = build_network(parse_case(MINIMAL_CASE), [1])
    assert net.generator_set == frozenset({1})
    # any bus-table id may be designated, machines or not
    both = build_network(parse_case(MINIMAL_CASE), [1, 2])
    assert both.bus(2).kind == "generator"
    assert both.bus(2).p_gen_scheduled == 0.0
    with pytest.raises(ConfigError):
        build_network(parse_case(MINIMAL_CASE), [1, 999])


def test_multi_machine_bus_sums():
    doubled = MINIMAL_CASE.replace(
        "\t1\t80\t20\t100\t-100\t1.02\t100\t1\t200\t0;",
        "\t1\t80\t20\t100\t-100\t1.02\t100\t1\t200\t0;\n"
        "\t1\t30\t5\t100\t-100\t1.05\t100\t1\t200\t0;\n"
        "\t1\t99\t5\t100\t-100\t1.10\t100\t0\t200\t0;")
    net = build_network(parse_case(doubled))
    # two in-service machines sum; the off one is ignored
    assert net.bus(1).p_gen_scheduled == pytest.approx(110.0)
    # setpoint comes from the first in-service machine
    assert net.bus(1).voltage_setpoint == pytest.approx(1.02)


def test_out_of_service_branch_dropped():
    off = MINIMAL_CASE.replace(
        "\t1\t2\t0.01\t0.05\t0.02\t250\t250\t250\t0\t0\t1\t-360\t360;",
        "\t1\t2\t0.01\t0.05\t0.02\t250\t250\t250\t0\t0\t1\t-360\t360;\n"
        "\t1\t2\t0.02\t0.08\t0.02\t250\t250\t250\t0\t0\t0\t-360\t360;")
    net = build_network(parse_case(off))
    assert len(net.branches) == 1


def test_disconnected_case_warns_once(caplog):
    # taking the only branch out of service isolates bus 2
    off = MINIMAL_CASE.replace("\t0\t0\t1\t-360\t360;",
                               "\t0\t0\t0\t-360\t360;")
    with caplog.at_level(logging.WARNING, logger="grid_islander"):
        net = build_network(parse_case(off))
    assert not net.connected
    assert [record.getMessage() for record in caplog.records] == [
        "in-service branch graph is disconnected"]


def test_ieee118_case_counts(case118_path):
    case = load_case(case118_path)
    assert case.base_mva == 100.0
    assert (case.n_buses, case.n_gens, case.n_branches) == (118, 54, 186)
    assert len(case.bus_table) == 118
    # bus ids are 1..118 in order
    assert [row[0] for row in case.bus_table] == list(range(1, 119))


def test_ieee118_default_generator_set(case118_path, net118):
    # with no explicit set, every bus holding a machine becomes a generator
    net_all = build_network(load_case(case118_path))
    assert len(net_all.generator_set) == 54
    # the curated set keeps only buses with positive scheduled output
    positive = {n for n in net_all.node_ids()
                if net_all.bus(n).p_gen_scheduled > 0}
    assert positive == set(net118.generator_set)
    assert len(net118.generator_set) == 19


def test_ieee118_injection_balance(net118):
    total_mw = sum(net_injection(net118, n) for n in net118.node_ids())
    gen = sum(b.p_gen_scheduled for b in net118.buses)
    dem = sum(b.p_demand for b in net118.buses)
    assert total_mw * net118.base_mva == pytest.approx(gen - dem, rel=1e-12)


def test_load_case_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_case(tmp_path / "nope.m")


def test_unread_columns_may_hold_any_number():
    # build_network never reads QMAX (gen column 4), so an Inf there loads
    text = MINIMAL_CASE.replace("\t1\t80\t20\t100\t", "\t1\t80\t20\tInf\t")
    case = parse_case(text)
    assert case.gen_table[0][3] == math.inf
    assert build_network(case).bus(1).p_gen_scheduled == 80.0


@pytest.mark.parametrize("old, new, message", [
    ("\t1\t80\t20\t", "\t1\t-inf\t20\t",
     "gen table row 1 column PG must be finite, got -inf"),
    ("\t1\t80\t20\t", "\t1.5\t80\t20\t",
     "gen table row 1 column GEN_BUS must be an integer, got 1.5"),
    ("\t1\t2\t0.01\t", "\t1\tnan\t0.01\t",
     "branch table row 1 column T_BUS must be an integer, got nan"),
    ("\t0\t0\t1\t-360", "\tnan\t0\t1\t-360",
     "branch table row 1 column TAP must be finite, got nan"),
    # an infinite id is refused as a non-integer, not truncated
    ("\t2\t1\t50\t", "\tinf\t1\t50\t",
     "bus table row 2 column BUS_I must be an integer, got inf"),
], ids=["inf-pg", "fractional-gen-bus", "nan-t-bus", "nan-tap",
        "inf-bus-id"])
def test_read_columns_must_be_finite_with_integer_ids(old, new, message):
    assert MINIMAL_CASE.count(old) == 1
    with pytest.raises(SchemaError) as err:
        build_network(parse_case(MINIMAL_CASE.replace(old, new)))
    assert str(err.value) == message
