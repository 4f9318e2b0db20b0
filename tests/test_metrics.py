"""Partition quality metrics J1 through J4."""

import math

import numpy as np
import pytest

from grid_islander import (Island, PowerFlowSolution,
                           ac_power_flow, compute_metrics, dc_power_flow,
                           j1_from_imbalances, make_partition, metric_j1,
                           metric_j2, metric_j3, metric_j4, metrics_to_dict)
from conftest import make_network


def test_j1_formula():
    assert j1_from_imbalances([-93.0, 172.0]) == pytest.approx(132.5)
    assert j1_from_imbalances([-154.0, 233.0]) == pytest.approx(193.5)
    assert j1_from_imbalances([0.0, 0.0, 0.0]) == 0.0
    with pytest.raises(ValueError):
        j1_from_imbalances([])


def test_j1_reported_rounding():
    # half-away-from-zero rounding reproduces the published integers
    def round_half_up(x):
        return math.floor(x + 0.5)

    assert round_half_up(j1_from_imbalances([-93.0, 172.0])) == 133
    assert round_half_up(j1_from_imbalances([-154.0, 233.0])) == 194


def test_metric_j1_from_partition(five_path):
    part = make_partition(five_path,
                          [Island(label=1, node_set=frozenset({1, 2, 3})),
                           Island(label=2, node_set=frozenset({4, 5}))])
    # island imbalances are 0.0 and 0.0 pu on this balanced path
    assert metric_j1(five_path, part) == pytest.approx(0.0, abs=1e-12)
    lopsided = make_partition(five_path,
                              [Island(label=1, node_set=frozenset({1, 2})),
                               Island(label=2,
                                      node_set=frozenset({3, 4, 5}))])
    # |+0.6| and |-0.6| pu -> 60 MW each
    assert metric_j1(five_path, lopsided) == pytest.approx(60.0)


def _fake_solution(vm, p_loss=0.0, method="ac", ends=(), p_from=None,
                   p_to=None):
    vm = np.asarray(vm, dtype=float)
    n_br = len(ends)
    return PowerFlowSolution(
        method=method, node_ids=tuple(range(1, len(vm) + 1)), vm=vm,
        va=np.zeros_like(vm), branch_ends=tuple(ends),
        p_from=np.asarray(p_from if p_from is not None
                          else [p_loss / max(n_br, 1)] * n_br),
        p_to=np.asarray(p_to if p_to is not None else [0.0] * n_br),
        q_from=np.zeros(n_br), q_to=np.zeros(n_br), converged=True,
        iterations=1, mismatch=0.0, mismatch_history=(1.0, 0.0), slack=1)


def test_j2_mean_voltage_spread():
    solutions = {
        1: _fake_solution([1.0, 0.95, 0.9]),    # 1 - 0.9/1.0 = 0.1
        2: _fake_solution([1.02, 1.02]),        # flat: spread 0
    }
    assert metric_j2(solutions) == pytest.approx(0.05)
    with pytest.raises(ValueError):
        metric_j2({})


def test_j3_sums_losses():
    solutions = {
        1: _fake_solution([1.0], 0.0, ends=((1, 2), (2, 3)),
                          p_from=[10.0, 5.0], p_to=[-9.0, -4.5]),
        2: _fake_solution([1.0], 0.0, ends=((7, 8),),
                          p_from=[3.0], p_to=[-2.8]),
    }
    assert metric_j3(solutions) == pytest.approx(1.5 + 0.2)


def test_j4_single_cut_line():
    # one 0.40 / -0.38 pu line across the cut averages to 39 MW
    pre = _fake_solution([1.0, 1.0], 0.0, ends=((1, 2), (2, 3)),
                         p_from=[40.0, 7.0], p_to=[-38.0, -7.0])
    part = make_partition(
        make_network({1: 1.0, 2: -0.4, 3: -0.6},
                     [(1, 2), (2, 3)], generator_set={1}),
        [Island(label=1, node_set=frozenset({1})),
         Island(label=2, node_set=frozenset({2, 3}))])
    assert metric_j4(pre, part) == pytest.approx(39.0)


def test_j4_averages_cut_branches_only():
    pre = _fake_solution([1.0] * 4, 0.0,
                         ends=((1, 2), (2, 3), (3, 4)),
                         p_from=[10.0, 20.0, 30.0],
                         p_to=[-10.0, -20.0, -30.0])
    net = make_network({1: 1.0, 2: -0.2, 3: -0.3, 4: -0.5},
                       [(1, 2), (2, 3), (3, 4)], generator_set={1})
    part = make_partition(net,
                          [Island(label=1, node_set=frozenset({1, 2})),
                           Island(label=2, node_set=frozenset({3, 4}))])
    # only branch (2, 3) crosses the cut
    assert metric_j4(pre, part) == pytest.approx(20.0)


def test_j4_no_cut_edges():
    pre = _fake_solution([1.0, 1.0], 0.0, ends=((1, 2),),
                         p_from=[10.0], p_to=[-10.0])
    net = make_network({1: 1.0, 2: -1.0}, [(1, 2)], generator_set={1})
    part = make_partition(net,
                          [Island(label=1, node_set=frozenset({1, 2}))])
    assert metric_j4(pre, part) == 0.0


def test_compute_metrics_end_to_end():
    # balanced two-island grid solvable by AC on both sides
    net = make_network(
        {1: 1.0, 2: -0.6, 3: -0.4, 4: 0.8, 5: -0.5, 6: -0.3},
        [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)],
        generator_set={1, 4})
    part = make_partition(net,
                          [Island(label=1, node_set=frozenset({1, 2, 3})),
                           Island(label=2, node_set=frozenset({4, 5, 6}))])
    report = compute_metrics(net, part)
    assert report.j1 == pytest.approx(0.0, abs=1e-9)
    assert 0.0 <= report.j2 < 0.2
    assert report.j3 == pytest.approx(0.0, abs=1e-6)   # lossless lines
    assert report.j4 > 0.0
    assert report.provenance["island_solver"] == {"1": "ac", "2": "ac"}
    assert report.provenance["pre_partition_solver"] == "ac"
    assert report.provenance["q_limits_enforced"] is False
    labels = [row.label for row in report.islands]
    assert labels == [1, 2]
    for row in report.islands:
        assert row.solver == "ac"
        assert row.vmin <= row.vmax


def test_compute_metrics_generatorless_island():
    net = make_network({1: 1.0, 2: -0.4, 3: -0.6},
                       [(1, 2), (2, 3)], generator_set={1})
    part = make_partition(net,
                          [Island(label=1, node_set=frozenset({1, 2})),
                           Island(label=2, node_set=frozenset({3}))])
    report = compute_metrics(net, part)
    row = next(r for r in report.islands if r.label == 2)
    assert row.solver == "none"
    assert math.isnan(row.vmin) and math.isnan(row.vmax)
    assert report.provenance["island_solver"]["2"] == "none"
    # J2/J3 come from the solvable island alone
    assert not math.isnan(report.j2)
    data = metrics_to_dict(report)
    bad_row = next(r for r in data["islands"] if r["label"] == 2)
    assert bad_row["vmin"] is None   # NaN becomes null in JSON


def test_compute_metrics_ac_fallback_recorded(caplog):
    import logging
    # island 2 carries an unservable load so Newton diverges there
    net = make_network({1: 1.0, 2: -0.5, 3: 0.2, 4: -6.0},
                       [(1, 2), (2, 3), (3, 4)], generator_set={1, 3})
    part = make_partition(net,
                          [Island(label=1, node_set=frozenset({1, 2})),
                           Island(label=2, node_set=frozenset({3, 4}))])
    with caplog.at_level(logging.WARNING, logger="grid_islander.metrics"):
        report = compute_metrics(net, part)
    assert report.provenance["island_solver"]["2"] == "dc"
    assert any("using DC" in rec.message for rec in caplog.records)


def test_metrics_to_dict_round_trip_values():
    net = make_network({1: 1.0, 2: -0.8}, [(1, 2)], generator_set={1})
    part = make_partition(net,
                          [Island(label=1, node_set=frozenset({1, 2}))])
    report = compute_metrics(net, part)
    data = metrics_to_dict(report)
    assert data["J1"] == pytest.approx(20.0)
    assert data["J4"] == 0.0
    assert data["provenance"]["pre_partition_solver"] == "ac"
    assert len(data["islands"]) == 1
