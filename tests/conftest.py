"""Shared fixtures: the packaged 118-bus case and small hand-built grids."""

import os
from pathlib import Path

import pytest

import grid_islander
from grid_islander import (Bus, Branch, PowerNetwork, apply_fault,
                           build_network, load_case, load_scenario)

DATA_DIR = Path(grid_islander.__file__).parent / "data"

GEN_SET_118 = (10, 12, 25, 26, 31, 46, 49, 54, 59, 61, 65, 66, 69,
               80, 87, 89, 100, 103, 111)
M1_118 = (3, 5, 8, 9, 10, 12, 17, 25, 26, 30, 31)
M2_118 = (45, 46, 49, 54, 59, 61, 65, 66, 69, 77, 80, 82, 83, 85,
          86, 87, 89, 98, 100, 103, 110, 111)


def make_network(injections, edges, base_mva=100.0, generator_set=None,
                 setpoints=None, q_demands=None):
    """Build a PowerNetwork from per-unit injections and an edge list.

    ``injections`` maps node id to net per-unit power (positive becomes
    scheduled generation, negative becomes demand). ``edges`` is a list
    of (i, j) or (i, j, reactance) or (i, j, r, x) tuples. Nodes with
    positive injection form the generator set unless one is given.
    """
    setpoints = setpoints or {}
    q_demands = q_demands or {}
    if generator_set is None:
        generator_set = {n for n, p in injections.items() if p > 0}
    buses = []
    for node, p in sorted(injections.items()):
        is_gen = node in generator_set
        buses.append(Bus(
            id=node,
            kind="generator" if is_gen else "load",
            p_demand=(-p * base_mva if p < 0 else 0.0),
            q_demand=q_demands.get(node, 0.0) * base_mva,
            p_gen_scheduled=(p * base_mva if p > 0 else 0.0),
            base_kv=138.0,
            voltage_setpoint=setpoints.get(node,
                                           1.0 if is_gen else None)))
    branches = []
    for edge in edges:
        if len(edge) == 2:
            i, j, r, x = edge[0], edge[1], 0.0, 0.1
        elif len(edge) == 3:
            i, j, r, x = edge[0], edge[1], 0.0, edge[2]
        else:
            i, j, r, x = edge
        branches.append(Branch(from_bus=i, to_bus=j, resistance=r,
                               reactance=x))
    return PowerNetwork(buses, branches, base_mva, generator_set)


def _open_pipes():
    """The pipe and socket ends this process holds open, as
    ``pipe:[inode]`` or ``socket:[inode]`` by fd; None where
    ``/proc/self/fd`` does not list them."""
    if not os.path.isdir("/proc/self/fd"):
        return None
    pipes = {}
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:   # the fd of the listing itself, closed by now
            continue
        if target.startswith(("pipe:", "socket:")):
            pipes[int(fd)] = target
    return pipes


@pytest.fixture(autouse=True)
def _no_unreaped_child():
    """Fail a test that leaves a child process running or unreaped, or a
    pipe open, as the ResourceWarning filter fails one that leaves a file
    open."""
    pipes = _open_pipes()
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        pass
    else:
        pytest.fail(f"test left child process {pid} unreaped" if pid
                    else "test left a child process running")
    if pipes is not None:
        left = sorted(set(_open_pipes().items()) - set(pipes.items()))
        if left:
            pytest.fail(f"test left pipes open: {left}")


@pytest.fixture(scope="session")
def case118_path():
    return DATA_DIR / "case118.m"


@pytest.fixture(scope="session")
def scenario118_path():
    return DATA_DIR / "scenario_ieee118.json"


@pytest.fixture(scope="session")
def scenario118(scenario118_path):
    return load_scenario(scenario118_path)


@pytest.fixture(scope="session")
def net118(case118_path):
    return build_network(load_case(case118_path), GEN_SET_118)


@pytest.fixture(scope="session")
def net118_faulted(net118):
    return apply_fault(net118, (14, 15))


@pytest.fixture
def two_bus_ac():
    """Lossless line x=0.1, slack V=1 at bus 1, 0.5 pu P-only load."""
    return make_network({1: 1.0, 2: -0.5}, [(1, 2, 0.1)],
                        generator_set={1})


@pytest.fixture
def triangle_dc():
    """Three-bus triangle, every susceptance 10, injections summing to 0."""
    return make_network({1: 0.9, 2: -0.3, 3: -0.6},
                        [(1, 2, 0.1), (1, 3, 0.1), (2, 3, 0.1)],
                        generator_set={1})


@pytest.fixture
def five_path():
    """Path 1-2-3-4-5 with one generator at each end."""
    return make_network({1: 1.0, 2: -0.4, 3: -0.6, 4: 0.5, 5: -0.5},
                        [(1, 2), (2, 3), (3, 4), (4, 5)],
                        generator_set={1, 4})
