"""
A five-bus network from scratch
===============================

Builds a small grid by hand, inspects injections and topology helpers,
and validates a two-island split of it.
"""

from grid_islander import (Branch, Bus, Island, PowerNetwork,
                           make_partition, net_injection, validate_partition)

# two generator buses feed three loads over a ring with one spur
buses = (
    Bus(id=1, kind="generator", p_demand=0.0, q_demand=0.0,
        p_gen_scheduled=100.0, base_kv=138.0, voltage_setpoint=1.0),
    Bus(id=2, kind="load", p_demand=40.0, q_demand=8.0,
        p_gen_scheduled=0.0, base_kv=138.0),
    Bus(id=3, kind="load", p_demand=60.0, q_demand=12.0,
        p_gen_scheduled=0.0, base_kv=138.0),
    Bus(id=4, kind="generator", p_demand=0.0, q_demand=0.0,
        p_gen_scheduled=55.0, base_kv=138.0, voltage_setpoint=1.0),
    Bus(id=5, kind="load", p_demand=50.0, q_demand=10.0,
        p_gen_scheduled=0.0, base_kv=138.0),
)
branches = (
    Branch(from_bus=1, to_bus=2, resistance=0.01, reactance=0.06),
    Branch(from_bus=2, to_bus=3, resistance=0.01, reactance=0.08),
    Branch(from_bus=2, to_bus=4, resistance=0.01, reactance=0.07),
    Branch(from_bus=3, to_bus=4, resistance=0.01, reactance=0.09),
    Branch(from_bus=4, to_bus=5, resistance=0.01, reactance=0.05),
)
net = PowerNetwork(buses=buses, branches=branches, base_mva=100.0,
                   generator_set=frozenset({1, 4}))

# net injections are per-unit: generation minus demand over the base
for node in net.node_ids():
    print(f"bus {node}: injection {net_injection(net, node):+.2f} pu")

# topology helpers: neighbors and connectivity of a bus subset
print("neighbors of bus 2:", net.neighbors(2))
print("buses 1, 3 connected on their own:", net.subgraph_connected({1, 3}))

# split the ring into two islands and check every partition rule
left = Island(label=1, node_set=frozenset({1, 2, 3}))
right = Island(label=2, node_set=frozenset({4, 5}))
partition = make_partition(net, (left, right))
report = validate_partition(net, partition)
print("cut set:", partition.cut_set)
print("all checks pass:", report.all_ok)

# a partition that abandons bus 5 fails the cover check
broken = make_partition(net, (left, Island(label=2, node_set=frozenset({4}))))
print("missing bus 5:", validate_partition(net, broken).issues)
