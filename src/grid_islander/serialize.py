"""JSON encodings of networks, partitions, sync tables, and reports.

Field names here are a stable external interface; anything consuming the
CLI artifacts relies on them.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .errors import SchemaError
from .network import Branch, Bus, Island, Partition, PowerNetwork

NETWORK_SCHEMA_VERSION = 1


def network_to_dict(network: PowerNetwork) -> dict:
    return {
        "schema_version": NETWORK_SCHEMA_VERSION,
        "base_mva": network.base_mva,
        "generator_set": sorted(network.generator_set),
        "buses": [
            {
                "id": bus.id,
                "kind": bus.kind,
                "p_demand": bus.p_demand,
                "q_demand": bus.q_demand,
                "p_gen_scheduled": bus.p_gen_scheduled,
                "base_kv": bus.base_kv,
                "voltage_setpoint": bus.voltage_setpoint,
            }
            for bus in network.buses
        ],
        "branches": [
            {
                "from_bus": br.from_bus,
                "to_bus": br.to_bus,
                "resistance": br.resistance,
                "reactance": br.reactance,
                "charging": br.charging,
                "tap_ratio": br.tap_ratio,
                "status": br.status,
            }
            for br in network.branches
        ],
    }


def network_from_dict(data: dict) -> PowerNetwork:
    version = data.get("schema_version", NETWORK_SCHEMA_VERSION)
    if version != NETWORK_SCHEMA_VERSION:
        raise SchemaError(f"unsupported network schema_version {version}")
    try:
        buses = tuple(Bus(**row) for row in data["buses"])
        branches = tuple(Branch(**row) for row in data["branches"])
        return PowerNetwork(buses, branches, data["base_mva"],
                            data["generator_set"])
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed network JSON: {exc}") from None


def partition_to_dict(partition: Partition) -> dict:
    return {
        "islands": [
            {"label": isl.label, "nodes": sorted(isl.node_set)}
            for isl in sorted(partition.islands, key=lambda i: i.label)
        ],
        "cut_set": [list(pair) for pair in partition.cut_set],
    }


def partition_from_dict(data: dict) -> Partition:
    try:
        islands = tuple(
            Island(label=int(row["label"]),
                   node_set=frozenset(int(n) for n in row["nodes"]))
            for row in data["islands"])
        cut = tuple((int(a), int(b)) for a, b in data["cut_set"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed partition JSON: {exc}") from None
    return Partition(islands=islands, cut_set=cut)


def sync_table_to_dict(table) -> dict:
    """Sync-time table as a JSON object; +infinity encodes as "inf"."""
    edges = []
    for (a, b), t in sorted(table.entries.items()):
        edges.append({"i": a, "j": b,
                      "t_sync": "inf" if math.isinf(t) else t})
    return {"edges": edges}


def sync_table_from_dict(data: dict):
    from .kuramoto import SyncTimeTable
    entries = {}
    try:
        for row in data["edges"]:
            t = row["t_sync"]
            entries[(int(row["i"]), int(row["j"]))] = (
                math.inf if t == "inf" else float(t))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed sync table JSON: {exc}") from None
    return SyncTimeTable(entries=entries)


def save_json(data: dict, path) -> None:
    Path(path).write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
