"""JSON encodings of networks, partitions, sync tables, and reports.

Field names here are a stable external interface; anything consuming the
CLI artifacts relies on them. ``save_json`` streams an artifact through a
temporary file beside the target, in bounded chunks, with the same bytes
as ``json.dumps(data, indent=2)`` plus a newline; the target is replaced
only once the whole document is written.
"""

from __future__ import annotations

import math
import os
from json.encoder import encode_basestring_ascii
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


# Pieces of text held before one write to the file.
_FLUSH_PIECES = 8192


def _float_text(value: float) -> str:
    """``json``'s float spelling: repr, or NaN / Infinity / -Infinity."""
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _key_text(key) -> str:
    """A dict key coerced to a string as ``json`` coerces it."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _write_json(data, handle) -> None:
    """Write ``json.dumps(data, indent=2)`` to ``handle`` piece by piece,
    with ``json``'s type tests in its order and its errors."""
    pieces: list[str] = []
    append = pieces.append
    containers: set[int] = set()

    def enter(container) -> None:
        if id(container) in containers:
            raise ValueError("Circular reference detected")
        containers.add(id(container))

    def spill() -> None:
        handle.write("".join(pieces))
        pieces.clear()

    def encode(value, indent: str) -> None:
        if isinstance(value, str):
            append(encode_basestring_ascii(value))
        elif value is None:
            append("null")
        elif value is True:
            append("true")
        elif value is False:
            append("false")
        elif isinstance(value, int):
            append(int.__repr__(value))
        elif isinstance(value, float):
            append(_float_text(value))
        elif isinstance(value, (list, tuple)):
            if not value:
                append("[]")
                return
            enter(value)
            inner = indent + "  "
            separator = "[\n" + inner
            for item in value:
                append(separator)
                separator = ",\n" + inner
                encode(item, inner)
                if len(pieces) >= _FLUSH_PIECES:
                    spill()
            append("\n" + indent + "]")
            containers.discard(id(value))
        elif isinstance(value, dict):
            if not value:
                append("{}")
                return
            enter(value)
            inner = indent + "  "
            separator = "{\n" + inner
            for key, item in value.items():
                append(separator + encode_basestring_ascii(_key_text(key))
                       + ": ")
                separator = ",\n" + inner
                encode(item, inner)
                if len(pieces) >= _FLUSH_PIECES:
                    spill()
            append("\n" + indent + "}")
            containers.discard(id(value))
        else:
            raise TypeError(f"Object of type {value.__class__.__name__} "
                            f"is not JSON serializable")

    encode(data, "")
    append("\n")
    spill()


def save_json(data: dict, path) -> None:
    """Write ``data`` as indented JSON; on any error the file at ``path``
    is left as it was and no temporary file remains."""
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "w", encoding="utf-8") as handle:
            _write_json(data, handle)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
