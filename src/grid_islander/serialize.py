"""JSON encodings of networks, partitions, sync tables, and reports.

Field names here are a stable external interface; anything consuming the
CLI artifacts relies on them. ``save_json`` streams an artifact through a
temporary file beside the target, in bounded chunks, with the same bytes
as ``json.dumps(data, indent=2)`` plus a newline, and ``save_csv`` a CSV
output the same way; the target is replaced only once the whole file is
written. Artifacts have only ``str`` keys and no cycles, so the writer
handles nothing else: ``save_json`` raises TypeError on any other key
and RecursionError on a cycle.
"""

from __future__ import annotations

import math
import os
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .errors import SchemaError, integer
from .network import Island, Partition, PowerNetwork

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
            Island(label=integer("label", row["label"]),
                   node_set=frozenset(integer("node", n)
                                      for n in row["nodes"]))
            for row in data["islands"])
        cut = tuple((integer("cut_set node", a), integer("cut_set node", b))
                    for a, b in data["cut_set"])
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
    """Inverse of ``sync_table_to_dict``; a sync time must be a
    nonnegative number or +infinity ("inf" or a bare Infinity), never a
    boolean or another string. Each edge joins two nodes in either order
    and is listed once."""
    from .kuramoto import SyncTimeTable
    entries = {}
    try:
        for row in data["edges"]:
            t = row["t_sync"]
            if isinstance(t, (bool, str)) and t != "inf":
                raise ValueError(f"t_sync {t!r} is not a number or \"inf\"")
            t = math.inf if t == "inf" else float(t)
            if not t >= 0.0:
                raise ValueError(f"t_sync {t} is not a nonnegative time")
            i, j = sorted((integer("i", row["i"]), integer("j", row["j"])))
            if i == j or (i, j) in entries:
                raise ValueError(f"edge {i}-{j} is a loop or listed twice")
            entries[(i, j)] = t
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


# Spelling of each exact scalar type ``json`` writes. An exact scalar or
# container fails every type test before its own, so it skips them; a
# subclass (a numpy float, an IntEnum) takes them in ``json``'s order.
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda value: "null",
}


def _write_json(data, handle) -> None:
    """Write ``json.dumps(data, indent=2)`` to ``handle`` piece by piece,
    with ``json``'s type tests in its order and ``str`` keys only."""
    pieces: list[str] = []
    append = pieces.append
    scalar_text = _SCALAR_TEXT.get

    def spill() -> None:
        handle.write("".join(pieces))
        pieces.clear()

    def sequence(value, indent: str) -> None:
        if not value:
            append("[]")
            return
        inner = indent + "  "
        separator, comma = "[\n" + inner, ",\n" + inner
        for item in value:
            text = scalar_text(item.__class__)
            if text is None:
                append(separator)
                writer_for(item.__class__, encode)(item, inner)
            else:
                append(separator + text(item))
            separator = comma
            if len(pieces) >= _FLUSH_PIECES:
                spill()
        append("\n" + indent + "]")

    def mapping(value, indent: str) -> None:
        if not value:
            append("{}")
            return
        inner = indent + "  "
        separator, comma = "{\n" + inner, ",\n" + inner
        for key, item in value.items():
            head = separator + encode_basestring_ascii(key) + ": "
            text = scalar_text(item.__class__)
            if text is None:
                append(head)
                writer_for(item.__class__, encode)(item, inner)
            else:
                append(head + text(item))
            separator = comma
            if len(pieces) >= _FLUSH_PIECES:
                spill()
        append("\n" + indent + "}")

    writer_for = {dict: mapping, list: sequence, tuple: sequence}.get

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
            sequence(value, indent)
        elif isinstance(value, dict):
            mapping(value, indent)
        else:
            raise TypeError(f"Object of type {value.__class__.__name__} "
                            f"is not JSON serializable")

    writer_for(data.__class__, encode)(data, "")
    append("\n")
    spill()


def _write_replacing(path, write) -> None:
    """Run ``write(handle)`` on a text file beside ``path`` that then
    replaces it; on any error, Ctrl-C included, the file at ``path`` is
    left as it was and no temporary file remains."""
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "w", encoding="utf-8", newline="") as handle:
            write(handle)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def save_json(data: dict, path) -> None:
    """Write ``data`` as indented JSON, replacing ``path`` whole."""
    _write_replacing(path, lambda handle: _write_json(data, handle))


def save_csv(header: list[str], lines, path) -> None:
    """Replace ``path`` whole with ``header``, then ``lines``: text of
    whole rows spelled as csv.writer spells ints and floats (str and
    repr, comma separated, each row ended by CR LF)."""
    _write_replacing(path, lambda handle: handle.writelines(
        chain([",".join(header) + "\r\n"], lines)))
