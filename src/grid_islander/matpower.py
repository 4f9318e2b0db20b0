"""MATPOWER case-file parsing and network construction.

Handles the subset of the MATPOWER text format that case files actually
use: scalar assignments (``mpc.baseMVA = 100;``), numeric matrices
(``mpc.bus = [ ... ];``) with ``%`` comments, and cell arrays (skipped).
Row order of every table is preserved.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigError, MissingSection, ParseError, SchemaError
from .network import Branch, Bus, PowerNetwork

# Minimum column counts per table, from the MATPOWER data format.
_MIN_COLUMNS = {"bus": 13, "gen": 10, "branch": 11}

_SCALAR_RE = re.compile(r"^\s*mpc\.(\w+)\s*=\s*([^\[{;]+);")
_MATRIX_RE = re.compile(r"^\s*mpc\.(\w+)\s*=\s*\[")
_CELL_RE = re.compile(r"^\s*mpc\.(\w+)\s*=\s*\{")


@dataclass(frozen=True)
class RawCase:
    """Verbatim numeric tables of one case, row order preserved."""

    base_mva: float
    bus_table: np.ndarray
    gen_table: np.ndarray
    branch_table: np.ndarray

    @property
    def n_buses(self) -> int:
        return self.bus_table.shape[0]

    @property
    def n_gens(self) -> int:
        return self.gen_table.shape[0]

    @property
    def n_branches(self) -> int:
        return self.branch_table.shape[0]


def _parse_row(segment: str, lineno: int, offset: int) -> list[float]:
    try:
        return [float(token) for token in segment.split()]
    except ValueError:
        # \S+ cuts the tokens str.split does; scan them only to place the
        # error
        for match in re.finditer(r"\S+", segment):
            token = match.group(0)
            try:
                float(token)
            except ValueError:
                raise ParseError(lineno, offset + match.start() + 1,
                                 f"not a number: {token!r}") from None
        raise


def parse_case(text: str) -> RawCase:
    """Parse MATPOWER case text into raw numeric tables.

    Raises MissingSection if baseMVA, bus, gen, or branch is absent,
    ParseError (with line and column) on a malformed numeric token, and
    SchemaError when a table is ragged or narrower than the format
    requires.
    """
    base_mva: float | None = None
    tables: dict[str, list[list[float]]] = {}
    current: str | None = None      # name of the matrix being collected
    in_cell = False

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("%", 1)[0]
        if in_cell:
            if "}" in line:
                in_cell = False
            continue
        # a matrix's rows start after its opening "[" and run to its "]"
        opening = None if current is not None else _MATRIX_RE.match(line)
        if opening:
            current = opening.group(1)
            tables.setdefault(current, [])
        if current is not None:
            consumed = opening.end() if opening else 0
            body = line[consumed:]
            for segment in body.split("]", 1)[0].split(";"):
                row = _parse_row(segment, lineno, consumed)
                consumed += len(segment) + 1
                if row:
                    tables[current].append(row)
            if "]" in body:
                current = None
            continue
        if _CELL_RE.match(line):
            in_cell = "}" not in line
            continue
        m = _SCALAR_RE.match(line)
        if m and m.group(1) == "baseMVA":
            token = m.group(2).strip()
            try:
                base_mva = float(token)
            except ValueError:
                raise ParseError(lineno, line.find(token) + 1,
                                 f"not a number: {token!r}") from None

    if base_mva is None:
        raise MissingSection("baseMVA")
    arrays: dict[str, np.ndarray] = {}
    for name in ("bus", "gen", "branch"):
        if name not in tables or not tables[name]:
            raise MissingSection(name)
        rows = tables[name]
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise SchemaError(f"{name} table is ragged "
                              f"(row widths {sorted(widths)})")
        width = widths.pop()
        if width < _MIN_COLUMNS[name]:
            raise SchemaError(f"{name} table has {width} columns, "
                              f"needs at least {_MIN_COLUMNS[name]}")
        arrays[name] = np.array(rows, dtype=float)
    return RawCase(base_mva=base_mva, bus_table=arrays["bus"],
                   gen_table=arrays["gen"], branch_table=arrays["branch"])


def load_case(path) -> RawCase:
    """Read and parse a MATPOWER case file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_case(handle.read())


def build_network(case: RawCase,
                  generator_set: Iterable[int] | None = None) -> PowerNetwork:
    """Turn a raw case into a PowerNetwork.

    Scheduled generation per bus is the sum over its in-service machines;
    the voltage setpoint comes from the first in-service machine at the
    bus. Out-of-service branches are dropped. When ``generator_set`` is
    None, every bus with an in-service machine counts as a generator;
    passing an explicit set restricts the synchronous machines that the
    partitioning algorithms may rely on.
    """
    bus_ids = [int(row[0]) for row in case.bus_table]
    id_set = set(bus_ids)
    if len(id_set) != len(bus_ids):
        raise SchemaError("duplicate bus ids in bus table")

    p_sched: dict[int, float] = {b: 0.0 for b in bus_ids}
    setpoint: dict[int, float] = {}
    machine_buses: set[int] = set()
    for row in case.gen_table:
        bus = int(row[0])
        if bus not in id_set:
            raise SchemaError(f"gen table references unknown bus {bus}")
        if row[7] <= 0:        # machine status
            continue
        machine_buses.add(bus)
        p_sched[bus] += float(row[1])
        setpoint.setdefault(bus, float(row[5]))

    if generator_set is None:
        v_gen = frozenset(machine_buses)
    else:
        v_gen = frozenset(int(b) for b in generator_set)
        unknown = v_gen - id_set
        if unknown:
            raise ConfigError(f"generator set references unknown buses: "
                              f"{sorted(unknown)}")

    buses = []
    for row in case.bus_table:
        bid = int(row[0])
        buses.append(Bus(
            id=bid,
            kind="generator" if bid in v_gen else "load",
            p_demand=float(row[2]),
            q_demand=float(row[3]),
            p_gen_scheduled=p_sched[bid],
            base_kv=float(row[9]),
            voltage_setpoint=setpoint.get(bid),
        ))

    branches = []
    for row in case.branch_table:
        if row[10] <= 0:       # out of service: drop entirely
            continue
        f, t = int(row[0]), int(row[1])
        if f not in id_set or t not in id_set:
            raise SchemaError(f"branch table references unknown bus "
                              f"{f if f not in id_set else t}")
        ratio = float(row[8])
        branches.append(Branch(
            from_bus=f, to_bus=t,
            resistance=float(row[2]), reactance=float(row[3]),
            charging=float(row[4]),
            tap_ratio=ratio if ratio != 0.0 else 1.0,
            status=True,
        ))

    return PowerNetwork(buses, branches, case.base_mva, v_gen)
