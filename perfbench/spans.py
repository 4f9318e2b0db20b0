"""Spans around the program's layer calls, recorded from outside.

Each public function is wrapped where the calling module looks it up
(``grid_islander.cli.build_layer``, ``grid_islander.decentralized.
build_layer``, ``grid_islander.metrics.ac_power_flow``, ...), so nested
calls get their caller's span as parent. Spans live in memory as
(name, start, end, parent, attrs) and are written out by the caller.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager

import grid_islander.cli as cli
import grid_islander.decentralized as decentralized
import grid_islander.metrics as metrics
from grid_islander.errors import NotConverged


def _ensemble_note(args, kwargs, result, attrs):
    attrs["steps"] = len(result.times) - 1
    attrs["trajectory_bytes"] = result.phases.nbytes


def _sync_note(args, kwargs, result, attrs):
    attrs["never"] = sum(1 for _, t in result.items() if math.isinf(t))


def _centralized_note(args, kwargs, result, attrs):
    attrs["steps"] = len(result.steps)


def _decentralized_note(args, kwargs, result, attrs):
    actions = [e["action"] for e in result.events
               if e["payload"].get("reason") != "fallback"]
    attrs.update(rounds=result.rounds,
                 evaluations=sum(result.layer_evaluations),
                 joins=actions.count("join"), stale=actions.count("stale"),
                 waits=actions.count("wait"),
                 fallback_nodes=len(result.fallback_nodes))


def _ac_note(args, kwargs, result, attrs):
    nodes = args[1] if len(args) > 1 else kwargs.get("nodes")
    attrs["whole_network"] = nodes is None
    if isinstance(result, NotConverged):
        attrs.update(iterations=result.iterations, converged=False)
    elif not isinstance(result, BaseException):
        attrs.update(iterations=result.iterations, converged=True)


def _metrics_note(args, kwargs, result, attrs):
    attrs.update(j2=result.j2, j3=result.j3, j4=result.j4)


# (module, attribute, span name, note); a note sees the call's arguments
# and its result, or the exception it raised.
WRAPPED = (
    (cli, "load_scenario", "scenario.load", None),
    (cli, "load_case", "matpower.load_case", None),
    (cli, "build_network", "matpower.build_network", None),
    (cli, "apply_fault", "network.apply_fault", None),
    (cli, "validate_partition", "network.validate_partition", None),
    (cli, "build_layer", "kuramoto.build_layer", None),
    (decentralized, "build_layer", "kuramoto.build_layer", None),
    (cli, "ensemble_integrate", "kuramoto.ensemble_integrate",
     _ensemble_note),
    (cli, "sync_times", "kuramoto.sync_times", _sync_note),
    (cli, "centralized_partition", "centralized.partition",
     _centralized_note),
    (cli, "run_decentralized", "decentralized.run", _decentralized_note),
    (cli, "compute_metrics", "metrics.compute", _metrics_note),
    (metrics, "ac_power_flow", "powerflow.ac", _ac_note),
    (metrics, "dc_power_flow", "powerflow.dc", None),
    (cli, "network_to_dict", "serialize.to_dict", None),
    (cli, "sync_table_to_dict", "serialize.to_dict", None),
    (cli, "partition_to_dict", "serialize.to_dict", None),
    (cli, "metrics_to_dict", "serialize.to_dict", None),
    (cli, "save_json", "serialize.save_json", None),
)


class Tracer:
    """Collects spans; ``installed()`` wraps the layer calls meanwhile."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _open(self, name: str) -> dict:
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None,
                  "attrs": {}}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: dict) -> None:
        record["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, func, name, note):
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                self._close(record)
                record["attrs"]["error"] = type(exc).__name__
                if note is not None:
                    note(args, kwargs, exc, record["attrs"])
                raise
            self._close(record)
            if note is not None:
                note(args, kwargs, result, record["attrs"])
            return result
        return traced

    @contextmanager
    def installed(self):
        originals = [(module, attr, getattr(module, attr))
                     for module, attr, _, _ in WRAPPED]
        try:
            for module, attr, name, note in WRAPPED:
                setattr(module, attr,
                        self._wrap(getattr(module, attr), name, note))
            yield self
        finally:
            for module, attr, func in originals:
                setattr(module, attr, func)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def summary(spans: list[dict]) -> dict[str, dict]:
    """Calls, total and self seconds per span name."""
    out: dict[str, dict] = {}
    for s, own in zip(spans, self_times(spans)):
        row = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += own
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures of one traced run-all under a ``cli.run_all``
    span. Layers the run never entered read 0."""
    table = summary(spans)

    def total(name):
        return table.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in spans
                   if s["name"] == name)

    steps = attr_sum("kuramoto.ensemble_integrate", "steps")
    joins = attr_sum("decentralized.run", "joins")
    tried = joins + attr_sum("decentralized.run", "stale") \
        + attr_sum("decentralized.run", "waits")
    j2 = attr_sum("metrics.compute", "j2")
    j3 = attr_sum("metrics.compute", "j3")
    return {
        "kuramoto.build_layer_s": total("kuramoto.build_layer"),
        "kuramoto.build_layer_calls": calls("kuramoto.build_layer"),
        "kuramoto.ensemble_integrate_s":
            total("kuramoto.ensemble_integrate"),
        "kuramoto.rk4_step_us": (1e6 * total("kuramoto.ensemble_integrate")
                                 / steps if steps else 0.0),
        "kuramoto.trajectory_mb":
            attr_sum("kuramoto.ensemble_integrate", "trajectory_bytes")
            / 1e6,
        "kuramoto.sync_times_s": total("kuramoto.sync_times"),
        "kuramoto.sync_never": attr_sum("kuramoto.sync_times", "never"),
        "decentralized.run_s": total("decentralized.run"),
        "decentralized.rounds": attr_sum("decentralized.run", "rounds"),
        "decentralized.evaluations":
            attr_sum("decentralized.run", "evaluations"),
        "decentralized.joins": joins,
        "decentralized.stale": attr_sum("decentralized.run", "stale"),
        "decentralized.waits": attr_sum("decentralized.run", "waits"),
        "decentralized.fallback_nodes":
            attr_sum("decentralized.run", "fallback_nodes"),
        "decentralized.join_ratio": joins / tried if tried else 0.0,
        "powerflow.ac_calls": calls("powerflow.ac"),
        "powerflow.ac_s": total("powerflow.ac"),
        "powerflow.ac_iterations": attr_sum("powerflow.ac", "iterations"),
        "powerflow.ac_not_converged": sum(
            1 for s in spans if s["name"] == "powerflow.ac"
            and s["attrs"].get("converged") is False),
        "powerflow.dc_calls": calls("powerflow.dc"),
        "powerflow.dc_s": total("powerflow.dc"),
        "powerflow.full_network_ac_s": sum(
            s["end"] - s["start"] for s in spans
            if s["name"] == "powerflow.ac"
            and s["attrs"].get("whole_network")),
        "metrics.compute_s": total("metrics.compute"),
        "metrics.self_s": table.get("metrics.compute", {}).get("self_s",
                                                               0.0),
        "metrics.j2": 0.0 if math.isnan(j2) else j2,
        "metrics.j3": 0.0 if math.isnan(j3) else j3,
        "metrics.j4_mw": attr_sum("metrics.compute", "j4"),
        "centralized.partition_s": total("centralized.partition"),
        "centralized.attach_steps": attr_sum("centralized.partition",
                                             "steps"),
        "matpower.load_case_s": total("matpower.load_case"),
        "matpower.build_network_s": total("matpower.build_network"),
        "network.apply_fault_s": total("network.apply_fault"),
        "network.validate_partition_s": total("network.validate_partition"),
        "scenario.load_s": total("scenario.load"),
        "serialize.to_dict_s": total("serialize.to_dict"),
        "serialize.save_json_s": total("serialize.save_json"),
        "cli.glue_s": table["cli.run_all"]["self_s"],
    }


def medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows)
            for key in rows[0]}
