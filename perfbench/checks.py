"""Output checks on one run-all directory, and artifact digests.

A run passes when every artifact the manifest lists exists and parses,
the partition is valid on the workload network (cover, disjoint,
connected, generator-backed) with one island per seed island, the J1 in
``metrics.json`` matches J1 recomputed from ``partition.json``, and a
centralized run's sync table covers every edge.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from grid_islander.errors import SchemaError
from grid_islander.metrics import metric_j1
from grid_islander.network import validate_partition
from grid_islander.serialize import partition_from_dict


def load_artifacts(out_dir: Path) -> tuple[dict, list[str]]:
    """Parsed artifacts keyed by manifest name, and the problems found."""
    try:
        manifest = json.loads((out_dir / "run_manifest.json").read_text(
            encoding="utf-8"))
        listed = dict(manifest["artifacts"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return {}, [f"run_manifest.json unreadable: {exc}"]
    artifacts = {"run_manifest": manifest}
    problems = []
    for key, name in listed.items():
        try:
            artifacts[key] = json.loads((out_dir / name).read_text(
                encoding="utf-8"))
        except (OSError, ValueError) as exc:
            problems.append(f"artifact {name} unreadable: {exc}")
    return artifacts, problems


def check_run(out_dir: Path, inputs: dict) -> list[str]:
    """Every way the run in ``out_dir`` is wrong; empty when it is right.

    ``inputs`` is what ``workloads.prepare`` returned for the run.
    """
    artifacts, problems = load_artifacts(out_dir)
    for key in ("partition", "metrics"):
        if key not in artifacts:
            problems.append(f"manifest lists no readable {key} artifact")
    if problems:
        return problems
    network = inputs["network"]
    try:
        partition = partition_from_dict(artifacts["partition"])
    except SchemaError as exc:
        return [f"partition.json: {exc}"]
    problems += list(validate_partition(network, partition).issues)
    if partition.n_islands != inputs["n_mu"]:
        problems.append(f"{partition.n_islands} islands, expected "
                        f"{inputs['n_mu']}")
    reported = artifacts["metrics"].get("J1")
    expected = metric_j1(network, partition)
    if not (isinstance(reported, (int, float))
            and math.isclose(reported, expected, rel_tol=1e-9,
                             abs_tol=1e-9)):
        problems.append(f"metrics.json J1 {reported!r} differs from "
                        f"{expected!r} recomputed from partition.json")
    if inputs["algorithm"] == "centralized":
        try:
            edges = {(int(e["i"]), int(e["j"]))
                     for e in artifacts["sync_times"]["edges"]}
        except (KeyError, TypeError, ValueError) as exc:
            return problems + [f"sync_times.json malformed: {exc}"]
        missing = network.edge_set() - edges
        if missing:
            problems.append(f"sync_times.json lacks {len(missing)} edges, "
                            f"e.g. {sorted(missing)[0]}")
    return problems


def input_digest(directory: Path) -> str:
    """One digest over every input file, names included."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def artifact_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file in a run directory; the manifest is hashed
    without its ``created_utc`` timestamp, written as the CLI writes it."""
    digests = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "run_manifest.json":
            manifest = json.loads(data)
            manifest.pop("created_utc", None)
            data = (json.dumps(manifest, indent=2) + "\n").encode()
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


def compare_digests(recorded: dict, inputs_sha: str,
                    digests: dict[str, str]) -> str:
    """A one-line verdict against the digests recorded for these inputs."""
    reference = recorded.get(inputs_sha)
    if reference is None:
        return "no digests recorded for these inputs"
    differ = sorted(name for name in set(reference) | set(digests)
                    if reference.get(name) != digests.get(name))
    return "identical" if not differ else "differ: " + ", ".join(differ)
