"""Callers outside the package: the benchmark tracer and the demos.

Both reach the library by name, so a renamed or deleted function breaks
them only when they run; these tests run them.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from grid_islander import partition_to_dict

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import spans

    for module, attr, span_name, _ in spans.WRAPPED:
        assert callable(getattr(module, attr, None)), \
            f"{module.__name__}.{attr} (span {span_name}) is gone"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


# sha256 over the json.dumps of partition_to_dict of every partition the
# fault sweep grows, in ascending fault order.
FAULT_SWEEP_SHA256 = (
    "83e0ae259f5bdd79e8adacf2d942223ddd983912bc9813b16e4a99e8cc91da2a")


def test_decentralized_fault_sweep_is_pinned():
    spec = importlib.util.spec_from_file_location(
        "fault_sweep", ROOT / "demos" / "05_fault_sweep.py")
    fault_sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fault_sweep)

    records = fault_sweep.sweep()
    assert len(records) == 179
    assert Counter(outcome for _, outcome, _, _ in records) == {
        "ok": 147, "ConfigError": 28, "Stalled": 4}
    digest = hashlib.sha256()
    for _, outcome, _, partition in records:
        if outcome == "ok":
            digest.update(json.dumps(partition_to_dict(partition)).encode())
    assert digest.hexdigest() == FAULT_SWEEP_SHA256
