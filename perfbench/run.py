"""Benchmark of grid-islander's ``run-all`` pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The program is run from the checkout's
``src`` tree as ``python3 -m grid_islander.cli``, the module behind the
``grid-islander`` console script. Every output goes under
``perfbench/out/``. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Workloads (inputs are written by ``workloads.py``):

* ``ieee118-central``: centralized growth on the shipped IEEE 118-bus
  scenario with 20 ensemble runs at dt 0.0035 over 35 s (10,000 RK4
  steps, inside RK4's stability interval); the ensemble seed is the
  workload seed. Integration and sync detection dominate.
* ``tiled8-decentral``: decentralized analytic growth on a fixed
  944-bus case, eight copies of case118 joined in a ring by tie lines.
  Brings out the O(n^2) and O(n^3) costs of the decentralized rounds
  and the dense power flows; nothing is integrated.
* ``ieee118-decentral``: decentralized analytic growth on the shipped
  scenario, unchanged. It runs by hand but is not in ``BENCHMARK.json``:
  its runs last under a second, so they follow the shared host's fast
  and slow phases (about 0.55 and 0.85 s on a 2-vCPU host), and the
  middle half of ten runs' medians spread over up to 0.26 of their
  median.

Every BLAS call runs on one thread, in this process and in the
children (``OPENBLAS_NUM_THREADS=1``). On a 2-vCPU host whose other
vCPU is shared, two BLAS threads time the neighbours as much as the
program: in 13 interleaved pairs of ``tiled8-decentral`` run-all
children, the middle half of the times spread over 0.195 of their
median with two threads and 0.151 with one, at 18% more median wall
time; one thread was from 2% faster to 38% slower, depending on the
neighbours.

``--trace 0`` runs one untimed ``parse`` child, which compiles the
package's bytecode in a fresh checkout, then times run-all children one
after another, closed loop, until they add up to ``--seconds``. Between
them it times ``SETUP_REPEATS`` ``grid-islander parse`` children
(``setup_s``), in short blocks paced to the run-all time so far, so
set-up samples spread over the whole run. It reports medians of
``run_all_s`` (spawn to exit), ``peak_rss_mb`` (``ru_maxrss`` from
``os.wait4``) and ``setup_s``, and ``j1_mw``, J1 from ``metrics.json``,
which must repeat exactly. J4 is a per-layer figure only: on
``ieee118-central`` about one ensemble seed in seven moves a
zero-injection bus across the cut, which leaves J1 at 67.7 MW but takes
J4 from 60.1 to 49.8 MW. Every run's outputs are checked
(``checks.py``); a run that exits non-zero or fails a check counts in
``failed``.

``--trace 1`` repeats, for ``--seconds``, an untraced child (its CPU
time is ``cli.cpu_s``), an in-process run with spans around every layer
call (``spans.py``), and an untraced in-process run
(``cli.run_all_inproc_s``). The two in-process runs swap order on every
iteration; ``cli.trace_overhead_s`` is the median of the per-iteration
differences, traced minus untraced. Only ``cli.main`` is timed; the
output checks run after the clock and the spans stop. Metrics of a
layer the workload never enters read 0: the ``kuramoto.*`` integration
figures, ``sync_*`` and ``centralized.*`` on the decentral workloads,
``decentralized.*`` on ``ieee118-central``.
``kuramoto.build_layer_calls`` counts calls from the CLI and from the
decentralized agents together.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
DIGESTS = ROOT / "perfbench" / "digests.json"

SETUP_REPEATS = 25
IMPORT_REPEATS = 3
MIN_RUNS = 3
CHILD_TIMEOUT_S = 120

# Read by OpenBLAS when numpy loads it, so this must run before any
# import of numpy; children inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_child(cmd: list[str], log_path: Path):
    """Run one child to completion; (exit code, wall s, rusage)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def cli_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "grid_islander.cli", *argv]


def blas_threads() -> int | None:
    """OpenBLAS's thread count, when numpy bundles an OpenBLAS we can ask."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            func = getattr(lib, name, None)
            if func is not None:
                return int(func())
    return None


def machine_facts() -> dict:
    import numpy

    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": blas_threads()}


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class Runs:
    """Attempted and failed run counts, with what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[list[str]] = []

    def add(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.problems.append(problems)
        return not problems

    @property
    def failed(self) -> int:
        return len(self.problems)


def checked_child_run(inputs: dict, work: Path):
    """One run-all child into a fresh directory: (problems, directory,
    wall s, rusage)."""
    import checks

    out = work / "run"
    shutil.rmtree(out, ignore_errors=True)
    code, wall, usage = run_child(
        cli_cmd(inputs["argv"] + ["--out-dir", str(out)]), work / "child.log")
    problems = ([f"exit code {code}"] if code
                else checks.check_run(out, inputs))
    return problems, out, wall, usage


def j1(out: Path) -> float:
    return json.loads((out / "metrics.json").read_text(encoding="utf-8"))["J1"]


def measure_end_to_end(inputs: dict, seconds: float, work: Path,
                       runs: Runs, record: dict) -> dict:
    import checks

    def parse_child() -> float:
        code, wall, _ = run_child(cli_cmd(["parse", str(inputs["case"])]),
                                  work / "parse.log")
        runs.add([f"parse exit code {code}"] if code else [])
        return wall

    # Set-up blocks are paced to the run-all time measured so far, so the
    # set-up samples spread over the same stretch of machine load as the
    # run-all children.
    setup, walls, rss, j1_values = [], [], [], []
    digests = None
    parse_child()
    while len(walls) < MIN_RUNS or sum(walls) < seconds:
        while len(setup) < min(SETUP_REPEATS,
                                max(1, SETUP_REPEATS * sum(walls) / seconds)):
            setup.append(parse_child())
        problems, out, wall, usage = checked_child_run(inputs, work)
        walls.append(wall)
        rss.append(usage.ru_maxrss * 1024 / 1e6)
        if not problems:
            j1_values.append(j1(out))
            if j1_values[-1] != j1_values[0]:
                problems.append(f"J1 {j1_values[-1]!r} differs from the "
                                f"first run's {j1_values[0]!r}")
            if digests is None:
                digests = checks.artifact_digests(out)
        runs.add(problems)
    while len(setup) < SETUP_REPEATS:
        setup.append(parse_child())

    recorded = (json.loads(DIGESTS.read_text(encoding="utf-8"))
                if DIGESTS.exists() else {})
    inputs_sha = checks.input_digest(inputs["scenario"].parent)
    verdict = ("no passing run" if digests is None else
               checks.compare_digests(recorded.get(inputs["workload"], {}),
                                      inputs_sha, digests))
    print(f"artifact digests: {verdict}")
    record.update(setup_s=setup, run_all_s=walls, peak_rss_mb=rss,
                  inputs_sha256=inputs_sha, artifact_sha256=digests,
                  digest_verdict=verdict)
    return {"run_all_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(rss),
            "j1_mw": j1_values[0] if j1_values else 0.0}


def in_process_run(argv: list[str], out: Path, inputs: dict, runs: Runs,
                   tracer=None) -> float:
    """``cli.main(argv)`` on a fresh directory, stdout dropped; under a
    ``cli.run_all`` span with the layer calls wrapped when ``tracer`` is
    given. Returns the seconds of ``cli.main`` alone; the outputs are
    checked after the clock stops."""
    import checks
    import grid_islander.cli as cli

    shutil.rmtree(out, ignore_errors=True)
    installed = tracer.installed() if tracer else contextlib.nullcontext()
    span = tracer.span("cli.run_all") if tracer else contextlib.nullcontext()
    error = None
    with installed, contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        try:
            with span:
                code = cli.main(argv + ["--out-dir", str(out)])
        except Exception as exc:
            error = exc
        wall = time.perf_counter() - start
    if error is not None:
        runs.add(["".join(traceback.format_exception(error))])
    else:
        runs.add([f"exit code {code}"] if code
                 else checks.check_run(out, inputs))
    return wall


def measure_layers(inputs: dict, seconds: float, work: Path, runs: Runs,
                   record: dict) -> dict:
    import spans

    import_walls = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import time; t = time.perf_counter(); import grid_islander.cli;"
             " print(time.perf_counter() - t)"],
            env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        runs.add([f"import exit code {proc.returncode}"]
                 if proc.returncode else [])
        import_walls.append(float(proc.stdout) if proc.returncode == 0
                            else 0.0)

    out = work / "run"
    rows, inproc, overhead, cpu, traces = [], [], [], [], []
    start = time.perf_counter()
    while not rows or time.perf_counter() - start < seconds:
        problems, _, _, usage = checked_child_run(inputs, work)
        runs.add(problems)
        cpu.append(usage.ru_utime + usage.ru_stime)

        # The traced and untraced runs swap order on every iteration, so
        # neither always gets the warmer heap.
        tracer = spans.Tracer()
        order = (tracer, None) if len(rows) % 2 == 0 else (None, tracer)
        wall = {t is tracer: in_process_run(inputs["argv"], out, inputs,
                                            runs, t) for t in order}
        row = spans.layer_metrics(tracer.spans)
        row["serialize.bytes_written"] = sum(
            p.stat().st_size for p in out.iterdir()) if out.exists() else 0
        rows.append(row)
        traces.append(tracer.spans)
        inproc.append(wall[False])
        overhead.append(wall[True] - wall[False])

    layers = spans.medians(rows)
    layers.update({
        "kuramoto.stability_ratio": inputs["stability_ratio"],
        "cli.import_s": statistics.median(import_walls),
        "cli.run_all_inproc_s": statistics.median(inproc),
        "cli.cpu_s": statistics.median(cpu),
        "cli.trace_overhead_s": statistics.median(overhead),
    })
    record.update(layer_rows=rows, run_all_inproc_s=inproc,
                  trace_overhead_s=overhead, cpu_s=cpu,
                  import_s=import_walls,
                  span_summary=[spans.summary(t) for t in traces],
                  spans=traces)
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "grid_islander" / "cli.py").is_file():
        print(f"error: no grid_islander package under {SRC}; run from the "
              f"root of a grid-islander checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()
    work = OUT / args.workload
    inputs = workloads.prepare(args.workload, args.seed, work / "inputs")
    facts = machine_facts()
    print(f"machine: {json.dumps(facts)}")

    runs = Runs()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": facts}
    if args.trace:
        values, units = measure_layers(inputs, args.seconds, work, runs,
                                       record), per_layer
    else:
        values, units = measure_end_to_end(inputs, args.seconds, work,
                                           runs, record), end_to_end
    if set(values) != set(units):
        raise RuntimeError(f"measured metrics {sorted(values)} do not match "
                           f"BENCHMARK.json {sorted(units)}")
    result = {"correct": runs.failed == 0, "attempted": runs.attempted,
              "failed": runs.failed,
              "metrics": {name: {"value": float(values[name]),
                                 "unit": units[name]}
                          for name in units}}
    record.update(result=result, problems=runs.problems)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n",
                            encoding="utf-8")
    for problems in runs.problems:
        print("failed run: " + "; ".join(problems), file=sys.stderr)
    print(f"fail_rate: {runs.failed}/{runs.attempted}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
