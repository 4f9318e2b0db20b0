"""Record the sha256 of every run-all artifact per workload input set.

    python3 perfbench/record_digests.py [--seeds 1-10]

Run from the root of a checkout. Writes ``perfbench/digests.json``,
keyed by workload and by the digest of the generated input files, so
inputs that do not depend on the seed are recorded once. ``run.py``
compares each run's artifacts against it and reports, without failing,
whether they are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10",
                        help="inclusive seed range, as FIRST-LAST")
    first, last = (int(s) for s in parser.parse_args().seeds.split("-"))
    sys.path.insert(0, str(run.SRC))
    import checks
    import workloads

    recorded: dict[str, dict] = {}
    for workload in workloads.WORKLOADS:
        table = recorded.setdefault(workload, {})
        work = run.OUT / workload
        for seed in range(first, last + 1):
            inputs = workloads.prepare(workload, seed, work / "inputs")
            inputs_sha = checks.input_digest(inputs["scenario"].parent)
            if inputs_sha in table:
                continue
            problems, out, _, _ = run.checked_child_run(inputs, work)
            if problems:
                print(f"{workload} seed {seed}: {problems}", file=sys.stderr)
                return 1
            table[inputs_sha] = checks.artifact_digests(out)
            print(f"{workload} seed {seed}: recorded", flush=True)
    run.DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True)
                           + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
