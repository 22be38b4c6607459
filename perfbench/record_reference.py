"""Record ``reference.json``: the gate's observations of every scenario at scale 1.

    python3 perfbench/record_reference.py

Observations are divided by the scale the seed chose (m, or m^t for
energies), so the reference does not depend on the seed it was recorded at.

The reference belongs to the commit that defined the benchmark.  A later
change that moves an output past the gate's tolerances has changed what the
program computes; re-recording to make it pass would hide exactly that.
"""

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import gate, workloads  # noqa: E402
from perfbench.onepass import run_workload  # noqa: E402

SEED = 0


def record(workload, seed, work, tiny=False):
    """Observations of one workload's scenarios, each divided by its scale."""
    scenarios = workloads.generate(workload, seed, tiny)
    inputs = Path(work) / "inputs"
    out = Path(work) / "out"
    workloads.write(scenarios, inputs)
    codes = run_workload(inputs, out)
    reference = {}
    for name, (_, scale, t) in scenarios.items():
        if codes.get(name) != 0:
            raise RuntimeError(f"{workload}/{name} exited {codes.get(name)}; nothing recorded")
        reference[name] = gate.observe(gate.read_report(out, name), scale, t)
    return reference


def main():
    work = ROOT / ".perfbench-work" / "record"
    try:
        reference = {
            workload: record(workload, SEED, work / workload)
            for workload in workloads.WORKLOADS
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    gate.REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
