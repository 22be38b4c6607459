"""One pass of one workload, in the interpreter that runs this module.

``run.py`` starts a fresh interpreter for every pass, as every ``potbench``
invocation is one: nothing a pass leaves in memory (a warm cache, a memo)
reaches the next pass, and the peak resident memory is that of one pass.

    python3 -m perfbench.onepass --workload NAME --seed N --inputs DIR \
        --out DIR --trace 0|1 --result FILE [--spans FILE]
"""

import argparse
import csv
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from . import gate, workloads
from .tracer import Tracer, layer_metrics


def run_workload(inputs, out):
    """Run the scenario files through ``artifact.cli``; exit code per scenario."""
    from artifact import cli

    cli.run_suite(inputs, out, threads=1)
    with open(Path(out) / "summary.csv", newline="") as fh:
        return {
            row["scenario"]: 0 if row["result"] == "pass" else 1
            for row in csv.DictReader(fh)
        }


def output_bytes(out, scenarios):
    """Bytes of every scenario's report.json and result tables.

    ``manifest.json`` and ``summary.csv`` hold wall times, so their length
    changes from pass to pass; they are left out.
    """
    total = 0
    for name in scenarios:
        for path in sorted((Path(out) / name).glob("*")):
            if path.name == "report.json" or path.suffix == ".csv":
                total += path.stat().st_size
    return total


def one_pass(scenarios, inputs, out, reference, tracer=None):
    """Run and check one pass.  Returns the pass record (no layer metrics).

    The wall time runs from the first call into ``artifact`` until every
    output has been checked.
    """
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        codes = run_workload(inputs, out)
        crash = None
    except Exception:  # noqa: BLE001 - a crash fails the pass, it must not end the run
        codes = {}
        crash = traceback.format_exc(limit=4)
    finally:
        if tracer is not None:
            tracer.restore()
    problems = {}
    for name, (_, scale, t) in scenarios.items():
        if crash is not None:
            problems[name] = [f"raised: {crash}"]
            continue
        report = gate.read_report(out, name)
        problems[name] = gate.check_scenario(
            codes.get(name, "missing"), report, scale, t, reference[name]
        )
    wall = time.perf_counter() - start
    digests = {}
    for name in scenarios:
        path = Path(out) / name / "report.json"
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
    return {
        "wall_s": wall,
        "problems": problems,
        "report_sha256": digests,
        "bytes_written": output_bytes(out, scenarios),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    import artifact.cli  # noqa: F401 - imported before the clock starts; setup_s times it

    scenarios = workloads.generate(args.workload, args.seed)
    reference = gate.load_reference()[args.workload]
    tracer = Tracer() if args.trace else None
    record = one_pass(scenarios, args.inputs, args.out, reference, tracer)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer is not None:
        record["layers"] = layer_metrics(tracer.spans)
        record["layers"]["cli.bytes_written"] = record["bytes_written"]
        if args.spans:
            Path(args.spans).write_text(
                json.dumps([span.to_list() for span in tracer.spans]) + "\n"
            )
    Path(args.result).write_text(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
