"""Benchmark runner: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload obstacle-2d-t3 --seed 1 --seconds 20 --trace 0

    for w in obstacle-2d-t3 probe-3d-t2 batch-repeat; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 20 --trace 0; done

Run from the root of a checkout; it builds nothing and imports the program
from ``src/``.  It

1. writes the workload's scenario files for the seed into a scratch directory
   of the checkout (the program sees only those files);
2. times ``setup_s``: a fresh interpreter importing ``artifact.cli`` and
   loading every scenario, several times, reported as the median;
3. runs passes, each in a fresh single-threaded interpreter
   (``perfbench/onepass.py``), until ``--seconds`` have passed and at least two
   passes ran, and checks every output against ``reference.json``;
4. with ``--trace 1``, runs as many traced passes again and reports the
   per-layer metrics of ``tracer.METRICS``.

Timings are medians over the passes of a run; the sample count is printed
with each.  Every metric is printed with its unit, then the environment
record, then one JSON object as the last line.  A full record of the run
(every sample, every problem the gate found, the environment) is written to
``.perfbench-results/``, and the spans of the first traced pass next to it.
The exit code is 0 only when every output passed the gate.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import envinfo, workloads  # noqa: E402
from perfbench.tracer import METRICS as LAYER_METRICS  # noqa: E402

MIN_PASSES = 2
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 150
SETUP_CODE = (
    "import sys\n"
    "import artifact.cli\n"
    "for path in sys.argv[1:]:\n"
    "    artifact.cli.load_scenario(path)\n"
)

# End-to-end metrics and their units, in print order.  failed_frac is printed
# for people; the JSON carries passed_frac, which is never 0.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "passed_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark could not run; nothing is printed as a result."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in envinfo.THREAD_VARS:
        env[var] = "1"
    return env


def _run_child(argv, env):
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[1:3]} ran past {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{argv[1:3]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def time_setup(paths, env):
    argv = [sys.executable, "-c", SETUP_CODE] + [str(p) for p in paths]
    _run_child(argv, env)  # untimed: compiles the byte code once, as an installed package has
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        _run_child(argv, env)
        samples.append(time.perf_counter() - start)
    return samples


def run_passes(args, inputs, work, env, trace, seconds, spans_path=None):
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        tag = f"{'traced' if trace else 'plain'}-{len(passes)}"
        result = work / f"{tag}.json"
        argv = [
            sys.executable, "-m", "perfbench.onepass",
            "--workload", args.workload, "--seed", str(args.seed),
            "--inputs", str(inputs), "--out", str(work / tag),
            "--trace", str(int(trace)), "--result", str(result),
        ]
        if trace and spans_path is not None and not passes:
            argv += ["--spans", str(spans_path)]
        _run_child(argv, env)
        passes.append(json.loads(result.read_text()))
        shutil.rmtree(work / tag)
    return passes


def account(passes, scenarios):
    """Attempted and failed scenario runs; a report that differs from the
    first pass's fails that scenario in the later pass."""
    problems = []
    for i, record in enumerate(passes):
        for name in scenarios:
            found = list(record["problems"][name])
            if record["report_sha256"][name] != passes[0]["report_sha256"][name]:
                found.append("report.json differs from the first pass")
            problems.extend(f"pass {i} {name}: {p}" for p in found)
            record["problems"][name] = found
    attempted = len(passes) * len(scenarios)
    failed = sum(1 for r in passes for name in scenarios if r["problems"][name])
    return attempted, failed, problems


def _median(values):
    # Counts repeat exactly for a seed; keep them whole numbers.
    if all(v == values[0] for v in values):
        return values[0]
    return statistics.median(values)


def _spread(values):
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f" q1={q1:.6g} q3={q3:.6g}"


def metric_lines(end_to_end, samples, failed, attempted, layers=None):
    """One printed line per metric, with its unit: every end-to-end metric,
    failed_frac, and every per-layer metric when ``layers`` is given."""
    lines = []
    for name, unit in END_TO_END.items():
        extra = f"  (median of {len(samples[name])}{_spread(samples[name])})" if name in samples else ""
        lines.append(f"  {name:32s} {end_to_end[name]:.6g} {unit}{extra}")
    lines.append(f"  {'failed_frac':32s} {failed / attempted:.6g} ratio  "
                 f"({failed} of {attempted} scenario runs)")
    if layers is not None:
        for name, unit in LAYER_METRICS.items():
            lines.append(f"  {name:32s} {layers[name]:.6g} {unit}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description="potbench benchmark runner")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "artifact" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'artifact'} is missing", file=sys.stderr)
        return 2
    env = child_env()
    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = ROOT / ".perfbench-results"
    results.mkdir(exist_ok=True)
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    try:
        scenarios = workloads.generate(args.workload, args.seed)
        inputs = work / "inputs"
        paths = workloads.write(scenarios, inputs)
        setup = time_setup(paths, env)
        plain = run_passes(args, inputs, work, env, False, args.seconds)
        traced = []
        if args.trace:
            traced = run_passes(
                args, inputs, work, env, True, args.seconds, results / f"{stem}-spans.json"
            )
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()

    attempted, failed, problems = account(plain + traced, scenarios)
    walls = [p["wall_s"] for p in plain]
    samples = {
        "wall_s": walls,
        "setup_s": setup,
        "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
    }
    end_to_end = {name: statistics.median(values) for name, values in samples.items()}
    end_to_end["passed_frac"] = (attempted - failed) / attempted
    layers = None
    if args.trace:
        layers = {
            name: _median([p["layers"][name] for p in traced])
            for name in LAYER_METRICS if name != "trace.overhead_frac"
        }
        layers["trace.overhead_frac"] = (
            statistics.median(p["wall_s"] for p in traced) / end_to_end["wall_s"] - 1.0
        )
        metrics = {name: {"value": layers[name], "unit": LAYER_METRICS[name]}
                   for name in LAYER_METRICS}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": END_TO_END[name]}
                   for name in END_TO_END}

    print(f"workload {args.workload} seed {args.seed}: {len(plain)} passes, "
          f"{len(traced)} traced passes, {len(setup)} set-ups")
    for line in metric_lines(end_to_end, samples, failed, attempted, layers):
        print(line)
    for line in problems:
        print(f"  gate: {line}")
    environment = envinfo.record(ROOT, env)
    print(f"env {json.dumps(environment, sort_keys=True)}")
    (results / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment, "samples": samples,
        "end_to_end": end_to_end, "metrics": metrics, "problems": problems,
        "passes": plain, "traced_passes": traced,
    }, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
