"""Scenario-driven batch runner.

A scenario is one JSON file naming a region, an operator, a task, and the
task's parameters.  ``run`` executes one scenario and writes a directory of
artifacts: report.json (every computed number, deterministically serialized),
one CSV per table (projections of report.json for plotting), and
manifest.json (config hash, versions, wall time, solve-memo hits and
misses — everything volatile lives here so report.json stays byte-identical
across reruns).  ``suite`` runs every scenario in a directory and writes a
one-row-per-scenario summary.csv; within one suite run a solve equal to an
earlier one is served from memory instead of running again.

Scenarios are read by ``artifact.scenario`` when they load; the executors
here only compute.

Exit codes: 0 all good, 1 a solve failed to converge or a declared assertion
failed (artifacts are still written), 2 the config could not be parsed or
validated (nothing is written).
"""

import argparse
import concurrent.futures
import csv
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .capacity import barrier_build, locality_check, radial_oracle_report, wiener_probe
from .domain.lattice import INTERIOR, build_grid, complement_cap, density
from .levelsets import (
    check_caccioppoli,
    check_psi_recursion,
    level_stats,
    n0_and_decay,
    oscillation_sequence,
    threshold_level_gap,
)
# The loading names stay bound here too, for callers that import them from cli.
from .scenario import (
    _OPS,
    _PARAMS,
    IterationSchedule,
    ScenarioError,
    WienerProbeConfig,
    load_scenario,
    validate_scenario,
)
from .solver import (
    ObstacleConstraint,
    _memo_tag,
    _solve_counts,
    _solve_memo,
    obstacle_verification,
    solve_dirichlet,
    solve_obstacle,
)


# ---------------------------------------------------------------------------
# Task executors.  Each returns (report dict, {csv name: rows}, key metric, ok).
# ---------------------------------------------------------------------------


def _field_stats(grid, values):
    inside = grid.labels == INTERIOR
    vals = values[inside]
    return {
        "min": float(vals.min()),
        "max": float(vals.max()),
        "interior_nodes": int(inside.sum()),
    }


def _run_dirichlet(scn):
    data, oracle = scn["params"]["data"], scn["params"]["oracle"]
    grid = build_grid(scn["shape"], scn["h"])
    fld, rep = solve_dirichlet(grid, scn["spec"], data, tol=scn["tol"])
    report = {
        "task": "dirichlet",
        "h": grid.h,
        "grid": grid.meta(),
        "solve": rep.to_dict(),
        "field": _field_stats(grid, fld.values),
    }
    inside = grid.labels == INTERIOR
    if isinstance(data, (int, float)):
        report["constant_data_gap"] = float(np.max(np.abs(fld.values[inside] - data)))
    if oracle is not None:
        exact = oracle["expr"](grid.points()).reshape(grid.dims)
        err = float(np.max(np.abs(fld.values - exact)[inside]))
        report["oracle"] = {"expr": oracle["expr"].text, "max_error": err}
    rows = [
        {
            "metric": "energy", "value": rep.energy,
        },
        {"metric": "iterations", "value": rep.iterations},
        {"metric": "max_residual", "value": rep.max_residual},
    ]
    if "oracle" in report:
        rows.append({"metric": "oracle_max_error", "value": report["oracle"]["max_error"]})
    key = (
        f"oracle_err={report['oracle']['max_error']:.3e}"
        if "oracle" in report
        else f"energy={rep.energy:.6g}"
    )
    return report, {"metrics": rows}, key, rep.converged


def _run_obstacle(scn):
    params = scn["params"]
    m, sign, oracle = params["m"], params["sign"], params["radial_oracle"]
    grid = build_grid(scn["shape"], scn["h"])
    con = ObstacleConstraint.from_shape(grid, params["obstacle"], m, sign)
    fld, rep = solve_obstacle(grid, scn["spec"], con, tol=scn["tol"])
    ver = obstacle_verification(scn["spec"], grid, fld.values, con, scn["tol"])
    ver["passed"] = ver["bounds_ok"] and ver["residual_ok"] and ver["equals_m_on_obstacle"]
    report = {
        "task": "obstacle",
        "h": grid.h,
        "grid": grid.meta(),
        "m": m,
        "sign": sign,
        "obstacle_nodes": int(con.indices.size),
        "solve": rep.to_dict(),
        "field": _field_stats(grid, fld.values),
        "verification": ver,
    }
    tables = {}
    if oracle is not None:
        block, rows = radial_oracle_report(oracle, scn["spec"].t, grid, fld, m, sign)
        report["oracle"] = block
        tables["profile"] = rows
        key = f"rel_err={block['max_rel_error_pointwise']:.3%}"
    else:
        key = f"energy={rep.energy:.6g}"
    return report, tables, key, rep.converged and ver["passed"]


def _probe_config(scn, probe):
    """The WienerProbeConfig of read probe params at the scenario's
    spacings, built here so that its warnings name this line."""
    fields = dict(probe)
    height = fields.pop("m")
    return WienerProbeConfig(height=height, h_levels=scn["h_levels"], **fields)


def _run_wiener(scn):
    config = _probe_config(scn, scn["params"])
    rep = wiener_probe(config, scn["shape"], scn["spec"], tol=scn["tol"])
    report = {"task": "wiener-probe", "probe": rep.to_dict()}
    converged = all(lev.get("converged", False) for lev in rep.levels)
    return (
        report,
        {"probe": rep.rows()},
        f"verdict={rep.verdict}",
        converged and rep.verdict != "inconclusive",
    )


def _run_barrier(scn):
    params = scn["params"]
    grid = build_grid(scn["shape"], scn["h"])
    V, U, rep = barrier_build(
        grid, scn["spec"], params["y"], params["rho"], params["m"],
        tol=scn["tol"], jj_factor=params["jj_factor"],
    )
    report = {"task": "barrier", "h": grid.h, "barrier": rep}
    rows = [
        {"delta": d, "v_max": v}
        for d, v in zip(rep["deltas"], rep["vanish_ladder"])
    ]
    return (
        report,
        {"barrier": rows},
        f"jj_trend={'pass' if rep['jj_trend_ok'] else 'fail'}",
        rep["solves_converged"],
    )


def _run_locality(scn):
    params = scn["params"]
    config = _probe_config(scn, params["probe"])
    rep = locality_check(
        scn["shape"], params["shape_b"], params["y"], params["window_radius"], config,
        scn["spec"], tol=scn["tol"],
    )
    report = {"task": "locality", "locality": rep}
    rows = [
        {"region": "a", "verdict": rep["verdict_a"]},
        {"region": "b", "verdict": rep["verdict_b"]},
    ]
    return report, {"locality": rows}, f"agree={rep['agree']}", rep["agree"]


def _instrument_solve(scn, grid):
    solve = scn["params"]["solve"]
    if solve["kind"] == "obstacle":
        con = ObstacleConstraint.from_shape(grid, solve["obstacle"], solve["m"], solve["sign"])
        return solve_obstacle(grid, scn["spec"], con, tol=scn["tol"])
    return solve_dirichlet(grid, scn["spec"], solve["data"], tol=scn["tol"])


def _run_degiorgi(scn):
    params = scn["params"]
    y, psi = params["y"], params["psi_recursion"]
    osc, envelope = params["oscillation"], params["envelope"]
    t = scn["spec"].t
    report = {"task": "degiorgi-instrument", "levels": []}
    tables = {"level_sets": [], "caccioppoli": [], "oscillation": []}
    ok = True
    for h in scn["h_levels"]:
        grid = build_grid(scn["shape"], h)
        fld, rep = _instrument_solve(scn, grid)
        ok = ok and rep.converged
        level_report = {"h": h, "solve": rep.to_dict()}
        for block in params["level_sets"]:
            st = level_stats(fld, y, block["level"], block["radius"], t)
            row = {"h": h, **st.to_dict()}
            tables["level_sets"].append(row)
            level_report.setdefault("level_sets", []).append(st.to_dict())
        for block in params["caccioppoli"]:
            rep_c = check_caccioppoli(
                fld, y, block["level"], block["rho"], block["R"], t
            )
            tables["caccioppoli"].append({"h": h, **rep_c})
            level_report.setdefault("caccioppoli", []).append(rep_c)
            ok = ok and not rep_c["violation"]
        if psi is not None:
            d = psi["d"]
            if d == "auto":
                fit = check_psi_recursion(
                    fld, IterationSchedule(y, **dict(psi, d=psi["k0"] / 4.0)), t)
                d = threshold_level_gap(fit["c_hat"], t, grid.dim, psi["r0"], fit["psi"][0])
                # An empty first sublevel set fits no gap: the level keeps
                # its other blocks and gets no psi_recursion.
                level_report["fitted_gap"] = d if d > 0 else None
            if d > 0:
                sched = IterationSchedule(y, **dict(psi, d=d))
                rec = check_psi_recursion(fld, sched, t)
                final = level_stats(fld, y, sched.k0 - sched.d, sched.r0 / 2.0, t)
                rec["final_sublevel_volume"] = final.volume
                rec["final_sublevel_empty"] = final.node_count == 0
                level_report["psi_recursion"] = rec
        if osc is not None:
            rows = oscillation_sequence(fld, y, osc["r0"], osc["K"])
            for row in rows:
                tables["oscillation"].append({"h": h, **row})
            level_report["oscillation"] = rows
            if envelope is not None:
                sigmas = []
                for row in rows[1:]:
                    cap = complement_cap(grid, y, 2.0 * row["r"])
                    sigmas.append(density(cap))
                omega = [row["omega"] for row in rows]
                level_report["envelope"] = n0_and_decay(
                    sigmas, envelope["C1"], osc["r0"], osc["K"], omega, t,
                    lower_order=envelope["lower_order"],
                )
        report["levels"].append(level_report)
    # Cross-level stability of the Caccioppoli constant.
    by_block = {}
    for row in tables["caccioppoli"]:
        key = (row["level"], row["rho"], row["R"])
        by_block.setdefault(key, []).append(row["c_emp"])
    ratios = []
    for vals in by_block.values():
        finite = [v for v in vals if v > 0 and math.isfinite(v)]
        if len(finite) >= 2:
            ratios.append(max(finite) / min(finite))
    if ratios:
        report["caccioppoli_stability_ratio"] = max(ratios)
    key_metric = (
        f"c_ratio={report['caccioppoli_stability_ratio']:.3f}"
        if ratios
        else "instrumented"
    )
    return report, tables, key_metric, ok


_EXECUTORS = {
    "dirichlet": _run_dirichlet,
    "obstacle": _run_obstacle,
    "wiener-probe": _run_wiener,
    "barrier": _run_barrier,
    "degiorgi-instrument": _run_degiorgi,
    "locality": _run_locality,
}


# ---------------------------------------------------------------------------
# Assertions, serialization, entry points.
# ---------------------------------------------------------------------------


def _dig(report, path):
    node = report
    for part in path.split("."):
        if isinstance(node, list):
            node = node[int(part)]
        elif isinstance(node, dict):
            if part not in node:
                raise KeyError(path)
            node = node[part]
        else:
            raise KeyError(path)
    return node


def _check_assertions(report, assertions):
    rows = []
    all_ok = True
    for a in assertions:
        try:
            actual = _dig(report, a["path"])
            ok = bool(_OPS[a["op"]](actual, a["value"]))
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            actual = f"<error: {exc}>"
            ok = False
        rows.append({"path": a["path"], "op": a["op"], "value": a["value"],
                     "actual": actual, "ok": ok})
        all_ok &= ok
    return rows, all_ok


def _jsonable(obj):
    """``obj`` with numpy scalars and arrays made plain Python values and
    every non-finite float (NaN, +-inf) made None, so that it serializes as
    JSON proper (RFC 8259 has no NaN or Infinity) and reads back as null."""
    if isinstance(obj, dict):
        return {key: _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(value) for value in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _write_json(path, obj):
    """Write ``obj`` as sorted, indented JSON; a value that is not finite
    or not serializable raises instead of writing a bare NaN."""
    text = json.dumps(_jsonable(obj), sort_keys=True, indent=2, allow_nan=False)
    path.write_text(text + "\n")


def _write_csv(path, rows):
    if not rows:
        return
    fields = []
    for row in rows:
        for k in row:
            if k not in fields:
                fields.append(k)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\r\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _csv_cell(row.get(k)) for k in fields})


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return " ".join(str(v) for v in value)
    return value


def run_scenario(path, out_root=None):
    """Execute one scenario file.  Returns (exit code, summary row dict)."""
    try:
        scn, text = load_scenario(path)
    except ScenarioError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2, {"scenario": exc.scenario or str(path), "task": exc.task or "?",
                   "result": "config-error", "key_metric": str(exc), "wall_time_s": 0.0}
    out_root = Path(out_root) if out_root else Path("out")
    out_dir = out_root / scn["name"]
    t0 = time.perf_counter()
    try:
        with _solve_counts() as solve_memo:
            report, tables, key_metric, ok = _EXECUTORS[scn["task"]](scn)
    except Exception as exc:  # noqa: BLE001 - one failed task must not end a suite
        wall = time.perf_counter() - t0
        message = str(exc)
        if not isinstance(exc, (ValueError, RuntimeError)):
            message = f"{type(exc).__name__}: {message}"
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(out_dir / "report.json", {"task": scn["task"], "error": message})
        print(f"scenario {scn['name']} failed: {message}", file=sys.stderr)
        return 1, {"scenario": scn["name"], "task": scn["task"], "result": "error",
                   "key_metric": message, "wall_time_s": wall}
    wall = time.perf_counter() - t0
    report["scenario"] = scn["name"]
    assertion_rows, asserts_ok = _check_assertions(report, scn["assertions"])
    if assertion_rows:
        report["assertions"] = assertion_rows
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "report.json", report)
    for name, rows in tables.items():
        _write_csv(out_dir / f"{name}.csv", rows)
    manifest = {
        "config_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "package_version": __version__,
        "numpy_version": np.__version__,
        "python_version": sys.version.split()[0],
        "solve_memo": solve_memo,
        "wall_time_s": wall,
    }
    _write_json(out_dir / "manifest.json", manifest)
    good = ok and asserts_ok
    result = "pass" if good else ("assert-fail" if ok else "not-converged")
    return (0 if good else 1), {
        "scenario": scn["name"],
        "task": scn["task"],
        "result": result,
        "key_metric": key_metric,
        "wall_time_s": round(wall, 3),
    }


def _memo_tags(path):
    """The ``_memo_tag`` of every solve a scenario file can ask for: its
    operator and tolerance at each of its spacings; none if it does not
    load."""
    try:
        scn, _ = load_scenario(path)
    except ScenarioError:
        return set()
    return {_memo_tag(scn["spec"], scn["tol"], h) for h in scn["h_levels"]}


def run_suite(directory, out_root=None, threads=1):
    directory = Path(directory)
    files = sorted(directory.glob("*.json"))
    if not files:
        print(f"no scenarios in {directory}", file=sys.stderr)
        return 2
    names = {}
    for f in files:
        try:
            raw = json.loads(f.read_text())
        except (OSError, json.JSONDecodeError):
            raw = None
        # A file that is no object or has no string name is left for
        # run_scenario to reject with exit 2.
        name = raw.get("name") if isinstance(raw, dict) else None
        names.setdefault(name if isinstance(name, str) else f.stem, []).append(f.name)
    dupes = {k: v for k, v in names.items() if len(v) > 1}
    if dupes:
        print(f"duplicate scenario names: {dupes}", file=sys.stderr)
        return 2
    out_root = Path(out_root) if out_root else Path("out")
    rows = []
    worst = 0
    # Equal solves run once per suite run (see ``solver._solve_memo``); the
    # memo keeps a solve only while a scenario that has not finished could
    # ask for it again.
    tags = {f: _memo_tags(f) for f in files}
    with _solve_memo() as memo:
        memo.share(tags.values())

        def run(f):
            try:
                return run_scenario(f, out_root)
            finally:
                memo.release(tags[f])

        if threads > 1:
            with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(run, files))
        else:
            results = [run(f) for f in files]
    for code, row in results:
        worst = max(worst, code)
        rows.append(row)
    rows.sort(key=lambda r: r["scenario"])
    out_root.mkdir(parents=True, exist_ok=True)
    _write_csv(out_root / "summary.csv", rows)
    for row in rows:
        print(f"{row['scenario']:32s} {row['task']:20s} {row['result']:14s} {row['key_metric']}")
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="potbench",
        description="Scenario runner for the nonlinear potential workbench.",
    )
    parser.add_argument(
        "--list-tasks", action="store_true", help="list tasks and their params (* required)"
    )
    sub = parser.add_subparsers(dest="command")
    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("file")
    p_run.add_argument("--out", default="out")
    p_suite = sub.add_parser("suite", help="run every scenario in a directory")
    p_suite.add_argument("dir")
    p_suite.add_argument("--out", default="out")
    p_suite.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)
    if args.list_tasks:
        for name, table in _PARAMS.items():
            fields = (key + "*" * (default is ...) for key, (_, default) in table.items())
            print(f"{name:22s} {', '.join(fields)}")
        return 0
    if args.command == "run":
        code, row = run_scenario(args.file, args.out)
        print(f"{row['scenario']}: {row['result']} ({row['key_metric']})")
        return code
    if args.command == "suite":
        return run_suite(args.dir, args.out, args.threads)
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
