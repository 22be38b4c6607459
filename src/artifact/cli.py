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

Exit codes: 0 all good, 1 a solve failed to converge or a declared assertion
failed (artifacts are still written), 2 the config could not be parsed or
validated (nothing is written).
"""

import argparse
import concurrent.futures
import csv
import dataclasses
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from ._expr import Expression
from .capacity import (
    WienerProbeConfig,
    barrier_build,
    locality_check,
    radial_profile,
    wiener_probe,
)
from .domain.lattice import INTERIOR, build_grid, complement_cap, density
from .domain.shapes import shape_from_dict
from .levelsets import (
    IterationSchedule,
    check_caccioppoli,
    check_psi_recursion,
    level_stats,
    n0_and_decay,
    oscillation_sequence,
    threshold_level_gap,
)
from .monotone import OperatorSpec
from .solver import (
    ObstacleConstraint,
    _memo_tag,
    _solve_counts,
    _solve_memo,
    obstacle_verification,
    solve_dirichlet,
    solve_obstacle,
)

TASKS = {
    "dirichlet": "boundary-value solve; params: data (expression/number), optional oracle",
    "obstacle": "constrained solve; params: obstacle (shape), m, sign, optional radial_oracle",
    "wiener-probe": "boundary-point regularity probe; params: y, cap_radius, r0, K, h_levels, thresholds",
    "barrier": "barrier pair at a boundary node; params: y, rho, m, jj_factor",
    "degiorgi-instrument": "level-set instrumentation of a solve; params: solve, y, blocks",
    "locality": "probe the same point in two regions; params: shape_b, y, window_radius, probe",
}


class ScenarioError(Exception):
    """Configuration problem; names the offending field."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


# ---------------------------------------------------------------------------
# Scenario loading and validation.
# ---------------------------------------------------------------------------


def _require(params, field, kind=None, where="params"):
    if field not in params:
        raise ScenarioError(f"{where}.{field}", "required field is missing")
    value = params[field]
    if kind is not None and not isinstance(value, kind):
        raise ScenarioError(f"{where}.{field}", f"expected {kind}")
    return value


def _as_number(value, field, integer=False):
    """``value`` as a float, or with ``integer`` an int.  A bool, a string,
    a list or any other non-number, NaN and +-Infinity (JSON tokens that
    ``json.loads`` accepts), and a non-integral value where an int is
    wanted, is a ScenarioError naming ``field``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(field, f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ScenarioError(field, f"expected a finite number, got {value!r}")
    if not integer:
        return float(value)
    if not float(value).is_integer():
        raise ScenarioError(field, f"expected an integer, got {value!r}")
    return int(value)


def _number(params, field, default=None, where="params", integer=False):
    """A numeric param through ``_as_number``; ``default`` when it is absent
    and a default is given."""
    if default is not None and field not in params:
        value = default
    else:
        value = _require(params, field, where=where)
    return _as_number(value, f"{where}.{field}", integer)


def _numbers(params, field, default=None, where="params"):
    """A list param of numbers as a list of floats, each element read by
    ``_as_number`` and named by its index (``params.y[0]``); ``default``
    when it is absent and a default is given."""
    if default is not None and field not in params:
        return default
    values = _require(params, field, list, where=where)
    return [_as_number(v, f"{where}.{field}[{i}]") for i, v in enumerate(values)]


def _shape(params, field, where="params"):
    """A shape param rebuilt by ``shape_from_dict``; a missing key or a bad
    value anywhere inside it is a ScenarioError naming the field.  Every
    number in it must be finite (``_finite_numbers``)."""
    data = _require(params, field, dict, where=where)
    _finite_numbers(data, f"{where}.{field}")
    try:
        return shape_from_dict(data)
    except KeyError as exc:
        raise ScenarioError(f"{where}.{field}", f"missing key {exc}") from exc
    except (ValueError, TypeError, IndexError) as exc:
        raise ScenarioError(f"{where}.{field}", str(exc)) from exc


def _finite_numbers(value, field):
    """Read every number in the objects and lists of ``value`` by
    ``_as_number``, naming its place (``scenario.shape.lo[0]``): a null,
    which numpy would read as NaN, a bool, NaN or an infinity is a
    ScenarioError.  Strings are left to the caller."""
    if isinstance(value, dict):
        for key, item in value.items():
            _finite_numbers(item, f"{field}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _finite_numbers(item, f"{field}[{i}]")
    elif not isinstance(value, str):
        _as_number(value, field)


def _expression(text, field, dim):
    """``text`` parsed into an ``Expression`` of at most ``dim`` coordinates;
    a parse error or a coordinate above ``dim`` is a ScenarioError naming
    ``field``."""
    try:
        expr = Expression(text)
    except ValueError as exc:
        raise ScenarioError(field, f"invalid expression {text!r}: {exc}") from exc
    if expr.dim > dim:
        raise ScenarioError(field, f"invalid expression {text!r}: x{expr.dim} on a {dim}D domain")
    return expr


def _boundary_data(params, dim, where="params"):
    """The ``data`` param: a number, or an expression string in ``dim``
    coordinates, parsed."""
    data = _require(params, "data", where=where)
    if isinstance(data, str):
        return _expression(data, f"{where}.data", dim)
    if isinstance(data, bool) or not isinstance(data, (int, float)):
        raise ScenarioError(f"{where}.data", f"expected an expression or number, got {data!r}")
    return data


def _positive_number(value, field):
    """``value`` read by ``_as_number`` as a float, which must be positive."""
    value = _as_number(value, field)
    if not value > 0:
        raise ScenarioError(field, "must be positive")
    return value


def load_scenario(path):
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(str(path), f"cannot read file ({exc})") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(str(path), f"invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ScenarioError(str(path), "scenario must be a JSON object")
    return validate_scenario(raw), text


def validate_scenario(raw):
    name = _require(raw, "name", str, where="scenario")
    if not name or any(c not in "abcdefghijklmnopqrstuvwxyz0123456789-_." for c in name.lower()):
        raise ScenarioError("scenario.name", "use letters, digits, '-', '_', '.'")
    task = _require(raw, "task", str, where="scenario")
    if task not in TASKS:
        raise ScenarioError("scenario.task", f"unknown task {task!r}; known: {sorted(TASKS)}")
    shape = _shape(raw, "shape", where="scenario")
    op = raw.get("operator", {"kind": "p_laplace", "t": 2.0})
    if not isinstance(op, dict):
        raise ScenarioError("scenario.operator", "expected an object")
    known = [f.name for f in dataclasses.fields(OperatorSpec)]
    for key in op:
        if key not in known:
            raise ScenarioError(
                "scenario.operator", f"unknown key {key!r}; known: {', '.join(known)}"
            )
    try:
        spec = OperatorSpec(**op)
    except ValueError as exc:
        raise ScenarioError("scenario.operator", str(exc)) from exc
    h = raw.get("h")
    h_levels = raw.get("h_levels")
    if h is None and h_levels is None:
        raise ScenarioError("scenario.h", "need h or h_levels")
    if h is not None:
        _positive_number(h, "scenario.h")
    if h_levels is not None:
        if not isinstance(h_levels, list) or not h_levels:
            raise ScenarioError("scenario.h_levels", "expected a nonempty list")
        for i, level in enumerate(h_levels):
            _positive_number(level, f"scenario.h_levels[{i}]")
        if any(b >= a for a, b in zip(h_levels, h_levels[1:])):
            raise ScenarioError("scenario.h_levels", "must be strictly decreasing")
    tol = _positive_number(raw.get("tolerance", 1e-8), "scenario.tolerance")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ScenarioError("scenario.params", "expected an object")
    assertions = raw.get("assertions", [])
    if not isinstance(assertions, list):
        raise ScenarioError("scenario.assertions", "expected a list")
    for i, a in enumerate(assertions):
        if not isinstance(a, dict) or "path" not in a or "op" not in a or "value" not in a:
            raise ScenarioError(
                f"scenario.assertions[{i}]", "each assertion needs path, op, value"
            )
        if not isinstance(a["path"], str):
            raise ScenarioError(f"scenario.assertions[{i}].path", "expected a string")
        if a["op"] not in ("<=", ">=", "==", "!=", "<", ">"):
            raise ScenarioError(f"scenario.assertions[{i}].op", f"unknown op {a['op']!r}")
    return {
        "name": name,
        "task": task,
        "shape": shape,
        "spec": spec,
        "h": h,
        "h_levels": h_levels,
        "tol": tol,
        "params": params,
        "assertions": assertions,
    }


def _scenario_h(scn):
    if scn["h"] is not None:
        return float(scn["h"])
    return float(scn["h_levels"][-1])


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
    params = scn["params"]
    dim = scn["shape"].dim
    data = _boundary_data(params, dim)
    oracle = None
    if "oracle" in params:
        text = _require(_require(params, "oracle", dict), "expr", str, where="params.oracle")
        oracle = _expression(text, "params.oracle.expr", dim)
    grid = build_grid(scn["shape"], _scenario_h(scn))
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
        exact = oracle(grid.points()).reshape(grid.dims)
        err = float(np.max(np.abs(fld.values - exact)[inside]))
        report["oracle"] = {"expr": oracle.text, "max_error": err}
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


def _radial_oracle(params, ndim):
    """The numbers of the ``radial_oracle`` param, read before the solve."""
    where = "params.radial_oracle"
    oracle = _require(params, "radial_oracle", dict)
    inner = _number(oracle, "inner", where=where)
    outer = _number(oracle, "outer", where=where)
    band = _numbers(oracle, "band", [inner, outer], where=where)
    if len(band) != 2:
        raise ScenarioError(f"{where}.band", f"expected [lo, hi], got {band!r}")
    return {
        "inner": inner,
        "outer": outer,
        "center": _numbers(oracle, "center", [0.0] * ndim, where=where),
        "band": band,
        "value_at": _numbers(oracle, "value_at", [], where=where),
    }


def _radial_oracle_block(oracle, t, grid, fld, m, sign):
    inner, outer = oracle["inner"], oracle["outer"]
    lo, hi = oracle["band"]
    pts = grid.points()
    r = np.sqrt(np.sum((pts - np.asarray(oracle["center"])) ** 2, axis=1))
    inside = (grid.labels == INTERIOR).ravel()
    band = inside & (r >= lo) & (r <= hi)
    exact = radial_profile(t, grid.dim, inner, outer, m, r[band])
    got = sign * fld.values.ravel()[band]
    abs_err = np.abs(got - exact)
    block = {
        "inner": inner,
        "outer": outer,
        "band": [lo, hi],
        "nodes": int(band.sum()),
        "max_rel_error_pointwise": float(np.max(abs_err / exact)),
        "max_rel_error_supnorm": float(np.max(abs_err) / np.max(np.abs(exact))),
        "max_abs_error": float(np.max(abs_err)),
    }
    for v in oracle["value_at"]:
        at = inside & (np.abs(r - v) < 1e-9)
        if at.any():
            mean = float(np.mean(sign * fld.values.ravel()[at]))
            ex = float(radial_profile(t, grid.dim, inner, outer, m, v))
            # Report keys must stay dot-free so assertion paths can address
            # them; spell the radius with underscores ("value_at_0_5").
            key = "value_at_" + repr(float(v)).replace(".", "_").replace("-", "m")
            block[key] = {
                "nodes": int(at.sum()),
                "mean": mean,
                "exact": ex,
                "rel_error": abs(mean - ex) / abs(ex) if ex else math.nan,
            }
    # Radial profile table: nodes grouped by radius.
    rr = np.round(r[band], 12)
    order = np.argsort(rr, kind="stable")
    rows = []
    uniq, start = np.unique(rr[order], return_index=True)
    gvals = got[order]
    for i, rv in enumerate(uniq):
        stop = start[i + 1] if i + 1 < len(start) else len(gvals)
        seg = gvals[start[i] : stop]
        rows.append(
            {
                "r": float(rv),
                "computed_mean": float(seg.mean()),
                "exact": float(radial_profile(t, grid.dim, inner, outer, m, rv)),
                "count": int(stop - start[i]),
            }
        )
    return block, rows


def _run_obstacle(scn):
    params = scn["params"]
    obstacle_shape = _shape(params, "obstacle")
    m = _number(params, "m", 1.0)
    sign = _number(params, "sign", 1, integer=True)
    oracle = _radial_oracle(params, scn["shape"].dim) if "radial_oracle" in params else None
    grid = build_grid(scn["shape"], _scenario_h(scn))
    con = ObstacleConstraint.from_shape(grid, obstacle_shape, m, sign)
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
        block, rows = _radial_oracle_block(oracle, scn["spec"].t, grid, fld, m, sign)
        report["oracle"] = block
        tables["profile"] = rows
        key = f"rel_err={block['max_rel_error_pointwise']:.3%}"
    else:
        key = f"energy={rep.energy:.6g}"
    return report, tables, key, rep.converged and ver["passed"]


def _probe_config(scn, params, where="params"):
    fixed_radius = params.get("fixed_radius")
    if fixed_radius is not None:
        fixed_radius = _positive_number(fixed_radius, f"{where}.fixed_radius")
    return WienerProbeConfig(
        y=_numbers(params, "y", where=where),
        cap_radius=_number(params, "cap_radius", where=where),
        r0=_number(params, "r0", where=where),
        K=_number(params, "K", where=where, integer=True),
        h_levels=scn["h_levels"] or [scn["h"]],
        height=_number(params, "m", 1.0, where=where),
        sign=_number(params, "sign", 1, where=where, integer=True),
        decay_factor=_number(params, "decay_factor", 0.1, where=where),
        stagnation_floor=_number(params, "stagnation_floor", 0.25, where=where),
        shrink_ratio=_number(params, "shrink_ratio", 0.7, where=where),
        stagnation_ratio=_number(params, "stagnation_ratio", 0.9, where=where),
        near_radius_cells=_positive_number(
            params.get("near_radius_cells", 4.0), f"{where}.near_radius_cells"
        ),
        fixed_radius=fixed_radius,
    )


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
    grid = build_grid(scn["shape"], _scenario_h(scn))
    V, U, rep = barrier_build(
        grid,
        scn["spec"],
        _numbers(params, "y"),
        _number(params, "rho"),
        _number(params, "m", 1.0),
        tol=scn["tol"],
        jj_factor=_number(params, "jj_factor", 0.5),
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
    shape_b = _shape(params, "shape_b")
    config = _probe_config(scn, _require(params, "probe", dict), where="params.probe")
    rep = locality_check(
        scn["shape"],
        shape_b,
        _numbers(params, "y"),
        _number(params, "window_radius"),
        config,
        scn["spec"],
        tol=scn["tol"],
    )
    report = {"task": "locality", "locality": rep}
    rows = [
        {"region": "a", "verdict": rep["verdict_a"]},
        {"region": "b", "verdict": rep["verdict_b"]},
    ]
    return report, {"locality": rows}, f"agree={rep['agree']}", rep["agree"]


def _instrument_solve(scn, grid):
    params = scn["params"]
    solve = _require(params, "solve", dict)
    kind = _require(solve, "kind", str, where="params.solve")
    if kind == "obstacle":
        shape = _shape(solve, "obstacle", where="params.solve")
        m = _number(solve, "m", 1.0, where="params.solve")
        sign = _number(solve, "sign", 1, where="params.solve", integer=True)
        con = ObstacleConstraint.from_shape(grid, shape, m, sign)
        fld, rep = solve_obstacle(grid, scn["spec"], con, tol=scn["tol"])
    elif kind == "dirichlet":
        data = _boundary_data(solve, grid.dim, where="params.solve")
        fld, rep = solve_dirichlet(grid, scn["spec"], data, tol=scn["tol"])
    else:
        raise ScenarioError("params.solve.kind", f"unknown solve kind {kind!r}")
    return fld, rep


# Instrumentation blocks of a degiorgi-instrument scenario: the container
# type and the keys each block needs.
_DEGIORGI_BLOCKS = {
    "level_sets": (list, ("level", "radius")),
    "caccioppoli": (list, ("level", "rho", "R")),
    "psi_recursion": (dict, ("r0", "k0")),
    "oscillation": (dict, ("r0", "K")),
}


def _check_degiorgi_blocks(params):
    """Name a missing or non-numeric block key before any solve starts."""
    for name, (kind, keys) in _DEGIORGI_BLOCKS.items():
        if name not in params:
            continue
        value = _require(params, name, kind)
        blocks = enumerate(value) if kind is list else [(None, value)]
        for i, block in blocks:
            where = f"params.{name}" if i is None else f"params.{name}[{i}]"
            if not isinstance(block, dict):
                raise ScenarioError(where, "expected an object")
            for key in keys:
                _number(block, key, where=where, integer=key == "K")


def _run_degiorgi(scn):
    params = scn["params"]
    y = _numbers(params, "y")
    _check_degiorgi_blocks(params)
    # The optional numbers, read before any solve starts.
    psi = params.get("psi_recursion", {})
    n_levels = _number(psi, "n_levels", 8, where="params.psi_recursion", integer=True)
    gap = psi.get("d", "auto")
    if gap != "auto":
        gap = _number(psi, "d", where="params.psi_recursion")
    envelope = _require(params, "envelope", dict) if "envelope" in params else {}
    c1 = _number(envelope, "C1", 1.0, where="params.envelope")
    lower_order = envelope.get("lower_order", False)
    if not isinstance(lower_order, bool):
        raise ScenarioError(
            "params.envelope.lower_order", f"expected true or false, got {lower_order!r}"
        )
    t = scn["spec"].t
    h_levels = scn["h_levels"] or [scn["h"]]
    report = {"task": "degiorgi-instrument", "levels": []}
    tables = {"level_sets": [], "caccioppoli": [], "oscillation": []}
    ok = True
    for h in h_levels:
        grid = build_grid(scn["shape"], float(h))
        fld, rep = _instrument_solve(scn, grid)
        ok = ok and rep.converged
        level_report = {"h": float(h), "solve": rep.to_dict()}
        for block in params.get("level_sets", []):
            st = level_stats(fld, y, block["level"], block["radius"], t)
            row = {"h": float(h), **st.to_dict()}
            tables["level_sets"].append(row)
            level_report.setdefault("level_sets", []).append(st.to_dict())
        for block in params.get("caccioppoli", []):
            rep_c = check_caccioppoli(
                fld, y, block["level"], block["rho"], block["R"], t
            )
            tables["caccioppoli"].append({"h": float(h), **rep_c})
            level_report.setdefault("caccioppoli", []).append(rep_c)
            ok = ok and not rep_c["violation"]
        if "psi_recursion" in params:
            blk = params["psi_recursion"]
            d = gap
            if d == "auto":
                probe_sched = IterationSchedule(
                    y=y, r0=blk["r0"], k0=blk["k0"], d=blk["k0"] / 4.0, n_levels=n_levels
                )
                fit = check_psi_recursion(fld, probe_sched, t)
                d = threshold_level_gap(
                    fit["c_hat"], t, grid.dim, blk["r0"], fit["psi"][0]
                )
                level_report["fitted_gap"] = d
            sched = IterationSchedule(
                y=y, r0=blk["r0"], k0=blk["k0"], d=float(d), n_levels=n_levels
            )
            rec = check_psi_recursion(fld, sched, t)
            final = level_stats(fld, y, blk["k0"] - float(d), blk["r0"] / 2.0, t)
            rec["final_sublevel_volume"] = final.volume
            rec["final_sublevel_empty"] = final.node_count == 0
            level_report["psi_recursion"] = rec
        if "oscillation" in params:
            blk = params["oscillation"]
            rows = oscillation_sequence(fld, y, float(blk["r0"]), int(blk["K"]))
            for row in rows:
                tables["oscillation"].append({"h": float(h), **row})
            level_report["oscillation"] = rows
            if "envelope" in params:
                sigmas = []
                for row in rows[1:]:
                    cap = complement_cap(grid, y, 2.0 * row["r"])
                    sigmas.append(density(cap))
                dec = n0_and_decay(
                    sigmas,
                    c1,
                    float(blk["r0"]),
                    int(blk["K"]),
                    [row["omega"] for row in rows],
                    t,
                    lower_order=lower_order,
                )
                level_report["envelope"] = dec
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


_OPS = {
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


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
        return 2, {"scenario": str(path), "task": "?", "result": "config-error",
                   "key_metric": str(exc), "wall_time_s": 0.0}
    out_root = Path(out_root) if out_root else Path("out")
    out_dir = out_root / scn["name"]
    t0 = time.perf_counter()
    try:
        with _solve_counts() as solve_memo:
            report, tables, key_metric, ok = _EXECUTORS[scn["task"]](scn)
    except ScenarioError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2, {"scenario": scn["name"], "task": scn["task"],
                   "result": "config-error", "key_metric": str(exc), "wall_time_s": 0.0}
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
    spacings = [scn["h"]] if scn["h"] is not None else []
    spacings += scn["h_levels"] or []
    return {_memo_tag(scn["spec"], scn["tol"], h) for h in spacings}


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
    parser.add_argument("--list-tasks", action="store_true", help="list tasks and exit")
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
        for name in sorted(TASKS):
            print(f"{name:22s} {TASKS[name]}")
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
