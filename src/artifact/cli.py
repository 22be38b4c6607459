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


class ScenarioError(Exception):
    """Configuration problem; names the offending field.  ``scenario`` and
    ``task`` hold the scenario's name and task when both were valid."""

    scenario = task = None

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


# ---------------------------------------------------------------------------
# Scenario loading and validation.
# ---------------------------------------------------------------------------


def _as_number(value, field, dim=None):
    """``value`` as a float.  A bool, a string, a list or any other
    non-number, and NaN and +-Infinity (JSON tokens that ``json.loads``
    accepts), is a ScenarioError naming ``field``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(field, f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ScenarioError(field, f"expected a finite number, got {value!r}")
    return float(value)


def _positive_number(value, field, dim=None):
    """``value`` read by ``_as_number``, which must be positive."""
    value = _as_number(value, field)
    if not value > 0:
        raise ScenarioError(field, "must be positive")
    return value


def _fraction(value, field, dim=None):
    """``value`` read by ``_as_number``, which must lie in (0, 1)."""
    value = _as_number(value, field)
    if not 0 < value < 1:
        raise ScenarioError(field, "must lie in (0, 1)")
    return value


def _count(value, field, dim=None):
    """``value`` as an int of at least 1."""
    number = _as_number(value, field)
    if not number.is_integer() or number < 1:
        raise ScenarioError(field, f"expected an integer of at least 1, got {value!r}")
    return int(number)


def _sign(value, field, dim=None):
    """``value`` as the int 1 or -1."""
    if _as_number(value, field) not in (1.0, -1.0):
        raise ScenarioError(field, f"expected 1 or -1, got {value!r}")
    return int(value)


def _bool(value, field, dim=None):
    if not isinstance(value, bool):
        raise ScenarioError(field, f"expected true or false, got {value!r}")
    return value


def _positive_or_auto(value, field, dim=None):
    """The string ``"auto"``, or a positive number."""
    return value if value == "auto" else _positive_number(value, field)


def _point(value, field, dim):
    """A list of ``dim`` numbers, each named by its index (``params.y[0]``)."""
    point = _read([_as_number], value, field, dim)
    if len(point) != dim:
        raise ScenarioError(field, f"expected {dim} coordinates, got {len(point)}")
    return point


def _band(value, field, dim=None):
    """A list [lo, hi] of two numbers."""
    return _point(value, field, 2)


def _shape(value, field, dim=None):
    """A shape object rebuilt by ``shape_from_dict``, of dimension ``dim``
    when one is given; a missing key or a bad value anywhere inside it is a
    ScenarioError naming the field.  Every number in it must be finite
    (``_finite_numbers``)."""
    if not isinstance(value, dict):
        raise ScenarioError(field, f"expected an object, got {value!r}")
    _finite_numbers(value, field)
    try:
        shape = shape_from_dict(value)
    except KeyError as exc:
        raise ScenarioError(field, f"missing key {exc}") from exc
    except (ValueError, TypeError, IndexError) as exc:
        raise ScenarioError(field, str(exc)) from exc
    if dim is not None and shape.dim != dim:
        raise ScenarioError(field, f"expected a {dim}D shape, got a {shape.dim}D one")
    return shape


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
    a non-string, a parse error or a coordinate above ``dim`` is a
    ScenarioError naming ``field``."""
    if not isinstance(text, str):
        raise ScenarioError(field, f"expected an expression, got {text!r}")
    try:
        expr = Expression(text)
    except ValueError as exc:
        raise ScenarioError(field, f"invalid expression {text!r}: {exc}") from exc
    if expr.dim > dim:
        raise ScenarioError(field, f"invalid expression {text!r}: x{expr.dim} on a {dim}D domain")
    return expr


def _number_or_expression(value, field, dim):
    """Boundary data: an expression string, parsed, or a number."""
    if isinstance(value, str):
        return _expression(value, field, dim)
    if not isinstance(value, (int, float)):
        raise ScenarioError(field, f"expected an expression or number, got {value!r}")
    return _as_number(value, field)


class _Kinds(dict):
    """A param table picked by the object's ``kind``: kind -> table."""


# Each task's params: field -> (spec, default).  A spec is a reader, called
# as reader(value, field, dim) with the field's dotted name and the
# domain's dimension, which returns the read value or raises a
# ScenarioError naming the field; a nested table, for an object; a
# one-element list [spec], for a list of what spec reads; or a _Kinds.  A
# field whose default is ... must be given; every other field is in the
# read params, as its default when it is absent.
_OBSTACLE = {"obstacle": (_shape, ...), "m": (_positive_number, 1.0), "sign": (_sign, 1)}
_DIRICHLET = {"data": (_number_or_expression, ...)}
# The keys are WienerProbeConfig's fields, with m for its height.
_PROBE = {
    "y": (_point, ...),
    "cap_radius": (_positive_number, ...),
    "r0": (_positive_number, ...),
    "K": (_count, ...),
    "m": (_positive_number, 1.0),
    "sign": (_sign, 1),
    "decay_factor": (_fraction, 0.1),
    "stagnation_floor": (_fraction, 0.25),
    "shrink_ratio": (_fraction, 0.7),
    "stagnation_ratio": (_fraction, 0.9),
    "near_radius_cells": (_positive_number, 4.0),
    "fixed_radius": (_positive_number, None),
}
# A radial oracle's band defaults to [inner, outer] and its center to the origin.
_RADIAL_ORACLE = {
    "inner": (_positive_number, ...),
    "outer": (_positive_number, ...),
    "band": (_band, None),
    "center": (_point, None),
    "value_at": ([_as_number], ()),
}
_PARAMS = {
    "dirichlet": {**_DIRICHLET, "oracle": ({"expr": (_expression, ...)}, None)},
    "obstacle": {**_OBSTACLE, "radial_oracle": (_RADIAL_ORACLE, None)},
    "wiener-probe": _PROBE,
    "barrier": {
        "y": (_point, ...),
        "rho": (_positive_number, ...),
        "m": (_positive_number, 1.0),
        "jj_factor": (_as_number, 0.5),
    },
    "degiorgi-instrument": {
        "solve": (_Kinds(obstacle=_OBSTACLE, dirichlet=_DIRICHLET), ...),
        "y": (_point, ...),
        "level_sets": ([{"level": (_as_number, ...), "radius": (_positive_number, ...)}], ()),
        "caccioppoli": ([{"level": (_as_number, ...), "rho": (_positive_number, ...),
                          "R": (_positive_number, ...)}], ()),
        "psi_recursion": ({"r0": (_positive_number, ...), "k0": (_as_number, ...),
                           "d": (_positive_or_auto, "auto"), "n_levels": (_count, 8)}, None),
        "oscillation": ({"r0": (_positive_number, ...), "K": (_count, ...)}, None),
        "envelope": ({"C1": (_as_number, 1.0), "lower_order": (_bool, False)}, None),
    },
    "locality": {
        "shape_b": (_shape, ...),
        "probe": (_PROBE, ...),
        "y": (_point, ...),
        "window_radius": (_positive_number, ...),
    },
}


def _read(spec, value, field, dim):
    """``value`` read through ``spec`` (see ``_PARAMS``), fields in table
    order, each named by its dotted place (``params.caccioppoli[0].R``)."""
    if isinstance(spec, list):
        if not isinstance(value, list):
            raise ScenarioError(field, f"expected a list, got {value!r}")
        return [_read(spec[0], item, f"{field}[{i}]", dim) for i, item in enumerate(value)]
    if not isinstance(spec, dict):
        return spec(value, field, dim)
    if not isinstance(value, dict):
        raise ScenarioError(field, f"expected an object, got {value!r}")
    if isinstance(spec, _Kinds):
        kind = value.get("kind")
        if not isinstance(kind, str) or kind not in spec:
            raise ScenarioError(f"{field}.kind", f"unknown kind {kind!r}; known: {sorted(spec)}")
        return {"kind": kind, **_read(spec[kind], value, field, dim)}
    read = {}
    for key, (sub, default) in spec.items():
        if key in value:
            read[key] = _read(sub, value[key], f"{field}.{key}", dim)
        elif default is ...:
            raise ScenarioError(f"{field}.{key}", "required field is missing")
        else:
            read[key] = default
    return read


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
    """The scenario ``raw`` with every field read, its params through
    ``_PARAMS``; the first bad field is a ScenarioError naming it."""
    name, task = raw.get("name"), raw.get("task")
    if not isinstance(name, str) or not name or any(
        c not in "abcdefghijklmnopqrstuvwxyz0123456789-_." for c in name.lower()
    ):
        raise ScenarioError("scenario.name", f"use letters, digits, '-', '_', '.', got {name!r}")
    if not isinstance(task, str) or task not in _PARAMS:
        raise ScenarioError("scenario.task", f"unknown task {task!r}; known: {sorted(_PARAMS)}")
    try:
        return {"name": name, "task": task, **_read_fields(raw, task)}
    except ScenarioError as exc:
        exc.scenario, exc.task = name, task
        raise


def _read_fields(raw, task):
    """Every field of the scenario ``raw`` but its name and task."""
    shape = _shape(raw.get("shape"), "scenario.shape")
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
    h, h_levels = raw.get("h"), raw.get("h_levels")
    if h is None and h_levels is None:
        raise ScenarioError("scenario.h", "need h or h_levels")
    if h is not None:
        _positive_number(h, "scenario.h")
    if h_levels is not None:
        levels = _read([_positive_number], h_levels, "scenario.h_levels", None)
        if not levels or any(b >= a for a, b in zip(levels, levels[1:])):
            raise ScenarioError("scenario.h_levels", "must be nonempty and strictly decreasing")
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
        "shape": shape,
        "spec": spec,
        "h": h,
        "h_levels": h_levels,
        "tol": tol,
        "params": _read(_PARAMS[task], params, "params", shape.dim),
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
    data, oracle = scn["params"]["data"], scn["params"]["oracle"]
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


def _radial_oracle_block(oracle, t, grid, fld, m, sign):
    inner, outer = oracle["inner"], oracle["outer"]
    lo, hi = oracle["band"] or (inner, outer)
    center = oracle["center"] or [0.0] * grid.dim
    pts = grid.points()
    r = np.sqrt(np.sum((pts - np.asarray(center)) ** 2, axis=1))
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
    m, sign, oracle = params["m"], params["sign"], params["radial_oracle"]
    grid = build_grid(scn["shape"], _scenario_h(scn))
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
        block, rows = _radial_oracle_block(oracle, scn["spec"].t, grid, fld, m, sign)
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
    return WienerProbeConfig(height=height, h_levels=scn["h_levels"] or [scn["h"]], **fields)


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
    h_levels = scn["h_levels"] or [scn["h"]]
    report = {"task": "degiorgi-instrument", "levels": []}
    tables = {"level_sets": [], "caccioppoli": [], "oscillation": []}
    ok = True
    for h in h_levels:
        grid = build_grid(scn["shape"], float(h))
        fld, rep = _instrument_solve(scn, grid)
        ok = ok and rep.converged
        level_report = {"h": float(h), "solve": rep.to_dict()}
        for block in params["level_sets"]:
            st = level_stats(fld, y, block["level"], block["radius"], t)
            row = {"h": float(h), **st.to_dict()}
            tables["level_sets"].append(row)
            level_report.setdefault("level_sets", []).append(st.to_dict())
        for block in params["caccioppoli"]:
            rep_c = check_caccioppoli(
                fld, y, block["level"], block["rho"], block["R"], t
            )
            tables["caccioppoli"].append({"h": float(h), **rep_c})
            level_report.setdefault("caccioppoli", []).append(rep_c)
            ok = ok and not rep_c["violation"]
        if psi is not None:
            r0, k0, n_levels, d = psi["r0"], psi["k0"], psi["n_levels"], psi["d"]
            if d == "auto":
                probe_sched = IterationSchedule(y=y, r0=r0, k0=k0, d=k0 / 4.0, n_levels=n_levels)
                fit = check_psi_recursion(fld, probe_sched, t)
                d = threshold_level_gap(fit["c_hat"], t, grid.dim, r0, fit["psi"][0])
                level_report["fitted_gap"] = d
            sched = IterationSchedule(y=y, r0=r0, k0=k0, d=float(d), n_levels=n_levels)
            rec = check_psi_recursion(fld, sched, t)
            final = level_stats(fld, y, k0 - float(d), r0 / 2.0, t)
            rec["final_sublevel_volume"] = final.volume
            rec["final_sublevel_empty"] = final.node_count == 0
            level_report["psi_recursion"] = rec
        if osc is not None:
            rows = oscillation_sequence(fld, y, osc["r0"], osc["K"])
            for row in rows:
                tables["oscillation"].append({"h": float(h), **row})
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
