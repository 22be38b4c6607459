"""Runner behavior: validation, artifacts, determinism, exit codes, suite.

Everything here uses throwaway scenarios on coarse grids so the whole module
stays fast; the shipped scenarios/ directory is exercised by the acceptance
tests.
"""

import csv
import importlib
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import artifact
from artifact import (
    Ball,
    IterationSchedule,
    ObstacleConstraint,
    WienerProbeConfig,
    build_grid,
    solve_obstacle,
    solver,
)
from artifact.cli import (
    ScenarioError,
    _write_json,
    load_scenario,
    main,
    run_scenario,
    run_suite,
    validate_scenario,
)


# The thread-count variables of the BLAS builds numpy may use.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def scenario_doc(**over):
    doc = {
        "name": "tiny-dirichlet",
        "task": "dirichlet",
        "shape": {"type": "ball", "center": [0.0, 0.0], "radius": 0.5},
        "operator": {"kind": "p_laplace", "t": 2.0},
        "h": 1.0 / 8.0,
        "tolerance": 1e-8,
        "params": {"data": "x1", "oracle": {"expr": "x1"}},
        "assertions": [{"path": "oracle.max_error", "op": "<=", "value": 1e-6}],
    }
    doc.update(over)
    return doc


def write_doc(tmp_path, doc, fname=None):
    p = tmp_path / (fname or f"{doc.get('name', 'scenario')}.json")
    p.write_text(json.dumps(doc, indent=2) + "\n")
    return p


# ---------------------------------------------------------------------------
# Validation.
# ---------------------------------------------------------------------------


def test_validate_scenario_happy_path():
    scn = validate_scenario(scenario_doc())
    assert scn["task"] == "dirichlet"
    assert scn["spec"].t == 2.0
    assert scn["tol"] == 1e-8


@pytest.mark.parametrize(
    "patch,field",
    [
        ({"name": "bad name!"}, "scenario.name"),
        ({"task": "fly"}, "scenario.task"),
        ({"shape": {"type": "dodecahedron"}}, "scenario.shape"),
        ({"shape": {"type": "ball", "center": [0, 0]}}, "scenario.shape"),
        ({"operator": {"kind": "p_laplace", "t": 0.5}}, "scenario.operator"),
        ({"h": None}, "scenario.h"),
        ({"h": None, "h_levels": [0.1, 0.2]}, "scenario.h_levels"),
        ({"h": None, "h_levels": []}, "scenario.h_levels"),
        ({"tolerance": -1.0}, "scenario.tolerance"),
        ({"assertions": [{"path": "x", "op": "~", "value": 1}]}, "scenario.assertions[0].op"),
        ({"assertions": [{"path": "x"}]}, "scenario.assertions[0]"),
        ({"operator": {"kind": "p_laplace", "t": 2.0, "homogeneous": True}}, "scenario.operator"),
        ({"assertions": [{"path": "x", "op": ["<="], "value": 1}]}, "scenario.assertions[0].op"),
    ],
)
def test_validate_scenario_rejects(patch, field):
    doc = scenario_doc()
    doc.update(patch)
    doc = {k: v for k, v in doc.items() if v is not None}
    with pytest.raises(ScenarioError) as err:
        validate_scenario(doc)
    assert err.value.field == field


# Malformed top-level fields: each must exit 2 naming the field, before any
# solve, and must not stop a suite from running the valid scenario beside it.
OBSTACLE = {"type": "ball", "center": [0.0, 0.0], "radius": 0.2}


def probe_params(**over):
    """Valid wiener-probe params, with ``over`` set."""
    return {"y": [0.5, 0.0], "cap_radius": 0.1, "r0": 0.2, "K": 2, **over}


MALFORMED = [
    ({"tolerance": "abc"}, "scenario.tolerance"),
    ({"tolerance": None}, "scenario.tolerance"),
    ({"h": None, "h_levels": [0.1, "x"]}, "scenario.h_levels[1]"),
    ({"h": [0.1]}, "scenario.h"),
    ({"assertions": [{"path": 3, "op": "==", "value": 1}]}, "scenario.assertions[0].path"),
    # Exponents that are not finite real numbers, written as the JSON
    # tokens NaN and Infinity, a string and a bool, and a kind that is no
    # string.
    ({"operator": {"kind": "p_laplace", "t": math.nan}}, "scenario.operator"),
    ({"operator": {"kind": "p_laplace", "t": math.inf}}, "scenario.operator"),
    ({"operator": {"kind": "p_laplace", "t": "3"}}, "scenario.operator"),
    ({"operator": {"kind": "p_laplace", "t": True}}, "scenario.operator"),
    ({"operator": {"kind": 3, "t": 2.0}}, "scenario.operator"),
    # Operator fields that no longer exist, and the kind that went with them.
    ({"operator": {"kind": "p_laplace", "t": 2.0, "a": 1.0}}, "scenario.operator"),
    ({"operator": {"kind": "p_laplace", "t": 2.0, "p0": 5.0}}, "scenario.operator"),
    ({"operator": {"kind": "p_laplace", "t": 2.0, "odd_symmetric": "no"}}, "scenario.operator"),
    ({"operator": {"kind": "p_laplace", "t": 1.5, "eps_floor": 1.0}}, "scenario.operator"),
    ({"operator": {"kind": "p_laplace", "t": 2.0, "A_fn": "x"}}, "scenario.operator"),
    ({"operator": {"kind": "p_laplace", "t": 2.0, "W_fn": "x"}}, "scenario.operator"),
    ({"operator": {"kind": "custom", "t": 2.0}}, "scenario.operator"),
    # A float param read by _as_number, written as the JSON tokens NaN and
    # Infinity.
    ({"task": "obstacle", "params": {"obstacle": OBSTACLE, "m": math.nan}}, "params.m"),
    ({"task": "obstacle", "params": {"obstacle": OBSTACLE, "m": math.inf}}, "params.m"),
    # Probe radii that are not positive numbers, read before the first
    # level's solve, directly and under a locality scenario's probe.
    ({"task": "wiener-probe", "params": probe_params(fixed_radius="x")}, "params.fixed_radius"),
    ({"task": "wiener-probe", "params": probe_params(fixed_radius=-1.0)}, "params.fixed_radius"),
    ({"task": "wiener-probe", "params": probe_params(fixed_radius=0.0)}, "params.fixed_radius"),
    ({"task": "wiener-probe", "params": probe_params(near_radius_cells=0.0)},
     "params.near_radius_cells"),
    (
        {
            "task": "locality",
            "params": {"shape_b": OBSTACLE, "probe": probe_params(fixed_radius="x")},
        },
        "params.probe.fixed_radius",
    ),
    # A flag that is not a JSON bool.
    (
        {
            "task": "degiorgi-instrument",
            "params": {
                "solve": {"kind": "dirichlet", "data": "x1"},
                "y": [0.0, 0.0],
                "envelope": {"lower_order": "no"},
            },
        },
        "params.envelope.lower_order",
    ),
]

# Shape numbers that are null (read as NaN by numpy), NaN or infinite, in
# the scenario's shape and in an obstacle, named down to the number.
NON_FINITE_SHAPES = [
    ({"shape": {"type": "box", "lo": [None, 0.0], "hi": [1.0, 1.0]}}, "scenario.shape.lo[0]"),
    ({"shape": {"type": "ball", "center": [0.0, math.nan], "radius": 0.5}},
     "scenario.shape.center[1]"),
    ({"shape": {"type": "ball", "center": [0.0, 0.0], "radius": math.inf}},
     "scenario.shape.radius"),
    ({"task": "obstacle", "params": {"obstacle": {**OBSTACLE, "center": [None, 0.0]}}},
     "params.obstacle.center[0]"),
    (
        {
            "task": "obstacle",
            "params": {
                "obstacle": {"type": "difference", "a": OBSTACLE,
                             "b": {**OBSTACLE, "radius": math.nan}},
            },
        },
        "params.obstacle.b.radius",
    ),
]
MALFORMED += NON_FINITE_SHAPES


def instrument_params(**blocks):
    """Valid degiorgi-instrument params, a Dirichlet solve, with ``blocks``."""
    return {"solve": {"kind": "dirichlet", "data": "x1"}, "y": [0.0, 0.0], **blocks}


def locality_params(**over):
    """Valid locality params, with ``over`` set."""
    return {"shape_b": OBSTACLE, "probe": probe_params(), "y": [0.5, 0.0],
            "window_radius": 0.2, **over}


# Range rules that the library's classes also check, read with the params:
# a sign other than +-1, a height, radius or ladder length out of range, a
# threshold outside (0, 1), and a point or a shape whose dimension is not
# the domain's.
RANGE_RULES = [
    ({"task": "obstacle", "params": {"obstacle": OBSTACLE, "sign": 2}}, "params.sign"),
    ({"task": "obstacle", "params": {"obstacle": OBSTACLE, "m": -1.0}}, "params.m"),
    (
        {
            "task": "degiorgi-instrument",
            "params": instrument_params(
                solve={"kind": "obstacle", "obstacle": OBSTACLE, "sign": 2}
            ),
        },
        "params.solve.sign",
    ),
    (
        {
            "task": "degiorgi-instrument",
            "params": instrument_params(
                solve={"kind": "obstacle", "obstacle": OBSTACLE, "m": -1.0}
            ),
        },
        "params.solve.m",
    ),
    ({"task": "barrier", "params": {"y": [0.5, 0.0], "rho": -1.0}}, "params.rho"),
    ({"task": "barrier", "params": {"y": [0.5], "rho": 0.25}}, "params.y"),
    ({"task": "wiener-probe", "params": probe_params(K=0)}, "params.K"),
    ({"task": "wiener-probe", "params": probe_params(y=[0.5])}, "params.y"),
    *[
        ({"task": "wiener-probe", "params": probe_params(**{name: 2.0})}, f"params.{name}")
        for name in ("decay_factor", "stagnation_floor", "shrink_ratio", "stagnation_ratio")
    ],
    (
        {
            "task": "degiorgi-instrument",
            "params": instrument_params(psi_recursion={"r0": 0.25, "k0": 0.5, "d": 0.0}),
        },
        "params.psi_recursion.d",
    ),
    (
        {
            "task": "degiorgi-instrument",
            "params": instrument_params(level_sets=[{"level": 0.5, "radius": -1.0}]),
        },
        "params.level_sets[0].radius",
    ),
    ({"task": "locality", "params": locality_params(window_radius=-1.0)}, "params.window_radius"),
    # Shapes of another dimension than the domain's.
    (
        {"task": "obstacle", "params": {"obstacle": {**OBSTACLE, "center": [0.0, 0.0, 0.0]}}},
        "params.obstacle",
    ),
    (
        {"task": "locality", "params": locality_params(shape_b={**OBSTACLE, "center": [0.0]})},
        "params.shape_b",
    ),
]
MALFORMED += RANGE_RULES

# A shape key that its type does not read, at the top and inside a
# difference's subtrahend: each used to be dropped, the shape built
# without it.
UNKNOWN_SHAPE_KEYS = [
    ({"shape": {"type": "ball", "center": [0.0, 0.0], "radius": 0.5, "radius2": 0.25}},
     "scenario.shape"),
    ({"task": "obstacle",
      "params": {"obstacle": {"type": "difference", "a": OBSTACLE,
                              "b": {**OBSTACLE, "radius2": 0.1}}}},
     "params.obstacle"),
]
MALFORMED += UNKNOWN_SHAPE_KEYS
# Spacings that used to be dropped without a word: h_levels beside h (the
# run took h_levels), and h_levels on a one-grid task (it ran at the
# finest).
SPACINGS = [
    ({"task": "wiener-probe", "params": probe_params(), "h_levels": [0.25, 0.125]},
     "scenario.h_levels"),
    ({"h": None, "h_levels": [0.25, 0.125]}, "scenario.h_levels"),
]
MALFORMED += SPACINGS


def malformed_doc(patch):
    doc = scenario_doc(name="malformed")
    doc.update(patch)
    if patch.get("h", 0) is None:
        del doc["h"]
    return doc


@pytest.mark.parametrize("patch,field", MALFORMED)
def test_malformed_top_level_field_exits_two(tmp_path, patch, field):
    p = write_doc(tmp_path, malformed_doc(patch))
    code, row = run_scenario(p, out_root=tmp_path / "out")
    assert code == 2
    assert row["result"] == "config-error"
    assert row["key_metric"].startswith(field + ":")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("patch,field", MALFORMED)
def test_suite_runs_the_neighbour_of_a_malformed_scenario(tmp_path, patch, field):
    sdir = tmp_path / "suite"
    sdir.mkdir()
    write_doc(sdir, malformed_doc(patch), "bad.json")
    write_doc(sdir, scenario_doc(name="good"), "good.json")
    assert run_suite(sdir, out_root=tmp_path / "out") == 2
    with open(tmp_path / "out" / "summary.csv", newline="") as fh:
        rows = {r["scenario"]: r for r in csv.DictReader(fh)}
    # A file that fails to load is named by its path, one whose task
    # rejects a param by its scenario name.
    bad = rows.get(str(sdir / "bad.json")) or rows["malformed"]
    assert bad["result"] == "config-error"
    assert bad["key_metric"].startswith(field + ":")
    assert rows["good"]["result"] == "pass"


@pytest.mark.parametrize(
    "text,field", [("[1, 2]", "bad.json"), ('{"name": ["x"]}', "scenario.name")]
)
def test_suite_runs_the_neighbour_of_a_non_scenario_file(tmp_path, text, field):
    sdir = tmp_path / "suite"
    sdir.mkdir()
    (sdir / "bad.json").write_text(text)
    write_doc(sdir, scenario_doc(name="good"), "good.json")
    assert run_suite(sdir, out_root=tmp_path / "out") == 2
    with open(tmp_path / "out" / "summary.csv", newline="") as fh:
        rows = {r["scenario"]: r for r in csv.DictReader(fh)}
    assert field in rows[str(sdir / "bad.json")]["key_metric"]
    assert rows["good"]["result"] == "pass"


def test_load_scenario_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ScenarioError, match="invalid JSON"):
        load_scenario(p)
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path / "missing.json")


# ---------------------------------------------------------------------------
# Single runs: artifacts and exit codes.
# ---------------------------------------------------------------------------


def test_run_writes_artifacts_and_passes(tmp_path):
    p = write_doc(tmp_path, scenario_doc())
    code, row = run_scenario(p, out_root=tmp_path / "out")
    assert code == 0
    assert row["result"] == "pass"
    out = tmp_path / "out" / "tiny-dirichlet"
    report = json.loads((out / "report.json").read_text())
    assert report["scenario"] == "tiny-dirichlet"
    assert report["oracle"]["max_error"] < 1e-6
    assert all(a["ok"] for a in report["assertions"])
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {
        "config_sha256", "package_version", "numpy_version",
        "python_version", "solve_memo", "wall_time_s",
    }
    # Outside a suite run there is no memo: every solve runs.
    assert manifest["solve_memo"] == {"hits": 0, "misses": 1}
    # Volatile data stays out of the report.
    assert "wall_time_s" not in report["solve"]
    metrics = (out / "metrics.csv").read_bytes()
    assert b"\r\n" in metrics


def test_report_is_byte_identical_across_reruns(tmp_path):
    p = write_doc(tmp_path, scenario_doc())
    run_scenario(p, out_root=tmp_path / "a")
    run_scenario(p, out_root=tmp_path / "b")
    ra = (tmp_path / "a" / "tiny-dirichlet" / "report.json").read_bytes()
    rb = (tmp_path / "b" / "tiny-dirichlet" / "report.json").read_bytes()
    assert ra == rb


def test_json_writes_non_finite_floats_as_null(tmp_path):
    # NaN and +-inf, plain or numpy, bare or inside arrays and tuples, are
    # written as null; numpy scalars and arrays as plain values.
    path = tmp_path / "out.json"
    _write_json(
        path,
        {
            "nan": math.nan,
            "inf": -math.inf,
            "np_nan": np.float64("nan"),
            "array": np.array([1.5, np.inf]),
            "pair": (np.int64(3), np.bool_(True)),
            "plain": [0.25, None, "x", False, 7],
        },
    )
    assert json.loads(path.read_text(), parse_constant=lambda token: 1 / 0) == {
        "nan": None,
        "inf": None,
        "np_nan": None,
        "array": [1.5, None],
        "pair": [3, True],
        "plain": [0.25, None, "x", False, 7],
    }
    with pytest.raises(TypeError):
        _write_json(path, {"set": {1}})


def test_failed_assertion_exits_one_with_artifacts(tmp_path):
    doc = scenario_doc(assertions=[{"path": "oracle.max_error", "op": ">=", "value": 1.0}])
    p = write_doc(tmp_path, doc)
    code, row = run_scenario(p, out_root=tmp_path / "out")
    assert code == 1
    assert row["result"] == "assert-fail"
    report = json.loads((tmp_path / "out" / "tiny-dirichlet" / "report.json").read_text())
    assert report["assertions"][0]["ok"] is False


def test_missing_assertion_path_fails_cleanly(tmp_path):
    doc = scenario_doc(assertions=[{"path": "no.such.key", "op": "==", "value": 1}])
    p = write_doc(tmp_path, doc)
    code, _ = run_scenario(p, out_root=tmp_path / "out")
    assert code == 1
    report = json.loads((tmp_path / "out" / "tiny-dirichlet" / "report.json").read_text())
    assert "error" in str(report["assertions"][0]["actual"])


def test_config_error_exits_two_and_writes_nothing(tmp_path):
    doc = scenario_doc(task="swim")
    p = write_doc(tmp_path, doc)
    code, row = run_scenario(p, out_root=tmp_path / "out")
    assert code == 2
    assert row["result"] == "config-error"
    assert not (tmp_path / "out").exists()


def test_runtime_error_exits_one_with_error_report(tmp_path):
    # Barrier anchor in the interior: executor raises, artifacts say why.
    doc = scenario_doc(
        name="bad-anchor",
        task="barrier",
        params={"y": [0.0, 0.0], "rho": 0.25, "m": 1.0},
    )
    p = write_doc(tmp_path, doc)
    code, row = run_scenario(p, out_root=tmp_path / "out")
    assert code == 1
    assert row["result"] == "error"
    report = json.loads((tmp_path / "out" / "bad-anchor" / "report.json").read_text())
    assert "boundary node" in report["error"]


def test_empty_radial_band_exits_one_naming_the_band(tmp_path):
    # s02 at h = 1/8: no interior node lies at a radius in [0.31, 0.32].
    # The band loads (lo <= hi); its report refuses it after the solve.
    scenario = Path(__file__).resolve().parents[1] / "scenarios" / "s02-radial-obstacle-t2.json"
    doc = json.loads(scenario.read_text())
    doc.update(name="empty-band", h=0.125)
    doc["params"]["radial_oracle"]["band"] = [0.31, 0.32]
    code, row = run_scenario(write_doc(tmp_path, doc), out_root=tmp_path / "out")
    assert code == 1
    assert row["result"] == "error"
    want = "radial_oracle band [0.31, 0.32] holds no interior node at h = 0.125"
    assert row["key_metric"] == want
    report = json.loads((tmp_path / "out" / "empty-band" / "report.json").read_text())
    assert report == {"task": "obstacle", "error": want}


# ---------------------------------------------------------------------------
# Task coverage through the runner.
# ---------------------------------------------------------------------------


def test_obstacle_scenario_with_radial_oracle(tmp_path):
    doc = {
        "name": "mini-radial",
        "task": "obstacle",
        "shape": {"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
        "operator": {"kind": "p_laplace", "t": 3.0},
        "h": 1.0 / 32.0,
        "params": {
            "obstacle": {"type": "ball", "center": [0.0, 0.0], "radius": 0.25},
            "m": 1.0,
            "radial_oracle": {
                "inner": 0.25, "outer": 1.0, "band": [0.25, 0.9],
                "value_at": [0.5],
            },
        },
        "assertions": [
            {"path": "verification.passed", "op": "==", "value": True},
            {"path": "oracle.max_rel_error_pointwise", "op": "<=", "value": 0.12},
        ],
    }
    p = write_doc(tmp_path, doc)
    code, row = run_scenario(p, out_root=tmp_path / "out")
    assert code == 0, row
    out = tmp_path / "out" / "mini-radial"
    report = json.loads((out / "report.json").read_text())
    # Dot-free key for the point check, addressable by assertion paths.
    assert "value_at_0_5" in report["oracle"]
    with open(out / "profile.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {"r", "computed_mean", "exact", "count"} <= set(rows[0])
    # CSV floats survive a round trip exactly (repr serialization).
    first = json.loads(json.dumps(float(rows[0]["computed_mean"])))
    assert float(rows[0]["computed_mean"]) == first


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_degiorgi_scenario_envelope_blocks(tmp_path):
    doc = {
        "name": "mini-instrument",
        "task": "degiorgi-instrument",
        "shape": {
            "type": "difference",
            "a": {"type": "ball", "center": [0.0, 0.0], "radius": 0.5},
            "b": {"type": "ball", "center": [0.0, 0.0], "radius": 0.00390625},
        },
        "operator": {"kind": "p_laplace", "t": 2.0},
        "h_levels": [1.0 / 16.0, 1.0 / 32.0],
        "params": {
            "solve": {
                "kind": "obstacle",
                "obstacle": {"type": "ball", "center": [0.0, 0.0], "radius": 0.07},
                "m": 1.0,
            },
            "y": [0.0, 0.0],
            "level_sets": [{"level": 0.5, "radius": 0.2}],
            "caccioppoli": [{"level": 0.5, "rho": 0.1, "R": 0.3}],
            "oscillation": {"r0": 0.25, "K": 1},
            "envelope": {"C1": 1.0},
        },
    }
    p = write_doc(tmp_path, doc)
    code, row = run_scenario(p, out_root=tmp_path / "out")
    assert code == 0, row
    report = json.loads((tmp_path / "out" / "mini-instrument" / "report.json").read_text())
    assert len(report["levels"]) == 2
    level = report["levels"][0]
    assert level["oscillation"][0]["count"] > 0
    assert "envelope" in level and level["envelope"]["rows"]
    assert "caccioppoli_stability_ratio" in report
    for name in ("level_sets", "caccioppoli", "oscillation"):
        assert (tmp_path / "out" / "mini-instrument" / f"{name}.csv").exists()


def instrument_doc(name, **blocks):
    """A small degiorgi-instrument scenario with the given blocks."""
    return {
        "name": name,
        "task": "degiorgi-instrument",
        "shape": {"type": "ball", "center": [0.0, 0.0], "radius": 0.5},
        "operator": {"kind": "p_laplace", "t": 2.0},
        "h": 1.0 / 8.0,
        "params": instrument_params(**blocks),
    }


BLOCK_KEY_CASES = [
    ({"level_sets": [{"radius": 0.2}]}, "params.level_sets[0].level"),
    ({"caccioppoli": [{"level": 0.5, "rho": 0.1}]}, "params.caccioppoli[0].R"),
    ({"psi_recursion": {"r0": 0.25}}, "params.psi_recursion.k0"),
    ({"oscillation": {"r0": 0.25}}, "params.oscillation.K"),
    ({"level_sets": {"level": 0.5, "radius": 0.2}}, "params.level_sets"),
]


@pytest.mark.parametrize("blocks, field", BLOCK_KEY_CASES)
def test_degiorgi_block_keys_checked_before_any_solve(tmp_path, monkeypatch, blocks, field):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve started before the block keys were checked")

    monkeypatch.setattr("artifact.cli.solve_dirichlet", no_solve)
    p = write_doc(tmp_path, instrument_doc("bad-instrument", **blocks))
    code, row = run_scenario(p, out_root=tmp_path / "out")
    assert code == 2
    assert row["result"] == "config-error"
    assert row["key_metric"].startswith(field + ":")
    assert not (tmp_path / "out").exists()


def expression_doc(field, text):
    """A 2D scenario whose expression at ``field`` is ``text``."""
    if field == "params.data":
        return scenario_doc(params={"data": text})
    if field == "params.oracle.expr":
        return scenario_doc(params={"data": "x1", "oracle": {"expr": text}})
    return {
        **instrument_doc("bad-instrument"),
        "params": {"solve": {"kind": "dirichlet", "data": text}, "y": [0.0, 0.0]},
    }


# Each bad text in each expression field, with the cause its message names.
EXPRESSION_CASES = [
    (field, text, cause)
    for text, cause in [
        ("x1 +", "incomplete expression"),
        ("x1 + banana", "unknown name 'banana'"),
        ("x3", "x3 on a 2D domain"),
    ]
    for field in ("params.data", "params.oracle.expr", "params.solve.data")
]


@pytest.mark.parametrize(
    "field, text, cause",
    EXPRESSION_CASES,
    ids=[f"doc{i}-{field}" for i, (field, _, _) in enumerate(EXPRESSION_CASES)],
)
def test_malformed_expression_exits_two_before_any_solve(tmp_path, monkeypatch, field, text, cause):
    # An expression that does not parse, names an unknown name or reads a
    # coordinate the domain lacks is a config error naming its field, found
    # before any solve runs, and no report is written for it.
    def no_solve(*args, **kwargs):
        raise AssertionError("solve started before the expressions were parsed")

    monkeypatch.setattr("artifact.cli.solve_dirichlet", no_solve)
    code, row = run_scenario(write_doc(tmp_path, expression_doc(field, text)), tmp_path / "out")
    assert code == 2
    assert row["result"] == "config-error"
    assert row["key_metric"].startswith(f"{field}: invalid expression {text!r}: {cause}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text, part",
    [("1/0", "1/0"), ("x1 + 10^400", "10^400"), ("(0-8)^(1/3) + x1", "(0-8)^(1/3)")],
)
def test_failing_constant_exits_two_and_the_suite_goes_on(tmp_path, text, part):
    # A part of an expression that reads no coordinate and fails in Python
    # arithmetic is a config error naming the field, found when the
    # expression is read; the next scenario still runs and the summary is
    # written.
    sdir = tmp_path / "suite"
    sdir.mkdir()
    write_doc(sdir, scenario_doc(name="s03-bad", params={"data": text}))
    write_doc(sdir, scenario_doc(name="s04-good"))
    assert run_suite(sdir, out_root=tmp_path / "out") == 2
    with open(tmp_path / "out" / "summary.csv", newline="") as fh:
        rows = {r["scenario"]: r for r in csv.DictReader(fh)}
    assert rows["s03-bad"]["result"] == "config-error"
    assert rows["s03-bad"]["key_metric"].startswith(
        f"params.data: invalid expression {text!r}: cannot evaluate {part!r}"
    )
    assert rows["s04-good"]["result"] == "pass"
    assert not (tmp_path / "out" / "s03-bad").exists()


def test_any_task_exception_is_an_error_row(tmp_path, monkeypatch):
    # An exception other than ValueError or RuntimeError from a task is
    # reported as an error with its type, exit 1 and report.json written,
    # and the suite runs the next scenario.
    import artifact.cli as cli

    solve = cli.solve_dirichlet

    def failing(grid, spec, data, tol):
        if grid.h == 0.25:
            raise ZeroDivisionError("float division by zero")
        return solve(grid, spec, data, tol)

    monkeypatch.setattr(cli, "solve_dirichlet", failing)
    sdir = tmp_path / "suite"
    sdir.mkdir()
    write_doc(sdir, scenario_doc(name="s03-bad", h=0.25))
    write_doc(sdir, scenario_doc(name="s04-good"))
    assert run_suite(sdir, out_root=tmp_path / "out") == 1
    with open(tmp_path / "out" / "summary.csv", newline="") as fh:
        rows = {r["scenario"]: r for r in csv.DictReader(fh)}
    assert rows["s03-bad"]["result"] == "error"
    assert rows["s04-good"]["result"] == "pass"
    report = json.loads((tmp_path / "out" / "s03-bad" / "report.json").read_text())
    assert report == {"task": "dirichlet", "error": "ZeroDivisionError: float division by zero"}
    code, row = run_scenario(sdir / "s03-bad.json", out_root=tmp_path / "alone")
    assert (code, row["result"]) == (1, "error")


# ---------------------------------------------------------------------------
# Suite.
# ---------------------------------------------------------------------------


def test_suite_survives_a_missing_degiorgi_key(tmp_path):
    sdir = tmp_path / "suite"
    sdir.mkdir()
    bad = instrument_doc("bad-instrument", level_sets=[{"radius": 0.2}])
    write_doc(sdir, bad, "bad.json")
    write_doc(sdir, scenario_doc(name="good"), "good.json")
    code = run_suite(sdir, out_root=tmp_path / "out")
    assert code == 2  # worst row wins: a config error outranks a pass
    with open(tmp_path / "out" / "summary.csv", newline="") as fh:
        rows = {r["scenario"]: r for r in csv.DictReader(fh)}
    assert rows["bad-instrument"]["result"] == "config-error"
    assert "params.level_sets[0].level" in rows["bad-instrument"]["key_metric"]
    assert rows["good"]["result"] == "pass"


RETYPED = [
    ("barrier", {"y": [0.0, 0.0], "rho": [0.1]}, "params.rho"),
    ("dirichlet", {"data": {"a": 1}}, "params.data"),
    (
        "wiener-probe",
        {"y": [0.5, 0.0], "cap_radius": 0.1, "r0": 0.2, "K": "two"},
        "params.K",
    ),
    ("obstacle", {"obstacle": {"type": "ball", "radius": 0.25}}, "params.obstacle"),
    (
        "locality",
        {"shape_b": {"type": "ball", "center": "x", "radius": 1.0}},
        "params.shape_b",
    ),
    (
        "degiorgi-instrument",
        {"y": [0.0, 0.0], "solve": {"kind": "obstacle", "obstacle": {"type": "blob"}}},
        "params.solve.obstacle",
    ),
    ("barrier", {"y": ["a", 0.0], "rho": 0.1}, "params.y[0]"),
    (
        "obstacle",
        {
            "obstacle": {"type": "ball", "center": [0.0, 0.0], "radius": 0.25},
            "radial_oracle": {"inner": 0.25, "outer": 0.5, "band": [0.25, "x"]},
        },
        "params.radial_oracle.band[1]",
    ),
    ("dirichlet", {"data": "x1", "oracle": 3}, "params.oracle"),
]


@pytest.mark.parametrize("task, params, field", RETYPED)
def test_suite_runs_the_neighbour_of_a_retyped_param(tmp_path, task, params, field):
    # A param of the wrong type, a list element or a nested shape among
    # them, is a config error that names it, not a traceback that ends the
    # suite or a runtime error.
    sdir = tmp_path / "suite"
    sdir.mkdir()
    write_doc(sdir, scenario_doc(name="bad", task=task, params=params, assertions=[]))
    write_doc(sdir, scenario_doc(name="good"))
    assert run_suite(sdir, out_root=tmp_path / "out") == 2
    with open(tmp_path / "out" / "summary.csv", newline="") as fh:
        rows = {r["scenario"]: r for r in csv.DictReader(fh)}
    assert rows["bad"]["result"] == "config-error"
    assert rows["bad"]["key_metric"].startswith(field + ":")
    assert rows["good"]["result"] == "pass"
    assert not (tmp_path / "out" / "bad").exists()


# Every config error above, each a patch over ``malformed_doc``: found while
# the scenario loads, so no grid is ever built.  The non-finite shape cases
# come first, and the spacing cases last, so that each earlier case keeps
# its test id.
BEFORE_ANY_GRID = [
    *NON_FINITE_SHAPES,
    *[row for row in MALFORMED if row not in NON_FINITE_SHAPES + UNKNOWN_SHAPE_KEYS + SPACINGS],
    *[(instrument_doc("malformed", **blocks), field) for blocks, field in BLOCK_KEY_CASES],
    *[({"task": task, "params": params}, field) for task, params, field in RETYPED],
    *[(expression_doc(field, text), field) for field, text, _ in EXPRESSION_CASES],
    *UNKNOWN_SHAPE_KEYS,
    *SPACINGS,
]


def no_grid_run(tmp_path, monkeypatch, doc):
    """run_scenario on ``doc`` with every grid build refused."""
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built before every field was read")

    monkeypatch.setattr("artifact.cli.build_grid", no_grid)
    monkeypatch.setattr("artifact.capacity.build_grid", no_grid)
    return run_scenario(write_doc(tmp_path, doc), tmp_path / "out")


@pytest.mark.parametrize("patch,field", BEFORE_ANY_GRID)
def test_non_finite_shape_number_exits_two_before_any_grid(tmp_path, monkeypatch, patch, field):
    code, row = no_grid_run(tmp_path, monkeypatch, malformed_doc(patch))
    assert code == 2
    assert row["result"] == "config-error"
    assert row["key_metric"].startswith(field + ":")
    assert not (tmp_path / "out").exists()


RADIAL = {"inner": 0.2, "outer": 0.5}
# A param key that no table names, at the top, nested, in a list item and
# beside a kind; and the radial oracle's cross-field rules.  Each used to
# run: the keys with their defaults, the oracle to an exit-1 error row
# after a full solve.
LOAD_REFUSALS = [
    ({"task": "wiener-probe", "params": probe_params(fixd_radius=0.05)}, "params.fixd_radius"),
    ({"task": "locality", "params": locality_params(probe=probe_params(Kk=2))},
     "params.probe.Kk"),
    (
        {"task": "degiorgi-instrument",
         "params": instrument_params(level_sets=[{"level": 0.5, "radius": 0.1, "rho": 1.0}])},
        "params.level_sets[0].rho",
    ),
    (
        {"task": "degiorgi-instrument",
         "params": instrument_params(solve={"kind": "obstacle", "obstacle": OBSTACLE,
                                            "heigth": 1.0})},
        "params.solve.heigth",
    ),
    ({"task": "obstacle",
      "params": {"obstacle": OBSTACLE, "radial_oracle": {**RADIAL, "centre": [0.0, 0.0]}}},
     "params.radial_oracle.centre"),
    ({"task": "obstacle",
      "params": {"obstacle": OBSTACLE, "radial_oracle": {"inner": 0.5, "outer": 0.2}}},
     "params.radial_oracle.inner"),
    ({"task": "obstacle",
      "params": {"obstacle": OBSTACLE, "radial_oracle": {"inner": 0.3, "outer": 0.3}}},
     "params.radial_oracle.inner"),
    ({"task": "obstacle",
      "params": {"obstacle": OBSTACLE, "radial_oracle": {**RADIAL, "band": [0.4, 0.3]}}},
     "params.radial_oracle.band"),
    ({"tolerence": 1e-3}, "scenario.tolerence"),
    # A Caccioppoli block with rho >= R, and an "auto" psi gap from k0 <= 0:
    # each ran to an exit-1 error row after the full solve.
    ({"task": "degiorgi-instrument",
      "params": instrument_params(caccioppoli=[{"level": 0.5, "rho": 0.8, "R": 0.5}])},
     "params.caccioppoli[0].rho"),
    ({"task": "degiorgi-instrument",
      "params": instrument_params(caccioppoli=[{"level": 0.5, "rho": 0.25, "R": 0.5},
                                               {"level": 0.5, "rho": 0.5, "R": 0.5}])},
     "params.caccioppoli[1].rho"),
    ({"task": "degiorgi-instrument",
      "params": instrument_params(psi_recursion={"r0": 0.25, "k0": -1.0})},
     "params.psi_recursion.k0"),
    ({"task": "degiorgi-instrument",
      "params": instrument_params(psi_recursion={"r0": 0.25, "k0": 0.0, "d": "auto"})},
     "params.psi_recursion.k0"),
]


@pytest.mark.parametrize("patch,field", LOAD_REFUSALS)
def test_malformed_param_exits_two_before_any_grid(tmp_path, monkeypatch, patch, field):
    code, row = no_grid_run(tmp_path, monkeypatch, malformed_doc(patch))
    assert code == 2
    assert row["result"] == "config-error"
    assert row["key_metric"].startswith(field + ":")
    assert not (tmp_path / "out").exists()


def test_psi_recursion_with_a_given_gap_loads_at_any_k0():
    # Only the "auto" gap is fitted from k0; a given positive d stands alone.
    doc = malformed_doc({"task": "degiorgi-instrument", "params": instrument_params(
        psi_recursion={"r0": 0.25, "k0": -1.0, "d": 0.5})})
    assert validate_scenario(doc)["params"]["psi_recursion"]["k0"] == -1.0


def test_auto_gap_over_an_empty_first_sublevel_set_keeps_the_other_blocks(tmp_path):
    # u = 1 everywhere, so the sublevel set {u <= k0} is empty, psi_0 = 0
    # and the fitted gap is 0: that level gets no psi_recursion block, and
    # the run keeps its level-set and Caccioppoli blocks.  It used to end as
    # an exit-1 error row, "d: must be positive".
    doc = instrument_doc("empty-sublevel", solve={"kind": "dirichlet", "data": 1.0},
                         level_sets=[{"level": 0.5, "radius": 0.2}],
                         caccioppoli=[{"level": 0.5, "rho": 0.1, "R": 0.3}],
                         psi_recursion={"r0": 0.25, "k0": 0.5})
    code, row = run_scenario(write_doc(tmp_path, doc), tmp_path / "out")
    assert (code, row["result"]) == (0, "pass")
    level = json.loads((tmp_path / "out" / "empty-sublevel" / "report.json").read_text())[
        "levels"][0]
    assert level["fitted_gap"] is None
    assert "psi_recursion" not in level
    assert level["level_sets"][0]["nodes"] == 0
    assert level["caccioppoli"][0]["c_emp"] == 0.0


# One bad value for each rule of the probe and the psi schedule: (the
# class's field, the scenario's param key, the value).
PROBE_RULES = [
    ("y", "y", [0.5, "x"]),
    ("cap_radius", "cap_radius", -1.0),
    ("r0", "r0", math.nan),
    ("K", "K", 2.5),
    ("K", "K", True),
    ("height", "m", math.inf),
    ("sign", "sign", 0),
    *[(name, name, 1.0) for name in
      ("decay_factor", "stagnation_floor", "shrink_ratio", "stagnation_ratio")],
    ("near_radius_cells", "near_radius_cells", -1),
    ("fixed_radius", "fixed_radius", -0.1),
]
SCHEDULE_RULES = [
    ("r0", "r0", 0.0),
    ("k0", "k0", "x"),
    ("d", "d", math.inf),
    ("n_levels", "n_levels", 2.5),
]


def refusal(build):
    """(field, message) of the ScenarioError that ``build()`` raises."""
    with pytest.raises(ScenarioError) as err:
        build()
    field, message = str(err.value).split(": ", 1)
    assert field == err.value.field
    return field, message


@pytest.mark.parametrize(
    "config,name,key,value",
    [("probe", *rule) for rule in PROBE_RULES]
    + [("schedule", *rule) for rule in SCHEDULE_RULES],
)
def test_the_api_refuses_by_the_scenario_rule(config, name, key, value):
    # The class and the scenario read the field through one declaration,
    # so their messages differ in the field's name only.
    if config == "probe":
        good = dict(y=(0.5, 0.0), cap_radius=0.1, r0=0.2, K=2, h_levels=(0.25,))
        api = refusal(lambda: WienerProbeConfig(**{**good, name: value}))
        doc = malformed_doc({"task": "wiener-probe", "params": probe_params(**{key: value})})
        prefix = "params."
    else:
        good = dict(y=(0.0, 0.0), r0=0.25, k0=0.5, d=0.1)
        api = refusal(lambda: IterationSchedule(**{**good, name: value}))
        psi = {"r0": 0.25, "k0": 0.5, "d": 0.1, key: value}
        doc = malformed_doc({"task": "degiorgi-instrument",
                             "params": instrument_params(psi_recursion=psi)})
        prefix = "params.psi_recursion."
    scenario = refusal(lambda: validate_scenario(doc))
    assert scenario[0] == prefix + api[0].replace(name, key, 1)
    assert api[1] == scenario[1]


def test_misspelt_twisted_cone_key_names_the_shape_and_the_key():
    doc = json.loads(next(p for p in SHIPPED if p.stem == "s12-twisted-cone").read_text())
    assert doc["shape"]["b"]["type"] == "twisted_cone"
    doc["shape"]["b"]["fold_fracton"] = 0.5
    with pytest.raises(ScenarioError) as err:
        validate_scenario(doc)
    assert err.value.field == "scenario.shape"
    assert "'fold_fracton'" in str(err.value)
    assert "known: vertex, opening, radius, fold_fraction" in str(err.value)


def test_radial_oracle_band_of_one_radius_loads():
    # lo == hi is a band, of the nodes at that one radius.
    doc = malformed_doc({"task": "obstacle", "params": {
        "obstacle": OBSTACLE, "radial_oracle": {**RADIAL, "band": [0.3, 0.3]}}})
    assert validate_scenario(doc)["params"]["radial_oracle"]["band"] == [0.3, 0.3]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("place", ["assertion", "top-level key"])
def test_malformed_json_constant_exits_two_naming_the_file(tmp_path, monkeypatch, value, place):
    # NaN, Infinity and -Infinity where no field reads them: the file is
    # named, with the scenario's name and task.  Under a top-level key that
    # no field reads, that key names itself first, as an unknown key.
    doc = scenario_doc(name="constant")
    if place == "assertion":
        doc["assertions"][0]["value"] = value
    else:
        doc["comment"] = value
    code, row = no_grid_run(tmp_path, monkeypatch, doc)
    assert code == 2
    assert row["result"] == "config-error"
    if place == "assertion":
        assert row["key_metric"].startswith(str(tmp_path / "constant.json") + ":")
        assert json.dumps(value) in row["key_metric"]
    else:
        assert row["key_metric"].startswith("scenario.comment: unknown key")
    assert (row["scenario"], row["task"]) == ("constant", "dirichlet")
    assert not (tmp_path / "out").exists()


SHIPPED = sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.json"))
DELETE = object()


def value_paths(node, path=()):
    """The path of every value inside a JSON document, objects and lists
    and the leaves within them alike."""
    items = ()
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    for key, item in items:
        yield path + (key,)
        yield from value_paths(item, path + (key,))


def mutant(doc, path, value):
    """``doc`` with the leaf at ``path`` set to ``value``, or deleted."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@pytest.mark.parametrize("path", SHIPPED, ids=lambda path: path.stem)
def test_every_mutation_validates_or_names_its_field(path):
    # Each value of a shipped scenario, leaf or not, deleted or replaced.
    # Validation alone builds no lattice, so no mutant can ask for more
    # memory than the machine holds; the mutants are not run.
    doc = json.loads(path.read_text())
    validate_scenario(doc)
    places = list(value_paths(doc))
    assert len(places) > 10
    for place in places:
        for value in (DELETE, "x", -1.0, 0.0, None, [1.0], {}, True):
            try:
                validate_scenario(mutant(doc, place, value))
            except ScenarioError as exc:
                assert exc.field.startswith(("scenario.", "params.")), (place, value, str(exc))
            except Exception as exc:  # noqa: BLE001 - name the mutant that escaped
                pytest.fail(f"{'.'.join(map(str, place))} = {value!r}: {exc!r}")


@pytest.mark.parametrize(
    "results,worst",
    [
        (["pass"], 0),
        (["pass", "assert-fail"], 1),
        (["pass", "config-error"], 2),
        (["config-error", "assert-fail", "pass"], 2),
    ],
)
def test_suite_returns_the_worst_scenario_code(tmp_path, monkeypatch, results, worst):
    import artifact.cli as cli

    codes = {"pass": 0, "assert-fail": 1, "config-error": 2}
    sdir = tmp_path / "suite"
    sdir.mkdir()
    for i, result in enumerate(results):
        write_doc(sdir, scenario_doc(name=f"s{i}-{result}"))

    def fake_run(path, out_root):
        result = path.stem.split("-", 1)[1]
        row = {"scenario": path.stem, "task": "dirichlet", "result": result, "key_metric": ""}
        return codes[result], row

    monkeypatch.setattr(cli, "run_scenario", fake_run)
    assert run_suite(sdir, out_root=tmp_path / "out") == worst


def test_suite_runs_and_summarizes(tmp_path, capsys):
    sdir = tmp_path / "suite"
    sdir.mkdir()
    write_doc(sdir, scenario_doc(name="alpha"), "alpha.json")
    write_doc(
        sdir,
        scenario_doc(
            name="beta",
            assertions=[{"path": "oracle.max_error", "op": ">=", "value": 5.0}],
        ),
        "beta.json",
    )
    code = run_suite(sdir, out_root=tmp_path / "out", threads=2)
    assert code == 1  # worst row wins
    with open(tmp_path / "out" / "summary.csv", newline="") as fh:
        rows = {r["scenario"]: r for r in csv.DictReader(fh)}
    assert rows["alpha"]["result"] == "pass"
    assert rows["beta"]["result"] == "assert-fail"
    printed = capsys.readouterr().out
    assert "alpha" in printed and "beta" in printed


def test_suite_rejects_duplicates_and_empty(tmp_path):
    sdir = tmp_path / "dup"
    sdir.mkdir()
    write_doc(sdir, scenario_doc(name="same"), "one.json")
    write_doc(sdir, scenario_doc(name="same"), "two.json")
    assert run_suite(sdir, out_root=tmp_path / "out") == 2
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_suite(empty, out_root=tmp_path / "out") == 2


def shared_solve_docs():
    """An obstacle scenario and a degiorgi-instrument scenario whose solves
    are equal: same grid, operator, obstacle, height, sign and tolerance."""
    ball = {"type": "ball", "center": [0.0, 0.0], "radius": 1.0}
    obstacle = {"type": "ball", "center": [0.0, 0.0], "radius": 0.25}
    common = {"shape": ball, "operator": {"kind": "p_laplace", "t": 3.0}, "tolerance": 1e-8}
    b1 = {
        "name": "b1-obstacle", "task": "obstacle", "h": 1.0 / 16.0, **common,
        "params": {"obstacle": obstacle, "m": 0.9, "sign": 1,
                   "radial_oracle": {"inner": 0.25, "outer": 1.0, "band": [0.375, 0.85]}},
    }
    b2 = {
        "name": "b2-degiorgi", "task": "degiorgi-instrument", "h_levels": [1.0 / 16.0],
        **common,
        "params": {"solve": {"kind": "obstacle", "obstacle": obstacle, "m": 0.9, "sign": 1},
                   "y": [0.0, 0.0],
                   "level_sets": [{"level": 0.45, "radius": 0.5}]},
    }
    return b1, b2


def artifact_bytes(out):
    return {
        path.relative_to(out).as_posix(): path.read_bytes()
        for path in sorted(out.glob("*/*"))
        if path.name != "manifest.json"
    }


@pytest.mark.parametrize("threads", [1, 2])
def test_suite_memo_runs_a_shared_solve_once(tmp_path, monkeypatch, threads):
    sdir = tmp_path / "suite"
    sdir.mkdir()
    paths = [write_doc(sdir, doc) for doc in shared_solve_docs()]
    for path in paths:
        assert run_scenario(path, out_root=tmp_path / "single")[0] == 0
    calls = []
    relax = solver._relax

    def counted(*args, **kwargs):
        calls.append(args[1].t)
        return relax(*args, **kwargs)

    monkeypatch.setattr(solver, "_relax", counted)
    assert run_suite(sdir, out_root=tmp_path / "suite-out", threads=threads) == 0
    assert calls == [2.0, 3.0]  # one presolve, one main solve
    assert artifact_bytes(tmp_path / "suite-out") == artifact_bytes(tmp_path / "single")
    memo = [
        json.loads((tmp_path / "suite-out" / name / "manifest.json").read_text())["solve_memo"]
        for name in ("b1-obstacle", "b2-degiorgi")
    ]
    assert sorted((m["hits"], m["misses"]) for m in memo) == [(0, 1), (1, 0)]
    # The memo ends with the suite run: a direct solve runs again.
    scn, _ = load_scenario(paths[0])
    grid = build_grid(scn["shape"], scn["h"])
    con = ObstacleConstraint.from_shape(grid, Ball([0.0, 0.0], 0.25), 0.9)
    solve_obstacle(grid, scn["spec"], con)
    assert calls == [2.0, 3.0, 2.0, 3.0]


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def test_suite_memo_keeps_a_solve_only_for_a_later_scenario_on_its_grid(
    tmp_path, monkeypatch
):
    # a and c are one solve at h = 1/8; b solves at h = 1/16.  a's solve is
    # kept for c, and it is still there when c starts; b's is never kept,
    # since no other scenario solves at h = 1/16.
    import artifact.cli as cli

    sdir = tmp_path / "suite"
    sdir.mkdir()
    write_doc(sdir, scenario_doc(name="a"))
    write_doc(sdir, scenario_doc(name="b", h=1.0 / 16.0))
    write_doc(sdir, scenario_doc(name="c"))
    held = {}
    run = cli.run_scenario

    def recorded(path, out_root):
        held[path.stem] = sorted(entry.tag[2] for entry in solver._memo.values())
        return run(path, out_root)

    monkeypatch.setattr(cli, "run_scenario", recorded)
    assert run_suite(sdir, out_root=tmp_path / "out") == 0
    assert held == {"a": [], "b": [0.125], "c": [0.125]}
    manifest = json.loads((tmp_path / "out" / "c" / "manifest.json").read_text())
    assert manifest["solve_memo"] == {"hits": 1, "misses": 0}


def test_suite_memo_under_threads_runs_each_shared_solve_once(tmp_path):
    # Three pairs of scenarios, each pair one solve on its own grid, run on
    # more threads than cores with a short switch interval: each shared
    # solve runs once and is served once, whatever the interleaving, and
    # the artifacts equal those of single runs.
    sdir = tmp_path / "suite"
    sdir.mkdir()
    for h in (8, 10, 12):
        for twin in "ab":
            write_doc(sdir, scenario_doc(name=f"h{h}{twin}", h=1.0 / h))
    for path in sorted(sdir.glob("*.json")):
        assert run_scenario(path, out_root=tmp_path / "single")[0] == 0
    codes = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(
            target=lambda: codes.append(run_suite(sdir, out_root=tmp_path / "out", threads=4))
        )
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive() and codes == [0]
    memo = [
        json.loads(path.read_text())["solve_memo"]
        for path in sorted((tmp_path / "out").glob("*/manifest.json"))
    ]
    assert sum(m["misses"] for m in memo) == 3 and sum(m["hits"] for m in memo) == 3
    assert artifact_bytes(tmp_path / "out") == artifact_bytes(tmp_path / "single")


def test_main_list_tasks(capsys):
    # Each task's line names its params, the required ones starred.
    assert main(["--list-tasks"]) == 0
    lines = dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines())
    for task, param in [
        ("dirichlet", "data*"),
        ("obstacle", "radial_oracle"),
        ("wiener-probe", "fixed_radius"),
        ("barrier", "rho*"),
        ("degiorgi-instrument", "psi_recursion"),
        ("locality", "window_radius*"),
    ]:
        assert param in lines[task].split(", ")


def test_main_run_and_help(tmp_path, capsys):
    p = write_doc(tmp_path, scenario_doc())
    assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "tiny-dirichlet: pass" in out
    assert main([]) == 2  # no command: help + error exit


@pytest.mark.parametrize("module", ["artifact", "artifact.domain"])
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    # Every reduction of a solve and its coarsest dense solve avoid the
    # multithreaded BLAS, so one and two BLAS threads give the same bits.
    scenario = Path(__file__).resolve().parents[1] / "scenarios" / "s03-harmonic-square.json"
    src = str(Path(artifact.__file__).resolve().parents[1])
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        env.update({var: threads for var in BLAS_THREAD_VARS})
        out = tmp_path / threads
        proc = subprocess.run(
            [sys.executable, "-m", "artifact.cli", "run", str(scenario), "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        reports.append((out / "s03-harmonic-square" / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_console_script_wiring():
    proc = subprocess.run(
        [sys.executable, "-m", "artifact.cli", "--list-tasks"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "wiener-probe" in proc.stdout
