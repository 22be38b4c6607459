"""Runner behavior: validation, artifacts, determinism, exit codes, suite.

Everything here uses throwaway scenarios on coarse grids so the whole module
stays fast; the shipped scenarios/ directory is exercised by the acceptance
tests.
"""

import csv
import importlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from artifact.cli import (
    ScenarioError,
    load_scenario,
    main,
    run_scenario,
    run_suite,
    validate_scenario,
)


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
    ],
)
def test_validate_scenario_rejects(patch, field):
    doc = scenario_doc()
    doc.update(patch)
    doc = {k: v for k, v in doc.items() if v is not None}
    with pytest.raises(ScenarioError) as err:
        validate_scenario(doc)
    assert err.value.field == field


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
        "python_version", "wall_time_s",
    }
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
        "params": {"solve": {"kind": "dirichlet", "data": "x1"}, "y": [0.0, 0.0], **blocks},
    }


@pytest.mark.parametrize(
    "blocks, field",
    [
        ({"level_sets": [{"radius": 0.2}]}, "params.level_sets[0].level"),
        ({"caccioppoli": [{"level": 0.5, "rho": 0.1}]}, "params.caccioppoli[0].R"),
        ({"psi_recursion": {"r0": 0.25}}, "params.psi_recursion.k0"),
        ({"oscillation": {"r0": 0.25}}, "params.oscillation.K"),
        ({"level_sets": {"level": 0.5, "radius": 0.2}}, "params.level_sets"),
    ],
)
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
    assert code == 1  # worst row wins
    with open(tmp_path / "out" / "summary.csv", newline="") as fh:
        rows = {r["scenario"]: r for r in csv.DictReader(fh)}
    assert rows["bad-instrument"]["result"] == "config-error"
    assert "params.level_sets[0].level" in rows["bad-instrument"]["key_metric"]
    assert rows["good"]["result"] == "pass"


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


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def test_main_list_tasks(capsys):
    assert main(["--list-tasks"]) == 0
    out = capsys.readouterr().out
    for task in ("dirichlet", "obstacle", "wiener-probe", "barrier",
                 "degiorgi-instrument", "locality"):
        assert task in out


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


def test_console_script_wiring():
    proc = subprocess.run(
        [sys.executable, "-m", "artifact.cli", "--list-tasks"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "wiener-probe" in proc.stdout
