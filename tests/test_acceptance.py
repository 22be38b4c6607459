"""Acceptance gate: one test per shipped guarantee, tolerances pinned.

The heavy evidence comes from running the shipped scenarios/ directory once
per session (a few minutes, mostly the h=1/128 solves); each criterion then
asserts its own quantitative claim against the generated reports.  Criteria
that need no PDE solve (constants, envelope arithmetic, comparison spot
checks) run directly.

Criterion 15b pins the million-term, log-space decay partial product to its
exact closed form.  Each envelope factor is 1 - c/(k + a) with
c = 1/(16 ln 4) and a = -ln(2 r0)/ln 4, so the per-factor mass is of order
1/k and the product is a Gamma-function ratio that decays like K^(-c): it
tends to zero, but at r0 = 1/8 a million factors still leave 0.5464, and
the product first drops below 1e-2 near K = 10^44.5.
"""

import hashlib
import json
import math
import platform
from pathlib import Path

import numpy as np
import pytest

from artifact import Ball, OperatorSpec, build_grid, verify_comparison
from artifact.cli import run_scenario, run_suite
from artifact.levelsets import constants, decay_partial_product, n0_and_decay

from oracles import partial_product_closed_form

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden_digests.json"


@pytest.fixture(scope="session")
def suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance")
    exit_code = run_suite(SCENARIOS, out_root=out, threads=4)
    reports = {}
    for path in sorted(out.glob("*/report.json")):
        reports[path.parent.name] = json.loads(path.read_text())
    return {"exit": exit_code, "out": out, "reports": reports}


def scenario_tolerance(name):
    return json.loads((SCENARIOS / f"{name}.json").read_text())["tolerance"]


def walk_verifications(node):
    """Yield every embedded obstacle-verification block in a report tree."""
    if isinstance(node, dict):
        if "residual_ok" in node and "bounds_ok" in node:
            yield node
        for value in node.values():
            yield from walk_verifications(value)
    elif isinstance(node, list):
        for value in node:
            yield from walk_verifications(value)


# ---------------------------------------------------------------------------


def test_criterion_01_radial_capacitary_oracle_t3(suite):
    report = suite["reports"]["s01-radial-obstacle-t3"]
    assert report["oracle"]["max_rel_error_pointwise"] <= 0.02
    assert report["verification"]["passed"]


def test_criterion_02_radial_oracle_t_equals_dim(suite):
    report = suite["reports"]["s02-radial-obstacle-t2"]
    assert report["oracle"]["value_at_0_5"]["rel_error"] <= 0.02
    assert report["verification"]["passed"]


def test_criterion_03_harmonic_dirichlet_square(suite):
    report = suite["reports"]["s03-harmonic-square"]
    assert report["oracle"]["max_error"] <= 1e-2
    assert report["solve"]["converged"]


def test_criterion_04_affine_exactness(suite):
    for name in ("s04-affine-t15", "s04-affine-t20", "s04-affine-t30"):
        report = suite["reports"][name]
        assert report["oracle"]["max_error"] <= 10.0 * scenario_tolerance(name), name


def test_criterion_05_maximum_principle_and_contraction():
    grid = build_grid(Ball([0.0, 0.0], 0.4), 1.0 / 10.0)
    rng = np.random.default_rng(20260817)
    for t in (1.5, 3.0):
        spec = OperatorSpec(kind="p_laplace", t=t)
        for _ in range(10):
            c = rng.uniform(-1.0, 1.0, size=6)
            lo = f"{c[0]} + {c[1]}*x1 + {c[2]}*x2"
            hi = f"{c[3]} + {c[4]}*x1 + {c[5]}*x2"
            rep = verify_comparison(grid, spec, lo, hi, tol=1e-8)
            assert rep["solves_converged"], (t, lo, hi)
            assert rep["bounds_low_ok"] and rep["bounds_high_ok"], (t, lo, hi)
            assert rep["contraction_ok"], (t, lo, hi)
            assert rep["passed"], (t, lo, hi)


def test_criterion_06_obstacle_bounds_suite_wide(suite):
    seen = 0
    for name, report in suite["reports"].items():
        for ver in walk_verifications(report):
            seen += 1
            assert ver["bounds_ok"], (name, ver)
            assert ver["residual_ok"], (name, ver)
            pinned_exact = ver.get(
                "equals_m_on_obstacle", ver.get("equals_height_on_cap")
            )
            assert pinned_exact is True, (name, ver)
    assert seen >= 10  # obstacle tasks plus every converged probe level


def test_criterion_07_theta_invariants():
    for t in (1.1, 1.5, 2.0, 3.0, 4.5):
        for dim in (2, 3, 4):
            rep = constants(t, dim)
            theta = rep.theta
            assert abs(theta * theta - theta - t / dim) <= 1e-12
            if t < dim:
                theta1 = rep.theta1
                assert abs(theta1 * theta1 - theta1 - t / (dim - t)) <= 1e-12
            else:
                assert rep.theta1 is None


def test_criterion_08_caccioppoli_constant_stability(suite):
    report = suite["reports"]["s08-degiorgi-radial"]
    assert report["caccioppoli_stability_ratio"] <= 2.0
    for level in report["levels"]:
        for block in level["caccioppoli"]:
            assert block["violation"] is False, level["h"]


def test_criterion_09_probe_regular_trend(suite):
    probe = suite["reports"]["s09-probe-regular"]["probe"]
    assert probe["verdict"] == "regular-trend"
    assert probe["criteria"]["omega_ratio_finest"] <= 0.1


def test_criterion_10_probe_irregular_trend(suite):
    probe = suite["reports"]["s10-probe-irregular"]["probe"]
    assert probe["verdict"] == "irregular-trend"
    deficits = probe["criteria"]["deficit_fixed_by_level"]
    assert all(d >= 0.25 for d in deficits), deficits


def test_criterion_11_slit_tip_high_exponent(suite):
    probe = suite["reports"]["s11-slit-tip-t3"]["probe"]
    assert probe["verdict"] == "regular-trend"


def test_criterion_12_cone_vertex_and_twisted_cone(suite):
    for name in ("s12-cone-vertex", "s12-twisted-cone"):
        probe = suite["reports"][name]["probe"]
        assert probe["verdict"] == "regular-trend", name


def test_criterion_13_barrier_agrees_with_probe(suite):
    regular = suite["reports"]["s13-barrier-regular"]["barrier"]
    irregular = suite["reports"]["s13-barrier-irregular"]["barrier"]
    assert regular["jj_trend_ok"] and regular["j_away_ok"]
    assert not irregular["jj_trend_ok"]
    probe_regular = suite["reports"]["s09-probe-regular"]["probe"]["verdict"]
    probe_irregular = suite["reports"]["s10-probe-irregular"]["probe"]["verdict"]
    assert regular["jj_trend_ok"] == (probe_regular == "regular-trend")
    assert irregular["jj_trend_ok"] == (probe_irregular == "regular-trend")


def test_criterion_14_locality_identical_verdicts(suite):
    loc = suite["reports"]["s14-locality-slit"]["locality"]
    assert loc["agree"] is True
    assert loc["verdict_a"] == loc["verdict_b"]
    assert loc["verdict_a"] == "regular-trend"


def test_criterion_15a_envelope_exact_constants():
    rep = n0_and_decay([1.0], c1=1.0, r0=0.1, K=1, omega=[1.0, math.nan], t=2.0)
    (row,) = rep["rows"]
    assert row["n0"] == 1
    assert row["eta"] == 0.25
    assert row["envelope"] == 15.0 / 16.0


def test_criterion_15b_decay_partial_product_small():
    p5 = decay_partial_product(10**5, 0.125)
    p6 = decay_partial_product(10**6, 0.125)
    # Two lgammas near 1e6 differ by a few parts in 1e9; 1e-8 is the honest
    # bound.  The pin fails for factors 1 - eta_k (84% lower) or an index
    # range shifted by one (4.5% lower).
    assert p6 == pytest.approx(partial_product_closed_form(10**6, 0.125), rel=1e-8)
    assert 0.0 < p6 < p5


def test_criterion_16_deterministic_report(suite):
    first = (suite["out"] / "s09-probe-regular" / "report.json").read_bytes()
    rerun_root = suite["out"] / "rerun"
    code, _ = run_scenario(SCENARIOS / "s09-probe-regular.json", out_root=rerun_root)
    assert code == 0
    second = (rerun_root / "s09-probe-regular" / "report.json").read_bytes()
    assert first == second
    # A single run has no solve memo: the rerun solved every level afresh.
    rerun = json.loads((rerun_root / "s09-probe-regular" / "manifest.json").read_text())
    assert rerun["solve_memo"]["hits"] == 0 and rerun["solve_memo"]["misses"] > 0


def test_suite_artifacts_match_their_golden_digests(suite):
    # Every report.json and per-scenario CSV of the shipped suite, byte for
    # byte, against digests made at an earlier commit: a change to what the
    # program computes shows here even where every bound above still holds.
    golden = json.loads(GOLDEN.read_text())
    out = suite["out"]
    paths = sorted(out.glob("*/report.json")) + sorted(out.glob("*/*.csv"))
    got = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in paths
    }
    moved = sorted(
        name for name in golden["files"].keys() | got.keys()
        if golden["files"].get(name) != got.get(name)
    )
    versions = {"numpy": np.__version__, "python": platform.python_version()}
    same = versions == golden["versions"]
    assert not moved, (
        f"{len(moved)} of {len(golden['files'])} artifacts differ from their golden digests "
        f"({', '.join(moved)}); made under numpy {versions['numpy']} and Python "
        f"{versions['python']}, "
        + ("the digests' versions" if same else f"not the digests' {golden['versions']}")
    )


def _refuse_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_reports_are_strict_json(suite):
    # Every report and manifest parses with NaN and Infinity refused (RFC
    # 8259 has neither); a probe level whose observation window holds no
    # nodes records its omega as null.
    paths = sorted(suite["out"].glob("*/report.json"))
    paths += sorted(suite["out"].glob("*/manifest.json"))
    assert len(paths) == 2 * len(list(SCENARIOS.glob("*.json")))
    for path in paths:
        json.loads(path.read_text(), parse_constant=_refuse_constant)
    levels = suite["reports"]["s09-probe-regular"]["probe"]["levels"]
    assert levels[0]["omega"][2] is None


def test_suite_memo_serves_exactly_the_repeated_solves(suite):
    # s08 instruments s01's h = 1/128 obstacle solve, and s14's region A
    # re-probes s11's slit region on its two grids.  Which scenario of a
    # pair runs the solve and which gets the hit depends on the threads.
    hits = {
        path.parent.name: json.loads(path.read_text())["solve_memo"]["hits"]
        for path in suite["out"].glob("*/manifest.json")
    }
    assert len(hits) == len(list(SCENARIOS.glob("*.json")))
    assert hits.pop("s01-radial-obstacle-t3") + hits.pop("s08-degiorgi-radial") == 1
    assert hits.pop("s11-slit-tip-t3") + hits.pop("s14-locality-slit") == 2
    assert set(hits.values()) == {0}
