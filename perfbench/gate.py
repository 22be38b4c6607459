"""Correctness gate: every scenario of every pass against the recorded reference.

``reference.json`` holds, per workload and scenario, the observations of
``observe`` at scale 1, recorded at the commit that defined the benchmark by
``python3 perfbench/record_reference.py``.  A scenario passes when

* its run exited 0, so its own assertions held (among them the 2% bound on
  the radial-oracle error of obstacle-2d-t3);
* every solve it reports has ``energy_monotone`` true;
* obstacle verifications pass with ``equals_m_on_obstacle`` exact, and every
  probe level's cap verification passes;
* every verdict and flag equals the recorded one;
* energies agree with the reference times scale**t within ``ENERGY_RTOL``,
  and field values with the reference times scale within ``FIELD_RTOL``.

Both tolerances sit far above the gap between two solves that each meet the
1e-8 stopping tolerance, so a solver change at that level still passes.
"""

import json
from pathlib import Path

ENERGY_RTOL = 1e-6
FIELD_RTOL = 1e-4
REFERENCE = Path(__file__).with_name("reference.json")


def load_reference():
    return json.loads(REFERENCE.read_text())


def observe(report, scale, t):
    """Scale-free observations of one report: energies over scale**t,
    field values over scale, verdicts and flags as they are."""
    task = report["task"]
    if task == "obstacle":
        return {
            "energy": report["solve"]["energy"] / scale**t,
            "verification_passed": report["verification"]["passed"],
            "equals_m_on_obstacle": report["verification"]["equals_m_on_obstacle"],
        }
    if task == "degiorgi-instrument":
        level = report["levels"][0]
        return {
            "energy": level["solve"]["energy"] / scale**t,
            "caccioppoli_violation": level["caccioppoli"][0]["violation"],
            "final_sublevel_empty": level["psi_recursion"]["final_sublevel_empty"],
        }
    if task == "wiener-probe":
        probe = report["probe"]
        return {
            "verdict": probe["verdict"],
            "deficit_near": [lev["deficit_near"] / scale for lev in probe["levels"]],
            "levels_verified": all(
                lev["verification"]["residual_ok"]
                and lev["verification"]["equals_height_on_cap"]
                and lev["verification"]["bounds_ok"]
                for lev in probe["levels"]
            ),
        }
    if task == "barrier":
        barrier = report["barrier"]
        return {
            "jj_trend_ok": barrier["jj_trend_ok"],
            "j_away_ok": barrier["j_away_ok"],
            "odd_pair_ok": barrier["odd_pair_ok"],
            "vanish_ladder": [v / scale for v in barrier["vanish_ladder"]],
        }
    if task == "dirichlet":
        return {"energy": report["solve"]["energy"] / scale**t}
    raise ValueError(f"no observations defined for task {task!r}")


def _energy_flags(node):
    """Every ``energy_monotone`` flag anywhere in a report."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "energy_monotone":
                yield value
            else:
                yield from _energy_flags(value)
    elif isinstance(node, list):
        for item in node:
            yield from _energy_flags(item)


def _close(got, want, rtol):
    if isinstance(want, list):
        return len(got) == len(want) and all(_close(g, w, rtol) for g, w in zip(got, want))
    return abs(got - want) <= rtol * abs(want)


def check_scenario(code, report, scale, t, reference):
    """Problems found in one scenario run; an empty list means it passed."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if report is None:
        return problems + ["no report.json"]
    if not all(flag is True for flag in _energy_flags(report)):
        problems.append("energy_monotone is false for a solve")
    try:
        seen = observe(report, scale, t)
    except (KeyError, IndexError, TypeError) as exc:
        return problems + [f"report lacks {exc}"]
    for key, want in reference.items():
        got = seen[key]
        if isinstance(want, (bool, str)):
            if got != want:
                problems.append(f"{key} is {got!r}, reference {want!r}")
        else:
            rtol = ENERGY_RTOL if key == "energy" else FIELD_RTOL
            if not _close(got, want, rtol):
                problems.append(f"{key} {got!r} differs from reference {want!r}")
    return problems


def read_report(out_root, name):
    path = Path(out_root) / name / "report.json"
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
