"""The benchmark's own checks, on the workloads at tiny grid spacings.

    python3 -m pytest perfbench/tests -q
"""

import json
from pathlib import Path

import numpy as np
import pytest

from perfbench import gate, workloads
from perfbench.onepass import one_pass
from perfbench.record_reference import record
from perfbench.run import END_TO_END, account, metric_lines
from perfbench.tracer import METRICS, Span, Tracer, layer_metrics, self_times

ROOT = Path(__file__).resolve().parents[2]
SEED = 7


def _leaves(node, prefix=""):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, f"{prefix}{key}.")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, f"{prefix}{i}.")
    else:
        yield prefix.rstrip("."), node


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Per workload: (work dir, scenarios, reference recorded at tiny h)."""
    out = {}
    for workload in ("obstacle-2d-t3", "batch-repeat"):
        work = tmp_path_factory.mktemp(workload)
        reference = record(workload, SEED, work, tiny=True)
        out[workload] = (work, workloads.generate(workload, SEED, tiny=True), reference)
    return out


# -- metric names and units ----------------------------------------------------


def test_benchmark_json_names_every_printed_metric_with_its_unit():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == METRICS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_every_metric_prints_with_its_unit():
    end_to_end = {name: 1.25 + i for i, name in enumerate(END_TO_END)}
    samples = {"wall_s": [2.0, 2.5, 3.0], "setup_s": [0.2] * 7}
    layers = {name: 3.5 + i for i, name in enumerate(METRICS)}
    lines = metric_lines(end_to_end, samples, 1, 8, layers)
    printed = {line.split()[0]: line.split()[1:3] for line in lines}
    expected = {name: [f"{value:.6g}", END_TO_END[name]] for name, value in end_to_end.items()}
    expected["failed_frac"] = ["0.125", "ratio"]
    expected.update({name: [f"{value:.6g}", METRICS[name]] for name, value in layers.items()})
    assert printed == expected
    assert "median of 3" in lines[0]
    untraced = {line.split()[0] for line in metric_lines(end_to_end, samples, 0, 8)}
    assert untraced == set(END_TO_END) | {"failed_frac"}


def test_traced_pass_yields_every_layer_metric(tiny, tmp_path):
    work, scenarios, reference = tiny["batch-repeat"]
    tracer = Tracer()
    result = one_pass(scenarios, work / "inputs", tmp_path, reference, tracer)
    assert result["problems"] == {name: [] for name in scenarios}
    layers = layer_metrics(tracer.spans)
    # run.py adds the two metrics that need more than one pass's spans.
    assert set(layers) | {"cli.bytes_written", "trace.overhead_frac"} == set(METRICS)
    assert all(isinstance(v, (int, float)) and np.isfinite(v) for v in layers.values())
    # b2-degiorgi-t3 repeats b1-obstacle-t3's solve and nothing else repeats.
    assert layers["solver.repeat_solves"] == 1
    assert 0 < layers["solver.repeat_share"] < 1
    assert layers["solver.sweeps_per_refinement"] > 1
    assert layers["levelsets.calls"] > 0 and layers["expr.calls"] > 0


def test_tracer_restores_every_binding():
    from artifact import capacity, cli, monotone, solver
    from artifact._expr import Expression
    from artifact.domain.lattice import GridDomain

    before = (solver.energy_of, monotone.energy, capacity.solve_obstacle,
              cli.run_scenario, dict(cli._EXECUTORS), Expression.__call__,
              GridDomain.nodes_within)
    tracer = Tracer()
    tracer.install()
    assert solver.energy_of is not before[0] and capacity.solve_obstacle is not before[2]
    tracer.restore()
    after = (solver.energy_of, monotone.energy, capacity.solve_obstacle,
             cli.run_scenario, dict(cli._EXECUTORS), Expression.__call__,
             GridDomain.nodes_within)
    assert after == before


# -- seeded inputs -------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_regenerates_identical_inputs(workload, tmp_path):
    first = workloads.write(workloads.generate(workload, SEED), tmp_path / "a")
    again = workloads.write(workloads.generate(workload, SEED), tmp_path / "b")
    other = workloads.write(workloads.generate(workload, SEED + 1), tmp_path / "c")
    assert [p.read_bytes() for p in first] == [p.read_bytes() for p in again]
    assert [p.read_bytes() for p in first] != [p.read_bytes() for p in other]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_varies_only_height_sign_and_affine_data(workload):
    allowed = {"params.m", "params.sign", "params.solve.m", "params.data",
               "params.oracle.expr", "params.level_sets.0.level",
               "params.caccioppoli.0.level", "params.psi_recursion.k0"}
    a = workloads.generate(workload, 1)
    b = workloads.generate(workload, 2)
    assert a.keys() == b.keys()
    for name in a:
        leaves_a = dict(_leaves(a[name][0]))
        leaves_b = dict(_leaves(b[name][0]))
        assert leaves_a.keys() == leaves_b.keys()
        assert {k for k in leaves_a if leaves_a[k] != leaves_b[k]} <= allowed


# -- correctness gate ----------------------------------------------------------


def test_gate_passes_honest_tiny_runs(tiny, tmp_path):
    for workload, (work, scenarios, reference) in tiny.items():
        result = one_pass(scenarios, work / "inputs", tmp_path / workload, reference)
        assert result["problems"] == {name: [] for name in scenarios}


def test_gate_flags_a_flipped_verdict(tiny):
    work, scenarios, reference = tiny["batch-repeat"]
    name = "b3-probe-irregular"
    report = gate.read_report(work / "out", name)
    _, scale, t = scenarios[name]
    assert gate.check_scenario(0, report, scale, t, reference[name]) == []
    flipped = "regular-trend" if report["probe"]["verdict"] != "regular-trend" else "inconclusive"
    report["probe"]["verdict"] = flipped
    problems = gate.check_scenario(0, report, scale, t, reference[name])
    assert any("verdict" in p for p in problems)


def test_gate_flags_an_energy_off_the_reference_and_a_failed_exit(tiny):
    work, scenarios, reference = tiny["batch-repeat"]
    name = "b5-affine-t15"
    report = gate.read_report(work / "out", name)
    _, scale, t = scenarios[name]
    report["solve"]["energy"] *= 1 + 10 * gate.ENERGY_RTOL
    problems = gate.check_scenario(1, report, scale, t, reference[name])
    assert any("energy" in p for p in problems)
    assert "exit code 1" in problems


def test_gate_flags_one_obstacle_node_off_m(tiny, tmp_path, monkeypatch):
    from artifact import cli

    work, scenarios, reference = tiny["obstacle-2d-t3"]
    solve = cli.solve_obstacle

    def off_by_one_node(grid, spec, constraint, **kw):
        fld, rep = solve(grid, spec, constraint, **kw)
        fld.values.ravel()[constraint.indices[0]] += constraint.sign * 1e-3
        return fld, rep

    monkeypatch.setattr(cli, "solve_obstacle", off_by_one_node)
    result = one_pass(scenarios, work / "inputs", tmp_path, reference)
    problems = result["problems"]["obstacle-2d-t3"]
    assert any("equals_m_on_obstacle" in p for p in problems)
    assert "exit code 1" in problems


def test_a_report_that_changes_between_passes_fails_that_scenario():
    passes = [
        {"problems": {"a": [], "b": []}, "report_sha256": {"a": "1", "b": "2"}},
        {"problems": {"a": [], "b": []}, "report_sha256": {"a": "1", "b": "3"}},
    ]
    attempted, failed, problems = account(passes, ["a", "b"])
    assert (attempted, failed) == (4, 1)
    assert problems == ["pass 1 b: report.json differs from the first pass"]


# -- self-time arithmetic ------------------------------------------------------


def _solve(start, end, parent, sweeps, interior, repeat=False):
    return Span("solver.solve_obstacle", start, end, parent,
                {"sweeps": sweeps, "presolve_sweeps": 0, "converged": True,
                 "interior_nodes": interior, "repeat": repeat})


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        Span("cli.run_scenario", 0.0, 10.0),           # 0
        Span("cli.executor", 1.0, 9.0, 0),             # 1
        Span("capacity.wiener_probe", 1.5, 8.5, 1),    # 2
        _solve(2.0, 4.0, 2, sweeps=10, interior=100),  # 3
        Span("monotone.energy", 2.5, 3.0, 3),          # 4
        _solve(4.5, 8.0, 2, sweeps=30, interior=200, repeat=True),  # 5
        Span("solver.residual_breakdown", 5.0, 6.0, 5),  # 6
        Span("monotone.weak_residual", 5.25, 5.75, 6),   # 7
        Span("trace.hook", 9.0, 9.5, 0),               # 8
    ]
    assert self_times(spans) == pytest.approx(
        [10 - 8 - 0.5, 8 - 7, 7 - 2 - 3.5, 2 - 0.5, 0.5, 3.5 - 1, 1 - 0.5, 0.5, 0.5]
    )
    m = layer_metrics(spans)
    assert m["cli.self_s"] == pytest.approx(1.5)
    assert m["capacity.self_s"] == pytest.approx(1.5)
    assert m["solver.self_s"] == pytest.approx(1.5 + 2.5)
    assert m["solver.residual_breakdown_s"] == pytest.approx(1.0)
    assert m["monotone.weak_residual_s"] == pytest.approx(0.5)
    assert m["monotone.energy_s"] == pytest.approx(0.5)
    assert m["solver.sweeps"] == 40
    assert m["solver.node_updates"] == 10 * 100 + 30 * 200
    assert m["solver.node_updates_per_s"] == pytest.approx(7000 / 4.0)
    assert m["solver.sweeps_per_refinement"] == pytest.approx(3.0)
    assert m["solver.repeat_solves"] == 1
    assert m["solver.repeat_share"] == pytest.approx(3.5 / 5.5)
