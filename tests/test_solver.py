"""Solver checks: Dirichlet relaxation, obstacle clamping, comparison runs.

The t = 2 case has an exact reference (dense linear solve in oracles.py),
and so do small t != 2 problems (dense damped Newton in oracles.py);
nonlinear cases are also checked through structure that survives
discretization exactly: affine data, scaling homogeneity, sign symmetry, and
the maximum/comparison principles.
"""

import itertools
import json
import math
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from artifact import (
    Ball,
    BoundaryData,
    Box,
    Difference,
    Field,
    FlatCone,
    ObstacleConstraint,
    OperatorSpec,
    build_grid,
    energy,
    residual_breakdown,
    shape_from_dict,
    sigma_grid_for,
    solve_dirichlet,
    solve_obstacle,
    verify_comparison,
    weak_residual,
)
from artifact import monotone, solver
from artifact.domain import lattice
from artifact.domain.lattice import BOUNDARY, EXTERIOR, INTERIOR
from artifact.monotone import inner, offset_slices
from artifact.multigrid import (
    _BLOCK_NODES,
    _MIN_COARSE_DIM,
    _coarse_columns,
    _coarse_free,
    _edge_square_sum,
    _galerkin_product,
    _halved_axes,
    _inverse_cholesky,
    _laplacian,
    _Multigrid,
    _parity_classes,
    _PlainLevel,
    _prolong,
    _restrict,
    _StencilLevel,
)
from artifact.solver import (
    _MAX_CYCLES,
    _SECANT_STEPS,
    _SECANT_STOP,
    _ColorWorkspace,
    _NewtonLevel,
    _relax,
    obstacle_verification,
)

from oracles import (
    damped_newton_minimizer,
    dense_inverse_solve,
    envelope_inverse_cholesky,
    full_column_inverse_cholesky,
    full_size_cycle,
    gather_obstacle_extremes,
    gather_residual_split,
    gather_sum_sweep,
    held_nbytes,
    peak_above_entry,
    quadratic_minimizer,
    seven_point_solution,
    stacked_weak_residual,
    tobytes_solve_key,
    zero_padded_laplacian,
)


@pytest.fixture(scope="module")
def small_disk():
    return build_grid(Ball([0.0, 0.0], 0.4), 1.0 / 10.0)


def test_dirichlet_t2_matches_direct_linear_solve(small_disk):
    grid = small_disk
    spec = OperatorSpec(kind="p_laplace", t=2.0)
    data = BoundaryData("sin(3*x1) + x2*x2")
    fld, rep = solve_dirichlet(grid, spec, data, tol=1e-11)
    assert rep.converged
    boundary = (grid.labels == BOUNDARY).ravel()
    exact = quadratic_minimizer(grid, spec, data.evaluate(grid.points()[boundary]))
    live = grid.labels != EXTERIOR
    assert np.max(np.abs(fld.values - exact)[live]) < 1e-8


@pytest.mark.parametrize("t", [1.5, 2.0, 3.0])
def test_affine_data_reproduced_exactly(small_disk, t):
    grid = small_disk
    spec = OperatorSpec(kind="p_laplace", t=t)
    fld, rep = solve_dirichlet(grid, spec, "0.7*x1 - 0.2*x2 + 0.1", tol=1e-10)
    assert rep.converged
    pts = grid.points()
    target = 0.7 * pts[:, 0] - 0.2 * pts[:, 1] + 0.1
    live = (grid.labels != EXTERIOR).ravel()
    err = np.abs(fld.values.ravel() - target)[live]
    assert np.max(err) < 1e-8


def test_harmonic_quadratic_on_box_is_discrete_exact():
    # x^2 - y^2 has exactly zero five-point Laplacian, and on a box every
    # interior node sees the full stencil, so the solve should land on the
    # data itself up to iteration tolerance.
    grid = build_grid(Box([0.0, 0.0], [1.0, 1.0]), 1.0 / 12.0)
    spec = OperatorSpec(kind="p_laplace", t=2.0)
    fld, rep = solve_dirichlet(grid, spec, "x1*x1 - x2*x2", tol=1e-10)
    assert rep.converged
    pts = grid.points()
    target = pts[:, 0] ** 2 - pts[:, 1] ** 2
    live = (grid.labels != EXTERIOR).ravel()
    assert np.max(np.abs(fld.values.ravel() - target)[live]) < 1e-7


@pytest.mark.parametrize("t", [1.5, 3.0])
def test_parity_batch_is_exactly_sequential_relaxation(small_disk, monkeypatch, t):
    # Nodes of one parity share no cell, so one vectorized update of a
    # parity class must equal visiting its nodes one at a time, in order:
    # the same field bit for bit, the same cycles and guard rejections.  The
    # batches are the parity classes of each level's free nodes.
    spec = OperatorSpec(kind="p_laplace", t=t)
    batched, rep_b = solve_dirichlet(small_disk, spec, "x1*x2", tol=1e-9)
    monkeypatch.setattr(
        "artifact.multigrid._parity_classes",
        lambda mask: [idx[i : i + 1] for idx in _parity_classes(mask) for i in range(idx.size)],
    )
    single, rep_s = solve_dirichlet(small_disk, spec, "x1*x2", tol=1e-9)
    assert rep_b.converged and rep_b.notes["colors"] == 4
    assert rep_s.notes["colors"] == np.count_nonzero(small_disk.labels == INTERIOR)
    assert np.array_equal(single.values, batched.values)
    assert rep_s.iterations == rep_b.iterations
    assert rep_s.energy == rep_b.energy
    assert rep_s.notes["presolve"] == rep_b.notes["presolve"]
    for key in ("guard_fallbacks", "energy_checks"):
        assert rep_s.notes[key] == rep_b.notes[key], key


def test_solution_respects_data_range(small_disk):
    grid = small_disk
    spec = OperatorSpec(kind="p_laplace", t=1.5)
    fld, rep = solve_dirichlet(grid, spec, "0.5*sin(7*x1*x2)", tol=1e-9)
    assert rep.converged
    interior = grid.labels == INTERIOR
    assert fld.values[interior].max() <= 0.5 + 1e-8
    assert fld.values[interior].min() >= -0.5 - 1e-8


def test_nonfinite_boundary_data_rejected(small_disk):
    spec = OperatorSpec(kind="p_laplace", t=2.0)
    bad = lambda pts: np.full(np.asarray(pts).shape[0], math.nan)  # noqa: E731
    with pytest.raises(ValueError):
        solve_dirichlet(small_disk, spec, bad)


def test_boundary_data_sources():
    pts = np.array([[0.0, 0.0], [1.0, 2.0]])
    assert BoundaryData(2.5).evaluate(pts) == pytest.approx([2.5, 2.5])
    assert BoundaryData(np.array(2.5)).evaluate(pts) == pytest.approx([2.5, 2.5])
    assert BoundaryData("x1 + x2").evaluate(pts) == pytest.approx([0.0, 3.0])
    assert BoundaryData(lambda p: p[:, 0]).evaluate(pts) == pytest.approx([0.0, 1.0])
    wrapped = BoundaryData(BoundaryData("x1"))
    assert wrapped.evaluate(pts) == pytest.approx([0.0, 1.0])


def test_obstacle_constraint_validation(small_disk):
    grid = small_disk
    with pytest.raises(ValueError):
        ObstacleConstraint(np.array([0]), height=0.0)
    with pytest.raises(ValueError):
        ObstacleConstraint(np.array([0]), height=1.0, sign=2)
    # Node 0 is the bounding-box corner: exterior, so not a legal obstacle node.
    bad = ObstacleConstraint(np.array([0]), height=1.0)
    with pytest.raises(ValueError):
        bad.validate_on(grid)
    good = ObstacleConstraint.from_shape(grid, Ball([0.0, 0.0], 0.15), height=1.0)
    assert good.indices.size > 0
    good.validate_on(grid)


def test_empty_obstacle_returns_zero_field(small_disk):
    grid = small_disk
    spec = OperatorSpec(kind="p_laplace", t=2.0)
    empty = ObstacleConstraint.from_shape(grid, Ball([9.0, 9.0], 0.01), height=1.0)
    assert empty.indices.size == 0
    fld, rep = solve_obstacle(grid, spec, empty)
    assert rep.converged and rep.notes["empty_obstacle"]
    assert np.all(fld.values == 0.0)


@pytest.mark.parametrize("t", [1.5, 3.0])
def test_obstacle_solution_structure(small_disk, t):
    grid = small_disk
    spec = OperatorSpec(kind="p_laplace", t=t)
    cons = ObstacleConstraint.from_shape(grid, Ball([0.0, 0.0], 0.15), height=1.0)
    fld, rep = solve_obstacle(grid, spec, cons, tol=1e-9)
    assert rep.converged
    # Pinned nodes sit exactly at the obstacle height; everything lives in
    # [0, m] and the normalized residual splits cleanly.
    assert np.all(fld.values.ravel()[cons.indices] == 1.0)
    interior = grid.labels == INTERIOR
    assert fld.values[interior].min() >= -1e-12
    assert fld.values[interior].max() <= 1.0 + 1e-12
    down = residual_breakdown(spec, grid, fld.values, cons)
    assert down["pinned_count"] >= 1
    assert down["combined"] <= 1e-9 * 1.0001
    # An unrelaxed feasible field has visible free residual.
    raw = np.zeros(grid.dims)
    raw.ravel()[cons.indices] = 1.0
    assert residual_breakdown(spec, grid, raw, cons)["free_max"] > 1e-3


def test_obstacle_scaling_homogeneity(small_disk):
    # For the power-law operator the minimizer scales linearly with the
    # obstacle height, so u(2m) = 2 u(m) up to twice the solve tolerance.
    grid = small_disk
    spec = OperatorSpec(kind="p_laplace", t=3.0)
    tol = 1e-10
    c1 = ObstacleConstraint.from_shape(grid, Ball([0.0, 0.0], 0.15), height=1.0)
    c2 = ObstacleConstraint.from_shape(grid, Ball([0.0, 0.0], 0.15), height=2.0)
    u1, _ = solve_obstacle(grid, spec, c1, tol=tol)
    u2, _ = solve_obstacle(grid, spec, c2, tol=tol)
    assert np.max(np.abs(u2.values - 2.0 * u1.values)) < 50 * tol


def test_obstacle_sign_symmetry(small_disk):
    grid = small_disk
    spec = OperatorSpec(kind="p_laplace", t=1.5)
    tol = 1e-10
    up = ObstacleConstraint.from_shape(grid, Ball([0.1, 0.0], 0.12), 1.0, sign=1)
    dn = ObstacleConstraint.from_shape(grid, Ball([0.1, 0.0], 0.12), 1.0, sign=-1)
    upos, _ = solve_obstacle(grid, spec, up, tol=tol)
    uneg, _ = solve_obstacle(grid, spec, dn, tol=tol)
    assert np.max(np.abs(uneg.values + upos.values)) < 50 * tol


def test_obstacle_energy_grows_with_obstacle_set(small_disk):
    grid = small_disk
    spec = OperatorSpec(kind="p_laplace", t=2.0)
    reps = []
    for radius in (0.1, 0.18, 0.26):
        cons = ObstacleConstraint.from_shape(grid, Ball([0.0, 0.0], radius), 1.0)
        _, rep = solve_obstacle(grid, spec, cons, tol=1e-9)
        assert rep.converged
        assert "presolve" not in rep.notes
        reps.append(rep.energy)
    assert reps[0] <= reps[1] + 1e-12 <= reps[2] + 2e-12
    assert reps[0] > 0.0


def test_solve_report_serialization(small_disk):
    spec = OperatorSpec(kind="p_laplace", t=2.0)
    _, rep = solve_dirichlet(small_disk, spec, 1.0, tol=1e-8)
    out = rep.to_dict()
    assert "wall_time_s" not in out
    assert out["converged"] is True


@pytest.mark.parametrize("t", [1.5, 3.0])
def test_comparison_holds_for_random_constant_pairs(small_disk, t):
    grid = small_disk
    spec = OperatorSpec(kind="p_laplace", t=t)
    rng = np.random.default_rng(42 + int(10 * t))
    for _ in range(3):
        lo, hi = np.sort(rng.uniform(-1.0, 1.0, size=2))
        rep = verify_comparison(grid, spec, float(lo), float(hi), tol=1e-8)
        assert rep["passed"], rep
        assert rep["data_ordered"] and rep["order_ok"]


def test_comparison_contraction_without_order(small_disk):
    grid = small_disk
    spec = OperatorSpec(kind="p_laplace", t=3.0)
    rep = verify_comparison(grid, spec, "0.4*x1", "0.4*x2", tol=1e-8)
    assert rep["data_ordered"] is False
    assert rep["order_ok"] is None
    assert rep["contraction_ok"]
    assert rep["passed"]


# ---------------------------------------------------------------------------
# The local slice of the nonlinear Gauss-Seidel sweep.
# ---------------------------------------------------------------------------

SLICE_LAWS = [("p_laplace", 1.5), ("p_laplace", 3.0), ("regularized", 3.0)]


def _color_slices(grid, values):
    """(workspace, faces, fixed) of every parity class for a field."""
    uflat = values.ravel()
    for idx in _parity_classes(grid.labels == INTERIOR):
        ws = _ColorWorkspace(grid, idx)
        faces, fixed = ws.gather(uflat)
        yield ws, faces, fixed


def _central_differences(ws, spec, s, faces, fixed, step):
    f = lambda x: ws.slice_value(spec, x, faces, fixed)  # noqa: E731
    up, mid, down = f(s + step), f(s), f(s - step)
    return (up - down) / (2 * step), (up - 2 * mid + down) / step**2


@pytest.mark.parametrize("kind,t", SLICE_LAWS)
def test_slice_derivatives_match_central_differences(small_disk, kind, t):
    spec = OperatorSpec(kind=kind, t=t)
    rng = np.random.default_rng(11)
    values = rng.uniform(-1.0, 1.0, small_disk.dims)
    for ws, faces, fixed in _color_slices(small_disk, values):
        lo, hi = faces.min(axis=0), faces.max(axis=0)
        inner = lo + rng.uniform(0.1, 0.9, lo.size) * (hi - lo)
        # A zero face difference: s sits exactly on a neighbour value.
        on_face = faces[rng.integers(0, faces.shape[0])]
        for s in (inner, on_face):
            fp, fpp, _ = ws.derivatives(spec, s, faces, fixed)
            d1, d2 = _central_differences(ws, spec, s, faces, fixed, 1e-4)
            assert np.max(np.abs(fp - d1)) <= 1e-6 * np.max(np.abs(d1))
            assert np.all(fpp > 0)
            assert np.max(np.abs(fpp - d2) / fpp) <= 1e-5


def test_slice_curvature_is_floored_on_flat_data(small_disk):
    # On constant data every term has g = 0: the slope is 0, the value is
    # W(0) = 0, and at t < 2 the curvature is the floored one,
    # phi(_EPS_FLOOR) (N 2^N + 2N 2^{N-1}) / h^2, finite and positive.
    spec = OperatorSpec(kind="p_laplace", t=1.5)
    values = np.full(small_disk.dims, 0.3)
    h = small_disk.h
    for ws, faces, fixed in _color_slices(small_disk, values):
        s = np.full(faces.shape[1], 0.3)
        fp, fpp, fv = ws.derivatives(spec, s, faces, fixed)
        assert np.all(fp == 0.0)
        assert np.all(fv == 0.0)
        want = 16 * monotone._EPS_FLOOR ** (spec.t - 2.0) / h**2
        assert fpp == pytest.approx(np.full_like(fpp, want), rel=1e-12)


def _one_newton_step(ws, spec, start, faces, fixed):
    """The bracketed Newton-or-bisection step from ``start``, and f(start)."""
    fp, fpp, f_start = ws.derivatives(spec, start, faces, fixed)
    lo = np.where(fp < 0, start, faces.min(axis=0))
    hi = np.where(fp > 0, start, faces.max(axis=0))
    newton = start - fp / fpp
    return np.where((newton >= lo) & (newton <= hi), newton, 0.5 * (lo + hi)), f_start


@pytest.mark.parametrize("kind,t", SLICE_LAWS)
def test_first_newton_pass_gives_the_guard_value(small_disk, kind, t):
    # The Newton pass at the clipped start supplies f(start) bit for bit,
    # and the guard compares the step's slice value against exactly that:
    # where clipping moved s_old, not against f(s_old), which is no lower.
    spec = OperatorSpec(kind=kind, t=t)
    rng = np.random.default_rng(12)
    values = rng.uniform(-1.0, 1.0, small_disk.dims)
    for ws, faces, fixed in _color_slices(small_disk, values):
        lo, hi = faces.min(axis=0), faces.max(axis=0)
        s_old = rng.uniform(lo - 0.2, hi + 0.2)
        start = np.clip(s_old, lo, hi)
        moved = start != s_old
        assert moved.any() and not moved.all()
        step, f_start = _one_newton_step(ws, spec, start, faces, fixed)
        assert np.array_equal(f_start, ws.slice_value(spec, start, faces, fixed))
        assert np.all(f_start[moved] <= ws.slice_value(spec, s_old, faces, fixed)[moved])
        keep = ws.slice_value(spec, step, faces, fixed) <= f_start
        out = ws.update(spec, s_old, faces, fixed)
        assert np.array_equal(out, np.where(keep, step, start))
        # Random data almost never rejects a step from a clipped start, but
        # a NaN slice does: every other node keeps its clipped start.
        fixed[:, ::2] = np.nan
        out = ws.update(spec, s_old, faces, fixed)
        assert np.array_equal(out[::2], start[::2])
        assert np.array_equal(out[1::2], np.where(keep, step, start)[1::2])


def _bisection_minimizer(ws, spec, faces, fixed):
    lo, hi = faces.min(axis=0), faces.max(axis=0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fp, _, _ = ws.derivatives(spec, mid, faces, fixed)
        hi = np.where(fp > 0, mid, hi)
        lo = np.where(fp > 0, lo, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("sign", [0, 1, -1])
@pytest.mark.parametrize("kind,t", SLICE_LAWS)
def test_guarded_single_newton_step(small_disk, kind, t, sign):
    # A node update is one Newton step from start = clip(s_old, lo, hi).
    # It stays where the slice does not rise above f(start); every other
    # node keeps start.  Either way the node stays in its bracket and its
    # slice does not rise above f(s_old).  Half the nodes start anywhere
    # around their bracket, where the step is kept; half start within 1e-9
    # of their minimizer, where the slice is flat to rounding and the guard
    # rejects some steps.  With an obstacle (sign +-1) the batches are the
    # parity classes of the free nodes, and the obstacle nodes among their
    # neighbours keep +-m.
    spec = OperatorSpec(kind=kind, t=t)
    rng = np.random.default_rng(14)
    free = small_disk.labels == INTERIOR
    cons = None
    if sign:
        cons = ObstacleConstraint.from_shape(small_disk, Ball([0.0, 0.0], 0.15), 0.3, sign)
        free.ravel()[cons.indices] = False
    rejected = updated = 0
    for _ in range(4):
        uflat = rng.uniform(-1.0, 1.0, small_disk.dims).ravel()
        if sign:
            uflat[cons.indices] = sign * 0.3
        for idx in _parity_classes(free):
            ws = _ColorWorkspace(small_disk, idx)
            faces, fixed = ws.gather(uflat)
            lo, hi = faces.min(axis=0), faces.max(axis=0)
            near = _bisection_minimizer(ws, spec, faces, fixed)
            near += 1e-9 * (hi - lo) * rng.uniform(-1.0, 1.0, idx.size)
            s_old = np.where(
                rng.uniform(size=idx.size) < 0.5, rng.uniform(lo - 0.2, hi + 0.2), near
            )
            start = np.clip(s_old, lo, hi)
            step, f_start = _one_newton_step(ws, spec, start, faces, fixed)
            reject = ~(ws.slice_value(spec, step, faces, fixed) <= f_start)
            out = ws.update(spec, s_old, faces, fixed)
            assert np.all((lo <= out) & (out <= hi))
            f_out = ws.slice_value(spec, out, faces, fixed)
            assert np.all(f_out <= ws.slice_value(spec, s_old, faces, fixed))
            assert np.array_equal(out[~reject], step[~reject])
            assert np.array_equal(out[reject], start[reject])
            assert ws.guard_fallbacks == np.count_nonzero(reject)
            uflat[idx] = out
            rejected += ws.guard_fallbacks
            updated += idx.size
        if sign:
            assert np.all(uflat[cons.indices] == sign * 0.3)
    assert 0 < rejected < updated


@pytest.fixture(scope="module")
def tight_t3_obstacle():
    """The h = 1/32, t = 3, m = 1 disk obstacle and its tol = 1e-11 field."""
    grid = build_grid(Ball([0.0, 0.0], 1.0), 1.0 / 32.0)
    spec = OperatorSpec(kind="p_laplace", t=3.0)
    cons = ObstacleConstraint.from_shape(grid, Ball([0.0, 0.0], 0.25), 1.0)
    ref, rep = solve_obstacle(grid, spec, cons, tol=1e-11)
    assert rep.converged
    return grid, spec, ref.values


@pytest.mark.parametrize("sign", [1, -1])
def test_single_step_obstacle_solve_is_tol_close(tight_t3_obstacle, sign):
    # The guard rejects some one-step updates, the energy never rises, and
    # the field is as close to a tol = 1e-11 solve as a tol = 1e-8 solve
    # should be.  The operator is odd, so the sign -1 answer is -ref.
    grid, spec, ref = tight_t3_obstacle
    cons = ObstacleConstraint.from_shape(grid, Ball([0.0, 0.0], 0.25), 1.0, sign=sign)
    fld, rep = solve_obstacle(grid, spec, cons, tol=1e-8)
    assert rep.converged
    assert rep.notes["guard_fallbacks"] > 0
    assert rep.notes["energy_monotone"] is True
    assert np.all(fld.values.ravel()[cons.indices] == sign * 1.0)
    assert np.max(np.abs(fld.values - sign * ref)) <= 1e-7


@pytest.mark.parametrize("sign", [1, -1])
def test_t3_obstacle_solve_keeps_invariants(sign):
    grid = build_grid(Ball([0.0, 0.0], 1.0), 1.0 / 32.0)
    spec = OperatorSpec(kind="p_laplace", t=3.0)
    cons = ObstacleConstraint.from_shape(grid, Ball([0.0, 0.0], 0.25), 0.8, sign=sign)
    tol = 1e-8
    fld, rep = solve_obstacle(grid, spec, cons, tol=tol)
    assert rep.converged
    assert rep.notes["energy_monotone"] is True
    assert np.all(fld.values.ravel()[cons.indices] == sign * 0.8)
    # The t = 2 presolve only moves the start: the answer is the cold
    # solve's from the +-m start, to solver tolerance.
    assert rep.notes["presolve"]["converged"] and rep.notes["presolve"]["iterations"] > 0
    ver = obstacle_verification(spec, grid, fld.values, cons, tol)
    assert ver["residual_ok"] and ver["bounds_ok"] and ver["equals_m_on_obstacle"]
    cold = np.zeros(grid.dims)
    cold.ravel()[cons.indices] = sign * 0.8
    cold_rep = _relax(grid, spec, cold, cons, tol, _MAX_CYCLES)
    assert cold_rep.converged
    assert np.max(np.abs(fld.values - cold)) <= 10 * tol


@pytest.fixture(scope="module")
def sweep_problem():
    grid = build_grid(Ball([0.0, 0.0], 1.0), 1.0 / 32.0)
    cons = ObstacleConstraint.from_shape(grid, Ball([0.0, 0.0], 0.25), 1.0)
    return grid, cons


@pytest.mark.parametrize("t", [2.0, 3.0])
def test_one_sweep_benchmark(benchmark, sweep_problem, t):
    # One pass of _relax (plus its energy and residual reads) on the
    # h = 1/32 disk, from a field 20 passes into the solve: one V-cycle at
    # either t, at t = 3 with Newton sweeps and a line-searched correction
    # on the finest level.
    grid, cons = sweep_problem
    spec = OperatorSpec(kind="p_laplace", t=t)
    start = np.zeros(grid.dims)
    start.ravel()[cons.indices] = 1.0
    _relax(grid, spec, start, cons, 1e-8, 20)

    def one_sweep(values):
        return _relax(grid, spec, values, cons, 1e-8, 1)

    rep = benchmark.pedantic(
        one_sweep, setup=lambda: ((start.copy(),), {}), rounds=5, iterations=1
    )
    assert rep.iterations == 1
    assert rep.notes["energy_monotone"] is True


def test_energy_residual_benchmark(benchmark):
    # One energy and one weak residual at t = 2 on a 3D ball grid of
    # 39^3 = 59,319 nodes, the checks _relax runs between sweeps.
    grid = build_grid(Ball([0.0, 0.0, 0.0], 1.0), 1.0 / 18.0)
    assert grid.node_count() == 39**3
    spec = OperatorSpec(kind="p_laplace", t=2.0)
    rng = np.random.default_rng(2)
    fld = Field(grid, rng.standard_normal(grid.dims))

    def checks():
        return energy(spec, fld), weak_residual(spec, fld)

    e, res = benchmark.pedantic(checks, rounds=3, iterations=1, warmup_rounds=1)
    assert math.isfinite(e) and e > 0.0
    assert np.all(res.values[grid.labels != INTERIOR] == 0.0)


# ---------------------------------------------------------------------------
# The multilevel t = 2 solve.
# ---------------------------------------------------------------------------

# (ball, h, Dirichlet data, obstacle ball radius) of the exact-reference cases.
T2_CASES = {
    "disk": (Ball([0.0, 0.0], 1.0), 1.0 / 16.0, "sin(3*x1) + x2*x2", 0.25),
    "ball": (Ball([0.0, 0.0, 0.0], 1.0), 1.0 / 6.0, "sin(3*x1) + x2*x2 - x3", 0.3),
}


@pytest.mark.parametrize("sign", [0, 1, -1])
@pytest.mark.parametrize("case", sorted(T2_CASES))
def test_multilevel_t2_solve_matches_dense_seven_point_solve(case, sign):
    # Dirichlet (sign 0) and obstacle problems of both signs against one
    # dense solve of the 5/7-point system on the free nodes, obstacle nodes
    # held at +-m.  The obstacle answer must also verify as one: bounds,
    # exact +-m and a one-sided residual on the obstacle.
    shape, h, data, radius = T2_CASES[case]
    grid = build_grid(shape, h)
    spec = OperatorSpec(kind="p_laplace", t=2.0)
    tol = 1e-8
    free = grid.labels == INTERIOR
    if sign:
        cons = ObstacleConstraint.from_shape(grid, Ball([0.0] * grid.dim, radius), 0.7, sign)
        fld, rep = solve_obstacle(grid, spec, cons, tol=tol)
        start = np.zeros(grid.dims)
        start.ravel()[cons.indices] = sign * 0.7
        free.ravel()[cons.indices] = False
        assert np.all(fld.values.ravel()[cons.indices] == sign * 0.7)
        ver = obstacle_verification(spec, grid, fld.values, cons, tol)
        assert ver["equals_m_on_obstacle"] and ver["bounds_ok"] and ver["residual_ok"]
    else:
        fld, rep = solve_dirichlet(grid, spec, data, tol=tol)
        start = fld.values.copy()
    assert rep.converged and rep.notes["energy_monotone"] is True
    assert rep.notes["grid_levels"] >= 2 and "omega" not in rep.notes
    exact = seven_point_solution(start, free)
    live = grid.labels != EXTERIOR
    assert np.max(np.abs(fld.values - exact)[live]) <= 10 * tol


def _junk_exterior_problem(dim, seed):
    """A ball grid with a ball obstacle and random values, +-inf and NaN at
    exterior nodes."""
    grid = build_grid(Ball([0.1] * dim, 0.9), 1.0 / 9.0 if dim == 3 else 1.0 / 24.0)
    cons = ObstacleConstraint.from_shape(grid, Ball([0.0] * dim, 0.3), 1.0)
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1.0, 1.0, grid.dims)
    exterior = grid.labels == EXTERIOR
    values[exterior] = rng.choice([np.inf, -np.inf, np.nan], np.count_nonzero(exterior))
    return grid, cons, values, rng


@pytest.mark.parametrize("kind", ["p_laplace", "regularized"])
@pytest.mark.parametrize("dim", [2, 3])
def test_t2_residual_breakdown_is_the_weak_residual(kind, dim):
    # At t = 2 the split comes from K u; it must be the split of the
    # reference weak residual / h^(N-2), NaN and +-inf at exterior nodes,
    # with about half the obstacle nodes at +-m for either sign.  m = 0.5
    # lies inside the field's range, so some pinned nodes pull away.
    # Boundary values of 10 to 20 put the largest free residual next to
    # them, so a split that left them out would show.
    grid, cons, values, rng = _junk_exterior_problem(dim, 29)
    boundary = grid.labels == BOUNDARY
    values[boundary] = rng.uniform(10.0, 20.0, np.count_nonzero(boundary))
    spec = OperatorSpec(kind=kind, t=2.0)
    interior = (grid.labels == INTERIOR).ravel()
    for sign in (1, -1):
        constraint = ObstacleConstraint(cons.indices, 0.5, sign)
        field = values.copy()
        pinned = cons.indices[rng.random(cons.indices.size) < 0.5]
        field.ravel()[pinned] = sign * 0.5
        with np.errstate(invalid="ignore"):
            res = stacked_weak_residual(spec, Field(grid, field)).ravel()
        res /= grid.h ** (dim - 2)
        free = interior.copy()
        free[pinned] = False
        free_max = np.max(np.abs(res[free]))
        pinned_violation = max(np.max(-sign * res[pinned]), 0.0)
        got = residual_breakdown(spec, grid, field, constraint)
        assert got["pinned_count"] == pinned.size > 0
        assert pinned_violation > 0.0
        for key, want in (
            ("free_max", free_max),
            ("pinned_violation", pinned_violation),
            ("combined", max(free_max, pinned_violation)),
        ):
            assert got[key] == pytest.approx(want, rel=1e-12, abs=0.0), (sign, key)


@pytest.mark.parametrize("kind", ["p_laplace", "regularized"])
@pytest.mark.parametrize("dim", [2, 3])
def test_multilevel_stencil_is_the_weak_residual(kind, dim):
    # On free nodes K u is dE/du / h^(N-2) at t = 2, and at t in {1.5, 2, 3}
    # J(u) v is the derivative of dE/du / h^(N-2) along v (central
    # differences), whatever the values at exterior nodes, which no free
    # node's stencil reaches.  At t = 2, J v = K v.  J holds every offset,
    # and H_-o[i + o] = H_o[i] bit for bit.
    grid, cons, values, rng = _junk_exterior_problem(dim, 21)
    plain = _Multigrid(grid, cons).levels[0]
    free = plain.free
    assert free.sum() == np.count_nonzero(grid.labels == INTERIOR) - cons.indices.size
    for t in (2.0, 1.5, 3.0):
        spec = OperatorSpec(kind=kind, t=t)

        def scaled_residual(u):
            return weak_residual(spec, Field(grid, u)).values / grid.h ** (dim - 2)

        if t == 2.0:
            k_u = plain.apply(values)
            want = scaled_residual(values)
            scale = np.max(np.abs(want[free]))
            assert np.max(np.abs(k_u - want)[free]) <= 1e-12 * scale
            assert np.all(k_u[~free] == 0.0)
        level = _StencilLevel(free)
        jacobian = _NewtonLevel(grid, spec, level).jacobian(values)
        assert sorted(jacobian) == _all_offsets(dim)
        for offset, entries in jacobian.items():
            lo, hi = offset_slices(offset)
            assert np.array_equal(jacobian[tuple(-d for d in offset)][hi], entries[lo])
        level.set_stencil(jacobian)
        v = np.where(free, rng.standard_normal(grid.dims), 0.0)
        got = level.apply(v)
        assert np.all(np.isfinite(got)) and np.all(got[~free] == 0.0)
        step = 1e-6
        want = (scaled_residual(values + step * v) - scaled_residual(values - step * v)) / (
            2 * step
        )
        scale = np.max(np.abs(want[free]))
        assert np.max(np.abs(got - want)[free]) <= 1e-6 * scale
        if t == 2.0:
            assert np.max(np.abs(got - plain.apply(v))) <= 1e-13 * scale


def _galerkin_hierarchy(dim, t):
    """The t != 2 hierarchy of the junk-exterior problem, linearized at its
    field (exterior values zeroed, as a solve holds them)."""
    grid, cons, values, rng = _junk_exterior_problem(dim, 23)
    values[grid.labels == EXTERIOR] = 0.0
    multigrid = _Multigrid(grid, cons, galerkin=True)
    newton = _NewtonLevel(grid, OperatorSpec(kind="p_laplace", t=t), multigrid.levels[0])
    multigrid.linearize(newton, values)
    return multigrid, rng


@pytest.mark.parametrize("t", [1.5, 3.0])
@pytest.mark.parametrize("dim", [2, 3])
def test_galerkin_stencil_is_the_product_it_probes(dim, t):
    # Each coarse level's stencil applied to v is P^T A P v, A the operator
    # of the level above, on free masks with obstacle holes and exterior
    # nodes; its coarse free nodes are exactly the columns of P that reach
    # a free fine node.
    multigrid, rng = _galerkin_hierarchy(dim, t)
    assert len(multigrid.levels) >= 2
    for fine, coarse in zip(multigrid.levels, multigrid.levels[1:]):
        assert np.array_equal(coarse.free, _coarse_columns(fine.free, range(dim)))
        v = np.where(coarse.free, rng.standard_normal(coarse.free.shape), 0.0)
        want = _restrict(fine.apply(_prolong(v, fine, coarse.axes)), coarse)
        got = coarse.apply(v)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.all(coarse.stencil[(0,) * dim][coarse.free] > 0.0)
    # The product of the plain K, written out as a 2N + 1 point stencil, is
    # P^T K P too.
    free = multigrid.levels[0].free
    plain, coarse = _PlainLevel(free), _StencilLevel(multigrid.levels[1].free, free.shape)
    written = _StencilLevel(free)
    written.set_stencil(_plain_stencil(free.shape))
    coarse.set_stencil(_galerkin_product(written.stencil, range(dim)))
    v = np.where(coarse.free, rng.standard_normal(coarse.free.shape), 0.0)
    want = _restrict(plain.apply(_prolong(v, plain, coarse.axes)), coarse)
    assert np.max(np.abs(coarse.apply(v) - want)) <= 1e-12 * np.max(np.abs(want))


def _all_offsets(ndim):
    """Every offset of a 3^N-point stencil, in sorted order."""
    return list(itertools.product((-1, 0, 1), repeat=ndim))


def _plain_stencil(shape):
    """The plain K as a stencil over every offset."""
    ndim = len(shape)
    stencil = {o: np.zeros(shape) for o in _all_offsets(ndim)}
    stencil[(0,) * ndim][...] = 2.0 * ndim
    for axis in range(ndim):
        for step in (-1, 1):
            stencil[tuple(step * int(k == axis) for k in range(ndim))][...] = -1.0
    return stencil


def _dense(shape, columns_of):
    """The matrix whose column j is ``columns_of`` applied to the unit
    field j of ``shape``."""
    columns = []
    for j in range(math.prod(shape)):
        unit = np.zeros(shape)
        unit.ravel()[j] = 1.0
        columns.append(columns_of(unit).ravel())
    return np.stack(columns, axis=1)


@pytest.mark.parametrize("dims", [(22, 17), (9, 10, 11)])
def test_galerkin_product_matches_the_dense_product(dims):
    # A random, non-symmetric 3^N-point stencil on a free mask with holes
    # and a non-free rim, and the coarse level built from it (whose free
    # nodes reach its box rim), each coarsened once: every entry of the
    # stencil is the entry of the dense P^T A P, its columns assembled from
    # _prolong, and the dense product has no entry off the stencil.
    rng = np.random.default_rng(31)
    free = np.zeros(dims, dtype=bool)
    free[tuple(slice(1, -1) for _ in dims)] = True
    free &= rng.uniform(size=dims) < 0.85
    fine = _StencilLevel(free)
    fine.set_stencil({o: rng.standard_normal(dims) for o in _all_offsets(len(dims))})
    every_axis = range(len(dims))
    for _ in range(2):
        coarse = _StencilLevel(_coarse_columns(fine.free, every_axis), fine.free.shape)
        assert coarse.free[tuple(slice(1, -1) for _ in dims)].sum() < coarse.free.sum()
        coarse.set_stencil(_galerkin_product(fine.stencil, every_axis))
        shape = coarse.free.shape
        prolong = _dense(
            shape, lambda e: _prolong(np.where(coarse.free, e, 0.0), fine, coarse.axes)
        )
        want = prolong.T @ _dense(fine.free.shape, fine.apply) @ prolong
        got = _dense(shape, coarse.apply)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
        index = np.arange(coarse.free.size).reshape(coarse.free.shape)
        for offset, entries in coarse.stencil.items():
            lo, hi = offset_slices(offset)
            rows, cols = index[lo].ravel(), index[hi].ravel()
            assert np.max(np.abs(entries[lo].ravel() - want[rows, cols])) <= 1e-12 * scale
        fine = coarse


@pytest.mark.parametrize("dim", [2, 3])
def test_no_two_nodes_of_one_parity_couple(dim):
    # On every level of both hierarchies, A applied to the indicator of one
    # parity class is the diagonal on that class: parity Gauss-Seidel is
    # exact, one class at a time.
    galerkin, _ = _galerkin_hierarchy(dim, 3.0)
    grid, cons, _, _ = _junk_exterior_problem(dim, 23)
    for level in galerkin.levels + _Multigrid(grid, cons).levels:
        diag = level.diagonal().ravel()
        for idx in level.classes:
            x = np.zeros(level.free.shape)
            x.ravel()[idx] = 1.0
            assert np.array_equal(level.apply(x).ravel()[idx], diag[idx])


@pytest.mark.parametrize("t", [2.0, 3.0])
@pytest.mark.parametrize("dim", [2, 3])
def test_galerkin_levels_serve_2d_t_not_2_only(dim, t, monkeypatch):
    # Galerkin levels are built in 2D t != 2 solves and in no others; a 3D
    # t != 2 solve runs its Newton sweeps over the plain K levels and keeps
    # the same invariants.
    builds = []

    def counted(stencil, axes):
        builds.append(len(stencil))
        return _galerkin_product(stencil, axes)

    hierarchies = []

    def recorded(*args, **kwargs):
        hierarchies.append(_Multigrid(*args, **kwargs))
        return hierarchies[-1]

    monkeypatch.setattr("artifact.multigrid._galerkin_product", counted)
    monkeypatch.setattr(solver, "_Multigrid", recorded)
    grid = build_grid(Ball([0.0] * dim, 1.0), 1.0 / 8.0 if dim == 3 else 1.0 / 16.0)
    spec = OperatorSpec(kind="p_laplace", t=t)
    cons = ObstacleConstraint.from_shape(grid, Ball([0.0] * dim, 0.3), 1.0)
    fld, rep = solve_obstacle(grid, spec, cons, tol=1e-8)
    assert rep.converged and rep.notes["energy_monotone"] is True
    assert rep.notes["grid_levels"] >= 2
    assert np.all(fld.values.ravel()[cons.indices] == 1.0)
    assert bool(builds) == (dim == 2 and t != 2.0)
    # Every level of a hierarchy has the one class its solve chose: the
    # stencil class for the 2D t != 2 solve, the plain K for its t = 2
    # presolve and for every other solve.
    galerkin = [False] + ([dim == 2] if t != 2.0 else [])
    assert [{type(level) for level in h.levels} for h in hierarchies] == [
        {_StencilLevel if g else _PlainLevel} for g in galerkin
    ]


@pytest.mark.parametrize("dims", [(22, 17), (9, 10, 11), (12, 12, 7)])
def test_restriction_is_the_transpose_of_prolongation(dims):
    # <P e, r> = <e, P^T r> on odd and even axes, free masks with holes,
    # under the t = 2 (injected) and the t != 2 (column) coarse mask rules.
    rng = np.random.default_rng(22)
    fine_free = np.zeros(dims, dtype=bool)
    fine_free[tuple(slice(1, -1) for _ in dims)] = True
    fine_free &= rng.uniform(size=dims) < 0.9
    for kind, coarsen in ((_PlainLevel, _coarse_free), (_StencilLevel, _coarse_columns)):
        fine = kind(fine_free)
        coarse = kind(coarsen(fine_free, range(len(dims))), dims)
        e = np.where(coarse.free, rng.standard_normal(coarse.free.shape), 0.0)
        r = np.where(fine.free, rng.standard_normal(dims), 0.0)
        pe = _prolong(e, fine, coarse.axes)
        ptr = _restrict(r, coarse)
        assert pe.shape == dims and ptr.shape == coarse.free.shape
        assert np.all(pe[~fine.free] == 0.0) and np.all(ptr[~coarse.free] == 0.0)
        lhs, rhs = np.vdot(pe, r), np.vdot(e, ptr)
        assert abs(lhs - rhs) <= 1e-12 * (np.abs(pe).sum() + np.abs(ptr).sum())
        # A coarse node at a free fine node 2J carries its value there
        # unchanged.
        even = tuple(slice(None, None, 2) for _ in dims)
        both = coarse.free & fine.free[even]
        assert np.array_equal(pe[even][both], e[both])


# Odd and even axes in 2D and 3D.
KERNEL_DIMS = [(12, 9), (11, 10), (9, 10, 11), (8, 7, 6)]


def _holed_mask(dims, rng):
    """A free mask off the box rim, with random holes."""
    free = np.zeros(dims, dtype=bool)
    free[_off_rim(dims)] = True
    return free & (rng.uniform(size=dims) < 0.8)


def _off_rim(dims):
    return tuple(slice(1, -1) for _ in dims)


def _same_bits(got, want):
    """Equal bit for bit, NaN payloads aside."""
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and np.array_equal(
        got[~nan].view(np.uint64), want[~nan].view(np.uint64)
    )


@pytest.mark.parametrize("dims", KERNEL_DIMS)
def test_flat_laplacian_is_the_zero_padded_k_off_the_rim(dims):
    # The raveled-shift K equals the zero-padded K node by node, bit for
    # bit, on every node off the box rim, with +-inf at the nodes off a
    # holed mask (NaN then appears next to them); into a given array too.
    rng = np.random.default_rng(51)
    free = _holed_mask(dims, rng)
    x = rng.standard_normal(dims)
    x[~free] = rng.choice([np.inf, -np.inf], np.count_nonzero(~free))
    want = zero_padded_laplacian(x)[_off_rim(dims)]
    assert np.isnan(want).any() and np.isfinite(want).any()
    assert _same_bits(_laplacian(x)[_off_rim(dims)], want)
    out = np.empty(dims)
    assert _laplacian(x, out) is out
    assert _same_bits(out[_off_rim(dims)], want)


@pytest.mark.parametrize("with_rhs", [False, True])
@pytest.mark.parametrize("dims", KERNEL_DIMS)
def test_plain_sweep_is_the_gather_sum_sweep(dims, with_rhs):
    # The per-offset parity sweep equals the node-by-node sweep that adds
    # the face neighbours in offset order, bit for bit, on a holed mask.
    rng = np.random.default_rng(53)
    free = _holed_mask(dims, rng)
    x = rng.standard_normal(dims)
    rhs = rng.standard_normal(dims) if with_rhs else None
    want = gather_sum_sweep(x, free, rhs)
    _PlainLevel(free).sweep(x.ravel(), None if rhs is None else rhs.ravel())
    assert np.array_equal(x.view(np.uint64), want.view(np.uint64))


# Boxes with odd and even axes in 2D and 3D, holed by random obstacle nodes.
HOLED_BOXES = [
    (Box([0.0, 0.0], [1.0, 0.8]), 1.0 / 25.0),
    (Box([0.0, 0.0], [0.8, 1.0]), 1.0 / 26.0),
    (Box([0.0, 0.0, 0.0], [1.0, 0.8, 0.9]), 1.0 / 14.0),
    (Box([0.0, 0.0, 0.0], [0.9, 1.0, 0.7]), 1.0 / 14.0),
]


def _holed_box(box, h, seed):
    """A box grid, about a tenth of its interior nodes an obstacle at 1.0,
    and a start field at 1.0 there, random elsewhere, zero off the box's
    live nodes."""
    grid = build_grid(box, h)
    rng = np.random.default_rng(seed)
    interior = np.flatnonzero((grid.labels == INTERIOR).ravel())
    cons = ObstacleConstraint(interior[rng.random(interior.size) < 0.1], 1.0)
    values = np.where(grid.labels == EXTERIOR, 0.0, rng.uniform(0.0, 1.0, grid.dims))
    values.ravel()[cons.indices] = 1.0
    return grid, cons, values, rng


@pytest.mark.parametrize("galerkin", [False, True])
@pytest.mark.parametrize("box, h", HOLED_BOXES)
def test_coarse_pair_slope_is_the_fine_slope(box, h, galerkin):
    # The slope a correction returns, <P^T rho, e> on the coarse level, is
    # <rho, c> on the fine one, c = P e zeroed off the fine free nodes, on
    # plain-K and Galerkin levels.
    grid, cons, values, rng = _holed_box(box, h, 61)
    multigrid = _Multigrid(grid, cons, galerkin=galerkin)
    assert len(multigrid.levels) >= 2
    assert len({n % 2 for n in grid.dims}) == 2
    if galerkin:
        spec = OperatorSpec(kind="p_laplace", t=3.0)
        multigrid.linearize(_NewtonLevel(grid, spec, multigrid.levels[0]), values)
    free = multigrid.levels[0].free
    for _ in range(3):
        rho = np.where(free, rng.standard_normal(grid.dims), 0.0)
        c, slope = multigrid._correction(0, _restrict(rho, multigrid.levels[1]))
        assert np.all(c[~free] == 0.0)
        want = math.fsum((rho * c).ravel())
        assert slope == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("box, h", HOLED_BOXES)
def test_edge_curvature_is_the_operator_curvature(box, h, monkeypatch):
    # Under K, <c, K c> summed over the box edges slab by slab equals
    # inner(c, apply(c)) for c zero off the free nodes, whether a slab is
    # one plane, a few planes that do not divide the box, or the box; a
    # stencil level takes inner(c, apply(c)) itself.
    grid, cons, _, rng = _holed_box(box, h, 67)
    multigrid = _Multigrid(grid, cons)
    plane = math.prod(grid.dims[1:])
    for level in multigrid.levels:
        c = np.where(level.free, rng.standard_normal(level.free.shape), 0.0)
        want = inner(c, level.apply(c))
        for slab in (1, 3 * plane - 1, lattice._SLAB_NODES):
            monkeypatch.setattr(lattice, "_SLAB_NODES", slab)
            assert level.curvature(c) == pytest.approx(want, rel=1e-12, abs=0.0)
        monkeypatch.undo()
    # The edge sum itself, against every edge difference squared and summed
    # exactly.
    x = rng.standard_normal(grid.dims)
    squares = []
    for axis in range(x.ndim):
        lo, hi = offset_slices(tuple(int(k == axis) for k in range(x.ndim)))
        squares += ((x[hi] - x[lo]) ** 2).ravel().tolist()
    assert _edge_square_sum(x) == pytest.approx(math.fsum(squares), rel=1e-12, abs=0.0)
    stencil_level = _StencilLevel(multigrid.levels[0].free)
    stencil_level.set_stencil(_plain_stencil(grid.dims))
    c = np.where(stencil_level.free, rng.standard_normal(grid.dims), 0.0)
    assert stencil_level.curvature(c) == inner(c, stencil_level.apply(c))


@pytest.mark.parametrize("box, h", HOLED_BOXES)
def test_apply_on_planes_is_the_whole_apply(box, h):
    # A x on leading-axis planes [a, b), as the residual walk takes it, has
    # the bits of the whole-array A x there, under K and under Galerkin
    # stencils, at either end of the box and inside it.
    grid, cons, values, rng = _holed_box(box, h, 83)
    multigrid = _Multigrid(grid, cons, galerkin=True)
    spec = OperatorSpec(kind="p_laplace", t=3.0)
    multigrid.linearize(_NewtonLevel(grid, spec, multigrid.levels[0]), values)
    for level in (_PlainLevel(multigrid.levels[0].free), *multigrid.levels):
        x = rng.standard_normal(level.free.shape)
        whole = level.apply(x)
        m = x.shape[0]
        for a, b in ((0, 1), (0, 3), (1, m - 1), (2, 5), (m - 2, m), (0, m)):
            assert _same_bits(level.apply(x, planes=(a, b)), whole[a:b]), (a, b)


# 3D boxes with odd and even dims: the first two halve axis 0, the thin
# third one is too short along it to halve it.
STREAM_BOXES = [
    (Box([0.0, 0.0, 0.0], [1.0, 0.8, 0.9]), 1.0 / 14.0),
    (Box([0.0, 0.0, 0.0], [0.9, 1.0, 0.7]), 1.0 / 14.0),
    (Box([0.0, 0.0, 0.0], [0.3, 1.0, 0.9]), 1.0 / 14.0),
]


@pytest.mark.parametrize("with_rhs", [False, True])
@pytest.mark.parametrize("box, h", STREAM_BOXES)
def test_streamed_cycle_is_the_full_size_cycle(box, h, with_rhs, monkeypatch):
    # A plain-K V-cycle that makes the residual, the restriction, the
    # prolongation and the curvature slab by slab, and adds the correction
    # on the free nodes only, leaves the same bits as the step over whole
    # arrays, whether a slab is one plane, a few planes that do not divide
    # the box, or the box; +-inf at exterior nodes stays where it is.  A
    # level fixes its slabs when it is built, so each slab size builds the
    # hierarchy again.
    grid, cons, values, rng = _holed_box(box, h, 73)
    exterior = grid.labels == EXTERIOR
    values[exterior] = rng.choice([np.inf, -np.inf], np.count_nonzero(exterior))
    multigrid = _Multigrid(grid, cons)
    assert len(multigrid.levels) >= 2 and len({n % 2 for n in grid.dims}) == 2
    halved = _halved_axes(grid.dims, multigrid.levels[1].free.shape)
    assert (0 in halved) == (grid.dims[0] >= 9)
    free = multigrid.levels[0].free
    rhs = np.where(free, rng.standard_normal(grid.dims), 0.0).ravel() if with_rhs else None
    plane = math.prod(grid.dims[1:])
    for slab in (plane, 3 * plane - 1, lattice._SLAB_NODES):
        monkeypatch.setattr(lattice, "_SLAB_NODES", slab)
        multigrid = _Multigrid(grid, cons)
        want, got = values.copy(), values.copy()
        for _ in range(2):
            full_size_cycle(multigrid, 0, want, rhs, slab)
            multigrid._cycle(0, got, rhs)
            assert _same_bits(got, want), slab
        assert np.array_equal(got[exterior], values[exterior])
        monkeypatch.undo()


def _bits(x):
    return np.array([x], dtype=float).view(np.uint64)[0]


# The junk-exterior ball problem with some, all and none of its obstacle
# nodes at the obstacle, one whose obstacle is every interior node, all at
# the obstacle: nothing is free, and one settled on its obstacle, every
# other live node at half its height, so no pinned residual is violated
# and those amid the obstacle are signed zeros.
SPLIT_CASES = ["some", "all", "none", "nothing-free", "settled"]


@pytest.mark.parametrize("case", SPLIT_CASES)
@pytest.mark.parametrize("t", [2.0, 3.0])
@pytest.mark.parametrize("dim", [2, 3])
def test_masked_checks_are_the_gather_checks(dim, t, case, monkeypatch):
    # residual_breakdown's in-place split and obstacle_verification's
    # where= extremes equal the boolean-gather versions bit for bit, for
    # either sign, and the split keeps its bits whether its slabs are one
    # plane, a few planes that do not divide the box, or the box.
    grid, cons, values, rng = _junk_exterior_problem(dim, 71)
    spec = OperatorSpec(kind="p_laplace", t=t)
    interior = (grid.labels == INTERIOR).ravel()
    if case == "nothing-free":
        cons = ObstacleConstraint(np.flatnonzero(interior), 1.0)
    for sign in (1, -1):
        constraint = ObstacleConstraint(cons.indices, 0.5, sign)
        field = values.copy()
        if t != 2.0:
            field[grid.labels == EXTERIOR] = 0.0
        at = {
            "some": cons.indices[rng.random(cons.indices.size) < 0.5],
            "all": cons.indices,
            "none": cons.indices[:0],
            "nothing-free": cons.indices,
            "settled": cons.indices,
        }[case]
        if case == "settled":
            field[grid.labels != EXTERIOR] = sign * 0.25
        field.ravel()[at] = sign * 0.5
        if t == 2.0:
            res = _laplacian(field).ravel()
        else:
            res = weak_residual(spec, Field(grid, field)).values.ravel() / grid.h ** (dim - 2)
        want = gather_residual_split(res, interior, field, constraint)
        plane = math.prod(grid.dims[1:])
        for slab in (plane, 3 * plane - 1, lattice._SLAB_NODES):
            monkeypatch.setattr(lattice, "_SLAB_NODES", slab)
            got = residual_breakdown(spec, grid, field, constraint)
            assert got["pinned_count"] == want["pinned_count"] == at.size
            for key in ("free_max", "pinned_violation", "combined"):
                assert _bits(got[key]) == _bits(want[key]), (sign, slab, key)
            monkeypatch.undo()
        if case == "nothing-free":
            assert got["free_max"] == 0.0
        ver = obstacle_verification(spec, grid, field, constraint, 1e-8)
        for key, value in gather_obstacle_extremes(field, interior, constraint).items():
            assert _bits(ver[key]) == _bits(value), (sign, key)
        assert ver["off_obstacle_residual"] == got["free_max"]
    assert residual_breakdown(spec, grid, values, None) == gather_residual_split(
        _laplacian(values).ravel()
        if t == 2.0
        else weak_residual(spec, Field(grid, values)).values.ravel() / grid.h ** (dim - 2),
        interior,
        values,
        None,
    )


@pytest.fixture(scope="module")
def ball_57():
    """The 57^3-node ball, h = 1/27, a ball obstacle of radius 1/4 at 1.0,
    the field after two plain-K cycles from the obstacle start."""
    grid = build_grid(Ball([0.0, 0.0, 0.0], 1.0), 1.0 / 27.0)
    assert grid.dims == (57, 57, 57)
    cons = ObstacleConstraint.from_shape(grid, Ball([0.0, 0.0, 0.0], 0.25), 1.0)
    values = np.zeros(grid.dims)
    values.ravel()[cons.indices] = 1.0
    multigrid = _Multigrid(grid, cons)
    for _ in range(2):
        multigrid.cycle(values)
    return grid, cons, values, multigrid


# A slab of _edge_square_sum in bytes; the memory pins allow one beside
# their field sizes.
SLAB_BYTES = 8 * (1 << 16)


@pytest.mark.parametrize(
    "check, fields",
    [
        # Measured at 57^3: 2.34, 1.20 and 1.30 field sizes (a slab is
        # 0.35); 3.08, 1.97 and 2.26 when the residual lived through the
        # prolongation, two difference arrays lived side by side, and the
        # checks gathered their nodes.
        ("cycle", 2.4),
        ("energy", 1.25),
        ("residual_breakdown", 1.4),
    ],
)
def test_memory_above_entry_is_pinned(ball_57, check, fields):
    # The traced peak of a steady V-cycle and of the two checks a solve
    # runs, above what was live at entry, on the 57^3 ball.
    grid, cons, values, multigrid = ball_57
    spec = OperatorSpec(kind="p_laplace", t=2.0)
    field = values.copy()
    run = {
        "cycle": lambda: multigrid.cycle(field),
        "energy": lambda: energy(spec, Field(grid, field)),
        "residual_breakdown": lambda: residual_breakdown(spec, grid, field, cons),
    }[check]
    # The coarsest inverse is built outside the measured call.
    run()
    _, peak = peak_above_entry(run)
    assert peak <= fields * field.nbytes + SLAB_BYTES, peak / field.nbytes


@pytest.fixture(scope="module")
def ball_83():
    """The 83^3-node ball, h = 1/40, the size of probe-3d-t2's finest grid,
    with a ball obstacle of radius 1/4 at 1.0, after two plain-K cycles."""
    grid = build_grid(Ball([0.0, 0.0, 0.0], 1.0), 1.0 / 40.0)
    assert grid.dims == (83, 83, 83)
    cons = ObstacleConstraint.from_shape(grid, Ball([0.0, 0.0, 0.0], 0.25), 1.0)
    values = np.zeros(grid.dims)
    values.ravel()[cons.indices] = 1.0
    multigrid = _Multigrid(grid, cons)
    for _ in range(2):
        multigrid.cycle(values)
    return grid, cons, values, multigrid


@pytest.mark.parametrize(
    "check, fields, slabs",
    [
        # Measured: 1.31, 1.26 and 0.35 field sizes, a slab being 0.11.  A
        # cycle holds its step and the correction on the free nodes (0.46
        # each) and the coarse field (0.13); energy one axis's differences
        # and counts; the residual split its free mask.  Before the slab
        # walkers: 2.26, 1.14 (its edge counts then cached on the grid,
        # outside the call) and 1.27.
        ("cycle", 1.1, 3),
        ("energy", 1.25, 1),
        ("residual_breakdown", 0.2, 2),
    ],
)
def test_memory_above_entry_is_pinned_at_83(ball_83, check, fields, slabs):
    # The traced peak of a steady V-cycle and of the two checks a solve
    # runs, above what was live at entry, on the 83^3 ball: in field sizes
    # plus whole slabs of _SLAB_NODES nodes.
    grid, cons, values, multigrid = ball_83
    spec = OperatorSpec(kind="p_laplace", t=2.0)
    field = values.copy()
    run = {
        "cycle": lambda: multigrid.cycle(field),
        "energy": lambda: energy(spec, Field(grid, field)),
        "residual_breakdown": lambda: residual_breakdown(spec, grid, field, cons),
    }[check]
    run()
    _, peak = peak_above_entry(run)
    plane = math.prod(grid.dims[1:])
    slab = 8 * plane * (lattice._SLAB_NODES // plane)
    assert peak <= fields * field.nbytes + slabs * slab, peak / field.nbytes


def _factor_nbytes(level):
    """The bytes of a coarsest level's block factor: its node indices, each
    block's M (M^T is a view of it) and each G."""
    idx, blocks = level._block_factor()
    return idx.nbytes + sum(
        matrices[0].nbytes + (0 if g is None else g.nbytes) for matrices, g in blocks)


def test_multigrid_keeps_int32_classes_and_no_non_free_masks(ball_83):
    # What the 83^3 ball's hierarchy keeps for the whole solve: each level's
    # free mask, its parity classes at 4 bytes a free node, its face
    # offsets, and the coarsest level's block factor with its node indices,
    # under half the 8 n^2 bytes of one dense inverse.  No level keeps a
    # second, non-free mask.
    _, _, _, multigrid = ball_83
    levels = multigrid.levels
    free_nodes = sum(int(np.count_nonzero(level.free)) for level in levels)
    classes = [idx for level in levels for idx in level.classes]
    assert all(idx.dtype == np.int32 for idx in classes)
    assert sum(idx.nbytes for idx in classes) == 4 * free_nodes
    assert not any(hasattr(level, "nonfree") for level in levels)
    masks = sum(level.free.nbytes for level in levels)
    n = levels[-1].dense_nodes
    factor = _factor_nbytes(levels[-1])
    assert factor < 4 * n * n
    assert held_nbytes(multigrid) <= masks + 4 * free_nodes + factor + 4096


def test_dense_inverse_holds_one_block():
    # The coarsest build of the 729-node 3D cube holds no n x n array: its
    # three 243-node blocks (of three 81-node planes each), each written
    # over by its factor and kept, plus the envelope's nonzero mask of the
    # block being built (an eighth of it), its coupling to the block
    # before and per-node vectors.  Measured: 0.46 of a block above the
    # factor, 0.41 of the one n x n inverse it replaced.
    free = np.zeros((11, 11, 11), dtype=bool)
    free[1:-1, 1:-1, 1:-1] = True
    level = _PlainLevel(free)
    _, peak = peak_above_entry(level._block_factor)
    _, blocks = level._blocks
    assert level.dense_nodes == 729
    assert [len(matrices[0]) for matrices, _ in blocks] == [243] * 3
    block = 8 * 243 * 243
    assert peak <= _factor_nbytes(level) + 0.6 * block, peak / block
    assert peak < 8 * 729 * 729 / 2


def _cold_t3_coarsest():
    """The coarsest Galerkin level of the h = 1/32 t = 3 disk obstacle,
    linearized at the cold +-m start, where J(u) has zero rows."""
    grid = build_grid(Ball([0.0, 0.0], 1.0), 1.0 / 32.0)
    cons = ObstacleConstraint.from_shape(grid, Ball([0.0, 0.0], 0.25), 0.8)
    values = np.zeros(grid.dims)
    values.ravel()[cons.indices] = 0.8
    multigrid = _Multigrid(grid, cons, galerkin=True)
    spec = OperatorSpec(kind="p_laplace", t=3.0)
    multigrid.linearize(_NewtonLevel(grid, spec, multigrid.levels[0]), values)
    return multigrid.levels[-1]


@pytest.mark.parametrize(
    "operator", ["plain", "galerkin", "cold-galerkin", "plain-3d", "plain-3d-ball"])
def test_coarsest_solve_is_exact(operator):
    # One solve leaves rhs - A x at rounding level on every free node of
    # positive diagonal, on a plain-K level and on Galerkin stencil levels,
    # and on 3D plain-K levels of several plane blocks; a free node of zero
    # diagonal (the cold t = 3 start has them) keeps its value.  Values at
    # non-free nodes enter through A x.
    if operator == "plain":
        grid = build_grid(Ball([0.0, 0.0], 1.0), 1.0 / 32.0)
        cons = ObstacleConstraint.from_shape(grid, Ball([0.0, 0.0], 0.25), 1.0)
        level = _Multigrid(grid, cons).levels[-1]
    elif operator == "galerkin":
        level = _galerkin_hierarchy(2, 3.0)[0].levels[-1]
    elif operator == "cold-galerkin":
        level = _cold_t3_coarsest()
    else:
        level = _coarsest_block(operator)[0]
        assert len(level._block_factor()[1]) == 3
    free = level.free
    diag = level.diagonal()
    kept = free & (diag > 0)
    zero = free & ~kept
    assert (operator == "cold-galerkin") == bool(zero.any())
    rng = np.random.default_rng(41)
    x = rng.standard_normal(free.shape)
    start = x.copy()
    rhs = np.where(free, rng.standard_normal(free.shape), 0.0)
    level.solve(x, rhs.ravel())
    residual = rhs - level.apply(x)
    assert np.linalg.norm(residual[kept]) <= 1e-12 * np.linalg.norm(rhs)
    assert np.array_equal(x[~kept], start[~kept])
    assert level.dense_nodes == np.count_nonzero(kept)


@pytest.mark.parametrize("operator", ["plain-2d", "galerkin-2d", "cold-galerkin"])
def test_one_block_coarsest_solve_is_the_dense_inverse_solve(operator):
    # A system of at most _BLOCK_NODES nodes is one block, and its solve
    # has the bits of the one dense inverse M^T M it replaced.
    level = _coarsest_block(operator)[0]
    assert len(level._block_factor()[1]) == 1
    rng = np.random.default_rng(43)
    x = rng.standard_normal(level.free.shape)
    rhs = np.where(level.free, rng.standard_normal(level.free.shape), 0.0).ravel()
    want = x.copy()
    dense_inverse_solve(level, want, rhs)
    level.solve(x, rhs)
    assert x.tobytes() == want.tobytes()


def test_shipped_2d_coarsest_systems_are_one_block():
    # The coarsest system of every shipped 2D grid, on plain-K and Galerkin
    # levels, is at most _BLOCK_NODES nodes, so one block: its solve keeps
    # the bits of one dense inverse.  (The reports' largest is 225.)
    sizes = []
    for grid in _shipped_grids():
        if grid.dim == 2:
            for galerkin in (False, True):
                sizes.append(int(_Multigrid(grid, None, galerkin).levels[-1].free.sum()))
    assert len(sizes) > 10 and max(sizes) <= _BLOCK_NODES


def test_coarsest_solve_survives_a_singular_block(monkeypatch):
    # A free pair coupled only to each other, with zero row sums, is a
    # singular block (no coupling ties it to a fixed node): the solve takes
    # the pseudo-inverse, raises nothing and stays finite.  The factor fails
    # at the pair's second pivot after writing its first column over the
    # block, so the pseudo-inverse gets the block built again, whole.  With
    # the pair's rhs in the block's range it still solves exactly, and a
    # node tied to fixed ones beside it is solved exactly too.
    free = np.zeros((7, 7), dtype=bool)
    free[1, 1] = free[1, 2] = free[4, 4] = True
    stencil = {o: np.zeros(free.shape) for o in _all_offsets(2)}
    stencil[(0, 0)][1, 1] = stencil[(0, 0)][1, 2] = 4.0
    stencil[(0, 1)][1, 1] = stencil[(0, -1)][1, 2] = -4.0
    stencil[(0, 0)][4, 4] = 4.0
    level = _StencilLevel(free)
    level.set_stencil(stencil)
    _, block = level._dense_block()
    spoiled = block.copy()
    assert _inverse_cholesky(spoiled) is None
    assert not np.array_equal(spoiled, block)
    pinv = np.linalg.pinv
    seen = []

    def recorded(a, *args, **kwargs):
        seen.append(a.copy())
        return pinv(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "pinv", recorded)
    x = np.zeros(free.shape)
    rhs = np.zeros(free.shape)
    rhs[1, 1], rhs[1, 2], rhs[4, 4] = 0.5, -0.5, 2.0
    level.solve(x, rhs.ravel())
    assert len(seen) == 1 and seen[0].tobytes() == block.tobytes()
    assert np.all(np.isfinite(x))
    assert np.max(np.abs(rhs - level.apply(x))) <= 1e-12
    assert x[4, 4] == 0.5


def test_coarsest_solve_of_several_blocks_survives_a_singular_one(monkeypatch):
    # K on the 9^3 cube, but for a free pair on its last plane coupled only
    # to each other with zero row sums.  Its third plane block fails after
    # two were factored, and the whole system, built again, takes the
    # pseudo-inverse: one block, solved exactly with the pair's rhs in the
    # range.
    free = np.zeros((11, 11, 11), dtype=bool)
    free[1:-1, 1:-1, 1:-1] = True
    stencil = _plain_stencil(free.shape)
    pair = [(9, 5, 5), (9, 5, 6)]
    for node in pair:
        for offset, entries in stencil.items():
            if any(offset):
                entries[node] = 0.0
                entries[tuple(n - o for n, o in zip(node, offset))] = 0.0
    for node, step in zip(pair, (1, -1)):
        stencil[(0, 0, 0)][node] = 4.0
        stencil[(0, 0, step)][node] = -4.0
    level = _StencilLevel(free)
    level.set_stencil(stencil)
    pinv = np.linalg.pinv
    seen = []

    def recorded(a, *args, **kwargs):
        seen.append(a.copy())
        return pinv(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "pinv", recorded)
    rhs = np.where(free, np.random.default_rng(47).standard_normal(free.shape), 0.0)
    rhs[pair[0]], rhs[pair[1]] = 0.5, -0.5
    x = np.zeros(free.shape)
    level.solve(x, rhs.ravel())
    assert len(level._blocks[1]) == 1
    assert len(seen) == 1 and seen[0].tobytes() == level._dense_block()[1].tobytes()
    assert np.max(np.abs(rhs - level.apply(x))) <= 1e-10 * np.max(np.abs(rhs))


def _coarsest_block(operator):
    """A coarsest level of each kind, the mask of its block's nodes and
    the dense block."""
    if operator == "plain-2d":
        grid = build_grid(Ball([0.0, 0.0], 1.0), 1.0 / 32.0)
        cons = ObstacleConstraint.from_shape(grid, Ball([0.0, 0.0], 0.25), 1.0)
        level = _Multigrid(grid, cons).levels[-1]
    elif operator == "plain-3d":
        free = np.zeros((11, 11, 11), dtype=bool)
        free[1:-1, 1:-1, 1:-1] = True
        level = _PlainLevel(free)
    elif operator == "plain-3d-ball":
        # Probe-like: the h = 1/20 3D ball's coarsest level, 497 nodes.
        grid = build_grid(Ball([0.0, 0.0, 0.0], 1.0), 1.0 / 20.0)
        cons = ObstacleConstraint.from_shape(grid, Ball([0.0, 0.0, 0.0], 0.25), 1.0)
        level = _Multigrid(grid, cons).levels[-1]
    elif operator == "cold-galerkin":
        level = _cold_t3_coarsest()
    else:
        level = _galerkin_hierarchy(int(operator[-2]), 3.0)[0].levels[-1]
    return (level,) + level._dense_block()


@pytest.mark.parametrize(
    "operator", ["plain-2d", "plain-3d", "galerkin-2d", "galerkin-3d", "cold-galerkin"]
)
def test_inverse_cholesky_matches_the_full_column_reference(operator):
    # The envelope-bounded M = L^-1 agrees with the one built over full
    # columns and rows, and M A M^T = I.  The cold t = 3 Galerkin block
    # holds an exact zero at a coupling of two of its nodes, inside the
    # envelope the lattice gives it.
    level, kept, dense = _coarsest_block(operator)
    if operator == "cold-galerkin":
        couplings = 0
        for offset in level.stencil:
            if any(offset):
                lo, hi = offset_slices(offset)
                couplings += np.count_nonzero(kept[lo] & kept[hi])
        assert np.count_nonzero(dense) - dense.shape[0] < couplings
    want = full_column_inverse_cholesky(dense)
    got = _inverse_cholesky(dense.copy())
    assert want is not None and got is not None
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    identity = got @ dense @ got.T
    assert np.max(np.abs(identity - np.eye(dense.shape[0]))) <= 1e-10


@pytest.mark.parametrize(
    "operator", ["plain-2d", "plain-3d", "galerkin-2d", "galerkin-3d", "cold-galerkin"]
)
def test_inverse_cholesky_in_place_is_the_separate_array_build(operator):
    # Written over its argument, M = L^-1 has the bits of the build that
    # keeps L and M in arrays of their own, and it is the argument.
    _, _, dense = _coarsest_block(operator)
    want = envelope_inverse_cholesky(dense)
    block = dense.copy()
    got = _inverse_cholesky(block)
    assert got is block
    assert got.tobytes() == want.tobytes()


def test_inverse_cholesky_rejects_blocks_that_are_not_positive_definite():
    # A pivot that is not positive gives None, so the coarsest solve takes
    # the pseudo-inverse: a singular pair with zero row sums, beside a
    # node tied to nothing else, and an indefinite block.
    singular = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 4.0]])
    indefinite = np.array([[2.0, 0.0, 3.0], [0.0, 1.0, 0.0], [3.0, 0.0, 2.0]])
    for block in (singular, indefinite):
        assert full_column_inverse_cholesky(block) is None
        assert _inverse_cholesky(block) is None


def _shipped_grids():
    """The grid of each shipped scenario and level spacing: the sigma grid
    of a probe region, the scenario's own grid otherwise."""
    root = Path(__file__).resolve().parent.parent / "scenarios"
    for path in sorted(root.glob("*.json")):
        scenario = json.loads(path.read_text())
        shape = shape_from_dict(scenario["shape"])
        probe = scenario["task"] in ("wiener-probe", "locality")
        for h in scenario.get("h_levels") or [scenario["h"]]:
            yield (sigma_grid_for if probe else build_grid)(shape, h)


THIN_BOXES = [
    (Box([0.0, 0.0, 0.0], [1.0, 1.0, 1.0 / 16.0]), 1.0 / 64.0),
    (Box([0.0, 0.0], [1.0, 1.0 / 32.0]), 1.0 / 256.0),
]


def test_plain_levels_keep_no_free_node_on_the_box_rim():
    # _laplacian leaves rim nodes unspecified, so no plain-K level may have
    # a free node there: on every shipped grid, 2D and 3D, and on both thin
    # boxes, whose short axes are never halved.
    grids = list(_shipped_grids()) + [build_grid(box, h) for box, h in THIN_BOXES]
    assert {grid.dim for grid in grids} == {2, 3}
    for grid in grids:
        for level in _Multigrid(grid, None).levels:
            rim = np.ones(level.free.shape, dtype=bool)
            rim[_off_rim(level.free.shape)] = False
            assert not np.any(level.free & rim)


@pytest.mark.parametrize("box, h", THIN_BOXES)
def test_thin_boxes_coarsen_their_long_axes(box, h):
    # A level halves only the axes that stay at least _MIN_COARSE_DIM nodes
    # long; the others keep their length, and P is the identity along them.
    # So the coarsest level of a thin box stays small enough for its dense
    # solve (the 3D slab used to stay one 67 x 67 x 7 level of 11,907 free
    # nodes), and a t = 2 solve on it converges.
    grid = build_grid(box, h)
    levels = _Multigrid(grid, None).levels
    assert len(levels) >= 3
    kept_axes = 0
    for fine, coarse in zip(levels, levels[1:]):
        for n, m in zip(fine.free.shape, coarse.free.shape):
            assert m == n or m == (n + 1) // 2 >= _MIN_COARSE_DIM
            kept_axes += m == n
    assert kept_axes > 0
    coarsest = int(levels[-1].free.sum())
    assert coarsest <= 512
    fld, rep = solve_dirichlet(grid, OperatorSpec(kind="p_laplace", t=2.0), "x1*x2", tol=1e-8)
    assert rep.converged and rep.notes["energy_monotone"] is True
    assert rep.notes["coarsest_nodes"] == coarsest
    assert rep.notes["grid_levels"] == len(levels)


@pytest.mark.parametrize("t", [2.0, 3.0])
def test_relax_rejects_an_obstacle_node_off_the_obstacle(small_disk, t):
    spec = OperatorSpec(kind="p_laplace", t=t)
    cons = ObstacleConstraint.from_shape(small_disk, Ball([0.0, 0.0], 0.15), 0.5)
    start = np.zeros(small_disk.dims)
    start.ravel()[cons.indices] = 0.5
    start.ravel()[cons.indices[0]] = 0.6
    with pytest.raises(ValueError, match="obstacle height"):
        _relax(small_disk, spec, start, cons, 1e-8, 10)


@pytest.mark.parametrize("t", [1.5, 2.0, 3.0])
def test_obstacle_cycles_stay_flat_under_refinement(t):
    # SOR sweeps double each time h halves; V-cycles grow by at most 2x
    # from h = 1/32 to h = 1/128.  At t != 2 the finest level smooths with
    # Newton sweeps and the coarse levels are Galerkin ones of J(u), at most
    # 12 cycles at every h with at most 2 line-search slopes per cycle; at
    # t = 1.5 the Newton curvature is floored near flat parts of the field.
    # When written: 9/9/9 cycles at t = 1.5, 13/16/17 at t = 2 (plain K),
    # 8/8/7 at t = 3, at h = 1/32, 1/64, 1/128.
    spec = OperatorSpec(kind="p_laplace", t=t)
    cycles = []
    for h in (1.0 / 32.0, 1.0 / 64.0, 1.0 / 128.0):
        grid = build_grid(Ball([0.0, 0.0], 1.0), h)
        cons = ObstacleConstraint.from_shape(grid, Ball([0.0, 0.0], 0.25), 1.0)
        _, rep = solve_obstacle(grid, spec, cons, tol=1e-8)
        assert rep.converged and rep.notes["energy_monotone"] is True
        assert rep.notes["grid_levels"] >= 3
        if t != 2.0:
            assert rep.iterations <= 12
            assert rep.notes["line_search_slopes"] <= 2 * rep.iterations
        cycles.append(rep.iterations)
    assert cycles[-1] <= 2 * cycles[0]


def test_line_search_takes_a_certified_step():
    # Each t = 3 correction moves the free nodes by alpha c with alpha > 0
    # where the slope <dE(u + alpha c), c> is <= 0, so the energy has not
    # risen.  The slope there is down to _SECANT_STOP of the slope at 0
    # unless the secant ran out of steps, which a cold start from +-m may.
    grid = build_grid(Ball([0.0, 0.0], 1.0), 1.0 / 32.0)
    spec = OperatorSpec(kind="p_laplace", t=3.0)
    cons = ObstacleConstraint.from_shape(grid, Ball([0.0, 0.0], 0.25), 1.0)
    values = np.zeros(grid.dims)
    values.ravel()[cons.indices] = 1.0
    multigrid = _Multigrid(grid, cons, galerkin=True)
    newton = _NewtonLevel(grid, spec, multigrid.levels[0])
    for _ in range(6):
        newton.sweep(values)
        rho = newton.residual(values)
        multigrid.linearize(newton, values)
        c, slope = multigrid._correction(0, _restrict(rho, multigrid.levels[1]))
        direction = c.copy()
        before = values.copy()
        evaluations = newton.slope_evaluations
        newton.correct(values, slope, c)
        evaluations = newton.slope_evaluations - evaluations
        step = values - before
        alpha = np.vdot(step, direction) / np.vdot(direction, direction)
        assert alpha > 0.0
        assert np.max(np.abs(step - alpha * direction)) <= 1e-12 * np.max(np.abs(step))
        slope0 = -np.vdot(rho, direction)
        slope = np.vdot(newton._gradient(values), direction)
        assert slope <= 0.0
        assert slope >= _SECANT_STOP * slope0 or evaluations == _SECANT_STEPS
        assert energy(spec, Field(grid, values)) <= energy(spec, Field(grid, before))
        newton.sweep(values)
    assert newton.skipped == 0


NEWTON_CASES = [(t, sign) for t in (1.5, 3.0) for sign in (0, 1, -1)]


@pytest.mark.parametrize("t,sign", NEWTON_CASES)
def test_multilevel_solve_matches_dense_damped_newton(t, sign):
    # Dirichlet data with a nowhere-vanishing gradient (sign 0) and obstacle
    # problems of both signs on the h = 1/16 disk, against a dense damped
    # Newton minimization of the same energy on the free nodes.
    shape, h, _, radius = T2_CASES["disk"]
    grid = build_grid(shape, h)
    spec = OperatorSpec(kind="p_laplace", t=t)
    tol = 1e-9
    free = grid.labels == INTERIOR
    if sign:
        cons = ObstacleConstraint.from_shape(grid, Ball([0.0, 0.0], radius), 0.7, sign)
        fld, rep = solve_obstacle(grid, spec, cons, tol=tol)
        start = np.zeros(grid.dims)
        start.ravel()[cons.indices] = sign * 0.7
        free.ravel()[cons.indices] = False
        assert np.all(fld.values.ravel()[cons.indices] == sign * 0.7)
        ver = obstacle_verification(spec, grid, fld.values, cons, tol)
        assert ver["equals_m_on_obstacle"] and ver["bounds_ok"] and ver["residual_ok"]
    else:
        fld, rep = solve_dirichlet(grid, spec, "x1 + 0.5*x2*x2", tol=tol)
        start = fld.values.copy()
    assert rep.converged and rep.notes["energy_monotone"] is True
    assert rep.notes["grid_levels"] >= 2
    exact = damped_newton_minimizer(grid, spec, start, free)
    live = grid.labels != EXTERIOR
    assert np.max(np.abs(fld.values - exact)[live]) <= 10 * tol


def test_one_cycle_benchmark(benchmark):
    # One V-cycle, without _relax's checks, on the 39^3-node ball with a
    # ball obstacle, from the +-m start.
    grid = build_grid(Ball([0.0, 0.0, 0.0], 1.0), 1.0 / 18.0)
    assert grid.node_count() == 39**3
    cons = ObstacleConstraint.from_shape(grid, Ball([0.0, 0.0, 0.0], 0.25), 1.0)
    start = np.zeros(grid.dims)
    start.ravel()[cons.indices] = 1.0
    multigrid = _Multigrid(grid, cons)
    assert len(multigrid.levels) >= 3
    step = benchmark.pedantic(
        multigrid.cycle, setup=lambda: ((start.copy(),), {}), rounds=5, iterations=1
    )
    assert 0.0 < step <= 1.0


def test_coarsest_inverse_benchmark(benchmark):
    # The block factor of a plain-K coarsest level on an 11^3 box, 729
    # free nodes, about the size of probe-3d-t2's 501- and 504-node
    # coarsest systems; a fresh level each round, as the factor is cached.
    free = np.zeros((11, 11, 11), dtype=bool)
    free[1:-1, 1:-1, 1:-1] = True
    idx, blocks = benchmark.pedantic(
        _PlainLevel._block_factor, setup=lambda: ((_PlainLevel(free),), {}), rounds=5,
        iterations=1,
    )
    assert idx.size == 729 and len(blocks) == 3


def test_probe_region_classification_benchmark(benchmark):
    # build_grid of the enclosing ball and classify of the probe-3d-t2
    # region on it at h = 1/48, an 83^3 box: the grid layers of a probe
    # level.
    region = Difference(
        Ball([0.0, 0.0, 0.0], 0.24), FlatCone([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], 0.25, 0.24)
    )

    def build():
        sigma = sigma_grid_for(region, 1.0 / 48.0)
        return sigma, sigma.classify(region)

    sigma, labels = benchmark.pedantic(build, rounds=3, iterations=1, warmup_rounds=1)
    assert sigma.dims == (83, 83, 83)
    assert 0 < np.count_nonzero(labels == INTERIOR) < np.count_nonzero(sigma.labels == INTERIOR)


# ---------------------------------------------------------------------------
# Energy checks and the solve memo.
# ---------------------------------------------------------------------------


def test_energy_is_computed_only_for_the_checks(monkeypatch):
    # The t = 2 presolve computes no energy, the line search of each t = 3
    # correction certifies its step by slopes (``line_search_slopes``
    # residuals) and computes none either, and a converged solve reuses the
    # energy of its last checked cycle as the final energy.
    grid = build_grid(Ball([0.0, 0.0], 1.0), 1.0 / 16.0)
    spec = OperatorSpec(kind="p_laplace", t=3.0)
    cons = ObstacleConstraint.from_shape(grid, Ball([0.0, 0.0], 0.25), 1.0)
    calls = []

    def counted(spec_, fld):
        calls.append(spec_.t)
        return energy(spec_, fld)

    monkeypatch.setattr(solver, "energy_of", counted)
    fld, rep = solve_obstacle(grid, spec, cons)
    assert rep.converged and rep.notes["presolve"]["iterations"] > 0
    assert calls == [3.0] * rep.notes["energy_checks"]
    assert rep.notes["energy_checks"] == rep.iterations + 1
    assert rep.notes["line_search_slopes"] >= rep.iterations
    assert rep.energy == rep.notes["energy_last"] == energy(spec, fld)


@pytest.fixture(scope="module")
def memo_problem():
    grid = build_grid(Ball([0.0, 0.0], 0.5), 1.0 / 8.0)
    spec = OperatorSpec(kind="p_laplace", t=3.0)
    cons = ObstacleConstraint.from_shape(grid, Ball([0.0, 0.0], 0.2), 1.0)
    values = np.zeros(grid.dims)
    values.ravel()[cons.indices] = 1.0
    boundary = np.flatnonzero((grid.labels == BOUNDARY).ravel())
    values.ravel()[boundary] = 0.25
    return grid, spec, values, cons


def _regrid(grid, **over):
    other = build_grid(grid.shape, grid.h)
    for name, value in over.items():
        setattr(other, name, value)
    return other


def test_solve_key_is_the_tobytes_digest(memo_problem):
    # Hashing the arrays through their buffers gives the digest of the
    # tobytes() construction, for C- and Fortran-ordered start fields,
    # with and without a constraint.
    grid, spec, values, cons = memo_problem
    for field in (values, np.asfortranarray(values)):
        for constraint in (cons, None):
            args = (grid, spec, field, constraint, 1e-8)
            assert solver._solve_key(*args) == tobytes_solve_key(*args)


def test_solve_key_changes_with_each_determinant(memo_problem):
    grid, spec, values, cons = memo_problem
    key = solver._solve_key(grid, spec, values, cons, 1e-8)
    # A grid built separately from the same shape gives the same key.
    assert solver._solve_key(_regrid(grid), spec, values.copy(), cons, 1e-8) == key
    labels = grid.labels.copy()
    labels.ravel()[0] = BOUNDARY
    boundary = np.flatnonzero((grid.labels == BOUNDARY).ravel())
    moved = values.copy()
    moved.ravel()[boundary[3]] = 0.5
    spec_changes = {"kind": "regularized", "t": 3.5}
    assert set(spec_changes) == set(spec.to_dict())
    variants = [
        (_regrid(grid, labels=labels), spec, values, cons, 1e-8),
        (_regrid(grid, origin=grid.origin + 1e-3), spec, values, cons, 1e-8),
        (_regrid(grid, h=grid.h * (1 + 1e-12)), spec, values, cons, 1e-8),
        (grid, spec, moved, cons, 1e-8),
        (grid, spec, values, None, 1e-8),
        (grid, spec, values, ObstacleConstraint(cons.indices[1:], 1.0), 1e-8),
        (grid, spec, values, ObstacleConstraint(cons.indices, 1.5), 1e-8),
        (grid, spec, values, ObstacleConstraint(cons.indices, 1.0, -1), 1e-8),
        (grid, spec, values, cons, 1e-9),
    ]
    variants += [
        (grid, replace(spec, **{name: value}), values, cons, 1e-8)
        for name, value in spec_changes.items()
    ]
    keys = [solver._solve_key(*args) for args in variants]
    assert key not in keys
    assert len(set(keys)) == len(keys)


def _counting_relax(monkeypatch):
    calls = []
    relax = solver._relax

    def counted(*args, **kwargs):
        calls.append(args[1].t)
        return relax(*args, **kwargs)

    monkeypatch.setattr(solver, "_relax", counted)
    return calls


def test_memo_serves_copies_and_forgets_on_exit(memo_problem, monkeypatch):
    grid, spec, values, cons = memo_problem
    calls = _counting_relax(monkeypatch)
    with solver._solve_memo(), solver._solve_counts() as counts:
        first, rep1 = solve_obstacle(grid, spec, cons)
        second, rep2 = solve_obstacle(build_grid(grid.shape, grid.h), spec, cons)
        assert counts == {"hits": 1, "misses": 1}
        assert calls == [2.0, 3.0]
        assert np.array_equal(first.values, second.values)
        assert first.values is not second.values
        assert rep2.to_dict() == rep1.to_dict()
        # Caller-side writes reach neither the memo nor the other caller.
        rep2.notes["obstacle_nodes"] = -1
        second.values[:] = np.nan
        third, rep3 = solve_obstacle(grid, spec, cons)
        assert rep3.to_dict() == rep1.to_dict()
        assert np.array_equal(third.values, first.values)
    assert calls == [2.0, 3.0]
    solve_obstacle(grid, spec, cons)
    assert calls == [2.0, 3.0, 2.0, 3.0]


def test_memo_keeps_no_failed_solve_and_releases_its_lock(memo_problem, monkeypatch):
    grid, spec, _, cons = memo_problem
    calls = []
    relax = solver._relax

    def fail_once(*args, **kwargs):
        calls.append(args[1].t)
        if len(calls) == 1:
            raise RuntimeError("injected failure")
        return relax(*args, **kwargs)

    monkeypatch.setattr(solver, "_relax", fail_once)
    results = []
    with solver._solve_memo():
        with pytest.raises(RuntimeError, match="injected"):
            solve_obstacle(grid, spec, cons)
        worker = threading.Thread(
            target=lambda: results.append(solve_obstacle(grid, spec, cons))
        )
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
    assert results and results[0][1].converged
    assert calls == [2.0, 2.0, 3.0]
