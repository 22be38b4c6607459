"""Solver checks: Dirichlet relaxation, obstacle clamping, comparison runs.

The t = 2 case has an exact reference (dense linear solve in oracles.py);
nonlinear cases are checked through structure that survives discretization
exactly: affine data, scaling homogeneity, sign symmetry, and the
maximum/comparison principles.
"""

import math

import numpy as np
import pytest

from artifact import (
    Ball,
    BoundaryData,
    Box,
    Field,
    ObstacleConstraint,
    OperatorSpec,
    build_grid,
    energy,
    generalized_solution,
    residual_breakdown,
    solve_dirichlet,
    solve_obstacle,
    verify_comparison,
    weak_residual,
)
from artifact import solver
from artifact.domain.lattice import BOUNDARY, EXTERIOR, INTERIOR
from artifact.solver import (
    _MAX_SWEEPS,
    _auto_omega,
    _build_colors,
    _ColorWorkspace,
    _relax,
    obstacle_verification,
)

from oracles import quadratic_minimizer


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
    # the same field bit for bit, the same sweeps and Newton work.
    spec = OperatorSpec(kind="p_laplace", t=t)
    batched, rep_b = solve_dirichlet(small_disk, spec, "x1*x2", tol=1e-9)
    parity_classes = solver._build_colors
    monkeypatch.setattr(
        solver,
        "_build_colors",
        lambda grid: [idx[i : i + 1] for idx in parity_classes(grid) for i in range(idx.size)],
    )
    single, rep_s = solve_dirichlet(small_disk, spec, "x1*x2", tol=1e-9)
    assert rep_b.converged and rep_b.notes["colors"] == 4
    assert rep_s.notes["colors"] == np.count_nonzero(small_disk.labels == INTERIOR)
    assert np.array_equal(single.values, batched.values)
    assert rep_s.iterations == rep_b.iterations
    assert rep_s.energy == rep_b.energy
    assert rep_s.notes["presolve"] == rep_b.notes["presolve"]
    for key in ("newton_node_iterations", "energy_checks"):
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
    assert BoundaryData("x1 + x2").evaluate(pts) == pytest.approx([0.0, 3.0])
    assert BoundaryData(lambda p: p[:, 0]).evaluate(pts) == pytest.approx([0.0, 1.0])
    wrapped = BoundaryData(BoundaryData("x1"))
    assert wrapped.evaluate(pts) == pytest.approx([0.0, 1.0])


def test_boundary_data_at_boundary_nodes(small_disk):
    grid = small_disk
    spec = OperatorSpec(kind="p_laplace", t=2.0)
    bpts = grid.points()[(grid.labels == BOUNDARY).ravel()]
    vals = BoundaryData("x1 - 0.5*x2").evaluate(bpts)
    # A 1-D array holds the values at the boundary nodes in grid order.
    assert np.array_equal(BoundaryData(vals).evaluate(bpts), vals)
    from_array, _ = solve_dirichlet(grid, spec, vals)
    from_expr, _ = solve_dirichlet(grid, spec, "x1 - 0.5*x2")
    assert np.array_equal(from_array.values, from_expr.values)
    # A 0-d array stays a constant.
    assert BoundaryData(np.array(2.5)).evaluate(bpts[:2]) == pytest.approx([2.5, 2.5])
    with pytest.raises(ValueError, match="boundary nodes"):
        BoundaryData(vals[:-1]).evaluate(bpts)
    with pytest.raises(ValueError, match="boundary nodes"):
        solve_dirichlet(grid, spec, np.append(vals, 0.0))


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


def test_generalized_solution_cauchy_and_families(small_disk):
    grid = small_disk
    spec = OperatorSpec(kind="p_laplace", t=2.0)
    fld, rep = generalized_solution(grid, spec, "sin(3*x1) + x2", n_levels=3, tol=1e-9)
    assert rep["cauchy_ok"]
    assert rep["family_bound_ok"]
    assert len(rep["levels"]) == 3
    assert all(lv["converged"] for lv in rep["levels"])
    widths = [lv["width"] for lv in rep["levels"]]
    assert widths == sorted(widths, reverse=True)
    fld.validate_finite()


def test_mollifier_families_agree_once_width_resolves_data(small_disk):
    # Sphere and ball averages of curved data differ at order width^2, so the
    # two families only collapse onto one solution once the final
    # mollification width is small enough; the interior gap is always bounded
    # by the boundary gap (comparison), making the crossover sharp.
    grid = small_disk
    spec = OperatorSpec(kind="p_laplace", t=2.0)
    _, coarse = generalized_solution(
        grid, spec, "sin(3*x1) + x2", n_levels=3, tol=1e-9
    )
    assert not coarse["families_agree_4tol"]
    _, fine = generalized_solution(
        grid, spec, "sin(3*x1) + x2", n_levels=15, tol=1e-9
    )
    assert fine["families_agree_4tol"]
    assert fine["family_gap"] < coarse["family_gap"]


def test_generalized_solution_affine_data_is_fixed_point(small_disk):
    # Averaging affine data over centered spheres or balls reproduces the
    # data, so every mollification level solves the same problem.
    grid = small_disk
    spec = OperatorSpec(kind="p_laplace", t=2.0)
    fld, rep = generalized_solution(grid, spec, "0.3*x1 - x2", n_levels=2, tol=1e-9)
    assert rep["family_gap"] < 1e-7
    pts = grid.points()
    target = 0.3 * pts[:, 0] - pts[:, 1]
    live = (grid.labels != EXTERIOR).ravel()
    assert np.max(np.abs(fld.values.ravel() - target)[live]) < 1e-6


# ---------------------------------------------------------------------------
# The local slice of the nonlinear Gauss-Seidel sweep.
# ---------------------------------------------------------------------------

SLICE_LAWS = [("p_laplace", 1.5), ("p_laplace", 3.0), ("regularized", 3.0)]


def _color_slices(grid, values):
    """(workspace, faces, fixed) of every parity class for a field."""
    uflat = values.ravel()
    for idx in _build_colors(grid):
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
    # W(0) = 0, and at t < 2 the curvature is the eps_floor one,
    # phi(eps_floor) (N 2^N + 2N 2^{N-1}) / h^2, finite and positive.
    spec = OperatorSpec(kind="p_laplace", t=1.5)
    values = np.full(small_disk.dims, 0.3)
    h = small_disk.h
    for ws, faces, fixed in _color_slices(small_disk, values):
        s = np.full(faces.shape[1], 0.3)
        fp, fpp, fv = ws.derivatives(spec, s, faces, fixed, with_value=True)
        assert np.all(fp == 0.0)
        assert np.all(fv == 0.0)
        want = 16 * spec.eps_floor ** (spec.t - 2.0) / h**2
        assert fpp == pytest.approx(np.full_like(fpp, want), rel=1e-12)


@pytest.mark.parametrize("kind,t", SLICE_LAWS)
def test_first_newton_pass_gives_the_guard_value(small_disk, kind, t):
    spec = OperatorSpec(kind=kind, t=t)
    rng = np.random.default_rng(12)
    values = rng.uniform(-1.0, 1.0, small_disk.dims)
    for ws, faces, fixed in _color_slices(small_disk, values):
        lo, hi = faces.min(axis=0), faces.max(axis=0)
        s_old = rng.uniform(lo - 0.2, hi + 0.2)
        _, _, _, f0 = ws.minimize(spec, s_old, faces, fixed, with_value=True)
        start = np.clip(s_old, lo, hi)
        assert np.array_equal(f0, ws.slice_value(spec, start, faces, fixed))
        kept = start == s_old
        assert kept.any() and not kept.all()
        direct = ws.slice_value(spec, s_old, faces, fixed)
        assert np.array_equal(f0[kept], direct[kept])


def _bisection_minimizer(ws, spec, faces, fixed):
    lo, hi = faces.min(axis=0), faces.max(axis=0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fp, _, _ = ws.derivatives(spec, mid, faces, fixed)
        hi = np.where(fp > 0, mid, hi)
        lo = np.where(fp > 0, lo, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("kind,t", SLICE_LAWS)
def test_compacted_newton_matches_bisection(small_disk, kind, t):
    spec = OperatorSpec(kind=kind, t=t)
    rng = np.random.default_rng(13)
    for _ in range(3):
        values = rng.uniform(-1.0, 1.0, small_disk.dims)
        for ws, faces, fixed in _color_slices(small_disk, values):
            lo, hi = faces.min(axis=0), faces.max(axis=0)
            s_old = rng.uniform(lo - 0.2, hi + 0.2)
            s, _, _, _ = ws.minimize(spec, s_old, faces, fixed)
            scale = 1.0 + np.maximum(np.abs(lo), np.abs(hi))
            ref = _bisection_minimizer(ws, spec, faces, fixed)
            assert np.max(np.abs(s - ref) / scale) <= 1e-13
            assert ws.cap_hits == 0
            # Every node takes at least one iteration and, once compacted,
            # the batch does not run each node to the slowest one's count.
            assert s.size <= ws.node_iterations < 60 * s.size


def _spy_newton_steps(ws):
    """Record the (s_next, f) pair of every Newton step the workspace takes."""
    steps = []
    step = ws._newton_step

    def spy(*args, **kwargs):
        out = step(*args, **kwargs)
        steps.append(out)
        return out

    ws._newton_step = spy
    return steps


@pytest.mark.parametrize("sign", [0, 1, -1])
@pytest.mark.parametrize("kind,t", SLICE_LAWS)
def test_guarded_single_newton_step(small_disk, kind, t, sign):
    # A node update is one Newton step from clip(s_old, lo, hi): the first
    # iterate of the exact solve.  Relaxed, clipped and projected, it stays
    # where the slice does not rise above f(s_old); every other node gets
    # the exact minimizer, projected.
    spec = OperatorSpec(kind=kind, t=t)
    omega = 1.9
    rng = np.random.default_rng(14)
    bound = np.maximum if sign > 0 else np.minimum
    rejected = updated = 0
    for _ in range(4):
        uflat = rng.uniform(-1.0, 1.0, small_disk.dims).ravel()
        for idx in _build_colors(small_disk):
            cons = ObstacleConstraint(idx[::3], 0.3, sign) if sign else None
            ws = _ColorWorkspace(small_disk, idx, cons)
            faces, fixed = ws.gather(uflat)
            lo, hi = faces.min(axis=0), faces.max(axis=0)
            s_old = rng.uniform(lo - 0.2, hi + 0.2)
            start = np.clip(s_old, lo, hi)
            s1, f0 = ws._newton_step(
                spec, start, faces, fixed, lo.copy(), hi.copy(), with_value=True
            )
            assert np.all((lo <= s1) & (s1 <= hi))
            assert np.array_equal(f0, ws.slice_value(spec, start, faces, fixed))
            steps = _spy_newton_steps(ws)
            exact, _, _, _ = ws.minimize(spec, s_old, faces, fixed)
            assert np.array_equal(steps[0][0], s1)

            cand = np.clip(s_old + omega * (s1 - s_old), lo, hi)
            pinned = np.zeros(idx.size, dtype=bool)
            if sign:
                pinned[::3] = True
                cand = np.where(pinned, bound(cand, 0.3 * sign), cand)
                exact = np.where(pinned, bound(exact, 0.3 * sign), exact)
            f_cand = ws.slice_value(spec, cand, faces, fixed)
            reject = ~(f_cand <= ws.slice_value(spec, s_old, faces, fixed))
            fresh = _ColorWorkspace(small_disk, idx, cons)
            out = fresh.update(spec, s_old, faces, fixed, omega)
            assert np.array_equal(out[~reject], cand[~reject])
            assert np.array_equal(out[reject], exact[reject])
            assert fresh.guard_fallbacks == np.count_nonzero(reject)
            assert np.all(sign * out[pinned] >= 0.3)
            rejected += fresh.guard_fallbacks
            updated += idx.size
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
    interior = int(np.count_nonzero(grid.labels == INTERIOR))
    assert rep.notes["newton_cap_hits"] == 0
    assert rep.notes["newton_node_iterations"] >= rep.iterations * interior
    # The t = 2 presolve only moves the start: the answer is the cold
    # solve's from the +-m start, to solver tolerance.
    assert rep.notes["presolve"]["converged"] and rep.notes["presolve"]["iterations"] > 0
    ver = obstacle_verification(spec, grid, fld.values, cons, tol)
    assert ver["residual_ok"] and ver["bounds_ok"] and ver["equals_m_on_obstacle"]
    cold = np.zeros(grid.dims)
    cold.ravel()[cons.indices] = sign * 0.8
    cold_rep = _relax(grid, spec, cold, cons, tol, _MAX_SWEEPS, _auto_omega(grid))
    assert cold_rep.converged
    assert np.max(np.abs(fld.values - cold)) <= 10 * tol


@pytest.fixture(scope="module")
def sweep_problem():
    grid = build_grid(Ball([0.0, 0.0], 1.0), 1.0 / 32.0)
    cons = ObstacleConstraint.from_shape(grid, Ball([0.0, 0.0], 0.25), 1.0)
    return grid, cons


@pytest.mark.parametrize("t", [2.0, 3.0])
def test_one_sweep_benchmark(benchmark, sweep_problem, t):
    # One nonlinear Gauss-Seidel sweep (plus _relax's energy and residual
    # reads) on the h = 1/32 disk, from a field 20 sweeps into the solve.
    grid, cons = sweep_problem
    spec = OperatorSpec(kind="p_laplace", t=t)
    omega = _auto_omega(grid)
    start = np.zeros(grid.dims)
    start.ravel()[cons.indices] = 1.0
    _relax(grid, spec, start, cons, 1e-8, 20, omega)

    def one_sweep(values):
        return _relax(grid, spec, values, cons, 1e-8, 1, omega)

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
