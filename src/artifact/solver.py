"""Variational solver: nonlinear Gauss-Seidel on the corner-quadrature energy.

Unknowns live at interior nodes; boundary-ring nodes carry Dirichlet data and
never move.  One sweep visits the 2^N lattice parities in fixed order; nodes
of one parity never share a cell, so a whole parity class updates in a single
vectorized step that is exactly equivalent to sequential relaxation.

Each node update lowers the global energy along its own coordinate.  The
local slice collects every integrand term that touches the node's value: its
own 2^N corner gradients plus, for each of the 2N face neighbors, the 2^{N-1}
corner gradients at that neighbor inside the shared cells (12 terms in 2D, 32
in 3D).  The slice is convex and its minimizer lies inside the face-neighbor
value range [lo, hi].  At t = 2 the minimizer is just the face-neighbor mean.
Otherwise an update takes one bracketed Newton-or-bisection step from the
current value clipped into [lo, hi] (one-step SOR-Newton: Ortega &
Rheinboldt, Iterative Solution of Nonlinear Equations in Several Variables,
1970, section 10.3, show that it converges as fast asymptotically as exact
nonlinear SOR).  The 2N face differences are formed once per Newton step and
shared by all terms; each term's phi, phi'/g and W come from
``monotone.profile`` as functions of the squared gradient magnitude, one
power per term.

Over-relaxation is on with the classical spacing-based factor omega.  The
proposed value (the mean, or the Newton step) is relaxed by omega from the
current one, clipped into [lo, hi] and projected onto the obstacle.  For
t != 2 it is kept only where it does not raise the local energy slice above
its value at the current point, which the Newton step supplies; at every other
node (``guard_fallbacks`` in the report notes) the exact slice minimizer,
found by iterating the same Newton step until it moves less than 1e-15 of the
bracket scale (60 iterations at most), is projected and taken instead.  So the
sweep energy is non-increasing by construction for every t.  Newton work is
counted in the notes as ``newton_node_iterations`` (fallback iterations
included) and ``newton_cap_hits``.  Because every accepted value stays inside
the neighbor range (or at the obstacle height), iterates obey the discrete
comparison principle exactly, not just within tolerance.

Obstacle problems project each update onto the constraint (u >= m on the
marked nodes for sign +1, u <= -m for sign -1, mirroring the reflected
field).  Convergence requires both a small max update and a small normalized
residual: |dE/du_i| / h^{N-2} below tolerance at free nodes, one-sided at
pinned nodes.

Dirichlet and obstacle problems share one solve path.  Every t != 2 solve,
of either kind, first solves the same problem (same data, same constraint)
at t = 2 to a looser tolerance and starts its own iteration from there.
"""

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from ._expr import Expression
from .domain.lattice import BOUNDARY, INTERIOR
from .monotone import (
    Field,
    energy as energy_of,
    integrand,
    profile,
    profile_slope,
    weak_residual,
)

__all__ = [
    "BoundaryData",
    "ObstacleConstraint",
    "SolveReport",
    "solve_dirichlet",
    "solve_obstacle",
    "generalized_solution",
    "verify_comparison",
    "residual_breakdown",
    "obstacle_verification",
]


class BoundaryData:
    """Dirichlet data: a callable, an expression string, a constant, or a 1-D
    array of values at a grid's boundary nodes in grid order."""

    def __init__(self, source=0.0):
        if isinstance(source, BoundaryData):
            self._eval = source._eval
        elif isinstance(source, str):
            self._eval = Expression(source)
        elif callable(source):
            self._eval = source
        elif np.ndim(source) == 1:
            values = np.asarray(source, dtype=float)
            self._eval = lambda pts: _at_boundary_nodes(values, pts)
        else:
            const = float(source)
            self._eval = lambda pts: np.full(np.asarray(pts).shape[0], const)

    def evaluate(self, points):
        return np.asarray(self._eval(points), dtype=float)


def _at_boundary_nodes(values, points):
    if len(points) != values.size:
        raise ValueError(
            f"boundary data holds {values.size} values for {len(points)} boundary nodes"
        )
    return values


@dataclass
class ObstacleConstraint:
    """Lower (sign +1) or upper (sign -1) obstacle of height m on a node set."""

    indices: np.ndarray
    height: float
    sign: int = 1

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        if self.height <= 0:
            raise ValueError("obstacle height m must be positive")
        if self.sign not in (1, -1):
            raise ValueError("obstacle sign must be +1 or -1")

    @classmethod
    def from_shape(cls, grid, shape, height, sign=1):
        inside = shape.inside_closed(grid.points())
        interior = (grid.labels == INTERIOR).ravel()
        return cls(np.flatnonzero(inside & interior), height, sign)

    def validate_on(self, grid):
        interior = (grid.labels == INTERIOR).ravel()
        if self.indices.size and not np.all(interior[self.indices]):
            raise ValueError("obstacle nodes must be interior to the solve region")


@dataclass
class SolveReport:
    iterations: int = 0
    energy: float = math.nan
    max_update: float = math.inf
    max_residual: float = math.inf
    converged: bool = False
    notes: dict = dc_field(default_factory=dict)

    def to_dict(self):
        return {
            "iterations": self.iterations,
            "energy": self.energy,
            "max_update": self.max_update,
            "max_residual": self.max_residual,
            "converged": self.converged,
            "notes": self.notes,
        }


# ---------------------------------------------------------------------------
# Local slice machinery.
# ---------------------------------------------------------------------------


def _curvature_floor(spec):
    """Lower bound on g2 = |G|^2 in the Newton curvature.

    For p_laplace at t < 2, phi(g) = g^{t-2} is singular at g = 0, so the
    Newton pair is taken at g2 >= eps_floor^2; slice values never are.
    """
    if spec.kind == "p_laplace" and spec.t < 2.0:
        return spec.eps_floor * spec.eps_floor
    return 0.0


def _newton_pair(spec, g2, floor):
    """phi and phi'(|G|)/|G| of ``monotone.profile`` at g2, floored."""
    phi, base = profile(spec, np.maximum(g2, floor) if floor else g2)
    return phi, profile_slope(spec, phi, base)


def _row_sum(arr, rows):
    total = arr[rows[0]]
    for r in rows[1:]:
        total = total + arr[r]
    return total


class _ColorWorkspace:
    """Per-parity gather indices and the local slice of the parity's nodes.

    The slice terms of a node are its own 2^N corner gradients, one per
    orthant, each built from N face differences s - nb; and, for each face
    neighbour, the 2^{N-1} corner gradients at that neighbour inside the
    shared cells, each one face difference plus fixed edges that do not
    involve s.  The face values of a batch are the rows of one (2N, n)
    array, row 2d + j holding the neighbour at offset (+1, -1)[j] along axis
    d; the fixed parts are the rows of one array too, one per neighbour term.
    """

    def __init__(self, grid, idx, constraint=None):
        self.idx = idx
        dims = grid.dims
        ndim = grid.dim
        strides = [int(np.prod(dims[k + 1 :])) for k in range(ndim)]
        self.ndim = ndim
        self.inv_h2 = 1.0 / (grid.h * grid.h)
        self.face_offsets = np.array(
            [sgn * strides[d] for d in range(ndim) for sgn in (1, -1)]
        )
        # Face rows of each own term.
        self.orthants = [
            [2 * d + j for d, j in enumerate(orth)]
            for orth in np.ndindex(*([2] * ndim))
        ]
        # Per neighbour term: its face row, and the offsets from that
        # neighbour to the far ends of its fixed edges.
        self.partners = []
        for d in range(ndim):
            others = [k for k in range(ndim) if k != d]
            for j in range(2):
                for corner in np.ndindex(*([2] * (ndim - 1))):
                    offs = [(1, -1)[c] * strides[k] for c, k in zip(corner, others)]
                    self.partners.append((2 * d + j, offs))
        # The batch's obstacle nodes, or None when it has none.
        self.pinned = None
        if constraint is not None:
            pinned = np.isin(idx, constraint.indices)
            if pinned.any():
                self.pinned = pinned
                self.target = constraint.sign * constraint.height
                self.bound = np.maximum if constraint.sign > 0 else np.minimum
        # Newton work over the solve: node-iterations, nodes that ran into
        # the iteration cap, and node updates where the guard rejected the
        # relaxed step.
        self.node_iterations = 0
        self.cap_hits = 0
        self.guard_fallbacks = 0

    def gather(self, uflat, need_fixed=True):
        """Fresh neighbour values: the face rows and, per neighbour term, the
        fixed part of its g2 = |G|^2."""
        idx = self.idx
        faces = np.take(uflat, idx + self.face_offsets[:, None])
        if not need_fixed:
            return faces, None
        fixed = np.zeros((len(self.partners), idx.size))
        for m, (k, offs) in enumerate(self.partners):
            base = idx + self.face_offsets[k]
            for off in offs:
                diff = uflat[base + off] - faces[k]
                fixed[m] += diff * diff
        fixed *= self.inv_h2
        return faces, fixed

    def _face_slopes(self, s, faces):
        """Face differences e = s - nb, e^2, and e^2 / h^2, shared by all terms."""
        e = s - faces
        e2 = e * e
        return e, e2, e2 * self.inv_h2

    def _own_terms(self, g2_face):
        """(face rows, g2) of each own corner gradient."""
        for rows in self.orthants:
            yield rows, _row_sum(g2_face, rows)

    def _neighbour_terms(self, g2_face, fixed):
        """(face row, g2) of each neighbour corner gradient."""
        for m, (k, _) in enumerate(self.partners):
            yield k, g2_face[k] + fixed[m]

    def derivatives(self, spec, s, faces, fixed, with_value=False):
        """f'(s) and f''(s) of the local energy slice, and f(s) if asked.

        With g2 = |G|^2 of a term and s1 the sum of its face differences,
        the term adds phi s1 / h^2 to f' and phi n / h^2 + (phi'/g) s1^2 /
        h^4 to f'', n being the number of its edges that involve s.  The
        curvature floor applies to phi and phi'/g only, so the value is the
        same, bit for bit, as ``slice_value(s)``.
        """
        floor = _curvature_floor(spec)
        e, e2, g2_face = self._face_slopes(s, faces)
        fp = np.zeros_like(s)
        own_phi = np.zeros_like(s)
        nb_phi = np.zeros_like(s)
        curv = np.zeros_like(s)
        fv = np.zeros_like(s) if with_value else None
        for rows, g2 in self._own_terms(g2_face):
            phi, dphi = _newton_pair(spec, g2, floor)
            s1 = _row_sum(e, rows)
            fp += phi * s1
            own_phi += phi
            curv += dphi * (s1 * s1)
            if with_value:
                fv += integrand(spec, g2)
        for k, g2 in self._neighbour_terms(g2_face, fixed):
            phi, dphi = _newton_pair(spec, g2, floor)
            fp += phi * e[k]
            nb_phi += phi
            curv += dphi * e2[k]
            if with_value:
                fv += integrand(spec, g2)
        inv_h2 = self.inv_h2
        fpp = (self.ndim * own_phi + nb_phi) * inv_h2 + curv * (inv_h2 * inv_h2)
        return fp * inv_h2, fpp, fv

    def slice_value(self, spec, s, faces, fixed):
        """Local energy slice f(s): W summed over the terms touching s."""
        _, _, g2_face = self._face_slopes(s, faces)
        fv = np.zeros_like(s)
        for _, g2 in self._own_terms(g2_face):
            fv += integrand(spec, g2)
        for _, g2 in self._neighbour_terms(g2_face, fixed):
            fv += integrand(spec, g2)
        return fv

    def _newton_step(self, spec, s, faces, fixed, blo, bhi, with_value=False):
        """One bracketed Newton-or-bisection step from s inside [blo, bhi].

        Moves the bracket end on the uphill side of s to s, in place, and
        returns (s_next, f(s) when ``with_value`` else None): the Newton
        iterate where it falls inside the new bracket, its midpoint elsewhere.
        """
        fp, fpp, fv = self.derivatives(spec, s, faces, fixed, with_value=with_value)
        self.node_iterations += s.size
        np.copyto(bhi, s, where=fp > 0)
        np.copyto(blo, s, where=fp < 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = s - fp / fpp
        # NaN and infinite steps fail both tests: the bracket is finite.
        ok = (newton >= blo) & (newton <= bhi)
        return np.where(ok, newton, 0.5 * (blo + bhi)), fv

    def minimize(self, spec, s0, faces, fixed, with_value=False):
        """Bracketed Newton/bisection for the slice minimizers, vectorized.

        Returns (s, lo, hi, f0): the minimizers, the face-neighbour bracket,
        and f at the start point clip(s0, lo, hi) when ``with_value`` (else
        None).  A node leaves the batch as soon as its own step is at most
        1e-15 * (1 + max(|lo|, |hi|)), so each node takes as many
        iterations as it needs, at most 60.
        """
        lo = faces.min(axis=0)
        hi = faces.max(axis=0)
        s = np.clip(s0, lo, hi)
        out = np.empty_like(s)
        live = np.arange(s.size)
        blo = lo.copy()
        bhi = hi.copy()
        stop = 1e-15 * (1.0 + np.maximum(np.abs(lo), np.abs(hi)))
        f0 = None
        for it in range(60):
            s_next, fv = self._newton_step(
                spec, s, faces, fixed, blo, bhi, with_value=with_value and it == 0
            )
            if fv is not None:
                f0 = fv
            done = np.abs(s_next - s) <= stop
            s = s_next
            n_done = np.count_nonzero(done)
            if n_done == s.size:
                break
            if n_done:
                out[live] = s
                keep = np.flatnonzero(~done)
                live, s, blo, bhi, stop = (a[keep] for a in (live, s, blo, bhi, stop))
                faces = faces[:, keep]
                fixed = fixed[:, keep]
        else:
            self.cap_hits += s.size
        out[live] = s
        return out, lo, hi, f0

    def project(self, s, at=None):
        """s projected onto the obstacle at the batch's pinned nodes; ``at``
        selects the batch nodes that s holds (default: all of them)."""
        if self.pinned is None:
            return s
        mask = self.pinned if at is None else self.pinned[at]
        return np.where(mask, self.bound(s, self.target), s)

    def update(self, spec, s_old, faces, fixed, omega):
        """New values of the batch's nodes, from their current values s_old.

        The proposal s1 is relaxed by omega from s_old, clipped into the
        face-neighbour bracket [lo, hi] and projected onto the obstacle.  At
        t = 2, s1 is the exact slice minimizer, the face-neighbour mean.
        Otherwise s1 is one Newton step from clip(s_old, lo, hi), and the
        proposal is kept only where the slice there does not exceed f(s_old);
        the other nodes get the exact minimizer of ``minimize``, projected.
        """
        lo = faces.min(axis=0)
        hi = faces.max(axis=0)
        if spec.t == 2.0:
            # Both built-in kinds are linear at t = 2: the slice minimizer is
            # the face-neighbor mean.
            s1 = faces.sum(axis=0) / (2.0 * self.ndim)
            f_old = None
        else:
            # That step's Newton pass gives f at clip(s_old, lo, hi); only
            # where the clip moved s_old is f(s_old) evaluated afresh.
            start = np.clip(s_old, lo, hi)
            s1, f_old = self._newton_step(
                spec, start, faces, fixed, lo.copy(), hi.copy(), with_value=True
            )
            moved = np.flatnonzero((s_old < lo) | (s_old > hi))
            if moved.size:
                f_old[moved] = self.slice_value(
                    spec, s_old[moved], faces[:, moved], fixed[:, moved]
                )
        cand = s1 if omega == 1.0 else np.clip(s_old + omega * (s1 - s_old), lo, hi)
        cand = self.project(cand)
        if f_old is None:
            return cand
        # Compare against the CURRENT value, not the minimizer: the minimizer
        # always wins locally, so that test would reject nearly every relaxed
        # step.  Either branch keeps the sweep energy non-increasing.
        f_cand = self.slice_value(spec, cand, faces, fixed)
        reject = np.flatnonzero(~(f_cand <= f_old))
        if reject.size:
            self.guard_fallbacks += reject.size
            exact, _, _, _ = self.minimize(
                spec, s_old[reject], faces[:, reject], fixed[:, reject]
            )
            cand[reject] = self.project(exact, reject)
        return cand


def _build_colors(grid):
    dims = grid.dims
    interior = grid.labels == INTERIOR
    multi = np.indices(dims)
    parity = np.zeros(dims, dtype=np.int64)
    for k in range(grid.dim):
        parity = parity * 2 + (multi[k] % 2)
    colors = []
    for c in range(2**grid.dim):
        mask = interior & (parity == c)
        idx = np.flatnonzero(mask.ravel())
        if idx.size:
            colors.append(idx)
    return colors


# Sweep bound of every solve; converged solves stop long before it.
_MAX_SWEEPS = 100_000


def _auto_omega(grid):
    span = min((d - 1) * grid.h for d in grid.dims)
    if span <= 0:
        return 1.0
    return min(1.99, 2.0 / (1.0 + math.sin(math.pi * grid.h / span)))


def residual_breakdown(spec, grid, values, constraint=None):
    """Normalized residual split into free-node and obstacle-node parts.

    The raw weak residual scales like h^N with refinement; dividing by
    h^{N-2} recovers the classical stencil normalization (at t = 2 it is the
    familiar five/seven-point residual), so one tolerance works across grid
    sizes.  Nodes clamped at the obstacle may only push against it, so there
    the signed violation is reported: residual must be >= 0 for a lower
    obstacle, <= 0 for an upper one.
    """
    res = weak_residual(spec, Field(grid, values)).values.ravel()
    scale = grid.h ** (grid.dim - 2)
    res = res / scale
    interior = (grid.labels == INTERIOR).ravel()
    free = interior.copy()
    pinned_violation = 0.0
    pinned_count = 0
    if constraint is not None and constraint.indices.size:
        pinned = np.zeros_like(free)
        at = constraint.indices
        target = constraint.sign * constraint.height
        on_obstacle = values.ravel()[at] == target
        pinned[at[on_obstacle]] = True
        free &= ~pinned
        pinned_count = int(pinned.sum())
        if pinned_count:
            onesided = -constraint.sign * res[pinned]
            pinned_violation = float(np.max(onesided, initial=0.0))
    free_max = float(np.max(np.abs(res[free]))) if free.any() else 0.0
    return {
        "free_max": free_max,
        "pinned_violation": pinned_violation,
        "pinned_count": pinned_count,
        "combined": max(free_max, pinned_violation),
    }


def obstacle_verification(spec, grid, values, constraint, tol):
    """Checks that an obstacle field solves its problem, with v = sign * values.

    Over the interior nodes v stays within [-tol, m + tol] (``bounds_ok``), it
    equals m exactly on the constrained nodes (``equals_m_on_obstacle``), and
    the normalized residual is within tol off the obstacle and one-sided
    within tol on it (``residual_ok``).
    """
    split = residual_breakdown(spec, grid, values, constraint)
    interior = (grid.labels == INTERIOR).ravel()
    vals = constraint.sign * values.ravel()
    m = constraint.height
    ver = {
        "min_value": float(vals[interior].min()),
        "max_value": float(vals[interior].max()),
        "equals_m_on_obstacle": bool(np.all(vals[constraint.indices] == m)),
        "off_obstacle_residual": split["free_max"],
        "on_obstacle_violation": split["pinned_violation"],
        "residual_ok": split["free_max"] <= tol and split["pinned_violation"] <= tol,
    }
    ver["bounds_ok"] = ver["min_value"] >= -tol and ver["max_value"] <= m + tol
    return ver


def _energy_stride(grid):
    return 1 if grid.node_count() <= 150_000 else 8


def _relax(grid, spec, values, constraint, tol, max_sweeps, omega):
    """Relax ``values`` in place until both the max update and the normalized
    residual (one-sided at pinned nodes) are within tol, or max_sweeps."""
    uflat = values.ravel()
    colors = _build_colors(grid)
    workspaces = [_ColorWorkspace(grid, idx, constraint) for idx in colors]
    energy_stride = _energy_stride(grid)
    fld = Field(grid, values)
    energy_hist = [energy_of(spec, fld)]
    worst_uptick = 0.0
    max_upd = math.inf
    max_res = math.inf
    converged = False
    sweeps = 0
    last_res_check = -10
    for sweep in range(1, max_sweeps + 1):
        sweeps = sweep
        max_upd = 0.0
        for ws in workspaces:
            s_old = uflat[ws.idx]
            faces, fixed = ws.gather(uflat, need_fixed=spec.t != 2.0)
            s_new = ws.update(spec, s_old, faces, fixed, omega)
            step = float(np.max(np.abs(s_new - s_old), initial=0.0))
            if step > max_upd:
                max_upd = step
            uflat[ws.idx] = s_new
        if sweep % energy_stride == 0 or max_upd <= tol:
            e_now = energy_of(spec, fld)
            uptick = e_now - energy_hist[-1]
            if uptick > worst_uptick:
                worst_uptick = uptick
            energy_hist.append(e_now)
        if max_upd <= tol and sweep - last_res_check >= 4:
            last_res_check = sweep
            max_res = residual_breakdown(spec, grid, values, constraint)["combined"]
            if max_res <= tol:
                converged = True
                break
    if not converged:
        max_res = residual_breakdown(spec, grid, values, constraint)["combined"]
        converged = max_upd <= tol and max_res <= tol
    final_energy = energy_of(spec, fld)
    report = SolveReport(
        iterations=sweeps,
        energy=final_energy,
        max_update=max_upd,
        max_residual=max_res,
        converged=converged,
        notes={
            "omega": omega,
            "colors": len(colors),
            "energy_monotone": worst_uptick
            <= 1e-14 * (1.0 + abs(energy_hist[0])),
            "worst_energy_uptick": worst_uptick,
            "energy_first": energy_hist[0],
            "energy_last": final_energy,
            "energy_checks": len(energy_hist),
            "newton_node_iterations": sum(ws.node_iterations for ws in workspaces),
            "newton_cap_hits": sum(ws.cap_hits for ws in workspaces),
            "guard_fallbacks": sum(ws.guard_fallbacks for ws in workspaces),
        },
    )
    return report


def _require_potential(spec):
    if spec.kind == "custom":
        raise ValueError(
            "solver requires a potential-type operator spec; "
            "custom fields remain available through weak_residual"
        )


def _solve(grid, spec, values, constraint, tol):
    """Minimize the energy from the start ``values`` (overwritten with the
    solution), under ``constraint`` when it is not None.

    For t != 2 the same problem is first solved at t = 2 to the looser
    tolerance max(100 tol, 1e-6); its cheap linear sweeps leave a start close
    to the answer.  Returns (Field, SolveReport).
    """
    omega = _auto_omega(grid)
    presolve = None
    if spec.t != 2.0:
        pre = _relax(
            grid,
            replace(spec, t=2.0),
            values,
            constraint,
            max(tol * 100, 1e-6),
            _MAX_SWEEPS,
            omega,
        )
        presolve = {"iterations": pre.iterations, "converged": pre.converged}
    report = _relax(grid, spec, values, constraint, tol, _MAX_SWEEPS, omega)
    if presolve is not None:
        report.notes["presolve"] = presolve
    report.notes["task"] = "dirichlet" if constraint is None else "obstacle"
    fld = Field(grid, values)
    fld.validate_finite()
    return fld, report


def solve_dirichlet(grid, spec, data, tol=1e-8):
    """Minimize the discrete energy over interior nodes with Dirichlet data.

    ``data`` is a BoundaryData (or anything it accepts).  Returns
    (Field, SolveReport).  The iteration starts from the mean of the data.
    """
    _require_potential(spec)
    data = BoundaryData(data)
    boundary = (grid.labels == BOUNDARY).ravel()
    values = np.zeros(grid.dims)
    bvals = data.evaluate(grid.points()[boundary])
    if not np.all(np.isfinite(bvals)):
        raise ValueError("boundary data evaluated to non-finite values")
    values.ravel()[boundary] = bvals
    values[grid.labels == INTERIOR] = float(np.mean(bvals)) if bvals.size else 0.0
    return _solve(grid, spec, values, None, tol)


def solve_obstacle(grid, spec, constraint, tol=1e-8):
    """Minimize the energy over fields with zero boundary data above (below)
    the obstacle: u >= m on the constrained nodes for sign +1, u <= -m for
    sign -1.  Returns (Field, SolveReport)."""
    _require_potential(spec)
    constraint.validate_on(grid)
    values = np.zeros(grid.dims)
    if constraint.indices.size == 0:
        # Nothing to hold up: the unconstrained minimizer with zero data is
        # the zero field, already exact.
        fld = Field(grid, values)
        report = SolveReport(
            iterations=0,
            energy=energy_of(spec, fld),
            max_update=0.0,
            max_residual=0.0,
            converged=True,
            notes={"task": "obstacle", "obstacle_nodes": 0, "empty_obstacle": True},
        )
        return fld, report
    values.ravel()[constraint.indices] = constraint.sign * constraint.height
    fld, report = _solve(grid, spec, values, constraint, tol)
    report.notes["obstacle_nodes"] = int(constraint.indices.size)
    return fld, report


# ---------------------------------------------------------------------------
# Generalized solutions and comparison checks.
# ---------------------------------------------------------------------------


def _sphere_directions(dim, count):
    if dim == 2:
        ang = 2.0 * math.pi * (np.arange(count) + 0.5) / count
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    # Deterministic golden-spiral points on S^2, symmetrized so that the set
    # is exactly antipodal (affine data then mollifies to itself).
    half = max(1, count // 2)
    k = np.arange(half) + 0.5
    phi = math.pi * (3.0 - math.sqrt(5.0)) * k
    z = 1.0 - 2.0 * k / count
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    top = np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
    return np.concatenate([top, -top], axis=0)


def _mollify(data, points, width, dim, family):
    """Average the data over a sphere ('shell') or solid ball around points."""
    dirs = _sphere_directions(dim, 16 if dim == 2 else 32)
    if family == "sphere":
        radii = np.array([width])
        weights = np.ones(1)
    else:
        # Four equal-volume shells approximate the solid-ball average.
        shells = (np.arange(4) + 0.5) / 4.0
        radii = width * shells ** (1.0 / dim)
        weights = np.ones(4)
    weights = weights / weights.sum()
    out = np.zeros(points.shape[0])
    for r, w in zip(radii, weights):
        shifted = points[:, None, :] + r * dirs[None, :, :]
        vals = data.evaluate(shifted.reshape(-1, dim)).reshape(points.shape[0], -1)
        out += w * vals.mean(axis=1)
    return out


def generalized_solution(grid, spec, data, n_levels=3, tol=1e-8):
    """Solve against progressively less mollified data and track the Cauchy tail.

    Level k uses data averaged at width 2^-k * diam(domain).  The comparison
    principle bounds consecutive solutions by the boundary gap plus solver
    slack, which is recorded per level; a second mollifier family (ball
    averages instead of sphere averages) reruns the final level and the two
    results are compared.  Returns (Field, report dict).
    """
    _require_potential(spec)
    data = BoundaryData(data)
    diam = grid.shape.diameter()
    boundary = (grid.labels == BOUNDARY).ravel()
    interior = grid.labels == INTERIOR
    bpoints = grid.points()[boundary]
    levels = []
    solved = []
    for k in range(1, n_levels + 1):
        width = diam * 2.0**-k
        bvals = _mollify(data, bpoints, width, grid.dim, "sphere")
        fld, rep = solve_dirichlet(grid, spec, bvals, tol=tol)
        if not rep.converged:
            raise RuntimeError(f"inner solve at mollification level {k} did not converge")
        levels.append(
            {
                "level": k,
                "width": width,
                "iterations": rep.iterations,
                "converged": rep.converged,
            }
        )
        solved.append((bvals, fld))
    pairs = []
    for i in range(len(solved)):
        for j in range(i + 1, len(solved)):
            boundary_gap = float(np.max(np.abs(solved[i][0] - solved[j][0])))
            interior_gap = float(
                np.max(np.abs(solved[i][1].values - solved[j][1].values)[interior])
            )
            pairs.append(
                {
                    "levels": (i + 1, j + 1),
                    "boundary_gap": boundary_gap,
                    "interior_gap": interior_gap,
                    "cauchy_ok": bool(interior_gap <= boundary_gap + 2.0 * tol),
                }
            )
    final_bvals, final = solved[-1]
    ball_bvals = _mollify(data, bpoints, diam * 2.0**-n_levels, grid.dim, "ball")
    ball_field, _ = solve_dirichlet(grid, spec, ball_bvals, tol=tol)
    family_gap = float(np.max(np.abs(final.values - ball_field.values)[interior]))
    boundary_family_gap = float(np.max(np.abs(final_bvals - ball_bvals)))
    report = {
        "levels": levels,
        "pairs": pairs,
        "family_gap": family_gap,
        "boundary_family_gap": boundary_family_gap,
        "family_bound_ok": bool(family_gap <= boundary_family_gap + 2.0 * tol),
        "families_agree_4tol": bool(family_gap <= 4.0 * tol),
        "cauchy_ok": all(p["cauchy_ok"] for p in pairs),
    }
    return final, report


def verify_comparison(grid, spec, data_low, data_high, tol=1e-8):
    """Order and contraction checks for two Dirichlet solves.

    Verifies: solutions stay inside their data ranges; ordered data produce
    ordered solutions (up to tol); and the sup-distance between solutions is
    bounded by the boundary sup-distance plus 2*tol.
    """
    data_low = BoundaryData(data_low)
    data_high = BoundaryData(data_high)
    u, rep_u = solve_dirichlet(grid, spec, data_low, tol=tol)
    v, rep_v = solve_dirichlet(grid, spec, data_high, tol=tol)
    boundary = (grid.labels == BOUNDARY).ravel()
    interior = grid.labels == INTERIOR
    phi = data_low.evaluate(grid.points()[boundary])
    psi = data_high.evaluate(grid.points()[boundary])
    ui = u.values[interior]
    vi = v.values[interior]
    dominated = bool(np.all(phi <= psi + 1e-15))
    report = {
        "bounds_low_ok": bool(
            (ui.min() >= phi.min() - tol) and (ui.max() <= phi.max() + tol)
        ),
        "bounds_high_ok": bool(
            (vi.min() >= psi.min() - tol) and (vi.max() <= psi.max() + tol)
        ),
        "data_ordered": dominated,
        "order_ok": bool(np.all(ui <= vi + tol)) if dominated else None,
        "contraction_gap": float(np.max(np.abs(ui - vi))),
        "boundary_gap": float(np.max(np.abs(phi - psi))),
        "solves_converged": bool(rep_u.converged and rep_v.converged),
    }
    report["contraction_ok"] = bool(
        report["contraction_gap"] <= report["boundary_gap"] + 2.0 * tol
    )
    report["passed"] = all(
        v is True or v is None
        for k, v in report.items()
        if k.endswith("_ok") or k == "solves_converged"
    )
    return report
