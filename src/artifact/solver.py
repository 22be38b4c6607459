"""Variational solver: relaxation on the corner-quadrature energy.

Unknowns live at interior nodes; boundary-ring nodes carry Dirichlet data and
never move.  At every t a solve repeats one multilevel V-cycle
(``multigrid._Multigrid``) until it converges: smooth on the finest lattice,
correct along multilinear hat functions of the 2h, 4h, ... lattices, scaled
by a line search of the energy, and smooth once more.  It is a subspace
correction method in the sense of Tai & Xu (Math. Comp. 2002), whose
line-searched steps cannot raise the energy; ``iterations`` counts cycles
and the notes report ``grid_levels``.  The levels, transfers and coarsest
solve are in ``multigrid``; this module holds the t != 2 finest level and
the solve API.

Each node update lowers the global energy along its own coordinate.  The
local slice collects every integrand term that touches the node's value: its
own 2^N corner gradients plus, for each of the 2N face neighbors, the 2^{N-1}
corner gradients at that neighbor inside the shared cells (12 terms in 2D, 32
in 3D).  The slice is convex and its minimizer lies inside the face-neighbor
value range [lo, hi].  At t = 2 the minimizer is just the face-neighbor mean.
Otherwise an update takes one bracketed Newton-or-bisection step from the
current value clipped into [lo, hi] (one-step SOR-Newton at omega = 1:
Ortega & Rheinboldt, Iterative Solution of Nonlinear Equations in Several
Variables, 1970, section 10.3, show that it converges as fast asymptotically
as exact nonlinear Gauss-Seidel).  The 2N face differences are formed once
per update and shared by all terms; each term's phi, phi'/g and W come
from ``monotone.profile`` as functions of the squared gradient magnitude,
one power per term.  The step is kept only where it does not raise the
local slice above its value at the clipped start, which the Newton pass
supplies; every other node (``guard_fallbacks`` in the report notes) keeps
that start.  By convexity the slice there is no higher than at the current
value, since the minimizer lies in [lo, hi].

At t != 2 the finest level of the cycle (``_NewtonLevel``) smooths with
these guarded Newton sweeps, one parity class of its ``multigrid`` level
at a time, restricts the nonlinear residual to the coarse levels and, in
2D, supplies J(u) for their Galerkin operators.  It scales the correction
by a bracketed secant on the slope of the energy along it
(``line_search_slopes`` slope evaluations; ``corrections_skipped`` where no
step is certified).  Obstacle nodes stay fixed at +-m at every t, which is
exact (see ``multigrid._Multigrid``).

So the energy is non-increasing by construction for every t, cycle by cycle.
Every smoothing update stays inside its face-neighbor range.  A coarse
correction may leave that range in mid-cycle, so the discrete comparison
principle and the obstacle bounds hold at convergence, within tol, not
iterate by iterate; every cycle ends on a fine sweep.

Obstacle problems keep u >= m on the marked nodes for sign +1 and u <= -m
for sign -1, mirroring the reflected field.  Convergence requires both a
small max update and a small normalized residual: |dE/du_i| / h^{N-2} below
tolerance at free nodes, one-sided at pinned nodes.  So tol bounds those two
quantities, not the distance to the discrete solution, which can be larger.
Converged at tol = 1e-8, the h = 1/128 t = 3 obstacle field of scenario s01
lies 1.0e-9 from the same problem's tol = 1e-11 field, and the h = 1/64
field of the box region of scenario s14 lies 1.4e-9 from its own.

Dirichlet and obstacle problems share one solve path.  Every t != 2 solve,
of either kind, first solves the same problem (same data, same constraint)
at t = 2 to a looser tolerance and starts its own iteration from there.
Inside ``_solve_memo`` (one ``cli.run_suite`` call) a solve whose inputs
hash equal to an earlier one's gets copies of that solve's field and report
instead of running again.
"""

import collections
import copy
import hashlib
import json
import math
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field as dc_field, replace
from functools import partial

import numpy as np

from ._expr import Expression
from .domain.lattice import BOUNDARY, INTERIOR, _slabs
from .monotone import (
    Field,
    curvature_pair,
    energy as energy_of,
    hessian,
    inner,
    integrand,
    weak_residual,
)
from .multigrid import _face_offsets, _laplacian, _Multigrid, _strides

__all__ = [
    "BoundaryData",
    "ObstacleConstraint",
    "SolveReport",
    "solve_dirichlet",
    "solve_obstacle",
    "verify_comparison",
    "residual_breakdown",
    "obstacle_verification",
]


class BoundaryData:
    """Dirichlet data: a callable, an expression string or a constant."""

    def __init__(self, source=0.0):
        if isinstance(source, BoundaryData):
            self._eval = source._eval
        elif isinstance(source, str):
            self._eval = Expression(source)
        elif callable(source):
            self._eval = source
        else:
            const = float(source)
            self._eval = lambda pts: np.full(np.asarray(pts).shape[0], const)

    def evaluate(self, points):
        return np.asarray(self._eval(points), dtype=float)


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
        inside = grid.inside(shape, True) & (grid.labels == INTERIOR)
        return cls(np.flatnonzero(inside), height, sign)

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
        return asdict(self)


# ---------------------------------------------------------------------------
# Local slice machinery.
# ---------------------------------------------------------------------------


def _row_sum(arr, rows):
    total = arr[rows[0]]
    for r in rows[1:]:
        total = total + arr[r]
    return total


# The line search of a t != 2 coarse correction: at most this many slope
# evaluations, stopping at a certified step whose slope is down to this
# share of the slope at 0.
_SECANT_STEPS = 8
_SECANT_STOP = 0.01


class _NewtonLevel:
    """The finest level of a t != 2 cycle.

    It smooths with guarded one-step Newton sweeps over the parity classes
    of the free nodes (``sweep``, ``update``), supplies J(u) for Galerkin
    levels below it (``jacobian``), and scales each coarse correction c by
    a step alpha that lowers the convex phi(alpha) = E(u + alpha c).  The
    step comes from a bracketed secant (Illinois) on phi'(alpha) = <dE(u +
    alpha c), c>, started just short of <rho, c> / <c, A c>, A the level's
    operator: the Newton estimate under A = J(u), about 3x too long at t =
    3 under the plain K.  It is the largest evaluated alpha whose computed
    phi' is <= 0, so phi cannot have risen there (phi' is nondecreasing),
    and no step at all when no evaluated alpha > 0 has phi' <= 0.  The
    Newton estimate itself lands within rounding of the minimizer late in a
    solve, on its right as often as not, where the secant then spent up to
    7 slopes to certify a step.  On a lattice too small to coarsen a cycle
    is the two sweeps alone.

    A sweep takes the parity classes of ``level`` (its int32 ``classes``),
    one batch of nodes each.  The slice terms of a node are its own 2^N
    corner gradients, one per orthant, each built from N face differences
    s - nb; and, for each face neighbour, the 2^{N-1} corner gradients at
    that neighbour inside the shared cells, each one face difference plus
    fixed edges that do not involve s.  The face values of a batch are the
    rows of one (2N, n) array, row 2d + j holding the neighbour at offset
    (+1, -1)[j] along axis d; the fixed parts are the rows of one array
    too, one per neighbour term.  That geometry is the same for every
    class, so the level builds it once.
    """

    def __init__(self, grid, spec, level):
        self.grid = grid
        self.spec = spec
        self.scale = grid.h ** (grid.dim - 2)
        self.level = level
        ndim = grid.dim
        strides = _strides(grid.dims)
        self.inv_h2 = 1.0 / (grid.h * grid.h)
        self.face_offsets = _face_offsets(grid.dims)
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
        # Node updates where the guard rejected the one-step update; slope
        # evaluations of the line search, and corrections skipped.
        self.guard_fallbacks = 0
        self.slope_evaluations = 0
        self.skipped = 0

    def sweep(self, values):
        """One guarded Newton sweep over the free nodes, in place.  Each
        class is indexed through one intp array made from the int32 class,
        so no gather converts an int32 index; the sweep makes them all up
        front (made one at a time, between the gathers' temporaries, they
        raised batch-repeat's peak RSS by 0.2 MB: heap layout)."""
        uflat = values.ravel()
        for idx in [idx.astype(np.intp) for idx in self.level.classes]:
            faces, fixed = self.gather(uflat, idx)
            uflat[idx] = self.update(uflat[idx], faces, fixed)

    def gather(self, uflat, idx):
        """Fresh neighbour values of the nodes ``idx`` (intp): the face rows
        and, per neighbour term, the fixed part of its g2 = |G|^2."""
        faces = np.take(uflat, idx + self.face_offsets[:, None])
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

    def derivatives(self, s, faces, fixed):
        """f'(s), f''(s) and f(s) of the local energy slice.

        With g2 = |G|^2 of a term and s1 the sum of its face differences,
        the term adds phi s1 / h^2 to f' and phi n / h^2 + (phi'/g) s1^2 /
        h^4 to f'', n being the number of its edges that involve s.  The
        curvature floor of ``curvature_pair`` applies to phi and phi'/g
        only, so the value is the same, bit for bit, as ``slice_value(s)``.
        """
        spec = self.spec
        e, e2, g2_face = self._face_slopes(s, faces)
        fp = np.zeros_like(s)
        own_phi = np.zeros_like(s)
        nb_phi = np.zeros_like(s)
        curv = np.zeros_like(s)
        fv = np.zeros_like(s)
        for rows, g2 in self._own_terms(g2_face):
            phi, dphi = curvature_pair(spec, g2)
            s1 = _row_sum(e, rows)
            fp += phi * s1
            own_phi += phi
            curv += dphi * (s1 * s1)
            fv += integrand(spec, g2)
        for k, g2 in self._neighbour_terms(g2_face, fixed):
            phi, dphi = curvature_pair(spec, g2)
            fp += phi * e[k]
            nb_phi += phi
            curv += dphi * e2[k]
            fv += integrand(spec, g2)
        inv_h2 = self.inv_h2
        fpp = (self.grid.dim * own_phi + nb_phi) * inv_h2 + curv * (inv_h2 * inv_h2)
        return fp * inv_h2, fpp, fv

    def slice_value(self, s, faces, fixed):
        """Local energy slice f(s): W summed over the terms touching s."""
        _, _, g2_face = self._face_slopes(s, faces)
        fv = np.zeros_like(s)
        for _, g2 in self._own_terms(g2_face):
            fv += integrand(self.spec, g2)
        for _, g2 in self._neighbour_terms(g2_face, fixed):
            fv += integrand(self.spec, g2)
        return fv

    def update(self, s_old, faces, fixed):
        """New values of a batch's nodes, from their current values s_old.

        The proposal is one bracketed Newton-or-bisection step from start =
        clip(s_old, lo, hi): the Newton iterate where it falls inside the
        bracket narrowed to the downhill side of start, that bracket's
        midpoint elsewhere.  It is kept only where the slice there does not
        exceed f(start); the other nodes keep start.  Both stay in the
        face-neighbour bracket [lo, hi], and f(start) <= f(s_old) because
        the slice is convex with its minimizer in [lo, hi].
        """
        lo = faces.min(axis=0)
        hi = faces.max(axis=0)
        start = np.clip(s_old, lo, hi)
        fp, fpp, f_start = self.derivatives(start, faces, fixed)
        np.copyto(hi, start, where=fp > 0)
        np.copyto(lo, start, where=fp < 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = start - fp / fpp
        # NaN and infinite steps fail both tests: the bracket is finite.
        inside = (newton >= lo) & (newton <= hi)
        cand = np.where(inside, newton, 0.5 * (lo + hi))
        # A NaN slice value fails the test too and keeps start.
        reject = ~(self.slice_value(cand, faces, fixed) <= f_start)
        self.guard_fallbacks += int(np.count_nonzero(reject))
        return np.where(reject, start, cand)

    def _gradient(self, values):
        """dE/du / h^{N-2}, zero off the free nodes."""
        grad = weak_residual(self.spec, Field(self.grid, values)).values
        grad /= self.scale
        np.copyto(grad, 0.0, where=~self.level.free)
        return grad

    def residual(self, values):
        """rho = -dE/du / h^{N-2}, zero off the free nodes."""
        return np.negative(self._gradient(values))

    def jacobian(self, values):
        """J(u), the Hessian of E / h^{N-2}, as a ``monotone.hessian``
        stencil."""
        stencil = hessian(self.spec, Field(self.grid, values))
        for entries in stencil.values():
            entries /= self.scale
        return stencil

    def correct(self, values, slope, c):
        """values += alpha c, alpha from the line search (in place); ``slope``
        is <rho, c>, rho the residual (``_Multigrid._correction``)."""
        slope0 = -slope
        curvature = self.level.curvature(c)
        if not (slope0 < 0.0 and curvature > 0.0):
            self.skipped += 1
            return
        # A shade short of the Newton estimate: where the quadratic model is
        # exact, the slope there sits mid-way in the accepted window.
        alpha = -slope0 / curvature * (1.0 - 0.5 * _SECANT_STOP)
        lo, g_lo = 0.0, slope0
        hi = g_hi = None
        last = 0
        for _ in range(_SECANT_STEPS):
            self.slope_evaluations += 1
            g = inner(self._gradient(values + alpha * c), c)
            if g <= 0.0:
                lo, g_lo = alpha, g
                if g >= _SECANT_STOP * slope0:
                    break
                # Illinois: when one end moves twice running, the secant
                # halves the other end's slope.
                if last < 0 and hi is not None:
                    g_hi *= 0.5
                last = -1
            else:
                hi, g_hi = alpha, g
                if last > 0:
                    g_lo *= 0.5
                last = 1
            alpha = 2.0 * alpha if hi is None else lo - g_lo * (hi - lo) / (g_hi - g_lo)
        if lo > 0.0:
            c *= lo
            values += c
        else:
            self.skipped += 1


# Cycle bound of every solve; converged solves stop long before it.
_MAX_CYCLES = 100_000


def residual_breakdown(spec, grid, values, constraint=None):
    """Normalized residual split into free-node and obstacle-node parts.

    The raw weak residual scales like h^N with refinement; dividing by
    h^{N-2} recovers the classical stencil normalization, so one tolerance
    works across grid sizes.  At t = 2 both kinds have A(p) = p, and the
    normalized residual on the interior nodes is the five/seven-point K u
    itself, boundary values included (``_laplacian``): it agrees with
    ``weak_residual`` to rounding, takes about 3 ms against 110 ms on an
    83^3 grid, and is made and reduced slab by slab.  Other t take
    ``weak_residual``.  Nodes clamped at the obstacle may only push
    against it, so there the signed violation is reported: residual must
    be >= 0 for a lower obstacle, <= 0 for an upper one, one max over the
    held nodes in flat order (a max over signed zeros keeps the sign its
    order gives).
    """
    free = grid.labels == INTERIOR
    if constraint is not None:
        at = constraint.indices
        free.ravel()[at[values.ravel()[at] == constraint.sign * constraint.height]] = False
    if spec.t == 2.0:
        residual = partial(_laplacian, values, None)
    else:
        weak = weak_residual(spec, Field(grid, values)).values
        weak /= grid.h ** (grid.dim - 2)
        residual = lambda planes: weak[slice(*planes)]
    pinned, maxima = [], []
    for a, b in _slabs(values.shape):
        res = residual((a, b))
        pinned.append(res[(grid.labels[a:b] == INTERIOR) & ~free[a:b]])
        # In place, over the free nodes: a max is exact, so no gathered copy.
        maxima.append(np.max(np.abs(res, out=res), where=free[a:b], initial=0.0))
    free_max = float(np.max(maxima, initial=0.0))
    pinned = np.concatenate(pinned)
    pinned_violation = 0.0
    if pinned.size:
        pinned_violation = float(np.max(-constraint.sign * pinned, initial=0.0))
    return {
        "free_max": free_max,
        "pinned_violation": pinned_violation,
        "pinned_count": int(pinned.size),
        "combined": max(free_max, pinned_violation),
    }


def obstacle_verification(spec, grid, values, constraint, tol):
    """Checks that an obstacle field solves its problem, with v = sign * values.

    Over the interior nodes v stays within [-tol, m + tol] (``bounds_ok``), it
    equals m exactly on the constrained nodes (``equals_m_on_obstacle``), and
    the normalized residual is within tol off the obstacle and one-sided
    within tol on it (``residual_ok``).  The extremes of v are those of the
    values over the interior, reduced in place, the sign applied to the two
    scalars (negation is exact).
    """
    split = residual_breakdown(spec, grid, values, constraint)
    interior = grid.labels == INTERIOR
    low = float(np.min(values, where=interior, initial=math.inf))
    high = float(np.max(values, where=interior, initial=-math.inf))
    if constraint.sign < 0:
        low, high = -high, -low
    m = constraint.height
    ver = {
        "min_value": low,
        "max_value": high,
        "equals_m_on_obstacle": bool(
            np.all(values.ravel()[constraint.indices] == constraint.sign * m)
        ),
        "off_obstacle_residual": split["free_max"],
        "on_obstacle_violation": split["pinned_violation"],
        "residual_ok": split["free_max"] <= tol and split["pinned_violation"] <= tol,
    }
    ver["bounds_ok"] = ver["min_value"] >= -tol and ver["max_value"] <= m + tol
    return ver


def _energy_stride(grid):
    return 1 if grid.node_count() <= 150_000 else 8


def _relax(grid, spec, values, constraint, tol, max_cycles, check_energy=True):
    """Relax ``values`` in place until both the max update and the normalized
    residual (one-sided at pinned nodes) are within tol, or max_cycles cycles.

    A cycle is one ``_Multigrid`` V-cycle, whose finest level is a
    ``_NewtonLevel`` at t != 2; ``iterations`` counts cycles.  Every
    constraint node must start at the obstacle height.  With
    ``check_energy`` false no energy is computed: the report holds the cycle
    count, the last max update and residual, and convergence only.
    """
    uflat = values.ravel()
    if constraint is not None and np.any(
        uflat[constraint.indices] != constraint.sign * constraint.height
    ):
        raise ValueError("every constraint node must start at the obstacle height")
    fld = Field(grid, values)
    # The first energy runs before the cycle's index arrays exist, so its
    # temporaries never sit beside them.
    energy_hist = [energy_of(spec, fld)] if check_energy else None
    multigrid = _Multigrid(grid, constraint, galerkin=spec.t != 2.0 and grid.dim == 2)
    newton = None if spec.t == 2.0 else _NewtonLevel(grid, spec, multigrid.levels[0])
    one_cycle = partial(multigrid.cycle, values, newton)
    notes = {
        "grid_levels": len(multigrid.levels),
        "colors": len(multigrid.levels[0].classes),
    }
    energy_stride = _energy_stride(grid)
    checked = False
    worst_uptick = 0.0
    max_upd = math.inf
    max_res = math.inf
    converged = False
    cycles = 0
    last_res_check = -10
    for cycle in range(1, max_cycles + 1):
        cycles = cycle
        max_upd = one_cycle()
        checked = check_energy and (cycle % energy_stride == 0 or max_upd <= tol)
        if checked:
            e_now = energy_of(spec, fld)
            uptick = e_now - energy_hist[-1]
            if uptick > worst_uptick:
                worst_uptick = uptick
            energy_hist.append(e_now)
        if max_upd <= tol and cycle - last_res_check >= 4:
            last_res_check = cycle
            max_res = residual_breakdown(spec, grid, values, constraint)["combined"]
            if max_res <= tol:
                converged = True
                break
    if not converged:
        max_res = residual_breakdown(spec, grid, values, constraint)["combined"]
        converged = max_upd <= tol and max_res <= tol
    if not check_energy:
        return SolveReport(
            iterations=cycles, max_update=max_upd, max_residual=max_res, converged=converged
        )
    # A checked last cycle (always so when converged: max update <= tol
    # forces the check) already holds the energy of the final field.
    final_energy = energy_hist[-1] if checked else energy_of(spec, fld)
    notes.update(
        {
            "energy_monotone": worst_uptick <= 1e-14 * (1.0 + abs(energy_hist[0])),
            "worst_energy_uptick": worst_uptick,
            "energy_first": energy_hist[0],
            "energy_last": final_energy,
            "energy_checks": len(energy_hist),
            "guard_fallbacks": 0 if newton is None else newton.guard_fallbacks,
            "coarsest_nodes": multigrid.levels[-1].dense_nodes,
        }
    )
    if newton is not None:
        notes["line_search_slopes"] = newton.slope_evaluations
        notes["corrections_skipped"] = newton.skipped
    return SolveReport(
        iterations=cycles,
        energy=final_energy,
        max_update=max_upd,
        max_residual=max_res,
        converged=converged,
        notes=notes,
    )


# The solve memo: None, or while ``_solve_memo`` is open, its _Memo.
_memo = None
_memo_guard = threading.Lock()
# Per thread: the hit/miss counts of the open ``_solve_counts`` block, if any.
_tally = threading.local()


class _MemoEntry:
    """One memoized solve: its ``_memo_tag``, its lock, then its field and
    report once solved."""

    def __init__(self, tag):
        self.tag = tag
        self.lock = threading.Lock()
        self.result = None


def _memo_tag(spec, tol, h):
    """The operator, tolerance and spacing of a solve: a later scenario can
    ask for that solve again only if it shares all three."""
    return (json.dumps(spec.to_dict(), sort_keys=True), float(tol), float(h))


class _Memo(dict):
    """The open solve memo: each kept solve's _MemoEntry by ``_solve_key``.

    It keeps every solve until ``share`` tells it which ``_memo_tag``s the
    scenarios of a run can ask for.  From then on a solve is kept only if
    a scenario other than the one that ran it can ask for it, and only
    until every scenario that can has finished (``release``)."""

    # Per tag, the unfinished scenarios that can ask for it; None: keep all.
    shares = None

    def share(self, tag_sets):
        """Count the tags of every scenario, one set of tags each."""
        with _memo_guard:
            self.shares = collections.Counter(tag for tags in tag_sets for tag in tags)

    def release(self, tags):
        """A scenario with these tags has finished: drop the solves that no
        unfinished scenario can ask for."""
        with _memo_guard:
            self.shares.subtract(tags)
            for key in [key for key, entry in self.items() if self.shares[entry.tag] < 1]:
                del self[key]

    def keeps(self, tag):
        """Whether a solve just run with this tag is worth keeping: the
        scenario running it and another can ask for it.  Call it holding
        ``_memo_guard``."""
        return self.shares is None or self.shares[tag] >= 2


@contextmanager
def _solve_memo():
    """Inside the block, a solve whose inputs hash equal to an earlier one's
    gets copies of that solve's field and report instead of running again.
    Concurrent equal solves run once: the later ones wait for the first.
    A solve that raises is not kept.  The block yields the _Memo."""
    global _memo
    outer = _memo
    _memo = _Memo()
    try:
        yield _memo
    finally:
        _memo = outer


@contextmanager
def _solve_counts():
    """Yield {"hits", "misses"}, counting the solves this thread asks for
    inside the block: memo hits, and solves that ran."""
    outer = getattr(_tally, "counts", None)
    _tally.counts = {"hits": 0, "misses": 0}
    try:
        yield _tally.counts
    finally:
        _tally.counts = outer


def _count(kind):
    counts = getattr(_tally, "counts", None)
    if counts is not None:
        counts[kind] += 1


def _solve_key(grid, spec, values, constraint, tol):
    """sha256 of everything that determines ``_solve``'s result: the grid's
    labels, origin, spacing and dims, the spec, the whole start field (it
    carries the boundary data), the constraint and tol.  Each part is
    length-prefixed, so no two different inputs concatenate alike.  Arrays
    are hashed through their C-ordered buffers (``tobytes``'s bytes) with no
    copy unless an array is not C-contiguous."""
    parts = [
        grid.labels,
        grid.origin,
        repr((grid.h, grid.dims, tol)).encode(),
        json.dumps(spec.to_dict(), sort_keys=True).encode(),
        values,
    ]
    if constraint is None:
        parts.append(b"no constraint")
    else:
        parts.append(constraint.indices)
        parts.append(repr((constraint.height, constraint.sign)).encode())
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            part = np.ascontiguousarray(part).reshape(-1).view(np.uint8)
        digest.update(len(part).to_bytes(8, "little"))
        digest.update(part)
    return digest.hexdigest()


def _solve(grid, spec, values, constraint, tol):
    """Minimize the energy from the start ``values`` (overwritten with the
    solution), under ``constraint`` when it is not None.  Returns (Field,
    SolveReport); inside ``_solve_memo`` an equal earlier solve's answer is
    copied out instead (the caller owns the field and report either way)."""
    memo = _memo
    if memo is None:
        _count("misses")
        return _solve_fresh(grid, spec, values, constraint, tol)
    key = _solve_key(grid, spec, values, constraint, tol)
    with _memo_guard:
        entry = memo.setdefault(key, _MemoEntry(_memo_tag(spec, tol, grid.h)))
    with entry.lock:
        if entry.result is None:
            _count("misses")
            fld, report = _solve_fresh(grid, spec, values, constraint, tol)
            # Under the guard, so that no ``release`` falls between the
            # check and the store.
            with _memo_guard:
                if memo.keeps(entry.tag):
                    entry.result = (values.copy(), copy.deepcopy(report))
                elif memo.get(key) is entry:
                    del memo[key]
            return fld, report
    stored, report = entry.result
    np.copyto(values, stored)
    _count("hits")
    return Field(grid, values), copy.deepcopy(report)


def _solve_fresh(grid, spec, values, constraint, tol):
    """``_solve`` without the memo.

    For t != 2 the same problem is first solved at t = 2 to the looser
    tolerance max(100 tol, 1e-6); its cheap linear sweeps leave a start close
    to the answer.
    """
    presolve = None
    if spec.t != 2.0:
        pre = _relax(
            grid,
            replace(spec, t=2.0),
            values,
            constraint,
            max(tol * 100, 1e-6),
            _MAX_CYCLES,
            check_energy=False,
        )
        presolve = {"iterations": pre.iterations, "converged": pre.converged}
    report = _relax(grid, spec, values, constraint, tol, _MAX_CYCLES)
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
# Comparison checks.
# ---------------------------------------------------------------------------


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
