"""Variational solver: relaxation on the corner-quadrature energy.

Unknowns live at interior nodes; boundary-ring nodes carry Dirichlet data and
never move.  At every t a solve repeats one multilevel V-cycle
(``_Multigrid``) until it converges: smooth on the finest lattice, correct
along multilinear hat functions of the 2h, 4h, ... lattices, scaled by a
line search of the energy, and smooth once more.  The coarsest lattice is
solved exactly, with a dense inverse of its operator.  It
is a subspace correction method in the sense of Tai & Xu (Math. Comp.
2002), whose line-searched steps cannot raise the energy; ``iterations``
counts cycles and the notes report ``grid_levels``.  A smoothing sweep
visits the 2^N lattice parities of the free nodes in fixed order; nodes of
one parity never share a cell, so a whole parity class updates in a single
vectorized step that is exactly equivalent to sequential relaxation.

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

At t = 2 every level of a cycle is the plain 5/7-point Laplacian K and its
correction takes the exact line search.  At t != 2 the cycle is
Newton-multigrid (Trottenberg, Oosterlee & Schueller, Multigrid, 2001).
The finest level (``_NewtonLevel``) smooths with the guarded Newton sweeps
and restricts the nonlinear residual to the coarse levels.  In 2D these
are Galerkin products P^T A P of the level above, starting from A = J(u),
the energy's Hessian at the current field (``monotone.hessian``), rebuilt
every cycle from the stencil arrays; Galerkin coarse operators hold up on
holes and thin Dirichlet sets such as the slit caps (Alcouffe, Brandt,
Dendy & Painter, SIAM J. Sci. Stat. Comput. 1981).  In 3D they stay the
plain K (see ``_Multigrid``).  The finest level
scales the correction by a bracketed secant on the slope of the energy
along it (``line_search_slopes`` slope evaluations; ``corrections_skipped``
where no step is certified).  Obstacle nodes stay fixed at +-m at every t,
which is exact (see ``_Multigrid``).

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
import itertools
import json
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field, replace
from functools import partial

import numpy as np

from ._expr import Expression
from .domain.lattice import BOUNDARY, INTERIOR, _slabs, dilate
from .monotone import (
    Field,
    curvature_pair,
    energy as energy_of,
    hessian,
    inner,
    integrand,
    offset_slices,
    weak_residual,
)

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
    The batch's indices are kept as intp, converted once from the int32
    parity class: each sweep indexes with them, and every use of an int32
    index array converts it again (with the conversions batch-repeat's
    peak RSS read 0.3-0.4 MB higher, its traced peak lower).
    """

    def __init__(self, grid, idx):
        self.idx = idx.astype(np.intp)
        dims = grid.dims
        ndim = grid.dim
        strides = _strides(dims)
        self.ndim = ndim
        self.inv_h2 = 1.0 / (grid.h * grid.h)
        self.face_offsets = _face_offsets(dims)
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
        # Node updates where the guard rejected the one-step update.
        self.guard_fallbacks = 0

    def gather(self, uflat):
        """Fresh neighbour values: the face rows and, per neighbour term, the
        fixed part of its g2 = |G|^2."""
        idx = self.idx
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

    def derivatives(self, spec, s, faces, fixed):
        """f'(s), f''(s) and f(s) of the local energy slice.

        With g2 = |G|^2 of a term and s1 the sum of its face differences,
        the term adds phi s1 / h^2 to f' and phi n / h^2 + (phi'/g) s1^2 /
        h^4 to f'', n being the number of its edges that involve s.  The
        curvature floor of ``curvature_pair`` applies to phi and phi'/g
        only, so the value is the same, bit for bit, as ``slice_value(s)``.
        """
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

    def update(self, spec, s_old, faces, fixed):
        """New values of the batch's nodes, from their current values s_old.

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
        fp, fpp, f_start = self.derivatives(spec, start, faces, fixed)
        np.copyto(hi, start, where=fp > 0)
        np.copyto(lo, start, where=fp < 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = start - fp / fpp
        # NaN and infinite steps fail both tests: the bracket is finite.
        inside = (newton >= lo) & (newton <= hi)
        cand = np.where(inside, newton, 0.5 * (lo + hi))
        # A NaN slice value fails the test too and keeps start.
        reject = ~(self.slice_value(spec, cand, faces, fixed) <= f_start)
        self.guard_fallbacks += int(np.count_nonzero(reject))
        return np.where(reject, start, cand)


def _strides(dims):
    """Flat-index step of one node along each axis of a C-ordered array."""
    return [math.prod(dims[k + 1 :]) for k in range(len(dims))]


def _face_offsets(dims):
    """Flat offsets to the 2N face neighbours, row 2d + j at (+1, -1)[j]
    along axis d."""
    return np.array([sgn * step for step in _strides(dims) for sgn in (1, -1)])


def _parity_classes(mask):
    """Flat indices of the nodes of ``mask``, one int32 array per lattice
    parity (nodes of one parity share no cell), empty classes left out.
    A level keeps its classes for the whole solve, and int32 halves them;
    a lattice of 2^31 nodes or more, which no int32 index reaches, is
    refused."""
    if mask.size >= 2**31:
        raise ValueError(f"a lattice of {mask.size} nodes is past int32 indices")
    parity = np.zeros(mask.shape, dtype=np.int8)
    for coord in np.ogrid[tuple(slice(d) for d in mask.shape)]:
        parity = parity * 2 + (coord % 2).astype(np.int8)
    classes = []
    for c in range(2 ** mask.ndim):
        idx = np.flatnonzero((mask & (parity == c)).ravel())
        if idx.size:
            classes.append(idx.astype(np.int32))
    return classes


# ---------------------------------------------------------------------------
# Multilevel passes.
# ---------------------------------------------------------------------------

# A level halves only the axes that stay at least _MIN_COARSE_DIM nodes
# long; coarsening stops before a level with fewer free nodes, or when no
# axis can be halved.  That bounds the coarsest level's dense system.
_MIN_COARSE_NODES = 64
_MIN_COARSE_DIM = 5


def _along(axis, ndim, sl):
    """Index tuple applying slice ``sl`` on one axis of an ndim array."""
    return (slice(None),) * axis + (sl,) + (slice(None),) * (ndim - axis - 1)


def _halve(ndim, axes):
    """Index tuple taking every other node along ``axes``."""
    return tuple(slice(None, None, 2) if k in axes else slice(None) for k in range(ndim))


def _halved_axes(fine_shape, coarse_shape):
    """The axes a coarse lattice halves: the others keep their length."""
    return [k for k, (n, m) in enumerate(zip(fine_shape, coarse_shape)) if n != m]


class _Level:
    """One lattice of the hierarchy: the free-node mask, its parity classes
    and its operator A on the free nodes.  A is the plain 2N + 1 point K,
    K x = 2N x_i minus the face neighbours of i, or, once ``set_stencil``
    has stored one, a 3^N-point stencil {o: F_o} over every o in {-1, 0,
    1}^N with F_o[i] = A[i, i + o] (``monotone.hessian``'s layout).  Either
    way A couples no two nodes of one parity, so a parity class relaxes in
    one vectorized step.

    What the walkers read on every call is fixed at construction: the
    level's ``_slabs`` with the free-node count of each, and, below the
    finest level (``fine_shape`` the shape of the level above), the
    ``axes`` it halves and the slabs of its planes that a restriction
    walks, each with the fine planes it reads.  So ``lattice._SLAB_NODES``
    counts when a level is built.  Besides the mask, the level keeps for
    the whole solve only its classes (4 bytes a free node), its stencil
    and its coarsest inverse; a walker takes ~free of the planes it
    touches when it needs the non-free nodes."""

    def __init__(self, free, fine_shape=None):
        self.free = free
        self.classes = _parity_classes(free)
        self.offsets = _face_offsets(free.shape)
        self.slabs = [(a, b, int(np.count_nonzero(free[a:b]))) for a, b in _slabs(free.shape)]
        self.free_count = sum(count for _, _, count in self.slabs)
        self.axes = self.restriction = None
        if fine_shape is not None:
            self.axes = _halved_axes(fine_shape, free.shape)
            step = 2 if self.axes[0] == 0 else 1
            plane = step * math.prod(fine_shape[1:])
            self.restriction = [(a, b, step * a, min(step * b, fine_shape[0]))
                                for a, b in _slabs(free.shape, plane)]
        self.stencil = None
        # Per parity class of a stencil operator: the node indices, the
        # coefficient of each off-diagonal offset and the inverse diagonal.
        self._rows = None
        # The nodes and dense inverse of ``solve``, and the size of the
        # largest dense system built on this level so far.
        self._inverse = None
        self.dense_nodes = 0

    def set_stencil(self, stencil):
        """Make ``stencil`` A, its couplings of non-free nodes and its
        entries with no neighbour at their offset zeroed in place; None
        makes A the plain K again."""
        for offset, entries in (stencil or {}).items():
            lo, hi = offset_slices(offset)
            keep = np.zeros(self.free.shape, dtype=bool)
            keep[lo] = self.free[lo] & self.free[hi]
            np.copyto(entries, 0.0, where=~keep)
        self.stencil = stencil
        self._rows = None
        self._inverse = None

    def solve(self, x, rhs=None):
        """x += A^-1 (rhs - A x) on the free nodes of positive diagonal, in
        place (rhs None: zero), A^-1 the dense inverse of A on those nodes.
        The residual is ``residual``'s, so it sees the values of x at non-free
        nodes; free nodes of zero diagonal keep their values, as a sweep
        leaves them."""
        idx, inverse = self._dense_inverse()
        residual = self.residual(x, rhs, 0, len(x)).ravel()[idx]
        for matrix in inverse:
            residual = np.einsum("ij,j->i", matrix, residual)
        x.ravel()[idx] += residual

    def _dense_inverse(self):
        """The flat indices of the free nodes of positive diagonal and A^-1
        on them as a product of matrices, applied in turn, built once per
        operator: M then M^T for M = L^-1, L the Cholesky factor of A
        (``_inverse_cholesky``, which writes M over the block, so the build
        holds one n x n array).  A block that is not positive definite, a
        free island that no coupling ties to a fixed node, gets its
        pseudo-inverse, of the block built again: the failed factor has
        written over part of the first one."""
        if self._inverse is None:
            kept, dense = self._dense_block()
            size = dense.shape[0]
            factor = _inverse_cholesky(dense)
            del dense
            if factor is None:
                inverse = (np.linalg.pinv(self._dense_block()[1], hermitian=True),)
            else:
                inverse = (factor, factor.T)
            self._inverse = (np.flatnonzero(kept), inverse)
            self.dense_nodes = max(self.dense_nodes, size)
        return self._inverse

    def _dense_block(self):
        """The mask of the free nodes of positive diagonal and A on them as
        a dense matrix, the nodes in flat order."""
        shape, ndim = self.free.shape, self.free.ndim
        if self.stencil is None:
            diag = np.full(shape, 2.0 * ndim)
            minus_one = np.broadcast_to(-1.0, shape)
            couplings = {
                tuple(sgn * int(k == axis) for k in range(ndim)): minus_one
                for axis in range(ndim)
                for sgn in (1, -1)
            }
        else:
            diag = self.stencil[(0,) * ndim]
            couplings = {o: e for o, e in self.stencil.items() if any(o)}
        kept = self.free & (diag > 0)
        n = int(np.count_nonzero(kept))
        position = np.full(shape, -1)
        position[kept] = np.arange(n)
        dense = np.zeros((n, n))
        np.fill_diagonal(dense, diag[kept])
        for offset, entries in couplings.items():
            lo, hi = offset_slices(offset)
            rows, cols = position[lo], position[hi]
            both = (rows >= 0) & (cols >= 0)
            dense[rows[both], cols[both]] = entries[lo][both]
        return kept, dense

    def sweep(self, flat, rhs=None):
        """One parity Gauss-Seidel sweep on A x = rhs (rhs None: zero), in
        place on the flat array: each free node takes the exact minimizer of
        its slice; under K that is the face-neighbour mean (plus rhs / 2N).
        Under K a class adds one gathered face neighbour at a time, in the
        order of ``offsets``: the sum is the same, bit for bit, as summing
        a stacked gather over its rows, with no (2N, n) index array.  Each
        gather, the rhs gather and the scatter of the result read a
        shifted view (of ``flat`` or rhs) at one intp index array per
        class, made once a sweep from the int32 class: idx - reach (reach
        the largest stride), which no free node makes negative as none
        lies on the box rim.  So no take converts an int32 index."""
        if self.stencil is not None:
            offsets, rows = self._stencil_rows()
            for idx, coef, inv_diag in rows:
                nb = np.take(flat, idx + offsets, mode="clip")
                total = np.einsum("ij,ij->j", coef, nb)
                if rhs is not None:
                    np.subtract(rhs[idx], total, out=total)
                else:
                    np.negative(total, out=total)
                flat[idx] = total * inv_diag
            return
        denom = 2.0 * self.free.ndim
        reach = int(self.offsets[0])
        first, *rest = self.offsets + reach
        for idx in self.classes:
            base = np.subtract(idx, reach, dtype=np.intp)
            total = flat[first:].take(base)
            for start in rest:
                total += flat[start:].take(base)
            if rhs is not None:
                total += rhs[reach:].take(base)
            total /= denom
            flat[reach:][base] = total

    def _stencil_rows(self):
        """Flat offsets (a column) and per-class rows of the stencil, each
        with its class's indices as intp, as ``_ColorWorkspace`` keeps
        them.  A neighbour past the box edge has coefficient 0; its clipped
        index reads some finite value of the level's field."""
        if self._rows is None:
            shape = self.free.shape
            couplings = {o: e.ravel() for o, e in self.stencil.items() if any(o)}
            strides = _strides(shape)
            offsets = np.array([[np.dot(o, strides)] for o in couplings])
            diag = self.stencil[(0,) * len(shape)].ravel()
            rows = []
            for idx in self.classes:
                idx = idx.astype(np.intp)
                coef = np.stack([entries[idx] for entries in couplings.values()])
                d = diag[idx]
                rows.append((idx, coef, np.divide(1.0, d, out=np.zeros_like(d), where=d > 0)))
            self._rows = (offsets, rows)
        return self._rows

    def curvature(self, c):
        """<c, A c> for a field c that is zero off the free nodes.  Under K
        it is the sum of (c_i - c_j)^2 over the box edges, exact because no
        free node lies on the box rim, summed by ``_edge_square_sum`` with
        no temporary larger than a slab; a stencil takes inner(c, A c)."""
        if self.stencil is not None:
            return inner(c, self.apply(c))
        return _edge_square_sum(c)

    @np.errstate(invalid="ignore", over="ignore")
    def apply(self, x, out=None, planes=None):
        """A x on the free nodes, zero elsewhere, into ``out`` if given, on
        the leading-axis planes [a, b) only when ``planes`` is (a, b), with
        the same bits.  Under K, values at nodes no free node touches
        (exterior ones) may be anything; a stencil needs them finite."""
        n = x.shape[0]
        a, b = (0, n) if planes is None else planes
        if self.stencil is not None:
            out = np.multiply(self.stencil[(0,) * x.ndim][a:b], x[a:b], out=out)
            for (d, *rest), entries in self.stencil.items():
                if d or any(rest):
                    # Rows [r0, r1): those of offset_slices' lo in [a, b).
                    r0, r1 = max(a, int(d < 0)), min(b, n - int(d > 0))
                    lo, hi = offset_slices(rest)
                    out[(slice(r0 - a, r1 - a), *lo)] += (
                        entries[(slice(r0, r1), *lo)] * x[(slice(r0 + d, r1 + d), *hi)])
        else:
            out = _laplacian(x, out, (a, b))
        np.copyto(out, 0.0, where=~self.free[a:b])
        return out

    def residual(self, x, rhs, a, b):
        """rho = rhs - A x on planes [a, b) (rhs None: zero, else flat):
        ``apply`` negated, so -0.0 off the free nodes, then rhs added."""
        rho = self.apply(x, planes=(a, b))
        np.negative(rho, out=rho)
        if rhs is not None:
            rho += rhs.reshape(x.shape)[a:b]
        return rho

    def correction(self, e, axes):
        """(c on the free nodes in flat order, <c, A c>), c = Z P e, e on
        the coarser level that halves ``axes``.  Under K, c is made and
        summed over its edges slab by slab, with the bits of
        ``_edge_square_sum``; a stencil level prolongs e whole."""
        if self.stencil is not None:
            c = _prolong(e, self, axes)
            return c[self.free], self.curvature(c)
        values = np.empty(self.free_count)
        total, at = 0.0, 0
        for a, b, count, window in _prolong_slabs(e, self, axes):
            total = _add_edge_squares(total, window, b - a)
            values[at : at + count] = window[: b - a][self.free[a:b]]
            at += count
            del window  # before the next window is made
        return values, total

    def add_free(self, x, values):
        """x += values on the free nodes (in flat order), slab by slab."""
        at = 0
        for a, b, count in self.slabs:
            x[a:b][self.free[a:b]] += values[at : at + count]
            at += count


@np.errstate(invalid="ignore", over="ignore")
def _laplacian(x, out=None, planes=None):
    """K x = 2N x_i minus the face neighbours of i at every node off the box
    rim, into ``out`` if given (both C-contiguous), on the leading-axis
    planes [a, b) only when ``planes`` is (a, b): the plain operator of
    ``_Level`` and the t = 2 residual of ``residual_breakdown``.

    Each neighbour is one shift of the raveled array by an axis stride,
    +s then -s, axis by axis, so a node's sum runs in that order; planes
    [a, b) read x's planes a - 1 to b, a halo plane a side.  A rim
    node's shift wraps onto some other node, or runs off the array, so its
    value is unspecified; no caller reads it, as no free or interior node
    lies on the rim: ``build_grid`` pads the shape's box by one node, and
    ``_coarse_free`` drops the rim of every halved axis.  Values that are
    not finite (exterior junk) spoil only the nodes next to them."""
    n = x.shape[0]
    a, b = (0, n) if planes is None else planes
    lo = max(a - 1, 0)
    flat = x[lo : min(b + 1, n)].reshape(-1)
    start = (a - lo) * x[0].size
    out = np.multiply(x[a:b], 2.0 * x.ndim, out=out)
    total = out.reshape(-1)
    for step in _strides(x.shape):
        ahead = flat[start + step : start + step + total.size]
        total[: ahead.size] -= ahead
        behind = max(step - start, 0)
        total[behind:] -= flat[start + behind - step : start + total.size - step]
    return out


def _add_edge_squares(total, window, count):
    """``total`` plus (x_i - x_j)^2 summed over the box edges from the first
    ``count`` planes of ``window`` (x's planes a to a + count, the last
    one missing at the box end): the axis-0 edges first, then the others,
    each axis's differences in one buffer, added with ``inner``."""
    slab = window[:count]
    buffer = np.empty(slab.size)
    pairs = [(window[1:], window[: len(window) - 1])]
    for axis in range(1, window.ndim):
        lo, hi = offset_slices(tuple(int(k == axis) for k in range(window.ndim)))
        pairs.append((slab[hi], slab[lo]))
    for hi, lo in pairs:
        diff = np.subtract(hi, lo, out=buffer[: hi.size].reshape(hi.shape))
        total += inner(diff, diff)
    return total


def _edge_square_sum(x):
    """The sum of (x_i - x_j)^2 over the edges of the box, i and j face
    neighbours, slab by slab as ``_Level.correction`` sums it."""
    total = 0.0
    for a, b in _slabs(x.shape):
        total = _add_edge_squares(total, x[a : b + 1], b - a)
    return total


def _inverse_cholesky(a):
    """M = L^-1 for the Cholesky factor L of a symmetric positive definite
    ``a`` (a = L L^T, so a^-1 = M^T M), built in place: it consumes ``a``
    and returns it as M, or None at a pivot that is not positive, with
    ``a`` then partly written over.  Built column by column with
    ``np.einsum``, without BLAS or LAPACK, so its bits do not depend on the
    BLAS thread count; ``np.linalg.inv``'s do from 100 nodes up (OpenBLAS,
    2 threads against 1).

    Each product reads only the envelope of ``a`` (George & Liu, Computer
    Solution of Large Sparse Positive Definite Systems, 1981): with
    first[i] the first nonzero column of row i, L has no entry left of
    first[i], so column j of L needs rows j to last[j] - 1 only, last[j] =
    1 + max{i : first[i] <= j}, and row i of M reads L[i, first[i]:i]
    only.  The skipped terms are exact zeros, so only the grouping of the
    sums moves, by rounding.  On a lattice block in flat order the
    envelope is about one plane of the box (one row in 2D) wide, so a
    729-node 3D block takes about a fifth of the full-column work; small
    blocks gain little, as they pay about 10 us a column in calls.

    L goes over the lower triangle of ``a``, column by column: column j
    reads a[j:, j] before writing it and L left of it, the strict lower
    triangle.  Entries of the envelope's rows that no column writes stay
    a's zeros.  Then M goes over L, row by row: row i reads only L[i,
    first[i]:i] and rows first[i] to i - 1 of M, and its entries right of
    the diagonal, a's upper triangle, are zeroed as it is written.  So
    every product has the operands and the order of building L and M in
    arrays of their own, and the same bits, while the build holds one n x
    n array.
    """
    n = a.shape[0]
    rows = np.arange(n)
    first = np.minimum(np.argmax(a != 0.0, axis=1), rows)
    reach = np.full(n, -1)
    np.maximum.at(reach, first, rows)
    last = np.maximum.accumulate(reach) + 1
    for j in range(n):
        f, e = first[j], last[j]
        col = a[j:e, j] - np.einsum("ik,k->i", a[j:e, f:j], a[j, f:j])
        if not col[0] > 0.0:
            return None
        a[j:e, j] = col / math.sqrt(col[0])
    for i in range(n):
        f, row = first[i], a[i]
        diagonal = row[i]
        row[:i] = np.einsum("k,kj->j", row[f:i], a[f:i, :i])
        row[:i] /= -diagonal
        row[i] = 1.0 / diagonal
        row[i + 1 :] = 0.0
    return a


def _coarse_free(free, axes):
    """The free mask of the next coarser plain-K lattice, which halves
    ``axes``: coarse node J sits at fine node 2J along them and is free
    where that fine node is, off the box rim along them."""
    coarse = free[_halve(free.ndim, axes)].copy()
    for axis in axes:
        rim = [slice(None)] * coarse.ndim
        rim[axis] = [0, -1]
        coarse[tuple(rim)] = False
    return coarse


def _coarse_columns(free, axes):
    """The free mask of the next coarser Galerkin lattice, which halves
    ``axes``: the columns of the prolongation P that touch a fine free
    node, i.e. coarse node J is free where some fine node of 2J + {-1, 0,
    1} along those axes is."""
    return dilate(free, axes)[_halve(free.ndim, axes)].copy()


def _interpolate(coarse, axis, n, start=0, stop=None, out=None):
    """Linear interpolation along one axis onto fine nodes [start, stop) of
    n (default all), into ``out`` if given, ``coarse`` from coarse node
    start // 2 on: fine node 2j is coarse node j, 2j + 1 averages coarse
    nodes j and j + 1, a missing j + 1 (past the end of an even axis)
    counting as zero."""
    stop = n if stop is None else stop
    at = partial(_along, axis, coarse.ndim)
    shape = list(coarse.shape)
    shape[axis] = stop - start
    fine = np.empty(shape) if out is None else out
    # The window's first odd fine node sits at 1 - p, coarse node 0 its left.
    p = start % 2
    evens = fine[at(slice(p, None, 2))]
    evens[...] = coarse[at(slice(p, p + evens.shape[axis]))]
    odd = fine[at(slice(1 - p, None, 2))]
    odd[...] = coarse[at(slice(0, odd.shape[axis]))]
    inner = min(odd.shape[axis], (n - 1) // 2 - start // 2)
    odd[at(slice(0, inner))] += coarse[at(slice(1, inner + 1))]
    odd *= 0.5
    return fine


def _interpolate_transpose(fine, axis, below=None, out=None):
    """The exact transpose of ``_interpolate`` along one axis, ``fine`` left
    as it is, into ``out`` if given: coarse node j takes half of fine nodes
    2j - 1 and 2j + 1, summed in the coarse buffer, then fine node 2j;
    ``below`` is fine node -1 of a window that starts past node 0."""
    at = partial(_along, axis, fine.ndim)
    n = fine.shape[axis]
    inner = (n - 1) // 2
    odd = fine[at(slice(1, None, 2))]
    shape = list(fine.shape)
    shape[axis] = (n + 1) // 2
    coarse = np.empty(shape) if out is None else out
    coarse[at(slice(0, n // 2))] = odd
    coarse[at(slice(n // 2, None))] = 0.0
    coarse[at(slice(1, inner + 1))] += odd[at(slice(0, inner))]
    if below is not None:
        coarse[at(0)] += below
    coarse *= 0.5
    coarse += fine[at(slice(0, None, 2))]
    return coarse


def _prolong_slabs(coarse, fine_level, axes, out=None):
    """(a, b, the free count of [a, b), planes a to b of c) over the fine
    level's slabs, c = Z P e: multilinear interpolation of e = ``coarse``,
    zero off its free nodes, along the halved ``axes``, the identity along
    the others, Z zeroing the fine level's non-free nodes; the planes are
    views of ``out`` if given.  The other halved axes go last axis first,
    so the strided pass runs on the smallest intermediate, then axis 0."""
    shape = fine_level.free.shape
    n = shape[0]
    for a, b, count in fine_level.slabs:
        stop = min(b + 1, n)
        window = coarse[a // 2 : stop // 2 + 1] if axes[0] == 0 else coarse[a:stop]
        for axis in reversed(axes):
            target = None if out is None or axis != axes[0] else out[a:stop]
            if axis:
                window = _interpolate(window, axis, shape[axis], out=target)
            else:
                window = _interpolate(window, 0, n, a, stop, target)
        np.copyto(window, 0.0, where=~fine_level.free[a:stop])
        yield a, b, count, window


def _prolong(coarse, fine_level, axes):
    """Z P e as one array (``_prolong_slabs``)."""
    fine = np.empty(fine_level.free.shape)
    for _ in _prolong_slabs(coarse, fine_level, axes, fine):
        pass
    return fine


def _restrict_slabs(source, coarse_level):
    """P^T r for a fine field r, zero off its free nodes, whose planes [a, b)
    are ``source(a, b)``, over the coarse level's ``restriction`` slabs.
    Axis 0 goes first, fine plane 2J - 1 carried from the slab before,
    then the other halved axes in ascending order; each slab of P^T r is
    whole once made, and its non-free nodes are zeroed then."""
    coarse = np.empty(coarse_level.free.shape)
    axes = coarse_level.axes
    below = None
    for a, b, fine_a, fine_b in coarse_level.restriction:
        slab = window = source(fine_a, fine_b)
        for axis in axes:
            target = coarse[a:b] if axis == axes[-1] else None
            slab = _interpolate_transpose(slab, axis, below if axis == 0 else None, target)
        below = window[-1].copy()
        np.copyto(coarse[a:b], 0.0, where=~coarse_level.free[a:b])
    return coarse


def _restrict(fine, coarse_level):
    """P^T r for a whole fine field r that is zero off its free nodes."""
    return _restrict_slabs(lambda a, b: fine[a:b], coarse_level)


def _coarsen_axis(stencil, axis):
    """P_d^T A P_d for the 1D interpolation P_d along one axis, A and the
    result stencils in ``_Level``'s layout, A's entries with no neighbour
    at their offset zero: the axis shrinks from n to m = (n + 1) // 2
    nodes.

    Fix the steps of an offset on the other axes and let A_a be its array
    at step a on this one.  Coarse row I gathers fine row 2I with weight 1
    and rows 2I +- 1 with weight 1/2, and fine column 2J + s belongs to
    coarse column J with weight 1 (s = 0) or 1/2 (s = +-1).  Fine row 2I
    reaches columns I - 1, I, I + 1 with 1/2 A_-1, A_0 + 1/2 (A_-1 + A_1)
    and 1/2 A_1; fine row 2k + 1, its row weight folded in, reaches column
    k with Q_lo = 1/4 A_0 + 1/2 A_-1 and column k + 1 with Q_hi = 1/4 A_0 +
    1/2 A_1, and it serves coarse rows k and k + 1.  Entries at offsets
    that leave the coarse box are not zeroed here (on an even axis row m -
    1 at step +1 collects fine column n - 1); no entry inside the box
    reads them.
    """
    ndim = len(next(iter(stencil)))
    at = partial(_along, axis, ndim)
    n = next(iter(stencil.values())).shape[axis]
    m = (n + 1) // 2
    even, odd = at(slice(0, None, 2)), at(slice(1, None, 2))
    # Odd fine row 2k + 1 serves coarse row k (``own``) and, for its first
    # m - 1 rows (``first``), coarse row k + 1 (``next_row``).
    own, next_row = at(slice(0, n // 2)), at(slice(1, None))
    first = at(slice(0, m - 1))
    out = {}
    for perp in itertools.product((-1, 0, 1), repeat=ndim - 1):
        steps = [perp[:axis] + (a,) + perp[axis:] for a in (-1, 0, 1)]
        a_lo, a_0, a_hi = (stencil[offset] for offset in steps)
        quarter = 0.25 * a_0[odd]
        q_lo = np.multiply(a_lo[odd], 0.5)
        q_lo += quarter
        q_hi = np.multiply(a_hi[odd], 0.5)
        q_hi += quarter
        b_lo = np.multiply(a_lo[even], 0.5)
        b_lo[next_row] += q_lo[first]
        b_0 = np.add(a_lo[even], a_hi[even])
        b_0 *= 0.5
        b_0 += a_0[even]
        b_0[own] += q_lo
        b_0[next_row] += q_hi[first]
        b_hi = np.multiply(a_hi[even], 0.5)
        b_hi[own] += q_hi
        out.update(zip(steps, (b_lo, b_0, b_hi)))
    return out


def _galerkin_product(stencil, axes):
    """P^T A P as a stencil on the next coarser lattice, which halves
    ``axes``, A a fine level's stencil as ``_Level.set_stencil`` leaves
    it.

    P is the product of one 1D interpolation per halved axis and A couples
    nodes at most one step apart per axis, so P^T A P = P_N^T ... P_1^T A
    P_1 ... P_N couples coarse nodes at most one step apart too; it is
    built one axis at a time from the stencil arrays, with no probe and no
    matrix.  The result lies on the coarse lattice's box;
    ``_Level.set_stencil`` keeps its free-node part and zeroes the rest.
    """
    for axis in axes:
        stencil = _coarsen_axis(stencil, axis)
    return stencil


class _Multigrid:
    """V-cycles on the free nodes: interior nodes that are not obstacle nodes.

    The discrete solution of every obstacle problem here equals +-m on its
    constraint nodes (zero boundary data and a constant height, so the
    truncation at m is feasible and stretches no edge), so the obstacle
    problem is the Dirichlet problem with those nodes fixed; at t = 2 it is
    linear.  One cycle on level k is a parity Gauss-Seidel sweep, a
    correction c = P e from the next coarser level, scaled by the exact line
    search alpha = <rho, c> / <c, A c> of level k's own quadratic (rho its
    residual after the sweep), and one more sweep.  The slope <rho, c> is
    taken as <P^T rho, e> on level k + 1 (``_coarse_cycle``).  rho and P^T
    rho are made slab by slab (``_restrict_slabs``), c and <c, K c> too
    (``_Level.correction``), and c is kept on the free nodes only, so a
    plain-K cycle holds no full-size array beside x but its max-update
    step and that c.  The coarsest level is solved exactly instead, x +=
    A^-1 (rhs - A x) on its free nodes (``_Level.solve``), with a dense
    inverse built once per operator: once per solve on K levels, once per
    ``linearize`` on Galerkin ones.  It replaced 30 parity sweeps, which
    cut the error by only about 0.96 a sweep on a 17 x 17 level.  A
    lattice too small to coarsen is its own coarsest level.  A level halves only the axes that stay at least
    ``_MIN_COARSE_DIM`` nodes long, P being the identity along the others,
    and coarsening stops before a level of fewer than ``_MIN_COARSE_NODES``
    free nodes, which bounds the dense system: the 3D slab [0, 1]^2 x [0,
    1/16] at h = 1/64 ends on a 9 x 9 x 7 level of 147 free nodes, where
    stopping at the first short axis left it one 67 x 67 x 7 level of
    11,907.

    At t != 2 the finest level smooths with Newton sweeps (see
    ``_NewtonLevel``).  With ``galerkin`` each cycle's ``linearize`` makes
    the finest A J(u), the Hessian of the energy on the free nodes, and
    every coarser A P^T A P of the level above, built from its stencil
    arrays (``_galerkin_product``), on the free mask of ``_coarse_columns``.
    Otherwise every level's A is the plain K on the injected free mask of
    ``_coarse_free``.  ``_relax`` takes Galerkin levels at t != 2 in 2D
    only, the case that was measured end to end: the h = 1/64 t = 3 disk
    obstacle takes 8 cycles instead of 21, and rebuilding its levels costs
    about 3 ms a cycle.  In 3D a t = 3 obstacle solve on the 83^3-node
    ball took 14 cycles in 73 s against 29 in 53 s on K, at a peak RSS of
    210 MB against 128 MB (J then held 14 arrays, 27 now), when each level
    was built by 3^N probes; the stencil build cuts its first coarse level
    from about 2 s to 0.17 s, but that solve was not timed with it.  Sweeps,
    line-searched corrections and the exact solve of a one-level t = 2
    solve never raise the energy, and c is zero on every fixed node.
    """

    def __init__(self, grid, constraint, galerkin=False):
        free = grid.labels == INTERIOR
        if constraint is not None:
            free.ravel()[constraint.indices] = False
        self.galerkin = galerkin
        coarsen = _coarse_columns if galerkin else _coarse_free
        self.levels = [_Level(free)]
        while True:
            axes = [k for k, n in enumerate(free.shape) if (n + 1) // 2 >= _MIN_COARSE_DIM]
            if not axes:
                break
            coarse = coarsen(free, axes)
            if coarse.sum() < _MIN_COARSE_NODES:
                break
            self.levels.append(_Level(coarse, free.shape))
            free = coarse

    def linearize(self, newton, values):
        """Make J(u) at ``values`` (from ``newton``, a _NewtonLevel) the
        finest level's operator and every coarser one P^T A P of the level
        above.  The old operators go first, so they never sit beside the
        new ones."""
        for level in self.levels:
            level.set_stencil(None)
        self.levels[0].set_stencil(newton.jacobian(values))
        for fine, coarse in zip(self.levels, self.levels[1:]):
            coarse.set_stencil(_galerkin_product(fine.stencil, coarse.axes))

    def cycle(self, values, newton=None):
        """One V-cycle on ``values`` in place; returns the max update.  With
        ``newton`` (a _NewtonLevel) the finest level is its t != 2 one."""
        free = self.levels[0].free
        step = values[free]
        if newton is None:
            self._cycle(0, values, None)
        else:
            newton.sweep(values)
            if len(self.levels) > 1:
                rho = newton.residual(values)
                if self.galerkin:
                    # Rebuilt every cycle.  Measured on the disk obstacle (t
                    # = 1.5 and 3, h = 1/32 to 1/128) and the four slit
                    # levels of s14, rebuilding every 2 to 6 cycles added 0
                    # to 3 cycles per solve and took line-search slopes per
                    # cycle from 1.1-1.4 to 1.4-2.3 on the disk and from
                    # 1.9-2.2 to 2.0-3.2 on the slit levels; the time it
                    # saved, up to a fifth of a disk solve and none on s14,
                    # was within run-to-run noise.
                    self.linearize(newton, values)
                rc = _restrict(rho, self.levels[1])
                del rho
                c, slope = self._correction(0, rc)
                del rc
                newton.correct(values, slope, c)
            newton.sweep(values)
        np.subtract(values[free], step, out=step)
        return float(np.max(np.abs(step, out=step), initial=0.0))

    def _correction(self, k, rc):
        """(c, <rc, e>), c = Z P e for e and the slope of ``_coarse_cycle``."""
        e, slope = self._coarse_cycle(k, rc)
        return _prolong(e, self.levels[k], self.levels[k + 1].axes), slope

    def _coarse_cycle(self, k, rc):
        """(e, <rc, e>): e one cycle from zero on level k + 1 for A e = rc,
        rc = P^T rho the restricted residual of level k.  The slope <rc, e>
        is <rho, c>, as rho is zero off level k's free nodes, e off level k
        + 1's, and c = Z P e, Z zeroing level k's non-free nodes; so the
        caller drops rho before the coarse cycle."""
        e = np.zeros(self.levels[k + 1].free.shape)
        self._cycle(k + 1, e, rc.ravel())
        return e, inner(rc, e)

    def _cycle(self, k, x, rhs):
        level = self.levels[k]
        flat = x.ravel()
        if k + 1 == len(self.levels):
            level.solve(x, rhs)
            return
        level.sweep(flat, rhs)
        coarse = self.levels[k + 1]
        rc = _restrict_slabs(partial(level.residual, x, rhs), coarse)
        e, slope = self._coarse_cycle(k, rc)
        del rc
        c, curvature = level.correction(e, coarse.axes)
        if curvature > 0.0:
            c *= slope / curvature
            level.add_free(x, c)
        # The correction goes before the sweep, which allocates its own.
        del c
        level.sweep(flat, rhs)


# The line search of a t != 2 coarse correction: at most this many slope
# evaluations, stopping at a certified step whose slope is down to this
# share of the slope at 0.
_SECANT_STEPS = 8
_SECANT_STOP = 0.01


class _NewtonLevel:
    """The finest level of a t != 2 cycle.

    It smooths with guarded one-step Newton sweeps over the parity classes
    of the free nodes (``_ColorWorkspace.update``), supplies J(u) for
    Galerkin levels below it (``jacobian``), and scales each coarse
    correction c by a step alpha that lowers the convex phi(alpha) =
    E(u + alpha c).  The step comes from a bracketed secant (Illinois) on
    phi'(alpha) = <dE(u + alpha c), c>, started just short of <rho, c> /
    <c, A c>, A the level's operator: the Newton estimate under A = J(u),
    about 3x too long at t = 3 under the plain K.  It is the largest
    evaluated alpha whose computed phi' is <= 0, so phi cannot have risen
    there (phi' is nondecreasing), and no step at all when no evaluated
    alpha > 0 has phi' <= 0.  The Newton estimate itself lands within
    rounding of the minimizer late in a solve, on its right as often as
    not, where the secant then spent up to 7 slopes to certify a step.  On
    a lattice too small to coarsen a cycle is the two sweeps alone.
    """

    def __init__(self, grid, spec, level):
        self.grid = grid
        self.spec = spec
        self.scale = grid.h ** (grid.dim - 2)
        self.level = level
        self.workspaces = [_ColorWorkspace(grid, idx) for idx in level.classes]
        # Slope evaluations of the line search, and corrections skipped.
        self.slope_evaluations = 0
        self.skipped = 0

    def sweep(self, values):
        """One guarded Newton sweep over the free nodes, in place."""
        uflat = values.ravel()
        for ws in self.workspaces:
            faces, fixed = ws.gather(uflat)
            uflat[ws.idx] = ws.update(self.spec, uflat[ws.idx], faces, fixed)

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
    workspaces = [] if newton is None else newton.workspaces
    notes.update(
        {
            "energy_monotone": worst_uptick <= 1e-14 * (1.0 + abs(energy_hist[0])),
            "worst_energy_uptick": worst_uptick,
            "energy_first": energy_hist[0],
            "energy_last": final_energy,
            "energy_checks": len(energy_hist),
            "guard_fallbacks": sum(ws.guard_fallbacks for ws in workspaces),
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
