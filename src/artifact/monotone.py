"""Monotone vector fields of degenerate elliptic type and their discrete energy.

The continuous object is a field A : R^N -> R^N with A(0) = 0, strict
monotonicity (A(p) - A(q)) . (p - q) > 0, and growth of order t.  Two
kinds, each with an exact potential:

* ``p_laplace``:    A(p) = |p|^{t-2} p,           W(p) = |p|^t / t,
* ``regularized``:  A(p) = (1+|p|^2)^{(t-2)/2} p, W(p) = (1+|p|^2)^{t/2} / t.

Both are isotropic (A is a scalar profile times p) and odd, and the
p_laplace kind is (t-1)-homogeneous.  ``profile`` is their one
implementation: it gives phi, phi'/g and W from the squared magnitude
|p|^2, for the energy, the residual, the Hessian and the solver's local
Newton solve.

Discrete energy on a labeled grid: per lattice cell, average the integrand
over the 2^N cell corners, where the gradient at a corner collects the N edge
differences of the edges meeting that corner,

    E(u) = (h^N / 2^N) * sum_cells sum_corners W(G_corner).

Only active cells (those owning an interior node) contribute; for p_laplace
at t = 2 ``energy`` sums the same terms edge by edge.  With this
quadrature the stationarity condition at a node is a positively weighted mean
of its 2N face neighbors for every t, which is what gives the solver its
exact discrete comparison principle; at t = 2 the scheme reduces to the
classical 5-/7-point Laplacian.

``weak_residual`` assembles r_i = dE/du_i directly from A; it is exactly the
gradient of ``energy``, and the tests pin that equality by finite
differences.  ``hessian`` assembles d^2E / du_i du_j as a 3^N-point
stencil, the solver's Newton operator.
"""

import functools
import itertools
import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .domain.lattice import EXTERIOR, INTERIOR, cell_view, offset_slices, unit
from .domain.shapes import squared_norm

__all__ = [
    "OperatorSpec",
    "Field",
    "energy",
    "weak_residual",
]

KINDS = ("p_laplace", "regularized")


@dataclass
class OperatorSpec:
    """A monotone field: its ``kind`` (one of ``KINDS``) and exponent t > 1."""

    kind: str = "p_laplace"
    t: float = 2.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}; known: {', '.join(KINDS)}")
        t = self.t
        if isinstance(t, bool) or not isinstance(t, numbers.Real) or not math.isfinite(t):
            raise ValueError(f"exponent t must be a finite real number, not {t!r}")
        if t <= 1.0:
            raise ValueError("exponent t must exceed 1")

    def to_dict(self):
        return asdict(self)


# Smallest positive double: lifts g2 = 0 off the pole of phi at t < 2, so
# that W(0) = phi * 0 = 0 exactly while every g2 > 0 keeps the exact law.
_TINY = np.nextafter(0.0, 1.0)
# Smallest normal double: bounds the slope's divisor, so phi / base stays
# finite however small the gradient.
_NORMAL = np.finfo(float).tiny
# Smallest gradient magnitude at which ``curvature_pair`` takes the
# p_laplace curvature for t < 2.  A constant, not a scenario field: a floor
# of 1.0 stalls a t = 1.5 solve, with its residual stuck at 3e-3 while its
# updates fall below tol.
_EPS_FLOOR = 1e-12


def profile(spec, g2):
    """The isotropic law from the squared gradient magnitude g2 = |p|^2.

    Returns (phi, base) with phi = base^{(t-2)/2}, base = g2 for p_laplace
    and 1 + g2 for regularized.  One power then gives all three quantities
    that the energy, the residual and the solver's local Newton solve use:

        A(p) = phi p,   W(p) = phi base / t,   phi'(|p|)/|p| = (t-2) phi / base

    (see ``integrand`` and ``profile_slope``).  For p_laplace with t < 2,
    phi is singular at g2 = 0 although A and W are not; there phi is taken
    at the smallest positive double, which leaves W(0) = 0 exact.
    """
    t = spec.t
    if spec.kind == "p_laplace":
        lifted = np.maximum(g2, _TINY) if t < 2.0 else g2
        return lifted ** ((t - 2.0) / 2.0), g2
    base = 1.0 + g2
    return base ** ((t - 2.0) / 2.0), base


def profile_slope(spec, phi, base):
    """phi'(|p|)/|p| = (t-2) phi / base from a ``profile`` pair.

    Where base = 0 (p_laplace, t > 2, zero gradient) phi is 0 too and the
    slope is taken as 0.
    """
    return (spec.t - 2.0) * phi / np.maximum(base, _NORMAL)


def curvature_pair(spec, g2):
    """phi and phi'(|p|)/|p| at g2 = |p|^2, for a Newton curvature.

    For p_laplace at t < 2, phi(g) = g^{t-2} is singular at g = 0, so the
    pair is taken at g2 >= _EPS_FLOOR^2; values of A and W never are.
    """
    if spec.kind == "p_laplace" and spec.t < 2.0:
        g2 = np.maximum(g2, _EPS_FLOOR * _EPS_FLOOR)
    phi, base = profile(spec, g2)
    return phi, profile_slope(spec, phi, base)


def integrand(spec, g2):
    """Potential W from the squared gradient magnitude g2 = |p|^2.

    At t = 2 both kinds have phi = 1, so W is base / 2 itself, bit
    for bit (phi = base ** 0 is 1 for every input, NaN and inf included).
    """
    if spec.t == 2.0:
        return (g2 if spec.kind == "p_laplace" else 1.0 + g2) / spec.t
    phi, base = profile(spec, g2)
    return phi * base / spec.t


def _field_components(spec, comps):
    """A(p) as N component arrays, from the N component arrays of p.

    The one implementation of the field, which ``weak_residual`` takes per
    cell corner without stacking.  p_laplace
    with t < 2 is evaluated unfloored, with A(0) = 0 exactly, on p rescaled
    by its largest component: |p|^{t-2} p = c^{t-1} |u|^{t-2} u with
    c = max_i |p_i| and u = p / c.  So |u| lies in [1, sqrt(N)], and the
    field stays exactly (t-1)-homogeneous down to subnormal gradients,
    where |p|^2 itself would underflow to 0.  At t = 2 both kinds
    have phi = 1, so A(p) is p itself, bit for bit.
    """
    if spec.t == 2.0:
        return list(comps)
    if spec.kind == "p_laplace" and spec.t < 2.0:
        c = functools.reduce(np.maximum, [np.abs(x) for x in comps])
        c_safe = np.maximum(c, _TINY)
        u = [x / c_safe for x in comps]
        phi, _ = profile(spec, squared_norm(u))
        scale = c ** (spec.t - 1.0) * phi
        return [scale * x for x in u]
    phi, _ = profile(spec, squared_norm(comps))
    return [phi * x for x in comps]


# ---------------------------------------------------------------------------
# Fields on grids and the discrete energy.
# ---------------------------------------------------------------------------


class Field:
    """One real value per grid node (values at exterior nodes are inert)."""

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.dims:
            raise ValueError(f"field shape {values.shape} != grid dims {grid.dims}")
        self.grid = grid
        self.values = values

    def validate_finite(self):
        live = self.grid.labels != EXTERIOR
        if not np.all(np.isfinite(self.values[live])):
            raise ValueError("field has non-finite values at live nodes")

def edge_differences(values, h):
    """Forward differences along each axis: D[k] = (shift_k(u) - u) / h."""
    diffs = []
    for k in range(values.ndim):
        lo, hi = offset_slices(unit(values.ndim, k))
        diffs.append((values[hi] - values[lo]) / h)
    return diffs


def _with_axis(corner, d, c):
    """``corner`` with its axis-``d`` entry set to ``c``."""
    return corner[:d] + (c,) + corner[d + 1:]


def _corner_views(diffs, dims):
    """Iterate (corner, [cell-indexed views of diffs]) for all 2^N corners:
    D_d's edge of a cell at a corner starts at the corner's node with
    c_d = 0."""
    ndim = len(dims)
    for corner in np.ndindex(*([2] * ndim)):
        yield corner, [diffs[d][cell_view(dims, _with_axis(corner, d, 0))] for d in range(ndim)]


def corner_gradients(values, h, dims):
    """Iterate (corner, [component arrays over cells]) for all 2^N corners."""
    return _corner_views(edge_differences(values, h), dims)


# Exterior values are inert and may be anything: ±inf neighbours there give
# inf - inf in the edge differences of dead cells (and inf / inf in the t < 2
# field), which the active-cell mask then drops.  numpy's "invalid value"
# warning for those cells is silenced in the two kernels below.
@np.errstate(invalid="ignore")
def energy(spec, fld):
    """Discrete energy over active cells (corner-quadrature average).

    For p_laplace at t = 2 the integrand is |G|^2 / 2, and each cell uses
    each of its edges at the two corners the edge ends, so the energy is
    the edge sum (h^N / 2^N) sum_k sum D_k^2 w_k, w_k the number of active
    cells sharing each axis-k edge (``GridDomain.edge_cell_counts``).  It
    forms one axis's differences at a time, skips the edges of no active
    cell (an exterior end may hold anything) and reduces with ``inner``; it
    agrees with the corner form to rounding.  For the other laws
    each edge difference is squared once; per corner the N squared views
    are added into one cell buffer, which is compacted to the active cells
    before the integrand's power.
    """
    grid = fld.grid
    h = grid.h
    ndim = grid.dim
    if spec.kind == "p_laplace" and spec.t == 2.0:
        return _edge_sum_energy(fld) * h**ndim / 2.0**ndim
    active = grid.active_cell_mask()
    total = 0.0
    squares = edge_differences(fld.values, h)
    for sq in squares:
        np.multiply(sq, sq, out=sq)
    g2 = np.empty(active.shape)
    for _, views in _corner_views(squares, grid.dims):
        np.copyto(g2, views[0])
        for v in views[1:]:
            g2 += v
        total += float(np.sum(integrand(spec, g2[active])))
    return total * h**ndim / 2.0**ndim


def _edge_sum_energy(fld):
    """sum_k sum D_k^2 w_k over the edges of ``edge_cell_counts``, D_k the
    forward differences along axis k, edges of count 0 left out.  Each
    axis's counts and differences are built afresh and go before the next
    axis's are allocated."""
    values = fld.values
    total = 0.0
    for k in range(values.ndim):
        count = fld.grid.edge_cell_counts(k)
        lo, hi = offset_slices(unit(values.ndim, k))
        diff = np.zeros(count.shape)
        np.subtract(values[hi], values[lo], out=diff, where=count > 0)
        diff /= fld.grid.h
        np.multiply(diff, diff, out=diff)
        total += float(inner(diff, count))
        del diff, count
    return total


def inner(a, b):
    """sum(a * b) over two arrays of one shape, reduced by ``np.einsum``'s
    own loop, whose bits do not depend on the BLAS thread count (a
    full-grid ``np.vdot``'s do)."""
    axes = list(range(a.ndim))
    return np.einsum(a, axes, b, axes, [])


@np.errstate(invalid="ignore")
def weak_residual(spec, fld):
    """Gradient of the energy, r_i = dE/du_i, assembled directly from A.

    Returns a field that is zero at boundary and exterior nodes (those carry
    data, not unknowns).
    """
    grid = fld.grid
    active = grid.active_cell_mask()
    h = grid.h
    ndim = grid.dim
    res = np.zeros(grid.dims)
    coeff = h ** (ndim - 1) / 2.0**ndim
    for corner, comps in corner_gradients(fld.values, h, grid.dims):
        a_comps = _field_components(spec, comps)
        for d in range(ndim):
            contrib = np.where(active, a_comps[d], 0.0)
            contrib *= coeff
            res[cell_view(grid.dims, _with_axis(corner, d, 1))] += contrib
            res[cell_view(grid.dims, _with_axis(corner, d, 0))] -= contrib
    res[grid.labels != INTERIOR] = 0.0
    return Field(grid, res)


@np.errstate(invalid="ignore")
def hessian(spec, fld):
    """Hessian of ``energy`` in the interior values, as a 3^N-point stencil.

    Returns {o: H_o} over every o in {-1, 0, 1}^N, H_o[i] = d^2E / du_i
    du_{i+o}, so H_-o[i + o] = H_o[i] bit for bit.  Entries that involve a
    non-interior node are the same cell sums, not derivatives in unknowns;
    a caller keeps the couplings it solves for (the solver's free nodes).
    At a corner gradient G the Hessian of W is phi I + (phi'/g) G G^T, from
    ``curvature_pair``.  A cell node n enters G as s(n) / h with s(n) in
    {-1, 0, 1}^N: the corner c ends all N of its edges, s(c)_d = 2 c_d - 1,
    and its neighbour across axis d ends one, s = -(2 c_d - 1) e_d.  So
    each corner adds (h^{N-2} / 2^N) (phi s(a).s(b) + (phi'/g) (G.s(a))
    (G.s(b))) to H[a, b] and H[b, a].  At t = 2 this is h^{N-2} times the
    5/7-point Laplacian.
    """
    grid = fld.grid
    dims = grid.dims
    ndim = grid.dim
    active = grid.active_cell_mask()
    weight = np.where(active, grid.h ** (ndim - 2) / 2.0**ndim, 0.0)
    stencil = {o: np.zeros(dims) for o in itertools.product((-1, 0, 1), repeat=ndim)}
    for corner, comps in corner_gradients(fld.values, grid.h, dims):
        comps = [np.where(active, c, 0.0) for c in comps]
        phi, slope = curvature_pair(spec, squared_norm(comps))
        phi *= weight
        slope *= weight
        # The corner, then its neighbour across each axis: cell positions
        # and G.s.
        nodes = [corner] + [_with_axis(corner, d, 1 - corner[d]) for d in range(ndim)]
        for d in range(ndim):
            if corner[d]:
                np.negative(comps[d], out=comps[d])
        proj = [-functools.reduce(np.add, comps)] + comps
        for a in range(ndim + 1):
            sloped = slope * proj[a]
            for b in range(a, ndim + 1):
                value = sloped * proj[b]
                # phi s(a).s(b): N on the corner, -1 from the corner to a
                # neighbour, 1 on a neighbour, 0 between two neighbours.
                if a == b == 0:
                    value += ndim * phi
                elif a == 0:
                    value -= phi
                elif a == b:
                    value += phi
                # H[a, b] and, off the diagonal, H[b, a].
                for row, col in {(a, b), (b, a)}:
                    offset = tuple(nc - nr for nr, nc in zip(nodes[row], nodes[col]))
                    stencil[offset][cell_view(dims, nodes[row])] += value
    return stencil
