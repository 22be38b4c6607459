"""Monotone vector fields of degenerate elliptic type and their discrete energy.

The continuous object is a field A : R^N -> R^N with A(0) = 0, strict
monotonicity (A(p) - A(q)) . (p - q) > 0, and t-growth: A(p) . p >= a |p|^t
and |A(p)| <= a^{-1} |p|^{t-1} for |p| beyond a threshold p0.  Two built-in
kinds with exact potentials:

* ``p_laplace``:    A(p) = |p|^{t-2} p,           W(p) = |p|^t / t,
* ``regularized``:  A(p) = (1+|p|^2)^{(t-2)/2} p, W(p) = (1+|p|^2)^{t/2} / t,

plus ``custom`` (a user callable, optionally with a potential).  The built-in
kinds are isotropic (A is a scalar profile times p), odd-symmetric, and the
p_laplace kind is (t-1)-homogeneous.  ``profile`` is their one
implementation: it gives phi, phi'/g and W from the squared magnitude
|p|^2, for the energy, the residual and the solver's local Newton solve.

Discrete energy on a labeled grid: per lattice cell, average the integrand
over the 2^N cell corners, where the gradient at a corner collects the N edge
differences of the edges meeting that corner,

    E(u) = (h^N / 2^N) * sum_cells sum_corners W(G_corner).

Only active cells (those owning an interior node) contribute.  With this
quadrature the stationarity condition at a node is a positively weighted mean
of its 2N face neighbors for every t, which is what gives the solver its
exact discrete comparison principle; at t = 2 the scheme reduces to the
classical 5-/7-point Laplacian.

``weak_residual`` assembles r_i = dE/du_i directly from A (so it also works
for custom fields without a potential); for potential kinds it is exactly the
gradient of ``energy``, and the tests pin that equality by finite differences.
"""

import functools
import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .domain.lattice import EXTERIOR, INTERIOR

__all__ = [
    "OperatorSpec",
    "Field",
    "apply_A",
    "potential",
    "check_assumptions",
    "energy",
    "weak_residual",
    "reflect",
]


@dataclass
class OperatorSpec:
    """Parameters of a monotone field: kind, exponent t, ellipticity window.

    ``a`` and ``p0`` describe the growth frame (coercivity constant and the
    magnitude beyond which it is enforced); ``eps_floor`` regularizes the
    Newton curvature of the solver's local solve near p = 0 when t < 2 (the
    field itself is never floored).  Custom kinds supply ``A_fn`` (and
    ``W_fn`` when they derive from a potential).
    """

    kind: str = "p_laplace"
    t: float = 2.0
    a: float = 1.0
    p0: float = 0.0
    odd_symmetric: bool = True
    homogeneous: bool = dc_field(default=None)
    eps_floor: float = 1e-12
    A_fn: object = None
    W_fn: object = None

    def __post_init__(self):
        if self.t <= 1.0:
            raise ValueError("exponent t must exceed 1")
        if self.a <= 0.0:
            raise ValueError("ellipticity constant a must be positive")
        if self.p0 < 0.0:
            raise ValueError("threshold p0 must be nonnegative")
        if self.kind not in ("p_laplace", "regularized", "custom"):
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.kind == "custom" and self.A_fn is None:
            raise ValueError("custom operator needs A_fn")
        if self.homogeneous is None:
            self.homogeneous = self.kind == "p_laplace"

    def has_potential(self):
        return self.kind in ("p_laplace", "regularized") or self.W_fn is not None

    def to_dict(self):
        return {
            "kind": self.kind,
            "t": self.t,
            "a": self.a,
            "p0": self.p0,
            "odd_symmetric": self.odd_symmetric,
            "homogeneous": self.homogeneous,
            "eps_floor": self.eps_floor,
        }


# Smallest positive double: lifts g2 = 0 off the pole of phi at t < 2, so
# that W(0) = phi * 0 = 0 exactly while every g2 > 0 keeps the exact law.
_TINY = np.nextafter(0.0, 1.0)
# Smallest normal double: bounds the slope's divisor, so phi / base stays
# finite however small the gradient.
_NORMAL = np.finfo(float).tiny


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
    if spec.kind == "regularized":
        base = 1.0 + g2
        return base ** ((t - 2.0) / 2.0), base
    raise ValueError("custom operators have no scalar profile")


def profile_slope(spec, phi, base):
    """phi'(|p|)/|p| = (t-2) phi / base from a ``profile`` pair.

    Where base = 0 (p_laplace, t > 2, zero gradient) phi is 0 too and the
    slope is taken as 0.
    """
    return (spec.t - 2.0) * phi / np.maximum(base, _NORMAL)


def integrand(spec, g2):
    """Potential W from the squared gradient magnitude g2 = |p|^2.

    At t = 2 both built-in kinds have phi = 1, so W is base / 2 itself, bit
    for bit (phi = base ** 0 is 1 for every input, NaN and inf included).
    """
    if spec.t == 2.0:
        return (g2 if spec.kind == "p_laplace" else 1.0 + g2) / spec.t
    phi, base = profile(spec, g2)
    return phi * base / spec.t


def _squared_norm(comps):
    """|p|^2 from the N component arrays of p.

    Summed component by component: elementwise passes are several times
    faster than a reduction over a short last axis.
    """
    total = comps[0] * comps[0]
    for c in comps[1:]:
        total += c * c
    return total


def _field_components(spec, comps):
    """A(p) as N component arrays, from the N component arrays of p.

    The one implementation of every field: ``apply_A`` stacks its result,
    ``weak_residual`` takes it per cell corner without stacking.  p_laplace
    with t < 2 is evaluated unfloored, with A(0) = 0 exactly, on p rescaled
    by its largest component: |p|^{t-2} p = c^{t-1} |u|^{t-2} u with
    c = max_i |p_i| and u = p / c.  So |u| lies in [1, sqrt(N)], and the
    field stays exactly (t-1)-homogeneous down to subnormal gradients,
    where |p|^2 itself would underflow to 0.  At t = 2 both built-in kinds
    have phi = 1, so A(p) is p itself, bit for bit.
    """
    if spec.kind == "custom":
        a_val = np.asarray(spec.A_fn(np.stack(comps, axis=-1)), dtype=float)
        return [a_val[..., d] for d in range(len(comps))]
    if spec.t == 2.0:
        return list(comps)
    if spec.kind == "p_laplace" and spec.t < 2.0:
        c = functools.reduce(np.maximum, [np.abs(x) for x in comps])
        c_safe = np.maximum(c, _TINY)
        u = [x / c_safe for x in comps]
        phi, _ = profile(spec, _squared_norm(u))
        scale = c ** (spec.t - 1.0) * phi
        return [scale * x for x in u]
    phi, _ = profile(spec, _squared_norm(comps))
    return [phi * x for x in comps]


def apply_A(spec, p):
    """Evaluate the vector field on gradients of shape (..., N)."""
    p = np.asarray(p, dtype=float)
    return np.stack(_field_components(spec, np.moveaxis(p, -1, 0)), axis=-1)


def potential(spec, p):
    """Evaluate the potential W on gradients of shape (..., N)."""
    p = np.asarray(p, dtype=float)
    if spec.kind == "custom":
        if spec.W_fn is None:
            raise ValueError("energy undefined; use weak_residual")
        return np.asarray(spec.W_fn(p), dtype=float)
    return integrand(spec, _squared_norm(np.moveaxis(p, -1, 0)))


def reflect(spec):
    """The reflected field B(p) = -A(-p) (an involution).

    For odd-symmetric kinds the reflection is the field itself, so an
    equivalent spec is returned; custom fields get wrapped callables.
    """
    if spec.kind != "custom":
        return replace(spec)
    a_fn = spec.A_fn
    w_fn = spec.W_fn
    reflected_w = None if w_fn is None else (lambda p: w_fn(-np.asarray(p)))
    return replace(
        spec,
        A_fn=lambda p: -a_fn(-np.asarray(p)),
        W_fn=reflected_w,
    )


# ---------------------------------------------------------------------------
# Structural checks.
# ---------------------------------------------------------------------------


def check_assumptions(spec, dim=2, n_samples=2048, seed=0):
    """Sample-based audit of the structure assumptions.

    Draws magnitude/direction samples with |p| log-uniform in
    [max(p0, 1e-4), 1e3] and reports zero-at-zero, strict monotonicity on
    sample pairs, coercivity A(p).p >= a|p|^t, and growth
    |A(p)| <= |p|^{t-1}/a, each with a 1e-9 relative slack.
    """
    rng = np.random.default_rng(seed)
    lo = max(spec.p0, 1e-4)
    mags = np.exp(rng.uniform(math.log(lo), math.log(1e3), size=(2, n_samples)))
    dirs = rng.standard_normal((2, n_samples, dim))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    p = mags[0, :, None] * dirs[0]
    q = mags[1, :, None] * dirs[1]
    rel = 1e-9

    report = {"kind": spec.kind, "t": spec.t, "n_samples": int(n_samples), "checks": {}}

    a0 = apply_A(spec, np.zeros((1, dim)))
    zero_ok = bool(np.all(np.abs(a0) <= 1e-300 + rel))
    report["checks"]["zero_at_zero"] = {
        "passed": zero_ok,
        "max_abs": float(np.max(np.abs(a0))),
    }

    ap = apply_A(spec, p)
    aq = apply_A(spec, q)
    inner = np.sum((ap - aq) * (p - q), axis=-1)
    scale = np.linalg.norm(ap - aq, axis=-1) * np.linalg.norm(p - q, axis=-1) + 1e-300
    distinct = np.linalg.norm(p - q, axis=-1) > 1e-12
    mono_viol = int(np.sum((inner < -rel * scale) & distinct))
    strict_viol = int(np.sum((inner <= 0) & (scale > 1e-12) & distinct))
    report["checks"]["monotonicity"] = {
        "passed": mono_viol == 0 and strict_viol == 0,
        "violations": mono_viol,
        "nonstrict": strict_viol,
        "min_normalized": float(np.min(inner / scale)),
    }

    coercive = np.sum(ap * p, axis=-1)
    need = spec.a * mags[0] ** spec.t
    in_frame = mags[0] >= spec.p0
    co_viol = int(np.sum(in_frame & (coercive < need * (1.0 - rel))))
    report["checks"]["coercivity"] = {
        "passed": co_viol == 0,
        "violations": co_viol,
        "min_ratio": float(np.min(coercive[in_frame] / need[in_frame]))
        if in_frame.any()
        else None,
    }

    growth = np.linalg.norm(ap, axis=-1)
    cap = mags[0] ** (spec.t - 1.0) / spec.a
    gr_viol = int(np.sum(in_frame & (growth > cap * (1.0 + rel))))
    report["checks"]["growth"] = {
        "passed": gr_viol == 0,
        "violations": gr_viol,
        "max_ratio": float(np.max(growth[in_frame] / cap[in_frame]))
        if in_frame.any()
        else None,
    }

    report["passed"] = all(c["passed"] for c in report["checks"].values())
    return report


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

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.dims))

    @classmethod
    def from_function(cls, grid, fn):
        vals = np.asarray(fn(grid.points()), dtype=float).reshape(grid.dims)
        return cls(grid, vals)

    def copy(self):
        return Field(self.grid, self.values.copy())

    def validate_finite(self):
        live = self.grid.labels != EXTERIOR
        if not np.all(np.isfinite(self.values[live])):
            raise ValueError("field has non-finite values at live nodes")

    def interior_values(self):
        return self.values[self.grid.labels == INTERIOR]


def edge_differences(values, h):
    """Forward differences along each axis: D[k] = (shift_k(u) - u) / h."""
    diffs = []
    for k in range(values.ndim):
        lead = tuple(
            slice(1, None) if j == k else slice(None) for j in range(values.ndim)
        )
        lag = tuple(
            slice(0, -1) if j == k else slice(None) for j in range(values.ndim)
        )
        diffs.append((values[lead] - values[lag]) / h)
    return diffs


def _corner_slices(dims, corner):
    """Slices extracting, per axis, the cell-indexed view of D for a corner."""
    out = []
    ndim = len(dims)
    for d in range(ndim):
        sl = []
        for k in range(ndim):
            if k == d:
                sl.append(slice(0, dims[k] - 1))
            else:
                sl.append(slice(corner[k], corner[k] + dims[k] - 1))
        out.append(tuple(sl))
    return out


def _corner_views(diffs, dims):
    """Iterate (corner, [cell-indexed views of diffs]) for all 2^N corners."""
    ndim = len(dims)
    for corner in np.ndindex(*([2] * ndim)):
        slices = _corner_slices(dims, corner)
        yield corner, [diffs[d][slices[d]] for d in range(ndim)]


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

    For the built-in kinds each edge difference is squared once; per corner
    the N squared views are added into one cell buffer, which is compacted
    to the active cells before the integrand's power.
    """
    if not spec.has_potential():
        raise ValueError("energy undefined; use weak_residual")
    grid = fld.grid
    active = grid.active_cell_mask()
    h = grid.h
    ndim = grid.dim
    total = 0.0
    if spec.kind == "custom":
        for _, comps in corner_gradients(fld.values, h, grid.dims):
            w = potential(spec, np.stack(comps, axis=-1))
            total += float(np.sum(w[active]))
        return total * h**ndim / 2.0**ndim
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


@np.errstate(invalid="ignore")
def weak_residual(spec, fld):
    """Gradient of the energy, r_i = dE/du_i, assembled directly from A.

    Returns a field that is zero at boundary and exterior nodes (those carry
    data, not unknowns).  Works for any kind, potential or not.
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
            head = []
            tail = []
            for k in range(ndim):
                if k == d:
                    head.append(slice(1, grid.dims[k]))
                    tail.append(slice(0, grid.dims[k] - 1))
                else:
                    head.append(slice(corner[k], corner[k] + grid.dims[k] - 1))
                    tail.append(head[-1])
            res[tuple(head)] += contrib
            res[tuple(tail)] -= contrib
    res[grid.labels != INTERIOR] = 0.0
    return Field(grid, res)
