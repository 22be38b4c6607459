"""Independent reference computations for the test suite.

Everything here is written from the underlying mathematics with plain Python
loops, deliberately NOT reusing the package's vectorized code paths, so a
bug in the package cannot cancel against the same bug in the oracle.
"""

import itertools
import math

import numpy as np


def radial_reference(t, dim, inner, outer, height, r):
    """Closed-form annulus profile for the radial capacitary problem.

    The t-Laplace equation for a radial function u(r) in dimension N reduces
    to (r^{N-1} |u'|^{t-2} u')' = 0, whose decreasing solutions are powers
    r^{(t-N)/(t-1)} for t != N and log(r) for t = N.  Boundary values are
    u(inner) = height, u(outer) = 0; outside the annulus the profile is
    clamped to those values.
    """
    r = float(r)
    if r <= inner:
        return float(height)
    if r >= outer:
        return 0.0
    if abs(t - dim) < 1e-12:
        return height * (math.log(r / outer) / math.log(inner / outer))
    q = (t - dim) / (t - 1.0)
    return height * (r**q - outer**q) / (inner**q - outer**q)


def corner_energy(values, h, t, active_cells, kind="p_laplace"):
    """Trapezoidal-corner energy by explicit loops over cells and corners.

    values: N-dim array of nodal values; active_cells: boolean array over
    cells (shape dims-1 elementwise) marking cells whose every corner is a
    live node.  Matches the package's quadrature definition: the cell energy
    is the average over the 2^N corner gradients of the integrand W.
    """
    dims = values.shape
    n = len(dims)
    total = 0.0
    for cell in itertools.product(*(range(d - 1) for d in dims)):
        if not active_cells[cell]:
            continue
        for corner in itertools.product(*(range(2),) * n):
            grad2 = 0.0
            for k in range(n):
                # Forward difference along axis k from this corner, with the
                # corner's other coordinates fixed.
                lo = list(cell)
                hi = list(cell)
                for j in range(n):
                    lo[j] += corner[j]
                    hi[j] += corner[j]
                lo[k] = cell[k]
                hi[k] = cell[k] + 1
                diff = (values[tuple(hi)] - values[tuple(lo)]) / h
                grad2 += diff * diff
            g = math.sqrt(grad2)
            if kind == "p_laplace":
                w = g**t / t
            elif kind == "regularized":
                w = (1.0 + g * g) ** (t / 2.0) / t
            else:
                raise ValueError(kind)
            total += w
    return total * h**n / 2**n


def five_point_residual(values, h, interior_mask):
    """Classical discrete Laplacian (t=2 stencil), interior nodes only."""
    res = np.zeros_like(values)
    dims = values.shape
    n = len(dims)
    it = np.nditer(interior_mask, flags=["multi_index"])
    for live in it:
        if not live:
            continue
        idx = it.multi_index
        acc = -2.0 * n * values[idx]
        for k in range(n):
            for s in (-1, 1):
                j = list(idx)
                j[k] += s
                acc += values[tuple(j)]
        res[idx] = acc / (h * h)
    return res


def brute_level_stats(values, coords, labels, y, level, radius, t, h):
    """Node-quadrature level-set statistics by a plain scan.

    Returns (volume, integral, node_count) over nodes that are not exterior,
    lie within `radius` of y (inclusive with a tiny relative slack, matching
    the package's ball membership), and satisfy values <= level.
    """
    y = np.asarray(y, dtype=float)
    dim = y.shape[0]
    count = 0
    integral = 0.0
    r2max = radius * radius * (1.0 + 1e-12)
    flat_vals = values.ravel()
    flat_labels = labels.ravel()
    for i, p in enumerate(coords):
        if flat_labels[i] == 2:  # exterior
            continue
        d2 = float(np.sum((p - y) ** 2))
        if d2 > r2max:
            continue
        v = flat_vals[i]
        if v <= level:
            count += 1
            integral += (level - v) ** t
    vol = h**dim * count
    return vol, integral * h**dim, count


def de_giorgi_theta(t, dim):
    """Positive root of theta^2 - theta - t/dim = 0 via the quadratic formula."""
    return 0.5 + math.sqrt(0.25 + t / dim)


def envelope_by_hand(omega0, sigmas, c1, t):
    """Oscillation envelope recursion done step by step.

    For each ladder step with clamped density sigma: n0 = ceil(c1 *
    sigma^(-t/(t-1))), eta = 2^-(n0+1), and the envelope multiplies by
    (1 - eta/4).  sigma = 0 contributes no shrink (factor 1).
    """
    env = [omega0]
    for s in sigmas:
        if s <= 0:
            factor = 1.0
        else:
            n0 = math.ceil(c1 * s ** (-t / (t - 1.0)))
            eta = 2.0 ** -(n0 + 1)
            factor = 1.0 - eta / 4.0
        env.append(env[-1] * factor)
    return env[1:]


def partial_product_by_hand(n_terms, r0):
    """Direct (non-log) evaluation of the decay partial product, small n."""
    prod = 1.0
    for k in range(1, n_terms + 1):
        eta_k = 1.0 / (4.0 * (k * math.log(4.0) - math.log(2.0 * r0)))
        prod *= 1.0 - eta_k / 4.0
    return prod


def partial_product_closed_form(n_terms, r0):
    """The decay partial product as a Gamma-function ratio, for any n.

    With c = 1/(16 ln 4) and a = -ln(2 r0)/ln 4 every factor is
    1 - eta_k/4 = 1 - c/(k + a), so the product telescopes to

        Gamma(n+1+a-c) Gamma(1+a) / (Gamma(1+a-c) Gamma(n+1+a)),

    which decays like n^(-c).  Evaluated with lgamma; the difference of two
    lgammas near 1e6 is good to a few parts in 1e9.
    """
    c = 1.0 / (16.0 * math.log(4.0))
    a = -math.log(2.0 * r0) / math.log(4.0)
    return math.exp(
        math.lgamma(n_terms + 1.0 + a - c)
        - math.lgamma(n_terms + 1.0 + a)
        + math.lgamma(1.0 + a)
        - math.lgamma(1.0 + a - c)
    )


def quadratic_minimizer(grid, spec, boundary_values):
    """Exact minimizer of the t = 2 discrete energy via one dense solve.

    At t = 2 the energy gradient is linear in the node values, so the
    stiffness matrix can be assembled column by column from gradient
    evaluations at unit fields and the stationarity system solved directly.
    Completely independent of the relaxation loop.
    """
    from artifact import Field, weak_residual
    from artifact.domain.lattice import BOUNDARY, INTERIOR

    assert spec.t == 2.0
    interior = (grid.labels == INTERIOR).ravel()
    boundary = (grid.labels == BOUNDARY).ravel()
    base = np.zeros(grid.dims)
    base.ravel()[boundary] = boundary_values
    rhs = weak_residual(spec, Field(grid, base)).values.ravel()[interior]
    cols = np.flatnonzero(interior)
    stiff = np.empty((cols.size, cols.size))
    for c, j in enumerate(cols):
        unit = np.zeros(grid.dims)
        unit.ravel()[j] = 1.0
        stiff[:, c] = weak_residual(spec, Field(grid, unit)).values.ravel()[interior]
    out = base.copy()
    out.ravel()[cols] = np.linalg.solve(stiff, -rhs)
    return out


def _stacked_corner_gradients(values, h):
    """(corner, (..., N) stacked corner gradient over cells) for all corners."""
    ndim = values.ndim
    dims = values.shape
    diffs = []
    for k in range(ndim):
        lead = tuple(slice(1, None) if j == k else slice(None) for j in range(ndim))
        lag = tuple(slice(0, -1) if j == k else slice(None) for j in range(ndim))
        diffs.append((values[lead] - values[lag]) / h)
    for corner in itertools.product(range(2), repeat=ndim):
        comps = []
        for d in range(ndim):
            sl = tuple(
                slice(0, dims[k] - 1) if k == d else slice(corner[k], corner[k] + dims[k] - 1)
                for k in range(ndim)
            )
            comps.append(diffs[d][sl])
        yield corner, comps


def stacked_energy(spec, fld):
    """Reference corner-quadrature energy: per corner, the integrand over
    every cell from the summed squares of that corner's N differences, as
    phi * base / t of ``monotone.profile`` at every t (custom kinds: the
    potential of the stacked gradient), then the sum
    over the active cells.  Fixes the order of every floating-point
    addition that ``energy`` must reproduce bit for bit."""
    from artifact.monotone import potential, profile

    grid = fld.grid
    active = grid.active_cell_mask()
    total = 0.0
    for _, comps in _stacked_corner_gradients(fld.values, grid.h):
        if spec.kind == "custom":
            w = potential(spec, np.stack(comps, axis=-1))
        else:
            phi, base = profile(spec, sum(c * c for c in comps))
            w = phi * base / spec.t
        total += float(np.sum(w[active]))
    return total * grid.h**grid.dim / 2.0**grid.dim


def stacked_field(spec, p):
    """Reference field on stacked (..., N) gradients.

    |p|^2 is summed over the last axis in index order; p_laplace with t < 2
    is rescaled by c = max_i |p_i| first, A(p) = c^{t-1} |u|^{t-2} u with
    u = p / c.  The scalar law comes from ``monotone.profile``.
    """
    from artifact.monotone import _TINY, profile

    if spec.kind == "custom":
        return np.asarray(spec.A_fn(p), dtype=float)

    def squared_norm(q):
        total = q[..., 0] * q[..., 0]
        for k in range(1, q.shape[-1]):
            total += q[..., k] * q[..., k]
        return total[..., None]

    if spec.kind == "p_laplace" and spec.t < 2.0:
        c = np.abs(p[..., 0])
        for k in range(1, p.shape[-1]):
            c = np.maximum(c, np.abs(p[..., k]))
        c = c[..., None]
        u = p / np.maximum(c, _TINY)
        phi, _ = profile(spec, squared_norm(u))
        return (c ** (spec.t - 1.0) * phi) * u
    phi, _ = profile(spec, squared_norm(p))
    return phi * p


def stacked_weak_residual(spec, fld):
    """Reference energy gradient: per corner, A of the stacked (..., N)
    gradient, masked to active cells and scattered to the head and tail
    node of each edge, in the order ``weak_residual`` must reproduce."""
    from artifact.domain.lattice import INTERIOR

    grid = fld.grid
    dims = grid.dims
    ndim = grid.dim
    active = grid.active_cell_mask()
    res = np.zeros(dims)
    coeff = grid.h ** (ndim - 1) / 2.0**ndim
    for corner, comps in _stacked_corner_gradients(fld.values, grid.h):
        a_val = stacked_field(spec, np.stack(comps, axis=-1))
        for d in range(ndim):
            contrib = np.where(active, a_val[..., d], 0.0) * coeff
            head = tuple(
                slice(1, dims[k]) if k == d else slice(corner[k], corner[k] + dims[k] - 1)
                for k in range(ndim)
            )
            tail = tuple(
                slice(0, dims[k] - 1) if k == d else slice(corner[k], corner[k] + dims[k] - 1)
                for k in range(ndim)
            )
            res[head] += contrib
            res[tail] -= contrib
    res[grid.labels != INTERIOR] = 0.0
    return res
