"""Independent reference computations for the test suite.

Everything here is written from the underlying mathematics with plain Python
loops, deliberately NOT reusing the package's vectorized code paths, so a
bug in the package cannot cancel against the same bug in the oracle.
"""

import hashlib
import itertools
import json
import math
import tracemalloc
from functools import partial

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


def seven_point_solution(start, free):
    """Exact minimizer of the t = 2 energy over the nodes of ``free``, by
    one dense solve of the plain 5/7-point system assembled node by node.

    Every node off ``free`` keeps its value from ``start`` (boundary data,
    obstacle nodes held at +-m).  Each free node i contributes the row
    2N u_i - sum of its 2N face neighbours = 0, with non-free neighbours
    moved to the right-hand side.  Shares no code with the solver.
    """
    dims = start.shape
    n = len(dims)
    nodes = [idx for idx in itertools.product(*(range(d) for d in dims)) if free[idx]]
    number = {idx: k for k, idx in enumerate(nodes)}
    mat = np.zeros((len(nodes), len(nodes)))
    rhs = np.zeros(len(nodes))
    for k, idx in enumerate(nodes):
        mat[k, k] = 2.0 * n
        for axis in range(n):
            for step in (-1, 1):
                nb = list(idx)
                nb[axis] += step
                nb = tuple(nb)
                if nb in number:
                    mat[k, number[nb]] -= 1.0
                else:
                    rhs[k] += start[nb]
    out = np.array(start, dtype=float)
    solution = np.linalg.solve(mat, rhs)
    for k, idx in enumerate(nodes):
        out[idx] = solution[k]
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
    phi * base / t of ``monotone.profile`` at every t, then the sum over
    the active cells.  Fixes the order of every floating-point
    addition that ``energy`` must reproduce bit for bit."""
    from artifact.monotone import profile

    grid = fld.grid
    active = grid.active_cell_mask()
    total = 0.0
    for _, comps in _stacked_corner_gradients(fld.values, grid.h):
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


def damped_newton_minimizer(grid, spec, start, free):
    """Minimizer of the discrete energy over the nodes of ``free`` by damped
    Newton steps on one dense Jacobian per step.

    Every node off ``free`` keeps its value from ``start`` (boundary data,
    obstacle nodes held at +-m).  The gradient is ``stacked_weak_residual``;
    its Jacobian comes from central differences of it, one residual pair
    per class of nodes equal modulo 3 along every axis (no two of them lie
    in one residual's stencil).  Each step is halved until the max
    normalized residual falls; the iteration stops once that residual is at
    most 1e-13.  Shares no code with the solver; starts from the t = 2
    solution of ``seven_point_solution``.
    """
    from artifact import Field

    dims = grid.dims
    ndim = grid.dim
    scale = grid.h ** (ndim - 2)
    u = seven_point_solution(start, free)
    rows = np.flatnonzero(free.ravel())
    number = np.full(free.size, -1)
    number[rows] = np.arange(rows.size)
    coords = np.array(np.unravel_index(rows, dims))
    strides = np.array([int(np.prod(dims[k + 1 :])) for k in range(ndim)])

    def gradient(values):
        return stacked_weak_residual(spec, Field(grid, values)).ravel()[rows] / scale

    def jacobian(values):
        step = 1e-6 * (1.0 + np.max(np.abs(values[free])))
        jac = np.zeros((rows.size, rows.size))
        for colour in itertools.product(range(3), repeat=ndim):
            colour = np.array(colour)
            # The one node of this class in each row's 3^N box.
            off = (colour[:, None] - coords) % 3
            off[off == 2] = -1
            cols = number[rows + strides @ off]
            members = rows[np.all(coords % 3 == colour[:, None], axis=0)]
            if members.size == 0:
                continue
            plus = values.copy()
            minus = values.copy()
            plus.ravel()[members] += step
            minus.ravel()[members] -= step
            deriv = (gradient(plus) - gradient(minus)) / (2.0 * step)
            hit = cols >= 0
            jac[np.flatnonzero(hit), cols[hit]] = deriv[hit]
        return jac

    res = gradient(u)
    for _ in range(100):
        size = np.max(np.abs(res))
        if size <= 1e-13:
            return u
        direction = np.linalg.solve(jacobian(u), -res)
        alpha = 1.0
        for _ in range(60):
            trial = u.copy()
            trial.ravel()[rows] += alpha * direction
            trial_res = gradient(trial)
            if np.max(np.abs(trial_res)) < size:
                break
            alpha *= 0.5
        else:
            raise RuntimeError("damped Newton step found no descent")
        u, res = trial, trial_res
    raise RuntimeError("damped Newton did not converge")


def zero_padded_laplacian(values):
    """K u = 2N u_i minus the 2N face neighbours of i at every node, a
    neighbour past the box edge counting as zero, node by node.

    Each node subtracts its neighbours in the order +e_0, -e_0, +e_1, -e_1,
    ..., in Python floats, so on every node its value is the same, bit for
    bit, as any K that keeps that order; values that are not finite
    propagate as IEEE arithmetic has them, with no warning.
    """
    dims = values.shape
    n = len(dims)
    out = np.empty(dims)
    for idx in itertools.product(*(range(d) for d in dims)):
        acc = float(values[idx]) * (2.0 * n)
        for axis in range(n):
            for step in (1, -1):
                nb = list(idx)
                nb[axis] += step
                if 0 <= nb[axis] < dims[axis]:
                    acc -= float(values[tuple(nb)])
        out[idx] = acc
    return out


def gather_sum_sweep(values, free, rhs=None):
    """One parity Gauss-Seidel sweep of the plain 5/7-point K on the nodes
    of ``free``, node by node, returning the new field.

    The 2^N lattice parities go in the order of the parity code sum_k
    (i_k mod 2) 2^(N-1-k); each free node takes the sum of its face
    neighbours, added in the order +e_0, -e_0, +e_1, ..., plus rhs, over
    2N.  No two nodes of one parity are face neighbours, so the order
    within a parity does not matter.  Every free node must lie off the
    box rim.
    """
    dims = values.shape
    n = len(dims)
    out = np.array(values, dtype=float)
    nodes = [idx for idx in itertools.product(*(range(d) for d in dims)) if free[idx]]
    for parity in range(2**n):
        for idx in nodes:
            if sum((i % 2) << (n - 1 - k) for k, i in enumerate(idx)) != parity:
                continue
            total = None
            for axis in range(n):
                for step in (1, -1):
                    nb = list(idx)
                    nb[axis] += step
                    value = float(out[tuple(nb)])
                    total = value if total is None else total + value
            if rhs is not None:
                total += float(rhs[idx])
            out[idx] = total / (2.0 * n)
    return out


def full_column_inverse_cholesky(a):
    """M = L^-1 for the Cholesky factor L of ``a``, every column of L and
    every row of M built over its full length, or None at a pivot that is
    not positive."""
    n = a.shape[0]
    low = np.zeros((n, n))
    for j in range(n):
        col = a[j:, j] - low[j:, :j] @ low[j, :j]
        if not col[0] > 0.0:
            return None
        low[j:, j] = col / math.sqrt(col[0])
    inverse = np.zeros((n, n))
    for i in range(n):
        inverse[i, :i] = -(low[i, :i] @ inverse[:i, :i]) / low[i, i]
        inverse[i, i] = 1.0 / low[i, i]
    return inverse


def envelope_inverse_cholesky(a):
    """M = L^-1 over the envelope of ``a``, L and M each in an n x n array
    of its own, ``a`` left as it is, or None at a pivot that is not
    positive: the coarsest factor as it was built before it was written
    over its argument, with the same einsum products in the same order."""
    n = a.shape[0]
    rows = np.arange(n)
    first = np.minimum(np.argmax(a != 0.0, axis=1), rows)
    reach = np.full(n, -1)
    np.maximum.at(reach, first, rows)
    last = np.maximum.accumulate(reach) + 1
    low = np.zeros((n, n))
    for j in range(n):
        f, e = first[j], last[j]
        col = a[j:e, j] - np.einsum("ik,k->i", low[j:e, f:j], low[j, f:j])
        if not col[0] > 0.0:
            return None
        low[j:e, j] = col / math.sqrt(col[0])
    for i in range(n):
        f, row = first[i], low[i]
        diagonal = row[i]
        row[:i] = np.einsum("k,kj->j", row[f:i], low[f:i, :i])
        row[:i] /= -diagonal
        row[i] = 1.0 / diagonal
    return low


def gather_residual_split(res, interior, values, constraint):
    """The free/pinned split of a flat normalized residual ``res`` with
    boolean gathers: the free-node max over ``np.abs(res[free])`` and the
    pinned part over ``res[pinned]``, pinned being the constraint nodes at
    sign * height and free the other ``interior`` nodes."""
    free = interior.copy()
    pinned_violation = 0.0
    pinned_count = 0
    if constraint is not None and constraint.indices.size:
        pinned = np.zeros_like(free)
        at = constraint.indices
        on_obstacle = values.ravel()[at] == constraint.sign * constraint.height
        pinned[at[on_obstacle]] = True
        free &= ~pinned
        pinned_count = int(pinned.sum())
        if pinned_count:
            pinned_violation = float(np.max(-constraint.sign * res[pinned], initial=0.0))
    free_max = float(np.max(np.abs(res[free]))) if free.any() else 0.0
    return {
        "free_max": free_max,
        "pinned_violation": pinned_violation,
        "pinned_count": pinned_count,
        "combined": max(free_max, pinned_violation),
    }


def gather_obstacle_extremes(values, interior, constraint):
    """min and max of v = sign * values over the ``interior`` nodes, and
    whether v equals the height on every constraint node, from a signed
    copy and boolean gathers."""
    vals = constraint.sign * values.ravel()
    return {
        "min_value": float(vals[interior].min()),
        "max_value": float(vals[interior].max()),
        "equals_m_on_obstacle": bool(np.all(vals[constraint.indices] == constraint.height)),
    }


def tobytes_solve_key(grid, spec, values, constraint, tol):
    """The solve-memo key built from ``tobytes()`` copies of the arrays:
    sha256 over length-prefixed parts."""
    parts = [
        grid.labels.tobytes(),
        grid.origin.tobytes(),
        repr((grid.h, grid.dims, tol)).encode(),
        json.dumps(spec.to_dict(), sort_keys=True).encode(),
        values.tobytes(),
    ]
    if constraint is None:
        parts.append(b"no constraint")
    else:
        parts.append(constraint.indices.tobytes())
        parts.append(repr((constraint.height, constraint.sign)).encode())
    digest = hashlib.sha256()
    for part in parts:
        digest.update(len(part).to_bytes(8, "little"))
        digest.update(part)
    return digest.hexdigest()


def peak_above_entry(fn):
    """Run ``fn()`` under tracemalloc; return (its result, the peak of the
    traced memory during the call minus the traced memory at its entry,
    in bytes).  numpy reports its array buffers to tracemalloc."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        entry = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak - entry


def held_nbytes(obj):
    """The bytes of the numpy arrays reachable from ``obj`` through object
    attributes, dicts, lists and tuples, each buffer counted once: a view
    counts as the array that owns its memory."""
    seen, owners, total = set(), set(), 0
    stack = [obj]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            while isinstance(item.base, np.ndarray):
                item = item.base
            if id(item) not in owners:
                owners.add(id(item))
                total += item.nbytes
        elif isinstance(item, dict):
            stack.extend(item.keys())
            stack.extend(item.values())
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
        elif hasattr(item, "__dict__"):
            stack.extend(vars(item).values())
    return total


# ---------------------------------------------------------------------------
# The full-size plain-K multigrid step, as the V-cycle took it before its
# transfers were walked slab by slab.
# ---------------------------------------------------------------------------


def _at(axis, ndim, sl):
    return tuple(sl if k == axis else slice(None) for k in range(ndim))


def _full_laplacian(x):
    """K x over the whole raveled array: x 2N, then per axis stride s the
    +s and the -s neighbour."""
    out = x * (2.0 * x.ndim)
    flat, total = x.reshape(-1), out.reshape(-1)
    for k in range(x.ndim):
        step = math.prod(x.shape[k + 1 :])
        total[:-step] -= flat[step:]
        total[step:] -= flat[:-step]
    return out


def _full_interpolate(coarse, axis, n):
    at = partial(_at, axis, coarse.ndim)
    shape = list(coarse.shape)
    shape[axis] = n
    fine = np.empty(shape)
    fine[at(slice(0, None, 2))] = coarse
    odd = fine[at(slice(1, None, 2))]
    odd[...] = coarse[at(slice(0, n // 2))]
    inner = (n - 1) // 2
    odd[at(slice(0, inner))] += coarse[at(slice(1, inner + 1))]
    odd *= 0.5
    return fine


def _full_interpolate_transpose(fine, axis):
    at = partial(_at, axis, fine.ndim)
    n = fine.shape[axis]
    inner = (n - 1) // 2
    odd = fine[at(slice(1, None, 2))]
    shape = list(fine.shape)
    shape[axis] = (n + 1) // 2
    coarse = np.empty(shape)
    coarse[at(slice(0, n // 2))] = odd
    coarse[at(slice(n // 2, None))] = 0.0
    coarse[at(slice(1, inner + 1))] += odd[at(slice(0, inner))]
    coarse *= 0.5
    coarse += fine[at(slice(0, None, 2))]
    return coarse


def _full_edge_square_sum(x, slab_nodes):
    """The box's squared edge differences, summed with einsum over slabs
    of whole planes of at most ``slab_nodes`` nodes: each slab's axis-0
    edges to the next plane, then its edges along the other axes."""
    n = x.shape[0]
    planes = max(1, slab_nodes // x[0].size)
    total = 0.0
    for a in range(0, n, planes):
        slab = x[a : a + planes]
        pairs = [(x[a + 1 : a + planes + 1], x[a : min(a + planes, n - 1)])]
        for axis in range(1, x.ndim):
            pairs.append((slab[_at(axis, x.ndim, slice(1, None))],
                          slab[_at(axis, x.ndim, slice(None, -1))]))
        for hi, lo in pairs:
            diff = np.ascontiguousarray(hi - lo)
            total += np.einsum(diff, list(range(x.ndim)), diff, list(range(x.ndim)), [])
    return total


def full_size_cycle(multigrid, k, x, rhs, slab_nodes):
    """One plain-K V-cycle on level k of ``multigrid`` (a ``_Multigrid``),
    in place, with every transfer over whole arrays: rho = rhs - K x
    zeroed off the free nodes (negated after the zeroing, rhs None:
    zero), P^T rho one halved axis at a time in ascending order, c = P e
    last axis first, zeroed off the free nodes, alpha = <rc, e> / <c, K c>
    with the curvature an edge sum over slabs of ``slab_nodes``, then x +=
    alpha c on every node.  The sweeps and the coarsest solve are the
    levels' own."""
    level = multigrid.levels[k]
    if k + 1 == len(multigrid.levels):
        level.solve(x, rhs)
        return
    level.sweep(x.ravel(), rhs)
    with np.errstate(invalid="ignore", over="ignore"):
        rho = _full_laplacian(x)
    np.copyto(rho, 0.0, where=~level.free)
    np.negative(rho, out=rho)
    if rhs is not None:
        rho += rhs.reshape(x.shape)
    coarse = multigrid.levels[k + 1]
    axes = [j for j, (n, m) in enumerate(zip(x.shape, coarse.free.shape)) if n != m]
    rc = rho
    for axis in axes:
        rc = _full_interpolate_transpose(rc, axis)
    np.copyto(rc, 0.0, where=~coarse.free)
    e = np.zeros(coarse.free.shape)
    full_size_cycle(multigrid, k + 1, e, rc.ravel(), slab_nodes)
    slope = np.einsum(rc, list(range(rc.ndim)), e, list(range(e.ndim)), [])
    c = e
    for axis in reversed(axes):
        c = _full_interpolate(c, axis, x.shape[axis])
    np.copyto(c, 0.0, where=~level.free)
    curvature = _full_edge_square_sum(c, slab_nodes)
    if curvature > 0.0:
        c *= slope / curvature
        x += c
    level.sweep(x.ravel(), rhs)
