"""Multigrid levels, transfers and V-cycles on the free nodes of a lattice.

A solve's V-cycle (``_Multigrid``) runs on a hierarchy of lattices: the
solve's own, then coarser ones that halve every axis still long enough,
down to a coarsest level solved exactly, by block elimination over runs
of its planes, each block's Schur complement inverted densely
(``_inverse_cholesky``).  A correction from a coarser lattice
moves the field along multilinear hat functions (``_prolong``), and the
coarse right-hand side is the restricted residual (``_restrict``).  The
prolongations, restrictions, residuals and K's edge sums walk the lattice
a slab of planes at a time (``lattice._slabs``), and a K correction is
kept on the free nodes only, so a plain-K cycle holds no full-size array
beside the field but its max-update step and that correction.

Each level's operator class is chosen once, when the hierarchy is built.
At t = 2, and at every t in 3D, every level is a ``_PlainLevel``: the plain
5/7-point Laplacian K on the injected free mask (``_coarse_free``), its
correction scaled by the exact line search.  For 2D t != 2 every level is
a ``_StencilLevel`` on the free mask of the prolongation's columns
(``_coarse_columns``): the finest holds J(u), the energy's Hessian at the
current field (``monotone.hessian``), and each coarser one the Galerkin
product P^T A P of the level above (``_galerkin_product``), all rebuilt
every cycle from the stencil arrays.  Galerkin coarse operators hold up on
holes and thin Dirichlet sets such as the slit caps (Alcouffe, Brandt,
Dendy & Painter, SIAM J. Sci. Stat. Comput. 1981); the t != 2 cycle is
Newton-multigrid (Trottenberg, Oosterlee & Schueller, Multigrid, 2001),
its finest level the solver's guarded Newton sweeps.

A smoothing sweep visits the 2^N lattice parities of the free nodes in
fixed order; no operator here couples two nodes of one parity, so a whole
parity class updates in a single vectorized step that is exactly
equivalent to sequential relaxation.  This module evaluates no energy
and imports only the lattice and ``monotone``.
"""

import itertools
import math
from functools import partial

import numpy as np

from .domain.lattice import INTERIOR, _slabs, dilate
from .monotone import inner, offset_slices


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


# A level halves only the axes that stay at least _MIN_COARSE_DIM nodes
# long; coarsening stops before a level with fewer free nodes, or when no
# axis can be halved.  That bounds the coarsest level's dense system.
_MIN_COARSE_NODES = 64
_MIN_COARSE_DIM = 5
# The coarsest solve factors blocks of whole leading-axis planes of at
# most _BLOCK_NODES nodes (more only when one plane holds more).  Four
# times _MIN_COARSE_NODES keeps every 2D coarsest system of the shipped
# scenarios and the benchmark workloads (225 nodes at most) one block,
# factored as before, and splits the 501- and 504-node 3D probe systems
# into 3 blocks; 128 split the 2D ones too, moving their bits.
_BLOCK_NODES = 4 * _MIN_COARSE_NODES


def _plane_blocks(counts):
    """Consecutive runs [a, b) of the leading-axis planes, plane p holding
    counts[p] nodes: a run ends before a plane of nodes that would take it
    past _BLOCK_NODES, so each holds at least one plane, and a run of
    nodes starts each but the first."""
    runs, a, total = [], 0, 0
    for p, count in enumerate(counts):
        if count and total and total + count > _BLOCK_NODES:
            runs.append((a, p))
            a, total = p, 0
        total += count
    return runs + [(a, len(counts))]


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
    and an operator A on the free nodes, whose subclass (``_PlainLevel``,
    ``_StencilLevel``) gives its ``diagonal`` and ``couplings`` {o: F_o},
    F_o[i] = A[i, i + o] for o != 0, over the box, and ``apply``, ``sweep``,
    ``curvature`` <c, A c> and ``correction``.  A couples no two nodes of
    one parity, so a parity class relaxes in one vectorized step.

    What the walkers read on every call is fixed at construction: the
    level's ``_slabs`` with the free-node count of each, and, below the
    finest level (``fine_shape`` the shape of the level above), the
    ``axes`` it halves and the slabs of its planes that a restriction
    walks, each with the fine planes it reads.  So ``lattice._SLAB_NODES``
    counts when a level is built.  Besides the mask, the level keeps for
    the whole solve only its classes (4 bytes a free node), its stencil
    and its coarsest block factor; a walker takes ~free of the planes it
    touches when it needs the non-free nodes."""

    def __init__(self, free, fine_shape=None):
        self.free = free
        self.classes = _parity_classes(free)
        self.slabs = [(a, b, int(np.count_nonzero(free[a:b]))) for a, b in _slabs(free.shape)]
        self.free_count = sum(count for _, _, count in self.slabs)
        self.axes = self.restriction = None
        if fine_shape is not None:
            self.axes = _halved_axes(fine_shape, free.shape)
            step = 2 if self.axes[0] == 0 else 1
            plane = step * math.prod(fine_shape[1:])
            self.restriction = [(a, b, step * a, min(step * b, fine_shape[0]))
                                for a, b in _slabs(free.shape, plane)]
        # The nodes and block factor of ``solve``, and the size of the
        # largest system factored on this level so far.
        self._blocks = None
        self.dense_nodes = 0

    def solve(self, x, rhs=None):
        """x += A^-1 (rhs - A x) on the free nodes of positive diagonal, in
        place (rhs None: zero), by block forward and back substitution on
        ``_block_factor``: forward u_k = M_k (r_k - G_k u_{k-1}[L]), back
        x_k = M_k^T (u_k - G_{k+1}^T x_{k+1}[F]), G's terms on the planes
        it couples; one block is M^T M r.  The residual is ``residual``'s,
        so it sees x at non-free nodes; free nodes of zero diagonal keep
        their values, as a sweep leaves them."""
        idx, blocks = self._block_factor()
        residual = self.residual(x, rhs, 0, len(x)).ravel()[idx]
        halves, at = [], 0
        for matrices, g in blocks:
            w = residual[at : at + len(matrices[0])]
            at += len(w)
            if g is not None:
                before = halves[-1]
                w[: len(g)] -= np.einsum("ij,j->i", g, before[len(before) - g.shape[1] :])
            halves.append(np.einsum("ij,j->i", matrices[0], w))
        for k in reversed(range(len(blocks))):
            u = halves[k]
            if k + 1 < len(blocks) and blocks[k + 1][1] is not None:
                g, after = blocks[k + 1][1], halves[k + 1]
                u[len(u) - g.shape[1] :] -= np.einsum("ij,i->j", g, after[: len(g)])
            for matrix in blocks[k][0][1:]:
                u = np.einsum("ij,j->i", matrix, u)
            halves[k] = u
        x.ravel()[idx] += np.concatenate(halves)

    def _block_factor(self):
        """The flat indices of the free nodes of positive diagonal and, per
        block of planes (``_plane_blocks``), (M_k and M_k^T, G_k), built
        once per operator by block elimination (Golub & Van Loan, Matrix
        Computations, 4.5).  A_k,k-1 is C_k from block k's first plane F
        to the last plane L of block k - 1, so S_k = A_kk - C_k S_{k-1}^-1
        C_k^T = A_kk - G_k G_k^T on [F, F], G_k = C_k M_{k-1}[L, L]^T: M is
        lower triangular, so S^-1 = M^T M is M[L, L]^T M[L, L] on [L, L].
        Each S_k is assembled on its own planes and written over by M_k =
        ``_inverse_cholesky``, so no n x n array is built.  A block that is
        not positive definite, a free island that no coupling ties to a
        fixed node, gives one block for all: (its pseudo-inverse,)."""
        if self._blocks is None:
            kept = self.free & (self.diagonal() > 0)
            counts = np.count_nonzero(kept.reshape(len(kept), -1), axis=1)
            blocks = []
            for a, b in _plane_blocks(counts):
                _, schur = self._dense_block((a, b))
                g = None
                if blocks and counts[a - 1]:
                    _, c = self._dense_block((a, a + 1), (a - 1, a))
                    m = blocks[-1][0][0]
                    corner = m[len(m) - c.shape[1] :, len(m) - c.shape[1] :]
                    g = np.einsum("il,jl->ij", c, corner)
                    schur[: len(g), : len(g)] -= np.einsum("ik,jk->ij", g, g)
                factor = _inverse_cholesky(schur)
                del schur
                if factor is None:
                    pinv = np.linalg.pinv(self._dense_block()[1], hermitian=True)
                    blocks = [((pinv,), None)]
                    break
                blocks.append(((factor, factor.T), g))
            self._blocks = (np.flatnonzero(kept), blocks)
            self.dense_nodes = max(self.dense_nodes, int(counts.sum()))
        return self._blocks

    def _dense_block(self, rows=None, cols=None):
        """The mask of the free nodes of positive diagonal and A from those
        on the leading-axis planes [a, b) = ``rows`` (default all) to those
        on the planes ``cols`` (default ``rows``) as a dense matrix, the
        nodes in flat order."""
        diag = self.diagonal()
        kept = self.free & (diag > 0)
        rows = rows or (0, len(kept))
        cols = cols or rows
        position = []
        for a, b in (rows, cols):
            at = np.full(kept.shape, -1)
            at[a:b][kept[a:b]] = np.arange(np.count_nonzero(kept[a:b]))
            position.append(at)
        dense = np.zeros((position[0].max() + 1, position[1].max() + 1))
        if rows == cols:
            np.fill_diagonal(dense, diag[rows[0] : rows[1]][kept[rows[0] : rows[1]]])
        for offset, entries in self.couplings().items():
            lo, hi = offset_slices(offset)
            r, c = position[0][lo], position[1][hi]
            both = (r >= 0) & (c >= 0)
            dense[r[both], c[both]] = entries[lo][both]
        return kept, dense

    def residual(self, x, rhs, a, b):
        """rho = rhs - A x on planes [a, b) (rhs None: zero, else flat):
        ``apply`` negated, so -0.0 off the free nodes, then rhs added."""
        rho = self.apply(x, planes=(a, b))
        np.negative(rho, out=rho)
        if rhs is not None:
            rho += rhs.reshape(x.shape)[a:b]
        return rho

    def add_free(self, x, values):
        """x += values on the free nodes (in flat order), slab by slab."""
        at = 0
        for a, b, count in self.slabs:
            x[a:b][self.free[a:b]] += values[at : at + count]
            at += count


class _PlainLevel(_Level):
    """A level whose A is the plain 2N + 1 point K, K x = 2N x_i minus the
    face neighbours of i, on a free mask off the box rim."""

    def diagonal(self):
        return np.full(self.free.shape, 2.0 * self.free.ndim)

    def couplings(self):
        ndim, minus_one = self.free.ndim, np.broadcast_to(-1.0, self.free.shape)
        return {tuple(sgn * int(k == axis) for k in range(ndim)): minus_one
                for axis in range(ndim) for sgn in (1, -1)}

    def sweep(self, flat, rhs=None):
        """One parity Gauss-Seidel sweep on K x = rhs (rhs None: zero), in
        place on the flat array: each free node takes the face-neighbour
        mean (plus rhs / 2N), the exact minimizer of its slice.  A class
        adds one gathered face neighbour at a time, in the order of
        ``_face_offsets``: the sum is the same, bit for bit, as summing a
        stacked gather over its rows, with no (2N, n) index array.  Each
        gather, the rhs gather and the scatter of the result read a shifted
        view (of ``flat`` or rhs) at one intp index array per class, made
        once a sweep from the int32 class: idx - reach (reach the largest
        stride), which no free node makes negative as none lies on the box
        rim.  So no take converts an int32 index."""
        denom = 2.0 * self.free.ndim
        offsets = _face_offsets(self.free.shape)
        reach = int(offsets[0])
        first, *rest = offsets + reach
        for idx in self.classes:
            base = np.subtract(idx, reach, dtype=np.intp)
            total = flat[first:].take(base)
            for start in rest:
                total += flat[start:].take(base)
            if rhs is not None:
                total += rhs[reach:].take(base)
            total /= denom
            flat[reach:][base] = total

    def curvature(self, c):
        """<c, A c> for a field c that is zero off the free nodes: the sum
        of (c_i - c_j)^2 over the box edges, exact because no free node
        lies on the box rim, with no temporary larger than a slab."""
        return _edge_square_sum(c)

    def apply(self, x, out=None, planes=None):
        """A x on the free nodes, zero elsewhere, into ``out`` if given, on
        the leading-axis planes [a, b) only when ``planes`` is (a, b), with
        the same bits.  Values at nodes no free node touches (exterior
        ones) may be anything; the stencil level needs them finite."""
        n = x.shape[0]
        a, b = (0, n) if planes is None else planes
        out = _laplacian(x, out, (a, b))
        np.copyto(out, 0.0, where=~self.free[a:b])
        return out

    def correction(self, e, axes):
        """(c on the free nodes in flat order, <c, A c>), c = Z P e, e on
        the coarser level that halves ``axes``: made and summed over its
        edges slab by slab, with the bits of ``_edge_square_sum``."""
        values = np.empty(self.free_count)
        total, at = 0.0, 0
        for a, b, count, window in _prolong_slabs(e, self, axes):
            total = _add_edge_squares(total, window, b - a)
            values[at : at + count] = window[: b - a][self.free[a:b]]
            at += count
            del window  # before the next window is made
        return values, total


class _StencilLevel(_Level):
    """A level whose A, once ``set_stencil`` has stored it, is a 3^N-point
    stencil over every o in {-1, 0, 1}^N (``monotone.hessian``'s layout):
    J(u) on a Galerkin hierarchy's finest level, P^T A P on the others."""

    stencil = _rows = None

    def drop_stencil(self):
        """Forget A and everything built from it."""
        self.stencil = self._rows = self._blocks = None

    def set_stencil(self, stencil):
        """Make ``stencil`` A, its couplings of non-free nodes and its
        entries with no neighbour at their offset zeroed in place."""
        self.drop_stencil()
        for offset, entries in stencil.items():
            lo, hi = offset_slices(offset)
            keep = np.zeros(self.free.shape, dtype=bool)
            keep[lo] = self.free[lo] & self.free[hi]
            np.copyto(entries, 0.0, where=~keep)
        self.stencil = stencil

    def diagonal(self):
        return self.stencil[(0,) * self.free.ndim]

    def couplings(self):
        return {o: e for o, e in self.stencil.items() if any(o)}

    def sweep(self, flat, rhs=None):
        """One parity Gauss-Seidel sweep on A x = rhs (rhs None: zero), in
        place on the flat array: each free node takes the exact minimizer of
        its slice, one class at a time through ``_stencil_rows``."""
        offsets, rows = self._stencil_rows()
        for idx, coef, inv_diag in rows:
            nb = np.take(flat, idx + offsets, mode="clip")
            total = np.einsum("ij,ij->j", coef, nb)
            if rhs is not None:
                np.subtract(rhs[idx], total, out=total)
            else:
                np.negative(total, out=total)
            flat[idx] = total * inv_diag

    def _stencil_rows(self):
        """Flat offsets (a column) and per parity class its indices as intp,
        as the solver's ``_ColorWorkspace`` keeps them, the coefficient of
        each coupling and the inverse diagonal.  A neighbour past the box
        edge has coefficient 0; its clipped index reads some finite value of
        the level's field."""
        if self._rows is None:
            couplings = {o: e.ravel() for o, e in self.couplings().items()}
            strides = _strides(self.free.shape)
            offsets = np.array([[np.dot(o, strides)] for o in couplings])
            diag = self.diagonal().ravel()
            rows = []
            for idx in self.classes:
                idx = idx.astype(np.intp)
                coef = np.stack([entries[idx] for entries in couplings.values()])
                d = diag[idx]
                rows.append((idx, coef, np.divide(1.0, d, out=np.zeros_like(d), where=d > 0)))
            self._rows = (offsets, rows)
        return self._rows

    def curvature(self, c):
        return inner(c, self.apply(c))

    @np.errstate(invalid="ignore", over="ignore")
    def apply(self, x, out=None, planes=None):
        n = x.shape[0]
        a, b = (0, n) if planes is None else planes
        out = np.multiply(self.diagonal()[a:b], x[a:b], out=out)
        for (d, *rest), entries in self.couplings().items():
            # Rows [r0, r1): those of offset_slices' lo in [a, b).
            r0, r1 = max(a, int(d < 0)), min(b, n - int(d > 0))
            lo, hi = offset_slices(rest)
            out[(slice(r0 - a, r1 - a), *lo)] += (
                entries[(slice(r0, r1), *lo)] * x[(slice(r0 + d, r1 + d), *hi)])
        np.copyto(out, 0.0, where=~self.free[a:b])
        return out

    def correction(self, e, axes):
        c = _prolong(e, self, axes)
        return c[self.free], self.curvature(c)


@np.errstate(invalid="ignore", over="ignore")
def _laplacian(x, out=None, planes=None):
    """K x = 2N x_i minus the face neighbours of i at every node off the box
    rim, into ``out`` if given (both C-contiguous), on the leading-axis
    planes [a, b) only when ``planes`` is (a, b): the operator of
    ``_PlainLevel`` and the solver's t = 2 residual.

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
    neighbours, slab by slab as ``_PlainLevel.correction`` sums it."""
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
    result stencils in ``_StencilLevel``'s layout, A's entries with no neighbour
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
    ``axes``, A a fine level's stencil as ``_StencilLevel.set_stencil``
    leaves it.

    P is the product of one 1D interpolation per halved axis and A couples
    nodes at most one step apart per axis, so P^T A P = P_N^T ... P_1^T A
    P_1 ... P_N couples coarse nodes at most one step apart too; it is
    built one axis at a time from the stencil arrays, with no probe and no
    matrix.  The result lies on the coarse lattice's box;
    ``_StencilLevel.set_stencil`` keeps its free-node part and zeroes the
    rest.
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
    taken as <P^T rho, e> on level k + 1 (``_coarse_cycle``); rho, P^T rho,
    c and <c, K c> are made slab by slab.  The coarsest level is solved
    exactly instead, x += A^-1 (rhs - A x) on its free nodes
    (``_Level.solve``), with a factor built once per operator: once per
    solve on K levels, once per ``linearize`` on Galerkin ones.  Blocks of
    whole planes of at most ``_BLOCK_NODES`` nodes are eliminated in turn,
    so a 2D system of the shipped scenarios is one dense inverse and a 3D
    one of 504 nodes keeps three blocks, 0.8 MB against 2.0.  The exact
    solve replaced 30 parity sweeps, which cut the error by only about
    0.96 a sweep on a 17 x 17 level.  A lattice too small to coarsen is its own
    coarsest level.  A level halves only the axes that stay at least
    ``_MIN_COARSE_DIM`` nodes long, P being the identity along the others,
    and coarsening stops before a level of fewer than ``_MIN_COARSE_NODES``
    free nodes, which bounds the dense system: the 3D slab [0, 1]^2 x [0,
    1/16] at h = 1/64 ends on a 9 x 9 x 7 level of 147 free nodes, where
    stopping at the first short axis left it one 67 x 67 x 7 level of
    11,907.

    At t != 2 the finest level smooths with the solver's Newton sweeps
    (``cycle``'s ``newton``).  ``galerkin`` chooses once the class of every
    level with its coarse mask: ``_StencilLevel`` on ``_coarse_columns``,
    where each cycle's ``linearize`` makes the finest A J(u) and every
    coarser one P^T A P of the level above (``_galerkin_product``), or
    ``_PlainLevel`` on ``_coarse_free``.  The solver takes Galerkin levels
    at t != 2 in 2D only, the case that was measured end to end: the h =
    1/64 t = 3 disk obstacle takes 8 cycles instead of 21, and rebuilding
    its levels costs about 3 ms a cycle.  In 3D a t = 3 obstacle solve on
    the 83^3-node ball took 14 cycles in 73 s against 29 in 53 s on K, at a
    peak RSS of 210 MB against 128 MB (J then held 14 arrays, 27 now), when
    each level was built by 3^N probes; the stencil build cuts its first
    coarse level from about 2 s to 0.17 s, but that solve was not timed
    with it.  Sweeps, line-searched corrections and the exact solve of a
    one-level t = 2 solve never raise the energy, and c is zero on every
    fixed node.
    """

    def __init__(self, grid, constraint, galerkin=False):
        free = grid.labels == INTERIOR
        if constraint is not None:
            free.ravel()[constraint.indices] = False
        self.galerkin = galerkin
        kind, coarsen = (
            (_StencilLevel, _coarse_columns) if galerkin else (_PlainLevel, _coarse_free))
        self.levels = [kind(free)]
        while True:
            axes = [k for k, n in enumerate(free.shape) if (n + 1) // 2 >= _MIN_COARSE_DIM]
            if not axes:
                break
            coarse = coarsen(free, axes)
            if coarse.sum() < _MIN_COARSE_NODES:
                break
            self.levels.append(kind(coarse, free.shape))
            free = coarse

    def linearize(self, newton, values):
        """Make J(u) at ``values`` (``newton.jacobian``) the
        finest level's operator and every coarser one P^T A P of the level
        above.  The old operators go first, so they never sit beside the
        new ones."""
        for level in self.levels:
            level.drop_stencil()
        self.levels[0].set_stencil(newton.jacobian(values))
        for fine, coarse in zip(self.levels, self.levels[1:]):
            coarse.set_stencil(_galerkin_product(fine.stencil, coarse.axes))

    def cycle(self, values, newton=None):
        """One V-cycle on ``values`` in place; returns the max update.  With
        ``newton``, the solver's ``_NewtonLevel``, the finest level is its own."""
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
