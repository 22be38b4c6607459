"""Lattice classification of shapes: interior/boundary/exterior node labeling,
and the lattice's one set of index rules (cell corners, neighbour shifts)
and node distances, which every other module reads.

A grid is a uniform lattice of spacing ``h`` whose nodes sit at absolute
multiples of ``h`` (shifted by a common origin that is itself a multiple of
``h``).  Aligning to absolute multiples means two grids of the same spacing
share node coordinates wherever they overlap, which the locality probe and
the enclosing-region construction rely on.

Labeling convention (fixed by a worked example: the closed unit square at
h = 1/4 classifies to 9 interior and 16 boundary nodes):

* ``interior``  -- node strictly inside the open region (surface ties are
  not interior),
* ``boundary``  -- non-interior node with an interior node among its 3^N - 1
  Moore neighbors (boundary data lives on the first ring outside),
* ``exterior``  -- everything else.

Every interior node keeps all 2N axis neighbors inside the stored bounding
box because the box pads the shape's bounding box by one node.
"""

import itertools
import math

import numpy as np

from .shapes import Shape

__all__ = [
    "INTERIOR",
    "BOUNDARY",
    "EXTERIOR",
    "GridDomain",
    "build_grid",
    "ComplementCap",
    "complement_cap",
    "density",
    "unit_ball_volume",
]

INTERIOR = np.int8(0)
BOUNDARY = np.int8(1)
EXTERIOR = np.int8(2)


def unit_ball_volume(dim):
    """Volume of the unit ball in R^dim: pi^(d/2) / Gamma(d/2 + 1)."""
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


def unit(ndim, axis):
    """The offset of one step along ``axis``."""
    return tuple(int(k == axis) for k in range(ndim))


def offset_slices(offset):
    """(lo, hi) index tuples with x[hi] the values at offset from the nodes
    of x[lo], over every node whose neighbour at that offset exists."""
    head, tail, every = slice(1, None), slice(None, -1), slice(None)
    lo = tuple(head if d < 0 else tail if d > 0 else every for d in offset)
    hi = tuple(tail if d < 0 else head if d > 0 else every for d in offset)
    return lo, hi


def cell_view(dims, corner):
    """Index tuple of the node at ``corner`` (0 or 1 per axis) of every
    cell of a lattice of ``dims`` nodes; on an axis one node shorter,
    corner 0 takes that axis whole."""
    return tuple(slice(c, c + n - 1) for c, n in zip(corner, dims))


def distance_squared(axes, center):
    """|x - center|^2 over the lattice spanned by per-axis coordinates,
    summed axis by axis, ((d0^2 + d1^2) + d2^2): the bits of
    ``np.sum((points - center) ** 2, axis=1)``."""
    total = 0.0
    for k, coords in enumerate(axes):
        delta = coords - center[k]
        total = total + (delta * delta).reshape([-1 if j == k else 1 for j in range(len(axes))])
    return total


def dilate(mask, axes):
    """``mask`` grown by one node along each of ``axes`` in turn.  Over all
    N axes, a node ends up in it when its 3^N Moore neighbourhood meets
    ``mask``."""
    for axis in axes:
        lo, hi = offset_slices(unit(mask.ndim, axis))
        grown = mask.copy()
        grown[hi] |= mask[lo]
        grown[lo] |= mask[hi]
        mask = grown
    return mask


class GridDomain:
    """A shape classified on a uniform lattice.

    Attributes: ``shape`` (the region), ``h`` (spacing), ``origin`` (node
    (0,...,0) coordinate), ``dims`` (node counts per axis), ``labels``
    (int8 array of INTERIOR/BOUNDARY/EXTERIOR over ``dims``).
    """

    def __init__(self, shape, h, origin, dims, labels):
        self.shape = shape
        self.h = float(h)
        self.origin = np.asarray(origin, dtype=float)
        self.dims = tuple(int(d) for d in dims)
        self.labels = labels
        self.dim = len(self.dims)
        self._active = None

    # -- geometry ------------------------------------------------------------

    def axis_coords(self, k):
        return self.origin[k] + self.h * np.arange(self.dims[k])

    def points(self):
        """All node coordinates, flattened C-order, shape (n_nodes, dim).

        Built afresh on every call, for callers that evaluate user data at
        the nodes (n x N floats, 13.7 MB on an 83^3 grid); ``inside`` and
        ``distance_squared`` read ``axis_coords`` instead.
        """
        return _mesh_points([self.axis_coords(k) for k in range(self.dim)])

    def node_count(self):
        return int(np.prod(self.dims))

    def index_of(self, point):
        """Flat index of the lattice node nearest to ``point``."""
        idx = np.rint((np.asarray(point, dtype=float) - self.origin) / self.h).astype(int)
        if np.any(idx < 0) or np.any(idx >= np.array(self.dims)):
            raise ValueError(f"point {point} falls outside the grid")
        return int(np.ravel_multi_index(tuple(idx), self.dims))

    def label_counts(self):
        flat = self.labels.ravel()
        return {
            "interior": int(np.sum(flat == INTERIOR)),
            "boundary": int(np.sum(flat == BOUNDARY)),
            "exterior": int(np.sum(flat == EXTERIOR)),
        }

    # -- classification ------------------------------------------------------

    def classify(self, other_shape):
        """Labels of another shape on this grid's lattice (same node set)."""
        return _classify(other_shape, self)

    def inside(self, shape, closed):
        """``shape.inside`` at every node, as a bool array over ``dims``.

        It runs on the ``_slabs`` of the lattice, built from ``axis_coords``,
        so no full coordinate array is ever held: an 83^3 grid takes 10
        calls, and a 2D grid of up to 2^16 nodes one.
        """
        lead = self.axis_coords(0)
        rest = [self.axis_coords(k) for k in range(1, self.dim)]
        out = np.empty(self.dims, dtype=bool)
        for a, b in _slabs(self.dims):
            block = _mesh_points([lead[a:b]] + rest)
            out[a:b] = shape.inside(block, closed).reshape((-1,) + self.dims[1:])
        return out

    def distance_squared(self, center):
        """``distance_squared`` from ``center`` at every node, over ``dims``."""
        return distance_squared([self.axis_coords(k) for k in range(self.dim)], center)

    def nodes_within(self, center, radius):
        """Flat indices of nodes with |x - center| <= radius, ascending.

        Distances (``distance_squared``) are measured only on the box of
        node indices around the ball, clipped to the grid (an empty index
        array when the box misses it).
        """
        center = np.asarray(center, dtype=float)
        box = []
        for k in range(self.dim):
            lo = max(math.floor((center[k] - radius - self.origin[k]) / self.h) - 1, 0)
            hi = min(math.ceil((center[k] + radius - self.origin[k]) / self.h) + 1,
                     self.dims[k] - 1)
            if lo > hi:
                return np.empty(0, dtype=np.intp)
            box.append(np.arange(lo, hi + 1))
        dist2 = distance_squared([self.axis_coords(k)[idx] for k, idx in enumerate(box)], center)
        close = np.nonzero(dist2 <= radius * radius * (1 + 1e-12))
        return np.ravel_multi_index(
            tuple(idx[hit] for idx, hit in zip(box, close)), self.dims
        )

    def active_cell_mask(self):
        """Cells (lower-corner indexed) owning at least one interior corner.

        Grid invariant: such cells have no exterior corner, because every
        non-interior Moore neighbor of an interior node is labeled boundary.
        Computed (and the invariant checked) once per grid; the mask is
        returned read-only.
        """
        if self._active is None:
            interior = self.labels == INTERIOR
            non_ext = self.labels != EXTERIOR
            any_int = np.zeros(tuple(d - 1 for d in self.dims), dtype=bool)
            all_ok = np.ones_like(any_int)
            for corner in np.ndindex(*([2] * self.dim)):
                any_int |= interior[cell_view(self.dims, corner)]
                all_ok &= non_ext[cell_view(self.dims, corner)]
            if np.any(any_int & ~all_ok):
                raise ValueError("grid invariant violated: interior corner in a cell "
                                 "with an exterior corner")
            any_int.flags.writeable = False
            self._active = any_int
        return self._active

    def edge_cell_counts(self, k):
        """The number of active cells that share each axis-k edge, 0 to
        2^(N-1), as int8 over the edges (node (i_0, ..., i_N-1) to its +1
        neighbour along k: ``dims`` with axis k one shorter).

        An edge with a nonzero count has no exterior end, by the invariant
        of ``active_cell_mask``.  Built afresh on every call: kept for the
        grid's life, the three arrays of an 83^3 grid held 1.7 MB.
        """
        active = self.active_cell_mask().view(np.int8)
        count = np.zeros(tuple(d - (j == k) for j, d in enumerate(self.dims)), dtype=np.int8)
        # Cell j holds the axis-k edges at nodes j + c over the corners c
        # with c_k = 0.
        for rest in itertools.product((0, 1), repeat=self.dim - 1):
            corner = rest[:k] + (0,) + rest[k:]
            count[cell_view(self.dims, corner)] += active
        return count

    # -- serialization helpers ------------------------------------------------

    def meta(self):
        return {
            "h": self.h,
            "origin": list(self.origin),
            "dims": list(self.dims),
            "shape": self.shape.to_dict() if isinstance(self.shape, Shape) else None,
            "counts": self.label_counts(),
        }


def _mesh_points(axes):
    """Coordinates of the lattice spanned by per-axis coordinate arrays,
    flattened C-order, shape (n_nodes, N)."""
    ndim = len(axes)
    points = np.empty(tuple(a.size for a in axes) + (ndim,))
    for k, coords in enumerate(axes):
        points[..., k] = coords.reshape([-1 if j == k else 1 for j in range(ndim)])
    return points.reshape(-1, ndim)


# The most nodes of one slab: a block of ``GridDomain.inside``, and of the
# solver's walkers over a field.
_SLAB_NODES = 1 << 16


def _slabs(shape, plane=None):
    """The slabs [a, b) of leading-axis planes of ``shape`` taken in turn:
    ``_SLAB_NODES`` nodes at most, or one plane, counting ``plane`` nodes a
    plane (default the array's)."""
    plane = math.prod(shape[1:]) if plane is None else plane
    planes = max(1, _SLAB_NODES // plane)
    return [(a, min(a + planes, shape[0])) for a in range(0, shape[0], planes)]


def _classify(shape, grid):
    """Labels of ``shape`` on ``grid``'s lattice: its interior nodes are
    those inside the open region (a node on a surface is not interior)."""
    interior = grid.inside(shape, False)
    labels = np.full(grid.dims, EXTERIOR, dtype=np.int8)
    labels[dilate(interior, range(grid.dim))] = BOUNDARY
    labels[interior] = INTERIOR
    return labels


def build_grid(shape, h):
    """Classify ``shape`` on a lattice of spacing ``h``.

    The lattice covers the shape's bounding box, aligned outward to absolute
    multiples of ``h`` and padded by one extra node on every side.
    """
    if h <= 0:
        raise ValueError("grid spacing must be positive")
    box = shape.bbox()
    if box is None:
        raise ValueError("cannot grid an unbounded shape")
    lo, hi = box
    i_lo = np.floor(lo / h + 1e-9).astype(int) - 1
    i_hi = np.ceil(hi / h - 1e-9).astype(int) + 1
    dims = tuple(int(b - a + 1) for a, b in zip(i_lo, i_hi))
    origin = i_lo * h
    grid = GridDomain(shape, h, origin, dims, None)
    grid.labels = _classify(shape, grid)
    return grid


class ComplementCap:
    """Nodes of the domain complement inside a closed probe ball.

    ``indices`` are flat node indices on the grid's lattice; ``volume`` is
    the node-count volume count * h^dim.
    """

    def __init__(self, grid, center, radius, indices):
        self.grid = grid
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.count = int(self.indices.size)
        self.volume = self.count * grid.h**grid.dim

    def is_empty(self):
        return self.count == 0


def enclosing_center_radius(shape):
    """Center of the shape's bbox and the smallest R with bbox in ball(c, R)."""
    lo, hi = shape.bbox()
    center = 0.5 * (lo + hi)
    radius = float(np.linalg.norm(hi - center))
    return center, radius


def complement_cap(grid, center, radius, labels=None, shape=None):
    """Complement nodes (non-interior) within the closed ball around center.

    Preconditions: the probe radius is positive and below half the enclosing
    radius of the domain, and the closed ball is covered by the grid.  Pass
    ``labels``/``shape`` when the complement refers to a region classified on
    this grid's lattice rather than the grid's own shape.
    """
    if radius <= 0:
        raise ValueError("cap radius must be positive")
    region = shape if shape is not None else grid.shape
    _, enc_r = enclosing_center_radius(region)
    if radius >= 0.5 * enc_r * (1.0 + 1e-12):
        raise ValueError(
            f"cap radius {radius} must stay below half the enclosing radius "
            f"{enc_r} of the domain"
        )
    center = np.asarray(center, dtype=float)
    lo = grid.origin
    hi = grid.origin + (np.array(grid.dims) - 1) * grid.h
    if np.any(center - radius < lo - 1e-12) or np.any(center + radius > hi + 1e-12):
        raise ValueError("cap ball is not covered by the grid")
    labels = grid.labels if labels is None else labels
    indices = grid.nodes_within(center, radius)
    indices = indices[labels.ravel()[indices] != INTERIOR]
    return ComplementCap(grid, center, radius, indices)


def density(cap):
    """Complement volume fraction of the probe ball, clamped to [0, 1]."""
    ball_vol = unit_ball_volume(cap.grid.dim) * cap.radius**cap.grid.dim
    sigma = cap.volume / ball_vol
    return float(min(1.0, max(0.0, sigma)))
