"""Lattice classification of shapes: interior/boundary/exterior node labeling.

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


def _moore_offsets(dim):
    grids = np.meshgrid(*([np.array([-1, 0, 1])] * dim), indexing="ij")
    offs = np.stack([g.ravel() for g in grids], axis=1)
    return offs[np.any(offs != 0, axis=1)]


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
        self._points = None
        self._active = None

    # -- geometry ------------------------------------------------------------

    def axis_coords(self, k):
        return self.origin[k] + self.h * np.arange(self.dims[k])

    def points(self):
        """All node coordinates, flattened C-order, shape (n_nodes, dim)."""
        if self._points is None:
            axes = [self.axis_coords(k) for k in range(self.dim)]
            mesh = np.meshgrid(*axes, indexing="ij")
            self._points = np.stack([m.ravel() for m in mesh], axis=1)
        return self._points

    def node_count(self):
        return int(np.prod(self.dims))

    def index_of(self, point):
        """Flat index of the lattice node nearest to ``point``."""
        idx = np.rint((np.asarray(point, dtype=float) - self.origin) / self.h).astype(int)
        if np.any(idx < 0) or np.any(idx >= np.array(self.dims)):
            raise ValueError(f"point {point} falls outside the grid")
        return int(np.ravel_multi_index(tuple(idx), self.dims))

    def snap(self, point):
        """Coordinates of the nearest lattice node."""
        flat = self.index_of(point)
        return self.points()[flat].copy()

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
        return _classify(other_shape, self.points(), self.dims)

    def nodes_within(self, center, radius):
        """Flat indices of nodes with |x - center| <= radius."""
        delta = self.points() - np.asarray(center, dtype=float)
        close = np.sum(delta * delta, axis=1) <= radius * radius * (1 + 1e-12)
        return np.flatnonzero(close)

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
                sl = tuple(slice(c, c + d - 1) for c, d in zip(corner, self.dims))
                any_int |= interior[sl]
                all_ok &= non_ext[sl]
            if np.any(any_int & ~all_ok):
                raise ValueError("grid invariant violated: interior corner in a cell "
                                 "with an exterior corner")
            any_int.flags.writeable = False
            self._active = any_int
        return self._active

    # -- serialization helpers ------------------------------------------------

    def meta(self):
        return {
            "h": self.h,
            "origin": list(self.origin),
            "dims": list(self.dims),
            "shape": self.shape.to_dict() if isinstance(self.shape, Shape) else None,
            "counts": self.label_counts(),
        }


def _classify(shape, points, dims):
    interior = shape.inside_open(points).reshape(dims)
    labels = np.full(dims, EXTERIOR, dtype=np.int8)
    labels[interior] = INTERIOR
    near = np.zeros(dims, dtype=bool)
    for off in _moore_offsets(len(dims)):
        src = tuple(
            slice(max(o, 0), d + min(o, 0)) for o, d in zip(off, dims)
        )
        dst = tuple(
            slice(max(-o, 0), d + min(-o, 0)) for o, d in zip(off, dims)
        )
        near[dst] |= interior[src]
    labels[near & ~interior] = BOUNDARY
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
    grid.labels = _classify(shape, grid.points(), dims)
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

    def meta(self):
        return {
            "center": list(self.center),
            "radius": self.radius,
            "count": self.count,
            "volume": self.volume,
        }


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
