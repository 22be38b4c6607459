"""Constructive solid geometry for lattice domain classification.

Shapes are closed-form regions of R^N (N = 2 or 3 in practice) built from a
small set of primitives plus union / intersection / complement / difference.
Every shape answers two questions:

* ``inside(points, closed)`` -- the points of the closure when ``closed``,
  else the strictly interior points,
* ``bbox()`` -- an axis-aligned bounding box, or None when unbounded.

Membership is vectorized over numpy point arrays.  The open/closed split
matters: lattice classification treats points *on* a surface as outside the
open region, while obstacles and caps use the closure.  ``_below`` holds the
open/closed rule; a complement swaps the two.  Zero-thickness sheets (a slit,
a folded cone) have an empty interior, and their closure holds the points
within ``SHEET_TOL`` of the sheet.

Shapes serialize to plain dicts (``to_dict`` / ``shape_from_dict``), read
from each type's ``TYPE`` and ``KEYS``, so scenario files can describe
geometry in JSON.
"""

import math

import numpy as np

__all__ = [
    "Shape",
    "Ball",
    "Box",
    "Halfspace",
    "SolidCone",
    "FlatCone",
    "TwistedCone",
    "PowerCusp",
    "Union",
    "Intersection",
    "Complement",
    "Difference",
    "shape_from_dict",
]

# Tolerance for "point sits on a zero-thickness sheet" tests.  Lattice node
# coordinates are origin + k*h with relative rounding ~1e-16, so 1e-12 is
# comfortably above float noise and far below any grid spacing in use.
SHEET_TOL = 1e-12


# ---------------------------------------------------------------------------
# Shape base class and primitives.
# ---------------------------------------------------------------------------


def squared_norm(comps):
    """|p|^2 from the N component arrays of p; for an (n, N) point array q
    pass ``q.T``, its columns.

    Summed component by component, ((p0^2 + p1^2) + p2^2): elementwise
    passes are several times faster than a reduction over a short last
    axis, and ``np.sum`` over such an axis adds in the same order, so the
    bits are the same.
    """
    total = comps[0] * comps[0]
    for c in comps[1:]:
        total += c * c
    return total


def _as_points(points, dim):
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.shape[1] != dim:
        raise ValueError(f"expected points in R^{dim}, got shape {pts.shape}")
    return pts


def _below(a, b, closed):
    """``a <= b`` when ``closed``, else ``a < b``: the open/closed rule."""
    return a <= b if closed else a < b


def _plain(value):
    """``value`` as ``to_dict`` writes it: shapes as dicts, arrays as lists."""
    if isinstance(value, Shape):
        return value.to_dict()
    if isinstance(value, np.ndarray):
        return list(value)
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return value


class Shape:
    """Base class: a region of R^N with open/closed membership.

    A subclass declares ``TYPE``, its JSON name, and ``KEYS``, the
    constructor arguments it keeps as attributes of the same names, in
    constructor order; ``OPTIONAL`` names the keys a dict may leave out.
    """

    dim = None
    TYPE = None
    KEYS = ()
    OPTIONAL = ()

    def inside(self, points, closed):
        """Membership of each point in the closure if ``closed``, else in the interior."""
        raise NotImplementedError

    def bbox(self):
        """Axis-aligned bounding box (lo, hi) arrays, or None if unbounded."""
        raise NotImplementedError

    def to_dict(self):
        return {"type": self.TYPE, **{key: _plain(getattr(self, key)) for key in self.KEYS}}


class Ball(Shape):
    """Euclidean ball {|x - center| < radius} (closure: <=)."""

    TYPE, KEYS = "ball", ("center", "radius")

    def __init__(self, center, radius):
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")
        self.dim = self.center.shape[0]

    def inside(self, points, closed):
        pts = _as_points(points, self.dim)
        return _below(squared_norm((pts - self.center).T), self.radius**2, closed)

    def bbox(self):
        return self.center - self.radius, self.center + self.radius


class Box(Shape):
    """Axis-aligned box {lo < x < hi} (closure: <=)."""

    TYPE, KEYS = "box", ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if self.lo.shape != self.hi.shape or np.any(self.lo >= self.hi):
            raise ValueError("box needs lo < hi componentwise")
        self.dim = self.lo.shape[0]

    def inside(self, points, closed):
        pts = _as_points(points, self.dim)
        return np.all(_below(self.lo, pts, closed) & _below(pts, self.hi, closed), axis=1)

    def bbox(self):
        return self.lo.copy(), self.hi.copy()


class Halfspace(Shape):
    """Halfspace {normal . x < offset} (closure: <=).  Unbounded.  The normal
    and offset are kept as given, so a dict round trip keeps every side."""

    TYPE, KEYS = "halfspace", ("normal", "offset")

    def __init__(self, normal, offset):
        self.normal = np.asarray(normal, dtype=float)
        if not np.any(self.normal):
            raise ValueError("halfspace normal must be nonzero")
        self.offset = float(offset)
        self.dim = self.normal.shape[0]

    def inside(self, points, closed):
        return _below(_as_points(points, self.dim) @ self.normal, self.offset, closed)

    def bbox(self):
        return None


class SolidCone(Shape):
    """Truncated solid cone with vertex, axis, opening parameter, radius.

    With a the unit axis, the closed set is {q = x - vertex : q.a >= 0,
    |q| <= radius, |q|^2 <= (1 + opening) * (q.a)^2}.  Larger opening means
    a wider cone; the aperture half-angle is arctan(sqrt(opening)).  The
    axis is kept as given, so a dict round trip keeps every side.
    """

    TYPE, KEYS = "solid_cone", ("vertex", "axis", "opening", "radius")

    def __init__(self, vertex, axis, opening, radius):
        self.vertex = np.asarray(vertex, dtype=float)
        self.axis = np.asarray(axis, dtype=float)
        norm = np.linalg.norm(self.axis)
        if norm == 0:
            raise ValueError("cone axis must be nonzero")
        self._unit = self.axis / norm
        self.opening = float(opening)
        self.radius = float(radius)
        if self.opening <= 0 or self.radius <= 0:
            raise ValueError("cone needs positive opening and radius")
        self.dim = self.vertex.shape[0]

    def inside(self, points, closed):
        q = _as_points(points, self.dim) - self.vertex
        s = q @ self._unit
        q2 = squared_norm(q.T)
        return (
            _below(0, s, closed)
            & _below(q2, self.radius**2, closed)
            & _below(q2, (1.0 + self.opening) * s * s, closed)
        )

    def bbox(self):
        return self.vertex - self.radius, self.vertex + self.radius


class FlatCone(Shape):
    """Zero-thickness cone sheet inside the hyperplane {x_N = vertex_N}.

    The sheet is {q = x - vertex : q_N = 0, q.axis >= 0, |q| <= radius,
    |q|^2 <= (1 + opening) (q.axis)^2}, with ``axis`` orthogonal to e_N and
    taken as a unit vector (kept as given, as ``SolidCone`` keeps it).  In
    R^2 with opening >= 0 this degenerates to the segment from the vertex of
    length ``radius`` along ``axis`` (a slit).  The open interior is empty.
    """

    TYPE, KEYS = "flat_cone", ("vertex", "axis", "opening", "radius")

    def __init__(self, vertex, axis, opening, radius):
        self.vertex = np.asarray(vertex, dtype=float)
        self.axis = np.asarray(axis, dtype=float)
        self.dim = self.vertex.shape[0]
        if abs(self.axis[self.dim - 1]) > 1e-14:
            raise ValueError("flat cone axis must be orthogonal to the sheet normal e_N")
        norm = np.linalg.norm(self.axis)
        if norm == 0:
            raise ValueError("flat cone axis must be nonzero")
        self._unit = self.axis / norm
        self.opening = float(opening)
        self.radius = float(radius)
        if self.opening < 0 or self.radius <= 0:
            raise ValueError("flat cone needs opening >= 0 and positive radius")

    def inside(self, points, closed):
        q = _as_points(points, self.dim)
        if not closed:
            return np.zeros(q.shape[0], dtype=bool)
        q = q - self.vertex
        on_sheet = np.abs(q[:, -1]) <= SHEET_TOL
        s = q @ self._unit
        q2 = squared_norm(q.T)
        return (
            on_sheet
            & (s >= -SHEET_TOL)
            & (q2 <= self.radius**2 + SHEET_TOL)
            & (q2 <= (1.0 + self.opening) * s * s + SHEET_TOL)
        )

    def bbox(self):
        return self.vertex - self.radius, self.vertex + self.radius


class TwistedCone(Shape):
    """Folded cone sheet in R^3: three flat pieces, one per coordinate normal.

    Start from the flat cone D = {(s, w) : s >= 0, s^2 + w^2 <= radius^2,
    w^2 <= opening * s^2} in the (x1, x2) plane with vertex at the origin.
    Fold along the line s = c1 so the part beyond stands up vertically, then
    fold the standing wall's flap w > w0 = sqrt(opening)*c1 about its vertical
    crease.  With that particular w0 the three creases meet in one point and
    the piecewise isometry is continuous, hence a non-expansive image of the
    flat cone.  The pieces are orthogonal to e3 (floor, s <= c1), e1 (wall),
    and e2 (side flap); near the vertex the shape coincides with the flat
    cone.  Canonical orientation; translate via ``vertex``.  The open
    interior is empty.
    """

    TYPE, KEYS = "twisted_cone", ("vertex", "opening", "radius", "fold_fraction")
    OPTIONAL = ("fold_fraction",)

    def __init__(self, vertex, opening, radius, fold_fraction=1.0 / 3.0):
        self.vertex = np.asarray(vertex, dtype=float)
        self.dim = self.vertex.shape[0]
        if self.dim != 3:
            raise ValueError("twisted cone is three-dimensional")
        self.opening = float(opening)
        self.radius = float(radius)
        self.fold_fraction = float(fold_fraction)
        if self.opening <= 0 or self.radius <= 0:
            raise ValueError("twisted cone needs positive opening and radius")
        if not 0.0 < self.fold_fraction < 1.0:
            raise ValueError("fold_fraction must lie in (0, 1)")
        self.c1 = self.fold_fraction * self.radius
        self.w0 = math.sqrt(self.opening) * self.c1

    def _unfolded(self, q):
        """Map vertex-relative points to (plane residual, s, w) per piece."""
        pieces = []
        # Floor: x3 = 0, (s, w) = (x1, x2), s <= c1.
        pieces.append((np.abs(q[:, 2]), q[:, 0], q[:, 1], q[:, 0] <= self.c1 + SHEET_TOL))
        # Wall: x1 = c1, s = c1 + x3, w = x2, |w| <= w0, s >= c1.
        s = self.c1 + q[:, 2]
        pieces.append(
            (
                np.abs(q[:, 0] - self.c1),
                s,
                q[:, 1],
                (s >= self.c1 - SHEET_TOL) & (np.abs(q[:, 1]) <= self.w0 + SHEET_TOL),
            )
        )
        # Flap: x2 = w0, s = c1 + x3, w = w0 + (c1 - x1), s >= c1, w >= w0.
        w = self.w0 + (self.c1 - q[:, 0])
        pieces.append(
            (
                np.abs(q[:, 1] - self.w0),
                s,
                w,
                (s >= self.c1 - SHEET_TOL) & (w >= self.w0 - SHEET_TOL),
            )
        )
        return pieces

    def _in_base(self, s, w):
        return (
            (s >= -SHEET_TOL)
            & (s * s + w * w <= self.radius**2 + SHEET_TOL)
            & (w * w <= self.opening * s * s + SHEET_TOL)
        )

    def inside(self, points, closed):
        q = _as_points(points, self.dim)
        if not closed:
            return np.zeros(q.shape[0], dtype=bool)
        hit = None
        for resid, s, w, extra in self._unfolded(q - self.vertex):
            mask = (resid <= SHEET_TOL) & extra & self._in_base(s, w)
            hit = mask if hit is None else (hit | mask)
        return hit

    def bbox(self):
        # Floor reaches x1 in [0, c1]; the flap walks back to
        # c1 - (w_max - w0) with w_max <= sqrt(opening) * radius.
        w_max = math.sqrt(self.opening) * self.radius
        lo = self.vertex + np.array(
            [min(0.0, self.c1 - (w_max - self.w0)), -self.w0, 0.0]
        )
        hi = self.vertex + np.array([self.c1, self.w0, self.radius - self.c1])
        return lo, hi


class PowerCusp(Shape):
    """Solid cusp {0 <= s <= length, |x_perp| <= s^exponent} along an axis.

    ``axis`` is a signed 1-based coordinate index (e.g. +1 means the cusp
    opens along +x1).  With exponent > 1 the tip at the vertex is sharper
    than every cone, the classic thin-complement counterexample geometry.
    """

    TYPE, KEYS = "power_cusp", ("vertex", "axis", "exponent", "length")

    def __init__(self, vertex, axis, exponent, length):
        self.vertex = np.asarray(vertex, dtype=float)
        self.dim = self.vertex.shape[0]
        self.axis = int(axis)
        if not 1 <= abs(self.axis) <= self.dim:
            raise ValueError("axis must be a signed 1-based coordinate index")
        self.exponent = float(exponent)
        self.length = float(length)
        if self.exponent <= 1.0:
            raise ValueError("cusp exponent must exceed 1")
        if self.length <= 0:
            raise ValueError("cusp length must be positive")

    def inside(self, points, closed):
        q = _as_points(points, self.dim) - self.vertex
        k = abs(self.axis) - 1
        s = q[:, k] * (1.0 if self.axis > 0 else -1.0)
        perp2 = squared_norm(q.T) - q[:, k] ** 2
        ok = _below(0, s, closed) & _below(s, self.length, closed)
        with np.errstate(invalid="ignore"):
            ok &= _below(perp2, np.where(s > 0, s, 0.0) ** (2.0 * self.exponent), closed)
        return ok

    def bbox(self):
        k = abs(self.axis) - 1
        width = self.length**self.exponent
        lo = self.vertex - width
        hi = self.vertex + width
        if self.axis > 0:
            lo[k] = self.vertex[k]
            hi[k] = self.vertex[k] + self.length
        else:
            lo[k] = self.vertex[k] - self.length
            hi[k] = self.vertex[k]
        return lo, hi


# ---------------------------------------------------------------------------
# Combinators.
# ---------------------------------------------------------------------------


class Union(Shape):
    TYPE, KEYS = "union", ("parts",)

    def __init__(self, parts):
        self.parts = list(parts)
        if not self.parts:
            raise ValueError(f"{self.TYPE} needs at least one part")
        self.dim = self.parts[0].dim
        if any(p.dim != self.dim for p in self.parts):
            raise ValueError(f"{self.TYPE} parts must share a dimension")

    def inside(self, points, closed):
        out = self.parts[0].inside(points, closed)
        for p in self.parts[1:]:
            out = out | p.inside(points, closed)
        return out

    def bbox(self):
        boxes = [p.bbox() for p in self.parts]
        if any(b is None for b in boxes):
            return None
        lo = np.min([b[0] for b in boxes], axis=0)
        hi = np.max([b[1] for b in boxes], axis=0)
        return lo, hi


class Intersection(Shape):
    TYPE, KEYS = "intersection", ("parts",)
    __init__ = Union.__init__

    def inside(self, points, closed):
        out = self.parts[0].inside(points, closed)
        for p in self.parts[1:]:
            out = out & p.inside(points, closed)
        return out

    def bbox(self):
        lo = None
        hi = None
        for p in self.parts:
            box = p.bbox()
            if box is None:
                continue
            lo = box[0] if lo is None else np.maximum(lo, box[0])
            hi = box[1] if hi is None else np.minimum(hi, box[1])
        if lo is None:
            return None
        return lo, hi


class Complement(Shape):
    """Complement: open is outside the part's closure, closed outside its interior."""

    TYPE, KEYS = "complement", ("part",)

    def __init__(self, part):
        self.part = part
        self.dim = part.dim

    def inside(self, points, closed):
        return ~self.part.inside(points, not closed)

    def bbox(self):
        return None


class Difference(Shape):
    """Set difference a minus b (open: strictly inside a, outside closure b)."""

    TYPE, KEYS = "difference", ("a", "b")

    def __init__(self, a, b):
        if a.dim != b.dim:
            raise ValueError("difference parts must share a dimension")
        self.a = a
        self.b = b
        self.dim = a.dim

    def inside(self, points, closed):
        return self.a.inside(points, closed) & ~self.b.inside(points, not closed)

    def bbox(self):
        return self.a.bbox()


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------

_TYPES = {
    cls.TYPE: cls
    for cls in (Ball, Box, Halfspace, SolidCone, FlatCone, TwistedCone, PowerCusp,
                Union, Intersection, Complement, Difference)
}


def shape_from_dict(data):
    """Rebuild a shape from its ``to_dict`` representation: the class
    ``_TYPES[data["type"]]`` called with its ``KEYS``, ``parts``, ``part``,
    ``a`` and ``b`` built as shapes.  A missing key not ``OPTIONAL`` is a
    KeyError, a key the class does not read a ValueError."""
    kind = data["type"]
    cls = _TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown shape type: {kind!r}")
    for key in data:
        if key != "type" and key not in cls.KEYS:
            raise ValueError(f"unknown key {key!r} in a {kind}; known: {', '.join(cls.KEYS)}")
    args = {key: data[key] for key in cls.KEYS if key in data or key not in cls.OPTIONAL}
    if "parts" in args:
        args["parts"] = [shape_from_dict(p) for p in args["parts"]]
    for key in ("part", "a", "b"):
        if key in args:
            args[key] = shape_from_dict(args[key])
    return cls(**args)
