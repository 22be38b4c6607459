"""Constructive solid geometry for lattice domain classification.

Shapes are closed-form regions of R^N (N = 2 or 3 in practice) built from a
small set of primitives plus union / intersection / complement / difference.
Every shape answers three questions:

* ``inside_open(points)``  -- strictly interior points of the region,
* ``inside_closed(points)`` -- points of the closure,
* ``bbox()`` -- an axis-aligned bounding box, or None when unbounded.

Membership is vectorized over numpy point arrays.  The open/closed split
matters: lattice classification treats points *on* a surface as outside the
open region, while obstacles and caps use the closure.  Zero-thickness sheets
(a slit, a folded cone) have an empty interior, and their closure holds the
points within ``SHEET_TOL`` of the sheet.

Shapes serialize to plain dicts (``to_dict`` / ``shape_from_dict``) so
scenario files can describe geometry in JSON.
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


def _as_points(points, dim):
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.shape[1] != dim:
        raise ValueError(f"expected points in R^{dim}, got shape {pts.shape}")
    return pts


class Shape:
    """Base class: a region of R^N with open/closed membership."""

    dim = None

    def inside_open(self, points):
        raise NotImplementedError

    def inside_closed(self, points):
        raise NotImplementedError

    def bbox(self):
        """Axis-aligned bounding box (lo, hi) arrays, or None if unbounded."""
        raise NotImplementedError

    def to_dict(self):
        raise NotImplementedError

    def diameter(self):
        box = self.bbox()
        if box is None:
            raise ValueError("shape is unbounded")
        lo, hi = box
        return float(np.linalg.norm(hi - lo))

    # Conveniences -----------------------------------------------------------

    def union(self, other):
        return Union([self, other])

    def intersect(self, other):
        return Intersection([self, other])

    def minus(self, other):
        return Difference(self, other)


class Ball(Shape):
    """Euclidean ball {|x - center| < radius} (closure: <=)."""

    def __init__(self, center, radius):
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")
        self.dim = self.center.shape[0]

    def inside_open(self, points):
        pts = _as_points(points, self.dim)
        d2 = np.sum((pts - self.center) ** 2, axis=1)
        return d2 < self.radius**2

    def inside_closed(self, points):
        pts = _as_points(points, self.dim)
        d2 = np.sum((pts - self.center) ** 2, axis=1)
        return d2 <= self.radius**2

    def bbox(self):
        return self.center - self.radius, self.center + self.radius

    def to_dict(self):
        return {"type": "ball", "center": list(self.center), "radius": self.radius}


class Box(Shape):
    """Axis-aligned box {lo < x < hi} (closure: <=)."""

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if self.lo.shape != self.hi.shape or np.any(self.lo >= self.hi):
            raise ValueError("box needs lo < hi componentwise")
        self.dim = self.lo.shape[0]

    def inside_open(self, points):
        pts = _as_points(points, self.dim)
        return np.all((pts > self.lo) & (pts < self.hi), axis=1)

    def inside_closed(self, points):
        pts = _as_points(points, self.dim)
        return np.all((pts >= self.lo) & (pts <= self.hi), axis=1)

    def bbox(self):
        return self.lo.copy(), self.hi.copy()

    def to_dict(self):
        return {"type": "box", "lo": list(self.lo), "hi": list(self.hi)}


class Halfspace(Shape):
    """Halfspace {normal . x < offset} (closure: <=).  Unbounded."""

    def __init__(self, normal, offset):
        self.normal = np.asarray(normal, dtype=float)
        norm = np.linalg.norm(self.normal)
        if norm == 0:
            raise ValueError("halfspace normal must be nonzero")
        self.normal = self.normal / norm
        self.offset = float(offset) / norm
        self.dim = self.normal.shape[0]

    def inside_open(self, points):
        pts = _as_points(points, self.dim)
        return pts @ self.normal < self.offset

    def inside_closed(self, points):
        pts = _as_points(points, self.dim)
        return pts @ self.normal <= self.offset

    def bbox(self):
        return None

    def to_dict(self):
        return {"type": "halfspace", "normal": list(self.normal), "offset": self.offset}


class SolidCone(Shape):
    """Truncated solid cone with vertex, unit axis, opening parameter, radius.

    The closed set is {q = x - vertex : q.axis >= 0, |q| <= radius,
    |q|^2 <= (1 + opening) * (q.axis)^2}.  Larger opening means a wider cone;
    the aperture half-angle is arctan(sqrt(opening)).
    """

    def __init__(self, vertex, axis, opening, radius):
        self.vertex = np.asarray(vertex, dtype=float)
        axis = np.asarray(axis, dtype=float)
        norm = np.linalg.norm(axis)
        if norm == 0:
            raise ValueError("cone axis must be nonzero")
        self.axis = axis / norm
        self.opening = float(opening)
        self.radius = float(radius)
        if self.opening <= 0 or self.radius <= 0:
            raise ValueError("cone needs positive opening and radius")
        self.dim = self.vertex.shape[0]

    def _conditions(self, points):
        q = _as_points(points, self.dim) - self.vertex
        s = q @ self.axis
        q2 = np.sum(q * q, axis=1)
        return s, q2

    def inside_open(self, points):
        s, q2 = self._conditions(points)
        return (s > 0) & (q2 < self.radius**2) & (q2 < (1.0 + self.opening) * s * s)

    def inside_closed(self, points):
        s, q2 = self._conditions(points)
        return (s >= 0) & (q2 <= self.radius**2) & (q2 <= (1.0 + self.opening) * s * s)

    def bbox(self):
        return self.vertex - self.radius, self.vertex + self.radius

    def to_dict(self):
        return {
            "type": "solid_cone",
            "vertex": list(self.vertex),
            "axis": list(self.axis),
            "opening": self.opening,
            "radius": self.radius,
        }


class FlatCone(Shape):
    """Zero-thickness cone sheet inside the hyperplane {x_N = vertex_N}.

    The sheet is {q = x - vertex : q_N = 0, q.axis >= 0, |q| <= radius,
    |q|^2 <= (1 + opening) (q.axis)^2}, with ``axis`` a unit vector orthogonal
    to e_N.  In R^2 with opening >= 0 this degenerates to the segment from the
    vertex of length ``radius`` along ``axis`` (a slit).  The open interior is
    empty.
    """

    def __init__(self, vertex, axis, opening, radius):
        self.vertex = np.asarray(vertex, dtype=float)
        axis = np.asarray(axis, dtype=float)
        self.dim = self.vertex.shape[0]
        if abs(axis[self.dim - 1]) > 1e-14:
            raise ValueError("flat cone axis must be orthogonal to the sheet normal e_N")
        norm = np.linalg.norm(axis)
        if norm == 0:
            raise ValueError("flat cone axis must be nonzero")
        self.axis = axis / norm
        self.opening = float(opening)
        self.radius = float(radius)
        if self.opening < 0 or self.radius <= 0:
            raise ValueError("flat cone needs opening >= 0 and positive radius")

    def inside_open(self, points):
        pts = _as_points(points, self.dim)
        return np.zeros(pts.shape[0], dtype=bool)

    def inside_closed(self, points):
        q = _as_points(points, self.dim) - self.vertex
        on_sheet = np.abs(q[:, -1]) <= SHEET_TOL
        s = q @ self.axis
        q2 = np.sum(q * q, axis=1)
        return (
            on_sheet
            & (s >= -SHEET_TOL)
            & (q2 <= self.radius**2 + SHEET_TOL)
            & (q2 <= (1.0 + self.opening) * s * s + SHEET_TOL)
        )

    def bbox(self):
        return self.vertex - self.radius, self.vertex + self.radius

    def to_dict(self):
        return {
            "type": "flat_cone",
            "vertex": list(self.vertex),
            "axis": list(self.axis),
            "opening": self.opening,
            "radius": self.radius,
        }


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
    cone.  Canonical orientation; translate via ``vertex``.
    """

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

    def _unfolded(self, points):
        """Map ambient points to (plane residual, s, w) per piece."""
        q = _as_points(points, self.dim) - self.vertex
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

    def inside_open(self, points):
        pts = _as_points(points, self.dim)
        return np.zeros(pts.shape[0], dtype=bool)

    def inside_closed(self, points):
        hit = None
        for resid, s, w, extra in self._unfolded(points):
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

    def to_dict(self):
        return {
            "type": "twisted_cone",
            "vertex": list(self.vertex),
            "opening": self.opening,
            "radius": self.radius,
            "fold_fraction": self.fold_fraction,
        }


class PowerCusp(Shape):
    """Solid cusp {0 <= s <= length, |x_perp| <= s^exponent} along an axis.

    ``axis`` is a signed 1-based coordinate index (e.g. +1 means the cusp
    opens along +x1).  With exponent > 1 the tip at the vertex is sharper
    than every cone, the classic thin-complement counterexample geometry.
    """

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

    def _profile(self, points):
        q = _as_points(points, self.dim) - self.vertex
        k = abs(self.axis) - 1
        s = q[:, k] * (1.0 if self.axis > 0 else -1.0)
        perp2 = np.sum(q * q, axis=1) - q[:, k] ** 2
        return s, perp2

    def inside_open(self, points):
        s, perp2 = self._profile(points)
        ok = (s > 0) & (s < self.length)
        with np.errstate(invalid="ignore"):
            ok &= perp2 < np.where(s > 0, s, 0.0) ** (2.0 * self.exponent)
        return ok

    def inside_closed(self, points):
        s, perp2 = self._profile(points)
        ok = (s >= 0) & (s <= self.length)
        with np.errstate(invalid="ignore"):
            ok &= perp2 <= np.where(s > 0, s, 0.0) ** (2.0 * self.exponent)
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

    def to_dict(self):
        return {
            "type": "power_cusp",
            "vertex": list(self.vertex),
            "axis": self.axis,
            "exponent": self.exponent,
            "length": self.length,
        }


# ---------------------------------------------------------------------------
# Combinators.
# ---------------------------------------------------------------------------


class Union(Shape):
    def __init__(self, parts):
        self.parts = list(parts)
        if not self.parts:
            raise ValueError("union needs at least one part")
        self.dim = self.parts[0].dim
        if any(p.dim != self.dim for p in self.parts):
            raise ValueError("union parts must share a dimension")

    def inside_open(self, points):
        out = self.parts[0].inside_open(points)
        for p in self.parts[1:]:
            out = out | p.inside_open(points)
        return out

    def inside_closed(self, points):
        out = self.parts[0].inside_closed(points)
        for p in self.parts[1:]:
            out = out | p.inside_closed(points)
        return out

    def bbox(self):
        boxes = [p.bbox() for p in self.parts]
        if any(b is None for b in boxes):
            return None
        lo = np.min([b[0] for b in boxes], axis=0)
        hi = np.max([b[1] for b in boxes], axis=0)
        return lo, hi

    def to_dict(self):
        return {"type": "union", "parts": [p.to_dict() for p in self.parts]}


class Intersection(Shape):
    def __init__(self, parts):
        self.parts = list(parts)
        if not self.parts:
            raise ValueError("intersection needs at least one part")
        self.dim = self.parts[0].dim
        if any(p.dim != self.dim for p in self.parts):
            raise ValueError("intersection parts must share a dimension")

    def inside_open(self, points):
        out = self.parts[0].inside_open(points)
        for p in self.parts[1:]:
            out = out & p.inside_open(points)
        return out

    def inside_closed(self, points):
        out = self.parts[0].inside_closed(points)
        for p in self.parts[1:]:
            out = out & p.inside_closed(points)
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

    def to_dict(self):
        return {"type": "intersection", "parts": [p.to_dict() for p in self.parts]}


class Complement(Shape):
    def __init__(self, part):
        self.part = part
        self.dim = part.dim

    def inside_open(self, points):
        return ~self.part.inside_closed(points)

    def inside_closed(self, points):
        return ~self.part.inside_open(points)

    def bbox(self):
        return None

    def to_dict(self):
        return {"type": "complement", "part": self.part.to_dict()}


class Difference(Shape):
    """Set difference a minus b (open: strictly inside a, outside closure b)."""

    def __init__(self, a, b):
        if a.dim != b.dim:
            raise ValueError("difference parts must share a dimension")
        self.a = a
        self.b = b
        self.dim = a.dim

    def inside_open(self, points):
        return self.a.inside_open(points) & ~self.b.inside_closed(points)

    def inside_closed(self, points):
        return self.a.inside_closed(points) & ~self.b.inside_open(points)

    def bbox(self):
        return self.a.bbox()

    def to_dict(self):
        return {"type": "difference", "a": self.a.to_dict(), "b": self.b.to_dict()}


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def shape_from_dict(data):
    """Rebuild a shape from its ``to_dict`` representation."""
    kind = data["type"]
    if kind == "ball":
        return Ball(data["center"], data["radius"])
    if kind == "box":
        return Box(data["lo"], data["hi"])
    if kind == "halfspace":
        return Halfspace(data["normal"], data["offset"])
    if kind == "solid_cone":
        return SolidCone(data["vertex"], data["axis"], data["opening"], data["radius"])
    if kind == "flat_cone":
        return FlatCone(data["vertex"], data["axis"], data["opening"], data["radius"])
    if kind == "twisted_cone":
        return TwistedCone(
            data["vertex"],
            data["opening"],
            data["radius"],
            data.get("fold_fraction", 1.0 / 3.0),
        )
    if kind == "power_cusp":
        return PowerCusp(data["vertex"], data["axis"], data["exponent"], data["length"])
    if kind == "union":
        return Union([shape_from_dict(p) for p in data["parts"]])
    if kind == "intersection":
        return Intersection([shape_from_dict(p) for p in data["parts"]])
    if kind == "complement":
        return Complement(shape_from_dict(data["part"]))
    if kind == "difference":
        return Difference(shape_from_dict(data["a"]), shape_from_dict(data["b"]))
    raise ValueError(f"unknown shape type: {kind!r}")
