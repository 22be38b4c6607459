"""Geometry primitives: membership, CSG algebra, bounding boxes, round trips."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact.domain import shapes
from artifact.domain.shapes import (
    Ball,
    Box,
    Complement,
    Difference,
    FlatCone,
    Halfspace,
    Intersection,
    PowerCusp,
    SolidCone,
    TwistedCone,
    Union,
    squared_norm,
    shape_from_dict,
)


def sample_shapes():
    ball = Ball([0.0, 0.0], 1.0)
    box = Box([-0.5, -0.25], [0.75, 0.5])
    half = Halfspace([1.0, 1.0], 0.25)
    return [
        ball,
        box,
        half,
        Union([ball, box]),
        Intersection([ball, half]),
        Difference(ball, Ball([0.5, 0.0], 0.3)),
        Complement(box),
        SolidCone([0.0, 0.0], [1.0, 0.0], 0.5, 0.8),
    ]


def test_ball_membership_open_vs_closed():
    ball = Ball([0.0, 0.0], 1.0)
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, -1.0], [1.1, 0.0]])
    assert list(ball.inside(pts, False)) == [True, False, False, False]
    assert list(ball.inside(pts, True)) == [True, True, True, False]


@pytest.mark.parametrize("dim", [2, 3])
def test_squared_norm_keeps_the_row_sum_bits(dim, rng):
    # Column by column, |q|^2 has the bits of np.sum over each row, on
    # random points and on lattice points at the sphere's surface, so every
    # label of the shapes that use it is unchanged.
    lattice = np.stack(np.meshgrid(*[np.arange(-9, 10) / 12.0] * dim), axis=-1)
    for q in (rng.standard_normal((4000, dim)), lattice.reshape(-1, dim) - 0.1):
        want = np.sum(q * q, axis=1)
        assert np.array_equal(squared_norm(q.T).view(np.uint64), want.view(np.uint64))


def test_box_membership_faces_count_as_closed():
    box = Box([0.0, 0.0], [1.0, 2.0])
    on_face = np.array([[0.0, 1.0], [1.0, 2.0], [0.5, 0.5]])
    assert list(box.inside(on_face, False)) == [False, False, True]
    assert list(box.inside(on_face, True)) == [True, True, True]


def test_difference_equals_intersection_with_complement(rng):
    minuend = Ball([0.0, 0.0], 1.0)
    bite = Ball([0.4, 0.1], 0.35)
    diff = Difference(minuend, bite)
    alt = Intersection([minuend, Complement(bite)])
    pts = rng.uniform(-1.2, 1.2, size=(500, 2))
    assert np.array_equal(diff.inside(pts, False), alt.inside(pts, False))
    assert np.array_equal(diff.inside(pts, True), alt.inside(pts, True))


def test_complement_involution(rng):
    shape = Union([Ball([0.0, 0.0], 0.6), Box([0.2, 0.2], [1.0, 1.0])])
    twice = Complement(Complement(shape))
    pts = rng.uniform(-1.5, 1.5, size=(300, 2))
    assert np.array_equal(shape.inside(pts, False), twice.inside(pts, False))


@pytest.mark.parametrize("shape", sample_shapes(), ids=lambda s: type(s).__name__)
def test_bbox_contains_members(shape, rng):
    box = shape.bbox()
    if box is None:
        return
    lo, hi = box
    pts = rng.uniform(-2.0, 2.0, size=(800, 2))
    inside = shape.inside(pts, True)
    assert np.all(pts[inside] >= lo - 1e-12)
    assert np.all(pts[inside] <= hi + 1e-12)


def _surface_cases():
    """(shape, points) for every shape type: lattice points of spacing 1/16
    in 2D and 1/8 in 3D, many of which lie on the shapes' surfaces (the
    ball's circle, the box's faces, the halfspace's plane, the cones' edges,
    on lattice lines also about a diagonal axis, the slit, the cusp's
    profile at s = 1/4, the twisted cone's creases), plus random points."""
    rng = np.random.default_rng(5)

    def lattice(dim, n, scale):
        axes = [np.arange(-n, n + 1) / scale] * dim
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
        return np.concatenate([grid, rng.uniform(-1.5, 1.5, size=(500, dim))])

    ball = Ball([0.0, 0.0], 0.5)
    box = Box([-0.5, -0.25], [0.75, 0.5])
    half = Halfspace([1.0, 1.0], 0.125)
    flat = [
        ball,
        box,
        half,
        Union([ball, box]),
        Intersection([ball, half]),
        Difference(Ball([0.25, 0.0], 0.75), Ball([0.5, 0.0], 0.25)),
        Complement(box),
        SolidCone([0.0, 0.0], [1.0, 0.0], 1.0, 0.75),
        SolidCone([0.0, 0.0], [1.0, 1.0], 1.0, 0.75),
        FlatCone([0.0, 0.0], [1.0, 0.0], 0.0, 0.5),
        PowerCusp([0.0, 0.0], 1, 2.0, 0.5),
    ]
    solid = [
        SolidCone([0.0, 0.0, 0.0], [0.0, 0.0, 1.0], 1.0, 0.75),
        FlatCone([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], 1.0, 0.75),
        FlatCone([0.0, 0.0, 0.0], [1.0, 1.0, 0.0], 1.0, 0.75),
        TwistedCone([0.0, 0.0, 0.0], 0.25, 0.75),
        TwistedCone([0.0, 0.0, 0.0], 0.25, 0.5, 0.5),
        Difference(Box([-1.0] * 3, [1.0] * 3), TwistedCone([0.0, 0.0, 0.0], 0.25, 0.75)),
        Halfspace([0.0, 1.0, 2.0], 0.25),
    ]
    pts2, pts3 = lattice(2, 24, 16.0), lattice(3, 8, 8.0)
    return [(s, pts2) for s in flat] + [(s, pts3) for s in solid]


def test_dict_round_trip_preserves_membership():
    cases = _surface_cases()
    assert {type(shape) for shape, _ in cases} == set(shapes._TYPES.values())
    for shape, pts in cases:
        name = type(shape).__name__
        clone = shape_from_dict(json.loads(json.dumps(shape.to_dict())))
        inside = {closed: shape.inside(pts, closed) for closed in (False, True)}
        for closed in (False, True):
            assert np.array_equal(clone.inside(pts, closed), inside[closed]), (name, closed)
            assert np.array_equal(Complement(shape).inside(pts, closed), ~inside[not closed])
        assert not np.any(inside[False] & ~inside[True]), name


def test_halfspace_keeps_its_normal_and_offset():
    half = Halfspace([1.0, 1.0], 0.125)
    assert half.to_dict() == {"type": "halfspace", "normal": [1.0, 1.0], "offset": 0.125}
    on_plane = np.array([[0.0625, 0.0625], [0.125, 0.0]])
    assert list(half.inside(on_plane, False)) == [False, False]
    assert list(half.inside(on_plane, True)) == [True, True]
    with pytest.raises(ValueError):
        Halfspace([0.0, 0.0], 1.0)


def test_slit_is_a_segment_in_2d():
    slit = FlatCone([0.0, 0.0], [1.0, 0.0], 0.0, 0.5)
    pts = np.array(
        [[0.0, 0.0], [0.25, 0.0], [0.5, 0.0], [0.6, 0.0], [-0.1, 0.0], [0.25, 0.05]]
    )
    assert list(slit.inside(pts, True)) == [True, True, True, False, False, False]
    assert not slit.inside(pts, False).any()


def test_flat_cone_3d_fan_membership():
    cone = FlatCone([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], 0.25, 0.24)
    on = np.array([[0.1, 0.0, 0.0], [0.1, 0.04, 0.0], [0.0, 0.0, 0.0]])
    off = np.array([[0.1, 0.06, 0.0], [0.1, 0.0, 0.01], [-0.05, 0.0, 0.0]])
    assert cone.inside(on, True).all()
    assert not cone.inside(off, True).any()


def test_twisted_cone_matches_flat_cone_near_vertex():
    opening, radius = 0.25, 0.24
    twisted = TwistedCone([0.0, 0.0, 0.0], opening, radius)
    flat = FlatCone([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], opening, radius)
    # Points with axial coordinate below the first fold line coincide.
    s = np.linspace(0.0, twisted.c1 * 0.999, 9)
    w = 0.4 * np.sqrt(opening) * s
    pts = np.stack([s, w, np.zeros_like(s)], axis=1)
    assert np.array_equal(twisted.inside(pts, True), flat.inside(pts, True))
    assert twisted.inside(pts, True).all()


def test_power_cusp_profile():
    cusp = PowerCusp([0.0, 0.0], 1, 2.0, 1.0)
    pts = np.array([[0.5, 0.2], [0.5, 0.3], [0.0, 0.0], [-0.1, 0.0]])
    # At s = 0.5 the half-width is s^2 = 0.25.
    assert list(cusp.inside(pts, True)) == [True, False, True, False]


def test_power_cusp_rejects_blunt_exponent():
    with pytest.raises(ValueError):
        PowerCusp([0.0, 0.0], 1, 1.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    cx=st.floats(-1, 1),
    cy=st.floats(-1, 1),
    r=st.floats(0.1, 1.5),
    px=st.floats(-3, 3),
    py=st.floats(-3, 3),
)
def test_ball_membership_is_euclidean(cx, cy, r, px, py):
    ball = Ball([cx, cy], r)
    p = np.array([[px, py]])
    dist = math.hypot(px - cx, py - cy)
    if abs(dist - r) > 1e-9:
        assert ball.inside(p, True)[0] == (dist < r)
