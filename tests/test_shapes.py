"""Geometry primitives: membership, CSG algebra, bounding boxes, round trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert list(ball.inside_open(pts)) == [True, False, False, False]
    assert list(ball.inside_closed(pts)) == [True, True, True, False]


def test_box_membership_faces_count_as_closed():
    box = Box([0.0, 0.0], [1.0, 2.0])
    on_face = np.array([[0.0, 1.0], [1.0, 2.0], [0.5, 0.5]])
    assert list(box.inside_open(on_face)) == [False, False, True]
    assert list(box.inside_closed(on_face)) == [True, True, True]


def test_difference_equals_intersection_with_complement(rng):
    minuend = Ball([0.0, 0.0], 1.0)
    bite = Ball([0.4, 0.1], 0.35)
    diff = Difference(minuend, bite)
    alt = Intersection([minuend, Complement(bite)])
    pts = rng.uniform(-1.2, 1.2, size=(500, 2))
    assert np.array_equal(diff.inside_open(pts), alt.inside_open(pts))
    assert np.array_equal(diff.inside_closed(pts), alt.inside_closed(pts))


def test_complement_involution(rng):
    shape = Union([Ball([0.0, 0.0], 0.6), Box([0.2, 0.2], [1.0, 1.0])])
    twice = Complement(Complement(shape))
    pts = rng.uniform(-1.5, 1.5, size=(300, 2))
    assert np.array_equal(shape.inside_open(pts), twice.inside_open(pts))


@pytest.mark.parametrize("shape", sample_shapes(), ids=lambda s: type(s).__name__)
def test_bbox_contains_members(shape, rng):
    box = shape.bbox()
    if box is None:
        return
    lo, hi = box
    pts = rng.uniform(-2.0, 2.0, size=(800, 2))
    inside = shape.inside_closed(pts)
    assert np.all(pts[inside] >= lo - 1e-12)
    assert np.all(pts[inside] <= hi + 1e-12)


def test_dict_round_trip_preserves_membership(rng):
    shapes = sample_shapes() + [
        FlatCone([0.0, 0.0], [1.0, 0.0], 0.0, 0.5),
        PowerCusp([0.0, 0.0], 1, 2.0, 0.5),
    ]
    pts = rng.uniform(-1.5, 1.5, size=(300, 2))
    for shape in shapes:
        clone = shape_from_dict(shape.to_dict())
        assert np.array_equal(shape.inside_closed(pts), clone.inside_closed(pts)), (
            type(shape).__name__
        )


def test_slit_is_a_segment_in_2d():
    slit = FlatCone([0.0, 0.0], [1.0, 0.0], 0.0, 0.5)
    pts = np.array(
        [[0.0, 0.0], [0.25, 0.0], [0.5, 0.0], [0.6, 0.0], [-0.1, 0.0], [0.25, 0.05]]
    )
    assert list(slit.inside_closed(pts)) == [True, True, True, False, False, False]
    assert not slit.inside_open(pts).any()


def test_flat_cone_3d_fan_membership():
    cone = FlatCone([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], 0.25, 0.24)
    on = np.array([[0.1, 0.0, 0.0], [0.1, 0.04, 0.0], [0.0, 0.0, 0.0]])
    off = np.array([[0.1, 0.06, 0.0], [0.1, 0.0, 0.01], [-0.05, 0.0, 0.0]])
    assert cone.inside_closed(on).all()
    assert not cone.inside_closed(off).any()


def test_twisted_cone_matches_flat_cone_near_vertex():
    opening, radius = 0.25, 0.24
    twisted = TwistedCone([0.0, 0.0, 0.0], opening, radius)
    flat = FlatCone([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], opening, radius)
    # Points with axial coordinate below the first fold line coincide.
    s = np.linspace(0.0, twisted.c1 * 0.999, 9)
    w = 0.4 * np.sqrt(opening) * s
    pts = np.stack([s, w, np.zeros_like(s)], axis=1)
    assert np.array_equal(twisted.inside_closed(pts), flat.inside_closed(pts))
    assert twisted.inside_closed(pts).all()


def test_power_cusp_profile():
    cusp = PowerCusp([0.0, 0.0], 1, 2.0, 1.0)
    pts = np.array([[0.5, 0.2], [0.5, 0.3], [0.0, 0.0], [-0.1, 0.0]])
    # At s = 0.5 the half-width is s^2 = 0.25.
    assert list(cusp.inside_closed(pts)) == [True, False, True, False]


def test_power_cusp_rejects_blunt_exponent():
    with pytest.raises(ValueError):
        PowerCusp([0.0, 0.0], 1, 1.0, 1.0)


def test_ball_diameter_is_bbox_diagonal():
    assert Ball([1.0, -2.0], 0.5).diameter() == pytest.approx(math.sqrt(2.0))
    with pytest.raises(ValueError):
        Halfspace([1.0, 0.0], 0.0).diameter()


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
        assert ball.inside_closed(p)[0] == (dist < r)
