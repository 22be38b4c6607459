"""Grid construction, labeling, ball queries, complement caps."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from artifact import (
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    Ball,
    Box,
    Difference,
    Field,
    GridDomain,
    OperatorSpec,
    build_grid,
    complement_cap,
    density,
    enclosing_center_radius,
    energy,
    shape_from_dict,
)
from artifact.domain import lattice
from artifact.domain.lattice import unit_ball_volume
from artifact.domain.shapes import (
    Complement,
    FlatCone,
    Halfspace,
    Intersection,
    PowerCusp,
    Shape,
    SolidCone,
    TwistedCone,
    Union,
)


def brute_force_labels(shape, grid):
    """Recompute the three-way labeling with plain loops."""
    pts = grid.points()
    strictly_inside = shape.inside(pts, False).reshape(grid.dims)
    labels = np.full(grid.dims, EXTERIOR, dtype=np.int8)
    labels[strictly_inside] = INTERIOR
    offsets = [
        off
        for off in itertools.product((-1, 0, 1), repeat=grid.dim)
        if any(off)
    ]
    for idx in itertools.product(*(range(d) for d in grid.dims)):
        if labels[idx] == INTERIOR:
            continue
        for off in offsets:
            nb = tuple(i + o for i, o in zip(idx, off))
            if all(0 <= j < d for j, d in zip(nb, grid.dims)):
                if labels[nb] == INTERIOR:
                    labels[idx] = BOUNDARY
                    break
    return labels


@pytest.mark.parametrize(
    "shape",
    [
        Ball([0.0, 0.0], 0.4),
        Box([-0.3, -0.2], [0.4, 0.35]),
        Difference(Ball([0.0, 0.0], 0.4), Ball([0.4, 0.0], 0.15)),
    ],
    ids=["ball", "box", "bitten-ball"],
)
def test_labels_match_brute_force(shape):
    grid = build_grid(shape, 1.0 / 8.0)
    assert np.array_equal(grid.labels, brute_force_labels(shape, grid))


def test_grid_nodes_are_absolute_multiples_of_h():
    h = 1.0 / 16.0
    g1 = build_grid(Ball([0.0, 0.0], 0.4), h)
    g2 = build_grid(Box([0.1, 0.1], [0.6, 0.5]), h)
    for g in (g1, g2):
        for k in range(g.dim):
            coords = g.axis_coords(k)
            assert np.allclose(np.round(coords / h) * h, coords, atol=1e-13)
    # Shared physical nodes therefore have identical coordinates.
    shared = set(map(tuple, np.round(g1.points() / h).astype(int))) & set(
        map(tuple, np.round(g2.points() / h).astype(int))
    )
    assert shared


def test_boundary_values_tie_goes_outside():
    # Nodes exactly on the sphere are not interior (open membership).
    grid = build_grid(Ball([0.0, 0.0], 0.5), 1.0 / 4.0)
    node = grid.index_of([0.5, 0.0])
    assert grid.labels.ravel()[node] != INTERIOR


def test_index_of_round_trip():
    grid = build_grid(Ball([0.0, 0.0], 0.5), 1.0 / 8.0)
    p = [0.25, -0.375]
    idx = grid.index_of(p)
    assert np.allclose(grid.points()[idx], p)
    with pytest.raises(ValueError):
        grid.index_of([5.0, 5.0])


def test_nodes_within_matches_brute_force_and_includes_ties():
    grid = build_grid(Ball([0.0, 0.0], 0.5), 1.0 / 8.0)
    center = [0.0, 0.0]
    radius = 0.25  # exactly two lattice steps: axis nodes are tie cases
    got = set(grid.nodes_within(center, radius).tolist())
    pts = grid.points()
    dist = np.sqrt(((pts - np.array(center)) ** 2).sum(axis=1))
    expect = set(np.nonzero(dist <= radius * (1 + 1e-12))[0].tolist())
    assert got == expect
    axis_node = grid.index_of([0.25, 0.0])
    assert axis_node in got


# Grids for the ball queries: the 2D and 3D disks at h = 1/8 and 1/6.
QUERY_GRIDS = {
    2: build_grid(Ball([0.0, 0.0], 0.5), 1.0 / 8.0),
    3: build_grid(Ball([0.0, 0.0, 0.0], 0.5), 1.0 / 6.0),
}


@st.composite
def ball_queries(draw):
    """(dim, center, radius): centres at, between or off the grid's nodes,
    inside it or beyond it; radii below h, at exact lattice distances, or
    anywhere up to past the grid."""
    dim = draw(st.sampled_from([2, 3]))
    grid = QUERY_GRIDS[dim]
    steps = [
        draw(st.integers(-6, n + 5)) + draw(st.sampled_from([0.0, 0.5, 0.25, 0.9]))
        for n in grid.dims
    ]
    center = grid.origin + grid.h * np.array(steps)
    kind = draw(st.sampled_from(["below-h", "lattice", "any"]))
    if kind == "below-h":
        radius = grid.h * draw(st.floats(1e-6, 0.999))
    elif kind == "lattice":
        radius = grid.h * math.sqrt(sum(draw(st.integers(0, 4)) ** 2 for _ in range(dim)))
    else:
        radius = draw(st.floats(1e-3, 1.5))
    return dim, center, radius


@settings(max_examples=300, deadline=None)
@given(ball_queries())
@example((2, np.array([3.0, -2.0]), 0.1))
@example((3, np.array([0.0, 0.0, 0.0]), 0.0))
@example((2, np.array([0.0, 0.0]), 0.25))
def test_nodes_within_is_brute_force(query):
    # The box-bounded query must return the indices of a distance test over
    # every node, bit for bit (ties at exact lattice distances included),
    # and an empty intp array when the ball holds no node.
    dim, center, radius = query
    grid = QUERY_GRIDS[dim]
    delta = grid.points() - center
    want = np.flatnonzero(np.sum(delta * delta, axis=1) <= radius * radius * (1 + 1e-12))
    got = grid.nodes_within(center, radius)
    assert got.dtype == np.intp
    assert np.array_equal(got, want)


def _every_shape_class(dim):
    """One instance of every shape class that exists in ``dim`` dimensions,
    each reaching into the box [-0.5, 0.5]^dim."""
    origin = [0.0] * dim
    e1 = [1.0] + [0.0] * (dim - 1)
    ball = Ball([0.1] * dim, 0.45)
    box = Box([-0.4] * dim, [0.2] + [0.35] * (dim - 1))
    shapes = [
        ball,
        box,
        Halfspace([1.0] * dim, 0.1),
        SolidCone(origin, e1, 0.8, 0.45),
        FlatCone(origin, e1, 0.5, 0.45),
        PowerCusp(origin, -1, 1.5, 0.45),
        Union([ball, box]),
        Intersection([ball, box]),
        Complement(ball),
        Difference(ball, Box([0.0] * dim, [0.3] * dim)),
    ]
    if dim == 3:
        shapes.append(TwistedCone(origin, 0.5, 0.45))
    return shapes


@pytest.mark.parametrize("block", [lattice._SLAB_NODES, 1000], ids=["shipped", "small"])
@pytest.mark.parametrize("dim", [2, 3])
def test_classification_by_blocks_is_one_full_call(dim, block, monkeypatch):
    # Blocks of whole leading-axis slabs must label every node as one
    # open inside call over the full points array does, on a grid of more
    # nodes than one block (259^2 and 43^3 against 2^16; and, with a
    # 1000-node block, one slab a call in 3D and a short last block in 2D),
    # and ``GridDomain.inside`` must give that call's answer for both
    # closures.
    monkeypatch.setattr(lattice, "_SLAB_NODES", block)
    grid = _slab_grid(dim)
    assert grid.node_count() > lattice._SLAB_NODES
    shapes = _every_shape_class(dim)
    every = {cls for cls in Shape.__subclasses__() if dim == 3 or cls is not TwistedCone}
    assert {type(shape) for shape in shapes} == every
    pts = grid.points()
    for shape in shapes:
        labels = grid.classify(shape)
        want = shape.inside(pts, False).reshape(grid.dims)
        assert np.array_equal(labels == INTERIOR, want), type(shape).__name__
        assert np.array_equal(grid.inside(shape, False), want), type(shape).__name__
        want = shape.inside(pts, True).reshape(grid.dims)
        assert np.array_equal(grid.inside(shape, True), want), type(shape).__name__


def _slab_grid(dim):
    """A box grid of more nodes than one slab: 259^2 or 43^3."""
    return build_grid(Box([-0.5] * dim, [0.5] * dim), 1.0 / 256.0 if dim == 2 else 1.0 / 40.0)


@pytest.mark.parametrize("dim", [2, 3])
def test_distance_squared_keeps_the_point_array_bits(dim):
    # Axis by axis, over the lattice's axis coordinates, the squared
    # distances must be those summed over the full points array, bit for
    # bit, from a node and from a point off the lattice.
    grid = _slab_grid(dim)
    assert grid.node_count() > lattice._SLAB_NODES
    pts = grid.points()
    for center in ([0.0] * dim, [0.3, -1 / 3, 0.1][:dim]):
        want = np.sum((pts - np.asarray(center)) ** 2, axis=1)
        got = grid.distance_squared(center)
        assert got.shape == grid.dims
        assert np.array_equal(got.ravel().view(np.uint64), want.view(np.uint64))


def test_label_counts_sum_to_node_count():
    grid = build_grid(Ball([0.0, 0.0], 0.4), 1.0 / 8.0)
    counts = grid.label_counts()
    assert sum(counts.values()) == grid.node_count()
    assert counts["interior"] > 0 and counts["boundary"] > 0


def test_complement_cap_single_node():
    region = Difference(Ball([0.0, 0.0], 0.5), Ball([0.0, 0.0], 1.0 / 256.0))
    grid = build_grid(Ball([0.0, 0.0], 1.5), 1.0 / 16.0)
    labels = grid.classify(region)
    cap = complement_cap(grid, [0.0, 0.0], 0.2, labels=labels, shape=region)
    assert cap.indices.size == 1
    assert not cap.is_empty()
    assert np.allclose(grid.points()[cap.indices[0]], [0.0, 0.0])


def test_complement_cap_empty_when_region_fills_ball():
    region = Ball([0.0, 0.0], 0.5)
    grid = build_grid(Ball([0.0, 0.0], 1.5), 1.0 / 16.0)
    labels = grid.classify(region)
    cap = complement_cap(grid, [0.0, 0.0], 0.2, labels=labels, shape=region)
    assert cap.is_empty()
    assert density(cap) == 0.0


def test_complement_cap_rejects_oversized_radius():
    grid = build_grid(Ball([0.0, 0.0], 0.5), 1.0 / 8.0)
    with pytest.raises(ValueError):
        complement_cap(grid, [0.0, 0.0], 10.0)


def test_density_of_halfplane_cap_is_about_half():
    # Region = upper half disk; the complement inside a small ball centered
    # on the flat edge occupies about half of it.
    from artifact import Halfspace, Intersection

    region = Intersection([Ball([0.0, 0.0], 0.5), Halfspace([0.0, -1.0], 0.0)])
    grid = build_grid(Ball([0.0, 0.0], 1.5), 1.0 / 32.0)
    labels = grid.classify(region)
    cap = complement_cap(grid, [0.0, 0.0], 0.2, labels=labels, shape=region)
    assert density(cap) == pytest.approx(0.5, abs=0.12)


def test_unit_ball_volume_known_values():
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


def test_enclosing_radius_covers_shape():
    shape = Difference(Ball([0.0, 0.0], 1.0), Ball([1.0, 0.0], 0.3))
    center, radius = enclosing_center_radius(shape)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1.1, 1.1, size=(500, 2))
    inside = shape.inside(pts, True)
    dist = np.sqrt(((pts[inside] - center) ** 2).sum(axis=1))
    assert np.all(dist <= radius + 1e-12)


def test_domain_round_trip():
    grid = build_grid(Ball([0.0, 0.0], 0.4), 1.0 / 8.0)
    meta = grid.meta()
    clone = build_grid(shape_from_dict(meta["shape"]), meta["h"])
    assert clone.dims == grid.dims
    assert np.array_equal(clone.labels, grid.labels)
    assert np.allclose(clone.origin, grid.origin)


def test_classify_agrees_with_own_labels():
    shape = Ball([0.0, 0.0], 0.4)
    grid = build_grid(shape, 1.0 / 8.0)
    assert np.array_equal(grid.classify(shape), grid.labels)


def test_active_cell_mask_checks_the_invariant_and_is_cached():
    # Interior node (1, 1) with an exterior diagonal neighbour (2, 2): the
    # cell (1, 1) has an interior and an exterior corner.
    labels = np.full((4, 4), BOUNDARY, dtype=np.int8)
    labels[1, 1] = INTERIOR
    labels[2, 2] = EXTERIOR
    bad = GridDomain(None, 0.25, [0.0, 0.0], (4, 4), labels)
    for _ in range(2):
        with pytest.raises(ValueError, match="grid invariant"):
            bad.active_cell_mask()
    with pytest.raises(ValueError, match="grid invariant"):
        energy(OperatorSpec(kind="p_laplace", t=2.0), Field(bad, np.zeros(bad.dims)))

    grid = build_grid(Ball([0.0, 0.0], 0.4), 1.0 / 8.0)
    mask = grid.active_cell_mask()
    assert grid.active_cell_mask() is mask
    assert mask.shape == tuple(d - 1 for d in grid.dims)
    assert mask.any() and not mask.all()
    assert not mask.flags.writeable
    with pytest.raises(ValueError):
        mask[0, 0] = True
