"""Grid construction, labeling, ball queries, complement caps."""

import itertools
import math

import numpy as np
import pytest

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
from artifact.domain.lattice import unit_ball_volume


def brute_force_labels(shape, grid):
    """Recompute the three-way labeling with plain loops."""
    pts = grid.points()
    strictly_inside = shape.inside_open(pts).reshape(grid.dims)
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
    inside = shape.inside_closed(pts)
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
        energy(OperatorSpec(kind="p_laplace", t=2.0), Field.zeros(bad))

    grid = build_grid(Ball([0.0, 0.0], 0.4), 1.0 / 8.0)
    mask = grid.active_cell_mask()
    assert grid.active_cell_mask() is mask
    assert mask.shape == tuple(d - 1 for d in grid.dims)
    assert mask.any() and not mask.all()
    assert not mask.flags.writeable
    with pytest.raises(ValueError):
        mask[0, 0] = True
