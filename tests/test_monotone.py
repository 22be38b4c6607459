"""Operator kinds, discrete energy, weak residual."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from artifact import Ball, EXTERIOR, Field, OperatorSpec, build_grid, energy, weak_residual
from artifact.monotone import _field_components, integrand, profile

from oracles import corner_energy, five_point_residual, stacked_energy, stacked_weak_residual


def test_spec_validation():
    with pytest.raises(ValueError):
        OperatorSpec(t=1.0)
    for t in (math.nan, math.inf, "3", True):
        with pytest.raises(ValueError, match="exponent t"):
            OperatorSpec(t=t)
    for kind in ("mystery", "custom", 3):
        with pytest.raises(ValueError, match="operator kind"):
            OperatorSpec(kind=kind)


def apply_field(spec, p):
    """A(p) on gradients of shape (..., N), stacked from ``_field_components``."""
    comps = list(np.moveaxis(np.asarray(p, dtype=float), -1, 0))
    return np.stack(_field_components(spec, comps), axis=-1)


@pytest.mark.parametrize("t", [1.5, 2.0, 3.0])
def test_p_laplace_field_is_exactly_zero_at_zero(t):
    spec = OperatorSpec(kind="p_laplace", t=t)
    assert np.array_equal(apply_field(spec, np.zeros((2, 3))), np.zeros((2, 3)))


@settings(max_examples=50, deadline=None)
@given(
    t=st.floats(1.2, 4.0),
    lam=st.floats(0.01, 10.0),
    px=st.floats(-3.0, 3.0),
    py=st.floats(-3.0, 3.0),
)
# Tiny gradient at t < 2: homogeneity holds only if A is not floored there.
@example(t=1.5, lam=2.0, px=2.2e-16, py=0.0)
# Subnormal gradient: |p|^2 underflows to 0 unless p is rescaled first.
@example(t=1.5, lam=2.0, px=5e-324, py=0.0)
def test_p_laplace_field_is_homogeneous(t, lam, px, py):
    spec = OperatorSpec(kind="p_laplace", t=t)
    p = np.array([[px, py]])
    left = apply_field(spec, lam * p)
    right = lam ** (t - 1.0) * apply_field(spec, p)
    assert np.allclose(left, right, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize(
    "p", [[5e-324, 0.0], [-1e-200, 1e-200], [0.0, 3e-170], [1e-160, -2e-160]]
)
def test_p_laplace_field_below_squaring_underflow(p):
    # |p|^{t-2} p at t = 1.5 for gradients whose |p|^2 is 0 or subnormal in
    # double precision; the law still has a normal-range value there.
    p = np.array(p)
    mag = math.hypot(*p)
    got = apply_field(OperatorSpec(kind="p_laplace", t=1.5), p[None, :])[0]
    want = mag**-0.5 * p
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("kind", ["p_laplace", "regularized"])
@pytest.mark.parametrize("t", [1.5, 2.0, 3.0])
def test_built_in_fields_are_odd(kind, t):
    spec = OperatorSpec(kind=kind, t=t)
    p = np.array([[0.3, -0.7], [2.0, 1.0], [0.0, 0.0]])
    assert np.allclose(apply_field(spec, -p), -apply_field(spec, p))


@pytest.mark.parametrize("kind", ["p_laplace", "regularized"])
def test_potential_gradient_is_field(kind):
    # dW/dp = A(p), checked by central differences at generic points.
    spec = OperatorSpec(kind=kind, t=2.7)
    p = np.array([0.4, -1.1])
    eps = 1e-6
    grad = np.zeros(2)
    for k in range(2):
        dp = np.zeros(2)
        dp[k] = eps
        up, down = np.sum((p + dp) ** 2), np.sum((p - dp) ** 2)
        grad[k] = (integrand(spec, up) - integrand(spec, down)) / (2 * eps)
    assert np.allclose(grad, apply_field(spec, p[None, :])[0], rtol=1e-5)


@pytest.mark.parametrize("kind", ["p_laplace", "regularized"])
@pytest.mark.parametrize("t", [1.5, 2.0, 3.3])
def test_energy_matches_loop_oracle(kind, t):
    grid = build_grid(Ball([0.0, 0.0], 0.4), 1.0 / 6.0)
    rng = np.random.default_rng(5)
    fld = Field(grid, rng.standard_normal(grid.dims))
    spec = OperatorSpec(kind=kind, t=t)
    expect = corner_energy(
        fld.values, grid.h, t, grid.active_cell_mask(), kind=kind
    )
    assert energy(spec, fld) == pytest.approx(expect, rel=1e-12)


KERNEL_SPECS = [
    OperatorSpec(kind="p_laplace", t=1.5),
    OperatorSpec(kind="p_laplace", t=2.0),
    OperatorSpec(kind="p_laplace", t=3.0),
    OperatorSpec(kind="regularized", t=2.0),
    OperatorSpec(kind="regularized", t=2.5),
]
KERNEL_IDS = ["p1.5", "p2", "p3", "reg2", "reg2.5"]


@pytest.fixture(scope="module", params=[2, 3], ids=["2d", "3d"])
def ball_field(request):
    dim = request.param
    grid = build_grid(Ball([0.0] * dim, 0.4), 1.0 / 32.0 if dim == 2 else 1.0 / 16.0)
    rng = np.random.default_rng(17 + dim)
    return Field(grid, rng.standard_normal(grid.dims))


def _corner_energy_matches(spec, fld):
    """``energy`` against the corner-form reference: bit for bit, except
    p_laplace at t = 2, which sums edges (within 1e-14 relative)."""
    want = stacked_energy(spec, fld)
    if spec.kind == "p_laplace" and spec.t == 2.0:
        return energy(spec, fld) == pytest.approx(want, rel=1e-14, abs=0.0)
    return energy(spec, fld) == want


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=KERNEL_IDS)
def test_kernels_match_stacked_reference_bit_for_bit(ball_field, spec):
    # The references add in the order the kernels must keep; a reordered
    # sum or product shows up as a last-bit difference in the residual.
    assert _corner_energy_matches(spec, ball_field)
    assert np.array_equal(
        weak_residual(spec, ball_field).values, stacked_weak_residual(spec, ball_field)
    )


@pytest.mark.parametrize("kind", ["p_laplace", "regularized"])
def test_t2_integrand_is_the_general_law_bit_for_bit(kind):
    # At t = 2 the integrand skips phi = base ** 0; the general law
    # phi * base / t must come out the same at every input, edge values too.
    spec = OperatorSpec(kind=kind, t=2.0)
    edges = [0.0, 5e-324, 1e-310, np.finfo(float).tiny, 1e308, math.inf, math.nan]
    g2 = np.concatenate([edges, np.random.default_rng(5).exponential(1.0, 10_000)])
    phi, base = profile(spec, g2)
    assert np.array_equal(integrand(spec, g2), phi * base / spec.t, equal_nan=True)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=KERNEL_IDS)
def test_energy_matches_stacked_reference_on_small_fields(spec, dim):
    # A reordered sum moves each cell term by about an ulp of itself, which
    # a total over thousands of terms mostly rounds away; on a grid of 16
    # (2D) or 56 (3D) active cells a good share of these fields shows it.
    grid = build_grid(Ball([0.0] * dim, 0.4), 1.0 / 4.0)
    for seed in range(32):
        fld = Field(grid, np.random.default_rng(seed).standard_normal(grid.dims))
        assert _corner_energy_matches(spec, fld), seed


@pytest.mark.parametrize("dim", [2, 3])
def test_t2_edge_sum_energy_is_the_corner_form(dim):
    # p_laplace at t = 2 sums D_k^2 over edges, weighted by the active cells
    # that share each edge.  It must give the corner form's energy within
    # 1e-14 relative, and +-inf at exterior nodes must change no bit.
    spec = OperatorSpec(kind="p_laplace", t=2.0)
    grid = build_grid(Ball([0.1] * dim, 0.9), 1.0 / 24.0 if dim == 2 else 1.0 / 9.0)
    exterior = grid.labels == EXTERIOR
    counts = [grid.edge_cell_counts(k) for k in range(dim)]
    assert [c.dtype for c in counts] == [np.int8] * dim
    assert max(int(c.max()) for c in counts) == 2 ** (dim - 1)
    for seed in range(8):
        rng = np.random.default_rng(seed)
        clean = Field(grid, np.where(exterior, 0.0, rng.standard_normal(grid.dims)))
        want = stacked_energy(spec, clean)
        assert energy(spec, clean) == pytest.approx(want, rel=1e-14, abs=0.0), seed
        dirty = Field(grid, clean.values.copy())
        dirty.values[exterior] = rng.choice([np.inf, -np.inf], np.count_nonzero(exterior))
        assert energy(spec, dirty) == energy(spec, clean), seed


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=KERNEL_IDS)
def test_exterior_junk_leaves_energy_and_residual_unchanged(ball_field, spec):
    grid = ball_field.grid
    dirty = Field(grid, ball_field.values.copy())
    exterior = np.flatnonzero(grid.labels.ravel() == EXTERIOR)
    junk = np.array([math.nan, math.inf, -math.inf])
    dirty.values.ravel()[exterior] = junk[np.arange(exterior.size) % 3]
    dirty.validate_finite()
    # Raises under the suite's RuntimeWarning-as-error filter if the junk
    # leaks a warning out of the kernels.
    e_dirty = energy(spec, dirty)
    r_dirty = weak_residual(spec, dirty).values
    assert math.isfinite(e_dirty)
    assert e_dirty == energy(spec, ball_field)
    assert np.all(np.isfinite(r_dirty))
    assert np.array_equal(r_dirty, weak_residual(spec, ball_field).values)


def test_weak_residual_is_energy_gradient():
    grid = build_grid(Ball([0.0, 0.0], 0.4), 1.0 / 6.0)
    rng = np.random.default_rng(11)
    vals = rng.standard_normal(grid.dims)
    spec = OperatorSpec(kind="regularized", t=2.5)
    res = weak_residual(spec, Field(grid, vals)).values
    eps = 1e-6
    interior = np.argwhere(grid.labels == 0)
    for idx in map(tuple, interior[:: max(1, len(interior) // 8)]):
        up = vals.copy()
        up[idx] += eps
        dn = vals.copy()
        dn[idx] -= eps
        fd = (
            energy(spec, Field(grid, up)) - energy(spec, Field(grid, dn))
        ) / (2 * eps)
        assert res[idx] == pytest.approx(fd, rel=2e-4, abs=1e-8)


def test_weak_residual_reduces_to_laplacian_at_t2():
    grid = build_grid(Ball([0.0, 0.0], 0.4), 1.0 / 8.0)
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(grid.dims)
    spec = OperatorSpec(kind="p_laplace", t=2.0)
    res = weak_residual(spec, Field(grid, vals)).values
    interior = grid.labels == 0
    lap = five_point_residual(vals, grid.h, interior)
    # The corner quadrature weights the classical stencil by h^N; residuals
    # are gradients of the energy, so res = -h^N * laplacian.
    ratio = res[interior] / lap[interior]
    scale = -np.median(ratio)
    assert np.allclose(res[interior], -scale * lap[interior], rtol=1e-9)
    assert scale > 0.0


def test_affine_fields_have_zero_residual_all_t():
    grid = build_grid(Ball([0.0, 0.0], 0.4), 1.0 / 8.0)
    pts = grid.points()
    vals = (0.7 * pts[:, 0] - 0.2 * pts[:, 1] + 0.05).reshape(grid.dims)
    for t in (1.5, 2.0, 3.0):
        spec = OperatorSpec(kind="p_laplace", t=t)
        res = weak_residual(spec, Field(grid, vals)).values
        assert np.max(np.abs(res)) < 1e-12


def test_field_validation():
    # Non-finite junk at exterior nodes is tolerated (those values are dead
    # storage); a NaN at a live node must be rejected.
    grid = build_grid(Ball([0.0, 0.0], 0.4), 1.0 / 8.0)
    fld = Field(grid, np.zeros(grid.dims))
    fld.values[0, 0] = math.nan  # corner of the bounding box: exterior
    fld.validate_finite()
    fld.values[2, 4] = math.nan  # interior node
    with pytest.raises(ValueError):
        fld.validate_finite()
