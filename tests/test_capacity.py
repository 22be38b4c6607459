"""Capacity-layer checks: radial profiles, cap potentials, probes, barriers.

The closed-form annulus profile (oracles.radial_reference) anchors the
numerics; everything else is exercised through structure: exact clamping,
bounds, symmetry under sign flips, config validation, and the error paths.
"""

import math
import warnings

import numpy as np
import pytest

from artifact import (
    Ball,
    Box,
    Difference,
    FlatCone,
    OperatorSpec,
    RegularityReport,

    WienerProbeConfig,
    barrier_build,
    build_grid,
    capacitary_potential,
    complement_cap,
    locality_check,
    radial_profile,
    sigma_ball,
    sigma_grid_for,
    wiener_probe,
)
from artifact.domain.lattice import BOUNDARY, INTERIOR, enclosing_center_radius

from oracles import radial_reference


# ---------------------------------------------------------------------------
# Radial profile.
# ---------------------------------------------------------------------------


def test_radial_profile_validation():
    with pytest.raises(ValueError):
        radial_profile(1.0, 2, 0.25, 1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        radial_profile(2.0, 2, 1.0, 0.25, 1.0, 0.5)
    with pytest.raises(ValueError):
        radial_profile(2.0, 2, 0.0, 1.0, 1.0, 0.5)


@pytest.mark.parametrize("t,dim", [(3.0, 2), (2.0, 2), (1.5, 2), (2.0, 3), (3.0, 3)])
def test_radial_profile_matches_reference(t, dim):
    inner, outer, height = 0.25, 1.0, 1.3
    rs = np.linspace(0.05, 1.2, 40)
    got = radial_profile(t, dim, inner, outer, height, rs)
    want = [radial_reference(t, dim, inner, outer, height, r) for r in rs]
    assert got == pytest.approx(want, rel=1e-12)


def test_radial_profile_endpoints_and_clamp():
    prof = lambda r: radial_profile(3.0, 2, 0.25, 1.0, 2.0, r)  # noqa: E731
    assert prof(0.25) == pytest.approx(2.0)
    assert prof(1.0) == 0.0
    assert prof(0.1) == pytest.approx(2.0)  # clamped inside
    assert prof(1.5) == 0.0  # clamped outside
    rs = np.linspace(0.25, 1.0, 30)
    vals = prof(rs)
    assert np.all(np.diff(vals) < 0)
    assert isinstance(prof(0.5), float)


def test_radial_profile_log_form_at_t_equal_dim():
    # t = dim collapses the power exponent; the log profile must take over
    # smoothly: values at t = 2.000001 stay within 1e-5 of the t = 2 values.
    rs = np.linspace(0.3, 0.9, 10)
    exact = radial_profile(2.0, 2, 0.25, 1.0, 1.0, rs)
    near = radial_profile(2.000001, 2, 0.25, 1.0, 1.0, rs)
    assert np.max(np.abs(exact - near)) < 1e-5
    assert radial_profile(2.0, 2, 0.25, 1.0, 1.0, 0.5) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Enclosing sphere and cap potential.
# ---------------------------------------------------------------------------


def test_sigma_ball_covers_region():
    region = Difference(Ball([0.2, -0.1], 0.5), Ball([0.2, -0.1], 0.1))
    sig = sigma_ball(region)
    center, radius = enclosing_center_radius(region)
    assert sig.radius == pytest.approx(2.0 * radius)
    lo, hi = region.bbox()
    corners = np.array([[lo[0], lo[1]], [lo[0], hi[1]], [hi[0], lo[1]], [hi[0], hi[1]]])
    assert np.all(sig.inside(corners, True))


@pytest.fixture(scope="module")
def annulus_setup():
    region = Difference(Ball([0.0, 0.0], 0.5), Ball([0.0, 0.0], 0.125))
    h = 1.0 / 32.0
    sigma = sigma_grid_for(region, h)
    labels = sigma.classify(region)
    cap = complement_cap(sigma, [0.0, 0.0], 0.15, labels=labels, shape=region)
    return region, sigma, labels, cap


def test_cap_potential_tracks_radial_reference(annulus_setup):
    region, sigma, labels, cap = annulus_setup
    spec = OperatorSpec(kind="p_laplace", t=3.0)
    fld, rep = capacitary_potential(sigma, cap, spec, tol=1e-9)
    assert rep["solve"]["converged"]
    ver = rep["verification"]
    assert ver["residual_ok"] and ver["bounds_ok"] and ver["equals_height_on_cap"]
    outer = sigma.shape.radius
    pts = sigma.points()
    r = np.sqrt(np.sum(pts**2, axis=1))
    inside = (labels == INTERIOR).ravel()
    band = inside & (r >= 0.2) & (r <= 0.9 * outer)
    exact = radial_profile(3.0, 2, 0.125, outer, 1.0, r[band])
    rel = np.abs(fld.values.ravel()[band] - exact) / exact
    # h = 1/32 desk-scale run; the refined ladder in the scenario suite takes
    # this under 2%.
    assert np.max(rel) < 0.04


def test_cap_potential_sign_flip_is_odd(annulus_setup):
    region, sigma, labels, cap = annulus_setup
    spec = OperatorSpec(kind="p_laplace", t=1.5)
    tol = 1e-9
    up, rep_up = capacitary_potential(sigma, cap, spec, sign=1, tol=tol)
    dn, rep_dn = capacitary_potential(sigma, cap, spec, sign=-1, tol=tol)
    assert np.max(np.abs(dn.values + up.values)) < 50 * tol
    ver = rep_dn["verification"]
    assert ver["bounds_ok"] and ver["equals_height_on_cap"]
    assert rep_dn["sign"] == -1


def test_cap_potential_rejects_empty_cap():
    region = Ball([0.0, 0.0], 0.5)
    sigma = sigma_grid_for(region, 1.0 / 16.0)
    labels = sigma.classify(region)
    # Probe well inside the region: no complement nodes there.
    cap = complement_cap(sigma, [0.0, 0.0], 0.1, labels=labels, shape=region)
    assert cap.is_empty()
    with pytest.raises(ValueError):
        capacitary_potential(sigma, cap, OperatorSpec(t=2.0), tol=1e-8)


# ---------------------------------------------------------------------------
# Probe configuration.
# ---------------------------------------------------------------------------


def test_probe_config_validation():
    good = dict(y=(0.0, 0.0), cap_radius=0.2, r0=0.1, K=3, h_levels=(1 / 16, 1 / 32))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = WienerProbeConfig(**good)
    assert cfg.radii == pytest.approx([0.1, 0.025, 0.00625, 0.0015625])
    assert cfg.deficit_radius() == pytest.approx(0.025)
    assert cfg.h_levels == (1 / 16, 1 / 32)  # sorted coarse to fine
    for bad in (
        dict(good, K=0),
        dict(good, r0=0.0),
        dict(good, cap_radius=-1.0),
        dict(good, h_levels=()),
        dict(good, height=0.0),
        dict(good, sign=0),
        dict(good, decay_factor=1.5),
        dict(good, shrink_ratio=0.0),
        # Each of these used to be accepted: K=2.5 then failed in ``radii``.
        dict(good, K=2.5),
        dict(good, K=True),
        dict(good, r0=math.nan),
        dict(good, height=math.inf),
        dict(good, near_radius_cells=-1),
        dict(good, fixed_radius=-0.1),
    ):
        with pytest.raises(ValueError):
            WienerProbeConfig(**bad)


def test_probe_config_warnings_and_overrides():
    with pytest.warns(UserWarning, match="fewer than three steps") as short:
        WienerProbeConfig(y=(0.0, 0.0), cap_radius=0.2, r0=0.1, K=1, h_levels=(0.05,))
    with pytest.warns(UserWarning, match="half the cap radius") as wide:
        WienerProbeConfig(y=(0.0, 0.0), cap_radius=0.2, r0=0.15, K=3, h_levels=(0.05,))
    # Both warnings name the line that built the config, not the
    # dataclass's generated __init__.
    for record in (short, wide):
        assert [w.filename for w in record] == [__file__]
    cfg = WienerProbeConfig(
        y=(0.0, 0.0), cap_radius=0.2, r0=0.1, K=3, h_levels=(0.05, 0.1, 0.05),
        fixed_radius=0.07,
    )
    assert cfg.deficit_radius() == 0.07
    assert cfg.h_levels == (0.1, 0.05)  # deduplicated, coarse first
    assert cfg.to_dict()["fixed_radius"] == 0.07


def test_regularity_report_rows_skip_failed_levels():
    rep = RegularityReport(
        verdict="inconclusive",
        levels=[
            {"h": 0.1, "error": "boom"},
            {"h": 0.05, "radii": [0.1, 0.025], "omega": [0.5, 0.2], "deficit_near": 0.3},
        ],
        thresholds={},
    )
    rows = rep.rows()
    assert len(rows) == 2
    assert rows[0] == {"h": 0.05, "k": 0, "r_k": 0.1, "omega": 0.5, "deficit_near_y": 0.3}
    assert rep.to_dict()["verdict"] == "inconclusive"


# ---------------------------------------------------------------------------
# Wiener probe.
# ---------------------------------------------------------------------------


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_wiener_probe_level_structure():
    # One coarse level: the verdict machinery should run, report ladders and
    # near-node deficits, and stay honest (inconclusive) on a single level.
    region = Difference(Ball([0.0, 0.0], 0.5), Ball([0.5, 0.0], 0.15625))
    cfg = WienerProbeConfig(
        y=(0.34375, 0.0), cap_radius=0.25, r0=0.125, K=1, h_levels=(1 / 16,)
    )
    spec = OperatorSpec(kind="p_laplace", t=2.0)
    rep = wiener_probe(cfg, region, spec, tol=1e-8)
    assert rep.verdict in ("regular-trend", "irregular-trend", "inconclusive")
    (level,) = rep.levels
    assert level["converged"]
    assert level["cap_nodes"] > 0
    assert len(level["omega"]) == cfg.K + 1
    assert level["representable"][0]
    assert 0.0 <= level["cap_density"] <= 1.0
    assert level["verification"]["bounds_ok"]
    assert math.isfinite(level["deficit_fixed"])
    assert rep.criteria["decay_ok"] in (True, False)
    rows = rep.rows()
    assert len(rows) == cfg.K + 1
    assert {"h", "k", "r_k", "omega", "deficit_near_y"} == set(rows[0])


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_probe_level_min_value_is_the_interior_minimum():
    # The cap potential vanishes only on the enclosing sphere, so its
    # minimum over the interior nodes is positive, and the level reports it.
    region = Difference(Ball([0.0, 0.0], 0.5), Ball([0.5, 0.0], 0.15625))
    h = 1 / 16
    cfg = WienerProbeConfig(
        y=(0.34375, 0.0), cap_radius=0.25, r0=0.125, K=1, h_levels=(h,)
    )
    spec = OperatorSpec(kind="p_laplace", t=2.0)
    (level,) = wiener_probe(cfg, region, spec, tol=1e-8).levels
    sigma = sigma_grid_for(region, h)
    labels = sigma.classify(region)
    cap = complement_cap(sigma, cfg.y, cfg.cap_radius, labels=labels, shape=region)
    fld, _ = capacitary_potential(sigma, cap, spec, tol=1e-8)
    interior_min = float(fld.values[sigma.labels == INTERIOR].min())
    assert level["verification"]["min_value"] == interior_min
    assert interior_min > 0.0


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("t", [2.0, 3.0])
def test_probe_level_carries_the_solve_counters(t):
    # Each level reports its solve's t = 2 presolve, grid levels and guard
    # rejections, the same numbers as the cap potential's own solve notes.
    region = Difference(Ball([0.0, 0.0], 0.5), Ball([0.5, 0.0], 0.15625))
    h = 1 / 16
    cfg = WienerProbeConfig(
        y=(0.34375, 0.0), cap_radius=0.25, r0=0.125, K=1, h_levels=(h,)
    )
    spec = OperatorSpec(kind="p_laplace", t=t)
    (level,) = wiener_probe(cfg, region, spec, tol=1e-8).levels
    sigma = sigma_grid_for(region, h)
    labels = sigma.classify(region)
    cap = complement_cap(sigma, cfg.y, cfg.cap_radius, labels=labels, shape=region)
    notes = capacitary_potential(sigma, cap, spec, tol=1e-8)[1]["solve"]["notes"]
    assert level["presolve"] == notes.get("presolve")
    assert level["guard_fallbacks"] == notes["guard_fallbacks"]
    assert level["grid_levels"] == notes["grid_levels"]
    assert level["grid_levels"] > 1
    assert level["coarsest_nodes"] == notes["coarsest_nodes"] > 0
    if t == 2.0:
        assert level["presolve"] is None
    else:
        assert level["presolve"]["iterations"] > 0


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_wiener_probe_failed_level_withholds_verdict():
    # Cap radius beyond what the precondition allows: the level errors out,
    # the report keeps the message and refuses a verdict.
    region = Ball([0.0, 0.0], 0.25)
    cfg = WienerProbeConfig(
        y=(0.25, 0.0), cap_radius=5.0, r0=0.1, K=1, h_levels=(1 / 16,)
    )
    rep = wiener_probe(cfg, region, OperatorSpec(t=2.0))
    assert rep.verdict == "inconclusive"
    assert "error" in rep.levels[0]
    assert any("withheld" in n for n in rep.notes)
    assert rep.rows() == []


# ---------------------------------------------------------------------------
# Barrier pair.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def disk_barrier_grid():
    return build_grid(Ball([0.0, 0.0], 0.5), 1.0 / 16.0)


def test_barrier_build_checks_anchor(disk_barrier_grid):
    grid = disk_barrier_grid
    spec = OperatorSpec(kind="p_laplace", t=2.0)
    with pytest.raises(ValueError):
        barrier_build(grid, spec, (0.0, 0.0), rho=0.25, height=1.0)  # interior point
    boundary_node = int(np.flatnonzero((grid.labels == BOUNDARY).ravel())[0])
    y = tuple(grid.points()[boundary_node])
    with pytest.raises(ValueError):
        barrier_build(grid, spec, y, rho=-1.0, height=1.0)
    with pytest.raises(ValueError):
        barrier_build(grid, spec, y, rho=0.25, height=0.0)


def test_barrier_pair_on_disk(disk_barrier_grid):
    # Every disk boundary point is as regular as it gets: the paraboloid
    # barrier must vanish toward y and dominate away from it.
    grid = disk_barrier_grid
    spec = OperatorSpec(kind="p_laplace", t=3.0)
    y = (0.5, 0.0)
    V, U, rep = barrier_build(grid, spec, y, rho=0.25, height=1.0, tol=1e-9)
    assert rep["solves_converged"]
    assert rep["j_away_ok"]
    assert rep["jj_trend_ok"]
    assert rep["lower_bound_ok"]
    assert rep["odd_pair_ok"]
    ladder = rep["vanish_ladder"]
    finite = [v for v in ladder if math.isfinite(v)]
    assert finite == sorted(finite, reverse=True)
    assert np.max(np.abs(U.values + V.values)) < 1e-7


# ---------------------------------------------------------------------------
# Locality.
# ---------------------------------------------------------------------------


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_locality_rejects_disagreeing_regions():
    slit = FlatCone([-0.25, 0.0], [1.0, 0.0], 0.0, 0.5)
    region_a = Difference(Ball([0.0, 0.0], 0.5), slit)
    region_b = Ball([0.0, 0.0], 0.5)  # no slit: labels differ at the window
    cfg = WienerProbeConfig(
        y=(0.0, 0.0), cap_radius=0.2, r0=0.1, K=1, h_levels=(1 / 16,)
    )
    spec = OperatorSpec(kind="p_laplace", t=2.0)
    with pytest.raises(ValueError, match="disagree"):
        locality_check(region_a, region_b, (0.0, 0.0), 0.15, cfg, spec)
