"""Truncation-iteration instruments: exponents, level sets, decay envelopes.

The node-quadrature statistics have a plain-scan oracle; the envelope
recursions have hand-rolled step-by-step references.  Exponent identities
are algebraic and checked to near machine precision on a (t, N) grid.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import (
    Ball,
    Field,
    IterationSchedule,
    build_grid,
    check_caccioppoli,
    check_psi_recursion,
    constants,
    decay_partial_product,
    level_stats,
    n0_and_decay,
    oscillation_sequence,
    threshold_level_gap,
)

from oracles import (
    brute_level_stats,
    de_giorgi_theta,
    envelope_by_hand,
    partial_product_by_hand,
)


@pytest.fixture(scope="module")
def cone_field():
    # u(x) = |x| on a disk: every sublevel set is a centered ball, which makes
    # psi ladders strictly positive and oscillation ladders exactly nested.
    grid = build_grid(Ball([0.0, 0.0], 0.5), 1.0 / 24.0)
    pts = grid.points()
    vals = np.sqrt(np.sum(pts**2, axis=1)).reshape(grid.dims)
    return Field(grid, vals)


@pytest.fixture(scope="module")
def noise_field():
    grid = build_grid(Ball([0.0, 0.0], 0.5), 1.0 / 16.0)
    rng = np.random.default_rng(7)
    return Field(grid, rng.uniform(-1.0, 1.0, size=grid.dims))


# ---------------------------------------------------------------------------
# Exponents.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("t", [1.1, 1.5, 2.0, 3.0, 4.5])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_constants_satisfy_defining_identities(t, dim):
    con = constants(t, dim)
    assert abs(con.theta**2 - con.theta - t / dim) <= 1e-12
    assert con.theta > 1.0
    assert con.beta > 0.0
    assert con.theta == pytest.approx(de_giorgi_theta(t, dim), rel=1e-15)
    if t < dim:
        assert abs(con.theta1**2 - con.theta1 - t / (dim - t)) <= 1e-12
    else:
        assert con.theta1 is None


def test_constants_golden_ratio_and_validation():
    con = constants(2.0, 2)
    assert con.theta == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, rel=1e-15)
    with pytest.raises(ValueError):
        constants(1.0, 2)
    with pytest.raises(ValueError):
        constants(2.0, 1)


# ---------------------------------------------------------------------------
# Level-set statistics.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("level,radius,t", [(0.0, 0.3, 2.0), (0.4, 0.2, 1.5), (-0.2, 0.45, 3.0)])
def test_level_stats_matches_plain_scan(noise_field, level, radius, t):
    fld = noise_field
    grid = fld.grid
    stats = level_stats(fld, (0.0, 0.0), level, radius, t)
    vol, integral, count = brute_level_stats(
        fld.values, grid.points(), grid.labels, (0.0, 0.0), level, radius, t, grid.h
    )
    assert stats.node_count == count
    assert stats.volume == pytest.approx(vol, rel=1e-14)
    assert stats.integral == pytest.approx(integral, rel=1e-12)
    theta = constants(t, grid.dim).theta
    want_psi = integral ** (theta * grid.dim / t) * vol if count else 0.0
    assert stats.psi == pytest.approx(want_psi, rel=1e-12)
    d = stats.to_dict()
    assert d["b"] == stats.volume and d["u_int"] == stats.integral


def test_level_stats_monotone_in_level(noise_field):
    lo = level_stats(noise_field, (0.0, 0.0), 0.1, 0.3, 2.0)
    hi = level_stats(noise_field, (0.0, 0.0), 0.5, 0.3, 2.0)
    assert hi.node_count >= lo.node_count
    assert hi.volume >= lo.volume
    assert hi.integral >= lo.integral
    with pytest.raises(ValueError):
        level_stats(noise_field, (0.0, 0.0), 0.0, -0.1, 2.0)


@settings(max_examples=25, deadline=None)
@given(
    level=st.floats(-1.0, 1.0),
    radius=st.floats(0.05, 0.45),
    t=st.floats(1.2, 4.0),
)
def test_level_stats_scan_property(level, radius, t):
    grid = build_grid(Ball([0.0, 0.0], 0.5), 1.0 / 8.0)
    rng = np.random.default_rng(11)
    fld = Field(grid, rng.uniform(-1.0, 1.0, size=grid.dims))
    stats = level_stats(fld, (0.1, 0.0), level, radius, t)
    vol, integral, count = brute_level_stats(
        fld.values, grid.points(), grid.labels, (0.1, 0.0), level, radius, t, grid.h
    )
    assert stats.node_count == count
    assert stats.integral == pytest.approx(integral, rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------------------
# Truncation energy estimate.
# ---------------------------------------------------------------------------


def test_caccioppoli_on_cone_field(cone_field):
    rep = check_caccioppoli(cone_field, (0.0, 0.0), level=0.35, rho=0.2, R=0.4, t=2.0)
    assert not rep["violation"]
    assert rep["lhs"] > 0 and rep["rhs"] > 0
    assert rep["c_emp"] > 0
    # RHS is exactly the level-set integral at the outer radius.
    stats = level_stats(cone_field, (0.0, 0.0), 0.35, 0.4, 2.0)
    assert rep["rhs"] == pytest.approx(stats.integral, rel=1e-14)
    with pytest.raises(ValueError):
        check_caccioppoli(cone_field, (0.0, 0.0), 0.35, rho=0.4, R=0.4, t=2.0)


def test_caccioppoli_flags_vacuous_estimate():
    # A plateau exactly at the level with a cliff just outside: the sublevel
    # set carries zero deviation mass (RHS = 0) while the cut cells still see
    # the cliff gradient (LHS > 0).  The bound cannot hold with any constant.
    grid = build_grid(Ball([0.0, 0.0], 0.5), 1.0 / 16.0)
    pts = grid.points()
    r = np.sqrt(np.sum(pts**2, axis=1)).reshape(grid.dims)
    vals = np.where(r <= 0.15, 0.0, 5.0)
    rep = check_caccioppoli(Field(grid, vals), (0.0, 0.0), 0.0, rho=0.1, R=0.3, t=2.0)
    assert rep["rhs"] == 0.0
    assert rep["violation"]
    assert rep["c_emp"] == math.inf


def test_caccioppoli_empty_sublevel_is_clean():
    grid = build_grid(Ball([0.0, 0.0], 0.5), 1.0 / 16.0)
    rep = check_caccioppoli(
        Field(grid, np.ones(grid.dims)), (0.0, 0.0), 0.0, rho=0.1, R=0.3, t=2.0
    )
    assert rep["rhs"] == 0.0 and not rep["violation"] and rep["c_emp"] == 0.0


# ---------------------------------------------------------------------------
# Psi recursion.
# ---------------------------------------------------------------------------


def test_iteration_schedule_limits():
    sch = IterationSchedule(y=(0.0, 0.0), r0=0.4, k0=0.3, d=0.1, n_levels=6)
    radii = sch.radii()
    levels = sch.levels()
    assert radii[0] == pytest.approx(0.4)
    assert levels[0] == pytest.approx(0.3)
    assert all(a > b for a, b in zip(radii, radii[1:]))
    assert all(a > b for a, b in zip(levels, levels[1:]))
    assert radii[-1] > 0.2 and radii[-1] == pytest.approx(0.2, abs=0.4 / 2**6)
    assert levels[-1] == pytest.approx(0.2, abs=0.1 / 2**5)
    with pytest.raises(ValueError):
        IterationSchedule(y=(0.0, 0.0), r0=0.0, k0=0.3, d=0.1)
    with pytest.raises(ValueError):
        IterationSchedule(y=(0.0, 0.0), r0=0.4, k0=0.3, d=0.1, n_levels=0)
    # Each of these used to be accepted.
    for bad in (dict(n_levels=2.5), dict(r0=math.nan), dict(d=math.inf), dict(k0=math.nan)):
        with pytest.raises(ValueError):
            IterationSchedule(**{**dict(y=(0.0, 0.0), r0=0.4, k0=0.3, d=0.1), **bad})


def test_psi_recursion_on_cone_field(cone_field):
    sch = IterationSchedule(y=(0.0, 0.0), r0=0.4, k0=0.3, d=0.08, n_levels=6)
    rep = check_psi_recursion(cone_field, sch, t=2.0)
    assert rep["usable_levels"] >= 3
    assert not rep["truncated"]
    assert rep["c_hat"] > 0
    assert len(rep["psi"]) == sch.n_levels + 1
    assert len(rep["stats"]) == sch.n_levels + 1
    assert rep["decay_slack"] >= 1.0  # m = 0 term alone gives 1
    # Fitted constant means the recursion inequality holds at every step.
    con = constants(2.0, 2)
    radii, levels, psis = rep["radii"], rep["levels"], rep["psi"]
    for m in range(rep["usable_levels"] - 1):
        dr = radii[m] - radii[m + 1]
        dk = levels[m] - levels[m + 1]
        bound = rep["c_hat"] * dr ** (-2 * con.theta) * dk**-2.0 * psis[m] ** con.theta
        assert psis[m + 1] <= bound * (1 + 1e-12)


def test_psi_recursion_zero_start(cone_field):
    # Levels below the field minimum: psi_0 = 0 short-circuits the fit.
    sch = IterationSchedule(y=(0.0, 0.0), r0=0.4, k0=-1.0, d=0.1, n_levels=4)
    rep = check_psi_recursion(cone_field, sch, t=2.0)
    assert rep["c_hat"] == 0.0
    assert rep["decay_ok"] and rep["decay_slack"] == 0.0
    assert rep["truncated"]


def test_threshold_level_gap_scaling():
    base = threshold_level_gap(1.0, 2.0, 2, 0.4, 0.01)
    assert base > 0
    assert threshold_level_gap(0.0, 2.0, 2, 0.4, 0.0) == 0.0
    # d^t is linear in c_hat and carries psi0^{theta-1}.
    assert threshold_level_gap(2.0, 2.0, 2, 0.4, 0.01) == pytest.approx(
        base * 2.0**0.5, rel=1e-12
    )
    theta = constants(2.0, 2).theta
    assert threshold_level_gap(1.0, 2.0, 2, 0.4, 0.02) == pytest.approx(
        base * 2.0 ** ((theta - 1.0) / 2.0), rel=1e-12
    )


# ---------------------------------------------------------------------------
# Oscillation ladders.
# ---------------------------------------------------------------------------


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_oscillation_sequence_nested(cone_field):
    rows = oscillation_sequence(cone_field, (0.0, 0.0), 0.4, 2)
    assert [row["k"] for row in rows] == [0, 1, 2]
    omegas = [row["omega"] for row in rows]
    assert all(a >= b for a, b in zip(omegas, omegas[1:]))
    assert all(not row["skipped"] for row in rows)
    assert rows[0]["inf"] == pytest.approx(0.0)
    # sup over the ball of |x| is within one spacing of the radius
    assert rows[0]["sup"] == pytest.approx(0.4, abs=cone_field.grid.h)


def test_oscillation_sequence_warns_and_skips(cone_field):
    with pytest.warns(UserWarning, match="four grid spacings"):
        rows = oscillation_sequence(cone_field, (0.0, 0.0), 0.4, 5)
    assert rows[-1]["skipped"] or rows[-1]["count"] < 10
    skipped = [row for row in rows if row["skipped"]]
    for row in skipped:
        assert math.isnan(row["omega"]) and row["count"] == 0
    with pytest.raises(ValueError):
        oscillation_sequence(cone_field, (0.0, 0.0), -0.1, 2)
    with pytest.raises(ValueError):
        oscillation_sequence(cone_field, (0.0, 0.0), 0.4, -1)


# ---------------------------------------------------------------------------
# Decay envelopes.
# ---------------------------------------------------------------------------


def test_unit_density_step_is_fifteen_sixteenths():
    rep = n0_and_decay([1.0], c1=1.0, r0=0.1, K=1, omega=[1.0, math.nan], t=2.0)
    (row,) = rep["rows"]
    assert row["n0"] == 1
    assert row["eta"] == 0.25
    assert row["envelope"] == 15.0 / 16.0  # exact in binary
    assert rep["measured_any"] is False and rep["passed"] is False


def test_zero_density_claims_nothing():
    rep = n0_and_decay([0.0], c1=1.0, r0=0.1, K=1, omega=[2.0, 2.0], t=2.0)
    (row,) = rep["rows"]
    assert row["n0"] is None and row["eta"] == 0.0
    assert row["envelope"] == 2.0
    assert row["within_envelope"] is True  # 2.0 <= 2 * 2.0
    assert rep["passed"]


def test_envelope_matches_hand_recursion():
    rng = np.random.default_rng(3)
    sigmas = rng.uniform(0.0, 1.0, size=6).tolist()
    sigmas[2] = 0.0
    omega = [1.7] + [math.nan] * 6
    rep = n0_and_decay(sigmas, c1=0.7, r0=0.2, K=6, omega=omega, t=2.5)
    want = envelope_by_hand(1.7, sigmas, 0.7, 2.5)
    got = [row["envelope"] for row in rep["rows"]]
    assert got == pytest.approx(want, rel=1e-14)


def test_envelope_density_criterion_columns():
    rep = n0_and_decay([0.5, 0.5], c1=1.0, r0=2.0, K=2, omega=[1.0] + [math.nan] * 2, t=2.0)
    rows = rep["rows"]
    # r = 1/2 falls above exp(-1): no threshold defined there.
    assert math.isnan(rows[0]["density_threshold"])
    assert rows[0]["density_holds"] is None
    # r = 1/8 is below exp(-1).
    want = 1.0 * math.log(2.0) / math.log(math.log(8.0))
    assert rows[1]["density_threshold"] == pytest.approx(want, rel=1e-12)
    assert rows[1]["density_holds"] == (0.5 >= want)


def test_envelope_lower_order_variant():
    rep = n0_and_decay(
        [1.0], c1=1.0, r0=0.1, K=1, omega=[1.0, math.nan], t=2.0,
        lower_order=True, c_low=2.0,
    )
    (row,) = rep["rows"]
    r = 0.1 / 4.0
    assert row["envelope"] == pytest.approx(0.5 * 1.0 + (2.0 + 4.0) * r, rel=1e-14)


def test_envelope_validation():
    with pytest.raises(ValueError):
        n0_and_decay([1.0, 1.0], 1.0, 0.1, K=1, omega=[1.0, 1.0], t=2.0)
    with pytest.raises(ValueError):
        n0_and_decay([1.0], 1.0, 0.1, K=1, omega=[1.0], t=2.0)
    with pytest.raises(ValueError):
        n0_and_decay([1.5], 1.0, 0.1, K=1, omega=[1.0, 1.0], t=2.0)
    with pytest.raises(ValueError):
        n0_and_decay([1.0], 1.0, 0.1, K=1, omega=[math.nan, 1.0], t=2.0)


def test_partial_product_matches_hand_loop():
    got = decay_partial_product(1000, 0.125)
    want = partial_product_by_hand(1000, 0.125)
    assert got == pytest.approx(want, rel=1e-12)
    assert 0.0 < got < 1.0


def test_partial_product_decreases_without_underflow():
    p3 = decay_partial_product(10**3, 0.125)
    p5 = decay_partial_product(10**5, 0.125)
    p6 = decay_partial_product(10**6, 0.125)
    assert p3 > p5 > p6 > 0.0
    # Each factor carries mass of order 1/k, so the product decays only like
    # K^(-1/(16 ln 4)): a million of them still leave more than half the mass.
    assert p6 > 0.5


def test_partial_product_validation():
    with pytest.raises(ValueError):
        decay_partial_product(0, 0.125)
    with pytest.raises(ValueError):
        decay_partial_product(10, 0.5)
    with pytest.raises(ValueError):
        decay_partial_product(10, -0.1)
