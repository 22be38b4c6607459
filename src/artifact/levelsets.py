"""Level-set instrumentation: truncation statistics and decay bookkeeping.

Everything here measures an already-computed field; nothing solves.  The
quantities follow the classical truncation toolkit: for a level k and radius
rho around a point y, the sublevel set B(k, rho) collects the nodes of the
region within rho of y where u <= k, and

    b   = volume of B(k, rho)          (node count times h^N)
    uin = integral of (k - u)^t over B (node quadrature)
    psi = uin^(theta*N/t) * b

with theta the positive root of theta^2 = theta + t/N.  Driving psi to zero
along a schedule of shrinking radii and levels is what pins the field above
a level near y; the helpers here compute the sequences, fit the empirical
recursion constant, and evaluate the oscillation-decay envelopes built from
cap densities.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .domain.lattice import EXTERIOR
from .monotone import corner_gradients

__all__ = [
    "DeGiorgiConstants",
    "constants",
    "LevelSetStats",
    "level_stats",
    "check_caccioppoli",
    "IterationSchedule",
    "check_psi_recursion",
    "threshold_level_gap",
    "oscillation_sequence",
    "n0_and_decay",
    "decay_partial_product",
]


@dataclass(frozen=True)
class DeGiorgiConstants:
    t: float
    dim: int
    theta: float
    beta: float
    theta1: float = None  # defined only for t < dim


def constants(t, dim):
    """Exponents of the truncation iteration for energy power t in dimension dim.

    theta solves theta^2 = theta + t/dim (the unique root above 1), beta is
    the geometric-decay rate (t + dim*theta)/(theta - 1), and theta1 solves
    the companion relation with dim replaced by dim - t (undefined for
    t >= dim, reported as None).
    """
    if t <= 1:
        raise ValueError("exponent t must exceed 1")
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    theta = 0.5 + math.sqrt(0.25 + t / dim)
    beta = (t + dim * theta) / (theta - 1.0)
    theta1 = None
    if t < dim:
        theta1 = 0.5 + math.sqrt(0.25 + t / (dim - t))
    return DeGiorgiConstants(t=t, dim=dim, theta=theta, beta=beta, theta1=theta1)


@dataclass
class LevelSetStats:
    level: float
    radius: float
    volume: float
    integral: float
    psi: float
    node_count: int

    def to_dict(self):
        return {
            "level": self.level,
            "radius": self.radius,
            "b": self.volume,
            "u_int": self.integral,
            "psi": self.psi,
            "nodes": self.node_count,
        }


def level_stats(field, y, level, radius, t):
    """Sublevel-set statistics of the field around y, over the non-exterior
    nodes of its grid.

    Node quadrature throughout, so an independent node scan reproduces every
    number exactly.
    """
    grid = field.grid
    if radius <= 0:
        raise ValueError("radius must be positive")
    nodes = grid.nodes_within(y, radius)
    nodes = nodes[grid.labels.ravel()[nodes] != EXTERIOR]
    w = field.values.ravel()[nodes]
    sub = w <= level
    count = int(sub.sum())
    hN = grid.h**grid.dim
    volume = count * hN
    integral = float(hN * np.sum((level - w[sub]) ** t))
    theta = constants(t, grid.dim).theta
    psi = integral ** (theta * grid.dim / t) * volume if count else 0.0
    return LevelSetStats(
        level=float(level),
        radius=float(radius),
        volume=volume,
        integral=integral,
        psi=float(psi),
        node_count=count,
    )


# Caccioppoli left-hand sides up to this size count as zero when the
# right-hand side vanishes.
_VACUOUS_LHS = 1e-12


def check_caccioppoli(field, y, level, rho, R, t):
    """Empirical constant of the truncation energy estimate.

    With the radial cutoff phi (1 inside rho, 0 outside R, linear between,
    sampled at cell centers) the estimate bounds the cut gradient energy of
    the truncation by (R - rho)^{-t} times the level deviation:

        LHS = sum over cells of phi^t * mean over corners of 1_B |G|^t * h^N
        RHS = node sum of (level - u)^t over B(k, R) * h^N

    and c_emp = LHS * (R - rho)^t / RHS.  Both sides zero gives 0; a zero
    RHS with LHS above 1e-12 is flagged as a violation (the estimate would be
    vacuously false).
    """
    if not 0 < rho < R:
        raise ValueError("need 0 < rho < R")
    grid = field.grid
    dims = grid.dims
    h = grid.h
    yarr = np.asarray(y, dtype=float)
    w = field.values
    member = grid.labels != EXTERIOR
    pts = grid.points().reshape(dims + (grid.dim,))
    dist = np.sqrt(np.sum((pts - yarr) ** 2, axis=-1))
    member &= dist <= R * (1 + 1e-12)
    member &= w <= level
    # Cutoff at cell centers.
    centers_dist_sq = 0.0
    for k in range(grid.dim):
        c = grid.axis_coords(k)
        mid = 0.5 * (c[:-1] + c[1:]) - yarr[k]
        shape = [1] * grid.dim
        shape[k] = mid.size
        centers_dist_sq = centers_dist_sq + (mid.reshape(shape)) ** 2
    phi = np.clip((R - np.sqrt(centers_dist_sq)) / (R - rho), 0.0, 1.0)
    phit = phi**t
    lhs = 0.0
    for corner, diffs in corner_gradients(field.values, h, dims):
        mag_sq = 0.0
        for d in diffs:
            mag_sq = mag_sq + d * d
        magt = mag_sq ** (t / 2.0)
        sl = tuple(
            slice(c, c + dims[k] - 1) for k, c in enumerate(corner)
        )
        lhs += float(np.sum(phit * member[sl] * magt))
    lhs *= h**grid.dim / 2.0**grid.dim
    rhs = float(h**grid.dim * np.sum((level - w[member]) ** t))
    report = {
        "lhs": lhs,
        "rhs": rhs,
        "rho": rho,
        "R": R,
        "level": level,
        "violation": False,
    }
    if rhs == 0.0:
        if lhs > _VACUOUS_LHS:
            report["violation"] = True
            report["c_emp"] = math.inf
        else:
            report["c_emp"] = 0.0
    else:
        report["c_emp"] = lhs * (R - rho) ** t / rhs
    return report


@dataclass
class IterationSchedule:
    """Shrinking radii and levels: r_m halves down onto r0/2, k_m drops by d.

    r_m = r0/2 + r0/2^{m+1} and k_m = k0 - d + d/2^m, both strictly
    decreasing toward their limits, as the truncation iteration requires.
    """

    y: tuple
    r0: float
    k0: float
    d: float
    n_levels: int = 8

    def __post_init__(self):
        self.y = tuple(float(c) for c in self.y)
        if self.r0 <= 0 or self.d <= 0:
            raise ValueError("r0 and d must be positive")
        if self.n_levels < 1:
            raise ValueError("need at least one schedule step")

    def radii(self):
        return [self.r0 / 2 + self.r0 / 2 ** (m + 1) for m in range(self.n_levels + 1)]

    def levels(self):
        return [self.k0 - self.d + self.d / 2**m for m in range(self.n_levels + 1)]


def check_psi_recursion(field, schedule, t):
    """Measure psi along the schedule and fit the recursion constant.

    Fits the smallest c_hat with
        psi_{m+1} <= c_hat * (r_m - r_{m+1})^{-N*theta} (k_m - k_{m+1})^{-t} psi_m^theta
    over the usable prefix (psi > 0), then checks the geometric decay
    psi_m <= psi_0 * 2^{-beta m} * slack with slack at most 10.  Fewer than
    three usable levels marks the report truncated (not failed).
    """
    grid = field.grid
    con = constants(t, grid.dim)
    radii = schedule.radii()
    levs = schedule.levels()
    stats = [
        level_stats(field, schedule.y, levs[m], radii[m], t)
        for m in range(schedule.n_levels + 1)
    ]
    psis = [s.psi for s in stats]
    usable = 0
    for p in psis:
        if p > 0:
            usable += 1
        else:
            break
    report = {
        "psi": psis,
        "radii": radii,
        "levels": levs,
        "usable_levels": usable,
        "truncated": usable < 3,
        "theta": con.theta,
        "beta": con.beta,
        "stats": [s.to_dict() for s in stats],
    }
    if psis[0] == 0.0:
        report["c_hat"] = 0.0
        report["decay_ok"] = True
        report["decay_slack"] = 0.0
        return report
    c_hat = 0.0
    for m in range(min(usable, schedule.n_levels)):
        dr = radii[m] - radii[m + 1]
        dk = levs[m] - levs[m + 1]
        denom = dr ** (-grid.dim * con.theta) * dk**-t * psis[m] ** con.theta
        if denom > 0:
            c_hat = max(c_hat, psis[m + 1] / denom)
    slack = 0.0
    for m, p in enumerate(psis):
        slack = max(slack, p * 2.0 ** (con.beta * m) / psis[0])
    report["c_hat"] = c_hat
    report["decay_slack"] = slack
    report["decay_ok"] = bool(slack <= 10.0)
    return report


def threshold_level_gap(c_hat, t, dim, r0, psi0):
    """Level gap d making the fitted recursion contract to zero.

    Requiring the inductive step psi_m <= psi_0 * 2^{-beta m} to close for
    the recursion with constant c_hat gives

        d^t = c_hat * r0^{-N*theta} * 2^{2N*theta + t + beta} * psi0^{theta-1}.

    Running the schedule with this d (or larger) should empty the sublevel
    set at (k0 - d, r0/2).
    """
    if psi0 <= 0:
        return 0.0
    con = constants(t, dim)
    expo = 2.0 * dim * con.theta + t + con.beta
    return (
        c_hat * 2.0**expo * psi0 ** (con.theta - 1.0)
    ) ** (1.0 / t) * r0 ** (-dim * con.theta / t)


def oscillation_sequence(field, y, r0, K):
    """Inf, sup, and oscillation of the field over shrinking balls at y.

    Radii follow r_k = r0 / 4^k for k = 0..K, over non-exterior nodes.
    Radii whose ball holds no nodes are reported with skipped=True.
    """
    grid = field.grid
    if r0 <= 0 or K < 0:
        raise ValueError("need r0 > 0 and K >= 0")
    if r0 / 4.0**K < 4 * grid.h:
        warnings.warn(
            "smallest oscillation radius sits under four grid spacings; "
            "tail entries may be skipped or noisy",
            stacklevel=2,
        )
    live = (grid.labels != EXTERIOR).ravel()
    w = field.values.ravel()
    rows = []
    for k in range(K + 1):
        r = r0 / 4.0**k
        nodes = grid.nodes_within(y, r)
        nodes = nodes[live[nodes]]
        if nodes.size == 0:
            rows.append(
                {"k": k, "r": r, "inf": math.nan, "sup": math.nan,
                 "omega": math.nan, "count": 0, "skipped": True}
            )
            continue
        vals = w[nodes]
        rows.append(
            {
                "k": k,
                "r": r,
                "inf": float(vals.min()),
                "sup": float(vals.max()),
                "omega": float(vals.max() - vals.min()),
                "count": int(nodes.size),
                "skipped": False,
            }
        )
    return rows


def _eta_from_sigma(sigma, c1, t):
    """Truncation count n0 and decay weight eta for one cap density."""
    if sigma == 0.0:
        return None, 0.0
    n0 = math.ceil(c1 * sigma ** (-t / (t - 1.0)))
    return n0, 2.0 ** -(n0 + 1)


def n0_and_decay(sigmas, c1, r0, K, omega, t, lower_order=False, c_low=1.0):
    """Density-driven decay envelope against a measured oscillation ladder.

    ``sigmas`` holds the cap densities sampled at radii 2*r_k for k = 1..K;
    ``omega`` the measured oscillations at r_k for k = 0..K (NaN where
    unmeasured).  Each step contributes the factor (1 - eta_k/4) with
    eta_k = 2^{-(n0_k + 1)} and n0_k = ceil(c1 * sigma^{-t/(t-1)}); zero
    density gives factor one (no decay claimed).  The optional lower-order
    variant replaces the factor with 1/2 plus an additive (c_low + 1/eta) r
    term.  Pass = measured within twice the envelope at every measured
    radius.
    """
    if len(sigmas) != K:
        raise ValueError("need one density sample per ladder step (k = 1..K)")
    if len(omega) != K + 1:
        raise ValueError("omega ladder must cover k = 0..K")
    for s in sigmas:
        if not 0 <= s <= 1:
            raise ValueError("densities must lie in [0, 1]")
    if not math.isfinite(omega[0]):
        raise ValueError("base oscillation omega[0] must be measured")
    rows = []
    envelope = omega[0]
    ln2 = math.log(2.0)
    passes = []
    for k in range(1, K + 1):
        r = r0 / 4.0**k
        sigma = sigmas[k - 1]
        n0, eta = _eta_from_sigma(sigma, c1, t)
        if lower_order:
            add = (c_low + (1.0 / eta if eta > 0 else math.inf)) * r
            envelope = 0.5 * envelope + add
        else:
            envelope = envelope * (1.0 - eta / 4.0)
        measured = omega[k]
        ok = None
        if math.isfinite(measured):
            ok = bool(measured <= 2.0 * envelope)
            passes.append(ok)
        # Density criterion per radius: needs log log (1/r) > 0.
        if r < math.exp(-1.0):
            threshold = c1 * ln2 / math.log(math.log(1.0 / r))
            density_holds = bool(sigma >= threshold)
        else:
            threshold = math.nan
            density_holds = None
        rows.append(
            {
                "k": k,
                "r": r,
                "sigma": sigma,
                "n0": n0,
                "eta": eta,
                "envelope": envelope,
                "omega": measured,
                "within_envelope": ok,
                "density_threshold": threshold,
                "density_holds": density_holds,
            }
        )
    return {
        "rows": rows,
        "passed": bool(passes) and all(passes),
        "measured_any": bool(passes),
        "c1": c1,
        "t": t,
        "lower_order": lower_order,
    }


def decay_partial_product(K, r0):
    """Partial product of the slow-divergence envelope factors, in log space.

    Uses the per-step weight eta_k = 1 / (4 (k log 4 - log(2 r0))) and
    returns prod_{k=1}^{K} (1 - eta_k / 4) evaluated as exp of a log sum,
    so millions of factors lose no precision to underflow.
    """
    if K < 1:
        raise ValueError("need at least one factor")
    if not 0 < r0 < 0.5:
        raise ValueError("r0 must lie in (0, 1/2) so every eta is positive")
    ln4 = math.log(4.0)
    shift = -math.log(2.0 * r0)
    k = np.arange(1, K + 1, dtype=float)
    eta = 1.0 / (4.0 * (k * ln4 + shift))
    return float(np.exp(np.sum(np.log1p(-eta / 4.0))))
