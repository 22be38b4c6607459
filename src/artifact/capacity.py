"""Capacitary potentials of complement caps and boundary-regularity probes.

The regularity of a boundary point y is probed through the potential of the
complement cap at y: clamp the field at level m on the complement nodes
inside the ball I(y, rho0), let it relax to zero on a large sphere enclosing
the whole region, and watch how the potential behaves back inside the region
near y.  If y is a well-behaved boundary point the potential climbs to m as
the observation radius shrinks; if the cap is too thin to be seen by the
t-energy (a single lattice node, say) a deficit m - u persists at fixed
physical radius no matter how fine the grid.

Verdicts here are trends read off finitely many grids, not theorems: the
thresholds (oscillation decay factor, deficit stagnation floor, shrink
ratios) are explicit inputs, recorded in the report next to the raw
sequences they judged.
"""

import math
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from .domain.lattice import (
    BOUNDARY,
    INTERIOR,
    build_grid,
    complement_cap,
    density,
    enclosing_center_radius,
)
from .domain.shapes import Ball
from .solver import (
    ObstacleConstraint,
    obstacle_verification,
    solve_dirichlet,
    solve_obstacle,
)

__all__ = [
    "radial_profile",
    "radial_oracle_report",
    "sigma_ball",
    "sigma_grid_for",
    "capacitary_potential",
    "WienerProbeConfig",
    "RegularityReport",
    "wiener_probe",
    "barrier_build",
    "locality_check",
]


def radial_profile(t, dim, inner, outer, height, r):
    """Capacitary potential of a centered ball inside a concentric sphere.

    Equals height on r <= inner, zero at r = outer, and in between solves the
    radial t-Laplace equation: a power profile with exponent (t-dim)/(t-1),
    degenerating to the logarithm when t = dim.  Vectorized in r.
    """
    if t <= 1:
        raise ValueError("exponent t must exceed 1")
    if not 0 < inner < outer:
        raise ValueError("need 0 < inner < outer")
    r = np.asarray(r, dtype=float)
    q = (t - dim) / (t - 1.0)
    rc = np.clip(r, inner, outer)
    if abs(q) < 1e-12:
        vals = height * np.log(outer / rc) / math.log(outer / inner)
    else:
        vals = height * (rc**q - outer**q) / (inner**q - outer**q)
    return vals if vals.shape else float(vals)


def radial_oracle_report(oracle, t, grid, fld, m, sign):
    """The solved field ``fld`` (sign times it) against ``radial_profile``
    on the interior nodes of the oracle's band of radii: the report block
    of errors, ``value_at`` means, and the profile rows by radius.
    ``oracle`` is a scenario's read ``radial_oracle`` (0 < inner < outer,
    its band lo <= hi, both checked when the scenario loads)."""
    inner, outer = oracle["inner"], oracle["outer"]
    lo, hi = oracle["band"] or (inner, outer)
    center = oracle["center"] or [0.0] * grid.dim
    pts = grid.points()
    r = np.sqrt(np.sum((pts - np.asarray(center)) ** 2, axis=1))
    inside = (grid.labels == INTERIOR).ravel()
    band = inside & (r >= lo) & (r <= hi)
    exact = radial_profile(t, grid.dim, inner, outer, m, r[band])
    got = sign * fld.values.ravel()[band]
    abs_err = np.abs(got - exact)
    block = {
        "inner": inner,
        "outer": outer,
        "band": [lo, hi],
        "nodes": int(band.sum()),
        "max_rel_error_pointwise": float(np.max(abs_err / exact)),
        "max_rel_error_supnorm": float(np.max(abs_err) / np.max(np.abs(exact))),
        "max_abs_error": float(np.max(abs_err)),
    }
    for v in oracle["value_at"]:
        at = inside & (np.abs(r - v) < 1e-9)
        if at.any():
            mean = float(np.mean(sign * fld.values.ravel()[at]))
            ex = float(radial_profile(t, grid.dim, inner, outer, m, v))
            # Report keys must stay dot-free so assertion paths can address
            # them; spell the radius with underscores ("value_at_0_5").
            key = "value_at_" + repr(float(v)).replace(".", "_").replace("-", "m")
            block[key] = {
                "nodes": int(at.sum()),
                "mean": mean,
                "exact": ex,
                "rel_error": abs(mean - ex) / abs(ex) if ex else math.nan,
            }
    # Radial profile table: nodes grouped by radius.
    rr = np.round(r[band], 12)
    order = np.argsort(rr, kind="stable")
    rows = []
    uniq, start = np.unique(rr[order], return_index=True)
    gvals = got[order]
    for i, rv in enumerate(uniq):
        stop = start[i + 1] if i + 1 < len(start) else len(gvals)
        seg = gvals[start[i] : stop]
        rows.append(
            {
                "r": float(rv),
                "computed_mean": float(seg.mean()),
                "exact": float(radial_profile(t, grid.dim, inner, outer, m, rv)),
                "count": int(stop - start[i]),
            }
        )
    return block, rows


def sigma_ball(region_shape):
    """The fixed enclosing sphere: twice the tightest radius around the region."""
    center, radius = enclosing_center_radius(region_shape)
    return Ball(center, 2.0 * radius)


def sigma_grid_for(region_shape, h):
    """Grid over the enclosing sphere, on the absolute lattice of spacing h."""
    return build_grid(sigma_ball(region_shape), h)


def capacitary_potential(sigma_grid, cap, spec, sign=1, height=1.0, tol=1e-8):
    """Obstacle solve holding the cap nodes at sign*height inside the big grid.

    ``cap`` must be a ComplementCap computed on ``sigma_grid``'s lattice
    (against the region's own labels).  Returns (Field, report dict); the
    report carries the solver outcome plus an explicit verification that the
    field is a solution off the cap (small residual) and a supersolution on
    it (one-sided residual), with the exact bound checks.
    """
    if cap.is_empty():
        raise ValueError("complement cap holds no nodes; nothing to clamp")
    interior = (sigma_grid.labels == INTERIOR).ravel()
    indices = cap.indices[interior[cap.indices]]
    # The mask goes before the solve, which never needs it.
    del interior
    if indices.size == 0:
        raise ValueError("cap nodes all fall outside the solve region interior")
    constraint = ObstacleConstraint(indices, height, sign)
    fld, rep = solve_obstacle(sigma_grid, spec, constraint, tol=tol)
    report = {
        "solve": rep.to_dict(),
        "cap_nodes": int(indices.size),
        "sign": sign,
        "height": height,
    }
    ver = obstacle_verification(spec, sigma_grid, fld.values, constraint, tol)
    # Probe levels name the exact-clamp check after the cap.
    ver["equals_height_on_cap"] = ver.pop("equals_m_on_obstacle")
    report["verification"] = ver
    return fld, report


@dataclass
class WienerProbeConfig:
    """Probe geometry and verdict thresholds for one boundary point.

    Observation radii follow the fixed quarter ladder r_k = r0 / 4^k for
    k = 0..K.  Desk-scale grids often cannot represent the full ladder
    (r_K can drop below the spacing while the solve region must still fit
    the node budget), so short ladders and unrepresentable radii are
    warnings and per-level notes, not errors; the verdict then uses the
    smallest radius that still holds nodes.
    """

    y: tuple
    cap_radius: float
    r0: float
    K: int
    h_levels: tuple
    height: float = 1.0
    sign: int = 1
    decay_factor: float = 0.1
    stagnation_floor: float = 0.25
    shrink_ratio: float = 0.7
    stagnation_ratio: float = 0.9
    near_radius_cells: float = 4.0
    fixed_radius: float = None

    def __post_init__(self):
        self.y = tuple(float(c) for c in self.y)
        self.h_levels = tuple(sorted(set(float(h) for h in self.h_levels), reverse=True))
        if not self.h_levels:
            raise ValueError("need at least one grid spacing")
        if self.r0 <= 0 or self.cap_radius <= 0:
            raise ValueError("radii must be positive")
        if self.K < 1:
            raise ValueError("need at least one ladder step (K >= 1)")
        if self.height <= 0:
            raise ValueError("obstacle level m must be positive")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        for name in ("decay_factor", "stagnation_floor", "shrink_ratio", "stagnation_ratio"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise ValueError(f"{name} must lie in (0, 1)")
        # stacklevel 3: the caller of the dataclass's generated __init__.
        if self.K < 3:
            warnings.warn(
                "probe ladder has fewer than three steps; trend verdicts "
                "rest on little data",
                stacklevel=3,
            )
        if self.r0 > self.cap_radius / 2:
            warnings.warn(
                "largest observation radius exceeds half the cap radius; "
                "the outer oscillation window sees past the clamped set",
                stacklevel=3,
            )

    @property
    def radii(self):
        return [self.r0 * 4.0**-k for k in range(self.K + 1)]

    def deficit_radius(self):
        return self.fixed_radius if self.fixed_radius is not None else self.r0 / 4.0

    def to_dict(self):
        return {
            "y": list(self.y),
            "cap_radius": self.cap_radius,
            "r0": self.r0,
            "K": self.K,
            "h_levels": list(self.h_levels),
            "height": self.height,
            "sign": self.sign,
            "decay_factor": self.decay_factor,
            "stagnation_floor": self.stagnation_floor,
            "shrink_ratio": self.shrink_ratio,
            "stagnation_ratio": self.stagnation_ratio,
            "near_radius_cells": self.near_radius_cells,
            "fixed_radius": self.fixed_radius,
        }


@dataclass
class RegularityReport:
    verdict: str
    levels: list
    thresholds: dict
    criteria: dict = dc_field(default_factory=dict)
    notes: list = dc_field(default_factory=list)

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "levels": self.levels,
            "thresholds": self.thresholds,
            "criteria": self.criteria,
            "notes": self.notes,
        }

    def rows(self):
        """Flat table (h, k, r_k, omega, deficit_near_y) for CSV emission."""
        out = []
        for lev in self.levels:
            if "radii" not in lev:
                continue
            for k, (r, om) in enumerate(zip(lev["radii"], lev["omega"])):
                out.append(
                    {
                        "h": lev["h"],
                        "k": k,
                        "r_k": r,
                        "omega": om,
                        "deficit_near_y": lev["deficit_near"],
                    }
                )
        return out


def _finite(x):
    return x is not None and isinstance(x, float) and math.isfinite(x)


def _probe_level(config, region_shape, spec, h, tol):
    """One grid level: solve the cap potential and read the ladders.

    The region-interior nodes of every ball the level reads (each radius
    of the ladder, ``near_radius_cells`` h and ``deficit_radius()``) are
    picked before the solve, so the region's labels and their interior
    mask are freed before it and never sit beside the solver's arrays."""
    sigma = sigma_grid_for(region_shape, h)
    region_labels = sigma.classify(region_shape)
    cap = complement_cap(
        sigma, config.y, config.cap_radius, labels=region_labels, shape=region_shape
    )
    inside = (region_labels == INTERIOR).ravel()

    def region_nodes(radius):
        nodes = sigma.nodes_within(config.y, radius)
        return nodes[inside[nodes]]

    ladder = [region_nodes(r) for r in config.radii]
    near_r = config.near_radius_cells * h
    near = region_nodes(near_r)
    rdef = config.deficit_radius()
    at_fixed = region_nodes(rdef)
    del region_labels, inside
    # Reflection symmetry: the negative-sign potential is minus the
    # positive-sign potential of the reflected operator, and both kinds are
    # odd, so the reflection is the operator itself.  So one solve at sign
    # +1 serves either sign, and w is its field.
    fld, cap_report = capacitary_potential(
        sigma, cap, spec, sign=1, height=config.height, tol=tol
    )
    if config.sign < 0:
        cap_report["derived_by_reflection"] = True
    w = fld.values.ravel()
    solve = cap_report["solve"]
    level = {
        "h": h,
        "grid_nodes": sigma.node_count(),
        "cap_nodes": cap_report["cap_nodes"],
        "converged": solve["converged"],
        "iterations": solve["iterations"],
        # The t = 2 presolve of a t != 2 solve (None at t = 2), the lattices
        # one cycle of the solve works on, the largest dense system of its
        # coarsest lattice and the smoothing updates its guard rejected.
        "presolve": solve["notes"].get("presolve"),
        "grid_levels": solve["notes"]["grid_levels"],
        "coarsest_nodes": solve["notes"]["coarsest_nodes"],
        "guard_fallbacks": solve["notes"]["guard_fallbacks"],
        "radii": config.radii,
        "omega": [],
        "counts": [],
        "representable": [],
    }
    for nodes in ladder:
        level["counts"].append(int(nodes.size))
        if nodes.size == 0:
            level["omega"].append(math.nan)
            level["representable"].append(False)
        else:
            vals = w[nodes]
            level["omega"].append(float(vals.max() - vals.min()))
            level["representable"].append(True)
    level["near_radius"] = near_r
    level["near_count"] = int(near.size)
    level["deficit_near"] = (
        float(config.height - w[near].max()) if near.size else math.nan
    )
    level["fixed_radius"] = rdef
    level["deficit_fixed"] = (
        float(config.height - w[at_fixed].max()) if at_fixed.size else math.nan
    )
    level["potential_max_near_y"] = (
        float(w[near].max()) if near.size else math.nan
    )
    level["cap_density"] = density(cap)
    level["verification"] = cap_report["verification"]
    return level


def wiener_probe(config, region_shape, spec, tol=1e-8):
    """Run the boundary-point probe across the configured grid ladder.

    Returns a RegularityReport whose verdict is one of ``regular-trend``
    (oscillations collapse on the finest grid and the near-node deficit
    shrinks with refinement), ``irregular-trend`` (the deficit at fixed
    physical radius stays above the stagnation floor and refuses to shrink),
    or ``inconclusive``.
    """
    notes = []
    levels = []
    failed = False
    for h in config.h_levels:
        try:
            level = _probe_level(config, region_shape, spec, h, tol)
        except (ValueError, RuntimeError) as exc:
            levels.append({"h": h, "error": str(exc)})
            notes.append(f"level h={h}: {exc}")
            failed = True
            continue
        if not level["converged"]:
            notes.append(f"level h={h}: solve did not converge")
            failed = True
        levels.append(level)
    thresholds = config.to_dict()
    report = RegularityReport("inconclusive", levels, thresholds, notes=notes)
    if failed:
        report.notes.append("verdict withheld: at least one level failed")
        return report
    finest = levels[-1]
    coarsest = levels[0]
    # Smallest representable ladder radius beyond the base one.
    k_used = None
    for k in range(config.K, 0, -1):
        if finest["representable"][k]:
            k_used = k
            break
    if k_used is None or not finest["representable"][0]:
        report.notes.append("oscillation ladder unrepresentable on the finest grid")
        decay_ok = False
    else:
        if k_used != config.K:
            report.notes.append(
                f"radius ladder truncated at k={k_used} (smaller radii hold no nodes)"
            )
        om0 = finest["omega"][0]
        omk = finest["omega"][k_used]
        decay_ok = _finite(om0) and _finite(omk) and omk <= config.decay_factor * om0
        report.criteria["omega_ratio_finest"] = (
            omk / om0 if _finite(om0) and om0 > 0 else math.nan
        )
        report.criteria["k_used"] = k_used
    near_f = finest.get("deficit_near", math.nan)
    near_c = coarsest.get("deficit_near", math.nan)
    shrink_ok = (
        math.isfinite(near_f)
        and math.isfinite(near_c)
        and near_f <= config.shrink_ratio * near_c
    )
    report.criteria["deficit_near_first_last"] = [near_c, near_f]
    fixed_vals = [lev.get("deficit_fixed", math.nan) for lev in levels]
    report.criteria["deficit_fixed_by_level"] = fixed_vals
    floor = config.stagnation_floor * config.height
    stagnant = (
        all(math.isfinite(v) for v in fixed_vals)
        and all(v >= floor for v in fixed_vals)
        and fixed_vals[-1] >= config.stagnation_ratio * fixed_vals[0]
    )
    if decay_ok and shrink_ok:
        report.verdict = "regular-trend"
    elif stagnant:
        report.verdict = "irregular-trend"
    else:
        report.verdict = "inconclusive"
    report.criteria["decay_ok"] = bool(decay_ok)
    report.criteria["shrink_ok"] = bool(shrink_ok)
    report.criteria["stagnant"] = bool(stagnant)
    report.criteria["cap_density_by_level"] = [lev.get("cap_density") for lev in levels]
    return report


def barrier_build(grid, spec, y, rho, height, tol=1e-8, jj_factor=0.5):
    """Barrier pair at a boundary node: solves with data +-height*|x-y|^2/rho^2.

    The upper barrier V uses the paraboloid data, which is at least
    ``height`` on every boundary node at distance rho or more from y, so the
    away-from-y condition holds by construction and is checked on the data
    directly.  The vanishing-at-y condition is a trend: the maximum of V
    over interior nodes within delta of y, for delta = rho, rho/2, rho/4 and
    rho/8, must drop below ``jj_factor`` times its value at delta = rho.
    The lower barrier U solves the negated data; both kinds are odd, so it
    must equal -V (``odd_pair_gap``).

    Returns (V field, U field, report dict).
    """
    y = tuple(float(c) for c in y)
    node = grid.index_of(y)
    if grid.labels.ravel()[node] != BOUNDARY:
        raise ValueError("barrier anchor y must sit on a boundary node")
    if rho <= 0 or height <= 0:
        raise ValueError("rho and height must be positive")
    yarr = np.asarray(y)

    def data_plus(pts):
        d2 = np.sum((np.asarray(pts) - yarr) ** 2, axis=1)
        return height * d2 / (rho * rho)

    def data_minus(pts):
        return -data_plus(pts)

    V, rep_v = solve_dirichlet(grid, spec, data_plus, tol=tol)
    U, rep_u = solve_dirichlet(grid, spec, data_minus, tol=tol)
    boundary = (grid.labels == 1).ravel()
    bpts = grid.points()[boundary]
    bdist = np.sqrt(np.sum((bpts - yarr) ** 2, axis=1))
    bdata = data_plus(bpts)
    away = bdist >= rho
    j_ok = bool(np.all(bdata[away] >= height - tol)) if away.any() else None

    interior = (grid.labels == INTERIOR).ravel()
    vflat = V.values.ravel()
    deltas = [rho, rho / 2, rho / 4, rho / 8]
    ladder = []
    for delta in deltas:
        nodes = grid.nodes_within(y, delta)
        nodes = nodes[interior[nodes]]
        ladder.append(float(vflat[nodes].max()) if nodes.size else math.nan)
    usable = [v for v in ladder if math.isfinite(v)]
    jj_ok = (
        len(usable) >= 2 and usable[-1] <= jj_factor * usable[0] + tol
        if usable
        else False
    )
    report = {
        "deltas": list(deltas),
        "vanish_ladder": ladder,
        "jj_trend_ok": bool(jj_ok),
        "jj_factor": jj_factor,
        "j_away_ok": j_ok,
        "lower_bound_ok": bool(vflat[interior].min() >= -tol),
        "solves_converged": bool(rep_v.converged and rep_u.converged),
    }
    gap = float(np.max(np.abs(U.values + V.values)[grid.labels == INTERIOR]))
    report["odd_pair_gap"] = gap
    report["odd_pair_ok"] = bool(gap <= 2.0 * tol)
    return V, U, report


def locality_check(region_a, region_b, y, r, config, spec, tol=1e-8):
    """Probe the same point in two regions that agree inside I(y, r).

    Raises if the regions' node labels differ anywhere inside the window
    (checked on the finest configured grid); otherwise runs the probe on
    both and reports whether the verdicts match.
    """
    h = min(config.h_levels)
    sigma_a = sigma_grid_for(region_a, h)
    sigma_b = sigma_grid_for(region_b, h)
    labels_a = sigma_a.classify(region_a)
    labels_b = sigma_b.classify(region_b)
    near_a = sigma_a.nodes_within(y, r)
    near_b = sigma_b.nodes_within(y, r)
    pts_a = sigma_a.points()[near_a]
    pts_b = sigma_b.points()[near_b]
    # Both lattices are aligned to absolute multiples of h, so shared points
    # can be matched by integer coordinates.
    key_a = {tuple(np.rint(p / h).astype(int)): labels_a.ravel()[i] for p, i in zip(pts_a, near_a)}
    checked = 0
    for p, i in zip(pts_b, near_b):
        key = tuple(np.rint(p / h).astype(int))
        if key in key_a:
            checked += 1
            if key_a[key] != labels_b.ravel()[i]:
                raise ValueError(
                    "regions disagree inside the locality window at "
                    f"point {tuple(p)}"
                )
    if checked == 0:
        raise ValueError("locality window holds no shared nodes")
    rep_a = wiener_probe(config, region_a, spec, tol=tol)
    rep_b = wiener_probe(config, region_b, spec, tol=tol)
    return {
        "verdict_a": rep_a.verdict,
        "verdict_b": rep_b.verdict,
        "agree": rep_a.verdict == rep_b.verdict,
        "window_nodes_checked": checked,
        "report_a": rep_a.to_dict(),
        "report_b": rep_b.to_dict(),
    }
