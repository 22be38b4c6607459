"""Numerical workbench for nonlinear potential theory of the t-Laplacian.

The package solves variational boundary-value and obstacle problems for
monotone operators of t-Laplacian type on lattice discretizations of
composite regions, and instruments the solutions the way the regularity
theory does: capacitary potentials of complement pieces, oscillation decay
ladders at boundary points, barrier pairs, Caccioppoli-type energy ratios,
and level-set iteration quantities.
"""

__version__ = "0.1.0"

from .domain.lattice import (
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    ComplementCap,
    GridDomain,
    build_grid,
    complement_cap,
    density,
    enclosing_center_radius,
)
from .domain.shapes import (
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
from .capacity import (
    RegularityReport,
    barrier_build,
    capacitary_potential,
    locality_check,
    radial_profile,
    sigma_ball,
    sigma_grid_for,
    wiener_probe,
)
from .levelsets import (
    DeGiorgiConstants,
    LevelSetStats,
    check_caccioppoli,
    check_psi_recursion,
    constants,
    decay_partial_product,
    level_stats,
    n0_and_decay,
    oscillation_sequence,
    threshold_level_gap,
)
from .monotone import Field, OperatorSpec, energy, weak_residual
from .scenario import IterationSchedule, WienerProbeConfig
from .solver import (
    BoundaryData,
    ObstacleConstraint,
    SolveReport,
    obstacle_verification,
    residual_breakdown,
    solve_dirichlet,
    solve_obstacle,
    verify_comparison,
)

__all__ = [
    "__version__",
    "BOUNDARY",
    "EXTERIOR",
    "INTERIOR",
    "Ball",
    "BoundaryData",
    "Box",
    "Complement",
    "ComplementCap",
    "DeGiorgiConstants",
    "Difference",
    "Field",
    "FlatCone",
    "GridDomain",
    "Halfspace",
    "Intersection",
    "IterationSchedule",
    "LevelSetStats",
    "ObstacleConstraint",
    "OperatorSpec",
    "PowerCusp",
    "RegularityReport",
    "SolidCone",
    "SolveReport",
    "TwistedCone",
    "Union",
    "WienerProbeConfig",
    "barrier_build",
    "build_grid",
    "capacitary_potential",
    "check_caccioppoli",
    "check_psi_recursion",
    "complement_cap",
    "constants",
    "decay_partial_product",
    "density",
    "enclosing_center_radius",
    "energy",
    "level_stats",
    "locality_check",
    "n0_and_decay",
    "obstacle_verification",
    "oscillation_sequence",
    "radial_profile",
    "residual_breakdown",
    "shape_from_dict",
    "sigma_ball",
    "sigma_grid_for",
    "solve_dirichlet",
    "solve_obstacle",
    "threshold_level_gap",
    "verify_comparison",
    "weak_residual",
    "wiener_probe",
]
