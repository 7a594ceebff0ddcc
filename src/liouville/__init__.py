"""Tools for the Liouville equations u_xy = K e^(a u) and
Lap u = K e^(a u): closed-form solutions, finite-difference solvers that
are verified against them, a continuation engine for the fold of
Lap u + lambda e^u = 0, and the variational form of the elliptic
problem.
"""

from .action import ActionParams, action_gradient, action_value
from .closedform import (
    AnalyticSeed,
    BlowupCurve,
    CharacteristicPair,
    GelfandRadial,
    blowup_curve,
    boundary_blowup_exact,
    convert_log_form,
    elliptic_exact,
    gelfand_radial,
    hyperbolic_exact,
)
from .elliptic import (
    Branch,
    BranchPoint,
    DirichletProblem,
    DiskGeometry,
    Fold,
    GelfandParams,
    RadialProfile,
    RectangleGeometry,
    SolveReport,
    boundary_blowup_approx,
    continue_branch,
    solve_dirichlet,
    solve_on_branch,
)
from .errors import LiouvilleError
from .expr import AxisPair, Expr, eval_complex, eval_dual, parse
from .fields import (
    Grid2D,
    LiouvilleParams,
    Norms,
    ScalarField2D,
    extrapolate_residual,
    norms,
    residual_elliptic,
    residual_hyperbolic,
    residual_log,
)
from .hyperbolic import (
    GoursatData,
    MarchResult,
    WaveSolution,
    backlund,
    march,
    march_from_edges,
)

__version__ = "0.1.0"

__all__ = [
    "ActionParams",
    "AnalyticSeed",
    "AxisPair",
    "BlowupCurve",
    "Branch",
    "BranchPoint",
    "CharacteristicPair",
    "DirichletProblem",
    "DiskGeometry",
    "Expr",
    "Fold",
    "GelfandParams",
    "GelfandRadial",
    "GoursatData",
    "Grid2D",
    "LiouvilleError",
    "LiouvilleParams",
    "MarchResult",
    "Norms",
    "RadialProfile",
    "RectangleGeometry",
    "ScalarField2D",
    "SolveReport",
    "WaveSolution",
    "action_gradient",
    "action_value",
    "backlund",
    "blowup_curve",
    "boundary_blowup_approx",
    "boundary_blowup_exact",
    "continue_branch",
    "convert_log_form",
    "elliptic_exact",
    "eval_complex",
    "eval_dual",
    "extrapolate_residual",
    "gelfand_radial",
    "hyperbolic_exact",
    "march",
    "march_from_edges",
    "norms",
    "parse",
    "residual_elliptic",
    "residual_hyperbolic",
    "residual_log",
    "solve_dirichlet",
    "solve_on_branch",
]
