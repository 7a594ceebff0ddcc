"""Tools for the Liouville equations u_xy = K e^(a u) and
Lap u = K e^(a u): closed-form solutions, finite-difference solvers that
are verified against them, a continuation engine for the fold of
Lap u + lambda e^u = 0, and the variational form of the elliptic
problem.
"""

import os

# numpy's OpenBLAS starts one worker thread per extra CPU when it loads,
# and the worker spins on its core for as long as the process lives.
# Nothing here makes a BLAS call that a second thread speeds up (see
# elliptic._gmres), so numpy is loaded with one BLAS thread.  OpenBLAS
# reads the variable once, at load: it is removed again so child
# processes do not inherit it, a value the caller set is left alone, and
# a numpy imported before this package keeps its pool.
if "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

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
