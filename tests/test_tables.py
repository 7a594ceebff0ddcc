"""Byte-exact pins for the plain CSV tables: the blow-up curve, the
continuation branch, the radial profile, the march mask and the field.
Each table is built from a tiny literal input and written to a string
stream."""

import io

import numpy as np

from liouville.closedform import BlowupCurve
from liouville.elliptic import Branch, BranchPoint, RadialProfile
from liouville.fields import Grid2D, ScalarField2D
from liouville.hyperbolic import MarchResult


def written(write_csv) -> str:
    buf = io.StringIO()
    write_csv(buf)
    return buf.getvalue()


def test_blowup_curve_with_na_row():
    curve = BlowupCurve([(0.0, 0.5), (0.5, None), (1.0, 0.1)])
    assert written(curve.write_csv) == "x,y\n0.0,0.5\n0.5,NA\n1.0,0.1\n"


def test_branch():
    u = np.zeros(2)
    branch = Branch([BranchPoint(0.0, 0.0, 0.0, u),
                     BranchPoint(0.05, 0.1, 0.1 + 0.2, u)])
    assert written(branch.write_csv) == (
        "s,lambda,u0\n0.0,0.0,0.0\n0.05,0.1,0.30000000000000004\n")


def test_radial_profile_from_arrays():
    prof = RadialProfile(np.linspace(0.0, 1.0, 3), np.array([1.5, 0.75, 0.0]))
    assert written(prof.write_csv) == "r,u\n0.0,1.5\n0.5,0.75\n1.0,0.0\n"


def test_march_mask():
    grid = Grid2D(3, 2, 0.0, -0.5, 0.5, 0.25)
    values = np.array([[0.0, 1.0, np.nan], [2.0, np.nan, np.nan]])
    result = MarchResult(ScalarField2D(grid, values))
    assert written(result.write_mask_csv) == (
        "# 3 2 0.0 -0.5 0.5 0.25\n0,0,1\n0,1,1\n")


def test_field_with_non_finite_and_signed_zero():
    grid = Grid2D(3, 2, 0.0, -0.5, 0.5, 0.25)
    values = np.array([[np.nan, np.inf, -0.0], [-np.inf, 0.1, 2.0]])
    assert written(ScalarField2D(grid, values).write_csv) == (
        "# 3 2 0.0 -0.5 0.5 0.25\nnan,inf,-0.0\n-inf,0.1,2.0\n")
