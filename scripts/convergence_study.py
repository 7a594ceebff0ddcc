"""Grid refinement studies for the residual and marching-error checks.

Prints observed orders for the hyperbolic and elliptic exact-solution
residuals and for the Goursat marching error.  Two characteristic pairs
are shown for the hyperbolic cases: the linear pair f = x, g = y, whose
cross-difference residual superconverges (the centered cross stencil
error cancels against the cell-mean exponential error when f'' = g'' =
0, leaving fourth order), and a generic exponential pair that shows the
plain second-order behavior.
"""

import argparse
import math
import sys
import pathlib

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from liouville.closedform import (  # noqa: E402
    AnalyticSeed,
    elliptic_exact,
    hyperbolic_exact,
)
from liouville.expr import AxisPair, parse  # noqa: E402
from liouville.fields import (  # noqa: E402
    Grid2D,
    LiouvilleParams,
    ScalarField2D,
    norms,
    residual_elliptic,
    residual_hyperbolic,
)
from liouville.hyperbolic import march  # noqa: E402

P11 = LiouvilleParams(1.0, 1.0)


def orders(values, label):
    print(f"  {label}:")
    for i, v in enumerate(values):
        line = f"    level {i}: max {v:.6e}"
        if i:
            line += f"   order {math.log2(values[i - 1] / v):.3f}"
        print(line)


def hyperbolic_study(pair, label, domain):
    vals = []
    for n in (65, 129, 257):
        grid = Grid2D.from_bounds(*domain, n, n)
        u = hyperbolic_exact(pair, P11, grid)
        vals.append(norms(residual_hyperbolic(u, P11)).max_abs)
    orders(vals, label)


def elliptic_study():
    seed = AnalyticSeed(parse("z", ("z",)), "minus")
    vals = []
    for n in (65, 129, 257):
        grid = Grid2D.from_bounds(-0.3, -0.3, 0.3, 0.3, n, n)
        u = elliptic_exact(seed, 1.0, 1.0, grid)
        vals.append(norms(residual_elliptic(u, P11)).max_abs)
    orders(vals, "F = z, minus sign, K = 1 on [-0.3, 0.3]^2")


def march_study():
    pair = AxisPair(parse("exp(x)", ("x",)), parse("exp(y)", ("y",)))
    data = AxisPair(parse("ln(2*exp(x)*exp(1)/(exp(x)+exp(1))^2)", ("x",)),
                    parse("ln(2*exp(1)*exp(y)/(exp(1)+exp(y))^2)", ("y",)))
    vals = []
    for n in (65, 129, 257):
        grid = Grid2D.from_bounds(1.0, 1.0, 2.0, 2.0, n, n)
        exact = hyperbolic_exact(pair, P11, grid)
        res = march(data, P11, grid)
        err = float(np.nanmax(np.abs(res.field.values - exact.values)))
        vals.append(err)
    orders(vals, "marching error vs exact, f = e^x, g = e^y on [1, 2]^2")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--which", choices=("hyperbolic", "elliptic", "march",
                                        "all"), default="all")
    ns = ap.parse_args()
    if ns.which in ("hyperbolic", "all"):
        print("hyperbolic residual, grids 65/129/257:")
        hyperbolic_study(
            AxisPair(parse("x", ("x",)), parse("y", ("y",))),
            "f = x, g = y on [0.5, 1.5]^2 (superconvergent pair)",
            (0.5, 0.5, 1.5, 1.5))
        hyperbolic_study(
            AxisPair(parse("exp(x)", ("x",)), parse("exp(y)", ("y",))),
            "f = e^x, g = e^y on [0.5, 1.5]^2 (generic pair)",
            (0.5, 0.5, 1.5, 1.5))
    if ns.which in ("elliptic", "all"):
        print("elliptic residual, grids 65/129/257:")
        elliptic_study()
    if ns.which in ("march", "all"):
        print("Goursat marching, grids 65/129/257:")
        march_study()


if __name__ == "__main__":
    main()
