"""Trace the bifurcation diagram of Lap u + lambda e^u = 0 on the unit
disk and compare the computed fold with the closed-form radial family
lambda(b) = 8b/(1+b)^2, u(0) = 2 ln(1+b), whose fold sits at b = 1:
lambda0 = 2, u(0) = ln 4.
"""

import argparse
import math
import sys
import pathlib

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from liouville.elliptic import DiskGeometry, continue_branch  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=513, help="radial nodes")
    ap.add_argument("--u0-cap", type=float, default=10.0)
    ap.add_argument("--out", default="gelfand_branch.csv",
                    help="branch CSV (s,lambda,u0 rows, gnuplot-ready)")
    ns = ap.parse_args()

    branch = continue_branch(DiskGeometry(ns.n), u0_cap=ns.u0_cap)
    branch.write_csv(ns.out)
    print(f"n = {ns.n}: {len(branch.points)} points -> {ns.out}"
          + ("  (aborted early)" if branch.aborted else ""))
    if branch.fold is None:
        print("no fold detected")
        return
    f = branch.fold
    print(f"fold: lambda0 = {f.lam0:.10f}   u(0) = {f.u0:.10f}")
    print(f"      |lambda0 - 2|    = {abs(f.lam0 - 2.0):.3e}")
    print(f"      |u(0) - ln 4|    = {abs(f.u0 - math.log(4.0)):.3e}")


if __name__ == "__main__":
    main()
