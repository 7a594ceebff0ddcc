"""Table of center-value gaps for the boundary blow-up approximation.

The exact blow-up solution of Lap u = e^u on the unit disk has center
value ln 8.  Solving instead with constant boundary data M gives center
values that increase toward ln 8 as M grows; this prints the gap
ln 8 - u_M(0) for each M at several radial resolutions, which is how
the acceptance threshold on the final gap was chosen.
"""

import argparse
import math
import sys
import pathlib

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from liouville.elliptic import (  # noqa: E402
    DiskGeometry,
    boundary_blowup_approx,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, nargs="+", default=[513, 1025, 4097],
                    help="radial node counts")
    ap.add_argument("--M", type=float, nargs="+", default=[5.0, 8.0, 11.0],
                    help="strictly increasing boundary values")
    ns = ap.parse_args()

    limit = math.log(8.0)
    header = "      n " + "".join(f"  gap(M={M:g})" for M in ns.M)
    print(header)
    for n in ns.n:
        profiles = boundary_blowup_approx(DiskGeometry(n), ns.M)
        gaps = [limit - p.u0 for p in profiles]
        print(f"{n:7d} " + "".join(f"  {g:10.6f}" for g in gaps))
    print(f"exact continuum gaps converge to these as n grows; "
          f"ln 8 = {limit:.6f}")


if __name__ == "__main__":
    main()
