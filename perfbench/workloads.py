"""Seeded op lists for the three benchmark workloads, with the oracle
each op's output is checked against.

An op is one CLI pipeline: a tuple of argv lists, one per process, run
left to right with stdout piped into the next stdin.  Every numeric
input is drawn from ``random.Random(f"{workload}/{seed}")`` and rounded
to four decimals, so the same seed gives the same argv and the oracle
sees exactly the floats the CLI parses.

Oracles are closed forms evaluated here with numpy, independently of
the package:

* ``verify`` after an exact generator: ``max_abs`` equals the residual
  of the closed form on that grid (its truncation level) within 5% plus
  a rounding floor;
* ``verify`` after a solver (``march``, ``backlund``,
  ``solve-elliptic``): ``max_abs`` at most that truncation level, or the
  Newton tolerance, plus the rounding floor;
* ``exact-e | action``: the seeded field solves Lap u = mu^2 e^u, so it
  is a critical point of S up to truncation: ``grad_max`` is at most
  ``4 C hx hy`` times the five-point truncation level plus rounding;
* disk fold ``|lambda0 - 2| <= 1e-3`` (acceptance criterion 3);
* rectangle fold against the value recorded for a 33 x 33 unit square,
  within ``fold_tol`` (the problem is translation invariant, so one
  reference serves every seeded placement);
* ``blowup-approx`` gaps ``ln 8 - u(0)`` positive and decreasing in M;
* ``blowup-exact`` ``n_masked`` equal to the count of nodes on or
  outside the unit circle, done in integers;
* ``blowup-curve`` finds y = ln(1 + c - x^2) exactly where x^2 < c.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

WORKLOADS = {
    "cli-small": "eleven pipelines at the CLI's default sizes, where process "
                 "start and import dominate each 0.45-1 s op",
    "field-large": "six 1025x1025 field pipelines, each hop carrying about 20 "
                   "MB of CSV; codec-bound, never touches elliptic",
    "elliptic-solve": "rectangle Newton solves and a rectangle fold trace "
                      "dominated by sparse LU, plus banded disk solves",
}

SMALL = 65      # the CLI's default grid size
LARGE = 1025
EPS = float(np.finfo(float).eps)
NEWTON_TOL = 1e-10          # the CLI's default --tol for elliptic solves
MARCH_ROOT_TOL = 1e-14      # the marcher's per-cell root tolerance, relative
FOLD_TOL = 1e-6             # the CLI's default --fold-tol
DISK_FOLD_TOL = 1e-3        # acceptance criterion 3
# Fold of Lap u + lambda e^u = 0 on the 33 x 33 unit square with u = 0 on
# the boundary, as traced by `gelfand --geometry rectangle` at the commit
# that introduced this benchmark.  No closed form exists.
RECT_FOLD_33 = 6.806652729291447

Check = Callable[[dict, list], Optional[str]]


@dataclass(frozen=True)
class Op:
    """One pipeline.  ``headline`` names the summary key that must not be
    null; ``check(summary, body)`` returns a failure reason or None,
    where ``body`` holds the last stage's stdout lines before the
    summary."""

    name: str
    stages: tuple
    headline: str
    check: Check


# --- argv -----------------------------------------------------------------


def fmt(x: float) -> str:
    return repr(float(x))


def cli_argv(command: str, **flags) -> tuple:
    """argv for one subcommand; keyword ``foo_bar`` becomes ``--foo-bar``.
    A scalar value that starts with ``-`` is passed as ``--flag=value``
    so argparse does not take it for an option; list values must be
    numbers, which argparse accepts even when negative."""
    argv = [command]
    for key, value in flags.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, (list, tuple)):
            argv.append(flag)
            argv.extend(fmt(v) for v in value)
            continue
        text = fmt(value) if isinstance(value, float) else str(value)
        if text.startswith("-"):
            argv.append(f"{flag}={text}")
        else:
            argv.extend((flag, text))
    return tuple(argv)


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


# --- closed forms and residual stencils (numpy, independent of the package)


@dataclass(frozen=True)
class Grid:
    x0: float
    y0: float
    x1: float
    y1: float
    nx: int
    ny: int

    @property
    def hx(self) -> float:
        return (self.x1 - self.x0) / (self.nx - 1)

    @property
    def hy(self) -> float:
        return (self.y1 - self.y0) / (self.ny - 1)

    def mesh(self):
        x = self.x0 + self.hx * np.arange(self.nx)
        y = self.y0 + self.hy * np.arange(self.ny)
        return np.meshgrid(x, y)

    def flags(self) -> dict:
        return {"domain": [self.x0, self.y0, self.x1, self.y1],
                "nx": self.nx, "ny": self.ny}


def _cross_and_exp_mean(u, g: Grid):
    dxy = (u[1:, 1:] - u[1:, :-1] - u[:-1, 1:] + u[:-1, :-1]) / (g.hx * g.hy)
    mean = 0.25 * (u[1:, 1:] + u[1:, :-1] + u[:-1, 1:] + u[:-1, :-1])
    return dxy, np.exp(mean)


def hyperbolic_level(u, g: Grid, K: float) -> float:
    dxy, em = _cross_and_exp_mean(u, g)
    return float(np.abs(dxy - K * em).max())


def log_level(u, g: Grid, K: float) -> float:
    dxy, em = _cross_and_exp_mean(u, g)
    return float(np.abs((dxy - K * em) / em).max())


def elliptic_level(u, g: Grid, K: float) -> float:
    c = u[1:-1, 1:-1]
    lap = ((u[1:-1, 2:] - 2.0 * c + u[1:-1, :-2]) / g.hx ** 2
           + (u[2:, 1:-1] - 2.0 * c + u[:-2, 1:-1]) / g.hy ** 2)
    return float(np.abs(lap - K * np.exp(c)).max())


def cross_floor(u_max: float, g: Grid) -> float:
    """Rounding floor of the four-point cross stencil: a few ulps of u on
    each corner, divided by the cell area."""
    return 16.0 * EPS * (1.0 + u_max) / (g.hx * g.hy)


def five_point_floor(u_max: float, g: Grid) -> float:
    return 16.0 * EPS * (1.0 + u_max) * (1.0 / g.hx ** 2 + 1.0 / g.hy ** 2)


def exp_pair_field(p: float, q: float, K: float, g: Grid):
    """u for f = exp(p x), g = exp(q y), a = 1."""
    X, Y = g.mesh()
    return (math.log(2.0 * p * q / K) + p * X + q * Y
            - 2.0 * np.logaddexp(p * X, q * Y))


def disk_seed_field(c: float, K: float, g: Grid):
    """u for F(z) = c z, minus sign, a = 1."""
    X, Y = g.mesh()
    m2 = c * c * (X * X + Y * Y)
    return np.log(8.0 * c * c / (1.0 - m2) ** 2) - math.log(K)


def goursat_field(alpha: float, beta: float, gamma: float, g: Grid):
    """u = -2 ln(alpha - beta x - gamma y), which solves u_xy = 2 beta
    gamma e^u."""
    X, Y = g.mesh()
    return -2.0 * np.log(alpha - beta * X - gamma * Y)


def backlund_field(bt_a: float, u_corner: float, g: Grid):
    """Image of w = 0 under the Baecklund pair from u(x0, y0) = u_corner:
    e^(-u/2) = e^(-u_corner/2) - bt_a (x - x0)/2 - (y - y0)/bt_a."""
    X, Y = g.mesh()
    s = math.exp(-0.5 * u_corner) - 0.5 * bt_a * (X - g.x0) - (Y - g.y0) / bt_a
    return -2.0 * np.log(s)


# --- checks -----------------------------------------------------------------


def check_residual(summary: dict, body: list, *, eq: str, cells: int,
                   lo: float, hi: float) -> Optional[str]:
    if summary.get("eq") != eq:
        return f"eq {summary.get('eq')!r} != {eq!r}"
    if summary.get("cells") != cells:
        return f"cells {summary.get('cells')} != {cells}"
    m = summary["max_abs"]
    if not lo <= m <= hi:
        return f"max_abs {m:.3e} outside [{lo:.3e}, {hi:.3e}]"
    return None


def check_action(summary: dict, body: list, *, bound: float) -> Optional[str]:
    if summary["grad_max"] > bound:
        return f"grad_max {summary['grad_max']:.3e} above {bound:.3e}"
    if summary.get("value") is None:
        return "value is null"
    return None


def check_masked(summary: dict, body: list, *, expected: int) -> Optional[str]:
    if summary["n_masked"] != expected:
        return f"n_masked {summary['n_masked']} != analytic {expected}"
    return None


def check_fold(summary: dict, body: list, *, lam0: float,
               tol: float) -> Optional[str]:
    if summary.get("aborted"):
        return "continuation aborted"
    err = abs(summary["lambda0"] - lam0)
    if err > tol:
        return f"|lambda0 - {lam0!r}| = {err:.3e} above {tol:.1e}"
    return None


def check_gaps(summary: dict, body: list, *, n: int) -> Optional[str]:
    gaps = summary["gaps"]
    if len(gaps) != n or any(gp is None for gp in gaps):
        return f"gaps {gaps} incomplete"
    if not all(gp > 0.0 for gp in gaps):
        return f"gaps {gaps} not all positive"
    if not all(b < a for a, b in zip(gaps, gaps[1:])):
        return f"gaps {gaps} not decreasing in M"
    return None


def check_curve(summary: dict, body: list, *, c: float,
                xs: tuple) -> Optional[str]:
    rows = [ln.split(",") for ln in body[1:]]  # skip the x,y header
    if len(rows) != len(xs) or summary.get("samples") != len(xs):
        return f"expected {len(xs)} curve rows, got {len(rows)}"
    found = 0
    for (xt, yt), x in zip(rows, xs):
        if x * x < c:
            found += 1
            if yt == "NA" or abs(float(yt) - math.log1p(c - x * x)) > 1e-9:
                return f"y({xt}) = {yt}, closed form {math.log1p(c - x * x)!r}"
        elif yt != "NA":
            return f"y({xt}) = {yt} where no crossing exists"
    if summary["n_found"] != found:
        return f"n_found {summary['n_found']} != {found}"
    return None


# --- op builders -----------------------------------------------------------


def _grid(rng, bounds, n, shift) -> Grid:
    x0, y0, x1, y1 = bounds
    dx, dy = _draw(rng, -shift, shift), _draw(rng, -shift, shift)
    return Grid(x0 + dx, y0 + dy, x1 + dx, y1 + dy, n, n)


def _verify(u, g: Grid, eq: str, K: float, exact: bool, slack: float = 0.0):
    """verify argv and its check; ``slack`` widens the upper bound by a
    solver's own tolerance."""
    if eq == "elliptic":
        level, floor = elliptic_level(u, g, K), five_point_floor(
            float(np.abs(u).max()), g)
        cells = (g.nx - 2) * (g.ny - 2)
    else:
        lvl = log_level if eq == "log" else hyperbolic_level
        # the log form goes through T = e^u and back, a few more ulps
        scale = 2.0 if eq == "log" else 1.0
        level = lvl(u, g, K)
        floor = scale * cross_floor(float(np.abs(u).max()), g)
        cells = (g.nx - 1) * (g.ny - 1)
    lo = 0.95 * level - floor if exact else 0.0
    return (cli_argv("verify", eq=eq, K=K),
            functools.partial(check_residual, eq=eq, cells=cells, lo=lo,
                              hi=1.05 * level + floor + slack))


def exact_h_op(rng, n: int, log_form: bool) -> Op:
    p, q = _draw(rng, 0.6, 1.4), _draw(rng, 0.6, 1.4)
    K = round(p * q * _draw(rng, 1.2, 2.0), 4)  # keeps u < 0 on the grid
    g = _grid(rng, (0.5, 0.5, 1.5, 1.5), n, 0.2)
    gen = cli_argv("exact-h", f=f"exp({p!r}*x)", g=f"exp({q!r}*y)", K=K,
                   **g.flags())
    u = exp_pair_field(p, q, K, g)
    if log_form:
        conv = cli_argv("convert-log", direction="u-to-T")
        ver, check = _verify(u, g, "log", K, exact=True)
        return Op("exact-h|convert-log|verify", (gen, conv, ver), "max_abs",
                  check)
    ver, check = _verify(u, g, "hyperbolic", K, exact=True)
    return Op("exact-h|verify", (gen, ver), "max_abs", check)


def exact_e_op(rng, n: int, action: bool) -> Op:
    c = _draw(rng, 0.6, 1.1)
    mu = _draw(rng, 0.8, 1.25)
    K = mu * mu  # Lap u = mu^2 e^u is the Euler-Lagrange equation of S
    g = _grid(rng, (-0.5, -0.5, 0.5, 0.5), n, 0.05)
    gen = cli_argv("exact-e", F=f"{c!r}*z", K=K, **g.flags())
    u = disk_seed_field(c, K, g)
    if action:
        C = _draw(rng, 0.5, 2.0)
        bound = 4.0 * C * g.hx * g.hy * (
            elliptic_level(u, g, K) + five_point_floor(float(np.abs(u).max()), g))
        return Op("exact-e|action", (gen, cli_argv("action", C=C, mu=mu)),
                  "grad_max", functools.partial(check_action, bound=bound))
    ver, check = _verify(u, g, "elliptic", K, exact=True)
    return Op("exact-e|verify", (gen, ver), "max_abs", check)


def march_op(rng, n: int) -> Op:
    alpha, beta = _draw(rng, 2.0, 2.2), _draw(rng, 0.6, 1.0)
    gamma = round(0.5 / beta, 4)
    K = 2.0 * beta * gamma
    g = Grid(0.0, 0.0, 1.0, 1.0, n, n)
    gen = cli_argv("march", phi=f"-2*ln({alpha!r}-{beta!r}*x)",
                   psi=f"-2*ln({alpha!r}-{gamma!r}*y)", K=K, **g.flags())
    u = goursat_field(alpha, beta, gamma, g)
    # each cell is solved to MARCH_ROOT_TOL |c| with |c| about |u|
    slack = MARCH_ROOT_TOL * (1.0 + float(np.abs(u).max())) / (g.hx * g.hy)
    ver, check = _verify(u, g, "hyperbolic", K, exact=False, slack=slack)
    return Op("march|verify", (gen, ver), "max_abs", check)


def backlund_op(rng, n: int) -> Op:
    bt_a, u_corner = _draw(rng, 1.6, 2.4), _draw(rng, -0.3, -0.01)
    g = Grid(0.0, 0.0, 0.5, 0.5, n, n)
    gen = cli_argv("backlund", bt_a=bt_a, u_corner=u_corner, **g.flags())
    ver, check = _verify(backlund_field(bt_a, u_corner, g), g, "hyperbolic",
                         1.0, exact=False)
    return Op("backlund|verify", (gen, ver), "max_abs", check)


def solve_rect_op(rng, n: int) -> Op:
    K = _draw(rng, 0.5, 2.0)
    g = _grid(rng, (-0.5, -0.5, 0.5, 0.5), n, 0.25)
    gen = cli_argv("solve-elliptic", K=K, **g.flags())
    # u = 0 on the boundary and K <= 2 keep |u| <= K/8 < 1 on the unit square
    floor = five_point_floor(1.0, g)
    check = functools.partial(check_residual, eq="elliptic",
                              cells=(g.nx - 2) * (g.ny - 2), lo=0.0,
                              hi=NEWTON_TOL + floor)
    return Op("solve-elliptic|verify", (gen, cli_argv("verify", eq="elliptic",
                                                        K=K)),
              "max_abs", check)


def gelfand_disk_op(rng, n: int) -> Op:
    ds = _draw(rng, 0.04, 0.06)
    return Op("gelfand", (cli_argv("gelfand", ds=ds, n=n),), "lambda0",
              functools.partial(check_fold, lam0=2.0, tol=DISK_FOLD_TOL))


def gelfand_rect_op(rng) -> Op:
    # dyadic offsets keep the spacing exactly 1/32, so every placement is
    # the same discrete problem as the recorded reference
    dx, dy = rng.randrange(-8, 9) / 8.0, rng.randrange(-8, 9) / 8.0
    g = Grid(-0.5 + dx, -0.5 + dy, 0.5 + dx, 0.5 + dy, 33, 33)
    argv = cli_argv("gelfand", geometry="rectangle", **g.flags())
    return Op("gelfand-rect", (argv,), "lambda0",
              functools.partial(check_fold, lam0=RECT_FOLD_33, tol=FOLD_TOL))


def blowup_approx_op(rng, n: int) -> Op:
    d = _draw(rng, 0.05, 0.5)
    argv = cli_argv("blowup-approx", M=[5.0 + d, 8.0 + d, 11.0 + d], n=n)
    return Op("blowup-approx", (argv,), "gaps",
              functools.partial(check_gaps, n=3))


def blowup_exact_op(rng) -> Op:
    # corners on multiples of 1/8 keep every node x0 + i/32 exact in binary
    x0, y0 = rng.randrange(-10, -5) / 8.0, rng.randrange(-10, -5) / 8.0
    g = Grid(x0, y0, x0 + 2.0, y0 + 2.0, SMALL, SMALL)
    argv = cli_argv("blowup-exact", **g.flags())
    k = (g.nx - 1) // 2  # nodes per unit length, so node i sits at (k x0 + i)/k
    X = [int(k * x0) + i for i in range(g.nx)]
    Y = [int(k * y0) + j for j in range(g.ny)]
    outside = sum(1 for a in X for b in Y if a * a + b * b >= k * k)
    return Op("blowup-exact", (argv,), "n_masked",
              functools.partial(check_masked, expected=outside))


def blowup_curve_op(rng) -> Op:
    xs = tuple(float(x) for x in np.linspace(0.0, 1.0, 101))
    while True:  # keep every sample clear of the crossing's endpoint
        c = _draw(rng, 0.3, 0.9)
        if min(abs(x * x - c) for x in xs) > 1e-6:
            break
    argv = cli_argv("blowup-curve", f=f"x^2-{c!r}", g="exp(y)-1")
    return Op("blowup-curve", (argv,), "n_found",
              functools.partial(check_curve, c=c, xs=xs))


def make_ops(workload: str, seed: int) -> list:
    """The op list of one pass, a pure function of (workload, seed)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    if workload == "cli-small":  # sizes are the CLI's defaults
        return [
            exact_h_op(rng, SMALL, log_form=False),
            exact_e_op(rng, SMALL, action=False),
            exact_h_op(rng, SMALL, log_form=True),
            exact_e_op(rng, SMALL, action=True),
            blowup_exact_op(rng),
            march_op(rng, SMALL),
            backlund_op(rng, SMALL),
            solve_rect_op(rng, SMALL),
            gelfand_disk_op(rng, 257),
            blowup_approx_op(rng, 1025),
            blowup_curve_op(rng),
        ]
    if workload == "field-large":
        return [
            exact_h_op(rng, LARGE, log_form=False),
            exact_e_op(rng, LARGE, action=False),
            exact_h_op(rng, LARGE, log_form=True),
            exact_e_op(rng, LARGE, action=True),
            march_op(rng, LARGE),
            backlund_op(rng, LARGE),
        ]
    return [
        solve_rect_op(rng, 129),
        solve_rect_op(rng, 257),
        gelfand_rect_op(rng),
        gelfand_disk_op(rng, 2049),
        blowup_approx_op(rng, 4097),
    ]
