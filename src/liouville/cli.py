"""Command-line driver: one binary, twelve subcommands.

Fields travel as CSV, written to a file or to stdout, so an exact
solution can be piped straight into ``verify``.  Every run ends with a
single JSON summary line on stdout carrying a digest of the effective
inputs and the headline numbers, which is what the acceptance scripts
parse.  Exit codes: 0 success, 1 domain, usage or I/O error, 2 solver
non-convergence.

Each handler imports the modules it runs, so a process loads no solver
it does not call (``verify`` needs ``fields`` alone).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from .errors import (
    CellIterationDivergenceError,
    CliUsageError,
    LiouvilleError,
    NonConvergenceError,
    NonFiniteActionError,
    NonFiniteResidualError,
    OdeOverflowError,
)
from .fields import (
    BLOWUP_THRESHOLD,
    MAX_NEWTON,
    NEWTON_TOL,
    Grid2D,
    LiouvilleParams,
    ScalarField2D,
    norms,
    residual_elliptic,
    residual_hyperbolic,
    residual_log,
)

__all__ = ["run", "main", "build_parser"]

HELP_WIDTH = 80

# Failures of an iteration that was set up correctly exit 2; everything
# else raised by the library is a domain or usage problem and exits 1.
_NONCONVERGENCE = (
    NonConvergenceError,
    CellIterationDivergenceError,
    OdeOverflowError,
)


class _Parser(argparse.ArgumentParser):
    """argparse reports usage problems through error(); rerouting them
    into the package's exception hierarchy keeps the exit code at 1
    instead of argparse's hard-coded 2 (which we reserve for solvers)."""

    def error(self, message):
        raise CliUsageError(message)

    def print_help(self, file=None):
        # argparse would drop a failed write and exit 0
        raise SystemExit(_emit(self.format_help(), None, 0))

    def _parse_optional(self, arg_string):
        # argparse takes "-1e-3" and "-x" for options; a single-dash
        # argument that names none of ours (only -h does) is a value
        if (arg_string[:1] == "-" and arg_string[1:2] != "-"
                and arg_string not in self._option_string_actions):
            return None
        return super()._parse_optional(arg_string)


_FMT = functools.partial(argparse.HelpFormatter, width=HELP_WIDTH)

# sha256 from the interpreter's built-in module, as random.py takes its
# sha512: hashlib would load OpenSSL's libcrypto, about 3 MB of every
# process, for the same digest of the same bytes (``_read_field`` loads
# it for large fields only)
try:
    from _sha2 import sha256  # CPython >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256


# --- summary line --------------------------------------------------------


def _num(x) -> Optional[float]:
    v = float(x)
    return v if math.isfinite(v) else None


def _digest(pairs: dict) -> str:
    blob = json.dumps(pairs, sort_keys=True, default=str)
    return sha256(blob.encode("utf-8")).hexdigest()[:12]


def _finish(command: Optional[str], digest: str, payload: dict,
            error: Optional[Exception], code: int) -> int:
    """Print the summary line (status ``error`` if ``error`` is set) and
    the ``error:`` line (``_emit``), and return the exit code."""
    doc = dict(payload, command=command, digest=digest,
               status="ok" if error is None else "error")
    return _emit(json.dumps(doc, sort_keys=True, allow_nan=False) + "\n",
                 error, code)


def _emit(text: str, error: Optional[Exception], code: int) -> int:
    """Write and flush ``text`` to stdout, then the ``error:`` line if
    ``error`` is set, and return the exit code.  If stdout itself fails,
    the text is lost: the exit code is 1, and stdout's file descriptor,
    if it has one, is pointed at the null device so the interpreter's
    exit-time flush of what stdout still buffers fails no more."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        error, code = error or exc, 1
        try:
            fd = sys.stdout.fileno()
        except OSError:  # io.UnsupportedOperation: an in-memory stream
            pass
        else:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
    if error is not None:
        sys.stderr.write(f"error: {error}\n")
    return code


def _field_stats(field: ScalarField2D) -> dict:
    """Masked (NaN) node count and the extremes of the other nodes; an
    infinite extreme is reported as null."""
    kept = field.values[~np.isnan(field.values)]
    return {"n_masked": int(field.values.size - kept.size),
            "u_min": _num(kept.min()) if kept.size else None,
            "u_max": _num(kept.max()) if kept.size else None}


# --- shared flag groups --------------------------------------------------


def _add_rect(p, domain) -> None:
    p.add_argument("--domain", nargs=4, type=float, default=list(domain),
                   metavar=("X0", "Y0", "X1", "Y1"),
                   help="rectangle corners x0 y0 x1 y1, dimensionless "
                        "(default %(default)s)")
    p.add_argument("--nx", type=int, default=65,
                   help="grid nodes along x (default %(default)s)")
    p.add_argument("--ny", type=int, default=65,
                   help="grid nodes along y (default %(default)s)")


def _add_params(p) -> None:
    p.add_argument("--K", type=float, default=1.0,
                   help="coefficient K, dimensionless (default %(default)s)")
    p.add_argument("--a", type=float, default=1.0,
                   help="exponent coefficient a, dimensionless "
                        "(default %(default)s)")


def _add_out(p, what="field CSV") -> None:
    p.add_argument("--out", default="-",
                   help=f"{what} destination, '-' for stdout "
                        "(default %(default)s)")


def _add_in(p) -> None:
    p.add_argument("--in", dest="infile", default="-",
                   help="field CSV source, '-' for stdin (default %(default)s)")


def _grid(ns) -> Grid2D:
    x0, y0, x1, y1 = ns.domain
    return Grid2D.from_bounds(x0, y0, x1, y1, ns.nx, ns.ny)


def _geometry(ns):
    from . import elliptic
    if ns.geometry == "disk":
        return elliptic.DiskGeometry(ns.n)
    return elliptic.RectangleGeometry(_grid(ns))


def _write(table, out) -> None:
    """Write a field or table (anything with ``write_csv``); '-' is stdout."""
    table.write_csv(sys.stdout if out == "-" else out)


def _read_field(ns) -> ScalarField2D:
    """The ``--in`` field.  A sha256 of its header and values joins the
    run's inputs as ``ns.field_sha256``, so the digest covers what was
    read, from stdin or a file."""
    field = ScalarField2D.read_csv(sys.stdin if ns.infile == "-" else ns.infile)
    header = field.grid.header().encode("utf-8")
    if field.values.size > 2 ** 17:
        # OpenSSL's sha256 takes 6 ns a value against 32 ns, which repays
        # the 4 ms import of hashlib above about 1.5e5 values
        import hashlib
        sha = hashlib.sha256(header)
    else:
        sha = sha256(header)
    sha.update(field.values)  # C-contiguous: the bytes of tobytes(), uncopied
    ns.field_sha256 = sha.hexdigest()
    return field


def _pair(fx: str, gy: str):
    from .expr import AxisPair, parse
    return AxisPair(parse(fx, ("x",)), parse(gy, ("y",)))


def _boundary(text: str):
    """Dirichlet data: a plain number, else an expression in x and y."""
    try:
        return float(text)
    except ValueError:
        from .expr import parse
        return parse(text, ("x", "y"))


# --- subcommand handlers -------------------------------------------------


def _cmd_exact_h(ns) -> dict:
    from . import closedform
    field = closedform.hyperbolic_exact(_pair(ns.f, ns.g),
                                        LiouvilleParams(ns.K, ns.a), _grid(ns))
    _write(field, ns.out)
    return _field_stats(field)


def _cmd_exact_e(ns) -> dict:
    from . import closedform
    from .expr import parse
    seed = closedform.AnalyticSeed(parse(ns.F, ("z",)), ns.sign)
    field = closedform.elliptic_exact(seed, ns.K, ns.a, _grid(ns))
    _write(field, ns.out)
    return _field_stats(field)


def _cmd_blowup_exact(ns) -> dict:
    from . import closedform
    field = closedform.boundary_blowup_exact(_grid(ns))
    _write(field, ns.out)
    return _field_stats(field)


def _cmd_blowup_curve(ns) -> dict:
    from . import closedform
    curve = closedform.blowup_curve(_pair(ns.f, ns.g), tuple(ns.x_range),
                                    tuple(ns.y_range), ns.samples, ns.tol)
    _write(curve, ns.out)
    found = sum(1 for _, y in curve.samples if y is not None)
    return {"samples": len(curve.samples), "n_found": found}


def _cmd_verify(ns) -> dict:
    if ns.eq == "log" and ns.a != 1.0:
        raise CliUsageError("the log form fixes a = 1")
    field = _read_field(ns)
    if ns.eq == "hyperbolic":
        residual = functools.partial(residual_hyperbolic,
                                     p=LiouvilleParams(ns.K, ns.a))
    elif ns.eq == "elliptic":
        residual = functools.partial(residual_elliptic,
                                     p=LiouvilleParams(ns.K, ns.a))
    else:
        residual = functools.partial(residual_log, K=ns.K)
    with np.errstate(all="ignore"):
        res = residual(field)
    masked = _reads_masked(np.isnan(field.values), node=ns.eq == "elliptic")
    unexplained = int((~np.isfinite(res.values) & ~masked).sum())
    if unexplained:
        raise NonFiniteResidualError(
            f"residual is non-finite at {unexplained} cell(s) that read no "
            f"masked (NaN) input")
    nm = norms(res)
    cells = int(np.isfinite(res.values).sum())
    return {"eq": ns.eq, "max_abs": _num(nm.max_abs), "l2": _num(nm.l2),
            "cells": cells}


def _reads_masked(nan: np.ndarray, node: bool) -> np.ndarray:
    """Where a residual reads a masked (NaN) input: the stencil footprint
    applied to ``nan``.  A node residual reads the centre and its four
    neighbours, and its boundary ring is a sentinel; a cell residual
    reads the cell's four corners."""
    if not node:
        return nan[1:, 1:] | nan[1:, :-1] | nan[:-1, 1:] | nan[:-1, :-1]
    masked = np.ones_like(nan)
    masked[1:-1, 1:-1] = (nan[1:-1, 1:-1] | nan[1:-1, 2:] | nan[1:-1, :-2]
                          | nan[2:, 1:-1] | nan[:-2, 1:-1])
    return masked


def _cmd_solve_elliptic(ns) -> dict:
    from . import elliptic
    problem = elliptic.DirichletProblem(_geometry(ns),
                                        LiouvilleParams(ns.K, ns.a),
                                        _boundary(ns.boundary))
    solution, report = elliptic.solve_dirichlet(problem, tol=ns.tol,
                                                max_iter=ns.max_iter)
    _write(solution, ns.out)
    payload = {"report": dataclasses.asdict(report)}
    if isinstance(solution, elliptic.RadialProfile):
        payload["u_center"] = _num(solution.u0)
    else:
        payload.update(_field_stats(solution))
    return payload


def _cmd_gelfand(ns) -> dict:
    from . import elliptic
    branch = elliptic.continue_branch(
        _geometry(ns), ns.lam_start, ns.max_steps, ns.ds, lam_stop=ns.lam_stop,
        u0_cap=ns.u0_cap, tol=ns.tol, fold_tol=ns.fold_tol)
    fold = branch.fold
    if fold is None:
        why = "aborted" if branch.aborted else "used up --max-steps"
        raise NonConvergenceError(f"continuation {why} before the fold, "
                                  f"after {len(branch.points)} points")
    _write(branch, ns.out)
    return {"points": len(branch.points), "aborted": branch.aborted,
            "lambda0": _num(fold.lam0), "u0_at_fold": _num(fold.u0)}


def _cmd_blowup_approx(ns) -> dict:
    from . import elliptic
    Ms = list(ns.M)
    outs = [ns.out.replace("{M}", format(M, "g")) for M in Ms]
    if ns.out != "-" and len(set(outs)) < len(outs):
        raise CliUsageError(
            "--out must name one file per M value: give it a {M} "
            "placeholder, which is written with 6 significant digits")
    profiles = elliptic.boundary_blowup_approx(elliptic.DiskGeometry(ns.n),
                                               Ms, tol=ns.tol)
    for i, (out, prof) in enumerate(zip(outs, profiles)):
        if ns.out == "-" and i:  # blank-line separated blocks (gnuplot index)
            sys.stdout.write("\n")
        _write(prof, out)
    limit = math.log(8.0)
    centers = [prof.u0 for prof in profiles]
    return {"M": Ms, "centers": [_num(c) for c in centers],
            "gaps": [_num(limit - c) for c in centers], "limit": _num(limit)}


def _cmd_march(ns) -> dict:
    from . import hyperbolic
    result = hyperbolic.march(_pair(ns.phi, ns.psi),
                              LiouvilleParams(ns.K, ns.a), _grid(ns),
                              ns.threshold)
    _write(result.field, ns.out)
    if ns.mask_out is not None:
        result.write_mask_csv(ns.mask_out)
    return _field_stats(result.field)


def _cmd_backlund(ns) -> dict:
    from . import hyperbolic
    field = hyperbolic.backlund(_pair(ns.w_phi, ns.w_psi), ns.bt_a,
                                ns.u_corner, _grid(ns), ns.order)
    _write(field, ns.out)
    return _field_stats(field)


def _cmd_action(ns) -> dict:
    from .action import ActionParams, action_gradient, action_value
    if ns.fd_check < 0:
        raise CliUsageError(f"--fd-check must be >= 0, got {ns.fd_check}")
    field = _read_field(ns)
    p = ActionParams(ns.C, ns.mu)
    value = action_value(field, p)
    grad = action_gradient(field, p)
    # no entry may be infinite, nor NaN where no node is masked (value finite)
    bad = (np.isinf(grad.values) if np.isnan(value)
           else ~np.isfinite(grad.values))
    if bad.any():
        raise NonFiniteActionError(
            f"the gradient is not finite at {int(bad.sum())} node(s)")
    if ns.grad_out is not None:
        grad.write_csv(ns.grad_out)
    # the largest |gradient| without an |.| copy of the field
    payload = {"value": _num(value),
               "grad_max": _num(max(grad.values.max(), -grad.values.min()))}
    if ns.fd_check > 0:
        payload["fd_rel_max"] = _num(_fd_gradient_check(field, p, grad,
                                                        ns.fd_check))
    return payload


@np.errstate(invalid="ignore")  # a difference past the float range is NaN
def _fd_gradient_check(field: ScalarField2D, p, grad: ScalarField2D,
                       n_probe: int) -> float:
    """Central-difference probe of the gradient at up to ``n_probe``
    interior nodes, chosen by a fixed-seed generator so reruns agree.
    A node enters only its four cells, so a probe differences the action
    of the 3x3 nodes around it.  A masked field checks nothing (NaN), nor
    does a probe whose patch action is not finite."""
    from .action import action_value
    ny, nx = field.values.shape
    if nx < 3 or ny < 3:
        raise CliUsageError("--fd-check needs at least a 3x3 grid")
    if np.isnan(field.values).any():
        return math.nan
    rng = np.random.default_rng(0)
    total = (nx - 2) * (ny - 2)
    picks = rng.choice(total, size=min(n_probe, total), replace=False)
    patch_grid = dataclasses.replace(field.grid, nx=3, ny=3)
    worst = 0.0
    for flat in np.sort(picks):
        j = 1 + int(flat) // (nx - 2)
        i = 1 + int(flat) % (nx - 2)
        patch = field.values[j - 1:j + 2, i - 1:i + 2].copy()
        step = 1e-6 * (1.0 + abs(field.values[j, i]))
        try:
            patch[1, 1] += step
            plus = action_value(ScalarField2D(patch_grid, patch), p)
            patch[1, 1] -= 2.0 * step
            minus = action_value(ScalarField2D(patch_grid, patch), p)
        except NonFiniteActionError:
            return math.nan
        fd = (plus - minus) / (2.0 * step)
        scale = max(abs(fd), abs(grad.values[j, i]), 1e-30)
        worst = np.maximum(worst, abs(fd - grad.values[j, i]) / scale)
    return float(worst)


def _cmd_convert_log(ns) -> dict:
    from . import closedform
    field = _read_field(ns)
    out = closedform.convert_log_form(field, ns.direction.replace("-", "_"))
    _write(out, ns.out)
    return _field_stats(out)


# --- parser --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="liouville", formatter_class=_FMT,
                     description="Closed-form solutions, solvers and "
                                 "verification tools for the Liouville "
                                 "equations.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="SUBCOMMAND")

    def add(name, func, help_text):
        p = sub.add_parser(name, formatter_class=_FMT, help=help_text,
                           description=help_text)
        p.set_defaults(func=func)
        return p

    p = add("exact-h", _cmd_exact_h,
            "Evaluate the two-function exact solution of u_xy = K e^(a u).")
    p.add_argument("--f", required=True,
                   help="characteristic function f(x), an expression in x")
    p.add_argument("--g", required=True,
                   help="characteristic function g(y), an expression in y")
    _add_params(p)
    _add_rect(p, (0.5, 0.5, 1.5, 1.5))
    _add_out(p)

    p = add("exact-e", _cmd_exact_e,
            "Evaluate the analytic-seed exact solution of Lap u = K e^(a u).")
    p.add_argument("--F", required=True,
                   help="analytic seed F(z), an expression in z = x + iy")
    p.add_argument("--sign", choices=("minus", "plus"), default="minus",
                   help="sign in (1 -+ |F|^2)^2: minus pairs with K > 0, "
                        "plus with K < 0 (default %(default)s)")
    _add_params(p)
    _add_rect(p, (-0.5, -0.5, 0.5, 0.5))
    _add_out(p)

    p = add("blowup-exact", _cmd_blowup_exact,
            "Evaluate u = ln(8/(1 - x^2 - y^2)^2), the boundary blow-up "
            "solution of Lap u = e^u on the unit disk (NaN outside).")
    _add_rect(p, (-1.0, -1.0, 1.0, 1.0))
    _add_out(p)

    p = add("blowup-curve", _cmd_blowup_curve,
            "Trace the singular locus f(x) + g(y) = 0 of the two-function "
            "solution as a sampled curve y(x).")
    p.add_argument("--f", required=True,
                   help="characteristic function f(x), an expression in x")
    p.add_argument("--g", required=True,
                   help="characteristic function g(y), an expression in y; "
                        "must be strictly monotone on the y interval")
    p.add_argument("--x-range", nargs=2, type=float, default=[0.0, 1.0],
                   metavar=("XA", "XB"),
                   help="x interval to sample (default %(default)s)")
    p.add_argument("--y-range", nargs=2, type=float, default=[0.0, 1.0],
                   metavar=("YA", "YB"),
                   help="y interval searched for the crossing "
                        "(default %(default)s)")
    p.add_argument("--samples", type=int, default=101,
                   help="number of x samples (default %(default)s)")
    p.add_argument("--tol", type=float, default=1e-12,
                   help="root tolerance on f + g (default %(default)s)")
    _add_out(p, "curve CSV (x,y rows, NA where no crossing)")

    p = add("verify", _cmd_verify,
            "Read a field CSV and report residual norms for the chosen "
            "equation.")
    _add_in(p)
    p.add_argument("--eq", choices=("hyperbolic", "elliptic", "log"),
                   required=True,
                   help="equation to check: u_xy = K e^(a u), "
                        "Lap u = K e^(a u), or the T = e^u log form")
    _add_params(p)

    p = add("solve-elliptic", _cmd_solve_elliptic,
            "Solve Lap u = K e^(a u) with Dirichlet data by Newton "
            "iteration.")
    p.add_argument("--geometry", choices=("rectangle", "disk"),
                   default="rectangle",
                   help="rectangle grid or radially symmetric unit disk "
                        "(default %(default)s)")
    _add_rect(p, (-0.5, -0.5, 0.5, 0.5))
    p.add_argument("--n", type=int, default=257,
                   help="radial nodes for --geometry disk "
                        "(default %(default)s)")
    p.add_argument("--boundary", default="0",
                   help="Dirichlet data: a number, or an expression in x and "
                        "y (rectangle only; default %(default)s)")
    _add_params(p)
    p.add_argument("--tol", type=float, default=NEWTON_TOL,
                   help="residual max-norm target (default %(default)s)")
    p.add_argument("--max-iter", type=int, default=MAX_NEWTON,
                   help="Newton iteration cap (default %(default)s)")
    _add_out(p, "solution CSV (field, or r,u rows for the disk)")

    p = add("gelfand", _cmd_gelfand,
            "Trace the solution branch of Lap u + lambda e^u = 0, u = 0 on "
            "the boundary, through its fold by pseudo-arclength "
            "continuation.")
    p.add_argument("--geometry", choices=("disk", "rectangle"),
                   default="disk",
                   help="radially symmetric unit disk or rectangle grid "
                        "(default %(default)s)")
    p.add_argument("--n", type=int, default=257,
                   help="radial nodes for --geometry disk "
                        "(default %(default)s)")
    _add_rect(p, (-0.5, -0.5, 0.5, 0.5))
    p.add_argument("--lam-start", type=float, default=0.0,
                   help="lambda at the branch foot (default %(default)s)")
    p.add_argument("--ds", type=float, default=0.05,
                   help="initial arclength step (default %(default)s)")
    p.add_argument("--max-steps", type=int, default=500,
                   help="continuation step cap (default %(default)s)")
    p.add_argument("--lam-stop", type=float, default=None,
                   help="stop once past the fold and lambda drops below "
                        "this (default: u0 cap only)")
    p.add_argument("--u0-cap", type=float, default=15.0,
                   help="stop once u(center) exceeds this "
                        "(default %(default)s)")
    p.add_argument("--tol", type=float, default=NEWTON_TOL,
                   help="corrector residual target (default %(default)s)")
    p.add_argument("--fold-tol", type=float, default=NEWTON_TOL,
                   help="fold solve's residual target max(|F|, |sigma|) "
                        "(default %(default)s)")
    _add_out(p, "branch CSV (s,lambda,u0 rows)")

    p = add("blowup-approx", _cmd_blowup_approx,
            "Approximate the boundary blow-up solution of Lap u = e^u on "
            "the unit disk by solving with boundary data M for each M.")
    p.add_argument("--n", type=int, default=1025,
                   help="radial nodes (default %(default)s)")
    p.add_argument("--M", nargs="+", type=float, default=[5.0, 8.0, 11.0],
                   help="strictly increasing boundary values "
                        "(default %(default)s)")
    p.add_argument("--tol", type=float, default=NEWTON_TOL,
                   help="residual max-norm target (default %(default)s)")
    _add_out(p, "profile CSV; with several M give a {M} placeholder, or "
                "'-' for blank-line separated blocks")

    p = add("march", _cmd_march,
            "Integrate u_xy = K e^(a u) from Goursat edge data by "
            "characteristic marching; nodes past blow-up are masked NaN.")
    p.add_argument("--phi", required=True,
                   help="bottom-edge data u(x, y0), an expression in x")
    p.add_argument("--psi", required=True,
                   help="left-edge data u(x0, y), an expression in y; must "
                        "match phi at the corner")
    _add_params(p)
    _add_rect(p, (0.0, 0.0, 1.0, 1.0))
    p.add_argument("--threshold", type=float,
                   default=BLOWUP_THRESHOLD,
                   help="u value treated as blown up (default %(default)s)")
    p.add_argument("--mask-out", default=None,
                   help="optional CSV path for the 0/1 blow-up mask")
    _add_out(p)

    p = add("backlund", _cmd_backlund,
            "Map a wave-equation solution w = phi(x) + psi(y) to a solution "
            "of u_xy = e^u: the Baecklund pair's image in closed form, with "
            "the integrals of e^phi and e^-psi by Simpson's rule.")
    p.add_argument("--w-phi", default="0",
                   help="phi(x) part of the wave solution "
                        "(default %(default)s)")
    p.add_argument("--w-psi", default="0",
                   help="psi(y) part of the wave solution "
                        "(default %(default)s)")
    p.add_argument("--bt-a", type=float, default=2.0,
                   help="nonzero transformation parameter "
                        "(default %(default)s)")
    p.add_argument("--u-corner", type=float, default=0.0,
                   help="integration constant u(x0, y0) "
                        "(default %(default)s)")
    p.add_argument("--order", choices=("xy", "yx"), default="xy",
                   help="integration order; both give the same field "
                        "(default %(default)s)")
    _add_rect(p, (0.0, 0.0, 0.5, 0.5))
    _add_out(p)

    p = add("action", _cmd_action,
            "Evaluate the action C sum(cells) (|grad phi|^2 / 2 + mu^2 "
            "e^phi) of a field and its exact interior gradient.")
    _add_in(p)
    p.add_argument("--C", type=float, default=1.0,
                   help="positive overall coefficient (default %(default)s)")
    p.add_argument("--mu", type=float, default=1.0,
                   help="mass parameter mu (default %(default)s)")
    p.add_argument("--fd-check", type=int, default=0, metavar="N",
                   help="probe the gradient at N fixed-seed interior nodes "
                        "by central differences (default %(default)s)")
    p.add_argument("--grad-out", default=None,
                   help="optional CSV path for the gradient field")

    p = add("convert-log", _cmd_convert_log,
            "Convert between u and T = e^u, the substitution linking "
            "u_xy = K e^u to the log form of the equation.")
    _add_in(p)
    p.add_argument("--direction", choices=("u-to-T", "T-to-u"),
                   required=True, help="which way to convert")
    _add_out(p)

    return parser


# --- entry points --------------------------------------------------------


def run(argv=None) -> int:
    """Parse ``argv`` (default sys.argv[1:]), run the subcommand, print
    the JSON summary line, and return the exit code."""
    args = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        ns = parser.parse_args(args)
    except SystemExit as exc:  # --help printed (_Parser.print_help)
        return exc.code
    except CliUsageError as exc:
        command = next((a for a in args if not a.startswith("-")), None)
        payload = {"error": {"code": exc.code, "message": str(exc)}}
        return _finish(command, _digest({"argv": args}), payload, exc, 1)

    def digest() -> str:
        # after the handler ran: commands that read a field add its hash
        return _digest({k: v for k, v in vars(ns).items() if k != "func"})

    try:
        payload = ns.func(ns)
    except (LiouvilleError, OSError) as exc:
        code = exc.code if isinstance(exc, LiouvilleError) else "io.error"
        payload = {"error": {"code": code, "message": str(exc)}}
        return _finish(ns.command, digest(), payload, exc,
                       2 if isinstance(exc, _NONCONVERGENCE) else 1)
    return _finish(ns.command, digest(), payload, None, 0)


def main() -> None:
    """Console entry point: exit with ``run()``'s code.

    Everything is written once ``run()`` returns, so the collector is
    frozen first: the interpreter's exit-time collections then skip every
    object already tracked (numpy's included), while atexit handlers and
    the final flush of the std streams still run.  ``run()`` leaves the
    collector alone for in-process callers."""
    code = run()
    gc.freeze()
    sys.exit(code)
