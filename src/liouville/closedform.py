"""Closed-form Liouville solutions used as oracles for the numerical
solvers.

* two-function solution of u_xy = K e^(a u) from a characteristic pair
  (f(x), g(y)):  u = (1/a) ln(2 f' g' / (a K (f+g)^2));
* one-analytic-function solution of Delta u = K e^(a u) from a seed F(z):
  u = (1/a) (ln(8|F'|^2 / (1 -+ |F|^2)^2) - ln(a |K|));
* the radial Gelfand family on the unit disk, lambda(b) = 8b/(1+b)^2;
* the boundary blow-up solution u = ln(8/(1 - x^2 - y^2)^2);
* the singular locus f(x) + g(y) = 0 traced as a curve;
* pointwise conversion between u and T = e^u.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    ClosedFormError,
    DomainViolationError,
    GridTooLargeError,
    NonFiniteValueError,
    NonMonotoneGError,
    NonPositiveBError,
    NonPositiveFieldError,
    SeedDegenerateError,
    SignError,
    SingularNodeError,
)
from .expr import AxisPair, Expr, eval_complex, eval_dual
from .fields import (MAX_NODES, Grid2D, LiouvilleParams, ScalarField2D,
                     _row_blocks, write_table)

__all__ = [
    "CharacteristicPair",
    "AnalyticSeed",
    "GelfandRadial",
    "BlowupCurve",
    "hyperbolic_exact",
    "elliptic_exact",
    "gelfand_radial",
    "boundary_blowup_exact",
    "blowup_curve",
    "convert_log_form",
]


CharacteristicPair = AxisPair  # f(x), g(y) of a two-function solution


@dataclass(frozen=True)
class AnalyticSeed:
    """Holomorphic seed F(z) plus the denominator sign of the generated
    solution: "minus" pairs with K > 0, "plus" with K < 0."""

    F: Expr
    sign: str

    def __post_init__(self):
        if self.sign not in ("plus", "minus"):
            raise ClosedFormError(f"sign must be 'plus' or 'minus', got {self.sign!r}")
        if len(self.F.vars) != 1:
            raise ClosedFormError(f"F must be univariate, has vars {self.F.vars}")


def _finite(field: ScalarField2D) -> ScalarField2D:
    """Return ``field`` if every node is finite, else raise
    NonFiniteValueError with the count and the first such node in
    row-major order."""
    count, first = 0, None
    for j0, j1 in _row_blocks(field.grid.ny):
        finite = np.isfinite(field.values[j0:j1])
        if finite.all():  # argwhere alone costs ten times as much
            continue
        bad = np.argwhere(~finite)
        if first is None:
            first = (int(bad[0][1]), j0 + int(bad[0][0]))
        count += len(bad)
    if count:
        i, j = first
        err = NonFiniteValueError(
            f"u is not finite at {count} node(s), the first at node "
            f"(i={i}, j={j}), (x, y) = ({float(field.grid.x()[i])!r}, "
            f"{float(field.grid.y()[j])!r}): u overflows, or an input of "
            "the closed form (f, g, f + g, f', g', F or F') is not finite")
        err.i, err.j = first
        raise err
    return field


@np.errstate(divide="ignore")  # ln|f'| = -inf where f' = 0: a sign error
def hyperbolic_exact(cp: AxisPair, p: LiouvilleParams,
                     grid: Grid2D) -> ScalarField2D:
    """``_two_function`` with f = ``cp.fx`` and g = ``cp.gy``."""
    (fv, fp), (gv, gp) = cp.sample(grid.x(), grid.y())
    return _two_function(fv, np.log(np.abs(fp)), fp,
                         gv, np.log(np.abs(gp)), gp, p, grid)


@np.errstate(all="ignore")
def _two_function(f, ln_fp, fp, g, ln_gp, gp, p, grid) -> ScalarField2D:
    """Sample u = (1/a) ln(2 f' g' / (a K (f+g)^2)), a and K of ``p``, on
    ``grid`` from f, ln|f'| and f' (or its signs) on x, the same for g on
    y, as (ln 2 + ln|f'| + ln|g'| - ln|a| - ln|K| - 2 ln|f+g|)/a.

    Raises SingularNodeError at the first node in row-major order where
    f+g is 0 or of the other sign than at the corner, then SignError
    unless a K f' g' > 0 on the grid, then NonFiniteValueError.
    """
    # rounded addition is monotone, so the grid's extreme f + g are those
    # of the axes' extremes; fmin and fmax skip NaN, as the sign test does
    lo, hi = np.fmin.reduce, np.fmax.reduce
    straddles = not (lo(f) + lo(g) > 0 or hi(f) + hi(g) < 0)
    # the logs of the 1-D factors, once: per node only ln|f+g| is taken
    ln_f = np.log(2.0) + ln_fp - np.log(abs(p.a)) - np.log(abs(p.K))
    u = np.empty((grid.ny, grid.nx))
    for j0, j1 in _row_blocks(grid.ny):
        s = g[j0:j1, None] + f[None, :]
        if straddles:  # NaN is neither 0 nor of a sign: _finite reports it
            hit = np.flatnonzero((s == 0) | (np.sign(s) == -np.sign(f[0] + g[0])))
            if hit.size:
                j, i = divmod(int(hit[0]), grid.nx)
                raise SingularNodeError(i, j0 + j, float(grid.x()[i]),
                                        float(grid.y()[j0 + j]), float(s[j, i]))
        u[j0:j1] = (ln_f[None, :] + ln_gp[j0:j1, None]
                    - 2.0 * np.log(np.abs(s))) / p.a
    # a K f'(x) g'(y) > 0 on the grid iff it holds at the axes' extreme
    # signs, taken one by one (a product of tiny factors underflows to 0)
    sf, sg = np.sign(p.a) * np.sign(p.K) * np.sign(fp), np.sign(gp)
    if lo(sf) * hi(sg) <= 0 or hi(sf) * lo(sg) <= 0:
        q_min = np.min([np.min(p.a * p.K * gp[j0:j1, None] * fp[None, :])
                        for j0, j1 in _row_blocks(grid.ny)])
        raise SignError("a*K*f'(x)*g'(y) must be positive on the whole grid "
                        f"(min {float(q_min)!r})")
    return _finite(ScalarField2D(grid, u))


@np.errstate(all="ignore")
def elliptic_exact(seed: AnalyticSeed, K: float, a: float,
                   grid: Grid2D) -> ScalarField2D:
    """Sample u = (1/a)(ln(8|F'|^2/(1 -+ |F|^2)^2) - ln(a|K|)) on ``grid``,
    as the sum of logarithms
    u = (ln 8 + 2 ln|F'| - 2 ln(1 -+ |F|^2) - ln a - ln|K|)/a, with
    ln(1 - |F|^2) taken as log1p and ln(1 + |F|^2) as logaddexp(0, 2 ln|F|):
    finite wherever u is and F, F' are.

    The "minus" sign solves Delta u = K e^(a u) for K > 0 and requires
    |F| < 1 on the grid; "plus" solves it for K < 0.  Requires a > 0 (the
    additive normalization ln(a|K|) has no real value otherwise).
    Raises NonFiniteValueError where u is not finite.
    """
    if not all(np.isfinite(c) and c != 0 for c in (K, a)):
        raise ClosedFormError("K and a must be finite and nonzero")
    if (seed.sign == "minus") != (K > 0):
        raise SignError(
            f"sign '{seed.sign}' pairs with K {'>' if seed.sign == 'minus' else '<'} 0, "
            f"got K={K}"
        )
    if a < 0:
        raise SignError("the analytic-seed solution requires a > 0")
    x, y = grid.x(), grid.y()
    ln_c = np.log(8.0) - np.log(a) - np.log(abs(K))
    u = np.empty((grid.ny, grid.nx))
    degenerate, mod2_max, outside = None, -np.inf, False
    # the checks are raised after the last block, so that an expression
    # domain error anywhere on the grid still comes first
    for j0, j1 in _row_blocks(grid.ny):
        shape = (j1 - j0, grid.nx)
        F, Fp = (np.broadcast_to(w, shape) for w in
                 eval_complex(seed.F, x[None, :] + 1j * y[j0:j1, None]))
        zero = np.argwhere(Fp == 0)
        if zero.size and degenerate is None:
            degenerate = (int(zero[0][1]), j0 + int(zero[0][0]))
        if seed.sign == "minus":
            mod2 = (F * F.conj()).real
            mod2_max = np.maximum(mod2_max, mod2.max())
            outside = outside or bool(np.any(mod2 >= 1.0))
        # ln(1 + |F|^2) as logaddexp: finite where |F|^2 is not
        ln_den = (np.log1p(-mod2) if seed.sign == "minus" else
                  np.logaddexp(0.0, 2.0 * np.log(np.abs(F))))
        u[j0:j1] = (ln_c + 2.0 * np.log(np.abs(Fp)) - 2.0 * ln_den) / a
        # drop this block's arrays before the next block's jets are built
        F = Fp = mod2 = ln_den = None
    if degenerate is not None:
        raise SeedDegenerateError(*degenerate)
    if outside:
        raise DomainViolationError(
            "|F(z)| must stay below 1 for the minus sign "
            f"(max |F|^2 = {float(mod2_max)!r})"
        )
    return _finite(ScalarField2D(grid, u))


@dataclass(frozen=True)
class GelfandRadial:
    """One member of the radial solution family of Delta u + lambda e^u = 0
    on the unit disk with zero boundary data."""

    b: float
    lam: float
    u0: float

    def profile(self) -> Callable[[np.ndarray], np.ndarray]:
        b, lam = self.b, self.lam
        def u(r):
            r = np.asarray(r, dtype=float)
            return np.log(8.0 * b / (lam * (1.0 + b * r * r) ** 2))
        return u


def gelfand_radial(b: float) -> GelfandRadial:
    """Closed-form branch member: lambda(b) = 8b/(1+b)^2, u(0) = 2 ln(1+b)."""
    if not b > 0:
        raise NonPositiveBError(f"b must be positive, got {b}")
    lam = 8.0 * b / (1.0 + b) ** 2
    return GelfandRadial(b, lam, float(np.log(8.0 * b / lam)))


@np.errstate(divide="ignore", invalid="ignore")
def boundary_blowup_exact(grid: Grid2D) -> ScalarField2D:
    """u = ln(8/(1-x^2-y^2)^2), the solution of Delta u = e^u on the unit
    disk that diverges at the boundary circle.  Nodes on or outside the
    circle get the NaN sentinel."""
    x2, y2 = np.square(grid.x()), np.square(grid.y())
    u = np.empty((grid.ny, grid.nx))
    for j0, j1 in _row_blocks(grid.ny):
        r2 = x2[None, :] + y2[j0:j1, None]
        u[j0:j1] = np.where(r2 < 1.0, np.log(8.0) - 2.0 * np.log1p(-r2), np.nan)
    return ScalarField2D(grid, u)


@dataclass
class BlowupCurve:
    """Sampled singular locus f(x) + g(y) = 0: one (x, y) pair per sample,
    y = None where the locus does not cross the searched y-interval."""

    samples: list[tuple[float, Optional[float]]]

    def write_csv(self, path) -> None:
        # None (no crossing) reads as NaN, which a found crossing never is
        write_table(path, "x,y", np.array(self.samples, dtype=float), na="NA")


def blowup_curve(cp: AxisPair, x_range: tuple[float, float],
                 y_range: tuple[float, float], n_samples: int = 101,
                 tol: float = 1e-12) -> BlowupCurve:
    """Trace y(x) with f(x) + g(y(x)) = 0 over ``x_range``, with
    f = ``cp.fx`` and g = ``cp.gy``.

    For each sampled x the equation is bracketed on ``y_range`` and
    solved by bisection polished with Newton to ``|f+g| <= tol`` scale;
    all samples bisect in lockstep, one evaluation of g per step.
    g must be strictly monotone on the y-interval (checked via the sign
    of g' at the samples); a sign change raises NonMonotoneGError.  More
    than ``MAX_NODES`` samples raise GridTooLargeError; a ``tol`` that is
    not finite and > 0, or a crossing that is not finite, raises
    ClosedFormError.
    """
    (xa, xb), (ya, yb) = map(float, x_range), map(float, y_range)
    # a width that is not finite would sample x or y at inf or NaN
    if not (0 < xb - xa < np.inf and 0 < yb - ya < np.inf and n_samples >= 2):
        raise ClosedFormError("need xb > xa and yb > ya a finite distance "
                              "apart, and at least 2 samples")
    if not (np.isfinite(tol) and tol > 0):
        raise ClosedFormError(f"tol must be finite and > 0, got {tol}")
    if n_samples > MAX_NODES:
        raise GridTooLargeError(
            f"{n_samples} samples exceed the cap of {MAX_NODES}")
    gname = cp.gy.vars[0]
    with np.errstate(over="ignore", invalid="ignore"):
        ys_probe = np.linspace(ya, yb, max(33, n_samples))
        gy = eval_dual(cp.gy, ys_probe, gname)
        gp = np.broadcast_to(gy.d1, ys_probe.shape)
        if np.any(gp == 0) or (gp.min() < 0 < gp.max()):
            raise NonMonotoneGError(
                f"g' changes sign on [{ya}, {yb}] "
                f"(range [{float(gp.min())!r}, {float(gp.max())!r}])"
            )
        xs = np.linspace(xa, xb, n_samples)
        fv = np.broadcast_to(eval_dual(cp.fx, xs, cp.fx.vars[0]).value,
                             xs.shape)
        flo = fv + eval_dual(cp.gy, ya, gname).value
        fhi = fv + eval_dual(cp.gy, yb, gname).value
        # an exact zero at ya comes first, then one at yb
        y = np.where(flo == 0.0, ya, yb)
        ends = (flo == 0.0) | (fhi == 0.0)
        # NaN signs compare unequal, so such lanes bisect as before
        live = ~ends & (np.sign(flo) != np.sign(fhi))
        if live.any():
            fv, flo = fv[live], flo[live]
            lo, hi = np.full(flo.shape, ya), np.full(flo.shape, yb)
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                res = eval_dual(cp.gy, mid, gname)
                fm = fv + res.value
                # a stopped lane keeps lo, hi and so its midpoint
                go = ~((np.abs(fm) <= tol)
                       | (hi - lo <= 4e-16 * np.maximum(1.0, np.abs(mid))))
                if not go.any():
                    break
                left = go & (np.sign(fm) == np.sign(flo))
                lo, flo = np.where(left, mid, lo), np.where(left, fm, flo)
                hi = np.where(go & ~left, mid, hi)
            # one Newton polish from the last step's mid, which the loop
            # leaves in place (g' bounded away from zero by the probe above)
            y[live] = np.clip(mid - fm / res.d1, ya, yb)
    found = ends | live
    bad = np.flatnonzero(found & ~np.isfinite(y))
    if bad.size:
        raise ClosedFormError(f"the crossing at sample {bad[0]} (x = "
                              f"{float(xs[bad[0]])!r}) is not finite")
    return BlowupCurve([(x, v if ok else None) for x, v, ok in
                        zip(xs.tolist(), y.tolist(), found.tolist())])


def convert_log_form(field: ScalarField2D, direction: str) -> ScalarField2D:
    """Pointwise change of unknown between u and T = e^u.

    ``direction`` is "u_to_T" or "T_to_u"; NaN sentinels pass through,
    and T_to_u requires every non-sentinel entry to be positive.  A
    finite input whose image is not finite (e^u overflowing) raises
    NonFiniteValueError.
    """
    v = field.values
    if direction == "u_to_T":
        # by row blocks, so the overflow test's masks stay block-sized
        out, overflow = np.empty_like(v), 0
        for j0, j1 in _row_blocks(v.shape[0]):
            vb, ob = v[j0:j1], out[j0:j1]
            with np.errstate(over="ignore"):
                np.exp(vb, out=ob)
            overflow += int((np.isfinite(vb) & ~np.isfinite(ob)).sum())
        if overflow:
            raise NonFiniteValueError(
                f"T = e^u overflows at {overflow} node(s) where u is finite")
        return ScalarField2D(field.grid, out)
    if direction == "T_to_u":
        if np.any(v <= 0):  # NaN compares false: sentinels pass
            raise NonPositiveFieldError("T must be positive to form u = log T")
        return ScalarField2D(field.grid, np.log(v))
    raise ClosedFormError(f"direction must be 'u_to_T' or 'T_to_u', got {direction!r}")
