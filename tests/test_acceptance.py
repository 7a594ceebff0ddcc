"""Acceptance gate: one test per headline capability, each printing its
own pass/fail line under ``pytest -v``.

Every reference value is either a closed-form substitution checked in
the module suites or an oracle computed independently inside the test
(brute-force maximization, dual-number differentiation, central
differences) before the code under test runs.
"""

import math
import time

import numpy as np
from scipy.optimize import minimize_scalar

from liouville.action import ActionParams, action_gradient, action_value
from liouville.closedform import (
    AnalyticSeed,
    CharacteristicPair,
    convert_log_form,
    elliptic_exact,
    gelfand_radial,
    hyperbolic_exact,
)
from liouville.elliptic import (
    DirichletProblem,
    DiskGeometry,
    RectangleGeometry,
    boundary_blowup_approx,
    solve_dirichlet,
)
from liouville.expr import eval_dual, parse
from liouville.fields import (
    Grid2D,
    LiouvilleParams,
    ScalarField2D,
    extrapolate_residual,
    norms,
    residual_elliptic,
    residual_hyperbolic,
)
from liouville.hyperbolic import GoursatData, WaveSolution, backlund, march

P11 = LiouvilleParams(1.0, 1.0)
LN4 = math.log(4.0)
LN8 = math.log(8.0)


def residual_ladder(make_field, residual, grids):
    fields = [residual(make_field(g), P11) for g in grids]
    vals = [norms(r).max_abs for r in fields]
    orders = [math.log2(a / b) for a, b in zip(vals, vals[1:])]
    rich = norms(extrapolate_residual(fields[-2], fields[-1])).max_abs
    return vals, orders, rich


def test_criterion_1():
    """Two-function formula, a = K = 1, over 65/129/257 grids of
    [0.5, 1.5]^2: for the generic pair f = exp(x), g = exp(y) the
    residual order lies in [1.8, 2.2] and the extrapolated residual is
    below 1e-8; the linear pair f = x, g = y superconverges, so its
    residual is bounded by 1e-4 h^2 at every level and its extrapolated
    residual is below 1e-8.  Under 5 s."""
    t0 = time.perf_counter()
    grids = [Grid2D.from_bounds(0.5, 0.5, 1.5, 1.5, n, n) for n in (65, 129, 257)]

    def ladder(f, g):
        cp = CharacteristicPair(parse(f, ("x",)), parse(g, ("y",)))
        return residual_ladder(
            lambda grid: hyperbolic_exact(cp, P11, grid), residual_hyperbolic, grids)

    # generic pair: orders 2.000 and 2.000, residual / h^2 about 0.0417
    _, orders, rich = ladder("exp(x)", "exp(y)")
    for o in orders:
        assert 1.8 <= o <= 2.2
    assert rich <= 1e-8

    # The h^2 term of the residual is (hx^2 u_xxxy + hy^2 u_xyyy)/24 minus
    # K e^u (hx^2 u_xx + hy^2 u_yy)/8.  For affine f and g the solution is
    # u = c - 2 ln s with s = alpha x + beta y, and at hx = hy = h both
    # halves equal alpha beta (alpha^2 + beta^2) h^2 / (2 s^4), so the term
    # vanishes and the residual decays at fourth order down to rounding
    # (orders 3.93 and 2.45, residual / h^2 from 1.9e-5 to 3.6e-6).  The
    # generic pair above sits near 4e-2, and a stencil that loses the
    # cancellation, e.g. by averaging e^u instead of exponentiating the
    # averaged u, gives 1.9 on this pair; the 1e-4 h^2 bound catches both.
    vals, _, rich = ladder("x", "y")
    for v, g in zip(vals, grids):
        assert v <= 1e-4 * g.hx ** 2
    assert rich <= 1e-8
    assert time.perf_counter() - t0 < 5.0


def test_criterion_2():
    """Analytic-seed formula, F = z with the minus sign and K = 1: same
    residual ladder as criterion 1, plus an independent dual-number
    check that u = ln(8/(1-r^2)^2) satisfies u'' + u'/r = e^u to 1e-12
    at 100 random radii.  Under 5 s."""
    t0 = time.perf_counter()
    # oracle first: radial Laplacian from dual numbers, u'' as the complex
    # step of u', Im u'(r + ih) / h
    e = parse("ln(8/(1-r^2)^2)", ("r",))
    r = np.random.default_rng(11).uniform(0.05, 0.9, size=100)
    res = eval_dual(e, r, "r")
    d2 = eval_dual(e, r + 1e-30j, "r").d1.imag / 1e-30
    lap = d2 + res.d1 / r
    assert np.abs(lap - np.exp(res.value)).max() <= 1e-12 * np.exp(res.value).max()

    seed = AnalyticSeed(parse("z", ("z",)), "minus")
    grids = [Grid2D.from_bounds(-0.3, -0.3, 0.3, 0.3, n, n)
             for n in (65, 129, 257)]
    _, orders, rich = residual_ladder(
        lambda g: elliptic_exact(seed, 1.0, 1.0, g), residual_elliptic, grids)
    for o in orders:
        assert 1.8 <= o <= 2.2
    assert rich <= 1e-8
    assert time.perf_counter() - t0 < 5.0


def test_criterion_3(disk_branch_2049):
    """Fold of the disk branch of Lap u + lambda e^u = 0 at n = 2049:
    lambda0 and u(0) match a brute-force maximization of the closed-form
    family lambda(b) = 8b/(1+b)^2 within 1e-3, in under 30 s."""
    geometry, branch, elapsed = disk_branch_2049
    t0 = time.perf_counter()
    # oracle first: maximize lambda(b) without using calculus facts
    b = np.logspace(-3.0, 3.0, 200001)
    lam = 8.0 * b / (1.0 + b) ** 2
    k = int(np.argmax(lam))
    opt = minimize_scalar(lambda t: -8.0 * math.exp(t) / (1.0 + math.exp(t)) ** 2,
                          bounds=(math.log(b[k - 1]), math.log(b[k + 1])),
                          method="bounded", options={"xatol": 1e-12})
    b_star = math.exp(opt.x)
    lam_star = -opt.fun
    u0_star = gelfand_radial(b_star).u0

    assert branch.fold is not None
    assert abs(branch.fold.lam0 - lam_star) <= 1e-3
    assert abs(branch.fold.u0 - u0_star) <= 1e-3
    assert elapsed + (time.perf_counter() - t0) < 30.0


def test_criterion_4(disk_branch_2049):
    """Lower branch at lambda = 1 reproduces u(0) = ln(8(3 - 2 sqrt 2))
    within 1e-3, in under 10 s."""
    geometry, branch, _ = disk_branch_2049
    t0 = time.perf_counter()
    # the lower branch holds the minimal solution, which Newton reaches
    # from u = 0: the Dirichlet problem Delta u = K e^u with K = -lambda
    profile, report = solve_dirichlet(
        DirichletProblem(geometry, LiouvilleParams(-1.0, 1.0)))
    assert report.converged
    assert profile.u0 < branch.fold.u0
    assert abs(profile.u0 - math.log(8.0 * (3.0 - 2.0 * math.sqrt(2.0)))) <= 1e-3
    assert time.perf_counter() - t0 < 10.0


def test_criterion_5():
    """Large boundary data toward the boundary blow-up profile, one
    solve per M: center values for M = 5, 8, 11 increase toward ln 8
    with strictly shrinking gaps, final gap at most 0.02 (frozen from a
    pre-run of the radial solver at this resolution).  Under 30 s."""
    t0 = time.perf_counter()
    profiles = boundary_blowup_approx(DiskGeometry(4097), [5.0, 8.0, 11.0])
    centers = [p.u0 for p in profiles]
    gaps = [LN8 - c for c in centers]
    assert all(b > a for a, b in zip(centers, centers[1:]))
    assert all(g > 0.0 for g in gaps)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 0.02
    assert time.perf_counter() - t0 < 30.0


def test_criterion_6():
    """Characteristic marching against the exact two-function solution:
    error order in [1.8, 2.2] over three refinements for a curved pair,
    the linear pair bounded by 1e-4 h^2 (its error superconverges), and
    the blow-up mask tracking y = -x within two cells on a domain that
    crosses the singular line.  Under 10 s."""
    t0 = time.perf_counter()
    trace = "ln(2*exp({v})*exp(1)/(exp({v})+exp(1))^2)"
    data = GoursatData(parse(trace.format(v="x"), ("x",)),
                       parse(trace.format(v="y"), ("y",)))
    cp = CharacteristicPair(parse("exp(x)", ("x",)), parse("exp(y)", ("y",)))
    errs = []
    for n in (33, 65, 129):
        g = Grid2D.from_bounds(1.0, 1.0, 2.0, 2.0, n, n)
        result = march(data, P11, g)
        assert result.n_masked == 0
        errs.append(float(np.abs(result.field.values
                                 - hyperbolic_exact(cp, P11, g).values).max()))
    for lo, hi in zip(errs, errs[1:]):
        assert 1.8 <= math.log2(lo / hi) <= 2.2

    lin = GoursatData(parse("ln(2/(x+0.5)^2)", ("x",)),
                      parse("ln(2/(0.5+y)^2)", ("y",)))
    cp_lin = CharacteristicPair(parse("x", ("x",)), parse("y", ("y",)))
    for n in (33, 65):
        g = Grid2D.from_bounds(0.5, 0.5, 1.5, 1.5, n, n)
        err = np.abs(march(lin, P11, g).field.values
                     - hyperbolic_exact(cp_lin, P11, g).values).max()
        assert err <= 1e-4 * g.hx ** 2

    crossing = GoursatData(parse("ln(2/(x-2)^2)", ("x",)),
                           parse("ln(2/(-2+y)^2)", ("y",)))
    g = Grid2D.from_bounds(-2.0, -2.0, 1.0, 1.0, 97, 97)
    result = march(crossing, P11, g)
    X, Y = g.meshgrid()
    s = X + Y
    band = 2.0 * (g.hx + g.hy)
    assert result.n_masked > 0
    assert np.all(s[np.isnan(result.field.values)] > -band)
    assert np.all(np.isnan(result.field.values)[s > band])
    assert time.perf_counter() - t0 < 10.0


def test_criterion_7():
    """Wave-to-Liouville transformation: the w = 0 image matches
    u = -2 ln(1 - x - y/2) to 1e-8 at h = 1/256, the two integration
    orders agree to 1e-8, and the image satisfies the equation to
    second order in h.  Under 10 s."""
    t0 = time.perf_counter()
    w0 = WaveSolution(parse("0", ("x",)), parse("0", ("y",)))
    g = Grid2D.from_bounds(0.0, 0.0, 0.25, 0.5, 65, 129)  # h = 1/256
    u_xy = backlund(w0, 2.0, 0.0, g, "xy")
    X, Y = g.meshgrid()
    exact = -2.0 * np.log(1.0 - X - Y / 2.0)
    assert np.abs(u_xy.values - exact).max() <= 1e-8
    assert np.abs(u_xy.values
                  - backlund(w0, 2.0, 0.0, g, "yx").values).max() <= 1e-8

    # second-order residual: bound on the w = 0 ladder (which actually
    # superconverges) and a genuine order window on a sloped wave
    for n in (17, 33, 65):
        gb = Grid2D.from_bounds(0.0, 0.0, 0.25, 0.5, n, 2 * n - 1)
        r = norms(residual_hyperbolic(backlund(w0, 2.0, 0.0, gb), P11)).max_abs
        assert r <= 1e-3 * gb.hx ** 2
    w = WaveSolution(parse("x/2", ("x",)), parse("-y/3", ("y",)))
    # (129, 257): at (33, 65) the exact image's residual has order 1.47
    # (1.087e-4, 3.928e-5), not yet asymptotic; here it is 1.94
    # (1.101e-5, 2.865e-6), and an RK4 integration of the pair gives 1.99
    vals = []
    for n in (129, 257):
        gb = Grid2D.from_bounds(0.0, 0.0, 0.5, 0.5, n, n)
        vals.append(norms(residual_hyperbolic(backlund(w, 1.0, 0.0, gb),
                                              P11)).max_abs)
    assert 1.8 <= math.log2(vals[0] / vals[1]) <= 2.2
    assert time.perf_counter() - t0 < 10.0


def test_criterion_8():
    """Action gradient: matches central differences to 1e-6 relative on
    five random fields, and the Newton solution of the Euler-Lagrange
    equation leaves a gradient below 0.5 h^2 at every refinement.
    Under 10 s."""
    t0 = time.perf_counter()
    grid = Grid2D.from_bounds(0.0, 0.0, 1.0, 1.0, 9, 9)
    p = ActionParams(1.3, 0.8)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(5):
        v = rng.normal(0.0, 1.0, (9, 9))
        grad = action_gradient(ScalarField2D(grid, v), p).values
        for _ in range(20):
            j, i = rng.integers(1, 8, 2)
            eps = 1e-6 * (1.0 + abs(v[j, i]))
            vp = v.copy()
            vp[j, i] += eps
            vm = v.copy()
            vm[j, i] -= eps
            fd = (action_value(ScalarField2D(grid, vp), p)
                  - action_value(ScalarField2D(grid, vm), p)) / (2.0 * eps)
            scale = max(abs(fd), abs(grad[j, i]), 1e-30)
            worst = max(worst, abs(fd - grad[j, i]) / scale)
    assert worst <= 1e-6

    for n in (33, 65, 129):
        g = Grid2D.from_bounds(-0.4, -0.4, 0.4, 0.4, n, n)
        u, report = solve_dirichlet(
            DirichletProblem(RectangleGeometry(g), LiouvilleParams(1.0, 1.0)))
        assert report.converged
        grad = action_gradient(u, ActionParams(1.0, 1.0)).values
        assert float(np.abs(grad).max()) <= 0.5 * g.hx ** 2
    assert time.perf_counter() - t0 < 10.0


def test_criterion_9():
    """Property bundle in under 60 s: derivative duals converge like
    central differences, norms are homogeneous, branch members pair as
    b and 1/b, the u/T substitution round-trips, and the CLI is
    deterministic against its golden help text."""
    t0 = time.perf_counter()

    # dual derivatives vs central differences at shrinking h
    for src in ("exp(x)*sin(x)", "ln(1+x^2)", "x^3 - 2*x"):
        e = parse(src, ("x",))
        x = 0.7
        d1 = eval_dual(e, x, "x").d1
        errs = []
        for h in (1e-3, 5e-4):
            fd = (eval_dual(e, x + h, "x").value
                  - eval_dual(e, x - h, "x").value) / (2.0 * h)
            errs.append(abs(fd - d1))
        assert errs[1] <= 0.3 * errs[0] + 1e-12  # order >= 1.7 or floor

    # norm homogeneity and permutation invariance
    rng = np.random.default_rng(2)
    g = Grid2D.from_bounds(0.0, 0.0, 1.0, 1.0, 7, 7)
    v = rng.normal(size=(7, 7))
    base = norms(ScalarField2D(g, v))
    scaled = norms(ScalarField2D(g, -2.5 * v))
    assert scaled.max_abs == 2.5 * base.max_abs
    assert abs(scaled.l2 - 2.5 * base.l2) <= 1e-14 * base.l2
    shuffled = v.reshape(-1)[rng.permutation(49)].reshape(7, 7)
    assert norms(ScalarField2D(g, shuffled)).max_abs == base.max_abs

    # b <-> 1/b pairing of the radial family
    for b in rng.uniform(0.05, 0.95, size=25):
        lo, hi = gelfand_radial(b), gelfand_radial(1.0 / b)
        assert abs(lo.lam - hi.lam) <= 1e-12 * hi.lam
        assert lo.u0 < hi.u0

    # log-form round trip on an exact field; the error floor is absolute
    # (a few ulps of T = e^u, which is a few ulps of 1 where u is small)
    cp = CharacteristicPair(parse("x", ("x",)), parse("y", ("y",)))
    u = hyperbolic_exact(cp, P11, Grid2D.from_bounds(0.5, 0.5, 1.5, 1.5, 33, 33))
    back = convert_log_form(convert_log_form(u, "u_to_T"), "T_to_u")
    assert np.all(np.abs(back.values - u.values)
                  <= 4.0 * np.spacing(1.0 + np.abs(u.values)))

    # CLI determinism against the golden help text
    import contextlib
    import io
    from pathlib import Path

    from liouville.cli import run

    outs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert run(["gelfand", "--help"]) == 0
        outs.append(buf.getvalue())
    golden = (Path(__file__).parent / "data" / "help_gelfand.txt").read_text()
    assert outs[0] == outs[1] == golden

    assert time.perf_counter() - t0 < 60.0
