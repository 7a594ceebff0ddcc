"""Characteristic marching and the Baecklund integrator, checked against
the two-function closed form and each other."""

import decimal
import math
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from liouville import hyperbolic
from liouville.closedform import CharacteristicPair, hyperbolic_exact
from liouville.errors import (
    CellIterationDivergenceError,
    CornerMismatchError,
    HyperbolicError,
    OdeOverflowError,
)
from liouville.expr import parse
from liouville.fields import Grid2D, LiouvilleParams, norms, residual_hyperbolic
from liouville.hyperbolic import (
    GoursatData,
    WaveSolution,
    backlund,
    march,
)

P11 = LiouvilleParams(1.0, 1.0)
ZERO_DATA = GoursatData(parse("0", ("x",)), parse("0", ("y",)))
ZERO_WAVE = WaveSolution(parse("0", ("x",)), parse("0", ("y",)))


def exact_trace(trace_src, var):
    return parse(trace_src, (var,))


class TestMarchAgainstExact:
    # traces of u = ln(2/(x+y)^2) on the edges through (0.5, 0.5)
    LIN = GoursatData(exact_trace("ln(2/(x+0.5)^2)", "x"),
                      exact_trace("ln(2/(0.5+y)^2)", "y"))
    # traces of u = ln(2 e^x e^y / (e^x + e^y)^2) through (1, 1)
    EXP = GoursatData(exact_trace("ln(2*exp(x)*exp(1)/(exp(x)+exp(1))^2)", "x"),
                      exact_trace("ln(2*exp(y)*exp(1)/(exp(y)+exp(1))^2)", "y"))

    def test_linear_pair_bound(self):
        # the marching stencil shares the exact solution's cancellation
        # for linear f, g, so h^2 holds with a tiny constant
        cp = CharacteristicPair(parse("x", ("x",)), parse("y", ("y",)))
        for n in (33, 65):
            g = Grid2D.from_bounds(0.5, 0.5, 1.5, 1.5, n, n)
            res = march(self.LIN, P11, g)
            assert res.n_masked == 0
            err = np.abs(res.field.values - hyperbolic_exact(cp, P11, g).values)
            assert err.max() <= 1e-4 * g.hx ** 2

    def test_curved_pair_second_order(self):
        cp = CharacteristicPair(parse("exp(x)", ("x",)), parse("exp(y)", ("y",)))
        errs = []
        for n in (33, 65, 129):
            g = Grid2D.from_bounds(1.0, 1.0, 2.0, 2.0, n, n)
            res = march(self.EXP, P11, g)
            assert res.n_masked == 0
            errs.append(float(np.abs(res.field.values
                                     - hyperbolic_exact(cp, P11, g).values).max()))
        assert errs[-1] <= 1e-5
        for lo, hi in zip(errs, errs[1:]):
            assert 1.8 <= math.log2(lo / hi) <= 2.2


def goursat_exact(data, p, grid):
    """Liouville's solution of u_xy = K e^(a u) with u = phi(x) on y = y0
    and psi(y) on x = x0, for any such data: with phi~ = a phi, psi~ =
    a psi and c = phi~(x0) = psi~(y0),

        u = (phi~ + psi~ - c - 2 ln D)/a,  D = 1 - (a K/2) A(x) B(y),

    A the integral of e^(phi~ - c) from x0 and B that of e^psi~ from y0,
    taken by cumulative Simpson sums over nodes and midpoints as in
    ``backlund``, so the judge is fourth-order accurate."""
    (phi, _), (psi, _) = data.sample(hyperbolic._doubled(grid.x()),
                                     hyperbolic._doubled(grid.y()))
    phi, psi = p.a * phi, p.a * psi
    c = phi[0]
    A = hyperbolic._cumulative_simpson(np.exp(phi - c), grid.hx)
    B = hyperbolic._cumulative_simpson(np.exp(psi), grid.hy)
    D = 1.0 - 0.5 * p.a * p.K * A[None, :] * B[:, None]
    return (phi[0::2][None, :] + psi[0::2][:, None] - c - 2.0 * np.log(D)) / p.a


def signed(lo, hi):
    """Floats of either sign whose magnitude lies in [lo, hi]."""
    return st.builds(lambda sign, v: sign * v, st.sampled_from((1.0, -1.0)),
                     st.floats(lo, hi))


class TestMarchOnGoursatData:
    """``march`` judged by the closed form on drawn Goursat data, not only
    on the traces of monotone (f, g) pairs."""

    # shapes F(t) with F(0) = 0 and |F| <= 1 on [0, 1]
    SHAPES = ("sin({k}*t)", "t^2-t", "t", "cosh(t)-1", "sinh(t)/2",
              "(exp(t)-1)/2", "(1-cos({k}*t))/2")
    # phi = d + p F(x), psi = d + q G(y) on [0, 1]^2 with |p|, |q|, |d|
    # <= 0.15 and 1/4 <= |a|, |K| <= 1: |a K|/2 A B <= e^0.45/2 < 0.79,
    # so D > 0.2 and |u| < 13 (no blow-up, no mask).  |p|, |q| >= 0.05:
    # constant data (p = q = 0) superconverge, and the error at 65 nodes
    # (2.9e-9 for d = 0, a = K = 1) is then the judge's own
    AMPLITUDE = signed(0.05, 0.15)
    COEFFICIENT = signed(0.25, 1.0)

    def goursat_data(self, d, shape, k, amp, var):
        return f"({d!r})+({amp!r})*({shape.format(k=k).replace('t', var)})"

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(shapes=st.tuples(st.sampled_from(SHAPES), st.sampled_from(SHAPES)),
           k=st.floats(0.5, 3.0), d=st.floats(-0.15, 0.15), p=AMPLITUDE,
           q=AMPLITUDE, a=COEFFICIENT, K=COEFFICIENT)
    def test_second_order_against_the_closed_form(self, shapes, k, d, p, q,
                                                   a, K):
        data = GoursatData(
            parse(self.goursat_data(d, shapes[0], k, p, "x"), ("x",)),
            parse(self.goursat_data(d, shapes[1], k, q, "y"), ("y",)))
        params = LiouvilleParams(K, a)
        errs = []
        for n in (65, 129):
            g = Grid2D.from_bounds(0.0, 0.0, 1.0, 1.0, n, n)
            u = march(data, params, g).field.values
            kept = ~np.isnan(u)
            err = np.abs(u - goursat_exact(data, params, g))[kept]
            errs.append(float(err.max()))
        assert 1.8 <= math.log2(errs[0] / errs[1]) <= 2.2

    @pytest.mark.parametrize("phi, psi, K, a, want", [
        ("sin(3*x)", "y^2-y", 1.0, 1.0, (4.00e-4, 1.00e-4)),
        ("0.3*cos(x)", "0.3*cosh(y)", -2.0, 0.5, (3.18e-7, 7.96e-8)),
    ])
    def test_pinned_data(self, phi, psi, K, a, want):
        data = GoursatData(parse(phi, ("x",)), parse(psi, ("y",)))
        params = LiouvilleParams(K, a)
        for n, err in zip((129, 257), want):
            g = Grid2D.from_bounds(0.0, 0.0, 1.0, 1.0, n, n)
            res = march(data, params, g)
            assert res.n_masked == 0
            got = np.abs(res.field.values - goursat_exact(data, params, g)).max()
            assert got == pytest.approx(err, rel=0.01)


class TestMarchZeroData:
    def test_interior_growth(self):
        g = Grid2D.from_bounds(0.0, 0.0, 1.0, 1.0, 33, 33)
        res = march(ZERO_DATA, P11, g)
        U = res.field.values
        assert res.n_masked == 0
        assert np.all(U[1:, 1:] > 0.0)
        assert np.all(np.diff(np.diag(U)) > 0.0)

    def test_corner_value(self):
        # zero edge data on the unit square has the closed continuation
        # u = -2 ln(1 - x y / 2), so u(1, 1) = ln 4
        g = Grid2D.from_bounds(0.0, 0.0, 1.0, 1.0, 65, 65)
        res = march(ZERO_DATA, P11, g)
        assert abs(res.field.values[-1, -1] - math.log(4.0)) <= 1e-6


class TestBlowupMask:
    def test_mask_hugs_singular_line(self):
        # exact solution data singular on x + y = 0; the edges through
        # (-2, -2) stay clear of it
        data = GoursatData(exact_trace("ln(2/(x-2)^2)", "x"),
                           exact_trace("ln(2/(-2+y)^2)", "y"))
        g = Grid2D.from_bounds(-2.0, -2.0, 1.0, 1.0, 97, 97)
        res = march(data, P11, g)
        X, Y = g.meshgrid()
        s = X + Y
        band = 2.0 * (g.hx + g.hy)
        assert res.n_masked > 0
        assert np.all(s[np.isnan(res.field.values)] > -band)
        assert np.all(np.isnan(res.field.values)[s > band])

    def test_no_singularity_no_mask(self):
        data = GoursatData(exact_trace("ln(2/(x+0.5)^2)", "x"),
                           exact_trace("ln(2/(0.5+y)^2)", "y"))
        g = Grid2D.from_bounds(0.5, 0.5, 1.5, 1.5, 49, 49)
        assert march(data, P11, g).n_masked == 0

    def test_threshold_monotone(self):
        g = Grid2D.from_bounds(0.0, 0.0, 3.0, 3.0, 97, 97)
        loose = march(ZERO_DATA, P11, g, blowup_threshold=25.0)
        tight = march(ZERO_DATA, P11, g, blowup_threshold=1.0)
        assert 0 < loose.n_masked < tight.n_masked
        # a lower cap masks a superset of nodes
        assert not np.any(np.isnan(loose.field.values)
                          & ~np.isnan(tight.field.values))


class TestMarchDeterminism:
    def test_prefix_grid_bitwise(self):
        # same h, half the extent: the diagonal sweep must reproduce the
        # shared prefix exactly, node for node
        EXP = TestMarchAgainstExact.EXP
        full = march(EXP, P11, Grid2D.from_bounds(1.0, 1.0, 2.0, 2.0, 65, 65))
        half = march(EXP, P11, Grid2D.from_bounds(1.0, 1.0, 1.5, 1.5, 33, 33))
        assert np.array_equal(full.field.values[:33, :33], half.field.values)


def cell_equation_error(res, p):
    """Per-cell error of the implicit update U = c + gamma e^(beta (U+s)),
    relative to max(1, |U|), over the interior nodes (NaN where masked)."""
    g = res.field.grid
    U = res.field.values
    west, south, diag = U[1:, :-1], U[:-1, 1:], U[:-1, :-1]
    c = west + south - diag
    s = west + south + diag
    z = U[1:, 1:]
    gamma, beta = g.hx * g.hy * p.K, p.a / 4.0
    return np.abs(z - c - gamma * np.exp(beta * (z + s))) / np.maximum(1.0, np.abs(z))


class TestClosedFormCellUpdate:
    @pytest.mark.parametrize("phi, psi, K, a", [
        ("0", "0", 1.0, 1.0),
        ("sin(3*x)", "sin(5*y)", 3.0, 2.0),
    ])
    def test_cell_equation_holds_to_rounding(self, phi, psi, K, a):
        p = LiouvilleParams(K, a)
        data = GoursatData(parse(phi, ("x",)), parse(psi, ("y",)))
        res = march(data, p, Grid2D.from_bounds(0.0, 0.0, 1.0, 1.0, 65, 65))
        err = cell_equation_error(res, p)
        kept = err[~np.isnan(err)]  # the sine data blows up in a corner
        assert kept.size > 500
        assert kept.max() <= 1e-15

    def test_huge_data_with_negative_K_stays_finite(self):
        # e^(beta (c+s)) overflows here, but the update is monotone and
        # every cell has a root
        data = GoursatData(parse("800+x", ("x",)), parse("800+y", ("y",)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = march(data, LiouvilleParams(-1.0, 1.0),
                        Grid2D.from_bounds(0.0, 0.0, 1.0, 1.0, 33, 33))
        assert res.n_masked == 0
        assert np.all(np.isfinite(res.field.values))

    def test_divergence_names_the_failing_cell(self, monkeypatch):
        # one Lambert W call per anti-diagonal d = 2, 3, ...; spoil the
        # fourth cell of d = 11, which on a 17x17 grid is (i, j) = (4, 7)
        real, calls = hyperbolic._lambert_w, []

        def spoiled(x):
            w = real(x)
            calls.append(x)
            if len(calls) == 10:
                w[3] = np.nan
            return w

        monkeypatch.setattr(hyperbolic, "_lambert_w", spoiled)
        with pytest.raises(CellIterationDivergenceError) as info:
            march(ZERO_DATA, P11, Grid2D.from_bounds(0, 0, 1, 1, 17, 17))
        assert (info.value.i, info.value.j) == (4, 7)


class TestLambertW:
    """The package's own real Lambert W and Wright omega, against scipy's
    (which the package itself does not load)."""

    V = np.concatenate([np.linspace(-700.0, 700.0, 140001),
                        np.random.default_rng(0).uniform(-5.0, 5.0, 20000)])
    EM1 = math.exp(-1.0)  # the double just above 1/e
    # (-1/e, 0): geometric towards 0, uniform, and the first doubles
    # above the branch point
    X = np.concatenate([-np.geomspace(1e-300, EM1, 40000)[:-1],
                        np.linspace(-EM1, 0.0, 40001)[1:-1],
                        -EM1 + np.arange(1, 1001) * np.spacing(EM1)])

    def test_omega_within_64_ulps_of_scipy(self):
        ref = scipy.special.wrightomega(self.V)
        ulps = np.abs(hyperbolic._wright_omega(self.V) - ref) / np.spacing(ref)
        assert ulps.max() <= 64

    def test_w_matches_scipy_away_from_the_branch_point(self):
        x = self.X[1.0 + math.e * self.X >= 1e-6]
        ref = scipy.special.lambertw(x).real
        rel = np.abs(hyperbolic._lambert_w(x) - ref) / np.abs(ref)
        assert rel.max() <= 1e-12

    def test_residuals_at_rounding(self):
        w = hyperbolic._lambert_w(self.X)
        assert np.max(np.abs(w * np.exp(w) - self.X) / np.abs(self.X)) <= 1e-15
        om = hyperbolic._wright_omega(self.V)
        assert np.max(np.abs(om + np.log(om) - self.V)
                      / np.maximum(1.0, np.abs(self.V))) <= 1e-15

    def test_edge_cases(self):
        omega, lambert_w = hyperbolic._wright_omega, hyperbolic._lambert_w
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert omega(np.array([-800.0]))[0] == 0.0  # e^v underflows
            assert omega(np.array([1e300]))[0] == 1e300
            assert lambert_w(np.array([0.0]))[0] == 0.0
            # the first doubles above the branch point, against the series
            # W(-1/e + d) = -1 + p - p^2/3 + 11 p^3/72 + O(p^4), p = sqrt(2 e d),
            # with d exact: W' = e/p there, so an ulp of x moves W by
            # about 1.5e-16/p
            x = -self.EM1 + np.arange(1, 1001) * np.spacing(self.EM1)
            w = lambert_w(x)
            with decimal.localcontext() as ctx:
                ctx.prec = 40
                inv_e = decimal.Decimal(-1).exp()
                d = np.array([float(decimal.Decimal(v) + inv_e) for v in x])
            p = np.sqrt(2.0 * math.e * d)
            series = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * 11.0 / 72.0))
            assert np.all(w > -1.0)
            assert np.all(np.abs(w - series) <= 3e-16 / p)
            assert np.isnan(omega(np.array([np.nan]))[0])
            assert np.isnan(lambert_w(np.array([np.nan]))[0])


class TestMarchValidation:
    def test_corner_mismatch(self):
        # the corner values are printed as plain floats, not numpy reprs
        with pytest.raises(CornerMismatchError) as info:
            march(GoursatData(parse("0", ("x",)), parse("1", ("y",))), P11,
                  Grid2D.from_bounds(0, 0, 1, 1, 9, 9))
        assert str(info.value).startswith("phi(x0) = 0.0 but psi(y0) = 1.0 ")
        assert "np.float64(" not in str(info.value)

    def test_edge_data_must_be_finite(self):
        # e^(1000 x) overflows on the bottom edge from x = 0.75
        g = Grid2D.from_bounds(0, 0, 1, 1, 9, 9)
        data = GoursatData(parse("exp(1000*x)-1", ("x",)), parse("0", ("y",)))
        with pytest.raises(HyperbolicError, match="edge data must be finite"):
            march(data, P11, g)

    def test_data_must_be_univariate(self):
        with pytest.raises(HyperbolicError):
            GoursatData(parse("x*y", ("x", "y")), parse("0", ("y",)))


class TestBacklund:
    SLOPED = WaveSolution(parse("x/2", ("x",)), parse("-y/3", ("y",)))

    # w = 0, bt_a = 2, u(0,0) = 0 integrates to u = -2 ln(1 - x - y/2)
    def exact(self, g):
        X, Y = g.meshgrid()
        return -2.0 * np.log(1.0 - X - Y / 2.0)

    # the image of SLOPED under bt_a = 1 from u(0,0) = 0
    def sloped_exact(self, g):
        X, Y = g.meshgrid()
        return X / 2 + Y / 3 - 2.0 * np.log(
            5.0 - np.exp(X / 2) - 3.0 * np.exp(Y / 3))

    def test_matches_closed_form(self):
        g = Grid2D.from_bounds(0.0, 0.0, 0.25, 0.5, 65, 129)
        u = backlund(ZERO_WAVE, 2.0, 0.0, g)
        assert np.abs(u.values - self.exact(g)).max() <= 1e-8
        assert u.values[-1, -1] == pytest.approx(2.0 * math.log(2.0), abs=1e-8)

    def test_fourth_order_in_h(self):
        # Simpson's rule integrates the w = 0 image's constant integrands
        # exactly, so its error is rounding; the order window sits on the
        # sloped wave (orders 3.997, 3.973)
        errs = []
        for n in (9, 17, 33):
            g = Grid2D.from_bounds(0.0, 0.0, 0.25, 0.5, n, 2 * n - 1)
            u = backlund(ZERO_WAVE, 2.0, 0.0, g)
            assert np.abs(u.values - self.exact(g)).max() <= 1e-14
            u = backlund(self.SLOPED, 1.0, 0.0, g)
            errs.append(float(np.abs(u.values - self.sloped_exact(g)).max()))
        for lo, hi in zip(errs, errs[1:]):
            assert 3.5 <= math.log2(lo / hi) <= 4.5

    def test_sloped_wave_matches_closed_form(self):
        g = Grid2D.from_bounds(0.0, 0.0, 0.5, 0.5, 33, 33)
        u_xy = backlund(self.SLOPED, 1.0, 0.0, g, "xy")
        assert np.abs(u_xy.values - self.sloped_exact(g)).max() <= 1e-10
        u_yx = backlund(self.SLOPED, 1.0, 0.0, g, "yx")
        assert np.array_equal(u_xy.values, u_yx.values)

    def test_path_independence(self):
        g = Grid2D.from_bounds(0.0, 0.0, 0.25, 0.5, 65, 129)
        u_xy = backlund(ZERO_WAVE, 2.0, 0.0, g, "xy")
        u_yx = backlund(ZERO_WAVE, 2.0, 0.0, g, "yx")
        assert np.abs(u_xy.values - u_yx.values).max() <= 1e-8

    def test_residual_second_order_generic_wave(self):
        # at (33, 65) the exact image's own residual has order 1.47
        # (1.087e-4, 3.928e-5), short of its asymptotic range; at
        # (129, 257) it is 1.94 (1.101e-5, 2.865e-6), and an RK4
        # integration of the pair gives 1.99 there
        vals = []
        for n in (129, 257):
            g = Grid2D.from_bounds(0.0, 0.0, 0.5, 0.5, n, n)
            u = backlund(self.SLOPED, 1.0, 0.0, g)
            r = norms(residual_hyperbolic(u, P11)).max_abs
            assert r <= 2.0 * g.hx ** 2
            vals.append(r)
        assert 1.8 <= math.log2(vals[0] / vals[1]) <= 2.2

    def test_march_reproduces_backlund_field(self):
        g = Grid2D.from_bounds(0.0, 0.0, 0.25, 0.5, 65, 129)
        u = backlund(ZERO_WAVE, 2.0, 0.0, g)
        # the edges of the image -2 ln(1 - x - y/2)
        res = march(GoursatData(parse("-2*ln(1-x)", ("x",)),
                                parse("-2*ln(1-y/2)", ("y",))), P11, g)
        assert res.n_masked == 0
        assert np.abs(res.field.values - u.values).max() <= 1e-8

    def test_overflow_on_blowup_line(self):
        # the image blows up on 1 - x - y/2 = 0, inside this domain; the
        # first node past it in row-major order is x = 1 on y = 0
        with pytest.raises(OdeOverflowError) as info:
            backlund(ZERO_WAVE, 2.0, 0.0,
                     Grid2D.from_bounds(0.0, 0.0, 1.5, 1.0, 49, 33))
        assert (info.value.i, info.value.j) == (32, 0)

    def test_corner_value_past_the_former_cap(self):
        # u(x0, y0) = 550 on a domain 1e-130 wide: the image
        # 550 - 2 ln(1 - e^275 (x + y/2)) is finite and was refused as
        # exceeding 500
        g = Grid2D.from_bounds(0.0, 0.0, 1e-130, 1e-130, 9, 9)
        u = backlund(ZERO_WAVE, 2.0, 550.0, g)
        X, Y = g.meshgrid()
        assert u.values[0, 0] == 550.0
        assert np.abs(u.values - (550.0 - 2.0 * np.log1p(
            -np.exp(275.0) * (X + Y / 2.0)))).max() <= 1e-12

    def test_non_finite_image_names_its_first_node(self):
        # bt_a < 0 makes D grow: Phi = inf from x = 1/16 on keeps D > 0,
        # but u = -inf there
        with pytest.raises(OdeOverflowError) as info:
            backlund(WaveSolution(parse("1e308*x*10", ("x",)),
                                  parse("0", ("y",))), -2.0, 0.0,
                     Grid2D.from_bounds(0.0, 0.0, 0.5, 0.5, 9, 9))
        assert (info.value.i, info.value.j) == (1, 0)

    def test_extreme_corner_value_does_not_overflow(self):
        # u(x0, y0) = -2000 puts c = e^1000 past the float range; the
        # image is then u_corner + phi - psi to rounding
        g = Grid2D.from_bounds(0.0, 0.0, 0.5, 0.5, 9, 9)
        w = WaveSolution(parse("x", ("x",)), parse("y", ("y",)))
        u = backlund(w, 2.0, -2000.0, g)
        X, Y = g.meshgrid()
        assert np.abs(u.values - (-2000.0 + X - Y)).max() <= 1e-12

    def test_parameter_validation(self):
        g = Grid2D.from_bounds(0, 0, 1, 1, 9, 9)
        with pytest.raises(HyperbolicError):
            backlund(ZERO_WAVE, 0.0, 0.0, g)
        with pytest.raises(HyperbolicError):
            backlund(ZERO_WAVE, 1.0, 0.0, g, order="diagonal")
        with pytest.raises(HyperbolicError):
            backlund(ZERO_WAVE, 1.0, math.nan, g)
