"""Exact-solution constructors checked against substitution values,
residual refinement studies, and each other.

The two-function solution with linear f, g is special: the centered
cross difference of u and the cell-mean exponential have truncation
errors that cancel at leading order when f'' = g'' = 0, so its residual
decays at fourth order instead of second.  Tests on that pair therefore
assert the C*h^2 bound (which the faster decay satisfies) and leave the
order-window checks to curved pairs.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from liouville import closedform
from liouville.closedform import (
    AnalyticSeed,
    CharacteristicPair,
    blowup_curve,
    boundary_blowup_exact,
    convert_log_form,
    elliptic_exact,
    gelfand_radial,
    hyperbolic_exact,
)
from liouville.errors import (
    ClosedFormError,
    LiouvilleError,
    DomainViolationError,
    NonFiniteValueError,
    NonMonotoneGError,
    NonPositiveBError,
    NonPositiveFieldError,
    SeedDegenerateError,
    SignError,
    SingularNodeError,
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

P11 = LiouvilleParams(1.0, 1.0)
EPS = np.finfo(float).eps
LN8 = math.log(8.0)


def pair(fsrc, gsrc):
    return CharacteristicPair(parse(fsrc, ("x",)), parse(gsrc, ("y",)))


def seed(Fsrc, sign="minus"):
    return AnalyticSeed(parse(Fsrc, ("z",)), sign)


def square(x0, x1, n):
    return Grid2D.from_bounds(x0, x0, x1, x1, n, n)


def residual_ladder(make_field, residual, p, grids):
    return [norms(residual(make_field(g), p)).max_abs for g in grids]


class TestHyperbolicExact:
    def test_linear_pair_value(self):
        g = square(0.5, 1.5, 5)
        u = hyperbolic_exact(pair("x", "y"), P11, g)
        # node (1, 1) sits at index (2, 2); u = ln(2/(x+y)^2)
        assert u.values[2, 2] == pytest.approx(-math.log(2.0), abs=1e-14)

    def test_exponential_pair_value(self):
        g = Grid2D.from_bounds(0.0, 0.0, 1.0, 1.0, 5, 5)
        u = hyperbolic_exact(pair("exp(x)", "exp(y)"), P11, g)
        assert u.values[0, 0] == pytest.approx(-math.log(2.0), abs=1e-14)

    def test_general_constants_residual(self):
        p = LiouvilleParams(3.0, 2.0)
        g = square(0.5, 1.5, 257)
        u = hyperbolic_exact(pair("x", "y"), p, g)
        assert norms(residual_hyperbolic(u, p)).max_abs <= 1e-8

    def test_singular_node(self):
        with pytest.raises(SingularNodeError) as err:
            hyperbolic_exact(pair("x", "y"), P11,
                             Grid2D.from_bounds(-1, -1, 1, 1, 5, 5))
        assert (err.value.i, err.value.j) == (4, 0)
        assert "(1.0, -1.0)" in str(err.value)

    def test_singular_line_between_nodes(self):
        # x + y = 2.05 crosses the grid but meets no node: f + g changes
        # sign, and the first node of the corner's other sign is named
        g = square(0.5, 1.5, 65)
        X, Y = g.meshgrid()
        s = (Y - 2.05) + X
        assert not (s == 0).any()
        j, i = np.argwhere(s > 0)[0]
        with pytest.raises(SingularNodeError) as err:
            hyperbolic_exact(pair("x", "y-2.05"), P11, g)
        assert (err.value.i, err.value.j) == (i, j) == (64, 4)
        assert str(err.value) == (
            f"f(x) + g(y) changes sign, to {float(s[j, i])!r}, at node "
            "(i=64, j=4), (x, y) = (1.5, 0.5625)")

    def test_singular_line_one_ulp_past_the_corner(self):
        # x + y = 3.0000000000000004 misses the (1.5, 1.5) corner by one
        # ulp: f + g < 0 on the whole grid, and u is sampled
        u = hyperbolic_exact(pair("x", "y-3.0000000000000004"), P11,
                             square(0.5, 1.5, 65))
        assert np.isfinite(u.values).all()
        assert u.values.max() == u.values[64, 64] == pytest.approx(
            math.log(2.0) - 2.0 * math.log(4.440892098500626e-16), abs=1e-12)

    def test_singular_line_through_the_last_node(self):
        with pytest.raises(SingularNodeError) as err:
            hyperbolic_exact(pair("x", "y-3"), P11, square(0.5, 1.5, 65))
        assert (err.value.i, err.value.j) == (64, 64)
        assert str(err.value).startswith("f(x) + g(y) = 0 at node")

    def test_nan_axis_is_left_to_the_finite_check(self):
        # f = x + (e^(800x) - e^(800x)) is NaN along the whole x axis, so
        # the axes' extremes of f + g are NaN; no node is 0 or of a sign
        with pytest.raises(NonFiniteValueError, match="at 81 node"):
            hyperbolic_exact(pair("x+(exp(800*x)-exp(800*x))", "y"), P11,
                             square(1.0, 2.0, 9))

    def test_sign_error(self):
        with pytest.raises(SignError):
            hyperbolic_exact(pair("x", "-y"), P11,
                             Grid2D.from_bounds(2.0, 0.5, 3.0, 1.4, 5, 5))

    def test_nan_derivative_is_left_to_the_finite_check(self):
        # f' = 1 + (800 e^(800x) - 800 e^(800x)) is NaN where e^(800x)
        # overflows: a NaN sign is no sign error, and u is not finite there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValueError, match="at 45 node"):
                hyperbolic_exact(pair("x+(exp(800*x)-exp(800*x))", "y"), P11,
                                 square(0.5, 1.5, 9))

    def test_nan_derivative_beside_a_wrong_sign(self):
        # g' = -1 is the wrong sign; the grid minimum of a K f' g' reads
        # the NaN of f'
        with pytest.raises(SignError) as err:
            hyperbolic_exact(pair("x+(exp(800*x)-exp(800*x))", "-y-5"), P11,
                             square(0.5, 1.5, 9))
        assert str(err.value) == ("a*K*f'(x)*g'(y) must be positive on the "
                                  "whole grid (min nan)")

    def test_constant_member_is_a_sign_error(self):
        # g' = 0, broadcast from a scalar: a K f' g' is 0 at every node
        with pytest.raises(SignError) as err:
            hyperbolic_exact(pair("x", "2"), P11, square(0.5, 1.5, 9))
        assert str(err.value) == ("a*K*f'(x)*g'(y) must be positive on the "
                                  "whole grid (min 0.0)")

    def test_signs_are_tested_one_by_one(self):
        # a*K*f'*g' = 1e-340 underflows to 0, but every factor is positive
        # and u = ln(2/K) - 2 ln(x + y) is finite
        g = square(0.5, 1.5, 5)
        X, Y = g.meshgrid()
        u = hyperbolic_exact(pair("1e-20*x", "1e-20*y"),
                             LiouvilleParams(1e-300, 1.0), g)
        np.testing.assert_allclose(
            u.values, math.log(2e300) - 2 * np.log(X + Y), rtol=1e-15)

    def test_tiny_factors_are_not_a_sign_error(self):
        # a*K*f'*g' underflows to 0 although every factor is positive;
        # u takes the log of each factor, so nothing underflows
        g = square(0.5, 1.5, 5)
        X, Y = g.meshgrid()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = hyperbolic_exact(pair("1e-200*x", "1e-200*y"), P11, g)
        np.testing.assert_allclose(u.values, math.log(2.0) - 2 * np.log(X + Y),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("fsrc, gsrc, p, want", [
        ("x", "y", LiouvilleParams(1e-308, 1.0),
         lambda X, Y: math.log(2.0) - math.log(1e-308) - 2 * np.log(X + Y)),
        ("1e200*x", "1e200*y", P11,
         lambda X, Y: math.log(2.0) - 2 * np.log(X + Y)),
        ("-x", "y - 10", LiouvilleParams(-1e-308, 1.0),
         lambda X, Y: (math.log(2.0) - math.log(1e-308)
                       - 2 * np.log(X + 10 - Y))),
        ("1e-160*x", "1e-160*y", P11,
         lambda X, Y: math.log(2.0) - 2 * np.log(X + Y)),
        ("x+1e200", "y+1e200", P11,
         lambda X, Y: np.full(X.shape, math.log(2.0) - 2 * math.log(2e200))),
    ], ids=["K-tiny", "pair-huge", "negative-f-prime", "pair-subnormal",
            "pair-offset"])
    def test_log_form_where_a_factor_leaves_the_normal_range(self, fsrc, gsrc,
                                                             p, want):
        # u is finite, but 2 f' g' / (a K) or (f+g)^2 would overflow, or
        # a factor of it is subnormal: u takes the log of each factor
        g = square(0.5, 1.5, 5)
        X, Y = g.meshgrid()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = hyperbolic_exact(pair(fsrc, gsrc), p, g)
        np.testing.assert_allclose(u.values, want(X, Y), rtol=0, atol=1e-12)

    def test_non_finite_value_is_raised(self):
        # u = ln(2 f' g' / (a K (f+g)^2))/a itself overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValueError, match="at 25 node"):
                hyperbolic_exact(pair("x", "y"), LiouvilleParams(1.0, 1e-307),
                                 square(0.5, 1.5, 5))

    # increasing on [0.5, 1.5] for p > 0, and positive for q >= 0
    FAMILY = ("{p}*{t}+{q}", "exp({p}*{t})+{q}", "sinh({p}*{t})+{q}")
    DRAW = st.tuples(st.sampled_from(FAMILY), st.floats(0.1, 3.0),
                     st.floats(0.0, 2.0))

    @staticmethod
    def logs(cp, p, grid):
        """The magnitudes of the logs the closed form takes, of 2, f', g',
        a, K and f + g, summed at each node.  Each is rounded at its own
        magnitude, which the cancellation between them can leave far
        above |u|."""
        (fv, fp), (gv, gp) = cp.sample(grid.x(), grid.y())
        return (math.log(2.0) + abs(math.log(p.a)) + abs(math.log(p.K))
                + np.abs(np.log(fp))[None, :] + np.abs(np.log(gp))[:, None]
                + 2 * np.abs(np.log(fv[None, :] + gv[:, None])))

    @classmethod
    def tol(cls, cp, p, grid, u, c):
        """Four ulps of ``logs`` over a; scaling f and g or K by c moves
        them by up to 4 |ln c| in all."""
        return 4 * EPS * (1 + np.abs(u) + (cls.logs(cp, p, grid)
                                           + 4 * abs(math.log(c))) / p.a)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(DRAW, DRAW, st.floats(0.25, 4.0), st.floats(0.1, 10.0),
           st.floats(-300.0, 300.0))
    @example(("exp({p}*{t})+{q}", 3.0, 2.0), ("{p}*{t}+{q}", 0.1, 0.0),
             4.0, 10.0, 300.0)
    @example(("{p}*{t}+{q}", 0.1, 0.0), ("sinh({p}*{t})+{q}", 3.0, 2.0),
             0.25, 0.1, -300.0)
    def test_scaling_the_pair_leaves_u(self, fd, gd, a, K, e):
        # u(c f, c g) = u(f, g), also for scales that take f and g out
        # of the normal range
        fsrc = fd[0].format(p=fd[1], t="x", q=fd[2])
        gsrc = gd[0].format(p=gd[1], t="y", q=gd[2])
        c, p, g = 10.0 ** e, LiouvilleParams(K, a), square(0.5, 1.5, 5)
        cp = pair(fsrc, gsrc)
        u = hyperbolic_exact(cp, p, g).values
        uc = hyperbolic_exact(pair(f"{c!r}*({fsrc})", f"{c!r}*({gsrc})"),
                              p, g).values
        assert np.all(np.abs(uc - u) <= self.tol(cp, p, g, u, c))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(DRAW, DRAW, st.floats(0.25, 4.0), st.floats(0.1, 10.0),
           st.floats(-307.0, 307.0))
    @example(("exp({p}*{t})+{q}", 3.0, 2.0), ("{p}*{t}+{q}", 0.1, 0.0),
             4.0, 10.0, 307.0)
    @example(("{p}*{t}+{q}", 0.1, 0.0), ("sinh({p}*{t})+{q}", 3.0, 2.0),
             0.25, 0.1, -307.0)
    def test_scaling_K_shifts_u(self, fd, gd, a, K, e):
        # u(c K) = u(K) - ln(c)/a; a K c may overflow or be subnormal
        cp = pair(fd[0].format(p=fd[1], t="x", q=fd[2]),
                  gd[0].format(p=gd[1], t="y", q=gd[2]))
        c, p, g = 10.0 ** e, LiouvilleParams(K, a), square(0.5, 1.5, 5)
        u = hyperbolic_exact(cp, p, g).values
        uc = hyperbolic_exact(cp, LiouvilleParams(c * K, a), g).values
        assert np.all(np.abs(uc - (u - math.log(c) / a))
                      <= self.tol(cp, p, g, u, c))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.floats(0.1, 3.0), st.floats(0.1, 3.0), st.floats(0.25, 4.0),
           st.floats(0.1, 10.0))
    @example(3.0, 0.1, 0.25, 0.1)
    @example(0.1, 3.0, 4.0, 10.0)
    def test_exp_pair_is_accurate(self, p, q, a, K):
        # f = e^(p x), g = e^(q y): u = (ln(2 p q/(a K)) + p x + q y
        # - 2 ln(e^(p x) + e^(q y)))/a, to eight ulps of the logs the
        # closed form takes, over a
        cp, g = pair(f"exp({p!r}*x)", f"exp({q!r}*y)"), square(0.5, 1.5, 9)
        X, Y = g.meshgrid()
        params = LiouvilleParams(K, a)
        u = hyperbolic_exact(cp, params, g).values
        want = (math.log(2 * p * q / (a * K)) + p * X + q * Y
                - 2 * np.logaddexp(p * X, q * Y)) / a
        assert np.all(np.abs(u - want) <= 8 * EPS * self.logs(cp, params, g) / a)

    def test_linear_pair_bound(self):
        # superconvergent case: assert the h^2 bound it easily satisfies
        # (observed decay is close to fourth order, see module docstring)
        for n in (65, 129, 257):
            g = square(0.5, 1.5, n)
            r = norms(residual_hyperbolic(hyperbolic_exact(pair("x", "y"),
                                                           P11, g), P11))
            assert r.max_abs <= 1e-4 * g.hx ** 2

    def test_curved_pair_second_order(self):
        grids = [square(0.5, 1.5, n) for n in (65, 129, 257)]
        cp = pair("exp(x)", "exp(y)")
        vals = residual_ladder(lambda g: hyperbolic_exact(cp, P11, g),
                               residual_hyperbolic, P11, grids)
        for lo, hi in zip(vals, vals[1:]):
            assert 1.8 <= math.log2(lo / hi) <= 2.2
        rich = extrapolate_residual(
            residual_hyperbolic(hyperbolic_exact(cp, P11, grids[1]), P11),
            residual_hyperbolic(hyperbolic_exact(cp, P11, grids[2]), P11))
        assert norms(rich).max_abs <= 1e-8

    def test_parameter_scaling_by_residual(self):
        # same f, g under different (a, K) still solves its equation
        p = LiouvilleParams(0.5, 2.0)
        cp = pair("exp(x)", "exp(y)")
        r129 = residual_hyperbolic(hyperbolic_exact(cp, p, square(0.5, 1.5, 129)), p)
        r257 = residual_hyperbolic(hyperbolic_exact(cp, p, square(0.5, 1.5, 257)), p)
        assert 1.8 <= math.log2(norms(r129).max_abs / norms(r257).max_abs) <= 2.2
        assert norms(extrapolate_residual(r129, r257)).max_abs <= 1e-8


class TestEllipticExact:
    @pytest.mark.parametrize("Fsrc, names, sign, message", [
        ("z", ("z",), "both", "sign must be 'plus' or 'minus'"),
        ("x*y", ("x", "y"), "minus", "F must be univariate"),
    ], ids=["sign", "bivariate"])
    def test_seed_is_validated(self, Fsrc, names, sign, message):
        with pytest.raises(ClosedFormError) as err:
            AnalyticSeed(parse(Fsrc, names), sign)
        assert type(err.value) is ClosedFormError
        assert err.value.code == "closedform.error"
        assert message in str(err.value)

    def test_center_value(self):
        u = elliptic_exact(seed("z"), 1.0, 1.0, square(-0.2, 0.2, 5))
        assert u.values[2, 2] == pytest.approx(LN8, abs=1e-14)

    def test_plus_sign_on_unit_circle(self):
        g = Grid2D.from_bounds(0.6, -0.2, 1.0, 0.2, 5, 5)
        u = elliptic_exact(seed("z", "plus"), -1.0, 1.0, g)
        assert u.values[2, -1] == pytest.approx(math.log(2.0), abs=1e-14)

    def test_minus_sign_needs_positive_K(self):
        with pytest.raises(SignError):
            elliptic_exact(seed("z"), -1.0, 1.0, square(-0.2, 0.2, 5))
        with pytest.raises(SignError):
            elliptic_exact(seed("z", "plus"), 1.0, 1.0, square(-0.2, 0.2, 5))

    def test_requires_positive_a(self):
        with pytest.raises(SignError):
            elliptic_exact(seed("z"), 1.0, -1.0, square(-0.2, 0.2, 5))

    def test_domain_violation_outside_disk(self):
        with pytest.raises(DomainViolationError):
            elliptic_exact(seed("z"), 1.0, 1.0, square(-0.8, 0.8, 9))

    @pytest.mark.parametrize("Fsrc, sign, K, want", [
        ("1e-200*z", "minus", 1.0,
         lambda X: np.full(X.shape, LN8 + 2 * math.log(1e-200))),
        ("exp(2000*z)", "plus", -1.0,
         lambda X: (LN8 + 2 * math.log(2000.0) + 4000.0 * X
                    - 2 * np.logaddexp(0.0, 4000.0 * X))),
        ("1e-160*z", "minus", 1.0,
         lambda X: np.full(X.shape, LN8 + 2 * math.log(1e-160))),
    ], ids=["underflow", "overflow", "subnormal"])
    def test_log_form_where_a_factor_leaves_the_normal_range(self, Fsrc, sign,
                                                             K, want):
        # |F'|^2 would underflow to 0 or be subnormal, or |F|^2 and
        # |F'|^2 would overflow: u takes ln|F'| and ln(1 -+ |F|^2) instead
        g = square(-0.2, 0.2, 5)
        X, _ = g.meshgrid()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = elliptic_exact(seed(Fsrc, sign), K, 1.0, g)
        np.testing.assert_allclose(u.values, want(X), rtol=0, atol=1e-12)

    def test_non_finite_value_is_raised(self):
        # u = (ln(8|F'|^2/(1 - |F|^2)^2) - ln(a K))/a itself overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValueError, match="at 25 node"):
                elliptic_exact(seed("z"), 1.0, 1e-307, square(-0.2, 0.2, 5))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.floats(0.1, 1.4), st.floats(0.25, 4.0), st.floats(0.1, 10.0))
    @example(1.4, 0.25, 0.1)
    @example(0.1, 4.0, 10.0)
    def test_linear_seed_is_accurate(self, c, a, K):
        # F = c z with the minus sign, |F|^2 <= 0.98 on the grid:
        # u = (ln(8 c^2/(a K)) - 2 ln(1 - c^2 |z|^2))/a, to eight ulps of
        # the logs the closed form takes, of 8, F', 1 - |F|^2, a and K,
        # over a
        g = square(-0.5, 0.5, 9)
        X, Y = g.meshgrid()
        u = elliptic_exact(seed(f"{c!r}*z"), K, a, g).values
        ln_den = np.log1p(-c * c * (X * X + Y * Y))
        want = (math.log(8 * c * c / (a * K)) - 2 * ln_den) / a
        logs = (LN8 + 2 * abs(math.log(c)) + 2 * np.abs(ln_den)
                + abs(math.log(a)) + abs(math.log(K)))
        assert np.all(np.abs(u - want) <= 8 * EPS * logs / a)

    def test_degenerate_seed(self):
        with pytest.raises(SeedDegenerateError) as err:
            elliptic_exact(seed("z^2"), 1.0, 1.0, square(-0.2, 0.2, 5))
        assert (err.value.i, err.value.j) == (2, 2)

    def test_second_order_residual(self):
        grids = [square(-0.3, 0.3, n) for n in (65, 129, 257)]
        vals = residual_ladder(lambda g: elliptic_exact(seed("z"), 1.0, 1.0, g),
                               residual_elliptic, P11, grids)
        for lo, hi in zip(vals, vals[1:]):
            assert 1.8 <= math.log2(lo / hi) <= 2.2

    def test_nontrivial_seed_residual(self):
        # curved seed, negative K, general a
        sd = seed("z/2 + z^2/4", "plus")
        p = LiouvilleParams(-2.0, 1.5)
        r129 = residual_elliptic(elliptic_exact(sd, p.K, p.a, square(-0.3, 0.3, 129)), p)
        r257 = residual_elliptic(elliptic_exact(sd, p.K, p.a, square(-0.3, 0.3, 257)), p)
        assert 1.8 <= math.log2(norms(r129).max_abs / norms(r257).max_abs) <= 2.2
        assert norms(extrapolate_residual(r129, r257)).max_abs <= 1e-8


def raised(fn):
    """The type and message of the error ``fn()`` raises."""
    with pytest.raises(LiouvilleError) as err:
        fn()
    return type(err.value), str(err.value)


class TestRowBlocks:
    """The samplers run in 64-row blocks on 131 x 200 grids with hx != hy:
    the assembled field, and every check's node or extremum, must be what
    a single block over the whole grid gives, bit for bit."""

    # x = -16.25 + i/8 and y = -37.5 + j/4 are exact: (0, 0) is node
    # (130, 150), (0, -2) is node (130, 142)
    EXACT = Grid2D(131, 200, -16.25, -37.5, 0.125, 0.25)

    SAMPLERS = {
        "hyperbolic": lambda: hyperbolic_exact(
            pair("exp(x)", "exp(1.3*y)"), LiouvilleParams(2.0, 1.0),
            Grid2D(131, 200, 0.5, 0.4, 0.009, 0.006)),
        "elliptic-minus": lambda: elliptic_exact(
            seed("0.8*z+0.1*z^2"), 1.0, 1.0,
            Grid2D(131, 200, -0.45, -0.5, 0.007, 0.005)),
        "elliptic-plus": lambda: elliptic_exact(
            seed("z/2 + z^2/4", "plus"), -2.0, 1.5,
            Grid2D(131, 200, -0.45, -0.5, 0.007, 0.005)),
        "blowup": lambda: boundary_blowup_exact(
            Grid2D(131, 200, -1.1, -1.05, 0.017, 0.0105)),
    }

    @pytest.mark.parametrize("name", sorted(SAMPLERS))
    def test_blocks_match_one_block(self, per_block_height, name):
        results = per_block_height(lambda: self.SAMPLERS[name]().values)
        assert len({r.tobytes() for r in results}) == 1

    def test_blowup_mask_crosses_seams(self):
        u = self.SAMPLERS["blowup"]().values
        masked_rows = np.flatnonzero(np.isnan(u).any(axis=1))
        assert {63, 64, 127, 128, 191, 192} <= set(masked_rows)

    @pytest.mark.parametrize("direction", ["u_to_T", "T_to_u"])
    def test_convert_log_form_matches_one_block(self, per_block_height,
                                                direction):
        g = Grid2D(131, 200, 0.5, 0.4, 0.009, 0.006)
        X, Y = g.meshgrid()
        v = np.sin(3 * X) + Y if direction == "u_to_T" else np.exp(X - Y)
        v[61:67, 40:90] = np.nan
        f = ScalarField2D(g, v)
        results = per_block_height(
            lambda: convert_log_form(f, direction).values)
        assert len({r.tobytes() for r in results}) == 1
        assert np.isnan(results[0][61:67, 40:90]).all()

    def test_overflow_count_spans_blocks(self, per_block_height):
        v = np.zeros((200, 131))
        v[[3, 64, 150, 199], [0, 7, 9, 130]] = 1e308
        f = ScalarField2D(Grid2D(131, 200, 0.0, 0.0, 0.5, 0.25), v)
        errors = per_block_height(lambda: raised(
            lambda: convert_log_form(f, "u_to_T")))
        assert errors == [(NonFiniteValueError,
                           "T = e^u overflows at 4 node(s) where u is finite")] * 4

    def test_first_singular_node_in_a_later_block(self, per_block_height):
        # f + g = x + y^3 first vanishes at row 150; a*K*f'*g' < 0 from
        # the first block on, but the singular node still comes first
        errors = per_block_height(lambda: raised(lambda: hyperbolic_exact(
            pair("x", "y^3"), LiouvilleParams(-1.0, 1.0), self.EXACT)))
        assert errors == [(SingularNodeError,
                           "f(x) + g(y) = 0 at node (i=130, j=150), "
                           "(x, y) = (0.0, 0.0)")] * 4

    def test_first_sign_change_in_a_later_block(self, per_block_height):
        # f + g = x + y - 0.1 first turns positive at row 151, in the
        # third block, without a zero; a*K*f'*g' < 0 everywhere, but the
        # singular line still comes first
        g = self.EXACT
        s = (g.y()[151] - 0.1) + g.x()[129]
        errors = per_block_height(lambda: raised(lambda: hyperbolic_exact(
            pair("x", "y-0.1"), LiouvilleParams(-1.0, 1.0), g)))
        assert errors == [(SingularNodeError,
                           f"f(x) + g(y) changes sign, to {float(s)!r}, at "
                           "node (i=129, j=151), (x, y) = (-0.125, 0.25)")] * 4

    def test_sign_error_reports_the_grid_minimum(self, per_block_height):
        # g' = cos(y) turns negative only from row 148, in the third block
        g = Grid2D(131, 200, 1.0, 0.1, 0.01, 0.01)
        errors = per_block_height(lambda: raised(lambda: hyperbolic_exact(
            pair("x", "sin(y)"), P11, g)))
        gp = np.cos(g.y())
        assert errors == [(SignError,
                           "a*K*f'(x)*g'(y) must be positive on the whole "
                           f"grid (min {float(gp.min())!r})")] * 4

    def test_first_non_finite_node_in_a_later_block(self, per_block_height):
        # g' = 800 e^(800 y) overflows from y = 0.88, row 176 of 200, in
        # the third block; (f + g)^2 would overflow from row 89 on, but u
        # takes ln|f + g| and stays finite there
        g = Grid2D(131, 200, 1.0, 0.0, 0.01, 0.005)
        with np.errstate(over="ignore"):
            bad = np.flatnonzero(np.isinf(np.exp(800.0 * g.y()) * 800.0))
        errors = per_block_height(lambda: raised(lambda: hyperbolic_exact(
            pair("x", "exp(800*y)"), P11, g)))
        assert bad[0] == 176
        assert errors == [(NonFiniteValueError,
                           f"u is not finite at {bad.size * 131} node(s), the "
                           "first at node (i=0, j=176), (x, y) = "
                           f"(1.0, {float(g.y()[176])!r}): u overflows, or "
                           "an input of the closed form (f, g, f + g, f', "
                           "g', F or F') is not finite")] * 4

    def test_first_degenerate_node_in_a_later_block(self, per_block_height):
        # F' = 4 z (z^2 + 4) vanishes at z = -2i (row 142) and z = 0
        # (row 150); |F| >= 1 already in the first block, but the
        # degenerate seed is reported first, as on a single block
        errors = per_block_height(lambda: raised(lambda: elliptic_exact(
            seed("(z^2+4)^2"), 1.0, 1.0, self.EXACT)))
        assert errors == [(SeedDegenerateError,
                           "F'(z) = 0 at node (i=130, j=142)")] * 4

    def test_domain_violation_reports_the_grid_maximum(self, per_block_height):
        # |z| >= 1 first at row 182, in the third block
        g = Grid2D(131, 200, -0.5, -0.5, 0.005, 0.0075)
        X, Y = g.meshgrid()
        Z = X + 1j * Y
        expect = float((Z * Z.conj()).real.max())
        errors = per_block_height(lambda: raised(lambda: elliptic_exact(
            seed("z"), 1.0, 1.0, g)))
        assert errors == [(DomainViolationError,
                           "|F(z)| must stay below 1 for the minus sign "
                           f"(max |F|^2 = {expect!r})")] * 4

    @pytest.mark.parametrize("sample", [
        lambda g: hyperbolic_exact(pair("exp(x)", "exp(y)"), P11, g),
        lambda g: elliptic_exact(seed("0.8*z"), 1.0, 1.0, g),
    ], ids=["hyperbolic", "elliptic"])
    def test_memory_is_bounded(self, sample):
        # 513^2 nodes: beside the one output field, the blocked temporaries
        # (order-2 complex jets included) must stay small
        g = square(-0.45, 0.45, 513)
        tracemalloc.start()
        try:
            sample(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * g.nx * g.ny


class TestGelfandRadial:
    def test_fold_member(self):
        fam = gelfand_radial(1.0)
        assert fam.lam == pytest.approx(2.0, abs=1e-15)
        assert fam.u0 == pytest.approx(math.log(4.0), abs=1e-15)

    def test_lambda_one_member(self):
        b = 3.0 - 2.0 * math.sqrt(2.0)
        fam = gelfand_radial(b)
        assert fam.lam == pytest.approx(1.0, abs=1e-14)
        assert fam.u0 == pytest.approx(math.log(8.0 * b), abs=1e-14)
        assert fam.u0 == pytest.approx(0.3166943676, abs=1e-9)

    def test_small_b_limit(self):
        fam = gelfand_radial(1e-8)
        assert fam.u0 == pytest.approx(0.0, abs=1e-7)

    def test_profile_boundary_zero(self):
        fam = gelfand_radial(0.7)
        r = np.linspace(0.0, 1.0, 11)
        u = fam.profile()(r)
        assert u[-1] == pytest.approx(0.0, abs=1e-14)
        assert u[0] == pytest.approx(fam.u0, abs=1e-14)

    def test_nonpositive_b(self):
        with pytest.raises(NonPositiveBError):
            gelfand_radial(0.0)
        with pytest.raises(NonPositiveBError):
            gelfand_radial(-1.0)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(1e-3, 1e3))
    def test_branch_pairing(self, b):
        assert gelfand_radial(b).lam == pytest.approx(
            gelfand_radial(1.0 / b).lam, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(1e-3, 1e2), st.floats(1.0001, 4.0))
    def test_u0_strictly_increasing(self, b, factor):
        assert gelfand_radial(b * factor).u0 > gelfand_radial(b).u0


class TestBoundaryBlowup:
    def test_values(self):
        g = square(-0.8, 0.8, 5)
        u = boundary_blowup_exact(g).values
        assert u[2, 2] == pytest.approx(LN8, abs=1e-14)
        # r^2 = 0.5 is not a node here; check the formula at (0.4, 0.4)
        assert u[3, 3] == pytest.approx(math.log(8.0 / (1 - 0.32) ** 2), abs=1e-14)

    def test_outside_disk_masked(self):
        g = square(-1.2, 1.2, 7)
        u = boundary_blowup_exact(g).values
        assert np.isnan(u[0, 0])
        assert np.isfinite(u[3, 3])

    def test_monotone_in_radius(self):
        g = Grid2D.from_bounds(0.0, 0.0, 0.99, 0.001, 200, 2)
        u = boundary_blowup_exact(g).values[0]
        assert np.all(np.diff(u) > 0)

    def test_dual_number_laplacian_oracle(self):
        # radial check of Delta u = e^u for u(r) = ln(8/(1-r^2)^2):
        # Delta u = u'' + u'/r away from r = 0, with u'' the complex step
        # of u', Im u'(r + ih) / h
        e = parse("ln(8/(1-r^2)^2)", ("r",))
        rng = np.random.default_rng(11)
        r = rng.uniform(0.05, 0.95, size=100)
        res = eval_dual(e, r, "r")
        d2 = eval_dual(e, r + 1e-30j, "r").d1.imag / 1e-30
        lap = d2 + res.d1 / r
        assert np.all(np.abs(lap - np.exp(res.value)) <= 1e-12 * np.exp(res.value))

    def test_residual_orders_and_extrapolation(self):
        vals = residual_ladder(lambda g: boundary_blowup_exact(g),
                               residual_elliptic, P11,
                               [square(-0.5, 0.5, n) for n in (65, 129, 257)])
        for lo, hi in zip(vals, vals[1:]):
            assert 1.8 <= math.log2(lo / hi) <= 2.2
        r129 = residual_elliptic(boundary_blowup_exact(square(-0.3, 0.3, 129)), P11)
        r257 = residual_elliptic(boundary_blowup_exact(square(-0.3, 0.3, 257)), P11)
        assert norms(extrapolate_residual(r129, r257)).max_abs <= 1e-8


def scalar_blowup_curve(cp, x_range, y_range, n, tol=1e-12):
    """Reference for ``blowup_curve``: one scalar bisection per sample,
    with the same stopping rules and Newton polish, and without the
    checks made before the samples are traced."""
    (xa, xb), (ya, yb) = x_range, y_range

    def g_of(y):
        return eval_dual(cp.gy, float(y), "y")

    samples = []
    for x in np.linspace(xa, xb, n):
        fv = eval_dual(cp.fx, float(x), "x").value
        lo, hi = ya, yb
        flo, fhi = fv + g_of(ya).value, fv + g_of(yb).value
        if flo == 0.0:
            samples.append((float(x), float(ya)))
            continue
        if fhi == 0.0:
            samples.append((float(x), float(yb)))
            continue
        if np.sign(flo) == np.sign(fhi):
            samples.append((float(x), None))
            continue
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = fv + g_of(mid).value
            if abs(fm) <= tol or hi - lo <= 4e-16 * max(1.0, abs(mid)):
                break
            if np.sign(fm) == np.sign(flo):
                lo, flo = mid, fm
            else:
                hi = mid
        res = g_of(mid)
        mid = mid - (fv + res.value) / res.d1
        samples.append((float(x), float(np.clip(mid, ya, yb))))
    return samples


class TestBlowupCurve:
    def test_linear_case(self):
        curve = blowup_curve(pair("x", "y"), (-1.0, 1.0), (-1.5, 1.5), 21)
        for x, y in curve.samples:
            assert y == pytest.approx(-x, abs=1e-10)

    def test_exponential_f(self):
        curve = blowup_curve(pair("exp(x)", "y"), (-1.0, 0.5), (-2.0, -0.1), 21)
        for x, y in curve.samples:
            assert y == pytest.approx(-math.exp(x), abs=1e-10)

    def test_no_root_markers(self):
        curve = blowup_curve(pair("x", "exp(y)"), (0.5, 1.0), (-3.0, 3.0), 11)
        assert all(y is None for _, y in curve.samples)
        # f overflows to +inf: both ends of every bracket are +inf, and
        # the overflow is handled without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = blowup_curve(pair("exp(800*x)", "y"), (0.9, 1.0),
                                 (0.0, 1.0), 5)
        assert all(y is None for _, y in curve.samples)

    def test_nonmonotone_g(self):
        with pytest.raises(NonMonotoneGError):
            blowup_curve(pair("x", "sin(3*y)"), (0.0, 0.2), (0.0, 2.0), 11)

    def test_defining_equation_within_tol(self):
        cp = pair("exp(x)", "y^3 + y")
        curve = blowup_curve(cp, (-1.0, 1.0), (-2.0, 0.0), 31, tol=1e-12)
        for x, y in curve.samples:
            if y is None:
                continue
            fx = math.exp(x)
            gy = y ** 3 + y
            assert abs(fx + gy) <= 1e-12 * (abs(fx) + abs(gy) + 1.0)

    def test_eval_calls_do_not_grow_with_samples(self, monkeypatch):
        # all samples bisect in lockstep: the probe, f, g at both ends and
        # at most 200 bisection steps; the polish reuses the last step's g
        calls = []

        def counting(*args):
            calls.append(args)
            return eval_dual(*args)

        monkeypatch.setattr(closedform, "eval_dual", counting)
        curve = blowup_curve(pair("exp(x)", "y^3 + y"), (-1.0, 1.0),
                             (-2.0, 0.0), 10001)
        assert len(curve.samples) == 10001
        assert len(calls) <= 204

    @pytest.mark.parametrize("fsrc, gsrc, x_range, y_range", [
        ("x^2-0.6", "exp(y)-1", (0.0, 1.0), (0.0, 1.0)),    # NA rows
        ("x", "y", (-1.0, 1.0), (-1.0, 1.0)),             # end-point zeros
        ("sin(3*x)", "y", (-1.0, 1.0), (-0.5, 0.5)),      # NA on both sides
        ("1", "-2*y", (0.0, 1.0), (0.0, 2.0)),            # constant f
        ("exp(x)", "-2*y", (0.0, 1.0), (0.0, 2.0)),       # linear g
        ("cosh(x)-2", "sinh(y)", (-2.0, 2.0), (-1.0, 1.0)),
    ])
    def test_matches_per_sample_bisection_bitwise(self, fsrc, gsrc,
                                                  x_range, y_range):
        cp = pair(fsrc, gsrc)
        expect = scalar_blowup_curve(cp, x_range, y_range, 1001)
        got = blowup_curve(cp, x_range, y_range, 1001).samples
        assert [(x, None if y is None else y.hex()) for x, y in got] \
            == [(x, None if y is None else y.hex()) for x, y in expect]

    def test_log_divergence_rate_near_curve(self):
        # u = ln 2 - 2 ln(x+y); at distance delta from x+y=0 this is
        # exactly -2 ln(delta), so u + 2 ln(delta) must stay O(1)
        for delta in (1e-1, 1e-2, 1e-3):
            gp = Grid2D(1, 1, 0.3, -0.3 + math.sqrt(2.0) * delta, 1.0, 1.0)
            u = hyperbolic_exact(pair("x", "y"), P11, gp).values[0, 0]
            assert abs(u + 2.0 * math.log(delta)) <= 1e-9


class TestConvertLogForm:
    def test_zero_maps_to_one(self):
        f = ScalarField2D(square(0.0, 1.0, 3), np.zeros((3, 3)))
        assert np.all(convert_log_form(f, "u_to_T").values == 1.0)

    def test_round_trip_within_ulps(self):
        # exp then ln leaves absolute noise of a few ulps of T = e^u,
        # which near u = 0 is a few ulps of 1, not of u
        g = square(0.5, 1.5, 17)
        u = hyperbolic_exact(pair("x", "y"), P11, g)
        back = convert_log_form(convert_log_form(u, "u_to_T"), "T_to_u")
        assert np.all(np.abs(back.values - u.values)
                      <= 4 * np.spacing(1.0 + np.abs(u.values)))

    def test_negative_entry_rejected(self):
        v = np.ones((3, 3))
        v[0, 1] = -0.5
        with pytest.raises(NonPositiveFieldError):
            convert_log_form(ScalarField2D(square(0.0, 1.0, 3), v), "T_to_u")

    def test_overflow_is_an_error(self):
        # e^u of a finite u overflows; an infinite u passes through
        v = np.zeros((3, 3))
        v[1, 1] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValueError, match="1 node"):
                convert_log_form(ScalarField2D(square(0.0, 1.0, 3), v), "u_to_T")
        v[1, 1] = np.inf
        T = convert_log_form(ScalarField2D(square(0.0, 1.0, 3), v), "u_to_T")
        assert T.values[1, 1] == np.inf

    def test_negative_infinity_rejected(self):
        v = np.ones((3, 3))
        v[2, 2] = -np.inf
        with pytest.raises(NonPositiveFieldError):
            convert_log_form(ScalarField2D(square(0.0, 1.0, 3), v), "T_to_u")

    def test_unknown_direction(self):
        f = ScalarField2D(square(0.0, 1.0, 3), np.ones((3, 3)))
        with pytest.raises(ClosedFormError):
            convert_log_form(f, "sideways")
