"""Parser and dual-number differentiation checks.

The derivative values are compared against hand-written analytic
derivatives and central differences; the AD path itself never uses
finite differences, so agreement at machine scale is the expected
outcome everywhere the expression is smooth.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liouville.closedform import CharacteristicPair
from liouville.errors import (
    ArityError,
    ClosedFormError,
    DomainError,
    ExprError,
    ExprSyntaxError,
    HyperbolicError,
    NotUnivariateError,
    UnknownIdentifierError,
)
from liouville.expr import AxisPair, eval_complex, eval_dual, parse
from liouville.hyperbolic import GoursatData, WaveSolution


def d(src, x, var="x"):
    return eval_dual(parse(src, (var,)), x, var)


class TestParse:
    def test_polynomial_value(self):
        assert d("x^2+1", 2.0).value == 5.0

    def test_chain_rule_at_zero(self):
        assert d("exp(2*x)", 0.0).d1 == 2.0

    def test_precedence(self):
        assert d("2+3*4^2", 0.0).value == 50.0
        assert d("-x^2", 3.0).value == -9.0
        assert d("(1+x)*(1-x)", 0.5).value == 0.75
        # - and / chains associate to the left: right association would
        # give 6, 4 and -1 for the first three
        assert d("8-4-2", 0.0).value == 2.0
        assert d("8/4/2", 0.0).value == 1.0
        assert d("2-3*4/6+1", 0.0).value == 1.0
        assert d("x-1-1", 3.0) == (1.0, 1.0)
        # the division's operand is (x-1-0), so its snippet names it
        with pytest.raises(DomainError) as err:
            d("2+1/(x-1-0)*3", 1.0)
        assert err.value.snippet == "x-1-0"

    def test_integer_exponents_fold(self):
        assert d("x^(2+1)", 2.0).value == 8.0
        assert d("x^-1", 2.0) == (0.5, -0.25)

    def test_syntax_error_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("x +* y", ("x", "y"))
        assert err.value.offset == 3

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse("x^y", ("x", "y"))
        with pytest.raises(ExprSyntaxError):
            parse("x^0.5", ("x",))

    @pytest.mark.parametrize("src", [
        "x^(2^53)", "x^-(2^53)", "x^(2^52*2)", "x^(3^33)", "x^(0^99)",
        "x^(1^99999)", "x^((-1)^99999)",
    ])
    def test_exponents_up_to_2_53_fold(self, src):
        assert d(src, 1.0).value == 1.0

    @pytest.mark.parametrize("src, offset", [
        ("x^(2^53+1)", 3), ("x^-(2^53+1)", 2), ("x^(2^53*2)", 3),
        ("x^(3^34)", 3), ("x^1e300", 2), ("x^(10^400)", 3),
        ("x^(-(10^400))", 3), ("x^(2^2^2^2^2)", 3),
        # the inner power is refused at its own exponent
        ("x^(1^(10^16) - 1)", 6),
    ])
    def test_exponents_past_2_53_are_refused(self, src, offset):
        with pytest.raises(ExprSyntaxError) as err:
            parse(src, ("x",))
        assert "2^53" in str(err.value)
        assert err.value.offset == offset

    # expressions of parse-tree depth k: each parenthesis pair, operator
    # and call is one level above its operand, the name x is one level
    NESTINGS = {
        "parentheses": lambda k: "(" * (k - 1) + "x" + ")" * (k - 1),
        "sum": lambda k: "+".join(["x"] * k),
        "quotient": lambda k: "/".join(["x"] * k),
        "minus": lambda k: "-" * (k - 1) + "x",
        "sin": lambda k: "sin(" * (k - 1) + "x" + ")" * (k - 1),
        "power": lambda k: "x" + "^1" * (k - 1),
        "mixed": lambda k: "(" * (k // 2) + "x" + ")" * (k // 2)
                           + "+x" * (k - 1 - k // 2),
    }

    @pytest.mark.parametrize("shape", NESTINGS)
    def test_depth_100_is_accepted(self, shape):
        r = d(self.NESTINGS[shape](100), 0.5)
        assert np.isfinite(r.value) and np.isfinite(r.d1)

    @pytest.mark.parametrize("shape", NESTINGS)
    def test_depth_101_is_refused(self, shape):
        with pytest.raises(ExprSyntaxError) as err:
            parse(self.NESTINGS[shape](101), ("x",))
        assert "deeper than 100 levels" in str(err.value)

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError) as err:
            parse("log(x)", ("x",))
        assert err.value.name == "log"
        assert err.value.offset == 0

    def test_arity_errors(self):
        with pytest.raises(ArityError):
            parse("exp x", ("x",))
        with pytest.raises(ArityError):
            parse("exp(x, x)", ("x",))

    def test_variable_name_rules(self):
        with pytest.raises(ExprError):
            parse("x", ())
        with pytest.raises(ExprError):
            parse("x", ("x", "x"))
        with pytest.raises(ExprError):
            parse("x", ("exp",))

    @pytest.mark.parametrize("src, constant", [
        ("x+1e200^2", "1e200^2"),
        ("x+10^308*10", "10^308*10"),
        ("x*exp(1000)", "exp(1000)"),
        ("1e400", "1e400"),
        ("x+1/(1e200*1e200)", "1e200*1e200"),
        ("sin(x)-cosh(800)+sinh(800)", "cosh(800)"),
    ])
    def test_overflowing_constant_is_refused(self, src, constant):
        # refused once at parse time, each variable-free subtree checked,
        # inner ones first; no RuntimeWarning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as err:
                parse(src, ("x",))
        assert err.value.snippet == constant
        assert "overflows" in str(err.value)

    @pytest.mark.parametrize("src", ["x*sqrt(-1)", "x+ln(-2)", "x+1/0",
                                     "x+1e-200*1e-200", "x+1e200*1e100"])
    def test_finite_or_refused_constants_parse(self, src):
        # sqrt and ln of a negative number are complex-valued constants,
        # refused by real evaluation, not by the parser; 1/0 is refused
        # at evaluation as before
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parse(src, ("x",))

    def test_complex_constants_evaluate(self):
        value, _ = eval_complex(parse("z*sqrt(-1)+ln(-1)", ("z",)), 2.0)
        assert np.isfinite(value) and abs(value.imag) == 2.0 + math.pi

    def test_reparse_source_round_trip(self):
        src = "exp(x)*sin(x) - x^3/(1+x^2)"
        e1 = parse(src, ("x",))
        e2 = parse(e1.source, ("x",))
        xs = np.linspace(0.1, 2.0, 100)
        r1, r2 = eval_dual(e1, xs, "x"), eval_dual(e2, xs, "x")
        assert np.array_equal(r1.value, r2.value)
        assert np.array_equal(r1.d1, r2.d1)


class TestEvalDual:
    def test_ln_standard_derivatives(self):
        assert d("ln(x)", 1.0) == (0.0, 1.0)

    def test_ln_domain_error(self):
        with pytest.raises(DomainError):
            d("ln(x)", -1.0)

    def test_domain_error_reports_subexpression(self):
        with pytest.raises(DomainError) as err:
            d("ln(x-2)", 1.0)
        assert err.value.snippet == "x-2"

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            d("1/x", 0.0)

    def test_sqrt_domain(self):
        with pytest.raises(DomainError):
            d("sqrt(x)", -0.5)

    @pytest.mark.parametrize("src, at, snippet", [
        ("x^-2", 0.0, "x"), ("(x-1)^-3", np.array([0.5, 1.0]), "x-1"),
    ], ids=["scalar", "array"])
    def test_zero_to_a_negative_power(self, src, at, snippet):
        with pytest.raises(DomainError) as err:
            d(src, at)
        assert type(err.value) is DomainError
        assert err.value.code == "expr.domain"
        assert err.value.snippet == snippet
        assert "zero raised to a negative power" in str(err.value)

    def test_trig_and_hyperbolic(self):
        x = 0.7
        r = d("sin(x)", x)
        assert r.d1 == pytest.approx(math.cos(x), abs=1e-15)
        r = d("cosh(x)", x)
        assert r.d1 == pytest.approx(math.sinh(x), abs=1e-15)

    def test_constant_has_zero_derivatives(self):
        assert d("3*2 - 1", 5.0) == (5.0, 0.0)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_power_second_derivative(self, n):
        # d/dx x^n at 1 is n; the second derivative n(n-1) is the
        # complex step of the first, Im f'(1 + ih) / h
        assert d(f"x^{n}", 1.0).d1 == float(n)
        h = 1e-30
        assert d(f"x^{n}", 1.0 + h * 1j).d1.imag / h == pytest.approx(
            n * (n - 1), rel=1e-15)

    def test_bivariate_partials(self):
        e = parse("x^2*y + y^3", ("x", "y"))
        at = {"x": 2.0, "y": 3.0}
        rx = eval_dual(e, at, "x")
        ry = eval_dual(e, at, "y")
        assert rx.value == 39.0
        assert rx.d1 == 12.0
        assert ry.d1 == 31.0

    def test_missing_variable_is_named(self):
        e = parse("x^2*y", ("x", "y"))
        with pytest.raises(ExprError, match=r"missing values for variables \['y'\]"):
            eval_dual(e, {"x": 2.0}, "x")

    def test_bare_value_for_two_variables_asks_for_a_mapping(self):
        e = parse("x^2*y", ("x", "y"))
        with pytest.raises(ExprError, match=r"pass a mapping of values for \('x', 'y'\)"):
            eval_dual(e, 2.0, "x")

    def test_array_matches_scalar(self):
        e = parse("sin(x)*exp(x) + x^2", ("x",))
        xs = np.linspace(0.1, 2.0, 17)
        vec = eval_dual(e, xs, "x")
        for i, x in enumerate(xs):
            one = eval_dual(e, float(x), "x")
            assert vec.value[i] == one.value
            assert vec.d1[i] == one.d1


class TestEvalComplex:
    def test_identity_seed(self):
        F, Fp = eval_complex(parse("z", ("z",)), 0.3 + 0.4j)
        assert F == 0.3 + 0.4j
        assert Fp == 1.0

    def test_exp(self):
        F, Fp = eval_complex(parse("exp(z)", ("z",)), 0.0j)
        assert F == 1.0 and Fp == 1.0

    def test_pole(self):
        with pytest.raises(DomainError):
            eval_complex(parse("1/z", ("z",)), 0.0j)

    @pytest.mark.parametrize("src, message", [
        ("ln(z)", "log of zero (branch point)"),
        ("sqrt(z)", "sqrt at zero (branch point)"),
    ], ids=["ln", "sqrt"])
    def test_branch_point_at_zero(self, src, message):
        with pytest.raises(DomainError) as err:
            eval_complex(parse(src, ("z",)), np.array([1.0 + 1.0j, 0.0j]))
        assert type(err.value) is DomainError
        assert err.value.code == "expr.domain"
        assert message in str(err.value)

    def test_square_at_i(self):
        r = eval_dual(parse("z^2", ("z",)), 1j, "z")
        assert r.value == -1.0 + 0.0j
        assert r.d1 == 2.0j

    def test_needs_univariate(self):
        with pytest.raises(ExprError):
            eval_complex(parse("x+y", ("x", "y")), 0.0j)

    @pytest.mark.parametrize("src, want", [
        ("sqrt(-1)", 1j), ("ln(-1)", math.pi * 1j), ("sqrt(-4)", 2j),
        ("z*sqrt(-1)", 0.5j), ("-(-(-1))+0*z", -1.0)])
    def test_negation_gives_principal_values(self, src, want):
        # a negated constant is 0 - c, whose zero imaginary part is +0:
        # -1 lies on the upper side of the cut of sqrt and ln.  It took
        # -0, which gave -1j and -pi i
        value, _ = eval_complex(parse(src, ("z",)), 0.5)
        assert value == want
        assert math.copysign(1.0, value.imag) == math.copysign(1.0, want.imag)

    @pytest.mark.parametrize("src, spelled", [
        ("sqrt(-1)*z", "sqrt(0-1)*z"), ("ln(-2)+z", "ln(0-2)+z"),
        ("-z", "0-z"), ("exp(-z)-z", "exp(0-z)-z"), ("z/(-3)", "z/(0-3)"),
        ("(-z)^3", "(0-z)^3")])
    def test_negation_is_zero_minus_bit_for_bit(self, src, spelled):
        z = np.array([0.5, -0.25 + 0.0j, 0.0 - 1.5j, 2.0 + 1.0j])
        for at in (z, complex(z[1])):
            got = eval_complex(parse(src, ("z",)), at)
            want = eval_complex(parse(spelled, ("z",)), at)
            for g, w in zip(got, want):
                assert np.asarray(g).tobytes() == np.asarray(w).tobytes()

    def test_real_negation_keeps_negative_zero(self):
        # real evaluation negates as before: -x at x = 0 is -0.0
        value = eval_dual(parse("-x", ("x",)), 0.0, "x").value
        assert math.copysign(1.0, value) == -1.0


CORPUS = [
    "exp(x)",
    "sin(x) + cosh(x/2)",
    "x^3 + ln(x)",
    "sqrt(x+2)*cos(x)",
    "exp(sin(x)) - x^2/(3+x)",
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CORPUS), st.floats(0.2, 2.0))
def test_d1_matches_central_differences_at_second_order(src, x):
    """AD first derivatives are exact; the central-difference probe
    converges to them at its own O(h^2) rate, which is the check that
    the AD value is the true derivative and not off by a smooth bias."""
    e = parse(src, ("x",))
    exact = eval_dual(e, x, "x").d1
    scale = abs(exact) + 1.0

    def cd(h):
        up = eval_dual(e, x + h, "x").value
        dn = eval_dual(e, x - h, "x").value
        return (up - dn) / (2.0 * h)

    h = 1e-3
    e1 = abs(cd(h) - exact)
    e2 = abs(cd(h / 2.0) - exact)
    # quartering with slack, plus an absolute floor for flat spots where
    # the truncation term happens to vanish and roundoff dominates
    assert e2 <= e1 / 2.0 ** 1.9 + 1e-11 * scale


class TestAxisPair:
    X, Y, XY = parse("x", ("x",)), parse("y", ("y",)), parse("x*y", ("x", "y"))

    def test_one_type_under_three_names(self):
        assert CharacteristicPair is GoursatData is WaveSolution is AxisPair

    @pytest.mark.parametrize(
        "cls", [CharacteristicPair, GoursatData, WaveSolution],
        ids=["CharacteristicPair", "GoursatData", "WaveSolution"])
    def test_bivariate_member_rejected(self, cls):
        with pytest.raises(NotUnivariateError):
            cls(self.XY, self.Y)
        with pytest.raises(NotUnivariateError):
            cls(self.X, self.XY)

    def test_error_belongs_to_both_families(self):
        with pytest.raises(NotUnivariateError) as info:
            AxisPair(self.XY, self.Y)
        assert isinstance(info.value, ClosedFormError)
        assert isinstance(info.value, HyperbolicError)

    def test_sample_broadcasts_constants(self):
        xs, ys = np.linspace(0.0, 1.0, 5), np.linspace(0.0, 2.0, 3)
        (f, fp), (g, gp) = AxisPair(parse("2", ("x",)), self.Y).sample(xs, ys)
        assert f.shape == fp.shape == (5,) and g.shape == gp.shape == (3,)
        assert np.all(f == 2.0) and np.all(fp == 0.0)
        assert np.array_equal(g, ys) and np.all(gp == 1.0)
