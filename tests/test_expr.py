"""Config expressions: exact derivatives against sympy, kinks and constants."""

import math
import operator

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from negdimcd import ConvexityParams, check_pointwise
from negdimcd import expr as expr_module
from negdimcd.expr import compile_expr

X = sympy.Symbol("x", real=True)

SYMPY_FUNCS = {"exp": sympy.exp, "log": sympy.log, "sin": sympy.sin, "cos": sympy.cos,
               "tan": sympy.tan, "sinh": sympy.sinh, "cosh": sympy.cosh,
               "tanh": sympy.tanh, "sqrt": sympy.sqrt, "abs": sympy.Abs}
SYMPY_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
             "/": operator.truediv, "**": operator.pow}


# ---------------------------------------------------------------------------
# random grammar expressions, each a pair (text, sympy expression)


def _literal(k):
    # k/4 in [0, 3]; whole numbers are written as int literals
    return (str(k // 4) if k % 4 == 0 else repr(k / 4)), sympy.Rational(k, 4)


def _call(name, a):
    return f"{name}({a[0]})", SYMPY_FUNCS[name](a[1])


def _binop(op, a, b):
    return f"({a[0]} {op} {b[0]})", SYMPY_OPS[op](a[1], b[1])


def _neg(a):
    return f"(-{a[0]})", -a[1]


constants = st.one_of(st.integers(0, 12).map(_literal),
                      st.sampled_from([("pi", sympy.pi), ("e", sympy.E)]))


def _extend(inner):
    # every function argument contains x: a constant argument such as pi/2
    # sits on a special value of cos that float rounding moves it off
    operand = st.one_of(inner, constants)
    arithmetic = st.sampled_from(["+", "-", "*", "/"])
    return st.one_of(
        st.builds(_call, st.sampled_from(sorted(SYMPY_FUNCS)), inner),
        st.builds(_binop, arithmetic, inner, operand),
        st.builds(_binop, arithmetic, operand, inner),
        st.builds(_binop, st.just("**"), inner, constants),   # constant exponent
        st.builds(_binop, st.just("**"), operand, inner),     # variable exponent
        st.builds(_neg, inner))


expressions = st.recursive(st.just(("x", X)), _extend, max_leaves=6)
# |x| >= 1/64: for tiny x, 0.25**x rounds to exactly 1 over a range of x, so
# log(0.25**x) reads 0 and no ulp move of x shows that its digits are gone
points = st.lists(st.builds(operator.mul, st.sampled_from([-1.0, 1.0]),
                            st.floats(1.0 / 64.0, 3.0)), min_size=1, max_size=3)


def exact(expression, x):
    """sympy's value at the float x to 30 digits, or None where it is not a
    finite real number."""
    try:
        z = complex(expression.subs(X, sympy.Float(x, 30)).evalf(30))
    except (TypeError, ValueError):   # zoo, nan, an unevaluated DiracDelta
        return None
    return z.real if z.imag == 0 and math.isfinite(z.real) else None


def around(g, x):
    """g at x, then at the floats one and two ulps below and above x."""
    xs = [x]
    for direction in (-math.inf, math.inf):
        y = x
        for _ in range(2):
            y = math.nextafter(y, direction)
            xs.append(y)
    return [float(g(v)) for v in xs]


def rounding_allowance(values):
    # a value that moves by d when x moves by an ulp carries rounding errors
    # of about that size in its intermediates
    return 16.0 * max(abs(v - values[0]) for v in values)


class TestAgainstSympy:
    @settings(max_examples=150, deadline=None)
    @given(expressions, points)
    @example(("((0 / (x - x)) + x)", sympy.Integer(0) / (X - X) + X), [-1.0])
    def test_value_and_derivatives(self, expression, xs):
        text, sym = expression
        f = compile_expr(text)
        compared = 0
        with np.errstate(all="ignore"):
            for order, g in enumerate((f, f.deriv, f.deriv2)):
                want_expr = sympy.diff(sym, X, order)
                for x in xs:
                    want = exact(want_expr, x)
                    got = around(g, x)
                    # skipped: points where the text passes through an
                    # undefined value (0**-1, log of a negative base) that
                    # sympy simplifies away, and overflow
                    if want is None or not all(map(math.isfinite, got)):
                        continue
                    assert abs(got[0] - want) <= (1e-9 * (1.0 + abs(want))
                                                  + rounding_allowance(got)), \
                        (text, order, x, got[0], want)
                    compared += 1
        assume(compared)

    @settings(max_examples=150, deadline=None)
    @given(expressions, points)
    def test_scalar_and_array_calls_agree(self, expression, xs):
        f = compile_expr(expression[0])
        grid = np.array(xs)
        with np.errstate(all="ignore"):
            for g in (f, f.deriv, f.deriv2):
                values = g(grid)
                assert values.shape == grid.shape
                for x, value in zip(xs, values):
                    scalar = g(x)
                    assert np.ndim(scalar) == 0 and not np.iscomplexobj(scalar)
                    if not math.isfinite(scalar):
                        assert value == scalar or (math.isnan(value) and math.isnan(scalar))
                        continue
                    assert abs(value - scalar) <= (1e-12 * (1.0 + abs(scalar))
                                                   + rounding_allowance(around(g, x)))


class TestDerivatives:
    @pytest.mark.parametrize("text,d1,d2", [
        ("x**3/3 - 2*x", lambda x: x * x - 2.0, lambda x: 2.0 * x),
        ("exp(-x**2/2)", lambda x: -x * np.exp(-x * x / 2),
         lambda x: (x * x - 1.0) * np.exp(-x * x / 2)),
        ("log(cosh(x)) + x**3/10", lambda x: np.tanh(x) + 0.3 * x * x,
         lambda x: 1.0 / np.cosh(x) ** 2 + 0.6 * x),
        ("2**x", lambda x: np.log(2.0) * 2.0 ** x, lambda x: np.log(2.0) ** 2 * 2.0 ** x),
    ])
    def test_closed_forms(self, text, d1, d2):
        f = compile_expr(text)
        x = np.linspace(-2.0, 2.0, 41)
        np.testing.assert_allclose(f.deriv(x), d1(x), rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(f.deriv2(x), d2(x), rtol=1e-13, atol=1e-14)

    def test_array_and_pointwise_second_derivatives_agree(self):
        # central differences put these 1.8e-5 apart; exact derivatives agree
        # to round-off
        f = compile_expr("log(cosh(x)) + x**3/10")
        x = np.linspace(-3.0, 3.0, 101)
        pointwise = [float(f.deriv2(float(v))) for v in x]
        np.testing.assert_allclose(f.deriv2(x), pointwise, rtol=1e-13, atol=1e-13)

    def test_abs_kink_on_the_grid_is_undefined(self):
        f = compile_expr("abs(x)")
        assert f.deriv(-2.0) == -1.0 and f.deriv(2.0) == 1.0
        assert f.deriv2(2.0) == 0.0 and math.isnan(f.deriv2(0.0))
        p = ConvexityParams(-1.0, -2.0, (-1.0, 1.0))
        rep = check_pointwise(f, p, np.linspace(-1.0, 1.0, 21))
        assert not rep.passed and rep.worst_margin == -math.inf
        assert rep.note == "second derivative undefined at x=0.0"
        # a grid that misses the kink sees the two linear pieces only
        rep = check_pointwise(f, p, np.linspace(-1.0, 1.0, 20))
        assert rep.passed and rep.note == ""

    def test_zero_over_zero_has_nan_derivatives(self):
        # the quotient rule used to fold 0/(x - x) to 0, so f' read 1 and f'' 0
        f = compile_expr("0/(x - x) + x")
        with np.errstate(invalid="ignore"):
            values = [f(-1.0), f.deriv(-1.0), f.deriv2(-1.0)]
            arrays = [f(np.array([-1.0, 2.0])), f.deriv(np.array([-1.0, 2.0]))]
        assert all(math.isnan(v) for v in values)
        assert all(np.isnan(a).all() for a in arrays)

    def test_evaluation_builds_and_compiles_nothing(self, monkeypatch):
        calls = []
        for name in ("_diff", "_compile"):
            original = getattr(expr_module, name)
            monkeypatch.setattr(expr_module, name, lambda *args, original=original, name=name:
                                calls.append(name) or original(*args))
        f = compile_expr("sin(x)*x")
        built = len(calls)
        assert built > 0 and "_diff" in calls
        assert f(0.5) == pytest.approx(math.sin(0.5) * 0.5)
        assert f.deriv(0.5) == pytest.approx(math.cos(0.5) * 0.5 + math.sin(0.5))
        assert f.deriv2(np.array([0.5]))[0] == pytest.approx(
            2 * math.cos(0.5) - 0.5 * math.sin(0.5))
        assert len(calls) == built
        # the grammar is checked before the tree is differentiated
        calls.clear()
        with pytest.raises(ValueError, match=r"function not in the grammar: Name\(id='foo'"):
            compile_expr("foo(x)")
        assert "_diff" not in calls

    @pytest.mark.parametrize("x", [0.3, 2.5, 10.0, 1e-200, 3e200])
    def test_constant_times_log_has_one_rounding(self, x):
        # c*log(x) differentiates to c/x, not c*(1/x), which rounds twice:
        # 3*(1/x) is one ulp off 3/x at x = 2.5 and 10
        assert compile_expr("3*log(x)").deriv(x) == 3 / x
        assert compile_expr("3*log(x)").deriv(np.array([x]))[0] == 3 / x


class TestConstants:
    def test_negative_base_to_a_fractional_power_is_nan(self):
        f = compile_expr("(2 - 3)**0.5 + x**2")
        with np.errstate(invalid="ignore"):
            scalar, values = f(1.0), f(np.array([0.0, 1.0]))
        assert not np.iscomplexobj(scalar) and math.isnan(scalar)
        assert np.isnan(values).all()
        assert float(f.deriv(1.0)) == 2.0 and float(f.deriv2(1.0)) == 2.0

    def test_pi_and_e(self):
        f = compile_expr("pi*x + e")
        assert f(2.0) == 2.0 * math.pi + math.e
        assert f.deriv(2.0) == math.pi and f.deriv2(2.0) == 0.0

    def test_theta_variable(self):
        f = compile_expr("cos(theta)", var="theta")
        assert f.deriv(0.5) == -math.sin(0.5) and f.deriv2(0.5) == -math.cos(0.5)


class TestGrammar:
    @pytest.mark.parametrize("text, message", [
        ("'a'", "literal 'a' is not numeric"),
        ("x + None", "literal None is not numeric"),
        ("y", "unknown name 'y'; only 'x', pi, e are allowed"),
        # the derivative of abs is not config syntax
        ("sign(x)", "function not in the grammar: Name(id='sign', ctx=Load())"),
        ("np.exp(x)", "function not in the grammar: Attribute(value=Name(id='np', "
                      "ctx=Load()), attr='exp', ctx=Load())"),
        ("exp(x=1)", "grammar functions take exactly one positional argument"),
        ("exp(x, x)", "grammar functions take exactly one positional argument"),
        ("exp(*x)", "syntax not in the grammar: Starred"),
        ("x % 2", "syntax not in the grammar: BinOp"),
        ("x @ x", "syntax not in the grammar: BinOp"),
        ("not x", "syntax not in the grammar: UnaryOp"),
        ("~x", "syntax not in the grammar: UnaryOp"),
        ("x < 1", "syntax not in the grammar: Compare"),
        ("x[0]", "syntax not in the grammar: Subscript"),
        ("lambda: x", "syntax not in the grammar: Lambda"),
        ("x if x else 1", "syntax not in the grammar: IfExp"),
        # the first node outside the grammar, left to right, is the one named
        ("y + 'a'", "unknown name 'y'; only 'x', pi, e are allowed"),
        ("exp(x) + sin(x) % 2", "syntax not in the grammar: BinOp"),
    ], ids=["string", "none", "unknown-name", "sign", "attribute", "keyword",
            "two-arguments", "starred", "mod", "matmul", "not", "invert", "compare",
            "subscript", "lambda", "conditional", "first-of-two", "nested"])
    def test_rejected_in_compile_expr(self, text, message):
        with pytest.raises(ValueError) as info:
            compile_expr(text)
        assert str(info.value) == message

    def test_variable_name_in_the_message(self):
        with pytest.raises(ValueError) as info:
            compile_expr("cos(x)", var="theta")
        assert str(info.value) == "unknown name 'x'; only 'theta', pi, e are allowed"
