"""Scalar functions give the same bits for every kind of scalar argument."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from negdimcd import example_function
from negdimcd.expr import compile_expr

from test_expr import X, _binop, _call, _neg, constants, expressions

KINDS = ("float", "float64", "0-d array", "1-element array")


def call_kinds(g, x: float):
    """g at x passed as each kind of argument, as floats."""
    values = [g(x), g(np.float64(x)), g(np.array(x)), g(np.array([x]))]
    assert [np.shape(v) for v in values] == [(), (), (), (1,)]
    return [float(np.ravel(v)[0]) for v in values]


def assert_same_bits(values, kinds=KINDS):
    first = values[0]
    for kind, value in zip(kinds, values):
        same = (np.float64(value).tobytes() == np.float64(first).tobytes()
                or (math.isnan(value) and math.isnan(first)))
        assert same, (kind, value, first)


# (kind, K range, x range inside the family's domain at |N| <= 6, |K| <= 3)
FAMILIES = [("a", (0.1, 3.0), (-5.0, 5.0)), ("b", (0.1, 3.0), (1e-3, 5.0)),
            ("c", (0.0, 0.0), (1e-3, 5.0)), ("d", (-3.0, -0.1), (-0.2, 0.2))]


@st.composite
def family_points(draw):
    kind, (k_lo, k_hi), (x_lo, x_hi) = draw(st.sampled_from(FAMILIES))
    K = draw(st.floats(k_lo, k_hi))
    N = draw(st.floats(-6.0, -0.5))
    return kind, K, N, draw(st.floats(x_lo, x_hi))


class TestFamilies:
    @settings(max_examples=200, deadline=None)
    @given(family_points())
    # -N w^2/cosh(w x)^2: libm's pow squared the numpy scalar cosh(w x) one ulp
    # above the square an array call takes
    @example(("a", 1.0, -2.0, 2.268))
    def test_every_argument_kind_gives_the_same_bits(self, point):
        kind, K, N, x = point
        f, _ = example_function(kind, K, N)
        with np.errstate(all="ignore"):
            for g in (f, f.deriv, f.deriv2):
                assert_same_bits(call_kinds(g, x))


# the grammar without the nodes whose trees or derivative trees raise to a
# power (**, /, log, sqrt, tan, tanh): ** on a numpy scalar is libm's pow,
# which can differ in the last bit from the array power that squares exactly
def _extend_powerless(inner):
    operand = st.one_of(inner, constants)
    arithmetic = st.sampled_from(["+", "-", "*"])
    return st.one_of(
        st.builds(_call, st.sampled_from(["abs", "cos", "cosh", "exp", "sin", "sinh"]),
                  inner),
        st.builds(_binop, arithmetic, inner, operand),
        st.builds(_binop, arithmetic, operand, inner),
        st.builds(_neg, inner))


powerless = st.recursive(st.just(("x", X)), _extend_powerless, max_leaves=6)
points = st.floats(-3.0, 3.0)


class TestExpressions:
    @settings(max_examples=150, deadline=None)
    @given(expressions, points)
    def test_scalar_kinds_give_the_same_bits(self, expression, x):
        f = compile_expr(expression[0])
        with np.errstate(all="ignore"):
            for g in (f, f.deriv, f.deriv2):
                assert_same_bits(call_kinds(g, x)[:3], KINDS[:3])

    @settings(max_examples=150, deadline=None)
    @given(powerless, points)
    def test_every_argument_kind_gives_the_same_bits(self, expression, x):
        f = compile_expr(expression[0])
        with np.errstate(all="ignore"):
            for g in (f, f.deriv, f.deriv2):
                assert_same_bits(call_kinds(g, x))
