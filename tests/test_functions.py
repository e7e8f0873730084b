"""Scalar functions give the same bits for every kind of scalar argument."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from negdimcd import example_function
from negdimcd.expr import compile_expr

from test_expr import expressions

KINDS = ("float", "float64", "0-d array", "1-element array")


def call_kinds(g, x: float):
    """g at x passed as each kind of argument, as floats."""
    values = [g(x), g(np.float64(x)), g(np.array(x)), g(np.array([x]))]
    assert [np.shape(v) for v in values] == [(), (), (), (1,)]
    return [float(np.ravel(v)[0]) for v in values]


def assert_same_bits(values):
    first = values[0]
    for kind, value in zip(KINDS, values):
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


points = st.floats(-3.0, 3.0)


class TestExpressions:
    @settings(max_examples=150, deadline=None)
    @given(expressions, points)
    # libm's pow gave the numpy scalar 7.974696525904486, one ulp above the
    # correctly rounded square an array call takes
    @example(("(x ** 2)", None), -2.8239505176090614)
    def test_every_argument_kind_gives_the_same_bits(self, expression, x):
        f = compile_expr(expression[0])
        with np.errstate(all="ignore"):
            for g in (f, f.deriv, f.deriv2):
                assert_same_bits(call_kinds(g, x))
