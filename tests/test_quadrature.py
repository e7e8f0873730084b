"""Panel-doubling Gauss-Legendre quadrature, and the Gauss-Legendre rule
itself against a 40-digit oracle."""

import re

import mpmath
import numpy as np
import pytest

from negdimcd import quadrature
from negdimcd.quadrature import MAX_DOUBLINGS, QuadratureError, integrate
from negdimcd.transport import uniform_density, w2

UNIFORM = uniform_density(0.0, 1.0)


def test_evaluation_count_formula():
    # n0 * panels * (2**(d + 1) - 1) evaluations after d doublings
    res = integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, n0=8, panels=2,
                    strict=False)
    assert not res.converged
    assert res.n_evaluations == 8 * 2 * (2 ** (MAX_DOUBLINGS + 1) - 1)


def test_gauss_order_never_grows(monkeypatch):
    orders = []
    leggauss = quadrature._leggauss

    def recording(n):
        orders.append(n)
        return leggauss(n)

    monkeypatch.setattr(quadrature, "_leggauss", recording)
    with pytest.raises(QuadratureError):
        integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
    assert max(orders) == 64


def test_failure_reports_the_last_change():
    res = integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, strict=False)
    assert not res.converged and res.error_estimate > 0.0
    with pytest.raises(QuadratureError, match="last delta") as exc:
        integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
    assert float(str(exc.value).split("last delta ")[1].rstrip(")")) == res.error_estimate


# -- one rule for quadrature sizes ---------------------------------------------

@pytest.mark.parametrize("call, value", [
    (lambda: quadrature.gl_nodes(0.0, 1.0, 0), "0"),
    (lambda: quadrature.gl_nodes(0.0, 1.0, -3), "-3"),
    (lambda: quadrature.gl_nodes(0.0, 1.0, 2.5), "2.5"),
    (lambda: quadrature.gl_nodes(0.0, 1.0, 5, 0), "0"),
    (lambda: quadrature.gl_nodes(0.0, 1.0, 5, 1.0), "1.0"),
    (lambda: integrate(np.cos, 0.0, 1.0, panels=0), "0"),
    (lambda: integrate(np.cos, 0.0, 1.0, n0=0), "0"),
    (lambda: UNIFORM.interior_nodes(0), "0"),
    (lambda: w2(UNIFORM, UNIFORM, n_nodes=0), "0"),
    (lambda: w2(UNIFORM, UNIFORM, n_nodes=-10), "-10"),
], ids=["n0", "n-negative", "n-float", "panels0", "panels-float", "integrate-panels0",
        "integrate-n0", "interior-nodes0", "w2-nodes0", "w2-nodes-negative"])
def test_sizes_are_integers_of_at_least_one(call, value):
    # these returned an empty rule (a 0.0 integral, reported converged), raised
    # numpy's "deg must be a positive integer" or a ZeroDivisionError
    with pytest.raises(ValueError, match=rf"must be an integer >= 1, got {re.escape(value)}$"):
        call()


# -- the Gauss-Legendre rule against a 40-digit oracle -------------------------

ORDERS = [*range(1, 11), 50, 64, 128, 512]
EPS = np.finfo(float).eps


def mp_root_and_weight(n, x):
    """The root of P_n next to x and its Gauss weight, by Newton's method on
    mpmath's hypergeometric P_n at 40 digits."""
    r = mpmath.mpf(float(x))
    for _ in range(3):
        p, q = mpmath.legendre(n, r), mpmath.legendre(n - 1, r)
        dp = n * (q - r * p) / (1 - r * r)
        r -= p / dp
    return r, 2 / ((1 - r * r) * dp * dp)


@pytest.mark.parametrize("n", ORDERS)
def test_rule_matches_the_mpmath_roots(n):
    x, w = quadrature._leggauss(n)
    with mpmath.workdps(40):
        for i in range(0, n, 8 if n == 512 else 1):
            root, weight = mp_root_and_weight(n, x[i])
            # 2 ulps of the node, and of 1/2 below it: 2.2e-16 near 0
            assert abs(x[i] - root) <= 2 * np.spacing(max(abs(float(root)), 0.5)), i
            assert abs(w[i] / weight - 1) <= 1e-12, i


@pytest.mark.parametrize("n", ORDERS)
def test_rule_is_symmetric_and_sums_to_two(n):
    x, w = quadrature._leggauss(n)
    assert x.shape == w.shape == (n,)
    assert np.all(np.diff(x) > 0) and -1.0 < x[0] and x[-1] < 1.0
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert abs(np.sum(w) - 2.0) <= 4 * EPS


@pytest.mark.parametrize("n", range(1, 11))
def test_rule_integrates_polynomials_of_degree_below_2n(n):
    x, w = quadrature._leggauss(n)
    for k in range(2 * n):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.sum(w * x**k) - exact) <= 8 * EPS, k


def test_cached_rule_is_read_only():
    x, w = quadrature._leggauss(64)
    assert quadrature._leggauss(64)[0] is x
    for arr in (x, w):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
