"""Weighted curvature, Laplacian, Bochner margins and the spectral gap."""

import math

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from negdimcd import (
    RotSphere,
    ScalarFunction1D,
    WeightedLine,
    bochner_margin,
    gaussian_line,
    laplacian_m,
    lebesgue_line,
    lichnerowicz,
    min_ricci_n,
    power_weight_line,
    product_certificate,
    product_direction_check,
    ricci_n,
    weighted_sum_certificate,
)
from negdimcd import geometry
from negdimcd.expr import compile_expr


def sphere(psi=None) -> RotSphere:
    return RotSphere(psi if psi is not None else ScalarFunction1D.constant(0.0))


def from_sympy(expr, var):
    """ScalarFunction1D with derivatives produced by symbolic differentiation."""
    d1 = sympy.diff(expr, var)
    d2 = sympy.diff(expr, var, 2)
    return ScalarFunction1D(
        fn=sympy.lambdify(var, expr, "numpy"),
        d1=sympy.lambdify(var, d1, "numpy"),
        d2=sympy.lambdify(var, d2, "numpy"),
        name=str(expr))


def assert_same_bits(psi, x, oracle):
    """psi, psi' and psi'' at the array x and at each of its points as
    floats have the bits of the oracle's three arrays."""
    for method, want in zip((psi, psi.deriv, psi.deriv2), oracle):
        assert method(x).tobytes() == want.tobytes()
        assert [np.float64(method(float(v))).tobytes() for v in x] == [
            w.tobytes() for w in want]


class TestBuiltInLines:
    """The Gaussian and power lines' psi is an expression tree; the oracle is
    the closed form each carried before, bit for bit."""

    # no |x| in (0, 1e-290): where curv*x is subnormal, the tree's psi' =
    # curv*(2*x)/2 rounds twice
    @settings(max_examples=300, deadline=None)
    @given(curv=st.floats(1e-3, 1e3),
           x=st.lists(st.floats(-1e3, 1e3).filter(lambda v: v == 0 or abs(v) > 1e-290),
                      min_size=1, max_size=16).map(np.array))
    def test_gaussian_tree_is_its_closed_form(self, curv, x):
        c0 = 0.5 * math.log(2.0 * math.pi / curv)
        assert_same_bits(gaussian_line(curv).psi, x,
                         (curv * np.square(x) / 2.0 + c0, curv * x, curv * np.ones_like(x)))

    @settings(max_examples=300, deadline=None)
    @given(a=st.floats(-20.0, 20.0),
           x=st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=16).map(np.array))
    def test_power_tree_is_its_closed_form(self, a, x):
        # one sign of zero moves: the tree's psi'' = 0/x - (-a)/x**2 reads +0.0
        # where a/x**2 read -0.0 (at a = -0.0, or underflowing)
        assert_same_bits(power_weight_line(a, 0.5, 8.0).psi, x,
                         (-a * np.log(x), -a / x, a / np.square(x) + 0.0))


class TestRicci:
    def test_round_sphere_is_one(self):
        sp = sphere()
        for theta in (0.3, 1.0, 2.5):
            for alpha in (0.0, 0.7, math.pi / 2):
                assert ricci_n(sp, theta, -2.0, alpha) == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_line_formula_vs_symbolic_oracle(self):
        x = sympy.symbols("x")
        N = -2.0
        psi_expr = x**2 / 2
        psi = from_sympy(psi_expr, x)
        # oracle: psi'' - psi'^2/(N-1), fully symbolic
        oracle_expr = sympy.diff(psi_expr, x, 2) - sympy.diff(psi_expr, x) ** 2 / (N - 1)
        oracle = sympy.lambdify(x, oracle_expr, "numpy")
        line = WeightedLine((-4.0, 4.0), psi)
        for pt in (-2.0, 0.0, 1.5, 3.0):
            assert ricci_n(line, pt, N) == pytest.approx(float(oracle(pt)), abs=1e-12)
            assert ricci_n(line, pt, N) >= 1.0  # K - K^2 x^2/(N-1) >= K for N < 1

    def test_model_power_weight_is_flat(self):
        # weight x^(N-1) has vanishing curvature at effective dimension N
        for N in (-1.0, -2.0, -7.5):
            line = power_weight_line(N - 1.0, 0.25, 9.0)
            for pt in (0.3, 1.0, 4.0):
                assert ricci_n(line, pt, N) == pytest.approx(0.0, abs=1e-12)

    def test_alternate_power_reading_is_not_flat(self):
        # weight x^N misses by one: curvature at dimension N is negative
        N = -2.0
        line = power_weight_line(N, 0.25, 9.0)
        vals = [ricci_n(line, pt, N) for pt in (0.3, 1.0, 4.0)]
        assert all(v < 0 for v in vals)
        # ... and vanishes one dimension up (at N + 1)
        assert ricci_n(line, 1.0, N + 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_dimension_parameter(self):
        line = gaussian_line(1.0)
        sp = sphere(from_sympy(sympy.Rational(3, 10) * sympy.cos(sympy.symbols("t")),
                               sympy.symbols("t")))
        for space, pts in ((line, (-1.0, 0.5, 2.0)), (sp, (0.5, 1.5, 2.8))):
            for pt in pts:
                for alpha in (0.0, 1.0):
                    vals = [ricci_n(space, pt, N, alpha) for N in (-8.0, -4.0, -2.0, -1.0, -0.5)]
                    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_limit_recovers_curvature_plus_hessian(self):
        line = gaussian_line(1.0)
        for pt in (-1.0, 0.7):
            be = float(line.psi.deriv2(pt))  # flat line: bare tensor is Hess psi
            errs = [abs(ricci_n(line, pt, N) - be) for N in (-10.0, -100.0, -1000.0)]
            assert errs[1] < errs[0] and errs[2] < errs[1]
            assert errs[2] <= 1e-2

    def test_pole_direction_uses_limit(self):
        t = sympy.symbols("t")
        sp = sphere(from_sympy(sympy.Rational(3, 10) * sympy.cos(t), t))
        near = ricci_n(sp, 1e-10, -2.0, math.pi / 2)
        # cot(theta) psi'(theta) -> psi''(0) = -0.3
        assert near == pytest.approx(1.0 - 0.3, abs=1e-9)


class TestMinRicci:
    def test_round_sphere_certificate(self):
        cert = min_ricci_n(sphere(), -2.0, np.linspace(0.1, math.pi - 0.1, 40))
        assert cert.K == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_line_minimum_at_origin(self):
        cert = min_ricci_n(gaussian_line(1.0), -2.0, np.linspace(-3.0, 3.0, 301))
        assert cert.K == pytest.approx(1.0, abs=1e-12)
        assert cert.worst_location[0] == pytest.approx(0.0, abs=1e-12)

    def test_certificate_is_an_info_report(self):
        # a measurement: it passes, and its margin is K at (point, direction)
        cert = min_ricci_n(sphere(), -2.0, np.linspace(0.1, math.pi - 0.1, 40))
        assert (cert.name, cert.status, cert.passed) == ("min-ricci", "info", True)
        assert cert.worst_margin == cert.K
        assert cert.n_evaluations == 40 * 2
        assert len(cert.worst_location) == 2
        assert cert.tolerance == 0.0

    def test_all_nan_grid_gives_infinite_k_at_no_location(self):
        line = WeightedLine((-3.0, 3.0), compile_expr("sqrt(x)"))
        with np.errstate(invalid="ignore", divide="ignore"):
            cert = min_ricci_n(line, -2.0, [-2.0, -1.0])
        assert (cert.K, cert.worst_margin, cert.worst_location) == (math.inf, math.inf, None)
        assert (cert.status, cert.passed, cert.n_evaluations) == ("info", True, 2)

    def test_model_weight_certificate_is_zero(self):
        line = power_weight_line(-3.0, 0.5, 4.0)
        cert = min_ricci_n(line, -2.0, np.linspace(0.6, 3.9, 100))
        assert cert.K == pytest.approx(0.0, abs=1e-12)


class TestLaplacian:
    def test_gaussian_drift_oracle(self):
        x = sympy.symbols("x")
        u_expr, psi_expr = x, x**2 / 2
        oracle = sympy.lambdify(
            x, sympy.diff(u_expr, x, 2) - sympy.diff(u_expr, x) * sympy.diff(psi_expr, x),
            "numpy")
        line = gaussian_line(1.0)
        u = from_sympy(u_expr, x)
        for pt in (-1.0, 0.0, 2.0):
            assert laplacian_m(line, u, pt) == pytest.approx(float(oracle(pt)), abs=1e-12)

    def test_constant_vanishes(self):
        assert laplacian_m(gaussian_line(1.0), ScalarFunction1D.constant(2.0), 0.5) == 0.0

    def test_sphere_harmonic(self):
        t = sympy.symbols("t")
        u = from_sympy(sympy.cos(t), t)
        for theta in (0.4, 1.1, 2.2):
            assert laplacian_m(sphere(), u, theta) == pytest.approx(
                -2.0 * math.cos(theta), abs=1e-12)


# the fixed Bochner test matrix: 12 (space, u, N) combinations
def _bochner_matrix():
    x, t = sympy.symbols("x t")
    lines = {
        "flat": (lebesgue_line(-3.0, 3.0), x),
        "gaussian": (gaussian_line(1.0), x),
        "coshlog": (WeightedLine((-3.0, 3.0), from_sympy(sympy.log(sympy.cosh(x)), x)), x),
    }
    us = {"x": x, "x2": x**2, "sinx": sympy.sin(x)}
    cases = []
    for lname, (space, var) in lines.items():
        for uname, u_expr in us.items():
            cases.append((f"{lname}/{uname}", space, from_sympy(u_expr, var), -2.0))
    cases.append(("sphere/cos/-2", sphere(), from_sympy(sympy.cos(t), t), -2.0))
    cases.append(("sphere/cos/-5", sphere(), from_sympy(sympy.cos(t), t), -5.0))
    wsp = sphere(from_sympy(sympy.Rational(3, 10) * sympy.cos(t), t))
    cases.append(("wsphere/cos/-2", wsp, from_sympy(sympy.cos(t), t), -2.0))
    return cases


BOCHNER_MATRIX = _bochner_matrix()


class TestBochner:
    def test_matrix_size(self):
        assert len(BOCHNER_MATRIX) == 12

    @pytest.mark.parametrize("label,space,u,N",
                             BOCHNER_MATRIX, ids=[c[0] for c in BOCHNER_MATRIX])
    def test_margin_nonnegative(self, label, space, u, N):
        lo, hi = space.interval
        pad = (hi - lo) * 0.02
        rep = bochner_margin(space, u, N, np.linspace(lo + pad, hi - pad, 40))
        assert rep.passed
        assert rep.worst_margin >= -1e-8

    def test_gaussian_line_analytic_value(self):
        # u = x on the gaussian line: margin = K^2 x^2 / (N (N-1))
        K, N = 1.0, -2.0
        line = gaussian_line(K)
        x = sympy.symbols("x")
        u = from_sympy(x, x)
        for pt in (0.0, 0.5, 1.5, 2.5):
            rep = bochner_margin(line, u, N, [pt])
            assert rep.worst_margin == pytest.approx(
                K**2 * pt**2 / (N * (N - 1.0)), abs=1e-9)

    def test_constant_function_all_terms_vanish(self):
        rep = bochner_margin(gaussian_line(1.0), ScalarFunction1D.constant(1.0),
                             -2.0, [0.3, 1.0])
        assert rep.worst_margin == pytest.approx(0.0, abs=1e-15)

    def test_margin_equals_quadratic_slack(self):
        # the 1-D margin is exactly N(N-1) (a/N + b/(N-1))^2 with
        # a = weighted laplacian, b = u' psi'
        x = sympy.symbols("x")
        u = from_sympy(sympy.sin(x), x)
        line = gaussian_line(1.0)
        N = -2.0
        for pt in (0.3, 1.2):
            rep = bochner_margin(line, u, N, [pt])
            a = laplacian_m(line, u, pt)
            b = float(u.deriv(pt)) * float(line.psi.deriv(pt))
            slack = N * (N - 1.0) * (a / N + b / (N - 1.0)) ** 2
            assert rep.worst_margin == pytest.approx(slack, abs=1e-9)


def _gamma2_oracle(var, u, psi, N, on_sphere):
    """The Bochner margin from the definition of Gamma_2, with an exact u''':
    L(u'^2/2) - u' (L u)' - Ric_N u'^2 - (L u)^2 / N, where L f is
    f'' - psi' f', plus cot(theta) f' on the sphere."""
    dpsi, d2psi = sympy.diff(psi, var), sympy.diff(psi, var, 2)
    if on_sphere:
        area, ric_n = sympy.cot(var), 1 + d2psi - dpsi**2 / (N - 2)
    else:
        area, ric_n = 0, d2psi - dpsi**2 / (N - 1)

    def lap(f):
        return sympy.diff(f, var, 2) + (area - dpsi) * sympy.diff(f, var)

    du = sympy.diff(u, var)
    margin = (lap(du**2 / 2) - du * sympy.diff(lap(u), var)
              - ric_n * du**2 - lap(u) ** 2 / N)
    return sympy.lambdify(var, margin, "mpmath")


class TestBochnerOracle:
    """bochner_margin by Bochner's formula equals Gamma_2 from its definition."""

    @pytest.mark.parametrize("N", [-2, -5])
    @pytest.mark.parametrize("on_sphere", [True, False], ids=["wsphere", "wline"])
    def test_matches_the_definition(self, on_sphere, N):
        if on_sphere:
            var = sympy.symbols("t")
            psi, u = sympy.Rational(3, 10) * sympy.cos(var), sympy.cos(var) + sympy.cos(2 * var)
            space = sphere(from_sympy(psi, var))
            grid = np.linspace(0.05, math.pi - 0.05, 41)
        else:
            var = sympy.symbols("x")
            psi, u = sympy.log(sympy.cosh(var)), var**3
            space = WeightedLine((-3.0, 3.0), from_sympy(psi, var))
            grid = np.linspace(-2.9, 2.9, 41)
        oracle = _gamma2_oracle(var, u, psi, sympy.Integer(N), on_sphere)
        with mpmath.workdps(40):
            want = [float(oracle(mpmath.mpf(float(pt)))) for pt in grid]
        got = [bochner_margin(space, from_sympy(u, var), float(N), [pt]).worst_margin
               for pt in grid]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


class TestLichnerowicz:
    def test_round_sphere_gap(self):
        res = lichnerowicz(sphere(), -2.0, mesh_size=2000)
        assert res.status == "checked"
        assert res.lambda1 == pytest.approx(2.0, abs=1e-3)
        assert res.bound == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert res.passed

    def test_nonconstant_weight_notes_radial_spectrum_only(self):
        res = lichnerowicz(sphere(compile_expr("cos(theta)", var="theta")), -2.0)
        assert res.status == "checked"
        assert res.note == "radial spectrum only; not claimed to be the full gap"
        assert res.lambda1 == pytest.approx(2.1997113730850346, rel=1e-9)

    def test_other_dimension_bound(self):
        res = lichnerowicz(sphere(), -10.0, mesh_size=1000)
        assert res.bound == pytest.approx(10.0 / 11.0, abs=1e-9)
        assert res.lambda1 == pytest.approx(2.0, abs=5e-3)
        assert res.passed

    def test_second_order_convergence(self):
        from negdimcd.geometry import _radial_lambda1
        sp = sphere()
        lams = [_radial_lambda1(sp, m) for m in (250, 500, 1000)]
        order = math.log2(abs(lams[0] - lams[1]) / abs(lams[1] - lams[2]))
        assert 1.7 <= order <= 2.3

    def test_vacuous_when_curvature_nonpositive(self):
        res = lichnerowicz(lebesgue_line(-1.0, 1.0), -2.0, mesh_size=400)
        assert res.status == "vacuous"
        assert res.passed
        assert res.K == pytest.approx(0.0, abs=1e-12)

    def test_coarse_mesh_inconclusive(self):
        res = lichnerowicz(sphere(), -2.0, mesh_size=8, tol=1e-6)
        assert res.status == "inconclusive"
        assert not res.passed

    def test_gaussian_line_advisory(self):
        res = lichnerowicz(gaussian_line(1.0), -2.0, mesh_size=4000)
        assert "advisory" in res.note
        # Hermite oracle: the gap of the drifted problem is the curvature itself
        assert res.lambda1 == pytest.approx(1.0, abs=1e-6)
        assert res.passed


def double_well(depth=6.0, radius=3.0) -> WeightedLine:
    return WeightedLine((-radius, radius), compile_expr(f"{depth}*(x**2-1)**2"))


ORACLE_SPACES = {
    "sphere": sphere,
    "gaussian": lambda: gaussian_line(1.0),
    "power": lambda: power_weight_line(2.0, 0.5, 3.0),
    "double-well": double_well,
}


def sturm_lambda1(space, mesh):
    """Second eigenvalue of the pencil A - lambda W of the same float64
    weights, by 40-digit Sturm-count bisection: the number of negative
    pivots of A - sigma W is the number of eigenvalues below sigma."""
    h, _, w_c, w_f = geometry._fv_weights(space, mesh)
    with mpmath.workdps(40):
        hh = mpmath.mpf(h) ** 2
        diag = [(mpmath.mpf(w_f[i]) + mpmath.mpf(w_f[i + 1])) / hh for i in range(mesh)]
        wc = [mpmath.mpf(w) for w in w_c]
        off2 = [(mpmath.mpf(w) / hh) ** 2 for w in w_f[1:-1]]

        def below(sigma):
            count, pivot = 0, diag[0] - sigma * wc[0]
            for i in range(mesh):
                if i:
                    pivot = diag[i] - sigma * wc[i] - off2[i - 1] / pivot
                if pivot == 0:
                    pivot = mpmath.mpf(10) ** -60
                count += pivot < 0
            return count

        lo, hi = mpmath.mpf(0), 4 * max(d / w for d, w in zip(diag, wc))
        while hi - lo > hi * mpmath.mpf(10) ** -20:
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if below(mid) >= 2 else (mid, hi)
        return hi


class TestRadialLambda1:
    @pytest.mark.parametrize("mesh", [3, 64, 200])
    @pytest.mark.parametrize("name", sorted(ORACLE_SPACES))
    def test_matches_sturm_bisection(self, name, mesh):
        # mesh 3 leaves a two-dimensional complement: Lanczos exhausts it
        space = ORACLE_SPACES[name]()
        got = geometry._radial_lambda1(space, mesh)
        want = sturm_lambda1(space, mesh)
        assert abs(got - want) <= 1e-13 * want

    @pytest.mark.parametrize("name", sorted(ORACLE_SPACES))
    def test_matches_lapack_at_2000_cells(self, name):
        # LAPACK on the symmetrized matrix, whose absolute tolerance eps*||T||
        # is about 2e-10 of lambda1 here.  The double well is a shallow one:
        # a deep one underflows sqrt(w_c[:-1]*w_c[1:])
        space = double_well(1.0, 2.5) if name == "double-well" else ORACLE_SPACES[name]()
        h, _, w_c, w_f = geometry._fv_weights(space, 2000)
        diag = (w_f[:-1] + w_f[1:]) / (w_c * h * h)
        off = -w_f[1:-1] / (h * h * np.sqrt(w_c[:-1] * w_c[1:]))
        want = eigh_tridiagonal(diag, off, select="i", select_range=(0, 1),
                                eigvals_only=True)[1]
        assert geometry._radial_lambda1(space, 2000) == pytest.approx(want, rel=1e-9, abs=0)

    @pytest.mark.parametrize("psi, value", [("30*(x**2-1)**2", 0.0), ("-200*x**2", math.inf)],
                             ids=["underflow", "overflow"])
    def test_weight_out_of_range_is_named(self, psi, value):
        space = WeightedLine((-3.0, 3.0), compile_expr(psi))
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match=rf"the weight is {value!r} at x=-2\.997;"):
            lichnerowicz(space, -2.0, mesh_size=2000)

    def test_unconverged_solve_is_inconclusive(self, monkeypatch):
        monkeypatch.setattr(geometry, "_LANCZOS_STEPS", 2)
        assert math.isnan(geometry._radial_lambda1(sphere(), 200))
        res = lichnerowicz(sphere(), -2.0, mesh_size=200)
        assert res.status == "inconclusive"
        assert not res.passed
        assert math.isnan(res.lambda1)
        assert res.note == "lambda1 did not converge in 2 Lanczos steps"


class TestCertificateCalculus:
    def test_weighted_sum(self):
        assert weighted_sum_certificate((0.0, 1.0), (0.0, -3.0), n=1) == (0.0, -2.0)
        assert weighted_sum_certificate((1.0, 2.0), (0.0, -5.0), n=2) == (1.0, -3.0)
        with pytest.raises(ValueError):
            weighted_sum_certificate((0.0, 2.0), (0.0, -1.0), n=1)
        with pytest.raises(ValueError):
            weighted_sum_certificate((0.0, 0.5), (0.0, -3.0), n=1)

    def test_product(self):
        assert product_certificate((0.0, -5.0), (0.0, 1.0), n2=1) == (0.0, -4.0)
        with pytest.raises(ValueError, match="same K"):
            product_certificate((1.0, -5.0), (0.0, 1.0), n2=1)
        with pytest.raises(ValueError):
            product_certificate((0.0, -1.0), (0.0, 2.0), n2=1)

    def test_product_direction_grid(self):
        x = sympy.symbols("x")
        psi1 = from_sympy(x**2 / 2, x)
        psi2 = ScalarFunction1D.constant(0.0)
        rep = product_direction_check(psi1, psi2, -4.0, 1.0,
                                      np.linspace(-2.0, 2.0, 9),
                                      np.linspace(-2.0, 2.0, 9))
        assert rep.passed
        # and a genuinely weighted second factor
        psi2 = from_sympy(x**2 / 2, x)
        rep = product_direction_check(psi1, psi2, -6.0, 2.0,
                                      np.linspace(-2.0, 2.0, 7),
                                      np.linspace(-2.0, 2.0, 7))
        assert rep.passed

    def test_product_direction_rejects_a_weighted_one_dimensional_factor(self):
        # N2 = 1 is the intrinsic dimension of the line: only a constant weight is allowed
        x = sympy.symbols("x")
        with pytest.raises(ValueError, match="effective dimension equals intrinsic "
                                             "dimension with a nonconstant weight"):
            product_direction_check(from_sympy(x**2 / 2, x), from_sympy(x**2 / 2, x),
                                    -4.0, 1.0, np.linspace(-2.0, 2.0, 5),
                                    np.linspace(-2.0, 2.0, 5))
