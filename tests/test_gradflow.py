"""Integrator oracles and the gradient-flow inequality checkers."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from negdimcd import (
    ConvexityParams,
    GradientCurve,
    ScalarFunction1D,
    check_pointwise,
    claim_convexity_margin,
    example_function,
    expansion_bound,
    integrate_flow,
    local_slope,
    metric_speed,
    regularizing_bounds,
    verify_edi,
    verify_evi,
    verify_evi_classical,
    verify_evi_integrated,
)

from negdimcd.expr import compile_expr
from negdimcd.gradflow import GRAD_CAP, RK4_LIMIT
from negdimcd.quadrature import integrate

from conftest import linear, quadratic
from test_expr import expressions

EVI_LATTICE_N = (-1.0, -2.0, -10.0)
EVI_LATTICE_Z = (-1.0, 0.0, 2.0)


class TestIntegrator:
    def test_quadratic_matches_exponential(self, quad_flow):
        exact = np.exp(-quad_flow.times)
        assert np.max(np.abs(quad_flow.points - exact)) <= 1e-8

    def test_constant_potential_is_stationary(self):
        curve = integrate_flow(ScalarFunction1D.constant(2.0), 0.7, 1.0, 1e-2)
        assert np.all(curve.points == 0.7)

    def test_linear_potential_translates(self):
        a = 0.8
        curve = integrate_flow(linear(a), 1.0, 1.0, 1e-2)
        assert np.max(np.abs(curve.points - (1.0 - a * curve.times))) <= 1e-12

    def test_unprojected_curve_has_no_note(self, quad_flow):
        assert quad_flow.note == ""
        curve = integrate_flow(quadratic(1.0), 1.0, 2.0, 2e-3, domain=(-3.0, 3.0))
        assert curve.note == ""

    @pytest.mark.parametrize("horizon, step, message", [
        (math.inf, 1e-2, "horizon must be finite, got inf"),
        (math.nan, 1e-2, "horizon must be finite, got nan"),
        (1.0, math.inf, "step must be positive and finite, got inf"),
        (1.0, math.nan, "step must be positive and finite, got nan"),
    ])
    def test_nonfinite_horizon_or_step_rejected(self, horizon, step, message):
        # round(inf / step) raised OverflowError before any step was taken
        with pytest.raises(ValueError, match=message):
            integrate_flow(quadratic(1.0), 1.0, horizon, step)

    def test_blowup_truncates_with_note(self):
        # x(t) = e^{2t} passes the gradient cap 1e8 between t = 8.87 and 8.88
        steep = ScalarFunction1D(
            fn=lambda x: -np.asarray(x, dtype=float) ** 2,
            d1=lambda x: -2.0 * np.asarray(x, dtype=float),
            d2=lambda x: -2.0 * np.ones_like(np.asarray(x, dtype=float)))
        curve = integrate_flow(steep, 1.0, 40.0, 1e-2)
        assert curve.times[-1] == pytest.approx(8.87)
        assert "is above the gradient cap 100000000.0" in curve.note

    @pytest.mark.parametrize("x0", [2.0, -1.5, 0.5])
    def test_log_cosh_closed_form(self, x0):
        # x' = -tanh(x) gives sinh(x(t)) = sinh(x0) e^{-t}
        curve = integrate_flow(compile_expr("log(cosh(x))"), x0, 2.0, 1e-2)
        err = np.sinh(curve.points) - math.sinh(x0) * np.exp(-curve.times)
        assert curve.note == "" and np.max(np.abs(err)) <= 3e-11

    @pytest.mark.parametrize("text, x0", [("x**4/4 + x**2/2", 1.5),
                                          ("log(cosh(x)) + x**2/2", -2.0)])
    def test_times_match_the_quadrature_oracle(self, text, x0):
        # a monotone descent reaches y at t(y) = int_y^x0 dy/|f'(y)|, which
        # Gauss-Legendre quadrature computes without RK4
        f = compile_expr(text)
        curve = integrate_flow(f, x0, 1.5, 1e-2)
        assert curve.note == "" and np.all(np.diff(np.abs(curve.points)) < 0)
        t = [integrate(lambda y: 1.0 / np.abs(f.deriv(y)), *sorted((x, x0))).value
             for x in curve.points[1:]]
        assert np.max(np.abs(np.asarray(t) - curve.times[1:])) <= 1e-8


def counting(f: ScalarFunction1D):
    """f with d1 and d2 that count their calls, and the points d2 sees, in
    the returned dict."""
    calls = {"d1": 0, "d2": 0, "d2 points": 0}

    def counted(name, g):
        def call(x):
            calls[name] += 1
            if name == "d2":
                calls["d2 points"] += np.size(x)
            return g(x)
        return call

    return ScalarFunction1D(fn=f.fn, d1=counted("d1", f.d1), d2=counted("d2", f.d2),
                            name=f.name), calls


def plain_rk4(d1, x0: float, h: float, n: int) -> list[float]:
    """n classical RK4 steps of x' = -d1(x), in Python floats."""
    xs = [x0]
    for _ in range(n):
        x = xs[-1]
        k1 = -float(d1(x))
        k2 = -float(d1(x + h / 2 * k1))
        k3 = -float(d1(x + h / 2 * k2))
        k4 = -float(d1(x + h * k3))
        xs.append(x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4))
    return xs


class TestStep:
    @pytest.mark.parametrize("f, d1, x0, step", [
        (compile_expr("x**4/4 + x**2/2"), None, 1.5, 1e-3),
        # family c at N = -2: f' = 2/x
        (example_function("c", 0.0, -2.0)[0], lambda x: 2.0 / x, 2.0, 5e-4),
    ], ids=["expr", "family-c"])
    def test_curve_is_the_rk4_formula_bit_for_bit(self, f, d1, x0, step):
        counted, calls = counting(f)
        curve = integrate_flow(counted, x0, 1.0, step)
        n = len(curve) - 1
        assert curve.note == "" and n == round(1.0 / step)
        # four stages of f' per step; f'' at each step's start, 256 starts a call
        assert calls == {"d1": 4 * n, "d2": math.ceil(n / 256), "d2 points": n}
        want = plain_rk4(d1 or f.deriv, x0, step, n)
        assert curve.points.tobytes() == np.array(want).tobytes()


def checked_loop(f: ScalarFunction1D, x0: float, horizon: float, step: float,
                 domain=None):
    """The flow as a loop that makes the stability test at every step:
    (points, note), or the ValueError of a stop before the first step."""
    lo, hi = (-math.inf, math.inf) if domain is None else domain
    xs = [x0]
    for i in range(round(horizon / step)):
        x, cause = xs[-1], ""
        k = [-float(f.deriv(x))]
        z = step * abs(float(f.deriv2(x)))
        if not abs(k[0]) <= GRAD_CAP:
            cause = f"|f'| = {abs(k[0])!r} is above the gradient cap {GRAD_CAP!r}"
        elif not z <= RK4_LIMIT:
            cause = f"step*|f''| = {z!r} is beyond RK4's stability limit {RK4_LIMIT!r}"
        else:
            for c in (0.5, 0.5, 1.0):
                y = x + c * step * k[-1]
                if not (lo <= y <= hi and math.isfinite(y)):
                    cause = f"a stage point {y!r} is outside the domain ({lo!r}, {hi!r})"
                    break
                k.append(-float(f.deriv(y)))
            else:
                y = x + step / 6.0 * (k[0] + 2.0 * k[1] + 2.0 * k[2] + k[3])
                if not (lo <= y <= hi and math.isfinite(y)):
                    cause = f"the endpoint {y!r} is outside the domain ({lo!r}, {hi!r})"
        if cause:
            note = f"curve stops before the step of {step!r} from t={i * step!r}, x={x!r}: {cause}"
            if i == 0:
                raise ValueError(note)
            return xs, note
        xs.append(y)
    return xs, ""


def outcome(integrate_curve, *args):
    """(points, note, error, warnings) of integrate_curve(*args), every
    warning recorded in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = integrate_curve(*args)
        except ValueError as exc:
            out, error = None, str(exc)
        else:
            error = None
    if isinstance(out, GradientCurve):
        out = (out.points, out.note)
    points, note = (None, None) if out is None else (np.array(out[0]).tobytes(), out[1])
    return points, note, error, [(w.category, str(w.message)) for w in caught]


H = 2.0 ** -6   # the step of the stops below


def stop_at(cause: str, k: int):
    """A flow xi' = 1 from 0 that `cause` stops at step k, and its domain.

    The start points are those of plain RK4 on xi' = 1; a threshold a
    quarter step before or after the k-th switches f', f'' or the domain.
    """
    p = plain_rk4(lambda x: -1.0, 0.0, H, k)[k]
    before, after = p - H / 4, p + H / 4
    d1, d2 = (lambda x: -1.0), (lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    domain = None
    if cause.startswith("cap"):
        # the last stage of step k - 1 sees the steep f' and throws the next
        # start far: |f'| = 1e9 there
        d1 = lambda x: -1.0 if x < before else -1e9
    if cause.endswith("stability"):
        d2 = lambda x: np.where(np.asarray(x) < before, 0.0, 1e6)
    if cause == "stability-nan":
        # f'' is NaN past the threshold, and numpy warns of it
        d2 = lambda x: 0.0 * np.sqrt(before - np.asarray(x))
    if cause.startswith("stage"):
        domain = (-1.0, after)
    if cause.startswith("endpoint"):
        # every stage of step k is finite, and their sum overflows
        d1 = lambda x: -1.0 if x < after else -1e308
    return ScalarFunction1D(fn=lambda x: -x, d1=d1, d2=d2), domain


class TestBatchedStability:
    """One f'' call tests 256 steps; the curve is the checked loop's."""

    @pytest.mark.parametrize("k", [0, 255, 256, 257])
    @pytest.mark.parametrize("cause, text", [
        ("cap", "is above the gradient cap"),
        ("stability", "step*|f''| = 15625.0 is beyond"),
        ("stability-nan", "step*|f''| = nan is beyond"),
        ("stage", "a stage point"),
        ("endpoint", "the endpoint inf is outside the domain (-inf, inf)"),
        # the cap's cause beats the stability test of the same step, and that
        # test beats a stage or endpoint cause
        ("cap-and-stability", "|f'| = 1000000000.0 is above the gradient cap"),
        ("stage-and-stability", "step*|f''| = 15625.0 is beyond"),
        ("endpoint-and-stability", "step*|f''| = 15625.0 is beyond"),
    ])
    def test_stop_is_the_checked_loops(self, cause, text, k):
        f, domain = stop_at(cause, k)
        want = outcome(checked_loop, f, 0.0, 400 * H, H, domain)
        assert outcome(integrate_flow, f, 0.0, 400 * H, H, domain) == want
        message = want[2] if k == 0 else want[1]
        assert message.startswith(f"curve stops before the step of {H!r} from t={k * H!r}, ")
        assert text in message
        assert len(want[3]) == (cause == "stability-nan")

    @pytest.mark.parametrize("errors", ["warn", "ignore", "raise"])
    def test_steps_past_an_unstable_one_leave_no_trace(self, errors):
        # unchecked, the steps after t = 1.0 overflow exp before the batch's
        # f'' call; the batch is replayed step by step and nothing warns
        f = compile_expr("-exp(x)")
        with np.errstate(all=errors):
            want = outcome(checked_loop, f, 0.0, 1.2, 0.01)
            assert outcome(integrate_flow, f, 0.0, 1.2, 0.01) == want
        assert want[1] == ("curve stops before the step of 0.01 from t=1.0, "
                           "x=7.7117091051180955: step*|f''| = 22.34357748983914 "
                           "is beyond RK4's stability limit 2.785")
        assert want[3] == []

    @pytest.mark.parametrize("x0, domain", [
        (math.nan, None), (math.inf, None), (-math.inf, (0.5, 3.0)),
        (-1.0, (0.5, 3.0)), (3.5, (0.5, 3.0)), (math.nan, (0.5, 3.0)),
    ])
    def test_start_outside_the_domain_is_rejected(self, x0, domain):
        # x0 = nan read "|f'| = nan is above the gradient cap", and x0 = -1
        # "a stage point -0.995 is outside the domain"
        lo, hi = domain or (-math.inf, math.inf)
        message = f"x0 must be finite and in the domain ({lo!r}, {hi!r}), got {x0!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            integrate_flow(compile_expr("log(x)"), x0, 1.0, 1e-2, domain)

    def test_start_on_the_domain_edge_is_a_start(self):
        curve = integrate_flow(compile_expr("-x"), 0.5, 0.25, 0.25, domain=(0.0, 0.75))
        assert curve.points.tolist() == [0.5, 0.75]


def same_bits(a, b) -> bool:
    """a and b hold the same floats bit for bit, any NaN matching any NaN."""
    nan = np.isnan(b)
    return bool((np.isnan(a) == nan).all()) and a[~nan].tobytes() == b[~nan].tobytes()


class TestArraySecondDerivative:
    """The batched stability test relies on f'' of an array being f'' of
    each element as a float, bit for bit."""

    @staticmethod
    def elementwise(f, xs):
        with np.errstate(all="ignore"):
            array = np.asarray(f.deriv2(np.array(xs)), dtype=float)
            each = np.array([float(f.deriv2(float(x))) for x in xs])
        return array, each

    @settings(max_examples=300, deadline=None)
    @given(expressions, st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=40))
    def test_expressions(self, expression, xs):
        array, each = self.elementwise(compile_expr(expression[0]), xs)
        assert same_bits(array, each), (expression[0], xs)

    @pytest.mark.parametrize("kind, K", [("a", 1.0), ("b", 1.0), ("c", 0.0), ("d", -1.0)])
    @settings(max_examples=50, deadline=None)
    @given(N=st.sampled_from([-0.5, -2.0, -10.0]),
           u=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40))
    def test_families(self, kind, K, N, u):
        f, (lo, hi) = example_function(kind, K, N)
        # points of the family's domain: on (0, inf), (-inf, inf) or (-L, L)
        xs = [abs(v) * 5.0 if lo == 0.0 else v * min(hi, 5.0) for v in u]
        array, each = self.elementwise(f, xs)
        assert same_bits(array, each), (kind, N, xs)


class TestGridTimes:
    def test_grid_times_give_their_index(self, quad_flow):
        # the samples' own times, times rounded as round(t/step)*step, and
        # decimal times such as the configs'
        step = quad_flow.step
        assert [quad_flow.index_at(t) for t in quad_flow.times] == list(range(len(quad_flow)))
        for t in np.random.default_rng(3).uniform(0.0, 2.0, 200):
            assert quad_flow.index_at(float(np.round(t / step) * step)) == round(t / step)
        assert quad_flow.index_at(0.1) == 100 and quad_flow.index_at(0.5) == 500

    @pytest.mark.parametrize("t, message", [
        (0.1005, "time 0.1005 is not on the curve grid of step 0.001"),
        (0.1 + 1e-12, "is not on the curve grid"),
        (2.001, r"time 2.001 is outside the curve's span \[0, 2.0\]"),
        (-0.001, "is outside the curve's span"),
        (math.nan, "time nan is outside the curve's span"),
    ])
    def test_off_grid_time_is_rejected(self, quad_flow, t, message):
        with pytest.raises(ValueError, match=message):
            quad_flow.index_at(t)


class TestStopRule:
    """A curve stops before the first step it cannot take as a descent step."""

    def test_domain_exit_stops_the_curve(self):
        # the exact flow of -x is x0 + t; the step from 0.8 reaches 1.1
        curve = integrate_flow(compile_expr("-x"), 0.5, 1.2, 0.3, domain=(0.0, 1.0))
        assert curve.points.tolist() == [0.5, 0.8]
        assert curve.note == ("curve stops before the step of 0.3 from t=0.3, x=0.8: "
                              "a stage point 1.1 is outside the domain (0.0, 1.0)")

    def test_stop_is_noted(self):
        # the exact curve sqrt(1 - 2t) of log(x) from 1 reaches 0.5 at t = 0.375
        curve = integrate_flow(compile_expr("log(x)"), 1.0, 2.0, 1e-2, domain=(0.5, 3.0))
        assert curve.times[-1] == 0.37
        assert curve.note.startswith("curve stops before the step of 0.01 from t=0.37, "
                                     "x=0.5099019")
        assert curve.note.endswith("is outside the domain (0.5, 3.0)")
        assert np.max(np.abs(curve.points - np.sqrt(1.0 - 2.0 * curve.times))) <= 1e-6

    def test_stage_points_stay_inside(self):
        # x' = -2/x reaches 0.05 at t = 0.249; a step from there would take
        # f' at stage points down to -0.34, where it has the wrong sign
        f, _ = example_function("c", 0.0, -2.0)
        curve = integrate_flow(f, 1.0, 1.0, 1e-2, domain=(0.05, 3.0))
        assert curve.times[-1] == 0.24
        assert np.all(curve.points > 0.05) and np.all(np.diff(curve.points) < 0)
        assert "a stage point" in curve.note

    def test_endpoint_outside_stops_the_curve(self):
        # x' = e^{10x} speeds up within the step: from 0 every stage point
        # lies below 0.069, the endpoint above
        with pytest.raises(ValueError, match=r"from t=0.0, x=0.0: the endpoint 0.0693\d* "
                                             r"is outside the domain \(-1.0, 0.069\)"):
            integrate_flow(compile_expr("-exp(10*x)/10"), 0.0, 0.1, 0.05,
                           domain=(-1.0, 0.069))

    @pytest.mark.parametrize("domain", [None, (0.0, 1.2)], ids=["unbounded", "bounded"])
    def test_unstable_step_raises(self, domain):
        # h*f'' = 3 is beyond RK4's real-axis limit, where a step amplifies
        # the distance to the minimum 0.01 instead of shrinking it
        with pytest.raises(ValueError, match=r"from t=0.0, x=1.0: step\*\|f''\| = 3.0 "
                                             r"is beyond RK4's stability limit 2.785"):
            integrate_flow(compile_expr("150*(x - 0.01)**2"), 1.0, 1.0, 0.01, domain)


class TestSlopeAndSpeed:
    def test_slope_values(self):
        assert local_slope(quadratic(1.0), 1.0) == 1.0
        assert local_slope(ScalarFunction1D.constant(5.0), 0.3) == 0.0

    def test_metric_speed_tracks_exponential(self, quad_flow):
        for i in (100, 500, 1500):
            expected = math.exp(-quad_flow.times[i])
            assert metric_speed(quad_flow, i) == pytest.approx(expected, abs=1e-6)


class TestEnergyDissipation:
    def test_quadratic_residual(self, quad_flow):
        rep = verify_edi(quad_flow, quadratic(1.0), 0.1, 1.5)
        assert rep.passed
        assert abs(rep.worst_margin) <= 1e-6

    def test_constant_identity(self):
        f = ScalarFunction1D.constant(1.0)
        curve = integrate_flow(f, 0.2, 1.0, 1e-2)
        rep = verify_edi(curve, f, 0.1, 0.9)
        assert rep.worst_margin == pytest.approx(0.0, abs=1e-14)

    def test_linear_identity(self):
        a = 1.3
        f = linear(a)
        curve = integrate_flow(f, 0.0, 1.0, 1e-3)
        rep = verify_edi(curve, f, 0.2, 0.8)
        # drop = a^2 (t-s), integral of speeds^2+slopes^2 = 2 a^2 (t-s)
        assert abs(rep.worst_margin) <= 1e-10

    def test_residual_order_two(self):
        f = quadratic(1.0)
        resids = []
        for step in (4e-3, 2e-3, 1e-3):
            curve = integrate_flow(f, 1.0, 2.0, step)
            rep = verify_edi(curve, f, 0.2, 1.8)
            resids.append(abs(rep.worst_margin))
        orders = [math.log2(r1 / r2) for r1, r2 in zip(resids, resids[1:])]
        assert min(orders) >= 1.9


class TestEVI:
    @pytest.mark.parametrize("N", EVI_LATTICE_N)
    @pytest.mark.parametrize("z", EVI_LATTICE_Z)
    def test_quadratic_flow_differential(self, quad_flow, N, z):
        rep = verify_evi(quad_flow, quadratic(1.0), 1.0, N, z)
        assert rep.passed

    @pytest.mark.parametrize("N", EVI_LATTICE_N)
    @pytest.mark.parametrize("z", EVI_LATTICE_Z)
    def test_quadratic_flow_integrated(self, quad_flow, N, z):
        rep = verify_evi_integrated(quad_flow, quadratic(1.0), 1.0, N, z, 0.1, 0.5)
        assert rep.passed and rep.worst_margin >= 0.0

    def test_sharp_in_k(self):
        # x^2/2 is (1, N)-convex and no better: on the battery's curve a K
        # 5 % above the bound fails at the reference point 0
        f = quadratic(1.0)
        curve = integrate_flow(f, 1.0, 2.0, 2e-3)
        assert verify_evi(curve, f, 1.0, -2.0, 0.0).passed
        rep = verify_evi(curve, f, 1.05, -2.0, 0.0)
        assert not rep.passed
        assert rep.worst_margin == pytest.approx(-6.166e-4, rel=1e-3)

    @pytest.mark.parametrize("tol", [1e-6, 1e-9])
    def test_reported_tolerance_is_tol(self, quad_flow, tol):
        f = quadratic(1.0)
        for rep in (verify_evi(quad_flow, f, 1.0, -2.0, 0.5, tol),
                    verify_evi_classical(quad_flow, f, 1.0, 0.5, tol)):
            assert rep.tolerance == tol and rep.note == ""

    def test_stationary_minimum(self):
        f = quadratic(1.0)
        curve = integrate_flow(f, 0.0, 1.0, 1e-2)
        rep = verify_evi(curve, f, 0.0, -2.0, 1.5)
        assert rep.passed and rep.worst_margin >= 0.0

    def test_parameter_monotonicity_lattice(self, quad_flow):
        # a curve passing (1, -1) passes every (K' <= 1, N' in [-1, 0))
        f = quadratic(1.0)
        base = verify_evi(quad_flow, f, 1.0, -1.0, -1.0)
        assert base.passed
        for Kp in (1.0, 0.5, 0.0):
            for Np in (-1.0, -0.5, -0.25):
                rep = verify_evi(quad_flow, f, Kp, Np, -1.0)
                assert rep.passed, (Kp, Np)

    def test_classical_base_implies_dimensional_family(self, quad_flow):
        # a nonnegative dimension-free margin forces every finite-N margin
        # to be nonnegative at the same samples
        f = quadratic(1.0)
        for z in EVI_LATTICE_Z:
            base = verify_evi_classical(quad_flow, f, 1.0, z)
            assert base.passed
            for N in (-1.0, -2.0, -5.0, -10.0, -100.0):
                assert verify_evi(quad_flow, f, 1.0, N, z).passed, (N, z)

    def test_margins_converge_to_classical(self, quad_flow):
        f = quadratic(1.0)
        z = 2.0
        classical = np.asarray(
            verify_evi_classical(quad_flow, f, 1.0, z).details["margins"])
        errs = []
        for N in (-10.0, -100.0, -1000.0):
            finite = np.asarray(verify_evi(quad_flow, f, 1.0, N, z).details["margins"])
            errs.append(float(np.max(np.abs(finite - classical))))
        assert errs[1] < errs[0] and errs[2] < errs[1]
        # O(1/|N|) rate: scaled errors bounded by a multiple of the first
        assert errs[1] * 100.0 <= 3.0 * errs[0] * 10.0
        assert errs[2] * 1000.0 <= 3.0 * errs[0] * 10.0

    def test_differential_implies_integrated(self, quad_flow):
        f = quadratic(1.0)
        for N in EVI_LATTICE_N:
            for z in EVI_LATTICE_Z:
                if verify_evi(quad_flow, f, 1.0, N, z).passed:
                    rep = verify_evi_integrated(quad_flow, f, 1.0, N, z, 0.1, 0.9)
                    assert rep.passed

    def test_integrated_collapses_at_equal_times(self):
        f = linear(0.5)
        curve = integrate_flow(f, 0.0, 1.0, 1e-2)
        rep = verify_evi_integrated(curve, f, 0.0, -2.0, 3.0, 0.4, 0.4)
        assert rep.worst_margin == pytest.approx(0.0, abs=1e-14)

    def test_descent_and_slope_inequalities(self, quad_flow):
        f = quadratic(1.0)
        vals = np.asarray(f(quad_flow.points))
        assert np.all(np.diff(vals) <= 1e-10)
        step = quad_flow.step
        for i in range(1, len(quad_flow) - 1):
            assert local_slope(f, quad_flow.points[i]) <= metric_speed(quad_flow, i) + 5 * step


def _mp_s(kappa, theta):
    if kappa > 0:
        return mp.sin(mp.sqrt(kappa) * theta) / mp.sqrt(kappa)
    if kappa < 0:
        return mp.sinh(mp.sqrt(-kappa) * theta) / mp.sqrt(-kappa)
    return theta


# closed-form gradient curves, x0 e^{-t} of x^2/2 from x0 = 1 and
# sqrt(x0^2 + 2Nt) of -N log(x) from x0 = 2 at N = -2: (potential, its
# mpmath form, xi(t), horizon, N, Ks, zs); each has a z that the curve crosses
CLOSED_FORM_CURVES = {
    "exp(-t)": (quadratic(1.0), lambda x: x * x / 2, lambda t: mp.exp(-t), 1.0,
                -2.0, (1.0, 0.5), (-1.0, 0.5, 2.0)),
    "sqrt(4-4t)": (example_function("c", 0.0, -2.0)[0], lambda x: 2 * mp.log(x),
                   lambda t: mp.sqrt(4 - 4 * t), 0.75, -2.0, (0.0, -0.3), (1.5, 3.0)),
}


class TestEVIOracle:
    """verify_evi and verify_evi_classical against 50-digit mpmath, with the
    time derivative taken by mp.diff along the closed-form curve."""

    @staticmethod
    def curve(xi, horizon, step=1e-2):
        times = np.arange(int(round(horizon / step)) + 1) * step
        with mp.workdps(50):
            points = np.array([float(xi(mpf(float(t)))) for t in times])
        return GradientCurve(points=points, step=step)

    @staticmethod
    def oracle(margin, times):
        with mp.workdps(50):
            return np.array([float(margin(mpf(float(t)))) for t in times[1:-1]])

    @staticmethod
    def assert_close(rep, want):
        # margins are differences of O(1) terms: a few ulps of those floor
        # the comparison where a margin is near 0
        np.testing.assert_allclose(rep.details["margins"], want, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("name", sorted(CLOSED_FORM_CURVES))
    def test_dimensional(self, name):
        f, f_mp, xi, horizon, N, Ks, zs = CLOSED_FORM_CURVES[name]
        curve = self.curve(xi, horizon)
        for K in Ks:
            for z in zs:
                def S(t, kappa=mpf(K) / N, z=z):
                    return _mp_s(kappa, abs(xi(t) - z) / 2) ** 2

                def margin(t, K=K, z=z, S=S):
                    ratio = mp.exp((f_mp(xi(t)) - f_mp(z)) / N)  # f_N(z)/f_N(xi)
                    return N / mpf(2) * (1 - ratio) - mp.diff(S, t) - K * S(t)

                self.assert_close(verify_evi(curve, f, K, N, z),
                                  self.oracle(margin, curve.times))

    @pytest.mark.parametrize("name", sorted(CLOSED_FORM_CURVES))
    def test_classical(self, name):
        f, f_mp, xi, horizon, _, Ks, zs = CLOSED_FORM_CURVES[name]
        curve = self.curve(xi, horizon)
        for K in Ks:
            for z in zs:
                def S(t, z=z):
                    return (xi(t) - z) ** 2 / 4

                def margin(t, K=K, z=z, S=S):
                    return (f_mp(z) - f_mp(xi(t))) / 2 - mp.diff(S, t) - K * S(t)

                self.assert_close(verify_evi_classical(curve, f, K, z),
                                  self.oracle(margin, curve.times))


class TestRegularizing:
    def test_quadratic_mode_regularity(self, quad_flow):
        rep = regularizing_bounds(quad_flow, quadratic(1.0), 1.0, -2.0,
                                  "regularity", z=0.0, t=0.5)
        assert rep.passed and rep.worst_margin > 0.0

    def test_constant_mode_continuity_vanishes(self):
        f = ScalarFunction1D.constant(4.0)
        curve = integrate_flow(f, 1.0, 1.0, 1e-2)
        rep = regularizing_bounds(curve, f, 0.0, -2.0, "continuity",
                                  t0=0.1, t1=0.9, inf_f=4.0)
        assert rep.worst_margin == pytest.approx(0.0, abs=1e-14)

    def test_mode_regularity_limit_at_start(self, quad_flow):
        rep = regularizing_bounds(quad_flow, quadratic(1.0), 1.0, -2.0,
                                  "regularity", z=1.0, t=quad_flow.step * 5)
        assert rep.passed
        assert abs(rep.worst_margin) <= 1e-2

    def test_quadratic_mode_continuity(self, quad_flow):
        rep = regularizing_bounds(quad_flow, quadratic(1.0), 1.0, -2.0,
                                  "continuity", t0=0.1, t1=0.9, inf_f=0.0)
        assert rep.passed and rep.worst_margin > 0.0

    def test_regularity_at_time_zero_rejected(self, quad_flow):
        with pytest.raises(ValueError, match=r"needs z and t > 0"):
            regularizing_bounds(quad_flow, quadratic(1.0), 1.0, -2.0,
                                "regularity", z=0.0, t=0.0)

    def test_missing_inf_rejected(self, quad_flow):
        with pytest.raises(ValueError, match="inf_f"):
            regularizing_bounds(quad_flow, quadratic(1.0), 1.0, -2.0,
                                "continuity", t0=0.1, t1=0.9)


class TestExpansionBound:
    def test_stopped_curve_is_rejected(self):
        # the curve sqrt(1 - 2t) of log(x) from 1 is near 0 at t = 0.5, where
        # step*|f''| = 41; t1 = 0.6 lies beyond the stop
        with pytest.raises(ValueError, match=r"from t=0.5, x=0.0156.*stability limit"):
            expansion_bound(compile_expr("log(x)"), 1.0, 2.0, 0.0, -2.0, 2.0, 0.2, 0.6, 1e-2)

    @pytest.mark.parametrize("x, y, name", [(math.nan, 1.0, "x"), (0.5, math.nan, "y")])
    def test_nan_start_names_its_parameter(self, x, y, name):
        # x and y are each integrate_flow's x0: the error names the one passed
        message = f"{name} must be finite and in the domain (-inf, inf), got nan"
        with pytest.raises(ValueError, match=re.escape(message)):
            expansion_bound(compile_expr("log(cosh(x))"), x, y, 1.0, -2.0, 1.0,
                            0.1, 0.5, 1e-2)

    def test_overflowing_bound_is_trivial(self):
        # Theta = -6.8e3: e^-Theta overflows, and the bound is +inf
        rep = expansion_bound(compile_expr("log(x)"), 1.0, 2.0, 0.0, -2.0, 100.0,
                              0.2, 0.5, 1e-2)
        assert rep.status == "trivial"
        assert rep.worst_margin == math.inf
        assert "e^-Theta overflows at Theta=-6774.85" in rep.note

    def test_large_theta_bound_is_finite(self):
        # Theta = 1998 and t0 = t1: the bound is d0^2 e^-1998 = 0, so the
        # margin is minus the squared distance of the curves at t = 1, where
        # sinh(x(t)) = sinh(x0) e^-t
        rep = expansion_bound(compile_expr("log(cosh(x))"), 0.0, 1.0, 1000.0, -2.0, 1.0,
                              1.0, 1.0, 1e-2)
        d = math.asinh(math.sinh(1.0) * math.exp(-1.0))
        assert rep.worst_margin == pytest.approx(-d * d, abs=1e-9)
        assert not rep.passed

    def test_constant_potential_exact(self):
        f = ScalarFunction1D.constant(0.0)
        N = -2.0
        for t0 in (0.04, 0.25, 0.64):
            for t1 in (0.09, 0.49, 1.0):
                rep = expansion_bound(f, 0.0, 1.0, 0.0, N, 0.0, t0, t1, 1e-2)
                expected = -2.0 * N * (math.sqrt(t1) - math.sqrt(t0)) ** 2
                assert rep.worst_margin == pytest.approx(expected, abs=1e-10)
                assert rep.passed

    def test_linear_potential_grid(self):
        a, N = 0.7, -3.0
        f = linear(a)
        x, y = 0.0, 1.0
        for t0 in np.linspace(0.05, 0.95, 10):
            for t1 in np.linspace(0.05, 0.95, 10):
                rep = expansion_bound(f, x, y, 0.0, N, a, float(t0), float(t1), 1e-3)
                # translate-flow oracle: xi(t0) - zeta(t1) = (x - y) + a(t1 - t0)
                d0 = abs(x - y)
                d01 = abs((x - y) + a * (t1 - t0))
                theta = (4.0 * a * a / N) * (t1 + math.sqrt(t0 * t1) + t0) / 3.0
                ratio = math.expm1(theta) / theta
                oracle = 2.0 * math.exp(-theta) * (
                    d0 * d0 / 2.0
                    - N * (math.sqrt(t1) - math.sqrt(t0)) ** 2 * ratio) - d01 * d01
                assert rep.worst_margin == pytest.approx(oracle, abs=1e-9)
                assert rep.passed

    def test_same_time_contraction_linear(self):
        a, N = 0.7, -3.0
        f = linear(a)
        xi = integrate_flow(f, 0.0, 1.0, 1e-3)
        zeta = integrate_flow(f, 1.0, 1.0, 1e-3)
        for t in (0.2, 0.5, 0.9):
            i = xi.index_at(t)
            d = abs(xi.points[i] - zeta.points[i])
            bound = math.exp(-(0.0 + 2.0 * a * a / N) * t) * 1.0
            assert d <= bound + 1e-12

    def test_lipschitz_audit_rejects(self):
        f = quadratic(1.0)
        with pytest.raises(ValueError, match="exceeds the declared bound"):
            expansion_bound(f, 2.0, 0.0, 1.0, -2.0, 0.5, 0.1, 0.2, 1e-2)

    def test_claim_side_check(self):
        # pointwise (K, N) bound plus |f'| <= L implies plain (K + L^2/N)
        K, N = 1.0, -2.0
        f = quadratic(K)
        grid = np.linspace(-3.0, 3.0, 61)
        L = max(abs(float(f.deriv(x))) for x in grid)
        assert check_pointwise(f, ConvexityParams(K, N, (-3.0, 3.0)), grid).passed
        rep = claim_convexity_margin(f, K, N, L, grid)
        assert rep.passed
        # and one with fluctuating curvature from the equality family
        from negdimcd import example_function
        g, _ = example_function("a", 1.0, -1.0)
        grid = np.linspace(-2.0, 2.0, 61)
        L = max(abs(float(g.deriv(x))) for x in grid)
        assert check_pointwise(g, ConvexityParams(1.0, -1.0, (-2.0, 2.0)), grid).passed
        rep = claim_convexity_margin(g, 1.0, -1.0, L, grid)
        assert rep.passed
