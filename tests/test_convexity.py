"""Convexity criteria, calculus rules and the equality-case families."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from negdimcd import (
    ConvexityParams,
    ScalarFunction1D,
    check_derivative,
    check_geodesic,
    check_pointwise,
    example_function,
    exp_transform,
    g_combiner,
    geodesic_margin,
    interior_grid,
    sum_rule,
)
from negdimcd.expr import compile_expr

from conftest import log_fn, quadratic
from test_expr import expressions

# (kind, K, N, evaluation window)
EQUALITY_CASES = [
    ("a", 1.0, -1.0, (-2.0, 2.0)),
    ("a", 2.0, -3.0, (-1.5, 1.5)),
    ("b", 1.0, -2.0, (0.3, 3.0)),
    ("c", 0.0, -2.0, (0.3, 4.0)),
    ("c", 0.0, -5.0, (0.5, 6.0)),
    ("d", -1.0, -2.0, None),  # window from the stated domain
]


def admissible_pairs(rng, window, limit, count):
    lo, hi = window
    pairs = []
    while len(pairs) < count:
        x0, x1 = sorted(rng.uniform(lo, hi, size=2))
        if (x1 - x0) > 1e-3 * (hi - lo) and (x1 - x0) < 0.98 * limit:
            pairs.append((float(x0), float(x1)))
    return pairs


class TestParams:
    @pytest.mark.parametrize("N", [-math.inf, math.nan, 0.0, 2.0])
    def test_n_must_be_finite_and_negative(self, N):
        # at N = -inf, f_N/|N| = 0 would make every pointwise margin 0
        with pytest.raises(ValueError, match="N must be negative and finite"):
            ConvexityParams(5.0, N, (-1.0, 1.0))


class TestEqualityExamples:
    @pytest.mark.parametrize("kind,K,N,window", EQUALITY_CASES)
    def test_all_three_criteria_are_tight(self, kind, K, N, window):
        f, dom = example_function(kind, K, N)
        if window is None:
            width = dom[1] - dom[0]
            window = (dom[0] + 0.05 * width, dom[1] - 0.05 * width)
        p = ConvexityParams(K, N, window)
        rng = np.random.default_rng(7)
        rep = check_pointwise(f, p, interior_grid(window, 60))
        assert rep.passed and abs(rep.worst_margin) <= 1e-8
        x0, x1 = np.transpose(admissible_pairs(rng, window, p.radius_limit(), 50))
        rep = check_geodesic(f, p, x0, x1, [0.25, 0.5, 0.75])
        assert abs(rep.worst_margin) <= 1e-8
        rep = check_derivative(f, p, x0, x1)
        assert abs(rep.worst_margin) <= 1e-8

    # (K, N) from the box of perfbench's grid-sweep equality tasks, on the
    # CLI's window for each family.  Steeper family-a cases reach margins of
    # an ulp of c_{K/N}(d) f_N(x0): 3e-8 at K = 3, N = -0.25 on (-2, 2)
    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from("abcd"), K_abs=st.floats(0.3, 2.0),
           N=st.floats(-6.0, -1.2),
           ends=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                         min_size=1, max_size=5),
           t_grid=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
    def test_three_criteria_are_tight_at_random_k_n(self, kind, K_abs, N, ends, t_grid):
        K = {"a": K_abs, "b": K_abs, "c": 0.0, "d": -K_abs}[kind]
        f, dom = example_function(kind, K, N)
        window = {"a": (-2.0, 2.0), "b": (0.25, 3.0), "c": (0.25, 4.0),
                  "d": (0.9 * dom[0], 0.9 * dom[1])}[kind]
        p = ConvexityParams(K, N, window)
        rep = check_pointwise(f, p, interior_grid(window, 60))
        assert abs(rep.worst_margin) <= 1e-8
        lo, hi = window
        x0, x1 = lo + np.transpose(ends) * (hi - lo)
        longer = np.abs(x1 - x0) > 1e-3 * (hi - lo)
        x0, x1 = x0[longer], x1[longer]
        if x0.size:
            assert (np.abs(x1 - x0) < p.radius_limit()).all()
            rep = check_geodesic(f, p, x0, x1, t_grid)
            assert abs(rep.worst_margin) <= 1e-8, rep.worst_location
            rep = check_derivative(f, p, x0, x1)
            assert abs(rep.worst_margin) <= 1e-8, rep.worst_location

    def test_kind_c_formula(self):
        f, dom = example_function("c", 0.0, -2.0)
        assert dom == (0.0, math.inf)
        assert f(1.7) == pytest.approx(2.0 * math.log(1.7), abs=1e-15)

    def test_kind_a_formula(self):
        f, dom = example_function("a", 1.0, -1.0)
        assert dom == (-math.inf, math.inf)
        assert f(0.8) == pytest.approx(math.log(math.cosh(0.8)), abs=1e-15)

    def test_kind_d_domain_endpoint(self):
        K, N = -1.0, -2.0
        _, dom = example_function("d", K, N)
        assert dom[1] == pytest.approx(0.5 * math.pi * math.sqrt(N / K), abs=1e-15)
        assert dom[0] == -dom[1]

    def test_sign_mismatch_rejected(self):
        with pytest.raises(ValueError):
            example_function("a", -1.0, -2.0)
        with pytest.raises(ValueError):
            example_function("c", 0.5, -2.0)
        with pytest.raises(ValueError):
            example_function("d", 1.0, -2.0)


class TestPointwise:
    def test_constant_passes_flat(self):
        f = ScalarFunction1D.constant(3.0)
        p = ConvexityParams(0.0, -2.0, (-1.0, 1.0))
        rep = check_pointwise(f, p, interior_grid((-1.0, 1.0), 11))
        assert rep.passed and rep.worst_margin == pytest.approx(0.0, abs=1e-15)

    def test_log_fails_zero_minus_two(self):
        # exp(-f/N) = sqrt(x) is concave, so the Hessian criterion fails
        p = ConvexityParams(0.0, -2.0, (0.5, 4.0))
        rep = check_pointwise(log_fn(1.0), p, interior_grid((0.5, 4.0), 40))
        assert not rep.passed
        assert rep.worst_margin < -1e-4
        # worst point is the left edge where sqrt''(x) = -x^(-3/2)/4 peaks
        x = rep.worst_location
        assert rep.worst_margin == pytest.approx(-(x ** -1.5) / 4.0, abs=1e-12)

    def test_undefined_second_derivative_reported(self):
        bad = ScalarFunction1D(fn=lambda x: np.sqrt(np.asarray(x, dtype=float)),
                               d1=lambda x: 0.5 / np.sqrt(np.asarray(x, dtype=float)),
                               d2=lambda x: np.where(np.asarray(x) == 1.0, np.nan,
                                                     -0.25 * np.asarray(x, dtype=float) ** -1.5))
        p = ConvexityParams(0.0, -2.0, (0.5, 2.0))
        rep = check_pointwise(bad, p, [0.8, 1.0, 1.5])
        assert not rep.passed
        assert rep.worst_location == 1.0
        assert "undefined" in rep.note

    def test_undefined_note_names_the_first_point(self):
        bad = ScalarFunction1D(fn=lambda x: np.asarray(x, dtype=float),
                               d1=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                               d2=lambda x: np.where(np.asarray(x) >= 1.0, np.nan, 0.0))
        rep = check_pointwise(bad, ConvexityParams(0.0, -2.0, (0.5, 2.0)),
                              [0.8, 1.0, 1.5])
        assert rep.worst_location == 1.0
        assert rep.note == "second derivative undefined at x=1.0"

    def test_overflowed_f_n_keeps_the_sign_of_the_margin(self):
        # f_N = exp(4 cosh x) overflows at x = 6, where f'' - f'^2/N is finite
        f = ScalarFunction1D(fn=np.cosh, d1=np.sinh, d2=np.cosh)
        N, grid = -0.25, np.array([1.0, 6.0])
        be = np.cosh(grid) + np.sinh(grid) ** 2 / 0.25
        with np.errstate(over="ignore", invalid="ignore"):
            below = check_pointwise(f, ConvexityParams(float(be[0]), N, (1.0, 6.0)), grid)
            above = check_pointwise(f, ConvexityParams(float(be[1]) + 1.0, N, (1.0, 6.0)),
                                    grid)
            at = check_pointwise(f, ConvexityParams(float(be[1]), N, (1.0, 6.0)), grid)
        assert below.passed and below.worst_margin == 0.0 and below.note == ""
        assert not above.passed and above.worst_margin == -math.inf
        assert above.worst_location == 6.0 and above.note == ""
        assert at.worst_location == 1.0 and at.worst_margin < 0.0

    def test_overflowed_f_n_warns_nothing(self):
        # exp(-f/N) = exp(1800) at x = +-30, and inf * 0 where be == K at x = 6
        cosh = ScalarFunction1D(fn=np.cosh, d1=np.sinh, d2=np.cosh)
        at_k = float(np.cosh(6.0) + np.sinh(6.0) ** 2 / 0.25)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wide = check_pointwise(compile_expr("x**2"), ConvexityParams(1, -0.5, (-30, 30)),
                                   np.linspace(-30, 30, 11))
            at = check_pointwise(cosh, ConvexityParams(at_k, -0.25, (1.0, 6.0)), [1.0, 6.0])
        assert wide.passed and wide.worst_margin > 0.0
        assert at.worst_location == 1.0 and at.worst_margin < 0.0


class TestDerivativeCriterion:
    def test_log_segment_margin(self):
        # frozen from the closed forms: sqrt(4) - sqrt(1) - (1/2)*3 = -0.5
        p = ConvexityParams(0.0, -2.0, (0.5, 5.0))
        rep = check_derivative(log_fn(1.0), p, 1.0, 4.0)
        assert rep.worst_margin == pytest.approx(-0.5, abs=1e-12)
        assert not rep.passed

    def test_quadratic_from_critical_point(self):
        K, N = 1.0, -2.0
        f = quadratic(K)
        p = ConvexityParams(K, N, (-3.0, 3.0))
        for x1 in (0.5, 1.0, 2.0):
            rep = check_derivative(f, p, 0.0, x1)
            fN = exp_transform(f, N)
            from negdimcd import c as comp_c
            oracle = float(fN(x1)) - comp_c(K / N, x1) * float(fN(0.0))
            assert rep.worst_margin == pytest.approx(oracle, abs=1e-13)
            assert rep.worst_margin >= 0.0

    def test_zero_length_rejected(self):
        p = ConvexityParams(0.0, -2.0, (0.5, 5.0))
        with pytest.raises(ValueError):
            check_derivative(log_fn(1.0), p, 1.0, 1.0)


class TestDistanceGate:
    def test_long_segment_rejected_for_negative_k(self):
        K, N = -1.0, -2.0
        f, dom = example_function("d", K, N)
        p = ConvexityParams(K, N, dom)
        limit = math.pi * math.sqrt(N / K)
        with pytest.raises(ValueError):
            check_geodesic(f, p, -0.55 * limit, 0.55 * limit, [0.5])

    @pytest.mark.parametrize("check", [
        lambda f, p, x0, x1: check_geodesic(f, p, x0, x1, [0.5]), check_derivative])
    def test_array_with_long_segments_names_the_longest(self, check):
        # pi*sqrt(N/K) = 4.44: the second and fourth segments reach it
        p = ConvexityParams(-1.0, -2.0, (-5.0, 5.0))
        x0, x1 = np.array([0.0, 4.5, -3.0, -2.0]), np.array([1.0, -1.0, 0.5, 3.0])
        with pytest.raises(ValueError, match=r"segment length 5\.5 reaches"):
            check(quadratic(-1.0), p, x0, x1)


def _fold_reference(reports):
    """Worst margin, its location and the pass flag of per-segment reports:
    the first NaN, else the first least margin; passed when each passed."""
    worsts = [r.worst_margin for r in reports]
    nans = [i for i, m in enumerate(worsts) if math.isnan(m)]
    i = nans[0] if nans else min(range(len(worsts)), key=worsts.__getitem__)
    return worsts[i], reports[i].worst_location, all(r.passed for r in reports)


class TestSegmentArrays:
    """One call on arrays of segments against one call per segment."""

    @pytest.mark.parametrize("t", [0.3, [0.0, 0.3, 1.0], [[0.25], [0.75]]])
    def test_margin_broadcasts_t_against_the_ends(self, t):
        f, _ = example_function("a", 1.0, -2.0)
        x0, x1 = np.array([-1.0, 0.5, 2.0]), np.array([1.5, 0.0, -0.5])
        got = geodesic_margin(f, 1.0, -2.0, x0, x1, t)
        grids = np.broadcast_arrays(x0, x1, np.asarray(t, dtype=float))
        want = [geodesic_margin(f, 1.0, -2.0, *map(float, point))
                for point in zip(*(g.ravel() for g in grids))]
        assert np.array_equal(got, np.reshape(want, grids[0].shape))

    @settings(max_examples=150, deadline=None)
    @given(source=st.one_of(st.sampled_from("abcd"), expressions),
           K_abs=st.floats(0.3, 2.0), N=st.floats(-6.0, -0.3),
           ends=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                         min_size=1, max_size=12),
           t_grid=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
    def test_array_call_is_the_fold_of_segment_calls(self, source, K_abs, N, ends,
                                                       t_grid):
        if isinstance(source, str):
            K = {"a": K_abs, "b": K_abs, "c": 0.0, "d": -K_abs}[source]
            f, dom = example_function(source, K, N)
            window = {"a": (-2.0, 2.0), "b": (0.25, 3.0), "c": (0.25, 4.0),
                      "d": (0.9 * dom[0], 0.9 * dom[1])}[source]
        else:
            K, f, window = K_abs - 1.0, compile_expr(source[0]), (0.25, 3.0)
        p = ConvexityParams(K, N, window)
        lo, hi = window
        x0, x1 = lo + np.transpose(ends) * (hi - lo)
        # the derivative criterion needs x0 != x1; about half the pairs run
        # right to left
        kept = (x0 != x1) & (np.abs(x1 - x0) < p.radius_limit())
        assume(kept.any())
        x0, x1 = x0[kept], x1[kept]
        with np.errstate(all="ignore"):
            for check in (lambda a, b: check_geodesic(f, p, a, b, t_grid),
                          lambda a, b: check_derivative(f, p, a, b)):
                whole = check(x0, x1)
                parts = [check(float(a), float(b)) for a, b in zip(x0, x1)]
                worst, where, passed = _fold_reference(parts)
                assert np.float64(whole.worst_margin).tobytes() == \
                    np.float64(worst).tobytes()
                assert (whole.worst_location, whole.passed) == (where, passed)


class TestScaleShift:
    def test_scaled_shifted_function_passes_scaled_params(self):
        K, N, scale, shift = 1.0, -1.0, 2.5, 3.0
        f, _ = example_function("a", K, N)
        g = ScalarFunction1D(fn=lambda x: scale * f.fn(x) + shift,
                             d1=lambda x: scale * f.d1(x),
                             d2=lambda x: scale * f.d2(x))
        # scaling maps (K, N) to (scale*K, scale*N); the shift changes neither
        p2 = ConvexityParams(scale * K, scale * N, (-2.0, 2.0))
        rng = np.random.default_rng(11)
        for x0, x1 in admissible_pairs(rng, (-2.0, 2.0), p2.radius_limit(), 10):
            rep = check_geodesic(g, p2, x0, x1, [0.3, 0.6])
            assert abs(rep.worst_margin) <= 1e-8

    def test_shift_covariance_of_margins(self):
        K, N, a = 1.0, -2.0, 1.3
        f = quadratic(K)
        g = ScalarFunction1D(fn=lambda x: f.fn(x) + a, d1=f.d1, d2=f.d2)
        p = ConvexityParams(K, N, (-3.0, 3.0))
        rep_f = check_geodesic(f, p, -1.0, 2.0, [0.25, 0.5, 0.75])
        rep_g = check_geodesic(g, p, -1.0, 2.0, [0.25, 0.5, 0.75])
        assert rep_g.worst_margin == pytest.approx(
            math.exp(-a / N) * rep_f.worst_margin, rel=1e-12)


class TestSumRule:
    def test_arithmetic(self):
        assert sum_rule(0.0, -3.0, 0.0, 2.0) == (0.0, -1.0)
        assert sum_rule(1.0, -5.0, -0.5, 2.0) == (0.5, -3.0)

    def test_range_rejections(self):
        with pytest.raises(ValueError, match="N1 < -N2"):
            sum_rule(0.0, -1.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            sum_rule(0.0, -1.0, 0.0, -2.0)

    def test_sum_of_log_families(self):
        # f1 = 3*log(x) is (0,-3)-convex (equality family), f2 = -2*log(x) is
        # strongly (0,2)-convex, and the sum log(x) passes the combined (0,-1).
        N1, N2 = -3.0, 2.0
        f1 = log_fn(-N1)
        f2 = log_fn(-N2)
        K, N = sum_rule(0.0, N1, 0.0, N2)
        assert (K, N) == (0.0, -1.0)
        window = (0.4, 4.0)
        rng = np.random.default_rng(5)
        total = log_fn(-N)
        p = ConvexityParams(K, N, window)
        for x0, x1 in admissible_pairs(rng, window, math.inf, 15):
            for t in (0.25, 0.5, 0.75):
                # ingredient margins, both tight for the log family
                assert abs(geodesic_margin(f1, 0.0, N1, x0, x1, t)) <= 1e-10
                assert abs(geodesic_margin(f2, 0.0, N2, x0, x1, t)) <= 1e-10
            rep = check_geodesic(total, p, x0, x1, [0.25, 0.5, 0.75])
            assert rep.worst_margin >= -1e-10


class TestCounterexamples:
    def test_neg_two_log_fails_zero_one(self):
        # -2*log(x) satisfies the (0,2) inequality but 0 + (-2*log x) is not
        # (0,1)-convex: exp(-f) = x^2 is strictly convex, not concave.
        f = log_fn(-2.0)
        margin = geodesic_margin(f, 0.0, 1.0, 1.0, 3.0, 0.5)
        assert margin == pytest.approx(4.0 - 5.0, abs=1e-12)
        assert margin < -1e-4

    def test_sum_of_two_zero_minus_one_fails_zero_minus_two(self):
        # log(x) is (0,-1)-convex (equality family) but not (0,-2)-convex
        f = log_fn(1.0)
        assert abs(geodesic_margin(f, 0.0, -1.0, 1.0, 4.0, 0.5)) <= 1e-12
        p = ConvexityParams(0.0, -2.0, (0.5, 5.0))
        rep = check_geodesic(f, p, 1.0, 4.0, [0.25, 0.5, 0.75])
        assert rep.worst_margin < -1e-4
        rep = check_pointwise(f, p, interior_grid((0.5, 5.0), 40))
        assert rep.worst_margin < -1e-4


class TestMonoRule:
    def test_k_convex_passes_every_negative_n(self):
        # spot check of the final monotonicity statement on quadratics
        K = 0.7
        f = quadratic(K)
        rng = np.random.default_rng(3)
        for N in (-0.5, -1.0, -4.0, -50.0):
            p = ConvexityParams(K, N, (-3.0, 3.0))
            for x0, x1 in admissible_pairs(rng, (-3.0, 3.0), p.radius_limit(), 8):
                rep = check_geodesic(f, p, x0, x1, [0.2, 0.5, 0.8])
                assert rep.passed

    def test_weaker_parameters_still_pass(self):
        f, _ = example_function("c", 0.0, -2.0)
        window = (0.4, 4.0)
        rng = np.random.default_rng(13)
        for Kp, Np in ((-0.5, -1.0), (0.0, -1.0), (-1.0, -2.0)):
            p = ConvexityParams(Kp, Np, window)
            for x0, x1 in admissible_pairs(rng, window, p.radius_limit(), 8):
                rep = check_geodesic(f, p, x0, x1, [0.25, 0.5, 0.75])
                assert rep.passed


class TestLimitToClassicalConvexity:
    def test_combiner_limit_recovers_k_convexity_gap(self):
        K = 1.0
        f = quadratic(K)
        x0, x1, t = -0.7, 1.9, 0.3
        d = abs(x1 - x0)
        classical = ((1 - t) * float(f(x0)) + t * float(f(x1))
                     - 0.5 * K * (1 - t) * t * d * d)
        errs = []
        for N in (-10.0, -100.0, -1000.0, -10000.0):
            val = -N * g_combiner(t, -float(f(x0)) / N, -float(f(x1)) / N,
                                  (K / N) * d * d)
            errs.append(abs(val - classical))
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
        # O(1/|N|): the scaled errors stay bounded by a modest multiple
        scale = errs[0] * 10.0
        for err, N in zip(errs, (-10.0, -100.0, -1000.0, -10000.0)):
            assert err <= 1.5 * scale / abs(N)


def _random_potential(rng):
    """Smooth trigonometric-polynomial potential with analytic derivatives."""
    a0 = rng.uniform(-1.0, 1.5)
    amps = rng.uniform(-1.0, 1.0, size=3)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=3)
    ks = np.array([1.0, 2.0, 3.0])

    def fn(x):
        x = np.asarray(x, dtype=float)
        out = a0 * x * x / 2.0
        for amp, k, ph in zip(amps, ks, phases):
            out = out + amp / (k * k) * np.sin(k * x + ph)
        return out

    def d1(x):
        x = np.asarray(x, dtype=float)
        out = a0 * x
        for amp, k, ph in zip(amps, ks, phases):
            out = out + amp / k * np.cos(k * x + ph)
        return out

    def d2(x):
        x = np.asarray(x, dtype=float)
        out = a0 * np.ones_like(x)
        for amp, k, ph in zip(amps, ks, phases):
            out = out - amp * np.sin(k * x + ph)
        return out

    return ScalarFunction1D(fn=fn, d1=d1, d2=d2, name="trig-poly")


class TestEquivalenceChain:
    """The three criteria agree on pass/fail for a randomized family."""

    GAP = 0.3
    WINDOW = (-1.5, 1.5)
    N = -2.0

    def _verdicts(self, f, K):
        window = self.WINDOW
        p = ConvexityParams(K, self.N, window)
        grid = interior_grid(window, 241)
        rep_pt = check_pointwise(f, p, grid, tol=1e-6)
        # locate the pointwise argmin and bracket it with a short segment
        fN = exp_transform(f, self.N)
        vals = np.asarray(fN.deriv2(grid)) + (K / self.N) * np.asarray(fN(grid))
        xstar = float(grid[int(np.argmin(vals))])
        lo = max(window[0] + 0.01, xstar - 0.15)
        hi = min(window[1] - 0.01, xstar + 0.15)
        limit = p.radius_limit()
        rng = np.random.default_rng(101)
        pairs = np.array([(lo, hi), (hi, lo)]
                         + admissible_pairs(rng, window, min(limit, 1.0), 50))
        x0, x1 = pairs[np.abs(pairs[:, 1] - pairs[:, 0]) < limit].T
        geo_margin = check_geodesic(f, p, x0, x1, [0.25, 0.5, 0.75], tol=1e-6).worst_margin
        der_margin = check_derivative(f, p, x0, x1, tol=1e-6).worst_margin
        return (rep_pt.worst_margin >= -1e-6, geo_margin >= -1e-6,
                der_margin >= -1e-6)

    def test_twenty_potentials_agree(self):
        rng = np.random.default_rng(20250801)
        agreements = 0
        for i in range(20):
            f = _random_potential(rng)
            grid = interior_grid(self.WINDOW, 481)
            fN = exp_transform(f, self.N)
            kstar = float(np.min(-self.N * np.asarray(fN.deriv2(grid))
                                 / np.asarray(fN(grid))))
            expect_pass = (i % 2 == 0)
            K = kstar - self.GAP if expect_pass else kstar + self.GAP
            verdicts = self._verdicts(f, K)
            assert verdicts[0] == verdicts[1] == verdicts[2] == expect_pass, (
                f"potential {i}: verdicts {verdicts}, expected {expect_pass}")
            agreements += 1
        assert agreements == 20
