"""Comparison-function branches, conventions, identities and orderings."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from negdimcd import c, g_combiner, s, sigma, tau
from negdimcd.comparison import SERIES_THRESHOLD

mpmath.mp.dps = 50


def mp_s(kappa, theta):
    """High-precision oracle for the sin-like solution, via mpmath."""
    kappa, theta = mpmath.mpf(kappa), mpmath.mpf(theta)
    if kappa > 0:
        return mpmath.sin(mpmath.sqrt(kappa) * theta) / mpmath.sqrt(kappa)
    if kappa == 0:
        return theta
    return mpmath.sinh(mpmath.sqrt(-kappa) * theta) / mpmath.sqrt(-kappa)


def mp_c(kappa, theta):
    kappa, theta = mpmath.mpf(kappa), mpmath.mpf(theta)
    if kappa > 0:
        return mpmath.cos(mpmath.sqrt(kappa) * theta)
    if kappa == 0:
        return mpmath.mpf(1)
    return mpmath.cosh(mpmath.sqrt(-kappa) * theta)


class TestBranches:
    def test_flat(self):
        assert s(0.0, 2.5) == 2.5

    def test_positive(self):
        assert s(1.0, math.pi / 2) == pytest.approx(1.0, abs=1e-15)
        assert c(1.0, math.pi) == pytest.approx(-1.0, abs=1e-15)

    def test_negative_vs_oracle(self):
        assert s(-1.0, 1.0) == pytest.approx(float(mp_s(-1, 1)), abs=1e-14)
        assert s(-1.0, 1.0) == pytest.approx(1.1752012, abs=1e-7)
        assert c(-0.5, 1.0) == pytest.approx(float(mp_c(-0.5, 1)), abs=1e-14)
        assert c(-0.5, 1.0) == pytest.approx(1.2605918, abs=1e-7)

    def test_initial_conditions(self):
        for kappa in (-4.0, -1e-9, 0.0, 1e-9, 2.5):
            assert c(kappa, 0.0) == 1.0
            assert s(kappa, 0.0) == 0.0

    def test_rejects_negative_theta(self):
        with pytest.raises(ValueError):
            s(1.0, -0.1)

    def test_array_inputs(self):
        kap = np.array([-2.0, 0.0, 3.0])
        th = np.array([0.5, 1.0, 0.25])
        out = s(kap, th)
        assert out.shape == (3,)
        for k, t, v in zip(kap, th, out):
            assert v == pytest.approx(float(mp_s(k, t)), abs=1e-14)


class TestSigmaTauConventions:
    def test_sigma_at_zero_theta(self):
        for kappa in (-3.0, 0.0, 1.0, 9.0):
            assert sigma(kappa, 0.37, 0.0) == 0.37

    def test_sigma_flat(self):
        assert sigma(0.0, 0.3, 7.0) == pytest.approx(0.3, abs=1e-15)

    def test_sigma_sine_values(self):
        assert sigma(1.0, 0.5, math.pi / 2) == pytest.approx(math.sqrt(2) / 2, abs=1e-15)

    def test_sigma_out_of_domain(self):
        assert sigma(1.0, 0.5, 3.2) == math.inf
        assert sigma(1.0, 0.5, math.pi) == math.inf

    def test_tau_at_zero_t(self):
        for theta in (0.0, 1.0, 10.0):
            assert tau(1.0, -2.0, 0.0, theta) == 0.0
            assert tau(-1.0, -2.0, 0.0, theta) == 0.0

    def test_tau_flat_is_t(self):
        for N in (-0.5, -2.0, -10.0):
            for t in (0.1, 0.5, 0.9, 1.0):
                assert tau(0.0, N, t, 3.3) == pytest.approx(t, abs=1e-15)

    def test_flat_limit_is_t_exactly(self):
        # (t*theta)/theta and t^(1/N) * t^((N-1)/N) can miss t by an ulp
        rng = np.random.default_rng(3)
        t, theta = rng.uniform(0.0, 1.0, 4000), rng.uniform(0.0, 20.0, 4000)
        for kappa in (0.0, 1e-300, -1e-300):
            assert np.array_equal(sigma(kappa, t, theta), t)
        for N in (-0.3, -1.05, -2.0, -7.7):
            assert np.array_equal(tau(0.0, N, t, theta), t)
            # tau and sigma_{K/N} differ by far less than an ulp at such K
            for K in (1e-300, 2.220446049250313e-16):
                assert np.array_equal(tau(K, N, t, theta), sigma(K / N, t, theta))

    def test_tau_out_of_domain(self):
        # K < 0: +inf from theta >= pi*sqrt((N-1)/K)
        K, N = -1.0, -2.0
        cut = math.pi * math.sqrt((N - 1.0) / K)
        assert tau(K, N, 0.5, cut + 1e-9) == math.inf
        assert math.isfinite(tau(K, N, 0.5, cut - 1e-3))

    def test_nan_t_rejected(self):
        # NaN fails every comparison: the t rule asks 0 <= t <= 1 of each t
        with pytest.raises(ValueError, match=r"t must lie in \[0, 1\]"):
            sigma(0.5, math.nan, 1.0)
        with pytest.raises(ValueError, match=r"t must lie in \[0, 1\]"):
            tau(0.5, -2.0, [0.5, math.nan], 1.0)

    def test_tau_rejects_positive_n(self):
        with pytest.raises(ValueError):
            tau(1.0, 2.0, 0.5, 1.0)

    def test_tau_below_sigma_strict_gap(self):
        # oracle: t^(1/N) * (sinh(t*th/sqrt(3))/sinh(th/sqrt(3)))^((N-1)/N)
        t, th = mpmath.mpf("0.5"), mpmath.mpf(1)
        tau_oracle = t ** mpmath.mpf("-0.5") * (
            mpmath.sinh(t * th / mpmath.sqrt(3)) / mpmath.sinh(th / mpmath.sqrt(3))
        ) ** mpmath.mpf("1.5")
        sig_oracle = mpmath.sinh(t * th / mpmath.sqrt(2)) / mpmath.sinh(th / mpmath.sqrt(2))
        got_tau = tau(1.0, -2.0, 0.5, 1.0)
        got_sig = sigma(-0.5, 0.5, 1.0)
        assert got_tau == pytest.approx(float(tau_oracle), abs=1e-14)
        assert got_sig == pytest.approx(float(sig_oracle), abs=1e-14)
        assert got_tau < got_sig - 1e-5


class TestIdentities:
    def test_half_angle_relations(self):
        kappas = np.linspace(-4.0, 4.0, 200)
        thetas = np.linspace(0.0, 3.0, 200)
        kk, tt = np.meshgrid(kappas, thetas, indexing="ij")
        ok = ~((kk > 0) & (tt * np.sqrt(np.maximum(kk, 0.0)) >= math.pi))
        kk, tt = kk[ok], tt[ok]
        lhs_c = c(kk, tt)
        rhs_c = 1.0 - 2.0 * kk * s(kk, tt / 2.0) ** 2
        assert np.max(np.abs(lhs_c - rhs_c)) <= 1e-12
        lhs_s = s(kk, tt)
        rhs_s = 2.0 * s(kk, tt / 2.0) * c(kk, tt / 2.0)
        assert np.max(np.abs(lhs_s - rhs_s)) <= 1e-12

    def test_ode_property(self):
        h = 1e-4
        for kappa in (-2.0, -0.5, 0.7, 3.0):
            for theta in (0.2, 0.9, 1.7):
                d2 = (s(kappa, theta + h) - 2 * s(kappa, theta) + s(kappa, theta - h)) / h**2
                assert d2 == pytest.approx(-kappa * s(kappa, theta), abs=5e-7)


class TestSmallKappa:
    def test_series_matches_oracle(self):
        for kappa in (1e-9, -1e-9, 1e-12, -3e-8):
            for theta in (0.1, 1.0, 2.9):
                assert s(kappa, theta) == pytest.approx(
                    float(mp_s(kappa, theta)), abs=1e-15)
                assert c(kappa, theta) == pytest.approx(
                    float(mp_c(kappa, theta)), abs=1e-15)

    def test_continuity_through_zero(self):
        theta = np.linspace(0.0, 3.0, 50)
        prev = np.max(np.abs(s(1e-4, theta) - s(0.0, theta)))
        for k in (1e-6, 1e-8, 1e-10, 1e-12):
            cur = np.max(np.abs(s(k, theta) - s(0.0, theta)))
            assert cur <= prev + 1e-15
            prev = cur
        assert prev <= 1e-11


def _same_bits(got, want):
    """Equal shapes and bits, a NaN matching any NaN."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    nan = np.isnan(want)
    return (got.shape == want.shape and np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64)))


KAPPA = st.one_of(st.sampled_from([0.0, 1e-12, -1e-12]), st.floats(-50.0, 50.0))
# theta = 0, the series branch, out of domain for kappa > 0, and sinh overflow
THETA = st.one_of(st.just(0.0), st.floats(0.0, 1e-3), st.floats(0.0, 20.0),
                  st.floats(0.0, 200.0))
T = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


class TestArrayEqualsScalar:
    """An array call gives, bit for bit, the per-element scalar calls."""

    @settings(max_examples=150, deadline=None)
    @given(kappas=st.lists(KAPPA, min_size=1, max_size=6),
           ts=st.lists(T, min_size=1, max_size=4),
           thetas=st.lists(THETA, min_size=1, max_size=6),
           N=st.floats(-20.0, -0.05), kappa_array=st.booleans())
    @example(kappas=[-1e-12, 0.0, 1e-12, 4.0], ts=[0.0, 0.5, 1.0],
             thetas=[0.0, 1e-4, 1.0, 1.6, 150.0], N=-2.0, kappa_array=True)
    def test_array_call_equals_scalar_calls(self, kappas, ts, thetas, N, kappa_array):
        # axes: t, x
        t = np.array(ts)[:, None]
        theta = np.array(thetas)
        kappa = np.resize(kappas, theta.shape) if kappa_array else kappas[0]
        cases = [(s, (kappa, t * theta)), (c, (kappa, t * theta)),
                 (sigma, (kappa, t, theta)),
                 (lambda K, tt, th: tau(K, N, tt, th), (kappa, t, theta))]
        with np.errstate(over="ignore", invalid="ignore"):
            for fn, args in cases:
                got = fn(*args)
                grids = np.broadcast_arrays(*args)
                want = [fn(*map(float, point)) for point in zip(*(g.ravel() for g in grids))]
                assert _same_bits(got, np.reshape(want, grids[0].shape))


# kappa at 0, at the smallest and a tiny magnitude, either side of the series
# threshold at theta = 1 and 1e-3, and past pi^2/theta^2 (out of the domain)
SCALAR_KAPPA = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300,
                                SERIES_THRESHOLD, -SERIES_THRESHOLD,
                                SERIES_THRESHOLD * 1.0000001, 0.999999, 1.000001,
                                -1.000001, 20.0, -20.0])


class TestScalarKappa:
    """A scalar kappa takes its own path, which gives the bits of the same
    kappa in a 1-element array."""

    @settings(max_examples=300, deadline=None)
    @given(kappa=st.one_of(SCALAR_KAPPA, KAPPA),
           thetas=st.lists(st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 1.0]), THETA),
                           min_size=1, max_size=6),
           ts=st.lists(st.one_of(st.sampled_from([0.0, 1.0, 5e-324]), T),
                       min_size=1, max_size=4),
           N=st.floats(-20.0, -0.05))
    @example(kappa=4.0, thetas=[0.0, 1e-4, math.pi / 2, 2.0], ts=[0.0, 0.5, 1.0], N=-2.0)
    def test_scalar_equals_one_element_array(self, kappa, thetas, ts, N):
        t = np.array(ts)[:, None]
        theta = np.array(thetas)
        # pi/sqrt(kappa) is where the kappa > 0 coefficients leave their domain
        if kappa > 0:
            theta = np.append(theta, math.pi / math.sqrt(kappa))
        ends = np.stack((1.0 - t, t))
        with np.errstate(over="ignore", invalid="ignore"):
            for fn, args in ((s, (t * theta,)), (c, (t * theta,)), (sigma, (ends, theta)),
                             (lambda k, tt, th: tau(k, N, tt, th), (ends, theta))):
                assert _same_bits(fn(kappa, *args), fn(np.array([kappa]), *args))

    @settings(max_examples=100, deadline=None)
    @given(ts=st.lists(T, min_size=1, max_size=4), thetas=st.lists(THETA, min_size=1, max_size=6),
           N=st.floats(-20.0, -0.05), zero=st.sampled_from([0.0, -0.0]))
    def test_zero_kappa_gives_t(self, ts, thetas, N, zero):
        t, theta = np.array(ts)[:, None], np.array(thetas)
        want = np.broadcast_to(t, (len(ts), len(thetas)))
        assert _same_bits(sigma(zero, t, theta), want)
        assert _same_bits(tau(zero, N, t, theta), want + 0.0)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        out = fn()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


class TestAllocation:
    """tau on the (2, 33, 2048) grid of check_cd makes its output and little
    more: K = 0 copies t, and otherwise the power step works in place."""

    def _grid(self):
        t = np.linspace(0.02, 0.98, 33)[:, None]
        theta = np.abs(np.random.default_rng(3).normal(0.0, 1.0, 2048))
        return np.stack((1.0 - t, t)), theta

    def test_zero_curvature_copies_t(self):
        ends, theta = self._grid()
        peak, out = _peak_bytes(lambda: tau(0.0, -3.0, ends, theta))
        assert out.shape == (2, 33, 2048)
        assert peak <= 1.5 * out.nbytes

    def test_power_step_in_place(self):
        ends, theta = self._grid()
        peak, out = _peak_bytes(lambda: tau(0.6, -3.0, ends, theta))
        # 2.3 outputs in place; a power step with temporaries peaks at 3.1
        assert peak < 3.0 * out.nbytes


class TestStackedEnds:
    """Times (1 - t, t) stacked on a leading axis give, bit for bit, the two
    separate calls: the checkers ask for both ends of a segment at once."""

    @settings(max_examples=150, deadline=None)
    @given(kappas=st.lists(KAPPA, min_size=1, max_size=5),
           ts=st.lists(T, min_size=1, max_size=4),
           thetas=st.lists(THETA, min_size=1, max_size=5),
           layout=st.sampled_from(["scalar", "outer", "column", "paired"]),
           N=st.floats(-20.0, -0.05), kappa_array=st.booleans())
    # every value on the series branch
    @example(kappas=[1e-12], ts=[0.0, 0.3, 1.0], thetas=[0.0, 1e-4, 0.5],
             layout="outer", N=-2.0, kappa_array=False)
    # series, closed form and +inf in one array, t = 0 and t = 1
    @example(kappas=[-1e-12, 0.0, 1e-12, 4.0, -3.0], ts=[0.0, 0.5, 1.0],
             thetas=[0.0, 1e-4, 1.0, 1.6, 150.0], layout="outer", N=-0.5,
             kappa_array=True)
    # a column of theta against a row of times, +inf from theta >= pi/2
    @example(kappas=[4.0], ts=[0.0, 0.25], thetas=[1.0, 1.6, 3.0],
             layout="column", N=-3.0, kappa_array=False)
    def test_stacked_call_equals_two_calls(self, kappas, ts, thetas, layout, N,
                                           kappa_array):
        t, theta = {"scalar": (np.array(ts), thetas[0]),
                    "outer": (np.array(ts)[:, None], np.array(thetas)),
                    "column": (np.array(ts)[None, :], np.array(thetas)[:, None]),
                    "paired": (np.array(ts), np.resize(thetas, len(ts)))}[layout]
        kappa = np.resize(kappas, np.shape(theta)) if kappa_array else kappas[0]
        K = np.multiply(kappa, N - 1.0)
        ends = np.stack((1.0 - t, t))
        with np.errstate(over="ignore", invalid="ignore"):
            for fn in (lambda tt: sigma(kappa, tt, theta),
                       lambda tt: tau(K, N, tt, theta)):
                want = np.stack(np.broadcast_arrays(fn(1.0 - t), fn(t)))
                assert _same_bits(fn(ends), want)


class TestContinuityAcrossBranches:
    """s, c, sigma and tau follow the 50-digit oracle on both sides of
    SERIES_THRESHOLD and of kappa = 0."""

    @settings(max_examples=200, deadline=None)
    @given(theta=st.floats(1e-3, 10.0),
           u=st.one_of(st.floats(0.25, 4.0), st.floats(0.0, 1e-6)),
           sign=st.sampled_from([-1.0, 1.0]), t=st.floats(1e-3, 1.0),
           N=st.floats(-20.0, -0.1))
    @example(theta=1.0, u=1.0, sign=1.0, t=0.5, N=-2.0)
    @example(theta=1.0, u=1.0, sign=-1.0, t=0.5, N=-2.0)
    @example(theta=3.0, u=np.nextafter(1.0, 2.0), sign=-1.0, t=0.5, N=-2.0)
    @example(theta=3.0, u=0.0, sign=-1.0, t=0.5, N=-2.0)
    def test_matches_mpmath(self, theta, u, sign, t, N):
        # |kappa| theta^2 = u * SERIES_THRESHOLD
        kappa = sign * u * SERIES_THRESHOLD / theta**2
        K = kappa * (N - 1.0)

        def mp_sigma(k):
            return mp_s(k, t * theta) / mp_s(k, theta)

        n = mpmath.mpf(N)
        mp_tau = mpmath.mpf(t) ** (1 / n) * mp_sigma(K / (N - 1.0)) ** ((n - 1) / n)
        for got, want in ((s(kappa, theta), mp_s(kappa, theta)),
                          (c(kappa, theta), mp_c(kappa, theta)),
                          (sigma(kappa, t, theta), mp_sigma(kappa)),
                          (tau(K, N, t, theta), mp_tau)):
            assert abs(got - want) <= 1e-12 * abs(want)


class TestMonotonicity:
    def test_sigma_nondecreasing_in_kappa(self):
        for t in (0.2, 0.5, 0.8):
            for theta in (0.3, 1.0, 2.0):
                kmax = (math.pi / theta) ** 2
                kappas = np.linspace(-6.0, 0.95 * kmax, 120)
                vals = sigma(kappas, t, theta)
                assert np.all(np.diff(vals) >= -1e-12)

    def test_tau_below_sigma_on_grid(self):
        for K in (-1.0, 0.0, 1.0):
            for N in (-0.5, -2.0, -10.0):
                if K < 0:
                    cut = math.pi * math.sqrt(N / K)
                    thetas = np.linspace(1e-3, 0.95 * cut, 40)
                else:
                    thetas = np.linspace(1e-3, 4.0, 40)
                for t in (0.1, 0.5, 0.9):
                    tv = np.asarray(tau(K, N, t, thetas))
                    sv = np.asarray(sigma(K / N, t, thetas))
                    assert np.all(tv <= sv + 1e-12)


class TestGCombiner:
    def test_zero_base(self):
        assert g_combiner(0.4, 0.0, 0.0, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_equal_arguments_flat(self):
        assert g_combiner(0.5, 1.7, 1.7, 0.0) == pytest.approx(1.7, abs=1e-14)

    def test_rejects_large_kappa(self):
        with pytest.raises(ValueError):
            g_combiner(0.5, 0.0, 0.0, math.pi**2)

    @pytest.mark.parametrize("t", [1.5, -0.1, [0.5, 1.0 + 1e-12]])
    def test_rejects_t_outside_unit_interval(self, t):
        with pytest.raises(ValueError, match=r"t must lie in \[0, 1\]"):
            g_combiner(t, 0.0, 0.0, 1.0)

    def test_array_call_equals_scalar_calls(self):
        # t broadcasts against kappa, theta and eta
        t, kappa = np.array([[0.0], [0.3], [1.0]]), np.array([-4.0, 0.0, 1e-12, 2.0])
        got = g_combiner(t, 0.4, -1.1, kappa)
        want = [[g_combiner(float(tt), 0.4, -1.1, float(k)) for k in kappa] for tt in t[:, 0]]
        assert np.array_equal(got, want)

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(20250810)
        for _ in range(100):
            t = rng.uniform(0.05, 0.95)
            p = rng.uniform([-2.0, -2.0, -5.0], [2.0, 2.0, 8.0])
            q = rng.uniform([-2.0, -2.0, -5.0], [2.0, 2.0, 8.0])
            mid = 0.5 * (p + q)
            g_mid = g_combiner(t, *mid)
            g_avg = 0.5 * (g_combiner(t, *p) + g_combiner(t, *q))
            assert g_mid <= g_avg + 1e-12
