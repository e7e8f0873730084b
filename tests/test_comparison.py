"""Comparison-function branches, conventions, identities and orderings."""

import math

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
