"""1-D optimal transport, entropies, and the curvature-dimension suite."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson

from negdimcd import (
    GeodesicPath,
    brunn_minkowski,
    check_cd,
    check_entropic_cd,
    check_jacobian_convexity,
    fisher_information,
    gaussian_density,
    gaussian_line,
    hwi_check,
    interpolate,
    lebesgue_line,
    log_sobolev_check,
    power_weight_line,
    reference_density,
    relative_entropy,
    renyi_entropy,
    sigma,
    talagrand_check,
    uniform_density,
    w2,
)
from negdimcd.transport import _simpson_cdf


class TestDensity1D:
    def test_mass_tolerance_enforced(self):
        # a normal density cut at 4 sd misses mass 6.3e-5
        from negdimcd import Density1D
        pdf = lambda x: np.exp(-0.5 * np.asarray(x, dtype=float) ** 2) / math.sqrt(2.0 * math.pi)
        with pytest.raises(ValueError, match="mass"):
            Density1D(support=(-4.0, 4.0), pdf=pdf)

    def test_quantile_cdf_roundtrip(self):
        mu = gaussian_density(0.3, 1.2)
        xs = np.linspace(-3.0, 3.5, 41)
        back = np.asarray(mu.quantile(mu.cdf(xs)))
        assert np.max(np.abs(back - xs)) <= 1e-6

    def test_quantile_monotone(self):
        mu = gaussian_density(0.0, 1.0)
        u = np.linspace(1e-6, 1.0 - 1e-6, 400)
        q = np.asarray(mu.quantile(u))
        assert np.all(np.diff(q) >= 0)

    def test_normalize_flag(self):
        from negdimcd import Density1D
        mu = Density1D(support=(0.0, 2.0), pdf=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                       normalize=True)
        assert float(mu.cdf(2.0)) == pytest.approx(1.0, abs=1e-12)
        assert float(mu.pdf(1.0)) == pytest.approx(0.5, abs=1e-12)

    def test_normalize_scales_the_derivative(self):
        # the Fisher information of a measure against itself is 0; an
        # unscaled d_pdf made it 17.79 here
        from negdimcd import Density1D
        space = power_weight_line(-3.0, 0.5, 8.0)
        mu = Density1D(support=space.interval, pdf=lambda x: np.exp(-space.psi(x)),
                       d_pdf=lambda x: -space.psi.deriv(x) * np.exp(-space.psi(x)),
                       normalize=True)
        assert float(mu.pdf_deriv(2.0)) == pytest.approx(
            -3.0 / 2.0 * float(mu.pdf(2.0)), rel=1e-12)
        assert fisher_information(mu, space) <= 1e-20

    def test_nonfinite_mass_rejected(self):
        from negdimcd import Density1D
        with np.errstate(divide="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="not finite"):
            Density1D(support=(0.0, 1.0), pdf=lambda x: 0.5 / np.sqrt(x), normalize=True)

    def test_nan_reported_before_a_negative_value(self):
        # the finiteness check comes first, wherever the NaN lies
        from negdimcd import Density1D

        def pdf(x):
            out = np.ones_like(x)
            out[10], out[20] = -1.0, np.nan
            return out

        with pytest.raises(ValueError, match=r"pdf nan is not finite at x=0\.2\b"):
            Density1D(support=(0.0, 1.0), pdf=pdf, quad_nodes=100)

    def test_table_build_allocates_little_beyond_its_arrays(self):
        # the nodes, the pdf values and the table, and little more: the pdf
        # and the Simpson blocks work in place
        tracemalloc.start()
        try:
            mu = gaussian_density(0.3, 1.2, quad_nodes=2**17)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.0 * mu._cdf.nbytes


@st.composite
def _sampled_pdfs(draw):
    """(support, quad_nodes, pdf): a pdf that returns one array of samples,
    runs of zeros between runs of uniform draws, scaled to Simpson mass 1
    and ending in a positive run.  Where a zero run meets a positive one a
    Simpson increment can be negative, and the table needs its running
    maximum."""
    runs = draw(st.lists(st.tuples(st.integers(1, 300), st.booleans()), min_size=1,
                         max_size=12))
    width = draw(st.floats(1e-3, 1e3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pv = np.concatenate([np.zeros(k) if zero else rng.uniform(0.0, 1.0, k)
                         for k, zero in runs] + [rng.uniform(0.5, 1.0, 3)])
    quad_nodes = len(pv) - 1
    pv /= cumulative_simpson(pv, dx=width / quad_nodes)[-1]
    return (0.0, width), quad_nodes, lambda x: pv


class TestSimpsonTable:
    """The cdf table's Simpson rule is scipy's, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(nodes=st.integers(3, 8193),
           offset=st.floats(-1e6, 1e6),
           width=st.floats(1e-3, 1e6),
           zeros=st.floats(0.0, 1.0),
           log_range=st.tuples(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0)),
           seed=st.integers(0, 2**32 - 1))
    @example(nodes=3, offset=0.0, width=1.0, zeros=0.0, log_range=(0.0, 0.0), seed=0)
    # the smallest table with two pairs of intervals, and the largest table
    # of the benchmark; the stride slices and the last interval depend on
    # the parity of the node count
    @example(nodes=5, offset=0.0, width=1.0, zeros=0.0, log_range=(-1.0, 1.0), seed=4)
    @example(nodes=2**19 + 1, offset=-8.0, width=16.0, zeros=0.01,
             log_range=(-300.0, 300.0), seed=5)
    @example(nodes=4, offset=0.0, width=1.0, zeros=0.5, log_range=(-300.0, 300.0), seed=1)
    @example(nodes=8192, offset=-5.0, width=10.0, zeros=0.1, log_range=(-300.0, 300.0),
             seed=2)
    @example(nodes=8193, offset=-5.0, width=10.0, zeros=1.0, log_range=(0.0, 0.0), seed=3)
    # one, two, three and sixteen blocks of _BLOCK nodes with one or two
    # nodes over: the carried sum and the last interval of an even count
    @example(nodes=2**15 + 1, offset=0.0, width=1.0, zeros=0.1, log_range=(-300.0, 300.0),
             seed=6)
    @example(nodes=2**15 + 2, offset=0.0, width=1.0, zeros=0.1, log_range=(-300.0, 300.0),
             seed=7)
    @example(nodes=2**16 + 1, offset=-1.0, width=3.0, zeros=0.0, log_range=(-2.0, 2.0),
             seed=8)
    @example(nodes=3 * 2**15 + 2, offset=-1.0, width=3.0, zeros=0.3, log_range=(-5.0, 5.0),
             seed=9)
    @example(nodes=2**19 + 2, offset=-8.0, width=16.0, zeros=0.01,
             log_range=(-300.0, 300.0), seed=10)
    # sorted keeps (0.0, -0.0) in that order, and uniform(0.0, -0.0) raises
    @example(nodes=3, offset=0.0, width=1.0, zeros=0.0, log_range=(0.0, -0.0), seed=0)
    def test_equals_scipy_cumulative_simpson(self, nodes, offset, width, zeros,
                                             log_range, seed):
        # the interval of a Density1D table on support (offset, offset + width)
        h = (offset + width - offset) / (nodes - 1)
        rng = np.random.default_rng(seed)
        lo, hi = sorted(v + 0.0 for v in log_range)
        y = 10.0 ** rng.uniform(lo, hi, nodes)
        y[rng.random(nodes) < zeros] = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            got = _simpson_cdf(y, h)
            want = cumulative_simpson(y, dx=h, initial=0.0)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @settings(max_examples=100, deadline=None)
    @given(case=_sampled_pdfs(), normalize=st.booleans())
    # one negative Simpson increment, next to the kink at 0
    @example(case=((-1.0, 2.0), 8192, lambda x: (abs(x) + x) ** 3), normalize=True)
    def test_table_is_the_monotone_scipy_table(self, case, normalize):
        from negdimcd import Density1D
        (a, b), quad_nodes, pdf = case
        pv = pdf(np.linspace(a, b, quad_nodes + 1))
        unchanged = pv.copy()
        want = cumulative_simpson(pv, dx=(b - a) / quad_nodes, initial=0.0)
        if normalize:
            want = want / want[-1]
        want = np.maximum.accumulate(want)
        want[-1] = max(want[-1], 1.0)
        got = Density1D(support=(a, b), pdf=pdf, quad_nodes=quad_nodes,
                        normalize=normalize)._cdf
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        # the samples pdf hands out the same array on every call
        assert np.array_equal(pv.view(np.uint64), unchanged.view(np.uint64))

    @pytest.mark.parametrize("quad_nodes", [1, 0, -3])
    def test_fewer_than_two_intervals_rejected(self, quad_nodes):
        from negdimcd import Density1D
        with pytest.raises(ValueError, match=f"quad_nodes must be at least 2, got {quad_nodes}"):
            Density1D(support=(0.0, 1.0), pdf=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                      quad_nodes=quad_nodes)

    @pytest.mark.parametrize("support", [(1.0, math.inf), (-math.inf, 5.0),
                                         (math.nan, 1.0), (2.0, 1.0), (1.0, 1.0)])
    def test_support_that_is_not_a_finite_interval_rejected(self, support):
        # an infinite end read "narrower than its intervals", or a NaN pdf at x=nan
        from negdimcd import Density1D
        message = f"support {support!r} is not a finite interval lo < hi"
        with pytest.raises(ValueError, match=re.escape(message)):
            Density1D(support=support, pdf=lambda x: np.exp(-np.asarray(x, dtype=float) ** 2))

    def test_support_narrower_than_its_nodes_rejected(self):
        # linspace repeats nodes here; a 0 interval would divide by zero
        with pytest.raises(ValueError, match="strictly increasing"):
            uniform_density(1.0, 1.0 + 1e-13)


class TestW2:
    def test_identity(self):
        mu = gaussian_density(0.0, 1.0)
        assert w2(mu, mu) == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_mean_shift(self):
        assert w2(gaussian_density(0.0, 1.0), gaussian_density(1.0, 1.0),
                  n_nodes=10000) == pytest.approx(1.0, abs=1e-4)

    def test_gaussian_general_oracle(self):
        # closed form sqrt(dm^2 + ds^2)
        val = w2(gaussian_density(0.0, 1.0), gaussian_density(0.5, 1.3))
        assert val == pytest.approx(math.sqrt(0.25 + 0.09), abs=1e-4)

    def test_uniform_translation(self):
        assert w2(uniform_density(0.0, 1.0), uniform_density(2.0, 3.0)) == pytest.approx(
            2.0, abs=1e-10)

    def test_quantile_coupling_is_optimal(self):
        # brute-force oracle: monotone matching beats 200 random permutation
        # couplings of 30-atom discretizations, and matches w2 within 2%
        rng = np.random.default_rng(424242)
        u = (np.arange(30) + 0.5) / 30.0
        for trial in range(20):
            if trial % 2 == 0:
                mu0 = gaussian_density(rng.uniform(-1, 1), rng.uniform(0.7, 1.3))
                mu1 = gaussian_density(rng.uniform(-1, 1), rng.uniform(0.7, 1.3))
            else:
                a0, w0_ = rng.uniform(-2, 0), rng.uniform(0.5, 2.0)
                a1, w1_ = rng.uniform(0, 2), rng.uniform(0.5, 2.0)
                mu0, mu1 = uniform_density(a0, a0 + w0_), uniform_density(a1, a1 + w1_)
            X = np.asarray(mu0.quantile(u))
            Y = np.asarray(mu1.quantile(u))
            mono = float(np.mean((X - Y) ** 2))
            for _ in range(200):
                perm = rng.permutation(30)
                assert float(np.mean((X - Y[perm]) ** 2)) >= mono - 1e-12
            W = w2(mu0, mu1)
            assert abs(math.sqrt(mono) - W) <= 0.02 * W


class TestTransportMap:
    def test_pushforward_residual(self):
        mu0 = gaussian_density(0.0, 1.0)
        mu1 = gaussian_density(0.5, 1.3)
        xs = np.linspace(-2.5, 2.5, 21)
        resid = np.abs(np.asarray(mu1.cdf(GeodesicPath(mu0, mu1, xs).Tx))
                       - np.asarray(mu0.cdf(xs)))
        assert resid.max() <= 1e-6

    def test_map_monotone_and_derivative_consistent(self):
        mu0 = gaussian_density(0.0, 1.0)
        mu1 = uniform_density(1.0, 4.0)
        xs = np.linspace(-2.0, 2.0, 31)
        plan = GeodesicPath(mu0, mu1, xs)
        assert np.all(np.diff(plan.Tx) > 0)
        h = 1e-5
        ahead, behind = GeodesicPath(mu0, mu1, xs + h), GeodesicPath(mu0, mu1, xs - h)
        fd = (ahead.Tx - behind.Tx) / (2 * h)
        assert np.max(np.abs(fd - plan.dTx)) <= 1e-3
        assert (plan.rho1 == mu1.pdf(plan.Tx)).all()

    def test_checkers_evaluate_each_pdf_once_at_the_source_nodes(self):
        space = gaussian_line(1.0)
        mu0, mu1 = gaussian_density(0.5, 1.0), gaussian_density(-0.5, 0.8)
        xs = mu0.interior_nodes(512, 4)[0]
        Tx = GeodesicPath(mu0, mu1, xs).Tx
        calls = {0: [], 1: []}

        def counted(mu, key):
            pdf = mu.pdf

            def wrapper(x):
                calls[key].append(np.array(x, dtype=float))
                return pdf(x)
            return wrapper

        mu0.pdf, mu1.pdf = counted(mu0, 0), counted(mu1, 1)

        def count(key, at):
            n = sum(x.shape == at.shape and (x == at).all() for x in calls[key])
            calls[key].clear()
            return n

        check_cd(space, mu0, mu1, 1.0, -2.0, [0.25, 0.5, 0.75])
        assert (count(0, xs), count(1, Tx)) == (1, 1)
        # the entropies' own quadratures evaluate the pdfs elsewhere
        check_entropic_cd(space, mu0, mu1, 1.0, -2.0, [0.25, 0.5, 0.75])
        assert count(0, xs) == 1


class TestInterpolation:
    def test_endpoints(self):
        mu0 = gaussian_density(0.0, 1.0)
        mu1 = gaussian_density(1.0, 1.5)
        for t, ref in ((0.0, mu0), (1.0, mu1)):
            dens = interpolate(mu0, mu1, t)
            xs = np.linspace(-2.0, 3.0, 17)
            # piecewise-linear pdf tables resolve to ~(grid step)^2 per node
            assert np.max(np.abs(np.asarray(dens.pdf(xs)) - np.asarray(ref.pdf(xs)))) <= 5e-7

    def test_gaussian_affine_oracle(self):
        # monotone map between gaussians is affine, so mu_t is the gaussian
        # with linearly interpolated mean and standard deviation
        m0, s0, m1, s1 = 0.0, 1.0, 1.0, 1.5
        mu_t = interpolate(gaussian_density(m0, s0), gaussian_density(m1, s1), 0.4)
        mt, st = 0.6 * m0 + 0.4 * m1, 0.6 * s0 + 0.4 * s1
        xs = np.linspace(-2.0, 3.0, 17)
        oracle = np.exp(-0.5 * ((xs - mt) / st) ** 2) / (st * math.sqrt(2 * math.pi))
        assert np.max(np.abs(np.asarray(mu_t.pdf(xs)) - oracle)) <= 5e-7

    def test_uniform_stretch(self):
        mu_t = interpolate(uniform_density(0.0, 1.0), uniform_density(0.0, 2.0), 0.5)
        assert mu_t.support == (0.0, 1.5)
        assert float(mu_t.pdf(0.7)) == pytest.approx(1.0 / 1.5, abs=1e-12)

    def test_monge_ampere_residual_lebesgue(self):
        mu0 = gaussian_density(0.0, 1.0)
        mu1 = gaussian_density(0.5, 1.3)
        xs, _ = mu0.interior_nodes(512, 4)
        path = GeodesicPath(mu0, mu1, xs)
        for t in (0.25, 0.5, 0.75):
            dens = interpolate(mu0, mu1, t)
            Ttx = path.position(t)
            J = path.jacobian_lebesgue(t)
            resid = np.abs(np.asarray(mu0.pdf(xs)) - np.asarray(dens.pdf(Ttx)) * J)
            assert resid.max() <= 1e-6

    def test_monge_ampere_residual_weighted(self):
        space = power_weight_line(-3.0, 0.5, 8.0)
        mu0, mu1 = uniform_density(1.0, 2.0), uniform_density(3.0, 5.0)
        xs, _ = mu0.interior_nodes(256, 4)
        path = GeodesicPath(mu0, mu1, xs)
        for t in (0.3, 0.6):
            dens = interpolate(mu0, mu1, t)
            Ttx = path.position(t)
            jw = (np.exp(np.asarray(space.psi(xs)) - np.asarray(space.psi(Ttx)))
                  * path.jacobian_lebesgue(t))
            rho0 = np.asarray(mu0.pdf(xs)) * np.exp(np.asarray(space.psi(xs)))
            rho_t = np.asarray(dens.pdf(Ttx)) * np.exp(np.asarray(space.psi(Ttx)))
            assert np.abs(rho0 - rho_t * jw).max() <= 1e-6

    def test_geodesic_speed_property(self):
        mu0 = gaussian_density(0.0, 1.0)
        mu1 = gaussian_density(0.5, 1.3)
        W = w2(mu0, mu1)
        dens = {t: interpolate(mu0, mu1, t) for t in (0.0, 0.25, 0.5, 0.75, 1.0)}
        for s_ in dens:
            for t_ in dens:
                if s_ < t_:
                    assert abs(w2(dens[s_], dens[t_]) - (t_ - s_) * W) <= 1e-5


class TestEntropies:
    def test_uniform_against_lebesgue(self):
        leb = lebesgue_line(-1.0, 2.0)
        mu = uniform_density(0.0, 1.0)
        assert renyi_entropy(mu, leb, -2.0) == pytest.approx(1.0, abs=1e-10)
        assert relative_entropy(mu, leb) == pytest.approx(0.0, abs=1e-12)
        assert fisher_information(mu, leb) == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_kl_and_score(self):
        gl = gaussian_line(1.0)
        mu = gaussian_density(1.0, 1.0)
        assert relative_entropy(mu, gl) == pytest.approx(0.5, abs=1e-6)
        assert fisher_information(mu, gl) == pytest.approx(1.0, abs=1e-6)

    def test_renyi_gaussian_moment_oracle(self):
        # int phi^p dx = p^(-1/2) (2 pi)^((1-p)/2) with p = (N-1)/N = 3/2
        leb = lebesgue_line(-10.0, 10.0)
        mu = gaussian_density(0.0, 1.0)
        p = 1.5
        oracle = p ** -0.5 * (2.0 * math.pi) ** ((1.0 - p) / 2.0)
        assert renyi_entropy(mu, leb, -2.0) == pytest.approx(oracle, abs=1e-9)


@st.composite
def gaussian_cd_cases(draw):
    """(space, mu0, mu1, K, N): gaussian_line(curv), which is CD(K, N) for
    every K <= curv and N < 0 since Ric_N >= curv, and two normals whose
    8-sd supports lie inside the line."""
    curv = draw(st.floats(0.3, 2.0))
    K = draw(st.floats(-2.0, curv))
    N = draw(st.floats(-10.0, -1.05))
    space = gaussian_line(curv)
    half = space.interval[1]

    def normal():
        sd = draw(st.floats(0.05, 1.0)) * half / 8.0
        return gaussian_density(draw(st.floats(-1.0, 1.0)) * (half - 8.0 * sd), sd)

    return space, normal(), normal(), K, N


class TestCheckCD:
    SPACE = power_weight_line(-3.0, 0.5, 8.0)  # flat model for N = -2
    MU0 = uniform_density(1.0, 2.0)
    MU1 = uniform_density(3.0, 5.0)
    TS = [0.1, 0.25, 0.5, 0.75, 0.9]
    GAUSSIAN = (gaussian_line(1.0), gaussian_density(0.5, 1.0),
                gaussian_density(-0.5, 1.0), 1.0, -2.0)
    # one measure twice, deep in the reference normal: S_{N/4} reaches 5.5e8
    # and 1e4, and the margins 0 are off by one ulp of that, beyond tol 1e-8
    SAME_DEEP = (gaussian_line(1.0), gaussian_density(4.0, 0.5),
                 gaussian_density(4.0, 0.5), 0.0, -2.0)
    SAME_DEEP_N = (gaussian_line(1.0), gaussian_density(3.0, 0.3),
                   gaussian_density(3.0, 0.3), 0.0, -1.05)
    # margins near 1e6 at K = 0 and K = eps: an ulp between tau and sigma
    # there would put the CD margin above the CD* one by more than 1e-12
    FLAT_FAR = (gaussian_line(0.3), gaussian_density(-11.7, 0.36),
                gaussian_density(-13.4, 0.09), 0.0, -1.8)
    EPS_K = (gaussian_line(1.0), gaussian_density(6.5625, 0.0625),
             gaussian_density(0.0, 1.0), 2.220446049250313e-16, -1.5)

    def test_model_weight_passes(self):
        rep = check_cd(self.SPACE, self.MU0, self.MU1, 0.0, -2.0, self.TS)
        assert rep.passed

    @settings(max_examples=60, deadline=None)
    @given(case=gaussian_cd_cases())
    @example(case=(SPACE, MU0, MU1, 0.0, -2.0))
    @example(case=GAUSSIAN)
    @example(case=SAME_DEEP)
    @example(case=SAME_DEEP_N)
    def test_dimension_monotonicity(self, case):
        space, mu0, mu1, K, N = case
        rep = check_cd(space, mu0, mu1, K, N, self.TS,
                       n_prime_list=[N, N / 2.0, N / 4.0])
        assert rep.passed

    def test_same_measure_margin_zero(self):
        rep = check_cd(self.SPACE, self.MU0, self.MU0, 0.0, -2.0, [0.25, 0.5, 0.75])
        assert abs(rep.worst_margin) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(case=gaussian_cd_cases())
    @example(case=(SPACE, MU0, MU1, 0.0, -2.0))
    @example(case=GAUSSIAN)
    @example(case=FLAT_FAR)
    @example(case=EPS_K)
    def test_cd_implies_cdstar(self, case):
        space, mu0, mu1, K, N = case
        cd = check_cd(space, mu0, mu1, K, N, self.TS)
        cdstar = check_cd(space, mu0, mu1, K, N, self.TS, mode="CDstar")
        assert cdstar.worst_margin >= cd.worst_margin - 1e-12
        if cd.passed:
            assert cdstar.passed

    def test_gaussian_space_positive_curvature(self):
        rep = check_cd(*self.GAUSSIAN, self.TS)
        assert rep.passed

    def test_negative_k_out_of_range_is_trivial(self):
        # measures far apart relative to pi*sqrt((N'-1)/K) hit the +inf rule
        space = lebesgue_line(-1.0, 30.0)
        mu0 = uniform_density(0.0, 1.0)
        mu1 = uniform_density(20.0, 21.0)
        rep = check_cd(space, mu0, mu1, -1.0, -2.0, [0.5])
        assert rep.status == "trivial"
        assert rep.passed

    def test_alternate_weight_crosscheck_recorded(self):
        # the off-by-one power weight x^N misses CD(0, N); the t grid of the
        # battery's model-weight run, 0.25 0.5 0.75, gives the same margin
        space_alt = power_weight_line(-2.0, 0.5, 8.0)
        for ts in (self.TS, [0.25, 0.5, 0.75]):
            rep = check_cd(space_alt, self.MU0, self.MU1, 0.0, -2.0, ts)
            assert not rep.passed
            assert rep.worst_margin == pytest.approx(-0.08115203501584789, rel=1e-9)

    def test_rejects_nan_t(self):
        with pytest.raises(ValueError, match=r"t must lie in \[0, 1\]"):
            check_cd(self.SPACE, self.MU0, self.MU1, 0.0, -2.0, [0.5, math.nan])

    def test_rejects_bad_n_prime(self):
        with pytest.raises(ValueError):
            check_cd(self.SPACE, self.MU0, self.MU1, 0.0, -2.0, [0.5],
                     n_prime_list=[-3.0])
        with pytest.raises(ValueError, match="at least one N'"):
            check_cd(self.SPACE, self.MU0, self.MU1, 0.0, -2.0, [0.5], n_prime_list=[])

    @settings(max_examples=20, deadline=None)
    @given(case=gaussian_cd_cases(), mode=st.sampled_from(["CD", "CDstar"]))
    @example(case=(SPACE, MU0, MU1, 0.0, -2.0), mode="CD")
    @example(case=GAUSSIAN, mode="CDstar")
    def test_several_n_primes_equal_the_single_calls(self, case, mode):
        space, mu0, mu1, K, N = case
        n_primes = [N, 0.6 * N, 0.3 * N]
        joint = check_cd(space, mu0, mu1, K, N, self.TS, n_prime_list=n_primes, mode=mode)
        worst = min((check_cd(space, mu0, mu1, K, N, self.TS, n_prime_list=[npr], mode=mode)
                     for npr in n_primes), key=lambda rep: rep.worst_margin)
        assert (joint.worst_margin, joint.worst_location) == \
            (worst.worst_margin, worst.worst_location)


class TestJacobianConvexity:
    def test_unweighted_power_convexity(self):
        space = lebesgue_line(-10.0, 10.0)
        mu0 = gaussian_density(0.0, 1.0)
        mu1 = gaussian_density(1.0, 1.4)
        rep = check_jacobian_convexity(space, mu0, mu1, 0.0, -2.0, [0.25, 0.5, 0.75])
        assert rep.passed

    def test_homothety_equality_on_model_weight(self):
        N = -2.0
        space = power_weight_line(N - 1.0, 0.5, 8.0)
        c = 2.0
        mu0 = uniform_density(1.0, 2.0)
        mu1 = uniform_density(c * 1.0, c * 2.0)
        rep = check_jacobian_convexity(space, mu0, mu1, 0.0, N, [0.2, 0.5, 0.8])
        assert abs(rep.worst_margin) <= 1e-9

    def test_weighted_gaussian_passes(self):
        space = gaussian_line(1.0)
        mu0 = uniform_density(1.0, 2.0)
        mu1 = uniform_density(2.5, 3.2)
        rep = check_jacobian_convexity(space, mu0, mu1, 1.0, -3.0, [0.25, 0.5, 0.75])
        assert rep.passed


class TestBrunnMinkowski:
    def test_homothety_equality(self):
        N = -2.0
        space = power_weight_line(N - 1.0, 0.25, 16.0)
        rep = brunn_minkowski(space, (1.0, 2.0), (2.0, 4.0), 0.5, 0.0, N)
        assert abs(rep.worst_margin) <= 1e-10
        # measures match the closed form (a^N - b^N) / (-N)
        for key, (a, b) in (("m0", (1.0, 2.0)), ("m1", (2.0, 4.0)), ("mt", (1.5, 3.0))):
            assert rep.details[key] == pytest.approx(
                (a ** N - b ** N) / (-N), abs=1e-12)

    def test_identical_sets(self):
        space = power_weight_line(-3.0, 0.25, 16.0)
        rep = brunn_minkowski(space, (1.0, 2.0), (1.0, 2.0), 0.3, 0.0, -2.0)
        assert abs(rep.worst_margin) <= 1e-12

    def test_lebesgue_interval_concavity(self):
        space = lebesgue_line(-1.0, 5.0)
        rep = brunn_minkowski(space, (0.0, 1.0), (2.0, 4.0), 0.5, 0.0, -2.0)
        # interval-length oracle: 0.5*1 + 0.5*2^(-1/2) vs 1.5^(-1/2)
        oracle = 0.5 + 0.5 * 2.0 ** -0.5 - 1.5 ** -0.5
        assert rep.worst_margin == pytest.approx(oracle, abs=1e-12)
        assert rep.worst_margin > 0

    def test_bmstar_mode(self):
        space = power_weight_line(-3.0, 0.25, 16.0)
        rep = brunn_minkowski(space, (1.0, 2.0), (2.0, 4.0), 0.5, 0.0, -2.0,
                              mode="BMstar")
        assert abs(rep.worst_margin) <= 1e-10

    def test_alternate_weight_fails(self):
        # cross-check of the off-by-one reading: recorded failure
        space_alt = power_weight_line(-2.0, 0.25, 16.0)
        rep = brunn_minkowski(space_alt, (1.0, 2.0), (2.0, 4.0), 0.5, 0.0, -2.0)
        assert rep.worst_margin < -1e-3

    @pytest.mark.parametrize("A0", [(0.5, 0.5), (-math.inf, 0.0), (0.0, math.inf),
                                    (math.nan, 1.0)])
    def test_empty_or_infinite_interval_rejected(self, A0):
        space = lebesgue_line(0.0, 1.0)
        with pytest.raises(ValueError, match=r"A0 .* is not a finite interval lo < hi"):
            brunn_minkowski(space, A0, (0.0, 1.0), 0.5, 0.0, -2.0)
        with pytest.raises(ValueError, match=r"A1 .* is not a finite interval lo < hi"):
            brunn_minkowski(space, (0.0, 1.0), A0, 0.5, 0.0, -2.0)


class TestEntropicCD:
    def test_gaussian_pair_positive_curvature(self):
        gl = gaussian_line(1.0)
        rep = check_entropic_cd(gl, gaussian_density(0.5, 1.0),
                                gaussian_density(-0.5, 1.0), 1.0, -2.0,
                                [0.25, 0.5, 0.75])
        assert rep.passed

    def test_gaussian_closed_form_oracle(self):
        # means +-1/2, unit variances: Ent(mu_t) = (0.5 - t)^2/2 and W2 = 1
        gl = gaussian_line(1.0)
        N = -2.0
        rep = check_entropic_cd(gl, gaussian_density(0.5, 1.0),
                                gaussian_density(-0.5, 1.0), 1.0, N, [0.5])
        e_end = math.exp(-0.125 / N)
        oracle = 2.0 * sigma(1.0 / N, 0.5, 1.0) * e_end - 1.0
        assert rep.worst_margin == pytest.approx(oracle, abs=1e-9)

    def test_same_measure_zero(self):
        gl = gaussian_line(1.0)
        mu = gaussian_density(0.3, 1.0)
        rep = check_entropic_cd(gl, mu, mu, 1.0, -2.0, [0.25, 0.5, 0.75])
        assert abs(rep.worst_margin) <= 1e-9

    def test_flat_space_uniform_translates(self):
        leb = lebesgue_line(-1.0, 4.0)
        rep = check_entropic_cd(leb, uniform_density(0.0, 1.0),
                                uniform_density(2.0, 3.0), 0.0, -2.0,
                                [0.25, 0.5, 0.75])
        assert rep.passed
        assert abs(rep.worst_margin) <= 1e-8  # entropy constant along translates

    def test_infinitesimal_and_entropic_reported_separately(self):
        # the two checks are recorded side by side, never inferred from each
        # other; on the flat model weight both sit at equality for homotheties
        N = -2.0
        space = power_weight_line(N - 1.0, 0.2, 64.0)
        pairs = [
            (uniform_density(1.0, 2.0), uniform_density(4.0, 8.0)),
            (uniform_density(0.5, 1.0), uniform_density(8.0, 16.0)),
            (uniform_density(1.0, 1.5), uniform_density(2.0, 12.0)),
        ]
        outcomes = []
        for mu0, mu1 in pairs:
            ecd = check_entropic_cd(space, mu0, mu1, 0.0, N, [0.1, 0.25, 0.5, 0.75, 0.9])
            jac = check_jacobian_convexity(space, mu0, mu1, 0.0, N, [0.25, 0.5, 0.75])
            outcomes.append((ecd.worst_margin, jac.worst_margin))
        print("\ncounterexample search (entropic vs infinitesimal margins):")
        for (m0, m1), (e, j) in zip([(1, 2), (0.5, 1), (1, 1.5)], outcomes):
            print(f"  pair starting at {m0}..{m1}: entropic={e:.3e} jacobian={j:.3e}")
        # no violation beyond quadrature noise found on this family; the
        # homothetic pairs sit at equality (margins at the 1e-9 scale)
        assert all(e >= -1e-8 and j >= -1e-8 for e, j in outcomes)


class TestFunctionalInequalities:
    GL = gaussian_line(1.0)
    MU = gaussian_density(1.0, 1.0)

    def test_talagrand_anchor(self):
        rep = talagrand_check(self.GL, self.MU, 1.0, -2.0)
        assert rep.passed
        assert rep.worst_margin == pytest.approx(0.0368, abs=1e-3)
        # frozen from the closed forms: 0.5 - 2*log(cosh(1/sqrt(2)))
        oracle = 0.5 - 2.0 * math.log(math.cosh(1.0 / math.sqrt(2.0)))
        assert rep.worst_margin == pytest.approx(oracle, abs=1e-6)

    def test_talagrand_at_reference(self):
        rep = talagrand_check(self.GL, reference_density(self.GL), 1.0, -2.0)
        assert abs(rep.worst_margin) <= 1e-6

    def test_hwi_anchor(self):
        rep = hwi_check(self.GL, self.MU, reference_density(self.GL), 1.0, -2.0)
        assert rep.passed
        assert rep.worst_margin == pytest.approx(0.0609, abs=1e-3)
        s2 = 1.0 / math.sqrt(2.0)
        oracle = (math.exp(-0.25) - math.cosh(s2)
                  + math.sqrt(2.0) * math.sinh(s2) / 2.0)
        assert rep.worst_margin == pytest.approx(oracle, abs=1e-6)

    def test_hwi_identical_measures(self):
        ref = reference_density(self.GL)
        rep = hwi_check(self.GL, ref, ref, 1.0, -2.0)
        assert abs(rep.worst_margin) <= 1e-6

    def test_hwi_needs_w2_below_the_segment_limit(self):
        # at K < 0 the inequality controls W2 below pi*sqrt(N/K) = pi*sqrt(2) only
        with pytest.raises(ValueError, match=r"segment length 5\.0\d* reaches pi\*sqrt"):
            hwi_check(self.GL, gaussian_density(0.0, 1.0), gaussian_density(5.0, 1.0),
                      -1.0, -2.0)

    def test_hwi_flat_space_shifted_uniforms(self):
        leb = lebesgue_line(-5.0, 5.0)
        rep = hwi_check(leb, uniform_density(0.0, 1.0), uniform_density(2.0, 3.0),
                        0.0, -2.0)
        assert abs(rep.worst_margin) <= 1e-8

    def test_log_sobolev_anchor(self):
        rep = log_sobolev_check(self.GL, self.MU, 1.0, -2.0)
        assert rep.passed
        assert rep.worst_margin == pytest.approx(0.2131, abs=1e-3)
        oracle = 1.0 + 2.0 * (math.exp(-0.5) - 1.0)
        assert rep.worst_margin == pytest.approx(oracle, abs=1e-6)
        assert rep.details["admissibility"] > 0

    def test_log_sobolev_inadmissible_is_vacuous(self):
        # W2 = 0.99 and I = 0.9999**2/1e-4: c_{K/N}(W) + s_{K/N}(W)/N * sqrt(I) < 0
        rep = log_sobolev_check(self.GL, gaussian_density(0.0, 0.01), 1.0, -2.0)
        assert rep.status == "vacuous"
        assert rep.passed and rep.worst_margin == math.inf
        assert re.fullmatch(r"inadmissible \(criterion -52\.38\d* <= 0\)", rep.note)

    def test_log_sobolev_at_reference(self):
        rep = log_sobolev_check(self.GL, reference_density(self.GL), 1.0, -2.0)
        assert abs(rep.worst_margin) <= 1e-6

    def test_margins_shrink_to_zero_with_dimension(self):
        ref = reference_density(self.GL)
        tal, hwi, lsi = [], [], []
        for N in (-10.0, -100.0, -1000.0):
            tal.append(talagrand_check(self.GL, self.MU, 1.0, N).worst_margin)
            hwi.append(hwi_check(self.GL, self.MU, ref, 1.0, N).worst_margin)
            lsi.append(log_sobolev_check(self.GL, self.MU, 1.0, N).worst_margin)
        for seq in (tal, hwi, lsi):
            assert all(v > 0 for v in seq)
            assert seq[0] > seq[1] > seq[2]
            assert seq[2] <= 1e-3

    def test_talagrand_rejects_wrong_signs(self):
        with pytest.raises(ValueError):
            talagrand_check(self.GL, self.MU, -1.0, -2.0)
        with pytest.raises(ValueError):
            log_sobolev_check(self.GL, self.MU, 1.0, 2.0)
