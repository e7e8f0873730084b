"""Array checkers against per-point reference loops.

The loops below evaluate one grid point (direction, margin) at a time with
scalar calls, or one interpolation time at a time for the transport checks,
the way the checkers did before they became array expressions; the array
versions must agree with them to round-off.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from negdimcd import (
    CheckReport,
    ConvexityParams,
    GeodesicPath,
    RotSphere,
    ScalarFunction1D,
    WeightedLine,
    bochner_margin,
    check_cd,
    check_entropic_cd,
    check_pointwise,
    example_function,
    exp_transform,
    gaussian_density,
    gaussian_line,
    interior_grid,
    min_ricci_n,
    power_weight_line,
    product_direction_check,
    relative_entropy,
    ricci_n,
    sigma,
    tau,
    uniform_density,
    w2,
)
from negdimcd.cli import main
from negdimcd.expr import compile_expr


X = sympy.Symbol("x")


def from_sympy(expr, var):
    return ScalarFunction1D(
        fn=sympy.lambdify(var, expr, "numpy"),
        d1=sympy.lambdify(var, sympy.diff(expr, var), "numpy"),
        d2=sympy.lambdify(var, sympy.diff(expr, var, 2), "numpy"),
        name=str(expr))


# ---------------------------------------------------------------------------
# per-point references


def from_margins_loop(name, margins, locations, tolerance):
    """Index-ordered min over a list, one margin at a time."""
    margins, locations = list(margins), list(locations)
    nans = [i for i, m in enumerate(margins) if math.isnan(m)]
    if nans:
        return CheckReport(name=name, passed=False, worst_margin=math.nan,
                           worst_location=locations[nans[0]],
                           n_evaluations=len(margins), tolerance=tolerance,
                           status="inconclusive", note="nan margin")
    worst, where = math.inf, None
    for m, loc in zip(margins, locations):
        if m < worst:
            worst, where = m, loc
    if worst == math.inf:
        return CheckReport(name=name, passed=True, worst_margin=math.inf,
                           worst_location=None, n_evaluations=len(margins),
                           tolerance=tolerance, status="trivial")
    return CheckReport(name=name, passed=bool(worst >= -tolerance), worst_margin=worst,
                       worst_location=where, n_evaluations=len(margins),
                       tolerance=tolerance)


def pointwise_loop(f, p, grid):
    fN = exp_transform(f, p.N)
    margins = []
    for x in grid:
        d2 = float(fN.deriv2(float(x)))
        margins.append(d2 + (p.K / p.N) * float(fN(float(x))) if math.isfinite(d2)
                       else -math.inf)
    return margins


def grad_correction(g, denom):
    return 0.0 if g == 0.0 else g * g / denom


def ricci_loop(space, x, N, a):
    psi = space.psi
    pp, ppp = float(psi.deriv(x)), float(psi.deriv2(x))
    if isinstance(space, WeightedLine):
        return ppp - grad_correction(pp, N - 1.0)
    radial = ppp - grad_correction(pp, N - 2.0)
    st_ = math.sin(x)
    tangential = ppp if abs(st_) < 1e-8 else math.cos(x) / st_ * pp
    ca2 = math.cos(a) ** 2
    return 1.0 + ca2 * radial + (1.0 - ca2) * tangential


def min_ricci_loop(space, N, grid, dirs):
    best, where = math.inf, ()
    for x in grid:
        for a in dirs:
            v = ricci_loop(space, float(x), N, a)
            if v < best:
                best, where = v, (float(x), float(a))
    return best, where


def bochner_loop(space, u, N, grid, h3=1e-3):
    psi = space.psi
    margins = []
    for x in grid:
        x = float(x)
        up, upp = float(u.deriv(x)), float(u.deriv2(x))
        d2 = u.deriv2
        uppp = float((-d2(x + 2 * h3) + 8.0 * d2(x + h3) - 8.0 * d2(x - h3)
                      + d2(x - 2 * h3)) / (12.0 * h3))
        pp, ppp = float(psi.deriv(x)), float(psi.deriv2(x))
        cot = 0.0 if isinstance(space, WeightedLine) else math.cos(x) / math.sin(x)
        lap_u = upp + cot * up - up * pp
        lhs = (upp * upp + up * uppp) + (cot - pp) * (up * upp)
        csc2 = 0.0 if isinstance(space, WeightedLine) else 1.0 / math.sin(x) ** 2
        dlap = uppp - csc2 * up + cot * upp - upp * pp - up * ppp
        margins.append(lhs - up * dlap - ricci_loop(space, x, N, 0.0) * up * up
                       - lap_u * lap_u / N)
    return margins


def product_loop(psi1, psi2, N1, N2, xs, ys, n_directions):
    N = N1 + N2
    margins = []
    for x in xs:
        p1, h1 = float(psi1.deriv(x)), float(psi1.deriv2(x))
        r1 = h1 - grad_correction(p1, N1 - 1.0)
        for y in ys:
            p2, h2 = float(psi2.deriv(y)), float(psi2.deriv2(y))
            r2 = h2 - grad_correction(p2, N2 - 1.0)
            for a in np.linspace(0.0, math.pi / 2.0, n_directions):
                ca, sa = math.cos(a), math.sin(a)
                ric = h1 * ca * ca + h2 * sa * sa - grad_correction(p1 * ca + p2 * sa,
                                                                    N - 2.0)
                margins.append(ric - r1 * ca * ca - r2 * sa * sa)
    return margins


def transport_terms(space, mu0, mu1):
    """Source nodes, their mu0-weights, T, T', and d(mu)/dm of both ends."""
    path = GeodesicPath(mu0, mu1)
    xs, wts = mu0.interior_nodes(512, 4)
    Tx, dTx = np.asarray(path.map(xs)), np.asarray(path.d_map(xs))
    psi = lambda y: np.asarray(space.psi(y), dtype=float)
    rho0 = np.maximum(np.asarray(mu0.pdf(xs)) * np.exp(psi(xs)), 1e-300)
    rho1 = np.maximum(np.asarray(mu1.pdf(Tx)) * np.exp(psi(Tx)), 1e-300)
    return xs, wts * np.asarray(mu0.pdf(xs)), Tx, dTx, psi, rho0, rho1


def weighted_jacobian_loop(psi, xs, Tx, dTx, t):
    return np.exp(psi(xs) - psi((1.0 - t) * xs + t * Tx)) * ((1.0 - t) + t * dTx)


def cd_loop(space, mu0, mu1, K, N, t_grid, n_primes, mode):
    """check_cd's margins, one (N', t) at a time."""
    xs, meas, Tx, dTx, psi, rho0, rho1 = transport_terms(space, mu0, mu1)
    theta = np.abs(Tx - xs)
    margins, locations = [], []
    for npr in n_primes:
        for t in t_grid:
            if mode == "CD":
                c0, c1 = tau(K, npr, 1.0 - t, theta), tau(K, npr, t, theta)
            else:
                c0, c1 = sigma(K / npr, 1.0 - t, theta), sigma(K / npr, t, theta)
            locations.append((t, npr))
            if np.isinf(c0).any() or np.isinf(c1).any():
                margins.append(math.inf)
                continue
            lhs = np.sum(meas * (c0 * np.exp(-np.log(rho0) / npr)
                                 + c1 * np.exp(-np.log(rho1) / npr)))
            jac = weighted_jacobian_loop(psi, xs, Tx, dTx, t)
            margins.append(float(lhs - np.sum(meas * np.exp(np.log(jac / rho0) / npr))))
    return margins, locations


def entropic_loop(space, mu0, mu1, K, N, t_grid):
    """check_entropic_cd's margins, one t at a time."""
    xs, meas, Tx, dTx, psi, _, _ = transport_terms(space, mu0, mu1)
    W = w2(mu0, mu1)
    ent0, ent1 = relative_entropy(mu0, space), relative_entropy(mu1, space)
    margins = []
    for t in t_grid:
        w0, w1 = sigma(K / N, 1.0 - t, W), sigma(K / N, t, W)
        if math.isinf(w0) or math.isinf(w1):
            margins.append(math.inf)
            continue
        ent_t = ent0 - float(np.sum(meas * np.log(weighted_jacobian_loop(psi, xs, Tx,
                                                                         dTx, t))))
        margins.append(w0 * math.exp(-ent0 / N) + w1 * math.exp(-ent1 / N)
                       - math.exp(-ent_t / N))
    return margins


def assert_worst_location(rep, margins, locations):
    """The reported location is that of the least margin, where it is unique
    beyond round-off."""
    order = np.argsort(margins, kind="stable")
    if margins[order[1]] - margins[order[0]] > 1e-9:
        assert rep.worst_location == pytest.approx(locations[order[0]], abs=1e-15)


def assert_close(got, want, rel=1e-12):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = max(1.0, float(np.max(np.abs(want[np.isfinite(want)]), initial=0.0)))
    assert np.array_equal(np.isfinite(got), np.isfinite(want))
    finite = np.isfinite(want)
    assert np.all(np.abs(got[finite] - want[finite]) <= rel * scale)
    assert np.array_equal(got[~finite], want[~finite])


# ---------------------------------------------------------------------------
# CheckReport.from_margins

margin_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-9, -1e-9, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True, width=64))


class TestFromMargins:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(margin_values, min_size=1, max_size=12),
           st.sampled_from([0.0, 1e-9, 1e-6]))
    def test_array_matches_loop(self, margins, tol):
        locations = [float(i) for i in range(len(margins))]
        want = from_margins_loop("m", margins, locations, tol)
        for got in (CheckReport.from_margins("m", margins, locations, tol),
                    CheckReport.from_margins("m", np.array(margins),
                                             np.array(locations), tol)):
            assert got.status == want.status
            assert got.passed == want.passed
            assert got.n_evaluations == want.n_evaluations
            assert got.worst_location == want.worst_location
            assert type(got.worst_location) is type(want.worst_location)
            assert (math.isnan(want.worst_margin) and math.isnan(got.worst_margin)
                    or got.worst_margin == want.worst_margin)

    def test_ties_take_first_index_and_rows_become_tuples(self):
        rep = CheckReport.from_margins("m", np.array([2.0, -1.0, -1.0]),
                                       np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]),
                                       0.0)
        assert rep.worst_location == (2.0, 3.0)
        assert type(rep.worst_location[0]) is float

    def test_scale_judges_each_margin(self):
        # margin i passes at -tolerance * scale[i]; the worst is the least margin
        margins, locations = [-0.5, -2e-9, 1.0], [0.0, 1.0, 2.0]
        rep = CheckReport.from_margins("m", margins, locations, 1e-9, scale=[1e9, 1.0, 1.0])
        assert (rep.worst_margin, rep.worst_location) == (-0.5, 0.0)
        assert not rep.passed
        assert CheckReport.from_margins("m", margins, locations, 1e-9,
                                        scale=[1e9, 2.0, 1.0]).passed
        assert not CheckReport.from_margins("m", margins, locations, 1e-9,
                                            scale=[4e8, 2.0, 1.0]).passed

    def test_misaligned_and_empty_rejected(self):
        with pytest.raises(ValueError, match="align"):
            CheckReport.from_margins("m", [1.0, 2.0], [0.0], 0.0)
        with pytest.raises(ValueError, match="no margins"):
            CheckReport.from_margins("m", [], [], 0.0)


# ---------------------------------------------------------------------------
# array checkers against the loops


FAMILIES = [("a", 1.0, -1.0, (-2.0, 2.0)), ("b", 1.0, -2.0, (0.3, 3.0)),
            ("c", 0.0, -5.0, (0.5, 6.0)), ("d", -1.0, -2.0, (-1.9, 1.9))]


class TestArraysMatchLoops:
    @pytest.mark.parametrize("kind,K,N,window", FAMILIES)
    @pytest.mark.parametrize("dK", [-0.7, 0.0, 0.4])
    def test_check_pointwise_families(self, kind, K, N, window, dK):
        f, _ = example_function(kind, K, N)
        p = ConvexityParams(K + dK, N, window)
        grid = interior_grid(window, 97)
        rep = check_pointwise(f, p, grid)
        want = pointwise_loop(f, p, grid)
        assert_close([rep.worst_margin], [min(want)])
        assert_worst_location(rep, want, grid)

    @pytest.mark.parametrize("text,window", [("x**2/2", (-3.0, 3.0)),
                                             ("cosh(x) + x**2/4", (-2.0, 2.0)),
                                             ("3 + 0*x", (-1.0, 1.0)),
                                             ("sqrt(x)", (-1.0, 3.0))])
    def test_check_pointwise_expressions(self, text, window):
        f = compile_expr(text)
        p = ConvexityParams(0.3, -3.0, window)
        grid = interior_grid(window, 61)
        with np.errstate(invalid="ignore"):
            rep = check_pointwise(f, p, grid)
            want = pointwise_loop(f, p, grid)
        assert_close([rep.worst_margin], [min(want)])

    @pytest.mark.parametrize("space", [
        gaussian_line(1.3), power_weight_line(-3.0, 0.5, 8.0),
        WeightedLine((-3.0, 3.0), from_sympy(sympy.log(sympy.cosh(X)) + X**3 / 10, X)),
        RotSphere(ScalarFunction1D.constant(0.0)),
        RotSphere(from_sympy(sympy.Rational(3, 10) * sympy.cos(sympy.Symbol("t")),
                             sympy.Symbol("t"))),
    ], ids=["gaussian", "power", "coshlog", "round-sphere", "weighted-sphere"])
    @pytest.mark.parametrize("N", [-0.5, -2.0, -9.0])
    def test_min_ricci_n(self, space, N):
        lo, hi = space.interval
        grid = np.linspace(lo + (hi - lo) * 1e-3, hi - (hi - lo) * 1e-3, 211)
        dirs = [0.0] if isinstance(space, WeightedLine) else [0.0, math.pi / 2.0]
        cert = min_ricci_n(space, N, grid)
        best, where = min_ricci_loop(space, N, grid, dirs)
        assert_close([cert.K], [best])
        if space.psi.name == "gaussian":
            assert cert.worst_location == where
        # an intermediate direction, between the two extremes min_ricci_n takes
        values = ricci_n(space, grid, N, 0.4)
        assert_close(values, [ricci_loop(space, float(x), N, 0.4) for x in grid])

    @pytest.mark.parametrize("space,u", [
        (gaussian_line(1.0), X * sympy.sin(X)),
        (WeightedLine((-3.0, 3.0), from_sympy(sympy.log(sympy.cosh(X)), X)), X**3),
        (RotSphere(ScalarFunction1D.constant(0.0)), sympy.cos(X)),
        (RotSphere(from_sympy(sympy.cos(X) / 4, X)), sympy.cos(X) + sympy.cos(2 * X)),
    ], ids=["gaussian", "coshlog", "round-sphere", "weighted-sphere"])
    def test_bochner_margin(self, space, u):
        u = from_sympy(u, X)
        lo, hi = space.interval
        grid = np.linspace(lo + (hi - lo) * 0.02, hi - (hi - lo) * 0.02, 53)
        rep = bochner_margin(space, u, -3.0, grid, tol=1e-4)
        want = bochner_loop(space, u, -3.0, grid)
        assert_close([rep.worst_margin], [min(want)])
        assert_worst_location(rep, want, grid)

    def test_bochner_at_the_pole_uses_the_limits(self):
        # Gamma_2(u) - (L u)^2/N at a pole of the round sphere, u = cos:
        # Hess u = -Id, grad u = 0, L u = -2, so the margin is 2 - 4/N
        u = from_sympy(sympy.cos(sympy.Symbol("t")), sympy.Symbol("t"))
        rep = bochner_margin(RotSphere(ScalarFunction1D.constant(0.0)), u, -2.0,
                             [0.0, math.pi])
        assert rep.worst_margin == pytest.approx(4.0, abs=1e-6)

    @pytest.mark.parametrize("N1,N2,c2", [(-4.0, 1.0, 0.0), (-6.0, 2.0, 1.0),
                                          (-9.0, 3.5, 0.6)])
    def test_product_direction_check(self, N1, N2, c2):
        psi1 = gaussian_line(1.0).psi
        psi2 = gaussian_line(c2).psi if c2 else ScalarFunction1D.constant(0.0)
        xs, ys = np.linspace(-2.0, 2.0, 7), np.linspace(-1.5, 2.5, 5)
        rep = product_direction_check(psi1, psi2, N1, N2, xs, ys)
        want = product_loop(psi1, psi2, N1, N2, xs, ys, 100)
        assert rep.n_evaluations == len(want)
        assert_close([rep.worst_margin], [min(want)])
        angles = np.linspace(0.0, math.pi / 2.0, 100)
        assert_worst_location(rep, want, [(float(x), float(y), float(a))
                                          for x in xs for y in ys for a in angles])


# (mu0, mu1) pairs; the last one is long enough that the K < 0 coefficients
# run out of domain for some N' and not for others
GAUSSIAN_PAIRS = [((0.0, 1.0), (1.0, 1.0)), ((-0.5, 0.8), (0.7, 1.3)),
                  ((0.3, 1.2), (-4.0, 0.6))]


class TestTransportMatchesTimeLoops:
    T_GRID = [0.02, 0.1, 0.25, 0.5, 0.75, 0.9, 0.98]

    @pytest.mark.parametrize("pair", GAUSSIAN_PAIRS)
    @pytest.mark.parametrize("K,N", [(0.5, -2.0), (-0.3, -3.0), (-0.4, -3.0),
                                     (8.0, -1.2)])
    @pytest.mark.parametrize("mode", ["CD", "CDstar"])
    def test_check_cd(self, pair, K, N, mode):
        mu0, mu1 = (gaussian_density(*p, quad_nodes=4096) for p in pair)
        primes = [N, 0.6 * N, 0.3 * N]
        rep = check_cd(gaussian_line(1.0), mu0, mu1, K, N, self.T_GRID,
                       n_prime_list=primes, mode=mode)
        margins, locations = cd_loop(gaussian_line(1.0), mu0, mu1, K, N, self.T_GRID,
                                     primes, mode)
        assert rep.n_evaluations == len(margins)
        assert_close([rep.worst_margin], [min(margins)])
        if rep.status != "trivial":
            assert_worst_location(rep, margins, locations)

    @pytest.mark.parametrize("mode", ["CD", "CDstar"])
    def test_check_cd_power_line(self, mode):
        space = power_weight_line(-3.0, 0.5, 8.0)
        mu0, mu1 = uniform_density(1.0, 2.0), uniform_density(3.0, 5.0)
        rep = check_cd(space, mu0, mu1, 0.0, -2.0, self.T_GRID, mode=mode)
        margins, locations = cd_loop(space, mu0, mu1, 0.0, -2.0, self.T_GRID, [-2.0],
                                     mode)
        assert_close([rep.worst_margin], [min(margins)])

    @pytest.mark.parametrize("pair", GAUSSIAN_PAIRS)
    @pytest.mark.parametrize("K,N", [(0.5, -2.0), (1.0, -4.0), (-20.0, -1.1)])
    def test_check_entropic_cd(self, pair, K, N):
        mu0, mu1 = (gaussian_density(*p, quad_nodes=4096) for p in pair)
        rep = check_entropic_cd(gaussian_line(1.0), mu0, mu1, K, N, self.T_GRID)
        margins = entropic_loop(gaussian_line(1.0), mu0, mu1, K, N, self.T_GRID)
        assert_close([rep.worst_margin], [min(margins)])
        if rep.status != "trivial":
            assert_worst_location(rep, margins, self.T_GRID)


# ---------------------------------------------------------------------------
# certify


def _certify_record(text, window, N, grid):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "c.cfg"
        cfg.write_text(f"[certify]\nN = {N!r}\ngrid = {grid}\n\n[function]\n"
                       f"expr = {text}\ndomain = {window[0]!r} {window[1]!r}\n",
                       encoding="utf-8")
        code = main(["certify", str(cfg), "--out-dir", str(Path(tmp) / "o")])
        rows = (Path(tmp) / "o" / "records.csv").read_text().splitlines()[1:]
    return code, [row.split(",") for row in rows]


coefficient = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


class TestCertify:
    @settings(max_examples=40, deadline=None)
    @given(a=coefficient, b=coefficient, c=st.floats(0.1, 3.0), d=coefficient,
           lo=st.floats(-4.0, 3.0), width=st.floats(0.1, 5.0),
           N=st.floats(-50.0, -0.05), grid=st.integers(2, 300))
    def test_certified_k_passes_its_own_check(self, a, b, c, d, lo, width, N, grid):
        text = f"{a!r}*x**2 + {b!r}*sin({c!r}*x) + {d!r}*cosh(x)"
        window = (lo, lo + width)
        code, rows = _certify_record(text, window, N, grid)
        assert code == 0
        (check_id, params, margin, passed), = rows
        assert passed == "true" and float(margin) >= 0.0
        K = float(params.split("K=")[1])
        f = compile_expr(text)
        rep = check_pointwise(f, ConvexityParams(K, N, window),
                              interior_grid(window, grid), tol=0.0)
        assert rep.passed and rep.worst_margin == float(margin)

    def test_k_beyond_the_old_bisection_range(self):
        code, rows = _certify_record("25*x**2", (-1.0, 1.0), -2.0, 201)
        assert code == 0
        assert float(rows[0][1].split("K=")[1]) == pytest.approx(50.0, abs=1e-4)
        code, rows = _certify_record("-25*x**2", (-1.0, 1.0), -2.0, 201)
        assert code == 0
        assert float(rows[0][1].split("K=")[1]) == pytest.approx(-50.0, abs=1e-4)

    def test_undefined_points_fail(self):
        with np.errstate(invalid="ignore"):
            code, rows = _certify_record("sqrt(x)", (-1.0, 3.0), -2.0, 101)
        assert code == 1
        assert rows[0][2:] == ["-inf", "false"]
