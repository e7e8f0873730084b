"""Acceptance gate: one check per criterion, each printing a pass/fail line.

Run with `pytest -v tests/test_acceptance.py -s` to see the per-criterion
lines; the whole module is budgeted to finish in well under two minutes.
"""

import csv
import math

import numpy as np
import pytest

import negdimcd as nd
from negdimcd.cli import main as cli_main

from conftest import linear, log_fn, quadratic


def report(num, desc, ok):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


@pytest.fixture(scope="module")
def flow_1em3():
    return nd.integrate_flow(quadratic(1.0), 1.0, 2.0, 1e-3)


def test_01_comparison_identities_and_conventions():
    kappas = np.linspace(-4.0, 4.0, 200)
    thetas = np.linspace(0.0, 3.0, 200)
    kk, tt = np.meshgrid(kappas, thetas, indexing="ij")
    ok = ~((kk > 0) & (tt * np.sqrt(np.maximum(kk, 0.0)) >= math.pi))
    kk, tt = kk[ok], tt[ok]
    err_c = np.max(np.abs(nd.c(kk, tt) - (1.0 - 2.0 * kk * nd.s(kk, tt / 2.0) ** 2)))
    err_s = np.max(np.abs(nd.s(kk, tt) - 2.0 * nd.s(kk, tt / 2.0) * nd.c(kk, tt / 2.0)))
    conventions = (
        nd.sigma(2.0, 0.37, 0.0) == 0.37
        and nd.tau(1.0, -2.0, 0.0, 5.0) == 0.0
        and nd.sigma(1.0, 0.5, 3.2) == math.inf
        and nd.tau(-1.0, -2.0, 0.5, math.pi * math.sqrt(3.0) + 1e-9) == math.inf
        and math.isfinite(nd.tau(-1.0, -2.0, 0.5, math.pi * math.sqrt(3.0) - 1e-3))
    )
    report(1, f"half-angle identities to 1e-12 (worst {max(err_c, err_s):.2e}) "
              "and domain conventions", err_c <= 1e-12 and err_s <= 1e-12 and conventions)


def test_02_equality_families_and_counterexamples():
    cases = [("a", 1.0, -1.0, (-2.0, 2.0)), ("b", 1.0, -2.0, (0.3, 3.0)),
             ("c", 0.0, -2.0, (0.3, 4.0)), ("d", -1.0, -2.0, None)]
    worst = 0.0
    for kind, K, N, window in cases:
        f, dom = nd.example_function(kind, K, N)
        if window is None:
            width = dom[1] - dom[0]
            window = (dom[0] + 0.05 * width, dom[1] - 0.05 * width)
        p = nd.ConvexityParams(K, N, window)
        rep = nd.check_pointwise(f, p, nd.interior_grid(window, 50))
        worst = max(worst, abs(rep.worst_margin))
        rng = np.random.default_rng(2)
        drawn = 0
        while drawn < 50:
            x0, x1 = sorted(rng.uniform(*window, size=2))
            if (x1 - x0) < 1e-3 or (x1 - x0) >= 0.98 * p.radius_limit():
                continue
            drawn += 1
            worst = max(worst, abs(nd.check_geodesic(f, p, x0, x1,
                                                     [0.25, 0.5, 0.75]).worst_margin))
            worst = max(worst, abs(nd.check_derivative(f, p, x0, x1).worst_margin))
    # counterexample sums: -2 log x against (0, 1), log x against (0, -2)
    ce1 = nd.geodesic_margin(log_fn(-2.0), 0.0, 1.0, 1.0, 3.0, 0.5)
    p = nd.ConvexityParams(0.0, -2.0, (0.5, 5.0))
    ce2 = nd.check_geodesic(log_fn(1.0), p, 1.0, 4.0, [0.25, 0.5, 0.75]).worst_margin
    report(2, f"equality families tight to 1e-8 (worst {worst:.2e}); "
              f"counterexample margins {ce1:.3f}, {ce2:.3f} < -1e-4",
           worst <= 1e-8 and ce1 < -1e-4 and ce2 < -1e-4)


def test_03_criterion_equivalence_chain():
    from test_convexity import TestEquivalenceChain
    checker = TestEquivalenceChain()
    try:
        checker.test_twenty_potentials_agree()
        ok = True
    except AssertionError:
        ok = False
    report(3, "pointwise/segment/derivative verdicts agree on 20 randomized "
              "potentials at tol 1e-6 (100%)", ok)


def test_04_evi_suite(flow_1em3):
    f = quadratic(1.0)
    curve = flow_1em3
    ok = True
    for N in (-1.0, -2.0, -10.0):
        for z in (-1.0, 0.0, 2.0):
            ok &= nd.verify_evi(curve, f, 1.0, N, z).passed
            ok &= nd.verify_evi_integrated(curve, f, 1.0, N, z, 0.1, 0.5).passed
    lattice_ok = True
    for Kp in (1.0, 0.5, 0.0):
        for Np in (-1.0, -0.5, -0.25):
            lattice_ok &= nd.verify_evi(curve, f, Kp, Np, -1.0).passed
    classical = np.asarray(nd.verify_evi_classical(curve, f, 1.0, 2.0).details["margins"])
    errs = []
    for N in (-10.0, -100.0, -1000.0):
        margins = np.asarray(nd.verify_evi(curve, f, 1.0, N, 2.0).details["margins"])
        errs.append(float(np.max(np.abs(margins - classical))))
    rate_ok = (errs[1] < errs[0] and errs[2] < errs[1]
               and errs[2] * 1000.0 <= 3.0 * errs[0] * 10.0)
    report(4, f"EVI suite at step 1e-3, monotonicity lattice, and limit rate "
              f"(errors {errs[0]:.1e}/{errs[1]:.1e}/{errs[2]:.1e})",
           ok and lattice_ok and rate_ok)


def test_05_expansion_bound():
    const = nd.ScalarFunction1D.constant(0.0)
    N = -2.0
    worst_dev = 0.0
    for t0 in (0.04, 0.25, 0.64):
        for t1 in (0.09, 0.49, 1.0):
            rep = nd.expansion_bound(const, 0.0, 1.0, 0.0, N, 0.0, t0, t1, 1e-2)
            expected = -2.0 * N * (math.sqrt(t1) - math.sqrt(t0)) ** 2
            worst_dev = max(worst_dev, abs(rep.worst_margin - expected))
    lin_ok = True
    a = 0.7
    fl = linear(a)
    for t0 in np.linspace(0.05, 0.95, 10):
        for t1 in np.linspace(0.05, 0.95, 10):
            lin_ok &= nd.expansion_bound(fl, 0.0, 1.0, 0.0, -3.0, a,
                                         float(t0), float(t1), 2e-3).passed
    grid = np.linspace(-3.0, 3.0, 61)
    f = quadratic(1.0)
    L = max(abs(float(f.deriv(x))) for x in grid)
    claim_ok = nd.claim_convexity_margin(f, 1.0, -2.0, L, grid).passed
    report(5, f"expansion bound exact for constant potentials to 1e-10 "
              f"(dev {worst_dev:.1e}), linear 10x10 grid, convexity side-check",
           worst_dev <= 1e-10 and lin_ok and claim_ok)


def test_06_bochner_matrix():
    from test_geometry import BOCHNER_MATRIX
    worst = math.inf
    for _, space, u, N in BOCHNER_MATRIX:
        lo, hi = space.interval
        pad = (hi - lo) * 0.02
        rep = nd.bochner_margin(space, u, N, np.linspace(lo + pad, hi - pad, 40))
        worst = min(worst, rep.worst_margin)
    line = nd.gaussian_line(1.0)
    import sympy
    x = sympy.symbols("x")
    u = nd.ScalarFunction1D(fn=sympy.lambdify(x, x, "numpy"),
                            d1=sympy.lambdify(x, 1, "numpy"),
                            d2=sympy.lambdify(x, 0, "numpy"))
    dev = 0.0
    for pt in (0.0, 0.7, 1.8):
        got = nd.bochner_margin(line, u, -2.0, [pt]).worst_margin
        dev = max(dev, abs(got - pt * pt / 6.0))
    report(6, f"Bochner margins >= -1e-8 on the 12-case matrix (worst {worst:.1e}); "
              f"analytic case to 1e-9 (dev {dev:.1e})",
           worst >= -1e-8 and dev <= 1e-9 and len(BOCHNER_MATRIX) == 12)


def test_07_spectral_gap():
    sphere = nd.RotSphere(nd.ScalarFunction1D.constant(0.0))
    res = nd.lichnerowicz(sphere, -2.0, mesh_size=2000)
    from negdimcd.geometry import _radial_lambda1
    lams = [_radial_lambda1(sphere, m) for m in (250, 500, 1000)]
    order = math.log2(abs(lams[0] - lams[1]) / abs(lams[1] - lams[2]))
    report(7, f"radial gap {res.lambda1:.6f} (=2 within 1e-3) at 2000 cells, "
              f"observed order {order:.2f}, bound {res.bound:.4f}",
           abs(res.lambda1 - 2.0) <= 1e-3 and 1.7 <= order <= 2.3
           and abs(res.bound - 2.0 / 3.0) <= 1e-12 and res.passed)


def test_08_transport_oracles():
    g0 = nd.gaussian_density(0.0, 1.0)
    g1 = nd.gaussian_density(1.0, 1.0)
    w2_err = abs(nd.w2(g0, g1, n_nodes=10000) - 1.0)
    gl = nd.gaussian_line(1.0)
    ent_err = abs(nd.relative_entropy(g1, gl) - 0.5)
    fi_err = abs(nd.fisher_information(g1, gl) - 1.0)
    path = nd.GeodesicPath(g0, g1)
    xs, _ = g0.interior_nodes(512, 4)
    ma = 0.0
    for t in (0.25, 0.5, 0.75):
        dens = nd.interpolate(g0, g1, t)
        resid = np.abs(np.asarray(g0.pdf(xs))
                       - np.asarray(dens.pdf(path.position(t, xs)))
                       * path.jacobian_lebesgue(t, xs))
        ma = max(ma, float(resid.max()))
    report(8, f"transport oracles: W2 err {w2_err:.1e} (<=1e-4), Ent err "
              f"{ent_err:.1e}, Fisher err {fi_err:.1e} (<=1e-6), MA residual "
              f"{ma:.1e} (<=1e-6)",
           w2_err <= 1e-4 and ent_err <= 1e-6 and fi_err <= 1e-6 and ma <= 1e-6)


def test_09_functional_inequalities():
    gl = nd.gaussian_line(1.0)
    mu = nd.gaussian_density(1.0, 1.0)
    ref = nd.reference_density(gl)
    tal = nd.talagrand_check(gl, mu, 1.0, -2.0)
    hwi = nd.hwi_check(gl, mu, ref, 1.0, -2.0)
    lsi = nd.log_sobolev_check(gl, mu, 1.0, -2.0)
    anchors = (abs(tal.worst_margin - 0.0368) <= 1e-3
               and abs(hwi.worst_margin - 0.0609) <= 1e-3
               and abs(lsi.worst_margin - 0.2131) <= 1e-3
               and lsi.details["admissibility"] > 0)
    seqs = {"talagrand": [], "hwi": [], "logsobolev": []}
    for N in (-10.0, -100.0, -1000.0):
        seqs["talagrand"].append(nd.talagrand_check(gl, mu, 1.0, N).worst_margin)
        seqs["hwi"].append(nd.hwi_check(gl, mu, ref, 1.0, N).worst_margin)
        seqs["logsobolev"].append(nd.log_sobolev_check(gl, mu, 1.0, N).worst_margin)
    limits = all(v[0] > v[1] > v[2] > 0 for v in seqs.values())
    report(9, f"margins {tal.worst_margin:.4f}/{hwi.worst_margin:.4f}/"
              f"{lsi.worst_margin:.4f} within 1e-3 of anchors; all three "
              "shrink to 0+ through N=-10,-100,-1000", anchors and limits)


def test_10_cd_suite():
    N = -2.0
    space = nd.power_weight_line(N - 1.0, 0.5, 8.0)
    mu0 = nd.uniform_density(1.0, 2.0)
    mu1 = nd.uniform_density(3.0, 5.0)
    ts = [0.1, 0.25, 0.5, 0.75, 0.9]
    cd = nd.check_cd(space, mu0, mu1, 0.0, N, ts)
    bm = nd.brunn_minkowski(space, (1.0, 2.0), (2.0, 4.0), 0.5, 0.0, N)
    # tau <= sigma at every coefficient evaluated by the CD run
    plan = nd.GeodesicPath(mu0, mu1)
    xs, _ = mu0.interior_nodes(512, 4)
    thetas = np.abs(np.asarray(plan.map(xs)) - xs)
    tau_le_sigma = True
    for t in ts:
        for tt in (t, 1.0 - t):
            tau_le_sigma &= bool(np.all(
                np.asarray(nd.tau(0.0, N, tt, thetas))
                <= np.asarray(nd.sigma(0.0 / N, tt, thetas)) + 1e-12))
    # CD pass implies CD* pass on all test data
    implication = True
    for sp, m0, m1, K in (
            (space, mu0, mu1, 0.0),
            (nd.gaussian_line(1.0), nd.gaussian_density(0.5, 1.0),
             nd.gaussian_density(-0.5, 1.0), 1.0),
            (nd.lebesgue_line(-10.0, 10.0), nd.gaussian_density(0.0, 1.0),
             nd.gaussian_density(1.0, 1.4), 0.0)):
        r_cd = nd.check_cd(sp, m0, m1, K, N, ts)
        r_star = nd.check_cd(sp, m0, m1, K, N, ts, mode="CDstar")
        implication &= (not r_cd.passed) or r_star.passed
        implication &= r_star.worst_margin >= r_cd.worst_margin - 1e-12
    # cross-check of the alternate power reading, recorded either way
    alt = nd.power_weight_line(N, 0.5, 8.0)
    alt_cd = nd.check_cd(alt, mu0, mu1, 0.0, N, ts)
    alt_bm = nd.brunn_minkowski(alt, (1.0, 2.0), (2.0, 4.0), 0.5, 0.0, N)
    print(f"\n  cross-check weight x^N: cd margin {alt_cd.worst_margin:.5f} "
          f"(pass={alt_cd.passed}), bm margin {alt_bm.worst_margin:.5f} "
          f"(pass={alt_bm.passed}) [recorded]")
    report(10, f"model weight passes CD(0,N) and interval inequality with "
               f"homothety equality (|bm margin| {abs(bm.worst_margin):.1e} "
               "<= 1e-10); tau<=sigma everywhere; CD=>CD*; cross-check recorded",
           cd.passed and abs(bm.worst_margin) <= 1e-10 and tau_le_sigma
           and implication and math.isfinite(alt_cd.worst_margin)
           and math.isfinite(alt_bm.worst_margin))


def test_11_determinism(tmp_path):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("""
[run]
suite = convexity
seed = 42

[function]
kind = c

[params]
K = 0
N = -2
pairs = 25
""", encoding="utf-8")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    rc1 = cli_main(["run", str(cfg), "--out-dir", str(out1)])
    rc2 = cli_main(["run", str(cfg), "--out-dir", str(out2)])
    same = (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()
    with open(out1 / "records.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    report(11, "identical config+seed produce byte-identical record files "
               f"({len(rows) - 1} records)", rc1 == 0 and rc2 == 0 and same)
