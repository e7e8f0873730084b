"""The three benchmark workloads: seeded inputs, tasks and their checks.

A workload object builds its shared inputs once (this is what ``setup_s``
times in a fresh interpreter) and then hands out *cycles*: fixed menus of
tasks whose parameters are drawn from ``SeedSequence([seed, cycle])``.  The
menu is the same for every seed and every cycle, so a run's task mix does not
depend on the seed or on how many cycles fit in the time budget; only the
drawn parameters change, which keeps a later memoizing change from being
rewarded for repeated identical calls.

Every task returns the program's result and its check raises ``Mismatch``
when the result disagrees with a closed form, an expected pass flag or a
stored reference.  The checks are written from the mathematics, not from the
library's code paths.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent


class Mismatch(AssertionError):
    """A task's output failed its correctness check."""


@dataclass
class Task:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], int]   # number of checks the result holds
    peak_rss_kb: int = 0             # filled in by subprocess tasks


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def near(got: float, want: float, atol: float, label: str) -> None:
    expect(abs(got - want) <= atol,
           f"{label}: got {got!r}, expected {want!r} within {atol!r}")


SHARED = 2 ** 32 - 1   # the cycle index whose draws make the shared inputs


def _rng(seed: int, cycle: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, cycle]))


# ---------------------------------------------------------------------------
# grid-sweep

# closed-form f'' of the four equality families (example_function docstring)
def _family_d2(kind: str, K: float, N: float, x: np.ndarray) -> np.ndarray:
    if kind == "a":
        w = math.sqrt(-K / N)
        return -N * w * w / np.cosh(w * x) ** 2
    if kind == "b":
        w = math.sqrt(-K / N)
        return N * w * w / np.sinh(w * x) ** 2
    if kind == "c":
        return N / x ** 2
    w = math.sqrt(K / N)
    return N * w * w / np.cos(w * x) ** 2


# config-grammar expressions with derivatives written out by hand; the
# library differentiates them by finite differences
EXPRESSIONS = {
    "x**2/2": ((-3.0, 3.0), lambda x: x * x / 2, lambda x: x,
               lambda x: np.ones_like(x), 1.0),
    "cosh(x) + x**2/4": ((-2.0, 2.0), lambda x: np.cosh(x) + x * x / 4,
                         lambda x: np.sinh(x) + x / 2,
                         lambda x: np.cosh(x) + 0.5, 1.5),
}


def _pointwise_expected(f, d1, d2, K, N, grid):
    """min over the grid of f_N'' + (K/N) f_N with f_N = exp(-f/N)."""
    fN = np.exp(-f(grid) / N)
    return float(np.min(fN * (d1(grid) ** 2 / N ** 2 - d2(grid) / N + K / N))), \
        float(np.max(fN))


class GridSweep:
    """Warm in-process checkers whose work is Python loops over points."""

    name = "grid-sweep"

    def __init__(self, seed: int, smoke: bool = False):
        import negdimcd as nd
        from negdimcd import expr

        self.nd = nd
        self.expr_module = expr
        self.seed = seed
        scale = 0.02 if smoke else 1.0
        self.big = max(50, int(10000 * scale))
        self.mid = max(30, int(3000 * scale))
        self.small = max(20, int(1000 * scale))
        self.sweep_grid = max(20, int(2000 * scale))
        self.segments = 2 if smoke else 6
        self.flow_steps = 2000
        self.sphere = nd.RotSphere(nd.ScalarFunction1D.constant(0.0))
        ones = lambda x: np.ones_like(np.asarray(x, dtype=float))
        zeros = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        self.u_line = nd.ScalarFunction1D(fn=lambda x: np.asarray(x, dtype=float),
                                          d1=ones, d2=zeros, name="x")
        self.t_grid = [0.1, 0.3, 0.5, 0.7, 0.9]

    # -- tasks ---------------------------------------------------------------

    def _family(self, rng, kind):
        nd = self.nd
        N = float(rng.uniform(-6.0, -1.2))
        K = {"a": rng.uniform(0.3, 2.0), "b": rng.uniform(0.3, 2.0), "c": 0.0,
             "d": -rng.uniform(0.3, 2.0)}[kind]
        f, dom = nd.example_function(kind, float(K), N)
        window = {"a": (-2.0, 2.0), "b": (0.25, 3.0), "c": (0.25, 4.0),
                  "d": (0.9 * dom[0], 0.9 * dom[1])}[kind]
        return f, nd.ConvexityParams(float(K), N, window)

    def _segment(self, rng, p):
        lo, hi = p.domain
        length = rng.uniform(0.02, 0.9) * min(hi - lo, 0.99 * p.radius_limit())
        x0 = rng.uniform(lo, hi - length)
        return float(x0), float(x0 + length)

    def _equality_tasks(self, rng, kind, n_grid):
        nd = self.nd
        f, p = self._family(rng, kind)

        def zero_margin(rep):
            expect(rep.passed and abs(rep.worst_margin) <= rep.tolerance,
                   f"{kind} {rep.name}: margin {rep.worst_margin!r} is not 0 "
                   f"within {rep.tolerance!r} (K={p.K}, N={p.N})")
            return 1

        grid = nd.interior_grid(p.domain, n_grid)
        tasks = [Task(f"pointwise-{kind}-{n_grid}",
                      lambda: nd.check_pointwise(f, p, grid), zero_margin)]
        for _ in range(self.segments):
            x0, x1 = self._segment(rng, p)
            tasks.append(Task("geodesic", lambda x0=x0, x1=x1: nd.check_geodesic(
                f, p, x0, x1, self.t_grid), zero_margin))
            tasks.append(Task("derivative", lambda x0=x0, x1=x1: nd.check_derivative(
                f, p, x0, x1), zero_margin))
        return tasks

    def _expression_tasks(self, rng, text, n_grid):
        nd = self.nd
        window, f0, d1, d2, k_max = EXPRESSIONS[text]
        f = self.expr[text]
        N = float(rng.uniform(-6.0, -1.2))
        K = float(rng.uniform(-1.0, k_max - 0.2))
        p = nd.ConvexityParams(K, N, window)
        grid = nd.interior_grid(window, n_grid)
        want, scale = _pointwise_expected(f0, d1, d2, K, N, grid)

        def pointwise(rep):
            near(rep.worst_margin, want, 1e-5 * scale, f"pointwise {text}")
            expect(rep.passed, f"pointwise {text} failed at K={K} < {k_max}")
            return 1

        def holds(rep):
            expect(rep.passed, f"{rep.name} {text}: margin {rep.worst_margin!r} "
                   f"for a strictly (K, N)-convex function")
            return 1

        tasks = [Task(f"pointwise-expr-{n_grid}", lambda: nd.check_pointwise(f, p, grid),
                      pointwise)]
        for _ in range(self.segments):
            x0, x1 = self._segment(rng, p)
            tasks.append(Task("geodesic", lambda x0=x0, x1=x1: nd.check_geodesic(
                f, p, x0, x1, self.t_grid), holds))
            tasks.append(Task("derivative", lambda x0=x0, x1=x1: nd.check_derivative(
                f, p, x0, x1), holds))
        return tasks

    def _k_sweep(self, rng):
        """certify-style ladder: one function and grid, many K."""
        nd = self.nd
        text = "x**2/2"
        window, f0, d1, d2, _ = EXPRESSIONS[text]
        f = self.expr[text]
        N = float(rng.uniform(-6.0, -1.2))
        grid = nd.interior_grid(window, self.sweep_grid)
        tasks = []
        for K in np.linspace(-2.0, 2.0, 8) + rng.uniform(-0.1, 0.1):
            K = float(K)
            want, scale = _pointwise_expected(f0, d1, d2, K, N, grid)

            def check(rep, want=want, scale=scale):
                near(rep.worst_margin, want, 1e-5 * scale, "K sweep")
                if abs(want) > 1e-3 * scale:
                    expect(rep.passed == (want > 0), "K sweep pass flag")
                return 1

            params = nd.ConvexityParams(K, N, window)
            tasks.append(Task("k-sweep", lambda params=params: nd.check_pointwise(
                f, params, grid), check))
        return tasks

    def _geometry_tasks(self, rng):
        nd = self.nd
        curv = float(rng.uniform(0.5, 2.0))
        N = float(rng.uniform(-6.0, -1.2))
        line = nd.gaussian_line(curv)
        sd = 1.0 / math.sqrt(curv)
        grid = np.linspace(-4.0 * sd, 4.0 * sd, self.big) + rng.uniform(-0.01, 0.01)
        ricci_want = curv + curv * curv * float(np.min(grid ** 2)) / (1.0 - N)
        sphere_grid = np.linspace(0.01, math.pi - 0.01, max(20, self.big // 5))
        b_grid = np.linspace(-3.0 * sd, 3.0 * sd, self.small) + rng.uniform(-0.01, 0.01)
        b_want = curv * curv * float(np.min(b_grid ** 2)) / (N * (N - 1.0))
        s_grid = np.linspace(0.05, math.pi - 0.05, max(20, self.small // 5))
        s_want = float(np.min(2.0 * np.cos(s_grid) ** 2 * (1.0 - 2.0 / N)))

        def ricci_line(cert):
            near(cert.K, ricci_want, 1e-12 * (1 + abs(ricci_want)), "min_ricci_n line")
            return 1

        def ricci_sphere(cert):
            near(cert.K, 1.0, 1e-12, "min_ricci_n round sphere")
            return 1

        def bochner_line(rep):
            near(rep.worst_margin, b_want, 1e-9, "bochner line u=x")
            return 1

        def bochner_sphere(rep):
            near(rep.worst_margin, s_want, 1e-6, "bochner sphere u=cos")
            return 1

        def gap(res):
            near(res.lambda1, 2.0, 1e-3, "lichnerowicz round sphere lambda1")
            expect(res.passed, "lichnerowicz round sphere")
            return 1

        # product of two Gaussian lines: closed-form superadditivity margin
        c1, c2 = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))
        N1, N2 = float(rng.uniform(-8.0, -4.0)), float(rng.uniform(1.5, 3.0))
        n_side = 4 if self.big < 1000 else 20
        xg = np.linspace(-2.0, 2.0, n_side) + rng.uniform(-0.05, 0.05)
        yg = np.linspace(-2.0, 2.0, n_side) + rng.uniform(-0.05, 0.05)
        ang = np.linspace(0.0, math.pi / 2.0, 100)
        p1 = (c1 * xg)[:, None, None]
        p2 = (c2 * yg)[None, :, None]
        ca, sa = np.cos(ang)[None, None, :], np.sin(ang)[None, None, :]
        prod = (p1 ** 2 * ca ** 2 / (N1 - 1.0) + p2 ** 2 * sa ** 2 / (N2 - 1.0)
                - (p1 * ca + p2 * sa) ** 2 / (N1 + N2 - 2.0))
        prod_want = float(prod.min())

        def product(rep):
            near(rep.worst_margin, prod_want, 1e-9 * (1 + abs(prod_want)),
                 "product_direction_check")
            return 1

        psi1, psi2 = nd.gaussian_line(c1).psi, nd.gaussian_line(c2).psi
        return [
            Task("min-ricci-line", lambda: nd.min_ricci_n(line, N, grid), ricci_line),
            Task("min-ricci-sphere", lambda: nd.min_ricci_n(self.sphere, N, sphere_grid),
                 ricci_sphere),
            Task("bochner-line", lambda: nd.bochner_margin(line, self.u_line, N, b_grid),
                 bochner_line),
            Task("bochner-sphere", lambda u=self.u_sphere: nd.bochner_margin(
                self.sphere, u, N, s_grid, tol=1e-4), bochner_sphere),
            Task("lichnerowicz", lambda: nd.lichnerowicz(self.sphere, N, mesh_size=2000),
                 gap),
            Task("product-directions", lambda: nd.product_direction_check(
                psi1, psi2, N1, N2, xg, yg), product),
        ]

    def _claim_task(self, rng, cycle):
        nd = self.nd
        kind = "abcd"[cycle % 4]
        f, p = self._family(rng, kind)
        grid = nd.interior_grid(p.domain, self.big)
        L = float(rng.uniform(0.5, 3.0))
        shift = p.K + L * L / p.N
        want = float(np.min(_family_d2(kind, p.K, p.N, grid))) - shift

        def check(rep):
            near(rep.worst_margin, want, 1e-9 * (1 + abs(want)), f"claim margin {kind}")
            return 1

        return Task("claim-convexity", lambda: nd.claim_convexity_margin(
            f, p.K, p.N, L, grid), check)

    def _flow_tasks(self, rng):
        nd = self.nd
        f = self.expr["x**2/2"]
        tasks = []
        horizon = 2.0
        step = horizon / self.flow_steps
        for _ in range(3):
            x0 = float(rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0]))
            K = float(rng.uniform(0.0, 0.9))
            N = float(rng.uniform(-6.0, -1.2))
            z = float(rng.uniform(-1.5, 1.5))
            curve = {}

            def flow(x0=x0, curve=curve):
                curve["c"] = nd.integrate_flow(f, x0, horizon, step)
                return curve["c"]

            def exact(c, x0=x0):
                err = float(np.max(np.abs(c.points - x0 * np.exp(-c.times))))
                expect(err <= 1e-6 * (1 + abs(x0)), f"flow of x^2/2 off by {err!r}")
                return 0

            def holds(rep):
                expect(rep.passed, f"{rep.name}: margin {rep.worst_margin!r} on the "
                       f"flow of a (K, N)-convex potential")
                return 1

            mid = horizon / 2.0
            tasks += [
                Task("flow-expr", flow, exact),
                Task("edi", lambda curve=curve: nd.verify_edi(
                    curve["c"], f, 10 * step, mid), holds),
                Task("evi", lambda curve=curve, K=K, N=N, z=z: nd.verify_evi(
                    curve["c"], f, K, N, z), holds),
                Task("evi-integrated", lambda curve=curve, K=K, N=N, z=z:
                     nd.verify_evi_integrated(curve["c"], f, K, N, z, 0.1, 0.5), holds),
                Task("regularizing", lambda curve=curve, K=K, N=N, z=z:
                     nd.regularizing_bounds(curve["c"], f, K, N, "regularity", z=z,
                                            t=mid), holds),
            ]

        # analytic family c: x' = N/x, so x(t)^2 = x0^2 + 2 N t
        N = float(rng.uniform(-6.0, -1.2))
        fc, _ = nd.example_function("c", 0.0, N)
        x0 = float(rng.uniform(1.0, 3.0))
        h = 0.375 * x0 * x0 / -N

        def exact_c(c):
            want = np.sqrt(x0 * x0 + 2.0 * N * c.times)
            err = float(np.max(np.abs(c.points - want)))
            expect(err <= 1e-8, f"flow of -N log x off by {err!r}")
            return 0

        tasks.append(Task("flow-analytic", lambda: nd.integrate_flow(
            fc, x0, h, h / self.flow_steps), exact_c))

        # linear potential: both curves translate, giving the expansion oracle
        a = float(rng.uniform(0.3, 1.0))
        Nl = float(rng.uniform(-6.0, -1.5))
        y = float(rng.uniform(0.5, 1.5))
        step = 2.0 / self.flow_steps
        t0, t1 = (float(v) for v in np.round(rng.uniform(0.05, 0.95, 2) / step) * step)
        lin = nd.ScalarFunction1D(fn=lambda x: a * np.asarray(x, dtype=float),
                                  d1=lambda x: a * np.ones_like(np.asarray(x, dtype=float)),
                                  d2=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                                  name="linear")
        theta = (4.0 * a * a / Nl) * (t1 + math.sqrt(t0 * t1) + t0) / 3.0
        d01 = abs(-y + a * (t1 - t0))
        oracle = 2.0 * math.exp(-theta) * (
            y * y / 2.0 - Nl * (math.sqrt(t1) - math.sqrt(t0)) ** 2
            * math.expm1(theta) / theta) - d01 * d01

        def expansion(rep):
            near(rep.worst_margin, oracle, 1e-9, "expansion bound, linear potential")
            expect(rep.passed, "expansion bound")
            return 1

        tasks.append(Task("expansion", lambda: nd.expansion_bound(
            lin, 0.0, y, 0.0, Nl, a, t0, t1, step), expansion))
        return tasks

    def cycle(self, index: int) -> list[Task]:
        rng = _rng(self.seed, index)
        # compiled afresh each cycle, as a CLI run does, so that no function
        # object outlives its cycle
        compile_expr = self.expr_module.compile_expr
        self.expr = {text: compile_expr(text) for text in EXPRESSIONS}
        self.u_sphere = compile_expr("cos(theta)", var="theta")
        tasks = []
        for kind, n in (("a", self.big), ("b", self.mid), ("c", self.big),
                        ("d", self.small)):
            tasks += self._equality_tasks(rng, kind, n)
        tasks += self._expression_tasks(rng, "x**2/2", self.big)
        tasks += self._expression_tasks(rng, "cosh(x) + x**2/4", self.mid)
        tasks += self._k_sweep(rng)
        tasks += self._geometry_tasks(rng)
        tasks.append(self._claim_task(rng, index))
        tasks += self._flow_tasks(rng)
        return tasks


# ---------------------------------------------------------------------------
# transport-sweep

def _gauss_text(m: float, s: float) -> str:
    return f"exp(-(x - ({m!r}))**2/(2*{s!r}**2))"


class TransportSweep:
    """Warm in-process transport checks whose work is numpy array kernels."""

    name = "transport-sweep"

    def __init__(self, seed: int, smoke: bool = False):
        import negdimcd as nd

        self.nd = nd
        self.seed = seed
        exps = (11, 12) if smoke else (11, 13, 15, 17, 19)
        self.sizes = [2 ** e for e in exps]
        self.w2_nodes = ([10 ** 4] * 2 if smoke
                         else [10 ** 4, 3 * 10 ** 4, 10 ** 5, 3 * 10 ** 5, 10 ** 6])
        self.t_grid = np.linspace(0.02, 0.98, 5 if smoke else 33)
        rng = _rng(seed, SHARED)
        self.line = nd.gaussian_line(1.0)
        self.power_N = -2.0
        self.power = nd.power_weight_line(self.power_N - 1.0, 0.5, 8.0)
        # the shared pairs: one per table size, reused by half the tasks
        self.shared = []
        for n in self.sizes:
            m0, m1 = (round(float(v), 6) for v in rng.uniform(-1.0, 1.0, 2))
            s0, s1 = (round(float(v), 6) for v in rng.uniform(0.7, 1.4, 2))
            self.shared.append(((m0, s0), (m1, s1), nd.gaussian_density(m0, s0, quad_nodes=n),
                                nd.gaussian_density(m1, s1, quad_nodes=n)))

    def _normal_params(self, rng):
        m0, m1 = (round(float(v), 6) for v in rng.uniform(-1.0, 1.0, 2))
        s0, s1 = (round(float(v), 6) for v in rng.uniform(0.7, 1.4, 2))
        return (m0, s0), (m1, s1)

    def _expr_density(self, m, s, n):
        from negdimcd import expr
        fun = expr.compile_expr(_gauss_text(m, s))
        return self.nd.Density1D(support=(m - 8.0 * s, m + 8.0 * s), pdf=fun.fn,
                                 normalize=True, quad_nodes=n, name="expr")

    @staticmethod
    def _holds(rep):
        expect(rep.passed, f"{rep.name}: margin {rep.worst_margin!r} on a space "
               f"satisfying the condition")
        return 1

    @staticmethod
    def _w2_check(a, b):
        want = math.hypot(a[0] - b[0], a[1] - b[1])

        def check(value):
            near(value, want, 1e-5, "w2 between normals")
            return 0

        return check

    def _draw_KN(self, rng):
        return float(rng.uniform(0.2, 1.0)), float(rng.uniform(-6.0, -1.5))

    def _shared_tasks(self, rng, i):
        nd, line, ts = self.nd, self.line, self.t_grid
        a, b, mu0, mu1 = self.shared[i]
        K, N = self._draw_KN(rng)
        primes = [N, 0.6 * N, 0.3 * N]
        t = float(rng.uniform(0.1, 0.9))
        n_w2 = self.w2_nodes[i]
        mt, st = (1 - t) * a[0] + t * b[0], (1 - t) * a[1] + t * b[1]

        def interp(d):
            for u in (0.1, 0.5, 0.9):
                near(float(d.quantile(u)), mt + st * NormalDist().inv_cdf(u),
                     1e-4 * st, "displacement interpolation quantile")
            return 0

        lo = float(rng.uniform(0.6, 2.0))
        A0 = (lo, lo + float(rng.uniform(0.3, 1.5)))
        lam = float(rng.uniform(1.2, 2.0))
        A1 = (lam * A0[0], lam * A0[1])
        t_bm = float(rng.uniform(0.2, 0.8))

        def bm(rep):
            # homothetic intervals are the equality case on the x^(N-1) line
            expect(rep.passed and abs(rep.worst_margin) <= 1e-9,
                   f"Brunn-Minkowski equality: margin {rep.worst_margin!r}")
            return 1

        holds = self._holds
        return [
            Task("shared-cd", lambda: nd.check_cd(line, mu0, mu1, K, N, ts,
                                                  n_prime_list=primes), holds),
            Task("shared-cdstar", lambda: nd.check_cd(line, mu0, mu1, K, N, ts,
                                                      n_prime_list=primes,
                                                      mode="CDstar"), holds),
            Task("shared-jacobian", lambda: nd.check_jacobian_convexity(
                line, mu0, mu1, K, N, ts), holds),
            Task("shared-entropic", lambda: nd.check_entropic_cd(
                line, mu0, mu1, K, N, ts[::4]), holds),
            Task("shared-hwi", lambda: nd.hwi_check(line, mu0, mu1, K, N), holds),
            Task("shared-talagrand", lambda: nd.talagrand_check(line, mu1, K, N), holds),
            Task("shared-logsobolev", lambda: nd.log_sobolev_check(line, mu1, K, N),
                 holds),
            Task("shared-interpolate", lambda: nd.interpolate(mu0, mu1, t), interp),
            Task("shared-w2", lambda: nd.w2(mu0, mu1, n_nodes=n_w2), self._w2_check(a, b)),
            Task("shared-bm", lambda: nd.brunn_minkowski(
                self.power, A0, A1, t_bm, 0.0, self.power_N), bm),
        ]

    def _fresh_tasks(self, rng, i):
        nd, line, ts = self.nd, self.line, self.t_grid
        n = self.sizes[i]
        K, N = self._draw_KN(rng)
        a, b = self._normal_params(rng)
        c, d = self._normal_params(rng)
        e, g = self._normal_params(rng)
        holds = self._holds

        def gauss_pair(p, q):
            return (nd.gaussian_density(*p, quad_nodes=n),
                    nd.gaussian_density(*q, quad_nodes=n))

        lo0 = float(rng.uniform(0.6, 2.0))
        u0 = (lo0, lo0 + float(rng.uniform(0.3, 1.5)))
        lo1 = float(rng.uniform(2.5, 5.0))
        u1 = (lo1, lo1 + float(rng.uniform(0.3, 2.0)))
        Np = self.power_N

        def uniform_pair():
            return (nd.uniform_density(*u0, quad_nodes=n),
                    nd.uniform_density(*u1, quad_nodes=n))

        return [
            Task("fresh-w2", lambda: nd.w2(*gauss_pair(a, b)), self._w2_check(a, b)),
            Task("fresh-cd", lambda: nd.check_cd(line, *gauss_pair(c, d), K, N, ts), holds),
            Task("fresh-entropic", lambda: nd.check_entropic_cd(
                line, *gauss_pair(e, g), K, N, ts[::4]), holds),
            Task("fresh-expr-w2", lambda: nd.w2(self._expr_density(*a, n),
                                                self._expr_density(*b, n)),
                 self._w2_check(a, b)),
            Task("fresh-expr-hwi", lambda: nd.hwi_check(
                line, self._expr_density(*c, n), self._expr_density(*d, n), K, N), holds),
            Task("fresh-power-cd", lambda: nd.check_cd(self.power, *uniform_pair(), 0.0,
                                                       Np, ts), holds),
            Task("fresh-power-cdstar", lambda: nd.check_cd(
                self.power, *uniform_pair(), 0.0, Np, ts, mode="CDstar"), holds),
            Task("fresh-power-jacobian", lambda: nd.check_jacobian_convexity(
                self.power, *uniform_pair(), 0.0, Np, ts), holds),
            Task("fresh-talagrand", lambda: nd.talagrand_check(
                line, nd.gaussian_density(*e, quad_nodes=n), K, N), holds),
        ]

    def cycle(self, index: int) -> list[Task]:
        rng = _rng(self.seed, index)
        tasks = []
        for i in range(len(self.sizes)):
            tasks += self._shared_tasks(rng, i)
            tasks += self._fresh_tasks(rng, i)
        return tasks


# ---------------------------------------------------------------------------
# cli-configs

def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_records(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _numbers_close(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    return abs(a - b) <= 1e-6 * max(1.0, abs(b))


def compare_records(got: list[list[str]], want: list[list[str]]) -> str | None:
    """None when the records agree up to round-off, else the first difference.

    Check ids and pass flags must match exactly; margins and the numeric
    parameters (``k=v`` pairs) may differ by round-off, 1e-6 relative.
    """
    if len(got) != len(want):
        return f"{len(got)} rows, expected {len(want)}"
    for g, w in zip(got, want):
        if len(g) != len(w) or g[0] != w[0] or g[-1] != w[-1]:
            return f"row {g} differs from {w}"
        gp, wp = g[1].split(";"), w[1].split(";")
        if len(gp) != len(wp) or not all(
                a.split("=")[0] == b.split("=")[0]
                and _numbers_close(a.partition("=")[2], b.partition("=")[2])
                for a, b in zip(gp, wp)):
            return f"params {g[1]!r} differ from {w[1]!r}"
        if not _numbers_close(g[2], w[2]):
            return f"{g[0]} margin {g[2]} differs from {w[2]}"
    return None


class CliConfigs:
    """Cold ``negdimcd run``/``certify`` subprocesses over every shipped config."""

    name = "cli-configs"

    def __init__(self, seed: int, smoke: bool = False):
        import negdimcd.cli  # noqa: F401  (the import a CLI start pays)

        self.root = HERE.parent
        self.seed = seed
        self.configs = sorted((self.root / "configs").glob("*.cfg"))
        if not self.configs:
            raise FileNotFoundError(f"no configs/*.cfg under {self.root}")
        if smoke:
            self.configs = [c for c in self.configs if "certify" in c.name
                            or "log-family" in c.name]
        self.references = json.loads((HERE / "cli_references.json").read_text())
        self.out_dir = self.root / ".perfbench-out" / f"cli-{os.getpid()}"
        self.digests: dict[str, str] = {}
        self.in_process = False

    def command(self, config: Path) -> list[str]:
        return ["certify" if "certify" in config.name else "run",
                str(config.relative_to(self.root))]

    def _check(self, config: Path, out: Path, seed: int | None):
        # a config added after the references were taken must exit 0 and
        # repeat itself byte for byte
        ref = self.references.get(config.name, {
            "exit_code": 0, "seed_dependent": True, "default_seed": None,
            "equality_family": False, "rows": None})

        def check(exit_code):
            expect(exit_code == ref["exit_code"],
                   f"{config.name}: exit code {exit_code}, expected {ref['exit_code']}")
            path = out / "records.csv"
            rows = read_records(path)
            expect(rows[0] == ["check_id", "params", "worst_margin", "pass"],
                   f"{config.name}: header {rows[0]}")
            digest = _digest(path)
            key = f"{config.name}@{seed}"
            first = self.digests.setdefault(key, digest)
            expect(digest == first, f"{config.name}: records.csv differs between "
                   "passes at one seed")
            if ref["rows"] is not None and (not ref["seed_dependent"] or seed is None
                                            or seed == ref["default_seed"]):
                diff = compare_records(rows[1:], ref["rows"])
                expect(diff is None, f"{config.name}: {diff}")
            for row in rows[1:]:
                if row[0].startswith("convexity/") and ref["equality_family"]:
                    expect(abs(float(row[2])) <= 1e-9,
                           f"{config.name}: equality family margin {row[2]}")
            return len(rows) - 1

        return check

    def task(self, config: Path, index: int, seed: int | None) -> Task:
        out = self.out_dir / f"{config.stem}-{index}"
        args = self.command(config) + ["--out-dir", str(out)]
        if seed is not None:
            args += ["--seed", str(seed)]
        task = Task(f"cli-{config.stem}", None, self._check(config, out, seed))
        if self.in_process:
            task.run = lambda: self._main(args)
        else:
            task.run = lambda: self._spawn(args, out, task)
        return task

    def _main(self, args):
        from negdimcd import cli
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(args)

    def _spawn(self, args, out: Path, task: Task) -> int:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "stdout.txt", "wb") as so, open(out / "stderr.txt", "wb") as se:
            proc = subprocess.Popen([sys.executable, "-m", "negdimcd.cli", *args],
                                    cwd=self.root, stdout=so, stderr=se)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        task.peak_rss_kb = usage.ru_maxrss
        return proc.returncode

    def cycle(self, index: int) -> list[Task]:
        return [self.task(c, index, self.seed) for c in self.configs]

    def default_seed_tasks(self) -> list[Task]:
        """Seed-dependent configs at their own seed, checked against the
        stored references (run once per benchmark run, untimed)."""
        return [self.task(c, -1, None) for c in self.configs
                if self.references.get(c.name, {}).get("seed_dependent")]

    def cleanup(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (CliConfigs, GridSweep, TransportSweep)}


def build(name: str, seed: int, smoke: bool = False):
    return WORKLOADS[name](seed, smoke)

