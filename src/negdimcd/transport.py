"""Exact 1-D optimal transport and the curvature-dimension check suite.

Couplings and geodesics are always the monotone (quantile) ones, which are
optimal in one dimension, so every Wasserstein quantity reduces to quadrature
over quantile levels or over the source support.  Integrals against the
source measure are parameterized by the source coordinate to avoid
moving-domain quadrature.

Densities are held with respect to Lebesgue measure; densities with respect
to a weighted reference measure exp(-psi) dx are formed on the fly from the
ambient space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import cumulative_simpson

from .comparison import c as comp_c
from .comparison import s as comp_s
from .comparison import sigma, tau
from .geometry import WeightedLine
from .quadrature import QuadratureError, gl_nodes, integrate
from .report import CheckReport

__all__ = [
    "Density1D",
    "TransportPlan1D",
    "GeodesicPath",
    "gaussian_density",
    "uniform_density",
    "reference_density",
    "transport_map",
    "w2",
    "interpolate",
    "renyi_entropy",
    "relative_entropy",
    "fisher_information",
    "check_cd",
    "check_jacobian_convexity",
    "brunn_minkowski",
    "check_entropic_cd",
    "hwi_check",
    "talagrand_check",
    "log_sobolev_check",
]

_DENSITY_FLOOR = 1e-300


@dataclass
class Density1D:
    """Absolutely continuous probability measure on an interval.

    ``pdf`` is the Lebesgue density, positive on the open support.  The cdf
    and quantile evaluators are built from a Simpson table on ``quad_nodes``
    points; the total mass must be 1 within 1e-8 unless ``normalize`` is set,
    which divides ``pdf`` and ``d_pdf`` by it.
    """

    support: Tuple[float, float]
    pdf: Callable
    d_pdf: Optional[Callable] = None
    quad_nodes: int = 8192
    normalize: bool = False
    name: str = ""
    _xs: np.ndarray = field(init=False, repr=False)
    _cdf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        a, b = self.support
        if not a < b:
            raise ValueError("support must be a nonempty interval")
        xs = np.linspace(a, b, self.quad_nodes + 1)
        pv = np.asarray(self.pdf(xs), dtype=float)
        if np.any(pv < 0):
            raise ValueError("pdf must be nonnegative on its support")
        cdf = cumulative_simpson(pv, x=xs, initial=0.0)
        mass = float(cdf[-1])
        if not math.isfinite(mass):
            raise ValueError(f"density mass {mass!r} is not finite")
        if self.normalize:
            if mass <= 0:
                raise ValueError("cannot normalize a zero-mass density")

            def scaled(fn):
                return lambda x: np.asarray(fn(x), dtype=float) / mass

            self.pdf = scaled(self.pdf)
            if self.d_pdf is not None:
                self.d_pdf = scaled(self.d_pdf)
            cdf = cdf / mass
        elif abs(mass - 1.0) > 1e-8:
            raise ValueError(f"density mass {mass!r} differs from 1 by more than 1e-8")
        # enforce exact monotonicity for interpolation
        cdf = np.maximum.accumulate(cdf)
        cdf[-1] = max(cdf[-1], 1.0)
        self._xs = xs
        self._cdf = cdf

    def cdf(self, x):
        return np.interp(x, self._xs, self._cdf, left=0.0, right=1.0)

    def quantile(self, u):
        return np.interp(u, self._cdf, self._xs)

    def pdf_deriv(self, x):
        if self.d_pdf is not None:
            return self.d_pdf(x)
        a, b = self.support
        h = (b - a) * 1e-7
        return (np.asarray(self.pdf(np.asarray(x) + h), dtype=float)
                - np.asarray(self.pdf(np.asarray(x) - h), dtype=float)) / (2.0 * h)

    def interior_nodes(self, n: int, panels: int = 4, pad: float = 1e-9):
        """Gauss-Legendre nodes/weights on the (barely shrunk) open support."""
        a, b = self.support
        delta = (b - a) * pad
        return gl_nodes(a + delta, b - delta, n, panels)


def gaussian_density(mean: float, sd: float, radius: float = 8.0,
                     quad_nodes: int = 8192) -> Density1D:
    """Normal density truncated at ``radius`` standard deviations (default
    tail mass below 1e-14, within the exact-mass tolerance)."""
    if sd <= 0:
        raise ValueError("sd must be positive")
    norm = 1.0 / (sd * math.sqrt(2.0 * math.pi))

    def pdf(x):
        z = (np.asarray(x, dtype=float) - mean) / sd
        return norm * np.exp(-0.5 * z * z)

    def d_pdf(x):
        z = (np.asarray(x, dtype=float) - mean) / sd
        return -norm * z / sd * np.exp(-0.5 * z * z)

    return Density1D(support=(mean - radius * sd, mean + radius * sd),
                     pdf=pdf, d_pdf=d_pdf, quad_nodes=quad_nodes,
                     name=f"normal({mean},{sd})")


def uniform_density(a: float, b: float, quad_nodes: int = 2048) -> Density1D:
    if not a < b:
        raise ValueError("need a < b")
    h = 1.0 / (b - a)

    def pdf(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= a) & (x <= b), h, 0.0)

    def d_pdf(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    return Density1D(support=(a, b), pdf=pdf, d_pdf=d_pdf,
                     quad_nodes=quad_nodes, name=f"uniform({a},{b})")


def reference_density(space: WeightedLine, quad_nodes: int = 8192,
                      require_probability: bool = True) -> Density1D:
    """The reference measure exp(-psi) dx of a weighted line as a Density1D.

    With ``require_probability`` the total mass must already be 1 (within the
    density-mass tolerance); otherwise the density is normalized.
    """
    psi = space.psi

    def pdf(x):
        return np.exp(-np.asarray(psi(x), dtype=float))

    def d_pdf(x):
        return -np.asarray(psi.deriv(x), dtype=float) * pdf(x)

    return Density1D(support=space.interval, pdf=pdf, d_pdf=d_pdf,
                     quad_nodes=quad_nodes, normalize=not require_probability,
                     name="reference")


@dataclass(frozen=True)
class TransportPlan1D:
    """Monotone optimal map between two 1-D measures with its derivative."""

    map: Callable
    d_map: Callable


def transport_map(mu0: Density1D, mu1: Density1D) -> TransportPlan1D:
    """Monotone rearrangement T = Q1 o F0 with T' = rho0/(rho1 o T)."""

    def tmap(x):
        return mu1.quantile(mu0.cdf(x))

    def d_tmap(x):
        num = np.asarray(mu0.pdf(x), dtype=float)
        den = np.asarray(mu1.pdf(tmap(x)), dtype=float)
        den = np.maximum(den, _DENSITY_FLOOR)
        return num / den

    return TransportPlan1D(map=tmap, d_map=d_tmap)


def w2(mu0: Density1D, mu1: Density1D, n_nodes: int = 10000,
       rtol: float | None = None) -> float:
    """Quadratic Wasserstein distance via quantile quadrature.

    With ``rtol`` set, the node count is doubled once and a relative shift
    beyond rtol raises QuadratureError (inconclusive quadrature).
    """

    def value(n):
        # composite rule: a cached low-order panel rule scales to large n,
        # unlike a single Gauss rule of order n
        order = min(n, 50)
        u, wts = gl_nodes(0.0, 1.0, order, panels=max(1, n // order))
        dq = np.asarray(mu0.quantile(u), dtype=float) - np.asarray(mu1.quantile(u), dtype=float)
        return math.sqrt(max(float(np.sum(wts * dq * dq)), 0.0))

    v = value(n_nodes)
    if rtol is not None:
        v2 = value(2 * n_nodes)
        if abs(v2 - v) > rtol * max(1.0, abs(v2)):
            raise QuadratureError(
                f"w2 shifted by {abs(v2 - v)!r} under node doubling")
        return v2
    return v


@dataclass
class GeodesicPath:
    """Displacement interpolation along the monotone map."""

    mu0: Density1D
    mu1: Density1D
    plan: TransportPlan1D

    def position(self, t: float, x):
        return (1.0 - t) * np.asarray(x, dtype=float) + t * np.asarray(self.plan.map(x), dtype=float)

    def jacobian_lebesgue(self, t: float, x):
        return (1.0 - t) + t * np.asarray(self.plan.d_map(x), dtype=float)

    def density(self, t: float, quad_nodes: int = 8192) -> Density1D:
        """Pushforward density at time t, rebuilt as a standalone Density1D."""
        if not 0.0 <= t <= 1.0:
            raise ValueError("t must lie in [0, 1]")
        xs = self.mu0._xs
        ys = self.position(t, xs)
        jac = self.jacobian_lebesgue(t, xs)
        if np.any(jac <= 0):
            raise ValueError("monotonicity violated: nonpositive interpolation Jacobian")
        vals = np.asarray(self.mu0.pdf(xs), dtype=float) / jac

        def pdf(y):
            return np.interp(y, ys, vals, left=0.0, right=0.0)

        return Density1D(support=(float(ys[0]), float(ys[-1])), pdf=pdf,
                         quad_nodes=quad_nodes, normalize=True,
                         name=f"interp(t={t})")


def interpolate(mu0: Density1D, mu1: Density1D, t: float) -> Density1D:
    """Density of the Wasserstein geodesic at time t (Lebesgue density)."""
    return GeodesicPath(mu0, mu1, transport_map(mu0, mu1)).density(t)


def _weighted_density_values(mu: Density1D, space: WeightedLine, x) -> np.ndarray:
    """d(mu)/dm at x: Lebesgue pdf times exp(psi)."""
    return (np.asarray(mu.pdf(x), dtype=float)
            * np.exp(np.asarray(space.psi(x), dtype=float)))


def renyi_entropy(mu: Density1D, space: WeightedLine, N: float,
                  n0: int = 128) -> float:
    """S_N = int rho^{(N-1)/N} dm with rho = d(mu)/dm, by adaptive quadrature."""
    if not N < 0:
        raise ValueError("N must be negative")
    p = (N - 1.0) / N

    def integrand(x):
        rho = np.maximum(_weighted_density_values(mu, space, x), _DENSITY_FLOOR)
        return np.exp(p * np.log(rho)) * np.exp(-np.asarray(space.psi(x), dtype=float))

    a, b = mu.support
    return integrate(integrand, a, b, n0=n0, rtol=1e-11).value


def relative_entropy(mu: Density1D, space: WeightedLine, n0: int = 128) -> float:
    """Ent(mu | m) = int rho log(rho) dm, as a Lebesgue integral over supp mu."""

    def integrand(x):
        pl = np.maximum(np.asarray(mu.pdf(x), dtype=float), _DENSITY_FLOOR)
        return pl * (np.log(pl) + np.asarray(space.psi(x), dtype=float))

    a, b = mu.support
    return integrate(integrand, a, b, n0=n0, rtol=1e-11).value


def fisher_information(mu: Density1D, space: WeightedLine, n0: int = 128) -> float:
    """I(mu | m) = int (d/dx log(d mu/dm))^2 d mu for smooth densities."""

    def integrand(x):
        pl = np.maximum(np.asarray(mu.pdf(x), dtype=float), _DENSITY_FLOOR)
        score = (np.asarray(mu.pdf_deriv(x), dtype=float) / pl
                 + np.asarray(space.psi.deriv(x), dtype=float))
        return score * score * pl

    a, b = mu.support
    pad = (b - a) * 1e-6
    return integrate(integrand, a + pad, b - pad, n0=n0, rtol=1e-10).value


def _source_nodes(mu0: Density1D, n_quad: int, panels: int = 4):
    nodes, wts = mu0.interior_nodes(n_quad, panels)
    meas = wts * np.asarray(mu0.pdf(nodes), dtype=float)
    return nodes, meas


def check_cd(space: WeightedLine, mu0: Density1D, mu1: Density1D, K: float,
             N: float, t_grid: Sequence[float],
             n_prime_list: Sequence[float] | None = None, mode: str = "CD",
             tol: float = 1e-8, n_quad: int = 512) -> CheckReport:
    """Distortion-coefficient convexity of the Renyi entropies.

    For each exponent N' and interpolation time t the margin is the
    coefficient-weighted endpoint combination minus S_{N'} of the
    interpolated measure, all integrals against mu0.  mode "CD" uses the
    dimensional coefficients, mode "CDstar" the plain ratio coefficients; an
    out-of-domain (+inf) coefficient marks that (t, N') trivially true.
    """
    if not N < 0:
        raise ValueError("N must be negative")
    if mode not in ("CD", "CDstar"):
        raise ValueError("mode must be 'CD' or 'CDstar'")
    n_primes = list(n_prime_list) if n_prime_list is not None else [N]
    if any(not (N <= npr < 0) for npr in n_primes):
        raise ValueError("every N' must lie in [N, 0)")
    plan = transport_map(mu0, mu1)
    xs, meas = _source_nodes(mu0, n_quad)
    Tx = np.asarray(plan.map(xs), dtype=float)
    dTx = np.asarray(plan.d_map(xs), dtype=float)
    theta = np.abs(Tx - xs)
    psi_x = np.asarray(space.psi(xs), dtype=float)
    rho0 = np.maximum(np.asarray(mu0.pdf(xs), dtype=float) * np.exp(psi_x), _DENSITY_FLOOR)
    rho1 = np.maximum(_weighted_density_values(mu1, space, Tx), _DENSITY_FLOOR)
    clamped = bool(np.any(rho0 <= _DENSITY_FLOOR) or np.any(rho1 <= _DENSITY_FLOOR))
    margins, locations = [], []
    for npr in n_primes:
        pw0 = np.exp(-np.log(rho0) / npr)
        pw1 = np.exp(-np.log(rho1) / npr)
        for t in t_grid:
            t = float(t)
            if mode == "CD":
                coef0 = np.asarray(tau(K, npr, 1.0 - t, theta), dtype=float)
                coef1 = np.asarray(tau(K, npr, t, theta), dtype=float)
            else:
                coef0 = np.asarray(sigma(K / npr, 1.0 - t, theta), dtype=float)
                coef1 = np.asarray(sigma(K / npr, t, theta), dtype=float)
            if np.any(np.isinf(coef0)) or np.any(np.isinf(coef1)):
                margins.append(math.inf)
                locations.append((t, npr))
                continue
            lhs = float(np.sum(meas * (coef0 * pw0 + coef1 * pw1)))
            Ttx = (1.0 - t) * xs + t * Tx
            jac = (np.exp(psi_x - np.asarray(space.psi(Ttx), dtype=float))
                   * ((1.0 - t) + t * dTx))
            s_t = float(np.sum(meas * np.exp(np.log(jac / rho0) / npr)))
            margins.append(lhs - s_t)
            locations.append((t, npr))
    note = "density clamped at floor" if clamped else ""
    return CheckReport.from_margins(f"cd-{mode.lower()}", margins, locations, tol,
                                    note=note,
                                    details={"theta_max": float(theta.max())})


def check_jacobian_convexity(space: WeightedLine, mu0: Density1D, mu1: Density1D,
                             K: float, N: float, t_grid: Sequence[float],
                             x_grid: Sequence[float] | None = None,
                             tol: float = 1e-8) -> CheckReport:
    """Pointwise convexity of the (1/N)-th power of the weighted Jacobian.

    margin(x, t) = tau^{(1-t)}(|v|) + tau^{(t)}(|v|) J_1(x)^{1/N} - J_t(x)^{1/N}
    with v = T(x) - x and J_t(x) = e^{psi(x)-psi(T_t(x))} ((1-t) + t T'(x)).
    """
    if not N < 0:
        raise ValueError("N must be negative")
    plan = transport_map(mu0, mu1)
    if x_grid is None:
        a, b = mu0.support
        pad = (b - a) * 1e-6
        x_grid = np.linspace(a + pad, b - pad, 64)
    xs = np.asarray(x_grid, dtype=float)
    Tx = np.asarray(plan.map(xs), dtype=float)
    dTx = np.asarray(plan.d_map(xs), dtype=float)
    if np.any(dTx <= 0):
        raise ValueError("monotonicity violated: nonpositive map derivative")
    theta = np.abs(Tx - xs)
    psi_x = np.asarray(space.psi(xs), dtype=float)
    j1 = np.exp(psi_x - np.asarray(space.psi(Tx), dtype=float)) * dTx
    # axes: t, x
    t = np.asarray(t_grid, dtype=float)[:, None]
    coef0 = tau(K, N, 1.0 - t, theta)
    coef1 = tau(K, N, t, theta)
    Ttx = (1.0 - t) * xs + t * Tx
    jt = np.exp(psi_x - space.psi(Ttx)) * ((1.0 - t) + t * dTx)
    margins = coef0 + coef1 * np.exp(np.log(j1) / N) - np.exp(np.log(jt) / N)
    locations = np.stack(np.broadcast_arrays(xs, t), axis=-1).reshape(-1, 2)
    return CheckReport.from_margins("jacobian-convexity", margins.ravel(), locations,
                                    tol)


def _interval_measure(space: WeightedLine, interval: Tuple[float, float]) -> float:
    a, b = interval
    if not a < b:
        raise ValueError("empty interval")
    return integrate(lambda x: np.exp(-np.asarray(space.psi(x), dtype=float)),
                     a, b, rtol=1e-13, atol=1e-15).value


def brunn_minkowski(space: WeightedLine, A0: Tuple[float, float],
                    A1: Tuple[float, float], t: float, K: float, N: float,
                    mode: str = "BM", tol: float = 1e-9,
                    n_theta: int = 512) -> CheckReport:
    """Interval Brunn-Minkowski margin for the weighted measure.

    A_t is the pointwise interpolation of the intervals; the coefficients
    are suprema of tau (mode "BM") or sigma (mode "BMstar") over the realized
    distance range, and the margin compares the coefficient combination of
    m[A0]^{1/N}, m[A1]^{1/N} against m[A_t]^{1/N} (a lower bound on m[A_t]
    since N < 0).
    """
    if not N < 0:
        raise ValueError("N must be negative")
    if mode not in ("BM", "BMstar"):
        raise ValueError("mode must be 'BM' or 'BMstar'")
    a0, b0 = A0
    a1, b1 = A1
    if not (a0 < b0 and a1 < b1):
        raise ValueError("empty interval")
    at = ((1.0 - t) * a0 + t * a1, (1.0 - t) * b0 + t * b1)
    m0 = _interval_measure(space, A0)
    m1 = _interval_measure(space, A1)
    mt = _interval_measure(space, at)
    d_min = max(0.0, max(a1 - b0, a0 - b1))
    d_max = max(abs(b1 - a0), abs(b0 - a1))
    thetas = np.linspace(d_min, d_max, n_theta)
    if mode == "BM":
        c0 = np.max(np.asarray(tau(K, N, 1.0 - t, thetas), dtype=float))
        c1 = np.max(np.asarray(tau(K, N, t, thetas), dtype=float))
    else:
        c0 = np.max(np.asarray(sigma(K / N, 1.0 - t, thetas), dtype=float))
        c1 = np.max(np.asarray(sigma(K / N, t, thetas), dtype=float))
    if math.isinf(c0) or math.isinf(c1):
        return CheckReport.from_margins(f"bm-{mode.lower()}", [math.inf],
                                        [(A0, A1, t)], tol)
    powm = lambda m: math.exp(math.log(m) / N)
    margin = float(c0) * powm(m0) + float(c1) * powm(m1) - powm(mt)
    return CheckReport.from_margins(f"bm-{mode.lower()}", [margin], [(A0, A1, t)],
                                    tol, details={"m0": m0, "m1": m1, "mt": mt})


def _entropy_along(space: WeightedLine, mu0: Density1D, plan: TransportPlan1D,
                   t: float, xs, meas, ent0: float) -> float:
    """Ent(mu_t | m) by change of variables against mu0."""
    Tx = np.asarray(plan.map(xs), dtype=float)
    dTx = np.asarray(plan.d_map(xs), dtype=float)
    Ttx = (1.0 - t) * xs + t * Tx
    psi_x = np.asarray(space.psi(xs), dtype=float)
    jac = np.exp(psi_x - np.asarray(space.psi(Ttx), dtype=float)) * ((1.0 - t) + t * dTx)
    return ent0 - float(np.sum(meas * np.log(jac)))


def check_entropic_cd(space: WeightedLine, mu0: Density1D, mu1: Density1D,
                      K: float, N: float, t_grid: Sequence[float],
                      tol: float = 1e-8, n_quad: int = 512,
                      w2_nodes: int = 10000) -> CheckReport:
    """Dimensional convexity of the relative entropy along the W2 geodesic.

    margin(t) = sigma^{(1-t)}_{K/N}(W) E_N(mu0) + sigma^{(t)}_{K/N}(W) E_N(mu1)
                - E_N(mu_t),  E_N = exp(-Ent/N), W = W2(mu0, mu1).
    In one dimension the monotone geodesic is unique, so the plain and strong
    forms of this convexity coincide.
    """
    if not N < 0:
        raise ValueError("N must be negative")
    W = w2(mu0, mu1, n_nodes=w2_nodes)
    plan = transport_map(mu0, mu1)
    xs, meas = _source_nodes(mu0, n_quad)
    ent0 = relative_entropy(mu0, space)
    ent1 = relative_entropy(mu1, space)
    e0 = math.exp(-ent0 / N)
    e1 = math.exp(-ent1 / N)
    margins, locations = [], []
    for t in t_grid:
        t = float(t)
        w0 = sigma(K / N, 1.0 - t, W)
        w1 = sigma(K / N, t, W)
        if math.isinf(w0) or math.isinf(w1):
            margins.append(math.inf)
            locations.append(t)
            continue
        ent_t = _entropy_along(space, mu0, plan, t, xs, meas, ent0)
        margins.append(w0 * e0 + w1 * e1 - math.exp(-ent_t / N))
        locations.append(t)
    return CheckReport.from_margins("entropic-cd", margins, locations, tol,
                                    details={"w2": W})


def hwi_check(space: WeightedLine, mu0: Density1D, mu1: Density1D, K: float,
              N: float, tol: float = 1e-8, w2_nodes: int = 10000) -> CheckReport:
    """Dimensional HWI margin:
    E_N(mu1)/E_N(mu0) - c_{K/N}(W) - s_{K/N}(W)/N * sqrt(I(mu0))."""
    if not N < 0:
        raise ValueError("N must be negative")
    W = w2(mu0, mu1, n_nodes=w2_nodes)
    if K < 0 and W > math.pi * math.sqrt(N / K):
        raise ValueError("W2 exceeds pi*sqrt(N/K); inequality not applicable")
    ent0 = relative_entropy(mu0, space)
    ent1 = relative_entropy(mu1, space)
    i0 = fisher_information(mu0, space)
    ratio = math.exp((ent0 - ent1) / N)
    kappa = K / N
    margin = ratio - comp_c(kappa, W) - comp_s(kappa, W) / N * math.sqrt(max(i0, 0.0))
    return CheckReport.from_margins("hwi", [margin], [(W,)], tol,
                                    details={"w2": W, "fisher": i0,
                                             "ent0": ent0, "ent1": ent1})


def talagrand_check(space: WeightedLine, mu: Density1D, K: float, N: float,
                    tol: float = 1e-8, w2_nodes: int = 10000) -> CheckReport:
    """Transport-entropy margin Ent(mu) + N log cosh(sqrt(-K/N) W2(m, mu));
    needs K > 0 and a probability reference measure."""
    if not (K > 0 and N < 0):
        raise ValueError("need K > 0 and N < 0")
    ref = reference_density(space)
    W = w2(ref, mu, n_nodes=w2_nodes)
    ent = relative_entropy(mu, space)
    margin = ent + N * math.log(math.cosh(math.sqrt(-K / N) * W))
    return CheckReport.from_margins("talagrand", [margin], [(W,)], tol,
                                    details={"w2": W, "ent": ent})


def log_sobolev_check(space: WeightedLine, mu: Density1D, K: float, N: float,
                      tol: float = 1e-8, w2_nodes: int = 10000) -> CheckReport:
    """Dimensional log-Sobolev margin I(mu) - K*N*(exp(2 Ent(mu)/N) - 1).

    Only admissible measures are constrained: admissibility requires
    c_{K/N}(W) + s_{K/N}(W)/N * sqrt(I) > 0, otherwise the claim is vacuous.
    """
    if not (K > 0 and N < 0):
        raise ValueError("need K > 0 and N < 0")
    ref = reference_density(space)
    W = w2(ref, mu, n_nodes=w2_nodes)
    ent = relative_entropy(mu, space)
    info = fisher_information(mu, space)
    kappa = K / N
    admissible = comp_c(kappa, W) + comp_s(kappa, W) / N * math.sqrt(max(info, 0.0))
    if admissible <= 0:
        return CheckReport.vacuous("log-sobolev", tol,
                                   note=f"inadmissible (criterion {admissible!r} <= 0)")
    margin = info - K * N * math.expm1(2.0 * ent / N)
    return CheckReport.from_margins("log-sobolev", [margin], [(W,)], tol,
                                    details={"w2": W, "ent": ent, "fisher": info,
                                             "admissibility": admissible})
