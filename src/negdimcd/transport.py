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

from .comparison import c as comp_c
from .comparison import s as comp_s
from .comparison import below_segment_limit, negative_n, sigma, tau
from .convexity import interior_grid
from .geometry import WeightedLine
from .quadrature import gl_nodes, integrate
from .report import CheckReport

__all__ = [
    "Density1D",
    "GeodesicPath",
    "gaussian_density",
    "uniform_density",
    "reference_density",
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
# how far from 1 a Density1D's mass may be, and how much of it may lie off a space
MASS_TOL = 1e-8
# nodes per block of the cdf table's build: each block's slices stay in a 2 MiB L2
_BLOCK = 2 ** 15


def _simpson_cdf(y, h):
    """Cumulative composite Simpson integral of ``y`` on at least 3 nodes at
    equal intervals ``h``, from 0; bit for bit
    ``scipy.integrate.cumulative_simpson(y, dx=h, initial=0.0)``.  Intervals
    2m and 2m+1 take the parabola through nodes 2m..2m+2, read forward and
    backward, each as ``h/3 * ((2*mid + 5*near/4) - far/4)``; for an even
    node count the last interval takes the parabola through the last three
    nodes (eq. (10) of K. V. Cartwright, J. Math. Sci. Math. Educ. 12(2)).
    An even node is the near end of one parabola and the far end of the
    next, so its end terms are computed once.  Blocks of ``_BLOCK`` nodes
    carry the running sum, so the additions are those of one cumsum."""
    n = len(y)
    e = 2 * ((n - 1) // 2)
    cdf = np.empty(n)
    cdf[0] = 0.0
    scratch = np.empty(_BLOCK // 2 + 1)
    for lo in range(0, e, _BLOCK):
        hi = min(lo + _BLOCK, e)
        ends, mids, blk = y[lo:hi + 1:2], y[lo + 1:hi:2], cdf[lo + 1:hi + 1]
        fwd, back, term = blk[0::2], blk[1::2], scratch[:len(ends)]
        np.multiply(ends, 5, out=term)
        term /= 4
        np.multiply(mids, 2, out=fwd)
        fwd += term[:-1]
        np.multiply(mids, 2, out=back)
        back += term[1:]
        np.divide(ends, 4, out=term)
        fwd -= term[1:]
        back -= term[:-1]
        blk *= h / 3
        blk[0] += cdf[lo]
        np.cumsum(blk, out=blk)
    if n % 2 == 0:
        cdf[-1] = h / 3 * (5 * y[-1] / 4 + 2 * y[-2] - y[-3] / 4) + cdf[-2]
    return cdf


@dataclass
class Density1D:
    """Absolutely continuous probability measure on an interval.

    ``pdf`` is the Lebesgue density, finite on the closed support.  The cdf
    and quantile evaluators are built from a table of the composite Simpson
    rule on ``quad_nodes`` (at least 2) equal intervals, the formula of
    ``scipy.integrate.cumulative_simpson(y, dx=h)``; the total mass must be 1
    within MASS_TOL unless ``normalize`` is set, which divides ``pdf`` and
    ``d_pdf`` by it.  A Simpson increment can be negative where the pdf
    rises steeply from near zero; only then is the table made monotone by a
    running maximum, the identity on a non-decreasing table.
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
        if not -math.inf < a < b < math.inf:
            raise ValueError(f"support {self.support!r} is not a finite interval lo < hi")
        if self.quad_nodes < 2:
            raise ValueError(f"quad_nodes must be at least 2, got {self.quad_nodes!r}")
        xs = np.linspace(a, b, self.quad_nodes + 1)
        if np.any(xs[1:] <= xs[:-1]):
            raise ValueError(f"support {self.support!r} is narrower than its "
                             f"{self.quad_nodes} intervals: nodes must be strictly increasing")
        pv = np.asarray(self.pdf(xs), dtype=float)
        if not np.isfinite(pv).all():
            i = np.flatnonzero(~np.isfinite(pv))[0]
            raise ValueError(f"pdf {float(pv[i])!r} is not finite at x={float(xs[i])!r}")
        if np.any(pv < 0):
            raise ValueError("pdf must be nonnegative on its support")
        cdf = _simpson_cdf(pv, (b - a) / self.quad_nodes)
        mass = float(cdf[-1])
        if not math.isfinite(mass):
            raise ValueError(f"density mass {mass!r} is not finite")
        if self.normalize:
            if mass <= 0:
                raise ValueError("cannot normalize a zero-mass density")

            def scaled(fn):
                return lambda x: fn(x) / mass

            self.pdf = scaled(self.pdf)
            if self.d_pdf is not None:
                self.d_pdf = scaled(self.d_pdf)
            cdf /= mass
        elif abs(mass - 1.0) > MASS_TOL:
            raise ValueError(f"density mass {mass!r} differs from 1 by more than "
                             f"{MASS_TOL:g}")
        if not (cdf[1:] >= cdf[:-1]).all():
            # a negative Simpson increment: interpolation needs a monotone table
            np.maximum.accumulate(cdf, out=cdf)
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
        x = np.asarray(x, dtype=float)
        return (self.pdf(x + h) - self.pdf(x - h)) / (2.0 * h)

    def interior_nodes(self, n: int, panels: int = 4):
        """Gauss-Legendre nodes/weights on the (barely shrunk) open support."""
        a, b = self.support
        delta = (b - a) * 1e-9
        return gl_nodes(a + delta, b - delta, n, panels)


def gaussian_density(mean: float, sd: float, quad_nodes: int = 8192) -> Density1D:
    """Normal density truncated at 8 standard deviations (tail mass below
    1e-14, within the exact-mass tolerance)."""
    if not (math.isfinite(mean) and 0 < sd < math.inf):
        raise ValueError(f"need a finite mean and a finite sd > 0, got mean={mean!r}, sd={sd!r}")
    norm = 1.0 / (sd * math.sqrt(2.0 * math.pi))

    def pdf(x):
        # in one array, unwrapped for a scalar x; (z*z)*-0.5 has the bits of (-0.5*z)*z
        z = np.array(x, dtype=float)
        z -= mean
        z /= sd
        z *= z
        z *= -0.5
        np.exp(z, out=z)
        z *= norm
        return z[()]

    def d_pdf(x):
        z = (np.asarray(x, dtype=float) - mean) / sd
        return -norm * z / sd * np.exp(-0.5 * z * z)

    return Density1D(support=(mean - 8.0 * sd, mean + 8.0 * sd),
                     pdf=pdf, d_pdf=d_pdf, quad_nodes=quad_nodes,
                     name=f"normal({mean},{sd})")


def uniform_density(a: float, b: float, quad_nodes: int = 2048) -> Density1D:
    if not a < b:
        raise ValueError(f"need a < b, got a={a!r}, b={b!r}")
    h = 1.0 / (b - a)

    def pdf(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= a) & (x <= b), h, 0.0)

    def d_pdf(x):
        return np.zeros(np.shape(x))

    return Density1D(support=(a, b), pdf=pdf, d_pdf=d_pdf,
                     quad_nodes=quad_nodes, name=f"uniform({a},{b})")


def reference_density(space: WeightedLine) -> Density1D:
    """The reference measure exp(-psi) dx of a weighted line as a Density1D;
    its total mass must be 1 within the density-mass tolerance."""
    psi = space.psi

    def pdf(x):
        return np.exp(-psi(x))

    def d_pdf(x):
        return -psi.deriv(x) * pdf(x)

    return Density1D(support=space.interval, pdf=pdf, d_pdf=d_pdf, name="reference")


def w2(mu0: Density1D, mu1: Density1D, n_nodes: int = 10000) -> float:
    """Quadratic Wasserstein distance via quantile quadrature."""
    # composite rule: a cached low-order panel rule scales to large n,
    # unlike a single Gauss rule of order n
    order = min(n_nodes, 50)
    u, wts = gl_nodes(0.0, 1.0, order, panels=max(1, n_nodes // order))
    dq = mu0.quantile(u)
    dq -= mu1.quantile(u)
    wts *= dq
    wts *= dq
    return math.sqrt(max(float(np.sum(wts)), 0.0))


class GeodesicPath:
    """Displacement interpolation from the source points ``x`` along the monotone
    map T = Q1 o F0, with ``rho0`` = rho0(x), ``Tx`` = T(x), ``rho1`` = rho1(T(x))
    and ``dTx`` = T'(x) = rho0 / rho1 (rho1 floored away from 0) evaluated once;
    times in a column give (t, x) arrays."""

    def __init__(self, mu0: Density1D, mu1: Density1D, x):
        self.x = np.asarray(x, dtype=float)
        self.Tx = mu1.quantile(mu0.cdf(self.x))
        self.rho0 = mu0.pdf(self.x)
        self.rho1 = mu1.pdf(self.Tx)
        floored = np.maximum(self.rho1, _DENSITY_FLOOR)
        self.dTx = np.divide(self.rho0, floored, out=floored)

    def position(self, t):
        return (1.0 - t) * self.x + t * self.Tx

    def jacobian_lebesgue(self, t):
        return (1.0 - t) + t * self.dTx

    def jacobian(self, space: WeightedLine, t):
        """Weighted Jacobian J_t(x) = e^{psi(x)-psi(T_t x)} ((1-t) + t T'(x))."""
        psi = space.psi
        return np.exp(psi(self.x) - psi(self.position(t))) * self.jacobian_lebesgue(t)


def interpolate(mu0: Density1D, mu1: Density1D, t: float) -> Density1D:
    """Density of the Wasserstein geodesic at time t (Lebesgue density),
    rebuilt as a standalone Density1D."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    path = GeodesicPath(mu0, mu1, mu0._xs)
    ys = np.multiply(t, path.Tx)
    jac = np.multiply(1.0 - t, path.x)
    ys += jac
    np.multiply(t, path.dTx, out=jac)
    jac += 1.0 - t
    if np.any(jac <= 0):
        raise ValueError("monotonicity violated: nonpositive interpolation Jacobian")
    vals = np.divide(path.rho0, jac, out=jac)

    def pdf(y):
        return np.interp(y, ys, vals, left=0.0, right=0.0)

    return Density1D(support=(float(ys[0]), float(ys[-1])), pdf=pdf,
                     normalize=True, name=f"interp(t={t})")


def renyi_entropy(mu: Density1D, space: WeightedLine, N: float) -> float:
    """S_N = int rho^{(N-1)/N} dm with rho = d(mu)/dm, by adaptive quadrature."""
    negative_n(N)
    p = (N - 1.0) / N

    def integrand(x):
        rho = np.maximum(mu.pdf(x) * np.exp(space.psi(x)), _DENSITY_FLOOR)
        return np.exp(p * np.log(rho)) * np.exp(-space.psi(x))

    a, b = mu.support
    return integrate(integrand, a, b, n0=128, rtol=1e-11).value


def relative_entropy(mu: Density1D, space: WeightedLine) -> float:
    """Ent(mu | m) = int rho log(rho) dm, as a Lebesgue integral over supp mu."""

    def integrand(x):
        pl = np.maximum(mu.pdf(x), _DENSITY_FLOOR)
        return pl * (np.log(pl) + space.psi(x))

    a, b = mu.support
    return integrate(integrand, a, b, n0=128, rtol=1e-11).value


def fisher_information(mu: Density1D, space: WeightedLine) -> float:
    """I(mu | m) = int (d/dx log(d mu/dm))^2 d mu for smooth densities."""

    def integrand(x):
        pl = np.maximum(mu.pdf(x), _DENSITY_FLOOR)
        score = mu.pdf_deriv(x) / pl + space.psi.deriv(x)
        return score * score * pl

    a, b = mu.support
    pad = (b - a) * 1e-6
    return integrate(integrand, a + pad, b - pad, n0=128, rtol=1e-10).value


def check_cd(space: WeightedLine, mu0: Density1D, mu1: Density1D, K: float,
             N: float, t_grid: Sequence[float],
             n_prime_list: Sequence[float] | None = None, mode: str = "CD",
             tol: float = 1e-8) -> CheckReport:
    """Distortion-coefficient convexity of the Renyi entropies.

    For each exponent N' and interpolation time t the margin is the
    coefficient-weighted endpoint combination minus S_{N'} of the
    interpolated measure, all integrals against mu0.  mode "CD" uses the
    dimensional coefficients, mode "CDstar" the plain ratio coefficients; an
    out-of-domain (+inf) coefficient marks that (t, N') trivially true.  A
    margin passes when it is at least -tol * max(1, S_{N'}(mu_t)): the
    entropies reach 1e14 for a narrow normal deep in a Gaussian reference
    measure, where one ulp exceeds any fixed tol.
    """
    negative_n(N)
    if mode not in ("CD", "CDstar"):
        raise ValueError("mode must be 'CD' or 'CDstar'")
    n_primes = list(n_prime_list) if n_prime_list is not None else [N]
    if not n_primes or any(not (N <= npr < 0) for npr in n_primes):
        raise ValueError("need at least one N', and every N' must lie in [N, 0)")
    xs, wts = mu0.interior_nodes(512, 4)
    path = GeodesicPath(mu0, mu1, xs)
    meas = wts * path.rho0
    theta = np.abs(path.Tx - xs)
    rho0 = np.maximum(path.rho0 * np.exp(space.psi(xs)), _DENSITY_FLOOR)
    rho1 = np.maximum(path.rho1 * np.exp(space.psi(path.Tx)), _DENSITY_FLOOR)
    clamped = bool(np.any(rho0 <= _DENSITY_FLOOR) or np.any(rho1 <= _DENSITY_FLOOR))
    # axes: t, x; the coefficients add an end (1 - t or t) in front
    t = np.asarray(t_grid, dtype=float)[:, None]
    ends = np.stack((1.0 - t, t))
    log0, log1 = np.log(rho0), np.log(rho1)
    log_jac = np.log(path.jacobian(space, t) / rho0)
    margins, scales = [], []
    for npr in n_primes:
        coef = tau(K, npr, ends, theta) if mode == "CD" else sigma(K / npr, ends, theta)
        lhs = np.sum(meas * (coef[0] * np.exp(-log0 / npr)
                             + coef[1] * np.exp(-log1 / npr)), axis=1)
        s_t = np.sum(meas * np.exp(log_jac / npr), axis=1)
        trivial = np.isinf(coef).any(axis=(0, 2))
        margins.append(np.where(trivial, math.inf, lhs - s_t))
        scales.append(np.maximum(s_t, 1.0))
    locations = [(tt, npr) for npr in n_primes for tt in t[:, 0].tolist()]
    note = "density clamped at floor" if clamped else ""
    return CheckReport.from_margins(f"cd-{mode.lower()}", np.concatenate(margins),
                                    locations, tol, note=note,
                                    details={"theta_max": float(theta.max())},
                                    scale=np.concatenate(scales))


def check_jacobian_convexity(space: WeightedLine, mu0: Density1D, mu1: Density1D,
                             K: float, N: float, t_grid: Sequence[float],
                             tol: float = 1e-8) -> CheckReport:
    """Pointwise convexity of the (1/N)-th power of the weighted Jacobian.

    margin(x, t) = tau^{(1-t)}(|v|) + tau^{(t)}(|v|) J_1(x)^{1/N} - J_t(x)^{1/N}
    with v = T(x) - x and J_t = ``GeodesicPath.jacobian``, at 64 evenly spaced
    x in the source support less 1e-6 of its length at each end.
    """
    negative_n(N)
    xs = interior_grid(mu0.support, 64)
    path = GeodesicPath(mu0, mu1, xs)
    if np.any(path.dTx <= 0):
        raise ValueError("monotonicity violated: nonpositive map derivative")
    theta = np.abs(path.Tx - xs)
    j1 = path.jacobian(space, 1.0)
    # axes: t, x
    t = np.asarray(t_grid, dtype=float)[:, None]
    coef = tau(K, N, np.stack((1.0 - t, t)), theta)
    jt = path.jacobian(space, t)
    margins = coef[0] + coef[1] * np.exp(np.log(j1) / N) - np.exp(np.log(jt) / N)
    locations = np.stack(np.broadcast_arrays(xs, t), axis=-1).reshape(-1, 2)
    return CheckReport.from_margins("jacobian-convexity", margins.ravel(), locations,
                                    tol)


def _interval_measure(space: WeightedLine, interval: Tuple[float, float]) -> float:
    a, b = interval
    return integrate(lambda x: np.exp(-space.psi(x)), a, b, rtol=1e-13, atol=1e-15).value


def brunn_minkowski(space: WeightedLine, A0: Tuple[float, float],
                    A1: Tuple[float, float], t: float, K: float, N: float,
                    mode: str = "BM", tol: float = 1e-9) -> CheckReport:
    """Interval Brunn-Minkowski margin for the weighted measure.

    A_t is the pointwise interpolation of the intervals; the coefficients
    are suprema of tau (mode "BM") or sigma (mode "BMstar") over the realized
    distance range, and the margin compares the coefficient combination of
    m[A0]^{1/N}, m[A1]^{1/N} against m[A_t]^{1/N} (a lower bound on m[A_t]
    since N < 0).
    """
    negative_n(N)
    if mode not in ("BM", "BMstar"):
        raise ValueError("mode must be 'BM' or 'BMstar'")
    for name, (lo, hi) in (("A0", A0), ("A1", A1)):
        if not -math.inf < lo < hi < math.inf:
            raise ValueError(f"{name} {(lo, hi)!r} is not a finite interval lo < hi")
    a0, b0 = A0
    a1, b1 = A1
    at = ((1.0 - t) * a0 + t * a1, (1.0 - t) * b0 + t * b1)
    m0 = _interval_measure(space, A0)
    m1 = _interval_measure(space, A1)
    mt = _interval_measure(space, at)
    d_min = max(0.0, max(a1 - b0, a0 - b1))
    d_max = max(abs(b1 - a0), abs(b0 - a1))
    thetas = np.linspace(d_min, d_max, 512)
    ends = [[1.0 - t], [t]]
    c0, c1 = np.max(tau(K, N, ends, thetas) if mode == "BM"
                    else sigma(K / N, ends, thetas), axis=1).tolist()
    margin = math.inf
    if not (math.isinf(c0) or math.isinf(c1)):
        powm = lambda m: math.exp(math.log(m) / N)
        margin = c0 * powm(m0) + c1 * powm(m1) - powm(mt)
    return CheckReport.from_margins(f"bm-{mode.lower()}", [margin], [(A0, A1, t)],
                                    tol, details={"m0": m0, "m1": m1, "mt": mt})


def check_entropic_cd(space: WeightedLine, mu0: Density1D, mu1: Density1D,
                      K: float, N: float, t_grid: Sequence[float],
                      tol: float = 1e-8) -> CheckReport:
    """Dimensional convexity of the relative entropy along the W2 geodesic.

    margin(t) = sigma^{(1-t)}_{K/N}(W) E_N(mu0) + sigma^{(t)}_{K/N}(W) E_N(mu1)
                - E_N(mu_t),  E_N = exp(-Ent/N), W = W2(mu0, mu1),
    with Ent(mu_t) = Ent(mu0) - int log J_t dmu0 by change of variables.
    In one dimension the monotone geodesic is unique, so the plain and strong
    forms of this convexity coincide.
    """
    negative_n(N)
    W = w2(mu0, mu1)
    xs, wts = mu0.interior_nodes(512, 4)
    path = GeodesicPath(mu0, mu1, xs)
    meas = wts * path.rho0
    ent0 = relative_entropy(mu0, space)
    ent1 = relative_entropy(mu1, space)
    t = np.asarray(t_grid, dtype=float)
    w = sigma(K / N, np.stack((1.0 - t, t)), W)
    ent_t = ent0 - np.sum(meas * np.log(path.jacobian(space, t[:, None])), axis=1)
    margins = np.where(np.isinf(w).any(axis=0), math.inf,
                       w[0] * math.exp(-ent0 / N) + w[1] * math.exp(-ent1 / N)
                       - np.exp(-ent_t / N))
    return CheckReport.from_margins("entropic-cd", margins, t, tol,
                                    details={"w2": W})


def hwi_check(space: WeightedLine, mu0: Density1D, mu1: Density1D, K: float,
              N: float, tol: float = 1e-8) -> CheckReport:
    """Dimensional HWI margin:
    E_N(mu1)/E_N(mu0) - c_{K/N}(W) - s_{K/N}(W)/N * sqrt(I(mu0))."""
    negative_n(N)
    W = below_segment_limit(w2(mu0, mu1), K, N)
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
                    tol: float = 1e-8) -> CheckReport:
    """Transport-entropy margin Ent(mu) + N log cosh(sqrt(-K/N) W2(m, mu));
    needs K > 0 and a probability reference measure."""
    negative_n(N)
    if not K > 0:
        raise ValueError("need K > 0")
    ref = reference_density(space)
    W = w2(ref, mu)
    ent = relative_entropy(mu, space)
    margin = ent + N * math.log(math.cosh(math.sqrt(-K / N) * W))
    return CheckReport.from_margins("talagrand", [margin], [(W,)], tol,
                                    details={"w2": W, "ent": ent})


def log_sobolev_check(space: WeightedLine, mu: Density1D, K: float, N: float,
                      tol: float = 1e-8) -> CheckReport:
    """Dimensional log-Sobolev margin I(mu) - K*N*(exp(2 Ent(mu)/N) - 1).

    Only admissible measures are constrained: admissibility requires
    c_{K/N}(W) + s_{K/N}(W)/N * sqrt(I) > 0, otherwise the claim is vacuous.
    """
    negative_n(N)
    if not K > 0:
        raise ValueError("need K > 0")
    ref = reference_density(space)
    W = w2(ref, mu)
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
