"""Weighted Ricci curvature, weighted Laplacian and spectral bounds on model spaces.

Two model spaces are supported: weighted lines/intervals (intrinsic dimension
1) and the rotationally symmetric unit 2-sphere with a radial weight.  On both
every quantity reduces to one-dimensional calculus, so curvature infima,
Bochner margins and the radial spectral gap can be computed with controlled
error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from .comparison import negative_n
from .convexity import bakry_emery, interior_grid
from .functions import ScalarFunction1D
from .report import CheckReport

__all__ = [
    "WeightedLine",
    "RotSphere",
    "WeightedSpace",
    "CurvatureCertificate",
    "EigenResult",
    "lebesgue_line",
    "gaussian_line",
    "power_weight_line",
    "ricci_n",
    "min_ricci_n",
    "laplacian_m",
    "bochner_margin",
    "lichnerowicz",
    "weighted_sum_certificate",
    "product_certificate",
    "product_direction_check",
]

_POLE_SIN = 1e-8


@dataclass(frozen=True)
class WeightedLine:
    """Interval with reference measure exp(-psi(x)) dx."""

    interval: Tuple[float, float]
    psi: ScalarFunction1D

    def __post_init__(self):
        lo, hi = self.interval
        if not -math.inf < lo < hi < math.inf:
            raise ValueError(f"line interval {self.interval!r} is not a finite "
                             "interval lo < hi")


@dataclass(frozen=True)
class RotSphere:
    """Unit 2-sphere with radial weight psi(theta), theta in (0, pi).

    Smoothness at the poles requires psi'(0+) = psi'(pi-) = 0.
    """

    psi: ScalarFunction1D

    @property
    def interval(self) -> Tuple[float, float]:
        return (0.0, math.pi)


WeightedSpace = Union[WeightedLine, RotSphere]


def lebesgue_line(lo: float, hi: float) -> WeightedLine:
    return WeightedLine((lo, hi), ScalarFunction1D.constant(0.0))


def gaussian_line(curv: float = 1.0, radius: float = 8.0) -> WeightedLine:
    """Line whose reference measure is the centered normal with variance 1/curv.

    psi(x) = curv*x^2/2 + log(sqrt(2*pi/curv)), truncated to |x| <= radius
    standard deviations; the lost tail mass is below 1e-14 at the default.
    """
    if not curv > 0:
        raise ValueError("curv must be positive")
    sd = 1.0 / math.sqrt(curv)
    c0 = 0.5 * math.log(2.0 * math.pi / curv)
    psi = ScalarFunction1D(
        fn=lambda x: curv * np.asarray(x, dtype=float) ** 2 / 2.0 + c0,
        d1=lambda x: curv * np.asarray(x, dtype=float),
        d2=lambda x: curv * np.ones_like(np.asarray(x, dtype=float)),
        name="gaussian")
    return WeightedLine((-radius * sd, radius * sd), psi)


def power_weight_line(exponent: float, lo: float, hi: float) -> WeightedLine:
    """Half-line fragment with weight x**exponent, i.e. psi = -exponent*log(x)."""
    if not 0 < lo < hi:
        raise ValueError("need 0 < lo < hi for a power weight")
    a = float(exponent)
    psi = ScalarFunction1D(
        fn=lambda x: -a * np.log(np.asarray(x, dtype=float)),
        d1=lambda x: -a / np.asarray(x, dtype=float),
        d2=lambda x: a / np.asarray(x, dtype=float) ** 2,
        name=f"power({a})")
    return WeightedLine((lo, hi), psi)


def _grad_correction(g: np.ndarray, denom: float) -> np.ndarray:
    # g^2/denom with the convention 0 when g == 0; denom == 0 is only legal
    # for constant weights.
    if denom == 0.0:
        if np.any(g != 0.0):
            raise ValueError("effective dimension equals intrinsic dimension "
                             "with a nonconstant weight")
        return np.zeros_like(g)
    return g * g / denom


def _cot(theta: np.ndarray):
    """cot(theta) and 1/sin(theta)^2 on the sphere, with the mask of points
    within _POLE_SIN of a pole.  Both are 0 at those points: there
    cot(theta)*g(theta) is continued by g'(theta), since a smooth radial g
    vanishes at the poles, and its derivative by 0."""
    st = np.sin(theta)
    pole = np.abs(st) < _POLE_SIN
    st = np.where(pole, math.inf, st)
    return np.cos(theta) / st, 1.0 / (st * st), pole


def _scalar(out):
    return float(out) if np.ndim(out) == 0 else out


def ricci_n(space: WeightedSpace, point, N: float, direction=0.0):
    """Weighted Ricci curvature for a unit vector, N < 0.

    On a line the direction is immaterial.  On the sphere ``direction`` is the
    angle between the vector and the polar direction; the quadratic form is
    diagonal in the (polar, rotational) frame, so radial = 0.0 and tangential
    = pi/2 are the extreme values.  ``point`` and ``direction`` may be arrays
    that broadcast together.
    """
    negative_n(N)
    psi = space.psi
    if isinstance(space, WeightedLine):
        return _scalar(bakry_emery(psi, N - 1.0, point))
    theta = np.asarray(point, dtype=float)
    ca2 = np.cos(direction) ** 2
    radial = bakry_emery(psi, N - 2.0, theta)
    cot, _, pole = _cot(theta)
    tangential = np.where(pole, psi.deriv2(theta), cot * psi.deriv(theta))
    return _scalar(1.0 + ca2 * radial + (1.0 - ca2) * tangential)


@dataclass(frozen=True)
class CurvatureCertificate:
    """Verified infimum of the weighted Ricci curvature over a sampled bundle."""

    K: float
    N: float
    inf_location: Tuple[float, ...]


def min_ricci_n(space: WeightedSpace, N: float,
                grid: Sequence[float]) -> CurvatureCertificate:
    """Grid infimum of ricci_n; records the argmin (point, direction).

    On the sphere the form is linear in cos^2(direction), so the directions
    0 and pi/2 are the extremes.  NaN values are skipped; with no other
    value K is +inf at no location.
    """
    x = np.asarray(grid, dtype=float)
    if x.size == 0:
        raise ValueError("min_ricci_n needs at least one grid point, got 0")
    dirs = np.array([0.0] if isinstance(space, WeightedLine) else [0.0, math.pi / 2.0])
    vals = ricci_n(space, x[:, None], N, dirs[None, :])
    vals = np.where(np.isnan(vals), math.inf, vals)
    i, j = np.unravel_index(np.argmin(vals), vals.shape)
    if vals[i, j] == math.inf:
        return CurvatureCertificate(K=math.inf, N=N, inf_location=())
    return CurvatureCertificate(K=float(vals[i, j]), N=N,
                                inf_location=(float(x[i]), float(dirs[j])))


def laplacian_m(space: WeightedSpace, u: ScalarFunction1D, point):
    """Weighted Laplacian u'' - u' psi' (plus the cot(theta) u' area term on
    the sphere, continued through the poles)."""
    x = np.asarray(point, dtype=float)
    up, upp = u.deriv(x), u.deriv2(x)
    drift = up * space.psi.deriv(x)
    if isinstance(space, WeightedLine):
        return _scalar(upp - drift)
    cot, _, pole = _cot(x)
    return _scalar(upp + np.where(pole, upp, cot * up) - drift)


def _third_deriv(u: ScalarFunction1D, x: np.ndarray, h: float) -> np.ndarray:
    # fourth-order central stencil applied to the second derivative
    d2 = u.deriv2
    return (-d2(x + 2 * h) + 8.0 * d2(x + h) - 8.0 * d2(x - h) + d2(x - 2 * h)) / (12.0 * h)


def bochner_margin(space: WeightedSpace, u: ScalarFunction1D, N: float,
                   grid: Sequence[float], tol: float = 1e-8) -> CheckReport:
    """Margin of the dimensional Bochner inequality at each grid point.

    margin(x) = L_m(|grad u|^2/2) - <grad L_m u, grad u>
                - Ric_N(grad u) - (L_m u)^2 / N,
    assembled from the first and second derivatives of u and psi; the third
    derivative of u uses a fourth-order central stencil of step 1e-3.
    """
    negative_n(N)
    psi = space.psi
    x = np.asarray(grid, dtype=float)
    up, upp = u.deriv(x), u.deriv2(x)
    uppp = _third_deriv(u, x, 1e-3)
    pp, ppp = psi.deriv(x), psi.deriv2(x)
    # g = u'^2/2 has g' = u' u'' and g'' = u''^2 + u' u'''
    g1, g2 = up * upp, upp * upp + up * uppp
    if isinstance(space, WeightedLine):
        lap_u = upp - up * pp
        lhs = g2 - g1 * pp
        dlap = uppp - upp * pp - up * ppp
    else:
        cot, csc2, pole = _cot(x)
        q = cot - pp
        lap_u = upp + q * up + np.where(pole, upp, 0.0)
        lhs = g2 + q * g1 + np.where(pole, g2, 0.0)
        dlap = uppp + (-csc2 - ppp) * up + q * upp
    lhs = lhs - up * dlap
    margins = lhs - ricci_n(space, x, N) * up * up - lap_u * lap_u / N
    return CheckReport.from_margins("bochner", margins, x, tol)


@dataclass
class EigenResult:
    """First nonzero eigenvalue of -L_m on radial functions, with the
    spectral-gap lower bound K*N/(N-1)."""

    lambda1: float
    bound: float
    passed: bool
    K: float
    status: str = "checked"
    note: str = ""


def _radial_lambda1(space: WeightedSpace, mesh: int) -> float:
    """Finite-volume radial eigenvalue with half-cell fluxes.

    The flux weight w = sin(theta) e^{-psi} (sphere) or e^{-psi} (line)
    vanishes at the sphere poles, which encodes the Neumann-regular endpoint
    condition without ever dividing by w at the ends.
    """
    # imported here so that only the spectral gap loads scipy
    from scipy.linalg import eigh_tridiagonal

    lo, hi = space.interval
    h = (hi - lo) / mesh
    centers = lo + (np.arange(mesh) + 0.5) * h
    faces = lo + np.arange(mesh + 1) * h
    w_c = np.exp(-np.asarray(space.psi(centers), dtype=float))
    w_f = np.exp(-np.asarray(space.psi(faces), dtype=float))
    if isinstance(space, RotSphere):
        w_c = np.sin(centers) * w_c
        w_f = np.sin(faces) * w_f
    # the poles of the sphere; a zero-flux (Neumann) truncation of a line
    w_f[0] = w_f[-1] = 0.0
    diag = (w_f[:-1] + w_f[1:]) / (w_c * h * h)
    off = -w_f[1:-1] / (h * h * np.sqrt(w_c[:-1] * w_c[1:]))
    vals = eigh_tridiagonal(diag, off, select="i", select_range=(0, 1),
                            eigvals_only=True)
    return float(vals[1])


def lichnerowicz(space: WeightedSpace, N: float, mesh_size: int = 2000,
                 tol: float = 1e-3) -> EigenResult:
    """Radial spectral gap versus the bound K*N/(N-1), K = inf Ric_N over 400
    evenly spaced points of the interval less 1e-6 of its length at each end.

    Only the radial spectrum is computed; for a nontrivial weight this is not
    claimed to be the full gap (the result says so in its note).  A weighted
    line is accepted as an advisory noncompact run, outside the compactness
    hypothesis of the bound.  K <= 0 makes the bound vacuous; an eigenvalue
    shift above ``tol`` under mesh halving is reported inconclusive.
    """
    negative_n(N)
    if mesh_size < 4:
        # the half mesh needs two cells for a second eigenvalue
        raise ValueError(f"mesh_size must be at least 4, got {mesh_size!r}")
    K = min_ricci_n(space, N, interior_grid(space.interval, 400)).K
    lam_half = _radial_lambda1(space, mesh_size // 2)
    lam = _radial_lambda1(space, mesh_size)
    notes = []
    if isinstance(space, WeightedLine):
        notes.append("advisory: noncompact weighted line (truncated Neumann problem)")
    else:
        probe = interior_grid(space.interval, 7, 0.1)
        if np.max(np.abs(space.psi.deriv(probe))) > 1e-12:
            notes.append("radial spectrum only; not claimed to be the full gap")
    bound = K * N / (N - 1.0)
    if abs(lam - lam_half) > tol:
        notes.append(f"mesh too coarse: lambda1 shifted by {abs(lam - lam_half)!r}")
        return EigenResult(lambda1=lam, bound=bound, passed=False,
                           K=K, status="inconclusive", note="; ".join(notes))
    if K <= 0:
        notes.append("K <= 0: bound vacuous")
        return EigenResult(lambda1=lam, bound=bound, passed=True, K=K,
                           status="vacuous", note="; ".join(notes))
    return EigenResult(lambda1=lam, bound=bound, passed=bool(lam >= bound - tol),
                       K=K, note="; ".join(notes))


def weighted_sum_certificate(base: Tuple[float, float], extra: Tuple[float, float],
                             n: int) -> Tuple[float, float]:
    """Curvature-dimension parameters of e^{-Psi} m when m carries (K2, N2)
    with N2 >= n and Psi is (K1, N1)-convex with N1 < -N2."""
    K2, N2 = base
    K1, N1 = extra
    if not N2 >= n:
        raise ValueError(f"base dimension parameter must be >= n={n}")
    if not N1 < -N2:
        raise ValueError("need N1 < -N2")
    return (K1 + K2, N1 + N2)


def product_certificate(cert1: Tuple[float, float], cert2: Tuple[float, float],
                        n2: int = 1) -> Tuple[float, float]:
    """Parameters of a Cartesian product: shared K, dimensions N1 + N2
    (N1 < -N2, N2 >= n2)."""
    K1, N1 = cert1
    K2, N2 = cert2
    if K1 != K2:
        raise ValueError("product rule needs the same K on both factors")
    if not N2 >= n2:
        raise ValueError(f"second factor needs N2 >= n2={n2}")
    if not N1 < -N2:
        raise ValueError("need N1 < -N2")
    return (K1, N1 + N2)


def product_direction_check(psi1: ScalarFunction1D, psi2: ScalarFunction1D,
                            N1: float, N2: float,
                            x_grid: Sequence[float], y_grid: Sequence[float],
                            tol: float = 1e-9) -> CheckReport:
    """Pointwise superadditivity of Ric_N on a product of two weighted lines.

    For unit v = (cos a, sin a) the margin is
    Ric_{N1+N2}(v) - Ric_{N1}(v1) - Ric_{N2}(v2), evaluated at 100 evenly
    spaced a in [0, pi/2]; nonnegativity is what the product rule rests on.
    """
    N = N1 + N2
    # axes: x, y, direction
    x = np.asarray(x_grid, dtype=float)[:, None, None]
    y = np.asarray(y_grid, dtype=float)[None, :, None]
    a = np.linspace(0.0, math.pi / 2.0, 100)[None, None, :]
    p1, h1 = psi1.deriv(x), psi1.deriv2(x)
    p2, h2 = psi2.deriv(y), psi2.deriv2(y)
    r1 = h1 - _grad_correction(p1, N1 - 1.0)
    r2 = h2 - _grad_correction(p2, N2 - 1.0)
    ca, sa = np.cos(a), np.sin(a)
    ric_prod = h1 * ca * ca + h2 * sa * sa - _grad_correction(p1 * ca + p2 * sa, N - 2.0)
    margins = ric_prod - r1 * ca * ca - r2 * sa * sa
    locations = np.stack(np.broadcast_arrays(x, y, a), axis=-1).reshape(-1, 3)
    return CheckReport.from_margins("product-directions", margins.ravel(), locations, tol)
