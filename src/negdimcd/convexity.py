"""Convexity checks for the dimensional parameter pair (K, N) with N < 0.

The central object is f_N(x) = exp(-f(x)/N).  Three equivalent criteria are
implemented: a pointwise Hessian bound, a distortion-coefficient inequality
along straight segments, and a first-derivative inequality at a segment
endpoint.  The calculus rules (scaling, shifts, sums, parameter monotonicity)
and the four equality-case example families live here as well.

Geodesics are realized on Euclidean intervals only, where minimal geodesics
are unique straight segments; strong and plain convexity therefore coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .comparison import c, negative_n, s, segment_limit, sigma
from .functions import ScalarFunction1D, exp_transform
from .report import CheckReport

__all__ = [
    "ConvexityParams",
    "bakry_emery",
    "check_pointwise",
    "check_geodesic",
    "check_derivative",
    "geodesic_margin",
    "scale_shift",
    "sum_rule",
    "mono_rule",
    "example_function",
    "interior_grid",
    "TOL_ANALYTIC",
]

TOL_ANALYTIC = 1e-9


@dataclass(frozen=True)
class ConvexityParams:
    """Curvature bound K, negative effective dimension N, working interval."""

    K: float
    N: float
    domain: Tuple[float, float]

    def __post_init__(self):
        negative_n(self.N)
        lo, hi = self.domain
        if not lo < hi:
            raise ValueError("domain must be a nonempty open interval")

    def radius_limit(self) -> float:
        """Largest admissible segment length (pi*sqrt(N/K) when K < 0)."""
        return segment_limit(self.K, self.N)


def interior_grid(domain: Tuple[float, float], n: int,
                  margin: float = 1e-6) -> np.ndarray:
    """Uniform grid clamped a relative ``margin`` inside the open interval."""
    lo, hi = domain
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("interior_grid needs a bounded interval")
    pad = (hi - lo) * margin
    return np.linspace(lo + pad, hi - pad, n)


def bakry_emery(f: ScalarFunction1D, N: float, x) -> np.ndarray:
    """The Bakry-Emery term f'' - f'^2/N at the points x.

    For N < 0 the Hessian criterion reads f_N'' + (K/N) f_N =
    (f_N/|N|) (bakry_emery - K), and the weighted Ricci curvature of a line
    with weight exp(-psi) is bakry_emery(psi, N - 1, x).
    """
    x = np.asarray(x, dtype=float)
    d1 = f.deriv(x)
    return f.deriv2(x) - d1 * d1 / N


def check_pointwise(f: ScalarFunction1D, p: ConvexityParams,
                    grid: Sequence[float], tol: float = TOL_ANALYTIC) -> CheckReport:
    """Hessian criterion: f_N''(x) + (K/N) f_N(x) >= 0 on the grid."""
    x = np.asarray(grid, dtype=float)
    fx = f(x)
    be = bakry_emery(f, p.N, x)
    gap = be - p.K
    # f_N = exp(-f/N) > 0 may overflow to inf: the margin keeps the sign of
    # be - K there, and is exactly 0 where be == K
    undefined = ~np.isfinite(be) | np.isnan(fx)
    margins = np.where(undefined, -math.inf,
                       np.where(gap == 0, 0.0, np.exp(-fx / p.N) / -p.N * gap))
    note = ""
    if undefined.any():
        bad = float(x[np.flatnonzero(undefined)[0]])
        note = f"second derivative undefined at x={bad!r}"
    return CheckReport.from_margins("pointwise", margins, x, tol, note=note)


def geodesic_margin(f: ScalarFunction1D, K: float, N: float,
                    x0: float, x1: float, t):
    """Signed margin of the distortion inequality along the segment x0 -> x1.

    Oriented so that >= 0 means the (K, N) inequality holds at parameter t;
    for N > 0 the inequality reverses and the sign convention follows it.
    Is +inf where an out-of-domain coefficient makes the claim trivial.
    ``t`` may be an array of parameters.
    """
    if N == 0:
        raise ValueError("N must be nonzero")
    d = abs(x1 - x0)
    fN = exp_transform(f, N)
    t = np.asarray(t, dtype=float)
    w0 = sigma(K / N, 1.0 - t, d)
    w1 = sigma(K / N, t, d)
    combo = w0 * float(fN(x0)) + w1 * float(fN(x1))
    mid = fN((1.0 - t) * x0 + t * x1)
    margin = np.where(np.isinf(w0) | np.isinf(w1), math.inf,
                      combo - mid if N < 0 else mid - combo)
    return float(margin) if margin.ndim == 0 else margin


def check_geodesic(f: ScalarFunction1D, p: ConvexityParams, x0: float, x1: float,
                   t_grid: Sequence[float], tol: float = TOL_ANALYTIC) -> CheckReport:
    """Segment criterion: sigma-weighted endpoint combination dominates f_N."""
    d = abs(x1 - x0)
    if d >= p.radius_limit():
        raise ValueError(
            f"segment length {d!r} reaches pi*sqrt(N/K)={p.radius_limit()!r}; "
            "the K<0 inequality controls shorter segments only")
    t = np.asarray(t_grid, dtype=float)
    margins = geodesic_margin(f, p.K, p.N, x0, x1, t)
    locations = np.column_stack([np.full_like(t, x0), np.full_like(t, x1), t])
    return CheckReport.from_margins("geodesic", margins, locations, tol)


def check_derivative(f: ScalarFunction1D, p: ConvexityParams, x0: float,
                     x1: float, tol: float = TOL_ANALYTIC) -> CheckReport:
    """Endpoint-derivative criterion along the segment x0 -> x1.

    Margin: f_N(x1) - c_{K/N}(d) f_N(x0) - (s_{K/N}(d)/d) * (f_N o gamma)'(0).
    """
    d = abs(x1 - x0)
    if d == 0:
        raise ValueError("x0 and x1 must differ (nonconstant segment required)")
    if d >= p.radius_limit():
        raise ValueError(
            f"segment length {d!r} reaches pi*sqrt(N/K)={p.radius_limit()!r}")
    fN = exp_transform(f, p.N)
    kappa = p.K / p.N
    dir_deriv = float(fN.deriv(x0)) * (x1 - x0)
    margin = float(fN(x1)) - c(kappa, d) * float(fN(x0)) - s(kappa, d) / d * dir_deriv
    return CheckReport.from_margins("derivative", [margin], [(x0, x1)], tol)


def scale_shift(K: float, N: float, scale: float, shift: float) -> Tuple[float, float]:
    """Parameters for scale*f + shift: scaling maps (K, N) -> (scale*K, scale*N),
    adding a constant leaves them unchanged."""
    if not scale > 0:
        raise ValueError("scale must be positive")
    del shift  # a constant offset multiplies f_N by a constant only
    return (scale * K, scale * N)


def sum_rule(K1: float, N1: float, K2: float, N2: float) -> Tuple[float, float]:
    """Parameters for f1 + f2 when f1 is (K1, N1)-convex (N1 < 0) and f2 is
    strongly (K2, N2)-convex with N2 > 0 and N1 < -N2."""
    if not (N1 < 0 and N2 > 0):
        raise ValueError("need N1 < 0 and N2 > 0")
    if not N1 < -N2:
        raise ValueError(
            "need N1 < -N2: outside that range the sum rule fails, e.g. "
            "f2(x) = -2*log(x) satisfies the (0, 2) inequality on (0, inf) "
            "while 0 + f2 violates the (0, 1) one")
    return (K1 + K2, N1 + N2)


def mono_rule(K: float, N: float, K_new: float, N_new: float) -> bool:
    """Whether (K, N)-convexity with N < 0 implies (K_new, N_new)-convexity:
    true iff K_new <= K and N_new in [N, 0)."""
    negative_n(N)
    return K_new <= K and N <= N_new < 0


def example_function(kind: str, K: float, N: float) -> Tuple[ScalarFunction1D, Tuple[float, float]]:
    """Equality-case (K, N)-convex families on intervals, with analytic derivatives.

    kind "a": -N*log(cosh(x*sqrt(-K/N))) on R, K > 0.
    kind "b": -N*log(sinh(x*sqrt(-K/N))) on (0, inf), K > 0.
    kind "c": -N*log(x) on (0, inf), K = 0.
    kind "d": -N*log(cos(x*sqrt(K/N))) on (-L, L), L = (pi/2)*sqrt(N/K), K < 0.
    """
    negative_n(N)
    if kind == "a":
        if not K > 0:
            raise ValueError("kind 'a' requires K > 0")
        w = math.sqrt(-K / N)
        f = ScalarFunction1D(
            fn=lambda x: -N * np.log(np.cosh(w * np.asarray(x, dtype=float))),
            d1=lambda x: -N * w * np.tanh(w * np.asarray(x, dtype=float)),
            d2=lambda x: -N * w * w / np.cosh(w * np.asarray(x, dtype=float)) ** 2,
            name="-N*log(cosh(w*x))")
        return f, (-math.inf, math.inf)
    if kind == "b":
        if not K > 0:
            raise ValueError("kind 'b' requires K > 0")
        w = math.sqrt(-K / N)
        f = ScalarFunction1D(
            fn=lambda x: -N * np.log(np.sinh(w * np.asarray(x, dtype=float))),
            d1=lambda x: -N * w / np.tanh(w * np.asarray(x, dtype=float)),
            d2=lambda x: N * w * w / np.sinh(w * np.asarray(x, dtype=float)) ** 2,
            name="-N*log(sinh(w*x))")
        return f, (0.0, math.inf)
    if kind == "c":
        if K != 0:
            raise ValueError("kind 'c' requires K = 0")
        f = ScalarFunction1D(
            fn=lambda x: -N * np.log(np.asarray(x, dtype=float)),
            d1=lambda x: -N / np.asarray(x, dtype=float),
            d2=lambda x: N / np.asarray(x, dtype=float) ** 2,
            name="-N*log(x)")
        return f, (0.0, math.inf)
    if kind == "d":
        if not K < 0:
            raise ValueError("kind 'd' requires K < 0")
        w = math.sqrt(K / N)
        half = 0.5 * math.pi / w
        f = ScalarFunction1D(
            fn=lambda x: -N * np.log(np.cos(w * np.asarray(x, dtype=float))),
            d1=lambda x: N * w * np.tan(w * np.asarray(x, dtype=float)),
            d2=lambda x: N * w * w / np.cos(w * np.asarray(x, dtype=float)) ** 2,
            name="-N*log(cos(w*x))")
        return f, (-half, half)
    raise ValueError(f"unknown kind {kind!r}; expected one of a, b, c, d")
