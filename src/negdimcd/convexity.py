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

from .comparison import below_segment_limit, c, negative_n, s, segment_limit, sigma
from .functions import ScalarFunction1D, as_float, exp_transform
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
    with np.errstate(over="ignore", invalid="ignore"):
        margins = np.where(undefined, -math.inf,
                           np.where(gap == 0, 0.0, np.exp(-fx / p.N) / -p.N * gap))
    note = ""
    if undefined.any():
        bad = float(x[np.flatnonzero(undefined)[0]])
        note = f"second derivative undefined at x={bad!r}"
    return CheckReport.from_margins("pointwise", margins, x, tol, note=note)


def geodesic_margin(f: ScalarFunction1D, K: float, N: float, x0, x1, t):
    """Signed margin of the distortion inequality along segments x0 -> x1.

    Oriented so that >= 0 means the (K, N) inequality holds at parameter t;
    for N > 0 the inequality reverses and the sign convention follows it.
    Is +inf where an out-of-domain coefficient makes the claim trivial.
    ``x0``, ``x1`` and ``t`` are scalars or arrays broadcast against each
    other; f_N is evaluated at the ends on their own shape.
    """
    if N == 0:
        raise ValueError("N must be nonzero")
    fN = exp_transform(f, N)
    d, t = np.broadcast_arrays(abs(x1 - x0), np.asarray(t, dtype=float))
    # the coefficients at 1 - t and at t along a leading axis
    w = sigma(K / N, np.stack((1.0 - t, t)), d)
    combo = w[0] * fN(x0) + w[1] * fN(x1)
    mid = fN((1.0 - t) * x0 + t * x1)
    margin = np.where(np.isinf(w).any(axis=0), math.inf,
                      combo - mid if N < 0 else mid - combo)
    return float(margin) if margin.ndim == 0 else margin


def check_geodesic(f: ScalarFunction1D, p: ConvexityParams, x0, x1,
                   t_grid: Sequence[float], tol: float = TOL_ANALYTIC) -> CheckReport:
    """Segment criterion: sigma-weighted endpoint combination dominates f_N.

    ``x0`` and ``x1`` are the ends of one segment or equal-length arrays of
    ends; the margins of every segment at every t reduce to one report.
    """
    x0, x1 = as_float(x0), as_float(x1)
    below_segment_limit(abs(x1 - x0), p.K, p.N)
    t = np.asarray(t_grid, dtype=float)
    # t along the first axis: the transpose lists the margins segment by segment
    margins = geodesic_margin(f, p.K, p.N, x0, x1, t[:, None]).T.ravel()
    locations = np.column_stack([np.repeat(x0, t.size), np.repeat(x1, t.size),
                                 np.tile(t, x0.size)])
    return CheckReport.from_margins("geodesic", margins, locations, tol)


def check_derivative(f: ScalarFunction1D, p: ConvexityParams, x0, x1,
                     tol: float = TOL_ANALYTIC) -> CheckReport:
    """Endpoint-derivative criterion along segments x0 -> x1 (one, or
    equal-length arrays of ends).

    Margin: f_N(x1) - c_{K/N}(d) f_N(x0) - (s_{K/N}(d)/d) * (f_N o gamma)'(0).
    Its terms grow like exp(sqrt(|K/N|) d) f_N(x0), so each margin passes
    when it is at least -tol times the largest of 1 and their absolute values.
    """
    x0, x1 = as_float(x0), as_float(x1)
    d = abs(x1 - x0)
    if np.count_nonzero(d) < d.size:
        raise ValueError("x0 and x1 must differ (nonconstant segment required)")
    below_segment_limit(d, p.K, p.N)
    fN = exp_transform(f, p.N)
    kappa = p.K / p.N
    end, start = fN(x1), c(kappa, d) * fN(x0)
    slope = s(kappa, d) / d * (fN.deriv(x0) * (x1 - x0))
    scale = np.maximum(np.maximum(abs(end), abs(start)), np.maximum(abs(slope), 1.0))
    return CheckReport.from_margins("derivative", (end - start - slope).reshape(-1),
                                    np.asarray([x0, x1]).reshape(2, -1).T, tol,
                                    scale=scale)


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
            fn=lambda x: -N * np.log(np.cosh(w * as_float(x))),
            d1=lambda x: -N * w * np.tanh(w * as_float(x)),
            d2=lambda x: -N * w * w / np.square(np.cosh(w * as_float(x))),
            name="-N*log(cosh(w*x))")
        return f, (-math.inf, math.inf)
    if kind == "b":
        if not K > 0:
            raise ValueError("kind 'b' requires K > 0")
        w = math.sqrt(-K / N)
        f = ScalarFunction1D(
            fn=lambda x: -N * np.log(np.sinh(w * as_float(x))),
            d1=lambda x: -N * w / np.tanh(w * as_float(x)),
            d2=lambda x: N * w * w / np.square(np.sinh(w * as_float(x))),
            name="-N*log(sinh(w*x))")
        return f, (0.0, math.inf)
    if kind == "c":
        if K != 0:
            raise ValueError("kind 'c' requires K = 0")
        f = ScalarFunction1D(
            fn=lambda x: -N * np.log(as_float(x)),
            d1=lambda x: -N / as_float(x),
            d2=lambda x: N / np.square(as_float(x)),
            name="-N*log(x)")
        return f, (0.0, math.inf)
    if kind == "d":
        if not K < 0:
            raise ValueError("kind 'd' requires K < 0")
        w = math.sqrt(K / N)
        half = 0.5 * math.pi / w
        f = ScalarFunction1D(
            fn=lambda x: -N * np.log(np.cos(w * as_float(x))),
            d1=lambda x: N * w * np.tan(w * as_float(x)),
            d2=lambda x: N * w * w / np.square(np.cos(w * as_float(x))),
            name="-N*log(cos(w*x))")
        return f, (-half, half)
    raise ValueError(f"unknown kind {kind!r}; expected one of a, b, c, d")
