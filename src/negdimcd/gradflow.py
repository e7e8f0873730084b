"""Gradient curves of 1-D potentials and the inequalities they satisfy.

A curve solves xi' = -f'(xi) by a classical fixed-step fourth-order
integrator (determinism and simple error accounting; no adaptivity).  It
stops, with a note naming t and the cause, before the first step that is not
a descent step: a gradient above ``GRAD_CAP``, a step beyond RK4's stability
limit, or a stage point or endpoint outside the domain.  The checkers verify
the energy dissipation identity, the dimensional evolution variational
inequality in differential and integrated form, the regularizing
and continuity estimates it implies, and the expansion bound for Lipschitz
potentials.

"Almost all t" statements are replaced by "all sampled interior t"; the
differential checker adds its own discretization allowance to the tolerance
and reports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .comparison import negative_n, s, segment_limit
from .functions import ScalarFunction1D, exp_transform
from .report import CheckReport

__all__ = [
    "GradientCurve",
    "integrate_flow",
    "local_slope",
    "metric_speed",
    "verify_edi",
    "verify_evi",
    "verify_evi_classical",
    "verify_evi_integrated",
    "regularizing_bounds",
    "expansion_bound",
    "claim_convexity_margin",
]

GRAD_CAP = 1e8      # |f'| above which a curve stops
RK4_LIMIT = 2.785   # RK4's real-axis stability limit for step*|f''|


@dataclass
class GradientCurve:
    """Time-discretized trajectory of the flow xi' = -f'(xi)."""

    times: np.ndarray
    points: np.ndarray
    step: float
    note: str = ""

    def __post_init__(self):
        if len(self.times) != len(self.points):
            raise ValueError("times and points must align")
        if len(self.times) < 2:
            raise ValueError("curve needs at least two samples")
        if self.times[0] != 0.0 or np.any(np.diff(self.times) <= 0):
            raise ValueError("times must strictly increase from 0")

    def __len__(self) -> int:
        return len(self.times)

    def index_at(self, t: float) -> int:
        """Grid index closest to time t (must be within half a step)."""
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > 0.5 * self.step + 1e-12:
            raise ValueError(f"time {t!r} is not on the curve grid")
        return i


def _rk4_step(f: ScalarFunction1D, x: float, h: float, lo: float, hi: float):
    """One RK4 step of xi' = -f'(xi) from x: (endpoint, "") when it is a
    descent step, else (x, the cause)."""
    k1 = -float(f.deriv(x))
    z = h * abs(float(f.deriv2(x)))
    if not abs(k1) <= GRAD_CAP:
        return x, f"|f'| = {abs(k1)!r} is above the gradient cap {GRAD_CAP!r}"
    if not z <= RK4_LIMIT:
        return x, f"step*|f''| = {z!r} is beyond RK4's stability limit {RK4_LIMIT!r}"
    ks = [k1]
    for c in (0.5, 0.5, 1.0):
        y = x + c * h * ks[-1]
        if not (lo <= y <= hi and math.isfinite(y)):
            return x, f"a stage point {y!r} is outside the domain ({lo!r}, {hi!r})"
        ks.append(-float(f.deriv(y)))
    y = x + h / 6.0 * (ks[0] + 2.0 * ks[1] + 2.0 * ks[2] + ks[3])
    if not (lo <= y <= hi and math.isfinite(y)):
        return x, f"the endpoint {y!r} is outside the domain ({lo!r}, {hi!r})"
    return y, ""


def integrate_flow(f: ScalarFunction1D, x0: float, horizon: float, step: float,
                   domain: tuple[float, float] | None = None) -> GradientCurve:
    """Integrate the descent flow of f from x0 over [0, horizon].

    Classical RK4 with fixed step.  The curve stops before the first step it
    cannot take as a descent step, and the note names t and the cause:
    |f'(x)| above ``GRAD_CAP``, step*|f''(x)| beyond RK4's real-axis
    stability limit, or a stage point or the endpoint outside the domain.
    A stop before the first step raises ValueError with that note.
    """
    if not 0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step!r}")
    if not math.isfinite(horizon):
        raise ValueError(f"horizon must be finite, got {horizon!r}")
    n_steps = int(round(horizon / step))
    if n_steps < 1:
        raise ValueError("horizon shorter than one step")
    lo, hi = (-math.inf, math.inf) if domain is None else domain
    xs = [float(x0)]
    note = ""
    for i in range(n_steps):
        x, cause = _rk4_step(f, xs[-1], step, lo, hi)
        if cause:
            note = (f"curve stops before the step of {step!r} from t={i * step!r}, "
                    f"x={x!r}: {cause}")
            if i == 0:
                raise ValueError(note)
            break
        xs.append(x)
    times = np.arange(len(xs)) * step
    return GradientCurve(times=times, points=np.asarray(xs, dtype=float),
                         step=step, note=note)


def local_slope(f: ScalarFunction1D, x):
    """Local descending slope; equals |f'(x)| in the smooth 1-D model."""
    return np.abs(f.deriv(x))


def metric_speed(curve: GradientCurve, i):
    """|xi'| at sample(s) i by central differences (one-sided at the ends)."""
    t, p = curve.times, curve.points
    i = np.asarray(i)
    lo = np.maximum(i - 1, 0)
    hi = np.minimum(i + 1, len(curve) - 1)
    return np.abs((p[hi] - p[lo]) / (t[hi] - t[lo]))


def verify_edi(curve: GradientCurve, f: ScalarFunction1D, t_from: float,
               t_to: float, tol: float = 1e-6) -> CheckReport:
    """Energy dissipation identity between two on-grid times.

    The identity is two-sided, so the margin is minus the absolute residual
    of f(xi(t)) - f(xi(s)) + (1/2) * int (speed^2 + slope^2); the integral is
    a composite trapezoid on the curve grid.
    """
    i0, i1 = curve.index_at(t_from), curve.index_at(t_to)
    if not 0 < i0 < i1 < len(curve):
        raise ValueError("need 0 < t_from < t_to inside the curve horizon")
    seg = np.arange(i0, i1 + 1)
    integrand = metric_speed(curve, seg) ** 2 + local_slope(f, curve.points[seg]) ** 2
    integral = float(np.trapezoid(integrand, curve.times[seg]))
    drop = float(f(curve.points[i1])) - float(f(curve.points[i0]))
    resid = drop + 0.5 * integral
    return CheckReport.from_margins("edi", [-abs(resid)], [(t_from, t_to)], tol)


def _check_radius(dists: np.ndarray, K: float, N: float) -> None:
    limit = segment_limit(K, N)
    if np.any(dists >= limit):
        raise ValueError(
            f"distance to the reference point reaches pi*sqrt(N/K)={limit!r}")


def _sq_dist_halves(dists, K: float, N: float):
    """s_{K/N}(d/2)^2 at a distance or an array of distances."""
    return np.asarray(s(K / N, dists / 2.0), dtype=float) ** 2


def _evi_margins(curve, f, z, values_rhs, S, tol, name):
    """Shared reduction: margin_i = rhs_i - dS/dt_i, at tol + 5*step*max|f'|."""
    allowance = 5.0 * curve.step * float(np.max(local_slope(f, curve.points)))
    signs = np.sign(curve.points - z)
    t = curve.times
    dplus = (S[2:] - S[1:-1]) / (t[2:] - t[1:-1])
    dminus = (S[1:-1] - S[:-2]) / (t[1:-1] - t[:-2])
    # where the curve crosses the reference point the derivative is
    # one-sided: take the worse (larger) one
    dS = np.where(signs[:-2] * signs[2:] < 0, np.maximum(dplus, dminus),
                  (S[2:] - S[:-2]) / (t[2:] - t[:-2]))
    margins = values_rhs[1:-1] - dS
    times = t[1:-1]
    return CheckReport.from_margins(
        name, margins, times, tol + allowance,
        note=f"discretization allowance {allowance!r} added to tolerance",
        details={"times": times.tolist(), "margins": margins.tolist()})


def verify_evi(curve: GradientCurve, f: ScalarFunction1D, K: float, N: float,
               z: float, tol: float = 1e-6) -> CheckReport:
    """Differential evolution variational inequality at all interior samples.

    margin(t) = (N/2)(1 - f_N(z)/f_N(xi(t)))
                - d/dt[ s_{K/N}(d(xi(t),z)/2)^2 ] - K s_{K/N}(d(xi(t),z)/2)^2

    with the time derivative by central differences.  The reported tolerance
    is tol plus the discretization allowance 5*step*L_loc, where L_loc is the
    largest sampled gradient magnitude.
    """
    negative_n(N)
    fN = exp_transform(f, N)
    dists = np.abs(curve.points - z)
    _check_radius(dists, K, N)
    S = _sq_dist_halves(dists, K, N)
    ratio = float(fN(z)) / np.asarray(fN(curve.points), dtype=float)
    rhs = (N / 2.0) * (1.0 - ratio) - K * S
    return _evi_margins(curve, f, z, rhs, S, tol, "evi")


def verify_evi_classical(curve: GradientCurve, f: ScalarFunction1D, K: float,
                         z: float, tol: float = 1e-6) -> CheckReport:
    """Classical (dimension-free) EVI margin, scaled by 1/2 so that it is the
    exact limit of the dimensional margin as N -> -inf."""
    dists = np.abs(curve.points - z)
    S = dists**2 / 4.0
    vals = np.asarray(f(curve.points), dtype=float)
    rhs = 0.5 * (float(f(z)) - vals) - K * S
    return _evi_margins(curve, f, z, rhs, S, tol, "evi-classical")


def _expm1_over(K: float, dt: float) -> float:
    """(exp(K*dt) - 1)/K, read as dt when K = 0."""
    if K == 0.0:
        return dt
    return math.expm1(K * dt) / K


def verify_evi_integrated(curve: GradientCurve, f: ScalarFunction1D, K: float,
                          N: float, z: float, t0: float, t1: float,
                          tol: float = 1e-6) -> CheckReport:
    """Integrated form of the evolution variational inequality on [t0, t1].

    margin = N*(e^{K(t1-t0)}-1)/(2K) * (1 - f_N(z)/f_N(xi(t1)))
             - e^{K(t1-t0)} s_{K/N}(d(xi(t1),z)/2)^2
             + s_{K/N}(d(xi(t0),z)/2)^2.
    """
    negative_n(N)
    if not 0 <= t0 <= t1:
        raise ValueError("need 0 <= t0 <= t1")
    i0, i1 = curve.index_at(t0), curve.index_at(t1)
    fN = exp_transform(f, N)
    dists = np.abs(curve.points[i0:i1 + 1] - z)
    _check_radius(dists, K, N)
    S0 = _sq_dist_halves(abs(curve.points[i0] - z), K, N)
    S1 = _sq_dist_halves(abs(curve.points[i1] - z), K, N)
    dt = curve.times[i1] - curve.times[i0]
    ratio = float(fN(z)) / float(fN(curve.points[i1]))
    margin = (N * _expm1_over(K, dt) / 2.0 * (1.0 - ratio)
              - math.exp(K * dt) * S1 + S0)
    return CheckReport.from_margins("evi-integrated", [margin], [(t0, t1)], tol)


def regularizing_bounds(curve: GradientCurve, f: ScalarFunction1D, K: float,
                        N: float, mode: str, z: float | None = None,
                        t: float | None = None,
                        t0: float | None = None, t1: float | None = None,
                        inf_f: float | None = None,
                        tol: float = 1e-9) -> CheckReport:
    """Consequences of the integrated inequality.

    mode "regularity": f_N(z)/f_N(xi(t)) >= 1 + 2K/(N(e^{Kt}-1)) *
    s_{K/N}(d(xi(0),z)/2)^2 for a reference point z and time t > 0.

    mode "continuity": s_{K/N}(d(xi(t0),xi(t1))/2)^2 <=
    N(1-e^{K(t0-t1)})/(2K) * (1 - f_N(xi(t0))/inf f_N); requires a finite
    lower bound inf_f of the potential.
    """
    negative_n(N)
    fN = exp_transform(f, N)
    if mode == "regularity":
        if z is None or t is None:
            raise ValueError("mode 'regularity' needs z and t")
        i = curve.index_at(t)
        dists = np.abs(curve.points[: i + 1] - z)
        _check_radius(dists, K, N)
        S0 = _sq_dist_halves(abs(curve.points[0] - z), K, N)
        lhs = float(fN(z)) / float(fN(curve.points[i]))
        rhs = 1.0 + 2.0 / (N * _expm1_over(K, float(curve.times[i]))) * S0
        return CheckReport.from_margins("regularizing", [lhs - rhs], [(z, t)], tol)
    if mode == "continuity":
        if t0 is None or t1 is None or inf_f is None:
            raise ValueError("mode 'continuity' needs t0, t1 and inf_f")
        i0, i1 = curve.index_at(t0), curve.index_at(t1)
        dists = np.abs(curve.points[i0:i1 + 1] - curve.points[i0])
        _check_radius(dists, K, N)
        S = _sq_dist_halves(abs(curve.points[i1] - curve.points[i0]), K, N)
        inf_fN = math.exp(-inf_f / N)
        rhs = (N * (-_expm1_over(K, t0 - t1)) / 2.0
               * (1.0 - float(fN(curve.points[i0])) / inf_fN))
        return CheckReport.from_margins("continuity", [rhs - S], [(t0, t1)], tol)
    raise ValueError(f"unknown mode {mode!r}")


def expansion_bound(f: ScalarFunction1D, x: float, y: float, K: float, N: float,
                    L: float, t0: float, t1: float, step: float,
                    tol: float = 1e-9) -> CheckReport:
    """Expansion bound between two descent curves of a Lipschitz potential.

    With Theta = (2K + 4L^2/N)(t1 + sqrt(t1*t0) + t0)/3, the margin is

        2 e^{-Theta} ( d(x,y)^2/2 - N (sqrt(t1)-sqrt(t0))^2 (e^Theta-1)/Theta )
        - d(xi(t0), zeta(t1))^2.

    The claimed gradient bound L is audited along both trajectories and a
    violation is rejected with the offending point; a curve that stops
    before max(t0, t1) is rejected with its note.  Where e^{-Theta}
    overflows, the bound is +inf and so is the margin, with a note.
    """
    negative_n(N)
    if t0 < 0 or t1 < 0:
        raise ValueError("times must be nonnegative")
    horizon = max(t0, t1, step)
    xi = integrate_flow(f, x, horizon, step)
    zeta = integrate_flow(f, y, horizon, step)
    for curve in (xi, zeta):
        if curve.note:
            raise ValueError(curve.note)
        g = local_slope(f, curve.points)
        over = np.flatnonzero(g > L + 1e-12)
        if over.size:
            i = over[0]
            raise ValueError(f"|f'| = {float(g[i])!r} exceeds the declared bound "
                             f"{L!r} at x={float(curve.points[i])!r}")
    theta = (2.0 * K + 4.0 * L * L / N) * (t1 + math.sqrt(t1 * t0) + t0) / 3.0
    d0 = abs(x - y)
    dist = abs(xi.points[xi.index_at(t0)] - zeta.points[zeta.index_at(t1)])
    spread = 2.0 * N * (math.sqrt(t1) - math.sqrt(t0)) ** 2
    note = ""
    # (1 - e^-Theta)/Theta is finite for large Theta; e^-Theta overflows where the bound is +inf
    try:
        margin = d0 * d0 * math.exp(-theta) - spread * _expm1_over(-theta, 1.0) - dist * dist
    except OverflowError:
        margin, note = math.inf, f"bound is +inf: e^-Theta overflows at Theta={theta!r}"
    return CheckReport.from_margins("expansion", [margin], [(t0, t1)], tol, note=note)


def claim_convexity_margin(f: ScalarFunction1D, K: float, N: float, L: float,
                           grid: Sequence[float], tol: float = 1e-9) -> CheckReport:
    """Plain (K + L^2/N)-convexity implied by the dimensional bound plus the
    gradient bound |f'| <= L: margin(x) = f''(x) - K - L^2/N."""
    negative_n(N)
    x = np.asarray(grid, dtype=float)
    return CheckReport.from_margins("claim-convexity", f.deriv2(x) - (K + L * L / N),
                                    x, tol)
