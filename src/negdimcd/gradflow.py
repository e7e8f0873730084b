"""Gradient curves of 1-D potentials and the inequalities they satisfy.

A curve solves xi' = -f'(xi) by a classical fixed-step fourth-order
integrator (determinism and simple error accounting; no adaptivity).  It
stops, with a note naming t and the cause, before the first step that is not
a descent step: a gradient above ``GRAD_CAP``, a step beyond RK4's stability
limit, or a stage point or endpoint outside the domain.  The stability test
takes the start points of up to 256 steps in one f'' call, and steps that
raise a floating-point error are replayed with the test at each step.  The
checkers verify the energy dissipation identity, the dimensional evolution
variational inequality in differential and integrated form, the regularizing
and continuity estimates it implies, and the expansion bound for Lipschitz
potentials.

"Almost all t" statements are replaced by "all sampled interior t".  The
differential inequality takes its time derivative from the flow equation
xi' = -f'(xi), so it is exact at each sample and needs no allowance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .comparison import below_segment_limit, c, negative_n, s
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
MAX_STEPS = 10**6   # RK4 steps one curve may take
_CHUNK = 256        # RK4 steps whose start points share one f'' call
_UNSTABLE = "step*|f''| = {!r} is beyond RK4's stability limit " + repr(RK4_LIMIT)


@dataclass
class GradientCurve:
    """Time-discretized trajectory of the flow xi' = -f'(xi); ``points[i]``
    is the sample at time ``times[i]`` = i*step."""

    points: np.ndarray
    step: float
    note: str = ""
    times: np.ndarray = field(init=False)

    def __post_init__(self):
        if len(self.points) < 2:
            raise ValueError("curve needs at least two samples")
        self.times = np.arange(len(self.points)) * self.step

    def __len__(self) -> int:
        return len(self.times)

    def index_at(self, t: float) -> int:
        """Index i of the sample at time t = i*step.  t/step may miss i by a
        few ulps, as a time rounded to the grid, round(t/step)*step, does."""
        k = float(t) / self.step
        i = round(k) if math.isfinite(k) else -1
        if not 0 <= i < len(self.times):
            raise ValueError(f"time {t!r} is outside the curve's span "
                             f"[0, {float(self.times[-1])!r}]")
        if abs(k - i) > 4.0 * math.ulp(k):
            raise ValueError(f"time {t!r} is not on the curve grid of step {self.step!r}")
        return i


def _rk4_steps(f: ScalarFunction1D, x: float, h: float, m: int, lo: float, hi: float,
               checked: bool):
    """Up to m RK4 steps of xi' = -f'(xi) from x, unchecked ones without the
    stability test: the points from x on, one a step, and the stop's cause or ""."""
    xs = [x]
    for _ in range(m):
        k1 = -float(f.deriv(x))
        z = h * abs(float(f.deriv2(x))) if checked else 0.0
        if not abs(k1) <= GRAD_CAP:
            return xs, f"|f'| = {abs(k1)!r} is above the gradient cap {GRAD_CAP!r}"
        if not z <= RK4_LIMIT:
            return xs, _UNSTABLE.format(z)
        # each stage evaluates f' only at a stage point inside the domain
        y = x + 0.5 * h * k1
        if lo <= y <= hi and math.isfinite(y):
            k2 = -float(f.deriv(y))
            y = x + 0.5 * h * k2
            if lo <= y <= hi and math.isfinite(y):
                k3 = -float(f.deriv(y))
                y = x + h * k3
                if lo <= y <= hi and math.isfinite(y):
                    k4 = -float(f.deriv(y))
                    y = x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                    if lo <= y <= hi and math.isfinite(y):
                        xs.append(x := y)
                        continue
                    return xs, f"the endpoint {y!r} is outside the domain ({lo!r}, {hi!r})"
        return xs, f"a stage point {y!r} is outside the domain ({lo!r}, {hi!r})"
    return xs, ""


def integrate_flow(f: ScalarFunction1D, x0: float, horizon: float, step: float,
                   domain: tuple[float, float] | None = None) -> GradientCurve:
    """Integrate the descent flow of f from x0 over [0, horizon].

    Classical RK4 with fixed step.  The curve stops before the first step it
    cannot take as a descent step, and the note names t and the cause:
    |f'(x)| above ``GRAD_CAP``, step*|f''(x)| beyond RK4's real-axis
    stability limit, or a stage point or the endpoint outside the domain.
    One step's causes rank in that order.  A stop before the first step
    raises ValueError with that note, and so do an x0 that is not a finite
    point of the domain and a horizon/step above ``MAX_STEPS``.

    The stability test takes the start points of up to ``_CHUNK`` steps in
    one f'' call; it relies on f'' of an array being f'' of each element, bit
    for bit.  Those steps run with numpy's errors raised, save the ignored
    ones; if they raise, they are replayed with the test at each step.  So
    points, notes, errors and warnings are those of the step-by-step test.
    """
    if not 0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step!r}")
    if not math.isfinite(horizon):
        raise ValueError(f"horizon must be finite, got {horizon!r}")
    n_steps = int(round(horizon / step))
    if n_steps < 1:
        raise ValueError("horizon shorter than one step")
    if n_steps > MAX_STEPS:
        raise ValueError(f"horizon/step = {horizon!r}/{step!r} is more than "
                         f"{MAX_STEPS} RK4 steps")
    lo, hi = (-math.inf, math.inf) if domain is None else domain
    x0 = float(x0)
    if not (lo <= x0 <= hi and math.isfinite(x0)):
        raise ValueError(f"x0 must be finite and in the domain ({lo!r}, {hi!r}), got {x0!r}")
    strict = {k: "ignore" if v == "ignore" else "raise" for k, v in np.geterr().items()}
    xs, note = [x0], ""
    for i in range(0, n_steps, _CHUNK):
        m = min(_CHUNK, n_steps - i)
        try:
            with np.errstate(**strict):
                pts, cause = _rk4_steps(f, xs[-1], step, m, lo, hi, False)
                # f'' at a stopped step's start too; only the cap's cause beats its test
                z = step * np.abs(f.deriv2(np.array(pts if cause else pts[:-1])))
        except Exception:  # the checked steps raise it again, or never meet it
            pts, cause = _rk4_steps(f, xs[-1], step, m, lo, hi, True)
        else:
            over = np.flatnonzero(~(z[:len(z) - cause.startswith("|f'|")] <= RK4_LIMIT))
            if over.size:
                pts, cause = pts[:over[0] + 1], _UNSTABLE.format(float(z[over[0]]))
        xs.extend(pts[1:])
        if cause:
            note = (f"curve stops before the step of {step!r} from "
                    f"t={(i + len(pts) - 1) * step!r}, x={xs[-1]!r}: {cause}")
            if len(xs) == 1:
                raise ValueError(note)
            break
    return GradientCurve(points=np.asarray(xs, dtype=float), step=step, note=note)


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


def _sq_dist_halves(dists, K: float, N: float):
    """s_{K/N}(d/2)^2 at a distance or an array of distances."""
    return np.asarray(s(K / N, dists / 2.0), dtype=float) ** 2


def _evi_margins(curve, margins, tol, name):
    """Shared reduction of the margins rhs - dS/dt at the interior samples."""
    margins, times = margins[1:-1], curve.times[1:-1]
    return CheckReport.from_margins(name, margins, times, tol, details={
        "times": times, "margins": margins})


def verify_evi(curve: GradientCurve, f: ScalarFunction1D, K: float, N: float,
               z: float, tol: float = 1e-6) -> CheckReport:
    """Differential evolution variational inequality at all interior samples.

    margin(t) = (N/2)(1 - f_N(z)/f_N(xi(t)))
                - d/dt[ s_{K/N}(d(xi(t),z)/2)^2 ] - K s_{K/N}(d(xi(t),z)/2)^2

    with the exact time derivative from the flow equation xi' = -f'(xi):
    d/dt s(d/2)^2 = s(d/2) c(d/2) sign(xi - z) xi'.
    """
    negative_n(N)
    fN = exp_transform(f, N)
    x = curve.points
    dists = below_segment_limit(np.abs(x - z), K, N)
    sk = s(K / N, dists / 2.0)
    dS = sk * c(K / N, dists / 2.0) * np.sign(x - z) * -f.deriv(x)
    ratio = float(fN(z)) / np.asarray(fN(x), dtype=float)
    rhs = (N / 2.0) * (1.0 - ratio) - K * sk**2
    return _evi_margins(curve, rhs - dS, tol, "evi")


def verify_evi_classical(curve: GradientCurve, f: ScalarFunction1D, K: float,
                         z: float, tol: float = 1e-6) -> CheckReport:
    """Classical (dimension-free) EVI margin, scaled by 1/2 so that it is the
    exact limit of the dimensional margin as N -> -inf; d/dt (xi - z)^2/4 is
    (xi - z)/2 xi' with xi' = -f'(xi)."""
    x = curve.points
    dS = (x - z) / 2.0 * -f.deriv(x)
    rhs = 0.5 * (float(f(z)) - np.asarray(f(x), dtype=float)) - K * (x - z) ** 2 / 4.0
    return _evi_margins(curve, rhs - dS, tol, "evi-classical")


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
        raise ValueError(f"need 0 <= t0 <= t1, got t0={t0!r} and t1={t1!r}")
    i0, i1 = curve.index_at(t0), curve.index_at(t1)
    fN = exp_transform(f, N)
    below_segment_limit(np.abs(curve.points[i0:i1 + 1] - z), K, N)
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
        if z is None or t is None or not t > 0:
            raise ValueError("mode 'regularity' needs z and t > 0")
        i = curve.index_at(t)
        below_segment_limit(np.abs(curve.points[: i + 1] - z), K, N)
        S0 = _sq_dist_halves(abs(curve.points[0] - z), K, N)
        lhs = float(fN(z)) / float(fN(curve.points[i]))
        rhs = 1.0 + 2.0 / (N * _expm1_over(K, float(curve.times[i]))) * S0
        return CheckReport.from_margins("regularizing", [lhs - rhs], [(z, t)], tol)
    if mode == "continuity":
        if t0 is None or t1 is None or inf_f is None:
            raise ValueError("mode 'continuity' needs t0, t1 and inf_f")
        i0, i1 = curve.index_at(t0), curve.index_at(t1)
        below_segment_limit(np.abs(curve.points[i0:i1 + 1] - curve.points[i0]), K, N)
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
