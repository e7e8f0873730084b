"""Comparison functions of constant-curvature ODEs and distortion coefficients.

The primitives ``s`` and ``c`` solve u'' + kappa*u = 0 with s(0)=0, s'(0)=1,
c(0)=1, c'(0)=0.  The ratios ``sigma`` and ``tau`` are the distortion
coefficients used throughout the convexity and transport checkers; both obey
extended-real conventions (``t=0``, ``theta=0``, out-of-domain +inf) so that
callers never hit 0/0 or domain errors.  All functions accept floats or numpy
arrays and are pure.  ``negative_n`` and ``below_segment_limit`` state, for every
module, the range of N and the segment lengths the K < 0 inequalities control.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["s", "c", "sigma", "tau", "g_combiner", "SERIES_THRESHOLD"]

# Below this value of |kappa|*theta^2 the closed-form branches lose digits to
# cancellation; a truncated Taylor series in u = kappa*theta^2 is exact to
# ~1e-30 there.
SERIES_THRESHOLD = 1e-6


def _s_defect(u):
    """1 - s(kappa, theta)/theta by its series in u = kappa*theta^2."""
    return u / 6.0 * (1.0 - u / 20.0 * (1.0 - u / 42.0))


def _s_series(kappa, theta):
    return theta * (1.0 - _s_defect(kappa * theta * theta))


def _c_series(kappa, theta):
    u = kappa * theta * theta
    return 1.0 - u / 2.0 * (1.0 - u / 12.0 * (1.0 - u / 30.0))


def _comparison(kappa, theta, sine: bool):
    """s (sine) or c by the series, sin (kappa > 0) or sinh (kappa < 0) branch."""
    kappa = np.asarray(kappa, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if (theta < 0).any():
        raise ValueError("theta must be nonnegative")
    trig, hyp = (np.sin, np.sinh) if sine else (np.cos, np.cosh)
    if kappa.ndim == 0:
        # one buffer holds |kappa|*theta^2, sqrt|kappa|*theta, then the value;
        # only the ufunc of kappa's sign runs
        rt = math.sqrt(abs(kappa))
        out = np.multiply(abs(kappa), theta, out=np.empty(theta.shape))
        out *= theta
        large = out > SERIES_THRESHOLD
        np.multiply(rt, theta, out=out)
        (trig if kappa > 0 else hyp)(out, out=out, where=large)
    else:
        k_abs = np.abs(kappa)
        large = k_abs * theta * theta > SERIES_THRESHOLD
        rt = np.sqrt(k_abs)
        out = np.asarray(rt * theta)
        trig(out, out=out, where=large & (kappa > 0))
        hyp(out, out=out, where=large & (kappa < 0))
    if sine:
        np.divide(out, rt, out=out, where=large)
    small = np.flatnonzero(~large)
    if small.size:
        out.flat[small] = (_s_series if sine else _c_series)(
            *(np.broadcast_to(a, out.shape).flat[small] for a in (kappa, theta)))
    return float(out) if out.ndim == 0 else out


def s(kappa, theta):
    """sin-like solution: sin(sqrt(k)x)/sqrt(k), x, or sinh(sqrt(-k)x)/sqrt(-k).

    Continuous in ``kappa`` through 0 (series branch for |kappa|*theta^2 small).
    Requires theta >= 0.
    """
    return _comparison(kappa, theta, True)


def c(kappa, theta):
    """cos-like solution: cos(sqrt(k)x), 1, or cosh(sqrt(-k)x).  c(kappa,0)=1."""
    return _comparison(kappa, theta, False)


def _t_and_theta(t, theta):
    """t in [0, 1] and theta >= 0 as float arrays."""
    t = np.asarray(t, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if ((t < 0) | (t > 1)).any():
        raise ValueError("t must lie in [0, 1]")
    if (theta < 0).any():
        raise ValueError("theta must be nonnegative")
    return t, theta


def _distortion(kappa, t, theta, power):
    """t * (s(kappa, t*theta) / (t * s(kappa, theta)))**power, +inf out of the
    domain: sigma at power 1, tau at (N-1)/N.  On the series branch it is
    t * exp(power*L), L the log of the series ratio by log1p, so t exactly at
    kappa = 0, where (t*theta)/theta can miss t by an ulp; and tau and
    sigma_{K/N}, which agree there to first order in K, come out equal
    rather than an ulp apart in either order."""
    kappa = np.asarray(kappa, dtype=float)
    t, theta = _t_and_theta(t, theta)

    def from_log(k, tt, th):
        x = tt * th
        return tt * np.exp(power * (np.log1p(-_s_defect(k * x * x))
                                    - np.log1p(-_s_defect(k * th * th))))

    if kappa.ndim == 0 and kappa == 0 and np.isfinite(theta).all():
        # from_log's every log1p is -0.0 and every exp 1: t itself
        return np.broadcast_to(t, np.broadcast_shapes(t.shape, theta.shape)).copy()
    series = np.abs(kappa) * theta * theta <= SERIES_THRESHOLD
    if series.all():
        out = np.asarray(from_log(kappa, t, theta))
    else:
        out = np.asarray(s(kappa, t * theta))
        np.divide(out, s(kappa, theta), out=out, where=~series)
        if power != 1.0:
            # t * exp(power*log(out/t)) in out's buffer, which avoids real-power
            # ambiguity for negative N; 0/0 at t = 0, which tau replaces
            with np.errstate(divide="ignore", invalid="ignore"):
                out /= t
                np.log(out, out=out)
                out *= power
                np.exp(out, out=out)
                np.multiply(t, out, out=out)
        if series.any():
            # series spans out's trailing axes: index its columns, not a full-size
            # mask; contiguous gathers run the loops, NaN signs included, of a flat one
            cols = np.nonzero(np.broadcast_to(series, out.shape[out.ndim - series.ndim:]))
            at = (Ellipsis, *cols)
            out[at] = from_log(*(np.ascontiguousarray(np.broadcast_to(a, out.shape)[at])
                                 for a in (kappa, t, theta)))
    np.copyto(out, np.inf,
              where=(kappa > 0) & (theta * np.sqrt(np.maximum(kappa, 0.0)) >= math.pi))
    return out


def sigma(kappa, t, theta):
    """Distortion coefficient s(kappa, t*theta) / s(kappa, theta).

    Conventions: sigma(kappa, t, 0) = t, and +inf once kappa > 0 and
    theta >= pi/sqrt(kappa) (out of the domain of the ratio).
    """
    out = _distortion(kappa, t, theta, 1.0)
    return float(out) if out.ndim == 0 else out


def negative_n(N):
    """N when -inf < N < 0, the range of the dimension parameter that every
    checker takes; else ValueError."""
    if not -math.inf < N < 0:
        raise ValueError(f"N must be negative and finite, got {N!r}")
    return N


def segment_limit(K, N):
    """Length pi*sqrt(N/K) below which the (K, N) inequalities with N < 0
    control a segment when K < 0; +inf when K >= 0."""
    return math.pi * math.sqrt(N / K) if K < 0 else math.inf


def below_segment_limit(lengths, K, N):
    """``lengths`` (a numpy scalar or array) when each lies below
    segment_limit(K, N); else ValueError naming the longest."""
    limit = segment_limit(K, N)
    if np.count_nonzero(lengths >= limit):
        raise ValueError(
            f"segment length {float(np.max(lengths))!r} reaches "
            f"pi*sqrt(N/K)={limit!r}; the K<0 inequalities control shorter "
            "segments only")
    return lengths


def tau(K, N, t, theta):
    """Dimensional distortion coefficient t^(1/N) * sigma_{K/(N-1)}^(t)(theta)^((N-1)/N).

    Requires -inf < N < 0.  Conventions: tau = 0 at t = 0, and +inf once
    K < 0 and theta >= pi*sqrt((N-1)/K).
    """
    negative_n(N)
    out = _distortion(np.asarray(K, dtype=float) / (N - 1.0), t, theta, (N - 1.0) / N)
    np.copyto(out, 0.0, where=np.asarray(t) == 0)
    return float(out) if out.ndim == 0 else out


def g_combiner(t, theta, eta, kappa):
    """log of the sigma-weighted combination of exp(theta) and exp(eta).

    Defined for kappa < pi^2 only; jointly convex in (theta, eta, kappa) for
    each fixed t, which is what the sum rule for convexity parameters rests on.
    """
    kappa = np.asarray(kappa, dtype=float)
    if np.any(kappa >= math.pi**2):
        raise ValueError("kappa must be below pi**2")
    t, kappa = np.broadcast_arrays(np.asarray(t, dtype=float), kappa)
    w = sigma(kappa, np.stack((1.0 - t, t)), np.ones_like(kappa))
    out = np.log(w[0] * np.exp(theta) + w[1] * np.exp(eta))
    return float(out) if out.ndim == 0 else out
