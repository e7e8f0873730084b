"""Comparison functions of constant-curvature ODEs and distortion coefficients.

The primitives ``s`` and ``c`` solve u'' + kappa*u = 0 with s(0)=0, s'(0)=1,
c(0)=1, c'(0)=0.  The ratios ``sigma`` and ``tau`` are the distortion
coefficients used throughout the convexity and transport checkers; both obey
extended-real conventions (``t=0``, ``theta=0``, out-of-domain +inf) so that
callers never hit 0/0 or domain errors.  All functions accept floats or numpy
arrays and are pure.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["s", "c", "sigma", "tau", "g_combiner", "SERIES_THRESHOLD"]

# Below this value of |kappa|*theta^2 the closed-form branches lose digits to
# cancellation; a truncated Taylor series in u = kappa*theta^2 is exact to
# ~1e-30 there.
SERIES_THRESHOLD = 1e-6


def _s_series(kappa, theta):
    u = kappa * theta * theta
    return theta * (1.0 - u / 6.0 * (1.0 - u / 20.0 * (1.0 - u / 42.0)))


def _c_series(kappa, theta):
    u = kappa * theta * theta
    return 1.0 - u / 2.0 * (1.0 - u / 12.0 * (1.0 - u / 30.0))


def _comparison(kappa, theta, sine: bool):
    """s (sine) or c by the series, sin (kappa > 0) or sinh (kappa < 0) branch."""
    kappa = np.asarray(kappa, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if (theta < 0).any():
        raise ValueError("theta must be nonnegative")
    k_abs = np.abs(kappa)
    large = k_abs * theta * theta > SERIES_THRESHOLD
    rt = np.sqrt(k_abs)
    out = np.asarray(rt * theta)
    trig, hyp = (np.sin, np.sinh) if sine else (np.cos, np.cosh)
    trig(out, out=out, where=large & (kappa > 0))
    hyp(out, out=out, where=large & (kappa < 0))
    if sine:
        np.divide(out, rt, out=out, where=large)
    small = ~large
    if small.any():
        series = _s_series if sine else _c_series
        kappa, theta = np.broadcast_arrays(kappa, theta)
        out[small] = series(kappa[small], theta[small])
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


def sigma(kappa, t, theta):
    """Distortion coefficient s(kappa, t*theta) / s(kappa, theta).

    Conventions: sigma(kappa, t, 0) = t, and +inf once kappa > 0 and
    theta >= pi/sqrt(kappa) (out of the domain of the ratio).
    """
    kappa = np.asarray(kappa, dtype=float)
    t, theta = _t_and_theta(t, theta)
    zero = theta == 0
    out = np.asarray(s(kappa, t * theta))
    np.divide(out, s(kappa, theta), out=out, where=~zero)
    np.copyto(out, t, where=zero)
    np.copyto(out, np.inf,
              where=(kappa > 0) & (theta * np.sqrt(np.maximum(kappa, 0.0)) >= math.pi))
    return float(out) if out.ndim == 0 else out


def _pow_inv(x, exponent):
    # x**exponent for x > 0 via exp(exponent*log x); avoids real-power
    # ambiguity for the fractional negative exponents used with N < 0.
    return np.exp(exponent * np.log(x))


def tau(K, N, t, theta):
    """Dimensional distortion coefficient t^(1/N) * sigma_{K/(N-1)}^(t)(theta)^((N-1)/N).

    Requires N < 0.  Conventions: tau = 0 at t = 0, and +inf once K < 0 and
    theta >= pi*sqrt((N-1)/K).
    """
    if not N < 0:
        raise ValueError("N must be negative")
    K = np.asarray(K, dtype=float)
    t, theta = _t_and_theta(t, theta)
    sig = np.asarray(sigma(K / (N - 1.0), t, theta))
    # log 0 and inf * 0 at t = 0, replaced by the convention below
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(_pow_inv(t, 1.0 / N) * _pow_inv(sig, (N - 1.0) / N))
    np.copyto(out, np.inf, where=np.isinf(sig))
    np.copyto(out, 0.0, where=t == 0)
    return float(out) if out.ndim == 0 else out


def g_combiner(t, theta, eta, kappa):
    """log of the sigma-weighted combination of exp(theta) and exp(eta).

    Defined for kappa < pi^2 only; jointly convex in (theta, eta, kappa) for
    each fixed t, which is what the sum rule for convexity parameters rests on.
    """
    kappa = np.asarray(kappa, dtype=float)
    if np.any(kappa >= math.pi**2):
        raise ValueError("kappa must be below pi**2")
    t = np.asarray(t, dtype=float)
    if np.any((t < 0) | (t > 1)):
        raise ValueError("t must lie in [0, 1]")
    w0 = sigma(kappa, 1.0 - t, np.ones_like(kappa))
    w1 = sigma(kappa, t, np.ones_like(kappa))
    out = np.log(w0 * np.exp(theta) + w1 * np.exp(eta))
    return float(out) if out.ndim == 0 else out
