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
# the spectral gap's Lanczos solve: the Ritz residual it stops at, relative
# to the eigenvalue, and the steps it may take before the gap is inconclusive
_RITZ_RTOL = 1e-14
_LANCZOS_STEPS = 64


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

    psi = curv*x**2/2 + log(sqrt(2*pi/curv)) as an expression tree, truncated to
    |x| <= radius standard deviations; the lost tail mass is below 1e-14 at the default.
    """
    if not 0 < curv < math.inf:
        raise ValueError(f"curv must be positive and finite, got {curv!r}")
    sd = 1.0 / math.sqrt(curv)
    c0 = 0.5 * math.log(2.0 * math.pi / curv)
    # imported here: importing negdimcd itself does not load the compiler
    from .expr import compile_expr
    psi = compile_expr(f"{float(curv)!r}*x**2/2 + {c0!r}")
    return WeightedLine((-radius * sd, radius * sd), psi)


def power_weight_line(exponent: float, lo: float, hi: float) -> WeightedLine:
    """Half-line fragment with weight x**exponent: psi = -exponent*log(x), an
    expression tree."""
    if not (math.isfinite(exponent) and 0 < lo < hi):
        raise ValueError(f"need a finite exponent and 0 < lo < hi for a power weight, "
                         f"got exponent={exponent!r}, lo={lo!r}, hi={hi!r}")
    from .expr import compile_expr
    return WeightedLine((lo, hi), compile_expr(f"{-float(exponent)!r}*log(x)"))


def _grad_correction(g: np.ndarray, denom: float) -> np.ndarray:
    # g^2/denom with the convention 0 when g == 0; denom == 0 is only legal
    # for constant weights.
    if denom == 0.0:
        if np.any(g != 0.0):
            raise ValueError("effective dimension equals intrinsic dimension "
                             "with a nonconstant weight")
        return np.zeros_like(g)
    return g * g / denom


def _cot_times(theta: np.ndarray, g, dg):
    """cot(theta)*g(theta) on the sphere.  Within _POLE_SIN of a pole it is
    continued by g'(theta) = dg: a smooth radial g vanishes there."""
    st = np.sin(theta)
    pole = np.abs(st) < _POLE_SIN
    return np.where(pole, dg, np.cos(theta) / np.where(pole, math.inf, st) * g)


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
    tangential = _cot_times(theta, psi.deriv(theta), psi.deriv2(theta))
    return _scalar(1.0 + ca2 * radial + (1.0 - ca2) * tangential)


@dataclass(kw_only=True)
class CurvatureCertificate(CheckReport):
    """Grid infimum K of the weighted Ricci curvature over a sampled bundle:
    a measurement (status "info") whose margin is K, attained at
    ``worst_location`` = (point, direction)."""

    K: float


def min_ricci_n(space: WeightedSpace, N: float,
                grid: Sequence[float]) -> CurvatureCertificate:
    """Grid infimum of ricci_n over every grid point and direction.

    On the sphere the form is linear in cos^2(direction), so the directions
    0 and pi/2 are the extremes.  NaN values are skipped; with no other
    value K is +inf at location None.
    """
    x = np.asarray(grid, dtype=float)
    if x.size == 0:
        raise ValueError("min_ricci_n needs at least one grid point, got 0")
    dirs = np.array([0.0] if isinstance(space, WeightedLine) else [0.0, math.pi / 2.0])
    vals = ricci_n(space, x[:, None], N, dirs[None, :])
    vals = np.where(np.isnan(vals), math.inf, vals)
    i, j = np.unravel_index(np.argmin(vals), vals.shape)
    K = float(vals[i, j])
    return CurvatureCertificate(
        name="min-ricci", status="info", passed=True, worst_margin=K,
        worst_location=None if K == math.inf else (float(x[i]), float(dirs[j])),
        n_evaluations=vals.size, tolerance=0.0, K=K)


def laplacian_m(space: WeightedSpace, u: ScalarFunction1D, point):
    """Weighted Laplacian u'' - u' psi' (plus the cot(theta) u' area term on
    the sphere, continued through the poles)."""
    x = np.asarray(point, dtype=float)
    up, upp = u.deriv(x), u.deriv2(x)
    drift = up * space.psi.deriv(x)
    if isinstance(space, WeightedLine):
        return _scalar(upp - drift)
    return _scalar(upp + _cot_times(x, up, upp) - drift)


def bochner_margin(space: WeightedSpace, u: ScalarFunction1D, N: float,
                   grid: Sequence[float], tol: float = 1e-8) -> CheckReport:
    """Margin Gamma_2(u) - Ric_N(grad u) - (L_m u)^2 / N of the dimensional
    Bochner inequality at each grid point.  Bochner's formula
    Gamma_2(u) = |Hess u|^2 + Ric_inf(grad u) makes it

    |Hess u|^2 + (Ric_inf - Ric_N) u'^2 - (L_m u)^2 / N,

    with |Hess u|^2 = u''^2 and Ric_inf = psi'' on a line, plus
    (cot(theta) u')^2 and 1 on the sphere: no third derivative enters.
    """
    negative_n(N)
    x = np.asarray(grid, dtype=float)
    up, upp = u.deriv(x), u.deriv2(x)
    hess2 = upp * upp
    ric_inf = space.psi.deriv2(x)
    if isinstance(space, RotSphere):
        hess2 = hess2 + _cot_times(x, up, upp) ** 2
        ric_inf = 1.0 + ric_inf
    lap_u = laplacian_m(space, u, x)
    margins = hess2 + (ric_inf - ricci_n(space, x, N)) * up * up - lap_u * lap_u / N
    return CheckReport.from_margins("bochner", margins, x, tol)


@dataclass(kw_only=True)
class EigenResult(CheckReport):
    """Spectral-gap check: the first nonzero eigenvalue lambda1 of -L_m on
    radial functions against the lower bound K*N/(N-1); the margin is
    lambda1 - bound."""

    lambda1: float
    bound: float
    K: float


def _fv_weights(space: WeightedSpace, mesh: int):
    """Cell width, cell centers, and the weight sin(theta) e^{-psi} (sphere)
    or e^{-psi} (line) at the cell centers and faces.  The face weight
    vanishes at both ends (the poles, or a zero-flux truncation of a line);
    anywhere else a weight that is not positive and finite is an error."""
    lo, hi = space.interval
    h = (hi - lo) / mesh
    centers = lo + (np.arange(mesh) + 0.5) * h
    faces = lo + np.arange(mesh + 1) * h
    w_c = np.exp(-np.asarray(space.psi(centers), dtype=float))
    w_f = np.exp(-np.asarray(space.psi(faces), dtype=float))
    var = "x"
    if isinstance(space, RotSphere):
        w_c = np.sin(centers) * w_c
        w_f = np.sin(faces) * w_f
        var = "theta"
    w_f[0] = w_f[-1] = 0.0
    for x, w in ((centers, w_c), (faces[1:-1], w_f[1:-1])):
        bad = np.flatnonzero(~((w > 0.0) & (w < math.inf)))
        if bad.size:
            raise ValueError(f"spectral gap: the weight is {float(w[bad[0]])!r} at {var}="
                             f"{float(x[bad[0]])!r}; e^-psi must be positive and finite")
    return h, centers, w_c, w_f


def _radial_lambda1(space: WeightedSpace, mesh: int) -> float:
    """Finite-volume radial eigenvalue, or NaN if Lanczos does not converge.

    A u = lambda W u, with A the flux-form operator (w_f / h^2 on interior
    faces) and W = diag(w_c), so lambda1 = 1/mu for the largest eigenvalue mu
    of A^+ W on the W-complement of the constants.  Lanczos runs in the W
    inner product from the ramp of cell centers (the first nonconstant
    eigenvector is monotone, so the ramp has a component along it) until the
    Ritz residual of mu is below _RITZ_RTOL * mu or the Krylov space is the
    whole complement.
    """
    h, centers, w_c, w_f = _fv_weights(space, mesh)
    mass = w_c.sum()
    half = mesh // 2

    def solve(b):
        # A u = W b: the flux through an interior face is the mass of W b on
        # its nearer side, so nothing cancels where the weight is tiny, and
        # u falls by flux * h^2 / w_f across the face
        wb = w_c * b
        flux = np.concatenate((np.cumsum(wb[:half]), -np.cumsum(wb[:half:-1])[::-1]))
        u = np.concatenate(([0.0], np.cumsum(-flux / w_f[1:-1] * (h * h))))
        return u - (w_c @ u) / mass

    steps = min(mesh - 1, _LANCZOS_STEPS)
    basis = np.empty((steps + 1, mesh))
    alpha, beta = np.empty(steps), np.empty(steps)
    q = centers - (w_c @ centers) / mass
    basis[0] = q / math.sqrt(w_c @ (q * q))
    for k in range(steps):
        v = solve(basis[k])
        alpha[k] = w_c @ (basis[k] * v)
        for _ in range(2):  # full reorthogonalization: twice is enough
            v -= ((basis[:k + 1] * w_c) @ v) @ basis[:k + 1]
        beta[k] = math.sqrt(w_c @ (v * v))
        if not math.isfinite(alpha[k] + beta[k]):
            return math.nan
        ritz, vecs = np.linalg.eigh(np.diag(alpha[:k + 1]) + np.diag(beta[:k], 1)
                                    + np.diag(beta[:k], -1))
        mu = ritz[-1]
        if beta[k] * abs(vecs[-1, -1]) <= _RITZ_RTOL * mu or k + 1 == mesh - 1:
            return float(1.0 / mu)
        basis[k + 1] = v / beta[k]
    return math.nan


def lichnerowicz(space: WeightedSpace, N: float, mesh_size: int = 2000,
                 tol: float = 1e-3) -> EigenResult:
    """Radial spectral gap versus the bound K*N/(N-1), K = inf Ric_N over 400
    evenly spaced points of the interval less 1e-6 of its length at each end.

    Only the radial spectrum is computed; for a nontrivial weight this is not
    claimed to be the full gap (the result says so in its note).  A weighted
    line is accepted as an advisory noncompact run, outside the compactness
    hypothesis of the bound.  K <= 0 makes the bound vacuous; an eigenvalue
    shift above ``tol`` under mesh halving, or an eigenvalue that does not
    converge (lambda1 NaN), is reported inconclusive with margin NaN.
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
    status, passed = "inconclusive", False
    if math.isnan(lam_half + lam):
        lam = math.nan
        notes.append(f"lambda1 did not converge in {_LANCZOS_STEPS} Lanczos steps")
    elif abs(lam - lam_half) > tol:
        notes.append(f"mesh too coarse: lambda1 shifted by {abs(lam - lam_half)!r}")
    elif K <= 0:
        status, passed = "vacuous", True
        notes.append("K <= 0: bound vacuous")
    else:
        status, passed = "checked", bool(lam >= bound - tol)
    return EigenResult(name="spectral-gap", passed=passed,
                       worst_margin=math.nan if status == "inconclusive" else lam - bound,
                       worst_location=None, n_evaluations=1, tolerance=tol,
                       status=status, note="; ".join(notes),
                       lambda1=lam, bound=bound, K=K)


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
