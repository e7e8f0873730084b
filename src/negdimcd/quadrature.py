"""Composite Gauss-Legendre quadrature with panel-doubling convergence control."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .comparison import finite_interval

__all__ = ["QuadratureError", "QuadratureResult", "gl_nodes", "integrate", "MAX_DOUBLINGS"]

MAX_DOUBLINGS = 6


class QuadratureError(RuntimeError):
    """Raised when panel doubling fails to stabilize an integral."""


@lru_cache(maxsize=64)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def gl_nodes(a: float, b: float, n: int, panels: int = 1):
    """Nodes and weights of panel-composite Gauss-Legendre on [a, b]."""
    x, w = _leggauss(n)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = half[:, None] * x
    nodes += mid[:, None]
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes.ravel(), weights


@dataclass
class QuadratureResult:
    value: float
    error_estimate: float
    converged: bool
    n_evaluations: int


def integrate(fn, a: float, b: float, n0: int = 64, panels: int = 4,
              rtol: float = 1e-11, atol: float = 1e-13, strict: bool = True):
    """Integrate fn over [a, b], doubling the number of n0-point panels up
    to ``MAX_DOUBLINGS`` times until stable; the Gauss order never grows
    past ``n0``.

    Returns a QuadratureResult; with ``strict`` a failure to converge raises
    QuadratureError instead of returning an unconverged value.
    """
    finite_interval((a, b), "integration interval")

    def rule(panels):
        nodes, weights = gl_nodes(a, b, n0, panels)
        return float(np.sum(weights * np.asarray(fn(nodes), dtype=float)))

    prev = rule(panels)
    evals = n0 * panels
    for _ in range(MAX_DOUBLINGS):
        panels *= 2
        cur = rule(panels)
        evals += n0 * panels
        err = abs(cur - prev)
        if err <= atol + rtol * abs(cur):
            return QuadratureResult(cur, err, True, evals)
        prev = cur
    if strict:
        raise QuadratureError(
            f"integral did not stabilize after {MAX_DOUBLINGS} doublings "
            f"(last delta {err!r})")
    return QuadratureResult(cur, err, False, evals)
