"""Scalar functions with optional analytic derivatives and FD fallback."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = ["ScalarFunction1D", "exp_transform"]


def _shaped(out, x):
    # an array argument gets an array of its shape back: sympy-lambdified and
    # constant callables return one scalar for any argument.  Callers test
    # type(x) first, so scalar calls (the RK4 steps) pay one type check only.
    if np.shape(out) != x.shape:
        return np.full(x.shape, out, dtype=float)
    return out


@dataclass(frozen=True)
class ScalarFunction1D:
    """A smooth function of one variable.

    ``d1``/``d2`` are analytic derivative evaluators when available; missing
    ones fall back to central differences with step ``fd_step``.  Callables
    should accept floats or numpy arrays elementwise; a numpy array argument
    always gets an array of its shape back.
    """

    fn: Callable
    d1: Optional[Callable] = None
    d2: Optional[Callable] = None
    fd_step: float = 1e-5
    name: str = ""

    def __call__(self, x):
        out = self.fn(x)
        return out if type(x) is not np.ndarray else _shaped(out, x)

    value = __call__

    def deriv(self, x):
        if self.d1 is not None:
            out = self.d1(x)
        else:
            h = self.fd_step
            out = (self.fn(x + h) - self.fn(x - h)) / (2.0 * h)
        return out if type(x) is not np.ndarray else _shaped(out, x)

    def deriv2(self, x):
        h = self.fd_step
        if self.d2 is not None:
            out = self.d2(x)
        elif self.d1 is not None:
            out = (self.d1(x + h) - self.d1(x - h)) / (2.0 * h)
        else:
            out = (self.fn(x + h) - 2.0 * self.fn(x) + self.fn(x - h)) / (h * h)
        return out if type(x) is not np.ndarray else _shaped(out, x)

    @property
    def has_analytic_derivs(self) -> bool:
        return self.d1 is not None and self.d2 is not None

    @staticmethod
    def constant(value: float) -> "ScalarFunction1D":
        v = float(value)
        return ScalarFunction1D(fn=lambda x: v, d1=lambda x: 0.0, d2=lambda x: 0.0,
                                name=f"const({v})")


def exp_transform(f: ScalarFunction1D, N: float) -> ScalarFunction1D:
    """Return x -> exp(-f(x)/N) with derivatives chained from ``f``.

    This transform turns the dimensional convexity inequality into a linear
    comparison statement; for N < 0 it is increasing in f.
    """
    if N == 0:
        raise ValueError("N must be nonzero")

    def fn(x):
        return np.exp(-np.asarray(f.fn(x), dtype=float) / N)

    def d1(x):
        return -np.asarray(f.deriv(x), dtype=float) / N * fn(x)

    def d2(x):
        fp = np.asarray(f.deriv(x), dtype=float)
        fpp = np.asarray(f.deriv2(x), dtype=float)
        return (fp * fp / (N * N) - fpp / N) * fn(x)

    return ScalarFunction1D(fn=fn, d1=d1, d2=d2, fd_step=f.fd_step,
                            name=f"exp(-({f.name or 'f'})/{N})")
