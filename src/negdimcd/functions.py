"""Scalar functions of one variable with their first two derivatives."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["ScalarFunction1D", "exp_transform"]


def as_float(x):
    """x as float64: a numpy scalar for a scalar (a 0-d array too), else a float
    array.  A float skips np.asarray: ufuncs on a 0-d array cost 4x more."""
    if type(x) is float or type(x) is np.float64:
        return np.float64(x)
    x = np.asarray(x, dtype=float)
    return x if x.ndim else x[()]


def _shaped(out, x):
    # an array argument gets an array of its shape back: sympy-lambdified and
    # constant callables return one scalar for any argument.  Scalar calls
    # (each RK4 stage) skip this after one type test of their argument.
    if np.shape(out) != x.shape:
        return np.full(x.shape, out, dtype=float)
    return out


@dataclass(frozen=True)
class ScalarFunction1D:
    """A smooth function of one variable with its first two derivatives.

    ``d1``/``d2`` evaluate f' and f''.  Callables should accept floats or
    numpy arrays elementwise; a numpy array argument always gets an array of
    its shape back.
    """

    fn: Callable
    d1: Callable
    d2: Callable
    name: str = ""

    def __call__(self, x):
        out = self.fn(x)
        return out if type(x) is not np.ndarray else _shaped(out, x)

    value = __call__

    def deriv(self, x):
        out = self.d1(x)
        return out if type(x) is not np.ndarray else _shaped(out, x)

    def deriv2(self, x):
        out = self.d2(x)
        return out if type(x) is not np.ndarray else _shaped(out, x)

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
        return np.exp(-as_float(f.fn(x)) / N)

    def d1(x):
        return -as_float(f.deriv(x)) / N * fn(x)

    def d2(x):
        fp = as_float(f.deriv(x))
        return (fp * fp / (N * N) - as_float(f.deriv2(x)) / N) * fn(x)

    return ScalarFunction1D(fn=fn, d1=d1, d2=d2, name=f"exp(-({f.name or 'f'})/{N})")
