"""Tiny whitelisted expression grammar for config files, with exact derivatives.

Supported: the variable (``x`` by default), numeric literals, the constants
``pi`` and ``e``, the operators + - * / ** with unary minus, and calls to the
one-argument functions of ``_FUNCS``.  Everything else is rejected, so config
files cannot execute arbitrary code.

The grammar is closed under differentiation: derivatives are trees of the
same grammar plus ``sign`` (the derivative of abs) and ``sign'`` (0 away from
the kink, NaN on it, so a kink on a grid point reads "undefined").  Trees
compile to numpy closures in which literals, pi and e are float64, so a
negative base to a fractional power is NaN, as in an array, not complex.
"""

from __future__ import annotations

import ast
import math
import operator

import numpy as np

from .functions import ScalarFunction1D, as_float

__all__ = ["compile_expr"]

_CONSTS = {"pi": math.pi, "e": math.e}

_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
        ast.Div: operator.truediv, ast.Pow: np.power}


# ---------------------------------------------------------------------------
# differentiation: tree -> tree.  New nodes reference the operand subtrees of
# the original instead of copying them, and the builders drop the zeros and
# ones that derivatives of constants and of the variable produce.

_ZERO, _ONE, _TWO = ast.Constant(0.0), ast.Constant(1.0), ast.Constant(2.0)


def _is(node, value) -> bool:
    return isinstance(node, ast.Constant) and node.value == value


def _add(a, b):
    return b if _is(a, 0) else a if _is(b, 0) else ast.BinOp(a, ast.Add(), b)


def _neg(a):
    return a if _is(a, 0) else ast.UnaryOp(ast.USub(), a)


def _sub(a, b):
    return _neg(b) if _is(a, 0) else a if _is(b, 0) else ast.BinOp(a, ast.Sub(), b)


def _mul(a, b):
    if _is(a, 0) or _is(b, 0):
        return _ZERO
    if isinstance(b, ast.BinOp) and isinstance(b.op, ast.Div) and _is(b.left, 1):
        return _div(a, b.right)  # a/v, rounded once, for a*(1/v)
    return b if _is(a, 1) else a if _is(b, 1) else ast.BinOp(a, ast.Mult(), b)


def _div(a, b):
    return a if _is(a, 0) or _is(b, 1) else ast.BinOp(a, ast.Div(), b)


def _pow(a, b):
    return a if _is(b, 1) else ast.BinOp(a, ast.Pow(), b)


def _call(name, a):
    return ast.Call(ast.Name(name), [a], [])


def _sign_prime(u):
    # [()] turns the 0-d array of a scalar argument into a scalar
    return np.where(u == 0, np.nan, 0.0)[()]


# the grammar's functions: name -> (evaluator, chain rule giving d/dx name(u)
# from u and du = u')
_FUNCS = {
    "exp": (np.exp, lambda u, du: _mul(_call("exp", u), du)),
    "log": (np.log, lambda u, du: _div(du, u)),
    "sin": (np.sin, lambda u, du: _mul(_call("cos", u), du)),
    "cos": (np.cos, lambda u, du: _neg(_mul(_call("sin", u), du))),
    "tan": (np.tan, lambda u, du: _div(du, _pow(_call("cos", u), _TWO))),
    "sinh": (np.sinh, lambda u, du: _mul(_call("cosh", u), du)),
    "cosh": (np.cosh, lambda u, du: _mul(_call("sinh", u), du)),
    "tanh": (np.tanh, lambda u, du: _div(du, _pow(_call("cosh", u), _TWO))),
    "sqrt": (np.sqrt, lambda u, du: _div(du, _mul(_TWO, _call("sqrt", u)))),
    "abs": (np.abs, lambda u, du: _mul(_call("sign", u), du)),
}

# plus the two that only derivative trees contain; no third derivative is
# built, so sign' needs no chain rule
_DERIV_FUNCS = {**_FUNCS, "sign": (np.sign, lambda u, du: _mul(_call("sign'", u), du)),
                "sign'": (_sign_prime, None)}


def _diff(node, var: str):
    """The derivative in ``var`` of a compiled tree, as a tree."""
    if isinstance(node, ast.Constant):
        return _ZERO
    if isinstance(node, ast.Name):
        return _ONE if node.id == var else _ZERO
    if isinstance(node, ast.UnaryOp):
        d = _diff(node.operand, var)
        return _neg(d) if isinstance(node.op, ast.USub) else d
    if isinstance(node, ast.Call):
        u = node.args[0]
        return _DERIV_FUNCS[node.func.id][1](u, _diff(u, var))
    u, v, op = node.left, node.right, type(node.op)
    du, dv = _diff(u, var), _diff(v, var)
    if op is ast.Add:
        return _add(du, dv)
    if op is ast.Sub:
        return _sub(du, dv)
    if op is ast.Mult:
        return _add(_mul(du, v), _mul(u, dv))
    if op is ast.Div:
        # 0/v stays where v varies: it is NaN wherever u/v is 0/0
        first = _div(du, v) if _is(dv, 0) else ast.BinOp(du, ast.Div(), v)
        return _sub(first, _div(_mul(u, dv), _pow(v, _TWO)))
    if _is(dv, 0):
        # constant exponent: v u**(v - 1) u'
        v1 = ast.Constant(v.value - 1) if isinstance(v, ast.Constant) else _sub(v, _ONE)
        return _mul(_mul(v, _pow(u, v1)), du)
    # u**v (v' log(u) + v u'/u)
    return _mul(node, _add(_mul(dv, _call("log", u)), _div(_mul(v, du), u)))


# ---------------------------------------------------------------------------
# compilation: tree -> closure of the variable, checking each node against the
# grammar on the way


def _compile(node, var: str, funcs):
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ValueError(f"literal {node.value!r} is not numeric")
        value = np.float64(node.value)
        return lambda x: value
    if isinstance(node, ast.Name):
        if node.id == var:
            return lambda x: x
        if node.id not in _CONSTS:
            raise ValueError(f"unknown name {node.id!r}; only {var!r}, pi, e are allowed")
        value = np.float64(_CONSTS[node.id])
        return lambda x: value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        operand = _compile(node.operand, var, funcs)
        return (lambda x: -operand(x)) if isinstance(node.op, ast.USub) else operand
    if isinstance(node, ast.Call):
        if not (isinstance(node.func, ast.Name) and node.func.id in funcs):
            raise ValueError(f"function not in the grammar: {ast.dump(node.func)}")
        if node.keywords or len(node.args) != 1:
            raise ValueError("grammar functions take exactly one positional argument")
        func, arg = funcs[node.func.id][0], _compile(node.args[0], var, funcs)
        return lambda x: func(arg(x))
    if isinstance(node, ast.BinOp) and type(node.op) in _OPS:
        op = _OPS[type(node.op)]
        left, right = _compile(node.left, var, funcs), _compile(node.right, var, funcs)
        return lambda x: op(left(x), right(x))
    raise ValueError(f"syntax not in the grammar: {type(node).__name__}")


def compile_expr(text: str, var: str = "x") -> ScalarFunction1D:
    """Compile an expression into a ScalarFunction1D with exact derivatives.

    f is compiled first, so text outside the grammar raises before it is
    differentiated; then f' and f'' are differentiated and compiled, here and
    once, so that evaluating any of the three builds no tree.
    """
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse expression {text!r}: {exc}") from exc
    f = _compile(tree.body, var, _FUNCS)
    d1 = _diff(tree.body, var)
    f1, f2 = _compile(d1, var, _DERIV_FUNCS), _compile(_diff(d1, var), var, _DERIV_FUNCS)
    # scalars as numpy float64, so that they follow array arithmetic
    return ScalarFunction1D(fn=lambda x: f(as_float(x)), d1=lambda x: f1(as_float(x)),
                            d2=lambda x: f2(as_float(x)), name=text)
