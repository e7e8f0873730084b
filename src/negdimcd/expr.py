"""Tiny whitelisted expression grammar for config files, with exact derivatives.

Supported: the variable (``x`` by default), numeric literals, the constants
``pi`` and ``e``, the operators + - * / ** with unary minus, and calls to
exp, log, sin, cos, tan, sinh, cosh, tanh, sqrt, abs.  Everything else is
rejected, so config files cannot execute arbitrary code.

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

_FUNCS = {
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

_CONSTS = {"pi": math.pi, "e": math.e}

_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
        ast.Div: operator.truediv, ast.Pow: np.power}

_ALLOWED_OPS = tuple(_OPS)


def _sign_prime(u):
    # [()] turns the 0-d array of a scalar argument into a scalar
    return np.where(u == 0, np.nan, 0.0)[()]


# the grammar's functions plus the two that only derivative trees contain
_EVAL_FUNCS = {**_FUNCS, "sign": np.sign, "sign'": _sign_prime}


def _validate(node: ast.AST, var: str) -> None:
    if isinstance(node, ast.Expression):
        _validate(node.body, var)
    elif isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_OPS):
        _validate(node.left, var)
        _validate(node.right, var)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        _validate(node.operand, var)
    elif isinstance(node, ast.Call):
        if not (isinstance(node.func, ast.Name) and node.func.id in _FUNCS):
            raise ValueError(f"function not in the grammar: {ast.dump(node.func)}")
        if node.keywords or len(node.args) != 1:
            raise ValueError("grammar functions take exactly one positional argument")
        _validate(node.args[0], var)
    elif isinstance(node, ast.Name):
        if node.id != var and node.id not in _CONSTS:
            raise ValueError(f"unknown name {node.id!r}; only {var!r}, pi, e are allowed")
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ValueError(f"literal {node.value!r} is not numeric")
    else:
        raise ValueError(f"syntax not in the grammar: {type(node).__name__}")


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
    return b if _is(a, 1) else a if _is(b, 1) else ast.BinOp(a, ast.Mult(), b)


def _div(a, b):
    return a if _is(a, 0) or _is(b, 1) else ast.BinOp(a, ast.Div(), b)


def _pow(a, b):
    return a if _is(b, 1) else ast.BinOp(a, ast.Pow(), b)


def _call(name, a):
    return ast.Call(ast.Name(name), [a], [])


# d/dx name(u) from u and du = u'; no third derivative is built, so sign' needs no rule
_CHAIN = {
    "exp": lambda u, du: _mul(_call("exp", u), du),
    "log": lambda u, du: _div(du, u),
    "sin": lambda u, du: _mul(_call("cos", u), du),
    "cos": lambda u, du: _neg(_mul(_call("sin", u), du)),
    "tan": lambda u, du: _div(du, _pow(_call("cos", u), _TWO)),
    "sinh": lambda u, du: _mul(_call("cosh", u), du),
    "cosh": lambda u, du: _mul(_call("sinh", u), du),
    "tanh": lambda u, du: _div(du, _pow(_call("cosh", u), _TWO)),
    "sqrt": lambda u, du: _div(du, _mul(_TWO, _call("sqrt", u))),
    "abs": lambda u, du: _mul(_call("sign", u), du),
    "sign": lambda u, du: _mul(_call("sign'", u), du),
}


def _diff(node, var: str):
    """The derivative in ``var`` of a validated tree, as a tree."""
    if isinstance(node, ast.Constant):
        return _ZERO
    if isinstance(node, ast.Name):
        return _ONE if node.id == var else _ZERO
    if isinstance(node, ast.UnaryOp):
        d = _diff(node.operand, var)
        return _neg(d) if isinstance(node.op, ast.USub) else d
    if isinstance(node, ast.Call):
        u = node.args[0]
        return _CHAIN[node.func.id](u, _diff(u, var))
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
# compilation: tree -> closure of the variable


def _compile(node, var: str):
    if isinstance(node, ast.Constant):
        value = np.float64(node.value)
        return lambda x: value
    if isinstance(node, ast.Name):
        if node.id == var:
            return lambda x: x
        value = np.float64(_CONSTS[node.id])
        return lambda x: value
    if isinstance(node, ast.UnaryOp):
        operand = _compile(node.operand, var)
        return (lambda x: -operand(x)) if isinstance(node.op, ast.USub) else operand
    if isinstance(node, ast.Call):
        func, arg = _EVAL_FUNCS[node.func.id], _compile(node.args[0], var)
        return lambda x: func(arg(x))
    op, left, right = _OPS[type(node.op)], _compile(node.left, var), _compile(node.right, var)
    return lambda x: op(left(x), right(x))


def compile_expr(text: str, var: str = "x") -> ScalarFunction1D:
    """Compile an expression into a ScalarFunction1D with exact derivatives.

    Each of f, f', f'' is differentiated and compiled on its first call, so
    a function that is only evaluated never builds its derivative trees.
    """
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse expression {text!r}: {exc}") from exc
    _validate(tree, var)
    trees, compiled = [tree.body], {}

    def evaluator(order: int):
        def evaluate(value):
            if order not in compiled:
                while len(trees) <= order:
                    trees.append(_diff(trees[-1], var))
                compiled[order] = _compile(trees[order], var)
            # scalars as numpy float64, so that they follow array arithmetic
            return compiled[order](as_float(value))
        return evaluate

    return ScalarFunction1D(fn=evaluator(0), d1=evaluator(1), d2=evaluator(2), name=text)
