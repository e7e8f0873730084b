"""Tiny whitelisted expression grammar for config files.

Supported: the variable (``x`` by default), numeric literals, the constants
``pi`` and ``e``, the operators + - * / ** with unary minus, and calls to
exp, log, sin, cos, tan, sinh, cosh, tanh, sqrt, abs.  Everything else is
rejected, so config files cannot execute arbitrary code.
"""

from __future__ import annotations

import ast
import math

import numpy as np

from .functions import ScalarFunction1D

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

_ALLOWED_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


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


def compile_expr(text: str, var: str = "x", fd_step: float = 1e-5) -> ScalarFunction1D:
    """Compile an expression into a ScalarFunction1D (FD derivatives)."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse expression {text!r}: {exc}") from exc
    _validate(tree, var)
    code = compile(tree, "<config expression>", "eval")
    env = {**_FUNCS, **_CONSTS, "__builtins__": {}}

    def fn(value):
        scope = dict(env)
        scope[var] = np.asarray(value, dtype=float) if np.ndim(value) else float(value)
        return eval(code, scope)  # noqa: S307 - AST is whitelisted above

    return ScalarFunction1D(fn=fn, fd_step=fd_step, name=text)
