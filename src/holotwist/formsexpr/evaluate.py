"""Evaluation of expression ASTs, plain or with forward-mode AD."""

from __future__ import annotations

import numpy as np

from .. import dual
from ..dual import Dual
from ..errors import DomainError, UnknownIdentifier
from .parser import Bin, Call, Const, Coord, Num, CONSTANTS

_FN = {
    "sin": dual.sin,
    "cos": dual.cos,
    "exp": dual.exp,
    "log": dual.log,
    "sqrt": dual.sqrt,
    "atan2": dual.atan2,
}


def _eval(node, env):
    if isinstance(node, Call):
        return _FN[node.fn](*[_eval(a, env) for a in node.args])
    if isinstance(node, Bin):
        left = _eval(node.left, env)
        right = _eval(node.right, env)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        try:
            if node.op == "/":
                return left / right
            return left ** right
        except ZeroDivisionError:
            raise DomainError(f"division by zero in '{node.op}'") from None
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Const):
        return CONSTANTS[node.name]
    if isinstance(node, Coord):
        try:
            return env[node.name]
        except KeyError:
            raise UnknownIdentifier(f"coordinate {node.name!r} not bound") from None
    # Unary minus
    return -_eval(node.arg, env)


def evaluate(node, env):
    """The value of an expression at a binding of its coordinates to
    scalars, node arrays or Duals.  A node where the value divides by
    zero, overflows or is undefined raises DomainError."""
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return _eval(node, env)
    except FloatingPointError as exc:
        raise DomainError(str(exc)) from None


def eval_expr(node, point):
    """Evaluate at a coordinate binding {name: scalar}; returns complex."""
    return complex(dual.value(evaluate(node, point)))


def eval_ad(node, point, seed):
    """Forward-mode value and derivative along a direction.

    point and seed are {coordinate: scalar} bindings; the derivative is
    taken in the direction seed.  Returns (value, derivative).
    """
    env = {name: Dual(val, seed.get(name, 0.0)) for name, val in point.items()}
    out = evaluate(node, env)
    if isinstance(out, Dual):
        return out.val, out.dot
    return complex(out), 0.0 + 0.0j
