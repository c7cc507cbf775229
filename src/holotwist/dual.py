"""First-order dual numbers over complex scalars.

Used for exact derivatives of expression ASTs along a direction and of
the closed-form curves/cylinders in the geometry catalog.  Only the function
set needed by the expression grammar is provided.
"""

from __future__ import annotations

import math
import cmath

from .errors import DomainError

_NUM = (int, float, complex)


class Dual:
    """a + b*eps with eps^2 = 0; a, b complex."""

    __slots__ = ("val", "dot")

    def __init__(self, val, dot=0.0):
        self.val = complex(val)
        self.dot = complex(dot)

    def __repr__(self):
        return f"Dual({self.val!r}, {self.dot!r})"

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val + other.val, self.dot + other.dot)
        if isinstance(other, _NUM):
            return Dual(self.val + other, self.dot)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, -self.dot)

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val - other.val, self.dot - other.dot)
        if isinstance(other, _NUM):
            return Dual(self.val - other, self.dot)
        return NotImplemented

    def __rsub__(self, other):
        return Dual(other - self.val, -self.dot)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val * other.val,
                        self.val * other.dot + self.dot * other.val)
        if isinstance(other, _NUM):
            return Dual(self.val * other, self.dot * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            if other.val == 0:
                raise DomainError("division by zero")
            return Dual(self.val / other.val,
                        (self.dot * other.val - self.val * other.dot)
                        / (other.val * other.val))
        if isinstance(other, _NUM):
            if other == 0:
                raise DomainError("division by zero")
            return Dual(self.val / other, self.dot / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if self.val == 0:
            raise DomainError("division by zero")
        return Dual(other / self.val, -other * self.dot / (self.val * self.val))

    def __pow__(self, other):
        if isinstance(other, Dual):
            return exp(other * log(self))
        if isinstance(other, _NUM):
            if other == 0:
                return Dual(1.0, 0.0)
            if self.val == 0:
                # only nonnegative integer powers are smooth at 0
                if isinstance(other, int) and other > 0:
                    return Dual(0.0, self.dot if other == 1 else 0.0)
                raise DomainError("0 raised to non-positive-integer power")
            return Dual(self.val ** other,
                        other * self.val ** (other - 1) * self.dot)
        return NotImplemented

    def __rpow__(self, other):
        return exp(self * math.log(other) if (isinstance(other, (int, float))
                                              and other > 0)
                   else self * cmath.log(other))


def _as_dual(x):
    return x if isinstance(x, Dual) else Dual(x)


def value(x):
    """Primal part of a Dual or plain scalar."""
    return x.val if isinstance(x, Dual) else complex(x)


def sin(x):
    if isinstance(x, Dual):
        return Dual(cmath.sin(x.val), cmath.cos(x.val) * x.dot)
    return cmath.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(cmath.cos(x.val), -cmath.sin(x.val) * x.dot)
    return cmath.cos(x)


def exp(x):
    if isinstance(x, Dual):
        e = cmath.exp(x.val)
        return Dual(e, e * x.dot)
    return cmath.exp(x)


def log(x):
    if isinstance(x, Dual):
        if x.val == 0:
            raise DomainError("log of zero")
        if x.val.imag == 0 and x.val.real < 0:
            raise DomainError("log of negative real")
        return Dual(cmath.log(x.val), x.dot / x.val)
    if x == 0:
        raise DomainError("log of zero")
    return cmath.log(x)


def sqrt(x):
    if isinstance(x, Dual):
        if x.val == 0:
            raise DomainError("sqrt not differentiable at zero")
        s = cmath.sqrt(x.val)
        return Dual(s, x.dot / (2.0 * s))
    return cmath.sqrt(x)


def atan2(y, x):
    """Two-argument arctangent; real parts only (smooth away from origin)."""
    y, x = _as_dual(y), _as_dual(x)
    yv, xv = y.val.real, x.val.real
    if yv == 0 and xv == 0:
        raise DomainError("atan2 at origin")
    v = math.atan2(yv, xv)
    r2 = xv * xv + yv * yv
    dot = (xv * y.dot.real - yv * x.dot.real) / r2
    return Dual(v, dot)
