"""First-order dual numbers over complex scalars or numpy arrays.

Used for exact derivatives of expression ASTs along a direction and of
the closed-form curves/cylinders in the geometry catalog.  Only the function
set needed by the expression grammar is provided.

A Dual holds either two scalars (coerced to complex, evaluated with
math/cmath) or two arrays over a batch of nodes (evaluated with numpy,
real arrays staying real).  Domain errors are raised when any node of a
batch leaves the domain.  `piecewise` evaluates a piecewise map on a
batch with each piece run only on the nodes that fall in it.
"""

from __future__ import annotations

import math
import cmath

import numpy as np

from .errors import DomainError

_NUM = (int, float, complex, np.ndarray)


def _any(cond):
    """A scalar condition, or whether it holds at any node."""
    return cond if cond is True or cond is False else bool(cond.any())


_new = object.__new__


def _dual(val, dot):
    """A Dual from parts that are already complex scalars or arrays."""
    d = _new(Dual)
    d.val = val
    d.dot = dot
    return d


class Dual:
    """a + b*eps with eps^2 = 0; a, b complex scalars or node arrays."""

    __slots__ = ("val", "dot")
    __array_ufunc__ = None      # numpy defers to the reflected operators

    def __init__(self, val, dot=0.0):
        if isinstance(val, np.ndarray) or isinstance(dot, np.ndarray):
            self.val, self.dot = val, dot
        else:
            self.val, self.dot = complex(val), complex(dot)

    def __repr__(self):
        return f"Dual({self.val!r}, {self.dot!r})"

    def __add__(self, other):
        if isinstance(other, Dual):
            return _dual(self.val + other.val, self.dot + other.dot)
        if isinstance(other, _NUM):
            return _dual(self.val + other, self.dot)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _dual(-self.val, -self.dot)

    def __sub__(self, other):
        if isinstance(other, Dual):
            return _dual(self.val - other.val, self.dot - other.dot)
        if isinstance(other, _NUM):
            return _dual(self.val - other, self.dot)
        return NotImplemented

    def __rsub__(self, other):
        return _dual(other - self.val, -self.dot)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return _dual(self.val * other.val,
                         self.val * other.dot + self.dot * other.val)
        if isinstance(other, _NUM):
            return _dual(self.val * other, self.dot * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            if _any(other.val == 0):
                raise DomainError("division by zero")
            return _dual(self.val / other.val,
                         (self.dot * other.val - self.val * other.dot)
                         / (other.val * other.val))
        if isinstance(other, _NUM):
            if _any(other == 0):
                raise DomainError("division by zero")
            return _dual(self.val / other, self.dot / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if _any(self.val == 0):
            raise DomainError("division by zero")
        return _dual(other / self.val,
                     -other * self.dot / (self.val * self.val))

    def __pow__(self, other):
        if isinstance(other, Dual):
            return exp(other * log(self))
        if isinstance(other, _NUM):
            if other == 0:
                return Dual(1.0 + 0.0 * self.val, 0.0 * self.dot) \
                    if isinstance(self.val, np.ndarray) else Dual(1.0, 0.0)
            if _any(self.val == 0):
                # only nonnegative integer powers are smooth at 0
                if not (isinstance(other, int) and other > 0):
                    raise DomainError("0 raised to non-positive-integer power")
                if not isinstance(self.val, np.ndarray):
                    return Dual(0.0, self.dot if other == 1 else 0.0)
            return _dual(self.val ** other,
                         other * self.val ** (other - 1) * self.dot)
        return NotImplemented

    def __rpow__(self, other):
        return exp(self * math.log(other) if (isinstance(other, (int, float))
                                              and other > 0)
                   else self * cmath.log(other))


def _as_dual(x):
    return x if isinstance(x, Dual) else Dual(x)


def value(x):
    """Primal part of a Dual, array or plain scalar."""
    if isinstance(x, Dual):
        return x.val
    return x if isinstance(x, np.ndarray) else complex(x)


def _lib(x):
    return np if isinstance(x, np.ndarray) else cmath


def sin(x):
    if isinstance(x, Dual):
        lib = _lib(x.val)
        return _dual(lib.sin(x.val), lib.cos(x.val) * x.dot)
    return _lib(x).sin(x)


def cos(x):
    if isinstance(x, Dual):
        lib = _lib(x.val)
        return _dual(lib.cos(x.val), -lib.sin(x.val) * x.dot)
    return _lib(x).cos(x)


def exp(x):
    if isinstance(x, Dual):
        e = _lib(x.val).exp(x.val)
        return _dual(e, e * x.dot)
    return _lib(x).exp(x)


def _check_log(v):
    if _any(v == 0):
        raise DomainError("log of zero")
    if _any((v.imag == 0) & (v.real < 0)):
        raise DomainError("log of negative real")


def log(x):
    if isinstance(x, Dual):
        _check_log(x.val)
        return _dual(_lib(x.val).log(x.val), x.dot / x.val)
    if _any(x == 0):
        raise DomainError("log of zero")
    if isinstance(x, np.ndarray):
        return np.log(x.astype(complex))
    return cmath.log(x)


def _sqrt(v):
    if isinstance(v, np.ndarray):
        return np.sqrt(v.astype(complex) if np.any(v.real < 0) else v)
    return cmath.sqrt(v)


def sqrt(x):
    if isinstance(x, Dual):
        if _any(x.val == 0):
            raise DomainError("sqrt not differentiable at zero")
        s = _sqrt(x.val)
        return _dual(s, x.dot / (2.0 * s))
    return _sqrt(x)


def atan2(y, x):
    """Two-argument arctangent; real parts only (smooth away from origin)."""
    y, x = _as_dual(y), _as_dual(x)
    yv, xv = y.val.real, x.val.real
    if _any((yv == 0) & (xv == 0)):
        raise DomainError("atan2 at origin")
    v = np.arctan2(yv, xv) if isinstance(yv, np.ndarray) \
        else math.atan2(yv, xv)
    r2 = xv * xv + yv * yv
    dot = (xv * y.dot.real - yv * x.dot.real) / r2
    return Dual(v, dot)


# --------------------------------------------------------------------------
# Piecewise evaluation over node batches
# --------------------------------------------------------------------------

def cell_index(x, n):
    """Index k of the cell [k/n, (k+1)/n] of [0, 1] that holds x, with x
    clamped to [0, 1] and the right end in the last cell."""
    if isinstance(x, np.ndarray):
        return np.minimum((np.clip(x, 0.0, 1.0) * n).astype(int), n - 1)
    return min(int(min(max(x, 0.0), 1.0) * n), n - 1)


def take(x, idx):
    """x restricted to the nodes idx; scalars are shared by every node."""
    if isinstance(x, Dual):
        return _dual(take(x.val, idx), take(x.dot, idx))
    return x[idx] if isinstance(x, np.ndarray) else x


def _fill(parts, n):
    """Scatter (nodes, component) pairs into one array over n nodes."""
    if any(isinstance(c, Dual) for _, c in parts):
        return _dual(_fill([(i, c.val if isinstance(c, Dual) else c)
                            for i, c in parts], n),
                     _fill([(i, c.dot if isinstance(c, Dual) else 0.0)
                            for i, c in parts], n))
    out = np.zeros(n, dtype=np.result_type(*(c for _, c in parts)))
    for i, c in parts:
        out[i] = c
    return out


def piecewise(index, pieces, *args):
    """pieces[k](*args) on the nodes where index == k.

    Each piece returns a sequence of components.  With scalar arguments
    `index` is an int (or bool) and one piece runs.  Over a batch it is
    an integer array with one entry per node: each piece runs on the
    arguments restricted to its own nodes, and the components are
    scattered back into arrays over the whole batch.
    """
    if not isinstance(index, np.ndarray) or not index.ndim:
        return pieces[int(index)](*args)
    index = index.astype(int, copy=False)
    first = index[0]
    if (index == first).all():
        return pieces[first](*args)
    parts = []
    for k, piece in enumerate(pieces):
        idx = np.flatnonzero(index == k)
        if idx.size:
            parts.append((idx, piece(*[take(a, idx) for a in args])))
    return [_fill([(idx, out[c]) for idx, out in parts], index.size)
            for c in range(len(parts[0][1]))]
