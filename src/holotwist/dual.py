"""First-order dual numbers over numpy node arrays.

Used for exact derivatives of expression ASTs along a direction and of
the closed-form curves/cylinders in the geometry catalog.  Only the function
set needed by the expression grammar is provided.

A Dual holds two arrays over a batch of nodes, evaluated with numpy
(real arrays staying real); numpy scalars pass through the same code.
Domain errors are raised when any node of a batch leaves the domain.
`piecewise` evaluates a piecewise map on a batch with each piece run
only on the nodes that fall in it.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

_NUM = (int, float, complex, np.ndarray)


def _any(cond):
    """Whether a condition holds at any node."""
    return bool(np.asarray(cond).any())


_new = object.__new__


def _dual(val, dot):
    """A Dual from parts that are already complex scalars or arrays."""
    d = _new(Dual)
    d.val = val
    d.dot = dot
    return d


class Dual:
    """a + b*eps with eps^2 = 0; a, b node arrays."""

    __slots__ = ("val", "dot")
    __array_ufunc__ = None      # numpy defers to the reflected operators

    def __init__(self, val, dot=0.0):
        self.val, self.dot = val, dot

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
                return _dual(1.0 + 0.0 * self.val, 0.0 * self.dot)
            # only nonnegative integer powers are smooth at 0
            if _any(self.val == 0) and not (isinstance(other, int)
                                            and other > 0):
                raise DomainError("0 raised to non-positive-integer power")
            return _dual(self.val ** other,
                         other * self.val ** (other - 1) * self.dot)
        return NotImplemented

    def __rpow__(self, other):
        real = isinstance(other, (int, float)) and other > 0
        return exp(self * np.log(other if real else other + 0j))


def _as_dual(x):
    return x if isinstance(x, Dual) else Dual(x)


def value(x):
    """Primal part of a Dual, else x itself."""
    return x.val if isinstance(x, Dual) else x


def derivative(x):
    """Derivative part of a Dual, else 0."""
    return x.dot if isinstance(x, Dual) else 0.0


def sin(x):
    if isinstance(x, Dual):
        return _dual(np.sin(x.val), np.cos(x.val) * x.dot)
    return np.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return _dual(np.cos(x.val), -np.sin(x.val) * x.dot)
    return np.cos(x)


def exp(x):
    if isinstance(x, Dual):
        e = np.exp(x.val)
        return _dual(e, e * x.dot)
    return np.exp(x)


def _check_log(v):
    if _any(v == 0):
        raise DomainError("log of zero")
    if _any((np.imag(v) == 0) & (np.real(v) < 0)):
        raise DomainError("log of negative real")


def log(x):
    if isinstance(x, Dual):
        _check_log(x.val)
        return _dual(np.log(x.val), x.dot / x.val)
    if _any(x == 0):
        raise DomainError("log of zero")
    return np.log(x + 0j)


def _sqrt(v):
    return np.sqrt(v + 0j if _any(np.real(v) < 0) else v)


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
    yv, xv = np.real(y.val), np.real(x.val)
    if _any((yv == 0) & (xv == 0)):
        raise DomainError("atan2 at origin")
    r2 = xv * xv + yv * yv
    dot = (xv * np.real(y.dot) - yv * np.real(x.dot)) / r2
    return Dual(np.arctan2(yv, xv), dot)


# --------------------------------------------------------------------------
# Piecewise evaluation over node batches
# --------------------------------------------------------------------------

def cell_index(x, n):
    """Index k of the cell [k/n, (k+1)/n] of [0, 1] that holds x, with x
    clamped to [0, 1] and the right end in the last cell."""
    return np.minimum((np.clip(x, 0.0, 1.0) * n).astype(int), n - 1)


def take(x, idx):
    """x restricted to the nodes idx."""
    if isinstance(x, Dual):
        return _dual(x.val[idx], x.dot[idx])
    return x[idx]


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

    Each piece returns a sequence of components.  `index` holds one
    piece number (an integer or a bool) per node.  When every node falls
    in one piece, that piece runs on the arguments as given; otherwise
    each piece runs on the arguments restricted to its own nodes, and
    the components are scattered back into arrays over the whole batch.
    """
    index = np.asarray(index).astype(int, copy=False)
    first = index.flat[0]
    if (index == first).all():
        return pieces[first](*args)
    parts = []
    for k, piece in enumerate(pieces):
        idx = np.flatnonzero(index == k)
        if idx.size:
            parts.append((idx, piece(*[take(a, idx) for a in args])))
    return [_fill([(idx, out[c]) for idx, out in parts], index.size)
            for c in range(len(parts[0][1]))]


def columns(points):
    """The coordinates of a (..., n) stack of points, one array each."""
    return [points[..., k] for k in range(points.shape[-1])]


def seeded(points, directions):
    """The coordinates of a (..., n) stack of points as Duals along a
    (..., n) stack of directions."""
    return [Dual(x, y) for x, y in zip(columns(points), columns(directions))]
