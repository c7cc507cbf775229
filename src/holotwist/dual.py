"""First-order dual numbers over numpy node arrays.

Used for exact derivatives of expression ASTs along a direction and of
the closed-form curves/cylinders in the geometry catalog.  Only the function
set needed by the expression grammar is provided, plus the smooth step
of the collar warps.

A Dual holds a value array over a batch of nodes and a derivative part
that is either one array of the same shape or a stack of shape (k, ...)
of k tangent directions over those nodes, carried through one sweep
(vector-mode forward differentiation); every operation and function acts
on each direction as it does on a one-direction Dual.  Arrays are
evaluated with numpy (real arrays staying real); numpy scalars pass
through the same code.  Domain errors are raised when any node of a
batch leaves the domain.  `choose` selects one of several values per
node, so that a piecewise map is evaluated as one batch.
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
    """a + b*eps with eps^2 = 0; a a node array, b a node array or a
    (k, ...) stack of k directions over the nodes."""

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
            if not isinstance(other, np.ndarray) and other == 0:
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


# exp(-1/u) underflows to exactly 0 for 0 < u <= 1/746 (below about
# exp(-745.1)), so the step is flat there and at the mirrored end.
_STEP_EDGE = 1.0 / 746.0


def smooth_step(x):
    """Monotone C-infinity step a / (a + b), a = exp(-1/u) and
    b = exp(-1/(1 - u)): 0 for u <= 0, 1 for u >= 1.  Its derivative
    a b (1/u^2 + 1/(1 - u)^2) / (a + b)^2 is chained onto the directions
    of a Dual.  Only the nodes where neither exponential underflows are
    computed; elsewhere the step is exactly 0 or 1 with derivative 0."""
    u = np.asarray(value(x))
    w = 1.0 - u
    inner = (u > _STEP_EDGE) & (w > _STEP_EDGE)
    flat = None
    if not inner.all():
        flat = np.where(u < 0.5, 0.0 * u, 1.0)
        u, w = np.where(inner, u, 0.5), np.where(inner, w, 0.5)
    iu, iw = 1.0 / u, 1.0 / w
    a, b = np.exp(-iu), np.exp(-iw)
    ab = a + b
    val = a / ab
    if not isinstance(x, Dual):
        return val if flat is None else np.where(inner, val, flat)
    slope = a * (b * (iu * iu + iw * iw)) / (ab * ab)
    if flat is not None:
        val, slope = np.where(inner, val, flat), np.where(inner, slope, 0.0)
    return _dual(val, slope * x.dot)


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
# Selection over node batches
# --------------------------------------------------------------------------

def cell_index(x, n):
    """Index k of the cell [k/n, (k+1)/n] of [0, 1] that holds x, with x
    clamped to [0, 1] and the right end in the last cell."""
    return np.minimum((np.clip(x, 0.0, 1.0) * n).astype(int), n - 1)


def choose(index, options):
    """options[index] at every node: np.choose over the values and the
    derivatives of constants, node arrays and Duals (a constant or a node
    array has derivative 0).  `index` holds one option number (an
    integer or a bool) per node."""
    if any(isinstance(o, Dual) for o in options):
        return _dual(np.choose(index, [value(o) for o in options]),
                     np.choose(index, [derivative(o) for o in options]))
    return np.choose(index, options)


def columns(points):
    """The coordinates of a (..., n) stack of points, one array each."""
    return [points[..., k] for k in range(points.shape[-1])]


def seeded(points, directions):
    """The coordinates of a (..., n) stack of points as Duals along a
    (..., n) stack of directions."""
    return [Dual(x, y) for x, y in zip(columns(points), columns(directions))]
