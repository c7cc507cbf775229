"""Chart-local matrix-valued differential forms and their quadrature.

A LocalForm of degree 0/1/2 evaluates at an ambient point (plus one or
two tangent vectors) to a square matrix living in a tagged Lie algebra.
Each form carries one derivative, its exterior derivative `d`, fixed
when the form is built: expression-backed forms derive it exactly by
forward AD, native callables carry the one their caller supplies, and
sums and scalar multiples combine those of their parts.  A form built
without `d` has none.

Degree-2 forms are evaluated on stacks: points and tangents of shape
(N, n) give an (N, d, d) stack of values (one point of shape (n,) gives
one (d, d) value), so a quadrature cell takes one form call.  Degree-0
and degree-1 forms are evaluated one point at a time.
"""

from __future__ import annotations

import functools

import numpy as np

from ..dual import Dual
from ..errors import DegreeUnsupported
from ..liecore import AlgebraElement
from .evaluate import _eval
from .parser import Expr, parse


class LocalForm:
    """A degree 0, 1 or 2 form with values in a matrix Lie algebra; `d`
    is its exterior derivative (a LocalForm one degree up) or None.
    A degree-2 evalfn maps (N, n) stacks to (N, d, d) stacks."""

    def __init__(self, degree, dim, coord_names, evalfn, value_tag="h",
                 d=None):
        if degree not in (0, 1, 2):
            raise DegreeUnsupported(f"degree {degree}")
        self.degree = degree
        self.dim = dim
        self.coord_names = tuple(coord_names)
        self.value_tag = value_tag
        self._evalfn = evalfn
        self.d = d

    def __call__(self, point, *tangents):
        if len(tangents) != self.degree:
            raise TypeError(
                f"degree-{self.degree} form takes {self.degree} tangent(s)")
        return np.asarray(self._evalfn(np.asarray(point, dtype=float), *tangents),
                          dtype=complex)

    def __add__(self, other):
        if not isinstance(other, LocalForm):
            return NotImplemented
        if self.degree != other.degree or self.dim != other.dim:
            raise DegreeUnsupported("cannot add forms of different shape")
        evalfn = lambda p, *t: self._evalfn(p, *t) + other._evalfn(p, *t)
        d = None
        if self.d is not None and other.d is not None:
            d = self.d + other.d
        return LocalForm(self.degree, self.dim, self.coord_names, evalfn,
                         self.value_tag, d)

    def __mul__(self, scalar):
        evalfn = lambda p, *t: scalar * np.asarray(self._evalfn(p, *t), dtype=complex)
        d = self.d * scalar if self.d is not None else None
        return LocalForm(self.degree, self.dim, self.coord_names, evalfn,
                         self.value_tag, d)

    __rmul__ = __mul__


def _nonzero(x):
    """Whether a scalar, or any node of an array, is nonzero."""
    return x.any() if isinstance(x, np.ndarray) else x != 0


def _as_expr_matrix(mat, coords):
    rows = []
    for row in mat:
        out = []
        for entry in row:
            if isinstance(entry, Expr):
                out.append(entry)
            else:
                out.append(parse(str(entry), coords=set(coords)))
        rows.append(out)
    return rows


def _eval_expr_matrix(mat, env, shape=()):
    """The matrix at one point, or its (N, n, m) stack when the bound
    coordinates are node arrays of shape (N,)."""
    n = len(mat)
    out = np.empty(shape + (n, len(mat[0])), dtype=complex)
    for r, row in enumerate(mat):
        for c, entry in enumerate(row):
            v = _eval(entry, env)
            out[..., r, c] = v.val if isinstance(v, Dual) else v
    return out


def expr_form(degree, components, coord_names, value_tag="h"):
    """Build an expression-backed form with its exact exterior derivative.

    components: degree 0 -> a matrix of expression strings/ASTs;
    degree 1 -> {coord: matrix}; degree 2 -> {(c1, c2): matrix} giving
    the coefficient of dc1 ^ dc2 (keys must have c1 before c2 in
    coord_names order).  Degree-2 forms carry no derivative.
    """
    coord_names = tuple(coord_names)
    index = {c: k for k, c in enumerate(coord_names)}

    def point_env(p):
        cols = p.T if p.ndim > 1 else p
        return {c: cols[index[c]] for c in coord_names}

    def dual_env(p, d):
        if p.ndim > 1:
            # complex node arrays, so that every node follows the
            # complex arithmetic of a scalar Dual
            p, d = p.T.astype(complex), d.T.astype(complex)
        return {c: Dual(p[index[c]], d[index[c]]) for c in coord_names}

    if degree == 0:
        mat = _as_expr_matrix(components, coord_names)
        dim = len(mat)

        def evalfn(p):
            env = {c: p[index[c]] for c in coord_names}
            return _eval_expr_matrix(mat, env)

        def grad(p, v):
            """(p, v) -> D_v f."""
            env = dual_env(p, v)
            out = np.empty((dim, dim), dtype=complex)
            for r, row in enumerate(mat):
                for c2, entry in enumerate(row):
                    val = _eval(entry, env)
                    out[r, c2] = val.dot if isinstance(val, Dual) else 0.0
            return out

        d = LocalForm(1, dim, coord_names, grad, value_tag,
                      zero_form(2, dim, coord_names, value_tag))

    elif degree == 1:
        comp = {c: _as_expr_matrix(m, coord_names) for c, m in components.items()}
        dim = len(next(iter(comp.values())))

        def evalfn(p, v):
            env = {c: p[index[c]] for c in coord_names}
            total = np.zeros((dim, dim), dtype=complex)
            for c, mat in comp.items():
                vc = v[index[c]]
                if vc != 0:
                    total += vc * _eval_expr_matrix(mat, env)
            return total

        def derivative(p, d, v):
            """D_d A(v): the coefficients differentiated along d."""
            env = dual_env(p, d)
            total = np.zeros(p.shape[:-1] + (dim, dim), dtype=complex)
            for c, mat in comp.items():
                vc = v.T[index[c]]
                if not _nonzero(vc):
                    continue
                for r, row in enumerate(mat):
                    for c2, entry in enumerate(row):
                        val = _eval(entry, env)
                        if isinstance(val, Dual):
                            total[..., r, c2] += vc * val.dot
            return total

        def curl(p, v, w):
            return derivative(p, v, w) - derivative(p, w, v)

        d = LocalForm(2, dim, coord_names, curl, value_tag)

    elif degree == 2:
        comp = {}
        for (a, b), m in components.items():
            if index[a] >= index[b]:
                raise DegreeUnsupported(
                    f"degree-2 key ({a},{b}) must follow coordinate order")
            comp[(a, b)] = _as_expr_matrix(m, coord_names)
        dim = len(next(iter(comp.values())))

        def evalfn(p, v, w):
            env = point_env(p)
            shape = p.shape[:-1]
            total = np.zeros(shape + (dim, dim), dtype=complex)
            for (a, b), mat in comp.items():
                ia, ib = index[a], index[b]
                factor = v[..., ia] * w[..., ib] - v[..., ib] * w[..., ia]
                if _nonzero(factor):
                    total += factor[..., None, None] \
                        * _eval_expr_matrix(mat, env, shape)
            return total

        d = None
    else:
        raise DegreeUnsupported(f"degree {degree}")

    return LocalForm(degree, dim, coord_names, evalfn, value_tag, d)


def native_form(degree, fn, dim, coord_names, value_tag="h", d=None):
    """Wrap a native callable (point, *tangents) -> matrix as a LocalForm,
    with `d` its exterior derivative if the caller has one."""
    return LocalForm(degree, dim, coord_names, fn, value_tag, d)


def zero_form(degree, dim, coord_names, value_tag="h"):
    d = zero_form(degree + 1, dim, coord_names, value_tag) if degree < 2 \
        else None
    return LocalForm(degree, dim, coord_names,
                     lambda p, *t: np.zeros(np.shape(p)[:-1] + (dim, dim),
                                            dtype=complex), value_tag, d)


def exterior_derivative(form: LocalForm) -> LocalForm:
    """The exterior derivative the form was built with."""
    if form.d is None:
        raise DegreeUnsupported(
            f"this degree-{form.degree} form carries no exterior derivative")
    return form.d


@functools.lru_cache(maxsize=None)
def _leggauss(order):
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _gauss_nodes(a, b, order):
    x, w = _leggauss(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def integrate_1form(form: LocalForm, segment, a=0.0, b=1.0, order=8,
                    cells=1) -> AlgebraElement:
    """Gauss-Legendre integral of the pullback of a 1-form.

    segment(ts) takes the array of all Gauss nodes of [a, b] and returns
    (points, tangents), each of shape (N, n), with the tangents the
    curve velocity in ambient coordinates; the form is then evaluated
    node by node.
    """
    if form.degree != 1:
        raise DegreeUnsupported("integrate_1form needs a degree-1 form")
    edges = np.linspace(a, b, cells + 1)
    nodes = [_gauss_nodes(edges[k], edges[k + 1], order)
             for k in range(cells)]
    ts = np.concatenate([t for t, _ in nodes])
    ws = np.concatenate([w for _, w in nodes])
    points, tangents = segment(ts)
    total = np.zeros((form.dim, form.dim), dtype=complex)
    for point, tangent, w in zip(points, np.asarray(tangents, dtype=float),
                                 ws):
        total += w * form(point, tangent)
    return AlgebraElement(total, form.value_tag)


def integrate_2form(form: LocalForm, patch, s_range=(0.0, 1.0),
                    t_range=(0.0, 1.0), order=8,
                    cells=(1, 1)) -> AlgebraElement:
    """Tensor-product Gauss integral of F(d_s patch, d_t patch) ds dt.

    patch(S, T) takes the node arrays of one cell (N = order^2 nodes)
    and returns stacks (points, dpds, dpdt), each of shape (N, n); the
    form is evaluated once per cell on those stacks.
    """
    if form.degree != 2:
        raise DegreeUnsupported("integrate_2form needs a degree-2 form")
    total = np.zeros((form.dim, form.dim), dtype=complex)
    s_edges = np.linspace(s_range[0], s_range[1], cells[0] + 1)
    t_edges = np.linspace(t_range[0], t_range[1], cells[1] + 1)
    for i in range(cells[0]):
        ss, sw = _gauss_nodes(s_edges[i], s_edges[i + 1], order)
        for j in range(cells[1]):
            ts, tw = _gauss_nodes(t_edges[j], t_edges[j + 1], order)
            point, dps, dpt = patch(np.repeat(ss, order), np.tile(ts, order))
            vals = form(point, np.asarray(dps, dtype=float),
                        np.asarray(dpt, dtype=float))
            total += np.einsum("n,nij->ij", np.outer(sw, tw).ravel(), vals)
    return AlgebraElement(total, form.value_tag)
