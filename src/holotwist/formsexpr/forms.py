"""Chart-local matrix-valued differential forms and their quadrature.

A LocalForm of degree 0/1/2 evaluates at an ambient point (plus one or
two tangent vectors) to a square matrix living in a tagged Lie algebra.
Each form carries one derivative, its exterior derivative `d`, fixed
when the form is built: expression-backed forms derive it exactly by
forward AD, a form built from a callable takes the one its builder
passes, and sums and scalar multiples combine those of their parts.  A
form built without `d` has none.  Forms hold no coordinate names; only
expr_form takes them, to bind expression variables.

Forms of every degree are evaluated on stacks: points and tangents of
shape (N, n) give an (N, d, d) stack of values, and one point of shape
(n,) gives one (d, d) value, through the same code (evaluators index
coordinates from the last axis).  So a quadrature cell, an edge or a
line cell takes one form call.
"""

from __future__ import annotations

import functools

import numpy as np

from .. import dual as dm
from ..errors import DegreeUnsupported
from ..liecore import AlgebraElement
from .evaluate import evaluate
from .parser import Expr, parse


class LocalForm:
    """A degree 0, 1 or 2 form with values in a matrix Lie algebra; `d`
    is its exterior derivative (a LocalForm one degree up) or None.
    evalfn maps a (..., n) point stack and `degree` (..., n) tangent
    stacks to a (..., d, d) stack."""

    def __init__(self, degree, dim, evalfn, value_tag="h", d=None):
        if degree not in (0, 1, 2):
            raise DegreeUnsupported(f"degree {degree}")
        self.degree = degree
        self.dim = dim
        self.value_tag = value_tag
        self._evalfn = evalfn
        self.d = d

    def __call__(self, point, *tangents):
        if len(tangents) != self.degree:
            raise TypeError(
                f"degree-{self.degree} form takes {self.degree} tangent(s)")
        return np.asarray(self._evalfn(
            np.asarray(point, dtype=float),
            *[np.asarray(t, dtype=float) for t in tangents]), dtype=complex)

    def __add__(self, other):
        if not isinstance(other, LocalForm):
            return NotImplemented
        if self.degree != other.degree or self.dim != other.dim:
            raise DegreeUnsupported("cannot add forms of different shape")
        evalfn = lambda p, *t: self._evalfn(p, *t) + other._evalfn(p, *t)
        d = None
        if self.d is not None and other.d is not None:
            d = self.d + other.d
        return LocalForm(self.degree, self.dim, evalfn, self.value_tag, d)

    def __mul__(self, scalar):
        evalfn = lambda p, *t: scalar * np.asarray(self._evalfn(p, *t), dtype=complex)
        d = self.d * scalar if self.d is not None else None
        return LocalForm(self.degree, self.dim, evalfn, self.value_tag, d)

    __rmul__ = __mul__


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


def _eval_expr_matrix(mat, env, shape, part=dm.value):
    """The shape + (d, d) stack of part(value) of every entry, with the
    coordinates bound to node arrays (or Duals) of that shape."""
    out = np.empty(shape + (len(mat), len(mat[0])), dtype=complex)
    for r, row in enumerate(mat):
        for c, entry in enumerate(row):
            out[..., r, c] = part(evaluate(entry, env))
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

    def env(p, d=None):
        """The coordinates of a (..., n) stack as complex node arrays, so
        that every node follows complex arithmetic; as Duals along the
        directions d when they are given."""
        p = p.astype(complex)
        cols = dm.columns(p) if d is None else dm.seeded(p, d.astype(complex))
        return dict(zip(coord_names, cols))

    if degree == 0:
        mat = _as_expr_matrix(components, coord_names)
        dim = len(mat)

        def evalfn(p):
            return _eval_expr_matrix(mat, env(p), p.shape[:-1])

        def grad(p, v):
            """(p, v) -> D_v f."""
            return _eval_expr_matrix(mat, env(p, v), p.shape[:-1],
                                     dm.derivative)

        d = LocalForm(1, dim, grad, value_tag, zero_form(2, dim, value_tag))

    elif degree == 1:
        comp = {c: _as_expr_matrix(m, coord_names) for c, m in components.items()}
        dim = len(next(iter(comp.values())))

        def contract(e, v, part=dm.value):
            """sum_c v_c part(A_c) over the components."""
            total = np.zeros(v.shape[:-1] + (dim, dim), dtype=complex)
            for c, mat in comp.items():
                total += v[..., index[c], None, None] \
                    * _eval_expr_matrix(mat, e, v.shape[:-1], part)
            return total

        def evalfn(p, v):
            return contract(env(p), v)

        def curl(p, v, w):
            """D_v A(w) - D_w A(v): the coefficients differentiated."""
            return contract(env(p, v), w, dm.derivative) \
                - contract(env(p, w), v, dm.derivative)

        d = LocalForm(2, dim, curl, value_tag)

    elif degree == 2:
        comp = {}
        for (a, b), m in components.items():
            if index[a] >= index[b]:
                raise DegreeUnsupported(
                    f"degree-2 key ({a},{b}) must follow coordinate order")
            comp[(a, b)] = _as_expr_matrix(m, coord_names)
        dim = len(next(iter(comp.values())))

        def evalfn(p, v, w):
            e, shape = env(p), p.shape[:-1]
            total = np.zeros(shape + (dim, dim), dtype=complex)
            for (a, b), mat in comp.items():
                ia, ib = index[a], index[b]
                factor = v[..., ia] * w[..., ib] - v[..., ib] * w[..., ia]
                total += factor[..., None, None] \
                    * _eval_expr_matrix(mat, e, shape)
            return total

        d = None
    else:
        raise DegreeUnsupported(f"degree {degree}")

    return LocalForm(degree, dim, evalfn, value_tag, d)


def zero_form(degree, dim, value_tag="h"):
    d = zero_form(degree + 1, dim, value_tag) if degree < 2 else None
    return LocalForm(degree, dim,
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


@functools.lru_cache(maxsize=None)
def _unit_cell(order):
    """The tensor-product Gauss rule of [-1, 1]^2 at order, read-only:
    node columns repeat(x), tile(x) and weight columns repeat(w),
    tile(w), each of order^2 entries."""
    x, w = _leggauss(order)
    table = (np.repeat(x, order), np.tile(x, order),
             np.repeat(w, order), np.tile(w, order))
    for col in table:
        col.setflags(write=False)
    return table


def _cell_nodes(s0, s1, t0, t1, order):
    """The tensor-product Gauss nodes of the cell [s0, s1] x [t0, t1]:
    node arrays S, T of order^2 entries and their weights, scaled from
    the unit table (the floats of repeat, tile and outer of the
    one-dimensional rules)."""
    xs, xt, ws, wt = _unit_cell(order)
    sm, sh = 0.5 * (s0 + s1), 0.5 * (s1 - s0)
    tm, th = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
    return sm + sh * xs, tm + th * xt, (sh * ws) * (th * wt)


def _line_nodes(a, b, order, cells):
    """The Gauss nodes of [a, b] cut into cells equal cells, and their
    weights."""
    edges = np.linspace(a, b, cells + 1)
    nodes = [_gauss_nodes(edges[k], edges[k + 1], order)
             for k in range(cells)]
    return (np.concatenate([t for t, _ in nodes]),
            np.concatenate([w for _, w in nodes]))


def integrate_1form(form: LocalForm, segment, a=0.0, b=1.0, order=8,
                    cells=1) -> AlgebraElement:
    """Gauss-Legendre integral of the pullback of a 1-form.

    segment(ts) takes the array of all Gauss nodes of [a, b]
    (_line_nodes) and returns (points, tangents), each of shape (N, n),
    with the tangents the curve velocity in ambient coordinates; the
    form is evaluated once on those stacks.
    """
    if form.degree != 1:
        raise DegreeUnsupported("integrate_1form needs a degree-1 form")
    ts, ws = _line_nodes(a, b, order, cells)
    points, tangents = segment(ts)
    vals = form(points, np.asarray(tangents, dtype=float))
    return AlgebraElement(np.einsum("n,nij->ij", ws, vals), form.value_tag)


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
    # one cell: linspace would return exactly the two ends
    s_edges = s_range if cells[0] == 1 else \
        np.linspace(s_range[0], s_range[1], cells[0] + 1)
    t_edges = t_range if cells[1] == 1 else \
        np.linspace(t_range[0], t_range[1], cells[1] + 1)
    for i in range(cells[0]):
        for j in range(cells[1]):
            s, t, w = _cell_nodes(s_edges[i], s_edges[i + 1], t_edges[j],
                                  t_edges[j + 1], order)
            point, dps, dpt = patch(s, t)
            vals = form(point, np.asarray(dps, dtype=float),
                        np.asarray(dpt, dtype=float))
            total += np.einsum("n,nij->ij", w, vals)
    return AlgebraElement(total, form.value_tag)
