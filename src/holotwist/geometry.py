"""Manifold models, covers, based loops/cylinders with sitting collars,
and the subdivision machinery that assigns charts to parameter cells.

Curves and surfaces are stored as closed-form maps that accept dual
numbers in their parameters, so velocities and partials are exact: a
cylinder's point and both partials come from one call of its map, with
s and t seeded as two directions of one Dual derivative stack.  Collars
are warped by the closed-form dual step (dual.smooth_step).  The maps
run on arrays of nodes; a scalar parameter is evaluated as a batch of
one node.  Gluings select per node (dual.choose): each half runs with
the other half's nodes pinned at the seam, and a batch that falls in
one half runs that half alone.  Chart membership and the point tests
of a model take one point of shape (n,) or a stack of shape (N, n).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dual import Dual, value
from . import dual as dm
from .errors import (
    BoundaryMismatch,
    InvalidReparam,
    MaxDepthExceeded,
)

BASEPOINT_TOL = 1e-12
DEFAULT_COLLAR = 1.0 / 16.0
STACK_TOL = 1e-10   # boundary mismatch allowed when stacking cylinders


# --------------------------------------------------------------------------
# Smooth C-infinity steps and warps (all dual-capable)
# --------------------------------------------------------------------------

def collar_warp(t, delta=DEFAULT_COLLAR):
    """[0,1] -> [0,1], constant 0 on [0, delta], constant 1 on [1-delta, 1]."""
    return dm.smooth_step((t - delta) / (1.0 - 2.0 * delta))


class Reparam:
    """A smooth self-map of [0,1] with fixed endpoints.

    Monotone maps give ordinary reparametrizations; non-monotone ones
    describe back-and-forth folds, which are thin because the image of
    the curve is unchanged.
    """

    def __init__(self, fn):
        self.fn = fn
        ts = np.linspace(0.0, 1.0, 97)
        vs = np.broadcast_to(np.real(value(fn(ts))), ts.shape)
        if abs(vs[0]) > 1e-9 or abs(vs[-1] - 1.0) > 1e-9:
            raise InvalidReparam(f"endpoints map to ({vs[0]}, {vs[-1]})")
        for t, v in zip(ts, vs):
            if v < -1e-9 or v > 1.0 + 1e-9:
                raise InvalidReparam(f"value {v} at t={t} leaves [0,1]")

    def __call__(self, t):
        return self.fn(t)


def monotone_warp():
    """Collar-fixing monotone warp w(t) = collar_warp(t)^2, smooth where
    the collar profile vanishes."""
    return Reparam(lambda t: collar_warp(t) ** 2)


def fold_reparam(waypoints=(0.0, 0.7, 0.4, 1.0)):
    """Piecewise smooth map visiting the waypoints; flat at every joint,
    so the pieces glue to a C-infinity self-map of [0,1]."""
    pts = np.array([float(p) for p in waypoints])
    if pts[0] != 0.0 or pts[-1] != 1.0:
        raise InvalidReparam("fold must start at 0 and end at 1")
    n = len(pts) - 1

    def fn(t):
        k = dm.cell_index(value(t).real, n)
        u = (t - k / n) * n
        return pts[k] + (pts[k + 1] - pts[k]) * dm.smooth_step(u)

    return Reparam(fn)


# --------------------------------------------------------------------------
# Manifold models
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ManifoldModel:
    """One of the built-in 2-dimensional models."""

    kind: str                     # "sphere" | "torus" | "plane"
    basepoint: np.ndarray
    coord_names: tuple
    periodic: bool = False        # points identified mod 1 componentwise

    def __post_init__(self):
        bp = np.array(self.basepoint, dtype=float)
        bp.setflags(write=False)
        object.__setattr__(self, "basepoint", bp)
        if self.kind == "sphere" and abs(np.linalg.norm(bp) - 1.0) > BASEPOINT_TOL:
            raise ValueError("sphere basepoint must be a unit vector")

    @property
    def ambient_dim(self):
        return len(self.coord_names)

    def reduce(self, point):
        """Canonical representative (mod 1 on the torus)."""
        p = np.asarray(point, dtype=float)
        return np.mod(p, 1.0) if self.periodic else p

    def wrap(self, d):
        """A displacement d, or a stack of them, wrapped into [-1/2, 1/2]
        componentwise on the torus."""
        return d - np.round(d) if self.periodic else d

    def project(self, q):
        """An ambient point q, or a stack of them, radially projected onto
        the sphere.  One dot product per point: it matches
        np.linalg.norm of one vector bit for bit, where a stacked norm
        does not."""
        if self.kind != "sphere":
            return q
        return q / np.sqrt(np.vecdot(q, q))[..., None]

    def tangent(self, point, v):
        """The ambient vector v at a point, or a stack of them at a stack
        of points, projected onto the sphere's tangent plane there."""
        if self.kind == "sphere":
            return v - np.vecdot(v, point)[..., None] * point
        return v

    def same_point(self, a, b, tol=BASEPOINT_TOL):
        """Whether a and b agree, at one point or at each of a stack."""
        d = self.wrap(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
        return np.linalg.norm(d, axis=-1) <= tol

    def is_basepoint(self, p, tol=BASEPOINT_TOL):
        return self.same_point(p, self.basepoint, tol)

    def random_points(self, rng, n):
        """n random points as an (n, dim) stack.  The generator fills the
        stack value by value, so these are the points (and the final
        state) of n one-point draws."""
        if self.kind == "sphere":
            return self.project(rng.normal(size=(n, 3)))
        if self.kind == "torus":
            return rng.uniform(0.0, 1.0, size=(n, 2))
        return rng.uniform(-1.0, 1.0, size=(n, 2))


def make_model(kind) -> ManifoldModel:
    if kind == "sphere":
        return ManifoldModel("sphere", np.array([0.0, 0.0, 1.0]),
                             ("x", "y", "z"))
    if kind == "torus":
        return ManifoldModel("torus", np.array([0.0, 0.0]), ("u", "v"),
                             periodic=True)
    if kind == "plane":
        return ManifoldModel("plane", np.array([0.0, 0.0]), ("x", "y"))
    raise ValueError(f"unknown model kind {kind!r}")


# --------------------------------------------------------------------------
# Charts and covers
# --------------------------------------------------------------------------

class Chart:
    """A labelled open region with a margin used for robust containment.

    contains takes one point of shape (n,) and returns a bool, or a stack
    of shape (N, n) and returns one bool per point."""

    def __init__(self, label, member, margin):
        self.label = label
        self._member = member          # (points, shrink) -> bools
        self.margin = margin

    def contains(self, point, with_margin=False):
        return self._member(np.asarray(point, dtype=float),
                            self.margin if with_margin else 0.0)

    def __repr__(self):
        return f"Chart({self.label!r})"


def cap_chart(label, axis, cos_threshold):
    """The cap p . axis > cos_threshold, with margin 0.05."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)

    def member(p, shrink):
        # vecdot, not p @ axis: a stack then gives each point the bits of
        # its one-point dot product
        return np.vecdot(p, axis) > cos_threshold + shrink

    return Chart(label, member, 0.05)


def square_chart(label, center, half_width, margin=0.02):
    center = np.asarray(center, dtype=float)

    def member(p, shrink):
        d = np.mod(p - center + 0.5, 1.0) - 0.5
        return np.all(np.abs(d) < half_width - shrink, axis=-1)

    return Chart(label, member, margin)


def box_chart(label, lo, hi):
    """The open box lo < p < hi, with margin 0.02."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)

    def member(p, shrink):
        return np.all((p > lo + shrink) & (p < hi - shrink), axis=-1)

    return Chart(label, member, 0.02)


@dataclass(frozen=True)
class Cover:
    """Ordered charts; chart 0 contains the basepoint."""

    name: str
    model: ManifoldModel
    charts: tuple

    def __post_init__(self):
        if not self.charts:
            raise ValueError("cover needs at least one chart")
        if not self.charts[0].contains(self.model.reduce(self.model.basepoint),
                                       with_margin=True):
            raise ValueError("chart 0 must contain the basepoint with margin")

    def __len__(self):
        return len(self.charts)


# Cap axes at polar angle 82 degrees, azimuths 120 degrees apart: the caps
# (dot > -0.25) cover the sphere with both poles in every cap, yet no single
# margin-shrunk cap contains a whole great circle.
_CAP_POLAR = math.radians(82.0)
SPHERE_CAP_AXES = tuple(
    np.array([math.sin(_CAP_POLAR) * math.cos(phi),
              math.sin(_CAP_POLAR) * math.sin(phi),
              math.cos(_CAP_POLAR)])
    for phi in (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)
)


# Centers of the four square charts of the torus cover.
TORUS_SQUARE_CENTERS = ((0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5))


def make_cover(name) -> Cover:
    if name == "sphere-3caps":
        model = make_model("sphere")
        charts = tuple(cap_chart(f"cap{k}", ax, -0.25)
                       for k, ax in enumerate(SPHERE_CAP_AXES))
        return Cover(name, model, charts)
    if name == "torus-4squares":
        model = make_model("torus")
        charts = tuple(square_chart(f"sq{k}", c, 0.35, margin=0.03)
                       for k, c in enumerate(TORUS_SQUARE_CENTERS))
        return Cover(name, model, charts)
    if name == "plane-1":
        model = make_model("plane")
        return Cover(name, model, (box_chart("all", [-1.1, -1.1], [1.1, 1.1]),))
    raise ValueError(f"unknown cover {name!r}")


COVER_FOR_MODEL = {"sphere": "sphere-3caps", "torus": "torus-4squares",
                   "plane": "plane-1"}


# --------------------------------------------------------------------------
# Loops and cylinders
# --------------------------------------------------------------------------

def _on_nodes(method):
    """Run a Loop or Cylinder evaluator on float node arrays of one shape
    (the parameters broadcast); scalar parameters run as one node and
    give one point."""
    @functools.wraps(method)
    def wrapper(self, *params):
        out = method(self, *np.broadcast_arrays(
            *[np.atleast_1d(np.asarray(x, dtype=float)) for x in params]))
        if any(np.ndim(x) for x in params):
            return out
        return tuple(o[0] for o in out) if isinstance(out, tuple) else out[0]

    return wrapper


def _seed(t):
    """t as a Dual with unit derivative at every node."""
    return Dual(t, np.ones_like(t))


def _like(c, t):
    """The constant c at every node of t (a node array or a Dual)."""
    return np.full(np.shape(value(t)), c)


def _components(values, shape):
    return np.stack([np.broadcast_to(np.real(value(v)), shape)
                     for v in values], axis=-1)


def _dots(values, shape):
    return np.stack([np.broadcast_to(np.real(dm.derivative(v)), shape)
                     for v in values], axis=-1)


class Loop:
    """A smooth based loop with sitting collars.

    fn(t) maps a float array over nodes (possibly inside a Dual) to a
    sequence of coordinates of the same kind; velocities come from
    evaluating fn on dual numbers.  eval, deriv and eval_with_deriv take
    an array of nodes and return (N, dim) stacks, or a scalar t and
    return (dim,) arrays.
    """

    def __init__(self, model, fn, collar_width=DEFAULT_COLLAR, check=True):
        self.model = model
        self.fn = fn
        self.collar_width = collar_width
        if check:
            self._validate()

    def _validate(self):
        d = self.collar_width
        # the ends, then collar nodes alternating start and end
        ts = np.array([0.0, 1.0, d * 0.25, 1.0 - d * 0.25, d * 0.75,
                       1.0 - d * 0.75])
        p, v = self.eval_with_deriv(ts)
        for k in (0, 1):
            if not self.model.is_basepoint(p[k], tol=1e-10):
                raise BoundaryMismatch(f"loop not based at t={ts[k]}")
        for k in range(2, 6):
            if not self.model.same_point(p[k], p[k % 2], tol=1e-10) \
               or np.linalg.norm(v[k]) > 1e-10:
                raise BoundaryMismatch("loop does not sit on its "
                                       f"{('start', 'end')[k % 2]} collar")

    @_on_nodes
    def eval(self, t):
        return _components(self.fn(t), t.shape)

    @_on_nodes
    def deriv(self, t):
        return _dots(self.fn(_seed(t)), t.shape)

    @_on_nodes
    def eval_with_deriv(self, t):
        out = self.fn(_seed(t))
        return _components(out, t.shape), _dots(out, t.shape)


class Cylinder:
    """A smooth based homotopy c(s, t) sitting on its whole boundary.

    fn(s, t) follows the Loop contract in both parameters; eval and
    eval_with_partials broadcast s against t and return (N, dim) stacks
    for node arrays, (dim,) arrays for scalars.  fn also takes Duals
    whose derivative parts are stacks of directions over the nodes, so
    eval_with_partials calls it once.
    """

    def __init__(self, model, fn, collar_width=DEFAULT_COLLAR, check=True):
        self.model = model
        self.fn = fn
        self.collar_width = collar_width
        if check:
            self._validate()

    def _validate(self):
        s, t = np.repeat([0.0, 0.3, 0.77, 1.0], 2), np.tile([0.0, 1.0], 4)
        based = self.model.is_basepoint(self.eval(s, t), tol=1e-10)
        for sk, tk, ok in zip(s, t, based):
            if not ok:
                raise BoundaryMismatch(
                    f"cylinder not based at (s,t)=({sk},{tk})")
        # constancy on the boundary collar, probed along each side
        c = self.collar_width * 0.3
        probes = [(axis, (edge, u) if axis == 0 else (u, edge))
                  for u in (0.2, 0.8) for axis in (0, 1)
                  for edge in (c, 1.0 - c)]
        s, t = np.array([st for _, st in probes]).T
        _, ds, dt = self.eval_with_partials(s, t)
        for (axis, _), dsk, dtk in zip(probes, ds, dt):
            if np.linalg.norm((dsk, dtk)[axis]) > 1e-9:
                raise BoundaryMismatch(
                    f"cylinder moves inside its {'st'[axis]}-collar")

    @_on_nodes
    def eval(self, s, t):
        return _components(self.fn(s, t), s.shape)

    @_on_nodes
    def eval_with_partials(self, s, t):
        # one pass: s and t are directions 0 and 1 of one derivative stack
        unit = np.eye(2).reshape((2, 2) + (1,) * s.ndim)
        out = self.fn(Dual(s, unit[0]), Dual(t, unit[1]))
        p = np.empty(s.shape + (len(out),))
        d = np.empty((2,) + p.shape)
        for k, c in enumerate(out):
            p[..., k] = np.real(value(c))
            d[..., k] = np.real(dm.derivative(c))
        return p, d[0], d[1]

    @_on_nodes
    def eval_with_t_partial(self, s, t):
        """Points and t-partials in one call of fn, t seeded alone: at
        s = 0 (1) the bits of bottom_loop (top_loop) eval_with_deriv."""
        out = self.fn(s, _seed(t))
        return _components(out, s.shape), _dots(out, s.shape)

    def bottom_loop(self) -> Loop:
        return Loop(self.model, lambda t: self.fn(_like(0.0, t), t),
                    self.collar_width, check=False)

    def top_loop(self) -> Loop:
        return Loop(self.model, lambda t: self.fn(_like(1.0, t), t),
                    self.collar_width, check=False)


def constant_loop(model) -> Loop:
    bp = model.basepoint

    def fn(t):
        return [c + 0.0 * t for c in bp]

    return Loop(model, fn, DEFAULT_COLLAR, check=False)


def constant_cylinder(loop: Loop) -> Cylinder:
    return Cylinder(loop.model, lambda s, t: loop.fn(t), loop.collar_width,
                    check=False)


# --------------------------------------------------------------------------
# Compositions
# --------------------------------------------------------------------------

def _glued(x, first, second):
    """first(x) on the nodes with x <= 1/2 and second(x) beyond.

    A batch on one side of the seam runs that half alone.  A mixed batch
    runs each half with the other half's nodes pinned at the seam 1/2,
    where both halves sit on their shared boundary, and selects per
    node.
    """
    right = value(x).real > 0.5
    if not right.any():
        return first(x)
    if right.all():
        return second(x)
    return [dm.choose(right, pair) for pair in zip(
        first(dm.choose(right, [x, 0.5])), second(dm.choose(right, [0.5, x])))]


def _shifted(out, offset):
    return out if offset is None else [c + o for c, o in zip(out, offset)]


def concat_loops(l1: Loop, l2: Loop) -> Loop:
    """First l1 then l2, rescaled to [0,1]; smooth thanks to the collars."""
    if l1.model.kind != l2.model.kind:
        raise BoundaryMismatch("loops live on different models")
    model = l1.model
    offset = l1.eval(1.0) - l2.eval(0.0) if model.periodic else None

    def fn(t):
        return _glued(t, lambda t: l1.fn(2.0 * t),
                      lambda t: _shifted(l2.fn(2.0 * t - 1.0), offset))

    return Loop(model, fn, min(l1.collar_width, l2.collar_width) / 2.0,
                check=False)


def reverse_loop(l: Loop) -> Loop:
    return Loop(l.model, lambda t: l.fn(1.0 - t), l.collar_width, check=False)


def compose_cylinders_vertical(c1: Cylinder, c2: Cylinder) -> Cylinder:
    """Stack homotopies: first c1 (s in [0,1/2]) then c2."""
    model = c1.model
    offset = None
    if model.periodic:
        offset = c1.eval(1.0, 0.5) - c2.eval(0.0, 0.5)
    ts = np.linspace(0.0, 1.0, 17)
    ends = c1.eval(1.0, ts)
    starts = c2.eval(0.0, ts) + (offset if offset is not None else 0.0)
    for t, a, b in zip(ts, ends, starts):
        if not model.same_point(a, b, tol=STACK_TOL) \
                or np.linalg.norm(a - b) > STACK_TOL:
            raise BoundaryMismatch(
                f"end loop of first cylinder differs from start of second at t={t}")

    def fn(s, t):
        return _glued(s, lambda s: c1.fn(2.0 * s, t),
                      lambda s: _shifted(c2.fn(2.0 * s - 1.0, t), offset))

    return Cylinder(model, fn, min(c1.collar_width, c2.collar_width) / 2.0,
                    check=False)


def compose_cylinders_horizontal(c1: Cylinder, c2: Cylinder) -> Cylinder:
    """Concatenate in the loop direction: each slice is slice1 * slice2."""
    model = c1.model

    def second(s, t):
        offset = None
        if model.periodic:
            sv = value(s).real
            offset = np.moveaxis(c1.eval(sv, 1.0) - c2.eval(sv, 0.0), -1, 0)
        return _shifted(c2.fn(s, 2.0 * t - 1.0), offset)

    def fn(s, t):
        return _glued(t, lambda t: c1.fn(s, 2.0 * t), lambda t: second(s, t))

    return Cylinder(model, fn, min(c1.collar_width, c2.collar_width) / 2.0,
                    check=False)


def deform_thin(obj, reparam: Reparam, axis="t"):
    """Precompose a loop (or one parameter of a cylinder) with a smooth
    self-map of [0,1]; the image is unchanged, so the deformation is thin."""
    if not isinstance(reparam, Reparam):
        reparam = Reparam(reparam)
    if isinstance(obj, Loop):
        return Loop(obj.model, lambda t: obj.fn(reparam(t)),
                    obj.collar_width, check=False)
    if axis == "t":
        fn = lambda s, t: obj.fn(s, reparam(t))
    else:
        fn = lambda s, t: obj.fn(reparam(s), t)
    return Cylinder(obj.model, fn, obj.collar_width, check=False)


# --------------------------------------------------------------------------
# Subdivisions and chart assignment
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class IntervalSubdivision:
    breakpoints: tuple      # sorted, includes 0 and 1
    charts: tuple           # one chart index per cell
    sample_density: int

    @property
    def cells(self):
        return list(zip(self.breakpoints[:-1], self.breakpoints[1:]))


@dataclass(frozen=True)
class RectSubdivision:
    s_breaks: tuple
    t_breaks: tuple
    charts: tuple           # row-major tuple of tuples, [is][it]
    sample_density: int

    @property
    def shape(self):
        return (len(self.s_breaks) - 1, len(self.t_breaks) - 1)


def _cell_rows(a, b, n):
    """n samples of each cell [a[i], b[i]], one row per cell: what
    np.linspace(a, b, n, axis=-1) gives for cells of nonzero width, bit
    for bit, without its fixed cost."""
    a, b = np.asarray(a), np.asarray(b)
    rows = np.arange(n) * ((b - a) / (n - 1))[:, None] + a[:, None]
    rows[:, -1] = b
    return rows


def _fits(cover, pts, cells):
    """Whether each margin-shrunk chart holds all samples of each cell:
    (charts, cells) booleans for the samples pts of cell after cell."""
    pts = cover.model.reduce(pts)
    return np.array([chart.contains(pts, with_margin=True)
                     .reshape(cells, -1).all(axis=1)
                     for chart in cover.charts])


def _bisect_charts(evaluate, cover, slices, max_depth=14,
                   samples_per_cell=17):
    """Chart assignment by bisection, one call evaluate(s, ts) per level
    for every loop s of slices in lockstep (s[i] names the loop of node
    ts[i]): a cell takes the lowest chart that holds its samples with
    margin; a cell that fits none is split in two for the next level.
    Returns one IntervalSubdivision per loop; at max_depth the first
    loop with a cell left raises MaxDepthExceeded, as alone it would."""
    n = samples_per_cell
    cells = np.array([[0.0, 1.0, s] for s in slices])      # (a, b, s)
    done = []
    for depth in range(max_depth + 1):
        ts = _cell_rows(cells[:, 0], cells[:, 1], n)
        fits = _fits(cover, evaluate(np.repeat(cells[:, 2], n), ts.ravel()),
                     len(cells))
        ok = fits.any(axis=0)
        done += zip(cells[ok, 2].tolist(), cells[ok, 0].tolist(),
                    fits[:, ok].argmax(axis=0).tolist())
        cells = cells[~ok]
        if not len(cells):
            subs = []
            for s in slices:
                a, charts = zip(*sorted(d[1:] for d in done if d[0] == s))
                subs.append(IntervalSubdivision(a + (1.0,), charts, n))
            return subs
        if depth == max_depth:
            # the cell a depth-first search, right half first, meets first
            s = next(s for s in slices if (cells[:, 2] == s).any())
            a, b = cells[cells[:, 2] == s][-1, :2].tolist()
            raise MaxDepthExceeded(
                f"interval [{a},{b}] fits no chart at depth {depth}")
        mid = 0.5 * (cells[:, 0] + cells[:, 1])
        cells = np.stack([cells[:, 0], mid, cells[:, 2], mid, cells[:, 1],
                          cells[:, 2]], axis=-1).reshape(-1, 3)


def assign_charts_interval(loop: Loop, cover: Cover, max_depth=14,
                           samples_per_cell=17) -> IntervalSubdivision:
    """Bisection, one loop call per level: a cell takes the lowest chart
    that holds its samples with margin; a cell that fits none is split
    in two for the next level."""
    return _bisect_charts(lambda s, ts: loop.eval(ts), cover, [0.0],
                          max_depth, samples_per_cell)[0]


def _assign_charts_boundaries(cylinder: Cylinder, cover: Cover, bottom=None,
                              top=None):
    """The bottom and top subdivisions of a cylinder, each assigned
    unless given: both boundary loops bisected in lockstep, one cylinder
    call at s = 0 and s = 1 per level, with the subdivisions and the
    errors of assign_charts_interval on bottom_loop(), then top_loop()."""
    ends = [s for s, sub in ((0.0, bottom), (1.0, top)) if sub is None]
    subs = dict(zip(ends, _bisect_charts(cylinder.eval, cover, ends))) \
        if ends else {}
    return subs.get(0.0, bottom), subs.get(1.0, top)


def assign_charts_rect(cylinder: Cylinder, cover: Cover, max_depth=12,
                       samples_per_cell=5,
                       bottom: IntervalSubdivision = None,
                       top: IntervalSubdivision = None) -> RectSubdivision:
    """Assign charts on a regular grid, one cylinder call per level: a
    cell takes the lowest chart that holds its samples with margin; a
    cell that fits none halves its row and its column.

    When boundary subdivisions are given, the bottom/top rows keep their
    charts (refinements of a boundary cell keep its chart), and a cell
    there that does not fit its chart halves its row only.
    """
    # the last row, then the first, so that the bottom wins when ns == 1
    forced_rows = [(i, sub) for i, sub in ((-1, top), (0, bottom))
                   if sub is not None]
    t_breaks = sorted({0.0, 1.0}.union(
        *(sub.breakpoints for _, sub in forced_rows)))
    s_breaks = [0.0, 1.0]
    n = samples_per_cell

    for depth in range(max_depth + 1):
        ns, nt = len(s_breaks) - 1, len(t_breaks) - 1
        s = _cell_rows(s_breaks[:-1], s_breaks[1:], n)
        t = _cell_rows(t_breaks[:-1], t_breaks[1:], n)
        # cell (i, j) holds the n x n grid of its s and t samples, s major
        shape = (ns, nt, n, n)
        pts = cylinder.eval(
            np.broadcast_to(s[:, None, :, None], shape).ravel(),
            np.broadcast_to(t[None, :, None, :], shape).ravel())
        fits = _fits(cover, pts, ns * nt).reshape(-1, ns, nt)
        charts, ok = fits.argmax(axis=0), fits.any(axis=0)
        s_mid = 0.5 * (s[:, 0] + s[:, -1])
        t_mid = 0.5 * (t[:, 0] + t[:, -1])
        forced = np.zeros(ns, dtype=bool)
        for i, sub in forced_rows:
            # each column lies in one cell of the boundary subdivision
            cell = np.searchsorted(sub.breakpoints, t_mid) - 1
            charts[i] = np.take(sub.charts, cell)
            ok[i] = fits[charts[i], i, np.arange(nt)]
            forced[i] = True
        bad = ~ok
        if not bad.any():
            return RectSubdivision(tuple(s_breaks), tuple(t_breaks),
                                   tuple(map(tuple, charts.tolist())), n)
        if depth == max_depth:
            raise MaxDepthExceeded(
                f"{int(bad.sum())} rect cells fit no chart at depth {depth}")
        s_breaks = sorted({*s_breaks, *s_mid[bad.any(axis=1)].tolist()})
        t_breaks = sorted({*t_breaks,
                           *t_mid[bad[~forced].any(axis=0)].tolist()})


def refine_rect(sub: RectSubdivision) -> RectSubdivision:
    """Halve every cell in both directions; children inherit charts."""
    def split(breaks):
        out = []
        for a, b in zip(breaks[:-1], breaks[1:]):
            out += [a, 0.5 * (a + b)]
        out.append(breaks[-1])
        return out

    s2, t2 = split(list(sub.s_breaks)), split(list(sub.t_breaks))
    charts = []
    for i in range(len(s2) - 1):
        row = []
        for j in range(len(t2) - 1):
            row.append(sub.charts[i // 2][j // 2])
        charts.append(tuple(row))
    return RectSubdivision(tuple(s2), tuple(t2), tuple(charts),
                           sub.sample_density)
