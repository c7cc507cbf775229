"""Manifold models, covers, based loops/cylinders with sitting collars,
and the subdivision machinery that assigns charts to parameter cells.

Curves and surfaces are stored as closed-form maps that accept dual
numbers in their parameters, so velocities and partials are exact: a
cylinder's point and both partials come from one call of its map, with
s and t seeded as two directions of one Dual derivative stack.  Collars
are warped by the closed-form dual step (dual.smooth_step).  The maps
run on arrays of nodes; a scalar parameter is evaluated as a batch of
one node.  Piecewise maps select per node (dual.choose):
segment paths gather the ends of each node's segment from a table,
gluings run each half with the other half's nodes pinned at the seam,
and a batch that falls in one piece runs that piece alone.  Chart
membership and the point tests of a model take one point of shape (n,)
or a stack of shape (N, n).
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
    ChartMismatch,
    InvalidReparam,
    MaxDepthExceeded,
)

BASEPOINT_TOL = 1e-12
DEFAULT_COLLAR = 1.0 / 16.0
STACK_TOL = 1e-10   # boundary mismatch allowed when stacking cylinders


# --------------------------------------------------------------------------
# Smooth C-infinity steps and warps (all dual-capable)
# --------------------------------------------------------------------------

def smooth_step(u):
    """Monotone C-infinity step: 0 for u <= 0, 1 for u >= 1; the
    closed-form dual primitive dual.smooth_step."""
    return dm.smooth_step(u)


def collar_warp(t, delta=DEFAULT_COLLAR):
    """[0,1] -> [0,1], constant 0 on [0, delta], constant 1 on [1-delta, 1]."""
    return smooth_step((t - delta) / (1.0 - 2.0 * delta))


def _segment_path(t, segments, delta):
    """The path glued from n = len(segments) collared straight segments
    of equal parameter length, at the nodes t.

    segments[k] = (a, b) holds the two end points of segment k as
    sequences of components (constants, node arrays or Duals).  A node in
    cell k = cell_index(t, n) sits at a + w * (b - a), with
    w = collar_warp(t * n - k, delta); the ends of its segment are
    gathered per node, or taken as given when every node falls in one
    cell.
    """
    n = len(segments)
    k = dm.cell_index(value(t).real, n)
    first = int(k.flat[0])
    if (k == first).all():
        a, b = segments[first]
        k = first
    else:
        a, b = ([dm.choose(k, [seg[end][c] for seg in segments])
                 for c in range(len(segments[0][0]))] for end in (0, 1))
    w = collar_warp(t * n - k, delta)
    return [ac + w * (bc - ac) for ac, bc in zip(a, b)]


class Reparam:
    """A smooth self-map of [0,1] with fixed endpoints.

    Monotone maps give ordinary reparametrizations; non-monotone ones
    describe back-and-forth folds, which are thin because the image of
    the curve is unchanged.
    """

    def __init__(self, fn, label=""):
        self.fn = fn
        self.label = label
        ts = np.linspace(0.0, 1.0, 97)
        vs = np.broadcast_to(np.real(value(fn(ts))), ts.shape)
        if abs(vs[0]) > 1e-9 or abs(vs[-1] - 1.0) > 1e-9:
            raise InvalidReparam(f"endpoints map to ({vs[0]}, {vs[-1]})")
        for t, v in zip(ts, vs):
            if v < -1e-9 or v > 1.0 + 1e-9:
                raise InvalidReparam(f"value {v} at t={t} leaves [0,1]")

    def __call__(self, t):
        return self.fn(t)


def identity_reparam():
    return Reparam(lambda t: t, "identity")


def monotone_warp(delta=DEFAULT_COLLAR, power=2):
    """Collar-fixing monotone warp w(t) = step(t)^power; the exponent
    must be a positive integer so the warp stays smooth where the
    collar profile vanishes."""
    power = int(power)
    if power < 1:
        raise InvalidReparam("warp power must be a positive integer")
    return Reparam(lambda t: collar_warp(t, delta) ** power,
                   f"power-{power}")


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
        return pts[k] + (pts[k + 1] - pts[k]) * smooth_step(u)

    return Reparam(fn, "fold")


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

    def same_point(self, a, b, tol=BASEPOINT_TOL):
        """Whether a and b agree, at one point or at each of a stack."""
        d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        if self.periodic:
            d = d - np.round(d)
        return np.linalg.norm(d, axis=-1) <= tol

    def is_basepoint(self, p, tol=BASEPOINT_TOL):
        return self.same_point(p, self.basepoint, tol)

    def random_point(self, rng):
        if self.kind == "sphere":
            v = rng.normal(size=3)
            return v / np.linalg.norm(v)
        if self.kind == "torus":
            return rng.uniform(0.0, 1.0, size=2)
        return rng.uniform(-1.0, 1.0, size=2)

    def random_tangent(self, rng, point):
        v = rng.normal(size=self.ambient_dim)
        if self.kind == "sphere":
            v = v - np.dot(v, point) * np.asarray(point)
        return v


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


def cap_chart(label, axis, cos_threshold, margin=0.05):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)

    def member(p, shrink):
        return p @ axis > cos_threshold + shrink

    return Chart(label, member, margin)


def square_chart(label, center, half_width, margin=0.02):
    center = np.asarray(center, dtype=float)

    def member(p, shrink):
        d = np.mod(p - center + 0.5, 1.0) - 0.5
        return np.all(np.abs(d) < half_width - shrink, axis=-1)

    return Chart(label, member, margin)


def box_chart(label, lo, hi, margin=0.02):
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)

    def member(p, shrink):
        return np.all((p > lo + shrink) & (p < hi - shrink), axis=-1)

    return Chart(label, member, margin)


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

    def fitting_charts(self, points):
        """Indices of charts whose margin-shrunk region holds every point
        of the (N, n) stack."""
        pts = self.model.reduce(points)
        return [idx for idx, chart in enumerate(self.charts)
                if chart.contains(pts, with_margin=True).all()]


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
    if name == "sphere-2caps-band":
        model = make_model("sphere")
        charts = (
            cap_chart("north", [0, 0, 1], 0.15),
            cap_chart("south", [0, 0, -1], 0.15),
            Chart("band", lambda p, s: np.abs(p[..., 2]) < 0.55 - s, 0.05),
        )
        return Cover(name, model, charts)
    if name == "torus-4squares":
        model = make_model("torus")
        charts = tuple(square_chart(f"sq{k}", c, 0.35, margin=0.03)
                       for k, c in enumerate(TORUS_SQUARE_CENTERS))
        return Cover(name, model, charts)
    if name == "plane-1":
        model = make_model("plane")
        return Cover(name, model, (box_chart("all", [-1.1, -1.1], [1.1, 1.1]),))
    if name == "plane-4":
        model = make_model("plane")
        boxes = [([-1.1, -1.1], [0.3, 0.3]), ([-0.3, -1.1], [1.1, 0.3]),
                 ([-1.1, -0.3], [0.3, 1.1]), ([-0.3, -0.3], [1.1, 1.1])]
        charts = tuple(box_chart(f"box{k}", lo, hi)
                       for k, (lo, hi) in enumerate(boxes))
        return Cover(name, model, charts)
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

    def bottom_loop(self) -> Loop:
        return Loop(self.model, lambda t: self.fn(_like(0.0, t), t),
                    self.collar_width, check=False)

    def top_loop(self) -> Loop:
        return Loop(self.model, lambda t: self.fn(_like(1.0, t), t),
                    self.collar_width, check=False)


def constant_loop(model, collar_width=DEFAULT_COLLAR) -> Loop:
    bp = model.basepoint

    def fn(t):
        return [c + 0.0 * t for c in bp]

    return Loop(model, fn, collar_width, check=False)


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


def _cell_samples(a, b, n):
    return np.linspace(a, b, n)


def _cell_grid(s0, s1, t0, t1, n):
    """The n x n sample grid of a cell as flat (s, t) node arrays, s
    major."""
    s, t = np.meshgrid(_cell_samples(s0, s1, n), _cell_samples(t0, t1, n),
                       indexing="ij")
    return s.ravel(), t.ravel()


def _pick_chart(cover, pts, touches_basepoint):
    fits = cover.fitting_charts(pts)
    if not fits:
        return None
    if touches_basepoint and 0 in fits:
        return 0
    return fits[0]


def assign_charts_interval(loop: Loop, cover: Cover, max_depth=14,
                           samples_per_cell=17) -> IntervalSubdivision:
    """Greedy bisection: split cells until each fits one chart with margin."""
    model = cover.model
    cells = [(0.0, 1.0, 0)]
    done = []
    while cells:
        a, b, depth = cells.pop()
        pts = loop.eval(_cell_samples(a, b, samples_per_cell))
        touches = (a <= 1e-12 or b >= 1.0 - 1e-12
                   or model.is_basepoint(pts, tol=1e-9).any())
        chart = _pick_chart(cover, pts, touches)
        if chart is None:
            if depth >= max_depth:
                raise MaxDepthExceeded(
                    f"interval [{a},{b}] fits no chart at depth {depth}")
            m = 0.5 * (a + b)
            cells.append((a, m, depth + 1))
            cells.append((m, b, depth + 1))
            continue
        done.append((a, b, chart))
    done.sort()
    return IntervalSubdivision(
        tuple([d[0] for d in done] + [1.0]),
        tuple(d[2] for d in done),
        samples_per_cell,
    )


def certify_interval(loop: Loop, cover: Cover, sub: IntervalSubdivision):
    """Re-check containment at 4x the sampling; ChartMismatch on failure."""
    for (a, b), chart in zip(sub.cells, sub.charts):
        ts = _cell_samples(a, b, sub.sample_density * 4)
        inside = cover.charts[chart].contains(
            cover.model.reduce(loop.eval(ts)), with_margin=True)
        if not inside.all():
            raise ChartMismatch(f"cell [{a},{b}] leaves chart {chart} at "
                                f"t={ts[np.argmin(inside)]}")
    return True


def refine_interval(sub: IntervalSubdivision, cell_index) -> IntervalSubdivision:
    """Split one cell at its midpoint, keeping its chart."""
    a, b = sub.cells[cell_index]
    bp = list(sub.breakpoints)
    bp.insert(cell_index + 1, 0.5 * (a + b))
    ch = list(sub.charts)
    ch.insert(cell_index, ch[cell_index])
    return IntervalSubdivision(tuple(bp), tuple(ch), sub.sample_density)


def _interval_chart_at(sub: IntervalSubdivision, a, b):
    """Chart of the boundary cell containing [a,b]; None if straddling."""
    for (x, y), chart in zip(sub.cells, sub.charts):
        if a >= x - 1e-12 and b <= y + 1e-12:
            return chart
    return None


def assign_charts_rect(cylinder: Cylinder, cover: Cover, max_depth=12,
                       samples_per_cell=5,
                       bottom: IntervalSubdivision = None,
                       top: IntervalSubdivision = None) -> RectSubdivision:
    """Assign charts on a regular grid, refining rows/columns as needed.

    When boundary subdivisions are given, the bottom/top rows reuse their
    chart assignments (refinements of a boundary cell keep its chart).
    """
    model = cover.model
    t_set = {0.0, 1.0}
    if bottom is not None:
        t_set.update(bottom.breakpoints)
    if top is not None:
        t_set.update(top.breakpoints)
    t_breaks = sorted(t_set)
    s_breaks = [0.0, 1.0]

    for depth in range(max_depth + 1):
        ns, nt = len(s_breaks) - 1, len(t_breaks) - 1
        charts = [[None] * nt for _ in range(ns)]
        bad = []
        for i in range(ns):
            for j in range(nt):
                t0, t1 = t_breaks[j], t_breaks[j + 1]
                pts = cylinder.eval(*_cell_grid(
                    s_breaks[i], s_breaks[i + 1], t0, t1, samples_per_cell))
                forced = None
                if i == 0 and bottom is not None:
                    forced = _interval_chart_at(bottom, t0, t1)
                elif i == ns - 1 and top is not None:
                    forced = _interval_chart_at(top, t0, t1)
                if forced is not None:
                    if forced in cover.fitting_charts(pts):
                        charts[i][j] = forced
                    else:
                        # boundary rows keep their charts: thin the row only
                        bad.append((i, j, "s"))
                    continue
                touches = model.is_basepoint(pts, tol=1e-9).any()
                chart = _pick_chart(cover, pts, touches)
                if chart is None:
                    bad.append((i, j, "st"))
                else:
                    charts[i][j] = chart
        if not bad:
            return RectSubdivision(tuple(s_breaks), tuple(t_breaks),
                                   tuple(tuple(r) for r in charts),
                                   samples_per_cell)
        if depth >= max_depth:
            raise MaxDepthExceeded(
                f"{len(bad)} rect cells fit no chart at depth {depth}")
        new_s, new_t = set(s_breaks), set(t_breaks)
        for i, j, mode in bad:
            if "s" in mode:
                new_s.add(0.5 * (s_breaks[i] + s_breaks[i + 1]))
            if "t" in mode:
                new_t.add(0.5 * (t_breaks[j] + t_breaks[j + 1]))
        s_breaks, t_breaks = sorted(new_s), sorted(new_t)
    raise MaxDepthExceeded("refinement budget exhausted")


def certify_rect(cylinder: Cylinder, cover: Cover, sub: RectSubdivision):
    """Re-check containment at 4x the sampling; ChartMismatch on failure."""
    ns, nt = sub.shape
    for i in range(ns):
        for j in range(nt):
            s, t = _cell_grid(sub.s_breaks[i], sub.s_breaks[i + 1],
                              sub.t_breaks[j], sub.t_breaks[j + 1],
                              sub.sample_density * 4)
            inside = cover.charts[sub.charts[i][j]].contains(
                cover.model.reduce(cylinder.eval(s, t)), with_margin=True)
            if not inside.all():
                k = np.argmin(inside)
                raise ChartMismatch(f"rect cell ({i},{j}) leaves its chart "
                                    f"at (s,t)=({s[k]},{t[k]})")
    return True


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
