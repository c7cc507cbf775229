"""Manifold models, covers, based loops/cylinders with sitting collars,
and the subdivision machinery that assigns charts to parameter cells.

Curves and surfaces are stored as closed-form maps that accept dual
numbers in their parameters, so velocities and partials are exact.
The maps take one parameter value or an array of nodes; piecewise maps
(collar steps, folds, concatenations, stacked cylinders) evaluate each
piece only on the nodes that fall in it (see dual.piecewise).
"""

from __future__ import annotations

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

def _exp_neg_recip(u):
    if isinstance(u, (Dual, np.ndarray)):
        return (dm.exp(-1.0 / u),)
    return (math.exp(-1.0 / float(u)),)


_BUMP_PIECES = (lambda u: (0.0 * u,), _exp_neg_recip)


def _bump(u):
    """exp(-1/u) for u > 0, else 0; smooth and flat at 0."""
    return dm.piecewise(value(u).real > 0.0, _BUMP_PIECES, u)[0]


def smooth_step(u):
    """Monotone C-infinity step: 0 for u <= 0, 1 for u >= 1."""
    a = _bump(u)
    b = _bump(1.0 - u)
    return a / (a + b)


def collar_warp(t, delta=DEFAULT_COLLAR):
    """[0,1] -> [0,1], constant 0 on [0, delta], constant 1 on [1-delta, 1]."""
    return smooth_step((t - delta) / (1.0 - 2.0 * delta))


class Reparam:
    """A smooth self-map of [0,1] with fixed endpoints.

    Monotone maps give ordinary reparametrizations; non-monotone ones
    describe back-and-forth folds, which are thin because the image of
    the curve is unchanged.
    """

    def __init__(self, fn, label=""):
        self.fn = fn
        self.label = label
        f0, f1 = value(fn(0.0)).real, value(fn(1.0)).real
        if abs(f0) > 1e-9 or abs(f1 - 1.0) > 1e-9:
            raise InvalidReparam(f"endpoints map to ({f0}, {f1})")
        for t in np.linspace(0.0, 1.0, 97):
            v = value(fn(float(t))).real
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
        d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        if self.periodic:
            d = d - np.round(d)
        return bool(np.linalg.norm(d) <= tol)

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
    """A labelled open region with a margin used for robust containment."""

    def __init__(self, label, member, margin):
        self.label = label
        self._member = member          # (point, shrink) -> bool
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
        return float(np.dot(p, axis)) > cos_threshold + shrink

    return Chart(label, member, margin)


def square_chart(label, center, half_width, margin=0.02):
    center = np.asarray(center, dtype=float)

    def member(p, shrink):
        d = np.mod(p - center + 0.5, 1.0) - 0.5
        return bool(np.all(np.abs(d) < half_width - shrink))

    return Chart(label, member, margin)


def box_chart(label, lo, hi, margin=0.02):
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)

    def member(p, shrink):
        return bool(np.all(p > lo + shrink) and np.all(p < hi - shrink))

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
        """Indices of charts whose margin-shrunk region holds every point."""
        pts = [self.model.reduce(p) for p in points]
        out = []
        for idx, chart in enumerate(self.charts):
            if all(chart.contains(p, with_margin=True) for p in pts):
                out.append(idx)
        return out


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
            Chart("band", lambda p, s: abs(float(p[2])) < 0.55 - s, 0.05),
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

def _nodes(*params):
    """Scalar parameters as floats, else float arrays of one node shape."""
    if all(np.ndim(x) == 0 for x in params):
        return [float(x) for x in params]
    return np.broadcast_arrays(*[np.asarray(x, dtype=float) for x in params])


def _components(values, shape):
    if not shape:
        return np.array([value(v).real for v in values], dtype=float)
    return np.stack([np.broadcast_to(np.real(value(v)), shape)
                     for v in values], axis=-1)


def _dots(values, shape):
    dots = [v.dot if isinstance(v, Dual) else 0.0 for v in values]
    if not shape:
        return np.array([d.real for d in dots], dtype=float)
    return np.stack([np.broadcast_to(np.real(d), shape) for d in dots],
                    axis=-1)


class Loop:
    """A smooth based loop with sitting collars.

    fn(t) maps a parameter (a float or a float array over nodes, either
    possibly inside a Dual) to a sequence of coordinates of the same
    kind; velocities come from evaluating fn on dual numbers.  eval,
    deriv and eval_with_deriv take a scalar t and return (dim,) arrays,
    or an array of nodes and return (N, dim) stacks.
    """

    def __init__(self, model, fn, collar_width=DEFAULT_COLLAR, check=True):
        self.model = model
        self.fn = fn
        self.collar_width = collar_width
        if check:
            self._validate()

    def _validate(self):
        for t in (0.0, 1.0):
            if not self.model.is_basepoint(self.eval(t), tol=1e-10):
                raise BoundaryMismatch(f"loop not based at t={t}")
        d = self.collar_width
        ref0, ref1 = self.eval(0.0), self.eval(1.0)
        for t in (d * 0.25, d * 0.75):
            if not self.model.same_point(self.eval(t), ref0, tol=1e-10) \
               or np.linalg.norm(self.deriv(t)) > 1e-10:
                raise BoundaryMismatch("loop does not sit on its start collar")
            t2 = 1.0 - t
            if not self.model.same_point(self.eval(t2), ref1, tol=1e-10) \
               or np.linalg.norm(self.deriv(t2)) > 1e-10:
                raise BoundaryMismatch("loop does not sit on its end collar")

    def eval(self, t):
        t, = _nodes(t)
        return _components(self.fn(t), np.shape(t))

    def deriv(self, t):
        t, = _nodes(t)
        return _dots(self.fn(Dual(t, 1.0)), np.shape(t))

    def eval_with_deriv(self, t):
        t, = _nodes(t)
        out = self.fn(Dual(t, 1.0))
        return _components(out, np.shape(t)), _dots(out, np.shape(t))


class Cylinder:
    """A smooth based homotopy c(s, t) sitting on its whole boundary.

    fn(s, t) follows the Loop contract in both parameters; eval and
    eval_with_partials broadcast s against t and return (dim,) arrays
    for scalars, (N, dim) stacks for node arrays.
    """

    def __init__(self, model, fn, collar_width=DEFAULT_COLLAR, check=True):
        self.model = model
        self.fn = fn
        self.collar_width = collar_width
        if check:
            self._validate()

    def _validate(self):
        for s in (0.0, 0.3, 0.77, 1.0):
            for t in (0.0, 1.0):
                if not self.model.is_basepoint(self.eval(s, t), tol=1e-10):
                    raise BoundaryMismatch(
                        f"cylinder not based at (s,t)=({s},{t})")
        # constancy on the boundary collar, probed along each side
        for u in (0.2, 0.8):
            for s, t in ((self.collar_width * 0.3, u),
                         (1.0 - self.collar_width * 0.3, u)):
                _, ds, _ = self.eval_with_partials(s, t)
                if np.linalg.norm(ds) > 1e-9:
                    raise BoundaryMismatch("cylinder moves inside its s-collar")
            for s, t in ((u, self.collar_width * 0.3),
                         (u, 1.0 - self.collar_width * 0.3)):
                _, _, dt = self.eval_with_partials(s, t)
                if np.linalg.norm(dt) > 1e-9:
                    raise BoundaryMismatch("cylinder moves inside its t-collar")

    def eval(self, s, t):
        s, t = _nodes(s, t)
        return _components(self.fn(s, t), np.shape(s))

    def eval_with_partials(self, s, t):
        s, t = _nodes(s, t)
        out_s = self.fn(Dual(s, 1.0), t)
        out_t = self.fn(s, Dual(t, 1.0))
        shape = np.shape(s)
        return (_components(out_s, shape), _dots(out_s, shape),
                _dots(out_t, shape))

    def bottom_loop(self) -> Loop:
        return Loop(self.model, lambda t: self.fn(0.0, t),
                    self.collar_width, check=False)

    def top_loop(self) -> Loop:
        return Loop(self.model, lambda t: self.fn(1.0, t),
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

def concat_loops(l1: Loop, l2: Loop) -> Loop:
    """First l1 then l2, rescaled to [0,1]; smooth thanks to the collars."""
    if l1.model.kind != l2.model.kind:
        raise BoundaryMismatch("loops live on different models")
    model = l1.model
    offset = l1.eval(1.0) - l2.eval(0.0) if model.periodic else None

    def second(t):
        out = l2.fn(2.0 * t - 1.0)
        if offset is not None:
            return [c + o for c, o in zip(out, offset)]
        return out

    pieces = (lambda t: l1.fn(2.0 * t), second)

    def fn(t):
        return dm.piecewise(value(t).real > 0.5, pieces, t)

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
    for t in np.linspace(0.0, 1.0, 17):
        a = c1.eval(1.0, float(t))
        b = c2.eval(0.0, float(t)) + (offset if offset is not None else 0.0)
        if not model.same_point(a, b, tol=STACK_TOL) \
                or np.linalg.norm(a - b) > STACK_TOL:
            raise BoundaryMismatch(
                f"end loop of first cylinder differs from start of second at t={t}")

    def second(s, t):
        out = c2.fn(2.0 * s - 1.0, t)
        if offset is not None:
            return [c + o for c, o in zip(out, offset)]
        return out

    pieces = (lambda s, t: c1.fn(2.0 * s, t), second)

    def fn(s, t):
        return dm.piecewise(value(s).real > 0.5, pieces, s, t)

    return Cylinder(model, fn, min(c1.collar_width, c2.collar_width) / 2.0,
                    check=False)


def compose_cylinders_horizontal(c1: Cylinder, c2: Cylinder) -> Cylinder:
    """Concatenate in the loop direction: each slice is slice1 * slice2."""
    model = c1.model

    def second(s, t):
        out = c2.fn(s, 2.0 * t - 1.0)
        if model.periodic:
            sv = value(s).real
            off = c1.eval(sv, 1.0) - c2.eval(sv, 0.0)
            return [c + o for c, o in zip(out, np.moveaxis(off, -1, 0))]
        return out

    pieces = (lambda s, t: c1.fn(s, 2.0 * t), second)

    def fn(s, t):
        return dm.piecewise(value(t).real > 0.5, pieces, s, t)

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
        ts = _cell_samples(a, b, samples_per_cell)
        pts = [loop.eval(float(t)) for t in ts]
        touches = (a <= 1e-12 or b >= 1.0 - 1e-12
                   or any(model.is_basepoint(p, tol=1e-9) for p in pts))
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
        for t in _cell_samples(a, b, sub.sample_density * 4):
            p = cover.model.reduce(loop.eval(float(t)))
            if not cover.charts[chart].contains(p, with_margin=True):
                raise ChartMismatch(
                    f"cell [{a},{b}] leaves chart {chart} at t={t}")
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
                s0, s1 = s_breaks[i], s_breaks[i + 1]
                t0, t1 = t_breaks[j], t_breaks[j + 1]
                pts = [cylinder.eval(float(s), float(t))
                       for s in _cell_samples(s0, s1, samples_per_cell)
                       for t in _cell_samples(t0, t1, samples_per_cell)]
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
                touches = any(model.is_basepoint(p, tol=1e-9) for p in pts)
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
            chart = cover.charts[sub.charts[i][j]]
            for s in _cell_samples(sub.s_breaks[i], sub.s_breaks[i + 1],
                                   sub.sample_density * 4):
                for t in _cell_samples(sub.t_breaks[j], sub.t_breaks[j + 1],
                                       sub.sample_density * 4):
                    p = cover.model.reduce(cylinder.eval(float(s), float(t)))
                    if not chart.contains(p, with_margin=True):
                        raise ChartMismatch(
                            f"rect cell ({i},{j}) leaves its chart at "
                            f"(s,t)=({s},{t})")
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
