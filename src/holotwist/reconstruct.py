"""Rebuilding local bundle data from a surface-holonomy oracle.

A :class:`BasepointScaffold` freezes, once per cover, every auxiliary
choice the rebuild needs: an anchor point in each chart and in each
overlap, a based path into every anchor, and within-chart families of
paths from anchors to arbitrary points.  All probe loops and probe
homotopies are assembled from these frozen pieces, so each reconstructed
quantity is a function of the oracle alone:

* transition samples come from the unique morphism representative whose
  first slot matches a fixed base representative;
* kernel 2-cocycle samples are products of three transition samples;
* the connection 1-form comes from a central finite difference of the
  morphism invariant along a short within-chart probe path;
* the curving 2-form comes from a two-scale fit of the logarithm of the
  morphism invariant of a small swept rectangle, with the curvature of
  the reconstructed connection removed.

`round_trip_check` runs the whole pipeline against a bundle's own
functor and recomputes a battery of holonomies from the reconstructed
samples alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import dual as dm
from .bundle import sample_region
from .catgroup import CatGroupMorphism, morphism_distance
from .errors import (
    ConfigError,
    HolotwistError,
    OracleFailure,
    StepTooLarge,
)
from .geometry import (
    SPHERE_CAP_AXES,
    TORUS_SQUARE_CENTERS,
    Cylinder,
    Loop,
    _segment_path,
    assign_charts_interval,
    collar_warp,
    constant_cylinder,
)
from .holonomy import holonomy_functor
from .liecore import (
    GroupElement,
    fiber_normalize,
    group_inv,
    group_mul,
    log_principal,
    mat_norm,
    path_ordered_exp,
)

SEG_COLLAR = 0.12          # parameter collar inside every path segment
DEFAULT_FD_STEP = 1e-4     # central-difference step for the connection
DEFAULT_RHO = 0.04         # base rectangle scale for the curving


# --------------------------------------------------------------------------
# Waypoint chains
# --------------------------------------------------------------------------

def _chain_cylinder(model, waypoints) -> Cylinder:
    """A homotopy through a chain of fixed and moving waypoints.

    A waypoint is a point or a moving point (base, scale, vector) that
    sits at base + (k(s) * scale) * vector, k = collar_warp(s, SEG_COLLAR).
    Consecutive waypoints are joined by collared straight segments of
    equal parameter length (geometry._segment_path), projected radially
    onto the sphere: fn(s, t) evaluates every waypoint once and gathers
    the two ends of each node's segment.  On the torus each base is
    lifted next to the previous one: by the wrapped displacement between
    the two bases as given, so a segment between two given points runs
    the same way wherever the chain has lifted them (a half-period tie
    included).
    """
    ends, given = [], None
    for wp in waypoints:
        base, scale, vec = wp if isinstance(wp, tuple) else (wp, 0.0, None)
        base = lifted = np.asarray(base, dtype=float)
        if model.periodic and given is not None:
            d = base - given
            lifted = ends[-1][0] + (d - np.round(d))
        ends.append((lifted, scale, vec))
        given = base

    def at(end, s):
        base, scale, vec = end
        if vec is None:
            return list(base)
        k = collar_warp(s, SEG_COLLAR)
        return [b + (k * scale) * v for b, v in zip(base, vec)]

    def fn(s, t):
        points = [at(end, s) for end in ends]
        comps = _segment_path(t, list(zip(points[:-1], points[1:])),
                              SEG_COLLAR)
        if model.kind == "sphere":
            inv = 1.0 / dm.sqrt(sum(c * c for c in comps))
            comps = [c * inv for c in comps]
        return comps

    return Cylinder(model, fn, collar_width=SEG_COLLAR / (len(ends) - 1),
                    check=False)


# --------------------------------------------------------------------------
# The scaffold
# --------------------------------------------------------------------------

@dataclass
class BasepointScaffold:
    """Frozen anchors and path families for one cover."""

    cover: object
    anchors: dict                 # chart index -> point
    pair_anchors: dict            # (i, j), i < j -> point in the overlap

    @property
    def model(self):
        return self.cover.model

    def pair_anchor(self, i, j):
        key = (min(i, j), max(i, j))
        if key not in self.pair_anchors:
            raise ConfigError(f"no overlap anchor for charts {i}, {j}")
        return self.pair_anchors[key]

    # -- constructors -----------------------------------------------------

    @classmethod
    def for_cover(cls, cover, seed=0):
        if cover.name == "sphere-3caps":
            anchors = {k: np.array(ax) / np.linalg.norm(ax)
                       for k, ax in enumerate(SPHERE_CAP_AXES)}
        elif cover.name == "torus-4squares":
            anchors = {k: np.array(c, dtype=float)
                       for k, c in enumerate(TORUS_SQUARE_CENTERS)}
        else:
            anchors = {}
        rng = np.random.default_rng(seed)
        for k in range(len(cover)):
            if k not in anchors:
                anchors[k] = _central_point(cover, (k,), rng)
        pair_anchors = {}
        for i in range(len(cover)):
            for j in range(i + 1, len(cover)):
                try:
                    pair_anchors[(i, j)] = _central_point(cover, (i, j), rng)
                except HolotwistError:
                    continue
        return cls(cover, anchors, pair_anchors)

    # -- path plans -------------------------------------------------------

    def _in_chart(self, i, q):
        if self.model.kind == "sphere":
            q = q / np.linalg.norm(q)
        return self.cover.charts[i].contains(self.model.reduce(q),
                                             with_margin=True)

    def pair_loop(self, i, j, y) -> Loop:
        """The based loop * -> x_i -> y -> x_j -> * through fixed anchors."""
        return self.pair_cylinder(i, j, y).top_loop()

    def pair_cylinder(self, i, j, y) -> Cylinder:
        """Homotopy from the anchor loop to the loop through y.

        The stage-s loop is the pair loop through the point gamma(s) of
        the frozen overlap path x_ij -> y; its bottom is the loop through
        x_ij and its top the loop through y.
        """
        model = self.model
        xij = np.asarray(self.pair_anchor(i, j), dtype=float)
        d = np.asarray(y, dtype=float) - xij
        if model.periodic:
            d = d - np.round(d)
        bp = model.basepoint
        return _chain_cylinder(model, [bp, self.anchors[i], (xij, 1.0, d),
                                       self.anchors[j], bp])

    def probe_cylinder(self, i, y, tangent, step) -> Cylinder:
        """Homotopy sweeping the short probe path q(u) = y + u*step*v.

        The stage-s loop runs * -> x_i -> y, along q to q(s*step), then
        back to x_i and * along fixed paths.  Its bottom loop is thin.
        """
        y = np.asarray(y, dtype=float)
        v = np.asarray(tangent, dtype=float)
        if not self._in_chart(i, y + step * v):
            raise StepTooLarge(
                f"probe path leaves chart {i} at step {step}")
        bp, xi = self.model.basepoint, self.anchors[i]
        return _chain_cylinder(self.model, [bp, xi, y, (y, step, v), xi, bp])

    def sweep_cylinder(self, i, point, v, w, rho) -> Cylinder:
        """Homotopy growing the rho-rectangle spanned by (v, w) at a point.

        The stage-s loop runs through the fixed paths to the point, then
        around the rectangle [0, rho v] x [0, s rho w]; its bottom loop
        is the thin out-and-back along the v edge and its top the full
        rectangle boundary.
        """
        p = np.asarray(point, dtype=float)
        w = np.asarray(w, dtype=float)
        corner = p + rho * np.asarray(v, dtype=float)
        if not (self._in_chart(i, corner) and self._in_chart(i, p)):
            raise StepTooLarge(
                f"sweep rectangle leaves chart {i} at scale {rho}")
        bp, xi = self.model.basepoint, self.anchors[i]
        return _chain_cylinder(self.model, [
            bp, xi, p, corner, (corner, rho, w), (p, rho, w), p, xi, bp])


# Ray lengths probed by _central_point: steps of 0.02 summed one by one,
# up to the first length at or past 1.5.
_RAY_LENGTHS = np.add.accumulate(np.full(75, 0.02))


def _central_point(cover, indices, rng):
    """A well-inside point of the (multi-)overlap: of 64 sampled points,
    the one maximizing the distance to the region boundary along rays."""
    pts = sample_region(cover, indices, rng, 64)
    charts = [cover.charts[k] for k in indices]
    model = cover.model

    def depth(p):
        # smallest ray length (out of 8 fixed directions) leaving the region
        best = np.inf
        for a in range(8):
            ang = 2.0 * math.pi * a / 8.0
            if model.kind == "sphere":
                t1 = np.cross(p, [0.1, 0.25, 0.96])
                t1 /= np.linalg.norm(t1)
                t2 = np.cross(p, t1)
                ray = math.cos(ang) * t1 + math.sin(ang) * t2
            else:
                ray = np.array([math.cos(ang), math.sin(ang)])
            q = p + _RAY_LENGTHS[:, None] * ray
            if model.kind == "sphere":
                q = q / np.linalg.norm(q, axis=-1, keepdims=True)
            inside = np.all([c.contains(model.reduce(q), with_margin=True)
                             for c in charts], axis=0)
            best = min(best, _RAY_LENGTHS[np.argmin(inside)]
                       if not inside.all() else _RAY_LENGTHS[-1])
        return best

    return max(pts, key=depth)


# --------------------------------------------------------------------------
# Oracle wrapper
# --------------------------------------------------------------------------

class FunctorOracle:
    """A bundle's holonomy functor at fixed (coarse) numerical settings,
    with call counting and error wrapping."""

    def __init__(self, bundle, steps=64, order=5, edge_cells=1,
                 face_tol=1e-6, max_split=2):
        self.bundle = bundle
        self.settings = dict(steps=steps, order=order, edge_cells=edge_cells,
                             face_tol=face_tol, max_split=max_split)
        self.calls = 0

    @property
    def extension(self):
        return self.bundle.extension

    def __call__(self, cylinder) -> CatGroupMorphism:
        self.calls += 1
        try:
            result = holonomy_functor(self.bundle, cylinder,
                                      with_error=False, **self.settings)
        except HolotwistError as exc:
            raise OracleFailure(f"functor evaluation failed: {exc}") from exc
        return result.value


# --------------------------------------------------------------------------
# Transitions and the kernel cocycle
# --------------------------------------------------------------------------

@dataclass
class TransitionSamples:
    """Reconstructed transition data: base representatives at the overlap
    anchors and per-point samples e_ij(y)."""

    bases: dict = field(default_factory=dict)     # (i, j) -> GroupElement
    samples: dict = field(default_factory=dict)   # (i, j) -> [(y, elem)]
    base_residual: float = 0.0


def _normalized_pair(ext, morphism, base):
    """The unique representative (base, e') of the morphism's orbit."""
    h = fiber_normalize(ext, morphism.rep_source, base, tol_fiber=1e-3)
    return group_mul(morphism.rep_target, ext.include(h))


def _fetch_base(oracle, scaffold, bases, i, j):
    """Store the base representative (e, e) of the anchor-loop morphism
    of the pair {i, j} under (min, max) and its inverse under the
    reversed pair, unless already stored.

    Returns the base residual |e - e'| of a fresh fetch, else 0.
    """
    key = (min(i, j), max(i, j))
    if key in bases:
        return 0.0
    m0 = oracle(scaffold.pair_cylinder(*key, scaffold.pair_anchor(*key)))
    bases[key] = m0.rep_source
    bases[(key[1], key[0])] = group_inv(m0.rep_source)
    return mat_norm(m0.rep_source.entries - m0.rep_target.entries)


def reconstruct_transitions(oracle, scaffold, points) -> TransitionSamples:
    """Sample the transition functions from the oracle.

    `points` maps ordered chart pairs (i, j) to sample points inside the
    overlap; the base for (i, j) with i < j comes from the oracle, the
    base for (j, i) is its inverse.
    """
    out = TransitionSamples()
    for (i, j) in sorted(points):
        out.base_residual = max(out.base_residual, _fetch_base(
            oracle, scaffold, out.bases, i, j))
        out.samples[(i, j)] = [
            (np.asarray(y, dtype=float),
             transition_at(oracle, scaffold, out.bases, i, j, y))
            for y in points[(i, j)]]
    return out


def transition_at(oracle, scaffold, bases, i, j, y) -> GroupElement:
    """One transition sample e_ij(y), normalized against the stored base."""
    _fetch_base(oracle, scaffold, bases, i, j)
    m = oracle(scaffold.pair_cylinder(i, j, y))
    return _normalized_pair(oracle.extension, m, bases[(i, j)])


def reconstruct_cocycle(oracle, scaffold, bases, triples_points):
    """Kernel 2-cocycle samples h_ijk(y) = pi_H(e_ij e_jk e_ki).

    Returns {(i, j, k): [(y, h, residual)]} where `residual` is the
    distance of the product from the included copy of H.
    """
    ext = oracle.extension
    out = {}
    for (i, j, k), pts in sorted(triples_points.items()):
        rows = []
        for y in pts:
            eij = transition_at(oracle, scaffold, bases, i, j, y)
            ejk = transition_at(oracle, scaffold, bases, j, k, y)
            eki = transition_at(oracle, scaffold, bases, k, i, y)
            prod = group_mul(group_mul(eij, ejk), eki)
            h_mat, res = ext.central_fit_mat(prod.entries)
            rows.append((np.asarray(y, dtype=float),
                         GroupElement(h_mat, "H"), res))
        out[(i, j, k)] = rows
    return out


def rebuild_transitions_and_cocycle(oracle, scaffold, rng,
                                    samples_per_overlap):
    """Transition samples at random points of every anchored overlap and
    kernel-cocycle samples at one random point of each triple overlap.

    Returns (transitions, antisymmetry, cocycle): `antisymmetry` is the
    worst Frobenius norm of e_ij e_ji - 1 over the samples, `cocycle`
    the reconstruct_cocycle rows ({} when no triple overlap is found).
    """
    cover = scaffold.cover
    pts = {}
    for (i, j) in sorted(scaffold.pair_anchors):
        ys = sample_region(cover, (i, j), rng, samples_per_overlap)
        pts[(i, j)] = ys
        pts[(j, i)] = ys
    trans = reconstruct_transitions(oracle, scaffold, pts)
    unit = np.eye(oracle.extension.E.dim)
    anti = 0.0
    for (i, j) in sorted(scaffold.pair_anchors):
        for (_, eij), (_, eji) in zip(trans.samples[(i, j)],
                                      trans.samples[(j, i)]):
            anti = max(anti, mat_norm(group_mul(eij, eji).entries - unit))

    triples = {}
    n = len(cover)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                try:
                    triples[(i, j, k)] = sample_region(cover, (i, j, k),
                                                       rng, 1)
                except HolotwistError:
                    continue
    cocycle = reconstruct_cocycle(oracle, scaffold, trans.bases, triples) \
        if triples else {}
    return trans, anti, cocycle


# --------------------------------------------------------------------------
# Connection and curving
# --------------------------------------------------------------------------

def reconstruct_connection(oracle, scaffold, chart, point, tangent,
                           step=DEFAULT_FD_STEP):
    """Connection sample A_chart(tangent) at the point.

    Central finite difference of the morphism invariant of the probe
    homotopy along the short path point + t*tangent.
    """
    ext = oracle.extension
    r_plus = oracle(scaffold.probe_cylinder(chart, point, tangent,
                                            +step)).invariant().entries
    r_minus = oracle(scaffold.probe_cylinder(chart, point, tangent,
                                             -step)).invariant().entries
    return ext.algebra_element((r_plus - r_minus) / (2.0 * step), "E")


def _shift(model, point, delta):
    q = np.asarray(point, dtype=float) + delta
    if model.kind == "sphere":
        q = q / np.linalg.norm(q)
    return q


def _project_tangent(model, point, v):
    if model.kind == "sphere":
        return v - np.dot(v, point) * np.asarray(point)
    return v


def reconstruct_curvature_of_connection(oracle, scaffold, chart, point,
                                        v, w, step=DEFAULT_FD_STEP):
    """Curvature dA + [A(v), A(w)] of the reconstructed connection, with
    dA a central difference of step 2e-3."""
    model = scaffold.model
    fd = 2e-3

    def a_at(p, u):
        return reconstruct_connection(
            oracle, scaffold, chart, p,
            _project_tangent(model, p, u), step).entries

    d_vw = (a_at(_shift(model, point, fd * v), w)
            - a_at(_shift(model, point, -fd * v), w)) / (2.0 * fd)
    d_wv = (a_at(_shift(model, point, fd * w), v)
            - a_at(_shift(model, point, -fd * w), v)) / (2.0 * fd)
    av = a_at(np.asarray(point, dtype=float), v)
    aw = a_at(np.asarray(point, dtype=float), w)
    return d_vw - d_wv + av @ aw - aw @ av


def reconstruct_curving(oracle, scaffold, chart, point, v, w,
                        rho=DEFAULT_RHO, curvature=None):
    """Curving sample F_chart(v, w) at the point.

    Two-scale fit of log(invariant) of the growing-rectangle homotopy,
    with the curvature of the reconstructed connection removed; the
    result is projected to the kernel algebra.
    """
    ext = oracle.extension
    if curvature is None:
        curvature = reconstruct_curvature_of_connection(
            oracle, scaffold, chart, point, v, w)

    def density(r):
        m = oracle(scaffold.sweep_cylinder(chart, point, v, w, r))
        return log_principal(m.invariant().entries) / (r * r)

    fitted = (4.0 * density(rho) - density(2.0 * rho)) / 3.0
    f_mat = curvature - fitted
    coeffs = _central_coefficients(ext, f_mat)
    return ext.algebra_element(coeffs, "H")


def _central_coefficients(ext, mat):
    """Coordinates of the central part of `mat` in the kernel algebra."""
    dim = ext.H.dim
    basis = []
    for a in range(dim):
        for b in range(dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[a, b] = 1.0
            basis.append(ext.alg_include_mat(e))
    flat = np.stack([b.ravel() for b in basis], axis=1)
    coef, *_ = np.linalg.lstsq(flat, mat.ravel(), rcond=None)
    return coef.reshape(dim, dim)


# --------------------------------------------------------------------------
# Holonomy recomputation from reconstructed samples
# --------------------------------------------------------------------------

def holonomy_from_samples(oracle, scaffold, bases, loop):
    """Line holonomy of a based loop recomputed from reconstruction.

    Within each cell of a certified subdivision, the path-ordered
    exponential (the Magnus integrator of `liecore.path_ordered_exp`,
    max(3, ceil(18 * length)) steps) of reconstructed connection
    samples; reconstructed transition samples at the chart crossings.
    Nodes where the loop sits still cost no oracle call.
    """
    sub = assign_charts_interval(loop, scaffold.cover)
    dim = oracle.extension.E.dim
    total = np.eye(dim, dtype=complex)
    charts = sub.charts

    def connection(ck, p, vel):
        if np.linalg.norm(vel) < 1e-12:
            return np.zeros((dim, dim), dtype=complex)
        return reconstruct_connection(
            oracle, scaffold, ck, scaffold.model.reduce(p), vel).entries

    for k, (a, b) in enumerate(sub.cells):
        ck = charts[k]

        def field(ts, ck=ck):
            points, vels = loop.eval_with_deriv(ts)
            return np.array([connection(ck, p, v)
                             for p, v in zip(points, vels)])

        steps = max(3, math.ceil(18.0 * (b - a)))
        total = total @ path_ordered_exp(field, a, b, steps).entries
        nxt = charts[(k + 1) % len(charts)]
        if nxt != ck:
            yb = scaffold.model.reduce(loop.eval(b % 1.0))
            e_cross = transition_at(oracle, scaffold, bases, ck, nxt, yb)
            total = total @ e_cross.entries
    return GroupElement(total, "E")


# --------------------------------------------------------------------------
# Round trip
# --------------------------------------------------------------------------

@dataclass
class EquivalenceReport:
    passed: bool
    tol: float
    max_deviation: float
    items: list                      # (label, deviation)
    checks: dict                     # named residuals from the rebuild
    oracle_calls: int

    def __str__(self):
        lines = [f"round trip: {'PASS' if self.passed else 'FAIL'} "
                 f"(max deviation {self.max_deviation:.3e}, tol {self.tol:g})"]
        for label, dev in self.items:
            lines.append(f"  {label}: {dev:.3e}")
        for name, res in sorted(self.checks.items()):
            lines.append(f"  check {name}: {res:.3e}")
        return "\n".join(lines)


def _battery_loops(model):
    from . import catalog

    if model.kind == "sphere":
        return [("latitude(1.0)", catalog.latitude_loop(1.0)),
                ("great-circle(0.4)", catalog.great_circle_loop(0.4))]
    if model.kind == "torus":
        return [("winding(1,0)", catalog.winding_loop(1, 0)),
                ("winding(0,1)", catalog.winding_loop(0, 1))]
    return []


def round_trip_check(bundle, seed=0, samples_per_overlap=2,
                     tol_rec=1e-4) -> EquivalenceReport:
    """Rebuild the bundle's local data from its own functor and compare
    recomputed holonomies of a battery against the functor directly.

    Passes when the worst morphism-class deviation over the battery and
    every rebuild check are at most 10 * tol_rec.
    """
    ext = bundle.extension
    oracle = FunctorOracle(bundle)
    scaffold = BasepointScaffold.for_cover(bundle.cover, seed=seed)
    rng = np.random.default_rng(seed)
    trans, anti, cocycle = rebuild_transitions_and_cocycle(
        oracle, scaffold, rng, samples_per_overlap)
    checks = {"base-diagonal": trans.base_residual, "antisymmetry": anti}
    if cocycle:
        checks["cocycle-central"] = max(
            res for rows in cocycle.values() for (_, _, res) in rows)

    # battery: recomputed line holonomies against the functor
    items = []
    for label, loop in _battery_loops(bundle.cover.model):
        h_rec = holonomy_from_samples(oracle, scaffold, trans.bases, loop)
        m_rec = CatGroupMorphism(h_rec, h_rec, ext)
        m_ref = oracle(constant_cylinder(loop))
        items.append((label, morphism_distance(m_rec, m_ref)))

    tol = 10.0 * tol_rec
    max_dev = max(dev for _, dev in items) if items else 0.0
    passed = max(max_dev, *checks.values()) <= tol
    return EquivalenceReport(passed=passed, tol=tol, max_deviation=max_dev,
                             items=items, checks=checks,
                             oracle_calls=oracle.calls)
