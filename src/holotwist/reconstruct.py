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
from scipy.linalg import expm

from . import dual as dm
from .bundle import sample_region
from .catgroup import CatGroupMorphism, morphism_distance
from .dual import value
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
)

SEG_COLLAR = 0.12          # parameter collar inside every path segment
DEFAULT_FD_STEP = 1e-4     # central-difference step for the connection
DEFAULT_RHO = 0.04         # base rectangle scale for the curving


# --------------------------------------------------------------------------
# Dual-capable point arithmetic
# --------------------------------------------------------------------------

def _norm3(comps):
    acc = comps[0] * comps[0]
    for c in comps[1:]:
        acc = acc + c * c
    return dm.sqrt(acc)


def _normalize(comps):
    inv = 1.0 / _norm3(comps)
    return [c * inv for c in comps]


def _lerp(a, b, tau):
    return [av + tau * (bv - av) for av, bv in zip(a, b)]


def _wrap(d):
    d = np.asarray(d, dtype=float)
    return d - np.round(d)


class _Segment:
    """A collared within-model path between two (possibly moving) points.

    `start` and `end` are callables of the stage parameter s returning
    coordinate components (floats or duals); the segment itself maps the
    local parameter tau in [0,1] with sitting collars at both ends.
    """

    def __init__(self, model, start, end):
        self.model = model
        self.start = start
        self.end = end

    def at(self, s, tau):
        w = collar_warp(tau, SEG_COLLAR)
        comps = _lerp(self.start(s), self.end(s), w)
        if self.model.kind == "sphere":
            return _normalize(comps)
        return comps


def _piecewise_path(segments, s, t):
    n = len(segments)
    tv = min(max(value(t).real, 0.0), 1.0)
    k = min(int(tv * n), n - 1)
    tau = t * n - float(k)
    return segments[k].at(s, tau)


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

    def _const(self, p):
        p = np.asarray(p, dtype=float)
        return lambda s: list(p)

    def _unwrap_chain(self, points):
        """Continuous coordinate representatives along a chain of points."""
        if not self.model.periodic:
            return [np.asarray(p, dtype=float) for p in points]
        out = [np.asarray(points[0], dtype=float)]
        for p in points[1:]:
            prev = out[-1]
            out.append(prev + _wrap(np.asarray(p, dtype=float) - prev))
        return out

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
        y = np.asarray(y, dtype=float)
        chain = self._unwrap_chain(
            [model.basepoint, self.anchors[i], xij])
        bp, xi, xij_u = chain
        d = _wrap(y - xij) if model.periodic else (y - xij)
        xj_u = xij_u + (_wrap(self.anchors[j] - xij) if model.periodic
                        else (np.asarray(self.anchors[j], dtype=float) - xij))
        bp_u = xj_u + (_wrap(model.basepoint - self.anchors[j])
                       if model.periodic
                       else (np.asarray(model.basepoint, dtype=float)
                             - np.asarray(self.anchors[j], dtype=float)))

        def y_s(s):
            r = collar_warp(s, SEG_COLLAR)
            return [xv + r * dv for xv, dv in zip(xij_u, d)]

        segments = [
            _Segment(model, self._const(bp), self._const(xi)),
            _Segment(model, self._const(xi), y_s),
            _Segment(model, y_s, self._const(xj_u)),
            _Segment(model, self._const(xj_u), self._const(bp_u)),
        ]
        return Cylinder(model, lambda s, t: _piecewise_path(segments, s, t),
                        collar_width=SEG_COLLAR / len(segments), check=False)

    def probe_cylinder(self, i, y, tangent, step) -> Cylinder:
        """Homotopy sweeping the short probe path q(u) = y + u*step*v.

        The stage-s loop runs * -> x_i -> y, along q to q(s*step), then
        back to x_i and * along fixed paths.  Its bottom loop is thin.
        """
        model = self.model
        y = np.asarray(y, dtype=float)
        v = np.asarray(tangent, dtype=float)
        chain = self._unwrap_chain([model.basepoint, self.anchors[i], y])
        bp, xi, y_u = chain
        endpoint = y + step * v
        if model.kind == "sphere":
            endpoint = endpoint / np.linalg.norm(endpoint)
        if not self.cover.charts[i].contains(model.reduce(endpoint),
                                             with_margin=True):
            raise StepTooLarge(
                f"probe path leaves chart {i} at step {step}")

        def z_s(s):
            r = collar_warp(s, SEG_COLLAR)
            return [yv + (r * step) * vv for yv, vv in zip(y_u, v)]

        segments = [
            _Segment(model, self._const(bp), self._const(xi)),
            _Segment(model, self._const(xi), self._const(y_u)),
            _Segment(model, self._const(y_u), z_s),
            _Segment(model, z_s, self._const(xi)),
            _Segment(model, self._const(xi), self._const(bp)),
        ]
        return Cylinder(model, lambda s, t: _piecewise_path(segments, s, t),
                        collar_width=SEG_COLLAR / len(segments), check=False)

    def sweep_cylinder(self, i, point, v, w, rho) -> Cylinder:
        """Homotopy growing the rho-rectangle spanned by (v, w) at a point.

        The stage-s loop runs through the fixed paths to the point, then
        around the rectangle [0, rho v] x [0, s rho w]; its bottom loop
        is the thin out-and-back along the v edge and its top the full
        rectangle boundary.
        """
        model = self.model
        p = np.asarray(point, dtype=float)
        v = np.asarray(v, dtype=float)
        w = np.asarray(w, dtype=float)
        chain = self._unwrap_chain([model.basepoint, self.anchors[i], p])
        bp, xi, p_u = chain

        corners = [p_u + rho * v,
                   None,       # p + rho v + k(s) rho w
                   None,       # p + k(s) rho w
                   p_u]
        for corner in (p_u + rho * v, p_u):
            q = corner / np.linalg.norm(corner) if model.kind == "sphere" \
                else corner
            if not self.cover.charts[i].contains(model.reduce(q),
                                                 with_margin=True):
                raise StepTooLarge(
                    f"sweep rectangle leaves chart {i} at scale {rho}")

        def k_of(s):
            return collar_warp(s, SEG_COLLAR)

        def corner_vw(s):
            k = k_of(s)
            return [pv + rho * vv + (k * rho) * wv
                    for pv, vv, wv in zip(p_u, v, w)]

        def corner_w(s):
            k = k_of(s)
            return [pv + (k * rho) * wv for pv, wv in zip(p_u, w)]

        segments = [
            _Segment(model, self._const(bp), self._const(xi)),
            _Segment(model, self._const(xi), self._const(p_u)),
            _Segment(model, self._const(p_u), self._const(corners[0])),
            _Segment(model, self._const(corners[0]), corner_vw),
            _Segment(model, corner_vw, corner_w),
            _Segment(model, corner_w, self._const(p_u)),
            _Segment(model, self._const(p_u), self._const(xi)),
            _Segment(model, self._const(xi), self._const(bp)),
        ]
        return Cylinder(model, lambda s, t: _piecewise_path(segments, s, t),
                        collar_width=SEG_COLLAR / len(segments), check=False)


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
            r = 0.0
            while r < 1.5:
                r += 0.02
                q = p + r * ray
                if model.kind == "sphere":
                    q = q / np.linalg.norm(q)
                if not all(c.contains(model.reduce(q), with_margin=True)
                           for c in charts):
                    break
            best = min(best, r)
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


def reconstruct_base(oracle, scaffold, i, j):
    """Base representative (e, e) of the anchor-loop morphism, with the
    inverse convention for the reversed pair."""
    m0 = oracle(scaffold.pair_cylinder(i, j, scaffold.pair_anchor(i, j)))
    res = mat_norm(m0.rep_source.entries - m0.rep_target.entries)
    return m0.rep_source, res


def reconstruct_transitions(oracle, scaffold, points) -> TransitionSamples:
    """Sample the transition functions from the oracle.

    `points` maps ordered chart pairs (i, j) to sample points inside the
    overlap; the base for (i, j) with i < j comes from the oracle, the
    base for (j, i) is its inverse.
    """
    ext = oracle.extension
    out = TransitionSamples()
    for (i, j) in sorted(points):
        key = (min(i, j), max(i, j))
        if key not in out.bases:
            base, res = reconstruct_base(oracle, scaffold, *key)
            out.bases[key] = base
            out.bases[(key[1], key[0])] = group_inv(base)
            out.base_residual = max(out.base_residual, res)
        sampled = []
        for y in points[(i, j)]:
            m = oracle(scaffold.pair_cylinder(i, j, y))
            sampled.append((np.asarray(y, dtype=float),
                            _normalized_pair(ext, m, out.bases[(i, j)])))
        out.samples[(i, j)] = sampled
    return out


def transition_at(oracle, scaffold, bases, i, j, y) -> GroupElement:
    """One transition sample e_ij(y), normalized against the stored base."""
    ext = oracle.extension
    key = (min(i, j), max(i, j))
    if key not in bases:
        base, _ = reconstruct_base(oracle, scaffold, *key)
        bases[key] = base
        bases[(key[1], key[0])] = group_inv(base)
    m = oracle(scaffold.pair_cylinder(i, j, y))
    return _normalized_pair(ext, m, bases[(i, j)])


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
                                        v, w, fd=2e-3,
                                        step=DEFAULT_FD_STEP):
    """Curvature dA + [A(v), A(w)] of the reconstructed connection."""
    model = scaffold.model

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

def holonomy_from_samples(oracle, scaffold, bases, loop, nodes=6):
    """Line holonomy of a based loop recomputed from reconstruction.

    Midpoint-rule ordered product of exponentials of reconstructed
    connection samples, with reconstructed transition samples at the
    chart crossings of a certified subdivision.
    """
    ext = oracle.extension
    sub = assign_charts_interval(loop, scaffold.cover)
    dim = ext.E.dim
    total = np.eye(dim, dtype=complex)
    charts = sub.charts
    gauss = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))
    for k, (a, b) in enumerate(sub.cells):
        ck = charts[k]
        pieces = max(3, math.ceil(3.0 * nodes * (b - a)))
        width = (b - a) / pieces
        for m in range(pieces):
            acc = np.zeros((dim, dim), dtype=complex)
            for gx in gauss:
                t = a + (m + gx) * width
                p, vel = loop.eval_with_deriv(t)
                if np.linalg.norm(vel) < 1e-12:
                    continue
                a_sample = reconstruct_connection(
                    oracle, scaffold, ck, scaffold.model.reduce(p), vel)
                acc = acc + 0.5 * width * a_sample.entries
            total = total @ expm(acc)
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
                     tol_rec=1e-4, oracle_settings=None,
                     conjugator=None) -> EquivalenceReport:
    """Rebuild the bundle's local data from its own functor and compare
    recomputed holonomies of a battery against the functor directly.

    Passes when the worst morphism-class deviation over the battery is
    at most 10 * tol_rec; an optional fixed conjugator (a lift in E of
    an overall group conjugation) is applied to the recomputed values
    before comparing.
    """
    ext = bundle.extension
    oracle = FunctorOracle(bundle, **(oracle_settings or {}))
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
        if conjugator is not None:
            h_rec = group_mul(group_mul(conjugator, h_rec),
                              group_inv(conjugator))
        m_rec = CatGroupMorphism(h_rec, h_rec, ext)
        m_ref = oracle(constant_cylinder(loop))
        items.append((label, morphism_distance(m_rec, m_ref)))

    tol = 10.0 * tol_rec
    max_dev = max(dev for _, dev in items) if items else 0.0
    passed = max_dev <= tol and checks.get("antisymmetry", 0.0) <= tol \
        and checks.get("cocycle-central", 0.0) <= tol
    return EquivalenceReport(passed=passed, tol=tol, max_deviation=max_dev,
                             items=items, checks=checks,
                             oracle_calls=oracle.calls)
