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

Every oracle call is the functor at the coarse ORACLE_NUMERICS.
`rebuild` gives the bases, the transition samples and their residuals
to both commands: `reconstruct` reports them, and `round_trip_check`
(`roundtrip`) recomputes a battery of line holonomies from the
reconstructed samples alone, through the functor's own cell walk.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bundle import sample_region
from .catgroup import CatGroupMorphism, morphism_distance
from . import dual as dm
from .dual import Dual, value
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
    assign_charts_interval,
    collar_warp,
    constant_cylinder,
)
from .holonomy import _line_products, holonomy_functor
from .liecore import (
    AlgebraElement,
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
# The coarse functor settings that every oracle call runs at.
ORACLE_NUMERICS = dict(steps=64, order=5, edge_cells=1, face_tol=1e-6,
                       max_split=2)


# --------------------------------------------------------------------------
# Waypoint chains
# --------------------------------------------------------------------------

def _lift(x):
    """A node array or a Dual over the nodes with a trailing axis of
    length 1, to broadcast against (..., dim) stacks of points."""
    if isinstance(x, Dual):
        return Dual(x.val[..., None], np.asarray(x.dot)[..., None])
    return x[..., None]


def _column(x, c):
    """Component c of a (..., dim) stack of points or of a Dual over it."""
    if isinstance(x, Dual):
        return Dual(x.val[..., c], x.dot[..., c])
    return x[..., c]


def _chain_cylinder(model, waypoints) -> Cylinder:
    """A homotopy through a chain of fixed and moving waypoints.

    A waypoint is a point or a moving point (base, scale, vector) that
    sits at (k(s) * scale) * vector + base, k = collar_warp(s,
    SEG_COLLAR); the first and the last are fixed.  Consecutive
    waypoints are joined by collared straight segments of equal
    parameter length, projected radially onto the sphere.  fn(s, t) runs
    on (..., dim) stacks: it gathers the ends a, b of each node's
    segment from the table of waypoints by cell index, with the moving
    waypoints' rows overwritten (as Duals of derivative 0 at the fixed
    ones when s is a Dual), and takes a + w * (b - a),
    w = collar_warp(t * n - k, SEG_COLLAR), and the sphere projection
    by 1 / sqrt(((0 + x^2) + y^2) + z^2), all as Dual operations: node
    by node those of a segment path gathered component by component and
    a projection component by component, so the bits are theirs.  On the torus each base is
    lifted next to the previous one: by the wrapped displacement between
    the two bases as given, so a segment between two given points runs
    the same way wherever the chain has lifted them (a half-period tie
    included).
    """
    bases, moving, given = [], [], None
    for j, wp in enumerate(waypoints):
        base, scale, vec = wp if isinstance(wp, tuple) else (wp, 0.0, None)
        base = lifted = np.asarray(base, dtype=float)
        if model.periodic and given is not None:
            lifted = bases[-1] + model.wrap(base - given)
        bases.append(lifted)
        if vec is not None:
            moving.append((j, scale, np.asarray(vec, dtype=float)))
        given = base
    table = np.array(bases)
    n, dim = len(bases) - 1, table.shape[1]

    def ends(k, rows, dual):
        val, dot = table[k], 0.0
        for j, row in rows.items():
            at = (k == j)[..., None]
            val = np.where(at, value(row), val)
            if dual:
                dot = np.where(at, row.dot, dot)
        return Dual(val, dot) if dual else val

    def fn(s, t):
        k = dm.cell_index(value(t).real, n)
        warp = _lift(collar_warp(s, SEG_COLLAR))
        rows = {j: table[j] + (warp * scale) * vec
                for j, scale, vec in moving}
        dual = isinstance(s, Dual) and bool(rows)
        a, b = ends(k, rows, dual), ends(k + 1, rows, dual)
        q = a + _lift(collar_warp(t * n - k, SEG_COLLAR)) * (b - a)
        if model.kind == "sphere":
            sq = q * q
            q = q * _lift(1.0 / dm.sqrt(sum(_column(sq, c)
                                            for c in range(dim))))
        return [_column(q, c) for c in range(dim)]

    return Cylinder(model, fn, collar_width=SEG_COLLAR / n, check=False)


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
        return self.cover.charts[i].contains(
            self.model.reduce(self.model.project(q)), with_margin=True)

    def pair_cylinder(self, i, j, y) -> Cylinder:
        """Homotopy from the anchor loop to the loop through y.

        The stage-s loop is the pair loop through the point gamma(s) of
        the frozen overlap path x_ij -> y; its bottom is the loop through
        x_ij and its top the loop through y.
        """
        model = self.model
        xij = np.asarray(self.pair_anchor(i, j), dtype=float)
        d = model.wrap(np.asarray(y, dtype=float) - xij)
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
# (cos, sin) of the 8 ray angles, 45 degrees apart.
_RAY_ANGLES = np.array([(math.cos(a), math.sin(a))
                        for a in 2.0 * math.pi * np.arange(8) / 8.0])


def _central_point(cover, indices, rng):
    """A well-inside point of the (multi-)overlap: of 64 sampled points,
    the first that maximizes its depth, the shortest of 8 fixed rays
    that leaves the region, in one array pass."""
    pts = sample_region(cover, indices, rng, 64)
    rays = _RAY_ANGLES[None]
    if cover.model.kind == "sphere":
        t1 = np.cross(pts, [0.1, 0.25, 0.96])
        # norms from dot products, as np.linalg.norm takes them of one vector
        t1 /= np.sqrt(t1[:, None] @ t1[..., None])[:, 0]
        t2 = np.cross(pts, t1)
        cos, sin = _RAY_ANGLES.T[..., None]
        rays = cos * t1[:, None] + sin * t2[:, None]
    # q[point, ray, length]
    q = pts[:, None, None] + _RAY_LENGTHS[:, None] * rays[:, :, None]
    if cover.model.kind == "sphere":
        q = q / np.linalg.norm(q, axis=-1, keepdims=True)
    flat = cover.model.reduce(q.reshape(-1, q.shape[-1]))
    inside = np.all([cover.charts[k].contains(flat, with_margin=True)
                     for k in indices], axis=0).reshape(q.shape[:3])
    leaves = np.where(inside.all(axis=-1), _RAY_LENGTHS[-1],
                      _RAY_LENGTHS[inside.argmin(axis=-1)])
    return pts[leaves.min(axis=1).argmax()]


# --------------------------------------------------------------------------
# Oracle wrapper
# --------------------------------------------------------------------------

class FunctorOracle:
    """A bundle's holonomy functor at ORACLE_NUMERICS, with call
    counting and error wrapping."""

    def __init__(self, bundle):
        self.bundle = bundle
        self.calls = 0

    @property
    def extension(self):
        return self.bundle.extension

    def __call__(self, cylinder) -> CatGroupMorphism:
        self.calls += 1
        try:
            result = holonomy_functor(self.bundle, cylinder,
                                      **ORACLE_NUMERICS)
        except HolotwistError as exc:
            raise OracleFailure(f"functor evaluation failed: {exc}") from exc
        return result.value


# --------------------------------------------------------------------------
# Transitions and the kernel cocycle
# --------------------------------------------------------------------------

def pair_bases(oracle, scaffold):
    """(bases, residual): the base representative e of the anchor-loop
    morphism (e, e') of every anchored overlap {i, j}, i < j, under
    (i, j) and its inverse under (j, i); `residual` is the worst
    |e - e'|."""
    bases, residual = {}, 0.0
    for (i, j), anchor in sorted(scaffold.pair_anchors.items()):
        m0 = oracle(scaffold.pair_cylinder(i, j, anchor))
        bases[(i, j)] = m0.rep_source
        bases[(j, i)] = group_inv(m0.rep_source)
        residual = max(residual, mat_norm(m0.rep_source.entries
                                          - m0.rep_target.entries))
    return bases, residual


def transition_at(oracle, scaffold, bases, i, j, y) -> GroupElement:
    """One transition sample e_ij(y): the representative (bases[(i, j)],
    e') of the orbit of the pair-loop morphism through y."""
    m, ext = oracle(scaffold.pair_cylinder(i, j, y)), oracle.extension
    h = fiber_normalize(ext, m.rep_source, bases[(i, j)], tol_fiber=1e-3)
    return group_mul(m.rep_target, ext.include(h))


def reconstruct_transitions(oracle, scaffold, bases, points):
    """Transition samples {(i, j): [(y, e_ij(y))]} at the points that
    `points` gives each ordered chart pair (i, j)."""
    return {(i, j): [(np.asarray(y, dtype=float),
                      transition_at(oracle, scaffold, bases, i, j, y))
                     for y in points[(i, j)]]
            for (i, j) in sorted(points)}


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


def rebuild(bundle, seed, samples_per_overlap):
    """The rebuild that `reconstruct` and `roundtrip` share: the oracle,
    the scaffold at `seed`, and, from one default_rng(seed), transitions
    sampled both ways at `samples_per_overlap` points of every anchored
    overlap and the kernel cocycle at one point of each triple overlap,
    all against bases fetched before any sample.

    Returns (oracle, scaffold, bases, samples, checks); `checks` holds
    `base_diagonal` (the pair_bases residual), `antisymmetry` (the worst
    |e_ij e_ji - 1|) and, where a triple overlap exists,
    `cocycle_central` (the worst reconstruct_cocycle residual)."""
    oracle = FunctorOracle(bundle)
    scaffold = BasepointScaffold.for_cover(bundle.cover, seed=seed)
    cover, rng = bundle.cover, np.random.default_rng(seed)
    pairs = sorted(scaffold.pair_anchors)
    points = {}
    for (i, j) in pairs:
        points[(i, j)] = points[(j, i)] = sample_region(
            cover, (i, j), rng, samples_per_overlap)
    triples = {}
    for ijk in itertools.combinations(range(len(cover)), 3):
        try:
            triples[ijk] = sample_region(cover, ijk, rng, 1)
        except HolotwistError:
            continue
    bases, base_residual = pair_bases(oracle, scaffold)
    samples = reconstruct_transitions(oracle, scaffold, bases, points)
    unit = np.eye(oracle.extension.E.dim)
    checks = {"base_diagonal": base_residual, "antisymmetry": max(
        (mat_norm(group_mul(eij, eji).entries - unit) for (i, j) in pairs
         for (_, eij), (_, eji) in zip(samples[(i, j)], samples[(j, i)])),
        default=0.0)}
    if triples:
        checks["cocycle_central"] = max(res for rows in reconstruct_cocycle(
            oracle, scaffold, bases, triples).values() for (*_, res) in rows)
    return oracle, scaffold, bases, samples, checks


# --------------------------------------------------------------------------
# Connection and curving
# --------------------------------------------------------------------------

def reconstruct_connection(oracle, scaffold, chart, point, tangent,
                           step=DEFAULT_FD_STEP):
    """Connection sample A_chart(tangent) at the point.

    Central finite difference of the morphism invariant of the probe
    homotopy along the short path point + t*tangent.
    """
    r_plus = oracle(scaffold.probe_cylinder(chart, point, tangent,
                                            +step)).invariant().entries
    r_minus = oracle(scaffold.probe_cylinder(chart, point, tangent,
                                             -step)).invariant().entries
    return AlgebraElement((r_plus - r_minus) / (2.0 * step), "e")


def reconstruct_curvature_of_connection(oracle, scaffold, chart, point,
                                        v, w):
    """Curvature dA + [A(v), A(w)] of the reconstructed connection, with
    dA a central difference of step 2e-3."""
    model = scaffold.model
    point = np.asarray(point, dtype=float)
    fd = 2e-3

    def a_at(p, u):
        return reconstruct_connection(oracle, scaffold, chart, p,
                                      model.tangent(p, u)).entries

    d_vw = (a_at(model.project(point + fd * v), w)
            - a_at(model.project(point - fd * v), w)) / (2.0 * fd)
    d_wv = (a_at(model.project(point + fd * w), v)
            - a_at(model.project(point - fd * w), v)) / (2.0 * fd)
    av = a_at(point, v)
    aw = a_at(point, w)
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
    return AlgebraElement(coeffs, "h")


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

    The line holonomy's cell walk (holonomy._line_product) over the
    loop's chart-assigned subdivision, fed with reconstructed connection
    samples in each cell, on max(3, ceil(18 * length)) steps, and with
    reconstructed transition samples at the chart crossings.  Nodes
    where the loop sits still cost no oracle call.
    """
    model = scaffold.model
    dim = oracle.extension.E.dim
    zero = np.zeros((dim, dim), dtype=complex)

    def connection(chart, points, vels):
        return np.array([
            zero if np.linalg.norm(v) < 1e-12 else reconstruct_connection(
                oracle, scaffold, chart, model.reduce(p), v).entries
            for p, v in zip(points, vels)])

    def transition(a, b, point):
        return transition_at(oracle, scaffold, bases, a, b,
                             model.reduce(point)).entries

    fields = {k: functools.partial(connection, k)
              for k in range(len(scaffold.cover))}
    [(total, _)] = _line_products(
        lambda s, ts: loop.eval_with_deriv(ts),
        [(0.0, assign_charts_interval(loop, scaffold.cover),
          lambda length: max(3, math.ceil(18.0 * length)))],
        fields, transition, dim, "e")
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
    oracle, scaffold, bases, _, checks = rebuild(bundle, seed,
                                                 samples_per_overlap)

    # battery: recomputed line holonomies against the functor
    items = []
    for label, loop in _battery_loops(bundle.cover.model):
        h_rec = holonomy_from_samples(oracle, scaffold, bases, loop)
        m_rec = CatGroupMorphism(h_rec, h_rec, ext)
        m_ref = oracle(constant_cylinder(loop))
        items.append((label, morphism_distance(m_rec, m_ref)))

    tol = 10.0 * tol_rec
    max_dev = max(dev for _, dev in items) if items else 0.0
    passed = max(max_dev, *checks.values()) <= tol
    return EquivalenceReport(passed=passed, tol=tol, max_deviation=max_dev,
                             items=items, checks=checks,
                             oracle_calls=oracle.calls)
