"""Line and surface holonomy of twisted bundles.

hol0/hol1 compute ordered products of path-ordered exponentials and
transition values over a certified interval subdivision.  epsilon
computes the abelian surface factor from the curving, the overlap
1-forms and the fiber 2-cocycle over a certified grid; the holonomy
functor assembles both into a morphism of the categorical group.

Grid conventions (fixed once, documented here):
  * faces are enumerated row-major; the face integral uses the (t, s)
    orientation, i.e. minus the (s, t) iterated integral;
  * an interior horizontal edge (constant s) is traversed in +t and
    carries A_{north,south}; an interior vertical edge (constant t) is
    traversed in +s and carries A_{west,east};
  * an interior vertex contributes h_{abc} . h_{adc}^-1 with a, b, c, d
    the lower-left, lower-right, upper-right, upper-left face charts;
  * the seam t=0 ~ t=1 of a cylinder is interior: its edge integrals
    vanish (the boundary loops are based there) but its vertices
    contribute, with west/east faces wrapping around.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .catgroup import TOL_MORPHISM, CatGroupMorphism
from .errors import NonFinite, NotSameFiber, PreconditionViolated
from .formsexpr.forms import integrate_1form, integrate_2form
from .geometry import assign_charts_interval, assign_charts_rect
from .liecore import GroupElement, log_principal, mat_norm, path_ordered_exp

@dataclass
class HolonomyResult:
    """A holonomy value with the discretization that produced it."""

    value: object                 # GroupElement or CatGroupMorphism
    subdivision: object
    cells: list = field(default_factory=list)   # (label, contribution)
    error_estimate: float = 0.0


def _transition(store, a, b, point, dim):
    if a == b:
        return np.eye(dim, dtype=complex)
    return store[(a, b)].value(point).entries


def _h_values(bundle, triples, points):
    """h_abc at each point of an (N, n) stack, one chart triple per
    point; the unit where two charts agree.  Each map is evaluated once,
    on all of its points."""
    dim = bundle.extension.H.dim
    out = np.tile(np.eye(dim, dtype=complex), (len(triples), 1, 1))
    for key in dict.fromkeys(triples):
        if len(set(key)) == 3:
            idx = [k for k, t in enumerate(triples) if t == key]
            out[idx] = bundle.h[key].value(points[idx]).entries
    return out


# --------------------------------------------------------------------------
# Line holonomy
# --------------------------------------------------------------------------

def _line_product(loop, sub, forms, trans, tag, dim, steps):
    total = np.eye(dim, dtype=complex)
    cells = []
    charts = sub.charts
    n = len(charts)
    ends = loop.eval(np.array(sub.breakpoints[1:]))
    for k, ((a, b), chart) in enumerate(zip(sub.cells, charts)):
        form = forms[chart]

        def fld(ts, form=form):
            return form(*loop.eval_with_deriv(ts))

        ncell = max(4, int(round(steps * (b - a))))
        u = path_ordered_exp(fld, a, b, steps=ncell, tag=tag.lower()).entries
        total = total @ u
        cells.append((f"cell[{k}] chart {chart}", u))
        nxt = charts[(k + 1) % n]
        tmat = _transition(trans, chart, nxt, ends[k], dim)
        if chart != nxt:
            cells.append((f"transition {chart}->{nxt}", tmat))
        total = total @ tmat
    if not np.all(np.isfinite(total)):
        raise NonFinite("line holonomy diverged")
    return total, cells


def _line_holonomy(bundle, loop, tag, subdivision, steps, with_error):
    """Holonomy of one layer: tag "G" transports with D and g, tag "E"
    with A and e."""
    sub = subdivision or assign_charts_interval(loop, bundle.cover)
    forms, trans = (bundle.D, bundle.g) if tag == "G" else (bundle.A, bundle.e)
    dim = bundle.extension.families[tag].dim
    total, cells = _line_product(loop, sub, forms, trans, tag, dim, steps)
    err = 0.0
    if with_error:
        half, _ = _line_product(loop, sub, forms, trans, tag, dim,
                                max(8, steps // 2))
        err = mat_norm(total - half)
    return HolonomyResult(GroupElement(total, tag), sub, cells, err)


def hol0(bundle, loop, subdivision=None, steps=96,
         with_error=True) -> HolonomyResult:
    """Ordinary holonomy of the underlying G-bundle along a based loop."""
    return _line_holonomy(bundle, loop, "G", subdivision, steps, with_error)


def hol1(bundle, loop, subdivision=None, steps=96,
         with_error=True) -> HolonomyResult:
    """The E-valued 1-holonomy; only well-defined jointly with epsilon."""
    return _line_holonomy(bundle, loop, "E", subdivision, steps, with_error)


# --------------------------------------------------------------------------
# Surface factor
# --------------------------------------------------------------------------

def _adaptive_face(form, patch, s0, s1, t0, t1, order, tol, depth):
    """Face integral with error control: compare two Gauss orders and
    split the cell in four while they disagree.

    Returns (integral, error): the error is the sum of |hi - lo| over
    the accepted cells, including any accepted at depth 0 above its
    tolerance."""
    lo = integrate_2form(form, patch, (s0, s1), (t0, t1), order=order).entries
    hi = integrate_2form(form, patch, (s0, s1), (t0, t1),
                         order=order + 5).entries
    gap = mat_norm(hi - lo)
    if depth == 0 or gap <= tol:
        return hi, gap
    sm, tm = 0.5 * (s0 + s1), 0.5 * (t0 + t1)
    q = tol / 4.0
    total, err = 0.0, 0.0
    for (a, b), (c, d) in (((s0, sm), (t0, tm)), ((s0, sm), (tm, t1)),
                           ((sm, s1), (t0, tm)), ((sm, s1), (tm, t1))):
        val, e = _adaptive_face(form, patch, a, b, c, d, order, q, depth - 1)
        total, err = total + val, err + e
    return total, err


def epsilon(bundle, cylinder, rect=None, order=8, edge_cells=4,
            face_tol=2e-9, max_split=6) -> HolonomyResult:
    """The abelian surface factor over a certified grid.

    Continuous contributions are accumulated in L(H) and exponentiated
    once; when the kernel H is discrete the vertex cocycle values are
    multiplied exactly in the component group instead.  The error
    estimate is the sum of |hi - lo| over the accepted face cells; it
    does not cover the edge quadrature.
    """
    ext = bundle.extension
    if rect is None:
        bot = assign_charts_interval(cylinder.bottom_loop(), bundle.cover)
        top = assign_charts_interval(cylinder.top_loop(), bundle.cover)
        rect = assign_charts_rect(cylinder, bundle.cover, bottom=bot, top=top)
    dim_h = ext.H.dim
    discrete = ext.discrete_kernel
    acc = np.zeros((dim_h, dim_h), dtype=complex)
    vert_prod = np.eye(dim_h, dtype=complex)
    cells = []
    rows, cols = rect.shape
    sb, tb = rect.s_breaks, rect.t_breaks

    # faces
    face_err = 0.0
    for r in range(rows):
        for c in range(cols):
            a = rect.charts[r][c]
            val, err = _adaptive_face(
                bundle.F[a], cylinder.eval_with_partials, sb[r], sb[r + 1],
                tb[c], tb[c + 1], order, face_tol, max_split)
            acc = acc - val
            face_err += err
            cells.append((f"face[{r},{c}] chart {a}", -val))

    # interior horizontal edges (+t, A_{north,south})
    for r in range(1, rows):
        for c in range(cols):
            south, north = rect.charts[r - 1][c], rect.charts[r][c]
            if south == north:
                continue

            def seg(ts, s=sb[r]):
                p, _, dt = cylinder.eval_with_partials(s, ts)
                return p, dt

            val = integrate_1form(
                bundle.Aij[(north, south)], seg, tb[c], tb[c + 1],
                order=order, cells=edge_cells).entries
            acc = acc + val
            cells.append((f"hedge[{r},{c}] {north},{south}", val))

    # interior vertical edges (+s, A_{west,east})
    for c in range(1, cols):
        for r in range(rows):
            west, east = rect.charts[r][c - 1], rect.charts[r][c]
            if west == east:
                continue

            def seg(ss, t=tb[c]):
                p, ds, _ = cylinder.eval_with_partials(ss, t)
                return p, ds

            val = integrate_1form(
                bundle.Aij[(west, east)], seg, sb[r], sb[r + 1],
                order=order, cells=edge_cells).entries
            acc = acc + val
            cells.append((f"vedge[{r},{c}] {west},{east}", val))
    # (seam edge integrals vanish: both boundary circles sit at the
    # basepoint for t in the collars, so the pullback of A_{west,east}
    # along the seam is zero)

    # interior vertices, row by row, each row ending at the seam
    # t=0 ~ t=1 (column 0, whose west faces wrap around to column -1);
    # a vertex with lower-left, lower-right, upper-right and upper-left
    # charts a, b, c, d contributes h_abc . h_adc^-1
    verts = [(r, c) for r in range(1, rows) for c in (*range(1, cols), 0)]
    if verts:
        points = cylinder.eval(np.array([sb[r] for r, _ in verts]),
                               np.array([tb[c] for _, c in verts]))
        ch = rect.charts
        triples = [(ch[r - 1][c - 1], ch[r - 1][c], ch[r][c])
                   for r, c in verts] \
            + [(ch[r - 1][c - 1], ch[r][c - 1], ch[r][c]) for r, c in verts]
        hs = _h_values(bundle, triples, np.concatenate([points, points]))
        for (r, c), first, second in zip(verts, hs, hs[len(verts):]):
            if discrete:
                step = first @ np.linalg.inv(second)
                vert_prod = vert_prod @ step
                cells.append((f"vertex[{r},{c}]", step))
            else:
                val = log_principal(first) - log_principal(second)
                acc = acc + val
                cells.append((f"vertex[{r},{c}]", val))

    total = scipy.linalg.expm(acc) @ vert_prod
    if not np.all(np.isfinite(total)):
        raise NonFinite("surface factor diverged")
    return HolonomyResult(GroupElement(total, "H"), rect, cells, face_err)


# --------------------------------------------------------------------------
# The holonomy functor
# --------------------------------------------------------------------------

def holonomy_functor(bundle, cylinder, bottom_sub=None, top_sub=None,
                     rect=None, steps=256, order=8, edge_cells=4,
                     face_tol=2e-9, max_split=6,
                     with_error=True) -> HolonomyResult:
    """H(c) = [H1(bottom), iota(epsilon(c)) . H1(top)] as a morphism of
    the categorical group, sharing the boundary subdivisions between the
    line holonomies and the grid."""
    cover = bundle.cover
    bot = bottom_sub or assign_charts_interval(cylinder.bottom_loop(), cover)
    top = top_sub or assign_charts_interval(cylinder.top_loop(), cover)
    if rect is None:
        rect = assign_charts_rect(cylinder, cover, bottom=bot, top=top)
    h1b = hol1(bundle, cylinder.bottom_loop(), bot, steps, with_error)
    h1t = hol1(bundle, cylinder.top_loop(), top, steps, with_error)
    eps = epsilon(bundle, cylinder, rect, order, edge_cells, face_tol,
                  max_split)
    target = bundle.extension.include_mat(eps.value.entries) \
        @ h1t.value.entries
    morphism = CatGroupMorphism(h1b.value,
                                GroupElement(target, "E"),
                                bundle.extension)
    cells = [("H1(bottom)", h1b.value.entries),
             ("epsilon", eps.value.entries),
             ("H1(top)", h1t.value.entries)]
    err = h1b.error_estimate + h1t.error_estimate + eps.error_estimate
    return HolonomyResult(morphism, (bot, top, rect), cells, err)


def conjugate_functor(result, g: GroupElement, lift: GroupElement,
                      ext=None):
    """Conjugate a holonomy value or morphism by g through a lift in E;
    well-defined because the extension is central."""
    if isinstance(result, CatGroupMorphism):
        ext = result.extension
    if ext is not None:
        if mat_norm(ext.project_mat(lift.entries) - g.entries) \
                > TOL_MORPHISM:
            raise NotSameFiber("lift does not project to the group element")
    if isinstance(result, CatGroupMorphism):
        li = np.linalg.inv(lift.entries)
        le = lift.entries
        return CatGroupMorphism(
            GroupElement(li @ result.rep_source.entries @ le, "E"),
            GroupElement(li @ result.rep_target.entries @ le, "E"),
            result.extension)
    gi = np.linalg.inv(g.entries)
    return GroupElement(gi @ result.entries @ g.entries, result.group_tag)


def kapustin_trace(bundle, cylinder, steps=256, order=8, edge_cells=4,
                   face_tol=2e-9) -> complex:
    """tr(iota(epsilon(c)) . H1(top)) for a cylinder whose bottom
    boundary is the constant loop at the basepoint, with the functor's
    quadrature settings."""
    bot = cylinder.bottom_loop().eval(np.linspace(0.0, 1.0, 33))
    if not bundle.cover.model.is_basepoint(bot).all():
        raise PreconditionViolated(
            "Kapustin trace needs a constant start boundary")
    res = holonomy_functor(bundle, cylinder, steps=steps, order=order,
                           edge_cells=edge_cells, face_tol=face_tol,
                           with_error=False)
    return complex(np.trace(res.value.rep_target.entries))
