"""Line and surface holonomy of twisted bundles.

hol0/hol1 compute ordered products of path-ordered exponentials and
transition values over an interval subdivision, in one cell walk
(_line_product) that the rebuild from holonomy (reconstruct) also runs,
on its own fields and transitions.  The walk's nodes (every cell's
path_ordered_exp nodes, then the cell ends) are planned first and the
loop's jets fetched in one call per line holonomy, both step counts of
the step-halving check included; the functor's bottom and top
holonomies share one cylinder call at s = 0 and s = 1.  epsilon
computes the abelian surface factor from the curving, the overlap
1-forms and the fiber 2-cocycle over a grid; the holonomy functor
assembles both into a morphism of the categorical group.  Charts are
assigned from samples (geometry.assign_charts_*; the functor bisects
both boundary loops in lockstep, one cylinder call per level).

Face quadrature compares two Gauss orders per cell and splits the cell
while they disagree.  The cylinder is evaluated once per grid row (every
cell of the row at both orders) and once per split cell (its four
quadrants at both orders); each cell's rows are sliced from the batch by
offset and handed down to it, and integrate_2form, called once per
(cell, order), takes them as its patch.  The interior edges take one
cylinder call in all, on the Gauss nodes of every edge; integrate_1form,
called once per edge, takes that edge's slice as its segment.
Each cell's (lo, hi) integrals go into a table that one command shares
across its runs, keyed by cylinder, form, exact bounds and order: a grid
refined by halving (refine_rect) repeats the coarse run's split quadrants
bit for bit, so only the cells the coarse run never saw are integrated.

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

from .catgroup import TOL_MORPHISM, CatGroupMorphism
from .errors import NonFinite, NotSameFiber, PreconditionViolated
from .formsexpr.forms import (_cell_nodes, _line_nodes, integrate_1form,
                              integrate_2form)
from .geometry import (_assign_charts_boundaries, assign_charts_interval,
                       assign_charts_rect)
from .liecore import (GroupElement, _exp_stack, _log_stack, _magnus_nodes,
                      mat_norm, path_ordered_exp)

@dataclass
class HolonomyResult:
    """A holonomy value with the discretization that produced it."""

    value: object                 # GroupElement or CatGroupMorphism
    subdivision: object
    cells: list = field(default_factory=list)   # (label, contribution)
    error_estimate: float = 0.0


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

def _walk_nodes(sub, cell_steps):
    """The nodes of _line_product's walk over sub: each cell's
    path_ordered_exp nodes on cell_steps(length) steps, in cell order,
    then the breakpoints past 0."""
    return np.concatenate(
        [_magnus_nodes(a, b, cell_steps(b - a))[1] for a, b in sub.cells]
        + [sub.breakpoints[1:]])


def _line_product(sub, points, vels, fields, transition, dim, cell_steps,
                  tag):
    """The ordered product along a chart-assigned subdivision: in each
    cell the path-ordered exponential of its chart's field,
    fields[chart](points, velocities), on cell_steps(length) steps; at
    each cell end the factor transition(chart, next chart, point), the
    unit where the chart does not change.  points and vels are the
    loop's jets at _walk_nodes(sub, cell_steps); each cell's field reads
    its slice.  Returns (total, cells)."""
    total = eye = np.eye(dim, dtype=complex)
    cells = []
    charts = sub.charts
    ends = points[-len(charts):]
    start = 0
    for k, ((a, b), chart) in enumerate(zip(sub.cells, charts)):
        field, steps = fields[chart], cell_steps(b - a)
        rows = slice(start, start + 2 * steps)
        start = rows.stop
        u = path_ordered_exp(lambda ts: field(points[rows], vels[rows]),
                             a, b, steps=steps, tag=tag).entries
        total = total @ u
        cells.append((f"cell[{k}] chart {chart}", u))
        nxt = charts[(k + 1) % len(charts)]
        tmat = eye
        if chart != nxt:
            tmat = transition(chart, nxt, ends[k])
            cells.append((f"transition {chart}->{nxt}", tmat))
        total = total @ tmat
    if not np.all(np.isfinite(total)):
        raise NonFinite("line holonomy diverged")
    return total, cells


def _line_products(jets, walks, fields, transition, dim, tag):
    """(total, cells) of _line_product for each walk (s, sub, cell_steps)
    of walks, with the jets at the nodes of every walk from one call
    jets(s, ts): s holds each node's walk's s, which a cylinder's
    eval_with_t_partial reads as the slice and a loop's jets ignore."""
    ts = [_walk_nodes(sub, steps) for _, sub, steps in walks]
    slices = np.repeat([w[0] for w in walks], [x.size for x in ts])
    points, vels = jets(slices, np.concatenate(ts))
    out, start = [], 0
    for (_, sub, steps), x in zip(walks, ts):
        rows = slice(start, start + x.size)
        start = rows.stop
        out.append(_line_product(sub, points[rows], vels[rows], fields,
                                 transition, dim, steps, tag))
    return out


def _cell_steps(steps):
    """The line holonomy's step rule: max(4, round(steps * length))."""
    return lambda length: max(4, int(round(steps * length)))


def _layer(bundle, tag):
    """(fields, transition, dim) of layer "G" (D and g) or "E" (A and
    e) of a bundle, as _line_product takes them."""
    forms, trans = (bundle.D, bundle.g) if tag == "G" else (bundle.A, bundle.e)
    return (forms, lambda a, b, p: trans[(a, b)].value(p).entries,
            bundle.extension.families[tag].dim)


def _line_holonomy(bundle, loop, tag, subdivision, steps):
    """Holonomy of one layer: tag "G" transports with D and g, tag "E"
    with A and e, max(4, round(steps * length)) steps per cell.  The
    step-halving check walks the same loop call's jets."""
    sub = subdivision or assign_charts_interval(loop, bundle.cover)
    (total, cells), (half, _) = _line_products(
        lambda s, ts: loop.eval_with_deriv(ts),
        [(0.0, sub, _cell_steps(n)) for n in (steps, max(8, steps // 2))],
        *_layer(bundle, tag), tag.lower())
    return HolonomyResult(GroupElement(total, tag), sub, cells,
                          mat_norm(total - half))


def hol0(bundle, loop, subdivision=None, steps=96) -> HolonomyResult:
    """Ordinary holonomy of the underlying G-bundle along a based loop."""
    return _line_holonomy(bundle, loop, "G", subdivision, steps)


def hol1(bundle, loop, subdivision=None, steps=96) -> HolonomyResult:
    """The E-valued 1-holonomy; only well-defined jointly with epsilon."""
    return _line_holonomy(bundle, loop, "E", subdivision, steps)


# --------------------------------------------------------------------------
# Surface factor
# --------------------------------------------------------------------------

def _rows(cylinder, cells, order, faces):
    """The patch entries of cells (form, s0, s1, t0, t1) at order and
    order + 5: one (cylinder, faces, lo, hi) entry per cell, where lo and
    hi answer integrate_2form's patch call on that cell at each order.
    The cells whose integrals the table faces holds get no rows; the
    others are fetched in one cylinder call."""
    fetch = [k for k, cell in enumerate(cells)
             if (cylinder, *cell, order) not in faces]
    entries = [(cylinder, faces, None, None)] * len(cells)
    if not fetch:
        return entries
    nodes = [_cell_nodes(*cells[k][1:], n)[:2]
             for k in fetch for n in (order, order + 5)]
    stacks = cylinder.eval_with_partials(
        *(np.concatenate(x) for x in zip(*nodes)))
    # each fetched cell holds order^2 rows, then (order + 5)^2
    n_lo, n_hi = order ** 2, (order + 5) ** 2
    for m, k in enumerate(fetch):
        start = m * (n_lo + n_hi)
        mid = start + n_lo
        entries[k] = (cylinder, faces, tuple(x[start:mid] for x in stacks),
                      tuple(x[mid:mid + n_hi] for x in stacks))
    return entries


def _adaptive_face(form, patch, s0, s1, t0, t1, order, tol, depth):
    """Face integral with error control: compare two Gauss orders and
    split the cell in four while they disagree.  patch is the cell's
    (cylinder, faces, lo, hi) entry from _rows; the four quadrants of a
    split cell are fetched in one call.  The cell's (lo, hi) integrals
    are read from the table faces, or computed from its rows and stored
    there, keyed by (cylinder, form, s0, s1, t0, t1, order).

    Returns (integral, error): the error is the sum of |hi - lo| over
    the accepted cells, including any accepted at depth 0 above its
    tolerance."""
    cylinder, faces, lo_rows, hi_rows = patch
    key = (cylinder, form, s0, s1, t0, t1, order)
    if key not in faces:
        faces[key] = (
            integrate_2form(form, lambda s, t: lo_rows, (s0, s1), (t0, t1),
                            order=order).entries,
            integrate_2form(form, lambda s, t: hi_rows, (s0, s1), (t0, t1),
                            order=order + 5).entries)
    lo, hi = faces[key]
    gap = mat_norm(hi - lo)
    if depth == 0 or gap <= tol:
        return hi, gap
    sm, tm = 0.5 * (s0 + s1), 0.5 * (t0 + t1)
    quads = ((s0, sm, t0, tm), (s0, sm, tm, t1),
             (sm, s1, t0, tm), (sm, s1, tm, t1))
    q = tol / 4.0
    total, err = 0.0, 0.0
    subs = _rows(cylinder, [(form, *quad) for quad in quads], order, faces)
    for quad, sub in zip(quads, subs):
        val, e = _adaptive_face(form, sub, *quad, order, q, depth - 1)
        total, err = total + val, err + e
    return total, err


def epsilon(bundle, cylinder, rect=None, order=8, edge_cells=4,
            face_tol=2e-9, max_split=6, faces=None) -> HolonomyResult:
    """The abelian surface factor over a grid.

    Continuous contributions are accumulated in L(H) and exponentiated
    once; when the kernel H is discrete the vertex cocycle values are
    multiplied exactly in the component group instead.  The error
    estimate is the sum of |hi - lo| over the accepted face cells; it
    does not cover the edge quadrature.  faces is the command's table
    of face integrals (see _adaptive_face), a fresh one when None.
    """
    ext = bundle.extension
    if rect is None:
        rect = _subdivisions(bundle, cylinder)[2]
    dim_h = ext.H.dim
    discrete = ext.discrete_kernel
    acc = np.zeros((dim_h, dim_h), dtype=complex)
    vert_prod = np.eye(dim_h, dtype=complex)
    cells = []
    rows, cols = rect.shape
    sb, tb = rect.s_breaks, rect.t_breaks
    ch = rect.charts

    # faces, a row's cells not in the table fetched at both orders at once
    faces = {} if faces is None else faces
    face_err = 0.0
    for r in range(rows):
        row = [(bundle.F[ch[r][c]], sb[r], sb[r + 1], tb[c], tb[c + 1])
               for c in range(cols)]
        for c, ((form, *cell), patch) in enumerate(
                zip(row, _rows(cylinder, row, order, faces))):
            val, err = _adaptive_face(form, patch, *cell, order, face_tol,
                                      max_split)
            acc = acc - val
            face_err += err
            cells.append((f"face[{r},{c}] chart {ch[r][c]}", -val))

    # interior edges with different charts on their two sides: the
    # horizontal ones (constant s, traversed in +t, A_{north,south}) row
    # by row, then the vertical ones (constant t, traversed in +s,
    # A_{west,east}) column by column.  The cylinder is evaluated once on
    # the Gauss nodes of all of them; each edge's segment answers
    # integrate_1form with its slice.
    edges = [(f"hedge[{r},{c}]", ch[r][c], ch[r - 1][c], 1, sb[r],
              tb[c], tb[c + 1]) for r in range(1, rows) for c in range(cols)]
    edges += [(f"vedge[{r},{c}]", ch[r][c - 1], ch[r][c], 0, tb[c],
               sb[r], sb[r + 1]) for c in range(1, cols) for r in range(rows)]
    edges = [edge for edge in edges if edge[1] != edge[2]]
    s_nodes, t_nodes = [], []
    for *_, axis, fixed, u0, u1 in edges:
        us = _line_nodes(u0, u1, order, edge_cells)[0]
        line = np.full(us.size, fixed)
        s_nodes.append(line if axis else us)
        t_nodes.append(us if axis else line)
    if edges:
        point, *partials = cylinder.eval_with_partials(
            np.concatenate(s_nodes), np.concatenate(t_nodes))
    size = order * edge_cells
    for k, (label, i, j, axis, _, u0, u1) in enumerate(edges):
        rows_k = slice(k * size, (k + 1) * size)

        def seg(us, rows_k=rows_k, tangent=partials[axis]):
            return point[rows_k], tangent[rows_k]

        val = integrate_1form(bundle.Aij[(i, j)], seg, u0, u1,
                              order=order, cells=edge_cells).entries
        acc = acc + val
        cells.append((f"{label} {i},{j}", val))
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
        triples = [(ch[r - 1][c - 1], ch[r - 1][c], ch[r][c])
                   for r, c in verts] \
            + [(ch[r - 1][c - 1], ch[r][c - 1], ch[r][c]) for r, c in verts]
        hs = _h_values(bundle, triples, np.concatenate([points, points]))
        if discrete:
            for (r, c), first, second in zip(verts, hs, hs[len(verts):]):
                step = first @ np.linalg.inv(second)
                vert_prod = vert_prod @ step
                cells.append((f"vertex[{r},{c}]", step))
        else:
            logs = _log_stack(hs)
            terms = logs[:len(verts)] - logs[len(verts):]
            for (r, c), val in zip(verts, terms):
                acc = acc + val
                cells.append((f"vertex[{r},{c}]", val))

    total = _exp_stack(acc[None])[0] @ vert_prod
    if not np.all(np.isfinite(total)):
        raise NonFinite("surface factor diverged")
    return HolonomyResult(GroupElement(total, "H"), rect, cells, face_err)


# --------------------------------------------------------------------------
# The holonomy functor
# --------------------------------------------------------------------------

def _subdivisions(bundle, cylinder, bot=None, top=None, rect=None):
    """The bottom and top subdivisions and the grid of a cylinder, each
    assigned unless given; the grid shares the boundary subdivisions."""
    cover = bundle.cover
    bot, top = _assign_charts_boundaries(cylinder, cover, bot, top)
    if rect is None:
        rect = assign_charts_rect(cylinder, cover, bottom=bot, top=top)
    return bot, top, rect


def holonomy_functor(bundle, cylinder, bottom_sub=None, top_sub=None,
                     rect=None, steps=256, order=8, edge_cells=4,
                     face_tol=2e-9, max_split=6, faces=None) -> HolonomyResult:
    """H(c) = [H1(bottom), iota(epsilon(c)) . H1(top)] as a morphism of
    the categorical group, sharing the boundary subdivisions between the
    line holonomies and the grid; both line holonomies walk the jets of
    one cylinder call at s = 0 and s = 1.  The error estimate is
    epsilon's face estimate; faces goes to epsilon."""
    bot, top, rect = _subdivisions(bundle, cylinder, bottom_sub, top_sub,
                                   rect)
    rule = _cell_steps(steps)
    (h1b, _), (h1t, _) = _line_products(
        cylinder.eval_with_t_partial, [(0.0, bot, rule), (1.0, top, rule)],
        *_layer(bundle, "E"), "e")
    eps = epsilon(bundle, cylinder, rect, order, edge_cells, face_tol,
                  max_split, faces)
    target = bundle.extension.include_mat(eps.value.entries) @ h1t
    morphism = CatGroupMorphism(GroupElement(h1b, "E"),
                                GroupElement(target, "E"),
                                bundle.extension)
    cells = [("H1(bottom)", h1b), ("epsilon", eps.value.entries),
             ("H1(top)", h1t)]
    return HolonomyResult(morphism, (bot, top, rect), cells,
                          eps.error_estimate)


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


def _starts_at_basepoint(bundle, cylinder):
    """Whether the bottom loop of a cylinder sits at the basepoint, on
    33 samples."""
    bot = cylinder.bottom_loop().eval(np.linspace(0.0, 1.0, 33))
    return bool(bundle.cover.model.is_basepoint(bot).all())


def kapustin_trace(bundle, cylinder, steps=256, order=8, edge_cells=4,
                   face_tol=2e-9, faces=None) -> complex:
    """tr(iota(epsilon(c)) . H1(top)) for a cylinder whose bottom
    boundary is the constant loop at the basepoint, with the functor's
    quadrature settings and face table."""
    if not _starts_at_basepoint(bundle, cylinder):
        raise PreconditionViolated(
            "Kapustin trace needs a constant start boundary")
    res = holonomy_functor(bundle, cylinder, steps=steps, order=order,
                           edge_cells=edge_cells, face_tol=face_tol,
                           faces=faces)
    return complex(np.trace(res.value.rep_target.entries))
