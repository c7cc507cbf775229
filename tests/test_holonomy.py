"""Line/surface holonomy: oracles, invariances, functor laws."""

import math

import numpy as np
import pytest

from holotwist import catalog as C, geometry as G
import holotwist.holonomy as H
from holotwist.bundle import gauge_transform, random_gauge
from holotwist.catgroup import (
    compose,
    identity_of,
    morphism_distance,
    morphism_eq,
    tensor,
)
from holotwist.errors import NotSameFiber, PreconditionViolated
from holotwist.families import (
    monopole_bundle,
    torus_flat_bundle,
    trivial_bundle,
)
from holotwist.liecore import GroupElement, mat_norm
from liehelpers import riemann_product_exp


def _unit_morphism(ext):
    return identity_of(ext, GroupElement(np.eye(ext.G.dim), "G"))


# --- trivial bundle ----------------------------------------------------------

def test_trivial_bundle_holonomies_are_units():
    b = trivial_bundle("torus", "u1-squared")
    loop = C.winding_loop(1, 1)
    assert mat_norm(H.hol0(b, loop).value.entries - np.eye(1)) < 1e-12
    assert mat_norm(H.hol1(b, loop).value.entries - np.eye(2)) < 1e-12
    cyl = C.perturb_cylinder(G.constant_cylinder(loop), 0.2)
    res = H.holonomy_functor(b, cyl, steps=64, with_error=False)
    assert morphism_distance(res.value, _unit_morphism(b.extension)) < 1e-10


def test_constant_cylinder_identity_morphism():
    b = trivial_bundle("torus", "u1-squared")
    cyl = G.constant_cylinder(G.constant_loop(b.cover.model))
    res = H.holonomy_functor(b, cyl, steps=32, with_error=False)
    ok, _ = morphism_eq(res.value, _unit_morphism(b.extension))
    assert ok


def test_determinism_with_stored_subdivision():
    b = torus_flat_bundle()
    loop = C.winding_loop(1, 0)
    r1 = H.hol1(b, loop, steps=64, with_error=False)
    r2 = H.hol1(b, loop, r1.subdivision, steps=64, with_error=False)
    assert np.array_equal(r1.value.entries, r2.value.entries)


# --- hol0 oracles ------------------------------------------------------------

@pytest.mark.parametrize("n,theta", [(1, 0.9), (2, 1.4), (-1, 2.0)])
def test_monopole_latitude_phase(n, theta):
    """hol0 of a latitude circle carries the flux phase through the
    enclosed cap; checked against the closed form and against a dense
    midpoint product with the same transitions."""
    b = monopole_bundle(n)
    loop = C.latitude_loop(theta)
    sub = G.assign_charts_interval(loop, b.cover)
    G.certify_interval(loop, b.cover, sub)
    val = complex(H.hol0(b, loop, sub, steps=512,
                         with_error=False).value.entries[0, 0])
    pred = np.exp(1j * n * math.pi * (1.0 - math.cos(theta)))
    assert abs(val - pred) < 1e-6

    total = np.eye(1, dtype=complex)
    charts = sub.charts
    for k, ((a, bb), ch) in enumerate(zip(sub.cells, charts)):
        def fld(t, ch=ch):
            return b.D[ch](*loop.eval_with_deriv(t))

        total = total @ riemann_product_exp(fld, a, bb, factors=20000,
                                            tag="g").entries
        nxt = charts[(k + 1) % len(charts)]
        if ch != nxt:
            total = total @ b.g[(ch, nxt)].value(loop.eval(bb)).entries
    assert abs(val - complex(total[0, 0])) < 1e-6


def test_hol0_concatenation():
    b = monopole_bundle(1)
    l1, l2 = C.latitude_loop(1.0), C.latitude_loop(1.7)
    both = G.concat_loops(l1, l2)
    v = H.hol0(b, both, steps=512, with_error=False).value.entries
    v1 = H.hol0(b, l1, steps=512, with_error=False).value.entries
    v2 = H.hol0(b, l2, steps=512, with_error=False).value.entries
    assert mat_norm(v - v1 @ v2) < 1e-6


def test_projection_compatibility():
    cases = [(torus_flat_bundle(), C.winding_loop(1, -1)),
             (monopole_bundle(1), C.latitude_loop(1.2)),
             (trivial_bundle("sphere", "u2-pu2"), C.equator_loop())]
    for b, loop in cases:
        sub = G.assign_charts_interval(loop, b.cover)
        h1 = H.hol1(b, loop, sub, steps=256, with_error=False).value.entries
        h0 = H.hol0(b, loop, sub, steps=256, with_error=False).value.entries
        assert mat_norm(b.extension.project_mat(h1) - h0) < 1e-8


def test_torus_flat_hol1_regression():
    """Constant-coefficient connection: the dense Riemann product oracle
    pins the E-valued holonomy of the (1,0) winding loop."""
    b = torus_flat_bundle()
    loop = C.winding_loop(1, 0)
    sub = G.assign_charts_interval(loop, b.cover)
    val = H.hol1(b, loop, sub, steps=256, with_error=False).value.entries

    total = np.eye(2, dtype=complex)
    charts = sub.charts
    for k, ((a, bb), ch) in enumerate(zip(sub.cells, charts)):
        def fld(t, ch=ch):
            return b.A[ch](*loop.eval_with_deriv(t))

        total = total @ riemann_product_exp(fld, a, bb, factors=20000,
                                            tag="e").entries
        nxt = charts[(k + 1) % len(charts)]
        if ch != nxt:
            total = total @ b.e[(ch, nxt)].value(loop.eval(bb)).entries
    assert mat_norm(val - total) < 1e-6


# --- epsilon invariances -----------------------------------------------------

def _pure_gauge_bundle(seed=21, scale=0.5):
    b0 = trivial_bundle("torus", "u1-squared")
    return gauge_transform(b0, random_gauge(b0, seed=seed, scale=scale))


def test_epsilon_refinement_invariance():
    bp = _pure_gauge_bundle()
    cyl = C.perturb_cylinder(G.constant_cylinder(C.winding_loop(1, 0)), 0.45)
    bot = G.assign_charts_interval(cyl.bottom_loop(), bp.cover)
    top = G.assign_charts_interval(cyl.top_loop(), bp.cover)
    rect = G.assign_charts_rect(cyl, bp.cover, bottom=bot, top=top)
    e1 = H.epsilon(bp, cyl, rect).value.entries
    e2 = H.epsilon(bp, cyl, G.refine_rect(rect)).value.entries
    assert mat_norm(e1 - e2) < 1e-7


def test_epsilon_chart_reassignment_invariance():
    """Flipping an interior cell to another admissible chart changes the
    face, edge and vertex terms individually but not epsilon."""
    bp = _pure_gauge_bundle()
    cyl = C.perturb_cylinder(G.constant_cylinder(C.winding_loop(1, 0)), 0.45)
    bot = G.assign_charts_interval(cyl.bottom_loop(), bp.cover)
    top = G.assign_charts_interval(cyl.top_loop(), bp.cover)
    rect = G.assign_charts_rect(cyl, bp.cover, bottom=bot, top=top)
    rows, cols = rect.shape
    sb, tb = rect.s_breaks, rect.t_breaks
    flipped = 0
    e_base = H.epsilon(bp, cyl, rect).value.entries
    for r in range(1, rows - 1):
        for c in range(1, cols - 1):
            a = rect.charts[r][c]
            for alt in range(len(bp.cover)):
                if alt == a or flipped >= 3:
                    continue
                fits = all(bp.cover.charts[alt].contains(
                    bp.cover.model.reduce(cyl.eval(s, t)), with_margin=True)
                    for s in np.linspace(sb[r], sb[r + 1], 5)
                    for t in np.linspace(tb[c], tb[c + 1], 5))
                if not fits:
                    continue
                charts = [list(row) for row in rect.charts]
                charts[r][c] = alt
                rect2 = G.RectSubdivision(
                    rect.s_breaks, rect.t_breaks,
                    tuple(tuple(row) for row in charts),
                    rect.sample_density)
                e2 = H.epsilon(bp, cyl, rect2).value.entries
                assert mat_norm(e_base - e2) < 1e-7, (r, c, a, alt)
                flipped += 1
    assert flipped >= 3


def test_pure_gauge_functor_is_identity():
    """All grid layers assemble to the identity morphism on pure-gauge
    data: the joint oracle that pins every orientation convention."""
    bp = _pure_gauge_bundle()
    l1 = C.winding_loop(1, 0)
    cyl = C.morph_cylinder(l1, C.perturb_loop(l1, 0.3))
    res = H.holonomy_functor(bp, cyl, steps=512, order=12, with_error=False)
    assert morphism_distance(res.value, _unit_morphism(bp.extension)) < 1e-6


def test_discrete_kernel_pure_gauge_exact():
    b0 = trivial_bundle("torus", "roots-of-unity-3")
    bp = gauge_transform(b0, random_gauge(b0, seed=3))
    cyl = C.perturb_cylinder(G.constant_cylinder(C.winding_loop(1, 0)), 0.45)
    res = H.holonomy_functor(bp, cyl, steps=128, with_error=False)
    # the vertex-cocycle product is exact arithmetic in the component group
    eps = dict(res.cells)["epsilon"]
    assert mat_norm(eps - np.eye(1)) < 1e-12
    assert morphism_distance(res.value, _unit_morphism(bp.extension)) < 1e-6


# --- functor laws ------------------------------------------------------------

def test_vertical_composition_law():
    b = torus_flat_bundle()
    l1 = C.winding_loop(1, 0)
    l2 = C.perturb_loop(l1, 0.25)
    l3 = C.perturb_loop(l1, -0.2)
    c1 = C.morph_cylinder(l1, l2)
    c2 = C.morph_cylinder(l2, l3)
    stacked = G.compose_cylinders_vertical(c1, c2)
    m1 = H.holonomy_functor(b, c1, steps=256, with_error=False).value
    m2 = H.holonomy_functor(b, c2, steps=256, with_error=False).value
    m = H.holonomy_functor(b, stacked, steps=512, order=10,
                           with_error=False).value
    assert morphism_distance(m, compose(m1, m2)) < 1e-6


def test_horizontal_composition_law():
    b = torus_flat_bundle()
    la, lb = C.winding_loop(1, 0), C.winding_loop(0, 1)
    c1 = C.perturb_cylinder(G.constant_cylinder(la), 0.3)
    c2 = C.perturb_cylinder(G.constant_cylinder(lb), -0.25)
    side = G.compose_cylinders_horizontal(c1, c2)
    m1 = H.holonomy_functor(b, c1, steps=256, with_error=False).value
    m2 = H.holonomy_functor(b, c2, steps=256, with_error=False).value
    m = H.holonomy_functor(b, side, steps=512, order=10,
                           with_error=False).value
    assert morphism_distance(m, tensor(m1, m2)) < 1e-6


def test_thin_deformation_invariance():
    b = torus_flat_bundle()
    l1 = C.winding_loop(1, 0)
    cyl = C.morph_cylinder(l1, C.perturb_loop(l1, 0.25))
    warped = G.deform_thin(cyl, G.monotone_warp(), axis="t")
    m1 = H.holonomy_functor(b, cyl, steps=512, with_error=False).value
    m2 = H.holonomy_functor(b, warped, steps=512, with_error=False).value
    assert morphism_distance(m1, m2) < 1e-6


# --- conjugation and trace ---------------------------------------------------

def test_conjugate_functor_basics():
    b = torus_flat_bundle()
    cyl = C.morph_cylinder(C.winding_loop(1, 0),
                           C.perturb_loop(C.winding_loop(1, 0), 0.2))
    m = H.holonomy_functor(b, cyl, steps=128, with_error=False).value
    ext = b.extension
    unit_g = GroupElement(np.eye(1), "G")
    unit_e = GroupElement(np.eye(2), "E")
    same = H.conjugate_functor(m, unit_g, unit_e)
    assert morphism_distance(m, same) < 1e-12
    g = ext.random_element("G", np.random.default_rng(0))
    lift = GroupElement(ext.section_mat(g.entries), "E")
    twice = H.conjugate_functor(
        H.conjugate_functor(m, g, lift),
        GroupElement(np.linalg.inv(g.entries), "G"),
        GroupElement(np.linalg.inv(lift.entries), "E"))
    assert morphism_distance(m, twice) < 1e-10
    with pytest.raises(NotSameFiber):
        H.conjugate_functor(m, g, GroupElement(2.0 * lift.entries, "E"))


def test_kapustin_trace_trivial_and_precondition():
    b = trivial_bundle("torus", "u1-squared")
    const = G.constant_loop(b.cover.model)
    cyl = C.perturb_cylinder(G.constant_cylinder(const), 0.3)
    tr = H.kapustin_trace(b, cyl, steps=64)
    assert abs(tr - b.extension.E.dim) < 1e-9
    moving = C.morph_cylinder(C.winding_loop(1, 0),
                              C.perturb_loop(C.winding_loop(1, 0), 0.2))
    with pytest.raises(PreconditionViolated):
        H.kapustin_trace(b, moving, steps=32)
