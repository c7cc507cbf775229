"""Models, covers, loops/cylinders with collars, and chart assignment."""

import math

import numpy as np
import pytest

from holotwist import dual as dm, geometry as G
from holotwist.dual import Dual
from holotwist.errors import (
    BoundaryMismatch,
    ChartMismatch,
    InvalidReparam,
    MaxDepthExceeded,
)

from charts import certify_interval, certify_rect, make_cover, \
    refine_interval


def test_smooth_step_profile():
    assert dm.smooth_step(-0.5) == 0.0
    assert dm.smooth_step(1.5) == 1.0
    assert 0.0 < dm.smooth_step(0.5) < 1.0
    for u in (0.2, 0.5, 0.9):
        d = dm.smooth_step(Dual(u, 1.0))
        h = 1e-6
        fd = (dm.smooth_step(u + h) - dm.smooth_step(u - h)) / (2 * h)
        assert abs(d.dot.real - fd) < 1e-6


def test_collar_warp_flat_on_collars():
    for t in (0.0, 0.01, 1.0 / 16.0):
        assert G.collar_warp(t) == 0.0
        assert G.collar_warp(1.0 - t) == 1.0


def test_models():
    sphere = G.make_model("sphere")
    torus = G.make_model("torus")
    assert abs(np.linalg.norm(sphere.basepoint) - 1.0) < 1e-12
    assert torus.same_point([0.0, 0.0], [2.0, -3.0])
    assert not torus.same_point([0.0, 0.0], [0.5, 0.0])
    with pytest.raises(ValueError):
        G.make_model("mobius")


def test_model_wrap_project_and_tangent():
    sphere, torus, plane = map(G.make_model, ("sphere", "torus", "plane"))
    rng = np.random.default_rng(5)
    for _ in range(200):
        p = sphere.random_points(rng, 1)[0]
        assert abs(np.dot(sphere.tangent(p, rng.normal(size=3)), p)) <= 1e-15
        q = rng.normal(size=3) * rng.uniform(0.1, 10.0)
        assert abs(np.linalg.norm(sphere.project(q)) - 1.0) <= 1e-15
    d = rng.uniform(-5.0, 5.0, size=(100, 2))
    w = torus.wrap(d)
    assert np.all(np.abs(w) <= 0.5)
    assert np.array_equal(d - w, np.round(d - w))
    assert np.array_equal(plane.wrap(d), d)
    assert np.array_equal(sphere.wrap(d[:, :1]), d[:, :1])
    assert np.array_equal(plane.project(d[0]), d[0])
    # across the seam u = 0 ~ 1, one point and a stack
    assert torus.same_point([1.0 - 1e-14, 0.3], [1e-14, 0.3])
    assert torus.same_point([[0.5, 1.0], [0.0, 0.2]],
                            [[0.5, 0.0], [-1.0, 1.2]]).all()
    assert not torus.same_point([0.999, 0.3], [0.001, 0.3])


def test_covers_basepoint_in_chart0():
    for name in ("sphere-3caps", "sphere-2caps-band", "torus-4squares",
                 "plane-1", "plane-4"):
        cover = make_cover(name)
        bp = cover.model.reduce(cover.model.basepoint)
        assert cover.charts[0].contains(bp, with_margin=True)


def test_margin_implies_plain_membership():
    cover = G.make_cover("sphere-3caps")
    rng = np.random.default_rng(0)
    for p in cover.model.random_points(rng, 300):
        for chart in cover.charts:
            if chart.contains(p, with_margin=True):
                assert chart.contains(p)


def _near_cap_boundary(axis, cos_threshold, n, rng):
    """n points p with p . axis within a few ulps of cos_threshold."""
    u = rng.normal(size=(n, 3))
    u -= np.outer(u @ axis, axis)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    p = cos_threshold * axis + math.sqrt(1.0 - cos_threshold ** 2) * u
    for _ in range(3):
        p = np.nextafter(p, rng.choice([-np.inf, np.inf], size=p.shape))
    return p


def test_cap_membership_of_a_stack_matches_each_point():
    """Within a few ulps of a cap's edge, a stack of points is judged as
    each point alone, so batched region sampling accepts what the
    per-point loop accepts (a matrix-vector product disagrees on about
    3% of these points)."""
    cover = G.make_cover("sphere-3caps")
    rng = np.random.default_rng(0)
    for axis, chart in zip(G.SPHERE_CAP_AXES, cover.charts):
        for shrink in (False, True):
            p = _near_cap_boundary(axis, -0.25 + shrink * chart.margin,
                                   2000, rng)
            stack = chart.contains(p, with_margin=shrink)
            assert 0.2 < stack.mean() < 0.8
            assert stack.tolist() == [
                bool(chart.contains(x, with_margin=shrink)) for x in p]


def test_sphere_cover_covers_with_margin():
    cover = G.make_cover("sphere-3caps")
    rng = np.random.default_rng(1)
    for p in cover.model.random_points(rng, 2000):
        assert any(c.contains(p, with_margin=True) for c in cover.charts)


def _torus_winding(p=1, q=0):
    model = G.make_model("torus")
    return G.Loop(model, lambda t: [p * G.collar_warp(t), q * G.collar_warp(t)])


def test_loop_validation_and_collars():
    loop = _torus_winding()
    assert np.allclose(loop.eval(0.0), [0.0, 0.0])
    assert np.allclose(loop.eval(1.0), [1.0, 0.0])  # basepoint mod 1
    assert np.linalg.norm(loop.deriv(0.03)) == 0.0
    assert np.linalg.norm(loop.deriv(0.98)) == 0.0


def test_unbased_loop_rejected():
    model = G.make_model("torus")
    with pytest.raises(BoundaryMismatch):
        G.Loop(model, lambda t: [0.5 * G.collar_warp(t), 0.0 * t])


def test_loop_deriv_matches_fd():
    loop = _torus_winding(2, 1)
    for t in (0.2, 0.5, 0.77):
        h = 1e-6
        fd = (loop.eval(t + h) - loop.eval(t - h)) / (2 * h)
        assert np.allclose(loop.deriv(t), fd, atol=1e-6)


def test_concat_and_reverse():
    l1, l2 = _torus_winding(1, 0), _torus_winding(0, 1)
    both = G.concat_loops(l1, l2)
    assert np.allclose(both.eval(1.0), [1.0, 1.0])
    assert both.model.is_basepoint(both.eval(1.0))
    rev = G.reverse_loop(G.reverse_loop(l1))
    for t in np.linspace(0, 1, 9):
        assert np.allclose(rev.eval(float(t)), l1.eval(float(t)), atol=1e-14)


def test_cylinder_partials_and_validation():
    loop = _torus_winding()
    cyl = G.constant_cylinder(loop)
    p, ds, dt = cyl.eval_with_partials(0.4, 0.6)
    assert np.allclose(ds, 0.0)
    h = 1e-6
    fd = (cyl.eval(0.4, 0.6 + h) - cyl.eval(0.4, 0.6 - h)) / (2 * h)
    assert np.allclose(dt, fd, atol=1e-6)


def test_vertical_composition_boundary_check():
    l1, l2 = _torus_winding(1, 0), _torus_winding(0, 1)
    c1, c2 = G.constant_cylinder(l1), G.constant_cylinder(l2)
    with pytest.raises(BoundaryMismatch):
        G.compose_cylinders_vertical(c1, c2)
    ok = G.compose_cylinders_vertical(c1, c1)
    assert np.allclose(ok.eval(0.25, 0.5), l1.eval(0.5))


def test_horizontal_composition_concatenates_slices():
    l1, l2 = _torus_winding(1, 0), _torus_winding(0, 1)
    c = G.compose_cylinders_horizontal(G.constant_cylinder(l1),
                                       G.constant_cylinder(l2))
    assert np.allclose(c.eval(0.3, 1.0), [1.0, 1.0])


def test_reparam_rules():
    G.Reparam(lambda t: t)
    with pytest.raises(InvalidReparam):
        G.Reparam(lambda t: 0.5 * t)
    with pytest.raises(InvalidReparam):
        G.Reparam(lambda t: 2.0 * t * (1 - t) + t * t * 0 + t * 1.5 - 0.5 * t)
    fold = G.fold_reparam((0.0, 0.7, 0.4, 1.0))
    assert abs(G.value(fold(1.0 / 6.0)).real - 0.35) < 0.2


def test_deform_thin_identity_and_warp():
    loop = _torus_winding()
    same = G.deform_thin(loop, G.Reparam(lambda t: t))
    for t in np.linspace(0, 1, 7):
        assert np.allclose(same.eval(float(t)), loop.eval(float(t)))
    warped = G.deform_thin(loop, G.monotone_warp())
    assert np.allclose(warped.eval(0.0), loop.eval(0.0))
    assert np.allclose(warped.eval(1.0), loop.eval(1.0))


# --- chart assignment -------------------------------------------------------

def test_constant_loop_single_cell_chart0():
    cover = G.make_cover("sphere-3caps")
    sub = G.assign_charts_interval(G.constant_loop(cover.model), cover)
    assert sub.charts == (0,)
    certify_interval(G.constant_loop(cover.model), cover, sub)


def test_interval_assignment_certifies_and_refines():
    cover = G.make_cover("torus-4squares")
    loop = _torus_winding(1, 1)
    sub = G.assign_charts_interval(loop, cover)
    certify_interval(loop, cover, sub)
    refined = refine_interval(sub, 0)
    certify_interval(loop, cover, refined)
    assert len(refined.charts) == len(sub.charts) + 1


def test_degenerate_cover_exceeds_depth():
    model = G.make_model("torus")
    tiny = G.Cover("tiny", model,
                   (G.square_chart("only", (0.0, 0.0), 0.1, margin=0.01),))
    with pytest.raises(MaxDepthExceeded):
        G.assign_charts_interval(_torus_winding(), tiny, max_depth=6)


def test_rect_assignment_boundary_rows_inherit():
    cover = G.make_cover("torus-4squares")
    loop = _torus_winding(1, 0)
    cyl = G.constant_cylinder(loop)
    bsub = G.assign_charts_interval(loop, cover)
    rect = G.assign_charts_rect(cyl, cover, bottom=bsub, top=bsub)
    certify_rect(cyl, cover, rect)
    # bottom row charts agree with the interval assignment cell-by-cell
    for j in range(rect.shape[1]):
        t_mid = 0.5 * (rect.t_breaks[j] + rect.t_breaks[j + 1])
        want = next(ch for (a, b), ch in zip(bsub.cells, bsub.charts)
                    if a <= t_mid <= b)
        assert rect.charts[0][j] == want
        assert rect.charts[-1][j] == want


def test_rect_max_depth_zero():
    cover = G.make_cover("torus-4squares")
    cyl = G.constant_cylinder(_torus_winding(1, 1))
    with pytest.raises(MaxDepthExceeded):
        G.assign_charts_rect(cyl, cover, max_depth=0)


def test_refine_rect_inherits_charts():
    cover = G.make_cover("torus-4squares")
    cyl = G.constant_cylinder(_torus_winding(1, 0))
    sub = G.assign_charts_interval(_torus_winding(1, 0), cover)
    rect = G.assign_charts_rect(cyl, cover, bottom=sub, top=sub)
    fine = G.refine_rect(rect)
    assert fine.shape == (2 * rect.shape[0], 2 * rect.shape[1])
    certify_rect(cyl, cover, fine)


def test_certify_rejects_wrong_chart():
    cover = G.make_cover("torus-4squares")
    loop = _torus_winding(1, 0)
    sub = G.assign_charts_interval(loop, cover)
    bad = G.IntervalSubdivision(sub.breakpoints,
                                tuple((c + 2) % 4 for c in sub.charts),
                                sub.sample_density)
    with pytest.raises(ChartMismatch):
        certify_interval(loop, cover, bad)
