"""Group-valued maps, bundle validation, gauge moves, flatness."""

import numpy as np
import pytest

from holotwist import dual as dm
from holotwist.bundle import (
    GroupMap,
    gauge_transform,
    identity_gauge,
    is_flat,
    one_parameter_map,
    overlap_pairs,
    random_gauge,
    sample_region,
    validate,
)
from holotwist.errors import MissingField, TagMismatch
from holotwist.families import (
    monopole_bundle,
    pu2_bundle,
    torus_flat_bundle,
    trivial_bundle,
)
from holotwist.formsexpr.forms import exterior_derivative
from holotwist.geometry import make_cover
from holotwist.liecore import SIGMA, make_extension


def _phase_map():
    return GroupMap.from_dual_fn(
        lambda p: [[dm.exp(1j * (0.7 * p[0] - 0.3 * p[1]))]], "G")


def test_groupmap_jet_matches_fd():
    m = _phase_map()
    p, d = np.array([0.3, 0.6]), np.array([1.0, -2.0])
    val, dot = m.jet(p, d)
    h = 1e-6
    fd = (m.value(p + h * d).entries - m.value(p - h * d).entries) / (2 * h)
    assert np.allclose(dot, fd, atol=1e-8)


def test_groupmap_product_inverse_power():
    a, b = _phase_map(), GroupMap.from_dual_fn(
        lambda p: [[dm.exp(1j * p[1])]], "G")
    p, d = np.array([0.2, 0.4]), np.array([0.5, 1.5])
    prod = a.mul(b)
    val, dot = prod.jet(p, d)
    h = 1e-6
    fd = (prod.value(p + h * d).entries
          - prod.value(p - h * d).entries) / (2 * h)
    assert np.allclose(dot, fd, atol=1e-8)
    ident = a.mul(a.inv())
    v, dv = ident.jet(p, d)
    assert np.allclose(v, np.eye(1)) and np.allclose(dv, 0.0)
    cube = a.power(3)
    assert np.allclose(cube.value(p).entries, a.value(p).entries ** 3)
    with pytest.raises(TagMismatch):
        a.mul(GroupMap.constant(np.eye(1), "H"))


def test_maurer_cartan_is_log_derivative():
    m = _phase_map()
    form = m.maurer_cartan(1, ("u", "v"))
    p, v = np.array([0.1, 0.9]), np.array([2.0, 1.0])
    # g = exp(i(0.7u - 0.3v)) so g^-1 dg = i(0.7 du - 0.3 dv)
    assert np.allclose(form(p, v), 1j * (0.7 * 2.0 - 0.3 * 1.0))


def test_one_parameter_map_jet():
    X = np.array([[1j, 1.0], [-1.0, -0.5j]])
    X = 0.5 * (X - X.conj().T)
    m = one_parameter_map(X, lambda p: dm.sin(p[0] + 2.0 * p[1]), "E")
    p, d = np.array([0.3, 0.2]), np.array([1.0, 0.7])
    val, dot = m.jet(p, d)
    h = 1e-6
    fd = (m.value(p + h * d).entries - m.value(p - h * d).entries) / (2 * h)
    assert np.allclose(dot, fd, atol=1e-8)
    assert np.allclose(val @ val.conj().T, np.eye(2), atol=1e-12)


def test_sample_region_hits_overlaps():
    cover = make_cover("torus-4squares")
    rng = np.random.default_rng(0)
    pts = sample_region(cover, (0, 1), rng, 10)
    assert len(pts) == 10
    for p in pts:
        assert cover.charts[0].contains(p, with_margin=True)
        assert cover.charts[1].contains(p, with_margin=True)


def test_trivial_bundle_validates_exactly():
    b = trivial_bundle("torus", "u1-squared")
    rep = validate(b, sample_count=10, seed=1)
    assert rep.passed and rep.max_residual == 0.0


def test_missing_field_detected():
    b = trivial_bundle("torus", "u1-squared")
    del b.h[(0, 1, 2)]
    with pytest.raises(MissingField):
        b.check_structure()


def test_validation_flags_corruption():
    b = trivial_bundle("torus", "u1-squared")
    b.h[(0, 1, 2)] = GroupMap.constant(np.array([[np.exp(0.5j)]]), "H")
    rep = validate(b, sample_count=6, seed=2)
    assert not rep.passed
    assert rep.residuals["cocycle"] > 0.1


def test_identity_gauge_is_a_no_op():
    b = torus_flat_bundle()
    b2 = gauge_transform(b, identity_gauge(b))
    rng = np.random.default_rng(3)
    for (i, j) in overlap_pairs(b.nc):
        pts = sample_region(b.cover, (i, j), rng, 4)
        for p in pts:
            assert np.allclose(b2.e[(i, j)].value(p).entries,
                               b.e[(i, j)].value(p).entries, atol=1e-12)


def test_random_gauge_preserves_validity():
    b = torus_flat_bundle()
    b2 = gauge_transform(b, random_gauge(b, seed=5))
    rep = validate(b2, sample_count=10, seed=6)
    assert rep.passed, rep.residuals


def test_based_gauge_fixes_basepoint():
    b = monopole_bundle(1)
    g = random_gauge(b, seed=7)
    bp = b.cover.model.reduce(b.cover.model.basepoint)
    for i in range(b.nc):
        assert np.allclose(g.e_i[i].value(bp).entries, np.eye(2), atol=1e-12)


def test_gauge_b_form_exact_exterior_derivative():
    b = torus_flat_bundle()
    g = random_gauge(b, seed=8)
    form = g.B_i[0]
    d = exterior_derivative(form)
    p = np.array([0.4, 0.7])
    v, w = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    h = 1e-5
    fd = ((form(p + h * v, w) - form(p - h * v, w)) / (2 * h)
          - (form(p + h * w, v) - form(p - h * w, v)) / (2 * h))
    assert np.allclose(d(p, v, w), fd, atol=1e-7)


def test_discrete_kernel_gauge_has_constant_h():
    ext = make_extension("roots-of-unity-3")
    b = trivial_bundle("torus", "roots-of-unity-3")
    g = random_gauge(b, seed=9)
    p1, p2 = np.array([0.1, 0.1]), np.array([0.3, 0.2])
    assert np.allclose(g.h_ij[(0, 1)].value(p1).entries,
                       g.h_ij[(0, 1)].value(p2).entries)
    val = complex(g.h_ij[(0, 1)].value(p1).entries[0, 0])
    assert abs(val ** 3 - 1.0) < 1e-12
    assert np.allclose(g.B_i[0](p1, np.array([1.0, 0.0])), 0.0)
    assert ext.H.dim == 1


def test_flatness_report():
    assert is_flat(torus_flat_bundle(), sample_count=8).flat_bundle
    rep = is_flat(monopole_bundle(1), sample_count=8)
    assert not rep.flat_bundle          # h_ijk varies over the overlap
    assert rep.flat_connection          # no 3-form curvature on a surface


def _so3_derivative_by_hand(e, de):
    """d of R_kl = 1/2 tr(s_k e s_l e^dagger), by the product rule."""
    ed, ded = e.conj().T, de.conj().T
    return np.array([[0.5 * np.trace(SIGMA[k] @ de @ SIGMA[l] @ ed
                                     + SIGMA[k] @ e @ SIGMA[l] @ ded)
                      for l in range(3)] for k in range(3)])


def test_projected_jets_are_exact():
    b = pu2_bundle()
    gauge = random_gauge(b, seed=4)
    rng = np.random.default_rng(12)
    worst = 0.0
    for (i, j) in overlap_pairs(b.nc):
        for p in sample_region(b.cover, (i, j), rng, 5):
            v = b.cover.model.random_tangent(rng, p)
            pairs = [(b.e[(i, j)], b.g[(i, j)]),
                     (gauge.e_i[i], gauge.g_i(b.extension, i))]
            for emap, gmap in pairs:
                e, de = emap.jet(p, v)
                r, dr = gmap.jet(p, v)
                assert np.allclose(r, b.extension.project_mat(e), atol=1e-14)
                worst = max(worst, float(np.abs(
                    dr - _so3_derivative_by_hand(e, de)).max()))
    assert worst <= 1e-13, worst


def test_pu2_gluing_residual_is_roundoff():
    rep = validate(pu2_bundle(), sample_count=200)
    assert rep.residuals["D_gluing"] <= 1e-13, rep.residuals
