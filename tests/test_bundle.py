"""Group-valued maps, bundle validation and gauge moves."""

import math

import numpy as np
import pytest

from holotwist import dual as dm
from holotwist.bundle import (
    GroupMap,
    gauge_transform,
    identity_gauge,
    one_parameter_map,
    overlap_pairs,
    random_gauge,
    sample_region,
    validate,
)
from holotwist.errors import MissingField, TagMismatch
from holotwist.families import (
    FAMILY_NAMES,
    TORUS_M,
    _linear_tau,
    make_bundle,
    monopole_bundle,
    pu2_bundle,
    torus_flat_bundle,
    trivial_bundle,
)
from holotwist.formsexpr.forms import LocalForm, exterior_derivative
from holotwist.geometry import make_cover
from holotwist.geometry import SPHERE_CAP_AXES
from holotwist.liecore import (BUILTIN_EXTENSIONS, SIGMA, kernel_block,
                               make_extension)


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


def test_groupmap_product_inverse():
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
    with pytest.raises(TagMismatch):
        a.mul(GroupMap.constant(np.eye(1), "H"))


def test_maurer_cartan_is_log_derivative():
    m = _phase_map()
    form = m.maurer_cartan(1)
    assert form.value_tag == "g"
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
    del b.e[(0, 1)]
    with pytest.raises(MissingField):
        b.check_structure()


def test_validation_flags_corruption():
    b = trivial_bundle("torus", "u1-squared")
    b.e[(0, 1)] = GroupMap.constant(np.diag([1.0, np.exp(0.5j)]), "E")
    rep = validate(b, sample_count=6, seed=2)
    assert not rep.passed
    assert rep.residuals["cocycle"] > 0.1


def test_nan_residual_fails():
    """A residual that is NaN at some sample reads inf: a maximum taken
    with max() would skip it (max(0.0, nan) is 0.0) and pass."""
    b = trivial_bundle("torus", "u1-squared")
    d = b.A[0].dim
    b.A[0] = LocalForm(1, d, lambda p, v: np.full(p.shape[:-1] + (d, d),
                                                  np.nan))
    rep = validate(b, sample_count=6, seed=2)
    assert not rep.passed
    assert rep.residuals["A_gluing"] == np.inf
    assert rep.residuals["cocycle"] == 0.0


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


def _so3_derivative_by_hand(e, de):
    """d of R_kl = 1/2 tr(s_k e s_l e^dagger), by the product rule."""
    ed, ded = e.conj().T, de.conj().T
    return np.array([[0.5 * np.trace(SIGMA[k] @ de @ SIGMA[l] @ ed
                                     + SIGMA[k] @ e @ SIGMA[l] @ ded)
                      for l in range(3)] for k in range(3)])


def test_projected_jets_are_exact():
    b = pu2_bundle()
    gauge = random_gauge(b, seed=4)
    ext = b.extension
    rng = np.random.default_rng(12)
    worst = 0.0
    for (i, j) in overlap_pairs(b.nc):
        for p in sample_region(b.cover, (i, j), rng, 5):
            v = b.cover.model.tangent(p, rng.normal(size=3))
            gi = gauge.e_i[i].pushforward(ext.project_mat,
                                          ext.alg_project_mat, "G")
            pairs = [(b.e[(i, j)], b.g[(i, j)]), (gauge.e_i[i], gi)]
            for emap, gmap in pairs:
                e, de = emap.jet(p, v)
                r, dr = gmap.jet(p, v)
                assert np.allclose(r, ext.project_mat(e), atol=1e-14)
                worst = max(worst, float(np.abs(
                    dr - _so3_derivative_by_hand(e, de)).max()))
    assert worst <= 1e-13, worst


def test_pu2_gluing_residual_is_roundoff():
    rep = validate(pu2_bundle(), sample_count=200)
    assert rep.max_residual <= 1e-13, rep.residuals


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


# Every built-in family, and the trivial torus bundle on each extension.
DERIVED_CASES = [(name, {}) for name in FAMILY_NAMES] + [
    ("trivial", {"model": "torus", "extension": name})
    for name in sorted(BUILTIN_EXTENSIONS)]


@pytest.mark.parametrize("gauged", [False, True])
@pytest.mark.parametrize("name, params", DERIVED_CASES)
def test_g_layer_is_the_projection_of_the_e_layer(name, params, gauged):
    """g_ij(p) has the bits of pi(e_ij(p)) and D_i(p, v) those of
    pi_*(A_i(p, v)), on a built-in bundle and on a random gauge of it."""
    b = make_bundle(name, params)
    if gauged:
        b = gauge_transform(b, random_gauge(b, seed=11))
    ext = b.extension
    rng = np.random.default_rng(13)
    for (i, j) in overlap_pairs(b.nc):
        p = sample_region(b.cover, (i, j), rng, 5)
        v = b.cover.model.tangent(p, rng.normal(size=p.shape))
        assert _same_bits(b.g[(i, j)].value(p).entries,
                          ext.project_mat(b.e[(i, j)].value(p).entries))
        for k in (i, j):
            assert _same_bits(b.D[k](p, v), ext.alg_project_mat(b.A[k](p, v)))


def test_validate_checks_the_e_and_h_identities():
    """The five identities of the stored data: no key for a derived layer,
    and none for the abelian cocycle or delta h = 1, which follow."""
    rep = validate(torus_flat_bundle(), sample_count=6)
    assert set(rep.residuals) == {
        "antisymmetry_e", "antisymmetry_Aij", "cocycle", "A_gluing",
        "curving_gluing"}


# Every built-in family, and the trivial bundle on the sphere and the torus
# with each extension.
H_CASES = [(name, {}) for name in FAMILY_NAMES] + [
    ("trivial", {"model": model, "extension": name})
    for model in ("sphere", "torus") for name in sorted(BUILTIN_EXTENSIONS)]


def _stored_h(name, ijk, p):
    """The fiber cocycle that family `name`, at its default parameters,
    stored before h was derived, at the (N, n) points p."""
    edges = list(zip(ijk, ijk[1:] + ijk[:1]))
    if name in ("monopole", "sphere-pu2"):
        axes, kappa, mu = SPHERE_CAP_AXES, 0.8, 0.5
        tau = [_linear_tau(axes[a], axes[c], kappa, mu)[0] for a, c in edges]
        return np.exp(1j * (tau[0](p.T) + tau[1](p.T) + tau[2](p.T)))
    if name == "torus-flat":
        k, order = 1, 3
        m = {**TORUS_M, **{(j, i): -v for (i, j), v in TORUS_M.items()}}
        lam = [np.exp(2j * math.pi * k * m[e] / order) for e in edges]
        return np.full(len(p), lam[0] * lam[1] * lam[2])
    return np.ones(len(p), dtype=complex)


@pytest.mark.parametrize("gauged", [False, True])
@pytest.mark.parametrize("name, params", H_CASES)
def test_h_layer_is_read_from_the_triple_product(name, params, gauged):
    """h_ijk(p) has the bits of K(e_ij e_jk e_ki)(p), on a built-in bundle
    and on a random gauge of it; ungauged, it is the cocycle the family
    used to store: within 1e-15 on the sphere families, the same bits on
    torus-flat, and exactly 1 on the trivial bundle."""
    b = make_bundle(name, params)
    if gauged:
        b = gauge_transform(b, random_gauge(b, seed=11))
    rng = np.random.default_rng(19)
    h = b.h
    assert len(h) == b.nc * (b.nc - 1) * (b.nc - 2)
    for (i, j, k), hmap in h.items():
        p = sample_region(b.cover, (i, j, k), rng, 5)
        got = hmap.value(p).entries
        e = [b.e[ab].value(p).entries for ab in ((i, j), (j, k), (k, i))]
        assert _same_bits(got, kernel_block(e[0] @ e[1] @ e[2]))
        if gauged:
            continue
        want = _stored_h(name, (i, j, k), p)
        if name in ("monopole", "sphere-pu2"):
            assert np.abs(got[:, 0, 0] - want).max() <= 1e-15
        else:
            assert _same_bits(got[:, 0, 0].copy(), want)


@pytest.mark.parametrize("name", sorted(BUILTIN_EXTENSIONS))
def test_non_central_triple_product_fails_cocycle(name):
    """e_01 e_12 e_20 outside iota(H) reads in cocycle, through pi, on every
    extension: a G part that is off on U(1)^2 and U(2), and a phase whose
    cube is not 1 on roots-of-unity-3, where iota(H) is all of Z/3."""
    b = trivial_bundle("torus", name)
    off = {"u1-squared": np.diag([1.0, np.exp(0.5j)]),
           "u2-pu2": np.diag([np.exp(0.5j), np.exp(-0.5j)]),
           "roots-of-unity-3": np.array([[np.exp(0.5j)]])}[name]
    b.e[(0, 1)] = GroupMap.constant(off, "E")
    rep = validate(b, sample_count=6, seed=2)
    assert rep.residuals["cocycle"] > 0.1
