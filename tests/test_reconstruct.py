"""Rebuilding local data from the holonomy functor and the round trip."""

import numpy as np
import pytest

from holotwist import catalog, reconstruct as R
from holotwist.bundle import gauge_transform, random_gauge, sample_region
from holotwist.catgroup import CatGroupMorphism, morphism_distance
from holotwist.errors import ConfigError, StepTooLarge, TagMismatch
from holotwist.families import monopole_bundle, pu2_bundle, trivial_bundle
from holotwist.geometry import constant_cylinder, make_cover
from holotwist.liecore import AlgebraElement, exp_matrix, group_mul
from pointwise import random_tangent


@pytest.fixture(scope="module")
def mono():
    bundle = monopole_bundle(1)
    scaffold = R.BasepointScaffold.for_cover(bundle.cover, seed=0)
    return bundle, scaffold, R.FunctorOracle(bundle)


@pytest.fixture(scope="module")
def triv():
    bundle = trivial_bundle("sphere", "u1-squared")
    scaffold = R.BasepointScaffold.for_cover(bundle.cover, seed=0)
    return bundle, scaffold, R.FunctorOracle(bundle)


# --- scaffold geometry -------------------------------------------------------

def test_scaffold_anchors_inside_charts(mono):
    bundle, scaffold, _ = mono
    cover = bundle.cover
    for i, x in scaffold.anchors.items():
        assert cover.charts[i].contains(cover.model.reduce(x),
                                        with_margin=True)
    for (i, j), x in scaffold.pair_anchors.items():
        q = cover.model.reduce(x)
        assert cover.charts[i].contains(q, with_margin=True)
        assert cover.charts[j].contains(q, with_margin=True)
    with pytest.raises(ConfigError):
        scaffold.pair_anchor(0, 99)


def test_pair_loop_is_based_with_collars(mono):
    bundle, scaffold, _ = mono
    model = bundle.cover.model
    y = scaffold.pair_anchor(0, 1)
    loop = scaffold.pair_cylinder(0, 1, y).top_loop()
    for t in (0.0, 1.0, 0.005, 0.995):
        assert model.is_basepoint(loop.eval(t), tol=1e-9)
    assert np.linalg.norm(loop.deriv(0.004)) < 1e-9
    # the loop passes through both chart anchors and the overlap point
    pts = [loop.eval(t) for t in np.linspace(0.0, 1.0, 401)]
    for target in (scaffold.anchors[0], scaffold.anchors[1], y):
        assert min(np.linalg.norm(p - target) for p in pts) < 2e-2


def test_pair_cylinder_boundaries(mono):
    bundle, scaffold, _ = mono
    rng = np.random.default_rng(7)
    y = sample_region(bundle.cover, (0, 1), rng, 1)[0]
    cyl = scaffold.pair_cylinder(0, 1, y)
    bot = [cyl.eval(0.0, t) for t in np.linspace(0.0, 1.0, 301)]
    top = [cyl.eval(1.0, t) for t in np.linspace(0.0, 1.0, 301)]
    anchor = scaffold.pair_anchor(0, 1)
    assert min(np.linalg.norm(p - anchor) for p in bot) < 2e-2
    assert min(np.linalg.norm(p - y) for p in top) < 2e-2
    # s-collar: the stage-0.02 loop still equals the bottom loop
    for t in (0.3, 0.62):
        assert np.linalg.norm(cyl.eval(0.02, t) - cyl.eval(0.0, t)) < 1e-12


def _scaffold_probes(cover_name):
    """A scaffold with a point, unit tangents v, w of chart 0 near its
    anchor, and a point of the (0, 1) overlap."""
    cover = make_cover(cover_name)
    scaffold = R.BasepointScaffold.for_cover(cover, seed=0)
    rng = np.random.default_rng(12)
    p = scaffold.anchors[0] + 0.1 * random_tangent(
        cover.model, rng, scaffold.anchors[0])
    if cover.model.kind == "sphere":
        p /= np.linalg.norm(p)
    v = random_tangent(cover.model, rng, p)
    v /= np.linalg.norm(v)
    w = random_tangent(cover.model, rng, p)
    w -= np.dot(w, v) * v
    w /= np.linalg.norm(w)
    y = sample_region(cover, (0, 1), rng, 1)[0]
    return scaffold, p, v, w, y


@pytest.mark.parametrize("cover_name", ["sphere-3caps", "torus-4squares"])
def test_scaffold_cylinders_are_based_and_collared(cover_name):
    scaffold, p, v, w, y = _scaffold_probes(cover_name)
    cylinders = [scaffold.pair_cylinder(0, 1, y),
                 scaffold.pair_cylinder(1, 0, y),
                 scaffold.probe_cylinder(0, p, v, 1e-3),
                 scaffold.sweep_cylinder(0, p, v, w, R.DEFAULT_RHO)]
    for cyl in cylinders:
        cyl._validate()
    # probe and sweep loops go out and back: they close in coordinates
    bp = scaffold.model.basepoint
    for cyl in cylinders[2:]:
        for s in (0.0, 0.5, 1.0):
            assert np.allclose(cyl.eval(s, 1.0), bp, atol=1e-12)
    # a pair loop may wind around the torus, but the loops of (i, j) and
    # (j, i) wind oppositely, as e_ij e_ji = 1 needs
    for (i, j) in scaffold.pair_anchors:
        x = scaffold.pair_anchor(i, j)
        winding = (scaffold.pair_cylinder(i, j, x).eval(0.5, 1.0)
                   + scaffold.pair_cylinder(j, i, x).eval(0.5, 1.0))
        assert np.allclose(winding, 2.0 * bp, atol=1e-12)
    # the probe homotopy starts from a thin out-and-back loop
    probe = cylinders[2]
    for t in np.linspace(0.0, 0.5, 41):
        assert np.allclose(probe.eval(0.0, t), probe.eval(0.0, 1.0 - t),
                           atol=1e-12)


@pytest.mark.parametrize("cover_name", ["sphere-3caps", "torus-4squares"])
def test_sweep_outside_chart_raises(cover_name):
    scaffold, p, v, w, _ = _scaffold_probes(cover_name)
    model = scaffold.model
    axis = scaffold.anchors[0]
    if model.kind == "sphere":
        # a point just inside the cap rim, swept radially outward
        u = np.cross(axis, v)
        u /= np.linalg.norm(u)
        p = -0.1 * axis + np.sqrt(0.99) * u
        v = -(axis - np.dot(axis, p) * p)
        v /= np.linalg.norm(v)
    else:
        p, v = axis, np.array([1.0, 0.0])
    with pytest.raises(StepTooLarge):
        scaffold.sweep_cylinder(0, p, v, w, 0.5)


# --- transitions -------------------------------------------------------------

def test_trivial_transitions_are_identity(triv):
    bundle, scaffold, oracle = triv
    rng = np.random.default_rng(1)
    ys = sample_region(bundle.cover, (0, 1), rng, 2)
    bases, base_residual = R.pair_bases(oracle, scaffold)
    samples = R.reconstruct_transitions(oracle, scaffold, bases,
                                        {(0, 1): ys, (1, 0): ys})
    for y, e in samples[(0, 1)]:
        assert np.allclose(e.entries, np.eye(2), atol=1e-9)
    assert base_residual < 1e-9


def test_monopole_transition_antisymmetry_and_projection(mono):
    bundle, scaffold, oracle = mono
    ext = bundle.extension
    rng = np.random.default_rng(2)
    ys = sample_region(bundle.cover, (0, 1), rng, 2)
    bases, _ = R.pair_bases(oracle, scaffold)
    samples = R.reconstruct_transitions(oracle, scaffold, bases,
                                        {(0, 1): ys, (1, 0): ys})
    for (y, eij), (_, eji) in zip(samples[(0, 1)], samples[(1, 0)]):
        assert np.allclose(group_mul(eij, eji).entries, np.eye(2),
                           atol=1e-6)
        # the projected sample is the transition of the underlying bundle
        g_rec = ext.project_mat(eij.entries)
        g_ref = bundle.g[(0, 1)].value(y).entries
        assert np.allclose(g_rec, g_ref, atol=1e-6)


def test_cocycle_lands_in_kernel(mono):
    bundle, scaffold, oracle = mono
    rng = np.random.default_rng(3)
    y = sample_region(bundle.cover, (0, 1, 2), rng, 1)
    bases, _ = R.pair_bases(oracle, scaffold)
    out = R.reconstruct_cocycle(oracle, scaffold, bases, {(0, 1, 2): y})
    (_, h, res), = out[(0, 1, 2)]
    assert res < 1e-6
    assert abs(abs(complex(h.entries[0, 0])) - 1.0) < 1e-6


# --- connection --------------------------------------------------------------

def test_trivial_connection_vanishes(triv):
    bundle, scaffold, oracle = triv
    p = scaffold.anchors[0]
    v = np.cross(p, [0.3, 0.7, 0.2])
    a = R.reconstruct_connection(oracle, scaffold, 0, p, v)
    assert np.allclose(a.entries, 0.0, atol=1e-8)


def test_monopole_connection_projection_and_linearity(mono):
    bundle, scaffold, oracle = mono
    ext = bundle.extension
    rng = np.random.default_rng(4)
    p = sample_region(bundle.cover, (0,), rng, 1)[0]
    v = np.cross(p, [0.2, 0.9, 0.4])
    v /= np.linalg.norm(v)
    a_rec = R.reconstruct_connection(oracle, scaffold, 0, p, v)
    # the projected part is gauge-independent and matches the stored data
    proj_rec = ext.alg_project_mat(a_rec.entries)
    proj_ref = ext.alg_project_mat(bundle.A[0](p, v))
    assert np.allclose(proj_rec, proj_ref, atol=1e-4)
    a_two = R.reconstruct_connection(oracle, scaffold, 0, p, 2.0 * v)
    assert np.allclose(a_two.entries, 2.0 * a_rec.entries, atol=1e-6)


def test_connection_step_halving_stable(mono):
    bundle, scaffold, oracle = mono
    p = scaffold.anchors[0]
    v = np.cross(p, [0.1, 0.8, 0.6])
    v /= np.linalg.norm(v)
    a1 = R.reconstruct_connection(oracle, scaffold, 0, p, v, step=1e-4)
    a2 = R.reconstruct_connection(oracle, scaffold, 0, p, v, step=5e-5)
    assert np.abs(a1.entries - a2.entries).max() < 1e-3


def test_probe_outside_chart_raises(mono):
    bundle, scaffold, _ = mono
    axis = scaffold.anchors[0]
    # a point near the rim of the cap, probed radially outward
    other = np.array([0.0, 0.0, 1.0])
    p = -0.1 * axis + np.sqrt(1.0 - 0.01) * np.cross(
        axis, np.cross(axis, other)) / np.linalg.norm(np.cross(
            axis, np.cross(axis, other)))
    p /= np.linalg.norm(p)
    v = -axis + np.dot(axis, p) * p
    v /= np.linalg.norm(v)
    with pytest.raises(StepTooLarge):
        scaffold.probe_cylinder(0, p, v, 1.5)


# --- curving -----------------------------------------------------------------

def test_trivial_curving_vanishes(triv):
    bundle, scaffold, oracle = triv
    p = scaffold.anchors[0]
    v = np.cross(p, [0.2, 0.9, 0.4])
    v /= np.linalg.norm(v)
    w = np.cross(p, v)
    f = R.reconstruct_curving(oracle, scaffold, 0, p, v, w)
    assert np.abs(f.entries).max() < 1e-8


def test_samples_are_tagged_with_their_algebras(triv):
    """The connection sample lives in the algebra e and the curving
    sample in h, so both exponentiate; group tags are refused."""
    bundle, scaffold, oracle = triv
    p = scaffold.anchors[0]
    v = np.cross(p, [0.2, 0.9, 0.4])
    v /= np.linalg.norm(v)
    a = R.reconstruct_connection(oracle, scaffold, 0, p, v)
    f = R.reconstruct_curving(oracle, scaffold, 0, p, v, np.cross(p, v))
    assert (a.algebra_tag, exp_matrix(a).group_tag) == ("e", "E")
    assert (f.algebra_tag, exp_matrix(f).group_tag) == ("h", "H")
    with pytest.raises(TagMismatch):
        AlgebraElement(a.entries, "E")


def test_monopole_curving_antisymmetric_and_scale_stable(mono):
    bundle, scaffold, oracle = mono
    p = scaffold.anchors[0]
    v = np.cross(p, [0.2, 0.9, 0.4])
    v /= np.linalg.norm(v)
    w = np.cross(p, v)
    curv = R.reconstruct_curvature_of_connection(oracle, scaffold, 0, p, v, w)
    f_vw = R.reconstruct_curving(oracle, scaffold, 0, p, v, w,
                                 curvature=curv)
    f_wv = R.reconstruct_curving(oracle, scaffold, 0, p, w, v,
                                 curvature=-curv)
    assert np.abs(f_vw.entries + f_wv.entries).max() < 1e-3
    f_half = R.reconstruct_curving(oracle, scaffold, 0, p, v, w,
                                   rho=R.DEFAULT_RHO / 2.0, curvature=curv)
    assert np.abs(f_vw.entries - f_half.entries).max() < 1e-3


# --- round trip --------------------------------------------------------------

def test_round_trip_trivial(triv):
    bundle, _, _ = triv
    report = R.round_trip_check(bundle, seed=0)
    assert report.passed, str(report)
    assert report.max_deviation < 1e-6


def test_round_trip_monopole(mono):
    bundle, _, _ = mono
    report = R.round_trip_check(bundle, seed=0)
    assert report.passed, str(report)


def test_gauge_transformed_bundle_reconstructs_same_class(mono):
    """A based gauge change of the bundle leaves the reconstructed
    holonomy class of a battery loop unchanged."""
    bundle, scaffold, oracle = mono
    gauged = gauge_transform(bundle, random_gauge(bundle, seed=5, scale=0.3))
    oracle_g = R.FunctorOracle(gauged)
    loop = catalog.latitude_loop(1.0)
    h_a, h_b = (R.holonomy_from_samples(
        o, scaffold, R.pair_bases(o, scaffold)[0], loop)
        for o in (oracle, oracle_g))
    ext = bundle.extension
    m_a = CatGroupMorphism(h_a, h_a, ext)
    m_b = CatGroupMorphism(h_b, h_b, ext)
    assert morphism_distance(m_a, m_b) < 1e-3


def test_pu2_rebuilt_great_circle_matches_functor():
    """The rebuilt holonomy integrates the reconstructed connection with
    the same Magnus step as the functor (commutator term included)."""
    bundle = pu2_bundle()
    scaffold = R.BasepointScaffold.for_cover(bundle.cover, seed=0)
    oracle = R.FunctorOracle(bundle)
    loop = catalog.great_circle_loop(0.4)
    h = R.holonomy_from_samples(oracle, scaffold, {}, loop)
    m_rec = CatGroupMorphism(h, h, bundle.extension)
    m_ref = oracle(constant_cylinder(loop))
    assert morphism_distance(m_rec, m_ref) < 1e-2
