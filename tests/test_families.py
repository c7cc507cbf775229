"""Built-in bundle families: exact local identities and flux oracles."""

import math

import numpy as np
import pytest

from holotwist.bundle import validate
from holotwist.errors import ConfigError
from holotwist.families import (
    FAMILY_NAMES,
    _cross,
    make_bundle,
    monopole_bundle,
    pu2_bundle,
    qconj,
    qmul,
    rotor_to,
    section_rotor,
    torus_flat_bundle,
    trivial_bundle,
)


# --- quaternion helpers ------------------------------------------------------

def test_rotor_rotates_p_to_x():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.normal(size=3)
        p /= np.linalg.norm(p)
        x = rng.normal(size=3)
        x /= np.linalg.norm(x)
        q = rotor_to(tuple(p), tuple(x))
        # rotate p by q: q * (0,p) * conj(q)
        rp = qmul(qmul(q, (0.0, *p)), qconj(q))
        assert abs(rp[0]) < 1e-12
        assert np.allclose(rp[1:], x, atol=1e-12)


def test_cross_matches_numpy_bit_for_bit():
    """_cross gives np.cross's bytes, and so does the contraction the
    area form takes of it, on stacks and on broadcast shapes, at unit,
    tiny and large magnitudes."""
    rng = np.random.default_rng(0)
    for shape_a, shape_b in [((3,), (3,)), ((13, 13, 3), (13, 13, 3)),
                             ((4, 1, 3), (1, 6, 3)), ((169, 3), (3,)),
                             ((3,), (169, 3))]:
        for k in range(60):
            scale = (1.0, 1e-160, 1e150)[k % 3]
            a = scale * rng.normal(size=shape_a)
            b = rng.normal(size=shape_b)
            assert _cross(a, b).shape == np.cross(a, b).shape
            assert _cross(a, b).tobytes() == np.cross(a, b).tobytes()
            assert np.einsum("...i,...i->...", a, _cross(a, b)).tobytes() \
                == np.einsum("...i,...i->...", a, np.cross(a, b)).tobytes()


def test_section_transition_stabilizes_k():
    rng = np.random.default_rng(1)
    a1 = np.array([0.0, 0.0, 1.0])
    a2 = np.array([math.sin(1.0), 0.0, math.cos(1.0)])
    for _ in range(20):
        x = rng.normal(size=3)
        x /= np.linalg.norm(x)
        if x @ a1 < -0.2 or x @ a2 < -0.2:
            continue
        t = qmul(qconj(section_rotor(a1, tuple(x))),
                 section_rotor(a2, tuple(x)))
        # a k-stabilizer quaternion has no i or j part
        assert abs(t[1]) < 1e-12 and abs(t[2]) < 1e-12


# --- validation of every family ---------------------------------------------

@pytest.mark.parametrize("name,params", [
    ("trivial", {"model": "sphere", "extension": "u2-pu2"}),
    ("trivial", {"model": "torus", "extension": "roots-of-unity-3"}),
    ("torus-flat", {}),
    ("monopole", {"n": 1}),
    ("monopole", {"n": 2}),
    ("monopole", {"n": -1}),
    ("sphere-pu2", {}),
])
def test_families_validate(name, params):
    b = make_bundle(name, params)
    rep = validate(b, sample_count=12, tol=1e-8, seed=3)
    assert rep.passed, rep.residuals


def test_unknown_family_rejected():
    with pytest.raises(ConfigError):
        make_bundle("no-such-family")
    with pytest.raises(ConfigError):
        monopole_bundle(1.5)
    assert set(FAMILY_NAMES) == {"trivial", "torus-flat", "monopole",
                                 "sphere-pu2"}


# --- flux quantization oracle ------------------------------------------------

def _sphere_flux(form, n=400):
    """Integrate a 1x1-valued 2-form over the unit sphere."""
    total = 0.0 + 0.0j
    for a in range(n):
        for b in range(n // 2):
            phi = 2 * math.pi * (a + 0.5) / n
            th = math.pi * (b + 0.5) / (n // 2)
            p = np.array([math.sin(th) * math.cos(phi),
                          math.sin(th) * math.sin(phi), math.cos(th)])
            dth = np.array([math.cos(th) * math.cos(phi),
                            math.cos(th) * math.sin(phi), -math.sin(th)])
            dph = np.array([-math.sin(th) * math.sin(phi),
                            math.sin(th) * math.cos(phi), 0.0])
            total += form(p, dth, dph)[0, 0] \
                * (math.pi / (n // 2)) * (2 * math.pi / n)
    return total


@pytest.mark.parametrize("n", [1, 2, -1])
def test_monopole_flux_is_quantized(n):
    b = monopole_bundle(n)
    flux = _sphere_flux(b.F[0])
    assert flux == pytest.approx(2j * math.pi * n, rel=1e-4)


def test_monopole_curvature_matches_connection():
    """dD equals the chosen F: compare the exterior derivative of D
    (finite differences on the vertical component) with F at samples."""
    b = monopole_bundle(1)
    rng = np.random.default_rng(4)
    axis = np.array([math.sin(math.radians(82.0)), 0.0,
                     math.cos(math.radians(82.0))])
    h = 1e-5
    for _ in range(10):
        x = rng.normal(size=3)
        x /= np.linalg.norm(x)
        if x @ axis < 0.2:
            continue
        # orthonormal tangent frame at x
        v = np.cross(x, [0.3, 0.8, 0.51])
        v /= np.linalg.norm(v)
        w = np.cross(x, v)

        def d_at(p, t):
            p = np.asarray(p) / np.linalg.norm(p)
            tang = t - (t @ p) * p
            return complex(b.D[0](p, tang)[0, 0])

        dd = (d_at(x + h * v, w) - d_at(x - h * v, w)) / (2 * h) \
            - (d_at(x + h * w, v) - d_at(x - h * w, v)) / (2 * h)
        f = complex(b.F[0](x, v, w)[0, 0])
        assert abs(dd - f) < 1e-6


# --- structural checks -------------------------------------------------------

def test_torus_flat_h_values_are_roots_of_unity():
    b = torus_flat_bundle(k=1, order=3)
    p = np.array([0.25, 0.25])
    seen = set()
    for t, m in b.h.items():
        val = complex(m.value(p).entries[0, 0])
        assert abs(val ** 3 - 1.0) < 1e-12
        seen.add(round(np.angle(val) * 3 / (2 * math.pi)) % 3)
    assert len(seen) > 1    # the cocycle is not identically 1


def test_pu2_projection_lands_in_so3():
    b = pu2_bundle()
    rng = np.random.default_rng(5)
    from holotwist.bundle import sample_region
    pts = sample_region(b.cover, (0, 1), rng, 5)
    for p in pts:
        r = b.g[(0, 1)].value(p).entries
        assert np.allclose(np.imag(r), 0.0, atol=1e-12)
        real = np.real(r)
        assert np.allclose(real @ real.T, np.eye(3), atol=1e-10)
        assert np.linalg.det(real) == pytest.approx(1.0, abs=1e-10)


def test_trivial_bundle_has_unit_transitions():
    b = trivial_bundle("sphere", "u1-squared")
    p = b.cover.model.reduce(b.cover.model.basepoint)
    assert np.allclose(b.e[(0, 1)].value(p).entries, np.eye(2))
