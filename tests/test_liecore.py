"""Group/algebra numerics, central extensions, and the path-ordered
exponential integrator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holotwist.errors import NotSameFiber, SectionUndefined, TagMismatch
from holotwist.liecore import (
    BUILTIN_EXTENSIONS,
    AlgebraElement,
    GroupElement,
    exp_matrix,
    fiber_normalize,
    group_conj,
    group_inv,
    group_mul,
    make_extension,
    path_ordered_exp,
    rotation3_family,
    unitary_family,
)
from liehelpers import riemann_product_exp, special_unitary_family

RNG = np.random.default_rng(7)


def random_unitary(n, rng=RNG):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_su2(rng=RNG):
    u = random_unitary(2, rng)
    return u / np.linalg.det(u) ** 0.5


def test_group_residuals():
    fam = unitary_family(2)
    assert fam.group_residual(random_unitary(2)) < 1e-12
    assert fam.group_residual(np.diag([2.0, 1.0]).astype(complex)) > 0.5
    x = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
    anti = x - x.conj().T
    assert fam.algebra_residual(anti) < 1e-12
    assert fam.algebra_residual(np.eye(2, dtype=complex)) > 0.5


def test_su_and_rotation_families():
    su = special_unitary_family(2)
    assert su.group_residual(random_su2()) < 1e-12
    assert su.group_residual(1j * np.eye(2)) > 0.5
    so3 = rotation3_family()
    th = 0.81
    rot = np.array([[np.cos(th), -np.sin(th), 0.0],
                    [np.sin(th), np.cos(th), 0.0],
                    [0.0, 0.0, 1.0]], dtype=complex)
    assert so3.group_residual(rot) < 1e-12


def test_tag_checks():
    a = GroupElement(np.eye(2, dtype=complex), "E")
    b = GroupElement(np.eye(2, dtype=complex), "G")
    with pytest.raises(TagMismatch):
        group_mul(a, b)


def test_exp_matrix_matches_series():
    x = AlgebraElement(1j * np.array([[0.3, 0.1], [0.1, -0.2]]), "e")
    g = exp_matrix(x)
    expected = np.eye(2, dtype=complex)
    term = np.eye(2, dtype=complex)
    for k in range(1, 30):
        term = term @ x.entries / k
        expected += term
    assert np.allclose(g.entries, expected, atol=1e-14)


# --- central extensions -----------------------------------------------------

@pytest.mark.parametrize("name", sorted(BUILTIN_EXTENSIONS))
def test_extension_exactness(name):
    """pi is a homomorphism, iota lands in ker(pi), pi o section = id."""
    ext = make_extension(name)
    rng = np.random.default_rng(11)
    for _ in range(20):
        e1 = ext.random_element("E", rng)
        e2 = ext.random_element("E", rng)
        p12 = ext.project(group_mul(e1, e2))
        assert np.allclose(p12.entries,
                           group_mul(ext.project(e1), ext.project(e2)).entries,
                           atol=1e-10)
        h = ext.random_element("H", rng)
        proj_iota = ext.project(ext.include(h))
        assert np.allclose(proj_iota.entries, ext.unit("G").entries, atol=1e-10)
        g = ext.project(e1)
        lift = ext.local_section(g)
        assert np.allclose(ext.project(lift).entries, g.entries, atol=1e-8)


@pytest.mark.parametrize("name", sorted(BUILTIN_EXTENSIONS))
def test_centrality(name):
    ext = make_extension(name)
    rng = np.random.default_rng(3)
    for _ in range(10):
        e = ext.random_element("E", rng)
        h = ext.include(ext.random_element("H", rng))
        comm = group_mul(group_mul(e, h), group_inv(group_mul(h, e)))
        assert np.linalg.norm(comm.entries - np.eye(len(comm.entries))) < 1e-10


def test_u2_pu2_alg_project_is_tangent_to_project():
    ext = make_extension("u2-pu2")
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    x = AlgebraElement(x - x.conj().T, "e")
    t = 1e-6
    u = exp_matrix(AlgebraElement(t * x.entries, "e"))
    fd = (ext.project(u).entries - np.eye(3)) / t
    assert np.allclose(ext.alg_project(x).entries, fd, atol=1e-5)


def test_section_undefined_near_cut():
    ext = make_extension("u2-pu2")
    # rotation by pi about the z axis sits on the section's branch locus
    rot = np.diag([-1.0, -1.0, 1.0]).astype(complex)
    with pytest.raises(SectionUndefined):
        ext.local_section(GroupElement(rot, "G"))


def test_fiber_normalize_roundtrip():
    ext = make_extension("u2-pu2")
    rng = np.random.default_rng(9)
    e = ext.random_element("E", rng)
    h = ext.random_element("H", rng)
    e2 = group_mul(e, ext.include(h))
    got = fiber_normalize(ext, e, e2)
    assert np.allclose(got.entries, h.entries, atol=1e-10)


def test_fiber_normalize_rejects_different_fibers():
    ext = make_extension("u2-pu2")
    rng = np.random.default_rng(13)
    e1 = ext.random_element("E", rng)
    e2 = ext.random_element("E", rng)
    if np.linalg.norm(ext.project(e1).entries - ext.project(e2).entries) < 0.1:
        e2 = group_mul(e2, GroupElement(np.diag([1.0, -1.0]).astype(complex) * 0
                                        + np.array([[0, 1], [-1, 0]],
                                                   dtype=complex), "E"))
    with pytest.raises(NotSameFiber):
        fiber_normalize(ext, e1, e2)


def test_roots_of_unity_extension():
    ext = make_extension("roots-of-unity-3")
    z = GroupElement(np.array([[np.exp(0.7j)]]), "E")
    assert np.allclose(ext.project(z).entries, [[np.exp(2.1j)]], atol=1e-12)
    w = GroupElement(np.array([[np.exp(2j * np.pi / 3)]]), "H")
    assert np.linalg.norm(ext.project(ext.include(w)).entries - 1.0) < 1e-12


# --- path-ordered exponential ----------------------------------------------

def _matrix_stack(rows):
    """[[a, b], [c, d]] of scalars or (N,) arrays -> (2, 2) or (N, 2, 2)."""
    return np.moveaxis(np.array(rows), (0, 1), (-2, -1))


def _field_su(t):
    t = np.asarray(t)
    return _matrix_stack([[1j * np.cos(3 * t), np.sin(t) + 0.4j],
                          [-np.sin(t) + 0.4j, -1j * np.cos(3 * t)]])


def test_path_ordered_matches_riemann_oracle():
    got = path_ordered_exp(_field_su, steps=512).entries
    oracle = riemann_product_exp(_field_su, 0.0, 1.0, factors=100000).entries
    assert np.linalg.norm(got - oracle) < 1e-8


def test_path_ordered_convergence_order():
    ref = path_ordered_exp(_field_su, steps=4096).entries
    errs = []
    for n in (32, 64, 128):
        errs.append(np.linalg.norm(path_ordered_exp(_field_su, steps=n).entries
                                   - ref))
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert min(order1, order2) >= 3.5


def test_path_ordered_concatenation():
    whole = path_ordered_exp(_field_su, 0.0, 1.0, steps=512).entries
    first = path_ordered_exp(_field_su, 0.0, 0.4, steps=256).entries
    second = path_ordered_exp(_field_su, 0.4, 1.0, steps=256).entries
    assert np.linalg.norm(whole - first @ second) < 1e-9


def test_path_ordered_commuting_field_is_plain_exp():
    base = 1j * np.array([[0.0, 1.0], [1.0, 0.0]])
    field = lambda t: np.sin(t)[:, None, None] * base
    got = path_ordered_exp(field, steps=256).entries
    from scipy.linalg import expm
    want = expm((1.0 - np.cos(1.0)) * base)
    assert np.allclose(got, want, atol=1e-10)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.05, 0.95))
def test_path_ordered_cocycle_property(split):
    whole = path_ordered_exp(_field_su, steps=1024).entries
    a = path_ordered_exp(_field_su, 0.0, split, steps=512).entries
    b = path_ordered_exp(_field_su, split, 1.0, steps=512).entries
    assert np.linalg.norm(whole - a @ b) < 1e-8


def test_transformation_rule_under_conjugation():
    """Pexp of e^-1 A e + e^-1 e' equals e(a)^-1 Pexp(A) e(b)."""
    gen = 1j * np.array([[0.0, 1.0], [1.0, 0.0]])

    def frame(t):
        t = np.asarray(t)
        return _matrix_stack([[np.exp(1j * np.sin(t)), 0.0 * t],
                              [0.0 * t, np.exp(-1j * t * t)]])

    def frame_dot(t):
        t = np.asarray(t)
        return _matrix_stack([[1j * np.cos(t) * np.exp(1j * np.sin(t)),
                               0.0 * t],
                              [0.0 * t, -2j * t * np.exp(-1j * t * t)]])

    def transformed(t):
        e = frame(t)
        ei = np.linalg.inv(e)
        return ei @ _field_su(t) @ e + ei @ frame_dot(t)

    lhs = path_ordered_exp(transformed, steps=512).entries
    mid = path_ordered_exp(_field_su, steps=512).entries
    rhs = np.linalg.inv(frame(0.0)) @ mid @ frame(1.0)
    assert np.linalg.norm(lhs - rhs) < 1e-8


def test_conjugation_helper():
    a = GroupElement(random_unitary(2), "E")
    b = GroupElement(random_unitary(2), "E")
    got = group_conj(a, b)
    want = np.linalg.inv(b.entries) @ a.entries @ b.entries
    assert np.allclose(got.entries, want, atol=1e-13)
