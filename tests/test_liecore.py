"""Group/algebra numerics, central extensions, and the path-ordered
exponential integrator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from holotwist import catalog, liecore
from holotwist.errors import NotSameFiber, SectionUndefined, TagMismatch
from holotwist.families import make_bundle
from holotwist.holonomy import hol0, hol1
from holotwist.liecore import (
    BUILTIN_EXTENSIONS,
    AlgebraElement,
    GroupElement,
    exp_matrix,
    fiber_normalize,
    group_inv,
    group_mul,
    log_principal,
    make_extension,
    path_ordered_exp,
)
from liehelpers import riemann_product_exp


def random_unitary(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_tag_checks():
    a = GroupElement(np.eye(2, dtype=complex), "E")
    b = GroupElement(np.eye(2, dtype=complex), "G")
    with pytest.raises(TagMismatch):
        group_mul(a, b)
    # each tagged map of every extension rejects an argument of another tag
    for name in sorted(BUILTIN_EXTENSIONS):
        ext = make_extension(name)
        for apply, wrong in ((ext.include, ext.unit("G")),
                             (ext.project, ext.unit("H")),
                             (ext.local_section, ext.unit("E"))):
            with pytest.raises(TagMismatch):
                apply(wrong)


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
def test_map_shapes_match_family_dims(name):
    """Each structure map takes an identity of its source family to a
    square matrix of its target family's dimension."""
    ext = make_extension(name)
    h, e, g = (ext.families[tag].identity() for tag in "HEG")
    for apply, arg, target in ((ext.include_mat, h, "E"),
                               (ext.section_mat, g, "E"),
                               (ext.project_mat, e, "G"),
                               (ext.alg_include_mat, h, "E"),
                               (ext.alg_project_mat, e, "G"),
                               (lambda x: ext.central_fit_mat(x)[0], e, "H")):
        dim = ext.families[target].dim
        assert np.shape(apply(arg)) == (dim, dim)


@pytest.mark.parametrize("name", sorted(BUILTIN_EXTENSIONS))
def test_centrality(name):
    """include(H) commutes with E, and central_fit_mat inverts include_mat."""
    ext = make_extension(name)
    rng = np.random.default_rng(3)
    for _ in range(10):
        e = ext.random_element("E", rng)
        h_raw = ext.random_element("H", rng)
        h = ext.include(h_raw)
        comm = group_mul(group_mul(e, h), group_inv(group_mul(h, e)))
        assert np.linalg.norm(comm.entries - np.eye(len(comm.entries))) < 1e-10
        fit, res = ext.central_fit_mat(h.entries)
        assert res <= 1e-12
        assert np.allclose(fit, h_raw.entries, atol=1e-12)


@pytest.mark.parametrize("name", sorted(BUILTIN_EXTENSIONS))
def test_alg_maps_are_tangent_to_group_maps(name):
    """alg_include_mat and alg_project_mat are the derivatives at t = 0 of
    include_mat(exp(t x)) and project_mat(exp(t x))."""
    ext = make_extension(name)
    rng = np.random.default_rng(5)
    assert ext.discrete_kernel == (name == "roots-of-unity-3")
    x_h = log_principal(ext.random_mat("H", rng))
    if ext.discrete_kernel:
        # L(H) = 0: the differential of include vanishes, and so does
        # the only tangent vector of H
        assert not ext.alg_include_mat(x_h).any()
        x_h = np.zeros_like(x_h)
    x_e = log_principal(ext.random_mat("E", rng))
    t = 1e-6
    for group_map, alg_map, x, tag in (
            (ext.include_mat, ext.alg_include_mat, x_h, "h"),
            (ext.project_mat, ext.alg_project_mat, x_e, "e")):
        plus, minus = (exp_matrix(AlgebraElement(s * t * x, tag)).entries
                       for s in (1.0, -1.0))
        fd = (group_map(plus) - group_map(minus)) / (2.0 * t)
        assert np.allclose(alg_map(x), fd, atol=1e-8)


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


# --- the exponential kernel and the ordered product ---------------------------

# from far below the 2x2 series switch (|delta| < 1e-4) to about 10
_NORMS = (1e-12, 1e-8, 5e-5, 1e-4, 2e-4, 1e-2, 0.5, 1.0, 3.0, 10.0)


def _no_scipy(a):
    pytest.fail(f"scipy expm called on a {a.shape} stack")


def _closed_form_stacks(rng, n):
    z = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    x = rng.normal(size=(n, 3, 3))
    stacks = {"anti-Hermitian 2x2": z - np.conj(np.swapaxes(z, 1, 2)),
              "complex 2x2": z,
              "so(3)": (x - np.swapaxes(x, 1, 2)).astype(complex)}
    for d in (1, 2, 3):
        diag = np.zeros((n, d, d), dtype=complex)
        diag[:, np.arange(d), np.arange(d)] = \
            rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
        stacks[f"diagonal {d}x{d}"] = diag
    return stacks


def _assert_close_to_expm(got, stack):
    """Per slice, |got - expm(A)| <= 1e-14 (1 + |A|) |expm(A)|."""
    for g, a in zip(got, stack):
        want = expm(a)
        bound = 1e-14 * (1.0 + np.linalg.norm(a)) * np.linalg.norm(want)
        assert np.linalg.norm(g - want) <= bound, np.linalg.norm(a)


_STACKS = _closed_form_stacks(np.random.default_rng(17), 48)


@pytest.mark.parametrize("norm", _NORMS)
@pytest.mark.parametrize("kind", sorted(_STACKS))
def test_exp_kernel_closed_forms_match_expm(kind, norm, monkeypatch):
    stack = _STACKS[kind]
    stack = stack * (norm / np.linalg.norm(stack, axis=(1, 2)))[:, None, None]
    monkeypatch.setattr(liecore, "expm", _no_scipy)
    _assert_close_to_expm(liecore._exp_stack(stack), stack)


def test_exp_kernel_falls_back_to_expm(monkeypatch):
    """Stacks with no closed form go to scipy.linalg.expm, whole: 4x4,
    and 3x3 that is not real antisymmetric (a general real matrix, an
    antisymmetric one with an imaginary part, one off by one ulp)."""
    rng = np.random.default_rng(19)
    x = rng.normal(size=(8, 3, 3))
    anti = x - np.swapaxes(x, 1, 2)
    ulp = anti.copy()
    ulp[3, 0, 1] = np.nextafter(ulp[3, 0, 1], np.inf)
    stacks = [rng.normal(size=(8, 4, 4)) + 1j * rng.normal(size=(8, 4, 4)),
              x.astype(complex), anti + 1e-3j * anti, ulp.astype(complex)]
    calls = []

    def spy(a):
        calls.append(a.shape)
        return expm(a)

    monkeypatch.setattr(liecore, "expm", spy)
    for stack in stacks:
        got = liecore._exp_stack(stack)
        assert got.tobytes() == expm(stack).tobytes()
    assert calls == [s.shape for s in stacks]


@pytest.mark.parametrize("dim", [1, 2])
def test_log_stack_matches_log_principal_per_slice(dim):
    """One elementwise log for a 1x1 stack, logm per slice otherwise:
    every slice has the bits of log_principal, on and off the negative
    real axis and at units."""
    rng = np.random.default_rng(23)
    stack = np.array([random_unitary(dim, rng) for _ in range(40)]
                     + [np.eye(dim), -np.eye(dim) + 1e-17j,
                        2.5 * np.eye(dim)], dtype=complex)
    got = liecore._log_stack(stack)
    for m, g in zip(stack, got):
        assert g.tobytes() == log_principal(m).tobytes()


@pytest.mark.parametrize("n", range(1, 10))
def test_ordered_product_matches_sequential(n):
    """The pairwise tree keeps the left-to-right order of the factors."""
    rng = np.random.default_rng(n)
    factors = np.array([random_unitary(3, rng) for _ in range(n)])
    got = liecore._ordered_product(factors.copy())
    assert np.linalg.norm(got - _sequential(factors)) <= 1e-14 * n
    if n > 1:    # the factors do not commute: a reversed product differs
        assert np.linalg.norm(got - _sequential(factors[::-1])) > 1e-3


def _sequential(factors):
    out = np.eye(factors.shape[-1], dtype=complex)
    for f in factors:
        out = out @ f
    return out


@pytest.mark.parametrize("family", ["monopole", "sphere-pu2", "torus-flat",
                                    "trivial"])
def test_line_holonomy_makes_no_scipy_call(family, monkeypatch):
    """U(1), diagonal U(1)^2, U(2) and SO(3) exponents all have closed
    forms: hol0 and hol1 never reach scipy.linalg.expm."""
    bundle = make_bundle(family)
    kind = bundle.cover.model.kind
    loop = catalog.make_loop(kind, "latitude" if kind == "sphere"
                             else "winding", {})
    monkeypatch.setattr(liecore, "expm", _no_scipy)
    for hol in (hol0, hol1):
        assert np.isfinite(hol(bundle, loop, steps=64).value.entries).all()
