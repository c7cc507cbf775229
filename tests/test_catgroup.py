"""Categorical-group structure: composition, tensor, interchange, units."""

import numpy as np
import pytest

from holotwist.catgroup import (
    CatGroupMorphism,
    compose,
    identity_of,
    inverse_morphism,
    morphism_distance,
    morphism_eq,
    tensor,
)
from holotwist.errors import NotComposable
from holotwist.liecore import (
    BUILTIN_EXTENSIONS,
    GroupElement,
    group_inv,
    group_mul,
    make_extension,
)

EXT_NAMES = sorted(BUILTIN_EXTENSIONS)


def random_morphism(ext, rng):
    return CatGroupMorphism(ext.random_element("E", rng),
                            ext.random_element("E", rng), ext)


def chained(ext, rng, n):
    """n composable morphisms sharing representatives end-to-start."""
    reps = [ext.random_element("E", rng) for _ in range(n + 1)]
    out = []
    for a, b in zip(reps[:-1], reps[1:]):
        # re-represent each arrow by a random H-translate so composition
        # actually exercises the fiber normalization
        m = CatGroupMorphism(a, b, ext)
        out.append(m.translate(ext.random_element("H", rng)))
    return out


@pytest.mark.parametrize("name", EXT_NAMES)
def test_translation_invariance(name):
    ext = make_extension(name)
    rng = np.random.default_rng(0)
    m = random_morphism(ext, rng)
    m2 = m.translate(ext.random_element("H", rng))
    eq, res = morphism_eq(m, m2)
    assert eq, res
    assert np.allclose(m.invariant().entries, m2.invariant().entries,
                       atol=1e-10)


@pytest.mark.parametrize("name", EXT_NAMES)
def test_composition_and_associativity(name):
    ext = make_extension(name)
    rng = np.random.default_rng(1)
    for _ in range(25):
        a, b, c = chained(ext, rng, 3)
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        eq, res = morphism_eq(left, right)
        assert eq and res < 1e-9, res
        assert np.allclose(left.source_object.entries, a.source_object.entries,
                           atol=1e-9)
        assert np.allclose(left.target_object.entries, c.target_object.entries,
                           atol=1e-9)


@pytest.mark.parametrize("name", EXT_NAMES)
def test_unit_laws(name):
    ext = make_extension(name)
    rng = np.random.default_rng(2)
    for _ in range(10):
        m = random_morphism(ext, rng)
        try:
            idl = identity_of(ext, m.source_object)
            idr = identity_of(ext, m.target_object)
        except Exception:
            continue  # section undefined at a random object; resample-free skip
        eq1, r1 = morphism_eq(compose(idl, m), m)
        eq2, r2 = morphism_eq(compose(m, idr), m)
        assert eq1 and r1 < 1e-9
        assert eq2 and r2 < 1e-9


@pytest.mark.parametrize("name", EXT_NAMES)
def test_interchange_law(name):
    """(a . b) (x) (c . d) = (a (x) c) . (b (x) d) on composable squares."""
    ext = make_extension(name)
    rng = np.random.default_rng(3)
    for _ in range(25):
        a, b = chained(ext, rng, 2)
        c, d = chained(ext, rng, 2)
        lhs = tensor(compose(a, b), compose(c, d))
        rhs = compose(tensor(a, c), tensor(b, d))
        eq, res = morphism_eq(lhs, rhs)
        assert eq and res < 1e-9, res


@pytest.mark.parametrize("name", EXT_NAMES)
def test_tensor_is_slotwise(name):
    ext = make_extension(name)
    rng = np.random.default_rng(4)
    m1, m2 = random_morphism(ext, rng), random_morphism(ext, rng)
    t = tensor(m1, m2)
    assert np.allclose(t.rep_source.entries,
                       group_mul(m1.rep_source, m2.rep_source).entries)
    assert np.allclose(
        t.source_object.entries,
        group_mul(m1.source_object, m2.source_object).entries, atol=1e-10)


@pytest.mark.parametrize("name", EXT_NAMES)
def test_inverse_morphism(name):
    ext = make_extension(name)
    rng = np.random.default_rng(5)
    m = random_morphism(ext, rng)
    back = compose(m, inverse_morphism(m))
    assert np.allclose(back.invariant().entries,
                       np.eye(back.rep_source.dim), atol=1e-10)


def test_not_composable():
    ext = make_extension("u2-pu2")
    rng = np.random.default_rng(6)
    m1, m2 = random_morphism(ext, rng), random_morphism(ext, rng)
    with pytest.raises(NotComposable):
        compose(m1, m2)


def test_morphism_distance_detects_difference():
    ext = make_extension("u1-squared")
    rng = np.random.default_rng(7)
    m1 = random_morphism(ext, rng)
    m2 = random_morphism(ext, rng)
    # same objects but a genuinely different arrow: twist one slot only
    phase = GroupElement(np.diag([np.exp(0.3j), 1.0]), "E")
    m3 = CatGroupMorphism(m1.rep_source,
                          group_mul(m1.rep_target, phase), ext)
    assert morphism_distance(m1, m3) > 0.1
    eq, _ = morphism_eq(m1, m3)
    assert not eq
