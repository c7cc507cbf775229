"""The categorical group of a central extension.

Objects are elements of G; morphisms are H-orbits of pairs in E x E,
stored as a representative pair.  Composition normalizes the middle
representatives through the central fiber, the tensor product is slotwise
multiplication, and equality is always the H-orbit test.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotComposable, TagMismatch
from .liecore import (
    TOL_FIBER,
    CentralExtension,
    GroupElement,
    fiber_normalize,
    group_inv,
    group_mul,
    mat_norm,
)

TOL_MORPHISM = 1e-6   # object gap compose accepts; orbit residual of eq


@dataclass(frozen=True)
class CatGroupMorphism:
    """H-orbit of a pair (e1, e2) in E x E, from pi(e1) to pi(e2)."""

    rep_source: GroupElement
    rep_target: GroupElement
    extension: CentralExtension

    def __post_init__(self):
        if self.rep_source.group_tag != "E" or self.rep_target.group_tag != "E":
            raise TagMismatch("morphism representatives must be E elements")

    @property
    def source_object(self) -> GroupElement:
        return self.extension.project(self.rep_source)

    @property
    def target_object(self) -> GroupElement:
        return self.extension.project(self.rep_target)

    def invariant(self) -> GroupElement:
        """rep_source^-1 rep_target; unchanged under H-translation of the pair."""
        return group_mul(group_inv(self.rep_source), self.rep_target)

    def translate(self, h: GroupElement) -> "CatGroupMorphism":
        """Same morphism, re-represented by (e1 h, e2 h)."""
        ih = self.extension.include(h)
        return CatGroupMorphism(group_mul(self.rep_source, ih),
                                group_mul(self.rep_target, ih),
                                self.extension)


def compose(m1: CatGroupMorphism, m2: CatGroupMorphism) -> CatGroupMorphism:
    """[e1, e2 h][e2, e3] = [e1, e3 h]; m1's target must be m2's source."""
    if m1.extension is not m2.extension:
        raise TagMismatch("morphisms live over different extensions")
    gap = mat_norm(m1.target_object.entries - m2.source_object.entries)
    if gap > TOL_MORPHISM:
        raise NotComposable(f"object mismatch {gap:.3e}")
    h = fiber_normalize(m1.extension, m2.rep_source, m1.rep_target,
                        tol_fiber=max(TOL_FIBER, 10 * gap))
    new_target = group_mul(m2.rep_target, m1.extension.include(h))
    return CatGroupMorphism(m1.rep_source, new_target, m1.extension)


def tensor(m1: CatGroupMorphism, m2: CatGroupMorphism) -> CatGroupMorphism:
    """[e1, e2] (x) [e3, e4] = [e1 e3, e2 e4]."""
    if m1.extension is not m2.extension:
        raise TagMismatch("morphisms live over different extensions")
    return CatGroupMorphism(group_mul(m1.rep_source, m2.rep_source),
                            group_mul(m1.rep_target, m2.rep_target),
                            m1.extension)


def inverse_morphism(m: CatGroupMorphism) -> CatGroupMorphism:
    return CatGroupMorphism(m.rep_target, m.rep_source, m.extension)


def identity_of(ext: CentralExtension, g: GroupElement) -> CatGroupMorphism:
    """Identity morphism [s(g), s(g)] using the stored local section."""
    e = ext.local_section(g)
    return CatGroupMorphism(e, e, ext)


def morphism_eq(m1: CatGroupMorphism, m2: CatGroupMorphism):
    """H-orbit equality with a residual report.

    Returns (equal, residual): equal iff both slot differences lie in
    iota(H) and carry the same H element, within TOL_MORPHISM.
    """
    if m1.extension is not m2.extension:
        raise TagMismatch("morphisms live over different extensions")
    ext = m1.extension
    ds = group_mul(group_inv(m1.rep_source), m2.rep_source)
    dt = group_mul(group_inv(m1.rep_target), m2.rep_target)
    hs, rs = ext.central_fit_mat(ds.entries)
    ht, rt = ext.central_fit_mat(dt.entries)
    residual = max(rs, rt, mat_norm(hs - ht))
    return residual <= TOL_MORPHISM, residual


def morphism_distance(m1: CatGroupMorphism, m2: CatGroupMorphism) -> float:
    """The residual part of morphism_eq."""
    return morphism_eq(m1, m2)[1]
