"""Test-only Lie helpers: the SU(n) family and the dense Riemann-product
oracle for path_ordered_exp."""

import numpy as np
from scipy.linalg import expm

from holotwist.liecore import GroupElement, GroupFamily, unitary_family

_TAG_TO_GROUP = {"h": "H", "e": "E", "g": "G"}


def special_unitary_family(n):
    base = unitary_family(n)

    def gres(u):
        return max(base.group_residual(u), abs(np.linalg.det(u) - 1.0))

    def ares(x):
        return max(base.algebra_residual(x), abs(np.trace(x)))

    return GroupFamily(f"SU({n})", n, gres, ares)


def riemann_product_exp(field, a=0.0, b=1.0, factors=100000, tag="e"):
    """Dense midpoint Riemann product; slow test oracle for path_ordered_exp.
    field maps the array of all midpoints to the stack of its values."""
    h = (b - a) / factors
    values = np.asarray(field(a + (np.arange(factors) + 0.5) * h),
                        dtype=complex)
    u = np.eye(values.shape[-1], dtype=complex)
    for factor in expm(values * h):
        u = u @ factor
    return GroupElement(u, _TAG_TO_GROUP[tag])
