"""Matrix Lie group numerics and central-extension structure maps.

Everything downstream (the categorical group, holonomy, reconstruction)
consumes the types defined here: tagged matrix elements, group families
and central extensions H -> E -> G, each one CentralExtension record of
seven maps between matrix groups, built by the factory in its
BUILTIN_EXTENSIONS entry.  The include and project maps and their
differentials act on one (d, d) matrix or an (..., d, d) stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, NonFinite, NotCentralFiber, NotSameFiber, SectionUndefined, TagMismatch

# Pauli matrices, used by the U(2) -> SO(3) quotient.
SIGMA = np.array([[[0, 1], [1, 0]],
                  [[0, -1j], [1j, 0]],
                  [[1, 0], [0, -1]]], dtype=complex)


# tr(sigma_k [x, sigma_l]) / 2 = sum_bc x_cb T_klbc
_ALG_PROJECT = 0.5 * np.array([[SIGMA[l] @ SIGMA[k] - SIGMA[k] @ SIGMA[l]
                                for l in range(3)] for k in range(3)])

TOL_FIBER = 1e-7   # default distance of e^-1 e' from the central subgroup


def _freeze(element, tag, tags):
    """Store element.entries as a read-only complex array, after checking
    that its tag is one of `tags`."""
    if tag not in tags:
        raise TagMismatch(f"tag {tag!r} is not one of {tags}")
    arr = np.array(element.entries, dtype=complex)
    arr.setflags(write=False)
    object.__setattr__(element, "entries", arr)


def check_finite(entries):
    if not np.isfinite(entries).all():
        raise NonFinite("matrix contains NaN or infinity")


def mat_norm(a):
    return float(np.linalg.norm(np.asarray(a, dtype=complex)))


def diag_stack(entries):
    """(..., d, d) diagonal matrices from d node arrays (or constants)."""
    out = np.zeros(np.broadcast(*entries).shape + (len(entries),) * 2,
                   dtype=complex)
    for k, e in enumerate(entries):
        out[..., k, k] = e
    return out


@dataclass(frozen=True)
class AlgebraElement:
    """Square complex matrix tagged with the Lie algebra it lives in."""

    entries: np.ndarray
    algebra_tag: str  # one of "h", "e", "g"

    def __post_init__(self):
        _freeze(self, self.algebra_tag, ("h", "e", "g"))

    @property
    def dim(self):
        return self.entries.shape[0]


@dataclass(frozen=True)
class GroupElement:
    """Square complex matrix (or an (N, d, d) stack of them) tagged with
    the group it lives in."""

    entries: np.ndarray
    group_tag: str  # one of "H", "E", "G"

    def __post_init__(self):
        _freeze(self, self.group_tag, ("H", "E", "G"))

    @property
    def dim(self):
        return self.entries.shape[-1]


@dataclass(frozen=True, eq=False)
class GroupFamily:
    """A family of matrix groups: a name and the matrix dimension."""

    name: str
    dim: int

    def identity(self):
        return np.eye(self.dim, dtype=complex)


def _random_phase(rng):
    """[[e^{i theta}]] with theta uniform on [0, 2 pi): one draw from rng."""
    return np.array([[np.exp(1j * rng.uniform(0, 2 * np.pi))]])


def _unit_phase_fit(include_mat, scalar):
    """central_fit_mat for a kernel U(1) read off x as the number scalar(x):
    h = its unit phase, and the distance from x to include_mat(h)."""
    def fit(x):
        h = np.array([[scalar(x)]], dtype=complex)
        a = abs(h[0, 0])
        if a > 0:
            h = h / a
        return h, mat_norm(x - include_mat(h))
    return fit


def _entries(x, op, tag):
    """x.entries, after checking that x carries the tag `op` expects."""
    got = x.group_tag if isinstance(x, GroupElement) else x.algebra_tag
    if got != tag:
        raise TagMismatch(f"{op} expects {tag}, got {got}")
    return x.entries


@dataclass(frozen=True, eq=False)
class CentralExtension:
    """A central extension of matrix Lie groups 1 -> H -> E -> G -> 1.

    An extension is data: its name, the three group families and seven
    maps on raw (..., d, d) matrices.  section_mat is a right inverse of
    project_mat where defined (SectionUndefined else); central_fit_mat
    returns the nearest include_mat(h) to x as (h_matrix, residual);
    random_mat(tag, rng) draws a Haar-ish sample of H, E or G.  The
    tagged API below checks tags and wraps the maps.  Extensions are
    compared by identity.
    """

    name: str
    H: GroupFamily
    E: GroupFamily
    G: GroupFamily
    include_mat: Callable
    project_mat: Callable
    alg_include_mat: Callable
    alg_project_mat: Callable
    section_mat: Callable
    central_fit_mat: Callable
    random_mat: Callable

    @property
    def families(self):
        return {"H": self.H, "E": self.E, "G": self.G}

    def include(self, h: GroupElement) -> GroupElement:
        return GroupElement(self.include_mat(_entries(h, "include", "H")), "E")

    def project(self, e: GroupElement) -> GroupElement:
        return GroupElement(self.project_mat(_entries(e, "project", "E")), "G")

    def local_section(self, g: GroupElement) -> GroupElement:
        return GroupElement(
            self.section_mat(_entries(g, "local_section", "G")), "E")

    def unit(self, tag):
        return GroupElement(self.families[tag].identity(), tag)

    @property
    def discrete_kernel(self):
        """True when the kernel H is discrete, i.e. L(H) = 0."""
        return mat_norm(self.alg_include_mat(
            np.ones((self.H.dim, self.H.dim)))) == 0.0

    def random_element(self, tag, rng) -> GroupElement:
        """Haar-ish random sample of H, E or G, for randomized tests."""
        return GroupElement(self.random_mat(tag, rng), tag)

    def __repr__(self):
        return f"<CentralExtension {self.name}>"


def kernel_block(x):
    """K: an element of iota(H) (or of L(iota(H))), or an (..., d, d)
    stack of them, read back into H.  Every built-in include_mat puts H
    in the top-left 1x1 block of E, so K inverts include_mat on each
    extension: it is one map, not a field of the record."""
    return x[..., :1, :1]


def _u1_squared():
    """1 -> U(1) -> U(1) x U(1) -> U(1) -> 1, with E stored as diag(h, g)."""
    def include(h):
        return diag_stack([h[..., 0, 0], 1.0])

    def project(e):
        return np.array(e[..., 1:, 1:], dtype=complex)

    def random(tag, rng):
        if tag == "E":
            return np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=2)))
        return _random_phase(rng)

    return CentralExtension(
        "u1-squared", GroupFamily("U(1)", 1), GroupFamily("U(1)^2", 2),
        GroupFamily("U(1)", 1),
        include_mat=include,
        project_mat=project,
        alg_include_mat=lambda x: diag_stack([x[..., 0, 0], 0.0]),
        alg_project_mat=project,
        section_mat=lambda g: diag_stack([1.0, g[..., 0, 0]]),
        central_fit_mat=_unit_phase_fit(include, lambda x: x[0, 0]),
        random_mat=random)


def _u2_pu2():
    """1 -> U(1) -> U(2) -> PU(2) = SO(3) -> 1, projecting by conjugation of
    the Pauli basis; the section is the quaternion lift into SU(2)."""
    def include(x):
        return x[..., :1, :1] * np.eye(2, dtype=complex)

    def project(e):
        """r_kl = tr(sigma_k e sigma_l e^dagger) / 2, all k, l at once."""
        e = np.asarray(e)[..., None, None, :, :]
        m = SIGMA[:, None] @ e @ SIGMA @ np.conj(np.swapaxes(e, -1, -2))
        return np.real(0.5 * np.trace(m, axis1=-2, axis2=-1)).astype(complex)

    def alg_project(x):
        """r_kl = tr(sigma_k [x, sigma_l]) / 2."""
        return np.real(np.einsum("klbc,...cb->...kl", _ALG_PROJECT, x)) \
            .astype(complex)

    def section(g):
        r = np.real(g)
        t = np.trace(r)
        if t < -1.0 + 1e-6:
            raise SectionUndefined("rotation angle too close to pi")
        w = 0.5 * math.sqrt(max(1.0 + t, 0.0))
        # vector part from the antisymmetric residue of R
        v = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
        v = v / (4.0 * w)
        u = w * np.eye(2, dtype=complex)
        for k in range(3):
            u = u - 1j * v[k] * SIGMA[k]
        return u

    def random(tag, rng):
        if tag == "H":
            return _random_phase(rng)
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        return u if tag == "E" else project(u)

    return CentralExtension(
        "u2-pu2", GroupFamily("U(1)", 1), GroupFamily("U(2)", 2),
        GroupFamily("SO(3)", 3),
        include_mat=include,
        project_mat=project,
        alg_include_mat=include,
        alg_project_mat=alg_project,
        section_mat=section,
        central_fit_mat=_unit_phase_fit(include, lambda x: np.trace(x) / 2.0),
        random_mat=random)


def _roots_of_unity(n):
    """1 -> Z/n -> U(1) -> U(1) -> 1, projecting z -> z^n.  L(H) = 0, so the
    abelian form layers of a bundle over it vanish identically."""
    def section(g):
        z = complex(g[0, 0])
        theta = math.atan2(z.imag, z.real)
        if abs(abs(theta) - math.pi) < 1e-6:
            raise SectionUndefined("principal root branch cut")
        return np.array([[np.exp(1j * theta / n)]], dtype=complex)

    def central_fit(x):
        z = complex(x[0, 0])
        if abs(z) == 0:
            raise NotCentralFiber("zero element")
        # snap to the nearest n-th root of unity
        theta = math.atan2(z.imag, z.real)
        k = round(theta * n / (2.0 * math.pi))
        h = np.array([[np.exp(2j * math.pi * k / n)]], dtype=complex)
        return h, mat_norm(x - h)

    def random(tag, rng):
        if tag == "H":
            k = rng.integers(0, n)
            return np.array([[np.exp(2j * np.pi * k / n)]])
        return _random_phase(rng)

    return CentralExtension(
        f"roots-of-unity-{n}", GroupFamily(f"Z/{n}", 1),
        GroupFamily("U(1)", 1), GroupFamily("U(1)", 1),
        include_mat=lambda h: np.array(h, dtype=complex),
        project_mat=lambda e: np.array(e, dtype=complex) ** n,
        alg_include_mat=lambda x: np.zeros(np.shape(x), dtype=complex),
        alg_project_mat=lambda x: n * np.array(x, dtype=complex),
        section_mat=section,
        central_fit_mat=central_fit,
        random_mat=random)


BUILTIN_EXTENSIONS = {
    "u1-squared": _u1_squared,
    "u2-pu2": _u2_pu2,
    "roots-of-unity-3": lambda: _roots_of_unity(3),
}


def make_extension(name):
    try:
        return BUILTIN_EXTENSIONS[name]()
    except KeyError:
        raise ConfigError(f"unknown extension {name!r}; known: "
                          f"{sorted(BUILTIN_EXTENSIONS)}") from None


# --------------------------------------------------------------------------
# Group arithmetic
# --------------------------------------------------------------------------

_TAG_TO_GROUP = {"h": "H", "e": "E", "g": "G"}


def group_mul(a: GroupElement, b: GroupElement) -> GroupElement:
    if a.group_tag != b.group_tag or a.dim != b.dim:
        raise TagMismatch(f"cannot multiply {a.group_tag}({a.dim}) by {b.group_tag}({b.dim})")
    return GroupElement(a.entries @ b.entries, a.group_tag)


def group_inv(a: GroupElement) -> GroupElement:
    return GroupElement(np.linalg.inv(a.entries), a.group_tag)


def log_principal(m):
    """Principal matrix logarithm of one (d, d) matrix."""
    return _log_stack(np.asarray(m, dtype=complex)[None])[0]


def _eigen_apply(f, a):
    """V f(L) V^-1 for each slice V L V^-1 (np.linalg.eig) of an (N, d, d)
    stack: the matrix function f, for normal (unitary, anti-Hermitian) A."""
    lam, v = np.linalg.eig(a)
    return (v * f(lam)[..., None, :]) @ np.linalg.inv(v)


def _log_stack(a):
    """Principal logarithm of every slice of an (N, d, d) complex stack:
    np.log of the diagonal when every slice is diagonal, else _eigen_apply."""
    if a[:, ~np.eye(a.shape[-1], dtype=bool)].any():
        return _eigen_apply(np.log, a)
    return diag_stack(np.log(np.diagonal(a, axis1=1, axis2=2)).T)


_SMALL = 1e-4     # |delta| below which the 2x2 closed form uses series


def _even_parts(sq):
    """cosh(x) and sinh(x) / x at x = sqrt(sq) for complex sq, with the
    Taylor series where |x| < _SMALL (both functions are even in x, so
    either root will do)."""
    x = np.sqrt(sq)
    small = np.abs(x) < _SMALL
    safe = np.where(small, 1.0, x)
    cosh = np.where(small, 1.0 + sq / 2.0 + sq * sq / 24.0, np.cosh(safe))
    sinhc = np.where(small, 1.0 + sq / 6.0 + sq * sq / 120.0,
                     np.sinh(safe) / safe)
    return cosh, sinhc


def _exp_stack(a):
    """e^A for every slice of an (N, d, d) complex stack, in closed form
    where the slices admit one:
      * 1x1 and diagonal stacks: exp of the diagonal;
      * 2x2: Cayley-Hamilton, e^tau (cosh delta I + sinh delta / delta
        (A - tau I)) with tau = tr A / 2 and
        delta^2 = (a00 - tau)^2 + a01 a10;
      * real antisymmetric 3x3 (so(3), checked exactly): Rodrigues,
        I + sin theta / theta A + (1 - cos theta) / theta^2 A^2;
    and the eigenvector method (_eigen_apply) for anything else."""
    d = a.shape[-1]
    if d == 1:
        return np.exp(a)
    idx = np.arange(d)
    diag = a[:, idx, idx]
    if not a[:, ~np.eye(d, dtype=bool)].any():
        return diag_stack(np.exp(diag).T)
    if d == 2:
        tau = 0.5 * (diag[:, 0] + diag[:, 1])
        b = a - tau[:, None, None] * np.eye(2)
        cosh, sinhc = _even_parts(b[:, 0, 0] ** 2 + a[:, 0, 1] * a[:, 1, 0])
        out = sinhc[:, None, None] * b
        out[:, idx, idx] += cosh[:, None]
        return np.exp(tau)[:, None, None] * out
    if d == 3 and not a.imag.any() \
            and not (a.real + np.swapaxes(a.real, 1, 2)).any():
        r = a.real
        theta = np.sqrt(r[:, 2, 1] ** 2 + r[:, 0, 2] ** 2 + r[:, 1, 0] ** 2)
        # sin theta / theta and (1 - cos theta) / theta^2, the latter as
        # 2 sin^2(theta / 2) / theta^2 (no cancellation); np.sinc is 1
        # at 0 and accurate near it, so no series is needed
        sinc = np.sinc(theta / np.pi)
        versc = 0.5 * np.sinc(theta / (2.0 * np.pi)) ** 2
        out = sinc[:, None, None] * r + versc[:, None, None] * (r @ r)
        out[:, idx, idx] += 1.0
        return out.astype(complex)
    return _eigen_apply(np.exp, a)


def exp_matrix(a: AlgebraElement) -> GroupElement:
    """Matrix exponential of one algebra element; tag h->H etc."""
    check_finite(a.entries)
    return GroupElement(_exp_stack(np.array(a.entries)[None])[0],
                        _TAG_TO_GROUP[a.algebra_tag])


def _ordered_product(factors):
    """factors[0] @ factors[1] @ ... of an (N, d, d) stack, N >= 1, as a
    pairwise tree; an odd last factor joins the last pair."""
    while len(factors) > 1:
        pairs = factors[0:-1:2] @ factors[1::2]
        if len(factors) % 2:
            pairs[-1] = pairs[-1] @ factors[-1]
        factors = pairs
    return factors[0]


# Gauss-Legendre nodes for the one-step Magnus method
_C1 = 0.5 - math.sqrt(3.0) / 6.0
_C2 = 0.5 + math.sqrt(3.0) / 6.0


def _magnus_nodes(a, b, steps):
    """The step h and the 2 * steps Gauss nodes, in parameter order, at
    which path_ordered_exp evaluates its field on [a, b]: a caller that
    evaluates a loop on the nodes of many cells at once plans them
    here."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    h = (b - a) / steps
    t0 = a + np.arange(steps) * h
    return h, np.stack([t0 + _C1 * h, t0 + _C2 * h], axis=1).ravel()


def path_ordered_exp(field, a=0.0, b=1.0, steps=64, tag="e"):
    """Ordered product integral P exp int_a^b field(t) dt.

    Convention: factors for earlier parameter values multiply on the
    LEFT, i.e. the result solves U' = U . field(t), U(a) = I.  Each step
    uses a fourth-order Magnus update built from two-point Gauss
    quadrature with a single commutator correction.

    field maps the array of all 2 * steps Gauss nodes, in parameter
    order, to the (2 * steps, d, d) stack of its values.  The Magnus
    exponents of all steps are exponentiated in one call of the stack
    kernel (closed forms for U(1), diagonal, U(2) and SO(3) exponents;
    the eigenvector method for any other), and the ordered product is
    taken pairwise: each level multiplies neighbouring factors, left by
    right, in one stacked matmul.
    """
    h, nodes = _magnus_nodes(a, b, steps)
    values = np.asarray(field(nodes), dtype=complex)
    check_finite(values)
    a1, a2 = values[0::2], values[1::2]
    omega = (h / 2.0) * (a1 + a2) \
        + (math.sqrt(3.0) * h * h / 12.0) * (a1 @ a2 - a2 @ a1)
    return GroupElement(_ordered_product(_exp_stack(omega)),
                        _TAG_TO_GROUP[tag])


def fiber_normalize(ext: CentralExtension, e: GroupElement, e_prime: GroupElement,
                    tol_fiber=TOL_FIBER) -> GroupElement:
    """The unique h in H with e_prime = e . include(h).

    Raises NotSameFiber when the two elements project to different base
    points, NotCentralFiber when e^-1 e' is not close to the center.
    """
    pe = ext.project_mat(e.entries)
    pep = ext.project_mat(e_prime.entries)
    if mat_norm(pe - pep) > tol_fiber:
        raise NotSameFiber(f"projection mismatch {mat_norm(pe - pep):.3e}")
    x = np.linalg.inv(e.entries) @ e_prime.entries
    h, res = ext.central_fit_mat(x)
    if res > tol_fiber:
        raise NotCentralFiber(f"distance to central subgroup {res:.3e}")
    return GroupElement(h, "H")
