"""Matrix Lie group numerics and central-extension structure maps.

Everything downstream (the categorical group, holonomy, reconstruction)
consumes the types defined here: tagged matrix elements, group families
with membership predicates, and central extensions H -> E -> G given by
explicit include/project maps between matrix groups.  The include and
project maps and their differentials act on one (d, d) matrix or on an
(..., d, d) stack of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, logm

from .errors import ConfigError, NonFinite, NotCentralFiber, NotSameFiber, SectionUndefined, TagMismatch

# Pauli matrices, used by the U(2) -> SO(3) quotient.
SIGMA = np.array([[[0, 1], [1, 0]],
                  [[0, -1j], [1j, 0]],
                  [[1, 0], [0, -1]]], dtype=complex)


# tr(sigma_k [x, sigma_l]) / 2 = sum_bc x_cb T_klbc
_ALG_PROJECT = 0.5 * np.array([[SIGMA[l] @ SIGMA[k] - SIGMA[k] @ SIGMA[l]
                                for l in range(3)] for k in range(3)])

TOL_FIBER = 1e-7   # default distance of e^-1 e' from the central subgroup


def _freeze(a):
    arr = np.array(a, dtype=complex)
    arr.setflags(write=False)
    return arr


def check_finite(entries):
    if not np.all(np.isfinite(entries.real)) or not np.all(np.isfinite(entries.imag)):
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
        object.__setattr__(self, "entries", _freeze(self.entries))

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
        object.__setattr__(self, "entries", _freeze(self.entries))

    @property
    def dim(self):
        return self.entries.shape[-1]


class GroupFamily:
    """A family of matrix groups: a name, a dimension, and membership tests.

    group_residual / algebra_residual return a scalar distance-like
    residual; membership holds when the residual is below tolerance.
    """

    def __init__(self, name, dim, group_residual, algebra_residual):
        self.name = name
        self.dim = dim
        self.group_residual = group_residual
        self.algebra_residual = algebra_residual

    def identity(self):
        return np.eye(self.dim, dtype=complex)

    def __repr__(self):
        return f"GroupFamily({self.name}, dim={self.dim})"


def unitary_family(n, name=None):
    def gres(u):
        return mat_norm(u.conj().T @ u - np.eye(n))

    def ares(x):
        return mat_norm(x + x.conj().T)

    return GroupFamily(name or f"U({n})", n, gres, ares)


def torus_family(n, name=None):
    """U(1)^n as diagonal unitary matrices."""

    def gres(u):
        off = mat_norm(u - np.diag(np.diag(u)))
        return max(off, float(np.max(np.abs(np.abs(np.diag(u)) - 1.0))))

    def ares(x):
        off = mat_norm(x - np.diag(np.diag(x)))
        return max(off, float(np.max(np.abs(np.real(np.diag(x))))))

    return GroupFamily(name or f"U(1)^{n}", n, gres, ares)


def rotation3_family():
    """SO(3), stored as complex matrices with (numerically) real entries."""

    def gres(r):
        real = np.real(r)
        res = mat_norm(real.T @ real - np.eye(3))
        res = max(res, mat_norm(np.imag(r)))
        return max(res, abs(np.linalg.det(real) - 1.0))

    def ares(x):
        real = np.real(x)
        return max(mat_norm(real + real.T), mat_norm(np.imag(x)))

    return GroupFamily("SO(3)", 3, gres, ares)


def cyclic_family(n):
    """n-th roots of unity as 1x1 matrices; Lie algebra is {0}."""

    def gres(u):
        return abs(complex(u[0, 0]) ** n - 1.0)

    def ares(x):
        return abs(complex(x[0, 0]))

    return GroupFamily(f"Z/{n}", 1, gres, ares)


class CentralExtension:
    """A central extension of matrix Lie groups 1 -> H -> E -> G -> 1.

    Concrete extensions subclass this and provide the include/project
    maps on raw matrices; the public API wraps them with tag handling.
    """

    name = "abstract"

    def __init__(self, H, E, G):
        self.H = H
        self.E = E
        self.G = G
        self.families = {"H": H, "E": E, "G": G}

    # --- maps on raw (..., d, d) matrices, supplied by subclasses -------
    def include_mat(self, h):
        raise NotImplementedError

    def project_mat(self, e):
        raise NotImplementedError

    def alg_include_mat(self, x):
        raise NotImplementedError

    def alg_project_mat(self, x):
        raise NotImplementedError

    def section_mat(self, g):
        """Right inverse of project_mat where defined; SectionUndefined else."""
        raise NotImplementedError

    def central_fit_mat(self, x):
        """Nearest include_mat(h) to x; returns (h_matrix, residual)."""
        raise NotImplementedError

    # --- tagged API -----------------------------------------------------
    def include(self, h: GroupElement) -> GroupElement:
        if h.group_tag != "H":
            raise TagMismatch(f"include expects H, got {h.group_tag}")
        return GroupElement(self.include_mat(h.entries), "E")

    def project(self, e: GroupElement) -> GroupElement:
        if e.group_tag != "E":
            raise TagMismatch(f"project expects E, got {e.group_tag}")
        return GroupElement(self.project_mat(e.entries), "G")

    def alg_include(self, x: AlgebraElement) -> AlgebraElement:
        if x.algebra_tag != "h":
            raise TagMismatch(f"alg_include expects h, got {x.algebra_tag}")
        return AlgebraElement(self.alg_include_mat(x.entries), "e")

    def alg_project(self, x: AlgebraElement) -> AlgebraElement:
        if x.algebra_tag != "e":
            raise TagMismatch(f"alg_project expects e, got {x.algebra_tag}")
        return AlgebraElement(self.alg_project_mat(x.entries), "g")

    def local_section(self, g: GroupElement) -> GroupElement:
        if g.group_tag != "G":
            raise TagMismatch(f"local_section expects G, got {g.group_tag}")
        return GroupElement(self.section_mat(g.entries), "E")

    def unit(self, tag):
        return GroupElement(self.families[tag].identity(), tag)

    @property
    def discrete_kernel(self):
        """True when the kernel H is discrete, i.e. L(H) = 0."""
        return mat_norm(self.alg_include_mat(
            np.ones((self.H.dim, self.H.dim)))) == 0.0

    def random_mat(self, tag, rng):
        raise NotImplementedError

    def random_element(self, tag, rng) -> GroupElement:
        """Haar-ish random sample of H, E or G, for randomized tests."""
        return GroupElement(self.random_mat(tag, rng), tag)

    def element(self, entries, tag):
        return GroupElement(np.asarray(entries, dtype=complex), tag)

    def algebra_element(self, entries, tag):
        return AlgebraElement(np.asarray(entries, dtype=complex), tag)

    def __repr__(self):
        return f"<CentralExtension {self.name}>"


class DiagPairExtension(CentralExtension):
    """1 -> U(1) -> U(1) x U(1) -> U(1) -> 1.

    E is stored as 2x2 diagonal unitary diag(lam, g); the include map
    fills the first slot, the projection reads the second.
    """

    name = "u1-squared"

    def __init__(self):
        super().__init__(unitary_family(1), torus_family(2), unitary_family(1))

    def include_mat(self, h):
        return diag_stack([h[..., 0, 0], 1.0])

    def project_mat(self, e):
        return np.array(e[..., 1:, 1:], dtype=complex)

    def alg_include_mat(self, x):
        return diag_stack([x[..., 0, 0], 0.0])

    def alg_project_mat(self, x):
        return np.array(x[..., 1:, 1:], dtype=complex)

    def section_mat(self, g):
        return diag_stack([1.0, g[..., 0, 0]])

    def central_fit_mat(self, x):
        h = np.array([[x[0, 0]]], dtype=complex)
        a = abs(h[0, 0])
        if a > 0:
            h = h / a
        res = mat_norm(x - self.include_mat(h))
        return h, res

    def random_mat(self, tag, rng):
        if tag == "E":
            return np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=2)))
        return np.array([[np.exp(1j * rng.uniform(0, 2 * np.pi))]])


class ScalarU2Extension(CentralExtension):
    """1 -> U(1) -> U(2) -> PU(2) -> 1, with PU(2) realized as SO(3).

    The projection is the conjugation action on the Pauli basis; the
    local section is the quaternion lift into SU(2) subset U(2), defined
    for rotations of angle < pi.
    """

    name = "u2-pu2"

    def __init__(self):
        super().__init__(unitary_family(1), unitary_family(2), rotation3_family())

    def include_mat(self, h):
        return h[..., :1, :1] * np.eye(2, dtype=complex)

    def project_mat(self, e):
        """r_kl = tr(sigma_k e sigma_l e^dagger) / 2, all k, l at once."""
        e = np.asarray(e)[..., None, None, :, :]
        m = SIGMA[:, None] @ e @ SIGMA @ np.conj(np.swapaxes(e, -1, -2))
        return np.real(0.5 * np.trace(m, axis1=-2, axis2=-1)).astype(complex)

    def alg_include_mat(self, x):
        return x[..., :1, :1] * np.eye(2, dtype=complex)

    def alg_project_mat(self, x):
        """r_kl = tr(sigma_k [x, sigma_l]) / 2."""
        return np.real(np.einsum("klbc,...cb->...kl", _ALG_PROJECT, x)) \
            .astype(complex)

    def section_mat(self, g):
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

    def central_fit_mat(self, x):
        h = np.trace(x) / 2.0
        a = abs(h)
        if a > 0:
            h = h / a
        hm = np.array([[h]], dtype=complex)
        res = mat_norm(x - self.include_mat(hm))
        return hm, res

    def random_mat(self, tag, rng):
        if tag == "H":
            return np.array([[np.exp(1j * rng.uniform(0, 2 * np.pi))]])
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        return u if tag == "E" else self.project_mat(u)


class RootsOfUnityExtension(CentralExtension):
    """1 -> Z/n -> U(1) -> U(1) -> 1 with projection z -> z^n.

    The kernel is discrete, so L(H) = 0 and all abelian form layers of a
    twisted bundle over this extension vanish identically.
    """

    def __init__(self, n):
        self.n = n
        self.name = f"roots-of-unity-{n}"
        super().__init__(cyclic_family(n), unitary_family(1), unitary_family(1))

    def include_mat(self, h):
        return np.array(h, dtype=complex)

    def project_mat(self, e):
        return np.array(e, dtype=complex) ** self.n

    def alg_include_mat(self, x):
        return np.zeros(np.shape(x), dtype=complex)

    def alg_project_mat(self, x):
        return self.n * np.array(x, dtype=complex)

    def section_mat(self, g):
        z = complex(g[0, 0])
        theta = math.atan2(z.imag, z.real)
        if abs(abs(theta) - math.pi) < 1e-6:
            raise SectionUndefined("principal root branch cut")
        return np.array([[np.exp(1j * theta / self.n)]], dtype=complex)

    def central_fit_mat(self, x):
        z = complex(x[0, 0])
        if abs(z) == 0:
            raise NotCentralFiber("zero element")
        z = z / abs(z)
        # snap to the nearest n-th root of unity
        theta = math.atan2(z.imag, z.real)
        k = round(theta * self.n / (2.0 * math.pi))
        h = np.array([[np.exp(2j * math.pi * k / self.n)]], dtype=complex)
        res = mat_norm(x - h)
        return h, res

    def random_mat(self, tag, rng):
        if tag == "H":
            k = rng.integers(0, self.n)
            return np.array([[np.exp(2j * np.pi * k / self.n)]])
        return np.array([[np.exp(1j * rng.uniform(0, 2 * np.pi))]])


BUILTIN_EXTENSIONS = {
    "u1-squared": DiagPairExtension,
    "u2-pu2": ScalarU2Extension,
    "roots-of-unity-3": lambda: RootsOfUnityExtension(3),
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


def group_conj(a: GroupElement, by: GroupElement) -> GroupElement:
    """by^-1 * a * by."""
    if a.group_tag != by.group_tag or a.dim != by.dim:
        raise TagMismatch("conjugation operands must share tag and dimension")
    binv = np.linalg.inv(by.entries)
    return GroupElement(binv @ a.entries @ by.entries, a.group_tag)


def log_principal(m):
    """Principal matrix logarithm; the 1x1 case uses the scalar branch."""
    if m.shape == (1, 1):
        return np.array([[np.log(complex(m[0, 0]))]], dtype=complex)
    return logm(np.asarray(m, dtype=complex))


def exp_matrix(a: AlgebraElement) -> GroupElement:
    """Matrix exponential (scaling-and-squaring Pade); tag h->H etc."""
    check_finite(a.entries)
    return GroupElement(expm(np.array(a.entries)), _TAG_TO_GROUP[a.algebra_tag])


# Gauss-Legendre nodes for the one-step Magnus method
_C1 = 0.5 - math.sqrt(3.0) / 6.0
_C2 = 0.5 + math.sqrt(3.0) / 6.0


def path_ordered_exp(field, a=0.0, b=1.0, steps=64, tag="e"):
    """Ordered product integral P exp int_a^b field(t) dt.

    Convention: factors for earlier parameter values multiply on the
    LEFT, i.e. the result solves U' = U . field(t), U(a) = I.  Each step
    uses a fourth-order Magnus update built from two-point Gauss
    quadrature with a single commutator correction.

    field maps the array of all 2 * steps Gauss nodes, in parameter
    order, to the (2 * steps, d, d) stack of its values; the Magnus
    exponents of all steps are exponentiated in one call, and only the
    ordered product runs step by step.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    h = (b - a) / steps
    t0 = a + np.arange(steps) * h
    nodes = np.stack([t0 + _C1 * h, t0 + _C2 * h], axis=1).ravel()
    values = np.asarray(field(nodes), dtype=complex)
    check_finite(values)
    a1, a2 = values[0::2], values[1::2]
    omega = (h / 2.0) * (a1 + a2) \
        + (math.sqrt(3.0) * h * h / 12.0) * (a1 @ a2 - a2 @ a1)
    u = np.eye(values.shape[-1], dtype=complex)
    for factor in expm(omega):
        u = u @ factor
    return GroupElement(u, _TAG_TO_GROUP[tag])


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
