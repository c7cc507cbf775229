"""Built-in bundle families with closed-form local data.

The two sphere families are built from quaternion sections of the unit
2-sphere: for each cap axis p the section rotates p to the evaluation
point along a great circle, then a fixed rotation aligns the reference
axis k with p.  All transition phases, connection forms and cocycles
derive from those sections, so every local identity holds exactly.
"""

from __future__ import annotations

import math

import numpy as np

from . import dual as dm
from .bundle import GroupMap, TwistedBundleData, overlap_pairs, overlap_triples
from .dual import Dual, value
from .errors import ConfigError, DomainError, float_setting, integer_setting
from .formsexpr.forms import LocalForm, native_form, zero_form
from .geometry import COVER_FOR_MODEL, SPHERE_CAP_AXES, make_cover
from .liecore import make_extension


# --------------------------------------------------------------------------
# Quaternions as 4-tuples of scalars (floats or Duals)
# --------------------------------------------------------------------------

def qmul(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw)


def qconj(a):
    return (a[0], -a[1], -a[2], -a[3])


def rotor_to(p, x):
    """Unit quaternion rotating the unit vector p onto the point x along
    the shorter great circle; undefined at the antipode of p."""
    d = p[0] * x[0] + p[1] * x[1] + p[2] * x[2]
    if value(d).real <= -1.0 + 1e-12:
        raise DomainError("rotor undefined at the antipode of the cap axis")
    c = dm.sqrt((1.0 + d) / 2.0)
    cross = (p[1] * x[2] - p[2] * x[1],
             p[2] * x[0] - p[0] * x[2],
             p[0] * x[1] - p[1] * x[0])
    return (c, cross[0] / (2.0 * c), cross[1] / (2.0 * c),
            cross[2] / (2.0 * c))


K_AXIS = (0.0, 0.0, 1.0)


def section_rotor(axis, x):
    """Section of the unit-quaternion bundle over the cap around `axis`."""
    w = rotor_to(K_AXIS, tuple(float(c) for c in axis))
    return qmul(rotor_to(tuple(float(c) for c in axis), x), w)


def su2_matrix(q):
    """Quaternion (w, v) -> w*I - i (v . sigma) in SU(2)."""
    w, x, y, z = q
    return [[w - 1j * z, -1j * x - y],
            [-1j * x + y, w + 1j * z]]


def stabilizer_phase(q):
    """For q = (w, 0, 0, z) up to noise: the phase w - i z fixing k."""
    return q[0] - 1j * q[3]


# --------------------------------------------------------------------------
# Shared pieces
# --------------------------------------------------------------------------

def _linear_tau(pi, pj, kappa, mu):
    """Antisymmetric smooth overlap phases tau_ij(x) = coeff . x."""
    coeff = kappa * (np.asarray(pi) - np.asarray(pj)) \
        + mu * np.cross(pi, pj)

    def tau(point):
        return coeff[0] * point[0] + coeff[1] * point[1] \
            + coeff[2] * point[2]

    return tau, coeff


def _sphere_fiber_layer(nc, coords, kappa, mu):
    """The abelian layer shared by the sphere families: the linear
    phases tau_ij, the cocycle h_ijk = exp(i(tau_ij + tau_jk + tau_ki))
    and the closed overlap forms A_ij = -i dtau_ij (so d A_ij = 0)."""
    axes = SPHERE_CAP_AXES
    taus, aij_forms = {}, {}
    for (i, j) in overlap_pairs(nc):
        taus[(i, j)], coeff = _linear_tau(axes[i], axes[j], kappa, mu)

        def aij_eval(p, v, coeff=coeff):
            return np.array([[-1j * float(np.dot(coeff, v))]])

        aij_forms[(i, j)] = native_form(
            1, aij_eval, 1, coords, value_tag="h",
            d=zero_form(2, 1, coords, value_tag="h"))

    def h_fn(i, j, k):
        ti, tj, tk = taus[(i, j)], taus[(j, k)], taus[(k, i)]

        def fn(point):
            return [[dm.exp(1j * (ti(point) + tj(point) + tk(point)))]]

        return fn

    h_maps = {t: GroupMap.from_dual_fn(h_fn(*t), "H")
              for t in overlap_triples(nc)}
    return taus, h_maps, aij_forms


def _section_jet(axis, p, v):
    """The cap section at p and its derivative along v, as quaternions."""
    seeded = [Dual(float(c), float(d)) for c, d in zip(p, v)]
    q = section_rotor(axis, tuple(seeded))
    return (tuple(value(c) for c in q),
            tuple((c.dot if isinstance(c, Dual) else 0.0) for c in q))


def _const_2form(scale_matrix, component, dim, coords, tag="h"):
    """A 2-form with constant coefficient `scale_matrix` on the given
    coordinate wedge; used on the flat torus."""
    a, b = component

    def evalfn(p, v, w):
        factor = v[..., a] * w[..., b] - v[..., b] * w[..., a]
        return factor[..., None, None] * scale_matrix

    return native_form(2, evalfn, dim, coords, value_tag=tag)


def sphere_area_form(scale, dim=1, tag="h") -> LocalForm:
    """scale times the round area form x . (v x w) on the unit sphere."""
    def evalfn(p, v, w):
        tr = np.einsum("...i,...i->...", p, np.cross(v, w))
        return scale * tr[..., None, None] * np.eye(dim, dtype=complex)

    return native_form(2, evalfn, dim, ("x", "y", "z"), value_tag=tag)


# --------------------------------------------------------------------------
# Trivial bundle
# --------------------------------------------------------------------------

def trivial_bundle(model="sphere", extension="u1-squared"
                   ) -> TwistedBundleData:
    if model not in COVER_FOR_MODEL:
        raise ConfigError(f"unknown model {model!r}; known: "
                          f"{sorted(COVER_FOR_MODEL)}")
    ext = make_extension(extension)
    cover = make_cover(COVER_FOR_MODEL[model])
    n = len(cover)
    coords = cover.model.coord_names
    unit_e = np.eye(ext.E.dim)
    zero1_e = zero_form(1, ext.E.dim, coords, value_tag="e")
    zero1_g = zero_form(1, ext.G.dim, coords, value_tag="g")
    zero1_h = zero_form(1, ext.H.dim, coords, value_tag="h")
    zero2_h = zero_form(2, ext.H.dim, coords, value_tag="h")
    return TwistedBundleData(
        name=f"trivial-{model}-{extension}", cover=cover, extension=ext,
        g={ij: GroupMap.constant(np.eye(ext.G.dim), "G")
           for ij in overlap_pairs(n)},
        e={ij: GroupMap.constant(unit_e, "E") for ij in overlap_pairs(n)},
        h={t: GroupMap.constant(np.eye(ext.H.dim), "H")
           for t in overlap_triples(n)},
        D={i: zero1_g for i in range(n)},
        A={i: zero1_e for i in range(n)},
        Aij={ij: zero1_h for ij in overlap_pairs(n)},
        F={i: zero2_h for i in range(n)},
        params={"model": model, "extension": extension},
    )


# --------------------------------------------------------------------------
# Flat torus family
# --------------------------------------------------------------------------

TORUS_M = {(0, 1): 1, (2, 3): 1, (0, 2): 0, (0, 3): 0, (1, 2): 0, (1, 3): 0}


def torus_flat_bundle(k=1, order=3, flux=0.7) -> TwistedBundleData:
    """Flat twisted bundle over the square torus.

    Transitions are constant, the fiber cocycle takes values in the
    `order`-th roots of unity (raised to the k-th power), the connection
    forms are constant-coefficient, and F carries a non-integer flux so
    that surface holonomy separates winding classes.
    """
    k, order = integer_setting(k, "k"), integer_setting(order, "order", 1)
    flux = float_setting(flux, "flux")
    ext = make_extension("u1-squared")
    cover = make_cover("torus-4squares")
    n = len(cover)
    coords = cover.model.coord_names

    def m_of(i, j):
        if (i, j) in TORUS_M:
            return TORUS_M[(i, j)]
        return -TORUS_M[(j, i)]

    lam = {ij: np.exp(2j * math.pi * k * m_of(*ij) / order)
           for ij in overlap_pairs(n)}
    e_maps = {ij: GroupMap.constant(np.diag([lam[ij], 1.0]), "E")
              for ij in overlap_pairs(n)}
    h_maps = {}
    for (i, j, kk) in overlap_triples(n):
        val = lam[(i, j)] * lam[(j, kk)] * lam[(kk, i)]
        h_maps[(i, j, kk)] = GroupMap.constant(np.array([[val]]), "H")

    a1, a2 = 0.9, 1.7
    d1, d2 = 1.3, 0.55

    def a_eval(p, v):
        lam_part = 1j * (a1 * v[0] + a2 * v[1])
        g_part = 1j * (d1 * v[0] + d2 * v[1])
        return np.diag([lam_part, g_part])

    def d_eval(p, v):
        return np.array([[1j * (d1 * v[0] + d2 * v[1])]])

    a_form = native_form(1, a_eval, 2, coords, value_tag="e",
                         d=zero_form(2, 2, coords, value_tag="e"))
    d_form = native_form(1, d_eval, 1, coords, value_tag="g")
    f_form = _const_2form(2j * math.pi * flux * np.eye(1, dtype=complex),
                          (0, 1), 1, coords)

    zero1_h = zero_form(1, 1, coords, value_tag="h")
    return TwistedBundleData(
        name="torus-flat", cover=cover, extension=ext,
        g={ij: GroupMap.constant(np.eye(1), "G") for ij in overlap_pairs(n)},
        e=e_maps, h=h_maps,
        D={i: d_form for i in range(n)},
        A={i: a_form for i in range(n)},
        Aij={ij: zero1_h for ij in overlap_pairs(n)},
        F={i: f_form for i in range(n)},
        params={"k": k, "order": order, "flux": flux},
    )


# --------------------------------------------------------------------------
# Sphere monopole family
# --------------------------------------------------------------------------

def _sphere_transition_phase(axis_i, axis_j):
    """x -> unit phase of section_i(x)^-1 section_j(x) (a k-stabilizer)."""
    def phase(point):
        qi = section_rotor(axis_i, tuple(point))
        qj = section_rotor(axis_j, tuple(point))
        return stabilizer_phase(qmul(qconj(qi), qj))

    return phase


def _vertical_component(axis):
    """x, v -> the k-component of q^-1 dq for the cap section (a real
    scalar; the canonical abelian connection of the section)."""
    def form_eval(p, v):
        qval, qdot = _section_jet(axis, p, v)
        u = qmul(qconj(qval), qdot)   # q^-1 dq as a pure quaternion
        return u[3]

    return form_eval


def monopole_bundle(n=1, kappa=0.8, mu=0.5) -> TwistedBundleData:
    """Charge-n sphere monopole inside the U(1)^2 extension.

    g_ij is the n-th power of the quaternion-section transition phase,
    D_i the matching abelian connection, and the fiber layer carries the
    smooth antisymmetric phases tau_ij, making h_ijk nonconstant.
    """
    n = integer_setting(n, "monopole charge n")
    kappa, mu = float_setting(kappa, "kappa"), float_setting(mu, "mu")
    ext = make_extension("u1-squared")
    cover = make_cover("sphere-3caps")
    nc = len(cover)
    coords = cover.model.coord_names
    axes = SPHERE_CAP_AXES

    taus, h_maps, aij_forms = _sphere_fiber_layer(nc, coords, kappa, mu)

    def e_fn(i, j):
        phase = _sphere_transition_phase(axes[i], axes[j])
        tau = taus[(i, j)]

        def fn(point):
            lam = dm.exp(1j * tau(point))
            g = phase(point) ** n
            return [[lam, 0.0 * lam], [0.0 * lam, g]]

        return fn

    def g_fn(i, j):
        phase = _sphere_transition_phase(axes[i], axes[j])

        def fn(point):
            return [[phase(point) ** n]]

        return fn

    e_maps = {ij: GroupMap.from_dual_fn(e_fn(*ij), "E")
              for ij in overlap_pairs(nc)}
    g_maps = {ij: GroupMap.from_dual_fn(g_fn(*ij), "G")
              for ij in overlap_pairs(nc)}

    d_forms, a_forms = {}, {}
    for i in range(nc):
        vert = _vertical_component(axes[i])

        def d_eval(p, v, vert=vert):
            return np.array([[-1j * n * vert(p, v)]])

        def a_eval(p, v, vert=vert):
            return np.diag([0.0 + 0.0j, -1j * n * vert(p, v)])

        d_forms[i] = native_form(1, d_eval, 1, coords, value_tag="g")
        a_forms[i] = native_form(1, a_eval, 2, coords, value_tag="e")

    f_form = sphere_area_form(0.5j * n)
    return TwistedBundleData(
        name=f"monopole-{n}", cover=cover, extension=ext,
        g=g_maps, e=e_maps, h=h_maps,
        D=d_forms, A=a_forms, Aij=aij_forms,
        F={i: f_form for i in range(nc)},
        params={"n": n, "kappa": kappa, "mu": mu},
    )


# --------------------------------------------------------------------------
# Sphere PU(2) family
# --------------------------------------------------------------------------

def pu2_bundle(kappa=0.8, mu=0.5, spin=0.6, flux=0.7) -> TwistedBundleData:
    """Nonabelian sphere family in 1 -> U(1) -> U(2) -> PU(2) -> 1.

    e_ij(x) = exp(i tau_ij(x)) . U_i(x)^-1 U_j(x) with the quaternion
    sections U_i; A_i conjugates a global su(2)-valued 1-form through
    U_i and adds the section's Maurer-Cartan term, so all gluing
    identities hold exactly.
    """
    kappa, mu = float_setting(kappa, "kappa"), float_setting(mu, "mu")
    spin, flux = float_setting(spin, "spin"), float_setting(flux, "flux")
    ext = make_extension("u2-pu2")
    cover = make_cover("sphere-3caps")
    nc = len(cover)
    coords = cover.model.coord_names
    axes = SPHERE_CAP_AXES

    taus, h_maps, aij_forms = _sphere_fiber_layer(nc, coords, kappa, mu)

    def e_fn(i, j):
        tau = taus[(i, j)]
        ai, aj = axes[i], axes[j]

        def fn(point):
            lam = dm.exp(1j * tau(point))
            qi = section_rotor(ai, tuple(point))
            qj = section_rotor(aj, tuple(point))
            t = su2_matrix(qmul(qconj(qi), qj))
            return [[lam * t[0][0], lam * t[0][1]],
                    [lam * t[1][0], lam * t[1][1]]]

        return fn

    e_maps = {ij: GroupMap.from_dual_fn(e_fn(*ij), "E")
              for ij in overlap_pairs(nc)}
    g_maps = {ij: e_maps[ij].pushforward(ext.project_mat,
                                         ext.alg_project_mat, "G")
              for ij in overlap_pairs(nc)}

    def global_su2(p, v):
        """(i spin / 2) sigma . (x cross v): a global su(2) 1-form."""
        c = np.cross(p, v)
        return 0.5j * spin * (c[0] * np.array([[0, 1], [1, 0]], complex)
                              + c[1] * np.array([[0, -1j], [1j, 0]], complex)
                              + c[2] * np.array([[1, 0], [0, -1]], complex))

    a_forms, d_forms = {}, {}
    for i in range(nc):
        axis = axes[i]

        def a_eval(p, v, axis=axis):
            qval, qdot = _section_jet(axis, p, v)
            u = np.array(su2_matrix(qval), dtype=complex)
            du = np.array(su2_matrix(qdot), dtype=complex)
            ui = np.linalg.inv(u)
            return ui @ global_su2(p, v) @ u + ui @ du

        def d_eval(p, v, a_eval=a_eval):
            return ext.alg_project_mat(a_eval(p, v))

        a_forms[i] = native_form(1, a_eval, 2, coords, value_tag="e")
        d_forms[i] = native_form(1, d_eval, 3, coords, value_tag="g")

    f_form = sphere_area_form(0.5j * flux)
    return TwistedBundleData(
        name="sphere-pu2", cover=cover, extension=ext,
        g=g_maps, e=e_maps, h=h_maps,
        D=d_forms, A=a_forms, Aij=aij_forms,
        F={i: f_form for i in range(nc)},
        params={"kappa": kappa, "mu": mu, "spin": spin, "flux": flux},
    )


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------

_FAMILIES = {"trivial": trivial_bundle, "torus-flat": torus_flat_bundle,
             "monopole": monopole_bundle, "sphere-pu2": pu2_bundle}

FAMILY_NAMES = tuple(_FAMILIES)


def make_bundle(name, params=None) -> TwistedBundleData:
    """Family `name` from `params`, keyword arguments of its builder."""
    if name not in _FAMILIES:
        raise ConfigError(f"unknown family {name!r}; known: "
                          f"{sorted(_FAMILIES)}", "family")
    try:
        return _FAMILIES[name](**(params or {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {name} parameters: {exc}") from None
