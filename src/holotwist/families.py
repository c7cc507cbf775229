"""Built-in bundle families with closed-form local data.

The two sphere families are built from quaternion sections of the unit
2-sphere: for each cap axis p the section rotates p to the evaluation
point along a great circle, then a fixed rotation aligns the reference
axis k with p.  All transition phases and connection forms derive from
those sections, so every local identity holds exactly.  No family builds
the fiber cocycle: TwistedBundleData derives h_ijk from the transitions.

Every map and form here is evaluated on stacks of points: coordinates
are node arrays (or Duals over them), and forms map (..., n) point and
tangent stacks to (..., d, d) value stacks.
"""

from __future__ import annotations

import math

import numpy as np

from . import dual as dm
from .bundle import GroupMap, TwistedBundleData, overlap_pairs
from .dual import value
from .errors import ConfigError, DomainError, float_setting, integer_setting
from .formsexpr.forms import LocalForm, zero_form
from .geometry import COVER_FOR_MODEL, SPHERE_CAP_AXES, make_cover
from .liecore import SIGMA, diag_stack, make_extension

# Magnitude bounds of the family parameters, each far below the smallest
# value measured to overflow a command (README, Command line).
PARAM_BOUNDS = {"kappa": 1e150, "mu": 1e150, "spin": 1e8, "flux": 1e150,
                "n": 1e15, "k": 1e15}


def _param(x, name, setting=float_setting):
    """x read by setting (a finite float by default), of magnitude at most
    PARAM_BOUNDS[name], else ConfigError (quoting x as given)."""
    v = setting(x, name)
    if abs(v) > PARAM_BOUNDS[name]:
        raise ConfigError(f"{name} must have magnitude at most "
                          f"{PARAM_BOUNDS[name]:g}, got {x!r}")
    return v


# --------------------------------------------------------------------------
# Quaternions as 4-tuples of node arrays (or Duals over them)
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
    if np.any(np.real(value(d)) <= -1.0 + 1e-12):
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


def _su2_stack(q):
    """su2_matrix of a quaternion of node arrays, as a (..., 2, 2) stack."""
    return np.moveaxis(np.array(su2_matrix(q), dtype=complex), (0, 1),
                       (-2, -1))


def stabilizer_phase(q):
    """For q = (w, 0, 0, z) up to noise: the phase w - i z fixing k."""
    return q[0] - 1j * q[3]


# --------------------------------------------------------------------------
# Shared pieces
# --------------------------------------------------------------------------

def _cross(a, b):
    """np.cross of two (..., 3) stacks, without its axis handling."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape),
                   dtype=np.result_type(a, b))
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


def _linear_tau(pi, pj, kappa, mu):
    """Antisymmetric smooth overlap phases tau_ij(x) = coeff . x."""
    coeff = kappa * (np.asarray(pi) - np.asarray(pj)) \
        + mu * np.cross(pi, pj)

    def tau(point):
        return coeff[0] * point[0] + coeff[1] * point[1] \
            + coeff[2] * point[2]

    return tau, coeff


def _sphere_fiber_layer(nc, kappa, mu):
    """The abelian layer shared by the sphere families: the linear phases
    tau_ij, carried by the transitions as exp(i tau_ij) (so the derived
    h_ijk is exp(i(tau_ij + tau_jk + tau_ki))), and the closed overlap
    forms A_ij = -i dtau_ij (so d A_ij = 0)."""
    axes = SPHERE_CAP_AXES
    taus, aij_forms = {}, {}
    for (i, j) in overlap_pairs(nc):
        taus[(i, j)], coeff = _linear_tau(axes[i], axes[j], kappa, mu)

        def aij_eval(p, v, coeff=coeff):
            return -1j * (v @ coeff)[..., None, None]

        aij_forms[(i, j)] = LocalForm(1, 1, aij_eval, "h",
                                      zero_form(2, 1, value_tag="h"))
    return taus, aij_forms


def _section_jet(axis, p, v):
    """The cap section at each point of a (..., 3) stack and its
    derivative along the matching tangent, as quaternions."""
    q = section_rotor(axis, tuple(dm.seeded(p, v)))
    return tuple(c.val for c in q), tuple(c.dot for c in q)


def _const_2form(scale_matrix, component, dim):
    """A 2-form with constant coefficient `scale_matrix` on the given
    coordinate wedge; used on the flat torus."""
    a, b = component

    def evalfn(p, v, w):
        factor = v[..., a] * w[..., b] - v[..., b] * w[..., a]
        return factor[..., None, None] * scale_matrix

    return LocalForm(2, dim, evalfn, "h")


_EYE1 = np.eye(1, dtype=complex)
_EYE1.setflags(write=False)


def sphere_area_form(scale) -> LocalForm:
    """scale times the round area form x . (v x w) on the unit sphere,
    as a 1x1 kernel-valued 2-form."""
    def evalfn(p, v, w):
        tr = np.einsum("...i,...i->...", p, _cross(v, w))
        return scale * tr[..., None, None] * _EYE1

    return LocalForm(2, 1, evalfn, "h")


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
    unit_e = np.eye(ext.E.dim)
    zero1_e = zero_form(1, ext.E.dim, value_tag="e")
    zero1_h = zero_form(1, ext.H.dim, value_tag="h")
    zero2_h = zero_form(2, ext.H.dim, value_tag="h")
    return TwistedBundleData(
        name=f"trivial-{model}-{extension}", cover=cover, extension=ext,
        e={ij: GroupMap.constant(unit_e, "E") for ij in overlap_pairs(n)},
        A={i: zero1_e for i in range(n)},
        Aij={ij: zero1_h for ij in overlap_pairs(n)},
        F={i: zero2_h for i in range(n)},
    )


# --------------------------------------------------------------------------
# Flat torus family
# --------------------------------------------------------------------------

TORUS_M = {(0, 1): 1, (2, 3): 1, (0, 2): 0, (0, 3): 0, (1, 2): 0, (1, 3): 0}


def torus_flat_bundle(k=1, order=3, flux=0.7) -> TwistedBundleData:
    """Flat twisted bundle over the square torus.

    Transitions are constant, with `order`-th roots of unity (raised to
    the k-th power, |k| at most PARAM_BOUNDS["k"]) as their H parts, so
    the derived fiber cocycle takes its values among them; the connection
    forms are constant-coefficient, and F carries a non-integer flux so
    that surface holonomy separates winding classes.
    """
    k = _param(k, "k", integer_setting)
    order = integer_setting(order, "order", 1)
    flux = _param(flux, "flux")
    ext = make_extension("u1-squared")
    cover = make_cover("torus-4squares")
    n = len(cover)

    m = {**TORUS_M, **{(j, i): -v for (i, j), v in TORUS_M.items()}}
    lam = {ij: np.exp(2j * math.pi * k * m[ij] / order)
           for ij in overlap_pairs(n)}
    e_maps = {ij: GroupMap.constant(np.diag([lam[ij], 1.0]), "E")
              for ij in overlap_pairs(n)}

    a1, a2 = 0.9, 1.7
    d1, d2 = 1.3, 0.55

    def a_eval(p, v):
        lam_part = 1j * (a1 * v[..., 0] + a2 * v[..., 1])
        g_part = 1j * (d1 * v[..., 0] + d2 * v[..., 1])
        return diag_stack([lam_part, g_part])

    a_form = LocalForm(1, 2, a_eval, "e", zero_form(2, 2, value_tag="e"))
    f_form = _const_2form(2j * math.pi * flux * np.eye(1, dtype=complex),
                          (0, 1), 1)

    zero1_h = zero_form(1, 1, value_tag="h")
    return TwistedBundleData(
        name="torus-flat", cover=cover, extension=ext,
        e=e_maps,
        A={i: a_form for i in range(n)},
        Aij={ij: zero1_h for ij in overlap_pairs(n)},
        F={i: f_form for i in range(n)},
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

    e_ij = diag(exp(i tau_ij), g_ij) with g_ij the n-th power of the
    quaternion-section transition phase, A_i the matching abelian
    connection in the g slot, and smooth antisymmetric phases tau_ij
    making h_ijk nonconstant.
    """
    n = _param(n, "n", integer_setting)
    kappa, mu = _param(kappa, "kappa"), _param(mu, "mu")
    ext = make_extension("u1-squared")
    cover = make_cover("sphere-3caps")
    nc = len(cover)
    axes = SPHERE_CAP_AXES

    taus, aij_forms = _sphere_fiber_layer(nc, kappa, mu)

    def e_fn(i, j):
        phase = _sphere_transition_phase(axes[i], axes[j])
        tau = taus[(i, j)]

        def fn(point):
            lam = dm.exp(1j * tau(point))
            g = phase(point) ** n
            return [[lam, 0.0 * lam], [0.0 * lam, g]]

        return fn

    e_maps = {ij: GroupMap.from_dual_fn(e_fn(*ij), "E")
              for ij in overlap_pairs(nc)}

    a_forms = {}
    for i in range(nc):
        def a_eval(p, v, vert=_vertical_component(axes[i])):
            return diag_stack([0.0, -1j * n * vert(p, v)])

        a_forms[i] = LocalForm(1, 2, a_eval, "e")

    f_form = sphere_area_form(0.5j * n)
    return TwistedBundleData(
        name=f"monopole-{n}", cover=cover, extension=ext,
        e=e_maps, A=a_forms, Aij=aij_forms,
        F={i: f_form for i in range(nc)},
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
    kappa, mu = _param(kappa, "kappa"), _param(mu, "mu")
    spin, flux = _param(spin, "spin"), _param(flux, "flux")
    ext = make_extension("u2-pu2")
    cover = make_cover("sphere-3caps")
    nc = len(cover)
    axes = SPHERE_CAP_AXES

    taus, aij_forms = _sphere_fiber_layer(nc, kappa, mu)

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

    def global_su2(p, v):
        """(i spin / 2) sigma . (x cross v): a global su(2) 1-form."""
        return 0.5j * spin * np.einsum("...k,kab->...ab", _cross(p, v),
                                       SIGMA)

    a_forms = {}
    for i in range(nc):
        axis = axes[i]

        def a_eval(p, v, axis=axis):
            qval, qdot = _section_jet(axis, p, v)
            u = _su2_stack(qval)
            du = _su2_stack(qdot)
            ui = np.linalg.inv(u)
            return ui @ global_su2(p, v) @ u + ui @ du

        a_forms[i] = LocalForm(1, 2, a_eval, "e")

    f_form = sphere_area_form(0.5j * flux)
    return TwistedBundleData(
        name="sphere-pu2", cover=cover, extension=ext,
        e=e_maps, A=a_forms, Aij=aij_forms,
        F={i: f_form for i in range(nc)},
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
