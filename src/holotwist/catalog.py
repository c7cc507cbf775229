"""Named parametric loops and cylinders on the built-in models.

Everything here is built from collar-warped smooth pieces, so all
concatenations stay smooth and every object carries exact derivatives.
Each map takes arrays of nodes (see geometry.Loop); the three-piece
profiles are tables of segment ends read per node
(geometry._segment_path).
"""

from __future__ import annotations

import math

import numpy as np

from . import dual as dm
from .dual import value
from .errors import ConfigError, DomainError, float_setting, \
    integer_setting
from .geometry import (
    DEFAULT_COLLAR,
    Cylinder,
    Loop,
    _segment_path,
    collar_warp,
    compose_cylinders_vertical,
    constant_cylinder,
    constant_loop,
    fold_reparam,
    make_model,
)

PIECE_COLLAR = 0.2   # collar fraction inside each third of a 3-piece loop


def _w(u):
    return collar_warp(u, PIECE_COLLAR)


def _bump(u):
    """C-infinity bump on [0,1], vanishing to all orders at both ends."""
    return _w(2.0 * u) * (1.0 - _w(2.0 * u - 1.0))


# --------------------------------------------------------------------------
# Sphere
# --------------------------------------------------------------------------

def _sphere_point(theta, phi):
    return [dm.sin(theta) * dm.cos(phi),
            dm.sin(theta) * dm.sin(phi),
            dm.cos(theta)]


# (theta / alpha, phi / 2 pi) at the ends of the three segments of the
# cap profile: down the meridian, around the latitude, back up.
_CAP_SEGMENTS = (((0, 0), (1, 0)), ((1, 0), (1, 1)), ((1, 0), (0, 0)))


def _cap_profile(alpha, t):
    """(theta, phi) of the three-piece loop: down the phi=0 meridian to
    polar angle alpha (one angle, or one per node), once around the
    latitude, and back up."""
    depth, turn = _segment_path(t, _CAP_SEGMENTS, PIECE_COLLAR)
    return alpha * depth, 2.0 * math.pi * turn


def latitude_loop(theta0) -> Loop:
    model = make_model("sphere")

    def fn(t):
        th, ph = _cap_profile(theta0, t)
        return _sphere_point(th, ph)

    return Loop(model, fn, DEFAULT_COLLAR)


def equator_loop() -> Loop:
    return latitude_loop(math.pi / 2.0)


def great_circle_loop(tilt=0.0) -> Loop:
    """Full great circle through the poles in the plane phi = tilt."""
    model = make_model("sphere")

    def fn(t):
        th = 2.0 * math.pi * _w(t)
        # theta runs through [0, 2pi); fold onto the chart as x/z components
        return [dm.sin(th) * math.cos(tilt), dm.sin(th) * math.sin(tilt),
                dm.cos(th)]

    return Loop(model, fn, DEFAULT_COLLAR)


def cap_sweep_cylinder(alpha_max=math.pi) -> Cylinder:
    """Sweep the latitude loop from the constant loop down to alpha_max."""
    model = make_model("sphere")

    def fn(s, t):
        alpha = alpha_max * _w(s)
        th, ph = _cap_profile(alpha, t)
        return _sphere_point(th, ph)

    return Cylinder(model, fn, DEFAULT_COLLAR)


def spike_retraction_cylinder(alpha_max=math.pi) -> Cylinder:
    """Thin retraction of the depth-alpha_max meridian spike to a point.

    Its start slice agrees pointwise with the end slice of
    cap_sweep_cylinder(alpha_max): the 'around' piece sits at a single
    point once phi is irrelevant (exactly so at alpha_max = pi).
    """
    model = make_model("sphere")

    def fn(s, t):
        depth = alpha_max * (1.0 - _w(s))
        th, _ = _cap_profile(depth, t)
        return _sphere_point(th, 0.0 * t)

    return Cylinder(model, fn, DEFAULT_COLLAR)


def full_sphere_cylinder() -> Cylinder:
    """Closed cylinder sweeping the whole sphere exactly once."""
    return compose_cylinders_vertical(cap_sweep_cylinder(math.pi),
                                      spike_retraction_cylinder(math.pi))


# --------------------------------------------------------------------------
# Torus
# --------------------------------------------------------------------------

def winding_loop(p, q) -> Loop:
    """Straight winding loop of class (p, q), traversed with collars."""
    model = make_model("torus")

    def fn(t):
        w = collar_warp(t)
        return [p * w, q * w]

    return Loop(model, fn, DEFAULT_COLLAR)


def staircase_loop(p, q) -> Loop:
    """(p,0) then (0,q), same class as winding_loop(p, q)."""
    from .geometry import concat_loops
    return concat_loops(winding_loop(p, 0), winding_loop(0, q))


# --------------------------------------------------------------------------
# Generic deformations
# --------------------------------------------------------------------------

def perturb_loop(loop: Loop, amplitude, direction=None, center=0.5,
                 width=0.5) -> Loop:
    """Smooth non-thin displacement of the loop interior.

    Torus loops are displaced additively; sphere loops are rotated about
    the direction axis by a bump-profiled angle.  Collars are untouched.
    """
    model = loop.model

    def bump(t):
        return _bump((t - center) / width + 0.5)

    if model.kind == "torus":
        direction = np.asarray(direction if direction is not None
                               else [0.0, 1.0], dtype=float)

        def fn(t):
            b = amplitude * bump(t)
            out = loop.fn(t)
            return [c + b * d for c, d in zip(out, direction)]

        return Loop(model, fn, loop.collar_width)

    axis = np.asarray(direction if direction is not None
                      else [0.0, 0.0, 1.0], dtype=float)
    axis = axis / np.linalg.norm(axis)

    def fn(t):
        ang = amplitude * bump(t)
        p = loop.fn(t)
        return _rotate_about(p, axis, ang)

    return Loop(model, fn, loop.collar_width)


def _rotate_about(p, axis, angle):
    """Rodrigues rotation, dual-capable in the point and the angle."""
    c, s = dm.cos(angle), dm.sin(angle)
    k = axis
    dot = p[0] * k[0] + p[1] * k[1] + p[2] * k[2]
    cross = [k[1] * p[2] - k[2] * p[1],
             k[2] * p[0] - k[0] * p[2],
             k[0] * p[1] - k[1] * p[0]]
    return [p[i] * c + cross[i] * s + k[i] * dot * (1.0 - c)
            for i in range(3)]


def perturb_cylinder(cyl: Cylinder, amplitude, direction=None,
                     center=(0.5, 0.5), width=0.5) -> Cylinder:
    """Interior-only smooth deformation of a cylinder (non-thin for
    amplitude != 0); boundary collars and boundary loops are unchanged."""
    model = cyl.model

    def bump2(s, t):
        return (_bump((s - center[0]) / width + 0.5)
                * _bump((t - center[1]) / width + 0.5))

    if model.kind == "torus":
        d = np.asarray(direction if direction is not None else [0.0, 1.0],
                       dtype=float)

        def fn(s, t):
            b = amplitude * bump2(s, t)
            out = cyl.fn(s, t)
            return [c + b * dk for c, dk in zip(out, d)]

        return Cylinder(model, fn, cyl.collar_width)

    axis = np.asarray(direction if direction is not None else [1.0, 0.0, 0.0],
                      dtype=float)
    axis = axis / np.linalg.norm(axis)

    def fn(s, t):
        ang = amplitude * bump2(s, t)
        return _rotate_about(cyl.fn(s, t), axis, ang)

    return Cylinder(model, fn, cyl.collar_width)


def morph_cylinder(l1: Loop, l2: Loop) -> Cylinder:
    """Homotopy from l1 to l2 by pointwise interpolation.

    Torus: straight-line interpolation of lifts (valid when the loops
    share a winding class).  Sphere: normalized linear interpolation,
    valid while the loops are never antipodal at equal times.
    """
    model = l1.model
    if model.kind == "torus":
        def fn(s, t):
            w = collar_warp(s)
            a, b = l1.fn(t), l2.fn(t)
            return [(1.0 - w) * x + w * y for x, y in zip(a, b)]

        return Cylinder(model, fn, min(l1.collar_width, l2.collar_width))

    def fn(s, t):
        w = collar_warp(s)
        a, b = l1.fn(t), l2.fn(t)
        mix = [(1.0 - w) * x + w * y for x, y in zip(a, b)]
        n2 = mix[0] * mix[0] + mix[1] * mix[1] + mix[2] * mix[2]
        if np.any(value(n2).real < 1e-12):
            raise DomainError("interpolated loops pass through antipodes")
        n = dm.sqrt(n2)
        return [m / n for m in mix]

    return Cylinder(model, fn, min(l1.collar_width, l2.collar_width))


def thin_fold_cylinder(loop: Loop, waypoints=(0.0, 0.7, 0.4, 1.0)) -> Cylinder:
    """Homotopy from a loop to its folded reparametrization; every slice
    has the same image, so the whole cylinder is thin."""
    model = loop.model
    rep = fold_reparam(waypoints)

    def fn(s, t):
        w = collar_warp(s)
        warped = rep(t)
        mixed = t + w * (warped - t)
        return loop.fn(mixed)

    return Cylinder(model, fn, loop.collar_width)


# --------------------------------------------------------------------------
# Named registry (used by the CLI and by randomized test batteries)
# --------------------------------------------------------------------------

_ALL = ("sphere", "torus", "plane")


def _real(params, key):
    return float_setting(params[key], key)


# name -> (model kinds, params with their defaults, builder(kind, params));
# the params a config may set are exactly the keys of the defaults.
_LOOPS = {
    "constant": (_ALL, {}, lambda kind, p: constant_loop(make_model(kind))),
    "latitude": (("sphere",), {"theta": math.pi / 2},
                 lambda kind, p: latitude_loop(_real(p, "theta"))),
    "equator": (("sphere",), {}, lambda kind, p: equator_loop()),
    "great-circle": (("sphere",), {"tilt": 0.0},
                     lambda kind, p: great_circle_loop(_real(p, "tilt"))),
    "winding": (("torus",), {"p": 1, "q": 0}, lambda kind, p: winding_loop(
        integer_setting(p["p"], "p"), integer_setting(p["q"], "q"))),
    "staircase": (("torus",), {"p": 1, "q": 1}, lambda kind, p:
                  staircase_loop(integer_setting(p["p"], "p"),
                                 integer_setting(p["q"], "q"))),
}


def _loop(kind, p):
    return make_loop(kind, p["loop"], p["loop_params"])


def _morph(kind, p):
    l1 = _loop("torus", p)
    return morph_cylinder(l1, perturb_loop(l1, _real(p, "amplitude")))


_LOOP = {"loop": "constant", "loop_params": None}
_CYLINDERS = {
    "constant": (_ALL, _LOOP,
                 lambda kind, p: constant_cylinder(_loop(kind, p))),
    "thin-fold": (_ALL, {**_LOOP, "waypoints": (0.0, 0.7, 0.4, 1.0)},
                  lambda kind, p: thin_fold_cylinder(
                      _loop(kind, p), tuple(p["waypoints"]))),
    "perturbed": (("sphere", "torus"),
                  {"base": "constant", "base_params": None,
                   "amplitude": 0.1, "direction": None},
                  lambda kind, p: perturb_cylinder(
                      make_cylinder(kind, p["base"], p["base_params"]),
                      _real(p, "amplitude"), p["direction"])),
    "cap-sweep": (("sphere",), {"alpha": math.pi},
                  lambda kind, p: cap_sweep_cylinder(_real(p, "alpha"))),
    "spike-retraction": (("sphere",), {"alpha": math.pi}, lambda kind, p:
                         spike_retraction_cylinder(_real(p, "alpha"))),
    "full-sphere": (("sphere",), {}, lambda kind, p: full_sphere_cylinder()),
    "morph": (("torus",), {"loop": "winding", "loop_params": {"p": 1, "q": 0},
                           "amplitude": 0.1}, _morph),
}


def _build(table, what, model_kind, name, params):
    """Unknown names raise ConfigError at "name", unknown or bad params
    a ConfigError without a path."""
    kinds, defaults, builder = table.get(name, ((), {}, None))
    if model_kind not in kinds:
        raise ConfigError(f"unknown {what} {name!r} on model {model_kind!r}",
                          "name")
    params = dict(params or {})
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown {what} parameters {unknown}; {name!r} "
                          f"takes {sorted(defaults)}")
    try:
        return builder(model_kind, {**defaults, **params})
    except (TypeError, ValueError, ConfigError) as exc:
        raise ConfigError(f"bad {what} parameters: {exc}") from None


def make_loop(model_kind, name, params=None) -> Loop:
    return _build(_LOOPS, "loop", model_kind, name, params)


def make_cylinder(model_kind, name, params=None) -> Cylinder:
    return _build(_CYLINDERS, "cylinder", model_kind, name, params)


LOOP_NAMES = {kind: tuple(n for n, (kinds, *_) in _LOOPS.items()
                          if kind in kinds) for kind in _ALL}
CYLINDER_NAMES = {kind: tuple(n for n, (kinds, *_) in _CYLINDERS.items()
                              if kind in kinds) for kind in _ALL}
