"""The batched evaluation path: node arrays against one point at a time,
domain errors inside a batch, calls per quadrature cell, and the face
error estimate."""

import math

import numpy as np
import pytest

from holotwist import catalog as C, geometry as G, holonomy as H
from holotwist.errors import DomainError
from holotwist.families import monopole_bundle
from holotwist.formsexpr.forms import (
    integrate_1form,
    integrate_2form,
    native_form,
)
from holotwist.liecore import path_ordered_exp
from holotwist.reconstruct import SEG_COLLAR, BasepointScaffold

# Joints of the three-piece and two-piece maps, collar edges of the
# default and the chain collars, and the ends.
_JOINTS = (0.0, 1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0, G.DEFAULT_COLLAR,
           1.0 - G.DEFAULT_COLLAR, G.DEFAULT_COLLAR / 2.0, SEG_COLLAR / 5.0)
S_NODES = np.unique(np.concatenate([_JOINTS, np.linspace(0.0, 1.0, 9),
                                    [0.137, 0.61, 0.93]]))
T_NODES = np.unique(np.concatenate([_JOINTS, np.linspace(0.0, 1.0, 23),
                                    [0.21, 0.47, 0.77, 0.981]]))
TOL = 1e-14     # relative to max(1, |entry|): partials reach about 30


def _close(a, b):
    return bool(np.all(np.abs(a - b) <= TOL * np.maximum(1.0, np.abs(b))))


def _cylinders():
    out = [(f"{kind} {name}", C.make_cylinder(kind, name))
           for kind in ("sphere", "torus", "plane")
           for name in C.CYLINDER_NAMES[kind]]
    out += [
        ("sphere thin-fold latitude", C.make_cylinder(
            "sphere", "thin-fold", {"loop": "latitude"})),
        ("torus thin-fold staircase", C.make_cylinder(
            "torus", "thin-fold", {"loop": "staircase"})),
        ("sphere perturbed cap-sweep", C.make_cylinder(
            "sphere", "perturbed", {"base": "cap-sweep",
                                    "base_params": {"alpha": 2.0}})),
        ("torus perturbed morph", C.make_cylinder(
            "torus", "perturbed", {"base": "morph"})),
        ("sphere morph", C.morph_cylinder(
            C.latitude_loop(1.0), C.perturb_loop(C.latitude_loop(1.0), 0.3))),
        ("torus horizontal", G.compose_cylinders_horizontal(
            C.make_cylinder("torus", "morph"),
            C.make_cylinder("torus", "morph"))),
    ]
    for cover in ("sphere-3caps", "torus-4squares"):
        sc = BasepointScaffold.for_cover(G.make_cover(cover), seed=0)
        i, j = sorted(sc.pair_anchors)[0]
        xij = np.asarray(sc.pair_anchor(i, j))
        y = 0.9 * xij + 0.1 * np.asarray(sc.anchors[j])
        v = np.ones(len(xij)) / len(xij)
        w = np.roll(v, 1) - v
        if cover.startswith("sphere"):
            y = y / np.linalg.norm(y)
            v, w = v - np.dot(v, y) * y, w - np.dot(w, y) * y
        out += [(f"{cover} pair", sc.pair_cylinder(i, j, y)),
                (f"{cover} probe", sc.probe_cylinder(i, y, v, 1e-3)),
                (f"{cover} sweep", sc.sweep_cylinder(i, y, v, w, 0.02))]
    return out


def _loops():
    out = [(f"{kind} {name}", C.make_loop(kind, name))
           for kind in ("sphere", "torus", "plane")
           for name in C.LOOP_NAMES[kind]]
    out += [("sphere perturbed latitude",
             C.perturb_loop(C.latitude_loop(0.8), 0.2)),
            ("torus perturbed winding", C.perturb_loop(C.winding_loop(1, 1),
                                                        0.1)),
            ("full-sphere bottom", C.full_sphere_cylinder().bottom_loop()),
            ("warped great-circle",
             G.deform_thin(C.great_circle_loop(0.3), G.monotone_warp())),
            ("folded latitude",
             G.deform_thin(C.latitude_loop(1.2), G.fold_reparam()))]
    return out


CYLINDERS = _cylinders()
LOOPS = _loops()


@pytest.mark.parametrize("label", [label for label, _ in CYLINDERS])
def test_cylinder_arrays_match_points(label):
    cyl = dict(CYLINDERS)[label]
    s, t = (a.ravel() for a in np.meshgrid(S_NODES, T_NODES, indexing="ij"))
    p, ds, dt = cyl.eval_with_partials(s, t)
    assert p.shape == ds.shape == dt.shape == (s.size,
                                               cyl.model.ambient_dim)
    assert np.array_equal(cyl.eval(s, t), p)
    for k in range(s.size):
        pk, dsk, dtk = cyl.eval_with_partials(s[k], t[k])
        assert _close(p[k], pk), (s[k], t[k])
        assert _close(ds[k], dsk), (s[k], t[k])
        assert _close(dt[k], dtk), (s[k], t[k])


@pytest.mark.parametrize("label", [label for label, _ in LOOPS])
def test_loop_arrays_match_points(label):
    loop = dict(LOOPS)[label]
    p, v = loop.eval_with_deriv(T_NODES)
    assert p.shape == v.shape == (T_NODES.size, loop.model.ambient_dim)
    assert np.array_equal(loop.eval(T_NODES), p)
    assert np.array_equal(loop.deriv(T_NODES), v)
    for k, t in enumerate(T_NODES):
        pk, vk = loop.eval_with_deriv(t)
        assert _close(p[k], pk), t
        assert _close(v[k], vk), t


def test_sphere_morph_antipodes_raise_inside_a_batch():
    """Interpolating a great circle with its reverse passes through 0
    where the two points are antipodal: at s = 1/2 and the t where the
    circle crosses the equator.  One such node makes the batch raise."""
    loop = C.great_circle_loop(0.0)
    cyl = C.morph_cylinder(loop, G.reverse_loop(loop))
    lo, hi = 0.0, 0.5
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if loop.eval(mid)[2] > 0.0 else (lo, mid)
    t_bad = lo
    ts = np.array([0.1, 0.3, t_bad, 0.6, 0.9])
    cyl.eval(np.full(4, 0.5), np.delete(ts, 2))
    with pytest.raises(DomainError):
        cyl.eval(0.5, t_bad)
    with pytest.raises(DomainError):
        cyl.eval(np.full(5, 0.5), ts)
    with pytest.raises(DomainError):
        cyl.eval_with_partials(np.full(5, 0.5), ts)


def _counting(fn, calls):
    def wrapped(*args):
        calls.append(np.shape(args[0]))
        return fn(*args)
    return wrapped


def test_one_patch_and_form_call_per_cell():
    patch_calls, form_calls = [], []
    area = native_form(2, _counting(
        lambda p, v, w: np.einsum("...i,...i->...", p, np.cross(v, w))
        [..., None, None] + 0j, form_calls), 1, ("x", "y", "z"))
    patch = C.cap_sweep_cylinder(math.pi).eval_with_partials
    val = integrate_2form(area, _counting(patch, patch_calls), order=7,
                          cells=(2, 3)).entries
    assert patch_calls == [(49,)] * 6
    assert form_calls == [(49, 3)] * 6
    cells = sum(integrate_2form(area, patch, (s0, s0 + 0.5),
                                (t0, t0 + 1.0 / 3.0), order=7).entries
                for s0 in (0.0, 0.5) for t0 in (0.0, 1.0 / 3.0, 2.0 / 3.0))
    assert np.allclose(val, cells, rtol=1e-13, atol=0.0)


def test_one_segment_call_per_edge_and_one_field_call_per_path():
    seg_calls = []
    form = native_form(1, lambda p, v: np.array([[p[0] * v[1]]], complex), 1,
                       ("x", "y"))

    def circle(t):
        th = 2.0 * math.pi * t
        return (np.stack([np.cos(th), np.sin(th)], axis=-1),
                2.0 * math.pi * np.stack([-np.sin(th), np.cos(th)], axis=-1))

    val = integrate_1form(form, _counting(circle, seg_calls), order=12,
                          cells=8).entries[0, 0]
    assert seg_calls == [(96,)]
    assert val == pytest.approx(math.pi, abs=1e-10)

    field_calls = []
    gen = np.array([[0.0, 1.0], [-1.0, 0.0]])
    u = path_ordered_exp(_counting(lambda t: t[:, None, None] * gen,
                                   field_calls), steps=32)
    assert field_calls == [(64,)]
    want = np.array([[math.cos(0.5), math.sin(0.5)],
                     [-math.sin(0.5), math.cos(0.5)]])
    assert np.allclose(u.entries, want, atol=1e-12)


def test_line_holonomy_evaluates_loop_jets_once_per_cell():
    bundle = monopole_bundle(1)
    loop = C.latitude_loop(1.0)
    sub = G.assign_charts_interval(loop, bundle.cover)
    calls = []
    loop.eval_with_deriv = _counting(loop.eval_with_deriv, calls)
    H.hol0(bundle, loop, sub, steps=64, with_error=False)
    assert len(calls) == len(sub.cells) > 1
    assert all(len(shape) == 1 and shape[0] % 2 == 0 for shape in calls)


def _face_sum(res):
    return sum(v for label, v in res.cells if label.startswith("face"))


@pytest.mark.parametrize("alpha", [2.0, 3.0])
@pytest.mark.parametrize("numerics", [
    {}, {"order": 5, "face_tol": 1e-6, "max_split": 2}],
    ids=["default", "oracle"])
def test_face_error_estimate_bounds_face_error(alpha, numerics):
    """The faces of epsilon differ from a fine quadrature on the same
    grid by at most the reported estimate, and the functor adds it."""
    bundle = monopole_bundle(1)
    cyl = C.cap_sweep_cylinder(alpha)
    res = H.epsilon(bundle, cyl, **numerics)
    fine = H.epsilon(bundle, cyl, rect=res.subdivision, order=12,
                     face_tol=1e-14, max_split=9)
    err = np.abs(_face_sum(res) - _face_sum(fine)).max()
    assert 0.0 < err <= res.error_estimate
    functor = H.holonomy_functor(bundle, cyl, rect=res.subdivision,
                                 with_error=False, **numerics)
    assert functor.error_estimate == res.error_estimate
