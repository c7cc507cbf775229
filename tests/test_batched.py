"""The batched evaluation path: node arrays and point stacks against one
point at a time (geometry, forms, group maps, gauges, extension maps),
domain errors inside a batch, calls per quadrature cell, line cell,
edge, chart-assignment cell and validation region, and the face error
estimate."""

import math

import numpy as np
import pytest

from holotwist import catalog as C, geometry as G, holonomy as H
from holotwist.bundle import (
    gauge_transform,
    identity_gauge,
    random_gauge,
    sample_region,
    validate,
)
from holotwist.errors import DomainError
from holotwist.families import make_bundle, monopole_bundle
from holotwist.formsexpr.forms import (
    LocalForm,
    expr_form,
    integrate_1form,
    integrate_2form,
    native_form,
)
from holotwist.liecore import (
    BUILTIN_EXTENSIONS,
    make_extension,
    path_ordered_exp,
)
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
    seg_calls, form_calls = [], []
    form = native_form(1, _counting(
        lambda p, v: (p[..., 0] * v[..., 1])[..., None, None] + 0j,
        form_calls), 1, ("x", "y"))

    def circle(t):
        th = 2.0 * math.pi * t
        return (np.stack([np.cos(th), np.sin(th)], axis=-1),
                2.0 * math.pi * np.stack([-np.sin(th), np.cos(th)], axis=-1))

    val = integrate_1form(form, _counting(circle, seg_calls), order=12,
                          cells=8).entries[0, 0]
    assert seg_calls == [(96,)]
    assert form_calls == [(96, 2)]
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


def _recording(form, calls):
    """The form with every evaluation's point-stack shape recorded."""
    return LocalForm(form.degree, form.dim, form.coord_names,
                     _counting(form._evalfn, calls), form.value_tag, form.d)


def test_one_form_call_per_line_cell_and_per_edge():
    bundle = monopole_bundle(1)
    loop = C.latitude_loop(1.0)
    sub = G.assign_charts_interval(loop, bundle.cover)
    calls = []
    bundle.D = {i: _recording(f, calls) for i, f in bundle.D.items()}
    H.hol0(bundle, loop, sub, steps=64, with_error=False)
    assert len(calls) == len(sub.cells) > 1
    assert all(len(shape) == 2 and shape[1] == 3 for shape in calls)

    cyl = C.cap_sweep_cylinder(2.0)
    rect = H.epsilon(bundle, cyl, order=4).subdivision
    calls.clear()
    bundle.Aij = {ij: _recording(f, calls) for ij, f in bundle.Aij.items()}
    res = H.epsilon(bundle, cyl, rect=rect, order=4, edge_cells=3)
    edges = [label for label, _ in res.cells if "edge" in label]
    assert len(calls) == len(edges) > 0
    assert set(calls) == {(12, 3)}


def test_one_cylinder_eval_for_all_vertices():
    """One cylinder evaluation for all vertices, and each vertex term
    equal to log h_abc - log h_adc at its own point.  The grid's charts
    are laid out so that the same h_abc is met at several vertices (the
    monopole cocycle is defined on the whole sphere)."""
    bundle = monopole_bundle(1)
    cyl = C.cap_sweep_cylinder(2.0)
    rect = G.RectSubdivision((0.0, 0.3, 0.6, 1.0), (0.0, 0.2, 0.5, 0.7, 1.0),
                             ((0, 1, 0, 1), (0, 2, 0, 2), (1, 2, 1, 2)), 5)
    rows, cols = rect.shape
    calls = []
    cyl.eval = _counting(cyl.eval, calls)
    res = H.epsilon(bundle, cyl, rect=rect, order=4)
    assert calls == [((rows - 1) * cols,)]
    vertices = {label: v for label, v in res.cells
                if label.startswith("vertex")}
    assert len(vertices) == (rows - 1) * cols

    def log_h(a, b, c, p):
        if len({a, b, c}) < 3:
            return np.zeros((1, 1))
        return np.log(bundle.h[(a, b, c)].value(p).entries)

    ch = rect.charts
    for r in range(1, rows):
        for c in (*range(1, cols), 0):
            p = cyl.eval(rect.s_breaks[r], rect.t_breaks[c])
            want = log_h(ch[r - 1][c - 1], ch[r - 1][c], ch[r][c], p) \
                - log_h(ch[r - 1][c - 1], ch[r][c - 1], ch[r][c], p)
            assert _close(vertices[f"vertex[{r},{c}]"], want), (r, c)
    assert any(np.abs(v).max() > 0.0 for v in vertices.values())


def test_one_evaluation_per_chart_assignment_cell():
    cover = G.make_cover("sphere-3caps")
    loop = C.latitude_loop(1.0)
    calls = []
    loop.eval = _counting(loop.eval, calls)
    sub = G.assign_charts_interval(loop, cover, samples_per_cell=17)
    assert len(calls) == 2 * len(sub.cells) - 1     # a binary split tree
    assert set(calls) == {(17,)}
    calls.clear()
    G.certify_interval(loop, cover, sub)
    assert calls == [(68,)] * len(sub.cells)

    cyl = C.make_cylinder("sphere", "constant", {"loop": "latitude"})
    calls = []
    cyl.eval = _counting(cyl.eval, calls)
    bottom = G.assign_charts_interval(cyl.bottom_loop(), cover)
    rect = G.assign_charts_rect(cyl, cover, samples_per_cell=5,
                                bottom=bottom, top=bottom)
    assert rect.shape[0] == 1 and calls == [(25,)] * rect.shape[1]
    calls.clear()
    G.certify_rect(cyl, cover, rect)
    assert calls == [(400,)] * rect.shape[1]


def test_one_evaluation_per_validation_region():
    bundle = monopole_bundle(1)
    calls = []
    bundle.F = {i: _recording(f, calls) for i, f in bundle.F.items()}
    validate(bundle, sample_count=12)
    # F_j and F_i once on each of the three pair regions
    assert calls == [(12, 3)] * 6


# Families at default params, a trivial bundle over the torus with the
# nonabelian extension, and gauged bundles: random gauges, and an
# expression gauge B = 0.3 y dx - 0.1 x z dy.
def _expression_gauged(bundle):
    gauge = identity_gauge(bundle)
    form = expr_form(1, {"x": [["0.3*y"]], "y": [["-0.1*x*z"]]},
                     bundle.cover.model.coord_names)
    gauge.B_i = {i: form for i in range(bundle.nc)}
    return gauge_transform(bundle, gauge)


BUNDLES = {
    "trivial": lambda: make_bundle("trivial"),
    "trivial torus u2-pu2": lambda: make_bundle(
        "trivial", {"model": "torus", "extension": "u2-pu2"}),
    "torus-flat": lambda: make_bundle("torus-flat"),
    "monopole": lambda: make_bundle("monopole"),
    "sphere-pu2": lambda: make_bundle("sphere-pu2"),
    **{f"{name} random gauge": (lambda name=name: gauge_transform(
        make_bundle(name), random_gauge(make_bundle(name), seed=3)))
       for name in ("monopole", "sphere-pu2", "torus-flat")},
    "monopole expression gauge": lambda: _expression_gauged(
        make_bundle("monopole")),
}
N_POINTS = 5


def _region_stack(bundle, region, rng, tangents):
    """Points of a chart region and random tangents at them, as stacks."""
    p = np.array(sample_region(bundle.cover, region, rng, N_POINTS))
    return p, [np.array([bundle.cover.model.random_tangent(rng, x)
                         for x in p]) for _ in range(tangents)]


def _stack_matches_points(fn, *stacks):
    out = fn(*stacks)
    outs = out if isinstance(out, tuple) else (out,)
    for k in range(N_POINTS):
        one = fn(*[s[k] for s in stacks])
        for o, ok in zip(outs, one if isinstance(one, tuple) else (one,)):
            assert o.shape == (N_POINTS,) + ok.shape and _close(o[k], ok), k


@pytest.mark.parametrize("name", list(BUNDLES))
def test_bundle_forms_on_stacks_match_points(name):
    bundle = BUNDLES[name]()
    rng = np.random.default_rng(0)
    for store in (bundle.D, bundle.A, bundle.Aij, bundle.F):
        for key, form in store.items():
            region = key if isinstance(key, tuple) else (key,)
            for f in (form, form.d):
                if f is None:
                    continue
                p, tangents = _region_stack(bundle, region, rng, f.degree)
                assert f(p, *tangents).shape == (N_POINTS, f.dim, f.dim)
                _stack_matches_points(f, p, *tangents)


@pytest.mark.parametrize("name", list(BUNDLES))
def test_group_maps_on_stacks_match_points(name):
    bundle = BUNDLES[name]()
    rng = np.random.default_rng(1)
    for store in (bundle.g, bundle.e, bundle.h):
        for key, gmap in store.items():
            p, (v,) = _region_stack(bundle, key, rng, 1)
            _stack_matches_points(lambda x: gmap.value(x).entries, p)
            _stack_matches_points(gmap.jet, p, v)


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_expression_forms_on_stacks_match_points(degree):
    entries = [["sin(x)*y + 2", "exp(z)/(2 + x)"], ["sqrt(1 + y*y)", "x*z"]]
    components = {0: entries, 1: {"x": entries, "z": entries},
                  2: {("x", "y"): entries, ("y", "z"): entries}}[degree]
    form = expr_form(degree, components, ("x", "y", "z"))
    rng = np.random.default_rng(2)
    stacks = rng.normal(size=(3, N_POINTS, 3))
    for f in (form, form.d):
        if f is not None:
            _stack_matches_points(f, *stacks[:f.degree + 1])


@pytest.mark.parametrize("name", sorted(BUILTIN_EXTENSIONS))
def test_extension_maps_on_stacks_match_matrices(name):
    ext = make_extension(name)
    rng = np.random.default_rng(3)

    def alg(dim):
        return rng.normal(size=(N_POINTS, dim, dim)) \
            + 1j * rng.normal(size=(N_POINTS, dim, dim))

    h = np.array([ext.random_mat("H", rng) for _ in range(N_POINTS)])
    e = np.array([ext.random_mat("E", rng) for _ in range(N_POINTS)])
    for fn, stack in ((ext.include_mat, h), (ext.project_mat, e),
                      (ext.alg_include_mat, alg(ext.H.dim)),
                      (ext.alg_project_mat, alg(ext.E.dim))):
        _stack_matches_points(fn, stack)


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
