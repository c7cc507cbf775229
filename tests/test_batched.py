"""The batched evaluation path: node arrays and point stacks against one
point at a time (geometry, forms, group maps, gauges, extension maps),
domain errors inside a batch, calls per quadrature cell, line cell,
edge, chart-assignment level and validation region, chart assignment
and scaffold anchors against per-cell and per-point references, and the
face error estimate."""

import math

import numpy as np
import pytest

from holotwist import catalog as C, dual as dm, geometry as G, \
    holonomy as H, reconstruct as R
from holotwist.bundle import (
    SAMPLE_BUDGET,
    _tangents,
    gauge_transform,
    identity_gauge,
    random_gauge,
    sample_region,
    validate,
)
from holotwist.dual import Dual
from holotwist.errors import (
    ChartMismatch,
    DomainError,
    HolotwistError,
    MaxDepthExceeded,
)
from holotwist.families import make_bundle, monopole_bundle
from holotwist.formsexpr.forms import (
    LocalForm,
    _cell_nodes,
    expr_form,
    integrate_1form,
    integrate_2form,
)
from holotwist.liecore import (
    BUILTIN_EXTENSIONS,
    log_principal,
    make_extension,
    mat_norm,
    path_ordered_exp,
)
from holotwist.reconstruct import SEG_COLLAR, BasepointScaffold

import pointwise
from charts import cell_grid, certify_interval, certify_rect, make_cover

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


def test_choose_selects_values_and_derivatives_per_node():
    idx = np.array([0, 1, 2, 1, 0])
    arr = np.arange(5.0)
    dual = Dual(10.0 + arr, 20.0 + arr)
    out = dm.choose(idx, [7.0, arr, dual])
    assert isinstance(out, Dual)
    assert np.array_equal(out.val, [7.0, 1.0, 12.0, 3.0, 7.0])
    # constants and node arrays have derivative 0
    assert np.array_equal(out.dot, [0.0, 0.0, 22.0, 0.0, 0.0])
    plain = dm.choose(idx > 0, [7.0, arr])
    assert not isinstance(plain, Dual)
    assert np.array_equal(plain, [7.0, 1.0, 2.0, 3.0, 7.0])


def _recording_params(obj, seen):
    """The loop or cylinder obj, with every parameter its map receives
    appended to seen."""
    def fn(*params):
        seen.extend(np.ravel(np.real(dm.value(x))) for x in params)
        return obj.fn(*params)
    return type(obj)(obj.model, fn, obj.collar_width, check=False)


# label -> the glued map built from its two halves by half(obj, 0 or 1)
_GLUINGS = {
    "staircase": lambda half: G.concat_loops(
        half(C.winding_loop(1, 0), 0), half(C.winding_loop(0, 1), 1)),
    "full-sphere": lambda half: G.compose_cylinders_vertical(
        half(C.cap_sweep_cylinder(math.pi), 0),
        half(C.spike_retraction_cylinder(math.pi), 1)),
    "torus horizontal": lambda half: G.compose_cylinders_horizontal(
        half(C.make_cylinder("torus", "morph"), 0),
        half(C.make_cylinder("torus", "morph"), 1)),
}


@pytest.mark.parametrize("label", sorted(_GLUINGS))
def test_glued_halves_see_parameters_in_the_unit_interval(label):
    """On a batch that straddles the seam, each half of a gluing gets
    only parameters in [0, 1]: the other half's nodes are pinned at the
    seam."""
    seen = ([], [])
    glued = _GLUINGS[label](lambda obj, k: _recording_params(obj, seen[k]))
    if isinstance(glued, G.Loop):
        glued.eval_with_deriv(T_NODES)
    else:
        glued.eval_with_partials(*(a.ravel() for a in np.meshgrid(
            S_NODES, T_NODES, indexing="ij")))
    for params in seen:
        params = np.concatenate(params)
        assert params.size
        assert params.min() >= 0.0 and params.max() <= 1.0


def _parts(out, shape):
    """Values and derivative parts of the components of a map's output
    at nodes of the given shape, as (..., dim) stacks."""
    return [np.stack([np.broadcast_to(np.real(part(c)), shape)
                      for c in out], axis=-1)
            for part in (dm.value, dm.derivative)]


@pytest.mark.parametrize("label", [label for label, _ in CYLINDERS])
def test_one_pass_partials_match_one_direction_passes(label):
    """Seeding s and t as two directions of one Dual gives the point and
    the partials of the passes that seed one parameter each."""
    cyl = dict(CYLINDERS)[label]
    s, t = (a.ravel() for a in np.meshgrid(S_NODES, T_NODES, indexing="ij"))
    p, ds, dt = cyl.eval_with_partials(s, t)
    p_s, ref_s = _parts(cyl.fn(Dual(s, 1.0), t), s.shape)
    p_t, ref_t = _parts(cyl.fn(s, Dual(t, 1.0)), s.shape)
    assert np.array_equal(p, p_s) and np.array_equal(p, p_t)
    assert _close(ds, ref_s)
    assert _close(dt, ref_t)


def test_one_map_call_per_patch():
    for label, cyl in CYLINDERS:
        calls = []

        def fn(s, t, cyl=cyl, calls=calls):
            calls.append(np.shape(dm.value(s)))
            return cyl.fn(s, t)

        counted = G.Cylinder(cyl.model, fn, cyl.collar_width, check=False)
        counted.eval_with_partials(S_NODES, T_NODES[:S_NODES.size])
        counted.eval_with_partials(0.3, 0.6)
        assert calls == [S_NODES.shape, (1,)], label


def _same_bits(a, b):
    a, b = np.broadcast_arrays(np.asarray(a), np.asarray(b))
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _chains():
    """(label, chain, reference, segments): the pair, anchor pair
    (displacement 0), probe and sweep chains of a scaffold on each
    model, each with the component-by-component reference built on the
    same waypoints."""
    made, out = [], []
    build = R._chain_cylinder

    def recording(model, waypoints):
        made.append(pointwise.chain_cylinder(model, waypoints))
        return build(model, waypoints)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(R, "_chain_cylinder", recording)
        for cover in ("sphere-3caps", "torus-4squares", "plane-4"):
            sc = BasepointScaffold.for_cover(make_cover(cover), seed=0)
            i, j = sorted(sc.pair_anchors)[0]
            xij = np.asarray(sc.pair_anchor(i, j))
            y = 0.9 * xij + 0.1 * np.asarray(sc.anchors[j])
            v = np.ones(len(xij)) / len(xij)
            w = np.roll(v, 1) - v
            if cover.startswith("sphere"):
                y = y / np.linalg.norm(y)
                v, w = v - np.dot(v, y) * y, w - np.dot(w, y) * y
            for name, cyl in (
                    ("pair", sc.pair_cylinder(i, j, y)),
                    ("anchor pair", sc.pair_cylinder(i, j, xij)),
                    ("probe", sc.probe_cylinder(i, y, v, 1e-3)),
                    ("sweep", sc.sweep_cylinder(i, y, v, w, 0.02))):
                ref = made.pop(0)
                out.append((f"{cover} {name}", cyl, ref,
                            round(SEG_COLLAR / ref.collar_width)))
    return out


CHAINS = {label: rest for label, *rest in _chains()}


def _same_components(got, want):
    """Whether two component lists have the same kinds and the same bits
    in their values and derivative parts."""
    return len(got) == len(want) and all(
        isinstance(g, Dual) == isinstance(w, Dual)
        and _same_bits(dm.value(g), dm.value(w))
        and _same_bits(dm.derivative(g), dm.derivative(w))
        for g, w in zip(got, want))


@pytest.mark.parametrize("label", sorted(CHAINS))
def test_chain_kernel_matches_per_component_chain(label):
    """The stacked chain kernel against the chain evaluated component by
    component, as bytes: eval, one-pass partials, plain, one-direction
    and two-direction seeds on the joint grid and on batches inside one
    segment (the one-cell path of pointwise.segment_path), one node, and
    both boundary loops."""
    cyl, ref, n = CHAINS[label]
    s, t = (a.ravel() for a in np.meshgrid(S_NODES, T_NODES, indexing="ij"))
    assert _same_bits(cyl.eval(s, t), ref.eval(s, t))
    for got, want in zip(cyl.eval_with_partials(s, t),
                         ref.eval_with_partials(s, t)):
        assert _same_bits(got, want)
    for got, want in zip(cyl.eval_with_partials(0.3, 0.6),
                         ref.eval_with_partials(0.3, 0.6)):
        assert _same_bits(got, want)
    batches = [(s, t)] + [
        (np.repeat(S_NODES, 7),
         np.tile(np.linspace(k / n, (k + 1) / n, 9)[1:-1], S_NODES.size))
        for k in range(n)]
    unit = np.eye(2)[:, :, None]
    for sb, tb in batches:
        for args in ((sb, tb), (Dual(sb, 1.0), tb), (sb, Dual(tb, 1.0)),
                     (Dual(sb, 1.0), Dual(tb, 1.0)),
                     (Dual(sb, unit[0]), Dual(tb, unit[1]))):
            assert _same_components(cyl.fn(*args), ref.fn(*args))
    for name in ("bottom_loop", "top_loop"):
        got, want = getattr(cyl, name)(), getattr(ref, name)()
        assert _same_bits(got.eval(T_NODES), want.eval(T_NODES))
        for g, w in zip(got.eval_with_deriv(T_NODES),
                        want.eval_with_deriv(T_NODES)):
            assert _same_bits(g, w)


# The cap profile's segment ends as the per-component reference takes
# them: (theta / alpha, phi / 2 pi) as nested tuples of integers.
_CAP_ENDS = (((0, 0), (1, 0)), ((1, 0), (1, 1)), ((1, 0), (0, 0)))


def _reference_cap_profile(alpha, t):
    depth, turn = pointwise.segment_path(t, _CAP_ENDS, C.PIECE_COLLAR)
    return alpha * depth, 2.0 * math.pi * turn


def test_cap_profile_table_matches_per_component_segments():
    """catalog._cap_profile, which reads its segment ends from a constant
    table, against the ends gathered component by component, as bytes:
    plain, one-direction and two-direction seeds on the joint grid (the
    breakpoints 0, 1/3, 2/3 and 1 among its nodes), on batches inside one
    segment (the one-cell path of pointwise.segment_path), each with its
    left breakpoint, and at one node; alpha a constant, or a Dual in s
    as cap-sweep passes it."""
    assert C._CAP_SEGMENTS.tolist() == [[list(end) for end in seg]
                                        for seg in _CAP_ENDS]
    batches = [T_NODES] + [np.linspace(k / 3, (k + 1) / 3, 9)[:-1]
                           for k in range(3)]
    batches += [np.linspace(2 / 3, 1.0, 9)] + [np.array([x]) for x in
                                                (0.0, 1 / 3, 0.5, 1.0)]
    unit = np.eye(2)[:, :, None]
    for t in batches:
        s = np.linspace(0.05, 0.95, t.size)
        for ds, dt in ((None, None), (1.0, None), (None, 1.0), (1.0, 1.0),
                       (unit[0], unit[1])):
            tt = t if dt is None else Dual(t, dt)
            for alpha in (2.0, 2.0 * C._w(s if ds is None else Dual(s, ds))):
                assert _same_components(
                    C._cap_profile(alpha, tt),
                    _reference_cap_profile(alpha, tt)), (t, ds, dt)


_ARR = np.linspace(0.3, 0.8, 7)
# name -> f(x, y) on two Duals with values in (0, 1)
_DUAL_OPS = {
    "add": lambda x, y: x + y, "add const": lambda x, y: x + 2.0,
    "radd array": lambda x, y: _ARR + x, "neg": lambda x, y: -x,
    "sub": lambda x, y: x - y, "sub const": lambda x, y: x - 2.0,
    "rsub": lambda x, y: 2.0 - x, "mul": lambda x, y: x * y,
    "mul const": lambda x, y: x * 3.0, "rmul array": lambda x, y: _ARR * x,
    "div": lambda x, y: x / y, "div const": lambda x, y: x / 3.0,
    "rdiv": lambda x, y: 3.0 / x, "pow int": lambda x, y: x ** 3,
    "pow 0": lambda x, y: x ** 0, "pow float": lambda x, y: x ** 2.5,
    "pow dual": lambda x, y: x ** y, "rpow": lambda x, y: 2.0 ** x,
    "rpow negative": lambda x, y: (-2.0) ** x,
    "sin": lambda x, y: dm.sin(x), "cos": lambda x, y: dm.cos(x),
    "exp": lambda x, y: dm.exp(x), "log": lambda x, y: dm.log(x),
    "sqrt": lambda x, y: dm.sqrt(x), "atan2": lambda x, y: dm.atan2(x, y),
    "atan2 const": lambda x, y: dm.atan2(0.4, x),
    "choose": lambda x, y: dm.choose(np.arange(7) % 3, [x, 2.0, y]),
    "smooth_step": lambda x, y: dm.smooth_step(2.0 * x - 0.5),
}


@pytest.mark.parametrize("name", sorted(_DUAL_OPS))
def test_dual_ops_act_on_each_direction_of_a_stack(name):
    """On a derivative stack of two directions, every Dual operation and
    function gives row by row the bits of the one-direction Dual."""
    op = _DUAL_OPS[name]
    rng = np.random.default_rng(3)
    xv, yv = rng.uniform(0.05, 0.95, (2, 7))
    xd, yd = rng.normal(size=(2, 2, 7))
    out = op(Dual(xv, xd), Dual(yv, yd))
    for k in range(2):
        row = op(Dual(xv, xd[k]), Dual(yv, yd[k]))
        assert _same_bits(out.val, row.val)
        assert _same_bits(np.asarray(out.dot)[k], row.dot)


@pytest.mark.parametrize("imag", [0.0, 1.0])
@pytest.mark.parametrize("directions", [(), (2,)])
def test_dual_power_with_an_array_exponent_matches_scalar_powers(
        imag, directions):
    """Dual ** (node array) gives node by node the bits of Dual ** (that
    node's exponent); a zero exponent gives value 1 and derivative 0."""
    rng = np.random.default_rng(5)
    p = np.concatenate([[0.0, 1.0, 2.0, -1.0, 3.0], rng.uniform(-3, 3, 27)])
    v = rng.uniform(0.05, 2.0, p.size) + imag * 1j * rng.normal(size=p.size)
    d = rng.normal(size=directions + p.shape)
    out = Dual(v, d) ** p
    for k, pk in enumerate(p):
        ref = Dual(v, d) ** pk
        assert _same_bits(out.val[k], ref.val[k])
        if pk == 0:
            assert not np.any(out.dot[..., k])
        else:
            assert _same_bits(out.dot[..., k], ref.dot[..., k])


def _composed_step(u):
    """The step composed from Dual operations: a / (a + b) with
    a = exp(-1/u) on the nodes u > 0 and 0 elsewhere, b likewise at
    1 - u."""
    def bump(u):
        pos = dm.value(u) > 0.0
        return dm.choose(pos, [0.0 * u, dm.exp(-1.0 / dm.choose(pos,
                                                                [1.0, u]))])
    a, b = bump(u), bump(1.0 - u)
    return a / (a + b)


def test_smooth_step_matches_the_composed_step():
    edge = np.geomspace(1e-150, 0.05, 4001)
    u = np.unique(np.concatenate([np.linspace(-0.25, 1.25, 30001),
                                  edge, 1.0 - edge, -edge, 1.0 + edge]))
    out, ref = dm.smooth_step(Dual(u, 1.0)), _composed_step(Dual(u, 1.0))
    assert np.array_equal(out.val, ref.val)
    assert np.array_equal(dm.smooth_step(u), ref.val)
    # relative to max(1, |entry|): near u = 1 the quotient rule of the
    # composed step cancels, so there its small slopes lose their digits
    assert _close(out.dot, ref.dot)


def test_smooth_step_is_flat_where_its_exponentials_underflow():
    """exp(-1/u) underflows to 0 long before 1/u^2 overflows: the step
    is exactly 0 or 1 there with derivative 0, never NaN."""
    x = np.array([-1.0, -0.0, 0.0, 5e-324, 1e-300, 1e-160, 1e-3, 0.5,
                  1.0 - 1e-16, 1.0, 2.0])
    out = dm.smooth_step(Dual(x, np.stack([np.ones_like(x), -2.0 * x])))
    assert np.array_equal(out.val[:7], np.zeros(7))
    assert np.array_equal(out.val[8:], np.ones(3))
    assert out.val[7] == 0.5
    flat = np.arange(x.size) != 7
    assert np.array_equal(out.dot[:, flat], np.zeros((2, flat.sum())))
    assert np.allclose(out.dot[:, 7], [2.0, -2.0], rtol=1e-15, atol=0.0)


def _counting(fn, calls):
    def wrapped(*args):
        calls.append(np.shape(args[0]))
        return fn(*args)
    return wrapped


def test_one_patch_and_form_call_per_cell():
    patch_calls, form_calls = [], []
    area = LocalForm(2, 1, _counting(
        lambda p, v, w: np.einsum("...i,...i->...", p, np.cross(v, w))
        [..., None, None] + 0j, form_calls))
    patch = C.cap_sweep_cylinder(math.pi).eval_with_partials
    val = integrate_2form(area, _counting(patch, patch_calls), order=7,
                          cells=(2, 3)).entries
    assert patch_calls == [(49,)] * 6
    assert form_calls == [(49, 3)] * 6
    cells = sum(integrate_2form(area, patch, (s0, s0 + 0.5),
                                (t0, t0 + 1.0 / 3.0), order=7).entries
                for s0 in (0.0, 0.5) for t0 in (0.0, 1.0 / 3.0, 2.0 / 3.0))
    assert np.allclose(val, cells, rtol=1e-13, atol=0.0)


# Cells straddling the joints at 1/3, 1/2 and 2/3, the default collar
# edges, the chain collar edge and the ends.
_C, _K = G.DEFAULT_COLLAR, SEG_COLLAR / 5.0
_BATCH_CELLS = ((0.0, 0.1, 0.95, 1.0), (0.3, 0.4, 0.45, 0.55),
                (0.45, 0.7, 0.6, 0.7), (0.5 * _C, 1.5 * _C, 1.0 - 1.5 * _C,
                                        1.0 - 0.5 * _C),
                (0.5 * _K, 1.5 * _K, 0.5 * _K, 1.5 * _K),
                (0.9, 1.0, 0.0, 0.05), (0.25, 0.75, 0.0, 1.0))


def _reference_cell_nodes(s0, s1, t0, t1, order):
    """The cell nodes from the one-dimensional rules by repeat, tile and
    outer, as the package built them before its per-order tables."""
    x, w = np.polynomial.legendre.leggauss(order)

    def gauss(a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        return mid + half * x, half * w

    ss, sw = gauss(s0, s1)
    ts, tw = gauss(t0, t1)
    return np.repeat(ss, order), np.tile(ts, order), np.outer(sw, tw).ravel()


@pytest.mark.parametrize("cell", [
    (0.0, 1.0, 0.0, 1.0), (0.25, 0.3125, 0.7, 0.71), (1.0, 0.0, 0.6, 0.2),
    (0.3, 0.3 + 1e-12, 0.5 - 3e-15, 0.5), (-4e6, 7e6, 123.25, -9e5),
    *_BATCH_CELLS])
def test_cell_nodes_from_the_unit_table_match_repeat_tile_outer(cell):
    """_cell_nodes gives the bytes of the repeat/tile/outer formula at
    every order from 1 to 20, on reversed, tiny and large cells; and
    linspace of one cell is exactly its two ends, which integrate_2form
    uses without calling it."""
    for order in range(1, 21):
        got = _cell_nodes(*cell, order)
        want = _reference_cell_nodes(*cell, order)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes(), (order, cell)
    s0, s1, t0, t1 = cell
    assert tuple(np.linspace(s0, s1, 2)) == (s0, s1)
    assert tuple(np.linspace(t0, t1, 2)) == (t0, t1)


@pytest.mark.parametrize("label", [label for label, _ in CYLINDERS])
def test_batched_cells_match_separate_calls(label):
    """The patch on the Gauss nodes of several cells at two orders,
    concatenated, gives the stacks of one call per (cell, order), bit
    for bit, the sign of a zero partial included.  The face quadrature
    fetches its cells in such batches."""
    cyl = dict(CYLINDERS)[label]
    nodes = [_cell_nodes(*cell, order)[:2]
             for cell in _BATCH_CELLS for order in (5, 10)]
    batch = cyl.eval_with_partials(*(np.concatenate(x) for x in zip(*nodes)))
    start = 0
    for s, t in nodes:
        rows = slice(start, start + s.size)
        for whole, part in zip(batch, cyl.eval_with_partials(s, t)):
            assert _same_bits(whole[rows], part), \
                (s[0], t[0], s.size)
        start += s.size


def _reference_face(form, patch, s0, s1, t0, t1, order, tol, depth, splits):
    """The adaptive face recursion with one patch call per (cell, order),
    counting its split cells."""
    lo = H.integrate_2form(form, patch, (s0, s1), (t0, t1),
                           order=order).entries
    hi = H.integrate_2form(form, patch, (s0, s1), (t0, t1),
                           order=order + 5).entries
    gap = np.linalg.norm(hi - lo)
    if depth == 0 or gap <= tol:
        return
    splits.append((s0, s1, t0, t1))
    sm, tm = 0.5 * (s0 + s1), 0.5 * (t0 + t1)
    for (a, b), (c, d) in (((s0, sm), (t0, tm)), ((s0, sm), (tm, t1)),
                           ((sm, s1), (t0, tm)), ((sm, s1), (tm, t1))):
        _reference_face(form, patch, a, b, c, d, order, tol / 4.0,
                        depth - 1, splits)


def _probe_chain():
    sc = BasepointScaffold.for_cover(G.make_cover("sphere-3caps"), seed=0)
    y = np.array([0.3, 0.2, 0.9]) / np.linalg.norm([0.3, 0.2, 0.9])
    v = np.cross(y, [0.0, 0.0, 1.0])
    return sc.probe_cylinder(0, y, v / np.linalg.norm(v), 1e-3)


_ORACLE = {"order": 5, "face_tol": 1e-6, "max_split": 2}
# label -> (bundle, cylinder, numerics)
_FACE_CASES = {
    "monopole cap-sweep oracle": lambda: (
        monopole_bundle(1), C.cap_sweep_cylinder(2.0), _ORACLE),
    "sphere-pu2 cap-sweep": lambda: (
        make_bundle("sphere-pu2"), C.cap_sweep_cylinder(2.0), {}),
    "torus-flat morph": lambda: (
        make_bundle("torus-flat"), C.make_cylinder("torus", "morph"), {}),
    "monopole full-sphere cheap": lambda: (
        monopole_bundle(1), C.full_sphere_cylinder(),
        {"order": 4, "face_tol": 1e-4, "max_split": 2}),
    "monopole probe chain oracle": lambda: (
        monopole_bundle(1), _probe_chain(), _ORACLE),
}


@pytest.mark.parametrize("label", sorted(_FACE_CASES))
def test_face_cells_are_fetched_per_row_and_per_split(label, monkeypatch):
    """epsilon makes the integrate_2form calls of the recursion with one
    patch call per (cell, order), with the same values, bit for bit; its
    cylinder calls are one per grid row, one per split cell and one for
    all edges, none larger than a row or a split at both orders or the
    Gauss nodes of every edge."""
    bundle, cyl, numerics = _FACE_CASES[label]()
    order = numerics.get("order", 8)
    rect = H._subdivisions(bundle, cyl)[2]
    raw = cyl.eval_with_partials
    calls, sizes = [], []

    def recording(form, patch, s_range, t_range, order):
        val = integrate_2form(form, patch, s_range, t_range, order=order)
        calls.append((tuple(s_range), tuple(t_range), order,
                      val.entries.tobytes()))
        return val

    def patch(s, t):
        sizes.append(np.broadcast(s, t).size)
        return raw(s, t)

    monkeypatch.setattr(H, "integrate_2form", recording)
    monkeypatch.setattr(cyl, "eval_with_partials", patch)
    res = H.epsilon(bundle, cyl, rect=rect, **numerics)
    got = calls[:]
    calls.clear()

    splits = []
    rows, cols = rect.shape
    sb, tb = rect.s_breaks, rect.t_breaks
    for r in range(rows):
        for c in range(cols):
            _reference_face(bundle.F[rect.charts[r][c]], raw, sb[r],
                            sb[r + 1], tb[c], tb[c + 1], order,
                            numerics.get("face_tol", 2e-9),
                            numerics.get("max_split", 6), splits)
    assert got == calls
    edges = sum("edge" in label for label, _ in res.cells)
    assert len(sizes) == rows + len(splits) + (edges > 0)
    assert max(sizes) <= max(max(cols, 4) * (order ** 2 + (order + 5) ** 2),
                             edges * order * numerics.get("edge_cells", 4))
    if label == "monopole cap-sweep oracle":
        assert splits


def _recording_face_calls(monkeypatch):
    """integrate_2form, patched to record (form, s_range, t_range,
    order) per call."""
    calls = []

    def recording(form, patch, s_range, t_range, order):
        calls.append((form, *s_range, *t_range, order))
        return integrate_2form(form, patch, s_range, t_range, order=order)

    monkeypatch.setattr(H, "integrate_2form", recording)
    return calls


# refined-run integrate_2form calls with and without the coarse table
# (the cheap full-sphere coarse run splits no cell, so its table holds
# no cell of the refined grid)
_REFINED_CALLS = {"monopole cap-sweep oracle": (528, 256),
                  "sphere-pu2 cap-sweep": (560, 144),
                  "torus-flat morph": (336, 16),
                  "monopole full-sphere cheap": (1920, 1920),
                  "monopole probe chain oracle": (56, 32)}


@pytest.mark.parametrize("label", sorted(_FACE_CASES))
def test_refined_run_integrates_only_cells_the_coarse_run_never_saw(
        label, monkeypatch):
    """epsilon on refine_rect(rect) with the coarse run's table of face
    integrals gives the bytes of a run with a fresh table, and makes the
    fresh run's integrate_2form calls less those the table holds, in the
    same order."""
    bundle, cyl, numerics = _FACE_CASES[label]()
    rect = H._subdivisions(bundle, cyl)[2]
    fine = G.refine_rect(rect)
    faces = {}
    H.epsilon(bundle, cyl, rect=rect, faces=faces, **numerics)
    seen = set(faces)
    calls = _recording_face_calls(monkeypatch)
    fresh = H.epsilon(bundle, cyl, rect=fine, **numerics)
    order = numerics.get("order", 8)
    want = [c for c in calls if (cyl, *c[:5], order) not in seen]
    fresh_calls = len(calls)
    calls.clear()
    shared = H.epsilon(bundle, cyl, rect=fine, faces=faces, **numerics)
    assert calls == want
    assert (fresh_calls, len(calls)) == _REFINED_CALLS[label]
    assert shared.value.entries.tobytes() == fresh.value.entries.tobytes()
    assert [(k, v.tobytes()) for k, v in shared.cells] \
        == [(k, v.tobytes()) for k, v in fresh.cells]
    assert shared.error_estimate == fresh.error_estimate


def test_second_trace_run_integrates_no_face(monkeypatch):
    """trace's second run, at twice the steps on the same grid, reads
    every face integral from the first run's table."""
    bundle, cyl = monopole_bundle(1), C.cap_sweep_cylinder(2.0)
    quad = {"order": 4, "edge_cells": 1, "face_tol": 1e-4}
    faces = {}
    H.kapustin_trace(bundle, cyl, steps=32, faces=faces, **quad)
    calls = _recording_face_calls(monkeypatch)
    shared = H.kapustin_trace(bundle, cyl, steps=64, faces=faces, **quad)
    assert calls == []
    assert shared == H.kapustin_trace(bundle, cyl, steps=64, **quad)
    assert calls


def test_one_segment_call_per_edge_and_one_field_call_per_path():
    seg_calls, form_calls = [], []
    form = LocalForm(1, 1, _counting(
        lambda p, v: (p[..., 0] * v[..., 1])[..., None, None] + 0j,
        form_calls))

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
    H.hol0(bundle, loop, sub, steps=64)
    assert len(calls) == 1 < len(sub.cells)
    assert all(len(shape) == 1 and shape[0] % 2 == 0 for shape in calls)


# The line holonomy one loop call per cell and one for the cell ends:
# the reference that the walk over the jets of one call matches bit for
# bit.

def _reference_line_holonomy(bundle, loop, tag, sub, steps):
    """(total, cells, error) of hol0 (tag "G") or hol1 (tag "E")."""
    forms, trans = (bundle.D, bundle.g) if tag == "G" else (bundle.A, bundle.e)
    dim = bundle.extension.families[tag].dim

    def product(n):
        total = eye = np.eye(dim, dtype=complex)
        cells = []
        ends = loop.eval(np.array(sub.breakpoints[1:]))
        for k, ((a, b), chart) in enumerate(zip(sub.cells, sub.charts)):
            field = forms[chart]
            u = path_ordered_exp(
                lambda ts: field(*loop.eval_with_deriv(ts)), a, b,
                steps=max(4, int(round(n * (b - a)))),
                tag=tag.lower()).entries
            total = total @ u
            cells.append((f"cell[{k}] chart {chart}", u))
            nxt = sub.charts[(k + 1) % len(sub.charts)]
            tmat = eye
            if chart != nxt:
                tmat = trans[(chart, nxt)].value(ends[k]).entries
                cells.append((f"transition {chart}->{nxt}", tmat))
            total = total @ tmat
        return total, cells

    total, cells = product(steps)
    return total, cells, mat_norm(total - product(max(8, steps // 2))[0])


_LINE_BUNDLES = {"sphere": lambda: monopole_bundle(1),
                 "torus": lambda: make_bundle("torus-flat"),
                 "plane": lambda: make_bundle("trivial",
                                              {"model": "plane"})}


@pytest.mark.parametrize("label", [label for label, _ in LOOPS])
def test_line_holonomy_matches_per_cell_reference(label):
    """hol0 and hol1, step-halving error included, walk the jets of one
    loop call with the bits of one call per cell and one for the ends."""
    loop = dict(LOOPS)[label]
    bundle = _LINE_BUNDLES[loop.model.kind]()
    sub = G.assign_charts_interval(loop, bundle.cover)
    for tag, hol in (("G", H.hol0), ("E", H.hol1)):
        res = hol(bundle, loop, sub, steps=40)
        total, cells, err = _reference_line_holonomy(bundle, loop, tag, sub,
                                                     40)
        assert _same_bits(res.value.entries, total), tag
        assert [k for k, _ in res.cells] == [k for k, _ in cells]
        assert all(_same_bits(a, b) for (_, a), (_, b) in zip(res.cells,
                                                              cells))
        assert res.error_estimate == err


@pytest.mark.parametrize("label", [label for label, _ in CYLINDERS])
def test_boundary_jets_in_one_call_match_boundary_loops(label):
    """One call at s = 0 and s = 1 gives the bits of the bottom and top
    loops' own jets (full-sphere, a vertical composition, takes _glued's
    mixed path)."""
    cyl = dict(CYLINDERS)[label]
    n = T_NODES.size
    points, vels = cyl.eval_with_t_partial(np.repeat([0.0, 1.0], n),
                                           np.tile(T_NODES, 2))
    for rows, loop in ((slice(0, n), cyl.bottom_loop()),
                       (slice(n, None), cyl.top_loop())):
        p, v = loop.eval_with_deriv(T_NODES)
        assert _same_bits(points[rows], p) and _same_bits(vels[rows], v)


_FUNCTOR_CASES = {
    "monopole cap-sweep": lambda: (monopole_bundle(1),
                                   C.cap_sweep_cylinder(2.0)),
    "monopole full-sphere": lambda: (monopole_bundle(1),
                                     C.full_sphere_cylinder()),
    "torus-flat morph": lambda: (make_bundle("torus-flat"),
                                 C.make_cylinder("torus", "morph")),
    "monopole probe chain": lambda: (monopole_bundle(1), _probe_chain()),
}


@pytest.mark.parametrize("label", sorted(_FUNCTOR_CASES))
def test_functor_boundary_holonomies_match_hol1(label):
    bundle, cyl = _FUNCTOR_CASES[label]()
    res = H.holonomy_functor(bundle, cyl, **R.ORACLE_NUMERICS)
    bot, top, _ = res.subdivision
    cells = dict(res.cells)
    for key, loop, sub in (("H1(bottom)", cyl.bottom_loop(), bot),
                           ("H1(top)", cyl.top_loop(), top)):
        want = H.hol1(bundle, loop, sub,
                      R.ORACLE_NUMERICS["steps"]).value.entries
        assert _same_bits(cells[key], want), key
    assert _same_bits(res.value.rep_source.entries, cells["H1(bottom)"])


@pytest.mark.parametrize("name", ["full-sphere", "cap-sweep"])
def test_vertex_logs_match_per_vertex_log_principal(name, monkeypatch):
    """The stacked vertex logarithms of a 1x1 kernel: every vertex term
    has the bits of log_principal called per vertex."""
    bundle = monopole_bundle(1)
    assert bundle.extension.H.dim == 1
    cyl = C.full_sphere_cylinder() if name == "full-sphere" \
        else C.cap_sweep_cylinder(2.0)
    numerics = {"order": 4, "edge_cells": 1, "face_tol": 1e-3,
                "max_split": 1}

    def vertices():
        res = H.epsilon(bundle, cyl, **numerics)
        return {k: v.tobytes() for k, v in res.cells
                if k.startswith("vertex")}

    got = vertices()
    monkeypatch.setattr(H, "_log_stack", lambda a: np.array(
        [log_principal(m) for m in a]))
    assert got == vertices() and len(got) > 1


def _recording(form, calls):
    """The form with every evaluation's point-stack shape recorded."""
    return LocalForm(form.degree, form.dim, _counting(form._evalfn, calls),
                     form.value_tag, form.d)


def test_one_form_call_per_line_cell_and_per_edge():
    bundle = monopole_bundle(1)
    loop = C.latitude_loop(1.0)
    sub = G.assign_charts_interval(loop, bundle.cover)
    calls = []
    bundle.D = {i: _recording(f, calls) for i, f in bundle.D.items()}
    H.hol0(bundle, loop, sub, steps=64)
    # once per cell at 64 steps, then once per cell at the step-halving
    # check's 32
    assert len(calls) == 2 * len(sub.cells) > 2
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


def test_edge_terms_match_per_point_gauss_integrals():
    """Each edge term equals a Gauss integral, one point at a time, of
    A_{north,south} along +t on its horizontal edge, or of A_{west,east}
    along +s on its vertical edge.  The charts are laid out so that both
    kinds of edge meet both orientations of a chart pair."""
    bundle = monopole_bundle(1)
    cyl = C.cap_sweep_cylinder(2.0)
    rect = G.RectSubdivision((0.0, 0.3, 0.6, 1.0), (0.0, 0.2, 0.5, 0.7, 1.0),
                             ((0, 1, 2, 0), (1, 0, 2, 2), (2, 2, 1, 0)), 5)
    order, cells = 4, 2
    res = H.epsilon(bundle, cyl, rect=rect, order=order, edge_cells=cells)
    edges = {label: v for label, v in res.cells if "edge" in label}
    x, w = np.polynomial.legendre.leggauss(order)

    def gauss(form, fixed, u0, u1, axis):
        total = np.zeros((form.dim, form.dim), dtype=complex)
        ends = np.linspace(u0, u1, cells + 1)
        for a, b in zip(ends[:-1], ends[1:]):
            for xk, wk in zip(x, w):
                u = 0.5 * (a + b) + 0.5 * (b - a) * xk
                p, ds, dt = cyl.eval_with_partials(
                    *((fixed, u) if axis else (u, fixed)))
                tangent = dt if axis else ds
                total += 0.5 * (b - a) * wk * form(p[None], tangent[None])[0]
        return total

    ch, sb, tb = rect.charts, rect.s_breaks, rect.t_breaks
    rows, cols = rect.shape
    want = {}
    for r in range(1, rows):
        for c in range(cols):
            north, south = ch[r][c], ch[r - 1][c]
            if north != south:
                want[f"hedge[{r},{c}] {north},{south}"] = gauss(
                    bundle.Aij[(north, south)], sb[r], tb[c], tb[c + 1], 1)
    for c in range(1, cols):
        for r in range(rows):
            west, east = ch[r][c - 1], ch[r][c]
            if west != east:
                want[f"vedge[{r},{c}] {west},{east}"] = gauss(
                    bundle.Aij[(west, east)], tb[c], sb[r], sb[r + 1], 0)
    assert list(edges) == list(want)
    for kind in ("hedge", "vedge"):
        pairs = [tuple(map(int, label.split()[1].split(",")))
                 for label in want if label.startswith(kind)]
        assert {i < j for i, j in pairs} == {True, False}
    for label, value in want.items():
        assert np.allclose(edges[label], value, rtol=1e-13, atol=1e-14), \
            label
    assert all(np.abs(v).max() > 1e-3 for v in edges.values())


def _per_edge_terms(bundle, cyl, rect, order, edge_cells):
    """The edge terms of epsilon with one cylinder call per edge, the
    fixed parameter passed as a scalar, keyed by their cell labels."""
    ch, sb, tb = rect.charts, rect.s_breaks, rect.t_breaks
    rows, cols = rect.shape
    edges = [(f"hedge[{r},{c}]", ch[r][c], ch[r - 1][c], 1, sb[r],
              tb[c], tb[c + 1]) for r in range(1, rows) for c in range(cols)]
    edges += [(f"vedge[{r},{c}]", ch[r][c - 1], ch[r][c], 0, tb[c],
               sb[r], sb[r + 1]) for c in range(1, cols) for r in range(rows)]
    out = {}
    for label, i, j, axis, fixed, u0, u1 in edges:
        if i == j:
            continue

        def seg(us, axis=axis, fixed=fixed):
            p, *partials = cyl.eval_with_partials(
                *((fixed, us) if axis else (us, fixed)))
            return p, partials[axis]

        out[f"{label} {i},{j}"] = integrate_1form(
            bundle.Aij[(i, j)], seg, u0, u1, order=order,
            cells=edge_cells).entries
    return out


@pytest.mark.parametrize("label", sorted(_FACE_CASES))
@pytest.mark.parametrize("edge_cells", [1, 3])
def test_batched_edge_terms_match_per_edge_calls_bit_for_bit(label,
                                                             edge_cells):
    """Every edge term of epsilon, whose cylinder call covers all edges,
    has the bytes of the term from a cylinder call of its own edge."""
    bundle, cyl, numerics = _FACE_CASES[label]()
    numerics = {**numerics, "edge_cells": edge_cells}
    rect = H._subdivisions(bundle, cyl)[2]
    res = H.epsilon(bundle, cyl, rect=rect, **numerics)
    got = {k: v.tobytes() for k, v in res.cells if "edge" in k}
    want = _per_edge_terms(bundle, cyl, rect, numerics.get("order", 8),
                           edge_cells)
    assert got == {k: v.tobytes() for k, v in want.items()}
    # the probe chain's grid is one cell
    assert bool(got) == (label != "monopole probe chain oracle")


def test_one_evaluation_per_chart_assignment_level():
    """Chart assignment samples every cell of a refinement level in one
    call; the certify_* re-checks stay at one call per cell."""
    cover = G.make_cover("sphere-3caps")
    loop = C.latitude_loop(1.0)
    calls = []
    loop.eval = _counting(loop.eval, calls)
    sub = G.assign_charts_interval(loop, cover, samples_per_cell=17)
    levels = 1 + max(round(-math.log2(b - a)) for a, b in sub.cells)
    assert len(calls) == levels == 6
    # a binary split tree: 2 * cells - 1 cells sampled in all
    assert sum(n for n, in calls) == 17 * (2 * len(sub.cells) - 1)
    calls.clear()
    certify_interval(loop, cover, sub)
    assert calls == [(68,)] * len(sub.cells)

    cyl = C.make_cylinder("sphere", "constant", {"loop": "latitude"})
    calls = []
    cyl.eval = _counting(cyl.eval, calls)
    bottom = G.assign_charts_interval(cyl.bottom_loop(), cover)
    rect = G.assign_charts_rect(cyl, cover, samples_per_cell=5,
                                bottom=bottom, top=bottom)
    assert rect.shape[0] == 1 and calls == [(25 * rect.shape[1],)]
    calls.clear()
    certify_rect(cyl, cover, rect)
    assert calls == [(400,)] * rect.shape[1]


# Chart assignment one cell at a time and the anchor search one point
# at a time: the references that the batched ones match bit for bit.

def _fitting(cover, pts):
    """Indices of the charts whose margin-shrunk region holds every
    point."""
    pts = cover.model.reduce(pts)
    return [k for k, chart in enumerate(cover.charts)
            if chart.contains(pts, with_margin=True).all()]


def _reference_interval(loop, cover, max_depth=14, samples_per_cell=17):
    """Greedy bisection, depth first (right half first), one loop call
    per cell."""
    cells, done = [(0.0, 1.0, 0)], []
    while cells:
        a, b, depth = cells.pop()
        fits = _fitting(cover, loop.eval(np.linspace(a, b, samples_per_cell)))
        if fits:
            done.append((a, fits[0]))
            continue
        if depth >= max_depth:
            raise MaxDepthExceeded(
                f"interval [{a},{b}] fits no chart at depth {depth}")
        m = 0.5 * (a + b)
        cells += [(a, m, depth + 1), (m, b, depth + 1)]
    done.sort()
    return G.IntervalSubdivision(tuple([a for a, _ in done] + [1.0]),
                                 tuple(c for _, c in done), samples_per_cell)


def _chart_at(sub, a, b):
    """Chart of the boundary cell containing [a,b]; None if straddling."""
    for (x, y), chart in zip(sub.cells, sub.charts):
        if a >= x - 1e-12 and b <= y + 1e-12:
            return chart
    return None


def _reference_rect(cylinder, cover, max_depth=12, samples_per_cell=5,
                    bottom=None, top=None):
    """Grid refinement, one cylinder call per cell."""
    t_set = {0.0, 1.0}
    for sub in (bottom, top):
        if sub is not None:
            t_set.update(sub.breakpoints)
    s_breaks, t_breaks = [0.0, 1.0], sorted(t_set)
    for depth in range(max_depth + 1):
        ns, nt = len(s_breaks) - 1, len(t_breaks) - 1
        charts = [[None] * nt for _ in range(ns)]
        bad = []
        for i in range(ns):
            for j in range(nt):
                t0, t1 = t_breaks[j], t_breaks[j + 1]
                fits = _fitting(cover, cylinder.eval(*cell_grid(
                    s_breaks[i], s_breaks[i + 1], t0, t1, samples_per_cell)))
                forced = None
                if i == 0 and bottom is not None:
                    forced = _chart_at(bottom, t0, t1)
                elif i == ns - 1 and top is not None:
                    forced = _chart_at(top, t0, t1)
                if forced is not None:
                    if forced in fits:
                        charts[i][j] = forced
                    else:
                        bad.append((i, j, "s"))
                elif fits:
                    charts[i][j] = fits[0]
                else:
                    bad.append((i, j, "st"))
        if not bad:
            return G.RectSubdivision(tuple(s_breaks), tuple(t_breaks),
                                     tuple(map(tuple, charts)),
                                     samples_per_cell)
        if depth >= max_depth:
            raise MaxDepthExceeded(
                f"{len(bad)} rect cells fit no chart at depth {depth}")
        new_s, new_t = set(s_breaks), set(t_breaks)
        for i, j, mode in bad:
            new_s.add(0.5 * (s_breaks[i] + s_breaks[i + 1]))
            if mode == "st":
                new_t.add(0.5 * (t_breaks[j] + t_breaks[j + 1]))
        s_breaks, t_breaks = sorted(new_s), sorted(new_t)


def _reference_central_point(cover, indices, rng):
    """The anchor search point by point and ray by ray."""
    pts = sample_region(cover, indices, rng, 64)
    charts = [cover.charts[k] for k in indices]
    model = cover.model
    lengths = R._RAY_LENGTHS

    def depth(p):
        best = np.inf
        for a in range(8):
            ang = 2.0 * math.pi * a / 8.0
            if model.kind == "sphere":
                t1 = np.cross(p, [0.1, 0.25, 0.96])
                t1 /= np.linalg.norm(t1)
                t2 = np.cross(p, t1)
                ray = math.cos(ang) * t1 + math.sin(ang) * t2
            else:
                ray = np.array([math.cos(ang), math.sin(ang)])
            q = p + lengths[:, None] * ray
            if model.kind == "sphere":
                q = q / np.linalg.norm(q, axis=-1, keepdims=True)
            inside = np.all([c.contains(model.reduce(q), with_margin=True)
                             for c in charts], axis=0)
            best = min(best, lengths[np.argmin(inside)]
                       if not inside.all() else lengths[-1])
        return best

    return max(pts, key=depth)


def _outcome(fn, *args, **kwargs):
    """fn's result, or the type and message of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except HolotwistError as exc:
        return type(exc), str(exc)


_COVERS = {"sphere": ("sphere-3caps", "sphere-2caps-band"),
           "torus": ("torus-4squares",), "plane": ("plane-1", "plane-4")}
_ASSIGN_LOOPS = dict(LOOPS)
_ASSIGN_LOOPS.update(
    {f"sphere latitude {th:.1f}": C.latitude_loop(th)
     for th in np.linspace(0.3, 2.9, 14)})
_ASSIGN_LOOPS.update(
    {f"torus {name} {p} {q}": C.make_loop("torus", name, {"p": p, "q": q})
     for name in ("winding", "staircase")
     for p, q in ((1, 0), (0, 1), (1, 1), (2, 1), (-1, 2))})
# The thin fold of latitude pi/2 fails like that of latitude 1.0, which
# _ASSIGN_FAILURES holds.
_ASSIGN_CYLINDERS = {label: cyl for label, cyl in CYLINDERS
                     if label != "sphere thin-fold latitude"}
_ASSIGN_CYLINDERS.update(
    {f"sphere constant latitude {th}": C.make_cylinder(
        "sphere", "constant", {"loop": "latitude",
                               "loop_params": {"theta": th}})
     for th in (0.4, 1.0, 2.5)})
_ASSIGN_CYLINDERS.update(
    {f"torus constant {loop}": C.make_cylinder(
        "torus", "constant", {"loop": loop, "loop_params": {"p": 2, "q": 1}})
     for loop in ("winding", "staircase")})


@pytest.mark.parametrize("label", sorted(_ASSIGN_LOOPS))
def test_interval_assignment_matches_per_cell_reference(label):
    loop = _ASSIGN_LOOPS[label]
    for name in _COVERS[loop.model.kind]:
        cover = make_cover(name)
        assert _outcome(G.assign_charts_interval, loop, cover) \
            == _outcome(_reference_interval, loop, cover), name


@pytest.mark.parametrize("label", sorted(_ASSIGN_CYLINDERS))
def test_rect_assignment_matches_per_cell_reference(label):
    """With the boundary rows forced by the boundary subdivisions, and
    free on the first cover of the model."""
    cyl = _ASSIGN_CYLINDERS[label]
    for k, name in enumerate(_COVERS[cyl.model.kind]):
        cover = make_cover(name)
        bottom = _outcome(G.assign_charts_interval, cyl.bottom_loop(), cover)
        top = _outcome(G.assign_charts_interval, cyl.top_loop(), cover)
        assert bottom == _outcome(_reference_interval, cyl.bottom_loop(),
                                  cover)
        assert top == _outcome(_reference_interval, cyl.top_loop(), cover)
        bounds = [{}] if k == 0 else []
        if isinstance(bottom, G.IntervalSubdivision) \
                and isinstance(top, G.IntervalSubdivision):
            bounds.append({"bottom": bottom, "top": top})
        for kw in bounds:
            assert _outcome(G.assign_charts_rect, cyl, cover, **kw) \
                == _outcome(_reference_rect, cyl, cover, **kw), (name, kw)


def _tiny_torus_cover():
    return G.Cover("tiny", G.make_model("torus"),
                   (G.square_chart("only", (0.0, 0.0), 0.1, margin=0.01),))


def _thin_fold_grid():
    cover = G.make_cover("sphere-3caps")
    cyl = C.make_cylinder("sphere", "thin-fold", {
        "loop": "latitude", "loop_params": {"theta": 1.0}})
    return (G.assign_charts_rect, _reference_rect, (cyl, cover),
            {"bottom": G.assign_charts_interval(cyl.bottom_loop(), cover),
             "top": G.assign_charts_interval(cyl.top_loop(), cover)})


# label -> (batched, reference, arguments, keywords)
_ASSIGN_FAILURES = {
    "thin-fold latitude 1.0, grid": _thin_fold_grid,
    "tiny torus cover, interval": lambda: (
        G.assign_charts_interval, _reference_interval,
        (C.winding_loop(1, 1), _tiny_torus_cover()), {"max_depth": 6}),
    "grid at max_depth 0": lambda: (
        G.assign_charts_rect, _reference_rect,
        (G.constant_cylinder(C.winding_loop(1, 1)),
         G.make_cover("torus-4squares")), {"max_depth": 0}),
}


@pytest.mark.parametrize("label", sorted(_ASSIGN_FAILURES))
def test_assignment_failures_match_per_cell_reference(label):
    batched, reference, args, kwargs = _ASSIGN_FAILURES[label]()
    with pytest.raises(MaxDepthExceeded) as exc:
        batched(*args, **kwargs)
    with pytest.raises(MaxDepthExceeded) as want:
        reference(*args, **kwargs)
    assert str(exc.value) == str(want.value)


def _two_interval_calls(cyl, cover, bottom=None, top=None):
    """The boundary subdivisions as two assign_charts_interval calls,
    bottom first: the pair, or the first call's error."""
    out = [sub if sub is not None else _outcome(G.assign_charts_interval,
                                                loop, cover)
           for sub, loop in ((bottom, cyl.bottom_loop()),
                             (top, cyl.top_loop()))]
    return next((x for x in out if not isinstance(x, G.IntervalSubdivision)),
                tuple(out))


@pytest.mark.parametrize("label", sorted(_ASSIGN_CYLINDERS))
def test_lockstep_boundary_assignment_matches_two_interval_calls(label):
    """Both boundary loops bisected in lockstep, one cylinder call per
    level, give the two loops' own subdivisions; a given side is kept."""
    cyl = _ASSIGN_CYLINDERS[label]
    for name in _COVERS[cyl.model.kind]:
        cover = make_cover(name)
        want = _two_interval_calls(cyl, cover)
        assert _outcome(G._assign_charts_boundaries, cyl, cover) == want
        if isinstance(want, tuple):
            bottom, top = want
            for kw in ({"bottom": bottom}, {"top": top},
                       {"bottom": bottom, "top": top}):
                assert _outcome(G._assign_charts_boundaries, cyl, cover,
                                **kw) == want


def _tiny_cap_cover():
    return G.Cover("tiny cap", G.make_model("sphere"),
                   (G.cap_chart("only", (0.0, 0.0, 1.0), 0.9),))


# label -> (cylinder, cover): boundary loops that fit no chart of the
# cover at full depth, on one side or on both
_LOCKSTEP_FAILURES = {
    "bottom fails": lambda: (C.spike_retraction_cylinder(math.pi),
                             _tiny_cap_cover()),
    "top fails": lambda: (C.cap_sweep_cylinder(2.0), _tiny_cap_cover()),
    "both fail": lambda: (C.morph_cylinder(C.latitude_loop(1.0),
                                           C.latitude_loop(1.3)),
                          _tiny_cap_cover()),
}


@pytest.mark.parametrize("label", sorted(_LOCKSTEP_FAILURES))
def test_lockstep_boundary_failures_match_two_interval_calls(label):
    """The lockstep bisection raises the error of the first boundary
    loop that fails on its own, bottom first."""
    cyl, cover = _LOCKSTEP_FAILURES[label]()
    bottom = _outcome(G.assign_charts_interval, cyl.bottom_loop(), cover)
    top = _outcome(G.assign_charts_interval, cyl.top_loop(), cover)
    fails = [not isinstance(x, G.IntervalSubdivision) for x in (bottom, top)]
    assert fails == {"bottom fails": [True, False], "top fails":
                     [False, True], "both fail": [True, True]}[label]
    if all(fails):
        assert bottom != top
    want = bottom if fails[0] else top
    assert want[0] is MaxDepthExceeded
    with pytest.raises(MaxDepthExceeded) as exc:
        G._assign_charts_boundaries(cyl, cover)
    assert str(exc.value) == want[1]


@pytest.mark.parametrize("cover", ["sphere-3caps", "torus-4squares",
                                   "sphere-2caps-band", "plane-4"])
def test_anchors_match_per_point_reference(cover, monkeypatch):
    got = [R.BasepointScaffold.for_cover(make_cover(cover), seed=seed)
           for seed in range(6)]
    monkeypatch.setattr(R, "_central_point", _reference_central_point)
    for seed, sc in enumerate(got):
        want = R.BasepointScaffold.for_cover(make_cover(cover), seed=seed)
        for mine, theirs in ((sc.anchors, want.anchors),
                             (sc.pair_anchors, want.pair_anchors)):
            assert mine.keys() == theirs.keys()
            assert all(mine[k].tobytes() == theirs[k].tobytes()
                       for k in mine), seed


# Regions of one to four charts on each model; the plane and torus
# quadruple overlaps are small, so their blocks grow.
_SAMPLE_REGIONS = [
    ("sphere-3caps", (0,)), ("sphere-3caps", (1, 2)),
    ("sphere-3caps", (0, 1, 2)), ("sphere-2caps-band", (0, 2)),
    ("torus-4squares", (3,)), ("torus-4squares", (0, 1)),
    ("torus-4squares", (0, 2, 3)), ("torus-4squares", (0, 1, 2, 3)),
    ("plane-1", (0,)), ("plane-4", (1, 3)), ("plane-4", (0, 1, 2, 3)),
]


@pytest.mark.parametrize("cover,region", _SAMPLE_REGIONS)
def test_region_blocks_match_per_point_draws(cover, region):
    cover = make_cover(cover)
    for seed in range(10):
        for count in (1, 5, 40, 64):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample_region(cover, region, rng, count)
            want = pointwise.sample_region(cover, region, ref, count)
            assert got.tobytes() == np.array(want).tobytes(), (seed, count)
            assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("cover,region,count", [
    ("sphere-2caps-band", (0, 1), 1),      # disjoint caps: no hit at all
    ("torus-4squares", (0, 1, 2, 3), SAMPLE_BUDGET),
])
def test_region_blocks_give_up_where_per_point_draws_do(cover, region,
                                                        count):
    cover = make_cover(cover)
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    with pytest.raises(ChartMismatch) as exc:
        sample_region(cover, region, rng, count)
    with pytest.raises(ChartMismatch) as want:
        pointwise.sample_region(cover, region, ref, count)
    assert str(exc.value) == str(want.value)
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("cover", ["sphere-3caps", "torus-4squares",
                                   "plane-4"])
def test_tangent_block_matches_per_point_draws(cover):
    cover = make_cover(cover)
    for seed in range(10):
        for count in (1, 2):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            pts = sample_region(cover, (0, 1), rng, 40)
            pointwise.sample_region(cover, (0, 1), ref, 40)
            got = _tangents(cover, rng, pts, count)
            want = pointwise.tangents(cover.model, ref, pts, count)
            assert got.shape == want.shape == (count, 40,
                                               cover.model.ambient_dim)
            assert got.tobytes() == want.tobytes()
            assert rng.bit_generator.state == ref.bit_generator.state


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
    model = bundle.cover.model
    p = sample_region(bundle.cover, region, rng, N_POINTS)
    v = rng.normal(size=(tangents, N_POINTS, model.ambient_dim))
    return p, list(model.tangent(p, v))


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


def test_expression_forms_on_stacks_match_points():
    entries = [["sin(x)*y + 2", "exp(z)/(2 + x)"], ["sqrt(1 + y*y)", "x*z"]]
    form = expr_form(1, {"x": entries, "z": entries}, ("x", "y", "z"))
    rng = np.random.default_rng(2)
    stacks = rng.normal(size=(3, N_POINTS, 3))
    for f in (form, form.d):
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
    functor = H.holonomy_functor(bundle, cyl, rect=res.subdivision, **numerics)
    assert functor.error_estimate == res.error_estimate
