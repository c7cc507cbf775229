"""Acceptance gate: one test per contracted criterion.

Each test prints a single pass/fail line (collected into the terminal
summary) and asserts at the stated tolerance.
"""

import math
import time

import numpy as np

from holotwist import catalog as C, geometry as G
import holotwist.holonomy as H
from holotwist.bundle import gauge_transform, random_gauge, validate
from holotwist.catgroup import (
    CatGroupMorphism,
    compose,
    identity_of,
    morphism_distance,
    morphism_eq,
    tensor,
)
from holotwist.families import (
    monopole_bundle,
    pu2_bundle,
    torus_flat_bundle,
    trivial_bundle,
)
from holotwist.liecore import (
    BUILTIN_EXTENSIONS,
    GroupElement,
    make_extension,
    mat_norm,
    path_ordered_exp,
)
from holotwist.reconstruct import round_trip_check
from liehelpers import riemann_product_exp

RESULTS = []


def _report(num, name, ok, detail=""):
    line = (f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}"
            + (f"  ({detail})" if detail else ""))
    RESULTS.append(line)
    print(line)


# --------------------------------------------------------------------------
# 1. Categorical-group laws
# --------------------------------------------------------------------------

def _chained(ext, rng, n):
    reps = [ext.random_element("E", rng) for _ in range(n + 1)]
    out = []
    for a, b in zip(reps[:-1], reps[1:]):
        m = CatGroupMorphism(a, b, ext)
        out.append(m.translate(ext.random_element("H", rng)))
    return out


def test_criterion_01_categorical_group_laws():
    tol, worst = 1e-9, 0.0
    for name in sorted(BUILTIN_EXTENSIONS):
        ext = make_extension(name)
        rng = np.random.default_rng(10)
        for _ in range(100):
            a, b = _chained(ext, rng, 2)
            c, d = _chained(ext, rng, 2)
            # interchange on a composable quadruple
            lhs = tensor(compose(a, b), compose(c, d))
            rhs = compose(tensor(a, c), tensor(b, d))
            worst = max(worst, morphism_eq(lhs, rhs)[1])
        for _ in range(20):
            a, b, c = _chained(ext, rng, 3)
            worst = max(worst, morphism_eq(compose(compose(a, b), c),
                                           compose(a, compose(b, c)))[1])
            worst = max(worst, morphism_eq(
                compose(identity_of(ext, a.source_object), a), a)[1])
            worst = max(worst, morphism_eq(
                compose(a, identity_of(ext, a.target_object)), a)[1])
    ok = worst <= tol
    _report(1, "categorical-group laws", ok, f"max residual {worst:.2e}")
    assert ok, worst


# --------------------------------------------------------------------------
# 2. Path-ordered integrator contract
# --------------------------------------------------------------------------

def _matrix_stack(rows):
    """[[a, b], [c, d]] of scalars or (N,) arrays -> (2, 2) or (N, 2, 2)."""
    return np.moveaxis(np.array(rows), (0, 1), (-2, -1))


def _field_su(t):
    t = np.asarray(t)
    return _matrix_stack([[1j * np.cos(3 * t), np.sin(t) + 0.4j],
                          [-np.sin(t) + 0.4j, -1j * np.cos(3 * t)]])


def test_criterion_02_integrator_contract():
    def frame(t):
        t = np.asarray(t)
        return _matrix_stack([[np.exp(1j * np.sin(t)), 0.0 * t],
                              [0.0 * t, np.exp(-1j * t * t)]])

    def frame_dot(t):
        t = np.asarray(t)
        return _matrix_stack([[1j * np.cos(t) * np.exp(1j * np.sin(t)),
                               0.0 * t],
                              [0.0 * t, -2j * t * np.exp(-1j * t * t)]])

    def transformed(t):
        e = frame(t)
        ei = np.linalg.inv(e)
        return ei @ _field_su(t) @ e + ei @ frame_dot(t)

    # transformation rule against the dense Riemann-product oracle
    lhs = path_ordered_exp(transformed, steps=512).entries
    oracle = riemann_product_exp(_field_su, 0.0, 1.0,
                                 factors=100000).entries
    rhs = np.linalg.inv(frame(0.0)) @ oracle @ frame(1.0)
    res = np.linalg.norm(lhs - rhs)

    # measured convergence order
    ref = path_ordered_exp(_field_su, steps=4096).entries
    errs = [np.linalg.norm(path_ordered_exp(_field_su, steps=n).entries
                           - ref) for n in (32, 64, 128)]
    order = min(np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2]))

    ok = res < 1e-8 and order >= 3.5
    _report(2, "integrator contract", ok,
            f"rule residual {res:.2e}, order {order:.2f}")
    assert ok, (res, order)


# --------------------------------------------------------------------------
# 3. Čech validation of the built-in families
# --------------------------------------------------------------------------

def test_criterion_03_cech_validation():
    tol, worst = 1e-8, 0.0
    families = [
        trivial_bundle("sphere", "u1-squared"),
        trivial_bundle("torus", "u2-pu2"),
        torus_flat_bundle(),
        monopole_bundle(1),
        monopole_bundle(2),
        monopole_bundle(-1),
        pu2_bundle(),
    ]
    for b in families:
        rep = validate(b, sample_count=200, tol=tol, seed=0)
        worst = max(worst, rep.max_residual)
    ok = worst <= tol
    _report(3, "Cech validation", ok, f"max residual {worst:.2e}")
    assert ok, worst


# --------------------------------------------------------------------------
# 4. Closed-surface quantization
# --------------------------------------------------------------------------

def test_criterion_04_closed_surface_quantization():
    cyl = C.full_sphere_cylinder()
    kw = dict(face_tol=1e-8, max_split=5)
    worst_unit, drift = 0.0, 0.0
    for n in (1, 2, -1):
        b = monopole_bundle(n)
        res = H.epsilon(b, cyl, **kw)
        worst_unit = max(worst_unit,
                         mat_norm(res.value.entries - np.eye(1)))
        if n == 1:
            fine = H.epsilon(b, cyl, rect=G.refine_rect(res.subdivision),
                             **kw)
            drift = mat_norm(res.value.entries - fine.value.entries)
    ok = worst_unit < 1e-6 and drift <= 1e-7
    _report(4, "closed-surface quantization", ok,
            f"unit dev {worst_unit:.2e}, doubling drift {drift:.2e}")
    assert ok, (worst_unit, drift)


# --------------------------------------------------------------------------
# 5. Functor well-definedness
# --------------------------------------------------------------------------

def _certified(b, cyl, bot, top):
    cover = b.cover
    rect = G.assign_charts_rect(cyl, cover, bottom=bot, top=top)
    G.certify_interval(cyl.bottom_loop(), cover, bot)
    G.certify_interval(cyl.top_loop(), cover, top)
    G.certify_rect(cyl, cover, rect)
    return rect


def _two_subdivision_drift(b, cyl, s1, s2, **kw):
    """Morphism distance between two independently certified
    discretizations: the auto-assigned one, and one whose boundary
    subdivisions have an extra split (hence different grid lines,
    transition points, and quadrature layout) at a different step
    count."""
    cover = b.cover
    bot = G.assign_charts_interval(cyl.bottom_loop(), cover,
                                   samples_per_cell=49)
    top = G.assign_charts_interval(cyl.top_loop(), cover,
                                   samples_per_cell=49)
    rect = _certified(b, cyl, bot, top)
    bot2 = G.refine_interval(bot, 0)
    top2 = G.refine_interval(top, len(top.charts) - 1)
    rect2 = _certified(b, cyl, bot2, top2)
    m1 = H.holonomy_functor(b, cyl, bottom_sub=bot, top_sub=top,
                            rect=rect, steps=s1, with_error=False,
                            **kw).value
    m2 = H.holonomy_functor(b, cyl, bottom_sub=bot2, top_sub=top2,
                            rect=rect2, steps=s2, with_error=False,
                            **kw).value
    return morphism_distance(m1, m2)


def _sphere_cylinders(s1, s2):
    lat = C.latitude_loop(1.0)
    gc = C.great_circle_loop(0.4)
    return [
        (G.constant_cylinder(lat), s1, s2),
        (G.constant_cylinder(gc), s1, s2),
        (G.constant_cylinder(C.latitude_loop(1.4)), s1, s2),
        (C.cap_sweep_cylinder(2.0), s1, s2),
        (C.cap_sweep_cylinder(1.2), s1, s2),
        (C.spike_retraction_cylinder(2.5), s1, s2),
        (C.spike_retraction_cylinder(math.pi), s1, s2),
        (C.perturb_cylinder(G.constant_cylinder(gc), 0.1), s1, s2),
        (C.morph_cylinder(lat, C.perturb_loop(lat, 0.2)), s1, s2),
        (C.morph_cylinder(gc, C.perturb_loop(gc, 0.1)), s1, s2),
    ]


def _torus_cylinders():
    w10, w01 = C.winding_loop(1, 0), C.winding_loop(0, 1)
    st = C.staircase_loop(1, 1)
    morph = C.morph_cylinder(w10, C.perturb_loop(w10, 0.2))
    return [
        (G.constant_cylinder(w10), 160, 240),
        (G.constant_cylinder(w01), 160, 240),
        (G.constant_cylinder(st), 160, 240),
        (C.thin_fold_cylinder(w10), 160, 240),
        (C.perturb_cylinder(morph, 0.15), 160, 240),
        (C.perturb_cylinder(G.constant_cylinder(w10), 0.15), 160, 240),
        (C.perturb_cylinder(G.constant_cylinder(w01), -0.25), 160, 240),
        (morph, 160, 240),
        (C.morph_cylinder(w01, C.perturb_loop(w01, -0.15)), 160, 240),
        # thin warps make the line integrand stiff: more steps needed
        (G.deform_thin(morph, G.monotone_warp(), axis="t"), 512, 768),
    ]


def test_criterion_05_functor_well_definedness():
    kw = dict(face_tol=1e-8, max_split=5)
    tol, worst = 1e-6, 0.0
    cases = [
        (trivial_bundle("sphere", "u1-squared"),
         _sphere_cylinders(128, 192)),
        (torus_flat_bundle(), _torus_cylinders()),
        (monopole_bundle(1), _sphere_cylinders(320, 448)),
        (pu2_bundle(), _sphere_cylinders(320, 448)),
    ]
    for b, cylinders in cases:
        for cyl, s1, s2 in cylinders:
            worst = max(worst,
                        _two_subdivision_drift(b, cyl, s1, s2, **kw))

    # thin deformation of a non-thin cylinder leaves the class unchanged
    bt = torus_flat_bundle()
    cyl = C.morph_cylinder(C.winding_loop(1, 0),
                           C.perturb_loop(C.winding_loop(1, 0), 0.25))
    warped = G.deform_thin(cyl, G.monotone_warp(), axis="t")
    m1 = H.holonomy_functor(bt, cyl, steps=512, with_error=False,
                            **kw).value
    m2 = H.holonomy_functor(bt, warped, steps=512, with_error=False,
                            **kw).value
    worst = max(worst, morphism_distance(m1, m2))

    ok = worst <= tol
    _report(5, "functor well-definedness", ok, f"max drift {worst:.2e}")
    assert ok, worst


# --------------------------------------------------------------------------
# 6. Functoriality: vertical -> compose, horizontal -> tensor
# --------------------------------------------------------------------------

def test_criterion_06_functoriality():
    kw = dict(face_tol=1e-8, max_split=5, with_error=False)
    tol, worst, pairs = 1e-6, 0.0, 0
    rng = np.random.default_rng(6)

    def law(b, c1, c2, vertical, s1, s2):
        m1 = H.holonomy_functor(b, c1, steps=s1, **kw).value
        m2 = H.holonomy_functor(b, c2, steps=s1, **kw).value
        if vertical:
            whole = G.compose_cylinders_vertical(c1, c2)
            want = compose(m1, m2)
        else:
            whole = G.compose_cylinders_horizontal(c1, c2)
            want = tensor(m1, m2)
        m = H.holonomy_functor(b, whole, steps=s2, **kw).value
        return morphism_distance(m, want)

    # pure-gauge sphere bundle: nonzero rough forms, random amplitudes
    b0 = trivial_bundle("sphere", "u1-squared")
    bp = gauge_transform(b0, random_gauge(b0, seed=11, scale=0.25))
    lat = C.latitude_loop(1.0)
    gc = C.great_circle_loop(0.4)
    for _ in range(4):
        a1, a2 = rng.uniform(0.1, 0.3, size=2)
        c1 = C.perturb_cylinder(G.constant_cylinder(lat), a1)
        c2 = C.perturb_cylinder(G.constant_cylinder(lat), -a2)
        worst = max(worst, law(bp, c1, c2, True, 640, 960))
        pairs += 1
    for _ in range(4):
        a1, a2 = rng.uniform(0.1, 0.3, size=2)
        c1 = C.perturb_cylinder(G.constant_cylinder(lat), a1)
        c2 = C.perturb_cylinder(G.constant_cylinder(gc), a2)
        worst = max(worst, law(bp, c1, c2, False, 640, 960))
        pairs += 1

    # flat torus bundle
    bt = torus_flat_bundle()
    w10, w01 = C.winding_loop(1, 0), C.winding_loop(0, 1)
    for _ in range(2):
        a1, a2 = rng.uniform(0.1, 0.3, size=2)
        l2 = C.perturb_loop(w10, a1)
        c1 = C.morph_cylinder(w10, l2)
        c2 = C.morph_cylinder(l2, C.perturb_loop(w10, -a2))
        worst = max(worst, law(bt, c1, c2, True, 96, 192))
        pairs += 1
    for _ in range(2):
        a1, a2 = rng.uniform(0.1, 0.3, size=2)
        c1 = C.morph_cylinder(w10, C.perturb_loop(w10, a1))
        c2 = C.perturb_cylinder(G.constant_cylinder(w01), a2)
        worst = max(worst, law(bt, c1, c2, False, 96, 192))
        pairs += 1

    # nonabelian extension with unit data: exercises compose/tensor in U(2)
    bu = trivial_bundle("sphere", "u2-pu2")
    for _ in range(4):
        a1, a2 = rng.uniform(0.1, 0.3, size=2)
        c1 = C.perturb_cylinder(G.constant_cylinder(lat), a1)
        c2 = C.perturb_cylinder(G.constant_cylinder(lat), -a2)
        worst = max(worst, law(bu, c1, c2, True, 96, 192))
        pairs += 1
    for _ in range(4):
        a1, a2 = rng.uniform(0.1, 0.3, size=2)
        c1 = C.perturb_cylinder(G.constant_cylinder(gc), a1)
        c2 = C.perturb_cylinder(G.constant_cylinder(lat), a2)
        worst = max(worst, law(bu, c1, c2, False, 96, 192))
        pairs += 1

    ok = worst <= tol and pairs == 20
    _report(6, "functoriality", ok,
            f"max deviation {worst:.2e} over {pairs} pairs")
    assert ok, worst


# --------------------------------------------------------------------------
# 7. Gauge transformation gives a conjugate functor
# --------------------------------------------------------------------------

def test_criterion_07_gauge_conjugation():
    kw = dict(face_tol=1e-8, max_split=5, with_error=False)
    b = monopole_bundle(1)
    ext = b.extension
    cyl = C.perturb_cylinder(G.constant_cylinder(C.latitude_loop(1.0)),
                             0.25)
    m = H.holonomy_functor(b, cyl, steps=768, **kw).value
    tol, worst = 1e-6, 0.0
    for seed in range(5):
        gauge = random_gauge(b, seed=seed, scale=0.3, based=False)
        bg = gauge_transform(b, gauge)
        mg = H.holonomy_functor(bg, cyl, steps=768, **kw).value
        lift = gauge.e_i[0].value(b.cover.model.basepoint)
        g = GroupElement(ext.project_mat(lift.entries), "G")
        conj = H.conjugate_functor(m, g, lift, ext)
        worst = max(worst, morphism_distance(mg, conj))
    ok = worst <= tol
    _report(7, "gauge => conjugation", ok, f"max deviation {worst:.2e}")
    assert ok, worst


# --------------------------------------------------------------------------
# 8. Flat case: homotopy invariance and winding discrimination
# --------------------------------------------------------------------------

def test_criterion_08_flat_homotopy_invariance():
    kw = dict(face_tol=1e-8, max_split=5, with_error=False)
    b = torus_flat_bundle()
    tol = 1e-6
    w10 = C.winding_loop(1, 0)
    base = C.morph_cylinder(w10, C.perturb_loop(w10, 0.25))
    m = H.holonomy_functor(b, base, steps=256, **kw).value
    worst = 0.0
    for amp, center in ((0.2, (0.5, 0.5)), (-0.3, (0.4, 0.6))):
        deformed = C.perturb_cylinder(base, amp, center=center)
        md = H.holonomy_functor(b, deformed, steps=256, **kw).value
        worst = max(worst, morphism_distance(m, md))
    invariant_ok = worst <= tol

    # distinct winding data give well-separated morphism classes
    reps = [H.holonomy_functor(b, G.constant_cylinder(loop), steps=128,
                               **kw).value
            for loop in (w10, C.winding_loop(0, 1), C.winding_loop(1, 1))]
    sep = min(morphism_distance(reps[i], reps[j])
              for i in range(3) for j in range(i + 1, 3))
    discriminate_ok = sep > 1e-2

    ok = invariant_ok and discriminate_ok
    _report(8, "flat homotopy invariance", ok,
            f"deformation drift {worst:.2e}, winding separation {sep:.2e}")
    assert ok, (worst, sep)


# --------------------------------------------------------------------------
# 9. Round trip: rebuild local data from the functor, recompute, compare
# --------------------------------------------------------------------------

def test_criterion_09_round_trip():
    tol = 1e-3
    r1 = round_trip_check(trivial_bundle("sphere", "u1-squared"), seed=0)
    r2 = round_trip_check(monopole_bundle(1), seed=0)
    worst = max(r1.max_deviation, r2.max_deviation)
    ok = r1.passed and r2.passed and worst <= 10 * 1e-4
    _report(9, "round trip", ok, f"max deviation {worst:.2e} (tol {tol:g})")
    assert ok, (str(r1), str(r2))


# --------------------------------------------------------------------------
# 10. Trace invariance
# --------------------------------------------------------------------------

def test_criterion_10_trace_invariance():
    kw = dict(face_tol=1e-8, max_split=5, with_error=False)
    b = pu2_bundle()
    cyl = C.cap_sweep_cylinder(2.0)
    tol = 1e-6

    res = H.holonomy_functor(b, cyl, steps=768, **kw)
    tr = complex(np.trace(res.value.rep_target.entries))

    # interior refinement
    cover = b.cover
    bot = G.assign_charts_interval(cyl.bottom_loop(), cover)
    top = G.assign_charts_interval(cyl.top_loop(), cover)
    rect = G.refine_rect(G.assign_charts_rect(cyl, cover, bottom=bot,
                                              top=top))
    fine = H.holonomy_functor(b, cyl, bottom_sub=bot, top_sub=top,
                              rect=rect, steps=768, **kw)
    tr_ref = complex(np.trace(fine.value.rep_target.entries))

    # gauge invariance
    gauge = random_gauge(b, seed=2, scale=0.3, based=False)
    bg = gauge_transform(b, gauge)
    gres = H.holonomy_functor(bg, cyl, steps=768, **kw)
    tr_gauge = complex(np.trace(gres.value.rep_target.entries))

    dev = max(abs(tr - tr_ref), abs(tr - tr_gauge))
    ok = dev <= tol
    _report(10, "trace invariance", ok,
            f"trace {tr:.6f}, max deviation {dev:.2e}")
    assert ok, (tr, tr_ref, tr_gauge)
