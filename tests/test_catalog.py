"""Named loops and cylinders: construction, collars, chart assignment."""

import math

import numpy as np
import pytest

from holotwist import catalog as C, geometry as G
from holotwist.errors import ConfigError

from charts import certify_interval, certify_rect

SCOV = G.make_cover("sphere-3caps")
TCOV = G.make_cover("torus-4squares")


def test_equator_needs_several_cells():
    sub = G.assign_charts_interval(C.equator_loop(), SCOV)
    certify_interval(C.equator_loop(), SCOV, sub)
    assert len(sub.charts) >= 3


def test_latitude_loop_stays_on_sphere():
    loop = C.latitude_loop(1.1)
    for t in np.linspace(0, 1, 23):
        assert abs(np.linalg.norm(loop.eval(float(t))) - 1.0) < 1e-12


def test_winding_loop_classes():
    loop = C.winding_loop(2, -1)
    assert np.allclose(loop.eval(1.0), [2.0, -1.0])
    stair = C.staircase_loop(1, 1)
    assert np.allclose(stair.eval(1.0), [1.0, 1.0])


def test_full_sphere_cylinder_sweeps_once():
    full = C.full_sphere_cylinder()
    total = 0.0
    n = 120
    for i in range(n):
        for j in range(n):
            s, t = (i + 0.5) / n, (j + 0.5) / n
            p, ds, dt = full.eval_with_partials(s, t)
            total += float(np.dot(p, np.cross(ds, dt))) / n / n
    assert total == pytest.approx(4 * math.pi, rel=1e-3)


def test_full_sphere_certifiable():
    full = C.full_sphere_cylinder()
    bot = G.assign_charts_interval(full.bottom_loop(), SCOV)
    top = G.assign_charts_interval(full.top_loop(), SCOV)
    rect = G.assign_charts_rect(full, SCOV, bottom=bot, top=top)
    certify_rect(full, SCOV, rect)


def test_spike_retraction_is_thin():
    sp = C.spike_retraction_cylinder()
    for s in np.linspace(0.05, 0.95, 9):
        for t in np.linspace(0.05, 0.95, 9):
            _, ds, dt = sp.eval_with_partials(float(s), float(t))
            assert np.linalg.norm(np.cross(ds, dt)) < 1e-10


def test_perturb_cylinder_keeps_boundary():
    base = C.cap_sweep_cylinder(1.5)
    pert = C.perturb_cylinder(base, 0.25)
    for t in np.linspace(0, 1, 11):
        assert np.allclose(pert.eval(0.0, float(t)), base.eval(0.0, float(t)),
                           atol=1e-12)
        assert np.allclose(pert.eval(1.0, float(t)), base.eval(1.0, float(t)),
                           atol=1e-12)
    assert not np.allclose(pert.eval(0.5, 0.5), base.eval(0.5, 0.5),
                           atol=1e-6)
    for t in np.linspace(0, 1, 11):
        p = pert.eval(0.5, float(t))
        assert abs(np.linalg.norm(p) - 1.0) < 1e-12  # still on the sphere


def test_perturb_loop_torus():
    loop = C.winding_loop(1, 0)
    pert = C.perturb_loop(loop, 0.1)
    assert np.allclose(pert.eval(0.0), loop.eval(0.0))
    assert np.allclose(pert.eval(1.0), loop.eval(1.0))
    assert abs(pert.eval(0.5)[1] - loop.eval(0.5)[1]) > 0.05


def test_morph_cylinder_interpolates():
    l1 = C.winding_loop(1, 0)
    l2 = C.perturb_loop(l1, 0.15)
    m = C.morph_cylinder(l1, l2)
    for t in np.linspace(0, 1, 7):
        assert np.allclose(m.eval(0.0, float(t)), l1.eval(float(t)),
                           atol=1e-12)
        assert np.allclose(m.eval(1.0, float(t)), l2.eval(float(t)),
                           atol=1e-12)


def test_thin_fold_cylinder_slices_share_image():
    loop = C.winding_loop(1, 0)
    tf = C.thin_fold_cylinder(loop)
    for s in (0.3, 0.8):
        for t in np.linspace(0, 1, 9):
            p = tf.eval(float(s), float(t))
            # every point of every slice lies on the base loop's image
            u = p[0] % 1.0
            assert abs(p[1]) < 1e-12


def test_registry_dispatch():
    loop = C.make_loop("sphere", "latitude", {"theta": 0.9})
    assert abs(loop.eval(0.5)[2] - math.cos(0.9)) < 1e-9
    cyl = C.make_cylinder("torus", "morph", {"amplitude": 0.05})
    assert cyl.model.kind == "torus"
    with pytest.raises(ConfigError):
        C.make_loop("torus", "latitude")
    with pytest.raises(ConfigError):
        C.make_cylinder("sphere", "no-such-cylinder")


def test_registry_names_constructible():
    for kind, names in C.LOOP_NAMES.items():
        for name in names:
            C.make_loop(kind, name)
