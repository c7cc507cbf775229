"""Test-only references that batched paths of the package match bit for
bit: region sampling one candidate, one tangent at a time, as the
package drew them before it drew in blocks; and the waypoint chain
evaluated component by component, as the package built it before its
stacked kernel."""

import numpy as np

from holotwist import dual as dm
from holotwist.bundle import SAMPLE_BUDGET
from holotwist.errors import RegionUndersampled
from holotwist.geometry import Cylinder, _segment_path, collar_warp
from holotwist.reconstruct import SEG_COLLAR


def random_point(model, rng):
    if model.kind == "sphere":
        q = rng.normal(size=3)
        return q / np.linalg.norm(q)
    if model.kind == "torus":
        return rng.uniform(0.0, 1.0, size=2)
    return rng.uniform(-1.0, 1.0, size=2)


def random_tangent(model, rng, point):
    v = rng.normal(size=model.ambient_dim)
    if model.kind == "sphere":
        return v - np.dot(v, point) * np.asarray(point)
    return v


def sample_region(cover, indices, rng, count):
    """Random points lying in every margin-shrunk chart of `indices`."""
    out = []
    charts = [cover.charts[i] for i in indices]
    for _ in range(SAMPLE_BUDGET):
        q = cover.model.reduce(random_point(cover.model, rng))
        if all(c.contains(q, with_margin=True) for c in charts):
            out.append(q)
            if len(out) == count:
                return out
    raise RegionUndersampled(f"could not sample region {tuple(indices)}: "
                             f"{len(out)} of {count} points accepted in "
                             f"{SAMPLE_BUDGET} draws")


def tangents(model, rng, pts, count):
    """`count` random tangents at each point, drawn point by point, as
    `count` (N, n) stacks."""
    return np.array([[random_tangent(model, rng, p) for _ in range(count)]
                     for p in pts]).swapaxes(0, 1)


def chain_cylinder(model, waypoints):
    """reconstruct._chain_cylinder one component at a time: each
    waypoint evaluated as a list of components, segment ends gathered
    per component by geometry._segment_path, and the sphere projection
    1 / sqrt(sum of squares) applied to each component."""
    ends, given = [], None
    for wp in waypoints:
        base, scale, vec = wp if isinstance(wp, tuple) else (wp, 0.0, None)
        base = lifted = np.asarray(base, dtype=float)
        if model.periodic and given is not None:
            lifted = ends[-1][0] + model.wrap(base - given)
        ends.append((lifted, scale, vec))
        given = base

    def at(end, s):
        base, scale, vec = end
        if vec is None:
            return list(base)
        k = collar_warp(s, SEG_COLLAR)
        return [b + (k * scale) * v for b, v in zip(base, vec)]

    def fn(s, t):
        points = [at(end, s) for end in ends]
        comps = _segment_path(t, list(zip(points[:-1], points[1:])),
                              SEG_COLLAR)
        if model.kind != "sphere":
            return comps
        inv = 1.0 / dm.sqrt(sum(c * c for c in comps))
        return [c * inv for c in comps]

    return Cylinder(model, fn, collar_width=SEG_COLLAR / (len(ends) - 1),
                    check=False)
