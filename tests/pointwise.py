"""Test-only per-point reference for region sampling: one candidate, one
tangent at a time, as the package drew them before it drew in blocks."""

import numpy as np

from holotwist.bundle import SAMPLE_BUDGET
from holotwist.errors import RegionUndersampled


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
