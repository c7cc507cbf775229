"""Test-only chart helpers: containment re-checks of a chart assignment
at 4x its sampling, a one-cell refinement of an interval subdivision,
and two covers that no bundle family uses (sphere-2caps-band, plane-4);
any other name is the package's cover."""

import numpy as np

from holotwist import geometry as G
from holotwist.errors import ChartMismatch


def make_cover(name):
    if name == "sphere-2caps-band":
        model = G.make_model("sphere")
        charts = (
            G.cap_chart("north", [0, 0, 1], 0.15),
            G.cap_chart("south", [0, 0, -1], 0.15),
            G.Chart("band", lambda p, s: np.abs(p[..., 2]) < 0.55 - s, 0.05),
        )
        return G.Cover(name, model, charts)
    if name == "plane-4":
        model = G.make_model("plane")
        boxes = [([-1.1, -1.1], [0.3, 0.3]), ([-0.3, -1.1], [1.1, 0.3]),
                 ([-1.1, -0.3], [0.3, 1.1]), ([-0.3, -0.3], [1.1, 1.1])]
        charts = tuple(G.box_chart(f"box{k}", lo, hi)
                       for k, (lo, hi) in enumerate(boxes))
        return G.Cover(name, model, charts)
    return G.make_cover(name)


def cell_grid(s0, s1, t0, t1, n):
    """The n x n sample grid of a cell as flat (s, t) node arrays, s
    major."""
    s, t = np.meshgrid(np.linspace(s0, s1, n), np.linspace(t0, t1, n),
                       indexing="ij")
    return s.ravel(), t.ravel()


def certify_interval(loop, cover, sub):
    """Re-check containment at 4x the sampling; ChartMismatch on failure."""
    for (a, b), chart in zip(sub.cells, sub.charts):
        ts = np.linspace(a, b, sub.sample_density * 4)
        inside = cover.charts[chart].contains(
            cover.model.reduce(loop.eval(ts)), with_margin=True)
        if not inside.all():
            raise ChartMismatch(f"cell [{a},{b}] leaves chart {chart} at "
                                f"t={ts[np.argmin(inside)]}")
    return True


def certify_rect(cylinder, cover, sub):
    """Re-check containment at 4x the sampling; ChartMismatch on failure."""
    ns, nt = sub.shape
    for i in range(ns):
        for j in range(nt):
            s, t = cell_grid(sub.s_breaks[i], sub.s_breaks[i + 1],
                             sub.t_breaks[j], sub.t_breaks[j + 1],
                             sub.sample_density * 4)
            inside = cover.charts[sub.charts[i][j]].contains(
                cover.model.reduce(cylinder.eval(s, t)), with_margin=True)
            if not inside.all():
                k = np.argmin(inside)
                raise ChartMismatch(f"rect cell ({i},{j}) leaves its chart "
                                    f"at (s,t)=({s[k]},{t[k]})")
    return True


def refine_interval(sub, cell_index):
    """Split one cell at its midpoint, keeping its chart."""
    a, b = sub.cells[cell_index]
    bp = list(sub.breakpoints)
    bp.insert(cell_index + 1, 0.5 * (a + b))
    ch = list(sub.charts)
    ch.insert(cell_index, ch[cell_index])
    return G.IntervalSubdivision(tuple(bp), tuple(ch), sub.sample_density)
