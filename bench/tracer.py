"""Spans and counters around holotwist's layers, installed from outside.

`Tracer.installed()` replaces every public module-level function of the
traced modules by a wrapper, in its own module and in every holotwist
module that imported the name (so `holonomy.integrate_2form` is
wrapped too), and restores the originals on exit.  Functions called
once per quadrature point or integration step get a counter; all others
get a span (name, start, end, parent) kept in memory.  A few methods
are wrapped by name: the per-point evaluators of forms, loops and
cylinders (counted), the functor oracle of the reconstruction layer and
the scaffold constructors whose arguments show repeated oracle work.

Faces are not wrapped inside holonomy: their cells are inferred from
the paired integrate_2form calls that `_adaptive_face` makes (order,
then order + 5 on the same cell; a split cell is followed by its first
quadrant).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# module (under holotwist.) -> layer name used in metric names
SPAN_MODULES = {
    "holonomy": "holonomy",
    "formsexpr.forms": "formsexpr",
    "formsexpr.parser": "formsexpr",
    "formsexpr.evaluate": "formsexpr",
    "liecore": "liecore",
    "geometry": "geometry",
    "bundle": "bundle",
    "reconstruct": "reconstruct",
    "cli": "cli",
}
# Builders outside the listed layers, spanned so that cli self time
# does not absorb bundle and loop construction.
EXTRA_SPANS = {"families": ("make_bundle",),
               "catalog": ("make_loop", "make_cylinder")}
# Public functions called per point, per step or per sample: counted.
PER_POINT = {
    "geometry": {"smooth_step", "collar_warp", "ramp"},
    "liecore": {"check_finite", "mat_norm", "group_mul", "group_inv",
                "group_conj", "exp_matrix"},
    "formsexpr": {"eval_expr", "eval_ad"},
}
# Methods counted per call: (module, class, method, counter name)
COUNTED_METHODS = (
    ("formsexpr.forms", "LocalForm", "__call__", "formsexpr.form.evals"),
    ("geometry", "Cylinder", "eval_with_partials", "geometry.cylinder.evals"),
    ("geometry", "Loop", "eval", "geometry.loop.evals"),
    ("geometry", "Loop", "deriv", "geometry.loop.evals"),
    ("geometry", "Loop", "eval_with_deriv", "geometry.loop.evals"),
)
SCAFFOLD_METHODS = ("pair_cylinder", "probe_cylinder", "sweep_cylinder")
ORACLE_SPAN = "reconstruct.oracle"


def _freeze(x):
    """A hashable, exact key for scaffold arguments."""
    if isinstance(x, np.ndarray):
        return (x.shape, tuple(x.ravel().tolist()))
    if isinstance(x, (list, tuple)):
        return tuple(_freeze(v) for v in x)
    if isinstance(x, (int, float, complex, str, type(None))):
        return x
    if isinstance(x, np.generic):
        return x.item()
    return repr(x)


class FaceLedger:
    """Cells of the adaptive face quadrature of one epsilon call,
    rebuilt from its (lo, hi) integrate_2form pairs."""

    def __init__(self, face_tol, max_split):
        self.face_tol = face_tol
        self.max_split = max_split
        self.calls = []          # (s_range, t_range, order, cells, value)

    def add(self, s_range, t_range, order, cells, value):
        self.calls.append(((float(s_range[0]), float(s_range[1])),
                           (float(t_range[0]), float(t_range[1])),
                           order, cells[0] * cells[1], value))

    @staticmethod
    def _quadrants(s, t):
        sm, tm = 0.5 * (s[0] + s[1]), 0.5 * (t[0] + t[1])
        return [((s[0], sm), (t[0], tm)), ((s[0], sm), (tm, t[1])),
                ((sm, s[1]), (t[0], tm)), ((sm, s[1]), (tm, t[1]))]

    def tally(self, counts):
        if len(self.calls) % 2:
            raise RuntimeError("unpaired integrate_2form call in a face")
        cells = []
        for lo, hi in zip(self.calls[::2], self.calls[1::2]):
            if lo[:2] != hi[:2] or hi[2] != lo[2] + 5:
                raise RuntimeError("integrate_2form calls do not pair up")
            cells.append((lo[:2], lo[2] ** 2 * lo[3], hi[2] ** 2 * hi[3],
                          float(np.linalg.norm(hi[4] - lo[4]))))
        pending = []             # quadrants still to come, with their level
        for k, (rng, lo_pts, hi_pts, gap) in enumerate(cells):
            if pending:
                want, level = pending.pop()
                if want != rng:
                    raise RuntimeError("face cells out of order")
            else:
                level = 0
            quads = self._quadrants(*rng)
            split = k + 1 < len(cells) and cells[k + 1][0] == quads[0]
            counts["holonomy.face.cells"] += 1
            counts["holonomy.face.points"] += lo_pts + hi_pts
            if split:
                counts["holonomy.face.split_cells"] += 1
                pending += [(q, level + 1) for q in reversed(quads)]
            else:
                counts["holonomy.face.useful_points"] += hi_pts
                if level == self.max_split and \
                        gap > self.face_tol / 4.0 ** level:
                    counts["holonomy.face.unconverged_cells"] += 1
        if pending:
            raise RuntimeError("face split without its quadrants")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start_ns, end_ns, parent index]
        self.stack = []
        self.counts = Counter()
        self._face = None
        self._cyl_keys = {}      # id(cylinder) -> (cylinder, scaffold key)
        self._seen_keys = set()

    # ---------------------------------------------------------------- spans

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, 0, 0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self.stack.pop()

    def new_operation(self):
        """Oracle repeats are counted within one command."""
        self._cyl_keys.clear()
        self._seen_keys.clear()

    def _spanned(self, name, fn, hook=None):
        span = self.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ---------------------------------------------------------------- hooks

    def _binder(self, fn, extract):
        sig = inspect.signature(fn)

        def hook(args, kwargs, result):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            extract(bound.arguments, result)

        return hook

    def _work_hooks(self, name, fn):
        c = self.counts
        if name == "formsexpr.integrate_2form":
            def extract(a, result):
                cells = tuple(a["cells"])
                c[name + ".points"] += a["order"] ** 2 * cells[0] * cells[1]
                if self._face is not None:
                    self._face.add(a["s_range"], a["t_range"], a["order"],
                                   cells, result.entries)
        elif name == "formsexpr.integrate_1form":
            def extract(a, result):
                c[name + ".points"] += a["order"] * a["cells"]
        elif name == "liecore.path_ordered_exp":
            def extract(a, result):
                c[name + ".steps"] += a["steps"]
        elif name == "bundle.validate":
            def extract(a, result):
                c[name + ".samples"] += a["sample_count"]
        elif name == "geometry.assign_charts_rect":
            def extract(a, result):
                rows, cols = result.shape
                c[name + ".faces"] += rows * cols
        else:
            return None
        return self._binder(fn, extract)

    def _epsilon(self, fn):
        sig = inspect.signature(fn)
        inner = self._spanned("holonomy.epsilon", fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            tracer._face = FaceLedger(bound.arguments["face_tol"],
                                      bound.arguments["max_split"])
            try:
                return inner(*args, **kwargs)
            finally:
                face, tracer._face = tracer._face, None
                face.tally(tracer.counts)

        return wrapper

    def _scaffold(self, method, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            cyl = fn(obj, *args, **kwargs)
            key = (method, _freeze(args), _freeze(sorted(kwargs.items())))
            tracer._cyl_keys[id(cyl)] = (cyl, key)
            return cyl

        return wrapper

    def _oracle_hook(self, args, kwargs, result):
        cyl = args[1] if len(args) > 1 else kwargs["cylinder"]
        entry = self._cyl_keys.get(id(cyl))
        if entry is not None and entry[0] is cyl:
            if entry[1] in self._seen_keys:
                self.counts["reconstruct.oracle.repeats"] += 1
            self._seen_keys.add(entry[1])

    # -------------------------------------------------------- installation

    @contextlib.contextmanager
    def installed(self):
        import holotwist.cli  # noqa: F401  (imports every layer)

        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "holotwist"
                                           or name.startswith("holotwist."))}
        holders = defaultdict(list)     # id(function) -> [(module, attr)]
        for mod in modules.values():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj):
                    holders[id(obj)].append((mod, attr))

        patches = []

        def replace(fn, wrapper):
            for mod, attr in holders[id(fn)]:
                patches.append((mod, attr, fn))
                setattr(mod, attr, wrapper)

        def targets():
            for sub, layer in SPAN_MODULES.items():
                mod = modules["holotwist." + sub]
                for attr, obj in list(vars(mod).items()):
                    if not attr.startswith("_") and inspect.isfunction(obj) \
                            and obj.__module__ == mod.__name__:
                        yield layer, attr, obj
            for sub, names in EXTRA_SPANS.items():
                mod = modules["holotwist." + sub]
                for attr in names:
                    yield sub, attr, getattr(mod, attr)

        for layer, attr, fn in list(targets()):
            name = f"{layer}.{attr}"
            if attr in PER_POINT.get(layer, ()):
                wrapper = self._counted(name, fn)
            elif name == "holonomy.epsilon":
                wrapper = self._epsilon(fn)
            else:
                wrapper = self._spanned(name, fn, self._work_hooks(name, fn))
            replace(fn, wrapper)

        methods = [(cls, meth, self._counted(counter, getattr(cls, meth)))
                   for sub, clsname, meth, counter in COUNTED_METHODS
                   for cls in [getattr(modules["holotwist." + sub], clsname)]]
        rec = modules["holotwist.reconstruct"]
        for meth in SCAFFOLD_METHODS:
            cls = rec.BasepointScaffold
            methods.append((cls, meth, self._scaffold(meth,
                                                      getattr(cls, meth))))
        oracle = rec.FunctorOracle
        methods.append((oracle, "__call__",
                        self._spanned(ORACLE_SPAN, oracle.__call__,
                                      self._oracle_hook)))
        originals = [(cls, meth, cls.__dict__[meth])
                     for cls, meth, _ in methods]
        try:
            for cls, meth, wrapper in methods:
                setattr(cls, meth, wrapper)
            yield self
        finally:
            for cls, meth, orig in originals:
                setattr(cls, meth, orig)
            for mod, attr, fn in reversed(patches):
                setattr(mod, attr, fn)

    # ------------------------------------------------------------ summary

    def aggregate(self):
        """name -> [calls, inclusive ns, self ns].  Inclusive time counts
        only the outermost span of a name, so recursion is not doubled."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(lambda: [0, 0, 0])
        for idx, (name, start, end, parent) in enumerate(spans):
            agg = out[name]
            agg[0] += 1
            agg[2] += end - start - child_ns[idx]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                agg[1] += end - start
        return out

    def write(self, path):
        """Spans as JSON lines [name, start_ns, end_ns, parent], then one
        line of counters."""
        import json

        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")
