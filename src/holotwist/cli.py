"""Batch front end: JSON configs in, machine-readable JSON reports out.

Exit codes: 0 when all checks of the command pass, 1 when a check fails
or a computation cannot be completed, 2 for usage or configuration
errors.  Matrices are serialized as nested arrays of [re, im] pairs; a
report is byte-identical across runs with the same config and seed,
except for its "timings" entry.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import catalog
from .bundle import (
    GaugeData,
    gauge_transform,
    identity_gauge,
    random_gauge,
    validate,
)
from .catgroup import morphism_distance
from .errors import ConfigError, HolotwistError
from .families import FAMILY_NAMES, make_bundle
from .formsexpr.forms import expr_form
from .geometry import refine_rect
from .holonomy import epsilon, hol0, hol1, holonomy_functor, kapustin_trace
from .liecore import BUILTIN_EXTENSIONS
from .reconstruct import (
    BasepointScaffold,
    FunctorOracle,
    rebuild_transitions_and_cocycle,
    round_trip_check,
)

SCHEMA = "holotwist-report/1"
EXIT_OK, EXIT_CHECK, EXIT_USAGE = 0, 1, 2

COMMANDS = ("validate", "hol0", "hol1", "surface", "functor", "trace",
            "gauge", "reconstruct", "roundtrip", "verify", "list-examples")

_MISSING = object()


# --------------------------------------------------------------------------
# Config access with key paths
# --------------------------------------------------------------------------

class Config:
    """A dict wrapper whose errors carry the dotted path of the key."""

    def __init__(self, data, path=""):
        if not isinstance(data, dict):
            raise ConfigError("expected an object", path or "<root>")
        self.data = data
        self.path = path

    def _at(self, key):
        return f"{self.path}.{key}" if self.path else str(key)

    def get(self, key, default=_MISSING, kind=None):
        if key not in self.data:
            if default is _MISSING:
                raise ConfigError("missing required key", self._at(key))
            return default
        val = self.data[key]
        if kind is not None:
            try:
                val = kind(val)
            except (TypeError, ValueError):
                raise ConfigError(
                    f"expected {kind.__name__}, got {val!r}",
                    self._at(key)) from None
        return val

    def sub(self, key, default=_MISSING):
        val = self.get(key, default)
        if val is default and not isinstance(val, dict):
            return Config({}, self._at(key))
        return Config(val, self._at(key))

    def positive(self, key, default):
        val = self.get(key, default, kind=float)
        if val <= 0.0:
            raise ConfigError(f"must be positive, got {val}", self._at(key))
        return val


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------

def _ser_matrix(m):
    m = np.asarray(m, dtype=complex)
    return [[[float(np.real(x)), float(np.imag(x))] for x in row]
            for row in m]


def _ser_complex(z):
    z = complex(z)
    return [float(z.real), float(z.imag)]


# --------------------------------------------------------------------------
# Shared builders
# --------------------------------------------------------------------------

def _build_bundle(cfg: Config):
    bc = cfg.sub("bundle")
    family = bc.get("family")
    if family not in FAMILY_NAMES:
        raise ConfigError(
            f"unknown family {family!r}; known: {sorted(FAMILY_NAMES)}",
            bc._at("family"))
    return make_bundle(family, bc.get("params", {}))


def _numerics(cfg: Config, args):
    nc = cfg.sub("numerics", None)
    out = {
        "steps": int(nc.positive("steps", 256)),
        "order": int(nc.positive("order", 8)),
        "edge_cells": int(nc.positive("edge_cells", 4)),
        "face_tol": nc.positive("face_tol", 2e-9),
        "sample_count": int(nc.positive("sample_count", 40)),
        "tol": nc.positive("tol", 1e-6),
        "seed": int(nc.get("seed", 0, kind=int)),
    }
    if args.seed is not None:
        out["seed"] = args.seed
    if args.tol is not None:
        if args.tol <= 0.0:
            raise ConfigError("must be positive", "--tol")
        out["tol"] = args.tol
    return out


def _build_loop(cfg: Config, bundle):
    lc = cfg.sub("loop")
    return catalog.make_loop(bundle.cover.model.kind, lc.get("name"),
                             lc.get("params", {}))


def _build_cylinder(cfg: Config, bundle):
    cc = cfg.sub("cylinder")
    return catalog.make_cylinder(bundle.cover.model.kind, cc.get("name"),
                                 cc.get("params", {}))


def _build_gauge(cfg: Config, bundle, seed) -> GaugeData:
    gc = cfg.sub("gauge", None)
    exprs = gc.get("B", None)
    if exprs is not None:
        ext = bundle.extension
        if ext.H.dim != 1:
            raise ConfigError(
                "expression gauges need a one-dimensional kernel",
                gc._at("B"))
        coords = bundle.cover.model.coord_names
        if not isinstance(exprs, dict) or \
                not set(exprs).issubset(set(coords)):
            raise ConfigError(
                f"expected a mapping from coordinates {coords} to "
                "expression strings", gc._at("B"))
        gauge = identity_gauge(bundle)
        form = expr_form(1, {c: [[src]] for c, src in exprs.items()},
                         coords, value_tag="h")
        gauge.B_i = {i: form for i in range(bundle.nc)}
        return gauge
    return random_gauge(bundle,
                        seed=int(gc.get("seed", seed, kind=int)),
                        scale=gc.positive("scale", 0.4),
                        based=bool(gc.get("based", True)))


def _verdict(checks, tol):
    worst = max(checks.values()) if checks else 0.0
    return ("pass" if worst <= tol else "fail"), worst


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------

def _cmd_validate(cfg, args):
    num = _numerics(cfg, args)
    bundle = _build_bundle(cfg)
    tol = cfg.sub("numerics", None).positive("tol", 1e-8) \
        if args.tol is None else num["tol"]
    rep = validate(bundle, sample_count=num["sample_count"], tol=tol,
                   seed=num["seed"])
    verdict = "pass" if rep.passed else "fail"
    return {
        "checks": {k: float(v) for k, v in sorted(rep.residuals.items())},
        "values": {"max_residual": float(rep.max_residual)},
        "tol": tol,
        "verdict": verdict,
    }


def _cmd_hol(layer, cfg, args):
    num = _numerics(cfg, args)
    bundle = _build_bundle(cfg)
    loop = _build_loop(cfg, bundle)
    fn = hol0 if layer == 0 else hol1
    res = fn(bundle, loop, steps=num["steps"])
    verdict = "pass" if res.error_estimate <= num["tol"] else "fail"
    return {
        "checks": {"step_halving_drift": float(res.error_estimate)},
        "values": {"holonomy": _ser_matrix(res.value.entries),
                   "group": res.value.group_tag},
        "tol": num["tol"],
        "verdict": verdict,
    }


def _cmd_surface(cfg, args):
    num = _numerics(cfg, args)
    bundle = _build_bundle(cfg)
    cyl = _build_cylinder(cfg, bundle)
    res = epsilon(bundle, cyl, order=num["order"],
                  edge_cells=num["edge_cells"], face_tol=num["face_tol"])
    fine = epsilon(bundle, cyl, rect=refine_rect(res.subdivision),
                   order=num["order"], edge_cells=num["edge_cells"],
                   face_tol=num["face_tol"])
    drift = float(np.abs(res.value.entries - fine.value.entries).max())
    verdict = "pass" if drift <= num["tol"] else "fail"
    return {
        "checks": {"grid_doubling_drift": drift},
        "values": {"epsilon": _ser_matrix(res.value.entries)},
        "tol": num["tol"],
        "verdict": verdict,
    }


def _functor_with_invariance(bundle, cyl, num):
    res = holonomy_functor(bundle, cyl, steps=num["steps"],
                           order=num["order"],
                           edge_cells=num["edge_cells"],
                           face_tol=num["face_tol"], with_error=False)
    bot, top, rect = res.subdivision
    fine = holonomy_functor(bundle, cyl, bottom_sub=bot, top_sub=top,
                            rect=refine_rect(rect), steps=2 * num["steps"],
                            order=num["order"],
                            edge_cells=num["edge_cells"],
                            face_tol=num["face_tol"], with_error=False)
    return res.value, float(morphism_distance(res.value, fine.value))


def _cmd_functor(cfg, args):
    num = _numerics(cfg, args)
    bundle = _build_bundle(cfg)
    cyl = _build_cylinder(cfg, bundle)
    morphism, drift = _functor_with_invariance(bundle, cyl, num)
    verdict = "pass" if drift <= num["tol"] else "fail"
    return {
        "checks": {"refinement_invariance": drift},
        "values": {
            "rep_source": _ser_matrix(morphism.rep_source.entries),
            "rep_target": _ser_matrix(morphism.rep_target.entries),
            "source_object": _ser_matrix(morphism.source_object.entries),
            "target_object": _ser_matrix(morphism.target_object.entries),
        },
        "tol": num["tol"],
        "verdict": verdict,
    }


def _cmd_trace(cfg, args):
    num = _numerics(cfg, args)
    bundle = _build_bundle(cfg)
    cyl = _build_cylinder(cfg, bundle)
    tr = kapustin_trace(bundle, cyl, steps=num["steps"], order=num["order"])
    tr2 = kapustin_trace(bundle, cyl, steps=2 * num["steps"],
                         order=num["order"])
    drift = abs(tr - tr2)
    verdict = "pass" if drift <= num["tol"] else "fail"
    return {
        "checks": {"refinement_invariance": drift},
        "values": {"trace": _ser_complex(tr)},
        "tol": num["tol"],
        "verdict": verdict,
    }


def _cmd_gauge(cfg, args):
    num = _numerics(cfg, args)
    bundle = _build_bundle(cfg)
    gauge = _build_gauge(cfg, bundle, num["seed"])
    transformed = gauge_transform(bundle, gauge)
    rep = validate(transformed, sample_count=num["sample_count"],
                   tol=max(num["tol"], 1e-8), seed=num["seed"])
    verdict = "pass" if rep.passed else "fail"
    return {
        "checks": {k: float(v) for k, v in sorted(rep.residuals.items())},
        "values": {"max_residual": float(rep.max_residual)},
        "tol": rep.tol,
        "verdict": verdict,
    }


def _cmd_reconstruct(cfg, args):
    num = _numerics(cfg, args)
    bundle = _build_bundle(cfg)
    rc = cfg.sub("reconstruct", None)
    tol_rec = rc.positive("tol_rec", 1e-4)
    per_overlap = int(rc.positive("samples_per_overlap", 1))
    oracle = FunctorOracle(bundle)
    scaffold = BasepointScaffold.for_cover(bundle.cover, seed=num["seed"])
    trans, anti, cocycle = rebuild_transitions_and_cocycle(
        oracle, scaffold, np.random.default_rng(num["seed"]), per_overlap)
    values = {}
    for (i, j) in sorted(scaffold.pair_anchors):
        values[f"e_{i}{j}"] = [{"point": [float(c) for c in y],
                                "e": _ser_matrix(eij.entries)}
                               for y, eij in trans.samples[(i, j)]]
    checks = {"base_diagonal": float(trans.base_residual),
              "antisymmetry": float(anti)}
    if cocycle:
        checks["cocycle_central"] = max(
            float(r) for rows in cocycle.values() for (_, _, r) in rows)
    tol = 10.0 * tol_rec
    verdict, _ = _verdict(checks, tol)
    return {"checks": checks, "values": values, "tol": tol,
            "verdict": verdict}


def _cmd_roundtrip(cfg, args):
    num = _numerics(cfg, args)
    bundle = _build_bundle(cfg)
    rc = cfg.sub("reconstruct", None)
    report = round_trip_check(
        bundle, seed=num["seed"],
        samples_per_overlap=int(rc.positive("samples_per_overlap", 2)),
        tol_rec=rc.positive("tol_rec", 1e-4))
    return {
        "checks": {**{f"battery:{label}": float(d)
                      for label, d in report.items},
                   **{k: float(v) for k, v in report.checks.items()}},
        "values": {"max_deviation": float(report.max_deviation),
                   "oracle_calls": report.oracle_calls},
        "tol": report.tol,
        "verdict": "pass" if report.passed else "fail",
    }


def _cmd_verify(cfg, args):
    num = _numerics(cfg, args)
    bundle = _build_bundle(cfg)
    checks = {}
    rep = validate(bundle, sample_count=num["sample_count"], tol=1e-8,
                   seed=num["seed"])
    checks["validation"] = float(rep.max_residual)
    kind = bundle.cover.model.kind
    default_cyl = {"sphere": ("cap-sweep", {"alpha": 2.0}),
                   "torus": ("morph", {}),
                   "plane": ("constant", {})}[kind]
    if "cylinder" in cfg.data:
        cyl = _build_cylinder(cfg, bundle)
    else:
        cyl = catalog.make_cylinder(kind, *default_cyl)
    _, drift = _functor_with_invariance(bundle, cyl, num)
    checks["functor_invariance"] = drift
    gauged = gauge_transform(bundle, random_gauge(bundle, seed=num["seed"]))
    grep = validate(gauged, sample_count=num["sample_count"], tol=1e-6,
                    seed=num["seed"])
    checks["gauge_validation"] = float(grep.max_residual)
    verdict = "pass" if (rep.passed and drift <= num["tol"]
                         and grep.passed) else "fail"
    return {"checks": checks, "values": {}, "tol": num["tol"],
            "verdict": verdict}


def _cmd_list_examples(cfg, args):
    values = {
        "families": sorted(FAMILY_NAMES),
        "extensions": sorted(BUILTIN_EXTENSIONS),
        "loops": {k: sorted(v) for k, v in catalog.LOOP_NAMES.items()},
        "cylinders": {k: sorted(v)
                      for k, v in catalog.CYLINDER_NAMES.items()},
    }
    return {"checks": {}, "values": values, "tol": 0.0, "verdict": "pass"}


_DISPATCH = {
    "validate": _cmd_validate,
    "hol0": lambda cfg, args: _cmd_hol(0, cfg, args),
    "hol1": lambda cfg, args: _cmd_hol(1, cfg, args),
    "surface": _cmd_surface,
    "functor": _cmd_functor,
    "trace": _cmd_trace,
    "gauge": _cmd_gauge,
    "reconstruct": _cmd_reconstruct,
    "roundtrip": _cmd_roundtrip,
    "verify": _cmd_verify,
    "list-examples": _cmd_list_examples,
}


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def _load_config(path):
    if path is None:
        return Config({})
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", path)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}", path)
    return Config(data)


def _print_summary(report, stream=None):
    stream = stream if stream is not None else sys.stdout
    print(f"command: {report['command']}", file=stream)
    for name, residual in sorted(report["body"]["checks"].items()):
        print(f"  check {name}: {residual:.3e}", file=stream)
    print(f"verdict: {report['body']['verdict']} "
          f"(tol {report['body']['tol']:g})", file=stream)


def run(command, config: Config, args) -> dict:
    body = _DISPATCH[command](config, args)
    return {
        "schema": SCHEMA,
        "command": command,
        "config": config.data,
        "body": body,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="holotwist",
        description="surface holonomy of twisted bundles: batch commands")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="path to a JSON config file")
    parser.add_argument("--out", help="write the JSON report here")
    parser.add_argument("--seed", type=int, default=None,
                        help="override numerics.seed")
    parser.add_argument("--tol", type=float, default=None,
                        help="override numerics.tol")
    args = parser.parse_args(argv)

    if args.command != "list-examples" and args.config is None:
        print("config error: --config is required for this command",
              file=sys.stderr)
        return EXIT_USAGE

    started = time.time()
    try:
        config = _load_config(args.config)
        report = run(args.command, config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HolotwistError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_CHECK

    report["timings"] = {"wall_seconds": time.time() - started}
    _print_summary(report)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK if report["body"]["verdict"] == "pass" else EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
