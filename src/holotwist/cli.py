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
import math
import os
import sys
import time

import numpy as np

from . import catalog
from .bundle import (SAMPLE_BUDGET, gauge_transform, identity_gauge,
                     random_gauge, validate)
from .catgroup import morphism_distance
from .errors import ConfigError, ExprSyntaxError, HolotwistError, \
    RegionUndersampled, UnknownIdentifier, bounded_setting, float_setting, \
    integer_setting
from .families import FAMILY_NAMES, make_bundle
from .formsexpr.forms import expr_form
from .formsexpr.parser import parse
from .geometry import refine_rect
from .holonomy import (_starts_at_basepoint, epsilon, hol0, hol1,
                       holonomy_functor)
from .liecore import BUILTIN_EXTENSIONS
from .reconstruct import _battery_loops, rebuild, round_trip_check

SCHEMA = "holotwist-report/1"
# Magnitude bound of gauge.scale, far below 1e19, where a random U(2)
# gauge first broke down (README, Command line).
GAUGE_SCALE_BOUND = 1e15
EXIT_OK, EXIT_CHECK, EXIT_USAGE = 0, 1, 2

_MISSING = object()


# --------------------------------------------------------------------------
# Config access with key paths
# --------------------------------------------------------------------------

# The keys each config object takes, by key path ("" is the top level).
_KEYS = {
    "": ("bundle", "loop", "cylinder", "gauge", "reconstruct", "numerics"),
    "bundle": ("family", "params"),
    "loop": ("name", "params"),
    "cylinder": ("name", "params"),
    "numerics": ("steps", "order", "edge_cells", "face_tol", "sample_count",
                 "tol", "seed"),
    "gauge": ("seed", "scale", "based", "B"),
    "reconstruct": ("samples_per_overlap", "tol_rec"),
}


class Config:
    """A dict wrapper whose errors carry the dotted path of the key.

    An object listed in _KEYS, and every listed object inside it, takes
    exactly its keys; any other key is a ConfigError at its path."""

    def __init__(self, data, path=""):
        if not isinstance(data, dict):
            raise ConfigError("expected an object", path or "<root>")
        self.data = data
        self.path = path
        keys = _KEYS.get(path)
        for key, val in data.items():
            if keys is not None and key not in keys:
                raise ConfigError(f"unknown key; expected one of {list(keys)}",
                                  self._at(key))
            if self._at(key) in _KEYS and isinstance(val, dict):
                Config(val, self._at(key))      # checks its keys

    def _at(self, key):
        return f"{self.path}.{key}" if self.path else str(key)

    def get(self, key, default=_MISSING):
        if key not in self.data:
            if default is _MISSING:
                raise ConfigError("missing required key", self._at(key))
            return default
        return self.data[key]

    def sub(self, key, default=_MISSING):
        val = self.get(key, default)
        if val is default and not isinstance(val, dict):
            return Config({}, self._at(key))
        return Config(val, self._at(key))

    def positive(self, key, default, bound=math.inf):
        val = bounded_setting(self.get(key, default), key, bound,
                              path=self._at(key))
        if val <= 0.0:
            raise ConfigError(f"must be positive, got {val}", self._at(key))
        return val

    def integer(self, key, default, least=1):
        return integer_setting(self.get(key, default), key, least,
                               self._at(key))

    def sample_count(self, key, default):
        """A positive integer no larger than sample_region's draw
        budget, since no larger count can be met."""
        val = self.integer(key, default)
        if val > SAMPLE_BUDGET:
            raise ConfigError(f"must be at most {SAMPLE_BUDGET}, the number "
                              f"of region sampling draws, got {val}",
                              self._at(key))
        return val


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------

def _ser_matrix(m):
    m = np.asarray(m, dtype=complex)
    return [[[float(np.real(x)), float(np.imag(x))] for x in row]
            for row in m]


# --------------------------------------------------------------------------
# Shared builders
# --------------------------------------------------------------------------

def _numerics(cfg: Config, args, tol):
    """The numerics settings with the command-line overrides; `tol` is
    the command's default tolerance."""
    nc = cfg.sub("numerics", None)
    num = {key: nc.integer(key, default) for key, default in (
        ("steps", 256), ("order", 8), ("edge_cells", 4))}
    num["sample_count"] = nc.sample_count("sample_count", 40)
    num["face_tol"] = nc.positive("face_tol", 2e-9)
    num["tol"] = nc.positive("tol", tol)
    num["seed"] = nc.integer("seed", 0, least=0)
    if args.seed is not None:
        num["seed"] = integer_setting(args.seed, "--seed", 0, "--seed")
    if args.tol is not None:
        if float_setting(args.tol, "--tol", "--tol") <= 0.0:
            raise ConfigError("must be positive", "--tol")
        num["tol"] = args.tol
    return num


def _build(cfg: Config, key, make, *lead):
    """make(*lead, name, params) from the object at `key`, which holds a
    name ("family" for bundles) and its params; a builder's ConfigError
    is re-raised with its key path under `key`."""
    sub = cfg.sub(key)
    name_key = "family" if key == "bundle" else "name"
    name = sub.get(name_key)
    if not isinstance(name, str):
        raise ConfigError(f"expected a string, got {name!r}",
                          sub._at(name_key))
    params = sub.sub("params", {}).data
    try:
        return make(*lead, name, params)
    except ConfigError as exc:
        raise ConfigError(exc.message, sub._at(exc.path or "params")) \
            from None


def _cylinder(cfg: Config, bundle):
    return _build(cfg, "cylinder", catalog.make_cylinder,
                  bundle.cover.model.kind)


def _build_gauge(cfg: Config, bundle, seed):
    gc = cfg.sub("gauge", None)
    exprs = gc.get("B", None)
    if exprs is not None:
        ext = bundle.extension
        if ext.H.dim != 1:
            raise ConfigError(
                "expression gauges need a one-dimensional kernel",
                gc._at("B"))
        coords = bundle.cover.model.coord_names
        if not isinstance(exprs, dict) or not exprs or \
                not set(exprs).issubset(set(coords)):
            raise ConfigError(
                f"expected a non-empty mapping from coordinates {coords} "
                "to expression strings", gc._at("B"))
        gauge = identity_gauge(bundle)
        form = expr_form(1, {c: [[_parsed(src, coords, gc._at(f"B.{c}"))]]
                             for c, src in exprs.items()},
                         coords, value_tag="h")
        gauge.B_i = {i: form for i in range(bundle.nc)}
        return gauge
    based = gc.get("based", True)
    if not isinstance(based, bool):
        raise ConfigError(f"expected true or false, got {based!r}",
                          gc._at("based"))
    return random_gauge(bundle, seed=gc.integer("seed", seed, least=0),
                        scale=gc.positive("scale", 0.4, GAUGE_SCALE_BOUND),
                        based=based)


def _parsed(src, coords, path):
    """The expression src over the coordinates; a ConfigError at path
    when it does not parse."""
    try:
        return parse(str(src), coords=set(coords))
    except (ExprSyntaxError, UnknownIdentifier) as exc:
        raise ConfigError(str(exc), path) from None


def _quadrature(num):
    """The face settings and a fresh face table for one command's runs."""
    return {"faces": {},
            **{k: num[k] for k in ("order", "edge_cells", "face_tol")}}


def _functor_pair(bundle, cyl, num):
    """The functor's morphisms on the command's grid and, with the same
    boundary subdivisions and face table, on refine_rect of it at 2x steps."""
    quad = _quadrature(num)
    res = holonomy_functor(bundle, cyl, steps=num["steps"], **quad)
    bot, top, rect = res.subdivision
    fine = holonomy_functor(bundle, cyl, bottom_sub=bot, top_sub=top,
                            rect=refine_rect(rect), steps=2 * num["steps"],
                            **quad)
    return res.value, fine.value


# --------------------------------------------------------------------------
# Commands: each returns (checks, values, tol)
# --------------------------------------------------------------------------

def _validation(bundle, num):
    """validate; a ConfigError when a region cannot meet sample_count."""
    try:
        return validate(bundle, sample_count=num["sample_count"],
                        seed=num["seed"])
    except RegionUndersampled as exc:
        raise ConfigError(f"too large for the cover: {exc}",
                          "numerics.sample_count") from None


def _cmd_validate(cfg, num, bundle):
    rep = _validation(bundle, num)
    return rep.residuals, {"max_residual": rep.max_residual}, num["tol"]


def _cmd_hol(fn, cfg, num, bundle):
    loop = _build(cfg, "loop", catalog.make_loop, bundle.cover.model.kind)
    res = fn(bundle, loop, steps=num["steps"])
    return ({"step_halving_drift": res.error_estimate},
            {"holonomy": _ser_matrix(res.value.entries),
             "group": res.value.group_tag}, num["tol"])


def _cmd_surface(cfg, num, bundle):
    cyl = _cylinder(cfg, bundle)
    quad = _quadrature(num)
    res = epsilon(bundle, cyl, **quad)
    fine = epsilon(bundle, cyl, rect=refine_rect(res.subdivision), **quad)
    drift = np.abs(res.value.entries - fine.value.entries).max()
    return ({"grid_doubling_drift": drift},
            {"epsilon": _ser_matrix(res.value.entries)}, num["tol"])


def _cmd_functor(cfg, num, bundle):
    cyl = _cylinder(cfg, bundle)
    morphism, fine = _functor_pair(bundle, cyl, num)
    values = {name: _ser_matrix(getattr(morphism, name).entries)
              for name in ("rep_source", "rep_target", "source_object",
                           "target_object")}
    return ({"refinement_invariance": morphism_distance(morphism, fine)},
            values, num["tol"])


def _cmd_trace(cfg, num, bundle):
    cyl = _cylinder(cfg, bundle)
    if not _starts_at_basepoint(bundle, cyl):
        raise ConfigError("the trace needs a cylinder whose bottom loop "
                          "is constant at the basepoint", "cylinder")
    tr, tr2 = (complex(np.trace(m.rep_target.entries))
               for m in _functor_pair(bundle, cyl, num))
    return ({"refinement_invariance": abs(tr - tr2)},
            {"trace": [tr.real, tr.imag]}, num["tol"])


def _cmd_gauge(cfg, num, bundle):
    gauged = gauge_transform(bundle, _build_gauge(cfg, bundle, num["seed"]))
    return _cmd_validate(cfg, {**num, "tol": max(num["tol"], 1e-8)}, gauged)


def _rebuild_settings(cfg, bundle, samples):
    """samples_per_overlap (`samples` by default) and tol_rec; a
    ConfigError at `bundle` when a rebuild from holonomy would check
    nothing: a cover without overlaps, on a model without battery loops."""
    rc = cfg.sub("reconstruct", None)
    settings = (rc.sample_count("samples_per_overlap", samples),
                rc.positive("tol_rec", 1e-4))
    cover = bundle.cover
    if len(cover) < 2 and not _battery_loops(cover.model):
        raise ConfigError(
            f"nothing to check: cover {cover.name} has no overlaps and the "
            f"{cover.model.kind} model has no battery loops", "bundle")
    return settings


def _cmd_reconstruct(cfg, num, bundle):
    samples, tol_rec = _rebuild_settings(cfg, bundle, 1)
    *_, transitions, checks = rebuild(bundle, num["seed"], samples)
    values = {f"e_{i}{j}": [{"point": [float(c) for c in y],
                             "e": _ser_matrix(eij.entries)}
                            for y, eij in rows]
              for (i, j), rows in transitions.items() if i < j}
    return checks, values, 10.0 * tol_rec


def _cmd_roundtrip(cfg, num, bundle):
    samples, tol_rec = _rebuild_settings(cfg, bundle, 2)
    report = round_trip_check(bundle, seed=num["seed"],
                              samples_per_overlap=samples, tol_rec=tol_rec)
    checks = {**{f"battery:{label}": d for label, d in report.items},
              **report.checks}
    return checks, {"max_deviation": float(report.max_deviation),
                    "oracle_calls": report.oracle_calls}, report.tol


_VERIFY_CYLINDER = {"sphere": ("cap-sweep", {"alpha": 2.0}),
                    "torus": ("morph", {}), "plane": ("constant", {})}


def _cmd_verify(cfg, num, bundle):
    kind = bundle.cover.model.kind
    cyl = _cylinder(cfg, bundle) if "cylinder" in cfg.data \
        else catalog.make_cylinder(kind, *_VERIFY_CYLINDER[kind])
    # both validations first: they find the config errors
    validation = _validation(bundle, num).max_residual
    gauged = gauge_transform(bundle, random_gauge(bundle, seed=num["seed"]))
    gauge_validation = _validation(gauged, num).max_residual
    return {"validation": validation,
            "functor_invariance": morphism_distance(
                *_functor_pair(bundle, cyl, num)),
            "gauge_validation": gauge_validation,
            }, {}, num["tol"]


def _cmd_list_examples(cfg, num, bundle):
    values = {
        "families": sorted(FAMILY_NAMES),
        "extensions": sorted(BUILTIN_EXTENSIONS),
        "loops": {k: sorted(v) for k, v in catalog.LOOP_NAMES.items()},
        "cylinders": {k: sorted(v)
                      for k, v in catalog.CYLINDER_NAMES.items()},
    }
    return {}, values, 0.0


_COMMANDS = {
    "validate": _cmd_validate,
    # hol0 and hol1 are looked up per call, so that a wrapper put in
    # their place (a tracer's) is the one that runs
    "hol0": lambda cfg, num, bundle: _cmd_hol(hol0, cfg, num, bundle),
    "hol1": lambda cfg, num, bundle: _cmd_hol(hol1, cfg, num, bundle),
    "surface": _cmd_surface,
    "functor": _cmd_functor,
    "trace": _cmd_trace,
    "gauge": _cmd_gauge,
    "reconstruct": _cmd_reconstruct,
    "roundtrip": _cmd_roundtrip,
    "verify": _cmd_verify,
    "list-examples": _cmd_list_examples,
}
COMMANDS = tuple(_COMMANDS)


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


def _print_summary(report):
    print(f"command: {report['command']}")
    for name, residual in sorted(report["body"]["checks"].items()):
        print(f"  check {name}: {residual:.3e}")
    print(f"verdict: {report['body']['verdict']} "
          f"(tol {report['body']['tol']:g})")


def run(command, config: Config, args) -> dict:
    """Run one command.  Its verdict is "pass" iff every check is at
    most the tolerance the command reports."""
    num = _numerics(config, args, 1e-8 if command == "validate" else 1e-6)
    bundle = None if command == "list-examples" \
        else _build(config, "bundle", make_bundle)
    checks, values, tol = _COMMANDS[command](config, num, bundle)
    checks = {k: float(v) for k, v in sorted(checks.items())}
    verdict = "pass" if all(v <= tol for v in checks.values()) else "fail"
    return {
        "schema": SCHEMA,
        "command": command,
        "config": config.data,
        "body": {"checks": checks, "values": values, "tol": tol,
                 "verdict": verdict},
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
        if args.out and (os.path.isdir(args.out) or not os.path.isdir(
                os.path.dirname(os.path.abspath(args.out)))):
            raise ConfigError("must name a file in an existing directory",
                              "--out")
        config = _load_config(args.config)
        report = run(args.command, config, args)
        report["timings"] = {"wall_seconds": time.time() - started}
        _print_summary(report)
        if args.out:
            try:
                with open(args.out, "w") as fh:
                    json.dump(report, fh, indent=2, sort_keys=True)
                    fh.write("\n")
            except OSError as exc:
                raise ConfigError(f"cannot write report: {exc}", "--out")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HolotwistError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK if report["body"]["verdict"] == "pass" else EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
