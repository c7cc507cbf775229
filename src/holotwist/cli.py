"""Batch front end: JSON configs in, machine-readable JSON reports out.

Exit codes: 0 when all checks of the command pass, 1 when a check fails
or a computation cannot be completed, 2 for usage or configuration
errors.  Matrices are serialized as nested arrays of [re, im] pairs; a
report is byte-identical across runs with the same config and seed,
except for its "timings" entry.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from . import catalog
from .bundle import gauge_transform, identity_gauge, random_gauge, validate
from .catgroup import morphism_distance
from .errors import ConfigError, HolotwistError, float_setting, \
    integer_setting
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

    def positive(self, key, default):
        val = float_setting(self.get(key, default), key, self._at(key))
        if val <= 0.0:
            raise ConfigError(f"must be positive, got {val}", self._at(key))
        return val

    def integer(self, key, default, least=1):
        return integer_setting(self.get(key, default), key, least,
                               self._at(key))


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
        ("steps", 256), ("order", 8), ("edge_cells", 4),
        ("sample_count", 40))}
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
    return random_gauge(bundle, seed=gc.integer("seed", seed, least=0),
                        scale=gc.positive("scale", 0.4),
                        based=bool(gc.get("based", True)))


def _quadrature(num):
    return {k: num[k] for k in ("order", "edge_cells", "face_tol")}


def _functor_with_invariance(bundle, cyl, num):
    res = holonomy_functor(bundle, cyl, steps=num["steps"],
                           with_error=False, **_quadrature(num))
    bot, top, rect = res.subdivision
    fine = holonomy_functor(bundle, cyl, bottom_sub=bot, top_sub=top,
                            rect=refine_rect(rect), steps=2 * num["steps"],
                            with_error=False, **_quadrature(num))
    return res.value, morphism_distance(res.value, fine.value)


# --------------------------------------------------------------------------
# Commands: each returns (checks, values, tol)
# --------------------------------------------------------------------------

def _validation(bundle, num):
    return validate(bundle, sample_count=num["sample_count"],
                    seed=num["seed"])


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
    res = epsilon(bundle, cyl, **_quadrature(num))
    fine = epsilon(bundle, cyl, rect=refine_rect(res.subdivision),
                   **_quadrature(num))
    drift = np.abs(res.value.entries - fine.value.entries).max()
    return ({"grid_doubling_drift": drift},
            {"epsilon": _ser_matrix(res.value.entries)}, num["tol"])


def _cmd_functor(cfg, num, bundle):
    cyl = _cylinder(cfg, bundle)
    morphism, drift = _functor_with_invariance(bundle, cyl, num)
    values = {name: _ser_matrix(getattr(morphism, name).entries)
              for name in ("rep_source", "rep_target", "source_object",
                           "target_object")}
    return {"refinement_invariance": drift}, values, num["tol"]


def _cmd_trace(cfg, num, bundle):
    cyl = _cylinder(cfg, bundle)
    tr = kapustin_trace(bundle, cyl, steps=num["steps"], **_quadrature(num))
    tr2 = kapustin_trace(bundle, cyl, steps=2 * num["steps"],
                         **_quadrature(num))
    return ({"refinement_invariance": abs(tr - tr2)},
            {"trace": [tr.real, tr.imag]}, num["tol"])


def _cmd_gauge(cfg, num, bundle):
    gauged = gauge_transform(bundle, _build_gauge(cfg, bundle, num["seed"]))
    return _cmd_validate(cfg, {**num, "tol": max(num["tol"], 1e-8)}, gauged)


def _cmd_reconstruct(cfg, num, bundle):
    rc = cfg.sub("reconstruct", None)
    tol = 10.0 * rc.positive("tol_rec", 1e-4)
    oracle = FunctorOracle(bundle)
    scaffold = BasepointScaffold.for_cover(bundle.cover, seed=num["seed"])
    trans, anti, cocycle = rebuild_transitions_and_cocycle(
        oracle, scaffold, np.random.default_rng(num["seed"]),
        rc.integer("samples_per_overlap", 1))
    values = {}
    for (i, j) in sorted(scaffold.pair_anchors):
        values[f"e_{i}{j}"] = [{"point": [float(c) for c in y],
                                "e": _ser_matrix(eij.entries)}
                               for y, eij in trans.samples[(i, j)]]
    checks = {"base_diagonal": trans.base_residual, "antisymmetry": anti}
    if cocycle:
        checks["cocycle_central"] = max(
            r for rows in cocycle.values() for (_, _, r) in rows)
    return checks, values, tol


def _cmd_roundtrip(cfg, num, bundle):
    rc = cfg.sub("reconstruct", None)
    report = round_trip_check(
        bundle, seed=num["seed"],
        samples_per_overlap=rc.integer("samples_per_overlap", 2),
        tol_rec=rc.positive("tol_rec", 1e-4))
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
    gauged = gauge_transform(bundle, random_gauge(bundle, seed=num["seed"]))
    _, drift = _functor_with_invariance(bundle, cyl, num)
    return {"validation": _validation(bundle, num).max_residual,
            "functor_invariance": drift,
            "gauge_validation": _validation(gauged, num).max_residual,
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
    "hol0": functools.partial(_cmd_hol, hol0),
    "hol1": functools.partial(_cmd_hol, hol1),
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
