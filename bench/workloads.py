"""The three workloads: lists of CLI commands with their answer checks.

A workload is a fixed list of operations (one `holotwist` command each)
drawn from the seed; a run repeats that list in whole rounds, so the
share of failed operations is the same in every run.  Each operation
belongs to one of two latency classes, "main" and "aux" (see README).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks as C

MONOPOLE = {"family": "monopole", "params": {"n": 1}}
PU2 = {"family": "sphere-pu2"}
TORUS = {"family": "torus-flat"}
TRIVIAL = {"family": "trivial"}
TRIVIAL_TORUS = {"family": "trivial",
                 "params": {"model": "torus", "extension": "u2-pu2"}}

EXTENSION = {"monopole": "u1-squared", "sphere-pu2": "u2-pu2",
             "torus-flat": "u1-squared"}

# Steps at which every sphere-pu2 loop and the monopole equator pass the
# hol0/hol1 verdict; at the default 256 they fail it (see CHANGES.md).
FINE_STEPS = 1024


def _ext(bundle):
    return bundle.get("params", {}).get(
        "extension", EXTENSION.get(bundle["family"], "u1-squared"))


@dataclass
class Op:
    label: str
    command: str
    config: dict
    check: Callable[[dict], list]
    klass: str                        # "main" or "aux"
    argv: tuple = ()
    # A fault of the program that makes this operation fail today.  When
    # the command exits 1, the operation counts as failed and only
    # `fault_check` (if any) judges its body.
    known_fault: str | None = None
    fault_check: Callable[[dict], list] | None = None


@dataclass
class Workload:
    name: str
    ops: list
    # (label of a hol0 op, label of the matching hol1 op, extension)
    pairs: list = field(default_factory=list)
    min_rounds: int = 1


def _shuffled(ops, rng):
    return [ops[i] for i in rng.permutation(len(ops))]


# --------------------------------------------------------------------------
# surface: face quadrature
# --------------------------------------------------------------------------

def surface(seed) -> Workload:
    """The seed only orders the commands; the work is fixed, so that the
    face layer is measured on the same cells in every run."""
    rng = np.random.default_rng(seed)
    cap = {"name": "cap-sweep", "params": {"alpha": 2.0}}
    ops = [
        Op("functor monopole cap-sweep", "functor",
           {"bundle": MONOPOLE, "cylinder": cap},
           lambda b: C.check_functor(
               b, "u1-squared",
               invariant=C.monopole_cap_invariant(1, 2.0)),
           "main"),
        Op("functor sphere-pu2 cap-sweep", "functor",
           {"bundle": PU2, "cylinder": cap},
           lambda b: C.check_functor(b, "u2-pu2"), "main"),
        Op("functor torus-flat morph", "functor",
           {"bundle": TORUS, "cylinder": {"name": "morph"}},
           lambda b: C.check_functor(b, "u1-squared",
                                     g_invariant=np.eye(1)),
           "main"),
        Op("surface monopole full-sphere", "surface",
           {"bundle": MONOPOLE, "cylinder": {"name": "full-sphere"}},
           lambda b: C.check_epsilon(b, np.eye(1)), "aux"),
    ]
    return Workload("surface", _shuffled(ops, rng))


# --------------------------------------------------------------------------
# roundtrip: many small oracle calls
# --------------------------------------------------------------------------

def roundtrip(seed) -> Workload:
    """The seed picks the scaffold and sample points of the passing round
    trips.  sphere-pu2 runs at its documented failing seed 0."""
    rng = np.random.default_rng(seed)
    cli_seed = str(int(rng.integers(0, 2**31)))
    ops = [
        Op("roundtrip monopole", "roundtrip", {"bundle": MONOPOLE},
           C.check_roundtrip, "main", ("--seed", cli_seed)),
        Op("roundtrip trivial", "roundtrip", {"bundle": TRIVIAL},
           lambda b: C.check_roundtrip(b, exact=True), "aux",
           ("--seed", cli_seed)),
        Op("roundtrip sphere-pu2", "roundtrip", {"bundle": PU2},
           C.check_roundtrip, "aux", ("--seed", "0"),
           known_fault="sphere-pu2 round trip: great-circle(0.4) battery "
                       "deviates by 1.02e-1"),
    ]
    return Workload("roundtrip", _shuffled(ops, rng))


# --------------------------------------------------------------------------
# line: loop holonomy, validation and gauges, no faces
# --------------------------------------------------------------------------

def _loop_cases(rng):
    """(label, bundle, loop, steps, expected hol0, expected hol1,
    expected G-part of hol1).  None means no closed form."""
    def u(lo, hi):
        return round(float(rng.uniform(lo, hi)), 6)

    windings = [(1, 0), (0, 1), (1, 1), (2, 1), (1, -1), (-1, 2), (2, -1)]
    p, q = windings[rng.integers(len(windings))]
    ps, qs = windings[rng.integers(len(windings))]
    # Monopole latitudes below 0.5 lie in the north chart and pass at
    # the default steps; from about 0.6 on they fail (the fixed 1.0 case).
    theta = u(0.2, 0.45)
    tilt_m, tilt_p = u(0.0, 1.2), u(0.0, 1.2)
    theta_p, theta_t = u(0.2, 2.5), u(0.2, 2.5)
    m_eq = C.monopole_latitude_hol0(1, math.pi / 2)
    eye1, eye2, eye3 = np.eye(1), np.eye(2), np.eye(3)
    return [
        ("monopole latitude", MONOPOLE, ("latitude", {"theta": theta}), None,
         C.monopole_latitude_hol0(1, theta), None,
         C.monopole_latitude_hol0(1, theta)),
        ("monopole great-circle", MONOPOLE,
         ("great-circle", {"tilt": tilt_m}), None, m_eq, None, m_eq),
        ("monopole equator", MONOPOLE, ("equator", {}), FINE_STEPS,
         m_eq, None, m_eq),
        ("monopole constant", MONOPOLE, ("constant", {}), None,
         eye1, eye2, None),
        ("sphere-pu2 latitude", PU2, ("latitude", {"theta": theta_p}),
         FINE_STEPS, None, None, None),
        ("sphere-pu2 great-circle", PU2, ("great-circle", {"tilt": tilt_p}),
         FINE_STEPS, None, None, None),
        ("trivial latitude", TRIVIAL, ("latitude", {"theta": theta_t}), None,
         eye1, eye2, None),
        ("trivial torus winding", TRIVIAL_TORUS,
         ("winding", {"p": p, "q": q}), None, eye3, eye2, None),
        ("torus-flat winding", TORUS, ("winding", {"p": p, "q": q}), None,
         C.torus_flat_hol0(p, q), C.torus_flat_hol1(p, q), None),
        ("torus-flat staircase", TORUS, ("staircase", {"p": ps, "q": qs}),
         None, C.torus_flat_hol0(ps, qs), C.torus_flat_hol1(ps, qs), None),
    ]


def _hol_config(bundle, loop, steps):
    name, params = loop
    cfg = {"bundle": bundle, "loop": {"name": name, "params": params}}
    if steps is not None:
        cfg["numerics"] = {"steps": steps}
    return cfg


def line(seed) -> Workload:
    rng = np.random.default_rng(seed)
    ops, pairs = [], []
    for label, bundle, loop, steps, exp0, exp1, exp1_g in _loop_cases(rng):
        ext = _ext(bundle)
        cfg = _hol_config(bundle, loop, steps)
        ops.append(Op(f"hol0 {label}", "hol0", cfg,
                      lambda b, ext=ext, e=exp0: C.check_hol(b, 0, ext, e),
                      "main"))
        ops.append(Op(f"hol1 {label}", "hol1", cfg,
                      lambda b, ext=ext, e=exp1, g=exp1_g:
                      C.check_hol(b, 1, ext, e, g), "main"))
        pairs.append((f"hol0 {label}", f"hol1 {label}", ext))

    # The hol0/hol1 verdict fault: the returned value is right, the
    # step-halving drift it is judged on is not its error.
    lat1 = C.monopole_latitude_hol0(1, 1.0)
    cfg = _hol_config(MONOPOLE, ("latitude", {"theta": 1.0}), None)
    fault = ("hol0/hol1 verdict judged on the half-step error: monopole "
             "latitude 1.0 drifts 1.15e-5 at 256 steps")
    ops.append(Op("hol0 monopole latitude 1.0", "hol0", cfg,
                  lambda b: C.check_hol(b, 0, "u1-squared", lat1), "main",
                  known_fault=fault,
                  fault_check=lambda b: C.check_hol(b, 0, "u1-squared", lat1,
                                                    verdict=False)))
    ops.append(Op("hol1 monopole latitude 1.0", "hol1", cfg,
                  lambda b: C.check_hol(b, 1, "u1-squared", expected_g=lat1),
                  "main", known_fault=fault,
                  fault_check=lambda b: C.check_hol(
                      b, 1, "u1-squared", expected_g=lat1, verdict=False)))

    def seed_numerics():
        return {"seed": int(rng.integers(0, 2**31))}

    for bundle in (MONOPOLE, PU2, TORUS, TRIVIAL):
        ops.append(Op(f"validate {bundle['family']}", "validate",
                      {"bundle": bundle, "numerics": seed_numerics()},
                      C.check_residuals, "aux"))
    for bundle in (MONOPOLE, PU2, TORUS):
        ops.append(Op(f"gauge random {bundle['family']}", "gauge",
                      {"bundle": bundle, "numerics": seed_numerics(),
                       "gauge": {"seed": int(rng.integers(0, 2**31))}},
                      C.check_residuals, "aux"))
    a, b = (round(float(x), 6) for x in rng.uniform(0.05, 0.4, size=2))
    ops.append(Op("gauge expression monopole", "gauge",
                  {"bundle": MONOPOLE, "numerics": seed_numerics(),
                   "gauge": {"B": {"x": f"{a}*y", "y": f"-{b}*x*z"}}},
                  C.check_residuals, "aux"))
    ops.append(Op("gauge expression torus-flat", "gauge",
                  {"bundle": TORUS, "numerics": seed_numerics(),
                   "gauge": {"B": {"u": f"{a}*sin(2*pi*v)",
                                   "v": f"{b}*cos(2*pi*u)"}}},
                  C.check_residuals, "aux"))
    # 9 validate/gauge commands a round: 5 rounds give the aux median
    # at least 45 samples.
    return Workload("line", _shuffled(ops, rng), pairs, min_rounds=5)


WORKLOADS = {"surface": surface, "roundtrip": roundtrip, "line": line}
