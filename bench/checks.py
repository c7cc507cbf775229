"""Answer checks for the benchmark, made apart from holotwist.

Every closed form, projection and unitarity test here is written from
the mathematics in plain numpy; nothing calls back into the package, so
a wrong answer cannot be confirmed by the code that produced it.  Each
check takes a report body (the "body" of a holotwist-report/1 JSON
document) and returns a list of problems; an empty list means the
answer is right.
"""

from __future__ import annotations

import math

import numpy as np

# A CLI report carries its own pass/fail tolerance; closed forms are
# compared at that tolerance.  The round-trip battery is judged at
# 10 * tol_rec with the default tol_rec = 1e-4.
ROUNDTRIP_TOL = 1e-3
UNITARY_TOL = 1e-9
EXACT_TOL = 1e-12

PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]], dtype=complex),
         np.array([[1, 0], [0, -1]], dtype=complex))


# --------------------------------------------------------------------------
# Closed forms
# --------------------------------------------------------------------------

def monopole_latitude_hol0(n, theta):
    """G-holonomy of the charge-n monopole around the latitude at polar
    angle theta: exp(i n pi (1 - cos theta)), half the enclosed area."""
    return np.array([[np.exp(1j * n * math.pi * (1.0 - math.cos(theta)))]])


def monopole_cap_invariant(n, alpha):
    """rep_source^-1 rep_target of the cap-sweep functor, which sweeps
    the cap of polar radius alpha with area A = 2 pi (1 - cos alpha)."""
    area = 2.0 * math.pi * (1.0 - math.cos(alpha))
    return np.diag([np.exp(-0.5j * n * area), np.exp(0.5j * n * area)])


def torus_flat_hol0(p, q):
    return np.array([[np.exp(1j * (1.3 * p + 0.55 * q))]])


def torus_flat_hol1(p, q):
    return np.diag([np.exp(1j * (0.9 * p + 1.7 * q)),
                    np.exp(1j * (1.3 * p + 0.55 * q))])


# --------------------------------------------------------------------------
# Projections E -> G of the two extensions the workloads use
# --------------------------------------------------------------------------

def project(ext, e):
    """u1-squared: E = diag(h, g) -> g.  u2-pu2: U(2) -> SO(3) by the
    adjoint action on the Pauli basis."""
    if ext == "u1-squared":
        return np.array([[e[1, 1]]])
    if ext == "u2-pu2":
        ed = e.conj().T
        return np.array([[0.5 * np.trace(PAULI[k] @ e @ PAULI[m] @ ed).real
                          for m in range(3)] for k in range(3)],
                        dtype=complex)
    raise ValueError(f"no projection for extension {ext!r}")


# --------------------------------------------------------------------------
# Helpers
# --------------------------------------------------------------------------

def matrix(ser):
    """Inverse of the CLI serialization: nested [re, im] pairs."""
    return np.array([[complex(re, im) for re, im in row] for row in ser])


def dist(a, b):
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return math.inf
    return float(np.abs(a - b).max())


def unitary_residual(m):
    return dist(m.conj().T @ m, np.eye(m.shape[0]))


def _verdict(body):
    problems = []
    if body.get("verdict") != "pass":
        problems.append(f"verdict {body.get('verdict')!r}")
    tol = body["tol"]
    for name, residual in sorted(body["checks"].items()):
        if not residual <= tol:
            problems.append(f"check {name} = {residual:.3e} > tol {tol:g}")
    return problems


def _close(label, got, want, tol):
    d = dist(got, want)
    return [] if d <= tol else [f"{label} off by {d:.3e} (tol {tol:g})"]


# --------------------------------------------------------------------------
# Per-command checks
# --------------------------------------------------------------------------

def check_functor(body, ext, invariant=None, g_invariant=None):
    """Refinement drift within tol, unitary representatives, objects
    equal to the projections of the representatives, and optionally the
    invariant (or its G-part) against a closed form."""
    problems = _verdict(body)
    tol = body["tol"]
    v = body["values"]
    src, tgt = matrix(v["rep_source"]), matrix(v["rep_target"])
    for name, rep in (("rep_source", src), ("rep_target", tgt)):
        res = unitary_residual(rep)
        if not res <= UNITARY_TOL:
            problems.append(f"{name} not unitary ({res:.3e})")
    problems += _close("source_object", matrix(v["source_object"]),
                       project(ext, src), UNITARY_TOL)
    problems += _close("target_object", matrix(v["target_object"]),
                       project(ext, tgt), UNITARY_TOL)
    inv = np.linalg.inv(src) @ tgt
    if invariant is not None:
        problems += _close("invariant", inv, invariant, tol)
    if g_invariant is not None:
        problems += _close("G-part of invariant", project(ext, inv),
                           g_invariant, tol)
    return problems


def check_epsilon(body, expected):
    """Grid-doubling drift within tol and the closed-surface factor."""
    return _verdict(body) + _close("epsilon", matrix(body["values"]["epsilon"]),
                                   expected, body["tol"])


def check_hol(body, layer, ext, expected=None, expected_g=None,
              verdict=True):
    """Line holonomy: unitary, and equal to a closed form where one is
    known.  `expected` is the whole value; `expected_g` is the value's
    projection to G (for hol1).  With verdict=False only the value is
    judged, for a command whose pass/fail rule is known to be wrong."""
    problems = _verdict(body) if verdict else []
    tol = body["tol"]
    h = matrix(body["values"]["holonomy"])
    res = unitary_residual(h)
    if not res <= UNITARY_TOL:
        problems.append(f"hol{layer} not unitary ({res:.3e})")
    if expected is not None:
        problems += _close(f"hol{layer}", h, expected, tol)
    if expected_g is not None:
        problems += _close(f"hol{layer} projected to G", project(ext, h),
                           expected_g, tol)
    return problems


def check_hol_pair(body0, body1, ext):
    """hol1 lies over hol0: the two are integrated from different
    connection forms, so this ties the E and G layers together."""
    return _close("project(hol1) against hol0",
                  project(ext, matrix(body1["values"]["holonomy"])),
                  matrix(body0["values"]["holonomy"]), body0["tol"])


def check_residuals(body):
    """validate / gauge: every Čech residual below the command's tol."""
    problems = _verdict(body)
    if not body["checks"]:
        problems.append("no residuals reported")
    return problems


def check_roundtrip(body, exact=False):
    """Battery deviations within the round-trip tolerance; with exact
    (the trivial bundle) every rebuilt holonomy is the identity, so each
    deviation and residual vanishes."""
    problems = _verdict(body)
    battery = {k: v for k, v in body["checks"].items()
               if k.startswith("battery:")}
    if not battery:
        problems.append("empty battery")
    limit = EXACT_TOL if exact else ROUNDTRIP_TOL
    for name, dev in sorted(battery.items()):
        if not dev <= limit:
            problems.append(f"{name} = {dev:.3e} > {limit:g}")
    if exact:
        for name, res in sorted(body["checks"].items()):
            if not res <= EXACT_TOL:
                problems.append(f"{name} = {res:.3e} on the trivial bundle")
    return problems
