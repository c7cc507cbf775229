"""Tests of the benchmark's own answer checks and tracer.

    python3 -m pytest bench/test_bench.py -q

Every check must accept today's output of the real commands and reject
a deliberately wrong answer.  The real outputs are computed once per
session (about a minute: the surface and round-trip commands are the
benchmark's heaviest).
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import checks as C
import run
import workloads
from tracer import FaceLedger, Tracer

sys.path.insert(0, str(run.SRC))

import holotwist.cli as cli  # noqa: E402
from holotwist import catalog, holonomy  # noqa: E402
from holotwist.families import make_bundle  # noqa: E402
from holotwist.formsexpr.forms import LocalForm  # noqa: E402


def _ser(m):
    return [[[float(z.real), float(z.imag)] for z in row]
            for row in np.asarray(m, dtype=complex)]


@pytest.fixture(scope="session")
def outcomes():
    """label -> (op, Outcome) for one round of every workload, seed 0."""
    work = run.OUT / "test-work"
    work.mkdir(parents=True, exist_ok=True)
    out = {}
    try:
        for name, build in workloads.WORKLOADS.items():
            wl = build(0)
            for i, op in enumerate(wl.ops):
                cfg = work / f"{name}{i}.json"
                cfg.write_text(json.dumps(op.config))
                out[op.label] = (op, run.run_command(
                    cli, op, cfg, work / f"{name}{i}.out.json"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return out


def _body(outcomes, label):
    return copy.deepcopy(outcomes[label][1].body)


# --------------------------------------------------------------------------
# Today's output is accepted; only the two known faults fail
# --------------------------------------------------------------------------

def test_todays_output_passes_every_check(outcomes):
    failed = []
    for label, (op, out) in outcomes.items():
        is_failed, problems = run.judge(op, out)
        assert problems == [], (label, problems)
        if is_failed:
            failed.append(label)
    assert sorted(failed) == ["hol0 monopole latitude 1.0",
                              "hol1 monopole latitude 1.0",
                              "roundtrip sphere-pu2"]


def test_hol_pairs_agree_today(outcomes):
    for l0, l1, ext in workloads.line(0).pairs:
        assert C.check_hol_pair(_body(outcomes, l0), _body(outcomes, l1),
                                ext) == []


# --------------------------------------------------------------------------
# Wrong answers are rejected
# --------------------------------------------------------------------------

def _retarget(body, ext, rep_target):
    body["values"]["rep_target"] = _ser(rep_target)
    body["values"]["target_object"] = _ser(C.project(ext, rep_target))


def test_conjugated_monopole_invariant_rejected(outcomes):
    body = _body(outcomes, "functor monopole cap-sweep")
    src = C.matrix(body["values"]["rep_source"])
    inv = np.linalg.inv(src) @ C.matrix(body["values"]["rep_target"])
    _retarget(body, "u1-squared", src @ inv.conj())
    problems = C.check_functor(body, "u1-squared",
                               invariant=C.monopole_cap_invariant(1, 2.0))
    assert any("invariant" in p for p in problems), problems


def test_functor_representative_checks(outcomes):
    body = _body(outcomes, "functor sphere-pu2 cap-sweep")
    bad = copy.deepcopy(body)
    bad["values"]["rep_source"] = _ser(
        1.001 * C.matrix(body["values"]["rep_source"]))
    assert any("not unitary" in p for p in C.check_functor(bad, "u2-pu2"))
    bad = copy.deepcopy(body)
    bad["values"]["source_object"] = _ser(np.diag([1.0, -1.0, -1.0]))
    assert any("source_object" in p for p in C.check_functor(bad, "u2-pu2"))
    bad = copy.deepcopy(body)
    bad["checks"]["refinement_invariance"] = 2 * bad["tol"]
    assert C.check_functor(bad, "u2-pu2")


def test_torus_g_part_rejected(outcomes):
    body = _body(outcomes, "functor torus-flat morph")
    tgt = C.matrix(body["values"]["rep_target"]) @ np.diag([1, np.exp(0.01j)])
    _retarget(body, "u1-squared", tgt)
    problems = C.check_functor(body, "u1-squared", g_invariant=np.eye(1))
    assert any("G-part" in p for p in problems), problems


def test_epsilon_off_by_a_phase_rejected(outcomes):
    body = _body(outcomes, "surface monopole full-sphere")
    eps = C.matrix(body["values"]["epsilon"])
    body["values"]["epsilon"] = _ser(eps * np.exp(1e-4j))
    assert any("epsilon" in p for p in C.check_epsilon(body, np.eye(1)))


def test_wrong_holonomies_rejected(outcomes):
    wl = {op.label: op for op in workloads.line(0).ops}
    for label in ("hol0 monopole latitude", "hol0 monopole great-circle",
                  "hol1 monopole latitude", "hol0 torus-flat winding",
                  "hol1 trivial latitude", "hol0 torus-flat staircase",
                  "hol1 monopole latitude 1.0"):
        body = _body(outcomes, label)
        h = C.matrix(body["values"]["holonomy"])
        body["values"]["holonomy"] = _ser(h * np.exp(1e-4j))
        op = wl[label]
        check = op.fault_check or op.check
        assert check(body), label
    body = _body(outcomes, "hol1 torus-flat winding")
    h = C.matrix(body["values"]["holonomy"])
    body["values"]["holonomy"] = _ser(np.diag(np.diag(h)[::-1]))
    assert wl["hol1 torus-flat winding"].check(body)


def test_hol_pair_mismatch_rejected(outcomes):
    b0 = _body(outcomes, "hol0 sphere-pu2 latitude")
    b1 = _body(outcomes, "hol1 sphere-pu2 latitude")
    h1 = C.matrix(b1["values"]["holonomy"])
    rot = np.diag([np.exp(0.01j), np.exp(-0.01j)])
    b1["values"]["holonomy"] = _ser(h1 @ rot)
    assert C.check_hol_pair(b0, b1, "u2-pu2")


def test_residual_checks_reject(outcomes):
    body = _body(outcomes, "validate sphere-pu2")
    name = sorted(body["checks"])[0]
    body["checks"][name] = 10 * body["tol"]
    assert C.check_residuals(body)
    body = _body(outcomes, "gauge expression monopole")
    body["verdict"] = "fail"
    assert C.check_residuals(body)


def test_roundtrip_checks_reject(outcomes):
    body = _body(outcomes, "roundtrip monopole")
    label = next(k for k in body["checks"] if k.startswith("battery:"))
    body["checks"][label] = 2e-3
    assert C.check_roundtrip(body)
    body = _body(outcomes, "roundtrip trivial")
    body["checks"][label] = 1e-9
    assert C.check_roundtrip(body, exact=True)
    assert C.check_roundtrip(_body(outcomes, "roundtrip sphere-pu2"))


# --------------------------------------------------------------------------
# Closed forms and projections, against hand values
# --------------------------------------------------------------------------

def test_closed_forms():
    assert np.allclose(C.monopole_latitude_hol0(1, math.pi / 2), -1)
    assert np.allclose(C.monopole_cap_invariant(1, math.pi), np.eye(2))
    assert np.allclose(C.monopole_cap_invariant(2, math.pi / 2), np.eye(2))
    assert np.allclose(C.torus_flat_hol1(0, 0), np.eye(2))


def test_adjoint_projection():
    assert np.allclose(C.project("u2-pu2", np.exp(0.3j) * np.eye(2)),
                       np.eye(3))
    a = 0.7                              # rotation by 2a about z
    r = C.project("u2-pu2", np.diag([np.exp(-1j * a), np.exp(1j * a)]))
    assert np.allclose(r[2, 2], 1) and np.allclose(abs(r[0, 0]),
                                                   math.cos(2 * a))


# --------------------------------------------------------------------------
# Tracer
# --------------------------------------------------------------------------

def test_face_ledger_matches_the_recursion(monkeypatch):
    """The cells inferred from integrate_2form pairs are the cells the
    adaptive recursion visits."""
    visits = {"cells": 0, "leaves": 0}
    real = holonomy._adaptive_face

    def counting(form, patch, s0, s1, t0, t1, order, tol, depth):
        visits["cells"] += 1
        before = visits["cells"]
        val = real(form, patch, s0, s1, t0, t1, order, tol, depth)
        visits["leaves"] += visits["cells"] == before
        return val

    bundle = make_bundle("monopole", {"n": 1})
    cyl = catalog.make_cylinder("sphere", "cap-sweep", {"alpha": 2.0})
    tracer = Tracer()
    with tracer.installed():
        monkeypatch.setattr(holonomy, "_adaptive_face", counting)
        holonomy.epsilon(bundle, cyl, order=5, face_tol=1e-6, max_split=2)
    c = tracer.counts
    assert c["holonomy.face.cells"] == visits["cells"] > 0
    assert c["holonomy.face.cells"] - c["holonomy.face.split_cells"] \
        == visits["leaves"]
    assert c["holonomy.face.points"] == c["formsexpr.integrate_2form.points"]


def test_face_ledger_flags_unconverged_cells():
    ledger = FaceLedger(face_tol=1e-3, max_split=0)
    ledger.add((0, 1), (0, 1), 3, (1, 1), np.zeros((1, 1)))
    ledger.add((0, 1), (0, 1), 8, (1, 1), np.ones((1, 1)))
    counts = Counter()
    ledger.tally(counts)
    assert counts["holonomy.face.unconverged_cells"] == 1
    assert counts["holonomy.face.useful_points"] == 64


def test_oracle_repeats_are_counted():
    from holotwist.reconstruct import BasepointScaffold, FunctorOracle

    bundle = make_bundle("trivial")
    scaffold = BasepointScaffold.for_cover(bundle.cover, seed=0)
    oracle = FunctorOracle(bundle)
    (i, j), (k, m) = sorted(scaffold.pair_anchors)[:2]
    tracer = Tracer()
    with tracer.installed():
        tracer.new_operation()
        for a, b in ((i, j), (k, m), (i, j)):
            oracle(scaffold.pair_cylinder(a, b, scaffold.pair_anchor(a, b)))
    assert tracer.aggregate()["reconstruct.oracle"][0] == 3
    assert tracer.counts["reconstruct.oracle.repeats"] == 1


def test_tracer_restores_the_package():
    def state():
        return (holonomy.integrate_2form, holonomy.epsilon, cli.run,
                LocalForm.__dict__["__call__"])

    before = state()
    with Tracer().installed():
        assert all(a is not b for a, b in zip(state(), before))
    assert state() == before


# --------------------------------------------------------------------------
# Contract of the benchmark file and the command
# --------------------------------------------------------------------------

def test_benchmark_json_matches_the_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == [(n, run.layer_unit(n)) for n in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_sources():
    bare = run.OUT / "test-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "line", "--seed",
             "1", "--seconds", "1", "--trace", "0"], cwd=bare,
            capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
