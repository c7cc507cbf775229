"""Command-line interface: configs, reports, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from holotwist import catalog, cli, geometry, holonomy
from holotwist.bundle import SAMPLE_BUDGET, ValidationReport
from holotwist.cli import COMMANDS, main
from holotwist.families import PARAM_BOUNDS, make_bundle
from holotwist.formsexpr import parser
from holotwist.liecore import make_extension

TRIVIAL = {
    "bundle": {"family": "trivial", "params": {"model": "sphere"}},
    "loop": {"name": "latitude", "params": {"theta": 1.0}},
    "numerics": {"sample_count": 20, "steps": 64},
}
MONOPOLE = {"family": "monopole", "params": {"n": 1}}


def write_cfg(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def test_list_examples_without_config(capsys):
    assert main(["list-examples"]) == 0
    out = capsys.readouterr().out
    assert "verdict: pass" in out


def test_list_examples_report_contents(tmp_path):
    out = tmp_path / "rep.json"
    assert main(["list-examples", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["schema"] == "holotwist-report/1"
    assert "monopole" in rep["body"]["values"]["families"]
    assert "latitude" in rep["body"]["values"]["loops"]["sphere"]
    assert "cap-sweep" in rep["body"]["values"]["cylinders"]["sphere"]


def test_missing_config_is_usage_error(capsys):
    assert main(["validate"]) == 2
    assert "config" in capsys.readouterr().err


def test_invalid_json_is_usage_error(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["validate", "--config", str(p)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("family, base, direction", [
    ("monopole", "cap-sweep", [0, 0]),
    ("monopole", "cap-sweep", [0, 0, 0]),
    ("monopole", "cap-sweep", [1, 0, 0, 5]),
    ("monopole", "cap-sweep", [math.nan, 0, 1]),
    ("torus-flat", "constant", [1]),
    ("torus-flat", "constant", [0, 1, 7]),
])
def test_bad_perturbation_direction_is_usage_error(tmp_path, capsys, family,
                                                   base, direction):
    """A direction without one finite entry per ambient coordinate, or
    zero on the sphere, is a config error (RuntimeWarnings are errors
    under pytest, so none may be raised on the way)."""
    cfg = write_cfg(tmp_path, {"bundle": {"family": family}, "cylinder": {
        "name": "perturbed",
        "params": {"base": base, "direction": direction}}})
    assert main(["functor", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "direction" in err and "cylinder.params" in err


def test_unknown_family_reports_key_path(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"bundle": {"family": "nope"}})
    assert main(["validate", "--config", cfg]) == 2
    assert "bundle.family" in capsys.readouterr().err


def test_negative_tolerance_is_usage_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TRIVIAL)
    assert main(["validate", "--config", cfg, "--tol", "-1"]) == 2
    assert "positive" in capsys.readouterr().err


def test_validate_trivial_passes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TRIVIAL)
    out = tmp_path / "rep.json"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["body"]["verdict"] == "pass"
    assert "cocycle" in rep["body"]["checks"]
    text = capsys.readouterr().out
    assert "verdict: pass" in text


def test_hol1_trivial_is_identity(tmp_path):
    cfg = write_cfg(tmp_path, TRIVIAL)
    out = tmp_path / "rep.json"
    assert main(["hol1", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    mat = rep["body"]["values"]["holonomy"]
    assert mat[0][0] == pytest.approx([1.0, 0.0], abs=1e-9)
    assert mat[0][1] == pytest.approx([0.0, 0.0], abs=1e-9)
    assert rep["body"]["values"]["group"] == "E"


def test_report_body_is_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, TRIVIAL)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["validate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["validate", "--config", cfg, "--out", str(out2)]) == 0
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    del r1["timings"], r2["timings"]
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_seed_override_changes_config_not_verdict(tmp_path):
    cfg = write_cfg(tmp_path, TRIVIAL)
    assert main(["validate", "--config", cfg, "--seed", "7"]) == 0


def test_expression_gauge_from_config(tmp_path):
    data = {
        "bundle": {"family": "trivial", "params": {"model": "sphere"}},
        "gauge": {"B": {"x": "0.3*y", "y": "-0.1*x*z", "z": "sin(x)"}},
        "numerics": {"sample_count": 15},
    }
    cfg = write_cfg(tmp_path, data)
    out = tmp_path / "rep.json"
    assert main(["gauge", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["body"]["verdict"] == "pass"


def test_expression_gauge_bad_coordinate(tmp_path, capsys):
    data = {
        "bundle": {"family": "trivial", "params": {"model": "sphere"}},
        "gauge": {"B": {"u": "0.3"}},
    }
    cfg = write_cfg(tmp_path, data)
    assert main(["gauge", "--config", cfg]) == 2
    assert "gauge.B" in capsys.readouterr().err


def test_random_gauge_on_torus(tmp_path):
    data = {
        "bundle": {"family": "torus-flat", "params": {"k": 1}},
        "gauge": {"seed": 3, "scale": 0.2},
        "numerics": {"sample_count": 15},
    }
    cfg = write_cfg(tmp_path, data)
    assert main(["gauge", "--config", cfg]) == 0


def test_failing_check_exits_one(tmp_path, capsys):
    # impossibly small tolerance on floating-point residuals
    data = json.loads(json.dumps(TRIVIAL))
    data["bundle"] = {"family": "monopole", "params": {"n": 1}}
    cfg = write_cfg(tmp_path, data)
    assert main(["validate", "--config", cfg, "--tol", "1e-300"]) == 1
    assert "verdict: fail" in capsys.readouterr().out


def test_reconstruct_trivial(tmp_path):
    data = {
        "bundle": {"family": "trivial", "params": {"model": "sphere"}},
        "reconstruct": {"samples_per_overlap": 1},
    }
    cfg = write_cfg(tmp_path, data)
    out = tmp_path / "rep.json"
    assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["body"]["checks"]["antisymmetry"] < 1e-8
    assert rep["body"]["checks"]["cocycle_central"] < 1e-8
    assert "e_01" in rep["body"]["values"]


def test_verify_trivial(tmp_path):
    cfg = write_cfg(tmp_path, TRIVIAL)
    assert main(["verify", "--config", cfg]) == 0


def _matrix(rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def test_functor_monopole_cap_sweep_invariant(tmp_path):
    # sweeping the cap of polar radius 2 encloses area A = 2 pi (1 - cos 2)
    data = {"bundle": MONOPOLE,
            "cylinder": {"name": "cap-sweep", "params": {"alpha": 2.0}}}
    cfg = write_cfg(tmp_path, data)
    out = tmp_path / "rep.json"
    assert main(["functor", "--config", cfg, "--out", str(out)]) == 0
    body = json.loads(out.read_text())["body"]
    values = body["values"]
    inv = np.linalg.inv(_matrix(values["rep_source"])) \
        @ _matrix(values["rep_target"])
    area = 2.0 * math.pi * (1.0 - math.cos(2.0))
    expected = np.diag([np.exp(-0.5j * area), np.exp(0.5j * area)])
    assert np.abs(inv - expected).max() <= body["tol"]


def test_trace_uses_the_functor_quadrature(tmp_path):
    """trace is tr(rep_target) of functor on the same config, also when
    the config coarsens the edge and face quadrature."""
    data = {"bundle": MONOPOLE,
            "cylinder": {"name": "cap-sweep", "params": {"alpha": 2.0}},
            "numerics": {"face_tol": 1e-2, "edge_cells": 1}}
    cfg = write_cfg(tmp_path, data)
    bodies = {}
    for command in ("trace", "functor"):
        out = tmp_path / f"{command}.json"
        main([command, "--config", cfg, "--out", str(out)])
        bodies[command] = json.loads(out.read_text())["body"]
    re, im = bodies["trace"]["values"]["trace"]
    target = _matrix(bodies["functor"]["values"]["rep_target"])
    assert abs(complex(re, im) - np.trace(target)) <= 1e-12


def test_trace_assigns_charts_once(tmp_path, monkeypatch):
    """trace's run at twice the steps reuses the first run's boundary
    subdivisions and refines its grid: one bisection of the boundary
    loops and one grid assignment for the whole command."""
    calls = []
    for module, name in ((geometry, "_bisect_charts"),
                         (holonomy, "assign_charts_rect")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    cfg = write_cfg(tmp_path, {
        "bundle": MONOPOLE,
        "cylinder": {"name": "cap-sweep", "params": {"alpha": 2.0}}})
    assert main(["trace", "--config", cfg]) == 0
    assert sorted(calls) == ["_bisect_charts", "assign_charts_rect"]


@pytest.mark.parametrize("bundle, cylinder", [
    ({"family": "torus-flat"}, "morph"),
    (MONOPOLE, "spike-retraction")])
def test_trace_needs_a_constant_bottom_loop(bundle, cylinder, tmp_path,
                                            capsys, monkeypatch):
    """A cylinder whose bottom loop leaves the basepoint is a bad config:
    exit 2 at `cylinder`, before any holonomy is computed."""
    monkeypatch.setattr(cli, "holonomy_functor",
                        lambda *args, **kwargs: pytest.fail("computed"))
    cfg = write_cfg(tmp_path, {"bundle": bundle,
                               "cylinder": {"name": cylinder}})
    assert main(["trace", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "(at cylinder)" in err and "Traceback" not in err


def test_reconstruct_monopole(tmp_path):
    cfg = write_cfg(tmp_path, {"bundle": MONOPOLE})
    out = tmp_path / "rep.json"
    assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 0
    body = json.loads(out.read_text())["body"]
    assert set(body["checks"]) == {"base_diagonal", "antisymmetry",
                                   "cocycle_central"}
    assert all(v <= body["tol"] for v in body["checks"].values())
    assert "e_01" in body["values"]


# --- one report contract for every command ----------------------------------

TRIVIAL_BUNDLE = {"family": "trivial"}
CAP = {"name": "cap-sweep", "params": {"alpha": 0.3}}
LATITUDE = {"name": "latitude", "params": {"theta": 0.3}}
COARSE = {"steps": 32, "order": 4, "edge_cells": 1, "face_tol": 1e-4}

# Cheap configs; some commands pass and some fail at the default tol.
CHEAP = {
    "validate": {"bundle": MONOPOLE, "numerics": {"sample_count": 8}},
    "hol0": {"bundle": MONOPOLE, "loop": LATITUDE,
             "numerics": {"steps": 64}},
    "hol1": {"bundle": MONOPOLE, "loop": LATITUDE,
             "numerics": {"steps": 64}},
    "surface": {"bundle": MONOPOLE, "cylinder": CAP, "numerics": COARSE},
    "functor": {"bundle": MONOPOLE, "cylinder": CAP, "numerics": COARSE},
    "trace": {"bundle": TRIVIAL_BUNDLE, "cylinder": CAP,
              "numerics": COARSE},
    "gauge": {"bundle": MONOPOLE, "numerics": {"sample_count": 8}},
    "reconstruct": {"bundle": TRIVIAL_BUNDLE},
    "roundtrip": {"bundle": TRIVIAL_BUNDLE,
                  "reconstruct": {"samples_per_overlap": 1}},
    "verify": {"bundle": TRIVIAL_BUNDLE, "cylinder": {"name": "constant"},
               "numerics": {"sample_count": 8, **COARSE}},
    "list-examples": None,
}


def test_cheap_configs_cover_every_command():
    assert set(CHEAP) == set(COMMANDS)


@pytest.mark.parametrize("command", sorted(CHEAP))
def test_verdict_is_every_check_within_tol(command, tmp_path):
    argv = [command, "--out", str(tmp_path / "rep.json")]
    if CHEAP[command] is not None:
        argv += ["--config", write_cfg(tmp_path, CHEAP[command])]
    code = main(argv)
    body = json.loads((tmp_path / "rep.json").read_text())["body"]
    within = all(v <= body["tol"] for v in body["checks"].values())
    assert body["verdict"] == ("pass" if within else "fail")
    assert code == (0 if within else 1)


BAD = {  # label -> (config, key path in the error)
    "unknown-family": ({"bundle": {"family": "nope"}}, "bundle.family"),
    "family-not-string": ({"bundle": {"family": 3}}, "bundle.family"),
    "fractional-charge": (
        {"bundle": {"family": "monopole", "params": {"n": 1.5}}},
        "bundle.params"),
    "string-charge": (
        {"bundle": {"family": "monopole", "params": {"n": "x"}}},
        "bundle.params"),
    "unknown-bundle-param": (
        {"bundle": {"family": "monopole", "params": {"m": 1}}},
        "bundle.params"),
    "params-list": ({"bundle": {"family": "monopole", "params": [1]}},
                    "bundle.params"),
    "torus-order-0": (
        {"bundle": {"family": "torus-flat", "params": {"order": 0}}},
        "bundle.params"),
    "unknown-model": (
        {"bundle": {"family": "trivial", "params": {"model": "cube"}}},
        "bundle.params"),
    "unknown-extension": (
        {"bundle": {"family": "trivial", "params": {"extension": "nope"}}},
        "bundle.params"),
    "fractional-order": ({"bundle": MONOPOLE, "numerics": {"order": 0.5}},
                         "numerics.order"),
    "fractional-steps": ({"bundle": MONOPOLE, "numerics": {"steps": 2.5}},
                         "numerics.steps"),
    "bool-edge-cells": (
        {"bundle": MONOPOLE, "numerics": {"edge_cells": True}},
        "numerics.edge_cells"),
    "string-sample-count": (
        {"bundle": MONOPOLE, "numerics": {"sample_count": "40"}},
        "numerics.sample_count"),
    "negative-seed": ({"bundle": MONOPOLE, "numerics": {"seed": -1}},
                      "numerics.seed"),
    "unknown-loop-param": (
        {"bundle": MONOPOLE,
         "loop": {"name": "latitude", "params": {"thetaa": 1.0}}},
        "loop.params"),
    "fractional-winding": (
        {"bundle": {"family": "torus-flat"},
         "loop": {"name": "winding", "params": {"p": 1.5}}}, "loop.params"),
    "loop-not-on-model": ({"bundle": MONOPOLE, "loop": {"name": "winding"}},
                          "loop.name"),
    "unknown-cylinder-param": (
        {"bundle": MONOPOLE,
         "cylinder": {"name": "cap-sweep", "params": {"alpah": 1.0}}},
        "cylinder.params"),
    "unknown-nested-loop": (
        {"bundle": MONOPOLE,
         "cylinder": {"name": "constant", "params": {"loop": "nope"}}},
        "cylinder.params"),
    "negative-gauge-seed": ({"bundle": MONOPOLE, "gauge": {"seed": -2}},
                            "gauge.seed"),
    "fractional-samples": (
        {"bundle": MONOPOLE,
         "reconstruct": {"samples_per_overlap": 0.5}},
        "reconstruct.samples_per_overlap"),
    "bool-tol": ({"bundle": MONOPOLE, "numerics": {"tol": True}},
                 "numerics.tol"),
    "string-tol": ({"bundle": MONOPOLE, "numerics": {"tol": "1e-3"}},
                   "numerics.tol"),
    "nan-face-tol": ({"bundle": MONOPOLE,
                      "numerics": {"face_tol": float("nan")}},
                     "numerics.face_tol"),
    "infinite-gauge-scale": ({"bundle": MONOPOLE,
                              "gauge": {"scale": float("inf")}},
                             "gauge.scale"),
    "bool-tol-rec": ({"bundle": MONOPOLE, "reconstruct": {"tol_rec": True}},
                     "reconstruct.tol_rec"),
    "string-theta": (
        {"bundle": MONOPOLE,
         "loop": {"name": "latitude", "params": {"theta": "1.0"}}},
        "loop.params"),
    "bool-tilt": (
        {"bundle": MONOPOLE,
         "loop": {"name": "great-circle", "params": {"tilt": True}}},
        "loop.params"),
    "string-alpha": (
        {"bundle": MONOPOLE,
         "cylinder": {"name": "cap-sweep", "params": {"alpha": "2"}}},
        "cylinder.params"),
    "nan-amplitude": (
        {"bundle": {"family": "torus-flat"},
         "cylinder": {"name": "morph", "params": {"amplitude": float("nan")}}},
        "cylinder.params"),
    "string-kappa": (
        {"bundle": {"family": "monopole", "params": {"kappa": "0.8"}}},
        "bundle.params"),
    "bool-mu": ({"bundle": {"family": "sphere-pu2", "params": {"mu": False}}},
                "bundle.params"),
    "infinite-spin": (
        {"bundle": {"family": "sphere-pu2", "params": {"spin": float("inf")}}},
        "bundle.params"),
    "string-flux": (
        {"bundle": {"family": "torus-flat", "params": {"flux": "0.7"}}},
        "bundle.params"),
    # every config object takes exactly its documented keys
    "misspelt-bundle-params": (
        {"bundle": {"family": "monopole", "parms": {"n": 2}},
         "numeric": {"tol": 1e-30}}, "bundle.parms"),
    "unknown-top-level-key": ({"bundle": MONOPOLE, "numeric": {"tol": 1e-30}},
                              "numeric"),
    "misspelt-numerics-key": ({"bundle": MONOPOLE, "numerics": {"stpes": 8}},
                              "numerics.stpes"),
    "misspelt-gauge-key": ({"bundle": MONOPOLE, "gauge": {"sed": 3}},
                           "gauge.sed"),
    "unknown-loop-key": (
        {"bundle": MONOPOLE,
         "loop": {"name": "latitude", "theta": 1.0}}, "loop.theta"),
    "unknown-cylinder-key": (
        {"bundle": MONOPOLE,
         "cylinder": {"name": "cap-sweep", "alpha": 0.3}}, "cylinder.alpha"),
    "unknown-reconstruct-key": (
        {"bundle": TRIVIAL_BUNDLE, "reconstruct": {"samples": 1}},
        "reconstruct.samples"),
    "string-based": ({"bundle": MONOPOLE, "gauge": {"based": "false"}},
                     "gauge.based"),
    "gauge-expression-syntax": (
        {"bundle": MONOPOLE, "gauge": {"B": {"x": "0.3*y +"}}}, "gauge.B.x"),
    "gauge-expression-unknown-function": (
        {"bundle": MONOPOLE, "gauge": {"B": {"x": "0.3*y", "y": "frob(y)"}}},
        "gauge.B.y"),
}


@pytest.mark.parametrize("label", sorted(BAD))
def test_bad_config_exits_two_with_key_path(label, tmp_path, capsys):
    data, path = BAD[label]
    command = {"loop": "hol0", "cylinder": "surface", "gauge": "gauge",
               "reconstruct": "reconstruct"}.get(path.split(".")[0],
                                                 "validate")
    assert main([command, "--config", write_cfg(tmp_path, data)]) == 2
    assert f"(at {path})" in capsys.readouterr().err


def test_out_in_missing_directory_exits_two_before_computing(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run", lambda *args: pytest.fail("computed"))
    cfg = write_cfg(tmp_path, {"bundle": MONOPOLE})
    out = tmp_path / "missing" / "rep.json"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 2
    assert "(at --out)" in capsys.readouterr().err
    assert not out.parent.exists()


def test_out_naming_a_directory_exits_two_before_computing(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run", lambda *args: pytest.fail("computed"))
    cfg = write_cfg(tmp_path, {"bundle": MONOPOLE})
    assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "directory" in capsys.readouterr().err


def test_report_write_failure_exits_two(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path, TRIVIAL)
    out = tmp_path / "rep.json"

    def guarded(path, *args, **kwargs):
        if path == str(out):
            raise PermissionError(13, "Permission denied", path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", guarded, raising=False)
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "cannot write report" in err and "(at --out)" in err
    assert "Traceback" not in err


def test_negative_seed_flag_is_usage_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TRIVIAL)
    assert main(["validate", "--config", cfg, "--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_sphere_pu2_through_the_cli(tmp_path):
    pu2 = {"family": "sphere-pu2"}
    out = tmp_path / "rep.json"
    cfg = write_cfg(tmp_path, {"bundle": pu2})
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["body"]["verdict"] == "pass"

    cfg = write_cfg(tmp_path, {"bundle": pu2, "loop": {
        "name": "latitude", "params": {"theta": 1.0}},
        "numerics": {"steps": 1024}})
    hol = {}
    for command in ("hol0", "hol1"):
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        hol[command] = _matrix(
            json.loads(out.read_text())["body"]["values"]["holonomy"])
    projected = make_extension("u2-pu2").project_mat(hol["hol1"])
    assert np.abs(projected - hol["hol0"]).max() <= 1e-9


@pytest.mark.parametrize("command", ["hol0", "hol1"])
def test_hol_commands_call_the_module_function(tmp_path, monkeypatch,
                                               command):
    """hol0/hol1 are looked up when the command runs, so a function put
    in place of holotwist.cli.hol0 (as the bench tracer does) is called."""
    calls = []
    original = getattr(cli, command)

    def counted(*args, **kwargs):
        calls.append(command)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, command, counted)
    assert main([command, "--config", write_cfg(tmp_path, TRIVIAL)]) == 0
    assert calls == [command]


TORUS_FLAT = {"family": "torus-flat"}

# gauge.B.u sources that raised a traceback (or, for 1e999, passed on
# NaN residuals), with the exit they now give: 2 for a source that the
# parser refuses, 1 for a value that overflows.
MALFORMED_B = {
    "superscript-digit": ("0.3*2²", 2),
    "nested-parentheses": ("(" * 300 + "u" + ")" * 300, 2),
    "leading-minus": ("-" * 1200 + "u", 2),
    "power-chain": ("^".join(["u"] * 1200), 2),
    "nested-calls": ("sin(" * 300 + "u" + ")" * 300, 2),
    "flat-sum": ("+".join(["u"] * 1500), 2),
    "constant-overflow": ("999^999", 1),
    "power-tower": ("2^2^2^2^2", 1),
    "infinite-literal": ("1e999", 2),
}


def _gauge_b(tmp_path, source):
    return main(["gauge", "--config", write_cfg(tmp_path, {
        "bundle": TORUS_FLAT, "gauge": {"B": {"u": source}},
        "numerics": {"sample_count": 10}})])


@pytest.mark.parametrize("label", sorted(MALFORMED_B))
def test_malformed_gauge_expression_is_a_typed_error(tmp_path, capsys,
                                                     label):
    source, code = MALFORMED_B[label]
    assert _gauge_b(tmp_path, source) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert ("(at gauge.B.u)" if code == 2 else "error [DomainError]") in err


def test_empty_gauge_expressions_are_a_config_error(tmp_path, capsys):
    """gauge.B with no coordinate is bad input: exit 2 at gauge.B."""
    assert main(["gauge", "--config", write_cfg(tmp_path, {
        "bundle": TORUS_FLAT, "gauge": {"B": {}}})]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "(at gauge.B)" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_power_with_an_array_exponent(tmp_path, capsys):
    """atan2 of two node arrays is a Dual, so u's node array meets it as
    the exponent of a Dual power, which takes it node by node."""
    out = tmp_path / "rep.json"
    assert main(["gauge", "--config", write_cfg(tmp_path, {
        "bundle": TORUS_FLAT,
        "gauge": {"B": {"u": "atan2(exp(pi), u) ^ u - u - u"}}}),
        "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert json.loads(out.read_text())["body"]["verdict"] == "pass"


# Each nesting shape at the parser's cap of 256 tokens, and at 257.
CAP_SHAPES = {
    "parentheses": ("(" * 127 + "-u" + ")" * 127,
                    "(" * 128 + "u" + ")" * 128),
    "unary": ("-" * 255 + "u", "-" * 256 + "u"),
    "power": ("u^" * 127 + "-u", "u^" * 128 + "u"),
    "calls": ("sin(" * 85 + "u" + ")" * 85,
              "-" + "sin(" * 85 + "u" + ")" * 85),
    "flat-sum": ("u+" * 127 + "-u", "u+" * 128 + "u"),
}


@pytest.mark.parametrize("tokens", [256, 257])
@pytest.mark.parametrize("shape", sorted(CAP_SHAPES))
def test_token_cap_boundary(tmp_path, capsys, shape, tokens):
    source = CAP_SHAPES[shape][tokens - 256]
    assert len(parser._tokenize(source)) == tokens + 1    # and "end"
    assert _gauge_b(tmp_path, source) == (0 if tokens == 256 else 2)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if tokens == 257:
        assert "longer than 256 tokens" in err and "(at gauge.B.u)" in err


def _computed(*args, **kwargs):
    pytest.fail("computed")


@pytest.mark.parametrize("command, key", [
    ("validate", "numerics.sample_count"),
    ("gauge", "numerics.sample_count"),
    ("reconstruct", "reconstruct.samples_per_overlap"),
    ("roundtrip", "reconstruct.samples_per_overlap"),
])
def test_sample_count_over_the_draw_budget_exits_two_before_computing(
        command, key, tmp_path, capsys, monkeypatch):
    for name in ("validate", "random_gauge", "FunctorOracle",
                 "round_trip_check"):
        monkeypatch.setattr(cli, name, _computed)
    section, name = key.split(".")
    cfg = write_cfg(tmp_path, {"bundle": MONOPOLE,
                               section: {name: SAMPLE_BUDGET + 1}})
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"at most {SAMPLE_BUDGET}" in err and f"(at {key})" in err


def test_sample_count_at_the_draw_budget_is_accepted(tmp_path, monkeypatch):
    seen = []

    def fake_validate(bundle, sample_count, seed):
        seen.append(sample_count)
        return ValidationReport({}, 1e-8)

    monkeypatch.setattr(cli, "validate", fake_validate)
    cfg = write_cfg(tmp_path, {"bundle": MONOPOLE,
                               "numerics": {"sample_count": SAMPLE_BUDGET}})
    assert main(["validate", "--config", cfg]) == 0
    assert seen == [SAMPLE_BUDGET]


@pytest.mark.parametrize("command", ["validate", "gauge", "verify"])
@pytest.mark.parametrize("bundle, count, region", [
    ({"family": "torus-flat"}, 5000, "region (0, 1): 3476 of 5000"),
    (MONOPOLE, 4000, "region (0, 1, 2): 995 of 1000"),
])
def test_sample_count_a_region_cannot_meet_is_a_config_error(
        command, bundle, count, region, tmp_path, capsys):
    """A sample count within the draw budget that a region's acceptance
    rate cannot meet exits 2 at the key, with the region, the points it
    accepted and the draws used."""
    cfg = write_cfg(tmp_path, {"bundle": bundle,
                               "numerics": {"sample_count": count}})
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"{region} points accepted in {SAMPLE_BUDGET} draws" in err
    assert "(at numerics.sample_count)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["reconstruct", "roundtrip"])
def test_rebuild_that_checks_nothing_exits_two_before_any_oracle_call(
        command, tmp_path, capsys, monkeypatch):
    # the plane-1 cover has no overlaps and the plane no battery loops
    monkeypatch.setattr(cli, "FunctorOracle", _computed)
    monkeypatch.setattr(cli, "round_trip_check", _computed)
    cfg = write_cfg(tmp_path, {"bundle": {
        "family": "trivial",
        "params": {"model": "plane", "extension": "roots-of-unity-3"}}})
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "(at bundle)" in err
    assert "no overlaps" in err and "no battery loops" in err


def test_verify_finds_a_sample_count_error_before_any_functor_call(
        tmp_path, capsys, monkeypatch):
    """verify runs both validations before its gauge and functor, so a
    sample count a region cannot meet exits 2 with no functor run."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return holonomy_functor(*args, **kwargs)

    holonomy_functor = cli.holonomy_functor
    monkeypatch.setattr(cli, "holonomy_functor", counting)
    cfg = write_cfg(tmp_path, {"bundle": MONOPOLE,
                               "numerics": {"sample_count": 4000}})
    assert main(["verify", "--config", cfg]) == 2
    assert "(at numerics.sample_count)" in capsys.readouterr().err
    assert calls == []


# Family parameters over their magnitude bounds: each overflowed a
# kernel (a RuntimeWarning) in the command at the parent of the bounds,
# except torus-flat k, whose 2 pi k overflowed to non-finite data (inf
# residuals, a diverged line holonomy) without a warning.
OVER_BOUND = [
    ("validate", "monopole", "kappa", 1e300),
    ("validate", "monopole", "mu", -1e300),
    ("validate", "sphere-pu2", "spin", 1e300),
    ("hol1", "sphere-pu2", "spin", 1e10),
    ("functor", "sphere-pu2", "flux", 1e160),
    ("validate", "torus-flat", "flux", -1e307),
    ("validate", "monopole", "n", 1e20),
    ("validate", "torus-flat", "k", 3e307),
]
CAP_SWEEP = {"name": "cap-sweep", "params": {"alpha": 2.0}}
BOUND_LATITUDE = {"name": "latitude", "params": {"theta": 1.0}}


def _family_run(tmp_path, command, family, key, value):
    return main([command, "--config", write_cfg(tmp_path, {
        "bundle": {"family": family, "params": {key: value}},
        "loop": (BOUND_LATITUDE if family != "torus-flat"
                 else {"name": "winding"}),
        "cylinder": CAP_SWEEP if family != "torus-flat" else {"name": "morph"},
        "numerics": {"steps": 32, "order": 4, "edge_cells": 1,
                     "face_tol": 1e-4}})])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, family, key, value", OVER_BOUND)
def test_family_parameter_over_its_bound_exits_two(tmp_path, capsys, command,
                                                    family, key, value):
    assert _family_run(tmp_path, command, family, key, value) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{key} must have magnitude at most" in err
    assert "(at bundle.params)" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("family, key", [
    ("monopole", "kappa"), ("monopole", "mu"), ("sphere-pu2", "kappa"),
    ("sphere-pu2", "mu"), ("sphere-pu2", "spin"), ("sphere-pu2", "flux"),
    ("torus-flat", "flux"), ("monopole", "n"), ("torus-flat", "k")])
def test_family_parameter_at_its_bound_runs(tmp_path, capsys, family, key):
    """At the bound, validate and hol1 compute (exit 0 or 1) without an
    overflow."""
    for command in ("validate", "hol1"):
        for value in (PARAM_BOUNDS[key], -PARAM_BOUNDS[key]):
            assert _family_run(tmp_path, command, family, key, value) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err


# One cheap run of each command that a CLI user reaches most: a U(2)
# random gauge draws its generators with the matrix logarithm.
NO_SCIPY_RUNS = {
    "hol0": {"bundle": {"family": "sphere-pu2"}, "loop": BOUND_LATITUDE,
             "numerics": {"steps": 64}},
    "functor": CHEAP["functor"],
    "validate": CHEAP["validate"],
    "gauge": {"bundle": {"family": "sphere-pu2"},
              "numerics": {"sample_count": 8}},
    "verify": CHEAP["verify"],
    "reconstruct": CHEAP["reconstruct"],
    "roundtrip": CHEAP["roundtrip"],
}


def test_commands_run_without_importing_scipy(tmp_path):
    """A fresh interpreter runs hol0, functor, validate, a random gauge,
    verify, reconstruct and a trivial round trip through cli.main, each
    exiting 0 or 1, and scipy is never imported."""
    paths = {command: write_cfg(tmp_path, data, f"{command}.json")
             for command, data in NO_SCIPY_RUNS.items()}
    script = (
        "import sys\n"
        "from holotwist.cli import main\n"
        f"for command, path in {paths!r}.items():\n"
        "    assert main([command, '--config', path]) in (0, 1), command\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", script],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=600)
    assert run.returncode == 0, run.stderr[-2000:]


def test_trace_check_compares_the_refined_grid(tmp_path):
    """trace's check is |tr - tr'| between rep_target on the command's
    grid and on the refined grid at twice the steps: on a coarse cap
    sweep it reads what the refinement moves, not 0."""
    out = tmp_path / "rep.json"
    cfg = write_cfg(tmp_path, {"bundle": MONOPOLE, "cylinder": CAP_SWEEP,
                               "numerics": COARSE})
    assert main(["trace", "--config", cfg, "--out", str(out)]) == 1
    check = json.loads(out.read_text())["body"]["checks"][
        "refinement_invariance"]
    bundle = make_bundle("monopole")
    cyl = catalog.make_cylinder("sphere", "cap-sweep", {"alpha": 2.0})
    quad = {k: COARSE[k] for k in ("order", "edge_cells", "face_tol")}
    res = holonomy.holonomy_functor(bundle, cyl, steps=32, **quad)
    bot, top, rect = res.subdivision
    fine = holonomy.holonomy_functor(
        bundle, cyl, bottom_sub=bot, top_sub=top,
        rect=geometry.refine_rect(rect), steps=64, **quad)
    tr, tr2 = (complex(np.trace(r.value.rep_target.entries))
               for r in (res, fine))
    assert check == abs(tr - tr2) > 1e-6
