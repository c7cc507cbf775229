"""Command-line interface: configs, reports, exit codes, determinism."""

import json
import math

import numpy as np
import pytest

from holotwist import cli
from holotwist.cli import COMMANDS, main
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
