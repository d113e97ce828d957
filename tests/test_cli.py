import argparse
import csv
import json
import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from tbdde import DdeModel, NearSingular, TbCandidate, cli, models

FIXTURES = Path(__file__).parent / "fixtures"
SOLVE_FIXTURES = sorted(FIXTURES.glob("solve_pp_*.json"))

POINT = {"x": [1.0, 1.0], "lambda": 0.5, "mu": 2.0}

SPECTRAL_CAVEAT = ("the test assumes no other eigenvalue on the imaginary axis; "
                   "run a spectral scan to check")


def checks(*rows):
    """A JSON checks table from (name, value, threshold, ok) rows."""
    return {name: {"value": value, "threshold": threshold, "ok": ok}
            for name, value, threshold, ok in rows}


# `tbdde verify --json` verdicts on the two verify fixtures, frozen
VERDICTS = {
    "verify_pp_point": {
        "existence": {"checks": checks(("rank", 1, 1, True), ("range", 0.0, 1e-08, True),
                                       ("nondegeneracy", -2.0, 1e-08, True)),
                      "tol": 1e-08, "spectral_caveat": SPECTRAL_CAVEAT, "passed": True},
        "checks": checks(("transversality", 0.7071067811865475, 1e-08, True),
                         ("d0", 0.0883883476483184, 1e-08, True),
                         ("equilibrium", 0.0, 1e-08, True)),
        "c_lam_mu": -0.0, "nu": [0.0, 0.5], "psi2_nu": -0.35355339059327373,
        "passed": True,
    },
    "verify_pp_off": {
        "existence": {"checks": checks(("rank", 1, 1, True),
                                       ("range", -0.19611613513818393, 1e-08, False),
                                       ("nondegeneracy", None, 1e-08, False)),
                      "tol": 1e-08, "spectral_caveat": SPECTRAL_CAVEAT, "passed": False},
        "checks": checks(("transversality", None, 1e-08, False),
                         ("d0", None, 1e-08, False),
                         ("equilibrium", 0.09999999999999998, 1e-08, False)),
        "c_lam_mu": None, "nu": [None, None], "psi2_nu": None, "passed": False,
    },
}


def failed(verdict):
    """The names of a JSON verdict's failed checks, the existence test's included."""
    return {name for table in (verdict["existence"]["checks"], verdict["checks"])
            for name, check in table.items() if not check["ok"]}

# `tbdde solve --json` Newton reports on the four solve fixtures, frozen:
# iterations, residual_history and solution, exactly
SOLVED = {
    "solve_pp_1": (6, [4.5054073421920116, 4.329587204852787, 0.1638337945554612,
                       0.001351727626342242, 3.7035034922854414e-06,
                       1.908029289995131e-11, 4.682981255979531e-22],
                   {"x": [1.0, 1.0], "phi1": [1.0, -4.682981255979531e-22],
                    "phi2": [2.2812898124130913e-23, -2.0], "lambda": 0.5, "mu": 2.0}),
    "solve_pp_2": (7, [5.017737167428111, 3.087738861904549, 0.6471880036342155,
                       0.1788878995287151, 0.02368785213156592, 0.0005362347672801682,
                       2.8726131015962403e-07, 8.260059305477932e-14],
                   {"x": [1.0, 1.0], "phi1": [0.9999999999999999, 4.533536921739566e-23],
                    "phi2": [-8.850048638583975e-24, -1.9999999999999998],
                    "lambda": 0.5, "mu": 1.9999999999998348}),
    "solve_pp_3": (8, [3.5048076923076925, 0.8384989750934503, 0.4458751284363192,
                       0.337331943244346, 0.11694767233508671, 0.003562023055279153,
                       2.410153034263136e-05, 9.664066213943556e-10,
                       1.2737961047857211e-20],
                   {"x": [1.0, 1.0], "phi1": [1.0, 1.2737961047857211e-20],
                    "phi2": [2.825398556475389e-21, -2.0], "lambda": 0.5, "mu": 2.0}),
    "solve_pp_4": (7, [4.47221052631579, 3.2652539442677213, 0.528717628261576,
                       0.11175897200640339, 0.0074736378211212266, 6.268456074380595e-06,
                       9.378610032272435e-11, 2.2204471760254037e-16],
                   {"x": [1.0, 1.0], "phi1": [1.0, -2.253550181324155e-22],
                    "phi2": [4.011981067247038e-21, -2.0], "lambda": 0.5,
                    "mu": 2.0000000000000004}),
}


def strict_json(text):
    """Parse a document that must be standard JSON: no NaN or Infinity."""
    def reject(constant):
        raise ValueError(f"{constant} is not valid JSON")
    return json.loads(text, parse_constant=reject)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# a number literal json parses to inf; json.dumps cannot write it, so
# write_config writes a value equal to this string unquoted
OVERFLOW = "1e400"


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload).replace(json.dumps(OVERFLOW), OVERFLOW))
    return str(path)


@pytest.fixture
def built_models(monkeypatch, counted_model):
    """The f/d1/d2 call counts of each model ``models.build`` returns from now on."""
    from tbdde import models

    counters = []
    build = models.build

    def counted_build(*args, **kwargs):
        model, counts = counted_model(build(*args, **kwargs))
        counters.append(counts)
        return model

    monkeypatch.setattr(models, "build", counted_build)
    return counters


class TestSolve:
    @pytest.mark.parametrize("fixture", SOLVE_FIXTURES,
                             ids=[p.stem for p in SOLVE_FIXTURES])
    def test_fixture_converges_and_verifies(self, capsys, fixture):
        code, out, _ = run(capsys, "solve", "--config", str(fixture), "--json")
        assert code == 0
        result = strict_json(out)
        # the emitted document survives a serialization round trip unchanged
        assert json.loads(json.dumps(result)) == result
        rep = result["report"]
        assert rep["converged"]
        assert rep["residual_history"][-1] <= 1e-12
        assert (rep["iterations"], rep["residual_history"], rep["solution"]) \
            == SOLVED[fixture.stem]
        sol = rep["solution"]
        assert sol["x"] == pytest.approx(POINT["x"], abs=1e-9)
        assert sol["lambda"] == pytest.approx(POINT["lambda"], abs=1e-9)
        assert sol["mu"] == pytest.approx(POINT["mu"], abs=1e-9)
        assert result["verdict"]["passed"] is True

    def test_converged_start_emits_strict_json(self, capsys, tmp_path):
        # Newton stops before its first step, so no condition number was
        # computed: final_cond is null, not NaN
        cfg = json.loads((FIXTURES / "verify_pp_point.json").read_text())
        cfg["initial"] = cfg.pop("point")
        cfg.update(l1=[1.0, 0.0], l2=[1.0, 0.0])
        code, out, _ = run(capsys, "solve", "--config",
                           write_config(tmp_path, cfg), "--json")
        assert code == 0
        rep = strict_json(out)["report"]
        assert rep["iterations"] == 0 and rep["final_cond"] is None
        assert rep["solution"] == cfg["initial"]

    def test_default_rows_reproduce_the_fixture(self, capsys, tmp_path):
        # solve_pp_1.json's l1 = l2 = (1, 0) are the default rows of its
        # guess phi1 = (1, 0): left out, they give the same run exactly
        cfg = json.loads((FIXTURES / "solve_pp_1.json").read_text())
        del cfg["l1"], cfg["l2"]
        code, out, _ = run(capsys, "solve", "--config", write_config(tmp_path, cfg), "--json")
        assert code == 0
        rep = strict_json(out)["report"]
        assert (rep["iterations"], rep["residual_history"], rep["solution"]) \
            == SOLVED["solve_pp_1"]

    def test_given_row_is_kept_beside_a_default_one(self, capsys, tmp_path,
                                                    monkeypatch):
        # with only l2 given, l1 is the default row e0 of phi1 = (1, 0), and
        # l2 is the given row, not the default
        seen = []
        newton_solve = cli.newton_solve

        def recorded(model, v0, L, *args):
            seen.append((L.l1.tolist(), L.l2.tolist()))
            return newton_solve(model, v0, L, *args)

        monkeypatch.setattr(cli, "newton_solve", recorded)
        cfg = json.loads((FIXTURES / "solve_pp_1.json").read_text())
        del cfg["l1"]
        cfg["l2"] = [0.0, 1.0]
        code, _, _ = run(capsys, "solve", "--config", write_config(tmp_path, cfg), "--json")
        assert code in (0, 2, 3)
        assert seen == [([1.0, 0.0], [0.0, 1.0])]

    def test_plain_output_lists_iterations(self, capsys):
        code, out, _ = run(capsys, "solve", "--config", str(SOLVE_FIXTURES[0]))
        assert code == 0
        assert "converged in" in out
        assert "|H|_inf" in out

    def test_far_initial_value_exit_2(self, capsys, tmp_path):
        cfg = json.loads(SOLVE_FIXTURES[0].read_text())
        cfg["initial"] = {"x": [100.0, 100.0], "phi1": [100.0, 100.0],
                          "phi2": [100.0, 100.0], "lambda": 100.0, "mu": 100.0}
        code, out, _ = run(capsys, "solve", "--config",
                           write_config(tmp_path, cfg), "--json")
        assert code == 2
        assert not strict_json(out)["report"]["converged"]

    @pytest.mark.filterwarnings("error")
    def test_non_finite_history_plain_exit_2(self, capsys, tmp_path):
        # a finite start whose residual overflows: the plain table prints inf
        # and NaN where the JSON document has null, and numpy prints nothing
        cfg = json.loads(SOLVE_FIXTURES[0].read_text())
        cfg["initial"]["x"] = [1e200, 1.1]
        path = write_config(tmp_path, cfg)
        code, out, err = run(capsys, "solve", "--config", path, "--json")
        assert code == 2 and err == ""
        assert strict_json(out)["report"]["failure_reason"] == "diverged"
        code, out, err = run(capsys, "solve", "--config", path)
        assert code == 2 and err == ""
        assert "did not converge: diverged" in out

    def test_max_iter_flag_caps_iterations(self, capsys, tmp_path):
        # max_iter is set in the config, the one source of Newton options
        cfg = json.loads(SOLVE_FIXTURES[0].read_text())
        cfg["max_iter"] = 2
        code, out, _ = run(capsys, "solve", "--config", write_config(tmp_path, cfg),
                           "--json")
        assert code == 2
        rep = strict_json(out)["report"]
        assert rep["failure_reason"] == "max_iter" and rep["iterations"] == 2

    def test_json_keys(self, capsys):
        # the linearization a report carries for the certificate is not written
        _, out, _ = run(capsys, "solve", "--config", str(SOLVE_FIXTURES[0]), "--json")
        result = strict_json(out)
        assert list(result) == ["config", "tool_version", "timestamp", "report",
                                "verdict", "verify_error"]
        assert list(result["report"]) == ["converged", "iterations", "residual_history",
                                          "final_cond", "failure_reason", "solution"]

    def test_point_evaluated_once_per_iterate(self, capsys, built_models):
        # the certificate reuses Newton's last linearization: f, f1 = d1 and
        # f2 = d2 are evaluated once per iterate, the start included
        code, out, _ = run(capsys, "solve", "--config", str(SOLVE_FIXTURES[0]), "--json")
        assert code == 0
        iterates = strict_json(out)["report"]["iterations"] + 1
        assert [dict(c) for c in built_models] == [{"f": iterates, "d1": iterates,
                                                    "d2": iterates}]

    def test_verification_error_plain(self, capsys, monkeypatch):
        # a converged run whose certificate raises prints the error, exit 3
        def refused(f1, f2):
            raise NearSingular("condition estimate refused")

        monkeypatch.setattr(cli, "compute_basis", refused)
        code, out, _ = run(capsys, "solve", "--config", str(SOLVE_FIXTURES[0]))
        assert code == 3
        assert "converged in 6 iterations" in out
        assert out.splitlines()[-1] == \
            "verification error: NearSingular: condition estimate refused"

    def test_missing_config_flag_exit_4(self, capsys):
        code, _, err = run(capsys, "solve")
        assert code == 4
        assert "--config" in err

    def test_unknown_flag_exit_4(self, capsys):
        code, _, _ = run(capsys, "solve", "--config", str(SOLVE_FIXTURES[0]),
                         "--jacobian", "fd")
        assert code == 4

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--help"])
        assert exc.value.code == 0
        assert "--config" in capsys.readouterr().out

    def test_unknown_model_exit_4(self, capsys, tmp_path):
        cfg = json.loads(SOLVE_FIXTURES[0].read_text())
        cfg["model"] = "does-not-exist"
        code, _, err = run(capsys, "solve", "--config",
                           write_config(tmp_path, cfg))
        assert code == 4
        assert "config error" in err

    def test_malformed_json_exit_4(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "solve", "--config", str(path))
        assert code == 4 and "config error" in err

    def test_missing_initial_exit_4(self, capsys, tmp_path):
        cfg = json.loads(SOLVE_FIXTURES[0].read_text())
        del cfg["initial"]
        code, _, _ = run(capsys, "solve", "--config",
                         write_config(tmp_path, cfg))
        assert code == 4


DELETE = object()

BAD_CONFIGS = {
    # id: (command, path of the replaced config field, its value); the empty
    # path replaces the whole config, and the value DELETE deletes the field
    "lambda-string": ("solve", ("initial", "lambda"), "abc"),
    "lambda-null": ("solve", ("initial", "lambda"), None),
    "lambda-nan": ("solve", ("initial", "lambda"), float("nan")),
    "x-infinity": ("solve", ("initial", "x"), [float("-inf"), 1.1]),
    "l1-overflow": ("solve", ("l1",), ["1e999", 0.0]),
    "max-iter-string": ("solve", ("max_iter",), "abc"),
    "max-iter-negative": ("solve", ("max_iter",), -1),
    "max-iter-fraction": ("solve", ("max_iter",), 2.7),
    "max-iter-bool": ("solve", ("max_iter",), True),
    "tol-res-bool": ("solve", ("tol_res",), True),
    "tol-res-list": ("solve", ("tol_res",), [1]),
    "tol-res-negative": ("solve", ("tol_res",), -1e-12),
    "tol-step-negative": ("solve", ("tol_step",), -1.0),
    "tol-res-nan-string": ("solve", ("tol_res",), "nan"),
    "tol-res-negative-string": ("solve", ("tol_res",), "-1"),
    "constants-string": ("solve", ("model_constants",), "x"),
    "constants-infinity": ("solve", ("model_constants",), {"a": float("inf")}),
    "constants-D": ("solve", ("model_constants",), {"D": 0.1}),
    "constants-K": ("solve", ("model_constants",), {"K": 7}),
    "tau-overflow": ("solve", ("model_constants",), {"tau": OVERFLOW}),
    "r-overflow": ("solve", ("model_constants",), {"r": OVERFLOW}),
    "scan-axis-index": ("scan", ("scan",), {"x[a]": {"min": 0, "max": 1, "count": 2}}),
    "scan-min-string": ("scan", ("scan", "lambda", "min"), "abc"),
    "scan-count-string": ("scan", ("scan", "lambda", "count"), "abc"),
    "scan-count-fraction": ("scan", ("scan", "lambda", "count"), 2.5),
    "scan-count-huge": ("scan", ("scan", "lambda", "count"), 1e13),
    "x-bool": ("solve", ("initial", "x"), [True, 1.1]),
    # a config number is a JSON number: a numeric string is not one
    "tol-res-numeric-string": ("solve", ("tol_res",), "1e-10"),
    "lambda-numeric-string": ("solve", ("initial", "lambda"), "0.4"),
    "root-list": ("solve", (), []),
    "model-missing": ("solve", ("model",), DELETE),
    "initial-without-x": ("solve", ("initial", "x"), DELETE),
    "initial-without-lambda": ("solve", ("initial", "lambda"), DELETE),
    "scan-axis-without-max": ("scan", ("scan", "lambda", "max"), DELETE),
    "scan-count-0": ("scan", ("scan", "lambda", "count"), 0),
    "scan-axis-y": ("scan", ("scan",), {"y[0]": {"min": 0, "max": 1, "count": 2}}),
    "max-iter-misspelled": ("solve", ("max_iters",), 1),
}


@pytest.mark.parametrize("command, path, value", BAD_CONFIGS.values(),
                         ids=list(BAD_CONFIGS))
def test_bad_config_value_exit_4(capsys, tmp_path, monkeypatch, command, path, value):
    # every config field is checked before any run
    runs = []
    monkeypatch.setattr(cli, "newton_solve", lambda *a: runs.append(a))
    base = SOLVE_FIXTURES[0] if command == "solve" else FIXTURES / "scan_pp.json"
    cfg = json.loads(base.read_text()) if path else value
    section = cfg
    for key in path[:-1]:
        section = section[key]
    if value is DELETE:
        del section[path[-1]]
    elif path:
        section[path[-1]] = value
    code, out, err = run(capsys, command, "--config", write_config(tmp_path, cfg))
    assert code == 4 and out == "" and not runs
    assert "config error" in err and "Traceback" not in err
    # a missing field, or a rejected finite or boolean number, is named by its key
    if value is DELETE or type(value) is bool or (type(value) is float
                                                  and math.isfinite(value)):
        assert path[-1] in err


def test_unknown_config_key_is_named(capsys, tmp_path):
    # a misspelled option would otherwise be ignored and the run go on
    cfg = json.loads(SOLVE_FIXTURES[0].read_text()) | {"max_iters": 1}
    code, out, err = run(capsys, "solve", "--config", write_config(tmp_path, cfg))
    assert code == 4 and out == ""
    assert err.startswith("config error: unknown config field 'max_iters'")


def test_every_command_reads_one_set_of_keys(capsys):
    # the scan fixture's scan field is a known key to solve as well
    code, _, _ = run(capsys, "solve", "--config", str(FIXTURES / "scan_pp.json"))
    assert code == 0


def test_config_directory_exit_4(capsys, tmp_path):
    code, out, err = run(capsys, "solve", "--config", str(tmp_path))
    assert code == 4 and out == ""
    assert err.startswith("config error: cannot read config") and "Traceback" not in err


def test_boolean_model_constant_exit_4(capsys, tmp_path):
    # JSON false is not the number 0 in model_constants either
    cfg = json.loads(SOLVE_FIXTURES[0].read_text())
    cfg.update(model="synthetic-tb", model_constants={"a1": False})
    code, out, err = run(capsys, "solve", "--config", write_config(tmp_path, cfg))
    assert code == 4 and out == ""
    assert "config error" in err and "a1" in err


@pytest.mark.parametrize("constants", [[["tau", 2]], "abc", 0, "", [], False, None],
                         ids=["pairs", "string", "zero", "empty-string", "empty-list",
                              "false", "null"])
def test_model_constants_must_be_an_object_exit_4(capsys, tmp_path, monkeypatch, constants):
    # a list of pairs would otherwise run at tau = 2, and a falsy value at the
    # default constants
    runs = []
    monkeypatch.setattr(cli, "newton_solve", lambda *a: runs.append(a))
    cfg = json.loads(SOLVE_FIXTURES[0].read_text()) | {"model_constants": constants}
    code, out, err = run(capsys, "solve", "--config", write_config(tmp_path, cfg))
    assert code == 4 and out == "" and not runs
    assert err == "config error: config field 'model_constants' must be an object\n"


class TestVerify:
    def test_known_point_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--config",
                           str(FIXTURES / "verify_pp_point.json"), "--json")
        assert code == 0
        payload = strict_json(out)
        assert payload["verdict"] == VERDICTS["verify_pp_point"]
        assert json.loads(json.dumps(payload)) == payload

    def test_point_without_chain_vectors(self, capsys, tmp_path):
        # the verdict reads x, lambda and mu only, so phi1 and phi2 are optional
        code, out, _ = run(capsys, "verify", "--config",
                           write_config(tmp_path, {"model": "predator-prey",
                                                   "point": POINT}), "--json")
        assert code == 0
        assert strict_json(out)["verdict"] == VERDICTS["verify_pp_point"]

    @pytest.mark.parametrize("key, value", [("phi1", [1.0]), ("phi2", [0.0, "abc"]),
                                            ("phi1", [True, 0.0])],
                             ids=["short", "string", "bool"])
    def test_given_chain_vector_is_checked(self, capsys, tmp_path, key, value):
        cfg = {"model": "predator-prey", "point": {**POINT, key: value}}
        code, out, err = run(capsys, "verify", "--config", write_config(tmp_path, cfg))
        assert code == 4 and out == ""
        assert "config error" in err and key in err

    def test_wrong_parameter_exit_3(self, capsys):
        # same state but the death rate moved off the bifurcation value
        code, out, _ = run(capsys, "verify", "--config",
                           str(FIXTURES / "verify_pp_off.json"), "--json")
        assert code == 3
        payload = strict_json(out)
        assert payload["verdict"] == VERDICTS["verify_pp_off"]
        # range and equilibrium fail on their values; nondegeneracy, not
        # evaluated off the range, fails with a null value, and so do
        # transversality and d0 on the NaN basis of a failed existence test
        verdict = payload["verdict"]
        assert failed(verdict) == {"range", "nondegeneracy", "transversality", "d0",
                                   "equilibrium"}
        assert verdict["existence"]["checks"]["nondegeneracy"]["value"] is None

    def test_full_rank_point_gets_a_verdict(self, capsys):
        # the predator-prey equilibrium at D = 0.4, K = 2 has no zero
        # eigenvalue: not a verify error but a FAIL verdict naming the rank
        # check, with the equilibrium check still reported, ok
        code, out, _ = run(capsys, "verify", "--config",
                           str(FIXTURES / "verify_pp_full_rank.json"), "--json")
        assert code == 3
        payload = strict_json(out)
        verdict = payload["verdict"]
        assert payload["verify_error"] is None and not verdict["passed"]
        assert verdict["existence"]["checks"]["rank"] == {"value": 2, "threshold": 1,
                                                          "ok": False}
        assert verdict["checks"]["equilibrium"] == {"value": 0.0, "threshold": 1e-08,
                                                    "ok": True}
        code, out, _ = run(capsys, "verify", "--config",
                           str(FIXTURES / "verify_pp_full_rank.json"))
        assert code == 3
        assert "rank            2  threshold 1: FAIL" in out.splitlines()
        assert out.splitlines()[-1] == "verdict: FAIL"

    def test_d0_fails_exactly_where_the_defining_system_is_singular(self, capsys,
                                                                     tmp_path):
        # synthetic-tb's origin with a4 = -1.75 is a root of the defining
        # system with a singular Jacobian: d0 = 0 there, so the point fails;
        # with a4 = -2.0 the Jacobian is regular and Newton's point passes
        code, out, _ = run(capsys, "verify", "--config",
                           str(FIXTURES / "verify_synthetic_singular.json"), "--json")
        assert code == 3
        verdict = strict_json(out)["verdict"]
        assert failed(verdict) == {"d0"}
        d0 = verdict["checks"]["d0"]
        assert abs(d0["value"]) <= d0["threshold"] == verdict["existence"]["tol"]
        cfg = {"model": "synthetic-tb", "model_constants": {"a4": -2.0},
               "initial": {"x": [0.05, -0.04], "phi1": [0.7, 0.03],
                           "phi2": [0.1, 1.3], "lambda": 0.04, "mu": -0.03},
               "l1": [1.0, 0.0], "l2": [1.0, 0.0]}
        code, out, _ = run(capsys, "solve", "--config", write_config(tmp_path, cfg), "--json")
        assert code == 0
        verdict = strict_json(out)["verdict"]
        assert verdict["passed"]
        assert verdict["checks"]["d0"]["value"] == pytest.approx(-math.sqrt(2.0) / 4.0, rel=1e-9)

    def test_off_equilibrium_reported_on_every_call(self, capsys):
        # the residual is a verdict field, so a repeated in-process verify
        # reports it as the first one did, and no warning is raised
        path = str(FIXTURES / "verify_pp_off.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(2):
                code, out, _ = run(capsys, "verify", "--config", path, "--json")
                assert code == 3
                assert strict_json(out)["verdict"]["checks"]["equilibrium"]["value"] == (
                    pytest.approx(0.1, rel=1e-12))
                code, out, _ = run(capsys, "verify", "--config", path)
                assert code == 3
                assert "equilibrium     0.0999999999" in out

    @pytest.mark.parametrize("as_json", [False, True], ids=["plain", "json"])
    def test_non_finite_linearization_is_a_verify_error(self, capsys, tmp_path,
                                                        as_json):
        # f1 and f2 overflow this far out: the point fails verification
        # with a typed error, and nothing is written to stderr
        cfg = json.loads((FIXTURES / "verify_pp_point.json").read_text())
        cfg["point"]["x"] = [1e200, 1e200]
        code, out, err = run(capsys, "verify", "--config", write_config(tmp_path, cfg),
                             *(["--json"] if as_json else []))
        assert code == 3 and err == ""
        if as_json:
            payload = strict_json(out)
            assert payload["verdict"] is None
            assert payload["verify_error"].startswith("NearSingular")
        else:
            assert out.startswith("verification error: NearSingular")

    @pytest.mark.parametrize("as_json", [False, True], ids=["plain", "json"])
    def test_condition_i_failure_is_a_verdict(self, capsys, tmp_path, monkeypatch,
                                              as_json):
        # predator-prey with D and K swapped: psi2 . f_lambda vanishes at the
        # TB point, so verify exits 3 with a FAIL verdict, not a verify error
        pp = models.predator_prey()

        def swap(fn):
            return lambda x, y, lam, mu: fn(x, y, mu, lam)

        swapped = DdeModel(
            n=2, tau=1.0, f=swap(pp.f), d1=swap(pp.d1), d2=swap(pp.d2),
            dlam=swap(pp.dmu), dmu=swap(pp.dlam),
            ddir=lambda x, y, lam, mu, dx, dy, dlam, dmu: pp.ddir(x, y, mu, lam,
                                                                  dx, dy, dmu, dlam))
        monkeypatch.setattr(models, "build", lambda *args: swapped)
        cfg = {"model": "predator-prey",
               "point": {"x": [1.0, 1.0], "lambda": 2.0, "mu": 0.5}}
        code, out, err = run(capsys, "verify", "--config", write_config(tmp_path, cfg),
                             *(["--json"] if as_json else []))
        assert code == 3 and err == ""
        if not as_json:
            assert "transversality  0.0  threshold 1e-08: FAIL" in out
            assert out.splitlines()[-1] == "verdict: FAIL"
            return
        payload = strict_json(out)
        assert payload["verify_error"] is None
        v = payload["verdict"]
        assert v["passed"] is False and failed(v) == {"transversality", "d0"}
        assert v["checks"]["d0"]["value"] is None
        assert v["c_lam_mu"] is None and v["psi2_nu"] is None and v["nu"] == [None, None]

    def test_plain_output_has_verdict_line(self, capsys):
        code, out, _ = run(capsys, "verify", "--config",
                           str(FIXTURES / "verify_pp_point.json"))
        assert code == 0 and out.splitlines()[-1] == "verdict: PASS"

    @pytest.mark.parametrize("flag", [["--tol", "1e-3"], ["--max-iter", "3"]])
    def test_newton_flags_rejected_exit_4(self, capsys, flag):
        # Newton options are config keys only: no command, verify included,
        # takes them as flags
        for command, config in (("solve", SOLVE_FIXTURES[0]),
                                ("scan", FIXTURES / "scan_pp.json"),
                                ("verify", FIXTURES / "verify_pp_point.json")):
            code, out, err = run(capsys, command, "--config", str(config), *flag)
            assert code == 4 and out == ""
            assert "unrecognized arguments" in err and flag[0] in err

    def test_point_evaluated_once(self, capsys, monkeypatch, built_models):
        # one linearization per point: f, f1 = d1 and f2 = d2 are evaluated
        # once, and S = f1 + f2 is decomposed once, for basis and certificate
        from tbdde import linalg

        svds = []
        svd = linalg.rank_and_nullspace

        def counted_svd(*args, **kwargs):
            svds.append(args)
            return svd(*args, **kwargs)

        monkeypatch.setattr(linalg, "rank_and_nullspace", counted_svd)
        code, _, _ = run(capsys, "verify", "--config",
                         str(FIXTURES / "verify_pp_point.json"), "--json")
        assert code == 0
        assert [dict(c) for c in built_models] == [{"f": 1, "d1": 1, "d2": 1}]
        assert len(svds) == 1

    def test_failed_basis_costs_no_f_call(self, capsys, tmp_path, monkeypatch,
                                          counted_model):
        # the predator-prey equilibrium at D = 0.4, K = 2 is off the TB point:
        # S = f1 + f2 has full rank, so the basis is NaN, and the verdict
        # reports equilibrium and transversality, from one call each of f,
        # d1, d2, dlam and dmu, and no second derivative
        counts, build = [], models.build

        def counted_build(*args):
            model, calls = counted_model(build(*args), ("f", "d1", "d2", "dlam", "dmu",
                                                        "ddir"))
            counts.append(calls)
            return model

        monkeypatch.setattr(models, "build", counted_build)
        D, K = 0.4, 2.0
        x1 = (1.0 - math.sqrt(1.0 - 4.0 * D * D)) / (2.0 * D)
        cfg = {"model": "predator-prey",
               "point": {"x": [x1, (1.0 - x1 / K) * (1.0 + x1 * x1)], "lambda": D, "mu": K}}
        code, out, _ = run(capsys, "verify", "--config", write_config(tmp_path, cfg),
                           "--json")
        assert code == 3
        assert strict_json(out)["verify_error"] is None
        assert [dict(c) for c in counts] == [{"f": 1, "d1": 1, "d2": 1, "dlam": 1,
                                              "dmu": 1}]


class TestScan:
    def test_grid_dedupes_to_one_point(self, capsys, tmp_path):
        out_csv = str(tmp_path / "scan.csv")
        code, _, err = run(capsys, "scan", "--config",
                           str(FIXTURES / "scan_pp.json"), "--csv", out_csv)
        assert code == 0
        assert "1 distinct point(s)" in err
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        assert all(r["converged"] == "True" for r in rows)
        lams = {float(r["lambda"]) for r in rows}
        assert all(abs(l - 0.5) <= 1e-9 for l in lams)

    def test_single_cell_matches_solve(self, capsys, tmp_path):
        cfg = json.loads((FIXTURES / "scan_pp.json").read_text())
        cfg["scan"] = {"lambda": {"min": 0.4, "max": 0.4, "count": 1}}
        out_csv = str(tmp_path / "one.csv")
        code, _, _ = run(capsys, "scan", "--config",
                         write_config(tmp_path, cfg), "--csv", out_csv)
        assert code == 0
        with open(out_csv) as fh:
            row = next(csv.DictReader(fh))
        solve_code, out, _ = run(capsys, "solve", "--config",
                                 str(FIXTURES / "solve_pp_1.json"), "--json")
        sol = strict_json(out)["report"]["solution"]
        assert solve_code == 0
        assert float(row["x0"]) == pytest.approx(sol["x"][0], abs=1e-12)
        assert int(row["iterations"]) == strict_json(out)["report"]["iterations"]

    def test_output_dir_env_redirects_csv(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
        cfg = json.loads((FIXTURES / "scan_pp.json").read_text())
        cfg["scan"] = {"mu": {"min": 1.0, "max": 1.0, "count": 1}}
        code, _, _ = run(capsys, "scan", "--config",
                         write_config(tmp_path, cfg), "--csv", "rel.csv")
        assert code == 0
        assert os.path.exists(tmp_path / "rel.csv")

    def test_unwritable_csv_exit_4_before_the_grid(self, capsys, tmp_path, monkeypatch):
        runs = []
        monkeypatch.setattr(cli, "newton_solve", lambda *a: runs.append(a))
        code, out, err = run(capsys, "scan", "--config", str(FIXTURES / "scan_pp.json"),
                             "--csv", str(tmp_path / "missing" / "out.csv"))
        assert code == 4 and out == "" and not runs
        assert err.startswith("config error: cannot write CSV")

    def test_config_error_in_the_grid_keeps_the_csv(self, capsys, tmp_path, monkeypatch):
        # l1 and l2 are checked with every other config field, before the CSV
        # target is opened and before any run, so a bad one, or two given zero
        # rows, which fail whatever the start, leave an old file as it was
        runs = []
        monkeypatch.setattr(cli, "newton_solve", lambda *a: runs.append(a))
        out_csv = tmp_path / "old.csv"
        out_csv.write_text("old rows\n")
        for fields, words in (({"l1": [1.0]}, "'l1'"),
                              ({"l1": [0.0, 0.0], "l2": [0.0, 0.0]}, "must not both be zero")):
            cfg = {**json.loads((FIXTURES / "scan_pp.json").read_text()), **fields}
            code, _, err = run(capsys, "scan", "--config", write_config(tmp_path, cfg),
                               "--csv", str(out_csv))
            assert code == 4 and words in err and not runs
            assert out_csv.read_text() == "old rows\n"

    def test_interrupted_scan_keeps_its_finished_rows(self, capsys, tmp_path,
                                                      monkeypatch):
        # each row is written as its run ends: a scan interrupted in run 5
        # leaves the header and the 4 rows before it, in place of the old file
        config = str(FIXTURES / "scan_pp.json")
        full_csv, out_csv = tmp_path / "full.csv", tmp_path / "out.csv"
        assert run(capsys, "scan", "--config", config, "--csv", str(full_csv))[0] == 0
        out_csv.write_text("old rows\n")
        run_one, calls = cli._run_one, []

        def interrupted(*args):
            calls.append(args)
            if len(calls) == 5:
                raise KeyboardInterrupt
            return run_one(*args)

        monkeypatch.setattr(cli, "_run_one", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cli.main(["scan", "--config", config, "--csv", str(out_csv)])
        assert capsys.readouterr().err == ""
        lines = out_csv.read_text().splitlines(keepends=True)
        assert len(lines) == 5
        assert lines == full_csv.read_text().splitlines(keepends=True)[:5]

    def test_vector_components_name_their_columns(self, capsys, tmp_path, monkeypatch):
        # an axis "x[0]" or "phi1[1]" sets that component of each start, which
        # its CSV column "start_x[0]" or "start_phi1[1]" records; every start
        # here converges to the TB point
        starts = []
        newton_solve = cli.newton_solve

        def recorded(model, v0, *args):
            starts.append(v0.pack())
            return newton_solve(model, v0, *args)

        monkeypatch.setattr(cli, "newton_solve", recorded)
        cfg = json.loads((FIXTURES / "scan_pp.json").read_text())
        cfg["scan"] = {"x[0]": {"min": 0.9, "max": 1.1, "count": 3},
                       "phi1[1]": {"min": -0.1, "max": 0.1, "count": 2}}
        out_csv = str(tmp_path / "scan.csv")
        code, _, err = run(capsys, "scan", "--config", write_config(tmp_path, cfg),
                           "--csv", out_csv)
        assert code == 0 and err.startswith("# 6 runs, 6 converged, 1 distinct point(s)")
        with open(out_csv) as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert reader.fieldnames[:3] == ["index", "start_phi1[1]", "start_x[0]"]
        grid = [(p, x) for p in (-0.1, 0.1) for x in np.linspace(0.9, 1.1, 3).tolist()]
        assert [(float(r["start_phi1[1]"]), float(r["start_x[0]"])) for r in rows] == grid
        for (p, x), start in zip(grid, starts, strict=True):
            v = TbCandidate.unpack(start, 2)
            assert v.x.tolist() == [x, 1.1] and v.phi1.tolist() == [1.0, p]
            assert v.phi2.tolist() == [3.0, 0.0] and (v.lam, v.mu) == (0.4, 1.0)
        for r in rows:
            assert r["converged"] == "True" and r["verified"] == "True"
            assert [float(r[k]) for k in ("x0", "x1", "lambda", "mu")] == pytest.approx(
                [1.0, 1.0, 0.5, 2.0], abs=1e-9)

    def test_parameter_axes_keep_their_starts(self, capsys, tmp_path):
        # a lambda or mu axis has its own start_ column, so the solution's
        # lambda and mu columns do not overwrite where each run started
        out_csv = str(tmp_path / "scan.csv")
        code, _, _ = run(capsys, "scan", "--config", str(FIXTURES / "scan_pp.json"),
                         "--csv", out_csv)
        assert code == 0
        with open(out_csv) as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert reader.fieldnames == [
            "index", "start_lambda", "start_mu", "converged", "iterations",
            "final_residual", "x0", "x1", "lambda", "mu", "verified", "exit_code"]
        grid = [(lam, mu) for lam in (0.4, 0.5, 0.6) for mu in (1.5, 2.0, 2.5)]
        assert [(float(r["start_lambda"]), float(r["start_mu"])) for r in rows] == grid
        for r in rows:
            assert [float(r["lambda"]), float(r["mu"])] == pytest.approx([0.5, 2.0],
                                                                         abs=1e-9)

    def test_default_rows_follow_each_start(self, capsys, tmp_path, monkeypatch):
        # without l1 and l2 each start gets the unit row at the largest
        # component of its own phi1 guess: phi1 = (1, 0) picks e0, and
        # phi1 = (1, 2), moved by the phi1[1] axis, picks e1
        rows = []
        newton_solve = cli.newton_solve

        def recorded(model, v0, L, *args):
            rows.append((L.l1.tolist(), L.l2.tolist()))
            return newton_solve(model, v0, L, *args)

        monkeypatch.setattr(cli, "newton_solve", recorded)
        cfg = json.loads((FIXTURES / "scan_pp.json").read_text())
        del cfg["l1"], cfg["l2"]
        cfg["scan"] = {"phi1[1]": {"min": 0.0, "max": 2.0, "count": 2}}
        code, _, _ = run(capsys, "scan", "--config", write_config(tmp_path, cfg))
        assert code in (0, 2)
        assert rows == [([1.0, 0.0], [1.0, 0.0]), ([0.0, 1.0], [0.0, 1.0])]

    def test_model_built_once(self, capsys, tmp_path, built_models):
        # one model, and one set of Newton options, serve every grid point
        code, _, err = run(capsys, "scan", "--config", str(FIXTURES / "scan_pp.json"),
                           "--csv", str(tmp_path / "scan.csv"))
        assert code == 0 and err.startswith("# 9 runs")
        assert len(built_models) == 1

    def test_grid_of_too_many_runs_exit_4_before_the_grid(self, capsys, tmp_path,
                                                           monkeypatch):
        # each axis fits, but the product of the counts is over the bound
        runs = []
        monkeypatch.setattr(cli, "newton_solve", lambda *a: runs.append(a))
        cfg = json.loads((FIXTURES / "scan_pp.json").read_text())
        cfg["scan"]["lambda"]["count"] = 1000
        cfg["scan"]["mu"]["count"] = cli.MAX_SCAN_RUNS // 1000 + 1
        code, out, err = run(capsys, "scan", "--config", write_config(tmp_path, cfg))
        assert code == 4 and out == "" and not runs
        assert f"{1000 * (cli.MAX_SCAN_RUNS // 1000 + 1)} runs" in err

    def test_empty_grid_exit_4(self, capsys, tmp_path):
        cfg = json.loads((FIXTURES / "scan_pp.json").read_text())
        cfg["scan"] = {}
        code, _, _ = run(capsys, "scan", "--config",
                         write_config(tmp_path, cfg))
        assert code == 4

    def test_json_flag_rejected_exit_4(self, capsys):
        # scan writes CSV only, so it has no --json to accept and ignore
        code, out, err = run(capsys, "scan", "--config",
                             str(FIXTURES / "scan_pp.json"), "--json")
        assert code == 4 and out == ""
        assert "--json" in err

    def test_bad_axis_key_exit_4(self, capsys, tmp_path):
        cfg = json.loads((FIXTURES / "scan_pp.json").read_text())
        cfg["scan"] = {"x[5]": {"min": 0, "max": 1, "count": 2}}
        code, _, _ = run(capsys, "scan", "--config",
                         write_config(tmp_path, cfg))
        assert code == 4

    def test_two_keys_of_one_component_exit_4_before_the_csv(self, capsys, tmp_path,
                                                              monkeypatch):
        # "x[0]" and "x[00]" name one unknown: one of them would overwrite the
        # other's start, so the config is refused before the CSV opens
        runs = []
        monkeypatch.setattr(cli, "newton_solve", lambda *a: runs.append(a))
        cfg = json.loads((FIXTURES / "scan_pp.json").read_text())
        cfg["scan"] = {"x[0]": {"min": 0.9, "max": 1.1, "count": 2},
                       "x[00]": {"min": 5.0, "max": 5.0, "count": 1}}
        out_csv = tmp_path / "scan.csv"
        code, out, err = run(capsys, "scan", "--config", write_config(tmp_path, cfg),
                             "--csv", str(out_csv))
        assert code == 4 and out == "" and not runs and not out_csv.exists()
        assert "scan axes 'x[00]', 'x[0]' name one component" in err


class TestListModels:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "list-models")
        assert code == 0
        assert out.split() == ["predator-prey", "synthetic-tb"]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "list-models", "--json")
        assert code == 0
        assert json.loads(out) == ["predator-prey", "synthetic-tb"]


def test_parser_built_once_and_stateless(capsys, tmp_path):
    """Commands run through the shared parser give what a fresh parser gives."""
    assert cli.build_parser() is cli.build_parser()
    solve_cfg = str(SOLVE_FIXTURES[0])
    cfg_loose, cfg_tol = (json.loads(SOLVE_FIXTURES[0].read_text()) for _ in range(2))
    cfg_loose["tol_res"] = 1e-3
    cfg_tol["tol_res"] = 1e-6
    sequence = [
        ["solve", "--config", write_config(tmp_path, cfg_loose, "loose.json"), "--json"],
        ["solve", "--config", solve_cfg, "--json"],
        ["solve", "--config", write_config(tmp_path, cfg_tol), "--json"],
        ["verify", "--config", str(FIXTURES / "verify_pp_point.json"), "--json"],
        ["solve", "--config", solve_cfg, "--no-such-flag"],
        ["list-models", "--json"],
    ]

    def outcome(argv):
        code, out, err = run(capsys, *argv)
        doc = strict_json(out) if out else None
        if isinstance(doc, dict):
            doc.pop("timestamp", None)
        return code, doc, err

    shared = [outcome(argv) for argv in sequence]
    fresh = []
    for argv in sequence:
        cli.build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert shared == fresh

    # tol_res = 1e-3 stops Newton before the point certifies: exit 3.  The run
    # with tol_res = 1e-6 overshoots to within 1e-10 of the point and certifies
    codes = [code for code, _, _ in shared]
    assert codes == [3, 0, 0, 0, 4, 0]
    tols = [shared[k][1]["report"]["residual_history"][-1] for k in range(3)]
    assert 1e-6 < tols[0] <= 1e-3 and tols[1] <= 1e-12 and 1e-12 < tols[2] <= 1e-6
    for argv in sequence[:4] + sequence[5:]:
        assert (vars(cli.build_parser().parse_args(argv))
                == vars(cli.build_parser.__wrapped__().parse_args(argv)))


class TestOncePerCall:
    """A call parses its arguments in one argparse pass, and the default
    model is built once per process."""

    @pytest.mark.parametrize("command, config", [
        ("solve", SOLVE_FIXTURES[0]), ("verify", FIXTURES / "verify_pp_point.json"),
        ("scan", FIXTURES / "scan_pp.json"), ("list-models", None)])
    def test_one_argparse_pass(self, capsys, monkeypatch, tmp_path, command, config):
        passes, parse = [], argparse.ArgumentParser.parse_known_args

        def counted(self, *args, **kwargs):
            passes.append(self.prog)
            return parse(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        argv = [command] if config is None else [command, "--config", str(config)]
        if command == "scan":
            argv += ["--csv", str(tmp_path / "scan.csv")]
        code, _, _ = run(capsys, *argv)
        assert code == 0 and passes == [f"tbdde {command}"]

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: command"),
        (["bogus"], "invalid choice: 'bogus'"),
        (["--json", "solve"], "the following arguments are required: --config"),
        (["scan", "--config", str(FIXTURES / "scan_pp.json"), "--json"],
         "unrecognized arguments: --json")])
    def test_usage_error_exit_4(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 4 and out == ""
        assert err.startswith("usage: tbdde") and message in err

    def test_top_level_help_exits_0(self, capsys):
        # a command's --help is TestSolve's
        with pytest.raises(SystemExit) as exc:
            cli.main(["-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: tbdde [-h]")

    def test_default_model_built_once(self, capsys, monkeypatch):
        # a solve and two verifies of predator-prey build it once in all
        built, make = [], models.predator_prey
        monkeypatch.setattr(models, "predator_prey", lambda *a: built.append(a) or make(*a))
        models._default.cache_clear()
        codes = [run(capsys, command, "--config", str(FIXTURES / name), "--json")[0]
                 for command, name in (("solve", SOLVE_FIXTURES[0].name),
                                       ("verify", "verify_pp_point.json"),
                                       ("verify", "verify_pp_off.json"))]
        assert codes == [0, 0, 3] and len(built) == 1


def test_console_entry_point_installed(monkeypatch, capsys):
    """The package provides a `tbdde` command that runs `cli.main`.

    The command is checked as `pyproject.toml` declares it, resolved and
    called the way a console-script wrapper does, so the check holds in an
    uninstalled checkout.  Where a `tbdde` distribution is installed, its
    own entry point must resolve to the same function.
    """
    import importlib
    import importlib.metadata as im
    import sys

    try:
        dist = im.distribution("tbdde")
    except im.PackageNotFoundError:
        dist = None
    if dist is not None:
        eps = dist.entry_points.select(group="console_scripts", name="tbdde")
        assert [ep.value for ep in eps] == ["tbdde.cli:main"]
        assert next(iter(eps)).load() is cli.main

    try:
        import tomllib
    except ModuleNotFoundError:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts.get("tbdde") == "tbdde.cli:main"

    module, _, attr = scripts["tbdde"].partition(":")
    entry = getattr(importlib.import_module(module), attr)
    assert entry is cli.main

    monkeypatch.setattr(sys, "argv", ["tbdde", "list-models", "--json"])
    assert entry() == 0
    assert json.loads(capsys.readouterr().out) == ["predator-prey",
                                                   "synthetic-tb"]
