import csv
import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from tbdde import cli

FIXTURES = Path(__file__).parent / "fixtures"
SOLVE_FIXTURES = sorted(FIXTURES.glob("solve_pp_*.json"))

POINT = {"x": [1.0, 1.0], "lambda": 0.5, "mu": 2.0}

SPECTRAL_CAVEAT = ("the test assumes no other eigenvalue on the imaginary axis; "
                   "run a spectral scan to check")

# `tbdde verify --json` verdicts on the two verify fixtures, frozen
VERDICTS = {
    "verify_pp_point": {
        "existence": {"rank_ok": True, "range_ok": True, "nondegenerate": True,
                      "rank": 1, "range_value": 0.0, "nondegeneracy_value": -2.0,
                      "tol": 1e-08, "spectral_caveat": SPECTRAL_CAVEAT,
                      "passed": True},
        "cond_i_value": 0.7071067811865475, "cond_i_ok": True,
        "d0": 0.0883883476483184, "d0_ok": True,
        "cond_iii_value": 0.9999999999999998, "cond_iii_ok": True,
        "c_lam_mu": -0.0, "nu": [0.0, 0.5], "psi2_nu": -0.35355339059327373,
        "equilibrium_residual": 0.0,
        "char_values": [0.0, 0.0, 2.0000000000000027], "char_ok": True,
        "tol": 1e-08, "passed": True,
    },
    "verify_pp_off": {
        "existence": {"rank_ok": True, "range_ok": False, "nondegenerate": False,
                      "rank": 1, "range_value": -0.19611613513818393,
                      "nondegeneracy_value": None, "tol": 1e-08,
                      "spectral_caveat": SPECTRAL_CAVEAT, "passed": False},
        "cond_i_value": 0.7140741917751114, "cond_i_ok": True,
        "d0": 0.11784276895768488, "d0_ok": True,
        "cond_iii_value": 1.04, "cond_iii_ok": True,
        "c_lam_mu": -0.04999999999999999, "nu": [0.0, 0.5],
        "psi2_nu": -0.3570370958875557,
        "equilibrium_residual": 0.09999999999999998,
        "char_values": [0.0, 0.09999999999999984, 2.000000000001023],
        "char_ok": False, "tol": 1e-08, "passed": False,
    },
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

    def test_max_iter_flag_caps_iterations(self, capsys):
        code, out, _ = run(capsys, "solve", "--config", str(SOLVE_FIXTURES[0]),
                           "--json", "--max-iter", "2")
        assert code == 2
        assert strict_json(out)["report"]["failure_reason"] == "max_iter"

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


BAD_CONFIGS = {
    # id: (command, path of the replaced config field, its value); a path of
    # None leaves the config as it is and passes the value as extra flags
    "lambda-string": ("solve", ("initial", "lambda"), "abc"),
    "lambda-null": ("solve", ("initial", "lambda"), None),
    "lambda-nan": ("solve", ("initial", "lambda"), float("nan")),
    "x-infinity": ("solve", ("initial", "x"), [float("-inf"), 1.1]),
    "l1-overflow": ("solve", ("l1",), ["1e999", 0.0]),
    "max-iter-string": ("solve", ("max_iter",), "abc"),
    "max-iter-negative": ("solve", ("max_iter",), -1),
    "tol-res-list": ("solve", ("tol_res",), [1]),
    "tol-res-negative": ("solve", ("tol_res",), -1e-12),
    "tol-step-negative": ("solve", ("tol_step",), -1.0),
    "tol-flag-nan": ("solve", None, ["--tol", "nan"]),
    "tol-flag-negative": ("solve", None, ["--tol", "-1"]),
    "constants-string": ("solve", ("model_constants",), "x"),
    "constants-infinity": ("solve", ("model_constants",), {"D": float("inf")}),
    "tau-overflow": ("solve", ("model_constants",), {"tau": OVERFLOW}),
    "r-overflow": ("solve", ("model_constants",), {"r": OVERFLOW}),
    "scan-axis-index": ("scan", ("scan",), {"x[a]": {"min": 0, "max": 1, "count": 2}}),
    "scan-min-string": ("scan", ("scan", "lambda", "min"), "abc"),
    "scan-count-string": ("scan", ("scan", "lambda", "count"), "abc"),
}


@pytest.mark.parametrize("command, path, value", BAD_CONFIGS.values(),
                         ids=list(BAD_CONFIGS))
def test_bad_config_value_exit_4(capsys, tmp_path, command, path, value):
    base = SOLVE_FIXTURES[0] if command == "solve" else FIXTURES / "scan_pp.json"
    cfg = json.loads(base.read_text())
    if path is None:
        flags = value
    else:
        flags = []
        section = cfg
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
    code, out, err = run(capsys, command, "--config", write_config(tmp_path, cfg),
                         *flags)
    assert code == 4 and out == ""
    assert "config error" in err and "Traceback" not in err


class TestVerify:
    def test_known_point_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--config",
                           str(FIXTURES / "verify_pp_point.json"), "--json")
        assert code == 0
        payload = strict_json(out)
        assert payload["verdict"] == VERDICTS["verify_pp_point"]
        assert json.loads(json.dumps(payload)) == payload

    def test_wrong_parameter_exit_3(self, capsys):
        # same state but the death rate moved off the bifurcation value
        code, out, _ = run(capsys, "verify", "--config",
                           str(FIXTURES / "verify_pp_off.json"), "--json")
        assert code == 3
        payload = strict_json(out)
        assert payload["verdict"] == VERDICTS["verify_pp_off"]
        assert payload["verdict"]["existence"]["range_ok"] is False

    def test_off_equilibrium_reported_on_every_call(self, capsys):
        # the residual is a verdict field, so a repeated in-process verify
        # reports it as the first one did, and no warning is raised
        path = str(FIXTURES / "verify_pp_off.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(2):
                code, out, _ = run(capsys, "verify", "--config", path, "--json")
                assert code == 3
                assert strict_json(out)["verdict"]["equilibrium_residual"] == (
                    pytest.approx(0.1, rel=1e-12))
                code, out, _ = run(capsys, "verify", "--config", path)
                assert code == 3
                assert "equilibrium |f|_inf = 0.0999999999" in out

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

    def test_plain_output_has_verdict_line(self, capsys):
        code, out, _ = run(capsys, "verify", "--config",
                           str(FIXTURES / "verify_pp_point.json"))
        assert code == 0 and "verdict: PASS" in out

    @pytest.mark.parametrize("flag", [["--tol", "1e-3"], ["--max-iter", "3"]])
    def test_newton_flags_rejected_exit_4(self, capsys, flag):
        code, out, _ = run(capsys, "verify", "--config",
                           str(FIXTURES / "verify_pp_point.json"), *flag)
        assert code == 4 and out == ""

    def test_point_evaluated_once(self, capsys, monkeypatch, counted_model):
        # one linearization per point: f, f1 = d1 and f2 = d2 are evaluated
        # once, and S = f1 + f2 is decomposed once, for basis and certificate
        from tbdde import linalg, models

        counts = {}
        build = models.build

        def counted_build(*args, **kwargs):
            model, counts["model"] = counted_model(build(*args, **kwargs))
            return model

        svd = linalg.rank_and_nullspace

        def counted_svd(*args, **kwargs):
            counts["svd"] = counts.get("svd", 0) + 1
            return svd(*args, **kwargs)

        monkeypatch.setattr(models, "build", counted_build)
        monkeypatch.setattr(linalg, "rank_and_nullspace", counted_svd)
        code, _, _ = run(capsys, "verify", "--config",
                         str(FIXTURES / "verify_pp_point.json"), "--json")
        assert code == 0
        assert dict(counts["model"]) == {"f": 1, "d1": 1, "d2": 1}
        assert counts["svd"] == 1


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
    cfg_tol = json.loads(SOLVE_FIXTURES[0].read_text())
    cfg_tol["tol_res"] = 1e-6
    sequence = [
        ["solve", "--config", solve_cfg, "--json", "--tol", "1e-3"],
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

    # the loose tolerances stop Newton before the point certifies: exit 3
    codes = [code for code, _, _ in shared]
    assert codes == [3, 0, 3, 0, 4, 0]
    tols = [shared[k][1]["report"]["residual_history"][-1] for k in range(3)]
    assert 1e-6 < tols[0] <= 1e-3 and tols[1] <= 1e-12 and 1e-12 < tols[2] <= 1e-6
    for argv in sequence[:4] + sequence[5:]:
        assert (vars(cli.build_parser().parse_args(argv))
                == vars(cli.build_parser.__wrapped__().parse_args(argv)))


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
