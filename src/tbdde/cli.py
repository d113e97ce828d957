"""Command-line front end: solve / scan / verify / list-models.

Runs are driven by a JSON config file (see README for the schema) so results
are reproducible.  Exit codes: 0 converged and verified, 2 Newton failed to
converge, 3 converged but a verification condition failed, 4 config or
usage error.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import itertools
import json
import os
import sys

import numpy as np

from . import __version__, models
from .defining import Functionals, NewtonOptions, TbCandidate, newton_solve
from .eigenstructure import compute_basis
from .errors import InputError, TbddeError
from .model import jac_x, jac_y
from .verify import quadratic_check

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_NOT_VERIFIED = 3
EXIT_CONFIG = 4

OUTPUT_DIR_ENV = "TBDDE_OUTPUT_DIR"


def _out_path(path: str) -> str:
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InputError("config root must be a JSON object")
    return cfg


def _vector(cfg: dict, key: str, n: int, required=True):
    if key not in cfg:
        if required:
            raise InputError(f"config field {key!r} is missing")
        return None
    v = cfg[key]
    if not isinstance(v, list) or len(v) != n:
        raise InputError(f"config field {key!r} must be a list of {n} numbers")
    try:
        return np.array([float(e) for e in v])
    except (TypeError, ValueError) as exc:
        raise InputError(f"config field {key!r}: {exc}") from exc


def _candidate(section: dict, n: int, label: str) -> TbCandidate:
    if not isinstance(section, dict):
        raise InputError(f"config field {label!r} must be an object")
    x = _vector(section, "x", n)
    phi1 = _vector(section, "phi1", n)
    phi2 = _vector(section, "phi2", n)
    for key in ("lambda", "mu"):
        if key not in section:
            raise InputError(f"config field {label}.{key} is missing")
    return TbCandidate(x=x, phi1=phi1, phi2=phi2,
                       lam=float(section["lambda"]), mu=float(section["mu"]))


def _functionals(cfg: dict, n: int, phi1_guess: np.ndarray) -> Functionals:
    l1 = _vector(cfg, "l1", n, required=False)
    l2 = _vector(cfg, "l2", n, required=False)
    if l1 is None or l2 is None:
        # default: unit row where the initial phi1 guess is largest
        e = np.zeros(n)
        e[int(np.argmax(np.abs(phi1_guess)))] = 1.0
        l1 = e if l1 is None else l1
        l2 = e if l2 is None else l2
    return Functionals(l1=l1, l2=l2)


def _options(cfg: dict, args) -> NewtonOptions:
    opts = NewtonOptions()
    if "tol_res" in cfg:
        opts.tol_res = float(cfg["tol_res"])
    if "tol_step" in cfg:
        opts.tol_step = float(cfg["tol_step"])
    if "max_iter" in cfg:
        opts.max_iter = int(cfg["max_iter"])
    if args.tol is not None:
        opts.tol_res = args.tol
    if args.max_iter is not None:
        opts.max_iter = args.max_iter
    return opts


def _build_model(cfg: dict):
    if "model" not in cfg:
        raise InputError("config field 'model' is missing")
    return models.build(str(cfg["model"]), cfg.get("model_constants"))


def _candidate_dict(v: TbCandidate) -> dict:
    return {"x": [float(a) for a in v.x],
            "phi1": [float(a) for a in v.phi1],
            "phi2": [float(a) for a in v.phi2],
            "lambda": float(v.lam), "mu": float(v.mu)}


def _report_dict(report) -> dict:
    return {
        "converged": bool(report.converged),
        "iterations": int(report.iterations),
        "residual_history": [float(r) for r in report.residual_history],
        "final_cond": float(report.final_cond),
        "failure_reason": report.failure_reason,
        "solution": _candidate_dict(report.solution),
    }


def _verdict_dict(verdict) -> dict:
    ex = verdict.existence
    return {
        "existence": {
            "rank_ok": bool(ex.rank_ok), "range_ok": bool(ex.range_ok),
            "nondegenerate": bool(ex.nondegenerate), "rank": int(ex.rank),
            "range_value": _f(ex.range_value),
            "nondegeneracy_value": _f(ex.nondegeneracy_value),
            "passed": bool(ex.passed),
        },
        "cond_i_value": _f(verdict.cond_i_value),
        "cond_i_ok": bool(verdict.cond_i_ok),
        "d0": _f(verdict.d0), "d0_ok": bool(verdict.d0_ok),
        "cond_iii_value": _f(verdict.cond_iii_value),
        "cond_iii_ok": bool(verdict.cond_iii_ok),
        "c_lam_mu": _f(verdict.c_lam_mu),
        "nu": [float(a) for a in verdict.nu],
        "psi2_nu": _f(verdict.psi2_nu),
        "char_values": [_f(c) for c in verdict.char_values],
        "char_ok": bool(verdict.char_ok),
        "tol": _f(verdict.tol),
        "passed": bool(verdict.passed),
    }


def _f(x) -> float | None:
    x = float(x)
    return None if not np.isfinite(x) else x


def _verify_solution(model, solution):
    """(verdict or None, error string or None) for a converged point."""
    try:
        f1 = jac_x(model, solution.x, solution.x, solution.lam, solution.mu)
        f2 = jac_y(model, solution.x, solution.x, solution.lam, solution.mu)
        basis = compute_basis(f1, f2)
        return quadratic_check(model, solution, basis), None
    except TbddeError as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _run_one(cfg: dict, args, initial: TbCandidate | None = None):
    """Solve + verify for one config; returns (result dict, exit code)."""
    model = _build_model(cfg)
    v0 = initial if initial is not None else _candidate(
        cfg.get("initial"), model.n, "initial")
    L = _functionals(cfg, model.n, v0.phi1)
    opts = _options(cfg, args)
    report = newton_solve(model, v0, L, opts)

    verdict_d = None
    verify_error = None
    if report.converged:
        verdict, verify_error = _verify_solution(model, report.solution)
        if verdict is not None:
            verdict_d = _verdict_dict(verdict)

    result = {
        "config": cfg,
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "report": _report_dict(report),
        "verdict": verdict_d,
        "verify_error": verify_error,
    }
    if not report.converged:
        code = EXIT_NOT_CONVERGED
    elif verdict_d is None or not verdict_d["passed"]:
        code = EXIT_NOT_VERIFIED
    else:
        code = EXIT_OK
    return result, code


def cmd_solve(args) -> int:
    cfg = _load_config(args.config)
    result, code = _run_one(cfg, args)
    if args.json:
        print(json.dumps(result, indent=2))
        return code
    rep = result["report"]
    print(f"model: {cfg['model']}")
    print(f"{'iter':>4}  {'|H|_inf':>12}")
    for k, r in enumerate(rep["residual_history"]):
        print(f"{k:>4}  {r:12.4e}")
    if rep["converged"]:
        sol = rep["solution"]
        print(f"converged in {rep['iterations']} iterations")
        print(f"x       = {sol['x']}")
        print(f"lambda  = {sol['lambda']}")
        print(f"mu      = {sol['mu']}")
        print(f"phi1    = {sol['phi1']}")
        print(f"phi2    = {sol['phi2']}")
        if result["verdict"] is not None:
            v = result["verdict"]
            print(f"verified: {v['passed']}  (d0 = {v['d0']}, "
                  f"c_lam_mu = {v['c_lam_mu']}, "
                  f"Delta = {v['char_values']})")
        elif result["verify_error"]:
            print(f"verification error: {result['verify_error']}")
    else:
        print(f"did not converge: {rep['failure_reason']}")
    return code


_GRID_COMPONENTS = ("x", "phi1", "phi2")


def _grid_axis(key: str, spec, n: int):
    """Map a scan key like "x[0]", "lambda" to a setter and values."""
    if not isinstance(spec, dict) or not {"min", "max", "count"} <= set(spec):
        raise InputError(f"scan axis {key!r} needs min/max/count")
    count = int(spec["count"])
    if count < 1:
        raise InputError(f"scan axis {key!r}: count must be >= 1")
    values = np.linspace(float(spec["min"]), float(spec["max"]), count)

    if key in ("lambda", "mu"):
        field = key
        idx = None
    elif "[" in key and key.endswith("]"):
        field, rest = key.split("[", 1)
        if field not in _GRID_COMPONENTS:
            raise InputError(f"unknown scan component {key!r}")
        idx = int(rest[:-1])
        if not 0 <= idx < n:
            raise InputError(f"scan index out of range in {key!r}")
    else:
        raise InputError(f"unknown scan component {key!r}")
    return field, idx, values


def _apply_axes(base: TbCandidate, assignment) -> TbCandidate:
    x, p1, p2 = base.x.copy(), base.phi1.copy(), base.phi2.copy()
    lam, mu = base.lam, base.mu
    vecs = {"x": x, "phi1": p1, "phi2": p2}
    for (field, idx, _), value in assignment:
        if field == "lambda":
            lam = float(value)
        elif field == "mu":
            mu = float(value)
        else:
            vecs[field][idx] = float(value)
    return TbCandidate(x=x, phi1=p1, phi2=p2, lam=lam, mu=mu)


def cmd_scan(args) -> int:
    cfg = _load_config(args.config)
    model = _build_model(cfg)
    scan = cfg.get("scan")
    if not isinstance(scan, dict) or not scan:
        raise InputError("scan requires a non-empty 'scan' object in the config")
    base = _candidate(cfg.get("initial"), model.n, "initial")
    axes = [_grid_axis(k, scan[k], model.n) for k in sorted(scan)]

    rows = []
    distinct = []
    any_converged = False
    for index, values in enumerate(itertools.product(*(a[2] for a in axes))):
        v0 = _apply_axes(base, list(zip(axes, values)))
        result, code = _run_one(cfg, args, initial=v0)
        rep = result["report"]
        sol = rep["solution"]
        if rep["converged"]:
            any_converged = True
            packed = np.array(sol["x"] + sol["phi1"] + sol["phi2"]
                              + [sol["lambda"], sol["mu"]])
            if not any(np.max(np.abs(packed - d)) < 1e-6 for d in distinct):
                distinct.append(packed)
        rows.append({
            "index": index,
            **{k: float(val) for k, val in zip(sorted(scan), values)},
            "converged": rep["converged"],
            "iterations": rep["iterations"],
            "final_residual": rep["residual_history"][-1],
            **{f"x{i}": sol["x"][i] for i in range(model.n)},
            "lambda": sol["lambda"],
            "mu": sol["mu"],
            "verified": bool(result["verdict"] and result["verdict"]["passed"]),
            "exit_code": code,
        })

    fieldnames = list(rows[0].keys())
    if args.csv:
        path = _out_path(args.csv)
        with open(path, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=fieldnames)
            w.writeheader()
            w.writerows(rows)
    else:
        w = csv.DictWriter(sys.stdout, fieldnames=fieldnames)
        w.writeheader()
        w.writerows(rows)

    print(f"# {len(rows)} runs, {sum(r['converged'] for r in rows)} converged, "
          f"{len(distinct)} distinct point(s)", file=sys.stderr)
    for d in distinct:
        print(f"#   x={d[:model.n].tolist()} lambda={d[-2]} mu={d[-1]}",
              file=sys.stderr)
    return EXIT_OK if any_converged else EXIT_NOT_CONVERGED


def cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    model = _build_model(cfg)
    section = cfg.get("point", cfg.get("initial"))
    point = _candidate(section, model.n, "point")
    verdict, err = _verify_solution(model, point)
    if verdict is None:
        payload = {"config": cfg, "tool_version": __version__,
                   "verdict": None, "verify_error": err}
        code = EXIT_NOT_VERIFIED
    else:
        payload = {"config": cfg, "tool_version": __version__,
                   "verdict": _verdict_dict(verdict), "verify_error": None}
        code = EXIT_OK if verdict.passed else EXIT_NOT_VERIFIED
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        if verdict is None:
            print(f"verification error: {err}")
        else:
            v = payload["verdict"]
            print(f"existence: {v['existence']['passed']}")
            print(f"cond (i)  psi2.f_lambda = {v['cond_i_value']}: {v['cond_i_ok']}")
            print(f"cond (ii) d0 = {v['d0']}: {v['d0_ok']}")
            print(f"cond (iii) value = {v['cond_iii_value']}: {v['cond_iii_ok']}")
            print(f"char Delta(0), Delta'(0), Delta''(0) = {v['char_values']}: "
                  f"{v['char_ok']}")
            print(f"verdict: {'PASS' if v['passed'] else 'FAIL'}")
    return code


def cmd_list_models(args) -> int:
    names = models.registry()
    if args.json:
        print(json.dumps(names))
    else:
        for name in names:
            print(name)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the config-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every ``main`` call.

    Parsing leaves no state in it: each call gets a fresh namespace, so an
    in-process caller pays for building the parser once, not per command.
    Being shared, the returned parser must not be modified.
    """
    parser = _Parser(
        prog="tbdde",
        description="Compute quadratic Takens-Bogdanov points of delay "
                    "differential equations by Newton iteration on a reduced "
                    "defining system.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_json=True, newton=True):
        p.add_argument("--config", required=True, help="JSON run config")
        if with_json:
            p.add_argument("--json", action="store_true",
                           help="emit machine-readable JSON")
        if newton:
            p.add_argument("--max-iter", type=int, dest="max_iter")
            p.add_argument("--tol", type=float)

    p = sub.add_parser("solve", help="run Newton from the configured initial value")
    add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("scan", help="run a grid of initial guesses")
    add_common(p, with_json=False)
    p.add_argument("--csv", help="write per-run results to this CSV file")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify", help="verify a candidate point without solving")
    add_common(p, newton=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("list-models", help="list registered models")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_list_models)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
