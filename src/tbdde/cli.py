"""Command-line front end: solve / scan / verify / list-models.

Runs are driven by a JSON config file (see README for the schema) so results
are reproducible.  Exit codes: 0 converged and verified, 2 Newton failed to
converge, 3 converged but a verification condition failed, 4 config or
usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import datetime
import functools
import itertools
import json
import math
import re
import sys

import numpy as np

from . import __version__, models
from .defining import Functionals, NewtonOptions, TbCandidate, newton_solve
from .eigenstructure import Check
from .errors import InputError, TbddeError
from .model import linearize
from .verify import certify

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_NOT_VERIFIED = 3
EXIT_CONFIG = 4

#: the most runs (the product of its counts) of a scan grid: under an hour at 2 ms a run
MAX_SCAN_RUNS = 10 ** 6


def _non_finite(constant: str):
    # json.load's hook for the NaN, Infinity and -Infinity it accepts
    raise InputError(f"config number {constant} is not finite")


#: the top-level config keys, one set for every command: the Newton options'
#: keys are their names
_CONFIG_KEYS = frozenset({"model", "model_constants", "initial", "point", "l1", "l2",
                          "scan", *(f.name for f in dataclasses.fields(NewtonOptions))})
#: the keys of a candidate ("initial", "point") and of a scan axis
_CANDIDATE_KEYS = frozenset({"x", "phi1", "phi2", "lambda", "mu"})
_AXIS_KEYS = frozenset({"min", "max", "count"})


def _known_keys(section: dict, keys: frozenset, prefix: str = "") -> None:
    """Refuse the keys of a config object not in ``keys``, each named after
    ``prefix``, the object's path, so that a typo is not silently ignored."""
    unknown = [repr(prefix + key) for key in sorted(set(section) - keys)]
    if unknown:
        raise InputError(f"unknown config field {', '.join(unknown)}")


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_constant=_non_finite)
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InputError("config root must be a JSON object")
    _known_keys(cfg, _CONFIG_KEYS)
    return cfg


def _number(value, label: str, kind=float):
    """``kind(value)`` for the config field ``label``: a JSON number equal to
    it, finite and not a boolean (so no string, and for ``int`` no fraction)."""
    try:
        number = kind(value)
        ok = math.isfinite(number) and number == value
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{label!r}: {exc}") from exc
    if isinstance(value, bool) or not ok:
        raise InputError(f"{label!r} must be a finite {kind.__name__}, got {value!r}")
    return number


def _vector(cfg: dict, key: str, n: int):
    if key not in cfg:
        raise InputError(f"config field {key!r} is missing")
    v = cfg[key]
    if not isinstance(v, list) or len(v) != n:
        raise InputError(f"config field {key!r} must be a list of {n} numbers")
    return np.array([_number(e, key) for e in v])


#: JSON keys of result fields whose attribute names differ; configs use them too
_KEYS = {"lam": "lambda"}


def _candidate(section: dict, n: int, label: str, chain: bool = True) -> TbCandidate:
    """The candidate in config field ``label``.  With ``chain`` False, as for
    ``verify``, whose verdict never reads them, phi1 and phi2 may be left out
    and are then NaN; a given one is checked all the same."""
    if not isinstance(section, dict):
        raise InputError(f"config field {label!r} must be an object")
    _known_keys(section, _CANDIDATE_KEYS, f"{label}.")
    x, phi1, phi2 = (_vector(section, key, n) if chain or key in section
                     else np.full(n, np.nan) for key in ("x", "phi1", "phi2"))
    scalars = {}
    for name in ("lam", "mu"):
        key = _KEYS.get(name, name)
        if key not in section:
            raise InputError(f"config field {label}.{key} is missing")
        scalars[name] = _number(section[key], f"{label}.{key}")
    return TbCandidate(x=x, phi1=phi1, phi2=phi2, **scalars)


def _functionals(cfg: dict, n: int):
    """l1 and l2, checked once, as a function of a start's phi1 guess: a row
    the config leaves out is the unit row where that guess is largest."""
    given = {key: _vector(cfg, key, n) for key in ("l1", "l2") if key in cfg}
    if len(given) == 2:   # built here, so two zero rows fail before any run
        fixed = Functionals(**given)
        return lambda phi1: fixed
    unit = np.eye(n)
    return lambda phi1: Functionals(
        **dict.fromkeys(("l1", "l2"), unit[np.argmax(np.abs(phi1))]) | given)


def _options(cfg: dict) -> NewtonOptions:
    """The config's Newton options (its keys are the option names), each a
    JSON number of the option's kind; ``NewtonOptions`` checks their range."""
    return NewtonOptions(**{f.name: _number(cfg[f.name], f.name, type(f.default))
                            for f in dataclasses.fields(NewtonOptions) if f.name in cfg})


def _build_model(cfg: dict):
    if "model" not in cfg:
        raise InputError("config field 'model' is missing")
    constants = cfg.get("model_constants", {})
    if not isinstance(constants, dict):
        raise InputError("config field 'model_constants' must be an object")
    return models.build(str(cfg["model"]), constants)


@functools.cache
def _schema(cls) -> tuple:
    """(attribute, JSON key) pairs of a result dataclass, ``passed`` included
    and fields declared with ``repr=False`` left out."""
    names = [f.name for f in dataclasses.fields(cls) if f.repr]
    if isinstance(getattr(cls, "passed", None), property):
        names.append("passed")
    return tuple((name, _KEYS.get(name, name)) for name in names)


def _json(obj):
    """The JSON value of a result: dataclasses field by field, a ``Check``
    as an object, arrays and tuples as lists, non-finite floats as null."""
    t = type(obj)
    if t is float or t is np.float64:
        return float(obj) if math.isfinite(obj) else None
    if t is bool or t is int or t is str or obj is None:
        return obj
    if t is np.ndarray or t is list or t is tuple:
        # a finite float, the usual element, is its own JSON value
        return [a if type(a) is float and math.isfinite(a) else _json(a)
                for a in (obj.tolist() if t is np.ndarray else obj)]
    if t is dict:
        return {k: _json(v) for k, v in obj.items()}
    if t is Check:
        return dict(zip(obj._fields, map(_json, obj)))
    if isinstance(obj, np.generic):
        return _json(obj.item())
    return {key: _json(getattr(obj, name)) for name, key in _schema(t)}


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _verify_solution(model, solution, lin=None):
    """(verdict or None, error string or None, exit code) for a point, from
    its linearization ``lin`` when given, else from one ``linearize`` call.
    A point that is no TB point gets a FAIL verdict; the error is set only
    when the certificate raises, as on the non-finite linearization of a
    point far out (numpy's floating-point warnings are off, as in Newton)."""
    try:
        if lin is None:
            lin = linearize(model, solution.x, solution.lam, solution.mu)
        verdict = certify(lin)
    except TbddeError as exc:
        return None, f"{type(exc).__name__}: {exc}", EXIT_NOT_VERIFIED
    return verdict, None, EXIT_OK if verdict.passed else EXIT_NOT_VERIFIED


def _print_verdict(verdict: dict | None, error: str | None) -> None:
    """A run's verify error, or its JSON verdict: one line per check, then
    the verdict line."""
    if verdict is None:
        print(f"verification error: {error}")
        return
    for name, c in verdict["checks"].items():
        print(f"{name:<15} {c['value']}  threshold {c['threshold']}: "
              f"{'ok' if c['ok'] else 'FAIL'}")
    print(f"verdict: {'PASS' if verdict['passed'] else 'FAIL'}")


def _run_one(model, functionals, opts: NewtonOptions, v0: TbCandidate):
    """Solve from v0 with ``functionals(v0.phi1)`` (``_functionals``) and
    verify: (report, verdict, verify error, exit code)."""
    report = newton_solve(model, v0, functionals(v0.phi1), opts)
    if not report.converged:
        return report, None, None, EXIT_NOT_CONVERGED
    return (report, *_verify_solution(model, report.solution, report.linearization))


def cmd_solve(args) -> int:
    cfg = _load_config(args.config)
    model = _build_model(cfg)
    v0 = _candidate(cfg.get("initial"), model.n, "initial")
    report, verdict, error, code = _run_one(model, _functionals(cfg, model.n),
                                            _options(cfg), v0)
    result = _json({
        "config": cfg,
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "report": report,
        "verdict": verdict,
        "verify_error": error,
    })
    if args.json:
        print(json.dumps(result))
        return code
    rep = result["report"]
    print(f"model: {cfg['model']}")
    print(f"{'iter':>4}  {'|H|_inf':>12}")
    for k, r in enumerate(report.residual_history):   # inf and NaN included
        print(f"{k:>4}  {r:12.4e}")
    if rep["converged"]:
        print(f"converged in {rep['iterations']} iterations")
        for key in ("x", "lambda", "mu", "phi1", "phi2"):
            print(f"{key:<8}= {rep['solution'][key]}")
        _print_verdict(result["verdict"], error)
    else:
        print(f"did not converge: {rep['failure_reason']}")
    return code


def _pack_index(key: str, spec, n: int):
    """(index in ``TbCandidate.pack()``, count) of a scan axis "x[0]", "lambda", ..."""
    if not isinstance(spec, dict) or not _AXIS_KEYS <= set(spec):
        raise InputError(f"scan axis {key!r} needs min/max/count")
    _known_keys(spec, _AXIS_KEYS, f"scan.{key}.")
    count = _number(spec["count"], f"scan.{key}.count", int)
    if count < 1:
        raise InputError(f"scan axis {key!r}: count must be >= 1")
    if key in ("lambda", "mu"):
        return 3 * n + (key == "mu"), count
    match = re.fullmatch(r"(x|phi1|phi2)\[([0-9]+)\]", key)
    if match is None:
        raise InputError(f"unknown scan component {key!r}")
    if int(match[2]) >= n:
        raise InputError(f"scan index out of range in {key!r}")
    return ("x", "phi1", "phi2").index(match[1]) * n + int(match[2]), count


def cmd_scan(args) -> int:
    cfg = _load_config(args.config)
    model = _build_model(cfg)
    scan = cfg.get("scan")
    if not isinstance(scan, dict) or not scan:
        raise InputError("scan requires a non-empty 'scan' object in the config")
    base = _candidate(cfg.get("initial"), model.n, "initial").pack()
    opts = _options(cfg)
    functionals = _functionals(cfg, model.n)
    keys = sorted(scan)
    axes, counts = map(list, zip(*(_pack_index(k, scan[k], model.n) for k in keys)))
    shared = [k for k, i in zip(keys, axes) if axes.count(i) > 1]
    if shared:
        raise InputError(f"scan axes {', '.join(map(repr, shared))} name one component")
    runs = math.prod(counts)
    if runs > MAX_SCAN_RUNS:
        raise InputError(f"scan grid has {runs} runs, the product of "
                         f"its counts; at most {MAX_SCAN_RUNS} are allowed")
    grids = [np.linspace(_number(scan[k]["min"], f"scan.{k}.min"),
                         _number(scan[k]["max"], f"scan.{k}.max"), count)
             for k, count in zip(keys, counts)]
    starts = [f"start_{k}" for k in keys]
    fields = ["index", *starts, "converged", "iterations", "final_residual",
              *(f"x{i}" for i in range(model.n)), "lambda", "mu", "verified", "exit_code"]

    # every config field is checked by now; the target opens before any run and
    # gets each row, flushed by line buffering, as its run ends
    try:
        out = open(args.csv, "w", newline="", buffering=1) if args.csv else None
    except OSError as exc:
        raise InputError(f"cannot write CSV {args.csv}: {exc}") from exc
    converged, distinct = 0, []
    with out or contextlib.nullcontext(sys.stdout) as fh:
        w = csv.DictWriter(fh, fieldnames=fields)
        w.writeheader()
        for index, values in enumerate(itertools.product(*grids)):
            v0 = base.copy()
            v0[axes] = values
            report, verdict, _, code = _run_one(
                model, functionals, opts, TbCandidate.unpack(v0, model.n))
            sol = report.solution
            if report.converged:
                converged += 1
                packed = sol.pack()
                if not any(np.max(np.abs(packed - d)) < 1e-6 for d in distinct):
                    distinct.append(packed)
            w.writerow({"index": index, **{k: float(val) for k, val in zip(starts, values)},
                        "converged": report.converged, "iterations": report.iterations,
                        "final_residual": report.residual_history[-1],
                        **{f"x{i}": a for i, a in enumerate(sol.x.tolist())},
                        "lambda": sol.lam, "mu": sol.mu,
                        "verified": verdict is not None and bool(verdict.passed),
                        "exit_code": code})

    print(f"# {runs} runs, {converged} converged, "
          f"{len(distinct)} distinct point(s)", file=sys.stderr)
    for d in distinct:
        print(f"#   x={d[:model.n].tolist()} lambda={d[-2]} mu={d[-1]}",
              file=sys.stderr)
    return EXIT_OK if distinct else EXIT_NOT_CONVERGED


def cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    model = _build_model(cfg)
    point = _candidate(cfg.get("point"), model.n, "point", chain=False)
    verdict, err, code = _verify_solution(model, point)
    payload = _json({"config": cfg, "tool_version": __version__,
                     "verdict": verdict, "verify_error": err})
    if args.json:
        print(json.dumps(payload))
    else:
        _print_verdict(payload["verdict"], err)
    return code


def cmd_list_models(args) -> int:
    names = models.registry()
    print(json.dumps(names) if args.json else "\n".join(names))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the config-error code;
    ``commands`` maps each command's name to its parser (empty but on the
    top parser)."""

    commands: dict = {}

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    ``main`` call: parsing leaves no state in it, and it must not be modified.
    Its ``commands`` are the subparsers, which ``main`` calls directly."""
    parser = _Parser(
        prog="tbdde",
        description="Compute quadratic Takens-Bogdanov points of delay "
                    "differential equations by Newton iteration on a reduced "
                    "defining system.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_json=True):
        p.add_argument("--config", required=True, help="JSON run config")
        if with_json:
            p.add_argument("--json", action="store_true",
                           help="emit machine-readable JSON")

    p = sub.add_parser("solve", help="run Newton from the configured initial value")
    add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("scan", help="run a grid of initial guesses")
    add_common(p, with_json=False)
    p.add_argument("--csv", help="write per-run results to this CSV file")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify", help="verify a candidate point without solving")
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("list-models", help="list registered models")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_list_models)
    parser.commands = sub.choices
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser = build_parser()
        # a command's own parser reads the rest in one pass, as the top
        # parser would hand it on; the top parser reads anything else (no
        # argument, -h, an unknown command, an option before the command)
        command = parser.commands.get(argv[0]) if argv else None
        args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
