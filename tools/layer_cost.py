"""Cost of tbdde layer by layer: a Newton step, a spectral scan, a command-line call.

Run it from the root of a checkout as ``python3 tools/layer_cost.py``; it
takes no options.  It imports the package from ``src/`` and the lifted
models from ``bench/lifted.py`` (which it only imports), pins BLAS to one
thread and runs three sections, ``newton``, ``scan`` and ``cli``, on one
harness.  An untimed run counts the model's callbacks and the matrices
given to numpy's ``linalg.inv``, ``linalg.svd`` and ``linalg.solve``; the
counts repeat exactly from run to run, where the timings drift.  It prints
one JSON line, a key for each section beside ``repeats`` and
``blas_threads``, and exits 1 after naming each failed check on stderr.

``newton`` is the cost of one step of ``defining.newton_solve`` against the
state dimension n.  Each case is STARTS Newton runs from starts near a
known Takens-Bogdanov point: predator-prey (n = 2) from (1, 1, 0.5, 2)
moved by up to 5% in every unknown, and the lifted models at n = 8, 16, 20,
24, 32 and 64 (model seed 0, supplying only f, d1 and d2) from the exact
origin moved by up to 0.1 in every unknown, as in the benchmark.  At the
iterates where the untimed run forms a Jacobian it times, by process time,
the median over iterates of each part of a step, in the unchecked form the
Newton loop calls: the Jacobian (``_jacobian``); the step both ways, the
structured one (``_structured_step``, which Newton takes from
n = ``_STRUCTURED_N`` up) and the dense guarded one
(``linalg.solve_with_cond``), so that the crossover can be read off; and
``linearize`` plus the residual (``_residual``), the rest of a step.  It
also times whole runs and reports the step in situ, the runs' time less
one ``linearize`` plus residual each (for the start) over their steps,
beside the sum of the parts the step takes: the gap is the loop's own work
and what each part loses in a run to caches that its repeated timing at
one iterate keeps warm.  It fails if a run does not converge, if a step
makes other than 13 ``d1``, 13 ``d2`` and 5 ``f`` calls (lifted) or 6
``ddir`` calls (predator-prey): the six derivative pairs of the Jacobian
(two callbacks each, or one ``ddir``), f_lambda and f_mu (four ``f``
calls, or the suppliers), and the new iterate's f, f1 and f2; or unless
each step factors its system once: a dense step gives one matrix to
``linalg.solve`` (which returns the step and the inverse its bound needs)
and none to ``linalg.inv``, a structured step two to ``linalg.inv`` and
none to ``linalg.solve``.

``scan`` is the cost of ``verify.spectral_scan`` against n: the
milliseconds of one scan, and its matrices and callbacks, on the lifted
model at n = 2, 8, 32 and 128 without a hidden component ("plain") and at
n = 8, 32 and 128 with one ("hidden"; n = 2 has no room for it), each at
its exact double zero, the origin, and on the predator-prey point
x = (1, 1), lambda = 0.5, mu = 2.  It fails if a hidden model's scan
misses its roots +-i pi/2 (by more than ROOT_TOL), if the scan of a plain
model or of predator-prey reports a root other than the double zero, or if
a scan calls ``f``, ``d1`` or ``d2`` other than once (it reads one
linearization of the point) or any other callback at all.

``cli`` is the cost of one in-process ``cli.main`` call, phase by phase, in
CALLS rounds of the three calls of a ``pp-cli`` benchmark case on the
fixtures of ``tests/fixtures``: ``solve --json`` on ``solve_pp_1.json``
(exit 0), and ``verify --json`` on ``verify_pp_point.json``, the
predator-prey TB point (exit 0), and on ``verify_pp_off.json``, a point off
it (exit 3).  Each call is timed by wall clock and split into phases by
timing the outermost call of each phase's functions: parse
(``argparse.ArgumentParser.parse_known_args``), config and model
(``cli._load_config``, ``_build_model``, ``_candidate``, ``_functionals``,
``_options``), newton (``cli.newton_solve``), certificate
(``cli._verify_solution``), json out (``cli._json``, ``json.dumps``), and
other, the rest (dispatch, the timestamp, printing).  It fails if a call
exits with another code than above or makes other than one argparse pass,
or if the section builds predator-prey other than once: every call without
model constants shares one default model.
"""

import os

# BLAS threads are pinned before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import dataclasses
import importlib
import io
import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from lifted import build_lifted  # noqa: E402

REPEATS = 5         # timed calls per part, run or scan; the median is reported
KERNELS = ("inv", "svd", "solve")   # the np.linalg functions whose matrices are counted
CALLBACKS = ("f", "d1", "d2", "dlam", "dmu", "ddir")

NEWTON_SIZES = (8, 16, 20, 24, 32, 64)
STARTS = 3          # Newton runs per case
#: callbacks per step, by model kind
PER_STEP = {"lifted": {"d1": 13, "d2": 13, "f": 5}, "predator-prey": {"ddir": 6}}
#: matrices per step given to np.linalg's inv and solve, by the step taken
MATRICES_PER_STEP = {"dense": {"inv": 0, "solve": 1}, "structured": {"inv": 2, "solve": 0}}

SCAN_SIZES = (2, 8, 32, 128)
ROOT_TOL = 1e-10    # distance of a found root from +-i pi/2

CALLS = 200         # rounds of the three command-line calls
FIXTURES = ROOT / "tests" / "fixtures"
#: (name, argv, expected exit code) of each call of a round
COMMANDS = (("solve", ["solve", "--config", str(FIXTURES / "solve_pp_1.json"), "--json"], 0),
            ("verify_point", ["verify", "--config", str(FIXTURES / "verify_pp_point.json"),
                              "--json"], 0),
            ("verify_off", ["verify", "--config", str(FIXTURES / "verify_pp_off.json"),
                            "--json"], 3))


# -- the harness

@contextlib.contextmanager
def patched(*replacements):
    """Each (owner, name, fn) of ``replacements`` set while the block runs."""
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in replacements]
    try:
        for owner, name, fn in replacements:
            setattr(owner, name, fn)
        yield
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)


def counting(counts: Counter, name: str, fn, weight=lambda *args, **kwargs: 1):
    """``fn``, adding ``weight`` of its arguments to ``counts[name]`` at each call."""
    def call(*args, **kwargs):
        counts[name] += weight(*args, **kwargs)
        return fn(*args, **kwargs)
    return call


def counted_kernels(counts: Counter):
    """Count the matrices given to each of KERNELS while the block runs."""
    def matrices(a, *args, **kwargs):   # a stack counts each of its matrices
        return len(a) if np.ndim(a) == 3 else 1

    return patched(*((np.linalg, name, counting(counts, name, getattr(np.linalg, name),
                                                matrices)) for name in KERNELS))


def counting_model(model, counts: Counter):
    """``model`` with each supplied callback counting its calls in ``counts``."""
    return dataclasses.replace(model, **{name: counting(counts, name, getattr(model, name))
                                         for name in CALLBACKS
                                         if getattr(model, name) is not None})


def median_us(fn) -> float:
    """The median process time of REPEATS calls of fn, in microseconds."""
    times = []
    for _ in range(REPEATS):
        start = time.process_time()
        fn()
        times.append(time.process_time() - start)
    return 1e6 * statistics.median(times)


# -- newton: one step of newton_solve against n

def newton_cases(tb):
    """(name, kind, model, L, starts) for every Newton case."""
    rng = np.random.default_rng(0)
    pp_star = np.array([1.0, 1.0, 1.0, 0.0, 0.0, -2.0, 0.5, 2.0])
    L10 = tb.defining.Functionals(l1=[1.0, 0.0], l2=[1.0, 0.0])
    yield ("predator-prey", "predator-prey", tb.models.build("predator-prey"), L10,
           [pp_star * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, 8)) for _ in range(STARTS)])
    for n in NEWTON_SIZES:
        lifted = build_lifted(tb, n, 0)
        exact = lifted.exact.pack()
        yield (f"lifted-n{n}", "lifted", lifted.model, lifted.L,
               [exact + 0.1 * rng.uniform(-1.0, 1.0, exact.size) for _ in range(STARTS)])


def part_times(tb, model, L, points) -> dict:
    """The median microseconds of each part of a step over the iterates ``points``."""
    d, n = tb.defining, model.n
    parts = {"jacobian": [], "structured_step": [], "dense_step": [], "linearize_residual": []}
    border = np.full(n, n ** -0.5)
    for lin, p1, p2 in points:
        J, r = d._jacobian(lin, p1, p2, L), d._residual(lin, p1, p2, L)
        parts["jacobian"].append(median_us(lambda: d._jacobian(lin, p1, p2, L)))
        parts["structured_step"].append(median_us(lambda: d._structured_step(J, r, p1,
                                                                             border)))
        parts["dense_step"].append(median_us(lambda: tb.linalg.solve_with_cond(J, -r)))
        parts["linearize_residual"].append(median_us(lambda: d._residual(
            d.linearize(model, lin.x, lin.lam, lin.mu), p1, p2, L)))
    return {part: round(statistics.median(times), 1) for part, times in parts.items()}


def newton(tb, wrong: list) -> dict:
    d, out = tb.defining, {}
    for name, kind, model, L, starts in newton_cases(tb):
        steps, calls, matrices, points = 0, Counter(), Counter(), []
        for start in starts:
            counts, run_points = Counter(), []
            jacobian = d._jacobian

            def recorded(lin, p1, p2, L):
                run_points.append((lin, p1, p2))
                return jacobian(lin, p1, p2, L)

            with counted_kernels(matrices), patched((d, "_jacobian", recorded)):
                report = d.newton_solve(counting_model(model, counts),
                                        d.TbCandidate.unpack(start, model.n), L)
            if not report.converged:
                wrong.append(f"newton {name}: a run ended {report.failure_reason}")
                continue
            # the start's f, f1 and f2 come before the first step
            counts.subtract(dict.fromkeys(("f", "d1", "d2"), 1))
            for callback, per_step in PER_STEP[kind].items():
                if counts[callback] != per_step * report.iterations:
                    wrong.append(f"newton {name}: {counts[callback]} {callback} calls in "
                                 f"{report.iterations} steps, expected {per_step} a step")
            steps += report.iterations
            calls.update(counts)
            points += run_points
        if not steps:
            continue
        taken = "structured" if model.n >= d._STRUCTURED_N else "dense"
        for kernel, per_step in MATRICES_PER_STEP[taken].items():
            if matrices[kernel] != per_step * steps:
                wrong.append(f"newton {name}: {matrices[kernel]} matrices to linalg.{kernel} "
                             f"in {steps} {taken} steps, expected {per_step} a step")
        us = part_times(tb, model, L, points)
        runs_us = sum(median_us(lambda: d.newton_solve(
            model, d.TbCandidate.unpack(start, model.n), L)) for start in starts)
        us["step_parts"] = round(us["jacobian"] + us[f"{taken}_step"]
                                 + us["linearize_residual"], 1)
        us["step_in_situ"] = round((runs_us - len(starts) * us["linearize_residual"]) / steps, 1)
        out[name] = {
            "steps": steps,
            "step_taken": taken,
            "callbacks_per_step": {k: v / steps for k, v in sorted(calls.items()) if v},
            "matrices_per_step": {k: matrices[k] / steps for k in KERNELS},
            "us": us,
        }
    return {"per_step": out, "starts": STARTS}


# -- scan: one spectral_scan against n

def scan_cases(tb):
    """(name, model, x, lam, mu, expected axis roots) for every scan case."""
    for n in SCAN_SIZES:
        for hidden in (False, True):
            if hidden and n < 3:
                continue
            lifted = build_lifted(tb, n, 0, hidden)
            yield (f"lifted-n{n}-{'hidden' if hidden else 'plain'}", lifted.model,
                   lifted.exact.x, 0.0, 0.0, lifted.expected_axis_roots)
    yield ("predator-prey", tb.models.build("predator-prey"),
           np.array([1.0, 1.0]), 0.5, 2.0, ())


def scan(tb, wrong: list) -> dict:
    ms, matrices, callbacks = {}, {}, {}
    for name, model, x, lam, mu, expected in scan_cases(tb):
        matrices[name], callbacks[name] = Counter(dict.fromkeys(KERNELS, 0)), Counter()
        with counted_kernels(matrices[name]):
            _, warn = tb.verify.spectral_scan(counting_model(model, callbacks[name]),
                                              x, lam, mu)
        ms[name] = round(median_us(lambda: tb.verify.spectral_scan(model, x, lam, mu)) / 1e3, 3)
        got = sorted(warn, key=lambda z: z.imag)
        want = sorted(expected, key=lambda z: z.imag)
        if len(got) != len(want) or any(abs(g - w) > ROOT_TOL for g, w in zip(got, want)):
            wrong.append(f"scan {name}: axis roots {got}, expected {want}")
        if callbacks[name] != dict.fromkeys(("f", "d1", "d2"), 1):
            wrong.append(f"scan {name}: callbacks {dict(callbacks[name])}, expected one "
                         "each of f, d1, d2")
    return {"scan_ms": ms, "matrices": matrices, "callbacks": callbacks}


# -- cli: one in-process cli.main call by phase

def cli(tb, wrong: list) -> dict:
    #: phase -> the (owner, attribute) functions whose outermost calls it times
    phases = {
        "parse": [(argparse.ArgumentParser, "parse_known_args")],
        "config_model": [(tb.cli, name) for name in ("_load_config", "_build_model",
                                                     "_candidate", "_functionals", "_options")],
        "newton": [(tb.cli, "newton_solve")],
        "certificate": [(tb.cli, "_verify_solution")],
        "json_out": [(tb.cli, "_json"), (json, "dumps")],
    }
    # per call: seconds by phase, from the outermost traced call only (_json
    # recurses, and a parser's pass may nest another), and argparse passes
    seconds, passes, depth = Counter(), 0, 0

    def timed(phase: str, fn):
        def call(*args, **kwargs):
            nonlocal passes, depth
            passes += phase == "parse"
            if depth:
                return fn(*args, **kwargs)
            depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[phase] += time.perf_counter() - start
                depth -= 1
        return call

    builds, per_call = Counter(), {name: [] for name, _, _ in COMMANDS}
    # the other sections built the shared default predator-prey already
    tb.models._default.cache_clear()
    with patched(*((owner, attr, timed(phase, getattr(owner, attr)))
                   for phase, fns in phases.items() for owner, attr in fns),
                 *((tb.models, attr, counting(builds, attr, getattr(tb.models, attr)))
                   for attr in ("predator_prey", "synthetic_tb"))):
        for _ in range(CALLS):
            for name, argv, expected in COMMANDS:
                seconds.clear()
                passes = 0
                out = io.StringIO()
                start = time.perf_counter()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    code = tb.cli.main(argv)
                total = time.perf_counter() - start
                if code != expected:
                    wrong.append(f"cli {name}: exit {code}, expected {expected}")
                if passes != 1:
                    wrong.append(f"cli {name}: {passes} argparse passes in one call")
                per_call[name].append({"total": total, **seconds,
                                       "other": total - sum(seconds.values()),
                                       "passes": passes})
    result = {}
    for name, calls in per_call.items():
        us = {key: round(1e6 * statistics.median(c.get(key, 0.0) for c in calls), 1)
              for key in ("total", *phases, "other")}
        result[name] = {"us": us, "argparse_passes_per_call":
                        statistics.mean(c["passes"] for c in calls)}
    if builds["predator_prey"] != 1:
        wrong.append(f"cli: predator-prey built {builds['predator_prey']} times, expected once")
    return {"per_call": result, "calls": CALLS, "model_builds": dict(builds)}


def main() -> int:
    tb = SimpleNamespace(**{m: importlib.import_module(f"tbdde.{m}") for m in
                            ("cli", "defining", "eigenstructure", "linalg", "model",
                             "models", "verify")})
    wrong = []
    out = {section.__name__: section(tb, wrong) for section in (newton, scan, cli)}
    print(json.dumps({**out, "repeats": REPEATS, "blas_threads": 1}))
    for line in dict.fromkeys(wrong):
        print(f"error: {line}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
