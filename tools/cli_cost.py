"""Cost of one in-process ``tbdde.cli.main`` call, phase by phase.

Run it from the root of a checkout as ``python3 tools/cli_cost.py``.  It
imports the package from ``src/`` and pins BLAS to one thread.  It makes
CALLS rounds of three calls, in turn, with the fixtures of ``tests/fixtures``:

- ``solve --json`` on ``solve_pp_1.json`` (exit 0);
- ``verify --json`` on ``verify_pp_point.json``, the predator-prey TB
  point (exit 0);
- ``verify --json`` on ``verify_pp_off.json``, a point off it (exit 3).

This is the shape of a ``pp-cli`` benchmark case at n = 2, where the
command line around Newton and the certificate is a large share of a call.
Each call is timed by wall clock, and split into phases by timing the
outermost call of the functions that make up each phase:

- parse: ``argparse.ArgumentParser.parse_known_args``;
- config and model: ``cli._load_config``, ``_build_model``, ``_candidate``,
  ``_functionals`` and ``_options``;
- newton: ``cli.newton_solve``;
- certificate: ``cli._verify_solution`` (linearization, basis and checks);
- json out: ``cli._json`` and ``json.dumps``;
- other: the rest of the call (dispatch, the timestamp, printing).

It prints one JSON line: by command, the median microseconds per call of
the whole call and of each phase, and the argparse passes per call; and the
models built in the whole run, by name.  It exits 1 if a call exits with
another code than above, makes other than one argparse pass, or if the run
builds predator-prey other than once: every call without model constants
shares one default model.
"""

import os

# BLAS threads are pinned before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tbdde import cli, models  # noqa: E402

CALLS = 200         # rounds of the three calls
FIXTURES = ROOT / "tests" / "fixtures"
#: (name, argv, expected exit code) of each call of a round
COMMANDS = (("solve", ["solve", "--config", str(FIXTURES / "solve_pp_1.json"), "--json"], 0),
            ("verify_point", ["verify", "--config", str(FIXTURES / "verify_pp_point.json"),
                              "--json"], 0),
            ("verify_off", ["verify", "--config", str(FIXTURES / "verify_pp_off.json"),
                            "--json"], 3))
#: phase -> the (owner, attribute) functions whose outermost calls it times
PHASES = {
    "parse": [(argparse.ArgumentParser, "parse_known_args")],
    "config_model": [(cli, name) for name in ("_load_config", "_build_model", "_candidate",
                                              "_functionals", "_options")],
    "newton": [(cli, "newton_solve")],
    "certificate": [(cli, "_verify_solution")],
    "json_out": [(cli, "_json"), (json, "dumps")],
}


class Phases:
    """Seconds per phase and argparse passes of the current call, from the
    outermost traced call only (``_json`` recurses, and a parser's pass may
    nest another)."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.seconds, self.passes, self.depth = Counter(), 0, 0

    def wrap(self, phase: str, fn):
        def timed(*args, **kwargs):
            if phase == "parse":
                self.passes += 1
            if self.depth:
                return fn(*args, **kwargs)
            self.depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[phase] += time.perf_counter() - start
                self.depth -= 1
        return timed


@contextlib.contextmanager
def patched(phases: Phases, builds: Counter):
    """Time PHASES into ``phases`` and count model builds into ``builds``."""
    saved = [(owner, name, getattr(owner, name)) for fns in PHASES.values()
             for owner, name in fns]
    saved += [(models, name, getattr(models, name)) for name in ("predator_prey",
                                                                 "synthetic_tb")]

    def counted(name, fn):
        def build(*args, **kwargs):
            builds[name] += 1
            return fn(*args, **kwargs)
        return build

    try:
        for phase, fns in PHASES.items():
            for owner, name in fns:
                setattr(owner, name, phases.wrap(phase, getattr(owner, name)))
        for name in ("predator_prey", "synthetic_tb"):
            setattr(models, name, counted(name, getattr(models, name)))
        yield
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)


def main() -> int:
    per_call = {name: [] for name, _, _ in COMMANDS}
    builds, wrong = Counter(), []
    phases = Phases()
    with patched(phases, builds):
        for _ in range(CALLS):
            for name, argv, expected in COMMANDS:
                phases.reset()
                out = io.StringIO()
                start = time.perf_counter()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    code = cli.main(argv)
                total = time.perf_counter() - start
                if code != expected:
                    wrong.append(f"{name}: exit {code}, expected {expected}")
                if phases.passes != 1:
                    wrong.append(f"{name}: {phases.passes} argparse passes in one call")
                per_call[name].append({"total": total, **phases.seconds,
                                       "other": total - sum(phases.seconds.values()),
                                       "passes": phases.passes})
    result = {}
    for name, calls in per_call.items():
        us = {key: round(1e6 * statistics.median(c.get(key, 0.0) for c in calls), 1)
              for key in ("total", *PHASES, "other")}
        result[name] = {"us": us, "argparse_passes_per_call":
                        statistics.mean(c["passes"] for c in calls)}
    if builds["predator_prey"] != 1:
        wrong.append(f"predator-prey built {builds['predator_prey']} times, expected once")
    print(json.dumps({"per_call": result, "calls": CALLS, "model_builds": dict(builds),
                      "blas_threads": 1}))
    for line in dict.fromkeys(wrong):
        print(f"error: {line}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
